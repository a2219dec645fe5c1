//! The per-layer suite: host cost of each crate, measured by timing calls
//! into its public functions. Every traced run measures the whole suite,
//! so each layer number reads the same way whichever workload's trace it
//! came with; what a layer number should move end to end is in the
//! README's layer map.
//!
//! Timed probes pair two arms and alternate which goes first, so each
//! ratio or difference is a same-run number; the metric is the median
//! over pairs.

use std::time::Duration;

use ras_core::experiments::{
    head_to_head, table1, table2, table3, table4, HeadToHeadScale, VerifyScale,
};
use ras_guest::codegen::{emit_exit, emit_join, emit_spawn, emit_yield};
use ras_guest::workloads::{
    counter_loop, fork_test, lock_server, mutex_bench, ping_pong, spinlock_bench, CounterBody,
    CounterSpec, Table2Spec,
};
use ras_guest::{BuiltGuest, GuestBuilder, Mechanism};
use ras_isa::Reg;
use ras_kernel::{KernelConfig, Outcome};
use ras_machine::EngineKind;
use ras_model::{CheckConfig, ModelTarget};

use crate::reference::{Reference, REFERENCE_MS};
use crate::report::Metric;
use crate::stats::{interleave, median, ms, Arm, Budget};
use crate::trace::Tracer;
use crate::workloads::{
    boot, kernel_config, run_sample, Sample, Spec, Workload, ATOMICITY_MECHANISMS,
};

/// Every per-layer metric the suite reports, with its unit, in report
/// order. `BENCHMARK.json` lists the same names plus `trace.overhead`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("guest.build_ms", "ms"),
    ("guest.cycles_per_op.ras-registered", "cycles"),
    ("guest.cycles_per_op.ras-inline", "cycles"),
    ("guest.cycles_per_op.kernel-emulation", "cycles"),
    ("guest.cycles_per_op.lamport-a", "cycles"),
    ("guest.cycles_per_op.lamport-b", "cycles"),
    ("guest.cycles_per_op.rseq", "cycles"),
    ("guest.rollbacks_per_100_quanta", "1/100quanta"),
    ("guest.rseq_aborts_per_100_quanta", "1/100quanta"),
    ("kernel.boot_ms", "ms"),
    ("kernel.ns_per_op.yield", "ns"),
    ("kernel.ns_per_op.emul_trap", "ns"),
    ("kernel.ns_per_op.mutex", "ns"),
    ("kernel.ns_per_op.pingpong", "ns"),
    ("kernel.ns_per_op.fork", "ns"),
    ("kernel.checkpoint_ns", "ns"),
    ("kernel.restore_ns", "ns"),
    ("machine.ns_per_instr.interp", "ns"),
    ("machine.ns_per_instr.translated", "ns"),
    ("machine.translated_speedup", "x"),
    ("machine.translated_share", "ratio"),
    ("machine.deopts_per_kinstr", "1/kinstr"),
    ("machine.blocks_compiled", "count"),
    ("machine.block_entries", "count"),
    ("obs.telemetry_overhead", "x"),
    ("obs.ns_per_lock_event", "ns"),
    ("model.ms_per_target.p50", "ms"),
    ("model.ms_per_target.max", "ms"),
    ("model.schedules", "count"),
    ("model.checkpoints", "count"),
    ("model.undo_replayed", "count"),
    ("model.snapshot_bytes", "bytes"),
    ("model.states_deduped", "count"),
    ("model.pruned", "count"),
    ("analyze.ms_per_target", "ms"),
    ("core.table1_ms", "ms"),
    ("core.table2_ms", "ms"),
    ("core.table3_ms", "ms"),
    ("core.table4_ms", "ms"),
    ("core.verify_unattributed_share", "ratio"),
    ("lockserver-zipf.residual_share", "ratio"),
    ("lockserver-10k.residual_share", "ratio"),
];

/// Sizes of the suite's probes. [`LayerScale::full`] is what the
/// benchmark runs; tests shrink it.
#[derive(Debug, Clone)]
pub struct LayerScale {
    /// Pairs per interleaved probe.
    pub pairs: usize,
    /// Repetitions of the heavy probes (model targets, tables, verify,
    /// the 10k server).
    pub reps: usize,
    /// The lock server whose telemetry cost and residual are measured.
    pub zipf: Spec,
    /// The 10,000-client server: build and boot cost, residual.
    pub clients_10k: Spec,
    /// Critical sections per Table 1 row; the kernel probes scale from
    /// it.
    pub iterations: u32,
    /// The hostile head-to-head pass.
    pub hostile: HeadToHeadScale,
    /// The model-check configuration.
    pub check: CheckConfig,
    /// The verify scale (tables and the whole pass).
    pub verify: VerifyScale,
}

impl LayerScale {
    /// The suite at benchmark size, with the lock servers on `seed`.
    pub fn full(seed: u64) -> LayerScale {
        let Spec::Atomicity {
            iterations,
            hostile,
        } = Workload::Atomicity.spec(seed)
        else {
            unreachable!("the atomicity workload has an atomicity spec")
        };
        LayerScale {
            pairs: 10,
            reps: 3,
            zipf: Workload::LockserverZipf.spec(seed),
            clients_10k: Workload::Lockserver10k.spec(seed),
            iterations,
            hostile,
            check: CheckConfig::default(),
            verify: VerifyScale::default(),
        }
    }
}

/// The suite's metrics and checks.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// [`PER_LAYER`]'s metrics, then `host.reference_ms`.
    pub metrics: Vec<Metric>,
    /// Results checked.
    pub checked: u64,
    /// Checked results that were wrong.
    pub failed: u64,
}

impl Layers {
    fn check(&mut self, ok: bool) {
        self.checked += 1;
        self.failed += u64::from(!ok);
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.median)
    }

    fn push(&mut self, name: &str, values: &[f64]) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.metrics.push(Metric::of(name, unit, values));
    }
}

/// Runs every probe at `scale`, recording a span around each timed call.
/// The reference kernel runs between probes, and every host time (units
/// `ms` and `ns`) is scaled by the factor of its median, as end-to-end
/// times are; that median is reported as `host.reference_ms`.
pub fn measure(scale: &LayerScale, tr: &mut Tracer) -> Layers {
    let mut out = Layers::default();
    let mut reference = Reference::new();
    let mut reference_ms = vec![ms(reference.time())];
    guest_and_boot(scale, tr, &mut out);
    reference_ms.push(ms(reference.time()));
    machine_rows(scale, tr, &mut out);
    reference_ms.push(ms(reference.time()));
    let rows = tr
        .time("core", "head_to_head", || head_to_head(&scale.hostile))
        .0;
    let row = |m: Mechanism| rows.iter().find(|r| r.mechanism == m);
    let (ras, rseq) = (row(Mechanism::RasInline), row(Mechanism::Rseq));
    out.check(ras.is_some() && rseq.is_some());
    out.push(
        "guest.rollbacks_per_100_quanta",
        &[ras.map_or(0.0, |r| r.metrics.rollbacks_per_100_quanta())],
    );
    out.push(
        "guest.rseq_aborts_per_100_quanta",
        &[rseq.map_or(0.0, |r| r.metrics.aborts_per_100_quanta())],
    );
    kernel_probes(scale, tr, &mut out);
    reference_ms.push(ms(reference.time()));
    checkpoints(scale, tr, &mut out);
    reference_ms.push(ms(reference.time()));
    let zipf = telemetry(scale, tr, &mut out);
    reference_ms.push(ms(reference.time()));
    let model_ms = model(scale, tr, &mut out);
    reference_ms.push(ms(reference.time()));
    core(scale, model_ms, tr, &mut out);
    reference_ms.push(ms(reference.time()));

    // Residuals: the share of lock-server time the layer costs above do
    // not account for.
    out.push("lockserver-zipf.residual_share", &[residual(&out, &zipf)]);
    let samples: Vec<Sample> = (0..scale.reps)
        .map(|r| timed_sample(&scale.clients_10k.sample(r), tr))
        .collect();
    for s in &samples {
        out.check(s.failed == 0);
    }
    let typical = median_sample(samples);
    out.push("lockserver-10k.residual_share", &[residual(&out, &typical)]);

    out.metrics
        .sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    let factor = REFERENCE_MS / median(&reference_ms);
    for m in out
        .metrics
        .iter_mut()
        .filter(|m| matches!(m.unit, "ms" | "ns"))
    {
        m.median *= factor;
        m.p90 = m.p90.map(|v| v * factor);
    }
    out.metrics
        .push(Metric::of("host.reference_ms", "ms", &reference_ms));
    out
}

/// One untraced sample of `spec` inside a single `bench.sample` span:
/// its time must not include tracing overhead.
fn timed_sample(spec: &Spec, tr: &mut Tracer) -> Sample {
    tr.time("bench", "sample", || {
        run_sample(spec, &mut Tracer::disabled())
    })
    .0
}

/// The sample whose total time is the median of `samples`.
fn median_sample(mut samples: Vec<Sample>) -> Sample {
    samples.sort_by_key(|s| s.total);
    let mid = samples.len() / 2;
    samples.swap_remove(mid)
}

fn count(sample: &Sample, name: &str) -> f64 {
    sample
        .counts
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// `1 − (instructions × ns/instr + yields × ns/yield + lock events ×
/// ns/event) ÷ sample time`.
fn residual(layers: &Layers, sample: &Sample) -> f64 {
    let explained = count(sample, "instructions") * layers.value("machine.ns_per_instr.translated")
        + count(sample, "yields") * layers.value("kernel.ns_per_op.yield")
        + count(sample, "lock_events") * layers.value("obs.ns_per_lock_event");
    1.0 - explained / sample.total.as_nanos() as f64
}

fn guest_and_boot(scale: &LayerScale, tr: &mut Tracer, out: &mut Layers) {
    let Spec::LockServer {
        server,
        stack_bytes,
        ..
    } = &scale.clients_10k
    else {
        unreachable!("the 10k workload is a lock server")
    };
    let (mut build, mut boots) = (Vec::new(), Vec::new());
    for _ in 0..scale.pairs {
        let (built, t) = tr.time("guest", "lock_server", || {
            lock_server(Mechanism::RasRegistered, server)
        });
        build.push(ms(t));
        let mut config = kernel_config(&built);
        config.max_threads = server.clients + 2;
        config.stack_bytes = *stack_bytes;
        let (_, t) = tr.time("kernel", "boot", || boot(&built, config));
        boots.push(ms(t));
    }
    out.push("guest.build_ms", &build);
    out.push("kernel.boot_ms", &boots);
}

/// Host time and guest work of one `Kernel::run` to completion.
#[derive(Debug, Clone, Copy)]
struct Run {
    time: Duration,
    instructions: u64,
    cycles: u64,
    completed: bool,
}

/// Boots `built` (untimed) and times `Kernel::run` to completion.
fn timed_run(built: &BuiltGuest, config: KernelConfig, tr: &mut Tracer) -> Run {
    let mut kernel = boot(built, config);
    let (outcome, time) = tr.time("kernel", "run", || kernel.run(u64::MAX));
    Run {
        time,
        instructions: kernel.machine().instructions_retired(),
        cycles: kernel.machine().clock(),
        completed: outcome == Outcome::Completed,
    }
}

/// The Table 1 rows on both engines, interleaved: host ns per
/// instruction per engine and their same-run ratio, over the rows whose
/// work is the machine's alone (kernel emulation's cost is its traps,
/// which `kernel.ns_per_op.emul_trap` measures), and the exact guest
/// cycles per critical section of every row (identical on both engines).
fn machine_rows(scale: &LayerScale, tr: &mut Tracer, out: &mut Layers) {
    let spec = CounterSpec {
        iterations: scale.iterations,
        workers: 1,
        body: CounterBody::LockAndCounter,
    };
    let guests: Vec<BuiltGuest> = ATOMICITY_MECHANISMS
        .iter()
        .map(|&m| counter_loop(m, &spec))
        .collect();
    // Arm A runs every row on the interpreter, arm B on the translator.
    let pairs = interleave(Budget::Samples(scale.pairs), |arm| {
        guests
            .iter()
            .map(|built| {
                let mut config = kernel_config(built);
                config.engine = match arm {
                    Arm::A => EngineKind::Interpreter,
                    Arm::B => EngineKind::Translated,
                };
                timed_run(built, config, tr)
            })
            .collect::<Vec<Run>>()
    });
    for (interp, translated) in &pairs {
        for (i, t) in interp.iter().zip(translated) {
            out.check(i.completed && t.completed && i.cycles == t.cycles);
        }
    }
    let machine_only = |rows: &[Run]| {
        rows.iter()
            .zip(&guests)
            .filter(|(_, g)| g.mechanism != Mechanism::KernelEmulation)
            .fold((0.0, 0.0), |(ns, n), (r, _)| {
                (ns + r.time.as_nanos() as f64, n + r.instructions as f64)
            })
    };
    let (mut interp, mut translated, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in &pairs {
        let ((i_ns, n), (t_ns, _)) = (machine_only(i), machine_only(t));
        interp.push(i_ns / n);
        translated.push(t_ns / n);
        speedup.push(i_ns / t_ns);
    }
    out.push("machine.ns_per_instr.interp", &interp);
    out.push("machine.ns_per_instr.translated", &translated);
    out.push("machine.translated_speedup", &speedup);
    for (built, run) in guests.iter().zip(&pairs[0].1) {
        out.push(
            &format!("guest.cycles_per_op.{}", built.mechanism.id()),
            &[run.cycles as f64 / f64::from(scale.iterations)],
        );
    }
}

/// Two threads that each yield `per_thread` times: the kernel's
/// voluntary switch path with no lock traffic.
fn yield_loop(per_thread: u32) -> BuiltGuest {
    let mut b = GuestBuilder::new(Mechanism::RasRegistered, 3);
    let (asm, _, _) = b.parts();
    let worker = asm.bind_symbol("worker");
    asm.mv(Reg::S0, Reg::A0);
    let top = asm.bind_new();
    emit_yield(asm);
    asm.addi(Reg::S0, Reg::S0, -1);
    asm.bnez(Reg::S0, top);
    emit_exit(asm);

    let main = asm.bind_symbol("main");
    asm.mv(Reg::S3, Reg::RA);
    for tid in [Reg::S4, Reg::S5] {
        asm.li(Reg::T0, per_thread as i32);
        emit_spawn(asm, worker, Reg::T0);
        asm.mv(tid, Reg::V0);
    }
    emit_join(asm, Reg::S4);
    emit_join(asm, Reg::S5);
    asm.jr(Reg::S3);
    b.finish(main).expect("yield loop assembles")
}

/// Host ns per kernel operation: each probe guest through `Kernel::run`,
/// minus the machine-only `spinlock_bench(RasRegistered)` cost per op
/// from the same pair.
fn kernel_probes(scale: &LayerScale, tr: &mut Tracer, out: &mut Layers) {
    let n = scale.iterations;
    let small = (n / 50).max(1);
    let spec = |iterations| Table2Spec { iterations };
    let baseline = spinlock_bench(Mechanism::RasRegistered, &spec(n));
    let fork = fork_test(Mechanism::RasRegistered, &spec(small));
    let mut fork_config = kernel_config(&fork);
    fork_config.max_threads = small as usize + 2;
    fork_config.stack_bytes = 1024;
    let probes = [
        (
            "kernel.ns_per_op.yield",
            yield_loop(n / 2),
            None,
            2 * (n / 2),
        ),
        (
            "kernel.ns_per_op.emul_trap",
            spinlock_bench(Mechanism::KernelEmulation, &spec(n)),
            None,
            n,
        ),
        (
            "kernel.ns_per_op.mutex",
            mutex_bench(Mechanism::RasRegistered, &spec(n)),
            None,
            n,
        ),
        (
            "kernel.ns_per_op.pingpong",
            ping_pong(Mechanism::RasRegistered, &spec(small)),
            None,
            small,
        ),
        ("kernel.ns_per_op.fork", fork, Some(fork_config), small),
    ];
    for (name, built, config, ops) in probes {
        let config = config.unwrap_or_else(|| kernel_config(&built));
        let pairs = interleave(Budget::Samples(scale.pairs), |arm| match arm {
            Arm::A => timed_run(&baseline, kernel_config(&baseline), tr),
            Arm::B => timed_run(&built, config.clone(), tr),
        });
        let per_op: Vec<f64> = pairs
            .iter()
            .map(|(base, probe)| {
                probe.time.as_nanos() as f64 / f64::from(ops)
                    - base.time.as_nanos() as f64 / f64::from(n)
            })
            .collect();
        for (base, probe) in &pairs {
            out.check(base.completed && probe.completed);
        }
        out.push(name, &per_op);
    }
}

/// `checkpoint_into` and `restore` on a booted 64-client lock server
/// (66 TCBs) with every client spawned.
fn checkpoints(scale: &LayerScale, tr: &mut Tracer, out: &mut Layers) {
    const BATCH: u32 = 1_000;
    let Spec::LockServer { server, .. } = &scale.zipf else {
        unreachable!("the zipf workload is a lock server")
    };
    let built = lock_server(Mechanism::RasRegistered, server);
    let mut config = kernel_config(&built);
    config.engine = EngineKind::Interpreter;
    config.max_threads = server.clients + 2;
    let mut kernel = boot(&built, config);
    kernel.enable_checkpoints();
    let outcome = kernel.run(100_000);
    out.check(matches!(outcome, Outcome::OutOfFuel | Outcome::Completed));
    let mut cp = kernel.checkpoint();
    let (mut take, mut restore) = (Vec::new(), Vec::new());
    for _ in 0..scale.pairs {
        let (_, t) = tr.time("kernel", "checkpoint_into", || {
            for _ in 0..BATCH {
                kernel.checkpoint_into(std::hint::black_box(&mut cp));
            }
        });
        take.push(t.as_nanos() as f64 / f64::from(BATCH));
        let (_, t) = tr.time("kernel", "restore", || {
            for _ in 0..BATCH {
                std::hint::black_box(kernel.restore(&cp));
            }
        });
        restore.push(t.as_nanos() as f64 / f64::from(BATCH));
    }
    out.push("kernel.checkpoint_ns", &take);
    out.push("kernel.restore_ns", &restore);
}

/// Telemetry on and off, interleaved, on the Zipfian server: the median
/// of per-pair ratios (not a ratio of two independent minima) and the
/// per-event cost. Returns the median telemetry-on sample, whose
/// translation counters describe the translated tier under load.
fn telemetry(scale: &LayerScale, tr: &mut Tracer, out: &mut Layers) -> Sample {
    let Spec::LockServer {
        server,
        stack_bytes,
        ..
    } = &scale.zipf
    else {
        unreachable!("the zipf workload is a lock server")
    };
    let arm = |telemetry| Spec::LockServer {
        server: *server,
        stack_bytes: *stack_bytes,
        telemetry,
    };
    let (off, on) = (arm(false), arm(true));
    // Both arms of pair `p` run schedule `p`.
    let (mut off_index, mut on_index) = (0, 0);
    let pairs = interleave(Budget::Samples(scale.pairs), |arm| match arm {
        Arm::A => {
            off_index += 1;
            timed_sample(&off.sample(off_index - 1), tr)
        }
        Arm::B => {
            on_index += 1;
            timed_sample(&on.sample(on_index - 1), tr)
        }
    });
    for (d, e) in &pairs {
        out.check(d.failed == 0 && e.failed == 0 && d.cycles == e.cycles);
    }
    let ratio: Vec<f64> = pairs
        .iter()
        .map(|(d, e)| e.total.as_secs_f64() / d.total.as_secs_f64())
        .collect();
    let per_event: Vec<f64> = pairs
        .iter()
        .map(|(d, e)| {
            (e.total.as_nanos() as f64 - d.total.as_nanos() as f64) / count(e, "lock_events")
        })
        .collect();
    out.push("obs.telemetry_overhead", &ratio);
    out.push("obs.ns_per_lock_event", &per_event);
    let on = median_sample(pairs.into_iter().map(|(_, e)| e).collect());
    let instructions = count(&on, "instructions");
    out.push(
        "machine.translated_share",
        &[count(&on, "translated_instructions") / instructions],
    );
    out.push(
        "machine.deopts_per_kinstr",
        &[count(&on, "deopts") * 1e3 / instructions],
    );
    out.push("machine.blocks_compiled", &[count(&on, "blocks_compiled")]);
    out.push("machine.block_entries", &[count(&on, "block_entries")]);
    on
}

/// Host time per `check_target` call, plus the explorer's exact counters.
/// Returns the summed per-target medians: the matrix's host time.
fn model(scale: &LayerScale, tr: &mut Tracer, out: &mut Layers) -> f64 {
    let targets = ModelTarget::all();
    let mut per_target = vec![Vec::new(); targets.len()];
    let mut reports = Vec::new();
    for _ in 0..scale.reps {
        reports.clear();
        for (i, &target) in targets.iter().enumerate() {
            let (report, t) = tr.time("model", "check_target", || {
                ras_model::check_target(target, &scale.check)
            });
            per_target[i].push(ms(t));
            reports.push(report);
        }
    }
    for r in &reports {
        out.check(r.ok());
    }
    let medians: Vec<f64> = per_target.iter().map(|t| median(t)).collect();
    out.push("model.ms_per_target.p50", &[median(&medians)]);
    out.push(
        "model.ms_per_target.max",
        &[medians.iter().copied().fold(0.0, f64::max)],
    );
    let sum = |f: fn(&ras_model::TargetReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    out.push("model.schedules", &[sum(|t| t.schedules)]);
    out.push("model.checkpoints", &[sum(|t| t.checkpoints)]);
    out.push("model.undo_replayed", &[sum(|t| t.undo_replayed)]);
    out.push("model.snapshot_bytes", &[sum(|t| t.snapshot_bytes)]);
    out.push("model.states_deduped", &[sum(|t| t.states_deduped)]);
    out.push("model.pruned", &[sum(|t| t.pruned)]);
    medians.iter().sum()
}

/// The analyzer sweep, each table at verify scale, and the whole verify
/// pass; the verify time the components (with `model_ms` for the
/// model-check matrix) do not cover is its unattributed share.
fn core(scale: &LayerScale, model_ms: f64, tr: &mut Tracer, out: &mut Layers) {
    let set = ras_kernel::DesignatedSet::standard();
    let (mut build, mut sweep_ms, mut tables, mut verify) =
        (Vec::new(), Vec::new(), vec![Vec::new(); 4], Vec::new());
    let mut targets = 0;
    for _ in 0..scale.reps {
        let (sweep, t) = tr.time(
            "analyze",
            "bundled_workloads",
            ras_analyze::bundled_workloads,
        );
        build.push(ms(t));
        targets = sweep.len();
        let (errors, t) = tr.time("analyze", "analyze+infer_sequences", || {
            sweep
                .iter()
                .filter(|w| {
                    let errors = ras_analyze::analyze(&w.program, &set).has_errors();
                    std::hint::black_box(ras_analyze::infer_sequences(&w.program));
                    errors
                })
                .count()
        });
        out.check(errors == 0);
        sweep_ms.push(ms(t));
        let v = &scale.verify;
        tables[0].push(ms(tr.time("core", "table1", || table1(v.t1)).1));
        tables[1].push(ms(tr.time("core", "table2", || table2(&v.t2)).1));
        tables[2].push(ms(tr.time("core", "table3", || table3(&v.t3)).1));
        tables[3].push(ms(tr.time("core", "table4", || table4(v.t4)).1));
        let (verification, t) = tr.time("core", "verify_reproduction", || {
            ras_core::experiments::verify_reproduction(v)
        });
        out.check(verification.all_hold());
        verify.push(ms(t));
    }
    out.push(
        "analyze.ms_per_target",
        &sweep_ms
            .iter()
            .map(|t| t / targets.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    for (i, t) in tables.iter().enumerate() {
        out.push(&format!("core.table{}_ms", i + 1), t);
    }
    // The verify pass's components timed on their own: the four tables,
    // the model-check matrix, and the analyzer sweep with its guest
    // construction.
    let attributed = tables.iter().map(|t| median(t)).sum::<f64>()
        + model_ms
        + median(&build)
        + median(&sweep_ms);
    out.push(
        "core.verify_unattributed_share",
        &[1.0 - attributed / median(&verify)],
    );
}
