//! The five named workloads. One call of [`run_sample`] is one sample:
//! it builds, boots and runs its guests through the crates' public
//! functions, checks the results, and reports its own host times.
//!
//! Each workload stresses a different layer, so a change to one layer
//! should move some workloads and predict no change on the others (see
//! the README for the map).

use std::time::{Duration, Instant};

use ras_core::experiments::{head_to_head, verify_reproduction, HeadToHeadScale, VerifyScale};
use ras_guest::workloads::{
    counter_loop, lock_addresses, lock_server, model_counter, Arrival, CounterBody, CounterSpec,
    LockServerSpec, ModelSpec,
};
use ras_guest::{BuiltGuest, Mechanism};
use ras_kernel::{Kernel, KernelConfig, Outcome};
use ras_machine::{CpuProfile, EngineKind};
use ras_model::{model_check, CheckConfig, ModelTarget};

use crate::trace::Tracer;

/// The lock-server schedule seed when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED_1001;

/// Lock-server preemption quantum, in cycles: short enough that the
/// 64 clients interleave inside critical sections.
pub const LOCK_SERVER_QUANTUM: u64 = 5_000;

/// The Table 1 rows the atomicity workload runs, in the paper's order
/// plus rseq.
pub(crate) const ATOMICITY_MECHANISMS: [Mechanism; 6] = [
    Mechanism::RasRegistered,
    Mechanism::RasInline,
    Mechanism::KernelEmulation,
    Mechanism::LamportPerLock,
    Mechanism::LamportBundled,
    Mechanism::Rseq,
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 clients × 8 locks, Zipfian, telemetry on: the `ras-stat` user.
    LockserverZipf,
    /// 10,000 clients × 64 locks on 512-byte stacks: per-thread kernel
    /// work.
    Lockserver10k,
    /// Table 1's counter loop per mechanism plus the §5.2 hostile
    /// head-to-head: pure machine work and the rollback/abort path.
    Atomicity,
    /// The full model-check matrix: the `ras-check` user.
    Explorer,
    /// `verify_reproduction` at default scale: the `tables --verify`
    /// user.
    Reproduce,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::LockserverZipf,
        Workload::Lockserver10k,
        Workload::Atomicity,
        Workload::Explorer,
        Workload::Reproduce,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LockserverZipf => "lockserver-zipf",
            Workload::Lockserver10k => "lockserver-10k",
            Workload::Atomicity => "atomicity",
            Workload::Explorer => "explorer",
            Workload::Reproduce => "reproduce",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed samples per run when no time budget is given. Each count is
    /// at least 100, so the p90 has ten samples beyond it.
    pub fn default_samples(self) -> usize {
        match self {
            Workload::LockserverZipf => 150,
            Workload::Lockserver10k | Workload::Reproduce => 100,
            Workload::Atomicity => 200,
            Workload::Explorer => 120,
        }
    }

    /// The full-size spec. For the lock servers `seed` is the seed the
    /// [`SCHEDULES`] schedule seeds derive from ([`Spec::sample`]); the
    /// other workloads have no random input.
    pub fn spec(self, seed: u64) -> Spec {
        match self {
            Workload::LockserverZipf => Spec::LockServer {
                server: LockServerSpec {
                    clients: 64,
                    locks: 8,
                    ops_per_client: 1_000,
                    arrival: Arrival::Zipfian,
                    think: 200,
                    seed,
                    ..LockServerSpec::default()
                },
                stack_bytes: 16 * 1024,
                telemetry: true,
            },
            Workload::Lockserver10k => Spec::LockServer {
                server: LockServerSpec {
                    clients: 10_000,
                    locks: 64,
                    ops_per_client: 10,
                    arrival: Arrival::Zipfian,
                    think: 200,
                    seed,
                    ..LockServerSpec::default()
                },
                stack_bytes: 512,
                telemetry: true,
            },
            Workload::Atomicity => Spec::Atomicity {
                iterations: 100_000,
                hostile: HeadToHeadScale {
                    iterations: 1_500,
                    workers: 2,
                    spin: 100,
                    quantum: 503,
                },
            },
            Workload::Explorer => Spec::Explorer(CheckConfig::default()),
            Workload::Reproduce => Spec::Reproduce(VerifyScale::default()),
        }
    }
}

/// What one sample runs. [`Workload::spec`] gives the full size; tests
/// shrink the numbers.
#[derive(Debug, Clone)]
pub enum Spec {
    /// One `lock_server(RasRegistered)` run on the translated engine.
    LockServer {
        /// Clients, locks, ops, arrival and seed.
        server: LockServerSpec,
        /// Per-thread stack size.
        stack_bytes: u32,
        /// Whether streaming telemetry watches the lock words.
        telemetry: bool,
    },
    /// The Table 1 rows, then the hostile head-to-head.
    Atomicity {
        /// Critical sections per Table 1 row (one worker).
        iterations: u32,
        /// The §5.2 hostile pass.
        hostile: HeadToHeadScale,
    },
    /// `model_check` over every target.
    Explorer(CheckConfig),
    /// `verify_reproduction`.
    Reproduce(VerifyScale),
}

/// Schedule seeds a lock-server run cycles through. The contention of a
/// Zipfian server depends on the order of its one 512-entry schedule
/// (guest cycles per operation range over ±9% between seeds), so a run
/// that measured a single schedule would report its seed, not the
/// server. Sample `i` runs schedule `i mod SCHEDULES` of the run's seed.
pub const SCHEDULES: usize = 32;

impl Spec {
    /// The spec of a run's sample `index`: lock servers take the
    /// `index mod SCHEDULES`-th schedule seed derived from their seed;
    /// the other workloads have no random input and run the same spec
    /// every sample.
    pub fn sample(&self, index: usize) -> Spec {
        let mut spec = self.clone();
        if let Spec::LockServer { server, .. } = &mut spec {
            server.seed = schedule_seed(server.seed, index % SCHEDULES);
        }
        spec
    }
}

/// The `k`-th schedule seed of `seed` (SplitMix64 of the pair).
fn schedule_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sample's measurements and checks.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// The random input the sample ran (the lock-server schedule seed;
    /// zero for workloads without one). Samples with the same input
    /// must produce the same counts.
    pub input: u64,
    /// Host time of the whole sample.
    pub total: Duration,
    /// Host time spent constructing and booting guests: inside `total`
    /// for the lock servers and atomicity, separately timed before
    /// `total` for the explorer and reproduce (whose public entry points
    /// build their guests internally).
    pub setup: Duration,
    /// Operations completed: lock operations, critical sections,
    /// schedules explored, or claims verified.
    pub ops: u64,
    /// Results checked.
    pub checked: u64,
    /// Checked results that were wrong.
    pub failed: u64,
    /// Guest instructions retired by the sample's simulator runs (zero
    /// where the entry point does not report them).
    pub instructions: u64,
    /// Host time of those simulator runs (`Kernel::run` only).
    pub run: Duration,
    /// Simulated cycles of those runs.
    pub cycles: u64,
    /// Exact counts: identical on every run of the same input.
    pub counts: Vec<(String, u64)>,
}

/// Runs one sample of `spec`, recording spans on `tr` when it is
/// enabled.
pub fn run_sample(spec: &Spec, tr: &mut Tracer) -> Sample {
    match spec {
        Spec::LockServer {
            server,
            stack_bytes,
            telemetry,
        } => lock_server_sample(server, *stack_bytes, *telemetry, tr),
        Spec::Atomicity {
            iterations,
            hostile,
        } => atomicity_sample(*iterations, hostile, tr),
        Spec::Explorer(config) => explorer_sample(config, tr),
        Spec::Reproduce(scale) => reproduce_sample(scale, tr),
    }
}

/// A kernel configuration with `ras_core::RunOptions`' defaults (16 KiB
/// stacks, 8 MiB of memory, 250,000-cycle quantum) on the R3000 and the
/// translated engine, which is what `run_guest` users get.
pub(crate) fn kernel_config(built: &BuiltGuest) -> KernelConfig {
    let mut config = built.kernel_config(CpuProfile::r3000());
    config.stack_bytes = 16 * 1024;
    config.engine = EngineKind::Translated;
    config
}

/// Boots `built` under `config`.
///
/// # Panics
///
/// Panics if the guest does not fit the configured memory — every
/// benchmark guest does, so that is a configuration bug.
pub(crate) fn boot(built: &BuiltGuest, config: KernelConfig) -> Kernel {
    built.boot(config).expect("benchmark guest boots")
}

/// Counter values read across a `Kernel::run` call.
#[derive(Debug, Clone, Copy)]
struct RunCounters {
    instructions: u64,
    syscalls: u64,
    switches: u64,
    translated: u64,
    deopts: u64,
}

impl RunCounters {
    fn of(kernel: &Kernel) -> RunCounters {
        let translation = kernel.translation_stats().unwrap_or_default();
        RunCounters {
            instructions: kernel.machine().instructions_retired(),
            syscalls: kernel.stats().syscalls,
            switches: kernel.stats().context_switches,
            translated: translation.translated_instructions,
            deopts: translation.deopts(),
        }
    }

    fn delta(self, before: RunCounters) -> [(&'static str, u64); 5] {
        [
            ("instructions", self.instructions - before.instructions),
            ("syscalls", self.syscalls - before.syscalls),
            ("context_switches", self.switches - before.switches),
            (
                "translated_instructions",
                self.translated - before.translated,
            ),
            ("deopts", self.deopts - before.deopts),
        ]
    }
}

/// Runs `kernel` to the end. Traced, each call of `Kernel::run` gets
/// one quantum of fuel and its own span with the counter deltas.
/// Returns the outcome and the host time spent inside `Kernel::run`.
pub(crate) fn run_kernel(
    kernel: &mut Kernel,
    quantum: u64,
    tr: &mut Tracer,
) -> (Outcome, Duration) {
    let start = Instant::now();
    if !tr.is_enabled() {
        let outcome = kernel.run(u64::MAX);
        return (outcome, start.elapsed());
    }
    loop {
        let before = RunCounters::of(kernel);
        tr.begin("kernel", "run");
        let outcome = kernel.run(quantum);
        tr.end(&RunCounters::of(kernel).delta(before));
        if outcome != Outcome::OutOfFuel {
            return (outcome, start.elapsed());
        }
    }
}

fn lock_server_sample(
    server: &LockServerSpec,
    stack_bytes: u32,
    telemetry: bool,
    tr: &mut Tracer,
) -> Sample {
    let start = Instant::now();
    tr.begin("guest", "lock_server");
    let built = lock_server(Mechanism::RasRegistered, server);
    let watch = lock_addresses(&built, server);
    tr.end(&[]);
    let mut config = kernel_config(&built);
    config.quantum = LOCK_SERVER_QUANTUM;
    config.max_threads = server.clients + 2;
    config.stack_bytes = stack_bytes;
    tr.begin("kernel", "boot");
    let mut kernel = boot(&built, config);
    tr.end(&[]);
    if telemetry {
        tr.begin("obs", "enable_telemetry");
        kernel.enable_telemetry(&watch, false);
        tr.end(&[]);
    }
    let setup = start.elapsed();
    let (outcome, run) = run_kernel(&mut kernel, LOCK_SERVER_QUANTUM, tr);
    let lock_stats = telemetry.then(|| {
        tr.begin("obs", "take_telemetry");
        let aggregate = kernel.take_telemetry().expect("telemetry was enabled");
        tr.end(&[]);
        aggregate.locks().iter().fold((0, 0, 0), |(a, r, c), l| {
            (a + l.acquisitions, r + l.releases, c + l.contended_probes)
        })
    });
    let total = start.elapsed();

    // Every operation must show up in its lock's counter and, with
    // telemetry on, as exactly one acquisition.
    let expected = server.total_ops();
    let ops_done = built.data.symbol("ops_done").expect("lock server counters");
    let counted: u64 = (0..server.locks as u32)
        .map(|i| u64::from(kernel.read_word(ops_done + 4 * i).unwrap_or(0)))
        .sum();
    let (acquisitions, releases, contended) = lock_stats.unwrap_or((expected, expected, 0));
    let failed = if outcome == Outcome::Completed {
        expected
            .abs_diff(counted)
            .max(expected.abs_diff(acquisitions))
            .max(expected.abs_diff(releases))
    } else {
        expected
    };
    let stats = *kernel.stats();
    let translation = kernel.translation_stats().unwrap_or_default();
    let cycles = kernel.machine().clock();
    let instructions = kernel.machine().instructions_retired();
    Sample {
        input: server.seed,
        total,
        setup,
        ops: expected,
        checked: expected,
        failed,
        instructions,
        run,
        cycles,
        counts: vec![
            ("cycles".into(), cycles),
            ("instructions".into(), instructions),
            ("syscalls".into(), stats.syscalls),
            ("context_switches".into(), stats.context_switches),
            ("preemptions".into(), stats.preemptions),
            ("blocks".into(), stats.blocks),
            ("yields".into(), stats.yields),
            ("lock_events".into(), acquisitions + releases + contended),
            (
                "translated_instructions".into(),
                translation.translated_instructions,
            ),
            ("deopts".into(), translation.deopts()),
            ("blocks_compiled".into(), translation.blocks_compiled),
            ("block_entries".into(), translation.block_entries),
        ],
    }
}

fn atomicity_sample(iterations: u32, hostile: &HeadToHeadScale, tr: &mut Tracer) -> Sample {
    let start = Instant::now();
    let spec = CounterSpec {
        iterations,
        workers: 1,
        body: CounterBody::LockAndCounter,
    };
    let mut sample = Sample::default();
    for mechanism in ATOMICITY_MECHANISMS {
        let setup = Instant::now();
        tr.begin("guest", "counter_loop");
        let built = counter_loop(mechanism, &spec);
        tr.end(&[]);
        let config = kernel_config(&built);
        let quantum = config.quantum;
        tr.begin("kernel", "boot");
        let mut kernel = boot(&built, config);
        tr.end(&[]);
        sample.setup += setup.elapsed();
        let (outcome, run) = run_kernel(&mut kernel, quantum, tr);
        let counter = built.data.symbol("counter").expect("counter symbol");
        let value = u64::from(kernel.read_word(counter).unwrap_or(0));
        sample.failed += if outcome == Outcome::Completed {
            spec.total_ops().abs_diff(value)
        } else {
            spec.total_ops()
        };
        sample.run += run;
        sample.instructions += kernel.machine().instructions_retired();
        sample.cycles += kernel.machine().clock();
        sample.counts.push((
            format!("cycles.{}", mechanism.id()),
            kernel.machine().clock(),
        ));
    }
    sample.ops = spec.total_ops() * ATOMICITY_MECHANISMS.len() as u64;

    tr.begin("core", "head_to_head");
    let rows = head_to_head(hostile);
    tr.end(&[]);
    sample.total = start.elapsed();
    let hostile_ops = u64::from(hostile.iterations) * hostile.workers as u64;
    sample.ops += hostile_ops * rows.len() as u64;
    sample.cycles += rows.iter().map(|r| r.cycles).sum::<u64>();
    let row = |m: Mechanism| rows.iter().find(|r| r.mechanism == m);
    match (row(Mechanism::RasInline), row(Mechanism::Rseq)) {
        (Some(ras), Some(rseq)) => {
            // Each strategy must recover only by its own means, and the
            // hostile quantum must actually drive both recovery paths.
            sample.failed += ras.metrics.rseq_aborts + rseq.metrics.rollbacks;
            sample.failed += u64::from(ras.metrics.rollbacks == 0);
            sample.failed += u64::from(rseq.metrics.rseq_aborts == 0);
            sample.counts.extend([
                ("rollbacks".to_owned(), ras.metrics.rollbacks),
                ("rollback_quanta".to_owned(), ras.metrics.quantum_expiries),
                ("rseq_aborts".to_owned(), rseq.metrics.rseq_aborts),
                ("rseq_quanta".to_owned(), rseq.metrics.quantum_expiries),
            ]);
        }
        _ => sample.failed += hostile_ops,
    }
    sample.checked = sample.ops;
    sample
}

fn explorer_sample(config: &CheckConfig, tr: &mut Tracer) -> Sample {
    let targets = ModelTarget::all();
    // The explorer builds and boots one small kernel per target before
    // it searches; time the same construction on its own.
    let setup = Instant::now();
    for target in &targets {
        let spec = ModelSpec {
            iterations: config.iterations,
            workers: config.workers,
        };
        let built = model_counter(target.mechanism, target.flavor, &spec);
        let mut kc = built.kernel_config(target.profile());
        kc.mem_bytes = 32 * 1024;
        kc.stack_bytes = 4096;
        kc.max_threads = config.workers + 2;
        kc.engine = config.engine;
        std::hint::black_box(boot(&built, kc));
    }
    let setup = setup.elapsed();

    let start = Instant::now();
    let reports = if tr.is_enabled() {
        targets
            .iter()
            .map(|&target| {
                tr.time("model", "check_target", || {
                    ras_model::check_target(target, config)
                })
                .0
            })
            .collect()
    } else {
        model_check(config).targets
    };
    let total = start.elapsed();
    let sum = |f: fn(&ras_model::TargetReport) -> u64| reports.iter().map(f).sum::<u64>();
    let schedules = sum(|t| t.schedules);
    Sample {
        total,
        setup,
        ops: schedules,
        checked: targets.len() as u64,
        failed: reports.iter().filter(|t| !t.ok()).count() as u64
            + targets.len().abs_diff(reports.len()) as u64,
        counts: vec![
            ("schedules".into(), schedules),
            ("pruned".into(), sum(|t| t.pruned)),
            ("checkpoints".into(), sum(|t| t.checkpoints)),
            ("undo_replayed".into(), sum(|t| t.undo_replayed)),
            ("snapshot_bytes".into(), sum(|t| t.snapshot_bytes)),
            ("states_deduped".into(), sum(|t| t.states_deduped)),
        ],
        ..Sample::default()
    }
}

fn reproduce_sample(scale: &VerifyScale, tr: &mut Tracer) -> Sample {
    // The verify pass builds every bundled workload program for its
    // analyzer sweep; time that construction on its own.
    let setup = Instant::now();
    std::hint::black_box(ras_analyze::bundled_workloads());
    let setup = setup.elapsed();

    let (verification, total) =
        tr.time("core", "verify_reproduction", || verify_reproduction(scale));
    let claims = verification.claims.len() as u64;
    Sample {
        total,
        setup,
        ops: claims,
        checked: claims,
        failed: verification.failures().len() as u64 + u64::from(claims == 0),
        counts: vec![(
            "claims_held".into(),
            claims - verification.failures().len() as u64,
        )],
        ..Sample::default()
    }
}
