//! `ras-bench`: one harness for every timed number of the reproduction.
//!
//! A run measures one named [`Workload`] in its own process. The
//! untraced run takes a few warm-up samples, then timed samples, and
//! reports each end-to-end metric with its median, p90 and sample count
//! ([`end_to_end`]). The traced run interleaves untraced and traced
//! samples of the same workload for the tracing overhead, then measures
//! the per-layer suite ([`traced`]). Every sample checks its own results;
//! a run with a failed check reports `correct: false`.

pub mod layers;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

pub use layers::{LayerScale, PER_LAYER};
pub use reference::Reference;
pub use report::{Metric, Report, END_TO_END};
pub use stats::{Arm, Budget};
pub use trace::Tracer;
pub use workloads::{run_sample, Sample, Spec, Workload, DEFAULT_SEED};

/// Untimed samples before timing starts: the first samples of a process
/// pay page faults and allocator growth that steady-state work does not.
pub const WARMUP: usize = 3;

/// Traced samples whose spans a traced run keeps, and its number of
/// untraced/traced pairs when no time is given. A lock-server sample
/// makes ~10,000 spans, so the spans of later samples are dropped as
/// each sample ends.
pub const TRACED_SAMPLES: usize = 10;

/// The metric reported for the tracing overhead of a traced run.
pub const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead", "x");

/// Runs `spec` untraced for `budget` and reports the end-to-end metrics
/// of `workload`. Each sample is preceded by one run of the reference
/// kernel, and the sample's host times are scaled by that run's
/// [`Reference::factor`]; the unscaled times are reported as `wall.*`.
///
/// # Panics
///
/// Panics if the process's peak resident set cannot be read (`VmHWM`
/// in `/proc/self/status`, Linux only).
pub fn end_to_end(workload: Workload, spec: &Spec, seed: u64, budget: Budget) -> Report {
    let mut tr = Tracer::disabled();
    let mut reference = Reference::new();
    let mut checker = Checker::default();
    let mut index = 0;
    let runs = stats::sample(WARMUP, budget, || {
        index += 1;
        let reference = reference.time();
        let mut sample = run_sample(&spec.sample(index - 1), &mut tr);
        checker.add(&mut sample);
        (reference, sample)
    });
    // `f(sample, factor)` per sample; a factor of 1 gives wall time.
    let per_sample = |f: &dyn Fn(&Sample, f64) -> f64, scaled: bool| {
        runs.iter()
            .map(|(r, s)| f(s, if scaled { Reference::factor(*r) } else { 1.0 }))
            .collect::<Vec<_>>()
    };
    let setup = |s: &Sample, k: f64| s.setup.as_secs_f64() * k;
    let total = |s: &Sample, k: f64| s.total.as_secs_f64() * 1e3 * k;
    let ops = |s: &Sample, k: f64| s.ops as f64 / (s.total.as_secs_f64() * k);
    let mut metrics = vec![
        Metric::of("setup_s", "s", &per_sample(&setup, true)),
        Metric::of("sample_ms_p50", "ms", &per_sample(&total, true)),
        Metric::rate("ops_per_s", "ops/s", &per_sample(&ops, true)),
    ];
    if runs[0].1.instructions > 0 {
        let mips = |s: &Sample, k: f64| s.instructions as f64 / 1e6 / (s.run.as_secs_f64() * k);
        metrics.push(Metric::rate(
            "sim_mips",
            "Minstr/s",
            &per_sample(&mips, true),
        ));
        // Exact: the mean over the distinct inputs the run visited.
        let inputs = &checker.first;
        let cycles_per_op = inputs
            .values()
            .map(|s| s.cycles as f64 / s.ops as f64)
            .sum::<f64>()
            / inputs.len() as f64;
        metrics.push(Metric::single(
            "guest_cycles_per_op",
            "cycles",
            cycles_per_op,
        ));
    }
    metrics.extend([
        Metric::of("wall.setup_s", "s", &per_sample(&setup, false)),
        Metric::of("wall.sample_ms_p50", "ms", &per_sample(&total, false)),
        Metric::rate("wall.ops_per_s", "ops/s", &per_sample(&ops, false)),
        Metric::of(
            "host.reference_ms",
            "ms",
            &runs
                .iter()
                .map(|(r, _)| r.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
    ]);
    let Checker {
        attempted, failed, ..
    } = checker;
    metrics.push(Metric::single(
        "failed_frac",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));
    metrics.push(Metric::single(
        "peak_rss_mb",
        "MiB",
        report::peak_rss_mb().expect("VmHWM is readable"),
    ));
    Report {
        workload: workload.name(),
        seed,
        traced: false,
        attempted,
        failed,
        metrics,
    }
}

/// The traced run: pairs of one untraced and one traced sample of `spec`
/// until `budget` is spent (the median per-pair ratio is the tracing
/// overhead), then the per-layer suite at `scale`. `tr` keeps the spans
/// of the first [`TRACED_SAMPLES`] traced samples, with sample ids from
/// 1, and the suite's spans, with sample id 0.
pub fn traced(
    workload: Workload,
    spec: &Spec,
    seed: u64,
    budget: Budget,
    scale: &LayerScale,
    tr: &mut Tracer,
) -> Report {
    let mut untraced = Tracer::disabled();
    for _ in 0..WARMUP {
        run_sample(spec, &mut untraced);
    }
    // Both arms of pair `p` run the run's input `p`.
    let (mut plain_index, mut traced_index) = (0, 0);
    let pairs = stats::interleave(budget, |arm| match arm {
        Arm::A => {
            plain_index += 1;
            run_sample(&spec.sample(plain_index - 1), &mut untraced)
        }
        Arm::B => {
            traced_index += 1;
            let mut dropped = Tracer::enabled();
            let tr = if traced_index <= TRACED_SAMPLES {
                &mut *tr
            } else {
                &mut dropped
            };
            tr.set_sample(traced_index as u32);
            tr.begin("bench", "sample");
            let sample = run_sample(&spec.sample(traced_index - 1), tr);
            tr.end(&[]);
            sample
        }
    });
    let kept = traced_index.min(TRACED_SAMPLES);
    tr.set_sample(0);
    let overhead: Vec<f64> = pairs
        .iter()
        .map(|(plain, traced)| traced.total.as_secs_f64() / plain.total.as_secs_f64())
        .collect();
    // A traced run feeds the engine one quantum of fuel per call, which
    // moves translation-tier counters but must not move a single
    // simulated cycle or instruction.
    let (mut plain, mut spanned) = (Checker::default(), Checker::default());
    let mut drifted = 0;
    for (mut a, mut b) in pairs {
        drifted += u64::from((a.cycles, a.instructions) != (b.cycles, b.instructions));
        plain.add(&mut a);
        spanned.add(&mut b);
    }
    let mut attempted = plain.attempted + spanned.attempted;
    let mut failed = plain.failed + spanned.failed + drifted;

    let layers = layers::measure(scale, tr);
    attempted += layers.checked;
    failed += layers.failed;
    let mut metrics = layers.metrics;
    metrics.push(Metric::of(TRACE_OVERHEAD.0, TRACE_OVERHEAD.1, &overhead));
    if let Some(first) = plain.first.values().next() {
        for (name, value) in &first.counts {
            metrics.push(Metric::single(
                format!("count.{name}"),
                "count",
                *value as f64,
            ));
        }
    }
    for t in tr.self_times(|span| span.sample > 0) {
        metrics.push(Metric::single(
            format!("self_ms.{}.{}", t.layer, t.name),
            "ms",
            t.self_ms / kept as f64,
        ));
    }
    Report {
        workload: workload.name(),
        seed,
        traced: true,
        attempted,
        failed,
        metrics,
    }
}

/// A running tally of checked results. It keeps the counts of the first
/// sample of each input, which every later sample of that input must
/// repeat exactly: the simulator is deterministic.
#[derive(Debug, Default)]
struct Checker {
    first: BTreeMap<u64, Sample>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Adds `sample`'s checks and takes its counts, so that a long run
    /// holds one set of counts per input rather than per sample.
    fn add(&mut self, sample: &mut Sample) {
        self.attempted += sample.checked;
        self.failed += sample.failed;
        let counts = std::mem::take(&mut sample.counts);
        match self.first.get(&sample.input) {
            Some(first) => self.failed += u64::from(first.counts != counts),
            None => {
                let first = Sample {
                    counts,
                    ..sample.clone()
                };
                self.first.insert(sample.input, first);
            }
        }
    }
}
