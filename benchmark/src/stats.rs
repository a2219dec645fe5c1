//! The one sampling primitive every timed number goes through: untimed
//! warm-up samples, then timed samples until a budget runs out, and
//! interleaved arms for same-run ratios.

use std::time::{Duration, Instant};

/// How many samples a tail percentile needs beyond it before it is
/// reported. With fewer, the "p90" is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// How long the timed phase of a run lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many timed samples.
    Samples(usize),
    /// Timed samples until this much host time has passed (at least one).
    Time(Duration),
}

/// Runs `warmup` untimed calls of `f`, then timed calls until `budget`
/// is spent, returning the timed results in order. `f` measures itself:
/// the loop only decides how often to call it.
pub fn sample<T>(warmup: usize, budget: Budget, mut f: impl FnMut() -> T) -> Vec<T> {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f());
        let done = match budget {
            Budget::Samples(n) => out.len() >= n,
            Budget::Time(d) => start.elapsed() >= d,
        };
        if done {
            return out;
        }
    }
}

/// One side of an interleaved comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The reference side (first in even pairs).
    A,
    /// The compared side (first in odd pairs).
    B,
}

/// Runs pairs of the two arms until `budget` is spent (a sample budget
/// counts pairs), alternating which arm goes first, and returns
/// `(a, b)` per pair. Pairing the arms in time is what makes their ratio
/// a same-run number: host drift between pairs cancels inside each pair.
pub fn interleave<T>(budget: Budget, mut run: impl FnMut(Arm) -> T) -> Vec<(T, T)> {
    let mut pair = 0usize;
    sample(0, budget, || {
        pair += 1;
        if pair % 2 == 1 {
            let a = run(Arm::A);
            (a, run(Arm::B))
        } else {
            let b = run(Arm::B);
            (run(Arm::A), b)
        }
    })
}

/// Median and tail of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle values for even `n`).
    pub median: f64,
    /// The nearest-rank 90th percentile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (`n < 100`).
    pub p90: Option<f64>,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty: a metric needs at least one sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: median_sorted(&sorted),
            p90: tail_percentile(&sorted, 0.90),
        }
    }
}

/// The median of `values` (mean of the two middle values for even
/// length).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` percentile of ascending `sorted`, refused
/// (`None`) when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
