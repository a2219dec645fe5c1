//! Metrics and the two JSON lines a run prints: the detail object (every
//! metric with median, p90 and sample count) and the result object
//! (`correct`, `attempted`, `failed`, and the metrics `BENCHMARK.json`
//! names, each with its value and unit).

use std::fmt::Write as _;

use crate::stats::Summary;

/// The end-to-end metrics `BENCHMARK.json` names, with their units. Every
/// workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sample_ms_p50", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The median over its samples (the value itself for a single
    /// measurement).
    pub median: f64,
    /// The 90th percentile, when at least ten samples lie beyond it.
    pub p90: Option<f64>,
    /// How many samples it summarizes.
    pub n: usize,
}

impl Metric {
    /// Summarizes per-sample `values`.
    pub fn of(name: impl Into<String>, unit: &'static str, values: &[f64]) -> Metric {
        let s = Summary::of(values);
        Metric {
            name: name.into(),
            unit,
            median: s.median,
            p90: s.p90,
            n: s.n,
        }
    }

    /// A single measured or exact value.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            median: value,
            p90: None,
            n: 1,
        }
    }

    /// Per-sample `rates`: the median rate, and as its tail the rate at
    /// the p90 of time per unit (the slow tail, refused by the same
    /// rule).
    pub fn rate(name: impl Into<String>, unit: &'static str, rates: &[f64]) -> Metric {
        let per_unit: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        Metric {
            name: name.into(),
            unit,
            median: Summary::of(rates).median,
            p90: Summary::of(&per_unit).p90.map(|t| 1.0 / t),
            n: rates.len(),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// The seed the run was given.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Results checked.
    pub attempted: u64,
    /// Checked results that were wrong.
    pub failed: u64,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One JSON object with every metric's unit, median, p90 (`null`
    /// when refused) and sample count.
    pub fn detail_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"metrics\":{{",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let p90 = m.p90.map_or("null".to_owned(), num);
            let _ = write!(
                s,
                "{sep}\"{}\":{{\"unit\":\"{}\",\"median\":{},\"p90\":{p90},\"n\":{}}}",
                m.name,
                m.unit,
                num(m.median),
                m.n
            );
        }
        s.push_str("}}");
        s
    }

    /// The result object: `correct`, `attempted`, `failed`, and the
    /// metrics called `names`, each as `{"value", "unit"}`.
    ///
    /// # Errors
    ///
    /// Names the first metric the run did not produce.
    pub fn result_json<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<String, String> {
        let mut entries = Vec::new();
        for name in names {
            let m = self
                .metric(name)
                .ok_or_else(|| format!("{} produced no metric {name}", self.workload))?;
            entries.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(m.median),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            entries.join(",")
        ))
    }
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never produced by a correct run)
/// become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The process's peak resident set (`VmHWM`), MiB, on Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_requested_metrics() {
        let report = Report {
            workload: "explorer",
            seed: 1,
            traced: false,
            attempted: 13,
            failed: 0,
            metrics: vec![
                Metric::single("a", "ms", 1.5),
                Metric::single("b", "s", 2.0),
            ],
        };
        assert_eq!(
            report.result_json(["a"]).unwrap(),
            "{\"correct\":true,\"attempted\":13,\"failed\":0,\
             \"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
        assert!(report.result_json(["c"]).is_err());
        assert!(report
            .detail_json()
            .contains("\"b\":{\"unit\":\"s\",\"median\":2,\"p90\":null,\"n\":1}"));
    }

    #[test]
    fn rates_use_the_median_and_the_slow_tail() {
        let rates: Vec<f64> = (1..=100).map(|i| 100.0 / i as f64).collect();
        let m = Metric::rate("ops_per_s", "ops/s", &rates);
        assert_eq!(m.median, (100.0 / 50.0 + 100.0 / 51.0) / 2.0);
        assert!((m.p90.unwrap() - 100.0 / 90.0).abs() < 1e-9);
        assert_eq!(m.n, 100);
    }
}
