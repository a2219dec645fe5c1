//! In-memory spans around the benchmark's calls into each crate.
//!
//! Spans are recorded only in a traced run: end-to-end numbers always
//! come from untraced samples, and the traced run's own slowdown is
//! reported as the tracing overhead. Every span names the crate whose
//! public function it wraps (its layer), the sample it belongs to, its
//! parent, its start and end in nanoseconds from the tracer's origin,
//! and the counter deltas measured across it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::num;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The crate whose public function the span wraps (`guest`,
    /// `kernel`, `obs`, `model`, `analyze`, `core`), or `bench` for the
    /// benchmark's own sample spans.
    pub layer: &'static str,
    /// What ran.
    pub name: &'static str,
    /// The sample the span belongs to.
    pub sample: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counter deltas across the span.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall time of the span.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate time of every span with one `(layer, name)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTime {
    /// The span's layer.
    pub layer: &'static str,
    /// The span's name.
    pub name: &'static str,
    /// How many spans were aggregated.
    pub count: u64,
    /// Total wall time of those spans, milliseconds.
    pub total_ms: f64,
    /// Total self time (wall time minus direct children), milliseconds.
    pub self_ms: f64,
}

/// A span recorder. A disabled tracer records nothing, so workload
/// code calls it unconditionally.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    sample: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            sample: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with sample id `sample`.
    pub fn set_sample(&mut self, sample: u32) {
        self.sample = sample;
    }

    /// Opens a span; the next [`Tracer::end`] closes it.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            sample: self.sample,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, recording `counters` on it.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end(&mut self, counters: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.counters = counters.to_vec();
    }

    /// Runs `f` inside a span and returns its result with its wall time,
    /// which is measured whether or not the tracer records.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        self.begin(layer, name);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.end(&[]);
        (out, elapsed)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per `(layer, name)` over the spans `keep`
    /// accepts, sorted by layer then name.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut by_key: BTreeMap<(&'static str, &'static str), SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if !keep(span) {
                continue;
            }
            let entry = by_key.entry((span.layer, span.name)).or_insert(SelfTime {
                layer: span.layer,
                name: span.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            entry.count += 1;
            entry.total_ms += span.ns() as f64 / 1e6;
            entry.self_ms += span.ns().saturating_sub(children) as f64 / 1e6;
        }
        by_key.into_values().collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn spans_json(&self) -> String {
        let mut s = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"sample\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                span.layer, span.name, span.sample, span.start_ns, span.end_ns
            );
            for (j, (key, value)) in span.counters.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(s, "{sep}\"{key}\":{value}");
            }
            s.push_str("}}");
        }
        s.push_str("\n]");
        s
    }

    /// The self-time table as a JSON array.
    pub fn self_times_json(&self) -> String {
        let rows: Vec<String> = self
            .self_times(|_| true)
            .iter()
            .map(|t| {
                format!(
                    "{{\"layer\":\"{}\",\"name\":\"{}\",\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                    t.layer,
                    t.name,
                    t.count,
                    num(t.total_ms),
                    num(t.self_ms)
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::enabled();
        tr.begin("bench", "sample");
        tr.begin("kernel", "run");
        std::thread::sleep(Duration::from_millis(2));
        tr.end(&[("instructions", 7)]);
        tr.end(&[]);
        let times = tr.self_times(|_| true);
        let sample = times.iter().find(|t| t.name == "sample").unwrap();
        let run = times.iter().find(|t| t.name == "run").unwrap();
        assert!(run.self_ms >= 2.0);
        assert!(sample.self_ms < sample.total_ms);
        assert!((sample.total_ms - sample.self_ms - run.total_ms).abs() < 1e-9);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans_json().contains("\"instructions\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::disabled();
        let (value, elapsed) = tr.time("core", "noop", || 5);
        tr.end(&[]);
        assert_eq!(value, 5);
        assert!(elapsed >= Duration::ZERO);
        assert!(tr.spans().is_empty());
    }
}
