//! Aggregated counters derived from the event stream.

use std::fmt::Write as _;

use crate::{ObsEvent, SwitchReason};

/// Global and per-thread counters aggregated from the event stream.
///
/// Built incrementally by [`Metrics::apply`]; the [`crate::Recording`]
/// recorder feeds it automatically. All cycle figures are simulated
/// machine cycles.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Threads created while recording (the boot marker's pre-existing
    /// threads are not counted here).
    pub spawns: u64,
    /// Dispatches (a thread given the processor).
    pub dispatches: u64,
    /// Dispatches that actually switched threads.
    pub context_switches: u64,
    /// Timer-quantum expiries (involuntary preemptions).
    pub quantum_expiries: u64,
    /// Suspensions whose PC lay inside a restartable atomic sequence —
    /// the paper's "rare event".
    pub preemptions_inside_sequence: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Straight-line cycles of rolled-back work that had to re-execute.
    pub wasted_cycles: u64,
    /// Syscall traps.
    pub syscalls: u64,
    /// Kernel-emulated Test-And-Set probes.
    pub lock_attempts: u64,
    /// Probes that found the lock held.
    pub lock_contended_attempts: u64,
    /// Cycles threads spent spinning between the first contended probe of
    /// a streak and the acquire that ended it.
    pub lock_contention_cycles: u64,
    /// Sequence registrations.
    pub registrations: u64,
    /// rseq area registrations (`SYS_RSEQ`).
    pub rseq_registrations: u64,
    /// rseq critical sections aborted to their handler on preemption.
    pub rseq_aborts: u64,
    /// Straight-line cycles of rseq window work discarded by aborts.
    pub rseq_wasted_cycles: u64,
    /// User-level recovery redirects.
    pub user_redirects: u64,
    /// Page faults serviced.
    pub page_faults: u64,
    /// Wake-ups delivered.
    pub wakeups: u64,
    /// Cycles the processor idled with nothing runnable.
    pub idle_cycles: u64,
    /// Cycles threads spent dispatched (user code plus the kernel work
    /// charged while they ran).
    pub run_cycles: u64,
    threads: Vec<ThreadMetrics>,
    /// Thread id → slot in `threads` (`u32::MAX` = unseen). Keeps the
    /// per-event lookup O(1); without it every event paid an O(threads)
    /// scan, which at 10k clients dominated the whole telemetry run.
    index: Vec<u32>,
    last_dispatched: Option<u32>,
}

/// Per-thread slice of [`Metrics`].
#[derive(Debug, Clone, Default)]
pub struct ThreadMetrics {
    /// The thread id.
    pub thread: u32,
    /// Dispatches of this thread.
    pub dispatches: u64,
    /// Quantum expiries that hit this thread.
    pub quantum_expiries: u64,
    /// Rollbacks of this thread.
    pub rollbacks: u64,
    /// Wasted re-execution cycles attributed to this thread.
    pub wasted_cycles: u64,
    /// Syscalls this thread made.
    pub syscalls: u64,
    /// Cycles this thread spent dispatched.
    pub run_cycles: u64,
    dispatched_at: Option<u64>,
    contending_since: Option<u64>,
}

impl Metrics {
    /// Folds one event into the counters.
    pub fn apply(&mut self, clock: u64, event: &ObsEvent) {
        match *event {
            ObsEvent::Boot { .. } => {}
            ObsEvent::Spawn { thread } => {
                self.spawns += 1;
                self.thread_mut(thread);
            }
            ObsEvent::Dispatch { thread } => {
                self.dispatches += 1;
                if self.last_dispatched != Some(thread) {
                    self.context_switches += 1;
                }
                self.last_dispatched = Some(thread);
                let t = self.thread_mut(thread);
                t.dispatches += 1;
                t.dispatched_at = Some(clock);
            }
            ObsEvent::SwitchOut {
                thread,
                reason,
                inside_sequence,
            } => {
                if reason == SwitchReason::Quantum {
                    self.quantum_expiries += 1;
                }
                if inside_sequence {
                    self.preemptions_inside_sequence += 1;
                }
                let t = self.thread_mut(thread);
                if reason == SwitchReason::Quantum {
                    t.quantum_expiries += 1;
                }
                if let Some(at) = t.dispatched_at.take() {
                    let ran = clock.saturating_sub(at);
                    t.run_cycles += ran;
                    self.run_cycles += ran;
                }
            }
            ObsEvent::Rollback {
                thread,
                wasted_cycles,
                ..
            } => {
                self.rollbacks += 1;
                self.wasted_cycles += wasted_cycles;
                let t = self.thread_mut(thread);
                t.rollbacks += 1;
                t.wasted_cycles += wasted_cycles;
            }
            ObsEvent::UserRedirect { .. } => self.user_redirects += 1,
            ObsEvent::Syscall { thread, .. } => {
                self.syscalls += 1;
                self.thread_mut(thread).syscalls += 1;
            }
            ObsEvent::LockAttempt {
                thread, acquired, ..
            } => {
                self.lock_attempts += 1;
                if !acquired {
                    self.lock_contended_attempts += 1;
                }
                let t = self.thread_mut(thread);
                let streak_start = if acquired {
                    t.contending_since.take()
                } else {
                    t.contending_since.get_or_insert(clock);
                    None
                };
                if let Some(since) = streak_start {
                    self.lock_contention_cycles += clock.saturating_sub(since);
                }
            }
            ObsEvent::SeqRegister { .. } => self.registrations += 1,
            ObsEvent::RseqRegister { .. } => self.rseq_registrations += 1,
            ObsEvent::RseqAbort {
                thread,
                wasted_cycles,
                ..
            } => {
                self.rseq_aborts += 1;
                self.rseq_wasted_cycles += wasted_cycles;
                let t = self.thread_mut(thread);
                t.rollbacks += 1;
                t.wasted_cycles += wasted_cycles;
            }
            ObsEvent::Wake { .. } => self.wakeups += 1,
            ObsEvent::PageFault { .. } => self.page_faults += 1,
            ObsEvent::Idle { cycles } => self.idle_cycles += cycles,
        }
    }

    /// Per-thread counters, in thread-id order (threads the stream never
    /// mentioned are absent).
    pub fn threads(&self) -> &[ThreadMetrics] {
        &self.threads
    }

    /// One thread's counters, if the stream mentioned it.
    pub fn thread(&self, id: u32) -> Option<&ThreadMetrics> {
        self.threads.iter().find(|t| t.thread == id)
    }

    /// Rollbacks per hundred quantum expiries — the paper's "restarts are
    /// rare" claim as a number. Zero when no quantum ever expired.
    pub fn rollbacks_per_100_quanta(&self) -> f64 {
        if self.quantum_expiries == 0 {
            0.0
        } else {
            self.rollbacks as f64 * 100.0 / self.quantum_expiries as f64
        }
    }

    /// rseq aborts per hundred quantum expiries — the abort-handler
    /// counterpart of [`Metrics::rollbacks_per_100_quanta`]. Zero when no
    /// quantum ever expired.
    pub fn aborts_per_100_quanta(&self) -> f64 {
        if self.quantum_expiries == 0 {
            0.0
        } else {
            self.rseq_aborts as f64 * 100.0 / self.quantum_expiries as f64
        }
    }

    /// The compact text report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "observability metrics");
        let mut line = |k: &str, v: String| {
            let _ = writeln!(s, "  {k:<28} {v}");
        };
        line("dispatches", self.dispatches.to_string());
        line("context switches", self.context_switches.to_string());
        line("quantum expiries", self.quantum_expiries.to_string());
        line(
            "preemptions inside sequence",
            self.preemptions_inside_sequence.to_string(),
        );
        // A zero-quanta run has no meaningful rate: render "n/a" instead
        // of a misleading 0.00 (the accessor returns 0.0 to stay total).
        let per_quanta = |rate: f64| {
            if self.quantum_expiries == 0 {
                "n/a per 100 quanta".to_owned()
            } else {
                format!("{rate:.2} per 100 quanta")
            }
        };
        let per_event = |total: u64, events: u64| {
            if events == 0 {
                "n/a".to_owned()
            } else {
                format!("{:.1}", total as f64 / events as f64)
            }
        };
        line(
            "rollbacks",
            format!(
                "{} ({})",
                self.rollbacks,
                per_quanta(self.rollbacks_per_100_quanta())
            ),
        );
        line(
            "wasted rollback cycles",
            format!(
                "{} (avg {} per rollback)",
                self.wasted_cycles,
                per_event(self.wasted_cycles, self.rollbacks)
            ),
        );
        line("syscalls", self.syscalls.to_string());
        line(
            "lock attempts",
            format!(
                "{} ({} contended, {} contention cycles)",
                self.lock_attempts, self.lock_contended_attempts, self.lock_contention_cycles
            ),
        );
        line("sequence registrations", self.registrations.to_string());
        line("rseq registrations", self.rseq_registrations.to_string());
        line(
            "rseq aborts",
            format!(
                "{} ({})",
                self.rseq_aborts,
                per_quanta(self.aborts_per_100_quanta())
            ),
        );
        line(
            "wasted abort cycles",
            format!(
                "{} (avg {} per abort)",
                self.rseq_wasted_cycles,
                per_event(self.rseq_wasted_cycles, self.rseq_aborts)
            ),
        );
        line("user-level redirects", self.user_redirects.to_string());
        line("page faults", self.page_faults.to_string());
        line("wakeups", self.wakeups.to_string());
        line("run cycles", self.run_cycles.to_string());
        line("idle cycles", self.idle_cycles.to_string());
        let _ = writeln!(s, "per-thread");
        for t in &self.threads {
            let _ = writeln!(
                s,
                "  t{}: dispatches={} quanta={} rollbacks={} wasted={} syscalls={} run_cycles={}",
                t.thread,
                t.dispatches,
                t.quantum_expiries,
                t.rollbacks,
                t.wasted_cycles,
                t.syscalls,
                t.run_cycles
            );
        }
        s
    }

    /// One more section appended to [`Metrics::render`]-style reports:
    /// the model checker's checkpoint-engine counters, when a search ran.
    pub fn render_with_checkpoints(&self, cp: &CheckpointCounters) -> String {
        let mut s = self.render();
        s.push_str(&cp.render());
        s
    }

    fn thread_mut(&mut self, id: u32) -> &mut ThreadMetrics {
        if let Some(&slot) = self.index.get(id as usize) {
            if slot != u32::MAX {
                return &mut self.threads[slot as usize];
            }
        }
        if id as usize >= self.index.len() {
            self.index.resize(id as usize + 1, u32::MAX);
        }
        // First sight of this thread. Ids are dense and first appear in
        // spawn order, so the sorted insert is an append in practice;
        // the slice stays id-sorted either way.
        let pos = self.threads.partition_point(|t| t.thread < id);
        self.threads.insert(
            pos,
            ThreadMetrics {
                thread: id,
                ..ThreadMetrics::default()
            },
        );
        for (offset, t) in self.threads[pos..].iter().enumerate() {
            self.index[t.thread as usize] = (pos + offset) as u32;
        }
        &mut self.threads[pos]
    }
}

/// The model checker's checkpoint-engine counters, in the same shape the
/// other observability counters use so tools can render them alongside
/// [`Metrics`]. These come from the explorer's report (not the event
/// stream — snapshotting is a host-side search mechanism, invisible to
/// the simulated machine), so this is a plain carrier with a renderer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Snapshots taken for sibling branches (undo-log checkpoints, or
    /// kernel clones when checkpointing is off).
    pub checkpoints: u64,
    /// Undo-log entries replayed by restores.
    pub undo_replayed: u64,
    /// Bytes copied into snapshots.
    pub snapshot_bytes: u64,
    /// On-path states deduplicated by the exact-state hash set.
    pub states_deduped: u64,
}

impl CheckpointCounters {
    /// The compact text section, matching [`Metrics::render`]'s layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "checkpoint engine");
        let mut line = |k: &str, v: String| {
            let _ = writeln!(s, "  {k:<28} {v}");
        };
        line("checkpoints", self.checkpoints.to_string());
        line("undo entries replayed", self.undo_replayed.to_string());
        line("snapshot bytes", self.snapshot_bytes.to_string());
        line("states deduped", self.states_deduped.to_string());
        s
    }
}

/// The translation tier's counters, in the same shape the other
/// observability counters use. These come from the machine's
/// [`ras_machine::TranslationStats`] (host-side compilation mechanics,
/// invisible to the simulated architecture), so this is a plain
/// carrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationCounters {
    /// Basic blocks discovered as trace-head candidates.
    pub blocks_discovered: u64,
    /// Trace heads compiled into host closures.
    pub blocks_compiled: u64,
    /// Compiled-trace entries from the dispatcher.
    pub block_entries: u64,
    /// Guest instructions retired inside compiled traces.
    pub translated_instructions: u64,
    /// Guest cycles charged inside compiled traces.
    pub translated_cycles: u64,
    /// Guest instructions retired by the interpreter fallback.
    pub interpreted_instructions: u64,
    /// Guest cycles charged by the interpreter fallback.
    pub interpreted_cycles: u64,
    /// Deoptimizations back to the interpreter, all reasons summed.
    pub deopts: u64,
    /// Compiled traces dropped by invalidation.
    pub invalidations: u64,
}

impl From<ras_machine::TranslationStats> for TranslationCounters {
    fn from(s: ras_machine::TranslationStats) -> TranslationCounters {
        TranslationCounters {
            blocks_discovered: s.blocks_discovered,
            blocks_compiled: s.blocks_compiled,
            block_entries: s.block_entries,
            translated_instructions: s.translated_instructions,
            translated_cycles: s.translated_cycles,
            interpreted_instructions: s.interpreted_instructions,
            interpreted_cycles: s.interpreted_cycles,
            deopts: s.deopts(),
            invalidations: s.invalidations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_counters_render_every_field() {
        let cp = CheckpointCounters {
            checkpoints: 4,
            undo_replayed: 17,
            snapshot_bytes: 2048,
            states_deduped: 3,
        };
        let text = Metrics::default().render_with_checkpoints(&cp);
        for needle in [
            "checkpoint engine",
            "checkpoints",
            "undo entries replayed",
            "snapshot bytes",
            "states deduped",
            "2048",
            "17",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn translation_counters_convert_every_field() {
        let s = ras_machine::TranslationStats {
            blocks_discovered: 9,
            blocks_compiled: 3,
            block_entries: 41,
            translated_instructions: 5000,
            translated_cycles: 5100,
            interpreted_instructions: 77,
            interpreted_cycles: 80,
            deopt_sequence: 2,
            deopt_deadline: 5,
            invalidations: 1,
            ..Default::default()
        };
        let tc = TranslationCounters::from(s);
        assert_eq!(tc.deopts, 7, "deopt reasons sum into one counter");
        assert_eq!(
            (tc.blocks_discovered, tc.blocks_compiled, tc.block_entries),
            (9, 3, 41)
        );
        assert_eq!(
            (tc.translated_instructions, tc.translated_cycles),
            (5000, 5100)
        );
        assert_eq!(
            (tc.interpreted_instructions, tc.interpreted_cycles),
            (77, 80)
        );
        assert_eq!(tc.invalidations, 1);
    }

    fn feed(metrics: &mut Metrics, events: &[(u64, ObsEvent)]) {
        for (clock, e) in events {
            metrics.apply(*clock, e);
        }
    }

    #[test]
    fn run_cycles_and_context_switches() {
        let mut m = Metrics::default();
        feed(
            &mut m,
            &[
                (0, ObsEvent::Dispatch { thread: 0 }),
                (
                    100,
                    ObsEvent::SwitchOut {
                        thread: 0,
                        reason: SwitchReason::Quantum,
                        inside_sequence: false,
                    },
                ),
                (110, ObsEvent::Dispatch { thread: 1 }),
                (
                    200,
                    ObsEvent::SwitchOut {
                        thread: 1,
                        reason: SwitchReason::Exit,
                        inside_sequence: false,
                    },
                ),
                (210, ObsEvent::Dispatch { thread: 0 }),
                (
                    300,
                    ObsEvent::SwitchOut {
                        thread: 0,
                        reason: SwitchReason::Exit,
                        inside_sequence: false,
                    },
                ),
            ],
        );
        assert_eq!(m.dispatches, 3);
        assert_eq!(m.context_switches, 3);
        assert_eq!(m.quantum_expiries, 1);
        assert_eq!(m.run_cycles, 100 + 90 + 90);
        assert_eq!(m.thread(0).unwrap().run_cycles, 190);
        assert_eq!(m.thread(1).unwrap().run_cycles, 90);
        assert_eq!(m.thread(0).unwrap().quantum_expiries, 1);
    }

    #[test]
    fn redispatch_of_the_same_thread_is_not_a_context_switch() {
        let mut m = Metrics::default();
        feed(
            &mut m,
            &[
                (0, ObsEvent::Dispatch { thread: 2 }),
                (
                    10,
                    ObsEvent::SwitchOut {
                        thread: 2,
                        reason: SwitchReason::Quantum,
                        inside_sequence: false,
                    },
                ),
                (12, ObsEvent::Dispatch { thread: 2 }),
            ],
        );
        assert_eq!(m.dispatches, 2);
        assert_eq!(m.context_switches, 1);
    }

    #[test]
    fn rollback_rate_per_100_quanta() {
        let mut m = Metrics::default();
        assert_eq!(m.rollbacks_per_100_quanta(), 0.0);
        for clock in 0..200u64 {
            m.apply(
                clock,
                &ObsEvent::SwitchOut {
                    thread: 0,
                    reason: SwitchReason::Quantum,
                    inside_sequence: false,
                },
            );
        }
        m.apply(
            201,
            &ObsEvent::Rollback {
                thread: 0,
                from: 9,
                to: 5,
                wasted_cycles: 4,
            },
        );
        assert!((m.rollbacks_per_100_quanta() - 0.5).abs() < 1e-12);
        assert_eq!(m.wasted_cycles, 4);
    }

    #[test]
    fn rseq_abort_rate_per_100_quanta() {
        let mut m = Metrics::default();
        assert_eq!(m.aborts_per_100_quanta(), 0.0);
        for clock in 0..200u64 {
            m.apply(
                clock,
                &ObsEvent::SwitchOut {
                    thread: 0,
                    reason: SwitchReason::Quantum,
                    inside_sequence: false,
                },
            );
        }
        m.apply(
            100,
            &ObsEvent::RseqRegister {
                thread: 0,
                area: 64,
            },
        );
        m.apply(
            201,
            &ObsEvent::RseqAbort {
                thread: 0,
                from: 11,
                abort_ip: 20,
                wasted_cycles: 2,
            },
        );
        assert!((m.aborts_per_100_quanta() - 0.5).abs() < 1e-12);
        assert_eq!(m.rseq_registrations, 1);
        assert_eq!(m.rseq_wasted_cycles, 2);
        assert_eq!(m.thread(0).unwrap().wasted_cycles, 2);
        let text = m.render();
        assert!(text.contains("rseq aborts"));
        assert!(text.contains("rseq registrations"));
    }

    #[test]
    fn lock_contention_window_spans_failed_probes() {
        let mut m = Metrics::default();
        feed(
            &mut m,
            &[
                (
                    10,
                    ObsEvent::LockAttempt {
                        thread: 1,
                        addr: 64,
                        acquired: false,
                    },
                ),
                (
                    20,
                    ObsEvent::LockAttempt {
                        thread: 1,
                        addr: 64,
                        acquired: false,
                    },
                ),
                (
                    45,
                    ObsEvent::LockAttempt {
                        thread: 1,
                        addr: 64,
                        acquired: true,
                    },
                ),
                (
                    50,
                    ObsEvent::LockAttempt {
                        thread: 2,
                        addr: 64,
                        acquired: true,
                    },
                ),
            ],
        );
        assert_eq!(m.lock_attempts, 4);
        assert_eq!(m.lock_contended_attempts, 2);
        assert_eq!(m.lock_contention_cycles, 35);
    }

    #[test]
    fn render_mentions_the_headline_counters() {
        let mut m = Metrics::default();
        m.apply(0, &ObsEvent::Dispatch { thread: 0 });
        let text = m.render();
        assert!(text.contains("rollbacks"));
        assert!(text.contains("quantum expiries"));
        assert!(text.contains("per-thread"));
        assert!(text.contains("t0:"));
    }

    #[test]
    fn empty_recording_renders_without_division_artifacts() {
        // An enabled-but-untouched recording must render cleanly: no
        // NaN/inf from 0/0, and no fake "0.00 per 100 quanta" rate when
        // no quantum ever expired.
        let rec = crate::Recording::new(true);
        assert!(rec.events().is_empty());
        let m = rec.metrics();
        assert_eq!(m.rollbacks_per_100_quanta(), 0.0);
        assert_eq!(m.aborts_per_100_quanta(), 0.0);
        let text = m.render();
        assert!(!text.contains("NaN") && !text.contains("inf"));
        assert!(text.contains("rollbacks                    0 (n/a per 100 quanta)"));
        assert!(text.contains("(avg n/a per rollback)"));
        assert!(text.contains("(avg n/a per abort)"));
    }

    #[test]
    fn zero_quanta_with_rollbacks_still_renders_na_rate() {
        // Rollbacks can happen without quantum expiries (voluntary
        // yields inside a sequence): the per-quanta rate is undefined,
        // the per-rollback average is not.
        let mut m = Metrics::default();
        m.apply(
            10,
            &ObsEvent::Rollback {
                thread: 0,
                from: 8,
                to: 4,
                wasted_cycles: 6,
            },
        );
        assert_eq!(m.quantum_expiries, 0);
        assert_eq!(m.rollbacks_per_100_quanta(), 0.0);
        let text = m.render();
        assert!(text.contains("1 (n/a per 100 quanta)"));
        assert!(text.contains("6 (avg 6.0 per rollback)"));
    }

    #[test]
    fn nonzero_quanta_renders_a_real_rate() {
        let mut m = Metrics::default();
        m.apply(
            5,
            &ObsEvent::SwitchOut {
                thread: 0,
                reason: SwitchReason::Quantum,
                inside_sequence: false,
            },
        );
        m.apply(
            10,
            &ObsEvent::Rollback {
                thread: 0,
                from: 8,
                to: 4,
                wasted_cycles: 3,
            },
        );
        let text = m.render();
        assert!(text.contains("(100.00 per 100 quanta)"));
    }
}
