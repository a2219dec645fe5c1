//! Vector-clock happens-before race sanitizer.
//!
//! Fed the machine's shared-memory access log after every kernel step, it
//! maintains one vector clock per thread and, per shared word, the clocks
//! of the last writes and reads plus a "lock clock" used for
//! acquire/release edges.
//!
//! What makes a word a *synchronization* word here is observed behavior,
//! not annotation: any access performed atomically — a hardware `tas`, a
//! kernel-emulated Test-And-Set, an access inside the i860 atomic window,
//! or an access whose PC lies inside a protected restartable sequence —
//! marks its address as a sync word. Sync words carry acquire/release
//! edges (a load acquires, a store releases — so the plain `sw zero`
//! releasing a lock publishes the critical section, Figure 3's
//! `AtomicClear`) and are themselves exempt from race reports. Races are
//! reported only for plain conflicting accesses to ordinary words.
//!
//! Happens-before also flows along thread lifecycle edges: spawn (child
//! starts after the parent's spawn), exit, and join (the joiner resumes
//! after the target's exit).
//!
//! Restartable sequences under the *None* ablation get an empty protected
//! set, so their loads and stores degrade to plain accesses — and the
//! sanitizer then correctly reports the lock word itself as racy, which
//! is precisely the paper's §2 hazard seen through the lens of
//! happens-before.
//!
//! All per-word and per-thread tables are flat `Vec`s: word state is
//! indexed by `addr / 4` (shared data is a handful of words below
//! `data_end`, so the table stays tiny), exit clocks and pending joins by
//! thread id. A table grows on first touch, and an untouched slot holds
//! the same state a fresh entry would, so indexing never changes a
//! verdict — and [`RaceDetector::snapshot_into`] copies each table with
//! `clone_from`, reusing every buffer of the pooled scratch.

use ras_isa::SeqRange;
use ras_kernel::ThreadId;
use ras_machine::{AccessKind, MemAccess};

/// A vector clock, dense over thread ids.
type Vc = Vec<u64>;

fn vc_join(into: &mut Vc, other: &Vc) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, &v) in other.iter().enumerate() {
        if into[i] < v {
            into[i] = v;
        }
    }
}

/// `a ≤ b` pointwise — every event in `a` happens-before (or is) `b`.
fn vc_leq(a: &Vc, b: &Vc) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

#[derive(Debug, Default)]
struct WordState {
    /// Clock of the last write per thread.
    writes: Vc,
    /// Clock of the last read per thread.
    reads: Vc,
    /// Lock clock for acquire/release edges.
    lock: Vc,
    /// PC of the most recent write (for reports).
    last_write_pc: u32,
    /// PC of the most recent read (for reports).
    last_read_pc: u32,
    /// Observed to be accessed atomically at least once.
    sync: bool,
}

impl Clone for WordState {
    fn clone(&self) -> WordState {
        WordState {
            writes: self.writes.clone(),
            reads: self.reads.clone(),
            lock: self.lock.clone(),
            last_write_pc: self.last_write_pc,
            last_read_pc: self.last_read_pc,
            sync: self.sync,
        }
    }

    /// Field-wise, so the three clocks keep their buffers: the derived
    /// `clone_from` would allocate fresh ones at every snapshot.
    fn clone_from(&mut self, source: &WordState) {
        self.writes.clone_from(&source.writes);
        self.reads.clone_from(&source.reads);
        self.lock.clone_from(&source.lock);
        self.last_write_pc = source.last_write_pc;
        self.last_read_pc = source.last_read_pc;
        self.sync = source.sync;
    }
}

/// A detected data race: two unordered plain accesses, at least one a
/// write, to the same ordinary word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The racy word's byte address.
    pub addr: u32,
    /// PC of the earlier (already recorded) access.
    pub prior_pc: u32,
    /// PC of the access that exposed the race.
    pub pc: u32,
    /// Whether the exposing access was a write.
    pub write: bool,
}

/// The online happens-before detector for one execution. Cloned along
/// with the kernel when the explorer forks a schedule, so every explored
/// interleaving is sanitized.
#[derive(Debug, Clone)]
pub struct RaceDetector {
    clocks: Vec<Vc>,
    /// Per shared word, indexed by `addr / 4`.
    words: Vec<WordState>,
    /// Final clock of each exited thread, indexed by thread id.
    exit_vcs: Vec<Option<Vc>>,
    /// The thread each blocked joiner waits for, indexed by joiner id.
    pending_join: Vec<Option<ThreadId>>,
    protected: Vec<SeqRange>,
    data_end: u32,
    races: Vec<Race>,
}

impl RaceDetector {
    /// Creates a detector. `protected` is the set of restartable-sequence
    /// PC ranges the active strategy actually protects (empty under the
    /// `None` ablation); `data_end` bounds the shared-data region —
    /// accesses above it (thread stacks) are thread-private and ignored.
    pub fn new(protected: Vec<SeqRange>, data_end: u32) -> RaceDetector {
        RaceDetector {
            clocks: vec![vec![1]],
            words: Vec::new(),
            exit_vcs: Vec::new(),
            pending_join: Vec::new(),
            protected,
            data_end,
            races: Vec::new(),
        }
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let idx = t.0 as usize;
        while self.clocks.len() <= idx {
            self.clocks.push(vec![0]);
        }
    }

    fn bump(&mut self, t: ThreadId) {
        let idx = t.0 as usize;
        if self.clocks[idx].len() <= idx {
            self.clocks[idx].resize(idx + 1, 0);
        }
        self.clocks[idx][idx] += 1;
    }

    /// Spawn edge: the child's first event happens after the parent's
    /// spawn call.
    pub fn on_spawn(&mut self, parent: ThreadId, child: ThreadId) {
        self.ensure_thread(parent);
        self.ensure_thread(child);
        let parent_vc = self.clocks[parent.0 as usize].clone();
        vc_join(&mut self.clocks[child.0 as usize], &parent_vc);
        self.bump(child);
        self.bump(parent);
    }

    /// Exit edge: remember the thread's final clock for joiners.
    pub fn on_exit(&mut self, t: ThreadId) {
        self.ensure_thread(t);
        let idx = t.0 as usize;
        if self.exit_vcs.len() <= idx {
            self.exit_vcs.resize(idx + 1, None);
        }
        self.exit_vcs[idx] = Some(self.clocks[idx].clone());
    }

    /// The waiter blocked joining `target`; the edge lands when the
    /// waiter next runs.
    pub fn on_join_block(&mut self, waiter: ThreadId, target: ThreadId) {
        let idx = waiter.0 as usize;
        if self.pending_join.len() <= idx {
            self.pending_join.resize(idx + 1, None);
        }
        self.pending_join[idx] = Some(target);
    }

    /// Called when `t` is dispatched: applies a pending join edge if the
    /// joined thread has exited.
    pub fn on_dispatch(&mut self, t: ThreadId) {
        self.ensure_thread(t);
        let idx = t.0 as usize;
        let Some(target) = self.pending_join.get(idx).copied().flatten() else {
            return;
        };
        if let Some(Some(exit_vc)) = self.exit_vcs.get(target.0 as usize) {
            self.pending_join[idx] = None;
            vc_join(&mut self.clocks[idx], exit_vc);
            self.bump(t);
        }
    }

    fn is_protected(&self, pc: u32) -> bool {
        self.protected.iter().any(|r| pc >= r.start && pc < r.end())
    }

    /// Feeds one logged access by thread `t`.
    ///
    /// Accesses at or above `data_end` (thread stacks) are ignored, and
    /// so are unaligned ones: they fault (or, for the kernel's emulated
    /// Test-And-Set, read and write nothing), so they touch no word.
    pub fn on_access(&mut self, t: ThreadId, acc: &MemAccess) {
        if acc.addr >= self.data_end || !acc.addr.is_multiple_of(4) {
            return;
        }
        self.ensure_thread(t);
        let sync = acc.atomic || self.is_protected(acc.pc);
        let idx = t.0 as usize;
        let slot = (acc.addr / 4) as usize;
        if self.words.len() <= slot {
            self.words.resize_with(slot + 1, WordState::default);
        }
        let word = &mut self.words[slot];
        if sync {
            word.sync = true;
        }
        if word.sync {
            // Acquire on load, release on store, both on RMW. Sync words
            // are exempt from race reports: their accesses either are
            // atomic or sit inside a protected restartable sequence.
            match acc.kind {
                AccessKind::Load => vc_join(&mut self.clocks[idx], &word.lock),
                AccessKind::Store => {
                    vc_join(&mut word.lock, &self.clocks[idx]);
                    self.bump(t);
                }
                AccessKind::Rmw => {
                    vc_join(&mut self.clocks[idx], &word.lock);
                    vc_join(&mut word.lock, &self.clocks[idx]);
                    self.bump(t);
                }
            }
            return;
        }
        // Plain access to an ordinary word: the FastTrack-style check.
        let me = &self.clocks[idx];
        let racy_write = !vc_leq(&word.writes, me);
        match acc.kind {
            AccessKind::Load => {
                if racy_write {
                    self.races.push(Race {
                        addr: acc.addr,
                        prior_pc: word.last_write_pc,
                        pc: acc.pc,
                        write: false,
                    });
                }
                if word.reads.len() <= idx {
                    word.reads.resize(idx + 1, 0);
                }
                word.reads[idx] = me.get(idx).copied().unwrap_or(0);
                word.last_read_pc = acc.pc;
            }
            AccessKind::Store | AccessKind::Rmw => {
                let racy_read = !vc_leq(&word.reads, me);
                if racy_write || racy_read {
                    self.races.push(Race {
                        addr: acc.addr,
                        prior_pc: if racy_write {
                            word.last_write_pc
                        } else {
                            word.last_read_pc
                        },
                        pc: acc.pc,
                        write: true,
                    });
                }
                if word.writes.len() <= idx {
                    word.writes.resize(idx + 1, 0);
                }
                word.writes[idx] = me.get(idx).copied().unwrap_or(0);
                word.last_write_pc = acc.pc;
            }
        }
    }

    /// Drains races detected since the last call.
    pub fn take_races(&mut self) -> Vec<Race> {
        std::mem::take(&mut self.races)
    }

    /// Copies this detector's full state into `dst`, reusing `dst`'s
    /// existing allocations (clock vectors, word-state table, race
    /// buffer) wherever possible. Semantically identical to
    /// `*dst = self.clone()`; the point is that the explorer snapshots a
    /// detector at every interior decision point, and recycling one
    /// scratch detector per tree depth turns ~50 small allocations per
    /// snapshot into approximately none once the pool is warm.
    pub fn snapshot_into(&self, dst: &mut RaceDetector) {
        dst.clocks.clone_from(&self.clocks);
        dst.words.clone_from(&self.words);
        dst.exit_vcs.clone_from(&self.exit_vcs);
        dst.pending_join.clone_from(&self.pending_join);
        dst.protected.clone_from(&self.protected);
        dst.data_end = self.data_end;
        dst.races.clone_from(&self.races);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(pc: u32, addr: u32, kind: AccessKind, atomic: bool) -> MemAccess {
        MemAccess {
            pc,
            addr,
            kind,
            clock: 0,
            atomic,
            value: 0,
        }
    }

    #[test]
    fn snapshot_into_is_equivalent_to_clone() {
        // Build a detector with non-trivial state: three threads,
        // lifecycle edges, sync and plain words.
        let mut d = RaceDetector::new(Vec::new(), 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_spawn(ThreadId(0), ThreadId(2));
        d.on_access(ThreadId(0), &acc(1, 0, AccessKind::Rmw, true));
        d.on_access(ThreadId(1), &acc(2, 8, AccessKind::Store, false));
        d.on_access(ThreadId(2), &acc(3, 16, AccessKind::Load, false));
        d.on_exit(ThreadId(2));
        d.on_join_block(ThreadId(0), ThreadId(2));

        // Snapshot into a scratch already dirty with unrelated state —
        // stale words and clocks must not survive.
        let mut scratch = RaceDetector::new(Vec::new(), 1);
        scratch.on_spawn(ThreadId(0), ThreadId(1));
        scratch.on_access(ThreadId(0), &acc(9, 1024, AccessKind::Store, false));
        scratch.on_access(ThreadId(1), &acc(9, 2048, AccessKind::Store, false));
        let _ = scratch.take_races();
        d.snapshot_into(&mut scratch);

        // The snapshot and a plain clone must behave identically on any
        // subsequent access sequence.
        let mut cloned = d.clone();
        let probe = [
            (ThreadId(1), acc(30, 16, AccessKind::Store, false)),
            (ThreadId(2), acc(31, 8, AccessKind::Load, false)),
            (ThreadId(0), acc(32, 0, AccessKind::Load, false)),
        ];
        for (t, a) in &probe {
            scratch.on_access(*t, a);
            cloned.on_access(*t, a);
        }
        scratch.on_dispatch(ThreadId(0));
        cloned.on_dispatch(ThreadId(0));
        assert_eq!(scratch.take_races(), cloned.take_races());
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let mut d = RaceDetector::new(Vec::new(), 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_access(ThreadId(0), &acc(10, 0, AccessKind::Store, false));
        d.on_access(ThreadId(1), &acc(20, 0, AccessKind::Store, false));
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(
            races[0],
            Race {
                addr: 0,
                prior_pc: 10,
                pc: 20,
                write: true,
            }
        );
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        // T0: acquire (atomic rmw on lock), write data, release (plain
        // store to the now-sync lock word). T1: acquire, read data.
        let mut d = RaceDetector::new(Vec::new(), 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_access(ThreadId(0), &acc(1, 0, AccessKind::Rmw, true));
        d.on_access(ThreadId(0), &acc(2, 4, AccessKind::Store, false));
        d.on_access(ThreadId(0), &acc(3, 0, AccessKind::Store, false)); // release
        d.on_access(ThreadId(1), &acc(1, 0, AccessKind::Rmw, true)); // acquire
        d.on_access(ThreadId(1), &acc(5, 4, AccessKind::Load, false));
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn protected_sequence_pcs_count_as_atomic() {
        let seq = SeqRange { start: 10, len: 3 };
        let mut d = RaceDetector::new(vec![seq], 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        // Both threads touch the lock word only through the sequence.
        d.on_access(ThreadId(0), &acc(10, 0, AccessKind::Load, false));
        d.on_access(ThreadId(0), &acc(12, 0, AccessKind::Store, false));
        d.on_access(ThreadId(1), &acc(10, 0, AccessKind::Load, false));
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn unprotected_sequence_pcs_race() {
        // Same access pattern, but the strategy protects nothing — the
        // None ablation. The overlapping load/store window now races.
        let mut d = RaceDetector::new(Vec::new(), 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_access(ThreadId(0), &acc(10, 0, AccessKind::Load, false));
        d.on_access(ThreadId(1), &acc(10, 0, AccessKind::Load, false));
        d.on_access(ThreadId(0), &acc(12, 0, AccessKind::Store, false));
        assert!(!d.take_races().is_empty());
    }

    #[test]
    fn join_edge_orders_post_join_reads() {
        let mut d = RaceDetector::new(Vec::new(), 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_access(ThreadId(1), &acc(7, 8, AccessKind::Store, false));
        d.on_exit(ThreadId(1));
        d.on_join_block(ThreadId(0), ThreadId(1));
        d.on_dispatch(ThreadId(0));
        d.on_access(ThreadId(0), &acc(30, 8, AccessKind::Load, false));
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn unaligned_accesses_do_not_alias_their_word() {
        // The kernel logs an emulated Test-And-Set on a garbage unaligned
        // address; it touched nothing, so it must not turn word 4 into a
        // sync word and hide the plain write-write race on it.
        let mut d = RaceDetector::new(Vec::new(), 4096);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_access(ThreadId(0), &acc(10, 4, AccessKind::Store, false));
        d.on_access(ThreadId(1), &acc(20, 5, AccessKind::Rmw, true));
        d.on_access(ThreadId(1), &acc(21, 4, AccessKind::Store, false));
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].addr, 4);
    }

    #[test]
    fn stack_accesses_are_ignored() {
        let mut d = RaceDetector::new(Vec::new(), 64);
        d.on_spawn(ThreadId(0), ThreadId(1));
        d.on_access(ThreadId(0), &acc(1, 100, AccessKind::Store, false));
        d.on_access(ThreadId(1), &acc(2, 100, AccessKind::Store, false));
        assert!(d.take_races().is_empty());
    }
}
