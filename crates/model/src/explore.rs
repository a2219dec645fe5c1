//! The systematic schedule explorer: a stateful depth-first search over
//! every preemption decision, with sleep-set partial-order reduction and
//! path-local cycle detection.
//!
//! # Decision points and transitions
//!
//! Execution between decision points is deterministic: the kernel is
//! single-stepped (oracle mode, timer neutralized) until the current
//! thread is about to execute a *visible* operation — a load, store, or
//! Test-And-Set of shared data (below [`Kernel::data_end`]), or any
//! system call — or until no thread runs and several are ready. At such a
//! point the explorer branches:
//!
//! * **Continue** — execute the visible operation;
//! * **Preempt(u)** — deliver a timer interrupt *now* (strategy check,
//!   rollback, requeue — identical to real preemption) and run ready
//!   thread `u`; bounded by [`CheckConfig::preemption_bound`];
//! * **Dispatch(u)** — with nothing running, pick which ready thread goes
//!   next.
//!
//! Register-only instructions and stack traffic are invisible: preempting
//! between them is indistinguishable (to any safety property over shared
//! memory) from preempting at the next visible operation, so the visible
//! boundaries *are* the partial-order reduction of the raw interleaving
//! space. The paper's hazard windows fall out naturally: the decision
//! points inside a Test-And-Set sequence are exactly "before the `lw`"
//! and "before the `sw`".
//!
//! # Sleep sets
//!
//! On top of the boundary reduction the explorer keeps classic sleep
//! sets: after fully exploring `Continue` on operation `o` at a decision
//! point, `o` is put to sleep for the sibling branches; a descendant
//! `Continue` on the same `(thread, kind, address)` operation is pruned
//! unless some intervening operation conflicted with `o` (same address,
//! at least one write — or a system call, which conservatively conflicts
//! with everything). Pruned branches are counted and reported so the
//! reduction is observable. A subtlety specific to restartable
//! sequences: preempting a thread rolls its PC back, so the "same
//! operation" test uses the post-rollback signature; a rolled-back
//! sequence re-arrives at its *load*, never at its committing store, so
//! sleeping store signatures can never be matched incorrectly. The same
//! argument covers rseq: an aborted window is redirected to its abort
//! handler, which republishes and re-enters at the window's load.
//!
//! # Cycles and livelock
//!
//! Unfair schedules make spin loops repeat states exactly (the clock is
//! excluded from the state hash). A decision point whose hash already
//! appears on the current path is a cycle — the branch is truncated and
//! counted; a genuine spin under an unfair scheduler is not a safety
//! violation. Exhausting [`CheckConfig::max_visible_ops`] without a
//! cycle is reported as a livelock suspect.

use ras_diag::{DiagKind, Diagnostic};
use ras_guest::workloads::{model_counter, ModelSpec, TasFlavor};
use ras_guest::{BuiltGuest, Mechanism};
use ras_isa::{Inst, Reg, SeqRange};
use ras_kernel::{Checkpoint, Decision, Kernel, StepOutcome, StrategyKind, ThreadId, ThreadState};
use ras_machine::{AccessKind, CpuProfile, EngineKind};

use crate::hb::{Race, RaceDetector};
use crate::pathset::PathSet;
use crate::schedule::Schedule;

/// Exploration limits and workload size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Maximum preemptions injected per schedule. Two suffices for every
    /// two-thread mutual-exclusion hazard (one to interrupt a sequence,
    /// one to interleave the victim).
    pub preemption_bound: u32,
    /// Depth bound: visible operations per schedule before the branch is
    /// reported as a livelock suspect.
    pub max_visible_ops: u64,
    /// Hard cap on explored schedules per target.
    pub max_schedules: u64,
    /// Worker threads in the model workload.
    pub workers: usize,
    /// Critical sections per worker.
    pub iterations: u32,
    /// Rewind sibling branches through the kernel's undo-log checkpoints
    /// instead of cloning the kernel per branch. Off, the explorer clones
    /// (the pre-checkpoint behavior); results are identical either way —
    /// the differential tests assert it.
    pub checkpoints: bool,
    /// Decision-point depth at which [`check_target_split`] hands
    /// disjoint subtrees to worker threads; `0` disables splitting.
    /// Purely a parallelism knob: merged reports are byte-identical to a
    /// sequential search.
    pub split_depth: u32,
    /// Which machine engine the explored kernels boot with. The explorer
    /// single-steps every kernel (oracle mode), and instruction-granular
    /// observation is a standing deoptimization point, so reports are
    /// byte-identical under either engine — the differential smoke test
    /// asserts it. The knob exists so CI can prove that claim end to end.
    pub engine: EngineKind,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            preemption_bound: 2,
            max_visible_ops: 400,
            max_schedules: 100_000,
            workers: 2,
            iterations: 1,
            checkpoints: true,
            split_depth: 3,
            engine: EngineKind::Interpreter,
        }
    }
}

/// One (mechanism × TAS flavor) configuration to verify, optionally with
/// the kernel's atomicity strategy stripped (the refutation target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelTarget {
    /// The synchronization mechanism.
    pub mechanism: Mechanism,
    /// The read-modify-write flavor.
    pub flavor: TasFlavor,
    /// Run with [`StrategyKind::None`] despite the mechanism requiring
    /// kernel support — the ablation the checker must refute.
    pub ablated: bool,
}

impl ModelTarget {
    /// Every target: each supported (mechanism × flavor) pair, plus the
    /// ablated inline sequence.
    pub fn all() -> Vec<ModelTarget> {
        let mut targets = Vec::new();
        for mechanism in Mechanism::all() {
            for flavor in TasFlavor::all() {
                if flavor.supported_by(mechanism) {
                    targets.push(ModelTarget {
                        mechanism,
                        flavor,
                        ablated: false,
                    });
                }
            }
        }
        targets.push(ModelTarget {
            mechanism: Mechanism::RasInline,
            flavor: TasFlavor::Tas,
            ablated: true,
        });
        targets
    }

    /// Stable identifier, e.g. `ras-inline+tas` or `ras-inline+tas+none`.
    pub fn id(&self) -> String {
        let base = format!("{}+{}", self.mechanism.id(), self.flavor.id());
        if self.ablated {
            format!("{base}+none")
        } else {
            base
        }
    }

    /// The CPU profile the target runs on: the R3000 (the paper's main
    /// machine) when the mechanism is software-only, the i860 when it
    /// needs hardware support.
    pub fn profile(&self) -> CpuProfile {
        if self.mechanism.supported_by(&CpuProfile::r3000()) {
            CpuProfile::r3000()
        } else {
            CpuProfile::i860()
        }
    }

    /// Whether this target is *expected* to violate its properties.
    pub fn expects_violations(&self) -> bool {
        self.ablated
    }

    /// Whether the happens-before race sanitizer applies. Lamport's
    /// software protocols synchronize through plain loads and stores by
    /// design, which defeats a happens-before analysis (every execution
    /// of protocol (a) is "racy" yet correct), so they are exempt.
    pub fn races_checked(&self) -> bool {
        !matches!(
            self.mechanism,
            Mechanism::LamportPerLock | Mechanism::LamportBundled
        )
    }

    /// Whether mutual exclusion is a property of this target (the
    /// lock-free fetch-and-add flavor has no critical section).
    pub fn mutex_checked(&self) -> bool {
        !self.flavor.is_lock_free()
    }
}

impl std::fmt::Display for ModelTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

/// A property violation with its minimized, replayable schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong, as a shared diagnostic.
    pub diag: Diagnostic,
    /// The minimized schedule that reproduces it.
    pub schedule: Schedule,
    /// How many schedules had been explored when it was first found.
    pub found_after: u64,
}

/// The verdict for one target.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// The checked target.
    pub target: ModelTarget,
    /// Maximal schedules explored (terminal, cycle-truncated, or
    /// violation-truncated).
    pub schedules: u64,
    /// Branches pruned by the sleep-set reduction.
    pub pruned: u64,
    /// Branches truncated as exact state cycles (benign spins under
    /// unfair schedules).
    pub cycles: u64,
    /// Branches that exhausted the depth bound without cycling.
    pub livelock_suspects: u64,
    /// The schedule cap was hit; exploration is incomplete.
    pub hit_schedule_cap: bool,
    /// Safety violations found (first of each kind, minimized).
    pub violations: Vec<Violation>,
    /// Data races found by the happens-before sanitizer.
    pub races: Vec<Diagnostic>,
    /// Checkpoints taken (or kernel clones, when checkpoints are off) to
    /// snapshot sibling branches.
    pub checkpoints: u64,
    /// Undo-log entries replayed by checkpoint restores.
    pub undo_replayed: u64,
    /// Bytes snapshotted for sibling branches: undo-log checkpoint
    /// footprints, or full kernel-clone footprints when checkpoints are
    /// off.
    pub snapshot_bytes: u64,
    /// On-path states deduplicated by the exact-state hash set, across
    /// exploration, replay, and minimization.
    pub states_deduped: u64,
    /// rseq abort dispatches triggered by explored `Preempt` decisions —
    /// nonzero exactly when the search drove preemptions into published
    /// rseq windows and exercised the abort handlers.
    pub rseq_aborts: u64,
}

impl TargetReport {
    /// Whether the observed behavior matches the expectation: safe
    /// targets must have no violations and no races; the ablated target
    /// must exhibit both the mutual-exclusion violation and the lost
    /// update.
    pub fn ok(&self) -> bool {
        if self.target.expects_violations() {
            let has = |k: DiagKind| self.violations.iter().any(|v| v.diag.kind == k);
            has(DiagKind::MutexViolation) && has(DiagKind::LostUpdate)
        } else {
            self.violations.is_empty() && self.races.is_empty()
        }
    }
}

/// Safety cap on invisible (register-only) instructions between decision
/// points; a guest spinning without any shared-memory access or syscall
/// trips it.
const INVISIBLE_CAP: u32 = 20_000;

/// Signature of a thread's next visible operation, for independence
/// reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpSig {
    /// A classified shared-memory access.
    Mem {
        thread: ThreadId,
        kind: AccessKind,
        addr: u32,
    },
    /// A system call or unclassifiable operation — conservatively
    /// conflicts with everything.
    Other,
}

impl OpSig {
    fn independent(self, other: OpSig) -> bool {
        match (self, other) {
            (
                OpSig::Mem {
                    kind: ka, addr: aa, ..
                },
                OpSig::Mem {
                    kind: kb, addr: ab, ..
                },
            ) => aa != ab || (ka == AccessKind::Load && kb == AccessKind::Load),
            _ => false,
        }
    }
}

/// Where deterministic execution stopped.
enum Point {
    /// Current thread is about to execute a visible operation.
    Boundary,
    /// No thread running, two or more ready: a free dispatch choice.
    FreeDispatch,
    /// The branch ended.
    Terminal(Term),
}

enum Term {
    Completed,
    Deadlock(Vec<ThreadId>),
    Fault(String),
    Halted,
    /// Invisible-instruction cap exhausted.
    Stalled,
}

/// The signature of the visible operation the current thread is about to
/// execute, or `None` if its next instruction is invisible.
fn current_visible_sig(kernel: &Kernel) -> Option<OpSig> {
    let t = kernel.current_thread()?;
    thread_next_sig(kernel, t)
}

/// Classifies thread `t`'s next instruction against its (authoritative)
/// saved registers.
fn thread_next_sig(kernel: &Kernel, t: ThreadId) -> Option<OpSig> {
    let regs = kernel.thread_regs(t);
    let inst = kernel.program().fetch(regs.pc())?;
    let mem = |kind: AccessKind, base: Reg, off: i32| {
        let addr = regs.get(base).wrapping_add(off as u32);
        (addr < kernel.data_end()).then_some(OpSig::Mem {
            thread: t,
            kind,
            addr,
        })
    };
    match inst {
        Inst::Lw { base, off, .. } => mem(AccessKind::Load, base, off),
        Inst::Sw { base, off, .. } => mem(AccessKind::Store, base, off),
        Inst::Tas { base, .. } => mem(AccessKind::Rmw, base, 0).or(Some(OpSig::Other)),
        Inst::Syscall => Some(OpSig::Other),
        _ => None,
    }
}

/// One kernel step with race-sanitizer bookkeeping: dispatch edges,
/// spawn edges, access-log draining, exit and join-block events.
fn apply_step(kernel: &mut Kernel, det: &mut Option<RaceDetector>) -> StepOutcome {
    let was_idle = kernel.current_thread().is_none();
    let threads_before = kernel.thread_count();
    let out = kernel.step_once();
    if let StepOutcome::Ran { thread } = out {
        if let Some(d) = det.as_mut() {
            if was_idle {
                d.on_dispatch(thread);
            }
            for child in threads_before..kernel.thread_count() {
                d.on_spawn(thread, ThreadId(child as u32));
            }
            kernel.drain_accesses(|acc| d.on_access(thread, acc));
            match *kernel.thread_state(thread) {
                ThreadState::Exited => d.on_exit(thread),
                ThreadState::Joining { target } => d.on_join_block(thread, target),
                _ => {}
            }
        }
    }
    out
}

/// Steps deterministically (invisible instructions, forced dispatches)
/// until the next decision point or a terminal state.
fn advance(kernel: &mut Kernel, det: &mut Option<RaceDetector>) -> Point {
    for _ in 0..INVISIBLE_CAP {
        if kernel.current_thread().is_some() {
            if current_visible_sig(kernel).is_some() {
                return Point::Boundary;
            }
        } else if kernel.ready_len() >= 2 {
            return Point::FreeDispatch;
        }
        match apply_step(kernel, det) {
            StepOutcome::Ran { .. } | StepOutcome::Idled => {}
            StepOutcome::Completed => return Point::Terminal(Term::Completed),
            StepOutcome::Halted { thread } => {
                return Point::Terminal(Term::Fault(format!("{thread} executed halt")))
            }
            StepOutcome::Deadlock { blocked } => return Point::Terminal(Term::Deadlock(blocked)),
            StepOutcome::Fault { thread, fault } => {
                return Point::Terminal(Term::Fault(format!("{thread}: {fault:?}")))
            }
        }
    }
    Point::Terminal(Term::Stalled)
}

/// Discriminant and payload words for hashing a [`ThreadState`]. The two
/// words are mixed separately — the previous packing (`payload << 8`)
/// silently dropped the payload's top 8 bits, so `Sleeping` deadlines
/// differing only there (e.g. `1 << 56` vs `0`) hashed identically and
/// could fuse distinct states into a phantom cycle.
fn thread_state_words(state: &ThreadState) -> (u64, u64) {
    match *state {
        ThreadState::Ready => (1, 0),
        ThreadState::Running => (2, 0),
        ThreadState::Blocked { addr } => (3, u64::from(addr)),
        ThreadState::Joining { target } => (4, u64::from(target.0)),
        ThreadState::Sleeping { until } => (5, until),
        ThreadState::Exited => (6, 0),
    }
}

/// Lanes of [`LaneHash`]: four independent multiply chains, so the
/// machine overlaps their multiplies instead of waiting on one.
const LANES: usize = 4;

/// A multi-lane word hash. Word `k` of each [`LaneHash::absorb`] goes to
/// lane `k`, whose step ([`fold_word`]) is a bijection of both the lane
/// and the word, so any single-word difference survives to
/// [`LaneHash::finish`]. That merges the lanes and ends with the
/// splitmix64 finalizer, which spreads every input bit over every output
/// bit — [`PathSet`] takes its slot from the low bits.
struct LaneHash([u64; LANES]);

impl LaneHash {
    fn new() -> LaneHash {
        LaneHash([
            0xcbf2_9ce4_8422_2325,
            0x9E37_79B9_7F4A_7C15,
            0xD6E8_FEB8_6659_FD93,
            0xA076_1D64_78BD_642F,
        ])
    }

    /// Absorbs four words, one per lane.
    #[inline(always)]
    fn absorb(&mut self, words: [u64; LANES]) {
        for (lane, word) in self.0.iter_mut().zip(words) {
            *lane = fold_word(*lane, word);
        }
    }

    fn finish(self) -> u64 {
        let [a, b, c, d] = self.0;
        splitmix64(fold_word(fold_word(fold_word(a, b), c), d))
    }
}

/// One lane step: xor the word in, multiply by an odd constant (spreads
/// low bits upward) and rotate (brings high bits down for the next
/// multiply).
#[inline(always)]
fn fold_word(lane: u64, word: u64) -> u64 {
    (lane ^ word)
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .rotate_left(31)
}

/// The splitmix64 finalizer: a bijection whose every output bit depends
/// on every input bit.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of the scheduler-relevant state: each thread's pc, register
/// file (packed two registers per word), state, rseq registration and
/// index; the current thread; the ready order; shared data; and the i860
/// restart pc. Clocks and statistics are excluded so spin iterations
/// hash identically.
///
/// The shared-data term folds in the machine's running memory
/// fingerprint when dirty tracking is on — O(1) instead of a scan per
/// decision point. With tracking off the same fingerprint is recomputed
/// by scanning, so hashes are identical across the two modes by
/// construction (same XOR-fold over the same words).
fn state_hash(kernel: &Kernel) -> u64 {
    let mut h = LaneHash::new();
    for i in 0..kernel.thread_count() {
        let t = ThreadId(i as u32);
        let regs = kernel.thread_regs(t);
        for quad in regs.gprs().chunks_exact(2 * LANES) {
            h.absorb(std::array::from_fn(|k| {
                u64::from(quad[2 * k]) | (u64::from(quad[2 * k + 1]) << 32)
            }));
        }
        let (discriminant, payload) = thread_state_words(kernel.thread_state(t));
        h.absorb([
            u64::from(regs.pc()) | (u64::from(t.0) << 32),
            discriminant,
            payload,
            // rseq registration is kernel-side per-thread state: two
            // states identical in registers and memory but differing in
            // whether a thread has a registered area behave differently
            // at the next preemption, so they must not fuse into one hash.
            kernel.thread_rseq_area(t).map_or(u64::MAX, u64::from),
        ]);
    }
    // The ready queue, four entries per absorb. The tag bit keeps every
    // entry nonzero, so the zero padding of the last quad is unambiguous.
    let mut ready = [0; LANES];
    for (n, t) in kernel.ready_iter().enumerate() {
        ready[n % LANES] = u64::from(t.0) | 0x100;
        if n % LANES == LANES - 1 {
            h.absorb(std::mem::take(&mut ready));
        }
    }
    h.absorb(ready);
    let data_end = kernel.data_end();
    h.absorb([
        kernel.current_thread().map_or(u64::MAX, |t| u64::from(t.0)),
        kernel
            .memory_fingerprint()
            .unwrap_or_else(|| kernel.machine().mem().fingerprint_scan(data_end)),
        kernel
            .machine()
            .atomic_restart_pc()
            .map_or(u64::MAX - 1, u64::from),
        // Fills the quad, and ends the variable-length record list
        // unambiguously.
        kernel.thread_count() as u64,
    ]);
    h.finish()
}

/// A pending DFS subtree, frozen at a decision point of depth
/// [`CheckConfig::split_depth`] during the sequential prefix expansion —
/// everything `dfs` needs to resume from exactly that node in a fresh
/// explorer (on any worker thread).
struct SubtreeTask {
    kernel: Kernel,
    det: Option<RaceDetector>,
    at_dispatch: bool,
    sleep: Vec<OpSig>,
    preemptions: u32,
    index: u64,
    path: Schedule,
    hashes: PathSet,
    /// Whether a checkpointed ancestor was open when the task froze.
    /// A sequential search then rewinds whatever the subtree's final
    /// branches leave in the undo log at that ancestor's restore, so the
    /// subtree replays it itself to keep `undo_replayed` split-blind.
    rewound: bool,
}

/// Where the sequential expansion stood when a subtree was spawned, so
/// the merge can splice subtree results back into DFS order: a task with
/// mark `m` sits after the expansion's first `m.schedules` terminals
/// (and first `m.violations_len` violations, `m.races_len` races) and
/// before all later ones.
#[derive(Debug, Clone, Copy)]
struct UnitMark {
    schedules: u64,
    violations_len: usize,
    races_len: usize,
}

/// Everything a subtree exploration produced, with violation
/// `found_after` counts and race keys still local to the subtree; the
/// merge re-bases them into global DFS order.
struct SubtreeOutcome {
    schedules: u64,
    pruned: u64,
    cycles: u64,
    livelock_suspects: u64,
    hit_cap: bool,
    violations: Vec<Violation>,
    race_keys: Vec<(u32, u32, u32)>,
    races: Vec<Diagnostic>,
    checkpoints: u64,
    undo_replayed: u64,
    snapshot_bytes: u64,
    states_deduped: u64,
    rseq_aborts: u64,
}

/// Approximate footprint of a full kernel clone — the snapshot cost when
/// checkpoints are off, dominated by the guest memory image.
fn kernel_clone_bytes(kernel: &Kernel) -> u64 {
    u64::from(kernel.machine().mem().len_bytes()) + std::mem::size_of::<Kernel>() as u64
}

pub(crate) struct Explorer<'a> {
    config: &'a CheckConfig,
    target: ModelTarget,
    built: BuiltGuest,
    counter_addr: u32,
    violations_addr: u32,
    expected_count: u32,
    schedules: u64,
    pruned: u64,
    cycles: u64,
    livelock_suspects: u64,
    hit_cap: bool,
    violations: Vec<Violation>,
    race_keys: Vec<(u32, u32, u32)>,
    races: Vec<Diagnostic>,
    /// Truncate a branch at the first decision point where the guest has
    /// already recorded a mutual-exclusion violation (the default: the
    /// suffix proves nothing more about safety). [`race_report`] turns
    /// this off — the violating suffixes are exactly where the ablated
    /// target's late-shared words (the `violations` tally itself) get
    /// their conflicting accesses, and the happens-before sanitizer must
    /// see them to witness every statically racy word.
    stop_on_violation: bool,
    /// Snapshot siblings via undo-log checkpoints instead of clones.
    use_checkpoints: bool,
    /// When set, `dfs` stops at decision points of this depth and
    /// freezes them as [`SubtreeTask`]s instead of exploring them.
    spawn_at: Option<u64>,
    tasks: Vec<SubtreeTask>,
    marks: Vec<UnitMark>,
    checkpoints: u64,
    undo_replayed: u64,
    snapshot_bytes: u64,
    states_deduped: u64,
    rseq_aborts: u64,
    /// Checkpointed branches currently on the DFS path (their restores
    /// are still to come).
    open_checkpoints: u32,
    /// Recycled race-detector scratch snapshots, roughly one per DFS
    /// depth. [`RaceDetector::snapshot_into`] refills a pooled scratch
    /// in place, so interior decision points stop paying the detector's
    /// ~50 small allocations per sibling branch.
    det_pool: Vec<RaceDetector>,
    /// Recycled kernel checkpoints, same lifecycle as `det_pool`
    /// (see [`Kernel::checkpoint_into`]).
    cp_pool: Vec<Checkpoint>,
    /// Recycled choice-enumeration buffers (one live per DFS depth).
    choice_pool: Vec<Vec<(Decision, Option<OpSig>)>>,
    /// Recycled sleep-set and done-set buffers.
    sig_pool: Vec<Vec<OpSig>>,
}

impl<'a> Explorer<'a> {
    pub(crate) fn new(target: ModelTarget, config: &'a CheckConfig) -> Explorer<'a> {
        let spec = ModelSpec {
            iterations: config.iterations,
            workers: config.workers,
        };
        let mut built = model_counter(target.mechanism, target.flavor, &spec);
        if target.ablated {
            built.strategy = StrategyKind::None;
        }
        let counter_addr = built.data.symbol("counter").expect("workload symbol");
        let violations_addr = built.data.symbol("violations").expect("workload symbol");
        Explorer {
            config,
            target,
            built,
            counter_addr,
            violations_addr,
            expected_count: spec.expected_count(),
            schedules: 0,
            pruned: 0,
            cycles: 0,
            livelock_suspects: 0,
            hit_cap: false,
            violations: Vec::new(),
            race_keys: Vec::new(),
            races: Vec::new(),
            stop_on_violation: true,
            use_checkpoints: config.checkpoints,
            spawn_at: None,
            tasks: Vec::new(),
            marks: Vec::new(),
            checkpoints: 0,
            undo_replayed: 0,
            snapshot_bytes: 0,
            states_deduped: 0,
            rseq_aborts: 0,
            open_checkpoints: 0,
            det_pool: Vec::new(),
            cp_pool: Vec::new(),
            choice_pool: Vec::new(),
            sig_pool: Vec::new(),
        }
    }

    /// Snapshots the detector into a pooled scratch (allocation-reusing
    /// equivalent of `det.clone()` on the checkpointed branch path).
    fn save_detector(&mut self, det: &Option<RaceDetector>) -> Option<RaceDetector> {
        det.as_ref().map(|d| {
            let mut scratch = self
                .det_pool
                .pop()
                .unwrap_or_else(|| RaceDetector::new(Vec::new(), 0));
            d.snapshot_into(&mut scratch);
            scratch
        })
    }

    /// Restores a [`Explorer::save_detector`] snapshot, returning the
    /// displaced (mutated) detector to the pool for reuse.
    fn restore_detector(&mut self, det: &mut Option<RaceDetector>, saved: Option<RaceDetector>) {
        if let (Some(d), Some(mut s)) = (det.as_mut(), saved) {
            std::mem::swap(d, &mut s);
            self.det_pool.push(s);
        }
    }

    fn protected_ranges(&self) -> Vec<SeqRange> {
        // Sequences are only *protected* when the kernel strategy will
        // actually roll them back; under the None ablation the declared
        // ranges exist in the binary but guarantee nothing.
        if matches!(self.built.strategy, StrategyKind::None) {
            Vec::new()
        } else {
            self.built.program.seq_ranges().to_vec()
        }
    }

    fn boot(&self, with_log: bool) -> Kernel {
        let mut kc = self.built.kernel_config(self.target.profile());
        kc.mem_bytes = 32 * 1024;
        kc.stack_bytes = 4096;
        kc.max_threads = self.config.workers + 2;
        kc.engine = self.config.engine;
        let mut kernel = self.built.boot(kc).expect("model workload boots");
        if with_log {
            kernel.enable_access_log();
        }
        kernel
    }

    fn detector(&self) -> Option<RaceDetector> {
        self.target
            .races_checked()
            .then(|| RaceDetector::new(self.protected_ranges(), self.data_end()))
    }

    fn data_end(&self) -> u32 {
        self.built.data.len_bytes()
    }

    /// Runs the exhaustive exploration.
    pub(crate) fn run(&mut self) {
        let mut det = self.detector();
        let mut kernel = self.boot(det.is_some());
        if self.use_checkpoints {
            kernel.enable_checkpoints();
        }
        let point = advance(&mut kernel, &mut det);
        self.drain_races(&mut det);
        let mut path = Schedule::default();
        let mut hashes = PathSet::new();
        match point {
            Point::Terminal(term) => self.on_terminal(term, &kernel, &path),
            Point::Boundary | Point::FreeDispatch => {
                let dispatch = matches!(point, Point::FreeDispatch);
                self.dfs(
                    &mut kernel,
                    &mut det,
                    dispatch,
                    Vec::new(),
                    0,
                    0,
                    &mut path,
                    &mut hashes,
                );
            }
        }
    }

    fn drain_races(&mut self, det: &mut Option<RaceDetector>) {
        let Some(d) = det.as_mut() else { return };
        for race in d.take_races() {
            self.note_race(race);
        }
    }

    fn note_race(&mut self, race: Race) {
        let key = (race.addr, race.prior_pc, race.pc);
        if self.race_keys.contains(&key) {
            return;
        }
        self.race_keys.push(key);
        let what = if race.write { "write" } else { "read" };
        self.races.push(Diagnostic::new(
            DiagKind::DataRace,
            race.pc,
            format!(
                "unordered {what} of shared word {:#x} (conflicting access at pc {})",
                race.addr, race.prior_pc
            ),
        ));
    }

    fn violations_word(&self, kernel: &Kernel) -> u32 {
        kernel.read_word(self.violations_addr).unwrap_or(0)
    }

    /// The recursive search. `at_dispatch` distinguishes the two decision
    /// point kinds; `index` numbers decision points along this path.
    ///
    /// The kernel is threaded through by mutable reference: each branch
    /// runs in place and is rewound afterwards — through the undo-log
    /// checkpoint when checkpoints are on (O(stores since the decision
    /// point)), through a saved clone otherwise. The final branch out of
    /// a decision point skips the rewind entirely: no sibling will need
    /// the parent state again, and whatever the branch leaves behind is
    /// rewound by an ancestor's restore (undo marks only decrease up the
    /// tree). Most decision points deep in the tree offer exactly one
    /// choice (the preemption budget is spent), so most nodes snapshot
    /// nothing at all.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        kernel: &mut Kernel,
        det: &mut Option<RaceDetector>,
        at_dispatch: bool,
        mut sleep: Vec<OpSig>,
        preemptions: u32,
        index: u64,
        path: &mut Schedule,
        hashes: &mut PathSet,
    ) {
        // Root-splitting: during the sequential prefix expansion, nodes
        // at the spawn depth are frozen as subtree tasks for the worker
        // pool instead of being explored. This check must come first —
        // the subtree explorer re-runs this node from scratch, and every
        // check below (cap, violation, cycle) must fire exactly once.
        if let Some(depth) = self.spawn_at {
            if index >= depth {
                self.marks.push(UnitMark {
                    schedules: self.schedules,
                    violations_len: self.violations.len(),
                    races_len: self.races.len(),
                });
                self.tasks.push(SubtreeTask {
                    kernel: kernel.clone(),
                    det: det.clone(),
                    at_dispatch,
                    sleep,
                    preemptions,
                    index,
                    path: path.clone(),
                    hashes: hashes.clone(),
                    rewound: self.open_checkpoints > 0,
                });
                return;
            }
        }
        if self.hit_cap {
            return;
        }
        if self.schedules >= self.config.max_schedules {
            self.hit_cap = true;
            return;
        }
        // Mutual exclusion is checked at every decision point: the guest
        // records violations in a dedicated word the moment its critical
        // section observes an intruder. The branch is truncated, but its
        // default continuation is first run out to harvest the companion
        // lost-update evidence (the same interleaving that breaks mutual
        // exclusion also drops an increment).
        if self.stop_on_violation && self.target.mutex_checked() && self.violations_word(kernel) > 0
        {
            self.schedules += 1;
            self.record(
                DiagKind::MutexViolation,
                "two threads were inside the critical section simultaneously \
                 (cs_owner changed under the owner)"
                    .to_string(),
                path,
            );
            if !self.has_violation(DiagKind::LostUpdate) {
                if let Some(counter) = self.counter_after_default_run(kernel) {
                    if counter != self.expected_count {
                        self.record(
                            DiagKind::LostUpdate,
                            format!(
                                "final counter is {counter}, expected {} — an increment was lost",
                                self.expected_count
                            ),
                            path,
                        );
                    }
                }
            }
            return;
        }
        if index >= self.config.max_visible_ops {
            self.schedules += 1;
            self.livelock_suspects += 1;
            self.record(
                DiagKind::LivelockSuspect,
                format!(
                    "no terminal state or state cycle within {} visible operations",
                    self.config.max_visible_ops
                ),
                path,
            );
            return;
        }
        let h = state_hash(kernel);
        if !hashes.insert(h) {
            // An exact state repeat on this path: a spin under an unfair
            // schedule. The suffix explores nothing new.
            self.schedules += 1;
            self.cycles += 1;
            self.states_deduped += 1;
            sleep.clear();
            self.sig_pool.push(sleep);
            return;
        }

        // Enumerate choices: the default first. The choice and sleep-set
        // buffers come from per-depth recycling pools — a decision point
        // is visited once per path through its ancestors, so fresh
        // allocations here add up to most of the explorer's heap
        // traffic.
        let mut choices = self.choice_pool.pop().unwrap_or_default();
        if at_dispatch {
            for u in kernel.ready_iter() {
                choices.push((Decision::Dispatch(u), thread_next_sig(kernel, u)));
            }
        } else {
            choices.push((Decision::Continue, current_visible_sig(kernel)));
            if preemptions < self.config.preemption_bound {
                for u in kernel.ready_iter() {
                    choices.push((Decision::Preempt(u), thread_next_sig(kernel, u)));
                }
            }
        }

        let mut done = self.sig_pool.pop().unwrap_or_default();
        // Every branch but the last snapshots the parent state and rewinds
        // to it afterwards; the last branch runs in place and leaves its
        // wake for an ancestor's rewind. The snapshot is an undo-log
        // checkpoint (cheap: registers, queues, an undo mark) when
        // checkpoints are on, a full kernel clone (dominated by the guest
        // memory image) when off.
        let last = choices.len().saturating_sub(1);
        for (i, (decision, sig)) in choices.iter().enumerate() {
            if self.hit_cap {
                break;
            }
            // Sleep-set pruning applies only to Continue: executing a
            // sleeping operation re-derives an interleaving already
            // covered (everything since it went to sleep was independent
            // of it). Preempt/Dispatch branches contain more than their
            // first operation, so they are never pruned.
            if matches!(decision, Decision::Continue) {
                if let Some(s @ OpSig::Mem { .. }) = sig {
                    if sleep.contains(s) {
                        self.pruned += 1;
                        continue;
                    }
                }
            }
            if i == last {
                self.branch(
                    kernel,
                    det,
                    *decision,
                    *sig,
                    &sleep,
                    &done,
                    preemptions,
                    index,
                    i == 0,
                    path,
                    hashes,
                );
            } else if self.use_checkpoints {
                let cp = match self.cp_pool.pop() {
                    Some(mut cp) => {
                        kernel.checkpoint_into(&mut cp);
                        cp
                    }
                    None => kernel.checkpoint(),
                };
                let det0 = self.save_detector(det);
                self.checkpoints += 1;
                self.snapshot_bytes += cp.approx_bytes();
                self.open_checkpoints += 1;
                self.branch(
                    kernel,
                    det,
                    *decision,
                    *sig,
                    &sleep,
                    &done,
                    preemptions,
                    index,
                    i == 0,
                    path,
                    hashes,
                );
                self.open_checkpoints -= 1;
                self.undo_replayed += kernel.restore(&cp);
                self.cp_pool.push(cp);
                self.restore_detector(det, det0);
            } else {
                let kernel0 = kernel.clone();
                let det0 = det.clone();
                self.checkpoints += 1;
                self.snapshot_bytes += kernel_clone_bytes(&kernel0);
                self.branch(
                    kernel,
                    det,
                    *decision,
                    *sig,
                    &sleep,
                    &done,
                    preemptions,
                    index,
                    i == 0,
                    path,
                    hashes,
                );
                *kernel = kernel0;
                *det = det0;
            }
            if matches!(decision, Decision::Continue) {
                if let Some(s @ OpSig::Mem { .. }) = sig {
                    done.push(*s);
                }
            }
        }
        hashes.remove(h);
        choices.clear();
        self.choice_pool.push(choices);
        done.clear();
        self.sig_pool.push(done);
        sleep.clear();
        self.sig_pool.push(sleep);
    }

    /// One branch out of a decision point, run in place on `kernel`:
    /// applies the decision, advances to the next decision point, and
    /// recurses. The caller is responsible for rewinding `kernel`
    /// afterwards (or not, for the last sibling).
    #[allow(clippy::too_many_arguments)]
    fn branch(
        &mut self,
        kernel: &mut Kernel,
        det: &mut Option<RaceDetector>,
        decision: Decision,
        sig: Option<OpSig>,
        sleep: &[OpSig],
        done: &[OpSig],
        preemptions: u32,
        index: u64,
        is_default: bool,
        path: &mut Schedule,
        hashes: &mut PathSet,
    ) {
        let mut child_preemptions = preemptions;
        match decision {
            Decision::Continue => {
                // Execute the visible operation itself.
                match apply_step(kernel, det) {
                    StepOutcome::Ran { .. } | StepOutcome::Idled => {}
                    terminal => {
                        self.drain_races(det);
                        self.on_step_terminal(terminal, kernel, path);
                        return;
                    }
                }
            }
            Decision::Preempt(u) => {
                child_preemptions += 1;
                // Preemption is the only abort trigger under the oracle
                // (the timer is neutralized); sampling the stat delta
                // around it counts abort dispatches exactly once per
                // explored branch, immune to checkpoint rewinds.
                let aborts_before = kernel.stats().rseq_aborts;
                kernel.preempt_current();
                self.rseq_aborts += kernel.stats().rseq_aborts - aborts_before;
                kernel.schedule_next(u);
                if let terminal @ (StepOutcome::Completed
                | StepOutcome::Halted { .. }
                | StepOutcome::Deadlock { .. }
                | StepOutcome::Fault { .. }) = apply_step(kernel, det)
                {
                    self.drain_races(det);
                    self.on_step_terminal(terminal, kernel, path);
                    return;
                }
            }
            Decision::Dispatch(u) => {
                kernel.schedule_next(u);
                if let terminal @ (StepOutcome::Completed
                | StepOutcome::Halted { .. }
                | StepOutcome::Deadlock { .. }
                | StepOutcome::Fault { .. }) = apply_step(kernel, det)
                {
                    self.drain_races(det);
                    self.on_step_terminal(terminal, kernel, path);
                    return;
                }
            }
        }
        self.drain_races(det);
        // The sleep set handed to the child: everything still
        // independent of the operation this branch executes first.
        let mut child_sleep = self.sig_pool.pop().unwrap_or_default();
        match (decision, sig) {
            (Decision::Continue, Some(op)) => child_sleep.extend(
                sleep
                    .iter()
                    .chain(done.iter())
                    .copied()
                    .filter(|s| s.independent(op)),
            ),
            (Decision::Continue, None) => {}
            // Preempt/Dispatch execute only thread-private bookkeeping
            // before the next decision point; the sleep set carries
            // over and keeps being filtered as operations execute.
            _ => child_sleep.extend(sleep.iter().chain(done.iter()).copied()),
        }

        // Record the decision if it deviates from the default
        // (Continue, or dispatching the queue front).
        if !is_default {
            path.decisions.push((index, decision));
        }
        let point = advance(kernel, det);
        self.drain_races(det);
        match point {
            Point::Terminal(term) => {
                child_sleep.clear();
                self.sig_pool.push(child_sleep);
                self.on_terminal(term, kernel, path);
            }
            Point::Boundary => self.dfs(
                kernel,
                det,
                false,
                child_sleep,
                child_preemptions,
                index + 1,
                path,
                hashes,
            ),
            Point::FreeDispatch => self.dfs(
                kernel,
                det,
                true,
                child_sleep,
                child_preemptions,
                index + 1,
                path,
                hashes,
            ),
        }
        if !is_default {
            path.decisions.pop();
        }
    }

    fn on_step_terminal(&mut self, outcome: StepOutcome, kernel: &Kernel, path: &Schedule) {
        let term = match outcome {
            StepOutcome::Completed => Term::Completed,
            StepOutcome::Halted { thread } => Term::Fault(format!("{thread} executed halt")),
            StepOutcome::Deadlock { blocked } => Term::Deadlock(blocked),
            StepOutcome::Fault { thread, fault } => Term::Fault(format!("{thread}: {fault:?}")),
            StepOutcome::Ran { .. } | StepOutcome::Idled => return,
        };
        self.on_terminal(term, kernel, path);
    }

    fn on_terminal(&mut self, term: Term, kernel: &Kernel, path: &Schedule) {
        self.schedules += 1;
        match term {
            Term::Completed => {
                if self.target.mutex_checked() && self.violations_word(kernel) > 0 {
                    self.record(
                        DiagKind::MutexViolation,
                        "two threads were inside the critical section simultaneously \
                         (cs_owner changed under the owner)"
                            .to_string(),
                        path,
                    );
                }
                let counter = kernel.read_word(self.counter_addr).unwrap_or(0);
                if counter != self.expected_count {
                    self.record(
                        DiagKind::LostUpdate,
                        format!(
                            "final counter is {counter}, expected {} — an increment was lost",
                            self.expected_count
                        ),
                        path,
                    );
                }
            }
            Term::Deadlock(blocked) => {
                let list: Vec<String> = blocked.iter().map(|t| t.to_string()).collect();
                self.record(
                    DiagKind::DeadlockFound,
                    format!("no runnable thread; blocked: {}", list.join(", ")),
                    path,
                );
            }
            Term::Halted => {
                self.record(
                    DiagKind::GuestFault,
                    "guest executed halt outside the kernel".to_string(),
                    path,
                );
            }
            Term::Fault(message) => {
                self.record(DiagKind::GuestFault, message, path);
            }
            Term::Stalled => {
                self.livelock_suspects += 1;
                self.record(
                    DiagKind::LivelockSuspect,
                    format!("more than {INVISIBLE_CAP} instructions without a visible operation"),
                    path,
                );
            }
        }
    }

    fn has_violation(&self, kind: DiagKind) -> bool {
        self.violations.iter().any(|v| v.diag.kind == kind)
    }

    /// Runs the default continuation (no further non-default decisions)
    /// from `kernel` to its terminal state and returns the final counter,
    /// or `None` if it does not complete cleanly.
    fn counter_after_default_run(&mut self, kernel: &Kernel) -> Option<u32> {
        let mut k = kernel.clone();
        let mut det = None;
        let mut hashes = PathSet::new();
        let mut steps = 0u64;
        loop {
            match advance(&mut k, &mut det) {
                Point::Terminal(Term::Completed) => return k.read_word(self.counter_addr).ok(),
                Point::Terminal(_) => return None,
                Point::Boundary | Point::FreeDispatch => {
                    steps += 1;
                    if steps > self.config.max_visible_ops.saturating_mul(4) {
                        return None;
                    }
                    let h = state_hash(&k);
                    if !hashes.insert(h) {
                        self.states_deduped += 1;
                        return None;
                    }
                    match apply_step(&mut k, &mut det) {
                        StepOutcome::Ran { .. } | StepOutcome::Idled => {}
                        StepOutcome::Completed => return k.read_word(self.counter_addr).ok(),
                        _ => return None,
                    }
                }
            }
        }
    }

    /// Records the first violation of each kind, with a minimized
    /// replay-verified schedule.
    fn record(&mut self, kind: DiagKind, message: String, path: &Schedule) {
        if self.has_violation(kind) {
            return;
        }
        let schedule = self.minimize_schedule(kind, path.clone());
        self.violations.push(Violation {
            diag: Diagnostic::new(kind, 0, message),
            schedule,
            found_after: self.schedules,
        });
    }

    /// Greedy minimization: drop decisions whose removal preserves the
    /// violation under replay. If even the original schedule does not
    /// replay (e.g. a livelock suspect that needs the exact exploration
    /// state), it is returned untouched.
    fn minimize_schedule(&mut self, kind: DiagKind, original: Schedule) -> Schedule {
        if !self.replay(&original).contains(&kind) {
            return original;
        }
        let mut current = original;
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i < current.len() {
                let candidate = current.without(i);
                if self.replay(&candidate).contains(&kind) {
                    current = candidate;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        current
    }

    /// Deterministically replays a schedule from a fresh boot, applying
    /// recorded decisions at their decision points and defaults
    /// everywhere else, and returns every violation kind the terminal
    /// state exhibits. Public behavior is identical to exploration —
    /// same kernel, same stepping — minus the search.
    fn replay(&mut self, schedule: &Schedule) -> Vec<DiagKind> {
        let mut kernel = self.boot(false);
        let mut det = None;
        let mut hashes = PathSet::new();
        let mut index = 0u64;
        loop {
            match advance(&mut kernel, &mut det) {
                Point::Terminal(term) => return self.terminal_kinds(term, &kernel),
                Point::Boundary | Point::FreeDispatch => {
                    if index >= self.config.max_visible_ops.saturating_mul(4) {
                        return vec![DiagKind::LivelockSuspect];
                    }
                    let h = state_hash(&kernel);
                    if !hashes.insert(h) {
                        self.states_deduped += 1;
                        return Vec::new(); // spin cycle under defaults: benign
                    }
                    match schedule.decision_at(index) {
                        Some(Decision::Preempt(u)) => {
                            if kernel.preempt_current() {
                                kernel.schedule_next(u);
                            }
                        }
                        Some(Decision::Dispatch(u)) => {
                            kernel.schedule_next(u);
                        }
                        Some(Decision::Continue) | None => {}
                    }
                    index += 1;
                    match apply_step(&mut kernel, &mut det) {
                        StepOutcome::Ran { .. } | StepOutcome::Idled => {}
                        StepOutcome::Completed => {
                            return self.terminal_kinds(Term::Completed, &kernel)
                        }
                        StepOutcome::Halted { .. } => {
                            return self.terminal_kinds(Term::Halted, &kernel)
                        }
                        StepOutcome::Deadlock { blocked } => {
                            return self.terminal_kinds(Term::Deadlock(blocked), &kernel)
                        }
                        StepOutcome::Fault { .. } => {
                            return self.terminal_kinds(Term::Fault(String::new()), &kernel)
                        }
                    }
                }
            }
        }
    }

    /// The violation kinds a terminal state exhibits.
    fn terminal_kinds(&self, term: Term, kernel: &Kernel) -> Vec<DiagKind> {
        match term {
            Term::Completed => {
                let mut kinds = Vec::new();
                if self.target.mutex_checked() && self.violations_word(kernel) > 0 {
                    kinds.push(DiagKind::MutexViolation);
                }
                if kernel.read_word(self.counter_addr).unwrap_or(0) != self.expected_count {
                    kinds.push(DiagKind::LostUpdate);
                }
                kinds
            }
            Term::Deadlock(_) => vec![DiagKind::DeadlockFound],
            Term::Halted | Term::Fault(_) => vec![DiagKind::GuestFault],
            Term::Stalled => vec![DiagKind::LivelockSuspect],
        }
    }

    pub(crate) fn into_report(self) -> TargetReport {
        TargetReport {
            target: self.target,
            schedules: self.schedules,
            pruned: self.pruned,
            cycles: self.cycles,
            livelock_suspects: self.livelock_suspects,
            hit_schedule_cap: self.hit_cap,
            violations: self.violations,
            races: self.races,
            checkpoints: self.checkpoints,
            undo_replayed: self.undo_replayed,
            snapshot_bytes: self.snapshot_bytes,
            states_deduped: self.states_deduped,
            rseq_aborts: self.rseq_aborts,
        }
    }

    /// Resumes the search from a frozen subtree task and packages the
    /// results for the merge. Run on a *fresh* explorer (same target and
    /// config), typically on a worker thread.
    fn run_subtree(mut self, task: SubtreeTask) -> SubtreeOutcome {
        let SubtreeTask {
            mut kernel,
            mut det,
            at_dispatch,
            sleep,
            preemptions,
            index,
            mut path,
            mut hashes,
            rewound,
        } = task;
        let root = rewound.then(|| kernel.checkpoint());
        self.dfs(
            &mut kernel,
            &mut det,
            at_dispatch,
            sleep,
            preemptions,
            index,
            &mut path,
            &mut hashes,
        );
        if let Some(cp) = root {
            self.undo_replayed += kernel.restore(&cp);
        }
        SubtreeOutcome {
            schedules: self.schedules,
            pruned: self.pruned,
            cycles: self.cycles,
            livelock_suspects: self.livelock_suspects,
            hit_cap: self.hit_cap,
            violations: self.violations,
            race_keys: self.race_keys,
            races: self.races,
            checkpoints: self.checkpoints,
            undo_replayed: self.undo_replayed,
            snapshot_bytes: self.snapshot_bytes,
            states_deduped: self.states_deduped,
            rseq_aborts: self.rseq_aborts,
        }
    }
}

/// The sequential prefix expansion of a split search: runs the DFS down
/// to [`CheckConfig::split_depth`], freezing each node at that depth as a
/// [`SubtreeTask`]. Returns the expansion explorer (holding the shallow
/// terminals, violations, and counters found on the way) plus the frozen
/// tasks and their spawn-order marks.
fn expand(
    target: ModelTarget,
    config: &CheckConfig,
) -> (Explorer<'_>, Vec<SubtreeTask>, Vec<UnitMark>) {
    let mut explorer = Explorer::new(target, config);
    explorer.spawn_at = Some(u64::from(config.split_depth));
    explorer.run();
    let tasks = std::mem::take(&mut explorer.tasks);
    let marks = std::mem::take(&mut explorer.marks);
    (explorer, tasks, marks)
}

/// Splices subtree outcomes back into the expansion's DFS order,
/// reproducing exactly what one sequential search would have reported:
/// totals are sums; violations keep only the first of each kind *in
/// global DFS order* with `found_after` re-based to the global schedule
/// numbering; races dedup by site key in the same order.
fn merge(
    expansion: Explorer<'_>,
    marks: &[UnitMark],
    outcomes: Vec<SubtreeOutcome>,
) -> TargetReport {
    let mut violations: Vec<Violation> = Vec::new();
    let mut race_keys: Vec<(u32, u32, u32)> = Vec::new();
    let mut races: Vec<Diagnostic> = Vec::new();
    let push_violation = |violations: &mut Vec<Violation>, v: Violation| {
        if !violations.iter().any(|seen| seen.diag.kind == v.diag.kind) {
            violations.push(v);
        }
    };
    let mut push_race = |races: &mut Vec<Diagnostic>, key: (u32, u32, u32), race: Diagnostic| {
        if !race_keys.contains(&key) {
            race_keys.push(key);
            races.push(race);
        }
    };

    // Global DFS order interleaves expansion events and subtrees: the
    // task with mark `m` sits after the expansion's first `m` terminals
    // and before all later ones, so walk the expansion's violation/race
    // lists in lockstep with the task list. `sub_schedules` accumulates
    // the schedule counts of already-merged subtrees — the re-basing
    // offset for every later event.
    let mut sub_schedules = 0u64;
    let mut vi = 0;
    let mut ri = 0;
    for (mark, outcome) in marks.iter().zip(&outcomes) {
        while vi < mark.violations_len {
            let mut v = expansion.violations[vi].clone();
            v.found_after += sub_schedules;
            push_violation(&mut violations, v);
            vi += 1;
        }
        while ri < mark.races_len {
            push_race(
                &mut races,
                expansion.race_keys[ri],
                expansion.races[ri].clone(),
            );
            ri += 1;
        }
        for v in &outcome.violations {
            let mut v = v.clone();
            v.found_after += mark.schedules + sub_schedules;
            push_violation(&mut violations, v);
        }
        for (key, race) in outcome.race_keys.iter().zip(&outcome.races) {
            push_race(&mut races, *key, race.clone());
        }
        sub_schedules += outcome.schedules;
    }
    while vi < expansion.violations.len() {
        let mut v = expansion.violations[vi].clone();
        v.found_after += sub_schedules;
        push_violation(&mut violations, v);
        vi += 1;
    }
    while ri < expansion.races.len() {
        push_race(
            &mut races,
            expansion.race_keys[ri],
            expansion.races[ri].clone(),
        );
        ri += 1;
    }

    let sum = |f: fn(&SubtreeOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    TargetReport {
        target: expansion.target,
        schedules: expansion.schedules + sum(|o| o.schedules),
        pruned: expansion.pruned + sum(|o| o.pruned),
        cycles: expansion.cycles + sum(|o| o.cycles),
        livelock_suspects: expansion.livelock_suspects + sum(|o| o.livelock_suspects),
        hit_schedule_cap: false,
        violations,
        races,
        checkpoints: expansion.checkpoints + sum(|o| o.checkpoints),
        undo_replayed: expansion.undo_replayed + sum(|o| o.undo_replayed),
        snapshot_bytes: expansion.snapshot_bytes + sum(|o| o.snapshot_bytes),
        states_deduped: expansion.states_deduped + sum(|o| o.states_deduped),
        rseq_aborts: expansion.rseq_aborts + sum(|o| o.rseq_aborts),
    }
}

/// Exhaustively checks one target under `config`.
pub fn check_target(target: ModelTarget, config: &CheckConfig) -> TargetReport {
    let mut explorer = Explorer::new(target, config);
    explorer.run();
    explorer.into_report()
}

/// One deduplicated race site found by the happens-before sanitizer:
/// two unordered conflicting plain accesses to `addr`, the earlier at
/// `prior_pc`, the later at `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceSite {
    /// The shared data word both accesses touched.
    pub addr: u32,
    /// PC of the earlier access of the unordered pair.
    pub prior_pc: u32,
    /// PC of the access that completed the race.
    pub pc: u32,
}

/// The happens-before sanitizer's view of one target, exported for the
/// static↔dynamic differential harness in `ras-analyze`'s test suite.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The explored target.
    pub target: ModelTarget,
    /// Maximal schedules explored.
    pub schedules: u64,
    /// The schedule cap was hit; the race set may be incomplete.
    pub hit_schedule_cap: bool,
    /// Every distinct race site, in discovery (DFS) order.
    pub races: Vec<RaceSite>,
    /// The restartable ranges the detector treated as protected (empty
    /// under the rollback ablation): accesses from these pcs classify
    /// their words as synchronization, never as race participants — the
    /// dynamic mirror of the static lockset's `Sync` verdict.
    pub protected: Vec<SeqRange>,
}

impl RaceReport {
    /// The distinct shared words involved in at least one race, sorted.
    pub fn raced_words(&self) -> Vec<u32> {
        let mut words: Vec<u32> = self.races.iter().map(|r| r.addr).collect();
        words.sort_unstable();
        words.dedup();
        words
    }
}

/// Explores `target` purely for its race set and returns every race site
/// the happens-before sanitizer found.
///
/// Unlike [`check_target`], branches are *not* truncated at the first
/// recorded mutual-exclusion violation: on the ablated target the
/// post-violation suffixes are where the guest's violation tally becomes
/// a second-thread-shared word, and cutting them would hide exactly the
/// races the static lockset pass predicts. On safe targets the two
/// entry points explore identical trees (the violation word never
/// rises), so their race sets agree by construction.
pub fn race_report(target: ModelTarget, config: &CheckConfig) -> RaceReport {
    let mut explorer = Explorer::new(target, config);
    explorer.stop_on_violation = false;
    explorer.run();
    let races = explorer
        .race_keys
        .iter()
        .map(|&(addr, prior_pc, pc)| RaceSite { addr, prior_pc, pc })
        .collect();
    RaceReport {
        target,
        schedules: explorer.schedules,
        hit_schedule_cap: explorer.hit_cap,
        races,
        protected: explorer.protected_ranges(),
    }
}

/// [`check_target`] with deterministic root-splitting: the first
/// [`CheckConfig::split_depth`] decision levels are expanded
/// sequentially, then the disjoint subtrees hanging off them fan out
/// across `workers` threads and their results are merged back in DFS
/// order. The report is byte-identical to a sequential [`check_target`]
/// for any worker count — splitting is invisible to everything but wall
/// time.
///
/// Whenever the schedule cap interferes (a subtree alone or the merged
/// total reaching [`CheckConfig::max_schedules`] — a cap hit mid-search
/// truncates in a split-dependent way), the function falls back to one
/// full sequential search, preserving exactness.
pub fn check_target_split(
    target: ModelTarget,
    config: &CheckConfig,
    workers: usize,
) -> TargetReport {
    if config.split_depth == 0 || workers <= 1 {
        return check_target(target, config);
    }
    let (expansion, tasks, marks) = expand(target, config);
    if expansion.hit_cap {
        return check_target(target, config);
    }
    let outcomes = ras_par::parallel_map_owned_with(workers, tasks, |task| {
        Explorer::new(target, config).run_subtree(task)
    });
    let total = expansion.schedules + outcomes.iter().map(|o| o.schedules).sum::<u64>();
    if outcomes.iter().any(|o| o.hit_cap) || total >= config.max_schedules {
        return check_target(target, config);
    }
    merge(expansion, &marks, outcomes)
}

/// Checks many targets with one shared worker pool: expansions run
/// sequentially (they are shallow), then every frozen subtree of every
/// target fans out over a single `workers`-wide pool, and each target's
/// results merge back in DFS order. Reports are byte-identical to
/// sequential [`check_target`] runs in the given order.
pub fn check_targets_split(
    targets: &[ModelTarget],
    config: &CheckConfig,
    workers: usize,
) -> Vec<TargetReport> {
    if config.split_depth == 0 || workers <= 1 {
        return targets.iter().map(|&t| check_target(t, config)).collect();
    }
    let mut expansions = Vec::new();
    let mut flat: Vec<(usize, SubtreeTask)> = Vec::new();
    for (i, &target) in targets.iter().enumerate() {
        let (expansion, tasks, marks) = expand(target, config);
        flat.extend(tasks.into_iter().map(|task| (i, task)));
        expansions.push((expansion, marks));
    }
    let outcomes = ras_par::parallel_map_owned_with(workers, flat, |(i, task)| {
        (i, Explorer::new(targets[i], config).run_subtree(task))
    });
    let mut per_target: Vec<Vec<SubtreeOutcome>> = targets.iter().map(|_| Vec::new()).collect();
    for (i, outcome) in outcomes {
        per_target[i].push(outcome);
    }
    expansions
        .into_iter()
        .zip(per_target)
        .zip(targets)
        .map(|(((expansion, marks), outcomes), &target)| {
            let total = expansion.schedules + outcomes.iter().map(|o| o.schedules).sum::<u64>();
            if expansion.hit_cap
                || outcomes.iter().any(|o| o.hit_cap)
                || total >= config.max_schedules
            {
                check_target(target, config)
            } else {
                merge(expansion, &marks, outcomes)
            }
        })
        .collect()
}

/// Replays a counterexample schedule from a fresh boot with full event
/// recording and returns the captured timeline plus the target CPU's
/// clock rate in MHz (what [`ras_obs::chrome_trace`] needs to convert
/// cycles to microseconds). Stepping is identical to exploration, so the
/// trace shows exactly the interleaving the violation needs — every
/// dispatch, forced preemption, and rollback as timestamped events.
pub fn counterexample_trace(
    target: ModelTarget,
    config: &CheckConfig,
    schedule: &Schedule,
) -> (Vec<ras_obs::TimedObsEvent>, f64) {
    let mhz = target.profile().mhz();
    let explorer = Explorer::new(target, config);
    let mut kernel = explorer.boot(false);
    kernel.enable_recording(true);
    let mut det = None;
    let mut index = 0u64;
    loop {
        match advance(&mut kernel, &mut det) {
            Point::Terminal(_) => break,
            Point::Boundary | Point::FreeDispatch => {
                if index >= config.max_visible_ops.saturating_mul(4) {
                    break;
                }
                match schedule.decision_at(index) {
                    Some(Decision::Preempt(u)) => {
                        if kernel.preempt_current() {
                            kernel.schedule_next(u);
                        }
                    }
                    Some(Decision::Dispatch(u)) => {
                        kernel.schedule_next(u);
                    }
                    Some(Decision::Continue) | None => {}
                }
                index += 1;
                match apply_step(&mut kernel, &mut det) {
                    StepOutcome::Ran { .. } | StepOutcome::Idled => {}
                    _ => break,
                }
            }
        }
    }
    let events = kernel
        .take_recording()
        .map(ras_obs::Recording::into_events)
        .unwrap_or_default();
    (events, mhz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_kernel::ThreadState;

    /// The checkpoint counters of one report.
    fn counters(r: &TargetReport) -> [u64; 4] {
        [
            r.checkpoints,
            r.undo_replayed,
            r.snapshot_bytes,
            r.states_deduped,
        ]
    }

    /// Root-splitting moves the last branches of each subtree onto
    /// another explorer; the undo entries they leave are still counted
    /// once, so every checkpoint counter equals the sequential search's.
    #[test]
    fn split_searches_count_checkpoint_work_like_the_sequential_one() {
        let all = ModelTarget::all();
        // Every target at the default split on two workers, then a
        // shallower and a deeper split point on three.
        let mut cases: Vec<(ModelTarget, u32, usize)> = all.iter().map(|&t| (t, 3, 2)).collect();
        cases.push((all[0], 1, 3));
        cases.push((all[all.len() - 1], 5, 3));
        for (target, depth, workers) in cases {
            let config = CheckConfig {
                split_depth: depth,
                ..CheckConfig::default()
            };
            assert_eq!(
                counters(&check_target_split(target, &config, workers)),
                counters(&check_target(target, &config)),
                "{target} at split depth {depth} on {workers} workers"
            );
        }
    }

    /// The state hash before the multi-lane rewrite: FNV-1a over whole
    /// words, with no finalizer.
    fn fnv_fold(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn lane_fold(words: &[u64]) -> u64 {
        let mut h = LaneHash::new();
        for quad in words.chunks_exact(LANES) {
            h.absorb(quad.try_into().expect("a whole quad"));
        }
        h.finish()
    }

    /// [`PathSet`] slots are the hash's low bits. A multiply only carries
    /// differences upward, so under the old fold states differing only
    /// in high bits shared a probe chain; the finalizer fixes that.
    #[test]
    fn high_bit_differences_reach_the_slot_bits() {
        let low8 = |h: u64| h & 0xff;
        let (mut lane_moved, mut fnv_moved) = (0, 0);
        for i in 0..256u64 {
            // Register-like inputs: small values.
            let words: [u64; 8] = std::array::from_fn(|k| (i * 8 + k as u64) * 0x9E37 % 5000);
            let mut flipped = words;
            flipped[(i % 8) as usize] ^= 1 << 31;
            assert_ne!(lane_fold(&words), lane_fold(&flipped), "input {i}");
            lane_moved += usize::from(low8(lane_fold(&words)) != low8(lane_fold(&flipped)));
            fnv_moved += usize::from(low8(fnv_fold(&words)) != low8(fnv_fold(&flipped)));
        }
        assert_eq!(fnv_moved, 0, "the old fold never moves the low bits");
        assert!(lane_moved >= 250, "only {lane_moved} of 256 moved");
    }

    /// The regression the split hashing fixes: the old packing
    /// `5 | (until << 8)` shifted the deadline's top 8 bits out of the
    /// word, so deadlines `1 << 56` and `0` hashed identically.
    #[test]
    fn sleeping_deadlines_differing_in_top_bits_do_not_alias() {
        let old_packing = |until: u64| 5 | (until << 8);
        assert_eq!(
            old_packing(1 << 56),
            old_packing(0),
            "the old packing really did alias these deadlines"
        );
        let deadlines = [0u64, 1, 1 << 8, 1 << 55, 1 << 56, (1 << 56) | 1, u64::MAX];
        for (i, &a) in deadlines.iter().enumerate() {
            for &b in &deadlines[i + 1..] {
                assert_ne!(
                    thread_state_words(&ThreadState::Sleeping { until: a }),
                    thread_state_words(&ThreadState::Sleeping { until: b }),
                    "deadlines {a:#x} and {b:#x} must hash distinctly"
                );
            }
        }
    }

    /// Distinct state variants never share (discriminant, payload) words,
    /// even when payloads collide numerically.
    #[test]
    fn thread_state_discriminants_are_disjoint() {
        use ras_kernel::ThreadId;
        let states = [
            ThreadState::Ready,
            ThreadState::Running,
            ThreadState::Blocked { addr: 7 },
            ThreadState::Joining {
                target: ThreadId(7),
            },
            ThreadState::Sleeping { until: 7 },
            ThreadState::Exited,
        ];
        for (i, a) in states.iter().enumerate() {
            for b in &states[i + 1..] {
                assert_ne!(thread_state_words(a), thread_state_words(b));
            }
        }
    }
}
