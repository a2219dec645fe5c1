use ras_guest::BuiltGuest;
use ras_kernel::{CheckTime, Kernel, KernelStats, Outcome};
use ras_machine::{CpuProfile, EngineKind, PagingConfig};
use ras_obs::{Metrics, TranslationCounters};

/// What the kernel's observability layer records during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Observe {
    /// Record nothing — the zero-overhead default.
    #[default]
    Off,
    /// Aggregate rollback/lock/scheduling counters only.
    Metrics,
    /// Counters plus the full timestamped event stream (what the
    /// Perfetto exporter consumes). Unbounded memory for long runs.
    Events,
}

/// Options for executing a built guest on the simulator.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The CPU to run on.
    pub profile: CpuProfile,
    /// Preemption quantum in cycles (default: 250,000 — the DECstation's
    /// 100 Hz tick at 25 MHz).
    pub quantum: u64,
    /// Timer jitter in cycles.
    pub jitter: u64,
    /// Seed for the jitter generator.
    pub seed: u64,
    /// When the kernel's PC check runs (§4.1).
    pub check_time: CheckTime,
    /// Optional demand paging.
    pub paging: Option<PagingConfig>,
    /// Per-thread stack size.
    pub stack_bytes: u32,
    /// Maximum thread count.
    pub max_threads: usize,
    /// Data memory size.
    pub mem_bytes: u32,
    /// Cycle budget; [`RunReport::outcome`] is
    /// [`Outcome::OutOfFuel`] if exceeded.
    pub fuel: u64,
    /// Collect the per-opcode instruction mix (forces the machine onto its
    /// instrumented loop; see [`ras_machine::Machine::enable_mix`]).
    pub collect_mix: bool,
    /// Structured observability recording (see [`Observe`]).
    pub observe: Observe,
    /// Accumulate the per-PC cycle histogram (forces the machine onto its
    /// instrumented loop; see [`ras_machine::Machine::enable_pc_profile`]).
    pub pc_profile: bool,
    /// Which execution engine drives guest timeslices (see
    /// [`ras_machine::EngineKind`]). Instrumented options (`collect_mix`,
    /// `pc_profile`, event observation) win over the translated engine:
    /// the machine deoptimizes wholesale so collectors see every
    /// instruction.
    pub engine: EngineKind,
    /// Lock words to watch with streaming telemetry (wait/hold
    /// histograms, sharded counters — see [`ras_obs::Telemetry`]).
    /// `None` leaves telemetry off; retrieve the aggregate from the kept
    /// kernel with `take_telemetry`.
    pub telemetry_locks: Option<Vec<u32>>,
    /// Additionally retain every watched access in the telemetry
    /// aggregate (O(events) memory — differential tests only).
    pub telemetry_raw: bool,
}

impl RunOptions {
    /// Paper-realistic defaults on the given profile.
    pub fn new(profile: CpuProfile) -> RunOptions {
        RunOptions {
            profile,
            quantum: 250_000,
            jitter: 0,
            seed: 0,
            check_time: CheckTime::OnSuspend,
            paging: None,
            stack_bytes: 16 * 1024,
            max_threads: 64,
            mem_bytes: 8 * 1024 * 1024,
            fuel: u64::MAX,
            collect_mix: false,
            observe: Observe::Off,
            pc_profile: false,
            engine: EngineKind::default(),
            telemetry_locks: None,
            telemetry_raw: false,
        }
    }
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions::new(CpuProfile::r3000())
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Total machine cycles.
    pub cycles: u64,
    /// Elapsed simulated time in microseconds.
    pub micros: f64,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Kernel statistics (Table 3's columns live here).
    pub stats: KernelStats,
    /// Observability metrics, present when [`RunOptions::observe`] was
    /// not [`Observe::Off`].
    pub metrics: Option<Metrics>,
    /// Translation-tier counters, present when [`RunOptions::engine`] was
    /// [`EngineKind::Translated`].
    pub translation: Option<TranslationCounters>,
}

impl RunReport {
    /// Elapsed simulated time in seconds.
    pub fn seconds(&self) -> f64 {
        self.micros / 1e6
    }
}

/// Boots and runs a built guest, returning the report.
///
/// # Panics
///
/// Panics if the kernel cannot boot (data image too large) or the run does
/// not complete — experiment harnesses treat those as configuration bugs.
pub fn run_guest(built: &BuiltGuest, options: &RunOptions) -> RunReport {
    let (report, _) = run_guest_keeping_kernel(built, options);
    report
}

/// Like [`run_guest`] but also returns the final kernel for inspection
/// (memory contents, output log).
pub fn run_guest_keeping_kernel(built: &BuiltGuest, options: &RunOptions) -> (RunReport, Kernel) {
    // In debug builds, statically verify the guest before booting it. A
    // broken restartable sequence or stray landmark does not fail loudly
    // at run time — it silently corrupts shared state on an unlucky
    // preemption — so catching it here turns a flaky heisenbug into a
    // deterministic panic with the offending instructions.
    #[cfg(debug_assertions)]
    {
        let analysis = ras_analyze::analyze_standard(&built.program);
        if analysis.has_errors() {
            let report: String = analysis
                .errors()
                .map(|d| d.render(&built.program))
                .collect();
            panic!(
                "static verification failed for {} guest:\n{report}",
                built.mechanism
            );
        }
    }

    let mut config = built.kernel_config(options.profile.clone());
    config.quantum = options.quantum;
    config.jitter = options.jitter;
    config.seed = options.seed;
    config.check_time = options.check_time;
    config.paging = options.paging;
    config.stack_bytes = options.stack_bytes;
    config.max_threads = options.max_threads;
    config.mem_bytes = options.mem_bytes;
    config.collect_mix = options.collect_mix;
    config.engine = options.engine;
    let mut kernel = built.boot(config).expect("guest boots");
    match options.observe {
        Observe::Off => {}
        Observe::Metrics => kernel.enable_recording(false),
        Observe::Events => kernel.enable_recording(true),
    }
    if options.pc_profile {
        kernel.enable_pc_profile();
    }
    if let Some(locks) = &options.telemetry_locks {
        kernel.enable_telemetry(locks, options.telemetry_raw);
    }
    let outcome = kernel.run(options.fuel);
    assert!(
        matches!(outcome, Outcome::Completed),
        "experiment run must complete, got {outcome:?} for {}",
        built.mechanism
    );
    let report = RunReport {
        outcome,
        cycles: kernel.machine().clock(),
        micros: kernel.machine().elapsed_micros(),
        instructions: kernel.machine().instructions_retired(),
        stats: *kernel.stats(),
        metrics: kernel.recording().map(|r| r.metrics().clone()),
        translation: kernel.translation_stats().map(TranslationCounters::from),
    };
    (report, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_guest::{workloads, Mechanism};

    #[test]
    fn run_guest_reports_cycles_and_stats() {
        let spec = workloads::CounterSpec {
            iterations: 100,
            workers: 1,
            body: workloads::CounterBody::LockAndCounter,
        };
        let built = workloads::counter_loop(Mechanism::KernelEmulation, &spec);
        let report = run_guest(&built, &RunOptions::default());
        assert_eq!(report.outcome, Outcome::Completed);
        assert!(report.cycles > 0);
        assert!(report.micros > 0.0);
        assert!(report.stats.emulation_traps >= 100);
        assert!((report.seconds() - report.micros / 1e6).abs() < 1e-12);
    }

    #[test]
    fn keeping_kernel_allows_memory_inspection() {
        let spec = workloads::CounterSpec {
            iterations: 50,
            workers: 2,
            body: workloads::CounterBody::LockAndCounter,
        };
        let built = workloads::counter_loop(Mechanism::RasInline, &spec);
        let (report, kernel) = run_guest_keeping_kernel(&built, &RunOptions::default());
        assert_eq!(report.outcome, Outcome::Completed);
        let counter = built.data.symbol("counter").unwrap();
        assert_eq!(kernel.read_word(counter).unwrap(), 100);
    }
}
