//! Ablation experiments for the design choices the paper discusses in
//! prose: the optimism assumption as a function of the quantum, the PC
//! check placement (§4.1), in-kernel versus user-level recovery (§4.1),
//! and the instruction mix each mechanism actually executes.

use ras_guest::workloads::{counter_loop, CounterSpec};
use ras_guest::Mechanism;
use ras_isa::Opcode;
use ras_machine::CpuProfile;

use crate::report::AsciiTable;
use crate::{run_guest, run_guest_keeping_kernel, CheckTime, RunOptions};

/// One row of the quantum sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumSweepRow {
    /// Preemption quantum in cycles.
    pub quantum: u64,
    /// Timer preemptions observed.
    pub preemptions: u64,
    /// Sequence restarts performed.
    pub restarts: u64,
    /// Microseconds per critical section.
    pub us_per_op: f64,
}

impl QuantumSweepRow {
    /// Restarts per preemption — the probability a suspension landed
    /// inside a sequence.
    pub fn restart_rate(&self) -> f64 {
        self.restarts as f64 / self.preemptions.max(1) as f64
    }
}

/// Sweeps the preemption quantum for a mechanism on the two-worker
/// counter microbenchmark. Each quantum is an independent deterministic
/// cell, so the sweep points fan out across a worker pool and come back
/// in input order.
pub fn quantum_sweep(
    mechanism: Mechanism,
    quanta: &[u64],
    iterations: u32,
) -> Vec<QuantumSweepRow> {
    ras_par::parallel_map(quanta, |&quantum| {
        let spec = CounterSpec {
            iterations,
            workers: 2,
            ..Default::default()
        };
        let mut options = RunOptions::new(CpuProfile::r3000());
        options.quantum = quantum;
        options.jitter = 5;
        options.seed = 11;
        let report = run_guest(&counter_loop(mechanism, &spec), &options);
        QuantumSweepRow {
            quantum,
            preemptions: report.stats.preemptions,
            restarts: report.stats.ras_restarts,
            us_per_op: report.micros / f64::from(iterations * 2),
        }
    })
}

/// Renders the quantum sweep.
pub fn render_quantum_sweep(mechanism: Mechanism, rows: &[QuantumSweepRow]) -> String {
    let mut t = AsciiTable::new(
        &format!(
            "Ablation: restart behavior vs preemption quantum ({})",
            mechanism.id()
        ),
        &[
            "Quantum",
            "Preemptions",
            "Restarts",
            "Restart rate",
            "µs/op",
        ],
    );
    for row in rows {
        t.row(vec![
            row.quantum.to_string(),
            row.preemptions.to_string(),
            row.restarts.to_string(),
            format!("{:.4}", row.restart_rate()),
            format!("{:.3}", row.us_per_op),
        ]);
    }
    t.to_string()
}

/// One row of the check-placement comparison (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckTimeRow {
    /// The mechanism.
    pub mechanism: Mechanism,
    /// When the check ran.
    pub check: CheckTime,
    /// Total machine cycles for the run.
    pub cycles: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Final counter value (must be identical across placements).
    pub counter: u32,
}

/// Runs the same hostile workload with the PC check at suspend (Mach) and
/// at resume (Taos).
pub fn check_time_comparison(mechanism: Mechanism, iterations: u32) -> Vec<CheckTimeRow> {
    [CheckTime::OnSuspend, CheckTime::OnResume]
        .into_iter()
        .map(|check| {
            let spec = CounterSpec {
                iterations,
                workers: 2,
                ..Default::default()
            };
            let mut options = RunOptions::new(CpuProfile::r3000());
            options.quantum = 500;
            options.check_time = check;
            let built = counter_loop(mechanism, &spec);
            let (report, kernel) = run_guest_keeping_kernel(&built, &options);
            CheckTimeRow {
                mechanism,
                check,
                cycles: report.cycles,
                restarts: report.stats.ras_restarts,
                counter: kernel
                    .read_word(built.data.symbol("counter").expect("counter"))
                    .expect("aligned"),
            }
        })
        .collect()
}

/// One row of the recovery-home comparison (§4.1): where the rollback
/// logic lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryHomeRow {
    /// The mechanism.
    pub mechanism: Mechanism,
    /// Microseconds per critical section.
    pub us_per_op: f64,
    /// Cycles spent in kernel paths.
    pub kernel_cycles: u64,
    /// Rollbacks (kernel restarts) or redirects (user-level).
    pub recovery_events: u64,
}

/// Compares in-kernel recovery (registered sequences) against user-level
/// detection and restart on the same workload.
pub fn recovery_home_comparison(iterations: u32) -> Vec<RecoveryHomeRow> {
    [Mechanism::RasRegistered, Mechanism::UserLevelRestart]
        .into_iter()
        .map(|mechanism| {
            let spec = CounterSpec {
                iterations,
                workers: 2,
                ..Default::default()
            };
            let mut options = RunOptions::new(CpuProfile::r3000());
            options.quantum = 500;
            let report = run_guest(&counter_loop(mechanism, &spec), &options);
            RecoveryHomeRow {
                mechanism,
                us_per_op: report.micros / f64::from(iterations * 2),
                kernel_cycles: report.stats.kernel_cycles,
                recovery_events: report.stats.ras_restarts + report.stats.user_restart_redirects,
            }
        })
        .collect()
}

/// Instruction-mix profile of one mechanism on the microbenchmark:
/// retired instruction counts per interesting class, normalized per
/// critical section.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRow {
    /// The mechanism.
    pub mechanism: Mechanism,
    /// Loads per operation.
    pub loads_per_op: f64,
    /// Stores per operation.
    pub stores_per_op: f64,
    /// Branches per operation.
    pub branches_per_op: f64,
    /// Landmark no-ops per operation (designated flavors only).
    pub landmarks_per_op: f64,
    /// Syscalls per operation (kernel emulation only, plus thread mgmt).
    pub syscalls_per_op: f64,
    /// Total retired instructions per operation.
    pub total_per_op: f64,
}

/// Measures the instruction mix for each mechanism — the §2 comparison
/// ("one load and one store per atomic read-modify-write" for RAS versus
/// "at least three loads and seven stores" for bundled reservation) made
/// concrete.
pub fn instruction_mix(mechanisms: &[Mechanism], iterations: u32) -> Vec<MixRow> {
    mechanisms
        .iter()
        .map(|&mechanism| {
            let spec = CounterSpec {
                iterations,
                workers: 1,
                ..Default::default()
            };
            let mut options = RunOptions::new(CpuProfile::r3000());
            options.collect_mix = true;
            let built = counter_loop(mechanism, &spec);
            let (_, kernel) = run_guest_keeping_kernel(&built, &options);
            let mix = kernel.machine().instruction_mix();
            let ops = f64::from(iterations);
            let per = |op: Opcode| mix[op.index()] as f64 / ops;
            MixRow {
                mechanism,
                loads_per_op: per(Opcode::Lw),
                stores_per_op: per(Opcode::Sw),
                branches_per_op: per(Opcode::Branch),
                landmarks_per_op: per(Opcode::Landmark),
                syscalls_per_op: per(Opcode::Syscall),
                total_per_op: kernel.machine().instructions_retired() as f64 / ops,
            }
        })
        .collect()
}

/// Renders the instruction-mix table.
pub fn render_instruction_mix(rows: &[MixRow]) -> String {
    let mut t = AsciiTable::new(
        "Ablation: retired instructions per critical section",
        &[
            "Mechanism",
            "Loads",
            "Stores",
            "Branches",
            "Landmarks",
            "Syscalls",
            "Total",
        ],
    );
    for row in rows {
        t.row(vec![
            row.mechanism.id().to_owned(),
            format!("{:.2}", row.loads_per_op),
            format!("{:.2}", row.stores_per_op),
            format!("{:.2}", row.branches_per_op),
            format!("{:.2}", row.landmarks_per_op),
            format!("{:.2}", row.syscalls_per_op),
            format!("{:.2}", row.total_per_op),
        ]);
    }
    t.to_string()
}

/// Runs every ablation at report scale and renders its table: the
/// quantum sweep, the check placement, the recovery home and the
/// instruction mix.
pub fn render_ablations() -> String {
    let mut out = render_quantum_sweep(
        Mechanism::RasInline,
        &quantum_sweep(
            Mechanism::RasInline,
            &[50, 200, 1_000, 10_000, 250_000],
            30_000,
        ),
    );

    let mut t = AsciiTable::new(
        "Ablation: PC check at suspend (Mach) vs at resume (Taos)",
        &["Mechanism", "Check", "Cycles", "Restarts"],
    );
    for mechanism in [Mechanism::RasRegistered, Mechanism::RasInline] {
        for row in check_time_comparison(mechanism, 30_000) {
            t.row(vec![
                row.mechanism.id().to_owned(),
                format!("{:?}", row.check),
                row.cycles.to_string(),
                row.restarts.to_string(),
            ]);
        }
    }
    out.push('\n');
    out.push_str(&t.to_string());

    let mut t = AsciiTable::new(
        "Ablation: recovery in the kernel vs at user level (§4.1)",
        &["Mechanism", "µs/op", "Kernel cycles", "Recovery events"],
    );
    for row in recovery_home_comparison(30_000) {
        t.row(vec![
            row.mechanism.id().to_owned(),
            format!("{:.3}", row.us_per_op),
            row.kernel_cycles.to_string(),
            row.recovery_events.to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&t.to_string());

    let mix = instruction_mix(
        &[
            Mechanism::RasInline,
            Mechanism::RasRegistered,
            Mechanism::KernelEmulation,
            Mechanism::LamportPerLock,
            Mechanism::LamportBundled,
        ],
        20_000,
    );
    out.push('\n');
    out.push_str(&render_instruction_mix(&mix));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_rate_falls_as_the_quantum_grows() {
        let rows = quantum_sweep(Mechanism::RasInline, &[50, 1_000, 250_000], 8_000);
        assert!(rows[0].restarts > rows[1].restarts);
        assert!(rows[2].restarts <= 2, "optimism at realistic quanta");
        assert!(rows[0].restart_rate() > rows[2].restart_rate());
        // Overhead per op also falls with the quantum.
        assert!(rows[0].us_per_op > rows[2].us_per_op);
    }

    #[test]
    fn check_placement_is_result_equivalent() {
        for mechanism in [Mechanism::RasRegistered, Mechanism::RasInline] {
            let rows = check_time_comparison(mechanism, 4_000);
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].counter, rows[1].counter, "{mechanism}");
            assert_eq!(rows[0].counter, 8_000);
        }
    }

    #[test]
    fn user_level_recovery_costs_more_than_in_kernel() {
        let rows = recovery_home_comparison(8_000);
        let kernel_row = &rows[0];
        let user_row = &rows[1];
        assert_eq!(kernel_row.mechanism, Mechanism::RasRegistered);
        assert_eq!(user_row.mechanism, Mechanism::UserLevelRestart);
        // Every involuntary suspension takes the user-level redirect,
        // whether or not a sequence was interrupted — so it records more
        // recovery events and burns more time overall.
        assert!(user_row.recovery_events >= kernel_row.recovery_events);
        assert!(user_row.us_per_op > kernel_row.us_per_op);
    }

    #[test]
    fn instruction_mix_matches_the_paper_characterization() {
        let rows = instruction_mix(
            &[
                Mechanism::RasInline,
                Mechanism::KernelEmulation,
                Mechanism::LamportBundled,
            ],
            4_000,
        );
        let inline = &rows[0];
        let emul = &rows[1];
        let bundled = &rows[2];
        // "A short code path with one load and one store per atomic
        // read-modify-write" — inline RAS: 1 TAS load + counter load.
        assert!(inline.landmarks_per_op >= 0.99);
        assert!(inline.loads_per_op <= 2.5);
        assert!(inline.syscalls_per_op < 0.01);
        // Kernel emulation: one trap per op.
        assert!(emul.syscalls_per_op >= 0.99);
        // Bundled reservation: "at least three loads and seven stores" to
        // enter and exit — far more memory traffic than RAS.
        assert!(
            bundled.loads_per_op >= 3.0,
            "loads {}",
            bundled.loads_per_op
        );
        assert!(
            bundled.stores_per_op >= 5.0,
            "stores {}",
            bundled.stores_per_op
        );
        assert!(bundled.total_per_op > inline.total_per_op * 2.0);
    }

    #[test]
    fn rendering_includes_all_rows() {
        let rows = instruction_mix(&[Mechanism::RasInline], 500);
        let text = render_instruction_mix(&rows);
        assert!(text.contains("ras-inline"));
        assert!(text.contains("Landmarks"));
        let sweep = quantum_sweep(Mechanism::RasInline, &[100], 500);
        let text = render_quantum_sweep(Mechanism::RasInline, &sweep);
        assert!(text.contains("100"));
    }

    #[test]
    fn ablation_report_has_every_table() {
        let text = render_ablations();
        for title in [
            "restart behavior vs preemption quantum",
            "PC check at suspend (Mach) vs at resume (Taos)",
            "recovery in the kernel vs at user level",
            "retired instructions per critical section",
        ] {
            assert!(text.contains(title), "missing {title}");
        }
        assert!(text.contains("user-level") && text.contains("lamport-b"));
    }
}
