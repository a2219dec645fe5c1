//! Regenerates every table in the paper at full scale and prints them in
//! EXPERIMENTS.md-ready form.
//!
//! Run with: `cargo run --release -p ras-core --bin tables`
//!
//! `--figures` appends the figures; `--verify` checks the paper's claims
//! and exits nonzero on failure; `--metrics` prints the tables beyond
//! the paper's: the observability layer's rollback table (quantum
//! expiries, preemptions inside sequences, rollbacks and wasted cycles
//! per mechanism on a contended realistic workload), the recovery
//! head-to-head (RAS restart vs rseq abort vs kernel emulation on one
//! workload), and the ablations of the design choices (quantum sweep,
//! check placement, recovery home, instruction mix).
//!
//! Any other argument is a usage error (exit 2), so a misspelled flag in
//! a script fails instead of printing the default tables.
//!
//! Host timings of the reproduction are measured by `ras-bench`
//! (`benchmark/`), not here.

fn main() {
    let (mut figures, mut verify, mut metrics) = (false, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--figures" => figures = true,
            "--verify" => verify = true,
            "--metrics" => metrics = true,
            other => {
                eprintln!("tables: unknown option: {other}");
                eprintln!("usage: tables [--figures] [--verify] [--metrics]");
                std::process::exit(2);
            }
        }
    }
    if metrics {
        let rows =
            ras_core::experiments::rollback_table(&ras_core::experiments::RollbackScale::default());
        println!("{}", ras_core::experiments::render_rollback_table(&rows));
        let rows =
            ras_core::experiments::head_to_head(&ras_core::experiments::HeadToHeadScale::default());
        println!("{}", ras_core::experiments::render_head_to_head(&rows));
        println!("{}", ras_core::experiments::ablations::render_ablations());
        std::process::exit(0);
    }
    if verify {
        let v = ras_core::experiments::verify_reproduction(
            &ras_core::experiments::VerifyScale::default(),
        );
        println!("{v}");
        std::process::exit(if v.all_hold() { 0 } else { 1 });
    }
    println!("Reproduction of Bershad, Redell & Ellis, \"Fast Mutual Exclusion");
    println!("for Uniprocessors\" (ASPLOS 1992) — all evaluation tables.\n");
    println!("{}", ras_core::experiments::render_all());
    if figures {
        println!();
        println!("{}", ras_core::experiments::figures::render_figures());
    }
    println!("Paper values appear beside or beneath each measurement; see");
    println!("EXPERIMENTS.md for the per-row comparison and discussion.");
}
