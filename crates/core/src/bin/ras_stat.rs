//! `ras-stat` — run the lock-server workload with streaming telemetry
//! and export per-lock latency percentiles.
//!
//! Usage: `ras-stat [options]`
//!
//! Options:
//!
//! * `--mechanism ID` — one of the `Mechanism` ids (default
//!   `ras-registered`)
//! * `--clients N` — client threads (default 8)
//! * `--locks N` — distinct locks (default 4)
//! * `--ops N` — lock operations per client (default 24)
//! * `--arrival KIND` — `uniform`, `zipfian`, or `bursty` (default
//!   `uniform`)
//! * `--think N` — busy-work iterations inside each critical section
//!   (default 0)
//! * `--quantum N` — preemption quantum in cycles (default 25000)
//! * `--seed N` — schedule-generator seed (default the spec's)
//! * `--format FMT` — `table` (percentile table, default),
//!   `prometheus` (text exposition), or `json` (schema-validated
//!   snapshot)
//! * `--out PATH` — write to a file instead of stdout
//! * `--check` — validate the JSON snapshot against the `ras-stat-v1`
//!   schema and print a one-line summary
//!
//! Telemetry overhead is measured by `ras-bench` (`obs.telemetry_overhead`
//! in its traced run), not here.
//!
//! Exit codes: `0` success, `1` lost updates or validation failure, `2`
//! usage error.

use std::process::ExitCode;

use ras_core::{run_guest_keeping_kernel, Mechanism, Observe, RunOptions};
use ras_guest::workloads::{lock_addresses, lock_server, Arrival, LockServerSpec};
use ras_machine::CpuProfile;
use ras_obs::{validate_stat_snapshot, SnapshotMeta, StatSnapshot};

struct Options {
    mechanism: Mechanism,
    spec: LockServerSpec,
    quantum: u64,
    format: String,
    out: Option<String>,
    check: bool,
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    let mut opts = Options {
        mechanism: Mechanism::RasRegistered,
        spec: LockServerSpec::default(),
        quantum: 25_000,
        format: "table".to_owned(),
        out: None,
        check: false,
    };
    args.next(); // program name
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--mechanism" => {
                let id = value("--mechanism")?;
                opts.mechanism = Mechanism::all()
                    .into_iter()
                    .find(|m| m.id() == id)
                    .ok_or_else(|| {
                        let ids: Vec<&str> = Mechanism::all().iter().map(|m| m.id()).collect();
                        format!("unknown mechanism `{id}` (one of: {})", ids.join(", "))
                    })?;
            }
            "--clients" => {
                opts.spec.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--locks" => {
                opts.spec.locks = value("--locks")?
                    .parse()
                    .map_err(|e| format!("--locks: {e}"))?;
            }
            "--ops" => {
                opts.spec.ops_per_client =
                    value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?;
            }
            "--arrival" => {
                let id = value("--arrival")?;
                opts.spec.arrival = Arrival::from_id(&id)
                    .ok_or_else(|| "--arrival must be uniform, zipfian, or bursty".to_owned())?;
            }
            "--think" => {
                opts.spec.think = value("--think")?
                    .parse()
                    .map_err(|e| format!("--think: {e}"))?;
            }
            "--quantum" => {
                opts.quantum = value("--quantum")?
                    .parse()
                    .map_err(|e| format!("--quantum: {e}"))?;
            }
            "--seed" => {
                opts.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--format" => {
                let f = value("--format")?;
                if f != "table" && f != "prometheus" && f != "json" {
                    return Err(format!(
                        "--format must be table, prometheus, or json, got `{f}`"
                    ));
                }
                opts.format = f;
            }
            "--out" => opts.out = Some(value("--out")?),
            "--check" => opts.check = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// The least exotic CPU able to run the mechanism.
fn pick_profile(mechanism: Mechanism) -> CpuProfile {
    for profile in [CpuProfile::r3000(), CpuProfile::i486(), CpuProfile::i860()] {
        if mechanism.supported_by(&profile) {
            return profile;
        }
    }
    unreachable!("every mechanism runs on at least one profile");
}

fn run_options(opts: &Options, watch: Vec<u32>) -> RunOptions {
    RunOptions {
        quantum: opts.quantum,
        observe: Observe::Off,
        max_threads: opts.spec.clients + 2,
        stack_bytes: stack_bytes_for(opts.spec.clients),
        telemetry_locks: Some(watch),
        ..RunOptions::new(pick_profile(opts.mechanism))
    }
}

/// Thousands of client threads only fit in the 8 MiB data image with
/// small stacks; the lock-server client needs very little.
fn stack_bytes_for(clients: usize) -> u32 {
    if clients > 512 {
        512
    } else {
        16 * 1024
    }
}

fn emit(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        Some(p) => std::fs::write(p, content).map_err(|e| format!("writing {p}: {e}")),
        None => {
            print!("{content}");
            if !content.ends_with('\n') {
                println!();
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ras-stat: {e}");
            return ExitCode::from(2);
        }
    };
    let built = lock_server(opts.mechanism, &opts.spec);
    let watch = lock_addresses(&built, &opts.spec);

    let options = run_options(&opts, watch);
    let (report, mut kernel) = run_guest_keeping_kernel(&built, &options);
    // Correctness first: the per-lock operation counters must account
    // for every client operation.
    let ops_done = built.data.symbol("ops_done").expect("ops_done exists");
    let total_ops: u64 = (0..opts.spec.locks)
        .map(|i| {
            u64::from(
                kernel
                    .read_word(ops_done + 4 * i as u32)
                    .expect("counter readable"),
            )
        })
        .sum();
    if total_ops != opts.spec.total_ops() {
        eprintln!(
            "ras-stat: lost updates: {total_ops} ops recorded, expected {}",
            opts.spec.total_ops()
        );
        return ExitCode::from(1);
    }
    let telemetry = kernel.take_telemetry().expect("telemetry was enabled");
    let snapshot = StatSnapshot {
        meta: SnapshotMeta {
            mechanism: opts.mechanism.id().to_owned(),
            workload: "lock-server".to_owned(),
            clients: opts.spec.clients as u64,
            locks: opts.spec.locks as u64,
            ops_per_client: u64::from(opts.spec.ops_per_client),
            arrival: opts.spec.arrival.id().to_owned(),
            total_cycles: report.cycles,
            total_ops,
        },
        telemetry: &telemetry,
    };
    let content = match opts.format.as_str() {
        "json" => snapshot.to_json(),
        "prometheus" => snapshot.to_prometheus(),
        _ => snapshot.to_table(),
    };
    if opts.check {
        let json = if opts.format == "json" {
            content.clone()
        } else {
            snapshot.to_json()
        };
        match validate_stat_snapshot(&json) {
            Ok(summary) => println!(
                "ok: {} locks, {} threads, {} acquisitions",
                summary.locks, summary.threads, summary.acquisitions
            ),
            Err(e) => {
                eprintln!("ras-stat: invalid snapshot: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if let Err(e) = emit(opts.out.as_deref(), &content) {
        eprintln!("ras-stat: {e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
