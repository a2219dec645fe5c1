//! `ras-bench` — run the named benchmark workloads.
//!
//! ```text
//! ras-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1|file>]
//! ras-bench --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--workload` runs one workload in this process. `--all` runs every
//! workload, one after another, each in its own child process. Without
//! `--seconds` each workload takes its default sample count; with it,
//! timed samples run for that many seconds. `--trace 1` (or a file name,
//! which also receives the spans) makes the run the traced per-layer
//! run: untraced/traced pairs for that long, then the layer suite.
//!
//! Each workload prints two lines on stdout: the detail object (every
//! metric with unit, median, p90 and sample count), then the result
//! object whose `metrics` are exactly the ones `BENCHMARK.json` names.
//! The exit code is 0 when every check passed, 1 when one failed, 2 on a
//! usage error.

use std::process::{Command, ExitCode};
use std::time::Duration;

use ras_benchmark::{
    end_to_end, traced, Budget, LayerScale, Report, Tracer, Workload, DEFAULT_SEED, END_TO_END,
    PER_LAYER, TRACED_SAMPLES, TRACE_OVERHEAD,
};

const USAGE: &str = "usage: ras-bench (--workload <name> | --all) [--seed <n>] [--seconds <s>] \
                     [--trace <0|1|file>]";

#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    On,
    ToFile(String),
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: Trace,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: Trace::Off,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            out.all = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => out.seed = parse_seed(value).ok_or("--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    file => Trace::ToFile(file.to_owned()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.all == out.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    if out.all && matches!(out.trace, Trace::ToFile(_)) {
        return Err("--trace <file> needs --workload".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    // One host thread: the load comes from this process alone, and the
    // model checker's worker pool does not race the timed samples.
    std::env::set_var("RAS_THREADS", "1");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ras-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&raw),
    }
}

/// Runs every workload in its own child process, one after another,
/// forwarding each child's output.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ras-bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let passthrough: Vec<&String> = raw.iter().filter(|a| *a != "--all").collect();
    let mut ok = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(&passthrough)
            .env("RAS_THREADS", "1")
            .stderr(std::process::Stdio::inherit())
            .output();
        match output {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("ras-bench: {} did not start: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let spec = workload.spec(args.seed);
    let budget = |samples| {
        args.seconds.map_or(Budget::Samples(samples), |s| {
            Budget::Time(Duration::from_secs_f64(s))
        })
    };
    let (report, names): (Report, Vec<&str>) = if args.trace == Trace::Off {
        let budget = budget(workload.default_samples());
        let report = end_to_end(workload, &spec, args.seed, budget);
        (report, END_TO_END.iter().map(|(n, _)| *n).collect())
    } else {
        let mut tr = Tracer::enabled();
        let scale = LayerScale::full(args.seed);
        let budget = budget(TRACED_SAMPLES);
        let report = traced(workload, &spec, args.seed, budget, &scale, &mut tr);
        if let Trace::ToFile(path) = &args.trace {
            let json = format!(
                "{{\"report\":{},\n\"self_times\":{},\n\"spans\":{}}}\n",
                report.detail_json(),
                tr.self_times_json(),
                tr.spans_json()
            );
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("ras-bench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} spans to {path}", tr.spans().len());
        }
        let names = PER_LAYER
            .iter()
            .chain([&TRACE_OVERHEAD])
            .map(|(n, _)| *n)
            .collect();
        (report, names)
    };
    print_table(&report);
    println!("{}", report.detail_json());
    match report.result_json(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ras-bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ras-bench: {}: {} of {} checks failed",
            report.workload, report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// The report as a table on stderr, for people.
fn print_table(report: &Report) {
    eprintln!(
        "{} (seed {:#x}{}): {} checked, {} failed",
        report.workload,
        report.seed,
        if report.traced { ", traced" } else { "" },
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        let p90 = m.p90.map_or("-".to_owned(), |v| format!("{v:.4}"));
        eprintln!(
            "  {:<44} {:>14.4} {:<12} p90 {:>12} n={}",
            m.name, m.median, m.unit, p90, m.n
        );
    }
}
