//! The harness's own contract: the sampler's percentile rule and arm
//! alternation, every workload correct and deterministic at reduced
//! size, and `BENCHMARK.json` naming exactly what `ras-bench` prints.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Duration;

use ras_benchmark::stats::{interleave, sample, tail_percentile, Summary};
use ras_benchmark::workloads::LOCK_SERVER_QUANTUM;
use ras_benchmark::{
    end_to_end, run_sample, traced, Arm, Budget, LayerScale, Spec, Tracer, Workload, END_TO_END,
    PER_LAYER, TRACE_OVERHEAD,
};
use ras_core::experiments::{
    HeadToHeadScale, Table1Scale, Table2Scale, Table3Scale, Table4Scale, VerifyScale,
};
use ras_guest::workloads::{AfsSpec, Arrival, LockServerSpec, TextFormatSpec};
use ras_model::CheckConfig;

#[test]
fn p90_is_refused_with_fewer_than_ten_samples_beyond_it() {
    let values = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(Summary::of(&values(99)).p90, None);
    assert_eq!(Summary::of(&values(100)).p90, Some(90.0));
    assert_eq!(Summary::of(&values(100)).median, 50.5);
    assert_eq!(Summary::of(&values(101)).median, 51.0);
    // Nearest rank: at n = 109 the p90 is the 99th value, with exactly
    // ten above it. A p99 needs a thousand samples.
    assert_eq!(tail_percentile(&values(109), 0.9), Some(99.0));
    assert_eq!(tail_percentile(&values(999), 0.99), None);
    assert_eq!(tail_percentile(&values(1000), 0.99), Some(990.0));
    assert_eq!(tail_percentile(&[], 0.9), None);
}

#[test]
fn arms_alternate_which_goes_first() {
    let mut order = Vec::new();
    let pairs = interleave(Budget::Samples(4), |arm| {
        order.push(arm);
        order.len()
    });
    use Arm::{A, B};
    assert_eq!(order, [A, B, B, A, A, B, B, A]);
    // Each pair is (arm A's value, arm B's value) whatever ran first.
    assert_eq!(pairs, [(1, 2), (4, 3), (5, 6), (8, 7)]);
}

#[test]
fn warmup_samples_are_not_returned() {
    let mut calls = 0;
    let out = sample(3, Budget::Samples(2), || {
        calls += 1;
        calls
    });
    assert_eq!(out, [4, 5]);
    // A spent time budget still takes one timed sample.
    let timed = sample(2, Budget::Time(Duration::ZERO), || {
        calls += 1;
        calls
    });
    assert_eq!(timed, [8]);
}

fn small_lock_server(clients: usize, stack_bytes: u32) -> Spec {
    Spec::LockServer {
        server: LockServerSpec {
            clients,
            locks: 8,
            ops_per_client: 20,
            arrival: Arrival::Zipfian,
            think: 50,
            seed: ras_benchmark::DEFAULT_SEED,
            ..LockServerSpec::default()
        },
        stack_bytes,
        telemetry: true,
    }
}

fn small_verify() -> VerifyScale {
    VerifyScale {
        t1: Table1Scale { iterations: 2_000 },
        t2: Table2Scale {
            lock_iterations: 1_000,
            forks: 60,
            pingpong_cycles: 100,
        },
        t3: Table3Scale {
            text: TextFormatSpec {
                requests: 10,
                client_work: 16_000,
                server_work: 1_000,
            },
            afs: AfsSpec {
                requests: 40,
                client_work: 8_000,
                server_work: 4_000,
            },
            parthenon_clauses: 150,
            parthenon_work: 650,
            proton_items: 500,
        },
        t4: Table4Scale { iterations: 1_000 },
    }
}

/// One reduced spec per workload, in [`Workload::ALL`] order.
fn small_specs() -> Vec<(Workload, Spec)> {
    vec![
        (Workload::LockserverZipf, small_lock_server(16, 16 * 1024)),
        (Workload::Lockserver10k, small_lock_server(400, 512)),
        (
            Workload::Atomicity,
            Spec::Atomicity {
                iterations: 2_000,
                hostile: HeadToHeadScale {
                    iterations: 1_500,
                    workers: 2,
                    spin: 100,
                    quantum: 503,
                },
            },
        ),
        (Workload::Explorer, Spec::Explorer(CheckConfig::default())),
        (Workload::Reproduce, Spec::Reproduce(small_verify())),
    ]
}

#[test]
fn every_workload_is_correct_and_deterministic_at_reduced_size() {
    for (workload, spec) in small_specs() {
        let a = run_sample(&spec, &mut Tracer::disabled());
        let b = run_sample(&spec, &mut Tracer::disabled());
        assert_eq!(a.failed, 0, "{} failed a check", workload.name());
        assert!(
            a.checked > 0 && a.ops > 0,
            "{} checked nothing",
            workload.name()
        );
        assert_eq!(a.counts, b.counts, "{} exact counts moved", workload.name());
        assert_eq!(
            (a.cycles, a.instructions, a.ops),
            (b.cycles, b.instructions, b.ops)
        );

        let report = end_to_end(workload, &spec, 1, Budget::Samples(2));
        assert!(report.correct(), "{}: {report:?}", workload.name());
        assert_eq!(report.metric("failed_frac").unwrap().median, 0.0);
        for (name, unit) in END_TO_END {
            let m = report.metric(name).unwrap();
            assert_eq!(m.unit, unit);
            assert!(m.median > 0.0, "{} {name} is {}", workload.name(), m.median);
        }
    }
}

#[test]
fn tracing_one_quantum_at_a_time_changes_no_simulated_result() {
    let spec = small_lock_server(16, 16 * 1024);
    let plain = run_sample(&spec, &mut Tracer::disabled());
    let mut tr = Tracer::enabled();
    let traced = run_sample(&spec, &mut tr);
    assert_eq!(
        (plain.cycles, plain.instructions),
        (traced.cycles, traced.instructions)
    );
    let runs = tr.spans().iter().filter(|s| s.name == "run").count() as u64;
    assert!(runs >= plain.cycles / LOCK_SERVER_QUANTUM);
    let names: BTreeSet<&str> = tr.spans().iter().map(|s| s.name).collect();
    for child in [
        "lock_server",
        "boot",
        "enable_telemetry",
        "run",
        "take_telemetry",
    ] {
        assert!(names.contains(child), "no {child} span");
    }
}

/// The `name` values of the objects in `BENCHMARK.json`'s `key` array.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn contract() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let json = contract();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER
        .iter()
        .chain([&TRACE_OVERHEAD])
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
}

/// The metric names of a result line.
fn result_names(line: &str) -> BTreeSet<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    // Every chunk but the last ends with a metric's opening quote and
    // name.
    let chunks: Vec<&str> = metrics.split("\":{\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk[chunk.rfind('"').expect("quoted name") + 1..].to_owned())
        .collect()
}

#[test]
fn ras_bench_prints_exactly_the_contract_metrics() {
    let json = contract();
    let out = Command::new(env!("CARGO_BIN_EXE_ras-bench"))
        .args([
            "--workload",
            "explorer",
            "--seed",
            "7",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .output()
        .expect("ras-bench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,\"attempted\":"));
    let expected: BTreeSet<String> = names_in(&json, "end_to_end").into_iter().collect();
    assert_eq!(result_names(last), expected);

    // The traced run, through the library at reduced size.
    let mut scale = LayerScale::full(1);
    scale.pairs = 2;
    scale.reps = 1;
    scale.zipf = small_lock_server(16, 16 * 1024);
    scale.clients_10k = small_lock_server(400, 512);
    scale.iterations = 2_000;
    scale.verify = small_verify();
    let (workload, spec) = small_specs().swap_remove(2);
    let report = traced(
        workload,
        &spec,
        1,
        Budget::Samples(2),
        &scale,
        &mut Tracer::enabled(),
    );
    assert!(report.correct(), "{report:?}");
    let layers = names_in(&json, "per_layer");
    let line = report
        .result_json(layers.iter().map(String::as_str))
        .unwrap();
    assert_eq!(result_names(&line), layers.into_iter().collect());
}

#[test]
fn usage_errors_exit_two_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--all", "--workload", "explorer"],
        &["--workload", "explorer", "--seconds", "-1"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ras-bench"))
            .args(args)
            .output()
            .expect("ras-bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
