//! The bundled-workload sweep: every guest workload under every
//! mechanism, enumerated in one fixed order so `ras-lint --workloads`,
//! the CI lint job, and the `ras-bench` benchmark all analyze the same
//! target list and their outputs stay comparable run to run.

use ras_guest::workloads::{
    afs_bench, counter_loop, fork_test, malloc_stress, model_counter, mutex_bench, parthenon,
    ping_pong, proton64, spinlock_bench, text_format, treiber_stack, AfsSpec, CounterSpec,
    MallocSpec, ModelSpec, ParthenonSpec, Proton64Spec, StackSpec, Table2Spec, TasFlavor,
    TextFormatSpec,
};
use ras_guest::Mechanism;
use ras_isa::Program;

/// One bundled program to analyze, named `workload://NAME/MECHANISM`.
pub struct WorkloadTarget {
    /// Stable display name (doubles as the JSON report key).
    pub name: String,
    /// The built program image.
    pub program: Program,
}

/// Every bundled guest workload under every mechanism, in a fixed
/// order: workload enumeration order × [`Mechanism::all`] order, with
/// the model-counter flavors a mechanism supports at the end.
pub fn bundled_workloads() -> Vec<WorkloadTarget> {
    let mut out = Vec::new();
    for m in Mechanism::all() {
        let mut push = |tag: String, program: Program| {
            out.push(WorkloadTarget {
                name: format!("workload://{tag}/{}", m.id()),
                program,
            });
        };
        push(
            "counter-loop".into(),
            counter_loop(m, &CounterSpec::default()).program,
        );
        push(
            "malloc-stress".into(),
            malloc_stress(m, &MallocSpec::default()).program,
        );
        if m == Mechanism::RasInline {
            // The lock-free stack is built on designated CAS sequences.
            push(
                "treiber-stack".into(),
                treiber_stack(m, &StackSpec::default()).program,
            );
        }
        push(
            "spinlock-bench".into(),
            spinlock_bench(m, &Table2Spec::default()).program,
        );
        push(
            "mutex-bench".into(),
            mutex_bench(m, &Table2Spec::default()).program,
        );
        push(
            "fork-test".into(),
            fork_test(m, &Table2Spec::default()).program,
        );
        push(
            "ping-pong".into(),
            ping_pong(m, &Table2Spec::default()).program,
        );
        push(
            "parthenon".into(),
            parthenon(m, &ParthenonSpec::default()).program,
        );
        push(
            "proton64".into(),
            proton64(m, &Proton64Spec::default()).program,
        );
        push(
            "text-format".into(),
            text_format(m, &TextFormatSpec::default()).program,
        );
        push(
            "afs-bench".into(),
            afs_bench(m, &AfsSpec::default()).program,
        );
        for f in TasFlavor::all() {
            if f.supported_by(m) {
                push(
                    format!("model-counter-{}", f.id()),
                    model_counter(m, f, &ModelSpec::default()).program,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_covers_every_mechanism() {
        let a = bundled_workloads();
        let b = bundled_workloads();
        let names: Vec<&str> = a.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, b.iter().map(|t| t.name.as_str()).collect::<Vec<_>>());
        for m in Mechanism::all() {
            let suffix = format!("/{}", m.id());
            assert!(
                names.iter().any(|n| n.ends_with(&suffix)),
                "no targets for {m}"
            );
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names are unique");
    }
}
