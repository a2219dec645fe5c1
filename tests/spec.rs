//! The model checker's exact exploration, pinned at the workspace root.
//!
//! `model_check` over the default configuration is the explorer's
//! reference run. Its counts are a property of the search, not of the
//! host or its worker count: a change to state hashing, checkpointing or
//! the race detector that keeps the search the same keeps every count
//! here.

use ras_analyze::{lockset, Cfg, LocksetConfig};
use ras_guest::workloads::{model_counter, ModelSpec};
use ras_kernel::StrategyKind;
use ras_model::{model_check, race_report, CheckConfig, ModelTarget};

#[test]
fn default_model_check_explores_the_pinned_search() {
    let report = model_check(&CheckConfig::default());
    assert!(report.ok(), "every target verified, the ablation refuted");
    let total = |f: fn(&ras_model::TargetReport) -> u64| report.targets.iter().map(f).sum::<u64>();
    assert_eq!(report.targets.len(), 13);
    assert_eq!(report.total_schedules(), 13_086);
    assert_eq!(report.total_pruned(), 1_652);
    assert_eq!(total(|t| t.checkpoints), 14_725);
    assert_eq!(total(|t| t.undo_replayed), 72_633);
    assert_eq!(total(|t| t.states_deduped), 2_989);
}

/// Stripping the kernel strategy makes every shared word racy, and the
/// static lockset pass and the explorer's happens-before sanitizer name
/// exactly the same words.
#[test]
fn ablated_target_races_every_shared_word_at_bound_3() {
    let config = CheckConfig {
        preemption_bound: 3,
        ..CheckConfig::default()
    };
    let target = ModelTarget::all()
        .into_iter()
        .find(|t| t.ablated)
        .expect("the ablation is bundled");
    let spec = ModelSpec {
        iterations: config.iterations,
        workers: config.workers,
    };
    let mut built = model_counter(target.mechanism, target.flavor, &spec);
    built.strategy = StrategyKind::None;
    let expect: Vec<u32> = ["lock", "counter", "cs_owner", "violations"]
        .iter()
        .map(|w| built.data.symbol(w).expect("workload symbol"))
        .collect();
    let cfg = Cfg::build(&built.program);
    let lockset = lockset(&built.program, &cfg, &LocksetConfig::for_guest(&built));
    assert_eq!(lockset.racy_words(), expect, "static");
    assert_eq!(
        race_report(target, &config).raced_words(),
        expect,
        "dynamic"
    );
}
