//! Sweep-level guarantees for the tiered visited store: a memory budget is
//! a *placement* decision, never a semantic one — a sweep forced to spill
//! every shard to disk must render the byte-identical report of the
//! all-in-memory run — and a corrupted spill tier must fail loudly
//! (`complete: false`), never silently drop or invent states.

use std::sync::Arc;

use fa_core::SnapshotProcess;
use fa_memory::Wiring;
use fa_modelcheck::checks::{
    check_snapshot_task_coarse_with, check_snapshot_task_with, CheckConfig,
};
use fa_modelcheck::Explorer;

#[test]
fn zero_budget_sweep_is_byte_identical_to_in_memory() {
    // Budget 0 spills every full shard; the deterministic report must not
    // notice. `{:?}` equality pins every field byte-for-byte.
    let in_memory = check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::serial()).unwrap();
    let spilled = check_snapshot_task_with(
        &[1, 2],
        500_000,
        &CheckConfig::serial().with_visited_budget(0),
    )
    .unwrap();
    assert_eq!(
        format!("{:?}", spilled.report),
        format!("{:?}", in_memory.report)
    );
    assert!(in_memory.report.complete, "the n=2 space is exhaustible");
}

#[test]
fn zero_budget_coarse_sweep_is_byte_identical_to_in_memory() {
    let in_memory =
        check_snapshot_task_coarse_with(&[1, 2, 3], 3_000, &CheckConfig::serial()).unwrap();
    let spilled = check_snapshot_task_coarse_with(
        &[1, 2, 3],
        3_000,
        &CheckConfig::serial().with_visited_budget(0),
    )
    .unwrap();
    assert_eq!(
        format!("{:?}", spilled.report),
        format!("{:?}", in_memory.report)
    );
}

#[test]
fn budget_composes_with_the_quotient() {
    // Quotient + spilling: everything but the spill counter matches the
    // in-memory quotiented run, and shards really did spill.
    let config = CheckConfig::serial().with_quotient();
    let in_memory = check_snapshot_task_with(&[5, 5], 500_000, &config)
        .unwrap()
        .report;
    let spilled = check_snapshot_task_with(&[5, 5], 500_000, &config.with_visited_budget(0))
        .unwrap()
        .report;
    assert_eq!(spilled.combos, in_memory.combos);
    assert_eq!(spilled.total_states, in_memory.total_states);
    assert_eq!(spilled.complete, in_memory.complete);
    assert_eq!(spilled.violation, in_memory.violation);
    let (im, sp) = (
        in_memory.quotient.expect("quotiented report"),
        spilled.quotient.expect("quotiented report"),
    );
    assert_eq!(sp.canonical_states, im.canonical_states);
    assert_eq!(sp.full_states_estimate, im.full_states_estimate);
    assert_eq!(sp.combos_explored, im.combos_explored);
    assert_eq!(im.spilled_shards, 0);
    assert!(sp.spilled_shards > 0, "budget 0 must spill");
}

#[test]
fn corrupted_spill_tier_fails_loudly() {
    // A flipped byte in the spill file must surface as an incomplete
    // exploration — never as a silently wrong state count or verdict.
    let n = 2;
    let procs: Vec<SnapshotProcess<u32>> = [1u32, 2]
        .iter()
        .map(|&x| SnapshotProcess::new(x, n))
        .collect();
    let wirings: Vec<Arc<Wiring>> = vec![
        Arc::new(Wiring::identity(n)),
        Arc::new(Wiring::from_perm(vec![1, 0]).unwrap()),
    ];
    let clean = Explorer::new(procs.clone(), n, Default::default(), wirings.clone())
        .with_visited_budget(0)
        .run(|_| Ok(()));
    assert!(clean.complete, "budget 0 alone must still finish");
    assert!(clean.spilled_shards > 0, "budget 0 must spill");

    let corrupted = Explorer::new(procs, n, Default::default(), wirings)
        .with_visited_budget(0)
        .with_corrupted_spill_for_tests()
        .run(|_| Ok(()));
    assert!(
        !corrupted.complete,
        "corruption must not claim completeness"
    );
    assert!(
        corrupted.violation.is_none(),
        "corruption is not a violation"
    );
    assert!(
        corrupted.states < clean.states,
        "the aborted run stops early ({} vs {})",
        corrupted.states,
        clean.states
    );
}
