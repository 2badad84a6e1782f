//! Differential guarantees for the flat-arena hot path: the arena BFS must
//! report **identically** to the legacy Arc-based BFS it replaced, and a
//! sweep's `TaskCheckReport` must be byte-identical (`{:?}`) across every
//! strategy and worker count. These are the invariants that make the arena a
//! pure representation change — same states, same order, same verdicts.

use std::sync::Arc;

use fa_core::{ConsensusProcess, SnapshotProcess};
use fa_memory::{ProcId, Wiring};
use fa_modelcheck::checks::{
    check_consensus_safety_with, check_snapshot_task_coarse_with, check_snapshot_task_with,
    CheckConfig,
};
use fa_modelcheck::{
    ArenaTables, ExploreReport, Explorer, InMemoryVisited, McState, ShardedVisited, StrategyKind,
    VisitedStore,
};
use proptest::prelude::*;

/// Asserts two exploration reports are the same verdict: same state count,
/// terminal count, completeness, and (when violating) the same
/// counterexample state, schedule, and message.
fn assert_reports_identical<P>(arena: &ExploreReport<P>, arc: &ExploreReport<P>)
where
    P: fa_memory::Process + Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Value: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Output: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    assert_eq!(arena.states, arc.states, "state counts diverge");
    assert_eq!(
        arena.terminal_states, arc.terminal_states,
        "terminal counts diverge"
    );
    assert_eq!(arena.complete, arc.complete, "completeness diverges");
    match (&arena.violation, &arc.violation) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.state, b.state, "counterexample states diverge");
            assert_eq!(a.schedule, b.schedule, "counterexample schedules diverge");
            assert_eq!(a.message, b.message, "violation messages diverge");
        }
        (a, b) => panic!("violation presence diverges: arena={a:?} arc={b:?}"),
    }
}

fn snapshot_explorer(coarse: bool) -> Explorer<SnapshotProcess<u32>> {
    let n = 2;
    let procs: Vec<SnapshotProcess<u32>> = [1u32, 2]
        .iter()
        .map(|&x| SnapshotProcess::new(x, n))
        .collect();
    let wirings = vec![
        Arc::new(Wiring::identity(n)),
        Arc::new(Wiring::from_perm(vec![1, 0]).unwrap()),
    ];
    let e = Explorer::new(procs, n, Default::default(), wirings);
    if coarse {
        e.with_coarse_scans()
    } else {
        e
    }
}

#[test]
fn arena_matches_arc_on_the_snapshot_system() {
    for coarse in [false, true] {
        let explorer = snapshot_explorer(coarse);
        let arena = explorer.run(|_| Ok(()));
        let arc = explorer.run_arc(|_| Ok(()));
        assert_reports_identical(&arena, &arc);
        assert!(arena.complete, "n=2 snapshot space is exhaustible");
        assert!(arena.states > 100, "nontrivial space: {}", arena.states);
    }
}

#[test]
fn arena_matches_arc_on_a_violating_invariant() {
    // A deliberately failing invariant: the first counterexample (state,
    // BFS schedule, message) must be the same object on both paths.
    let explorer = snapshot_explorer(false);
    let invariant_msg = |outputs: usize| format!("saw {outputs} outputs");
    let arena = explorer.run(|s| {
        let outs = s.first_outputs().iter().flatten().count();
        if outs > 0 {
            Err(invariant_msg(outs))
        } else {
            Ok(())
        }
    });
    let arc = explorer.run_arc(|s: &McState<SnapshotProcess<u32>>| {
        let outs = s.first_outputs().iter().flatten().count();
        if outs > 0 {
            Err(invariant_msg(outs))
        } else {
            Ok(())
        }
    });
    assert_reports_identical(&arena, &arc);
    assert!(arena.violation.is_some(), "the invariant must trip");
}

#[test]
fn arena_matches_arc_on_the_consensus_system() {
    // Unbounded timestamp space: both paths stop at the same caps with the
    // same visited prefix.
    let n = 2;
    let procs: Vec<ConsensusProcess<u32>> = [7u32, 9]
        .iter()
        .map(|&x| ConsensusProcess::new(x, n))
        .collect();
    let wirings = vec![Wiring::identity(n), Wiring::identity(n)];
    let explorer = Explorer::new(procs, n, Default::default(), wirings)
        .with_max_states(20_000)
        .with_max_depth(40);
    let arena = explorer.run(|_| Ok(()));
    let arc = explorer.run_arc(|_| Ok(()));
    assert_reports_identical(&arena, &arc);
}

#[test]
fn sweep_reports_are_byte_identical_across_jobs_and_strategies() {
    // The E13-style guarantee, extended to the strategy factory: the full
    // `{:?}` rendering of a TaskCheckReport is one fixed byte string no
    // matter how the sweep was executed.
    let configs = [
        CheckConfig::default()
            .with_jobs(1)
            .with_strategy(StrategyKind::Auto),
        CheckConfig::default()
            .with_jobs(4)
            .with_strategy(StrategyKind::Auto),
        CheckConfig::default()
            .with_jobs(4)
            .with_strategy(StrategyKind::Serial),
        CheckConfig::default()
            .with_jobs(1)
            .with_strategy(StrategyKind::WorkerPool),
        CheckConfig::default()
            .with_jobs(4)
            .with_strategy(StrategyKind::WorkerPool),
    ];

    let fine_ref = format!(
        "{:?}",
        check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::serial())
            .unwrap()
            .report
    );
    let coarse_ref = format!(
        "{:?}",
        check_snapshot_task_coarse_with(&[1, 2, 3], 4_000, &CheckConfig::serial())
            .unwrap()
            .report
    );
    let consensus_ref = format!(
        "{:?}",
        check_consensus_safety_with(&[3, 5], 5_000, 24, &CheckConfig::serial())
            .unwrap()
            .report
    );
    for config in &configs {
        let fine = check_snapshot_task_with(&[1, 2], 500_000, config).unwrap();
        assert_eq!(format!("{:?}", fine.report), fine_ref, "{config:?}");
        let coarse = check_snapshot_task_coarse_with(&[1, 2, 3], 4_000, config).unwrap();
        assert_eq!(format!("{:?}", coarse.report), coarse_ref, "{config:?}");
        let consensus = check_consensus_safety_with(&[3, 5], 5_000, 24, config).unwrap();
        assert_eq!(
            format!("{:?}", consensus.report),
            consensus_ref,
            "{config:?}"
        );
    }
}

#[test]
fn intra_sweep_reports_are_byte_identical_across_workers() {
    // The tentpole guarantee: a sweep run under `--strategy intra` renders
    // the exact same `TaskCheckReport` bytes as the serial strategy for
    // every intra worker count and `--jobs` split, composed with
    // `--quotient` and a 64KiB `--visited-budget`.
    let base = CheckConfig::serial()
        .with_quotient()
        .with_visited_budget(64 * 1024);
    let fine_ref = format!(
        "{:?}",
        check_snapshot_task_with(&[1, 2], 500_000, &base)
            .unwrap()
            .report
    );
    let coarse_ref = format!(
        "{:?}",
        check_snapshot_task_coarse_with(&[1, 2, 3], 4_000, &base)
            .unwrap()
            .report
    );
    for workers in [1usize, 2, 4, 8] {
        for jobs in [1usize, 4] {
            let config = base
                .clone()
                .with_jobs(jobs)
                .with_strategy(StrategyKind::IntraCombo { workers });
            let fine = check_snapshot_task_with(&[1, 2], 500_000, &config).unwrap();
            assert_eq!(
                format!("{:?}", fine.report),
                fine_ref,
                "intra workers={workers} jobs={jobs}"
            );
            let coarse = check_snapshot_task_coarse_with(&[1, 2, 3], 4_000, &config).unwrap();
            assert_eq!(
                format!("{:?}", coarse.report),
                coarse_ref,
                "intra workers={workers} jobs={jobs}"
            );
        }
    }
}

proptest! {
    /// `ShardedVisited` must accept/reject exactly the set
    /// `InMemoryVisited` does, whatever order rows arrive in and wherever
    /// lookups interleave — sharding the hash index is invisible.
    #[test]
    fn sharded_visited_matches_inmemory_under_random_interleavings(
        ops in proptest::collection::vec((0u8..2, proptest::collection::vec(0u32..4, 6)), 1..120),
    ) {
        let mut reference = InMemoryVisited::new(6);
        let mut sharded = ShardedVisited::new(6, None);
        for (op, row) in &ops {
            if *op == 0 {
                let expect = reference.lookup(row).unwrap();
                let got = sharded.lookup(row).unwrap();
                prop_assert_eq!(got, expect, "lookup diverges on {:?}", row);
            } else {
                let expect = reference.lookup(row).unwrap();
                let got = sharded.lookup(row).unwrap();
                prop_assert_eq!(got, expect);
                if expect.is_none() {
                    let a = reference.insert(row).unwrap();
                    let b = sharded.insert(row).unwrap();
                    prop_assert_eq!(a, b, "insert ids diverge on {:?}", row);
                }
            }
        }
        prop_assert_eq!(sharded.len(), reference.len());
        for id in 0..reference.len() {
            let mut a = vec![0u32; 6];
            let mut b = vec![0u32; 6];
            reference.read_row(id, &mut a).unwrap();
            sharded.read_row(id, &mut b).unwrap();
            prop_assert_eq!(a, b, "row {} diverges", id);
        }
    }
}

/// Drives the snapshot system down a random schedule, encoding every state
/// reached; each row must decode back to exactly the state it encoded, and
/// the arena step must produce the same row. The schedule is then replayed
/// over the same, now warm, tables: every non-halting step must be answered
/// by the transition memo, with identical rows and no new table entries.
fn roundtrip_along_schedule(inputs: (u32, u32), schedule: Vec<u8>) {
    let n = 2;
    let procs: Vec<SnapshotProcess<u32>> = [inputs.0, inputs.1]
        .iter()
        .map(|&x| SnapshotProcess::new(x, n))
        .collect();
    let wirings = vec![
        Arc::new(Wiring::identity(n)),
        Arc::new(Wiring::from_perm(vec![1, 0]).unwrap()),
    ];
    let mut state = McState::initial(procs, n, Default::default());
    let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(n, n, u32::MAX);
    type RowAndState = (Box<[u32]>, McState<SnapshotProcess<u32>>);
    let mut rows: Vec<RowAndState> = Vec::new();
    let mut picks: Vec<ProcId> = Vec::new();
    let row = tables.encode(&state).unwrap();
    rows.push((row, state.clone()));
    for pick in schedule {
        let live = state.live();
        if live.is_empty() {
            break;
        }
        let p = live[pick as usize % live.len()];
        let mut stepped = rows.last().unwrap().0.clone();
        tables.step_row(&mut stepped, p, &wirings).unwrap();
        state = state.step(p, &wirings).unwrap();
        let row = tables.encode(&state).unwrap();
        assert_eq!(stepped, row, "arena step diverges from McState::step");
        rows.push((row, state.clone()));
        picks.push(p);
    }
    // Decode *after* all interning: later interns must never disturb the
    // meaning of earlier rows (ids are append-only).
    for (row, expect) in &rows {
        assert_eq!(&tables.decode(row), expect);
    }

    let len_before = tables.len_total();
    let (hits_before, misses_before) = tables.memo_tallies();
    let mut row = rows[0].0.clone();
    let mut memo_steps = 0u64;
    for (p, (expect, _)) in picks.iter().zip(&rows[1..]) {
        tables.step_row(&mut row, *p, &wirings).unwrap();
        assert_eq!(&row, expect, "warm replay diverges");
        // A halting step writes the sentinel without consulting the memo.
        if row[n + n + p.0] != u32::MAX {
            memo_steps += 1;
        }
    }
    assert_eq!(
        tables.len_total(),
        len_before,
        "warm replay interned a value"
    );
    assert_eq!(
        tables.memo_tallies(),
        (hits_before + memo_steps, misses_before),
        "every warm step hits"
    );
}

proptest! {
    #[test]
    fn arena_rows_round_trip_through_the_tables(
        a in 0u32..5,
        b in 0u32..5,
        schedule in proptest::collection::vec(0u8..2, 0..25),
    ) {
        roundtrip_along_schedule((a, b), schedule);
    }
}

#[test]
fn encoding_is_injective_along_an_execution() {
    // Same schedule twice: identical states encode to identical rows
    // (id assignment is deterministic in first-touch order).
    let run = || {
        let procs: Vec<SnapshotProcess<u32>> = [4u32, 6]
            .iter()
            .map(|&x| SnapshotProcess::new(x, 2))
            .collect();
        let wirings = vec![Arc::new(Wiring::identity(2)), Arc::new(Wiring::identity(2))];
        let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(2, 2, u32::MAX);
        let mut state = McState::initial(procs, 2, Default::default());
        let mut rows = vec![tables.encode(&state).unwrap()];
        for _ in 0..12 {
            let live = state.live();
            let Some(&p) = live.first() else { break };
            state = state.step(p, &wirings).unwrap();
            rows.push(tables.encode(&state).unwrap());
        }
        rows
    };
    assert_eq!(run(), run());
}

#[test]
fn solo_schedule_reaches_halt_with_sentinel_rows() {
    // Run p0 solo to halt; its pending slot in the final row must be the
    // halted sentinel, observable through decode as `pending: None`.
    let procs: Vec<SnapshotProcess<u32>> = [1u32, 2]
        .iter()
        .map(|&x| SnapshotProcess::new(x, 2))
        .collect();
    let wirings = vec![Arc::new(Wiring::identity(2)), Arc::new(Wiring::identity(2))];
    let mut state = McState::initial(procs, 2, Default::default());
    let mut tables = ArenaTables::<SnapshotProcess<u32>>::new(2, 2, u32::MAX);
    for _ in 0..200 {
        if !state.live().contains(&ProcId(0)) {
            break;
        }
        state = state.step(ProcId(0), &wirings).unwrap();
    }
    assert!(
        !state.live().contains(&ProcId(0)),
        "p0 halts solo (wait-free)"
    );
    let row = tables.encode(&state).unwrap();
    let decoded = tables.decode(&row);
    assert_eq!(decoded, state);
    assert!(
        decoded.pending[0].is_none(),
        "halted pending decodes to None"
    );
}
