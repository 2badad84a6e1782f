//! Differential guarantees for the exploration engine: it must report
//! **identically** to a naive reference explorer that shares none of its
//! code (see `support`), and a sweep's `TaskCheckReport` must be
//! byte-identical (`{:?}`) across every job count and strategy. These are
//! the invariants that make the arena, the transition memo and the stores
//! pure implementation choices — same states, same order, same verdicts.

mod support;

use std::collections::HashMap;
use std::sync::Arc;

use fa_core::{ConsensusProcess, RenamingProcess, SnapRegister, SnapshotProcess, View, ViewValue};
use fa_memory::{Action, ProcId, Wiring};
use fa_modelcheck::atomicity::{explore_combo, Reading};
use fa_modelcheck::checks::{
    check_consensus_safety_with, check_snapshot_task_coarse_with, check_snapshot_task_with,
    CheckConfig,
};
use fa_modelcheck::wirings::combinations_mod_relabeling;
use fa_modelcheck::{
    ArenaTables, ExploreReport, Explorer, McState, StateView, StrategyKind, TieredVisited,
    VisitedStore,
};
use proptest::prelude::*;
use support::{Bounds, Reference};

/// Asserts an engine report is the reference's verdict: same state count,
/// terminal count, completeness, and (when violating) the same
/// counterexample state, schedule, and message.
fn assert_matches_reference<P>(engine: &ExploreReport<P>, reference: &Reference<P>)
where
    P: fa_memory::Process + Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Value: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Output: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    assert_eq!(engine.states, reference.states, "state counts diverge");
    assert_eq!(
        engine.terminal_states, reference.terminal_states,
        "terminal counts diverge"
    );
    assert_eq!(engine.complete, reference.complete, "completeness diverges");
    match (&engine.violation, &reference.violation) {
        (None, None) => {}
        (Some(v), Some((message, state, schedule))) => {
            assert_eq!(&v.state, state, "counterexample states diverge");
            assert_eq!(&v.schedule, schedule, "counterexample schedules diverge");
            assert_eq!(&v.message, message, "violation messages diverge");
        }
        (e, r) => panic!("violation presence diverges: engine={e:?} reference={r:?}"),
    }
}

/// Explores one system with the reference and with the engine and asserts
/// both agree. Returns the engine report.
fn check_against_reference<P, I>(
    procs: Vec<P>,
    wirings: Vec<Wiring>,
    bounds: Bounds,
    invariant: I,
) -> ExploreReport<P>
where
    P: fa_memory::Process + Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Value: Clone + Eq + std::hash::Hash + std::fmt::Debug + Default,
    P::Output: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    I: Fn(&McState<P>) -> Result<(), String>,
{
    let m = wirings[0].len();
    let initial = McState::initial(procs.clone(), m, Default::default());
    let reference = support::explore(initial, &wirings, bounds, &invariant);
    let mut explorer =
        Explorer::new(procs, m, Default::default(), wirings).with_max_states(bounds.max_states);
    if bounds.coarse {
        explorer = explorer.with_coarse_scans();
    }
    if let Some(depth) = bounds.max_depth {
        explorer = explorer.with_max_depth(depth);
    }
    let report = explorer.run(|s: &StateView<'_, P>| invariant(&s.to_state()));
    assert_matches_reference(&report, &reference);
    report
}

fn snapshot_procs(inputs: &[u32]) -> Vec<SnapshotProcess<u32>> {
    inputs
        .iter()
        .map(|&x| SnapshotProcess::new(x, inputs.len()))
        .collect()
}

/// Two processors, the second wired through the register swap.
fn n2_wirings() -> Vec<Wiring> {
    vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()]
}

/// Three processors with three distinct wirings.
fn n3_wirings() -> Vec<Wiring> {
    vec![
        Wiring::identity(3),
        Wiring::cyclic_shift(3, 1),
        Wiring::from_perm(vec![1, 0, 2]).unwrap(),
    ]
}

fn renaming_procs(inputs: &[u32]) -> Vec<RenamingProcess<u32>> {
    inputs
        .iter()
        .map(|&x| RenamingProcess::new(x, inputs.len()))
        .collect()
}

fn consensus_procs(inputs: &[u32]) -> Vec<ConsensusProcess<u32>> {
    inputs
        .iter()
        .map(|&x| ConsensusProcess::new(x, inputs.len()))
        .collect()
}

/// A deliberately failing invariant for the snapshot-register systems:
/// trips on the first write a process makes after climbing to level 1.
fn no_level_one_write<P, V>(s: &McState<P>) -> Result<(), String>
where
    P: fa_memory::Process<Value = SnapRegister<V>> + Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Output: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    V: ViewValue + std::hash::Hash + std::fmt::Debug,
{
    match s.memory.iter().position(|r| r.level >= 1) {
        Some(g) => Err(format!("register {g} written at level 1")),
        None => Ok(()),
    }
}

/// The safety property shared by renaming and consensus, as a predicate on
/// `(input_i, output_i, input_j, output_j)` over every pair of decided
/// processors.
fn pairwise<P>(
    inputs: &'static [u32],
    clash: impl Fn(u32, &P::Output, u32, &P::Output) -> bool,
) -> impl Fn(&McState<P>) -> Result<(), String>
where
    P: fa_memory::Process + Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Value: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    P::Output: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    move |s| {
        let outs = s.first_outputs();
        for (i, a) in outs.iter().enumerate() {
            for (j, b) in outs.iter().enumerate().skip(i + 1) {
                if let (Some(a), Some(b)) = (a, b) {
                    if clash(inputs[i], a, inputs[j], b) {
                        return Err(format!("p{i} output {a:?}, p{j} output {b:?}"));
                    }
                }
            }
        }
        Ok(())
    }
}

fn bounds(coarse: bool, max_states: usize) -> Bounds {
    Bounds {
        coarse,
        max_states,
        max_depth: None,
    }
}

#[test]
fn arena_matches_reference_on_the_snapshot_system() {
    for coarse in [false, true] {
        let report = check_against_reference(
            snapshot_procs(&[1, 2]),
            n2_wirings(),
            bounds(coarse, 1_000_000),
            |_| Ok(()),
        );
        assert!(report.complete, "n=2 snapshot space is exhaustible");
        assert!(report.states > 100, "nontrivial space: {}", report.states);
    }
    // n = 3 at both granularities, capped: the cap cuts the same prefix.
    for (coarse, cap) in [(false, 6_000), (true, 6_000)] {
        let report = check_against_reference(
            snapshot_procs(&[1, 2, 3]),
            n3_wirings(),
            bounds(coarse, cap),
            |_| Ok(()),
        );
        assert_eq!(report.states, cap, "the n=3 space outgrows the cap");
        assert!(!report.complete);
    }
}

#[test]
fn arena_matches_reference_on_a_violating_invariant() {
    // A deliberately failing invariant: the first counterexample (state,
    // BFS schedule, message) must be the same object on every path.
    let report = check_against_reference(
        snapshot_procs(&[1, 2]),
        n2_wirings(),
        bounds(false, 1_000_000),
        |s| {
            let outs = s.first_outputs().iter().flatten().count();
            if outs > 0 {
                Err(format!("saw {outs} outputs"))
            } else {
                Ok(())
            }
        },
    );
    assert!(report.violation.is_some(), "the invariant must trip");
    // n = 3 at both granularities: outputs lie beyond the cap, but some
    // process climbs to level 1 within it (thousands of states deep when
    // stepping per read).
    for coarse in [false, true] {
        let report = check_against_reference(
            snapshot_procs(&[1, 2, 3]),
            n3_wirings(),
            bounds(coarse, 20_000),
            |s| match s.memory.iter().position(|r| r.level >= 1) {
                Some(g) => Err(format!("register {g} written at level 1")),
                None => Ok(()),
            },
        );
        assert!(report.violation.is_some(), "coarse = {coarse}: must trip");
    }
}

#[test]
fn arena_matches_reference_on_the_renaming_system() {
    // Processors of different groups never take the same name.
    const N2: &[u32] = &[1, 2];
    const N3: &[u32] = &[1, 2, 3];
    let distinct_names =
        |inputs| pairwise::<RenamingProcess<u32>>(inputs, |x, a, y, b| x != y && a == b);
    for coarse in [false, true] {
        let report = check_against_reference(
            renaming_procs(N2),
            n2_wirings(),
            bounds(coarse, 1_000_000),
            distinct_names(N2),
        );
        assert!(report.complete, "n=2 renaming space is exhaustible");
        assert!(report.violation.is_none());
        let report = check_against_reference(
            renaming_procs(N3),
            n3_wirings(),
            bounds(coarse, 4_000),
            distinct_names(N3),
        );
        assert_eq!(report.states, 4_000, "the n=3 space outgrows the cap");
        let report = check_against_reference(
            renaming_procs(N3),
            n3_wirings(),
            bounds(coarse, 20_000),
            no_level_one_write,
        );
        assert!(report.violation.is_some(), "coarse = {coarse}: must trip");
    }
}

#[test]
fn arena_matches_reference_on_the_consensus_system() {
    // Unbounded timestamp space: every path stops at the same caps with the
    // same visited prefix and the same agreement verdict. The level-1 write
    // lies past depth 12 when stepping per read, so that run drops the
    // depth cap.
    const N2: &[u32] = &[7, 9];
    const N3: &[u32] = &[7, 9, 7];
    let agreement = |inputs| pairwise::<ConsensusProcess<u32>>(inputs, |_, a, _, b| a != b);
    for coarse in [false, true] {
        let bounds = Bounds {
            coarse,
            max_states: 20_000,
            max_depth: Some(40),
        };
        let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
        let report = check_against_reference(consensus_procs(N2), wirings, bounds, agreement(N2));
        assert!(!report.complete);
        assert!(report.violation.is_none());
        let bounds = Bounds {
            coarse,
            max_states: 4_000,
            max_depth: Some(12),
        };
        let report =
            check_against_reference(consensus_procs(N3), n3_wirings(), bounds, agreement(N3));
        assert!(!report.complete);
        assert!(report.violation.is_none());
        let report = check_against_reference(
            consensus_procs(N3),
            n3_wirings(),
            Bounds {
                max_states: 20_000,
                max_depth: None,
                ..bounds
            },
            no_level_one_write,
        );
        assert!(report.violation.is_some(), "coarse = {coarse}: must trip");
    }
}

/// The mask over input positions of the inputs `view` holds.
fn subset_mask(view: &View<u32>, inputs: &[u32]) -> u32 {
    (0..inputs.len())
        .filter(|&i| view.contains(&inputs[i]))
        .map(|i| 1 << i)
        .sum()
}

/// The E5 seen set recomputed over `McState`s: bit `1 << k` for each
/// subset `k` the reading's tracked set took. The announced set is the
/// union of every subset seen, grown by the stepping process's pending
/// write. The momentary one is the child's register union, and only
/// subsets that contain some process's view are kept.
fn reference_seen(
    reading: Reading,
    inputs: &'static [u32],
) -> impl Fn(u32, &McState<SnapshotProcess<u32>>, ProcId, &McState<SnapshotProcess<u32>>) -> u32 {
    move |seen, parent, p, child| match reading {
        Reading::Momentary => {
            let union = child
                .memory
                .iter()
                .map(|r| subset_mask(&r.view, inputs))
                .fold(0, |a, b| a | b);
            let views: Vec<u32> = child
                .procs
                .iter()
                .map(|q| subset_mask(q.view(), inputs))
                .collect();
            let within = (0..32u32)
                .filter(|&k| views.iter().any(|&v| v & !k == 0))
                .fold(0, |a, k| a | 1 << k);
            (seen | 1 << union) & within
        }
        Reading::Announcement => {
            let announced = (0..32).filter(|k| seen & 1 << k != 0).fold(0, |a, k| a | k);
            let written = match parent.pending[p.0].as_deref() {
                Some(Action::Write { value, .. }) => subset_mask(&value.view, inputs),
                _ => 0,
            };
            seen | 1 << (announced | written)
        }
    }
}

/// The E5 invariant over `McState`s: every output is a subset seen.
fn reference_unseen(
    s: &McState<SnapshotProcess<u32>>,
    seen: u32,
    inputs: &[u32],
) -> Result<(), String> {
    for (i, out) in s.first_outputs().iter().enumerate() {
        if let Some(w) = out {
            if seen & 1 << subset_mask(w, inputs) == 0 {
                return Err(format!(
                    "p{i} outputs {w}, a set the memory never contained"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn history_column_matches_reference_on_the_atomicity_check() {
    // The engine's history column against the reference's search over
    // (state, history) pairs: every n=2 combo, both readings, both
    // granularities (announcement violates, momentary completes), and the
    // first n=3 label combo under a cap.
    const N2: &[u32] = &[1, 2];
    const N3: &[u32] = &[1, 2, 3];
    let mut violations = 0;
    for reading in [Reading::Announcement, Reading::Momentary] {
        for coarse in [false, true] {
            let n3_combo0 = combinations_mod_relabeling(3, 3).next().unwrap();
            let systems = combinations_mod_relabeling(2, 2)
                .map(|combo| (N2, combo, 1_000_000))
                .chain([(N3, n3_combo0, 20_000)]);
            for (inputs, combo, cap) in systems {
                let wirings: Vec<Wiring> = combo.iter().map(|w| (**w).clone()).collect();
                let initial =
                    McState::initial(snapshot_procs(inputs), inputs.len(), Default::default());
                let reference = support::explore_with_history(
                    initial,
                    &wirings,
                    bounds(coarse, cap),
                    (1, reference_seen(reading, inputs)),
                    |s, seen| reference_unseen(s, seen, inputs),
                );
                let engine = explore_combo(inputs, reading, coarse, &wirings, cap);
                assert_matches_reference(&engine, &reference);
                if inputs.len() == 2 && reading == Reading::Momentary {
                    assert!(engine.complete, "{wirings:?} coarse={coarse}");
                }
                violations += usize::from(engine.violation.is_some());
            }
        }
    }
    assert!(violations > 0, "the announcement reading must violate");
}

#[test]
fn quotient_estimate_is_the_reference_count() {
    // Equal inputs and equal wirings: a nontrivial symmetry group. On a
    // complete run the quotiented engine's Σ orbit sizes must be exactly
    // the number of states the reference visits in the full space.
    for coarse in [false, true] {
        let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
        let initial = McState::initial(snapshot_procs(&[5, 5]), 2, Default::default());
        let reference = support::explore(initial, &wirings, bounds(coarse, usize::MAX), |_| Ok(()));
        assert!(reference.complete);
        let mut explorer =
            Explorer::new(snapshot_procs(&[5, 5]), 2, Default::default(), wirings).with_quotient();
        if coarse {
            explorer = explorer.with_coarse_scans();
        }
        let report = explorer.run(|_| Ok(()));
        assert!(report.complete);
        assert!(
            report.states < reference.states,
            "the quotient must shrink the space"
        );
        assert_eq!(
            report.full_states_estimate,
            Some(reference.states as u64),
            "coarse = {coarse}"
        );
    }
}

#[test]
fn sweep_reports_are_byte_identical_across_jobs_and_strategies() {
    // The E13-style guarantee: the full `{:?}` rendering of a
    // TaskCheckReport is one fixed byte string no matter how many combo
    // threads the sweep ran on, or whether each combo's BFS had a crew.
    let configs = [
        CheckConfig::default().with_jobs(1),
        CheckConfig::default().with_jobs(2),
        CheckConfig::default().with_jobs(4),
        CheckConfig::default()
            .with_jobs(2)
            .with_strategy(StrategyKind::IntraCombo { workers: 2 }),
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
fn sweep_per_combo_counts_match_fresh_explorations_and_the_reference() {
    // Each pool worker carries its tables from combo to combo; every combo
    // must still report what a fresh exploration and the reference do.
    // (The violating counterpart, with a custom invariant, is the
    // `violating_sweep_matches_fresh_per_combo_explorations` unit test.)
    const CAP: usize = 1_500;
    let inputs = [1, 2, 3];
    let table = fa_modelcheck::wirings::ComboTable::new(3, 3);
    let expected: Vec<usize> = (0..table.len())
        .map(|i| {
            let combo = table.combo(i);
            let wirings: Vec<Wiring> = combo.iter().map(|w| (**w).clone()).collect();
            let initial = McState::initial(snapshot_procs(&inputs), 3, Default::default());
            let reference = support::explore(initial, &wirings, bounds(true, CAP), |_| Ok(()));
            let fresh = Explorer::new(snapshot_procs(&inputs), 3, Default::default(), combo)
                .with_coarse_scans()
                .with_max_states(CAP)
                .run(|_| Ok(()));
            assert_matches_reference(&fresh, &reference);
            fresh.states
        })
        .collect();
    for jobs in [1, 2] {
        let outcome =
            check_snapshot_task_coarse_with(&inputs, CAP, &CheckConfig::default().with_jobs(jobs))
                .unwrap();
        assert_eq!(outcome.report.violation, None, "jobs={jobs}");
        assert_eq!(outcome.telemetry.per_combo_states, expected, "jobs={jobs}");
    }
}

#[test]
fn stop_is_polled_on_the_same_cadence_for_every_worker_count() {
    use std::cell::Cell;
    let mk = || Explorer::new(snapshot_procs(&[1, 2]), 2, Default::default(), n2_wirings());
    // Once on entry, then every 1,024 expansions counted in commit order.
    // Each combo runs on one thread, so this holds for every `--jobs`.
    let polls = Cell::new(0usize);
    let counting = || {
        polls.set(polls.get() + 1);
        false
    };
    let full = mk().run_until(|_| Ok(()), counting);
    let full_polls = polls.replace(0);
    assert!(
        full_polls > 2,
        "the run must cross the poll interval: {full_polls} polls"
    );
    let again = mk().run_until(|_| Ok(()), counting);
    assert_eq!(format!("{again:?}"), format!("{full:?}"));
    assert_eq!(polls.replace(0), full_polls);

    // A stop raised at the second poll aborts at the same expansion, with
    // the same partial counts, on every run.
    let stop_at_second = || {
        polls.set(polls.get() + 1);
        polls.get() >= 2
    };
    let stopped = mk().run_until(|_| Ok(()), stop_at_second);
    polls.set(0);
    assert!(!stopped.complete);
    assert!(stopped.states < full.states);
    let again = mk().run_until(|_| Ok(()), stop_at_second);
    assert_eq!(format!("{again:?}"), format!("{stopped:?}"));
}

/// Replays `ops` (`0` = look up, `1` = look up and insert if absent)
/// against a `TieredVisited` under `budget` and a map reference that
/// shares no store code: both must accept and reject the same rows, under
/// the same ids, and read back the same rows.
fn store_matches_map_reference(
    ops: &[(u8, Vec<u32>)],
    budget: Option<usize>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut ids: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut store = TieredVisited::new(6, budget);
    for (op, row) in ops {
        let expect = ids.get(row).copied();
        let got = store.lookup(row).unwrap();
        prop_assert_eq!(got, expect, "lookup diverges on {:?}", row);
        if *op == 1 && expect.is_none() {
            let id = store.insert(row).unwrap();
            prop_assert_eq!(id, rows.len(), "insert ids diverge on {:?}", row);
            ids.insert(row.clone(), id);
            rows.push(row.clone());
        }
    }
    prop_assert_eq!(store.len(), rows.len());
    let mut out = vec![0u32; 6];
    for (id, row) in rows.iter().enumerate() {
        store.read_row(id, &mut out).unwrap();
        prop_assert_eq!(&out, row, "row {} diverges", id);
    }
    if budget.is_none() {
        prop_assert_eq!(store.spilled_shards(), 0);
    }
    Ok(())
}

proptest! {
    /// The visited store must accept/reject exactly the rows a map does,
    /// whatever order rows arrive in and wherever lookups interleave —
    /// all resident, or with every full shard spilled at budget 0: where
    /// rows live is invisible.
    #[test]
    fn visited_store_matches_a_map_reference_under_random_interleavings(
        ops in proptest::collection::vec((0u8..2, proptest::collection::vec(0u32..4, 6)), 1..120),
    ) {
        store_matches_map_reference(&ops, None)?;
        store_matches_map_reference(&ops, Some(0))?;
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
