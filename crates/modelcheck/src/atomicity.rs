//! The non-atomicity check (E5): an execution of the snapshot algorithm in
//! which some processor outputs a set of inputs that the memory *never*
//! contained.
//!
//! Section 8: "the TLC model-checker confirms that, when there are 3
//! processors, the algorithm of Figure 3, which solves the snapshot task,
//! does not provide atomic memory snapshots: in some executions, a processor
//! returns a set of inputs I such that at no point in time did the memory
//! contain exactly the set of inputs I."
//!
//! ## Two readings of "the memory contains exactly I"
//!
//! 1. **Momentary**: the union of the views currently stored in the
//!    registers equals `I`. Under the paper's own TLC spec this reading
//!    cannot produce a witness: the PlusCal labels make the whole scan
//!    atomic (Figure 3's caption), and a processor terminates only after a
//!    scan that reads its view `I` in *every* register — at that atomic
//!    instant the union is exactly `I`.
//! 2. **Announcement**: the set of inputs that have *ever been written to*
//!    the memory equals `I` at some point. This is the linearization
//!    reading of an atomic memory snapshot for one-shot inputs: a snapshot
//!    of the memory at time `t` reflects exactly the inputs that reached
//!    the memory by `t`. A witness output is one that matches *no* prefix
//!    of the announcement chain — e.g. a processor returns `{1,2}` although
//!    input 3 entered the memory before input 2 (and was erased by a
//!    covering write before anyone read it).
//!
//! ## One exact sweep per reading
//!
//! [`check_atomicity`] sweeps every wiring combination through the crate's
//! one engine with a *history column* (DESIGN §12): each row carries a
//! bitmask over the subsets of the (distinct) inputs, the *seen set* of
//! every value the reading's tracked set took on the path to that state.
//! The invariant flags an output `W` whose subset is not in the seen set.
//! Both verdicts are exact, so a finite schedule is a complete witness:
//!
//! * announcement — any output is a subset of the inputs announced by
//!   then, and the announced set only grows, so once it has passed over
//!   `W` it strictly contains `W` forever after;
//! * momentary — crashing every other processor at the violating state
//!   freezes the memory, so the execution ending there never shows `W`.
//!
//! The momentary seen set keeps only subsets that contain some process's
//! view, the only ones a present or future output can be; without that, one
//! n=3 label combo passes 60 M states, with it the whole sweep completes.
//! The seen set has `2^n` bits in one `u32`, so `n ≤ 5`. The lowest
//! violating combo is re-run alone to turn the engine's counterexample into
//! a [`NonAtomicWitness`], which [`verify_witness`] replays over
//! [`McState`] independently of the engine; [`construct_witness`] builds
//! the canonical announcement witness without any search.

use std::sync::Arc;

use fa_core::{SnapRegister, SnapshotProcess, View};
use fa_memory::{Action, ProcId, Wiring};

use crate::arena::StateView;
use crate::checks::{harness_scope, run_sweep, CheckConfig, TaskCheckReport};
use crate::explorer::{step_block, ExploreReport, Explorer, HistoryFn, McState, Violation};
use crate::wirings::ComboTable;

type Snap = SnapshotProcess<u32>;

/// Which "the memory contains exactly I" reading to check (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reading {
    /// The union of the registers' current views.
    Momentary,
    /// The set of inputs ever written to memory.
    Announcement,
}

/// A witness execution for non-atomicity.
#[derive(Clone, Debug)]
pub struct NonAtomicWitness {
    /// The wirings of the witness system.
    pub wirings: Vec<Wiring>,
    /// The schedule of the witness execution: single steps, or PlusCal
    /// label blocks (see [`step_block`]) when `coarse`.
    pub schedule: Vec<ProcId>,
    /// Whether `schedule` is at label granularity.
    pub coarse: bool,
    /// The processor whose output is non-atomic.
    pub proc: ProcId,
    /// The offending output: the reading's tracked set never equals it
    /// along the schedule (nor, by the module docs, afterwards).
    pub output: View<u32>,
    /// The distinct values the reading's tracked set took along the
    /// schedule, in order of first occurrence.
    pub memory_sets_seen: Vec<View<u32>>,
}

/// Checks the non-atomicity claim under `reading` for the snapshot
/// algorithm with the given inputs: every wiring combination (mod
/// relabeling), every interleaving — at label granularity when `coarse` —
/// at most `max_states_per_combo` states per combination. Returns the
/// sweep's report (its `violation` names the lowest violating combo and a
/// BFS-shortest schedule) and, when it found one, the structured witness.
///
/// # Errors
///
/// Only the sweep's crash-safety layer fails (see [`CheckConfig`]).
///
/// # Panics
///
/// Panics unless there are 2 to 5 distinct inputs.
pub fn check_atomicity(
    inputs: &[u32],
    reading: Reading,
    coarse: bool,
    max_states_per_combo: usize,
    config: &CheckConfig,
) -> Result<(TaskCheckReport, Option<NonAtomicWitness>), String> {
    check_inputs(inputs, 5);
    let n = inputs.len();
    let check = match (reading, coarse) {
        (Reading::Momentary, false) => "atomicity_momentary",
        (Reading::Momentary, true) => "atomicity_momentary_coarse",
        (Reading::Announcement, false) => "atomicity_announcement",
        (Reading::Announcement, true) => "atomicity_announcement_coarse",
    };
    let report = run_sweep(
        check,
        n,
        config,
        harness_scope(inputs, &[max_states_per_combo as u64]),
        |combo| combo_explorer(inputs, reading, coarse, combo, max_states_per_combo),
        unseen_output,
        "",
    )?
    .report;
    let witness = report.violation.as_ref().map(|_| {
        let combo = ComboTable::new(n, n).combo(report.combos - 1);
        let wirings: Vec<Wiring> = combo.iter().map(|w| (**w).clone()).collect();
        let violation = explore_combo(inputs, reading, coarse, &wirings, max_states_per_combo)
            .violation
            .expect("the lowest violating combo violates again when run alone");
        witness_from(inputs, reading, coarse, wirings, &violation)
    });
    Ok((report, witness))
}

/// One combination's exploration exactly as [`check_atomicity`] runs it.
///
/// # Panics
///
/// Panics unless there are 2 to 5 distinct inputs and one wiring each.
#[must_use]
pub fn explore_combo(
    inputs: &[u32],
    reading: Reading,
    coarse: bool,
    wirings: &[Wiring],
    max_states: usize,
) -> ExploreReport<Snap> {
    check_inputs(inputs, 5);
    let wirings = wirings.iter().cloned().map(Arc::new).collect();
    combo_explorer(inputs, reading, coarse, wirings, max_states).run(unseen_output)
}

/// Asserts 2 to `max` distinct inputs (5 for a sweep: `2^5` bits fill a `u32`).
fn check_inputs(inputs: &[u32], max: usize) {
    let mut d = inputs.to_vec();
    d.sort_unstable();
    d.dedup();
    assert!(
        (2..=max).contains(&d.len()) && d.len() == inputs.len(),
        "the check needs 2 to {max} distinct inputs"
    );
}

/// The explorer of one combination, with the reading's seen set as its
/// history column. The root's seen set holds the empty set: empty
/// registers, nothing announced.
fn combo_explorer(
    inputs: &[u32],
    reading: Reading,
    coarse: bool,
    wirings: Vec<Arc<Wiring>>,
    max_states: usize,
) -> Explorer<Snap> {
    let n = inputs.len();
    let procs = inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    let record: HistoryFn<Snap> = match reading {
        Reading::Momentary => record_momentary,
        Reading::Announcement => record_announced,
    };
    let explorer = Explorer::new(procs, n, SnapRegister::default(), wirings)
        .with_max_states(max_states)
        .with_history(1, record);
    if coarse {
        explorer.with_coarse_scans()
    } else {
        explorer
    }
}

/// Momentary reading: the child's seen set gains its register union and
/// keeps only subsets that contain some process's view, as every present
/// or future output does (views only grow; an output is a final view).
fn record_momentary(
    seen: u32,
    _: &StateView<'_, Snap>,
    _: ProcId,
    child: &StateView<'_, Snap>,
) -> u32 {
    let inputs = inputs_of(child);
    let within = (0..child.num_procs()).fold(0, |acc, i| {
        let view = subset(child.proc(i).view(), &inputs);
        acc | (0..32)
            .filter(|k| k & view == view)
            .fold(0, |a, k| a | 1 << k)
    });
    (seen | 1 << register_union(child, &inputs)) & within
}

/// Announcement reading: the child's seen set gains its announced set. A
/// write adds its view to the announced set and leaves it in the written
/// register, and registers only ever hold announced inputs, so the child's
/// announced set is the parent's joined with the register union. The
/// parent's seen set is a chain of announced sets, so its largest set is
/// its numerically largest subset: the highest bit.
fn record_announced(
    seen: u32,
    _: &StateView<'_, Snap>,
    _: ProcId,
    child: &StateView<'_, Snap>,
) -> u32 {
    let union = register_union(child, &inputs_of(child));
    seen | 1 << ((31 - seen.leading_zeros()) | union)
}

/// The subset of `inputs` that `state`'s registers hold.
fn register_union(state: &StateView<'_, Snap>, inputs: &View<u32>) -> u32 {
    (0..state.num_registers()).fold(0, |acc, i| acc | subset(&state.memory(i).view, inputs))
}

/// The inputs: the union of the processes' views, since each holds its own
/// input and only inputs.
fn inputs_of(state: &StateView<'_, Snap>) -> View<u32> {
    (0..state.num_procs()).fold(View::new(), |mut acc, i| {
        acc.union_with(state.proc(i).view());
        acc
    })
}

/// The subset of `inputs` that `view` holds, as a mask over their ranks;
/// its bit in a seen set is `1 << mask`.
fn subset(view: &View<u32>, inputs: &View<u32>) -> u32 {
    view.iter()
        .map(|v| 1 << (inputs.rank_of(&v).expect("views hold only inputs") - 1))
        .sum()
}

/// The invariant: every output is a set the seen set holds.
fn unseen_output(state: &StateView<'_, Snap>) -> Result<(), String> {
    let (seen, inputs) = (state.history(), inputs_of(state));
    for i in 0..state.num_procs() {
        if let Some(w) = state.outputs(i).first() {
            if seen & 1 << subset(w, &inputs) == 0 {
                return Err(format!(
                    "p{i} outputs {w}, a set the memory never contained"
                ));
            }
        }
    }
    Ok(())
}

/// The structured witness for an engine counterexample: the violating
/// schedule replayed over [`McState`].
fn witness_from(
    inputs: &[u32],
    reading: Reading,
    coarse: bool,
    wirings: Vec<Wiring>,
    violation: &Violation<Snap>,
) -> NonAtomicWitness {
    let (state, memory_sets_seen) = replay(inputs, reading, &wirings, coarse, &violation.schedule)
        .expect("counterexample schedules replay");
    let outputs = state.first_outputs();
    // The engine flags the lowest process whose output its seen set lacks;
    // should the history disagree, `verify_witness` rejects the first output.
    let proc = (0..outputs.len())
        .find(|&i| {
            outputs[i]
                .as_ref()
                .is_some_and(|w| !memory_sets_seen.contains(w))
        })
        .or_else(|| outputs.iter().position(Option::is_some))
        .expect("only an output violates");
    NonAtomicWitness {
        wirings,
        schedule: violation.schedule.clone(),
        coarse,
        proc: ProcId(proc),
        output: outputs[proc].clone().expect("found above"),
        memory_sets_seen,
    }
}

/// The set of inputs present in memory at `state`: the union of all
/// register views.
fn memory_inputs(state: &McState<Snap>) -> View<u32> {
    state.memory.iter().fold(View::new(), |mut acc, reg| {
        acc.union_with(&reg.view);
        acc
    })
}

fn initial_state(inputs: &[u32]) -> McState<Snap> {
    let n = inputs.len();
    let procs = inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    McState::initial(procs, n, SnapRegister::default())
}

/// Replays `schedule` (label blocks when `coarse`) from the initial state:
/// the final state and the distinct values the reading's tracked set took,
/// in order of first occurrence. `None` if the schedule steps a halted or
/// unknown process. A block is one write, one output or reads only, so
/// tracking per block sees every value tracking per step would.
fn replay(
    inputs: &[u32],
    reading: Reading,
    wirings: &[Wiring],
    coarse: bool,
    schedule: &[ProcId],
) -> Option<(McState<Snap>, Vec<View<u32>>)> {
    let mut state = initial_state(inputs);
    let mut announced = View::new();
    let mut sets = vec![View::new()];
    for &p in schedule {
        let action = state.pending.get(p.0)?.clone()?;
        if let Action::Write { value, .. } = &*action {
            announced.union_with(&value.view);
        }
        state = if coarse {
            step_block(&state, p, wirings)
        } else {
            state.step(p, wirings)?
        };
        let tracked = match reading {
            Reading::Momentary => memory_inputs(&state),
            Reading::Announcement => announced.clone(),
        };
        if !sets.contains(&tracked) {
            sets.push(tracked);
        }
    }
    Some((state, sets))
}

/// Directly constructs (and verifies) the canonical announcement-reading
/// witness, without search: one processor whose input is outside the
/// eventual output writes first (announcing its input), a covering write by
/// the witness processor erases it before anyone reads it, and the witness
/// processor then runs solo to termination. Its output is its own singleton
/// input — a set the memory never contained, since the outsider's input was
/// announced first and the witness's input joined it immediately.
///
/// Works for any `n ≥ 2` with distinct inputs; the witness uses identity
/// wirings (both covering writes target ground-truth register 0).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`, inputs are not distinct, or the
/// construction unexpectedly fails verification (a bug).
#[must_use]
pub fn construct_witness(inputs: &[u32]) -> NonAtomicWitness {
    check_inputs(inputs, usize::MAX);
    let n = inputs.len();
    let wirings = vec![Wiring::identity(n); n];
    // p1 announces its input by writing ground-truth register 0; p0's first
    // write covers it unread, and p0 then runs solo to its output.
    let mut schedule = vec![ProcId(1)];
    let mut state = initial_state(inputs)
        .step(ProcId(1), &wirings)
        .expect("p1 starts poised");
    while state.first_outputs()[0].is_none() {
        state = state
            .step(ProcId(0), &wirings)
            .expect("p0 runs until it outputs");
        schedule.push(ProcId(0));
    }
    let (_, memory_sets_seen) = replay(inputs, Reading::Announcement, &wirings, false, &schedule)
        .expect("the schedule was just run");
    let witness = NonAtomicWitness {
        wirings,
        schedule,
        coarse: false,
        proc: ProcId(0),
        output: state.first_outputs()[0]
            .clone()
            .expect("solo snapshot terminates"),
        memory_sets_seen,
    };
    assert!(
        verify_witness(inputs, Reading::Announcement, &witness),
        "constructed witness must verify (bug if not)"
    );
    witness
}

/// Replays a witness and re-verifies it under `reading`, independently of
/// the engine: the schedule is valid, the witness processor outputs the
/// witness output, and the reading's tracked set never equals that output
/// along the way (nor afterwards — see the module docs).
#[must_use]
pub fn verify_witness(inputs: &[u32], reading: Reading, witness: &NonAtomicWitness) -> bool {
    let Some((state, sets)) = replay(
        inputs,
        reading,
        &witness.wirings,
        witness.coarse,
        &witness.schedule,
    ) else {
        return false;
    };
    !sets.contains(&witness.output)
        && state
            .first_outputs()
            .get(witness.proc.0)
            .is_some_and(|o| o.as_ref() == Some(&witness.output))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_processors_are_not_atomic() {
        // The paper's TLC finding, reproduced natively under the
        // announcement reading (see the module docs) — by direct
        // construction, independently re-verified by replay.
        let inputs = [1u32, 2, 3];
        let witness = construct_witness(&inputs);
        assert!(
            verify_witness(&inputs, Reading::Announcement, &witness),
            "witness must replay"
        );
        assert!(!witness.memory_sets_seen.contains(&witness.output));
        assert!(witness.output.contains(&inputs[witness.proc.0]));
        // The announced chain went {} → {2} → {1,2} → …: never {1}.
        assert_eq!(witness.output, View::singleton(1));
        assert!(witness
            .memory_sets_seen
            .contains(&[1u32, 2].into_iter().collect()));
    }

    #[test]
    fn witness_construction_scales_with_n() {
        for n in 2..=6usize {
            let inputs: Vec<u32> = (1..=n as u32).collect();
            let witness = construct_witness(&inputs);
            assert!(
                verify_witness(&inputs, Reading::Announcement, &witness),
                "n={n}"
            );
        }
    }

    #[test]
    fn announcement_sweep_finds_a_witness_that_replays_at_n2() {
        // The exact sweep independently finds what the construction builds.
        let inputs = [1u32, 2];
        for coarse in [false, true] {
            let (report, witness) = check_atomicity(
                &inputs,
                Reading::Announcement,
                coarse,
                1_000_000,
                &CheckConfig::default(),
            )
            .unwrap();
            assert!(report.violation.is_some(), "coarse={coarse}");
            let witness = witness.expect("a violation comes with a witness");
            assert_eq!(witness.coarse, coarse);
            assert!(
                verify_witness(&inputs, Reading::Announcement, &witness),
                "coarse={coarse}"
            );
        }
    }

    #[test]
    fn momentary_reading_has_no_witness_at_n2() {
        // Exact at both granularities: every combo runs to completion and
        // no output is ever a union the memory never held.
        for coarse in [false, true] {
            let (report, witness) = check_atomicity(
                &[1u32, 2],
                Reading::Momentary,
                coarse,
                1_000_000,
                &CheckConfig::default(),
            )
            .unwrap();
            assert!(report.complete, "coarse={coarse}");
            assert_eq!(report.combos, report.total_combos);
            assert!(report.violation.is_none() && witness.is_none());
        }
    }

    #[test]
    fn a_history_that_never_records_is_caught_by_verify_witness() {
        // Mutant: the seen set stays {∅}, so the first output in BFS order
        // is flagged although the tracked set did pass through it.
        let inputs = [1u32, 2];
        let combo = ComboTable::new(2, 2).combo(0);
        for reading in [Reading::Announcement, Reading::Momentary] {
            let violation = combo_explorer(&inputs, reading, false, combo.clone(), 1_000_000)
                .with_history(1, |seen, _, _, _| seen)
                .run(unseen_output)
                .violation
                .expect("every output is flagged");
            let wirings = combo.iter().map(|w| (**w).clone()).collect();
            let witness = witness_from(&inputs, reading, false, wirings, &violation);
            assert!(
                !verify_witness(&inputs, reading, &witness),
                "{reading:?}: {witness:?}"
            );
        }
    }

    #[test]
    fn corrupted_witness_fails_verification() {
        let inputs = [1u32, 2, 3];
        let mut witness = construct_witness(&inputs);
        witness.output = View::singleton(99);
        assert!(!verify_witness(&inputs, Reading::Announcement, &witness));
        let mut witness = construct_witness(&inputs);
        witness.schedule.push(ProcId(0)); // p0 has halted by now
        witness.schedule.push(ProcId(0));
        assert!(!verify_witness(&inputs, Reading::Announcement, &witness));
    }
}
