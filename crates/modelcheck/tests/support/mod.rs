//! A naive reference explorer, the oracle the engine is checked against.
//!
//! A FIFO breadth-first search over materialized [`McState`]s, deduplicated
//! by a `HashMap` keyed on the states themselves: no interning, arena,
//! canonicalizer or visited store. It shares nothing with the engine but
//! the step semantics that define the model (`McState::step` and
//! `step_block`), so a bug in the engine's encoding, memo, dedup, commit
//! order or caps shows up as a disagreement.
//!
//! [`explore_with_history`] searches pairs of a state and a history word,
//! the reference for the engine's history column.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use fa_memory::{ProcId, Process, Wiring};
use fa_modelcheck::{step_block, McState};

/// A visited state and its history word, with its parent link and its
/// depth.
type Entry<P> = ((McState<P>, u32), Option<(usize, ProcId)>, usize);

/// What the reference search saw, in the engine's reporting conventions.
#[derive(Debug)]
pub struct Reference<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Distinct states visited.
    pub states: usize,
    /// Visited states popped with every process halted.
    pub terminal_states: usize,
    /// No cap cut the search and no violation ended it (a violating initial
    /// state still counts as complete).
    pub complete: bool,
    /// The first violation in BFS order: message, state, schedule.
    pub violation: Option<(String, McState<P>, Vec<ProcId>)>,
}

/// The search bounds `Explorer`'s `with_*` methods set.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Steps are whole scans (`step_block`) rather than single reads.
    pub coarse: bool,
    /// Distinct states to visit at most.
    pub max_states: usize,
    /// States at this depth are not expanded.
    pub max_depth: Option<usize>,
}

/// Explores every state reachable from `initial` breadth-first, checking
/// `invariant` on each newly visited state.
pub fn explore<P, I>(
    initial: McState<P>,
    wirings: &[Wiring],
    bounds: Bounds,
    invariant: I,
) -> Reference<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
    I: Fn(&McState<P>) -> Result<(), String>,
{
    explore_with_history(
        initial,
        wirings,
        bounds,
        (0, |h, _: &McState<P>, _, _: &McState<P>| h),
        |s, _| invariant(s),
    )
}

/// Explores every `(state, history)` pair reachable from `(initial,
/// history.0)` breadth-first, where a step by `p` from `(s, h)` to state
/// `t` carries history `history.1(h, s, p, t)`, checking `invariant` on
/// each newly visited pair.
pub fn explore_with_history<P, H, I>(
    initial: McState<P>,
    wirings: &[Wiring],
    bounds: Bounds,
    history: (u32, H),
    invariant: I,
) -> Reference<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
    H: Fn(u32, &McState<P>, ProcId, &McState<P>) -> u32,
    I: Fn(&McState<P>, u32) -> Result<(), String>,
{
    let (h0, record) = history;
    let mut seen: HashMap<(McState<P>, u32), usize> = HashMap::new();
    let mut visited: Vec<Entry<P>> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let schedule = |visited: &[Entry<P>], mut at: usize| {
        let mut steps = Vec::new();
        while let Some((parent, p)) = visited[at].1 {
            steps.push(p);
            at = parent;
        }
        steps.reverse();
        steps
    };

    seen.insert((initial.clone(), h0), 0);
    visited.push(((initial, h0), None, 0));
    queue.push_back(0);
    let root = &visited[0].0;
    if let Err(message) = invariant(&root.0, root.1) {
        return Reference {
            states: 1,
            terminal_states: usize::from(root.0.all_halted()),
            complete: true,
            violation: Some((message, root.0.clone(), Vec::new())),
        };
    }
    let mut terminal_states = 0;
    let mut complete = true;
    while let Some(cur) = queue.pop_front() {
        let ((state, h), depth) = (visited[cur].0.clone(), visited[cur].2);
        if state.all_halted() {
            terminal_states += 1;
            continue;
        }
        if bounds.max_depth.is_some_and(|d| depth >= d) {
            complete = false;
            continue;
        }
        for p in state.live() {
            let next = if bounds.coarse {
                step_block(&state, p, wirings)
            } else {
                state.step(p, wirings).expect("live process steps")
            };
            let h_next = record(h, &state, p, &next);
            let next = (next, h_next);
            if seen.contains_key(&next) {
                continue;
            }
            if visited.len() >= bounds.max_states {
                complete = false;
                continue;
            }
            let id = visited.len();
            seen.insert(next.clone(), id);
            visited.push((next, Some((cur, p)), depth + 1));
            let (next, h) = &visited[id].0;
            if let Err(message) = invariant(next, *h) {
                return Reference {
                    states: visited.len(),
                    terminal_states,
                    complete: false,
                    violation: Some((message, next.clone(), schedule(&visited, id))),
                };
            }
            queue.push_back(id);
        }
    }
    Reference {
        states: visited.len(),
        terminal_states,
        complete,
        violation: None,
    }
}
