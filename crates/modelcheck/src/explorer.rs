//! Breadth-first exhaustive exploration of a fixed system.
//!
//! The hot path works entirely in interned id space (see [`crate::arena`]):
//! a visited state is one row of `u32` slot ids, a BFS step copies the
//! parent row and rewrites at most three words, and invariants observe
//! states through the zero-materialization [`StateView`]. The `Arc`-walking
//! representation ([`McState`]) remains the *semantic* definition of a state
//! — violations, replays, and the simulation/atomicity layers still use it.
//!
//! There is one BFS: a level-by-level loop that steps and commits every
//! (parent, live process) expansion in serial pop order on one thread
//! (DESIGN §12). Parallelism lives one level up, in the combo pool
//! (`--jobs`); DESIGN §15 records why there is no intra-combo crew.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use fa_memory::{Action, ProcId, Process, StepInput, Wiring};

use crate::arena::{ArenaTables, StateView, HALTED};
use crate::canon::{compose, invert, Canonicalizer};
use crate::checkpoint::crash_point;
use crate::store::{hash_row, StepBuildHasher, TieredVisited, VisitedStore};
use crate::telemetry::ExplorerTelemetry;

/// A process's poised-action slot: `None` once the process has halted.
pub type PendingAction<P> = Option<Arc<Action<<P as Process>::Value, <P as Process>::Output>>>;

/// A global state of the model: register contents, process states, each
/// process's poised action, and the outputs produced so far.
///
/// Wirings are *not* part of the state — they are fixed per exploration; the
/// outer loop quantifies over them (see [`crate::wirings`]).
///
/// Every slot is individually reference-counted: stepping a state
/// shallow-clones the slot vectors (pointer copies) and deep-clones only the
/// one register/process/output slot the step mutates. The breadth-first hot
/// path does not store these at all (it stores id rows, see
/// [`crate::arena`]); `McState` is the materialized form used by violations,
/// replays, and the atomicity checker.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct McState<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Register contents in ground-truth order.
    pub memory: Vec<Arc<P::Value>>,
    /// Process states.
    pub procs: Vec<Arc<P>>,
    /// Poised action of each process; `None` once halted.
    pub pending: Vec<PendingAction<P>>,
    /// Outputs produced so far, per process, in order.
    pub outputs: Vec<Arc<Vec<P::Output>>>,
}

impl<P> McState<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Builds the initial state: every process poised on its first action,
    /// all registers holding `init`.
    pub fn initial(mut procs: Vec<P>, m: usize, init: P::Value) -> Self {
        let pending: Vec<PendingAction<P>> = procs
            .iter_mut()
            .map(|p| Some(Arc::new(p.step(StepInput::Start))))
            .collect();
        let n = procs.len();
        // All registers (and all empty output logs) deliberately share one
        // allocation each; steps copy-on-write the slot they mutate.
        let init = Arc::new(init);
        let no_outputs: Arc<Vec<P::Output>> = Arc::new(Vec::new());
        McState {
            memory: vec![init; m],
            procs: procs.into_iter().map(Arc::new).collect(),
            pending,
            outputs: vec![no_outputs; n],
        }
    }

    /// Whether every process has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.pending.iter().all(Option::is_none)
    }

    /// The live (non-halted) processes.
    #[must_use]
    pub fn live(&self) -> Vec<ProcId> {
        (0..self.procs.len())
            .filter(|&i| self.pending[i].is_some())
            .map(ProcId)
            .collect()
    }

    /// First output of each process (the one-shot task reading).
    #[must_use]
    pub fn first_outputs(&self) -> Vec<Option<P::Output>> {
        self.outputs.iter().map(|os| os.first().cloned()).collect()
    }

    /// The successor state reached by letting process `p` take its poised
    /// step, or `None` if `p` has halted.
    ///
    /// Accepts any slice of wiring handles (`&[Wiring]` or `&[Arc<Wiring>]`),
    /// so callers holding shared combos need not clone permutations.
    #[must_use]
    pub fn step<W: Borrow<Wiring>>(&self, p: ProcId, wirings: &[W]) -> Option<Self> {
        let action = self.pending[p.0].clone()?;
        let mut next = self.clone();
        match &*action {
            Action::Read { local } => {
                let g = wirings[p.0].borrow().global(*local);
                // Hand the process a shared handle to the register cell, not a
                // deep clone. The version is always 0 here: the model checker
                // must never let processes observe write multiplicity.
                let value = fa_memory::Versioned::from_shared(Arc::clone(&next.memory[g.0]), 0);
                let mut proc = (*next.procs[p.0]).clone();
                next.pending[p.0] = Some(Arc::new(proc.step(StepInput::ReadValue(value))));
                next.procs[p.0] = Arc::new(proc);
            }
            Action::Write { local, value } => {
                let g = wirings[p.0].borrow().global(*local);
                next.memory[g.0] = Arc::new(value.clone());
                let mut proc = (*next.procs[p.0]).clone();
                next.pending[p.0] = Some(Arc::new(proc.step(StepInput::Wrote)));
                next.procs[p.0] = Arc::new(proc);
            }
            Action::Output(o) => {
                let mut outs = (*next.outputs[p.0]).clone();
                outs.push(o.clone());
                next.outputs[p.0] = Arc::new(outs);
                let mut proc = (*next.procs[p.0]).clone();
                next.pending[p.0] = Some(Arc::new(proc.step(StepInput::OutputRecorded)));
                next.procs[p.0] = Arc::new(proc);
            }
            Action::Halt => {
                next.pending[p.0] = None;
            }
        }
        Some(next)
    }
}

/// Executes one PlusCal-label-granularity block of processor `p`: a single
/// write or output, or a complete scan (maximal run of consecutive reads).
///
/// Public so counterexample schedules found under
/// [`Explorer::with_coarse_scans`] can be replayed at the same granularity
/// they were produced at.
///
/// # Panics
///
/// Panics if `p` has halted in `state`.
pub fn step_block<P, W>(state: &McState<P>, p: ProcId, wirings: &[W]) -> McState<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
    W: Borrow<Wiring>,
{
    let was_read = matches!(state.pending[p.0].as_deref(), Some(Action::Read { .. }));
    let mut next = state.step(p, wirings).expect("live process steps");
    if was_read {
        while matches!(next.pending[p.0].as_deref(), Some(Action::Read { .. })) {
            next = next.step(p, wirings).expect("scan continues");
        }
    }
    next
}

/// A property violation: the offending state and a schedule reaching it from
/// the initial state.
#[derive(Clone, Debug)]
pub struct Violation<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Why the property failed.
    pub message: String,
    /// The violating state.
    pub state: McState<P>,
    /// The schedule (sequence of processor steps) reaching it.
    pub schedule: Vec<ProcId>,
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Distinct states visited.
    pub states: usize,
    /// States in which every process had halted.
    pub terminal_states: usize,
    /// `true` iff the whole reachable space was explored (no cap hit, no
    /// id-space exhaustion, no external abort).
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<Violation<P>>,
    /// Estimated full-space (un-quotiented) count of the visited states:
    /// the sum of visited orbit sizes. `Some` iff symmetry quotienting was
    /// enabled ([`Explorer::with_quotient`]); **exact** — not an estimate —
    /// when the exploration completed, since reachable orbits are then
    /// covered exactly once (see [`crate::canon`]).
    pub full_states_estimate: Option<u64>,
    /// Visited-set shards spilled to the disk tier (0 unless a
    /// [`Explorer::with_visited_budget`] budget forced rows out). Fixed
    /// by the budget and the insert order.
    pub spilled_shards: usize,
}

/// Breadth-first explorer of one system (fixed processes, wirings, initial
/// register value).
#[derive(Debug)]
pub struct Explorer<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    wirings: Vec<Arc<Wiring>>,
    initial: McState<P>,
    max_states: usize,
    max_depth: Option<usize>,
    coarse_scans: bool,
    id_cap: u32,
    telemetry: Option<ExplorerTelemetry>,
    quotient: bool,
    visited_budget: Option<usize>,
    corrupt_spill: bool,
    spill_dir: Option<std::path::PathBuf>,
    history: Option<(u32, HistoryFn<P>)>,
}

/// A history column's update (DESIGN §12): the child's history word from
/// the parent's word, the parent, the stepping process and the child. Like
/// a TLA+ history variable it records something about the path, so dedup
/// and the BFS tree see it, but no step reads it.
pub(crate) type HistoryFn<P> = fn(u32, &StateView<'_, P>, ProcId, &StateView<'_, P>) -> u32;

/// What an exploration checks on every state it admits: any
/// `Fn(&StateView)` closure, which reads the whole state and runs on every
/// state, or an [`OutputsOnly`] predicate, whose verdict `run_in` may
/// memoize (DESIGN §12).
pub(crate) trait Invariant<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Whether the verdict reads only each process's first output and the
    /// all-halted bit, so equal outputs-section ids and bit give equal
    /// verdicts.
    const OUTPUTS_ONLY: bool;

    /// The verdict on `state`: `Err(message)` reports a violation.
    fn check(&self, state: &StateView<'_, P>) -> Result<(), String>;
}

impl<P, F> Invariant<P> for F
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
    F: Fn(&StateView<'_, P>) -> Result<(), String>,
{
    const OUTPUTS_ONLY: bool = false;

    fn check(&self, state: &StateView<'_, P>) -> Result<(), String> {
        self(state)
    }
}

/// A sweep invariant that sees only the first outputs and whether every
/// process halted, never a [`StateView`], so no other slot can reach a
/// memoized verdict.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutputsOnly<F>(pub(crate) F);

impl<P, F> Invariant<P> for OutputsOnly<F>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
    F: Fn(&[Option<P::Output>], bool) -> Result<(), String>,
{
    const OUTPUTS_ONLY: bool = true;

    fn check(&self, state: &StateView<'_, P>) -> Result<(), String> {
        (self.0)(&state.first_outputs(), state.all_halted())
    }
}

/// A verdict-memo key: a row's outputs-section ids, then its all-halted
/// bit as one more word. Hashed two words per multiply, like a row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VerdictKey(Vec<u32>);

impl Hash for VerdictKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(hash_row(&self.0));
    }
}

/// [`OutputsOnly`] verdicts keyed on the outputs-section ids plus the
/// all-halted bit. Valid only beside the tables that assigned its ids, and
/// for the one invariant of the sweep its scratch serves.
#[derive(Debug)]
pub(crate) struct VerdictMemo {
    verdicts: HashMap<VerdictKey, Result<(), String>, StepBuildHasher>,
    /// The last key looked up, reused so a hit allocates nothing, and its
    /// verdict: consecutive states mostly share a key.
    last: (VerdictKey, Result<(), String>),
}

impl Default for VerdictMemo {
    fn default() -> Self {
        // The empty key matches no lookup, so its verdict is never read.
        VerdictMemo {
            verdicts: HashMap::default(),
            last: (VerdictKey::default(), Ok(())),
        }
    }
}

impl VerdictMemo {
    /// The verdict recorded for `outputs` and `halted`, or `judge`'s,
    /// recorded.
    fn verdict(
        &mut self,
        outputs: &[u32],
        halted: bool,
        judge: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        let (key, verdict) = &mut self.last;
        if key.0.split_last() != Some((&u32::from(halted), outputs)) {
            key.0.clear();
            key.0.extend_from_slice(outputs);
            key.0.push(u32::from(halted));
            *verdict = match self.verdicts.get(key) {
                Some(known) => known.clone(),
                None => {
                    let judged = judge();
                    self.verdicts.insert(key.clone(), judged.clone());
                    judged
                }
            };
        }
        verdict.clone()
    }
}

/// What one thread keeps between the explorations it runs, so a combo-pool
/// worker pays for its tables and buffers once rather than per combo
/// (DESIGN §12). Reusing a scratch never changes a report.
#[derive(Debug)]
pub(crate) struct Scratch<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Slot tables and transition memo shared by the plain explorations
    /// this scratch serves; `None` until the first one.
    tables: Option<ArenaTables<P>>,
    /// Verdicts of the sweep's [`OutputsOnly`] invariant on `tables`' ids;
    /// emptied whenever `tables` is replaced.
    verdicts: VerdictMemo,
    /// The visited store, reset for each exploration.
    visited: TieredVisited,
    /// The BFS tree, cleared between explorations.
    tree: BfsTree,
}

impl<P> Default for Scratch<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    fn default() -> Self {
        Scratch {
            tables: None,
            verdicts: VerdictMemo::default(),
            visited: TieredVisited::new(0, None),
            tree: BfsTree::default(),
        }
    }
}

/// The BFS tree as parallel vectors indexed by state id: each state's
/// parent and the process whose step reached it (`None` at the root), and
/// the group element mapping the stepped row onto the canonical row
/// actually stored (0, the identity, when not quotienting).
#[derive(Debug, Default)]
struct BfsTree {
    parents: Vec<Option<(usize, ProcId)>>,
    gelems: Vec<u32>,
}

impl BfsTree {
    fn clear(&mut self) {
        self.parents.clear();
        self.gelems.clear();
    }

    /// Records the next state id's edge.
    fn push(&mut self, parent: Option<(usize, ProcId)>, gelem: u32) {
        self.parents.push(parent);
        self.gelems.push(gelem);
    }

    /// The `(process, group element)` edges from the root to state `at`.
    fn path_to(&self, at: usize) -> Vec<(ProcId, u32)> {
        let mut edges = Vec::new();
        let mut cur = at;
        while let Some((parent, p)) = self.parents[cur] {
            edges.push((p, self.gelems[cur]));
            cur = parent;
        }
        edges.reverse();
        edges
    }
}

/// Totals an exploration has already published as telemetry counter deltas.
#[derive(Clone, Copy, Debug)]
struct Flushed {
    states: usize,
    memo_hits: u64,
    memo_misses: u64,
    invariant_evals: u64,
}

/// How many state expansions, counted in commit order, pass between polls
/// of the external stop signal: frequent enough to abort promptly, rare
/// enough to keep the check off the hot path. Telemetry and the
/// `explorer.poll` crash point share the same boundary.
const STOP_POLL_INTERVAL: usize = 1024;

/// One in this many expansions is wall-clock timed for the `mc.dedup` span
/// (recorded scaled, so totals stay unbiased). Sampling keeps the two
/// `Instant::now()` calls off the per-expansion hot path — the <5% probe
/// overhead budget of EXPERIMENTS E22.
const DEDUP_SAMPLE_INTERVAL: usize = 64;

impl<P> Explorer<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Creates an explorer for `procs` over `m` registers initialized to
    /// `init`, with the given wirings and a state-count cap. Wirings may be
    /// owned (`Vec<Wiring>`) or shared (`Vec<Arc<Wiring>>`).
    ///
    /// # Panics
    ///
    /// Panics if the number of wirings differs from the number of processes
    /// or some wiring's domain is not `m`.
    pub fn new<W: Into<Arc<Wiring>>>(
        procs: Vec<P>,
        m: usize,
        init: P::Value,
        wirings: Vec<W>,
    ) -> Self {
        let wirings: Vec<Arc<Wiring>> = wirings.into_iter().map(Into::into).collect();
        assert_eq!(
            procs.len(),
            wirings.len(),
            "one wiring per process required"
        );
        for w in &wirings {
            assert_eq!(w.len(), m, "wiring domain must match the register count");
        }
        Explorer {
            wirings,
            initial: McState::initial(procs, m, init),
            max_states: 1_000_000,
            max_depth: None,
            coarse_scans: false,
            id_cap: HALTED,
            telemetry: None,
            quotient: false,
            visited_budget: None,
            corrupt_spill: false,
            spill_dir: None,
            history: None,
        }
    }

    /// Explores at PlusCal *label* granularity: a maximal run of consecutive
    /// reads by one processor (a scan) is a single atomic step, as in the
    /// paper's TLC spec ("the sequence of steps between any two labels is
    /// executed atomically", Figure 3). Writes and outputs remain single
    /// steps. Coarser grain, exponentially smaller state space — this is
    /// the configuration under which TLC exhausted the 3-processor system.
    #[must_use]
    pub fn with_coarse_scans(mut self) -> Self {
        self.coarse_scans = true;
        self
    }

    /// Caps the number of distinct states to visit (default one million).
    #[must_use]
    pub fn with_max_states(mut self, cap: usize) -> Self {
        self.max_states = cap;
        self
    }

    /// Caps the exploration depth (steps from the initial state). Needed for
    /// systems with unbounded state spaces, e.g. consensus timestamps.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Caps the per-table slot-id space (default: the full `u32` range;
    /// ids stay strictly below the cap, so the halted sentinel is never
    /// assigned). A test hook: tiny caps force the id-space exhaustion
    /// path, which must abort the exploration gracefully with
    /// `complete: false` instead of panicking inside a sweep worker.
    #[must_use]
    pub fn with_id_cap(mut self, cap: u32) -> Self {
        self.id_cap = cap;
        self
    }

    /// Attaches live-telemetry handles: the exploration then publishes
    /// state/frontier/visited-table/interner metrics on the stop-poll
    /// boundary and sampled dedup timings. Purely additive — attaching
    /// telemetry never changes the [`ExploreReport`].
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: ExplorerTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables symmetry-quotient exploration (see [`crate::canon`]): every
    /// stepped state is mapped to its canonical orbit representative under
    /// the system's processor/register symmetry group before dedup, so the
    /// visited set holds one row per orbit. The report then carries
    /// `full_states_estimate` (Σ orbit sizes — exact on complete runs) and
    /// a violation, if found, is translated back into a concrete schedule
    /// of the *real* (un-permuted) system before being reported. Sound only
    /// for invariants that are themselves symmetric under the group, which
    /// all the anonymity properties of this crate are.
    #[must_use]
    pub fn with_quotient(mut self) -> Self {
        self.quotient = true;
        self
    }

    /// Bounds the resident bytes of visited-set row storage: beyond the
    /// budget, cold full shards spill to a checksummed append-only temp
    /// file (see [`crate::store`]). Reports are identical to in-memory runs
    /// — the store only changes *where* rows live — except that spill I/O
    /// failures or corruption abort the exploration with `complete: false`.
    #[must_use]
    pub fn with_visited_budget(mut self, bytes: usize) -> Self {
        self.visited_budget = Some(bytes);
        self
    }

    /// Test hook: corrupts the first spilled visited shard so read-back
    /// must fail loudly.
    #[doc(hidden)]
    #[must_use]
    pub fn with_corrupted_spill_for_tests(mut self) -> Self {
        self.corrupt_spill = true;
        self
    }

    /// Places visited-store spill shards in `dir` (a checkpoint directory)
    /// instead of the system temp dir. A location only: shards are not
    /// fsync'd (a resume deletes them unread), but the exploration fails
    /// loudly if the directory vanishes.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Appends a history column to every row: the root's word is
    /// `initial`, each child's is `step`'s (see [`HistoryFn`]), and
    /// invariants read it through `StateView::history`. Only for
    /// explorations with a trivial quotient group: the canonicalizer
    /// permutes `m + 3n` words.
    pub(crate) fn with_history(mut self, initial: u32, step: HistoryFn<P>) -> Self {
        self.history = Some((initial, step));
        self
    }

    /// Initial-state symmetry classes: `classes[i] == classes[j]` iff
    /// processors `i` and `j` start value-equal (same process state, same
    /// poised action) — the processor-permutation constraint of the sound
    /// quotient group.
    pub(crate) fn initial_symmetry_classes(&self) -> Vec<usize> {
        let n = self.initial.procs.len();
        let mut classes = Vec::with_capacity(n);
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..n {
            let found = reps.iter().position(|&r| {
                self.initial.procs[r] == self.initial.procs[i]
                    && self.initial.pending[r] == self.initial.pending[i]
            });
            match found {
                Some(class) => classes.push(class),
                None => {
                    classes.push(reps.len());
                    reps.push(i);
                }
            }
        }
        classes
    }

    /// Explores breadth-first, checking `invariant` on every visited state
    /// (including the initial one). `invariant` returns `Err(message)` to
    /// report a violation, which aborts the search with a counterexample
    /// schedule.
    ///
    /// The invariant observes states through the borrow-only [`StateView`]
    /// (call [`StateView::to_state`] for a materialized [`McState`]); it is
    /// a shared (`Fn`) closure, so one instance can serve every worker of a
    /// parallel sweep by reference.
    pub fn run<F>(&self, invariant: F) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
    {
        self.run_until(invariant, || false)
    }

    /// Like [`Explorer::run`], but polls `stop` on entry and then every
    /// `STOP_POLL_INTERVAL` expansions; when it returns `true` the
    /// exploration aborts with `complete: false` and no violation. Parallel
    /// sweeps use this to cancel workers made redundant by an
    /// earlier-indexed violation.
    ///
    /// States are id rows (see [`crate::arena`]), stepping patches a copied
    /// row in place, and the visited set hashes rows directly.
    pub fn run_until<F, S>(&self, invariant: F, stop: S) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
        S: Fn() -> bool,
    {
        self.run_in(&invariant, &stop, &mut Scratch::default())
    }

    /// [`Explorer::run_until`] over a caller-kept [`Scratch`]: the sweep
    /// hands each pool worker's scratch to every combo it claims.
    ///
    /// The scratch's tables serve this exploration only when its ids cannot
    /// show: no nontrivial quotient group (the canonical row is the
    /// id-lexicographically least one, so shared ids would move the
    /// representative), the production id cap (a test-injected cap counts
    /// only this exploration's ids) and the same row layout. Any other
    /// exploration gets fresh tables and leaves the scratch's alone. The
    /// scratch's visited store is reset to this exploration's row width,
    /// budget and spill directory, and its spill file is
    /// deleted when the exploration ends.
    ///
    /// An [`OutputsOnly`] invariant's verdicts are memoized in the scratch
    /// beside its tables, and only when the tables serve the exploration;
    /// under fresh tables it runs on every state. A scratch serves one
    /// sweep, so one invariant.
    pub(crate) fn run_in<I, S>(
        &self,
        invariant: &I,
        stop: &S,
        scratch: &mut Scratch<P>,
    ) -> ExploreReport<P>
    where
        I: Invariant<P>,
        S: Fn() -> bool,
    {
        let (m, n) = self.dims();
        let width = m + 3 * n + usize::from(self.history.is_some());
        let canon = self.canonicalizer();
        debug_assert!(canon.is_none() || self.history.is_none());
        let mut fresh = None;
        let (tables, verdicts) = if canon.is_none() && self.id_cap == HALTED {
            if !scratch.tables.as_ref().is_some_and(|t| t.dims() == (m, n)) {
                scratch.tables = Some(ArenaTables::new(m, n, HALTED));
                scratch.verdicts = VerdictMemo::default();
            }
            let tables = scratch.tables.as_mut().expect("just ensured");
            (tables, I::OUTPUTS_ONLY.then_some(&mut scratch.verdicts))
        } else {
            (fresh.insert(ArenaTables::new(m, n, self.id_cap)), None)
        };
        scratch.tree.clear();
        let store = &mut scratch.visited;
        store.reset(width, self.visited_budget);
        if let Some(dir) = &self.spill_dir {
            store.set_spill_dir(dir.clone());
        }
        if self.corrupt_spill {
            store.corrupt_next_spill_for_tests();
        }
        let report = self.explore(
            invariant,
            stop,
            store,
            canon.as_ref(),
            tables,
            verdicts,
            &mut scratch.tree,
        );
        // No spill file outlives the exploration that wrote it.
        store.reset(width, None);
        report
    }

    /// [`Explorer::run`] under its old intra-combo name; `_workers` is
    /// ignored. Kept only until the benchmark retires its e3-n3-intra2
    /// workload.
    #[doc(hidden)]
    pub fn run_intra<F>(&self, invariant: F, _workers: usize) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
    {
        self.run(invariant)
    }

    /// `(registers, processes)` of the system.
    fn dims(&self) -> (usize, usize) {
        (self.initial.memory.len(), self.initial.procs.len())
    }

    /// The quotient group's canonicalizer, or `None` without quotienting or
    /// when the group is trivial: canonicalization is then the identity
    /// map, and skipping it keeps the exploration instruction-for-
    /// instruction the plain one (reports then agree exactly, which the
    /// differential suite asserts).
    fn canonicalizer(&self) -> Option<Canonicalizer> {
        self.quotient
            .then(|| Canonicalizer::for_system(&self.initial_symmetry_classes(), &self.wirings))
            .filter(|c| !c.is_trivial())
    }

    /// Publishes live telemetry: states and transition-memo tallies as
    /// counter deltas since the last flush (so shared counters stay
    /// globally monotone across combos and pool threads), gauges as the current
    /// readings. Runs on the stop-poll boundary and at the exit, so the
    /// per-step path touches no atomics.
    fn flush_telemetry(
        &self,
        flushed: &mut Flushed,
        store: &TieredVisited,
        depth: usize,
        tables: &ArenaTables<P>,
        invariant_evals: u64,
    ) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        let visited = store.len();
        let (hits, misses) = tables.memo_tallies();
        tel.states.add((visited - flushed.states) as u64);
        tel.step_memo_hits.add(hits - flushed.memo_hits);
        tel.step_memo_misses.add(misses - flushed.memo_misses);
        tel.invariant_evals
            .add(invariant_evals - flushed.invariant_evals);
        *flushed = Flushed {
            states: visited,
            memo_hits: hits,
            memo_misses: misses,
            invariant_evals,
        };
        tel.frontier_depth.set(depth as u64);
        tel.visited_entries.set(visited as u64);
        // Estimate, not an allocator measurement: resident row payload plus
        // parent/depth/index bookkeeping per state.
        tel.visited_bytes.set(store.approx_bytes() as u64);
        tel.visited_spilled.set(store.spilled_shards() as u64);
        tel.interner_entries.set(tables.len_total() as u64);
    }

    /// The BFS engine. The visited store only decides where rows live,
    /// never which ids exist, so a budget changes no report beyond its
    /// spill count.
    ///
    /// Level `d` is the id range the store held when level `d - 1` was
    /// done — the FIFO queue of a serial BFS, cut at depth boundaries. The
    /// commit loop pops each parent in that order, reading its row back
    /// from the store (so a corrupted spill tier is caught at a fixed
    /// parent), and commits each live process's successor: step,
    /// canonicalize, look up, cap, insert, check the invariant. Store
    /// failures (spill-tier I/O errors or corruption) and id-space
    /// exhaustion abort with `complete: false`, never as "row not seen".
    ///
    /// `store` and `tree` arrive empty; `tables` may already hold other
    /// explorations' values, which only changes which ids rows carry.
    /// `verdicts`, when given, holds verdicts on `tables`' ids (see
    /// [`Explorer::run_in`]).
    #[allow(clippy::too_many_arguments)]
    fn explore<I, S>(
        &self,
        invariant: &I,
        stop: &S,
        store: &mut TieredVisited,
        canon: Option<&Canonicalizer>,
        tables: &mut ArenaTables<P>,
        mut verdicts: Option<&mut VerdictMemo>,
        tree: &mut BfsTree,
    ) -> ExploreReport<P>
    where
        I: Invariant<P>,
        S: Fn() -> bool,
    {
        let (m, n) = self.dims();
        let w = m + 3 * n;
        let width = w + usize::from(self.history.is_some());
        let mut terminal = 0usize;
        let mut complete = true;
        // Σ orbit sizes of visited canonical states — the full-space total
        // reported as `full_states_estimate` (exact on complete runs).
        let mut estimate = 0u64;
        let mut depth = 0usize;
        let mut since_poll = 0usize;
        let mut expansions = 0usize;
        // Counter deltas start from the tables' tallies at entry, so shared
        // tables publish exactly this exploration's memo traffic.
        let (memo_hits, memo_misses) = tables.memo_tallies();
        let mut flushed = Flushed {
            states: 0,
            memo_hits,
            memo_misses,
            invariant_evals: 0,
        };
        // Runs of the invariant itself, memo hits excluded.
        let evals = Cell::new(0u64);
        // The verdict on `row`: the memo's when it holds one, else the
        // invariant's, recorded.
        let judge = |tables: &ArenaTables<P>, row: &[u32], memo: Option<&mut VerdictMemo>| {
            let run = || {
                evals.set(evals.get() + 1);
                invariant.check(&StateView::new(tables, row))
            };
            match memo {
                Some(memo) => {
                    let halted = row[m + n..m + 2 * n].iter().all(|&id| id == HALTED);
                    memo.verdict(&row[m + 2 * n..w], halted, run)
                }
                None => run(),
            }
        };

        let (complete, violation) = 'run: {
            let Ok(k0) = tables.encode(&self.initial) else {
                // Not even the initial state fits the injected id space.
                break 'run (false, None);
            };
            // The initial state is a fixed point of the group (uniform
            // memory, class-preserving σ, empty outputs), so canonicalizing
            // it is a no-op with orbit 1 — run it anyway for uniform
            // accounting.
            let (root_row, root_orbit) = match canon {
                Some(c) => {
                    let mut out = vec![0u32; w];
                    let (_, orbit) = c.canonicalize(&k0, &mut out);
                    (out, orbit)
                }
                None => (
                    k0.iter()
                        .copied()
                        .chain(self.history.map(|h| h.0))
                        .collect(),
                    1,
                ),
            };
            estimate += root_orbit;
            if store.insert(&root_row).is_err() {
                break 'run (false, None);
            }
            tree.push(None, 0);
            if let Err(message) = judge(tables, &root_row, verdicts.as_deref_mut()) {
                // A violating root is reported complete, with the root
                // counted terminal if it already is.
                terminal = usize::from(self.initial.all_halted());
                let v =
                    self.assemble_violation(tables, canon, invariant, tree, 0, &root_row, message);
                break 'run (true, Some(v));
            }
            // Combos smaller than the poll interval would otherwise never
            // observe the probe at all — one entry check keeps graceful
            // aborts (signals, memory watchdog) responsive on any combo size.
            if stop() {
                break 'run (false, None);
            }

            let mut cur_row = vec![0u32; width];
            let mut row = vec![0u32; width];
            let mut canon_buf = vec![0u32; width];
            let mut level_start = 0usize;
            while level_start < store.len() {
                let level_end = store.len();
                let capped = self.max_depth.is_some_and(|maxd| depth >= maxd);
                for cur in level_start..level_end {
                    if store.read_row(cur, &mut cur_row).is_err() {
                        break 'run (false, None);
                    }
                    if cur_row[m + n..m + 2 * n].iter().all(|&id| id == HALTED) {
                        terminal += 1;
                        continue;
                    }
                    if capped {
                        complete = false;
                        continue;
                    }
                    for pi in 0..n {
                        if cur_row[m + n + pi] == HALTED {
                            continue;
                        }
                        let p = ProcId(pi);
                        since_poll += 1;
                        if since_poll >= STOP_POLL_INTERVAL {
                            since_poll = 0;
                            self.flush_telemetry(&mut flushed, store, depth, tables, evals.get());
                            crash_point("explorer.poll");
                            if stop() {
                                break 'run (false, None);
                            }
                        }
                        // One expansion in DEDUP_SAMPLE_INTERVAL is
                        // wall-clock timed through canonicalization,
                        // hashing and the visited lookup; recorded scaled
                        // so the span total stays unbiased.
                        expansions += 1;
                        let dedup_start = (self.telemetry.is_some()
                            && expansions % DEDUP_SAMPLE_INTERVAL == 0)
                            .then(Instant::now);
                        row.copy_from_slice(&cur_row);
                        let stepped = if self.coarse_scans {
                            tables.step_block_row(&mut row, p, &self.wirings)
                        } else {
                            tables.step_row(&mut row, p, &self.wirings)
                        };
                        if stepped.is_err() {
                            // Id-space exhaustion: abort gracefully, like
                            // hitting the state cap — the report stays
                            // honest and the sweep worker never panics.
                            break 'run (false, None);
                        }
                        if let Some((_, step)) = self.history {
                            row[w] = step(
                                cur_row[w],
                                &StateView::new(tables, &cur_row),
                                p,
                                &StateView::new(tables, &row),
                            );
                        }
                        let (gidx, orbit) = match canon {
                            Some(c) => {
                                let (g, orbit) = c.canonicalize(&row, &mut canon_buf);
                                // Dedup, insertion and the invariant all see
                                // the representative.
                                std::mem::swap(&mut row, &mut canon_buf);
                                (g, orbit)
                            }
                            None => (0, 1),
                        };
                        let hash = hash_row(&row);
                        let seen = store.lookup_hashed(&row, hash);
                        if let (Some(started), Some(tel)) = (dedup_start, &self.telemetry) {
                            let ns =
                                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            tel.dedup
                                .record_sampled_ns(ns, DEDUP_SAMPLE_INTERVAL as u64);
                        }
                        match seen {
                            Ok(None) => {}
                            Ok(Some(_)) => continue,
                            Err(_) => break 'run (false, None),
                        }
                        if store.len() >= self.max_states {
                            complete = false;
                            continue;
                        }
                        let Ok(id) = store.insert_hashed(&row, hash) else {
                            break 'run (false, None);
                        };
                        estimate += orbit;
                        tree.push(Some((cur, p)), gidx);
                        if let Err(message) = judge(tables, &row, verdicts.as_deref_mut()) {
                            let v = self.assemble_violation(
                                tables, canon, invariant, tree, id, &row, message,
                            );
                            break 'run (false, Some(v));
                        }
                    }
                }
                level_start = level_end;
                depth += 1;
            }
            (complete, None)
        };

        self.flush_telemetry(&mut flushed, store, depth, tables, evals.get());
        ExploreReport {
            states: store.len(),
            terminal_states: terminal,
            complete,
            violation,
            full_states_estimate: self.quotient.then_some(estimate),
            spilled_shards: store.spilled_shards(),
        }
    }

    /// Builds the [`Violation`] for state `at` (stored as row `vrow`) from
    /// the BFS tree: walks the edges back to the root, and — when
    /// `canon` carries a nontrivial quotient group — untranslates the
    /// canonical run into a concrete schedule and state of the real system.
    #[allow(clippy::too_many_arguments)]
    fn assemble_violation<I: Invariant<P>>(
        &self,
        tables: &ArenaTables<P>,
        canon: Option<&Canonicalizer>,
        invariant: &I,
        tree: &BfsTree,
        at: usize,
        vrow: &[u32],
        message: String,
    ) -> Violation<P> {
        let (m, n) = self.dims();
        let w = m + 3 * n;
        let edges = tree.path_to(at);
        let Some(c) = canon else {
            return Violation {
                message,
                state: tables.decode(vrow),
                schedule: edges.into_iter().map(|(p, _)| p).collect(),
            };
        };
        // Quotiented search: each stored row v_j is g_j · step(v_{j-1},
        // p_j). Let B_j = g_j ∘ ... ∘ g_1; then u_j = B_j⁻¹ · v_j is a
        // *real* execution of the un-permuted system reached by
        // scheduling q_j = σ_{B_{j-1}}⁻¹(p_j) (by equivariance,
        // step(g·s, σ_g(p)) = g · step(s, p)). Walk root→violation
        // maintaining B⁻¹ to emit the concrete schedule, then gather the
        // real violating state u = B⁻¹ · v.
        let mut inv_proc: Vec<usize> = (0..n).collect();
        let mut inv_reg: Vec<usize> = (0..m).collect();
        let mut schedule = Vec::with_capacity(edges.len());
        for (p, g) in edges {
            schedule.push(ProcId(inv_proc[p.0]));
            let (gp, gr) = c.elem_perms(g as usize);
            inv_proc = compose(&inv_proc, &invert(gp));
            inv_reg = compose(&inv_reg, &invert(gr));
        }
        let fwd_proc = invert(&inv_proc);
        let fwd_reg = invert(&inv_reg);
        let mut urow = vec![0u32; w];
        for (j, slot) in urow[..m].iter_mut().enumerate() {
            *slot = vrow[fwd_reg[j]];
        }
        for section in 0..3 {
            let base = m + section * n;
            for (j, &src) in fwd_proc.iter().enumerate() {
                urow[base + j] = vrow[base + src];
            }
        }
        // The canonical row tripped the invariant; for a symmetric
        // invariant its real preimage trips it too — re-derive the
        // message there so it matches what a schedule replay observes.
        let message = match invariant.check(&StateView::new(tables, &urow)) {
            Err(real) => real,
            Ok(()) => message,
        };
        Violation {
            message,
            state: tables.decode(&urow),
            schedule,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes its input to local register 0, then halts.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct OneWrite {
        input: u8,
        wrote: bool,
    }
    impl Process for OneWrite {
        type Value = u8;
        type Output = u8;
        fn step(&mut self, _i: StepInput<u8>) -> Action<u8, u8> {
            if self.wrote {
                Action::Halt
            } else {
                self.wrote = true;
                Action::write(0, self.input)
            }
        }
    }

    #[test]
    fn explores_all_interleavings_of_two_writers() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        );
        let report = explorer.run(|_| Ok(()));
        assert!(report.complete);
        assert!(report.violation.is_none());
        // States: both orders of two writes + halts collapse by dedup; the
        // space is tiny but must include the two distinct final memories.
        assert!(report.states >= 5, "states = {}", report.states);
        assert!(report.terminal_states >= 2);
    }

    #[test]
    fn invariant_violation_returns_schedule() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        );
        // "Register never holds 2" is violated as soon as p1 writes.
        let report = explorer.run(|s| {
            if *s.memory(0) == 2 {
                Err("register holds 2".to_string())
            } else {
                Ok(())
            }
        });
        let v = report.violation.expect("violation must be found");
        assert_eq!(*v.state.memory[0], 2);
        // The counterexample schedule must replay to the violating state.
        assert!(!v.schedule.is_empty());
        assert_eq!(*v.schedule.last().unwrap(), ProcId(1));
    }

    #[test]
    fn state_cap_marks_incomplete() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        )
        .with_max_states(2);
        let report = explorer.run(|_| Ok(()));
        assert!(!report.complete);
    }

    #[test]
    fn depth_cap_marks_incomplete() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let explorer = Explorer::new(
            procs,
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        )
        .with_max_depth(1);
        let report = explorer.run(|_| Ok(()));
        assert!(!report.complete);
    }

    #[test]
    fn tiny_id_cap_aborts_gracefully_instead_of_panicking() {
        // The two-writer space needs more than two distinct process values
        // per table; a cap of 2 must surface as an honest incomplete report
        // — an earlier codepath used to panic here
        // ("distinct slot values exceed the u32 id space").
        let mk = || {
            Explorer::new(
                vec![
                    OneWrite {
                        input: 1,
                        wrote: false,
                    },
                    OneWrite {
                        input: 2,
                        wrote: false,
                    },
                ],
                1,
                0u8,
                vec![Wiring::identity(1), Wiring::identity(1)],
            )
            .with_id_cap(2)
        };
        let report = mk().run(|_| Ok(()));
        assert!(!report.complete, "exhaustion must mark incompleteness");
        assert!(report.violation.is_none());
    }

    #[test]
    fn id_cap_too_small_for_the_initial_state_reports_zero_states() {
        let explorer = Explorer::new(
            vec![
                OneWrite {
                    input: 1,
                    wrote: false,
                },
                OneWrite {
                    input: 2,
                    wrote: false,
                },
            ],
            1,
            0u8,
            vec![Wiring::identity(1), Wiring::identity(1)],
        )
        .with_id_cap(1);
        let report = explorer.run(|_| Ok(()));
        assert!(!report.complete);
        assert_eq!(report.states, 0);
    }

    #[test]
    fn immediate_stop_aborts_incomplete() {
        use fa_core::SnapshotProcess;
        // A space large enough to cross the poll interval.
        let procs: Vec<SnapshotProcess<u8>> =
            vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
        let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
        let full =
            Explorer::new(procs.clone(), 2, Default::default(), wirings.clone()).run(|_| Ok(()));
        assert!(full.complete);
        let aborted =
            Explorer::new(procs, 2, Default::default(), wirings).run_until(|_| Ok(()), || true);
        assert!(!aborted.complete);
        assert!(aborted.violation.is_none());
        assert!(aborted.states < full.states, "abort must cut the search");
    }

    #[test]
    fn coarse_scans_shrink_the_state_space() {
        use fa_core::SnapshotProcess;
        let procs: Vec<SnapshotProcess<u8>> =
            vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
        let wirings = vec![Wiring::identity(2), Wiring::identity(2)];
        let fine =
            Explorer::new(procs.clone(), 2, Default::default(), wirings.clone()).run(|_| Ok(()));
        let coarse = Explorer::new(procs, 2, Default::default(), wirings)
            .with_coarse_scans()
            .run(|_| Ok(()));
        assert!(fine.complete && coarse.complete);
        assert!(
            coarse.states < fine.states,
            "coarse {} !< fine {}",
            coarse.states,
            fine.states
        );
        assert!(coarse.violation.is_none() && fine.violation.is_none());
    }

    #[test]
    fn counterexample_schedule_replays() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Wiring::identity(1), Wiring::identity(1)];
        let explorer = Explorer::new(procs.clone(), 1, 0u8, wirings.clone());
        let report = explorer.run(|s| {
            if s.all_halted() && *s.memory(0) == 1 {
                Err("final memory is 1".into())
            } else {
                Ok(())
            }
        });
        let v = report.violation.expect("some interleaving ends with 1");
        // Replay the schedule from the initial state.
        let mut state = McState::initial(procs, 1, 0u8);
        for &p in &v.schedule {
            state = state.step(p, &wirings).expect("schedule is valid");
        }
        assert_eq!(state, v.state);
    }

    #[test]
    fn coarse_counterexample_replays_via_step_block() {
        use fa_core::SnapshotProcess;
        // A violation schedule produced under coarse (label-granularity)
        // exploration is a sequence of *blocks*; replaying it step-by-step
        // would diverge, replaying it block-by-block must land exactly on
        // the violating state.
        let procs: Vec<SnapshotProcess<u8>> =
            vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
        let wirings = vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)];
        let explorer = Explorer::new(procs.clone(), 2, Default::default(), wirings.clone())
            .with_coarse_scans();
        // "No process ever outputs" fails once the first snapshot returns.
        let report = explorer.run(|s| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("a snapshot was output".into())
            } else {
                Ok(())
            }
        });
        let v = report
            .violation
            .expect("snapshots terminate, so some output");
        assert!(!v.schedule.is_empty());
        let mut state = McState::initial(procs, 2, Default::default());
        for &p in &v.schedule {
            state = step_block(&state, p, &wirings);
        }
        assert_eq!(state, v.state, "block replay must reach the violation");
        assert!(state.first_outputs().iter().any(Option::is_some));
    }

    #[test]
    #[allow(clippy::needless_borrows_for_generic_args)] // the borrow is the point
    fn shared_invariant_can_be_passed_by_reference() {
        // One `Fn` closure instance must be reusable across explorer runs —
        // the shape the parallel sweep relies on.
        fn invariant(s: &StateView<'_, OneWrite>) -> Result<(), String> {
            if *s.memory(0) == 99 {
                Err("impossible".into())
            } else {
                Ok(())
            }
        }
        for _ in 0..2 {
            let procs = vec![
                OneWrite {
                    input: 1,
                    wrote: false,
                },
                OneWrite {
                    input: 2,
                    wrote: false,
                },
            ];
            let explorer = Explorer::new(
                procs,
                1,
                0u8,
                vec![Wiring::identity(1), Wiring::identity(1)],
            );
            let report = explorer.run(&invariant);
            assert!(report.complete);
            assert!(report.violation.is_none());
        }
    }

    #[test]
    fn interned_dedup_merges_value_equal_states_across_allocations() {
        let mk = |a: u8, b: u8| {
            Explorer::new(
                vec![
                    OneWrite {
                        input: a,
                        wrote: false,
                    },
                    OneWrite {
                        input: b,
                        wrote: false,
                    },
                ],
                1,
                0u8,
                vec![Wiring::identity(1), Wiring::identity(1)],
            )
            .run(|_| Ok(()))
        };
        let same = mk(1, 1);
        let distinct = mk(1, 2);
        assert!(same.complete && distinct.complete);
        // Equal inputs make the two write orders converge on value-equal
        // states reached through *distinct* step paths; the interned tables
        // must still merge them (ids are by value, not provenance).
        assert!(
            same.states < distinct.states,
            "{} !< {}",
            same.states,
            distinct.states
        );
    }

    #[test]
    fn telemetry_is_exact_and_never_changes_the_report() {
        use fa_core::SnapshotProcess;
        use fa_obs::MetricRegistry;

        let mk = || {
            let procs: Vec<SnapshotProcess<u8>> =
                vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
            Explorer::new(
                procs,
                2,
                Default::default(),
                vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)],
            )
        };
        let plain = mk().run(|_| Ok(()));

        let registry = MetricRegistry::new();
        let tel = ExplorerTelemetry::from_registry(&registry);
        let probed = mk().with_telemetry(tel.clone()).run(|_| Ok(()));

        // The deterministic report is untouched by telemetry.
        assert_eq!(probed.states, plain.states);
        assert_eq!(probed.terminal_states, plain.terminal_states);
        assert_eq!(probed.complete, plain.complete);

        // The live counter converges on the exact state count, and the
        // gauges hold the final table sizes.
        assert_eq!(tel.states.get(), plain.states as u64);
        assert_eq!(tel.visited_entries.get(), plain.states as u64);
        assert!(tel.visited_bytes.get() > 0);
        assert!(tel.interner_entries.get() > 0);
        // `run` memoizes no verdict: the invariant ran on every state.
        assert_eq!(tel.invariant_evals.get(), plain.states as u64);

        // The exploration both discovers and repeats transitions.
        let (hits, misses) = (tel.step_memo_hits.get(), tel.step_memo_misses.get());
        assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");

        // A second probed run accumulates onto the same counters (monotone
        // across combos), rather than resetting them, and repeats exactly.
        let again = mk().with_telemetry(tel.clone()).run(|_| Ok(()));
        assert_eq!(format!("{again:?}"), format!("{plain:?}"));
        assert_eq!(tel.states.get(), 2 * plain.states as u64);
        assert_eq!(tel.step_memo_hits.get(), 2 * hits);
        assert_eq!(tel.step_memo_misses.get(), 2 * misses);
    }

    #[test]
    fn one_engine_reports_identically_over_every_store() {
        use fa_core::SnapshotProcess;
        // `run` with every row resident and `run` under a budget that
        // spills every full shard: same states, same order, same verdicts,
        // byte for byte.
        let mk = || {
            let procs: Vec<SnapshotProcess<u8>> =
                vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
            Explorer::new(
                procs,
                2,
                Default::default(),
                vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)],
            )
        };
        let violating = |s: &StateView<'_, SnapshotProcess<u8>>| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("output".to_string())
            } else {
                Ok(())
            }
        };
        for check_outputs in [false, true] {
            let invariant = |s: &StateView<'_, SnapshotProcess<u8>>| {
                if check_outputs {
                    violating(s)
                } else {
                    Ok(())
                }
            };
            let plain = mk().run(invariant);
            assert_eq!(plain.violation.is_some(), check_outputs);
            let tiered = mk().with_visited_budget(0).run(invariant);
            assert!(
                check_outputs || tiered.spilled_shards > 0,
                "budget 0 must spill"
            );
            let tiered = ExploreReport {
                spilled_shards: 0,
                ..tiered
            };
            assert_eq!(format!("{tiered:?}"), format!("{plain:?}"));
        }
    }

    #[test]
    fn quotient_composes_with_visited_budget() {
        use fa_core::SnapshotProcess;
        let mk = || {
            let procs: Vec<SnapshotProcess<u8>> =
                vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(1, 2)];
            Explorer::new(
                procs,
                2,
                Default::default(),
                vec![Wiring::identity(2), Wiring::identity(2)],
            )
            .with_quotient()
        };
        let violating = |s: &StateView<'_, SnapshotProcess<u8>>| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("a snapshot was output".to_string())
            } else {
                Ok(())
            }
        };
        // A 64-byte budget spills the quotiented run, which otherwise
        // reports exactly what the in-memory one does — the untranslated
        // counterexample included.
        let in_memory = mk().run(|_| Ok(()));
        let spilled = mk().with_visited_budget(64).run(|_| Ok(()));
        assert!(spilled.complete);
        assert!(spilled.spilled_shards > 0, "budget of 64B must spill");
        let spilled = ExploreReport {
            spilled_shards: 0,
            ..spilled
        };
        assert_eq!(format!("{spilled:?}"), format!("{in_memory:?}"));

        let in_memory = mk().run(violating);
        assert!(in_memory.violation.is_some());
        let spilled = mk().with_visited_budget(64).run(violating);
        let spilled = ExploreReport {
            spilled_shards: 0,
            ..spilled
        };
        assert_eq!(format!("{spilled:?}"), format!("{in_memory:?}"));

        // n = 5: five equal processors on identity wirings, coarse scans,
        // a 2,000-state prefix. A 64 KiB budget spills it too, and the
        // capped report matches the in-memory one.
        let mk5 = || {
            let procs: Vec<SnapshotProcess<u32>> =
                (0..5).map(|_| SnapshotProcess::new(7, 5)).collect();
            Explorer::new(procs, 5, Default::default(), vec![Wiring::identity(5); 5])
                .with_coarse_scans()
                .with_max_states(2_000)
                .with_quotient()
        };
        let in_memory = mk5().run(|_| Ok(()));
        let spilled = mk5().with_visited_budget(64 * 1024).run(|_| Ok(()));
        assert!(!spilled.complete);
        assert!(spilled.spilled_shards > 0, "budget of 64 KiB must spill");
        let spilled = ExploreReport {
            spilled_shards: 0,
            ..spilled
        };
        assert_eq!(format!("{spilled:?}"), format!("{in_memory:?}"));
    }

    #[test]
    fn every_small_id_cap_aborts_incomplete_without_a_violation() {
        use fa_core::SnapshotProcess;
        let base = || {
            let procs: Vec<SnapshotProcess<u8>> =
                vec![SnapshotProcess::new(1, 2), SnapshotProcess::new(2, 2)];
            Explorer::new(
                procs,
                2,
                Default::default(),
                vec![Wiring::identity(2), Wiring::cyclic_shift(2, 1)],
            )
        };
        let full = base().run(|_| Ok(()));
        assert!(full.complete);
        // Larger caps run out deeper in the search, never past the full
        // space, and a rerun at the same cap stops at the same state.
        let mut last = 0;
        for cap in [1, 2, 4, 8, 16, 32, 48] {
            let capped = base().with_id_cap(cap).run(|_| Ok(()));
            assert!(!capped.complete, "cap = {cap}");
            assert!(capped.violation.is_none(), "cap = {cap}");
            assert!(
                last <= capped.states && capped.states <= full.states,
                "cap = {cap}"
            );
            last = capped.states;
            let again = base().with_id_cap(cap).run(|_| Ok(()));
            assert_eq!(format!("{again:?}"), format!("{capped:?}"), "cap = {cap}");
        }
    }

    #[test]
    fn step_shares_untouched_slots() {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Wiring::identity(1), Wiring::identity(1)];
        let s0 = McState::initial(procs, 1, 0u8);
        let s1 = s0.step(ProcId(0), &wirings).unwrap();
        // p1's slots are untouched: the successor shares them with s0.
        assert!(Arc::ptr_eq(&s0.procs[1], &s1.procs[1]));
        assert!(Arc::ptr_eq(&s0.outputs[1], &s1.outputs[1]));
        // p0's process advanced: its slot was copied-on-write.
        assert!(!Arc::ptr_eq(&s0.procs[0], &s1.procs[0]));
        // The written register was replaced, not mutated in place.
        assert_eq!(*s0.memory[0], 0);
        assert_eq!(*s1.memory[0], 1);
    }
}
