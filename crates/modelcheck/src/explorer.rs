//! Breadth-first exhaustive exploration of a fixed system.
//!
//! The hot path works entirely in interned id space (see [`crate::arena`]):
//! a visited state is one row of `u32` slot ids, a BFS step copies the
//! parent row and rewrites at most three words, and invariants observe
//! states through the zero-materialization [`StateView`]. The `Arc`-walking
//! representation ([`McState`]) remains the *semantic* definition of a state
//! — violations, replays, and the simulation/atomicity layers still use it.
//!
//! There is one BFS: a level-by-level loop that commits every (parent, live
//! process) expansion in serial pop order (DESIGN §12). With one worker it
//! steps each expansion straight into the committed tables; with more
//! (`--strategy intra`, DESIGN §15) a worker crew expands, interns and
//! canonicalizes each level in parallel ahead of that loop, which only
//! consumes the results — so every worker count reports identically.

use std::borrow::Borrow;
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::Instant;

use fa_memory::{Action, ProcId, Process, StepInput, Wiring};

use crate::arena::{
    step_block_row_in, step_row_in, ArenaTables, OverlayLog, OverlayTables, StateView, HALTED,
};
use crate::canon::{compose, invert, Canonicalizer};
use crate::checkpoint::crash_point;
use crate::store::{
    hash_row, HashedStore, InMemoryVisited, ShardedVisited, TieredVisited, VisitedStore,
};
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
/// replays, random walks, and the atomicity checker.
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
    /// Visited-set shards spilled to the disk tier (always 0 without a
    /// [`Explorer::with_visited_budget`] budget).
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
    pressure: Option<Arc<std::sync::atomic::AtomicBool>>,
}

/// Totals an exploration has already published as telemetry counter deltas.
#[derive(Clone, Copy, Debug, Default)]
struct Flushed {
    states: usize,
    memo_hits: u64,
    memo_misses: u64,
}

/// How many state expansions, counted in commit order, pass between polls
/// of the external stop signal: frequent enough to abort promptly, rare
/// enough to keep the check off the hot path. Telemetry and the
/// `explorer.poll` crash point share the same boundary, so it is the same
/// for every worker count.
const STOP_POLL_INTERVAL: usize = 1024;

/// One in this many expansions is wall-clock timed for the `mc.dedup` span
/// (recorded scaled, so totals stay unbiased). Sampling keeps the two
/// `Instant::now()` calls off the per-expansion hot path — the <5% probe
/// overhead budget of EXPERIMENTS E22.
const DEDUP_SAMPLE_INTERVAL: usize = 64;

/// Frontier positions handed out per work-stealing claim in the crew's
/// expand phase: big enough to amortize the claim `fetch_add`, small enough
/// to balance the skewed out-degrees of real frontiers.
const EXPAND_CHUNK: usize = 32;

/// Record indices handed out per claim in the crew's derive phase (patch +
/// canonicalize + hash + probe): cheaper per item than expansion, so chunks
/// are larger.
const DERIVE_CHUNK: usize = 128;

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
            pressure: None,
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
    /// must fail loudly. Only meaningful together with
    /// [`Explorer::with_visited_budget`].
    #[doc(hidden)]
    #[must_use]
    pub fn with_corrupted_spill_for_tests(mut self) -> Self {
        self.corrupt_spill = true;
        self
    }

    /// Routes visited-store spill shards into `dir` (a checkpoint
    /// directory) in durable mode — fsync on shard seal, loud failure if
    /// the directory vanishes — instead of the system temp dir. Only
    /// meaningful together with [`Explorer::with_visited_budget`].
    #[must_use]
    pub fn with_spill_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Attaches the memory watchdog's pressure flag: while raised, the
    /// tiered visited store force-spills every sealed shard regardless of
    /// budget. A no-op without [`Explorer::with_visited_budget`].
    #[must_use]
    pub fn with_memory_pressure(mut self, flag: Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.pressure = Some(flag);
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
    /// [`STOP_POLL_INTERVAL`] expansions; when it returns `true` the
    /// exploration aborts with `complete: false` and no violation. Parallel
    /// sweeps use this to cancel workers made redundant by an
    /// earlier-indexed violation.
    ///
    /// States are id rows (see [`crate::arena`]), stepping patches a copied
    /// row in place, and the visited set — in memory, or tiered under
    /// [`Explorer::with_visited_budget`] — hashes rows directly. This is the
    /// one-worker run of the single BFS engine, so it explores the same
    /// states in the same order as [`Explorer::run_until_intra`].
    pub fn run_until<F, S>(&self, invariant: F, stop: S) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
        S: Fn() -> bool,
    {
        let (m, n) = self.dims();
        let w = m + 3 * n;
        let canon = self.canonicalizer();
        match self.visited_budget {
            None => self.explore(
                &invariant,
                &stop,
                InMemoryVisited::new(w),
                canon.as_ref(),
                Inline,
            ),
            Some(budget) => {
                let mut store = TieredVisited::new(w, budget);
                if let Some(dir) = &self.spill_dir {
                    store = store.with_spill_dir(dir.clone());
                }
                if let Some(flag) = &self.pressure {
                    store.set_pressure(Arc::clone(flag));
                }
                if self.corrupt_spill {
                    store.corrupt_next_spill_for_tests();
                }
                self.explore(&invariant, &stop, store, canon.as_ref(), Inline)
            }
        }
    }

    /// [`Explorer::run_until_intra`] without an external stop signal.
    pub fn run_intra<F>(&self, invariant: F, workers: usize) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String> + Sync,
        P: Send + Sync,
        P::Value: Send + Sync,
        P::Output: Send + Sync,
    {
        self.run_until_intra(invariant, || false, workers)
    }

    /// Like [`Explorer::run_until`] over a [`ShardedVisited`] store, with
    /// `workers` threads sharing each BFS level (`--strategy intra`).
    ///
    /// One worker runs exactly [`Explorer::run_until`]'s code. With more,
    /// a worker crew speculatively expands each level against per-worker
    /// overlay tables, replays the overlay intern logs in serial order and
    /// derives the committed, canonical successor rows in parallel (DESIGN
    /// §15); the serial commit loop then consumes them where it would
    /// otherwise step. Slot ids, dedup decisions, state numbering, stop
    /// polls and therefore the entire [`ExploreReport`] (including which
    /// violation is found and its schedule) are byte-identical for any
    /// worker count.
    pub fn run_until_intra<F, S>(&self, invariant: F, stop: S, workers: usize) -> ExploreReport<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String> + Sync,
        S: Fn() -> bool,
        P: Send + Sync,
        P::Value: Send + Sync,
        P::Output: Send + Sync,
    {
        let (m, n) = self.dims();
        let mut store = ShardedVisited::new(m + 3 * n, self.visited_budget);
        if let Some(dir) = &self.spill_dir {
            store = store.with_spill_dir(dir.clone());
        }
        if let Some(flag) = &self.pressure {
            store.set_pressure(Arc::clone(flag));
        }
        if self.corrupt_spill {
            store.corrupt_next_spill_for_tests();
        }
        let canon = self.canonicalizer();
        if workers <= 1 {
            return self.explore(&invariant, &stop, store, canon.as_ref(), Inline);
        }
        let crew = Crew::new(self, &invariant, canon.as_ref(), workers);
        std::thread::scope(|s| {
            for idx in 1..workers {
                let crew = &crew;
                s.spawn(move || crew.work(idx));
            }
            let _dismissal = crew.dismissal();
            self.explore(&invariant, &stop, store, canon.as_ref(), &crew)
        })
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
    /// globally monotone across combos and workers), gauges as the current
    /// readings. Runs on the stop-poll boundary and at the exit, so the
    /// per-step path touches no atomics.
    fn flush_telemetry<V: VisitedStore>(
        &self,
        flushed: &mut Flushed,
        store: &V,
        depth: usize,
        tables: &ArenaTables<P>,
    ) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        let visited = store.len();
        let (hits, misses) = tables.memo_tallies();
        tel.states.add((visited - flushed.states) as u64);
        tel.step_memo_hits.add(hits - flushed.memo_hits);
        tel.step_memo_misses.add(misses - flushed.memo_misses);
        *flushed = Flushed {
            states: visited,
            memo_hits: hits,
            memo_misses: misses,
        };
        tel.frontier_depth.set(depth as u64);
        tel.visited_entries.set(visited as u64);
        // Estimate, not an allocator measurement: resident row payload plus
        // parent/depth/index bookkeeping per state.
        tel.visited_bytes.set(store.approx_bytes() as u64);
        tel.visited_spilled.set(store.spilled_shards() as u64);
        tel.interner_entries.set(tables.len_total() as u64);
    }

    /// The BFS engine, generic over visited-set storage and over who steps
    /// a level's expansions: the commit loop itself ([`Inline`]) or a
    /// worker [`Crew`] ahead of it. The store only decides where rows live,
    /// never which ids exist, so every instantiation reports identically.
    ///
    /// Level `d` is the id range the store held when level `d - 1` was
    /// done — the FIFO queue of a serial BFS, cut at depth boundaries. The
    /// commit loop pops each parent in that order, reading its row back
    /// from the store (so a corrupted spill tier is caught at the same
    /// parent for every worker count), and commits each live process's
    /// successor: canonicalize, look up, cap, insert, check the invariant.
    /// Store failures (spill-tier I/O errors or corruption) and id-space
    /// exhaustion abort with `complete: false`, never as "row not seen".
    #[allow(clippy::too_many_lines)]
    fn explore<V, F, S, X>(
        &self,
        invariant: &F,
        stop: &S,
        mut store: V,
        canon: Option<&Canonicalizer>,
        mut prefetch: X,
    ) -> ExploreReport<P>
    where
        V: HashedStore,
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
        S: Fn() -> bool,
        X: Prefetch<P, V>,
    {
        let (m, n) = self.dims();
        let w = m + 3 * n;
        let mut tables = ArenaTables::<P>::new(m, n, self.id_cap);
        // Parent links and the group element mapping each stepped row onto
        // the canonical row actually stored (identity when not quotienting)
        // ride in parallel vectors indexed by state id.
        let mut parents: Vec<Option<(usize, ProcId)>> = Vec::new();
        let mut gelems: Vec<u32> = Vec::new();
        let mut terminal = 0usize;
        let mut complete = true;
        // Σ orbit sizes of visited canonical states — the full-space total
        // reported as `full_states_estimate` (exact on complete runs).
        let mut estimate = 0u64;
        let mut depth = 0usize;
        let mut since_poll = 0usize;
        let mut expansions = 0usize;
        let mut flushed = Flushed::default();

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
                None => (k0.into_vec(), 1),
            };
            estimate += root_orbit;
            if store.insert(&root_row).is_err() {
                break 'run (false, None);
            }
            parents.push(None);
            gelems.push(0);
            if let Err(message) = invariant(&StateView::new(&tables, &root_row)) {
                // A violating root is reported complete, with the root
                // counted terminal if it already is.
                terminal = usize::from(self.initial.all_halted());
                let v = self.assemble_violation(
                    &tables, canon, invariant, &parents, &gelems, 0, &root_row, message,
                );
                break 'run (true, Some(v));
            }
            // Combos smaller than the poll interval would otherwise never
            // observe the probe at all — one entry check keeps graceful
            // aborts (signals, memory watchdog) responsive on any combo size.
            if stop() {
                break 'run (false, None);
            }

            let mut cur_row = vec![0u32; w];
            let mut row = vec![0u32; w];
            let mut canon_buf = vec![0u32; w];
            let mut level_start = 0usize;
            while level_start < store.len() {
                let level = level_start..store.len();
                let capped = self.max_depth.is_some_and(|maxd| depth >= maxd);
                let mut ahead = if capped {
                    None
                } else {
                    prefetch.level(&mut tables, &mut store, level.clone())
                };
                for cur in level.clone() {
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
                    let pos = (cur - level.start) as u32;
                    for pi in 0..n {
                        if cur_row[m + n + pi] == HALTED {
                            continue;
                        }
                        let p = ProcId(pi);
                        since_poll += 1;
                        if since_poll >= STOP_POLL_INTERVAL {
                            since_poll = 0;
                            self.flush_telemetry(&mut flushed, &store, depth, &tables);
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
                        // The successor lands in `row`, canonical, with its
                        // hash, group element, orbit size and — when the
                        // crew pre-checked it — its invariant verdict.
                        let (hash, gidx, orbit, checked) = if let Some(ahead) = &mut ahead {
                            if ahead.stop_at.is_some_and(|at| (pos, pi as u16) >= at) {
                                // Stepping inline would exhaust the id space
                                // (or fail to read the parent) right here.
                                break 'run (false, None);
                            }
                            let d = ahead
                                .derived
                                .next()
                                .flatten()
                                .expect("the crew derives every step before its stop point");
                            if d.spec_dup {
                                // Present in the store before this level
                                // began — the lookup could only agree.
                                continue;
                            }
                            row.copy_from_slice(&d.row);
                            (d.hash, d.gidx, d.orbit, Some(d.inv_err))
                        } else {
                            row.copy_from_slice(&cur_row);
                            let stepped = if self.coarse_scans {
                                step_block_row_in(&mut tables, &mut row, p, &self.wirings)
                            } else {
                                step_row_in(&mut tables, &mut row, p, &self.wirings)
                            };
                            if stepped.is_err() {
                                // Id-space exhaustion: abort gracefully, like
                                // hitting the state cap — the report stays
                                // honest and the sweep worker never panics.
                                break 'run (false, None);
                            }
                            let (g, orbit) = match canon {
                                Some(c) => {
                                    let (g, orbit) = c.canonicalize(&row, &mut canon_buf);
                                    // Dedup, insertion and the invariant all
                                    // see the representative.
                                    std::mem::swap(&mut row, &mut canon_buf);
                                    (g, orbit)
                                }
                                None => (0, 1),
                            };
                            (hash_row(&row), g, orbit, None)
                        };
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
                        parents.push(Some((cur, p)));
                        gelems.push(gidx);
                        let verdict = match checked {
                            Some(verdict) => verdict,
                            None => invariant(&StateView::new(&tables, &row)).err(),
                        };
                        if let Some(message) = verdict {
                            let v = self.assemble_violation(
                                &tables, canon, invariant, &parents, &gelems, id, &row, message,
                            );
                            break 'run (false, Some(v));
                        }
                    }
                }
                level_start = level.end;
                depth += 1;
            }
            (complete, None)
        };

        self.flush_telemetry(&mut flushed, &store, depth, &tables);
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
    /// the parent-edge arrays: walks the edges back to the root, and — when
    /// `canon` carries a nontrivial quotient group — untranslates the
    /// canonical run into a concrete schedule and state of the real system.
    #[allow(clippy::too_many_arguments)]
    fn assemble_violation<F>(
        &self,
        tables: &ArenaTables<P>,
        canon: Option<&Canonicalizer>,
        invariant: &F,
        parents: &[Option<(usize, ProcId)>],
        gelems: &[u32],
        at: usize,
        vrow: &[u32],
        message: String,
    ) -> Violation<P>
    where
        F: Fn(&StateView<'_, P>) -> Result<(), String>,
    {
        let (m, n) = self.dims();
        let w = m + 3 * n;
        let mut edges: Vec<(ProcId, u32)> = Vec::new();
        let mut cur = at;
        while let Some((parent, p)) = parents[cur] {
            edges.push((p, gelems[cur]));
            cur = parent;
        }
        edges.reverse();
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
        let message = match invariant(&StateView::new(tables, &urow)) {
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

/// Who steps a BFS level's expansions before the engine's commit loop
/// consumes them.
trait Prefetch<P: Process, V>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// The derived successors of the parents with ids `level`, or `None`
    /// to let the commit loop step them itself.
    fn level(
        &mut self,
        tables: &mut ArenaTables<P>,
        store: &mut V,
        level: Range<usize>,
    ) -> Option<Prefetched>;
}

/// One worker: the commit loop steps every expansion straight into the
/// committed tables — no overlay, log, replay, threads or locks.
struct Inline;

impl<P, V> Prefetch<P, V> for Inline
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    fn level(&mut self, _: &mut ArenaTables<P>, _: &mut V, _: Range<usize>) -> Option<Prefetched> {
        None
    }
}

/// One level's successors as the crew hands them to the commit loop.
struct Prefetched {
    /// One entry per (parent, live process) step in serial order, up to
    /// `stop_at`.
    derived: std::vec::IntoIter<Option<Derived>>,
    /// `(parent position, process)` of the first step the crew could not
    /// take: stepping inline would exhaust the id space there (or fail to
    /// read the parent back), so the commit loop aborts on reaching it.
    stop_at: Option<(u32, u16)>,
}

/// One speculative expansion produced by a crew worker during the parallel
/// expand phase: the successor row in the worker's *provisional* id space,
/// plus enough provenance to commit it in exact serial order.
struct ExpRecord {
    /// Position of the parent within the level.
    parent_pos: u32,
    /// Process stepped to produce this successor.
    proc: u16,
    /// Worker whose overlay log (and provisional id space) the row uses.
    worker: u16,
    /// Range of that worker's overlay intern log this step appended.
    log_start: u32,
    /// Exclusive end of the log range.
    log_end: u32,
    /// The successor row; fresh slots carry provisional ids until patched.
    row: Box<[u32]>,
}

/// Per-record results of the parallel derive phase: the committed-id,
/// canonicalized successor row and everything speculated from it against
/// the level-frozen tables and store.
struct Derived {
    /// The patched, canonical row — byte-identical to what the commit loop
    /// would have produced stepping inline.
    row: Box<[u32]>,
    /// `hash_row` of the row, for the commit loop's store.
    hash: u64,
    /// Canonicalizing group element (0 without quotienting).
    gidx: u32,
    /// Orbit size of the canonical state (1 without quotienting).
    orbit: u64,
    /// Row was already present in the pre-level (frozen) store — the
    /// commit's lookup could only agree, so it skips the row outright.
    spec_dup: bool,
    /// Invariant verdict, pre-checked for rows that may be inserted; only
    /// applied if the commit actually inserts the row.
    inv_err: Option<String>,
}

/// Phase outputs of one crew worker for one BFS level.
struct WorkerOut<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Claimed level chunks (by start position) and their records.
    chunks: Vec<(usize, Vec<ExpRecord>)>,
    /// The worker's overlay intern log for the level.
    log: Option<OverlayLog<P>>,
    /// `(parent_pos, proc)` of a step that overran the hard id bound; the
    /// worker stopped claiming there.
    err_at: Option<(u32, u16)>,
    /// Chunks claimed beyond the worker's first this level.
    steals: u64,
    /// Derive-phase output: `(record index, derived data)`.
    derived: Vec<(usize, Derived)>,
}

/// What the commit loop lends the crew while a level is prefetched: the
/// committed tables and store, and the level's phase data.
struct Lent<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    tables: ArenaTables<P>,
    store: ShardedVisited,
    /// The level's parent rows, in pop order.
    rows: Vec<u32>,
    /// Table-committed expansions in serial order.
    records: Vec<ExpRecord>,
    /// Each worker's overlay intern log.
    logs: Vec<OverlayLog<P>>,
    /// Each worker's provisional → committed id maps, per slot table.
    maps: Vec<[Vec<u32>; 4]>,
}

/// The worker crew behind `run_until_intra` with more than one worker.
/// Each level runs four phases (DESIGN §15), the first and third on every
/// worker, the others on the thread running the commit loop:
///
/// 1. **Expand**: workers claim level chunks off an atomic cursor and step
///    every live process of every parent through per-worker
///    [`OverlayTables`], recording provisional-id rows and intern-log
///    ranges.
/// 2. **Table commit**: the chunks are merged back into serial `(parent,
///    process)` order and their overlay logs replayed into the committed
///    tables — which reproduces the serial id assignment bit-for-bit and
///    finds id-space exhaustion at the exact step the serial BFS would.
/// 3. **Derive**: provisional ids are patched to committed ones, rows
///    canonicalized, the level-frozen store probed, and the invariant
///    pre-checked.
/// 4. The derived rows go to the commit loop in serial order.
///
/// The locks are coarse — one acquisition per worker per phase, never on
/// the per-state path — and never contended across phases by construction
/// of the barrier protocol.
struct Crew<'c, P: Process, F>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    explorer: &'c Explorer<P>,
    invariant: &'c F,
    canon: Option<&'c Canonicalizer>,
    workers: usize,
    lent: RwLock<Lent<P>>,
    outs: Vec<Mutex<WorkerOut<P>>>,
    cursor: AtomicUsize,
    barrier: Barrier,
    done: AtomicBool,
}

impl<'c, P, F> Crew<'c, P, F>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    P::Value: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    P::Output: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    F: Fn(&StateView<'_, P>) -> Result<(), String> + Sync,
{
    fn new(
        explorer: &'c Explorer<P>,
        invariant: &'c F,
        canon: Option<&'c Canonicalizer>,
        workers: usize,
    ) -> Self {
        let (m, n) = explorer.dims();
        Crew {
            explorer,
            invariant,
            canon,
            workers,
            // Placeholders until the commit loop lends the real ones.
            lent: RwLock::new(Lent {
                tables: ArenaTables::new(m, n, explorer.id_cap),
                store: ShardedVisited::new(m + 3 * n, None),
                rows: Vec::new(),
                records: Vec::new(),
                logs: Vec::new(),
                maps: Vec::new(),
            }),
            outs: (0..workers)
                .map(|_| {
                    Mutex::new(WorkerOut {
                        chunks: Vec::new(),
                        log: None,
                        err_at: None,
                        steals: 0,
                        derived: Vec::new(),
                    })
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            barrier: Barrier::new(workers),
            done: AtomicBool::new(false),
        }
    }

    /// A spawned worker's life: one expand and one derive per level until
    /// the [`Crew::dismissal`] drops. The commit loop only runs between
    /// levels, while every worker is parked at the first barrier.
    fn work(&self, idx: usize) {
        loop {
            self.barrier.wait();
            if self.done.load(Ordering::Acquire) {
                break;
            }
            self.expand(idx);
            self.barrier.wait();
            self.barrier.wait();
            self.derive(idx);
            self.barrier.wait();
        }
    }

    /// A guard that lets the parked workers exit when it drops: after the
    /// commit loop returns, or while a panic unwinds it.
    fn dismissal(&self) -> Dismissal<'_> {
        Dismissal {
            done: &self.done,
            barrier: &self.barrier,
        }
    }

    /// Phase 1 on worker `idx`.
    fn expand(&self, idx: usize) {
        let (m, n) = self.explorer.dims();
        let w = m + 3 * n;
        let lent = self.lent.read().expect("crew lock");
        let parents = lent.rows.len() / w;
        let mut overlay = OverlayTables::new(&lent.tables);
        let mut chunks: Vec<(usize, Vec<ExpRecord>)> = Vec::new();
        let mut err_at: Option<(u32, u16)> = None;
        let mut steals = 0u64;
        let mut first = true;
        let mut scratch = vec![0u32; w];
        'claim: loop {
            let start = self.cursor.fetch_add(EXPAND_CHUNK, Ordering::Relaxed);
            if start >= parents {
                break;
            }
            if first {
                first = false;
            } else {
                steals += 1;
            }
            let end = (start + EXPAND_CHUNK).min(parents);
            let mut recs: Vec<ExpRecord> = Vec::new();
            for pos in start..end {
                let row = &lent.rows[pos * w..(pos + 1) * w];
                if row[m + n..m + 2 * n].iter().all(|&id| id == HALTED) {
                    continue;
                }
                for pi in 0..n {
                    if row[m + n + pi] == HALTED {
                        continue;
                    }
                    scratch.copy_from_slice(row);
                    let log_start = overlay.log_len() as u32;
                    let wirings = &self.explorer.wirings;
                    let stepped = if self.explorer.coarse_scans {
                        step_block_row_in(&mut overlay, &mut scratch, ProcId(pi), wirings)
                    } else {
                        step_row_in(&mut overlay, &mut scratch, ProcId(pi), wirings)
                    };
                    if stepped.is_err() {
                        // Provisional id overran the hard bound: the serial
                        // BFS aborts at or before this very step. Stop
                        // claiming; the table commit truncates to the
                        // serial abort point.
                        err_at = Some((pos as u32, pi as u16));
                        chunks.push((start, recs));
                        break 'claim;
                    }
                    recs.push(ExpRecord {
                        parent_pos: pos as u32,
                        proc: pi as u16,
                        worker: idx as u16,
                        log_start,
                        log_end: overlay.log_len() as u32,
                        row: scratch.clone().into_boxed_slice(),
                    });
                }
            }
            chunks.push((start, recs));
        }
        let log = overlay.into_log();
        let mut out = self.outs[idx].lock().expect("worker slot");
        out.chunks = chunks;
        out.log = Some(log);
        out.err_at = err_at;
        out.steals = steals;
    }

    /// Phase 3 on worker `idx`.
    fn derive(&self, idx: usize) {
        let (m, n) = self.explorer.dims();
        let lent = self.lent.read().expect("crew lock");
        let mut derived: Vec<(usize, Derived)> = Vec::new();
        let mut buf = vec![0u32; m + 3 * n];
        loop {
            let start = self.cursor.fetch_add(DERIVE_CHUNK, Ordering::Relaxed);
            if start >= lent.records.len() {
                break;
            }
            let end = (start + DERIVE_CHUNK).min(lent.records.len());
            for (i, r) in lent.records.iter().enumerate().take(end).skip(start) {
                let wk = r.worker as usize;
                let mut row = r.row.to_vec();
                lent.logs[wk].patch_row(m, n, &lent.maps[wk], &mut row);
                let (gidx, orbit) = if let Some(c) = self.canon {
                    let (g, orb) = c.canonicalize(&row, &mut buf);
                    std::mem::swap(&mut row, &mut buf);
                    (g, orb)
                } else {
                    (0u32, 1u64)
                };
                // A store error here is *not* authoritative — the commit
                // loop re-probes and aborts at the exact serial point if
                // the tier really is broken.
                let hash = hash_row(&row);
                let spec_dup = matches!(lent.store.lookup_shared(&row, hash), Ok(Some(_)));
                let inv_err = if spec_dup {
                    None
                } else {
                    (self.invariant)(&StateView::new(&lent.tables, &row)).err()
                };
                derived.push((
                    i,
                    Derived {
                        row: row.into_boxed_slice(),
                        hash,
                        gidx,
                        orbit,
                        spec_dup,
                        inv_err,
                    },
                ));
            }
        }
        self.outs[idx].lock().expect("worker slot").derived = derived;
    }

    /// Phase 2: merges the workers' chunks into serial order, truncates at
    /// the first step that cannot be taken (narrowing `stop_at` to it), and
    /// replays the overlay logs into the committed tables.
    fn commit_tables(&self, lent: &mut Lent<P>, stop_at: &mut Option<(u32, u16)>) {
        let mut logs: Vec<OverlayLog<P>> = Vec::with_capacity(self.workers);
        let mut chunks: Vec<(usize, Vec<ExpRecord>)> = Vec::new();
        for out in &self.outs {
            let mut o = out.lock().expect("worker slot");
            chunks.append(&mut o.chunks);
            logs.push(o.log.take().expect("the expand phase left a log"));
            if let Some(e) = o.err_at.take() {
                *stop_at = Some(stop_at.map_or(e, |cur| cur.min(e)));
            }
            if let Some(tel) = &self.explorer.telemetry {
                tel.steals.add(o.steals);
            }
        }
        chunks.sort_unstable_by_key(|&(start, _)| start);
        let mut records: Vec<ExpRecord> = chunks.into_iter().flat_map(|(_, recs)| recs).collect();
        // A worker that hit the hard id bound stopped claiming, but chunks
        // are handed out in increasing order, so every expansion serially
        // before the failed step is present — and the serial BFS would
        // have aborted at or before that step. Drop everything at or after
        // it.
        if let Some(e) = *stop_at {
            records.truncate(records.partition_point(|r| (r.parent_pos, r.proc) < e));
        }
        let mut maps: Vec<[Vec<u32>; 4]> = (0..self.workers)
            .map(|_| std::array::from_fn(|_| Vec::new()))
            .collect();
        let mut cursors: Vec<[usize; 4]> = vec![[0; 4]; self.workers];
        for (i, r) in records.iter().enumerate() {
            let wk = r.worker as usize;
            let range = r.log_start as usize..r.log_end as usize;
            if lent
                .tables
                .replay_slice(&logs[wk], range, &mut cursors[wk], &mut maps[wk])
                .is_err()
            {
                // The replay interns exactly the values the serial BFS
                // would intern, in the same order: this is the serial
                // abort step.
                *stop_at = Some((r.parent_pos, r.proc));
                records.truncate(i);
                break;
            }
        }
        // Every memo entry a worker logged holds committed ids only, so
        // merging them in any order leaves the memo a function of the
        // committed tables.
        for log in &logs {
            lent.tables.absorb(log);
        }
        lent.records = records;
        lent.logs = logs;
        lent.maps = maps;
    }
}

/// See [`Crew::dismissal`].
struct Dismissal<'a> {
    done: &'a AtomicBool,
    barrier: &'a Barrier,
}

impl Drop for Dismissal<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        self.barrier.wait();
    }
}

impl<P, F> Prefetch<P, ShardedVisited> for &Crew<'_, P, F>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    P::Value: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    P::Output: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    F: Fn(&StateView<'_, P>) -> Result<(), String> + Sync,
{
    fn level(
        &mut self,
        tables: &mut ArenaTables<P>,
        store: &mut ShardedVisited,
        level: Range<usize>,
    ) -> Option<Prefetched> {
        if level.len() <= EXPAND_CHUNK {
            // One claim covers the whole level, so there is nothing to
            // share: the commit loop steps it inline, skipping the barriers.
            return None;
        }
        let w = store.row_words();
        // The parents in pop order; one that cannot be read back stops the
        // level there, and the commit loop's own read of it aborts.
        let mut stop_at = None;
        let mut rows = vec![0u32; level.len() * w];
        for (pos, id) in level.enumerate() {
            if store
                .read_row(id, &mut rows[pos * w..(pos + 1) * w])
                .is_err()
            {
                rows.truncate(pos * w);
                stop_at = Some((pos as u32, 0));
                break;
            }
        }
        {
            let mut lent = self.lent.write().expect("crew lock");
            std::mem::swap(tables, &mut lent.tables);
            std::mem::swap(store, &mut lent.store);
            lent.rows = rows;
        }

        self.cursor.store(0, Ordering::Relaxed);
        self.barrier.wait(); // expand starts
        let expand_started = Instant::now();
        self.expand(0);
        self.barrier.wait(); // expand ends
        if let Some(tel) = &self.explorer.telemetry {
            let ns = u64::try_from(expand_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tel.expand_parallel.record_ns(ns);
        }
        self.commit_tables(&mut self.lent.write().expect("crew lock"), &mut stop_at);

        self.cursor.store(0, Ordering::Relaxed);
        self.barrier.wait(); // derive starts
        self.derive(0);
        self.barrier.wait(); // derive ends

        let mut lent = self.lent.write().expect("crew lock");
        let mut derived: Vec<Option<Derived>> = lent.records.iter().map(|_| None).collect();
        for out in &self.outs {
            for (i, d) in out.lock().expect("worker slot").derived.drain(..) {
                derived[i] = Some(d);
            }
        }
        std::mem::swap(tables, &mut lent.tables);
        std::mem::swap(store, &mut lent.store);
        Some(Prefetched {
            derived: derived.into_iter(),
            stop_at,
        })
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
        // `run` (in-memory), `run` under a spilling budget (tiered) and
        // `run_intra(_, 1)` (sharded) are the same engine over different
        // stores: same states, same order, same verdicts, byte for byte.
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
            let sharded = mk().run_intra(invariant, 1);
            assert_eq!(format!("{tiered:?}"), format!("{plain:?}"));
            assert_eq!(format!("{sharded:?}"), format!("{plain:?}"));
        }
    }

    #[test]
    fn intra_reports_match_serial_for_every_worker_count() {
        use fa_core::SnapshotProcess;
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
        let serial = mk().run(|_| Ok(()));
        assert!(serial.complete);
        for workers in [1, 2, 4, 8] {
            let intra = mk().run_intra(|_| Ok(()), workers);
            assert_eq!(
                format!("{serial:?}"),
                format!("{intra:?}"),
                "workers = {workers}"
            );
        }

        // Violating invariant: same state, same schedule, same message —
        // the serial pop order decides which violation is "first".
        let violating = |s: &StateView<'_, SnapshotProcess<u8>>| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("a snapshot was output".to_string())
            } else {
                Ok(())
            }
        };
        let serial = mk().run(violating);
        assert!(serial.violation.is_some());
        for workers in [1, 2, 4, 8] {
            let intra = mk().run_intra(violating, workers);
            assert_eq!(
                format!("{serial:?}"),
                format!("{intra:?}"),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn intra_composes_with_quotient_and_visited_budget() {
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
            .with_visited_budget(64)
        };
        let serial = mk().run(|_| Ok(()));
        assert!(serial.complete);
        assert!(serial.spilled_shards > 0, "budget of 64B must spill");
        for workers in [1, 2, 4, 8] {
            let intra = mk().run_intra(|_| Ok(()), workers);
            assert_eq!(
                format!("{serial:?}"),
                format!("{intra:?}"),
                "workers = {workers}"
            );
        }

        // Quotiented violation: the untranslation walk must emit the same
        // concrete schedule and real state regardless of worker count.
        let violating = |s: &StateView<'_, SnapshotProcess<u8>>| {
            if s.first_outputs().iter().any(Option::is_some) {
                Err("a snapshot was output".to_string())
            } else {
                Ok(())
            }
        };
        let serial = mk().run(violating);
        assert!(serial.violation.is_some());
        for workers in [1, 2, 4, 8] {
            let intra = mk().run_intra(violating, workers);
            assert_eq!(
                format!("{serial:?}"),
                format!("{intra:?}"),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn intra_matches_serial_on_caps_and_exhaustion() {
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
        // Hard id-space exhaustion: the commit replay must abort at the
        // exact serial step, so states/terminals agree byte-for-byte. The
        // larger caps run out on levels wide enough for the crew.
        for cap in [1, 2, 4, 8, 16, 32, 48] {
            let serial = base().with_id_cap(cap).run(|_| Ok(()));
            assert!(!serial.complete);
            for workers in [1, 3] {
                let intra = base().with_id_cap(cap).run_intra(|_| Ok(()), workers);
                assert_eq!(
                    format!("{serial:?}"),
                    format!("{intra:?}"),
                    "cap = {cap}, workers = {workers}"
                );
            }
        }
        // State cap and depth cap.
        let serial = base().with_max_states(7).run(|_| Ok(()));
        let intra = base().with_max_states(7).run_intra(|_| Ok(()), 4);
        assert_eq!(format!("{serial:?}"), format!("{intra:?}"));
        let serial = base().with_max_depth(2).run(|_| Ok(()));
        let intra = base().with_max_depth(2).run_intra(|_| Ok(()), 4);
        assert_eq!(format!("{serial:?}"), format!("{intra:?}"));
        // An external stop on entry aborts without touching the workers.
        let stopped = base().run_until_intra(|_| Ok(()), || true, 4);
        assert!(!stopped.complete);
        assert!(stopped.violation.is_none());
    }

    #[test]
    fn intra_telemetry_is_exact_and_never_changes_the_report() {
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
        let plain = mk().run_intra(|_| Ok(()), 4);

        let registry = MetricRegistry::new();
        let tel = ExplorerTelemetry::from_registry(&registry);
        let probed = mk().with_telemetry(tel.clone()).run_intra(|_| Ok(()), 4);

        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
        assert_eq!(tel.states.get(), plain.states as u64);
        assert_eq!(tel.visited_entries.get(), plain.states as u64);
        assert!(tel.visited_bytes.get() > 0);
        assert!(tel.interner_entries.get() > 0);
        // The expand span records once per committed BFS level.
        assert!(registry.span("mc.expand_parallel").calls() > 0);

        // Overlays probe only the frozen base memo, so the tallies do not
        // depend on which worker claimed which chunk: a second run repeats
        // them exactly, and the report is unchanged.
        let (hits, misses) = (tel.step_memo_hits.get(), tel.step_memo_misses.get());
        assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");
        let again = mk().with_telemetry(tel.clone()).run_intra(|_| Ok(()), 4);
        assert_eq!(format!("{again:?}"), format!("{plain:?}"));
        assert_eq!(tel.step_memo_hits.get(), 2 * hits);
        assert_eq!(tel.step_memo_misses.get(), 2 * misses);
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
