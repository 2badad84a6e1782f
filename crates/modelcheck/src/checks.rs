//! Ready-made model-checking harnesses for the paper's algorithms.
//!
//! Every harness sweeps all wiring combinations (mod relabeling). Combos are
//! fully independent, so the sweep fans them out across a scoped worker pool
//! (see [`CheckConfig::jobs`]). Determinism is preserved regardless of the
//! worker count:
//!
//! * combos are addressed by index ([`crate::wirings::ComboTable`]) and
//!   claimed from a shared atomic counter;
//! * when a worker finds a violation it lowers a shared *best* (lowest
//!   violating combo index) with `fetch_min`; workers poll it and abandon
//!   combos above it;
//! * a combo below the final best index is never skipped nor aborted, so it
//!   is always fully explored — the assembled report covers exactly combos
//!   `0..=best` (or all of them), the same set a serial sweep explores, and
//!   per-combo BFS is itself deterministic.
//!
//! Reports are therefore identical for `jobs = 1` and `jobs = N`; the only
//! thread-count-dependent data (wall-clock, worker count) lives in the
//! [`SweepEvent`] telemetry, not in the report.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fa_core::{ConsensusProcess, RenamingProcess, SnapshotProcess, View};
use fa_memory::{Process, Wiring};
use fa_obs::{MetricRegistry, SweepEvent};
use fa_tasks::{check_group_solution, AdaptiveRenaming, GroupAssignment, GroupId, Snapshot};

use crate::canon;
use crate::checkpoint::{
    self, CheckpointConfig, JournalHeader, JournalRecord, MemoryWatchdog, SweepJournal,
};
use crate::explorer::{Explorer, Invariant, OutputsOnly, Scratch};
use crate::strategy::{run_pool, ComboOutcome, StrategyKind};
use crate::telemetry::SweepTelemetry;
use crate::wirings::ComboTable;

/// Above this many total combos, sweeps skip the combo-level symmetry
/// quotient (whose representative table is linear in the combo count) and
/// rely on the per-combo row quotient alone — the n=5 sweep has
/// `(5!)^4 ≈ 2·10^8` combos, far past any useful table size.
const COMBO_QUOTIENT_LIMIT: usize = 1_000_000;

/// Sweep execution knobs, threaded through the `check_*_with` harnesses.
#[derive(Clone, Debug, Default)]
pub struct CheckConfig {
    /// Worker threads for the combo sweep. `None` (the default) uses the
    /// machine's available parallelism; `Some(1)` forces a serial sweep.
    pub jobs: Option<usize>,
    /// How many combo-pool threads the `jobs` budget buys (see
    /// [`StrategyKind`]; the default is all of it). Never changes the
    /// report.
    pub strategy: StrategyKind,
    /// Live-telemetry registry the sweep records `mc.*` metrics into.
    /// `None` (the default) keeps every telemetry hook compiled to a no-op
    /// branch; `Some` never changes the deterministic report.
    pub telemetry: Option<Arc<MetricRegistry>>,
    /// Quotient the sweep by the system's processor/register symmetry group
    /// (see [`crate::canon`]): combos are reduced to isomorphism-class
    /// representatives and each exploration dedups states by canonical
    /// orbit row. Verdicts, the lowest violating combo, and completeness
    /// are unchanged; state counts shrink and the report gains
    /// [`TaskCheckReport::quotient`].
    pub quotient: bool,
    /// Resident-byte budget for each exploration's visited set; beyond it,
    /// cold row shards spill to a checksummed disk tier (see
    /// [`crate::store`]). `None` keeps everything in memory. Never changes
    /// the deterministic report — spill failures surface as
    /// `complete: false`.
    pub visited_budget: Option<usize>,
    /// Crash-safe checkpointing (see [`crate::checkpoint`]): finished combo
    /// outcomes are journaled under a directory, spill shards are placed
    /// beside the journal, and with [`CheckpointConfig::resume`] a prior
    /// journal's recorded outcomes are replayed verbatim instead of
    /// re-explored. Never changes the deterministic report.
    pub checkpoint: Option<CheckpointConfig>,
    /// External abort flag the sweep polls alongside each combo's stop
    /// probe (signal handlers raise it to request a graceful stop; the
    /// memory watchdog raises it at the limit). An aborted sweep reports
    /// `complete: false` and journals nothing for the cut-short combos, so
    /// a resume re-explores exactly those.
    pub abort: Option<Arc<AtomicBool>>,
    /// RSS limit in bytes for the memory watchdog (see
    /// [`MemoryWatchdog`]): at the limit the sweep aborts gracefully to
    /// `complete: false` instead of dying to the OOM killer. It never
    /// changes what an exploration spills; only
    /// [`CheckConfig::visited_budget`] bounds the resident visited rows.
    pub memory_limit: Option<u64>,
}

impl CheckConfig {
    /// A serial sweep (`jobs = 1`).
    #[must_use]
    pub fn serial() -> Self {
        CheckConfig {
            jobs: Some(1),
            strategy: StrategyKind::Auto,
            telemetry: None,
            quotient: false,
            visited_budget: None,
            checkpoint: None,
            abort: None,
            memory_limit: None,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Sizes the combo pool (see [`CheckConfig::strategy`]). Kept only
    /// until the benchmark retires its e3-n3-intra2 workload.
    #[must_use]
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a live-telemetry registry (see [`CheckConfig::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, registry: Arc<MetricRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Enables the symmetry quotient (see [`CheckConfig::quotient`]).
    #[must_use]
    pub fn with_quotient(mut self) -> Self {
        self.quotient = true;
        self
    }

    /// Sets the visited-set memory budget in bytes (see
    /// [`CheckConfig::visited_budget`]).
    #[must_use]
    pub fn with_visited_budget(mut self, bytes: usize) -> Self {
        self.visited_budget = Some(bytes);
        self
    }

    /// Enables crash-safe checkpointing (see [`CheckConfig::checkpoint`]).
    #[must_use]
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Attaches an external abort flag (see [`CheckConfig::abort`]).
    #[must_use]
    pub fn with_abort(mut self, abort: Arc<AtomicBool>) -> Self {
        self.abort = Some(abort);
        self
    }

    /// Sets the RSS limit for the memory watchdog (see
    /// [`CheckConfig::memory_limit`]).
    #[must_use]
    pub fn with_memory_limit(mut self, bytes: u64) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    fn worker_count(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .max(1)
    }
}

/// Aggregate result of checking one property over all wiring combinations.
///
/// Deterministic for a given check and inputs: independent of the worker
/// count and of wall-clock (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskCheckReport {
    /// Wiring combinations explored. Equal to [`total_combos`] when the
    /// sweep ran to the end; smaller when it stopped at the first violating
    /// combination.
    ///
    /// [`total_combos`]: TaskCheckReport::total_combos
    pub combos: usize,
    /// Wiring combinations in the full sweep (after symmetry reduction).
    pub total_combos: usize,
    /// Total distinct states across the explored combinations.
    pub total_states: usize,
    /// `true` iff every combination's reachable space was fully explored —
    /// in particular `false` whenever a violation stopped the sweep with
    /// combinations still unexplored.
    pub complete: bool,
    /// Description of the lowest-combo-index violation found, if any
    /// (includes the wiring combination and a counterexample schedule).
    pub violation: Option<String>,
    /// Symmetry-quotient accounting; `Some` iff the sweep ran with
    /// [`CheckConfig::quotient`], so plain reports are unchanged.
    pub quotient: Option<QuotientStats>,
}

/// Accounting for a symmetry-quotiented sweep (see [`crate::canon`]).
///
/// `total_states` in the enclosing report counts *canonical* states with
/// every combo expanded through its class representative; this struct adds
/// the quotient-side ledger needed to reconstruct full-space totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuotientStats {
    /// Canonical (orbit-representative) states across the distinct
    /// representative combos actually explored in the attempted prefix.
    pub canonical_states: usize,
    /// Estimated full-space state total across the attempted prefix:
    /// per-combo orbit sizes summed during exploration, each combo expanded
    /// through its representative. Exact (not an estimate) on complete runs.
    pub full_states_estimate: u64,
    /// Distinct representative combos explored in the attempted prefix.
    pub combos_explored: usize,
    /// Visited shards spilled to the disk tier across explored combos: 0
    /// unless a [`CheckConfig::visited_budget`] forced rows out. Fixed by
    /// the budget and each combo's insert order, like every other count.
    pub spilled_shards: usize,
}

impl QuotientStats {
    /// Quotient compression factor: estimated full-space states over
    /// canonical states (1.0 when the symmetry group is trivial).
    #[must_use]
    pub fn orbit_factor(&self) -> f64 {
        if self.canonical_states == 0 {
            1.0
        } else {
            self.full_states_estimate as f64 / self.canonical_states as f64
        }
    }
}

/// A sweep's deterministic report plus its telemetry.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The deterministic verdict.
    pub report: TaskCheckReport,
    /// Throughput/shape telemetry. Carries wall-clock and the worker count,
    /// so it is *not* comparable across `jobs` values — the report is.
    pub telemetry: SweepEvent,
}

/// Fans the per-combo explorations of one harness across the combo pool
/// ([`run_pool`]) and assembles the deterministic report (module docs).
///
/// `scope` fingerprints the harness inputs the combo table does not capture
/// (input values, state caps, depth caps — see [`checkpoint::scope_of`]);
/// it pins a checkpoint journal to one exact sweep so `--resume` under a
/// different configuration fails loudly instead of splicing reports.
///
/// `invariant` is a `Fn(&StateView)` closure or, when it reads only the
/// first outputs and the all-halted bit, an [`OutputsOnly`] predicate,
/// whose verdicts each worker memoizes beside its tables.
///
/// Errors are reserved for the crash-safety layer: an unreadable or
/// mismatched journal, or a journal write failure mid-sweep. Without a
/// [`CheckConfig::checkpoint`] this never returns `Err`.
pub(crate) fn run_sweep<P, MkE, F>(
    check: &'static str,
    n: usize,
    config: &CheckConfig,
    scope: u64,
    make_explorer: MkE,
    invariant: F,
    violation_prefix: &str,
) -> Result<CheckOutcome, String>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    P::Value: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    P::Output: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
    MkE: Fn(Vec<Arc<Wiring>>) -> Explorer<P> + Sync,
    F: Invariant<P> + Sync,
{
    let table = ComboTable::new(n, n);
    let total = table.len();
    let jobs = config.worker_count().min(total.max(1));
    let start = Instant::now();

    // Combo-level quotient: two wiring combinations related by a
    // class-preserving processor permutation (with each wiring renormalized
    // so processor 0's is the identity) explore isomorphic state spaces, so
    // only class representatives need running. `reps[i] <= i` and the
    // representative of the lowest violating combo *is* the lowest violating
    // combo, so the assembled report's `violation`/`combos` are unchanged.
    let reps = if config.quotient && total <= COMBO_QUOTIENT_LIMIT {
        let classes = make_explorer(table.combo(0)).initial_symmetry_classes();
        canon::combo_reps(n, n, &classes)
    } else {
        None
    };
    // Compacted exploration list (canonical combo indices, ascending) plus
    // the full-index -> list-position map the assembly reads back through.
    let (explore, pos) = match &reps {
        Some(reps) => {
            let mut explore = Vec::new();
            let mut pos = vec![usize::MAX; total];
            for (c, &r) in reps.iter().enumerate() {
                if r == c {
                    pos[c] = explore.len();
                    explore.push(c);
                }
            }
            (explore, pos)
        }
        None => ((0..total).collect::<Vec<_>>(), (0..total).collect()),
    };

    // Live telemetry (optional): phase spans and progress counters, shared
    // by every worker. The deterministic report below never reads them.
    let telemetry = config
        .telemetry
        .as_deref()
        .map(SweepTelemetry::from_registry);
    if let Some(tel) = &telemetry {
        tel.combos_total.set(total as u64);
        tel.jobs.set(jobs as u64);
    }

    // Crash safety (optional): open or resume the checkpoint journal, whose
    // header pins this exact sweep, and collect the outcomes a prior run
    // already recorded. Per-combo BFS is deterministic, so replaying a
    // recorded outcome verbatim equals re-exploring it.
    let fingerprint =
        checkpoint::sweep_fingerprint(check, n, total, explore.len(), config.quotient, scope);
    let mut recovered: HashMap<usize, ComboOutcome> = HashMap::new();
    let journal: Option<Arc<Mutex<SweepJournal>>> = match &config.checkpoint {
        None => None,
        Some(cp) => {
            let header = JournalHeader {
                check: check.to_string(),
                n: n as u64,
                total_combos: total as u64,
                fingerprint,
            };
            std::fs::create_dir_all(cp.dir.join(checkpoint::SPILL_SUBDIR)).map_err(|e| {
                format!(
                    "cannot create checkpoint directory {}: {e}",
                    cp.dir.display()
                )
            })?;
            let journal = if cp.resume && SweepJournal::exists(&cp.dir) {
                let (journal, recovery) = SweepJournal::open_resume(&cp.dir)
                    .map_err(|e| format!("cannot resume from {}: {e}", cp.dir.display()))?;
                if recovery.header != header {
                    return Err(format!(
                        "checkpoint mismatch in {}: journal was written by check {:?} \
                         (n={}, {} combos, fingerprint {:#018x}) but this sweep is {check:?} \
                         (n={n}, {total} combos, fingerprint {fingerprint:#018x}); \
                         use a fresh checkpoint dir or drop --resume",
                        cp.dir.display(),
                        recovery.header.check,
                        recovery.header.n,
                        recovery.header.total_combos,
                        recovery.header.fingerprint,
                    ));
                }
                recovered = recovery.completed;
                journal
            } else {
                SweepJournal::create(&cp.dir, &header).map_err(|e| {
                    format!(
                        "cannot create checkpoint journal in {}: {e}",
                        cp.dir.display()
                    )
                })?
            };
            Some(Arc::new(Mutex::new(journal)))
        }
    };
    let spill_dir = config
        .checkpoint
        .as_ref()
        .map(|cp| cp.dir.join(checkpoint::SPILL_SUBDIR));
    if let Some(tel) = &telemetry {
        tel.ckpt.recovered.set(recovered.len() as u64);
    }

    // Graceful degradation: one abort flag every combo's stop probe watches.
    // Signal handlers (bench binaries) and the memory watchdog raise it;
    // aborted combos report incomplete and are never journaled as done.
    let abort: Arc<AtomicBool> = config.abort.clone().unwrap_or_default();
    let watchdog = config
        .memory_limit
        .map(|limit| MemoryWatchdog::start(limit, Arc::clone(&abort)));

    // First journal append failure, if any: it aborts the sweep (durability
    // is gone, so keeping going would checkpoint nothing) and surfaces as a
    // loud `Err` after the pool winds down.
    let journal_error: Mutex<Option<String>> = Mutex::new(None);
    let journal_append = |record: &JournalRecord| {
        let Some(journal) = &journal else { return };
        let mut guard = journal.lock().expect("journal lock");
        match guard.append(record) {
            Ok(()) => {
                if let Some(tel) = &telemetry {
                    tel.ckpt.records.inc();
                    tel.ckpt.journal_bytes.set(guard.bytes_written());
                    tel.ckpt.syncs.set(guard.syncs());
                }
            }
            Err(e) => {
                drop(guard);
                journal_error
                    .lock()
                    .expect("journal error lock")
                    .get_or_insert_with(|| e.to_string());
                abort.store(true, Ordering::Relaxed);
            }
        }
    };

    // One combo exploration, handed to the pool: deterministic per index
    // (modulo the pool's `stop` probe), telemetry included.
    // `scratch` is the claiming worker's: its tables and buffers carry over
    // from the worker's previous combos without changing any outcome.
    let run_combo = |scratch: &mut Scratch<P>, i: usize, stop: &dyn Fn() -> bool| -> ComboOutcome {
        if let Some(done) = recovered.get(&i) {
            // Recorded by a prior run of this exact sweep: replay verbatim.
            if let Some(tel) = &telemetry {
                tel.combos_done.inc();
                tel.combo_states.record(done.states as u64);
            }
            return done.clone();
        }
        let claim_guard = telemetry.as_ref().map(|t| t.claim.enter());
        let combo = table.combo(i);
        drop(claim_guard);
        let mut explorer = make_explorer(combo.clone());
        if config.quotient {
            explorer = explorer.with_quotient();
        }
        if let Some(budget) = config.visited_budget {
            explorer = explorer.with_visited_budget(budget);
        }
        if let Some(tel) = &telemetry {
            explorer = explorer.with_telemetry(tel.explorer.clone());
        }
        if let Some(dir) = &spill_dir {
            explorer = explorer.with_spill_dir(dir.clone());
        }
        // Whether this exploration was ever told to stop: cut-short outcomes
        // depend on scheduling, so they must never be journaled as done.
        let stopped = AtomicBool::new(false);
        let expand_guard = telemetry.as_ref().map(|t| t.expand.enter());
        let probe = || {
            let s = stop() || abort.load(Ordering::Relaxed);
            if s {
                stopped.store(true, Ordering::Relaxed);
            }
            s
        };
        let result = explorer.run_in(&invariant, &probe, scratch);
        drop(expand_guard);
        if let Some(tel) = &telemetry {
            tel.combos_done.inc();
            tel.combo_states.record(result.states as u64);
        }
        let outcome = ComboOutcome {
            states: result.states,
            complete: result.complete,
            full_states_est: result.full_states_estimate,
            spilled_shards: result.spilled_shards,
            violation: result.violation.map(|v| {
                format!(
                    "{violation_prefix}wirings {:?}: {} (schedule {:?})",
                    combo.iter().map(ToString::to_string).collect::<Vec<_>>(),
                    v.message,
                    v.schedule
                )
            }),
        };
        if !stopped.load(Ordering::Relaxed) {
            journal_append(&JournalRecord::ComboDone {
                combo: i as u64,
                outcome: outcome.clone(),
            });
            checkpoint::crash_point("journal.done");
        }
        outcome
    };

    let slots = run_pool(
        config.strategy.pool_size(jobs),
        explore.len(),
        Scratch::default,
        |scratch, k, stop| run_combo(scratch, explore[k], stop),
    );

    // Final checkpoint: everything journaled so far is durable before the
    // report is assembled (signal-driven aborts land here too, so a graceful
    // shutdown always leaves a synced journal behind).
    if let Some(e) = journal_error.lock().expect("journal error lock").take() {
        return Err(format!("checkpoint journal write failed: {e}"));
    }
    if let Some(journal) = &journal {
        journal
            .lock()
            .expect("journal lock")
            .sync()
            .map_err(|e| format!("checkpoint journal final sync failed: {e}"))?;
    }
    drop(watchdog);

    // Every full combo index reads its outcome through its representative's
    // slot (the identity mapping when the combo quotient is off).
    let outcome_of = |i: usize| -> Option<&ComboOutcome> {
        slots[pos[reps.as_ref().map_or(i, |r| r[i])]].as_ref()
    };

    // Assemble from combos 0..=best only (best = lowest violating index):
    // those are exactly the combos a serial sweep explores, and the pool
    // guarantees each was fully explored, never skipped or aborted.
    // Representatives of combos below `best` sit below `best`'s own slot in
    // the compacted list (reps[i] <= i and positions are ascending), so the
    // prefix contract carries over to the quotiented sweep.
    let first_violation = (0..total)
        .find(|&i| outcome_of(i).is_some_and(|o| o.violation.is_some()))
        .unwrap_or(usize::MAX);
    let attempted = if first_violation < total {
        first_violation + 1
    } else {
        total
    };
    let mut per_combo_states = Vec::with_capacity(attempted);
    let mut total_states = 0usize;
    let mut all_complete = true;
    let mut violation = None;
    let mut quotient = config.quotient.then(QuotientStats::default);
    for i in 0..attempted {
        let outcome = outcome_of(i).expect("combos up to the first violation are always explored");
        per_combo_states.push(outcome.states);
        total_states += outcome.states;
        all_complete &= outcome.complete;
        if i == first_violation {
            violation.clone_from(&outcome.violation);
        }
        if let Some(q) = &mut quotient {
            q.full_states_estimate += outcome.full_states_est.unwrap_or(outcome.states as u64);
            if reps.as_ref().map_or(true, |r| r[i] == i) {
                q.combos_explored += 1;
                q.canonical_states += outcome.states;
                q.spilled_shards += outcome.spilled_shards;
            }
        }
    }
    let complete = violation.is_none() && attempted == total && all_complete;
    if let (Some(tel), Some(q)) = (&telemetry, &quotient) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        tel.orbit_factor.set((q.orbit_factor() * 1000.0) as u64);
    }

    Ok(CheckOutcome {
        report: TaskCheckReport {
            combos: attempted,
            total_combos: total,
            total_states,
            complete,
            violation,
            quotient,
        },
        telemetry: SweepEvent {
            check: check.to_string(),
            jobs,
            combos_attempted: attempted,
            combos_total: total,
            states: total_states,
            peak_combo_states: per_combo_states.iter().copied().max().unwrap_or(0),
            per_combo_states,
            elapsed_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        },
    })
}

/// Checkpoint scope for a harness: fingerprints the raw inputs plus every
/// cap/knob that shapes its sweep (see [`checkpoint::scope_of`]).
pub(crate) fn harness_scope(inputs: &[u32], caps: &[u64]) -> u64 {
    let inputs: Vec<u64> = inputs.iter().map(|&x| u64::from(x)).collect();
    checkpoint::scope_of(&inputs, caps)
}

/// Maps raw `u32` inputs to dense [`GroupId`]s (equal inputs = same group).
fn group_assignment(inputs: &[u32]) -> GroupAssignment {
    let mut ids: BTreeMap<u32, usize> = BTreeMap::new();
    for &i in inputs {
        let next = ids.len();
        ids.entry(i).or_insert(next);
    }
    GroupAssignment::new(inputs.iter().map(|i| GroupId(ids[i])).collect())
}

fn view_to_groups(view: &View<u32>, inputs: &[u32]) -> std::collections::BTreeSet<GroupId> {
    let groups = group_assignment(inputs);
    let mut ids: BTreeMap<u32, GroupId> = BTreeMap::new();
    for (p, &i) in inputs.iter().enumerate() {
        ids.insert(i, groups.group_of(p));
    }
    view.iter().map(|v| ids[&v]).collect()
}

/// Exhaustively checks that the snapshot algorithm of Figure 3 solves the
/// snapshot task for the given inputs, over **every** interleaving and
/// **every** wiring combination (modulo register relabeling) — the native
/// replay of the paper's TLC check (E3).
///
/// Invariants checked on every reachable state:
/// * every output produced so far contains the outputter's own input and
///   only participating inputs;
/// * every two outputs produced so far are containment-related (this
///   algorithm guarantees more than group solvability requires);
///
/// and on terminal states, full group solvability of the snapshot task.
///
/// # Errors
///
/// Returns the report with `violation: Some(..)` on a counterexample — never
/// an `Err`; the `Result` is reserved for harness misuse.
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_snapshot_task(
    inputs: &[u32],
    max_states_per_combo: usize,
) -> Result<TaskCheckReport, String> {
    check_snapshot_task_with(inputs, max_states_per_combo, &CheckConfig::default())
        .map(|o| o.report)
}

/// [`check_snapshot_task`] with explicit sweep configuration, returning
/// telemetry alongside the report.
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_snapshot_task_with(
    inputs: &[u32],
    max_states_per_combo: usize,
    config: &CheckConfig,
) -> Result<CheckOutcome, String> {
    snapshot_sweep(inputs, None, false, max_states_per_combo, config)
}

/// Like [`check_snapshot_task_with`] but at PlusCal *label* granularity
/// (whole scans atomic) — the exact configuration of the paper's TLC run,
/// which is what makes the full 3-processor sweep exhaustible.
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_snapshot_task_coarse_with(
    inputs: &[u32],
    max_states_per_combo: usize,
    config: &CheckConfig,
) -> Result<CheckOutcome, String> {
    snapshot_sweep(inputs, None, true, max_states_per_combo, config)
}

/// The one Figure 3 sweep behind every snapshot harness. `level: None`
/// runs the paper's algorithm (termination level `n`) under the full
/// invariant; `Some(l)` runs the ablation at level `l` under the task
/// invariant alone, and tags its check name, scope and violations with the
/// level. `coarse` makes whole scans atomic.
fn snapshot_sweep(
    inputs: &[u32],
    level: Option<usize>,
    coarse: bool,
    max_states_per_combo: usize,
    config: &CheckConfig,
) -> Result<CheckOutcome, String> {
    let n = inputs.len();
    assert!(n >= 2, "the model requires at least two processors");
    let groups = group_assignment(inputs);
    let all_inputs: View<u32> = inputs.iter().copied().collect();
    let cap = max_states_per_combo as u64;
    let (check, caps) = match level {
        None if coarse => ("snapshot_task_coarse", vec![cap]),
        None => ("snapshot_task", vec![cap]),
        Some(l) => ("snapshot_task_at_level", vec![l as u64, cap]),
    };
    let prefix = level.map_or_else(String::new, |l| format!("level {l}, "));
    let terminate_level = level.unwrap_or(n);
    run_sweep(
        check,
        n,
        config,
        harness_scope(inputs, &caps),
        |combo| {
            let procs: Vec<SnapshotProcess<u32>> = inputs
                .iter()
                .map(|&x| SnapshotProcess::with_terminate_level(x, n, terminate_level))
                .collect();
            let explorer = Explorer::new(procs, n, Default::default(), combo)
                .with_max_states(max_states_per_combo);
            if coarse {
                explorer.with_coarse_scans()
            } else {
                explorer
            }
        },
        OutputsOnly(|outputs: &[Option<View<u32>>], halted: bool| {
            snapshot_invariant(
                outputs,
                halted,
                inputs,
                &all_inputs,
                &groups,
                level.is_none(),
            )
        }),
        &prefix,
    )
}

/// The invariants listed on [`check_snapshot_task`], on each process's
/// first output and whether all halted; `all_inputs` is the view of
/// `inputs`. `comparable: false` drops only the pairwise clause, for
/// ablations at a lowered level: they may break it while the task itself
/// is still group-solved.
fn snapshot_invariant(
    outputs: &[Option<View<u32>>],
    all_halted: bool,
    inputs: &[u32],
    all_inputs: &View<u32>,
    groups: &GroupAssignment,
    comparable: bool,
) -> Result<(), String> {
    // Fast path: when every present output is a packed 64-bit view, the
    // whole pairwise-comparability clause collapses to one batch chain check
    // over the raw masks (SIMD-friendly, no per-pair deep compares). The
    // containment clauses below then only need the per-output checks.
    let pairs_hold = !comparable || {
        let masks: Option<Vec<u64>> = outputs
            .iter()
            .flatten()
            .map(View::as_small)
            .map(|s| s.map(fa_core::SmallView::mask))
            .collect();
        masks.as_deref().map(fa_core::SmallView::chain_comparable) == Some(true)
    };
    for (i, out) in outputs.iter().enumerate() {
        let Some(view) = out else { continue };
        if !view.contains(&inputs[i]) {
            return Err(format!("output of p{i} misses its own input"));
        }
        if !view.is_subset(all_inputs) {
            return Err(format!("output of p{i} contains non-input values"));
        }
        if pairs_hold {
            continue;
        }
        for (j, other) in outputs.iter().enumerate() {
            if let Some(w) = other {
                if !view.comparable(w) {
                    return Err(format!("outputs of p{i} and p{j} are incomparable"));
                }
            }
        }
    }
    if all_halted {
        let opt_outputs: Vec<Option<std::collections::BTreeSet<GroupId>>> = outputs
            .iter()
            .map(|o| o.as_ref().map(|v| view_to_groups(v, inputs)))
            .collect();
        check_group_solution(&Snapshot, groups, &opt_outputs)
            .map_err(|e| format!("terminal group-solvability violation: {e}"))?;
    }
    Ok(())
}

/// Exhaustively checks the renaming algorithm (Figure 4) against the
/// adaptive-renaming task with bound `M(M+1)/2` (E6, small scope).
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_renaming(
    inputs: &[u32],
    max_states_per_combo: usize,
) -> Result<TaskCheckReport, String> {
    check_renaming_with(inputs, max_states_per_combo, &CheckConfig::default()).map(|o| o.report)
}

/// [`check_renaming`] with explicit sweep configuration, returning telemetry
/// alongside the report.
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_renaming_with(
    inputs: &[u32],
    max_states_per_combo: usize,
    config: &CheckConfig,
) -> Result<CheckOutcome, String> {
    let n = inputs.len();
    assert!(n >= 2, "the model requires at least two processors");
    let groups = group_assignment(inputs);
    run_sweep(
        "renaming",
        n,
        config,
        harness_scope(inputs, &[max_states_per_combo as u64]),
        |combo| {
            let procs: Vec<RenamingProcess<u32>> =
                inputs.iter().map(|&x| RenamingProcess::new(x, n)).collect();
            Explorer::new(procs, n, Default::default(), combo).with_max_states(max_states_per_combo)
        },
        OutputsOnly(|outputs: &[Option<usize>], all_halted: bool| {
            // Partial check: names of different groups never collide.
            for i in 0..outputs.len() {
                for j in (i + 1)..outputs.len() {
                    if let (Some(a), Some(b)) = (&outputs[i], &outputs[j]) {
                        if a == b && inputs[i] != inputs[j] {
                            return Err(format!(
                                "cross-group name collision: p{i} and p{j} took {a}"
                            ));
                        }
                    }
                }
            }
            if all_halted {
                check_group_solution(&AdaptiveRenaming::quadratic(), &groups, outputs)
                    .map_err(|e| format!("terminal renaming violation: {e}"))?;
            }
            Ok(())
        }),
        "",
    )
}

/// Bounded-depth check of consensus safety (agreement + validity) for the
/// obstruction-free algorithm of Figure 5 (E7, small scope). The state space
/// is unbounded (timestamps grow), so the check is exhaustive only up to
/// `max_depth` steps.
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_consensus_safety(
    inputs: &[u32],
    max_states_per_combo: usize,
    max_depth: usize,
) -> Result<TaskCheckReport, String> {
    check_consensus_safety_with(
        inputs,
        max_states_per_combo,
        max_depth,
        &CheckConfig::default(),
    )
    .map(|o| o.report)
}

/// [`check_consensus_safety`] with explicit sweep configuration, returning
/// telemetry alongside the report.
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn check_consensus_safety_with(
    inputs: &[u32],
    max_states_per_combo: usize,
    max_depth: usize,
    config: &CheckConfig,
) -> Result<CheckOutcome, String> {
    let n = inputs.len();
    assert!(n >= 2, "the model requires at least two processors");
    run_sweep(
        "consensus_safety",
        n,
        config,
        harness_scope(inputs, &[max_states_per_combo as u64, max_depth as u64]),
        |combo| {
            let procs: Vec<ConsensusProcess<u32>> = inputs
                .iter()
                .map(|&x| ConsensusProcess::new(x, n))
                .collect();
            Explorer::new(procs, n, Default::default(), combo)
                .with_max_states(max_states_per_combo)
                .with_max_depth(max_depth)
        },
        OutputsOnly(|outputs: &[Option<u32>], _all_halted: bool| {
            let decided: Vec<(usize, u32)> = outputs
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.map(|d| (i, d)))
                .collect();
            for (i, d) in &decided {
                if !inputs.contains(d) {
                    return Err(format!("p{i} decided non-input value {d}"));
                }
            }
            for w in decided.windows(2) {
                if w[0].1 != w[1].1 {
                    return Err(format!(
                        "disagreement: p{} decided {}, p{} decided {}",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
            Ok(())
        }),
        "",
    )
}

/// The wait-freedom certificate: from **every** reachable state, every live
/// processor running solo halts within `solo_budget` of its own steps.
/// This is the "wait-free" half of the paper's TLC claim for Figure 3.
///
/// Exhaustive over interleavings for the given wirings; quantifying over
/// wirings is the caller's loop (it is expensive). Wirings may be owned
/// (`Vec<Wiring>`) or shared (`Vec<Arc<Wiring>>`, e.g. a decoded combo).
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() != wirings.len()` or `inputs.len() < 2`.
pub fn check_snapshot_wait_freedom<W: Into<Arc<Wiring>>>(
    inputs: &[u32],
    wirings: Vec<W>,
    max_states: usize,
    solo_budget: usize,
) -> Result<TaskCheckReport, String> {
    let n = inputs.len();
    assert!(n >= 2, "the model requires at least two processors");
    assert_eq!(n, wirings.len(), "one wiring per processor required");
    let wirings: Vec<Arc<Wiring>> = wirings.into_iter().map(Into::into).collect();
    let procs: Vec<SnapshotProcess<u32>> =
        inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    let explorer =
        Explorer::new(procs, n, Default::default(), wirings.clone()).with_max_states(max_states);
    let result = explorer.run(move |state| {
        for p in state.live() {
            // Solo runs re-step the state, which needs the materialized
            // `McState` — the one invariant that pays a decode per state.
            let mut cur = state.to_state();
            let mut halted = false;
            for _ in 0..solo_budget {
                match cur.step(p, &wirings) {
                    Some(next) => cur = next,
                    None => {
                        halted = true;
                        break;
                    }
                }
            }
            if !halted && cur.pending[p.0].is_some() {
                return Err(format!(
                    "{p} does not terminate within {solo_budget} solo steps"
                ));
            }
        }
        Ok(())
    });
    Ok(TaskCheckReport {
        combos: 1,
        total_combos: 1,
        total_states: result.states,
        complete: result.complete,
        violation: result
            .violation
            .map(|v| format!("{} (schedule {:?})", v.message, v.schedule)),
        quotient: None,
    })
}

/// Sanity check used by the ablation experiment: running the snapshot
/// algorithm with a *lowered* termination level and checking the snapshot
/// task. Level `n` (the paper) and `n−1` (footnote 4) pass; level 1
/// (a double collect) is expected to fail for some wiring at `n ≥ 3`. The
/// pairwise-comparability clause of [`check_snapshot_task`] is not checked
/// here, only the task.
///
/// # Errors
///
/// Reserved for harness misuse (violations are reported in the report).
///
/// # Panics
///
/// Panics if `inputs.len() < 2` or `terminate_level == 0`.
pub fn check_snapshot_task_at_level(
    inputs: &[u32],
    terminate_level: usize,
    max_states_per_combo: usize,
) -> Result<TaskCheckReport, String> {
    snapshot_sweep(
        inputs,
        Some(terminate_level),
        false,
        max_states_per_combo,
        &CheckConfig::default(),
    )
    .map(|o| o.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::StateView;
    use fa_memory::{Action, StepInput};

    #[test]
    fn two_processor_snapshot_is_exhaustively_correct() {
        let report = check_snapshot_task(&[1, 2], 500_000).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.complete);
        assert_eq!(report.combos, 2); // 2!^(2-1)
        assert_eq!(report.total_combos, 2);
        assert!(report.total_states > 100);
    }

    #[test]
    fn two_processor_same_group_snapshot_correct() {
        let report = check_snapshot_task(&[5, 5], 500_000).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.complete);
    }

    #[test]
    fn two_processor_renaming_is_exhaustively_correct() {
        let report = check_renaming(&[1, 2], 500_000).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.complete);
    }

    #[test]
    fn two_processor_consensus_safe_to_depth() {
        // Depth 200 exceeds the depth (≈ 53) at which this same check found
        // the unseen-competitor disagreement in the naive decision rule, so
        // it now serves as the regression harness for that fix.
        let report = check_consensus_safety(&[1, 2], 600_000, 200).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    #[test]
    fn wait_freedom_certificate_two_procs() {
        let wirings = vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()];
        let n = 2;
        let budget = 8 * n * (n + 2) + 16;
        let report = check_snapshot_wait_freedom(&[1, 2], wirings, 500_000, budget).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.complete);
    }

    #[test]
    fn paper_level_n_passes_small_scope() {
        let report = check_snapshot_task_at_level(&[1, 2], 2, 500_000).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    #[test]
    fn footnote4_level_n_minus_1_passes_two_procs() {
        let report = check_snapshot_task_at_level(&[1, 2], 1, 500_000).unwrap();
        // For n = 2 the footnote-4 level is n-1 = 1. The paper says this
        // suffices (with a harder proof). The checker verifies it for n=2.
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    #[test]
    fn snapshot_sweep_is_deterministic_across_jobs() {
        let serial = check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::serial()).unwrap();
        let parallel =
            check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::default().with_jobs(2))
                .unwrap();
        assert_eq!(serial.report, parallel.report);
        // The deterministic slice of the telemetry matches too.
        assert_eq!(
            serial.telemetry.per_combo_states,
            parallel.telemetry.per_combo_states
        );
        assert_eq!(serial.telemetry.check, "snapshot_task");
        assert_eq!(serial.telemetry.combos_total, 2);
    }

    /// Writes its input to local register 0, then halts. A sweep over its
    /// wirings has a violation exactly when a chosen wiring routes the
    /// watched value to a watched register — which combos violate is a pure
    /// function of the combo index, ideal for driver determinism tests.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct WriteOnce {
        input: u8,
        wrote: bool,
    }
    impl Process for WriteOnce {
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

    fn write_once_sweep(jobs: usize) -> CheckOutcome {
        write_once_sweep_with(&CheckConfig::default().with_jobs(jobs))
            .expect("uncheckpointed sweeps never error")
    }

    fn write_once_sweep_with(config: &CheckConfig) -> Result<CheckOutcome, String> {
        run_sweep(
            "write_once",
            3,
            config,
            0,
            |combo| {
                let procs = vec![
                    WriteOnce {
                        input: 1,
                        wrote: false,
                    },
                    WriteOnce {
                        input: 2,
                        wrote: false,
                    },
                    WriteOnce {
                        input: 3,
                        wrote: false,
                    },
                ];
                Explorer::new(procs, 3, 0u8, combo)
            },
            // Violated iff p2's wiring maps local 0 to global 2 (value 3 is
            // only ever written by p2): perm indices 4 and 5 of S_3, i.e.
            // combo indices 24..36. Lowest violating index: 24.
            |state: &StateView<'_, WriteOnce>| {
                if *state.memory(2) == 3 {
                    Err("register 2 holds 3".to_string())
                } else {
                    Ok(())
                }
            },
            "",
        )
    }

    /// A fully symmetric violating sweep: three *identical* writers (full
    /// S₃ symmetry) and a value-based (hence group-invariant) invariant
    /// that trips whenever two registers hold the written value — i.e. on
    /// every combo except those wiring all three local 0s to global 0.
    /// Lowest violating combo: 2 (the first wiring moving local 0).
    fn symmetric_toy_sweep(config: &CheckConfig) -> CheckOutcome {
        run_sweep(
            "write_once_symmetric",
            3,
            config,
            0,
            |combo| {
                let procs = vec![
                    WriteOnce {
                        input: 1,
                        wrote: false,
                    };
                    3
                ];
                Explorer::new(procs, 3, 0u8, combo)
            },
            |state: &StateView<'_, WriteOnce>| {
                let hits = (0..3).filter(|&r| *state.memory(r) == 1).count();
                if hits >= 2 {
                    Err(format!("{hits} registers hold 1"))
                } else {
                    Ok(())
                }
            },
            "",
        )
        .expect("uncheckpointed sweeps never error")
    }

    #[test]
    fn quotiented_symmetric_sweep_is_exact_and_compresses() {
        // Same fully symmetric system with a vacuous invariant: the sweep
        // completes, so the quotient's full-space estimate must reproduce
        // the plain total *exactly*, while exploring a fraction of it.
        let noop = |config: &CheckConfig| {
            run_sweep(
                "write_once_noop",
                3,
                config,
                0,
                |combo| {
                    let procs = vec![
                        WriteOnce {
                            input: 1,
                            wrote: false,
                        };
                        3
                    ];
                    Explorer::new(procs, 3, 0u8, combo)
                },
                |_: &StateView<'_, WriteOnce>| Ok(()),
                "",
            )
            .expect("uncheckpointed sweeps never error")
            .report
        };
        let plain = noop(&CheckConfig::serial());
        let quot = noop(&CheckConfig::serial().with_quotient());
        assert!(plain.complete && quot.complete);
        assert!(plain.violation.is_none() && quot.violation.is_none());
        assert_eq!(quot.combos, plain.combos);
        let stats = quot.quotient.expect("quotiented reports carry stats");
        assert_eq!(stats.full_states_estimate, plain.total_states as u64);
        assert!(
            stats.combos_explored < quot.total_combos,
            "the combo quotient must collapse symmetric combos"
        );
        assert!(
            stats.orbit_factor() > 2.0,
            "orbit factor {:.2} ≤ 2",
            stats.orbit_factor()
        );
    }

    #[test]
    fn quotiented_sweep_reports_the_same_lowest_violating_combo() {
        let plain = symmetric_toy_sweep(&CheckConfig::serial()).report;
        let quot = symmetric_toy_sweep(&CheckConfig::serial().with_quotient()).report;
        assert_eq!(plain.combos, 3, "lowest violating combo is 2");
        assert_eq!(quot.combos, plain.combos);
        assert_eq!(quot.total_combos, plain.total_combos);
        assert_eq!(quot.complete, plain.complete);
        // Same violating combo ⇒ the message names the same wirings (the
        // schedule inside the combo may be a different orbit member).
        let wirings_of = |v: &Option<String>| {
            let v = v.clone().expect("the toy must violate");
            let end = v.find("]:").expect("violations name the wirings");
            v[..=end].to_string()
        };
        assert_eq!(wirings_of(&quot.violation), wirings_of(&plain.violation));
        let stats = quot.quotient.expect("quotiented reports carry stats");
        assert!(stats.combos_explored <= quot.combos);
        assert!(plain.quotient.is_none());
    }

    #[test]
    fn sweep_stops_at_first_violation_and_reports_attempted_combos() {
        let outcome = write_once_sweep(1);
        let report = &outcome.report;
        assert_eq!(report.total_combos, 36); // 3!^2
        assert_eq!(report.combos, 25, "stops at combo 24 (25th attempted)");
        assert!(
            !report.complete,
            "an aborted sweep must not claim completeness"
        );
        assert!(report.violation.is_some());
        assert_eq!(outcome.telemetry.combos_attempted, 25);
        assert_eq!(outcome.telemetry.combos_total, 36);
        assert_eq!(outcome.telemetry.per_combo_states.len(), 25);
    }

    #[test]
    fn telemetry_attached_sweep_reports_identically_and_counts_exactly() {
        let plain = check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::serial()).unwrap();

        let registry = Arc::new(MetricRegistry::new());
        let config = CheckConfig::serial().with_telemetry(Arc::clone(&registry));
        let probed = check_snapshot_task_with(&[1, 2], 500_000, &config).unwrap();

        // Telemetry must not perturb the deterministic report (the CI
        // telemetry-smoke job re-proves this at the byte level).
        assert_eq!(probed.report, plain.report);
        assert_eq!(
            probed.telemetry.per_combo_states,
            plain.telemetry.per_combo_states
        );

        // The live counters agree exactly with the report.
        let snap = registry.sample(0, None);
        assert_eq!(
            snap.counter("mc.states_total"),
            plain.report.total_states as u64
        );
        assert_eq!(snap.counter("mc.combos_done"), plain.report.combos as u64);
        assert_eq!(
            snap.gauge("mc.combos_total"),
            plain.report.total_combos as u64
        );
        assert_eq!(snap.gauge("mc.jobs"), 1);
        // Phase spans saw one interval per combo claim/expansion.
        assert_eq!(snap.phases["mc.expand"].calls, plain.report.combos as u64);
        assert_eq!(
            snap.quantiles["mc.combo_states"].count,
            plain.report.combos as u64
        );
    }

    /// Transition-memo `(hits, misses)` summed over fresh per-combo
    /// [`Explorer::run`]s of the coarse snapshot sweep's `combos`: the work
    /// a sweep does when no tables carry over between combos.
    fn fresh_memo_tallies(
        inputs: &[u32],
        cap: usize,
        quotient: bool,
        combos: impl Iterator<Item = usize>,
    ) -> (u64, u64) {
        let n = inputs.len();
        let groups = group_assignment(inputs);
        let all_inputs: View<u32> = inputs.iter().copied().collect();
        let table = ComboTable::new(n, n);
        let tel = crate::telemetry::ExplorerTelemetry::default();
        for i in combos {
            let procs: Vec<SnapshotProcess<u32>> =
                inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
            let mut explorer = Explorer::new(procs, n, Default::default(), table.combo(i))
                .with_coarse_scans()
                .with_max_states(cap)
                .with_telemetry(tel.clone());
            if quotient {
                explorer = explorer.with_quotient();
            }
            explorer.run(|state| {
                snapshot_invariant(
                    &state.first_outputs(),
                    state.all_halted(),
                    inputs,
                    &all_inputs,
                    &groups,
                    true,
                )
            });
        }
        (tel.step_memo_hits.get(), tel.step_memo_misses.get())
    }

    /// The memo counters a telemetry-attached coarse snapshot sweep
    /// publishes, as `(hits, misses)`.
    fn sweep_memo_tallies(inputs: &[u32], cap: usize, config: &CheckConfig) -> (u64, u64) {
        let registry = Arc::new(MetricRegistry::new());
        let config = config.clone().with_telemetry(Arc::clone(&registry));
        let outcome = check_snapshot_task_coarse_with(inputs, cap, &config).unwrap();
        assert!(outcome.report.violation.is_none());
        let snap = registry.sample(0, None);
        (
            snap.counter("mc.step_memo_hits"),
            snap.counter("mc.step_memo_misses"),
        )
    }

    #[test]
    fn worker_tables_keep_the_step_count_and_cut_memo_misses_exactly() {
        // Plain sweep: each pool worker's tables carry over between its
        // combos, so later combos hit transitions earlier ones recorded.
        // The steps taken (hits + misses) are the fresh per-combo total
        // exactly; only the share that had to run `Process::step` falls.
        const CAP: usize = 1_000;
        let inputs = [1, 2, 3];
        let total = ComboTable::new(3, 3).len();
        let (hits, misses) = fresh_memo_tallies(&inputs, CAP, false, 0..total);
        for jobs in [1, 2] {
            let config = CheckConfig::default().with_jobs(jobs);
            let (h, m) = sweep_memo_tallies(&inputs, CAP, &config);
            assert_eq!(h + m, hits + misses, "jobs={jobs}: the same steps run");
            assert!(m < misses, "jobs={jobs}: misses {m} !< fresh {misses}");
        }

        // Quotiented sweep over equal inputs: every representative combo
        // has a nontrivial group, so every exploration gets fresh tables
        // and the counters are the fresh per-combo sums exactly.
        let inputs = [5, 5];
        let classes = vec![0; 2];
        let table = ComboTable::new(2, 2);
        let reps = canon::combo_reps(2, 2, &classes).expect("small sweep");
        let explored: Vec<usize> = (0..table.len()).filter(|&i| reps[i] == i).collect();
        for &i in &explored {
            let group = canon::Canonicalizer::for_system(&classes, &table.combo(i));
            assert!(!group.is_trivial(), "combo {i} must keep fresh tables");
        }
        let fresh = fresh_memo_tallies(&inputs, CAP, true, explored.into_iter());
        for jobs in [1, 2] {
            let config = CheckConfig::default().with_jobs(jobs).with_quotient();
            assert_eq!(
                sweep_memo_tallies(&inputs, CAP, &config),
                fresh,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn violating_sweep_matches_fresh_per_combo_explorations() {
        // A sweep whose first violating combo comes after combos that warm
        // the worker's tables: the per-combo state counts and the violation
        // string (schedule included) are what fresh explorations report.
        const CAP: usize = 3_000;
        let inputs = [1u32, 2, 3];
        let mk = |combo: Vec<Arc<Wiring>>| {
            let procs: Vec<SnapshotProcess<u32>> =
                inputs.iter().map(|&x| SnapshotProcess::new(x, 3)).collect();
            Explorer::new(procs, 3, Default::default(), combo)
                .with_coarse_scans()
                .with_max_states(CAP)
        };
        // Trips once global register 2 holds a write while register 0
        // still holds none: only wirings that route an early write to
        // register 2 get there.
        let invariant = |state: &StateView<'_, SnapshotProcess<u32>>| {
            let blank = fa_core::SnapRegister::default();
            if *state.memory(2) != blank && *state.memory(0) == blank {
                Err("register 2 written before register 0".to_string())
            } else {
                Ok(())
            }
        };
        let table = ComboTable::new(3, 3);
        for jobs in [1, 2] {
            let outcome = run_sweep(
                "snapshot_write_order",
                3,
                &CheckConfig::default().with_jobs(jobs),
                0,
                mk,
                invariant,
                "",
            )
            .expect("uncheckpointed sweeps never error");
            let report = &outcome.report;
            assert!(
                report.combos > 1,
                "the first violating combo follows others"
            );
            let violator = report.combos - 1;
            for (i, &states) in outcome.telemetry.per_combo_states.iter().enumerate() {
                let fresh = mk(table.combo(i)).run(invariant);
                assert_eq!(states, fresh.states, "jobs={jobs} combo {i}");
                assert_eq!(fresh.violation.is_some(), i == violator, "combo {i}");
                if let Some(v) = fresh.violation {
                    let expected = format!(
                        "wirings {:?}: {} (schedule {:?})",
                        table
                            .combo(i)
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>(),
                        v.message,
                        v.schedule
                    );
                    assert_eq!(report.violation.as_deref(), Some(expected.as_str()));
                }
            }
        }
    }

    /// Writes its input to local register 0, reads local register 1,
    /// outputs what it read and halts: its output depends on the wiring.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct WriteReadOutput {
        input: u8,
        pc: u8,
    }
    impl Process for WriteReadOutput {
        type Value = u8;
        type Output = u8;
        fn step(&mut self, i: StepInput<u8>) -> Action<u8, u8> {
            self.pc += 1;
            match (self.pc, i) {
                (1, _) => Action::write(0, self.input),
                (2, _) => Action::read(1),
                (3, StepInput::ReadValue(v)) => Action::Output(*v),
                _ => Action::Halt,
            }
        }
    }

    /// Runs an outputs-only `predicate` over the three-writer
    /// [`WriteReadOutput`] sweep at `jobs = 1` and `2`, and checks each
    /// report against fresh per-combo [`Explorer::run`]s of the same
    /// predicate in `StateView` form: equal per-combo state counts, and the
    /// sweep's violation string, schedule included, is the lowest violating
    /// combo's. Returns the serial report.
    fn outputs_sweep_matches_fresh_explorations(
        predicate: fn(&[Option<u8>], bool) -> Result<(), String>,
    ) -> TaskCheckReport {
        let mk = |combo: Vec<Arc<Wiring>>| {
            let procs = [1, 2, 3]
                .map(|input| WriteReadOutput { input, pc: 0 })
                .to_vec();
            Explorer::new(procs, 3, 0u8, combo)
        };
        let view_form = |state: &StateView<'_, WriteReadOutput>| {
            predicate(&state.first_outputs(), state.all_halted())
        };
        let table = ComboTable::new(3, 3);
        let mut reports = Vec::new();
        for jobs in [1, 2] {
            let outcome = run_sweep(
                "write_read_output",
                3,
                &CheckConfig::default().with_jobs(jobs),
                0,
                mk,
                OutputsOnly(predicate),
                "",
            )
            .expect("uncheckpointed sweeps never error");
            let report = outcome.report;
            assert!(
                report.combos > 1,
                "the first violating combo follows others"
            );
            let violator = report.combos - 1;
            for (i, &states) in outcome.telemetry.per_combo_states.iter().enumerate() {
                let fresh = mk(table.combo(i)).run(view_form);
                assert_eq!(states, fresh.states, "jobs={jobs} combo {i}");
                assert_eq!(fresh.violation.is_some(), i == violator, "combo {i}");
                if let Some(v) = fresh.violation {
                    let expected = format!(
                        "wirings {:?}: {} (schedule {:?})",
                        table
                            .combo(i)
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>(),
                        v.message,
                        v.schedule
                    );
                    assert_eq!(report.violation.as_deref(), Some(expected.as_str()));
                }
            }
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1]);
        reports.swap_remove(0)
    }

    #[test]
    fn violating_outputs_only_sweep_matches_fresh_per_combo_explorations() {
        // p0 reads global register 1, so it outputs 3 only on wirings that
        // route p2's write there: the combos before the first such one
        // warm each worker's tables and verdict memo.
        outputs_sweep_matches_fresh_explorations(|outputs, _| {
            if outputs[0] == Some(3) {
                Err("p0 read p2's input".to_string())
            } else {
                Ok(())
            }
        });
    }

    #[test]
    fn verdict_memo_keys_on_the_all_halted_bit() {
        // Fails only once every process halted. The last process's halt
        // step changes no output, so each violating terminal state's
        // output ids were first judged, and passed, one step earlier in a
        // non-terminal state: a memo keyed on the output ids alone would
        // pass it too.
        let report = outputs_sweep_matches_fresh_explorations(|outputs, all_halted| {
            if all_halted && outputs[0] == Some(3) {
                Err("p0 ended holding p2's input".to_string())
            } else {
                Ok(())
            }
        });
        assert!(report.violation.is_some());
    }

    /// `(mc.invariant_evals, mc.states_total)` of a telemetry-attached
    /// snapshot sweep.
    fn invariant_evals_and_states(
        inputs: &[u32],
        cap: usize,
        coarse: bool,
        config: &CheckConfig,
    ) -> (u64, u64) {
        let registry = Arc::new(MetricRegistry::new());
        let config = config.clone().with_telemetry(Arc::clone(&registry));
        let outcome = if coarse {
            check_snapshot_task_coarse_with(inputs, cap, &config)
        } else {
            check_snapshot_task_with(inputs, cap, &config)
        }
        .unwrap();
        assert!(outcome.report.violation.is_none());
        let snap = registry.sample(0, None);
        let states = snap.counter("mc.states_total");
        assert_eq!(states, outcome.report.total_states as u64);
        (snap.counter("mc.invariant_evals"), states)
    }

    #[test]
    fn invariant_evals_count_memo_misses_exactly() {
        // n = 3, label granularity, 1,000 states per combo: no process
        // outputs that early, so the first state judged is the only one.
        assert_eq!(
            invariant_evals_and_states(&[1, 2, 3], 1_000, true, &CheckConfig::serial()),
            (1, 36_000)
        );
        // n = 2 to completion: one run per distinct (outputs, all-halted)
        // key the worker meets.
        assert_eq!(
            invariant_evals_and_states(&[1, 2], 500_000, false, &CheckConfig::serial()),
            (11, 7_133)
        );
        // Under a nontrivial quotient group every exploration gets fresh
        // tables, so the invariant runs on every state.
        let (evals, states) = invariant_evals_and_states(
            &[5, 5],
            500_000,
            false,
            &CheckConfig::serial().with_quotient(),
        );
        assert_eq!(evals, states);
    }

    #[test]
    fn parallel_sweep_selects_lowest_violating_combo() {
        let serial = write_once_sweep(1);
        for jobs in [2, 4, 8] {
            let parallel = write_once_sweep(jobs);
            assert_eq!(
                parallel.report, serial.report,
                "jobs={jobs} must reproduce the serial report"
            );
            assert_eq!(
                parallel.telemetry.per_combo_states,
                serial.telemetry.per_combo_states
            );
        }
    }

    #[test]
    fn forced_strategies_reproduce_the_auto_report() {
        let reference = check_snapshot_task_with(&[1, 2], 500_000, &CheckConfig::serial())
            .unwrap()
            .report;
        for (strategy, jobs) in [
            (StrategyKind::Auto, 1),
            (StrategyKind::Auto, 4),
            (StrategyKind::IntraCombo { workers: 2 }, 2),
            (StrategyKind::IntraCombo { workers: 2 }, 4),
        ] {
            let config = CheckConfig::default()
                .with_jobs(jobs)
                .with_strategy(strategy);
            let outcome = check_snapshot_task_with(&[1, 2], 500_000, &config).unwrap();
            assert_eq!(
                outcome.report, reference,
                "strategy={strategy:?} jobs={jobs} must reproduce the serial report"
            );
        }
    }

    #[test]
    fn id_space_exhaustion_surfaces_as_incomplete_sweep_accounting() {
        // A tiny injected id cap starves every combo's exploration; the
        // sweep must finish with an honest incomplete report (the combo
        // count still covers the whole sweep — no combo violated, none
        // panicked) instead of a worker-thread join error.
        for jobs in [1, 4] {
            let outcome = run_sweep(
                "write_once_capped",
                3,
                &CheckConfig::default().with_jobs(jobs),
                0,
                |combo| {
                    let procs = vec![
                        WriteOnce {
                            input: 1,
                            wrote: false,
                        },
                        WriteOnce {
                            input: 2,
                            wrote: false,
                        },
                        WriteOnce {
                            input: 3,
                            wrote: false,
                        },
                    ];
                    Explorer::new(procs, 3, 0u8, combo).with_id_cap(2)
                },
                |_: &StateView<'_, WriteOnce>| Ok(()),
                "",
            )
            .expect("uncheckpointed sweeps never error");
            let report = &outcome.report;
            assert_eq!(report.total_combos, 36);
            assert_eq!(report.combos, 36, "exhaustion is not a violation");
            assert!(!report.complete, "exhausted combos must poison complete");
            assert!(report.violation.is_none());
        }
    }

    fn scratch_checkpoint_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "fa-mc-checks-{tag}-{}-{}",
            std::process::id(),
            crate::store::unique_id()
        ))
    }

    #[test]
    fn checkpoint_sweep_aborted_then_resumed_is_byte_identical() {
        let baseline = write_once_sweep(1);
        // Run 1 is stopped two ways: by an abort flag raised before the
        // sweep starts, which cuts every combo short, and by a 1-byte
        // memory limit, whose watchdog raises the same flag once its first
        // poll lands. Either way no cut-short combo is journaled as done
        // (aborted outcomes are nondeterministic).
        let stops = [
            (
                "abort",
                CheckConfig::serial().with_abort(Arc::new(AtomicBool::new(true))),
            ),
            ("memory", CheckConfig::serial().with_memory_limit(1)),
        ];
        for (name, stop) in stops {
            let dir = scratch_checkpoint_dir(&format!("resume-{name}"));
            let cp = CheckpointConfig::new(&dir);
            let interrupted = write_once_sweep_with(&stop.with_checkpoint(cp.clone()))
                .expect("checkpointed sweep");
            // The watchdog may land after the sweep reached the violating
            // combo 24; a stop never reports any other violation.
            if name == "abort" {
                assert!(!interrupted.report.complete);
                assert!(interrupted.report.violation.is_none());
            } else if let Some(v) = &interrupted.report.violation {
                assert_eq!(Some(v), baseline.report.violation.as_ref(), "{name}");
            }

            // Run 2 resumes: the journal holds the header plus whatever
            // combos finished before the stop, so the rest re-explores and
            // the report matches the uninterrupted baseline.
            let config = CheckConfig::serial().with_checkpoint(cp.clone().with_resume());
            let resumed = write_once_sweep_with(&config).expect("resumed sweep");
            assert_eq!(resumed.report, baseline.report, "{name}");
            assert_eq!(
                resumed.telemetry.per_combo_states, baseline.telemetry.per_combo_states,
                "{name}"
            );

            // Run 3 resumes again: now every outcome up to the violation is
            // recorded; replay is pure journal reads and still
            // byte-identical.
            let config = CheckConfig::serial().with_checkpoint(cp.with_resume());
            let replayed = write_once_sweep_with(&config).expect("replayed sweep");
            assert_eq!(replayed.report, baseline.report, "{name}");
            assert_eq!(
                replayed.telemetry.per_combo_states, baseline.telemetry.per_combo_states,
                "{name}"
            );

            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Byte length of a journal's first `frames` frames (each a u32
    /// payload length, a u64 checksum, then the payload).
    fn frames_len(bytes: &[u8], frames: usize) -> usize {
        let mut cut = 0;
        for _ in 0..frames {
            let len = u32::from_le_bytes(bytes[cut..cut + 4].try_into().unwrap()) as usize;
            cut += 12 + len;
        }
        cut
    }

    #[test]
    fn checkpoint_resume_past_a_retired_record_tag_is_byte_identical() {
        // A journal from an older build may hold a checksum-valid frame with
        // a retired tag mid-stream: a claim (2), which that build wrote
        // before every combo, or a progress record (4). Recovery keeps the
        // records before it, drops the rest, and the resumed sweep
        // re-explores the combos that follow: same report as an
        // uninterrupted sweep.
        let baseline = write_once_sweep(1);
        for retired in checkpoint::retired_frames(10) {
            let tag = retired[12];
            let dir = scratch_checkpoint_dir("skew");
            let cp = CheckpointConfig::new(&dir);
            write_once_sweep_with(&CheckConfig::serial().with_checkpoint(cp.clone()))
                .expect("checkpointed sweep");

            // Header plus the outcomes of combos 0..10, then the retired
            // frame, then the rest of the original journal.
            let path = SweepJournal::journal_path(&dir);
            let bytes = std::fs::read(&path).expect("read journal");
            let cut = frames_len(&bytes, 1 + 10);
            let mut skewed = bytes[..cut].to_vec();
            skewed.extend_from_slice(&retired);
            skewed.extend_from_slice(&bytes[cut..]);
            std::fs::write(&path, &skewed).expect("write skewed journal");
            let recovery = crate::inspect_journal(&dir).expect("intact header");
            assert_eq!(
                recovery.completed.len(),
                10,
                "tag {tag}: the retired frame ends the prefix"
            );
            assert_eq!(recovery.truncated_bytes, (skewed.len() - cut) as u64);

            let registry = Arc::new(MetricRegistry::new());
            let config = CheckConfig::serial()
                .with_checkpoint(cp.with_resume())
                .with_telemetry(Arc::clone(&registry));
            let resumed = write_once_sweep_with(&config).expect("resumed sweep");
            assert_eq!(
                format!("{:?}", resumed.report),
                format!("{:?}", baseline.report),
                "tag {tag}"
            );
            assert_eq!(
                resumed.telemetry.per_combo_states,
                baseline.telemetry.per_combo_states
            );
            let snap = registry.sample(0, None);
            assert_eq!(snap.gauge("ckpt.recovered"), 10);
            // Combos 10..=24 re-explored: one record each.
            assert_eq!(snap.counter("ckpt.records"), 15);

            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn checkpoint_journal_headers_are_pinned() {
        // The header names the harness and fingerprints its sweep; a
        // journal written by an earlier build resumes only while both stay
        // put. Each snapshot harness is one `snapshot_sweep`, so this pins
        // that the fold kept every check name and scope.
        const IN: &[u32] = &[1, 2];
        type Sweep<'a> = &'a dyn Fn(&CheckConfig) -> Result<CheckOutcome, String>;
        let harnesses: [(&str, u64, Sweep); 6] = [
            ("snapshot_task", 0xfbc6_ee6e_3d4d_4b20, &|c| {
                check_snapshot_task_with(IN, 100, c)
            }),
            ("snapshot_task_coarse", 0x1894_89b1_98d2_2fca, &|c| {
                check_snapshot_task_coarse_with(IN, 100, c)
            }),
            ("snapshot_task_at_level", 0xa984_bc6a_131f_e9ba, &|c| {
                snapshot_sweep(IN, Some(1), false, 100, c)
            }),
            ("snapshot_task_at_level", 0xd8d1_da2b_cefd_ecb0, &|c| {
                snapshot_sweep(IN, Some(2), false, 100, c)
            }),
            ("renaming", 0xc2e8_5c20_c4c0_51f5, &|c| {
                check_renaming_with(IN, 100, c)
            }),
            ("consensus_safety", 0x6192_5bae_ba70_a6b7, &|c| {
                check_consensus_safety_with(IN, 100, 40, c)
            }),
        ];
        for (check, fingerprint, sweep) in harnesses {
            let dir = scratch_checkpoint_dir("header");
            sweep(&CheckConfig::serial().with_checkpoint(CheckpointConfig::new(&dir)))
                .expect("checkpointed sweep");
            let header = crate::inspect_journal(&dir).expect("intact header").header;
            assert_eq!(header.check, check);
            assert_eq!(header.fingerprint, fingerprint, "{check}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn checkpoint_partial_resume_starts_worker_tables_empty_mid_sweep() {
        // A resume replays the journal's first combos and re-explores the
        // rest, so each worker's tables first fill mid-sweep instead of at
        // combo 0. The report must not notice.
        const CAP: usize = 1_000;
        const REPLAYED: usize = 12;
        let inputs = [1, 2, 3];
        let baseline = check_snapshot_task_coarse_with(&inputs, CAP, &CheckConfig::serial())
            .expect("uncheckpointed sweeps never error");
        for jobs in [1, 2] {
            let dir = scratch_checkpoint_dir("partial");
            let cp = CheckpointConfig::new(&dir);
            check_snapshot_task_coarse_with(
                &inputs,
                CAP,
                &CheckConfig::serial().with_checkpoint(cp.clone()),
            )
            .expect("checkpointed sweep");
            // Keep the header plus the serial run's outcomes of combos
            // 0..REPLAYED.
            let path = SweepJournal::journal_path(&dir);
            let bytes = std::fs::read(&path).expect("read journal");
            let cut = frames_len(&bytes, 1 + REPLAYED);
            std::fs::write(&path, &bytes[..cut]).expect("truncate journal");

            let registry = Arc::new(MetricRegistry::new());
            let config = CheckConfig::default()
                .with_jobs(jobs)
                .with_checkpoint(cp.with_resume())
                .with_telemetry(Arc::clone(&registry));
            let resumed =
                check_snapshot_task_coarse_with(&inputs, CAP, &config).expect("resumed sweep");
            assert_eq!(
                format!("{:?}", resumed.report),
                format!("{:?}", baseline.report),
                "jobs={jobs}"
            );
            assert_eq!(
                resumed.telemetry.per_combo_states,
                baseline.telemetry.per_combo_states
            );
            let snap = registry.sample(0, None);
            assert_eq!(snap.gauge("ckpt.recovered"), REPLAYED as u64);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn checkpoint_resume_under_different_sweep_fails_loudly() {
        let dir = scratch_checkpoint_dir("mismatch");
        let cp = CheckpointConfig::new(&dir);
        write_once_sweep_with(&CheckConfig::serial().with_checkpoint(cp.clone()))
            .expect("checkpointed sweep");

        // Same journal, different sweep shape (the quotient flag changes the
        // fingerprint): resuming must refuse rather than splice reports.
        let config = CheckConfig::serial()
            .with_quotient()
            .with_checkpoint(cp.with_resume());
        let err = write_once_sweep_with(&config).expect_err("fingerprint mismatch must error");
        assert!(err.contains("checkpoint mismatch"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_telemetry_counts_journal_records_and_recovered_combos() {
        let dir = scratch_checkpoint_dir("telemetry");
        let cp = CheckpointConfig::new(&dir);
        let registry = Arc::new(MetricRegistry::new());
        let config = CheckConfig::serial()
            .with_checkpoint(cp.clone())
            .with_telemetry(Arc::clone(&registry));
        let first = write_once_sweep_with(&config).expect("checkpointed sweep");
        let snap = registry.sample(0, None);
        // One record per explored combo (25: stops at the first violating
        // combo, index 24), all appended this run.
        assert_eq!(snap.counter("ckpt.records"), 25);
        assert!(snap.gauge("ckpt.journal_bytes") > 0);
        assert_eq!(snap.gauge("ckpt.recovered"), 0);

        let registry = Arc::new(MetricRegistry::new());
        let config = CheckConfig::serial()
            .with_checkpoint(cp.with_resume())
            .with_telemetry(Arc::clone(&registry));
        let second = write_once_sweep_with(&config).expect("resumed sweep");
        assert_eq!(second.report, first.report);
        let snap = registry.sample(0, None);
        assert_eq!(snap.counter("ckpt.records"), 0, "replay appends nothing");
        assert_eq!(snap.gauge("ckpt.recovered"), 25);

        std::fs::remove_dir_all(&dir).ok();
    }
}
