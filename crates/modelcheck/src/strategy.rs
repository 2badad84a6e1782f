//! How a wiring-combination sweep spreads over threads.
//!
//! A sweep is a loop over independent combo explorations with one shared
//! rule: the report must cover exactly the serial prefix `0..=B`, where `B`
//! is the lowest violating combo index (all combos when none violates).
//! One claim loop, [`run_pool`], explores that prefix on any number of
//! threads; a serial sweep is a pool of one. `--jobs` is the only
//! parallelism: each combo's BFS runs on the one thread that claimed it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-combination result handed back by a sweep worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComboOutcome {
    /// Distinct states the combo's exploration visited.
    pub states: usize,
    /// Whether the combo's reachable space was fully explored.
    pub complete: bool,
    /// Estimated full-space state count when the exploration ran with the
    /// symmetry quotient (`None` otherwise). Exact on complete runs.
    pub full_states_est: Option<u64>,
    /// Visited shards spilled to the disk tier (0 without a budget).
    pub spilled_shards: usize,
    /// Formatted violation found in this combo, if any.
    pub violation: Option<String>,
}

/// Explores combos `0..total` on a pool of `jobs` threads and returns one
/// slot per combo.
///
/// Each worker calls `init` once and hands the state it returns to every
/// combo it claims, so per-thread scratch (tables, buffers) outlives a
/// single combo. `run_combo` must not let that state change its outcome.
///
/// Workers claim indices from a shared counter, lower a shared *best*
/// (lowest violating index) with `fetch_min` on violations, and skip or
/// stop combos above it through the `stop` probe handed to `run_combo`
/// (which must be deterministic per index while `stop` stays `false`).
/// Best never rises, so every slot in `0..=B` is `Some` and holds a run
/// that was never stopped — exactly the combos a serial sweep explores.
/// Slots above `B` are `None` or hold stopped runs; assembly ignores them.
/// The calling thread is worker 0, so one job spawns no thread.
pub(crate) fn run_pool<S, I, F>(
    jobs: usize,
    total: usize,
    init: I,
    run_combo: F,
) -> Vec<Option<ComboOutcome>>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &dyn Fn() -> bool) -> ComboOutcome + Sync,
{
    // Both atomics are Relaxed: they publish no other data (outcomes reach
    // the caller through the `OnceLock` slots and the scope's join).
    let next = AtomicUsize::new(0);
    // Lowest combo index with a violation found so far (MAX = none yet).
    let best = AtomicUsize::new(usize::MAX);
    let slots: Vec<OnceLock<ComboOutcome>> = (0..total).map(|_| OnceLock::new()).collect();
    let worker = || {
        let mut scratch = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            // A violation at a lower index makes this combo irrelevant.
            if i > best.load(Ordering::Relaxed) {
                continue;
            }
            let outcome = run_combo(&mut scratch, i, &|| i > best.load(Ordering::Relaxed));
            if outcome.violation.is_some() {
                best.fetch_min(i, Ordering::Relaxed);
            }
            let _ = slots[i].set(outcome);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs.min(total) {
            scope.spawn(worker);
        }
        worker();
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

/// How many combo-pool threads a sweep's `--jobs` budget buys — the knob
/// [`crate::CheckConfig`] carries. Never changes the report. Kept only
/// until the benchmark retires its e3-n3-intra2 workload; no binary sets
/// it, so outside that workload `--jobs` alone sizes the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategyKind {
    /// A combo pool of `jobs` threads (`--jobs 1` is the serial sweep).
    #[default]
    Auto,
    /// The retired intra-combo strategy's core budget: a combo pool of
    /// `max(1, jobs / workers)` threads (`workers: 0` = the detected core
    /// count), each running its combo on the one engine.
    IntraCombo {
        /// Cores the retired strategy gave each combo.
        workers: usize,
    },
}

impl StrategyKind {
    /// Combo-pool threads for a sweep with a `jobs` budget: all of it for
    /// [`StrategyKind::Auto`], `max(1, jobs / workers)` for
    /// [`StrategyKind::IntraCombo`].
    pub(crate) fn pool_size(self, jobs: usize) -> usize {
        let workers = match self {
            StrategyKind::Auto => 1,
            StrategyKind::IntraCombo { workers: 0 } => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            StrategyKind::IntraCombo { workers } => workers,
        };
        (jobs / workers).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic runner: combo `i` "explores" `i + 1` states and violates
    /// exactly on the indices in `violations`. Stopped runs report
    /// incomplete so tests can assert the prefix contract.
    fn runner(
        violations: &'static [usize],
    ) -> impl Fn(&mut (), usize, &dyn Fn() -> bool) -> ComboOutcome + Sync {
        move |(), i, stop| {
            let aborted = stop();
            ComboOutcome {
                states: i + 1,
                complete: !aborted,
                full_states_est: None,
                spilled_shards: 0,
                violation: (!aborted && violations.contains(&i)).then(|| format!("combo {i}")),
            }
        }
    }

    fn assembled_prefix(slots: &[Option<ComboOutcome>]) -> Vec<ComboOutcome> {
        let first = slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|o| o.violation.is_some()))
            .map_or(slots.len(), |b| b + 1);
        slots[..first]
            .iter()
            .map(|s| s.clone().expect("prefix combos are always explored"))
            .collect()
    }

    #[test]
    fn serial_stops_at_the_first_violation() {
        // A pool of one runs on the calling thread in index order and skips
        // everything past the first violation.
        let caller = std::thread::current().id();
        let slots = run_pool(
            1,
            10,
            || (),
            |(), i, stop| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "one job spawns no thread"
                );
                runner(&[4, 7])(&mut (), i, stop)
            },
        );
        assert!(slots[..=4].iter().all(Option::is_some));
        assert!(slots[5..].iter().all(Option::is_none));
        assert_eq!(
            slots[4].as_ref().unwrap().violation.as_deref(),
            Some("combo 4")
        );
    }

    #[test]
    fn pool_matches_serial_prefix_for_all_job_counts() {
        for violations in [&[][..], &[0][..], &[4, 7][..], &[9][..]] {
            let reference = assembled_prefix(&run_pool(1, 10, || (), runner(violations)));
            for jobs in [2, 4, 8] {
                let slots = run_pool(jobs, 10, || (), runner(violations));
                assert_eq!(
                    assembled_prefix(&slots),
                    reference,
                    "jobs={jobs}, violations={violations:?}"
                );
            }
        }
    }

    #[test]
    fn pool_prefix_is_never_aborted() {
        for _ in 0..20 {
            let slots = run_pool(8, 16, || (), runner(&[5]));
            for slot in assembled_prefix(&slots) {
                assert!(slot.complete, "prefix combos must never be aborted");
            }
        }
    }

    #[test]
    fn kind_sizes_the_combo_pool() {
        assert_eq!(StrategyKind::Auto.pool_size(1), 1);
        assert_eq!(StrategyKind::Auto.pool_size(4), 4);
    }

    #[test]
    fn intra_kind_splits_the_core_budget() {
        let intra4 = StrategyKind::IntraCombo { workers: 4 };
        // 8 jobs / 4 intra workers = 2 combo-level workers; never 0.
        assert_eq!(intra4.pool_size(8), 2);
        assert_eq!(intra4.pool_size(2), 1);
        // The auto form resolves 0 to the detected core count, never 0.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let auto = StrategyKind::IntraCombo { workers: 0 };
        assert_eq!(auto.pool_size(cores), 1);
        assert_eq!(auto.pool_size(2 * cores), 2);
    }
}
