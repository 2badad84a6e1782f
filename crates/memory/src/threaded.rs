//! Real-concurrency runtime: the same [`Process`] machines on OS threads.
//!
//! The deterministic [`Executor`](crate::Executor) is the reference semantics
//! (reproducible, model-checkable). This module runs the *identical* process
//! code with true parallelism: each register is a lock-protected cell (lock
//! acquisition makes every read and write an atomic, linearizable operation,
//! which is exactly the MWMR atomic-register model), and each processor is an
//! OS thread applying its private wiring.
//!
//! The OS scheduler plays the adversary, so runs are nondeterministic — this
//! runtime exists to demonstrate the algorithms on real atomics and to feed
//! the `threaded` benchmark (experiment E12), not to prove anything. For
//! *adversarial* real-thread runs — injected crashes, poised coverings,
//! stalls, panics — see the [`chaos`](crate::chaos) module, which this
//! runtime is built on.
//!
//! ```
//! use fa_memory::{threaded, Process, Action, StepInput, Wiring};
//!
//! #[derive(Clone)]
//! struct PutGet { input: u32, state: u8 }
//! impl Process for PutGet {
//!     type Value = u32;
//!     type Output = u32;
//!     fn step(&mut self, i: StepInput<u32>) -> Action<u32, u32> {
//!         match (self.state, i) {
//!             (0, _) => { self.state = 1; Action::write(0, self.input) }
//!             (1, _) => { self.state = 2; Action::read(0) }
//!             (2, StepInput::ReadValue(v)) => { self.state = 3; Action::Output(*v) }
//!             _ => Action::Halt,
//!         }
//!     }
//! }
//!
//! let procs = vec![PutGet { input: 1, state: 0 }, PutGet { input: 2, state: 0 }];
//! let wirings = vec![Wiring::identity(1); 2];
//! let report = threaded::run_threaded(procs, wirings, 1, 0u32, 1_000).unwrap();
//! assert!(report.all_completed());
//! // Each processor outputs whichever write landed last before its read.
//! assert!(report.outputs.iter().all(|os| os.len() == 1));
//! ```

use std::time::Instant;

use fa_obs::{NoProbe, Probe};
use serde::{Deserialize, Serialize};

use crate::chaos::{run_chaos_probed, ChaosConfig, FaultPlan};
use crate::{MemoryError, ProcId, Process, Wiring};

/// How one processor's thread ended, as observed by the supervisor.
///
/// Plain [`run_threaded`] runs only produce [`Completed`](Self::Completed)
/// and [`BudgetExhausted`](Self::BudgetExhausted) (panics become
/// [`MemoryError::ProcessPanicked`]); the remaining variants arise under
/// [`chaos`](crate::chaos) plans and deadlines.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcOutcome {
    /// The process halted within its step budget.
    Completed,
    /// The step budget ran out before the process halted.
    BudgetExhausted,
    /// An injected crash stopped the processor after `after_ops`
    /// shared-memory operations.
    Crashed {
        /// Operations completed before the crash.
        after_ops: usize,
        /// For poised crashes, the ground-truth register the processor
        /// covers forever with its pending (never-landing) write.
        covering: Option<usize>,
    },
    /// The process panicked inside [`Process::step`](crate::Process::step);
    /// the panic was caught and contained.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// The worker went silent: its heartbeat was stale when the run's
    /// deadline expired.
    Stalled,
    /// The worker was still making progress when the run's deadline expired.
    DeadlineExceeded,
}

impl ProcOutcome {
    /// Whether the processor halted normally.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, ProcOutcome::Completed)
    }

    /// Whether the outcome is an injected crash (stop or poised).
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        matches!(self, ProcOutcome::Crashed { .. })
    }

    /// The ground-truth register this processor covers, if it crashed
    /// poised.
    #[must_use]
    pub fn covering(&self) -> Option<usize> {
        match self {
            ProcOutcome::Crashed { covering, .. } => *covering,
            _ => None,
        }
    }
}

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedReport<V, O> {
    /// All outputs produced by each processor, indexed by processor id.
    pub outputs: Vec<Vec<O>>,
    /// Steps taken by each processor (for silent workers, the last
    /// heartbeat's step count).
    pub steps: Vec<usize>,
    /// How each processor's thread ended.
    pub outcomes: Vec<ProcOutcome>,
    /// Final register contents in ground-truth order.
    pub final_contents: Vec<V>,
}

impl<V, O> ThreadedReport<V, O> {
    /// Whether every processor halted within its step budget.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(ProcOutcome::is_completed)
    }

    /// Ground-truth registers covered by poised-crashed processors, in
    /// processor order.
    #[must_use]
    pub fn covered_registers(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter_map(ProcOutcome::covering)
            .collect()
    }
}

/// Runs `procs` on OS threads against `m` lock-protected registers
/// initialized to `init`, each processor addressing memory through its
/// wiring. Each processor executes at most `max_steps` steps; exceeding the
/// budget stops that processor without halting it
/// ([`ProcOutcome::BudgetExhausted`]).
///
/// # Errors
///
/// * [`MemoryError::TooFewProcessors`] if fewer than two processes are given.
/// * [`MemoryError::ZeroRegisters`] if `m == 0`.
/// * [`MemoryError::WiringCountMismatch`] /
///   [`MemoryError::WiringSizeMismatch`] on inconsistent wirings.
/// * [`MemoryError::ProcessPanicked`] if a process panicked inside `step`
///   (the panic is caught; surviving processors still finish first).
pub fn run_threaded<P>(
    procs: Vec<P>,
    wirings: Vec<Wiring>,
    m: usize,
    init: P::Value,
    max_steps: usize,
) -> Result<ThreadedReport<P::Value, P::Output>, MemoryError>
where
    P: Process + Send + 'static,
    P::Value: Clone + Send + Sync + std::fmt::Debug + 'static,
    P::Output: Send + std::fmt::Debug + 'static,
{
    run_threaded_probed(procs, wirings, m, init, max_steps, |_| NoProbe)
        .map(|(report, _probes)| report)
}

/// [`run_threaded`] with per-thread observation: `make_probe(i)` builds the
/// probe for processor `i`, which lives on that processor's thread and is
/// returned (in processor order) alongside the report.
///
/// Each thread stamps events with its *local* step count as the time — there
/// is no global clock in a threaded run — and additionally reports per-op
/// wall-clock timing as [`ProbeEvent::Timing`](fa_obs::ProbeEvent::Timing)
/// events: `ns` covers the whole operation (lock acquisition plus the
/// register access for reads/writes) and `lock_wait_ns` isolates time spent
/// acquiring the register lock. Fold
/// per-thread `RunMetrics` probes together with
/// [`RunMetrics::merge`](fa_obs::RunMetrics::merge) for whole-run aggregates.
///
/// `read_from` / `overwrote_writer` attribution is absent (`None`): the
/// lock-cell registers do not track writer identity.
///
/// This is a fault-free run on the chaos machinery
/// ([`run_chaos_probed`](crate::chaos::run_chaos_probed) with an empty
/// [`FaultPlan`] and no deadline): worker panics are caught rather than
/// propagated, and surface as [`MemoryError::ProcessPanicked`] once every
/// surviving worker has finished.
///
/// # Errors
///
/// Same conditions as [`run_threaded`].
#[allow(clippy::type_complexity)]
pub fn run_threaded_probed<P, Pr, F>(
    procs: Vec<P>,
    wirings: Vec<Wiring>,
    m: usize,
    init: P::Value,
    max_steps: usize,
    make_probe: F,
) -> Result<(ThreadedReport<P::Value, P::Output>, Vec<Pr>), MemoryError>
where
    P: Process + Send + 'static,
    P::Value: Clone + Send + Sync + std::fmt::Debug + 'static,
    P::Output: Send + std::fmt::Debug + 'static,
    Pr: Probe + Send + 'static,
    F: FnMut(usize) -> Pr,
{
    let plan = FaultPlan::new(procs.len());
    let config = ChaosConfig::new(max_steps);
    let (report, probes) = run_chaos_probed(procs, wirings, m, init, &plan, &config, make_probe)?;
    if let Some(proc) = report
        .outcomes
        .iter()
        .position(|o| matches!(o, ProcOutcome::Panicked { .. }))
    {
        return Err(MemoryError::ProcessPanicked { proc: ProcId(proc) });
    }
    // With no faults and no deadline, every worker reported and kept its
    // probe.
    let probes = probes
        .into_iter()
        .map(|p| p.expect("fault-free worker reported its probe"))
        .collect();
    Ok((report, probes))
}

/// Nanoseconds since `start`, saturated into `u64` (584 years of headroom).
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, StepInput};

    #[derive(Clone)]
    struct WriteHalt {
        input: u32,
        wrote: bool,
    }
    impl Process for WriteHalt {
        type Value = u32;
        type Output = u32;
        fn step(&mut self, _i: StepInput<u32>) -> Action<u32, u32> {
            if self.wrote {
                Action::Halt
            } else {
                self.wrote = true;
                Action::write(0, self.input)
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let one = vec![WriteHalt {
            input: 1,
            wrote: false,
        }];
        assert!(run_threaded(one, vec![Wiring::identity(1)], 1, 0, 10).is_err());

        let two = || {
            vec![
                WriteHalt {
                    input: 1,
                    wrote: false,
                },
                WriteHalt {
                    input: 2,
                    wrote: false,
                },
            ]
        };
        assert!(matches!(
            run_threaded(two(), vec![Wiring::identity(1); 2], 0, 0, 10),
            Err(MemoryError::ZeroRegisters)
        ));
        assert!(matches!(
            run_threaded(two(), vec![Wiring::identity(1)], 1, 0, 10),
            Err(MemoryError::WiringCountMismatch { .. })
        ));
        assert!(matches!(
            run_threaded(
                two(),
                vec![Wiring::identity(1), Wiring::identity(2)],
                1,
                0,
                10
            ),
            Err(MemoryError::WiringSizeMismatch { .. })
        ));
    }

    #[test]
    fn parallel_writers_both_complete() {
        let procs = vec![
            WriteHalt {
                input: 1,
                wrote: false,
            },
            WriteHalt {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()];
        let report = run_threaded(procs, wirings, 2, 0u32, 100).unwrap();
        assert!(report.all_completed());
        assert_eq!(report.outcomes, vec![ProcOutcome::Completed; 2]);
        // Disjoint ground-truth targets: no overwrite possible.
        assert_eq!(report.final_contents, vec![1, 2]);
    }

    #[test]
    fn probed_run_counts_every_operation() {
        use fa_obs::RunMetrics;

        let procs = vec![
            WriteHalt {
                input: 1,
                wrote: false,
            },
            WriteHalt {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()];
        let (report, probes) =
            run_threaded_probed(procs, wirings, 2, 0u32, 100, |_| RunMetrics::new()).unwrap();
        assert!(report.all_completed());

        let mut total = RunMetrics::new();
        for p in &probes {
            total.merge(p);
        }
        // Each WriteHalt performs exactly one write then halts.
        assert_eq!(total.total_writes(), 2);
        assert_eq!(total.per_proc[0].writes, 1);
        assert_eq!(total.per_proc[1].writes, 1);
        // One timing sample per memory operation.
        assert_eq!(total.op_ns.count(), 2);
        assert_eq!(total.lock_wait_ns.count(), 2);
    }

    #[test]
    fn step_budget_prevents_runaway() {
        #[derive(Clone)]
        struct Spinner;
        impl Process for Spinner {
            type Value = u32;
            type Output = u32;
            fn step(&mut self, _i: StepInput<u32>) -> Action<u32, u32> {
                Action::read(0)
            }
        }
        let report = run_threaded(
            vec![Spinner, Spinner],
            vec![Wiring::identity(1); 2],
            1,
            0,
            50,
        )
        .unwrap();
        assert!(!report.all_completed());
        assert_eq!(report.outcomes, vec![ProcOutcome::BudgetExhausted; 2]);
        assert_eq!(report.steps, vec![50, 50]);
    }

    #[test]
    fn organic_panic_surfaces_as_process_panicked() {
        #[derive(Clone)]
        struct Bomb {
            armed: bool,
        }
        impl Process for Bomb {
            type Value = u32;
            type Output = u32;
            fn step(&mut self, _i: StepInput<u32>) -> Action<u32, u32> {
                if self.armed {
                    panic!("bug in the process implementation");
                }
                Action::write(0, 1)
            }
        }
        let procs = vec![Bomb { armed: true }, Bomb { armed: false }];
        let err = run_threaded(procs, vec![Wiring::identity(1); 2], 1, 0u32, 10).unwrap_err();
        assert_eq!(err, MemoryError::ProcessPanicked { proc: ProcId(0) });
    }
}
