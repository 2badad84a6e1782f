//! Chaos layer for the threaded runtime: real-thread fault injection and
//! supervised execution.
//!
//! The paper's guarantees are *fault-model* statements: the wait-free
//! snapshot and renaming algorithms must terminate for survivors no matter
//! how many processors crash-stop, and obstruction-free consensus terminates
//! once a processor runs uncontended. The deterministic
//! [`Executor`](crate::Executor) exercises these claims with
//! [`CrashingScheduler`](crate::CrashingScheduler); this module exercises
//! them on **real OS threads**:
//!
//! * a [`FaultPlan`] injects per-processor faults — crash-stop after `k`
//!   shared-memory operations, crash *poised* (the thread parks forever with
//!   a write pending, a real covering), timed stalls simulating preemption
//!   or GC pauses, and panics;
//! * [`run_chaos`] / [`run_chaos_probed`] execute the plan under a
//!   supervisor: worker panics are caught (never poisoning the run), worker
//!   heartbeats are monitored against a wall-clock deadline, and every
//!   processor ends in a structured
//!   [`ProcOutcome`] — the run always returns
//!   a [`ThreadedReport`] with whatever the
//!   survivors produced, never a hang.
//!
//! A poised crash parks its thread *before* the register lock is taken, so
//! the pending write never lands and never blocks survivors — exactly the
//! semantics of a processor crashing while covering a register in the
//! paper's model (the adversary's primitive in Section 2). Parked threads
//! are leaked for the remainder of the process; plans are meant for test
//! and campaign processes, not long-lived servers.
//!
//! ```
//! use fa_memory::chaos::{ChaosConfig, FaultPlan};
//! use fa_memory::threaded::ProcOutcome;
//! use fa_memory::{chaos, Action, Process, StepInput, Wiring};
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
//! let procs = vec![
//!     PutGet { input: 1, state: 0 },
//!     PutGet { input: 2, state: 0 },
//!     PutGet { input: 3, state: 0 },
//! ];
//! // p1 crashes poised: its write to register 0 stays pending forever.
//! let plan = FaultPlan::new(3).crash_poised(1, 0);
//! let report = chaos::run_chaos(
//!     procs,
//!     vec![Wiring::identity(1); 3],
//!     1,
//!     0u32,
//!     &plan,
//!     &ChaosConfig::new(1_000),
//! )
//! .unwrap();
//! assert!(report.outcomes[0].is_completed());
//! assert!(matches!(
//!     report.outcomes[1],
//!     ProcOutcome::Crashed { covering: Some(0), .. }
//! ));
//! assert!(report.outcomes[2].is_completed());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fa_obs::{
    ChaosEvent, ChaosKind, Counter, MetricRegistry, NoProbe, OpKind, OutputEvent, Probe,
    ProbeEvent, ReadEvent, Span, TimingEvent, WriteEvent,
};
use parking_lot::Mutex;

use crate::threaded::{elapsed_ns, ProcOutcome, ThreadedReport};
use crate::{Action, MemoryError, ProcId, Process, StepInput, Versioned, Wiring};

/// A lock-protected register: `Arc`-shared contents plus a write version.
///
/// A read clones the `Arc` handle under the lock (an O(1) critical section —
/// no deep clone of the value while holding the register) and tags it with
/// the version, mirroring [`SharedMemory::read`](crate::SharedMemory::read).
/// A write swaps in a cell the writer allocated *before* taking the lock.
struct RegisterCell<V> {
    value: Arc<V>,
    version: u64,
}

/// One injected fault. Faults count *shared-memory operations* (reads +
/// writes), matching [`CrashingScheduler`](crate::CrashingScheduler)'s
/// step-count semantics on the deterministic executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Crash-stop strictly after `after_ops` operations: the thread exits
    /// before taking operation `after_ops + 1`.
    CrashStop {
        /// Operations completed before the crash.
        after_ops: usize,
    },
    /// Crash *poised*: after `after_ops` operations, the thread parks
    /// forever at its next pending write — a real covering. (If the process
    /// never writes again, the fault never fires.)
    CrashPoised {
        /// Operations completed before the thread may park at a write.
        after_ops: usize,
    },
    /// A one-shot stall of `stall_ns` nanoseconds before operation
    /// `at_op + 1` (simulated preemption / GC pause).
    StallOnce {
        /// Operations completed when the stall fires.
        at_op: usize,
        /// Stall length in nanoseconds.
        stall_ns: u64,
    },
    /// A stall storm: `stall_ns` nanoseconds before every `period`-th
    /// operation.
    StallEvery {
        /// Operations between stalls (must be > 0).
        period: usize,
        /// Stall length in nanoseconds.
        stall_ns: u64,
    },
    /// Panic inside the step loop before operation `at_op + 1`. Caught by
    /// the supervisor and recorded as [`ProcOutcome::Panicked`].
    PanicAt {
        /// Operations completed when the panic fires.
        at_op: usize,
    },
}

/// Per-processor fault schedule for one chaos run.
///
/// Built with chained constructors; processors without faults run normally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan for `n` processors (no faults).
    #[must_use]
    pub fn new(n: usize) -> Self {
        FaultPlan {
            faults: vec![Vec::new(); n],
        }
    }

    /// Number of processors the plan covers.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.iter().all(Vec::is_empty)
    }

    /// The faults scheduled for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn for_proc(&self, p: usize) -> &[Fault] {
        &self.faults[p]
    }

    /// Adds `fault` for processor `p` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for the plan.
    #[must_use]
    pub fn with_fault(mut self, p: usize, fault: Fault) -> Self {
        assert!(
            p < self.faults.len(),
            "processor {p} out of range for a {}-processor fault plan",
            self.faults.len()
        );
        self.faults[p].push(fault);
        self
    }

    /// Crash-stops processor `p` after `after_ops` operations.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn crash_stop(self, p: usize, after_ops: usize) -> Self {
        self.with_fault(p, Fault::CrashStop { after_ops })
    }

    /// Crashes processor `p` poised at its first write after `after_ops`
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn crash_poised(self, p: usize, after_ops: usize) -> Self {
        self.with_fault(p, Fault::CrashPoised { after_ops })
    }

    /// Stalls processor `p` once, for `stall` wall-clock time, at operation
    /// `at_op`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn stall_once(self, p: usize, at_op: usize, stall: Duration) -> Self {
        self.with_fault(
            p,
            Fault::StallOnce {
                at_op,
                stall_ns: duration_ns(stall),
            },
        )
    }

    /// Stalls processor `p` for `stall` before every `period`-th operation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or `period == 0`.
    #[must_use]
    pub fn stall_every(self, p: usize, period: usize, stall: Duration) -> Self {
        assert!(period > 0, "stall period must be positive");
        self.with_fault(
            p,
            Fault::StallEvery {
                period,
                stall_ns: duration_ns(stall),
            },
        )
    }

    /// Injects a panic into processor `p`'s step loop at operation `at_op`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn panic_at(self, p: usize, at_op: usize) -> Self {
        self.with_fault(p, Fault::PanicAt { at_op })
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Supervision parameters for a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Per-processor step budget (same meaning as in
    /// [`run_threaded`](crate::threaded::run_threaded)).
    pub max_steps: usize,
    /// Wall-clock deadline for the whole run. Workers that have not
    /// reported when it expires are recorded as
    /// [`ProcOutcome::Stalled`] / [`ProcOutcome::DeadlineExceeded`]
    /// (never joined — the run returns regardless). `None` waits for every
    /// worker to report, which is guaranteed for any plan because injected
    /// crashes report before parking; use a deadline whenever the *algorithm*
    /// may fail to terminate (e.g. consensus under perpetual contention).
    pub deadline: Option<Duration>,
    /// A worker whose last heartbeat is older than this when the deadline
    /// expires is classified [`ProcOutcome::Stalled`] (wedged), younger ones
    /// [`ProcOutcome::DeadlineExceeded`] (alive but too slow).
    pub stall_grace: Duration,
    /// Optional live-metric registry; when attached, each run records the
    /// `chaos.*` metrics (see [`ChaosTelemetry`]). Never affects outcomes.
    pub telemetry: Option<Arc<MetricRegistry>>,
}

impl ChaosConfig {
    /// A config with the given step budget, no deadline, and a 1-second
    /// stall grace.
    #[must_use]
    pub fn new(max_steps: usize) -> Self {
        ChaosConfig {
            max_steps,
            deadline: None,
            stall_grace: Duration::from_secs(1),
            telemetry: None,
        }
    }

    /// Sets the wall-clock deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the stall-classification grace period (builder style).
    #[must_use]
    pub fn with_stall_grace(mut self, grace: Duration) -> Self {
        self.stall_grace = grace;
        self
    }

    /// Attaches a live-metric registry (builder style).
    #[must_use]
    pub fn with_telemetry(mut self, registry: Arc<MetricRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }
}

/// Live-telemetry handles one chaos run records into (`chaos.*` names,
/// shared with the bench binaries' telemetry streams):
///
/// | name                   | kind    | meaning                                |
/// |------------------------|---------|----------------------------------------|
/// | `chaos.scenarios_done` | counter | supervised runs finished               |
/// | `chaos.steps_total`    | counter | heartbeat step sum across all workers  |
/// | `chaos.supervise`      | span    | report collection until deadline       |
/// | `chaos.collect`        | span    | outcome classification + final memory  |
///
/// All handles record with relaxed atomics; attaching them never changes a
/// run's [`ThreadedReport`].
#[derive(Clone, Debug, Default)]
pub struct ChaosTelemetry {
    /// `chaos.scenarios_done`.
    pub scenarios_done: Counter,
    /// `chaos.steps_total`.
    pub steps_total: Counter,
    /// `chaos.supervise`.
    pub supervise: Span,
    /// `chaos.collect`.
    pub collect: Span,
}

impl ChaosTelemetry {
    /// Resolves the `chaos.*` handles from `registry`.
    #[must_use]
    pub fn from_registry(registry: &MetricRegistry) -> Self {
        ChaosTelemetry {
            scenarios_done: registry.counter("chaos.scenarios_done"),
            steps_total: registry.counter("chaos.steps_total"),
            supervise: registry.span("chaos.supervise"),
            collect: registry.span("chaos.collect"),
        }
    }
}

/// Heartbeat block shared between workers and the supervisor: per-processor
/// last-beat timestamps (nanoseconds since run start) and step counters.
struct Heartbeats {
    start: Instant,
    beat_ns: Vec<AtomicU64>,
    steps: Vec<AtomicUsize>,
}

impl Heartbeats {
    fn new(n: usize, start: Instant) -> Self {
        Heartbeats {
            start,
            beat_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            steps: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn beat(&self, p: usize, steps: usize) {
        self.beat_ns[p].store(elapsed_ns(self.start), Ordering::Relaxed);
        self.steps[p].store(steps, Ordering::Relaxed);
    }

    fn age(&self, p: usize) -> Duration {
        let now = elapsed_ns(self.start);
        Duration::from_nanos(now.saturating_sub(self.beat_ns[p].load(Ordering::Relaxed)))
    }
}

/// How the in-thread worker loop ended.
enum WorkerExit<O, Pr> {
    /// Return normally (thread exits).
    Done {
        outcome: ProcOutcome,
        outputs: Vec<O>,
        steps: usize,
        probe: Pr,
    },
    /// Report, then park the thread forever (poised crash).
    Park {
        outcome: ProcOutcome,
        outputs: Vec<O>,
        steps: usize,
        probe: Pr,
    },
}

struct WorkerReport<O, Pr> {
    proc_id: usize,
    outcome: ProcOutcome,
    outputs: Vec<O>,
    steps: usize,
    /// `None` when the worker panicked (the probe unwound with it).
    probe: Option<Pr>,
}

/// Per-thread fault interpreter.
struct FaultDriver {
    /// `(fault, fired)` — `fired` marks consumed one-shots.
    faults: Vec<(Fault, bool)>,
}

/// What the driver tells the worker loop to do before an operation.
enum Injection {
    CrashStop,
    CrashPoised,
    Panic,
}

impl FaultDriver {
    fn new(faults: &[Fault]) -> Self {
        FaultDriver {
            faults: faults.iter().map(|f| (f.clone(), false)).collect(),
        }
    }

    /// Consults the plan before the worker performs its next shared-memory
    /// operation, having completed `ops_done` so far. Stalls are slept (and
    /// reported to `probe`) right here; terminal injections are returned for
    /// the worker loop to act on.
    fn before_op<Pr: Probe>(
        &mut self,
        proc_id: usize,
        ops_done: usize,
        is_write: bool,
        probe: &mut Pr,
    ) -> Option<Injection> {
        if self.faults.is_empty() {
            return None;
        }
        let mut injection = None;
        for (fault, fired) in &mut self.faults {
            match *fault {
                Fault::StallOnce { at_op, stall_ns } => {
                    if !*fired && ops_done >= at_op {
                        *fired = true;
                        if Pr::ENABLED {
                            probe.on_event(&ProbeEvent::Chaos(ChaosEvent {
                                proc_id,
                                kind: ChaosKind::Stall,
                                at_op: ops_done as u64,
                                covered_global: None,
                                stall_ns,
                            }));
                        }
                        std::thread::sleep(Duration::from_nanos(stall_ns));
                    }
                }
                Fault::StallEvery { period, stall_ns } => {
                    if ops_done > 0 && ops_done % period == 0 && !*fired {
                        // `fired` re-arms on off-period ops so each multiple
                        // stalls exactly once.
                        *fired = true;
                        if Pr::ENABLED {
                            probe.on_event(&ProbeEvent::Chaos(ChaosEvent {
                                proc_id,
                                kind: ChaosKind::Stall,
                                at_op: ops_done as u64,
                                covered_global: None,
                                stall_ns,
                            }));
                        }
                        std::thread::sleep(Duration::from_nanos(stall_ns));
                    } else if ops_done % period != 0 {
                        *fired = false;
                    }
                }
                Fault::CrashStop { after_ops } => {
                    if ops_done >= after_ops {
                        injection = Some(Injection::CrashStop);
                    }
                }
                Fault::CrashPoised { after_ops } => {
                    if ops_done >= after_ops && is_write && injection.is_none() {
                        injection = Some(Injection::CrashPoised);
                    }
                }
                Fault::PanicAt { at_op } => {
                    if ops_done >= at_op && !*fired {
                        *fired = true;
                        injection = Some(Injection::Panic);
                    }
                }
            }
        }
        injection
    }
}

/// [`run_chaos_probed`] without observation.
///
/// # Errors
///
/// Same configuration errors as
/// [`run_threaded`](crate::threaded::run_threaded).
///
/// # Panics
///
/// Panics if the plan's processor count differs from `procs.len()`.
/// Worker panics — injected or organic — never propagate; they become
/// [`ProcOutcome::Panicked`].
pub fn run_chaos<P>(
    procs: Vec<P>,
    wirings: Vec<Wiring>,
    m: usize,
    init: P::Value,
    plan: &FaultPlan,
    config: &ChaosConfig,
) -> Result<ThreadedReport<P::Value, P::Output>, MemoryError>
where
    P: Process + Send + 'static,
    P::Value: Clone + Send + Sync + std::fmt::Debug + 'static,
    P::Output: Send + std::fmt::Debug + 'static,
{
    run_chaos_probed(procs, wirings, m, init, plan, config, |_| NoProbe)
        .map(|(report, _probes)| report)
}

/// Runs `procs` on OS threads under fault plan `plan`, supervised per
/// `config`. Per-thread probes are built by `make_probe(i)` and returned in
/// processor order; a probe is `None` when its worker panicked (the probe
/// unwound with the thread) or missed the deadline.
///
/// The chaos-aware loop extends
/// [`run_threaded_probed`](crate::threaded::run_threaded_probed): workers
/// heartbeat on every step, consult the fault plan before every
/// shared-memory operation, and report a structured [`ProcOutcome`] through
/// a channel instead of being joined — so a parked (poised-crashed) or
/// wedged thread can never hang the caller. Step panics are contained with
/// [`catch_unwind`].
///
/// # Errors
///
/// Same configuration errors as
/// [`run_threaded`](crate::threaded::run_threaded).
///
/// # Panics
///
/// Panics if the plan's processor count differs from `procs.len()`.
#[allow(clippy::type_complexity)]
pub fn run_chaos_probed<P, Pr, F>(
    procs: Vec<P>,
    wirings: Vec<Wiring>,
    m: usize,
    init: P::Value,
    plan: &FaultPlan,
    config: &ChaosConfig,
    make_probe: F,
) -> Result<(ThreadedReport<P::Value, P::Output>, Vec<Option<Pr>>), MemoryError>
where
    P: Process + Send + 'static,
    P::Value: Clone + Send + Sync + std::fmt::Debug + 'static,
    P::Output: Send + std::fmt::Debug + 'static,
    Pr: Probe + Send + 'static,
    F: FnMut(usize) -> Pr,
{
    let mut make_probe = make_probe;
    let n = procs.len();
    if n < 2 {
        return Err(MemoryError::TooFewProcessors { processes: n });
    }
    if m == 0 {
        return Err(MemoryError::ZeroRegisters);
    }
    if wirings.len() != n {
        return Err(MemoryError::WiringCountMismatch {
            processes: n,
            wirings: wirings.len(),
        });
    }
    for (i, w) in wirings.iter().enumerate() {
        if w.len() != m {
            return Err(MemoryError::WiringSizeMismatch {
                proc: ProcId(i),
                wiring_len: w.len(),
                registers: m,
            });
        }
    }
    assert_eq!(
        plan.num_procs(),
        n,
        "fault plan covers {} processors but the run has {n}",
        plan.num_procs()
    );

    // All registers share the initial cell until first written: the value is
    // immutable behind the `Arc`, so sharing is invisible.
    let init_cell = Arc::new(init);
    let registers: Arc<Vec<Mutex<RegisterCell<P::Value>>>> = Arc::new(
        (0..m)
            .map(|_| {
                Mutex::new(RegisterCell {
                    value: Arc::clone(&init_cell),
                    version: 0,
                })
            })
            .collect(),
    );
    let start = Instant::now();
    let heartbeats = Arc::new(Heartbeats::new(n, start));
    let (tx, rx) = mpsc::channel::<WorkerReport<P::Output, Pr>>();
    let max_steps = config.max_steps;

    for (proc_id, (proc, wiring)) in procs.into_iter().zip(wirings).enumerate() {
        let registers = Arc::clone(&registers);
        let heartbeats = Arc::clone(&heartbeats);
        let probe = make_probe(proc_id);
        let driver = FaultDriver::new(plan.for_proc(proc_id));
        let tx = tx.clone();
        // Handles are dropped deliberately: workers report through the
        // channel, and a poised-crashed worker parks forever — joining
        // would hang.
        std::thread::spawn(move || {
            let body = catch_unwind(AssertUnwindSafe(|| {
                worker_loop(
                    proc_id,
                    proc,
                    wiring,
                    &registers,
                    probe,
                    driver,
                    &heartbeats,
                    max_steps,
                )
            }));
            let report = match body {
                Ok(WorkerExit::Done {
                    outcome,
                    outputs,
                    steps,
                    probe,
                })
                | Ok(WorkerExit::Park {
                    outcome,
                    outputs,
                    steps,
                    probe,
                }) => WorkerReport {
                    proc_id,
                    outcome,
                    outputs,
                    steps,
                    probe: Some(probe),
                },
                Err(payload) => WorkerReport {
                    proc_id,
                    outcome: ProcOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    },
                    outputs: Vec::new(),
                    steps: heartbeats.steps[proc_id].load(Ordering::Relaxed),
                    probe: None,
                },
            };
            let park = matches!(
                report.outcome,
                ProcOutcome::Crashed {
                    covering: Some(_),
                    ..
                }
            );
            // A closed channel means the supervisor gave up on us
            // (deadline); nothing left to report to.
            let _ = tx.send(report);
            drop(tx);
            if park {
                loop {
                    std::thread::park();
                }
            }
        });
    }
    drop(tx);

    let telemetry = config
        .telemetry
        .as_deref()
        .map(ChaosTelemetry::from_registry);

    // Supervision: collect reports until all workers answered or the
    // deadline expires; classify the silent ones by heartbeat age.
    let supervise_guard = telemetry.as_ref().map(|t| t.supervise.enter());
    let mut slots: Vec<Option<WorkerReport<P::Output, Pr>>> = (0..n).map(|_| None).collect();
    let mut received = 0usize;
    while received < n {
        let timeout = match config.deadline {
            None => Duration::from_millis(50),
            Some(d) => match d.checked_sub(start.elapsed()) {
                Some(remaining) => remaining.min(Duration::from_millis(50)),
                None => break,
            },
        };
        match rx.recv_timeout(timeout) {
            Ok(report) => {
                let id = report.proc_id;
                debug_assert!(slots[id].is_none(), "duplicate report from worker {id}");
                slots[id] = Some(report);
                received += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // A report that landed in the channel by the time the deadline expired
    // is a real answer — completion *at* the deadline is completion, and a
    // deadline that pre-expired during thread spawning must not erase
    // reports already sent. Drain whatever is queued before classifying the
    // silent workers by heartbeat.
    drain_ready(&rx, &mut slots, &mut received);
    drop(supervise_guard);

    let collect_guard = telemetry.as_ref().map(|t| t.collect.enter());
    let mut outputs = Vec::with_capacity(n);
    let mut steps = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut probes = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(report) => {
                outputs.push(report.outputs);
                steps.push(report.steps);
                outcomes.push(report.outcome);
                probes.push(report.probe);
            }
            None => {
                outputs.push(Vec::new());
                steps.push(heartbeats.steps[i].load(Ordering::Relaxed));
                outcomes.push(if heartbeats.age(i) > config.stall_grace {
                    ProcOutcome::Stalled
                } else {
                    ProcOutcome::DeadlineExceeded
                });
                probes.push(None);
            }
        }
    }

    let final_contents = registers
        .iter()
        .map(|r| {
            let cell = r.lock();
            (*cell.value).clone()
        })
        .collect();
    drop(collect_guard);
    if let Some(tel) = &telemetry {
        tel.scenarios_done.inc();
        tel.steps_total.add(steps.iter().map(|&s| s as u64).sum());
    }
    Ok((
        ThreadedReport {
            outputs,
            steps,
            outcomes,
            final_contents,
        },
        probes,
    ))
}

/// Non-blocking post-deadline drain: moves every report already queued in
/// `rx` into its slot. Reports sent after this point stay unclaimed — their
/// workers are classified by heartbeat age like any other silent worker.
fn drain_ready<O, Pr>(
    rx: &mpsc::Receiver<WorkerReport<O, Pr>>,
    slots: &mut [Option<WorkerReport<O, Pr>>],
    received: &mut usize,
) {
    while *received < slots.len() {
        match rx.try_recv() {
            Ok(report) => {
                let id = report.proc_id;
                debug_assert!(slots[id].is_none(), "duplicate report from worker {id}");
                slots[id] = Some(report);
                *received += 1;
            }
            Err(mpsc::TryRecvError::Empty | mpsc::TryRecvError::Disconnected) => break,
        }
    }
}

/// The per-thread step loop: identical memory semantics to
/// [`run_threaded_probed`](crate::threaded::run_threaded_probed), plus
/// heartbeats and the fault gate before every shared-memory operation.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P, Pr>(
    proc_id: usize,
    mut proc: P,
    wiring: Wiring,
    registers: &[Mutex<RegisterCell<P::Value>>],
    mut probe: Pr,
    mut driver: FaultDriver,
    heartbeats: &Heartbeats,
    max_steps: usize,
) -> WorkerExit<P::Output, Pr>
where
    P: Process,
    P::Value: Clone + std::fmt::Debug,
    P::Output: std::fmt::Debug,
    Pr: Probe,
{
    let mut outputs = Vec::new();
    let mut steps = 0usize;
    let mut ops = 0usize;
    let mut input = StepInput::Start;
    let mut halted = false;
    while steps < max_steps {
        let action = proc.step(input);
        steps += 1;
        heartbeats.beat(proc_id, steps);
        let time = steps as u64;
        // The fault gate sits between deciding an operation and performing
        // it — the instant the model calls "poised".
        if let Action::Read { .. } | Action::Write { .. } = action {
            let is_write = matches!(action, Action::Write { .. });
            match driver.before_op(proc_id, ops, is_write, &mut probe) {
                Some(Injection::CrashStop) => {
                    if Pr::ENABLED {
                        probe.on_event(&ProbeEvent::Chaos(ChaosEvent {
                            proc_id,
                            kind: ChaosKind::CrashStop,
                            at_op: ops as u64,
                            covered_global: None,
                            stall_ns: 0,
                        }));
                    }
                    return WorkerExit::Done {
                        outcome: ProcOutcome::Crashed {
                            after_ops: ops,
                            covering: None,
                        },
                        outputs,
                        steps,
                        probe,
                    };
                }
                Some(Injection::CrashPoised) => {
                    let global = match action {
                        Action::Write { local, .. } => wiring.global(local).0,
                        _ => unreachable!("poised crashes only fire on writes"),
                    };
                    if Pr::ENABLED {
                        probe.on_event(&ProbeEvent::Chaos(ChaosEvent {
                            proc_id,
                            kind: ChaosKind::CrashPoised,
                            at_op: ops as u64,
                            covered_global: Some(global),
                            stall_ns: 0,
                        }));
                    }
                    return WorkerExit::Park {
                        outcome: ProcOutcome::Crashed {
                            after_ops: ops,
                            covering: Some(global),
                        },
                        outputs,
                        steps,
                        probe,
                    };
                }
                Some(Injection::Panic) => {
                    if Pr::ENABLED {
                        probe.on_event(&ProbeEvent::Chaos(ChaosEvent {
                            proc_id,
                            kind: ChaosKind::Panic,
                            at_op: ops as u64,
                            covered_global: None,
                            stall_ns: 0,
                        }));
                    }
                    panic!("chaos: injected panic on processor {proc_id} at op {ops}");
                }
                None => {}
            }
        }
        input = match action {
            Action::Read { local } => {
                let global = wiring.global(local);
                // Clone the Arc handle under the lock, never the value: the
                // critical section is O(1) regardless of value size.
                let value;
                if Pr::ENABLED {
                    let op_start = Instant::now();
                    let guard = registers[global.0].lock();
                    let lock_wait_ns = elapsed_ns(op_start);
                    value = Versioned::from_shared(Arc::clone(&guard.value), guard.version);
                    drop(guard);
                    probe.on_event(&ProbeEvent::Read(ReadEvent {
                        proc_id,
                        local: local.0,
                        global: global.0,
                        time,
                        read_from: None,
                        value: Pr::WANTS_VALUES.then(|| format!("{:?}", value.get())),
                    }));
                    probe.on_event(&ProbeEvent::Timing(TimingEvent {
                        proc_id,
                        op: OpKind::Read,
                        ns: elapsed_ns(op_start),
                        lock_wait_ns,
                    }));
                } else {
                    let guard = registers[global.0].lock();
                    value = Versioned::from_shared(Arc::clone(&guard.value), guard.version);
                }
                ops += 1;
                StepInput::ReadValue(value)
            }
            Action::Write { local, value } => {
                let global = wiring.global(local);
                // Allocate the shared cell before taking the lock; the
                // critical section is a pointer swap plus a version bump.
                let cell = Arc::new(value);
                if Pr::ENABLED {
                    let rendered = Pr::WANTS_VALUES.then(|| format!("{:?}", &*cell));
                    let op_start = Instant::now();
                    let mut guard = registers[global.0].lock();
                    let lock_wait_ns = elapsed_ns(op_start);
                    guard.value = cell;
                    guard.version += 1;
                    drop(guard);
                    probe.on_event(&ProbeEvent::Write(WriteEvent {
                        proc_id,
                        local: local.0,
                        global: global.0,
                        time,
                        overwrote_writer: None,
                        value: rendered,
                    }));
                    probe.on_event(&ProbeEvent::Timing(TimingEvent {
                        proc_id,
                        op: OpKind::Write,
                        ns: elapsed_ns(op_start),
                        lock_wait_ns,
                    }));
                } else {
                    let mut guard = registers[global.0].lock();
                    guard.value = cell;
                    guard.version += 1;
                }
                ops += 1;
                StepInput::Wrote
            }
            Action::Output(o) => {
                if Pr::ENABLED {
                    probe.on_event(&ProbeEvent::Output(OutputEvent {
                        proc_id,
                        time,
                        value: Pr::WANTS_VALUES.then(|| format!("{o:?}")),
                    }));
                }
                outputs.push(o);
                StepInput::OutputRecorded
            }
            Action::Halt => {
                if Pr::ENABLED {
                    probe.on_event(&ProbeEvent::Halt { proc_id, time });
                }
                halted = true;
                break;
            }
        };
    }
    WorkerExit::Done {
        outcome: if halted {
            ProcOutcome::Completed
        } else {
            ProcOutcome::BudgetExhausted
        },
        outputs,
        steps,
        probe,
    }
}

/// Renders a caught panic payload (`&str` and `String` payloads verbatim,
/// anything else a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_obs::RunMetrics;

    /// Writes `rounds` times to alternating registers, then halts.
    #[derive(Clone)]
    struct WriterN {
        input: u32,
        rounds: u32,
        done: u32,
    }
    impl Process for WriterN {
        type Value = u32;
        type Output = u32;
        fn step(&mut self, _i: StepInput<u32>) -> Action<u32, u32> {
            if self.done == self.rounds {
                self.done += 1;
                return Action::Output(self.input);
            }
            if self.done > self.rounds {
                return Action::Halt;
            }
            self.done += 1;
            Action::write(0, self.input)
        }
    }

    fn writers(n: usize, rounds: u32) -> Vec<WriterN> {
        (0..n)
            .map(|i| WriterN {
                input: i as u32,
                rounds,
                done: 0,
            })
            .collect()
    }

    #[test]
    fn empty_plan_matches_plain_threaded_semantics() {
        let report = run_chaos(
            writers(3, 2),
            vec![Wiring::identity(1); 3],
            1,
            0u32,
            &FaultPlan::new(3),
            &ChaosConfig::new(100),
        )
        .unwrap();
        assert!(report.all_completed());
        assert!(report.outcomes.iter().all(ProcOutcome::is_completed));
        assert_eq!(report.outputs.iter().map(Vec::len).sum::<usize>(), 3);
    }

    #[test]
    fn telemetry_attached_run_reports_identically_and_counts_exactly() {
        let run = |telemetry: Option<Arc<MetricRegistry>>| {
            let mut config = ChaosConfig::new(100);
            config.telemetry = telemetry;
            run_chaos(
                writers(3, 2),
                vec![Wiring::identity(1); 3],
                1,
                0u32,
                &FaultPlan::new(3),
                &config,
            )
            .unwrap()
        };
        let plain = run(None);
        let registry = Arc::new(MetricRegistry::new());
        let probed = run(Some(Arc::clone(&registry)));
        assert_eq!(plain.outcomes, probed.outcomes);
        assert_eq!(plain.outputs, probed.outputs);
        assert_eq!(plain.steps, probed.steps);

        let snap = registry.sample(0, None);
        assert_eq!(snap.counter("chaos.scenarios_done"), 1);
        assert_eq!(
            snap.counter("chaos.steps_total"),
            probed.steps.iter().map(|&s| s as u64).sum::<u64>()
        );
        let supervise = snap.phases.get("chaos.supervise").expect("supervise span");
        assert_eq!(supervise.calls, 1);
        let collect = snap.phases.get("chaos.collect").expect("collect span");
        assert_eq!(collect.calls, 1);

        // A second supervised run accumulates into the same registry.
        let _ = run(Some(Arc::clone(&registry)));
        assert_eq!(registry.counter("chaos.scenarios_done").get(), 2);
    }

    #[test]
    fn crash_stop_fires_after_k_ops() {
        let report = run_chaos(
            writers(3, 5),
            vec![Wiring::identity(1); 3],
            1,
            0u32,
            &FaultPlan::new(3).crash_stop(1, 2),
            &ChaosConfig::new(100),
        )
        .unwrap();
        assert_eq!(
            report.outcomes[1],
            ProcOutcome::Crashed {
                after_ops: 2,
                covering: None
            }
        );
        assert!(report.outputs[1].is_empty(), "crashed before its output");
        assert!(report.outcomes[0].is_completed());
        assert!(report.outcomes[2].is_completed());
    }

    /// Writes `10 * id + r` to register 0 in rounds `r = 1..=3`, then
    /// outputs and halts: every landed write names its writer and round.
    struct RoundWriter {
        id: u32,
        round: u32,
    }
    impl Process for RoundWriter {
        type Value = u32;
        type Output = u32;
        fn step(&mut self, _i: StepInput<u32>) -> Action<u32, u32> {
            self.round += 1;
            match self.round {
                1..=3 => Action::write(0, 10 * self.id + self.round),
                4 => Action::Output(self.id),
                _ => Action::Halt,
            }
        }
    }

    /// The values of the writes a worker performed, as its probe saw them.
    #[derive(Default)]
    struct LandedWrites(Vec<String>);
    impl Probe for LandedWrites {
        const WANTS_VALUES: bool = true;
        fn on_event(&mut self, event: &ProbeEvent) {
            if let ProbeEvent::Write(e) = event {
                self.0.extend(e.value.clone());
            }
        }
    }

    #[test]
    fn poised_crash_parks_without_hanging_the_run() {
        // p0 writes 1, then crashes poised on its round-2 write of 2; p1
        // writes 11, 12, 13. Any interleaving may run p0's one landed write
        // last, so the final value is 1 or 13, but never 2.
        let (report, probes) = run_chaos_probed(
            (0..2).map(|id| RoundWriter { id, round: 0 }).collect(),
            vec![Wiring::identity(1); 2],
            1,
            0u32,
            &FaultPlan::new(2).crash_poised(0, 1),
            &ChaosConfig::new(100),
            |_| LandedWrites::default(),
        )
        .unwrap();
        assert_eq!(
            report.outcomes[0],
            ProcOutcome::Crashed {
                after_ops: 1,
                covering: Some(0)
            }
        );
        assert_eq!(report.covered_registers(), vec![0]);
        assert!(report.outcomes[1].is_completed());
        // The pending write never landed.
        let landed = |p: usize| probes[p].as_ref().expect("worker reported").0.clone();
        assert_eq!(landed(0), ["1"]);
        assert_eq!(landed(1), ["11", "12", "13"]);
        assert!(
            report.final_contents == [1] || report.final_contents == [13],
            "{:?}",
            report.final_contents
        );
    }

    #[test]
    fn injected_panic_is_contained_and_recorded() {
        let report = run_chaos(
            writers(3, 4),
            vec![Wiring::identity(1); 3],
            1,
            0u32,
            &FaultPlan::new(3).panic_at(2, 1),
            &ChaosConfig::new(100),
        )
        .unwrap();
        match &report.outcomes[2] {
            ProcOutcome::Panicked { message } => {
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(report.outcomes[0].is_completed());
        assert!(report.outcomes[1].is_completed());
    }

    #[test]
    fn stalls_delay_but_do_not_kill() {
        let report = run_chaos(
            writers(2, 4),
            vec![Wiring::identity(1); 2],
            1,
            0u32,
            &FaultPlan::new(2)
                .stall_once(0, 1, Duration::from_millis(2))
                .stall_every(1, 2, Duration::from_millis(1)),
            &ChaosConfig::new(100).with_deadline(Duration::from_secs(30)),
        )
        .unwrap();
        assert!(report.all_completed(), "{:?}", report.outcomes);
    }

    #[test]
    fn deadline_classifies_silent_workers() {
        let report = run_chaos(
            writers(2, 1),
            vec![Wiring::identity(1); 2],
            1,
            0u32,
            // A 10-second stall on p0's first op: p0 cannot report before
            // the 100 ms deadline and its heartbeat stays fresh-ish — the
            // supervisor classifies by heartbeat age vs the tiny grace.
            &FaultPlan::new(2).stall_once(0, 0, Duration::from_secs(10)),
            &ChaosConfig::new(100)
                .with_deadline(Duration::from_millis(100))
                .with_stall_grace(Duration::from_millis(20)),
        )
        .unwrap();
        assert!(
            matches!(
                report.outcomes[0],
                ProcOutcome::Stalled | ProcOutcome::DeadlineExceeded
            ),
            "{:?}",
            report.outcomes[0]
        );
        assert!(report.outcomes[1].is_completed());
    }

    #[test]
    fn reports_queued_at_the_deadline_are_drained_not_discarded() {
        // The exact post-deadline race, deterministically: both workers'
        // reports are already in the channel when the supervisor gives up
        // on blocking. Classification must come from the reports, never
        // from heartbeat age.
        let (tx, rx) = mpsc::channel::<WorkerReport<u32, NoProbe>>();
        for proc_id in [1usize, 0] {
            tx.send(WorkerReport {
                proc_id,
                outcome: ProcOutcome::Completed,
                outputs: vec![proc_id as u32],
                steps: 3,
                probe: Some(NoProbe),
            })
            .unwrap();
        }
        let mut slots: Vec<Option<WorkerReport<u32, NoProbe>>> = vec![None, None];
        let mut received = 0;
        drain_ready(&rx, &mut slots, &mut received);
        assert_eq!(received, 2);
        for (i, slot) in slots.iter().enumerate() {
            let report = slot.as_ref().expect("queued report claimed");
            assert_eq!(report.outcome, ProcOutcome::Completed);
            assert_eq!(report.outputs, vec![i as u32]);
        }
        // An empty channel leaves the remaining slot silent without
        // blocking or panicking.
        let mut slots: Vec<Option<WorkerReport<u32, NoProbe>>> = vec![None];
        let mut received = 0;
        drain_ready(&rx, &mut slots, &mut received);
        assert_eq!(received, 0);
        assert!(slots[0].is_none());
    }

    #[test]
    fn zero_fault_runs_under_a_deadline_always_complete() {
        // Regression: a fault-free run raced against a deadline must never
        // lose a completion that reported in time. Loop to give the
        // spawn/report/supervise interleavings room to vary.
        for _ in 0..40 {
            let report = run_chaos(
                writers(2, 1),
                vec![Wiring::identity(1); 2],
                1,
                0u32,
                &FaultPlan::new(2),
                &ChaosConfig::new(100).with_deadline(Duration::from_millis(250)),
            )
            .unwrap();
            assert!(
                report.outcomes.iter().all(ProcOutcome::is_completed),
                "{:?}",
                report.outcomes
            );
            assert_eq!(report.outputs.iter().map(Vec::len).sum::<usize>(), 2);
        }
    }

    #[test]
    fn chaos_events_flow_through_probes() {
        #[derive(Default)]
        struct ChaosCount(Vec<ChaosEvent>);
        impl Probe for ChaosCount {
            fn on_event(&mut self, event: &ProbeEvent) {
                if let ProbeEvent::Chaos(e) = event {
                    self.0.push(e.clone());
                }
            }
        }
        let (report, probes) = run_chaos_probed(
            writers(2, 4),
            vec![Wiring::identity(1); 2],
            1,
            0u32,
            &FaultPlan::new(2).crash_stop(0, 2),
            &ChaosConfig::new(100),
            |_| ChaosCount::default(),
        )
        .unwrap();
        assert!(matches!(
            report.outcomes[0],
            ProcOutcome::Crashed { covering: None, .. }
        ));
        let p0 = probes[0].as_ref().expect("reported worker keeps probe");
        assert_eq!(p0.0.len(), 1);
        assert_eq!(p0.0[0].kind, ChaosKind::CrashStop);
        assert_eq!(p0.0[0].at_op, 2);
    }

    #[test]
    fn metrics_probes_survive_chaos() {
        let (report, probes) = run_chaos_probed(
            writers(3, 3),
            vec![Wiring::identity(1); 3],
            1,
            0u32,
            &FaultPlan::new(3).crash_stop(1, 1),
            &ChaosConfig::new(100),
            |_| RunMetrics::new(),
        )
        .unwrap();
        let mut total = RunMetrics::new();
        for p in probes.iter().flatten() {
            total.merge(p);
        }
        // p0 and p2 completed their 3 writes; p1 crashed after 1.
        assert_eq!(total.total_writes(), 7);
        assert_eq!(report.steps[1], 2, "crash counted at the blocked op");
    }

    #[test]
    #[should_panic(expected = "fault plan covers")]
    fn plan_size_mismatch_panics() {
        let _ = run_chaos(
            writers(3, 1),
            vec![Wiring::identity(1); 3],
            1,
            0u32,
            &FaultPlan::new(2),
            &ChaosConfig::new(10),
        );
    }
}
