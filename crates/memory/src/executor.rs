//! The deterministic executor: drives step-machine processes against a
//! [`SharedMemory`] under a [`Scheduler`].

use crate::schedule::{RandomScheduler, RoundRobin, Scheduler, SoloScheduler};
use crate::{
    Action, Event, EventKind, MemoryError, ProcId, Process, SharedMemory, StepInput, Trace,
};
use fa_obs::{NoProbe, OutputEvent, Probe, ProbeEvent, ReadEvent, StepEvent, WriteEvent};

/// What a single executed step did, from the executor's perspective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The processor performed a read or a write.
    MemoryAccess,
    /// The processor recorded an output.
    Output,
    /// The processor halted; it will not be scheduled again.
    Halted,
}

/// Result of driving a run to its end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Steps executed during this run call.
    pub steps: usize,
    /// `true` if every processor has halted.
    pub all_halted: bool,
}

/// Drives a set of [`Process`] machines against a [`SharedMemory`].
///
/// The executor owns the ground truth: the memory, the wirings (inside the
/// memory), each process's *pending action* (the step it is poised to take —
/// the "covering" notion of the paper's title is exactly a set of processors
/// poised to write), output records, and an optional [`Trace`].
///
/// One call to [`step_proc`](Executor::step_proc) executes exactly one atomic
/// step of one processor, matching the paper's model where a step is a single
/// register read, register write, or output.
///
/// ```
/// use fa_memory::{Executor, SharedMemory, Wiring, Process, Action, StepInput};
///
/// #[derive(Clone)]
/// struct Echo { input: u32, state: u8 }
/// impl Process for Echo {
///     type Value = u32;
///     type Output = u32;
///     fn step(&mut self, input: StepInput<u32>) -> Action<u32, u32> {
///         match (self.state, input) {
///             (0, _) => { self.state = 1; Action::write(0, self.input) }
///             (1, _) => { self.state = 2; Action::read(0) }
///             (2, StepInput::ReadValue(v)) => { self.state = 3; Action::Output(*v) }
///             _ => Action::Halt,
///         }
///     }
/// }
///
/// let memory = SharedMemory::new(1, 0, vec![Wiring::identity(1); 2]).unwrap();
/// let procs = vec![Echo { input: 4, state: 0 }, Echo { input: 8, state: 0 }];
/// let mut exec = Executor::new(procs, memory).unwrap();
/// let outcome = exec.run_round_robin(100).unwrap();
/// assert!(outcome.all_halted);
/// // Both processors output something they read; with round-robin both
/// // read 8 (p1's write lands second).
/// assert!(exec.first_output(fa_memory::ProcId(0)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Executor<P: Process, Pr: Probe = NoProbe> {
    procs: Vec<P>,
    /// The action each processor is poised to take. `None` once halted.
    pending: Vec<Option<Action<P::Value, P::Output>>>,
    /// Whether each processor has taken at least one step ("participates").
    participated: Vec<bool>,
    outputs: Vec<Vec<P::Output>>,
    steps_taken: Vec<usize>,
    memory: SharedMemory<P::Value>,
    time: u64,
    trace: Option<Trace<P::Value, P::Output>>,
    /// Observer of the run's event stream. With the default [`NoProbe`]
    /// every hook call is compile-time dead code.
    probe: Pr,
    /// Processors currently poised to write, maintained incrementally so the
    /// per-step covering-size hook is O(1).
    poised_writers: usize,
}

impl<P> Executor<P>
where
    P: Process,
    P::Value: Clone,
    P::Output: Clone,
{
    /// Creates an executor for `procs` over `memory`.
    ///
    /// Each process is immediately asked for its first action
    /// ([`StepInput::Start`]); it does not *take* that step until scheduled.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::TooFewProcessors`] if fewer than two processes are
    ///   supplied (the model requires `N > 1`).
    /// * [`MemoryError::WiringCountMismatch`] if the memory is wired for a
    ///   different number of processors.
    pub fn new(procs: Vec<P>, memory: SharedMemory<P::Value>) -> Result<Self, MemoryError> {
        Self::with_probe(procs, memory, NoProbe)
    }
}

impl<P, Pr> Executor<P, Pr>
where
    P: Process,
    P::Value: Clone,
    P::Output: Clone,
    Pr: Probe,
{
    /// Creates an executor whose run will be observed by `probe`.
    ///
    /// Identical to [`Executor::new`] otherwise; retrieve the probe with
    /// [`probe`](Executor::probe) / [`into_probe`](Executor::into_probe).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::new`].
    pub fn with_probe(
        procs: Vec<P>,
        memory: SharedMemory<P::Value>,
        probe: Pr,
    ) -> Result<Self, MemoryError> {
        if procs.len() < 2 {
            return Err(MemoryError::TooFewProcessors {
                processes: procs.len(),
            });
        }
        if memory.proc_count() != procs.len() {
            return Err(MemoryError::WiringCountMismatch {
                processes: procs.len(),
                wirings: memory.proc_count(),
            });
        }
        let n = procs.len();
        let mut exec = Executor {
            procs,
            pending: Vec::with_capacity(n),
            participated: vec![false; n],
            outputs: vec![Vec::new(); n],
            steps_taken: vec![0; n],
            memory,
            time: 0,
            trace: None,
            probe,
            poised_writers: 0,
        };
        for p in &mut exec.procs {
            let action = p.step(StepInput::Start);
            if matches!(action, Action::Write { .. }) {
                exec.poised_writers += 1;
            }
            exec.pending.push(Some(action));
        }
        Ok(exec)
    }

    /// The probe observing this run.
    #[must_use]
    pub fn probe(&self) -> &Pr {
        &self.probe
    }

    /// Mutable access to the probe (e.g. to record algorithm-level resets
    /// the executor itself cannot see).
    pub fn probe_mut(&mut self) -> &mut Pr {
        &mut self.probe
    }

    /// Consumes the executor, returning the probe with everything it
    /// aggregated.
    #[must_use]
    pub fn into_probe(self) -> Pr {
        self.probe
    }

    /// Enables (or disables) trace recording. Disabled by default because
    /// long benchmark runs would otherwise accumulate unbounded history.
    pub fn record_trace(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(Trace::new());
            }
        } else {
            self.trace = None;
        }
    }

    /// The recorded trace, if recording is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace<P::Value, P::Output>> {
        self.trace.as_ref()
    }

    /// Number of processors `N`.
    #[must_use]
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// The ground-truth memory (analysis only).
    #[must_use]
    pub fn memory(&self) -> &SharedMemory<P::Value> {
        &self.memory
    }

    /// The process state of `p` (analysis only).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn process(&self, p: ProcId) -> &P {
        &self.procs[p.0]
    }

    /// The action `p` is poised to take, or `None` if `p` has halted.
    ///
    /// Inspecting poised actions is how covering arguments are phrased: the
    /// lower bound of Section 2.1 runs processors "until all members of `Q`
    /// are poised to perform their first write".
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn pending_action(&self, p: ProcId) -> Option<&Action<P::Value, P::Output>> {
        self.pending[p.0].as_ref()
    }

    /// Whether `p` has halted.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn is_halted(&self, p: ProcId) -> bool {
        self.pending[p.0].is_none()
    }

    /// Whether every processor has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.pending.iter().all(Option::is_none)
    }

    /// Whether `p` has taken at least one step (the paper's "participates").
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn participated(&self, p: ProcId) -> bool {
        self.participated[p.0]
    }

    /// The live (non-halted) processors in increasing id order.
    #[must_use]
    pub fn live_procs(&self) -> Vec<ProcId> {
        (0..self.procs.len())
            .filter(|&i| self.pending[i].is_some())
            .map(ProcId)
            .collect()
    }

    /// All outputs recorded by `p`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn outputs(&self, p: ProcId) -> &[P::Output] {
        &self.outputs[p.0]
    }

    /// The first output of `p`, if any — the write-once output of the
    /// one-shot task model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn first_output(&self, p: ProcId) -> Option<&P::Output> {
        self.outputs[p.0].first()
    }

    /// First outputs of all processors, indexed by processor id.
    #[must_use]
    pub fn first_outputs(&self) -> Vec<Option<P::Output>> {
        self.outputs.iter().map(|os| os.first().cloned()).collect()
    }

    /// Steps taken so far by `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn steps_taken(&self, p: ProcId) -> usize {
        self.steps_taken[p.0]
    }

    /// Total steps executed across all processors.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.steps_taken.iter().sum()
    }

    /// The current global time (number of steps executed so far).
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }
}

/// Stepping requires `Debug` value/output types so an enabled probe can
/// render them into its event stream; with [`NoProbe`] the rendering is
/// compile-time dead code, but the bound keeps one `step_proc` body for
/// both cases.
impl<P, Pr> Executor<P, Pr>
where
    P: Process,
    P::Value: Clone + std::fmt::Debug,
    P::Output: Clone + std::fmt::Debug,
    Pr: Probe,
{
    /// Executes exactly one atomic step of processor `p`.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::ScheduledHalted`] if `p` already halted.
    /// * Index errors if the process requested an out-of-range register.
    pub fn step_proc(&mut self, p: ProcId) -> Result<StepOutcome, MemoryError> {
        if p.0 >= self.procs.len() {
            return Err(MemoryError::ProcOutOfRange {
                proc: p,
                processes: self.procs.len(),
            });
        }
        let action = self.pending[p.0]
            .take()
            .ok_or(MemoryError::ScheduledHalted { proc: p })?;
        if matches!(action, Action::Write { .. }) {
            self.poised_writers -= 1;
        }
        self.participated[p.0] = true;
        self.steps_taken[p.0] += 1;
        let time = self.time;
        self.time += 1;
        // Probe events are stamped with the post-step time (1-based step
        // index), so the last event's time equals the run's total steps.
        let probe_time = self.time;

        let (outcome, next_input, event_kind) = match action {
            Action::Read { local } => {
                // Zero-clone read: the `Versioned` handle shares the register
                // cell; the value is deep-cloned only into an enabled trace.
                let (value, global, read_from) = self.memory.read(p, local)?;
                if Pr::ENABLED {
                    self.probe.on_event(&ProbeEvent::Read(ReadEvent {
                        proc_id: p.0,
                        local: local.0,
                        global: global.0,
                        time: probe_time,
                        read_from: read_from.map(|w| w.0),
                        value: Pr::WANTS_VALUES.then(|| format!("{:?}", value.get())),
                    }));
                }
                let event = self.trace.is_some().then(|| EventKind::Read {
                    local,
                    global,
                    value: value.get().clone(),
                    read_from,
                });
                (
                    StepOutcome::MemoryAccess,
                    Some(StepInput::ReadValue(value)),
                    event,
                )
            }
            Action::Write { local, value } => {
                let overwrote_writer = self.memory.last_writer(self.memory.resolve(p, local)?);
                // Allocate the shared cell once; keep a handle so tracing and
                // probing can render the written value without re-cloning it
                // out of the memory.
                let cell = std::sync::Arc::new(value);
                let (global, overwrote) =
                    self.memory
                        .write_shared(p, local, std::sync::Arc::clone(&cell))?;
                if Pr::ENABLED {
                    self.probe.on_event(&ProbeEvent::Write(WriteEvent {
                        proc_id: p.0,
                        local: local.0,
                        global: global.0,
                        time: probe_time,
                        overwrote_writer: overwrote_writer.map(|w| w.0),
                        value: Pr::WANTS_VALUES.then(|| format!("{:?}", &*cell)),
                    }));
                }
                let event = self.trace.is_some().then(|| EventKind::Write {
                    local,
                    global,
                    value: (*cell).clone(),
                    overwrote: (*overwrote).clone(),
                    overwrote_writer,
                });
                (StepOutcome::MemoryAccess, Some(StepInput::Wrote), event)
            }
            Action::Output(o) => {
                if Pr::ENABLED {
                    self.probe.on_event(&ProbeEvent::Output(OutputEvent {
                        proc_id: p.0,
                        time: probe_time,
                        value: Pr::WANTS_VALUES.then(|| format!("{o:?}")),
                    }));
                }
                let event = self.trace.is_some().then(|| EventKind::Output(o.clone()));
                self.outputs[p.0].push(o);
                (StepOutcome::Output, Some(StepInput::OutputRecorded), event)
            }
            Action::Halt => {
                if Pr::ENABLED {
                    self.probe.on_event(&ProbeEvent::Halt {
                        proc_id: p.0,
                        time: probe_time,
                    });
                }
                (StepOutcome::Halted, None, Some(EventKind::Halt))
            }
        };

        if let (Some(trace), Some(kind)) = (self.trace.as_mut(), event_kind) {
            trace.push(Event {
                time,
                proc: p,
                kind,
            });
        }
        if let Some(input) = next_input {
            let next = self.procs[p.0].step(input);
            if matches!(next, Action::Write { .. }) {
                self.poised_writers += 1;
            }
            self.pending[p.0] = Some(next);
        }
        if Pr::ENABLED {
            self.probe.on_event(&ProbeEvent::Step(StepEvent {
                time: probe_time,
                poised: self.poised_writers,
            }));
        }
        Ok(outcome)
    }

    /// Runs under `scheduler` until every processor halts, the scheduler
    /// stops, or `budget` steps have been executed.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`step_proc`](Executor::step_proc) (e.g. a
    /// scripted schedule selecting a halted processor).
    pub fn run<S: Scheduler>(
        &mut self,
        mut scheduler: S,
        budget: usize,
    ) -> Result<RunOutcome, MemoryError> {
        let mut steps = 0usize;
        while steps < budget {
            if self.all_halted() {
                return Ok(RunOutcome {
                    steps,
                    all_halted: true,
                });
            }
            let live = self.live_procs();
            let Some(p) = scheduler.next(&live) else {
                return Ok(RunOutcome {
                    steps,
                    all_halted: self.all_halted(),
                });
            };
            self.step_proc(p)?;
            steps += 1;
        }
        Ok(RunOutcome {
            steps,
            all_halted: self.all_halted(),
        })
    }

    /// Runs under `scheduler` until `stop` returns true, every processor
    /// halts, the scheduler stops, or `budget` steps have been executed.
    ///
    /// `stop` is evaluated after every step.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`step_proc`](Executor::step_proc).
    pub fn run_until<S, F>(
        &mut self,
        mut scheduler: S,
        budget: usize,
        mut stop: F,
    ) -> Result<RunOutcome, MemoryError>
    where
        S: Scheduler,
        F: FnMut(&Self) -> bool,
    {
        let mut steps = 0usize;
        while steps < budget {
            if self.all_halted() {
                return Ok(RunOutcome {
                    steps,
                    all_halted: true,
                });
            }
            let live = self.live_procs();
            let Some(p) = scheduler.next(&live) else {
                return Ok(RunOutcome {
                    steps,
                    all_halted: self.all_halted(),
                });
            };
            self.step_proc(p)?;
            steps += 1;
            if stop(self) {
                break;
            }
        }
        Ok(RunOutcome {
            steps,
            all_halted: self.all_halted(),
        })
    }

    /// Runs to completion under a fair round-robin schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::StepBudgetExhausted`] if the processes did not
    /// all halt within `budget` steps.
    pub fn run_round_robin(&mut self, budget: usize) -> Result<RunOutcome, MemoryError> {
        let outcome = self.run(RoundRobin::new(), budget)?;
        if outcome.all_halted {
            Ok(outcome)
        } else {
            Err(MemoryError::StepBudgetExhausted { budget })
        }
    }

    /// Runs to completion under a seeded random schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::StepBudgetExhausted`] if the processes did not
    /// all halt within `budget` steps.
    pub fn run_random<R: rand::Rng>(
        &mut self,
        rng: R,
        budget: usize,
    ) -> Result<RunOutcome, MemoryError> {
        let outcome = self.run(RandomScheduler::new(rng), budget)?;
        if outcome.all_halted {
            Ok(outcome)
        } else {
            Err(MemoryError::StepBudgetExhausted { budget })
        }
    }

    /// Runs processor `p` solo (no other processor takes steps) until it
    /// halts or `budget` is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`step_proc`](Executor::step_proc).
    pub fn run_solo(&mut self, p: ProcId, budget: usize) -> Result<RunOutcome, MemoryError> {
        self.run(SoloScheduler::new(p), budget)
    }

    /// The processors currently poised to write, with the ground-truth
    /// register each write would hit.
    ///
    /// This is the *covering* notion of the paper's title: a set of
    /// processors poised to write distinct registers can erase everything
    /// written there (Section 2.1's lower bound runs `Q` "until all members
    /// of Q are poised to perform their first write").
    #[must_use]
    pub fn poised_writes(&self) -> Vec<(ProcId, crate::RegId)> {
        (0..self.procs.len())
            .filter_map(|i| {
                let p = ProcId(i);
                match self.pending[i].as_ref()? {
                    Action::Write { local, .. } => Some((p, self.memory.wiring(p).global(*local))),
                    _ => None,
                }
            })
            .collect()
    }

    /// The set of distinct ground-truth registers covered by poised writes.
    #[must_use]
    pub fn covered_registers(&self) -> Vec<crate::RegId> {
        let mut regs: Vec<crate::RegId> =
            self.poised_writes().into_iter().map(|(_, r)| r).collect();
        regs.sort_unstable();
        regs.dedup();
        regs
    }

    /// Decomposes the executor into its processes and memory.
    #[must_use]
    pub fn into_parts(self) -> (Vec<P>, SharedMemory<P::Value>) {
        (self.procs, self.memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wiring;

    /// Writes `input` to every local register in order, then halts.
    #[derive(Clone, Debug)]
    struct Filler {
        input: u32,
        m: usize,
        next: usize,
    }

    impl Process for Filler {
        type Value = u32;
        type Output = u32;
        fn step(&mut self, _input: StepInput<u32>) -> Action<u32, u32> {
            if self.next < self.m {
                let a = Action::write(self.next, self.input);
                self.next += 1;
                a
            } else {
                Action::Halt
            }
        }
    }

    fn fillers(n: usize, m: usize) -> Vec<Filler> {
        (0..n)
            .map(|i| Filler {
                input: i as u32 + 1,
                m,
                next: 0,
            })
            .collect()
    }

    #[test]
    fn rejects_single_process() {
        let memory = SharedMemory::named(1, 1, 0u32).unwrap();
        let err = Executor::new(fillers(1, 1), memory).unwrap_err();
        assert!(matches!(err, MemoryError::TooFewProcessors { .. }));
    }

    #[test]
    fn rejects_wiring_count_mismatch() {
        let memory = SharedMemory::named(1, 3, 0u32).unwrap();
        let err = Executor::new(fillers(2, 1), memory).unwrap_err();
        assert!(matches!(err, MemoryError::WiringCountMismatch { .. }));
    }

    #[test]
    fn round_robin_runs_to_completion() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 2), memory).unwrap();
        let outcome = exec.run_round_robin(100).unwrap();
        assert!(outcome.all_halted);
        // Each filler writes both registers; writes interleave round-robin:
        // p0 w0, p1 w0, p0 w1, p1 w1, halts. Final contents all from p1.
        assert_eq!(exec.memory().contents(), &[2, 2]);
        assert_eq!(exec.steps_taken(ProcId(0)), 3); // 2 writes + halt
        assert_eq!(exec.total_steps(), 6);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 2), memory).unwrap();
        let err = exec.run_round_robin(1).unwrap_err();
        assert!(matches!(
            err,
            MemoryError::StepBudgetExhausted { budget: 1 }
        ));
    }

    #[test]
    fn scheduling_halted_proc_errors() {
        let memory = SharedMemory::named(1, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 1), memory).unwrap();
        // p0: write, halt.
        exec.step_proc(ProcId(0)).unwrap();
        assert_eq!(exec.step_proc(ProcId(0)).unwrap(), StepOutcome::Halted);
        assert!(exec.is_halted(ProcId(0)));
        let err = exec.step_proc(ProcId(0)).unwrap_err();
        assert!(matches!(
            err,
            MemoryError::ScheduledHalted { proc: ProcId(0) }
        ));
    }

    #[test]
    fn pending_action_exposes_poised_write() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let exec = Executor::new(fillers(2, 2), memory).unwrap();
        // Before any step, each filler is poised to write local register 0.
        match exec.pending_action(ProcId(0)) {
            Some(Action::Write { local, value }) => {
                assert_eq!(local.0, 0);
                assert_eq!(*value, 1);
            }
            other => panic!("expected poised write, got {other:?}"),
        }
        assert!(!exec.participated(ProcId(0)));
    }

    #[test]
    fn solo_run_leaves_others_untouched() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 2), memory).unwrap();
        let outcome = exec.run_solo(ProcId(1), 100).unwrap();
        assert!(!outcome.all_halted);
        assert!(exec.is_halted(ProcId(1)));
        assert!(!exec.participated(ProcId(0)));
        assert_eq!(exec.memory().contents(), &[2, 2]);
    }

    #[test]
    fn trace_records_all_steps() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 2), memory).unwrap();
        exec.record_trace(true);
        exec.run_round_robin(100).unwrap();
        let trace = exec.trace().unwrap();
        // 2 procs × (2 writes + 1 halt) = 6 events.
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.step_counts(2), vec![3, 3]);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 2), memory).unwrap();
        let outcome = exec
            .run_until(RoundRobin::new(), 100, |e| e.total_steps() >= 3)
            .unwrap();
        assert_eq!(outcome.steps, 3);
        assert!(!outcome.all_halted);
    }

    #[test]
    fn anonymous_wiring_changes_write_targets() {
        // Same program, different wirings: the ground-truth registers differ.
        let wirings = vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()];
        let memory = SharedMemory::new(2, 0u32, wirings).unwrap();
        let mut exec = Executor::new(fillers(2, 1), memory).unwrap();
        // Each filler writes only local register 0.
        exec.step_proc(ProcId(0)).unwrap();
        exec.step_proc(ProcId(1)).unwrap();
        assert_eq!(exec.memory().contents(), &[1, 2]);
    }

    #[test]
    fn poised_writes_expose_covering() {
        // Both fillers start poised on their first writes; with distinct
        // wirings they cover two distinct registers.
        let wirings = vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()];
        let memory = SharedMemory::new(2, 0u32, wirings).unwrap();
        let exec = Executor::new(fillers(2, 2), memory).unwrap();
        let poised = exec.poised_writes();
        assert_eq!(poised.len(), 2);
        assert_eq!(exec.covered_registers().len(), 2);
    }

    #[test]
    fn covered_registers_shrink_as_writes_fire() {
        let memory = SharedMemory::named(2, 2, 0u32).unwrap();
        let mut exec = Executor::new(fillers(2, 2), memory).unwrap();
        assert_eq!(exec.covered_registers().len(), 1); // both poised on r0
        exec.step_proc(ProcId(0)).unwrap(); // p0 writes r0, now poised on r1
        assert_eq!(exec.covered_registers().len(), 2);
    }

    #[test]
    fn outputs_are_recorded_per_proc() {
        #[derive(Clone)]
        struct Out(u32, bool);
        impl Process for Out {
            type Value = u32;
            type Output = u32;
            fn step(&mut self, _i: StepInput<u32>) -> Action<u32, u32> {
                if self.1 {
                    Action::Halt
                } else {
                    self.1 = true;
                    Action::Output(self.0)
                }
            }
        }
        let memory = SharedMemory::named(1, 2, 0u32).unwrap();
        let mut exec = Executor::new(vec![Out(10, false), Out(20, false)], memory).unwrap();
        exec.run_round_robin(10).unwrap();
        assert_eq!(exec.first_output(ProcId(0)), Some(&10));
        assert_eq!(exec.first_output(ProcId(1)), Some(&20));
        assert_eq!(exec.first_outputs(), vec![Some(10), Some(20)]);
    }
}
