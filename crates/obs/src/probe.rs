//! The [`Probe`] trait and structural probes ([`NoProbe`], [`Tee`]).

use crate::events::{
    BackoffEvent, ChaosEvent, CheckpointEvent, FuzzEvent, OutputEvent, ReadEvent, ResetEvent,
    SpanEvent, StepEvent, SweepEvent, TelemetrySnapshot, TimingEvent, WriteEvent,
};

/// Observer of a run's event stream.
///
/// Every hook has a no-op default, so a probe implements only what it needs.
/// Instrumented runtimes guard each hook call with `if Pr::ENABLED`, a
/// compile-time constant: with the default [`NoProbe`] the branches fold
/// away and the instrumented code is identical to uninstrumented code.
pub trait Probe {
    /// Whether this probe observes anything at all. Runtimes skip event
    /// construction entirely when `false`.
    const ENABLED: bool = true;

    /// Whether events should carry `Debug` renderings of register values.
    /// Leave `false` (the default) to keep formatting off the hot path.
    const WANTS_VALUES: bool = false;

    /// A processor read a register.
    fn on_read(&mut self, event: &ReadEvent) {
        let _ = event;
    }

    /// A processor wrote a register.
    fn on_write(&mut self, event: &WriteEvent) {
        let _ = event;
    }

    /// A processor produced its output.
    fn on_output(&mut self, event: &OutputEvent) {
        let _ = event;
    }

    /// A processor halted.
    fn on_halt(&mut self, proc_id: usize, time: u64) {
        let _ = (proc_id, time);
    }

    /// A process abandoned its progress back to level 0.
    fn on_reset(&mut self, event: &ResetEvent) {
        let _ = event;
    }

    /// One executor step completed; carries the current covering size.
    fn on_step(&mut self, event: &StepEvent) {
        let _ = event;
    }

    /// Wall-clock timing for one operation (threaded runtime only).
    fn on_timing(&mut self, event: &TimingEvent) {
        let _ = event;
    }

    /// A wiring-sweep model check completed (model checker only).
    fn on_sweep(&mut self, event: &SweepEvent) {
        let _ = event;
    }

    /// A fuzz campaign shard completed (fuzz driver only).
    fn on_fuzz(&mut self, event: &FuzzEvent) {
        let _ = event;
    }

    /// An injected fault fired (chaos runtime only).
    fn on_chaos(&mut self, event: &ChaosEvent) {
        let _ = event;
    }

    /// Per-processor backoff-arbiter summary (contention-managed runs only).
    fn on_backoff(&mut self, event: &BackoffEvent) {
        let _ = event;
    }

    /// A periodic live-telemetry sample (emitter thread only; wall-clock
    /// derived, never part of a deterministic report).
    fn on_telemetry(&mut self, event: &TelemetrySnapshot) {
        let _ = event;
    }

    /// A named span's cumulative wall-clock total (emitter thread only).
    fn on_span(&mut self, event: &SpanEvent) {
        let _ = event;
    }

    /// A checkpoint-journal transition (crash-safe sweep drivers only).
    fn on_checkpoint(&mut self, event: &CheckpointEvent) {
        let _ = event;
    }
}

/// The default probe: observes nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// Fans every event out to two probes; nest for wider fan-out.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const WANTS_VALUES: bool = A::WANTS_VALUES || B::WANTS_VALUES;

    fn on_read(&mut self, event: &ReadEvent) {
        self.0.on_read(event);
        self.1.on_read(event);
    }

    fn on_write(&mut self, event: &WriteEvent) {
        self.0.on_write(event);
        self.1.on_write(event);
    }

    fn on_output(&mut self, event: &OutputEvent) {
        self.0.on_output(event);
        self.1.on_output(event);
    }

    fn on_halt(&mut self, proc_id: usize, time: u64) {
        self.0.on_halt(proc_id, time);
        self.1.on_halt(proc_id, time);
    }

    fn on_reset(&mut self, event: &ResetEvent) {
        self.0.on_reset(event);
        self.1.on_reset(event);
    }

    fn on_step(&mut self, event: &StepEvent) {
        self.0.on_step(event);
        self.1.on_step(event);
    }

    fn on_timing(&mut self, event: &TimingEvent) {
        self.0.on_timing(event);
        self.1.on_timing(event);
    }

    fn on_sweep(&mut self, event: &SweepEvent) {
        self.0.on_sweep(event);
        self.1.on_sweep(event);
    }

    fn on_fuzz(&mut self, event: &FuzzEvent) {
        self.0.on_fuzz(event);
        self.1.on_fuzz(event);
    }

    fn on_chaos(&mut self, event: &ChaosEvent) {
        self.0.on_chaos(event);
        self.1.on_chaos(event);
    }

    fn on_backoff(&mut self, event: &BackoffEvent) {
        self.0.on_backoff(event);
        self.1.on_backoff(event);
    }

    fn on_telemetry(&mut self, event: &TelemetrySnapshot) {
        self.0.on_telemetry(event);
        self.1.on_telemetry(event);
    }

    fn on_span(&mut self, event: &SpanEvent) {
        self.0.on_span(event);
        self.1.on_span(event);
    }

    fn on_checkpoint(&mut self, event: &CheckpointEvent) {
        self.0.on_checkpoint(event);
        self.1.on_checkpoint(event);
    }
}

/// Mutable references forward, so a runtime can borrow a caller-owned probe.
impl<P: Probe> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;
    const WANTS_VALUES: bool = P::WANTS_VALUES;

    fn on_read(&mut self, event: &ReadEvent) {
        (**self).on_read(event);
    }

    fn on_write(&mut self, event: &WriteEvent) {
        (**self).on_write(event);
    }

    fn on_output(&mut self, event: &OutputEvent) {
        (**self).on_output(event);
    }

    fn on_halt(&mut self, proc_id: usize, time: u64) {
        (**self).on_halt(proc_id, time);
    }

    fn on_reset(&mut self, event: &ResetEvent) {
        (**self).on_reset(event);
    }

    fn on_step(&mut self, event: &StepEvent) {
        (**self).on_step(event);
    }

    fn on_timing(&mut self, event: &TimingEvent) {
        (**self).on_timing(event);
    }

    fn on_sweep(&mut self, event: &SweepEvent) {
        (**self).on_sweep(event);
    }

    fn on_fuzz(&mut self, event: &FuzzEvent) {
        (**self).on_fuzz(event);
    }

    fn on_chaos(&mut self, event: &ChaosEvent) {
        (**self).on_chaos(event);
    }

    fn on_backoff(&mut self, event: &BackoffEvent) {
        (**self).on_backoff(event);
    }

    fn on_telemetry(&mut self, event: &TelemetrySnapshot) {
        (**self).on_telemetry(event);
    }

    fn on_span(&mut self, event: &SpanEvent) {
        (**self).on_span(event);
    }

    fn on_checkpoint(&mut self, event: &CheckpointEvent) {
        (**self).on_checkpoint(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter(u64);

    impl Probe for Counter {
        fn on_step(&mut self, _event: &StepEvent) {
            self.0 += 1;
        }
    }

    // ENABLED is an associated constant, so these are compile-time checks of
    // the Tee disjunction; the runtime asserts just surface them in `cargo
    // test` output.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noprobe_is_disabled() {
        assert!(!NoProbe::ENABLED);
        assert!(!<Tee<NoProbe, NoProbe> as Probe>::ENABLED);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn tee_enables_if_either_side_does() {
        assert!(<Tee<NoProbe, Counter> as Probe>::ENABLED);
        assert!(<Tee<Counter, NoProbe> as Probe>::ENABLED);
    }

    #[test]
    fn tee_fans_out() {
        let mut tee = Tee(Counter::default(), Counter::default());
        tee.on_step(&StepEvent { time: 1, poised: 0 });
        tee.on_step(&StepEvent { time: 2, poised: 1 });
        assert_eq!(tee.0 .0, 2);
        assert_eq!(tee.1 .0, 2);
    }

    /// Captures every event as its [`ProbeEvent`] form, for exhaustive
    /// fan-out assertions.
    #[derive(Default, Debug, PartialEq)]
    struct Recorder(Vec<crate::ProbeEvent>);

    impl Probe for Recorder {
        const WANTS_VALUES: bool = true;

        fn on_read(&mut self, event: &ReadEvent) {
            self.0.push(crate::ProbeEvent::Read(event.clone()));
        }
        fn on_write(&mut self, event: &WriteEvent) {
            self.0.push(crate::ProbeEvent::Write(event.clone()));
        }
        fn on_output(&mut self, event: &OutputEvent) {
            self.0.push(crate::ProbeEvent::Output(event.clone()));
        }
        fn on_halt(&mut self, proc_id: usize, time: u64) {
            self.0.push(crate::ProbeEvent::Halt { proc_id, time });
        }
        fn on_reset(&mut self, event: &ResetEvent) {
            self.0.push(crate::ProbeEvent::Reset(event.clone()));
        }
        fn on_step(&mut self, event: &StepEvent) {
            self.0.push(crate::ProbeEvent::Step(event.clone()));
        }
        fn on_timing(&mut self, event: &TimingEvent) {
            self.0.push(crate::ProbeEvent::Timing(event.clone()));
        }
        fn on_sweep(&mut self, event: &SweepEvent) {
            self.0.push(crate::ProbeEvent::Sweep(event.clone()));
        }
        fn on_fuzz(&mut self, event: &FuzzEvent) {
            self.0.push(crate::ProbeEvent::Fuzz(event.clone()));
        }
        fn on_chaos(&mut self, event: &ChaosEvent) {
            self.0.push(crate::ProbeEvent::Chaos(event.clone()));
        }
        fn on_backoff(&mut self, event: &BackoffEvent) {
            self.0.push(crate::ProbeEvent::Backoff(event.clone()));
        }
        fn on_telemetry(&mut self, event: &TelemetrySnapshot) {
            self.0.push(crate::ProbeEvent::Telemetry(event.clone()));
        }
        fn on_span(&mut self, event: &SpanEvent) {
            self.0.push(crate::ProbeEvent::Span(event.clone()));
        }
        fn on_checkpoint(&mut self, event: &CheckpointEvent) {
            self.0.push(crate::ProbeEvent::Checkpoint(event.clone()));
        }
    }

    /// Drives one event of every arm through `probe`, in a fixed order.
    /// Keep in sync with [`ProbeEvent`]: a new arm must be fired here so the
    /// exhaustive fan-out tests below cover it.
    fn fire_all_arms(probe: &mut impl Probe) {
        probe.on_read(&ReadEvent {
            proc_id: 0,
            local: 1,
            global: 2,
            time: 1,
            read_from: Some(3),
            value: Some("v".to_string()),
        });
        probe.on_write(&WriteEvent {
            proc_id: 1,
            local: 0,
            global: 0,
            time: 2,
            overwrote_writer: Some(0),
            value: None,
        });
        probe.on_output(&OutputEvent {
            proc_id: 1,
            time: 3,
            value: Some("out".to_string()),
        });
        probe.on_halt(1, 4);
        probe.on_reset(&ResetEvent {
            proc_id: 0,
            time: 5,
            from_level: 2,
        });
        probe.on_step(&StepEvent { time: 6, poised: 3 });
        probe.on_timing(&TimingEvent {
            proc_id: 0,
            op: crate::OpKind::Write,
            ns: 150,
            lock_wait_ns: 20,
        });
        probe.on_sweep(&SweepEvent {
            check: "snapshot_task".to_string(),
            jobs: 2,
            combos_attempted: 4,
            combos_total: 8,
            states: 100,
            peak_combo_states: 40,
            per_combo_states: vec![25; 4],
            elapsed_ns: 1_000,
        });
        probe.on_fuzz(&FuzzEvent {
            campaign: "smoke".to_string(),
            algo: "snapshot".to_string(),
            jobs: 1,
            cases: 10,
            violations: 0,
            total_steps: 500,
            distinct_patterns: 3,
            elapsed_ns: 2_000,
        });
        probe.on_chaos(&ChaosEvent {
            proc_id: 2,
            kind: crate::ChaosKind::Stall,
            at_op: 9,
            covered_global: None,
            stall_ns: 77,
        });
        probe.on_backoff(&BackoffEvent {
            proc_id: 0,
            attempts: 3,
            backoffs: 2,
            total_backoff_ns: 900,
            max_backoff_ns: 500,
        });
        probe.on_telemetry(&crate::events::tests::sample_snapshot());
        probe.on_span(&SpanEvent {
            name: "fuzz.execute".to_string(),
            ns: 4_242,
            calls: 7,
        });
        probe.on_checkpoint(&CheckpointEvent {
            action: crate::CheckpointAction::Recovered,
            combo: None,
            combos_recorded: 13,
            journal_bytes: 2_048,
            truncated_bytes: 0,
        });
    }

    /// The number of [`ProbeEvent`] arms `fire_all_arms` covers. A compile
    /// error or count mismatch here means an arm was added without fan-out
    /// coverage.
    const ALL_ARMS: usize = 14;

    #[test]
    fn tee_forwards_every_event_arm_to_both_sides() {
        let mut tee = Tee(Recorder::default(), Recorder::default());
        fire_all_arms(&mut tee);
        assert_eq!(tee.0 .0.len(), ALL_ARMS);
        assert_eq!(tee.0, tee.1);
        // Every arm appears exactly once, in firing order.
        let arm_tags: Vec<&str> = tee
            .0
             .0
            .iter()
            .map(|ev| match ev {
                crate::ProbeEvent::Read(_) => "Read",
                crate::ProbeEvent::Write(_) => "Write",
                crate::ProbeEvent::Output(_) => "Output",
                crate::ProbeEvent::Halt { .. } => "Halt",
                crate::ProbeEvent::Reset(_) => "Reset",
                crate::ProbeEvent::Step(_) => "Step",
                crate::ProbeEvent::Timing(_) => "Timing",
                crate::ProbeEvent::Sweep(_) => "Sweep",
                crate::ProbeEvent::Fuzz(_) => "Fuzz",
                crate::ProbeEvent::Chaos(_) => "Chaos",
                crate::ProbeEvent::Backoff(_) => "Backoff",
                crate::ProbeEvent::Telemetry(_) => "Telemetry",
                crate::ProbeEvent::Span(_) => "Span",
                crate::ProbeEvent::Checkpoint(_) => "Checkpoint",
            })
            .collect();
        assert_eq!(
            arm_tags,
            [
                "Read",
                "Write",
                "Output",
                "Halt",
                "Reset",
                "Step",
                "Timing",
                "Sweep",
                "Fuzz",
                "Chaos",
                "Backoff",
                "Telemetry",
                "Span",
                "Checkpoint"
            ]
        );
    }

    #[test]
    fn mut_ref_forwards_every_event_arm() {
        let mut rec = Recorder::default();
        fire_all_arms(&mut &mut rec);
        assert_eq!(rec.0.len(), ALL_ARMS);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counter::default();
        {
            let r = &mut c;
            let mut fwd: &mut Counter = r;
            Probe::on_step(&mut fwd, &StepEvent { time: 1, poised: 0 });
        }
        assert_eq!(c.0, 1);
    }
}
