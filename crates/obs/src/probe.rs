//! The [`Probe`] trait and structural probes ([`NoProbe`], [`Tee`]).

use crate::events::ProbeEvent;

/// Observer of a run's event stream.
///
/// [`ProbeEvent`] is the one list of event kinds: a probe matches on the
/// variants it needs and ignores the rest. Instrumented runtimes guard each
/// [`Probe::on_event`] call with `if Pr::ENABLED`, a compile-time constant:
/// with the default [`NoProbe`] the branches fold away and the instrumented
/// code is identical to uninstrumented code.
pub trait Probe {
    /// Whether this probe observes anything at all. Runtimes skip event
    /// construction entirely when `false`.
    const ENABLED: bool = true;

    /// Whether events should carry `Debug` renderings of register values.
    /// Leave `false` (the default) to keep formatting off the hot path.
    const WANTS_VALUES: bool = false;

    /// One event of the run.
    fn on_event(&mut self, event: &ProbeEvent) {
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

    fn on_event(&mut self, event: &ProbeEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }
}

/// Mutable references forward, so a runtime can borrow a caller-owned probe.
impl<P: Probe> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;
    const WANTS_VALUES: bool = P::WANTS_VALUES;

    fn on_event(&mut self, event: &ProbeEvent) {
        (**self).on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::tests::samples;
    use crate::StepEvent;

    #[derive(Default)]
    struct Counter(u64);

    impl Probe for Counter {
        fn on_event(&mut self, event: &ProbeEvent) {
            if let ProbeEvent::Step(_) = event {
                self.0 += 1;
            }
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
        tee.on_event(&ProbeEvent::Step(StepEvent { time: 1, poised: 0 }));
        tee.on_event(&ProbeEvent::Step(StepEvent { time: 2, poised: 1 }));
        assert_eq!(tee.0 .0, 2);
        assert_eq!(tee.1 .0, 2);
    }

    /// Captures every event, for exhaustive fan-out assertions.
    #[derive(Default, Debug, PartialEq)]
    struct Recorder(Vec<ProbeEvent>);

    impl Probe for Recorder {
        const WANTS_VALUES: bool = true;

        fn on_event(&mut self, event: &ProbeEvent) {
            self.0.push(event.clone());
        }
    }

    #[test]
    fn tee_forwards_every_event_arm_to_both_sides() {
        let mut tee = Tee(Recorder::default(), Recorder::default());
        for event in &samples() {
            tee.on_event(event);
        }
        assert_eq!(tee.0 .0, samples());
        assert_eq!(tee.1 .0, samples());
    }

    #[test]
    fn mut_ref_forwards_every_event_arm() {
        let mut rec = Recorder::default();
        for event in &samples() {
            Probe::on_event(&mut &mut rec, event);
        }
        assert_eq!(rec.0, samples());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counter::default();
        {
            let r = &mut c;
            let mut fwd: &mut Counter = r;
            Probe::on_event(
                &mut fwd,
                &ProbeEvent::Step(StepEvent { time: 1, poised: 0 }),
            );
        }
        assert_eq!(c.0, 1);
    }
}
