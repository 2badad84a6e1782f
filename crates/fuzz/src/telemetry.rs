//! Live-telemetry handle bundle for fuzz campaigns.
//!
//! Metric names are stable, dot-scoped identifiers (`fuzz.*`) shared with
//! the bench binaries' telemetry streams:
//!
//! | name              | kind      | meaning                                    |
//! |-------------------|-----------|--------------------------------------------|
//! | `fuzz.cases_done` | counter   | cases finished across all workers          |
//! | `fuzz.steps_total`| counter   | executor steps taken across all cases      |
//! | `fuzz.violations` | counter   | violating cases seen so far                |
//! | `fuzz.generate`   | span      | case generation from the campaign seed     |
//! | `fuzz.execute`    | span      | case execution under its adversary         |
//! | `fuzz.shrink`     | span      | delta-debugging the first violation        |
//! | `fuzz.case_steps` | histogram | executor steps per finished case           |
//!
//! All handles record with relaxed atomics; attaching them never changes a
//! deterministic [`CampaignReport`](crate::CampaignReport).

use fa_obs::{Counter, LiveHistogram, MetricRegistry, Span};

/// Telemetry handles [`run_campaign`](crate::run_campaign) records into.
/// Cloning shares the underlying atomics, so every worker thread holds the
/// same bundle.
#[derive(Clone, Debug, Default)]
pub struct FuzzTelemetry {
    /// `fuzz.cases_done` — monotone across workers.
    pub cases_done: Counter,
    /// `fuzz.steps_total` — monotone across workers.
    pub steps_total: Counter,
    /// `fuzz.violations`.
    pub violations: Counter,
    /// `fuzz.generate`.
    pub generate: Span,
    /// `fuzz.execute`.
    pub execute: Span,
    /// `fuzz.shrink`.
    pub shrink: Span,
    /// `fuzz.case_steps`.
    pub case_steps: LiveHistogram,
}

impl FuzzTelemetry {
    /// Resolves the `fuzz.*` handles from `registry`.
    #[must_use]
    pub fn from_registry(registry: &MetricRegistry) -> Self {
        FuzzTelemetry {
            cases_done: registry.counter("fuzz.cases_done"),
            steps_total: registry.counter("fuzz.steps_total"),
            violations: registry.counter("fuzz.violations"),
            generate: registry.span("fuzz.generate"),
            execute: registry.span("fuzz.execute"),
            shrink: registry.span("fuzz.shrink"),
            case_steps: registry.histogram("fuzz.case_steps"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_to_shared_registry_metrics() {
        let registry = MetricRegistry::new();
        let a = FuzzTelemetry::from_registry(&registry);
        let b = FuzzTelemetry::from_registry(&registry);
        a.cases_done.inc();
        b.cases_done.inc();
        assert_eq!(registry.counter("fuzz.cases_done").get(), 2);
        a.steps_total.add(10);
        assert_eq!(b.steps_total.get(), 10);
    }
}
