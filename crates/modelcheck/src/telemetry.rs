//! The model checker's live telemetry: the metrics a sweep records into
//! the registry given to
//! [`CheckConfig::with_telemetry`](crate::checks::CheckConfig::with_telemetry),
//! the one way to attach telemetry. The handle bundles behind them are
//! crate-private.
//!
//! Metric names are stable, dot-scoped identifiers (`mc.*`, `ckpt.*`)
//! shared with the bench binaries' telemetry streams:
//!
//! | name                   | kind      | meaning                                    |
//! |------------------------|-----------|--------------------------------------------|
//! | `mc.states_total`      | counter   | distinct states admitted across all combos |
//! | `mc.combos_done`       | counter   | wiring combinations finished               |
//! | `mc.combos_total`      | gauge     | combinations in the sweep                  |
//! | `mc.jobs`              | gauge     | sweep worker threads                       |
//! | `mc.frontier_depth`    | gauge     | BFS depth currently being expanded         |
//! | `mc.step_memo_hits`    | counter   | arena steps patched from the transition memo |
//! | `mc.step_memo_misses`  | counter   | arena steps that ran `Process::step`       |
//! | `mc.invariant_evals`   | counter   | invariant runs (verdict-memo hits excluded) |
//! | `mc.visited_entries`   | gauge     | arena size of the sampled combo            |
//! | `mc.visited_bytes_est` | gauge     | estimated bytes of keys + arena + index    |
//! | `mc.visited_spilled`   | gauge     | visited shards spilled to the disk tier    |
//! | `mc.interner_entries`  | gauge     | slot-table entries of the sampled worker   |
//! | `mc.orbit_factor`      | gauge     | sweep quotient factor, ×1000 fixed-point   |
//! | `mc.claim`             | span      | combo claim + wiring materialization       |
//! | `mc.expand`            | span      | per-combo BFS exploration                  |
//! | `mc.dedup`             | span      | key + visited lookup (1-in-64 sampled)     |
//! | `mc.combo_states`      | histogram | states per finished combination            |
//! | `ckpt.records`         | counter   | checkpoint journal records appended        |
//! | `ckpt.journal_bytes`   | gauge     | checkpoint journal size on disk            |
//! | `ckpt.syncs`           | gauge     | journal fsync epochs completed             |
//! | `ckpt.recovered`       | gauge     | combo outcomes replayed from a journal     |
//!
//! Gauges are last-write-wins: with a parallel sweep they describe the most
//! recently sampled worker's combo, which is the useful live reading (the
//! counter `mc.states_total` stays globally exact). All handles record with
//! relaxed atomics; attaching them never changes a deterministic report.

use fa_obs::{Counter, Gauge, LiveHistogram, MetricRegistry, Span};

/// Telemetry handles one [`Explorer`](crate::Explorer) records into while
/// exploring. Cloning shares the underlying atomics, so a parallel sweep
/// hands every worker's explorer the same bundle.
#[derive(Clone, Debug, Default)]
pub(crate) struct ExplorerTelemetry {
    /// `mc.states_total` — monotone across combos and workers.
    pub states: Counter,
    /// `mc.frontier_depth`.
    pub frontier_depth: Gauge,
    /// `mc.visited_entries`.
    pub visited_entries: Gauge,
    /// `mc.visited_bytes_est`.
    pub visited_bytes: Gauge,
    /// `mc.visited_spilled`.
    pub visited_spilled: Gauge,
    /// `mc.interner_entries` — entries across the sampled exploration's
    /// slot tables. On plain sweeps a pool worker's tables serve all its
    /// combos, so this is the worker's value universe so far, not one
    /// combo's.
    pub interner_entries: Gauge,
    /// `mc.dedup` — sampled, see [`crate::Explorer`] docs.
    pub dedup: Span,
    /// `mc.step_memo_hits` — arena steps answered by the transition memo
    /// (published as deltas on the telemetry flush boundary).
    pub step_memo_hits: Counter,
    /// `mc.step_memo_misses` — arena steps that ran `Process::step` and
    /// recorded their transition.
    pub step_memo_misses: Counter,
    /// `mc.invariant_evals` — states on which the invariant itself ran;
    /// the rest took a memoized verdict (published as deltas on the
    /// telemetry flush boundary).
    pub invariant_evals: Counter,
}

impl ExplorerTelemetry {
    /// Resolves the `mc.*` explorer handles from `registry`.
    #[must_use]
    pub(crate) fn from_registry(registry: &MetricRegistry) -> Self {
        ExplorerTelemetry {
            states: registry.counter("mc.states_total"),
            frontier_depth: registry.gauge("mc.frontier_depth"),
            visited_entries: registry.gauge("mc.visited_entries"),
            visited_bytes: registry.gauge("mc.visited_bytes_est"),
            visited_spilled: registry.gauge("mc.visited_spilled"),
            interner_entries: registry.gauge("mc.interner_entries"),
            dedup: registry.span("mc.dedup"),
            step_memo_hits: registry.counter("mc.step_memo_hits"),
            step_memo_misses: registry.counter("mc.step_memo_misses"),
            invariant_evals: registry.counter("mc.invariant_evals"),
        }
    }
}

/// Telemetry handles for a wiring sweep: the per-explorer bundle plus
/// sweep-level progress and phase spans.
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepTelemetry {
    /// Handles threaded into each combo's explorer.
    pub explorer: ExplorerTelemetry,
    /// `mc.combos_done`.
    pub combos_done: Counter,
    /// `mc.combos_total`.
    pub combos_total: Gauge,
    /// `mc.jobs`.
    pub jobs: Gauge,
    /// `mc.claim`.
    pub claim: Span,
    /// `mc.expand`.
    pub expand: Span,
    /// `mc.combo_states`.
    pub combo_states: LiveHistogram,
    /// `mc.orbit_factor` — quotient factor (full-space estimate over
    /// canonical states) in ×1000 fixed-point, since gauges carry `u64`.
    /// Only written by quotiented sweeps.
    pub orbit_factor: Gauge,
    /// Checkpoint-journal handles; only written by checkpointed sweeps.
    pub ckpt: CheckpointTelemetry,
}

/// Telemetry handles for the crash-safety layer (see [`crate::checkpoint`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct CheckpointTelemetry {
    /// `ckpt.records` — journal records appended this run.
    pub records: Counter,
    /// `ckpt.journal_bytes` — journal size on disk, including any resumed
    /// prefix.
    pub journal_bytes: Gauge,
    /// `ckpt.syncs` — fsync epochs completed on the journal.
    pub syncs: Gauge,
    /// `ckpt.recovered` — combo outcomes replayed verbatim from a prior
    /// run's journal instead of re-explored.
    pub recovered: Gauge,
}

impl CheckpointTelemetry {
    /// Resolves the `ckpt.*` handles from `registry`.
    #[must_use]
    pub(crate) fn from_registry(registry: &MetricRegistry) -> Self {
        CheckpointTelemetry {
            records: registry.counter("ckpt.records"),
            journal_bytes: registry.gauge("ckpt.journal_bytes"),
            syncs: registry.gauge("ckpt.syncs"),
            recovered: registry.gauge("ckpt.recovered"),
        }
    }
}

impl SweepTelemetry {
    /// Resolves the `mc.*` sweep handles from `registry`.
    #[must_use]
    pub(crate) fn from_registry(registry: &MetricRegistry) -> Self {
        SweepTelemetry {
            explorer: ExplorerTelemetry::from_registry(registry),
            combos_done: registry.counter("mc.combos_done"),
            combos_total: registry.gauge("mc.combos_total"),
            jobs: registry.gauge("mc.jobs"),
            claim: registry.span("mc.claim"),
            expand: registry.span("mc.expand"),
            combo_states: registry.histogram("mc.combo_states"),
            orbit_factor: registry.gauge("mc.orbit_factor"),
            ckpt: CheckpointTelemetry::from_registry(registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_to_shared_registry_metrics() {
        let registry = MetricRegistry::new();
        let a = SweepTelemetry::from_registry(&registry);
        let b = SweepTelemetry::from_registry(&registry);
        a.explorer.states.add(3);
        b.explorer.states.add(4);
        assert_eq!(registry.counter("mc.states_total").get(), 7);
        a.combos_done.inc();
        assert_eq!(registry.counter("mc.combos_done").get(), 1);
        a.combos_total.set(36);
        assert_eq!(b.combos_total.get(), 36);
    }
}
