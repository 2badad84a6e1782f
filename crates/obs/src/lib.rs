//! Unified probe layer for the fully-anonymous shared-memory runtimes.
//!
//! A [`Probe`] receives structured events as a run executes through one
//! hook, [`Probe::on_event`]. [`ProbeEvent`] is the one list of event kinds:
//! the operations (read, write, output, halt), a per-step event carrying the
//! current covering size (processors poised to write), an algorithm-level
//! reset (a snapshot process dropping back to level 0), the threaded
//! runtime's wall-clock timing, and the run summaries and telemetry samples
//! of the campaign drivers. It is also the JSONL schema.
//!
//! Probes compose:
//!
//! * [`NoProbe`] — the default; `ENABLED = false`, so instrumented runtimes
//!   compile the hook calls away entirely (zero cost when unused);
//! * [`RunMetrics`] — in-memory aggregation: per-processor counters,
//!   steps-to-terminate, reset counts, peak covering size, log-bucketed
//!   histograms;
//! * [`JsonlSink`] — streams every event as one JSON object per line;
//! * [`Tee`] — fans events out to two probes at once.
//!
//! Alongside the deterministic probe path sits the *live telemetry plane*
//! (v2): a lock-free [`MetricRegistry`] of atomic counters, gauges,
//! shard-and-merge histograms, and phase [`Span`]s that campaign workloads
//! record into from worker threads, sampled on a fixed cadence by a
//! background [`TelemetryEmitter`] into [`TelemetrySnapshot`] JSONL records
//! and an in-place terminal progress line. Telemetry is out-of-band by
//! construction: it never feeds into deterministic reports, which stay
//! byte-identical with telemetry on or off.
//!
//! Events identify processors and registers by plain `usize` indices rather
//! than the runtime's typed ids: this crate sits *below* the runtime crates
//! so that both the lock-step executor and the threaded runtime can depend
//! on it.

#![forbid(unsafe_code)]

pub mod events;
pub mod jsonl;
pub mod metrics;
pub mod probe;
pub mod registry;
pub mod telemetry;

pub use events::{
    BackoffEvent, ChaosEvent, ChaosKind, CheckpointAction, CheckpointEvent, FuzzEvent, OpKind,
    OutputEvent, PhaseStat, ProbeEvent, QuantileStat, ReadEvent, ResetEvent, StepEvent, SweepEvent,
    TelemetrySnapshot, TimingEvent, WriteEvent,
};
pub use jsonl::{parse_jsonl, JsonlSink};
pub use metrics::{Histogram, ProcMetrics, RunMetrics};
pub use probe::{NoProbe, Probe, Tee};
pub use registry::{
    read_rss_bytes, Counter, Gauge, LiveHistogram, MetricRegistry, Span, SpanGuard,
};
pub use telemetry::{progress_line, TelemetryConfig, TelemetryEmitter, TelemetrySummary};
