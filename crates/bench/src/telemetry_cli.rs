//! Shared CLI wiring for the live telemetry plane.
//!
//! Every long-running experiment binary accepts the same three flags:
//!
//! * `--progress` — in-place progress line on stderr.
//! * `--telemetry-jsonl PATH` — append [`fa_obs::TelemetrySnapshot`]
//!   records to `PATH` as JSONL; the last one's `phases` field holds every
//!   span's final totals.
//! * `--telemetry-cadence-ms N` — sampling cadence (default 250).
//!
//! Telemetry is strictly out-of-band: when neither `--progress` nor
//! `--telemetry-jsonl` is given, [`TelemetrySession::from_cli`] attaches
//! nothing and the binary's stdout is byte-identical to a build without
//! this module. The progress line and emitter chatter go to stderr only.

use std::sync::Arc;
use std::time::Duration;

use fa_obs::{MetricRegistry, TelemetryConfig, TelemetryEmitter, TelemetrySummary};

use crate::{cli_flag, cli_value};

/// A CLI-governed telemetry session: a shared [`MetricRegistry`] plus the
/// background emitter sampling it. Disabled (all no-ops) unless the process
/// arguments opt in.
#[derive(Debug)]
pub struct TelemetrySession {
    registry: Option<Arc<MetricRegistry>>,
    emitter: Option<TelemetryEmitter>,
}

impl TelemetrySession {
    /// Builds a session from the process arguments. `label` names the
    /// campaign in the progress line and closing summary.
    ///
    /// # Panics
    ///
    /// Panics if `--telemetry-cadence-ms` is not a positive integer, or if
    /// the snapshot JSONL file cannot be created (surfaced at start, not at
    /// the end of a long campaign).
    #[must_use]
    pub fn from_cli(label: &str) -> Self {
        let progress = cli_flag("--progress");
        let jsonl_path = cli_value("--telemetry-jsonl").map(std::path::PathBuf::from);
        if !progress && jsonl_path.is_none() {
            return TelemetrySession {
                registry: None,
                emitter: None,
            };
        }
        let cadence_ms: u64 = match cli_value("--telemetry-cadence-ms") {
            Some(v) => v.parse().ok().filter(|&ms| ms > 0).unwrap_or_else(|| {
                panic!("--telemetry-cadence-ms wants a positive integer, got {v:?}")
            }),
            None => 250,
        };
        let registry = Arc::new(MetricRegistry::new());
        let config = TelemetryConfig {
            cadence: Duration::from_millis(cadence_ms),
            jsonl_path,
            progress,
            label: label.to_string(),
        };
        let emitter = TelemetryEmitter::start(Arc::clone(&registry), config)
            .unwrap_or_else(|e| panic!("cannot start telemetry emitter: {e}"));
        TelemetrySession {
            registry: Some(registry),
            emitter: Some(emitter),
        }
    }

    /// The shared registry to attach to sweeps/campaigns, `None` when
    /// telemetry is off.
    #[must_use]
    pub fn registry(&self) -> Option<Arc<MetricRegistry>> {
        self.registry.as_ref().map(Arc::clone)
    }

    /// Whether the session is live (any telemetry flag was given).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Stops the emitter (final snapshot + span events are flushed) and
    /// returns its summary; `None` when telemetry was off.
    pub fn finish(mut self) -> Option<TelemetrySummary> {
        let summary = self.emitter.take().map(TelemetryEmitter::stop);
        if let Some(s) = &summary {
            if let Some(err) = &s.io_error {
                eprintln!("telemetry: snapshot stream error: {err}");
            }
        }
        summary
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if let Some(emitter) = self.emitter.take() {
            let _ = emitter.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `from_cli` reads real process arguments, so tests exercise the parts
    // below it: an off session is inert and a hand-built live session
    // finishes cleanly.
    #[test]
    fn off_session_is_inert() {
        let session = TelemetrySession {
            registry: None,
            emitter: None,
        };
        assert!(!session.enabled());
        assert!(session.registry().is_none());
        assert!(session.finish().is_none());
    }

    #[test]
    fn live_session_finishes_with_a_summary() {
        let registry = Arc::new(MetricRegistry::new());
        registry.counter("mc.states_total").add(5);
        let emitter = TelemetryEmitter::start(
            Arc::clone(&registry),
            TelemetryConfig {
                cadence: Duration::from_millis(5),
                jsonl_path: None,
                progress: false,
                label: "test".into(),
            },
        )
        .unwrap();
        let session = TelemetrySession {
            registry: Some(registry),
            emitter: Some(emitter),
        };
        assert!(session.enabled());
        assert!(session.registry().is_some());
        let summary = session.finish().expect("live session has a summary");
        assert!(summary.snapshots >= 1, "final snapshot always emitted");
        assert!(summary.io_error.is_none());
    }
}
