//! Structured probe events.
//!
//! Processors and registers are identified by `usize` indices (the runtime's
//! `ProcId(p)` / `RegId(r)` values unwrapped) so this crate has no dependency
//! on the runtime. Register values travel as their `Debug` rendering in
//! `Option<String>`; they are only materialized when the active probe opts
//! in via [`Probe::WANTS_VALUES`](crate::Probe::WANTS_VALUES), keeping the
//! metrics-only path free of formatting cost.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The four operation kinds a processor can take in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    Read,
    Write,
    Output,
    Halt,
}

/// A processor read one of its registers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReadEvent {
    /// Index of the acting processor.
    pub proc_id: usize,
    /// Register index through the processor's private wiring.
    pub local: usize,
    /// Physical register index.
    pub global: usize,
    /// Logical time (steps taken so far, including this one).
    pub time: u64,
    /// Processor that last wrote the register, if any.
    pub read_from: Option<usize>,
    /// Debug rendering of the value read, when the probe wants values.
    pub value: Option<String>,
}

/// A processor wrote one of its registers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WriteEvent {
    /// Index of the acting processor.
    pub proc_id: usize,
    /// Register index through the processor's private wiring.
    pub local: usize,
    /// Physical register index.
    pub global: usize,
    /// Logical time (steps taken so far, including this one).
    pub time: u64,
    /// Previous writer of the register, if any — `Some(p)` means this write
    /// obliterated processor `p`'s value, the covering-argument primitive.
    pub overwrote_writer: Option<usize>,
    /// Debug rendering of the value written, when the probe wants values.
    pub value: Option<String>,
}

/// A processor produced its output.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutputEvent {
    /// Index of the acting processor.
    pub proc_id: usize,
    /// Logical time (steps taken so far, including this one).
    pub time: u64,
    /// Debug rendering of the output, when the probe wants values.
    pub value: Option<String>,
}

/// An algorithm-level restart: a process abandoned its progress and returned
/// to the lowest level (e.g. a snapshot process observing interference).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResetEvent {
    /// Index of the resetting processor.
    pub proc_id: usize,
    /// Logical time at which the reset was observed.
    pub time: u64,
    /// Level the process held before dropping back to 0.
    pub from_level: u64,
}

/// Per-step covering telemetry, emitted after each executor step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepEvent {
    /// Logical time (steps taken so far).
    pub time: u64,
    /// Processors currently poised to write (pending `Write` action): the
    /// size of the covering the adversary holds at this instant.
    pub poised: usize,
}

/// Wall-clock timing for one operation, emitted by the threaded runtime.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimingEvent {
    /// Index of the acting processor.
    pub proc_id: usize,
    /// Which operation was timed.
    pub op: OpKind,
    /// Total wall-clock nanoseconds for the operation, including lock wait.
    pub ns: u64,
    /// Nanoseconds spent waiting to acquire the register lock.
    pub lock_wait_ns: u64,
}

/// Telemetry for one wiring-sweep model check: a `check_*` harness explored
/// `combos_attempted` of `combos_total` wiring combinations (fewer when a
/// violation aborts the sweep early), visiting `states` states in total.
///
/// Everything except `elapsed_ns` and `jobs` is deterministic for a given
/// check; wall-clock-derived rates live in accessors so recorded streams
/// stay comparable across thread counts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepEvent {
    /// Name of the check harness (e.g. `"snapshot_task"`).
    pub check: String,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Wiring combinations explored (≤ `combos_total`; the sweep stops at
    /// the first violating combination).
    pub combos_attempted: usize,
    /// Wiring combinations in the full sweep, after symmetry reduction.
    pub combos_total: usize,
    /// Distinct states visited, summed over the attempted combinations.
    pub states: usize,
    /// Largest per-combination state arena (peak memory proxy).
    pub peak_combo_states: usize,
    /// States visited per attempted combination, in combination-index order.
    pub per_combo_states: Vec<usize>,
    /// Wall-clock duration of the whole sweep.
    pub elapsed_ns: u64,
}

impl SweepEvent {
    /// Combinations explored per wall-clock second.
    #[must_use]
    pub fn combos_per_sec(&self) -> f64 {
        rate(self.combos_attempted, self.elapsed_ns)
    }

    /// States visited per wall-clock second.
    #[must_use]
    pub fn states_per_sec(&self) -> f64 {
        rate(self.states, self.elapsed_ns)
    }
}

/// A fuzz campaign (or one shard of it) completed — emitted by the fa-fuzz
/// driver. One event summarizes many generated cases; per-case detail lives
/// in the repro artifacts the driver writes on violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FuzzEvent {
    /// Campaign label (e.g. `"smoke"`, `"e19"`).
    pub campaign: String,
    /// Algorithm family fuzzed (`"snapshot"`, `"renaming"`, `"consensus"`).
    pub algo: String,
    /// Worker threads the campaign ran with.
    pub jobs: usize,
    /// Generated cases executed.
    pub cases: usize,
    /// Cases whose oracle reported a violation.
    pub violations: usize,
    /// Executor steps summed over all cases.
    pub total_steps: u64,
    /// Distinct stable-view patterns observed across case end states (a
    /// coverage proxy: how many qualitatively different final coverings the
    /// adversary reached).
    pub distinct_patterns: usize,
    /// Wall-clock duration of the campaign shard.
    pub elapsed_ns: u64,
}

impl FuzzEvent {
    /// Cases executed per wall-clock second.
    #[must_use]
    pub fn cases_per_sec(&self) -> f64 {
        rate(self.cases, self.elapsed_ns)
    }

    /// Executor steps per wall-clock second.
    #[must_use]
    pub fn steps_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.total_steps as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

/// The kind of an injected fault (chaos runs on the threaded runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// The processor crash-stopped: its thread exited, never to return.
    CrashStop,
    /// The processor crashed *poised*: its thread parked forever while one
    /// write was pending — a real covering in the paper's sense.
    CrashPoised,
    /// The processor was stalled (a simulated preemption / GC pause).
    Stall,
    /// A panic was injected into the processor's step function.
    Panic,
}

/// An injected fault fired on a real thread — emitted by the chaos runtime
/// at the instant the fault takes effect.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// Index of the affected processor.
    pub proc_id: usize,
    /// What was injected.
    pub kind: ChaosKind,
    /// Shared-memory operations the processor had completed when the fault
    /// fired.
    pub at_op: u64,
    /// For [`ChaosKind::CrashPoised`]: the global register the pending
    /// (never-landing) write covers.
    pub covered_global: Option<usize>,
    /// For [`ChaosKind::Stall`]: the injected pause, in nanoseconds.
    pub stall_ns: u64,
}

/// Per-processor contention-management summary — emitted once per processor
/// after a run using the backoff arbiter (obstruction-free consensus under
/// contention).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffEvent {
    /// Index of the processor the arbiter served.
    pub proc_id: usize,
    /// Consensus rounds (snapshot invocations) attempted.
    pub attempts: u64,
    /// Randomized pauses taken between undecided rounds.
    pub backoffs: u64,
    /// Total nanoseconds spent backing off.
    pub total_backoff_ns: u64,
    /// Largest single backoff, in nanoseconds.
    pub max_backoff_ns: u64,
}

/// What a checkpoint event describes (see [`CheckpointEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointAction {
    /// A prior run's journal was scanned and its outcomes recovered.
    Recovered,
}

/// One checkpoint-journal transition — emitted by crash-safe sweep drivers
/// when they recover a prior run's journal.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointEvent {
    /// What happened.
    pub action: CheckpointAction,
    /// The wiring-combination index involved (`None` for
    /// [`CheckpointAction::Recovered`], which covers the whole journal).
    pub combo: Option<u64>,
    /// Combo outcomes recovered from the journal.
    pub combos_recorded: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// Bytes dropped from a torn/corrupt journal tail.
    pub truncated_bytes: u64,
}

/// Cumulative wall-clock totals for one named phase, as sampled from a
/// live [`Span`](crate::Span) — claim/expand/dedup in the model checker,
/// generate/execute/shrink in the fuzz driver, supervise/collect in chaos.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Total nanoseconds spent inside the phase since registry creation.
    pub ns: u64,
    /// Intervals folded into `ns` (sampled phases scale both together, so
    /// `ns / calls` stays an honest per-interval mean).
    pub calls: u64,
    /// `ns` as a share of registry wall-clock elapsed. Worker threads time
    /// phases concurrently, so shares may exceed `1.0` and their sum is
    /// bounded by the number of workers, not by one.
    pub share: f64,
}

/// Bucket-boundary quantiles of one live histogram at sample time.
///
/// Quantiles are exact with respect to log₂ bucket boundaries (each is the
/// upper bound of the bucket holding the nearest-rank sample), matching
/// [`Histogram::quantile`](crate::Histogram::quantile).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantileStat {
    /// Samples recorded so far.
    pub count: u64,
    /// 50th-percentile upper bucket bound.
    pub p50: u64,
    /// 95th-percentile upper bucket bound.
    pub p95: u64,
    /// 99th-percentile upper bucket bound.
    pub p99: u64,
}

/// One periodic sample of a live [`MetricRegistry`](crate::MetricRegistry),
/// appended by the background [`TelemetryEmitter`](crate::TelemetryEmitter)
/// to a dedicated JSONL stream.
///
/// Snapshots are wall-clock-derived and therefore non-deterministic *by
/// design*; they never feed back into `TaskCheckReport` or the fuzz/chaos
/// reports, which stay byte-identical with telemetry on or off.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Sample sequence number, starting at 0, strictly increasing within a
    /// stream.
    pub seq: u64,
    /// Nanoseconds since the registry was created.
    pub elapsed_ns: u64,
    /// Monotone counter values (e.g. `mc.states_total`, `fuzz.cases_done`).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauge values (e.g. `mc.frontier_depth`,
    /// `mc.visited_entries`, `mc.visited_bytes_est`, interner sizes).
    pub gauges: BTreeMap<String, u64>,
    /// Per-second rate of each counter over the interval since the previous
    /// snapshot (whole-run average for the first sample of a stream).
    pub rates: BTreeMap<String, f64>,
    /// Cumulative per-phase span totals, keyed by span name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Quantiles of each live histogram, keyed by histogram name.
    pub quantiles: BTreeMap<String, QuantileStat>,
    /// Resident set size in bytes (`/proc/self/statm`; 0 where unavailable).
    pub rss_bytes: u64,
}

impl TelemetrySnapshot {
    /// Convenience: a counter value by name, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: a gauge value by name, 0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[allow(clippy::cast_precision_loss)]
fn rate(count: usize, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    count as f64 / (elapsed_ns as f64 / 1e9)
}

/// Any probe event, as written to a JSONL stream (externally tagged).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProbeEvent {
    Read(ReadEvent),
    Write(WriteEvent),
    Output(OutputEvent),
    Halt {
        /// Index of the halting processor.
        proc_id: usize,
        /// Logical time of the halt step.
        time: u64,
    },
    Reset(ResetEvent),
    Step(StepEvent),
    Timing(TimingEvent),
    Fuzz(FuzzEvent),
    Chaos(ChaosEvent),
    Backoff(BackoffEvent),
    Telemetry(TelemetrySnapshot),
    Checkpoint(CheckpointEvent),
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fully-populated snapshot exercising every field, including an f64
    /// rate that must survive the JSON round trip losslessly.
    pub(crate) fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq: 7,
            elapsed_ns: 1_750_000_000,
            counters: BTreeMap::from([
                ("mc.states_total".to_string(), 1_234_567),
                ("mc.combos_done".to_string(), 42),
            ]),
            gauges: BTreeMap::from([
                ("mc.frontier_depth".to_string(), 11),
                ("mc.visited_entries".to_string(), 98_765),
                ("mc.visited_bytes_est".to_string(), 12_345_678),
            ]),
            rates: BTreeMap::from([("mc.states_total".to_string(), 198_431.062_5)]),
            phases: BTreeMap::from([(
                "mc.expand".to_string(),
                PhaseStat {
                    ns: 1_500_000_000,
                    calls: 42,
                    share: 0.857_142_857,
                },
            )]),
            quantiles: BTreeMap::from([(
                "mc.combo_states".to_string(),
                QuantileStat {
                    count: 42,
                    p50: 1023,
                    p95: 2047,
                    p99: 4095,
                },
            )]),
            rss_bytes: 88_080_384,
        }
    }

    /// One sample of every [`ProbeEvent`] variant, in declaration order.
    pub(crate) fn samples() -> Vec<ProbeEvent> {
        let first = ProbeEvent::Read(ReadEvent {
            proc_id: 0,
            local: 1,
            global: 2,
            time: 1,
            read_from: Some(3),
            value: Some("v".to_string()),
        });
        std::iter::successors(Some(first), sample_after).collect()
    }

    /// The sample of the variant declared after `prev`'s, `None` after the
    /// last. The match is exhaustive, so a new variant does not compile
    /// until it is given a place in the chain.
    fn sample_after(prev: &ProbeEvent) -> Option<ProbeEvent> {
        Some(match prev {
            ProbeEvent::Read(_) => ProbeEvent::Write(WriteEvent {
                proc_id: 1,
                local: 0,
                global: 0,
                time: 2,
                overwrote_writer: Some(0),
                value: None,
            }),
            ProbeEvent::Write(_) => ProbeEvent::Output(OutputEvent {
                proc_id: 1,
                time: 3,
                value: Some("out".to_string()),
            }),
            ProbeEvent::Output(_) => ProbeEvent::Halt {
                proc_id: 1,
                time: 4,
            },
            ProbeEvent::Halt { .. } => ProbeEvent::Reset(ResetEvent {
                proc_id: 0,
                time: 5,
                from_level: 2,
            }),
            ProbeEvent::Reset(_) => ProbeEvent::Step(StepEvent { time: 6, poised: 3 }),
            ProbeEvent::Step(_) => ProbeEvent::Timing(TimingEvent {
                proc_id: 0,
                op: OpKind::Write,
                ns: 150,
                lock_wait_ns: 20,
            }),
            ProbeEvent::Timing(_) => ProbeEvent::Fuzz(FuzzEvent {
                campaign: "smoke".to_string(),
                algo: "snapshot".to_string(),
                jobs: 1,
                cases: 10,
                violations: 0,
                total_steps: 500,
                distinct_patterns: 3,
                elapsed_ns: 2_000,
            }),
            ProbeEvent::Fuzz(_) => ProbeEvent::Chaos(ChaosEvent {
                proc_id: 2,
                kind: ChaosKind::CrashPoised,
                at_op: 9,
                covered_global: Some(1),
                stall_ns: 0,
            }),
            ProbeEvent::Chaos(_) => ProbeEvent::Backoff(BackoffEvent {
                proc_id: 0,
                attempts: 3,
                backoffs: 2,
                total_backoff_ns: 900,
                max_backoff_ns: 500,
            }),
            ProbeEvent::Backoff(_) => ProbeEvent::Telemetry(sample_snapshot()),
            ProbeEvent::Telemetry(_) => ProbeEvent::Checkpoint(CheckpointEvent {
                action: CheckpointAction::Recovered,
                combo: None,
                combos_recorded: 13,
                journal_bytes: 2_048,
                truncated_bytes: 0,
            }),
            ProbeEvent::Checkpoint(_) => return None,
        })
    }

    #[test]
    fn events_round_trip_through_json() {
        let mut events = samples();
        events.push(ProbeEvent::Chaos(ChaosEvent {
            proc_id: 1,
            kind: ChaosKind::Stall,
            at_op: 40,
            covered_global: None,
            stall_ns: 2_000_000,
        }));
        for ev in events {
            let text = serde_json::to_string(&ev).unwrap();
            let back: ProbeEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn sweep_rates_derive_from_elapsed() {
        let ev = SweepEvent {
            check: "snapshot_task".to_string(),
            jobs: 1,
            combos_attempted: 36,
            combos_total: 36,
            states: 9_000,
            peak_combo_states: 400,
            per_combo_states: vec![250; 36],
            elapsed_ns: 2_000_000_000,
        };
        assert!((ev.combos_per_sec() - 18.0).abs() < 1e-9);
        assert!((ev.states_per_sec() - 4_500.0).abs() < 1e-9);
        let zero = SweepEvent {
            elapsed_ns: 0,
            ..ev
        };
        assert_eq!(zero.combos_per_sec(), 0.0);
    }
}
