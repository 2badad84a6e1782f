//! In-memory aggregation probe: [`RunMetrics`].

use crate::events::ProbeEvent;
use crate::probe::Probe;
use serde::{Deserialize, Serialize};

/// A log₂-bucketed histogram of non-negative integer samples.
///
/// Bucket `0` holds zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]` — i.e. a value lands in the bucket indexed by its
/// significant-bit count. Buckets grow on demand, so an empty histogram is
/// an empty vector regardless of later sample magnitude.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// `buckets[i]` counts samples whose bucket index is `i`.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// The bucket index for `value`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive `(low, high)` value range bucket `i` covers. Indices
    /// above 64 (unreachable from [`Histogram::bucket_index`]) clamp to the
    /// final bucket, whose upper bound is `u64::MAX`.
    #[must_use]
    pub fn bucket_range(i: usize) -> (u64, u64) {
        let i = i.min(64);
        if i == 0 {
            (0, 0)
        } else {
            // Bucket 64 is [2^63, u64::MAX]; `(1 << 64) - 1` would overflow.
            (1u64 << (i - 1), u64::MAX >> (64 - i))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds all of `other`'s samples into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) by the nearest-rank method, exact
    /// with respect to bucket boundaries: returns the *upper* bound of the
    /// bucket containing the rank-⌈q·n⌉ smallest sample, i.e. a value `v`
    /// such that at least `q·n` samples are ≤ `v` and `v` is the tightest
    /// such bucket boundary. `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_range(i).1);
            }
        }
        // Unreachable: count() sums the same buckets the loop walks.
        None
    }

    /// The median bucket bound ([`Histogram::quantile`] at 0.5).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 95th-percentile bucket bound.
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// The 99th-percentile bucket bound.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// Counters for one processor.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcMetrics {
    /// Register reads taken.
    pub reads: u64,
    /// Register writes taken.
    pub writes: u64,
    /// Outputs produced (greater than 1 only for long-lived objects).
    pub outputs: u64,
    /// Level resets observed (abandoning progress back to level 0).
    pub resets: u64,
    /// Total operations taken (reads + writes + outputs + halts).
    pub steps: u64,
    /// Logical time of the first output, if the processor terminated.
    pub first_output_at: Option<u64>,
}

/// Aggregated telemetry for one run; implements [`Probe`].
///
/// Deterministic fields only on the lock-step path: two probed executions of
/// the same schedule produce equal `RunMetrics`, which is what the replay
/// round-trip test asserts. The wall-clock histograms are only populated by
/// the threaded runtime's timing events.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-processor counters, indexed by processor id.
    pub per_proc: Vec<ProcMetrics>,
    /// Maximum number of processors simultaneously poised to write — the
    /// largest covering the adversary assembled during the run.
    pub peak_covering: usize,
    /// Highest logical time observed.
    pub total_steps: u64,
    /// Distribution of per-processor steps-to-first-output.
    pub steps_to_output: Histogram,
    /// Distribution of per-operation wall-clock nanoseconds (threaded only).
    pub op_ns: Histogram,
    /// Distribution of per-operation lock-wait nanoseconds (threaded only).
    pub lock_wait_ns: Histogram,
}

impl RunMetrics {
    /// An empty metrics aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn proc(&mut self, p: usize) -> &mut ProcMetrics {
        if self.per_proc.len() <= p {
            self.per_proc.resize_with(p + 1, ProcMetrics::default);
        }
        &mut self.per_proc[p]
    }

    fn see_time(&mut self, time: u64) {
        self.total_steps = self.total_steps.max(time);
    }

    /// Total reads across processors.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.per_proc.iter().map(|p| p.reads).sum()
    }

    /// Total writes across processors.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.per_proc.iter().map(|p| p.writes).sum()
    }

    /// Total outputs across processors.
    #[must_use]
    pub fn total_outputs(&self) -> u64 {
        self.per_proc.iter().map(|p| p.outputs).sum()
    }

    /// Total level resets across processors.
    #[must_use]
    pub fn total_resets(&self) -> u64 {
        self.per_proc.iter().map(|p| p.resets).sum()
    }

    /// Folds another run's (or another thread's) metrics into this one.
    ///
    /// Counters and histograms add; `peak_covering` and `total_steps` take
    /// the maximum, since per-thread observers each see a slice of the same
    /// run rather than disjoint runs.
    pub fn merge(&mut self, other: &RunMetrics) {
        if self.per_proc.len() < other.per_proc.len() {
            self.per_proc
                .resize_with(other.per_proc.len(), ProcMetrics::default);
        }
        for (mine, theirs) in self.per_proc.iter_mut().zip(other.per_proc.iter()) {
            mine.reads += theirs.reads;
            mine.writes += theirs.writes;
            mine.outputs += theirs.outputs;
            mine.resets += theirs.resets;
            mine.steps += theirs.steps;
            mine.first_output_at = match (mine.first_output_at, theirs.first_output_at) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        self.peak_covering = self.peak_covering.max(other.peak_covering);
        self.total_steps = self.total_steps.max(other.total_steps);
        self.steps_to_output.merge(&other.steps_to_output);
        self.op_ns.merge(&other.op_ns);
        self.lock_wait_ns.merge(&other.lock_wait_ns);
    }
}

impl Probe for RunMetrics {
    fn on_event(&mut self, event: &ProbeEvent) {
        match event {
            ProbeEvent::Read(e) => {
                let p = self.proc(e.proc_id);
                p.reads += 1;
                p.steps += 1;
                self.see_time(e.time);
            }
            ProbeEvent::Write(e) => {
                let p = self.proc(e.proc_id);
                p.writes += 1;
                p.steps += 1;
                self.see_time(e.time);
            }
            ProbeEvent::Output(e) => {
                let p = self.proc(e.proc_id);
                p.outputs += 1;
                p.steps += 1;
                if p.first_output_at.is_none() {
                    p.first_output_at = Some(e.time);
                    let steps = p.steps;
                    self.steps_to_output.record(steps);
                }
                self.see_time(e.time);
            }
            &ProbeEvent::Halt { proc_id, time } => {
                self.proc(proc_id).steps += 1;
                self.see_time(time);
            }
            ProbeEvent::Reset(e) => {
                self.proc(e.proc_id).resets += 1;
                self.see_time(e.time);
            }
            ProbeEvent::Step(e) => {
                self.peak_covering = self.peak_covering.max(e.poised);
                self.see_time(e.time);
            }
            ProbeEvent::Timing(e) => {
                self.op_ns.record(e.ns);
                self.lock_wait_ns.record(e.lock_wait_ns);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{OutputEvent, ReadEvent, StepEvent, TimingEvent, WriteEvent};

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        for i in 0..10 {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if i > 0 {
                assert_eq!(Histogram::bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        a.record(0);
        a.record(5);
        let mut b = Histogram::default();
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.buckets[Histogram::bucket_index(5)], 2);
        assert_eq!(a.buckets[0], 1);
    }

    #[test]
    fn quantiles_pin_edge_buckets() {
        // Empty histogram has no quantiles.
        assert_eq!(Histogram::default().quantile(0.5), None);

        // All-zero samples sit in bucket 0, whose upper bound is 0.
        let mut zeros = Histogram::default();
        for _ in 0..10 {
            zeros.record(0);
        }
        assert_eq!(zeros.p50(), Some(0));
        assert_eq!(zeros.p99(), Some(0));

        // A single sample of 1 lands in bucket 1 = [1, 1]: every quantile
        // is exactly 1, not a coarser bound.
        let mut one = Histogram::default();
        one.record(1);
        assert_eq!(one.quantile(0.0), Some(1));
        assert_eq!(one.p50(), Some(1));
        assert_eq!(one.p99(), Some(1));

        // u64::MAX lands in the last bucket (index 64) and reports its own
        // value as the upper bound.
        let mut max = Histogram::default();
        max.record(u64::MAX);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(max.p50(), Some(u64::MAX));

        // 100 samples: 95 small (value 1), 5 large (value 1000, bucket
        // [512, 1023]). Rank ⌈0.95·100⌉ = 95 is still small; rank 99 is
        // large. p95 must report the small bucket, p99 the large one.
        let mut mixed = Histogram::default();
        for _ in 0..95 {
            mixed.record(1);
        }
        for _ in 0..5 {
            mixed.record(1000);
        }
        assert_eq!(mixed.p50(), Some(1));
        assert_eq!(mixed.p95(), Some(1));
        assert_eq!(mixed.p99(), Some(1023));

        // Quantiles clamp: q=0.0 is the first sample, q=1.0 the last.
        assert_eq!(mixed.quantile(0.0), Some(1));
        assert_eq!(mixed.quantile(1.0), Some(1023));
    }

    #[test]
    fn merge_is_associative_and_commutes_with_quantiles() {
        let samples: [&[u64]; 3] = [&[0, 1, 1, 7], &[100, 100, 513], &[2, 65_535]];
        let hist_of = |values: &[u64]| {
            let mut h = Histogram::default();
            for &v in values {
                h.record(v);
            }
            h
        };
        let [a, b, c] = [
            hist_of(samples[0]),
            hist_of(samples[1]),
            hist_of(samples[2]),
        ];

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), including bucket-vector length.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // Merging equals recording the concatenated sample stream, so
        // quantiles agree with the serially-built histogram.
        let all: Vec<u64> = samples.iter().flat_map(|s| s.iter().copied()).collect();
        let serial = hist_of(&all);
        assert_eq!(left, serial);
        assert_eq!(left.p50(), serial.p50());
        assert_eq!(left.p99(), serial.p99());
        assert_eq!(left.count(), 9);
    }

    #[test]
    fn counters_accumulate_per_proc() {
        let mut m = RunMetrics::new();
        m.on_event(&ProbeEvent::Read(ReadEvent {
            proc_id: 1,
            local: 0,
            global: 0,
            time: 1,
            read_from: None,
            value: None,
        }));
        m.on_event(&ProbeEvent::Write(WriteEvent {
            proc_id: 1,
            local: 0,
            global: 0,
            time: 2,
            overwrote_writer: None,
            value: None,
        }));
        m.on_event(&ProbeEvent::Output(OutputEvent {
            proc_id: 1,
            time: 3,
            value: None,
        }));
        m.on_event(&ProbeEvent::Halt {
            proc_id: 1,
            time: 4,
        });
        assert_eq!(m.per_proc.len(), 2);
        assert_eq!(m.per_proc[1].reads, 1);
        assert_eq!(m.per_proc[1].writes, 1);
        assert_eq!(m.per_proc[1].outputs, 1);
        assert_eq!(m.per_proc[1].steps, 4);
        assert_eq!(m.per_proc[1].first_output_at, Some(3));
        assert_eq!(m.total_steps, 4);
        // Three steps taken before (and including) the output.
        assert_eq!(m.steps_to_output.buckets[Histogram::bucket_index(3)], 1);
    }

    #[test]
    fn peak_covering_tracks_maximum() {
        let mut m = RunMetrics::new();
        for (t, poised) in [(1, 0), (2, 2), (3, 5), (4, 1)] {
            m.on_event(&ProbeEvent::Step(StepEvent { time: t, poised }));
        }
        assert_eq!(m.peak_covering, 5);
        assert_eq!(m.total_steps, 4);
    }

    #[test]
    fn merge_adds_counters_and_maxes_peaks() {
        let mut a = RunMetrics::new();
        a.on_event(&ProbeEvent::Read(ReadEvent {
            proc_id: 0,
            local: 0,
            global: 0,
            time: 1,
            read_from: None,
            value: None,
        }));
        a.on_event(&ProbeEvent::Step(StepEvent { time: 1, poised: 3 }));
        let mut b = RunMetrics::new();
        b.on_event(&ProbeEvent::Read(ReadEvent {
            proc_id: 0,
            local: 0,
            global: 0,
            time: 2,
            read_from: None,
            value: None,
        }));
        b.on_event(&ProbeEvent::Step(StepEvent { time: 2, poised: 1 }));
        a.merge(&b);
        assert_eq!(a.per_proc[0].reads, 2);
        assert_eq!(a.peak_covering, 3);
        assert_eq!(a.total_steps, 2);
    }

    #[test]
    fn metrics_serialize_round_trip() {
        let mut m = RunMetrics::new();
        m.on_event(&ProbeEvent::Output(OutputEvent {
            proc_id: 0,
            time: 5,
            value: None,
        }));
        m.on_event(&ProbeEvent::Timing(TimingEvent {
            proc_id: 0,
            op: crate::OpKind::Read,
            ns: 900,
            lock_wait_ns: 10,
        }));
        let text = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
