//! Lock-free live metric registry: [`MetricRegistry`].
//!
//! The deterministic probe path ([`crate::RunMetrics`], [`crate::JsonlSink`])
//! aggregates *per run* and reports at the end. Campaign-scale workloads —
//! E18 sweeps visiting tens of millions of states, 10k-case fuzz campaigns,
//! chaos scenarios with real stalls — need the complementary view: what is
//! the system doing *right now*? The registry provides it without perturbing
//! the workload:
//!
//! * [`Counter`] / [`Gauge`] — one relaxed atomic op per record;
//! * [`LiveHistogram`] — shard-and-merge: each recording thread picks a
//!   fixed shard of 65 atomic log₂ buckets, so concurrent `record` calls
//!   rarely contend on a cache line, and sampling merges shards into a plain
//!   [`Histogram`] for p50/p95/p99 quantiles;
//! * [`Span`] / [`SpanGuard`] — phase timing (claim/expand/dedup,
//!   generate/execute/shrink, supervise/collect) as two counter adds per
//!   interval.
//!
//! Registration (name → handle) takes a `Mutex`, but workers resolve their
//! handles once at startup and record lock-free thereafter. The background
//! [`TelemetryEmitter`](crate::TelemetryEmitter) samples the registry into
//! [`TelemetrySnapshot`] records; nothing here ever feeds back into the
//! deterministic reports, which stay byte-identical with telemetry on or
//! off.

use crate::events::{PhaseStat, QuantileStat, TelemetrySnapshot};
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Buckets per histogram shard: `bucket_index` ranges over `0..=64`.
const HIST_BUCKETS: usize = 65;

/// Shards per live histogram. Recording threads spread across shards
/// round-robin, so up to this many threads record without sharing a bucket
/// array; more threads only share shards, never block.
const HIST_SHARDS: usize = 8;

/// A monotone event count. Cloning shares the underlying atomic, so a
/// worker clones its handle once and records lock-free.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (frontier depth, table sizes, …).
/// Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if larger (high-water marks).
    pub fn raise(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-thread shard hint: assigned round-robin on first use so threads
/// spread across a histogram's shards without coordination.
fn shard_hint() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    MY_SHARD.with(|cell| {
        let mut shard = cell.get();
        if shard == usize::MAX {
            shard = NEXT.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS;
            cell.set(shard);
        }
        shard
    })
}

/// A sharded atomic log₂ histogram with the same bucket layout as
/// [`Histogram`]. `record` is one relaxed `fetch_add` on the caller's shard;
/// [`LiveHistogram::merged`] folds all shards into a plain [`Histogram`]
/// equal to one built serially from the same samples.
#[derive(Clone, Debug)]
pub struct LiveHistogram {
    /// `shards[s][b]` counts samples with bucket index `b` recorded by
    /// threads hinted onto shard `s`.
    shards: Arc<Vec<Vec<AtomicU64>>>,
}

impl Default for LiveHistogram {
    fn default() -> Self {
        let shards = (0..HIST_SHARDS)
            .map(|_| (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect())
            .collect();
        LiveHistogram {
            shards: Arc::new(shards),
        }
    }
}

impl LiveHistogram {
    /// An empty live histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample, lock-free.
    pub fn record(&self, value: u64) {
        let bucket = Histogram::bucket_index(value);
        self.shards[shard_hint()][bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges every shard into a plain [`Histogram`] (trailing empty
    /// buckets trimmed, so the result equals a serially-built histogram of
    /// the same samples).
    #[must_use]
    pub fn merged(&self) -> Histogram {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        for shard in self.shards.iter() {
            for (b, cell) in shard.iter().enumerate() {
                buckets[b] += cell.load(Ordering::Relaxed);
            }
        }
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Histogram { buckets }
    }
}

/// Cumulative wall-clock timing for one named phase. Cloning shares the
/// underlying atomics; [`Span::enter`] returns a guard that records the
/// interval on drop.
#[derive(Clone, Debug, Default)]
pub struct Span {
    ns: Counter,
    calls: Counter,
}

impl Span {
    /// Starts timing an interval; the returned guard records it when
    /// dropped.
    #[must_use]
    pub fn enter(&self) -> SpanGuard {
        SpanGuard {
            span: self.clone(),
            start: Instant::now(),
        }
    }

    /// Records one completed interval of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.ns.add(ns);
        self.calls.inc();
    }

    /// Records a *sampled* interval: one timed interval standing in for
    /// `factor` untimed ones. Both totals scale by `factor`, so `ns /
    /// calls` remains an honest per-interval mean and the phase's time
    /// share stays an unbiased estimate.
    pub fn record_sampled_ns(&self, ns: u64, factor: u64) {
        self.ns.add(ns.saturating_mul(factor));
        self.calls.add(factor);
    }

    /// Total nanoseconds recorded.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.get()
    }

    /// Intervals recorded (including sampled scale-up).
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Records the elapsed interval into its [`Span`] on drop.
#[derive(Debug)]
pub struct SpanGuard {
    span: Span,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.span.record_ns(ns);
    }
}

/// The live metric registry: named counters, gauges, histograms, and spans.
///
/// Registration is `Mutex`-guarded get-or-create; handles are `Clone` and
/// record lock-free. Share the registry as `Arc<MetricRegistry>` between
/// the instrumented workload and a [`TelemetryEmitter`](crate::TelemetryEmitter).
#[derive(Debug)]
pub struct MetricRegistry {
    start: Instant,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, LiveHistogram>>,
    spans: Mutex<BTreeMap<String, Span>>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricRegistry {
    /// An empty registry; its wall clock starts now.
    #[must_use]
    pub fn new() -> Self {
        MetricRegistry {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the registry was created.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The live histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> LiveHistogram {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The span named `name`, created on first use.
    pub fn span(&self, name: &str) -> Span {
        let mut map = self.spans.lock().expect("span registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Samples every metric into a [`TelemetrySnapshot`].
    ///
    /// Counter rates are per-second deltas against `prev` (whole-run
    /// averages when `prev` is `None`); phase shares divide by registry
    /// elapsed wall clock. Concurrent recording continues during the
    /// sample, so a snapshot is a consistent-enough view, not a barrier.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn sample(&self, seq: u64, prev: Option<&TelemetrySnapshot>) -> TelemetrySnapshot {
        let elapsed_ns = self.elapsed_ns();

        let counters: BTreeMap<String, u64> = {
            let map = self.counters.lock().expect("counter registry poisoned");
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let gauges: BTreeMap<String, u64> = {
            let map = self.gauges.lock().expect("gauge registry poisoned");
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };

        let mut rates = BTreeMap::new();
        for (name, &value) in &counters {
            let (base_value, base_ns) = match prev {
                Some(p) => (p.counter(name), p.elapsed_ns),
                None => (0, 0),
            };
            let dv = value.saturating_sub(base_value);
            let dt_ns = elapsed_ns.saturating_sub(base_ns);
            let per_sec = if dt_ns == 0 {
                0.0
            } else {
                dv as f64 / (dt_ns as f64 / 1e9)
            };
            rates.insert(name.clone(), per_sec);
        }

        let phases: BTreeMap<String, PhaseStat> = {
            let map = self.spans.lock().expect("span registry poisoned");
            map.iter()
                .map(|(k, span)| {
                    let ns = span.total_ns();
                    let share = if elapsed_ns == 0 {
                        0.0
                    } else {
                        ns as f64 / elapsed_ns as f64
                    };
                    (
                        k.clone(),
                        PhaseStat {
                            ns,
                            calls: span.calls(),
                            share,
                        },
                    )
                })
                .collect()
        };

        let quantiles: BTreeMap<String, QuantileStat> = {
            let map = self.histograms.lock().expect("histogram registry poisoned");
            map.iter()
                .map(|(k, live)| {
                    let h = live.merged();
                    (
                        k.clone(),
                        QuantileStat {
                            count: h.count(),
                            p50: h.p50().unwrap_or(0),
                            p95: h.p95().unwrap_or(0),
                            p99: h.p99().unwrap_or(0),
                        },
                    )
                })
                .collect()
        };

        TelemetrySnapshot {
            seq,
            elapsed_ns,
            counters,
            gauges,
            rates,
            phases,
            quantiles,
            rss_bytes: read_rss_bytes(),
        }
    }
}

/// Resident set size in bytes from `/proc/self/statm` (second field ×
/// page size); 0 where the proc filesystem is unavailable.
#[must_use]
pub fn read_rss_bytes() -> u64 {
    read_rss_from(&std::fs::read_to_string("/proc/self/statm").unwrap_or_default())
}

/// Parses the resident-pages field of a `statm` line. Assumes 4 KiB pages,
/// the fixed size on every platform this repo targets.
fn read_rss_from(statm: &str) -> u64 {
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|pages| pages.parse::<u64>().ok())
        .map_or(0, |pages| pages.saturating_mul(4096))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let reg = MetricRegistry::new();
        let a = reg.counter("states");
        let b = reg.counter("states");
        a.add(5);
        b.inc();
        assert_eq!(reg.counter("states").get(), 6);

        let g = reg.gauge("frontier");
        g.set(10);
        reg.gauge("frontier").raise(7); // below current: no-op
        assert_eq!(g.get(), 10);
        g.raise(12);
        assert_eq!(reg.gauge("frontier").get(), 12);
    }

    #[test]
    fn live_histogram_matches_serial_histogram_under_concurrency() {
        let live = LiveHistogram::new();
        let mut serial = Histogram::default();
        for v in 0..1000u64 {
            serial.record(v % 37);
        }
        thread::scope(|s| {
            for t in 0..4 {
                let live = &live;
                s.spawn(move || {
                    for v in 0..250u64 {
                        live.record((t * 250 + v) % 37);
                    }
                });
            }
        });
        assert_eq!(live.merged(), serial);
        assert_eq!(live.merged().count(), 1000);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let reg = MetricRegistry::new();
        let span = reg.span("phase");
        {
            let _g = span.enter();
            thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(span.calls(), 1);
        assert!(span.total_ns() >= 1_000_000, "ns = {}", span.total_ns());

        span.record_sampled_ns(100, 64);
        assert_eq!(span.calls(), 65);
        assert!(span.total_ns() >= 1_000_000 + 6_400);
    }

    #[test]
    fn sample_reports_counters_rates_phases_and_quantiles() {
        let reg = MetricRegistry::new();
        reg.counter("states").add(1000);
        reg.gauge("frontier").set(3);
        reg.span("expand").record_ns(500);
        let hist = reg.histogram("combo_states");
        for _ in 0..95 {
            hist.record(10);
        }
        for _ in 0..5 {
            hist.record(1000);
        }

        let snap = reg.sample(0, None);
        assert_eq!(snap.seq, 0);
        assert_eq!(snap.counter("states"), 1000);
        assert_eq!(snap.gauge("frontier"), 3);
        assert!(snap.rates["states"] > 0.0);
        assert_eq!(snap.phases["expand"].calls, 1);
        let q = &snap.quantiles["combo_states"];
        assert_eq!(q.count, 100);
        assert_eq!(q.p50, 15); // bucket [8, 15]
        assert_eq!(q.p99, 1023); // bucket [512, 1023]

        // Delta rates: 1000 more events against the previous sample.
        reg.counter("states").add(1000);
        let snap2 = reg.sample(1, Some(&snap));
        assert_eq!(snap2.counter("states"), 2000);
        assert!(snap2.rates["states"] > 0.0);
        assert!(snap2.elapsed_ns > snap.elapsed_ns);
    }

    #[test]
    fn rss_parses_statm_and_tolerates_garbage() {
        assert_eq!(read_rss_from("12345 678 90 1 0 2 0"), 678 * 4096);
        assert_eq!(read_rss_from(""), 0);
        assert_eq!(read_rss_from("only-one-field"), 0);
        assert_eq!(read_rss_from("x y z"), 0);
        // The real thing reports something nonzero on Linux.
        assert!(read_rss_bytes() > 0 || !cfg!(target_os = "linux"));
    }
}
