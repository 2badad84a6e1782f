//! Background telemetry emitter: samples a [`MetricRegistry`] on a fixed
//! cadence into [`TelemetrySnapshot`] JSONL records and an in-place terminal
//! progress line.
//!
//! The emitter is strictly out-of-band: it runs on its own thread, reads
//! relaxed atomics the workload publishes anyway, and writes to its own
//! JSONL stream and to stderr. Deterministic outputs (reports on stdout,
//! event streams the workload owns) are untouched, so enabling telemetry
//! cannot change a report byte. The progress line goes to *stderr*
//! specifically so `--smoke` byte-identity diffs over stdout stay valid
//! with `--progress` on.

use crate::events::{ProbeEvent, TelemetrySnapshot};
use crate::jsonl::JsonlSink;
use crate::probe::Probe;
use crate::registry::MetricRegistry;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How a [`TelemetryEmitter`] samples and where it writes.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sampling interval. The emitter also writes one final snapshot at
    /// stop, so even sub-cadence runs produce a record.
    pub cadence: Duration,
    /// Append snapshots as JSONL here.
    pub jsonl_path: Option<PathBuf>,
    /// Render an in-place `\r` progress line on stderr at each sample.
    pub progress: bool,
    /// Prefix for the progress line, e.g. the binary or experiment name.
    pub label: String,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            cadence: Duration::from_millis(250),
            jsonl_path: None,
            progress: false,
            label: "telemetry".to_string(),
        }
    }
}

/// What a stopped emitter saw and wrote.
#[derive(Debug)]
pub struct TelemetrySummary {
    /// Snapshots emitted, including the final at-stop sample. Its
    /// `phases` field holds every span's cumulative totals.
    pub snapshots: u64,
    /// Where the JSONL stream went, if anywhere.
    pub jsonl_path: Option<PathBuf>,
    /// First I/O error the JSONL stream or the stderr progress line hit, if
    /// any (the failing stream is truncated at that point, never
    /// interleaved).
    pub io_error: Option<String>,
}

/// Background sampling thread over a shared [`MetricRegistry`].
///
/// Start one next to a campaign workload, run the workload, then call
/// [`TelemetryEmitter::stop`]; the emitter takes a final snapshot before
/// closing the stream.
#[derive(Debug)]
pub struct TelemetryEmitter {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<(u64, Option<String>)>,
    jsonl_path: Option<PathBuf>,
}

impl TelemetryEmitter {
    /// Spawns the emitter thread. Fails only if the JSONL file cannot be
    /// created — sampling itself is infallible.
    pub fn start(registry: Arc<MetricRegistry>, config: TelemetryConfig) -> io::Result<Self> {
        let sink = config
            .jsonl_path
            .as_ref()
            .map(|p| File::create(p).map(|f| JsonlSink::new(BufWriter::new(f))))
            .transpose()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let jsonl_path = config.jsonl_path.clone();
        let handle = thread::Builder::new()
            .name("fa-telemetry".to_string())
            .spawn(move || emitter_loop(&registry, &config, sink, &thread_stop))
            .expect("spawning telemetry emitter thread");
        Ok(TelemetryEmitter {
            stop,
            handle,
            jsonl_path,
        })
    }

    /// Signals the emitter, waits for its final snapshot, and returns what
    /// it wrote.
    #[must_use]
    pub fn stop(self) -> TelemetrySummary {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok((snapshots, io_error)) => TelemetrySummary {
                snapshots,
                jsonl_path: self.jsonl_path,
                io_error,
            },
            Err(_) => TelemetrySummary {
                snapshots: 0,
                jsonl_path: self.jsonl_path,
                io_error: Some("telemetry emitter thread panicked".to_string()),
            },
        }
    }
}

/// Stop-flag poll interval: the emitter reacts to `stop()` within this
/// bound regardless of cadence.
const STOP_POLL: Duration = Duration::from_millis(20);

/// In-place `\r` progress rendering over any byte stream, with
/// [`JsonlSink`]'s error discipline: the first write error is kept, later
/// writes become no-ops, and the error surfaces in the emitter's
/// [`TelemetrySummary::io_error`].
struct ProgressRenderer<W: Write> {
    out: W,
    /// Display width of the last rendered line, so redraws and
    /// [`ProgressRenderer::clear`] blank exactly what was drawn.
    last_width: usize,
    error: Option<String>,
}

impl<W: Write> ProgressRenderer<W> {
    fn new(out: W) -> Self {
        ProgressRenderer {
            out,
            last_width: 0,
            error: None,
        }
    }

    /// Redraws the in-place line, padding over any longer previous render.
    fn render(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let width = line.chars().count();
        let pad = width.max(self.last_width);
        let res = write!(self.out, "\r{line:<pad$}").and_then(|()| self.out.flush());
        match res {
            Ok(()) => self.last_width = width,
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// Blanks the in-place line and returns the cursor to column 0, so
    /// whatever writes to the stream next starts on a clean row instead of
    /// being glued onto a half-drawn progress line.
    fn clear(&mut self) {
        if self.error.is_some() || self.last_width == 0 {
            return;
        }
        let blank = " ".repeat(self.last_width);
        let res = write!(self.out, "\r{blank}\r").and_then(|()| self.out.flush());
        if let Err(e) = res {
            self.error = Some(e.to_string());
        }
        self.last_width = 0;
    }

    /// Writes a plain terminated line (the closing scrollback summary).
    fn line(&mut self, text: &str) {
        if self.error.is_some() {
            return;
        }
        let res = writeln!(self.out, "{text}").and_then(|()| self.out.flush());
        if let Err(e) = res {
            self.error = Some(e.to_string());
        }
    }

    fn into_error(self) -> Option<String> {
        self.error
    }
}

fn emitter_loop(
    registry: &MetricRegistry,
    config: &TelemetryConfig,
    mut sink: Option<JsonlSink<BufWriter<File>>>,
    stop: &AtomicBool,
) -> (u64, Option<String>) {
    let mut seq = 0u64;
    let mut prev: Option<TelemetrySnapshot> = None;
    let started = Instant::now();
    let mut progress = config
        .progress
        .then(|| ProgressRenderer::new(io::stderr().lock()));

    loop {
        // Sleep one cadence in stop-poll slices so stop() is prompt.
        let deadline = Instant::now() + config.cadence;
        while Instant::now() < deadline {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            thread::sleep(STOP_POLL.min(deadline.saturating_duration_since(Instant::now())));
        }
        let stopping = stop.load(Ordering::SeqCst);

        // Final snapshot is taken even when the run ends inside the first
        // cadence, so every stream has at least one record.
        let snap = registry.sample(seq, prev.as_ref());
        if let Some(sink) = sink.as_mut() {
            sink.on_event(&ProbeEvent::Telemetry(snap.clone()));
        }
        if let Some(p) = progress.as_mut() {
            p.render(&progress_line(&config.label, &snap));
        }
        prev = Some(snap);
        seq += 1;

        if stopping {
            break;
        }
    }

    let mut io_error = None;
    if let Some(sink) = sink {
        if let Err(e) = sink.finish() {
            io_error = Some(e.to_string());
        }
    }
    if let Some(mut p) = progress {
        // Clear the in-place line — whatever the process prints to stderr
        // next must start on a clean row, not glued to a stale `\r` line —
        // then leave one closing line in scrollback with the run duration.
        p.clear();
        p.line(&format!(
            "[{}] telemetry: {} snapshots over {:.1}s",
            config.label,
            seq,
            started.elapsed().as_secs_f64()
        ));
        io_error = io_error.or(p.into_error());
    }
    (seq, io_error)
}

/// Renders one in-place progress line from a snapshot: elapsed, then the
/// well-known campaign counters that are present, then RSS.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn progress_line(label: &str, snap: &TelemetrySnapshot) -> String {
    let mut parts = vec![format!("[{label}] {:7.1}s", snap.elapsed_ns as f64 / 1e9)];

    for (counter, short) in [
        ("mc.states_total", "states"),
        ("fuzz.cases_done", "cases"),
        ("fuzz.steps_total", "steps"),
        ("chaos.scenarios_done", "scenarios"),
    ] {
        if let Some(&v) = snap.counters.get(counter) {
            let rate = snap.rates.get(counter).copied().unwrap_or(0.0);
            parts.push(format!("{short} {} ({}/s)", group_digits(v), si(rate)));
        }
    }
    if let Some(&done) = snap.counters.get("mc.combos_done") {
        let total = snap.gauge("mc.combos_total");
        parts.push(format!("combos {done}/{total}"));
    }
    if let Some(&entries) = snap.gauges.get("mc.visited_entries") {
        let bytes = snap.gauge("mc.visited_bytes_est");
        parts.push(format!(
            "visited {} (~{})",
            group_digits(entries),
            mib(bytes)
        ));
    }
    if let Some(&depth) = snap.gauges.get("mc.frontier_depth") {
        parts.push(format!("depth {depth}"));
    }
    if snap.rss_bytes > 0 {
        parts.push(format!("rss {}", mib(snap.rss_bytes)));
    }
    parts.join(" | ")
}

/// `1234567` → `"1,234,567"`.
fn group_digits(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A rate with an SI suffix: `85_432.1` → `"85.4k"`.
fn si(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Bytes as mebibytes with one decimal.
#[allow(clippy::cast_precision_loss)]
fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_jsonl;
    use crate::ProbeEvent;

    #[test]
    fn emitter_samples_counters_monotonically_into_jsonl() {
        let dir = std::env::temp_dir().join("fa_obs_emitter_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stream_{}.jsonl", std::process::id()));

        let registry = Arc::new(MetricRegistry::new());
        let states = registry.counter("mc.states_total");
        let span = registry.span("mc.expand");
        let emitter = TelemetryEmitter::start(
            Arc::clone(&registry),
            TelemetryConfig {
                cadence: Duration::from_millis(10),
                jsonl_path: Some(path.clone()),
                progress: false,
                label: "test".to_string(),
            },
        )
        .unwrap();

        for _ in 0..20 {
            states.add(50);
            span.record_ns(1_000);
            thread::sleep(Duration::from_millis(5));
        }
        let summary = emitter.stop();
        assert!(summary.io_error.is_none(), "{:?}", summary.io_error);
        assert!(summary.snapshots >= 3, "snapshots = {}", summary.snapshots);

        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        let snaps: Vec<&TelemetrySnapshot> = events
            .iter()
            .filter_map(|e| match e {
                ProbeEvent::Telemetry(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(snaps.len() as u64, summary.snapshots);
        // seq, elapsed, and the monotone counter all strictly advance.
        for w in snaps.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].elapsed_ns > w[0].elapsed_ns);
            assert!(w[1].counter("mc.states_total") >= w[0].counter("mc.states_total"));
        }
        // Final snapshot saw the finished workload, spans included.
        let last = snaps.last().unwrap();
        assert_eq!(last.counter("mc.states_total"), 1000);
        assert_eq!(last.phases["mc.expand"].calls, 20);
        assert_eq!(last.phases["mc.expand"].ns, 20_000);
        // The stream ends with that snapshot.
        assert!(matches!(events.last(), Some(ProbeEvent::Telemetry(s)) if s.seq == last.seq));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn emitter_without_stream_still_counts_samples() {
        let registry = Arc::new(MetricRegistry::new());
        let emitter =
            TelemetryEmitter::start(Arc::clone(&registry), TelemetryConfig::default()).unwrap();
        let summary = emitter.stop();
        assert!(summary.snapshots >= 1); // the final at-stop sample
        assert!(summary.jsonl_path.is_none());
        assert!(summary.io_error.is_none());
    }

    #[test]
    fn progress_renderer_clears_the_line_on_stop() {
        let mut r = ProgressRenderer::new(Vec::new());
        r.render("[e18] states 1,000");
        // A shorter redraw pads over the longer previous line.
        r.render("[e18] done");
        r.clear();
        r.line("[e18] telemetry: 2 snapshots over 0.1s");
        assert!(r.error.is_none());
        let out = String::from_utf8(r.out).unwrap();
        let long = "[e18] states 1,000";
        let short = format!("{:<width$}", "[e18] done", width = long.chars().count());
        // Render, padded redraw, blank-out to column 0, then the closing
        // scrollback line — nothing of the in-place line survives the stop.
        let blank = " ".repeat("[e18] done".chars().count());
        let expect =
            format!("\r{long}\r{short}\r{blank}\r[e18] telemetry: 2 snapshots over 0.1s\n");
        assert_eq!(out, expect);
    }

    #[test]
    fn progress_renderer_clear_without_render_writes_nothing() {
        let mut r = ProgressRenderer::new(Vec::new());
        r.clear();
        assert!(r.out.is_empty(), "no line was drawn, nothing to clear");
    }

    #[test]
    fn progress_renderer_surfaces_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "stderr gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut r = ProgressRenderer::new(Failing);
        r.render("[x] 1");
        // Later writes are no-ops; the first error is what surfaces.
        r.render("[x] 2");
        r.clear();
        r.line("closing");
        let err = r.into_error().expect("write error surfaces");
        assert!(err.contains("stderr gone"), "{err}");
    }

    #[test]
    fn progress_line_shows_known_campaign_metrics() {
        let snap = crate::events::tests::sample_snapshot();
        let line = progress_line("e18", &snap);
        assert!(line.starts_with("[e18]"), "{line}");
        assert!(line.contains("states 1,234,567"), "{line}");
        assert!(line.contains("198.4k/s"), "{line}");
        assert!(line.contains("combos 42/0"), "{line}");
        assert!(line.contains("visited 98,765"), "{line}");
        assert!(line.contains("depth 11"), "{line}");
        assert!(line.contains("rss 84.0 MiB"), "{line}");
    }

    #[test]
    fn digit_grouping_and_si_suffixes() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(1_234_567), "1,234,567");
        assert_eq!(si(12.0), "12");
        assert_eq!(si(85_432.1), "85.4k");
        assert_eq!(si(2_500_000.0), "2.5M");
        assert_eq!(mib(12 * 1024 * 1024), "12.0 MiB");
    }
}
