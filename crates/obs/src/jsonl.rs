//! Streaming sink: one JSON object per event, one event per line.

use crate::events::ProbeEvent;
use crate::probe::Probe;
use std::io::{self, Write};

/// Writes every probe event to `w` as JSONL (externally-tagged
/// [`ProbeEvent`] objects, newline-delimited).
///
/// Wants values: read/write/output events carry the `Debug` rendering of
/// the value involved.
///
/// Error handling: the first write error sticks — later events become no-ops
/// (the stream is truncated, not interleaved with garbage) and the error is
/// surfaced by [`JsonlSink::finish`], inspectable early via
/// [`JsonlSink::error`]. Dropping a sink flushes it, so a campaign that
/// unwinds mid-run still lands its trailing buffered events; an unconsumed
/// error is reported on stderr at drop rather than lost.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// `None` only after `finish`/`into_inner` took the writer out.
    writer: Option<W>,
    events_written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Consider a `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Some(writer),
            events_written: 0,
            error: None,
        }
    }

    /// Number of events successfully written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// The sticky write error, if any event or flush has failed.
    #[must_use]
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer, or the first write/flush
    /// error the stream hit. The graceful close for campaign streams.
    pub fn finish(mut self) -> io::Result<W> {
        let mut writer = self.writer.take().expect("writer present until consumed");
        match self.error.take() {
            Some(e) => Err(e),
            None => writer.flush().map(|()| writer),
        }
    }

    /// Flushes and returns the underlying writer; panics on a write error.
    /// Prefer [`JsonlSink::finish`] where an error can be handled.
    pub fn into_inner(self) -> W {
        self.finish().expect("jsonl sink flush failed")
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let Some(writer) = self.writer.as_mut() else {
            return; // finish()/into_inner() already flushed and took it
        };
        if let Err(e) = writer.flush() {
            self.error.get_or_insert(e);
        }
        if let Some(e) = &self.error {
            // Surfacing of last resort: the stream owner never called
            // finish(), so the truncation would otherwise be invisible.
            eprintln!(
                "jsonl sink dropped with unreported write error after {} events: {e}",
                self.events_written
            );
        }
    }
}

impl<W: Write> Probe for JsonlSink<W> {
    const WANTS_VALUES: bool = true;

    fn on_event(&mut self, event: &ProbeEvent) {
        if self.error.is_some() {
            return;
        }
        let writer = self.writer.as_mut().expect("writer present until consumed");
        let line = serde_json::to_string(event).expect("probe event serialization cannot fail");
        match writeln!(writer, "{line}") {
            Ok(()) => self.events_written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Parses a JSONL stream produced by [`JsonlSink`] back into events.
///
/// Blank lines are skipped; malformed lines return an error naming the line
/// number (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<ProbeEvent>, serde::Error> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line)
                .map_err(|e| serde::Error::custom(format!("line {}: {e}", i + 1)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::tests::{sample_snapshot, samples};
    use crate::metrics::RunMetrics;

    fn feed(probe: &mut impl Probe, events: &[ProbeEvent]) {
        for event in events {
            probe.on_event(event);
        }
    }

    #[test]
    fn stream_parses_back_to_identical_events() {
        let mut sink = JsonlSink::new(Vec::new());
        feed(&mut sink, &samples());
        assert_eq!(sink.events_written(), samples().len() as u64);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), samples().len());
        assert_eq!(parse_jsonl(&text).unwrap(), samples());
    }

    #[test]
    fn replayed_stream_rebuilds_metrics() {
        let mut sink = JsonlSink::new(Vec::new());
        let mut live = RunMetrics::new();
        feed(&mut sink, &samples());
        feed(&mut live, &samples());

        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut replayed = RunMetrics::new();
        feed(&mut replayed, &parse_jsonl(&text).unwrap());
        assert_eq!(replayed, live);
    }

    /// The JSONL wire format of every event kind, byte for byte. The
    /// committed `results/*.jsonl` streams and CI's validators read it.
    #[test]
    fn every_event_kind_has_a_pinned_wire_line() {
        let mut sink = JsonlSink::new(Vec::new());
        feed(&mut sink, &crate::events::tests::samples());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let expected = [
            r#"{"Read":{"global":2,"local":1,"proc_id":0,"read_from":3,"time":1,"value":"v"}}"#,
            r#"{"Write":{"global":0,"local":0,"overwrote_writer":0,"proc_id":1,"time":2,"value":null}}"#,
            r#"{"Output":{"proc_id":1,"time":3,"value":"out"}}"#,
            r#"{"Halt":{"proc_id":1,"time":4}}"#,
            r#"{"Reset":{"from_level":2,"proc_id":0,"time":5}}"#,
            r#"{"Step":{"poised":3,"time":6}}"#,
            r#"{"Timing":{"lock_wait_ns":20,"ns":150,"op":"Write","proc_id":0}}"#,
            r#"{"Fuzz":{"algo":"snapshot","campaign":"smoke","cases":10,"distinct_patterns":3,"elapsed_ns":2000,"jobs":1,"total_steps":500,"violations":0}}"#,
            r#"{"Chaos":{"at_op":9,"covered_global":1,"kind":"CrashPoised","proc_id":2,"stall_ns":0}}"#,
            r#"{"Backoff":{"attempts":3,"backoffs":2,"max_backoff_ns":500,"proc_id":0,"total_backoff_ns":900}}"#,
            r#"{"Telemetry":{"counters":[["mc.combos_done",42],["mc.states_total",1234567]],"elapsed_ns":1750000000,"gauges":[["mc.frontier_depth",11],["mc.visited_bytes_est",12345678],["mc.visited_entries",98765]],"phases":[["mc.expand",{"calls":42,"ns":1500000000,"share":0.857142857}]],"quantiles":[["mc.combo_states",{"count":42,"p50":1023,"p95":2047,"p99":4095}]],"rates":[["mc.states_total",198431.0625]],"rss_bytes":88080384,"seq":7}}"#,
            r#"{"Checkpoint":{"action":"Recovered","combo":null,"combos_recorded":13,"journal_bytes":2048,"truncated_bytes":0}}"#,
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn malformed_lines_name_their_position() {
        let err = parse_jsonl("{\"Halt\":{\"proc_id\":0,\"time\":1}}\nnot json\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn telemetry_arm_round_trips_through_replay() {
        let mut sink = JsonlSink::new(Vec::new());
        let recorded = vec![ProbeEvent::Telemetry(sample_snapshot())];
        feed(&mut sink, &recorded);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = parse_jsonl(&text).unwrap();
        assert_eq!(events, recorded);

        // Replaying the parsed stream re-records it identically.
        let mut resink = JsonlSink::new(Vec::new());
        feed(&mut resink, &events);
        assert_eq!(resink.events_written(), 1);
        let retext = String::from_utf8(resink.into_inner()).unwrap();
        assert_eq!(retext, text);
    }

    /// A writer that records whether it was flushed, via shared state that
    /// survives the sink being dropped.
    struct FlushSpy {
        flushed: std::sync::Arc<std::sync::atomic::AtomicBool>,
        written: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    }

    impl Write for FlushSpy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed
                .store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn drop_flushes_the_writer() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let written = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let mut sink = JsonlSink::new(FlushSpy {
                flushed: flushed.clone(),
                written: written.clone(),
            });
            sink.on_event(&ProbeEvent::Halt {
                proc_id: 0,
                time: 1,
            });
            assert!(!flushed.load(std::sync::atomic::Ordering::SeqCst));
        } // dropped without finish()
        assert!(flushed.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(
            String::from_utf8(written.lock().unwrap().clone()).unwrap(),
            "{\"Halt\":{\"proc_id\":0,\"time\":1}}\n"
        );
    }

    /// A writer that fails every write with `BrokenPipe`.
    #[derive(Debug)]
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe gone",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_stick_and_surface_through_finish() {
        let mut sink = JsonlSink::new(FailingWriter);
        sink.on_event(&ProbeEvent::Halt {
            proc_id: 0,
            time: 1,
        }); // must not panic
        assert_eq!(sink.events_written(), 0);
        assert_eq!(
            sink.error().map(std::io::Error::kind),
            Some(std::io::ErrorKind::BrokenPipe)
        );
        sink.on_event(&ProbeEvent::Halt {
            proc_id: 0,
            time: 2,
        }); // sticky: silently skipped, error preserved
        assert_eq!(sink.events_written(), 0);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn finish_returns_writer_and_disarms_drop() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_event(&ProbeEvent::Halt {
            proc_id: 3,
            time: 4,
        });
        let bytes = sink.finish().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "{\"Halt\":{\"proc_id\":3,\"time\":4}}\n"
        );
    }
}
