//! In-memory spans recorded around the public calls, written out as JSONL
//! once the traced run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Map, Value};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts taken at the same boundary as the span.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder: `begin`/`end` nest, and a span's parent is the span open
/// when it began. Span ids are indices into [`Tracer::spans`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f(self);
        let ns = self.end(id);
        (out, ns)
    }

    /// Duration of span `id` minus the part of it that its child spans
    /// cover (overlapping children are counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Writes one JSON object per span: id, name, workload, start, end,
    /// parent, self time and counts.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let counts: Map = s
                .counts
                .iter()
                .map(|(k, v)| ((*k).to_string(), json!(*v)))
                .collect();
            let line = json!({
                "id": id,
                "name": s.name,
                "workload": workload,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                "self_ns": self.self_ns(id),
                "counts": Value::Object(counts),
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("span serializes")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer {
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 10, 30),
                // Overlaps `a`: only 30..40 is new cover.
                span("b", Some(0), 20, 40),
                span("c", Some(0), 90, 120),
                // A grandchild never counts against the root.
                span("a.1", Some(1), 12, 28),
            ],
            ..Tracer::default()
        };
        // Children cover 10..40 and 90..100 → 40 of 100.
        assert_eq!(t.self_ns(0), 60);
        assert_eq!(t.self_ns(1), 4);
        assert_eq!(t.self_ns(4), 16);
    }

    #[test]
    fn nested_spans_take_the_open_span_as_parent() {
        let mut t = Tracer::default();
        let ((), _) = t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
