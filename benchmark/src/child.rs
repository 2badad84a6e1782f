//! Child mode: one fresh process per timed call, so peak RSS and allocator
//! state never carry over from another call or workload.
//!
//! Protocol on stdout: `ready` once set-up is done, then (in a traced run)
//! human-readable layer notes, then one JSON line.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::call::{execute, prepare, verify};
use crate::layers::traced;
use crate::spec::Workload;
use crate::trace::Tracer;

/// The set-up warm-up runs the workload shrunk by this factor: big enough
/// to touch every code path and lazy table, small next to the timed call.
const WARMUP_DIV: usize = 20;

pub fn child_main(workload: &Workload, seed: u64, trace: bool, out: &Path) -> i32 {
    // Set-up: draw inputs, then warm caches and lazy set-up with a shrunken
    // call of the same workload, checked like the real one.
    let warm = prepare(&workload.shrunk(WARMUP_DIV), seed, "warmup");
    let warm_verdict = verify(&warm, &execute(&warm));
    warm.cleanup();
    let p = prepare(workload, seed, "timed");
    println!("ready");
    let _ = std::io::stdout().flush();

    let mut errors: Vec<String> = warm_verdict
        .errors
        .into_iter()
        .map(|e| format!("warm-up: {e}"))
        .collect();
    let line = if trace {
        let mut tracer = Tracer::default();
        let run = traced(&p, &mut tracer);
        let path = out.join("trace").join(format!("{}.jsonl", workload.name));
        if let Err(e) = tracer.write_jsonl(&path, workload.name) {
            errors.push(format!("cannot write {}: {e}", path.display()));
        }
        for note in &run.notes {
            println!("{note}");
        }
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        );
        errors.extend(run.verdict.errors);
        let layers: Map = run
            .metrics
            .iter()
            .map(|(k, v)| ((*k).to_string(), json!(*v)))
            .collect();
        json!({
            "attempted": run.verdict.attempted,
            "failed": run.verdict.failed,
            "errors": errors,
            "layers": Value::Object(layers),
        })
    } else {
        let started = Instant::now();
        let outcome = execute(&p);
        let wall_s = started.elapsed().as_secs_f64();
        let verdict = verify(&p, &outcome);
        p.cleanup();
        errors.extend(verdict.errors);
        json!({
            "wall_s": wall_s,
            "work": verdict.work,
            "peak_rss_mib": crate::host::peak_rss_mib().unwrap_or(0.0),
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "errors": errors,
        })
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("child line serializes")
    );
    0
}
