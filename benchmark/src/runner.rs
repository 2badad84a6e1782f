//! Parent mode: runs each workload in fresh child processes of this same
//! binary, one at a time, and reports medians over them.

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::spec::{combos, declared, moves, Kind, Workload};
use crate::stats::median;

/// Children per untraced run, at least: a median needs a few samples even
/// when `--seconds` is shorter than three calls.
const MIN_CHILDREN: usize = 3;

pub struct Opts {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// One workload's result: the fields of the final JSON line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit), in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn to_json(&self, prefix: &str) -> Value {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    format!("{prefix}{name}"),
                    json!({"value": *value, "unit": *unit}),
                )
            })
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// Units one call attempts: combos across its sweeps, or cases.
fn units(w: &Workload) -> u64 {
    match &w.kind {
        Kind::Checker(c) => (combos(c.n) * c.sweeps.len()) as u64,
        Kind::Fuzz(f) => f.cases as u64,
    }
}

struct ChildRun {
    setup_s: f64,
    notes: Vec<String>,
    body: Value,
}

/// Spawns one child, times spawn → `ready`, and waits for it to exit.
fn spawn_child(w: &Workload, opts: &Opts, tmp: &Path) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name, "--seed", &opts.seed.to_string(), "--out"])
        .arg(&opts.out)
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.trace {
        cmd.arg("--trace");
    }
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next();
    let setup_s = started.elapsed().as_secs_f64();
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for child: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    match first {
        Some(Ok(line)) if line == "ready" => {}
        other => return Err(format!("child did not report ready: {other:?}")),
    }
    let (last, notes) = rest.split_last().ok_or("child printed no result")?;
    let body: Value = serde_json::from_str(last).map_err(|e| format!("bad child result: {e}"))?;
    Ok(ChildRun {
        setup_s,
        notes: notes.to_vec(),
        body,
    })
}

/// One end-to-end metric of one child run, by its `BENCHMARK.json` name.
fn e2e_value(name: &str, run: &ChildRun) -> f64 {
    let b = &run.body;
    match name {
        "wall_s" => num(b, "wall_s"),
        "verified_per_s" => num(b, "work") / num(b, "wall_s").max(f64::MIN_POSITIVE),
        "peak_rss_mib" => num(b, "peak_rss_mib"),
        "setup_s" => run.setup_s,
        other => panic!("BENCHMARK.json declares end-to-end metric {other:?}, not measured here"),
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(0.0)
}

fn errors_of(v: &Value) -> Vec<String> {
    v["errors"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Runs one workload for `opts.seconds` (untraced) or once (traced).
pub fn run_workload(w: &Workload, opts: &Opts) -> RunResult {
    let tmp = opts.out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
    }
    let mut result = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let fail = |result: &mut RunResult, msg: &str| {
        eprintln!("{}: FAILED: {msg}", w.name);
        result.correct = false;
    };

    if opts.trace {
        match spawn_child(w, opts, &tmp) {
            Ok(run) => {
                for note in &run.notes {
                    println!("  {note}");
                }
                result.attempted = num(&run.body, "attempted") as u64;
                result.failed = num(&run.body, "failed") as u64;
                for e in errors_of(&run.body) {
                    fail(&mut result, &e);
                }
                for l in &declared().per_layer {
                    result.metrics.push((
                        l.name.as_str(),
                        num(&run.body["layers"], &l.name),
                        l.unit.as_str(),
                    ));
                }
            }
            Err(e) => {
                fail(&mut result, &e);
                result.attempted = units(w);
                result.failed = units(w);
                result.metrics = declared()
                    .per_layer
                    .iter()
                    .map(|l| (l.name.as_str(), 0.0, l.unit.as_str()))
                    .collect();
            }
        }
        return result;
    }

    let e2e = &declared().end_to_end;
    let started = Instant::now();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); e2e.len()];
    let mut runs = 0usize;
    loop {
        match spawn_child(w, opts, &tmp) {
            Ok(run) => {
                result.attempted += num(&run.body, "attempted") as u64;
                result.failed += num(&run.body, "failed") as u64;
                for e in errors_of(&run.body) {
                    fail(&mut result, &e);
                }
                let row: Vec<String> = e2e
                    .iter()
                    .zip(&mut samples)
                    .map(|(m, xs)| {
                        let value = e2e_value(&m.name, &run);
                        xs.push(value);
                        format!("{} {value:.4} {}", m.name, m.unit)
                    })
                    .collect();
                println!("  child {}: {}", runs + 1, row.join(", "));
            }
            Err(e) => {
                fail(&mut result, &e);
                result.attempted += units(w);
                result.failed += units(w);
            }
        }
        runs += 1;
        // Stop before a child that would end past the measuring window.
        let per_child = started.elapsed().as_secs_f64() / runs as f64;
        if runs >= MIN_CHILDREN && started.elapsed().as_secs_f64() + per_child > opts.seconds {
            break;
        }
    }
    for (m, xs) in e2e.iter().zip(&samples) {
        result
            .metrics
            .push((m.name.as_str(), median(xs), m.unit.as_str()));
    }
    result
}

/// Prints one workload's metrics as a table and appends the run to
/// `<out>/results.jsonl` (with the host block) for `compare`.
pub fn record(w: &Workload, opts: &Opts, result: &RunResult, host: &Value) {
    let d = declared();
    println!(
        "  {:<28} {:>18} {:<6} {:<7} moves",
        "metric", "value", "unit", "better"
    );
    for (name, value, unit) in &result.metrics {
        let better = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .find(|m| m.name == *name)
            .map_or("", |m| m.better.name());
        println!(
            "  {name:<28} {value:>18.6} {unit:<6} {better:<7} {}",
            moves(name)
        );
    }
    let fail_frac = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "  correct {}, attempted {}, failed {} (fail_frac {fail_frac})",
        result.correct, result.attempted, result.failed
    );
    let mut line = result.to_json("");
    if let Value::Object(map) = &mut line {
        map.insert("workload".into(), json!(w.name));
        map.insert("seed".into(), json!(opts.seed));
        map.insert("trace".into(), json!(opts.trace));
        map.insert("seconds".into(), json!(opts.seconds));
        map.insert("host".into(), host.clone());
    }
    let path = opts.out.join("results.jsonl");
    let written = std::fs::create_dir_all(&opts.out).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(
            f,
            "{}",
            serde_json::to_string(&line).expect("result serializes")
        )
    });
    if let Err(e) = written {
        eprintln!("cannot append to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_end_to_end_metric_is_measured() {
        let run = ChildRun {
            setup_s: 0.5,
            notes: Vec::new(),
            body: json!({"wall_s": 2.0, "work": 10.0, "peak_rss_mib": 3.0}),
        };
        let values: Vec<f64> = declared()
            .end_to_end
            .iter()
            .map(|m| e2e_value(&m.name, &run))
            .collect();
        assert!(values.iter().all(|v| *v > 0.0), "{values:?}");
        assert_eq!(e2e_value("verified_per_s", &run), 5.0);
    }
}
