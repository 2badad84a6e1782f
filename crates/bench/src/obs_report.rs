//! Unified observability report (E17): runs a seeded workload matrix —
//! {snapshot, renaming, consensus, double-collect baseline} ×
//! {identity, random wirings} × seeds — through the `fa-obs` probe layer and
//! emits `results/obs_report.json` plus a markdown summary.
//!
//! The per-run [`RunMetrics`] capture exactly the quantities Section 2 of the
//! paper reasons about: `peak_covering` is the largest set of processors the
//! schedule ever held simultaneously poised to write (a covering in the
//! paper's sense), and `resets` counts level falls to 0 — the snapshot
//! algorithm detecting that covered writes destroyed its progress.

use std::fs;
use std::io::Write as _;
use std::time::Duration;

use crate::print_table;
use fa_baselines::DoubleCollectProcess;
use fa_core::metrics::snapshot_trajectories_probed;
use fa_core::runner::{run_consensus_probed, run_renaming_probed, WiringMode};
use fa_core::{BackoffArbiter, ConsensusProcess, SnapRegister, View};
use fa_memory::chaos::{run_chaos, ChaosConfig, FaultPlan};
use fa_memory::{Executor, RandomScheduler, SharedMemory, Wiring};
use fa_modelcheck::checks::{
    check_renaming_with, check_snapshot_task_coarse_with, check_snapshot_task_with, CheckConfig,
};
use fa_obs::BackoffEvent;
use fa_obs::{JsonlSink, Probe as _, ProbeEvent, RunMetrics, SweepEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use serde_json::{Map, Value};

const SEEDS: std::ops::Range<u64> = 0..5;
const SIZES: [usize; 2] = [4, 6];
const BUDGET: usize = 10_000_000;

/// One cell of the workload matrix.
struct Cell {
    algorithm: &'static str,
    wiring: &'static str,
    n: usize,
    seed: u64,
    completed: bool,
    metrics: RunMetrics,
}

fn wiring_modes() -> [(&'static str, WiringMode); 2] {
    [
        ("identity", WiringMode::Identity),
        ("random", WiringMode::Random),
    ]
}

fn snapshot_cell(n: usize, mode: &WiringMode, name: &'static str, seed: u64) -> Cell {
    let inputs: Vec<u32> = (0..n as u32).collect();
    let sched = RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed));
    let (t, metrics) =
        snapshot_trajectories_probed(&inputs, mode, seed, sched, BUDGET, RunMetrics::new())
            .expect("snapshot run");
    Cell {
        algorithm: "snapshot",
        wiring: name,
        n,
        seed,
        completed: t.completed,
        metrics,
    }
}

fn renaming_cell(n: usize, mode: &WiringMode, name: &'static str, seed: u64) -> Cell {
    let inputs: Vec<u32> = (0..n as u32).collect();
    let (_names, metrics) =
        run_renaming_probed(&inputs, seed, mode, BUDGET, RunMetrics::new()).expect("renaming run");
    Cell {
        algorithm: "renaming",
        wiring: name,
        n,
        seed,
        completed: true,
        metrics,
    }
}

fn consensus_cell(n: usize, mode: &WiringMode, name: &'static str, seed: u64) -> Cell {
    let inputs: Vec<u32> = (0..n as u32).collect();
    let (res, metrics) =
        run_consensus_probed(&inputs, seed, mode, 200_000, BUDGET, RunMetrics::new())
            .expect("consensus run");
    Cell {
        algorithm: "consensus",
        wiring: name,
        n,
        seed,
        completed: res.all_decided,
        metrics,
    }
}

/// The double-collect baseline has no dedicated runner; build the probed
/// executor directly. It may livelock under contention, which is itself a
/// result worth recording (`completed: false`).
fn double_collect_cell(n: usize, mode: &WiringMode, name: &'static str, seed: u64) -> Cell {
    let procs: Vec<DoubleCollectProcess<u32>> = (0..n)
        .map(|i| DoubleCollectProcess::new(i as u32, n))
        .collect();
    let wirings: Vec<Wiring> = match mode {
        WiringMode::Identity => vec![Wiring::identity(n); n],
        _ => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57a8_1e55_0000_0000);
            (0..n).map(|_| Wiring::random(n, &mut rng)).collect()
        }
    };
    let memory = SharedMemory::new(n, View::new(), wirings).expect("memory");
    let mut exec = Executor::with_probe(procs, memory, RunMetrics::new()).expect("executor");
    let outcome = exec
        .run(
            RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed)),
            1_000_000,
        )
        .expect("double-collect run");
    Cell {
        algorithm: "double_collect",
        wiring: name,
        n,
        seed,
        completed: outcome.all_halted,
        metrics: exec.into_probe(),
    }
}

fn cell_json(c: &Cell) -> Value {
    let mut obj = Map::new();
    obj.insert("algorithm".into(), Value::String(c.algorithm.into()));
    obj.insert("wiring".into(), Value::String(c.wiring.into()));
    obj.insert("n".into(), (c.n as u64).to_value());
    obj.insert("seed".into(), c.seed.to_value());
    obj.insert("completed".into(), Value::Bool(c.completed));
    obj.insert("metrics".into(), c.metrics.to_value());
    Value::Object(obj)
}

/// Runs the small model-check sweeps whose telemetry the report records:
/// the 2-processor fine-grain snapshot and renaming sweeps and the
/// 3-processor coarse-scan snapshot sweep, all exhaustive.
fn sweep_cells(jobs: Option<usize>) -> Vec<SweepEvent> {
    let config = match jobs {
        Some(j) => CheckConfig::default().with_jobs(j),
        None => CheckConfig::default(),
    };
    let snapshot = check_snapshot_task_with(&[1, 2], 500_000, &config).expect("snapshot sweep");
    let renaming = check_renaming_with(&[1, 2], 500_000, &config).expect("renaming sweep");
    let coarse =
        check_snapshot_task_coarse_with(&[1, 2, 3], 400_000, &config).expect("coarse sweep");
    for outcome in [&snapshot, &renaming, &coarse] {
        assert!(
            outcome.report.violation.is_none(),
            "{:?}",
            outcome.report.violation
        );
    }
    vec![snapshot.telemetry, renaming.telemetry, coarse.telemetry]
}

/// One consensus-under-chaos run with backoff arbiters: per-processor
/// attempt/backoff telemetry plus whether every processor decided.
struct BackoffCell {
    seed: u64,
    all_decided: bool,
    events: Vec<BackoffEvent>,
}

/// Threaded consensus (n = 4) under an injected stall storm with a
/// [`BackoffArbiter`] per processor — the contention-management telemetry
/// the chaos campaign (E20) studies in depth, summarized here so the
/// unified report shows attempt/backoff counters next to the deterministic
/// workloads.
fn backoff_chaos_cell(seed: u64) -> BackoffCell {
    let n = 4;
    let procs: Vec<ConsensusProcess<u32>> = (0..n as u32)
        .map(|i| {
            ConsensusProcess::new(10 + i, n).with_backoff(BackoffArbiter::new(
                seed.wrapping_mul(131).wrapping_add(u64::from(i)),
                Duration::from_micros(20),
                Duration::from_millis(5),
            ))
        })
        .collect();
    let stats: Vec<_> = procs
        .iter()
        .map(|p| p.backoff_stats().expect("arbiter attached"))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbac0_ff00);
    let wirings: Vec<Wiring> = (0..n).map(|_| Wiring::random(n, &mut rng)).collect();
    let plan = FaultPlan::new(n)
        .stall_every(1, 3, Duration::from_micros(200))
        .stall_every(2, 4, Duration::from_micros(150));
    let config = ChaosConfig::new(BUDGET).with_deadline(Duration::from_secs(120));
    let report = run_chaos(procs, wirings, n, SnapRegister::default(), &plan, &config)
        .expect("valid chaos config");
    BackoffCell {
        seed,
        all_decided: report.all_completed(),
        events: stats
            .iter()
            .enumerate()
            .map(|(i, s)| s.event_for(i))
            .collect(),
    }
}

fn backoff_cell_json(c: &BackoffCell) -> Value {
    let mut obj = Map::new();
    obj.insert("seed".into(), c.seed.to_value());
    obj.insert("all_decided".into(), Value::Bool(c.all_decided));
    obj.insert(
        "backoff_events".into(),
        Value::Array(c.events.iter().map(serde_json::to_value).collect()),
    );
    Value::Object(obj)
}

/// Runs the workload matrix plus the model-check sweeps, writes
/// `results/obs_report.json` and `results/obs_sweeps.jsonl`, and prints the
/// markdown summary. `jobs` sets the sweep worker count (`None` = available
/// parallelism); it changes only the telemetry, never the verdicts.
///
/// # Panics
///
/// Panics if a run fails or the report cannot be written.
pub fn run_report(jobs: Option<usize>) {
    let mut cells: Vec<Cell> = Vec::new();
    for n in SIZES {
        for (name, mode) in wiring_modes() {
            for seed in SEEDS {
                cells.push(snapshot_cell(n, &mode, name, seed));
                cells.push(renaming_cell(n, &mode, name, seed));
                cells.push(consensus_cell(n, &mode, name, seed));
                cells.push(double_collect_cell(n, &mode, name, seed));
            }
        }
    }

    // Model-check sweep telemetry, streamed through the probe layer.
    let sweeps = sweep_cells(jobs);
    let mut sink = JsonlSink::new(Vec::new());
    for ev in &sweeps {
        sink.on_event(&ProbeEvent::Sweep(ev.clone()));
    }

    // Consensus-under-chaos backoff telemetry (threaded; see E20 for the
    // full campaign).
    let backoff_cells: Vec<BackoffCell> = (0..3).map(backoff_chaos_cell).collect();

    // JSON artifact.
    let mut root = Map::new();
    root.insert("schema_version".into(), 3u64.to_value());
    root.insert("experiment".into(), Value::String("obs_report".into()));
    root.insert(
        "config".into(),
        Value::Object(Map::from_iter([
            ("sizes".into(), SIZES.to_vec().to_value()),
            ("seeds".into(), SEEDS.collect::<Vec<u64>>().to_value()),
            ("budget".into(), (BUDGET as u64).to_value()),
        ])),
    );
    root.insert(
        "cells".into(),
        Value::Array(cells.iter().map(cell_json).collect()),
    );
    root.insert(
        "sweeps".into(),
        Value::Array(sweeps.iter().map(serde_json::to_value).collect()),
    );
    root.insert(
        "consensus_backoff".into(),
        Value::Array(backoff_cells.iter().map(backoff_cell_json).collect()),
    );
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize report");
    fs::create_dir_all("results").expect("create results dir");
    let mut f = fs::File::create("results/obs_report.json").expect("create report");
    writeln!(f, "{json}").expect("write report");
    fs::write("results/obs_sweeps.jsonl", sink.into_inner()).expect("write sweep stream");

    // Markdown summary: aggregate each (algorithm, wiring, n) group.
    println!("== unified probe report: counters, coverings, resets ==\n");
    let mut rows = Vec::new();
    for n in SIZES {
        for (wname, _) in wiring_modes() {
            for alg in ["snapshot", "renaming", "consensus", "double_collect"] {
                let group: Vec<&Cell> = cells
                    .iter()
                    .filter(|c| c.algorithm == alg && c.wiring == wname && c.n == n)
                    .collect();
                let runs = group.len();
                let completed = group.iter().filter(|c| c.completed).count();
                let mean = |f: &dyn Fn(&RunMetrics) -> u64| -> f64 {
                    group.iter().map(|c| f(&c.metrics) as f64).sum::<f64>() / runs as f64
                };
                let peak = group
                    .iter()
                    .map(|c| c.metrics.peak_covering)
                    .max()
                    .unwrap_or(0);
                rows.push(vec![
                    alg.to_string(),
                    wname.to_string(),
                    n.to_string(),
                    format!("{completed}/{runs}"),
                    format!("{:.0}", mean(&|m| m.total_steps)),
                    format!("{:.0}", mean(&|m| m.total_reads())),
                    format!("{:.0}", mean(&|m| m.total_writes())),
                    format!(
                        "{}",
                        group.iter().map(|c| c.metrics.total_resets()).sum::<u64>()
                    ),
                    peak.to_string(),
                ]);
            }
        }
    }
    print_table(
        &[
            "algorithm",
            "wiring",
            "n",
            "completed",
            "mean steps",
            "mean reads",
            "mean writes",
            "resets",
            "peak covering",
        ],
        &rows,
    );
    // Sweep telemetry table.
    println!("\n== model-check sweep telemetry ==\n");
    #[allow(clippy::cast_precision_loss)]
    let sweep_rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            vec![
                s.check.clone(),
                s.jobs.to_string(),
                format!("{}/{}", s.combos_attempted, s.combos_total),
                s.states.to_string(),
                s.peak_combo_states.to_string(),
                format!("{:.2}", s.elapsed_ns as f64 / 1e9),
                format!("{:.0}", s.states_per_sec()),
            ]
        })
        .collect();
    print_table(
        &[
            "check",
            "jobs",
            "combos",
            "states",
            "peak combo states",
            "elapsed s",
            "states/s",
        ],
        &sweep_rows,
    );

    // Consensus-under-chaos backoff telemetry table.
    println!("\n== consensus backoff under stall storm (threaded, E20) ==\n");
    let backoff_rows: Vec<Vec<String>> = backoff_cells
        .iter()
        .map(|c| {
            let attempts: u64 = c.events.iter().map(|e| e.attempts).sum();
            let backoffs: u64 = c.events.iter().map(|e| e.backoffs).sum();
            let total_ms: f64 =
                c.events.iter().map(|e| e.total_backoff_ns).sum::<u64>() as f64 / 1e6;
            let max_ms: f64 =
                c.events.iter().map(|e| e.max_backoff_ns).max().unwrap_or(0) as f64 / 1e6;
            vec![
                c.seed.to_string(),
                if c.all_decided { "yes" } else { "NO" }.to_string(),
                attempts.to_string(),
                backoffs.to_string(),
                format!("{total_ms:.2}"),
                format!("{max_ms:.2}"),
            ]
        })
        .collect();
    print_table(
        &[
            "seed",
            "all decided",
            "attempts",
            "backoffs",
            "total backoff ms",
            "max backoff ms",
        ],
        &backoff_rows,
    );

    println!(
        "\nwrote results/obs_report.json ({} cells, {} sweeps, {} backoff runs) and results/obs_sweeps.jsonl",
        cells.len(),
        sweeps.len(),
        backoff_cells.len()
    );
    println!("peak covering = max processors simultaneously poised to write (Section 2);");
    println!("resets = snapshot levels falling to 0 after covered writes surfaced.");
}
