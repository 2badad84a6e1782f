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

use crate::print_table;
use fa_baselines::DoubleCollectProcess;
use fa_core::metrics::snapshot_trajectories_probed;
use fa_core::runner::{run_consensus_probed, run_renaming_probed, WiringMode};
use fa_core::View;
use fa_memory::{Executor, RandomScheduler, SharedMemory, Wiring};
use fa_obs::RunMetrics;
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

/// Runs the workload matrix, writes `results/obs_report.json` and prints
/// the markdown summary. Every run is seeded and single-threaded, so the
/// artifact is byte-identical across runs.
///
/// # Panics
///
/// Panics if a run fails or the report cannot be written.
pub fn run_report() {
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

    // JSON artifact.
    let mut root = Map::new();
    root.insert("schema_version".into(), 5u64.to_value());
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
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize report");
    fs::create_dir_all("results").expect("create results dir");
    let mut f = fs::File::create("results/obs_report.json").expect("create report");
    writeln!(f, "{json}").expect("write report");

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
    println!("\nwrote results/obs_report.json ({} cells)", cells.len());
    println!("peak covering = max processors simultaneously poised to write (Section 2);");
    println!("resets = snapshot levels falling to 0 after covered writes surfaced.");
}
