//! E22 — live-telemetry probe overhead.
//!
//! Runs E18's sweep itself — `check_snapshot_task_coarse_with` over all
//! 13,824 wiring combos of the coarse-scan n = 4 system, 2,000 states per
//! combo, on one thread — under two arms:
//!
//! 1. **plain** — no telemetry attached (the `NoProbe` configuration);
//! 2. **live** — a shared [`MetricRegistry`] attached through
//!    `CheckConfig::with_telemetry` (`mc.*` counters, gauges, spans and the
//!    sampled dedup span) *plus* a running background [`TelemetryEmitter`]
//!    streaming snapshots to a JSONL file — the full telemetry plane a
//!    long-running campaign would carry.
//!
//! The arms are interleaved (plain, live, plain, live, ...) and each arm's
//! throughput is the best of its repetitions: run-to-run scheduler and
//! frequency noise on a shared host dwarfs the probe cost, and best-of-N
//! on interleaved runs cancels the run-order bias a single A-then-B
//! comparison bakes in.
//!
//! Two checks gate the exit status:
//!
//! * **determinism** — the per-combo state counts must be identical between
//!   arms (telemetry is out-of-band; attaching it must not change
//!   exploration);
//! * **overhead** — the live arm's states/sec must be within
//!   `MAX_OVERHEAD_PCT` of the plain arm's.
//!
//! Artifact: `results/telemetry_overhead.json`, or `--out PATH`. A
//! `--smoke` run writes `fa_telemetry_overhead_smoke.json` under the
//! system temporary directory instead, so it never overwrites the
//! committed full-run numbers.
//!
//! Usage: `cargo run --release -p fa-bench --bin telemetry_overhead
//! [-- --smoke] [--out PATH]` (`--smoke` caps each combo at 100 states, as
//! the benchmark's e18-n4 workload does; the artifact's shape is
//! unchanged).

use std::sync::Arc;
use std::time::Duration;

use fa_bench::{cli_flag, cli_value};
use fa_modelcheck::checks::{check_snapshot_task_coarse_with, CheckConfig};
use fa_obs::{MetricRegistry, TelemetryConfig, TelemetryEmitter};
use serde_json::json;

/// Acceptance threshold: the live telemetry plane may cost at most this
/// fraction of plain-sweep throughput.
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// The smoke budget: on small CI runners (often one core) the smoke arms
/// are 1-2 s and host noise alone reads as +-7% between arms, so smoke can
/// only catch *gross* regressions (an accidental per-step syscall, an
/// emitter busy-loop). The committed full-run artifact certifies the real
/// `MAX_OVERHEAD_PCT` claim.
const SMOKE_MAX_OVERHEAD_PCT: f64 = 12.0;

/// One sweep arm: per-combo state counts, elapsed seconds, states/sec.
fn sweep(max_states: usize, config: &CheckConfig) -> (Vec<usize>, f64, f64) {
    let outcome =
        check_snapshot_task_coarse_with(&[0, 1, 2, 3], max_states, config).expect("sweep runs");
    assert!(
        outcome.report.violation.is_none(),
        "{:?}",
        outcome.report.violation
    );
    let t = outcome.telemetry;
    #[allow(clippy::cast_precision_loss)]
    let elapsed = t.elapsed_ns as f64 / 1e9;
    let rate = t.states_per_sec();
    (t.per_combo_states, elapsed, rate)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = cli_flag("--smoke");
    let out_path = cli_value("--out").unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir()
                .join("fa_telemetry_overhead_smoke.json")
                .display()
                .to_string()
        } else {
            "results/telemetry_overhead.json".into()
        }
    });
    // Smoke takes the best of 5 interleaved reps: its arms last about half
    // a second, where host noise (±10%+) drowns the sub-1% probe cost and
    // flips the gate; more reps tighten the best-of max toward the
    // machine's true rate.
    let (cap, reps) = if smoke {
        (100usize, 5usize)
    } else {
        (2_000, 3)
    };

    // Live-arm plumbing: registry + a background emitter streaming
    // snapshots, exactly what `check_snapshot --n4 --telemetry-jsonl` runs.
    let registry = Arc::new(MetricRegistry::new());
    let plain = CheckConfig::serial();
    let live = CheckConfig::serial().with_telemetry(Arc::clone(&registry));
    let snap_path = std::env::temp_dir().join("fa_telemetry_overhead_snapshots.jsonl");
    let _ = std::fs::remove_file(&snap_path);
    // Cadence chosen so even the smoke sweep produces >= 10 snapshots
    // (5 reps x ~0.5 s per live arm, plus the plain arms) without the emitter thread competing
    // for CPU with the sweep on small runners — on one core a 20 ms
    // cadence alone reads as ~6-10% "overhead".
    let emitter = TelemetryEmitter::start(
        Arc::clone(&registry),
        TelemetryConfig {
            cadence: Duration::from_millis(100),
            jsonl_path: Some(snap_path.clone()),
            progress: false,
            label: "telemetry_overhead".into(),
        },
    )
    .expect("emitter starts");

    // Interleaved repetitions; best rate per arm.
    let mut per_combo_plain = Vec::new();
    let mut per_combo_live = Vec::new();
    let (mut plain_s, mut plain_rate) = (f64::INFINITY, 0.0f64);
    let (mut live_s, mut live_rate) = (f64::INFINITY, 0.0f64);
    for rep in 1..=reps {
        eprintln!("[telemetry_overhead] rep {rep}/{reps} plain sweep (cap {cap})...");
        let (pc, s, rate) = sweep(cap, &plain);
        per_combo_plain = pc;
        if rate > plain_rate {
            (plain_s, plain_rate) = (s, rate);
        }
        eprintln!("[telemetry_overhead] rep {rep}/{reps} live sweep (registry + emitter)...");
        let (pc, s, rate) = sweep(cap, &live);
        per_combo_live = pc;
        if rate > live_rate {
            (live_s, live_rate) = (s, rate);
        }
    }
    let summary = emitter.stop();
    assert!(
        summary.io_error.is_none(),
        "snapshot stream error: {:?}",
        summary.io_error
    );

    // Determinism: telemetry must be out-of-band.
    let identical = per_combo_plain == per_combo_live;
    let overhead_pct = 100.0 * (plain_rate - live_rate) / plain_rate;
    let total_states: usize = per_combo_plain.iter().sum();

    println!("== E22: live-telemetry probe overhead (coarse n=4 sweep) ==\n");
    println!(
        "plain: {total_states} states in {plain_s:.2}s ({plain_rate:.0} states/s, best of {reps})"
    );
    println!(
        "live:  {total_states} states in {live_s:.2}s ({live_rate:.0} states/s, best of {reps}), {} snapshots",
        summary.snapshots
    );
    println!("per-combo state counts identical: {identical}");
    let budget_pct = if smoke {
        SMOKE_MAX_OVERHEAD_PCT
    } else {
        MAX_OVERHEAD_PCT
    };
    println!("overhead: {overhead_pct:.2}% (budget {budget_pct:.1}%)");

    // Registry exactness: the shared counter accumulates across the live
    // repetitions, so it must equal exactly reps x the real total.
    let counted = registry.counter("mc.states_total").get();
    assert_eq!(
        counted,
        (reps * total_states) as u64,
        "mc.states_total must count every admitted state"
    );

    let doc = json!({
        "experiment": "E22",
        "smoke": smoke,
        "combos": per_combo_plain.len(),
        "max_states_per_combo": cap,
        "repetitions_per_arm": reps,
        "total_states": total_states,
        "plain_states_per_sec": plain_rate,
        "live_states_per_sec": live_rate,
        "overhead_pct": overhead_pct,
        "overhead_budget_pct": budget_pct,
        "per_combo_identical": identical,
        "telemetry_snapshots": summary.snapshots,
    });
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serialize") + "\n",
    )
    .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path}");

    let enough_snapshots = summary.snapshots >= 10;
    if !enough_snapshots {
        eprintln!(
            "FAIL: only {} telemetry snapshots (want >= 10)",
            summary.snapshots
        );
    }
    if !identical {
        eprintln!("FAIL: telemetry changed per-combo exploration");
    }
    let within_budget = overhead_pct <= budget_pct;
    if !within_budget {
        eprintln!("FAIL: overhead {overhead_pct:.2}% exceeds {budget_pct:.1}%");
    }
    std::process::exit(i32::from(!(identical && within_budget && enough_snapshots)));
}
