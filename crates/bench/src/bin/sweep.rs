//! Machine-readable experiment sweep: runs the cheap experiments (E1, E2,
//! E4, E6, E7, E8) and emits one JSON document with all observations —
//! the data behind EXPERIMENTS.md, regenerable in one command.
//!
//! Usage: `cargo run --release -p fa-bench --bin sweep > results.json`
//!
//! Honors the shared sweep flags (`--jobs`, `--quotient`,
//! `--visited-budget`, `--checkpoint-dir`/`--resume`, `--memory-limit`);
//! the retired `--strategy` exits 1 and points at `--jobs N`.
//! Exit codes: 0 clean, 2 the E3 model check finished incomplete (budget or
//! SIGINT/SIGTERM abort; resumable when checkpointed), 3 violation found.

use fa_bench::{group_inputs, report_exit_code, snapshot_step_stats, sweep_cli};
use fa_core::figure2::{expected_rows, run_figure2};
use fa_core::lower_bound::covering_demo;
use fa_core::pathology::generalized_report;
use fa_core::runner::{run_consensus_random, run_renaming_random, WiringMode};
use fa_modelcheck::checks::check_snapshot_task_with;
use serde_json::json;

fn main() {
    let mut doc = serde_json::Map::new();

    // E1: Figure 2 row match.
    let fig2_match = run_figure2()
        .map(|obs| {
            obs.iter()
                .zip(expected_rows())
                .all(|(o, e)| o.registers == e.registers && o.views == e.views)
        })
        .unwrap_or(false);
    doc.insert("e1_figure2_rows_match".into(), json!(fig2_match));

    // E2: generalized pathology across register counts.
    let e2: Vec<_> = (3..=8usize)
        .map(|m| {
            let r = generalized_report(m, 500).expect("stabilizes");
            json!({
                "registers": m,
                "stable_views": r.graph.vertices().len(),
                "unique_source": r.graph.has_unique_source(),
                "period_cycles": r.period,
            })
        })
        .collect();
    doc.insert("e2_generalized_pathology".into(), json!(e2));

    // E3: parallel wiring-sweep model check of the snapshot task (honors
    // --jobs); the report fields are deterministic, the telemetry is not.
    let (session, config) = sweep_cli("sweep");
    let e3 = check_snapshot_task_with(&[1, 2], 500_000, &config).expect("check runs");
    let t = &e3.telemetry;
    let mut e3_doc = json!({
        "jobs": t.jobs,
        "combos_attempted": t.combos_attempted,
        "combos_total": t.combos_total,
        "states": t.states,
        "peak_combo_states": t.peak_combo_states,
        "complete": e3.report.complete,
        "violation": e3.report.violation,
        "elapsed_ns": t.elapsed_ns,
        "combos_per_sec": t.combos_per_sec(),
        "states_per_sec": t.states_per_sec(),
    });
    // Quotiented runs (--quotient) add their ledger; the plain document's
    // key set is unchanged, so committed artifacts stay diffable.
    if let (Some(q), serde_json::Value::Object(m)) = (&e3.report.quotient, &mut e3_doc) {
        m.insert(
            "quotient".into(),
            json!({
                "combos_explored": q.combos_explored,
                "canonical_states": q.canonical_states,
                "full_states_estimate": q.full_states_estimate,
                "orbit_factor": q.orbit_factor(),
                "spilled_shards": q.spilled_shards,
            }),
        );
    }
    doc.insert("e3_snapshot_model_check".into(), e3_doc);

    // E4: snapshot step stats.
    let e4: Vec<_> = (2..=10usize)
        .map(|n| {
            let s = snapshot_step_stats(n, 0..30).expect("terminates");
            json!({"n": n, "runs": s.runs, "mean": s.mean, "min": s.min, "max": s.max})
        })
        .collect();
    doc.insert("e4_snapshot_steps".into(), json!(e4));

    // E6: renaming max names per group count.
    let e6: Vec<_> = (2..=6usize)
        .map(|n| {
            let mut max_name = 0usize;
            let mut max_groups = 0usize;
            for t in 0..20u64 {
                let inputs = group_inputs(n, 3.min(n), (n as u64) << 8 | t);
                let names = run_renaming_random(&inputs, t, &WiringMode::Random, 100_000_000)
                    .expect("terminates");
                let groups: std::collections::BTreeSet<u32> = inputs.iter().copied().collect();
                max_groups = max_groups.max(groups.len());
                max_name = max_name.max(names.into_iter().max().unwrap_or(0));
            }
            json!({"n": n, "max_groups": max_groups, "max_name": max_name,
                   "bound": max_groups * (max_groups + 1) / 2})
        })
        .collect();
    doc.insert("e6_renaming".into(), json!(e6));

    // E7: consensus agreement rate.
    let mut agreements = 0usize;
    let trials = 30usize;
    for seed in 0..trials as u64 {
        let res = run_consensus_random(&[3, 1, 2], seed, &WiringMode::Random, 120_000, 50_000_000)
            .expect("run");
        let d = res.decisions[0];
        if res.all_decided && res.decisions.iter().all(|x| *x == d) {
            agreements += 1;
        }
    }
    doc.insert(
        "e7_consensus_agreement".into(),
        json!({"trials": trials, "agreed": agreements}),
    );

    // E8: covering lower bound.
    let e8: Vec<_> = (2..=8usize)
        .map(|n| {
            let r = covering_demo(n).expect("runs");
            json!({"n": n, "erased": r.erased, "indistinguishable": r.indistinguishable_to_q})
        })
        .collect();
    doc.insert("e8_lower_bound".into(), json!(e8));

    let exit = report_exit_code(&e3.report);
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("json")
    );
    session.finish();
    // 0 clean / 2 incomplete / 3 violation, after the document is out.
    std::process::exit(exit);
}
