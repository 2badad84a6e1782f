//! E6 — Adaptive renaming: names fall in 1..=M(M+1)/2 where M is the number
//! of *participating groups*, names never collide across groups, and the
//! bound is adaptive (depends on participation, not on N).
//!
//! Honors the shared sweep flags (`--jobs`, `--quotient`,
//! `--visited-budget`, `--checkpoint-dir`/`--resume`, `--memory-limit`);
//! the retired `--strategy` exits 1 and points at `--jobs N`.
//! Exit codes: 0 clean, 2 the model check finished incomplete (budget or
//! SIGINT/SIGTERM abort; resumable when checkpointed), 3 violation found.

use std::collections::BTreeSet;

use fa_bench::{
    check_config_from_cli, group_inputs, print_table, report_exit_code, signals, sweep_summary,
};
use fa_core::runner::{run_renaming_random, WiringMode};
use fa_modelcheck::checks::check_renaming_with;

fn main() {
    println!("== E6: adaptive renaming with M(M+1)/2 names ==\n");
    let mut rows = Vec::new();
    for n in 2..=8usize {
        for g in 1..=n.min(4) {
            let trials = 40;
            let mut max_name = 0usize;
            let mut ok = true;
            let mut max_groups = 0usize;
            for t in 0..trials {
                let inputs = group_inputs(n, g, (n as u64) << 24 | (g as u64) << 16 | t);
                let names = run_renaming_random(&inputs, t, &WiringMode::Random, 50_000_000)
                    .expect("renaming terminates");
                let groups: BTreeSet<u32> = inputs.iter().copied().collect();
                let m = groups.len();
                max_groups = max_groups.max(m);
                let bound = m * (m + 1) / 2;
                for (i, &a) in names.iter().enumerate() {
                    max_name = max_name.max(a);
                    ok &= a >= 1 && a <= bound;
                    for (j, &b) in names.iter().enumerate() {
                        if i != j && inputs[i] != inputs[j] {
                            ok &= a != b;
                        }
                    }
                }
            }
            let bound = max_groups * (max_groups + 1) / 2;
            rows.push(vec![
                n.to_string(),
                max_groups.to_string(),
                trials.to_string(),
                max_name.to_string(),
                bound.to_string(),
                ok.to_string(),
            ]);
            assert!(ok, "renaming violated at n={n} g={g}");
        }
    }
    print_table(
        &[
            "n procs",
            "max groups M",
            "trials",
            "max name seen",
            "bound M(M+1)/2",
            "all valid",
        ],
        &rows,
    );
    println!("\nNames never exceed M(M+1)/2 and never collide across groups;");
    println!("processors of the same group may share a name (allowed by group solvability).");

    // Exhaustive complement to the random trials above: model-check the
    // renaming algorithm over every interleaving and wiring combination
    // (mod relabeling) at small scope, honoring --jobs.
    println!("\n== exhaustive model check over all wirings (n=2) ==\n");
    let session = fa_bench::TelemetrySession::from_cli("renaming_bound");
    let mut config = check_config_from_cli();
    if let Some(registry) = session.registry() {
        config = config.with_telemetry(registry);
    }
    config = config.with_abort(signals::install_abort_handler());
    let outcome = check_renaming_with(&[1, 2], 500_000, &config).expect("check runs");
    let report = &outcome.report;
    println!(
        "combos={}/{} states={} complete={} violation={}",
        report.combos,
        report.total_combos,
        report.total_states,
        report.complete,
        report.violation.clone().unwrap_or_else(|| "none".into())
    );
    println!("{}", sweep_summary(&outcome.telemetry));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    session.finish();
    // 0 clean / 2 incomplete-by-budget / 3 violation.
    std::process::exit(report_exit_code(report));
}
