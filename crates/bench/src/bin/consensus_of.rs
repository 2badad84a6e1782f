//! E7 — Obstruction-free consensus: agreement and validity always hold;
//! termination holds whenever contention subsides (solo tail), and solo runs
//! decide in a constant number of snapshot rounds.
//!
//! Honors the shared sweep flags (`--jobs`, `--quotient`,
//! `--visited-budget`, `--checkpoint-dir`/`--resume`, `--memory-limit`);
//! the retired `--strategy` exits 1 and points at `--jobs N`.
//! Exit codes: 0 clean, 2 incomplete (the safety check is depth-bounded by
//! design — the timestamp space is unbounded — so this is the expected code
//! for a healthy run), 3 violation found.

use fa_bench::{print_table, report_exit_code, sweep_cli, sweep_summary};
use fa_core::runner::{run_consensus_random, WiringMode};
use fa_core::{ConsensusProcess, SnapRegister};
use fa_memory::{Executor, ProcId, SharedMemory, Wiring};
use fa_modelcheck::checks::check_consensus_safety_with;

fn main() {
    println!("== E7: obstruction-free consensus (Figure 5) ==\n");

    // Part 1: agreement/validity under contention + solo tail.
    let mut rows = Vec::new();
    for n in 2..=6usize {
        let trials = 30;
        let mut agreed = 0usize;
        let mut decided_in_contention = 0usize;
        for seed in 0..trials {
            let inputs: Vec<u32> = (0..n as u32).map(|i| 10 * (i + 1)).collect();
            let res = run_consensus_random(
                &inputs,
                seed as u64,
                &WiringMode::Random,
                60_000 * n,
                10_000_000,
            )
            .expect("consensus run");
            assert!(res.all_decided, "solo tail must force a decision");
            let d0 = res.decisions[0].expect("decided");
            let all_same = res.decisions.iter().all(|d| d.unwrap() == d0);
            assert!(all_same, "agreement violated at n={n} seed={seed}");
            assert!(
                inputs.contains(&d0),
                "validity violated at n={n} seed={seed}"
            );
            agreed += usize::from(all_same);
            // Did the random phase alone decide?
            if res.total_steps < 60_000 * n {
                decided_in_contention += 1;
            }
        }
        rows.push(vec![
            n.to_string(),
            trials.to_string(),
            agreed.to_string(),
            decided_in_contention.to_string(),
        ]);
    }
    print_table(
        &[
            "n",
            "trials",
            "agreement+validity",
            "decided before solo tail",
        ],
        &rows,
    );

    // Part 2: obstruction-freedom — solo runner decides in few rounds.
    println!("\nsolo termination (obstruction-freedom):");
    let mut rows = Vec::new();
    for n in 2..=6usize {
        let inputs: Vec<u32> = (0..n as u32).collect();
        let procs: Vec<ConsensusProcess<u32>> = inputs
            .iter()
            .map(|&x| ConsensusProcess::new(x, n))
            .collect();
        let memory = SharedMemory::new(n, SnapRegister::default(), vec![Wiring::identity(n); n])
            .expect("memory");
        let mut exec = Executor::new(procs, memory).expect("executor");
        exec.run_solo(ProcId(0), 50_000_000).expect("solo run");
        assert!(exec.is_halted(ProcId(0)));
        let rounds = exec.process(ProcId(0)).rounds();
        rows.push(vec![
            n.to_string(),
            exec.first_output(ProcId(0)).copied().unwrap().to_string(),
            rounds.to_string(),
            exec.steps_taken(ProcId(0)).to_string(),
        ]);
    }
    print_table(&["n", "decision", "snapshot rounds", "steps"], &rows);
    println!("\nA solo processor decides its own value within a constant number of");
    println!("long-lived-snapshot rounds (its timestamp leads by 2 after ~1 re-invocation).");

    // Part 3: exhaustive safety check (agreement + validity) over every
    // interleaving and wiring combination, bounded in depth because the
    // timestamp space is unbounded. Honors --jobs.
    println!("\n== exhaustive safety model check, bounded depth (n=2) ==\n");
    let (session, config) = sweep_cli("consensus_of");
    let outcome = check_consensus_safety_with(&[1, 2], 600_000, 200, &config).expect("check runs");
    let report = &outcome.report;
    println!(
        "combos={}/{} states={} depth-bounded-complete={} violation={}",
        report.combos,
        report.total_combos,
        report.total_states,
        report.complete,
        report.violation.clone().unwrap_or_else(|| "none".into())
    );
    println!("{}", sweep_summary(&outcome.telemetry));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    session.finish();
    // The depth bound makes `complete: false` the healthy outcome here; the
    // exit code still reports it honestly so harnesses can tell the three
    // cases apart.
    std::process::exit(report_exit_code(report));
}
