//! E3 — Native replay of the paper's TLC check: the snapshot algorithm of
//! Figure 3 solves the snapshot task, exhaustively over all interleavings
//! and wirings for 2 processors, and for 3 processors up to a state cap.
//!
//! Flags:
//! * `--jobs N` — sweep worker threads (default: available parallelism);
//!   the reports are identical for any `N`, only wall-clock changes.
//! * `--strategy` — retired: the binary exits 1 and points at `--jobs N`,
//!   the only parallelism knob (`--jobs 1` is the serial sweep).
//! * `--smoke` — print only the deterministic report lines (no timing) for
//!   a reduced 2-proc fine + 3-proc coarse sweep; CI diffs this output
//!   across `--jobs` values to catch nondeterministic violation selection.
//!   Exits 0 when only the state cap cut a sweep short, 2 when a signal or
//!   the memory watchdog did.
//! * `--n4` — additionally run the 4-processor coarse-scan sweep (E18):
//!   all 13824 wiring combinations, bounded per combination.
//! * `--progress` / `--telemetry-jsonl PATH` / `--telemetry-cadence-ms N` —
//!   live telemetry plane (stderr progress line, snapshot JSONL stream);
//!   stdout stays byte-identical with telemetry on or off.
//! * `--quotient` — symmetry-quotient the sweeps (orbit-canonical visited
//!   set + combo class representatives); verdicts are unchanged, report
//!   lines gain the quotient ledger.
//! * `--visited-budget SIZE` — spill cold visited shards to a checksummed
//!   disk tier past the budget (human-readable sizes: `64MiB`, `2GB`);
//!   reports are byte-identical to in-memory.
//! * `--checkpoint-dir DIR` / `--resume` — crash-safe checkpointing:
//!   finished combo outcomes are journaled under DIR (one subdirectory per
//!   sweep), and `--resume` replays recorded outcomes instead of
//!   re-exploring. A killed run resumed any number of times produces a
//!   byte-identical report. The journal's fsync rule is fixed: after the
//!   header, every 64 KiB, and at sweep end.
//! * `--memory-limit SIZE` — RSS watchdog: at the limit, checkpoint and
//!   abort gracefully (exit 2). It never changes what is spilled or
//!   reported; `--visited-budget` is what bounds the visited set.
//!
//! Exit codes: 0 clean, 2 finished-but-incomplete (budget/abort; resumable
//! when checkpointed), 3 violation found. SIGINT/SIGTERM request a graceful
//! stop: the current records are journaled, a final checkpoint is synced,
//! and the run exits 2.

use std::sync::atomic::Ordering;

use fa_bench::{
    check_config_from_cli, cli_flag, print_table, report_exit_code, signals, sweep_summary,
    TelemetrySession, EXIT_CLEAN, EXIT_INCOMPLETE, EXIT_VIOLATION,
};
use fa_memory::Wiring;
use fa_modelcheck::checks::{
    check_snapshot_task_coarse_with, check_snapshot_task_with, check_snapshot_wait_freedom,
    TaskCheckReport,
};
use fa_modelcheck::CheckConfig;

/// Several distinct sweeps run in one invocation; each gets its own journal
/// under a per-sweep subdirectory so `--resume` always meets a journal whose
/// fingerprint matches its sweep.
fn scoped(config: &CheckConfig, tag: &str) -> CheckConfig {
    let mut config = config.clone();
    if let Some(cp) = &mut config.checkpoint {
        cp.dir = cp.dir.join(tag);
    }
    config
}

fn report_line(r: &TaskCheckReport) -> String {
    let mut line = format!(
        "combos={}/{} states={} complete={} violation={}",
        r.combos,
        r.total_combos,
        r.total_states,
        r.complete,
        r.violation.clone().unwrap_or_else(|| "none".into())
    );
    // Quotiented runs append their ledger; plain output stays byte-stable.
    if let Some(q) = &r.quotient {
        line.push_str(&format!(
            " quotient: combos_explored={} canonical_states={} full_states_est={} orbit_factor={:.2} spilled={}",
            q.combos_explored,
            q.canonical_states,
            q.full_states_estimate,
            q.orbit_factor(),
            q.spilled_shards
        ));
    }
    line
}

/// The deterministic smoke check: report lines only, byte-identical across
/// `--jobs` values. Returns the exit code: 2 when the abort flag was raised
/// (a signal or the memory watchdog cut the sweeps short), else 0 — the
/// bounded n=3 sweep is legitimately incomplete, which CI treats as
/// success here. A violation panics.
fn smoke(config: &CheckConfig) -> i32 {
    let fine =
        check_snapshot_task_with(&[1, 2], 500_000, &scoped(config, "fine_n2")).expect("check runs");
    println!("smoke fine n=2: {}", report_line(&fine.report));
    let coarse = check_snapshot_task_coarse_with(&[1, 2, 3], 50_000, &scoped(config, "coarse_n3"))
        .expect("check runs");
    println!("smoke coarse n=3: {}", report_line(&coarse.report));
    assert!(
        fine.report.violation.is_none(),
        "{:?}",
        fine.report.violation
    );
    assert!(
        coarse.report.violation.is_none(),
        "{:?}",
        coarse.report.violation
    );
    let aborted = config
        .abort
        .as_ref()
        .is_some_and(|flag| flag.load(Ordering::Relaxed));
    if aborted {
        EXIT_INCOMPLETE
    } else {
        EXIT_CLEAN
    }
}

fn main() {
    let session = TelemetrySession::from_cli("check_snapshot");
    let mut config = check_config_from_cli();
    if let Some(registry) = session.registry() {
        config = config.with_telemetry(registry);
    }
    // Graceful shutdown: SIGINT/SIGTERM raise this flag; the sweep stops at
    // the next poll, journals nothing nondeterministic, and syncs a final
    // checkpoint, so `--resume` picks up where it left off.
    config = config.with_abort(signals::install_abort_handler());
    if cli_flag("--smoke") {
        let exit = smoke(&config);
        session.finish();
        std::process::exit(exit);
    }
    // Exit-code ledger over every sweep: violation (3) dominates incomplete
    // (2) dominates clean (0); severity and numeric order agree.
    let mut exit = 0i32;

    println!("== E3: model-checking the snapshot task (Figure 3) ==\n");
    let mut rows = Vec::new();

    for inputs in [vec![1u32, 2], vec![5, 5]] {
        let tag = format!("fine_{}_{}", inputs[0], inputs[1]);
        let outcome = check_snapshot_task_with(&inputs, 2_000_000, &scoped(&config, &tag))
            .expect("check runs");
        let report = &outcome.report;
        rows.push(vec![
            format!("{inputs:?}"),
            report.combos.to_string(),
            report.total_states.to_string(),
            report.complete.to_string(),
            report.violation.clone().unwrap_or_else(|| "none".into()),
        ]);
        exit = exit.max(report_exit_code(report));
    }

    print_table(
        &["inputs", "wiring combos", "states", "complete", "violation"],
        &rows,
    );

    // 3 processors at the paper's TLC granularity (whole scans atomic,
    // Figure 3's caption): sweep over all 36 wiring combinations, bounded
    // per combination (full exhaustion needs server-scale state storage, as
    // the authors' TLC run had).
    println!("\n== 3 processors, label granularity (the TLC configuration) ==\n");
    let inputs = vec![1u32, 2, 3];
    let outcome = check_snapshot_task_coarse_with(&inputs, 400_000, &scoped(&config, "coarse_n3"))
        .expect("check runs");
    println!("inputs {:?}: {}", inputs, report_line(&outcome.report));
    println!("{}", sweep_summary(&outcome.telemetry));
    exit = exit.max(report_exit_code(&outcome.report));

    // 3 processors at per-read granularity: bounded; no violation in the
    // explored prefix.
    println!("\n== 3 processors, per-read granularity (bounded) ==\n");
    let outcome = check_snapshot_task_with(&inputs, 250_000, &scoped(&config, "fine_n3"))
        .expect("check runs");
    println!("inputs {:?}: {}", inputs, report_line(&outcome.report));
    println!("{}", sweep_summary(&outcome.telemetry));
    exit = exit.max(report_exit_code(&outcome.report));

    if cli_flag("--n4") {
        // E18: the 4-processor coarse-scan sweep, opened up by the parallel
        // sweep engine: (4!)^3 = 13824 wiring combinations, bounded per
        // combination.
        println!("\n== E18: 4 processors, label granularity, all 13824 combos (bounded) ==\n");
        let inputs = vec![1u32, 2, 3, 4];
        let outcome =
            check_snapshot_task_coarse_with(&inputs, 2_000, &scoped(&config, "coarse_n4"))
                .expect("check runs");
        println!("inputs {:?}: {}", inputs, report_line(&outcome.report));
        println!("{}", sweep_summary(&outcome.telemetry));
        exit = exit.max(report_exit_code(&outcome.report));
    }

    println!("\n== wait-freedom certificate (solo termination from every reachable state) ==\n");
    let wirings = vec![Wiring::identity(2), Wiring::from_perm(vec![1, 0]).unwrap()];
    let wf = check_snapshot_wait_freedom(&[1, 2], wirings, 2_000_000, 200).expect("runs");
    println!(
        "n=2: states={} complete={} violation={}",
        wf.total_states,
        wf.complete,
        wf.violation.clone().unwrap_or_else(|| "none".into())
    );
    if wf.violation.is_some() {
        exit = exit.max(EXIT_VIOLATION);
    }

    session.finish();
    // 0 clean / 2 incomplete / 3 violation — after the telemetry session
    // is flushed, since process::exit runs no destructors.
    std::process::exit(exit);
}
