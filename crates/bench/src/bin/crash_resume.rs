//! E25 — crash/resume soak harness: proves the checkpoint journal makes
//! sweeps crash-safe by actually crashing them.
//!
//! The harness re-executes itself (`--child` mode) as real sweep processes,
//! kills them mid-flight — SIGKILL after a seeded random delay, or a
//! deterministic `FA_CRASH_AT=site@N` fault-injection site inside the
//! journal/explorer/spill write paths — resumes with `--resume`, and
//! requires every resumed chain to end in a report *byte-identical* to an
//! uninterrupted baseline of the same arm.
//!
//! Two arms per campaign: a plain sweep, and a `--quotient
//! --visited-budget` sweep whose spill shards live under the checkpoint dir
//! (so recovery also has stale shards to clean). Per arm the harness also
//! measures checkpoint overhead (checkpointed uninterrupted run vs. plain
//! run, best-of-K wall clock); full mode gates the *plain* arm at 5%. The
//! spill arm is reported but not gated: its shards are never fsync'd, so
//! checkpointing adds the same journal to it, but its wall clock is
//! dominated by writing and re-reading ~390 k spilled shards, and its
//! uninterrupted n=4 baseline alone spreads 3.4–5.1 s over 18 runs on a
//! 2-vCPU host, far wider than a 5% gate can resolve.
//!
//! * `--smoke` — CI shape: n=3 coarse sweep, 3 kills per arm, overhead
//!   reported but not gated (shared-runner wall clocks are noisy).
//! * full (default) — symmetric n=4 coarse sweep, ≥10 kills per arm (≥20
//!   total), overhead gate enforced, document to `results/crash_resume.json`
//!   plus per-recovery `CheckpointEvent`s to
//!   `results/crash_resume_events.jsonl`.
//! * `--kills N` — total kill budget across both arms (default 20, smoke 6).
//! * `--seed S` — kill-schedule seed (default 0xE25).
//! * `--scratch DIR` — where checkpoint dirs and report files live (default
//!   under the system temp dir; kept on failure so CI can upload it).
//!
//! Exit codes: 0 every chain byte-identical and all gates passed; 1 any
//! recovery failure, report divergence, violation, or (full mode) overhead
//! breach.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fa_bench::{check_config_from_cli, cli_flag, cli_value, report_exit_code, rng, signals};
use fa_modelcheck::checkpoint::{CRASH_ENV, JOURNAL_FILE};
use fa_modelcheck::checks::check_snapshot_task_coarse_with;
use fa_modelcheck::inspect_journal;
use fa_obs::{CheckpointAction, CheckpointEvent, JsonlSink, Probe, ProbeEvent};
use rand::Rng;
use serde_json::json;

/// One sweep arm: a tag for file names plus the extra child flags.
struct Arm {
    name: &'static str,
    extra: &'static [&'static str],
}

const ARMS: &[Arm] = &[
    Arm {
        name: "plain",
        extra: &[],
    },
    Arm {
        name: "spill",
        extra: &["--quotient", "--visited-budget", "4KiB"],
    },
];

/// What the parent does to one child process.
enum Plan {
    /// Let it run to completion.
    Run,
    /// SIGKILL after this delay (no-op if the child beats the clock).
    Timed(Duration),
    /// Arm `FA_CRASH_AT` so the child aborts itself at a write boundary.
    CrashAt(String),
}

/// Outcome of one child process, normal or violent.
struct ChildRun {
    /// Exit code when the child exited normally; `None` when a signal
    /// (our SIGKILL, or its own `FA_CRASH_AT` abort) took it down.
    code: Option<i32>,
    stderr: String,
    elapsed: Duration,
}

fn main() {
    if let Some(arm) = cli_value("--child") {
        child_main(&arm);
    }
    parent_main();
}

/// Child mode: one real sweep process. Reads the shared sweep flags
/// (`--jobs`, `--quotient`, `--visited-budget`, `--checkpoint-dir`,
/// `--checkpoint-every`, `--resume`) exactly like the sweep binaries do,
/// writes the canonical report text to `--report-out`, and exits with the
/// report's exit code.
fn child_main(arm: &str) -> ! {
    let cap: usize = cli_value("--cap")
        .and_then(|v| v.parse().ok())
        .expect("--cap STATES required in --child mode");
    let out = cli_value("--report-out").expect("--report-out FILE required in --child mode");
    let inputs: Vec<u32> = match arm {
        "n3" => vec![1, 2, 3],
        "n4" => vec![1, 2, 3, 4],
        other => panic!("unknown --child arm {other:?} (expected n3 or n4)"),
    };
    let config = check_config_from_cli().with_abort(signals::install_abort_handler());
    let outcome = check_snapshot_task_coarse_with(&inputs, cap, &config).expect("check runs");
    // The byte-identity contract covers the full deterministic surface:
    // the report itself plus the per-combo state counts (combo order is
    // canonical, so a resumed run that re-explored the wrong combos, or
    // replayed one twice, diverges here even if the totals happen to agree).
    let text = format!(
        "{:?}\nper_combo_states={:?}\n",
        outcome.report, outcome.telemetry.per_combo_states
    );
    fs::write(&out, text).expect("write report file");
    std::process::exit(report_exit_code(&outcome.report));
}

fn parent_main() {
    let smoke = cli_flag("--smoke");
    let seed: u64 = cli_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xE25);
    let total_kills: usize = cli_value("--kills")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 6 } else { 20 });
    let per_arm = total_kills.div_ceil(ARMS.len());
    let (arm_shape, cap, timing_runs) = if smoke {
        ("n3", 50_000usize, 1usize)
    } else {
        ("n4", 500, 2)
    };
    let scratch = cli_value("--scratch").map_or_else(
        || std::env::temp_dir().join(format!("fa_crash_resume_{}", std::process::id())),
        PathBuf::from,
    );
    fs::create_dir_all(&scratch).expect("create scratch dir");
    let exe = std::env::current_exe().expect("current_exe");
    let mut r = rng(seed);
    let mut failures: Vec<String> = Vec::new();
    let mut events: JsonlSink<Vec<u8>> = JsonlSink::new(Vec::new());
    let mut arm_docs = Vec::new();

    println!(
        "== E25: crash/resume soak ({} {} cap={} kills>={} seed={:#x}) ==\n",
        if smoke { "smoke" } else { "full" },
        arm_shape,
        cap,
        total_kills,
        seed
    );

    for arm in ARMS {
        println!("-- arm {} {:?} --", arm.name, arm.extra);

        // Uninterrupted, uncheckpointed baseline: reference bytes + clock.
        let base_report = scratch.join(format!("{}_baseline.report", arm.name));
        let mut base_best = Duration::MAX;
        let mut base_code = 0;
        for _ in 0..timing_runs {
            let run = run_child(
                &exe,
                &child_args(arm_shape, cap, &base_report, arm.extra, None),
                None,
                &Plan::Run,
            );
            match run.code {
                Some(c) if c == 0 || c == 2 => base_code = c,
                other => die(&format!(
                    "{}: baseline child failed (status {other:?}): {}",
                    arm.name, run.stderr
                )),
            }
            base_best = base_best.min(run.elapsed);
        }
        let baseline = fs::read(&base_report).expect("read baseline report");
        println!(
            "baseline: exit {} in {:.2}s",
            base_code,
            base_best.as_secs_f64()
        );

        // Checkpointed but uninterrupted: overhead clock + identity check.
        let ckpt_report = scratch.join(format!("{}_ckpt.report", arm.name));
        let mut ckpt_best = Duration::MAX;
        for i in 0..timing_runs {
            let dir = scratch.join(format!("{}_overhead{}", arm.name, i));
            let run = run_child(
                &exe,
                &child_args(arm_shape, cap, &ckpt_report, arm.extra, Some((&dir, false))),
                None,
                &Plan::Run,
            );
            if run.code != Some(base_code) {
                die(&format!(
                    "{}: checkpointed child exited {:?}, baseline {base_code}: {}",
                    arm.name, run.code, run.stderr
                ));
            }
            ckpt_best = ckpt_best.min(run.elapsed);
        }
        if fs::read(&ckpt_report).expect("read ckpt report") != baseline {
            failures.push(format!(
                "{}: checkpointed uninterrupted report diverges from baseline",
                arm.name
            ));
        }
        let overhead_pct = (ckpt_best.as_secs_f64() / base_best.as_secs_f64() - 1.0) * 100.0;
        println!(
            "checkpointed: {:.2}s (overhead {:+.2}%)",
            ckpt_best.as_secs_f64(),
            overhead_pct
        );

        // Kill/resume chains: crash the child until the arm's kill budget is
        // spent, resuming each chain until it finishes, then diff.
        let mut kills = 0usize;
        let mut chains = 0usize;
        let mut kill_seq = 0usize;
        let mut recoveries = 0usize;
        let mut truncated_total = 0u64;
        let mut pass = 0usize;
        while kills < per_arm && pass < per_arm * 3 + 5 {
            pass += 1;
            let dir = scratch.join(format!("{}_pass{}", arm.name, pass));
            let report = scratch.join(format!("{}_pass{}.report", arm.name, pass));
            let mut resume = false;
            loop {
                let plan = if kills < per_arm {
                    next_plan(&mut r, kill_seq, base_best, !arm.extra.is_empty())
                } else {
                    Plan::Run
                };
                let env = match &plan {
                    Plan::CrashAt(spec) => Some((CRASH_ENV, spec.clone())),
                    _ => None,
                };
                let run = run_child(
                    &exe,
                    &child_args(arm_shape, cap, &report, arm.extra, Some((&dir, resume))),
                    env,
                    &plan,
                );
                match run.code {
                    Some(c) if c == base_code => {
                        if fs::read(&report).expect("read chain report") != baseline {
                            failures.push(format!(
                                "{}: pass {pass} resumed report diverges from baseline \
                                 after {kills} kills so far",
                                arm.name
                            ));
                        }
                        chains += 1;
                        break;
                    }
                    Some(3) => {
                        failures.push(format!(
                            "{}: pass {pass} found a violation the baseline did not",
                            arm.name
                        ));
                        break;
                    }
                    Some(c) => {
                        failures.push(format!(
                            "{}: pass {pass} child exited {c} (recovery failure?): {}",
                            arm.name, run.stderr
                        ));
                        break;
                    }
                    None => {
                        // Killed — by our SIGKILL or its own FA_CRASH_AT
                        // abort. Inspect what the journal preserved, then
                        // resume the chain.
                        kills += 1;
                        kill_seq += 1;
                        resume = true;
                        if dir.join(JOURNAL_FILE).exists() {
                            match inspect_journal(&dir) {
                                Ok(rec) => {
                                    recoveries += 1;
                                    truncated_total += rec.truncated_bytes;
                                    let bytes = fs::metadata(dir.join(JOURNAL_FILE))
                                        .map(|m| m.len())
                                        .unwrap_or(0);
                                    events.on_event(&ProbeEvent::Checkpoint(CheckpointEvent {
                                        action: CheckpointAction::Recovered,
                                        combo: None,
                                        combos_recorded: rec.completed.len() as u64,
                                        journal_bytes: bytes,
                                        truncated_bytes: rec.truncated_bytes,
                                    }));
                                }
                                Err(e) => failures.push(format!(
                                    "{}: pass {pass} journal unreadable after kill: {e}",
                                    arm.name
                                )),
                            }
                        }
                    }
                }
            }
        }
        println!(
            "kills={kills} chains={chains} recoveries={recoveries} truncated_bytes={truncated_total}\n"
        );
        if kills < per_arm {
            failures.push(format!(
                "{}: only landed {kills}/{per_arm} kills in {pass} passes \
                 (sweep too fast for the kill schedule?)",
                arm.name
            ));
        }
        // The overhead gate applies to the plain arm only: the spill arm's
        // wall clock is dominated by shard I/O, whose run-to-run spread
        // (about ±20% on 2 vCPUs) swamps the journal's cost.
        if !smoke && arm.extra.is_empty() && overhead_pct > 5.0 {
            failures.push(format!(
                "{}: checkpoint overhead {overhead_pct:.2}% exceeds the 5% gate",
                arm.name
            ));
        }
        arm_docs.push(json!({
            "arm": arm.name,
            "extra_flags": arm.extra,
            "baseline_exit": base_code,
            "baseline_secs": base_best.as_secs_f64(),
            "checkpointed_secs": ckpt_best.as_secs_f64(),
            "overhead_pct": overhead_pct,
            "kills": kills,
            "chains_completed": chains,
            "recoveries_inspected": recoveries,
            "truncated_bytes_total": truncated_total,
        }));
    }

    let doc = json!({
        "experiment": "e25_crash_resume",
        "mode": if smoke { "smoke" } else { "full" },
        "shape": arm_shape,
        "cap": cap,
        "seed": seed,
        "kills_requested": total_kills,
        "arms": arm_docs,
        "failures": failures,
    });
    fs::create_dir_all("results").expect("create results dir");
    let (doc_path, events_path) = if smoke {
        (
            "results/crash_resume_smoke.json",
            "results/crash_resume_smoke_events.jsonl",
        )
    } else {
        (
            "results/crash_resume.json",
            "results/crash_resume_events.jsonl",
        )
    };
    fs::write(doc_path, serde_json::to_string_pretty(&doc).expect("json")).expect("write results");
    let stream = events.finish().expect("event stream intact");
    fs::write(events_path, stream).expect("write events");
    println!("wrote {doc_path} and {events_path}");

    if failures.is_empty() {
        // Nothing diverged: the scratch checkpoints have served their
        // purpose. Keep them only for post-mortems.
        let _ = fs::remove_dir_all(&scratch);
        println!("e25: OK — every resumed chain byte-identical to its baseline");
    } else {
        for f in &failures {
            eprintln!("e25 FAILURE: {f}");
        }
        eprintln!("scratch kept for inspection: {}", scratch.display());
        std::process::exit(1);
    }
}

/// Assembles the child argv for one run of the arm.
fn child_args(
    shape: &str,
    cap: usize,
    report_out: &Path,
    extra: &[&str],
    checkpoint: Option<(&Path, bool)>,
) -> Vec<String> {
    let mut args = vec![
        "--child".into(),
        shape.into(),
        "--cap".into(),
        cap.to_string(),
        "--report-out".into(),
        report_out.display().to_string(),
        "--jobs".into(),
        "2".into(),
    ];
    args.extend(extra.iter().map(|s| (*s).into()));
    if let Some((dir, resume)) = checkpoint {
        args.push("--checkpoint-dir".into());
        args.push(dir.display().to_string());
        // A small sync interval so SIGKILL rarely outruns the fsync cadence
        // and resumes actually have records to replay.
        args.push("--checkpoint-every".into());
        args.push("1KiB".into());
        if resume {
            args.push("--resume".into());
        }
    }
    args
}

/// Picks how to kill the `k`-th child: even turns get a seeded SIGKILL
/// delay scaled to the baseline wall clock, odd turns cycle through the
/// deterministic `FA_CRASH_AT` sites (spill arms also crash as a shard
/// spills).
fn next_plan(r: &mut impl Rng, k: usize, baseline: Duration, spill: bool) -> Plan {
    if k % 2 == 0 {
        let ms = baseline.as_millis().clamp(50, 600_000) as u64;
        let lo = (ms / 20).max(2);
        let hi = (ms * 3 / 5).max(lo + 1);
        Plan::Timed(Duration::from_millis(r.gen_range(lo..hi)))
    } else {
        let sites: &[&str] = if spill {
            &[
                "journal.done",
                "explorer.poll",
                "store.spill",
                "journal.sync",
            ]
        } else {
            &["journal.done", "explorer.poll", "journal.sync"]
        };
        let site = sites[(k / 2) % sites.len()];
        let hit = match site {
            "journal.sync" => 1 + r.gen_range(0..3u32),
            "store.spill" => 1 + r.gen_range(0..5u32),
            _ => 1 + r.gen_range(0..60u32),
        };
        Plan::CrashAt(format!("{site}@{hit}"))
    }
}

/// Spawns one child, applies the kill plan, and collects its fate. Stdout
/// is discarded (the report file is the contract); stderr is kept for
/// failure messages.
fn run_child(exe: &Path, args: &[String], env: Option<(&str, String)>, plan: &Plan) -> ChildRun {
    let mut cmd = Command::new(exe);
    cmd.args(args).stdout(Stdio::null()).stderr(Stdio::piped());
    cmd.env_remove(CRASH_ENV);
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    let start = Instant::now();
    let mut child = cmd.spawn().expect("spawn child sweep");
    if let Plan::Timed(delay) = plan {
        std::thread::sleep(*delay);
        if child.try_wait().expect("poll child").is_none() {
            let _ = child.kill();
        }
    }
    let out = child.wait_with_output().expect("collect child");
    ChildRun {
        code: out.status.code(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        elapsed: start.elapsed(),
    }
}

/// Unrecoverable harness setup failure (as opposed to a recorded arm
/// failure): print and exit 1 immediately.
fn die(msg: &str) -> ! {
    eprintln!("e25 FATAL: {msg}");
    std::process::exit(1);
}
