//! The repository benchmark: five verifier workloads, driven from outside
//! through public functions only, with end-to-end and per-layer metrics.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace [0|1]] [--out DIR]
//! benchmark compare A B
//! ```
//!
//! Run it from the repository root:
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload e3-n3`.
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit); with `--workload all`
//! (the default) the names are prefixed `<workload>/`. Exit status is 0 iff
//! every output check passed.
//!
//! # Runs
//!
//! Each workload runs in fresh child processes that re-execute this binary
//! (`--child`), one at a time, so peak RSS and allocator state never carry
//! over. A child sets up, prints `ready`, makes the one timed call, checks
//! its outputs and prints one JSON line. Untraced runs start children until
//! the next one would end after `--seconds` (at least three) and report
//! medians over them. `--seed` (default `0xf0cc5eed`) picks the inputs:
//! distinct values in 1..64, or one shared value for e24; it is also the
//! fuzz campaign seed. State counts do not depend on the labels, so every
//! checker check applies to every seed. Children get `TMPDIR=<out>/tmp`, so
//! spill files and journals stay under `--out` (default `.bench_out`).
//!
//! # End-to-end metrics
//!
//! * `wall_s` — seconds inside the timed call: time to verdict.
//! * `verified_per_s` — work the verdict covers per second: full-space
//!   states for checker workloads (`full_states_estimate` under the
//!   quotient, so a better quotient is never punished; `total_states`
//!   otherwise), oracle-checked executor steps for e19-fuzz.
//! * `peak_rss_mib` — the child's `VmHWM`.
//! * `setup_s` — spawn to the child's `ready`: process start, input
//!   drawing, and a warm-up call of the workload shrunk 20× (checked like
//!   the real one), so work moved into set-up shows here.
//!
//! Failed units against attempted ones are the result line's `failed` and
//! `attempted`. A unit is a combo for checker workloads — it fails on a
//! violation or when its state count is not the cap — and a case for fuzz,
//! which fails on a violation. A crashed child fails all its units.
//!
//! # Workloads
//!
//! Workload names and reasons, and metric names, units, directions and
//! bounds, are read from `BENCHMARK.json`, compiled in; [`spec`] adds the
//! sizes below. Sizes are scaled so one call takes 1.5–2.5 s on a 2-core
//! host and a run of `--seconds` holds several calls.
//!
//! * `e3-n3` — E3, the paper's TLC check, at n=3: coarse and per-read sweeps
//!   over all 36 combos, 20,000-state cap, one job. Deep per-combo BFS, so
//!   step, intern, hash and dedup dominate. EXPERIMENTS.md E3 runs the same
//!   sweeps at 400k/250k per combo.
//! * `e3-n3-intra2` — the same sweeps with `intra:2` and two jobs: the
//!   level-synchronized engine and `ShardedVisited` against serial on real
//!   cores.
//! * `e18-n4` — E18: n=4, coarse, all 13,824 combos at a 100-state cap
//!   (E18 uses 2,000), a two-job pool, and a checkpoint journal with the
//!   default 64 KiB sync. Per-combo fixed costs, claiming and 27,648
//!   journal records dominate.
//! * `e24-n4-quotient` — E24: `[v; 4]`, coarse, quotient, 16 KiB visited
//!   budget, 1,000-state cap (E24 uses 2,000 and 64 KiB; the budget shrinks
//!   with the cap so every class still spills its 12 shards). Ledger: 762
//!   classes, 762,000 canonical and 17,412,727 full states, 9,144 shards.
//! * `e19-fuzz` — E19: 15,000 cases (E19 runs 10,000 at 4 jobs),
//!   `CaseGen::standard({3,4,5,6}, 600)`, one job; on the default seed
//!   6,078,932 steps and 3,694 end patterns. It bypasses fa-modelcheck: the
//!   no-change control for checker work.
//!
//! Left out on purpose: threaded chaos runs (scheduler-bound, milliseconds),
//! telemetry-on runs, the renaming and consensus checks (same engine) and
//! n=5.
//!
//! # Trace
//!
//! `--trace` makes one child per workload that runs the call once untraced,
//! once inside spans, then the per-layer passes of [`layers`]. Spans are
//! recorded in memory from this benchmark's own code around public calls
//! and written to `<out>/trace/<workload>.jsonl`, one object per span:
//! `id`, `name`, `workload`, `start_ns`, `end_ns` (from the child's trace
//! epoch), `parent` (span id or null), `self_ns` (duration minus the union
//! of its children) and `counts`. The result line then carries every
//! per-layer metric; a layer a workload never enters reads 0, and every
//! time-valued metric is measured on every workload.
//!
//! The checker layer shares (`arena.*_share`, `store.*_share`,
//! `canon.share`) and `step.ns_per_call` come from a replay BFS built from
//! public calls, which spends 2–3× the explorer's own time per state
//! (`trace.closure`, printed beside the replay table): it decodes every
//! popped row and times each call on its own. They rank layers within the
//! replay; they need not carry over to `Explorer::run` shares.
//!
//! # Baseline and compare
//!
//! Every run appends its result, with a host block (nproc, CPU model,
//! rustc, git sha), to `<out>/results.jsonl`. `compare A B` reads two such
//! files (or directories holding one) and the bounds in `BENCHMARK.json`,
//! and prints per workload × end-to-end metric the median, quartiles, n and
//! a verdict: worse (moved the wrong way by more than the bound), better
//! (wins nine tenths of all pairs by more than A's IQR), within, or
//! unresolved (either side's IQR over median is wider than a third of the
//! bound, too noisy to tell a bound-sized move from noise). It exits 1 if
//! any verdict is worse. `benchmark/baseline/` holds every run made of this
//! benchmark's final code: `set1.jsonl` and `set2.jsonl` are two 10-run sets
//! (`compare benchmark/baseline/set1.jsonl benchmark/baseline/set2.jsonl`
//! reproduces the self-comparison), `traced.jsonl` the traced runs and the
//! default invocation on two seeds; `summary.json` holds medians,
//! quartiles, layer tables and the intra:2 over serial ratio. Run parent and
//! change interleaved before claiming a gain: back-to-back sets on a shared
//! host drift.

mod call;
mod child;
mod compare;
mod host;
mod layers;
mod runner;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use serde_json::{Map, Value};

use crate::spec::{workload, workloads, DEFAULT_SEED};

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed S] [--seconds T] \
                     [--trace [0|1]] [--out DIR]\n       benchmark compare A B";

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad seed {s:?}"))
}

struct Args {
    child: Option<String>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        child: None,
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--child" => parsed.child = Some(value()?),
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = parse_seed(&value()?)?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds wants a positive number")?;
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        std::process::exit(compare::compare_main(Path::new(a), Path::new(b)));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(name) = &args.child {
        let Some(w) = workload(name) else {
            eprintln!("unknown workload {name:?}");
            std::process::exit(2);
        };
        std::process::exit(child::child_main(&w, args.seed, args.trace, &args.out));
    }
    let selected = if args.workload == "all" {
        workloads()
    } else {
        match workload(&args.workload) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
                eprintln!(
                    "unknown workload {:?}; expected all or one of {names:?}",
                    args.workload
                );
                std::process::exit(2);
            }
        }
    };
    let opts = runner::Opts {
        workloads: selected,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: args.out,
    };
    let host = host::host_block();
    println!(
        "host: {}",
        serde_json::to_string(&host).expect("host serializes")
    );
    let mut results = Vec::new();
    for w in &opts.workloads {
        println!(
            "# {} (seed {:#x}, {}): {}",
            w.name,
            opts.seed,
            if opts.trace {
                "traced".to_string()
            } else {
                format!("{} s", opts.seconds)
            },
            w.why
        );
        let result = runner::run_workload(w, &opts);
        runner::record(w, &opts, &result, &host);
        results.push((w.name, result));
    }
    let _ = std::fs::remove_dir(opts.out.join("tmp"));
    let correct = results.iter().all(|(_, r)| r.correct);
    let line = match results.as_slice() {
        [(_, only)] => only.to_json(""),
        all => {
            let mut metrics = Map::new();
            for (name, r) in all {
                if let Value::Object(m) = &r.to_json(&format!("{name}/"))["metrics"] {
                    metrics.extend(m.clone());
                }
            }
            serde_json::json!({
                "correct": correct,
                "attempted": all.iter().map(|(_, r)| r.attempted).sum::<u64>(),
                "failed": all.iter().map(|(_, r)| r.failed).sum::<u64>(),
                "metrics": Value::Object(metrics),
            })
        }
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    std::process::exit(i32::from(!correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn args_accept_the_run_contract_and_the_bare_trace_flag() {
        let a = parse_args(&strings(&[
            "--workload",
            "e3-n3",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("e3-n3", 7, 10.0, false)
        );
        let b = parse_args(&strings(&["--trace", "--seed", "0xf0cc5eed"])).expect("parses");
        assert!(b.trace);
        assert_eq!(b.seed, DEFAULT_SEED);
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }
}
