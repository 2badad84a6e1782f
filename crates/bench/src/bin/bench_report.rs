//! E21: the value-plane benchmark report.
//!
//! Measures the interned value plane (bitmask `View` fast path + `Arc`
//! register cells + interned model-checker keys) against the pre-interning
//! baseline (`Opaque` values, which pin `View` to its `BTreeSet` fallback),
//! and records the repo's perf trajectory in two artifacts:
//!
//! * `results/bench_report.json` — the full measurement document;
//! * `BENCH_value_plane.json` (repo root) — the headline numbers.
//!
//! Three sections:
//!
//! 1. **micro** — clone+union and eq+hash on views of 8..64 values, ns/op
//!    per representation and the speedup ratio;
//! 2. **scan** — end-to-end snapshot runs (the write–scan hot path) at
//!    n ∈ {4, 6}, steps/sec per representation;
//! 3. **sweep** — an E18-style coarse-scan model-check sweep at n = 4
//!    (bounded states per wiring combo), states/sec per representation,
//!    plus determinism checks: the per-combo state counts must be
//!    identical between representations (the refactor must not change
//!    exploration), and two runs of the new representation must serialize
//!    byte-identically.
//! 4. **E24 (symmetry quotient)** — the E18-class fully-symmetric coarse
//!    sweep run under `--quotient` semantics: records the measured orbit
//!    factor (estimated full-space states over canonical states explored),
//!    checks quotiented reruns render byte-identically, and *attempts* the
//!    n = 5 scope — far past any full sweep at (5!)⁴ ≈ 2·10⁸ combos — as a
//!    capped single-combo exploration pushed through the tiered visited
//!    store with a deliberately tiny memory budget.
//! 5. **E26 (intra-combo parallelism)** — the sweep driven through the
//!    worker crew (`--strategy intra`) with one worker per core: per-combo
//!    counts must match the serial run exactly (the level-commit
//!    determinism argument, DESIGN §15), and on a ≥4-core box the
//!    best-of-N states/s must reach ≥1.5× the serial-per-combo rate (on
//!    smaller hosts the ratio is recorded but not gated).
//!
//! Exits nonzero if any determinism check fails.
//!
//! Usage: `cargo run --release -p fa-bench --bin bench_report [-- --smoke]`
//! (`--smoke` shrinks every budget for CI; artifact shapes are unchanged).

use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use fa_bench::{cli_flag, cli_value, Opaque};
use fa_core::{SnapshotProcess, View};
use fa_memory::{Executor, SharedMemory, Wiring};
use fa_modelcheck::checks::{check_snapshot_task_coarse_with, CheckConfig};
use fa_modelcheck::wirings::ComboTable;
use fa_modelcheck::Explorer;
use serde_json::json;

/// One micro measurement: nanoseconds per operation for both
/// representations, and how many times faster the bitmask path is.
struct Micro {
    name: &'static str,
    n_values: u32,
    bitmask_ns: f64,
    fallback_ns: f64,
}

impl Micro {
    fn speedup(&self) -> f64 {
        self.fallback_ns / self.bitmask_ns
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "op": self.name,
            "values": self.n_values,
            "bitmask_ns_per_op": self.bitmask_ns,
            "fallback_ns_per_op": self.fallback_ns,
            "speedup": self.speedup(),
        })
    }
}

fn time_per_op<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    // One warmup pass keeps first-touch allocation out of the measurement.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn micro_clone_union(iters: u32, n: u32) -> Micro {
    let (a, b): (View<u32>, View<u32>) = ((0..n / 2 + 1).collect(), (n / 2..n).collect());
    let bitmask_ns = time_per_op(iters, || {
        let mut v = black_box(&a).clone();
        v.union_with(black_box(&b));
        black_box(&v);
    });
    let (ao, bo): (View<Opaque>, View<Opaque>) = (
        (0..n / 2 + 1).map(Opaque).collect(),
        (n / 2..n).map(Opaque).collect(),
    );
    let fallback_ns = time_per_op(iters, || {
        let mut v = black_box(&ao).clone();
        v.union_with(black_box(&bo));
        black_box(&v);
    });
    Micro {
        name: "clone_union",
        n_values: n,
        bitmask_ns,
        fallback_ns,
    }
}

fn micro_eq_hash(iters: u32, n: u32) -> Micro {
    fn eq_hash<V: fa_core::ViewValue + Hash>(a: &View<V>, b: &View<V>) -> bool {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        black_box(a).hash(&mut h);
        black_box(a) == black_box(b) && h.finish() != 0
    }
    let (a, b): (View<u32>, View<u32>) = ((0..n).collect(), (0..n).collect());
    let bitmask_ns = time_per_op(iters, || {
        black_box(eq_hash(&a, &b));
    });
    let (ao, bo): (View<Opaque>, View<Opaque>) =
        ((0..n).map(Opaque).collect(), (0..n).map(Opaque).collect());
    let fallback_ns = time_per_op(iters, || {
        black_box(eq_hash(&ao, &bo));
    });
    Micro {
        name: "eq_hash",
        n_values: n,
        bitmask_ns,
        fallback_ns,
    }
}

/// Steps/sec of a full snapshot run (round-robin, cyclic-shift wirings):
/// the write–scan hot path, dominated by register writes and scan unions.
fn scan_throughput<V, F>(n: usize, reps: u32, mk: F) -> (usize, f64)
where
    V: fa_core::ViewValue + Eq + std::hash::Hash + std::fmt::Debug + Default,
    F: Fn(u32) -> SnapshotProcess<V>,
{
    let mut steps = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        let procs: Vec<SnapshotProcess<V>> = (0..n as u32).map(&mk).collect();
        let wirings: Vec<Wiring> = (0..n).map(|s| Wiring::cyclic_shift(n, s)).collect();
        let memory = SharedMemory::new(n, Default::default(), wirings).expect("memory");
        let mut exec = Executor::new(procs, memory).expect("executor");
        exec.run_round_robin(1_000_000).expect("terminates");
        steps += exec.total_steps();
    }
    let per_sec = steps as f64 / start.elapsed().as_secs_f64();
    (steps, per_sec)
}

/// How a [`sweep`] runs each combo: serially, or with N intra-combo
/// workers (the E26 arm).
#[derive(Clone, Copy)]
enum Engine {
    Serial,
    Intra(usize),
}

/// One E18-style sweep: coarse-scan exploration of the first `combos`
/// wiring combinations at n = 4, bounded per combo. Returns the per-combo
/// state counts and the throughput.
fn sweep<V, F>(combos: usize, max_states: usize, engine: Engine, mk: F) -> (Vec<usize>, f64, f64)
where
    V: fa_core::ViewValue + Eq + std::hash::Hash + std::fmt::Debug + Default,
    V: Send + Sync,
    F: Fn(u32) -> SnapshotProcess<V>,
{
    let n = 4usize;
    let table = ComboTable::new(n, n);
    let count = combos.min(table.len());
    let mut per_combo = Vec::with_capacity(count);
    let start = Instant::now();
    for i in 0..count {
        let procs: Vec<SnapshotProcess<V>> = (0..n as u32).map(&mk).collect();
        let explorer = Explorer::new(procs, n, Default::default(), table.combo(i))
            .with_coarse_scans()
            .with_max_states(max_states);
        let report = match engine {
            Engine::Serial => explorer.run(|_| Ok(())),
            Engine::Intra(workers) => explorer.run_intra(|_| Ok(()), workers),
        };
        per_combo.push(report.states);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total: usize = per_combo.iter().sum();
    (per_combo, elapsed, total as f64 / elapsed)
}

/// Runs [`sweep`] `reps` times and keeps the fastest rep. Throughput gates
/// compare against committed baselines, and a single short rep on a noisy
/// (virtualized, shared) host can easily read 30-50% low; the max over a few
/// reps is a far more stable estimate of the machine's true rate. Every rep
/// must visit identical per-combo state counts — a free determinism check.
fn sweep_best_of<V, F>(
    reps: usize,
    combos: usize,
    max_states: usize,
    engine: Engine,
    mk: F,
) -> (Vec<usize>, f64, f64)
where
    V: fa_core::ViewValue + Eq + std::hash::Hash + std::fmt::Debug + Default,
    V: Send + Sync,
    F: Fn(u32) -> SnapshotProcess<V>,
{
    let mut best: Option<(Vec<usize>, f64, f64)> = None;
    for _ in 0..reps.max(1) {
        let (per_combo, elapsed, rate) = sweep(combos, max_states, engine, &mk);
        match &best {
            Some((prev, _, prev_rate)) => {
                assert_eq!(prev, &per_combo, "sweep reps diverged");
                if rate > *prev_rate {
                    best = Some((per_combo, elapsed, rate));
                }
            }
            None => best = Some((per_combo, elapsed, rate)),
        }
    }
    best.expect("at least one rep")
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = cli_flag("--smoke");
    let out_path = cli_value("--out").unwrap_or_else(|| "results/bench_report.json".into());
    let root_path = cli_value("--root-out").unwrap_or_else(|| "BENCH_value_plane.json".into());

    let (micro_iters, scan_reps, sweep_combos, sweep_cap, sweep_reps) = if smoke {
        (20_000u32, 3u32, 96usize, 2_000usize, 3usize)
    } else {
        (200_000, 10, 1_024, 2_000, 2)
    };

    // 1. Micro: the view operations of the scan loop.
    eprintln!("[bench_report] micro ({micro_iters} iters/op)...");
    let micros = [
        micro_clone_union(micro_iters, 8),
        micro_clone_union(micro_iters, 32),
        micro_clone_union(micro_iters, 64),
        micro_eq_hash(micro_iters, 8),
        micro_eq_hash(micro_iters, 64),
    ];
    for m in &micros {
        eprintln!(
            "  {} n={}: bitmask {:.1} ns, fallback {:.1} ns ({:.1}x)",
            m.name,
            m.n_values,
            m.bitmask_ns,
            m.fallback_ns,
            m.speedup()
        );
    }

    // 2. Scan: end-to-end snapshot runs.
    eprintln!("[bench_report] scan path ({scan_reps} reps)...");
    let mut scans = Vec::new();
    for n in [4usize, 6] {
        let (steps_new, new_rate) = scan_throughput(n, scan_reps, |x| SnapshotProcess::new(x, n));
        let (steps_old, old_rate) =
            scan_throughput(n, scan_reps, |x| SnapshotProcess::new(Opaque(x), n));
        assert_eq!(
            steps_new, steps_old,
            "representations must take identical executions"
        );
        eprintln!(
            "  n={n}: bitmask {new_rate:.0} steps/s, fallback {old_rate:.0} steps/s ({:.2}x)",
            new_rate / old_rate
        );
        scans.push(json!({
            "n": n,
            "reps": scan_reps,
            "steps": steps_new,
            "bitmask_steps_per_sec": new_rate,
            "fallback_steps_per_sec": old_rate,
            "speedup": new_rate / old_rate,
        }));
    }

    // 3. Sweep: E18-style coarse model-check throughput + determinism.
    eprintln!("[bench_report] E18-style sweep ({sweep_combos} combos, cap {sweep_cap})...");
    let n = 4usize;
    let (per_combo_new, elapsed_new, rate_new) =
        sweep_best_of(sweep_reps, sweep_combos, sweep_cap, Engine::Serial, |x| {
            SnapshotProcess::new(x, n)
        });
    let (per_combo_old, elapsed_old, rate_old) =
        sweep_best_of(sweep_reps, sweep_combos, sweep_cap, Engine::Serial, |x| {
            SnapshotProcess::new(Opaque(x), n)
        });
    let (per_combo_again, _, _) = sweep(sweep_combos, sweep_cap, Engine::Serial, |x| {
        SnapshotProcess::new(x, n)
    });
    eprintln!(
        "  bitmask {rate_new:.0} states/s ({elapsed_new:.2}s), fallback {rate_old:.0} states/s ({elapsed_old:.2}s) ({:.2}x)",
        rate_new / rate_old
    );

    // 5. E26: the same sweep through the worker crew, one intra worker per
    // core. The serial rate above is the denominator of the headline
    // speedup.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "[bench_report] E26 intra-combo sweep ({sweep_combos} combos, cap {sweep_cap}, {cores} workers)..."
    );
    let (per_combo_intra, elapsed_intra, rate_intra) = sweep_best_of(
        sweep_reps,
        sweep_combos,
        sweep_cap,
        Engine::Intra(cores),
        |x| SnapshotProcess::new(x, n),
    );
    let intra_speedup = rate_intra / rate_new;
    eprintln!(
        "  intra {rate_intra:.0} states/s ({elapsed_intra:.2}s), serial {rate_new:.0} states/s ({intra_speedup:.2}x on {cores} cores)"
    );

    // 4. E24: the symmetry quotient over the E18-class sweep — fully
    // symmetric inputs make the whole wiring group collapse, so the orbit
    // factor here is the headline compression number. Smoke keeps n = 3
    // (36 combos); the full run takes the real E18 scope at n = 4
    // (13824 combos, 762 canonical).
    let quot_n = if smoke { 3usize } else { 4 };
    let quot_inputs = vec![7u32; quot_n];
    eprintln!("[bench_report] E24 quotient sweep (n={quot_n}, cap {sweep_cap})...");
    let quot_config = CheckConfig::default().with_quotient();
    let quot_start = Instant::now();
    let quot =
        check_snapshot_task_coarse_with(&quot_inputs, sweep_cap, &quot_config).expect("check runs");
    let quot_elapsed = quot_start.elapsed().as_secs_f64();
    let quot_again =
        check_snapshot_task_coarse_with(&quot_inputs, sweep_cap, &quot_config).expect("check runs");
    // Determinism: the quotiented report renders byte-identically on rerun.
    let quotient_rerun_identical =
        format!("{:?}", quot.report) == format!("{:?}", quot_again.report);
    assert!(
        quot.report.violation.is_none(),
        "{:?}",
        quot.report.violation
    );
    let quot_stats = quot.report.quotient.clone().expect("quotiented report");
    let orbit_factor = quot_stats.orbit_factor();
    eprintln!(
        "  combos {}/{} ({} explored): {} canonical states for a full-space estimate of {} ({orbit_factor:.2}x) in {quot_elapsed:.2}s",
        quot.report.combos,
        quot.report.total_combos,
        quot_stats.combos_explored,
        quot_stats.canonical_states,
        quot_stats.full_states_estimate,
    );

    // The n = 5 attempt: the full sweep is out of reach for any engine
    // ((5!)^4 ≈ 2.1e8 wiring combos), so take one symmetric combo — where
    // the row quotient bites hardest — capped, with a visited budget small
    // enough that the run *must* live out of the disk tier.
    let n5 = 5usize;
    let n5_cap = if smoke { 2_000usize } else { 20_000 };
    let n5_budget = 64 * 1024usize;
    eprintln!("[bench_report] E24 n=5 attempt (cap {n5_cap}, visited budget {n5_budget} B)...");
    let n5_procs: Vec<SnapshotProcess<u32>> =
        (0..n5).map(|_| SnapshotProcess::new(7, n5)).collect();
    let n5_wirings: Vec<Wiring> = (0..n5).map(|_| Wiring::identity(n5)).collect();
    let n5_start = Instant::now();
    let n5_report = Explorer::new(n5_procs, n5, Default::default(), n5_wirings)
        .with_coarse_scans()
        .with_max_states(n5_cap)
        .with_quotient()
        .with_visited_budget(n5_budget)
        .run(|_| Ok(()));
    let n5_elapsed = n5_start.elapsed().as_secs_f64();
    assert!(n5_report.violation.is_none(), "n=5 prefix must be clean");
    let n5_est = n5_report
        .full_states_estimate
        .unwrap_or(n5_report.states as u64);
    eprintln!(
        "  {} canonical states (full-space estimate {n5_est}), {} shards spilled, complete={} in {n5_elapsed:.2}s",
        n5_report.states, n5_report.spilled_shards, n5_report.complete,
    );

    // Determinism check 1: both representations explore identical spaces.
    let repr_equivalent = per_combo_new == per_combo_old;
    // Determinism check 2: re-running the new representation serializes
    // byte-identically.
    let ser_a = serde_json::to_string(&per_combo_new).expect("serialize");
    let ser_b = serde_json::to_string(&per_combo_again).expect("serialize");
    let rerun_identical = ser_a == ser_b;
    // Determinism check 3: the worker crew visits
    // exactly the serial engine's states, combo by combo.
    let intra_equivalent = per_combo_intra == per_combo_new;
    // Perf gate: the whole point of the intra engine is scaling, so on a
    // ≥4-core box require ≥1.5× over the serial-per-combo rate. On smaller
    // hosts the parallel engine cannot beat serial (there is nothing to
    // fan out over), so the ratio is recorded but not gated.
    let intra_gate_active = cores >= 4;
    let intra_gate_ok = !intra_gate_active || intra_speedup >= 1.5;
    if !repr_equivalent {
        eprintln!("[bench_report] FAIL: representations explored different state spaces");
    }
    if !rerun_identical {
        eprintln!("[bench_report] FAIL: re-run sweep report is not byte-identical");
    }
    if !quotient_rerun_identical {
        eprintln!("[bench_report] FAIL: quotiented sweep re-run is not byte-identical");
    }
    if !intra_equivalent {
        eprintln!("[bench_report] FAIL: intra and serial engines explored different state spaces");
    }
    if !intra_gate_ok {
        eprintln!(
            "[bench_report] FAIL: intra sweep reached only {intra_speedup:.2}x the serial rate on {cores} cores (gate: 1.5x)"
        );
    }

    let determinism_ok = repr_equivalent
        && rerun_identical
        && quotient_rerun_identical
        && intra_equivalent
        && intra_gate_ok;
    let total_states: usize = per_combo_new.iter().sum();
    let sweep_doc = json!({
        "n": n,
        "combos": per_combo_new.len(),
        "max_states_per_combo": sweep_cap,
        "total_states": total_states,
        "bitmask_states_per_sec": rate_new,
        "fallback_states_per_sec": rate_old,
        "speedup": rate_new / rate_old,
        "arena_states_per_sec": rate_new,
        "intra_states_per_sec": rate_intra,
        "intra_workers": cores,
        "intra_speedup": intra_speedup,
        "intra_gate_active": intra_gate_active,
        "per_combo_states_fingerprint": short_hash(&ser_a),
    });
    let determinism_doc = json!({
        "representations_equivalent": repr_equivalent,
        "rerun_byte_identical": rerun_identical,
        "quotient_rerun_byte_identical": quotient_rerun_identical,
        "intra_matches_serial_engine": intra_equivalent,
        "intra_speedup_gate_ok": intra_gate_ok,
    });
    let quotient_doc = json!({
        "n": quot_n,
        "inputs": quot_inputs,
        "max_states_per_combo": sweep_cap,
        "combos_total": quot.report.total_combos,
        "combos_explored": quot_stats.combos_explored,
        "canonical_states": quot_stats.canonical_states,
        "full_states_estimate": quot_stats.full_states_estimate,
        "orbit_factor": orbit_factor,
        "spilled_shards": quot_stats.spilled_shards,
        "elapsed_s": quot_elapsed,
        "n5_attempt": json!({
            "n": n5,
            "max_states": n5_cap,
            "visited_budget_bytes": n5_budget,
            "canonical_states": n5_report.states,
            "full_states_estimate": n5_est,
            "spilled_shards": n5_report.spilled_shards,
            "complete": n5_report.complete,
            "elapsed_s": n5_elapsed,
        }),
    });
    let doc = json!({
        "experiment": "E21+E24+E26",
        "smoke": smoke,
        "micro": micros.iter().map(Micro::to_json).collect::<Vec<_>>(),
        "scan": scans,
        "sweep": sweep_doc,
        "quotient": quotient_doc,
        "determinism": determinism_doc,
    });

    std::fs::write(&out_path, serde_json::to_string_pretty(&doc).expect("json")).expect("write");

    // Merge the headline numbers into the root perf-trajectory document,
    // preserving keys other experiments own (e.g. E22's `e22_*`). Smoke runs
    // measure a much smaller sweep than the full run, so their headline keys
    // get a `smoke_` prefix: the two configurations keep separate baselines
    // and CI's regression gate compares smoke-to-smoke.
    let mut root: serde_json::Map = std::fs::read_to_string(&root_path)
        .ok()
        .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    let prefix = if smoke { "smoke_" } else { "" };
    root.insert("experiment".into(), json!("E21+E24+E26"));
    for (key, value) in [
        (
            "min_micro_speedup",
            json!(micros
                .iter()
                .map(Micro::speedup)
                .fold(f64::INFINITY, f64::min)),
        ),
        ("scan_speedup_n4", scans[0]["speedup"].clone()),
        ("sweep_states_per_sec_bitmask", json!(rate_new)),
        ("sweep_states_per_sec_fallback", json!(rate_old)),
        ("sweep_speedup", json!(rate_new / rate_old)),
        ("sweep_states_per_sec_arena", json!(rate_new)),
        ("sweep_states_per_sec_intra", json!(rate_intra)),
        ("intra_workers", json!(cores)),
        ("intra_sweep_speedup", json!(intra_speedup)),
        ("intra_gate_active", json!(intra_gate_active)),
        ("quotient_orbit_factor", json!(orbit_factor)),
        (
            "quotient_canonical_states",
            json!(quot_stats.canonical_states),
        ),
        (
            "quotient_n5_spilled_shards",
            json!(n5_report.spilled_shards),
        ),
        ("determinism_ok", json!(determinism_ok)),
    ] {
        root.insert(format!("{prefix}{key}"), value);
    }
    std::fs::write(
        &root_path,
        serde_json::to_string_pretty(&serde_json::Value::Object(root)).expect("json") + "\n",
    )
    .expect("write");
    eprintln!("[bench_report] wrote {out_path} and merged headline keys into {root_path}");

    if !determinism_ok {
        std::process::exit(1);
    }
}

/// A short stable fingerprint of the per-combo report, so the committed
/// artifact records *what* was explored without carrying thousands of
/// numbers.
fn short_hash(s: &str) -> String {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    format!("{:016x}", h.finish())
}
