//! The traced run: spans around the same public calls, then a per-layer
//! split built only from public items.
//!
//! * Checker workloads time every combo's `Explorer` alone (the units pass)
//!   and replay a seeded sample of combos through `read_row` → `decode` →
//!   `step` → `encode` → (`canonicalize`) → `lookup` → `insert` on the
//!   workload's own store type. A replayed combo must reach the explorer's
//!   state count, or the run fails.
//! * The fuzz workload times `CaseGen::case` and `run_case` per case
//!   and must reproduce the campaign's steps and patterns.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fa_core::SnapshotProcess;
use fa_fuzz::{run_case, AlgoKind, CaseGen};
use fa_memory::{ProcId, Wiring};
use fa_modelcheck::canon::combo_reps;
use fa_modelcheck::wirings::ComboTable;
use fa_modelcheck::{
    inspect_journal, step_block, ArenaTables, Canonicalizer, CheckOutcome, Explorer,
    InMemoryVisited, McState, ShardedVisited, TieredVisited, VisitedStore,
};

use crate::call::{execute, run_campaign, run_sweep, verify, Outcome, Prepared, Verdict};
use crate::spec::{declared, CheckerSpec, FuzzSpec, Granularity, Kind, SplitMix};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;

type Proc = SnapshotProcess<u32>;

/// Per-layer metric values by name, plus the traced call's verdict and
/// human-readable detail lines.
pub struct LayerRun {
    pub metrics: BTreeMap<&'static str, f64>,
    pub verdict: Verdict,
    pub notes: Vec<String>,
}

impl LayerRun {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            declared().per_layer.iter().any(|l| l.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.metrics.insert(name, value);
    }
}

fn cpu_seconds() -> f64 {
    crate::host::process_cpu_seconds().unwrap_or(0.0)
}

/// Runs the traced measurement of one workload. Layers a workload never
/// enters read 0.
pub fn traced(p: &Prepared, tracer: &mut Tracer) -> LayerRun {
    let mut run = LayerRun {
        metrics: declared()
            .per_layer
            .iter()
            .map(|l| (l.name.as_str(), 0.0))
            .collect(),
        verdict: Verdict::default(),
        notes: Vec::new(),
    };

    // Untraced reference call, for the tracing overhead.
    let started = Instant::now();
    let outcome = execute(p);
    let untraced_s = started.elapsed().as_secs_f64();
    run.verdict.errors.extend(verify(p, &outcome).errors);
    p.cleanup();

    let cpu0 = cpu_seconds();
    let root = tracer.begin("call");
    let outcome = match &p.workload.kind {
        Kind::Checker(spec) => Outcome::Checker(
            spec.sweeps
                .iter()
                .map(|&gran| {
                    tracer
                        .span(format!("sweep.{}", gran.name()), |_| {
                            run_sweep(p, spec, gran)
                        })
                        .0
                })
                .collect(),
        ),
        Kind::Fuzz(spec) => Outcome::Fuzz(tracer.span("campaign", |_| run_campaign(p, spec)).0),
    };
    let span_s = tracer.end(root) as f64 / 1e9;
    let cpu_s = cpu_seconds() - cpu0;
    run.verdict.merge(verify(p, &outcome));
    run.set("call.span_s", span_s);
    run.set(
        "proc.cpu_util",
        cpu_s / (span_s * p.workload.threads() as f64),
    );
    run.set("trace.overhead", span_s / untraced_s);

    match (&p.workload.kind, &outcome) {
        (Kind::Checker(spec), Outcome::Checker(results)) => {
            checkpoint_layer(p, tracer, &mut run, span_s);
            checker_layers(p, spec, results, tracer, &mut run, span_s);
        }
        (Kind::Fuzz(spec), Outcome::Fuzz(report)) => {
            fuzz_layers(p, spec, report, tracer, &mut run, span_s);
        }
        _ => unreachable!("outcome kind follows the workload kind"),
    }
    p.cleanup();
    run
}

/// Reads back the traced sweep's journal with `inspect_journal`.
fn checkpoint_layer(p: &Prepared, tracer: &mut Tracer, run: &mut LayerRun, span_s: f64) {
    let Some(dir) = &p.journal else { return };
    let (recovery, ns) = tracer.span("checkpoint.inspect_journal", |_| inspect_journal(dir));
    let bytes =
        std::fs::metadata(dir.join(fa_modelcheck::checkpoint::JOURNAL_FILE)).map_or(0, |m| m.len());
    match recovery {
        Ok(r) => {
            let expected = run.verdict.attempted as usize;
            if r.completed.len() != expected || !r.in_flight.is_empty() || r.truncated_bytes != 0 {
                run.verdict.errors.push(format!(
                    "journal recovers {} done, {} in flight, {} torn bytes; expected {expected} done",
                    r.completed.len(),
                    r.in_flight.len(),
                    r.truncated_bytes
                ));
            }
            run.set(
                "checkpoint.records",
                (2 * r.completed.len() + r.in_flight.len()) as f64,
            );
        }
        Err(e) => run.verdict.errors.push(format!("journal unreadable: {e}")),
    }
    run.set("checkpoint.journal_bytes", bytes as f64);
    run.set("checkpoint.recover_share", ns as f64 / 1e9 / span_s);
}

fn explorer(
    spec: &CheckerSpec,
    inputs: &[u32],
    gran: Granularity,
    combo: Vec<Arc<Wiring>>,
) -> Explorer<Proc> {
    let procs: Vec<Proc> = inputs
        .iter()
        .map(|&x| SnapshotProcess::new(x, spec.n))
        .collect();
    let mut e = Explorer::new(procs, spec.n, Default::default(), combo).with_max_states(spec.cap);
    if gran == Granularity::Coarse {
        e = e.with_coarse_scans();
    }
    if spec.quotient {
        e = e.with_quotient();
    }
    if let Some(budget) = spec.visited_budget {
        e = e.with_visited_budget(budget);
    }
    e
}

/// Processors start value-equal iff their inputs are equal: the class ids
/// the quotient's symmetry group preserves.
fn input_classes(inputs: &[u32]) -> Vec<usize> {
    inputs
        .iter()
        .map(|v| inputs.iter().position(|w| w == v).expect("present"))
        .collect()
}

fn summarize_units(run: &mut LayerRun, durations_ns: &[f64], states: u64) {
    let busy_ns: f64 = durations_ns.iter().sum();
    let ms: Vec<f64> = durations_ns.iter().map(|d| d / 1e6).collect();
    let tail = tail_percentile(ms.len()).unwrap_or(100.0);
    run.set("units.count", ms.len() as f64);
    run.set("units.busy_s", busy_ns / 1e9);
    run.set("units.ns_per_state", busy_ns / states.max(1) as f64);
    run.set("units.p50_ms", median(&ms));
    run.set("units.tail_ms", percentile(&ms, tail));
    run.set("units.tail_pct", tail);
}

/// Combo explorations by `(sweep index, combo)`: states visited and
/// nanoseconds, from the units pass.
type Units = BTreeMap<(usize, usize), (usize, f64)>;

fn checker_layers(
    p: &Prepared,
    spec: &CheckerSpec,
    results: &[Result<CheckOutcome, String>],
    tracer: &mut Tracer,
    run: &mut LayerRun,
    span_s: f64,
) {
    let n = spec.n;
    let classes = input_classes(&p.inputs);
    let table = ComboTable::new(n, n);
    let explore: Vec<usize> = if spec.quotient {
        let (reps, ns) = tracer.span("canon.combo_reps", |_| combo_reps(n, n, &classes));
        run.set("canon.combo_reps_share", ns as f64 / 1e9 / span_s);
        match reps {
            Some(reps) => (0..reps.len()).filter(|&c| reps[c] == c).collect(),
            None => (0..table.len()).collect(),
        }
    } else {
        (0..table.len()).collect()
    };
    let units = units_pass(p, spec, results, &explore, &table, tracer, run);
    let busy_s = units.values().map(|(_, ns)| ns).sum::<f64>() / 1e9;
    let combo_threads = (spec.jobs / spec.intra_workers.unwrap_or(1)).max(1);
    run.set(
        "call.self_share",
        1.0 - busy_s / (span_s * combo_threads as f64),
    );

    // A seeded sample of each sweep's combos for the replay and the
    // intra-vs-serial pairs.
    let k = (explore.len() / 8).clamp(4, 64).min(explore.len());
    let mut rng = SplitMix(p.seed ^ 0x5eed_1a7e);
    let mut sample: Vec<(usize, usize)> = Vec::new();
    for si in 0..spec.sweeps.len() {
        let mut picked = BTreeSet::new();
        while picked.len() < k {
            picked.insert(explore[rng.below(explore.len() as u64) as usize]);
        }
        sample.extend(picked.into_iter().map(|c| (si, c)));
    }
    replay_pass(p, spec, &sample, &units, &classes, &table, tracer, run);
    intra_pairs(p, spec, &sample, &table, tracer, run);

    let (mut spilled, mut orbit) = (run.metrics["store.spilled_shards"], 1.0);
    for q in results
        .iter()
        .flatten()
        .filter_map(|o| o.report.quotient.as_ref())
    {
        spilled = q.spilled_shards as f64;
        orbit = q.orbit_factor();
    }
    run.set("store.spilled_shards", spilled);
    run.set("canon.orbit_factor", orbit);
}

/// Each combo's exploration alone, as the sweep runs it, with a no-op
/// invariant: the sweep's time beyond this is invariant checking, dispatch,
/// journaling and assembly.
fn units_pass(
    p: &Prepared,
    spec: &CheckerSpec,
    results: &[Result<CheckOutcome, String>],
    explore: &[usize],
    table: &ComboTable,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) -> Units {
    let mut units = Units::new();
    let span = tracer.begin("units");
    for (si, &gran) in spec.sweeps.iter().enumerate() {
        let expected = results[si]
            .as_ref()
            .ok()
            .map(|o| &o.telemetry.per_combo_states);
        for &c in explore {
            let e = explorer(spec, &p.inputs, gran, table.combo(c));
            let id = tracer.begin("explorer.run");
            let report = match spec.intra_workers {
                Some(w) => e.run_intra(|_| Ok(()), w),
                None => e.run(|_| Ok(())),
            };
            let ns = tracer.end(id) as f64;
            tracer.count(id, "states", report.states as f64);
            if report.states != spec.cap || expected.is_some_and(|x| x[c] != report.states) {
                run.verdict.errors.push(format!(
                    "{} combo {c}: explorer alone visited {} states",
                    gran.name(),
                    report.states
                ));
            }
            units.insert((si, c), (report.states, ns));
        }
    }
    tracer.end(span);
    let durations: Vec<f64> = units.values().map(|&(_, ns)| ns).collect();
    let states = units.values().map(|&(s, _)| s as u64).sum();
    summarize_units(run, &durations, states);
    units
}

#[allow(clippy::too_many_arguments)]
fn replay_pass(
    p: &Prepared,
    spec: &CheckerSpec,
    sample: &[(usize, usize)],
    units: &Units,
    classes: &[usize],
    table: &ComboTable,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) {
    let overhead = timer_overhead_ns();
    let mut rep = Replay::default();
    let mut explorer_ns = 0.0;
    let span = tracer.begin("replay");
    for &(si, c) in sample {
        let gran = spec.sweeps[si];
        let combo = table.combo(c);
        let id = tracer.begin("replay.combo");
        let states = replay_combo(spec, &p.inputs, gran, &combo, classes, &mut rep);
        tracer.end(id);
        let (want, ns) = units[&(si, c)];
        explorer_ns += ns;
        match states {
            Ok(s) if s == want => {}
            Ok(s) => run.verdict.errors.push(format!(
                "{} combo {c}: replay reached {s} states, explorer {want}",
                gran.name()
            )),
            Err(e) => run
                .verdict
                .errors
                .push(format!("{} combo {c}: replay failed: {e}", gran.name())),
        }
    }
    tracer.end(span);
    let layers = [
        ("read_row", &rep.read_row),
        ("decode", &rep.decode),
        ("step", &rep.step),
        ("encode", &rep.encode),
        ("canonicalize", &rep.canon),
        ("lookup", &rep.lookup),
        ("insert", &rep.insert),
    ];
    let layer_ns = |a: &Acc| (a.ns as f64 - a.calls as f64 * overhead).max(0.0);
    let total_ns: f64 = layers.iter().map(|(_, a)| layer_ns(a)).sum();
    let share = |a: &Acc| layer_ns(a) / total_ns.max(f64::MIN_POSITIVE);
    for (name, a) in layers {
        run.notes.push(format!(
            "replay layer {name:<12} {:>10} calls {:>9.1} ns/call {:>6.1}%",
            a.calls,
            layer_ns(a) / a.calls.max(1) as f64,
            100.0 * share(a)
        ));
    }
    let states = rep.states.max(1) as f64;
    // Layer time per replayed state over the explorer's own time per state
    // on the same combos.
    let closure = total_ns / explorer_ns.max(f64::MIN_POSITIVE);
    run.notes.push(format!(
        "replay: {} combos, {} states, {:.1} ns/state over the layers; timer overhead {overhead:.1} ns/span",
        sample.len(),
        rep.states,
        total_ns / states
    ));
    run.notes.push(format!(
        "replay closure {closure:.2}: the replay spends {closure:.2}x the explorer's time on these \
         combos, so its shares rank layers within the replay only"
    ));
    run.set("step.calls", rep.step.calls as f64);
    run.set(
        "step.ns_per_call",
        layer_ns(&rep.step) / rep.step.calls.max(1) as f64,
    );
    run.set("step.per_state", rep.step.calls as f64 / states);
    run.set("arena.ids_total", rep.ids_total as f64);
    run.set("arena.encode_share", share(&rep.encode));
    run.set("arena.decode_share", share(&rep.decode));
    run.set("canon.calls", rep.canon.calls as f64);
    run.set("canon.share", share(&rep.canon));
    run.set("store.lookups", rep.lookup.calls as f64);
    run.set(
        "store.hit_rate",
        rep.hits as f64 / rep.lookup.calls.max(1) as f64,
    );
    run.set("store.lookup_share", share(&rep.lookup));
    run.set("store.insert_share", share(&rep.insert));
    run.set("store.read_row_share", share(&rep.read_row));
    run.set("store.spilled_shards", rep.spilled as f64);
    run.set(
        "store.approx_mib",
        rep.peak_store_bytes as f64 / (1024.0 * 1024.0),
    );
    run.set("trace.closure", closure);
}

/// The sampled combos through the serial and the intra:2 engines.
fn intra_pairs(
    p: &Prepared,
    spec: &CheckerSpec,
    sample: &[(usize, usize)],
    table: &ComboTable,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) {
    let (mut serial_ns, mut intra_ns) = (0u64, 0u64);
    let span = tracer.begin("intra_vs_serial");
    for &(si, c) in sample {
        let e = explorer(spec, &p.inputs, spec.sweeps[si], table.combo(c));
        let (a, ns) = tracer.span("explorer.serial", |_| e.run(|_| Ok(())).states);
        serial_ns += ns;
        let (b, ns) = tracer.span("explorer.intra2", |_| e.run_intra(|_| Ok(()), 2).states);
        intra_ns += ns;
        if a != b {
            run.verdict
                .errors
                .push(format!("combo {c}: serial visited {a} states, intra:2 {b}"));
        }
    }
    tracer.end(span);
    run.set(
        "explorer.intra_vs_serial",
        serial_ns as f64 / intra_ns.max(1) as f64,
    );
}

/// Work count and busy time of one layer of the replay.
#[derive(Debug, Default)]
struct Acc {
    calls: u64,
    ns: u64,
}

fn timed<T>(acc: &mut Acc, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    acc.ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    acc.calls += 1;
    out
}

/// Cost of one empty [`timed`] span, subtracted from every layer call.
fn timer_overhead_ns() -> f64 {
    (0..3)
        .map(|_| {
            let mut acc = Acc::default();
            for i in 0..100_000u64 {
                timed(&mut acc, || black_box(i));
            }
            acc.ns as f64 / acc.calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[derive(Debug, Default)]
struct Replay {
    read_row: Acc,
    decode: Acc,
    step: Acc,
    encode: Acc,
    canon: Acc,
    lookup: Acc,
    insert: Acc,
    hits: u64,
    states: u64,
    ids_total: u64,
    peak_store_bytes: usize,
    spilled: usize,
}

/// Replays one combo breadth-first in the explorer's order (pop, then each
/// live processor in index order, dedup, cap) from public calls only, on
/// the store type the workload's explorer uses.
fn replay_combo(
    spec: &CheckerSpec,
    inputs: &[u32],
    gran: Granularity,
    combo: &[Arc<Wiring>],
    classes: &[usize],
    rep: &mut Replay,
) -> Result<usize, String> {
    let w = 4 * spec.n;
    let mut store: Box<dyn VisitedStore> = match (spec.intra_workers, spec.visited_budget) {
        (Some(_), budget) => Box::new(ShardedVisited::new(w, budget)),
        (None, Some(budget)) => Box::new(TieredVisited::new(w, budget)),
        (None, None) => Box::new(InMemoryVisited::new(w)),
    };
    let (n, m) = (spec.n, spec.n);
    let procs: Vec<Proc> = inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    let mut tables = ArenaTables::<Proc>::new(m, n, u32::MAX);
    let canon = spec
        .quotient
        .then(|| Canonicalizer::for_system(classes, combo))
        .filter(|c| !c.is_trivial());
    let w = tables.row_words();
    let mut canon_buf = vec![0u32; w];
    let mut canonical = |row: &mut [u32], acc: &mut Acc| {
        if let Some(c) = &canon {
            timed(acc, || {
                c.canonicalize(row, &mut canon_buf);
                row.copy_from_slice(&canon_buf);
            });
        }
    };
    let initial = McState::initial(procs, m, Default::default());
    let mut root =
        timed(&mut rep.encode, || tables.encode(&initial)).map_err(|e| format!("{e:?}"))?;
    canonical(&mut root, &mut rep.canon);
    store.insert(&root).map_err(|e| e.to_string())?;
    let mut queue = VecDeque::from([0usize]);
    let mut row = vec![0u32; w];
    while let Some(cur) = queue.pop_front() {
        timed(&mut rep.read_row, || store.read_row(cur, &mut row)).map_err(|e| e.to_string())?;
        let state = timed(&mut rep.decode, || tables.decode(&row));
        for pi in 0..n {
            if state.pending[pi].is_none() {
                continue;
            }
            let p = ProcId(pi);
            let next = timed(&mut rep.step, || match gran {
                Granularity::Coarse => step_block(&state, p, combo),
                Granularity::PerRead => state.step(p, combo).expect("live process steps"),
            });
            let mut next_row =
                timed(&mut rep.encode, || tables.encode(&next)).map_err(|e| format!("{e:?}"))?;
            canonical(&mut next_row, &mut rep.canon);
            let seen =
                timed(&mut rep.lookup, || store.lookup(&next_row)).map_err(|e| e.to_string())?;
            if seen.is_some() {
                rep.hits += 1;
                continue;
            }
            if store.len() >= spec.cap {
                continue;
            }
            let id =
                timed(&mut rep.insert, || store.insert(&next_row)).map_err(|e| e.to_string())?;
            queue.push_back(id);
        }
    }
    rep.states += store.len() as u64;
    rep.ids_total += tables.len_total() as u64;
    rep.peak_store_bytes = rep.peak_store_bytes.max(store.approx_bytes());
    rep.spilled += store.spilled_shards();
    Ok(store.len())
}

fn fuzz_layers(
    p: &Prepared,
    spec: &FuzzSpec,
    report: &fa_fuzz::CampaignReport,
    tracer: &mut Tracer,
    run: &mut LayerRun,
    span_s: f64,
) {
    let gen = CaseGen::standard(spec.ns.to_vec(), spec.budget);
    let mut gen_ns = 0u64;
    let mut case_ns = Vec::with_capacity(spec.cases);
    let mut per_algo: BTreeMap<AlgoKind, (u64, u64)> = BTreeMap::new();
    let mut steps = 0u64;
    let mut patterns = BTreeSet::new();
    let mut violations = 0usize;
    let units = tracer.begin("units");
    for i in 0..spec.cases {
        let started = Instant::now();
        let case = gen.case(p.seed, i);
        gen_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let kind = case.algo.kind();
        let id = tracer.begin(format!("run_case.{}", kind.name()));
        let result = run_case(&case);
        let ns = tracer.end(id);
        tracer.count(id, "steps", result.steps as f64);
        case_ns.push(ns as f64);
        let slot = per_algo.entry(kind).or_default();
        slot.0 += result.steps as u64;
        slot.1 += ns;
        steps += result.steps as u64;
        violations += usize::from(result.violation.is_some());
        patterns.insert(result.pattern);
    }
    tracer.end(units);
    if steps != report.total_steps || patterns.len() != report.distinct_patterns || violations != 0
    {
        run.verdict.errors.push(format!(
            "per-case rerun gave {steps} steps, {} patterns, {violations} violations; campaign {} and {}",
            patterns.len(),
            report.total_steps,
            report.distinct_patterns
        ));
    }
    let run_ns: f64 = case_ns.iter().sum();
    summarize_units(run, &case_ns, steps);
    let busy_s = (run_ns + gen_ns as f64) / 1e9;
    run.set("units.busy_s", busy_s);
    run.set(
        "call.self_share",
        1.0 - busy_s / (span_s * spec.jobs as f64),
    );
    run.set("trace.closure", busy_s / (span_s * spec.jobs as f64));
    run.set("step.calls", steps as f64);
    run.set("step.ns_per_call", run_ns / steps.max(1) as f64);
    run.set("step.per_state", 1.0);
    run.set(
        "fuzz.case_gen_share",
        gen_ns as f64 / (gen_ns as f64 + run_ns),
    );
    run.set(
        "fuzz.shrink_calls",
        report.first_repro.iter().count() as f64,
    );
    let mean = run_ns / steps.max(1) as f64;
    for (kind, name) in [
        (AlgoKind::Snapshot, "fuzz.cost_ratio.snapshot"),
        (AlgoKind::Renaming, "fuzz.cost_ratio.renaming"),
        (AlgoKind::Consensus, "fuzz.cost_ratio.consensus"),
    ] {
        let (s, ns) = per_algo.get(&kind).copied().unwrap_or_default();
        let per_step = ns as f64 / s.max(1) as f64;
        run.notes.push(format!(
            "fuzz {:<9} {s:>9} steps {per_step:>7.1} ns/step",
            kind.name()
        ));
        run.set(name, per_step / mean);
    }
    run.notes.push(format!(
        "fuzz case_gen {:.1} ns/case",
        gen_ns as f64 / spec.cases.max(1) as f64
    ));
}
