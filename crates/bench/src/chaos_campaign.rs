//! Chaos campaign (E20): fault-injection runs of the paper's algorithms on
//! real OS threads, via `fa_memory::chaos`.
//!
//! Four scenarios, each repeated over fixed seeds:
//!
//! * **snapshot_crash** — the acceptance scenario: `n = 6` snapshot
//!   processors with random wirings, ⌈n/2⌉ = 3 crashed (two crash-stop, one
//!   *poised* mid-write — a real covering). Every survivor must produce a
//!   valid view (contains its own input, pairwise comparable), and the run
//!   must return with per-processor outcomes — zero hangs.
//! * **renaming_chaos** — `n = 5` renaming under a poised crash, a
//!   crash-stop, and a stall; surviving names must be distinct and within
//!   the `M(M+1)/2` bound.
//! * **consensus_backoff** — `n = 4` consensus with a [`BackoffArbiter`]
//!   attached to every processor, under an injected stall storm; all
//!   processors must still decide the same value, with attempt/backoff
//!   telemetry captured from the arbiters' shared stats.
//! * **panic_containment** — an injected `Process::step` panic plus a
//!   crash-stop; the panic must be recorded as an outcome, never propagate.
//!
//! Artifacts: `results/chaos_report.json` (scenario table, outcomes, checks,
//! telemetry) and `results/chaos_events.jsonl` (every chaos/backoff probe
//! event). `--smoke` runs one seed per scenario for CI.

use std::fs;
use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::print_table;
use fa_core::{BackoffArbiter, ConsensusProcess, RenamingProcess, SnapRegister, SnapshotProcess};
use fa_memory::chaos::{run_chaos_probed, ChaosConfig, FaultPlan};
use fa_memory::threaded::ProcOutcome;
use fa_memory::Wiring;
use fa_obs::{BackoffEvent, ChaosEvent, JsonlSink, Probe, ProbeEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize as _;
use serde_json::{Map, Value};

/// Step budget for every scenario (wall-clock deadlines are the real bound).
const MAX_STEPS: usize = 10_000_000;

/// A lean per-thread probe: operation counters plus the chaos event stream.
#[derive(Debug, Default)]
struct CampaignProbe {
    reads: u64,
    writes: u64,
    chaos: Vec<ChaosEvent>,
}

impl Probe for CampaignProbe {
    fn on_event(&mut self, event: &ProbeEvent) {
        match event {
            ProbeEvent::Read(_) => self.reads += 1,
            ProbeEvent::Write(_) => self.writes += 1,
            ProbeEvent::Chaos(e) => self.chaos.push(e.clone()),
            _ => {}
        }
    }
}

/// One scenario run's record: what was injected, how every processor ended,
/// and whether the scenario's invariant checks passed.
struct ScenarioResult {
    scenario: &'static str,
    n: usize,
    seed: u64,
    outcomes: Vec<ProcOutcome>,
    reads: u64,
    writes: u64,
    chaos_events: Vec<ChaosEvent>,
    backoff_events: Vec<BackoffEvent>,
    checks_passed: bool,
    detail: String,
    elapsed_ms: u64,
}

fn outcome_label(o: &ProcOutcome) -> String {
    match o {
        ProcOutcome::Completed => "ok".into(),
        ProcOutcome::BudgetExhausted => "budget".into(),
        ProcOutcome::Crashed {
            after_ops,
            covering: None,
        } => format!("crash@{after_ops}"),
        ProcOutcome::Crashed {
            after_ops,
            covering: Some(r),
        } => format!("poised@{after_ops}->r{r}"),
        ProcOutcome::Panicked { .. } => "panic".into(),
        ProcOutcome::Stalled => "stalled".into(),
        ProcOutcome::DeadlineExceeded => "deadline".into(),
    }
}

fn random_wirings(n: usize, seed: u64) -> Vec<Wiring> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a0_5c4a_0000_0000);
    (0..n).map(|_| Wiring::random(n, &mut rng)).collect()
}

#[allow(clippy::too_many_arguments)]
fn gather<F>(
    scenario: &'static str,
    n: usize,
    seed: u64,
    started: Instant,
    outcomes: Vec<ProcOutcome>,
    probes: Vec<Option<CampaignProbe>>,
    backoff_events: Vec<BackoffEvent>,
    check: F,
) -> ScenarioResult
where
    F: FnOnce() -> (bool, String),
{
    let (reads, writes, chaos_events) =
        probes
            .into_iter()
            .flatten()
            .fold((0u64, 0u64, Vec::new()), |(r, w, mut evs), p| {
                evs.extend(p.chaos);
                (r + p.reads, w + p.writes, evs)
            });
    let (checks_passed, detail) = check();
    ScenarioResult {
        scenario,
        n,
        seed,
        outcomes,
        reads,
        writes,
        chaos_events,
        backoff_events,
        checks_passed,
        detail,
        elapsed_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

/// The acceptance scenario: crash ⌈n/2⌉ of `n = 6` snapshot processors (one
/// poised mid-write) and require every survivor to output a valid view.
fn snapshot_crash_scenario(seed: u64, config: &ChaosConfig) -> ScenarioResult {
    let started = Instant::now();
    let n = 6;
    let inputs: Vec<u32> = (0..n as u32).collect();
    let procs: Vec<SnapshotProcess<u32>> =
        inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    let plan = FaultPlan::new(n)
        .crash_stop(1, 3)
        .crash_stop(3, 0)
        .crash_poised(5, 2);
    let (report, probes) = run_chaos_probed(
        procs,
        random_wirings(n, seed),
        n,
        SnapRegister::default(),
        &plan,
        config,
        |_| CampaignProbe::default(),
    )
    .expect("valid chaos config");

    let survivors = [0usize, 2, 4];
    let outcomes = report.outcomes.clone();
    gather(
        "snapshot_crash",
        n,
        seed,
        started,
        outcomes,
        probes,
        Vec::new(),
        || {
            let mut ok = true;
            let mut notes = Vec::new();
            for &s in &survivors {
                if !report.outcomes[s].is_completed() || report.outputs[s].len() != 1 {
                    ok = false;
                    notes.push(format!("p{s} did not complete with one view"));
                    continue;
                }
                if !report.outputs[s][0].contains(&inputs[s]) {
                    ok = false;
                    notes.push(format!("p{s} view misses own input"));
                }
            }
            for &a in &survivors {
                for &b in &survivors {
                    if report.outputs[a].len() == 1
                        && report.outputs[b].len() == 1
                        && !report.outputs[a][0].comparable(&report.outputs[b][0])
                    {
                        ok = false;
                        notes.push(format!("views of p{a} and p{b} incomparable"));
                    }
                }
            }
            let crashed = report.outcomes.iter().filter(|o| o.is_crashed()).count();
            if crashed != 3 {
                ok = false;
                notes.push(format!("expected 3 crashes, saw {crashed}"));
            }
            if report.covered_registers().len() != 1 {
                ok = false;
                notes.push("expected exactly one covered register".into());
            }
            if notes.is_empty() {
                notes.push(format!(
                    "3 survivors valid+comparable, covering r{}",
                    report.covered_registers()[0]
                ));
            }
            (ok, notes.join("; "))
        },
    )
}

/// Renaming under mixed faults: surviving names distinct and within the
/// `M(M+1)/2` bound of Section 6.
fn renaming_chaos_scenario(seed: u64, config: &ChaosConfig) -> ScenarioResult {
    let started = Instant::now();
    let n = 5;
    let bound = n * (n + 1) / 2;
    let procs: Vec<RenamingProcess<u32>> =
        (0..n as u32).map(|x| RenamingProcess::new(x, n)).collect();
    let plan = FaultPlan::new(n)
        .crash_poised(0, 1)
        .crash_stop(2, 4)
        .stall_once(3, 5, Duration::from_millis(1));
    let (report, probes) = run_chaos_probed(
        procs,
        random_wirings(n, seed.wrapping_add(1000)),
        n,
        SnapRegister::default(),
        &plan,
        config,
        |_| CampaignProbe::default(),
    )
    .expect("valid chaos config");

    let outcomes = report.outcomes.clone();
    gather(
        "renaming_chaos",
        n,
        seed,
        started,
        outcomes,
        probes,
        Vec::new(),
        || {
            let mut ok = true;
            let mut notes = Vec::new();
            let mut names = Vec::new();
            for (i, o) in report.outcomes.iter().enumerate() {
                if o.is_crashed() {
                    continue;
                }
                if !o.is_completed() || report.outputs[i].len() != 1 {
                    ok = false;
                    notes.push(format!("survivor p{i} did not complete with one name"));
                    continue;
                }
                names.push(report.outputs[i][0]);
            }
            for &name in &names {
                if !(1..=bound).contains(&name) {
                    ok = false;
                    notes.push(format!("name {name} outside 1..={bound}"));
                }
            }
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != names.len() {
                ok = false;
                notes.push(format!("duplicate names: {names:?}"));
            }
            if notes.is_empty() {
                notes.push(format!("names {names:?} distinct within 1..={bound}"));
            }
            (ok, notes.join("; "))
        },
    )
}

/// Consensus with per-processor backoff arbiters under a stall storm: all
/// processors must still decide one common value.
fn consensus_backoff_scenario(seed: u64, config: &ChaosConfig) -> ScenarioResult {
    let started = Instant::now();
    let n = 4;
    let inputs: Vec<u32> = vec![10, 20, 30, 40];
    let procs: Vec<ConsensusProcess<u32>> = inputs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            ConsensusProcess::new(x, n).with_backoff(BackoffArbiter::new(
                seed.wrapping_mul(31).wrapping_add(i as u64),
                Duration::from_micros(20),
                Duration::from_millis(5),
            ))
        })
        .collect();
    let stats: Vec<_> = procs
        .iter()
        .map(|p| p.backoff_stats().expect("arbiter attached"))
        .collect();
    // A stall storm on half the processors: repeated simulated preemptions
    // between shared-memory operations.
    let plan = FaultPlan::new(n)
        .stall_every(1, 3, Duration::from_micros(200))
        .stall_every(2, 4, Duration::from_micros(150));
    let (report, probes) = run_chaos_probed(
        procs,
        random_wirings(n, seed.wrapping_add(2000)),
        n,
        SnapRegister::default(),
        &plan,
        config,
        |_| CampaignProbe::default(),
    )
    .expect("valid chaos config");

    let backoff_events: Vec<BackoffEvent> = stats
        .iter()
        .enumerate()
        .map(|(i, s)| s.event_for(i))
        .collect();
    let outcomes = report.outcomes.clone();
    gather(
        "consensus_backoff",
        n,
        seed,
        started,
        outcomes,
        probes,
        backoff_events,
        || {
            let mut ok = true;
            let mut notes = Vec::new();
            let decisions: Vec<u32> = report
                .outputs
                .iter()
                .filter_map(|os| os.first().copied())
                .collect();
            if !report.all_completed() {
                ok = false;
                notes.push(format!("not all decided: {:?}", report.outcomes));
            }
            if decisions.is_empty() {
                ok = false;
                notes.push("no processor decided".into());
            } else {
                if !decisions.windows(2).all(|w| w[0] == w[1]) {
                    ok = false;
                    notes.push(format!("disagreement: {decisions:?}"));
                }
                if !inputs.contains(&decisions[0]) {
                    ok = false;
                    notes.push(format!("invalid decision {}", decisions[0]));
                }
            }
            let attempts: u64 = stats.iter().map(|s| s.attempts()).sum();
            let backoffs: u64 = stats.iter().map(|s| s.backoffs()).sum();
            if notes.is_empty() {
                notes.push(format!(
                    "decided {} (attempts {attempts}, backoffs {backoffs})",
                    decisions[0]
                ));
            }
            (ok, notes.join("; "))
        },
    )
}

/// An injected `step` panic plus a crash-stop: the panic is contained as a
/// per-processor outcome and the survivors still solve the task.
fn panic_containment_scenario(seed: u64, config: &ChaosConfig) -> ScenarioResult {
    let started = Instant::now();
    let n = 4;
    let inputs: Vec<u32> = (0..n as u32).collect();
    let procs: Vec<SnapshotProcess<u32>> =
        inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    let plan = FaultPlan::new(n).panic_at(1, 2).crash_stop(3, 1);
    let (report, probes) = run_chaos_probed(
        procs,
        random_wirings(n, seed.wrapping_add(3000)),
        n,
        SnapRegister::default(),
        &plan,
        config,
        |_| CampaignProbe::default(),
    )
    .expect("valid chaos config");

    let outcomes = report.outcomes.clone();
    gather(
        "panic_containment",
        n,
        seed,
        started,
        outcomes,
        probes,
        Vec::new(),
        || {
            let mut ok = true;
            let mut notes = Vec::new();
            if !matches!(report.outcomes[1], ProcOutcome::Panicked { .. }) {
                ok = false;
                notes.push(format!(
                    "expected panic on p1, got {:?}",
                    report.outcomes[1]
                ));
            }
            for &s in &[0usize, 2] {
                if !report.outcomes[s].is_completed()
                    || report.outputs[s].len() != 1
                    || !report.outputs[s][0].contains(&inputs[s])
                {
                    ok = false;
                    notes.push(format!("survivor p{s} invalid"));
                }
            }
            if report.outputs[0].len() == 1
                && report.outputs[2].len() == 1
                && !report.outputs[0][0].comparable(&report.outputs[2][0])
            {
                ok = false;
                notes.push("survivor views incomparable".into());
            }
            if notes.is_empty() {
                notes.push("panic contained, survivors valid".into());
            }
            (ok, notes.join("; "))
        },
    )
}

fn scenario_json(r: &ScenarioResult) -> Value {
    let mut obj = Map::new();
    obj.insert("scenario".into(), Value::String(r.scenario.into()));
    obj.insert("n".into(), (r.n as u64).to_value());
    obj.insert("seed".into(), r.seed.to_value());
    obj.insert(
        "outcomes".into(),
        Value::Array(r.outcomes.iter().map(serde_json::to_value).collect()),
    );
    obj.insert(
        "outcome_labels".into(),
        Value::Array(
            r.outcomes
                .iter()
                .map(|o| Value::String(outcome_label(o)))
                .collect(),
        ),
    );
    obj.insert("reads".into(), r.reads.to_value());
    obj.insert("writes".into(), r.writes.to_value());
    obj.insert(
        "chaos_events".into(),
        Value::Array(r.chaos_events.iter().map(serde_json::to_value).collect()),
    );
    obj.insert(
        "backoff_events".into(),
        Value::Array(r.backoff_events.iter().map(serde_json::to_value).collect()),
    );
    obj.insert("checks_passed".into(), Value::Bool(r.checks_passed));
    obj.insert("detail".into(), Value::String(r.detail.clone()));
    obj.insert("elapsed_ms".into(), r.elapsed_ms.to_value());
    Value::Object(obj)
}

/// Runs the campaign and writes `results/chaos_report.json` plus
/// `results/chaos_events.jsonl`; prints a markdown summary. `smoke` cuts to
/// one seed per scenario (CI); `seed_base` offsets every scenario seed;
/// `out_path` overrides the JSON artifact path.
///
/// # Panics
///
/// Panics if any scenario's invariant checks fail (the campaign doubles as
/// an acceptance test), or if artifacts cannot be written.
pub fn run_campaign(
    smoke: bool,
    seed_base: u64,
    out_path: Option<&str>,
    telemetry: Option<std::sync::Arc<fa_obs::MetricRegistry>>,
) {
    let seeds: Vec<u64> = if smoke { vec![0] } else { vec![0, 1, 2] };
    // Generous deadlines: the scenarios finish in milliseconds, the
    // deadline only bounds pathological machines (loaded CI runners).
    let deadline = Duration::from_secs(if smoke { 60 } else { 120 });
    let mut config = ChaosConfig::new(MAX_STEPS).with_deadline(deadline);
    if let Some(registry) = telemetry {
        config = config.with_telemetry(registry);
    }

    let mut results = Vec::new();
    for &s in &seeds {
        let seed = seed_base.wrapping_add(s);
        results.push(snapshot_crash_scenario(seed, &config));
        results.push(renaming_chaos_scenario(seed, &config));
        results.push(consensus_backoff_scenario(seed, &config));
        results.push(panic_containment_scenario(seed, &config));
    }

    // JSON artifact.
    let mut root = Map::new();
    root.insert("schema_version".into(), 1u64.to_value());
    root.insert("experiment".into(), Value::String("chaos_campaign".into()));
    root.insert("smoke".into(), Value::Bool(smoke));
    root.insert("seed_base".into(), seed_base.to_value());
    root.insert(
        "scenarios".into(),
        Value::Array(results.iter().map(scenario_json).collect()),
    );
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize report");
    fs::create_dir_all("results").expect("create results dir");
    let path = out_path.unwrap_or("results/chaos_report.json");
    let mut f = fs::File::create(path).expect("create report");
    writeln!(f, "{json}").expect("write report");

    // Event stream: every chaos and backoff event, one JSON object per line.
    let mut sink = JsonlSink::new(Vec::new());
    for r in &results {
        for ev in &r.chaos_events {
            sink.on_event(&ProbeEvent::Chaos(ev.clone()));
        }
        for ev in &r.backoff_events {
            sink.on_event(&ProbeEvent::Backoff(ev.clone()));
        }
    }
    fs::write("results/chaos_events.jsonl", sink.into_inner()).expect("write event stream");

    // Markdown summary.
    println!("== chaos campaign: fault injection on real threads ==\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.n.to_string(),
                r.seed.to_string(),
                r.outcomes
                    .iter()
                    .map(outcome_label)
                    .collect::<Vec<_>>()
                    .join(","),
                (r.reads + r.writes).to_string(),
                r.chaos_events.len().to_string(),
                r.backoff_events
                    .iter()
                    .map(|b| b.backoffs)
                    .sum::<u64>()
                    .to_string(),
                if r.checks_passed { "pass" } else { "FAIL" }.to_string(),
                r.elapsed_ms.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario",
            "n",
            "seed",
            "outcomes",
            "ops",
            "chaos evts",
            "backoffs",
            "checks",
            "ms",
        ],
        &rows,
    );
    for r in &results {
        println!("  {} seed {}: {}", r.scenario, r.seed, r.detail);
    }
    println!(
        "\nwrote {path} ({} scenario runs) and results/chaos_events.jsonl",
        results.len()
    );

    let failures: Vec<&ScenarioResult> = results.iter().filter(|r| !r.checks_passed).collect();
    assert!(
        failures.is_empty(),
        "chaos campaign checks failed: {:?}",
        failures
            .iter()
            .map(|r| format!("{} seed {}: {}", r.scenario, r.seed, r.detail))
            .collect::<Vec<_>>()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels_are_compact() {
        assert_eq!(outcome_label(&ProcOutcome::Completed), "ok");
        assert_eq!(
            outcome_label(&ProcOutcome::Crashed {
                after_ops: 3,
                covering: None
            }),
            "crash@3"
        );
        assert_eq!(
            outcome_label(&ProcOutcome::Crashed {
                after_ops: 2,
                covering: Some(4)
            }),
            "poised@2->r4"
        );
        assert_eq!(
            outcome_label(&ProcOutcome::Panicked {
                message: "x".into()
            }),
            "panic"
        );
    }

    #[test]
    fn acceptance_scenario_passes() {
        let config = ChaosConfig::new(MAX_STEPS).with_deadline(Duration::from_secs(60));
        let r = snapshot_crash_scenario(0, &config);
        assert!(r.checks_passed, "{}", r.detail);
        assert_eq!(r.outcomes.iter().filter(|o| o.is_crashed()).count(), 3);
        assert!(!r.chaos_events.is_empty());
    }

    #[test]
    fn consensus_scenario_decides_under_stall_storm() {
        let config = ChaosConfig::new(MAX_STEPS).with_deadline(Duration::from_secs(60));
        let r = consensus_backoff_scenario(0, &config);
        assert!(r.checks_passed, "{}", r.detail);
        assert!(r.backoff_events.iter().any(|b| b.attempts > 0));
    }
}
