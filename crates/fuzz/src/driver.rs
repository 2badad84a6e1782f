//! The fuzz driver: case execution, parallel campaigns, and the
//! delta-debugging schedule shrinker.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use fa_core::{ConsensusProcess, RenamingProcess, SnapRegister, SnapshotProcess};
use fa_memory::{
    CrashingScheduler, Executor, MemoryError, PctScheduler, ProcId, Process, RandomScheduler,
    Scheduler, ScriptedSchedule, SharedMemory,
};
use fa_obs::{FuzzEvent, MetricRegistry, Probe, ProbeEvent};

use crate::case::{Algo, AlgoKind, CaseGen, FuzzCase};
use crate::oracle::{ConsensusOracle, Oracle, RenamingOracle, SnapshotOracle, Violation};
use crate::repro::ReproArtifact;
use crate::telemetry::FuzzTelemetry;

/// Outcome of one executed case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Executor steps actually taken.
    pub steps: usize,
    /// First oracle violation, if any.
    pub violation: Option<Violation>,
    /// The executed schedule (one entry per step, from the trace). This is
    /// the complete causal record: crashes and budget exhaustion are both
    /// just absences from it.
    pub schedule: Vec<ProcId>,
    /// Canonical end-state pattern (per-processor stable views for
    /// snapshot/renaming, the sorted decision multiset for consensus) — the
    /// campaign's coverage proxy.
    pub pattern: Vec<Vec<u32>>,
    /// Per-processor first outputs rendered to JSON, for end-state
    /// comparisons in corpus tests.
    pub outputs: Vec<Option<serde_json::Value>>,
}

/// Runs one case under its own adversary: [`PctScheduler`] when
/// `pct_depth > 0`, the uniform [`RandomScheduler`] otherwise, either one
/// wrapped in a [`CrashingScheduler`] carrying the case's crash set.
///
/// # Panics
///
/// Panics if the case is malformed (non-permutation wirings, fewer than two
/// processors) — generated and corpus cases never are.
#[must_use]
pub fn run_case(case: &FuzzCase) -> CaseResult {
    let n = case.n();
    let rng = ChaCha8Rng::seed_from_u64(case.schedule_seed);
    if case.pct_depth > 0 {
        let pct = PctScheduler::new(rng, n, case.pct_depth, case.pct_horizon);
        dispatch(case, &mut with_crashes(pct, case))
    } else {
        dispatch(case, &mut with_crashes(RandomScheduler::new(rng), case))
    }
}

/// Replays a case under an explicit schedule (halted entries skipped), with
/// the crash set disabled: a scripted schedule already encodes every
/// absence. This is the deterministic replay path used by the shrinker and
/// by repro artifacts.
#[must_use]
pub fn replay_case(case: &FuzzCase, schedule: &[ProcId]) -> CaseResult {
    let mut sched = ScriptedSchedule::new(schedule.to_vec()).skip_halted();
    let mut scripted = case.clone();
    scripted.crash_after = vec![None; case.n()];
    scripted.budget = case.budget.max(schedule.len());
    dispatch(&scripted, &mut sched)
}

fn with_crashes<S: Scheduler>(inner: S, case: &FuzzCase) -> CrashingScheduler<S> {
    let mut crashing = CrashingScheduler::new(inner, case.n());
    for (i, crash) in case.crash_after.iter().enumerate() {
        if let Some(k) = crash {
            crashing = crashing.crash_after(ProcId(i), *k);
        }
    }
    crashing
}

fn dispatch(case: &FuzzCase, sched: &mut dyn Scheduler) -> CaseResult {
    let wirings = case.wirings();
    match &case.algo {
        Algo::Snapshot { terminate_level } => {
            let procs: Vec<SnapshotProcess<u32>> = case
                .inputs
                .iter()
                .map(|&x| match terminate_level {
                    Some(l) => SnapshotProcess::with_terminate_level(x, case.registers, *l),
                    None => SnapshotProcess::new(x, case.registers),
                })
                .collect();
            let memory = SharedMemory::new(case.registers, SnapRegister::default(), wirings)
                .expect("case wirings are well-formed");
            let exec = Executor::new(procs, memory).expect("case has >= 2 processors");
            let oracle = SnapshotOracle::new(&case.inputs, case.registers);
            drive(case, exec, oracle, sched, |exec| {
                views_pattern(exec, case.n(), SnapshotProcess::view)
            })
        }
        Algo::Renaming => {
            let procs: Vec<RenamingProcess<u32>> = case
                .inputs
                .iter()
                .map(|&x| RenamingProcess::new(x, case.registers))
                .collect();
            let memory = SharedMemory::new(case.registers, SnapRegister::default(), wirings)
                .expect("case wirings are well-formed");
            let exec = Executor::new(procs, memory).expect("case has >= 2 processors");
            let oracle = RenamingOracle::new(&case.inputs);
            drive(case, exec, oracle, sched, |exec| {
                views_pattern(exec, case.n(), RenamingProcess::view)
            })
        }
        Algo::Consensus { naive_unseen_rule } => {
            let procs: Vec<ConsensusProcess<u32>> = case
                .inputs
                .iter()
                .map(|&x| {
                    if *naive_unseen_rule {
                        ConsensusProcess::with_naive_unseen_rule(x, case.registers)
                    } else {
                        ConsensusProcess::new(x, case.registers)
                    }
                })
                .collect();
            let memory = SharedMemory::new(case.registers, SnapRegister::default(), wirings)
                .expect("case wirings are well-formed");
            let exec = Executor::new(procs, memory).expect("case has >= 2 processors");
            let oracle = ConsensusOracle::new(&case.inputs);
            drive(case, exec, oracle, sched, |exec| {
                let mut decided: Vec<u32> = (0..case.n())
                    .filter_map(|i| exec.first_output(ProcId(i)).copied())
                    .collect();
                decided.sort_unstable();
                vec![decided]
            })
        }
    }
}

/// Canonical per-processor view pattern for snapshot-family algorithms.
fn views_pattern<P, F>(exec: &Executor<P>, n: usize, view_of: F) -> Vec<Vec<u32>>
where
    P: Process,
    P::Value: Clone,
    P::Output: Clone,
    F: Fn(&P) -> &fa_core::View<u32>,
{
    (0..n)
        .map(|i| view_of(exec.process(ProcId(i))).iter().collect())
        .collect()
}

fn drive<P, O, F>(
    case: &FuzzCase,
    mut exec: Executor<P>,
    mut oracle: O,
    sched: &mut dyn Scheduler,
    pattern_of: F,
) -> CaseResult
where
    P: Process,
    P::Value: Clone + std::fmt::Debug,
    P::Output: Clone + std::fmt::Debug + serde::Serialize,
    O: Oracle<P>,
    F: Fn(&Executor<P>) -> Vec<Vec<u32>>,
{
    exec.record_trace(true);

    let mut violation = None;
    while exec.total_steps() < case.budget {
        let live = exec.live_procs();
        if live.is_empty() {
            break;
        }
        let Some(p) = sched.next(&live) else { break };
        if !live.contains(&p) {
            // A scripted replay may name a processor that halted earlier
            // than in the original run (the shrinker removes steps); skip.
            continue;
        }
        match exec.step_proc(p) {
            Ok(_) => {}
            Err(MemoryError::ScheduledHalted { .. }) => continue,
            Err(e) => panic!("executor rejected a live processor: {e:?}"),
        }
        if let Err(v) = oracle.check_step(&exec, p) {
            violation = Some(v);
            break;
        }
    }
    if violation.is_none() {
        if let Err(v) = oracle.check_end(&exec) {
            violation = Some(v);
        }
    }

    let schedule = exec
        .trace()
        .map(|t| t.events().iter().map(|e| e.proc).collect())
        .unwrap_or_default();
    let outputs = (0..case.n())
        .map(|i| exec.first_output(ProcId(i)).map(serde_json::to_value))
        .collect();
    CaseResult {
        steps: exec.total_steps(),
        violation,
        schedule,
        pattern: pattern_of(&exec),
        outputs,
    }
}

/// Delta-debugs a violating schedule down to a locally minimal one: removing
/// any single remaining step no longer reproduces a violation.
///
/// Classic ddmin over contiguous chunks with halving granularity; each
/// candidate is checked by deterministic replay ([`replay_case`]). The crash
/// set needs no separate minimization — a schedule prefix *is* a crash
/// pattern (a crashed processor is exactly one that takes no further steps).
#[must_use]
pub fn shrink_schedule(case: &FuzzCase, schedule: &[ProcId]) -> Vec<ProcId> {
    let mut current = schedule.to_vec();
    if replay_case(case, &current).violation.is_none() {
        // Not reproducible by replay (should not happen for these
        // deterministic processes); return unshrunk rather than lie.
        return current;
    }
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < current.len() {
            let end = (i + chunk).min(current.len());
            let mut candidate = current[..i].to_vec();
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && replay_case(case, &candidate).violation.is_some() {
                current = candidate;
                reduced = true;
                // Stay at the same offset: the next chunk slid into place.
            } else {
                i += chunk;
            }
        }
        if chunk > 1 {
            chunk = chunk.div_ceil(2).max(1);
        } else if !reduced {
            break;
        }
    }
    current
}

/// Campaign configuration for [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign label (goes into telemetry and artifact labels).
    pub campaign: String,
    /// Number of cases to generate and run.
    pub cases: usize,
    /// Campaign seed: with the same generator this reproduces every case.
    pub seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub jobs: Option<usize>,
    /// Case generator.
    pub gen: CaseGen,
    /// Optional live-metric registry; when attached, workers record
    /// `fuzz.*` counters, spans, and the per-case step histogram. Never
    /// affects the deterministic report.
    pub telemetry: Option<Arc<MetricRegistry>>,
}

impl CampaignConfig {
    fn worker_count(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }
}

/// Per-algorithm campaign tallies (deterministic across worker counts).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlgoTally {
    /// Cases run for this algorithm.
    pub cases: usize,
    /// Violating cases.
    pub violations: usize,
    /// Total executor steps.
    pub total_steps: u64,
    /// Distinct end-state patterns.
    pub distinct_patterns: usize,
}

/// Campaign outcome. Everything except `elapsed_ns` is deterministic in
/// `(generator, seed, cases)` — independent of the worker count.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct CampaignReport {
    /// Cases run.
    pub cases: usize,
    /// Total executor steps over all cases.
    pub total_steps: u64,
    /// Indices of violating cases, ascending.
    pub violations: Vec<usize>,
    /// Distinct end-state patterns across all cases.
    pub distinct_patterns: usize,
    /// Per-algorithm tallies in [`AlgoKind`] declaration order.
    pub per_algo: Vec<(AlgoKind, AlgoTally)>,
    /// The lowest-index violation, shrunk to a minimal scripted schedule and
    /// packaged as a replayable artifact.
    pub first_repro: Option<ReproArtifact>,
    /// Wall-clock duration (excluded from deterministic comparisons).
    pub elapsed_ns: u64,
}

struct CaseSummary {
    algo: AlgoKind,
    steps: usize,
    violation: Option<Violation>,
    pattern: Vec<Vec<u32>>,
    /// Executed schedule, kept only for violating cases (shrinker input).
    schedule: Option<Vec<ProcId>>,
}

/// Runs a fuzz campaign across a worker pool: atomic work claiming,
/// per-slot results, aggregation in case-index order, so the report is
/// identical for any `jobs` value. Every case runs to completion (no early
/// abort on violation); the lowest-index violation is then shrunk serially
/// and packaged as the campaign's repro artifact. Emits one [`FuzzEvent`]
/// per algorithm family through `probe`.
///
/// # Panics
///
/// Panics only on executor misuse (a bug in this crate, not in a case).
pub fn run_campaign<Pr: Probe>(config: &CampaignConfig, probe: &mut Pr) -> CampaignReport {
    let total = config.cases;
    let jobs = config.worker_count().clamp(1, total.max(1));
    let start = Instant::now();
    let telemetry = config
        .telemetry
        .as_deref()
        .map(FuzzTelemetry::from_registry);

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<CaseSummary>> = (0..total).map(|_| OnceLock::new()).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let generate_guard = telemetry.as_ref().map(|t| t.generate.enter());
                let case = campaign_case(config, i);
                drop(generate_guard);
                let execute_guard = telemetry.as_ref().map(|t| t.execute.enter());
                let result = run_case(&case);
                drop(execute_guard);
                let violating = result.violation.is_some();
                if let Some(tel) = &telemetry {
                    tel.cases_done.inc();
                    tel.steps_total.add(result.steps as u64);
                    if violating {
                        tel.violations.inc();
                    }
                    tel.case_steps.record(result.steps as u64);
                }
                let _ = slots[i].set(CaseSummary {
                    algo: case.algo.kind(),
                    steps: result.steps,
                    violation: result.violation,
                    pattern: result.pattern,
                    schedule: violating.then_some(result.schedule),
                });
            });
        }
    });

    let mut violations = Vec::new();
    let mut total_steps = 0u64;
    let mut patterns: BTreeSet<Vec<Vec<u32>>> = BTreeSet::new();
    let mut algo_patterns: BTreeMap<AlgoKind, BTreeSet<Vec<Vec<u32>>>> = BTreeMap::new();
    let mut per_algo: Vec<(AlgoKind, AlgoTally)> =
        [AlgoKind::Snapshot, AlgoKind::Renaming, AlgoKind::Consensus]
            .iter()
            .map(|k| (*k, AlgoTally::default()))
            .collect();
    let mut first_repro = None;

    for (i, slot) in slots.iter().enumerate() {
        let summary = slot.get().expect("every claimed case completes");
        total_steps += summary.steps as u64;
        patterns.insert(summary.pattern.clone());
        let tally = &mut per_algo
            .iter_mut()
            .find(|(k, _)| *k == summary.algo)
            .expect("all kinds present")
            .1;
        tally.cases += 1;
        tally.total_steps += summary.steps as u64;
        algo_patterns
            .entry(summary.algo)
            .or_default()
            .insert(summary.pattern.clone());
        if let Some(v) = &summary.violation {
            violations.push(i);
            tally.violations += 1;
            if first_repro.is_none() {
                let case = campaign_case(config, i);
                let schedule = summary
                    .schedule
                    .clone()
                    .expect("violating cases keep their schedules");
                let shrink_guard = telemetry.as_ref().map(|t| t.shrink.enter());
                let minimal = shrink_schedule(&case, &schedule);
                drop(shrink_guard);
                first_repro = Some(ReproArtifact::new(
                    format!("{}-repro-{i}", config.campaign),
                    case,
                    &minimal,
                    Some(v.to_string()),
                ));
            }
        }
    }
    for (kind, tally) in &mut per_algo {
        tally.distinct_patterns = algo_patterns.get(kind).map_or(0, BTreeSet::len);
    }

    let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    for (kind, tally) in &per_algo {
        if tally.cases == 0 {
            continue;
        }
        probe.on_event(&ProbeEvent::Fuzz(FuzzEvent {
            campaign: config.campaign.clone(),
            algo: kind.name().to_string(),
            jobs,
            cases: tally.cases,
            violations: tally.violations,
            total_steps: tally.total_steps,
            distinct_patterns: tally.distinct_patterns,
            elapsed_ns,
        }));
    }

    CampaignReport {
        cases: total,
        total_steps,
        violations,
        distinct_patterns: patterns.len(),
        per_algo,
        first_repro,
        elapsed_ns,
    }
}

fn campaign_case(config: &CampaignConfig, index: usize) -> FuzzCase {
    let mut case = config.gen.case(config.seed, index);
    case.label = format!("{}-case-{index}", config.campaign);
    case
}
