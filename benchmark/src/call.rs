//! The one timed call of each workload, and the checks on its outputs.

use std::path::PathBuf;

use fa_fuzz::{CampaignConfig, CampaignReport, CaseGen};
use fa_modelcheck::checks::{check_snapshot_task_coarse_with, check_snapshot_task_with};
use fa_modelcheck::{CheckConfig, CheckOutcome, CheckpointConfig, StrategyKind};
use fa_obs::NoProbe;

use crate::spec::{
    combos, inputs, CheckerSpec, FuzzSpec, Granularity, Kind, Workload, DEFAULT_SEED,
};

/// A workload made concrete for one seed: inputs drawn, journal directory
/// chosen. Everything here happens before the timed call.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    /// Checker input values (empty for fuzz, whose cases carry their own).
    pub inputs: Vec<u32>,
    /// Fresh checkpoint directory for journaling workloads.
    pub journal: Option<PathBuf>,
}

/// What the public calls returned.
pub enum Outcome {
    /// One result per sweep, in `CheckerSpec::sweeps` order.
    Checker(Vec<Result<CheckOutcome, String>>),
    Fuzz(Box<CampaignReport>),
}

/// The checked result of one call. `attempted`/`failed` count units:
/// combos for checker workloads, cases for fuzz.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Work the verdict covers: full-space states (checker) or
    /// oracle-checked executor steps (fuzz).
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    pub fn merge(&mut self, other: Verdict) {
        self.work += other.work;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Draws inputs and names a journal directory under the temp dir (the
/// parent process sets `TMPDIR` under `--out`). `tag` keeps the directories
/// of several calls in one process apart.
pub fn prepare(workload: &Workload, seed: u64, tag: &str) -> Prepared {
    let (inputs, journal) = match &workload.kind {
        Kind::Checker(c) => (
            inputs(c.n, c.symmetric, seed),
            c.checkpoint.then(|| {
                std::env::temp_dir().join(format!(
                    "fa-bench-journal-{}-{}-{tag}",
                    workload.name,
                    std::process::id()
                ))
            }),
        ),
        Kind::Fuzz(_) => (Vec::new(), None),
    };
    Prepared {
        workload: workload.clone(),
        seed,
        inputs,
        journal,
    }
}

impl Prepared {
    /// Removes the journal directory, if any. Not part of any timing.
    pub fn cleanup(&self) {
        if let Some(dir) = &self.journal {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn checker_config(spec: &CheckerSpec, journal: Option<&PathBuf>) -> CheckConfig {
    let mut config = CheckConfig::serial().with_jobs(spec.jobs);
    if let Some(workers) = spec.intra_workers {
        config = config.with_strategy(StrategyKind::IntraCombo { workers });
    }
    if spec.quotient {
        config = config.with_quotient();
    }
    if let Some(budget) = spec.visited_budget {
        config = config.with_visited_budget(budget);
    }
    if let Some(dir) = journal {
        config = config.with_checkpoint(CheckpointConfig::new(dir));
    }
    config
}

/// One `check_snapshot_task{,_coarse}_with` sweep.
pub fn run_sweep(
    p: &Prepared,
    spec: &CheckerSpec,
    gran: Granularity,
) -> Result<CheckOutcome, String> {
    let config = checker_config(spec, p.journal.as_ref());
    match gran {
        Granularity::Coarse => check_snapshot_task_coarse_with(&p.inputs, spec.cap, &config),
        Granularity::PerRead => check_snapshot_task_with(&p.inputs, spec.cap, &config),
    }
}

/// One `run_campaign` call; the campaign seed is the workload seed.
pub fn run_campaign(p: &Prepared, spec: &FuzzSpec) -> Box<CampaignReport> {
    let config = CampaignConfig {
        campaign: "benchmark".to_string(),
        cases: spec.cases,
        seed: p.seed,
        jobs: Some(spec.jobs),
        gen: CaseGen::standard(spec.ns.to_vec(), spec.budget),
        telemetry: None,
    };
    Box::new(fa_fuzz::run_campaign(&config, &mut NoProbe))
}

/// The timed call: every sweep of a checker workload, or the campaign.
pub fn execute(p: &Prepared) -> Outcome {
    match &p.workload.kind {
        Kind::Checker(spec) => Outcome::Checker(
            spec.sweeps
                .iter()
                .map(|&gran| run_sweep(p, spec, gran))
                .collect(),
        ),
        Kind::Fuzz(spec) => Outcome::Fuzz(run_campaign(p, spec)),
    }
}

pub fn verify(p: &Prepared, outcome: &Outcome) -> Verdict {
    match (&p.workload.kind, outcome) {
        (Kind::Checker(spec), Outcome::Checker(results)) => {
            let mut verdict = Verdict::default();
            for (&gran, result) in spec.sweeps.iter().zip(results) {
                verdict.merge(verify_sweep(spec, gran, result));
            }
            verdict
        }
        (Kind::Fuzz(spec), Outcome::Fuzz(report)) => verify_campaign(spec, p.seed, report),
        _ => unreachable!("outcome kind follows the workload kind"),
    }
}

fn verify_sweep(
    spec: &CheckerSpec,
    gran: Granularity,
    result: &Result<CheckOutcome, String>,
) -> Verdict {
    let expected = combos(spec.n);
    let mut v = Verdict {
        attempted: expected as u64,
        ..Verdict::default()
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            v.failed = v.attempted;
            v.errors.push(format!("{} sweep failed: {e}", gran.name()));
            return v;
        }
    };
    let report = &outcome.report;
    let per_combo = &outcome.telemetry.per_combo_states;
    let mut err = |msg: String| v.errors.push(format!("{} sweep: {msg}", gran.name()));
    if report.total_combos != expected || report.combos != expected {
        err(format!(
            "explored {} of {} combos, expected {expected} of {expected}",
            report.combos, report.total_combos
        ));
    }
    let off_cap = per_combo.iter().filter(|&&s| s != spec.cap).count();
    if off_cap > 0 {
        err(format!(
            "{off_cap} combos did not reach the {}-state cap",
            spec.cap
        ));
    }
    if let Some(violation) = &report.violation {
        err(format!("violation: {violation}"));
    }
    let missing = expected.saturating_sub(per_combo.len());
    let failed = off_cap + missing + usize::from(report.violation.is_some());
    match (&report.quotient, spec.quotient) {
        (Some(q), true) => {
            if q.canonical_states != q.combos_explored * spec.cap
                || q.full_states_estimate < q.canonical_states as u64
            {
                err(format!("inconsistent quotient ledger {q:?}"));
            }
            if let Some(l) = spec.ledger {
                if (q.combos_explored, q.full_states_estimate, q.spilled_shards)
                    != (l.classes, l.full_states, l.spilled_shards)
                {
                    err(format!("quotient ledger {q:?}, expected {l:?}"));
                }
            }
            v.work = q.full_states_estimate as f64;
        }
        (None, false) => v.work = report.total_states as f64,
        _ => err("quotient ledger present iff the sweep is quotiented".to_string()),
    }
    v.failed = failed.min(expected) as u64;
    v
}

fn verify_campaign(spec: &FuzzSpec, seed: u64, report: &CampaignReport) -> Verdict {
    let mut v = Verdict {
        work: report.total_steps as f64,
        attempted: spec.cases as u64,
        failed: (report.violations.len() as u64).min(spec.cases as u64),
        errors: Vec::new(),
    };
    let tallied: usize = report.per_algo.iter().map(|(_, t)| t.cases).sum();
    if report.cases != spec.cases || tallied != spec.cases {
        v.errors.push(format!(
            "campaign ran {} cases ({tallied} tallied), expected {}",
            report.cases, spec.cases
        ));
    }
    if !report.violations.is_empty() {
        v.errors.push(format!(
            "{} violating cases, first {:?}",
            report.violations.len(),
            report.first_repro.as_ref().map(|a| &a.violation)
        ));
    }
    if let (Some((steps, patterns)), DEFAULT_SEED) = (spec.default_seed_expect, seed) {
        if (report.total_steps, report.distinct_patterns) != (steps, patterns) {
            v.errors.push(format!(
                "default seed gave {} steps and {} patterns, expected {steps} and {patterns}",
                report.total_steps, report.distinct_patterns
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;

    /// Every workload, shrunk, runs in-process and passes its own checks.
    #[test]
    fn shrunken_workloads_pass_their_checks() {
        for w in workloads() {
            let p = prepare(&w.shrunk(200), crate::spec::DEFAULT_SEED, "test");
            let verdict = verify(&p, &execute(&p));
            p.cleanup();
            assert!(
                verdict.errors.is_empty(),
                "{}: {:?}",
                w.name,
                verdict.errors
            );
            assert_eq!(verdict.failed, 0, "{}", w.name);
            assert!(verdict.attempted > 0 && verdict.work > 0.0, "{}", w.name);
        }
    }

    /// A cap the sweeps cannot reach fails the per-combo check.
    #[test]
    fn an_unreached_cap_is_a_failure() {
        let w = crate::spec::workload("e3-n3").expect("known workload");
        let Kind::Checker(spec) = &w.kind else {
            unreachable!()
        };
        let mut spec = spec.clone();
        spec.cap = 50_000_000;
        spec.sweeps = &[Granularity::Coarse];
        let shrunk = Workload {
            kind: Kind::Checker(CheckerSpec { n: 2, ..spec }),
            ..w
        };
        let p = prepare(&shrunk, 1, "test");
        let verdict = verify(&p, &execute(&p));
        assert!(verdict.failed > 0);
        assert!(!verdict.errors.is_empty());
    }

    /// The exact full-size expectations are checked, not just carried.
    #[test]
    fn wrong_ledger_or_fuzz_totals_are_errors() {
        let wrong = |w: Workload| {
            let kind = match w.kind {
                Kind::Checker(c) => Kind::Checker(CheckerSpec {
                    ledger: Some(crate::spec::Ledger {
                        classes: 1,
                        full_states: 1,
                        spilled_shards: 1,
                    }),
                    ..c
                }),
                Kind::Fuzz(f) => Kind::Fuzz(FuzzSpec {
                    default_seed_expect: Some((1, 1)),
                    ..f
                }),
            };
            Workload { kind, ..w }
        };
        for name in ["e24-n4-quotient", "e19-fuzz"] {
            let w = crate::spec::workload(name)
                .expect("known workload")
                .shrunk(200);
            let p = prepare(&wrong(w), crate::spec::DEFAULT_SEED, "test");
            let verdict = verify(&p, &execute(&p));
            assert_eq!(verdict.errors.len(), 1, "{name}: {:?}", verdict.errors);
        }
    }
}
