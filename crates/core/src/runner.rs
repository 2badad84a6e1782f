//! Convenience harnesses: one-call runners for the paper's algorithms.
//!
//! These wrap the [`Executor`] plumbing (wirings,
//! memory, schedule, budget) behind small config structs so examples, tests
//! and benches don't repeat it. Everything is seeded and deterministic.

use fa_memory::{Executor, MemoryError, ProcId, RandomScheduler, SharedMemory, Wiring};
use fa_obs::{NoProbe, Probe};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{ConsensusProcess, RenamingProcess, SnapRegister, SnapshotProcess, View};

/// How register wirings are chosen for a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WiringMode {
    /// Every processor gets the identity wiring (the named-memory model —
    /// useful for baselines and as a sanity configuration).
    Identity,
    /// Independent uniformly random wirings (the fully-anonymous adversary),
    /// derived from the run seed.
    Random,
    /// Processor `i` gets cyclic shift `i` (the canonical covering
    /// adversary: everyone's "first register" differs).
    CyclicShifts,
    /// Explicit wirings, one per processor.
    Explicit(Vec<Wiring>),
}

/// Configuration for a one-shot snapshot run.
#[derive(Clone, Debug)]
pub struct SnapshotRunConfig {
    inputs: Vec<u32>,
    /// Seed for wirings and the random schedule.
    pub seed: u64,
    /// Wiring selection.
    pub wiring: WiringMode,
    /// Maximum steps before the run is abandoned.
    pub budget: usize,
    /// Termination level (defaults to `n`, the paper's rule).
    pub terminate_level: Option<usize>,
}

impl SnapshotRunConfig {
    /// A run with the given per-processor inputs, random wirings, seed 0 and
    /// a generous budget.
    #[must_use]
    pub fn new(inputs: Vec<u32>) -> Self {
        SnapshotRunConfig {
            inputs,
            seed: 0,
            wiring: WiringMode::Random,
            budget: 20_000_000,
            terminate_level: None,
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the wiring mode (builder style).
    #[must_use]
    pub fn with_wiring(mut self, wiring: WiringMode) -> Self {
        self.wiring = wiring;
        self
    }

    /// Sets the termination level (builder style; ablation knob).
    #[must_use]
    pub fn with_terminate_level(mut self, level: usize) -> Self {
        self.terminate_level = Some(level);
        self
    }

    /// The per-processor inputs.
    #[must_use]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }
}

/// Result of a snapshot run.
#[derive(Clone, Debug)]
pub struct SnapshotRunResult {
    /// Output view of each processor, by processor index.
    pub views: Vec<View<u32>>,
    /// Total steps executed.
    pub total_steps: usize,
    /// Steps per processor.
    pub steps_per_proc: Vec<usize>,
}

/// Builds wirings per the mode. `k` distinguishes the RNG stream from the
/// schedule's.
pub(crate) fn make_wirings(mode: &WiringMode, n: usize, m: usize, seed: u64) -> Vec<Wiring> {
    match mode {
        WiringMode::Identity => vec![Wiring::identity(m); n],
        WiringMode::Random => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57a8_1e55_0000_0000);
            (0..n).map(|_| Wiring::random(m, &mut rng)).collect()
        }
        WiringMode::CyclicShifts => (0..n).map(|i| Wiring::cyclic_shift(m, i)).collect(),
        WiringMode::Explicit(ws) => ws.clone(),
    }
}

/// Runs the snapshot algorithm of Figure 3 under a seeded random schedule and
/// returns all outputs.
///
/// # Errors
///
/// Propagates executor errors; notably
/// [`MemoryError::StepBudgetExhausted`] if the budget is too small.
pub fn run_snapshot_random(cfg: &SnapshotRunConfig) -> Result<SnapshotRunResult, MemoryError> {
    run_snapshot_probed(cfg, NoProbe).map(|(res, NoProbe)| res)
}

/// [`run_snapshot_random`] streaming the run into `probe` (see [`fa_obs`]).
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_snapshot_probed<Pr: Probe>(
    cfg: &SnapshotRunConfig,
    probe: Pr,
) -> Result<(SnapshotRunResult, Pr), MemoryError> {
    let n = cfg.inputs.len();
    let level = cfg.terminate_level.unwrap_or(n);
    let procs: Vec<SnapshotProcess<u32>> = cfg
        .inputs
        .iter()
        .map(|&x| SnapshotProcess::with_terminate_level(x, n, level))
        .collect();
    let wirings = make_wirings(&cfg.wiring, n, n, cfg.seed);
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings)?;
    let mut exec = Executor::with_probe(procs, memory, probe)?;
    exec.run_random(ChaCha8Rng::seed_from_u64(cfg.seed), cfg.budget)?;
    let result = SnapshotRunResult {
        views: (0..n)
            .map(|i| {
                exec.first_output(ProcId(i))
                    .expect("halted with output")
                    .clone()
            })
            .collect(),
        total_steps: exec.total_steps(),
        steps_per_proc: (0..n).map(|i| exec.steps_taken(ProcId(i))).collect(),
    };
    Ok((result, exec.into_probe()))
}

/// Runs adaptive renaming (Figure 4) under a seeded random schedule; returns
/// the name chosen by each processor.
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_renaming_random(
    inputs: &[u32],
    seed: u64,
    wiring: &WiringMode,
    budget: usize,
) -> Result<Vec<usize>, MemoryError> {
    run_renaming_probed(inputs, seed, wiring, budget, NoProbe).map(|(names, NoProbe)| names)
}

/// [`run_renaming_random`] streaming the run into `probe` (see [`fa_obs`]).
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_renaming_probed<Pr: Probe>(
    inputs: &[u32],
    seed: u64,
    wiring: &WiringMode,
    budget: usize,
    probe: Pr,
) -> Result<(Vec<usize>, Pr), MemoryError> {
    let n = inputs.len();
    let procs: Vec<RenamingProcess<u32>> =
        inputs.iter().map(|&x| RenamingProcess::new(x, n)).collect();
    let wirings = make_wirings(wiring, n, n, seed);
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings)?;
    let mut exec = Executor::with_probe(procs, memory, probe)?;
    exec.run_random(ChaCha8Rng::seed_from_u64(seed), budget)?;
    let names = (0..n)
        .map(|i| *exec.first_output(ProcId(i)).expect("halted with output"))
        .collect();
    Ok((names, exec.into_probe()))
}

/// Outcome of a consensus run (consensus is only obstruction-free, so a run
/// may legitimately not decide within its budget).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusRunResult {
    /// Decision of each processor, `None` if it had not decided when the
    /// budget ran out.
    pub decisions: Vec<Option<u32>>,
    /// Whether every processor decided.
    pub all_decided: bool,
    /// Total steps executed.
    pub total_steps: usize,
}

/// Runs obstruction-free consensus (Figure 5) under a seeded random schedule.
///
/// With positive `boost_solo_tail`, after the random phase each undecided
/// processor is run solo for that many steps — a convenient way to guarantee
/// termination while still exercising contention (the adversary eventually
/// backs off, which is the obstruction-freedom premise).
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_consensus_random(
    inputs: &[u32],
    seed: u64,
    wiring: &WiringMode,
    budget: usize,
    boost_solo_tail: usize,
) -> Result<ConsensusRunResult, MemoryError> {
    run_consensus_probed(inputs, seed, wiring, budget, boost_solo_tail, NoProbe)
        .map(|(res, NoProbe)| res)
}

/// [`run_consensus_random`] streaming the run into `probe` (see [`fa_obs`]).
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_consensus_probed<Pr: Probe>(
    inputs: &[u32],
    seed: u64,
    wiring: &WiringMode,
    budget: usize,
    boost_solo_tail: usize,
    probe: Pr,
) -> Result<(ConsensusRunResult, Pr), MemoryError> {
    let n = inputs.len();
    let procs: Vec<ConsensusProcess<u32>> = inputs
        .iter()
        .map(|&x| ConsensusProcess::new(x, n))
        .collect();
    let wirings = make_wirings(wiring, n, n, seed);
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings)?;
    let mut exec = Executor::with_probe(procs, memory, probe)?;
    exec.run(
        RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed)),
        budget,
    )?;
    if boost_solo_tail > 0 {
        for i in 0..n {
            if !exec.is_halted(ProcId(i)) {
                exec.run_solo(ProcId(i), boost_solo_tail)?;
            }
        }
    }
    let decisions: Vec<Option<u32>> = (0..n)
        .map(|i| exec.first_output(ProcId(i)).copied())
        .collect();
    let result = ConsensusRunResult {
        all_decided: decisions.iter().all(Option::is_some),
        decisions,
        total_steps: exec.total_steps(),
    };
    Ok((result, exec.into_probe()))
}

/// Samples a random group assignment of `n` processors into at most
/// `max_groups` groups (each group id in `0..max_groups`; ids that happen to
/// be unused simply do not participate as groups).
#[must_use]
pub fn random_group_inputs(n: usize, max_groups: usize, seed: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(0..max_groups) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_runner_solves_task_across_modes() {
        for wiring in [
            WiringMode::Identity,
            WiringMode::Random,
            WiringMode::CyclicShifts,
        ] {
            let cfg = SnapshotRunConfig::new(vec![1, 2, 3, 4])
                .with_seed(11)
                .with_wiring(wiring.clone());
            let res = run_snapshot_random(&cfg).unwrap();
            assert_eq!(res.views.len(), 4);
            for (i, v) in res.views.iter().enumerate() {
                assert!(v.contains(&cfg.inputs()[i]), "{wiring:?}");
                for w in &res.views {
                    assert!(v.comparable(w), "{wiring:?}");
                }
            }
            assert!(res.total_steps > 0);
            assert_eq!(res.steps_per_proc.len(), 4);
        }
    }

    #[test]
    fn explicit_wirings_are_used() {
        let cfg = SnapshotRunConfig::new(vec![1, 2]).with_wiring(WiringMode::Explicit(vec![
            Wiring::identity(2),
            Wiring::from_perm(vec![1, 0]).unwrap(),
        ]));
        assert!(run_snapshot_random(&cfg).is_ok());
    }

    #[test]
    fn renaming_runner_produces_valid_names() {
        let names = run_renaming_random(&[9, 4, 6], 3, &WiringMode::Random, 10_000_000).unwrap();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "distinct inputs must get distinct names");
        assert!(names.iter().all(|&n| (1..=6).contains(&n)));
    }

    #[test]
    fn consensus_runner_with_solo_tail_always_decides() {
        for seed in 0..5 {
            let res =
                run_consensus_random(&[5, 8, 2], seed, &WiringMode::Random, 200_000, 5_000_000)
                    .unwrap();
            assert!(res.all_decided, "seed {seed}");
            let d0 = res.decisions[0].unwrap();
            assert!(
                res.decisions.iter().all(|d| d.unwrap() == d0),
                "seed {seed}"
            );
            assert!([5, 8, 2].contains(&d0), "seed {seed}");
        }
    }

    #[test]
    fn random_group_inputs_in_range() {
        let inputs = random_group_inputs(10, 3, 7);
        assert_eq!(inputs.len(), 10);
        assert!(inputs.iter().all(|&g| g < 3));
        // Deterministic under seed.
        assert_eq!(inputs, random_group_inputs(10, 3, 7));
    }
}
