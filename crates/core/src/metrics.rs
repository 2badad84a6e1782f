//! Execution metrics: level and view trajectories of the snapshot algorithm.
//!
//! The level mechanism is the paper's key device; these metrics make its
//! dynamics observable — how levels climb toward `N`, how contention resets
//! them to 0, and how view sizes grow — feeding the `level_dynamics`
//! experiment binary and the contention benchmarks.
//!
//! Built on the [`fa_obs`] probe layer: the executor reports reads, writes
//! and covering sizes through the probe, and this module adds the one event
//! the executor cannot see — [`level resets`](fa_obs::ResetEvent), which are
//! a property of the snapshot algorithm's state, not of the memory. Pass any
//! probe (e.g. [`fa_obs::RunMetrics`] or a [`fa_obs::JsonlSink`]) to
//! [`snapshot_trajectories_probed`] to capture the full stream.

use fa_memory::{Executor, MemoryError, ProcId, RandomScheduler, Scheduler, SharedMemory};
use fa_obs::{Probe, ProbeEvent, ResetEvent, RunMetrics};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::runner::{make_wirings, WiringMode};
use crate::{SnapRegister, SnapshotProcess};

/// One observed change of a processor's `(level, view size)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Global time (step index) of the change.
    pub time: u64,
    /// The processor's level after the step.
    pub level: usize,
    /// The processor's view size after the step.
    pub view_size: usize,
}

/// Level/view trajectories of one snapshot run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SnapshotTrajectories {
    /// Change points per processor, in time order.
    pub per_proc: Vec<Vec<TrajectoryPoint>>,
    /// Number of level *resets* (level dropping to 0 from a positive value)
    /// per processor — the direct measure of covering interference.
    pub resets: Vec<usize>,
    /// Highest level each processor reached.
    pub peak_level: Vec<usize>,
    /// Total steps of the run.
    pub total_steps: usize,
    /// Whether every processor terminated within the budget.
    pub completed: bool,
}

/// Runs the snapshot algorithm under a seeded random schedule, recording the
/// level/view trajectory of every processor.
///
/// # Errors
///
/// Propagates executor errors.
pub fn snapshot_trajectories(
    inputs: &[u32],
    wiring: &WiringMode,
    seed: u64,
    budget: usize,
) -> Result<SnapshotTrajectories, MemoryError> {
    let sched = RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed));
    snapshot_trajectories_probed(inputs, wiring, seed, sched, budget, RunMetrics::new())
        .map(|(t, _metrics)| t)
}

/// [`snapshot_trajectories`] under an arbitrary schedule, streaming the run
/// into `probe`.
///
/// The executor feeds the probe its read/write/output/covering events; this
/// loop adds a [`ProbeEvent::Reset`] whenever a processor's level drops from a
/// positive value to 0. The probe is returned alongside the trajectories, so
/// a [`RunMetrics`] passed in comes back with `resets` matching
/// [`SnapshotTrajectories::resets`].
///
/// The executor's clock ([`Executor::time`]) is the single authoritative
/// step counter: it bounds the run at `budget`, stamps every
/// [`TrajectoryPoint::time`], and is returned as
/// [`SnapshotTrajectories::total_steps`].
///
/// # Errors
///
/// Propagates executor errors.
pub fn snapshot_trajectories_probed<S: Scheduler, Pr: Probe>(
    inputs: &[u32],
    wiring: &WiringMode,
    seed: u64,
    mut sched: S,
    budget: usize,
    probe: Pr,
) -> Result<(SnapshotTrajectories, Pr), MemoryError> {
    let n = inputs.len();
    let procs: Vec<SnapshotProcess<u32>> =
        inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
    let wirings = make_wirings(wiring, n, n, seed);
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings)?;
    let mut exec = Executor::with_probe(procs, memory, probe)?;

    let mut per_proc: Vec<Vec<TrajectoryPoint>> = vec![Vec::new(); n];
    let mut resets = vec![0usize; n];
    let mut peak_level = vec![0usize; n];
    let mut last: Vec<(usize, usize)> = (0..n)
        .map(|i| {
            let p = exec.process(ProcId(i));
            (p.level(), p.view().len())
        })
        .collect();
    for (i, &(level, size)) in last.iter().enumerate() {
        per_proc[i].push(TrajectoryPoint {
            time: 0,
            level,
            view_size: size,
        });
    }

    let budget = u64::try_from(budget).unwrap_or(u64::MAX);
    while exec.time() < budget && !exec.all_halted() {
        let live = exec.live_procs();
        let Some(p) = sched.next(&live) else { break };
        exec.step_proc(p)?;
        let time = exec.time();
        let (level, size) = {
            let proc = exec.process(p);
            (proc.level(), proc.view().len())
        };
        let (old_level, old_size) = last[p.0];
        if (level, size) != (old_level, old_size) {
            per_proc[p.0].push(TrajectoryPoint {
                time,
                level,
                view_size: size,
            });
            if level == 0 && old_level > 0 {
                resets[p.0] += 1;
                exec.probe_mut().on_event(&ProbeEvent::Reset(ResetEvent {
                    proc_id: p.0,
                    time,
                    from_level: old_level as u64,
                }));
            }
            peak_level[p.0] = peak_level[p.0].max(level);
            last[p.0] = (level, size);
        }
    }

    let trajectories = SnapshotTrajectories {
        per_proc,
        resets,
        peak_level,
        total_steps: usize::try_from(exec.time()).unwrap_or(usize::MAX),
        completed: exec.all_halted(),
    };
    Ok((trajectories, exec.into_probe()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_memory::{Action, ScriptedSchedule};

    #[test]
    fn trajectories_capture_level_climb() {
        let t = snapshot_trajectories(&[1, 2, 3], &WiringMode::Random, 5, 10_000_000).unwrap();
        assert!(t.completed);
        assert_eq!(t.per_proc.len(), 3);
        // Every processor reaches the termination level n = 3.
        assert!(t.peak_level.iter().all(|&l| l == 3), "{:?}", t.peak_level);
        // Trajectories are time-ordered and start at level 0.
        for traj in &t.per_proc {
            assert_eq!(traj[0].level, 0);
            assert!(traj.windows(2).all(|w| w[0].time < w[1].time));
        }
    }

    #[test]
    fn view_sizes_never_shrink() {
        let t =
            snapshot_trajectories(&[1, 2, 3, 4], &WiringMode::CyclicShifts, 9, 10_000_000).unwrap();
        for traj in &t.per_proc {
            assert!(traj.windows(2).all(|w| w[0].view_size <= w[1].view_size));
        }
    }

    /// Builds, by direct simulation, a schedule that provably forces a level
    /// reset on processor 0: run it solo until it reaches level 1 and is
    /// poised to scan, let the starved processor 1 perform exactly its first
    /// (covering) write, then let processor 0 complete the now-dirty scan.
    fn reset_forcing_script(inputs: &[u32]) -> Vec<usize> {
        let n = inputs.len();
        let procs: Vec<SnapshotProcess<u32>> =
            inputs.iter().map(|&x| SnapshotProcess::new(x, n)).collect();
        let wirings = make_wirings(&WiringMode::Identity, n, n, 0);
        let memory = SharedMemory::new(n, SnapRegister::default(), wirings).unwrap();
        let mut exec = Executor::new(procs, memory).unwrap();
        let mut script = Vec::new();
        let step0 = |exec: &mut Executor<SnapshotProcess<u32>>, script: &mut Vec<usize>| {
            exec.step_proc(ProcId(0)).unwrap();
            script.push(0);
        };

        // Phase 1: processor 0 alone climbs to level 1 (clean solo scan)...
        for _ in 0..10_000 {
            if exec.process(ProcId(0)).level() >= 1 {
                break;
            }
            step0(&mut exec, &mut script);
        }
        assert_eq!(
            exec.process(ProcId(0)).level(),
            1,
            "phase 1 must reach level 1"
        );
        // ...and continues through its write rotation until a scan read is
        // pending (its level can only change at the end of that scan).
        for _ in 0..10_000 {
            if matches!(exec.pending_action(ProcId(0)), Some(Action::Read { .. })) {
                break;
            }
            step0(&mut exec, &mut script);
        }
        assert!(matches!(
            exec.pending_action(ProcId(0)),
            Some(Action::Read { .. })
        ));

        // Phase 2: the starved processor 1 takes one step — its initial
        // write, landing after processor 0's rotation but before its scan.
        exec.step_proc(ProcId(1)).unwrap();
        script.push(1);

        // Phase 3: processor 0 finishes the scan, sees foreign content, and
        // must reset to level 0.
        for _ in 0..10_000 {
            if exec.process(ProcId(0)).level() == 0 {
                break;
            }
            step0(&mut exec, &mut script);
        }
        assert_eq!(exec.process(ProcId(0)).level(), 0, "dirty scan must reset");
        script
    }

    #[test]
    fn contention_causes_resets() {
        // Deterministic covering interference: an explicitly scripted
        // adversary (no RNG) forces processor 0 through a level-1 → 0 reset.
        let inputs = [1, 2, 3];
        let script = reset_forcing_script(&inputs);
        let sched = ScriptedSchedule::from_indices(script.iter().copied());
        let (t, metrics) = snapshot_trajectories_probed(
            &inputs,
            &WiringMode::Identity,
            0,
            sched,
            script.len() + 1,
            RunMetrics::new(),
        )
        .unwrap();
        assert_eq!(t.resets[0], 1, "scripted covering must reset processor 0");
        assert_eq!(t.resets[1..], [0, 0]);
        // The probe saw the same reset (with its pre-reset level) and the
        // covering the adversary assembled.
        assert_eq!(metrics.per_proc[0].resets, 1);
        assert_eq!(metrics.total_resets(), 1);
        assert!(
            metrics.peak_covering >= 1,
            "starved writer covers a register"
        );
    }

    #[test]
    fn probed_and_plain_runs_agree() {
        // The probe layer is observation only: the same seed yields the same
        // trajectories with and without a recording probe, and the probe's
        // counters are consistent with the run.
        let plain = snapshot_trajectories(&[3, 1, 4], &WiringMode::Random, 42, 10_000_000).unwrap();
        let sched = RandomScheduler::new(ChaCha8Rng::seed_from_u64(42));
        let (probed, metrics) = snapshot_trajectories_probed(
            &[3, 1, 4],
            &WiringMode::Random,
            42,
            sched,
            10_000_000,
            RunMetrics::new(),
        )
        .unwrap();
        assert_eq!(plain.per_proc, probed.per_proc);
        assert_eq!(plain.resets, probed.resets);
        assert_eq!(plain.total_steps, probed.total_steps);
        assert_eq!(metrics.total_steps, probed.total_steps as u64);
        assert_eq!(
            metrics.total_resets(),
            probed.resets.iter().map(|&r| r as u64).sum::<u64>()
        );
        // Every step is a read, write, output or halt; the executor counts
        // them all through the probe.
        let op_total: u64 = metrics.per_proc.iter().map(|p| p.steps).sum();
        assert_eq!(op_total, metrics.total_steps);
        // Each processor outputs exactly once (one-shot snapshot task).
        assert_eq!(metrics.total_outputs(), 3);
        assert!(metrics.per_proc.iter().all(|p| p.first_output_at.is_some()));
    }

    #[test]
    fn serde_round_trip() {
        let t = snapshot_trajectories(&[1, 2], &WiringMode::Identity, 1, 1_000_000).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: SnapshotTrajectories = serde_json::from_str(&json).unwrap();
        assert_eq!(t.per_proc, back.per_proc);
        assert_eq!(t.resets, back.resets);
    }
}
