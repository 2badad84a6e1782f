//! Round-trip: a probed run streamed to a `JsonlSink` can be replayed — both
//! by re-executing the recorded schedule (`fa_memory::replay`) and by feeding
//! the recorded event stream back into a fresh aggregate — and every route
//! yields the identical `RunMetrics`.

use fa_core::{SnapRegister, SnapshotProcess};
use fa_memory::{replay, Executor, SharedMemory, Wiring};
use fa_obs::{parse_jsonl, JsonlSink, Probe, RunMetrics, Tee};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn system<Pr: fa_obs::Probe>(n: usize, probe: Pr) -> Executor<SnapshotProcess<u32>, Pr> {
    let procs: Vec<SnapshotProcess<u32>> =
        (0..n).map(|i| SnapshotProcess::new(i as u32, n)).collect();
    let wirings: Vec<Wiring> = (0..n).map(|i| Wiring::cyclic_shift(n, i)).collect();
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings).unwrap();
    Executor::with_probe(procs, memory, probe).unwrap()
}

#[test]
fn probed_run_replays_to_identical_metrics() {
    let n = 4;

    // Live run: aggregate metrics and stream JSONL, while recording a trace.
    let mut exec = system(n, Tee(RunMetrics::new(), JsonlSink::new(Vec::new())));
    exec.record_trace(true);
    exec.run_random(ChaCha8Rng::seed_from_u64(31), 10_000_000)
        .unwrap();
    assert!(exec.all_halted());
    let schedule = replay::schedule_of(exec.trace().unwrap());
    let total_steps = exec.total_steps();
    let Tee(live, sink) = exec.into_probe();
    assert!(sink.events_written() > 0);
    let stream = String::from_utf8(sink.into_inner()).unwrap();

    // Route 1: re-execute the recorded schedule against a fresh system.
    let mut exec2 = system(n, RunMetrics::new());
    exec2.run(schedule, 10_000_000).unwrap();
    assert!(exec2.all_halted());
    assert_eq!(exec2.total_steps(), total_steps);
    let reexecuted = exec2.into_probe();
    assert_eq!(
        reexecuted, live,
        "replayed schedule must reproduce the metrics"
    );

    // Route 2: rebuild the aggregate from the recorded event stream alone.
    let events = parse_jsonl(&stream).unwrap();
    let mut rebuilt = RunMetrics::new();
    for event in &events {
        rebuilt.on_event(event);
    }
    assert_eq!(rebuilt, live, "event stream must rebuild the metrics");

    // Sanity on what the probe actually saw.
    assert_eq!(live.total_outputs(), n as u64);
    assert!(live.peak_covering >= 1);
    assert_eq!(live.total_steps, total_steps as u64);
}

#[test]
fn unprobed_run_is_unchanged_by_instrumentation() {
    // The probe layer must be observation-only: a NoProbe run and a probed
    // run of the same seed produce identical outputs and step counts.
    let n = 4;
    let mut plain = system(n, fa_obs::NoProbe);
    plain
        .run_random(ChaCha8Rng::seed_from_u64(99), 10_000_000)
        .unwrap();

    let mut probed = system(n, RunMetrics::new());
    probed
        .run_random(ChaCha8Rng::seed_from_u64(99), 10_000_000)
        .unwrap();

    assert_eq!(plain.total_steps(), probed.total_steps());
    for i in 0..n {
        assert_eq!(
            plain.first_output(fa_memory::ProcId(i)),
            probed.first_output(fa_memory::ProcId(i))
        );
    }
}
