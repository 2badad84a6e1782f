//! Quantifying the covering phenomenon: what fraction of writes is
//! overwritten before anyone reads it, as a function of processor count and
//! wiring mode. Covering (lost writes) is exactly what makes the
//! fully-anonymous model hard (Sections 1, 2.1, 4).

use fa_bench::print_table;
use fa_core::{SnapRegister, SnapshotProcess};
use fa_memory::{Executor, RandomScheduler, SharedMemory, Wiring};
use rand::SeedableRng;

fn rate(n: usize, wirings: Vec<Wiring>, seed: u64) -> (usize, usize) {
    let procs: Vec<SnapshotProcess<u32>> =
        (0..n as u32).map(|x| SnapshotProcess::new(x, n)).collect();
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings).expect("memory");
    let mut exec = Executor::new(procs, memory).expect("executor");
    exec.record_trace(true);
    exec.run(
        RandomScheduler::new(rand_chacha::ChaCha8Rng::seed_from_u64(seed)),
        100_000_000,
    )
    .expect("run");
    exec.trace().expect("trace").lost_writes(n)
}

fn main() {
    fa_bench::reject_args("covering_rate");
    println!("== covering rate: lost writes / total writes (snapshot runs) ==\n");
    let runs = 25u64;
    let mut rows = Vec::new();
    for n in 2..=8usize {
        let mut acc = Vec::new();
        for (label, make) in [
            (
                "identity",
                (|n: usize, _s: u64| vec![Wiring::identity(n); n]) as fn(usize, u64) -> Vec<Wiring>,
            ),
            ("random", |n, s| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s ^ 0x5712_a8ee);
                (0..n).map(|_| Wiring::random(n, &mut rng)).collect()
            }),
        ] {
            let mut lost = 0usize;
            let mut total = 0usize;
            for seed in 0..runs {
                let (l, t) = rate(n, make(n, seed), seed);
                lost += l;
                total += t;
            }
            acc.push((label, lost as f64 / total as f64));
        }
        rows.push(vec![
            n.to_string(),
            format!("{:.1}%", acc[0].1 * 100.0),
            format!("{:.1}%", acc[1].1 * 100.0),
        ]);
    }
    print_table(
        &[
            "n",
            "lost writes (identity)",
            "lost writes (random wirings)",
        ],
        &rows,
    );
    println!("\nA substantial fraction of all writes transfers no information —");
    println!("the covering phenomenon the paper's level mechanism must defeat.");
}
