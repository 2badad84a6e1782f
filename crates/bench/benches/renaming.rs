//! Benchmarks adaptive renaming (Figure 4) vs processor count and group
//! count (experiment E6's timing side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fa_core::runner::{random_group_inputs, run_renaming_random, WiringMode};

fn bench_renaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("renaming");
    group.sample_size(10);
    for n in [2usize, 4, 6] {
        group.bench_with_input(BenchmarkId::new("distinct", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let inputs: Vec<u32> = (0..n as u32).collect();
                run_renaming_random(&inputs, seed, &WiringMode::Random, 100_000_000)
                    .expect("terminates")
            });
        });
        group.bench_with_input(BenchmarkId::new("two_groups", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let inputs = random_group_inputs(n, 2, seed);
                run_renaming_random(&inputs, seed, &WiringMode::Random, 100_000_000)
                    .expect("terminates")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_renaming);
criterion_main!(benches);
