//! Level dynamics: how the snapshot algorithm's levels climb toward N and
//! how contention resets them — the mechanism behind wait-freedom
//! (Section 5's intuition made visible).

use fa_bench::print_table;
use fa_core::metrics::snapshot_trajectories;
use fa_core::runner::WiringMode;

fn main() {
    fa_bench::reject_args("level_dynamics");
    println!("== level dynamics of the snapshot algorithm ==\n");
    let mut rows = Vec::new();
    for n in [2usize, 4, 6, 8] {
        let runs = 20;
        let mut resets_total = 0usize;
        let mut steps_total = 0usize;
        for seed in 0..runs {
            let inputs: Vec<u32> = (0..n as u32).collect();
            let t = snapshot_trajectories(&inputs, &WiringMode::Random, seed, 100_000_000)
                .expect("run completes");
            assert!(t.completed);
            resets_total += t.resets.iter().sum::<usize>();
            steps_total += t.total_steps;
        }
        rows.push(vec![
            n.to_string(),
            runs.to_string(),
            format!("{:.1}", resets_total as f64 / runs as f64),
            format!("{:.0}", steps_total as f64 / runs as f64),
        ]);
    }
    print_table(
        &["n", "runs", "mean level resets / run", "mean steps"],
        &rows,
    );

    println!("\nsample trajectory (n = 4, seed 3): time:level(view-size) per processor\n");
    let t = snapshot_trajectories(&[1, 2, 3, 4], &WiringMode::Random, 3, 100_000_000)
        .expect("run completes");
    for (i, traj) in t.per_proc.iter().enumerate() {
        let s: Vec<String> = traj
            .iter()
            .map(|p| format!("{}:{}({})", p.time, p.level, p.view_size))
            .collect();
        println!("p{i}: {}", s.join(" → "));
    }
    println!("\nresets per processor: {:?}", t.resets);
}
