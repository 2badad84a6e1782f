//! E28 probe: the one BFS engine through its three entry points on the
//! benchmark's four checker shapes — `run` (in-memory store),
//! `run_intra(_, 1)` (the same code over the sharded store) and
//! `run_intra(_, 2)` (the worker crew).
//!
//! Each shape is timed as a short sweep over its first combos; the arms
//! alternate rep by rep so host drift hits them alike, every rep must
//! visit the same states, and the table reports the median over `--reps`
//! (default 7) with each arm's min–max spread.
//!
//! Usage: `cargo run --release -p fa-bench --example engine_probe [-- --reps N]`

use std::time::Instant;

use fa_bench::cli_value;
use fa_core::SnapshotProcess;
use fa_modelcheck::wirings::ComboTable;
use fa_modelcheck::Explorer;

/// One benchmark shape, shrunk to a sweep of a few seconds.
struct Shape {
    name: &'static str,
    inputs: &'static [u32],
    coarse: bool,
    quotient: bool,
    budget: Option<usize>,
    cap: usize,
    combos: usize,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "e3 coarse",
        inputs: &[1, 2, 3],
        coarse: true,
        quotient: false,
        budget: None,
        cap: 20_000,
        combos: 12,
    },
    Shape {
        name: "e3 per-read",
        inputs: &[1, 2, 3],
        coarse: false,
        quotient: false,
        budget: None,
        cap: 20_000,
        combos: 12,
    },
    Shape {
        name: "e18",
        inputs: &[1, 2, 3, 4],
        coarse: true,
        quotient: false,
        budget: None,
        cap: 100,
        combos: 2_000,
    },
    Shape {
        name: "e24 quotient",
        inputs: &[7, 7, 7, 7],
        coarse: true,
        quotient: true,
        budget: Some(16 * 1024),
        cap: 1_000,
        combos: 60,
    },
];

/// Sweeps `shape` through arm `arm` (0 = `run`, else `run_intra(_, arm)`):
/// total states and seconds.
fn sweep(shape: &Shape, table: &ComboTable, arm: usize) -> (usize, f64) {
    let n = shape.inputs.len();
    let started = Instant::now();
    let mut states = 0;
    for i in 0..shape.combos.min(table.len()) {
        let procs: Vec<SnapshotProcess<u32>> = shape
            .inputs
            .iter()
            .map(|&x| SnapshotProcess::new(x, n))
            .collect();
        let mut e =
            Explorer::new(procs, n, Default::default(), table.combo(i)).with_max_states(shape.cap);
        if shape.coarse {
            e = e.with_coarse_scans();
        }
        if shape.quotient {
            e = e.with_quotient();
        }
        if let Some(bytes) = shape.budget {
            e = e.with_visited_budget(bytes);
        }
        let report = match arm {
            0 => e.run(|_| Ok(())),
            workers => e.run_intra(|_| Ok(()), workers),
        };
        states += report.states;
    }
    (states, started.elapsed().as_secs_f64())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let reps: usize = cli_value("--reps").map_or(7, |r| r.parse().expect("--reps N"));
    println!(
        "| shape | run s | intra:1 s | intra:1 speed (× run) | intra:2 s | intra:2 speed (× run) |"
    );
    println!("|---|---|---|---|---|---|");
    for shape in &SHAPES {
        let n = shape.inputs.len();
        let table = ComboTable::new(n, n);
        let mut secs: [Vec<f64>; 3] = Default::default();
        let mut states = None;
        for _ in 0..reps {
            for (arm, out) in secs.iter_mut().enumerate() {
                let (s, t) = sweep(shape, &table, arm);
                assert_eq!(*states.get_or_insert(s), s, "{}: arms diverge", shape.name);
                out.push(t);
            }
        }
        let spread = |xs: &[f64]| {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(0.0, f64::max);
            format!("{lo:.3}–{hi:.3}")
        };
        let [run, one, two] = &mut secs;
        let (r, o, t) = (median(run), median(one), median(two));
        println!(
            "| {} | {r:.3} ({}) | {o:.3} ({}) | {:.2} | {t:.3} ({}) | {:.2} |",
            shape.name,
            spread(run),
            spread(one),
            r / o,
            spread(two),
            r / t,
        );
    }
}
