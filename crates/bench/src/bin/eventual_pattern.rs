//! E2 — The eventual pattern (Theorem 4.8): over many adversarial lasso
//! schedules and random wirings, the stable views always form a DAG with a
//! unique source. The generalized Figure 2 construction keeps its
//! incomparable pair for every register count m ∈ 3..=8 (Section 4.1).

use fa_bench::{print_table, rng};
use fa_core::figure2::{core_schedule, core_wirings};
use fa_core::pathology::generalized_report;
use fa_core::stable_view::{analyze_lasso, analyze_random};
use fa_memory::{LassoSchedule, ProcId, Wiring};
use rand::Rng;

fn random_lasso(n: usize, r: &mut impl Rng) -> LassoSchedule {
    let prefix_len = r.gen_range(0..20);
    let cycle_len = r.gen_range(4..40);
    let prefix: Vec<ProcId> = (0..prefix_len).map(|_| ProcId(r.gen_range(0..n))).collect();
    // Every processor appears in the cycle at least once (all live), plus
    // random filler.
    let mut cycle: Vec<ProcId> = (0..n).map(ProcId).collect();
    for _ in 0..cycle_len {
        cycle.push(ProcId(r.gen_range(0..n)));
    }
    LassoSchedule::new(prefix, cycle)
}

fn main() {
    fa_bench::reject_args("eventual_pattern");
    println!("== E2: stable views form a single-source DAG (Theorem 4.8) ==\n");

    // The canonical instance: Figure 2's lasso.
    let fig2 = analyze_lasso(&[1, 2, 3], 3, core_wirings(), &core_schedule(), 1000)
        .expect("figure 2 lasso stabilizes");
    println!(
        "figure-2 lasso: {} stable views, sources {:?}, dag={}, unique_source={}\n",
        fig2.graph.vertices().len(),
        fig2.graph
            .sources()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        fig2.graph.is_dag(),
        fig2.graph.has_unique_source()
    );
    assert!(fig2.graph.has_unique_source());

    // Randomized sweep: n ∈ 2..=6, random wirings, random lassos.
    let mut rows = Vec::new();
    let mut all_ok = true;
    for n in 2..=6usize {
        let trials = 200;
        let mut unique = 0usize;
        let mut multi_vertex = 0usize;
        let mut max_vertices = 0usize;
        for t in 0..trials {
            let mut r = rng((n as u64) << 32 | t);
            let wirings: Vec<Wiring> = (0..n).map(|_| Wiring::random(n, &mut r)).collect();
            let inputs: Vec<u32> = (0..n as u32).map(|i| i + 1).collect();
            let sched = random_lasso(n, &mut r);
            let report =
                analyze_lasso(&inputs, n, wirings, &sched, 50_000).expect("lasso stabilizes");
            assert!(report.graph.is_dag());
            if report.graph.has_unique_source() {
                unique += 1;
            } else {
                all_ok = false;
            }
            if report.graph.vertices().len() > 1 {
                multi_vertex += 1;
            }
            max_vertices = max_vertices.max(report.graph.vertices().len());
        }
        rows.push(vec![
            n.to_string(),
            trials.to_string(),
            unique.to_string(),
            multi_vertex.to_string(),
            max_vertices.to_string(),
        ]);
    }
    print_table(
        &[
            "n",
            "lassos",
            "unique source",
            "nontrivial graphs",
            "max distinct views",
        ],
        &rows,
    );
    println!("\nTheorem 4.8 held in every trial: {all_ok}");
    assert!(all_ok);

    // Section 4.1: "no additional number of registers would prevent this
    // type of infinite execution".
    println!("\n== generalized Figure 2: m registers ==\n");
    let rows: Vec<Vec<String>> = (3..=8usize)
        .map(|m| {
            let report = generalized_report(m, 500).expect("generalized lasso stabilizes");
            assert!(report.graph.has_unique_source(), "m={m}");
            let views: Vec<String> = report
                .graph
                .vertices()
                .iter()
                .map(ToString::to_string)
                .collect();
            vec![
                m.to_string(),
                views.join(" "),
                report.graph.has_unique_source().to_string(),
                report.period.to_string(),
            ]
        })
        .collect();
    print_table(
        &["m", "stable views", "unique source", "period (cycles)"],
        &rows,
    );

    // Control: random fair schedules converge to a single full view.
    let control = analyze_random(
        &[1, 2, 3, 4],
        4,
        vec![Wiring::identity(4); 4],
        7,
        2_000,
        5_000_000,
    )
    .expect("random analysis runs");
    println!(
        "\ncontrol (fair random schedule): {} stable view(s) — convergence to the full set",
        control.graph.vertices().len()
    );
}
