//! E1 — Reproduces Figure 2: the pathological infinite execution in which
//! `p2` and `p3` keep incomparable views forever, plus the 5-processor
//! extension where the shadow processors read constant incomparable sets.

use fa_bench::print_table;
use fa_core::figure2::{expected_rows, run_figure2, run_figure2_extended};

fn main() {
    fa_bench::reject_args("figure2");
    println!("== E1: Figure 2 — the pathological execution ==\n");
    let observed = run_figure2().expect("figure 2 construction runs");
    let expected = expected_rows();

    let rows: Vec<Vec<String>> = observed
        .iter()
        .zip(&expected)
        .map(|(o, e)| {
            let ok = o.registers == e.registers && o.views == e.views;
            vec![
                o.row.to_string(),
                o.action.to_string(),
                o.registers[0].to_string(),
                o.registers[1].to_string(),
                o.registers[2].to_string(),
                o.views[0].to_string(),
                o.views[1].to_string(),
                o.views[2].to_string(),
                if ok {
                    "✓".to_string()
                } else {
                    "MISMATCH".to_string()
                },
            ]
        })
        .collect();
    print_table(
        &[
            "row",
            "action",
            "r1",
            "r2",
            "r3",
            "view[p1]",
            "view[p2]",
            "view[p3]",
            "matches paper",
        ],
        &rows,
    );
    let all_match = observed
        .iter()
        .zip(&expected)
        .all(|(o, e)| o.registers == e.registers && o.views == e.views);
    println!("\nall 13 rows match the paper: {all_match}");
    assert!(all_match, "figure 2 reproduction diverged from the paper");

    println!("\n== E1 (extension): shadows p and p' over 30 cycles ==\n");
    let ext = run_figure2_extended(30).expect("extension runs");
    println!(
        "final views: p1={} p2={} p3={} p={} p'={}",
        ext.final_views[0],
        ext.final_views[1],
        ext.final_views[2],
        ext.final_views[3],
        ext.final_views[4]
    );
    let p_ok = ext.shadow_p_reads.iter().all(|v| v.to_string() == "{1,2}");
    let pp_ok = ext
        .shadow_p_prime_reads
        .iter()
        .all(|v| v.to_string() == "{1,3}");
    println!(
        "shadow p performed {} reads, all equal to {{1,2}}: {p_ok}",
        ext.shadow_p_reads.len()
    );
    println!(
        "shadow p' performed {} reads, all equal to {{1,3}}: {pp_ok}",
        ext.shadow_p_prime_reads.len()
    );
    println!(
        "stable views: {:?}",
        ext.stable_views
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    assert!(p_ok && pp_ok);
}
