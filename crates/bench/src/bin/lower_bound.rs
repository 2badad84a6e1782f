//! E8 — The Section 2.1 lower bound: with N−1 registers, N−1 covering
//! processors erase everything a solo processor wrote, making coordination
//! impossible; with N registers the coverage fails.

use fa_bench::print_table;
use fa_core::lower_bound::covering_demo;

fn main() {
    fa_bench::reject_args("lower_bound");
    println!("== E8: N−1 registers are insufficient (covering construction) ==\n");
    let mut rows = Vec::new();
    for n in 2..=8usize {
        let report = covering_demo(n).expect("construction runs");
        rows.push(vec![
            n.to_string(),
            report.registers.to_string(),
            report.solo_output.to_string(),
            report.erased.to_string(),
            report.indistinguishable_to_q.to_string(),
        ]);
        assert!(report.erased && report.indistinguishable_to_q);
    }
    print_table(
        &[
            "N",
            "registers",
            "solo output",
            "p's info erased",
            "Q indistinguishable",
        ],
        &rows,
    );
    println!("\nAfter the covering writes, no register mentions the solo processor's");
    println!("input, and Q's states are identical whatever that input was: no");
    println!("read-write coordination between p and Q is possible with N−1 registers.");
}
