//! E10 — Group solvability semantics (Section 3.2): the paper's example of a
//! legal group snapshot with incomparable same-group outputs, and the
//! output-sample enumeration of Definition 3.4.

use std::collections::BTreeSet;

use fa_bench::print_table;
use fa_tasks::{check_group_solution, GroupAssignment, GroupId, SampleIter, Snapshot, Task};

fn gset(ids: &[usize]) -> BTreeSet<GroupId> {
    ids.iter().map(|&g| GroupId(g)).collect()
}

fn main() {
    fa_bench::reject_args("group_semantics");
    println!("== E10: group solvability (Definition 3.4) ==\n");
    // The paper's example: groups A={p0}, B={p1,p2}, C={p3}; outputs
    // {A,B,C}, {A,B}, {B,C}, {A,B,C}.
    let groups = GroupAssignment::new(vec![GroupId(0), GroupId(1), GroupId(1), GroupId(2)]);
    let outputs = vec![
        Some(gset(&[0, 1, 2])),
        Some(gset(&[0, 1])),
        Some(gset(&[1, 2])),
        Some(gset(&[0, 1, 2])),
    ];

    println!("processors: p0∈A, p1∈B, p2∈B, p3∈C");
    println!("outputs:    p0={{A,B,C}} p1={{A,B}} p2={{B,C}} p3={{A,B,C}}");
    println!("note:       p1 and p2 (same group) return incomparable sets\n");

    let iter = SampleIter::new(&groups, &outputs);
    println!("output samples to check: {}\n", iter.sample_count());
    let mut rows = Vec::new();
    for (assignment, reps) in iter {
        let verdict = Snapshot.check(&assignment);
        rows.push(vec![
            format!("{reps:?}"),
            format!("{assignment:?}"),
            match &verdict {
                Ok(()) => "valid".to_string(),
                Err(e) => format!("INVALID: {e}"),
            },
        ]);
    }
    print_table(&["representatives", "induced assignment", "verdict"], &rows);

    let checked = check_group_solution(&Snapshot, &groups, &outputs)
        .expect("the paper's example is a legal group solution");
    println!("\nall {checked} samples valid: the outputs group-solve the snapshot task");

    // Counter-example: incomparable outputs across *different* groups.
    let bad_groups = GroupAssignment::new(vec![GroupId(0), GroupId(1)]);
    let bad_outputs = vec![Some(gset(&[0])), Some(gset(&[1]))];
    let err = check_group_solution(&Snapshot, &bad_groups, &bad_outputs)
        .expect_err("cross-group incomparability is illegal");
    println!("\ncontrol (incomparable outputs across groups): rejected — {err}");
}
