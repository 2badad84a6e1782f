//! Integration (E5): the snapshot-task solution is not an atomic memory
//! snapshot — the announcement sweep at the paper's TLC configuration (n=3,
//! label granularity) finds a witness, and the witness replays.

use fa_modelcheck::atomicity::{check_atomicity, verify_witness, Reading};
use fa_modelcheck::CheckConfig;

#[test]
fn three_processor_non_atomicity_witness_exists_and_replays() {
    let inputs = [1u32, 2, 3];
    // Combo 0 violates at BFS depth 20, after 915,878 states.
    let (report, witness) = check_atomicity(
        &inputs,
        Reading::Announcement,
        true,
        2_000_000,
        &CheckConfig::serial(),
    )
    .unwrap();
    assert_eq!(report.combos, 1, "the identity combo already violates");
    let w = witness.expect("witness exists");
    assert!(verify_witness(&inputs, Reading::Announcement, &w));
    assert!(!w.memory_sets_seen.contains(&w.output));
}
