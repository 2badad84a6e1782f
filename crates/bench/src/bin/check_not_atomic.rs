//! E5 — The snapshot task solution is NOT an atomic memory snapshot:
//! exhibits an execution in which a returned view corresponds to no point
//! in time of the memory (the paper's Section 8 TLC finding).
//!
//! See `fa_modelcheck::atomicity` for the two readings of "the memory
//! contained exactly the set of inputs I". Each line below is one
//! `check_atomicity` sweep over every wiring combination and every
//! interleaving, up to a per-combo state cap; `complete=true` marks a
//! sweep that ran every combo to the end, so its verdict is exhaustive. A
//! witness is the lowest violating combo's BFS-shortest schedule, replayed
//! by the engine-independent `verify_witness`.
//!
//! Exit codes: 0 when the announcement sweeps at n=3 find a witness and
//! every witness verifies, 1 otherwise.

use fa_modelcheck::atomicity::{check_atomicity, verify_witness, Reading};
use fa_modelcheck::CheckConfig;

/// Per-combo state cap, above what every sweep but the last needs: 16.5 M
/// states to the per-read announcement witness in combo 0, about 12 M in a
/// momentary label combo.
const CAP: usize = 40_000_000;
/// Per-read n=3 combos do not fit in 15 GB even without a history column
/// (one passed 10 GB still growing), so that momentary sweep is capped.
const MOMENTARY_N3_PER_READ_CAP: usize = 1_000_000;

fn main() {
    fa_bench::reject_args("check_not_atomic");
    println!("== E5: non-atomicity, one sweep per reading ==\n");
    let config = CheckConfig::default();
    let runs: [(Reading, &[u32], bool, usize); 8] = [
        (Reading::Announcement, &[1, 2, 3], true, CAP),
        (Reading::Announcement, &[1, 2, 3], false, CAP),
        (Reading::Announcement, &[1, 2], true, CAP),
        (Reading::Announcement, &[1, 2], false, CAP),
        (Reading::Momentary, &[1, 2], true, CAP),
        (Reading::Momentary, &[1, 2], false, CAP),
        (Reading::Momentary, &[1, 2, 3], true, CAP),
        (
            Reading::Momentary,
            &[1, 2, 3],
            false,
            MOMENTARY_N3_PER_READ_CAP,
        ),
    ];
    let mut ok = true;
    for (reading, inputs, coarse, cap) in runs {
        let (report, witness) =
            check_atomicity(inputs, reading, coarse, cap, &config).expect("no checkpoint to fail");
        println!(
            "{reading:?} n={} {}: cap={cap}/combo combos={}/{} states={} complete={}",
            inputs.len(),
            if coarse { "label" } else { "per-read" },
            report.combos,
            report.total_combos,
            report.total_states,
            report.complete,
        );
        match witness {
            None => {
                println!("  no witness");
                ok &= !(reading == Reading::Announcement && inputs.len() == 3);
            }
            Some(w) => {
                let verifies = verify_witness(inputs, reading, &w);
                let wirings: Vec<String> = w.wirings.iter().map(ToString::to_string).collect();
                let schedule: Vec<String> = w.schedule.iter().map(ToString::to_string).collect();
                println!(
                    "  witness in combo {}: wirings {wirings:?}",
                    report.combos - 1
                );
                println!(
                    "  schedule ({} {}): {}",
                    schedule.len(),
                    if w.coarse { "blocks" } else { "steps" },
                    schedule.join(" ")
                );
                println!(
                    "  {} outputs {} — a set of inputs the memory never contained",
                    w.proc, w.output
                );
                println!(
                    "  sets the memory did contain: {}",
                    w.memory_sets_seen
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                println!("  verifies: {verifies}");
                ok &= verifies;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
