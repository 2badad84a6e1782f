//! Adversarial recovery tests for the sweep checkpoint journal: truncate or
//! corrupt a valid journal at *every* byte offset and require recovery to
//! come back with a clean prefix of the truth — resuming what it can prove
//! and silently re-exploring the rest — never a wrong or invented verdict.
//!
//! These are exhaustive deterministic loops rather than sampled property
//! tests: the journals under test are a few hundred bytes, so covering
//! every offset is cheaper than pulling in a property-testing dependency.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use fa_modelcheck::{
    ComboOutcome, JournalError, JournalHeader, JournalRecord, Recovery, SweepJournal,
};

const JOURNAL_FILE: &str = "sweep.journal";

/// Fresh scratch dir per case; offset-indexed so cases never collide.
fn scratch(tag: &str, case: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fa_ckpt_recovery_{}_{}_{}",
        std::process::id(),
        tag,
        case
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn header() -> JournalHeader {
    JournalHeader {
        check: "snapshot_task_coarse".into(),
        n: 3,
        total_combos: 8,
        fingerprint: 0xDEAD_BEEF_F00D_CAFE,
    }
}

fn outcome(states: usize, violation: Option<&str>) -> ComboOutcome {
    ComboOutcome {
        states,
        complete: violation.is_none(),
        full_states_est: None,
        spilled_shards: 0,
        violation: violation.map(str::to_owned),
    }
}

/// Writes a journal of finished outcomes for 7 of 8 combos (one of them a
/// violation; combo 7 never finished) and returns, per record appended,
/// the journal length *after* that record — the set of valid frame
/// boundaries — plus the completed map the full journal encodes.
fn build_fixture(dir: &Path) -> (Vec<u64>, HashMap<usize, ComboOutcome>) {
    let mut journal = SweepJournal::create(dir, &header()).expect("create journal");
    let mut boundaries = vec![journal.bytes_written()];
    let mut completed = HashMap::new();
    let records: Vec<JournalRecord> = (0..7usize)
        .map(|i| JournalRecord::ComboDone {
            combo: i as u64,
            outcome: match i {
                5 => outcome(42, Some("combo 5: covering violated")),
                _ => outcome(100 + i, None),
            },
        })
        .collect();
    for rec in &records {
        journal.append(rec).expect("append record");
        boundaries.push(journal.bytes_written());
        if let JournalRecord::ComboDone { combo, outcome } = rec {
            completed.insert(*combo as usize, outcome.clone());
        }
    }
    journal.sync().expect("sync journal");
    (boundaries, completed)
}

#[test]
fn truncation_at_every_offset_recovers_a_clean_prefix() {
    let master = scratch("trunc_master", 0);
    let (boundaries, truth) = build_fixture(&master);
    let bytes = fs::read(master.join(JOURNAL_FILE)).expect("read journal");
    assert_eq!(*boundaries.last().unwrap(), bytes.len() as u64);

    for len in 0..=bytes.len() {
        let dir = scratch("trunc", len);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(JOURNAL_FILE), &bytes[..len]).expect("write truncated copy");
        match SweepJournal::open_resume(&dir) {
            Ok((_, recovery)) => check_prefix(&recovery, &boundaries, &truth, len as u64),
            Err(JournalError::Corrupt(_)) => {
                // Only legal while the header itself is still incomplete:
                // past the first boundary recovery must always succeed.
                assert!(
                    (len as u64) < boundaries[0],
                    "recovery refused a journal with an intact header (len {len})"
                );
            }
            Err(e) => panic!("unexpected recovery error at len {len}: {e}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&master);
}

#[test]
fn corruption_at_every_offset_never_invents_a_verdict() {
    let master = scratch("corrupt_master", 0);
    let (boundaries, truth) = build_fixture(&master);
    let bytes = fs::read(master.join(JOURNAL_FILE)).expect("read journal");

    for (offset, flip) in (0..bytes.len()).flat_map(|o| [(o, 0x01u8), (o, 0x80)]) {
        let mut copy = bytes.clone();
        copy[offset] ^= flip;
        let dir = scratch("corrupt", offset * 2 + usize::from(flip == 0x80));
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(JOURNAL_FILE), &copy).expect("write corrupted copy");
        match SweepJournal::open_resume(&dir) {
            Ok((_, recovery)) => {
                // The checksum pins every frame: a flipped byte can only
                // *remove* records (scan stops at the damaged frame), never
                // alter one. Whatever survives must match the truth exactly
                // and stop at a frame boundary at or before the damage.
                check_prefix(&recovery, &boundaries, &truth, offset as u64);
            }
            Err(JournalError::Corrupt(_)) => {
                assert!(
                    (offset as u64) < boundaries[0],
                    "only header damage may make recovery refuse (offset {offset})"
                );
            }
            Err(e) => panic!("unexpected recovery error at offset {offset}: {e}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&master);
}

/// A damaged journal (cut or corrupted from `damage` onward) must recover
/// to exactly the records whose frames end at or before the damage — no
/// invented combos, no altered outcomes, and never a dropped *earlier*
/// record.
fn check_prefix(
    recovery: &Recovery,
    boundaries: &[u64],
    truth: &HashMap<usize, ComboOutcome>,
    damage: u64,
) {
    assert_eq!(recovery.header, header(), "header must survive intact");
    // Every record after the header is one combo's outcome, so the number
    // of record boundaries at or before the damage is the number of
    // outcomes a prefix of that length holds.
    let expected_dones = boundaries[1..]
        .iter()
        .filter(|&&b| b <= damage.max(boundaries[0]))
        .count();
    assert!(
        recovery.completed.len() >= expected_dones,
        "recovery lost records before the damage at {damage}: {} < {expected_dones}",
        recovery.completed.len()
    );
    for (combo, outcome) in &recovery.completed {
        let real = truth
            .get(combo)
            .unwrap_or_else(|| panic!("recovery invented combo {combo} (damage {damage})"));
        assert_eq!(
            outcome, real,
            "recovery altered combo {combo}'s verdict (damage {damage})"
        );
    }
    // The violating combo's verdict, when recovered, stays a violation.
    if let Some(v) = recovery.completed.get(&5) {
        assert_eq!(v.violation.as_deref(), Some("combo 5: covering violated"));
    }
}

#[test]
fn recovery_is_monotone_in_journal_length() {
    let master = scratch("monotone_master", 0);
    let (_, _) = build_fixture(&master);
    let bytes = fs::read(master.join(JOURNAL_FILE)).expect("read journal");

    let mut last = 0usize;
    for len in 0..=bytes.len() {
        let dir = scratch("monotone", len);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(JOURNAL_FILE), &bytes[..len]).expect("write prefix");
        if let Ok((_, recovery)) = SweepJournal::open_resume(&dir) {
            assert!(
                recovery.completed.len() >= last,
                "longer journal recovered fewer combos at len {len}"
            );
            last = recovery.completed.len();
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(
        last, 7,
        "the full journal recovers all seven finished combos"
    );
    let _ = fs::remove_dir_all(&master);
}
