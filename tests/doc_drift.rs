//! Headline numbers in EXPERIMENTS.md must match the committed artifacts
//! they cite, so a regenerated artifact cannot leave a stale number behind.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The EXPERIMENTS.md summary-table row of experiment `id`.
fn summary_row(experiments: &str, id: &str) -> String {
    let prefix = format!("| {id} |");
    let rows: Vec<&str> = experiments
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    assert_eq!(rows.len(), 1, "want one summary row for {id}, got {rows:?}");
    rows[0].to_string()
}

/// The sums of columns `names` over the first markdown table in `report`
/// whose header has all of them.
fn column_sums(report: &str, names: &[&str]) -> Vec<u64> {
    let cells = |l: &str| -> Vec<String> {
        l.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let mut lines = report.lines();
    let header = lines
        .by_ref()
        .map(cells)
        .find(|h| names.iter().all(|n| h.iter().any(|c| c == n)))
        .unwrap_or_else(|| panic!("no table with columns {names:?}"));
    let at: Vec<usize> = names
        .iter()
        .map(|n| header.iter().position(|c| c == n).expect("column"))
        .collect();
    let rows: Vec<Vec<String>> = lines
        .skip(1) // the `| - | --- |` rule
        .take_while(|l| l.starts_with('|'))
        .map(cells)
        .collect();
    assert!(!rows.is_empty(), "table with columns {names:?} has no rows");
    at.iter()
        .map(|&i| {
            rows.iter()
                .map(|r| r[i].parse::<u64>().expect("a count"))
                .sum()
        })
        .collect()
}

#[test]
fn e2_summary_row_quotes_the_lasso_totals() {
    let sums = column_sums(
        &read("results/eventual_pattern.txt"),
        &["lassos", "unique source"],
    );
    let quoted = format!(" {}/{} ", sums[1], sums[0]);
    let row = summary_row(&read("EXPERIMENTS.md"), "E2");
    assert!(
        row.contains(&quoted),
        "E2 row does not quote{quoted}lassos: {row}"
    );
}

#[test]
fn e4_summary_row_quotes_the_run_total() {
    let runs = column_sums(&read("results/wait_freedom.txt"), &["runs"])[0];
    let quoted = format!(" {runs}/{runs} runs ");
    let row = summary_row(&read("EXPERIMENTS.md"), "E4");
    assert!(
        row.contains(&quoted),
        "E4 row does not quote{quoted}: {row}"
    );
}

#[test]
fn e22_summary_row_quotes_the_telemetry_overhead_artifact() {
    let artifact: serde_json::Value =
        serde_json::from_str(&read("results/telemetry_overhead.json")).expect("valid JSON");
    let pct = artifact["overhead_pct"].as_f64().expect("overhead_pct");
    let snapshots = artifact["telemetry_snapshots"]
        .as_u64()
        .expect("telemetry_snapshots");
    // The docs write negative numbers with a typographic minus.
    let pct = format!("{pct:.1}%").replace('-', "\u{2212}");
    let row = summary_row(&read("EXPERIMENTS.md"), "E22");
    assert!(
        row.contains(&format!(" {pct} ")),
        "E22 row does not quote overhead {pct}: {row}"
    );
    assert!(
        row.contains(&format!("{snapshots} snapshots")),
        "E22 row does not quote {snapshots} snapshots: {row}"
    );
}

#[test]
fn e3_summary_row_quotes_the_n3_sweep_totals() {
    // The two n=3 sweep lines (label and per-read granularity) of the
    // committed E3 report, e.g. `inputs [1, 2, 3]: combos=36/36
    // states=14400000 complete=false violation=none`.
    let report = read("results/check_snapshot.txt");
    let totals: Vec<u64> = report
        .lines()
        .filter(|l| l.starts_with("inputs [1, 2, 3]: "))
        .map(|l| {
            let states = l
                .split_whitespace()
                .find_map(|w| w.strip_prefix("states="))
                .unwrap_or_else(|| panic!("no states= in {l:?}"));
            states.parse().expect("states= is a count")
        })
        .collect();
    assert_eq!(totals.len(), 2, "want the two n=3 sweeps, got {totals:?}");
    let millions = (totals.iter().sum::<u64>() as f64 / 1e6).round();
    let quoted = format!("≈{millions} M states");
    let row = summary_row(&read("EXPERIMENTS.md"), "E3");
    assert!(
        row.contains(&quoted),
        "E3 row does not quote {quoted}: {row}"
    );
}

#[test]
fn e17_summary_row_quotes_the_obs_report_cells() {
    let artifact: serde_json::Value =
        serde_json::from_str(&read("results/obs_report.json")).expect("valid JSON");
    let cells = artifact["cells"].as_array().expect("cells");
    let complete = cells
        .iter()
        .filter(|c| c["completed"].as_bool().expect("completed"))
        .count();
    let quoted = format!("{complete}/{} cells complete", cells.len());
    let row = summary_row(&read("EXPERIMENTS.md"), "E17");
    assert!(
        row.contains(&quoted),
        "E17 row does not quote {quoted}: {row}"
    );
}
