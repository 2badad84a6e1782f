//! # fa-bench: experiment harness
//!
//! Shared machinery for the experiment binaries (`src/bin/*`) and Criterion
//! benches (`benches/*`). Each binary regenerates one artifact of the paper;
//! the mapping is the per-experiment index in `DESIGN.md`, and observed
//! results are recorded in `EXPERIMENTS.md`.

#![deny(unsafe_code)] // one targeted allow in `signals` for the handler registration
#![warn(missing_docs)]

pub mod chaos_campaign;
pub mod obs_report;
pub mod signals;
pub mod telemetry_cli;

pub use telemetry_cli::TelemetrySession;

use fa_core::runner::{run_snapshot_random, SnapshotRunConfig};
use fa_core::{SnapRegister, View};
use fa_memory::{Executor, MemoryError, ProcId, SharedMemory, Wiring};
use fa_modelcheck::checks::{CheckConfig, TaskCheckReport};
use fa_modelcheck::CheckpointConfig;
use fa_obs::SweepEvent;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A `u32` wrapper with **no dense embedding**: it takes `ViewValue`'s
/// default `None` implementations, so `View<Opaque>` always uses the
/// `BTreeSet` fallback representation. This is exactly the pre-interning
/// value plane, kept around as the baseline ("old representation") that the
/// criterion `value_plane` bench times against the bitmask path, and that
/// this crate's tests require to explore the same state spaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Opaque(pub u32);

impl fa_core::ViewValue for Opaque {}

impl std::fmt::Display for Opaque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod opaque_tests {
    use super::Opaque;
    use fa_core::{SnapshotProcess, ViewValue};
    use fa_memory::{Executor, SharedMemory, Wiring};
    use fa_modelcheck::wirings::ComboTable;
    use fa_modelcheck::Explorer;
    use std::fmt::Debug;
    use std::hash::Hash;

    /// Per-combo state counts of the first `combos` combos of the n = 4
    /// coarse sweep, capped at 2,000 states each, with inputs `0..4`
    /// wrapped by `value`.
    fn sweep_states<V>(combos: usize, value: impl Fn(u32) -> V) -> Vec<usize>
    where
        V: ViewValue + Eq + Hash + Debug + Default,
    {
        let n = 4;
        let table = ComboTable::new(n, n);
        (0..combos)
            .map(|i| {
                let procs: Vec<_> = (0..n as u32)
                    .map(|x| SnapshotProcess::new(value(x), n))
                    .collect();
                Explorer::new(procs, n, Default::default(), table.combo(i))
                    .with_coarse_scans()
                    .with_max_states(2_000)
                    .run(|_| Ok(()))
                    .states
            })
            .collect()
    }

    /// Total steps of one round-robin snapshot run on cyclic-shift wirings.
    fn round_robin_steps<V>(n: usize, value: impl Fn(u32) -> V) -> usize
    where
        V: ViewValue + Eq + Hash + Debug + Default,
    {
        let procs: Vec<_> = (0..n as u32)
            .map(|x| SnapshotProcess::new(value(x), n))
            .collect();
        let wirings: Vec<Wiring> = (0..n).map(|s| Wiring::cyclic_shift(n, s)).collect();
        let memory = SharedMemory::new(n, Default::default(), wirings).expect("memory");
        let mut exec = Executor::new(procs, memory).expect("executor");
        exec.run_round_robin(1_000_000).expect("terminates");
        exec.total_steps()
    }

    #[test]
    fn bitmask_and_fallback_views_explore_equal_spaces() {
        // 96 combos, 192,000 states per representation: about 3 s in a
        // debug build on 2 vCPUs.
        let dense = sweep_states(96, |x| x);
        assert_eq!(dense, sweep_states(96, Opaque));
        for n in [4, 6] {
            let steps = round_robin_steps(n, |x| x);
            assert_eq!(steps, round_robin_steps(n, Opaque), "n={n}");
        }
    }
}

/// Extracts the value of a `--name value` or `--name=value` argument.
fn arg_value<I: Iterator<Item = String>>(mut args: I, name: &str) -> Option<String> {
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(name) {
            if let Some(v) = v.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// The value of a `--name value` / `--name=value` process argument.
#[must_use]
pub fn cli_value(name: &str) -> Option<String> {
    arg_value(std::env::args().skip(1), name)
}

/// Whether a bare `--name` flag is present in the process arguments.
#[must_use]
pub fn cli_flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// For a binary that parses no flags: exits 1 with a usage line when any
/// argument is given, so a stale or mistyped flag fails loudly instead of
/// running the default (and, for `obs_report`, rewriting its artifact).
pub fn reject_args(bin: &str) {
    if std::env::args().len() > 1 {
        eprintln!("usage: {bin} (takes no arguments)");
        std::process::exit(1);
    }
}

/// The sweep worker count requested via `--jobs N` (`None` when absent:
/// the sweep decides, defaulting to available parallelism).
///
/// # Panics
///
/// Panics with a usage message if the value is not a positive integer.
#[must_use]
pub fn cli_jobs() -> Option<usize> {
    cli_value("--jobs").map(|v| {
        v.parse::<usize>()
            .ok()
            .filter(|&j| j >= 1)
            .unwrap_or_else(|| panic!("--jobs wants a positive integer, got {v:?}"))
    })
}

/// Parses a human-readable byte size: a plain integer (`65536`), a binary
/// suffix (`64KiB`, `2GiB` — powers of 1024), a decimal suffix (`64KB`,
/// `2GB` — powers of 1000), or a bare letter (`64K`, `2G` — binary, the
/// common CLI shorthand). A trailing `B`/`b` and surrounding whitespace are
/// accepted; matching is case-insensitive.
///
/// # Errors
///
/// Returns a usage message naming the rejected input on empty strings,
/// unknown suffixes, non-numeric magnitudes, and overflow.
pub fn parse_size(text: &str) -> Result<u64, String> {
    let s = text.trim();
    if s.is_empty() {
        return Err("empty size".to_string());
    }
    let lower = s.to_ascii_lowercase();
    // Suffix table, longest first so `kib` wins over `k`.
    const SUFFIXES: &[(&str, u64)] = &[
        ("kib", 1 << 10),
        ("mib", 1 << 20),
        ("gib", 1 << 30),
        ("tib", 1 << 40),
        ("kb", 1_000),
        ("mb", 1_000_000),
        ("gb", 1_000_000_000),
        ("tb", 1_000_000_000_000),
        ("k", 1 << 10),
        ("m", 1 << 20),
        ("g", 1 << 30),
        ("t", 1 << 40),
        ("b", 1),
    ];
    let (digits, unit) = SUFFIXES
        .iter()
        .find_map(|(suffix, unit)| lower.strip_suffix(suffix).map(|d| (d, *unit)))
        .unwrap_or((lower.as_str(), 1));
    let digits = digits.trim_end();
    if digits.is_empty() {
        return Err(format!("size {text:?} has no magnitude"));
    }
    let magnitude: u64 = digits
        .parse()
        .map_err(|_| format!("size {text:?} is not a number with an optional KiB/MiB/GiB/TiB (or KB/MB/GB/TB) suffix"))?;
    magnitude
        .checked_mul(unit)
        .ok_or_else(|| format!("size {text:?} overflows u64 bytes"))
}

/// The value of a `--name SIZE` argument parsed via [`parse_size`]
/// (`None` when absent).
///
/// # Panics
///
/// Panics with a usage message if the value does not parse as a size.
#[must_use]
pub fn cli_size(name: &str) -> Option<u64> {
    cli_value(name).map(|v| parse_size(&v).unwrap_or_else(|e| panic!("{name}: {e}")))
}

/// The visited-set memory budget requested via `--visited-budget SIZE`
/// (`None` when absent: everything stays in memory). Sizes are
/// human-readable: `67108864`, `64MiB`, `2GB` (see [`parse_size`]).
///
/// # Panics
///
/// Panics with a usage message if the value does not parse as a size.
#[must_use]
pub fn cli_visited_budget() -> Option<usize> {
    cli_size("--visited-budget").map(|v| usize::try_from(v).unwrap_or(usize::MAX))
}

/// The checkpoint configuration requested via `--checkpoint-dir DIR`
/// (`None` when absent: no checkpointing). `--resume` resumes from an
/// existing journal in the directory. The journal's fsync rule is fixed
/// (see `fa_modelcheck::checkpoint`), so no flag sets it.
#[must_use]
pub fn cli_checkpoint() -> Option<CheckpointConfig> {
    let dir = cli_value("--checkpoint-dir")?;
    let mut cp = CheckpointConfig::new(dir);
    if cli_flag("--resume") {
        cp = cp.with_resume();
    }
    Some(cp)
}

/// The RSS limit requested via `--memory-limit SIZE` (`None` when absent:
/// no watchdog). At the limit the sweep aborts gracefully to
/// `complete: false` instead of dying to the OOM killer.
///
/// # Panics
///
/// Panics with a usage message if the value does not parse as a size.
#[must_use]
pub fn cli_memory_limit() -> Option<u64> {
    cli_size("--memory-limit")
}

/// A model-check [`CheckConfig`] honoring the `--jobs`, `--quotient`,
/// `--visited-budget`, `--checkpoint-dir`, `--resume`, and
/// `--memory-limit` flags.
///
/// Exits with status 1 if a retired flag (`--strategy`,
/// `--checkpoint-every`) is given, so an old script fails loudly instead of
/// silently running a different sweep.
#[must_use]
pub fn check_config_from_cli() -> CheckConfig {
    const RETIRED: [(&str, &str); 2] = [
        (
            "--strategy",
            "every combo runs on one thread; use --jobs N to set the sweep's thread count",
        ),
        (
            "--checkpoint-every",
            "the journal's sync epoch is fixed at 64 KiB (plus the header and sweep end)",
        ),
    ];
    for (flag, why) in RETIRED {
        let eq = format!("{flag}=");
        if std::env::args().any(|a| a == flag || a.starts_with(&eq)) {
            eprintln!("{flag} is gone: {why}");
            std::process::exit(1);
        }
    }
    let mut config = match cli_jobs() {
        Some(j) => CheckConfig::default().with_jobs(j),
        None => CheckConfig::default(),
    };
    if cli_flag("--quotient") {
        config = config.with_quotient();
    }
    if let Some(bytes) = cli_visited_budget() {
        config = config.with_visited_budget(bytes);
    }
    if let Some(cp) = cli_checkpoint() {
        config = config.with_checkpoint(cp);
    }
    if let Some(limit) = cli_memory_limit() {
        config = config.with_memory_limit(limit);
    }
    config
}

/// The setup every sweep binary shares: a [`TelemetrySession`] labelled
/// `label` from the telemetry flags, and [`check_config_from_cli`]'s config
/// with the session's registry attached (when live) and the
/// SIGINT/SIGTERM abort flag. A signal stops the sweep at its next poll;
/// a checkpointed sweep syncs a final journal record, so `--resume` picks
/// up where it left off, and the binary exits 2 instead of dying
/// mid-write.
#[must_use]
pub fn sweep_cli(label: &str) -> (TelemetrySession, CheckConfig) {
    let session = TelemetrySession::from_cli(label);
    let mut config = check_config_from_cli();
    if let Some(registry) = session.registry() {
        config = config.with_telemetry(registry);
    }
    let config = config.with_abort(signals::install_abort_handler());
    (session, config)
}

/// Exit code for a clean run: complete, no violation.
pub const EXIT_CLEAN: i32 = 0;
/// Exit code for a run that finished without a violation but explored less
/// than everything (state/depth/memory budget, abort signal) — resumable
/// when checkpointed. Distinct from 1, which the panic runtime owns.
pub const EXIT_INCOMPLETE: i32 = 2;
/// Exit code for a run whose report carries a violation.
pub const EXIT_VIOLATION: i32 = 3;

/// Maps a sweep report to the process exit code contract above, so CI and
/// the crash harness can tell "clean", "incomplete-by-budget", and
/// "violation found" apart.
#[must_use]
pub fn report_exit_code(report: &TaskCheckReport) -> i32 {
    if report.violation.is_some() {
        EXIT_VIOLATION
    } else if report.complete {
        EXIT_CLEAN
    } else {
        EXIT_INCOMPLETE
    }
}

/// One-line human rendering of sweep telemetry, for experiment binaries.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn sweep_summary(t: &SweepEvent) -> String {
    format!(
        "[{}] jobs={} combos={}/{} states={} peak_combo_states={} elapsed={:.2}s ({:.1} combos/s, {:.0} states/s)",
        t.check,
        t.jobs,
        t.combos_attempted,
        t.combos_total,
        t.states,
        t.peak_combo_states,
        t.elapsed_ns as f64 / 1e9,
        t.combos_per_sec(),
        t.states_per_sec(),
    )
}

/// Renders a markdown table: a header row, a separator, and value rows with
/// every column padded to its widest cell.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
#[must_use]
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let mut out = String::new();
    out.push_str(&fmt_row(headers.iter().map(|s| (*s).to_string()).collect()));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(sep));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone()));
        out.push('\n');
    }
    out
}

/// Prints a markdown table (see [`format_table`]).
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(headers, rows));
}

/// Summary statistics over a sample of per-run step counts.
#[derive(Clone, Debug, PartialEq)]
pub struct StepStats {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean total steps.
    pub mean: f64,
    /// Minimum total steps.
    pub min: usize,
    /// Maximum total steps.
    pub max: usize,
}

impl StepStats {
    /// Aggregates a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    #[must_use]
    pub fn from_sample(sample: &[usize]) -> Self {
        assert!(!sample.is_empty(), "empty sample");
        let sum: usize = sample.iter().sum();
        StepStats {
            runs: sample.len(),
            mean: sum as f64 / sample.len() as f64,
            min: *sample.iter().min().expect("nonempty"),
            max: *sample.iter().max().expect("nonempty"),
        }
    }
}

/// Runs the fully-anonymous snapshot for `n` distinct-input processors under
/// `seeds.len()` random schedules and returns total-step statistics (E4).
///
/// # Errors
///
/// Propagates runner errors.
pub fn snapshot_step_stats(
    n: usize,
    seeds: std::ops::Range<u64>,
) -> Result<StepStats, MemoryError> {
    let mut sample = Vec::new();
    for seed in seeds {
        let cfg = SnapshotRunConfig::new((0..n as u32).collect()).with_seed(seed);
        let res = run_snapshot_random(&cfg)?;
        sample.push(res.total_steps);
    }
    Ok(StepStats::from_sample(&sample))
}

/// Steps to completion for the double-collect baseline on anonymous memory
/// (may fail to terminate; reports `None` for such runs).
///
/// # Errors
///
/// Propagates executor errors.
pub fn double_collect_steps(
    n: usize,
    seed: u64,
    budget: usize,
) -> Result<Option<usize>, MemoryError> {
    use fa_baselines::DoubleCollectProcess;
    let procs: Vec<DoubleCollectProcess<u32>> = (0..n)
        .map(|i| DoubleCollectProcess::new(i as u32, n))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57a8_1e55_0000_0000);
    let wirings: Vec<Wiring> = (0..n).map(|_| Wiring::random(n, &mut rng)).collect();
    let memory = SharedMemory::new(n, View::new(), wirings)?;
    let mut exec = Executor::new(procs, memory)?;
    let outcome = exec.run(
        fa_memory::RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed)),
        budget,
    )?;
    Ok(outcome.all_halted.then(|| exec.total_steps()))
}

/// Steps to completion for the SWMR (non-anonymous) baseline.
///
/// # Errors
///
/// Propagates executor errors.
pub fn swmr_steps(n: usize, seed: u64, budget: usize) -> Result<Option<usize>, MemoryError> {
    use fa_baselines::{SwmrRegister, SwmrSnapshotProcess};
    let procs: Vec<SwmrSnapshotProcess<u32>> = (0..n)
        .map(|i| SwmrSnapshotProcess::new(i, i as u32, n))
        .collect();
    let mut memory = SharedMemory::named(n, n, SwmrRegister::default())?;
    memory.set_owners((0..n).map(ProcId).collect())?;
    let mut exec = Executor::new(procs, memory)?;
    let outcome = exec.run(
        fa_memory::RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed)),
        budget,
    )?;
    Ok(outcome.all_halted.then(|| exec.total_steps()))
}

/// Steps for the fully-anonymous snapshot (ours), `None` on budget
/// exhaustion.
///
/// # Errors
///
/// Propagates executor errors other than budget exhaustion.
pub fn anonymous_snapshot_steps(
    n: usize,
    seed: u64,
    budget: usize,
) -> Result<Option<usize>, MemoryError> {
    use fa_core::SnapshotProcess;
    let procs: Vec<SnapshotProcess<u32>> =
        (0..n).map(|i| SnapshotProcess::new(i as u32, n)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57a8_1e55_0000_0000);
    let wirings: Vec<Wiring> = (0..n).map(|_| Wiring::random(n, &mut rng)).collect();
    let memory = SharedMemory::new(n, SnapRegister::default(), wirings)?;
    let mut exec = Executor::new(procs, memory)?;
    let outcome = exec.run(
        fa_memory::RandomScheduler::new(ChaCha8Rng::seed_from_u64(seed)),
        budget,
    )?;
    Ok(outcome.all_halted.then(|| exec.total_steps()))
}

/// A seeded RNG for experiment code that needs auxiliary randomness.
#[must_use]
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_stats_aggregates() {
        let s = StepStats::from_sample(&[10, 20, 30]);
        assert_eq!(s.runs, 3);
        assert!((s.mean - 20.0).abs() < f64::EPSILON);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn step_stats_rejects_empty() {
        let _ = StepStats::from_sample(&[]);
    }

    #[test]
    fn snapshot_stats_small() {
        let stats = snapshot_step_stats(3, 0..5).unwrap();
        assert_eq!(stats.runs, 5);
        assert!(stats.min > 0);
        assert!(stats.max >= stats.min);
    }

    #[test]
    fn baselines_terminate_on_small_systems() {
        assert!(swmr_steps(3, 1, 1_000_000).unwrap().is_some());
        assert!(anonymous_snapshot_steps(3, 1, 10_000_000)
            .unwrap()
            .is_some());
        // Double collect usually terminates under random schedules.
        let _ = double_collect_steps(3, 1, 1_000_000).unwrap();
    }

    #[test]
    fn table_printer_is_well_formed() {
        // Smoke: must not panic on aligned input.
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn table_columns_align_to_widest_cell() {
        let s = format_table(
            &["a", "metric"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4, "header, separator, two rows");
        // Every line is padded to the same width and pipe-delimited.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines
            .iter()
            .all(|l| l.starts_with("| ") && l.ends_with(" |")));
        // Pipes line up column-for-column across all rows.
        let pipe_positions = |l: &str| -> Vec<usize> {
            l.char_indices()
                .filter(|(_, c)| *c == '|')
                .map(|(i, _)| i)
                .collect()
        };
        assert!(lines
            .iter()
            .all(|l| pipe_positions(l) == pipe_positions(lines[0])));
        // Cells pad to the widest entry of their column ("333" and "metric").
        assert_eq!(lines[0], "| a   | metric |");
        assert_eq!(lines[2], "| 1   | 2      |");
        assert_eq!(lines[3], "| 333 | 4      |");
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn table_printer_rejects_ragged() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn table_formatter_rejects_ragged() {
        let _ = format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| (*s).to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn arg_value_accepts_both_spellings() {
        assert_eq!(
            arg_value(args(&["--jobs", "4"]), "--jobs"),
            Some("4".into())
        );
        assert_eq!(arg_value(args(&["--jobs=2"]), "--jobs"), Some("2".into()));
        assert_eq!(
            arg_value(args(&["--smoke", "--jobs", "8"]), "--jobs"),
            Some("8".into())
        );
        assert_eq!(arg_value(args(&["--smoke"]), "--jobs"), None);
        // `--jobsx 1` must not match `--jobs`.
        assert_eq!(arg_value(args(&["--jobsx", "1"]), "--jobs"), None);
    }

    #[test]
    fn parse_size_accepts_plain_bytes_and_suffixes() {
        assert_eq!(parse_size("0"), Ok(0));
        assert_eq!(parse_size("65536"), Ok(65_536));
        assert_eq!(parse_size("64KiB"), Ok(64 * 1024));
        assert_eq!(parse_size("64kib"), Ok(64 * 1024));
        assert_eq!(parse_size("2GiB"), Ok(2 << 30));
        assert_eq!(parse_size("1TiB"), Ok(1 << 40));
        assert_eq!(parse_size("3MiB"), Ok(3 << 20));
        // Decimal suffixes are powers of 1000.
        assert_eq!(parse_size("64KB"), Ok(64_000));
        assert_eq!(parse_size("2gb"), Ok(2_000_000_000));
        assert_eq!(parse_size("5TB"), Ok(5_000_000_000_000));
        // Bare letters are the binary CLI shorthand.
        assert_eq!(parse_size("64K"), Ok(64 * 1024));
        assert_eq!(parse_size("2g"), Ok(2 << 30));
        assert_eq!(parse_size("1m"), Ok(1 << 20));
        // Trailing B and whitespace are tolerated.
        assert_eq!(parse_size("128B"), Ok(128));
        assert_eq!(parse_size("  64 KiB  "), Ok(64 * 1024));
    }

    #[test]
    fn parse_size_rejects_garbage_with_usage_messages() {
        assert!(parse_size("").unwrap_err().contains("empty"));
        assert!(parse_size("KiB").unwrap_err().contains("no magnitude"));
        assert!(parse_size("ten").unwrap_err().contains("not a number"));
        assert!(parse_size("64XiB").unwrap_err().contains("not a number"));
        assert!(parse_size("-3KiB").unwrap_err().contains("not a number"));
        assert!(parse_size("1.5GiB").unwrap_err().contains("not a number"));
        assert!(parse_size("999999999999TiB")
            .unwrap_err()
            .contains("overflows"));
    }

    #[test]
    fn report_exit_codes_distinguish_the_three_outcomes() {
        let clean = TaskCheckReport {
            combos: 2,
            total_combos: 2,
            total_states: 10,
            complete: true,
            violation: None,
            quotient: None,
        };
        assert_eq!(report_exit_code(&clean), EXIT_CLEAN);
        let incomplete = TaskCheckReport {
            complete: false,
            ..clean.clone()
        };
        assert_eq!(report_exit_code(&incomplete), EXIT_INCOMPLETE);
        let violated = TaskCheckReport {
            violation: Some("boom".into()),
            ..clean
        };
        assert_eq!(report_exit_code(&violated), EXIT_VIOLATION);
    }

    #[test]
    fn sweep_summary_mentions_the_key_numbers() {
        let s = sweep_summary(&SweepEvent {
            check: "snapshot_task".into(),
            jobs: 4,
            combos_attempted: 25,
            combos_total: 36,
            states: 1234,
            peak_combo_states: 99,
            per_combo_states: vec![],
            elapsed_ns: 500_000_000,
        });
        assert!(s.contains("[snapshot_task]"));
        assert!(s.contains("jobs=4"));
        assert!(s.contains("combos=25/36"));
        assert!(s.contains("states=1234"));
        assert!(s.contains("peak_combo_states=99"));
    }
}
