//! Workload and metric definitions, the seed → inputs mapping, and the
//! output checks every run applies.
//!
//! `BENCHMARK.json` is the one list of workload names and reasons and of
//! metric names, units, directions and bounds; it is compiled in. This file
//! adds what the JSON cannot say: each workload's inputs and sizes, and which
//! end-to-end metric each per-layer metric should move.

use std::sync::OnceLock;

use serde_json::Value;

/// Seed used when `--seed` is not given; also the fuzz campaign seed of the
/// committed baseline.
pub const DEFAULT_SEED: u64 = 0xf0cc_5eed;

/// Explorer granularity of one sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// PlusCal label granularity: a whole scan is one step.
    Coarse,
    /// Every register read is its own step.
    PerRead,
}

impl Granularity {
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Coarse => "coarse",
            Granularity::PerRead => "per_read",
        }
    }
}

/// Exact quotient ledger of a full-size quotiented workload.
#[derive(Clone, Copy, Debug)]
pub struct Ledger {
    pub classes: usize,
    pub full_states: u64,
    pub spilled_shards: usize,
}

/// One or more `check_snapshot_task{,_coarse}_with` sweeps.
#[derive(Clone, Debug)]
pub struct CheckerSpec {
    pub n: usize,
    /// `[v; n]` inputs (one group) instead of `n` distinct values.
    pub symmetric: bool,
    pub sweeps: &'static [Granularity],
    /// Per-combo state cap; every combo's reachable space exceeds it, so
    /// every combo must report exactly this many states.
    pub cap: usize,
    pub jobs: usize,
    /// `Some(w)`: `StrategyKind::IntraCombo { workers: w }`.
    pub intra_workers: Option<usize>,
    pub quotient: bool,
    pub visited_budget: Option<usize>,
    /// Journal the sweep into a fresh checkpoint directory.
    pub checkpoint: bool,
    /// Checked only at full size; shrunk instances check its shape.
    pub ledger: Option<Ledger>,
}

/// One `run_campaign` call.
#[derive(Clone, Debug)]
pub struct FuzzSpec {
    pub cases: usize,
    pub ns: &'static [usize],
    pub budget: usize,
    pub jobs: usize,
    /// `(total_steps, distinct_patterns)` on [`DEFAULT_SEED`] at full size.
    pub default_seed_expect: Option<(u64, usize)>,
}

#[derive(Clone, Debug)]
pub enum Kind {
    Checker(CheckerSpec),
    Fuzz(FuzzSpec),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const BOTH: &[Granularity] = &[Granularity::Coarse, Granularity::PerRead];
const COARSE: &[Granularity] = &[Granularity::Coarse];

const E3: CheckerSpec = CheckerSpec {
    n: 3,
    symmetric: false,
    sweeps: BOTH,
    cap: 20_000,
    jobs: 1,
    intra_workers: None,
    quotient: false,
    visited_budget: None,
    checkpoint: false,
    ledger: None,
};

/// What a workload declared in `BENCHMARK.json` runs.
fn kind(name: &str) -> Option<Kind> {
    Some(match name {
        "e3-n3" => Kind::Checker(E3),
        "e3-n3-intra2" => Kind::Checker(CheckerSpec {
            jobs: 2,
            intra_workers: Some(2),
            ..E3
        }),
        "e18-n4" => Kind::Checker(CheckerSpec {
            n: 4,
            symmetric: false,
            sweeps: COARSE,
            cap: 100,
            jobs: 2,
            intra_workers: None,
            quotient: false,
            visited_budget: None,
            checkpoint: true,
            ledger: None,
        }),
        "e24-n4-quotient" => Kind::Checker(CheckerSpec {
            n: 4,
            symmetric: true,
            sweeps: COARSE,
            cap: 1_000,
            jobs: 1,
            intra_workers: None,
            quotient: true,
            visited_budget: Some(16 * 1024),
            checkpoint: false,
            ledger: Some(Ledger {
                classes: 762,
                full_states: 17_412_727,
                spilled_shards: 9_144,
            }),
        }),
        "e19-fuzz" => Kind::Fuzz(FuzzSpec {
            cases: 15_000,
            ns: &[3, 4, 5, 6],
            budget: 600,
            jobs: 1,
            default_seed_expect: Some((6_078_932, 3_694)),
        }),
        _ => return None,
    })
}

/// The workloads of `BENCHMARK.json`, in its order.
pub fn workloads() -> Vec<Workload> {
    declared()
        .workloads
        .iter()
        .map(|(name, why)| Workload {
            name,
            why,
            kind: kind(name).unwrap_or_else(|| {
                panic!("BENCHMARK.json declares workload {name:?}, not defined")
            }),
        })
        .collect()
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with its per-combo cap or case count divided by
    /// `div`: the set-up warm-up and the in-process unit tests run it. Exact
    /// full-size expectations are dropped; structural checks remain.
    pub fn shrunk(&self, div: usize) -> Workload {
        let kind = match &self.kind {
            Kind::Checker(c) => Kind::Checker(CheckerSpec {
                cap: (c.cap / div).max(8),
                ledger: None,
                ..c.clone()
            }),
            Kind::Fuzz(f) => Kind::Fuzz(FuzzSpec {
                cases: (f.cases / div).max(30),
                default_seed_expect: None,
                ..f.clone()
            }),
        };
        Workload {
            kind,
            ..self.clone()
        }
    }

    /// Threads one timed call may use.
    pub fn threads(&self) -> usize {
        match &self.kind {
            Kind::Checker(c) => c.jobs,
            Kind::Fuzz(f) => f.jobs,
        }
    }
}

/// Deterministic 64-bit generator (SplitMix64): the benchmark's only source
/// of seeded choices, so inputs depend on `--seed` alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..bound` (bound is tiny here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Input values for an `n`-processor checker workload: `n` distinct values
/// in `1..64`, or one shared value for a symmetric workload. State counts do
/// not depend on the labels, so every check applies to every seed.
pub fn inputs(n: usize, symmetric: bool, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix(seed);
    let mut draw = || 1 + u32::try_from(rng.below(63)).expect("below 63 fits u32");
    if symmetric {
        return vec![draw(); n];
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = draw();
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Wiring combinations of an `n`-processor sweep: `(n!)^(n-1)`.
pub fn combos(n: usize) -> usize {
    let fact: usize = (1..=n).product();
    fact.pow(u32::try_from(n - 1).expect("small n"))
}

/// Whether the better direction of a metric is up or down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug)]
pub struct Declared {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// `BENCHMARK.json` as compiled into this binary.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        parse_declared(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn parse_declared(text: &str) -> Result<Declared, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let list = |key: &str| doc[key].as_array().ok_or_else(|| format!("no {key} list"));
    let text_of = |v: &Value, key: &str| {
        v[key]
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{v:?} has no {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: m["better"]
                        .as_str()
                        .and_then(Better::parse)
                        .ok_or_else(|| format!("{m:?}: better is neither lower nor higher"))?,
                    bound: m["bound"].as_f64(),
                })
            })
            .collect()
    };
    Ok(Declared {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Which end-to-end metric each per-layer metric should move, on which
/// workload. Metrics of a layer a workload never enters read 0 there; every
/// time-valued metric is measured on every workload.
const MOVES: &[(&str, &str)] = &[
    ("call.span_s", "wall_s on all"),
    ("call.self_share", "wall_s on e18-n4; ~0 on e3-n3"),
    ("proc.cpu_util", "wall_s on e3-n3-intra2, e18-n4"),
    ("units.count", "none (combos or cases)"),
    ("units.busy_s", "wall_s on all"),
    ("units.ns_per_state", "verified_per_s on all"),
    ("units.p50_ms", "wall_s on e3-n3, e18-n4"),
    ("units.tail_ms", "wall_s on e3-n3-intra2, e18-n4"),
    ("units.tail_pct", "none (names the tail percentile)"),
    ("step.calls", "none (work count)"),
    ("step.ns_per_call", "verified_per_s on e3-n3, e19-fuzz"),
    ("step.per_state", "none (work count)"),
    ("arena.ids_total", "peak_rss_mib on e3-n3"),
    ("arena.encode_share", "verified_per_s on e3-n3"),
    ("arena.decode_share", "verified_per_s on e3-n3"),
    ("canon.calls", "none (work count, e24 only)"),
    ("canon.share", "verified_per_s on e24-n4-quotient"),
    ("canon.orbit_factor", "verified_per_s on e24-n4-quotient"),
    ("canon.combo_reps_share", "wall_s on e24-n4-quotient"),
    ("store.lookups", "none (work count)"),
    ("store.hit_rate", "none (work shape)"),
    (
        "store.lookup_share",
        "verified_per_s on e3-n3, e24-n4-quotient",
    ),
    (
        "store.insert_share",
        "verified_per_s on e3-n3, e24-n4-quotient",
    ),
    ("store.read_row_share", "verified_per_s on e24-n4-quotient"),
    ("store.spilled_shards", "wall_s on e24-n4-quotient"),
    ("store.approx_mib", "peak_rss_mib on e3-n3"),
    ("checkpoint.journal_bytes", "wall_s on e18-n4"),
    ("checkpoint.records", "wall_s on e18-n4"),
    (
        "checkpoint.recover_share",
        "none (recovery cost, e18-n4 only)",
    ),
    ("explorer.intra_vs_serial", "wall_s on e3-n3-intra2"),
    ("fuzz.case_gen_share", "verified_per_s on e19-fuzz"),
    ("fuzz.cost_ratio.snapshot", "verified_per_s on e19-fuzz"),
    ("fuzz.cost_ratio.renaming", "verified_per_s on e19-fuzz"),
    ("fuzz.cost_ratio.consensus", "verified_per_s on e19-fuzz"),
    ("fuzz.shrink_calls", "none (0 on a clean campaign)"),
    ("trace.overhead", "none (reported, not gated)"),
    ("trace.closure", "none (reported, not gated)"),
];

/// The "moves" entry of a per-layer metric; empty for end-to-end ones.
pub fn moves(metric: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, moves)| moves)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_distinct_and_in_range() {
        for seed in [0, 1, DEFAULT_SEED, u64::MAX] {
            for n in [3, 4] {
                let a = inputs(n, false, seed);
                assert_eq!(a, inputs(n, false, seed), "same seed, same inputs");
                assert_eq!(a.len(), n);
                assert!(a.iter().all(|v| (1..64).contains(v)));
                let mut d = a.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), n, "distinct values: {a:?}");
                let s = inputs(n, true, seed);
                assert!(s.iter().all(|&v| v == s[0] && (1..64).contains(&v)));
            }
        }
        let spread: std::collections::BTreeSet<Vec<u32>> =
            (0..20).map(|s| inputs(3, false, s)).collect();
        assert!(spread.len() > 15, "seeds pick different inputs");
    }

    #[test]
    fn combo_counts_match_the_paper_sweeps() {
        assert_eq!(combos(3), 36);
        assert_eq!(combos(4), 13_824);
    }

    /// Every declared workload has a definition, and every declared
    /// per-layer metric says what it should move.
    #[test]
    fn benchmark_json_is_fully_defined_here() {
        let d = declared();
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), d.workloads.len());
        let layer_names: Vec<&str> = d.per_layer.iter().map(|m| m.name.as_str()).collect();
        let moves_names: Vec<&str> = MOVES.iter().map(|(name, _)| *name).collect();
        assert_eq!(layer_names, moves_names);
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn end_to_end_bounds_are_in_range_and_setup_has_the_largest() {
        let e2e = &declared().end_to_end;
        let bound = |name: &str| {
            e2e.iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound)
                .unwrap_or_else(|| panic!("{name} has no bound"))
        };
        let setup = bound("setup_s");
        for m in e2e {
            let b = bound(&m.name);
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(setup >= b, "{}", m.name);
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let d = declared();
        let names: Vec<&str> = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
