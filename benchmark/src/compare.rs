//! `compare A B`: two result sets (parent A, change B) judged per
//! workload × end-to-end metric against the bounds in `BENCHMARK.json`.

use std::path::Path;

use serde_json::Value;

use crate::spec::{declared, workloads, Better};
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread (IQR over median) of either side is wider
    /// than [`RESOLVABLE`] of the bound, so "no change" cannot be told from
    /// noise.
    Unresolved,
}

/// Widest spread, as a share of the bound, at which a verdict is trusted.
/// The difference of two ten-run medians has a standard error of about 0.4
/// IQR, so at a third of the bound noise alone rarely moves it by more than
/// a quarter of the bound; at the full bound it could move it by most of it.
pub const RESOLVABLE: f64 = 1.0 / 3.0;

/// Judges `change` against `parent`. Worse: the median moved the wrong way
/// by more than `bound` (a share of the parent's median). Better: the change
/// wins at least nine tenths of all (parent, change) pairs and the medians
/// differ by more than the parent's IQR. A spread wider than
/// [`RESOLVABLE`] of the bound is unresolved unless every change run beats
/// every parent run.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (p1, pm, p3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let beats = |c: f64, p: f64| sign * (c - p) < 0.0;
    let wins = change
        .iter()
        .map(|&c| parent.iter().filter(|&&p| beats(c, p)).count())
        .sum::<usize>();
    let pairs = parent.len() * change.len();
    if spread(parent).max(spread(change)) > RESOLVABLE * bound {
        return if wins == pairs {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = sign * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && wins as f64 >= 0.9 * pairs as f64 && (cm - pm).abs() > p3 - p1 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Untraced run records from a `results.jsonl` file, or from the one in a
/// directory.
fn load(path: &Path) -> Result<Vec<Value>, String> {
    let file = if path.is_dir() {
        path.join("results.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{}: {e}", file.display())))
        .filter(|r| {
            r.as_ref()
                .map_or(true, |v| v["trace"].as_bool() != Some(true))
        })
        .collect()
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r["workload"].as_str() == Some(workload))
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

fn describe(xs: &[f64]) -> String {
    let (q1, m, q3) = quartiles(xs);
    format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", xs.len())
}

pub fn compare_main(a: &Path, b: &Path) -> i32 {
    let run = || -> Result<bool, String> {
        let (parent, change) = (load(a)?, load(b)?);
        let mut any_worse = false;
        println!(
            "{:<16} {:<15} {:<44} {:<44} {:>8} verdict",
            "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "delta"
        );
        for w in workloads() {
            for m in &declared().end_to_end {
                let (name, better) = (m.name.as_str(), m.better);
                let bound = m.bound.ok_or(format!("{name} has no bound"))?;
                let (xs, ys) = (values(&parent, w.name, name), values(&change, w.name, name));
                if xs.is_empty() || ys.is_empty() {
                    continue;
                }
                let v = verdict(&xs, &ys, better, bound);
                any_worse |= v == Verdict::Worse;
                let (_, pm, _) = quartiles(&xs);
                let (_, cm, _) = quartiles(&ys);
                println!(
                    "{:<16} {:<15} {:<44} {:<44} {:>+7.2}% {v:?} (bound {:.0}%)",
                    w.name,
                    name,
                    describe(&xs),
                    describe(&ys),
                    100.0 * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE),
                    100.0 * bound
                );
            }
        }
        Ok(any_worse)
    };
    match run() {
        Ok(false) => 0,
        Ok(true) => 1,
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: &[f64] = &[10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.03, 9.97];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|x| x * by).collect()
    }

    #[test]
    fn a_tight_large_drop_in_a_lower_is_better_metric_is_better() {
        assert_eq!(
            verdict(PARENT, &shifted(0.8), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(PARENT, &shifted(1.2), Better::Higher, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn a_move_past_the_bound_the_wrong_way_is_worse() {
        assert_eq!(
            verdict(PARENT, &shifted(1.2), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(PARENT, &shifted(0.8), Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn small_moves_are_within() {
        assert_eq!(
            verdict(PARENT, &shifted(1.05), Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(verdict(PARENT, PARENT, Better::Lower, 0.1), Verdict::Within);
        // Better by less than the parent's IQR is not a gain.
        assert_eq!(
            verdict(PARENT, &shifted(0.999), Better::Lower, 0.1),
            Verdict::Within
        );
    }

    #[test]
    fn a_spread_wider_than_a_third_of_the_bound_is_unresolved() {
        // IQR over median 4.5%: inside a 10% bound, but over a third of it.
        let middling = [9.7, 10.3, 10.0, 9.6, 10.4, 10.0, 9.8, 10.2, 9.9, 10.1];
        assert_eq!(
            verdict(PARENT, &middling, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(PARENT, &middling, Better::Lower, 0.2),
            Verdict::Within
        );
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 10.0];
        assert_eq!(
            verdict(&noisy, PARENT, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(PARENT, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far = [1.0, 1.5, 2.0, 1.2, 1.8];
        assert_eq!(verdict(&noisy, &far, Better::Lower, 0.1), Verdict::Better);
    }
}
