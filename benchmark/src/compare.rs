//! `smartbench compare <setA> <setB>`: two sets of run files, one row per
//! workload × end-to-end metric.
//!
//! A set is a directory (searched two levels deep) of the `run-*.json`
//! files untraced runs write.  Each row shows both medians and quartiles,
//! the relative gap between the medians, the metric's bound, and a
//! verdict:
//!
//! * `repeatable` — gap and both spreads within the bound;
//! * `unresolved` — a set's own quartile spread is wider than the bound,
//!   so the gap says nothing either way;
//! * `outlier-run` — some run sits more than a fifth on the bad side of
//!   its own set's median (a machine-wide slow period, like the issue's
//!   run that sat 30 % low from start to finish); it is named and left
//!   out of the medians instead of being averaged in;
//! * `DIFFERS` — the gap exceeds the bound.  Any such row makes the
//!   command exit non-zero.

use crate::catalogue as cat;
use crate::estimate::{self, Better};
use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One untraced run: its seed and its end-to-end values by name.
#[derive(Debug, Clone)]
pub struct RunValues {
    pub seed: u64,
    pub values: BTreeMap<String, f64>,
}

/// Workload name → its runs.
pub type Set = BTreeMap<String, Vec<RunValues>>;

fn read_run(path: &Path, set: &mut Set) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("trace").and_then(Value::as_bool) != Some(false) {
        return Ok(());
    }
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{}: no {k:?}", path.display()))
    };
    let workload = field("workload")?.as_str().unwrap_or_default().to_string();
    let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
    let metrics = field("result")?
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{}: no metrics", path.display()))?;
    let values = metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    set.entry(workload)
        .or_default()
        .push(RunValues { seed, values });
    Ok(())
}

pub fn read_set(dir: &Path) -> Result<Set, String> {
    fn walk(dir: &Path, depth: usize, set: &mut Set) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() && depth < 2 {
                walk(&p, depth + 1, set)?;
            } else if p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("run-"))
            {
                read_run(&p, set)?;
            }
        }
        Ok(())
    }
    let mut set = Set::new();
    walk(dir, 0, &mut set)?;
    if set.is_empty() {
        return Err(format!(
            "{}: no untraced run files (run-*.json)",
            dir.display()
        ));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Repeatable,
    Unresolved,
    OutlierRun,
    Differs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Repeatable => "repeatable",
            Verdict::Unresolved => "unresolved",
            Verdict::OutlierRun => "outlier-run",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// Median, quartiles and spread of one set's values for one metric, with
/// the seeds of the runs left out as outliers.
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub outliers: Vec<u64>,
}

impl Side {
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A run this far on the bad side of its own set's median is an outlier.
/// Fixed, not a multiple of the metric's bound: the slow spells of the
/// host take 10–20 % whatever the metric, and a run 30 % low must be
/// named however wide the bound is.
pub const OUTLIER_SHARE: f64 = 0.20;

/// How far `value` is on the bad side of `reference`, as a share of it.
fn worse_by(value: f64, reference: f64, better: Better) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (value - reference) / reference.abs(),
        Better::Higher => (reference - value) / reference.abs(),
    }
}

pub fn side(runs: &[RunValues], metric: &cat::EndToEnd) -> Option<Side> {
    let all: Vec<(u64, f64)> = runs
        .iter()
        .filter_map(|r| Some((r.seed, *r.values.get(metric.name)?)))
        .collect();
    if all.is_empty() {
        return None;
    }
    let median_all = estimate::median(&all.iter().map(|x| x.1).collect::<Vec<_>>());
    let is_outlier = |v: f64| worse_by(v, median_all, metric.better) > OUTLIER_SHARE;
    let mut outliers: Vec<u64> = all
        .iter()
        .filter(|x| is_outlier(x.1))
        .map(|x| x.0)
        .collect();
    let mut kept: Vec<f64> = all
        .iter()
        .filter(|x| !is_outlier(x.1))
        .map(|x| x.1)
        .collect();
    if kept.len() < 3 {
        // Too few runs to call any of them the odd one out.
        kept = all.iter().map(|x| x.1).collect();
        outliers.clear();
    }
    let (q1, q3) = estimate::quartiles(&kept);
    Some(Side {
        median: estimate::median(&kept),
        q1,
        q3,
        outliers,
    })
}

/// Relative gap of B's median to A's (positive: B is worse) and verdict.
pub fn judge(a: &Side, b: &Side, metric: &cat::EndToEnd) -> (f64, Verdict) {
    let gap = worse_by(b.median, a.median, metric.better);
    let verdict = if gap.abs() > metric.bound {
        Verdict::Differs
    } else if !a.outliers.is_empty() || !b.outliers.is_empty() {
        Verdict::OutlierRun
    } else if a.spread() > metric.bound || b.spread() > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Repeatable
    };
    (gap, verdict)
}

pub fn run(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (a, b) = (read_set(Path::new(dir_a))?, read_set(Path::new(dir_b))?);
    println!(
        "{:<18} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "gap", "bound"
    );
    let mut all_within = true;
    for w in &cat::WORKLOADS {
        let (Some(runs_a), Some(runs_b)) = (a.get(w.name), b.get(w.name)) else {
            println!("{:<18} (not in both sets)", w.name);
            continue;
        };
        for metric in &cat::END_TO_END {
            let (Some(sa), Some(sb)) = (side(runs_a, metric), side(runs_b, metric)) else {
                continue;
            };
            let (gap, verdict) = judge(&sa, &sb, metric);
            all_within &= verdict != Verdict::Differs;
            let quartiles = |s: &Side| format!("[{:.5}, {:.5}]", s.q1, s.q3);
            let mut note = String::new();
            for (label, s) in [("A", &sa), ("B", &sb)] {
                if !s.outliers.is_empty() {
                    note.push_str(&format!(" (set {label} without seeds {:?})", s.outliers));
                }
            }
            println!(
                "{:<18} {:<15} {:>12.5} {:>25} {:>12.5} {:>25} {:>+7.2}% {:>5.0}%  {}{}",
                w.name,
                metric.name,
                sa.median,
                quartiles(&sa),
                sb.median,
                quartiles(&sb),
                gap * 100.0,
                metric.bound * 100.0,
                verdict.as_str(),
                note
            );
        }
    }
    println!(
        "{}",
        if all_within {
            "compare: every gap is within its bound"
        } else {
            "compare: at least one gap exceeds its bound"
        }
    );
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<RunValues> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| RunValues {
                seed: i as u64 + 1,
                values: BTreeMap::from([("jobs_per_s".to_string(), v)]),
            })
            .collect()
    }

    fn jobs_per_s() -> &'static cat::EndToEnd {
        cat::END_TO_END
            .iter()
            .find(|m| m.name == "jobs_per_s")
            .unwrap()
    }

    #[test]
    fn equal_sets_are_repeatable_and_a_shift_differs() {
        let m = jobs_per_s();
        let a = side(&runs(&[100.0, 101.0, 99.0, 100.5, 99.5]), m).unwrap();
        let b = side(&runs(&[100.2, 100.9, 99.1, 100.4, 99.6]), m).unwrap();
        let (gap, verdict) = judge(&a, &b, m);
        assert!(gap.abs() < 0.01);
        assert_eq!(verdict, Verdict::Repeatable);
        let slower: Vec<f64> = [100.0, 101.0, 99.0, 100.5, 99.5]
            .iter()
            .map(|v| v * (1.0 - 1.5 * m.bound))
            .collect();
        let (gap, verdict) = judge(&a, &side(&runs(&slower), m).unwrap(), m);
        assert!(gap > m.bound);
        assert_eq!(verdict, Verdict::Differs);
    }

    #[test]
    fn a_slow_run_is_named_not_averaged_in() {
        let m = jobs_per_s();
        let slow = 100.0 * (1.0 - 0.30);
        let a = side(&runs(&[100.0, 101.0, slow, 100.5, 99.5]), m).unwrap();
        assert_eq!(a.outliers, vec![3]);
        assert!(a.median > 99.0);
        let b = side(&runs(&[100.0, 101.0, 99.0, 100.5, 99.5]), m).unwrap();
        assert_eq!(judge(&a, &b, m).1, Verdict::OutlierRun);
    }

    #[test]
    fn a_wide_set_is_unresolved() {
        let m = jobs_per_s();
        let wide = 100.0 * m.bound;
        let a = side(
            &runs(&[
                100.0 - wide,
                100.0 + wide,
                100.0,
                100.0 - wide,
                100.0 + wide,
            ]),
            m,
        )
        .unwrap();
        let b = side(&runs(&[100.0, 100.1, 99.9, 100.0, 100.2]), m).unwrap();
        assert_eq!(judge(&a, &b, m).1, Verdict::Unresolved);
    }
}
