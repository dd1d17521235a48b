//! The report a run writes (`--out`) and the comparison of two of them
//! (`--compare`).

use skil_serve::json::{self, obj, Json};

use crate::daemon::{Checked, Repetition};
use crate::metrics::{bounds, Better, Metrics, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// What one workload measured. Either half may be absent (`--trace`).
pub struct WorkloadReport {
    pub name: &'static str,
    /// Requests in each repetition's measured window.
    pub requests: usize,
    pub end_to_end: Option<Vec<Repetition>>,
    pub per_layer: Option<Metrics>,
    pub checked: Checked,
}

impl WorkloadReport {
    /// The end-to-end metrics, each over the repetitions.
    pub fn summaries(&self) -> Vec<(&'static str, &'static str, Summary)> {
        let Some(reps) = &self.end_to_end else { return Vec::new() };
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, _))| {
                (name, unit, Summary::of(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
            })
            .collect()
    }

    pub fn fail_share(&self) -> f64 {
        self.checked.failed as f64 / self.checked.attempted.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let end_to_end = self
            .summaries()
            .into_iter()
            .map(|(name, unit, s)| {
                let fields = vec![
                    ("unit", Json::Str(unit.into())),
                    ("median", Json::Num(s.median)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("n", Json::Num(s.n as f64)),
                ];
                (name, obj(fields))
            })
            .collect();
        let per_layer =
            self.per_layer.iter().flatten().map(|(&name, &v)| (name, Json::Num(v))).collect();
        obj(vec![
            ("requests_per_repetition", Json::Num(self.requests as f64)),
            ("attempted", Json::Num(self.checked.attempted as f64)),
            ("failed", Json::Num(self.checked.failed as f64)),
            ("fail_share", Json::Num(self.fail_share())),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
        ])
    }
}

/// The whole report: `header` says what ran where.
pub fn to_json(header: &[(&str, String)], workloads: &[WorkloadReport]) -> Json {
    obj(vec![
        ("header", obj(header.iter().map(|(k, v)| (*k, Json::Str(v.clone()))).collect())),
        ("workloads", obj(workloads.iter().map(|w| (w.name, w.to_json())).collect())),
    ])
}

/// The last line of a run: `correct`, `attempted`, `failed`, and every
/// metric measured as `{"value", "unit"}`. Metric names are bare for one
/// workload and prefixed with `<workload>/` for several.
pub fn result_line(workloads: &[WorkloadReport]) -> (Json, Checked) {
    let mut total = Checked::default();
    let mut metrics = std::collections::BTreeMap::new();
    for w in workloads {
        total.absorb(w.checked);
        let prefix = if workloads.len() == 1 { String::new() } else { format!("{}/", w.name) };
        let mut push = |name: &str, value: f64, unit: &str| {
            let fields = vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))];
            metrics.insert(format!("{prefix}{name}"), obj(fields));
        };
        for (name, unit, s) in w.summaries() {
            push(name, s.median, unit);
        }
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = w.per_layer.as_ref().and_then(|m| m.get(name)) {
                push(name, *v, unit);
            }
        }
    }
    let line = obj(vec![
        ("correct", Json::Bool(total.failed == 0)),
        ("attempted", Json::Num(total.attempted as f64)),
        ("failed", Json::Num(total.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    (line, total)
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The repetitions of one report (or both) spread wider than the
    /// bound, and their ranges overlap: more runs are needed.
    Unresolved,
}

/// `setup_s` may move by this much whatever its bound says: a 10 ms
/// set-up cannot be held to a quarter of itself.
const SETUP_SLACK_S: f64 = 0.05;

/// Compare report `b` (the change) with report `a` (the parent) on one
/// metric. `slack` is an absolute difference that never counts.
pub fn verdict(a: Summary, b: Summary, better: Better, bound: f64, slack: f64) -> Verdict {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median;
    let small = (b.median - a.median).abs() <= slack;
    let steady = |s: Summary| s.max - s.min <= slack || (s.max - s.min) / s.median <= bound;
    // Every run of one side beats every run of the other: the ranges
    // settle it however wide they are.
    let (b_all_better, b_all_worse) = match better {
        Better::Lower => (b.max < a.min, b.min > a.max),
        Better::Higher => (b.min > a.max, b.max < a.min),
    };
    let resolved = steady(a) && steady(b);
    if small || worse_by.abs() <= bound {
        if resolved || b_all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > 0.0 {
        if resolved || b_all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if resolved || b_all_better {
        Verdict::Improved
    } else {
        Verdict::Unresolved
    }
}

fn summary_of(v: &Json) -> Option<Summary> {
    let num = |key| match v.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    Some(Summary {
        median: num("median")?,
        min: num("min")?,
        max: num("max")?,
        n: num("n")? as usize,
    })
}

/// Print a verdict for every (end-to-end metric, workload) pair two
/// reports share. `Ok(true)` when nothing regressed or stayed unresolved.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a = json::parse(a_text).map_err(|e| format!("first report: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second report: {e}"))?;
    let (Some(Json::Obj(a_workloads)), Some(b_workloads)) =
        (a.get("workloads"), b.get("workloads"))
    else {
        return Err("not a benchmark report (no `workloads`)".into());
    };
    let bounds = bounds();
    let bound = |name: &str| bounds.iter().find(|(n, _)| n == name).expect("a bound").1;
    let mut clean = true;
    let mut compared = 0;
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (workload, wa) in a_workloads {
        let Some(wb) = b_workloads.get(workload) else { continue };
        for (name, _, better) in END_TO_END {
            let side =
                |w: &Json| w.get("end_to_end").and_then(|e| e.get(name)).and_then(summary_of);
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else { continue };
            let slack = if name == "setup_s" { SETUP_SLACK_S } else { 0.0 };
            let v = verdict(sa, sb, better, bound(name), slack);
            clean &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            compared += 1;
            println!(
                "{workload:<14} {name:<15} {:>12.4} {:>12.4} {:>+7.1}%  {v:?}",
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median * 100.0
            );
        }
        // Any increase in the share of wrong answers is a regression.
        let fails = |w: &Json| match w.get("fail_share") {
            Some(Json::Num(f)) => *f,
            _ => 0.0,
        };
        let (fa, fb) = (fails(wa), fails(wb));
        let v = if fb > fa { Verdict::Regressed } else { Verdict::Unchanged };
        clean &= v == Verdict::Unchanged;
        println!("{workload:<14} {:<15} {fa:>12.6} {fb:>12.6} {:>8}  {v:?}", "fail_share", "");
    }
    if compared == 0 {
        return Err("the two reports share no end-to-end metric".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    fn s(min: f64, median: f64, max: f64) -> Summary {
        Summary { median, min, max, n: 3 }
    }

    #[test]
    fn noise_within_the_bound_is_unchanged() {
        let a = s(98.0, 100.0, 103.0);
        let b = s(99.0, 104.0, 106.0);
        assert_eq!(verdict(a, b, Lower, 0.10, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(a, b, Higher, 0.10, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_real_regression_is_regressed_in_either_direction() {
        let a = s(98.0, 100.0, 103.0);
        let slower = s(128.0, 130.0, 133.0);
        assert_eq!(verdict(a, slower, Lower, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(verdict(a, slower, Higher, 0.10, 0.0), Verdict::Improved);
        assert_eq!(verdict(slower, a, Lower, 0.10, 0.0), Verdict::Improved);
        assert_eq!(verdict(slower, a, Higher, 0.10, 0.0), Verdict::Regressed);
    }

    #[test]
    fn crossed_ranges_wider_than_the_bound_are_unresolved() {
        // Medians 30 % apart, but each side's runs spread 50 %, and the
        // ranges overlap: no verdict.
        let a = s(80.0, 100.0, 130.0);
        let b = s(95.0, 130.0, 160.0);
        assert_eq!(verdict(a, b, Lower, 0.10, 0.0), Verdict::Unresolved);
        // Same medians, same spread: not "unchanged" either.
        assert_eq!(verdict(a, s(75.0, 101.0, 135.0), Lower, 0.10, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn wide_ranges_that_do_not_cross_still_resolve() {
        let a = s(80.0, 100.0, 130.0);
        assert_eq!(verdict(a, s(140.0, 170.0, 200.0), Lower, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(verdict(a, s(40.0, 55.0, 70.0), Lower, 0.10, 0.0), Verdict::Improved);
    }

    #[test]
    fn a_small_absolute_difference_never_counts() {
        // setup_s: 10 ms against 16 ms is +60 %, and nothing.
        let (a, b) = (s(0.008, 0.010, 0.013), s(0.012, 0.016, 0.021));
        assert_eq!(verdict(a, b, Lower, 0.25, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(a, b, Lower, 0.25, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn reports_compare_end_to_end() {
        let rep = |throughput: f64| -> Repetition { [throughput, 1.0, 2.0, 0.5, 30.0, 0.02] };
        let report = |throughput: f64, failed: usize| {
            let w = WorkloadReport {
                name: "hot_small",
                requests: 10,
                end_to_end: Some(vec![
                    rep(throughput),
                    rep(throughput * 1.01),
                    rep(throughput * 0.99),
                ]),
                per_layer: None,
                checked: Checked { attempted: 30, failed },
            };
            to_json(&[("seed", "1".into())], &[w]).to_string()
        };
        assert_eq!(compare(&report(1000.0, 0), &report(1010.0, 0)), Ok(true));
        assert_eq!(compare(&report(1000.0, 0), &report(700.0, 0)), Ok(false));
        assert_eq!(compare(&report(1000.0, 0), &report(1000.0, 1)), Ok(false));
        assert!(compare("{}", "{}").is_err());
    }
}
