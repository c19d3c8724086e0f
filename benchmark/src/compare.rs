//! `compare A.json B.json`: apply the bounds of `BENCHMARK.json` to every
//! (end-to-end metric, workload) pair of two result files.
//!
//! A is the baseline, B the change. A pair is `unresolved` when the spread
//! between repeats is wider than the bound, unless every run of B reads
//! better than every run of A.

use crate::json::Json;
use crate::metrics::{iqr_share, median};

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of a parsed `BENCHMARK.json`.
pub fn bounds_of(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric on one workload from the repeats of both sides.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of A's median.
    let worse_by = if ma == 0.0 {
        0.0
    } else if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if iqr_share(a).max(iqr_share(b)) > bound.bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn numbers(v: Option<&Json>) -> Vec<f64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compare two parsed result files; returns the report and whether B passes.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("baseline has no workloads")?;
    let mut report = format!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "baseline", "change", "delta", "bound"
    );
    let mut pass = true;
    for (name, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("change has no workload {name}"))?;
        for bound in bounds {
            let values = |w: &Json| {
                numbers(
                    w.get("end_to_end")
                        .and_then(|m| m.get(&bound.name))
                        .and_then(|m| m.get("values")),
                )
            };
            let (va, vb) = (values(wa), values(wb));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: {} missing from a result file", bound.name));
            }
            let verdict = judge(&va, &vb, bound);
            pass &= verdict != Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            report.push_str(&format!(
                "{:<18} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}\n",
                name,
                bound.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                bound.bound * 100.0,
                verdict.label()
            ));
        }
        let failed = |w: &Json| {
            numbers(w.get("failed")).iter().sum::<f64>()
                / numbers(w.get("attempted")).iter().sum::<f64>().max(1.0)
        };
        let (fa, fb) = (failed(wa), failed(wb));
        let verdict = if fb > fa { "worse" } else { "within" };
        pass &= fb <= fa;
        report.push_str(&format!(
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>9} {:>7}  {}\n",
            name, "fail_ratio", fa, fb, "", "0", verdict
        ));
    }
    Ok((report, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "ops_per_s".into(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(&[10.0], &[10.5], &lower(0.10)), Verdict::Within);
        assert_eq!(judge(&[10.0], &[11.5], &lower(0.10)), Verdict::Worse);
        assert_eq!(judge(&[10.0], &[8.0], &lower(0.10)), Verdict::Better);
        assert_eq!(judge(&[100.0], &[85.0], &higher(0.10)), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[120.0], &higher(0.10)), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            judge(&noisy, &[9.0, 11.0, 12.0, 13.0], &lower(0.10)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[4.0, 5.0, 6.0, 7.0], &lower(0.10)),
            Verdict::Better
        );
    }

    #[test]
    fn report_fails_on_a_worse_pair_or_more_failures() {
        let file = |p50: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w": {{"attempted": [100], "failed": [{failed}],
                    "end_to_end": {{"op_p50_ms": {{"unit": "ms", "values": [{p50}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let bounds = [lower(0.10)];
        assert!(
            compare(&file(10.0, 0.0), &file(10.2, 0.0), &bounds)
                .unwrap()
                .1
        );
        assert!(
            !compare(&file(10.0, 0.0), &file(12.0, 0.0), &bounds)
                .unwrap()
                .1
        );
        assert!(
            !compare(&file(10.0, 0.0), &file(10.0, 1.0), &bounds)
                .unwrap()
                .1
        );
        assert!(compare(&file(10.0, 0.0), &Json::obj(vec![]), &bounds).is_err());
    }

    #[test]
    fn bounds_come_from_the_spec() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds_of(&spec).unwrap(), vec![higher(0.1)]);
    }
}
