//! `perfbench compare A/ B/` — did B get worse than A?
//!
//! One row per workload × end-to-end metric found in both result sets,
//! with both values, the metric's bound and a verdict:
//!
//! * `ok` — B is no worse than A by more than the bound;
//! * `unresolved` — B is worse by more than the bound, but the metric's
//!   own within-run spread (in either set) is wider than the bound, so the
//!   two runs cannot tell;
//! * `worse` — B is worse by more than the bound and the spread is tight.
//!
//! Any failed op in B is `worse`: the bound on `failed_share` is 0.

use crate::json::Value;
use crate::workloads::WORKLOADS;
use std::path::Path;

/// A comparison verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Worse,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One row of the comparison table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    /// By how much B is worse than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Judge one metric. `higher_is_better` flips the sign of the change.
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> (f64, Verdict) {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if higher_is_better { -change } else { change };
    let verdict = if worse_by <= bound {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    };
    (worse_by, verdict)
}

/// Compare two parsed `<workload>.json` documents of the same workload.
pub fn compare_runs(workload: &str, a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    if let (Some(fa), Some(fb)) = (num(a, "failed_share"), num(b, "failed_share")) {
        rows.push(Row {
            workload: workload.into(),
            metric: "failed_share".into(),
            unit: "ratio".into(),
            a: fa,
            b: fb,
            bound: 0.0,
            worse_by: fb - fa,
            verdict: if fb > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    let Some(Value::Object(metrics)) = a.get("metrics") else {
        return rows;
    };
    for (name, ma) in metrics {
        let Some(mb) = b.get("metrics").and_then(|m| m.get(name)) else {
            continue;
        };
        let (Some(bound), Some(va), Some(vb)) =
            (num(ma, "bound"), num(ma, "value"), num(mb, "value"))
        else {
            continue;
        };
        let higher = ma.get("better").and_then(Value::as_str) == Some("higher");
        let spread = num(ma, "spread")
            .unwrap_or(0.0)
            .max(num(mb, "spread").unwrap_or(0.0));
        let (worse_by, verdict) = judge(va, vb, higher, bound, spread);
        rows.push(Row {
            workload: workload.into(),
            metric: name.clone(),
            unit: ma.get("unit").and_then(Value::as_str).unwrap_or("").into(),
            a: va,
            b: vb,
            bound,
            worse_by,
            verdict,
        });
    }
    rows
}

fn load(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare every workload's untraced result in `a` and `b`.
pub fn compare_dirs(a: &Path, b: &Path) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        rows.extend(compare_runs(w, &load(a, w)?, &load(b, w)?));
    }
    Ok(rows)
}

/// The table `perfbench compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<18} {:>14} {:>14} {:<7} {:>8} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "unit", "bound", "worse by"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:<18} {:>14.4} {:>14.4} {:<7} {:>7.1}% {:>8.2}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.bound * 100.0,
            r.worse_by * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(100.0, 109.0, false, 0.10, 0.0).1, Verdict::Ok);
        assert_eq!(judge(100.0, 50.0, false, 0.10, 0.0).1, Verdict::Ok);
        assert_eq!(judge(100.0, 120.0, false, 0.10, 0.02).1, Verdict::Worse);
        assert_eq!(
            judge(100.0, 120.0, false, 0.10, 0.15).1,
            Verdict::Unresolved
        );
        // Higher is better: a drop is the bad direction.
        assert_eq!(judge(0.75, 0.60, true, 0.05, 0.0).1, Verdict::Worse);
        assert_eq!(judge(0.75, 0.90, true, 0.05, 0.0).1, Verdict::Ok);
        let (by, _) = judge(0.75, 0.60, true, 0.05, 0.0);
        assert!((by - 0.2).abs() < 1e-12);
    }

    fn run(host: f64, spread: f64, failed_share: f64) -> Value {
        Value::object([
            ("failed_share", Value::Number(failed_share)),
            (
                "metrics",
                Value::object([
                    (
                        "host_ns_per_op",
                        Value::object([
                            ("value", Value::Number(host)),
                            ("unit", Value::String("ns".into())),
                            ("better", Value::String("lower".into())),
                            ("bound", Value::Number(0.1)),
                            ("spread", Value::Number(spread)),
                        ]),
                    ),
                    (
                        "simhw.tlb.hit_rate",
                        Value::object([("value", Value::Number(0.5))]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn rows_cover_bounded_metrics_and_failures() {
        let rows = compare_runs("gups", &run(30.0, 0.01, 0.0), &run(36.0, 0.02, 0.0));
        let verdicts: Vec<_> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("failed_share", Verdict::Ok),
                ("host_ns_per_op", Verdict::Worse)
            ]
        );
        let rows = compare_runs("gups", &run(30.0, 0.01, 0.0), &run(30.0, 0.01, 1e-6));
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(render(&rows).contains("failed_share"));
    }
}
