//! `compare A.json B.json`: judges two result files (as `all` writes them)
//! against the bounds `BENCHMARK.json` declares, one row per (workload,
//! end-to-end metric).

use crate::json::Value;
use crate::metrics::{declared_end_to_end, Declared};
use crate::stats::{median, spread};
use std::fmt::Write as _;

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound and
    /// the two sides' runs overlap: the bound cannot be resolved.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Applies one declared bound to the runs of both sides.
pub fn judge(a: &[f64], b: &[f64], metric: &Declared) -> Verdict {
    let worse = worsening(median(a), median(b), metric.higher_is_better);
    let noisy = spread(a) > metric.bound || spread(b) > metric.bound;
    if noisy {
        // Resolved all the same when every run of B beats every run of A.
        let b_always_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| if metric.higher_is_better { y >= x } else { y <= x }));
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn failed_share(doc: &Value) -> Option<(f64, f64)> {
    let workloads = doc.get("workloads")?.as_object()?;
    let sum = |key: &str| workloads.values().filter_map(|w| w.get(key)?.as_f64()).sum::<f64>();
    Some((sum("failed"), sum("attempted")))
}

/// Renders the comparison table and whether every row is `ok` with no
/// failed operation on either side.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut clean = true;
    writeln!(
        out,
        "{:<22} {:<14} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr"
    )
    .expect("writing to a String cannot fail");
    let declared = declared_end_to_end();
    for workload in crate::workloads::NAMES {
        for metric in &declared {
            let side = |doc, which| {
                runs_of(doc, workload, &metric.name)
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{which} has no runs of {workload}/{}", metric.name))
            };
            let (ra, rb) = (side(a, "A")?, side(b, "B")?);
            let verdict = judge(&ra, &rb, metric);
            clean &= verdict == Verdict::Ok;
            writeln!(
                out,
                "{:<22} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>7.1}% {:>7.1}%  {}",
                workload,
                metric.name,
                median(&ra),
                median(&rb),
                100.0 * worsening(median(&ra), median(&rb), metric.higher_is_better),
                100.0 * metric.bound,
                100.0 * spread(&ra),
                100.0 * spread(&rb),
                verdict.label()
            )
            .expect("writing to a String cannot fail");
        }
    }
    for (which, doc) in [("A", a), ("B", b)] {
        let (failed, attempted) =
            failed_share(doc).ok_or_else(|| format!("{which} has no workloads section"))?;
        clean &= failed == 0.0;
        writeln!(
            out,
            "{which}: {failed} of {attempted} operations failed ({:.3}%)",
            100.0 * failed / attempted.max(1.0)
        )
        .expect("writing to a String cannot fail");
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared { name: "latency".into(), higher_is_better: false, bound }
    }

    fn higher(bound: f64) -> Declared {
        Declared { name: "throughput".into(), higher_is_better: true, bound }
    }

    #[test]
    fn bound_is_a_share_of_the_first_median() {
        assert_eq!(judge(&[100.0], &[109.0], &lower(0.10)), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[111.0], &lower(0.10)), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[50.0], &lower(0.10)), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[91.0], &higher(0.10)), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[89.0], &higher(0.10)), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[150.0], &higher(0.10)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_always_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[100.0; 5], &lower(0.10)), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[70.0; 5], &lower(0.10)), Verdict::Ok);
        assert_eq!(judge(&noisy, &[130.0; 5], &higher(0.10)), Verdict::Ok);
    }

    #[test]
    fn compares_whole_result_files() {
        let metrics = |scale: f64| {
            Value::object(declared_end_to_end().into_iter().map(|d| {
                (d.name, Value::object([("values", Value::Array(vec![Value::Number(scale)]))]))
            }))
        };
        let file = |scale: f64, failed: f64| {
            Value::object([(
                "workloads",
                Value::object(crate::workloads::NAMES.map(|w| {
                    (
                        w,
                        Value::object([
                            ("attempted", Value::Number(10.0)),
                            ("failed", Value::Number(failed)),
                            ("metrics", metrics(scale)),
                        ]),
                    )
                })),
            )])
        };
        let (table, clean) = compare(&file(100.0, 0.0), &file(101.0, 0.0)).unwrap();
        assert!(clean, "{table}");
        assert_eq!(table.matches("  ok\n").count(), 36, "{table}");
        let (table, clean) = compare(&file(100.0, 0.0), &file(101.0, 1.0)).unwrap();
        assert!(!clean && table.contains("B: 6 of 60 operations failed"), "{table}");
        // Same numbers, opposite directions: doubling regresses the
        // lower-is-better metrics only.
        let (table, clean) = compare(&file(100.0, 0.0), &file(200.0, 0.0)).unwrap();
        assert!(!clean);
        assert_eq!(table.matches("  regressed\n").count(), 6 * 4, "{table}");
        assert!(compare(&Value::Null, &file(1.0, 0.0)).is_err());
    }
}
