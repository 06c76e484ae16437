//! `bench_suite compare A.json B.json`: parent runs (A) against change runs
//! (B), one row per workload and metric, never a combined score.

use crate::metrics::{def, Better};
use crate::stats::quartiles;
use crate::trajectory::Entry;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the data cannot
    /// tell unchanged from regressed.
    Unresolved,
    /// A count that repeats exactly on both sides.
    Same,
    /// A count that differs between or within the sides.
    Differs,
    /// A per-layer measurement without a bound.
    Info,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub verdict: Verdict,
}

/// The verdict on one bounded metric, from the values of A's runs and B's
/// runs in run order (run `i` of A and run `i` of B form a pair).
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    // Positive = B is worse than A.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse = |x: f64, y: f64| sign * (x - y);
    let scale = am.abs().max(f64::MIN_POSITIVE);
    let spread = ((a3 - a1) / scale).max((b3 - b1) / bm.abs().max(f64::MIN_POSITIVE));
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| worse(y, x) < 0.0));
    if spread > bound && !b_beats_all {
        return Verdict::Unresolved;
    }
    if worse(bm, am) / scale > bound {
        return Verdict::Regressed;
    }
    // A gain needs B to win nine tenths of the pairs and the medians to
    // differ by more than the spread of A's own runs.
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| worse(b[i], a[i]) < 0.0).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && -worse(bm, am) > a3 - a1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The row that carries each workload's failed requests.
const FAILED_FRAC: &str = "failed_frac";

/// Values of every `(workload, metric)` over the entries, in run order. The
/// runs' `failed / attempted` is added as the metric [`FAILED_FRAC`].
fn collect(entries: &[Entry]) -> BTreeMap<(String, String), (String, Vec<f64>)> {
    let mut out: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    for e in entries {
        for r in &e.results {
            let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
            let values = r
                .metrics
                .iter()
                .map(|(name, value, unit)| (name.as_str(), *value, unit.as_str()))
                .chain([(FAILED_FRAC, failed_frac, "ratio")]);
            for (name, value, unit) in values {
                out.entry((r.workload.clone(), name.to_string()))
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    out
}

/// `(failed, attempted)` of each workload, summed over the entries.
fn failures(entries: &[Entry]) -> BTreeMap<&str, (u64, u64)> {
    let mut out: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in entries.iter().flat_map(|e| &e.results) {
        let sum = out.entry(r.workload.as_str()).or_default();
        sum.0 += r.failed;
        sum.1 += r.attempted;
    }
    out
}

/// Compares B's share of failed requests with A's, as exact fractions.
fn failure_verdict(
    (a_failed, a_attempted): (u64, u64),
    (b_failed, b_attempted): (u64, u64),
) -> Verdict {
    let a = u128::from(a_failed) * u128::from(b_attempted.max(1));
    let b = u128::from(b_failed) * u128::from(a_attempted.max(1));
    match b.cmp(&a) {
        std::cmp::Ordering::Greater => Verdict::Regressed,
        std::cmp::Ordering::Less => Verdict::Improved,
        std::cmp::Ordering::Equal => Verdict::Unchanged,
    }
}

/// One row per workload and metric present on both sides. A workload whose
/// B runs fail a larger share of their requests than A's gets no improved
/// row: a gain bought by failing requests is reported as regressed.
pub fn compare(a: &[Entry], b: &[Entry]) -> Vec<Row> {
    let b_values = collect(b);
    let (a_failures, b_failures) = (failures(a), failures(b));
    collect(a)
        .into_iter()
        .filter_map(|(key, (unit, a))| {
            let (_, b) = b_values.get(&key)?;
            let failed = failure_verdict(a_failures[key.0.as_str()], b_failures[key.0.as_str()]);
            let metric = def(&key.1);
            let verdict = match metric {
                _ if key.1 == FAILED_FRAC => failed,
                Some(m) if m.bound.is_some() => {
                    match verdict(&a, b, m.better, m.bound.expect("guarded")) {
                        Verdict::Improved if failed == Verdict::Regressed => Verdict::Regressed,
                        v => v,
                    }
                }
                _ if unit == "count" => {
                    if a.iter().chain(b).all(|&v| v == a[0]) {
                        Verdict::Same
                    } else {
                        Verdict::Differs
                    }
                }
                _ => Verdict::Info,
            };
            Some(Row {
                workload: key.0,
                metric: key.1,
                unit,
                a,
                b: b.clone(),
                verdict,
            })
        })
        .collect()
}

/// The comparison as text, one line per workload and metric.
pub fn render(rows: &[Row]) -> String {
    let side = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{m:>12.4} [{q1:.4}, {q3:.4}] n={}", v.len())
    };
    let mut out = format!(
        "{:<15} {:<31} {:<6} {:<46} {:<46} verdict\n",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<31} {:<6} {:<46} {:<46} {:?}\n",
            r.workload,
            r.metric,
            r.unit,
            side(&r.a),
            side(&r.b),
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::WorkloadResult;

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let shift = |k: f64| base.map(|v| v * k);
        let lower = Better::Lower;
        assert_eq!(verdict(&base, &base, lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &shift(1.05), lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &shift(1.2), lower, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&base, &shift(0.9), lower, 0.1), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&base, &shift(0.8), Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A spread wider than the bound leaves the verdict open...
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&base, &noisy, lower, 0.1), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        let wide_a = noisy.map(|v| v + 200.0);
        assert_eq!(verdict(&wide_a, &noisy, lower, 0.1), Verdict::Improved);
    }

    fn entry(workload: &str, metrics: &[(&str, f64, &str)]) -> Entry {
        entry_failing(workload, 0, metrics)
    }

    /// A run of 4 requests of which `failed` failed.
    fn entry_failing(workload: &str, failed: u64, metrics: &[(&str, f64, &str)]) -> Entry {
        Entry {
            recorded_at_unix: 0,
            seed: 1,
            seconds: 1,
            trace: false,
            results: vec![WorkloadResult {
                workload: workload.into(),
                correct: failed == 0,
                attempted: 4,
                failed,
                metrics: metrics
                    .iter()
                    .map(|(n, v, u)| (n.to_string(), *v, u.to_string()))
                    .collect(),
            }],
        }
    }

    #[test]
    fn rows_per_workload_and_exact_counts() {
        let a = vec![
            entry(
                "t30-single",
                &[("pass_s", 5.0, "s"), ("sat.conflicts", 7.0, "count")],
            ),
            entry("tiny-batch", &[("pass_s", 1.0, "s")]),
        ];
        let b = vec![
            entry(
                "t30-single",
                &[("pass_s", 5.1, "s"), ("sat.conflicts", 8.0, "count")],
            ),
            entry("tiny-batch", &[("pass_s", 2.0, "s")]),
        ];
        let rows = compare(&a, &b);
        assert_eq!(
            verdicts(&rows),
            vec![
                ("t30-single", "failed_frac", Verdict::Unchanged),
                ("t30-single", "pass_s", Verdict::Unchanged),
                ("t30-single", "sat.conflicts", Verdict::Differs),
                ("tiny-batch", "failed_frac", Verdict::Unchanged),
                ("tiny-batch", "pass_s", Verdict::Regressed),
            ]
        );
        assert_eq!(compare(&a, &a)[2].verdict, Verdict::Same);
        assert_eq!(render(&rows).lines().count(), 6);
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, &str, Verdict)> {
        rows.iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn failing_faster_is_not_an_improvement() {
        let runs = |failed: u64, pass_s: f64| -> Vec<Entry> {
            (0..10)
                .map(|i| {
                    entry_failing(
                        "tiny-batch",
                        failed,
                        &[("pass_s", pass_s + 0.001 * i as f64, "s")],
                    )
                })
                .collect()
        };
        // Half the time, but one request of four fails on every B run.
        let rows = compare(&runs(0, 2.0), &runs(1, 1.0));
        assert_eq!(
            verdicts(&rows),
            vec![
                ("tiny-batch", "failed_frac", Verdict::Regressed),
                ("tiny-batch", "pass_s", Verdict::Regressed),
            ]
        );
        assert_eq!(rows[0].b, vec![0.25; 10]);
        // The same gain with no failures is an improvement, and failing less
        // than the parent is one too.
        let rows = compare(&runs(0, 2.0), &runs(0, 1.0));
        assert_eq!(rows[1].verdict, Verdict::Improved);
        let rows = compare(&runs(2, 2.0), &runs(1, 2.0));
        assert_eq!(rows[0].verdict, Verdict::Improved);
        assert_eq!(rows[1].verdict, Verdict::Unchanged);
    }
}
