//! The paper's baseline `BIN_SEARCH` ([`BinSearchMode::Fresh`]: a new
//! solver and encoding per `SOLVE` call) pinned on fixed problems, and the
//! trace a fresh search leaves.

use optalloc_intopt::{
    BinSearchMode, IntExpr, IntProblem, IntVar, MinimizeOptions, MinimizeOutcome, MinimizeStatus,
};
use optalloc_obs::Obs;

fn fresh(certify: bool, initial_upper: Option<i64>) -> MinimizeOptions {
    MinimizeOptions {
        mode: BinSearchMode::Fresh,
        certify,
        initial_upper,
        ..MinimizeOptions::default()
    }
}

/// `k` pairwise-distinct values in `[0, hi]` with the smallest sum: each
/// refutation below it is a pigeonhole argument.
fn distinct_sum(k: usize, hi: i64) -> (IntProblem, IntVar) {
    let mut p = IntProblem::new();
    let xs: Vec<IntVar> = (0..k).map(|_| p.int_var(0, hi)).collect();
    for (i, a) in xs.iter().enumerate() {
        for b in &xs[i + 1..] {
            p.assert(a.expr().ne(b.expr()));
        }
    }
    let cost = p.int_var(0, k as i64 * hi);
    let sum = xs.iter().fold(IntExpr::constant(0), |s, x| s + x.expr());
    p.assert(cost.expr().eq(sum));
    (p, cost)
}

/// `x ≥ 7` over `[0, 100]`: interval narrowing refutes every hard window
/// below 7 while encoding, before the solver runs.
fn at_least_seven() -> (IntProblem, IntVar) {
    let mut p = IntProblem::new();
    let x = p.int_var(0, 100);
    p.assert(x.expr().ge(7));
    (p, x)
}

/// A product cost: `x·y + x` with `x + y ≥ 10`.
fn product() -> (IntProblem, IntVar) {
    let mut p = IntProblem::new();
    let x = p.int_var(1, 20);
    let y = p.int_var(1, 20);
    let cost = p.int_var(0, 420);
    p.assert((x.expr() + y.expr()).ge(10));
    p.assert(cost.expr().eq(x.expr() * y.expr() + x.expr()));
    (p, cost)
}

fn optimum(out: &MinimizeOutcome) -> i64 {
    match out.status {
        MinimizeStatus::Optimal { value, .. } => value,
        ref s => panic!("expected Optimal, got {s:?}"),
    }
}

/// Checks a fresh search's `[optimum, SOLVE calls, conflicts]` against
/// `pinned`, and verifies its certificate when it certifies.
fn assert_pinned(
    name: &str,
    (p, cost): (IntProblem, IntVar),
    opts: MinimizeOptions,
    pinned: [u64; 3],
) {
    let out = p.minimize(cost, &opts);
    let got = [
        optimum(&out) as u64,
        u64::from(out.solve_calls),
        out.stats.conflicts,
    ];
    assert_eq!(got, pinned, "{name}: [optimum, solve calls, conflicts]");
    if opts.certify {
        let cert = out.certificate.as_ref().expect("certified optimum");
        cert.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Optimum, `SOLVE` calls and conflicts of fresh searches. The optima
/// never move; the counts are re-recorded only when the search itself
/// changes (last: target phases with the geometric restart fallback).
#[test]
fn fresh_searches_are_pinned() {
    assert_pinned(
        "distinct",
        distinct_sum(6, 9),
        fresh(false, None),
        [15, 5, 5591],
    );
    assert_pinned("narrowed", at_least_seven(), fresh(false, None), [7, 4, 0]);
    assert_pinned("hinted", product(), fresh(false, Some(200)), [10, 6, 112]);
    assert_pinned(
        "certified",
        distinct_sum(6, 9),
        fresh(true, None),
        [15, 5, 5548],
    );
}

/// A traced fresh search keeps one `bisect-window` span, with `lo`/`hi`,
/// per bounded probe, and its `encode` and `search` span totals equal the
/// outcome's `encode_ms` and `solve_ms` exactly.
#[test]
fn fresh_search_trace_matches_its_counters() {
    for ((p, cost), certify) in [
        (distinct_sum(5, 7), false),
        (distinct_sum(5, 7), true),
        (at_least_seven(), false),
    ] {
        let obs = Obs::enabled();
        let mut opts = fresh(certify, None);
        opts.solver_config.obs = obs.clone();
        let out = p.minimize(cost, &opts);
        let spans = obs.spans();
        let windows = spans.iter().filter(|s| {
            let attr = |k: &str| s.attrs.iter().any(|(key, _)| key == k);
            s.phase == "bisect-window" && attr("lo") && attr("hi")
        });
        // Every probe after the unbounded `SOLVE(φ)` is bounded.
        let calls = out.solve_calls as usize;
        assert_eq!(windows.count(), calls - 1, "certify={certify}");
        // Narrowing refutes some of `x ≥ 7`'s hard windows before the
        // solver runs; a guarded window always reaches it.
        let searches = spans.iter().filter(|s| s.phase == "search").count();
        assert_eq!(searches < calls, out.stats.conflicts == 0 && !certify);
        let total = |phase: &str| {
            obs.phase_totals()
                .into_iter()
                .find(|t| t.phase == phase)
                .map_or(0.0, |t| t.total_ms)
        };
        assert_eq!(total("encode"), out.encode.encode_ms, "certify={certify}");
        assert_eq!(total("search"), out.stats.solve_ms, "certify={certify}");
    }
}
