//! Warm-started re-solving: the paper's §7 "reuse of derived facts"
//! extended *across* optimization requests.
//!
//! A [`WarmEngine`] is a long-lived minimizer. Each call to
//! [`WarmEngine::solve`] runs the one `BIN_SEARCH` loop of
//! [`crate::binsearch`] over an incremental [`CostProber`], but unlike the
//! one-shot [`IntProblem::minimize`] it retains the prober between calls
//! and picks the cheapest sound reuse level for the next request:
//!
//! * [`WarmMode::Reused`] — the request's problem is **structurally
//!   identical** to the retained prober's (see
//!   [`IntProblem::structurally_eq`]): the encoding *and every learned
//!   clause* carry over, and only the cost windows are re-probed. This is
//!   the only mode in which SAT-level facts survive, and it is gated
//!   exactly on structural identity: learned clauses are logical
//!   consequences of the encoded formula, so any change to the formula —
//!   a WCET constant, a deadline, an added task — invalidates them.
//! * [`WarmMode::Seeded`] — the problem changed, so the engine re-encodes
//!   from scratch, but it still carries over the previous optimum as the
//!   search's hint — the same hint [`MinimizeOptions::initial_upper`]
//!   feeds: the first probe is bounded by it (falling back to an unbounded
//!   probe if it is infeasible), and the first bisection probes
//!   `[lo, incumbent − 1]` to confirm an unchanged optimum in a single
//!   refutation. The hint is *probed, never assumed*, so a wrong one can
//!   cost time but never an incorrect optimum.
//! * [`WarmMode::Cold`] — no previous state; plain `BIN_SEARCH`.
//!
//! Certification composes with warm starts, with one restriction: a
//! retained prober's proof trace was drained by the previous certificate
//! assembly ([`CostProber::take_proofs`] is draining), so a second search on
//! the same prober could not produce a self-contained DRAT certificate.
//! Under [`MinimizeOptions::certify`] the engine therefore *never* retains
//! a prober — every request is re-encoded fresh and only the seed hints
//! carry over, which keeps every emitted certificate independently
//! checkable. The optimum is unaffected (hints are validated), only the
//! reuse level degrades; the warm == cold property tests exercise exactly
//! this path.

use crate::binsearch::{bisect, MinimizeOptions, MinimizeOutcome, MinimizeStatus};
use crate::prober::CostProber;
use crate::problem::IntProblem;
use crate::IntVar;

/// How much prior work a [`WarmEngine::solve`] call was able to reuse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarmMode {
    /// No retained state: a plain cold `BIN_SEARCH`.
    Cold,
    /// Re-encoded from scratch, seeded with the previous optimum as a
    /// validated upper-bound hint and first-bisection target.
    Seeded {
        /// The previous optimum used as the hint.
        hint: i64,
    },
    /// The retained prober (encoding + learned clauses) was reused whole;
    /// only new cost windows were probed.
    Reused {
        /// The previous optimum used as the hint (`None` when the retained
        /// run never reached one — interrupted or infeasible).
        hint: Option<i64>,
        /// Learned clauses carried into this solve.
        learned: usize,
    },
}

impl WarmMode {
    /// Short lowercase label (`"cold"`, `"seeded"`, `"reused"`) for logs
    /// and machine-readable responses.
    pub fn label(&self) -> &'static str {
        match self {
            WarmMode::Cold => "cold",
            WarmMode::Seeded { .. } => "seeded",
            WarmMode::Reused { .. } => "reused",
        }
    }
}

struct WarmState {
    prober: CostProber<'static>,
    last_optimum: Option<i64>,
}

/// A long-lived minimizer that carries encodings, learned clauses and
/// bound hints across requests (see the module docs).
pub struct WarmEngine {
    opts: MinimizeOptions,
    /// Learned-clause retention budget: a retained prober holding more
    /// than this many learned clauses is reset (the clauses are dropped,
    /// the encoding kept) before reuse.
    max_retained: usize,
    state: Option<WarmState>,
}

impl std::fmt::Debug for WarmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmEngine")
            .field("max_retained", &self.max_retained)
            .field("retained", &self.state.is_some())
            .field("last_optimum", &self.last_optimum())
            .finish()
    }
}

impl WarmEngine {
    /// An engine with no retained state yet. The options — including the
    /// cooperative [`optalloc_sat::SolverConfig::interrupt`] flag, which a
    /// service resets (rather than replaces) between jobs so it reaches
    /// the retained solver — are fixed for the engine's lifetime.
    pub fn new(opts: MinimizeOptions) -> WarmEngine {
        WarmEngine {
            opts,
            max_retained: 100_000,
            state: None,
        }
    }

    /// Overrides the learned-clause retention budget (builder style).
    pub fn with_retention(mut self, max_retained: usize) -> WarmEngine {
        self.max_retained = max_retained;
        self
    }

    /// The engine's minimize options.
    pub fn options(&self) -> &MinimizeOptions {
        &self.opts
    }

    /// The optimum of the most recent successful solve, if any — the seed
    /// for the next request's hints.
    pub fn last_optimum(&self) -> Option<i64> {
        self.state.as_ref().and_then(|s| s.last_optimum)
    }

    /// Learned clauses currently held by the retained prober, if one is
    /// retained.
    pub fn retained_learned(&self) -> Option<usize> {
        self.state.as_ref().map(|s| s.prober.num_learned())
    }

    /// Drops all retained state; the next solve is [`WarmMode::Cold`].
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Minimizes `cost` over `problem`, reusing as much prior state as is
    /// sound (see the module docs for the mode ladder). A `window`
    /// restricts the search to `lo ≤ cost ≤ hi` (clamped to the variable's
    /// declared range) — the cost-bound delta of a re-solve request;
    /// [`MinimizeStatus::Infeasible`] then means *no solution within the
    /// window*, and any certificate's coverage starts at the clamped window
    /// lower end.
    pub fn solve(
        &mut self,
        problem: &IntProblem,
        cost: IntVar,
        window: Option<(i64, i64)>,
    ) -> (MinimizeOutcome, WarmMode) {
        let hint = self.last_optimum();
        // Learned clauses only survive when the formula is unchanged —
        // and never under certification (the retained trace was drained).
        let reusable = !self.opts.certify
            && self.state.as_ref().is_some_and(|s| {
                s.prober.cost() == cost && s.prober.problem().structurally_eq(problem)
            });
        let (mut prober, mode) = if reusable {
            let state = self.state.take().unwrap();
            let mut prober = state.prober;
            if prober.num_learned() > self.max_retained {
                prober.clear_learned();
            }
            let learned = prober.num_learned();
            (prober, WarmMode::Reused { hint, learned })
        } else {
            self.state = None;
            let prober = CostProber::new_owned(problem.clone(), cost, &self.opts);
            let mode = match hint {
                Some(h) => WarmMode::Seeded { hint: h },
                None => WarmMode::Cold,
            };
            (prober, mode)
        };

        let outcome = bisect(&mut prober, window, hint);

        if !self.opts.certify {
            let last_optimum = match &outcome.status {
                MinimizeStatus::Optimal { value, .. } => Some(*value),
                _ => hint,
            };
            self.state = Some(WarmState {
                prober,
                last_optimum,
            });
        }
        (outcome, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binsearch::BinSearchMode;

    /// min cost = x + y  s.t.  x + y ≥ floor,  x ≥ xmin. Optimum = floor
    /// (for xmin ≤ floor). Rebuilt from scratch per call so two calls with
    /// equal parameters are structurally equal but share no Arc nodes.
    fn floor_problem(floor: i64, xmin: i64) -> (IntProblem, IntVar) {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 60);
        let y = p.int_var(0, 60);
        let cost = p.int_var(0, 120);
        p.assert((x.expr() + y.expr()).ge(floor));
        p.assert(x.expr().ge(xmin));
        p.assert(cost.expr().eq(x.expr() + y.expr()));
        (p, cost)
    }

    fn optimum(out: &MinimizeOutcome) -> i64 {
        match &out.status {
            MinimizeStatus::Optimal { value, .. } => *value,
            s => panic!("expected Optimal, got {s:?}"),
        }
    }

    #[test]
    fn structural_equality_gates_reuse() {
        let (a, _) = floor_problem(9, 2);
        let (b, _) = floor_problem(9, 2);
        let (c, _) = floor_problem(10, 2);
        assert!(a.structurally_eq(&b), "independently built copies match");
        assert!(!a.structurally_eq(&c), "changed constant must not match");
    }

    #[test]
    fn modes_ladder_cold_reused_seeded() {
        let mut engine = WarmEngine::new(MinimizeOptions::default());

        let (p1, c1) = floor_problem(9, 2);
        let (out, mode) = engine.solve(&p1, c1, None);
        assert_eq!(mode, WarmMode::Cold);
        assert_eq!(optimum(&out), 9);

        // Same problem, rebuilt: full prober reuse, hinted at 9.
        let (p2, c2) = floor_problem(9, 2);
        let (out, mode) = engine.solve(&p2, c2, None);
        assert!(
            matches!(mode, WarmMode::Reused { hint: Some(9), .. }),
            "got {mode:?}"
        );
        assert_eq!(optimum(&out), 9);
        // Unchanged optimum resolves in two probes: SAT at ≤ 9, then the
        // confirming refutation of [0, 8].
        assert_eq!(out.solve_calls, 2);

        // Mutated problem: encoding invalidated, seeds carry over.
        let (p3, c3) = floor_problem(11, 2);
        let (out, mode) = engine.solve(&p3, c3, None);
        assert!(matches!(mode, WarmMode::Seeded { hint: 9 }), "got {mode:?}");
        assert_eq!(optimum(&out), 11);
    }

    #[test]
    fn warm_equals_cold_across_a_mutation_chain() {
        let mut engine = WarmEngine::new(MinimizeOptions::default());
        for (floor, xmin) in [(9, 2), (9, 2), (12, 2), (12, 7), (3, 0), (9, 2)] {
            let (p, cost) = floor_problem(floor, xmin);
            let (warm, _) = engine.solve(&p, cost, None);
            let cold = p.minimize(cost, &MinimizeOptions::default());
            assert_eq!(
                optimum(&warm),
                optimum(&cold),
                "warm diverged from cold at floor={floor} xmin={xmin}"
            );
        }
    }

    /// A cold engine and the one-shot entry point run the same loop over
    /// the same encoding, so they agree probe for probe, not just on the
    /// optimum.
    #[test]
    fn cold_engine_and_minimize_run_the_same_search() {
        let (nonlinear, nonlinear_cost) = {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 20);
            let y = p.int_var(0, 20);
            let cost = p.int_var(0, 400);
            p.assert((x.expr() + y.expr()).ge(10));
            p.assert(cost.expr().eq(x.expr() * y.expr() + x.expr()));
            (p, cost)
        };
        let mut cases = vec![(nonlinear, nonlinear_cost)];
        cases.extend([(9, 2), (12, 7), (3, 0)].map(|(f, x)| floor_problem(f, x)));
        for (p, cost) in cases {
            let (warm, mode) = WarmEngine::new(MinimizeOptions::default()).solve(&p, cost, None);
            assert_eq!(mode, WarmMode::Cold);
            let cold = p.minimize(cost, &MinimizeOptions::default());
            assert_eq!(optimum(&warm), optimum(&cold));
            assert_eq!(warm.solve_calls, cold.solve_calls);
            assert_eq!(warm.stats.conflicts, cold.stats.conflicts);
        }
    }

    #[test]
    fn certify_never_retains_the_prober() {
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        let mut engine = WarmEngine::new(opts);
        let (p1, c1) = floor_problem(9, 2);
        let (out, mode) = engine.solve(&p1, c1, None);
        assert_eq!(mode, WarmMode::Cold);
        out.certificate
            .as_ref()
            .expect("certificate on optimal")
            .verify()
            .expect("self-contained certificate");

        // A certified engine holds no prober, so the next call must not be
        // Reused — and its certificate must again verify standalone.
        assert!(engine.retained_learned().is_none());
        let (p2, c2) = floor_problem(9, 2);
        let (out, mode) = engine.solve(&p2, c2, None);
        assert_eq!(mode, WarmMode::Cold, "no state retained under certify");
        assert_eq!(optimum(&out), 9);
        out.certificate
            .as_ref()
            .expect("certificate on optimal")
            .verify()
            .expect("second certificate is self-contained too");
    }

    #[test]
    fn window_solves_report_infeasible_in_window() {
        let mut engine = WarmEngine::new(MinimizeOptions::default());
        let (p, cost) = floor_problem(9, 2);

        // Below the optimum: infeasible within the window…
        let (out, _) = engine.solve(&p, cost, Some((0, 5)));
        assert!(matches!(out.status, MinimizeStatus::Infeasible));

        // …and the state survives for a successful re-solve.
        let (out, mode) = engine.solve(&p, cost, Some((0, 50)));
        assert!(matches!(mode, WarmMode::Reused { .. }));
        assert_eq!(optimum(&out), 9);

        // A window cutting in from below raises the reported optimum.
        let (out, _) = engine.solve(&p, cost, Some((20, 50)));
        assert_eq!(optimum(&out), 20);

        // Inverted window: vacuous, no probes.
        let (out, _) = engine.solve(&p, cost, Some((50, 20)));
        assert!(matches!(out.status, MinimizeStatus::Infeasible));
        assert_eq!(out.solve_calls, 0);
    }

    #[test]
    fn windowed_certificates_anchor_coverage_at_the_window() {
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        let mut engine = WarmEngine::new(opts);
        let (p, cost) = floor_problem(9, 2);
        let (out, _) = engine.solve(&p, cost, Some((4, 80)));
        assert_eq!(optimum(&out), 9);
        let cert = out.certificate.as_ref().expect("certified window solve");
        assert_eq!(cert.cost_lo, 4, "coverage starts at the window");
        cert.verify().expect("windowed certificate verifies");
    }

    #[test]
    fn retention_budget_clears_learned_clauses() {
        let mut engine = WarmEngine::new(MinimizeOptions::default()).with_retention(0);
        let (p1, c1) = floor_problem(9, 2);
        engine.solve(&p1, c1, None);
        let (p2, c2) = floor_problem(9, 2);
        let (out, mode) = engine.solve(&p2, c2, None);
        // With a zero budget the reused prober enters the search with an
        // empty learned DB.
        assert!(
            matches!(mode, WarmMode::Reused { learned: 0, .. }),
            "got {mode:?}"
        );
        assert_eq!(optimum(&out), 9);
    }

    #[test]
    fn per_run_stats_are_deltas_not_cumulative() {
        let mut engine = WarmEngine::new(MinimizeOptions::default());
        let (p1, c1) = floor_problem(9, 2);
        let (first, _) = engine.solve(&p1, c1, None);
        let (p2, c2) = floor_problem(9, 2);
        let (second, _) = engine.solve(&p2, c2, None);
        // The reused run answers in 2 probes; cumulative counters would
        // report first.solve_calls + 2.
        assert_eq!(second.solve_calls, 2);
        assert!(first.solve_calls >= 2);
    }

    #[test]
    fn infeasible_problems_do_not_poison_the_hint() {
        let mut engine = WarmEngine::new(MinimizeOptions::default());
        let mut p = IntProblem::new();
        let x = p.int_var(0, 5);
        let cost = p.int_var(0, 5);
        p.assert(x.expr().ge(7)); // impossible
        p.assert(cost.expr().eq(x.expr()));
        let (out, _) = engine.solve(&p, cost, None);
        assert!(matches!(out.status, MinimizeStatus::Infeasible));
        assert_eq!(engine.last_optimum(), None);

        // A feasible follow-up on a different problem has no optimum to
        // seed from: it must run cold (never Seeded with a stale hint).
        let (p2, c2) = floor_problem(9, 2);
        let (out, mode) = engine.solve(&p2, c2, None);
        assert_eq!(mode, WarmMode::Cold);
        assert_eq!(optimum(&out), 9);
    }

    #[test]
    fn fresh_mode_options_still_search_incrementally_here() {
        // The engine always drives a CostProber (incremental); a Fresh
        // mode request in the options must not change the optimum.
        let opts = MinimizeOptions {
            mode: BinSearchMode::Fresh,
            ..MinimizeOptions::default()
        };
        let mut engine = WarmEngine::new(opts);
        let (p, cost) = floor_problem(9, 2);
        let (out, _) = engine.solve(&p, cost, None);
        assert_eq!(optimum(&out), 9);
    }
}
