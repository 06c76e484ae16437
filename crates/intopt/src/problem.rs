//! The user-facing constraint problem: variable declarations, assertions,
//! satisfiability checking and optimization.

use crate::binsearch::{bisect, BinSearchMode, MinimizeOptions, MinimizeOutcome};
use crate::blast::{blast_with, Backend, EncoderOpt};
use crate::expr::{bool_structural_eq, BoolExpr, BoolVar, IntVar, SeenPairs};
use crate::prober::CostProber;
use crate::triplet::TripletForm;
use optalloc_sat::{PbOp, SolveResult, Solver};

/// A bounded-integer constraint problem: declare variables, assert Boolean
/// combinations of integer (in)equations, then [`solve`](IntProblem::solve)
/// or [`minimize`](IntProblem::minimize).
///
/// ```
/// use optalloc_intopt::{IntProblem, Backend};
///
/// let mut p = IntProblem::new();
/// let x = p.int_var(0, 100);
/// let y = p.int_var(0, 100);
/// p.assert((x.expr() + y.expr()).eq(10));
/// p.assert((x.expr() * y.expr()).ge(21));
/// let m = p.solve(Backend::PseudoBoolean).expect("satisfiable");
/// let (xv, yv) = (m.int(x), m.int(y));
/// assert_eq!(xv + yv, 10);
/// assert!(xv * yv >= 21);
/// ```
#[derive(Clone, Default)]
pub struct IntProblem {
    int_decls: Vec<(i64, i64)>,
    bool_decls: u32,
    asserts: Vec<BoolExpr>,
    pb_asserts: Vec<PbAssert>,
}

/// A direct pseudo-Boolean constraint: `(terms, op, bound)` with terms
/// `(literal expression, coefficient)`.
type PbAssert = (Vec<(BoolExpr, i64)>, PbOp, i64);

/// Concrete values for every declared variable, extracted from a SAT model.
#[derive(Clone, Debug, Default)]
pub struct Model {
    ints: Vec<i64>,
    bools: Vec<bool>,
}

impl Model {
    /// Value of an integer variable.
    pub fn int(&self, v: IntVar) -> i64 {
        self.ints[v.id as usize]
    }

    /// Value of a Boolean variable.
    pub fn bool(&self, v: BoolVar) -> bool {
        self.bools[v.id as usize]
    }
}

impl IntProblem {
    /// Creates an empty problem.
    pub fn new() -> IntProblem {
        IntProblem::default()
    }

    /// Declares an integer variable ranging over `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// If `lo > hi`.
    pub fn int_var(&mut self, lo: i64, hi: i64) -> IntVar {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let id = self.int_decls.len() as u32;
        self.int_decls.push((lo, hi));
        IntVar { id, lo, hi }
    }

    /// Declares a Boolean variable.
    pub fn bool_var(&mut self) -> BoolVar {
        let id = self.bool_decls;
        self.bool_decls += 1;
        BoolVar { id }
    }

    /// Asserts that `e` must hold.
    pub fn assert(&mut self, e: BoolExpr) {
        self.asserts.push(e);
    }

    /// Asserts the pseudo-Boolean constraint `Σ coefᵢ·⟦eᵢ⟧  op  bound`,
    /// where `⟦e⟧` is 1 when `e` holds. Used for cardinality constraints
    /// such as the one-hot allocation variables.
    pub fn assert_pb(&mut self, terms: Vec<(BoolExpr, i64)>, op: PbOp, bound: i64) {
        self.pb_asserts.push((terms, op, bound));
    }

    /// Number of assertions (for diagnostics).
    pub fn num_asserts(&self) -> usize {
        self.asserts.len() + self.pb_asserts.len()
    }

    /// Structural equality: same declarations and the same assertions in
    /// the same order, compared node by node (expression identity is *not*
    /// required — two independently built copies of the same problem are
    /// structurally equal). This is the reuse gate for warm-started
    /// re-solves: a retained incremental solver's learned clauses are only
    /// sound for a request whose problem is structurally identical to the
    /// one that was encoded. Shared subgraphs are memoized, so the check is
    /// linear in the number of distinct node pairs.
    pub fn structurally_eq(&self, other: &IntProblem) -> bool {
        if self.int_decls != other.int_decls
            || self.bool_decls != other.bool_decls
            || self.asserts.len() != other.asserts.len()
            || self.pb_asserts.len() != other.pb_asserts.len()
        {
            return false;
        }
        let mut seen = SeenPairs::default();
        self.asserts
            .iter()
            .zip(&other.asserts)
            .all(|(a, b)| bool_structural_eq(a, b, &mut seen))
            && self
                .pb_asserts
                .iter()
                .zip(&other.pb_asserts)
                .all(|((ta, oa, ba), (tb, ob, bb))| {
                    oa == ob
                        && ba == bb
                        && ta.len() == tb.len()
                        && ta.iter().zip(tb).all(|((ea, ca), (eb, cb))| {
                            ca == cb && bool_structural_eq(ea, eb, &mut seen)
                        })
                })
    }

    /// Rewrites all assertions to triplet form (paper §5.1 step 1).
    pub fn triplet_form(&self) -> TripletForm {
        let mut tf = TripletForm::new();
        for a in &self.asserts {
            tf.assert(a);
        }
        for (terms, op, bound) in &self.pb_asserts {
            tf.assert_pb(terms, *op, *bound);
        }
        tf
    }

    /// Triplet form plus declaration ranges, ready for
    /// [`blast_with`](crate::blast_with). With `opt.narrowing` on, the form
    /// is interval-tightened (bounds flow *down* from asserted comparisons,
    /// not just up from leaves), decided comparisons fold to constants, and
    /// dead definitions are swept. The returned declaration table carries
    /// the narrowed input ranges and must be the one handed to the blaster —
    /// widths are only sound against the ranges actually asserted.
    pub fn prepare(&self, opt: &EncoderOpt) -> (TripletForm, Vec<(i64, i64)>) {
        let mut form = self.triplet_form();
        let mut decls = self.int_decls.clone();
        if opt.narrowing {
            form.optimize(&mut decls);
        }
        (form, decls)
    }

    pub(crate) fn extract_model(&self, solver: &Solver, bl: &crate::blast::Blast) -> Model {
        Model {
            ints: self
                .int_decls
                .iter()
                .enumerate()
                .map(|(id, &(lo, hi))| {
                    bl.int_value(
                        solver,
                        IntVar {
                            id: id as u32,
                            lo,
                            hi,
                        },
                    )
                })
                .collect(),
            bools: (0..self.bool_decls)
                .map(|id| bl.bool_value(solver, BoolVar { id }))
                .collect(),
        }
    }

    /// Decides satisfiability, returning a model if one exists: one
    /// unbudgeted `SOLVE(φ)` on a solver built with default options, the
    /// reference the encoder tests check models against.
    pub fn solve(&self, backend: Backend) -> Option<Model> {
        let opts = MinimizeOptions {
            backend,
            ..MinimizeOptions::default()
        };
        let mut solver = opts.new_solver();
        let (form, decls) = self.prepare(&opts.encoder_opt);
        let bl = blast_with(&form, &decls, &mut solver, backend, &opts.encoder_opt);
        if bl.trivially_unsat() {
            return None;
        }
        match solver.solve(&[]) {
            SolveResult::Sat => Some(self.extract_model(&solver, &bl)),
            SolveResult::Unsat => None,
            r => unreachable!("{r:?} without a budget or an interrupt flag"),
        }
    }

    /// Minimizes `cost` subject to the assertions via binary search
    /// (paper §5.2), with [`MinimizeOptions::initial_upper`] as the hint.
    /// See [`MinimizeOptions`] for backend/mode selection.
    pub fn minimize(&self, cost: IntVar, opts: &MinimizeOptions) -> MinimizeOutcome {
        let mut prober = match opts.mode {
            BinSearchMode::Incremental => CostProber::new(self, cost, opts),
            BinSearchMode::Fresh => CostProber::fresh(self, cost, opts),
        };
        bisect(&mut prober, None, opts.initial_upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binsearch::MinimizeStatus;
    use crate::expr::IntExpr;

    fn both_backends() -> [Backend; 2] {
        [Backend::Cnf, Backend::PseudoBoolean]
    }

    #[test]
    fn linear_system_solves() {
        for backend in both_backends() {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 20);
            let y = p.int_var(0, 20);
            p.assert((x.expr() + y.expr()).eq(15));
            p.assert((x.expr() - y.expr()).eq(3));
            let m = p.solve(backend).unwrap();
            assert_eq!(m.int(x), 9, "{backend:?}");
            assert_eq!(m.int(y), 6, "{backend:?}");
        }
    }

    #[test]
    fn nonlinear_product_constraint() {
        for backend in both_backends() {
            let mut p = IntProblem::new();
            let x = p.int_var(1, 12);
            let y = p.int_var(1, 12);
            p.assert((x.expr() * y.expr()).eq(35));
            let m = p.solve(backend).unwrap();
            assert_eq!(m.int(x) * m.int(y), 35, "{backend:?}");
        }
    }

    #[test]
    fn negative_ranges_work() {
        for backend in both_backends() {
            let mut p = IntProblem::new();
            let x = p.int_var(-10, 10);
            p.assert(x.expr().lt(0));
            p.assert((x.expr() * x.expr()).eq(49));
            let m = p.solve(backend).unwrap();
            assert_eq!(m.int(x), -7, "{backend:?}");
        }
    }

    #[test]
    fn infeasible_detected() {
        for backend in both_backends() {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 5);
            p.assert(x.expr().ge(3));
            p.assert(x.expr().le(2));
            assert!(p.solve(backend).is_none(), "{backend:?}");
        }
    }

    #[test]
    fn implication_with_bool_guard() {
        for backend in both_backends() {
            let mut p = IntProblem::new();
            let g = p.bool_var();
            let x = p.int_var(0, 10);
            p.assert(g.expr().implies(x.expr().eq(7)));
            p.assert(g.expr());
            let m = p.solve(backend).unwrap();
            assert!(m.bool(g));
            assert_eq!(m.int(x), 7, "{backend:?}");
        }
    }

    #[test]
    fn pb_cardinality_over_bools() {
        for backend in both_backends() {
            let mut p = IntProblem::new();
            let vars: Vec<_> = (0..5).map(|_| p.bool_var()).collect();
            let terms: Vec<_> = vars.iter().map(|v| (v.expr(), 1)).collect();
            p.assert_pb(terms, PbOp::Eq, 1);
            p.assert(vars[0].expr().not());
            p.assert(vars[1].expr().not());
            let m = p.solve(backend).unwrap();
            let count = vars.iter().filter(|v| m.bool(**v)).count();
            assert_eq!(count, 1, "{backend:?}");
            assert!(!m.bool(vars[0]) && !m.bool(vars[1]));
        }
    }

    #[test]
    fn minimize_simple_linear() {
        for backend in both_backends() {
            for mode in [BinSearchMode::Fresh, BinSearchMode::Incremental] {
                let mut p = IntProblem::new();
                let x = p.int_var(0, 50);
                let y = p.int_var(0, 50);
                let cost = p.int_var(0, 200);
                p.assert((x.expr() + y.expr()).ge(13));
                p.assert(x.expr().ge(2));
                p.assert(cost.expr().eq(x.expr() * 3 + y.expr() * 2));
                let opts = MinimizeOptions {
                    backend,
                    mode,
                    ..Default::default()
                };
                let out = p.minimize(cost, &opts);
                match out.status {
                    MinimizeStatus::Optimal { value, ref model } => {
                        // min 3x + 2y s.t. x+y≥13, x≥2 → x=2, y=11 → 28.
                        assert_eq!(value, 28, "{backend:?} {mode:?}");
                        assert_eq!(model.int(x), 2);
                        assert_eq!(model.int(y), 11);
                    }
                    ref s => panic!("unexpected {s:?} for {backend:?} {mode:?}"),
                }
                assert!(out.solve_calls >= 2);
                assert!(out.encode.bool_vars > 0);
            }
        }
    }

    #[test]
    fn minimize_nonlinear_objective() {
        // min x*x with x ≥ 4 over [-16, 16] ⇒ 16.
        for mode in [BinSearchMode::Fresh, BinSearchMode::Incremental] {
            let mut p = IntProblem::new();
            let x = p.int_var(-16, 16);
            let cost = p.int_var(0, 256);
            p.assert(cost.expr().eq(x.expr() * x.expr()));
            p.assert(x.expr().ge(4).or(x.expr().le(-6)));
            let out = p.minimize(
                cost,
                &MinimizeOptions {
                    mode,
                    ..Default::default()
                },
            );
            match out.status {
                MinimizeStatus::Optimal { value, ref model } => {
                    assert_eq!(value, 16, "{mode:?}");
                    assert_eq!(model.int(x), 4);
                }
                ref s => panic!("unexpected {s:?}"),
            }
        }
    }

    #[test]
    fn minimize_infeasible() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 5);
        let cost = p.int_var(0, 5);
        p.assert(x.expr().gt(10 - 4)); // x > 6 impossible in [0,5]
        p.assert(cost.expr().eq(x.expr()));
        let out = p.minimize(cost, &MinimizeOptions::default());
        assert!(matches!(out.status, MinimizeStatus::Infeasible));
    }

    #[test]
    fn minimize_already_tight() {
        // Optimum equals the lower bound of the cost range.
        let mut p = IntProblem::new();
        let cost = p.int_var(3, 40);
        p.assert(cost.expr().ge(0));
        let out = p.minimize(cost, &MinimizeOptions::default());
        match out.status {
            MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 3),
            ref s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn fresh_and_incremental_agree() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 30);
        let y = p.int_var(0, 30);
        let cost = p.int_var(0, 900);
        p.assert(cost.expr().eq(x.expr() * y.expr()));
        p.assert((x.expr() + y.expr()).eq(17));
        p.assert(x.expr().ge(1));
        p.assert(y.expr().ge(1));
        let v = |mode| {
            let out = p.minimize(
                cost,
                &MinimizeOptions {
                    mode,
                    ..Default::default()
                },
            );
            match out.status {
                MinimizeStatus::Optimal { value, .. } => value,
                ref s => panic!("unexpected {s:?}"),
            }
        };
        // min x(17−x) for x in 1..=16 is at the boundary: 16.
        assert_eq!(v(BinSearchMode::Fresh), 16);
        assert_eq!(v(BinSearchMode::Incremental), 16);
    }

    #[test]
    fn warm_start_upper_bound_preserves_optimum() {
        for mode in [BinSearchMode::Fresh, BinSearchMode::Incremental] {
            // min x+y s.t. x+y ≥ 9 ⇒ 9. Hints: exact, loose, and invalid.
            for hint in [Some(9), Some(30), Some(3), None] {
                let mut p = IntProblem::new();
                let x = p.int_var(0, 40);
                let y = p.int_var(0, 40);
                let cost = p.int_var(0, 80);
                p.assert((x.expr() + y.expr()).ge(9));
                p.assert(cost.expr().eq(x.expr() + y.expr()));
                let out = p.minimize(
                    cost,
                    &MinimizeOptions {
                        mode,
                        initial_upper: hint,
                        ..Default::default()
                    },
                );
                match out.status {
                    MinimizeStatus::Optimal { value, .. } => {
                        assert_eq!(value, 9, "{mode:?} hint {hint:?}")
                    }
                    ref s => panic!("unexpected {s:?} for {mode:?} hint {hint:?}"),
                }
            }
        }
    }

    #[test]
    fn warm_start_on_infeasible_problem_reports_infeasible() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 5);
        let cost = p.int_var(0, 5);
        p.assert(x.expr().ge(9 - 2)); // impossible
        p.assert(cost.expr().eq(x.expr()));
        let out = p.minimize(
            cost,
            &MinimizeOptions {
                initial_upper: Some(4),
                ..Default::default()
            },
        );
        assert!(matches!(out.status, MinimizeStatus::Infeasible));
    }

    #[test]
    fn sum_helper_builds_balanced_constraint() {
        let mut p = IntProblem::new();
        let xs: Vec<_> = (0..6).map(|_| p.int_var(0, 9)).collect();
        let total = IntExpr::sum(xs.iter().map(|v| v.expr()));
        p.assert(total.eq(42));
        let m = p.solve(Backend::PseudoBoolean).unwrap();
        let s: i64 = xs.iter().map(|&v| m.int(v)).sum();
        assert_eq!(s, 42);
    }
}
