//! Expression ASTs for bounded-integer constraint problems.
//!
//! The allocation encoder (paper §3–§4) produces Boolean combinations of
//! integer (in)equations. This module provides the two expression types —
//! [`IntExpr`] over bounded integers and [`BoolExpr`] over truth values —
//! with cheap structural sharing (`Arc` nodes) so that, e.g., a response-time
//! variable appearing in dozens of constraints is one shared node. The nodes
//! are atomically counted so a built [`crate::IntProblem`] is `Send + Sync`
//! and window-search workers can share one encoding.
//!
//! Every integer variable carries its range `[lo, hi]`; ranges of compound
//! expressions are inferred by interval arithmetic during triplet rewriting.

use std::fmt;
use std::sync::Arc;

/// A bounded integer variable (declared through
/// [`IntProblem::int_var`](crate::IntProblem::int_var)).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct IntVar {
    pub(crate) id: u32,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl IntVar {
    /// The declaration index of this variable.
    pub fn id(self) -> u32 {
        self.id
    }

    /// This variable as an expression.
    pub fn expr(self) -> IntExpr {
        IntExpr(Arc::new(IntNode::Var(self)))
    }
}

impl fmt::Debug for IntVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}[{},{}]", self.id, self.lo, self.hi)
    }
}

/// A Boolean variable (declared through
/// [`IntProblem::bool_var`](crate::IntProblem::bool_var)).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BoolVar {
    pub(crate) id: u32,
}

impl BoolVar {
    /// The declaration index of this variable.
    pub fn id(self) -> u32 {
        self.id
    }

    /// This variable as a Boolean expression.
    pub fn expr(self) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Var(self)))
    }
}

#[derive(Debug)]
pub(crate) enum IntNode {
    Const(i64),
    Var(IntVar),
    Add(IntExpr, IntExpr),
    Sub(IntExpr, IntExpr),
    Mul(IntExpr, IntExpr),
}

/// An integer-valued expression: constants, variables, `+`, `-`, `*`.
///
/// Cloning is cheap (reference-counted nodes). Use the comparison methods
/// ([`IntExpr::ge`], [`IntExpr::eq`], …) to obtain [`BoolExpr`] atoms.
#[derive(Clone, Debug)]
pub struct IntExpr(pub(crate) Arc<IntNode>);

impl IntExpr {
    /// A constant expression.
    pub fn constant(v: i64) -> IntExpr {
        IntExpr(Arc::new(IntNode::Const(v)))
    }

    pub(crate) fn node(&self) -> &IntNode {
        &self.0
    }

    /// Sum of an iterator of expressions (0 when empty).
    pub fn sum<I: IntoIterator<Item = IntExpr>>(items: I) -> IntExpr {
        let mut it = items.into_iter();
        match it.next() {
            None => IntExpr::constant(0),
            Some(first) => it.fold(first, |acc, e| acc + e),
        }
    }

    /// `self ≥ rhs`
    pub fn ge(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Cmp(CmpOp::Le, rhs.into(), self.clone())))
    }

    /// `self > rhs`
    pub fn gt(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Cmp(CmpOp::Lt, rhs.into(), self.clone())))
    }

    /// `self ≤ rhs`
    pub fn le(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Cmp(CmpOp::Le, self.clone(), rhs.into())))
    }

    /// `self < rhs`
    pub fn lt(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Cmp(CmpOp::Lt, self.clone(), rhs.into())))
    }

    /// `self = rhs`
    pub fn eq(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Cmp(CmpOp::Eq, self.clone(), rhs.into())))
    }

    /// `self ≠ rhs`
    pub fn ne(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        self.eq(rhs).not()
    }

    /// Interval bounds of this expression by interval arithmetic.
    pub fn range(&self) -> (i64, i64) {
        match self.node() {
            IntNode::Const(v) => (*v, *v),
            IntNode::Var(v) => (v.lo, v.hi),
            IntNode::Add(a, b) => {
                let (al, ah) = a.range();
                let (bl, bh) = b.range();
                (al + bl, ah + bh)
            }
            IntNode::Sub(a, b) => {
                let (al, ah) = a.range();
                let (bl, bh) = b.range();
                (al - bh, ah - bl)
            }
            IntNode::Mul(a, b) => {
                let (al, ah) = a.range();
                let (bl, bh) = b.range();
                let products = [al * bl, al * bh, ah * bl, ah * bh];
                (
                    products.iter().copied().min().unwrap(),
                    products.iter().copied().max().unwrap(),
                )
            }
        }
    }
}

impl From<i64> for IntExpr {
    fn from(v: i64) -> IntExpr {
        IntExpr::constant(v)
    }
}

impl From<IntVar> for IntExpr {
    fn from(v: IntVar) -> IntExpr {
        v.expr()
    }
}

impl From<&IntExpr> for IntExpr {
    fn from(e: &IntExpr) -> IntExpr {
        e.clone()
    }
}

macro_rules! int_binop {
    ($trait:ident, $method:ident, $node:ident) => {
        impl std::ops::$trait<IntExpr> for IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: IntExpr) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(self, rhs)))
            }
        }
        impl std::ops::$trait<&IntExpr> for IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: &IntExpr) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(self, rhs.clone())))
            }
        }
        impl std::ops::$trait<IntExpr> for &IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: IntExpr) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(self.clone(), rhs)))
            }
        }
        impl std::ops::$trait<&IntExpr> for &IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: &IntExpr) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(self.clone(), rhs.clone())))
            }
        }
        impl std::ops::$trait<i64> for IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: i64) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(self, IntExpr::constant(rhs))))
            }
        }
        impl std::ops::$trait<i64> for &IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: i64) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(
                    self.clone(),
                    IntExpr::constant(rhs),
                )))
            }
        }
        impl std::ops::$trait<IntExpr> for i64 {
            type Output = IntExpr;
            fn $method(self, rhs: IntExpr) -> IntExpr {
                IntExpr(Arc::new(IntNode::$node(IntExpr::constant(self), rhs)))
            }
        }
    };
}

int_binop!(Add, add, Add);
int_binop!(Sub, sub, Sub);
int_binop!(Mul, mul, Mul);

/// Comparison operator of an atomic integer constraint (after normalization
/// only `≤`, `<` and `=` remain; `≥`/`>` swap operands, `≠` negates).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Less-or-equal.
    Le,
    /// Strictly less.
    Lt,
    /// Equal.
    Eq,
}

#[derive(Debug)]
pub(crate) enum BoolNode {
    Const(bool),
    Var(BoolVar),
    Cmp(CmpOp, IntExpr, IntExpr),
    Not(BoolExpr),
    And(Vec<BoolExpr>),
    Or(Vec<BoolExpr>),
    Iff(BoolExpr, BoolExpr),
}

/// A Boolean-valued expression over integer comparisons and propositional
/// variables.
#[derive(Clone, Debug)]
pub struct BoolExpr(pub(crate) Arc<BoolNode>);

impl BoolExpr {
    /// The constant `true`/`false`.
    pub fn constant(b: bool) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Const(b)))
    }

    pub(crate) fn node(&self) -> &BoolNode {
        &self.0
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(&self) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Not(self.clone())))
    }

    /// Conjunction.
    pub fn and(&self, rhs: impl Into<BoolExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::And(vec![self.clone(), rhs.into()])))
    }

    /// Disjunction.
    pub fn or(&self, rhs: impl Into<BoolExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Or(vec![self.clone(), rhs.into()])))
    }

    /// Implication `self → rhs`.
    pub fn implies(&self, rhs: impl Into<BoolExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Or(vec![self.not(), rhs.into()])))
    }

    /// Bi-implication `self ↔ rhs`.
    pub fn iff(&self, rhs: impl Into<BoolExpr>) -> BoolExpr {
        BoolExpr(Arc::new(BoolNode::Iff(self.clone(), rhs.into())))
    }

    /// Exclusive or.
    pub fn xor(&self, rhs: impl Into<BoolExpr>) -> BoolExpr {
        self.iff(rhs).not()
    }

    /// Conjunction of all expressions (`true` when empty).
    pub fn all<I: IntoIterator<Item = BoolExpr>>(items: I) -> BoolExpr {
        let v: Vec<BoolExpr> = items.into_iter().collect();
        match v.len() {
            0 => BoolExpr::constant(true),
            1 => v.into_iter().next().unwrap(),
            _ => BoolExpr(Arc::new(BoolNode::And(v))),
        }
    }

    /// Disjunction of all expressions (`false` when empty).
    pub fn any<I: IntoIterator<Item = BoolExpr>>(items: I) -> BoolExpr {
        let v: Vec<BoolExpr> = items.into_iter().collect();
        match v.len() {
            0 => BoolExpr::constant(false),
            1 => v.into_iter().next().unwrap(),
            _ => BoolExpr(Arc::new(BoolNode::Or(v))),
        }
    }
}

impl From<bool> for BoolExpr {
    fn from(b: bool) -> BoolExpr {
        BoolExpr::constant(b)
    }
}

impl From<BoolVar> for BoolExpr {
    fn from(v: BoolVar) -> BoolExpr {
        v.expr()
    }
}

impl From<&BoolExpr> for BoolExpr {
    fn from(e: &BoolExpr) -> BoolExpr {
        e.clone()
    }
}

/// Pointer pairs already compared (and found equal so far). Expression
/// graphs are DAGs with heavy node sharing, so a naive recursive equality
/// can revisit a shared subgraph once per reference — memoizing visited
/// pairs keeps the comparison linear in the number of distinct node pairs.
pub(crate) type SeenPairs = std::collections::HashSet<(usize, usize)>;

/// Structural equality of integer expressions: same tree shape, constants,
/// and variables (ids and ranges). Physically identical nodes short-circuit.
pub(crate) fn int_structural_eq(a: &IntExpr, b: &IntExpr, seen: &mut SeenPairs) -> bool {
    let pa = Arc::as_ptr(&a.0) as usize;
    let pb = Arc::as_ptr(&b.0) as usize;
    if pa == pb || !seen.insert((pa, pb)) {
        // Revisited pairs were already compared: a `false` outcome aborts
        // the whole comparison before any revisit, so reaching here again
        // means the earlier visit concluded equal.
        return true;
    }
    match (a.node(), b.node()) {
        (IntNode::Const(x), IntNode::Const(y)) => x == y,
        (IntNode::Var(x), IntNode::Var(y)) => x == y,
        (IntNode::Add(ax, ay), IntNode::Add(bx, by))
        | (IntNode::Sub(ax, ay), IntNode::Sub(bx, by))
        | (IntNode::Mul(ax, ay), IntNode::Mul(bx, by)) => {
            int_structural_eq(ax, bx, seen) && int_structural_eq(ay, by, seen)
        }
        _ => false,
    }
}

/// Structural equality of Boolean expressions (see [`int_structural_eq`]).
pub(crate) fn bool_structural_eq(a: &BoolExpr, b: &BoolExpr, seen: &mut SeenPairs) -> bool {
    let pa = Arc::as_ptr(&a.0) as usize;
    let pb = Arc::as_ptr(&b.0) as usize;
    if pa == pb || !seen.insert((pa, pb)) {
        return true;
    }
    match (a.node(), b.node()) {
        (BoolNode::Const(x), BoolNode::Const(y)) => x == y,
        (BoolNode::Var(x), BoolNode::Var(y)) => x == y,
        (BoolNode::Cmp(oa, ax, ay), BoolNode::Cmp(ob, bx, by)) => {
            oa == ob && int_structural_eq(ax, bx, seen) && int_structural_eq(ay, by, seen)
        }
        (BoolNode::Not(x), BoolNode::Not(y)) => bool_structural_eq(x, y, seen),
        (BoolNode::And(xs), BoolNode::And(ys)) | (BoolNode::Or(xs), BoolNode::Or(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| bool_structural_eq(x, y, seen))
        }
        (BoolNode::Iff(ax, ay), BoolNode::Iff(bx, by)) => {
            bool_structural_eq(ax, bx, seen) && bool_structural_eq(ay, by, seen)
        }
        _ => false,
    }
}

/// Evaluates an integer expression under concrete variable values
/// (`values[var.id]`). Used by tests and by model validation.
pub fn eval_int(e: &IntExpr, values: &dyn Fn(IntVar) -> i64) -> i64 {
    match e.node() {
        IntNode::Const(v) => *v,
        IntNode::Var(v) => values(*v),
        IntNode::Add(a, b) => eval_int(a, values) + eval_int(b, values),
        IntNode::Sub(a, b) => eval_int(a, values) - eval_int(b, values),
        IntNode::Mul(a, b) => eval_int(a, values) * eval_int(b, values),
    }
}

/// Evaluates a Boolean expression under concrete variable values.
pub fn eval_bool(
    e: &BoolExpr,
    ints: &dyn Fn(IntVar) -> i64,
    bools: &dyn Fn(BoolVar) -> bool,
) -> bool {
    match e.node() {
        BoolNode::Const(b) => *b,
        BoolNode::Var(v) => bools(*v),
        BoolNode::Cmp(op, a, b) => {
            let (x, y) = (eval_int(a, ints), eval_int(b, ints));
            match op {
                CmpOp::Le => x <= y,
                CmpOp::Lt => x < y,
                CmpOp::Eq => x == y,
            }
        }
        BoolNode::Not(a) => !eval_bool(a, ints, bools),
        BoolNode::And(v) => v.iter().all(|a| eval_bool(a, ints, bools)),
        BoolNode::Or(v) => v.iter().any(|a| eval_bool(a, ints, bools)),
        BoolNode::Iff(a, b) => eval_bool(a, ints, bools) == eval_bool(b, ints, bools),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(id: u32, lo: i64, hi: i64) -> IntVar {
        IntVar { id, lo, hi }
    }

    #[test]
    fn range_inference() {
        let x = var(0, 0, 10).expr();
        let y = var(1, -3, 5).expr();
        assert_eq!((&x + &y).range(), (-3, 15));
        assert_eq!((&x - &y).range(), (-5, 13));
        assert_eq!((&x * &y).range(), (-30, 50));
        assert_eq!((&x * 2 + 1).range(), (1, 21));
    }

    #[test]
    fn mul_range_covers_sign_combinations() {
        let a = var(0, -4, -2).expr();
        let b = var(1, -3, 7).expr();
        assert_eq!((&a * &b).range(), (-28, 12));
    }

    #[test]
    fn eval_matches_structure() {
        let x = var(0, 0, 100);
        let y = var(1, 0, 100);
        let e = (x.expr() + y.expr()) * 3 - 4;
        let values = |v: IntVar| if v.id == 0 { 5 } else { 7 };
        assert_eq!(eval_int(&e, &values), (5 + 7) * 3 - 4);
    }

    #[test]
    fn comparisons_evaluate() {
        let x = var(0, 0, 10);
        let c = x.expr().ge(4).and(x.expr().lt(8));
        let at = |v: i64| eval_bool(&c, &move |_| v, &|_| unreachable!());
        assert!(!at(3));
        assert!(at(4));
        assert!(at(7));
        assert!(!at(8));
    }

    #[test]
    fn junctors_evaluate() {
        let p = BoolVar { id: 0 };
        let q = BoolVar { id: 1 };
        let e = p.expr().implies(q.expr()).iff(p.expr().not().or(q.expr()));
        for (pv, qv) in [(false, false), (false, true), (true, false), (true, true)] {
            let b = move |v: BoolVar| if v.id == 0 { pv } else { qv };
            assert!(eval_bool(&e, &|_| 0, &b));
        }
    }

    #[test]
    fn sum_and_all_any_empty_cases() {
        assert_eq!(IntExpr::sum(std::iter::empty()).range(), (0, 0));
        assert!(eval_bool(
            &BoolExpr::all(std::iter::empty()),
            &|_| 0,
            &|_| false
        ));
        assert!(!eval_bool(
            &BoolExpr::any(std::iter::empty()),
            &|_| 0,
            &|_| false
        ));
    }

    #[test]
    fn ne_is_negated_eq() {
        let x = var(0, 0, 3);
        let e = x.expr().ne(2);
        assert!(eval_bool(&e, &|_| 1, &|_| false));
        assert!(!eval_bool(&e, &|_| 2, &|_| false));
    }
}
