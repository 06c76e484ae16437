//! Random optimization problems shared by the agreement property in
//! `tests/prop.rs` and the sliced-round tests in `src/window.rs`: three
//! bounded variables with a minimum sum, and a random affine-ish objective
//! over them as the cost.

use optalloc_intopt::{IntExpr, IntProblem, IntVar};
use proptest::prelude::*;

/// Recipe for a random affine-ish expression over 3 variables.
#[derive(Debug, Clone)]
pub enum ExprRecipe {
    Var(usize),
    Const(i64),
    Add(Box<ExprRecipe>, Box<ExprRecipe>),
    Mul(Box<ExprRecipe>, Box<ExprRecipe>),
}

fn build(recipe: &ExprRecipe, vars: &[IntVar]) -> IntExpr {
    match recipe {
        ExprRecipe::Var(i) => vars[i % vars.len()].expr(),
        ExprRecipe::Const(v) => IntExpr::constant(*v),
        ExprRecipe::Add(a, b) => build(a, vars) + build(b, vars),
        ExprRecipe::Mul(a, b) => build(a, vars) * build(b, vars),
    }
}

pub fn arb_expr() -> impl Strategy<Value = ExprRecipe> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(ExprRecipe::Var),
        (0i64..=4).prop_map(ExprRecipe::Const),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprRecipe::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| ExprRecipe::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

/// Variables in `[0, bound]` summing to at least `sum_lo`, minimizing
/// `objective`; returns the problem and its cost variable.
pub fn problem(objective: &ExprRecipe, bound: i64, sum_lo: i64) -> (IntProblem, IntVar) {
    let mut p = IntProblem::new();
    let vars: Vec<IntVar> = (0..3).map(|_| p.int_var(0, bound)).collect();
    p.assert(
        vars.iter()
            .fold(IntExpr::constant(0), |a, v| a + v.expr())
            .ge(sum_lo),
    );
    let obj = build(objective, &vars);
    let (_, obj_hi) = obj.range();
    let cost = p.int_var(0, obj_hi.max(0));
    p.assert(cost.expr().eq(obj));
    (p, cost)
}
