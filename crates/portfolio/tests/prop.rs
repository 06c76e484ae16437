//! Agreement property: on random optimization instances, the paper's two
//! `BIN_SEARCH` modes (each with the encoder optimization layer on and
//! off), the parallel window search, and every point of the search-engine
//! grid (restart policy × tiered DB × vivification) all prove the same
//! optimal cost — neither the parallel search, the optimized encoder, nor
//! any search-core axis trades correctness for speed.

use optalloc_intopt::{
    BinSearchMode, BoolExpr, EncoderOpt, IntExpr, IntProblem, IntVar, MinimizeOptions,
    MinimizeStatus, RestartPolicy, SearchEngine,
};
use optalloc_portfolio::{minimize_window_search, PortfolioOptions};
use proptest::prelude::*;

/// Recipe for a random affine-ish expression over 3 variables.
#[derive(Debug, Clone)]
enum ExprRecipe {
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

fn arb_expr() -> impl Strategy<Value = ExprRecipe> {
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

/// Optimal cost per strategy, `None` for infeasible. Panics on any
/// non-decisive verdict (no budgets or interrupts are configured here).
fn optimum_single(
    p: &IntProblem,
    cost: IntVar,
    mode: BinSearchMode,
    encoder_opt: EncoderOpt,
) -> Option<i64> {
    let out = p.minimize(
        cost,
        &MinimizeOptions {
            mode,
            encoder_opt,
            ..MinimizeOptions::default()
        },
    );
    match out.status {
        MinimizeStatus::Optimal { value, .. } => Some(value),
        MinimizeStatus::Infeasible => None,
        ref s => panic!("{mode:?} ({encoder_opt:?}): unexpected {s:?}"),
    }
}

/// Optimal cost under one search-engine configuration (incremental mode,
/// which exercises the engine across re-solves under assumptions).
fn optimum_engine(p: &IntProblem, cost: IntVar, engine: SearchEngine) -> Option<i64> {
    let mut opts = MinimizeOptions {
        mode: BinSearchMode::Incremental,
        ..MinimizeOptions::default()
    };
    engine.configure(&mut opts.solver_config);
    let out = p.minimize(cost, &opts);
    match out.status {
        MinimizeStatus::Optimal { value, .. } => Some(value),
        MinimizeStatus::Infeasible => None,
        ref s => panic!("engine {}: unexpected {s:?}", engine.label()),
    }
}

fn optimum_window(p: &IntProblem, cost: IntVar) -> Option<i64> {
    let out = minimize_window_search(
        p,
        cost,
        &PortfolioOptions {
            workers: 4,
            ..PortfolioOptions::default()
        },
    );
    match out.status {
        MinimizeStatus::Optimal { value, ref model } => {
            assert_eq!(
                model.int(cost),
                value,
                "window-search witness does not attain the optimum"
            );
            Some(value)
        }
        MinimizeStatus::Infeasible => None,
        ref s => panic!("window: unexpected {s:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_agree_on_the_optimum(
        objective in arb_expr(),
        bound in 2i64..=10,
        sum_lo in 0i64..=8,
    ) {
        let mut p = IntProblem::new();
        let vars: Vec<IntVar> = (0..3).map(|_| p.int_var(0, bound)).collect();
        let exprs: Vec<BoolExpr> = vec![
            vars.iter().fold(IntExpr::constant(0), |a, v| a + v.expr()).ge(sum_lo),
        ];
        for e in &exprs {
            p.assert(e.clone());
        }
        let obj = build(&objective, &vars);
        let (_, obj_hi) = obj.range();
        let cost = p.int_var(0, obj_hi.max(0));
        p.assert(cost.expr().eq(obj));

        let fresh = optimum_single(&p, cost, BinSearchMode::Fresh, EncoderOpt::default());
        let incremental =
            optimum_single(&p, cost, BinSearchMode::Incremental, EncoderOpt::default());
        let fresh_unopt = optimum_single(&p, cost, BinSearchMode::Fresh, EncoderOpt::none());
        let incremental_unopt =
            optimum_single(&p, cost, BinSearchMode::Incremental, EncoderOpt::none());
        let window = optimum_window(&p, cost);

        prop_assert_eq!(fresh, incremental, "fresh vs incremental");
        prop_assert_eq!(incremental, fresh_unopt, "optimized vs unoptimized fresh encoder");
        prop_assert_eq!(
            fresh_unopt, incremental_unopt,
            "unoptimized fresh vs unoptimized incremental"
        );
        prop_assert_eq!(incremental_unopt, window, "incremental vs window search");

        // The search-engine grid: restart policy × tiered DB × vivification
        // (binary watches on throughout — the legacy all-off point is
        // already covered, every default run above used the full engine).
        for restart in [RestartPolicy::Luby, RestartPolicy::Ema] {
            for tiered_db in [false, true] {
                for vivify in [false, true] {
                    let engine = SearchEngine {
                        binary_watches: true,
                        tiered_db,
                        restart,
                        vivify,
                        elim: vivify,
                    };
                    prop_assert_eq!(
                        optimum_engine(&p, cost, engine),
                        incremental,
                        "engine {} vs default incremental",
                        engine.label()
                    );
                }
            }
        }
    }
}
