//! Agreement property: on random optimization instances, the paper's two
//! `BIN_SEARCH` modes (each with the encoder optimization layer on and
//! off) and the parallel window search all prove the same optimal cost —
//! neither the parallel search nor the optimized encoder trades
//! correctness for speed.

mod common;

use common::{arb_expr, problem};
use optalloc_intopt::{
    BinSearchMode, EncoderOpt, IntProblem, IntVar, MinimizeOptions, MinimizeStatus,
};
use optalloc_portfolio::minimize_window_search;
use proptest::prelude::*;

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

fn optimum_window(p: &IntProblem, cost: IntVar) -> Option<i64> {
    let (out, _) = minimize_window_search(p, cost, &MinimizeOptions::default(), 4);
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
        let (p, cost) = problem(&objective, bound, sum_lo);

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
    }
}
