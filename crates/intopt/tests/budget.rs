//! Budgeted-solving behavior: the conflict budget must degrade gracefully
//! into `Unknown` verdicts with usable incumbents, never wrong answers.

use optalloc_intopt::{BinSearchMode, IntProblem, MinimizeOptions, MinimizeStatus};

/// A moderately hard optimization instance: magic-square-ish constraints.
fn hard_instance() -> (IntProblem, optalloc_intopt::IntVar) {
    let mut p = IntProblem::new();
    let n = 9;
    let xs: Vec<_> = (0..n).map(|_| p.int_var(1, 9)).collect();
    // All distinct (pairwise ≠).
    for i in 0..n {
        for j in (i + 1)..n {
            p.assert(xs[i].expr().ne(xs[j].expr()));
        }
    }
    // Rows sum to 15.
    for row in xs.chunks(3) {
        let sum = row
            .iter()
            .fold(optalloc_intopt::IntExpr::constant(0), |a, v| a + v.expr());
        p.assert(sum.eq(15));
    }
    // Minimize the top-left corner.
    let cost = p.int_var(0, 9);
    p.assert(cost.expr().eq(xs[0].expr()));
    (p, cost)
}

/// Options with a per-`SOLVE` conflict budget.
fn budgeted(mode: BinSearchMode, max_conflicts: u64) -> MinimizeOptions {
    let mut opts = MinimizeOptions {
        mode,
        ..MinimizeOptions::default()
    };
    opts.solver_config.max_conflicts = Some(max_conflicts);
    opts
}

#[test]
fn unlimited_budget_finds_true_optimum() {
    let (p, cost) = hard_instance();
    let out = p.minimize(cost, &MinimizeOptions::default());
    match out.status {
        // Rows of distinct 1..9 summing to 15 exist with corner 1, e.g.
        // (1,5,9),(2,6,7),(3,4,8).
        MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 1),
        ref s => panic!("unexpected {s:?}"),
    }
}

#[test]
fn tiny_budget_yields_unknown_not_wrong_answers() {
    let (p, cost) = hard_instance();
    for mode in [BinSearchMode::Fresh, BinSearchMode::Incremental] {
        let out = p.minimize(cost, &budgeted(mode, 1));
        match out.status {
            MinimizeStatus::Unknown { incumbent } => {
                // Any incumbent returned must satisfy the constraints.
                if let Some((value, model)) = incumbent {
                    assert!((1..=9).contains(&value));
                    let _ = model;
                }
            }
            // With enough luck the first probes may finish under budget;
            // then the answer must still be the true optimum.
            MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 1, "{mode:?}"),
            MinimizeStatus::Infeasible => panic!("{mode:?}: instance is feasible"),
            // No interrupt flag or shared bound is configured here.
            ref s => panic!("{mode:?}: unexpected {s:?}"),
        }
    }
}

#[test]
fn medium_budget_incumbent_is_valid_upper_bound() {
    let (p, cost) = hard_instance();
    let out = p.minimize(cost, &budgeted(BinSearchMode::Incremental, 200));
    match out.status {
        MinimizeStatus::Unknown {
            incumbent: Some((value, _)),
        } => {
            assert!(value >= 1, "incumbent below true optimum");
        }
        MinimizeStatus::Unknown { incumbent: None } => {}
        MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 1),
        MinimizeStatus::Infeasible => panic!("feasible instance"),
        // No interrupt flag or shared bound is configured here.
        ref s => panic!("unexpected {s:?}"),
    }
}

#[test]
fn budgeted_solve_reports_err_on_abort() {
    let (mut p, _) = hard_instance();
    // A plain satisfiability check is a minimization of a cost fixed at 0:
    // its one probe is the unbounded SOLVE(φ). With a 1-conflict budget it
    // must abort (Unknown), not claim UNSAT.
    let zero = p.int_var(0, 0);
    match p
        .minimize(zero, &budgeted(BinSearchMode::Incremental, 1))
        .status
    {
        MinimizeStatus::Unknown { incumbent: None } => {}
        MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 0), // solved within one conflict
        ref s => panic!("budget abort misreported as {s:?}"),
    }
}
