//! The shared experiment loop and row builder of the harness binaries.

use optalloc::{Objective, OptError};
use optalloc_bench::{ms, run_configs, solve_options, Row};
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;

#[test]
fn outcome_rows() {
    assert_eq!(ms("TRT")(25), "TRT = 1.25ms");
    let budget = Err(OptError::Budget { incumbent: None });
    let row = Row::from_outcome("t", &budget, ms("TRT"));
    assert_eq!(row.result, "budget exhausted");
    assert_eq!(row.note, "conflict budget hit; rerun with --full");
    let row = Row::from_outcome("t", &Err(OptError::Infeasible), ms("TRT"));
    assert_eq!(row.result, OptError::Infeasible.to_string());
}

#[test]
fn every_configuration_runs_and_agrees() {
    let configs = vec![
        ("quick".to_string(), solve_options(false)),
        ("full".to_string(), solve_options(true)),
    ];
    let objective = Objective::TokenRotationTime(MediumId(0));
    let runs = run_configs(&task_scaling(7), &objective, configs, 2);
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].label, "quick");
    assert_eq!(runs[1].label, "full");
    assert_eq!(runs[0].report().cost, runs[1].report().cost);
    assert!(runs.iter().all(|run| run.time_s > 0.0));
}
