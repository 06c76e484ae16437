//! **Table 3** — complexity vs. task-set size.
//!
//! Paper: partitions of the \[5\] benchmark with 7 / 12 / 20 / 30 / 43 tasks
//! on 8 ECUs; runtime blows up almost exponentially in the task count
//! because the number of formulae (pairwise preemption constraints) grows
//! quadratically and the decision space exponentially.
//!
//! Quick mode runs the 7/12/20-task partitions; `--full` adds 30 and 43.

use optalloc::Objective;
use optalloc_bench::{emit, ms, parse_cli, run_configs, solve_options};
use optalloc_model::MediumId;
use optalloc_workloads::{task_scaling, TABLE3_TASKS};

fn main() {
    let cli = parse_cli();
    let sizes: &[usize] = if cli.full {
        &TABLE3_TASKS
    } else {
        &TABLE3_TASKS[..3]
    };

    let rows: Vec<_> = sizes
        .iter()
        .flat_map(|&n| {
            run_configs(
                &task_scaling(n),
                &Objective::TokenRotationTime(MediumId(0)),
                vec![(format!("{n} tasks"), solve_options(cli.full))],
                1,
            )
        })
        .map(|run| run.row(ms("TRT")))
        .collect();

    emit(
        "Table 3: complexity vs task-set size (8-ECU token ring, TRT objective)",
        &rows,
        &cli,
    );
    println!(
        "paper: 7→43 tasks: 23s → 48min, 5k→174k var, 22k→995k lit \
         (near-exponential growth in tasks)"
    );
}
