//! **Table 2** — complexity vs. architectural size.
//!
//! Paper: 30 tasks with chains and extra requirements on a token ring of
//! 8 / 16 / 25 / 32 / 45 / 64 ECUs; runtime and formula size grow with the
//! ECU count, but much more slowly than with the task count (Table 3) —
//! "in case of an architectural growth [the number of formulae] is not"
//! directly task-dependent.
//!
//! Quick mode uses a 14-task set over the same ECU sweep; `--full` runs
//! the paper's 30-task set.

use optalloc::Objective;
use optalloc_bench::{emit, ms, parse_cli, run_configs, solve_options};
use optalloc_model::MediumId;
use optalloc_workloads::{architecture_scaling, generate, GenParams, TABLE2_ECUS};

fn main() {
    let cli = parse_cli();
    let ecu_counts: &[usize] = if cli.full {
        &TABLE2_ECUS
    } else {
        &TABLE2_ECUS[..4]
    };

    let rows: Vec<_> = ecu_counts
        .iter()
        .flat_map(|&ecus| {
            let w = if cli.full {
                architecture_scaling(ecus)
            } else {
                generate(&GenParams {
                    name: format!("table2q-e{ecus}"),
                    n_tasks: 14,
                    n_chains: 4,
                    n_ecus: ecus,
                    seed: 0x7ab1_e200 + ecus as u64,
                    utilization: 0.35,
                    restricted_fraction: 0.2,
                    redundant_pairs: 1,
                    token_ring: true,
                    deadline_slack: 1.4,
                })
            };
            run_configs(
                &w,
                &Objective::TokenRotationTime(MediumId(0)),
                vec![(format!("{ecus} ECUs"), solve_options(cli.full))],
                1,
            )
        })
        .map(|run| run.row(ms("TRT")))
        .collect();

    emit(
        "Table 2: complexity vs architecture size (token ring, TRT objective)",
        &rows,
        &cli,
    );
    println!(
        "paper (30 tasks): 8→64 ECUs: 0h13–13h00, 100k–206k var, 602k–1304k lit \
         (sub-exponential growth in ECUs)"
    );
}
