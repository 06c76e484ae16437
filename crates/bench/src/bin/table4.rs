//! **Table 4** — hierarchical architectures A, B, C (Figure 2), minimizing
//! the sum of token rotation times.
//!
//! Paper rows:
//!
//! ```text
//! Arch A + \[5\]:  ΣTRT = 10.77ms   490 min
//! Arch B + \[5\]:  ΣTRT = 16.32ms   740 min
//! Arch C + \[5\]:  ΣTRT =  8.55ms   790 min
//! ```
//!
//! Shape to reproduce: A and B (task-free gateways ⇒ forced multi-bus
//! traffic) cost **more** total TRT than the single-bus baseline, with B
//! (three buses) worst; C (a task-hosting gateway splitting the original
//! ECUs) recovers (close to) the single-bus optimum.
//!
//! Quick mode uses a 14-task set; `--full` the 43-task benchmark.

use optalloc::Objective;
use optalloc_bench::{emit, ms, parse_cli, run_configs, solve_options};
use optalloc_model::MediumId;
use optalloc_workloads::{generate, table4_workload, Fig2, GenParams};

fn main() {
    let cli = parse_cli();
    let params = if cli.full {
        GenParams::tindell43()
    } else {
        GenParams {
            n_tasks: 14,
            n_chains: 4,
            utilization: 0.30,
            ..GenParams::tindell43()
        }
    };

    // Baseline: the same task set on the original single ring.
    let mut rows: Vec<_> = run_configs(
        &generate(&params),
        &Objective::TokenRotationTime(MediumId(0)),
        vec![("single ring (baseline)".into(), solve_options(cli.full))],
        1,
    )
    .iter()
    .map(|run| run.row(ms("TRT")))
    .collect();
    for which in [Fig2::A, Fig2::B, Fig2::C] {
        let runs = run_configs(
            &table4_workload(which, &params),
            &Objective::SumTokenRotationTimes,
            vec![(
                format!("Arch {which:?} + [5]-style"),
                solve_options(cli.full),
            )],
            1,
        );
        rows.extend(runs.iter().map(|run| run.row(ms("ΣTRT"))));
    }

    emit(
        "Table 4: hierarchical architectures A/B/C (Fig. 2), ΣTRT objective",
        &rows,
        &cli,
    );
    println!(
        "paper: A 10.77ms / B 16.32ms / C 8.55ms — dedicated gateways (A, B) \
         inflate total TRT; the shared task-hosting gateway (C) recovers the \
         single-bus optimum"
    );
}
