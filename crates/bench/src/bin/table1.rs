//! **Table 1** — the \[5\]-style benchmark on 8 ECUs.
//!
//! Paper rows:
//!
//! ```text
//! \[5\]        TRT = 8.55ms   48 min   175k var   995k lit   (SA found 8.7ms)
//! \[5\] + CAN  U_CAN = 0.371  361 min  298k var  1627k lit
//! ```
//!
//! We reproduce the *shape*: the SAT optimum is ≤ the simulated-annealing
//! result (the paper's headline — SA was not optimal), the CAN variant's
//! encoding is markedly larger than the token-ring one, and the Var./Lit.
//! columns land in the paper's order of magnitude at full scale.
//!
//! Quick mode runs a reduced instance (same generator, fewer tasks);
//! `--full` runs the whole 43-task synthetic benchmark.

use optalloc::Objective;
use optalloc_bench::{emit, ms, parse_cli, run_configs, solve_options, Row};
use optalloc_heuristics::{anneal, greedy, HeuristicObjective, SaParams};
use optalloc_model::MediumId;
use optalloc_workloads::{generate, GenParams};
use std::time::Instant;

/// A heuristic's row: its objective value, or `infeasible`.
fn heuristic_row(
    label: &str,
    start: Instant,
    feasible: bool,
    objective: i64,
    fmt_cost: impl Fn(i64) -> String,
    note: String,
) -> Row {
    let result = if feasible {
        fmt_cost(objective)
    } else {
        "infeasible".into()
    };
    Row::plain(label, result, start.elapsed().as_secs_f64(), note)
}

fn main() {
    let cli = parse_cli();
    let params = if cli.full {
        GenParams::tindell43()
    } else {
        GenParams {
            n_tasks: 16,
            n_chains: 5,
            utilization: 0.35,
            ..GenParams::tindell43()
        }
    };
    let ring = MediumId(0);
    let u_can = |c: i64| format!("U_CAN = {:.3}", c as f64 / 1000.0);
    let sa_params = SaParams {
        restarts: if cli.full { 8 } else { 4 },
        ..Default::default()
    };

    // --- token ring, minimize TRT: SAT vs SA vs greedy -------------------
    let w = generate(&params);
    let sat = run_configs(
        &w,
        &Objective::TokenRotationTime(ring),
        vec![(
            format!("[5]-style ring (SAT, n={})", params.n_tasks),
            solve_options(cli.full),
        )],
        1,
    );
    let mut rows: Vec<Row> = sat.iter().map(|run| run.row(ms("TRT"))).collect();

    let ring_objective = HeuristicObjective::TokenRotationTime(ring);
    let t = Instant::now();
    let sa = anneal(&w.arch, &w.tasks, &ring_objective, &sa_params);
    rows.push(heuristic_row(
        "  simulated annealing [5]",
        t,
        sa.feasible,
        sa.objective,
        ms("TRT"),
        format!("{} evaluations", sa.evaluations),
    ));
    let t = Instant::now();
    let gr = greedy(&w.arch, &w.tasks, &ring_objective);
    rows.push(heuristic_row(
        "  greedy first-fit",
        t,
        gr.feasible,
        gr.objective,
        ms("TRT"),
        String::new(),
    ));

    // --- CAN variant, minimize U_CAN --------------------------------------
    let wc = generate(&GenParams {
        token_ring: false,
        name: format!("{}-can", params.name),
        ..params.clone()
    });
    let sat_can = run_configs(
        &wc,
        &Objective::BusLoadPermille(ring),
        vec![("[5] + CAN (SAT)".into(), solve_options(cli.full))],
        1,
    );
    rows.extend(sat_can.iter().map(|run| run.row(u_can)));

    let t = Instant::now();
    let sa_can = anneal(
        &wc.arch,
        &wc.tasks,
        &HeuristicObjective::BusLoadPermille(ring),
        &sa_params,
    );
    rows.push(heuristic_row(
        "  simulated annealing",
        t,
        sa_can.feasible,
        sa_can.objective,
        u_can,
        format!("{} evaluations", sa_can.evaluations),
    ));

    emit(
        "Table 1: [5]-style benchmark — optimal SAT allocation vs heuristics",
        &rows,
        &cli,
    );
    println!(
        "paper: TRT 8.55ms SAT vs 8.7ms SA (48 min, 175k var, 995k lit); \
         CAN U=0.371 (361 min, 298k var, 1627k lit)"
    );
}
