//! **§7 ablation** — learned-clause reuse across the binary-search sequence.
//!
//! The paper's conclusion reports that carrying facts learned by the SAT
//! solver from one `SOLVE` call to the next "is able to speed up the
//! optimization procedure by a factor of 2 and more". This harness runs the
//! same minimization in both modes:
//!
//! * `Fresh` — every probe re-encodes and solves from scratch,
//! * `Incremental` — one solver, bounds as assumptions, clauses retained,
//!
//! prints the speedup, and asserts both modes prove the same optimum.
//! `--full` uses larger instances.

use optalloc::{Objective, Optimizer, SolveOptions};
use optalloc_bench::{emit, parse_cli, Row};
use optalloc_intopt::BinSearchMode;
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;

fn main() {
    let cli = parse_cli();
    let mut rows = Vec::new();
    let sizes: &[usize] = if cli.full {
        &[12, 20, 30]
    } else {
        &[7, 12, 20]
    };

    for &n in sizes {
        let w = task_scaling(n);
        let mut times = Vec::new();
        let mut optima = Vec::new();
        for mode in [BinSearchMode::Fresh, BinSearchMode::Incremental] {
            let opts = SolveOptions {
                mode,
                max_slot: 48,
                max_conflicts: if cli.full { None } else { Some(5_000_000) },
                ..Default::default()
            };
            match Optimizer::new(&w.arch, &w.tasks)
                .with_options(opts)
                .minimize(&Objective::TokenRotationTime(MediumId(0)))
            {
                Ok(r) => {
                    times.push(r.wall.as_secs_f64());
                    optima.push(r.cost);
                    rows.push(Row::from_report(
                        format!("{n} tasks, {mode:?}"),
                        &r,
                        format!("TRT = {}", r.cost),
                    ));
                }
                Err(e) => rows.push(Row {
                    experiment: format!("{n} tasks, {mode:?}"),
                    result: format!("{e}"),
                    time_s: 0.0,
                    vars_k: 0.0,
                    lits_k: 0.0,
                    note: String::new(),
                }),
            }
        }
        assert!(
            optima.windows(2).all(|o| o[0] == o[1]),
            "{n} tasks: fresh and incremental optima differ: {optima:?}"
        );
        if times.len() == 2 && times[1] > 0.0 {
            rows.push(Row {
                experiment: format!("{n} tasks: speedup"),
                result: format!("{:.2}x", times[0] / times[1]),
                time_s: 0.0,
                vars_k: 0.0,
                lits_k: 0.0,
                note: "fresh / incremental wall time".into(),
            });
        }
    }

    emit(
        "§7 ablation: fresh re-encoding vs incremental learned-clause reuse",
        &rows,
        &cli,
    );
    println!("paper: incremental reuse 'speeds up the optimization by a factor of 2 and more'");
}
