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

use optalloc::intopt::BinSearchMode;
use optalloc::{Objective, SolveOptions};
use optalloc_bench::{emit, parse_cli, run_configs, Row};
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
        let configs = [BinSearchMode::Fresh, BinSearchMode::Incremental].map(|mode| {
            let opts = SolveOptions {
                mode,
                max_slot: 48,
                max_conflicts: if cli.full { None } else { Some(5_000_000) },
                ..Default::default()
            };
            (format!("{n} tasks, {mode:?}"), opts)
        });
        let runs = run_configs(
            &task_scaling(n),
            &Objective::TokenRotationTime(MediumId(0)),
            configs.into(),
            1,
        );
        rows.extend(runs.iter().map(|run| run.row(|c| format!("TRT = {c}"))));
        if runs.iter().all(|run| run.outcome.is_ok()) {
            rows.push(Row::plain(
                format!("{n} tasks: speedup"),
                format!("{:.2}x", runs[0].time_s / runs[1].time_s),
                0.0,
                "fresh / incremental wall time",
            ));
        }
    }

    emit(
        "§7 ablation: fresh re-encoding vs incremental learned-clause reuse",
        &rows,
        &cli,
    );
    println!("paper: incremental reuse 'speeds up the optimization by a factor of 2 and more'");
}
