//! **Window-search ablation** — does partitioning the cost interval divide
//! the terminal UNSAT certification across workers?
//!
//! Table-3-style instances (token-ring task-set scaling), TRT objective,
//! cold start (no SA seeding — this harness isolates the parallel-search
//! lever). Two modes per instance:
//!
//! - `single` — plain incremental binary search ([`Strategy::Single`]),
//!   the baseline every speedup column divides by;
//! - `window` — N ≥ 2 workers over **disjoint** sub-windows
//!   ([`Strategy::WindowSearch`], conflict-sliced barrier rounds): the
//!   certification region is partitioned, so its conflicts split across
//!   workers instead of repeating. (One worker would run the `single`
//!   search itself.)
//!
//! The per-worker conflict column (`worker_conflicts`) makes that split
//! visible. The result is stated as **critical-path work**, two ways:
//!
//! - `critical_path_conflicts` is the largest per-worker conflict count
//!   (the whole count for `single`). It ignores the barrier: a worker that
//!   waits for a slower one costs nothing in it.
//! - `round_critical_path_conflicts` sums, over the search's `rounds`, the
//!   largest conflict count any worker spent in that round — the work a
//!   barrier actually puts on the critical path (the whole count for
//!   `single`, which runs no rounds).
//!
//! `critical_path_vs_single` divides the single search's conflicts by the
//! first, `round_critical_path_vs_single` by the second. Conflict counts
//! are deterministic, so
//! unlike wall time they do not depend on how many cores the host has
//! (`host_cores`, via `std::thread::available_parallelism()`): on a
//! single-core host the workers time-slice one CPU and the measured
//! `speedup_vs_single` stays near (or below) 1×. The harness asserts both
//! modes return the identical proven optimum.
//!
//! The peak worker count defaults to `--workers auto` (one per host core);
//! pass `--workers <n>` to pin it — e.g. `--workers 2` for a CI smoke run.
//! `OPTALLOC_ABLATION_SIZES` (comma-separated task counts) overrides the
//! instance grid, e.g. `OPTALLOC_ABLATION_SIZES=20,30`.

use optalloc::{Objective, SolveOptions, Strategy};
use optalloc_bench::{
    ablation_sizes, host_cores, parse_cli, run_configs, solve_options, write_json,
};
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;
use serde::Serialize;

/// One measurement of the ablation grid.
#[derive(Debug, Serialize)]
struct WindowRow {
    instance: String,
    tasks: usize,
    /// `single` or `window` (see module docs).
    mode: &'static str,
    workers: usize,
    /// CPUs available to the process — workers beyond this count time-slice
    /// cores, capping the *measured* speedup at ~1×.
    host_cores: usize,
    /// Proven optimal TRT in ticks (identical across both modes — asserted).
    cost: i64,
    time_s: f64,
    solve_calls: u32,
    /// Total conflicts summed over all workers.
    conflicts: u64,
    /// Conflicts per worker, by worker index (empty for `single`).
    worker_conflicts: Vec<u64>,
    /// Cost windows probed per worker (empty for `single`).
    worker_windows: Vec<usize>,
    /// The largest per-worker conflict count (`conflicts` for `single`).
    critical_path_conflicts: u64,
    /// `conflicts(single) / critical_path_conflicts`.
    critical_path_vs_single: f64,
    /// Barrier rounds the window search ran (0 for `single`).
    rounds: usize,
    /// Sum over rounds of the largest per-worker conflicts in that round
    /// (`conflicts` for `single`).
    round_critical_path_conflicts: u64,
    /// `conflicts(single) / round_critical_path_conflicts`.
    round_critical_path_vs_single: f64,
    /// `time_s(single) / time_s(this row)` — measured wall clock.
    speedup_vs_single: f64,
}

fn main() {
    let cli = parse_cli();
    let sizes = ablation_sizes(if cli.full { &[20, 30, 43] } else { &[12, 20] });
    // Grid: the single baseline (one worker), and window search from 2
    // workers up to the peak.
    let peak = cli.max_workers().max(2);
    let mut grid = vec![1, 2, 4, peak];
    grid.retain(|&w| w <= peak);
    grid.sort_unstable();
    grid.dedup();
    let mode = |workers| if workers == 1 { "single" } else { "window" };

    let mut rows: Vec<WindowRow> = Vec::new();
    for &n in &sizes {
        let w = task_scaling(n);
        let configs = grid
            .iter()
            .map(|&workers| {
                let strategy = match workers {
                    1 => Strategy::Single,
                    _ => Strategy::WindowSearch {
                        workers,
                        deterministic: true,
                    },
                };
                let opts = SolveOptions {
                    strategy,
                    ..solve_options(cli.full)
                };
                (format!("{n} tasks, {}/{workers}", mode(workers)), opts)
            })
            .collect();
        let runs = run_configs(&w, &Objective::TokenRotationTime(MediumId(0)), configs, 1);
        let single_time = runs[0].time_s;
        let single_conflicts = runs[0].report().stats.conflicts;

        for (run, &workers) in runs.iter().zip(&grid) {
            let (r, total) = (run.report(), run.time_s);
            let worker_conflicts: Vec<u64> = r.workers.iter().map(|w| w.stats.conflicts).collect();
            let critical_path = worker_conflicts
                .iter()
                .copied()
                .max()
                .unwrap_or(r.stats.conflicts);
            let critical_vs_single = single_conflicts as f64 / critical_path as f64;
            // Per round, the busiest worker's conflicts: what the barrier
            // waits for.
            let mut round_max: Vec<u64> = Vec::new();
            for w in &r.workers {
                round_max.resize(round_max.len().max(w.round_conflicts.len()), 0);
                for (m, &c) in round_max.iter_mut().zip(&w.round_conflicts) {
                    *m = (*m).max(c);
                }
            }
            let rounds = round_max.len();
            let round_critical_path = if rounds == 0 {
                r.stats.conflicts
            } else {
                round_max.iter().sum()
            };
            let round_vs_single = single_conflicts as f64 / round_critical_path as f64;
            eprintln!(
                "{}: TRT = {} in {total:.2}s — \
                 critical path {critical_path} conflicts ({critical_vs_single:.2}x \
                 vs single), {rounds} rounds with critical path \
                 {round_critical_path} conflicts ({round_vs_single:.2}x vs single), \
                 wall speedup {:.2}x measured",
                run.label,
                r.cost,
                single_time / total,
            );
            for report in &r.workers {
                eprintln!("  {report}");
            }
            rows.push(WindowRow {
                instance: w.name.clone(),
                tasks: n,
                mode: mode(workers),
                workers,
                host_cores: host_cores(),
                cost: r.cost,
                time_s: total,
                solve_calls: r.solve_calls,
                conflicts: r.stats.conflicts,
                worker_conflicts,
                worker_windows: r.workers.iter().map(|w| w.windows.len()).collect(),
                critical_path_conflicts: critical_path,
                critical_path_vs_single: critical_vs_single,
                rounds,
                round_critical_path_conflicts: round_critical_path,
                round_critical_path_vs_single: round_vs_single,
                speedup_vs_single: single_time / total,
            });
        }
    }

    println!("{}", write_json(&rows, cli.json.as_deref()));
}
