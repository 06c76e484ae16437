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
//!   ([`Strategy::WindowSearch`], barrier rounds): the certification
//!   region is partitioned, so its conflicts split across workers instead
//!   of repeating. (One worker would run the `single` search itself.)
//!
//! The per-worker conflict column (`worker_conflicts`) makes that split
//! visible. The result is stated as **critical-path work**:
//! `critical_path_conflicts` is the largest per-worker conflict count (the
//! whole count for `single`), and `critical_path_vs_single` divides the
//! single search's conflicts by it. Conflict counts are deterministic, so
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

use optalloc::{Objective, Optimizer, SolveOptions, Strategy};
use optalloc_bench::{parse_cli, solve_options};
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;
use serde::Serialize;
use std::time::Instant;

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
    /// `time_s(single) / time_s(this row)` — measured wall clock.
    speedup_vs_single: f64,
}

fn main() {
    let cli = parse_cli();
    let ring = MediumId(0);
    let objective = Objective::TokenRotationTime(ring);
    let default_sizes: &[usize] = if cli.full { &[20, 30, 43] } else { &[12, 20] };
    let sizes: Vec<usize> = match std::env::var("OPTALLOC_ABLATION_SIZES") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => default_sizes.to_vec(),
    };
    let peak = cli.max_workers().max(2);
    let mut counts: Vec<usize> = vec![2, 4, peak];
    counts.retain(|&w| w <= peak);
    counts.sort_unstable();
    counts.dedup();
    // Grid: the single baseline, and window search from 2 workers up to
    // the peak.
    let mut grid: Vec<(&'static str, usize)> = vec![("single", 1)];
    grid.extend(counts.iter().map(|&w| ("window", w)));

    let mut rows: Vec<WindowRow> = Vec::new();
    for &n in &sizes {
        let w = task_scaling(n);
        let base_opts = solve_options(cli.full);
        let mut single_time = f64::NAN;
        let mut single_cost = 0i64;
        let mut single_conflicts = 0u64;

        for &(mode, workers) in &grid {
            let opts = SolveOptions {
                strategy: match mode {
                    "single" => Strategy::Single,
                    _ => Strategy::WindowSearch {
                        workers,
                        deterministic: true,
                    },
                },
                ..base_opts.clone()
            };
            let start = Instant::now();
            let r = Optimizer::new(&w.arch, &w.tasks)
                .with_options(opts)
                .minimize(&objective)
                .unwrap_or_else(|e| panic!("{n} tasks, {workers} {mode} workers: {e}"));
            let total = start.elapsed().as_secs_f64();
            if mode == "single" {
                single_time = total;
                single_cost = r.cost;
                single_conflicts = r.stats.conflicts;
            }
            assert_eq!(
                r.cost, single_cost,
                "{n} tasks: {mode}/{workers} optimum diverged from the single search"
            );
            let worker_conflicts: Vec<u64> = r.workers.iter().map(|w| w.stats.conflicts).collect();
            let critical_path = worker_conflicts
                .iter()
                .copied()
                .max()
                .unwrap_or(r.stats.conflicts);
            let critical_vs_single = single_conflicts as f64 / critical_path as f64;
            eprintln!(
                "{n} tasks, {mode}/{workers}: TRT = {} in {total:.2}s — \
                 critical path {critical_path} conflicts ({critical_vs_single:.2}x \
                 vs single), wall speedup {:.2}x measured",
                r.cost,
                single_time / total,
            );
            for report in &r.workers {
                eprintln!("  {report}");
            }
            rows.push(WindowRow {
                instance: w.name.clone(),
                tasks: n,
                mode,
                workers,
                host_cores: optalloc_bench::host_cores(),
                cost: r.cost,
                time_s: total,
                solve_calls: r.solve_calls,
                conflicts: r.stats.conflicts,
                worker_conflicts,
                worker_windows: r.workers.iter().map(|w| w.windows.len()).collect(),
                critical_path_conflicts: critical_path,
                critical_path_vs_single: critical_vs_single,
                speedup_vs_single: single_time / total,
            });
        }
    }

    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    println!("{json}");
    if let Some(path) = &cli.json {
        std::fs::write(path, &json).expect("write json");
        eprintln!("(rows written to {})", path.display());
    }
}
