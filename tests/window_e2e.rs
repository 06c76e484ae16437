//! End-to-end window-search strategy tests: disjoint-window workers must
//! agree with the single search on the optimal cost, every winner must
//! pass the independent analysis re-validation, the search must be
//! bit-stable (same optimum, same per-worker window assignment, same
//! solver counters) across repeated runs and all worker counts, one worker
//! must run exactly the single search, and the SA-incumbent warm start must
//! compose with the window scheduler.

use optalloc::{Objective, Optimizer, SolveOptions, Strategy};
use optalloc_heuristics::{anneal, HeuristicObjective, SaParams};
use optalloc_model::MediumId;
use optalloc_workloads::{generate, task_scaling, GenParams};

fn small(seed: u64) -> GenParams {
    GenParams {
        name: format!("win-{seed}"),
        n_tasks: 9,
        n_chains: 3,
        n_ecus: 3,
        seed,
        utilization: 0.35,
        restricted_fraction: 0.2,
        redundant_pairs: 1,
        token_ring: true,
        deadline_slack: 1.5,
    }
}

fn options(strategy: Strategy) -> SolveOptions {
    SolveOptions {
        max_slot: 16,
        strategy,
        ..Default::default()
    }
}

#[test]
fn window_search_agrees_with_single_and_revalidates() {
    let ring = MediumId(0);
    for seed in [1u64, 2, 3] {
        let w = generate(&small(seed));
        let single = Optimizer::new(&w.arch, &w.tasks)
            .with_options(options(Strategy::Single))
            .minimize(&Objective::TokenRotationTime(ring))
            .unwrap_or_else(|e| panic!("seed {seed} single: {e}"));

        let windowed = Optimizer::new(&w.arch, &w.tasks)
            .with_options(options(Strategy::WindowSearch {
                workers: 4,
                deterministic: true,
            }))
            .minimize(&Objective::TokenRotationTime(ring))
            .unwrap_or_else(|e| panic!("seed {seed} window: {e}"));

        assert_eq!(
            windowed.cost, single.cost,
            "seed {seed}: window search disagrees with single"
        );
        assert!(windowed.solution.report.is_feasible(), "seed {seed}");
        assert_eq!(windowed.workers.len(), 4);
        assert_eq!(
            windowed.workers.iter().filter(|w| w.winner).count(),
            1,
            "seed {seed}: expected exactly one winner"
        );
        // Window-search reports record the probed sub-windows.
        let probed: usize = windowed.workers.iter().map(|w| w.windows.len()).sum();
        assert!(probed > 0, "seed {seed}: no worker probed a window");
    }
}

/// One window worker runs the paper's sequential loop: on a Table-3
/// instance it proves the same optimum with the same `SOLVE` calls and the
/// same conflicts as the single search, reported as one winning worker.
#[test]
fn one_worker_window_search_is_the_single_search() {
    let w = task_scaling(9);
    let solve = |strategy| {
        Optimizer::new(&w.arch, &w.tasks)
            .with_options(options(strategy))
            .minimize(&Objective::TokenRotationTime(MediumId(0)))
            .expect("feasible")
    };
    let single = solve(Strategy::Single);
    let window = solve(Strategy::WindowSearch {
        workers: 1,
        deterministic: true,
    });
    assert_eq!(window.cost, single.cost);
    assert_eq!(window.solve_calls, single.solve_calls);
    assert_eq!(window.stats.conflicts, single.stats.conflicts);
    assert_eq!(window.workers.len(), 1);
    assert!(window.workers[0].winner);
}

#[test]
fn deterministic_window_search_is_bit_stable() {
    let ring = MediumId(0);
    let w = generate(&small(7));
    let mut optima = Vec::new();
    for workers in [1usize, 2, 4] {
        let opts = options(Strategy::WindowSearch {
            workers,
            deterministic: true,
        });
        let a = Optimizer::new(&w.arch, &w.tasks)
            .with_options(opts.clone())
            .minimize(&Objective::TokenRotationTime(ring))
            .expect("feasible");
        let b = Optimizer::new(&w.arch, &w.tasks)
            .with_options(opts)
            .minimize(&Objective::TokenRotationTime(ring))
            .expect("feasible");
        // Bit-stable across runs: same optimum, same allocation, same
        // solver counters, and the same window assignment per worker.
        assert_eq!(a.cost, b.cost, "{workers} workers: cost drifted");
        assert_eq!(a.solve_calls, b.solve_calls, "{workers} workers");
        assert_eq!(a.stats.conflicts, b.stats.conflicts, "{workers} workers");
        assert_eq!(
            a.solution.allocation.placement, b.solution.allocation.placement,
            "{workers} workers: window search returned different allocations"
        );
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(
                wa.windows, wb.windows,
                "{workers} workers: worker {} window assignment drifted",
                wa.index
            );
        }
        optima.push(a.cost);
    }
    // Stable across worker counts: the proven optimum is the same value.
    assert!(
        optima.windows(2).all(|p| p[0] == p[1]),
        "optimum varies with worker count: {optima:?}"
    );
}

#[test]
fn sa_warm_start_composes_with_window_search() {
    let ring = MediumId(0);
    let w = generate(&small(4));
    let sa = anneal(
        &w.arch,
        &w.tasks,
        &HeuristicObjective::TokenRotationTime(ring),
        &SaParams {
            restarts: 2,
            iters_per_stage: 150,
            stages: 30,
            max_slot: 16,
            ..Default::default()
        },
    );
    let mut opts = options(Strategy::WindowSearch {
        workers: 4,
        deterministic: true,
    });
    if sa.feasible {
        opts.initial_upper = Some(sa.objective);
    }
    let result = Optimizer::new(&w.arch, &w.tasks)
        .with_options(opts)
        .minimize(&Objective::TokenRotationTime(ring))
        .expect("feasible");
    assert!(result.solution.report.is_feasible());
    if sa.feasible {
        assert!(
            result.cost <= sa.objective,
            "optimum {} worse than SA incumbent {}",
            result.cost,
            sa.objective
        );
    }
}
