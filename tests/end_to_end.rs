//! End-to-end pipeline tests on generated workloads: generate → encode →
//! optimize → decode → independently validate, plus the optimality
//! ordering against the heuristic baselines.

use optalloc::{Objective, OptError, Optimizer, SolveOptions};
use optalloc_analysis::{token_rotation_time, validate, AnalysisConfig};
use optalloc_heuristics::{anneal, HeuristicObjective, SaParams};
use optalloc_model::MediumId;
use optalloc_obs::{Obs, Phase};
use optalloc_workloads::{generate, task_scaling, GenParams};

fn small(seed: u64) -> GenParams {
    GenParams {
        name: format!("e2e-{seed}"),
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

#[test]
fn optimum_beats_planted_and_sa_across_seeds() {
    let ring = MediumId(0);
    for seed in [1u64, 2, 3, 4, 5] {
        let w = generate(&small(seed));
        let result = Optimizer::new(&w.arch, &w.tasks)
            .with_options(SolveOptions {
                max_slot: 16,
                ..Default::default()
            })
            .minimize(&Objective::TokenRotationTime(ring))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // The optimum is feasible and never worse than the planted witness.
        assert!(result.solution.report.is_feasible(), "seed {seed}");
        let planted_trt =
            token_rotation_time(&w.arch, &w.planted, ring).expect("ring has a TRT") as i64;
        assert!(
            result.cost <= planted_trt,
            "seed {seed}: optimal {} > planted {planted_trt}",
            result.cost
        );

        // …and never worse than simulated annealing.
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
        if sa.feasible {
            assert!(
                result.cost <= sa.objective,
                "seed {seed}: optimal {} > SA {}",
                result.cost,
                sa.objective
            );
        }
    }
}

#[test]
fn can_variant_bus_load_optimum_is_feasible_and_bounded() {
    let can = MediumId(0);
    for seed in [11u64, 12] {
        let params = GenParams {
            token_ring: false,
            ..small(seed)
        };
        let w = generate(&params);
        let result = Optimizer::new(&w.arch, &w.tasks)
            .minimize(&Objective::BusLoadPermille(can))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(result.solution.report.is_feasible());
        let planted_load =
            optalloc_analysis::bus_load_permille(&w.arch, &w.tasks, &w.planted, can) as i64;
        assert!(
            result.cost <= planted_load,
            "seed {seed}: optimal {} > planted {planted_load}",
            result.cost
        );
    }
}

#[test]
fn returned_allocation_revalidates_under_fresh_config() {
    // The allocation the optimizer returns must validate with an
    // independently constructed analysis configuration.
    let w = generate(&small(21));
    let opt = Optimizer::new(&w.arch, &w.tasks);
    let sol = opt.find_feasible().expect("planted-feasible");
    let report = validate(
        &w.arch,
        &w.tasks,
        &sol.allocation,
        &AnalysisConfig::default(),
    );
    assert!(report.is_feasible(), "{:?}", report.violations);
    // Response times in the returned report match a recomputation.
    assert_eq!(report.task_response_times, sol.report.task_response_times);
}

#[test]
fn max_utilization_objective_balances() {
    let w = generate(&small(31));
    let result = Optimizer::new(&w.arch, &w.tasks)
        .minimize(&Objective::MaxUtilizationPermille)
        .unwrap();
    let utils = optalloc_analysis::ecu_utilization_permille(
        &w.tasks,
        &result.solution.allocation,
        w.arch.num_ecus(),
    );
    assert_eq!(*utils.iter().max().unwrap() as i64, result.cost);
}

/// Feasibility minimizes a cost fixed at 0: one unbounded `SOLVE(φ)` that
/// reports its encoding, its search counters and a trace like any other
/// objective.
#[test]
fn feasibility_is_one_traced_solve() {
    let w = task_scaling(12);
    let obs = Obs::enabled();
    let report = Optimizer::new(&w.arch, &w.tasks)
        .with_options(SolveOptions {
            obs: obs.clone(),
            ..Default::default()
        })
        .minimize(&Objective::Feasibility)
        .expect("t12 is feasible");
    assert_eq!(report.cost, 0);
    assert_eq!(report.solve_calls, 1);
    assert!(report.stats.propagations > 0);
    assert!(report.encode.bool_vars > 0);
    let search = obs
        .phase_totals()
        .into_iter()
        .find(|t| t.phase == Phase::Search.label())
        .expect("the solve recorded a search span");
    assert_eq!(search.count, 1);
    assert_eq!(report.phases.search_ms, search.total_ms);
}

/// A certified feasibility check carries a certificate with nothing below
/// the optimum to refute, and it verifies.
#[test]
fn certified_feasibility_carries_a_verified_certificate() {
    let w = task_scaling(12);
    let report = Optimizer::new(&w.arch, &w.tasks)
        .with_options(SolveOptions {
            certify: true,
            ..Default::default()
        })
        .minimize(&Objective::Feasibility)
        .expect("t12 is feasible");
    let cert = report.certificate.expect("certify attaches a certificate");
    assert_eq!(cert.certificate.optimum, 0);
    assert_eq!(cert.summary.windows, 0);
    cert.certificate
        .verify()
        .expect("the certificate re-verifies");
}

/// A conflict budget too small for the first `SOLVE(φ)` aborts the
/// feasibility check; it never reads as a proof of infeasibility.
#[test]
fn budgeted_feasibility_never_claims_infeasible() {
    let w = task_scaling(12);
    let solved = Optimizer::new(&w.arch, &w.tasks)
        .with_options(SolveOptions {
            max_conflicts: Some(1),
            ..Default::default()
        })
        .find_feasible();
    match solved {
        Err(OptError::Budget { incumbent: None }) => {}
        Ok(solution) => assert!(solution.report.is_feasible()),
        Err(e) => panic!("budget abort misreported: {e}"),
    }
}
