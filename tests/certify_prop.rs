//! Differential certification harness: on random small instances the
//! certified optimizer must (a) produce a certificate that the checker
//! accepts, (b) never be beaten by a feasible heuristic allocation (greedy
//! or simulated annealing — an *upper*-bound oracle for the true optimum),
//! and (c) emit a witness that survives an independent replay through the
//! numeric analysis with the objective recomputed away from the encoder.
//!
//! The heuristics share no code with the SAT pipeline below the model
//! layer, so agreement here cross-checks the encoder, the solver, the
//! proof checker and the analysis against each other.
//!
//! Reproducibility knobs (CI pins all of these — see docs/TESTING.md):
//! `PROPTEST_RNG_SEED` fixes the case-generation RNG, `PROPTEST_CASES`
//! scales the number of cases, and `PROPTEST_REGRESSIONS_DIR` persists
//! shrunk counterexamples under `tests/regressions/`.

use optalloc::{Objective, Optimizer, SolveOptions, Strategy};
use optalloc_analysis::validate;
use optalloc_heuristics::{anneal, greedy, objective_value, HeuristicObjective, SaParams};
use optalloc_model::MediumId;
use optalloc_sat::ProofStep;
use optalloc_workloads::{generate, GenParams};
use proptest::prelude::*;

fn tiny(seed: u64, n_tasks: usize, token_ring: bool) -> GenParams {
    GenParams {
        name: format!("certify-{seed}"),
        n_tasks,
        n_chains: 2,
        n_ecus: 3,
        seed,
        utilization: 0.3,
        restricted_fraction: 0.2,
        redundant_pairs: 1,
        token_ring,
        deadline_slack: 1.5,
    }
}

fn certified_options(strategy: Strategy) -> SolveOptions {
    SolveOptions {
        max_slot: 16,
        certify: true,
        strategy,
        ..Default::default()
    }
}

fn quick_sa() -> SaParams {
    SaParams {
        restarts: 2,
        iters_per_stage: 120,
        stages: 25,
        max_slot: 16,
        ..SaParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Certified optimum ≤ every feasible heuristic cost, and the witness
    /// replays cleanly through the analysis without the encoder.
    #[test]
    fn heuristics_never_beat_the_certified_optimum(
        seed in 0u64..1000,
        n_tasks in 6usize..=8,
    ) {
        let w = generate(&tiny(seed, n_tasks, false));
        let objective = Objective::MaxUtilizationPermille;
        let h_objective = HeuristicObjective::MaxUtilizationPermille;

        let optimizer = Optimizer::new(&w.arch, &w.tasks)
            .with_options(certified_options(Strategy::Single));
        let r = optimizer
            .minimize(&objective)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // (a) A certificate was produced; re-check it here rather than
        // trusting the optimizer's internal verification.
        let cert = r.certificate.as_ref().expect("certify=true yields a certificate");
        let summary = cert.certificate.verify()
            .unwrap_or_else(|e| panic!("seed {seed}: certificate rejected: {e}"));
        prop_assert_eq!(cert.certificate.optimum, r.cost);
        prop_assert!(summary.proofs >= 1);

        // (b) Upper-bound oracles: any *feasible* heuristic allocation
        // costs at least the certified optimum.
        let g = greedy(&w.arch, &w.tasks, &h_objective);
        if g.feasible {
            prop_assert!(
                g.objective >= r.cost,
                "greedy {} beat certified optimum {}", g.objective, r.cost
            );
        }
        let sa = anneal(&w.arch, &w.tasks, &h_objective, &quick_sa());
        if sa.feasible {
            prop_assert!(
                sa.objective >= r.cost,
                "annealing {} beat certified optimum {}", sa.objective, r.cost
            );
        }

        // (c) Independent witness replay: the decoded allocation passes
        // the numeric schedulability analysis and its objective value,
        // recomputed through the analysis crate, equals the proven cost.
        let report = validate(
            &w.arch,
            &w.tasks,
            &r.solution.allocation,
            &optimizer.analysis_config(),
        );
        prop_assert!(
            report.is_feasible(),
            "witness fails analysis replay: {:?}", report.violations
        );
        let replayed = objective_value(&w.arch, &w.tasks, &r.solution.allocation, &h_objective);
        prop_assert_eq!(replayed, r.cost, "replayed objective diverges from proven optimum");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The backward checker checks only the lemmas the window claims rest
    /// on: every certificate verifies, its step count is the traces' total
    /// length, and no more lemmas are verified than the traces derive.
    #[test]
    fn certificates_verify_checking_at_most_the_derived_lemmas(
        seed in 0u64..1000,
        n_tasks in 6usize..=8,
        window_search in any::<bool>(),
    ) {
        let w = generate(&tiny(seed, n_tasks, true));
        let strategy = if window_search {
            Strategy::WindowSearch { workers: 2, deterministic: true }
        } else {
            Strategy::Single
        };
        let r = Optimizer::new(&w.arch, &w.tasks)
            .with_options(certified_options(strategy))
            .minimize(&Objective::TokenRotationTime(MediumId(0)))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let cert = &r.certificate.as_ref().expect("certify=true yields a certificate").certificate;
        let summary = cert
            .verify()
            .unwrap_or_else(|e| panic!("seed {seed}: certificate rejected: {e}"));
        let steps: usize = cert.proofs.iter().map(|p| p.log.len()).sum();
        let adds: usize = cert
            .proofs
            .iter()
            .flat_map(|p| p.log.steps())
            .filter(|s| matches!(s, ProofStep::Add(_)))
            .count();
        prop_assert_eq!(summary.steps, steps);
        prop_assert!(
            summary.adds_verified <= adds,
            "seed {}: {} lemmas verified, {} derived", seed, summary.adds_verified, adds
        );
    }
}

/// Fixed-seed token-ring instances: both strategies produce accepted
/// certificates over the *same* optimum, including the slot-variable
/// (TRT) objective that exercises guarded window claims hardest.
#[test]
fn all_strategies_certify_the_same_trt_optimum() {
    let ring = MediumId(0);
    for seed in [7u64, 19] {
        let w = generate(&tiny(seed, 7, true));
        let strategies = [
            Strategy::Single,
            Strategy::WindowSearch {
                workers: 2,
                deterministic: true,
            },
        ];
        let mut costs = Vec::new();
        for strategy in strategies {
            let label = format!("{strategy:?}");
            let r = Optimizer::new(&w.arch, &w.tasks)
                .with_options(certified_options(strategy))
                .minimize(&Objective::TokenRotationTime(ring))
                .unwrap_or_else(|e| panic!("seed {seed} {label}: {e}"));
            let cert = r.certificate.as_ref().expect("certificate present");
            cert.certificate
                .verify()
                .unwrap_or_else(|e| panic!("seed {seed} {label}: rejected: {e}"));
            assert_eq!(cert.certificate.optimum, r.cost, "seed {seed} {label}");
            costs.push(r.cost);
        }
        assert!(
            costs.windows(2).all(|c| c[0] == c[1]),
            "seed {seed}: strategies disagree under certification: {costs:?}"
        );
    }
}

/// Certification must not change the proven optimum: certify on/off agree
/// on random instances (the proof log is observation, not search).
#[test]
fn certification_is_cost_neutral() {
    for seed in [101u64, 202, 303] {
        let w = generate(&tiny(seed, 7, false));
        let objective = Objective::UtilizationSpreadPermille;
        let plain = Optimizer::new(&w.arch, &w.tasks)
            .minimize(&objective)
            .unwrap_or_else(|e| panic!("seed {seed} plain: {e}"));
        assert!(
            plain.certificate.is_none(),
            "uncertified run carries no certificate"
        );
        let certified = Optimizer::new(&w.arch, &w.tasks)
            .with_options(certified_options(Strategy::Single))
            .minimize(&objective)
            .unwrap_or_else(|e| panic!("seed {seed} certified: {e}"));
        assert_eq!(
            plain.cost, certified.cost,
            "seed {seed}: certification changed the optimum"
        );
        certified
            .certificate
            .expect("certificate present")
            .certificate
            .verify()
            .unwrap_or_else(|e| panic!("seed {seed}: rejected: {e}"));
    }
}
