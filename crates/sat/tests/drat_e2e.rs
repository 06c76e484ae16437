//! End-to-end proof-logging tests: run the solver on known instances with
//! `SolverConfig::proof` enabled and verify the recorded trace with the
//! built-in backward DRAT checker.

use optalloc_sat::{
    check_proof, CheckError, CheckedProof, Claim, Lit, PbOp, PbTerm, ProofLog, ProofStep,
    SolveResult, Solver, SolverConfig, Var,
};

/// Checks that the trace proves unsatisfiability at its end.
fn check_unsat(log: &ProofLog) -> Result<CheckedProof, CheckError> {
    check_proof(
        log,
        &[Claim {
            clause: &[],
            step: log.len(),
        }],
    )
}

/// Claims every derived clause where it was logged, so each must be RUP
/// against the formula before it, as a forward checker would demand.
fn check_every_lemma(log: &ProofLog) -> Result<CheckedProof, CheckError> {
    let claims: Vec<Claim> = log
        .steps()
        .enumerate()
        .filter_map(|(i, step)| match step {
            ProofStep::Add(clause) => Some(Claim { clause, step: i }),
            _ => None,
        })
        .collect();
    check_proof(log, &claims)
}

/// A copy of `log` with step `at` replaced by `replacement`.
fn with_step_replaced(log: &ProofLog, at: usize, replacement: &[Lit]) -> ProofLog {
    let mut out = ProofLog::new();
    for (i, step) in log.steps().enumerate() {
        match step {
            _ if i == at => out.add(replacement),
            ProofStep::InputClause(lits) => out.input_clause(lits),
            ProofStep::InputPb { lits, coefs, bound } => out.input_pb(lits, coefs, bound),
            ProofStep::Add(lits) => out.add(lits),
            ProofStep::Delete(lits) => out.delete(lits),
        }
    }
    out
}

/// Pigeonhole principle: `pigeons` into `holes`; UNSAT when pigeons > holes.
fn pigeonhole(solver: &mut Solver, pigeons: usize, holes: usize) {
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for p in &vars {
        let clause: Vec<_> = p.iter().map(|v| v.positive()).collect();
        solver.add_clause(&clause);
    }
    #[allow(clippy::needless_range_loop)] // h indexes two different rows at once
    for h in 0..holes {
        for a in 0..pigeons {
            for b in a + 1..pigeons {
                solver.add_clause(&[vars[a][h].negative(), vars[b][h].negative()]);
            }
        }
    }
}

#[test]
fn unsat_proof_verifies_with_preprocessing() {
    for preprocess in [false, true] {
        let mut solver = Solver::new();
        solver.config = SolverConfig {
            proof: true,
            preprocess,
            ..SolverConfig::default()
        };
        pigeonhole(&mut solver, 6, 5);
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
        let log = solver.take_proof().expect("proof recorded");
        let checked = check_unsat(&log).expect("core lemmas RUP");
        assert!(checked.adds_verified > 0, "preprocess={preprocess}");
    }
}

#[test]
fn corrupted_core_lemma_is_rejected_at_its_step() {
    // Strengthen each learned clause of a real refutation, latest first,
    // to the unit of its first literal: the first one the refutation
    // depends on must be rejected at its own step index. Strengthenings
    // the final refutation does not use are skipped, never rejected.
    let mut solver = Solver::new();
    solver.config.proof = true;
    pigeonhole(&mut solver, 6, 5);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let log = solver.take_proof().expect("proof recorded");
    let lemmas: Vec<usize> = log
        .steps()
        .enumerate()
        .filter_map(|(i, s)| matches!(s, ProofStep::Add(l) if l.len() >= 2).then_some(i))
        .collect();
    let rejected = lemmas.iter().rev().find_map(|&i| {
        let ProofStep::Add(lits) = log.step(i) else {
            unreachable!()
        };
        match check_unsat(&with_step_replaced(&log, i, &lits[..1])) {
            Err(CheckError::RupFailed { step, .. }) => Some((i, step)),
            Err(e) => panic!("a stronger lemma cannot unprove the claim: {e}"),
            Ok(_) => None,
        }
    });
    let (at, step) = rejected.expect("some strengthened core lemma is rejected");
    assert_eq!(step, at);
}

#[test]
fn proof_survives_clause_db_reduction() {
    let mut solver = Solver::new();
    solver.config = SolverConfig {
        proof: true,
        // Force several reduce_db passes so deletions appear in the trace.
        first_reduce: 50,
        ..SolverConfig::default()
    };
    pigeonhole(&mut solver, 7, 6);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let log = solver.take_proof().expect("proof recorded");
    let checked = check_unsat(&log).expect("core lemmas RUP");
    assert!(
        checked.deletions > 0,
        "reduce_db should have logged deletions"
    );
}

#[test]
fn sat_solve_produces_checkable_trace() {
    // A satisfiable instance: no empty clause, but every learned clause in
    // the trace must still pass its RUP check.
    let mut solver = Solver::new();
    solver.config.proof = true;
    pigeonhole(&mut solver, 5, 5);
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    let log = solver.take_proof().expect("proof recorded");
    check_every_lemma(&log).expect("every learned clause RUP");
    assert!(
        check_unsat(&log).is_err(),
        "a satisfiable trace proves no UNSAT"
    );
}

#[test]
fn guarded_assumption_unsat_yields_window_claim() {
    // Incremental use like the cost prober: the base formula is SAT, a
    // guard assumption turns it UNSAT; the trace must prove ¬guard.
    let mut solver = Solver::new();
    solver.config.proof = true;
    pigeonhole(&mut solver, 5, 5);
    let guard = solver.new_var().positive();
    // guard → pigeon 0 avoids every hole (contradicts "some hole").
    let first_pigeon: Vec<Var> = (0..5).map(Var::from_index).collect();
    for v in &first_pigeon {
        solver.add_clause(&[!guard, v.negative()]);
    }
    assert_eq!(solver.solve(&[guard]), SolveResult::Unsat);
    let anchor = solver.proof().expect("proof recorded").len();
    solver.add_clause(&[!guard]);
    // Solver stays usable without the guard.
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    let log = solver.take_proof().expect("proof recorded");
    let not_guard = [!guard];
    let claim = |step| Claim {
        clause: &not_guard,
        step,
    };
    let checked = check_proof(&log, &[claim(anchor)])
        .expect("the failed-assumption clause certifies the probe");
    assert!(checked.adds_verified >= 1);
    assert!(check_unsat(&log).is_err(), "base formula is SAT");
    // Anchored before the guard's clauses were added, the same claim has
    // nothing to rest on.
    let guarded = log
        .steps()
        .position(|s| matches!(s, ProofStep::InputClause(l) if l.contains(&!guard)))
        .expect("guard clauses logged");
    assert!(matches!(
        check_proof(&log, &[claim(guarded)]),
        Err(CheckError::ClaimUnproved { claim: 0 })
    ));
}

#[test]
fn pb_constraints_enter_the_trace() {
    // Σ xᵢ ≥ 3 over 4 vars plus Σ xᵢ ≤ 1 is UNSAT through PB reasoning.
    let mut solver = Solver::new();
    solver.config.proof = true;
    let vars: Vec<Var> = (0..4).map(|_| solver.new_var()).collect();
    let terms: Vec<PbTerm> = vars.iter().map(|v| PbTerm::new(v.positive(), 1)).collect();
    solver.add_pb(&terms, PbOp::Ge, 3);
    solver.add_pb(&terms, PbOp::Le, 1);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let log = solver.take_proof().expect("proof recorded");
    let checked = check_unsat(&log).expect("PB-aware RUP");
    assert!(checked.inputs >= 2);
}

#[test]
fn strengthening_chain_keeps_trace_checkable() {
    // Regression: a subsumer can itself be strengthened and then subsumed
    // by the very clause it strengthened. With write-back-time logging the
    // dead parent was deleted (arena order) before the Add that resolves
    // against it, so the Add failed RUP. Strengthened copies must be
    // logged the moment they are derived, while both parents are present.
    //
    //   d = ¬a ∨ c ∨ ¬e          (dies: subsumed by the final copy of y)
    //   y = a ∨ c ∨ f ∨ ¬e       (→ a ∨ c ∨ ¬e via s, → c ∨ ¬e via d)
    //   s = c ∨ ¬f               (strengthens y first)
    let mut solver = Solver::new();
    solver.config = SolverConfig {
        proof: true,
        preprocess: true,
        ..SolverConfig::default()
    };
    let a = solver.new_var().positive();
    let c = solver.new_var().positive();
    let e = solver.new_var().positive();
    let f = solver.new_var().positive();
    solver.add_clause(&[!a, c, !e]);
    solver.add_clause(&[a, c, f, !e]);
    solver.add_clause(&[c, !f]);
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    assert!(
        solver.stats.pp_strengthened >= 2,
        "the self-subsuming resolution chain should fire twice"
    );
    let log = solver.take_proof().expect("proof recorded");
    // Each strengthened copy, claimed where it was logged, is RUP there.
    let checked = check_every_lemma(&log).expect("strengthened copies logged at derivation time");
    assert!(checked.adds_verified + checked.adds_skipped >= 2);
    assert!(checked.deletions >= 1);
}

#[test]
fn proof_disabled_records_nothing() {
    let mut solver = Solver::new();
    pigeonhole(&mut solver, 6, 5);
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    assert!(solver.proof().is_none());
    assert!(solver.take_proof().is_none());
}
