//! Differential validation of bounded variable elimination: on random
//! instances the solver with elimination on must give the same verdict as
//! with it off, every returned model — reconstructed through the
//! elimination stack — must satisfy the *original* formula, and under
//! proof logging the trace must still verify. Plus the freeze/melt
//! regression contract: frozen and assumed variables are never eliminated,
//! and referencing an eliminated variable transparently restores it.

use optalloc_sat::{check_proof, Claim, PbOp, PbTerm, ProofStep, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A random problem over `n_vars` variables in plain data form, consumed
/// by both the solver and the brute-force oracle.
#[derive(Debug, Clone)]
struct Problem {
    n_vars: usize,
    /// Clauses as signed var indices (1-based, negative = negated).
    clauses: Vec<Vec<i32>>,
    /// PB constraints: (terms of (signed var, coef), op, bound).
    pbs: Vec<(Vec<(i32, i64)>, PbOp, i64)>,
}

fn lit_of(vars: &[Var], signed: i32) -> optalloc_sat::Lit {
    let v = vars[signed.unsigned_abs() as usize - 1];
    v.lit(signed > 0)
}

/// Evaluates the problem under the assignment given by bitmask `m`.
fn eval(p: &Problem, m: u32) -> bool {
    let val = |signed: i32| -> bool {
        let bit = m >> (signed.unsigned_abs() - 1) & 1 == 1;
        if signed > 0 {
            bit
        } else {
            !bit
        }
    };
    for c in &p.clauses {
        if !c.iter().any(|&l| val(l)) {
            return false;
        }
    }
    for (terms, op, bound) in &p.pbs {
        let sum: i64 = terms.iter().map(|&(l, a)| if val(l) { a } else { 0 }).sum();
        let ok = match op {
            PbOp::Ge => sum >= *bound,
            PbOp::Le => sum <= *bound,
            PbOp::Eq => sum == *bound,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Brute-force satisfiability under assumptions (signed var indices).
fn brute_force(p: &Problem, assumptions: &[i32]) -> bool {
    (0u32..1 << p.n_vars).any(|m| {
        assumptions.iter().all(|&a| {
            let bit = m >> (a.unsigned_abs() - 1) & 1 == 1;
            if a > 0 {
                bit
            } else {
                !bit
            }
        }) && eval(p, m)
    })
}

fn build_solver(p: &Problem, elim: bool, proof: bool) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    s.config.elim = elim;
    s.config.proof = proof;
    let vars: Vec<Var> = (0..p.n_vars).map(|_| s.new_var()).collect();
    add_problem(&mut s, &vars, p);
    (s, vars)
}

fn add_problem(s: &mut Solver, vars: &[Var], p: &Problem) {
    for c in &p.clauses {
        let lits: Vec<_> = c.iter().map(|&l| lit_of(vars, l)).collect();
        if !s.add_clause(&lits) {
            return;
        }
    }
    for (terms, op, bound) in &p.pbs {
        let ts: Vec<PbTerm> = terms
            .iter()
            .map(|&(l, a)| PbTerm::new(lit_of(vars, l), a))
            .collect();
        if !s.add_pb(&ts, *op, *bound) {
            return;
        }
    }
}

/// The solver's model read back over *all original* variables.
fn model_mask(s: &Solver, vars: &[Var]) -> u32 {
    let mut mask = 0u32;
    for (i, v) in vars.iter().enumerate() {
        if s.model_value(v.positive()) {
            mask |= 1 << i;
        }
    }
    mask
}

fn signed_var(n_vars: usize) -> impl Strategy<Value = i32> {
    (1..=n_vars as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn arb_problem() -> impl Strategy<Value = Problem> {
    (4usize..=9).prop_flat_map(|n_vars| {
        let clause = proptest::collection::vec(signed_var(n_vars), 1..=4);
        let clauses = proptest::collection::vec(clause, 0..14);
        let term = (signed_var(n_vars), -4i64..=4);
        let pb = (
            proptest::collection::vec(term, 1..=4),
            prop_oneof![Just(PbOp::Ge), Just(PbOp::Le), Just(PbOp::Eq)],
            -6i64..=6,
        );
        let pbs = proptest::collection::vec(pb, 0..3);
        (Just(n_vars), clauses, pbs).prop_map(|(n_vars, clauses, pbs)| Problem {
            n_vars,
            clauses,
            pbs,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Elimination on/off and proof on/off all agree with brute force, and
    /// every Sat model — extended through the reconstruction stack — is
    /// checked against the original clause set, not the simplified one.
    #[test]
    fn reconstructed_models_satisfy_the_original_formula(p in arb_problem()) {
        let expected = brute_force(&p, &[]);
        for (elim, proof) in [(false, false), (true, false), (true, true)] {
            let (mut s, vars) = build_solver(&p, elim, proof);
            let verdict = s.solve(&[]);
            prop_assert_eq!(
                verdict,
                if expected { SolveResult::Sat } else { SolveResult::Unsat },
                "elim={} proof={}", elim, proof
            );
            if verdict == SolveResult::Sat {
                prop_assert!(
                    eval(&p, model_mask(&s, &vars)),
                    "elim={} proof={}: reconstructed model violates the original formula",
                    elim, proof
                );
            }
            if proof {
                // The trace is allocated lazily: a formula whose every
                // constraint folds away (empty, or trivially-true PBs)
                // logs nothing and legitimately has no proof to take.
                // Every resolvent and learned clause is claimed where it was
                // logged, and an Unsat verdict at the end of the trace.
                if let Some(log) = s.take_proof() {
                    let mut claims: Vec<Claim> = log
                        .steps()
                        .enumerate()
                        .filter_map(|(i, step)| match step {
                            ProofStep::Add(clause) => Some(Claim { clause, step: i }),
                            _ => None,
                        })
                        .collect();
                    if verdict == SolveResult::Unsat {
                        claims.push(Claim { clause: &[], step: log.len() });
                    }
                    check_proof(&log, &claims)
                        .unwrap_or_else(|e| panic!("elim trace rejected: {e}"));
                }
            }
        }
    }

    /// Incremental sessions: after the first solve, enough duplicate input
    /// clauses arrive to trigger the bounded inprocessing re-run, then a
    /// second batch of *new* constraints and an assumption-driven re-solve.
    /// Verdicts and models must still track brute force over the combined
    /// formula — including variables eliminated in round one and referenced
    /// again (hence restored) in round two.
    #[test]
    fn incremental_inprocessing_stays_sound(
        p in arb_problem(),
        extra in proptest::collection::vec(
            proptest::collection::vec((1i32..=9, any::<bool>()), 1..=3), 1..4),
        assume_raw in (1i32..=9, any::<bool>()),
    ) {
        let (mut s, vars) = build_solver(&p, true, false);
        let first = s.solve(&[]);
        prop_assert_eq!(
            first == SolveResult::Sat,
            brute_force(&p, &[]),
            "first solve diverged"
        );

        // Re-adding the original clauses changes nothing logically but
        // counts as new input, pushing the session over the inprocessing
        // threshold (64 new clauses).
        let mut combined = p.clone();
        for _ in 0..(64 / p.clauses.len().max(1) + 1) {
            for c in &p.clauses {
                let lits: Vec<_> = c.iter().map(|&l| lit_of(&vars, l)).collect();
                s.add_clause(&lits);
                combined.clauses.push(c.clone());
            }
        }
        // Genuinely new clauses, possibly over eliminated variables.
        for c in &extra {
            let signed: Vec<i32> = c
                .iter()
                .map(|&(v, pos)| {
                    let v = (v - 1) % p.n_vars as i32 + 1;
                    if pos { v } else { -v }
                })
                .collect();
            let lits: Vec<_> = signed.iter().map(|&l| lit_of(&vars, l)).collect();
            s.add_clause(&lits);
            combined.clauses.push(signed);
        }
        let assume = {
            let v = (assume_raw.0 - 1) % p.n_vars as i32 + 1;
            if assume_raw.1 { v } else { -v }
        };
        let verdict = s.solve(&[lit_of(&vars, assume)]);
        let expected = brute_force(&combined, &[assume]);
        prop_assert_eq!(
            verdict,
            if expected { SolveResult::Sat } else { SolveResult::Unsat },
            "incremental verdict diverged"
        );
        if verdict == SolveResult::Sat {
            let m = model_mask(&s, &vars);
            prop_assert!(eval(&combined, m), "incremental model violates the formula");
            prop_assert!(
                eval(&p, m),
                "incremental model violates the original round-one formula"
            );
        }
    }
}

/// A Tseitin AND gate `x ↔ a ∧ b` plus `a ∨ b`: the gate variable `x`
/// resolves away with zero resolvents (both products are tautologies), so
/// it is the canonical elimination candidate.
fn gate_instance() -> (Solver, Var, Var, Var) {
    let mut s = Solver::new();
    let x = s.new_var();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[x.negative(), a.positive()]);
    s.add_clause(&[x.negative(), b.positive()]);
    s.add_clause(&[x.positive(), a.negative(), b.negative()]);
    s.add_clause(&[a.positive(), b.positive()]);
    (s, x, a, b)
}

#[test]
fn gate_variables_are_eliminated_by_default() {
    let (mut s, x, a, b) = gate_instance();
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.is_eliminated(x), "zero-resolvent gate var must eliminate");
    assert!(s.stats.elim_vars >= 1);
    // The model is still extended over x and respects x ↔ a ∧ b.
    let (xv, av, bv) = (
        s.model_value(x.positive()),
        s.model_value(a.positive()),
        s.model_value(b.positive()),
    );
    assert_eq!(xv, av && bv, "reconstructed gate value inconsistent");
}

#[test]
fn frozen_variables_are_never_eliminated() {
    let (mut s, x, _, _) = gate_instance();
    s.freeze_var(x);
    assert!(s.is_frozen(x));
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(!s.is_eliminated(x), "frozen var was eliminated");
    // Melt and the flag clears; the already-run pass is not redone, so the
    // variable stays resident until the next inprocessing round.
    s.melt_var(x);
    assert!(!s.is_frozen(x));
    assert!(!s.is_eliminated(x));
}

#[test]
fn assumption_variables_survive_the_pass() {
    let (mut s, x, a, _) = gate_instance();
    // Assuming x during the first (preprocessing) solve must keep it out
    // of elimination for that pass — it is needed to answer the query.
    assert_eq!(s.solve(&[x.positive()]), SolveResult::Sat);
    assert!(!s.is_eliminated(x), "assumed var was eliminated");
    assert!(s.model_value(x.positive()));
    assert!(s.model_value(a.positive()), "x forces a");
}

#[test]
fn referencing_an_eliminated_var_restores_it() {
    let (mut s, x, a, b) = gate_instance();
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.is_eliminated(x));
    // A new input clause over x melts it back in…
    assert!(s.add_clause(&[x.positive()]));
    assert!(!s.is_eliminated(x), "restore-on-reuse did not trigger");
    assert!(s.stats.elim_restored >= 1);
    // …and the strengthened instance forces x, hence a and b.
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.model_value(x.positive()));
    assert!(s.model_value(a.positive()));
    assert!(s.model_value(b.positive()));
}

#[test]
fn eliminated_assumptions_are_restored_at_solve_entry() {
    let (mut s, x, _, b) = gate_instance();
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.is_eliminated(x));
    // Solving under ¬b with x assumed: x must be restored first, because
    // F′ ∧ x and F ∧ x are not equisatisfiable when x was distributed out.
    assert_eq!(
        s.solve(&[x.positive(), b.negative()]),
        SolveResult::Unsat,
        "x forces b; assuming ¬b must refute"
    );
    assert!(!s.is_eliminated(x));
}
