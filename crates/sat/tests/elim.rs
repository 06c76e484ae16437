//! Differential validation of bounded variable elimination: on random
//! instances the solver with elimination on must give the same verdict as
//! with it off, every returned model — reconstructed through the
//! elimination stack — must satisfy the *original* formula, and under
//! proof logging the trace must still verify. Plus the freeze/melt
//! regression contract: frozen and assumed variables are never eliminated,
//! and referencing an eliminated variable transparently restores it.

use optalloc_sat::{check_proof, Claim, PbOp, PbTerm, ProofStep, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A PB constraint in plain data form: terms of (signed var, coef), the
/// operator and the bound.
type PbData = (Vec<(i32, i64)>, PbOp, i64);

/// A random problem over `n_vars` variables in plain data form, consumed
/// by both the solver and the brute-force oracle.
#[derive(Debug, Clone)]
struct Problem {
    n_vars: usize,
    /// Clauses as signed var indices (1-based, negative = negated).
    clauses: Vec<Vec<i32>>,
    /// PB constraints.
    pbs: Vec<PbData>,
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

/// A seeded structured formula: a chain of Tseitin gates (AND, OR, XOR) over
/// random earlier signals, plus random 3-clauses over all signals. Gate
/// variables resolve away cheaply once their neighbours are gone, while the
/// signals the random clauses hit abort on the growth cutoff and are
/// retried in later sweeps.
fn structured_instance(seed: u64, inputs: usize, gates: usize, randoms: usize) -> Solver {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |n: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut s = Solver::new();
    // One conflict at most: the pinned counts are the pass's, not the search's.
    s.config.max_conflicts = Some(1);
    let mut sig: Vec<Var> = (0..inputs).map(|_| s.new_var()).collect();
    for _ in 0..gates {
        let a = sig[next(sig.len())].lit(next(2) == 0);
        let b = sig[next(sig.len())].lit(next(2) == 0);
        if a.var() == b.var() {
            continue;
        }
        let g = s.new_var();
        let (gp, gn) = (g.positive(), g.negative());
        match next(3) {
            0 => {
                s.add_clause(&[gn, a]);
                s.add_clause(&[gn, b]);
                s.add_clause(&[gp, !a, !b]);
            }
            1 => {
                s.add_clause(&[gp, !a]);
                s.add_clause(&[gp, !b]);
                s.add_clause(&[gn, a, b]);
            }
            _ => {
                s.add_clause(&[gn, a, b]);
                s.add_clause(&[gn, !a, !b]);
                s.add_clause(&[gp, !a, b]);
                s.add_clause(&[gp, a, !b]);
            }
        }
        sig.push(g);
    }
    for _ in 0..randoms {
        let c: Vec<_> = (0..3)
            .map(|_| sig[next(sig.len())].lit(next(2) == 0))
            .collect();
        s.add_clause(&c);
    }
    s
}

/// The simplification pass's output on fixed formulas is pinned: the
/// elimination schedule may skip work, but it must eliminate the same
/// variables in the same order, so every preprocessing counter and the
/// proof length stay exactly equal. Each formula takes three or more
/// elimination sweeps, and in each some variables abort on the growth
/// cutoff and are retried.
#[test]
fn elimination_result_is_pinned() {
    // (seed, inputs, gates, random clauses) →
    // [elim_vars, elim_clauses, elim_resolvents, pp_removed, pp_strengthened, pp_fixed],
    // and the number of steps logged under `proof` (the pass, then a search
    // of at most one conflict).
    let cases = [
        ((1, 40, 160, 60), [125, 582, 291, 14, 10, 1], 338),
        ((2, 60, 240, 120), [147, 703, 389, 9, 8, 0], 414),
        ((3, 30, 300, 40), [226, 983, 378, 10, 11, 0], 408),
        ((4, 80, 200, 200), [97, 492, 325, 6, 4, 0], 339),
    ];
    for ((seed, inputs, gates, randoms), expected, proof_steps) in cases {
        for proof in [false, true] {
            let mut s = structured_instance(seed, inputs, gates, randoms);
            s.config.proof = proof;
            s.solve(&[]);
            let st = &s.stats;
            let got = [
                st.elim_vars,
                st.elim_clauses,
                st.elim_resolvents,
                st.pp_removed,
                st.pp_strengthened,
                st.pp_fixed,
            ];
            assert_eq!(got, expected, "seed {seed}, proof {proof}");
            if proof {
                let steps = s.take_proof().map_or(0, |log| log.len());
                assert_eq!(steps, proof_steps, "seed {seed}: proof steps");
            }
        }
    }
}

/// The invalidation rule of the elimination schedule: `v` aborts on the
/// growth cutoff (3 × 2 resolvents for 5 clauses) in the first sweep;
/// eliminating `w` then yields `a ∨ b`, which subsumes `v ∨ a ∨ b`, and in
/// the second sweep `v` distributes into 2 × 2 resolvents for 4 clauses.
/// A schedule that remembered `v`'s abort past that subsumption would
/// never retry it.
#[test]
fn a_subsumption_reopens_an_aborted_candidate() {
    let mut s = Solver::new();
    let [v, w, a, b, c1, c2, d1, d2] = [(); 8].map(|_| s.new_var());
    for x in [a, b, c1, c2, d1, d2] {
        s.freeze_var(x);
    }
    s.add_clause(&[w.positive(), a.positive()]);
    s.add_clause(&[w.negative(), b.positive()]);
    s.add_clause(&[v.positive(), a.positive(), b.positive()]);
    s.add_clause(&[v.positive(), c1.positive()]);
    s.add_clause(&[v.positive(), c2.positive()]);
    s.add_clause(&[v.negative(), d1.positive()]);
    s.add_clause(&[v.negative(), d2.positive()]);
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.is_eliminated(w));
    assert!(
        s.is_eliminated(v),
        "v must be retried after the subsumption"
    );
    assert_eq!(s.stats.elim_vars, 2);
    assert_eq!(s.stats.pp_removed, 1);
    assert_eq!(s.stats.elim_resolvents, 1 + 4);
}

/// The same rule for self-subsuming resolution: `v`'s only resolvent has 33
/// literals and aborts the first sweep; eliminating `w` then yields
/// `x₁ ∨ ¬x₃₂`, which strengthens `v`'s long clause by `x₃₂`, and in the
/// second sweep the resolvent fits.
#[test]
fn a_strengthening_reopens_an_aborted_candidate() {
    let mut s = Solver::new();
    let v = s.new_var();
    let w = s.new_var();
    let y = s.new_var();
    let xs: Vec<Var> = (0..32).map(|_| s.new_var()).collect();
    for &x in xs.iter().chain([&y]) {
        s.freeze_var(x);
    }
    let mut long = vec![v.positive()];
    long.extend(xs.iter().map(|x| x.positive()));
    s.add_clause(&long);
    s.add_clause(&[v.negative(), y.positive()]);
    s.add_clause(&[w.positive(), xs[0].positive()]);
    s.add_clause(&[w.negative(), xs[31].negative()]);
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.is_eliminated(w));
    assert!(
        s.is_eliminated(v),
        "v must be retried after the strengthening"
    );
    assert_eq!(s.stats.elim_vars, 2);
    assert_eq!(s.stats.pp_strengthened, 1);
}

/// FNV-1a over a stream of integers: a stable fingerprint for the pins
/// below (the std hasher may change between releases).
fn fnv1a(values: impl IntoIterator<Item = i64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The pass's output is pinned down to clause order and watch order: the
/// clause sequence left behind (hashed through `export_formula`) and the
/// counts of conflict-bounded searches that follow the pass. Watch order
/// decides which clause propagates first, so a rewrite that kept the same
/// clauses but attached them in another order would change the search.
/// A second round of random clauses over all variables melts eliminated
/// ones and triggers an inprocessing pass. Under `proof` the DRAT text of
/// the whole trace is pinned too.
#[test]
fn pass_output_and_watch_order_are_pinned() {
    // (seed, inputs, gates, random clauses) → [conflicts, propagations,
    // decisions, elim_restored], formula hash, DRAT hash. The first four
    // formulas are those of `elimination_result_is_pinned`; the rest take
    // hundreds to thousands of conflicts, so learned-clause reduction runs.
    let cases = [
        (
            (1, 40, 160, 60),
            [7, 485, 38, 102],
            0x211f_8289_68d2_7234,
            0xc525_9164_abc7_1923,
        ),
        (
            (2, 60, 240, 120),
            [30, 1888, 79, 100],
            0x4199_c150_7724_2fd3,
            0x1b04_2bc5_dc7a_1123,
        ),
        (
            (3, 30, 300, 40),
            [192, 11523, 246, 156],
            0x0b56_3835_333c_aeec,
            0xb2a3_4940_e001_f6a8,
        ),
        (
            (4, 80, 200, 200),
            [84, 5168, 141, 70],
            0xd559_e8e1_8f8d_53a5,
            0xef7d_4ac1_a33b_ed01,
        ),
        (
            (10, 150, 100, 600),
            [519, 30901, 642, 0],
            0x3255_b532_939a_1e07,
            0x38aa_6025_167d_65a7,
        ),
        (
            (11, 200, 100, 820),
            [1519, 101780, 1776, 0],
            0x9f03_b169_825d_0699,
            0x2d71_2346_0648_8dc2,
        ),
        (
            (15, 300, 100, 1250),
            [4000, 306864, 4978, 12],
            0x61aa_7a3c_9e5d_754a,
            0xfdb8_3cd1_a2aa_66d0,
        ),
        (
            (16, 120, 300, 700),
            [1101, 93247, 1351, 0],
            0x97d6_7c7c_3ef0_0d88,
            0x47be_e3dd_2afa_6e8d,
        ),
    ];
    for ((seed, inputs, gates, randoms), expected, formula_hash, drat_hash) in cases {
        for proof in [false, true] {
            let mut s = structured_instance(seed, inputs, gates, randoms);
            s.config.max_conflicts = Some(2_000);
            s.config.proof = proof;
            s.solve(&[]);
            let mut state = seed | 1;
            let mut next = |n: usize| -> usize {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let n = s.num_vars();
            for _ in 0..80 {
                let c: Vec<_> = (0..3)
                    .map(|_| Var::from_index(next(n)).lit(next(2) == 0))
                    .collect();
                s.add_clause(&c);
            }
            s.solve(&[]);
            let st = &s.stats;
            let got = [
                st.conflicts,
                st.propagations,
                st.decisions,
                st.elim_restored,
            ];
            let f = s.export_formula();
            let hash = fnv1a(f.clauses.iter().flat_map(|c| c.iter().copied().chain([0])));
            assert_eq!(got, expected, "seed {seed}, proof {proof}: search counts");
            assert_eq!(hash, formula_hash, "seed {seed}, proof {proof}: formula");
            if proof {
                let mut drat = Vec::new();
                s.take_proof().unwrap().write_drat(&mut drat).unwrap();
                let dh = fnv1a(drat.iter().map(|&b| i64::from(b)));
                assert_eq!(dh, drat_hash, "seed {seed}: DRAT trace");
            }
        }
    }
}
