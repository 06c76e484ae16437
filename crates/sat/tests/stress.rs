//! Stress tests exercising the solver's housekeeping machinery: clause
//! database reduction, arena garbage collection, restarts, and long
//! incremental sessions.

use optalloc_sat::{PbOp, PbTerm, SolveResult, Solver, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_3sat(s: &mut Solver, n_vars: usize, ratio: f64, seed: u64) -> Vec<Var> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
    let n_clauses = (n_vars as f64 * ratio) as usize;
    for _ in 0..n_clauses {
        let mut lits = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = vars[rng.gen_range(0..n_vars)];
            lits.push(v.lit(rng.gen_bool(0.5)));
        }
        s.add_clause(&lits);
    }
    vars
}

#[test]
fn db_reduction_and_gc_preserve_soundness() {
    // A tiny learned-clause cap forces many reduction passes and arena
    // collections during one solve; the verdict must stay correct and the
    // model valid.
    let mut s = Solver::new();
    s.config.first_reduce = 50;
    s.config.reduce_grow = 1.05;
    let _ = random_3sat(&mut s, 120, 4.0, 7);
    let verdict = s.solve(&[]);
    if verdict == SolveResult::Sat {
        s.debug_check_model();
    }
    assert!(s.stats.deleted > 0, "reduction never ran: {:?}", s.stats);
}

#[test]
fn restarts_fire_on_hard_instances() {
    let mut s = Solver::new();
    // Pigeonhole PHP(7,6): needs thousands of conflicts.
    let p: Vec<Vec<Var>> = (0..7)
        .map(|_| (0..6).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let lits: Vec<_> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&lits);
    }
    #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
    for hole in 0..6 {
        for i in 0..7 {
            for j in (i + 1)..7 {
                s.add_clause(&[p[i][hole].negative(), p[j][hole].negative()]);
            }
        }
    }
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    assert!(s.stats.restarts > 0);
    assert!(s.stats.conflicts > 100);
}

#[test]
fn long_incremental_session_with_growing_constraints() {
    // Interleave solving and constraint addition many times — the access
    // pattern of the incremental binary search, scaled up.
    let mut s = Solver::new();
    let vars = random_3sat(&mut s, 80, 3.0, 11);
    let mut last_sat = true;
    let mut flips = 0;
    for round in 0..40u64 {
        let a = vars[(round % 7) as usize];
        let verdict = s.solve(&[a.lit(round % 2 == 0)]);
        assert_ne!(verdict, SolveResult::Unknown);
        // Tighten gradually with random PB constraints over a window.
        let lo = (round as usize * 2) % 70;
        let terms: Vec<PbTerm> = vars[lo..lo + 8]
            .iter()
            .map(|v| PbTerm::new(v.positive(), 1))
            .collect();
        s.add_pb(&terms, PbOp::Ge, 2);
        let now_sat = s.solve(&[]) == SolveResult::Sat;
        if now_sat != last_sat {
            flips += 1;
            // Satisfiability can only degrade as constraints accumulate.
            assert!(
                last_sat && !now_sat,
                "UNSAT became SAT after adding constraints"
            );
        }
        last_sat = now_sat;
        if !now_sat {
            break;
        }
        s.debug_check_model();
    }
    assert!(flips <= 1);
}

#[test]
fn phase_saving_keeps_models_stable_across_resolves() {
    let mut s = Solver::new();
    let vars = random_3sat(&mut s, 60, 2.0, 23);
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    let first: Vec<bool> = vars.iter().map(|v| s.model_value(v.positive())).collect();
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    let second: Vec<bool> = vars.iter().map(|v| s.model_value(v.positive())).collect();
    // With phase saving and no new constraints the model should rarely
    // change; identical resolves must at minimum stay valid.
    s.debug_check_model();
    let differing = first.iter().zip(&second).filter(|(a, b)| a != b).count();
    assert!(
        differing <= vars.len() / 2,
        "model thrashing: {differing} flips"
    );
}

#[test]
fn hundreds_of_small_incremental_probes() {
    let mut s = Solver::new();
    let x: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
    // x0 + … + x9 = 5
    let terms: Vec<PbTerm> = x.iter().map(|v| PbTerm::new(v.positive(), 1)).collect();
    s.add_pb(&terms, PbOp::Eq, 5);
    for round in 0..300u32 {
        let i = (round % 10) as usize;
        let j = ((round / 10) % 10) as usize;
        let verdict = s.solve(&[x[i].positive(), x[j].negative()]);
        if i == j {
            assert_eq!(verdict, SolveResult::Unsat, "round {round}");
        } else {
            assert_eq!(verdict, SolveResult::Sat, "round {round}");
            assert!(s.model_value(x[i].positive()));
            assert!(!s.model_value(x[j].positive()));
            let count = x.iter().filter(|v| s.model_value(v.positive())).count();
            assert_eq!(count, 5);
        }
    }
}

#[test]
fn elimination_churn_over_a_long_incremental_session() {
    // Arena hammer for the inprocessing pass: large random instance with
    // many low-occurrence (hence eliminable) variables, then repeated
    // rounds of re-solving under assumptions and re-adding clauses over
    // *eliminated* variables. Every restore detaches/reallocates stored
    // clauses in the arena while reductions and GC run, so use-after-free
    // or stale-reference bugs in the unsafe clause arena surface here (and
    // under the sanitizer CI job, which runs exactly this test).
    let mut s = Solver::new();
    s.config.first_reduce = 60;
    s.config.reduce_grow = 1.05;
    let vars = random_3sat(&mut s, 200, 2.0, 41);
    let mut rng = SmallRng::seed_from_u64(42);
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert!(s.stats.elim_vars > 0, "low-ratio 3-SAT must eliminate vars");
    for round in 0..30u64 {
        // Re-reference a spread of variables, eliminated or not: each
        // eliminated one takes the melt-on-reuse restore path.
        let mut lits = Vec::new();
        for _ in 0..4 {
            let v = vars[rng.gen_range(0..vars.len())];
            lits.push(v.lit(rng.gen_bool(0.5)));
        }
        s.add_clause(&lits);
        let a = vars[rng.gen_range(0..vars.len())];
        let verdict = s.solve(&[a.lit(round % 2 == 0)]);
        assert_ne!(verdict, SolveResult::Unknown);
        if verdict == SolveResult::Sat {
            s.debug_check_model();
        }
        if s.solve(&[]) == SolveResult::Unsat {
            break;
        }
    }
    assert!(s.stats.elim_restored > 0, "no restore was ever exercised");
}

#[test]
fn export_formula_roundtrips_semantics() {
    use optalloc_sat::Formula;
    // Build a mixed instance, export it, re-import, and compare verdicts
    // under a set of assumption probes.
    let mut s = Solver::new();
    let vars = random_3sat(&mut s, 30, 3.5, 99);
    let terms: Vec<PbTerm> = vars[..8]
        .iter()
        .map(|v| PbTerm::new(v.positive(), 1))
        .collect();
    s.add_pb(&terms, PbOp::Ge, 3);
    s.add_clause(&[vars[0].positive()]); // a root-level unit

    let f = s.export_formula();
    let opb = f.to_opb();
    let f2 = Formula::parse_opb(&opb).expect("exported OPB parses");
    let (mut s2, vars2) = f2.into_solver();

    for probe in 0..10u32 {
        let i = (probe % 5) as usize + 1;
        let a1 = vars[i].lit(probe % 2 == 0);
        let a2 = vars2[i].lit(probe % 2 == 0);
        assert_eq!(s.solve(&[a1]), s2.solve(&[a2]), "probe {probe}");
    }
}
