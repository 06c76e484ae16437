//! Regression: window claims are proved against the formula at their
//! anchor, not against the whole trace.
//!
//! After every guarded probe the prober closes the guard by logging the
//! unit `¬guard` as an *input*. A checker that accepted any clause present
//! anywhere in the trace would therefore accept `¬guard` as the refutation
//! of a window that is in fact satisfiable.

use optalloc_intopt::{
    BinSearchMode, Certificate, CertificateError, CertifiedWindow, CostProber, IntProblem,
    MinimizeOptions, Model, Probe, WindowProof,
};
use optalloc_sat::ProofStep;
use std::sync::Arc;

#[test]
fn fabricated_sat_window_claim_is_rejected() {
    let mut p = IntProblem::new();
    let x = p.int_var(0, 100);
    p.assert(x.expr().ge(7));
    let opts = MinimizeOptions {
        certify: true,
        mode: BinSearchMode::Incremental,
        ..MinimizeOptions::default()
    };
    let mut prober = CostProber::new(&p, x, &opts);
    // [0, 6] is refuted and certified; [7, 50] is satisfiable.
    assert!(matches!(prober.probe(Some((0, 6))), Probe::Unsat));
    assert!(matches!(prober.probe(Some((7, 50))), Probe::Sat { .. }));
    let [proof] = &prober.take_proofs()[..] else {
        panic!("one trace");
    };
    assert_eq!(proof.windows.len(), 1, "only the UNSAT probe is certified");

    // The last step closes the SAT probe's guard: an input unit ¬g. The
    // SAT answer came back just before it.
    let closed_at = proof.log.len() - 1;
    let ProofStep::InputClause(&[not_g]) = proof.log.step(closed_at) else {
        panic!("the trace ends with the guard-closing unit");
    };
    let certificate = |windows: Vec<CertifiedWindow>, optimum| Certificate {
        optimum,
        cost_lo: 0,
        witness: Model::default(),
        proofs: vec![WindowProof {
            log: Arc::clone(&proof.log),
            windows,
        }],
    };

    // The honest certificate for optimum 7 verifies.
    certificate(proof.windows.clone(), 7)
        .verify()
        .expect("honest windows verify");

    // A fabricated claim that [7, 50] is refuted too, pushing the optimum
    // to 51, is rejected: ¬g is not implied where the SAT answer came back.
    let mut windows = proof.windows.clone();
    windows.push(CertifiedWindow {
        lo: 7,
        hi: 50,
        claim: vec![not_g],
        step: closed_at,
    });
    match certificate(windows, 51).verify() {
        Err(CertificateError::ClaimUnproved {
            proof: 0,
            window: (7, 50),
        }) => {}
        other => panic!("fabricated SAT-window claim must be unproved, got {other:?}"),
    }
}
