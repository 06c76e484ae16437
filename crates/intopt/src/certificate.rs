//! Optimality certificates for `BIN_SEARCH`.
//!
//! A [`Certificate`] packages the two halves of an optimality claim for a
//! minimized cost variable:
//!
//! 1. a **witness** — the SAT model attaining the optimum, replayable
//!    through an independent feasibility checker without touching the
//!    encoder, and
//! 2. **refutation proofs** — per-solver extended DRAT traces
//!    ([`optalloc_sat::ProofLog`]) each certifying one or more cost
//!    *windows* as unsatisfiable, whose union must cover every cost value
//!    strictly below the optimum down to the variable's lower range bound.
//!
//! Window claims come in two shapes. A probe of `lo ≤ cost ≤ hi` under a
//! fresh guard assumption is certified by the clause `¬guard` (the
//! failed-assumption clause). A probe of the unbounded problem is certified
//! by the trace proving global unsatisfiability — recorded as an empty
//! claim. Either way the claim is *anchored* at the trace length when the
//! UNSAT answer came back, and must follow from the formula as it stood
//! there: an incremental prober closes each guard afterwards by logging
//! `¬guard` as an input, and that input must not count as a proof.
//!
//! [`Certificate::verify`] hands every trace and its anchored claims to the
//! built-in backward DRAT checker ([`optalloc_sat::check_proof`]), which
//! proves each claim at its anchor and checks every derived clause those
//! proofs use. It then rejects any certified window that contains the
//! claimed optimum (it would refute the witness), and finally checks that
//! the certified windows, merged, cover `[cost_lo, optimum − 1]` without
//! gaps. Witness replay lives a layer up (in `optalloc-core`), where the
//! domain semantics are known.
//!
//! For parallel runs (window search) each worker contributes a
//! [`WindowProof`]; soundness of stitching follows from the scheduler's
//! discipline — the shared lower bound only advances over windows some
//! worker refuted exhaustively, contiguously from the cost range's lower
//! end, so the union of all workers' certified windows is gap-free
//! whenever the search reached `Optimal`. `verify` does not trust that
//! argument: it re-checks coverage from the recorded windows alone.

use crate::binsearch::MinimizeStatus;
use crate::problem::Model;
use optalloc_sat::{check_proof, CheckError, Claim, Lit};
use std::sync::Arc;

/// One cost window `lo ≤ cost ≤ hi` refuted by a proof trace, together
/// with the clause that certifies the refutation inside that trace and the
/// point of the trace it must hold at.
#[derive(Clone, Debug)]
pub struct CertifiedWindow {
    /// Inclusive window lower bound.
    pub lo: i64,
    /// Inclusive window upper bound.
    pub hi: i64,
    /// The claim clause the trace must prove: `[¬guard]` for a guarded
    /// probe, empty for an unbounded probe that proved the whole formula
    /// unsatisfiable.
    pub claim: Vec<Lit>,
    /// The trace length when the UNSAT answer came back: the claim must
    /// follow from the steps before it (see [`optalloc_sat::Claim`]).
    pub step: usize,
}

/// One solver's proof trace plus the cost windows it certifies. A single
/// incremental solver certifies many windows in one trace; a fresh-mode
/// probe certifies exactly one.
#[derive(Clone, Debug)]
pub struct WindowProof {
    /// The extended DRAT trace recorded by the solver.
    pub log: Arc<optalloc_sat::ProofLog>,
    /// Windows this trace refutes, in probe order.
    pub windows: Vec<CertifiedWindow>,
}

/// A complete optimality certificate: witness at the optimum plus DRAT
/// refutations covering every smaller cost (see the module docs).
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The claimed optimal cost.
    pub optimum: i64,
    /// Lower end of the cost variable's declared range; refutation
    /// coverage must start here.
    pub cost_lo: i64,
    /// The model attaining `optimum`, for independent replay.
    pub witness: Model,
    /// Refutation proofs from every participating solver.
    pub proofs: Vec<WindowProof>,
}

/// Aggregate numbers from a successful [`Certificate::verify`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CertificateSummary {
    /// Proof traces checked.
    pub proofs: usize,
    /// Certified windows confirmed.
    pub windows: usize,
    /// Total proof steps across all traces.
    pub steps: usize,
    /// Derived clauses in the core of some window claim — the only ones
    /// the backward checker checks — that passed their RUP check, across
    /// all traces.
    pub adds_verified: usize,
    /// Clause deletions applied across all traces.
    pub deletions: usize,
}

impl std::fmt::Display for CertificateSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} proof(s), {} window(s), {} steps, {} adds verified, {} deletions",
            self.proofs, self.windows, self.steps, self.adds_verified, self.deletions
        )
    }
}

/// Why a certificate failed verification.
#[derive(Clone, Debug)]
pub enum CertificateError {
    /// A derived clause some window claim depends on failed its RUP check.
    ProofRejected {
        /// Index into [`Certificate::proofs`].
        proof: usize,
        /// The checker's rejection.
        error: CheckError,
    },
    /// A trace does not prove the claim attached to one of its windows at
    /// the window's anchor.
    ClaimUnproved {
        /// Index into [`Certificate::proofs`].
        proof: usize,
        /// The window whose claim is missing from the trace.
        window: (i64, i64),
    },
    /// A certified-UNSAT window contains the claimed optimum, refuting the
    /// witness.
    OptimumRefuted {
        /// The offending window.
        window: (i64, i64),
    },
    /// The certified windows do not cover `[cost_lo, optimum − 1]`.
    CoverageGap {
        /// Smallest cost value with no covering refutation.
        uncovered: i64,
    },
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::ProofRejected { proof, error } => {
                write!(f, "proof {proof} rejected by the DRAT checker: {error}")
            }
            CertificateError::ClaimUnproved { proof, window } => write!(
                f,
                "proof {proof} does not prove the claim for window [{}, {}]",
                window.0, window.1
            ),
            CertificateError::OptimumRefuted { window } => write!(
                f,
                "certified-UNSAT window [{}, {}] contains the claimed optimum",
                window.0, window.1
            ),
            CertificateError::CoverageGap { uncovered } => write!(
                f,
                "no refutation covers cost value {uncovered} below the optimum"
            ),
        }
    }
}

impl std::error::Error for CertificateError {}

impl Certificate {
    /// The certificate of a search that ended `status` over costs from
    /// `cost_lo` up: the optimum's witness with every trace in `proofs`.
    /// `None` unless the search certified (`proofs` is `Some`) and found an
    /// optimum. The one place a certificate is assembled, for the
    /// sequential search and the window search alike.
    pub fn of_optimum(
        status: &MinimizeStatus,
        cost_lo: i64,
        proofs: Option<Vec<WindowProof>>,
    ) -> Option<Certificate> {
        match (status, proofs) {
            (MinimizeStatus::Optimal { value, model }, Some(proofs)) => Some(Certificate {
                optimum: *value,
                cost_lo,
                witness: model.clone(),
                proofs,
            }),
            _ => None,
        }
    }

    /// Checks the certificate end to end: every window claim proved at its
    /// anchor (with every derived clause it rests on checked), no certified
    /// window containing the optimum, and gap-free coverage of
    /// `[cost_lo, optimum − 1]`.
    ///
    /// This validates *optimality of the cost value* given the encoded
    /// formula. Feasibility of the witness itself is validated separately
    /// by replaying the model through the domain analysis (see
    /// `optalloc-core`), which also closes the encoder out of the trusted
    /// base.
    pub fn verify(&self) -> Result<CertificateSummary, CertificateError> {
        let mut summary = CertificateSummary::default();
        // (lo, hi) pairs clipped to the range that matters for coverage.
        let mut covered: Vec<(i64, i64)> = Vec::new();
        for (pi, proof) in self.proofs.iter().enumerate() {
            // Vacuous windows (lo > hi) certify nothing and need no claim.
            let windows: Vec<&CertifiedWindow> =
                proof.windows.iter().filter(|w| w.lo <= w.hi).collect();
            let claims: Vec<Claim> = windows
                .iter()
                .map(|w| Claim {
                    clause: &w.claim,
                    step: w.step,
                })
                .collect();
            let checked = check_proof(&proof.log, &claims).map_err(|error| match error {
                CheckError::ClaimUnproved { claim } => CertificateError::ClaimUnproved {
                    proof: pi,
                    window: (windows[claim].lo, windows[claim].hi),
                },
                error => CertificateError::ProofRejected { proof: pi, error },
            })?;
            summary.proofs += 1;
            summary.steps += checked.steps;
            summary.adds_verified += checked.adds_verified;
            summary.deletions += checked.deletions;
            for w in windows {
                if w.lo <= self.optimum && self.optimum <= w.hi {
                    return Err(CertificateError::OptimumRefuted {
                        window: (w.lo, w.hi),
                    });
                }
                summary.windows += 1;
                if w.lo < self.optimum {
                    covered.push((w.lo, w.hi.min(self.optimum - 1)));
                }
            }
        }
        // Merge-sweep: the certified windows must cover [cost_lo, optimum-1].
        if self.optimum > self.cost_lo {
            covered.sort_unstable();
            let mut up_to = self.cost_lo - 1; // highest covered value so far
            for (lo, hi) in covered {
                if lo > up_to + 1 {
                    break; // gap at up_to + 1
                }
                up_to = up_to.max(hi);
            }
            if up_to < self.optimum - 1 {
                return Err(CertificateError::CoverageGap {
                    uncovered: up_to + 1,
                });
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optalloc_sat::ProofLog;

    fn lit(i: i64) -> Lit {
        let v = optalloc_sat::Var::from_index(i.unsigned_abs() as usize - 1);
        if i > 0 {
            v.positive()
        } else {
            v.negative()
        }
    }

    /// A trace deriving `claim` by RUP from inputs (x1) and (¬x1 ∨ claim);
    /// an empty claim yields a globally UNSAT trace instead. Every window
    /// is anchored at the end of the trace.
    fn proof_deriving(claim: &[Lit], windows: Vec<CertifiedWindow>) -> WindowProof {
        let mut log = ProofLog::new();
        if claim.is_empty() {
            log.input_clause(&[lit(1)]);
            log.input_clause(&[lit(-1)]);
            log.add(&[]);
        } else {
            log.input_clause(&[lit(1)]);
            let mut implied = vec![lit(-1)];
            implied.extend_from_slice(claim);
            log.input_clause(&implied);
            if claim.len() == 1 {
                log.add(claim);
            }
        }
        let step = log.len();
        WindowProof {
            windows: windows
                .into_iter()
                .map(|w| CertifiedWindow { step, ..w })
                .collect(),
            log: Arc::new(log),
        }
    }

    fn cert(optimum: i64, cost_lo: i64, proofs: Vec<WindowProof>) -> Certificate {
        Certificate {
            optimum,
            cost_lo,
            witness: Model::default(),
            proofs,
        }
    }

    fn win(lo: i64, hi: i64, claim: &[Lit]) -> CertifiedWindow {
        CertifiedWindow {
            lo,
            hi,
            claim: claim.to_vec(),
            step: 0,
        }
    }

    #[test]
    fn contiguous_windows_verify() {
        let claim = [lit(2)];
        let c = cert(
            10,
            0,
            vec![
                proof_deriving(&claim, vec![win(0, 4, &claim)]),
                proof_deriving(&claim, vec![win(5, 9, &claim)]),
            ],
        );
        let s = c.verify().expect("contiguous coverage");
        assert_eq!(s.proofs, 2);
        assert_eq!(s.windows, 2);
    }

    #[test]
    fn overlapping_windows_verify() {
        let claim = [lit(2)];
        let c = cert(
            7,
            2,
            vec![proof_deriving(
                &claim,
                vec![win(2, 5, &claim), win(4, 6, &claim)],
            )],
        );
        c.verify().expect("overlap is fine");
    }

    #[test]
    fn gap_is_rejected() {
        let claim = [lit(2)];
        let c = cert(
            10,
            0,
            vec![
                proof_deriving(&claim, vec![win(0, 3, &claim)]),
                proof_deriving(&claim, vec![win(5, 9, &claim)]),
            ],
        );
        match c.verify() {
            Err(CertificateError::CoverageGap { uncovered }) => assert_eq!(uncovered, 4),
            r => panic!("expected coverage gap, got {r:?}"),
        }
    }

    #[test]
    fn window_containing_optimum_is_rejected() {
        let claim = [lit(2)];
        let c = cert(5, 0, vec![proof_deriving(&claim, vec![win(0, 5, &claim)])]);
        assert!(matches!(
            c.verify(),
            Err(CertificateError::OptimumRefuted { window: (0, 5) })
        ));
    }

    #[test]
    fn unproved_claim_is_rejected() {
        // The trace derives x2 but the window claims x3.
        let derived = [lit(2)];
        let mut proof = proof_deriving(&derived, vec![]);
        proof.windows.push(CertifiedWindow {
            step: proof.log.len(),
            ..win(0, 4, &[lit(3)])
        });
        let c = cert(5, 0, vec![proof]);
        assert!(matches!(
            c.verify(),
            Err(CertificateError::ClaimUnproved {
                proof: 0,
                window: (0, 4)
            })
        ));
    }

    #[test]
    fn claim_anchored_before_its_derivation_is_rejected() {
        // The trace derives x2 from its second input on: anchored after the
        // first input only, the claim has nothing to rest on.
        let claim = [lit(2)];
        let mut proof = proof_deriving(&claim, vec![win(0, 4, &claim)]);
        proof.windows[0].step = 1;
        let c = cert(5, 0, vec![proof]);
        assert!(matches!(
            c.verify(),
            Err(CertificateError::ClaimUnproved {
                proof: 0,
                window: (0, 4)
            })
        ));
    }

    #[test]
    fn global_unsat_trace_certifies_any_window() {
        // Fresh-mode shape: empty claim, trace proves UNSAT outright.
        let c = cert(3, 0, vec![proof_deriving(&[], vec![win(0, 2, &[])])]);
        c.verify().expect("unsat trace covers its window");
    }

    #[test]
    fn optimum_at_range_lower_bound_needs_no_proofs() {
        let c = cert(0, 0, vec![]);
        let s = c.verify().expect("nothing below the optimum");
        assert_eq!(s.windows, 0);
    }

    #[test]
    fn missing_proofs_fail_when_range_extends_below() {
        let c = cert(3, 0, vec![]);
        assert!(matches!(
            c.verify(),
            Err(CertificateError::CoverageGap { uncovered: 0 })
        ));
    }

    #[test]
    fn vacuous_windows_are_skipped() {
        let claim = [lit(2)];
        let c = cert(
            4,
            0,
            vec![proof_deriving(
                &claim,
                vec![win(9, 3, &claim), win(0, 3, &claim)],
            )],
        );
        let s = c.verify().expect("empty window ignored");
        assert_eq!(s.windows, 1);
    }
}
