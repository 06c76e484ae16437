//! The `BIN_SEARCH` optimization scheme (paper §5.2).
//!
//! `SOLVE(φ)` returns the cost value of *some* satisfying assignment, or −1
//! when unsatisfiable; binary search over the cost range then converges on
//! the optimum:
//!
//! ```text
//! L := cost.lo ;  R := SOLVE(φ)
//! while (L < R) do
//!     M := (L + R) div 2
//!     K := SOLVE(φ ∧ cost ≥ L ∧ cost ≤ M)
//!     if (K = −1) then L := M + 1 else R := K
//! done
//! ```
//!
//! (The paper prints `L := M` in the UNSAT branch, which fails to terminate
//! for `R = L + 1`; the intended update is `L := M + 1` — UNSAT in `[L, M]`
//! proves the optimum exceeds `M`.)
//!
//! [`bisect`] is the one implementation of this loop. It issues every
//! `SOLVE` through a [`CostProber`], whose one probe function answers it
//! on an encoded solver; the prober decides whether the calls share it:
//!
//! * [`BinSearchMode::Fresh`] ([`CostProber::fresh`]) — every `SOLVE`
//!   encodes the constraints into a new solver, with the bounds asserted
//!   hard, and drops it afterwards. This is the paper's baseline
//!   formulation.
//! * [`BinSearchMode::Incremental`] ([`CostProber::new`]) — one solver
//!   instance; bounds enter as *guard literals* passed as assumptions, so
//!   every learned clause persists across the whole search. This is the
//!   paper's §7 extension, reported to give ≥2× speedups.
//!
//! [`crate::IntProblem::minimize`] builds the prober its options ask for and
//! bisects once; [`crate::WarmEngine`] keeps an incremental prober across
//! requests and bisects it again for each one. Under
//! [`MinimizeOptions::certify`] an optimum's [`Certificate`] comes from
//! [`Certificate::of_optimum`], which the window search uses too.

use crate::blast::{Backend, EncoderOpt};
use crate::certificate::Certificate;
use crate::prober::{CostProber, Probe};
use crate::problem::Model;
use optalloc_sat::{Solver, SolverConfig, SolverStats};

/// How the sequence of `SOLVE` calls shares work.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BinSearchMode {
    /// Re-encode and solve from scratch for every probe (paper baseline).
    Fresh,
    /// One incremental solver; learned clauses persist (paper §7).
    Incremental,
}

/// Options for [`crate::IntProblem::minimize`].
#[derive(Clone, Debug)]
pub struct MinimizeOptions {
    /// Gate encoding backend.
    pub backend: Backend,
    /// Work sharing across the probe sequence.
    pub mode: BinSearchMode,
    /// Known feasible upper bound on the cost (e.g. from a heuristic
    /// incumbent), used as the search's hint: the first probe is bounded by
    /// it, which can skip the expensive unbounded `SOLVE(φ)` and halve the
    /// search range, and the first bisection then tries to refute
    /// everything cheaper than the incumbent in one probe. An infeasible
    /// hint costs one probe, never the optimum.
    pub initial_upper: Option<i64>,
    /// Base solver tunables applied to every solver the search creates —
    /// including the per-call conflict budget
    /// ([`SolverConfig::max_conflicts`], whose exhaustion aborts with
    /// [`MinimizeStatus::Unknown`]) and the cooperative
    /// [`SolverConfig::interrupt`] flag.
    pub solver_config: SolverConfig,
    /// Encoder-level optimizations (hash-consing, interval narrowing, SAT
    /// preprocessing) applied to every encoding the search builds. All on
    /// by default; [`EncoderOpt::none`] reproduces the unoptimized baseline
    /// for ablations.
    pub encoder_opt: EncoderOpt,
    /// Record DRAT proof traces in every solver and assemble an optimality
    /// [`Certificate`] on [`MinimizeStatus::Optimal`] (witness model plus
    /// refutations of every cheaper cost window). Implies
    /// [`SolverConfig::proof`].
    pub certify: bool,
}

impl Default for MinimizeOptions {
    fn default() -> MinimizeOptions {
        MinimizeOptions {
            backend: Backend::PseudoBoolean,
            mode: BinSearchMode::Incremental,
            initial_upper: None,
            solver_config: SolverConfig::default(),
            encoder_opt: EncoderOpt::default(),
            certify: false,
        }
    }
}

impl MinimizeOptions {
    /// A fresh solver configured per these options — the one place options
    /// become a [`SolverConfig`], for every solver any search creates.
    pub(crate) fn new_solver(&self) -> Solver {
        let mut solver = Solver::new();
        solver.config = self.solver_config.clone();
        // The encoder-opt switch masters the preprocessing stage so one
        // knob disables the whole optimization layer for ablations.
        if !self.encoder_opt.preprocess {
            solver.config.preprocess = false;
        }
        if self.certify {
            solver.config.proof = true;
        }
        solver
    }
}

/// Verdict of a minimization run.
#[derive(Clone, Debug)]
pub enum MinimizeStatus {
    /// The minimum cost and a witnessing model.
    Optimal {
        /// Minimal value of the cost variable.
        value: i64,
        /// A model attaining it.
        model: Model,
    },
    /// The constraints admit no solution at all.
    Infeasible,
    /// Budget exhausted; carries the best incumbent, if any was found.
    Unknown {
        /// Best (value, model) discovered before giving up.
        incumbent: Option<(i64, Model)>,
    },
    /// The cooperative cancellation flag was raised mid-search; carries the
    /// best incumbent, if any was found before the abort.
    Interrupted {
        /// Best (value, model) discovered before the interrupt.
        incumbent: Option<(i64, Model)>,
    },
}

/// Size of the propositional encoding — the paper's complexity columns
/// ("Var." and "Lit.").
#[derive(Copy, Clone, Debug, Default)]
pub struct EncodeStats {
    /// Propositional variables.
    pub bool_vars: u64,
    /// Literal occurrences over all constraints.
    pub literals: u64,
    /// Constraints (clauses + PB).
    pub constraints: u64,
    /// Wall-clock milliseconds spent encoding (triplet rewriting, interval
    /// narrowing, and bit-blasting), accumulated over every `SOLVE` call —
    /// split out from [`SolverStats::solve_ms`] so ablation rows attribute
    /// time to the right stage.
    pub encode_ms: f64,
}

/// Full result of a minimization run.
#[derive(Clone, Debug)]
pub struct MinimizeOutcome {
    /// Optimal / infeasible / unknown.
    pub status: MinimizeStatus,
    /// Number of `SOLVE` invocations.
    pub solve_calls: u32,
    /// Size of the (first complete) propositional encoding.
    pub encode: EncodeStats,
    /// Aggregated solver statistics over all calls.
    pub stats: SolverStats,
    /// The assembled optimality certificate; `Some` only for a certified
    /// run that ended [`MinimizeStatus::Optimal`]. It is self-contained:
    /// its refutations cover every cost below the optimum.
    pub certificate: Option<Certificate>,
}

/// One `BIN_SEARCH` run over `prober`, restricted to the cost `window`
/// (clamped to the cost variable's range; `None` searches the whole range
/// and starts with the unbounded `SOLVE(φ)`).
///
/// A `hint` — a cost believed attainable — bounds the first probe to
/// `[L, hint]`. If that probe is UNSAT and the hint lies below the window
/// top, the search falls back to the full window. With a hint, the first
/// bisection probes `[L, U − 1]`, whose UNSAT closes an unchanged optimum in
/// one refutation instead of log₂(range) halvings. Hints are probed, never
/// assumed: a wrong one costs time, not the optimum.
///
/// Solve calls and solver counters are deltas against the prober's state
/// on entry, so a prober reused across runs reports each run on its own.
pub(crate) fn bisect(
    prober: &mut CostProber<'_>,
    window: Option<(i64, i64)>,
    hint: Option<i64>,
) -> MinimizeOutcome {
    let cost = prober.cost();
    let (lo, hi) = match window {
        Some((lo, hi)) => (lo.max(cost.lo), hi.min(cost.hi)),
        None => (cost.lo, cost.hi),
    };
    let stats_base = prober.stats().clone();
    let calls_base = prober.solve_calls();
    let status = search(prober, lo, hi, window.is_some(), hint);
    let proofs = prober.take_proofs();
    let certificate = Certificate::of_optimum(&status, lo, prober.certifies().then_some(proofs));
    MinimizeOutcome {
        status,
        solve_calls: prober.solve_calls() - calls_base,
        encode: prober.report_encode(),
        stats: prober.stats().delta_since(&stats_base),
        certificate,
    }
}

/// The probe sequence of [`bisect`] over `[lo, hi]`.
fn search(
    prober: &mut CostProber<'_>,
    lo: i64,
    hi: i64,
    windowed: bool,
    hint: Option<i64>,
) -> MinimizeStatus {
    if prober.trivially_unsat() || lo > hi {
        return MinimizeStatus::Infeasible;
    }
    // R := SOLVE(φ), or SOLVE(φ ∧ lo ≤ cost ≤ hi) under a window — where
    // UNSAT means infeasible within the window.
    let full = windowed.then_some((lo, hi));
    let first = match hint.filter(|&h| h >= lo) {
        Some(h) => match prober.probe(Some((lo, h.min(hi)))) {
            Probe::Unsat if h < hi => prober.probe(full),
            r => r,
        },
        None => prober.probe(full),
    };
    let (mut upper, mut best) = match first {
        Probe::Sat { value, model } => (value, model),
        Probe::Unsat => return MinimizeStatus::Infeasible,
        Probe::Unknown => return MinimizeStatus::Unknown { incumbent: None },
        Probe::Interrupted => return MinimizeStatus::Interrupted { incumbent: None },
    };
    let mut lower = lo;
    let mut confirm = hint.is_some();
    while lower < upper {
        let mid = if std::mem::take(&mut confirm) {
            upper - 1
        } else {
            lower + (upper - lower) / 2
        };
        match prober.probe(Some((lower, mid))) {
            Probe::Sat { value, model } => {
                debug_assert!(value >= lower && value <= mid);
                upper = value;
                best = model;
            }
            // UNSAT over [L, M] proves the optimum exceeds M, hence
            // `L := M + 1`. (The paper's §5.2 listing prints `L := M`,
            // which never terminates once R = L + 1: M = L, the probe over
            // [L, L] repeats forever. See the regression test
            // `terminates_from_r_equals_l_plus_one` below.)
            Probe::Unsat => lower = mid + 1,
            Probe::Unknown => {
                return MinimizeStatus::Unknown {
                    incumbent: Some((upper, best)),
                }
            }
            Probe::Interrupted => {
                return MinimizeStatus::Interrupted {
                    incumbent: Some((upper, best)),
                }
            }
        }
    }
    MinimizeStatus::Optimal {
        value: upper,
        model: best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::IntProblem;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Regression for the paper's §5.2 off-by-one: from the terminal state
    /// R = L + 1 (here L = 0, R = 1 with optimum 1) the probe over [L, M] =
    /// [0, 0] is UNSAT and must advance `L := M + 1 = 1` to terminate. The
    /// paper's printed `L := M` would re-probe [0, 0] forever. Pins both
    /// termination and the optimum for both modes.
    #[test]
    fn terminates_from_r_equals_l_plus_one() {
        for mode in [BinSearchMode::Incremental, BinSearchMode::Fresh] {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 1);
            p.assert(x.expr().ge(1));
            let out = p.minimize(
                x,
                &MinimizeOptions {
                    mode,
                    ..MinimizeOptions::default()
                },
            );
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 1, "{mode:?}"),
                ref s => panic!("{mode:?}: expected Optimal, got {s:?}"),
            }
            // SOLVE(φ) finds x = 1, then exactly one probe over [0, 0]
            // refutes anything cheaper. A third call would mean the search
            // revisited the refuted half.
            assert_eq!(out.solve_calls, 2, "{mode:?}");
        }
    }

    /// End-to-end certification in both modes: the optimum comes with a
    /// certificate whose DRAT refutations cover every cheaper cost value,
    /// and `verify()` accepts it. Without `certify` nothing is recorded.
    #[test]
    fn certified_optimum_verifies_in_both_modes() {
        for mode in [BinSearchMode::Incremental, BinSearchMode::Fresh] {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 100);
            p.assert(x.expr().ge(7));
            let opts = MinimizeOptions {
                mode,
                certify: true,
                ..MinimizeOptions::default()
            };
            let out = p.minimize(x, &opts);
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 7, "{mode:?}"),
                ref s => panic!("{mode:?}: expected Optimal, got {s:?}"),
            }
            let cert = out.certificate.as_ref().expect("certificate assembled");
            assert_eq!(cert.optimum, 7, "{mode:?}");
            assert_eq!(cert.cost_lo, 0, "{mode:?}");
            assert_eq!(cert.witness.int(x), 7, "{mode:?}");
            let summary = cert.verify().unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert!(summary.windows > 0, "{mode:?}: refutations recorded");

            // Off by default: no certificate.
            let out = p.minimize(x, &MinimizeOptions::default());
            assert!(out.certificate.is_none());
        }
    }

    /// A certified warm start whose hint is below the true optimum records
    /// the failed warm-start window too, keeping coverage gap-free.
    #[test]
    fn certified_bad_warm_start_still_covers() {
        for mode in [BinSearchMode::Incremental, BinSearchMode::Fresh] {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 50);
            p.assert(x.expr().ge(20));
            let opts = MinimizeOptions {
                mode,
                certify: true,
                initial_upper: Some(5), // infeasible hint: [0, 5] is UNSAT
                ..MinimizeOptions::default()
            };
            let out = p.minimize(x, &opts);
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 20, "{mode:?}"),
                ref s => panic!("{mode:?}: expected Optimal, got {s:?}"),
            }
            let cert = out.certificate.as_ref().expect("certificate assembled");
            cert.verify().unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    /// A pre-raised interrupt flag aborts before any verdict and carries no
    /// incumbent; clearing it lets the same options solve to optimality.
    #[test]
    fn interrupt_aborts_minimization() {
        let flag = Arc::new(AtomicBool::new(true));
        let mut opts = MinimizeOptions::default();
        opts.solver_config.interrupt = Some(flag.clone());

        let mut p = IntProblem::new();
        let x = p.int_var(0, 10);
        p.assert(x.expr().ge(3));
        match p.minimize(x, &opts).status {
            MinimizeStatus::Interrupted { incumbent } => assert!(incumbent.is_none()),
            ref s => panic!("expected Interrupted, got {s:?}"),
        }

        flag.store(false, Ordering::Relaxed);
        match p.minimize(x, &opts).status {
            MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 3),
            ref s => panic!("expected Optimal, got {s:?}"),
        }
    }
}
