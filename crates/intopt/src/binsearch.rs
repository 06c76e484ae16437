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
//! Two modes are provided:
//!
//! * [`BinSearchMode::Fresh`] — every `SOLVE` builds a new solver and
//!   re-encodes the constraints with the bounds asserted hard. This is the
//!   paper's baseline formulation.
//! * [`BinSearchMode::Incremental`] — one solver instance; bounds enter as
//!   *guard literals* passed as assumptions, so every learned clause
//!   persists across the whole search. This is the paper's §7 extension,
//!   reported to give ≥2× speedups.

use std::sync::Arc;

use crate::blast::{blast_with, Backend, EncoderOpt};
use crate::bounds::{BoundLattice, BoundWatch};
use crate::certificate::{Certificate, CertifiedWindow, WindowProof};
use crate::prober::{CostProber, Probe};
use crate::problem::{IntProblem, Model};
use crate::IntVar;
use optalloc_obs::Phase;
use optalloc_sat::{SolveResult, Solver, SolverConfig, SolverStats};

/// How the sequence of `SOLVE` calls shares work.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BinSearchMode {
    /// Re-encode and solve from scratch for every probe (paper baseline).
    Fresh,
    /// One incremental solver; learned clauses persist (paper §7).
    Incremental,
}

/// Callback invoked whenever the search finds a new best (cost, model)
/// incumbent — before the search has proven it optimal.
pub type IncumbentCallback = Arc<dyn Fn(i64, &Model) + Send + Sync>;

/// Options for [`IntProblem::minimize`].
#[derive(Clone)]
pub struct MinimizeOptions {
    /// Gate encoding backend.
    pub backend: Backend,
    /// Work sharing across the probe sequence.
    pub mode: BinSearchMode,
    /// Per-call conflict budget; exhausting it aborts with
    /// [`MinimizeStatus::Unknown`].
    pub max_conflicts: Option<u64>,
    /// Known feasible upper bound on the cost (e.g. from a heuristic
    /// incumbent). The first probe is bounded by it, which can skip the
    /// expensive unbounded `SOLVE(φ)` and halve the search range.
    pub initial_upper: Option<i64>,
    /// Base solver tunables applied to every solver the search creates —
    /// including the cooperative [`SolverConfig::interrupt`] flag and the
    /// diversification knobs (`phase_seed`, `restart_unit`, decays) used by
    /// the portfolio runner. `max_conflicts` above, when set, overrides
    /// `solver_config.max_conflicts`.
    pub solver_config: SolverConfig,
    /// Two-sided cost bounds shared between cooperating searches (portfolio
    /// or window-search workers). Both sides are folded in between `SOLVE`
    /// calls: the probe range tightens to `[max(L, lattice.lower),
    /// min(U, lattice.upper))`. Written on every move — locally found
    /// incumbents tighten the upper side (`fetch_min`), UNSAT probes
    /// certify `mid + 1` into the lower side (`fetch_max`), so any worker's
    /// refutation shrinks everyone's window. When the search bottoms out
    /// against an external upper bound it reports
    /// [`MinimizeStatus::ExternalOptimal`] since the witnessing model lives
    /// in another worker.
    pub bounds: Option<Arc<BoundLattice>>,
    /// Invoked with every new local incumbent (cost, model) as it is found.
    pub on_incumbent: Option<IncumbentCallback>,
    /// Encoder-level optimizations (hash-consing, interval narrowing, SAT
    /// preprocessing) applied to every encoding the search builds. All on
    /// by default; [`EncoderOpt::none`] reproduces the unoptimized baseline
    /// for ablations.
    pub encoder_opt: EncoderOpt,
    /// Record DRAT proof traces in every solver and assemble an optimality
    /// [`Certificate`] on [`MinimizeStatus::Optimal`] (witness model plus
    /// refutations of every cheaper cost window; see
    /// [`crate::certificate`]). Implies [`SolverConfig::proof`], which
    /// disables importing foreign shared clauses — exporting still works —
    /// so cooperating certified workers trade some sharing for
    /// checkability.
    pub certify: bool,
}

impl std::fmt::Debug for MinimizeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinimizeOptions")
            .field("backend", &self.backend)
            .field("mode", &self.mode)
            .field("max_conflicts", &self.max_conflicts)
            .field("initial_upper", &self.initial_upper)
            .field("solver_config", &self.solver_config)
            .field("bounds", &self.bounds)
            .field("on_incumbent", &self.on_incumbent.as_ref().map(|_| ".."))
            .field("encoder_opt", &self.encoder_opt)
            .field("certify", &self.certify)
            .finish()
    }
}

impl Default for MinimizeOptions {
    fn default() -> MinimizeOptions {
        MinimizeOptions {
            backend: Backend::PseudoBoolean,
            mode: BinSearchMode::Incremental,
            max_conflicts: None,
            initial_upper: None,
            solver_config: SolverConfig::default(),
            bounds: None,
            on_incumbent: None,
            encoder_opt: EncoderOpt::default(),
            certify: false,
        }
    }
}

impl MinimizeOptions {
    /// A fresh solver configured per these options.
    pub(crate) fn new_solver(&self) -> Solver {
        let mut solver = Solver::new();
        solver.config = self.solver_config.clone();
        if self.max_conflicts.is_some() {
            solver.config.max_conflicts = self.max_conflicts;
        }
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

    /// The externally shared incumbent cost, or `i64::MAX` when solo.
    pub(crate) fn external_upper(&self) -> i64 {
        self.bounds.as_ref().map(|b| b.upper()).unwrap_or(i64::MAX)
    }

    /// The externally certified lower bound, or `i64::MIN` when solo.
    pub(crate) fn external_lower(&self) -> i64 {
        self.bounds.as_ref().map(|b| b.lower()).unwrap_or(i64::MIN)
    }

    /// Publishes a new local incumbent to the cooperating searches.
    pub(crate) fn publish(&self, value: i64, model: &Model) {
        if let Some(bounds) = &self.bounds {
            bounds.publish_upper(value);
        }
        if let Some(cb) = &self.on_incumbent {
            cb(value, model);
        }
    }

    /// Publishes a certified lower bound (an UNSAT proof over the range
    /// below it) to the cooperating searches. Sound because every local
    /// lower bound is the join of globally valid facts: the chain of local
    /// UNSAT windows is anchored at `cost.lo` and each fold of the lattice
    /// lower bound is itself globally certified.
    pub(crate) fn publish_lower(&self, bound: i64) {
        if let Some(bounds) = &self.bounds {
            bounds.publish_lower(bound);
        }
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
    /// The search proved no solution cheaper than the externally shared
    /// incumbent exists, so the optimum equals that value — but the
    /// witnessing model belongs to the cooperating search that published it
    /// (see [`MinimizeOptions::shared_bound`]).
    ExternalOptimal {
        /// The proven optimal cost, attained by another worker's model.
        value: i64,
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
    /// Proof traces recorded when [`MinimizeOptions::certify`] is set —
    /// present on *every* status (an interrupted worker still contributes
    /// its certified windows to a cooperating run's stitched certificate).
    pub proofs: Vec<WindowProof>,
    /// The assembled optimality certificate; `Some` only for a certified
    /// run that ended [`MinimizeStatus::Optimal`]. A solo run's certificate
    /// is self-contained; a cooperating worker's may have coverage gaps
    /// filled by other workers (the portfolio layer stitches the merged
    /// certificate from all workers' `proofs`).
    pub certificate: Option<Certificate>,
}

pub(crate) fn minimize(
    problem: &IntProblem,
    cost: IntVar,
    opts: &MinimizeOptions,
) -> MinimizeOutcome {
    match opts.mode {
        BinSearchMode::Incremental => minimize_incremental(problem, cost, opts),
        BinSearchMode::Fresh => minimize_fresh(problem, cost, opts),
    }
}

fn minimize_incremental(
    problem: &IntProblem,
    cost: IntVar,
    opts: &MinimizeOptions,
) -> MinimizeOutcome {
    let mut prober = CostProber::new(problem, cost, opts);
    let mut outcome = MinimizeOutcome {
        status: MinimizeStatus::Infeasible,
        solve_calls: 0,
        encode: prober.encode(),
        stats: SolverStats::default(),
        proofs: Vec::new(),
        certificate: None,
    };
    let finish = |mut o: MinimizeOutcome, prober: &mut CostProber, cost_lo: i64| {
        o.solve_calls = prober.solve_calls();
        o.stats = prober.stats().clone();
        // Guard-bound emission accrues per probe; refresh the snapshot.
        o.encode = prober.encode();
        if let Some(proof) = prober.take_proof() {
            o.proofs.push(proof);
        }
        if opts.certify {
            if let MinimizeStatus::Optimal { value, model } = &o.status {
                o.certificate = Some(Certificate {
                    optimum: *value,
                    cost_lo,
                    witness: model.clone(),
                    proofs: o.proofs.clone(),
                });
            }
        }
        o
    };

    if prober.trivially_unsat() {
        return outcome;
    }

    // R := SOLVE(φ), optionally warm-started with a known upper bound:
    // R := SOLVE(φ ∧ cost ≤ U) — falling back to the unbounded call if the
    // hint turns out infeasible.
    let first = match opts.initial_upper {
        Some(u) if u >= cost.lo => match prober.probe(Some((cost.lo, u))) {
            // Bad hint; retry unbounded.
            Probe::Unsat => prober.probe(None),
            r => r,
        },
        _ => prober.probe(None),
    };
    let (mut best_value, mut best_model) = match first {
        Probe::Unsat => return finish(outcome, &mut prober, cost.lo),
        Probe::Unknown => {
            outcome.status = MinimizeStatus::Unknown { incumbent: None };
            return finish(outcome, &mut prober, cost.lo);
        }
        Probe::Interrupted => {
            outcome.status = MinimizeStatus::Interrupted { incumbent: None };
            return finish(outcome, &mut prober, cost.lo);
        }
        Probe::Sat { value, model } => (value, model),
    };
    opts.publish(best_value, &best_model);
    let mut lower = cost.lo;
    let mut upper = best_value;
    // Checked mode: this reader's view of the shared lattice must be
    // monotone (lower only rises, upper only falls).
    let mut bound_watch = opts.solver_config.paranoid.then(BoundWatch::new);

    let external = loop {
        if let (Some(w), Some(b)) = (bound_watch.as_mut(), opts.bounds.as_deref()) {
            w.observe(b);
        }
        // Between SOLVE calls, fold in both sides of the shared lattice:
        // nothing at or above `min(upper, external upper)` needs probing
        // (somebody already holds a model that cheap), and nothing below
        // the external lower bound can exist (somebody refuted it). The
        // lower bound may overtake the upper mid-probe — that simply means
        // the window is exhausted, and the loop terminates.
        let external = opts.external_upper();
        let proven_hi = upper.min(external);
        lower = lower.max(opts.external_lower());
        if lower >= proven_hi {
            break external;
        }
        let mid = lower + (proven_hi - lower) / 2;
        match prober.probe(Some((lower, mid))) {
            Probe::Sat { value: k, model } => {
                debug_assert!(k >= lower && k <= mid);
                best_value = k;
                best_model = model;
                opts.publish(best_value, &best_model);
                upper = k;
            }
            Probe::Unsat => {
                // UNSAT over [L, M] proves the optimum exceeds M, hence
                // `L := M + 1`. (The paper's §5.2 listing prints `L := M`,
                // which never terminates once R = L + 1: M = L, the probe
                // over [L, L] repeats forever. See the regression test
                // `terminates_from_r_equals_l_plus_one` below.) The new
                // lower bound is globally certified: share it.
                lower = mid + 1;
                opts.publish_lower(lower);
            }
            Probe::Unknown => {
                outcome.status = MinimizeStatus::Unknown {
                    incumbent: Some((best_value, best_model)),
                };
                return finish(outcome, &mut prober, cost.lo);
            }
            Probe::Interrupted => {
                outcome.status = MinimizeStatus::Interrupted {
                    incumbent: Some((best_value, best_model)),
                };
                return finish(outcome, &mut prober, cost.lo);
            }
        }
    };

    outcome.status = if upper <= external {
        MinimizeStatus::Optimal {
            value: best_value,
            model: best_model,
        }
    } else {
        // The search bottomed out against an external incumbent strictly
        // better than the local one: the optimum is proven to equal it, but
        // the model lives in the worker that published the bound.
        MinimizeStatus::ExternalOptimal { value: external }
    };
    finish(outcome, &mut prober, cost.lo)
}

fn minimize_fresh(problem: &IntProblem, cost: IntVar, opts: &MinimizeOptions) -> MinimizeOutcome {
    let mut outcome = MinimizeOutcome {
        status: MinimizeStatus::Infeasible,
        solve_calls: 0,
        encode: EncodeStats::default(),
        stats: SolverStats::default(),
        proofs: Vec::new(),
        certificate: None,
    };

    // One probe: fresh solver, bounds asserted hard — except under
    // certification, where window bounds enter through a guard literal
    // instead: hard-asserted bounds are folded into the encoding by
    // interval narrowing, which can refute the window *before* the solver
    // runs and leave no proof trace. The guard keeps the refutation inside
    // the trace, certified by the failed-assumption clause ¬guard.
    let probe = |bounds: Option<(i64, i64)>,
                 outcome: &mut MinimizeOutcome|
     -> (SolveResult, Option<(i64, Model)>) {
        let use_guard = opts.certify && bounds.is_some();
        let mut solver = opts.new_solver();
        let mut p = problem.clone();
        if !use_guard {
            if let Some((lo, hi)) = bounds {
                p.assert(cost.expr().ge(lo).and(cost.expr().le(hi)));
            }
        }
        // One `bisect-window` span per fresh-mode probe, with the `encode`
        // and `search` spans nested inside; the same stopwatch f64 feeds
        // `encode_ms` so the trace and stats agree exactly.
        let mut probe_sw = solver.config.obs.stopwatch(Phase::BisectWindow);
        if probe_sw.recording() {
            if let Some((lo, hi)) = bounds {
                probe_sw.attr("lo", lo.to_string());
                probe_sw.attr("hi", hi.to_string());
            }
        }
        let sw = solver.config.obs.stopwatch(Phase::Encode);
        let (form, decls) = p.prepare(&opts.encoder_opt);
        let mut bl = blast_with(&form, &decls, &mut solver, opts.backend, &opts.encoder_opt);
        let guard = use_guard.then(|| {
            let (lo, hi) = bounds.unwrap();
            let guard = solver.new_var().positive();
            bl.add_guarded_bounds(&mut solver, cost, lo, hi, guard);
            guard
        });
        let encode_ms = sw.finish();
        if outcome.solve_calls == 0 {
            outcome.encode = EncodeStats {
                bool_vars: solver.num_vars() as u64,
                literals: solver.num_literals(),
                constraints: solver.num_constraints(),
                encode_ms: 0.0,
            };
        }
        outcome.encode.encode_ms += encode_ms;
        outcome.solve_calls += 1;
        if bl.trivially_unsat() {
            return (SolveResult::Unsat, None);
        }
        solver.config.progress_window = bounds;
        let r = match guard {
            Some(g) => solver.solve(&[g]),
            None => solver.solve(&[]),
        };
        probe_sw.finish();
        outcome.stats.absorb(&solver.stats);
        if opts.certify && r == SolveResult::Unsat {
            if let Some(log) = solver.take_proof() {
                // Bounded refutation: claim ¬guard over the window. An
                // unbounded one means overall infeasibility — keep the
                // trace (it proves UNSAT outright) with no window.
                let windows = match (bounds, guard) {
                    (Some((lo, hi)), Some(g)) => vec![CertifiedWindow {
                        lo,
                        hi,
                        claim: vec![!g],
                        step: log.len(),
                    }],
                    _ => Vec::new(),
                };
                outcome.proofs.push(WindowProof {
                    log: Arc::new(log),
                    windows,
                });
            }
        }
        let witness = (r == SolveResult::Sat).then(|| {
            (
                bl.int_value(&solver, cost),
                problem.extract_model(&solver, &bl),
            )
        });
        (r, witness)
    };

    let first_bounds = opts
        .initial_upper
        .filter(|&u| u >= cost.lo)
        .map(|u| (cost.lo, u));
    let (r0, w0) = match probe(first_bounds, &mut outcome) {
        // A bad warm-start hint must not report Infeasible; retry unbounded.
        (SolveResult::Unsat, _) if first_bounds.is_some() => probe(None, &mut outcome),
        other => other,
    };
    let (mut best_value, mut best_model) = match r0 {
        SolveResult::Unsat => return outcome,
        SolveResult::Unknown => {
            outcome.status = MinimizeStatus::Unknown { incumbent: None };
            return outcome;
        }
        SolveResult::Interrupted => {
            outcome.status = MinimizeStatus::Interrupted { incumbent: None };
            return outcome;
        }
        SolveResult::Sat => w0.unwrap(),
    };
    opts.publish(best_value, &best_model);
    let mut lower = cost.lo;
    let mut upper = best_value;
    let mut bound_watch = opts.solver_config.paranoid.then(BoundWatch::new);

    let external = loop {
        if let (Some(w), Some(b)) = (bound_watch.as_mut(), opts.bounds.as_deref()) {
            w.observe(b);
        }
        // Fold in both sides of the shared lattice (see the incremental
        // variant for the protocol).
        let external = opts.external_upper();
        let proven_hi = upper.min(external);
        lower = lower.max(opts.external_lower());
        if lower >= proven_hi {
            break external;
        }
        let mid = lower + (proven_hi - lower) / 2;
        let (r, w) = probe(Some((lower, mid)), &mut outcome);
        match r {
            SolveResult::Sat => {
                let (k, m) = w.unwrap();
                debug_assert!(k >= lower && k <= mid);
                best_value = k;
                best_model = m;
                opts.publish(best_value, &best_model);
                upper = k;
            }
            // UNSAT over [L, M] proves the optimum exceeds M: `L := M + 1`,
            // not the paper's misprinted `L := M` (which loops forever once
            // R = L + 1 — see `terminates_from_r_equals_l_plus_one`).
            SolveResult::Unsat => {
                lower = mid + 1;
                opts.publish_lower(lower);
            }
            SolveResult::Unknown => {
                outcome.status = MinimizeStatus::Unknown {
                    incumbent: Some((best_value, best_model)),
                };
                return outcome;
            }
            SolveResult::Interrupted => {
                outcome.status = MinimizeStatus::Interrupted {
                    incumbent: Some((best_value, best_model)),
                };
                return outcome;
            }
        }
    };

    outcome.status = if upper <= external {
        MinimizeStatus::Optimal {
            value: best_value,
            model: best_model,
        }
    } else {
        MinimizeStatus::ExternalOptimal { value: external }
    };
    if opts.certify {
        if let MinimizeStatus::Optimal { value, model } = &outcome.status {
            outcome.certificate = Some(Certificate {
                optimum: *value,
                cost_lo: cost.lo,
                witness: model.clone(),
                proofs: outcome.proofs.clone(),
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

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

            // Off by default: no traces, no certificate.
            let out = p.minimize(x, &MinimizeOptions::default());
            assert!(out.proofs.is_empty());
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

    /// A shared bound below the local optimum is picked up between probes:
    /// the search proves nothing cheaper exists locally and defers to the
    /// external witness.
    #[test]
    fn external_bound_short_circuits() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 100);
        p.assert(x.expr().ge(7));

        // Another "worker" already holds a model of cost 7.
        let shared = Arc::new(BoundLattice::new());
        shared.publish_upper(7);
        let opts = MinimizeOptions {
            bounds: Some(shared.clone()),
            ..MinimizeOptions::default()
        };
        match p.minimize(x, &opts).status {
            // Either the local probe also reached 7 (Optimal) or the search
            // bottomed out against the shared bound first.
            MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 7),
            MinimizeStatus::ExternalOptimal { value } => assert_eq!(value, 7),
            ref s => panic!("unexpected status {s:?}"),
        }
        // The local search must never publish anything worse than 7, and it
        // certifies the matching lower bound (UNSAT below 7).
        assert_eq!(shared.upper(), 7);
        assert!(shared.lower() <= 7);
    }

    /// An externally certified lower bound skips the cheap half outright:
    /// with `lower = optimum` pre-seeded, the search needs no refutation
    /// probes at all — one SAT call lands on the optimum and the fold
    /// closes the window.
    #[test]
    fn external_lower_bound_prunes_probes() {
        for mode in [BinSearchMode::Incremental, BinSearchMode::Fresh] {
            let mut p = IntProblem::new();
            let x = p.int_var(0, 100);
            p.assert(x.expr().ge(7));

            let shared = Arc::new(BoundLattice::new());
            shared.publish_lower(7);
            let opts = MinimizeOptions {
                mode,
                bounds: Some(shared.clone()),
                // Warm-start the incumbent at the optimum so the remaining
                // window [7, 7) is empty after the first fold.
                initial_upper: Some(7),
                ..MinimizeOptions::default()
            };
            let out = p.minimize(x, &opts);
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 7, "{mode:?}"),
                ref s => panic!("{mode:?}: expected Optimal, got {s:?}"),
            }
            assert_eq!(out.solve_calls, 1, "{mode:?}: expected a single probe");
        }
    }

    /// Bound-crossing race: the `fetch_max` lower bound overtaking the
    /// `fetch_min` upper bound must terminate the search, not loop or
    /// panic. Covers both a *pre-crossed* lattice and a crossing that lands
    /// *mid-search* (published from the incumbent callback, i.e. while the
    /// search holds a model but has not folded the lattice yet).
    #[test]
    fn bound_crossing_terminates() {
        for mode in [BinSearchMode::Incremental, BinSearchMode::Fresh] {
            // Pre-crossed: lower = 50 > upper = 3 before the search starts.
            let mut p = IntProblem::new();
            let x = p.int_var(0, 100);
            p.assert(x.expr().ge(7));
            let crossed = Arc::new(BoundLattice::with_bounds(50, 3));
            let opts = MinimizeOptions {
                mode,
                bounds: Some(crossed),
                ..MinimizeOptions::default()
            };
            // Must return; any verdict is acceptable under a (deliberately
            // unsound) pre-crossed lattice, panics and hangs are not.
            let _ = p.minimize(x, &opts);

            // Mid-search crossing: as soon as the first incumbent appears,
            // "another worker" slams the lower bound far above it.
            let lattice = Arc::new(BoundLattice::new());
            let cb_lattice = Arc::clone(&lattice);
            let opts = MinimizeOptions {
                mode,
                bounds: Some(Arc::clone(&lattice)),
                on_incumbent: Some(Arc::new(move |value, _| {
                    cb_lattice.publish_lower(value + 10);
                })),
                ..MinimizeOptions::default()
            };
            let out = p.minimize(x, &opts);
            // The next fold sees lower > upper and stops with the incumbent.
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert!(value >= 7, "{mode:?}"),
                ref s => panic!("{mode:?}: expected Optimal, got {s:?}"),
            }
        }
    }
}
