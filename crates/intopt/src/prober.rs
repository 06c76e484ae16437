//! A reusable cost-window probe engine.
//!
//! [`CostProber`] answers `SOLVE(φ ∧ lo ≤ cost ≤ hi)` queries against
//! arbitrary windows. It is the engine under the sequential `BIN_SEARCH`
//! loop ([`crate::binsearch`]) in both of the paper's modes, and under the
//! portfolio's parallel window scheduler, which assigns each worker's
//! incremental prober a disjoint sub-window of the remaining cost range.
//!
//! Every probe runs through one function, the incremental probe over one
//! encoded solver. Each bounded probe allocates a fresh guard literal,
//! attaches the window bounds guarded by it, assumes the guard for the
//! solve, and closes the guard afterwards so the dead bound clauses
//! simplify away. A probe cut short by a per-call conflict limit
//! ([`CostProber::probe_slice`]) is the exception: it leaves its guard
//! open, so a resumed slice of the same window assumes it again with no new
//! bound clauses and every learned clause that mentions it intact.
//!
//! An *incremental* prober ([`CostProber::new`]) keeps that solver, with
//! the problem encoded once, and carries every learned clause across probes
//! (the paper's §7 reuse). A *fresh* prober ([`CostProber::fresh`]) encodes
//! the problem into a new solver for every probe, probes it once and drops
//! it — the paper's baseline. Without certification a fresh probe asserts
//! its window hard into the encoding instead of guarding it, so interval
//! narrowing can refute the window before the solver runs.

use crate::binsearch::{EncodeStats, MinimizeOptions};
use crate::blast::{blast_with, Blast};
use crate::certificate::{CertifiedWindow, WindowProof};
use crate::problem::{IntProblem, Model};
use crate::IntVar;
use optalloc_obs::Phase;
use optalloc_sat::{Lit, SolveResult, Solver, SolverStats};
use std::borrow::Cow;
use std::sync::Arc;

/// Verdict of a single window probe.
#[derive(Clone, Debug)]
pub enum Probe {
    /// A model inside the window, with the cost it attains.
    Sat {
        /// Value of the cost variable in the witnessing model.
        value: i64,
        /// The witnessing model.
        model: Model,
    },
    /// No model inside the window (an exhaustive refutation).
    Unsat,
    /// Conflict budget, or a slice's conflict limit, exhausted before a
    /// verdict.
    Unknown,
    /// The cooperative interrupt flag was raised mid-solve.
    Interrupted,
}

/// A solver bound to one problem, answering cost-window queries (see the
/// module docs).
pub struct CostProber<'p> {
    problem: Cow<'p, IntProblem>,
    cost: IntVar,
    engine: Engine,
    encode: EncodeStats,
    /// The part of `encode.encode_ms` already handed out by
    /// [`CostProber::report_encode`].
    encode_ms_reported: f64,
    /// The solver counters already handed out by
    /// [`CostProber::report_stats`].
    stats_reported: SolverStats,
    solve_calls: u32,
    certify: bool,
}

// One engine per prober, built once per search: the size difference
// between the variants costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Incremental(Incremental),
    Fresh(Fresh),
}

/// One solver with the problem encoded once; bounds enter as guards.
struct Incremental {
    solver: Solver,
    bl: Blast,
    /// Windows refuted so far, when proof logging is on; paired with the
    /// solver's trace by [`Incremental::take_proof`].
    certified: Vec<CertifiedWindow>,
    /// The window whose last slice ran out of conflicts, with its guard,
    /// still open for a resumed slice.
    open: Option<((i64, i64), Lit)>,
}

/// What a fresh prober keeps of the solvers it drops.
struct Fresh {
    opts: MinimizeOptions,
    /// Statistics absorbed from every probe's solver.
    stats: SolverStats,
    /// One trace per refuting probe, when certifying.
    proofs: Vec<WindowProof>,
}

impl std::fmt::Debug for CostProber<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostProber")
            .field("cost", &self.cost)
            .field("fresh", &matches!(self.engine, Engine::Fresh(_)))
            .field("encode", &self.encode)
            .field("solve_calls", &self.solve_calls)
            .finish()
    }
}

impl<'p> CostProber<'p> {
    /// Encodes `problem` once into an incremental solver configured per
    /// `opts` (whatever `opts.mode` says).
    pub fn new(problem: &'p IntProblem, cost: IntVar, opts: &MinimizeOptions) -> CostProber<'p> {
        CostProber::incremental(Cow::Borrowed(problem), cost, opts)
    }

    /// Like [`CostProber::new`] but takes ownership of the problem, so the
    /// prober can outlive the caller's frame. This is what lets a warm-start
    /// engine retain a prober (encoding plus learned clauses) across
    /// re-solve requests (see [`crate::WarmEngine`]).
    pub fn new_owned(
        problem: IntProblem,
        cost: IntVar,
        opts: &MinimizeOptions,
    ) -> CostProber<'static> {
        CostProber::incremental(Cow::Owned(problem), cost, opts)
    }

    /// A prober that encodes `problem` into a new solver for every probe
    /// ([`crate::BinSearchMode::Fresh`], the paper's baseline). Nothing is
    /// encoded until the first probe, whose encoding size [`encode`]
    /// reports.
    ///
    /// [`encode`]: CostProber::encode
    pub fn fresh(problem: &'p IntProblem, cost: IntVar, opts: &MinimizeOptions) -> CostProber<'p> {
        let engine = Engine::Fresh(Fresh {
            opts: opts.clone(),
            stats: SolverStats::default(),
            proofs: Vec::new(),
        });
        CostProber::with_engine(
            Cow::Borrowed(problem),
            cost,
            opts,
            engine,
            EncodeStats::default(),
        )
    }

    fn incremental(
        problem: Cow<'p, IntProblem>,
        cost: IntVar,
        opts: &MinimizeOptions,
    ) -> CostProber<'p> {
        let (mut inc, encode) = Incremental::encode(&problem, opts);
        // The cost bits are re-referenced by every bounded probe's guard
        // clauses; keep them out of variable elimination.
        inc.bl.freeze_int_var(&mut inc.solver, cost);
        CostProber::with_engine(problem, cost, opts, Engine::Incremental(inc), encode)
    }

    fn with_engine(
        problem: Cow<'p, IntProblem>,
        cost: IntVar,
        opts: &MinimizeOptions,
        engine: Engine,
        encode: EncodeStats,
    ) -> CostProber<'p> {
        CostProber {
            problem,
            cost,
            engine,
            encode,
            encode_ms_reported: 0.0,
            stats_reported: SolverStats::default(),
            solve_calls: 0,
            certify: opts.certify,
        }
    }

    /// The problem this prober is bound to.
    pub fn problem(&self) -> &IntProblem {
        &self.problem
    }

    /// The cost variable this prober windows over.
    pub fn cost(&self) -> IntVar {
        self.cost
    }

    /// Number of learned clauses currently retained by the underlying
    /// solver (the cross-probe reuse haul; always 0 for a fresh prober).
    pub fn num_learned(&self) -> usize {
        match &self.engine {
            Engine::Incremental(inc) => inc.solver.num_learned(),
            Engine::Fresh(_) => 0,
        }
    }

    /// Drops the retained learned clauses (see
    /// [`optalloc_sat::Solver::clear_learned`]), returning how many were
    /// removed. Used at re-solve boundaries when the database outgrew the
    /// caller's retention budget.
    pub fn clear_learned(&mut self) -> usize {
        match &mut self.engine {
            Engine::Incremental(inc) => inc.solver.clear_learned(),
            Engine::Fresh(_) => 0,
        }
    }

    /// Size of the propositional encoding.
    pub fn encode(&self) -> EncodeStats {
        self.encode
    }

    /// Number of `SOLVE` calls issued so far.
    pub fn solve_calls(&self) -> u32 {
        self.solve_calls
    }

    /// Statistics accumulated by the underlying solver(s).
    pub fn stats(&self) -> &SolverStats {
        match &self.engine {
            Engine::Incremental(inc) => &inc.solver.stats,
            Engine::Fresh(fresh) => &fresh.stats,
        }
    }

    /// True when the encoding already refuted the problem (no probe
    /// needed). A fresh prober encodes per probe, so it reports such a
    /// refutation as an [`Probe::Unsat`] instead.
    pub fn trivially_unsat(&self) -> bool {
        match &self.engine {
            Engine::Incremental(inc) => inc.bl.trivially_unsat(),
            Engine::Fresh(_) => false,
        }
    }

    /// Whether the prober was built to certify (`MinimizeOptions::certify`).
    pub(crate) fn certifies(&self) -> bool {
        self.certify
    }

    /// The encoding size, with `encode_ms` limited to the encode time no
    /// earlier call handed out — so a retained prober's base encoding is
    /// reported once, by the search that built it.
    pub(crate) fn report_encode(&mut self) -> EncodeStats {
        let mut encode = self.encode;
        encode.encode_ms -= self.encode_ms_reported;
        self.encode_ms_reported = self.encode.encode_ms;
        encode
    }

    /// The solver counters no earlier call handed out — so the work of
    /// encoding (level-0 propagation of the input constraints) is reported
    /// once, by the search that built the prober, and a retained prober's
    /// later searches each report their own.
    pub(crate) fn report_stats(&mut self) -> SolverStats {
        let stats = self.stats().delta_since(&self.stats_reported);
        self.stats_reported = self.stats().clone();
        stats
    }

    /// Takes the proof traces recorded so far, each with the windows it
    /// refuted, for certificate assembly. Empty unless the solvers log
    /// proofs ([`optalloc_sat::SolverConfig::proof`], set by
    /// `MinimizeOptions::certify`). Draining: a second call returns only
    /// what was recorded after the first.
    pub fn take_proofs(&mut self) -> Vec<WindowProof> {
        match &mut self.engine {
            Engine::Incremental(inc) => inc.take_proof().into_iter().collect(),
            Engine::Fresh(fresh) => std::mem::take(&mut fresh.proofs),
        }
    }

    /// Probes the window `lo ≤ cost ≤ hi` (or the unbounded problem when
    /// `window` is `None`). An empty window (`lo > hi`) or a trivially
    /// refuted encoding is vacuously [`Probe::Unsat`] without touching the
    /// solver.
    pub fn probe(&mut self, window: Option<(i64, i64)>) -> Probe {
        self.probe_with(window, None)
    }

    /// Probes `window` like [`CostProber::probe`], but for at most `limit`
    /// conflicts, in place of `solver_config.max_conflicts`. When the limit
    /// runs out ([`Probe::Unknown`]) an incremental prober keeps the
    /// window's guard open: the next slice of the same window resumes under
    /// it, and probing any other window closes it first.
    pub fn probe_slice(&mut self, window: (i64, i64), limit: u64) -> Probe {
        self.probe_with(Some(window), Some(limit))
    }

    fn probe_with(&mut self, window: Option<(i64, i64)>, limit: Option<u64>) -> Probe {
        if self.trivially_unsat() || window.is_some_and(|(lo, hi)| lo > hi) {
            return Probe::Unsat;
        }
        self.solve_calls += 1;
        // A bounded probe is one `bisect-window` span: the encoding it needs
        // (a guard's bounds, or a fresh probe's whole problem) and the
        // solver's own `search` span nest inside it via the thread-local
        // span stack.
        let obs = match &self.engine {
            Engine::Incremental(inc) => &inc.solver.config.obs,
            Engine::Fresh(fresh) => &fresh.opts.solver_config.obs,
        };
        let _span = window.map(|(lo, hi)| {
            let mut sw = obs.stopwatch(Phase::BisectWindow);
            if sw.recording() {
                sw.attr("lo", lo.to_string());
                sw.attr("hi", hi.to_string());
            }
            sw
        });
        let (problem, cost) = (&*self.problem, self.cost);
        let fresh = match &mut self.engine {
            Engine::Incremental(inc) => {
                return inc.probe(problem, cost, window, false, limit, &mut self.encode)
            }
            Engine::Fresh(fresh) => fresh,
        };
        // Without certification the window is asserted hard, so interval
        // narrowing can refute it before the solver runs. Under
        // certification it enters through a guard: a refutation by
        // narrowing would leave no proof trace.
        let asserted = window.filter(|_| !self.certify);
        let encoded = match asserted {
            Some((lo, hi)) => {
                let mut p = problem.clone();
                p.assert(cost.expr().ge(lo).and(cost.expr().le(hi)));
                Cow::Owned(p)
            }
            None => Cow::Borrowed(problem),
        };
        let (mut inc, encode) = Incremental::encode(&encoded, &fresh.opts);
        if self.solve_calls == 1 {
            self.encode = encode;
        } else {
            self.encode.encode_ms += encode.encode_ms;
        }
        if inc.bl.trivially_unsat() {
            return Probe::Unsat;
        }
        let probe = inc.probe(
            problem,
            cost,
            window,
            asserted.is_some(),
            limit,
            &mut self.encode,
        );
        fresh.stats.absorb(&inc.solver.stats);
        // Only a refuting probe's trace certifies anything.
        fresh
            .proofs
            .extend(inc.take_proof().filter(|p| !p.windows.is_empty()));
        probe
    }
}

impl Incremental {
    /// Encodes `problem` into a new solver configured per `opts`, timed as
    /// one `encode` span.
    fn encode(problem: &IntProblem, opts: &MinimizeOptions) -> (Incremental, EncodeStats) {
        let mut solver = opts.new_solver();
        // The stopwatch both times the encoding and (when observability is
        // enabled) records the `encode` trace span from the *same* f64, so
        // `EncodeStats::encode_ms` and the trace can never disagree.
        let mut sw = solver.config.obs.stopwatch(Phase::Encode);
        let (form, decls) = problem.prepare(&opts.encoder_opt);
        let bl = blast_with(&form, &decls, &mut solver, opts.backend, &opts.encoder_opt);
        if sw.recording() {
            sw.attr("vars", solver.num_vars().to_string());
            sw.attr("constraints", solver.num_constraints().to_string());
        }
        let encode = EncodeStats {
            bool_vars: solver.num_vars() as u64,
            literals: solver.num_literals(),
            constraints: solver.num_constraints(),
            encode_ms: sw.finish(),
        };
        let inc = Incremental {
            solver,
            bl,
            certified: Vec::new(),
            open: None,
        };
        (inc, encode)
    }

    /// The one windowed solve: probes `window` (or the unbounded problem)
    /// through a guard literal, unless the encoding already `asserted` the
    /// window hard.
    fn probe(
        &mut self,
        problem: &IntProblem,
        cost: IntVar,
        window: Option<(i64, i64)>,
        asserted: bool,
        limit: Option<u64>,
        encode: &mut EncodeStats,
    ) -> Probe {
        let solver = &mut self.solver;
        // A guard left open by a sliced probe is resumed only by the same
        // window; any other probe closes it.
        let resumed = match self.open.take() {
            Some((w, guard)) if Some(w) == window => Some(guard),
            Some((_, guard)) => {
                solver.add_clause(&[!guard]);
                None
            }
            None => None,
        };
        let budget = solver.config.max_conflicts;
        if limit.is_some() {
            solver.config.max_conflicts = limit;
        }
        // A bounded probe assumes a guard over its window, unless the
        // encoding asserts the window hard.
        let guard = window.filter(|_| !asserted).map(|(lo, hi)| {
            resumed.unwrap_or_else(|| {
                // Guard-clause emission is encoding work: attribute it to
                // encode_ms so solve_ms stays pure search time even across
                // many reused probes. Same stopwatch-as-span pattern as the
                // base encoding.
                let mut sw = solver.config.obs.stopwatch(Phase::Encode);
                let guard = solver.new_var().positive();
                self.bl.add_guarded_bounds(solver, cost, lo, hi, guard);
                if sw.recording() {
                    sw.attr("pass", "guard-bounds");
                }
                encode.encode_ms += sw.finish();
                guard
            })
        });
        solver.config.progress_window = window;
        let result = solver.solve(guard.as_slice());
        let refuted = result == SolveResult::Unsat && solver.config.proof;
        match (window, guard) {
            (Some((lo, hi)), Some(guard)) => {
                if refuted {
                    // The failed-assumption clause ¬guard in the trace
                    // certifies "no model with lo ≤ cost ≤ hi" — anchored
                    // here, before the closing input below states it.
                    self.certified.push(CertifiedWindow {
                        lo,
                        hi,
                        claim: vec![!guard],
                        step: trace_len(solver),
                    });
                }
                if result == SolveResult::Unknown && limit.is_some() {
                    // The slice ran out: keep the guard for a resumed one.
                    self.open = Some(((lo, hi), guard));
                } else {
                    // Close the guard: it is never assumed again, so the
                    // dead bound clauses can simplify away.
                    solver.add_clause(&[!guard]);
                }
            }
            // Unbounded refutation: the trace proves the base formula UNSAT
            // outright (empty claim).
            (None, _) if refuted => self.certified.push(CertifiedWindow {
                lo: cost.lo,
                hi: cost.hi,
                claim: Vec::new(),
                step: trace_len(solver),
            }),
            // A hard-asserted window has no claim: its trace refutes the
            // problem and the window together.
            _ => {}
        }
        solver.config.max_conflicts = budget;
        verdict(result, problem, cost, &self.solver, &self.bl)
    }

    /// The proof trace recorded so far, with the windows it refutes; `None`
    /// unless the solver logs proofs. Draining.
    fn take_proof(&mut self) -> Option<WindowProof> {
        self.solver.take_proof().map(|log| WindowProof {
            log: Arc::new(log),
            windows: std::mem::take(&mut self.certified),
        })
    }
}

/// Length of the solver's proof trace so far (the anchor of a claim).
fn trace_len(solver: &Solver) -> usize {
    solver.proof().map_or(0, optalloc_sat::ProofLog::len)
}

/// The probe verdict for `r`, with the witness read off `solver` on SAT.
fn verdict(
    r: SolveResult,
    problem: &IntProblem,
    cost: IntVar,
    solver: &Solver,
    bl: &Blast,
) -> Probe {
    match r {
        SolveResult::Sat => Probe::Sat {
            value: bl.int_value(solver, cost),
            model: problem.extract_model(solver, bl),
        },
        SolveResult::Unsat => Probe::Unsat,
        SolveResult::Unknown => Probe::Unknown,
        SolveResult::Interrupted => Probe::Interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geq7() -> (IntProblem, IntVar) {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 100);
        p.assert(x.expr().ge(7));
        (p, x)
    }

    #[test]
    fn windows_partition_the_range() {
        let (p, x) = geq7();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, x, &opts);
        assert!(matches!(prober.probe(Some((0, 6))), Probe::Unsat));
        match prober.probe(Some((7, 20))) {
            Probe::Sat { value, model } => {
                assert!((7..=20).contains(&value));
                assert_eq!(model.int(x), value);
            }
            ref r => panic!("expected Sat, got {r:?}"),
        }
        // Empty window: vacuous refutation, no solve call.
        let calls = prober.solve_calls();
        assert!(matches!(prober.probe(Some((9, 3))), Probe::Unsat));
        assert_eq!(prober.solve_calls(), calls);
    }

    #[test]
    fn stats_are_per_call_monotone_and_attributed() {
        // Regression: guard-bound emission during `probe` must accrue to
        // encode_ms (not be dropped, not pollute solve_ms), and both
        // timers must be non-decreasing across reused probes.
        let (p, x) = geq7();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, x, &opts);
        let mut last_encode = prober.encode().encode_ms;
        let mut last_solve = prober.stats().solve_ms;
        assert!(last_encode >= 0.0);
        for window in [Some((0, 6)), Some((7, 50)), Some((0, 3)), None] {
            prober.probe(window);
            let e = prober.encode().encode_ms;
            let s = prober.stats().solve_ms;
            assert!(e >= last_encode, "encode_ms regressed: {e} < {last_encode}");
            assert!(s >= last_solve, "solve_ms regressed: {s} < {last_solve}");
            last_encode = e;
            last_solve = s;
        }
    }

    #[test]
    fn independent_probers_do_not_share_stats() {
        let (p, x) = geq7();
        let opts = MinimizeOptions::default();
        let mut a = CostProber::new(&p, x, &opts);
        let mut b = CostProber::new(&p, x, &opts);
        a.probe(Some((0, 6)));
        a.probe(Some((7, 30)));
        assert_eq!(a.solve_calls(), 2);
        assert_eq!(b.solve_calls(), 0);
        assert_eq!(b.stats().solve_ms, 0.0);
        b.probe(Some((0, 6)));
        assert_eq!(a.solve_calls(), 2, "a unchanged by b's probe");
        assert_eq!(b.solve_calls(), 1);
    }

    #[test]
    fn certified_windows_pair_with_the_trace() {
        let (p, x) = geq7();
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        let mut prober = CostProber::new(&p, x, &opts);
        assert!(matches!(prober.probe(Some((0, 6))), Probe::Unsat));
        assert!(matches!(prober.probe(Some((7, 100))), Probe::Sat { .. }));
        let [proof] = &prober.take_proofs()[..] else {
            panic!("certify records one trace");
        };
        assert_eq!(proof.windows.len(), 1, "only the UNSAT probe is certified");
        assert_eq!((proof.windows[0].lo, proof.windows[0].hi), (0, 6));
        let w = &proof.windows[0];
        let claim = optalloc_sat::Claim {
            clause: &w.claim,
            step: w.step,
        };
        optalloc_sat::check_proof(&proof.log, &[claim]).expect("claim proved at its anchor");
        assert!(prober.take_proofs().is_empty(), "take_proofs drains");
    }

    #[test]
    fn take_proof_twice_returns_none_and_keeps_probing_sound() {
        // Edge semantics pin: take_proofs is draining — the second call is
        // empty, and later refutations pair with a new trace rather than
        // one whose prefix was already taken.
        let (p, x) = geq7();
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        let mut prober = CostProber::new(&p, x, &opts);
        assert!(matches!(prober.probe(Some((0, 3))), Probe::Unsat));
        assert_eq!(prober.take_proofs().len(), 1);
        assert!(prober.take_proofs().is_empty(), "second take drains");
        // Probing still works after the drain…
        assert!(matches!(prober.probe(Some((7, 100))), Probe::Sat { .. }));
        assert!(matches!(prober.probe(Some((4, 6))), Probe::Unsat));
        // …and the post-drain refutation pairs with the *new* trace.
        let [proof] = &prober.take_proofs()[..] else {
            panic!("a new trace accumulates");
        };
        assert_eq!(proof.windows.len(), 1);
        assert_eq!((proof.windows[0].lo, proof.windows[0].hi), (4, 6));
    }

    #[test]
    fn take_proof_without_certify_is_always_none() {
        let (p, x) = geq7();
        let mut prober = CostProber::new(&p, x, &MinimizeOptions::default());
        prober.probe(Some((0, 3)));
        assert!(prober.take_proofs().is_empty());
        assert!(prober.take_proofs().is_empty());
    }

    #[test]
    fn probe_after_trivially_unsat_never_touches_the_solver() {
        // x ≥ 7 with x ∈ [0, 5] is refuted during encoding (interval
        // narrowing): every probe — bounded, inverted, unbounded — must
        // answer Unsat vacuously without a solve call.
        let mut p = IntProblem::new();
        let x = p.int_var(0, 5);
        p.assert(x.expr().ge(7));
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, x, &opts);
        assert!(prober.trivially_unsat());
        for window in [Some((0, 5)), Some((5, 0)), None] {
            assert!(matches!(prober.probe(window), Probe::Unsat));
        }
        assert_eq!(prober.solve_calls(), 0);
        assert_eq!(prober.stats().solve_ms, 0.0);
    }

    #[test]
    fn empty_and_inverted_windows_are_vacuous() {
        let (p, x) = geq7();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, x, &opts);
        // Inverted (lo > hi) windows of all shapes: no solver contact.
        for window in [(9, 3), (1, 0), (i64::MAX, i64::MIN), (8, 7)] {
            assert!(matches!(prober.probe(Some(window)), Probe::Unsat));
        }
        assert_eq!(prober.solve_calls(), 0);
        // Degenerate one-value windows are real probes, not vacuous.
        assert!(matches!(prober.probe(Some((7, 7))), Probe::Sat { .. }));
        assert!(matches!(prober.probe(Some((6, 6))), Probe::Unsat));
        assert_eq!(prober.solve_calls(), 2);
    }

    #[test]
    fn inverted_windows_are_not_certified() {
        // A vacuous refutation has no trace behind it: certifying it would
        // pair a window with a claim the DRAT log never derives.
        let (p, x) = geq7();
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        let mut prober = CostProber::new(&p, x, &opts);
        assert!(matches!(prober.probe(Some((9, 3))), Probe::Unsat));
        assert!(matches!(prober.probe(Some((0, 6))), Probe::Unsat));
        let [proof] = &prober.take_proofs()[..] else {
            panic!("certify records one trace");
        };
        assert_eq!(proof.windows.len(), 1, "only the real probe is certified");
        assert_eq!((proof.windows[0].lo, proof.windows[0].hi), (0, 6));
    }

    #[test]
    fn owned_prober_outlives_the_source_problem() {
        let opts = MinimizeOptions::default();
        let mut prober: CostProber<'static> = {
            let (p, x) = geq7();
            CostProber::new_owned(p, x, &opts)
        };
        match prober.probe(Some((0, 20))) {
            // A probe yields *some* witness in the window, not the minimum.
            Probe::Sat { value, .. } => assert!((7..=20).contains(&value)),
            ref r => panic!("expected Sat, got {r:?}"),
        }
        assert_eq!(prober.problem().num_asserts(), 1);
    }

    #[test]
    fn fresh_probes_count_every_encoding_and_keep_the_first_size() {
        let (p, x) = geq7();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::fresh(&p, x, &opts);
        assert!(!prober.trivially_unsat(), "nothing is encoded up front");
        assert_eq!(prober.encode().bool_vars, 0);
        assert!(matches!(prober.probe(None), Probe::Sat { .. }));
        let first = prober.encode();
        assert!(first.bool_vars > 0);
        // The hard-asserted window [0, 6] contradicts x ≥ 7; however the
        // re-encoding refutes it, the probe is a SOLVE call.
        assert!(matches!(prober.probe(Some((0, 6))), Probe::Unsat));
        assert!(matches!(prober.probe(Some((7, 9))), Probe::Sat { .. }));
        assert_eq!(prober.solve_calls(), 3);
        assert_eq!(prober.encode().bool_vars, first.bool_vars);
        assert!(prober.encode().encode_ms >= first.encode_ms);
        assert_eq!(prober.num_learned(), 0, "no solver outlives its probe");
    }

    #[test]
    fn unbounded_probe_yields_some_model() {
        let (p, x) = geq7();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, x, &opts);
        match prober.probe(None) {
            Probe::Sat { value, .. } => assert!(value >= 7),
            ref r => panic!("expected Sat, got {r:?}"),
        }
    }

    /// Six distinct values in `[0, 9]` summing to at most 14: a pigeonhole
    /// refutation that takes many conflicts.
    fn pigeonhole() -> (IntProblem, IntVar) {
        let mut p = IntProblem::new();
        let xs: Vec<IntVar> = (0..6).map(|_| p.int_var(0, 9)).collect();
        for (i, a) in xs.iter().enumerate() {
            for b in &xs[i + 1..] {
                p.assert(a.expr().ne(b.expr()));
            }
        }
        let cost = p.int_var(0, 54);
        let sum = xs
            .iter()
            .fold(crate::IntExpr::constant(0), |s, x| s + x.expr());
        p.assert(cost.expr().eq(sum));
        (p, cost)
    }

    fn num_vars(prober: &CostProber) -> usize {
        match &prober.engine {
            Engine::Incremental(inc) => inc.solver.num_vars(),
            Engine::Fresh(_) => unreachable!(),
        }
    }

    #[test]
    fn sliced_probe_resumes_under_its_open_guard() {
        let (p, cost) = pigeonhole();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, cost, &opts);
        assert!(matches!(prober.probe_slice((0, 14), 2), Probe::Unknown));
        let vars = num_vars(&prober);
        // Resumed slices add no guard and no bound clauses…
        let mut slices = 1;
        let verdict = loop {
            match prober.probe_slice((0, 14), 2) {
                Probe::Unknown => slices += 1,
                r => break r,
            }
            assert_eq!(num_vars(&prober), vars);
        };
        assert!(matches!(verdict, Probe::Unsat), "got {verdict:?}");
        assert!(slices > 1);
        assert_eq!(prober.solve_calls(), slices + 1);
        // …and the closed window's successor gets a fresh guard.
        assert!(matches!(
            prober.probe_slice((15, 54), 1_000),
            Probe::Sat { .. }
        ));
        assert!(num_vars(&prober) > vars);
    }

    #[test]
    fn probing_another_window_closes_an_open_guard() {
        let (p, cost) = pigeonhole();
        let opts = MinimizeOptions::default();
        let mut prober = CostProber::new(&p, cost, &opts);
        assert!(matches!(prober.probe_slice((0, 14), 2), Probe::Unknown));
        // Probing another window closes the open guard first.
        match prober.probe(Some((15, 15))) {
            Probe::Sat { value, .. } => assert_eq!(value, 15),
            r => panic!("expected Sat, got {r:?}"),
        }
        match &prober.engine {
            Engine::Incremental(inc) => assert!(inc.open.is_none()),
            Engine::Fresh(_) => unreachable!(),
        }
        // An unsliced probe never leaves a guard open, even when the
        // configured budget runs out.
        let opts = MinimizeOptions {
            solver_config: optalloc_sat::SolverConfig {
                max_conflicts: Some(2),
                ..Default::default()
            },
            ..MinimizeOptions::default()
        };
        let mut prober = CostProber::new(&p, cost, &opts);
        assert!(matches!(prober.probe(Some((0, 14))), Probe::Unknown));
        match &prober.engine {
            Engine::Incremental(inc) => assert!(inc.open.is_none()),
            Engine::Fresh(_) => unreachable!(),
        }
    }
}
