//! Parallel window search: disjoint sub-window scheduling.
//!
//! Racing N *complete* binary searches would repeat the terminal UNSAT
//! certification — proving that nothing cheaper than the incumbent
//! exists, which dominates on the paper's Table-3 instances and is
//! configuration-insensitive — N times. This module solves it **once,
//! divided**: the remaining cost interval `[L, ceiling]` is split into
//! disjoint sub-windows, one per worker, and every probe result shrinks the
//! interval for everyone:
//!
//! * `SAT` in a window yields a model of cost `k`; the incumbent drops to
//!   `k` and the ceiling to `k − 1`.
//! * `UNSAT` of a window `[a, b]` is an exhaustive refutation of that
//!   range. It is retained as a *fragment*; fragments touching the
//!   certified lower bound coalesce into it, so the lower bound only ever
//!   advances over *contiguously refuted* ground — a window refuted above a
//!   still-unknown gap does not move `L` until the gap closes.
//!
//! The search terminates when `L > ceiling`: with an incumbent that proves
//! it optimal (every cheaper cost refuted), without one it proves the
//! problem infeasible (the whole cost range refuted). An
//! `initial_upper` warm-start hint bounds the first ceiling and is
//! naturally skipped past when it turns out infeasible: once `L` crosses
//! the hint the ceiling reopens to the top of the cost range.
//!
//! ## Barrier rounds
//!
//! Workers run barrier-synchronised *rounds*: worker 0 cuts the unknown
//! part of `[L, ceiling]` into one window per worker, every worker probes
//! its window to completion on its own incremental prober, and worker 0
//! folds the results **in worker-index order**. Window assignment, probe
//! sequence, solver statistics and the winning worker are therefore
//! bit-stable across runs; the proven optimum is additionally identical
//! across worker counts (it is the true optimum, and every run certifies
//! it exhaustively).
//!
//! A round in which no probe adds knowledge — every window came back
//! budget-exhausted or interrupted — ends the search with the incumbent.
//! That is how the job-scoped cancel flag, which every worker's solver
//! polls, stops a running search.
//!
//! A 1-worker search has nothing to divide: it runs the paper's sequential
//! `BIN_SEARCH` loop on one incremental prober ([`IntProblem::minimize`]),
//! the same search as a single-strategy solve.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use optalloc_intopt::{
    Backend, BinSearchMode, Certificate, CostProber, EncodeStats, IntProblem, IntVar,
    MinimizeOptions, MinimizeStatus, Model, Probe, WindowProof,
};
use optalloc_sat::SolverStats;

use crate::{PortfolioOptions, PortfolioOutcome, WorkerReport, WorkerVerdict};

// ----------------------------------------------------------------------
// Interval arithmetic over the remaining cost range
// ----------------------------------------------------------------------

/// `[lower, ceiling]` minus the `blocked` intervals (sorted in place).
/// Blocked intervals may overlap each other and may extend outside the
/// range; the result is the ascending list of unknown sub-intervals.
fn subtract(lower: i64, ceiling: i64, blocked: &mut [(i64, i64)]) -> Vec<(i64, i64)> {
    blocked.sort_unstable();
    let mut out = Vec::new();
    let mut pos = lower;
    for &(a, b) in blocked.iter() {
        if b < pos {
            continue;
        }
        if a > ceiling {
            break;
        }
        if a > pos {
            out.push((pos, (a - 1).min(ceiling)));
        }
        pos = pos.max(b + 1);
        if pos > ceiling {
            break;
        }
    }
    if pos <= ceiling {
        out.push((pos, ceiling));
    }
    out
}

/// Cuts `intervals` into chunks of roughly `mass / parts` values each,
/// ascending. May return slightly more than `parts` chunks when interval
/// boundaries force extra cuts.
fn split(intervals: &[(i64, i64)], parts: usize) -> Vec<(i64, i64)> {
    let mass: i64 = intervals.iter().map(|(a, b)| b - a + 1).sum();
    if mass == 0 {
        return Vec::new();
    }
    let parts = parts.max(1) as i64;
    let chunk = ((mass + parts - 1) / parts).max(1);
    let mut out = Vec::new();
    for &(a, b) in intervals {
        let mut pos = a;
        while pos <= b {
            let end = (pos + chunk - 1).min(b);
            out.push((pos, end));
            pos = end + 1;
        }
    }
    out
}

/// Coalesces refuted fragments into the certified lower bound: any
/// fragment starting at or below `lower` is contiguously proven and its
/// end advances the bound. Returns the new lower bound; consumed
/// fragments are removed.
fn coalesce(mut lower: i64, fragments: &mut Vec<(i64, i64)>) -> i64 {
    fragments.sort_unstable();
    let mut k = 0;
    while k < fragments.len() && fragments[k].0 <= lower {
        lower = lower.max(fragments[k].1 + 1);
        k += 1;
    }
    fragments.drain(..k);
    lower
}

/// The highest cost still worth probing: one below the incumbent; else the
/// warm-start hint while it is still plausible; else the top of the cost
/// range. Deactivates the hint once an incumbent exists or the lower bound
/// has crossed it (the "naturally skipped past if infeasible" path).
fn ceiling_of(lower: i64, incumbent: Option<i64>, hint: &mut Option<i64>, cost_hi: i64) -> i64 {
    if hint.is_some_and(|h| lower > h || incumbent.is_some()) {
        *hint = None;
    }
    match (incumbent, *hint) {
        (Some(u), _) => u - 1,
        (None, Some(h)) => h,
        (None, None) => cost_hi,
    }
}

// ----------------------------------------------------------------------
// What the probes so far have established
// ----------------------------------------------------------------------

/// The remaining cost range as the probes so far have established it.
struct Knowledge {
    /// Certified lower bound: every cheaper cost is refuted.
    lower: i64,
    /// Highest cost still worth probing (see [`ceiling_of`]).
    ceiling: i64,
    /// Warm-start ceiling hint, until exhausted or superseded.
    hint: Option<i64>,
    /// Best witnessed (cost, model).
    incumbent: Option<(i64, Model)>,
    /// Refuted intervals above the certified lower bound, sorted, disjoint.
    fragments: Vec<(i64, i64)>,
    cost_hi: i64,
}

impl Knowledge {
    fn new(cost: IntVar, hint: Option<i64>) -> Knowledge {
        let hint = hint.filter(|&h| h >= cost.lo).map(|h| h.min(cost.hi));
        Knowledge {
            lower: cost.lo,
            ceiling: hint.unwrap_or(cost.hi),
            hint,
            incumbent: None,
            fragments: Vec::new(),
            cost_hi: cost.hi,
        }
    }

    /// Folds the result of probing `window` in, then re-derives the lower
    /// bound and the ceiling. Returns whether the probe added knowledge (a
    /// better incumbent or a refuted window).
    fn fold(&mut self, window: (i64, i64), probe: Probe) -> bool {
        let learned = match probe {
            Probe::Sat { value, model } => {
                let better = self.incumbent.as_ref().is_none_or(|(b, _)| value < *b);
                if better {
                    self.incumbent = Some((value, model));
                }
                better
            }
            Probe::Unsat => {
                self.fragments.push(window);
                true
            }
            // A budget-exhausted or cancelled probe carries no knowledge.
            Probe::Unknown | Probe::Interrupted => false,
        };
        self.lower = coalesce(self.lower, &mut self.fragments);
        let incumbent = self.incumbent.as_ref().map(|(v, _)| *v);
        self.ceiling = ceiling_of(self.lower, incumbent, &mut self.hint, self.cost_hi);
        learned
    }

    /// True once every cost up to the ceiling is refuted: the incumbent, if
    /// any, is optimal; without one the problem is infeasible.
    fn closed(&self) -> bool {
        self.lower > self.ceiling
    }

    /// The verdict of a search that `closed` (or stopped short).
    fn status(self, closed: bool) -> MinimizeStatus {
        match (closed, self.incumbent) {
            (false, incumbent) => MinimizeStatus::Unknown { incumbent },
            (true, None) => MinimizeStatus::Infeasible,
            (true, Some((value, model))) => MinimizeStatus::Optimal { value, model },
        }
    }
}

// ----------------------------------------------------------------------
// Barrier-round driver
// ----------------------------------------------------------------------

struct RoundState {
    known: Knowledge,
    /// The current round's window plan; worker `i` probes `windows[i]`.
    windows: Vec<(i64, i64)>,
    /// The current round's probe results, indexed by worker.
    results: Vec<Option<Probe>>,
    done: bool,
    winner: Option<usize>,
}

/// The step between two rounds, run by worker 0 between barriers: fold the
/// previous round's results in worker-index order, then plan the next
/// round's windows.
fn step(st: &mut RoundState, n: usize) {
    let results = std::mem::take(&mut st.results);
    let mut progress = false;
    for (j, r) in results.into_iter().enumerate() {
        let Some(r) = r else { continue };
        progress |= st.known.fold(st.windows[j], r);
        // Checking after every fold step makes the winner — the worker
        // whose result closes the window — index-deterministic.
        if st.known.closed() {
            st.done = true;
            st.winner = Some(j);
            return;
        }
    }
    if !st.windows.is_empty() && !progress {
        // A full round with zero new knowledge: every probed window came
        // back Unknown or Interrupted. Re-running the identical round would
        // loop forever; give up with the incumbent.
        st.done = true;
        return;
    }
    let known = &st.known;
    let unknown = subtract(known.lower, known.ceiling, &mut known.fragments.clone());
    st.windows = split(&unknown, n);
    st.windows.truncate(n);
    st.results = vec![None; n];
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

/// Per-worker run record collected after the join.
struct WorkerRun {
    windows: Vec<(i64, i64)>,
    solve_calls: u32,
    stats: SolverStats,
    wall: Duration,
    encode: EncodeStats,
    /// The worker's proof trace and certified windows (certify mode only).
    proofs: Vec<WindowProof>,
}

/// How a search ended: its verdict, the worker whose result closed it, and
/// every worker's run record.
type Finish = (MinimizeStatus, Option<usize>, Vec<WorkerRun>);

impl WorkerRun {
    fn of(mut prober: CostProber<'_>, windows: Vec<(i64, i64)>, start: Instant) -> WorkerRun {
        WorkerRun {
            windows,
            solve_calls: prober.solve_calls(),
            stats: prober.stats().clone(),
            wall: start.elapsed(),
            encode: prober.encode(),
            proofs: prober.take_proofs(),
        }
    }
}

/// Minimizes `cost` over `problem` with a parallel window search (see the
/// module docs for the protocol and the determinism contract). The
/// [`PortfolioOptions::base`] options configure every worker's solver.
/// `solver_config.interrupt` is honoured as the job-scoped cancel flag:
/// raising it ends the search cooperatively with an `Unknown` outcome
/// (`Interrupted` for one worker) carrying the best incumbent.
pub fn minimize_window_search(
    problem: &IntProblem,
    cost: IntVar,
    opts: &PortfolioOptions,
) -> PortfolioOutcome {
    let n = opts.workers.max(1);
    let worker_opts = |i: usize| {
        // The clone keeps the caller's job-scoped interrupt flag, which
        // every worker's solver polls directly.
        let mut w = opts.base.clone();
        // Window workers keep one incremental solver across their probes.
        w.mode = BinSearchMode::Incremental;
        // Progress events from a window worker carry its index; the solver
        // stamps the per-probe window itself.
        w.solver_config.progress_worker = Some(i);
        w
    };
    let desc = {
        let backend = match opts.base.backend {
            Backend::PseudoBoolean => "pb",
            Backend::Cnf => "cnf",
        };
        move |i: usize| format!("win/{backend}/w{i}")
    };

    let (status, winner, runs) = if n == 1 {
        run_sequential(problem, cost, &worker_opts(0))
    } else {
        run_rounds(problem, cost, opts, n, &worker_opts)
    };

    let optimum = match &status {
        MinimizeStatus::Optimal { value, .. } => Some(*value),
        _ => None,
    };
    let mut stats = SolverStats::default();
    let mut solve_calls = 0u32;
    let mut workers = Vec::with_capacity(n);
    for (i, run) in runs.iter().enumerate() {
        stats.absorb(&run.stats);
        solve_calls += run.solve_calls;
        let (verdict, value) = match (&status, winner) {
            (MinimizeStatus::Optimal { .. }, Some(w)) if w == i => {
                (WorkerVerdict::Optimal, optimum)
            }
            // The proof is collective; non-closing workers certified an
            // optimum whose witness may live elsewhere.
            (MinimizeStatus::Optimal { .. }, _) => (WorkerVerdict::ExternalOptimal, optimum),
            (MinimizeStatus::Infeasible, Some(w)) if w == i => (WorkerVerdict::Infeasible, None),
            (MinimizeStatus::Infeasible, _) => (WorkerVerdict::Interrupted, None),
            (
                MinimizeStatus::Unknown { incumbent } | MinimizeStatus::Interrupted { incumbent },
                _,
            ) => (WorkerVerdict::Unknown, incumbent.as_ref().map(|(v, _)| *v)),
        };
        workers.push(WorkerReport {
            index: i,
            config: desc(i),
            verdict,
            value,
            solve_calls: run.solve_calls,
            stats: run.stats.clone(),
            wall: run.wall,
            winner: winner == Some(i),
            windows: run.windows.clone(),
        });
    }

    let certificate = match &status {
        MinimizeStatus::Optimal { value, model } if opts.base.certify => Some(Certificate {
            optimum: *value,
            cost_lo: cost.lo,
            witness: model.clone(),
            proofs: runs.iter().flat_map(|r| r.proofs.iter().cloned()).collect(),
        }),
        _ => None,
    };
    PortfolioOutcome {
        status,
        solve_calls,
        encode: runs[0].encode,
        stats,
        winner,
        workers,
        certificate,
    }
}

/// One worker: the paper's sequential `BIN_SEARCH` over one incremental
/// prober, reported as the only window worker. Its first probe is the
/// unbounded `SOLVE(φ)`, so it records no windows.
fn run_sequential(problem: &IntProblem, cost: IntVar, opts: &MinimizeOptions) -> Finish {
    let start = Instant::now();
    let out = problem.minimize(cost, opts);
    let closed = matches!(
        out.status,
        MinimizeStatus::Optimal { .. } | MinimizeStatus::Infeasible
    );
    let run = WorkerRun {
        windows: Vec::new(),
        solve_calls: out.solve_calls,
        stats: out.stats,
        wall: start.elapsed(),
        encode: out.encode,
        proofs: out.proofs,
    };
    (out.status, closed.then_some(0), vec![run])
}

/// `n ≥ 2` workers in barrier rounds (see the module docs).
fn run_rounds(
    problem: &IntProblem,
    cost: IntVar,
    opts: &PortfolioOptions,
    n: usize,
    worker_opts: &dyn Fn(usize) -> MinimizeOptions,
) -> Finish {
    let state = Mutex::new(RoundState {
        known: Knowledge::new(cost, opts.base.initial_upper),
        windows: Vec::new(),
        results: Vec::new(),
        done: false,
        winner: None,
    });
    let barrier = Barrier::new(n);

    let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
        let state = &state;
        let barrier = &barrier;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wopts = worker_opts(i);
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut prober = CostProber::new(problem, cost, &wopts);
                    let mut windows = Vec::new();
                    loop {
                        // Phase A: worker 0 folds the previous round (a
                        // no-op on the first pass) and plans the next one.
                        barrier.wait();
                        if i == 0 {
                            step(&mut state.lock().unwrap(), n);
                        }
                        barrier.wait();
                        // Phase B: probe the assigned window, if any.
                        let (done, my_window) = {
                            let st = state.lock().unwrap();
                            (st.done, st.windows.get(i).copied())
                        };
                        if done {
                            break;
                        }
                        if let Some(w) = my_window {
                            windows.push(w);
                            let probe = prober.probe(Some(w));
                            state.lock().unwrap().results[i] = Some(probe);
                        }
                    }
                    WorkerRun::of(prober, windows, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let st = state.into_inner().unwrap();
    (st.known.status(st.winner.is_some()), st.winner, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};

    use optalloc_intopt::IntExpr;
    use optalloc_obs::ProgressHook;

    fn instance() -> (IntProblem, IntVar) {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 20);
        let y = p.int_var(0, 20);
        let cost = p.int_var(0, 400);
        p.assert((x.expr() + y.expr()).ge(10));
        p.assert(cost.expr().eq(x.expr() * y.expr() + x.expr()));
        (p, cost)
    }

    #[test]
    fn subtract_and_split_cover_without_overlap() {
        let unknown = subtract(0, 99, &mut [(10, 19), (40, 59)]);
        assert_eq!(unknown, vec![(0, 9), (20, 39), (60, 99)]);
        let chunks = split(&unknown, 4);
        // Chunks tile the unknown region exactly, in ascending order.
        let mass: i64 = chunks.iter().map(|(a, b)| b - a + 1).sum();
        assert_eq!(mass, 10 + 20 + 40);
        for w in chunks.windows(2) {
            assert!(w[0].1 < w[1].0);
        }
        // Degenerate cases.
        assert!(subtract(5, 4, &mut []).is_empty());
        assert_eq!(subtract(0, 9, &mut []), vec![(0, 9)]);
        assert!(subtract(0, 9, &mut [(0, 9)]).is_empty());
    }

    #[test]
    fn coalesce_advances_only_over_contiguous_ground() {
        // A fragment above a gap must not move the bound...
        let mut frags = vec![(10, 19)];
        assert_eq!(coalesce(0, &mut frags), 0);
        assert_eq!(frags, vec![(10, 19)]);
        // ...until the gap closes, at which point both are consumed.
        frags.push((0, 9));
        assert_eq!(coalesce(0, &mut frags), 20);
        assert!(frags.is_empty());
    }

    #[test]
    fn hint_is_skipped_past_when_infeasible() {
        let mut hint = Some(5);
        // Lower crossed the hint: the ceiling reopens to the range top.
        assert_eq!(ceiling_of(6, None, &mut hint, 100), 100);
        assert_eq!(hint, None);
        // An incumbent always takes precedence over a hint.
        let mut hint = Some(50);
        assert_eq!(ceiling_of(0, Some(30), &mut hint, 100), 29);
        assert_eq!(hint, None);
    }

    #[test]
    fn window_search_finds_optimum() {
        let (p, cost) = instance();
        for workers in [1, 2, 4] {
            let out = minimize_window_search(
                &p,
                cost,
                &PortfolioOptions {
                    workers,
                    ..PortfolioOptions::default()
                },
            );
            match out.status {
                MinimizeStatus::Optimal { value, ref model } => {
                    assert_eq!(value, 0, "workers={workers}");
                    assert_eq!(model.int(cost), 0);
                }
                ref s => panic!("workers={workers}: got {s:?}"),
            }
            assert!(out.winner.is_some());
            assert_eq!(out.workers.len(), workers);
            if workers > 1 {
                // Every round cuts the unknown range into disjoint windows.
                let probed: usize = out.workers.iter().map(|w| w.windows.len()).sum();
                assert!(probed > 0, "workers={workers}");
            }
        }
    }

    /// One worker runs the sequential `BIN_SEARCH` loop: the same probes,
    /// the same counters and the same optimum as `IntProblem::minimize`.
    #[test]
    fn one_worker_is_the_sequential_search() {
        let (p, cost) = instance();
        let single = p.minimize(cost, &MinimizeOptions::default());
        let out = minimize_window_search(
            &p,
            cost,
            &PortfolioOptions {
                workers: 1,
                ..PortfolioOptions::default()
            },
        );
        match (&single.status, &out.status) {
            (
                MinimizeStatus::Optimal { value: a, .. },
                MinimizeStatus::Optimal { value: b, .. },
            ) => assert_eq!(a, b),
            (s, t) => panic!("expected Optimal twice, got {s:?} / {t:?}"),
        }
        assert_eq!(out.solve_calls, single.solve_calls);
        assert_eq!(out.stats.conflicts, single.stats.conflicts);
        assert_eq!(out.stats.decisions, single.stats.decisions);
        assert_eq!(out.winner, Some(0));
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].verdict, WorkerVerdict::Optimal);
    }

    #[test]
    fn pre_raised_job_flag_cancels_a_window_search() {
        // Workers poll the caller's flag directly; the first round makes no
        // progress and ends the search. No hang, no false optimum.
        let (p, cost) = instance();
        let mut opts = PortfolioOptions {
            workers: 3,
            ..PortfolioOptions::default()
        };
        opts.base.solver_config.interrupt = Some(Arc::new(AtomicBool::new(true)));
        let out = minimize_window_search(&p, cost, &opts);
        assert!(
            matches!(out.status, MinimizeStatus::Unknown { .. }),
            "got {:?}",
            out.status
        );
        assert!(out.winner.is_none());
    }

    /// Nine pairwise-distinct values in `[0, 15]` with the smallest sum:
    /// proving that no sum below 36 exists is a pigeonhole argument that
    /// keeps three workers busy for over a minute, far longer than the
    /// cancel takes to land.
    fn distinct_sum_instance() -> (IntProblem, IntVar) {
        let mut p = IntProblem::new();
        let xs: Vec<IntVar> = (0..9).map(|_| p.int_var(0, 15)).collect();
        for (i, a) in xs.iter().enumerate() {
            for b in &xs[i + 1..] {
                p.assert(a.expr().ne(b.expr()));
            }
        }
        let cost = p.int_var(0, 9 * 15);
        let sum = xs.iter().fold(IntExpr::constant(0), |s, x| s + x.expr());
        p.assert(cost.expr().eq(sum));
        (p, cost)
    }

    #[test]
    fn mid_flight_cancellation_releases_blocked_workers() {
        // Raise the job flag from another thread once a worker reports
        // search progress, so it lands while the rounds are running. The
        // interrupted probes make the round progress-free, which ends the
        // search; workers waiting at the barrier are released with it.
        let (p, cost) = distinct_sum_instance();
        let flag = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<()>();
        let mut opts = PortfolioOptions {
            workers: 3,
            ..PortfolioOptions::default()
        };
        opts.base.solver_config.interrupt = Some(Arc::clone(&flag));
        opts.base.solver_config.progress_every_conflicts = 64;
        opts.base.solver_config.progress_interval_ms = 0;
        opts.base.solver_config.progress = Some(ProgressHook::new(move |_| {
            let _ = tx.send(());
        }));
        let raiser = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                // The sender drops with the search's options, so a search
                // that ends before reporting progress does not block this.
                if rx.recv().is_ok() {
                    flag.store(true, Ordering::Relaxed);
                }
            })
        };
        let out = minimize_window_search(&p, cost, &opts);
        drop(opts);
        raiser.join().unwrap();
        assert!(flag.load(Ordering::Relaxed), "the flag was never raised");
        match out.status {
            MinimizeStatus::Unknown { .. } => assert!(out.winner.is_none()),
            MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 36),
            ref s => panic!("got {s:?}"),
        }
        // Every worker was joined and reported.
        assert_eq!(out.workers.len(), 3);
    }

    #[test]
    fn window_search_reports_infeasible() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 30);
        p.assert(x.expr().ge(10));
        p.assert(x.expr().le(9));
        for workers in [1, 3] {
            let out = minimize_window_search(
                &p,
                x,
                &PortfolioOptions {
                    workers,
                    ..PortfolioOptions::default()
                },
            );
            assert!(
                matches!(out.status, MinimizeStatus::Infeasible),
                "workers={workers}: got {:?}",
                out.status
            );
        }
    }

    #[test]
    fn infeasible_warm_start_hint_is_skipped() {
        // Optimum is 12; a hint of 5 covers only infeasible ground and
        // must be crossed, not believed.
        let mut p = IntProblem::new();
        let x = p.int_var(0, 50);
        p.assert(x.expr().ge(12));
        for workers in [1, 2] {
            let base = MinimizeOptions {
                initial_upper: Some(5),
                ..MinimizeOptions::default()
            };
            let out = minimize_window_search(&p, x, &PortfolioOptions { workers, base });
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 12),
                ref s => panic!("workers={workers}: got {s:?}"),
            }
        }
    }

    /// Certified window search: the UNSAT fragments the scheduler
    /// coalesced are exactly the certified windows, stitched across
    /// workers into a gap-free covering certificate. Repeated runs produce
    /// bit-identical certificates.
    #[test]
    fn certified_window_search_verifies() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 100);
        p.assert(x.expr().ge(7));
        let base = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        for workers in [1, 3] {
            let opts = PortfolioOptions {
                workers,
                base: base.clone(),
            };
            let out = minimize_window_search(&p, x, &opts);
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 7, "workers={workers}"),
                ref s => panic!("workers={workers}: got {s:?}"),
            }
            let cert = out.certificate.as_ref().expect("certificate stitched");
            let summary = cert
                .verify()
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert!(summary.windows > 0);
        }
        // Certificates are bit-stable: same windows, same proof steps, run
        // to run.
        let opts = PortfolioOptions { workers: 3, base };
        let a = minimize_window_search(&p, x, &opts);
        let b = minimize_window_search(&p, x, &opts);
        let (sa, sb) = (
            a.certificate.unwrap().verify().unwrap(),
            b.certificate.unwrap().verify().unwrap(),
        );
        assert_eq!(sa.windows, sb.windows);
        assert_eq!(sa.steps, sb.steps);
        assert_eq!(sa.adds_verified, sb.adds_verified);
    }

    #[test]
    fn deterministic_window_search_is_bit_stable() {
        let (p, cost) = instance();
        let opts = PortfolioOptions {
            workers: 3,
            ..PortfolioOptions::default()
        };
        let a = minimize_window_search(&p, cost, &opts);
        let b = minimize_window_search(&p, cost, &opts);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.solve_calls, b.solve_calls);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.decisions, b.stats.decisions);
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.windows, wb.windows, "window assignment must be stable");
            assert_eq!(wa.solve_calls, wb.solve_calls);
        }
        match (&a.status, &b.status) {
            (
                MinimizeStatus::Optimal { value: va, .. },
                MinimizeStatus::Optimal { value: vb, .. },
            ) => {
                assert_eq!(va, vb);
                assert_eq!(*va, 0);
            }
            (s, t) => panic!("expected Optimal twice, got {s:?} / {t:?}"),
        }
    }
}
