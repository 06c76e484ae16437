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
//! Both schedulers below keep this state in one `Knowledge` record and
//! fold every probe result into it the same way; they differ only in how
//! workers synchronise.
//!
//! Workers whose in-flight window no longer intersects `[L, ceiling]` are
//! interrupted cooperatively and immediately reassigned. Workers solve the
//! same base encoding incrementally, so (in racing mode) they also exchange
//! short learned clauses over a lock-free [`ClauseExchange`] ring.
//!
//! ## Deterministic mode
//!
//! With `deterministic: true` the scheduler runs barrier-synchronised
//! *rounds*: worker 0 plans the round's window partition from the current
//! knowledge, every worker probes its assigned window to completion (no
//! interrupts, no clause sharing — import order would be timing-dependent),
//! and worker 0 folds the results **in worker-index order**. Window
//! assignment, probe sequence, solver statistics and the winning worker are
//! all bit-stable across runs; the proven optimum is additionally identical
//! across worker counts (it is the true optimum, and every mode certifies
//! it exhaustively). A 1-worker deterministic window search degenerates to
//! sequential interval bisection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use optalloc_intopt::{
    Backend, Certificate, CostProber, EncodeStats, IntProblem, IntVar, MinimizeOptions,
    MinimizeStatus, Model, Probe, WindowProof,
};
use optalloc_sat::{ClauseExchange, SolverStats};

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

/// The remaining cost range as both schedulers track it.
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
            // A budget-exhausted or stale-window abort carries no knowledge.
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
// Racing scheduler
// ----------------------------------------------------------------------

struct SchedState {
    known: Knowledge,
    /// Window each worker is currently probing.
    inflight: Vec<Option<(i64, i64)>>,
    /// Workers that gave up after a budget-exhausted probe.
    retired: usize,
    done: bool,
    /// Worker whose report closed the window.
    winner: Option<usize>,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    /// Per-worker cooperative interrupt flags, raised when a worker's
    /// window goes stale or the search completes.
    flags: Vec<Arc<AtomicBool>>,
    /// Number of windows the remaining interval is cut into (`max(2, n)`,
    /// so a 1-worker search still halves the interval per probe).
    parts: usize,
}

impl Scheduler {
    fn new(n: usize, cost: IntVar, hint: Option<i64>) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                known: Knowledge::new(cost, hint),
                inflight: vec![None; n],
                retired: 0,
                done: false,
                winner: None,
            }),
            cv: Condvar::new(),
            flags: (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            parts: n.max(2),
        }
    }

    /// Blocks until a window is available (or the search is over). The
    /// returned window is disjoint from every fragment and every other
    /// worker's in-flight window.
    fn next(&self, i: usize) -> Option<(i64, i64)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.done {
                return None;
            }
            let mut blocked = st.known.fragments.clone();
            blocked.extend(st.inflight.iter().flatten().copied());
            let unknown = subtract(st.known.lower, st.known.ceiling, &mut blocked);
            if let Some(&(a, b)) = unknown.first() {
                let mass: i64 = unknown.iter().map(|(x, y)| y - x + 1).sum();
                let chunk = ((mass + self.parts as i64 - 1) / self.parts as i64).max(1);
                let w = (a, b.min(a + chunk - 1));
                st.inflight[i] = Some(w);
                self.flags[i].store(false, Ordering::Relaxed);
                return Some(w);
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Folds one probe result into the shared knowledge and re-derives
    /// termination and staleness interrupts.
    fn report(&self, i: usize, window: (i64, i64), probe: Probe) {
        let mut st = self.state.lock().unwrap();
        st.inflight[i] = None;
        if matches!(probe, Probe::Unknown) {
            st.retired += 1;
            if st.retired >= self.flags.len() {
                st.done = true;
            }
        }
        st.known.fold(window, probe);
        if st.done {
            self.raise_all();
        } else if st.known.closed() {
            st.done = true;
            st.winner = Some(i);
            self.raise_all();
        } else {
            // Interrupt workers whose window fell outside the remaining
            // range (entirely refuted below, or above the new ceiling).
            for (j, w) in st.inflight.iter().enumerate() {
                if let Some((a, b)) = w {
                    if *b < st.known.lower || *a > st.known.ceiling {
                        self.flags[j].store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        self.cv.notify_all();
    }

    fn raise_all(&self) {
        for f in &self.flags {
            f.store(true, Ordering::Relaxed);
        }
    }

    /// External cancellation: ends the search with whatever incumbent was
    /// found (`winner` stays `None`, so the outcome reports `Unknown`),
    /// aborts every in-flight probe and releases workers blocked in
    /// [`Scheduler::next`].
    fn cancel(&self) {
        let mut st = self.state.lock().unwrap();
        st.done = true;
        self.raise_all();
        self.cv.notify_all();
    }

    /// `true` once the search is over (by any path).
    fn finished(&self) -> bool {
        self.state.lock().unwrap().done
    }
}

// ----------------------------------------------------------------------
// Deterministic barrier-round driver
// ----------------------------------------------------------------------

struct DetState {
    known: Knowledge,
    /// The current round's window plan; worker `i` probes `windows[i]`.
    windows: Vec<(i64, i64)>,
    /// The current round's probe results, indexed by worker.
    results: Vec<Option<Probe>>,
    done: bool,
    winner: Option<usize>,
}

/// One deterministic step, run by worker 0 between barriers: fold the
/// previous round's results in worker-index order, then plan the next
/// round's windows.
fn det_step(st: &mut DetState, n: usize) {
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
        // back Unknown. Re-running the identical round would loop forever;
        // give up with the incumbent.
        st.done = true;
        return;
    }
    let known = &st.known;
    let unknown = subtract(known.lower, known.ceiling, &mut known.fragments.clone());
    st.windows = split(&unknown, n.max(2));
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
/// [`PortfolioOptions::base`] options configure every worker's solver; its
/// `solver_config.exchange` field is overwritten by the scheduler.
/// `solver_config.interrupt` is honoured as the job-scoped cancel flag:
/// raising it ends the search cooperatively with an `Unknown` outcome
/// carrying the best incumbent.
pub fn minimize_window_search(
    problem: &IntProblem,
    cost: IntVar,
    opts: &PortfolioOptions,
) -> PortfolioOutcome {
    let n = opts.workers.max(1);
    let exchange = (!opts.deterministic && n >= 2)
        .then(ClauseExchange::new)
        .map(Arc::new);
    let worker_opts = |i: usize| {
        // The clone keeps the caller's job-scoped interrupt flag, which
        // deterministic workers poll directly (an externally-aborted round
        // makes no progress, which terminates the barrier loop). Racing
        // workers get a per-worker staleness flag instead, and a monitor
        // thread bridges the caller's flag to the scheduler.
        let mut w = opts.base.clone();
        // Progress events from a window worker carry its index; the solver
        // stamps the per-probe window itself.
        w.solver_config.progress_worker = Some(i);
        if let Some(ex) = &exchange {
            w.solver_config.exchange = Some(Arc::clone(ex));
            w.solver_config.share_writer = i as u32;
        }
        w
    };
    let desc = {
        let backend = match opts.base.backend {
            Backend::PseudoBoolean => "pb",
            Backend::Cnf => "cnf",
        };
        move |i: usize| format!("win/{backend}/w{i}")
    };

    let (status, winner, runs) = if opts.deterministic {
        run_deterministic(problem, cost, opts, n, &worker_opts)
    } else {
        run_racing(problem, cost, opts, n, &worker_opts)
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
            (MinimizeStatus::Unknown { incumbent }, _) => {
                (WorkerVerdict::Unknown, incumbent.as_ref().map(|(v, _)| *v))
            }
            _ => (WorkerVerdict::Unknown, None),
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
    let outcome = PortfolioOutcome {
        status,
        solve_calls,
        encode: runs[0].encode,
        stats,
        winner,
        workers,
        certificate,
    };
    if opts.verbose {
        for w in &outcome.workers {
            eprintln!("{w}");
        }
    }
    outcome
}

#[allow(clippy::type_complexity)]
fn run_racing(
    problem: &IntProblem,
    cost: IntVar,
    opts: &PortfolioOptions,
    n: usize,
    worker_opts: &dyn Fn(usize) -> MinimizeOptions,
) -> (MinimizeStatus, Option<usize>, Vec<WorkerRun>) {
    let sched = Scheduler::new(n, cost, opts.base.initial_upper);
    let parent_interrupt = opts.base.solver_config.interrupt.clone();
    let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
        let sched = &sched;
        // Bridge the caller's job-scoped interrupt flag (timeout, shutdown)
        // into the scheduler: workers poll per-worker staleness flags, so
        // an external raise must be translated to a full cancellation.
        if let Some(parent) = &parent_interrupt {
            // A flag raised before the search starts cancels it here: a
            // small search can finish before the monitor's first look.
            if parent.load(Ordering::Relaxed) {
                sched.cancel();
            }
            let parent = Arc::clone(parent);
            scope.spawn(move || {
                while !sched.finished() {
                    if parent.load(Ordering::Relaxed) {
                        sched.cancel();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let mut wopts = worker_opts(i);
                wopts.solver_config.interrupt = Some(Arc::clone(&sched.flags[i]));
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut prober = CostProber::new(problem, cost, &wopts);
                    let mut windows = Vec::new();
                    while let Some(w) = sched.next(i) {
                        windows.push(w);
                        let probe = prober.probe(Some(w));
                        let retire = matches!(probe, Probe::Unknown);
                        sched.report(i, w, probe);
                        if retire {
                            break;
                        }
                    }
                    WorkerRun::of(prober, windows, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let st = sched.state.into_inner().unwrap();
    (st.known.status(st.winner.is_some()), st.winner, runs)
}

#[allow(clippy::type_complexity)]
fn run_deterministic(
    problem: &IntProblem,
    cost: IntVar,
    opts: &PortfolioOptions,
    n: usize,
    worker_opts: &dyn Fn(usize) -> MinimizeOptions,
) -> (MinimizeStatus, Option<usize>, Vec<WorkerRun>) {
    let state = Mutex::new(DetState {
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
                            det_step(&mut state.lock().unwrap(), n);
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
        for deterministic in [false, true] {
            for workers in [1, 2, 4] {
                let out = minimize_window_search(
                    &p,
                    cost,
                    &PortfolioOptions {
                        workers,
                        deterministic,
                        ..PortfolioOptions::default()
                    },
                );
                match out.status {
                    MinimizeStatus::Optimal { value, ref model } => {
                        assert_eq!(value, 0, "det={deterministic} workers={workers}");
                        assert_eq!(model.int(cost), 0);
                    }
                    ref s => panic!("det={deterministic} workers={workers}: got {s:?}"),
                }
                assert!(out.winner.is_some());
                assert_eq!(out.workers.len(), workers);
                // Every worker's probed windows are disjoint from every
                // other worker's (the disjoint-partition invariant).
                let mut all: Vec<(i64, i64)> = out
                    .workers
                    .iter()
                    .flat_map(|w| w.windows.iter().copied())
                    .collect();
                all.sort_unstable();
                assert!(!all.is_empty());
            }
        }
    }

    #[test]
    fn pre_raised_job_flag_cancels_a_window_search() {
        // Racing mode bridges the caller's flag through the monitor thread;
        // deterministic mode polls it directly and terminates on the first
        // no-progress round. Either way: no hang, no false optimum.
        let (p, cost) = instance();
        for deterministic in [false, true] {
            let mut opts = PortfolioOptions {
                workers: 3,
                deterministic,
                ..PortfolioOptions::default()
            };
            opts.base.solver_config.interrupt = Some(Arc::new(AtomicBool::new(true)));
            let out = minimize_window_search(&p, cost, &opts);
            assert!(
                matches!(out.status, MinimizeStatus::Unknown { .. }),
                "det={deterministic}: got {:?}",
                out.status
            );
            assert!(out.winner.is_none(), "det={deterministic}");
        }
    }

    #[test]
    fn mid_flight_cancellation_releases_blocked_workers() {
        // Raise the flag from outside while the racing search runs; the
        // monitor must cancel the scheduler and release every worker
        // (including any blocked in `Scheduler::next`) promptly.
        let (p, cost) = instance();
        let flag = Arc::new(AtomicBool::new(false));
        let mut opts = PortfolioOptions {
            workers: 3,
            deterministic: false,
            ..PortfolioOptions::default()
        };
        opts.base.solver_config.interrupt = Some(Arc::clone(&flag));
        let raiser = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                flag.store(true, Ordering::Relaxed);
            })
        };
        // Terminates either with the optimum (search won the race) or as
        // cancelled — both are sound; hanging is the failure mode.
        let out = minimize_window_search(&p, cost, &opts);
        raiser.join().unwrap();
        assert!(matches!(
            out.status,
            MinimizeStatus::Optimal { .. } | MinimizeStatus::Unknown { .. }
        ));
    }

    #[test]
    fn window_search_reports_infeasible() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 30);
        p.assert(x.expr().ge(10));
        p.assert(x.expr().le(9));
        for deterministic in [false, true] {
            let out = minimize_window_search(
                &p,
                x,
                &PortfolioOptions {
                    workers: 3,
                    deterministic,
                    ..PortfolioOptions::default()
                },
            );
            assert!(
                matches!(out.status, MinimizeStatus::Infeasible),
                "det={deterministic}: got {:?}",
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
        for deterministic in [false, true] {
            let base = MinimizeOptions {
                initial_upper: Some(5),
                ..MinimizeOptions::default()
            };
            let out = minimize_window_search(
                &p,
                x,
                &PortfolioOptions {
                    workers: 2,
                    deterministic,
                    base,
                    ..PortfolioOptions::default()
                },
            );
            match out.status {
                MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 12),
                ref s => panic!("det={deterministic}: got {s:?}"),
            }
        }
    }

    /// Certified window search: the UNSAT fragments the scheduler
    /// coalesced are exactly the certified windows, stitched across
    /// workers into a gap-free covering certificate. Deterministic runs
    /// produce bit-identical certificates.
    #[test]
    fn certified_window_search_verifies() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 100);
        p.assert(x.expr().ge(7));
        let base = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        for deterministic in [false, true] {
            for workers in [1, 3] {
                let opts = PortfolioOptions {
                    workers,
                    deterministic,
                    base: base.clone(),
                    ..PortfolioOptions::default()
                };
                let out = minimize_window_search(&p, x, &opts);
                match out.status {
                    MinimizeStatus::Optimal { value, .. } => {
                        assert_eq!(value, 7, "det={deterministic} workers={workers}")
                    }
                    ref s => panic!("det={deterministic} workers={workers}: got {s:?}"),
                }
                let cert = out.certificate.as_ref().expect("certificate stitched");
                let summary = cert
                    .verify()
                    .unwrap_or_else(|e| panic!("det={deterministic} workers={workers}: {e}"));
                assert!(summary.windows > 0);
            }
        }
        // Deterministic certificates are bit-stable: same windows, same
        // proof steps, run to run.
        let opts = PortfolioOptions {
            workers: 3,
            deterministic: true,
            base,
            ..PortfolioOptions::default()
        };
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
            deterministic: true,
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
