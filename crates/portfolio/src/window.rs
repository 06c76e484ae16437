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
//! ## Conflict-sliced rounds
//!
//! Workers run barrier-synchronised *rounds*. In each round every worker
//! with a window probes it on its own incremental prober for at most
//! `ROUND_CONFLICTS` conflicts (one *slice*), and worker 0 then folds the
//! results **in worker-index order** and plans the next round:
//!
//! * A probe that used up its slice leaves its window *in flight*. If the
//!   window is still wholly unknown, the same worker resumes it next round
//!   under the same open guard literal, with every learned clause intact.
//!   A window that now lies above the ceiling or below the lower bound is
//!   dropped at this slice boundary; one that is partly stale is clipped to
//!   the unknown ground.
//! * Idle workers split the unknown ground no in-flight window covers; if
//!   none is left, they wait for the next round.
//!
//! Slices are counted in conflicts, not time, so window assignment, probe
//! sequence, solver statistics and the winning worker are bit-stable across
//! runs; the proven optimum is additionally identical across worker counts
//! (it is the true optimum, and every run certifies it exhaustively).
//!
//! `solver_config.max_conflicts` budgets each window, summed over its
//! slices: a window that uses it up comes back `Unknown`. A round in which
//! no probe adds knowledge and no window is left in flight — every window
//! came back budget-exhausted or interrupted — ends the search with the
//! incumbent; a slice that ran out counts as progress. That is how the
//! job-scoped cancel flag, which every worker's solver polls, stops a
//! running search. Ground whose window ran out of budget is not handed out
//! again until some probe adds knowledge, so exhausted budgets end the
//! search instead of cycling through fresh windows.
//!
//! A 1-worker search has nothing to divide: it runs the paper's sequential
//! `BIN_SEARCH` loop on one incremental prober ([`IntProblem::minimize`]),
//! the same search as a single-strategy solve.

use std::sync::{Barrier, Mutex};
use std::time::Instant;

use optalloc_intopt::{
    BinSearchMode, Certificate, CostProber, EncodeStats, IntProblem, IntVar, MinimizeOptions,
    MinimizeOutcome, MinimizeStatus, Model, Probe, WindowProof,
};
use optalloc_sat::SolverStats;

use crate::WorkerReport;

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
// Conflict-sliced round driver
// ----------------------------------------------------------------------

/// Conflicts a worker spends on its window per round before the fold. A
/// window a SAT result made stale stops at the next slice boundary; a
/// live one resumes under its open guard.
const ROUND_CONFLICTS: u64 = 2_000;

/// One worker's window for the coming round.
#[derive(Clone, Copy, Debug)]
struct Slot {
    window: (i64, i64),
    /// Conflicts spent on this window in earlier slices (0: a new window).
    spent: u64,
}

struct RoundState {
    known: Knowledge,
    /// Conflicts per slice.
    slice: u64,
    /// Conflicts per window, summed over its slices
    /// (`solver_config.max_conflicts`).
    budget: Option<u64>,
    /// Worker `i` probes `slots[i]` this round; `None` waits.
    slots: Vec<Option<Slot>>,
    /// This round's probe results with the conflicts each used, by worker.
    results: Vec<Option<(Probe, u64)>>,
    /// Windows that came back budget-exhausted or interrupted since the
    /// search last learned something. Their ground is not handed out again
    /// until it does, so exhausted budgets cannot cycle forever.
    stalled: Vec<(i64, i64)>,
    done: bool,
    winner: Option<usize>,
}

impl RoundState {
    /// The conflict limit of `slot`'s next slice: a full slice, or what is
    /// left of the window's budget.
    fn limit(&self, slot: Slot) -> u64 {
        self.budget
            .map_or(self.slice, |m| self.slice.min(m.saturating_sub(slot.spent)))
    }
}

/// The step between two rounds, run by worker 0 between barriers: fold the
/// previous round's results in worker-index order, then plan the next
/// round. A window whose slice ran out stays with its worker, clipped to
/// the ground still unknown, or is dropped once none of it is; idle workers
/// split the unknown ground no window covers.
fn step(st: &mut RoundState) {
    let results = std::mem::take(&mut st.results);
    let (mut probed, mut learned, mut sliced) = (false, false, false);
    for (j, r) in results.into_iter().enumerate() {
        let Some((probe, used)) = r else { continue };
        probed = true;
        let slot = st.slots[j].as_mut().expect("a result comes from a slot");
        slot.spent += used;
        if matches!(probe, Probe::Unknown) && st.budget.is_none_or(|m| slot.spent < m) {
            // The slice ran out, not the window's budget: still in flight.
            sliced = true;
            continue;
        }
        let window = slot.window;
        st.slots[j] = None;
        if st.known.fold(window, probe) {
            learned = true;
        } else {
            st.stalled.push(window);
        }
        // Checking after every fold step makes the winner — the worker
        // whose result closes the window — index-deterministic.
        if st.known.closed() {
            st.done = true;
            st.winner = Some(j);
            return;
        }
    }
    if probed && !learned && !sliced {
        // A round with zero new knowledge and no window in flight: every
        // probe came back budget-exhausted or interrupted. Re-running it
        // would loop forever; give up with the incumbent.
        st.done = true;
        return;
    }
    if learned {
        st.stalled.clear();
    }
    let known = &st.known;
    let mut covered = known.fragments.clone();
    covered.extend_from_slice(&st.stalled);
    // In-flight windows are disjoint from every other window and from the
    // refuted fragments, so only the ceiling and the lower bound cut them.
    for slot in st.slots.iter_mut() {
        let Some(s) = *slot else { continue };
        let clipped = (s.window.0.max(known.lower), s.window.1.min(known.ceiling));
        *slot = (clipped.0 <= clipped.1).then(|| Slot {
            window: clipped,
            // A clipped window is a new window: a new guard and budget.
            spent: if clipped == s.window { s.spent } else { 0 },
        });
        covered.extend(slot.map(|s| s.window));
    }
    let idle = st.slots.iter().filter(|s| s.is_none()).count();
    let mut fresh = split(&subtract(known.lower, known.ceiling, &mut covered), idle).into_iter();
    for slot in st.slots.iter_mut().filter(|s| s.is_none()) {
        *slot = fresh.next().map(|window| Slot { window, spent: 0 });
    }
    // Unreachable while the range is open, but a plan with nothing to probe
    // must end the search rather than spin at the barrier.
    st.done = st.slots.iter().all(Option::is_none);
    st.results = vec![None; st.slots.len()];
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

/// How a search ended: its outcome and every worker's report.
type Finish = (MinimizeOutcome, Vec<WorkerReport>);

/// Minimizes `cost` over `problem` with `workers` window-search workers
/// (see the module docs for the protocol and the determinism contract).
/// `opts` configure every worker's solver; their `mode` is ignored, since
/// workers are incremental. `solver_config.interrupt` is honoured as the
/// job-scoped cancel flag: raising it ends the search cooperatively with an
/// `Unknown` outcome carrying the best incumbent, whatever the worker
/// count. The search never raises it itself.
///
/// The outcome sums solve calls and solver counters over all workers and
/// reports worker 0's encoding size (every worker encodes the same
/// problem). With `opts.certify` its certificate is stitched from *every*
/// worker's proof traces: no single worker covers the whole range, so the
/// merged set of certified windows is what [`Certificate::verify`] checks
/// for gap-free coverage. The reports list the workers in index order.
pub fn minimize_window_search(
    problem: &IntProblem,
    cost: IntVar,
    opts: &MinimizeOptions,
    workers: usize,
) -> (MinimizeOutcome, Vec<WorkerReport>) {
    window_search(problem, cost, opts, workers, ROUND_CONFLICTS)
}

/// [`minimize_window_search`] with `slice` conflicts per round.
fn window_search(
    problem: &IntProblem,
    cost: IntVar,
    opts: &MinimizeOptions,
    workers: usize,
    slice: u64,
) -> (MinimizeOutcome, Vec<WorkerReport>) {
    let n = workers.max(1);
    let worker_opts = |i: usize| {
        // The clone keeps the caller's job-scoped interrupt flag, which
        // every worker's solver polls directly.
        let mut w = opts.clone();
        // Window workers keep one incremental solver across their probes.
        w.mode = BinSearchMode::Incremental;
        // Progress events from a window worker carry its index; the solver
        // stamps the per-probe window itself.
        w.solver_config.progress = w.solver_config.progress.map(|h| h.with_worker(i));
        w
    };

    if n == 1 {
        run_sequential(problem, cost, &worker_opts(0))
    } else {
        run_rounds(problem, cost, opts, n, &worker_opts, slice)
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
    let report = WorkerReport {
        index: 0,
        solve_calls: out.solve_calls,
        stats: out.stats.clone(),
        wall: start.elapsed(),
        winner: closed,
        windows: Vec::new(),
        round_conflicts: Vec::new(),
    };
    (out, vec![report])
}

/// Why locking the round state can fail.
const POISONED: &str = "a window worker panicked holding the round state";

/// `n ≥ 2` workers in conflict-sliced barrier rounds of `slice` conflicts
/// (see the module docs).
fn run_rounds(
    problem: &IntProblem,
    cost: IntVar,
    opts: &MinimizeOptions,
    n: usize,
    worker_opts: &dyn Fn(usize) -> MinimizeOptions,
    slice: u64,
) -> Finish {
    let state = Mutex::new(RoundState {
        known: Knowledge::new(cost, opts.initial_upper),
        slice,
        budget: opts.solver_config.max_conflicts,
        slots: vec![None; n],
        results: Vec::new(),
        stalled: Vec::new(),
        done: false,
        winner: None,
    });
    let barrier = Barrier::new(n);

    // Each worker hands back its report, its encoding size and its proof
    // trace with the windows it certified (certify mode only).
    let joined: Vec<(WorkerReport, EncodeStats, Vec<WindowProof>)> = std::thread::scope(|scope| {
        let state = &state;
        let barrier = &barrier;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wopts = worker_opts(i);
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut prober = CostProber::new(problem, cost, &wopts);
                    let mut windows = Vec::new();
                    let mut round_conflicts = Vec::new();
                    loop {
                        // Phase A: worker 0 folds the previous round (a
                        // no-op on the first pass) and plans the next one.
                        barrier.wait();
                        if i == 0 {
                            step(&mut state.lock().expect(POISONED));
                        }
                        barrier.wait();
                        // Phase B: probe one slice of the assigned window,
                        // if any.
                        let (done, job) = {
                            let st = state.lock().expect(POISONED);
                            (st.done, st.slots[i].map(|s| (s, st.limit(s))))
                        };
                        if done {
                            break;
                        }
                        let mut used = 0;
                        if let Some((slot, limit)) = job {
                            if slot.spent == 0 {
                                windows.push(slot.window);
                            }
                            let before = prober.stats().conflicts;
                            let probe = prober.probe_slice(slot.window, limit);
                            used = prober.stats().conflicts - before;
                            let mut st = state.lock().expect(POISONED);
                            st.results[i] = Some((probe, used));
                        }
                        round_conflicts.push(used);
                    }
                    let report = WorkerReport {
                        index: i,
                        solve_calls: prober.solve_calls(),
                        stats: prober.stats().clone(),
                        wall: start.elapsed(),
                        winner: false,
                        windows,
                        round_conflicts,
                    };
                    (report, prober.encode(), prober.take_proofs())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let st = state.into_inner().expect(POISONED);
    let status = st.known.status(st.winner.is_some());
    let encode = joined[0].1;
    let mut stats = SolverStats::default();
    let mut solve_calls = 0;
    let mut proofs = Vec::new();
    let mut reports = Vec::with_capacity(n);
    for (report, _, mut worker_proofs) in joined {
        stats.absorb(&report.stats);
        solve_calls += report.solve_calls;
        proofs.append(&mut worker_proofs);
        reports.push(report);
    }
    if let Some(w) = st.winner {
        reports[w].winner = true;
    }
    let certificate = Certificate::of_optimum(&status, cost.lo, opts.certify.then_some(proofs));
    let outcome = MinimizeOutcome {
        status,
        solve_calls,
        encode,
        stats,
        certificate,
    };
    (outcome, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};

    use optalloc_intopt::IntExpr;
    use optalloc_obs::ProgressHook;
    use proptest::prelude::*;

    use crate::test_problems::{arb_expr, problem};

    /// Slices of 1 and 10 conflicts: almost every probe resumes its window.
    const TINY_SLICES: [u64; 2] = [1, 10];

    fn optimum(status: &MinimizeStatus) -> Option<i64> {
        match status {
            MinimizeStatus::Optimal { value, .. } => Some(*value),
            MinimizeStatus::Infeasible => None,
            s => panic!("expected a decisive verdict, got {s:?}"),
        }
    }

    /// Windows resumed by some worker: slices beyond each window's first.
    fn resumes(reports: &[WorkerReport]) -> usize {
        reports
            .iter()
            .map(|w| w.solve_calls as usize - w.windows.len())
            .sum()
    }

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
            let (out, reports) =
                minimize_window_search(&p, cost, &MinimizeOptions::default(), workers);
            match out.status {
                MinimizeStatus::Optimal { value, ref model } => {
                    assert_eq!(value, 0, "workers={workers}");
                    assert_eq!(model.int(cost), 0);
                }
                ref s => panic!("workers={workers}: got {s:?}"),
            }
            assert_eq!(reports.iter().filter(|w| w.winner).count(), 1);
            assert_eq!(reports.len(), workers);
            if workers > 1 {
                // Every round cuts the unknown range into disjoint windows.
                let probed: usize = reports.iter().map(|w| w.windows.len()).sum();
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
        let (out, reports) = minimize_window_search(&p, cost, &MinimizeOptions::default(), 1);
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
        assert_eq!(reports.len(), 1);
        assert!(reports[0].winner);
    }

    #[test]
    fn pre_raised_job_flag_cancels_a_window_search() {
        // Workers poll the caller's flag directly; the first round makes no
        // progress and ends the search. No hang, no false optimum.
        let (p, cost) = instance();
        let mut opts = MinimizeOptions::default();
        opts.solver_config.interrupt = Some(Arc::new(AtomicBool::new(true)));
        let (out, reports) = minimize_window_search(&p, cost, &opts, 3);
        assert!(
            matches!(out.status, MinimizeStatus::Unknown { .. }),
            "got {:?}",
            out.status
        );
        assert!(reports.iter().all(|w| !w.winner));
    }

    /// `k` pairwise-distinct values in `[0, hi]` with the smallest sum,
    /// `k(k − 1)/2`: refuting every smaller sum is a pigeonhole argument,
    /// hard for CDCL as `k` grows.
    fn distinct_sum(k: usize, hi: i64) -> (IntProblem, IntVar) {
        let mut p = IntProblem::new();
        let xs: Vec<IntVar> = (0..k).map(|_| p.int_var(0, hi)).collect();
        for (i, a) in xs.iter().enumerate() {
            for b in &xs[i + 1..] {
                p.assert(a.expr().ne(b.expr()));
            }
        }
        let cost = p.int_var(0, k as i64 * hi);
        let sum = xs.iter().fold(IntExpr::constant(0), |s, x| s + x.expr());
        p.assert(cost.expr().eq(sum));
        (p, cost)
    }

    /// Nine distinct values in `[0, 15]`: proving that no sum below 36
    /// exists keeps three workers busy for over a minute, far longer than
    /// the cancel takes to land.
    fn distinct_sum_instance() -> (IntProblem, IntVar) {
        distinct_sum(9, 15)
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
        let mut opts = MinimizeOptions::default();
        opts.solver_config.interrupt = Some(Arc::clone(&flag));
        opts.solver_config.progress_every_conflicts = 64;
        opts.solver_config.progress_interval_ms = 0;
        opts.solver_config.progress = Some(ProgressHook::new(move |_| {
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
        let (out, reports) = minimize_window_search(&p, cost, &opts, 3);
        drop(opts);
        raiser.join().unwrap();
        assert!(flag.load(Ordering::Relaxed), "the flag was never raised");
        match out.status {
            MinimizeStatus::Unknown { .. } => assert!(reports.iter().all(|w| !w.winner)),
            MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 36),
            ref s => panic!("got {s:?}"),
        }
        // Every worker was joined and reported.
        assert_eq!(reports.len(), 3);
    }

    #[test]
    fn window_search_reports_infeasible() {
        let mut p = IntProblem::new();
        let x = p.int_var(0, 30);
        p.assert(x.expr().ge(10));
        p.assert(x.expr().le(9));
        for workers in [1, 3] {
            let (out, _) = minimize_window_search(&p, x, &MinimizeOptions::default(), workers);
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
            let opts = MinimizeOptions {
                initial_upper: Some(5),
                ..MinimizeOptions::default()
            };
            let (out, _) = minimize_window_search(&p, x, &opts, workers);
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
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        for workers in [1, 3] {
            let (out, _) = minimize_window_search(&p, x, &opts, workers);
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
        let (a, _) = minimize_window_search(&p, x, &opts, 3);
        let (b, _) = minimize_window_search(&p, x, &opts, 3);
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
        let opts = MinimizeOptions::default();
        let (a, ra) = minimize_window_search(&p, cost, &opts, 3);
        let (b, rb) = minimize_window_search(&p, cost, &opts, 3);
        assert_eq!(a.solve_calls, b.solve_calls);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.decisions, b.stats.decisions);
        for (wa, wb) in ra.iter().zip(&rb) {
            assert_eq!(wa.winner, wb.winner);
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

    #[test]
    fn tiny_slices_reach_the_single_search_optimum() {
        let opts = MinimizeOptions::default();
        for (p, cost) in [instance(), distinct_sum(5, 7)] {
            let single = optimum(&p.minimize(cost, &opts).status);
            for slice in TINY_SLICES {
                for workers in [2, 3] {
                    let (out, reports) = window_search(&p, cost, &opts, workers, slice);
                    assert_eq!(optimum(&out.status), single, "{workers}w/{slice}");
                    assert_eq!(reports.iter().filter(|w| w.winner).count(), 1);
                }
            }
        }
        // The slices bite: the pigeonhole instance resumes windows.
        let (p, cost) = distinct_sum(5, 7);
        let (_, reports) = window_search(&p, cost, &opts, 2, 10);
        assert!(resumes(&reports) > 0, "no window was resumed");
    }

    #[test]
    fn tiny_slices_certify() {
        let opts = MinimizeOptions {
            certify: true,
            ..MinimizeOptions::default()
        };
        let (p, cost) = distinct_sum(5, 7);
        for slice in TINY_SLICES {
            let (out, reports) = window_search(&p, cost, &opts, 3, slice);
            assert_eq!(optimum(&out.status), Some(10), "slice {slice}");
            assert!(
                resumes(&reports) > 0,
                "slice {slice}: no window was resumed"
            );
            let cert = out.certificate.expect("certificate stitched");
            let summary = cert
                .verify()
                .unwrap_or_else(|e| panic!("slice {slice}: {e}"));
            assert!(summary.windows > 0);
        }
    }

    #[test]
    fn tiny_slices_are_bit_stable() {
        let (p, cost) = distinct_sum(5, 7);
        let opts = MinimizeOptions::default();
        for slice in TINY_SLICES {
            let (a, ra) = window_search(&p, cost, &opts, 3, slice);
            let (b, rb) = window_search(&p, cost, &opts, 3, slice);
            assert_eq!(a.solve_calls, b.solve_calls);
            assert_eq!(a.stats.conflicts, b.stats.conflicts);
            assert_eq!(a.stats.decisions, b.stats.decisions);
            for (wa, wb) in ra.iter().zip(&rb) {
                assert_eq!(wa.winner, wb.winner);
                assert_eq!(wa.windows, wb.windows, "window assignment must be stable");
                assert_eq!(wa.round_conflicts, wb.round_conflicts);
                assert_eq!(wa.solve_calls, wb.solve_calls);
            }
        }
    }

    /// `max_conflicts` bounds a window over all its slices: with 50 per
    /// window the pigeonhole refutation never finishes, and the search
    /// ends `Unknown` instead of cycling through resumed and re-planned
    /// windows.
    #[test]
    fn window_budget_is_summed_over_slices() {
        let (p, cost) = distinct_sum_instance();
        let mut opts = MinimizeOptions::default();
        opts.solver_config.max_conflicts = Some(50);
        for slice in [ROUND_CONFLICTS, 10] {
            let (out, reports) = window_search(&p, cost, &opts, 2, slice);
            assert!(
                matches!(out.status, MinimizeStatus::Unknown { .. }),
                "slice {slice}: got {:?}",
                out.status
            );
            if slice == 10 {
                assert!(resumes(&reports) > 0, "no window was resumed");
                for w in &reports {
                    // Exhausted ground waits for new knowledge instead of
                    // going straight back out with a fresh budget.
                    assert!(
                        w.windows.windows(2).all(|p| p[0] != p[1]),
                        "worker {} re-probed an exhausted window: {:?}",
                        w.index,
                        w.windows
                    );
                    assert!(
                        w.stats.conflicts <= 50 * w.windows.len() as u64,
                        "worker {}: {} conflicts over {} windows",
                        w.index,
                        w.stats.conflicts,
                        w.windows.len()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The agreement property of `tests/prop.rs`, under tiny slices.
        #[test]
        fn tiny_slices_agree_on_random_problems(
            objective in arb_expr(),
            bound in 2i64..=10,
            sum_lo in 0i64..=8,
            k in 0usize..TINY_SLICES.len(),
        ) {
            let (p, cost) = problem(&objective, bound, sum_lo);
            let opts = MinimizeOptions::default();
            let single = optimum(&p.minimize(cost, &opts).status);
            let (out, _) = window_search(&p, cost, &opts, 3, TINY_SLICES[k]);
            prop_assert_eq!(optimum(&out.status), single);
        }
    }
}
