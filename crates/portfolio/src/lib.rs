//! # optalloc-portfolio
//!
//! Parallel **window search** over one encoded [`IntProblem`]
//! ([`minimize_window_search`]): N identical workers split the remaining
//! cost interval into **disjoint sub-windows**, so the terminal UNSAT
//! certification — which dominates the paper's Table-3 instances — is
//! solved once, divided across workers (see the [`window`] module docs).
//!
//! Two cooperation channels make the workers more than the sum of their
//! parts:
//!
//! * **Shared knowledge** — every probe result is folded into one record of
//!   the remaining range: a SAT window lowers the incumbent, an UNSAT
//!   window refutes its range, and refuted ranges touching the certified
//!   lower bound raise it. Workers whose window went stale are interrupted
//!   and reassigned.
//! * **Learned-clause sharing** — workers solve the *same base encoding*
//!   incrementally and exchange short, low-glue learned clauses over a
//!   lock-free [`ClauseExchange`] ring — the multi-thread analogue of the
//!   paper's §7 incremental clause reuse.
//!
//! ## Determinism contract
//!
//! * `deterministic: false` — minimal wall-clock: workers are reassigned
//!   as soon as they finish. The optimal **cost** is always the same, but
//!   which equal-cost model witnesses it (and which worker closes the
//!   search, and how many solve calls are reported) depends on thread
//!   timing.
//! * `deterministic: true` — barrier-synchronised rounds with an
//!   index-ordered fold, no interrupts and no clause sharing. Output is
//!   bit-stable across runs (see the [`window`] module docs).
//!
//! [`ClauseExchange`]: optalloc_sat::ClauseExchange
//! [`IntProblem`]: optalloc_intopt::IntProblem

#![warn(missing_docs)]

use std::fmt;
use std::time::Duration;

use optalloc_intopt::{Certificate, EncodeStats, MinimizeOptions, MinimizeStatus};
use optalloc_sat::SolverStats;

pub mod window;

pub use window::minimize_window_search;

/// Options for [`minimize_window_search`].
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// Number of workers; a 1-worker search degenerates to sequential
    /// interval bisection.
    pub workers: usize,
    /// `true` runs barrier-synchronised rounds with an index-ordered fold —
    /// bit-stable output. `false` reassigns each worker as soon as it
    /// finishes — minimal wall-clock.
    pub deterministic: bool,
    /// Minimization options every worker's solver is configured from. Its
    /// `solver_config.exchange` field is overwritten by the scheduler, and
    /// `mode` is ignored (workers are incremental).
    /// `solver_config.interrupt` is honoured as the **job-scoped** cancel
    /// flag: raising it aborts every worker cooperatively (the hook a
    /// service timeout or shutdown uses). The search never raises it
    /// itself.
    pub base: MinimizeOptions,
    /// Print one stats line per worker to stderr after the run.
    pub verbose: bool,
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            workers: 4,
            deterministic: false,
            base: MinimizeOptions::default(),
            verbose: false,
        }
    }
}

/// What one worker's share of the search ended as (model-free summary).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkerVerdict {
    /// Closed the search on an optimum.
    Optimal,
    /// Closed the search by refuting the last of the cost range.
    Infeasible,
    /// Helped prove an optimum that another worker's result closed.
    ExternalOptimal,
    /// The conflict budget ran out, or the search was cancelled, first.
    Unknown,
    /// Stopped by another worker's result that proved infeasibility.
    Interrupted,
}

/// Per-worker execution record, for stats lines and ablation tables.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index.
    pub index: usize,
    /// Human-readable configuration descriptor, e.g. `win/pb/w0`.
    pub config: String,
    /// How the worker's search ended.
    pub verdict: WorkerVerdict,
    /// The cost the worker proved or last incumbent it held, if any.
    pub value: Option<i64>,
    /// `SOLVE` calls the worker issued.
    pub solve_calls: u32,
    /// The worker's solver counters.
    pub stats: SolverStats,
    /// Wall-clock time of the worker's search.
    pub wall: Duration,
    /// Whether this worker's result closed the search.
    pub winner: bool,
    /// Cost windows this worker probed, in order.
    pub windows: Vec<(i64, i64)>,
}

impl fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {} [{}]{}: {:?}{} in {:.3}s — {} calls, {} conflicts, {} decisions, {} propagations, {} restarts, {} learned",
            self.index,
            self.config,
            if self.winner { " *winner*" } else { "" },
            self.verdict,
            match self.value {
                Some(v) => format!(" (cost {v})"),
                None => String::new(),
            },
            self.wall.as_secs_f64(),
            self.solve_calls,
            self.stats.conflicts,
            self.stats.decisions,
            self.stats.propagations,
            self.stats.restarts,
            self.stats.learned,
        )?;
        if !self.windows.is_empty() {
            write!(f, ", {} windows", self.windows.len())?;
        }
        Ok(())
    }
}

/// Result of a window search.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The combined verdict.
    pub status: MinimizeStatus,
    /// Total `SOLVE` calls across all workers.
    pub solve_calls: u32,
    /// Encoding size reported by worker 0 (every worker encodes the same
    /// problem).
    pub encode: EncodeStats,
    /// Solver counters summed over all workers.
    pub stats: SolverStats,
    /// Index of the worker whose result closed the search, if any.
    pub winner: Option<usize>,
    /// Per-worker execution records, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Optimality certificate stitched from *every* worker's proof traces
    /// — present when [`MinimizeOptions::certify`] was set on the base
    /// options and the run ended [`MinimizeStatus::Optimal`]. No single
    /// worker covers the whole range, so the merged set of certified
    /// windows is what [`Certificate::verify`] checks for gap-free
    /// coverage.
    pub certificate: Option<Certificate>,
}
