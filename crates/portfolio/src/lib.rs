//! # optalloc-portfolio
//!
//! Parallel **window search** over one encoded [`IntProblem`]
//! ([`minimize_window_search`]): N identical workers split the remaining
//! cost interval into **disjoint sub-windows**, so the terminal UNSAT
//! certification — which dominates the paper's Table-3 instances — is
//! solved once, divided across workers (see the [`window`] module docs).
//! Every probe result is folded into one record of the remaining range: a
//! SAT window lowers the incumbent, an UNSAT window refutes its range, and
//! refuted ranges touching the certified lower bound raise it.
//!
//! The search returns the same [`MinimizeOutcome`] as a single search,
//! plus one [`WorkerReport`] of per-worker facts for each worker: its
//! `SOLVE` calls, solver counters, wall time, probed windows and conflicts
//! per round, and whether its result closed the search.
//!
//! ## Determinism contract
//!
//! Workers run barrier-synchronised rounds of a fixed number of conflicts
//! each, with an index-ordered fold, so the output — optimum, witness,
//! winning worker, window assignment, solve calls and solver counters — is
//! bit-stable across runs. The proven
//! optimum is also the same for every worker count.
//!
//! [`IntProblem`]: optalloc_intopt::IntProblem
//! [`MinimizeOutcome`]: optalloc_intopt::MinimizeOutcome

#![warn(missing_docs)]

use std::fmt;
use std::time::Duration;

use optalloc_sat::SolverStats;

pub mod window;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_problems;

pub use window::minimize_window_search;

/// Per-worker execution record, for stats lines and ablation tables.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index.
    pub index: usize,
    /// `SOLVE` calls the worker issued.
    pub solve_calls: u32,
    /// The worker's solver counters.
    pub stats: SolverStats,
    /// Wall-clock time of the worker's search.
    pub wall: Duration,
    /// Whether this worker's result closed the search.
    pub winner: bool,
    /// Cost windows this worker probed, in order; a window resumed over
    /// several rounds appears once.
    pub windows: Vec<(i64, i64)>,
    /// Conflicts this worker spent in each round of the search, in order,
    /// 0 in a round it waited (empty for a 1-worker search, which runs no
    /// rounds).
    pub round_conflicts: Vec<u64>,
}

impl fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {}{}: {:.3}s — {} calls, {} conflicts, {} decisions, {} propagations, {} restarts, {} learned",
            self.index,
            if self.winner { " *winner*" } else { "" },
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
