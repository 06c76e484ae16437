//! The top-level optimizer: encode → `BIN_SEARCH` → decode → re-validate.

// `OptError::Budget` deliberately carries the best incumbent allocation so
// callers can use a partial result; errors are rare and never on a hot
// path, so the large `Err` variant is a fair trade for the simple API.
#![allow(clippy::result_large_err)]

use crate::decode::decode;
use crate::encode::objective::{variable_slot_media, ObjectiveError};
use crate::encode::Encoding;
use crate::options::{Objective, SolveOptions, Strategy};
use optalloc_analysis::{validate, AnalysisConfig, Report};
use optalloc_intopt::{
    Certificate, CertificateSummary, EncodeStats, IntVar, MinimizeOutcome, MinimizeStatus,
    WarmEngine, WarmMode,
};
use optalloc_model::{Allocation, Architecture, TaskSet};
use optalloc_obs::{Phase, PhaseTotals};
use optalloc_portfolio::{minimize_window_search, WorkerReport};
use optalloc_sat::SolverStats;
use std::time::{Duration, Instant};

/// A feasible allocation together with its independent analysis report.
#[derive(Clone, Debug)]
pub struct AllocationSolution {
    /// The decoded allocation `(Π, Φ, Γ)` plus chosen slot tables.
    pub allocation: Allocation,
    /// The analysis report re-validating the allocation (always feasible).
    pub report: Report,
}

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeReport {
    /// The optimal allocation.
    pub solution: AllocationSolution,
    /// The minimal objective value.
    pub cost: i64,
    /// Propositional encoding size — the paper's "Var." / "Lit." columns.
    pub encode: EncodeStats,
    /// Number of `SOLVE` calls the binary search issued.
    pub solve_calls: u32,
    /// Aggregated solver statistics (summed over all window-search
    /// workers).
    pub stats: SolverStats,
    /// Wall-clock time of the full run (encode + search + decode).
    pub wall: Duration,
    /// Per-phase wall-time breakdown. `encode_ms` and `search_ms` are the
    /// same numbers as `encode.encode_ms` and `stats.solve_ms` — all three
    /// are fed by the stopwatches that record the trace spans, so a trace
    /// written by [`optalloc_obs::Obs::write_trace`] sums to exactly these
    /// values.
    pub phases: PhaseTotals,
    /// Per-worker execution records when [`Strategy::WindowSearch`] ran;
    /// empty under [`Strategy::Single`].
    pub workers: Vec<WorkerReport>,
    /// The verified optimality certificate when
    /// [`SolveOptions::certify`](crate::SolveOptions::certify) was set.
    /// Verification already succeeded by the time the report exists; the
    /// certificate is retained so callers can re-check it or dump the DRAT
    /// traces (`--proof` in the CLI).
    pub certificate: Option<CertificateReport>,
}

/// A checked optimality certificate attached to an [`OptimizeReport`].
#[derive(Clone, Debug)]
pub struct CertificateReport {
    /// Checker aggregates (proof steps, verified additions, windows).
    pub summary: CertificateSummary,
    /// The full certificate: witness model plus per-solver DRAT traces.
    pub certificate: Certificate,
}

/// Why an optimization run produced no allocation.
#[derive(Debug)]
pub enum OptError {
    /// No allocation satisfies the constraints.
    Infeasible,
    /// The conflict budget ran out; carries the best incumbent if any probe
    /// succeeded before the abort.
    Budget {
        /// Best (cost, solution) found before giving up.
        incumbent: Option<(i64, AllocationSolution)>,
    },
    /// Objective incompatible with the architecture.
    Objective(ObjectiveError),
    /// Internal consistency failure: the solver's allocation did not pass
    /// independent re-validation (a bug, never expected).
    ValidationFailed(Report),
    /// Certification was requested but the optimality certificate failed
    /// verification — a rejected DRAT trace, a coverage gap below the
    /// optimum, or an objective value the independent analysis does not
    /// reproduce. Indicates a solver or encoder bug, never expected.
    CertificationFailed {
        /// Human-readable description of the failed check.
        reason: String,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Infeasible => write!(f, "no feasible allocation exists"),
            OptError::Budget { incumbent } => write!(
                f,
                "conflict budget exhausted ({} incumbent)",
                if incumbent.is_some() { "with" } else { "no" }
            ),
            OptError::Objective(e) => write!(f, "objective error: {e}"),
            OptError::ValidationFailed(r) => {
                write!(
                    f,
                    "solver allocation failed re-validation: {:?}",
                    r.violations
                )
            }
            OptError::CertificationFailed { reason } => {
                write!(f, "optimality certificate rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for OptError {}

/// The SAT-based optimal allocator (the paper's contribution, end to end).
///
/// ```
/// use optalloc::{Optimizer, Objective};
/// use optalloc_model::{Architecture, Ecu, EcuId, Medium, Task, TaskId, TaskSet};
///
/// let mut arch = Architecture::new();
/// let p0 = arch.push_ecu(Ecu::new("p0"));
/// let p1 = arch.push_ecu(Ecu::new("p1"));
/// arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
///
/// let mut tasks = TaskSet::new();
/// tasks.push(Task::new("a", 20, 20, vec![(p0, 8), (p1, 8)]));
/// tasks.push(Task::new("b", 20, 20, vec![(p0, 8), (p1, 8)]));
/// tasks.push(Task::new("c", 20, 19, vec![(p0, 8), (p1, 8)]));
///
/// // Three 40%-tasks cannot share one ECU; the optimizer must split them.
/// let result = Optimizer::new(&arch, &tasks)
///     .minimize(&Objective::MaxUtilizationPermille)
///     .unwrap();
/// assert!(result.solution.report.is_feasible());
/// assert_eq!(result.cost, 800); // 2 tasks × 40% on the fuller ECU
/// ```
pub struct Optimizer<'a> {
    arch: &'a Architecture,
    tasks: &'a TaskSet,
    opts: SolveOptions,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer with default options.
    pub fn new(arch: &'a Architecture, tasks: &'a TaskSet) -> Optimizer<'a> {
        Optimizer {
            arch,
            tasks,
            opts: SolveOptions::default(),
        }
    }

    /// Replaces the solve options (builder style).
    pub fn with_options(mut self, opts: SolveOptions) -> Optimizer<'a> {
        self.opts = opts;
        self
    }

    /// The analysis configuration consistent with the encoder settings; use
    /// it for any external re-validation.
    pub fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig {
            task_jitter: self.opts.task_jitter,
            gateway_service: self.opts.gateway_service,
        }
    }

    fn check(&self, alloc: Allocation) -> Result<AllocationSolution, OptError> {
        let report = validate(self.arch, self.tasks, &alloc, &self.analysis_config());
        if report.is_feasible() {
            Ok(AllocationSolution {
                allocation: alloc,
                report,
            })
        } else {
            Err(OptError::ValidationFailed(report))
        }
    }

    /// Verifies the optimality certificate end to end: DRAT traces checked
    /// and windows covering everything below the optimum
    /// ([`Certificate::verify`]), plus the independent witness replay —
    /// the decoded allocation's objective value, recomputed by the
    /// analysis layer, must equal the claimed optimum. (Feasibility of the
    /// witness was already re-validated by [`Optimizer::check`].)
    fn certify(
        &self,
        objective: &Objective,
        value: i64,
        alloc: &Allocation,
        certificate: Option<Certificate>,
    ) -> Result<CertificateReport, OptError> {
        let certificate = certificate.ok_or_else(|| OptError::CertificationFailed {
            reason: "the search produced no certificate".into(),
        })?;
        let summary = certificate
            .verify()
            .map_err(|e| OptError::CertificationFailed {
                reason: e.to_string(),
            })?;
        let recomputed = objective.value(self.arch, self.tasks, alloc);
        if recomputed != value {
            return Err(OptError::CertificationFailed {
                reason: format!(
                    "claimed optimum {value}, but independent analysis recomputes \
                     the witness objective as {recomputed}"
                ),
            });
        }
        Ok(CertificateReport {
            summary,
            certificate,
        })
    }

    /// Finds any feasible allocation (no objective), or proves none exists:
    /// [`minimize`](Optimizer::minimize) of [`Objective::Feasibility`],
    /// whose cost is fixed at 0.
    pub fn find_feasible(&self) -> Result<AllocationSolution, OptError> {
        self.minimize(&Objective::Feasibility).map(|r| r.solution)
    }

    /// Minimizes `objective` over all feasible allocations via the paper's
    /// binary-search scheme, returning a provably optimal allocation.
    pub fn minimize(&self, objective: &Objective) -> Result<OptimizeReport, OptError> {
        let start = Instant::now();
        let (enc, cost) = self.encode(objective)?;
        let min_opts = self.opts.minimize_options();
        let (outcome, workers) = match self.opts.strategy {
            Strategy::Single => (enc.problem.minimize(cost, &min_opts), Vec::new()),
            Strategy::WindowSearch { workers, .. } => {
                minimize_window_search(&enc.problem, cost, &min_opts, workers)
            }
        };
        self.report(objective, &enc, outcome, workers, start, self.opts.certify)
    }

    /// Re-solves through a long-lived [`WarmEngine`] instead of a one-shot
    /// search: the engine decides per call how much of the *previous* solve
    /// survives (retained solver with learned clauses, validated optimum
    /// hint, or nothing — see [`WarmMode`]) and this wrapper applies the
    /// same decode / re-validate / certify gates as
    /// [`minimize`](Optimizer::minimize). The optional `window` restricts
    /// the cost search to `lo ≤ cost ≤ hi`
    /// ([`OptError::Infeasible`] then means *no solution in the window*).
    ///
    /// The engine must have been constructed from
    /// [`SolveOptions::minimize_options`] of options equivalent to this
    /// optimizer's — in particular the same `certify` flag — since the
    /// engine's own options govern the search it runs. The configured
    /// [`Strategy`](crate::Strategy) is ignored: warm re-solving is
    /// inherently single-search (a retained solver serves one search at a
    /// time).
    pub fn minimize_warm(
        &self,
        objective: &Objective,
        engine: &mut WarmEngine,
        window: Option<(i64, i64)>,
    ) -> Result<(OptimizeReport, WarmMode), OptError> {
        let start = Instant::now();
        let (enc, cost) = self.encode(objective)?;
        let (outcome, mode) = engine.solve(&enc.problem, cost, window);
        let certify = engine.options().certify;
        let report = self.report(objective, &enc, outcome, Vec::new(), start, certify)?;
        Ok((report, mode))
    }

    /// Shared head of every optimization entry point: the instance encoded
    /// with the objective's slot-table variables, and its cost variable.
    fn encode(&self, objective: &Objective) -> Result<(Encoding<'_>, IntVar), OptError> {
        let slot_media = variable_slot_media(self.arch, objective).map_err(OptError::Objective)?;
        let mut enc = Encoding::build(self.arch, self.tasks, &self.opts, &slot_media);
        let cost = enc
            .encode_objective(objective)
            .map_err(OptError::Objective)?;
        if enc.infeasible {
            return Err(OptError::Infeasible);
        }
        Ok((enc, cost))
    }

    /// Shared tail of every optimization entry point: decode the winning
    /// model, re-validate it independently, verify the certificate when one
    /// was requested, and map non-optimal statuses to typed errors. The
    /// report's wall time runs from `start` to the end of the search.
    fn report(
        &self,
        objective: &Objective,
        enc: &Encoding,
        outcome: MinimizeOutcome,
        workers: Vec<WorkerReport>,
        start: Instant,
        certify: bool,
    ) -> Result<OptimizeReport, OptError> {
        let wall = start.elapsed();
        let (value, model) = match outcome.status {
            MinimizeStatus::Optimal { value, model } => (value, model),
            MinimizeStatus::Infeasible => return Err(OptError::Infeasible),
            MinimizeStatus::Unknown { incumbent } | MinimizeStatus::Interrupted { incumbent } => {
                let incumbent = match incumbent {
                    None => None,
                    Some((value, model)) => Some((value, self.check(decode(enc, &model))?)),
                };
                return Err(OptError::Budget { incumbent });
            }
        };
        // Every winner passes the same independent re-validation gate.
        let solution = self.check(decode(enc, &model))?;
        let mut certify_ms = 0.0;
        let certificate = if certify {
            // The stopwatch both times verification and records the
            // `certify` trace span from the same f64, mirroring the
            // encode/search attribution.
            let sw = self.opts.obs.stopwatch(Phase::Certify);
            let verified =
                self.certify(objective, value, &solution.allocation, outcome.certificate);
            certify_ms = sw.finish();
            Some(verified?)
        } else {
            None
        };
        Ok(OptimizeReport {
            solution,
            cost: value,
            encode: outcome.encode,
            solve_calls: outcome.solve_calls,
            phases: PhaseTotals {
                encode_ms: outcome.encode.encode_ms,
                search_ms: outcome.stats.solve_ms,
                certify_ms,
            },
            stats: outcome.stats,
            wall,
            workers,
            certificate,
        })
    }
}
