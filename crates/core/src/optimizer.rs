//! The top-level optimizer: encode → `BIN_SEARCH` → decode → re-validate.

// `OptError::Budget` deliberately carries the best incumbent allocation so
// callers can use a partial result; errors are rare and never on a hot
// path, so the large `Err` variant is a fair trade for the simple API.
#![allow(clippy::result_large_err)]

use crate::decode::decode;
use crate::encode::objective::{variable_slot_media, ObjectiveError};
use crate::encode::Encoding;
use crate::options::{Objective, SolveOptions, Strategy};
use optalloc_analysis::{
    bus_load_permille, ecu_utilization_permille, sum_trt, token_rotation_time,
    utilization_minmax_spread_permille, validate, AnalysisConfig, Report,
};
use optalloc_intopt::{
    Certificate, CertificateSummary, EncodeStats, MinimizeStatus, WarmEngine, WarmMode,
};
use optalloc_model::{Allocation, Architecture, TaskSet};
use optalloc_obs::{Phase, PhaseTotals};
use optalloc_portfolio::{minimize_window_search, PortfolioOptions, WorkerReport};
use optalloc_sat::{SolverConfig, SolverStats};
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

    /// Recomputes the objective value of a decoded allocation through the
    /// independent analysis layer — no encoder artifacts involved, so a
    /// match between this and the solver's claimed optimum closes the
    /// encoder out of the trusted base.
    fn recompute_objective(&self, objective: &Objective, alloc: &Allocation) -> i64 {
        match objective {
            Objective::TokenRotationTime(m) => {
                token_rotation_time(self.arch, alloc, *m).unwrap_or(0) as i64
            }
            Objective::SumTokenRotationTimes => sum_trt(self.arch, alloc) as i64,
            Objective::BusLoadPermille(m) => {
                bus_load_permille(self.arch, self.tasks, alloc, *m) as i64
            }
            Objective::MaxUtilizationPermille => {
                ecu_utilization_permille(self.tasks, alloc, self.arch.num_ecus())
                    .into_iter()
                    .max()
                    .unwrap_or(0) as i64
            }
            Objective::UtilizationSpreadPermille => {
                utilization_minmax_spread_permille(self.tasks, alloc, self.arch.num_ecus()) as i64
            }
            Objective::Feasibility => 0,
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
        let recomputed = self.recompute_objective(objective, alloc);
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

    /// Finds any feasible allocation (no objective), or proves none exists.
    pub fn find_feasible(&self) -> Result<AllocationSolution, OptError> {
        let enc = Encoding::build(self.arch, self.tasks, &self.opts, &[]);
        if enc.infeasible {
            return Err(OptError::Infeasible);
        }
        let mut config = SolverConfig {
            max_conflicts: self.opts.max_conflicts,
            interrupt: self.opts.interrupt.clone(),
            ..SolverConfig::default()
        };
        self.opts.search.configure(&mut config);
        config.paranoid = self.opts.paranoid;
        match enc.problem.solve_with_solver_config(
            self.opts.backend,
            config,
            &self.opts.encoder_opt,
        ) {
            Err(()) => Err(OptError::Budget { incumbent: None }),
            Ok(None) => Err(OptError::Infeasible),
            Ok(Some(model)) => self.check(decode(&enc, &model)),
        }
    }

    /// Minimizes `objective` over all feasible allocations via the paper's
    /// binary-search scheme, returning a provably optimal allocation.
    pub fn minimize(&self, objective: &Objective) -> Result<OptimizeReport, OptError> {
        let start = Instant::now();
        if matches!(objective, Objective::Feasibility) {
            // Feasibility has no cost; reuse find_feasible with cost 0.
            let solution = self.find_feasible()?;
            return Ok(OptimizeReport {
                solution,
                cost: 0,
                encode: EncodeStats::default(),
                solve_calls: 1,
                stats: SolverStats::default(),
                wall: start.elapsed(),
                phases: PhaseTotals::default(),
                workers: Vec::new(),
                certificate: None,
            });
        }

        let slot_media = variable_slot_media(self.arch, objective).map_err(OptError::Objective)?;
        let mut enc = Encoding::build(self.arch, self.tasks, &self.opts, &slot_media);
        let cost = enc
            .encode_objective(objective)
            .map_err(OptError::Objective)?
            .expect("non-feasibility objectives define a cost");
        if enc.infeasible {
            return Err(OptError::Infeasible);
        }

        let min_opts = self.opts.minimize_options();
        let (status, solve_calls, encode, stats, workers, certificate) = match self.opts.strategy {
            Strategy::Single => {
                let outcome = enc.problem.minimize(cost, &min_opts);
                (
                    outcome.status,
                    outcome.solve_calls,
                    outcome.encode,
                    outcome.stats,
                    Vec::new(),
                    outcome.certificate,
                )
            }
            Strategy::WindowSearch { workers, .. } => {
                let popts = PortfolioOptions {
                    workers,
                    base: min_opts,
                };
                let outcome = minimize_window_search(&enc.problem, cost, &popts);
                (
                    outcome.status,
                    outcome.solve_calls,
                    outcome.encode,
                    outcome.stats,
                    outcome.workers,
                    outcome.certificate,
                )
            }
        };
        let wall = start.elapsed();
        self.report_from_status(
            objective,
            &enc,
            status,
            solve_calls,
            encode,
            stats,
            workers,
            certificate,
            wall,
            self.opts.certify,
        )
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
        if matches!(objective, Objective::Feasibility) {
            let solution = self.find_feasible()?;
            return Ok((
                OptimizeReport {
                    solution,
                    cost: 0,
                    encode: EncodeStats::default(),
                    solve_calls: 1,
                    stats: SolverStats::default(),
                    wall: start.elapsed(),
                    phases: PhaseTotals::default(),
                    workers: Vec::new(),
                    certificate: None,
                },
                WarmMode::Cold,
            ));
        }

        let slot_media = variable_slot_media(self.arch, objective).map_err(OptError::Objective)?;
        let mut enc = Encoding::build(self.arch, self.tasks, &self.opts, &slot_media);
        let cost = enc
            .encode_objective(objective)
            .map_err(OptError::Objective)?
            .expect("non-feasibility objectives define a cost");
        if enc.infeasible {
            return Err(OptError::Infeasible);
        }

        let certify = engine.options().certify;
        let (outcome, mode) = match window {
            Some((lo, hi)) => engine.solve_window(&enc.problem, cost, lo, hi),
            None => engine.solve(&enc.problem, cost),
        };
        let wall = start.elapsed();
        let report = self.report_from_status(
            objective,
            &enc,
            outcome.status,
            outcome.solve_calls,
            outcome.encode,
            outcome.stats,
            Vec::new(),
            outcome.certificate,
            wall,
            certify,
        )?;
        Ok((report, mode))
    }

    /// Shared tail of every optimization entry point: decode the winning
    /// model, re-validate it independently, verify the certificate when one
    /// was requested, and map non-optimal statuses to typed errors.
    #[allow(clippy::too_many_arguments)] // internal plumbing, not API
    fn report_from_status(
        &self,
        objective: &Objective,
        enc: &Encoding,
        status: MinimizeStatus,
        solve_calls: u32,
        encode: EncodeStats,
        stats: SolverStats,
        workers: Vec<WorkerReport>,
        certificate: Option<Certificate>,
        wall: Duration,
        certify: bool,
    ) -> Result<OptimizeReport, OptError> {
        match status {
            MinimizeStatus::Infeasible => Err(OptError::Infeasible),
            MinimizeStatus::Unknown { incumbent } | MinimizeStatus::Interrupted { incumbent } => {
                let incumbent = match incumbent {
                    None => None,
                    Some((value, model)) => {
                        let sol = self.check(decode(enc, &model))?;
                        Some((value, sol))
                    }
                };
                Err(OptError::Budget { incumbent })
            }
            MinimizeStatus::Optimal { value, model } => {
                // Every winner passes the same independent re-validation
                // gate.
                let solution = self.check(decode(enc, &model))?;
                let mut certify_ms = 0.0;
                let certificate = if certify {
                    // The stopwatch both times verification and records the
                    // `certify` trace span from the same f64, mirroring the
                    // encode/search attribution.
                    let sw = self.opts.obs.stopwatch(Phase::Certify);
                    let report = self.certify(objective, value, &solution.allocation, certificate);
                    certify_ms = sw.finish();
                    Some(report?)
                } else {
                    None
                };
                let phases = PhaseTotals {
                    encode_ms: encode.encode_ms,
                    search_ms: stats.solve_ms,
                    certify_ms,
                };
                Ok(OptimizeReport {
                    solution,
                    cost: value,
                    encode,
                    solve_calls,
                    stats,
                    wall,
                    phases,
                    workers,
                    certificate,
                })
            }
        }
    }
}
