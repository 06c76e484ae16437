//! The service wire protocol: newline-delimited JSON requests/responses.
//!
//! One request per line, one response per line, in order. The same types
//! back the in-process [`Service::handle`](crate::Service::handle) API and
//! the CLI's `--json` output, so a script driving the TCP server and a
//! script parsing CLI output read the same shape.

use optalloc::sat::SolverStats;
use optalloc::{InstanceDelta, Objective, OptError, OptimizeReport, WarmMode};
use optalloc_model::{Allocation, Architecture, TaskSet};
use optalloc_obs::{MetricsSnapshot, PhaseTotals};
use serde::{Deserialize, Serialize};

/// A full allocation instance as submitted to the service. Unlike the
/// benchmark generator's `Workload` it carries no planted allocation — the
/// service never needs one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// The hardware platform.
    pub arch: Architecture,
    /// The application.
    pub tasks: TaskSet,
}

impl Instance {
    /// Structural sanity checks (dangling ids, degenerate timing) — run on
    /// every submission before anything is encoded.
    pub fn validate(&self) -> Result<(), String> {
        self.arch.validate().map_err(|e| e.to_string())?;
        self.tasks.validate()
    }
}

/// One request line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Solve a full instance from scratch (the service may still answer
    /// from the result cache, or warm-start from the previous job).
    Solve {
        /// The instance to allocate.
        instance: Instance,
        /// The objective to minimize.
        objective: Objective,
        /// Per-job wall-clock timeout in milliseconds (`None` = the
        /// service default).
        timeout_ms: Option<u64>,
    },
    /// Re-solve a previously solved instance after a batch of mutations.
    Delta {
        /// Fingerprint (hex, as returned in [`JobResult::fingerprint`]) of
        /// the base instance; `None` = the most recently solved instance.
        base: Option<String>,
        /// Mutations to apply to the base, in order, transactionally.
        ops: Vec<InstanceDelta>,
        /// Objective for the re-solve; `None` = the base job's objective.
        objective: Option<Objective>,
        /// Per-job wall-clock timeout in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Queue/cache introspection; never enqueued, answered immediately.
    Status,
    /// Snapshot of the service metrics registry (job counters, cache
    /// hit/miss counters, per-job latency histogram); never enqueued,
    /// answered immediately.
    Metrics,
    /// Begin graceful shutdown: drain queued and in-flight jobs, reject
    /// new submissions with [`RejectReason::Draining`].
    Shutdown,
}

/// Why a submission was refused (typed, so clients can distinguish
/// back-pressure from shutdown).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The bounded job queue is full — retry later.
    QueueFull,
    /// The service is draining for shutdown — do not retry here.
    Draining,
}

/// How much prior state the solve reused (mirrors
/// [`optalloc::WarmMode`], plus the cache short-circuit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarmLabel {
    /// Answered from the result cache; the SAT layer was never touched.
    Cache,
    /// Retained incremental solver with its learned clauses.
    Reused,
    /// Fresh encoding seeded with the previous optimum as a validated hint.
    Seeded,
    /// Nothing reusable; full cold solve.
    Cold,
}

impl From<&WarmMode> for WarmLabel {
    fn from(mode: &WarmMode) -> WarmLabel {
        match mode {
            WarmMode::Cold => WarmLabel::Cold,
            WarmMode::Seeded { .. } => WarmLabel::Seeded,
            WarmMode::Reused { .. } => WarmLabel::Reused,
        }
    }
}

/// Terminal verdict of one job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Proven optimal allocation.
    Optimal {
        /// The minimal objective value.
        cost: i64,
        /// The optimal allocation (in the submitted instance's id space).
        allocation: Allocation,
        /// `true` when a verified optimality certificate backs the result
        /// (retrievable in-process via
        /// [`Service::certificate`](crate::Service::certificate)).
        certified: bool,
    },
    /// No feasible allocation exists (within the requested cost window, if
    /// the job carried one).
    Infeasible,
    /// The per-probe conflict budget ran out before a verdict.
    Budget {
        /// Best feasible cost found before giving up, if any.
        incumbent_cost: Option<i64>,
    },
    /// The job's wall-clock timeout fired (or the job was cancelled).
    Timeout {
        /// Best feasible cost found before the interrupt, if any.
        incumbent_cost: Option<i64>,
    },
    /// The job failed: invalid instance, rejected delta, or an internal
    /// consistency error (failed re-validation or certification).
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// The result of one solve or delta job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Canonical instance fingerprint (hex) — the cache/session key. Pass
    /// it as [`Request::Delta::base`] to mutate this instance later.
    pub fingerprint: String,
    /// Terminal verdict.
    pub outcome: JobOutcome,
    /// `true` when the answer came from the result cache.
    pub cached: bool,
    /// How much prior search state the job reused.
    pub warm: WarmLabel,
    /// `SOLVE` calls the binary search issued (0 on a cache hit).
    pub solve_calls: u32,
    /// Wall-clock time of the job in milliseconds.
    pub solve_ms: u64,
    /// Every solver counter (conflicts, propagations, restarts, tier
    /// sizes, elimination, vivification), summed over the solvers the job
    /// ran; all zero on a cache hit. Absent from lines written before the
    /// search engine existed, which parse with zeros.
    #[serde(default)]
    pub search: SolverStats,
    /// Per-phase wall-time breakdown (encode / search / certify, in ms) —
    /// the span-derived numbers, so they match any trace the job recorded.
    /// All zero on a cache hit.
    #[serde(default)]
    pub phases: PhaseTotals,
}

impl JobResult {
    /// A result no search stands behind (a withdrawn job, a panicked
    /// solve, the base of a cache hit): cold, no `SOLVE` calls, zero
    /// counters and times.
    pub fn unsearched(fingerprint: String, outcome: JobOutcome) -> JobResult {
        JobResult {
            fingerprint,
            outcome,
            cached: false,
            warm: WarmLabel::Cold,
            solve_calls: 0,
            solve_ms: 0,
            search: SolverStats::default(),
            phases: PhaseTotals::default(),
        }
    }

    /// The result line of one solve: the optimizer's verdict mapped to a
    /// [`JobOutcome`] — a budget abort reads as [`JobOutcome::Timeout`]
    /// when `timed_out` says the job's wall-clock limit raised the
    /// interrupt — plus the report's counters (all zero on an error). The
    /// one mapping behind the CLI's `solve --json` line and the service's
    /// job results.
    pub fn from_solve(
        fingerprint: String,
        solved: &Result<OptimizeReport, OptError>,
        warm: WarmLabel,
        timed_out: bool,
        solve_ms: u64,
    ) -> JobResult {
        let outcome = match solved {
            Ok(report) => JobOutcome::Optimal {
                cost: report.cost,
                allocation: report.solution.allocation.clone(),
                certified: report.certificate.is_some(),
            },
            Err(OptError::Infeasible) => JobOutcome::Infeasible,
            Err(OptError::Budget { incumbent }) => {
                let incumbent_cost = incumbent.as_ref().map(|(v, _)| *v);
                if timed_out {
                    JobOutcome::Timeout { incumbent_cost }
                } else {
                    JobOutcome::Budget { incumbent_cost }
                }
            }
            Err(e) => JobOutcome::Error {
                message: e.to_string(),
            },
        };
        let mut result = JobResult {
            warm,
            solve_ms,
            ..JobResult::unsearched(fingerprint, outcome)
        };
        if let Ok(report) = solved {
            result.solve_calls = report.solve_calls;
            result.search = report.stats.clone();
            result.phases = report.phases;
        }
        result
    }
}

/// One response line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A completed job.
    Result(JobResult),
    /// The submission was refused before entering the queue.
    Rejected {
        /// Typed refusal cause.
        reason: RejectReason,
    },
    /// The request itself was malformed or referenced unknown state (e.g.
    /// a delta against an unknown fingerprint). Nothing was enqueued.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Jobs waiting in the queue.
        queued: usize,
        /// Jobs currently being solved.
        inflight: usize,
        /// `true` once shutdown began.
        draining: bool,
        /// Entries in the result cache.
        cached: usize,
        /// Solver counters accumulated over every job the service solved
        /// since startup (cache hits contribute nothing).
        #[serde(default)]
        search: SolverStats,
        /// Phase-time totals (encode / search / certify, ms) accumulated
        /// over every solved job.
        #[serde(default)]
        phases: PhaseTotals,
    },
    /// Answer to [`Request::Metrics`]: the service registry snapshot.
    Metrics {
        /// Every counter, gauge and histogram the service recorded.
        snapshot: MetricsSnapshot,
    },
    /// Acknowledgement of [`Request::Shutdown`]; the drain has begun.
    ShuttingDown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use optalloc_model::{Ecu, Medium, Task};

    #[test]
    fn requests_round_trip_through_json_lines() {
        let mut arch = Architecture::new();
        let p0 = arch.push_ecu(Ecu::new("p0"));
        let p1 = arch.push_ecu(Ecu::new("p1"));
        let can = arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
        let mut tasks = TaskSet::new();
        tasks.push(Task::new("a", 50, 50, vec![(p0, 10), (p1, 10)]));
        let req = Request::Solve {
            instance: Instance { arch, tasks },
            objective: Objective::BusLoadPermille(can),
            timeout_ms: Some(5_000),
        };
        let line = serde_json::to_string(&req).unwrap();
        assert!(!line.contains('\n'), "wire format is one line per request");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);

        let delta = Request::Delta {
            base: None,
            ops: vec![InstanceDelta::SetDeadline {
                task: "a".into(),
                deadline: 40,
            }],
            objective: None,
            timeout_ms: None,
        };
        let line = serde_json::to_string(&delta).unwrap();
        assert_eq!(serde_json::from_str::<Request>(&line).unwrap(), delta);
    }

    #[test]
    fn result_lines_without_search_counters_still_parse() {
        // Result lines written before the search engine existed carry no
        // `search` object; `#[serde(default)]` fills in zeros. Their
        // top-level `conflicts` (now `search.conflicts`) is ignored.
        let old = r#"{"fingerprint":"00","outcome":"Infeasible","cached":false,
                      "warm":"Cold","solve_calls":3,"conflicts":17,"solve_ms":5}"#;
        let r: JobResult = serde_json::from_str(old).unwrap();
        assert_eq!(r.solve_calls, 3);
        assert_eq!(r.search, SolverStats::default());
        // Lines written while restarts were split by policy carry one
        // counter per policy (`restarts_` + `luby` / `ema`) and no
        // `restarts`: the old fields are ignored and `restarts` defaults to
        // zero. The line below has the shape such a result line had: a
        // `search` object with only some of the solver counters, the rest
        // of which default to zero.
        let split = format!(
            r#"{{"fingerprint":"00","outcome":"Infeasible","cached":false,
                "warm":"Cold","solve_calls":3,"conflicts":17,"solve_ms":5,
                "search":{{"propagations":40,"restarts_{}":0,"restarts_{}":6,
                          "restarts_blocked":1,"vivified":2,"elim_vars":3,
                          "elim_resolvents":4,"elim_restored":0,"elim_attempts":5,
                          "elim_pairs":6,"subsume_checks":7,"elim_stack_depth":3,
                          "tier_core":1,"tier_mid":2,"tier_local":3,
                          "peak_learnts":9}}}}"#,
            "luby", "ema"
        );
        let r2: JobResult = serde_json::from_str(&split).unwrap();
        assert_eq!(r2.search.restarts, 0);
        assert_eq!(r2.search.propagations, 40);
        assert_eq!(r2.search.restarts_blocked, 1);
        assert_eq!(r2.search.peak_learnts, 9);
        assert_eq!(r2.search.conflicts, 0);
        // And a fully populated line round-trips.
        let mut modern = r.clone();
        modern.search.conflicts = 17;
        modern.search.solve_ms = 2.5;
        modern.search.restarts = 4;
        modern.search.tier_core = 2;
        modern.search.peak_learnts = 99;
        let line = serde_json::to_string(&modern).unwrap();
        assert_eq!(serde_json::from_str::<JobResult>(&line).unwrap(), modern);
    }

    #[test]
    fn every_solver_counter_reaches_the_result_line() {
        let result = JobResult::from_solve(
            "00".into(),
            &Err(OptError::Infeasible),
            WarmLabel::Cold,
            false,
            0,
        );
        let line = serde_json::to_string(&result).unwrap();
        let value: serde::Value = serde_json::from_str(&line).unwrap();
        let search = value.get("search").expect("a result line has `search`");
        let mut missing = Vec::new();
        SolverStats::default().for_each_metric(&mut |name, _, _| {
            if search.get(name).is_none() {
                missing.push(name);
            }
        });
        assert!(missing.is_empty(), "not on the wire: {missing:?}");
    }

    #[test]
    fn responses_round_trip_through_json_lines() {
        for r in [
            Response::Rejected {
                reason: RejectReason::QueueFull,
            },
            Response::Rejected {
                reason: RejectReason::Draining,
            },
            Response::Error {
                message: "unknown base".into(),
            },
            Response::Status {
                queued: 1,
                inflight: 2,
                draining: false,
                cached: 3,
                search: SolverStats {
                    propagations: 10,
                    restarts: 2,
                    tier_core: 1,
                    ..SolverStats::default()
                },
                phases: PhaseTotals {
                    encode_ms: 1.5,
                    search_ms: 20.25,
                    certify_ms: 0.0,
                },
            },
            Response::Metrics {
                snapshot: MetricsSnapshot::default(),
            },
            Response::ShuttingDown,
        ] {
            let line = serde_json::to_string(&r).unwrap();
            assert!(!line.contains('\n'));
            assert_eq!(serde_json::from_str::<Response>(&line).unwrap(), r);
        }
    }
}
