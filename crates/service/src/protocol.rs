//! The service wire protocol: newline-delimited JSON requests/responses.
//!
//! One request per line, one response per line, in order. The same types
//! back the in-process [`Service::handle`](crate::Service::handle) API and
//! the CLI's `--json` output, so a script driving the TCP server and a
//! script parsing CLI output read the same shape.

use optalloc::{InstanceDelta, Objective};
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

/// Search-engine counters of one job, summed over every solver the job ran
/// (all zero on a cache hit — the SAT layer was never touched). Guarded by
/// `#[serde(default)]` wherever it is embedded, so result lines written
/// before the engine existed still parse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSummary {
    /// Literals propagated (clause + PB).
    pub propagations: u64,
    /// Restarts taken under the fixed Luby policy.
    pub restarts_luby: u64,
    /// Restarts taken under the adaptive EMA policy.
    pub restarts_ema: u64,
    /// EMA restarts suppressed by trail-size blocking.
    pub restarts_blocked: u64,
    /// Learned clauses strengthened by in-search vivification.
    pub vivified: u64,
    /// Variables removed by bounded variable elimination.
    #[serde(default)]
    pub elim_vars: u64,
    /// Resolvents added when distributing eliminated variables.
    #[serde(default)]
    pub elim_resolvents: u64,
    /// Eliminated variables restored by melt-on-reuse.
    #[serde(default)]
    pub elim_restored: u64,
    /// Clause distributions the simplification pass attempted.
    #[serde(default)]
    pub elim_attempts: u64,
    /// Resolvent pairs the simplification pass examined.
    #[serde(default)]
    pub elim_pairs: u64,
    /// Subsumption checks the simplification pass ran.
    #[serde(default)]
    pub subsume_checks: u64,
    /// Reconstruction-stack depth (live elimination groups) when the job
    /// finished — the extension work a model extraction pays.
    #[serde(default)]
    pub elim_stack_depth: u64,
    /// CORE-tier learned clauses retained when the job finished.
    pub tier_core: u64,
    /// TIER2 learned clauses retained when the job finished.
    pub tier_mid: u64,
    /// LOCAL-tier learned clauses retained when the job finished.
    pub tier_local: u64,
    /// High-water mark of retained learned clauses.
    pub peak_learnts: u64,
}

impl SearchSummary {
    /// Extracts the wire summary from full solver statistics.
    pub fn from_stats(stats: &optalloc::sat::SolverStats) -> SearchSummary {
        SearchSummary {
            propagations: stats.propagations,
            restarts_luby: stats.restarts_luby,
            restarts_ema: stats.restarts_ema,
            restarts_blocked: stats.restarts_blocked,
            vivified: stats.vivified,
            elim_vars: stats.elim_vars,
            elim_resolvents: stats.elim_resolvents,
            elim_restored: stats.elim_restored,
            elim_attempts: stats.elim_attempts,
            elim_pairs: stats.elim_pairs,
            subsume_checks: stats.subsume_checks,
            elim_stack_depth: stats.elim_stack_depth,
            tier_core: stats.tier_core,
            tier_mid: stats.tier_mid,
            tier_local: stats.tier_local,
            peak_learnts: stats.peak_learnts,
        }
    }

    /// Adds every counter of `other` into `self` (tier gauges and the peak
    /// follow [`optalloc::sat::SolverStats::absorb`] semantics: tiers sum,
    /// the peak takes the max).
    pub fn absorb(&mut self, other: &SearchSummary) {
        self.propagations += other.propagations;
        self.restarts_luby += other.restarts_luby;
        self.restarts_ema += other.restarts_ema;
        self.restarts_blocked += other.restarts_blocked;
        self.vivified += other.vivified;
        self.elim_vars += other.elim_vars;
        self.elim_resolvents += other.elim_resolvents;
        self.elim_restored += other.elim_restored;
        self.elim_attempts += other.elim_attempts;
        self.elim_pairs += other.elim_pairs;
        self.subsume_checks += other.subsume_checks;
        self.elim_stack_depth += other.elim_stack_depth;
        self.tier_core += other.tier_core;
        self.tier_mid += other.tier_mid;
        self.tier_local += other.tier_local;
        self.peak_learnts = self.peak_learnts.max(other.peak_learnts);
    }
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
    /// CDCL conflicts spent on this job (0 on a cache hit).
    pub conflicts: u64,
    /// Wall-clock time of the job in milliseconds.
    pub solve_ms: u64,
    /// Search-engine counters (restarts by policy, tier sizes,
    /// vivification); all zero on a cache hit.
    #[serde(default)]
    pub search: SearchSummary,
    /// Per-phase wall-time breakdown (encode / search / certify, in ms) —
    /// the span-derived numbers, so they match any trace the job recorded.
    /// All zero on a cache hit.
    #[serde(default)]
    pub phases: PhaseTotals,
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
        /// Search-engine counters accumulated over every job the service
        /// solved since startup (cache hits contribute nothing).
        #[serde(default)]
        search: SearchSummary,
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
        // `search` object; `#[serde(default)]` fills in zeros.
        let old = r#"{"fingerprint":"00","outcome":"Infeasible","cached":false,
                      "warm":"Cold","solve_calls":3,"conflicts":17,"solve_ms":5}"#;
        let r: JobResult = serde_json::from_str(old).unwrap();
        assert_eq!(r.conflicts, 17);
        assert_eq!(r.search, SearchSummary::default());
        // And a fully populated line round-trips.
        let mut modern = r.clone();
        modern.search.restarts_ema = 4;
        modern.search.tier_core = 2;
        modern.search.peak_learnts = 99;
        let line = serde_json::to_string(&modern).unwrap();
        assert_eq!(serde_json::from_str::<JobResult>(&line).unwrap(), modern);
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
                search: SearchSummary {
                    propagations: 10,
                    restarts_ema: 2,
                    tier_core: 1,
                    ..SearchSummary::default()
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
