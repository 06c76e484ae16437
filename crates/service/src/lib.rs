//! # optalloc-service
//!
//! A **long-running allocation service** over the SAT-based optimizer: a
//! bounded job queue in front of a worker pool, canonical instance
//! fingerprinting fronting an LRU result/certificate cache, and
//! delta-driven warm-start re-solving.
//!
//! The paper solves one instance per invocation. A deployed allocator sees
//! a *stream* of instances, most of them small mutations of the previous
//! one (a WCET re-measured, a deadline tightened, a task added). This crate
//! exploits that structure in three layers, each sound on its own:
//!
//! 1. **Cache** — the [`Fingerprint`] is a content hash over the canonical
//!    (name-sorted, id-rewritten) model form, so resubmitting an instance —
//!    even with tasks/ECUs declared in a different order — returns the
//!    prior optimum *and certificate* with zero SAT calls. Hits re-check
//!    canonical equality, so hash collisions cannot produce wrong answers.
//! 2. **Warm engine** — each worker owns an
//!    [`optalloc::WarmEngine`]; a mutated instance re-solves with
//!    the previous optimum as a *validated* hint (probed, never assumed)
//!    and, when the formula is unchanged, with the retained incremental
//!    solver and its learned clauses.
//! 3. **Deltas** — [`Request::Delta`] applies typed mutations
//!    ([`optalloc::InstanceDelta`]) server-side, transactionally,
//!    against a fingerprint-addressed session, so clients ship edits, not
//!    instances.
//!
//! Jobs run under cooperative cancellation: every worker pins one
//! interrupt flag into its solvers; a per-job watchdog raises it on
//! timeout, [`Service::cancel`] raises it on demand, and graceful
//! [`Service::shutdown`] drains queued and in-flight jobs while rejecting
//! new submissions with a typed [`RejectReason::Draining`].
//!
//! The service is usable in-process ([`Service::handle`]) or over TCP with
//! newline-delimited JSON ([`serve`]); both speak the same
//! [`protocol`] types.

#![warn(missing_docs)]
// `submit`'s `Err` carries the full typed `Response` (rejection or
// resolution error) so callers forward it verbatim to the client; the
// large variant is cold and never on the solve path.
#![allow(clippy::result_large_err)]

pub mod cache;
pub mod fingerprint;
pub mod protocol;
pub mod server;

use crate::cache::{Session, SessionCache};
use crate::fingerprint::{canonicalize, remap_allocation, Fingerprint};
use crate::protocol::{
    Instance, JobOutcome, JobResult, RejectReason, Request, Response, SearchSummary, WarmLabel,
};
use optalloc::{
    apply_deltas, CertificateReport, Objective, Optimizer, SolveOptions, Strategy, WarmEngine,
    WarmMode,
};
use optalloc_obs::{MetricsRegistry, PhaseTotals, DEFAULT_MS_BUCKETS};
pub use server::{serve, Server};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads. Each owns a private warm-start engine, so warm
    /// re-solves chain best with `workers = 1` (the default): every job
    /// sees the previous job's state.
    pub workers: usize,
    /// Bounded queue depth for *waiting* jobs; submissions beyond it are
    /// rejected with [`RejectReason::QueueFull`]. `0` rejects everything —
    /// useful only for testing admission control.
    pub queue_capacity: usize,
    /// Default per-job wall-clock timeout (`None` = unlimited); a request
    /// may override it.
    pub default_timeout: Option<Duration>,
    /// Capacity in fingerprints of the session cache, which holds every
    /// per-fingerprint record: the base a delta applies to and, after a
    /// terminal verdict, the cached result. At `0` the service remembers
    /// nothing, so a delta has no base.
    pub cache_capacity: usize,
    /// Solver configuration applied to every job. Its `interrupt` field is
    /// ignored — the service installs per-worker flags.
    pub solve: SolveOptions,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            default_timeout: None,
            cache_capacity: 64,
            solve: SolveOptions::default(),
        }
    }
}

/// Handle to a submitted job (see [`Service::submit`] / [`Service::wait`]).
pub type JobId = u64;

/// A resolved, ready-to-solve job.
struct JobPayload {
    instance: Instance,
    objective: Objective,
    window: Option<(i64, i64)>,
    fingerprint: Fingerprint,
    timeout: Option<Duration>,
}

struct JobState {
    payload: Option<JobPayload>,
    result: Option<Response>,
    /// The executing worker's interrupt flag, present while running.
    running: Option<Arc<AtomicBool>>,
    /// Raised by the watchdog or [`Service::cancel`]; distinguishes a
    /// timeout/cancel abort from a conflict-budget abort.
    timed_out: Arc<AtomicBool>,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, JobState>,
    next_id: JobId,
    draining: bool,
    inflight: usize,
}

struct Sessions {
    cache: SessionCache,
    /// The last fingerprint solved, an anonymous delta's base.
    last: Option<Fingerprint>,
}

// ----------------------------------------------------------------------
// Watchdog
// ----------------------------------------------------------------------

struct Watch {
    deadline: Instant,
    interrupt: Arc<AtomicBool>,
    timed_out: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
}

#[derive(Default)]
struct WatchdogState {
    watches: Vec<Watch>,
    stop: bool,
}

/// One thread raising per-job interrupt flags at their deadlines.
struct Watchdog {
    state: Mutex<WatchdogState>,
    cv: Condvar,
}

impl Watchdog {
    fn run(&self) {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.stop {
                return;
            }
            let now = Instant::now();
            st.watches.retain(|w| {
                if w.done.load(Ordering::Relaxed) {
                    return false;
                }
                if w.deadline <= now {
                    w.timed_out.store(true, Ordering::Relaxed);
                    w.interrupt.store(true, Ordering::Relaxed);
                    return false;
                }
                true
            });
            let next = st.watches.iter().map(|w| w.deadline).min();
            st = match next {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    self.cv.wait_timeout(st, wait).unwrap().0
                }
                None => self.cv.wait(st).unwrap(),
            };
        }
    }

    fn arm(&self, watch: Watch) {
        self.state.lock().unwrap().watches.push(watch);
        self.cv.notify_all();
    }

    fn stop(&self) {
        self.state.lock().unwrap().stop = true;
        self.cv.notify_all();
    }
}

/// Disarms the watch on drop (the job finished on its own).
struct WatchGuard<'a> {
    watchdog: &'a Watchdog,
    done: Arc<AtomicBool>,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        self.watchdog.cv.notify_all();
    }
}

// ----------------------------------------------------------------------
// Service
// ----------------------------------------------------------------------

struct Shared {
    config: ServiceConfig,
    state: Mutex<QueueState>,
    job_available: Condvar,
    job_done: Condvar,
    sessions: Mutex<Sessions>,
    watchdog: Watchdog,
    /// Search-engine counters accumulated over every solved job (cache
    /// hits contribute nothing) — reported by [`Response::Status`].
    search_totals: Mutex<SearchSummary>,
    /// Span-derived phase times accumulated over every solved job —
    /// reported by [`Response::Status`].
    phase_totals: Mutex<PhaseTotals>,
    /// Service telemetry (job counters, cache hits, per-job latency
    /// histogram) — snapshotted by [`Request::Metrics`].
    metrics: MetricsRegistry,
}

/// The long-running allocation service (see the crate docs).
pub struct Service {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Starts the worker pool (and the timeout watchdog) immediately.
    pub fn new(config: ServiceConfig) -> Service {
        let workers = config.workers.max(1);
        let cache_capacity = config.cache_capacity;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(QueueState::default()),
            job_available: Condvar::new(),
            job_done: Condvar::new(),
            sessions: Mutex::new(Sessions {
                cache: SessionCache::new(cache_capacity),
                last: None,
            }),
            watchdog: Watchdog {
                state: Mutex::new(WatchdogState::default()),
                cv: Condvar::new(),
            },
            search_totals: Mutex::new(SearchSummary::default()),
            phase_totals: Mutex::new(PhaseTotals::default()),
            metrics: MetricsRegistry::new(),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || shared.watchdog.run()));
        }
        Service {
            shared,
            threads: Mutex::new(threads),
        }
    }

    /// Handles one request to completion — the in-process equivalent of
    /// one wire round-trip. Solve/Delta requests block until the job
    /// finishes (or is rejected).
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Status => {
                let st = self.shared.state.lock().unwrap();
                Response::Status {
                    queued: st.queue.len(),
                    inflight: st.inflight,
                    draining: st.draining,
                    cached: self.shared.sessions.lock().unwrap().cache.results(),
                    search: *self.shared.search_totals.lock().unwrap(),
                    phases: *self.shared.phase_totals.lock().unwrap(),
                }
            }
            Request::Metrics => Response::Metrics {
                snapshot: self.shared.metrics.snapshot(),
            },
            Request::Shutdown => {
                self.begin_drain();
                Response::ShuttingDown
            }
            req => match self.submit(req) {
                Ok(id) => self.wait(id),
                Err(resp) => resp,
            },
        }
    }

    /// Enqueues a Solve/Delta request without blocking; `Err` carries the
    /// immediate response (rejection or resolution error). Use
    /// [`Service::wait`] to collect the result.
    pub fn submit(&self, request: Request) -> Result<JobId, Response> {
        let payload = self.resolve(request).map_err(|message| {
            // Resolution failures are client errors, not queue rejections.
            Response::Error { message }
        })?;
        let mut st = self.shared.state.lock().unwrap();
        if st.draining {
            return Err(Response::Rejected {
                reason: RejectReason::Draining,
            });
        }
        if st.queue.len() >= self.shared.config.queue_capacity {
            return Err(Response::Rejected {
                reason: RejectReason::QueueFull,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobState {
                payload: Some(payload),
                result: None,
                running: None,
                timed_out: Arc::new(AtomicBool::new(false)),
            },
        );
        st.queue.push_back(id);
        self.shared.job_available.notify_one();
        Ok(id)
    }

    /// Blocks until job `id` completes and returns (and forgets) its
    /// response.
    pub fn wait(&self, id: JobId) -> Response {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            match st.jobs.get_mut(&id) {
                None => {
                    return Response::Error {
                        message: format!("unknown job id {id}"),
                    }
                }
                Some(job) => {
                    if let Some(resp) = job.result.take() {
                        st.jobs.remove(&id);
                        return resp;
                    }
                }
            }
            st = self.shared.job_done.wait(st).unwrap();
        }
    }

    /// Cancels a job: a queued job is withdrawn, a running job's interrupt
    /// flag is raised (it finishes with [`JobOutcome::Timeout`]). Returns
    /// `false` when the job is unknown or already finished.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        let Some(job) = st.jobs.get(&id) else {
            return false;
        };
        if job.result.is_some() {
            return false;
        }
        if let Some(flag) = &job.running {
            job.timed_out.store(true, Ordering::Relaxed);
            flag.store(true, Ordering::Relaxed);
            return true;
        }
        // Still queued: withdraw it without running anything.
        let job = st.jobs.get_mut(&id).unwrap();
        let payload = job.payload.take().expect("queued job has a payload");
        job.result = Some(Response::Result(JobResult {
            fingerprint: payload.fingerprint.to_string(),
            outcome: JobOutcome::Timeout {
                incumbent_cost: None,
            },
            cached: false,
            warm: WarmLabel::Cold,
            solve_calls: 0,
            conflicts: 0,
            solve_ms: 0,
            search: SearchSummary::default(),
            phases: PhaseTotals::default(),
        }));
        st.queue.retain(|&q| q != id);
        self.shared.job_done.notify_all();
        true
    }

    /// The verified certificate cached for a fingerprint, when the solve
    /// was certified (in-process only — certificates are megabytes of DRAT
    /// and never cross the wire).
    pub fn certificate(&self, fingerprint: &str) -> Option<CertificateReport> {
        let fp: Fingerprint = fingerprint.parse().ok()?;
        self.shared
            .sessions
            .lock()
            .unwrap()
            .cache
            .get(&fp)
            .and_then(|s| s.certificate.clone())
    }

    /// Marks the service as draining: new submissions are rejected, queued
    /// and in-flight jobs still complete. Non-blocking; pair with
    /// [`Service::shutdown`] to wait for the drain.
    pub fn begin_drain(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.draining = true;
        // Wake idle workers so they can observe the drain and exit.
        self.shared.job_available.notify_all();
    }

    /// Graceful shutdown: drains queued and in-flight jobs, then joins the
    /// workers and the watchdog. Idempotent.
    pub fn shutdown(&self) {
        self.begin_drain();
        {
            let mut st = self.shared.state.lock().unwrap();
            while !st.queue.is_empty() || st.inflight > 0 {
                st = self.shared.job_done.wait(st).unwrap();
            }
        }
        self.shared.watchdog.stop();
        for t in self.threads.lock().unwrap().drain(..) {
            t.join().expect("service thread panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Service {
    /// Turns a wire request into a ready-to-run payload: validates the
    /// instance, resolves delta bases against the session map and applies
    /// the mutation batch transactionally.
    fn resolve(&self, request: Request) -> Result<JobPayload, String> {
        let (instance, objective, window, timeout_ms) = match request {
            Request::Solve {
                instance,
                objective,
                timeout_ms,
            } => {
                instance.validate()?;
                (instance, objective, None, timeout_ms)
            }
            Request::Delta {
                base,
                ops,
                objective,
                timeout_ms,
            } => {
                let mut sessions = self.shared.sessions.lock().unwrap();
                let fp = match base {
                    Some(s) => s.parse::<Fingerprint>()?,
                    None => sessions.last.ok_or("no instance has been solved yet")?,
                };
                let session = sessions
                    .cache
                    .get(&fp)
                    .ok_or_else(|| format!("unknown base fingerprint {fp}"))?;
                let mut instance = session.instance.clone();
                let objective = objective.unwrap_or_else(|| session.objective.clone());
                let window = apply_deltas(&instance.arch, &mut instance.tasks, &ops)
                    .map_err(|e| e.to_string())?;
                let window = match (window.lower, window.upper) {
                    (None, None) => None,
                    (lo, hi) => Some((lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX))),
                };
                (instance, objective, window, timeout_ms)
            }
            Request::Status | Request::Metrics | Request::Shutdown => {
                unreachable!("handled before resolution")
            }
        };
        let fingerprint =
            fingerprint::fingerprint(&instance, &objective, &self.shared.config.solve, window);
        Ok(JobPayload {
            instance,
            objective,
            window,
            fingerprint,
            timeout: timeout_ms
                .map(Duration::from_millis)
                .or(self.shared.config.default_timeout),
        })
    }
}

// ----------------------------------------------------------------------
// Worker
// ----------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    // One interrupt flag for the worker's whole life, pinned into every
    // solver its engine creates; it is RESET before each job (replacing
    // the Arc would not reach the engine's retained solvers).
    let interrupt = Arc::new(AtomicBool::new(false));
    let mut solve_opts = shared.config.solve.clone();
    solve_opts.interrupt = Some(Arc::clone(&interrupt));
    let mut engine = WarmEngine::new(solve_opts.minimize_options());

    loop {
        let (id, payload, timed_out) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    let payload = job.payload.take().expect("queued job has a payload");
                    job.running = Some(Arc::clone(&interrupt));
                    let timed_out = Arc::clone(&job.timed_out);
                    st.inflight += 1;
                    break (id, payload, timed_out);
                }
                if st.draining {
                    return;
                }
                st = shared.job_available.wait(st).unwrap();
            }
        };

        interrupt.store(false, Ordering::Relaxed);
        // A panicking solve (checked-mode invariant assertion, encoder bug)
        // must not take the worker down with the job still marked inflight
        // — `wait` would block forever. Convert the panic into a job error
        // and discard the engine: its retained solvers may be mid-mutation.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &mut engine, &solve_opts, &payload, &timed_out)
        }))
        .unwrap_or_else(|panic| {
            engine = WarmEngine::new(solve_opts.minimize_options());
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Response::Result(JobResult {
                fingerprint: payload.fingerprint.to_string(),
                outcome: JobOutcome::Error {
                    message: format!("solver panicked: {message}"),
                },
                cached: false,
                warm: WarmLabel::Cold,
                solve_calls: 0,
                conflicts: 0,
                solve_ms: 0,
                search: SearchSummary::default(),
                phases: PhaseTotals::default(),
            })
        });

        let mut st = shared.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&id) {
            job.running = None;
            job.result = Some(response);
        }
        st.inflight -= 1;
        drop(st);
        shared.job_done.notify_all();
    }
}

fn run_job(
    shared: &Shared,
    engine: &mut WarmEngine,
    solve_opts: &SolveOptions,
    payload: &JobPayload,
    timed_out: &Arc<AtomicBool>,
) -> Response {
    let start = Instant::now();
    let fp = payload.fingerprint;

    // 1. Cache: a hit answers with zero SAT calls. Canonical equality is
    // re-checked (hash collisions degrade to misses), and the stored
    // allocation is remapped into the submitted instance's id space.
    if let Some((hit, result)) = shared
        .sessions
        .lock()
        .unwrap()
        .cache
        .get(&fp)
        .and_then(|s| Some((s, s.result.as_ref()?)))
    {
        if canonicalize(&hit.instance).same_problem(&canonicalize(&payload.instance)) {
            let mut result = result.clone();
            let remapped = match &result.outcome {
                JobOutcome::Optimal {
                    cost,
                    allocation,
                    certified,
                } => remap_allocation(allocation, &hit.instance, &payload.instance).map(|a| {
                    JobOutcome::Optimal {
                        cost: *cost,
                        allocation: a,
                        certified: *certified,
                    }
                }),
                other => Some(other.clone()),
            };
            if let Some(outcome) = remapped {
                result.outcome = outcome;
                result.cached = true;
                result.warm = WarmLabel::Cache;
                result.solve_calls = 0;
                result.conflicts = 0;
                result.solve_ms = start.elapsed().as_millis() as u64;
                result.search = SearchSummary::default();
                result.phases = PhaseTotals::default();
                shared.metrics.counter("service.cache_hits").inc();
                return Response::Result(result);
            }
        }
    }

    // 2. Solve. The watchdog arms only for jobs with a deadline.
    let _guard = payload.timeout.map(|t| {
        let done = Arc::new(AtomicBool::new(false));
        shared.watchdog.arm(Watch {
            deadline: Instant::now() + t,
            interrupt: solve_opts
                .interrupt
                .clone()
                .expect("worker options carry the interrupt flag"),
            timed_out: Arc::clone(timed_out),
            done: Arc::clone(&done),
        });
        WatchGuard {
            watchdog: &shared.watchdog,
            done,
        }
    });

    let optimizer = Optimizer::new(&payload.instance.arch, &payload.instance.tasks)
        .with_options(solve_opts.clone());
    // Window search solves cold (a retained solver serves one search at a
    // time); the single-search default goes through the warm engine, as
    // does any job with a cost window (the window-search API has none).
    let use_engine = matches!(solve_opts.strategy, Strategy::Single) || payload.window.is_some();
    let solved = if use_engine {
        optimizer.minimize_warm(&payload.objective, engine, payload.window)
    } else {
        optimizer
            .minimize(&payload.objective)
            .map(|r| (r, WarmMode::Cold))
    };

    let solve_ms = start.elapsed().as_millis() as u64;
    let warm = solved
        .as_ref()
        .map_or(WarmLabel::Cold, |(_, mode)| WarmLabel::from(mode));
    let solved = solved.map(|(report, _)| report);
    let result = JobResult::from_solve(
        fp.to_string(),
        &solved,
        warm,
        timed_out.load(Ordering::Relaxed),
        solve_ms,
    );
    let certificate = solved.ok().and_then(|r| r.certificate);
    shared.search_totals.lock().unwrap().absorb(&result.search);
    shared.phase_totals.lock().unwrap().absorb(&result.phases);
    shared.metrics.counter("service.jobs").inc();
    shared
        .metrics
        .counter(match &result.outcome {
            JobOutcome::Optimal { .. } => "service.jobs_optimal",
            JobOutcome::Infeasible => "service.jobs_infeasible",
            JobOutcome::Budget { .. } => "service.jobs_budget",
            JobOutcome::Timeout { .. } => "service.jobs_timeout",
            JobOutcome::Error { .. } => "service.jobs_error",
        })
        .inc();
    shared
        .metrics
        .counter("service.conflicts")
        .add(result.conflicts);
    shared
        .metrics
        .histogram("service.job_ms", DEFAULT_MS_BUCKETS)
        .observe(solve_ms as f64);

    // 3. Session bookkeeping: the instance is addressable for future
    // deltas whatever the verdict; only terminal, deterministic verdicts
    // are kept as its cached result.
    let terminal = matches!(
        result.outcome,
        JobOutcome::Optimal { .. } | JobOutcome::Infeasible
    );
    let mut sessions = shared.sessions.lock().unwrap();
    sessions.cache.put(
        fp,
        Session {
            instance: payload.instance.clone(),
            objective: payload.objective.clone(),
            result: terminal.then(|| result.clone()),
            certificate,
        },
    );
    sessions.last = Some(fp);
    Response::Result(result)
}
