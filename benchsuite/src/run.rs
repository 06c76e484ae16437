//! Runs one workload: repeated set-up, closed-loop passes, the check of
//! every answer, and the metrics.
//!
//! The benchmark sees each layer from outside only: it times the public
//! calls it makes (`Optimizer::minimize`, `Service::handle`, `validate`)
//! with stopwatches on the run's `Obs` handle, and reads the spans and
//! counters the program records on that handle.

use crate::check::{check, Answer, Optimum};
use crate::metrics::Measured;
use crate::plan::{certified, plan, Mode, Plan, Size, Workload};
use crate::stats::{median, percentile};
use optalloc::{OptimizeReport, Optimizer, SolveOptions, Strategy};
use optalloc_obs::{Obs, Phase, PhaseTotals, SpanRecord};
use optalloc_service::protocol::{JobOutcome, Request, Response, WarmLabel};
use optalloc_service::{Service, ServiceConfig};
use serde::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Set-up is timed in bursts: one before the first pass and one after
/// every pass, each of at least `SETUP_BURST_S` seconds and at most
/// `SETUP_MAX_REPS` set-ups (the first one also of at least `SETUP_REPS`);
/// `setup_s` is the median of all of them. On a shared host, the speed of
/// this allocation-heavy work changes by up to 2x for seconds at a time, so
/// set-ups spread over the run have a steadier median than one burst at its
/// start.
const SETUP_REPS: usize = 5;
const SETUP_BURST_S: f64 = 0.1;
const SETUP_MAX_REPS: usize = 5000;

/// Labels of the benchmark's own stopwatches: around one request
/// (`Optimizer::minimize` or `Service::handle`) and around `validate`.
const MINIMIZE_SPAN: &str = "minimize";
const HANDLE_SPAN: &str = "handle";
const VALIDATE_SPAN: &str = "validate";

fn is_request_span(s: &SpanRecord) -> bool {
    s.phase == MINIMIZE_SPAN || s.phase == HANDLE_SPAN
}

/// Certified reference optima of every workload's instances, keyed like
/// `Job::key`.
const STORED_OPTIMA: &str = include_str!("../ref/optima.json");

pub struct RunConfig {
    pub seed: u64,
    /// Closed-loop measuring time; passes that would end past it are not
    /// started (a run always completes at least one pass).
    pub seconds: f64,
    /// Run one untraced and one traced pass and report per-layer metrics
    /// instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed request, for the log.
    pub failures: Vec<String>,
    pub metrics: Vec<Measured>,
    /// The traced pass's spans and counters (disabled in untraced runs).
    pub obs: Obs,
}

/// What one request cost, read from the public call and its answer.
#[derive(Default)]
struct Cost {
    latency_ms: f64,
    phases: PhaseTotals,
    solve_calls: u64,
    bool_vars: u64,
    literals: u64,
    constraints: u64,
    peak_learnts: u64,
    drat_steps: u64,
    drat_adds: u64,
    /// Window-search workers (0 for a single search).
    workers: u64,
    windows: u64,
    max_worker_conflicts: u64,
    /// Search ms of the busiest worker, and of all workers together.
    max_worker_search_ms: f64,
    worker_search_ms: f64,
    /// Service requests only: how the answer was produced.
    warm: Option<WarmLabel>,
}

struct Pass {
    wall_s: f64,
    answers: Vec<Answer>,
    costs: Vec<Cost>,
    /// `VmHWM` of this process when the pass ended, in MiB.
    peak_rss_mib: f64,
}

/// One burst of timed set-ups (see [`SETUP_BURST_S`]); returns the plan the
/// last one built.
fn setup_burst(workload: Workload, config: &RunConfig, setup_s: &mut Vec<f64>) -> Plan {
    let first = setup_s.len();
    loop {
        let start = Instant::now();
        let plan = plan(workload, config.seed, config.size);
        if let Mode::Service(service) = &plan.mode {
            Service::new(service.clone()).shutdown();
        }
        setup_s.push(start.elapsed().as_secs_f64());
        let burst = &setup_s[first..];
        let min_reps = if first == 0 { SETUP_REPS } else { 1 };
        let enough = burst.len() >= min_reps && burst.iter().sum::<f64>() >= SETUP_BURST_S;
        if enough || burst.len() == SETUP_MAX_REPS {
            return plan;
        }
    }
}

pub fn run(workload: Workload, config: &RunConfig) -> RunResult {
    let mut setup_s = Vec::new();
    let plan = setup_burst(workload, config, &mut setup_s);

    let traced = if config.trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let passes = if config.trace {
        vec![run_pass(&plan, &Obs::disabled()), run_pass(&plan, &traced)]
    } else {
        timed_passes(&plan, config.seconds, || {
            setup_burst(workload, config, &mut setup_s);
        })
    };

    let references = references(&plan, config.size);
    // Failure messages by (pass, request): a request fails at most once.
    let mut failures = BTreeMap::new();
    let mut violations = 0;
    let untraced = Obs::disabled();
    for (i, pass) in passes.iter().enumerate() {
        // Only the traced pass's validations belong in the trace.
        let obs = if config.trace && i == 1 {
            &traced
        } else {
            &untraced
        };
        for (j, (job, answer)) in plan.jobs.iter().zip(&pass.answers).enumerate() {
            let reference = references.get(&job.key);
            let opts = plan.solve_options();
            if let Err(e) = check(job, opts, answer, reference, obs, &mut violations) {
                failures.insert((i, j), format!("{}: {e}", job.key));
            }
        }
    }

    let metrics = if config.trace {
        let view = TraceView::new(&traced.spans(), plan.jobs.len());
        if matches!(&plan.mode, Mode::Direct(o) if o.strategy == Strategy::Single) {
            for (j, e) in view.phase_mismatches(&passes[1].costs) {
                failures.entry((1, j)).or_insert(e);
            }
        }
        per_layer(&passes, &view, &traced, violations)
    } else {
        end_to_end(&passes, &setup_s)
    };
    RunResult {
        attempted: passes.len() * plan.jobs.len(),
        failed: failures.len(),
        failures: failures.into_values().collect(),
        metrics,
        obs: traced,
    }
}

/// Untraced passes for `seconds`, calling `after_pass` after each; its time
/// counts towards `seconds`.
fn timed_passes(plan: &Plan, seconds: f64, mut after_pass: impl FnMut()) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(plan, &Obs::disabled()));
        after_pass();
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            return passes;
        }
    }
}

/// One pass over the request list by one client that waits for each
/// answer before it sends the next request.
fn run_pass(plan: &Plan, obs: &Obs) -> Pass {
    let mut answers = Vec::with_capacity(plan.jobs.len());
    let mut costs = Vec::with_capacity(plan.jobs.len());
    let wall_s = match &plan.mode {
        Mode::Direct(opts) => {
            let opts = SolveOptions {
                obs: obs.clone(),
                ..opts.clone()
            };
            let start = Instant::now();
            for job in &plan.jobs {
                let sw = obs.stopwatch(Phase::Other(MINIMIZE_SPAN));
                let result = Optimizer::new(&job.instance.arch, &job.instance.tasks)
                    .with_options(opts.clone())
                    .minimize(&job.objective);
                let latency_ms = sw.finish();
                let (answer, cost) = match result {
                    Ok(report) => from_report(report),
                    Err(e) => (Err(e.to_string()), Cost::default()),
                };
                answers.push(answer);
                costs.push(Cost { latency_ms, ..cost });
            }
            start.elapsed()
        }
        Mode::Service(config) => {
            let service = Service::new(ServiceConfig {
                solve: SolveOptions {
                    obs: obs.clone(),
                    ..config.solve.clone()
                },
                ..config.clone()
            });
            let requests: Vec<Request> = plan
                .jobs
                .iter()
                .map(|j| j.request.clone().expect("service jobs carry a request"))
                .collect();
            let start = Instant::now();
            for request in requests {
                let sw = obs.stopwatch(Phase::Other(HANDLE_SPAN));
                let response = service.handle(request);
                let latency_ms = sw.finish();
                let (answer, cost) = from_response(response);
                answers.push(answer);
                costs.push(Cost { latency_ms, ..cost });
            }
            let wall = start.elapsed();
            service.shutdown();
            wall
        }
    };
    Pass {
        wall_s: wall_s.as_secs_f64(),
        answers,
        costs,
        peak_rss_mib: peak_rss_mib(),
    }
}

fn from_report(report: OptimizeReport) -> (Answer, Cost) {
    let busiest = report
        .workers
        .iter()
        .max_by(|a, b| a.stats.solve_ms.total_cmp(&b.stats.solve_ms));
    let cost = Cost {
        phases: report.phases,
        solve_calls: report.solve_calls.into(),
        bool_vars: report.encode.bool_vars,
        literals: report.encode.literals,
        constraints: report.encode.constraints,
        peak_learnts: report.stats.peak_learnts,
        drat_steps: report
            .certificate
            .as_ref()
            .map_or(0, |c| c.summary.steps as u64),
        drat_adds: report
            .certificate
            .as_ref()
            .map_or(0, |c| c.summary.adds_verified as u64),
        workers: report.workers.len() as u64,
        windows: report.workers.iter().map(|w| w.windows.len() as u64).sum(),
        max_worker_conflicts: report
            .workers
            .iter()
            .map(|w| w.stats.conflicts)
            .max()
            .unwrap_or(0),
        max_worker_search_ms: busiest.map_or(0.0, |w| w.stats.solve_ms),
        worker_search_ms: report.workers.iter().map(|w| w.stats.solve_ms).sum(),
        ..Cost::default()
    };
    let answer = Ok(Optimum {
        cost: report.cost,
        certified: report.certificate.is_some(),
        allocation: report.solution.allocation,
    });
    (answer, cost)
}

fn from_response(response: Response) -> (Answer, Cost) {
    let result = match response {
        Response::Result(r) => r,
        other => return (Err(format!("service answered {other:?}")), Cost::default()),
    };
    let cost = Cost {
        phases: result.phases,
        solve_calls: result.solve_calls.into(),
        peak_learnts: result.search.peak_learnts,
        warm: Some(result.warm),
        ..Cost::default()
    };
    let answer = match result.outcome {
        JobOutcome::Optimal {
            cost,
            allocation,
            certified,
        } => Ok(Optimum {
            cost,
            allocation,
            certified,
        }),
        other => Err(format!("job outcome {other:?}")),
    };
    (answer, cost)
}

/// The reference optimum of every job key: the certified optima of
/// `ref/optima.json`, or — for the small lists of the tests — certified
/// solves made here.
fn references(plan: &Plan, size: Size) -> HashMap<String, Result<i64, String>> {
    if size == Size::Full {
        return stored_optima()
            .into_iter()
            .map(|(k, v)| (k, Ok(v)))
            .collect();
    }
    let mut refs = HashMap::new();
    for job in &plan.jobs {
        refs.entry(job.key.clone()).or_insert_with(|| {
            Optimizer::new(&job.instance.arch, &job.instance.tasks)
                .with_options(certified())
                .minimize(&job.objective)
                .map(|r| r.cost)
                .map_err(|e| e.to_string())
        });
    }
    refs
}

fn stored_optima() -> BTreeMap<String, i64> {
    serde_json::from_str(STORED_OPTIMA).expect("ref/optima.json is a map of optima")
}

fn end_to_end(passes: &[Pass], setup_s: &[f64]) -> Vec<Measured> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.costs.iter().map(|c| c.latency_ms))
        .collect();
    let m = |name, value, samples| Measured {
        name,
        value,
        samples,
    };
    vec![
        m("setup_s", median(setup_s), setup_s.len()),
        m("pass_s", median(&walls), walls.len()),
        m(
            "latency_p50_ms",
            percentile(&latencies, 0.5),
            latencies.len(),
        ),
        m(
            "latency_p90_ms",
            percentile(&latencies, 0.9),
            latencies.len(),
        ),
        // After the first pass, so that the figure does not depend on how
        // many passes fit into the run.
        m("peak_rss_mb", passes[0].peak_rss_mib, 1),
    ]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The traced pass's spans, each attributed to the request that caused it.
struct TraceView {
    /// Per request: encode / search / certify span totals in record order.
    phases: Vec<PhaseTotals>,
    totals: BTreeMap<&'static str, f64>,
    sat_probes: u64,
    unsat_probes: u64,
}

impl TraceView {
    fn new(spans: &[SpanRecord], requests: usize) -> TraceView {
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        // Request spans are recorded in request order; a program span belongs
        // to the request span at the root of its parent chain, or — when it
        // ran on another thread — to the last request that started before it.
        let request_spans: Vec<&SpanRecord> = spans.iter().filter(|s| is_request_span(s)).collect();
        let index: HashMap<u64, usize> = request_spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let starts: Vec<u64> = request_spans.iter().map(|s| s.start_us).collect();
        let request_of = |s: &SpanRecord| {
            let mut root = s;
            while let Some(parent) = root.parent.and_then(|p| by_id.get(&p)) {
                root = parent;
            }
            index
                .get(&root.id)
                .copied()
                .or_else(|| starts.partition_point(|&t| t <= s.start_us).checked_sub(1))
        };

        let mut view = TraceView {
            phases: vec![PhaseTotals::default(); requests],
            totals: BTreeMap::new(),
            sat_probes: 0,
            unsat_probes: 0,
        };
        for s in spans {
            let label = match s.phase.as_str() {
                "encode" => "encode",
                "search" => "search",
                "certify" => "certify",
                "preprocess" => "preprocess",
                VALIDATE_SPAN => VALIDATE_SPAN,
                _ => continue,
            };
            *view.totals.entry(label).or_default() += s.dur_ms;
            if label == "search" {
                let result = s.attrs.iter().find(|(k, _)| k == "result");
                let probe = match result.map(|(_, v)| v.as_str()) {
                    Some("sat") => Some((&mut view.sat_probes, "search.sat")),
                    Some("unsat") => Some((&mut view.unsat_probes, "search.unsat")),
                    _ => None,
                };
                if let Some((probes, key)) = probe {
                    *probes += 1;
                    *view.totals.entry(key).or_default() += s.dur_ms;
                }
            }
            if let Some(p) = request_of(s).and_then(|r| view.phases.get_mut(r)) {
                match label {
                    "encode" => p.encode_ms += s.dur_ms,
                    "search" => p.search_ms += s.dur_ms,
                    "certify" => p.certify_ms += s.dur_ms,
                    _ => {}
                }
            }
        }
        view
    }

    fn total(&self, label: &str) -> f64 {
        self.totals.get(label).copied().unwrap_or(0.0)
    }

    /// Requests whose reported phases differ from their trace totals. Both
    /// sides add the same stopwatch values in the same order, so for a
    /// single search any difference at all is a defect.
    fn phase_mismatches(&self, costs: &[Cost]) -> Vec<(usize, String)> {
        self.phases
            .iter()
            .zip(costs)
            .enumerate()
            .filter(|(_, (trace, cost))| **trace != cost.phases)
            .map(|(i, (trace, cost))| {
                let e = format!(
                    "request {i}: trace phases {trace:?} but the report says {:?}",
                    cost.phases
                );
                (i, e)
            })
            .collect()
    }
}

fn per_layer(passes: &[Pass], view: &TraceView, obs: &Obs, violations: usize) -> Vec<Measured> {
    let (untraced, traced) = (&passes[0], &passes[1]);
    let costs = &traced.costs;
    let snapshot = obs
        .metrics()
        .expect("traced runs record metrics")
        .snapshot();
    let counter = |field: &str| snapshot.counter(&format!("solver.{field}")).unwrap_or(0) as f64;
    let sum = |f: fn(&Cost) -> f64| costs.iter().map(f).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let latency = sum(|c| c.latency_ms);
    let search_ms = view.total("search");
    let service: Vec<&Cost> = costs.iter().filter(|c| c.warm.is_some()).collect();
    let warm = |label: WarmLabel| service.iter().filter(|c| c.warm == Some(label)).count() as f64;
    let service_latency: f64 = service.iter().map(|c| c.latency_ms).sum();
    let service_work: f64 = service.iter().map(|c| c.phases.total_ms()).sum();
    let worker_capacity = sum(|c| c.workers as f64 * c.latency_ms);
    // Request time outside encoding, search and certification, with a
    // parallel search counted along its critical path (the busiest worker).
    let core_self = sum(|c| {
        let search = if c.workers > 0 {
            c.max_worker_search_ms
        } else {
            c.phases.search_ms
        };
        c.latency_ms - c.phases.encode_ms - search - c.phases.certify_ms
    });

    let values: Vec<(&'static str, f64)> = vec![
        ("sat.search_ms", search_ms),
        ("sat.conflicts", counter("conflicts")),
        ("sat.propagations", counter("propagations")),
        ("sat.decisions", counter("decisions")),
        ("sat.restarts", counter("restarts")),
        (
            "sat.props_per_ms",
            ratio(counter("propagations"), search_ms),
        ),
        (
            "sat.learned_kept",
            1.0 - ratio(counter("deleted"), counter("learned")),
        ),
        ("sat.preprocess_ms", view.total("preprocess")),
        ("sat.elim_vars", counter("elim_vars")),
        ("sat.vivified", counter("vivified")),
        (
            "sat.peak_learnts",
            costs.iter().map(|c| c.peak_learnts).max().unwrap_or(0) as f64,
        ),
        (
            "intopt.certify_share",
            ratio(view.total("certify"), latency),
        ),
        ("sat.drat_steps", sum(|c| c.drat_steps as f64)),
        ("sat.drat_adds_verified", sum(|c| c.drat_adds as f64)),
        ("intopt.encode_ms", view.total("encode")),
        ("intopt.bool_vars", sum(|c| c.bool_vars as f64)),
        ("intopt.literals", sum(|c| c.literals as f64)),
        ("intopt.constraints", sum(|c| c.constraints as f64)),
        ("intopt.solve_calls", sum(|c| c.solve_calls as f64)),
        ("intopt.sat_probes", view.sat_probes as f64),
        ("intopt.unsat_probes", view.unsat_probes as f64),
        ("intopt.sat_probe_ms", view.total("search.sat")),
        ("intopt.unsat_probe_ms", view.total("search.unsat")),
        ("portfolio.windows", sum(|c| c.windows as f64)),
        (
            "portfolio.max_worker_conflicts",
            sum(|c| c.max_worker_conflicts as f64),
        ),
        (
            "portfolio.busy_frac",
            ratio(sum(|c| c.worker_search_ms), worker_capacity),
        ),
        ("sat.exported", counter("exported")),
        ("sat.imported", counter("imported")),
        ("core.self_ms", core_self),
        ("analysis.validate_ms", view.total(VALIDATE_SPAN)),
        ("analysis.violations", violations as f64),
        (
            "service.cache_hit_ratio",
            ratio(warm(WarmLabel::Cache), service.len() as f64),
        ),
        ("service.warm_reused", warm(WarmLabel::Reused)),
        ("service.warm_seeded", warm(WarmLabel::Seeded)),
        ("service.warm_cold", warm(WarmLabel::Cold)),
        (
            "service.self_share",
            ratio(service_latency - service_work, service_latency),
        ),
        ("obs.trace_overhead", traced.wall_s / untraced.wall_s - 1.0),
    ];
    values
        .into_iter()
        .map(|(name, value)| Measured {
            name,
            value,
            samples: costs.len(),
        })
        .collect()
}

/// The trace as `optalloc-trace-v1` JSONL holding only the program's own
/// spans, the form `obs_check` validates: the benchmark's request and
/// validation spans are dropped, and the spans they parented become roots.
pub fn program_trace_jsonl(obs: &Obs) -> String {
    let ours: HashSet<u64> = obs
        .spans()
        .iter()
        .filter(|s| is_request_span(s) || s.phase == VALIDATE_SPAN)
        .map(|s| s.id)
        .collect();
    let is_ours = |v: Option<&Value>| matches!(v, Some(Value::UInt(id)) if ours.contains(id));
    let mut out = String::new();
    for line in obs.export_jsonl().lines() {
        let mut record: Value = serde_json::from_str(line).expect("the exporter writes JSON lines");
        if record.get("type") == Some(&Value::Str("span".into())) {
            if is_ours(record.get("id")) {
                continue;
            }
            if is_ours(record.get("parent")) {
                if let Value::Object(fields) = &mut record {
                    fields.retain(|(k, _)| k != "parent");
                }
            }
        }
        out.push_str(&serde_json::to_string(&record).expect("a parsed line serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn names(metrics: &[Measured]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.name).collect()
    }

    /// Every workload runner, on its 1–2-request t7-sized list, answers
    /// correctly and reports exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_run_of_every_workload() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let config = RunConfig {
                    seed: 11,
                    seconds: 0.0,
                    trace,
                    size: Size::Smoke,
                };
                let result = run(workload, &config);
                let name = workload.name();
                assert_eq!(result.failures, Vec::<String>::new(), "{name}");
                assert!(result.attempted >= 1, "{name}");
                let expected = if trace { &layers } else { &e2e };
                assert_eq!(&names(&result.metrics), expected, "{name} trace={trace}");
                assert!(result.metrics.iter().all(|m| m.value.is_finite()), "{name}");
                if trace {
                    let jsonl = program_trace_jsonl(&result.obs);
                    let spans = optalloc_obs::parse_trace(&jsonl).expect("trace parses");
                    assert!(spans.iter().all(|s| !is_request_span(s)));
                    let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
                    assert!(spans
                        .iter()
                        .all(|s| s.parent.is_none_or(|p| ids.contains(&p))));
                }
            }
        }
    }
}
