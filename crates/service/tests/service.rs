//! End-to-end tests of the allocation service: cache semantics, delta
//! warm re-solving vs. cold ground truth, admission control, graceful
//! drain, and the TCP wire protocol.

use optalloc::{analysis, InstanceDelta, Objective, OptError, Optimizer, SolveOptions};
use optalloc_model::{Architecture, Ecu, EcuId, Medium, Task, TaskId, TaskSet};
use optalloc_obs::Obs;
use optalloc_service::protocol::{
    Instance, JobOutcome, JobResult, RejectReason, Request, Response, WarmLabel,
};
use optalloc_service::{serve, Service, ServiceConfig};
use proptest::prelude::*;

/// Two ECUs on one CAN bus, three tasks with a message — small enough to
/// solve in milliseconds, rich enough to exercise placement, priorities
/// and routing.
fn small_instance() -> Instance {
    let mut arch = Architecture::new();
    let p0 = arch.push_ecu(Ecu::new("p0"));
    let p1 = arch.push_ecu(Ecu::new("p1"));
    arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
    let mut tasks = TaskSet::new();
    tasks.push(Task::new("a", 20, 20, vec![(p0, 8), (p1, 8)]).sends(TaskId(1), 2, 20));
    tasks.push(Task::new("b", 20, 20, vec![(p0, 8), (p1, 8)]));
    tasks.push(Task::new("c", 20, 19, vec![(p0, 8), (p1, 8)]));
    Instance { arch, tasks }
}

/// The same instance with every declaration order permuted (ECUs, tasks);
/// ids differ, names and content do not.
fn permuted_instance() -> Instance {
    let mut arch = Architecture::new();
    let p1 = arch.push_ecu(Ecu::new("p1"));
    let p0 = arch.push_ecu(Ecu::new("p0"));
    arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
    let mut tasks = TaskSet::new();
    tasks.push(Task::new("c", 20, 19, vec![(p0, 8), (p1, 8)]));
    tasks.push(Task::new("b", 20, 20, vec![(p0, 8), (p1, 8)]));
    tasks.push(Task::new("a", 20, 20, vec![(p0, 8), (p1, 8)]).sends(TaskId(1), 2, 20));
    Instance { arch, tasks }
}

fn solve_request(instance: Instance) -> Request {
    Request::Solve {
        instance,
        objective: Objective::MaxUtilizationPermille,
        timeout_ms: None,
    }
}

fn expect_result(response: Response) -> JobResult {
    match response {
        Response::Result(r) => r,
        other => panic!("expected a job result, got {other:?}"),
    }
}

fn optimal_cost(result: &JobResult) -> i64 {
    match &result.outcome {
        JobOutcome::Optimal { cost, .. } => *cost,
        other => panic!("expected an optimal outcome, got {other:?}"),
    }
}

#[test]
fn cache_hit_answers_without_touching_the_sat_layer() {
    let service = Service::new(ServiceConfig::default());
    let first = expect_result(service.handle(solve_request(small_instance())));
    assert!(!first.cached);
    assert!(first.solve_calls > 0);

    let second = expect_result(service.handle(solve_request(small_instance())));
    assert!(second.cached);
    assert_eq!(second.warm, WarmLabel::Cache);
    assert_eq!(second.solve_calls, 0);
    assert_eq!(second.search.conflicts, 0);
    assert_eq!(second.fingerprint, first.fingerprint);
    assert_eq!(optimal_cost(&second), optimal_cost(&first));
}

/// The `search` object of a result line and the `solver.*` counters of the
/// metrics registry read the same solver record: after one single-search
/// job, every `u64` counter of the one equals the other.
#[test]
fn result_counters_match_the_exported_solver_metrics() {
    let obs = Obs::enabled();
    let service = Service::new(ServiceConfig {
        solve: SolveOptions {
            obs: obs.clone(),
            ..SolveOptions::default()
        },
        ..ServiceConfig::default()
    });
    let workload = optalloc_workloads::task_scaling(12);
    let result = expect_result(service.handle(Request::Solve {
        instance: Instance {
            arch: workload.arch,
            tasks: workload.tasks,
        },
        objective: Objective::MaxUtilizationPermille,
        timeout_ms: None,
    }));
    optimal_cost(&result);
    assert!(result.search.conflicts > 0 && result.search.elim_vars > 0);
    let snapshot = obs.metrics().expect("enabled").snapshot();
    let mut disagree = Vec::new();
    result.search.for_each_metric(&mut |name, kind, value| {
        // `solve_ms` is the one `f64` counter.
        if kind.starts_with("counter") && name != "solve_ms" {
            let exported = snapshot.counter(&format!("solver.{name}")).unwrap_or(0);
            if exported as f64 != value {
                disagree.push(format!("{name}: result {value}, registry {exported}"));
            }
        }
    });
    assert!(disagree.is_empty(), "{disagree:#?}");
}

#[test]
fn permuted_instance_hits_the_cache_with_a_remapped_allocation() {
    let service = Service::new(ServiceConfig::default());
    let first = expect_result(service.handle(solve_request(small_instance())));

    let permuted = permuted_instance();
    let hit = expect_result(service.handle(solve_request(permuted.clone())));
    assert!(
        hit.cached,
        "reordered declarations must share the cache key"
    );
    assert_eq!(hit.fingerprint, first.fingerprint);
    assert_eq!(optimal_cost(&hit), optimal_cost(&first));

    // The returned allocation must be valid *in the permuted instance's
    // own id space* — re-validate it with the independent analysis.
    let JobOutcome::Optimal { allocation, .. } = &hit.outcome else {
        panic!("expected an optimal outcome");
    };
    let report = analysis::validate(
        &permuted.arch,
        &permuted.tasks,
        allocation,
        &analysis::AnalysisConfig::default(),
    );
    assert!(report.is_feasible(), "remapped allocation must re-validate");
}

/// `instance` with its tasks declared in reverse order: every task
/// reference is rewritten, so only the ids change.
fn reversed(instance: &Instance) -> Instance {
    let last = instance.tasks.len() as u32 - 1;
    let flip = |t: TaskId| TaskId(last - t.0);
    let mut tasks = instance.tasks.clone();
    tasks.tasks.reverse();
    for t in &mut tasks.tasks {
        t.separation = t.separation.iter().map(|&s| flip(s)).collect();
        for m in &mut t.messages {
            m.to = flip(m.to);
        }
    }
    Instance {
        arch: instance.arch.clone(),
        tasks,
    }
}

/// Regression: message priorities are deadline-monotonic with ties broken
/// by the sender's declaration order, so reversing the tasks can change
/// which of two equal-deadline messages wins the bus. A resubmission with
/// the tasks reversed must still be answered with an allocation that
/// validates in the order submitted, on 8–12-task Table-3-shape instances.
#[test]
fn reversed_resubmission_is_answered_with_a_valid_allocation() {
    // Seeds 44 and 57 flip the bus order of two equal-deadline messages.
    for seed in [0u64, 44, 57] {
        let service = Service::new(ServiceConfig::default());
        let n_tasks = 8 + seed as usize % 5;
        let w = optalloc_workloads::generate(&optalloc_workloads::GenParams {
            name: format!("svc{seed}"),
            n_tasks,
            n_chains: n_tasks / 3,
            n_ecus: 8,
            seed,
            utilization: 0.40,
            restricted_fraction: 0.25,
            redundant_pairs: 2,
            token_ring: true,
            deadline_slack: 1.4,
        });
        let original = Instance {
            arch: w.arch,
            tasks: w.tasks,
        };
        let first = expect_result(service.handle(solve_request(original.clone())));
        if !matches!(first.outcome, JobOutcome::Optimal { .. }) {
            continue;
        }
        let flipped = reversed(&original);
        let answer = expect_result(service.handle(solve_request(flipped.clone())));
        let JobOutcome::Optimal { allocation, .. } = &answer.outcome else {
            panic!(
                "seed {seed}: expected an optimal outcome, got {:?}",
                answer.outcome
            );
        };
        let report = analysis::validate(
            &flipped.arch,
            &flipped.tasks,
            allocation,
            &analysis::AnalysisConfig::default(),
        );
        assert!(
            report.is_feasible(),
            "seed {seed} (cached: {}): {:?}",
            answer.cached,
            report.violations
        );
    }
}

#[test]
fn delta_re_solve_is_warm_and_matches_a_cold_solve() {
    let service = Service::new(ServiceConfig::default());
    let base = expect_result(service.handle(solve_request(small_instance())));

    let ops = vec![InstanceDelta::SetWcet {
        task: "b".into(),
        ecu: "p0".into(),
        wcet: 12,
    }];
    let warmed = expect_result(service.handle(Request::Delta {
        base: Some(base.fingerprint.clone()),
        ops: ops.clone(),
        objective: None,
        timeout_ms: None,
    }));
    assert!(!warmed.cached);
    assert_ne!(warmed.fingerprint, base.fingerprint);
    assert!(
        matches!(warmed.warm, WarmLabel::Seeded | WarmLabel::Reused),
        "a WCET delta must keep warm state, got {:?}",
        warmed.warm
    );

    // Ground truth: a cold solve of the mutated instance.
    let mut mirror = small_instance();
    optalloc::apply_deltas(&mirror.arch, &mut mirror.tasks, &ops).unwrap();
    let cold = Optimizer::new(&mirror.arch, &mirror.tasks)
        .minimize(&Objective::MaxUtilizationPermille)
        .unwrap();
    assert_eq!(optimal_cost(&warmed), cold.cost);

    // An anonymous delta (base = None) chains off the most recent job.
    let chained = expect_result(service.handle(Request::Delta {
        base: None,
        ops: vec![InstanceDelta::SetWcet {
            task: "b".into(),
            ecu: "p0".into(),
            wcet: 8,
        }],
        objective: None,
        timeout_ms: None,
    }));
    assert_eq!(optimal_cost(&chained), optimal_cost(&base));
}

#[test]
fn rejected_deltas_leave_the_session_usable() {
    let service = Service::new(ServiceConfig::default());
    let base = expect_result(service.handle(solve_request(small_instance())));

    // Unknown task: resolution fails, nothing is enqueued.
    let bad = service.handle(Request::Delta {
        base: Some(base.fingerprint.clone()),
        ops: vec![InstanceDelta::SetDeadline {
            task: "nope".into(),
            deadline: 10,
        }],
        objective: None,
        timeout_ms: None,
    });
    assert!(matches!(bad, Response::Error { .. }), "got {bad:?}");

    // Unknown base fingerprint.
    let bad = service.handle(Request::Delta {
        base: Some(format!("{:0>32}", "f00d")),
        ops: vec![],
        objective: None,
        timeout_ms: None,
    });
    assert!(matches!(bad, Response::Error { .. }), "got {bad:?}");

    // The session survives failed resolutions: a valid delta still works.
    let ok = expect_result(service.handle(Request::Delta {
        base: Some(base.fingerprint.clone()),
        ops: vec![],
        objective: None,
        timeout_ms: None,
    }));
    assert_eq!(optimal_cost(&ok), optimal_cost(&base));
}

#[test]
fn delta_with_no_history_is_an_error() {
    let service = Service::new(ServiceConfig::default());
    let resp = service.handle(Request::Delta {
        base: None,
        ops: vec![],
        objective: None,
        timeout_ms: None,
    });
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
}

/// `cache_capacity` bounds the sessions too: the least recently used
/// fingerprint is forgotten, so a delta on it has no base, while a delta on
/// the latest still solves warm.
#[test]
fn cache_capacity_bounds_the_sessions() {
    let service = Service::new(ServiceConfig {
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    let set_wcet = |ecu: &str, wcet| InstanceDelta::SetWcet {
        task: "b".into(),
        ecu: ecu.into(),
        wcet,
    };
    let solved: Vec<JobResult> = [8, 7, 6]
        .into_iter()
        .map(|wcet| {
            let mut instance = small_instance();
            optalloc::apply_deltas(&instance.arch, &mut instance.tasks, &[set_wcet("p0", wcet)])
                .unwrap();
            expect_result(service.handle(solve_request(instance)))
        })
        .collect();
    let delta = |base: &JobResult| {
        service.handle(Request::Delta {
            base: Some(base.fingerprint.clone()),
            ops: vec![set_wcet("p1", 7)],
            objective: None,
            timeout_ms: None,
        })
    };
    match delta(&solved[0]) {
        Response::Error { message } => {
            assert!(message.contains("unknown base fingerprint"), "{message}")
        }
        other => panic!("expected an error, got {other:?}"),
    }
    let warmed = expect_result(delta(&solved[2]));
    assert!(
        matches!(warmed.warm, WarmLabel::Seeded | WarmLabel::Reused),
        "got {:?}",
        warmed.warm
    );
    match service.handle(Request::Status) {
        Response::Status { cached, .. } => assert_eq!(cached, 2),
        other => panic!("expected a status, got {other:?}"),
    }
}

#[test]
fn cost_bound_deltas_solve_inside_the_window() {
    let service = Service::new(ServiceConfig::default());
    let base = expect_result(service.handle(solve_request(small_instance())));
    let optimum = optimal_cost(&base);

    // A window strictly above the optimum keeps the instance feasible but
    // must not return anything below the lower bound.
    let floored = expect_result(service.handle(Request::Delta {
        base: Some(base.fingerprint.clone()),
        ops: vec![InstanceDelta::CostBounds {
            lower: Some(optimum + 1),
            upper: None,
        }],
        objective: None,
        timeout_ms: None,
    }));
    match &floored.outcome {
        JobOutcome::Optimal { cost, .. } => assert!(*cost > optimum),
        JobOutcome::Infeasible => {} // nothing above the optimum exists
        other => panic!("unexpected outcome {other:?}"),
    }

    // A window strictly below the optimum is infeasible by definition.
    let capped = expect_result(service.handle(Request::Delta {
        base: Some(base.fingerprint),
        ops: vec![InstanceDelta::CostBounds {
            lower: None,
            upper: Some(optimum - 1),
        }],
        objective: None,
        timeout_ms: None,
    }));
    assert_eq!(capped.outcome, JobOutcome::Infeasible);
}

#[test]
fn certified_results_cache_their_certificate() {
    let config = ServiceConfig {
        solve: SolveOptions {
            certify: true,
            ..SolveOptions::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    let first = expect_result(service.handle(solve_request(small_instance())));
    assert!(matches!(
        first.outcome,
        JobOutcome::Optimal {
            certified: true,
            ..
        }
    ));
    let cert = service
        .certificate(&first.fingerprint)
        .expect("certified solve caches its certificate");
    assert_eq!(cert.certificate.optimum, optimal_cost(&first));

    // The cache hit still reports (and retains) the certificate.
    let second = expect_result(service.handle(solve_request(permuted_instance())));
    assert!(second.cached);
    assert!(matches!(
        second.outcome,
        JobOutcome::Optimal {
            certified: true,
            ..
        }
    ));
}

#[test]
fn drain_rejects_new_submissions_with_a_typed_response() {
    let service = Service::new(ServiceConfig::default());
    let first = expect_result(service.handle(solve_request(small_instance())));
    assert!(matches!(first.outcome, JobOutcome::Optimal { .. }));

    assert_eq!(service.handle(Request::Shutdown), Response::ShuttingDown);
    let rejected = service.handle(solve_request(small_instance()));
    assert_eq!(
        rejected,
        Response::Rejected {
            reason: RejectReason::Draining
        }
    );
    match service.handle(Request::Status) {
        Response::Status { draining, .. } => assert!(draining),
        other => panic!("expected status, got {other:?}"),
    }
    service.shutdown(); // completes without hanging
}

#[test]
fn full_queue_rejects_with_back_pressure() {
    let config = ServiceConfig {
        queue_capacity: 0,
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    let rejected = service.handle(solve_request(small_instance()));
    assert_eq!(
        rejected,
        Response::Rejected {
            reason: RejectReason::QueueFull
        }
    );
}

#[test]
fn cancelling_a_running_job_interrupts_it() {
    let service = Service::new(ServiceConfig::default());
    let workload = optalloc_workloads::task_scaling(20);
    let id = service
        .submit(Request::Solve {
            instance: Instance {
                arch: workload.arch,
                tasks: workload.tasks,
            },
            objective: Objective::MaxUtilizationPermille,
            timeout_ms: None,
        })
        .expect("admitted");
    std::thread::sleep(std::time::Duration::from_millis(30));
    let cancelled = service.cancel(id);
    let result = expect_result(service.wait(id));
    if cancelled {
        assert!(
            matches!(result.outcome, JobOutcome::Timeout { .. }),
            "a cancelled job reports a timeout outcome, got {:?}",
            result.outcome
        );
    } else {
        // The job beat the cancel; it must then have finished normally.
        assert!(matches!(result.outcome, JobOutcome::Optimal { .. }));
    }
}

#[test]
fn per_job_timeouts_interrupt_the_solver() {
    let service = Service::new(ServiceConfig::default());
    let workload = optalloc_workloads::task_scaling(20);
    let result = expect_result(service.handle(Request::Solve {
        instance: Instance {
            arch: workload.arch,
            tasks: workload.tasks,
        },
        objective: Objective::MaxUtilizationPermille,
        timeout_ms: Some(1),
    }));
    assert!(
        matches!(result.outcome, JobOutcome::Timeout { .. }),
        "a 1 ms deadline on table3-t20 must fire, got {:?}",
        result.outcome
    );
}

// ----------------------------------------------------------------------
// TCP wire protocol
// ----------------------------------------------------------------------

#[test]
fn tcp_round_trip_solve_status_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let mut server = serve(Service::new(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut call = |req: &Request| -> Response {
        let mut line = serde_json::to_string(req).unwrap();
        line.push('\n');
        writer.write_all(line.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let first = expect_result(call(&solve_request(small_instance())));
    assert!(matches!(first.outcome, JobOutcome::Optimal { .. }));

    let cached = expect_result(call(&solve_request(small_instance())));
    assert!(cached.cached);
    assert_eq!(cached.solve_calls, 0);

    match call(&Request::Status) {
        Response::Status {
            queued,
            inflight,
            draining,
            cached,
            search,
            phases,
        } => {
            assert_eq!((queued, inflight, draining), (0, 0, false));
            assert_eq!(cached, 1);
            // The first (uncached) solve propagated something; the cache
            // hit added nothing on top.
            assert!(search.propagations > 0, "{search:?}");
            // Phase totals accumulate across jobs: the uncached solve
            // spent real time encoding and searching.
            assert!(
                phases.encode_ms >= 0.0 && phases.search_ms >= 0.0,
                "{phases:?}"
            );
        }
        other => panic!("expected status, got {other:?}"),
    }

    assert_eq!(call(&Request::Shutdown), Response::ShuttingDown);
    // The connection stays up, but submissions are now rejected as
    // draining — the typed response crosses the wire too.
    assert_eq!(
        call(&solve_request(small_instance())),
        Response::Rejected {
            reason: RejectReason::Draining
        }
    );
    server.shutdown(); // drains and joins cleanly
}

#[test]
fn tcp_malformed_requests_answer_with_a_typed_error() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = serve(Service::new(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"this is not json\n").unwrap();
    writer.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    match serde_json::from_str::<Response>(&resp).unwrap() {
        Response::Error { message } => assert!(message.contains("malformed")),
        other => panic!("expected an error, got {other:?}"),
    }
}

#[test]
fn tcp_oversized_request_gets_a_typed_error_and_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = serve(Service::new(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Stream one line well past the cap. The server must not buffer it
    // all: it answers with a typed error as soon as the cap is crossed,
    // then discards the remainder of the line.
    let chunk = vec![b'x'; 64 * 1024];
    let total = optalloc_service::server::MAX_REQUEST_BYTES + 2 * chunk.len();
    let mut sent = 0;
    while sent < total {
        writer.write_all(&chunk).unwrap();
        sent += chunk.len();
    }
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();

    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    match serde_json::from_str::<Response>(&resp).unwrap() {
        Response::Error { message } => assert!(message.contains("oversized"), "{message}"),
        other => panic!("expected an error, got {other:?}"),
    }

    // The connection is still usable for well-formed requests.
    let mut line = serde_json::to_string(&Request::Status).unwrap();
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(matches!(
        serde_json::from_str::<Response>(&resp).unwrap(),
        Response::Status { .. }
    ));
}

#[test]
fn tcp_half_closed_connection_still_gets_its_last_request_answered() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};

    let server = serve(Service::new(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // The client sends a request with no trailing newline and half-closes
    // its write side. The server must treat EOF as end-of-line, answer on
    // the still-open read side, and not just drop the connection.
    let line = serde_json::to_string(&Request::Status).unwrap();
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    writer.shutdown(Shutdown::Write).unwrap();

    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(matches!(
        serde_json::from_str::<Response>(&resp).unwrap(),
        Response::Status { .. }
    ));
    // After the reply the server sees EOF and closes cleanly.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
}

#[test]
fn tcp_metrics_round_trip_reports_job_counters() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = serve(Service::new(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut call = |req: &Request| -> Response {
        let mut line = serde_json::to_string(req).unwrap();
        line.push('\n');
        writer.write_all(line.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let first = expect_result(call(&solve_request(small_instance())));
    assert!(matches!(first.outcome, JobOutcome::Optimal { .. }));
    let cached = expect_result(call(&solve_request(small_instance())));
    assert!(cached.cached);

    match call(&Request::Metrics) {
        Response::Metrics { snapshot } => {
            let counter = |name: &str| {
                snapshot
                    .counters
                    .iter()
                    .find(|c| c.name == name)
                    .map(|c| c.value)
            };
            assert_eq!(counter("service.jobs"), Some(1), "{snapshot:?}");
            assert_eq!(counter("service.jobs_optimal"), Some(1));
            assert_eq!(counter("service.cache_hits"), Some(1));
            let job_ms = snapshot
                .histograms
                .iter()
                .find(|h| h.name == "service.job_ms")
                .expect("job_ms histogram");
            assert_eq!(job_ms.count, 1);
        }
        other => panic!("expected metrics, got {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Random delta chains: warm must equal cold at every step
// ----------------------------------------------------------------------

/// Derives one mutation from a seed, against the current mirror state.
/// Name-based like the protocol, so it stays valid as tasks come and go.
fn op_from_seed(mirror: &TaskSet, step: usize, seed: u64) -> InstanceDelta {
    let task = |sel: u64| {
        let idx = (sel as usize) % mirror.len();
        mirror.iter().nth(idx).unwrap().1.name.clone()
    };
    match seed % 4 {
        0 => InstanceDelta::SetWcet {
            task: task(seed / 4),
            ecu: if (seed / 8).is_multiple_of(2) {
                "p0"
            } else {
                "p1"
            }
            .into(),
            wcet: 1 + seed / 16 % 12,
        },
        1 => InstanceDelta::SetDeadline {
            task: task(seed / 4),
            deadline: 10 + seed / 16 % 60,
        },
        2 => InstanceDelta::AddTask(Task::new(
            format!("g{step}"),
            60,
            30 + seed / 16 % 30,
            vec![
                (EcuId(0), 1 + seed / 16 % 10),
                (EcuId(1), 1 + seed / 32 % 10),
            ],
        )),
        _ => InstanceDelta::RemoveTask {
            task: task(seed / 4),
        },
    }
}

/// Runs a random chain of deltas through a service and asserts that every
/// warm re-solve agrees exactly with a cold solve of the mutated mirror.
fn check_delta_chain(seeds: &[u64], certify: bool) -> Result<(), TestCaseError> {
    let config = ServiceConfig {
        solve: SolveOptions {
            certify,
            ..SolveOptions::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    let mut mirror = small_instance();
    let base = expect_result(service.handle(solve_request(mirror.clone())));
    let mut fingerprint = base.fingerprint;

    for (step, &seed) in seeds.iter().enumerate() {
        let op = op_from_seed(&mirror.tasks, step, seed);
        let response = service.handle(Request::Delta {
            base: Some(fingerprint.clone()),
            ops: vec![op.clone()],
            objective: None,
            timeout_ms: None,
        });

        // Mirror the mutation locally; both sides use the same
        // transactional engine, so rejection must match exactly.
        let applied = optalloc::apply_deltas(&mirror.arch, &mut mirror.tasks, &[op]);
        match applied {
            Err(_) => {
                prop_assert!(
                    matches!(response, Response::Error { .. }),
                    "service accepted a delta the engine rejects: {response:?}"
                );
                continue; // mirror unchanged (transactional), chain goes on
            }
            Ok(window) => {
                prop_assert!(window.is_unbounded(), "model deltas carry no window");
            }
        }

        let result = expect_result(response);
        fingerprint = result.fingerprint.clone();
        let cold = Optimizer::new(&mirror.arch, &mirror.tasks)
            .minimize(&Objective::MaxUtilizationPermille);
        match (&result.outcome, &cold) {
            (
                JobOutcome::Optimal {
                    cost, certified, ..
                },
                Ok(report),
            ) => {
                prop_assert_eq!(*cost, report.cost, "warm optimum diverged at step {}", step);
                prop_assert_eq!(*certified, certify);
            }
            (JobOutcome::Infeasible, Err(OptError::Infeasible)) => {}
            (warm, cold) => {
                return Err(TestCaseError::Fail(format!(
                    "warm/cold verdicts diverged at step {step}: {warm:?} vs {cold:?}"
                )))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_delta_chains_match_cold_re_solves(
        seeds in proptest::collection::vec(any::<u64>(), 1..6)
    ) {
        check_delta_chain(&seeds, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn random_delta_chains_match_cold_re_solves_under_certify(
        seeds in proptest::collection::vec(any::<u64>(), 1..5)
    ) {
        check_delta_chain(&seeds, true)?;
    }
}
