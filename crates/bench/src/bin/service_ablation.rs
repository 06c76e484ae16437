//! **Service ablation** — what the long-running service buys over
//! one-shot solving: result caching and delta-driven warm re-solves.
//!
//! On `table3-t20` (the paper's task-scaling family) this harness runs,
//! through one `optalloc_service::Service`:
//!
//! 1. **cold** — first submission, nothing to reuse;
//! 2. **cache** — the identical instance again: must answer with ZERO
//!    SAT calls and the identical optimum (asserted);
//! 3. **warm** — a single-WCET delta re-solve, seeded from the previous
//!    certificate's bounds;
//! 4. **cold-mutated** — the mutated instance solved from scratch as the
//!    baseline: the warm re-solve must reach the SAME optimum with fewer
//!    conflicts in less time (asserted).
//!
//! `--full` drops the quick-mode conflict bound and adds `table3-t30`.

use optalloc::{InstanceDelta, Objective, Optimizer};
use optalloc_bench::{emit, parse_cli, solve_options, Row};
use optalloc_service::protocol::{Instance, JobOutcome, JobResult, Request, Response, WarmLabel};
use optalloc_service::{Service, ServiceConfig};
use optalloc_workloads::task_scaling;

fn result_of(response: Response) -> JobResult {
    match response {
        Response::Result(r) => r,
        other => panic!("service refused the job: {other:?}"),
    }
}

fn cost_of(result: &JobResult) -> i64 {
    match &result.outcome {
        JobOutcome::Optimal { cost, .. } => *cost,
        other => panic!("expected an optimum, got {other:?}"),
    }
}

fn row(label: String, r: &JobResult, note: String) -> Row {
    let note = format!(
        "{} SOLVE calls, {} conflicts{}{}",
        r.solve_calls,
        r.conflicts,
        if r.cached { ", cache hit" } else { "" },
        if note.is_empty() {
            String::new()
        } else {
            format!("; {note}")
        }
    );
    let result = format!("optimum {}", cost_of(r));
    Row::plain(label, result, r.solve_ms as f64 / 1000.0, note)
}

fn main() {
    let cli = parse_cli();
    let sizes: &[usize] = if cli.full { &[20, 30] } else { &[20] };
    let mut rows = Vec::new();

    for &n in sizes {
        let w = task_scaling(n);
        let instance = Instance {
            arch: w.arch.clone(),
            tasks: w.tasks.clone(),
        };
        let objective = Objective::MaxUtilizationPermille;
        let opts = solve_options(cli.full);
        let service = Service::new(ServiceConfig {
            solve: opts.clone(),
            ..ServiceConfig::default()
        });
        let solve = |i: Instance| {
            result_of(service.handle(Request::Solve {
                instance: i,
                objective: objective.clone(),
                timeout_ms: None,
            }))
        };

        // 1. Cold: first contact with the instance.
        let cold = solve(instance.clone());
        rows.push(row(format!("t{n} cold solve"), &cold, String::new()));

        // 2. Cache: the same instance must not touch the SAT layer.
        let cached = solve(instance.clone());
        assert!(
            cached.cached,
            "t{n}: identical resubmission must hit the cache"
        );
        assert_eq!(
            cached.solve_calls, 0,
            "t{n}: a cache hit must issue zero SAT calls"
        );
        assert_eq!(cached.conflicts, 0, "t{n}: a cache hit spends no conflicts");
        assert_eq!(
            cost_of(&cached),
            cost_of(&cold),
            "t{n}: cache must return the original optimum"
        );
        rows.push(row(format!("t{n} cache hit"), &cached, String::new()));

        // 3. Warm: lower one task's largest WCET by a tick and re-solve
        // through the delta path.
        let (task, ecu, wcet) = w
            .tasks
            .iter()
            .flat_map(|(_, t)| {
                t.wcet
                    .iter()
                    .map(|(&e, &c)| (t.name.clone(), w.arch.ecu(e).name.clone(), c))
            })
            .max_by_key(|&(_, _, c)| c)
            .expect("non-empty task set");
        assert!(wcet > 1, "t{n}: generated WCETs leave room to shrink");
        let ops = vec![InstanceDelta::SetWcet {
            task,
            ecu,
            wcet: wcet - 1,
        }];
        let warm = result_of(service.handle(Request::Delta {
            base: Some(cold.fingerprint.clone()),
            ops: ops.clone(),
            objective: None,
            timeout_ms: None,
        }));
        assert!(
            matches!(warm.warm, WarmLabel::Seeded | WarmLabel::Reused),
            "t{n}: a WCET delta must re-solve warm, got {:?}",
            warm.warm
        );

        // 4. Baseline: the mutated instance from scratch.
        let mut mutated = instance.clone();
        optalloc::apply_deltas(&mutated.arch, &mut mutated.tasks, &ops).expect("delta applies");
        let baseline = Optimizer::new(&mutated.arch, &mutated.tasks)
            .with_options(opts.clone())
            .minimize(&objective)
            .expect("mutated instance stays feasible");

        assert_eq!(
            cost_of(&warm),
            baseline.cost,
            "t{n}: warm and cold optima must be identical"
        );
        assert!(
            warm.conflicts < baseline.stats.conflicts,
            "t{n}: warm re-solve must spend fewer conflicts \
             (warm {} vs cold {})",
            warm.conflicts,
            baseline.stats.conflicts
        );
        let baseline_ms = baseline.wall.as_millis() as u64;
        assert!(
            warm.solve_ms < baseline_ms.max(1),
            "t{n}: warm re-solve must be faster (warm {} ms vs cold {} ms)",
            warm.solve_ms,
            baseline_ms
        );
        rows.push(row(
            format!("t{n} warm delta ({:?})", warm.warm),
            &warm,
            format!(
                "vs cold re-solve: {} conflicts, {} ms",
                baseline.stats.conflicts, baseline_ms
            ),
        ));
        rows.push(Row::plain(
            format!("t{n} warm/cold ratio"),
            format!(
                "{:.2}x conflicts",
                baseline.stats.conflicts.max(1) as f64 / warm.conflicts.max(1) as f64
            ),
            0.0,
            format!(
                "time {:.2}x",
                baseline_ms.max(1) as f64 / warm.solve_ms.max(1) as f64
            ),
        ));
        service.shutdown();
    }

    emit(
        "service ablation: result cache + delta warm re-solve vs cold solving",
        &rows,
        &cli,
    );
    println!("all in-binary assertions passed: cache hits issue zero SAT calls; warm re-solves match cold optima with fewer conflicts");
}
