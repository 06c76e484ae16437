//! Correctness of every answer: the allocation must pass the independent
//! analysis, its recomputed objective must equal the reported cost, and the
//! cost must equal the job's reference optimum.

use crate::plan::Job;
use optalloc::analysis::{
    bus_load_permille, ecu_utilization_permille, sum_trt, token_rotation_time,
    utilization_minmax_spread_permille, validate, AnalysisConfig,
};
use optalloc::model::Allocation;
use optalloc::{Objective, SolveOptions};
use optalloc_obs::{Obs, Phase};

/// An answer the program gave: an optimum, or why there was none.
pub type Answer = Result<Optimum, String>;

#[derive(Clone, Debug)]
pub struct Optimum {
    pub cost: i64,
    pub allocation: Allocation,
    /// A verified optimality certificate came with the answer.
    pub certified: bool,
}

/// The objective value of `alloc`, computed by the analysis crate alone.
fn objective_value(job: &Job, alloc: &Allocation) -> i64 {
    let (arch, tasks) = (&job.instance.arch, &job.instance.tasks);
    match &job.objective {
        Objective::TokenRotationTime(m) => token_rotation_time(arch, alloc, *m).unwrap_or(0) as i64,
        Objective::SumTokenRotationTimes => sum_trt(arch, alloc) as i64,
        Objective::BusLoadPermille(m) => bus_load_permille(arch, tasks, alloc, *m) as i64,
        Objective::MaxUtilizationPermille => {
            ecu_utilization_permille(tasks, alloc, arch.num_ecus())
                .into_iter()
                .max()
                .unwrap_or(0) as i64
        }
        Objective::UtilizationSpreadPermille => {
            utilization_minmax_spread_permille(tasks, alloc, arch.num_ecus()) as i64
        }
        Objective::Feasibility => 0,
    }
}

/// Checks one answer. `violations` accumulates the analysis violations
/// found (zero for a correct program); `validate` calls are timed on `obs`.
pub fn check(
    job: &Job,
    opts: &SolveOptions,
    answer: &Answer,
    reference: Option<&Result<i64, String>>,
    obs: &Obs,
    violations: &mut usize,
) -> Result<(), String> {
    let optimum = answer.as_ref().map_err(|e| format!("no optimum: {e}"))?;
    let config = AnalysisConfig {
        task_jitter: opts.task_jitter,
        gateway_service: opts.gateway_service,
    };
    let sw = obs.stopwatch(Phase::Other("validate"));
    let report = validate(
        &job.instance.arch,
        &job.instance.tasks,
        &optimum.allocation,
        &config,
    );
    sw.finish();
    if !report.is_feasible() {
        *violations += report.violations.len();
        return Err(format!(
            "allocation fails validation: {:?}",
            report.violations
        ));
    }
    let recomputed = objective_value(job, &optimum.allocation);
    if recomputed != optimum.cost {
        return Err(format!(
            "reported cost {} but the allocation's objective is {recomputed}",
            optimum.cost
        ));
    }
    if opts.certify && !optimum.certified {
        return Err("certification was requested but no certificate came back".into());
    }
    match reference {
        Some(Ok(r)) if *r == optimum.cost => Ok(()),
        Some(Ok(r)) => Err(format!("optimum {} but the reference is {r}", optimum.cost)),
        Some(Err(e)) => Err(format!("no reference optimum: {e}")),
        None => Err(format!(
            "no reference optimum for {}; run `bench_suite record-ref`",
            job.key
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{base_options, plan, Size, Workload, DEFAULT_SEED};
    use optalloc::model::EcuId;
    use optalloc::Optimizer;

    #[test]
    fn wrong_optima_and_invalid_allocations_fail() {
        // Table-3 t7: eight ECUs, some tasks restricted to two of them.
        let job = &plan(Workload::T30Single, DEFAULT_SEED, Size::Smoke).jobs[0];
        let opts = base_options();
        let report = Optimizer::new(&job.instance.arch, &job.instance.tasks)
            .with_options(opts.clone())
            .minimize(&job.objective)
            .expect("tiny instances have an optimum");
        let good = Optimum {
            cost: report.cost,
            allocation: report.solution.allocation.clone(),
            certified: false,
        };
        let obs = Obs::disabled();
        let mut violations = 0;
        let reference = Ok(report.cost);
        let run = |answer: &Answer, reference: &Result<i64, String>, v: &mut usize| {
            check(job, &opts, answer, Some(reference), &obs, v)
        };
        assert_eq!(run(&Ok(good.clone()), &reference, &mut violations), Ok(()));

        // The right allocation against a reference one lower: wrong optimum.
        let err = run(&Ok(good.clone()), &Ok(report.cost - 1), &mut violations).unwrap_err();
        assert!(err.contains("reference"), "{err}");

        // A cost the allocation does not have.
        let lying = Optimum {
            cost: report.cost + 1,
            ..good.clone()
        };
        assert!(run(&Ok(lying), &reference, &mut violations).is_err());

        // A task moved onto an ECU outside its permission set.
        let (t, ecu) = job
            .instance
            .tasks
            .tasks
            .iter()
            .enumerate()
            .find_map(|(t, task)| {
                let n = job.instance.arch.num_ecus();
                (0..n)
                    .map(EcuId::from)
                    .find(|&e| !task.may_run_on(e))
                    .map(|e| (t, e))
            })
            .expect("t7 has a restricted task");
        let mut broken = good.clone();
        broken.allocation.placement[t] = ecu;
        let err = run(&Ok(broken), &reference, &mut violations).unwrap_err();
        assert!(err.contains("validation"), "{err}");
        assert!(violations > 0);

        assert!(run(&Err("budget".into()), &reference, &mut violations).is_err());
    }
}
