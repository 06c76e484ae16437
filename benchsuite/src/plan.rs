//! The six workloads: what each request list holds and how it is served.
//!
//! A workload's *pass* is its fixed request list, run start to finish by
//! one client that waits for every answer (a closed loop).
//!
//! Instance *content* is pinned: the paper instances (Table 3 t20/t30, the
//! quick Table-4 set) and the generated instances of `service-stream` and
//! `tiny-batch` all come from [`DEFAULT_SEED`]. The run's `--seed` only
//! orders the `tiny-batch` requests and picks which instances
//! `service-stream` resubmits. Instance difficulty varies so much between
//! generator seeds (for t30 by orders of magnitude; for the generated sets
//! the interquartile range of the pass time over ten seeds was 11–13%,
//! against 5–6% with pinned content) that seeded content would measure the
//! seed, not the code.

use crate::stats::SplitMix;
use optalloc::analysis::{validate, AnalysisConfig};
use optalloc::model::{Allocation, EcuId, MediumId, TaskSet};
use optalloc::{apply_deltas, InstanceDelta, Objective, SolveOptions, Strategy};
use optalloc_service::fingerprint::fingerprint;
use optalloc_service::protocol::{Instance, Request};
use optalloc_service::ServiceConfig;
use optalloc_workloads::{
    generate, table4_workload, task_scaling, Fig2, GenParams, Workload as Generated,
};

/// The seed `task_scaling` uses; it also draws the generated instances.
pub const DEFAULT_SEED: u64 = 0x7ab1_e300;

/// Requests per `service-stream` pass.
const SERVICE_REQUESTS: usize = 120;
/// Instances per `tiny-batch` pass.
const TINY_INSTANCES: usize = 120;
/// Table-3 task counts of a `certify-t20` pass. Certified, t20 takes about
/// 0.95 s and each of the others 0.2–0.4 s, so the t20 requests are the top
/// fifth of the latencies: `latency_p90_ms` falls in their middle and
/// `latency_p50_ms` in the middle of the t12 requests. With t20 alone, p90
/// was the second largest of a dozen samples, and whether a slow spell of
/// the host hit that request decided it.
const CERTIFY_TASKS: [usize; 5] = [9, 11, 12, 13, 20];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    T30Single,
    T30Window2,
    HierAbc,
    CertifyT20,
    ServiceStream,
    TinyBatch,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::T30Single,
        Workload::T30Window2,
        Workload::HierAbc,
        Workload::CertifyT20,
        Workload::ServiceStream,
        Workload::TinyBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T30Single => "t30-single",
            Workload::T30Window2 => "t30-window2",
            Workload::HierAbc => "hier-abc",
            Workload::CertifyT20 => "certify-t20",
            Workload::ServiceStream => "service-stream",
            Workload::TinyBatch => "tiny-batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The full request lists, or (in tests) 1–2-request lists of t7-sized
/// instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg(test)]
    Smoke,
}

/// One request of a pass.
pub struct Job {
    /// Jobs with equal keys ask about the same instance; reference optima
    /// are keyed by it.
    pub key: String,
    /// The instance the answer must be valid for.
    pub instance: Instance,
    pub objective: Objective,
    /// The wire request, for workloads served through `Service::handle`.
    pub request: Option<Request>,
}

/// How a pass issues its requests.
pub enum Mode {
    /// One `Optimizer::minimize` call per job.
    Direct(SolveOptions),
    /// One `Service::handle` call per job, on a fresh in-process service
    /// per pass (so every pass starts with an empty cache).
    Service(ServiceConfig),
}

pub struct Plan {
    pub jobs: Vec<Job>,
    pub mode: Mode,
}

impl Plan {
    /// The options every answer of this plan was solved under.
    pub fn solve_options(&self) -> &SolveOptions {
        match &self.mode {
            Mode::Direct(opts) => opts,
            Mode::Service(config) => &config.solve,
        }
    }
}

/// The quick-scale options of the table harnesses: slot variables up to 24
/// ticks and a conflict budget that no workload reaches.
pub fn base_options() -> SolveOptions {
    SolveOptions {
        max_conflicts: Some(3_000_000),
        max_slot: 24,
        ..SolveOptions::default()
    }
}

pub fn certified() -> SolveOptions {
    SolveOptions {
        certify: true,
        ..base_options()
    }
}

/// Builds a workload's request list — the work `setup_s` times.
pub fn plan(workload: Workload, seed: u64, size: Size) -> Plan {
    let full = size == Size::Full;
    let trt = Objective::TokenRotationTime(MediumId(0));
    let table3 = |n| if full { n } else { 7 };
    match workload {
        Workload::T30Single => Plan {
            jobs: vec![fixed_job(&task_scaling(table3(30)), trt)],
            mode: Mode::Direct(base_options()),
        },
        Workload::T30Window2 => Plan {
            jobs: vec![fixed_job(&task_scaling(table3(30)), trt)],
            mode: Mode::Direct(SolveOptions {
                strategy: Strategy::WindowSearch {
                    workers: 2,
                    deterministic: true,
                },
                ..base_options()
            }),
        },
        Workload::HierAbc => Plan {
            jobs: hierarchical_jobs(full),
            mode: Mode::Direct(base_options()),
        },
        Workload::CertifyT20 => {
            let sizes: &[usize] = if full { &CERTIFY_TASKS } else { &[7] };
            Plan {
                jobs: sizes
                    .iter()
                    .map(|&n| fixed_job(&task_scaling(n), trt.clone()))
                    .collect(),
                mode: Mode::Direct(certified()),
            }
        }
        Workload::ServiceStream => {
            let config = ServiceConfig {
                workers: 1,
                solve: base_options(),
                ..ServiceConfig::default()
            };
            let n = if full { SERVICE_REQUESTS } else { 2 };
            Plan {
                jobs: service_stream(seed, n, &config.solve),
                mode: Mode::Service(config),
            }
        }
        Workload::TinyBatch => {
            let mut jobs = tiny_batch(if full { TINY_INSTANCES } else { 2 });
            SplitMix::new(seed).shuffle(&mut jobs);
            Plan {
                jobs,
                mode: Mode::Direct(base_options()),
            }
        }
    }
}

fn fixed_job(w: &Generated, objective: Objective) -> Job {
    Job {
        key: format!("{}/{objective:?}", w.name),
        instance: Instance {
            arch: w.arch.clone(),
            tasks: w.tasks.clone(),
        },
        objective,
        request: None,
    }
}

/// The quick Table-4 set: the 14-task application on the single ring (TRT)
/// and on Fig. 2's architectures A, B and C (ΣTRT).
fn hierarchical_jobs(full: bool) -> Vec<Job> {
    let params = GenParams {
        name: "table4-quick".into(),
        n_tasks: if full { 14 } else { 7 },
        n_chains: if full { 4 } else { 2 },
        utilization: 0.30,
        ..GenParams::tindell43()
    };
    let archs: &[Fig2] = if full {
        &[Fig2::A, Fig2::B, Fig2::C]
    } else {
        &[Fig2::C]
    };
    let mut jobs = vec![fixed_job(
        &generate(&params),
        Objective::TokenRotationTime(MediumId(0)),
    )];
    for &which in archs {
        jobs.push(fixed_job(
            &table4_workload(which, &params),
            Objective::SumTokenRotationTimes,
        ));
    }
    jobs
}

fn planted_feasible(w: &Generated) -> bool {
    validate(&w.arch, &w.tasks, &w.planted, &AnalysisConfig::default()).is_feasible()
}

/// `n` generated instances cycling through 60 shapes: every task count
/// 4–8 and ECU count 2–4, on a token ring and on CAN, under the medium's
/// objective (TRT or bus load) and under max utilization. The grid is an
/// assumption, not a measured request mix. Only instances
/// whose planted allocation validates are kept, so every job has an
/// optimum.
fn tiny_batch(n: usize) -> Vec<Job> {
    let mut rng = SplitMix::new(DEFAULT_SEED);
    (0..n)
        .map(|i| {
            let shape = i % 60;
            let n_tasks = 4 + shape % 5;
            let ring = shape / 15 % 2 == 0;
            let w = loop {
                let w = generate(&GenParams {
                    name: format!("tiny{i}"),
                    n_tasks,
                    n_chains: (n_tasks / 3).max(1),
                    n_ecus: 2 + shape / 5 % 3,
                    seed: rng.next_u64(),
                    utilization: 0.40,
                    restricted_fraction: 0.25,
                    redundant_pairs: rng.below(2),
                    token_ring: ring,
                    deadline_slack: 1.4,
                });
                if planted_feasible(&w) {
                    break w;
                }
            };
            let objective = match (shape / 30, ring) {
                (0, true) => Objective::TokenRotationTime(MediumId(0)),
                (0, false) => Objective::BusLoadPermille(MediumId(0)),
                _ => Objective::MaxUtilizationPermille,
            };
            fixed_job(&w, objective)
        })
        .collect()
}

/// An instance the stream has created, with the allocation that proves it
/// feasible.
struct Known {
    key: String,
    instance: Instance,
    planted: Allocation,
    fingerprint: String,
}

/// `n` service requests cycling through solve, delta, resubmit, delta,
/// resubmit: 20% solves of a new Table-3-shape instance, 40% deltas on the
/// latest instance, 40% resubmissions of one of the last 16 instances. The
/// mix is an assumption, not measured client traffic (see the README).
/// [`DEFAULT_SEED`] draws the instances and edits, `seed` the resubmitted
/// instances. Every instance keeps a validated witness, so every request
/// has an optimum.
///
/// Resubmissions keep the declaration order: a cache hit for a reordered
/// instance can return an allocation that fails validation in the order
/// submitted, which would make every run of this workload fail.
fn service_stream(seed: u64, n: usize, opts: &SolveOptions) -> Vec<Job> {
    let mut rng = SplitMix::new(DEFAULT_SEED);
    let mut choice = SplitMix::new(seed);
    let objective = Objective::MaxUtilizationPermille;
    let solve = |instance: &Instance| Request::Solve {
        instance: instance.clone(),
        objective: Objective::MaxUtilizationPermille,
        timeout_ms: None,
    };
    let mut known: Vec<Known> = Vec::new();
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let delta = match (i % 5, known.last()) {
            (1 | 3, Some(base)) => feasible_delta(&mut rng, base),
            _ => None,
        };
        let created = if i % 5 == 0 {
            let w = service_instance(&mut rng, known.len());
            let instance = Instance {
                arch: w.arch,
                tasks: w.tasks,
            };
            Some((solve(&instance), instance, w.planted))
        } else if let Some((ops, tasks)) = delta {
            let base = known.last().expect("deltas follow a solve");
            let request = Request::Delta {
                base: Some(base.fingerprint.clone()),
                ops,
                objective: None,
                timeout_ms: None,
            };
            let instance = Instance {
                arch: base.instance.arch.clone(),
                tasks,
            };
            Some((request, instance, base.planted.clone()))
        } else {
            None
        };
        let job = match created {
            Some((request, instance, planted)) => {
                let key = format!("service-stream/s{}", known.len());
                known.push(Known {
                    key: key.clone(),
                    fingerprint: fingerprint(&instance, &objective, opts, None).to_string(),
                    instance: instance.clone(),
                    planted,
                });
                Job {
                    key,
                    instance,
                    objective: objective.clone(),
                    request: Some(request),
                }
            }
            None => {
                let k = &known[known.len() - 1 - choice.below(known.len().min(16))];
                Job {
                    key: k.key.clone(),
                    instance: k.instance.clone(),
                    objective: objective.clone(),
                    request: Some(solve(&k.instance)),
                }
            }
        };
        jobs.push(job);
    }
    jobs
}

/// A Table-3-shape instance (token ring of 8 ECUs); the `index`-th new
/// instance of a stream has 8–12 tasks, cycling.
fn service_instance(rng: &mut SplitMix, index: usize) -> Generated {
    let n_tasks = 8 + index % 5;
    loop {
        let w = generate(&GenParams {
            name: format!("svc{index}"),
            n_tasks,
            n_chains: n_tasks / 3,
            n_ecus: 8,
            seed: rng.next_u64(),
            utilization: 0.40,
            restricted_fraction: 0.25,
            redundant_pairs: 2,
            token_ring: true,
            deadline_slack: 1.4,
        });
        if planted_feasible(&w) {
            return w;
        }
    }
}

/// One `SetWcet`, `SetDeadline` or `ForbidEcu` edit of `base` that keeps its
/// witness valid, with the edited task set; `None` when sixteen draws found
/// none.
fn feasible_delta(rng: &mut SplitMix, base: &Known) -> Option<(Vec<InstanceDelta>, TaskSet)> {
    let arch = &base.instance.arch;
    for _ in 0..16 {
        let t = rng.below(base.instance.tasks.len());
        let task = &base.instance.tasks.tasks[t];
        let planted_ecu = base.planted.placement[t];
        let op = match rng.below(3) {
            0 => {
                let (&ecu, &wcet) = task.wcet.iter().nth(rng.below(task.wcet.len()))?;
                InstanceDelta::SetWcet {
                    task: task.name.clone(),
                    ecu: arch.ecu(ecu).name.clone(),
                    wcet: (wcet * rng.range(80, 120) as u64 / 100).max(1),
                }
            }
            1 => InstanceDelta::SetDeadline {
                task: task.name.clone(),
                deadline: (task.deadline * rng.range(85, 115) as u64 / 100).clamp(1, task.period),
            },
            _ => {
                let others: Vec<EcuId> =
                    task.allowed_ecus().filter(|&e| e != planted_ecu).collect();
                if others.is_empty() {
                    continue;
                }
                InstanceDelta::ForbidEcu {
                    task: task.name.clone(),
                    ecu: arch.ecu(others[rng.below(others.len())]).name.clone(),
                }
            }
        };
        let mut tasks = base.instance.tasks.clone();
        if apply_deltas(arch, &mut tasks, std::slice::from_ref(&op)).is_err()
            || tasks == base.instance.tasks
        {
            continue;
        }
        if validate(arch, &tasks, &base.planted, &AnalysisConfig::default()).is_feasible() {
            return Some((vec![op], tasks));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(w: Workload, seed: u64) -> Vec<String> {
        plan(w, seed, Size::Full)
            .jobs
            .iter()
            .map(|j| format!("{} {:?}", j.key, j.request))
            .collect()
    }

    #[test]
    fn request_lists_follow_the_seed() {
        for w in [Workload::ServiceStream, Workload::TinyBatch] {
            let a = requests(w, 1);
            assert_eq!(a, requests(w, 1), "{w:?}");
            assert_ne!(a, requests(w, 2), "{w:?}");
        }
    }

    #[test]
    fn service_stream_mixes_solves_deltas_and_resubmissions() {
        let jobs = service_stream(7, 60, &base_options());
        assert_eq!(jobs.len(), 60);
        assert!(matches!(jobs[0].request, Some(Request::Solve { .. })));
        let deltas = jobs
            .iter()
            .filter(|j| matches!(j.request, Some(Request::Delta { .. })))
            .count();
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            12 + deltas,
            "one new instance every fifth request"
        );
        assert!(
            deltas >= 20,
            "{deltas} of 24 delta slots found a feasible edit"
        );
        // The instances themselves do not depend on the run's seed.
        let created = |seed| {
            let mut jobs = service_stream(seed, 60, &base_options());
            jobs.sort_by(|a, b| a.key.cmp(&b.key));
            jobs.dedup_by(|a, b| a.key == b.key);
            jobs.into_iter()
                .map(|j| format!("{:?}", j.instance))
                .collect::<Vec<_>>()
        };
        assert_eq!(created(7), created(8));
    }
}
