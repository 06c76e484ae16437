//! Simulated annealing allocator in the style of Tindell, Burns & Wellings
//! \[5\] — the heuristic baseline the paper's Table 1 compares against.
//!
//! The state is a task placement plus TDMA slot tables; message routes and
//! per-hop deadline budgets are derived (shortest media path, even split),
//! and priorities are deadline-monotonic. Moves:
//!
//! * move one task to another permitted ECU,
//! * swap two tasks whose permission sets allow it,
//! * grow or shrink one TDMA slot (when slots are part of the objective).
//!
//! Infeasibility contributes a large per-violation penalty to the energy,
//! so the chain can traverse infeasible regions (the classic \[5\] trick).
//! Multiple independent chains run in parallel (scoped threads, at most one
//! per core); the best final state wins.

use crate::energy::{energy, HeuristicObjective};
use optalloc_analysis::AnalysisConfig;
use optalloc_model::{
    deadline_monotonic, shortest_route, Allocation, Architecture, EcuId, MediumId, MediumKind,
    TaskId, TaskSet, Time,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Annealing schedule and search parameters.
#[derive(Clone, Debug)]
pub struct SaParams {
    /// RNG seed (chains use `seed + chain_index`).
    pub seed: u64,
    /// Number of independent parallel chains.
    pub restarts: usize,
    /// Moves attempted per temperature stage.
    pub iters_per_stage: usize,
    /// Geometric cooling factor per stage.
    pub alpha: f64,
    /// Number of cooling stages.
    pub stages: usize,
    /// Upper bound for slot-table moves.
    pub max_slot: Time,
}

impl Default for SaParams {
    fn default() -> SaParams {
        SaParams {
            seed: 0x5eed_5a11,
            restarts: 4,
            iters_per_stage: 400,
            alpha: 0.92,
            stages: 60,
            max_slot: 64,
        }
    }
}

/// Outcome of an annealing run.
#[derive(Clone, Debug)]
pub struct SaResult {
    /// Best allocation found.
    pub allocation: Allocation,
    /// Its energy (`0 violations` ⇔ `energy == objective`).
    pub energy: i64,
    /// Whether the best allocation is feasible.
    pub feasible: bool,
    /// Objective value of the best allocation (meaningful when feasible).
    pub objective: i64,
    /// Total number of energy evaluations across all chains.
    pub evaluations: u64,
}

/// Derives routes (shortest media path, even deadline split) and DM
/// priorities for a placement, in place.
pub fn derive_routes(arch: &Architecture, tasks: &TaskSet, alloc: &mut Allocation) {
    alloc.priorities = deadline_monotonic(tasks);
    for (mid, m) in tasks.messages() {
        let s = alloc.placement[mid.sender.index()];
        let r = alloc.placement[m.to.index()];
        *alloc.route_mut(mid) = shortest_route(arch, s, r, m.deadline);
    }
}

/// Minimal feasible slot tables: each member's slot must fit the largest
/// frame it forwards (or 1 when it forwards nothing).
pub fn derive_min_slots(arch: &Architecture, tasks: &TaskSet, alloc: &mut Allocation) {
    for (k, med) in arch.iter_media() {
        if !matches!(med.kind, MediumKind::Tdma { .. }) {
            continue;
        }
        let mut slots: Vec<Time> = vec![1; med.members.len()];
        for (mid, m) in tasks.messages() {
            let route = alloc.routes[mid.sender.index()][mid.index as usize].clone();
            for (pos, &rk) in route.media.iter().enumerate() {
                if rk != k {
                    continue;
                }
                let fwd = if pos == 0 {
                    alloc.placement[mid.sender.index()]
                } else {
                    match arch.gateway_between(route.media[pos - 1], rk) {
                        Some(g) => g,
                        None => continue,
                    }
                };
                if let Some(i) = med.members.iter().position(|&p| p == fwd) {
                    slots[i] = slots[i].max(med.transmission_time(m.size));
                }
            }
        }
        alloc.slot_overrides.insert(k, slots);
    }
}

fn random_placement(tasks: &TaskSet, arch: &Architecture, rng: &mut SmallRng) -> Vec<EcuId> {
    tasks
        .iter()
        .map(|(_, t)| {
            let allowed: Vec<EcuId> = t
                .allowed_ecus()
                .filter(|&p| arch.ecu(p).hosts_tasks)
                .collect();
            allowed[rng.gen_range(0..allowed.len().max(1))]
        })
        .collect()
}

/// Runs simulated annealing; deterministic for a fixed seed and parameter
/// set (chains are independent and merged by minimum energy).
pub fn anneal(
    arch: &Architecture,
    tasks: &TaskSet,
    objective: &HeuristicObjective,
    params: &SaParams,
) -> SaResult {
    let config = &AnalysisConfig::default();
    // Contiguous runs of chains, one run per thread, joined in chain order
    // so `min_by_key` below keeps the first of equal energies.
    let ids: Vec<u64> = (0..params.restarts as u64).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread = ids.len().div_ceil(threads).max(1);
    let chains: Vec<SaResult> = std::thread::scope(|s| {
        let runs: Vec<_> = ids
            .chunks(per_thread)
            .map(|run| {
                s.spawn(move || {
                    run.iter()
                        .map(|&chain| run_chain(arch, tasks, objective, params, config, chain))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        runs.into_iter()
            .flat_map(|run| run.join().expect("SA chain panicked"))
            .collect()
    });
    let evaluations = chains.iter().map(|c| c.evaluations).sum();
    let mut best = chains
        .into_iter()
        .min_by_key(|c| c.energy)
        .expect("at least one chain");
    best.evaluations = evaluations;
    best
}

fn run_chain(
    arch: &Architecture,
    tasks: &TaskSet,
    objective: &HeuristicObjective,
    params: &SaParams,
    config: &AnalysisConfig,
    chain: u64,
) -> SaResult {
    let mut rng = SmallRng::seed_from_u64(params.seed.wrapping_add(chain));
    let slots_matter = matches!(
        objective,
        HeuristicObjective::TokenRotationTime(_) | HeuristicObjective::SumTokenRotationTimes
    );

    let mut current = Allocation::skeleton(tasks);
    current.placement = random_placement(tasks, arch, &mut rng);
    derive_routes(arch, tasks, &mut current);
    derive_min_slots(arch, tasks, &mut current);

    let mut evaluations = 0u64;
    let eval = |alloc: &Allocation, evals: &mut u64| -> i64 {
        *evals += 1;
        energy(arch, tasks, alloc, objective, config).0
    };
    let mut cur_e = eval(&current, &mut evaluations);
    let mut best = current.clone();
    let mut best_e = cur_e;

    // Initial temperature from a short random walk's energy spread.
    let mut temp = {
        let mut spread = 0f64;
        let mut probe = current.clone();
        for _ in 0..20 {
            mutate(arch, tasks, &mut probe, params, slots_matter, &mut rng);
            let e = eval(&probe, &mut evaluations);
            spread += (e - cur_e).abs() as f64;
        }
        (spread / 20.0).max(1.0)
    };

    for _ in 0..params.stages {
        for _ in 0..params.iters_per_stage {
            let mut cand = current.clone();
            mutate(arch, tasks, &mut cand, params, slots_matter, &mut rng);
            let e = eval(&cand, &mut evaluations);
            let accept =
                e <= cur_e || rng.gen_bool((-((e - cur_e) as f64) / temp).exp().clamp(0.0, 1.0));
            if accept {
                current = cand;
                cur_e = e;
                if e < best_e {
                    best = current.clone();
                    best_e = e;
                }
            }
        }
        temp *= params.alpha;
        if temp < 1e-3 {
            break;
        }
    }

    let (final_e, report) = energy(arch, tasks, &best, objective, config);
    SaResult {
        feasible: report.is_feasible(),
        objective: crate::energy::objective_value(arch, tasks, &best, objective),
        allocation: best,
        energy: final_e,
        evaluations,
    }
}

fn mutate(
    arch: &Architecture,
    tasks: &TaskSet,
    alloc: &mut Allocation,
    params: &SaParams,
    slots_matter: bool,
    rng: &mut SmallRng,
) {
    let n = tasks.len();
    let kind = rng.gen_range(0..if slots_matter { 4 } else { 2 });
    match kind {
        0 => {
            // Move one task.
            let i = rng.gen_range(0..n);
            let allowed: Vec<EcuId> = tasks
                .task(TaskId(i as u32))
                .allowed_ecus()
                .filter(|&p| arch.ecu(p).hosts_tasks)
                .collect();
            alloc.placement[i] = allowed[rng.gen_range(0..allowed.len())];
            derive_routes(arch, tasks, alloc);
            derive_min_slots_if(arch, tasks, alloc, slots_matter);
        }
        1 => {
            // Swap two tasks if permissions allow.
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            let (pi, pj) = (alloc.placement[i], alloc.placement[j]);
            let ti = tasks.task(TaskId(i as u32));
            let tj = tasks.task(TaskId(j as u32));
            if ti.may_run_on(pj) && tj.may_run_on(pi) {
                alloc.placement.swap(i, j);
                derive_routes(arch, tasks, alloc);
                derive_min_slots_if(arch, tasks, alloc, slots_matter);
            }
        }
        2 => {
            // Grow one slot (can fix blocking-induced misses).
            bump_slot(arch, alloc, params, rng, 1);
        }
        _ => {
            // Shrink one slot toward the minimum.
            bump_slot(arch, alloc, params, rng, -1);
        }
    }
}

fn derive_min_slots_if(
    arch: &Architecture,
    tasks: &TaskSet,
    alloc: &mut Allocation,
    slots_matter: bool,
) {
    if slots_matter {
        derive_min_slots(arch, tasks, alloc);
    }
}

fn bump_slot(
    arch: &Architecture,
    alloc: &mut Allocation,
    params: &SaParams,
    rng: &mut SmallRng,
    dir: i64,
) {
    let tdma: Vec<MediumId> = arch
        .iter_media()
        .filter(|(_, m)| m.is_tdma())
        .map(|(k, _)| k)
        .collect();
    if tdma.is_empty() {
        return;
    }
    let k = tdma[rng.gen_range(0..tdma.len())];
    let members = arch.medium(k).members.len();
    let entry = alloc
        .slot_overrides
        .entry(k)
        .or_insert_with(|| vec![1; members]);
    let i = rng.gen_range(0..entry.len());
    let new = (entry[i] as i64 + dir).clamp(1, params.max_slot as i64);
    entry[i] = new as Time;
}

#[cfg(test)]
mod tests {
    use super::*;
    use optalloc_model::{Ecu, Medium, Task};

    fn small_system() -> (Architecture, TaskSet) {
        let mut arch = Architecture::new();
        let p0 = arch.push_ecu(Ecu::new("p0"));
        let p1 = arch.push_ecu(Ecu::new("p1"));
        arch.push_medium(Medium::tdma("ring", vec![p0, p1], vec![8, 8], 1, 1));
        let mut tasks = TaskSet::new();
        tasks.push(Task::new("a", 100, 80, vec![(p0, 10), (p1, 10)]).sends(TaskId(1), 4, 60));
        tasks.push(Task::new("b", 100, 70, vec![(p0, 12), (p1, 12)]));
        tasks.push(Task::new("c", 200, 150, vec![(p0, 30), (p1, 30)]));
        (arch, tasks)
    }

    fn quick_params() -> SaParams {
        SaParams {
            restarts: 2,
            iters_per_stage: 60,
            stages: 20,
            ..Default::default()
        }
    }

    #[test]
    fn finds_feasible_allocation() {
        let (arch, tasks) = small_system();
        let result = anneal(
            &arch,
            &tasks,
            &HeuristicObjective::Feasibility,
            &quick_params(),
        );
        assert!(result.feasible, "energy {}", result.energy);
    }

    #[test]
    fn trt_objective_produces_small_rounds() {
        let (arch, tasks) = small_system();
        let result = anneal(
            &arch,
            &tasks,
            &HeuristicObjective::TokenRotationTime(MediumId(0)),
            &quick_params(),
        );
        assert!(result.feasible);
        // Either co-located (slots 1+1=2) or crossing with a 5-tick frame.
        assert!(result.objective <= 8, "TRT {}", result.objective);
    }

    #[test]
    fn is_deterministic_for_fixed_seed() {
        let (arch, tasks) = small_system();
        let a = anneal(
            &arch,
            &tasks,
            &HeuristicObjective::Feasibility,
            &quick_params(),
        );
        let b = anneal(
            &arch,
            &tasks,
            &HeuristicObjective::Feasibility,
            &quick_params(),
        );
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn derive_min_slots_fits_frames() {
        let (arch, tasks) = small_system();
        let mut alloc = Allocation::skeleton(&tasks);
        alloc.placement = vec![EcuId(0), EcuId(1), EcuId(0)];
        derive_routes(&arch, &tasks, &mut alloc);
        derive_min_slots(&arch, &tasks, &mut alloc);
        let slots = &alloc.slot_overrides[&MediumId(0)];
        // The message (size 4, ρ = 5) is sent from p0.
        assert_eq!(slots[0], 5);
        assert_eq!(slots[1], 1);
    }
}
