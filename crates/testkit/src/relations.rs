//! The metamorphic relation library.
//!
//! Each relation derives a transformed instance from a base instance,
//! solves both through the *full* pipeline (encode → CDCL(PB) → binary
//! search → decode → re-validate), and checks the relationship between the
//! two optima that the transform provably implies:
//!
//! | relation      | transform                               | implied relationship |
//! |---------------|-----------------------------------------|----------------------|
//! | `rename`      | permute/rename all declarations         | identical outcome |
//! | `scale`       | multiply every time quantity by `k`     | exact / one-sided under TRT objectives (see below) |
//! | `monotone`    | raise a WCET or message size, or tighten a deadline | optimum non-decreasing, infeasible stays infeasible |
//! | `redundant`   | add provably-redundant constraints      | identical outcome |
//! | `engine-grid` | same instance: fresh mode, encoder opts off, window search | all agree with a certified run |
//! | `warm-delta`  | delta chain: warm engine vs. cold solve, plus the service path | identical outcome |
//!
//! **Scaling soundness.** Integer response-time analysis is an exact fixed
//! point under uniform time scaling: `⌈(k·r + k·J)/(k·t)⌉ = ⌈(r + J)/t⌉`,
//! so scaling periods, deadlines, WCETs, per-byte costs, frame overheads,
//! slot tables *and* the gateway service time by `k` maps every feasible
//! configuration to a feasible one. When slot tables are fixed instance
//! data the map is a bijection, so outcomes match exactly (permille
//! objectives are ratios of scaled quantities — invariant). Under TRT
//! objectives, slot lengths are integer decision variables whose
//! granularity does not scale, so the scaled instance may do strictly
//! *better* but never worse than the scaled base optimum: the check is
//! one-sided.
//!
//! All relations treat a conflict-budget abort on either side as *skipped*
//! (reported, never a failure); every other divergence — including
//! validation or certification failures, which indicate the solver lied —
//! is a violation.

use crate::spec::{base_options, InstanceSpec, ObjectiveSpec};
use optalloc::{
    apply_deltas, EncoderOpt, InstanceDelta, OptError, Optimizer, SolveOptions, Strategy,
    WarmEngine,
};
use optalloc_intopt::BinSearchMode;
use optalloc_service::protocol::{Instance, JobOutcome, Request, Response};
use optalloc_service::{Service, ServiceConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which metamorphic relation to check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelationKind {
    /// Optimum invariance under renaming and declaration reordering.
    Rename,
    /// Cost-scaling equivariance under uniform time scaling.
    Scale,
    /// Monotone non-decrease under WCET/message-size increase and deadline
    /// tightening.
    Monotone,
    /// Invariance under provably-redundant extra constraints.
    Redundant,
    /// N-way engine agreement against a certified ground truth.
    EngineGrid,
    /// Warm-engine delta chain vs. cold re-solve, through both the core
    /// API and the service request path.
    WarmDelta,
}

impl RelationKind {
    /// Every relation, in campaign order (cheap first).
    pub fn all() -> Vec<RelationKind> {
        vec![
            RelationKind::Rename,
            RelationKind::Scale,
            RelationKind::Monotone,
            RelationKind::Redundant,
            RelationKind::EngineGrid,
            RelationKind::WarmDelta,
        ]
    }

    /// Stable name used in CLI flags, JSON summaries and regression files.
    pub fn name(self) -> &'static str {
        match self {
            RelationKind::Rename => "rename",
            RelationKind::Scale => "scale",
            RelationKind::Monotone => "monotone",
            RelationKind::Redundant => "redundant",
            RelationKind::EngineGrid => "engine-grid",
            RelationKind::WarmDelta => "warm-delta",
        }
    }

    /// Inverse of [`RelationKind::name`].
    pub fn parse(s: &str) -> Option<RelationKind> {
        RelationKind::all().into_iter().find(|r| r.name() == s)
    }
}

/// What one solve of one instance concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Proven optimal objective value.
    Cost(i64),
    /// No feasible allocation.
    Infeasible,
    /// Conflict budget exhausted — no verdict, the check is skipped.
    Skip(String),
}

/// Solves `spec` end to end. Budget exhaustion maps to [`Outcome::Skip`];
/// validation/certification failures and objective errors are hard errors
/// (they indicate a solver or generator bug, not an expensive instance).
pub fn solve_spec(spec: &InstanceSpec, opts: &SolveOptions) -> Result<Outcome, String> {
    let (arch, tasks) = spec.build()?;
    let optimizer = Optimizer::new(&arch, &tasks).with_options(opts.clone());
    match optimizer.minimize(&spec.objective.to_objective()) {
        Ok(report) => Ok(Outcome::Cost(report.cost)),
        Err(OptError::Infeasible) => Ok(Outcome::Infeasible),
        Err(OptError::Budget { .. }) => Ok(Outcome::Skip("conflict budget".into())),
        Err(e) => Err(format!("pipeline error: {e:?}")),
    }
}

/// Checks one relation on one instance. `Ok(true)` = relation held,
/// `Ok(false)` = skipped (budget), `Err` = violation (the shrinkable kind).
pub fn check_relation(
    kind: RelationKind,
    spec: &InstanceSpec,
    seed: u64,
    paranoid: bool,
) -> Result<bool, String> {
    let opts = base_options(paranoid);
    match kind {
        RelationKind::Rename => check_rename(spec, seed, &opts),
        RelationKind::Scale => check_scale(spec, seed, &opts),
        RelationKind::Monotone => check_monotone(spec, seed, &opts),
        RelationKind::Redundant => check_redundant(spec, &opts),
        RelationKind::EngineGrid => check_engine_grid(spec, &opts),
        RelationKind::WarmDelta => check_warm_delta(spec, seed, &opts),
    }
}

fn both(
    a: Result<Outcome, String>,
    b: Result<Outcome, String>,
) -> Result<Option<(Outcome, Outcome)>, String> {
    match (a?, b?) {
        (Outcome::Skip(_), _) | (_, Outcome::Skip(_)) => Ok(None),
        (x, y) => Ok(Some((x, y))),
    }
}

// ---------------------------------------------------------------------
// rename
// ---------------------------------------------------------------------

fn random_perm(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

fn invert(p: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; p.len()];
    for (new, &old) in p.iter().enumerate() {
        inv[old] = new;
    }
    inv
}

/// Permutes every declaration list, remaps all cross-references, and
/// renames everything — a pure relabeling of the instance.
pub fn permuted_spec(spec: &InstanceSpec, rng: &mut SmallRng) -> InstanceSpec {
    let ord_e = random_perm(spec.ecus.len(), rng);
    let ord_m = random_perm(spec.media.len(), rng);
    let ord_t = random_perm(spec.tasks.len(), rng);
    let (inv_e, inv_m, inv_t) = (invert(&ord_e), invert(&ord_m), invert(&ord_t));

    let ecus = ord_e
        .iter()
        .enumerate()
        .map(|(new, &old)| {
            let mut e = spec.ecus[old].clone();
            e.name = format!("ecu_{new}");
            e
        })
        .collect();
    let media = ord_m
        .iter()
        .enumerate()
        .map(|(new, &old)| {
            let mut m = spec.media[old].clone();
            m.name = format!("net_{new}");
            for mem in &mut m.members {
                *mem = inv_e[*mem];
            }
            m
        })
        .collect();
    let tasks = ord_t
        .iter()
        .enumerate()
        .map(|(new, &old)| {
            let mut t = spec.tasks[old].clone();
            t.name = format!("job_{new}");
            for (e, _) in &mut t.wcet {
                *e = inv_e[*e];
            }
            t.wcet.reverse(); // declaration order of the WCET table
            for m in &mut t.messages {
                m.to = inv_t[m.to];
            }
            t.messages.reverse(); // declaration order of the send list
            for s in &mut t.separation {
                *s = inv_t[*s];
            }
            t
        })
        .collect();
    let objective = match spec.objective {
        ObjectiveSpec::Trt(i) => ObjectiveSpec::Trt(inv_m[i]),
        ObjectiveSpec::BusLoad(i) => ObjectiveSpec::BusLoad(inv_m[i]),
        other => other,
    };
    InstanceSpec {
        ecus,
        media,
        tasks,
        objective,
    }
}

fn check_rename(spec: &InstanceSpec, seed: u64, opts: &SolveOptions) -> Result<bool, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x72656e616d65);
    let renamed = permuted_spec(spec, &mut rng);
    let Some((base, xfrm)) = both(solve_spec(spec, opts), solve_spec(&renamed, opts))? else {
        return Ok(false);
    };
    if base != xfrm {
        return Err(format!(
            "renaming changed the outcome: base {base:?}, renamed {xfrm:?}"
        ));
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// scale
// ---------------------------------------------------------------------

/// Multiplies every time-dimensioned quantity by `k` (message *sizes* are
/// bytes and stay put — the scaled per-byte cost carries the factor).
pub fn scaled_spec(spec: &InstanceSpec, k: u64) -> InstanceSpec {
    let mut s = spec.clone();
    for t in &mut s.tasks {
        t.period *= k;
        t.deadline *= k;
        t.jitter *= k;
        for (_, w) in &mut t.wcet {
            *w *= k;
        }
        for m in &mut t.messages {
            m.deadline *= k;
        }
    }
    for m in &mut s.media {
        m.frame_overhead *= k;
        m.per_byte *= k;
        if let Some(slots) = &mut m.tdma_slots {
            for slot in slots {
                *slot *= k;
            }
        }
    }
    s
}

fn check_scale(spec: &InstanceSpec, seed: u64, opts: &SolveOptions) -> Result<bool, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7363616c65);
    let k: u64 = rng.gen_range(2..=4);
    let scaled = scaled_spec(spec, k);
    // The clock-dimensioned *options* scale with the instance.
    let scaled_opts = SolveOptions {
        gateway_service: opts.gateway_service * k,
        max_slot: opts.max_slot * k,
        ..opts.clone()
    };
    let Some((base, xfrm)) = both(solve_spec(spec, opts), solve_spec(&scaled, &scaled_opts))?
    else {
        return Ok(false);
    };
    if !spec.objective.is_time_valued() {
        // Slot tables are fixed instance data here (slot *variables* exist
        // only under TRT objectives), so scaling is a bijection on
        // configurations: permille objectives are ratios of scaled
        // quantities and feasibility is preserved — exact equality.
        if base != xfrm {
            return Err(format!(
                "x{k} time scaling changed the outcome: base {base:?}, scaled {xfrm:?}"
            ));
        }
        return Ok(true);
    }
    // TRT objectives turn slot tables into decision variables whose unit
    // granularity does not scale: any base-optimal slot table maps to a
    // k-scaled feasible one, so the scaled optimum is at most k·base — but
    // the finer relative granularity may do strictly better.
    match (&base, &xfrm) {
        (Outcome::Cost(c), Outcome::Cost(cs)) => {
            let bound = k as i64 * *c;
            if *cs > bound {
                return Err(format!(
                    "x{k} time scaling worsened the optimum: base {c}, scaled {cs} > bound {bound}"
                ));
            }
        }
        (Outcome::Cost(c), Outcome::Infeasible) => {
            return Err(format!(
                "x{k} time scaling lost feasibility (base optimum {c})"
            ));
        }
        // Base infeasible: the finer scaled granularity may legitimately
        // admit a solution, so nothing is implied.
        (Outcome::Infeasible, _) => {}
        (Outcome::Skip(_), _) | (_, Outcome::Skip(_)) => unreachable!("filtered by both()"),
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// monotone
// ---------------------------------------------------------------------

/// Applies one optimum-non-decreasing tightening chosen by `rng`; returns
/// the mutated spec and a description.
pub fn tightened_spec(spec: &InstanceSpec, rng: &mut SmallRng) -> (InstanceSpec, String) {
    let mut s = spec.clone();
    let with_messages: Vec<usize> = (0..s.tasks.len())
        .filter(|&t| !s.tasks[t].messages.is_empty())
        .collect();
    // Raising a WCET shrinks the feasible set and weakly raises every
    // other objective's value, but the utilization *spread* can
    // legitimately drop when a lightly-loaded ECU gains load — WCET bumps
    // are unsound there. Deadline tightening and message growth only
    // shrink feasibility, so they are monotone for every objective.
    let allow_wcet = !matches!(spec.objective, ObjectiveSpec::Spread);
    let mut choices: Vec<u32> = vec![2];
    if allow_wcet {
        choices.push(0);
    }
    if !with_messages.is_empty() {
        choices.push(1);
    }
    let choice = choices[rng.gen_range(0..choices.len())];
    if choice == 0 {
        let t = rng.gen_range(0..s.tasks.len());
        let e = rng.gen_range(0..s.tasks[t].wcet.len());
        let bump: u64 = rng.gen_range(1..=5);
        s.tasks[t].wcet[e].1 += bump;
        let what = format!("wcet of task {t} on ecu {} += {bump}", s.tasks[t].wcet[e].0);
        (s, what)
    } else if choice == 1 {
        let t = with_messages[rng.gen_range(0..with_messages.len())];
        let m = rng.gen_range(0..s.tasks[t].messages.len());
        let bump: u32 = rng.gen_range(1..=4);
        s.tasks[t].messages[m].size += bump;
        let what = format!("size of message {m} of task {t} += {bump}");
        (s, what)
    } else {
        let t = rng.gen_range(0..s.tasks.len());
        let d = s.tasks[t].deadline;
        s.tasks[t].deadline = (d - rng.gen_range(1..=d)).max(1);
        let what = format!("deadline of task {t}: {d} -> {}", s.tasks[t].deadline);
        (s, what)
    }
}

fn check_monotone(spec: &InstanceSpec, seed: u64, opts: &SolveOptions) -> Result<bool, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d6f6e6f);
    let (tightened, what) = tightened_spec(spec, &mut rng);
    let Some((base, xfrm)) = both(solve_spec(spec, opts), solve_spec(&tightened, opts))? else {
        return Ok(false);
    };
    match (&base, &xfrm) {
        (Outcome::Cost(c), Outcome::Cost(ct)) if ct < c => Err(format!(
            "tightening ({what}) improved the optimum: {c} -> {ct}"
        )),
        (Outcome::Infeasible, Outcome::Cost(ct)) => Err(format!(
            "tightening ({what}) made an infeasible instance feasible (cost {ct})"
        )),
        _ => Ok(true),
    }
}

// ---------------------------------------------------------------------
// redundant
// ---------------------------------------------------------------------

/// Adds constraints that provably cannot exclude any feasible allocation:
/// a separation between two tasks whose placement permission sets are
/// already disjoint, and per-ECU memory capacities exceeding the *total*
/// task memory (so any subset of tasks fits anywhere).
pub fn with_redundant_constraints(spec: &InstanceSpec) -> InstanceSpec {
    let mut s = spec.clone();
    'outer: for i in 0..s.tasks.len() {
        for j in (i + 1)..s.tasks.len() {
            let pi: Vec<usize> = s.tasks[i].wcet.iter().map(|&(e, _)| e).collect();
            let disjoint = s.tasks[j].wcet.iter().all(|&(e, _)| !pi.contains(&e));
            if disjoint && !s.tasks[i].separation.contains(&j) {
                s.tasks[i].separation.push(j);
                break 'outer;
            }
        }
    }
    let total: u64 = s.tasks.iter().map(|t| t.memory).sum();
    for e in &mut s.ecus {
        if e.memory.is_none() {
            e.memory = Some(total + 1);
        }
    }
    s
}

fn check_redundant(spec: &InstanceSpec, opts: &SolveOptions) -> Result<bool, String> {
    let constrained = with_redundant_constraints(spec);
    let Some((base, xfrm)) = both(solve_spec(spec, opts), solve_spec(&constrained, opts))? else {
        return Ok(false);
    };
    if base != xfrm {
        return Err(format!(
            "redundant constraints changed the outcome: base {base:?}, constrained {xfrm:?}"
        ));
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// engine-grid
// ---------------------------------------------------------------------

fn check_engine_grid(spec: &InstanceSpec, opts: &SolveOptions) -> Result<bool, String> {
    // Ground truth: an incremental single search with full certification
    // (DRAT-checked window refutations + independent witness replay).
    let ground_opts = SolveOptions {
        certify: true,
        ..opts.clone()
    };
    let ground = match solve_spec(spec, &ground_opts)? {
        Outcome::Skip(_) => return Ok(false),
        o => o,
    };
    let variants: Vec<(&str, SolveOptions)> = vec![
        (
            "fresh",
            SolveOptions {
                mode: BinSearchMode::Fresh,
                ..opts.clone()
            },
        ),
        (
            "encoder-opt-off",
            SolveOptions {
                encoder_opt: EncoderOpt::none(),
                ..opts.clone()
            },
        ),
        (
            "window",
            SolveOptions {
                strategy: Strategy::WindowSearch {
                    workers: 2,
                    deterministic: true,
                },
                ..opts.clone()
            },
        ),
    ];
    let mut checked_any = false;
    for (name, vopts) in variants {
        match solve_spec(spec, &vopts)? {
            Outcome::Skip(_) => continue,
            v => {
                if v != ground {
                    return Err(format!(
                        "engine disagreement: certified ground truth {ground:?}, \
                         variant '{name}' {v:?}"
                    ));
                }
                checked_any = true;
            }
        }
    }
    Ok(checked_any)
}

// ---------------------------------------------------------------------
// warm-delta
// ---------------------------------------------------------------------

/// Derives a delta chain valid for `spec`, together with the equivalent
/// direct spec mutation (ground truth for the cold re-solve).
fn random_deltas(spec: &InstanceSpec, rng: &mut SmallRng) -> (Vec<InstanceDelta>, InstanceSpec) {
    let mut mutated = spec.clone();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..=2u32) {
        let t = rng.gen_range(0..mutated.tasks.len());
        let task = mutated.tasks[t].name.clone();
        match rng.gen_range(0..3u32) {
            0 => {
                let e = rng.gen_range(0..mutated.tasks[t].wcet.len());
                let (ecu_idx, _) = mutated.tasks[t].wcet[e];
                let wcet: u64 = rng.gen_range(1..=15);
                mutated.tasks[t].wcet[e].1 = wcet;
                ops.push(InstanceDelta::SetWcet {
                    task,
                    ecu: mutated.ecus[ecu_idx].name.clone(),
                    wcet,
                });
            }
            1 => {
                let deadline: u64 = rng.gen_range(1..=mutated.tasks[t].period);
                mutated.tasks[t].deadline = deadline;
                ops.push(InstanceDelta::SetDeadline { task, deadline });
            }
            _ => {
                if mutated.tasks[t].wcet.len() < 2 {
                    continue; // forbidding the last ECU would empty π
                }
                let e = rng.gen_range(0..mutated.tasks[t].wcet.len());
                let (ecu_idx, _) = mutated.tasks[t].wcet.remove(e);
                ops.push(InstanceDelta::ForbidEcu {
                    task,
                    ecu: mutated.ecus[ecu_idx].name.clone(),
                });
            }
        }
    }
    (ops, mutated)
}

fn check_warm_delta(spec: &InstanceSpec, seed: u64, opts: &SolveOptions) -> Result<bool, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7761726d);
    let (ops, mutated) = random_deltas(spec, &mut rng);
    if ops.is_empty() {
        return Ok(false);
    }
    let objective = spec.objective.to_objective();

    // Cold ground truth for the mutated instance.
    let cold = match solve_spec(&mutated, opts)? {
        Outcome::Skip(_) => return Ok(false),
        o => o,
    };

    // Path 1: the core warm engine — solve the base, apply the deltas,
    // re-solve on the retained solver state.
    let (arch, tasks) = spec.build()?;
    let mut engine = WarmEngine::new(opts.minimize_options());
    let base_warm = Optimizer::new(&arch, &tasks)
        .with_options(opts.clone())
        .minimize_warm(&objective, &mut engine, None);
    match base_warm {
        Ok(_) | Err(OptError::Infeasible) => {}
        Err(OptError::Budget { .. }) => return Ok(false),
        Err(e) => return Err(format!("warm base solve failed: {e:?}")),
    }
    let (arch2, mut tasks2) = (arch.clone(), tasks.clone());
    apply_deltas(&arch2, &mut tasks2, &ops).map_err(|e| format!("delta chain rejected: {e:?}"))?;
    let warm = match Optimizer::new(&arch2, &tasks2)
        .with_options(opts.clone())
        .minimize_warm(&objective, &mut engine, None)
    {
        Ok((report, _)) => Outcome::Cost(report.cost),
        Err(OptError::Infeasible) => Outcome::Infeasible,
        Err(OptError::Budget { .. }) => return Ok(false),
        Err(e) => return Err(format!("warm delta re-solve failed: {e:?}")),
    };
    if warm != cold {
        return Err(format!(
            "warm delta re-solve diverged from cold solve: warm {warm:?}, cold {cold:?} \
             (deltas: {ops:?})"
        ));
    }

    // Path 2: the service request path — fingerprint registration, delta
    // resolution against the cached base, warm re-solve by the worker.
    let service = Service::new(ServiceConfig {
        workers: 1,
        solve: opts.clone(),
        ..ServiceConfig::default()
    });
    let base_resp = service.handle(Request::Solve {
        instance: Instance {
            arch: arch.clone(),
            tasks: tasks.clone(),
        },
        objective: objective.clone(),
        timeout_ms: None,
    });
    let result = (|| {
        let fingerprint = match &base_resp {
            Response::Result(r) => match &r.outcome {
                JobOutcome::Optimal { .. } | JobOutcome::Infeasible => r.fingerprint.clone(),
                JobOutcome::Budget { .. } | JobOutcome::Timeout { .. } => return Ok(false),
                JobOutcome::Error { message } => {
                    return Err(format!("service base solve errored: {message}"))
                }
            },
            other => return Err(format!("service base solve rejected: {other:?}")),
        };
        let delta_resp = service.handle(Request::Delta {
            base: Some(fingerprint),
            ops: ops.clone(),
            objective: None,
            timeout_ms: None,
        });
        let svc = match &delta_resp {
            Response::Result(r) => match &r.outcome {
                JobOutcome::Optimal { cost, .. } => Outcome::Cost(*cost),
                JobOutcome::Infeasible => Outcome::Infeasible,
                JobOutcome::Budget { .. } | JobOutcome::Timeout { .. } => return Ok(false),
                JobOutcome::Error { message } => {
                    return Err(format!("service delta re-solve errored: {message}"))
                }
            },
            other => return Err(format!("service delta rejected: {other:?}")),
        };
        if svc != cold {
            return Err(format!(
                "service delta re-solve diverged from cold solve: service {svc:?}, \
                 cold {cold:?} (deltas: {ops:?})"
            ));
        }
        Ok(true)
    })();
    service.shutdown();
    result
}
