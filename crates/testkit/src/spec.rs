//! The seed grammar: a compact, serializable description of one
//! hierarchical allocation instance.
//!
//! Specs reference everything *positionally* (ECU `j`, task `k`, medium
//! `m`), which matches the dense-id model layer exactly: `build` pushes
//! declarations in order, so spec index `i` becomes `EcuId(i)` / `TaskId(i)`
//! / `MediumId(i)`. That makes the metamorphic transforms (permute, scale,
//! tighten, drop) pure index arithmetic on plain data, and makes regression
//! files self-contained JSON.

use optalloc::{Objective, SolveOptions};
use optalloc_model::{Architecture, Ecu, Medium, Task, TaskSet, Time};
use serde::{Deserialize, Serialize};

/// One ECU declaration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EcuSpec {
    /// Unique name.
    pub name: String,
    /// Memory capacity in bytes; `None` = unlimited.
    pub memory: Option<u64>,
    /// Pure protocol converter: connects media but hosts no tasks.
    pub gateway_only: bool,
}

/// One communication-medium declaration over ECU indices.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediumSpec {
    /// Unique name.
    pub name: String,
    /// Member ECUs, as indices into [`InstanceSpec::ecus`].
    pub members: Vec<usize>,
    /// TDMA slot table (one slot length per member, in member order);
    /// `None` = priority-arbitrated (CAN-like). The table is fixed
    /// instance data unless the objective is a TRT minimization, which
    /// turns the slots of the targeted media into decision variables.
    pub tdma_slots: Option<Vec<Time>>,
    /// Per-frame protocol overhead (ticks).
    pub frame_overhead: Time,
    /// Transmission cost per payload byte (ticks).
    pub per_byte: Time,
}

/// One message a task sends.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgSpec {
    /// Receiver, as an index into [`InstanceSpec::tasks`].
    pub to: usize,
    /// Payload size in bytes.
    pub size: u32,
    /// Relative message deadline (ticks).
    pub deadline: Time,
}

/// One task declaration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique name.
    pub name: String,
    /// Period (ticks).
    pub period: Time,
    /// Relative deadline (ticks).
    pub deadline: Time,
    /// Per-ECU WCET as `(ecu index, ticks)`; doubles as the placement
    /// permission set.
    pub wcet: Vec<(usize, Time)>,
    /// Messages sent by this task.
    pub messages: Vec<MsgSpec>,
    /// Tasks this one must not be co-located with (indices).
    pub separation: Vec<usize>,
    /// Memory footprint in bytes.
    pub memory: u64,
    /// Release jitter (ticks).
    pub jitter: Time,
}

/// The objective, with media referenced by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectiveSpec {
    /// Minimize the token rotation time of TDMA medium `i`.
    Trt(usize),
    /// Minimize the sum of all TDMA token rotation times.
    SumTrt,
    /// Minimize the bus load (‰) of priority medium `i`.
    BusLoad(usize),
    /// Minimize the maximum per-ECU utilization (‰).
    MaxUtil,
    /// Minimize the max−min utilization spread (‰).
    Spread,
    /// Any feasible allocation.
    Feasibility,
}

impl ObjectiveSpec {
    /// The core-layer objective this spec denotes.
    pub fn to_objective(self) -> Objective {
        match self {
            ObjectiveSpec::Trt(i) => Objective::TokenRotationTime(i.into()),
            ObjectiveSpec::SumTrt => Objective::SumTokenRotationTimes,
            ObjectiveSpec::BusLoad(i) => Objective::BusLoadPermille(i.into()),
            ObjectiveSpec::MaxUtil => Objective::MaxUtilizationPermille,
            ObjectiveSpec::Spread => Objective::UtilizationSpreadPermille,
            ObjectiveSpec::Feasibility => Objective::Feasibility,
        }
    }

    /// The medium index the objective pins, if any.
    pub fn medium(self) -> Option<usize> {
        match self {
            ObjectiveSpec::Trt(i) | ObjectiveSpec::BusLoad(i) => Some(i),
            _ => None,
        }
    }

    /// `true` for objectives whose value is a *time* (scales with the
    /// clock); permille objectives are ratios and scale-invariant.
    pub fn is_time_valued(self) -> bool {
        matches!(self, ObjectiveSpec::Trt(_) | ObjectiveSpec::SumTrt)
    }
}

/// A complete instance: architecture, task set and objective.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// ECU declarations.
    pub ecus: Vec<EcuSpec>,
    /// Medium declarations.
    pub media: Vec<MediumSpec>,
    /// Task declarations.
    pub tasks: Vec<TaskSpec>,
    /// What to minimize.
    pub objective: ObjectiveSpec,
}

impl InstanceSpec {
    /// Materializes the spec into model-layer values. The spec grammar can
    /// express invalid instances (the shrinker explores freely), so this
    /// validates both layers and returns the first error.
    pub fn build(&self) -> Result<(Architecture, TaskSet), String> {
        let mut arch = Architecture::new();
        for e in &self.ecus {
            let mut ecu = Ecu::new(&e.name);
            if let Some(m) = e.memory {
                ecu = ecu.with_memory(m);
            }
            if e.gateway_only {
                ecu = ecu.gateway_only();
            }
            arch.push_ecu(ecu);
        }
        for m in &self.media {
            let members: Vec<_> = m.members.iter().map(|&i| i.into()).collect();
            let medium = match &m.tdma_slots {
                Some(slots) => Medium::tdma(
                    &m.name,
                    members,
                    slots.clone(),
                    m.frame_overhead,
                    m.per_byte,
                ),
                None => Medium::priority(&m.name, members, m.frame_overhead, m.per_byte),
            };
            arch.push_medium(medium);
        }
        arch.validate().map_err(|e| e.to_string())?;

        let mut tasks = TaskSet::new();
        for t in &self.tasks {
            let mut task = Task::new(
                &t.name,
                t.period,
                t.deadline,
                t.wcet.iter().map(|&(e, w)| (e.into(), w)),
            );
            for m in &t.messages {
                task = task.sends(m.to.into(), m.size, m.deadline);
            }
            for &s in &t.separation {
                task = task.separated_from(s.into());
            }
            if t.memory > 0 {
                task = task.with_memory(t.memory);
            }
            if t.jitter > 0 {
                task = task.with_jitter(t.jitter);
            }
            tasks.push(task);
        }
        tasks.validate()?;
        Ok((arch, tasks))
    }

    /// Drops task `i`, remapping every index that pointed past it and
    /// erasing messages/separations that pointed *at* it — mirrors the
    /// semantics of [`optalloc::InstanceDelta::RemoveTask`].
    pub fn remove_task(&self, i: usize) -> InstanceSpec {
        let mut s = self.clone();
        s.tasks.remove(i);
        for t in &mut s.tasks {
            t.messages.retain(|m| m.to != i);
            for m in &mut t.messages {
                if m.to > i {
                    m.to -= 1;
                }
            }
            t.separation.retain(|&p| p != i);
            for p in &mut t.separation {
                if *p > i {
                    *p -= 1;
                }
            }
        }
        s
    }
}

/// The solve options every relation check uses, with a per-probe conflict
/// budget so pathological instances abort as *skipped* instead of hanging
/// the campaign. `paranoid` additionally turns on the deep solver-invariant
/// walks and per-model re-verification.
pub fn base_options(paranoid: bool) -> SolveOptions {
    SolveOptions {
        max_conflicts: Some(500_000),
        paranoid,
        ..SolveOptions::default()
    }
}
