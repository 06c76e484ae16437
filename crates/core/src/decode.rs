//! Decoding a SAT model back into an [`Allocation`] — "extracting the
//! placement and scheduling information from the satisfying assignment"
//! (paper §5.2).

use crate::encode::Encoding;
use optalloc_intopt::Model;
use optalloc_model::{deadline_monotonic, Allocation, MessageRoute, TaskId};

/// Reads the allocation encoded in `model` out of the variable maps.
pub(crate) fn decode(enc: &Encoding<'_>, model: &Model) -> Allocation {
    let tasks = enc.tasks;

    // Π: the ECU whose one-hot literal is true.
    let placement = (0..tasks.len())
        .map(|i| {
            let tid = TaskId(i as u32);
            enc.alloc[tid.index()]
                .iter()
                .find(|(_, v)| model.bool(**v))
                .map(|(&p, _)| p)
                .expect("exactly-one allocation constraint guarantees a placement")
        })
        .collect();

    // Φ: deadline-monotonic with the same id tie-break the encoder fixed.
    let priorities = deadline_monotonic(tasks);

    // Γ: the selected sub-path per message, with its local deadlines.
    let mut routes: Vec<Vec<MessageRoute>> = tasks
        .tasks
        .iter()
        .map(|t| Vec::with_capacity(t.messages.len()))
        .collect();
    for mv in &enc.msgs {
        let chosen = mv
            .routes
            .iter()
            .zip(&mv.hsel)
            .find(|(_, sel)| model.bool(**sel))
            .map(|(r, _)| r)
            .expect("exactly-one selector constraint guarantees a route");
        let local_deadlines = chosen
            .path
            .iter()
            .map(|k| model.int(mv.local_deadline[k]) as u64)
            .collect();
        routes[mv.id.sender.index()].push(MessageRoute {
            media: chosen.path.clone(),
            local_deadlines,
        });
    }

    // Slot tables the optimizer chose.
    let slot_overrides = enc
        .slot_vars
        .iter()
        .map(|(&k, vars)| {
            let slots = vars.iter().map(|v| model.int(*v) as u64).collect();
            (k, slots)
        })
        .collect();

    Allocation {
        placement,
        priorities,
        routes,
        slot_overrides,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::objective::variable_slot_media;
    use crate::encode::Encoding;
    use crate::options::{Objective, SolveOptions};
    use optalloc_workloads::{generate, table4_workload, Fig2, GenParams, Workload};

    /// Round trip: solve the encoding once, decode the model, re-encode
    /// with the decoded allocation pinned (placement, routes, slot tables)
    /// and the objective fixed to the decoded value — the pinned system
    /// must still be SAT. Decoding therefore loses no information the
    /// encoder needs to reproduce the allocation at the same cost.
    ///
    /// The first solve pins the workload's planted placement (and, when the
    /// objective turns slot tables into decision variables, the planted
    /// slot tables): the test targets decode fidelity, not search, and the
    /// pinned instance solves by propagation even for the 43-task
    /// benchmarks in a debug build.
    fn assert_round_trips(w: &Workload, objective: &Objective) {
        let opts = SolveOptions {
            max_slot: 24,
            ..SolveOptions::default()
        };
        let slot_media = variable_slot_media(&w.arch, objective).expect("objective fits");
        let mut enc = Encoding::build(&w.arch, &w.tasks, &opts, &slot_media);
        let cost = enc.encode_objective(objective).expect("objective fits");
        assert!(!enc.infeasible, "{}: infeasible at encode time", w.name);
        for (i, &p) in w.planted.placement.iter().enumerate() {
            let placed = enc.placed_on(TaskId(i as u32), p);
            enc.problem.assert(placed);
        }
        let witness_slots: Vec<_> = enc
            .slot_vars
            .iter()
            .flat_map(|(&k, vars)| {
                let slots = match &w.arch.medium(k).kind {
                    optalloc_model::MediumKind::Tdma { slots } => slots.clone(),
                    optalloc_model::MediumKind::Priority => unreachable!(),
                };
                vars.iter()
                    .zip(slots)
                    .map(|(v, s)| v.expr().eq(s as i64))
                    .collect::<Vec<_>>()
            })
            .collect();
        for pin in witness_slots {
            enc.problem.assert(pin);
        }
        let model = enc
            .problem
            .solve(opts.backend)
            .unwrap_or_else(|| panic!("{}: planted witness should be encodable", w.name));
        let value = model.int(cost);
        let alloc = decode(&enc, &model);

        let mut enc2 = Encoding::build(&w.arch, &w.tasks, &opts, &slot_media);
        let cost2 = enc2.encode_objective(objective).expect("objective fits");
        for (i, &p) in alloc.placement.iter().enumerate() {
            let placed = enc2.placed_on(TaskId(i as u32), p);
            enc2.problem.assert(placed);
        }
        let pins: Vec<_> = enc2
            .msgs
            .iter()
            .map(|mv| {
                let route = &alloc.routes[mv.id.sender.index()][mv.id.index as usize];
                let sel = mv
                    .routes
                    .iter()
                    .position(|rc| rc.path == route.media)
                    .unwrap_or_else(|| panic!("{}: decoded route not among choices", w.name));
                mv.hsel[sel].expr()
            })
            .collect();
        for sel in pins {
            enc2.problem.assert(sel);
        }
        let slot_pins: Vec<_> = enc2
            .slot_vars
            .iter()
            .flat_map(|(k, vars)| {
                let slots = &alloc.slot_overrides[k];
                vars.iter()
                    .zip(slots.iter())
                    .map(|(v, &s)| v.expr().eq(s as i64))
                    .collect::<Vec<_>>()
            })
            .collect();
        for pin in slot_pins {
            enc2.problem.assert(pin);
        }
        enc2.problem.assert(cost2.expr().eq(value));
        assert!(
            enc2.problem.solve(opts.backend).is_some(),
            "{}: re-encoding the decoded allocation at cost {value} is UNSAT",
            w.name
        );
    }

    #[test]
    fn tindell43_round_trips() {
        let w = generate(&GenParams::tindell43());
        assert_round_trips(
            &w,
            &Objective::TokenRotationTime(optalloc_model::MediumId(0)),
        );
    }

    #[test]
    fn table4_architectures_round_trip() {
        for which in [Fig2::A, Fig2::B, Fig2::C] {
            let w = table4_workload(which, &GenParams::tindell43());
            assert_round_trips(&w, &Objective::SumTokenRotationTimes);
        }
    }

    #[test]
    fn utilization_objective_round_trips() {
        let w = generate(&GenParams {
            name: "decode-rt".into(),
            n_tasks: 12,
            n_chains: 4,
            n_ecus: 3,
            ..GenParams::tindell43()
        });
        assert_round_trips(&w, &Objective::MaxUtilizationPermille);
    }
}
