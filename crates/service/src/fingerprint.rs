//! Canonical instance fingerprinting.
//!
//! The fingerprint is a 128-bit FNV-1a content hash over the **canonical
//! form** of an instance — ECUs, media and tasks stably sorted by name with
//! every id reference rewritten through the sort permutations — plus the
//! (canonicalized) objective and the semantic solve options. Two
//! submissions that differ only in task/ECU/medium declaration order
//! therefore hash identically and share one cache/session slot, unless the
//! order changes the problem (below).
//!
//! Order that **is** semantic survives canonicalization: a medium's member
//! list stays in declaration order (TDMA slot `i` belongs to member `i`), a
//! task's message list stays in send order (message routes are indexed by
//! position), and the bus priority order of the messages is recorded
//! alongside. Message priorities are deadline-monotonic with ties broken by
//! the sender's declaration order, so two declaration orders that rank
//! equal-deadline messages differently are different problems: an
//! allocation schedulable in one can miss a local deadline in the other.
//!
//! Soundness does not rest on the hash: a cache hit additionally compares
//! canonical forms for equality before an answer is served, so a 128-bit
//! collision costs nothing but the comparison.

use crate::protocol::Instance;
use optalloc::{Objective, SolveOptions};
use optalloc_model::{Allocation, Architecture, EcuId, MediumId, MsgId, TaskId, TaskSet};

/// A 128-bit canonical content hash (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

impl std::str::FromStr for Fingerprint {
    type Err = String;
    fn from_str(s: &str) -> Result<Fingerprint, String> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("\"{s}\" is not a 32-hex-digit fingerprint"));
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|e| e.to_string())?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|e| e.to_string())?;
        Ok(Fingerprint { hi, lo })
    }
}

/// 128-bit FNV-1a over a byte stream.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new() -> Fnv128 {
        Fnv128(Fnv128::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Fnv128::PRIME);
        }
    }

    fn finish(&self) -> Fingerprint {
        Fingerprint {
            hi: (self.0 >> 64) as u64,
            lo: self.0 as u64,
        }
    }
}

/// A stable-by-name sort permutation: `order[new] = old` and
/// `rank[old] = new`.
struct Perm {
    rank: Vec<u32>,
}

impl Perm {
    fn by_name<T>(items: &[T], name: impl Fn(&T) -> &str) -> Perm {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| name(&items[a]).cmp(name(&items[b])));
        let mut rank = vec![0u32; items.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = new as u32;
        }
        Perm { rank }
    }

    fn new_of(&self, old: u32) -> u32 {
        self.rank[old as usize]
    }
}

/// The canonical form of an instance plus the medium permutation needed to
/// canonicalize objectives that name a medium.
pub(crate) struct Canonical {
    /// The re-sorted, re-indexed instance.
    pub instance: Instance,
    /// Every message, highest bus priority first, by canonical id.
    message_order: Vec<MsgId>,
    medium_rank: Perm,
}

impl Canonical {
    /// True when both describe the same problem: equal canonical instances
    /// whose messages share one bus priority order.
    pub fn same_problem(&self, other: &Canonical) -> bool {
        self.instance == other.instance && self.message_order == other.message_order
    }

    /// The canonical image of an objective: medium references follow the
    /// medium permutation, everything else is order-free already.
    pub fn objective(&self, objective: &Objective) -> Objective {
        match objective {
            Objective::TokenRotationTime(m) => {
                Objective::TokenRotationTime(MediumId(self.medium_rank.new_of(m.0)))
            }
            Objective::BusLoadPermille(m) => {
                Objective::BusLoadPermille(MediumId(self.medium_rank.new_of(m.0)))
            }
            other => other.clone(),
        }
    }
}

/// Computes the canonical form: ECUs, media and tasks stably sorted by
/// name, all id references rewritten; member lists and message lists keep
/// their (semantic) internal order.
pub(crate) fn canonicalize(instance: &Instance) -> Canonical {
    let arch = &instance.arch;
    let tasks = &instance.tasks;
    let ecu_rank = Perm::by_name(&arch.ecus, |e| &e.name);
    let medium_rank = Perm::by_name(&arch.media, |m| &m.name);
    let task_rank = Perm::by_name(&tasks.tasks, |t| &t.name);

    let mut ecus = arch.ecus.clone();
    ecus.sort_by(|a, b| a.name.cmp(&b.name));
    let mut media = arch.media.clone();
    media.sort_by(|a, b| a.name.cmp(&b.name));
    for m in &mut media {
        // Member order is semantic (TDMA slot i ↔ member i): only the ids
        // are rewritten, never the order.
        for p in &mut m.members {
            *p = EcuId(ecu_rank.new_of(p.0));
        }
    }

    // Bus priority order: deadline-monotonic, ties by declaration order
    // (`messages()` yields ids in that order, and the sort is stable).
    let mut by_priority: Vec<_> = tasks.messages().map(|(id, m)| (m.deadline, id)).collect();
    by_priority.sort_by_key(|&(deadline, _)| deadline);
    let message_order = by_priority
        .into_iter()
        .map(|(_, id)| MsgId {
            sender: TaskId(task_rank.new_of(id.sender.0)),
            index: id.index,
        })
        .collect();

    let mut sorted_tasks = tasks.tasks.clone();
    sorted_tasks.sort_by(|a, b| a.name.cmp(&b.name));
    for t in &mut sorted_tasks {
        t.wcet = t
            .wcet
            .iter()
            .map(|(&p, &c)| (EcuId(ecu_rank.new_of(p.0)), c))
            .collect();
        t.separation = t
            .separation
            .iter()
            .map(|&s| TaskId(task_rank.new_of(s.0)))
            .collect();
        for m in &mut t.messages {
            m.to = TaskId(task_rank.new_of(m.to.0));
        }
    }

    Canonical {
        instance: Instance {
            arch: Architecture { ecus, media },
            tasks: TaskSet {
                tasks: sorted_tasks,
            },
        },
        message_order,
        medium_rank,
    }
}

/// The canonical fingerprint of a job: instance content (declaration
/// order aside, see the module docs), objective (canonicalized), the
/// semantic solve options (those that can
/// change feasibility, the optimum, or what the result carries) and the
/// requested cost window. Backend/mode/strategy knobs are deliberately
/// excluded — they change how the optimum is found, never what it is.
pub fn fingerprint(
    instance: &Instance,
    objective: &Objective,
    opts: &SolveOptions,
    window: Option<(i64, i64)>,
) -> Fingerprint {
    let canon = canonicalize(instance);
    let mut h = Fnv128::new();
    h.write(
        serde_json::to_string(&canon.instance)
            .expect("model types always serialize")
            .as_bytes(),
    );
    for m in &canon.message_order {
        h.write(&m.sender.0.to_le_bytes());
        h.write(&m.index.to_le_bytes());
    }
    h.write(
        serde_json::to_string(&canon.objective(objective))
            .expect("objective always serializes")
            .as_bytes(),
    );
    h.write(
        format!(
            "gw={};slot={};jitter={};certify={};window={window:?}",
            opts.gateway_service, opts.max_slot, opts.task_jitter, opts.certify
        )
        .as_bytes(),
    );
    h.finish()
}

/// Rewrites an allocation computed for `from` into the id space of `to`,
/// where both instances describe the same problem (same names, same
/// content, same message priority order, possibly different declaration
/// order — see [`Canonical::same_problem`]). Placement, task priorities,
/// routes and slot tables all follow the names; message priorities are
/// not part of an allocation, which is why the problems must agree on
/// them. Returns `None` when the
/// instances do not actually correspond — callers treat that as a cache
/// miss, never an error.
pub(crate) fn remap_allocation(
    alloc: &Allocation,
    from: &Instance,
    to: &Instance,
) -> Option<Allocation> {
    fn index_of<'a, T>(
        items: &'a [T],
        name: impl Fn(&T) -> &str + 'a,
    ) -> impl Fn(&str) -> Option<usize> + 'a {
        move |wanted| items.iter().position(|i| name(i) == wanted)
    }
    if from.tasks.len() != to.tasks.len()
        || from.arch.ecus.len() != to.arch.ecus.len()
        || from.arch.media.len() != to.arch.media.len()
    {
        return None;
    }
    let from_task = index_of(&from.tasks.tasks, |t| &t.name);
    let from_ecu_name = |id: EcuId| from.arch.ecus.get(id.index()).map(|e| e.name.as_str());
    let to_ecu = index_of(&to.arch.ecus, |e| &e.name);
    let from_medium_name = |id: MediumId| from.arch.media.get(id.index()).map(|m| m.name.as_str());
    let to_medium = index_of(&to.arch.media, |m| &m.name);

    let map_ecu = |id: EcuId| -> Option<EcuId> { Some(EcuId(to_ecu(from_ecu_name(id)?)? as u32)) };
    let map_medium = |id: MediumId| -> Option<MediumId> {
        Some(MediumId(to_medium(from_medium_name(id)?)? as u32))
    };

    let mut out = Allocation {
        placement: Vec::with_capacity(to.tasks.len()),
        priorities: Vec::with_capacity(to.tasks.len()),
        routes: Vec::with_capacity(to.tasks.len()),
        slot_overrides: Default::default(),
    };
    for (_, t) in to.tasks.iter() {
        let i_from = from_task(&t.name)?;
        out.placement.push(map_ecu(*alloc.placement.get(i_from)?)?);
        out.priorities.push(*alloc.priorities.get(i_from)?);
        let routes = alloc.routes.get(i_from)?;
        if routes.len() != t.messages.len() {
            return None;
        }
        let mut mapped = Vec::with_capacity(routes.len());
        for r in routes {
            let mut route = r.clone();
            for m in &mut route.media {
                *m = map_medium(*m)?;
            }
            mapped.push(route);
        }
        out.routes.push(mapped);
    }
    for (&m, slots) in &alloc.slot_overrides {
        out.slot_overrides.insert(map_medium(m)?, slots.clone());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optalloc_model::{Ecu, Medium, Task};

    /// Two declaration orders of the same instance: ECUs and tasks are
    /// pushed in opposite orders, so every id differs but the content is
    /// identical.
    fn twin_instances() -> (Instance, Instance) {
        let mk = |flip: bool| {
            let mut arch = Architecture::new();
            let names: [&str; 2] = if flip { ["p1", "p0"] } else { ["p0", "p1"] };
            let e0 = arch.push_ecu(Ecu::new(names[0]));
            let e1 = arch.push_ecu(Ecu::new(names[1]));
            let (p0, p1) = if flip { (e1, e0) } else { (e0, e1) };
            arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
            let mut tasks = TaskSet::new();
            if flip {
                let b = tasks.push(Task::new("b", 50, 40, vec![(p0, 15), (p1, 15)]));
                tasks.push(Task::new("a", 50, 50, vec![(p0, 10), (p1, 10)]).sends(b, 4, 25));
            } else {
                tasks.push(Task::new("a", 50, 50, vec![(p0, 10), (p1, 10)]).sends(
                    TaskId(1),
                    4,
                    25,
                ));
                tasks.push(Task::new("b", 50, 40, vec![(p0, 15), (p1, 15)]));
            }
            Instance { arch, tasks }
        };
        (mk(false), mk(true))
    }

    #[test]
    fn reordered_instances_share_a_fingerprint() {
        let (a, b) = twin_instances();
        assert_ne!(a.tasks.tasks[0].name, b.tasks.tasks[0].name);
        let opts = SolveOptions::default();
        let fa = fingerprint(&a, &Objective::MaxUtilizationPermille, &opts, None);
        let fb = fingerprint(&b, &Objective::MaxUtilizationPermille, &opts, None);
        assert_eq!(fa, fb);
        // And the canonical forms are *equal*, not merely hash-equal.
        assert!(canonicalize(&a).same_problem(&canonicalize(&b)));
    }

    #[test]
    fn message_priority_ties_follow_declaration_order() {
        // a and b each send c a message with the same deadline: declared a
        // first, a's message wins the bus; declared b first, b's does.
        let mk = |a_first: bool| {
            let mut arch = Architecture::new();
            let p0 = arch.push_ecu(Ecu::new("p0"));
            let p1 = arch.push_ecu(Ecu::new("p1"));
            arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
            let wcet = vec![(p0, 5), (p1, 5)];
            let (first, second) = if a_first { ("a", "b") } else { ("b", "a") };
            let mut tasks = TaskSet::new();
            tasks.push(Task::new(first, 50, 50, wcet.clone()).sends(TaskId(2), 4, 25));
            tasks.push(Task::new(second, 50, 50, wcet.clone()).sends(TaskId(2), 4, 25));
            tasks.push(Task::new("c", 50, 50, wcet));
            Instance { arch, tasks }
        };
        let (ab, ba) = (mk(true), mk(false));
        assert_eq!(canonicalize(&ab).instance, canonicalize(&ba).instance);
        assert!(!canonicalize(&ab).same_problem(&canonicalize(&ba)));
        let opts = SolveOptions::default();
        assert_ne!(
            fingerprint(&ab, &Objective::MaxUtilizationPermille, &opts, None),
            fingerprint(&ba, &Objective::MaxUtilizationPermille, &opts, None)
        );
    }

    #[test]
    fn content_changes_change_the_fingerprint() {
        let (a, _) = twin_instances();
        let opts = SolveOptions::default();
        let base = fingerprint(&a, &Objective::MaxUtilizationPermille, &opts, None);
        let mut wcet = a.clone();
        wcet.tasks.tasks[0].wcet.insert(EcuId(0), 11);
        assert_ne!(
            fingerprint(&wcet, &Objective::MaxUtilizationPermille, &opts, None),
            base
        );
        // Objective, semantic options and window are all part of the key.
        assert_ne!(
            fingerprint(&a, &Objective::UtilizationSpreadPermille, &opts, None),
            base
        );
        let jitter = SolveOptions {
            task_jitter: true,
            ..SolveOptions::default()
        };
        assert_ne!(
            fingerprint(&a, &Objective::MaxUtilizationPermille, &jitter, None),
            base
        );
        assert_ne!(
            fingerprint(&a, &Objective::MaxUtilizationPermille, &opts, Some((0, 10))),
            base
        );
    }

    #[test]
    fn medium_objectives_canonicalize_through_the_medium_permutation() {
        // Same two-bus architecture, media declared in both orders; the
        // objective names "the bus called can-b" in each instance's own id
        // space and must fingerprint identically.
        let mk = |flip: bool| {
            let mut arch = Architecture::new();
            let p0 = arch.push_ecu(Ecu::new("p0"));
            let p1 = arch.push_ecu(Ecu::new("p1"));
            let names = if flip {
                ["can-b", "can-a"]
            } else {
                ["can-a", "can-b"]
            };
            let first = arch.push_medium(Medium::priority(names[0], vec![p0, p1], 1, 1));
            let second = arch.push_medium(Medium::priority(names[1], vec![p0, p1], 1, 1));
            let target = if names[0] == "can-b" { first } else { second };
            let mut tasks = TaskSet::new();
            tasks.push(Task::new("a", 50, 50, vec![(p0, 10), (p1, 10)]));
            (Instance { arch, tasks }, target)
        };
        let (ia, ma) = mk(false);
        let (ib, mb) = mk(true);
        assert_ne!(ma, mb, "the same bus has different ids in the two orders");
        let opts = SolveOptions::default();
        assert_eq!(
            fingerprint(&ia, &Objective::BusLoadPermille(ma), &opts, None),
            fingerprint(&ib, &Objective::BusLoadPermille(mb), &opts, None)
        );
    }

    #[test]
    fn fingerprints_round_trip_through_hex() {
        let (a, _) = twin_instances();
        let f = fingerprint(
            &a,
            &Objective::MaxUtilizationPermille,
            &SolveOptions::default(),
            None,
        );
        let s = f.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s.parse::<Fingerprint>().unwrap(), f);
        assert!("nonsense".parse::<Fingerprint>().is_err());
    }

    #[test]
    fn remap_translates_an_allocation_between_declaration_orders() {
        let (a, b) = twin_instances();
        // An allocation for `a` (task order a,b / ecu order p0,p1): task a
        // on p0, task b on p1.
        let alloc = Allocation {
            placement: vec![EcuId(0), EcuId(1)],
            priorities: vec![0, 1],
            routes: vec![
                vec![optalloc_model::MessageRoute::single_hop(MediumId(0), 25)],
                vec![],
            ],
            slot_overrides: Default::default(),
        };
        let mapped = remap_allocation(&alloc, &a, &b).unwrap();
        // In `b`, task order is [b, a] and ECU order is [p1, p0], so task b
        // (on p1) maps to EcuId(0) and task a (on p0) to EcuId(1).
        assert_eq!(mapped.placement, vec![EcuId(0), EcuId(1)]);
        assert_eq!(mapped.priorities, vec![1, 0]);
        assert_eq!(mapped.routes[1].len(), 1, "a's message followed it");
        assert!(mapped.routes[0].is_empty());
    }

    #[test]
    fn remap_rejects_mismatched_instances() {
        let (a, _) = twin_instances();
        let mut other = a.clone();
        other.tasks.tasks[0].name = "renamed".into();
        let alloc = Allocation::skeleton(&a.tasks);
        assert!(remap_allocation(&alloc, &a, &other).is_none());
    }
}
