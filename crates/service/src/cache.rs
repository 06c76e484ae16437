//! LRU session cache keyed by canonical fingerprint.
//!
//! One entry per fingerprint the service solved: the instance and its
//! objective, which a delta applies to, and once the job ended in a
//! terminal verdict its result and certificate. A hit on a stored result
//! returns the prior optimum, allocation **and certificate** without
//! touching the SAT layer. The stored allocation lives in the id space of
//! the stored instance; the service remaps it by name when a
//! permuted-but-identical instance hits (see
//! [`fingerprint::remap_allocation`](crate::fingerprint::remap_allocation)).
//! The capacity bounds every per-fingerprint record the service keeps.

use crate::fingerprint::Fingerprint;
use crate::protocol::{Instance, JobResult};
use optalloc::{CertificateReport, Objective};
use std::collections::HashMap;

/// What the service remembers of one fingerprint.
#[derive(Clone)]
pub(crate) struct Session {
    /// The instance last solved under this fingerprint (original
    /// declaration order) — a delta's base, the remap source on permuted
    /// hits, and the equality re-check against hash collisions.
    pub instance: Instance,
    /// The objective it was solved under, a delta's default.
    pub objective: Objective,
    /// The terminal result (allocation in the id space of `instance`);
    /// `None` when the solve was aborted or failed.
    pub result: Option<JobResult>,
    /// The verified optimality certificate, when the job was certified.
    pub certificate: Option<CertificateReport>,
}

struct Entry {
    value: Session,
    /// Monotone access stamp; smallest = least recently used.
    stamp: u64,
}

/// A small LRU map: capacity is a handful of instances, so eviction scans
/// instead of maintaining an intrusive list.
pub(crate) struct SessionCache {
    map: HashMap<Fingerprint, Entry>,
    capacity: usize,
    clock: u64,
}

impl SessionCache {
    pub fn new(capacity: usize) -> SessionCache {
        SessionCache {
            map: HashMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// Entries holding a result.
    pub fn results(&self) -> usize {
        self.map
            .values()
            .filter(|e| e.value.result.is_some())
            .count()
    }

    /// Looks a fingerprint up and refreshes its recency.
    pub fn get(&mut self, key: &Fingerprint) -> Option<&Session> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.stamp = clock;
            &e.value
        })
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// one when over capacity. A zero-capacity cache stores nothing.
    pub fn put(&mut self, key: Fingerprint, value: Session) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.clock,
            },
        );
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            self.map.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{JobOutcome, SearchSummary, WarmLabel};
    use optalloc_model::{Architecture, TaskSet};

    fn dummy(fp: &str) -> (Fingerprint, Session) {
        let key: Fingerprint = format!("{fp:0>32}").parse().unwrap();
        let value = Session {
            result: Some(JobResult {
                fingerprint: key.to_string(),
                outcome: JobOutcome::Infeasible,
                cached: false,
                warm: WarmLabel::Cold,
                solve_calls: 1,
                conflicts: 0,
                solve_ms: 0,
                search: SearchSummary::default(),
                phases: optalloc_obs::PhaseTotals::default(),
            }),
            instance: Instance {
                arch: Architecture::new(),
                tasks: TaskSet::new(),
            },
            objective: Objective::Feasibility,
            certificate: None,
        };
        (key, value)
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = SessionCache::new(2);
        let (a, va) = dummy("a");
        let (b, vb) = dummy("b");
        let (c, vc) = dummy("c");
        cache.put(a, va);
        cache.put(b, vb);
        assert!(cache.get(&a).is_some()); // refresh a: b is now coldest
        cache.put(c, vc);
        assert_eq!(cache.results(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut cache = SessionCache::new(0);
        let (a, va) = dummy("a");
        cache.put(a, va);
        assert_eq!(cache.results(), 0);
        assert!(cache.get(&a).is_none());
    }
}
