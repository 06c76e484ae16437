//! Deep solver-invariant checking ([`SolverConfig::paranoid`]).
//!
//! Fuzz campaigns that only look at final optima discover corruption long
//! after the fact, on instances too large to debug. This module walks the
//! whole solver state — watch lists, trail, PB counters, learned-clause DB,
//! elimination stack, decision order — and panics *at the corruption point*,
//! so a metamorphic campaign shrinks the instance against the first broken
//! invariant rather than against a wrong answer three layers downstream.
//!
//! Every check is `O(formula)` or worse; `solve` only calls them at
//! quiescent points (solve entry after preprocessing, restart boundaries,
//! solve exit) and only when [`SolverConfig::paranoid`] is set.
//!
//! Deliberate non-checks, each load-bearing:
//! - eliminated variables MAY appear in old *learned* clauses and MAY be
//!   assigned (a stale learned clause can still propagate them); only their
//!   absence from live input clauses and PB constraints is an invariant,
//! - the order heap may contain assigned or eliminated variables (decision
//!   picking skips them lazily); only the converse — every undecided,
//!   non-eliminated variable is present — must hold,
//! - trail segments may be empty (assumption levels whose literal was
//!   already true), so the first literal of a segment need not be a
//!   decision.
//!
//! [`SolverConfig::paranoid`]: super::SolverConfig::paranoid

use std::collections::{HashMap, HashSet};

use super::{Reason, Solver};
use crate::clause::ClauseRef;
use crate::types::{LBool, Lit, Var};

impl Solver {
    /// Walks every deep solver invariant and panics (with `site` in the
    /// message) on the first violation. See the module docs for the exact
    /// catalogue and the deliberate non-checks.
    pub fn check_invariants(&self, site: &str) {
        self.check_watch_coherence(site);
        self.check_trail(site);
        self.check_pb_counters(site);
        self.check_learnt_db(site);
        self.check_elim_state(site);
        self.check_decision_order(site);
    }

    /// Watch coherence: every live clause of length ≥ 2 is watched exactly
    /// twice, every watcher points at a live clause through one of its first
    /// two literals, blockers belong to their clause, and binary lists hold
    /// only binary clauses.
    fn check_watch_coherence(&self, site: &str) {
        let mut entries: HashMap<ClauseRef, usize> = HashMap::new();
        for li in 0..self.watches.len() {
            // `watches[lit]` is walked when `lit` becomes true, i.e. it
            // holds the clauses watching `¬lit`.
            let watched = !Lit::from_index(li);
            for w in &self.watches[li] {
                assert!(
                    !self.db.is_deleted(w.cref),
                    "[{site}] watcher of {watched:?} points at a deleted clause"
                );
                let lits = self.db.lits(w.cref);
                assert!(
                    lits[0] == watched || lits[1] == watched,
                    "[{site}] watch entry for {watched:?} not in the first two \
                     literals of {lits:?}"
                );
                assert!(
                    lits.contains(&w.blocker),
                    "[{site}] blocker {:?} not in clause {lits:?}",
                    w.blocker
                );
                *entries.entry(w.cref).or_default() += 1;
            }
        }
        for li in 0..self.bin_watches.len() {
            let watched = !Lit::from_index(li);
            for w in &self.bin_watches[li] {
                assert!(
                    !self.db.is_deleted(w.cref),
                    "[{site}] binary watcher of {watched:?} points at a deleted clause"
                );
                let lits = self.db.lits(w.cref);
                assert_eq!(
                    lits.len(),
                    2,
                    "[{site}] non-binary clause {lits:?} on a binary watch list"
                );
                assert!(
                    lits.contains(&watched) && lits.contains(&w.other) && watched != w.other,
                    "[{site}] binary watch ({watched:?}, {:?}) does not match clause {lits:?}",
                    w.other
                );
                *entries.entry(w.cref).or_default() += 1;
            }
        }
        for cref in self.db.iter_refs() {
            let n = entries.get(&cref).copied().unwrap_or(0);
            assert_eq!(
                n,
                2,
                "[{site}] live clause {:?} has {n} watch entries (want 2)",
                self.db.lits(cref)
            );
        }
    }

    /// Trail/level consistency: the propagation queue is drained, every
    /// trail literal is true with the right recorded position and level,
    /// every clause reason is live with the propagated literal first and
    /// the rest false earlier on the trail, and the set of assigned
    /// variables is exactly the set on the trail.
    fn check_trail(&self, site: &str) {
        assert_eq!(
            self.qhead,
            self.trail.len(),
            "[{site}] propagation queue not drained"
        );
        for w in self.trail_lim.windows(2) {
            assert!(w[0] <= w[1], "[{site}] decision marks out of order");
        }
        if let Some(&last) = self.trail_lim.last() {
            assert!(
                last <= self.trail.len(),
                "[{site}] decision mark past trail end"
            );
        }
        for (idx, &l) in self.trail.iter().enumerate() {
            let v = l.var();
            // A variable's level is the number of decision marks at or
            // before its trail position (empty segments collapse).
            let expect_level = self.trail_lim.iter().take_while(|&&lim| lim <= idx).count() as u32;
            assert_eq!(
                self.value_lit(l),
                LBool::True,
                "[{site}] trail literal {l:?} not assigned true"
            );
            assert_eq!(
                self.trail_pos[v.index()] as usize,
                idx,
                "[{site}] trail_pos of {v:?} disagrees with its trail slot"
            );
            assert_eq!(
                self.level[v.index()],
                expect_level,
                "[{site}] recorded level of {v:?} disagrees with its trail segment"
            );
            match self.reason[v.index()] {
                Reason::None => {}
                Reason::Clause(c) => {
                    assert!(
                        !self.db.is_deleted(c),
                        "[{site}] reason clause of {v:?} was deleted while locked"
                    );
                    let lits = self.db.lits(c);
                    assert_eq!(
                        lits[0], l,
                        "[{site}] reason clause of {v:?} does not lead with its literal"
                    );
                    for &o in &lits[1..] {
                        assert_eq!(
                            self.value_lit(o),
                            LBool::False,
                            "[{site}] reason clause of {v:?} has a non-false tail literal"
                        );
                        assert!(
                            (self.trail_pos[o.var().index()] as usize) < idx,
                            "[{site}] reason antecedent of {v:?} assigned after it"
                        );
                    }
                }
                Reason::Pb(pi) => {
                    assert!(
                        (pi as usize) < self.pbs.len(),
                        "[{site}] dangling PB reason index {pi}"
                    );
                }
            }
        }
        let mut on_trail = vec![false; self.assigns.len()];
        for &l in &self.trail {
            on_trail[l.var().index()] = true;
        }
        for (v, assign) in self.assigns.iter().enumerate() {
            assert_eq!(
                assign.is_assigned(),
                on_trail[v],
                "[{site}] assignment of var {v} disagrees with trail membership"
            );
        }
    }

    /// PB counter agreement: each constraint's incrementally-maintained
    /// `slack` equals the sum of coefficients of its non-false literals
    /// minus the bound, and `max_coef` is the true maximum.
    fn check_pb_counters(&self, site: &str) {
        for (pi, pb) in self.pbs.iter().enumerate() {
            let recomputed: i64 = pb
                .lits
                .iter()
                .zip(pb.coefs.iter())
                .filter(|(l, _)| self.value_lit(**l) != LBool::False)
                .map(|(_, &a)| a as i64)
                .sum::<i64>()
                - pb.bound as i64;
            assert_eq!(
                pb.slack, recomputed,
                "[{site}] PB {pi} slack counter drifted from its assignment"
            );
            assert_eq!(
                pb.max_coef,
                pb.coefs.iter().copied().max().unwrap_or(0),
                "[{site}] PB {pi} max_coef stale"
            );
        }
    }

    /// Learned-DB integrity: `learnts` lists each live learned clause
    /// exactly once, and nothing else.
    fn check_learnt_db(&self, site: &str) {
        let mut tracked: HashSet<ClauseRef> = HashSet::with_capacity(self.learnts.len());
        for &c in &self.learnts {
            assert!(
                !self.db.is_deleted(c),
                "[{site}] deleted clause still tracked in learnts"
            );
            assert!(
                self.db.is_learnt(c),
                "[{site}] input clause tracked in learnts"
            );
            assert!(tracked.insert(c), "[{site}] duplicate learnts entry");
        }
        for cref in self.db.iter_refs() {
            if self.db.is_learnt(cref) {
                assert!(
                    tracked.contains(&cref),
                    "[{site}] live learned clause missing from learnts"
                );
            }
        }
    }

    /// Elimination-stack consistency: the `eliminated` marks, the
    /// `elim_pos` indirection and the stack agree (with stale entries of
    /// re-eliminated variables correctly orphaned), every live group's
    /// stored clauses lie in the flat stack and mention its variable,
    /// frozen variables are never eliminated, the depth gauge matches, and
    /// no eliminated variable occurs in a live input clause or a PB
    /// constraint.
    fn check_elim_state(&self, site: &str) {
        let mut live = 0u64;
        let mut live_clauses = 0usize;
        for v in 0..self.eliminated.len() {
            if self.eliminated[v] {
                live += 1;
                assert!(
                    !self.frozen[v],
                    "[{site}] frozen var {v} was eliminated anyway"
                );
                let gi = self.elim_pos[v];
                assert!(
                    gi != u32::MAX && (gi as usize) < self.elim_stack.len(),
                    "[{site}] eliminated var {v} has no live stack group"
                );
                assert_eq!(
                    self.elim_stack[gi as usize].var,
                    Var::from_index(v),
                    "[{site}] elim_pos of var {v} points at another variable's group"
                );
                // Each stored clause is a range of the flat stack and
                // mentions the variable it was stored for.
                live_clauses += self.elim_stack[gi as usize].clauses.len();
                for k in self.elim_stack[gi as usize].clauses.clone() {
                    assert!(
                        (k as usize) < self.elim_ranges.len(),
                        "[{site}] group of var {v} holds clause {k} past the stack"
                    );
                    assert!(
                        self.stored_clause(k).iter().any(|l| l.var().index() == v),
                        "[{site}] stored clause {:?} of var {v} does not mention it",
                        self.stored_clause(k)
                    );
                }
            } else {
                assert_eq!(
                    self.elim_pos[v],
                    u32::MAX,
                    "[{site}] restored var {v} still has a live stack pointer"
                );
            }
        }
        assert_eq!(
            live, self.stats.elim_stack_depth,
            "[{site}] elim_stack_depth gauge drifted"
        );
        assert_eq!(
            live_clauses + self.elim_dead_clauses,
            self.elim_ranges.len(),
            "[{site}] dead reconstruction-stack clause count drifted"
        );
        // Eliminated variables were distributed away: they must not occur
        // in any live *input* clause or PB constraint. (Old *learned*
        // clauses may still mention them — that is sound and unchecked.)
        for cref in self.db.iter_refs() {
            if self.db.is_learnt(cref) {
                continue;
            }
            for &l in self.db.lits(cref) {
                assert!(
                    !self.eliminated[l.var().index()],
                    "[{site}] eliminated {:?} occurs in live input clause {:?}",
                    l.var(),
                    self.db.lits(cref)
                );
            }
        }
        for (pi, pb) in self.pbs.iter().enumerate() {
            for &l in pb.lits.iter() {
                assert!(
                    !self.eliminated[l.var().index()],
                    "[{site}] eliminated {:?} occurs in PB constraint {pi}",
                    l.var()
                );
            }
        }
    }

    /// Decision-order completeness: every unassigned, non-eliminated
    /// variable is present in the order heap (the heap may hold assigned or
    /// eliminated variables too; picking skips those lazily).
    fn check_decision_order(&self, site: &str) {
        for v in 0..self.assigns.len() {
            if self.assigns[v] == LBool::Undef && !self.eliminated[v] {
                assert!(
                    self.order.contains(Var::from_index(v)),
                    "[{site}] undecided var {v} missing from the order heap"
                );
            }
        }
    }
}
