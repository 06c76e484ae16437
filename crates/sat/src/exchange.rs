//! Cross-solver learned-clause exchange.
//!
//! A bounded, lock-free broadcast ring for sharing *short* learned clauses
//! between cooperating solvers that work on the **same base encoding** —
//! the multi-thread analogue of the paper's §7 incremental learned-clause
//! reuse. Window-search workers solve near-identical formulas
//! (one shared encoding plus per-probe bound assumptions), so a clause one
//! worker learns prunes the others' searches too.
//!
//! ## Protocol
//!
//! The ring holds [`EXCHANGE_SLOTS`] fixed-capacity slots. Writers claim a
//! slot with a single `fetch_add` on the head counter and publish with a
//! seqlock: the slot's sequence word is set to an *odd* value while the
//! literals are written and to the even value `2·pos + 2` once the slot is
//! consistent. Readers keep a private cursor, validate the sequence word
//! before **and** after copying the literals, and simply skip slots that a
//! faster writer has recycled in the meantime. Nobody ever blocks: a
//! writer that loses the claim race drops its clause (sharing is
//! best-effort), a reader that observes a torn slot skips it.
//!
//! ## Soundness contract
//!
//! Only clauses that are logical consequences of the **shared base
//! encoding** may be published. CDCL learned clauses are consequences of
//! the clause database (never of the assumptions), but the database also
//! holds solver-local bound clauses guarded by local variables; the
//! [`crate::SolverConfig::share_var_limit`] filter therefore admits only
//! clauses whose variables all lie inside the base encoding — any clause
//! depending on a guarded bound carries the guard literal and is filtered
//! out (guards are allocated above the base range, and closed guards enter
//! the database only as negative units, so assigning every guard false
//! extends any base model to a database model).

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use crate::types::Lit;

/// Number of slots in the broadcast ring.
pub const EXCHANGE_SLOTS: usize = 4096;

/// Hard cap on the length of a shareable clause (slot capacity).
pub const MAX_SHARED_LITS: usize = 8;

struct Slot {
    /// Seqlock word: `0` = never written, odd = write in progress,
    /// `2·pos + 2` = published by the claim of ring position `pos`.
    seq: AtomicU64,
    /// Id of the publishing worker, so readers can skip their own clauses.
    writer: AtomicU32,
    len: AtomicU32,
    lits: [AtomicU32; MAX_SHARED_LITS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            writer: AtomicU32::new(u32::MAX),
            len: AtomicU32::new(0),
            lits: Default::default(),
        }
    }
}

/// A bounded lock-free clause broadcast ring (see the module docs).
pub struct ClauseExchange {
    slots: Vec<Slot>,
    /// Total clauses ever claimed; `head % slots.len()` is the next slot.
    head: AtomicU64,
}

impl std::fmt::Debug for ClauseExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClauseExchange")
            .field("slots", &self.slots.len())
            .field("published", &self.published())
            .finish()
    }
}

impl Default for ClauseExchange {
    fn default() -> ClauseExchange {
        ClauseExchange::new()
    }
}

impl ClauseExchange {
    /// Creates an empty exchange with the default ring capacity.
    pub fn new() -> ClauseExchange {
        ClauseExchange {
            slots: (0..EXCHANGE_SLOTS).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of clauses ever published (including since-recycled ones).
    pub fn published(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Publishes a clause. Returns `false` when the clause is too long for
    /// a slot or the claim race was lost (both are fine — sharing is
    /// best-effort, never load-bearing).
    pub fn publish(&self, writer: u32, lits: &[Lit]) -> bool {
        if lits.is_empty() || lits.len() > MAX_SHARED_LITS {
            return false;
        }
        let pos = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        // Claim: flip the sequence word odd. If it was already odd another
        // writer is mid-publish on a recycled claim; walk away.
        let prev = slot.seq.fetch_or(1, Ordering::Acquire);
        if prev & 1 == 1 {
            return false;
        }
        slot.writer.store(writer, Ordering::Relaxed);
        slot.len.store(lits.len() as u32, Ordering::Relaxed);
        for (cell, &l) in slot.lits.iter().zip(lits) {
            cell.store(l.index() as u32, Ordering::Relaxed);
        }
        slot.seq.store(2 * pos + 2, Ordering::Release);
        true
    }

    /// Drains clauses published since `cursor` (as returned by the previous
    /// call), skipping those written by `reader`. Clauses that were
    /// recycled before the reader got to them are silently lost; the
    /// returned cursor always catches up with the head.
    pub fn drain(&self, reader: u32, cursor: u64, mut sink: impl FnMut(&[Lit])) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        // Anything older than one full ring revolution is gone.
        let start = cursor.max(head.saturating_sub(cap));
        let mut buf = [Lit::from_index(0); MAX_SHARED_LITS];
        for pos in start..head {
            let slot = &self.slots[(pos % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != 2 * pos + 2 {
                continue; // unpublished, torn, or already recycled
            }
            if slot.writer.load(Ordering::Relaxed) == reader {
                continue;
            }
            let len = (slot.len.load(Ordering::Relaxed) as usize).min(MAX_SHARED_LITS);
            for (dst, cell) in buf[..len].iter_mut().zip(&slot.lits) {
                *dst = Lit::from_index(cell.load(Ordering::Relaxed) as usize);
            }
            // Seqlock validation: a writer recycling the slot mid-copy
            // changes the sequence word; reject the torn read.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == seq {
                sink(&buf[..len]);
            }
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;
    use std::sync::Arc;

    fn clause(ids: &[usize]) -> Vec<Lit> {
        ids.iter()
            .map(|&i| Var::from_index(i / 2).lit(i % 2 == 0))
            .collect()
    }

    #[test]
    fn publish_then_drain_roundtrip() {
        let ex = ClauseExchange::new();
        assert!(ex.publish(0, &clause(&[2, 5, 9])));
        assert!(ex.publish(0, &clause(&[4])));
        let mut seen: Vec<Vec<Lit>> = Vec::new();
        let cursor = ex.drain(1, 0, |c| seen.push(c.to_vec()));
        assert_eq!(cursor, 2);
        assert_eq!(seen, vec![clause(&[2, 5, 9]), clause(&[4])]);
        // A second drain from the returned cursor sees nothing new.
        let mut again = 0;
        ex.drain(1, cursor, |_| again += 1);
        assert_eq!(again, 0);
    }

    #[test]
    fn own_clauses_are_skipped() {
        let ex = ClauseExchange::new();
        ex.publish(7, &clause(&[2, 4]));
        ex.publish(3, &clause(&[6, 8]));
        let mut seen = 0;
        ex.drain(7, 0, |_| seen += 1);
        assert_eq!(seen, 1);
    }

    #[test]
    fn oversized_clauses_are_rejected() {
        let ex = ClauseExchange::new();
        let long: Vec<Lit> = (0..MAX_SHARED_LITS + 1)
            .map(|i| Var::from_index(i).positive())
            .collect();
        assert!(!ex.publish(0, &long));
        assert!(!ex.publish(0, &[]));
        assert_eq!(ex.published(), 0);
    }

    #[test]
    fn ring_wrap_around_drops_oldest_keeps_newest() {
        let ex = ClauseExchange::new();
        let extra = 100usize;
        for i in 0..EXCHANGE_SLOTS + extra {
            assert!(ex.publish(0, &clause(&[2 * i])));
        }
        // A reader whose cursor predates the last full revolution only sees
        // the surviving ring contents: exactly the newest EXCHANGE_SLOTS
        // clauses, in publication order.
        let mut seen: Vec<usize> = Vec::new();
        let cursor = ex.drain(1, 0, |c| seen.push(c[0].var().index()));
        assert_eq!(cursor, (EXCHANGE_SLOTS + extra) as u64);
        assert_eq!(seen.len(), EXCHANGE_SLOTS);
        assert_eq!(seen.first().copied(), Some(extra));
        assert_eq!(seen.last().copied(), Some(EXCHANGE_SLOTS + extra - 1));
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn share_var_limit_gates_the_export_path() {
        use crate::solver::{SolveResult, Solver, SolverConfig};

        // Pigeonhole 5→4: UNSAT, learns plenty of short clauses.
        fn build(solver: &mut Solver) {
            let vars: Vec<Vec<crate::types::Var>> = (0..5)
                .map(|_| (0..4).map(|_| solver.new_var()).collect())
                .collect();
            for p in &vars {
                let cl: Vec<Lit> = p.iter().map(|v| v.positive()).collect();
                solver.add_clause(&cl);
            }
            #[allow(clippy::needless_range_loop)] // h indexes two different rows at once
            for h in 0..4 {
                for a in 0..5 {
                    for b in a + 1..5 {
                        solver.add_clause(&[vars[a][h].negative(), vars[b][h].negative()]);
                    }
                }
            }
        }

        let run = |limit: usize| {
            let ex = Arc::new(ClauseExchange::new());
            let mut solver = Solver::new();
            solver.config = SolverConfig {
                exchange: Some(Arc::clone(&ex)),
                share_writer: 0,
                share_var_limit: limit,
                ..SolverConfig::default()
            };
            build(&mut solver);
            assert_eq!(solver.solve(&[]), SolveResult::Unsat);
            (solver.stats.exported, ex)
        };

        // The default limit of 0 exports nothing.
        let (exported, ex) = run(0);
        assert_eq!(exported, 0);
        assert_eq!(ex.published(), 0);

        // With the limit at the full encoding size, short clauses flow.
        let (exported, ex) = run(20);
        assert!(exported > 0);
        assert_eq!(ex.published(), exported);

        // A partial limit: everything drained respects it.
        let (_, ex) = run(10);
        ex.drain(u32::MAX, 0, |c| {
            assert!(c.iter().all(|l| l.var().index() < 10));
        });
    }

    #[test]
    fn two_thread_torn_reads_are_rejected() {
        // One writer recycling the ring at full speed, one reader draining
        // concurrently: every clause the reader accepts must be internally
        // consistent (all lits share one variable tag, length derived from
        // it), i.e. the seqlock validation rejected every torn slot.
        let ex = Arc::new(ClauseExchange::new());
        let writer = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || {
                for i in 0..20 * EXCHANGE_SLOTS {
                    let len = i % MAX_SHARED_LITS + 1;
                    let l = Var::from_index(i).positive();
                    let lits = vec![l; len];
                    ex.publish(0, &lits);
                }
            })
        };
        let reader = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || {
                let mut cursor = 0;
                let mut seen = 0usize;
                for _ in 0..400 {
                    cursor = ex.drain(1, cursor, |c| {
                        let tag = c[0].var().index();
                        assert_eq!(c.len(), tag % MAX_SHARED_LITS + 1, "torn length");
                        assert!(
                            c.iter().all(|&l| l == Lit::from_index(2 * tag)),
                            "torn literal mix"
                        );
                        seen += 1;
                    });
                    std::thread::yield_now();
                }
                seen
            })
        };
        writer.join().unwrap();
        assert!(reader.join().unwrap() > 0);
    }

    #[test]
    fn concurrent_publish_drain_is_safe_and_untorn() {
        let ex = Arc::new(ClauseExchange::new());
        let writers: Vec<_> = (0..4u32)
            .map(|w| {
                let ex = Arc::clone(&ex);
                std::thread::spawn(move || {
                    for i in 0..5_000usize {
                        // Every published clause has lits [k, k+1, k+2]
                        // for k = 3·i, so a torn read is detectable.
                        let k = 3 * i;
                        ex.publish(w, &clause(&[2 * k, 2 * (k + 1), 2 * (k + 2)]));
                    }
                })
            })
            .collect();
        let reader = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || {
                let mut cursor = 0;
                let mut seen = 0usize;
                for _ in 0..200 {
                    cursor = ex.drain(u32::MAX, cursor, |c| {
                        assert_eq!(c.len(), 3, "torn length");
                        let base = c[0].var().index();
                        assert_eq!(c[1].var().index(), base + 1, "torn clause");
                        assert_eq!(c[2].var().index(), base + 2, "torn clause");
                        seen += 1;
                    });
                    std::thread::yield_now();
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        assert!(reader.join().unwrap() > 0);
    }
}
