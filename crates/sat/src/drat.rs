//! DRAT-style proof logging and a self-contained backward proof checker.
//!
//! With [`SolverConfig::proof`](crate::SolverConfig::proof) enabled the
//! solver records every input constraint and every derived clause into an
//! in-memory [`ProofLog`]. The log is an *extended* DRAT trace: besides
//! clause additions and deletions it carries the original inputs (clauses
//! and normalized pseudo-Boolean constraints), so the trace is fully
//! self-contained — a checker needs no separate copy of the formula, and
//! incremental solving (constraints added between SOLVE calls) falls out
//! naturally from the chronological interleaving.
//!
//! [`check_proof`] is the matching checker, in the style of drat-trim
//! (Wetzler, Heule & Hunt, SAT 2014): a miniature unit-propagation engine
//! — two watched literals per clause, counter propagation for PB
//! constraints, **no decisions, no learning** — that proves a list of
//! [`Claim`]s, each a clause anchored at a point of the trace.
//!
//! - A **forward pass** installs every step without checking anything,
//!   recording for each step its clause id and the length of the root
//!   trail, and for each root fact the clause or PB constraint that
//!   implied it.
//! - A **backward pass** walks back from the end of the trace, undoing
//!   one step at a time — deactivating additions, re-activating deletions
//!   and truncating the root trail — so that at every point it holds
//!   exactly the formula the forward pass held there. Each claim is
//!   checked by RUP (reverse unit propagation: assert the clause's
//!   negation, propagate, expect a conflict) against the formula at its
//!   anchor. A conflict analysis then marks every derived clause the
//!   refutation used — including those behind the false literals of a PB
//!   reason and behind root facts — and the marked clauses (the *core*)
//!   are RUP-checked in turn when the pass reaches the step that added
//!   them. Propagation is *core-first*: inputs and marked clauses run to
//!   fixpoint before any unmarked clause may propagate, which keeps the
//!   core small. The pass stops once every claim is proved and every
//!   marked clause checked.
//!
//! Derived clauses outside the core are never checked: they are skipped
//! and counted, not rejected. That is sound because every clause a claim
//! depends on, transitively, is checked against the formula before it, so
//! by induction each claim is implied by the inputs logged before its
//! anchor; an unchecked clause contributes to no claim. Because learned
//! clauses may be derived through PB reasons, propagation over the PB
//! inputs is part of the RUP closure; plain clause-only DRAT would reject
//! such steps.
//!
//! Deletions only ever weaken the formula, so an unmatched deletion is
//! ignored (counted, not rejected), and deleting a clause never retracts a
//! root fact it implied — the fact stays implied by the formula before the
//! deletion. Both are the standard lenient semantics, sound for RUP-only
//! traces.

use crate::types::{LBool, Lit};
use std::collections::HashMap;
use std::io::{self, Write};

/// One step of an extended DRAT trace, borrowed from a [`ProofLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofStep<'a> {
    /// An input clause, exactly as handed to the solver (pre-simplification).
    InputClause(&'a [Lit]),
    /// An input pseudo-Boolean constraint in normalized `≥` form:
    /// `Σ coefs[i]·lits[i] ≥ bound` with positive coefficients.
    InputPb {
        /// Distinct literals, paired with `coefs`.
        lits: &'a [Lit],
        /// Positive coefficients.
        coefs: &'a [u64],
        /// Right-hand side of the `≥`.
        bound: u64,
    },
    /// A derived clause; must be RUP with respect to everything before it
    /// whenever a claim depends on it.
    Add(&'a [Lit]),
    /// A clause removed from the active set (clause-DB reduction or
    /// preprocessing). Always sound to ignore.
    Delete(&'a [Lit]),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    InputClause,
    InputPb,
    Add,
    Delete,
}

/// Where one step's literals — and, for a PB input, its coefficients —
/// start in the log's arenas. A step's literals end where the next step's
/// begin.
#[derive(Clone, Copy, Debug)]
struct StepRef {
    kind: Kind,
    lits: u32,
    coefs: u32,
}

/// Chronological record of a solver run, suitable for [`check_proof`].
///
/// Stored flat: every step's literals in one arena, PB coefficients (each
/// constraint's followed by its bound) in another, and a 12-byte index
/// entry per step, so logging a step allocates nothing once the arenas
/// have grown.
#[derive(Clone, Debug, Default)]
pub struct ProofLog {
    lits: Vec<Lit>,
    coefs: Vec<u64>,
    steps: Vec<StepRef>,
}

/// An arena offset as stored in the step index.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("proof trace arena exceeds 2^32 entries")
}

impl ProofLog {
    /// An empty trace.
    pub fn new() -> ProofLog {
        ProofLog::default()
    }

    fn push(&mut self, kind: Kind, lits: &[Lit]) {
        self.steps.push(StepRef {
            kind,
            lits: offset(self.lits.len()),
            coefs: offset(self.coefs.len()),
        });
        self.lits.extend_from_slice(lits);
    }

    /// Records an input clause.
    pub fn input_clause(&mut self, lits: &[Lit]) {
        self.push(Kind::InputClause, lits);
    }

    /// Records an input PB constraint `Σ coefs[i]·lits[i] ≥ bound`.
    pub fn input_pb(&mut self, lits: &[Lit], coefs: &[u64], bound: u64) {
        debug_assert_eq!(lits.len(), coefs.len());
        self.push(Kind::InputPb, lits);
        self.coefs.extend_from_slice(coefs);
        self.coefs.push(bound);
    }

    /// Records a derived clause (the empty slice is the empty clause).
    pub fn add(&mut self, lits: &[Lit]) {
        self.push(Kind::Add, lits);
    }

    /// Records a clause deletion.
    pub fn delete(&mut self, lits: &[Lit]) {
        self.push(Kind::Delete, lits);
    }

    /// Step `i` of the trace.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn step(&self, i: usize) -> ProofStep<'_> {
        let s = self.steps[i];
        let end = self
            .steps
            .get(i + 1)
            .map_or(self.lits.len(), |n| n.lits as usize);
        let lits = &self.lits[s.lits as usize..end];
        match s.kind {
            Kind::InputClause => ProofStep::InputClause(lits),
            Kind::Add => ProofStep::Add(lits),
            Kind::Delete => ProofStep::Delete(lits),
            Kind::InputPb => {
                let c = s.coefs as usize;
                ProofStep::InputPb {
                    lits,
                    coefs: &self.coefs[c..c + lits.len()],
                    bound: self.coefs[c + lits.len()],
                }
            }
        }
    }

    /// The recorded steps, in order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = ProofStep<'_>> + '_ {
        (0..self.len()).map(|i| self.step(i))
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Writes the trace as text. Derived clauses and deletions use plain
    /// DRAT syntax (`<lits> 0` / `d <lits> 0`, DIMACS numbering); the
    /// self-containment extensions are prefixed lines: `i <lits> 0` for
    /// input clauses and `p <coef> <lit> ... >= <bound> 0` for PB inputs.
    pub fn write_drat<W: Write>(&self, w: &mut W) -> io::Result<()> {
        fn dimacs(l: Lit) -> i64 {
            let v = l.var().index() as i64 + 1;
            if l.is_positive() {
                v
            } else {
                -v
            }
        }
        /// `prefix` (if any), the literals and the closing 0, space-separated.
        fn clause<W: Write>(w: &mut W, prefix: &str, lits: &[Lit]) -> io::Result<()> {
            w.write_all(prefix.as_bytes())?;
            let mut sep = if prefix.is_empty() { "" } else { " " };
            for &l in lits {
                write!(w, "{sep}{}", dimacs(l))?;
                sep = " ";
            }
            writeln!(w, "{sep}0")
        }
        for step in self.steps() {
            match step {
                ProofStep::InputClause(lits) => clause(w, "i", lits)?,
                ProofStep::Add(lits) => clause(w, "", lits)?,
                ProofStep::Delete(lits) => clause(w, "d", lits)?,
                ProofStep::InputPb { lits, coefs, bound } => {
                    write!(w, "p")?;
                    for (&l, &c) in lits.iter().zip(coefs) {
                        write!(w, " {} {}", c, dimacs(l))?;
                    }
                    writeln!(w, " >= {bound} 0")?;
                }
            }
        }
        Ok(())
    }
}

/// A clause a trace must prove, anchored at a point of the trace.
#[derive(Clone, Copy, Debug)]
pub struct Claim<'a> {
    /// The clause; the empty clause claims unsatisfiability.
    pub clause: &'a [Lit],
    /// Number of leading trace steps the claim rests on: it is proved by
    /// RUP against the formula `steps[..step]` leaves active (the inputs
    /// and derived clauses logged before it, minus the ones deleted
    /// before it).
    pub step: usize,
}

/// Why a proof was rejected.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// The clause added at `step` is in the core of some claim but is not
    /// RUP with respect to the formula before it.
    RupFailed {
        /// Index of the offending step in the trace.
        step: usize,
        /// The clause that failed its RUP check.
        clause: Vec<Lit>,
    },
    /// A claim is not RUP with respect to the formula at its anchor (or
    /// its anchor lies past the end of the trace).
    ClaimUnproved {
        /// Index into the claims passed to [`check_proof`].
        claim: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::RupFailed { step, clause } => {
                write!(f, "step {step}: clause of {} lits failed RUP", clause.len())
            }
            CheckError::ClaimUnproved { claim } => {
                write!(f, "claim {claim} is not implied at its anchor")
            }
        }
    }
}

/// Result of a successful [`check_proof`] run.
#[derive(Clone, Debug, Default)]
pub struct CheckedProof {
    /// Total steps in the trace.
    pub steps: usize,
    /// Input clauses + PB constraints.
    pub inputs: usize,
    /// Derived clauses in the core — the ones some claim depends on — each
    /// checked by RUP against the formula before it.
    pub adds_verified: usize,
    /// Derived clauses outside the core: no claim depends on them, so they
    /// were never checked.
    pub adds_skipped: usize,
    /// Deletions applied.
    pub deletions: usize,
    /// Deletions with no matching active clause (ignored, not an error).
    pub ignored_deletions: usize,
}

/// Checks `claims` against an extended DRAT trace (see the module docs):
/// every claim must be RUP at its anchor, and every derived clause those
/// refutations use — transitively — must be RUP at the step that added it.
pub fn check_proof(log: &ProofLog, claims: &[Claim]) -> Result<CheckedProof, CheckError> {
    let mut out = CheckedProof {
        steps: log.len(),
        ..CheckedProof::default()
    };
    let vars = log
        .lits
        .iter()
        .chain(claims.iter().flat_map(|c| c.clause))
        .map(|l| l.var().index() + 1)
        .max()
        .unwrap_or(0);
    let mut ck = Checker::new(vars);

    // Forward: install every step unchecked, recording its clause (or PB)
    // id and the root-trail length before it.
    let mut index = ClauseIndex::default();
    let mut ids = Vec::with_capacity(log.len());
    let mut trail_before = Vec::with_capacity(log.len());
    let mut conflict_step = None;
    for (i, step) in log.steps().enumerate() {
        trail_before.push(offset(ck.trail.len()));
        let id = match step {
            ProofStep::InputClause(lits) => {
                out.inputs += 1;
                ck.add_clause(lits, false, &mut index)
            }
            ProofStep::InputPb { lits, coefs, bound } => {
                out.inputs += 1;
                ck.add_pb(lits, coefs, bound)
            }
            ProofStep::Add(lits) => ck.add_clause(lits, true, &mut index),
            ProofStep::Delete(lits) => {
                let id = ck.delete(lits, &mut index);
                if id == NONE {
                    out.ignored_deletions += 1;
                } else {
                    out.deletions += 1;
                }
                id
            }
        };
        if conflict_step.is_none() && ck.conflict.is_some() {
            conflict_step = Some(i);
        }
        ids.push(id);
    }
    drop(index);

    // Backward: from the end, undo one step at a time. `state` is the
    // number of steps still applied; claims anchored there are proved
    // there, and a marked lemma is checked once its own step is undone.
    let mut order: Vec<usize> = (0..claims.len()).collect();
    order.sort_unstable_by_key(|&k| std::cmp::Reverse(claims[k].step));
    if let Some(&k) = order.first().filter(|&&k| claims[k].step > log.len()) {
        return Err(CheckError::ClaimUnproved { claim: k });
    }
    let (mut state, mut next) = (log.len(), 0);
    loop {
        while next < order.len() && claims[order[next]].step == state {
            let k = order[next];
            if !ck.prove(claims[k].clause) {
                return Err(CheckError::ClaimUnproved { claim: k });
            }
            next += 1;
        }
        if state == 0 || (next == order.len() && ck.unchecked == 0) {
            break;
        }
        state -= 1;
        let (kind, id) = (log.steps[state].kind, ids[state]);
        ck.undo_step(kind, id);
        ck.undo_to(trail_before[state] as usize);
        if conflict_step == Some(state) {
            ck.conflict = None;
        }
        if kind == Kind::Add && id != NONE && ck.flags[id as usize] & CORE != 0 {
            ck.unchecked -= 1;
            out.adds_verified += 1;
            if !ck.prove_lemma(id) {
                let ProofStep::Add(lits) = log.step(state) else {
                    unreachable!("an Add step")
                };
                return Err(CheckError::RupFailed {
                    step: state,
                    clause: lits.to_vec(),
                });
            }
        }
    }
    let adds = log.steps.iter().filter(|s| s.kind == Kind::Add).count();
    out.adds_skipped = adds - out.adds_verified;
    Ok(out)
}

/// "No clause": a tautology (never installed) or an unmatched deletion.
const NONE: u32 = u32::MAX;

/// Clause flag: part of the formula at the current step.
const ACTIVE: u8 = 1;
/// A derived clause (an `Add` step), as opposed to an input.
const LEMMA: u8 = 2;
/// A derived clause some claim depends on: it must be checked.
const CORE: u8 = 4;

/// Why a literal is on the trail.
#[derive(Clone, Copy, Debug)]
enum Reason {
    /// Asserted by a RUP check (the negation of the clause under test).
    Assumed,
    Clause(u32),
    Pb(u32),
}

/// What a refutation ended in.
#[derive(Clone, Copy, Debug)]
enum Conflict {
    /// Every literal of this clause is false.
    Clause(u32),
    /// This PB constraint's slack is negative.
    Pb(u32),
    /// A literal of the clause under test is already true: at root, or
    /// (for a tautology) by the negation of another of its literals.
    Satisfied(Lit),
}

struct Pb<'a> {
    lits: &'a [Lit],
    coefs: &'a [u64],
    /// `Σ_{lᵢ not false} coefs[i] − bound` under the current assignment.
    slack: i64,
    max_coef: u64,
    active: bool,
}

/// Hash (FNV-1a over literal codes) of a sorted, deduplicated literal set.
fn clause_hash(sorted: &[Lit]) -> u64 {
    sorted.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
        (h ^ l.index() as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deletion matching for the forward pass: active clauses chained by the
/// hash of their sorted literals; literals are compared on a hash match.
#[derive(Default)]
struct ClauseIndex {
    head: HashMap<u64, u32>,
    /// Per clause id: the next clause with the same hash, or `NONE`.
    next: Vec<u32>,
}

/// The checker's propagation engine: clauses under two-watched-literal
/// propagation, PB constraints with counter (slack) propagation, and one
/// trail shared by the root level and the temporary RUP probes.
///
/// Watch invariant: a watched literal that is false at root belongs to a
/// clause satisfied by a literal assigned in the same step or earlier.
/// Propagation keeps it (a false watch is moved, or the clause turns unit
/// and is satisfied in the same step), probes undo their own assignments,
/// and the backward pass only ever truncates the root trail to a
/// step boundary — so every truncation leaves the invariant intact and the
/// root trail at a fixpoint.
struct Checker<'a> {
    assigns: Vec<LBool>,
    reason: Vec<Reason>,
    /// Trail position of each assigned variable.
    pos: Vec<u32>,
    trail: Vec<Lit>,
    /// Clause `c` is `lits[start[c]..start[c + 1]]`, canonical (sorted,
    /// deduplicated) on install; slots 0 and 1 hold the watched literals.
    lits: Vec<Lit>,
    start: Vec<u32>,
    flags: Vec<u8>,
    /// `lit.index()` → ids of clauses watching that literal; visited when
    /// the literal becomes false. Inactive and stale ids are dropped lazily.
    watches: Vec<Vec<u32>>,
    pbs: Vec<Pb<'a>>,
    /// `lit.index()` → `(pb id, coef)` for constraints containing that
    /// literal; consulted when the literal becomes false.
    pb_occ: Vec<Vec<(u32, u64)>>,
    /// A conflict in the root closure: every clause is implied.
    conflict: Option<Conflict>,
    /// Marked lemmas whose own check is still ahead of the backward pass.
    unchecked: usize,
    /// Analysis: probe variables still to explain.
    seen: Vec<bool>,
    /// Analysis: root facts whose reasons are already marked.
    justified: Vec<bool>,
    /// Analysis: root facts whose reasons still need marking.
    pending: Vec<usize>,
    /// Per-literal stamps for set comparison in deletion matching.
    stamp: Vec<u32>,
    epoch: u32,
    scratch: Vec<Lit>,
}

impl<'a> Checker<'a> {
    fn new(vars: usize) -> Checker<'a> {
        Checker {
            assigns: vec![LBool::Undef; vars],
            reason: vec![Reason::Assumed; vars],
            pos: vec![0; vars],
            trail: Vec::new(),
            lits: Vec::new(),
            start: vec![0],
            flags: Vec::new(),
            watches: vec![Vec::new(); vars * 2],
            pbs: Vec::new(),
            pb_occ: vec![Vec::new(); vars * 2],
            conflict: None,
            unchecked: 0,
            seen: vec![false; vars],
            justified: vec![false; vars],
            pending: Vec::new(),
            stamp: vec![0; vars * 2],
            epoch: 0,
            scratch: Vec::new(),
        }
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn clause(&self, c: u32) -> std::ops::Range<usize> {
        self.start[c as usize] as usize..self.start[c as usize + 1] as usize
    }

    /// Inputs and marked lemmas propagate in the core pass.
    fn is_core(&self, c: u32) -> bool {
        self.flags[c as usize] & (LEMMA | CORE) != LEMMA
    }

    fn assign(&mut self, l: Lit, why: Reason) {
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.reason[v] = why;
        self.pos[v] = self.trail.len() as u32;
        self.trail.push(l);
        for &(pi, c) in &self.pb_occ[(!l).index()] {
            self.pbs[pi as usize].slack -= c as i64;
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().unwrap();
            self.assigns[l.var().index()] = LBool::Undef;
            for &(pi, c) in &self.pb_occ[(!l).index()] {
                self.pbs[pi as usize].slack += c as i64;
            }
        }
    }

    /// Sorts and deduplicates `lits` into `self.scratch`; false for a
    /// tautology.
    fn canon(&mut self, lits: &[Lit]) -> bool {
        self.scratch.clear();
        self.scratch.extend_from_slice(lits);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        !self.scratch.windows(2).any(|w| w[0] == !w[1])
    }

    /// Unit propagation from trail position `from` to fixpoint, core first:
    /// inputs and marked lemmas run to fixpoint before any unmarked lemma
    /// may propagate one literal's worth.
    fn propagate(&mut self, from: usize) -> Option<Conflict> {
        let (mut core, mut rest) = (from, from);
        loop {
            if core < self.trail.len() {
                let p = self.trail[core];
                core += 1;
                if let Some(c) = self.visit(p, true) {
                    return Some(c);
                }
            } else if rest < self.trail.len() {
                let p = self.trail[rest];
                rest += 1;
                if let Some(c) = self.visit(p, false) {
                    return Some(c);
                }
            } else {
                return None;
            }
        }
    }

    /// Visits the clauses (of the given pass) watching `¬p`, and in the
    /// core pass the PB constraints containing `¬p`.
    fn visit(&mut self, p: Lit, core: bool) -> Option<Conflict> {
        let fw = !p; // the literal that just became false
        let neg = fw.index();
        let mut i = 0;
        while i < self.watches[neg].len() {
            let c = self.watches[neg][i];
            if self.flags[c as usize] & ACTIVE == 0 {
                self.watches[neg].swap_remove(i);
                continue;
            }
            if self.is_core(c) != core {
                i += 1;
                continue;
            }
            let r = self.clause(c);
            if self.lits[r.start] == fw {
                self.lits.swap(r.start, r.start + 1);
            }
            if self.lits[r.start + 1] != fw {
                // Stale: the watch moved on (or a re-activation duplicated it).
                self.watches[neg].swap_remove(i);
                continue;
            }
            let w0 = self.lits[r.start];
            if self.value(w0) == LBool::True {
                i += 1;
                continue;
            }
            let repl = (r.start + 2..r.end).find(|&k| self.value(self.lits[k]) != LBool::False);
            if let Some(k) = repl {
                self.lits.swap(r.start + 1, k);
                let nw = self.lits[r.start + 1];
                self.watches[neg].swap_remove(i);
                self.watches[nw.index()].push(c);
                continue;
            }
            // Every other literal is false: unit on w0, or conflict.
            if self.value(w0) == LBool::False {
                return Some(Conflict::Clause(c));
            }
            self.assign(w0, Reason::Clause(c));
            i += 1;
        }
        if !core {
            return None;
        }
        // PB constraints in which ¬p just became false: `assign` already
        // lowered the slack; detect violation and force every literal whose
        // coefficient exceeds what is left.
        for j in 0..self.pb_occ[neg].len() {
            let pi = self.pb_occ[neg][j].0;
            let pb = &self.pbs[pi as usize];
            if !pb.active {
                continue;
            }
            let slack = pb.slack;
            if slack < 0 {
                return Some(Conflict::Pb(pi));
            }
            if pb.max_coef as i64 > slack {
                let (lits, coefs) = (pb.lits, pb.coefs);
                for (&l, &c) in lits.iter().zip(coefs) {
                    if c as i64 > slack && self.value(l) == LBool::Undef {
                        self.assign(l, Reason::Pb(pi));
                    }
                }
            }
        }
        None
    }

    /// Forward pass: installs a clause and propagates its root-level
    /// consequences. Returns its id, or `NONE` for a tautology (which can
    /// never propagate).
    ///
    /// Watch choice: two non-false literals when the clause has them (the
    /// only case where it can still propagate); otherwise it is satisfied,
    /// unit or conflicting at root, and the non-false literal (if any)
    /// goes first.
    fn add_clause(&mut self, lits: &[Lit], lemma: bool, index: &mut ClauseIndex) -> u32 {
        if !self.canon(lits) {
            return NONE;
        }
        let c = offset(self.flags.len());
        let h = clause_hash(&self.scratch);
        index.next.push(index.head.insert(h, c).unwrap_or(NONE));
        let s = self.lits.len();
        self.lits.extend_from_slice(&self.scratch);
        self.start.push(offset(self.lits.len()));
        self.flags.push(if lemma { ACTIVE | LEMMA } else { ACTIVE });
        let (mut sat, mut n, mut unit) = (false, 0, None);
        for k in s..self.lits.len() {
            let l = self.lits[k];
            match self.value(l) {
                LBool::True => sat = true,
                LBool::Undef => unit = Some(l),
                LBool::False => continue,
            }
            if n < 2 {
                self.lits.swap(s + n, k);
            }
            n += 1;
        }
        if self.lits.len() - s >= 2 {
            self.watches[self.lits[s].index()].push(c);
            self.watches[self.lits[s + 1].index()].push(c);
        }
        if self.conflict.is_some() || sat || n > 1 {
            return c;
        }
        match unit {
            None => self.conflict = Some(Conflict::Clause(c)),
            Some(l) => {
                let from = self.trail.len();
                self.assign(l, Reason::Clause(c));
                self.conflict = self.propagate(from);
            }
        }
        c
    }

    /// Forward pass: installs a PB constraint and propagates what it forces.
    fn add_pb(&mut self, lits: &'a [Lit], coefs: &'a [u64], bound: u64) -> u32 {
        let id = offset(self.pbs.len());
        let total: i64 = coefs.iter().map(|&c| c as i64).sum();
        let mut slack = total - bound as i64;
        for (&l, &c) in lits.iter().zip(coefs) {
            self.pb_occ[l.index()].push((id, c));
            if self.value(l) == LBool::False {
                slack -= c as i64;
            }
        }
        let max_coef = coefs.iter().copied().max().unwrap_or(0);
        self.pbs.push(Pb {
            lits,
            coefs,
            slack,
            max_coef,
            active: true,
        });
        if self.conflict.is_some() {
            return id;
        }
        if slack < 0 {
            self.conflict = Some(Conflict::Pb(id));
        } else if max_coef as i64 > slack {
            let from = self.trail.len();
            for (&l, &c) in lits.iter().zip(coefs) {
                if c as i64 > slack && self.value(l) == LBool::Undef {
                    self.assign(l, Reason::Pb(id));
                }
            }
            self.conflict = self.propagate(from);
        }
        id
    }

    /// Forward pass: deactivates one active clause with the literal set of
    /// `lits`; `NONE` when there is none.
    fn delete(&mut self, lits: &[Lit], index: &mut ClauseIndex) -> u32 {
        if !self.canon(lits) {
            return NONE;
        }
        let h = clause_hash(&self.scratch);
        let Some(&first) = index.head.get(&h) else {
            return NONE;
        };
        self.epoch += 1;
        for &l in &self.scratch {
            self.stamp[l.index()] = self.epoch;
        }
        let (mut prev, mut c) = (NONE, first);
        while c != NONE {
            let r = self.clause(c);
            if r.len() == self.scratch.len()
                && self.lits[r]
                    .iter()
                    .all(|l| self.stamp[l.index()] == self.epoch)
            {
                let after = index.next[c as usize];
                if prev != NONE {
                    index.next[prev as usize] = after;
                } else if after == NONE {
                    index.head.remove(&h);
                } else {
                    index.head.insert(h, after);
                }
                self.flags[c as usize] &= !ACTIVE;
                return c;
            }
            (prev, c) = (c, index.next[c as usize]);
        }
        NONE
    }

    /// Backward pass: reverts one step's effect on the active formula (the
    /// caller truncates the trail).
    fn undo_step(&mut self, kind: Kind, id: u32) {
        if id == NONE {
            return;
        }
        match kind {
            Kind::InputClause | Kind::Add => self.flags[id as usize] &= !ACTIVE,
            Kind::InputPb => self.pbs[id as usize].active = false,
            Kind::Delete => {
                self.flags[id as usize] |= ACTIVE;
                let r = self.clause(id);
                if r.len() >= 2 {
                    self.watches[self.lits[r.start].index()].push(id);
                    self.watches[self.lits[r.start + 1].index()].push(id);
                }
            }
        }
    }

    fn prove_lemma(&mut self, c: u32) -> bool {
        let mut clause = std::mem::take(&mut self.scratch);
        clause.clear();
        clause.extend_from_slice(&self.lits[self.clause(c)]);
        let ok = self.prove(&clause);
        self.scratch = clause;
        ok
    }

    /// RUP-checks `lits` against the active formula and marks the clauses
    /// its refutation used. Leaves the root state untouched.
    fn prove(&mut self, lits: &[Lit]) -> bool {
        let mark = self.trail.len();
        let conflict = self.conflict.or_else(|| self.refute(lits, mark));
        if let Some(c) = conflict {
            self.analyze(c, mark);
        }
        self.undo_to(mark);
        conflict.is_some()
    }

    /// Asserts the negation of `lits` and propagates.
    fn refute(&mut self, lits: &[Lit], mark: usize) -> Option<Conflict> {
        for &l in lits {
            match self.value(l) {
                LBool::True => return Some(Conflict::Satisfied(l)),
                LBool::False => {}
                LBool::Undef => self.assign(!l, Reason::Assumed),
            }
        }
        self.propagate(mark)
    }

    /// Marks every lemma the conflict depends on: the probe's implication
    /// graph is walked back from the conflict, then the reasons of the root
    /// facts it rests on, each root fact once over the whole backward pass.
    fn analyze(&mut self, conflict: Conflict, mark: usize) {
        match conflict {
            Conflict::Clause(c) => self.explain_clause(c, usize::MAX, mark),
            Conflict::Pb(p) => self.explain_pb(p, u32::MAX, mark),
            Conflict::Satisfied(l) => self.note(!l, mark),
        }
        for i in (mark..self.trail.len()).rev() {
            let v = self.trail[i].var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                Reason::Clause(c) => self.explain_clause(c, v, mark),
                Reason::Pb(p) => self.explain_pb(p, i as u32, mark),
                Reason::Assumed => {}
            }
        }
        while let Some(v) = self.pending.pop() {
            match self.reason[v] {
                Reason::Clause(c) => self.explain_clause(c, v, mark),
                Reason::Pb(p) => self.explain_pb(p, self.pos[v], mark),
                Reason::Assumed => unreachable!("root facts always have a reason"),
            }
        }
    }

    /// A false literal a conflict or a propagation rests on.
    fn note(&mut self, l: Lit, mark: usize) {
        let v = l.var().index();
        if self.pos[v] as usize >= mark {
            self.seen[v] = true;
        } else if !self.justified[v] {
            self.justified[v] = true;
            self.pending.push(v);
        }
    }

    /// Marks clause `c` (the reason for variable `implied`, or the
    /// conflict) and notes its false literals.
    fn explain_clause(&mut self, c: u32, implied: usize, mark: usize) {
        let f = &mut self.flags[c as usize];
        if *f & (LEMMA | CORE) == LEMMA {
            *f |= CORE;
            self.unchecked += 1;
        }
        for k in self.clause(c) {
            let l = self.lits[k];
            if l.var().index() != implied {
                self.note(l, mark);
            }
        }
    }

    /// Notes the false literals of PB `p` assigned before trail position
    /// `before` — the ones whose lost slack forced the propagation (or, for
    /// a conflict, all of them).
    fn explain_pb(&mut self, p: u32, before: u32, mark: usize) {
        let lits = self.pbs[p as usize].lits;
        for &l in lits {
            if self.value(l) == LBool::False && self.pos[l.var().index()] < before {
                self.note(l, mark);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn l(i: i32) -> Lit {
        let v = Var::from_index((i.unsigned_abs() - 1) as usize);
        if i > 0 {
            v.positive()
        } else {
            v.negative()
        }
    }

    fn cl(ls: &[i32]) -> Vec<Lit> {
        ls.iter().map(|&i| l(i)).collect()
    }

    fn check(log: &ProofLog, claims: &[(&[Lit], usize)]) -> Result<CheckedProof, CheckError> {
        let claims: Vec<Claim> = claims
            .iter()
            .map(|&(clause, step)| Claim { clause, step })
            .collect();
        check_proof(log, &claims)
    }

    #[test]
    fn accepts_valid_rup_chain() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ⊢ (x2) by RUP; then (¬x2) makes it UNSAT.
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2]));
        log.input_clause(&cl(&[-1, 2]));
        log.add(&cl(&[2]));
        log.input_clause(&cl(&[-2]));
        log.add(&[]);
        let checked = check(&log, &[(&[], 5), (&cl(&[2]), 3)]).expect("valid proof");
        assert_eq!(checked.inputs, 3);
        // The root conflict arises at the (¬x2) input, so the trailing
        // empty clause is outside the core.
        assert_eq!(checked.adds_verified, 1);
        assert_eq!(checked.adds_skipped, 1);
    }

    #[test]
    fn rejects_non_rup_addition() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2]));
        log.add(&cl(&[1])); // not implied by UP
        match check(&log, &[(&cl(&[1]), 2)]) {
            Err(CheckError::RupFailed { step, .. }) => assert_eq!(step, 1),
            other => panic!("expected RUP failure, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_core_lemma_is_rejected_at_its_step() {
        // (x1 ∨ x2), (¬x1 ∨ x2), (x1 ∨ ¬x2), (¬x1 ∨ ¬x2) is UNSAT; the
        // lemma (x2) is RUP but (x1) — the corrupted copy — is not, and the
        // empty clause needs it.
        let mut log = ProofLog::new();
        for c in [[1, 2], [-1, 2], [1, -2], [-1, -2]] {
            log.input_clause(&cl(&c));
        }
        log.add(&cl(&[2]));
        log.add(&[]);
        check(&log, &[(&[], 6)]).expect("sound refutation");
        let mut bad = ProofLog::new();
        for c in [[1, 2], [-1, 2], [1, -2]] {
            bad.input_clause(&cl(&c));
        }
        bad.add(&cl(&[-1])); // not RUP: asserting x1 propagates x2, no conflict
        bad.input_clause(&cl(&[-1, -2]));
        bad.add(&[]);
        match check(&bad, &[(&[], 6)]) {
            Err(CheckError::RupFailed { step, clause }) => {
                assert_eq!(step, 3);
                assert_eq!(clause, cl(&[-1]));
            }
            other => panic!("expected the corrupted lemma to fail, got {other:?}"),
        }
    }

    #[test]
    fn non_rup_lemma_outside_the_core_is_skipped_and_counted() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2]));
        log.add(&cl(&[3])); // not RUP, but no claim needs it
        log.input_clause(&cl(&[-1, 2]));
        let checked = check(&log, &[(&cl(&[2]), 3)]).expect("claim holds without (x3)");
        assert_eq!(checked.adds_verified, 0);
        assert_eq!(checked.adds_skipped, 1);
    }

    #[test]
    fn deletion_weakens_the_formula() {
        // After deleting (¬x1 ∨ x2), the unit (x2) is no longer RUP.
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2]));
        log.input_clause(&cl(&[-1, 2]));
        log.delete(&cl(&[-1, 2]));
        log.add(&cl(&[2]));
        match check(&log, &[(&cl(&[2]), 4)]) {
            Err(CheckError::RupFailed { step, .. }) => assert_eq!(step, 3),
            other => panic!("expected RUP failure, got {other:?}"),
        }
    }

    #[test]
    fn deleted_clause_serves_lemmas_before_its_deletion_only() {
        // (x2 ∨ x3) is RUP from (x1 ∨ x2 ∨ x3) and (¬x1 ∨ x2 ∨ x3). The
        // second parent is deleted between two copies of the lemma. A claim
        // anchored after the deletion rests on the first copy, whose check
        // needs the parent re-activated by the backward pass; the second
        // copy's check must not see it.
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2, 3]));
        log.input_clause(&cl(&[-1, 2, 3]));
        log.add(&cl(&[2, 3]));
        log.delete(&cl(&[-1, 2, 3]));
        log.delete(&cl(&[2, 3]));
        log.add(&cl(&[2, 3]));
        let early = check(&log, &[(&cl(&[2, 3]), 4)]).expect("parent re-activated");
        assert_eq!(early.adds_verified, 1);
        assert_eq!(early.deletions, 2);
        match check(&log, &[(&cl(&[2, 3]), 6)]) {
            Err(CheckError::RupFailed { step, .. }) => assert_eq!(step, 5),
            other => panic!("expected the late copy to fail, got {other:?}"),
        }
    }

    #[test]
    fn claims_are_checked_at_their_anchor() {
        // (x2) becomes an input at step 1: anchored before it, the claim
        // is not implied; anchored after it, it is.
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2]));
        log.input_clause(&cl(&[2]));
        check(&log, &[(&cl(&[2]), 2)]).expect("implied after the input");
        assert!(matches!(
            check(&log, &[(&cl(&[2]), 2), (&cl(&[2]), 1)]),
            Err(CheckError::ClaimUnproved { claim: 1 })
        ));
        assert!(matches!(
            check(&log, &[(&cl(&[2]), 3)]),
            Err(CheckError::ClaimUnproved { claim: 0 })
        ));
    }

    #[test]
    fn unknown_deletion_is_ignored() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, 2]));
        log.delete(&cl(&[3, 4]));
        let checked = check(&log, &[]).expect("lenient deletes");
        assert_eq!(checked.deletions, 0);
        assert_eq!(checked.ignored_deletions, 1);
    }

    #[test]
    fn pb_counter_propagation_in_rup() {
        // 2·x1 + 1·x2 + 1·x3 ≥ 3 forces x1 once either x2 or x3 is false:
        // the clause (x2 ∨ x1) is RUP only through the PB constraint.
        let mut log = ProofLog::new();
        log.input_pb(&cl(&[1, 2, 3]), &[2, 1, 1], 3);
        log.add(&cl(&[2, 1]));
        let checked = check(&log, &[(&cl(&[1, 2]), 2)]).expect("PB-aware RUP");
        assert_eq!(checked.adds_verified, 0, "the PB alone refutes the claim");
        assert!(matches!(
            check(&log, &[(&[], 2)]),
            Err(CheckError::ClaimUnproved { claim: 0 })
        ));
    }

    #[test]
    fn pb_reason_marks_the_clauses_behind_its_false_literals() {
        // The lemma (¬x2) makes x2 false; b + c ≥ 1 then forces x3, and
        // (¬x3 ∨ ¬x1) forces ¬x1. Proving the claim (¬x1) must follow the
        // PB reason of x3 to its false literal x2 and mark the lemma.
        let build = |sound: bool| {
            let mut log = ProofLog::new();
            log.input_clause(&cl(&[-2, 4]));
            if sound {
                log.input_clause(&cl(&[-2, -4]));
            }
            log.add(&cl(&[-2]));
            log.input_pb(&cl(&[2, 3]), &[1, 1], 1);
            log.input_clause(&cl(&[-3, -1]));
            log
        };
        let log = build(true);
        let checked = check(&log, &[(&cl(&[-1]), log.len())]).expect("sound");
        assert_eq!(checked.adds_verified, 1);
        let log = build(false);
        match check(&log, &[(&cl(&[-1]), log.len())]) {
            Err(CheckError::RupFailed { step, .. }) => assert_eq!(step, 1),
            other => panic!("the lemma behind the PB reason must be checked, got {other:?}"),
        }
    }

    #[test]
    fn pb_violation_detected() {
        // x1 + x2 ≥ 2 with ¬x1 as input is UNSAT at root.
        let mut log = ProofLog::new();
        log.input_pb(&cl(&[1, 2]), &[1, 1], 2);
        log.input_clause(&cl(&[-1]));
        check(&log, &[(&[], 2)]).expect("unsat at root");
        assert!(check(&log, &[(&[], 1)]).is_err(), "not before the unit");
    }

    #[test]
    fn unsat_subsumes_any_claim() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1]));
        log.input_clause(&cl(&[-1]));
        check(&log, &[(&cl(&[7]), 2), (&[], 2)]).expect("anything follows");
    }

    #[test]
    fn satisfied_at_root_is_implied() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1]));
        log.add(&cl(&[1, 2]));
        let checked = check(&log, &[(&cl(&[1, 2]), 2)]).expect("checks");
        assert_eq!(checked.adds_verified, 0);
        check(&log, &[(&cl(&[3, -3]), 0)]).expect("a tautology holds anywhere");
    }

    #[test]
    fn steps_round_trip_through_the_flat_log() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, -2]));
        log.input_pb(&cl(&[1, 2]), &[2, 1], 2);
        log.add(&[]);
        log.delete(&cl(&[3]));
        let steps: Vec<ProofStep> = log.steps().collect();
        assert_eq!(
            steps,
            vec![
                ProofStep::InputClause(&cl(&[1, -2])),
                ProofStep::InputPb {
                    lits: &cl(&[1, 2]),
                    coefs: &[2, 1],
                    bound: 2
                },
                ProofStep::Add(&[]),
                ProofStep::Delete(&cl(&[3])),
            ]
        );
    }

    #[test]
    fn drat_text_roundtrip_format() {
        let mut log = ProofLog::new();
        log.input_clause(&cl(&[1, -2]));
        log.input_pb(&cl(&[1, 2]), &[2, 1], 2);
        log.add(&cl(&[1]));
        log.delete(&cl(&[1, -2]));
        log.add(&[]);
        let mut buf = Vec::new();
        log.write_drat(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec!["i 1 -2 0", "p 2 1 1 2 >= 2 0", "1 0", "d 1 -2 0", "0"]
        );
    }
}
