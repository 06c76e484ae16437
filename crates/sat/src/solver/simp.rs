//! Occurrence-list simplification: subsumption, self-subsuming resolution
//! and bounded variable elimination (BVE), with a freeze/melt protocol and
//! model reconstruction.
//!
//! The pass runs at level 0, over the *input* clauses only (learned clauses
//! are never scanned — they are implied, so every rewrite here stays sound
//! with them attached). It executes at the first `solve` call and, when
//! [`SolverConfig::elim`](super::SolverConfig::elim) is on, again as bounded
//! inprocessing once enough new input clauses accumulated between
//! incremental `solve` calls.
//!
//! **Variable elimination** is SatELite-style clause distribution: a
//! variable `x` with positive occurrences `P` and negative occurrences `N`
//! is removed by replacing `P ∪ N` with all non-tautological resolvents
//! `P × N`, accepted only under the standard growth cutoff (no more
//! resolvents than clauses removed). Pure literals fall out as the `N = ∅`
//! special case. The removed clauses are pushed onto a *reconstruction
//! stack*; [`Solver::extend_model`](super::Solver) replays that stack
//! backwards after every `Sat` verdict, so callers always see a model of the
//! original formula.
//!
//! **Freeze/melt**: frozen variables are never eliminated. Assumption
//! variables are frozen transiently for the duration of a pass, and upper
//! layers pin anything they will reference later (guard literals, cost-bound
//! bits) via [`Solver::freeze_var`](super::Solver). Referencing an
//! eliminated variable anyway — in a new constraint or an assumption — is
//! not an error: the melt-on-reuse path restores it transparently,
//! re-attaching its stored clauses (cascading to anything they mention).
//!
//! **Proof logging**: every resolvent is RUP at the moment it is created —
//! asserting its negation makes one parent propagate the pivot and the
//! other parent conflict — so it is logged as a plain DRAT addition.
//! Clauses removed by *elimination* are deliberately **not** logged as
//! deletions: the proof checker keeps propagating through them, which
//! only strengthens later RUP checks, and restoration then needs no
//! re-derivation. (Clauses removed because they are subsumed or satisfied
//! keep their deletion steps, exactly as before.)

use super::*;
use std::collections::VecDeque;
use std::ops::Range;

/// Re-run the simplification pass (under `config.elim`) once this many new
/// input clauses arrived since the last pass.
const INPROCESS_MIN_NEW: u64 = 64;
/// Growth cutoff: a variable is eliminated only if the number of kept
/// resolvents does not exceed the number of removed clauses by more than
/// this.
const ELIM_GROW: usize = 0;
/// Variables occurring in more than this many clauses (both polarities
/// summed) are never elimination candidates.
const ELIM_MAX_OCC: usize = 40;
/// A resolvent longer than this aborts its variable's elimination.
const ELIM_MAX_RES_LEN: usize = 32;
/// Forward-subsumption step budget: first pass / inprocessing re-pass.
const SUBSUME_BUDGET_FIRST: u64 = 20_000_000;
const SUBSUME_BUDGET_INPROCESS: u64 = 5_000_000;
/// Resolution-pair budget for elimination: first pass / inprocessing.
const ELIM_BUDGET_FIRST: u64 = 2_000_000;
const ELIM_BUDGET_INPROCESS: u64 = 500_000;
/// Subsumers longer than this are not probed against the occurrence lists.
const SUBSUMER_MAX_LEN: usize = 16;

/// Deliberate soundness-fault hook used by the testkit acceptance campaign
/// (`OPTALLOC_TESTKIT_INJECT=skip-elim-restore`): when set, `extend_model`
/// skips the replay of one reconstruction group, silently corrupting the
/// extended model. The paranoid model check must detect the corruption and
/// the shrinker must minimize it. Read once per process; the fuzz binary is
/// spawned with the variable already set.
fn inject_skip_elim_restore() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("OPTALLOC_TESTKIT_INJECT").as_deref() == Ok("skip-elim-restore")
    })
}

/// One eliminated variable: the clauses that mentioned it, captured at
/// elimination time. Replayed backwards for model extension, forwards (per
/// variable) by the melt-on-reuse restore path.
pub(crate) struct ElimGroup {
    pub(crate) var: Var,
    /// Every clause containing the variable when it was eliminated, in
    /// working-copy (root-simplified, sorted) form: indices into the
    /// solver's `elim_ranges`, each a range of `elim_lits`. Emptied on
    /// restore.
    pub(crate) clauses: Range<u32>,
}

/// Working copy of one live input clause during a pass.
struct Pc {
    /// Arena home; `None` for a resolvent created this pass (allocated at
    /// write-back if it survives).
    cref: Option<ClauseRef>,
    /// The copy's literals: `arena[start..start + len]`, sorted.
    start: u32,
    len: u32,
    sig: u64,
    dead: bool,
    /// Dead because its variable was eliminated: the clause moved to the
    /// reconstruction stack and its proof-trace copy is *kept*.
    elim_dead: bool,
    changed: bool,
    /// Last working copy logged into the proof trace, as a range of
    /// `SimpScratch::logged` (only under `config.proof`). Strengthened
    /// copies are logged the moment they are derived — while both
    /// resolution parents are still present, so the step is RUP — never at
    /// write-back, where the parents may already have been deleted (a
    /// subsumer can itself be strengthened or subsumed).
    logged: Option<(u32, u32)>,
}

impl Pc {
    /// The copy's range of the pass arena.
    fn range(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Occurrence lists by literal index: one block, counted then filled, over
/// the copies a pass starts with, and per-literal overflow for the
/// resolvents it adds. A literal's occurrences are its block slice followed
/// by its overflow, i.e. in the order the clauses were added.
#[derive(Default)]
struct Occs {
    /// `start[l]..start[l + 1]` is literal `l`'s slice of `block`.
    start: Vec<u32>,
    block: Vec<u32>,
    extra: Vec<Vec<u32>>,
}

impl Occs {
    fn build(&mut self, num_lits: usize, pcs: &[Pc], arena: &[Lit]) {
        self.start.clear();
        self.start.resize(num_lits + 1, 0);
        for pc in pcs {
            for l in &arena[pc.range()] {
                self.start[l.index() + 1] += 1;
            }
        }
        for i in 1..=num_lits {
            self.start[i] += self.start[i - 1];
        }
        self.block.clear();
        self.block.resize(self.start[num_lits] as usize, 0);
        // Fill with `start[l]` as the cursor (it ends at `l + 1`'s start),
        // then shift the starts back.
        for (i, pc) in pcs.iter().enumerate() {
            for l in &arena[pc.range()] {
                let at = &mut self.start[l.index()];
                self.block[*at as usize] = i as u32;
                *at += 1;
            }
        }
        self.start.copy_within(0..num_lits, 1);
        self.start[0] = 0;
        self.extra.resize_with(num_lits, Vec::new);
        for e in &mut self.extra {
            e.clear();
        }
    }

    fn len(&self, l: Lit) -> usize {
        let i = l.index();
        (self.start[i + 1] - self.start[i]) as usize + self.extra[i].len()
    }

    fn iter(&self, l: Lit) -> impl Iterator<Item = u32> + '_ {
        let i = l.index();
        let block = &self.block[self.start[i] as usize..self.start[i + 1] as usize];
        block.iter().chain(&self.extra[i]).copied()
    }

    fn push(&mut self, l: Lit, pc: u32) {
        self.extra[l.index()].push(pc);
    }
}

/// The working state of one pass. It lives on the solver between passes,
/// so a pass reuses the buffers of the last one: each is cleared at the
/// start of a pass, never shrunk.
#[derive(Default)]
pub(crate) struct SimpScratch {
    /// Literals of every working copy and resolvent of the pass.
    arena: Vec<Lit>,
    pcs: Vec<Pc>,
    /// Proof-logged copies (under `config.proof` only).
    logged: Vec<Lit>,
    occ: Occs,
    worklist: VecDeque<u32>,
    /// Counting-sort buckets of the initial worklist, by clause length.
    by_len: Vec<u32>,
    crefs: Vec<ClauseRef>,
    /// Clauses found satisfied or unit while copying.
    doomed: Vec<ClauseRef>,
    /// Assumption variables, frozen for the duration of the pass.
    assumed: Vec<bool>,
    elim: ElimScratch,
    /// A copy re-simplified at write-back.
    buf: Vec<Lit>,
}

fn signature(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() & 63))
}

/// Returns `Some(None)` if `a ⊆ b`, `Some(Some(l))` if `a∖{l} ⊆ b` with
/// `¬l ∈ b` (self-subsumption resolving on `l`), `None` otherwise. Both
/// inputs are sorted.
fn sub_check(a: &[Lit], b: &[Lit]) -> Option<Option<Lit>> {
    let mut flipped = None;
    for &l in a {
        if b.binary_search(&l).is_ok() {
            continue;
        }
        if flipped.is_none() && b.binary_search(&!l).is_ok() {
            flipped = Some(l);
            continue;
        }
        return None;
    }
    Some(flipped)
}

/// Fills `out` with the indices in `occ[l]` whose clause is live and still
/// contains `l` (strengthening leaves stale entries behind).
fn live_occs(pcs: &[Pc], arena: &[Lit], occ: &Occs, l: Lit, out: &mut Vec<u32>) {
    out.clear();
    out.extend(occ.iter(l).filter(|&i| {
        let p = &pcs[i as usize];
        !p.dead && arena[p.range()].binary_search(&l).is_ok()
    }));
}

/// A clause over `lits` is subsumed, strengthened, eliminated or added:
/// every variable in it must be attempted again.
fn touch(memo: &mut [u64], lits: &[Lit]) {
    for l in lits {
        memo[l.var().index()] = 0;
    }
}

/// Scratch of the elimination schedule, O(variables).
#[derive(Default)]
struct ElimScratch {
    /// `memo[v]`: the budget charge (`|P|·|N| + 1`) of `v`'s last aborted
    /// distribution attempt, or 0 once a clause containing `v` changed
    /// since (see [`touch`]). The abort is a function of the
    /// live occurrence lists alone, so a live memo stands for the attempt.
    memo: Vec<u64>,
    /// Literal marks of the dry run: the positive clause of the current
    /// pair; all clear between attempts.
    mark: Vec<bool>,
    /// Candidates of a sweep as `(estimated occurrences, variable)`.
    cands: Vec<(usize, usize)>,
    pos: Vec<u32>,
    neg: Vec<u32>,
    /// Arena ranges of the resolvents of a committed elimination.
    res: Vec<Range<usize>>,
}

impl ElimScratch {
    /// Clears the per-pass state for `num_vars` variables.
    fn reset(&mut self, num_vars: usize) {
        self.memo.clear();
        self.memo.resize(num_vars, 0);
        self.mark.resize(2 * num_vars, false);
    }

    /// Dry run of distributing `v`: whether every non-tautological
    /// resolvent of `self.pos × self.neg` has at most `ELIM_MAX_RES_LEN`
    /// literals and there are at most `limit` of them, i.e. whether
    /// building them with [`resolve_into`] would not abort. Working copies
    /// are sorted, duplicate-free and non-tautological, so with `C` marked
    /// a resolvent is `|C| − 1` literals plus those of `D ∖ {¬v}` not in
    /// `C`. Adds the pairs examined to `pairs`.
    fn distribution_fits(
        &mut self,
        pcs: &[Pc],
        arena: &[Lit],
        v: Var,
        limit: usize,
        pairs: &mut u64,
    ) -> bool {
        let mark = &mut self.mark;
        let mut kept = 0usize;
        for &ci in &self.pos {
            let c = &arena[pcs[ci as usize].range()];
            for &l in c {
                mark[l.index()] = true;
            }
            let mut fits = true;
            'neg: for &dj in &self.neg {
                *pairs += 1;
                let mut len = c.len() - 1;
                for &l in arena[pcs[dj as usize].range()]
                    .iter()
                    .filter(|l| l.var() != v)
                {
                    if mark[(!l).index()] {
                        continue 'neg; // tautology
                    }
                    len += usize::from(!mark[l.index()]);
                }
                if len > ELIM_MAX_RES_LEN || kept == limit {
                    fits = false;
                    break;
                }
                kept += 1;
            }
            for &l in c {
                mark[l.index()] = false;
            }
            if !fits {
                return false;
            }
        }
        true
    }
}

/// Appends to `arena` the resolvent on `v` of the sorted clauses
/// `arena[c]` (containing `v`) and `arena[d]` (containing `¬v`), merging
/// the two: the result is sorted and duplicate-free — the sequence that
/// sorting and deduplicating both minus `v` gives. Returns its range, or
/// `None`, with `arena` as it was, if it is a tautology.
fn resolve_into(
    arena: &mut Vec<Lit>,
    c: Range<usize>,
    d: Range<usize>,
    v: Var,
) -> Option<Range<usize>> {
    let start = arena.len();
    let (mut i, mut j) = (c.start, d.start);
    loop {
        let next = match (i < c.end, j < d.end) {
            (true, true) if arena[i] <= arena[j] => {
                j += usize::from(arena[i] == arena[j]);
                i += 1;
                arena[i - 1]
            }
            (_, true) => {
                j += 1;
                arena[j - 1]
            }
            (true, false) => {
                i += 1;
                arena[i - 1]
            }
            (false, false) => return Some(start..arena.len()),
        };
        if next.var() == v {
            continue;
        }
        // Sorted literal order keeps duplicates and complements adjacent.
        match arena[start..].last() {
            Some(&last) if last == next => continue,
            Some(&last) if last == !next => {
                arena.truncate(start);
                return None;
            }
            _ => arena.push(next),
        }
    }
}

impl Solver {
    // ------------------------------------------------------------------
    // Freeze/melt API
    // ------------------------------------------------------------------

    /// Protects a variable from elimination. If it was already eliminated,
    /// it is restored first (stored clauses re-attached, model extension no
    /// longer responsible for it). Upper layers freeze anything they will
    /// keep referencing: assumption variables are frozen automatically for
    /// the duration of each pass.
    pub fn freeze_var(&mut self, v: Var) {
        if self.eliminated[v.index()] {
            self.backtrack_to(0);
            self.restore_vars_in(&[v.positive()]);
        }
        self.frozen[v.index()] = true;
    }

    /// Lifts a [`freeze_var`](Self::freeze_var) mark; the variable becomes
    /// an elimination candidate again at the next pass.
    pub fn melt_var(&mut self, v: Var) {
        self.frozen[v.index()] = false;
    }

    /// Whether the variable is currently frozen.
    pub fn is_frozen(&self, v: Var) -> bool {
        self.frozen[v.index()]
    }

    /// Whether the variable is currently eliminated (it occurs in no
    /// attached input clause; its model value comes from reconstruction).
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    /// Number of currently eliminated variables — the live depth of the
    /// model-reconstruction stack.
    pub fn num_eliminated(&self) -> usize {
        self.stats.elim_stack_depth as usize
    }

    // ------------------------------------------------------------------
    // Melt-on-reuse restoration
    // ------------------------------------------------------------------

    /// Restores every eliminated variable appearing in `lits`, cascading
    /// through stored clauses that mention further eliminated variables.
    /// Must run at level 0. Stored clauses re-attach simplified against the
    /// current root assignment; since elimination never removed them from
    /// the proof trace, no proof step is needed (derived units log
    /// themselves through `pp_assign_unit`).
    pub(crate) fn restore_vars_in(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut work: Vec<Var> = lits
            .iter()
            .map(|l| l.var())
            .filter(|v| self.eliminated[v.index()])
            .collect();
        while let Some(v) = work.pop() {
            if !self.eliminated[v.index()] {
                continue;
            }
            let gi = self.elim_pos[v.index()] as usize;
            self.eliminated[v.index()] = false;
            self.elim_pos[v.index()] = u32::MAX;
            self.stats.elim_restored += 1;
            self.stats.elim_stack_depth -= 1;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
            let clauses = &mut self.elim_stack[gi].clauses;
            let range = clauses.clone();
            clauses.end = clauses.start;
            if !range.is_empty() {
                self.elim_dead_clauses += range.len();
                self.elim_dead_lits += (self.elim_ranges[range.end as usize - 1].1
                    - self.elim_ranges[range.start as usize].0)
                    as usize;
            }
            for k in range {
                // A stored clause may mention variables eliminated *after*
                // this one (their own stored clauses cannot mention `v`, so
                // the cascade terminates).
                for &l in self.stored_clause(k) {
                    if self.eliminated[l.var().index()] {
                        work.push(l.var());
                    }
                }
                self.reinstall_clause(k);
                if !self.ok {
                    return;
                }
            }
        }
        self.compact_elim_stack();
    }

    /// Rewrites the reconstruction stack without its restored and stale
    /// groups once those make up more than half of its groups, clauses or
    /// literals, so a solver that melts and re-eliminates over many rounds
    /// keeps the stack bounded by its live part. The live groups keep their
    /// order (extension replays them backwards) and `elim_pos` follows them.
    fn compact_elim_stack(&mut self) {
        let dead_groups = self.elim_stack.len() - self.stats.elim_stack_depth as usize;
        if 2 * dead_groups <= self.elim_stack.len()
            && 2 * self.elim_dead_clauses <= self.elim_ranges.len()
            && 2 * self.elim_dead_lits <= self.elim_lits.len()
        {
            return;
        }
        let (mut groups, mut clauses, mut lits) = (0usize, 0u32, 0u32);
        for gi in 0..self.elim_stack.len() {
            let var = self.elim_stack[gi].var;
            if self.elim_pos[var.index()] != gi as u32 {
                continue;
            }
            let first = clauses;
            for k in self.elim_stack[gi].clauses.clone() {
                let (start, end) = self.elim_ranges[k as usize];
                self.elim_lits
                    .copy_within(start as usize..end as usize, lits as usize);
                self.elim_ranges[clauses as usize] = (lits, lits + end - start);
                lits += end - start;
                clauses += 1;
            }
            self.elim_stack[groups] = ElimGroup {
                var,
                clauses: first..clauses,
            };
            self.elim_pos[var.index()] = groups as u32;
            groups += 1;
        }
        self.elim_stack.truncate(groups);
        self.elim_ranges.truncate(clauses as usize);
        self.elim_lits.truncate(lits as usize);
        self.elim_dead_clauses = 0;
        self.elim_dead_lits = 0;
    }

    /// Re-attaches stored clause `k`, simplified against the current root
    /// assignment.
    fn reinstall_clause(&mut self, k: u32) {
        let mut lits: Vec<Lit> = Vec::new();
        for &l in self.stored_clause(k) {
            match self.value_lit(l) {
                LBool::True => return, // already satisfied at root
                LBool::False => {}
                LBool::Undef => lits.push(l),
            }
        }
        match lits.len() {
            0 => self.set_unsat(),
            1 => {
                let _ = self.pp_assign_unit(lits[0]);
            }
            _ => {
                let cref = self.db.alloc(&lits, false);
                self.attach(cref);
            }
        }
    }

    // ------------------------------------------------------------------
    // Model reconstruction
    // ------------------------------------------------------------------

    /// Extends the model snapshot over eliminated variables by replaying
    /// the reconstruction stack backwards: `x` becomes true iff some stored
    /// clause contains `x` positively and has no other true literal — then
    /// every stored `¬x` clause is satisfied too (its resolvent with the
    /// forcing clause is in the live formula, hence satisfied, or was a
    /// tautology, which satisfies it directly).
    pub(crate) fn extend_model(&mut self) {
        if self.stats.elim_stack_depth == 0 {
            return;
        }
        // Fault-injection hook for the testkit acceptance campaign: skip
        // the replay of one live group, leaving that variable's model value
        // at its saved phase. The paranoid model check must catch this.
        let mut skip_one = inject_skip_elim_restore();
        for gi in (0..self.elim_stack.len()).rev() {
            let var = self.elim_stack[gi].var;
            // Skip restored groups and stale entries of re-eliminated vars.
            if self.elim_pos[var.index()] != gi as u32 {
                continue;
            }
            if skip_one {
                skip_one = false;
                continue;
            }
            let pos = var.positive();
            let mut value = false;
            'clauses: for k in self.elim_stack[gi].clauses.clone() {
                let cl = self.stored_clause(k);
                let mut has_pos = false;
                for &l in cl {
                    if l.var() == var {
                        has_pos |= l == pos;
                        continue;
                    }
                    if self.model[l.var().index()] == l.is_positive() {
                        continue 'clauses; // satisfied without `var`
                    }
                }
                if has_pos {
                    value = true;
                    break;
                }
            }
            self.model[var.index()] = value;
        }
    }

    /// Clause `k` of the reconstruction stack.
    pub(crate) fn stored_clause(&self, k: u32) -> &[Lit] {
        let (start, end) = self.elim_ranges[k as usize];
        &self.elim_lits[start as usize..end as usize]
    }

    /// Panics unless the current model satisfies every clause on the live
    /// reconstruction stack — the complement of `debug_check_model` for the
    /// part of the original formula that elimination removed.
    pub(crate) fn debug_check_elim_stack(&self) {
        for (gi, g) in self.elim_stack.iter().enumerate() {
            if self.elim_pos[g.var.index()] != gi as u32 {
                continue;
            }
            for k in g.clauses.clone() {
                let cl = self.stored_clause(k);
                assert!(
                    cl.iter().any(|&l| self.model_value(l)),
                    "eliminated clause {:?} violated by the extended model",
                    cl
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // The simplification pass
    // ------------------------------------------------------------------

    /// Whether enough new input clauses arrived to warrant an inprocessing
    /// re-pass (only under `config.elim`; with elimination off the pass
    /// runs once, at the first `solve`).
    pub(crate) fn inprocess_due(&self) -> bool {
        self.config.elim && self.inputs_since_simplify >= INPROCESS_MIN_NEW
    }

    /// The occurrence-list simplification pass, at level 0: removes clauses
    /// satisfied by root facts, strips falsified literals, deletes duplicate
    /// and subsumed clauses, applies self-subsuming resolution (if
    /// `C∖{l} ⊆ D` and `¬l ∈ D`, the resolvent strengthens `D` to `D∖{¬l}`),
    /// and — under `config.elim` — eliminates variables by bounded clause
    /// distribution, alternating with subsumption until a fixpoint or
    /// budget exhaustion.
    ///
    /// Every step is equivalence-preserving over the *live* formula w.r.t.
    /// the original one extended through the reconstruction stack, so
    /// assumptions (frozen for the pass), guard literals added later and
    /// incremental reuse all stay sound. PB constraints are left untouched
    /// and any variable occurring in one is ineligible. Iteration follows
    /// arena/occurrence order, so the pass is deterministic.
    pub(crate) fn simplify(&mut self, assumptions: &[Lit], first: bool) {
        let mut sc = std::mem::take(&mut self.simp);
        self.simplify_in(&mut sc, assumptions, first);
        self.simp = sc;
    }

    /// The pass, with its buffers in `sc`. Write-back tombstones
    /// clauses and drops their watches in one sweep, which runs before
    /// anything can propagate or collect garbage: no propagation ever meets
    /// a watch of a tombstoned clause.
    fn simplify_in(&mut self, sc: &mut SimpScratch, assumptions: &[Lit], first: bool) {
        debug_assert_eq!(self.decision_level(), 0);
        self.clear_root_reasons();
        self.inputs_since_simplify = 0;
        let num_vars = self.num_vars();
        sc.arena.clear();
        sc.pcs.clear();
        sc.logged.clear();
        sc.doomed.clear();
        sc.elim.reset(num_vars);

        // Working copies of the live input clauses, simplified against the
        // current root assignment.
        sc.crefs.clear();
        sc.crefs
            .extend(self.db.iter_refs().filter(|&c| !self.db.is_learnt(c)));
        for k in 0..sc.crefs.len() {
            let cref = sc.crefs[k];
            let start = sc.arena.len();
            let mut satisfied = false;
            for &l in self.db.lits(cref) {
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => sc.arena.push(l),
                }
            }
            let len = sc.arena.len() - start;
            if satisfied {
                sc.arena.truncate(start);
                sc.doomed.push(cref);
                self.stats.pp_removed += 1;
                continue;
            }
            match len {
                // All-false clauses would have conflicted during propagation.
                0 => {
                    self.set_unsat();
                    return;
                }
                1 => {
                    let unit = sc.arena[start];
                    sc.arena.truncate(start);
                    sc.doomed.push(cref);
                    if !self.pp_assign_unit(unit) {
                        return;
                    }
                    continue;
                }
                _ => {}
            }
            let lits = &mut sc.arena[start..];
            lits.sort_unstable();
            sc.pcs.push(Pc {
                cref: Some(cref),
                start: start as u32,
                len: len as u32,
                sig: signature(lits),
                dead: false,
                elim_dead: false,
                changed: len != self.db.len(cref),
                logged: None,
            });
        }
        sc.occ.build(2 * num_vars, &sc.pcs, &sc.arena);

        sc.assumed.clear();
        sc.assumed.resize(num_vars, false);
        for a in assumptions {
            sc.assumed[a.var().index()] = true;
        }

        let mut budget: u64 = if first {
            SUBSUME_BUDGET_FIRST
        } else {
            SUBSUME_BUDGET_INPROCESS
        };
        let mut elim_budget: u64 = match (self.config.elim, first) {
            (false, _) => 0,
            (true, true) => ELIM_BUDGET_FIRST,
            (true, false) => ELIM_BUDGET_INPROCESS,
        };

        // Forward subsumption with the short clauses as subsumers, cheapest
        // occurrence list first, bounded by a global step budget; then (with
        // elimination on) a variable-elimination sweep whose resolvents feed
        // back into the subsumption worklist, until a fixpoint. The worklist
        // starts in `(length, index)` order, by counting sort.
        let max_len = sc.pcs.iter().map(|p| p.len as usize).max().unwrap_or(0);
        sc.by_len.clear();
        sc.by_len.resize(max_len + 2, 0);
        for p in &sc.pcs {
            sc.by_len[p.len as usize + 1] += 1;
        }
        for i in 1..sc.by_len.len() {
            sc.by_len[i] += sc.by_len[i - 1];
        }
        sc.worklist.clear();
        sc.worklist.resize(sc.pcs.len(), 0);
        for (i, p) in sc.pcs.iter().enumerate() {
            let at = &mut sc.by_len[p.len as usize];
            sc.worklist[*at as usize] = i as u32;
            *at += 1;
        }
        loop {
            while let Some(ci) = sc.worklist.pop_front() {
                if budget == 0 {
                    break;
                }
                let c = &sc.pcs[ci as usize];
                if c.dead || c.len as usize > SUBSUMER_MAX_LEN {
                    continue;
                }
                let (c_range, c_sig) = (c.range(), c.sig);
                // Candidates must contain the subsumer's least-occurring
                // literal in either polarity.
                let occ = &sc.occ;
                let best = sc.arena[c_range.clone()]
                    .iter()
                    .min_by_key(|l| occ.len(**l) + occ.len(!**l))
                    .copied()
                    .expect("a working copy has at least two literals");
                for side in [best, !best] {
                    for dj in sc.occ.iter(side) {
                        let d = &sc.pcs[dj as usize];
                        if dj == ci || d.dead {
                            continue;
                        }
                        if d.len < c_range.len() as u32 || c_sig & !d.sig != 0 {
                            continue;
                        }
                        budget = budget.saturating_sub(u64::from(d.len));
                        self.stats.subsume_checks += 1;
                        let d_range = d.range();
                        let verdict =
                            sub_check(&sc.arena[c_range.clone()], &sc.arena[d_range.clone()]);
                        match verdict {
                            None => {}
                            Some(None) => {
                                touch(&mut sc.elim.memo, &sc.arena[d_range]);
                                sc.pcs[dj as usize].dead = true;
                                self.stats.pp_removed += 1;
                            }
                            Some(Some(l)) => {
                                touch(&mut sc.elim.memo, &sc.arena[d_range.clone()]);
                                // Remove `¬l` in place.
                                let lits = &mut sc.arena[d_range];
                                let at = lits.binary_search(&!l).expect("sub_check found ¬l in d");
                                lits.copy_within(at + 1.., at);
                                let d = &mut sc.pcs[dj as usize];
                                d.len -= 1;
                                let lits = &sc.arena[d.range()];
                                d.sig = signature(lits);
                                d.changed = true;
                                self.stats.pp_strengthened += 1;
                                // Proof: the new copy is the resolvent of
                                // the current copies of `d` and the
                                // subsumer, both present right now (their
                                // originals are only deleted at write-back,
                                // their own strengthened copies were logged
                                // when derived) — so it is RUP *here*. The
                                // superseded copy is deleted after: it is
                                // subsumed by the new one, so the deletion
                                // never weakens propagation.
                                if self.config.proof {
                                    let log = log_of(&mut self.proof);
                                    log.add(lits);
                                    let at = sc.logged.len();
                                    sc.logged.extend_from_slice(lits);
                                    let new = (at as u32, lits.len() as u32);
                                    if let Some((s, n)) = d.logged.replace(new) {
                                        log.delete(&sc.logged[s as usize..(s + n) as usize]);
                                    }
                                }
                                if lits.len() == 1 {
                                    let unit = lits[0];
                                    d.dead = true;
                                    if !self.pp_assign_unit(unit) {
                                        return;
                                    }
                                } else {
                                    // A stronger clause subsumes more;
                                    // requeue.
                                    sc.worklist.push_back(dj);
                                }
                            }
                        }
                        if budget == 0 {
                            break;
                        }
                    }
                    if budget == 0 {
                        break;
                    }
                }
            }
            if elim_budget == 0 {
                break;
            }
            let eliminated = self.elim_sweep(sc, &mut elim_budget);
            if !self.ok {
                return;
            }
            if eliminated == 0 {
                break;
            }
        }

        // Write results back into the solver: tombstone dead clauses and the
        // originals of strengthened ones, allocate the strengthened copies
        // and surviving resolvents. Watches of tombstoned clauses go in one
        // sweep, before any unit propagates and at the end; the lists come
        // out as a `detach` per clause would leave them.
        let proof = self.config.proof;
        for &cref in &sc.doomed {
            if proof {
                log_of(&mut self.proof).delete(self.db.lits(cref));
            }
            self.db.delete(cref);
        }
        let mut unswept = !sc.doomed.is_empty();
        for pc in &sc.pcs {
            let logged = pc
                .logged
                .map(|(s, n)| &sc.logged[s as usize..(s + n) as usize]);
            if pc.elim_dead {
                // Moved to the reconstruction stack. The proof-trace copy is
                // kept on purpose: the checker propagating through it only
                // strengthens later RUP checks, and restoration needs no
                // re-derivation.
                if let Some(cref) = pc.cref {
                    self.db.delete(cref);
                    unswept = true;
                }
                continue;
            }
            if pc.dead {
                if proof {
                    let log = log_of(&mut self.proof);
                    if let Some(cref) = pc.cref {
                        log.delete(self.db.lits(cref));
                    }
                    // Drop the logged working copy too (units stay: they
                    // carry a root fact).
                    if let Some(lg) = logged {
                        if lg.len() > 1 {
                            log.delete(lg);
                        }
                    }
                }
                if let Some(cref) = pc.cref {
                    self.db.delete(cref);
                    unswept = true;
                }
                continue;
            }
            if !pc.changed && pc.cref.is_some() {
                continue;
            }
            // Re-simplify against the final root assignment so the new
            // clause's watched literals are all unassigned.
            sc.buf.clear();
            let mut satisfied = false;
            for &l in &sc.arena[pc.range()] {
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => sc.buf.push(l),
                }
            }
            let lits = &sc.buf[..];
            // Proof: strengthened copies and resolvents were already logged
            // when derived. Here only root-simplification remains: the final
            // clause is the last copy minus root-false literals, which is
            // RUP through the persistent root facts. Log it before deleting
            // the original and the superseded copy.
            if proof {
                let already = logged == Some(lits);
                let log = log_of(&mut self.proof);
                if !satisfied && !lits.is_empty() && !already {
                    log.add(lits);
                }
                if let Some(cref) = pc.cref {
                    log.delete(self.db.lits(cref));
                }
                if let Some(lg) = logged {
                    if !already {
                        log.delete(lg);
                    }
                }
            }
            if let Some(cref) = pc.cref {
                self.db.delete(cref);
                unswept = true;
            }
            if satisfied {
                continue;
            }
            if lits.len() < 2 && unswept {
                self.sweep_deleted_watches();
                unswept = false;
            }
            match lits.len() {
                0 => {
                    self.set_unsat();
                    return;
                }
                1 => {
                    if !self.pp_assign_unit(lits[0]) {
                        return;
                    }
                }
                _ => {
                    let cref = self.db.alloc(lits, false);
                    self.attach(cref);
                }
            }
        }
        if unswept {
            self.sweep_deleted_watches();
        }
        // Propagation during the pass may have set clause reasons on root
        // facts; clear them again so none points at a deleted clause.
        self.clear_root_reasons();
        if self.db.wasted * 4 > self.db.arena_len() {
            self.garbage_collect();
        }
    }

    /// One bounded-variable-elimination sweep over the working copies.
    /// Returns the number of variables eliminated; resolvents are appended
    /// to the working copies and occurrence lists and queued on the
    /// subsumption worklist.
    ///
    /// A candidate whose last attempt aborted and none of whose clauses
    /// changed since is not attempted again: it is charged the remembered
    /// cost, so the budget, and with it every decision, is the same as if
    /// the attempt had run.
    fn elim_sweep(&mut self, sc: &mut SimpScratch, elim_budget: &mut u64) -> usize {
        // Cheapest variables first (fewest occurrences — stale entries make
        // this an upper bound, good enough for ordering), ties by index.
        let el = &mut sc.elim;
        el.cands.clear();
        for (vi, &asm) in sc.assumed.iter().enumerate() {
            let v = Var::from_index(vi);
            if self.frozen[vi] || self.eliminated[vi] || asm {
                continue;
            }
            if self.value_var(v) != LBool::Undef {
                continue;
            }
            // PB constraints are not distributed over; any PB occurrence
            // disqualifies.
            if !self.pb_occs[v.positive().index()].is_empty()
                || !self.pb_occs[v.negative().index()].is_empty()
            {
                continue;
            }
            let est = sc.occ.len(v.positive()) + sc.occ.len(v.negative());
            if est == 0 || est > ELIM_MAX_OCC {
                continue;
            }
            el.cands.push((est, vi));
        }
        el.cands.sort_unstable();

        let proof = self.config.proof;
        let mut eliminated_now = 0usize;
        for k in 0..el.cands.len() {
            if *elim_budget == 0 {
                break;
            }
            let vi = el.cands[k].1;
            let v = Var::from_index(vi);
            // A unit derived earlier in this sweep may have assigned it.
            if self.value_var(v) != LBool::Undef || self.eliminated[vi] {
                continue;
            }
            if el.memo[vi] != 0 {
                *elim_budget = elim_budget.saturating_sub(el.memo[vi]);
                continue;
            }
            live_occs(&sc.pcs, &sc.arena, &sc.occ, v.positive(), &mut el.pos);
            live_occs(&sc.pcs, &sc.arena, &sc.occ, v.negative(), &mut el.neg);
            let total = el.pos.len() + el.neg.len();
            if total == 0 || total > ELIM_MAX_OCC {
                continue;
            }
            let cost = (el.pos.len() * el.neg.len()) as u64 + 1;
            *elim_budget = elim_budget.saturating_sub(cost);
            self.stats.elim_attempts += 1;
            // Distribute: all non-tautological resolvents, under the growth
            // cutoff. An empty polarity (pure literal) yields none. The dry
            // run decides; resolvents are built only for a commit.
            let limit = total + ELIM_GROW;
            if !el.distribution_fits(&sc.pcs, &sc.arena, v, limit, &mut self.stats.elim_pairs) {
                el.memo[vi] = cost;
                continue;
            }
            el.res.clear();
            for &ci in &el.pos {
                for &dj in &el.neg {
                    let (c, d) = (sc.pcs[ci as usize].range(), sc.pcs[dj as usize].range());
                    el.res.extend(resolve_into(&mut sc.arena, c, d, v));
                }
            }
            // Commit: clauses move to the reconstruction stack, resolvents
            // join the working set.
            let first = self.elim_ranges.len() as u32;
            for &i in el.pos.iter().chain(el.neg.iter()) {
                let pc = &mut sc.pcs[i as usize];
                pc.dead = true;
                pc.elim_dead = true;
                let lits = &sc.arena[pc.range()];
                touch(&mut el.memo, lits);
                let start = self.elim_lits.len() as u32;
                self.elim_lits.extend_from_slice(lits);
                self.elim_ranges.push((start, self.elim_lits.len() as u32));
                self.stats.elim_clauses += 1;
            }
            self.stats.elim_vars += 1;
            self.stats.elim_stack_depth += 1;
            self.eliminated[vi] = true;
            self.elim_pos[vi] = self.elim_stack.len() as u32;
            self.elim_stack.push(ElimGroup {
                var: v,
                clauses: first..self.elim_ranges.len() as u32,
            });
            eliminated_now += 1;
            for r in &el.res {
                let lits = &sc.arena[r.clone()];
                self.stats.elim_resolvents += 1;
                touch(&mut el.memo, lits);
                // Proof: RUP while both parents are in the trace — assert
                // the negation, one parent becomes unit on the pivot, the
                // other conflicts.
                if lits.len() == 1 {
                    // `pp_assign_unit` logs the addition itself.
                    if !self.pp_assign_unit(lits[0]) {
                        return eliminated_now;
                    }
                    continue;
                }
                let idx = sc.pcs.len() as u32;
                for &l in lits {
                    sc.occ.push(l, idx);
                }
                sc.worklist.push_back(idx);
                let logged = proof.then(|| {
                    self.proof_log().add(lits);
                    let at = sc.logged.len() as u32;
                    sc.logged.extend_from_slice(lits);
                    (at, lits.len() as u32)
                });
                sc.pcs.push(Pc {
                    cref: None,
                    start: r.start as u32,
                    len: lits.len() as u32,
                    sig: signature(lits),
                    dead: false,
                    elim_dead: false,
                    changed: false,
                    logged,
                });
            }
        }
        eliminated_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The resolvent as sorting and deduplicating both clauses minus the
    /// pivot gives it, `None` for a tautology.
    fn resolve_by_sort(c: &[Lit], d: &[Lit], v: Var) -> Option<Vec<Lit>> {
        let mut out: Vec<Lit> = c
            .iter()
            .chain(d)
            .copied()
            .filter(|l| l.var() != v)
            .collect();
        out.sort_unstable();
        out.dedup();
        if out.windows(2).any(|w| w[1] == !w[0]) {
            return None;
        }
        Some(out)
    }

    /// A sorted, duplicate-free clause over variables `0..8` containing
    /// `pivot`.
    fn clause_with(pivot: Lit) -> impl Strategy<Value = Vec<Lit>> {
        proptest::collection::vec(0usize..16, 0..8).prop_map(move |idx| {
            let mut c: Vec<Lit> = idx
                .into_iter()
                .map(Lit::from_index)
                .filter(|l| l.var() != pivot.var())
                .chain([pivot])
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        })
    }

    /// A pivot, a clause with it, one with its negation, and how many
    /// unrelated literals precede them in the arena.
    fn arb_pair() -> impl Strategy<Value = (Var, Vec<Lit>, Vec<Lit>, usize)> {
        (0usize..8).prop_flat_map(|vi| {
            let v = Var::from_index(vi);
            (
                Just(v),
                clause_with(v.positive()),
                clause_with(v.negative()),
                0usize..3,
            )
        })
    }

    proptest! {
        #[test]
        fn merge_resolvent_matches_sort_and_dedup(pair in arb_pair()) {
            let (v, c, d, junk) = pair;
            // Parents anywhere in the arena, after unrelated literals.
            let mut arena: Vec<Lit> = (0..junk).map(Lit::from_index).collect();
            let cs = arena.len();
            arena.extend(&c);
            let ds = arena.len();
            arena.extend(&d);
            let before = arena.clone();
            let got = resolve_into(&mut arena, cs..ds, ds..before.len(), v);
            match resolve_by_sort(&c, &d, v) {
                Some(want) => {
                    let r = got.expect("resolvent reported as a tautology");
                    prop_assert_eq!(r.start, before.len());
                    prop_assert_eq!(&arena[r], &want[..]);
                }
                None => {
                    prop_assert!(got.is_none(), "tautology not detected");
                    prop_assert_eq!(arena, before);
                }
            }
        }
    }

    #[test]
    fn merge_resolvent_drops_shared_literals_and_spots_tautologies() {
        let [v, a, b] = [0, 1, 2].map(Var::from_index);
        // (v ∨ a ∨ b) ⊗ (¬v ∨ a) = (a ∨ b)
        let mut arena = vec![
            v.positive(),
            a.positive(),
            b.positive(),
            v.negative(),
            a.positive(),
        ];
        let r = resolve_into(&mut arena, 0..3, 3..5, v).unwrap();
        assert_eq!(&arena[r], &[a.positive(), b.positive()]);
        // (v ∨ a) ⊗ (¬v ∨ ¬a) is a tautology.
        let mut arena = vec![v.positive(), a.positive(), v.negative(), a.negative()];
        assert!(resolve_into(&mut arena, 0..2, 2..4, v).is_none());
        assert_eq!(arena.len(), 4);
    }

    /// Melting and re-eliminating the same gates round after round leaves
    /// restored groups behind on the reconstruction stack: compaction keeps
    /// the stack within twice its live part, and every model (checked in
    /// paranoid mode) still satisfies the clauses elimination removed.
    #[test]
    fn melting_and_re_eliminating_keeps_the_stack_bounded() {
        let mut s = Solver::new();
        s.config.paranoid = true;
        // 64 gates `x ↔ a ∧ b` plus `a ∨ b`: each `x` resolves away with
        // zero resolvents.
        let gates: Vec<[Var; 3]> = (0..64)
            .map(|_| [s.new_var(), s.new_var(), s.new_var()])
            .collect();
        for &[x, a, b] in &gates {
            s.add_clause(&[x.negative(), a.positive()]);
            s.add_clause(&[x.negative(), b.positive()]);
            s.add_clause(&[x.positive(), a.negative(), b.negative()]);
            s.add_clause(&[a.positive(), b.positive()]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let live = s.num_eliminated();
        assert!(gates.iter().all(|g| s.is_eliminated(g[0])));
        let sizes = |s: &Solver| [s.elim_stack.len(), s.elim_ranges.len(), s.elim_lits.len()];
        let first = sizes(&s);
        for round in 0..20 {
            // A duplicate of a gate clause melts its variables back in (64
            // new inputs trigger inprocessing); the pass drops the duplicate
            // and eliminates them again.
            let restored = s.stats.elim_restored;
            for &[x, a, b] in &gates {
                s.add_clause(&[x.positive(), a.negative(), b.negative()]);
            }
            assert!(s.stats.elim_restored >= restored + 64, "round {round}");
            assert_eq!(s.solve(&[]), SolveResult::Sat, "round {round}");
            assert_eq!(s.num_eliminated(), live, "round {round}");
            let now = sizes(&s);
            for i in 0..3 {
                assert!(
                    now[i] <= 2 * first[i],
                    "round {round}: {now:?} vs {first:?}"
                );
            }
        }
    }
}
