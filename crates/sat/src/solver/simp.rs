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
    /// working-copy (root-simplified, sorted) form. Emptied on restore.
    pub(crate) clauses: Vec<Vec<Lit>>,
}

/// Working copy of one live input clause during a pass.
struct Pc {
    /// Arena home; `None` for a resolvent created this pass (allocated at
    /// write-back if it survives).
    cref: Option<ClauseRef>,
    lits: Vec<Lit>,
    sig: u64,
    dead: bool,
    /// Dead because its variable was eliminated: the clause moved to the
    /// reconstruction stack and its proof-trace copy is *kept*.
    elim_dead: bool,
    changed: bool,
    /// Last working copy logged into the proof trace. Strengthened copies
    /// are logged the moment they are derived — while both resolution
    /// parents are still present, so the step is RUP — never at write-back,
    /// where the parents may already have been deleted (a subsumer can
    /// itself be strengthened or subsumed).
    logged: Option<Vec<Lit>>,
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
fn live_occs(pcs: &[Pc], occ: &[Vec<u32>], l: Lit, out: &mut Vec<u32>) {
    out.clear();
    out.extend(occ[l.index()].iter().copied().filter(|&i| {
        let p = &pcs[i as usize];
        !p.dead && p.lits.binary_search(&l).is_ok()
    }));
}

/// A clause over `lits` is subsumed, strengthened, eliminated or added:
/// every variable in it must be attempted again.
fn touch(memo: &mut [u64], lits: &[Lit]) {
    for l in lits {
        memo[l.var().index()] = 0;
    }
}

/// Per-pass scratch of the elimination schedule, O(variables).
struct ElimScratch {
    /// `memo[v]`: the budget charge (`|P|·|N| + 1`) of `v`'s last aborted
    /// distribution attempt, or 0 once a clause containing `v` changed
    /// since (see [`touch`]). The abort is a function of the
    /// live occurrence lists alone, so a live memo stands for the attempt.
    memo: Vec<u64>,
    /// Literal marks of the dry run: the positive clause of the current
    /// pair; all clear between attempts.
    mark: Vec<bool>,
    pos: Vec<u32>,
    neg: Vec<u32>,
}

impl ElimScratch {
    fn new(num_vars: usize) -> ElimScratch {
        ElimScratch {
            memo: vec![0; num_vars],
            mark: vec![false; 2 * num_vars],
            pos: Vec::new(),
            neg: Vec::new(),
        }
    }

    /// Dry run of distributing `v`: whether every non-tautological
    /// resolvent of `self.pos × self.neg` has at most `ELIM_MAX_RES_LEN`
    /// literals and there are at most `limit` of them, i.e. whether
    /// building them with [`resolve`] would not abort. Working copies are
    /// sorted, duplicate-free and non-tautological, so with `C` marked a
    /// resolvent is `|C| − 1` literals plus those of `D ∖ {¬v}` not in `C`.
    /// Adds the pairs examined to `pairs`.
    fn distribution_fits(&mut self, pcs: &[Pc], v: Var, limit: usize, pairs: &mut u64) -> bool {
        let mark = &mut self.mark;
        let mut kept = 0usize;
        for &ci in &self.pos {
            let c = &pcs[ci as usize].lits;
            for &l in c {
                mark[l.index()] = true;
            }
            let mut fits = true;
            'neg: for &dj in &self.neg {
                *pairs += 1;
                let mut len = c.len() - 1;
                for &l in pcs[dj as usize].lits.iter().filter(|l| l.var() != v) {
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

/// The resolvent of sorted clauses `c` (containing `v`) and `d` (containing
/// `¬v`) on `v`; `None` if it is a tautology.
fn resolve(c: &[Lit], d: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(c.len() + d.len() - 2);
    out.extend(c.iter().copied().filter(|l| l.var() != v));
    out.extend(d.iter().copied().filter(|l| l.var() != v));
    out.sort_unstable();
    out.dedup();
    // Sorted literal order keeps complements adjacent.
    for w in out.windows(2) {
        if w[1] == !w[0] {
            return None;
        }
    }
    Some(out)
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
            let clauses = std::mem::take(&mut self.elim_stack[gi].clauses);
            for cl in clauses {
                // A stored clause may mention variables eliminated *after*
                // this one (their own stored clauses cannot mention `v`, so
                // the cascade terminates).
                for &l in &cl {
                    if self.eliminated[l.var().index()] {
                        work.push(l.var());
                    }
                }
                self.reinstall_clause(&cl);
                if !self.ok {
                    return;
                }
            }
        }
    }

    /// Re-attaches one stored clause, simplified against the current root
    /// assignment.
    fn reinstall_clause(&mut self, cl: &[Lit]) {
        let mut lits: Vec<Lit> = Vec::with_capacity(cl.len());
        for &l in cl {
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
            'clauses: for cl in &self.elim_stack[gi].clauses {
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

    /// Panics unless the current model satisfies every clause on the live
    /// reconstruction stack — the complement of `debug_check_model` for the
    /// part of the original formula that elimination removed.
    pub(crate) fn debug_check_elim_stack(&self) {
        for (gi, g) in self.elim_stack.iter().enumerate() {
            if self.elim_pos[g.var.index()] != gi as u32 {
                continue;
            }
            for cl in &g.clauses {
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
    /// re-pass (only under `config.elim`; with elimination off the pass is
    /// one-shot, preserving the legacy engine's exact behavior).
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
        debug_assert_eq!(self.decision_level(), 0);
        self.clear_root_reasons();
        self.inputs_since_simplify = 0;

        // Working copies of the live input clauses, simplified against the
        // current root assignment.
        let crefs: Vec<ClauseRef> = self
            .db
            .iter_refs()
            .filter(|&c| !self.db.is_learnt(c))
            .collect();
        let mut pcs: Vec<Pc> = Vec::with_capacity(crefs.len());
        let mut doomed: Vec<ClauseRef> = Vec::new();
        for cref in crefs {
            let orig_len = self.db.len(cref);
            let mut lits: Vec<Lit> = Vec::with_capacity(orig_len);
            let mut satisfied = false;
            for i in 0..orig_len {
                let l = self.db.lits(cref)[i];
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => lits.push(l),
                }
            }
            if satisfied {
                doomed.push(cref);
                self.stats.pp_removed += 1;
                continue;
            }
            match lits.len() {
                // All-false clauses would have conflicted during propagation.
                0 => {
                    self.set_unsat();
                    return;
                }
                1 => {
                    doomed.push(cref);
                    if !self.pp_assign_unit(lits[0]) {
                        return;
                    }
                    continue;
                }
                _ => {}
            }
            lits.sort_unstable();
            let sig = signature(&lits);
            let changed = lits.len() != orig_len;
            pcs.push(Pc {
                cref: Some(cref),
                lits,
                sig,
                dead: false,
                elim_dead: false,
                changed,
                logged: None,
            });
        }

        // Occurrence lists over the copies, by literal index.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars()];
        for (i, pc) in pcs.iter().enumerate() {
            for &l in &pc.lits {
                occ[l.index()].push(i as u32);
            }
        }

        // Assumption variables are frozen for the duration of the pass.
        let mut assumed = vec![false; self.num_vars()];
        for a in assumptions {
            assumed[a.var().index()] = true;
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
        // back into the subsumption worklist, until a fixpoint.
        let mut order: Vec<u32> = (0..pcs.len() as u32).collect();
        order.sort_by_key(|&i| (pcs[i as usize].lits.len(), i));
        let mut worklist: std::collections::VecDeque<u32> = order.into();
        let mut scratch = ElimScratch::new(self.num_vars());
        let mut c_lits: Vec<Lit> = Vec::with_capacity(SUBSUMER_MAX_LEN);
        loop {
            while let Some(ci) = worklist.pop_front() {
                if budget == 0 {
                    break;
                }
                let c_sig = {
                    let c = &pcs[ci as usize];
                    if c.dead || c.lits.len() > SUBSUMER_MAX_LEN {
                        continue;
                    }
                    c_lits.clear();
                    c_lits.extend_from_slice(&c.lits);
                    c.sig
                };
                // Candidates must contain the subsumer's least-occurring
                // literal in either polarity.
                let best = c_lits
                    .iter()
                    .min_by_key(|l| occ[l.index()].len() + occ[(!**l).index()].len())
                    .copied()
                    .unwrap();
                for side in [best, !best] {
                    for &dj in &occ[side.index()] {
                        if dj == ci || pcs[dj as usize].dead {
                            continue;
                        }
                        let d = &pcs[dj as usize];
                        if d.lits.len() < c_lits.len() || c_sig & !d.sig != 0 {
                            continue;
                        }
                        budget = budget.saturating_sub(d.lits.len() as u64);
                        self.stats.subsume_checks += 1;
                        match sub_check(&c_lits, &d.lits) {
                            None => {}
                            Some(None) => {
                                touch(&mut scratch.memo, &d.lits);
                                pcs[dj as usize].dead = true;
                                self.stats.pp_removed += 1;
                            }
                            Some(Some(l)) => {
                                touch(&mut scratch.memo, &d.lits);
                                {
                                    let d = &mut pcs[dj as usize];
                                    d.lits.retain(|&x| x != !l);
                                    d.sig = signature(&d.lits);
                                    d.changed = true;
                                }
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
                                    let d = &mut pcs[dj as usize];
                                    self.proof_log().add(&d.lits);
                                    if let Some(prev) = d.logged.replace(d.lits.clone()) {
                                        self.proof_log().delete(&prev);
                                    }
                                }
                                if pcs[dj as usize].lits.len() == 1 {
                                    let unit = pcs[dj as usize].lits[0];
                                    pcs[dj as usize].dead = true;
                                    if !self.pp_assign_unit(unit) {
                                        return;
                                    }
                                } else {
                                    // A stronger clause subsumes more;
                                    // requeue.
                                    worklist.push_back(dj);
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
            let eliminated = self.elim_sweep(
                &mut pcs,
                &mut occ,
                &mut worklist,
                &assumed,
                &mut elim_budget,
                &mut scratch,
            );
            if !self.ok {
                return;
            }
            if eliminated == 0 {
                break;
            }
        }

        // Write results back into the solver: drop dead clauses, re-allocate
        // strengthened ones (watches must move to the new literal set), and
        // allocate surviving resolvents.
        for cref in doomed {
            if self.config.proof {
                log_of(&mut self.proof).delete(self.db.lits(cref));
            }
            self.detach(cref);
            self.db.delete(cref);
        }
        for pc in &pcs {
            if pc.elim_dead {
                // Moved to the reconstruction stack. The proof-trace copy is
                // kept on purpose: the checker propagating through it only
                // strengthens later RUP checks, and restoration needs no
                // re-derivation.
                if let Some(cref) = pc.cref {
                    self.detach(cref);
                    self.db.delete(cref);
                }
                continue;
            }
            if pc.dead {
                if self.config.proof {
                    let log = log_of(&mut self.proof);
                    if let Some(cref) = pc.cref {
                        log.delete(self.db.lits(cref));
                    }
                    // Drop the logged working copy too (units stay: they
                    // carry a root fact).
                    if let Some(lg) = &pc.logged {
                        if lg.len() > 1 {
                            log.delete(lg);
                        }
                    }
                }
                if let Some(cref) = pc.cref {
                    self.detach(cref);
                    self.db.delete(cref);
                }
                continue;
            }
            if !pc.changed && pc.cref.is_some() {
                continue;
            }
            // Re-simplify against the final root assignment so the new
            // clause's watched literals are all unassigned.
            let mut lits: Vec<Lit> = Vec::with_capacity(pc.lits.len());
            let mut satisfied = false;
            for &l in &pc.lits {
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => lits.push(l),
                }
            }
            // Proof: strengthened copies and resolvents were already logged
            // when derived. Here only root-simplification remains: the final
            // clause is the last copy minus root-false literals, which is
            // RUP through the persistent root facts. Log it before deleting
            // the original and the superseded copy.
            if self.config.proof {
                let already = pc.logged.as_deref() == Some(&lits[..]);
                let log = log_of(&mut self.proof);
                if !satisfied && !lits.is_empty() && !already {
                    log.add(&lits);
                }
                if let Some(cref) = pc.cref {
                    log.delete(self.db.lits(cref));
                }
                if let Some(lg) = &pc.logged {
                    if !already {
                        log.delete(lg);
                    }
                }
            }
            if let Some(cref) = pc.cref {
                self.detach(cref);
                self.db.delete(cref);
            }
            if satisfied {
                continue;
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
                    let cref = self.db.alloc(&lits, false);
                    self.attach(cref);
                }
            }
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
    /// to `pcs`/`occ` and queued on the subsumption worklist.
    ///
    /// A candidate whose last attempt aborted and none of whose clauses
    /// changed since is not attempted again: it is charged the remembered
    /// cost, so the budget, and with it every decision, is the same as if
    /// the attempt had run.
    fn elim_sweep(
        &mut self,
        pcs: &mut Vec<Pc>,
        occ: &mut [Vec<u32>],
        worklist: &mut std::collections::VecDeque<u32>,
        assumed: &[bool],
        elim_budget: &mut u64,
        scratch: &mut ElimScratch,
    ) -> usize {
        // Cheapest variables first (fewest occurrences — stale entries make
        // this an upper bound, good enough for ordering), ties by index.
        let mut cands: Vec<(usize, usize)> = Vec::new();
        for (vi, &asm) in assumed.iter().enumerate() {
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
            let est = occ[v.positive().index()].len() + occ[v.negative().index()].len();
            if est == 0 || est > ELIM_MAX_OCC {
                continue;
            }
            cands.push((est, vi));
        }
        cands.sort_unstable();

        let mut eliminated_now = 0usize;
        for (_, vi) in cands {
            if *elim_budget == 0 {
                break;
            }
            let v = Var::from_index(vi);
            // A unit derived earlier in this sweep may have assigned it.
            if self.value_var(v) != LBool::Undef || self.eliminated[vi] {
                continue;
            }
            if scratch.memo[vi] != 0 {
                *elim_budget = elim_budget.saturating_sub(scratch.memo[vi]);
                continue;
            }
            live_occs(pcs, occ, v.positive(), &mut scratch.pos);
            live_occs(pcs, occ, v.negative(), &mut scratch.neg);
            let total = scratch.pos.len() + scratch.neg.len();
            if total == 0 || total > ELIM_MAX_OCC {
                continue;
            }
            let cost = (scratch.pos.len() * scratch.neg.len()) as u64 + 1;
            *elim_budget = elim_budget.saturating_sub(cost);
            self.stats.elim_attempts += 1;
            // Distribute: all non-tautological resolvents, under the growth
            // cutoff. An empty polarity (pure literal) yields none. The dry
            // run decides; resolvents are built only for a commit.
            let limit = total + ELIM_GROW;
            if !scratch.distribution_fits(pcs, v, limit, &mut self.stats.elim_pairs) {
                scratch.memo[vi] = cost;
                continue;
            }
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            for &ci in &scratch.pos {
                for &dj in &scratch.neg {
                    resolvents.extend(resolve(&pcs[ci as usize].lits, &pcs[dj as usize].lits, v));
                }
            }
            // Commit: clauses move to the reconstruction stack, resolvents
            // join the working set.
            let mut group = ElimGroup {
                var: v,
                clauses: Vec::with_capacity(total),
            };
            for &i in scratch.pos.iter().chain(scratch.neg.iter()) {
                let pc = &mut pcs[i as usize];
                pc.dead = true;
                pc.elim_dead = true;
                // A dead copy is never read again.
                let lits = std::mem::take(&mut pc.lits);
                touch(&mut scratch.memo, &lits);
                group.clauses.push(lits);
                self.stats.elim_clauses += 1;
            }
            self.stats.elim_vars += 1;
            self.stats.elim_stack_depth += 1;
            self.eliminated[vi] = true;
            self.elim_pos[vi] = self.elim_stack.len() as u32;
            self.elim_stack.push(group);
            eliminated_now += 1;
            for r in resolvents {
                self.stats.elim_resolvents += 1;
                touch(&mut scratch.memo, &r);
                // Proof: RUP while both parents are in the trace — assert
                // the negation, one parent becomes unit on the pivot, the
                // other conflicts.
                if r.len() == 1 {
                    // `pp_assign_unit` logs the addition itself.
                    if !self.pp_assign_unit(r[0]) {
                        return eliminated_now;
                    }
                    continue;
                }
                if self.config.proof {
                    self.proof_log().add(&r);
                }
                let sig = signature(&r);
                let idx = pcs.len() as u32;
                for &l in &r {
                    occ[l.index()].push(idx);
                }
                worklist.push_back(idx);
                pcs.push(Pc {
                    cref: None,
                    logged: self.config.proof.then(|| r.clone()),
                    lits: r,
                    sig,
                    dead: false,
                    elim_dead: false,
                    changed: false,
                });
            }
        }
        eliminated_now
    }
}
