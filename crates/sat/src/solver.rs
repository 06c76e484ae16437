//! The CDCL(PB) solver core.
//!
//! A conflict-driven clause-learning SAT solver in the MiniSat lineage,
//! extended with native pseudo-Boolean constraints propagated by the counter
//! method. This is our stand-in for the GOBLIN solver the paper uses: it
//! accepts a conjunction of clauses and linear PB constraints over literals,
//! decides satisfiability, and supports *incremental* solving under
//! assumptions with learned-clause retention — the mechanism behind the
//! paper's §7 observation that reusing learned facts across the binary-search
//! sequence speeds optimization up by a factor of two or more.
//!
//! Feature set:
//! - two-watched-literal clause propagation with blocker literals, with
//!   dedicated binary-implication watch lists walked first,
//! - counter-based PB propagation with on-demand clause explanations,
//! - first-UIP conflict analysis with learned-clause minimization,
//! - EVSIDS variable activities with phase saving,
//! - adaptive (Glucose-style LBD-EMA) restarts with trail blocking and a
//!   geometric conflict-count fallback,
//! - tiered learned-clause database (CORE/TIER2/LOCAL) with arena
//!   compaction,
//! - in-search vivification of kept learned clauses at restart boundaries,
//! - occurrence-list inprocessing: subsumption, self-subsuming resolution
//!   and bounded variable elimination with a freeze/melt protocol and a
//!   reconstruction stack that extends models back to eliminated variables
//!   (see `solver/simp.rs` and the "Inprocessing" section of
//!   `docs/SOLVER.md`),
//! - solving under assumptions; all clauses (input and learned) persist
//!   across `solve` calls.
//!
//! `docs/SOLVER.md` describes each mechanism and its tuning constants.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optalloc_obs::{Obs, Phase, ProgressEvent, ProgressHook, ProgressThrottle, DEFAULT_MS_BUCKETS};

mod paranoid;
mod simp;

use simp::{ElimGroup, SimpScratch};

use crate::clause::{ClauseDb, ClauseRef, Tier};
use crate::drat::ProofLog;
use crate::heap::VarOrderHeap;
use crate::pb::{normalize_ge, to_ge_constraints, Normalized, PbConstraint, PbOp, PbTerm};
use crate::types::{LBool, Lit, Var};

/// Verdict of a [`Solver::solve`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
    /// An external [`SolverConfig::interrupt`] flag was raised mid-search.
    /// All constraints and learned clauses are retained; the solver can be
    /// reused (the flag must be cleared by the owner first).
    Interrupted,
}

/// Why a variable is assigned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Reason {
    /// Decision or unassigned.
    None,
    /// Propagated by a clause (whose first literal is the propagated one).
    Clause(ClauseRef),
    /// Propagated by the PB constraint with this index.
    Pb(u32),
}

/// What raised a conflict during propagation.
#[derive(Copy, Clone, Debug)]
enum Conflict {
    Clause(ClauseRef),
    Pb(u32),
}

#[derive(Copy, Clone)]
struct Watcher {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watch list walk can skip it.
    blocker: Lit,
}

/// Watch-list entry for a binary clause: the other literal is stored inline,
/// so propagating a binary implication never dereferences the arena.
#[derive(Copy, Clone)]
struct BinWatch {
    other: Lit,
    cref: ClauseRef,
}

// Search-engine tuning constants (see docs/SOLVER.md for the rationale).
/// Learned clauses with LBD ≤ this are CORE: kept forever.
const CORE_LBD: u32 = 2;
/// Learned clauses with LBD ≤ this start in TIER2 (`Tier::Mid`).
const MID_LBD: u32 = 6;
/// A TIER2 clause untouched for this many conflicts is demoted to LOCAL.
const TIER_IDLE_CONFLICTS: u64 = 30_000;
/// Conflict interval between tiered reductions starts at
/// `first_reduce / 2` and grows by `reduce_grow`; this is the floor.
const TIER_REDUCE_MIN_INTERVAL: u64 = 100;
/// Fast LBD EMA horizon (Glucose's recent-quality window).
const EMA_FAST_ALPHA: f64 = 1.0 / 32.0;
/// Slow LBD / trail EMA horizon (the long-run baseline).
const EMA_SLOW_ALPHA: f64 = 1.0 / 4096.0;
/// Restart when `fast > K * slow`.
const EMA_RESTART_K: f64 = 1.25;
/// Block a pending restart when the conflict trail is deeper than
/// `R * trail_ema`.
const EMA_BLOCK_R: f64 = 1.4;
/// Minimum conflicts between consecutive EMA restarts.
const EMA_MIN_RESTART_CONFLICTS: u64 = 50;
/// Geometric fallback: whatever the EMAs say, the `k`-th restart of a
/// solver (`SolverStats::restarts` counts them all, from 0) is due once
/// `RESTART_FALLBACK_FIRST × 2^k` conflicts have passed since the previous
/// one. Deciding toward target phases keeps the fast LBD EMA below the
/// slow one on some searches, which would then never restart; a search
/// whose EMAs do fire soon outgrows the fallback.
const RESTART_FALLBACK_FIRST: u64 = 512;
/// Vivification runs at a restart boundary once this many new clauses were
/// learned since the previous pass.
const VIVIFY_MIN_LEARNED: u64 = 2_000;
/// Propagation budget per vivification round.
const VIVIFY_PROP_BUDGET: u64 = 200_000;
/// Multiplicative EVSIDS decay (activity increment grows by `1/decay`).
const VAR_DECAY: f64 = 0.95;
/// Clause activity decay.
const CLAUSE_DECAY: f64 = 0.999;
/// Saved phase of a fresh variable, and the model value of a variable the
/// model never assigned.
const DEFAULT_PHASE: bool = false;

/// Tunable solver parameters.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Twice the conflict interval before the first learned-clause
    /// reduction.
    pub first_reduce: usize,
    /// Growth of the reduction interval after each reduction.
    pub reduce_grow: f64,
    /// Give up (return [`SolveResult::Unknown`]) after this many conflicts
    /// in one `solve` call, if set.
    pub max_conflicts: Option<u64>,
    /// Cooperative cancellation: when the flag becomes true, `solve`
    /// returns [`SolveResult::Interrupted`] at the next conflict or
    /// decision boundary. The solver stays sound and reusable.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Run the level-0 occurrence-list simplification pass
    /// (duplicate/subsumed clause removal and self-subsuming resolution; plus
    /// bounded variable elimination when [`elim`](Self::elim) is on) at the
    /// first `solve` call. Equivalence-preserving, so sound under incremental
    /// reuse and assumptions.
    pub preprocess: bool,
    /// Bounded variable elimination (SatELite-style clause distribution
    /// under a growth cutoff) inside the simplification pass, plus bounded
    /// re-runs of the pass between incremental `solve` calls once enough new
    /// input clauses arrived. Eliminated variables are transparently
    /// restored when referenced again ([`Solver::freeze_var`] opts a
    /// variable out up front) and every model is extended back over them, so
    /// the switch is invisible to callers except in speed.
    pub elim: bool,
    /// Record an extended DRAT trace ([`crate::ProofLog`]) of every input
    /// constraint and every derived clause, retrievable with
    /// [`Solver::take_proof`].
    pub proof: bool,
    /// Checked mode: walk deep solver invariants (watch-list coherence,
    /// trail/level consistency, PB counter sums, learned-DB integrity,
    /// elimination-stack state) at solve entry, every restart boundary and
    /// solve exit, and re-verify every `Sat` model against the full input
    /// formula. Each check is `O(formula)`, so this is for fuzz campaigns
    /// and debugging, not production solving. Defaults to on in debug
    /// builds when the `OPTALLOC_PARANOID` environment variable is set to
    /// `1`/`true`/`on`; settable explicitly in any build.
    pub paranoid: bool,
    /// Observability handle ([`optalloc_obs::Obs`]). Disabled by default;
    /// when enabled, every `solve` call records a `search` span (with
    /// nested `preprocess` spans for simplification/vivification rounds)
    /// and pushes its counter deltas into the metrics registry at solve
    /// exit. The hot search loop itself is never touched: with the handle
    /// disabled the only cost anywhere is a single branch per solve call.
    pub obs: Obs,
    /// Progress-event subscriber. When set, the solver emits a throttled
    /// [`ProgressEvent`] stream from the conflict loop (see
    /// [`progress_every_conflicts`](Self::progress_every_conflicts)); when
    /// `None` — the default — the per-conflict cost is one branch.
    pub progress: Option<ProgressHook>,
    /// Conflicts between progress-event emission checks (the integer-only
    /// fast path of the throttle).
    pub progress_every_conflicts: u64,
    /// Minimum wall-clock milliseconds between emitted progress events.
    pub progress_interval_ms: u64,
    /// Cost window `[lo, hi]` stamped on emitted progress events; the
    /// bisection loop updates it before each probe.
    pub progress_window: Option<(i64, i64)>,
}

/// `true` when the `OPTALLOC_PARANOID` environment variable requests
/// checked-mode solving (read once; see [`SolverConfig::paranoid`]).
pub fn paranoid_env() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        matches!(
            std::env::var("OPTALLOC_PARANOID").as_deref(),
            Ok("1") | Ok("true") | Ok("on") | Ok("yes")
        )
    })
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            first_reduce: 4000,
            reduce_grow: 1.2,
            max_conflicts: None,
            interrupt: None,
            preprocess: true,
            elim: true,
            proof: false,
            paranoid: cfg!(debug_assertions) && paranoid_env(),
            obs: Obs::disabled(),
            progress: None,
            progress_every_conflicts: 2048,
            progress_interval_ms: 50,
            progress_window: None,
        }
    }
}

/// Per-field aggregation rule inside [`define_solver_stats!`]:
/// `counter` adds in `absorb` and subtracts in `delta_since`;
/// `counter_sat` is a counter whose delta saturates at zero;
/// `gauge` sums across cooperating solvers in `absorb` (tier sizes and
/// stack depths add up to the fleet total) but carries its *current* value
/// in `delta_since` (a difference could go negative after a reduction);
/// `max` keeps the worst single solver in `absorb` and the current value
/// in `delta_since`.
macro_rules! stat_absorb {
    (counter, $a:expr, $b:expr) => {
        $a += $b
    };
    (counter_sat, $a:expr, $b:expr) => {
        $a += $b
    };
    (gauge, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}

macro_rules! stat_delta {
    (counter, $a:expr, $b:expr) => {
        $a - $b
    };
    (counter_sat, $a:expr, $b:expr) => {
        $a.saturating_sub($b)
    };
    (gauge, $a:expr, $b:expr) => {
        $a
    };
    (max, $a:expr, $b:expr) => {
        $a
    };
}

/// Converts a stat field to `f64` for metric export (used by
/// [`SolverStats::for_each_metric`]).
trait StatField {
    fn as_metric(&self) -> f64;
}

impl StatField for u64 {
    fn as_metric(&self) -> f64 {
        *self as f64
    }
}

impl StatField for f64 {
    fn as_metric(&self) -> f64 {
        *self
    }
}

/// Declares [`SolverStats`] from a single field list, generating the
/// struct, [`absorb`](SolverStats::absorb),
/// [`delta_since`](SolverStats::delta_since) and
/// [`for_each_metric`](SolverStats::for_each_metric) together so a new
/// counter can never be added to one and silently dropped from the others
/// (the attribution-drift bug this replaces: three hand-maintained
/// field-by-field copies).
macro_rules! define_solver_stats {
    ($( [$kind:ident] $name:ident : $ty:ty = $doc:expr; )+) => {
        /// Execution counters, exposed for the paper's complexity tables.
        #[derive(Default, Clone, Debug)]
        pub struct SolverStats {
            $( #[doc = $doc] pub $name: $ty, )+
        }

        impl SolverStats {
            /// Adds every counter of `other` into `self` — for aggregating
            /// the per-call or per-worker statistics of cooperating
            /// solvers. Gauges sum to the fleet total; peaks take the max.
            pub fn absorb(&mut self, other: &SolverStats) {
                $( stat_absorb!($kind, self.$name, other.$name); )+
            }

            /// The increment since `baseline` (an earlier snapshot of the
            /// same solver's counters) — the inverse of
            /// [`absorb`](Self::absorb) for counters, while gauges carry
            /// their current value. A long-lived solver reused across
            /// requests accumulates counters monotonically; this attributes
            /// the cumulative totals to one request.
            pub fn delta_since(&self, baseline: &SolverStats) -> SolverStats {
                SolverStats {
                    $( $name: stat_delta!($kind, self.$name, baseline.$name), )+
                }
            }

            /// Visits every field as `(name, kind, value)` with kind one of
            /// `"counter"`, `"counter_sat"`, `"gauge"`, `"max"` — the
            /// single source the metrics export walks, so the registry can
            /// never miss a field that exists on the struct.
            pub fn for_each_metric(&self, f: &mut dyn FnMut(&'static str, &'static str, f64)) {
                $( f(stringify!($name), stringify!($kind), StatField::as_metric(&self.$name)); )+
            }
        }
    };
}

define_solver_stats! {
    [counter] decisions: u64 = "Decisions made.";
    [counter] propagations: u64 = "Literals propagated (clause + PB).";
    [counter] conflicts: u64 = "Conflicts analyzed.";
    [counter] restarts: u64 = "Restarts performed.";
    [counter] learned: u64 = "Clauses learned (including units).";
    [counter] deleted: u64 = "Learned clauses deleted by DB reduction.";
    [counter] pb_propagations: u64 = "Propagations caused by PB constraints.";
    [counter] pp_removed: u64 =
        "Input clauses removed by preprocessing (satisfied, duplicate or subsumed).";
    [counter] pp_strengthened: u64 =
        "Literals removed from input clauses by self-subsuming resolution.";
    [counter] pp_fixed: u64 = "Variables fixed at level 0 by preprocessing.";
    [counter] elim_vars: u64 = "Variables removed by bounded variable elimination (cumulative).";
    [counter] elim_clauses: u64 =
        "Input clauses moved onto the reconstruction stack by elimination.";
    [counter] elim_resolvents: u64 = "Resolvents added by clause distribution during elimination.";
    [counter] elim_attempts: u64 =
        "Clause distributions attempted by elimination (a candidate whose clauses are unchanged \
         since its last aborted attempt is not attempted again).";
    [counter] elim_pairs: u64 = "Resolvent pairs examined by elimination's dry-run counting.";
    [counter] subsume_checks: u64 =
        "Subsumption / self-subsumption checks run by the simplification pass.";
    [counter] elim_restored: u64 =
        "Eliminated variables restored because a later constraint, assumption or freeze \
         referenced them (the melt-on-reuse protocol).";
    [gauge] elim_stack_depth: u64 =
        "Variables currently eliminated, i.e. the live depth of the model-reconstruction \
         stack (gauge).";
    [counter] restarts_blocked: u64 = "EMA restarts suppressed by trail-size blocking.";
    [counter] vivified: u64 = "Learned clauses strengthened by in-search vivification.";
    [counter] vivify_lits_removed: u64 =
        "Literals removed from learned clauses by vivification.";
    [gauge] tier_core: u64 = "CORE-tier learned clauses currently retained (gauge).";
    [gauge] tier_mid: u64 = "TIER2 learned clauses currently retained (gauge).";
    [gauge] tier_local: u64 = "LOCAL-tier learned clauses currently retained (gauge).";
    [max] peak_learnts: u64 = "High-water mark of retained learned clauses (gauge).";
    [counter_sat] watch_bytes_reclaimed: u64 =
        "Bytes of watch-list capacity released during garbage collection.";
    [counter] solve_ms: f64 =
        "Wall-clock milliseconds spent inside `solve` calls (search only; encoding time is \
         tracked separately by the callers). Fed from the same stopwatch that records the \
         `search` trace span, so the two can never disagree.";
}

/// CDCL SAT solver with native pseudo-Boolean constraints.
pub struct Solver {
    /// Tunables; adjust before solving.
    pub config: SolverConfig,

    db: ClauseDb,
    pbs: Vec<PbConstraint>,
    /// `pb_occs[lit]` lists `(pb index, coef)` for constraints containing
    /// `lit`; consulted when `lit` becomes false.
    pb_occs: Vec<Vec<(u32, u64)>>,
    /// `watches[lit]` holds clauses to inspect when `lit` becomes **true**
    /// (i.e. clauses watching `¬lit`).
    watches: Vec<Vec<Watcher>>,
    /// Binary clauses, indexed like `watches` but with the implied literal
    /// inline; walked before the long-clause lists.
    bin_watches: Vec<Vec<BinWatch>>,

    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    trail_pos: Vec<u32>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarOrderHeap,
    saved_phase: Vec<bool>,
    /// Target phases (Biere & Fleury, "Chasing target phases", POS 2020):
    /// the values of the longest conflict-free trail prefix seen in this
    /// `solve` call, overwritten by every `Sat` model (so a bisection probe
    /// starts from the last allocation found). `Undef` until a variable is
    /// first captured; a decision prefers it over `saved_phase`.
    target_phase: Vec<LBool>,
    /// Length of the prefix behind `target_phase`: reset to 0 at every
    /// `solve` entry (not at restarts), so a call's first conflict
    /// re-targets while the targets themselves carry over.
    target_len: usize,

    /// Learned clause refs, for DB reduction.
    learnts: Vec<ClauseRef>,
    /// Tiered-DB reduction schedule: next reduction fires at this conflict
    /// count, with the interval growing by `reduce_grow` each time.
    next_reduce: u64,
    reduce_interval: f64,

    // Adaptive-restart state. The EMAs persist across `solve` calls so
    // incremental re-solves keep their calibration.
    lbd_fast: f64,
    lbd_slow: f64,
    trail_ema: f64,
    ema_conflicts: u64,

    /// Clauses learned since the last vivification round.
    learned_since_vivify: u64,

    // Conflict-analysis scratch space.
    seen: Vec<bool>,
    reason_buf: Vec<Lit>,
    lbd_stamps: LevelStamps,

    /// False once an unconditional (level-0) contradiction was derived.
    ok: bool,

    /// Completed model captured at the last `Sat` verdict.
    model: Vec<bool>,

    /// Total literal occurrences over all input constraints (paper's "Lit." column).
    input_literals: u64,
    input_clauses: u64,

    /// Whether the first-solve simplification pass has run.
    preprocessed: bool,

    /// Per-variable freeze marks: frozen variables are never eliminated.
    frozen: Vec<bool>,
    /// Per-variable elimination marks; an eliminated variable occurs in no
    /// attached input clause and is skipped by decision picking.
    eliminated: Vec<bool>,
    /// Clauses removed by each elimination, in elimination order — replayed
    /// backwards to extend models, forwards (per variable) to restore.
    elim_stack: Vec<ElimGroup>,
    /// The reconstruction stack's clauses, flat: clause `k` is
    /// `elim_lits[elim_ranges[k].0..elim_ranges[k].1]`; a group holds a
    /// range of `k`.
    elim_lits: Vec<Lit>,
    elim_ranges: Vec<(u32, u32)>,
    /// `var index → elim_stack position` while eliminated (`u32::MAX`
    /// otherwise); stale stack entries of re-eliminated variables are
    /// recognized by this indirection.
    elim_pos: Vec<u32>,
    /// Clauses and literals of `elim_ranges`/`elim_lits` that belong to
    /// restored groups; `compact_elim_stack` drops them once they pass
    /// half of either.
    elim_dead_clauses: usize,
    elim_dead_lits: usize,
    /// Input clauses added since the last simplification pass; drives the
    /// bounded inprocessing trigger.
    inputs_since_simplify: u64,
    /// Buffers of the simplification pass, reused from pass to pass.
    simp: SimpScratch,

    /// Extended DRAT trace, lazily created when `config.proof` is set.
    proof: Option<ProofLog>,

    /// Rate limiter for the progress stream, lazily created from the config
    /// the first time a hooked solver reaches a conflict.
    progress_throttle: Option<ProgressThrottle>,

    /// Execution counters.
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            config: SolverConfig::default(),
            db: ClauseDb::new(),
            pbs: Vec::new(),
            pb_occs: Vec::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            trail_pos: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarOrderHeap::new(),
            saved_phase: Vec::new(),
            target_phase: Vec::new(),
            target_len: 0,
            learnts: Vec::new(),
            next_reduce: 0,
            reduce_interval: 0.0,
            lbd_fast: 0.0,
            lbd_slow: 0.0,
            trail_ema: 0.0,
            ema_conflicts: 0,
            learned_since_vivify: 0,
            seen: Vec::new(),
            reason_buf: Vec::new(),
            lbd_stamps: LevelStamps::default(),
            ok: true,
            model: Vec::new(),
            input_literals: 0,
            input_clauses: 0,
            preprocessed: false,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_stack: Vec::new(),
            elim_lits: Vec::new(),
            elim_ranges: Vec::new(),
            elim_pos: Vec::new(),
            elim_dead_clauses: 0,
            elim_dead_lits: 0,
            inputs_since_simplify: 0,
            simp: SimpScratch::default(),
            proof: None,
            progress_throttle: None,
            stats: SolverStats::default(),
        }
    }

    /// The proof recorded so far, if `config.proof` is enabled and at least
    /// one constraint was added.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// Takes ownership of the recorded proof, leaving the solver logging
    /// into a fresh (empty) trace from here on.
    pub fn take_proof(&mut self) -> Option<ProofLog> {
        self.proof.take()
    }

    #[inline]
    fn proof_log(&mut self) -> &mut ProofLog {
        log_of(&mut self.proof)
    }

    /// Marks the constraint set unconditionally contradictory, logging the
    /// empty clause (which is RUP at this point: the checker's root-level
    /// closure over the logged steps contains the same conflict).
    fn set_unsat(&mut self) {
        if self.config.proof {
            self.proof_log().add(&[]);
        }
        self.ok = false;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(Reason::None);
        self.trail_pos.push(0);
        self.activity.push(0.0);
        self.saved_phase.push(DEFAULT_PHASE);
        self.target_phase.push(LBool::Undef);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.pb_occs.push(Vec::new());
        self.pb_occs.push(Vec::new());
        self.frozen.push(false);
        self.eliminated.push(false);
        self.elim_pos.push(u32::MAX);
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of problem constraints added (clauses + PB constraints),
    /// excluding learned clauses.
    pub fn num_constraints(&self) -> u64 {
        self.input_clauses
    }

    /// Total literal occurrences over all added constraints — the paper's
    /// "Lit." complexity column.
    pub fn num_literals(&self) -> u64 {
        self.input_literals
    }

    /// `false` once the constraint set is unconditionally contradictory.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    #[inline]
    fn value_var(&self, v: Var) -> LBool {
        self.assigns[v.index()]
    }

    /// Current value of a literal under the partial assignment.
    #[inline]
    pub fn value_lit(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    /// Model value of a literal after a [`SolveResult::Sat`] verdict.
    ///
    /// The model is a snapshot taken when `solve` returned `Sat`; it remains
    /// readable until the next `solve` call.
    pub fn model_value(&self, l: Lit) -> bool {
        let v = self
            .model
            .get(l.var().index())
            .copied()
            .unwrap_or(DEFAULT_PHASE);
        v == l.is_positive()
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    // ------------------------------------------------------------------
    // Adding constraints
    // ------------------------------------------------------------------

    /// Adds a clause (a disjunction of literals). Returns `false` if the
    /// solver detected an unconditional contradiction.
    ///
    /// Must be called at decision level 0 (i.e. outside `solve`).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if !self.ok {
            return false;
        }
        // Melt-on-reuse: a clause over an eliminated variable re-activates
        // it (and, transitively, anything its stored clauses mention) before
        // the new clause constrains it.
        if lits.iter().any(|l| self.eliminated[l.var().index()]) {
            self.restore_vars_in(lits);
            if !self.ok {
                return false;
            }
        }
        if self.config.proof {
            self.proof_log().input_clause(lits);
        }
        let mut cl: Vec<Lit> = lits.to_vec();
        cl.sort_unstable();
        cl.dedup();
        // Tautology / level-0 simplification.
        let mut write = 0;
        for i in 0..cl.len() {
            let l = cl[i];
            if i + 1 < cl.len() && cl[i + 1] == !l {
                return true; // contains l ∨ ¬l
            }
            match self.value_lit(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => {
                    cl[write] = l;
                    write += 1;
                }
            }
        }
        cl.truncate(write);
        self.input_clauses += 1;
        self.input_literals += lits.len() as u64;
        match cl.len() {
            0 => {
                self.set_unsat();
                false
            }
            1 => {
                self.assign(cl[0], Reason::None);
                if self.propagate().is_some() {
                    self.set_unsat();
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&cl, false);
                self.attach(cref);
                self.inputs_since_simplify += 1;
                true
            }
        }
    }

    /// Adds the pseudo-Boolean constraint `Σ terms  op  bound`. Returns
    /// `false` on an unconditional contradiction.
    pub fn add_pb(&mut self, terms: &[PbTerm], op: PbOp, bound: i64) -> bool {
        self.backtrack_to(0);
        if !self.ok {
            return false;
        }
        if terms.iter().any(|t| self.eliminated[t.lit.var().index()]) {
            let lits: Vec<Lit> = terms.iter().map(|t| t.lit).collect();
            self.restore_vars_in(&lits);
            if !self.ok {
                return false;
            }
        }
        self.input_clauses += 1;
        self.input_literals += terms.len() as u64;
        for (ge_terms, ge_bound) in to_ge_constraints(terms, op, bound) {
            match normalize_ge(&ge_terms, ge_bound) {
                Normalized::TriviallyTrue => {}
                Normalized::TriviallyFalse => {
                    if self.config.proof {
                        self.proof_log().input_clause(&[]);
                    }
                    self.set_unsat();
                    return false;
                }
                Normalized::Unit(l) => {
                    if self.config.proof {
                        self.proof_log().input_clause(&[l]);
                    }
                    match self.value_lit(l) {
                        LBool::True => {}
                        LBool::False => {
                            self.set_unsat();
                            return false;
                        }
                        LBool::Undef => {
                            self.assign(l, Reason::None);
                            if self.propagate().is_some() {
                                self.set_unsat();
                                return false;
                            }
                        }
                    }
                }
                Normalized::Constraint { lits, coefs, bound } => {
                    if self.config.proof {
                        self.proof_log().input_pb(&lits, &coefs, bound);
                    }
                    if !self.install_pb(lits, coefs, bound) {
                        self.set_unsat();
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Installs a canonical PB constraint, accounting for literals already
    /// false at level 0 and propagating any immediately forced literals.
    fn install_pb(&mut self, lits: Vec<Lit>, coefs: Vec<u64>, bound: u64) -> bool {
        let idx = self.pbs.len() as u32;
        let mut c = PbConstraint::new(lits, coefs, bound);
        // Fold in the current level-0 assignment.
        for (i, &l) in c.lits.iter().enumerate() {
            if self.value_lit(l) == LBool::False {
                c.slack -= c.coefs[i] as i64;
            }
        }
        if c.slack < 0 {
            return false;
        }
        for (i, &l) in c.lits.iter().enumerate() {
            self.pb_occs[l.index()].push((idx, c.coefs[i]));
        }
        // Literals forced right away (coef exceeds slack).
        let forced: Vec<Lit> = c
            .lits
            .iter()
            .zip(c.coefs.iter())
            .filter(|&(l, &a)| self.value_lit(*l) == LBool::Undef && (a as i64) > c.slack)
            .map(|(&l, _)| l)
            .collect();
        self.pbs.push(c);
        for l in forced {
            if self.value_lit(l) == LBool::Undef {
                self.assign(l, Reason::Pb(idx));
            }
            if self.propagate().is_some() {
                return false;
            }
        }
        self.propagate().is_none()
    }

    fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(
            self.db.len(cref) >= 2,
            "only clauses of length >= 2 carry watches"
        );
        let (l0, l1) = {
            let ls = self.db.lits(cref);
            (ls[0], ls[1])
        };
        debug_assert_ne!(l0, l1, "duplicate watched literal in {:?}", cref);
        debug_assert_ne!(l0, !l1, "tautology reached attach: {:?}", cref);
        if self.db.len(cref) == 2 {
            self.bin_watches[(!l0).index()].push(BinWatch { other: l1, cref });
            self.bin_watches[(!l1).index()].push(BinWatch { other: l0, cref });
        } else {
            self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
            self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
        }
    }

    // ------------------------------------------------------------------
    // Assignment & propagation
    // ------------------------------------------------------------------

    fn assign(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail_pos[v.index()] = self.trail.len() as u32;
        self.trail.push(l);
        // Counter maintenance: every constraint containing ¬l loses slack.
        let fl = !l;
        for &(pb, coef) in &self.pb_occs[fl.index()] {
            self.pbs[pb as usize].slack -= coef as i64;
        }
        self.stats.propagations += 1;
    }

    fn unassign(&mut self, v: Var) {
        let val = self.assigns[v.index()];
        debug_assert!(val.is_assigned());
        // Only ever called from `backtrack_to`, immediately after popping
        // this variable's literal — so its recorded position must be the
        // (new) trail length.
        debug_assert_eq!(
            self.trail_pos[v.index()] as usize,
            self.trail.len(),
            "unassign must pop the trail tail"
        );
        let true_lit = v.lit(val == LBool::True);
        let fl = !true_lit;
        for &(pb, coef) in &self.pb_occs[fl.index()] {
            self.pbs[pb as usize].slack += coef as i64;
        }
        self.assigns[v.index()] = LBool::Undef;
        self.reason[v.index()] = Reason::None;
        self.saved_phase[v.index()] = val == LBool::True;
        if !self.order.contains(v) {
            self.order.insert(v, &self.activity);
        }
    }

    /// Propagates all queued assignments. Returns the conflicting constraint
    /// if a conflict arises.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(confl) = self.propagate_bins(p) {
                self.qhead = self.trail.len();
                return Some(Conflict::Clause(confl));
            }
            if let Some(confl) = self.propagate_clauses(p) {
                self.qhead = self.trail.len();
                return Some(Conflict::Clause(confl));
            }
            if let Some(confl) = self.propagate_pbs(p) {
                self.qhead = self.trail.len();
                return Some(confl);
            }
        }
        None
    }

    /// Walks the binary watch list of `p`: every entry is a clause
    /// `(¬p ∨ other)`, so `other` is forced outright — no arena access, no
    /// watch migration. Returns the conflicting clause, if any.
    fn propagate_bins(&mut self, p: Lit) -> Option<ClauseRef> {
        // Entries are never added or removed during propagation, so plain
        // indexing is safe even though `assign` mutates other solver state.
        for i in 0..self.bin_watches[p.index()].len() {
            let BinWatch { other, cref } = self.bin_watches[p.index()][i];
            debug_assert_eq!(
                self.db.len(cref),
                2,
                "non-binary clause on a binary watch list"
            );
            match self.value_lit(other) {
                LBool::True => {}
                LBool::False => return Some(cref),
                LBool::Undef => {
                    // Keep the propagated literal in slot 0: DB reduction
                    // and `clear_learned` rely on it for the locked check.
                    let lits = self.db.lits_mut(cref);
                    if lits[0] != other {
                        lits.swap(0, 1);
                    }
                    self.assign(other, Reason::Clause(cref));
                }
            }
        }
        None
    }

    /// Walks the watch list of `p` (clauses containing `¬p`).
    fn propagate_clauses(&mut self, p: Lit) -> Option<ClauseRef> {
        let false_lit = !p;
        let mut ws = std::mem::take(&mut self.watches[p.index()]);
        let mut i = 0;
        let mut conflict = None;
        'watchers: while i < ws.len() {
            let w = ws[i];
            if self.value_lit(w.blocker) == LBool::True {
                i += 1;
                continue;
            }
            let cref = w.cref;
            // Normalize: watched literal we are processing goes to slot 1.
            {
                let lits = self.db.lits_mut(cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
            }
            let first = self.db.lits(cref)[0];
            if first != w.blocker && self.value_lit(first) == LBool::True {
                ws[i] = Watcher {
                    cref,
                    blocker: first,
                };
                i += 1;
                continue;
            }
            // Find a new literal to watch.
            let len = self.db.len(cref);
            for k in 2..len {
                let lk = self.db.lits(cref)[k];
                if self.value_lit(lk) != LBool::False {
                    self.db.lits_mut(cref).swap(1, k);
                    self.watches[(!lk).index()].push(Watcher {
                        cref,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue 'watchers;
                }
            }
            // No replacement: clause is unit or conflicting.
            ws[i] = Watcher {
                cref,
                blocker: first,
            };
            i += 1;
            match self.value_lit(first) {
                LBool::False => {
                    conflict = Some(cref);
                    break;
                }
                LBool::Undef => self.assign(first, Reason::Clause(cref)),
                LBool::True => unreachable!("handled above"),
            }
        }
        // Put the (possibly shrunk) watch list back, preserving any watchers
        // not yet visited.
        let rest = std::mem::replace(&mut self.watches[p.index()], ws);
        self.watches[p.index()].extend(rest);
        conflict
    }

    /// Updates PB constraints containing `¬p` after `p` became true.
    fn propagate_pbs(&mut self, p: Lit) -> Option<Conflict> {
        let fl = !p;
        // Slack was already decremented in `assign`; here we detect
        // conflicts and propagate forced literals.
        for oi in 0..self.pb_occs[fl.index()].len() {
            let (pb_idx, _) = self.pb_occs[fl.index()][oi];
            let pb = &self.pbs[pb_idx as usize];
            if pb.slack < 0 {
                return Some(Conflict::Pb(pb_idx));
            }
            if (pb.max_coef as i64) <= pb.slack {
                continue;
            }
            // Scan for unassigned literals with coef > slack: forced true.
            let n = pb.lits.len();
            for k in 0..n {
                let pb = &self.pbs[pb_idx as usize];
                let (l, a) = (pb.lits[k], pb.coefs[k]);
                if (a as i64) > pb.slack && self.value_lit(l) == LBool::Undef {
                    self.stats.pb_propagations += 1;
                    self.assign(l, Reason::Pb(pb_idx));
                }
            }
        }
        None
    }

    /// Collects the explanation literals of a reason/conflict into
    /// `self.reason_buf`. For a clause this is the clause body; for a PB
    /// constraint it is the set of its false literals assigned before
    /// `before` (or all false literals for a conflict). The propagated
    /// literal itself, if any, is excluded.
    fn explain(&mut self, r: Reason, propagated: Option<Lit>) {
        self.reason_buf.clear();
        match r {
            Reason::None => unreachable!("decisions have no explanation"),
            Reason::Clause(cref) => {
                for &l in self.db.lits(cref) {
                    if Some(l) != propagated {
                        self.reason_buf.push(l);
                    }
                }
            }
            Reason::Pb(idx) => {
                let cutoff = propagated
                    .map(|p| self.trail_pos[p.var().index()])
                    .unwrap_or(u32::MAX);
                let pb = &self.pbs[idx as usize];
                for &l in pb.lits.iter() {
                    let v = l.var();
                    let val = self.assigns[v.index()];
                    let lit_false = match val {
                        LBool::Undef => false,
                        _ => (val == LBool::True) != l.is_positive(),
                    };
                    if lit_false && self.trail_pos[v.index()] < cutoff {
                        self.reason_buf.push(l);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: Conflict) -> (Vec<Lit>, u32) {
        let current_level = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::with_capacity(16);
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut reason = match confl {
            Conflict::Clause(c) => {
                self.bump_clause(c);
                Reason::Clause(c)
            }
            Conflict::Pb(i) => Reason::Pb(i),
        };

        loop {
            self.explain(reason, p);
            let expl = std::mem::take(&mut self.reason_buf);
            for &q in &expl {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            self.reason_buf = expl;

            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            let v = pl.var();
            self.seen[v.index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            reason = self.reason[v.index()];
            if let Reason::Clause(c) = reason {
                self.bump_clause(c);
            }
        }

        let uip = !p.unwrap();
        self.minimize_learnt(&mut learnt);
        learnt.insert(0, uip);

        // Backtrack level = highest level among the non-asserting literals.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        // Clear remaining `seen` flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, bt_level)
    }

    /// Drops learned literals whose reason is entirely subsumed by other
    /// learned literals (local minimization).
    fn minimize_learnt(&mut self, learnt: &mut Vec<Lit>) {
        // Mark all kept literals (the UIP is added later and never removed).
        for &l in learnt.iter() {
            self.seen[l.var().index()] = true;
        }
        let mut i = 0;
        while i < learnt.len() {
            let l = learnt[i];
            let r = self.reason[l.var().index()];
            let redundant = match r {
                Reason::None => false,
                _ => {
                    self.explain(r, Some(!l));
                    let buf = std::mem::take(&mut self.reason_buf);
                    let red = buf.iter().all(|&q| {
                        let v = q.var();
                        self.level[v.index()] == 0 || self.seen[v.index()]
                    });
                    self.reason_buf = buf;
                    red
                }
            };
            if redundant {
                self.seen[l.var().index()] = false;
                learnt.swap_remove(i);
            } else {
                i += 1;
            }
        }
        for &l in learnt.iter() {
            self.seen[l.var().index()] = false;
        }
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rescaled();
        }
        self.order.increased(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        self.db.set_touch(cref, self.stats.conflicts);
        let act = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, act);
        if act > 1e20 {
            for &c in &self.learnts {
                let a = self.db.activity(c);
                self.db.set_activity(c, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
        // Glucose-style LBD refresh: a clause used in conflict analysis has
        // all literals assigned, so its LBD can be recomputed; improvements
        // promote the clause into a safer tier.
        let old = self.db.lbd(cref);
        if old > CORE_LBD {
            let new = self.lbd_stamps.distinct(&self.level, self.db.lits(cref));
            if new < old {
                self.db.set_lbd(cref, new);
                if new <= CORE_LBD {
                    self.db.set_tier(cref, Tier::Core);
                } else if new <= MID_LBD && self.db.tier(cref) == Tier::Local {
                    self.db.set_tier(cref, Tier::Mid);
                }
            }
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY as f32;
    }

    // ------------------------------------------------------------------
    // Backtracking
    // ------------------------------------------------------------------

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        while self.trail.len() > target {
            let l = self.trail.pop().unwrap();
            self.unassign(l.var());
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
        debug_assert_eq!(self.decision_level(), level);
    }

    fn new_decision_level(&mut self) {
        debug_assert_eq!(
            self.qhead,
            self.trail.len(),
            "decision level opened with pending propagations"
        );
        self.trail_lim.push(self.trail.len());
    }

    // ------------------------------------------------------------------
    // Learned-clause database management
    // ------------------------------------------------------------------

    /// `true` while the clause is the active reason of its first literal
    /// (deleting it would leave a dangling [`Reason::Clause`]).
    fn is_locked(&self, c: ClauseRef) -> bool {
        let first = self.db.lits(c)[0];
        self.reason[first.var().index()] == Reason::Clause(c)
            && self.value_lit(first) == LBool::True
    }

    /// Tiered reduction: CORE is untouchable, idle TIER2 clauses are
    /// demoted, and the worst (least active) half of LOCAL is deleted.
    fn reduce_db(&mut self) {
        let now = self.stats.conflicts;
        for i in 0..self.learnts.len() {
            let c = self.learnts[i];
            if self.db.tier(c) == Tier::Mid
                && now.saturating_sub(self.db.touch(c)) >= TIER_IDLE_CONFLICTS
            {
                self.db.set_tier(c, Tier::Local);
            }
        }
        let mut local: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| self.db.tier(c) == Tier::Local && !self.is_locked(c))
            .collect();
        // Worst first: lowest activity, ties broken toward higher LBD.
        let db = &self.db;
        local.sort_by(|&a, &b| {
            db.activity(a)
                .partial_cmp(&db.activity(b))
                .unwrap()
                .then(db.lbd(b).cmp(&db.lbd(a)))
        });
        let target = local.len() / 2;
        for &c in &local[..target] {
            if self.config.proof {
                log_of(&mut self.proof).delete(self.db.lits(c));
            }
            self.db.delete(c);
        }
        if target > 0 {
            self.sweep_deleted_watches();
        }
        let db = &self.db;
        self.learnts.retain(|&c| !db.is_deleted(c));
        self.stats.deleted += target as u64;
        self.refresh_tier_stats();
        self.reduce_interval *= self.config.reduce_grow;
        self.next_reduce = now + (self.reduce_interval as u64).max(TIER_REDUCE_MIN_INTERVAL);

        if self.db.wasted * 4 > self.db.arena_len() {
            self.garbage_collect();
        }
    }

    /// Recounts the tier-size gauges from the live learned-clause list.
    fn refresh_tier_stats(&mut self) {
        let (mut core, mut mid, mut local) = (0u64, 0u64, 0u64);
        for &c in &self.learnts {
            match self.db.tier(c) {
                Tier::Core => core += 1,
                Tier::Mid => mid += 1,
                Tier::Local => local += 1,
            }
        }
        self.stats.tier_core = core;
        self.stats.tier_mid = mid;
        self.stats.tier_local = local;
    }

    /// One in-search vivification round over the kept learned clauses.
    ///
    /// For a candidate `C = (l₁ ∨ … ∨ lₖ)` the negations `¬l₁, ¬l₂, …` are
    /// asserted as decisions in clause order, with `C` itself detached so it
    /// cannot propagate against its own test:
    /// - `lᵢ` already **false**: it is implied false by the earlier
    ///   negations (or a root fact), so `C ∖ {lᵢ}` is entailed — drop it;
    /// - `lᵢ` already **true**: `¬l₁ ∧ … ∧ ¬lᵢ₋₁` implies `lᵢ`, so `C`
    ///   truncates to `(l₁ ∨ … ∨ lᵢ)`;
    /// - propagation **conflicts** after asserting `¬lᵢ`: same truncation.
    ///
    /// Every strengthened clause is RUP with respect to the database *still
    /// containing the original* (asserting the negation of the strengthened
    /// clause replays the same unit propagations into the original or the
    /// conflict), so under proof logging the new clause is logged **before**
    /// the original is deleted — the same derivation-time discipline as
    /// preprocessing. Runs at level 0 (restart boundaries), bounded by a
    /// propagation budget; assumptions are re-decided by the next
    /// `pick_next` pass.
    fn vivify_round(&mut self) {
        // Restarts only rewind to the assumption prefix; vivification needs
        // the true root level (assumptions are re-decided afterwards).
        self.backtrack_to(0);
        let candidates: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| {
                self.db.len(c) >= 3
                    && !self.db.is_vivified(c)
                    && !self.is_locked(c)
                    && self.db.tier(c) != Tier::Local
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let budget_start = self.stats.propagations;
        let mut replaced: Vec<(ClauseRef, ClauseRef)> = Vec::new();
        let mut changed = false;
        for cref in candidates {
            if self.stats.propagations - budget_start > VIVIFY_PROP_BUDGET || self.interrupted() {
                break;
            }
            let lits = self.db.lits(cref).to_vec();
            // Detached for the duration of its own test; re-attached (or
            // replaced) below.
            self.detach(cref);
            let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
            let mut root_satisfied = false;
            for &l in &lits {
                match self.value_lit(l) {
                    // A root-level true literal satisfies the clause
                    // permanently — drop the whole clause instead.
                    LBool::True if self.level[l.var().index()] == 0 => {
                        root_satisfied = true;
                        break;
                    }
                    LBool::True => {
                        kept.push(l);
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => {
                        self.new_decision_level();
                        self.assign(!l, Reason::None);
                        kept.push(l);
                        if self.propagate().is_some() {
                            break;
                        }
                    }
                }
            }
            self.backtrack_to(0);
            if root_satisfied {
                if self.config.proof {
                    self.proof_log().delete(&lits);
                }
                self.db.delete(cref);
                self.stats.deleted += 1;
                changed = true;
                continue;
            }
            if kept.len() == lits.len() {
                self.attach(cref);
                self.db.set_vivified(cref);
                continue;
            }
            // Strengthened: log the new clause first (RUP while the
            // original is still present), then retire the original.
            changed = true;
            self.stats.vivified += 1;
            self.stats.vivify_lits_removed += (lits.len() - kept.len()) as u64;
            if kept.is_empty() {
                // Every literal was root-false: unconditional conflict.
                self.db.delete(cref);
                self.clear_root_reasons();
                self.set_unsat();
                return;
            }
            if self.config.proof {
                self.proof_log().add(&kept);
                self.proof_log().delete(&lits);
            }
            let old_lbd = self.db.lbd(cref);
            let old_act = self.db.activity(cref);
            let old_tier = self.db.tier(cref);
            self.db.delete(cref);
            if kept.len() == 1 {
                match self.value_lit(kept[0]) {
                    LBool::True => {}
                    LBool::False => {
                        self.clear_root_reasons();
                        self.set_unsat();
                        return;
                    }
                    LBool::Undef => {
                        self.assign(kept[0], Reason::None);
                        if self.propagate().is_some() {
                            self.clear_root_reasons();
                            self.set_unsat();
                            return;
                        }
                    }
                }
                continue;
            }
            let nc = self.db.alloc(&kept, true);
            let new_lbd = old_lbd.min(kept.len() as u32).max(1);
            self.db.set_lbd(nc, new_lbd);
            self.db.set_activity(nc, old_act);
            // Never demote: the strengthened clause subsumes the original,
            // so it is at least as valuable.
            let promoted = tier_for_lbd(new_lbd);
            let tier = if (promoted as u32) < (old_tier as u32) {
                promoted
            } else {
                old_tier
            };
            self.db.set_tier(nc, tier);
            self.db.set_touch(nc, self.stats.conflicts);
            self.db.set_vivified(nc);
            self.attach(nc);
            replaced.push((cref, nc));
        }
        if changed || !replaced.is_empty() {
            let map: std::collections::HashMap<ClauseRef, ClauseRef> =
                replaced.into_iter().collect();
            for c in self.learnts.iter_mut() {
                if let Some(&n) = map.get(c) {
                    *c = n;
                }
            }
            let db = &self.db;
            self.learnts.retain(|&c| !db.is_deleted(c));
        }
        // Units derived above propagate at level 0 and record clause
        // reasons; one of those reason clauses may itself have been
        // vivified away, and garbage collection must not meet a reference
        // to a deleted clause. Root facts never need explaining, so drop
        // the reasons wholesale (same discipline as preprocessing).
        self.clear_root_reasons();
        if self.db.wasted * 4 > self.db.arena_len() {
            self.garbage_collect();
        }
    }

    /// Number of learned clauses currently retained in the database.
    ///
    /// Together with [`Solver::clear_learned`] this is the clause-retention
    /// API used by warm-started re-solves: a long-lived solver accumulates
    /// learned clauses across searches, and the caller decides when the
    /// haul is worth keeping versus resetting.
    pub fn num_learned(&self) -> usize {
        self.learnts.len()
    }

    /// Drops every learned clause that is not locked as the reason of a
    /// root-level propagation, returning the number removed.
    ///
    /// Unlike the activity-driven `reduce_db` heuristic this is a full
    /// reset (glue clauses included), intended for re-solve
    /// boundaries where the retained clauses are known to be stale or the
    /// database has grown past the caller's retention budget. The solver
    /// backtracks to the root level first, stays sound, and remains fully
    /// usable afterwards; deletions are recorded in the proof trace when
    /// proof logging is on.
    pub fn clear_learned(&mut self) -> usize {
        self.backtrack_to(0);
        let mut removed = 0usize;
        let learnts = std::mem::take(&mut self.learnts);
        let mut kept = Vec::new();
        for c in learnts {
            if self.is_locked(c) {
                kept.push(c);
                continue;
            }
            if self.config.proof {
                log_of(&mut self.proof).delete(self.db.lits(c));
            }
            self.db.delete(c);
            removed += 1;
        }
        if removed > 0 {
            self.sweep_deleted_watches();
        }
        self.learnts = kept;
        self.stats.deleted += removed as u64;
        if self.db.wasted * 4 > self.db.arena_len() {
            self.garbage_collect();
        }
        removed
    }

    /// Drops the watches of every tombstoned clause in one pass over all
    /// watch lists, keeping the others in order: the lists a `detach` per
    /// deleted clause would leave, without scanning two lists per clause.
    /// Callers tombstone with `db.delete`, then sweep before anything
    /// propagates or collects garbage.
    fn sweep_deleted_watches(&mut self) {
        let db = &self.db;
        for ws in &mut self.watches {
            ws.retain(|w| !db.is_deleted(w.cref));
        }
        for ws in &mut self.bin_watches {
            ws.retain(|w| !db.is_deleted(w.cref));
        }
    }

    /// Removes one clause's watches (vivification detaches the clause under
    /// test; bulk deletions tombstone and sweep instead).
    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let ls = self.db.lits(cref);
            (ls[0], ls[1])
        };
        if self.db.len(cref) == 2 {
            self.bin_watches[(!l0).index()].retain(|w| w.cref != cref);
            self.bin_watches[(!l1).index()].retain(|w| w.cref != cref);
        } else {
            self.watches[(!l0).index()].retain(|w| w.cref != cref);
            self.watches[(!l1).index()].retain(|w| w.cref != cref);
        }
    }

    fn garbage_collect(&mut self) {
        // `collect` lists the relocations in arena order, i.e. sorted by
        // old ref, so a binary search maps each surviving clause.
        let relocs = self.db.collect();
        let map = |c: ClauseRef| -> ClauseRef {
            let i = relocs
                .binary_search_by_key(&c, |&(old, _)| old)
                .expect("reference to a collected clause");
            relocs[i].1
        };
        let mut reclaimed = 0usize;
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = map(w.cref);
            }
            reclaimed += shrink_excess(ws) * std::mem::size_of::<Watcher>();
        }
        for ws in &mut self.bin_watches {
            for w in ws.iter_mut() {
                w.cref = map(w.cref);
            }
            reclaimed += shrink_excess(ws) * std::mem::size_of::<BinWatch>();
        }
        self.stats.watch_bytes_reclaimed += reclaimed as u64;
        for r in &mut self.reason {
            if let Reason::Clause(c) = r {
                *r = Reason::Clause(map(*c));
            }
        }
        for c in &mut self.learnts {
            *c = map(*c);
        }
    }

    // ------------------------------------------------------------------
    // Input simplification support (the occurrence-list pass itself lives
    // in solver/simp.rs)
    // ------------------------------------------------------------------

    /// Clears the reason of every level-0 trail literal. Root facts never
    /// need explaining (conflict analysis stops above level 0), and a `None`
    /// reason lets preprocessing delete or relocate any input clause without
    /// leaving a dangling reference.
    fn clear_root_reasons(&mut self) {
        let end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for i in 0..end {
            self.reason[self.trail[i].var().index()] = Reason::None;
        }
    }

    /// Assigns a preprocessing-derived unit fact and propagates. Returns
    /// `false` (and clears `ok`) on a contradiction.
    fn pp_assign_unit(&mut self, l: Lit) -> bool {
        // The unit is a resolvent of clauses still present in the trace
        // (its source clause is only deleted later, at write-back), so it
        // is RUP here.
        if self.config.proof {
            self.proof_log().add(&[l]);
        }
        match self.value_lit(l) {
            LBool::True => true,
            LBool::False => {
                self.set_unsat();
                false
            }
            LBool::Undef => {
                self.stats.pp_fixed += 1;
                self.assign(l, Reason::None);
                if self.propagate().is_some() {
                    self.set_unsat();
                    false
                } else {
                    true
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Main search
    // ------------------------------------------------------------------

    /// Decides satisfiability of the accumulated constraints under the given
    /// `assumptions` (literals temporarily forced true for this call).
    ///
    /// All constraints and learned clauses persist across calls, which is
    /// what makes the binary-search optimization loop incremental.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        // The stopwatch replaces the raw `Instant` this used to hold: it
        // always measures, and when observability is enabled the *same* f64
        // it returns becomes the recorded `search` span's `dur_ms` — so the
        // trace and `stats.solve_ms` can never disagree.
        let before = self.config.obs.is_enabled().then(|| self.stats.clone());
        let mut sw = self.config.obs.stopwatch(Phase::Search);
        let result = self.solve_inner(assumptions);
        if sw.recording() {
            sw.attr(
                "result",
                match result {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                    SolveResult::Interrupted => "interrupted",
                },
            );
            sw.attr("assumptions", assumptions.len().to_string());
        }
        self.stats.solve_ms += sw.finish();
        if let Some(before) = before {
            self.export_metrics(&before);
        }
        result
    }

    /// Pushes the per-call increment of every stat field into the metrics
    /// registry as `solver.<field>` counters/gauges, plus a latency
    /// histogram over `solver.solve_ms`. Driven by
    /// [`SolverStats::for_each_metric`], so a field added to the struct is
    /// exported automatically.
    #[cold]
    fn export_metrics(&mut self, before: &SolverStats) {
        let Some(metrics) = self.config.obs.metrics() else {
            return;
        };
        let delta = self.stats.delta_since(before);
        let mut name = String::with_capacity(32);
        delta.for_each_metric(&mut |field, kind, value| {
            name.clear();
            name.push_str("solver.");
            name.push_str(field);
            match kind {
                // Gauges and peaks carry the current value; everything else
                // is a monotone per-call increment.
                "gauge" | "max" => metrics.gauge(&name).set(value as i64),
                _ => metrics.counter(&name).add(value as u64),
            }
        });
        metrics
            .histogram("solver.solve_ms", DEFAULT_MS_BUCKETS)
            .observe(delta.solve_ms);
    }

    /// Emits a throttled [`ProgressEvent`] through the configured hook.
    /// Reached only when a hook is installed; the caller guards with a
    /// single `Option` test so the unhooked per-conflict cost stays at one
    /// branch.
    #[cold]
    fn emit_progress(&mut self) {
        let throttle = self.progress_throttle.get_or_insert_with(|| {
            ProgressThrottle::new(
                self.config.progress_every_conflicts,
                self.config.progress_interval_ms,
            )
        });
        let Some(rate) = throttle.due(self.stats.conflicts) else {
            return;
        };
        self.refresh_tier_stats();
        let ev = ProgressEvent {
            // A window search stamps its workers through the hook.
            worker: None,
            conflicts: self.stats.conflicts,
            conflicts_per_s: rate,
            propagations: self.stats.propagations,
            restarts: self.stats.restarts,
            learnt_core: self.stats.tier_core,
            learnt_mid: self.stats.tier_mid,
            learnt_local: self.stats.tier_local,
            window: self.config.progress_window,
            elim_vars: self.stats.elim_vars,
        };
        if let Some(hook) = &self.config.progress {
            hook.emit(&ev);
        }
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.backtrack_to(0);
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.interrupted() {
            return SolveResult::Interrupted;
        }
        if let Some(c) = self.propagate() {
            let _ = c;
            self.set_unsat();
            return SolveResult::Unsat;
        }
        // Assuming an eliminated variable would search the distributed
        // formula `F′ ∧ x` instead of `F ∧ x` — not equisatisfiable — so
        // melt it back first.
        if assumptions.iter().any(|a| self.eliminated[a.var().index()]) {
            self.restore_vars_in(assumptions);
            if !self.ok {
                return SolveResult::Unsat;
            }
        }
        if self.config.preprocess && (!self.preprocessed || self.inprocess_due()) {
            let first = !self.preprocessed;
            self.preprocessed = true;
            let mut sw = self.config.obs.stopwatch(Phase::Preprocess);
            if sw.recording() {
                sw.attr("pass", if first { "simplify-first" } else { "inprocess" });
            }
            self.simplify(assumptions, first);
            sw.finish();
            if !self.ok {
                return SolveResult::Unsat;
            }
        }
        if self.config.paranoid {
            self.check_invariants("solve-entry");
        }

        let mut conflicts_this_call = 0u64;
        self.target_len = 0;
        if self.next_reduce == 0 {
            self.reduce_interval =
                ((self.config.first_reduce as u64 / 2).max(TIER_REDUCE_MIN_INTERVAL)) as f64;
            self.next_reduce = self.stats.conflicts + self.reduce_interval as u64;
        }

        let result = loop {
            match self.search(assumptions, &mut conflicts_this_call) {
                SearchOutcome::Sat => break SolveResult::Sat,
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    if self.learned_since_vivify >= VIVIFY_MIN_LEARNED {
                        self.learned_since_vivify = 0;
                        let mut sw = self.config.obs.stopwatch(Phase::Preprocess);
                        if sw.recording() {
                            sw.attr("pass", "vivify");
                        }
                        self.vivify_round();
                        sw.finish();
                        if !self.ok {
                            break SolveResult::Unsat;
                        }
                    }
                    if self.config.paranoid {
                        self.check_invariants("restart");
                    }
                }
                SearchOutcome::Budget => break SolveResult::Unknown,
                SearchOutcome::Interrupted => break SolveResult::Interrupted,
            }
        };
        if result == SolveResult::Sat {
            // Snapshot the model, completing unconstrained variables with
            // their saved phase.
            self.model.clear();
            self.model
                .extend(self.assigns.iter().enumerate().map(|(i, &v)| match v {
                    LBool::True => true,
                    LBool::False => false,
                    LBool::Undef => self.saved_phase[i],
                }));
            // Replay the reconstruction stack so the snapshot also satisfies
            // every clause removed by variable elimination.
            self.extend_model();
            // The next call searches from this model.
            for (t, &m) in self.target_phase.iter_mut().zip(&self.model) {
                *t = LBool::from_bool(m);
            }
        }
        self.backtrack_to(0);
        self.refresh_tier_stats();
        if self.config.paranoid {
            self.check_invariants("solve-exit");
            if result == SolveResult::Sat {
                // The model must satisfy the *input* formula, including
                // every clause the eliminator removed — this is where a
                // broken reconstruction stack is caught.
                self.debug_check_model();
            }
        }
        result
    }

    /// Convenience: solve with no assumptions.
    pub fn solve_unassuming(&mut self) -> SolveResult {
        self.solve(&[])
    }

    /// True when an external [`SolverConfig::interrupt`] flag is raised.
    #[inline]
    fn interrupted(&self) -> bool {
        self.config
            .interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    fn search(&mut self, assumptions: &[Lit], conflicts_this_call: &mut u64) -> SearchOutcome {
        let mut conflicts_since_restart = 0u64;
        let fallback = RESTART_FALLBACK_FIRST << self.stats.restarts.min(40);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                *conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.set_unsat();
                    return SearchOutcome::Unsat;
                }
                self.update_target();
                let trail_at_conflict = self.trail.len();
                let (learnt, bt_level) = self.analyze(confl);
                self.backtrack_to(bt_level);
                let lbd = self.learn(&learnt);
                self.decay_activities();
                self.update_restart_emas(lbd, trail_at_conflict, conflicts_since_restart);
                // Unhooked solvers pay exactly this one branch per conflict;
                // hooked ones fall into the throttle's integer fast path.
                if self.config.progress.is_some() {
                    self.emit_progress();
                }
                if let Some(max) = self.config.max_conflicts {
                    if *conflicts_this_call >= max {
                        return SearchOutcome::Budget;
                    }
                }
                if self.interrupted() {
                    return SearchOutcome::Interrupted;
                }
            } else {
                if self.interrupted() {
                    return SearchOutcome::Interrupted;
                }
                let restart_due = conflicts_since_restart >= fallback
                    || (conflicts_since_restart >= EMA_MIN_RESTART_CONFLICTS
                        && self.lbd_fast > EMA_RESTART_K * self.lbd_slow);
                if restart_due && self.decision_level() > assumptions.len() as u32 {
                    self.backtrack_to(assumptions.len() as u32);
                    return SearchOutcome::Restart;
                }
                if self.stats.conflicts >= self.next_reduce {
                    self.reduce_db();
                }
                // Extend with assumptions, then decide.
                match self.pick_next(assumptions) {
                    PickOutcome::AllAssigned => return SearchOutcome::Sat,
                    PickOutcome::AssumptionConflict => return SearchOutcome::Unsat,
                    PickOutcome::Decided => {}
                }
            }
        }
    }

    /// Captures the trail below the conflict level — fully propagated
    /// without conflict — as the target phases when it is longer than the
    /// prefix already captured in this call.
    fn update_target(&mut self) {
        let nc = self.trail_lim[self.decision_level() as usize - 1];
        if nc <= self.target_len {
            return;
        }
        for &l in &self.trail[..nc] {
            self.target_phase[l.var().index()] = LBool::from_bool(l.is_positive());
        }
        self.target_len = nc;
    }

    /// Feeds one conflict into the adaptive-restart estimators.
    ///
    /// `fast` tracks the LBD of recent conflicts, `slow` the long-run
    /// average; a fast EMA above `K·slow` means the search is currently
    /// producing poor clauses, so a restart is scheduled. A conflict trail
    /// much deeper than its own average suggests the search is near a model
    /// instead — then the pending restart is blocked by collapsing the fast
    /// EMA back onto the slow one. All arithmetic is deterministic.
    fn update_restart_emas(&mut self, lbd: u32, trail_at_conflict: usize, since_restart: u64) {
        self.ema_conflicts += 1;
        // Bias correction: behave like plain running means until each
        // horizon has filled up, instead of crawling away from zero.
        let n = self.ema_conflicts as f64;
        let fast_alpha = EMA_FAST_ALPHA.max(1.0 / n);
        let slow_alpha = EMA_SLOW_ALPHA.max(1.0 / n);
        let l = lbd.max(1) as f64;
        self.lbd_fast += fast_alpha * (l - self.lbd_fast);
        self.lbd_slow += slow_alpha * (l - self.lbd_slow);
        let t = trail_at_conflict as f64;
        self.trail_ema += slow_alpha * (t - self.trail_ema);
        if since_restart >= EMA_MIN_RESTART_CONFLICTS
            && self.lbd_fast > EMA_RESTART_K * self.lbd_slow
            && t > EMA_BLOCK_R * self.trail_ema
        {
            self.lbd_fast = self.lbd_slow;
            self.stats.restarts_blocked += 1;
        }
    }

    fn pick_next(&mut self, assumptions: &[Lit]) -> PickOutcome {
        while (self.decision_level() as usize) < assumptions.len() {
            let p = assumptions[self.decision_level() as usize];
            match self.value_lit(p) {
                LBool::True => {
                    // Already satisfied: dummy level to keep the invariant
                    // that level i ≤ |assumptions| corresponds to assumption i.
                    self.new_decision_level();
                }
                LBool::False => {
                    // Proof: the negated-assumption-prefix clause is RUP —
                    // asserting the prefix re-propagates ¬p. For a guarded
                    // bound probe this is the certified window claim `¬g`.
                    if self.config.proof {
                        let lvl = self.decision_level() as usize;
                        let clause: Vec<Lit> = assumptions[..=lvl].iter().map(|&a| !a).collect();
                        self.proof_log().add(&clause);
                    }
                    return PickOutcome::AssumptionConflict;
                }
                LBool::Undef => {
                    self.new_decision_level();
                    self.assign(p, Reason::None);
                    return PickOutcome::Decided;
                }
            }
        }
        // Regular decision by activity.
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.eliminated[v.index()] {
                continue;
            }
            if self.value_var(v) == LBool::Undef {
                self.stats.decisions += 1;
                self.new_decision_level();
                let phase = match self.target_phase[v.index()] {
                    LBool::Undef => self.saved_phase[v.index()],
                    target => target == LBool::True,
                };
                self.assign(v.lit(phase), Reason::None);
                return PickOutcome::Decided;
            }
        }
        PickOutcome::AllAssigned
    }

    /// Installs a freshly learned clause and returns its LBD (feeding the
    /// adaptive-restart EMAs).
    fn learn(&mut self, learnt: &[Lit]) -> u32 {
        self.stats.learned += 1;
        // First-UIP learned clauses (after minimization) are RUP with
        // respect to the inputs plus the earlier learned clauses.
        if self.config.proof {
            self.proof_log().add(learnt);
        }
        match learnt.len() {
            0 => {
                self.ok = false;
                0
            }
            1 => {
                self.assign(learnt[0], Reason::None);
                1
            }
            _ => {
                let cref = self.db.alloc(learnt, true);
                let lbd = self.lbd_stamps.distinct(&self.level, learnt);
                self.db.set_lbd(cref, lbd);
                self.db.set_activity(cref, self.cla_inc);
                self.db.set_tier(cref, tier_for_lbd(lbd));
                self.db.set_touch(cref, self.stats.conflicts);
                self.attach(cref);
                self.learnts.push(cref);
                self.stats.peak_learnts = self.stats.peak_learnts.max(self.learnts.len() as u64);
                self.learned_since_vivify += 1;
                self.assign(learnt[0], Reason::Clause(cref));
                lbd
            }
        }
    }

    /// Exports the accumulated *input* constraints (clauses and PB
    /// constraints, not learned clauses) as a [`crate::Formula`] — e.g. to
    /// dump an encoded instance in OPB format for an external solver.
    ///
    /// Level-0 unit assignments made while adding constraints are exported
    /// as unit constraints so the formula is equisatisfiable.
    pub fn export_formula(&self) -> crate::Formula {
        let to_signed = |l: Lit| -> i64 {
            let v = l.var().index() as i64 + 1;
            if l.is_positive() {
                v
            } else {
                -v
            }
        };
        let mut f = crate::Formula {
            n_vars: self.num_vars(),
            ..Default::default()
        };
        // Root-level forced literals (from unit clauses / PB units).
        let root_end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..root_end] {
            if self.reason[l.var().index()] == Reason::None {
                f.clauses.push(vec![to_signed(l)]);
            }
        }
        for cref in self.db.iter_refs() {
            if self.db.is_learnt(cref) {
                continue;
            }
            f.clauses
                .push(self.db.lits(cref).iter().map(|&l| to_signed(l)).collect());
        }
        for pb in &self.pbs {
            let terms: Vec<(i64, i64)> = pb
                .lits
                .iter()
                .zip(pb.coefs.iter())
                .map(|(&l, &a)| (a as i64, to_signed(l)))
                .collect();
            f.pbs.push((terms, crate::PbOp::Ge, pb.bound as i64));
        }
        f
    }

    /// Verifies the current model against every input constraint. Intended
    /// for tests and debug assertions; `panic`s on violation.
    pub fn debug_check_model(&self) {
        for cref in self.db.iter_refs() {
            if self.db.is_learnt(cref) {
                continue;
            }
            assert!(
                self.db.lits(cref).iter().any(|&l| self.model_value(l)),
                "clause {:?} violated",
                self.db.lits(cref)
            );
        }
        for pb in &self.pbs {
            let sum: u64 = pb
                .lits
                .iter()
                .zip(pb.coefs.iter())
                .filter(|&(l, _)| self.model_value(*l))
                .map(|(_, &a)| a)
                .sum();
            assert!(
                sum >= pb.bound,
                "PB constraint violated: sum {} < bound {}",
                sum,
                pb.bound
            );
        }
        // Clauses removed by variable elimination must be satisfied through
        // the reconstruction-extended part of the model.
        self.debug_check_elim_stack();
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    Budget,
    Interrupted,
}

enum PickOutcome {
    AllAssigned,
    AssumptionConflict,
    Decided,
}

/// The proof trace, created on first use. A free function over the field,
/// so a caller can log literals borrowed from another field (the clause
/// arena) without copying them first.
#[inline]
fn log_of(proof: &mut Option<ProofLog>) -> &mut ProofLog {
    proof.get_or_insert_with(ProofLog::new)
}

/// Initial tier of a learned clause by LBD.
fn tier_for_lbd(lbd: u32) -> Tier {
    if lbd <= CORE_LBD {
        Tier::Core
    } else if lbd <= MID_LBD {
        Tier::Mid
    } else {
        Tier::Local
    }
}

/// Counts the distinct decision levels of a clause (its LBD) without
/// allocating: `stamp[level]` holds the epoch of the last count that met
/// the level.
#[derive(Default)]
struct LevelStamps {
    stamp: Vec<u32>,
    epoch: u32,
}

impl LevelStamps {
    /// Number of distinct values of `level[l.var()]` over `lits`.
    fn distinct(&mut self, level: &[u32], lits: &[Lit]) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let mut n = 0;
        for l in lits {
            let lv = level[l.var().index()] as usize;
            if lv >= self.stamp.len() {
                self.stamp.resize(lv + 1, 0);
            }
            if self.stamp[lv] != self.epoch {
                self.stamp[lv] = self.epoch;
                n += 1;
            }
        }
        n
    }
}

/// Releases the excess capacity of a grossly over-allocated list, returning
/// the number of surplus elements freed. Lists near their high-water mark
/// are left alone: `shrink_to_fit` on a hot watch list that immediately
/// regrows would thrash the allocator.
fn shrink_excess<T>(v: &mut Vec<T>) -> usize {
    if v.capacity() <= 16 || v.capacity() < 4 * v.len().max(1) {
        return 0;
    }
    let before = v.capacity();
    v.shrink_to_fit();
    before - v.capacity()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, ids: &mut Vec<Var>, i: i32) -> Lit {
        let idx = i.unsigned_abs() as usize - 1;
        while ids.len() <= idx {
            ids.push(s.new_var());
        }
        ids[idx].lit(i > 0)
    }

    fn add(s: &mut Solver, ids: &mut Vec<Var>, clause: &[i32]) -> bool {
        let lits: Vec<Lit> = clause.iter().map(|&i| lit(s, ids, i)).collect();
        s.add_clause(&lits)
    }

    /// Fills every stat field with a distinct value derived from `base`
    /// via the metric iterator, so the test can never silently skip a
    /// newly added field.
    fn synthetic_stats(base: u64) -> SolverStats {
        let mut s = SolverStats::default();
        let mut names = Vec::new();
        s.for_each_metric(&mut |name, kind, _| names.push((name, kind)));
        s.decisions = base;
        s.propagations = base + 1;
        s.conflicts = base + 2;
        s.restarts = base + 3;
        s.learned = base + 4;
        s.deleted = base + 5;
        s.pb_propagations = base + 6;
        s.pp_removed = base + 7;
        s.pp_strengthened = base + 8;
        s.pp_fixed = base + 9;
        s.elim_vars = base + 10;
        s.elim_clauses = base + 11;
        s.elim_resolvents = base + 12;
        s.elim_attempts = base + 13;
        s.elim_pairs = base + 14;
        s.subsume_checks = base + 15;
        s.elim_restored = base + 16;
        s.elim_stack_depth = base + 17;
        s.restarts_blocked = base + 18;
        s.vivified = base + 19;
        s.vivify_lits_removed = base + 20;
        s.tier_core = base + 21;
        s.tier_mid = base + 22;
        s.tier_local = base + 23;
        s.peak_learnts = base + 24;
        s.watch_bytes_reclaimed = base + 25;
        s.solve_ms = base as f64 + 26.5;
        assert_eq!(names.len(), 27, "synthetic_stats must cover every field");
        s
    }

    #[test]
    fn level_stamps_count_distinct_levels_like_sort_and_dedup() {
        let lits: Vec<Lit> = (0..40).map(|i| Var::from_index(i).positive()).collect();
        let mut stamps = LevelStamps::default();
        // xorshift64: any well-mixed stream will do.
        let mut z = 7u64;
        let mut next = || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        for round in 0..500 {
            let r = next();
            let n = 1 + (r % 40) as usize;
            let max_level = 1 + (r >> 8) % 30;
            let level: Vec<u32> = (0..40).map(|_| (next() % max_level) as u32).collect();
            let mut sorted: Vec<u32> = level[..n].to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                stamps.distinct(&level, &lits[..n]),
                sorted.len() as u32,
                "round {round}"
            );
        }
        // The epoch wraps to 1 without meeting the stamps of epoch 1.
        let mut stamps = LevelStamps::default();
        assert_eq!(stamps.distinct(&[3, 3, 5], &lits[..3]), 2);
        stamps.epoch = u32::MAX;
        assert_eq!(stamps.distinct(&[3, 3, 5], &lits[..3]), 2);
    }

    #[test]
    fn stats_absorb_sums_counters_and_maxes_peak() {
        let mut a = synthetic_stats(100);
        let b = synthetic_stats(1000);
        a.absorb(&b);
        assert_eq!(a.decisions, 1100);
        assert_eq!(a.solve_ms, 126.5 + 1026.5);
        // Gauges sum to the fleet total.
        assert_eq!(a.tier_core, 121 + 1021);
        assert_eq!(a.elim_stack_depth, 117 + 1017);
        // Peak takes the worst single solver.
        assert_eq!(a.peak_learnts, 1024);
    }

    #[test]
    fn stats_delta_inverts_absorb_for_counters() {
        let baseline = synthetic_stats(100);
        let mut grown = baseline.clone();
        let increment = synthetic_stats(40);
        grown.absorb(&increment);
        let delta = grown.delta_since(&baseline);
        // Counters recover the increment exactly.
        assert_eq!(delta.decisions, increment.decisions);
        assert_eq!(delta.conflicts, increment.conflicts);
        assert_eq!(delta.watch_bytes_reclaimed, increment.watch_bytes_reclaimed);
        assert_eq!(delta.solve_ms, increment.solve_ms);
        // Gauges and peaks carry the grown (current) value, not a diff.
        assert_eq!(delta.tier_core, grown.tier_core);
        assert_eq!(delta.elim_stack_depth, grown.elim_stack_depth);
        assert_eq!(delta.peak_learnts, grown.peak_learnts);
    }

    #[test]
    fn stats_delta_saturates_watch_bytes() {
        // A GC in the baseline epoch can make the cumulative counter look
        // like it shrank per-request; the delta must clamp at zero rather
        // than wrap.
        let now = SolverStats {
            watch_bytes_reclaimed: 10,
            ..SolverStats::default()
        };
        let base = SolverStats {
            watch_bytes_reclaimed: 25,
            ..SolverStats::default()
        };
        assert_eq!(now.delta_since(&base).watch_bytes_reclaimed, 0);
    }

    #[test]
    fn stats_metric_iterator_covers_every_field() {
        let s = synthetic_stats(7);
        let mut seen = std::collections::BTreeMap::new();
        s.for_each_metric(&mut |name, kind, value| {
            seen.insert(name, (kind, value));
        });
        assert_eq!(seen.len(), 27);
        assert_eq!(seen["decisions"], ("counter", 7.0));
        assert_eq!(seen["elim_stack_depth"].0, "gauge");
        assert_eq!(seen["peak_learnts"].0, "max");
        assert_eq!(seen["watch_bytes_reclaimed"].0, "counter_sat");
        assert_eq!(seen["solve_ms"], ("counter", 33.5));
    }

    #[test]
    fn solve_records_search_span_matching_solve_ms() {
        let obs = Obs::enabled();
        let mut s = Solver::new();
        s.config.obs = obs.clone();
        let mut ids = Vec::new();
        for i in 1..=8 {
            add(&mut s, &mut ids, &[i, -(i % 8 + 1)]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[ids[0].positive()]), SolveResult::Sat);
        let spans = obs.spans();
        let search: Vec<_> = spans.iter().filter(|r| r.phase == "search").collect();
        assert_eq!(search.len(), 2, "one search span per solve call");
        let total: f64 = search.iter().map(|r| r.dur_ms).sum();
        // Same f64 stream, same order: bit-exact, not approximate.
        assert_eq!(total, s.stats.solve_ms);
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("solver.solve_calls"), None, "no such metric");
        assert!(snap.counter("solver.propagations").unwrap() > 0);
        assert_eq!(snap.counter("solver.decisions").unwrap(), s.stats.decisions);
    }

    #[test]
    fn progress_hook_fires_and_respects_worker_stamp() {
        use std::sync::Mutex;
        let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let mut s = Solver::new();
        // Keep the conflicts in search: preprocessing would refute this
        // instance at level 0 before a single conflict fires.
        s.config.preprocess = false;
        let hook = ProgressHook::new(move |ev| {
            sink.lock().unwrap().push(ev.clone());
        });
        s.config.progress = Some(hook.with_worker(3));
        s.config.progress_every_conflicts = 1;
        s.config.progress_interval_ms = 0;
        s.config.progress_window = Some((10, 20));
        let mut ids = Vec::new();
        // Small pigeonhole-ish contradiction to force conflicts.
        for i in 1..=4 {
            for j in (i + 1)..=4 {
                add(&mut s, &mut ids, &[-i, -j]);
            }
        }
        add(&mut s, &mut ids, &[1, 2, 3, 4]);
        add(&mut s, &mut ids, &[5, 6]);
        add(&mut s, &mut ids, &[-5, 6]);
        add(&mut s, &mut ids, &[5, -6]);
        add(&mut s, &mut ids, &[-5, -6]);
        let _ = s.solve(&[]);
        let got = events.lock().unwrap();
        assert!(!got.is_empty(), "at least one progress event");
        assert_eq!(got[0].worker, Some(3));
        assert_eq!(got[0].window, Some((10, 20)));
        assert!(got[0].conflicts >= 1);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        assert!(add(&mut s, &mut ids, &[1]));
        assert!(add(&mut s, &mut ids, &[-1, 2]));
        assert!(add(&mut s, &mut ids, &[-2, 3]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(ids[0].positive()));
        assert!(s.model_value(ids[1].positive()));
        assert!(s.model_value(ids[2].positive()));
    }

    #[test]
    fn simple_unsat() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        add(&mut s, &mut ids, &[1, 2]);
        add(&mut s, &mut ids, &[1, -2]);
        add(&mut s, &mut ids, &[-1, 2]);
        add(&mut s, &mut ids, &[-1, -2]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn contradictory_units_unsat_at_add_time() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        assert!(add(&mut s, &mut ids, &[1]));
        assert!(!add(&mut s, &mut ids, &[-1]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_verdict() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        add(&mut s, &mut ids, &[1, 2]);
        let a = ids[0];
        let b = ids[1];
        assert_eq!(s.solve(&[a.negative(), b.negative()]), SolveResult::Unsat);
        // Still satisfiable without assumptions (incremental reuse).
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[a.negative()]), SolveResult::Sat);
        assert!(s.model_value(b.positive()));
    }

    #[test]
    fn pb_exactly_one() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        let terms: Vec<PbTerm> = vars.iter().map(|v| PbTerm::new(v.positive(), 1)).collect();
        assert!(s.add_pb(&terms, PbOp::Eq, 1));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let count = vars.iter().filter(|v| s.model_value(v.positive())).count();
        assert_eq!(count, 1);
        s.debug_check_model();
    }

    #[test]
    fn pb_at_least_two_with_forbidden_pair() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let terms: Vec<PbTerm> = vars.iter().map(|v| PbTerm::new(v.positive(), 1)).collect();
        assert!(s.add_pb(&terms, PbOp::Ge, 2));
        // v0 and v1 cannot both hold ⇒ v2 must hold.
        assert!(s.add_clause(&[vars[0].negative(), vars[1].negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(vars[2].positive()));
        s.debug_check_model();
    }

    #[test]
    fn pb_infeasible_bound() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let terms: Vec<PbTerm> = vars.iter().map(|v| PbTerm::new(v.positive(), 1)).collect();
        assert!(s.add_pb(&terms, PbOp::Le, 1));
        assert!(s.add_pb(&terms, PbOp::Ge, 1));
        // Forbid each single-variable solution pairwise-free: force v0 true
        // and v1 true, contradicting ≤ 1.
        assert!(s.add_clause(&[vars[0].positive()]));
        let ok = s.add_clause(&[vars[1].positive()]);
        assert!(!ok || s.solve(&[]) == SolveResult::Unsat);
    }

    #[test]
    fn weighted_pb_propagation() {
        // 3a + 2b + c >= 5 with b false forces a and c... 3+1 < 5 ⇒ conflict;
        // with c false forces a and b.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let terms = vec![
            PbTerm::new(a.positive(), 3),
            PbTerm::new(b.positive(), 2),
            PbTerm::new(c.positive(), 1),
        ];
        assert!(s.add_pb(&terms, PbOp::Ge, 5));
        assert_eq!(s.solve(&[b.negative()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[c.negative()]), SolveResult::Sat);
        assert!(s.model_value(a.positive()));
        assert!(s.model_value(b.positive()));
    }

    #[test]
    fn full_adder_pb_encoding() {
        // The paper's §5.1 example: cout ⇔ (x + y + cin ≥ 2) via two PB
        // constraints. Check all 8 input combinations by assumption.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let cin = s.new_var();
        let cout = s.new_var();
        assert!(s.add_pb(
            &[
                PbTerm::new(cout.negative(), 2),
                PbTerm::new(x.positive(), 1),
                PbTerm::new(y.positive(), 1),
                PbTerm::new(cin.positive(), 1),
            ],
            PbOp::Ge,
            2
        ));
        assert!(s.add_pb(
            &[
                PbTerm::new(cout.positive(), 2),
                PbTerm::new(x.negative(), 1),
                PbTerm::new(y.negative(), 1),
                PbTerm::new(cin.negative(), 1),
            ],
            PbOp::Ge,
            2
        ));
        for bits in 0..8u32 {
            let assumptions = [
                x.lit(bits & 1 != 0),
                y.lit(bits & 2 != 0),
                cin.lit(bits & 4 != 0),
            ];
            assert_eq!(s.solve(&assumptions), SolveResult::Sat);
            let expect = (bits & 1 != 0) as u32 + (bits & 2 != 0) as u32 + (bits & 4 != 0) as u32;
            assert_eq!(
                s.model_value(cout.positive()),
                expect >= 2,
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        // PHP(4,3): classic small hard instance; exercises learning.
        let mut s = Solver::new();
        let mut p = vec![];
        for _ in 0..4 {
            let row: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
        for hole in 0..3 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause(&[p[i][hole].negative(), p[j][hole].negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_via_pb_unsat() {
        // Same pigeonhole expressed with PB cardinality constraints.
        let mut s = Solver::new();
        let mut p = vec![];
        for _ in 0..5 {
            let row: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            let terms: Vec<PbTerm> = row.iter().map(|v| PbTerm::new(v.positive(), 1)).collect();
            assert!(s.add_pb(&terms, PbOp::Ge, 1));
        }
        #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
        for hole in 0..4 {
            let terms: Vec<PbTerm> = p
                .iter()
                .map(|row| PbTerm::new(row[hole].positive(), 1))
                .collect();
            assert!(s.add_pb(&terms, PbOp::Le, 1));
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        let mut s = Solver::new();
        s.config.max_conflicts = Some(1);
        // A pigeonhole that needs more than one conflict.
        let mut p = vec![];
        for _ in 0..5 {
            let row: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
        for hole in 0..4 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s.add_clause(&[p[i][hole].negative(), p[j][hole].negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
    }

    #[test]
    fn interrupt_leaves_solver_reusable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // An unsatisfiable pigeonhole: 5 pigeons, 4 holes.
        let mut s = Solver::new();
        let flag = Arc::new(AtomicBool::new(false));
        s.config.interrupt = Some(flag.clone());
        let mut p = vec![];
        for _ in 0..5 {
            let row: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
        for hole in 0..4 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s.add_clause(&[p[i][hole].negative(), p[j][hole].negative()]);
                }
            }
        }

        // A raised flag aborts before (and during) search…
        flag.store(true, Ordering::Relaxed);
        assert_eq!(s.solve(&[]), SolveResult::Interrupted);

        // …and once cleared the same solver finishes with the real verdict,
        // i.e. the interrupt lost no constraints and corrupted no state.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn clear_learned_resets_the_database_and_keeps_the_solver_sound() {
        // A guarded pigeonhole (5 pigeons, 4 holes): assuming the guard
        // makes the instance UNSAT through real search, so clauses are
        // learned but the solver itself stays consistent for re-solving.
        let mut s = Solver::new();
        let g = s.new_var();
        let mut p = vec![];
        for _ in 0..5 {
            let row: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
        for hole in 0..4 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s.add_clause(&[g.negative(), p[i][hole].negative(), p[j][hole].negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[g.positive()]), SolveResult::Unsat);
        assert!(s.num_learned() > 0, "the refutation learned clauses");

        let before = s.num_learned();
        let deleted_before = s.stats.deleted;
        let removed = s.clear_learned();
        assert!(removed > 0);
        assert_eq!(s.num_learned(), before - removed);
        assert_eq!(s.stats.deleted, deleted_before + removed as u64);

        // The reset lost no input constraints: both verdicts reproduce.
        assert_eq!(s.solve(&[g.negative()]), SolveResult::Sat);
        assert_eq!(s.solve(&[g.positive()]), SolveResult::Unsat);
    }

    #[test]
    fn clear_learned_on_a_fresh_solver_is_a_no_op() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        assert_eq!(s.clear_learned(), 0);
        assert_eq!(s.num_learned(), 0);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn preprocessing_removes_subsumed_and_duplicate_clauses() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        add(&mut s, &mut ids, &[1, 2]);
        add(&mut s, &mut ids, &[1, 2, 3]); // subsumed by (1 2)
        add(&mut s, &mut ids, &[1, 2]); // duplicate
        add(&mut s, &mut ids, &[-1, 4]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(
            s.stats.pp_removed >= 2,
            "expected subsumed + duplicate removal, got {}",
            s.stats.pp_removed
        );
    }

    #[test]
    fn preprocessing_self_subsuming_resolution() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        // (1 2) and (-1 2 3): resolving on 1 strengthens the second to (2 3).
        add(&mut s, &mut ids, &[1, 2]);
        add(&mut s, &mut ids, &[-1, 2, 3]);
        add(&mut s, &mut ids, &[4, 5]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(
            s.stats.pp_strengthened >= 1,
            "expected a self-subsumption strengthening, got {}",
            s.stats.pp_strengthened
        );
    }

    #[test]
    fn preprocessing_strengthening_to_unit_fixes_variable() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        // (1 2) and (-1 2) resolve to the unit (2).
        add(&mut s, &mut ids, &[1, 2]);
        add(&mut s, &mut ids, &[-1, 2]);
        add(&mut s, &mut ids, &[-2, 3]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(ids[1].positive()));
        assert!(s.model_value(ids[2].positive()));
        assert!(s.stats.pp_fixed >= 1);
    }

    #[test]
    fn preprocessing_agrees_with_unpreprocessed_solver() {
        // Random-ish 3-SAT instances: verdicts must match with the pass on
        // and off, and incremental reuse under assumptions must survive it.
        for seed in 0..20u64 {
            let mut clauses = Vec::new();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let nv = 12i32;
            for _ in 0..40 {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nv as u64) as i32 + 1;
                    let sign = if next() & 1 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                clauses.push(c);
            }
            let mut on = Solver::new();
            let mut off = Solver::new();
            off.config.preprocess = false;
            let (mut ids_on, mut ids_off) = (Vec::new(), Vec::new());
            for c in &clauses {
                add(&mut on, &mut ids_on, c);
                add(&mut off, &mut ids_off, c);
            }
            let (r_on, r_off) = (on.solve(&[]), off.solve(&[]));
            assert_eq!(r_on, r_off, "seed {seed}: verdicts diverge");
            if r_on == SolveResult::Sat && !ids_on.is_empty() {
                // Re-solving under an assumption must agree too.
                let a_on = on.solve(&[ids_on[0].negative()]);
                let a_off = off.solve(&[ids_off[0].negative()]);
                assert_eq!(a_on, a_off, "seed {seed}: assumption verdicts diverge");
            }
        }
    }

    #[test]
    fn preprocessing_preserves_incremental_clause_addition() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        add(&mut s, &mut ids, &[1, 2]);
        add(&mut s, &mut ids, &[1, 2, 3]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Clauses added after the pass ran are still honored.
        add(&mut s, &mut ids, &[-1]);
        add(&mut s, &mut ids, &[-2]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    /// Unsatisfiable pigeonhole clauses over fresh variables.
    fn add_pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let mut p = vec![];
        for _ in 0..pigeons {
            let row: Vec<Var> = (0..holes).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)] // `hole` indexes two rows at once
        for hole in 0..holes {
            for i in 0..pigeons {
                for j in (i + 1)..pigeons {
                    s.add_clause(&[p[i][hole].negative(), p[j][hole].negative()]);
                }
            }
        }
    }

    #[test]
    fn every_axis_combination_agrees_on_random_instances() {
        // 3-SAT with a sprinkle of binary clauses; every combination of the
        // simplification axes (preprocessing, elimination) must reproduce
        // the reference verdict, including under an assumption re-solve
        // (incremental reuse) checked against a solver that never
        // simplifies.
        for seed in 0..8u64 {
            let mut clauses = Vec::new();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let nv = 14i32;
            for k in 0..56 {
                let width = if k % 4 == 0 { 2 } else { 3 };
                let mut c = Vec::new();
                for _ in 0..width {
                    let v = (next() % nv as u64) as i32 + 1;
                    let sign = if next() & 1 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                clauses.push(c);
            }
            let mut reference: Option<SolveResult> = None;
            for bits in 0..4u32 {
                let (preprocess, elim) = (bits & 1 != 0, bits & 2 != 0);
                let mut s = Solver::new();
                s.config.preprocess = preprocess;
                s.config.elim = elim;
                let mut ids = Vec::new();
                for c in &clauses {
                    add(&mut s, &mut ids, c);
                }
                let r = s.solve(&[]);
                match reference {
                    None => reference = Some(r),
                    Some(want) => assert_eq!(r, want, "seed {seed} axes {bits:02b}"),
                }
                if r == SolveResult::Sat {
                    s.debug_check_model();
                    let ra = s.solve(&[ids[0].negative()]);
                    let mut fresh = Solver::new();
                    fresh.config.preprocess = false;
                    fresh.config.elim = false;
                    let mut fids = Vec::new();
                    for c in &clauses {
                        add(&mut fresh, &mut fids, c);
                    }
                    let want = fresh.solve(&[fids[0].negative()]);
                    assert_eq!(ra, want, "seed {seed} axes {bits:02b} assumption");
                }
            }
        }
    }

    #[test]
    fn ema_restarts_are_deterministic_and_counted() {
        let run = || {
            let mut s = Solver::new();
            add_pigeonhole(&mut s, 7, 6);
            assert_eq!(s.solve(&[]), SolveResult::Unsat);
            (
                s.stats.conflicts,
                s.stats.decisions,
                s.stats.propagations,
                s.stats.restarts,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "bit-identical replay");
        assert!(a.3 > 0, "EMA restarts fired");
    }

    #[test]
    fn learned_db_populates_tier_gauges() {
        let mut s = Solver::new();
        add_pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let total = s.stats.tier_core + s.stats.tier_mid + s.stats.tier_local;
        assert_eq!(total, s.num_learned() as u64);
        assert!(s.stats.peak_learnts > 0);
        assert!(s.stats.peak_learnts >= total);
    }

    #[test]
    fn binary_clauses_use_dedicated_lists() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[b.negative(), c.positive()]);
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        assert_eq!(s.bin_watches.iter().map(Vec::len).sum::<usize>(), 4);
        assert_eq!(s.watches.iter().map(Vec::len).sum::<usize>(), 2);
        // The implication chain propagates through the binary lists.
        assert_eq!(s.solve(&[a.positive()]), SolveResult::Sat);
        assert!(s.model_value(c.positive()));
    }

    #[test]
    fn vivify_round_strengthens_and_keeps_proof_checkable() {
        let mut s = Solver::new();
        s.config.proof = true;
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let x = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[b.negative(), c.positive()]);
        // Inject (¬a ∨ c ∨ x) as a kept learned clause: it is implied by
        // the chain above, and asserting `a` propagates `c` true, so
        // vivification must truncate it to (¬a ∨ c).
        let lemma = vec![a.negative(), c.positive(), x.positive()];
        let cref = s.db.alloc(&lemma, true);
        s.db.set_lbd(cref, 3);
        s.db.set_tier(cref, Tier::Mid);
        s.attach(cref);
        s.learnts.push(cref);

        s.vivify_round();
        assert_eq!(s.stats.vivified, 1);
        assert_eq!(s.stats.vivify_lits_removed, 1);
        assert_eq!(s.num_learned(), 1);
        let kept = s.learnts[0];
        assert_eq!(s.db.lits(kept), &[a.negative(), c.positive()][..]);
        assert!(s.db.is_vivified(kept));

        // The trace stays checkable and the solver stays sound.
        assert_eq!(s.solve(&[a.positive()]), SolveResult::Sat);
        assert!(s.model_value(c.positive()));
        let log = s.take_proof().expect("proof recorded");
        // Claimed where it was logged, the vivified clause must be RUP.
        let kept = [a.negative(), c.positive()];
        let at = log
            .steps()
            .position(|st| st == crate::ProofStep::Add(&kept))
            .expect("vivified clause logged");
        let claim = crate::Claim {
            clause: &kept,
            step: at,
        };
        let checked = crate::drat::check_proof(&log, &[claim]).expect("vivified clause is RUP");
        // The injected lemma was never Add-ed to the trace, so its delete is
        // the checker's lenient "ignored" kind.
        assert!(checked.deletions + checked.ignored_deletions >= 1);
    }

    #[test]
    fn vivify_round_skips_clauses_it_cannot_improve() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        // An irredundant lemma over independent variables: nothing to cut.
        let lemma = vec![a.negative(), b.negative(), c.negative()];
        let cref = s.db.alloc(&lemma, true);
        s.db.set_lbd(cref, 3);
        s.db.set_tier(cref, Tier::Core);
        s.attach(cref);
        s.learnts.push(cref);
        s.vivify_round();
        assert_eq!(s.stats.vivified, 0);
        assert!(s.db.is_vivified(cref), "examined once, never re-examined");
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn garbage_collection_reclaims_watch_capacity() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        // Grow one watch list far past its steady-state size with learned
        // clauses, then delete them all: the GC shrink must release bytes.
        for i in 0..200 {
            let lits = vec![
                vars[0].positive(),
                vars[1 + (i % 4)].positive(),
                vars[5].lit(i % 2 == 0),
            ];
            let cref = s.db.alloc(&lits, true);
            s.attach(cref);
            s.learnts.push(cref);
        }
        assert_eq!(s.clear_learned(), 200);
        assert!(
            s.stats.watch_bytes_reclaimed > 0,
            "oversized watch lists were shrunk"
        );
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    /// One tombstone-and-sweep leaves every watch list exactly as a
    /// `detach` per deleted clause does: same entries, same order. The
    /// solvers first search a while, so propagation has reordered the
    /// lists and learned clauses are watched too.
    #[test]
    fn sweeping_deleted_watches_matches_per_clause_detach() {
        type Lists = Vec<Vec<(u32, Lit)>>;
        fn lists(s: &Solver) -> (Lists, Lists) {
            let long = s
                .watches
                .iter()
                .map(|ws| ws.iter().map(|w| (w.cref.0, w.blocker)).collect());
            let bin = s
                .bin_watches
                .iter()
                .map(|ws| ws.iter().map(|w| (w.cref.0, w.other)).collect());
            (long.collect(), bin.collect())
        }
        for seed in 1..=20u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |n: u64| -> u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let n_vars = 30;
            let clauses: Vec<Vec<i32>> = (0..130)
                .map(|_| {
                    let len = 2 + next(3);
                    (0..len)
                        .map(|_| (1 + next(n_vars) as i32) * if next(2) == 0 { 1 } else { -1 })
                        .collect()
                })
                .collect();
            let build = || {
                let mut s = Solver::new();
                s.config.max_conflicts = Some(40);
                let mut ids = Vec::new();
                for c in &clauses {
                    add(&mut s, &mut ids, c);
                }
                s.solve(&[]);
                s
            };
            let (mut detached, mut swept) = (build(), build());
            assert_eq!(lists(&detached), lists(&swept));
            let doomed: Vec<ClauseRef> = detached.db.iter_refs().filter(|_| next(3) == 0).collect();
            for &c in &doomed {
                detached.detach(c);
                detached.db.delete(c);
                swept.db.delete(c);
            }
            swept.sweep_deleted_watches();
            assert_eq!(lists(&detached), lists(&swept), "seed {seed}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        let mut ids = Vec::new();
        for i in 1..=6 {
            add(&mut s, &mut ids, &[i, -(i % 6 + 1)]);
        }
        add(&mut s, &mut ids, &[1, 2, 3]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.num_vars() == 6);
        assert!(s.num_literals() > 0);
        assert!(s.num_constraints() == 7);
    }

    /// 640 random 3-clauses over 150 variables, each satisfied by a
    /// hidden assignment: satisfiable, but it takes real search.
    fn planted_solver(seed: u64) -> Solver {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |k: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % k as u64) as usize
        };
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..150).map(|_| s.new_var()).collect();
        let hidden: Vec<bool> = vars.iter().map(|_| next(2) == 0).collect();
        let mut added = 0;
        while added < 640 {
            let c: Vec<Lit> = (0..3)
                .map(|_| vars[next(vars.len())].lit(next(2) == 0))
                .collect();
            if c.iter().any(|l| hidden[l.var().index()] == l.is_positive()) {
                s.add_clause(&c);
                added += 1;
            }
        }
        s
    }

    #[test]
    fn a_sat_model_becomes_the_target() {
        let mut s = planted_solver(1);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.stats.conflicts > 0, "the instance must take search");
        for (v, &t) in s.target_phase.iter().enumerate() {
            assert_eq!(t, LBool::from_bool(s.model[v]), "var {v}");
        }
        // Deciding toward a model never conflicts: the next call re-finds
        // it without search, and its `target_len` starts from 0 again.
        let conflicts = s.stats.conflicts;
        let model = s.model.clone();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats.conflicts, conflicts);
        assert_eq!(s.model, model);
        assert_eq!(s.target_len, 0, "target_len must reset per solve call");
    }

    #[test]
    fn the_target_grows_only_with_a_longer_conflict_free_prefix() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        let decide = |s: &mut Solver, l: Lit| {
            s.new_decision_level();
            s.assign(l, Reason::None);
            assert!(s.propagate().is_none());
        };
        // Levels 1–3 decide v0, v1, v2: a conflict at level 3 captures the
        // two-literal prefix below it.
        for x in &v[..3] {
            decide(&mut s, x.positive());
        }
        s.update_target();
        assert_eq!(s.target_len, 2);
        let t = |s: &Solver, i: usize| s.target_phase[v[i].index()];
        assert_eq!(
            [t(&s, 0), t(&s, 1), t(&s, 2)],
            [LBool::True, LBool::True, LBool::Undef]
        );
        // A conflict at level 2 of an opposite trail has a shorter prefix:
        // the target keeps its values.
        s.backtrack_to(0);
        decide(&mut s, v[0].negative());
        decide(&mut s, v[1].negative());
        s.update_target();
        assert_eq!(s.target_len, 2);
        assert_eq!(t(&s, 0), LBool::True);
        // Only a longer prefix replaces it, as a whole.
        decide(&mut s, v[2].negative());
        decide(&mut s, v[3].negative());
        s.update_target();
        assert_eq!(s.target_len, 3);
        assert_eq!([t(&s, 0), t(&s, 1), t(&s, 2)], [LBool::False; 3]);
        assert_eq!(t(&s, 3), LBool::Undef);
    }

    #[test]
    fn target_len_resets_per_solve_call_not_per_restart() {
        // Budgeted calls on identical solvers replay one deterministic
        // search to successive depths, so `target_len` after `c` conflicts
        // is the longest prefix of the first `c`: it must never fall, even
        // across restarts.
        let mut last = 0;
        let mut restarts = 0;
        for budget in (100..3_000).step_by(300) {
            let mut s = Solver::new();
            add_pigeonhole(&mut s, 8, 7);
            s.config.max_conflicts = Some(budget);
            assert_eq!(s.solve(&[]), SolveResult::Unknown);
            assert!(
                s.target_len >= last,
                "target_len fell at {budget} conflicts"
            );
            last = s.target_len;
            restarts = s.stats.restarts;
        }
        assert!(restarts >= 2, "the replayed search must span restarts");
        assert!(last > 0);
    }

    #[test]
    fn a_variable_added_after_the_last_update_decides_by_its_saved_phase() {
        let mut s = planted_solver(3);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let w = s.new_var();
        assert_eq!(s.target_phase[w.index()], LBool::Undef);
        s.saved_phase[w.index()] = !DEFAULT_PHASE;
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(w.positive()), !DEFAULT_PHASE);
        assert_eq!(s.target_phase[w.index()], LBool::from_bool(!DEFAULT_PHASE));
    }
}
