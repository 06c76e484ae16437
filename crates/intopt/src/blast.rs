//! Bit-blasting triplet form to SAT (paper §5.1, second step).
//!
//! Every integer definition is represented as a little-endian two's
//! complement bit-vector whose width is derived from its inferred interval,
//! so overflow is impossible by construction. Arithmetic triplets become
//! ripple-carry adders and shift-add multipliers (variable×variable products
//! included — the TDMA blocking terms need them); comparisons become
//! comparator chains.
//!
//! Two back-ends are supported, mirroring the paper's discussion:
//!
//! * [`Backend::Cnf`] — every gate is a set of plain clauses (the encoding
//!   the paper argues *against* for carry logic),
//! * [`Backend::PseudoBoolean`] — carry gates and cardinality use compact
//!   pseudo-Boolean constraints, e.g. the full-adder carry as the paper's
//!   `(2·c̄out + x + y + cin ≥ 2) ∧ (2·cout + x̄ + ȳ + c̄in ≥ 2)` pair.
//!
//! Constant bits are folded at every gate, so fixed operands (periods,
//! deadlines, WCET tables) cost nothing.

use crate::expr::{BoolVar, CmpOp, IntVar};
use crate::triplet::{ArithOp, BoolDef, IntDefKind, TripletForm};
use optalloc_sat::{Lit, PbOp, PbTerm, Solver};
use std::collections::HashMap;

/// How arithmetic gates are encoded.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Pure CNF clauses for every gate.
    Cnf,
    /// Pseudo-Boolean constraints where they are more compact (carries,
    /// cardinality, range bounds) — the paper's GOBLIN encoding.
    PseudoBoolean,
}

/// Which encode-and-solve optimization stages run (all default-on).
///
/// Each stage is independently toggleable so ablations can isolate it:
///
/// * `hash_consing` — structural gate cache in the blaster: `and2`, `or2`,
///   `xor2` and the full-adder carry return the existing literal for a
///   repeated subcircuit instead of re-emitting it, plus the algebraic
///   rewrites (`maj(x,x,z) → x`, `maj(x,x̄,z) → z`) the cache lookups enable.
/// * `narrowing` — forward–backward interval tightening on the triplet form
///   ([`crate::TripletForm::optimize`]) and truncation of adder widths to the
///   forward intervals.
/// * `preprocess` — the SAT solver's level-0 input preprocessing (duplicate/
///   subsumed clause removal and self-subsuming resolution) before the first
///   search.
///
/// All stages are deterministic: variable numbering depends only on the
/// encounter order of cache misses, never on hash-map iteration, so the
/// deterministic window search stays bit-stable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct EncoderOpt {
    /// Structural hashing of gates during bit-blasting.
    pub hash_consing: bool,
    /// Interval narrowing on the triplet form + adder width truncation.
    pub narrowing: bool,
    /// Solver-side level-0 clause preprocessing.
    pub preprocess: bool,
}

impl Default for EncoderOpt {
    fn default() -> EncoderOpt {
        EncoderOpt {
            hash_consing: true,
            narrowing: true,
            preprocess: true,
        }
    }
}

impl EncoderOpt {
    /// All optimization stages disabled (the ablation baseline).
    pub fn none() -> EncoderOpt {
        EncoderOpt {
            hash_consing: false,
            narrowing: false,
            preprocess: false,
        }
    }
}

/// Canonical key of a structurally hashed gate. Operand canonicalization
/// folds the free symmetries: commutative operands sort, XOR inputs are
/// reduced to positive polarity (output polarity compensates), and the
/// self-dual majority flips all inputs when two or more are negated.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum GateKey {
    And(Lit, Lit),
    Xor(Lit, Lit),
    AndMany(Vec<Lit>),
    Maj(Lit, Lit, Lit),
    /// One comparator-chain stage `(x̄ ∧ y) ∨ ((x ↔ y) ∧ prev)`, keyed on
    /// `(x, y, prev)` after canonicalization via
    /// `¬step(x, y, p) = step(y, x, ¬p)`.
    CmpStep(Lit, Lit, Lit),
}

type GateCache = HashMap<GateKey, Lit>;

/// A propositional bit: either a known constant or a solver literal.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Bit {
    Const(bool),
    Lit(Lit),
}

impl Bit {
    fn flip(self) -> Bit {
        match self {
            Bit::Const(b) => Bit::Const(!b),
            Bit::Lit(l) => Bit::Lit(!l),
        }
    }
}

/// A two's complement bit-vector, little-endian; the last bit is the sign.
#[derive(Clone, Debug)]
struct BitVec {
    bits: Vec<Bit>,
}

impl BitVec {
    fn width(&self) -> usize {
        self.bits.len()
    }
}

/// Smallest two's complement width that represents every value in `[lo, hi]`.
fn width_for(lo: i64, hi: i64) -> usize {
    debug_assert!(lo <= hi);
    let mut w = 1;
    while !(-(1i64 << (w - 1)) <= lo && hi < (1i64 << (w - 1))) {
        w += 1;
        assert!(w <= 62, "bit width overflow for range [{lo}, {hi}]");
    }
    w
}

fn const_bitvec(v: i64) -> BitVec {
    let w = width_for(v, v);
    BitVec {
        bits: (0..w).map(|i| Bit::Const(v >> i & 1 == 1)).collect(),
    }
}

/// Result of blasting one [`TripletForm`] into a solver: the mapping from
/// problem variables to solver literals, used for bound constraints and
/// model extraction.
pub struct Blast {
    backend: Backend,
    int_inputs: HashMap<u32, BitVec>,
    bool_inputs: HashMap<u32, Lit>,
    /// Set when an assertion folded to `false` during blasting.
    trivially_unsat: bool,
    true_lit: Option<Lit>,
    /// Structural gate cache (`None` disables hash-consing). Kept for the
    /// blast's lifetime so incremental bound probes share comparator gates
    /// across windows — sound because gate-defining clauses are unguarded.
    cache: Option<GateCache>,
    /// Truncate adder widths to the inferred result intervals.
    narrow: bool,
}

impl Blast {
    /// `true` if an assertion was constant-false (the instance is UNSAT
    /// regardless of the solver).
    pub fn trivially_unsat(&self) -> bool {
        self.trivially_unsat
    }

    /// Reads the model value of an integer input variable after a SAT
    /// verdict. Variables that never occurred in a constraint take their
    /// lower bound.
    pub fn int_value(&self, solver: &Solver, var: IntVar) -> i64 {
        match self.int_inputs.get(&var.id) {
            None => var.lo,
            Some(bv) => {
                let mut v: i64 = 0;
                let w = bv.width();
                for (i, &b) in bv.bits.iter().enumerate() {
                    let set = match b {
                        Bit::Const(c) => c,
                        Bit::Lit(l) => solver.model_value(l),
                    };
                    if set {
                        if i + 1 == w {
                            v -= 1i64 << i;
                        } else {
                            v += 1i64 << i;
                        }
                    }
                }
                v
            }
        }
    }

    /// Reads the model value of a Boolean input variable after a SAT
    /// verdict; variables absent from every constraint read `false`.
    pub fn bool_value(&self, solver: &Solver, var: BoolVar) -> bool {
        self.bool_inputs
            .get(&var.id)
            .map(|&l| solver.model_value(l))
            .unwrap_or(false)
    }

    /// Freezes every solver literal backing `var`'s bit-vector against
    /// variable elimination ([`Solver::freeze_var`]). An incremental prober
    /// re-references these bits on every bounded probe (each
    /// [`Blast::add_guarded_bounds`] call emits fresh clauses over them),
    /// so letting the inprocessing pass eliminate them would force a
    /// restore cycle per window; freezing keeps them resident. Gate outputs
    /// and other inputs stay eligible — the solver's melt-on-reuse restore
    /// reinstates them if a later probe's cache hit resurfaces one.
    pub fn freeze_int_var(&self, solver: &mut Solver, var: IntVar) {
        if let Some(bv) = self.int_inputs.get(&var.id) {
            for &b in &bv.bits {
                if let Bit::Lit(l) = b {
                    solver.freeze_var(l.var());
                }
            }
        }
    }

    /// Adds `guard → (lo ≤ var ≤ hi)` to the solver, for the binary-search
    /// bound constraints (§5.2). The guard is passed as an assumption while
    /// the bound is active.
    pub fn add_guarded_bounds(
        &mut self,
        solver: &mut Solver,
        var: IntVar,
        lo: i64,
        hi: i64,
        guard: Lit,
    ) {
        let bv = match self.int_inputs.get(&var.id) {
            Some(bv) => bv.clone(),
            // The variable occurs in no constraint: bounds on it only
            // matter if they exclude its whole range.
            None => {
                if lo > var.hi || hi < var.lo {
                    solver.add_clause(&[!guard]);
                }
                return;
            }
        };
        let mut g = Gates {
            solver,
            backend: self.backend,
            true_lit: &mut self.true_lit,
            cache: &mut self.cache,
        };
        let ge = g.cmp(CmpOp::Le, &const_bitvec(lo), &bv);
        let le = g.cmp(CmpOp::Le, &bv, &const_bitvec(hi));
        for bit in [ge, le] {
            match bit {
                Bit::Const(true) => {}
                Bit::Const(false) => {
                    solver.add_clause(&[!guard]);
                }
                Bit::Lit(l) => {
                    solver.add_clause(&[!guard, l]);
                }
            }
        }
    }
}

/// Gate construction helpers operating on a solver.
struct Gates<'a> {
    solver: &'a mut Solver,
    backend: Backend,
    true_lit: &'a mut Option<Lit>,
    cache: &'a mut Option<GateCache>,
}

impl Gates<'_> {
    fn fresh(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// A literal constrained to be true (for materializing constants).
    fn true_lit(&mut self) -> Lit {
        if let Some(l) = *self.true_lit {
            return l;
        }
        let l = self.fresh();
        self.solver.add_clause(&[l]);
        *self.true_lit = Some(l);
        l
    }

    fn materialize(&mut self, b: Bit) -> Lit {
        match b {
            Bit::Lit(l) => l,
            Bit::Const(true) => self.true_lit(),
            Bit::Const(false) => !self.true_lit(),
        }
    }

    fn and2(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(false), _) | (_, Bit::Const(false)) => Bit::Const(false),
            (Bit::Const(true), x) | (x, Bit::Const(true)) => x,
            (Bit::Lit(x), Bit::Lit(y)) => {
                if x == y {
                    return Bit::Lit(x);
                }
                if x == !y {
                    return Bit::Const(false);
                }
                let key = GateKey::And(x.min(y), x.max(y));
                if let Some(&g) = self.cache.as_ref().and_then(|c| c.get(&key)) {
                    return Bit::Lit(g);
                }
                let g = self.fresh();
                self.solver.add_clause(&[!g, x]);
                self.solver.add_clause(&[!g, y]);
                self.solver.add_clause(&[g, !x, !y]);
                if let Some(c) = self.cache.as_mut() {
                    c.insert(key, g);
                }
                Bit::Lit(g)
            }
        }
    }

    fn or2(&mut self, a: Bit, b: Bit) -> Bit {
        self.and2(a.flip(), b.flip()).flip()
    }

    fn xor2(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => Bit::Const(x ^ y),
            (Bit::Const(false), x) | (x, Bit::Const(false)) => x,
            (Bit::Const(true), x) | (x, Bit::Const(true)) => x.flip(),
            (Bit::Lit(x), Bit::Lit(y)) => {
                if x == y {
                    return Bit::Const(false);
                }
                if x == !y {
                    return Bit::Const(true);
                }
                if self.cache.is_some() {
                    // Canonicalize to positive inputs: x ⊕ y, x̄ ⊕ y, x ⊕ ȳ
                    // and x̄ ⊕ ȳ all share one gate, the output polarity
                    // absorbs the input signs.
                    let parity = x.is_negative() ^ y.is_negative();
                    let (px, py) = (x.var().positive(), y.var().positive());
                    let key = GateKey::Xor(px.min(py), px.max(py));
                    let g = match self.cache.as_ref().and_then(|c| c.get(&key)) {
                        Some(&g) => g,
                        None => {
                            let g = self.fresh();
                            self.solver.add_clause(&[!g, px, py]);
                            self.solver.add_clause(&[!g, !px, !py]);
                            self.solver.add_clause(&[g, !px, py]);
                            self.solver.add_clause(&[g, px, !py]);
                            self.cache.as_mut().unwrap().insert(key, g);
                            g
                        }
                    };
                    return Bit::Lit(if parity { !g } else { g });
                }
                let g = self.fresh();
                self.solver.add_clause(&[!g, x, y]);
                self.solver.add_clause(&[!g, !x, !y]);
                self.solver.add_clause(&[g, !x, y]);
                self.solver.add_clause(&[g, x, !y]);
                Bit::Lit(g)
            }
        }
    }

    fn iff2(&mut self, a: Bit, b: Bit) -> Bit {
        self.xor2(a, b).flip()
    }

    fn and_many(&mut self, bits: &[Bit]) -> Bit {
        let mut lits = Vec::with_capacity(bits.len());
        for &b in bits {
            match b {
                Bit::Const(false) => return Bit::Const(false),
                Bit::Const(true) => {}
                Bit::Lit(l) => lits.push(l),
            }
        }
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0] == !w[1]) {
            return Bit::Const(false);
        }
        match lits.len() {
            0 => Bit::Const(true),
            1 => Bit::Lit(lits[0]),
            // Binary conjunctions share the and2 cache entry.
            2 if self.cache.is_some() => self.and2(Bit::Lit(lits[0]), Bit::Lit(lits[1])),
            _ => {
                let key = GateKey::AndMany(lits.clone());
                if let Some(&g) = self.cache.as_ref().and_then(|c| c.get(&key)) {
                    return Bit::Lit(g);
                }
                let g = self.fresh();
                for &l in &lits {
                    self.solver.add_clause(&[!g, l]);
                }
                let mut long: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                long.push(g);
                self.solver.add_clause(&long);
                if let Some(c) = self.cache.as_mut() {
                    c.insert(key, g);
                }
                Bit::Lit(g)
            }
        }
    }

    fn or_many(&mut self, bits: &[Bit]) -> Bit {
        let flipped: Vec<Bit> = bits.iter().map(|b| b.flip()).collect();
        self.and_many(&flipped).flip()
    }

    /// Full adder: returns `(sum, carry_out)`.
    fn full_adder(&mut self, a: Bit, b: Bit, cin: Bit) -> (Bit, Bit) {
        let t = self.xor2(a, b);
        let sum = self.xor2(t, cin);
        let cout = match (a, b, cin) {
            // With any constant input the carry reduces to AND/OR.
            (Bit::Const(false), x, y) | (x, Bit::Const(false), y) | (x, y, Bit::Const(false)) => {
                self.and2(x, y)
            }
            (Bit::Const(true), x, y) | (x, Bit::Const(true), y) | (x, y, Bit::Const(true)) => {
                self.or2(x, y)
            }
            (Bit::Lit(x), Bit::Lit(y), Bit::Lit(z)) if self.cache.is_some() => self.maj3(x, y, z),
            (Bit::Lit(x), Bit::Lit(y), Bit::Lit(z)) => {
                let g = self.fresh();
                match self.backend {
                    Backend::PseudoBoolean => {
                        // The paper's compact majority encoding.
                        self.solver.add_pb(
                            &[
                                PbTerm::new(!g, 2),
                                PbTerm::new(x, 1),
                                PbTerm::new(y, 1),
                                PbTerm::new(z, 1),
                            ],
                            PbOp::Ge,
                            2,
                        );
                        self.solver.add_pb(
                            &[
                                PbTerm::new(g, 2),
                                PbTerm::new(!x, 1),
                                PbTerm::new(!y, 1),
                                PbTerm::new(!z, 1),
                            ],
                            PbOp::Ge,
                            2,
                        );
                    }
                    Backend::Cnf => {
                        self.solver.add_clause(&[!x, !y, g]);
                        self.solver.add_clause(&[!x, !z, g]);
                        self.solver.add_clause(&[!y, !z, g]);
                        self.solver.add_clause(&[x, y, !g]);
                        self.solver.add_clause(&[x, z, !g]);
                        self.solver.add_clause(&[y, z, !g]);
                    }
                }
                Bit::Lit(g)
            }
        };
        (sum, cout)
    }

    /// Hash-consed majority gate for the full-adder carry. Applies the
    /// algebraic rewrites `maj(x, x, z) = x` and `maj(x, x̄, z) = z`, then
    /// canonicalizes via the self-duality `maj(x̄, ȳ, z̄) = ¬maj(x, y, z)`
    /// (flip all inputs when at least two are negated, so at most one
    /// canonical input carries a sign) and sorts the operands.
    fn maj3(&mut self, x: Lit, y: Lit, z: Lit) -> Bit {
        for (a, b, c) in [(x, y, z), (x, z, y), (y, z, x)] {
            if a == b {
                return Bit::Lit(a);
            }
            if a == !b {
                return Bit::Lit(c);
            }
        }
        let negs = [x, y, z].iter().filter(|l| l.is_negative()).count();
        let flip = negs >= 2;
        let mut lits = if flip { [!x, !y, !z] } else { [x, y, z] };
        lits.sort_unstable();
        let [a, b, c] = lits;
        let key = GateKey::Maj(a, b, c);
        let g = match self.cache.as_ref().and_then(|m| m.get(&key)) {
            Some(&g) => g,
            None => {
                let g = self.fresh();
                match self.backend {
                    Backend::PseudoBoolean => {
                        self.solver.add_pb(
                            &[
                                PbTerm::new(!g, 2),
                                PbTerm::new(a, 1),
                                PbTerm::new(b, 1),
                                PbTerm::new(c, 1),
                            ],
                            PbOp::Ge,
                            2,
                        );
                        self.solver.add_pb(
                            &[
                                PbTerm::new(g, 2),
                                PbTerm::new(!a, 1),
                                PbTerm::new(!b, 1),
                                PbTerm::new(!c, 1),
                            ],
                            PbOp::Ge,
                            2,
                        );
                    }
                    Backend::Cnf => {
                        self.solver.add_clause(&[!a, !b, g]);
                        self.solver.add_clause(&[!a, !c, g]);
                        self.solver.add_clause(&[!b, !c, g]);
                        self.solver.add_clause(&[a, b, !g]);
                        self.solver.add_clause(&[a, c, !g]);
                        self.solver.add_clause(&[b, c, !g]);
                    }
                }
                self.cache.as_mut().unwrap().insert(key, g);
                g
            }
        };
        Bit::Lit(if flip { !g } else { g })
    }

    /// One stage of the unsigned comparator chain:
    /// `step(x, y, prev) = (x̄ ∧ y) ∨ ((x ↔ y) ∧ prev)` — "strictly below at
    /// this bit, or equal here and already ≤/< on the lower bits". Encoded
    /// as a single six-clause mux gate with **one** auxiliary variable,
    /// replacing the four gates (`lt`, `eq`, `keep`, `or`) of the naive
    /// expansion. Constant operands fold to binary gates; the identity
    /// `¬step(x, y, p) = step(y, x, ¬p)` canonicalizes the cache key so a
    /// comparison and its converse share one gate.
    fn cmp_step(&mut self, x: Bit, y: Bit, prev: Bit) -> Bit {
        match (x, y, prev) {
            // A constant bit reduces the mux to a binary gate:
            // x = 0 → y ∨ p; x = 1 → y ∧ p; y = 0 → x̄ ∧ p; y = 1 → x̄ ∨ p;
            // p = 0 → x̄ ∧ y (strictly-less here); p = 1 → x̄ ∨ y (≤ here).
            (Bit::Const(false), y, p) => self.or2(y, p),
            (Bit::Const(true), y, p) => self.and2(y, p),
            (x, Bit::Const(false), p) => self.and2(x.flip(), p),
            (x, Bit::Const(true), p) => self.or2(x.flip(), p),
            (x, y, Bit::Const(false)) => self.and2(x.flip(), y),
            (x, y, Bit::Const(true)) => self.or2(x.flip(), y),
            (Bit::Lit(x), Bit::Lit(y), Bit::Lit(p)) => {
                if x == y {
                    // Equal bits: the verdict comes from below.
                    return Bit::Lit(p);
                }
                if x == !y {
                    // Unequal bits: x̄ ∧ y = x̄ decides outright.
                    return Bit::Lit(!x);
                }
                let (cx, cy, cp, flip) = if x < y {
                    (x, y, p, false)
                } else {
                    (y, x, !p, true)
                };
                let key = GateKey::CmpStep(cx, cy, cp);
                let g = match self.cache.as_ref().and_then(|c| c.get(&key)) {
                    Some(&g) => g,
                    None => {
                        let g = self.fresh();
                        // cx=0, cy=1 forces g; cx=1, cy=0 forbids it; equal
                        // bits pass cp through.
                        self.solver.add_clause(&[cx, !cy, g]);
                        self.solver.add_clause(&[!cx, cy, !g]);
                        self.solver.add_clause(&[cx, cy, !cp, g]);
                        self.solver.add_clause(&[cx, cy, cp, !g]);
                        self.solver.add_clause(&[!cx, !cy, !cp, g]);
                        self.solver.add_clause(&[!cx, !cy, cp, !g]);
                        if let Some(c) = self.cache.as_mut() {
                            c.insert(key, g);
                        }
                        g
                    }
                };
                Bit::Lit(if flip { !g } else { g })
            }
        }
    }

    /// Sign-extends to exactly `w` bits.
    fn sext(&self, bv: &BitVec, w: usize) -> BitVec {
        debug_assert!(w >= bv.width());
        let sign = *bv.bits.last().unwrap();
        let mut bits = bv.bits.clone();
        bits.resize(w, sign);
        BitVec { bits }
    }

    /// `a + b`, widened so the result is exact.
    fn add(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let w = a.width().max(b.width()) + 1;
        let (a, b) = (self.sext(a, w), self.sext(b, w));
        self.ripple(&a.bits, &b.bits, Bit::Const(false))
    }

    /// `a - b`, widened so the result is exact (`a + ¬b + 1`).
    fn sub(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let w = a.width().max(b.width()) + 1;
        let (a, b) = (self.sext(a, w), self.sext(b, w));
        let nb: Vec<Bit> = b.bits.iter().map(|x| x.flip()).collect();
        self.ripple(&a.bits, &nb, Bit::Const(true))
    }

    /// Sign-extends or truncates to exactly `w` bits. Truncation is the
    /// low-bits slice: two's complement arithmetic mod `2^w` is exact
    /// whenever the true result fits in `w` bits.
    fn fit(&self, bv: &BitVec, w: usize) -> BitVec {
        if bv.width() > w {
            BitVec {
                bits: bv.bits[..w].to_vec(),
            }
        } else {
            self.sext(bv, w)
        }
    }

    /// `a + b` truncated to the width of its inferred interval `[lo, hi]`.
    /// Sound because `[lo, hi]` bounds the true sum in every admitted
    /// assignment, so the dropped high bits never carry information.
    fn add_narrow(&mut self, a: &BitVec, b: &BitVec, lo: i64, hi: i64) -> BitVec {
        let w = width_for(lo, hi);
        let (a, b) = (self.fit(a, w), self.fit(b, w));
        self.ripple(&a.bits, &b.bits, Bit::Const(false))
    }

    /// `a - b` truncated like [`Gates::add_narrow`].
    fn sub_narrow(&mut self, a: &BitVec, b: &BitVec, lo: i64, hi: i64) -> BitVec {
        let w = width_for(lo, hi);
        let (a, b) = (self.fit(a, w), self.fit(b, w));
        let nb: Vec<Bit> = b.bits.iter().map(|x| x.flip()).collect();
        self.ripple(&a.bits, &nb, Bit::Const(true))
    }

    /// Ripple-carry addition over equal-width inputs, truncating the final
    /// carry (callers guarantee the width holds the result).
    fn ripple(&mut self, a: &[Bit], b: &[Bit], mut carry: Bit) -> BitVec {
        debug_assert_eq!(a.len(), b.len());
        let mut bits = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            bits.push(s);
            carry = c;
        }
        BitVec { bits }
    }

    /// `a * b` via shift-and-add, truncated to a width that is exact for the
    /// given result range.
    fn mul(&mut self, a: &BitVec, b: &BitVec, lo: i64, hi: i64) -> BitVec {
        let w = width_for(lo, hi);
        let a = self.sext(a, w.max(a.width()));
        let b = self.sext(b, w.max(b.width()));
        // Truncated two's complement multiply: with both operands extended
        // to ≥ w bits, the low w bits of the product equal the true product
        // whenever it fits in w bits — which the range guarantees.
        let mut acc: Vec<Bit> = vec![Bit::Const(false); w];
        for j in 0..w {
            let bj = b.bits[j.min(b.width() - 1)];
            if bj == Bit::Const(false) {
                continue;
            }
            // addend = (a << j) & bj, truncated to w bits.
            let mut addend: Vec<Bit> = Vec::with_capacity(w);
            for i in 0..w {
                let bit = if i < j {
                    Bit::Const(false)
                } else {
                    let ai = a.bits[(i - j).min(a.width() - 1)];
                    self.and2(ai, bj)
                };
                addend.push(bit);
            }
            acc = self.ripple(&acc, &addend, Bit::Const(false)).bits;
        }
        BitVec { bits: acc }
    }

    /// Comparison `a ∼ b` over signed bit-vectors, returning one bit.
    fn cmp(&mut self, op: CmpOp, a: &BitVec, b: &BitVec) -> Bit {
        let w = a.width().max(b.width());
        let (a, b) = (self.sext(a, w), self.sext(b, w));
        match op {
            CmpOp::Eq => {
                let per_bit: Vec<Bit> = (0..w).map(|i| self.iff2(a.bits[i], b.bits[i])).collect();
                self.and_many(&per_bit)
            }
            CmpOp::Le | CmpOp::Lt => {
                // Flip sign bits to reduce signed to unsigned comparison.
                let mut x = a.bits.clone();
                let mut y = b.bits.clone();
                x[w - 1] = x[w - 1].flip();
                y[w - 1] = y[w - 1].flip();
                let mut acc = Bit::Const(op == CmpOp::Le);
                if self.cache.is_some() {
                    // Optimized chain: one mux gate per bit (see cmp_step).
                    for i in 0..w {
                        acc = self.cmp_step(x[i], y[i], acc);
                    }
                    return acc;
                }
                for i in 0..w {
                    let lt = self.and2(x[i].flip(), y[i]);
                    let eq = self.iff2(x[i], y[i]);
                    let keep = self.and2(eq, acc);
                    acc = self.or2(lt, keep);
                }
                acc
            }
        }
    }
}

/// Encodes a triplet form into `solver` using the chosen backend and the
/// default optimization stages. See [`blast_with`].
pub fn blast(
    form: &TripletForm,
    decls: &[(i64, i64)],
    solver: &mut Solver,
    backend: Backend,
) -> Blast {
    blast_with(form, decls, solver, backend, &EncoderOpt::default())
}

/// Encodes a triplet form into `solver` using the chosen backend and
/// [`EncoderOpt`] stages.
///
/// Returns the [`Blast`] mapping for bound injection and model extraction.
pub fn blast_with(
    form: &TripletForm,
    decls: &[(i64, i64)],
    solver: &mut Solver,
    backend: Backend,
    opt: &EncoderOpt,
) -> Blast {
    let mut out = Blast {
        backend,
        int_inputs: HashMap::new(),
        bool_inputs: HashMap::new(),
        trivially_unsat: false,
        true_lit: None,
        cache: opt.hash_consing.then(GateCache::new),
        narrow: opt.narrowing,
    };
    if form.infeasible() {
        out.trivially_unsat = true;
        return out;
    }
    let mut int_bits: Vec<Option<BitVec>> = vec![None; form.ints.len()];
    let mut bool_bits: Vec<Option<Bit>> = vec![None; form.bools.len()];

    // Integer definitions, in topological order.
    for (idx, def) in form.ints.iter().enumerate() {
        let bv = match &def.kind {
            IntDefKind::Const(v) => const_bitvec(*v),
            IntDefKind::Input(decl) => {
                let (lo, hi) = decls[*decl as usize];
                let bv = fresh_input(&mut out, solver, backend, lo, hi);
                out.int_inputs.insert(*decl, bv.clone());
                bv
            }
            IntDefKind::Op(op, a, b) => {
                let (a, b) = (
                    int_bits[*a as usize].clone().unwrap(),
                    int_bits[*b as usize].clone().unwrap(),
                );
                let narrow = out.narrow;
                let mut g = Gates {
                    solver,
                    backend,
                    true_lit: &mut out.true_lit,
                    cache: &mut out.cache,
                };
                match op {
                    ArithOp::Add if narrow => g.add_narrow(&a, &b, def.lo, def.hi),
                    ArithOp::Sub if narrow => g.sub_narrow(&a, &b, def.lo, def.hi),
                    ArithOp::Add => g.add(&a, &b),
                    ArithOp::Sub => g.sub(&a, &b),
                    ArithOp::Mul => g.mul(&a, &b, def.lo, def.hi),
                }
            }
        };
        int_bits[idx] = Some(bv);
    }

    // Boolean definitions.
    for (idx, def) in form.bools.iter().enumerate() {
        let bit = {
            let mut g = Gates {
                solver,
                backend,
                true_lit: &mut out.true_lit,
                cache: &mut out.cache,
            };
            match def {
                BoolDef::Const(b) => Bit::Const(*b),
                BoolDef::Input(decl) => {
                    let l = *out
                        .bool_inputs
                        .entry(*decl)
                        .or_insert_with(|| solver.new_var().positive());
                    Bit::Lit(l)
                }
                BoolDef::Cmp(op, a, b) => {
                    let (a, b) = (
                        int_bits[*a as usize].clone().unwrap(),
                        int_bits[*b as usize].clone().unwrap(),
                    );
                    g.cmp(*op, &a, &b)
                }
                BoolDef::Not(a) => bool_bits[*a as usize].unwrap().flip(),
                BoolDef::And(ids) => {
                    let bits: Vec<Bit> = ids
                        .iter()
                        .map(|&i| bool_bits[i as usize].unwrap())
                        .collect();
                    g.and_many(&bits)
                }
                BoolDef::Or(ids) => {
                    let bits: Vec<Bit> = ids
                        .iter()
                        .map(|&i| bool_bits[i as usize].unwrap())
                        .collect();
                    g.or_many(&bits)
                }
                BoolDef::Iff(a, b) => {
                    let (x, y) = (
                        bool_bits[*a as usize].unwrap(),
                        bool_bits[*b as usize].unwrap(),
                    );
                    g.iff2(x, y)
                }
            }
        };
        bool_bits[idx] = Some(bit);
    }

    // Root assertions.
    for &root in &form.asserts {
        match bool_bits[root as usize].unwrap() {
            Bit::Const(true) => {}
            Bit::Const(false) => out.trivially_unsat = true,
            Bit::Lit(l) => {
                solver.add_clause(&[l]);
            }
        }
    }

    // Direct PB assertions over Boolean definitions.
    for (terms, op, bound) in &form.pb_asserts {
        let mut g = Gates {
            solver,
            backend,
            true_lit: &mut out.true_lit,
            cache: &mut out.cache,
        };
        let pb_terms: Vec<PbTerm> = terms
            .iter()
            .map(|&(id, coef)| {
                let bit = bool_bits[id as usize].unwrap();
                let l = g.materialize(bit);
                PbTerm::new(l, coef)
            })
            .collect();
        if !solver.add_pb(&pb_terms, *op, *bound) {
            out.trivially_unsat = true;
        }
    }

    out
}

/// Allocates fresh bits for an input variable with range `[lo, hi]` and adds
/// its range constraints.
fn fresh_input(out: &mut Blast, solver: &mut Solver, backend: Backend, lo: i64, hi: i64) -> BitVec {
    if lo == hi {
        return const_bitvec(lo);
    }
    let w = width_for(lo, hi);
    let mut bits: Vec<Bit> = Vec::with_capacity(w);
    if lo >= 0 {
        // Non-negative: fresh value bits, constant-zero sign bit.
        for _ in 0..w - 1 {
            bits.push(Bit::Lit(solver.new_var().positive()));
        }
        bits.push(Bit::Const(false));
    } else {
        for _ in 0..w {
            bits.push(Bit::Lit(solver.new_var().positive()));
        }
    }
    let bv = BitVec { bits };
    // Range constraints (skip bounds that the width already enforces).
    let need_lo = lo > -(1i64 << (w - 1)) && lo != 0;
    let need_hi = hi < (1i64 << (w - 1)) - 1;
    match backend {
        Backend::PseudoBoolean => {
            let mut terms: Vec<PbTerm> = Vec::new();
            for (i, &b) in bv.bits.iter().enumerate() {
                if let Bit::Lit(l) = b {
                    let coef = if i + 1 == w { -(1i64 << i) } else { 1i64 << i };
                    terms.push(PbTerm::new(l, coef));
                }
            }
            if need_lo {
                solver.add_pb(&terms, PbOp::Ge, lo);
            }
            if need_hi {
                solver.add_pb(&terms, PbOp::Le, hi);
            }
        }
        Backend::Cnf => {
            let mut g = Gates {
                solver,
                backend,
                true_lit: &mut out.true_lit,
                cache: &mut out.cache,
            };
            if need_lo {
                let ok = g.cmp(CmpOp::Le, &const_bitvec(lo), &bv);
                let l = g.materialize(ok);
                g.solver.add_clause(&[l]);
            }
            if need_hi {
                let ok = g.cmp(CmpOp::Le, &bv, &const_bitvec(hi));
                let l = g.materialize(ok);
                g.solver.add_clause(&[l]);
            }
        }
    }
    bv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_ranges() {
        assert_eq!(width_for(0, 0), 1);
        assert_eq!(width_for(0, 1), 2);
        assert_eq!(width_for(-1, 0), 1);
        assert_eq!(width_for(-2, 1), 2);
        assert_eq!(width_for(0, 127), 8);
        assert_eq!(width_for(0, 128), 9);
        assert_eq!(width_for(-128, 127), 8);
    }

    #[test]
    fn hash_consing_reuses_gates() {
        let mut solver = Solver::new();
        let mut tl = None;
        let mut cache = Some(GateCache::new());
        let mut g = Gates {
            solver: &mut solver,
            backend: Backend::Cnf,
            true_lit: &mut tl,
            cache: &mut cache,
        };
        let x = g.fresh();
        let y = g.fresh();
        let a1 = g.and2(Bit::Lit(x), Bit::Lit(y));
        let a2 = g.and2(Bit::Lit(y), Bit::Lit(x));
        assert_eq!(a1, a2, "commuted and2 must hit the cache");
        // or2(x̄, ȳ) = ¬and2(x, y): shares the same gate.
        let o = g.or2(Bit::Lit(!x), Bit::Lit(!y));
        assert_eq!(o, a1.flip());
        // XOR polarity canonicalization: all four sign combinations share
        // one gate, with the output sign absorbing the input signs.
        let x1 = g.xor2(Bit::Lit(x), Bit::Lit(y));
        let x2 = g.xor2(Bit::Lit(!x), Bit::Lit(y));
        let x3 = g.xor2(Bit::Lit(!x), Bit::Lit(!y));
        assert_eq!(x2, x1.flip());
        assert_eq!(x3, x1);
        let before = g.solver.num_vars();
        let x4 = g.xor2(Bit::Lit(y), Bit::Lit(!x));
        assert_eq!(x4, x1.flip());
        assert_eq!(g.solver.num_vars(), before, "cache hit allocated a var");
    }

    #[test]
    fn majority_rewrites_and_self_duality() {
        let mut solver = Solver::new();
        let mut tl = None;
        let mut cache = Some(GateCache::new());
        let mut g = Gates {
            solver: &mut solver,
            backend: Backend::Cnf,
            true_lit: &mut tl,
            cache: &mut cache,
        };
        let x = g.fresh();
        let y = g.fresh();
        let z = g.fresh();
        assert_eq!(g.maj3(x, x, z), Bit::Lit(x));
        assert_eq!(g.maj3(x, !x, z), Bit::Lit(z));
        let m = g.maj3(x, y, z);
        // maj(x̄, ȳ, z̄) = ¬maj(x, y, z) via the flip canonicalization.
        assert_eq!(g.maj3(!x, !y, !z), m.flip());
        // Any permutation hits the same entry.
        assert_eq!(g.maj3(z, x, y), m);
    }

    #[test]
    fn narrowed_addition_truncates_but_stays_exact() {
        use crate::expr::IntVar;
        // x + y with x, y ∈ [0, 200] but the sum asserted ≤ 9: the narrowed
        // encoding uses 5-bit adders yet must agree with the wide one.
        for opt in [EncoderOpt::none(), EncoderOpt::default()] {
            let x = IntVar {
                id: 0,
                lo: 0,
                hi: 200,
            };
            let y = IntVar {
                id: 1,
                lo: 0,
                hi: 200,
            };
            let sum = x.expr() + y.expr();
            let mut tf = TripletForm::new();
            tf.assert(&sum.le(9));
            tf.assert(&sum.ge(9));
            tf.assert(&x.expr().ge(4));
            let mut decls = vec![(0, 200), (0, 200)];
            if opt.narrowing {
                tf.optimize(&mut decls);
            }
            let mut solver = Solver::new();
            let bl = blast_with(&tf, &decls, &mut solver, Backend::Cnf, &opt);
            assert!(!bl.trivially_unsat());
            assert!(matches!(solver.solve(&[]), optalloc_sat::SolveResult::Sat));
            let xv = bl.int_value(&solver, x);
            let yv = bl.int_value(&solver, y);
            assert_eq!(xv + yv, 9, "opt {opt:?}");
            assert!((4..=9).contains(&xv), "opt {opt:?}: x = {xv}");
        }
    }

    #[test]
    fn mux_comparator_agrees_with_naive_chain() {
        use crate::expr::IntVar;
        // Exhaustive check of the single-gate-per-bit comparator: for every
        // (a, b) pair the optimized chain must decide a ≤ b and a < b
        // exactly like the unoptimized one. Narrowing is off so the Cmp
        // runs over real literal bit-vectors, not folded constants.
        let gates_only = EncoderOpt {
            hash_consing: true,
            narrowing: false,
            preprocess: false,
        };
        for a in -3i64..=4 {
            for b in -3i64..=4 {
                for op in [CmpOp::Le, CmpOp::Lt] {
                    let x = IntVar {
                        id: 0,
                        lo: -3,
                        hi: 4,
                    };
                    let y = IntVar {
                        id: 1,
                        lo: -3,
                        hi: 4,
                    };
                    let expected = match op {
                        CmpOp::Le => a <= b,
                        CmpOp::Lt => a < b,
                        CmpOp::Eq => unreachable!(),
                    };
                    for opt in [EncoderOpt::none(), gates_only] {
                        let mut tf = TripletForm::new();
                        tf.assert(&x.expr().eq(a));
                        tf.assert(&y.expr().eq(b));
                        let cmp = match op {
                            CmpOp::Le => x.expr().le(y.expr()),
                            CmpOp::Lt => x.expr().lt(y.expr()),
                            CmpOp::Eq => unreachable!(),
                        };
                        tf.assert(&cmp);
                        let mut solver = Solver::new();
                        let bl =
                            blast_with(&tf, &[(-3, 4), (-3, 4)], &mut solver, Backend::Cnf, &opt);
                        let sat = !bl.trivially_unsat()
                            && matches!(solver.solve(&[]), optalloc_sat::SolveResult::Sat);
                        assert_eq!(
                            sat, expected,
                            "{a} {op:?} {b} with {opt:?}: expected {expected}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn infeasible_form_blasts_to_trivially_unsat() {
        use crate::expr::IntVar;
        let x = IntVar {
            id: 0,
            lo: 0,
            hi: 9,
        };
        let mut tf = TripletForm::new();
        tf.assert(&x.expr().ge(5));
        tf.assert(&x.expr().lt(5));
        let mut decls = vec![(0, 9)];
        tf.optimize(&mut decls);
        let mut solver = Solver::new();
        let bl = blast_with(
            &tf,
            &decls,
            &mut solver,
            Backend::Cnf,
            &EncoderOpt::default(),
        );
        assert!(bl.trivially_unsat());
    }

    #[test]
    fn const_bitvec_roundtrip() {
        for v in [-5i64, -1, 0, 1, 6, 100] {
            let bv = const_bitvec(v);
            let mut got = 0i64;
            let w = bv.width();
            for (i, b) in bv.bits.iter().enumerate() {
                if let Bit::Const(true) = b {
                    if i + 1 == w {
                        got -= 1 << i;
                    } else {
                        got += 1 << i;
                    }
                }
            }
            assert_eq!(got, v, "roundtrip of {v}");
        }
    }
}
