//! # optalloc-intopt
//!
//! Bounded-integer constraint solving and **optimization** by reduction to
//! propositional satisfiability — the numeric engine of the paper
//! *"An optimal approach to the task allocation problem on hierarchical
//! architectures"* (Metzner, Fränzle, Herde, Stierand; IPPS 2006), §5.
//!
//! The pipeline is exactly the paper's:
//!
//! 1. Boolean combinations of (non)linear integer constraints are built with
//!    [`IntExpr`]/[`BoolExpr`] and collected in an [`IntProblem`];
//! 2. [`IntProblem::triplet_form`] rewrites them to *triplet form*
//!    (Tseitin-style helper-variable introduction with common-subexpression
//!    elimination);
//! 3. the triplets are bit-blasted to a CDCL(PB) solver using two's
//!    complement bit-vectors whose widths come from inferred ranges
//!    ([`Backend::Cnf`] or [`Backend::PseudoBoolean`]);
//! 4. [`IntProblem::minimize`] runs the paper's `BIN_SEARCH` scheme over a
//!    [`CostProber`] that either re-encodes per probe
//!    ([`BinSearchMode::Fresh`]) or reuses one incremental solver with
//!    guard-literal bounds ([`BinSearchMode::Incremental`], the paper's §7
//!    learned-clause-reuse extension); [`WarmEngine`] runs the same loop
//!    over a prober it keeps across requests.
//!
//! ## Example: minimize a nonlinear objective
//!
//! ```
//! use optalloc_intopt::{IntProblem, MinimizeOptions, MinimizeStatus};
//!
//! let mut p = IntProblem::new();
//! let x = p.int_var(0, 20);
//! let y = p.int_var(0, 20);
//! let cost = p.int_var(0, 400);
//! p.assert((x.expr() + y.expr()).ge(10));
//! p.assert(cost.expr().eq(x.expr() * y.expr() + x.expr()));
//! let out = p.minimize(cost, &MinimizeOptions::default());
//! match out.status {
//!     MinimizeStatus::Optimal { value, .. } => assert_eq!(value, 0), // x = 0, y = 10
//!     _ => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]

mod binsearch;
mod blast;
mod bounds;
mod certificate;
mod expr;
mod prober;
mod problem;
mod triplet;
mod warm;

pub use binsearch::{BinSearchMode, EncodeStats, MinimizeOptions, MinimizeOutcome, MinimizeStatus};
pub use blast::{blast, blast_with, Backend, Blast, EncoderOpt};
pub use bounds::Interval;
pub use certificate::{
    Certificate, CertificateError, CertificateSummary, CertifiedWindow, WindowProof,
};
pub use expr::{eval_bool, eval_int, BoolExpr, BoolVar, CmpOp, IntExpr, IntVar};
pub use prober::{CostProber, Probe};
pub use problem::{IntProblem, Model};
pub use triplet::{ArithOp, BoolDef, BoolId, IntDef, IntDefKind, IntId, TripletForm};
pub use warm::{WarmEngine, WarmMode};

// Re-export the PB operator type used by `IntProblem::assert_pb`.
pub use optalloc_sat::PbOp;
