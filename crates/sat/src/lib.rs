//! # optalloc-sat
//!
//! A conflict-driven clause-learning (CDCL) SAT solver with **native
//! pseudo-Boolean constraints**, built as the solver substrate for the
//! SAT-based task-allocation system of Metzner, Fränzle, Herde & Stierand,
//! *"An optimal approach to the task allocation problem on hierarchical
//! architectures"* (IPPS 2006). It plays the role the GOBLIN pseudo-Boolean
//! engine plays in the paper (§5.1).
//!
//! The solver accepts a conjunction of
//! - **clauses** — disjunctions of literals, and
//! - **pseudo-Boolean constraints** — linear inequalities `Σ aᵢ·lᵢ ⋈ k`
//!   over literals (`⋈ ∈ {≥, ≤, =}`),
//!
//! and decides satisfiability with full clause learning. Solving **under
//! assumptions** retains every learned clause across calls, which the
//! optimization layer exploits to make the paper's binary search incremental
//! (the §7 "reuse of derived facts" extension).
//!
//! ## Example
//!
//! ```
//! use optalloc_sat::{Solver, SolveResult, PbTerm, PbOp};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! let c = solver.new_var();
//!
//! // Exactly one of a, b, c …
//! let one_of = [
//!     PbTerm::new(a.positive(), 1),
//!     PbTerm::new(b.positive(), 1),
//!     PbTerm::new(c.positive(), 1),
//! ];
//! solver.add_pb(&one_of, PbOp::Eq, 1);
//! // … and it is not a.
//! solver.add_clause(&[a.negative()]);
//!
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert!(!solver.model_value(a.positive()));
//! assert!(solver.model_value(b.positive()) ^ solver.model_value(c.positive()));
//! ```

#![warn(missing_docs)]

mod clause;
mod drat;
mod formula;
mod heap;
mod pb;
mod solver;
mod types;

pub use drat::{check_proof, CheckError, CheckedProof, Claim, ProofLog, ProofStep};
pub use formula::{Formula, ParseError};
pub use pb::{normalize_ge, to_ge_constraints, Normalized, PbOp, PbTerm};
pub use solver::{
    paranoid_env, RestartPolicy, SearchEngine, SolveResult, Solver, SolverConfig, SolverStats,
};
pub use types::{LBool, Lit, Var};
