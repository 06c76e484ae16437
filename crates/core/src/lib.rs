//! # optalloc
//!
//! **SAT-based optimal task and message allocation for distributed
//! real-time systems on hierarchical architectures** — a from-scratch Rust
//! implementation of Metzner, Fränzle, Herde & Stierand, *"An optimal
//! approach to the task allocation problem on hierarchical architectures"*
//! (IPPS 2006).
//!
//! Given an [`Architecture`](optalloc_model::Architecture) (ECUs connected
//! by CAN-style priority buses and token-ring-style TDMA buses, linked by
//! gateway ECUs) and a [`TaskSet`](optalloc_model::TaskSet) (periodic tasks
//! with per-ECU WCETs, deadlines, placement/redundancy restrictions and
//! messages), the [`Optimizer`] finds an allocation of tasks to ECUs and of
//! messages to bus routes that is **provably schedulable** — and, given an
//! [`Objective`], **provably optimal**.
//!
//! The pipeline (paper §3–§5):
//!
//! 1. the schedulability conditions (fixed-point response-time analysis for
//!    tasks, CAN and TDMA buses, with path closures, local deadlines and
//!    jitter propagation on hierarchical topologies) are *encoded* as a
//!    Boolean combination of (non)linear integer constraints;
//! 2. the constraints are rewritten to triplet form, bit-blasted, and
//!    handed to a CDCL solver with pseudo-Boolean constraints;
//! 3. a binary search over the cost variable yields the optimum, optionally
//!    reusing learned clauses across probes (the paper's §7 speedup);
//! 4. the satisfying assignment is decoded into an
//!    [`Allocation`](optalloc_model::Allocation) and **independently
//!    re-validated** by the numeric analysis in `optalloc-analysis`.
//!
//! ## Quick start
//!
//! ```
//! use optalloc::{Objective, Optimizer};
//! use optalloc_model::{Architecture, Ecu, Medium, Task, TaskId, TaskSet};
//!
//! // Two ECUs on a CAN bus.
//! let mut arch = Architecture::new();
//! let p0 = arch.push_ecu(Ecu::new("p0"));
//! let p1 = arch.push_ecu(Ecu::new("p1"));
//! let can = arch.push_medium(Medium::priority("can", vec![p0, p1], 1, 1));
//!
//! // A sensor task feeding a control task.
//! let mut tasks = TaskSet::new();
//! let ctrl = TaskId(1);
//! tasks.push(Task::new("sensor", 50, 50, vec![(p0, 10), (p1, 10)]).sends(ctrl, 4, 25));
//! tasks.push(Task::new("control", 50, 40, vec![(p0, 15), (p1, 15)]));
//!
//! let solution = Optimizer::new(&arch, &tasks)
//!     .minimize(&Objective::BusLoadPermille(can))
//!     .unwrap();
//! // Cheapest bus load: co-locate the pair, nothing crosses the bus.
//! assert_eq!(solution.cost, 0);
//! assert!(solution.solution.report.is_feasible());
//! ```

#![warn(missing_docs)]

mod decode;
mod delta;
mod encode;
mod optimizer;
mod options;

pub use delta::{apply_deltas, CostWindow, DeltaError, InstanceDelta};
pub use encode::objective::ObjectiveError;
pub use optimizer::{AllocationSolution, CertificateReport, OptError, OptimizeReport, Optimizer};
pub use options::{Objective, SolveOptions, Strategy};

// The encoder-optimization switch travels with `SolveOptions`; the
// warm-start engine is constructed from `SolveOptions::minimize_options`
// and driven through `Optimizer::minimize_warm`.
pub use optalloc_intopt::{EncoderOpt, WarmEngine, WarmMode};

// Facade re-exports so downstream users need a single dependency.
pub use optalloc_analysis as analysis;
pub use optalloc_intopt as intopt;
pub use optalloc_model as model;
pub use optalloc_portfolio as portfolio;
pub use optalloc_sat as sat;
