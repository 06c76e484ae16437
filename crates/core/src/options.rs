//! Configuration of the encoder and optimizer.

use optalloc_analysis::{
    bus_load_permille, ecu_utilization_permille, sum_trt, token_rotation_time,
    utilization_minmax_spread_permille,
};
use optalloc_intopt::{Backend, BinSearchMode, EncoderOpt, MinimizeOptions};
use optalloc_model::{Allocation, Architecture, MediumId, TaskSet, Time};
use optalloc_obs::{Obs, ProgressHook};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// What the optimizer minimizes (paper §6).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Objective {
    /// Minimize the token rotation time (round length Λ) of one TDMA
    /// medium — the \[5\] benchmark objective of Table 1. The medium's slot
    /// lengths become decision variables.
    TokenRotationTime(MediumId),
    /// Minimize the sum of token rotation times over all TDMA media —
    /// Table 4's objective. All TDMA slot tables become decision variables.
    SumTokenRotationTimes,
    /// Minimize the bus load `U = Σ ρₘ/tₘ` (in ‰) of one priority medium —
    /// the Table 1 CAN variant.
    BusLoadPermille(MediumId),
    /// Minimize the maximum per-ECU processor utilization (in ‰) — the
    /// utilization-balancing objective §4 mentions.
    MaxUtilizationPermille,
    /// Minimize the spread between the most and least utilized ECU (in ‰) —
    /// the "difference to the average utilization" balance goal of §4,
    /// realized as a max−min band.
    UtilizationSpreadPermille,
    /// No objective: find any feasible allocation. Encoded as a cost
    /// fixed at 0, so the bisection's only probe is the unbounded
    /// `SOLVE(φ)`.
    Feasibility,
}

impl Objective {
    /// The objective value of `alloc`, computed by the independent analysis
    /// layer with no encoder artifacts involved — so a match between this
    /// and the solver's claimed optimum closes the encoder out of the
    /// trusted base.
    pub(crate) fn value(&self, arch: &Architecture, tasks: &TaskSet, alloc: &Allocation) -> i64 {
        match self {
            Objective::TokenRotationTime(m) => {
                token_rotation_time(arch, alloc, *m).unwrap_or(0) as i64
            }
            Objective::SumTokenRotationTimes => sum_trt(arch, alloc) as i64,
            Objective::BusLoadPermille(m) => bus_load_permille(arch, tasks, alloc, *m) as i64,
            Objective::MaxUtilizationPermille => {
                ecu_utilization_permille(tasks, alloc, arch.num_ecus())
                    .into_iter()
                    .max()
                    .unwrap_or(0) as i64
            }
            Objective::UtilizationSpreadPermille => {
                utilization_minmax_spread_permille(tasks, alloc, arch.num_ecus()) as i64
            }
            Objective::Feasibility => 0,
        }
    }
}

/// How many workers search the encoded problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// One `BIN_SEARCH` run, configured by `mode`/`backend` (the paper's
    /// setup).
    Single,
    /// A parallel window search: workers probe **disjoint** sub-windows of
    /// the remaining cost interval in conflict-sliced barrier rounds, so the
    /// terminal UNSAT certification is divided across workers instead of
    /// repeated per worker, and the output is bit-stable (see the
    /// `optalloc-portfolio` crate's `window` module).
    WindowSearch {
        /// Number of workers (one worker runs the same search as
        /// [`Strategy::Single`] in incremental mode).
        workers: usize,
        /// Has no effect: the window search always runs barrier rounds.
        /// Kept only until its last caller stops setting it.
        deterministic: bool,
    },
}

/// Encoder and search options.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Service cost charged per gateway crossing (ticks). Must match the
    /// `AnalysisConfig` used for validation; the optimizer keeps them in
    /// sync automatically.
    pub gateway_service: Time,
    /// Upper bound for TDMA slot-length decision variables (ticks).
    pub max_slot: Time,
    /// Encode preemption cost per co-location case (`(aᵢ=aⱼ=p) → pc =
    /// I·cⱼ(p)`, constant multiplier) instead of the paper's literal
    /// eq. (7) product `pc = I·wcetⱼ` (variable×variable). Semantically
    /// identical; an ablation knob for encoding-size experiments.
    pub product_elimination: bool,
    /// Gate-encoding backend for bit-blasting.
    pub backend: Backend,
    /// Binary-search mode (fresh re-encoding vs. incremental solver).
    pub mode: BinSearchMode,
    /// Per-`SOLVE` conflict budget; `None` = unlimited.
    pub max_conflicts: Option<u64>,
    /// Warm-start hint: a cost value known to be attainable (e.g. from the
    /// simulated-annealing baseline or a planted allocation). The first
    /// binary-search probe is bounded by it.
    pub initial_upper: Option<i64>,
    /// Account for interferer release jitter in task response times
    /// (`⌈(rᵢ + Jⱼ)/tⱼ⌉`) — one of the "release jitter, blocking factors,
    /// etc." extensions the paper's §2 mentions. Off = the literal eq. (1).
    pub task_jitter: bool,
    /// Single search vs. parallel window search.
    pub strategy: Strategy,
    /// Encoder-level optimizations (gate hash-consing, interval narrowing,
    /// SAT preprocessing). Default all-on; [`EncoderOpt::none`] reproduces
    /// the unoptimized baseline encoding for ablations.
    pub encoder_opt: EncoderOpt,
    /// Produce and check an optimality certificate: every solver records a
    /// DRAT proof trace, the optimum ships with refutations of all cheaper
    /// cost windows, and the optimizer verifies the proofs with the
    /// built-in backward checker plus an independent witness replay (the
    /// decoded allocation is re-analyzed and its objective value recomputed
    /// without the encoder). Adds proof-logging overhead to the search.
    pub certify: bool,
    /// Cooperative cancellation flag. When set, every solver the run
    /// creates polls it and aborts with an *interrupted* verdict once it is
    /// raised — the hook a job-scoped service timeout or shutdown uses. A
    /// long-lived flag may be **reset** (store `false`) between runs and
    /// reused; replacing the `Arc` after a search started has no effect on
    /// that search.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Checked-mode solving: every solver the run creates walks its deep
    /// invariants at solve/restart boundaries and re-verifies each model
    /// (see `optalloc_sat::SolverConfig::paranoid`). Much slower —
    /// intended for fuzz campaigns and debugging. Defaults to on in debug
    /// builds when the `OPTALLOC_PARANOID` environment variable is set.
    pub paranoid: bool,
    /// Observability handle threaded into every solver the run creates.
    /// [`Obs::disabled`] (the default) costs a single branch on solver hot
    /// paths; an [`Obs::enabled`] handle records phase spans
    /// (encode → preprocess → search → bisect-window → certify) and a
    /// metrics registry, exportable as JSONL or Chrome `trace_event` files
    /// (see `docs/OBSERVABILITY.md`).
    pub obs: Obs,
    /// Live progress hook: throttled [`optalloc_obs::ProgressEvent`]s from
    /// inside every search (conflict rate, restarts, learnt-DB tiers,
    /// current cost window). Window search stamps each worker's events
    /// with its index.
    pub progress: Option<ProgressHook>,
}

impl SolveOptions {
    /// The [`MinimizeOptions`] these solve options translate to — exactly
    /// what [`Optimizer::minimize`](crate::Optimizer::minimize) hands the
    /// binary search. Construct warm-start engines
    /// ([`optalloc_intopt::WarmEngine`]) from this so the engine's search
    /// behaviour (backend, certification, interrupt flag) matches the
    /// optimizer's by construction.
    pub fn minimize_options(&self) -> MinimizeOptions {
        let mut opts = MinimizeOptions {
            backend: self.backend,
            mode: self.mode,
            initial_upper: self.initial_upper,
            encoder_opt: self.encoder_opt,
            certify: self.certify,
            ..MinimizeOptions::default()
        };
        opts.solver_config.max_conflicts = self.max_conflicts;
        opts.solver_config.interrupt = self.interrupt.clone();
        opts.solver_config.paranoid = self.paranoid;
        opts.solver_config.obs = self.obs.clone();
        opts.solver_config.progress = self.progress.clone();
        opts
    }
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            gateway_service: 2,
            max_slot: 64,
            product_elimination: false,
            backend: Backend::PseudoBoolean,
            mode: BinSearchMode::Incremental,
            max_conflicts: None,
            initial_upper: None,
            task_jitter: false,
            strategy: Strategy::Single,
            encoder_opt: EncoderOpt::default(),
            certify: false,
            interrupt: None,
            paranoid: cfg!(debug_assertions) && optalloc_sat::paranoid_env(),
            obs: Obs::disabled(),
            progress: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let o = SolveOptions::default();
        assert!(!o.product_elimination, "eq. (7) product is the default");
        assert_eq!(o.backend, Backend::PseudoBoolean);
        assert_eq!(o.mode, BinSearchMode::Incremental);
    }
}
