//! Construction of the cost variable for each [`Objective`].

use super::Encoding;
use crate::options::Objective;
use optalloc_intopt::{IntExpr, IntVar};
use optalloc_model::{MediumId, MediumKind};

/// Errors raised while building the objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjectiveError {
    /// The referenced medium is not TDMA (no rotation time exists).
    NotTdma(MediumId),
    /// The referenced medium is not priority-driven (no bus load objective).
    NotPriority(MediumId),
    /// The architecture has no TDMA medium at all.
    NoTdmaMedia,
}

impl std::fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectiveError::NotTdma(k) => write!(f, "{k} is not a TDMA medium"),
            ObjectiveError::NotPriority(k) => write!(f, "{k} is not a priority medium"),
            ObjectiveError::NoTdmaMedia => write!(f, "architecture has no TDMA media"),
        }
    }
}

impl std::error::Error for ObjectiveError {}

/// The TDMA media whose slot tables become decision variables under the
/// given objective.
pub(crate) fn variable_slot_media(
    arch: &optalloc_model::Architecture,
    objective: &Objective,
) -> Result<Vec<MediumId>, ObjectiveError> {
    match objective {
        Objective::TokenRotationTime(k) => {
            if !arch.medium(*k).is_tdma() {
                return Err(ObjectiveError::NotTdma(*k));
            }
            Ok(vec![*k])
        }
        Objective::SumTokenRotationTimes => {
            let media: Vec<MediumId> = arch
                .iter_media()
                .filter(|(_, m)| m.is_tdma())
                .map(|(k, _)| k)
                .collect();
            if media.is_empty() {
                return Err(ObjectiveError::NoTdmaMedia);
            }
            Ok(media)
        }
        Objective::BusLoadPermille(k) => {
            if arch.medium(*k).is_tdma() {
                return Err(ObjectiveError::NotTdma(*k)); // misuse either way
            }
            Ok(Vec::new())
        }
        Objective::MaxUtilizationPermille
        | Objective::UtilizationSpreadPermille
        | Objective::Feasibility => Ok(Vec::new()),
    }
}

impl Encoding<'_> {
    /// Per-ECU utilization expressions `(Σ ⟦aᵢ=p⟧·⌈1000·cᵢ(p)/tᵢ⌉, upper)`,
    /// one entry per ECU that can host at least one task.
    fn utilization_exprs(&mut self) -> Vec<(IntExpr, i64)> {
        let mut per_ecu: Vec<(IntExpr, i64)> = Vec::new();
        for (pid, _) in self.arch.iter_ecus() {
            let mut terms = Vec::new();
            let mut hi = 0i64;
            for (tid, t) in self.tasks.iter() {
                if let Some(var) = self.alloc[tid.index()].get(&pid) {
                    let coef = (t.wcet_on(pid).unwrap() * 1000).div_ceil(t.period) as i64;
                    hi += coef;
                    let bit = self.b2i(&var.expr());
                    terms.push(bit * coef);
                }
            }
            if !terms.is_empty() {
                per_ecu.push((IntExpr::sum(terms), hi));
            }
        }
        per_ecu
    }

    /// Declares the cost variable and ties it to the objective expression.
    /// [`Objective::Feasibility`] minimizes a cost fixed at 0, so its
    /// bisection is the single unbounded `SOLVE(φ)`.
    pub(crate) fn encode_objective(
        &mut self,
        objective: &Objective,
    ) -> Result<IntVar, ObjectiveError> {
        match objective {
            Objective::Feasibility => Ok(self.problem.int_var(0, 0)),
            Objective::TokenRotationTime(k) => {
                let (round, lo, hi) = self.round_expr(*k);
                let cost = self.problem.int_var(lo, hi);
                self.problem.assert(cost.expr().eq(round));
                Ok(cost)
            }
            Objective::SumTokenRotationTimes => {
                let media: Vec<MediumId> = self.slot_vars.keys().copied().collect();
                if media.is_empty() {
                    return Err(ObjectiveError::NoTdmaMedia);
                }
                let mut lo = 0i64;
                let mut hi = 0i64;
                let mut terms = Vec::new();
                for k in media {
                    let (round, rlo, rhi) = self.round_expr(k);
                    lo += rlo;
                    hi += rhi;
                    terms.push(round);
                }
                let cost = self.problem.int_var(lo, hi);
                self.problem.assert(cost.expr().eq(IntExpr::sum(terms)));
                Ok(cost)
            }
            Objective::BusLoadPermille(k) => {
                match self.arch.medium(*k).kind {
                    MediumKind::Priority => {}
                    MediumKind::Tdma { .. } => return Err(ObjectiveError::NotPriority(*k)),
                }
                let med = self.arch.medium(*k).clone();
                let mut terms = Vec::new();
                let mut hi = 0i64;
                for idx in 0..self.msgs.len() {
                    if !self.msgs[idx].media.contains(k) {
                        continue;
                    }
                    let mid = self.msgs[idx].id;
                    let m = self.tasks.message(mid);
                    let period = self.tasks.task(mid.sender).period;
                    let coef = (med.transmission_time(m.size) * 1000).div_ceil(period) as i64;
                    hi += coef;
                    let used = self.msgs[idx].k_used_int[k].clone();
                    terms.push(used * coef);
                }
                let cost = self.problem.int_var(0, hi.max(0));
                self.problem.assert(cost.expr().eq(IntExpr::sum(terms)));
                Ok(cost)
            }
            Objective::MaxUtilizationPermille => {
                // cost ≥ utilization of every ECU; minimization drives it to
                // the maximum.
                let per_ecu = self.utilization_exprs();
                let hi = per_ecu.iter().map(|&(_, h)| h).max().unwrap_or(0);
                let cost = self.problem.int_var(0, hi.max(1));
                for (util, _) in per_ecu {
                    self.problem.assert(cost.expr().ge(util));
                }
                Ok(cost)
            }
            Objective::UtilizationSpreadPermille => {
                // cost = umax − umin with umax ≥ u_p ≥ umin for all p;
                // minimization tightens both auxiliaries onto the actual
                // extremes. ECUs hosting no eligible task contribute the
                // constant utilization 0.
                let mut per_ecu = self.utilization_exprs();
                // Include empty ECUs as constant-zero utilizations so the
                // spread matches `utilization_minmax_spread_permille`.
                let covered = per_ecu.len();
                if covered < self.arch.num_ecus() {
                    per_ecu.push((IntExpr::constant(0), 0));
                }
                let hi = per_ecu.iter().map(|&(_, h)| h).max().unwrap_or(0).max(1);
                let umax = self.problem.int_var(0, hi);
                let umin = self.problem.int_var(0, hi);
                for (util, _) in &per_ecu {
                    self.problem.assert(umax.expr().ge(util.clone()));
                    self.problem.assert(umin.expr().le(util.clone()));
                }
                let cost = self.problem.int_var(0, hi);
                self.problem
                    .assert(cost.expr().eq(umax.expr() - umin.expr()));
                Ok(cost)
            }
        }
    }
}
