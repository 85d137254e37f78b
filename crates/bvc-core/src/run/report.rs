//! The run report: one result type for every protocol.
//!
//! [`RunReport`] holds each result exactly once: decisions, the scored
//! [`Verdict`], the validity check, round/step counts, message statistics,
//! and the topology + sufficiency metadata.  Fields a protocol does not
//! produce are `None`/empty (e.g. the resource check of the iterative
//! protocol, whose solvability signal is the sufficiency verdict instead).

use super::config::{ProtocolKind, RunConfig};
use crate::approx::ApproxOutput;
use crate::validity::{ValidityCheck, ValidityMode};
use bvc_geometry::{Point, PointMultiset};
use bvc_net::ExecutionStats;
use bvc_topology::{Sufficiency, Topology};

/// How an execution scored against the paper's correctness conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Exact algorithms: all honest decisions identical.  Approximate
    /// algorithms: all honest decisions within ε per coordinate.
    pub agreement: bool,
    /// Every honest decision satisfies the run's validity condition with
    /// respect to the honest inputs (strict hull membership by default; the
    /// relaxed conditions of arXiv:1601.08067 when the run declares them).
    pub validity: bool,
    /// Every honest process decided before the executor's budget ran out.
    pub termination: bool,
    /// Largest L∞ distance between two honest decisions.
    pub max_pairwise_distance: f64,
}

impl Verdict {
    /// `true` when all three conditions hold.
    pub fn all_hold(&self) -> bool {
        self.agreement && self.validity && self.termination
    }

    pub(crate) fn score(
        decisions: &[Point],
        honest_inputs: &[Point],
        terminated: bool,
        tolerance: f64,
        mode: &ValidityMode,
    ) -> Self {
        if decisions.is_empty() || !terminated {
            return Self {
                agreement: false,
                validity: false,
                termination: false,
                max_pairwise_distance: f64::INFINITY,
            };
        }
        let mut max_distance: f64 = 0.0;
        for i in 0..decisions.len() {
            for j in (i + 1)..decisions.len() {
                max_distance = max_distance.max(decisions[i].linf_distance(&decisions[j]));
            }
        }
        let honest = PointMultiset::new(honest_inputs.to_vec());
        let validity = decisions.iter().all(|d| mode.contains(&honest, d));
        Self {
            agreement: max_distance <= tolerance,
            validity,
            termination: true,
            max_pairwise_distance: max_distance,
        }
    }
}

/// A completed BVC execution, whatever the protocol.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub(crate) protocol: ProtocolKind,
    pub(crate) config: RunConfig,
    pub(crate) decisions: Vec<Point>,
    pub(crate) verdict: Verdict,
    pub(crate) validity: Option<ValidityCheck>,
    pub(crate) rounds: usize,
    pub(crate) round_budget: Option<usize>,
    pub(crate) epsilon: Option<f64>,
    pub(crate) stats: ExecutionStats,
    pub(crate) topology: Topology,
    pub(crate) sufficiency: Option<Sufficiency>,
    pub(crate) outputs: Vec<ApproxOutput>,
}

impl RunReport {
    /// The protocol that produced this report.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The configuration the session ran (inputs, seed, adversary, …).
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The honest processes' decisions (index = honest process index).
    pub fn decisions(&self) -> &[Point] {
        &self.decisions
    }

    /// The honest inputs the run was configured with.
    pub fn honest_inputs(&self) -> &[Point] {
        &self.config.honest_inputs
    }

    /// The verdict against (ε-)Agreement / Validity / Termination.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// The validity mode the verdict was scored against.
    pub fn validity_mode(&self) -> &ValidityMode {
        &self.config.validity
    }

    /// The recorded resource check: the protocol's (possibly mode-lowered)
    /// minimum `n` and whether the run meets it.  `None` for the iterative
    /// protocol, whose resource signal is [`sufficiency`](Self::sufficiency).
    pub fn validity(&self) -> Option<&ValidityCheck> {
        self.validity.as_ref()
    }

    /// Rounds (synchronous protocols) or scheduler delivery steps
    /// (asynchronous protocols) executed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The protocol's static round budget, where it has one (the
    /// approximate Step-3 budget; the iterative convergence budget).
    pub fn round_budget(&self) -> Option<usize> {
        self.round_budget
    }

    /// The ε the verdict was judged against (`None` for exact consensus).
    pub fn epsilon(&self) -> Option<f64> {
        self.epsilon
    }

    /// Message statistics of the execution.
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// The topology the run executed on (the complete graph unless the
    /// config declared otherwise).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The iterative protocol's up-front graph-condition check: whether
    /// convergence was expected on this topology at all.  `None` for the
    /// four complete-graph protocols.
    pub fn sufficiency(&self) -> Option<&Sufficiency> {
        self.sufficiency.as_ref()
    }

    /// Full per-process outputs of the approximate protocol (decision,
    /// state history, `|Z_i|` sizes); empty for every other protocol.
    pub fn outputs(&self) -> &[ApproxOutput] {
        &self.outputs
    }

    /// The per-round range `max_l (Ω_l[t] − µ_l[t])` across the honest
    /// processes, computed from the recorded approximate-protocol histories
    /// (index 0 is the range of the inputs).  Empty for protocols that do
    /// not record histories.
    pub fn range_history(&self) -> Vec<f64> {
        if self.outputs.is_empty() {
            return Vec::new();
        }
        let rounds = self
            .outputs
            .iter()
            .map(|o| o.history.len())
            .min()
            .unwrap_or(0);
        (0..rounds)
            .map(|t| {
                let states: Vec<Point> =
                    self.outputs.iter().map(|o| o.history[t].clone()).collect();
                PointMultiset::new(states).coordinate_range()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_all_hold_logic() {
        let verdict = Verdict {
            agreement: true,
            validity: true,
            termination: false,
            max_pairwise_distance: 0.0,
        };
        assert!(!verdict.all_hold());
    }
}
