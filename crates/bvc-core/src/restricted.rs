//! Approximate BVC with the restricted (simple) round structure (Section 4).
//!
//! Section 4 of the paper considers iterative algorithms with the simplest
//! possible round structure — each round is a single all-to-all state
//! exchange, with no AAD-style witness machinery — and shows that the price of
//! that simplicity is a higher resilience requirement:
//!
//! * synchronous rounds: `n ≥ (d + 2)f + 1`;
//! * asynchronous rounds: `n ≥ (d + 4)f + 1`.
//!
//! Both algorithms keep the same Step-2 update rule as Section 3.2 (points of
//! `Γ(Φ(C))` for `(n−f)`-sized subsets `C` of the received vectors, averaged),
//! with `B_i[t]` simply redefined as the set of state vectors received in the
//! round.  The correctness argument rests on the received sets of any two
//! non-faulty processes sharing at least `(d+1)f + 1` identical vectors, which
//! the bounds above guarantee.
//!
//! Both are an [`IterateCore`] under a collection rule (see [`crate::rounds`]):
//! [`StateExchangeProcess::restricted_sync`] is the lock-step exchange with
//! everyone as recipients, [`RestrictedAsyncProcess`] waits for the first
//! `n − f − 1` round-`t` states.  The forging adversary of both is
//! [`bvc_adversary::StateForger`] over [`StateMsg::new`].

use crate::config::BvcConfig;
use crate::convergence::{gamma, round_threshold};
use crate::rounds::{IterateCore, StateExchangeProcess};
use bvc_geometry::{Point, SharedGammaCache};
use bvc_net::{broadcast_to_all, AsyncProcess, Outgoing, ProcessId};
use std::collections::BTreeMap;

/// Message of the restricted-round protocols: the sender's state vector for a
/// given round.
#[derive(Debug, Clone, PartialEq)]
pub struct StateMsg {
    /// Round the state belongs to (1-based).
    pub round: usize,
    /// The sender's state vector `v[round − 1]`.
    pub state: Point,
}

impl StateMsg {
    /// The round-`round` report of `state`.
    pub fn new(round: usize, state: Point) -> Self {
        Self { round, state }
    }
}

/// The round budget used by both restricted algorithms: the same static
/// termination rule as Section 3.2, with `γ = 1/(n·C(n,n−f))`.
pub fn restricted_round_budget(config: &BvcConfig) -> usize {
    round_threshold(
        gamma(config.n, config.f),
        config.lower_bound,
        config.upper_bound,
        config.epsilon,
    )
}

impl StateExchangeProcess {
    /// Honest process `me` of the restricted-round **synchronous** algorithm
    /// (`n ≥ (d+2)f + 1`): every round it sends its state to everyone, and
    /// `B_i[t]` is what arrived plus its own state.  The executor needs
    /// `restricted_round_budget + 1` rounds, the last one closing the final
    /// inbox.  Step 2 asks Γ through `cache`, the run's; what that buys here
    /// is measured in
    /// [`build_zi_full_cached`](crate::witness::build_zi_full_cached).
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d` or
    /// `config.f == 0`.
    pub fn restricted_sync(
        config: BvcConfig,
        me: usize,
        input: Point,
        cache: SharedGammaCache,
    ) -> Self {
        let budget = restricted_round_budget(&config);
        let everyone_else = (0..config.n).filter(|&to| to != me).collect();
        let core = IterateCore::new(config, me, input, budget, cache);
        let core = core.requiring_a_fault("StateExchangeProcess::restricted_sync");
        Self::new(core, everyone_else, subset_average)
    }
}

/// Step 2 of Section 3.2 on `B_i[t]`: one Γ point per `(n−f)`-subset,
/// averaged.  Below a quorum of reports the state is kept.
fn subset_average(core: &IterateCore, reports: &[&Point]) -> Option<Point> {
    let quorum = core.config.n - core.config.f;
    if reports.len() < quorum {
        return None;
    }
    let (average, _) = core
        .gamma_cache
        .subset_centroid(reports, quorum, core.config.f);
    average
}

/// Honest process of the restricted-round **asynchronous** algorithm
/// (`n ≥ (d+4)f + 1`): in each round it broadcasts its state, waits for
/// `n − f − 1` round-`t` states from other processes, and applies the same
/// update rule.
pub struct RestrictedAsyncProcess {
    core: IterateCore,
    current_round: usize,
    /// Received state vectors per round, at most one per sender.
    received: BTreeMap<usize, BTreeMap<usize, Point>>,
}

impl RestrictedAsyncProcess {
    /// Creates the honest process with index `me` and input `input`, asking
    /// Γ through `cache`, the run's: asynchronous processes see overlapping
    /// (not identical) `B_i[t]` sets, so the sharing is partial but still
    /// substantial.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d` or
    /// `config.f == 0`.
    pub fn new(config: BvcConfig, me: usize, input: Point, cache: SharedGammaCache) -> Self {
        let budget = restricted_round_budget(&config);
        let core = IterateCore::new(config, me, input, budget, cache);
        Self {
            core: core.requiring_a_fault("RestrictedAsyncProcess"),
            current_round: 0,
            received: BTreeMap::new(),
        }
    }

    /// State, history, budget and decision.
    pub fn core(&self) -> &IterateCore {
        &self.core
    }

    fn start_round(&mut self, round: usize) -> Vec<Outgoing<StateMsg>> {
        self.current_round = round;
        broadcast_to_all(
            self.core.config.n,
            Some(ProcessId::new(self.core.me)),
            &StateMsg::new(round, self.core.state().clone()),
        )
    }

    fn try_advance(&mut self) -> Vec<Outgoing<StateMsg>> {
        let mut out = Vec::new();
        let (n, f) = (self.core.config.n, self.core.config.f);
        while self.core.decision().is_none() {
            let round = self.current_round;
            // B_i[t]: own state plus the first n − f − 1 received vectors.
            let received = self.received.get(&round).into_iter().flatten();
            let mut entries: Vec<&Point> = vec![self.core.state()];
            entries.extend(received.map(|(_, state)| state).take(n - f - 1));
            if entries.len() < n - f {
                break;
            }
            let next = subset_average(&self.core, &entries);
            if !self.core.close_round(round, next) {
                out.extend(self.start_round(round + 1));
            }
        }
        out
    }
}

impl AsyncProcess for RestrictedAsyncProcess {
    type Msg = StateMsg;
    type Output = Point;

    fn on_start(&mut self) -> Vec<Outgoing<StateMsg>> {
        let mut out = self.start_round(1);
        out.extend(self.try_advance());
        out
    }

    fn on_message(&mut self, from: ProcessId, msg: StateMsg) -> Vec<Outgoing<StateMsg>> {
        let core = &self.core;
        if msg.state.dim() != core.config.d || msg.round == 0 || msg.round > core.budget() {
            return Vec::new();
        }
        self.received
            .entry(msg.round)
            .or_default()
            .entry(from.index())
            .or_insert(msg.state);
        self.try_advance()
    }

    fn output(&self) -> Option<Point> {
        self.core.decision().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_adversary::{ByzantineStrategy, PointForge, StateForger};
    use bvc_geometry::GammaCache;
    use bvc_net::{AsyncNetwork, DeliveryPolicy, SyncNetwork, SyncProcess};

    fn config(n: usize, f: usize, d: usize, eps: f64) -> BvcConfig {
        BvcConfig::new(n, f, d)
            .unwrap()
            .with_epsilon(eps)
            .unwrap()
            .with_value_bounds(0.0, 1.0)
            .unwrap()
    }

    fn assert_eps_agreement(decisions: &[Point], eps: f64) {
        for pair in decisions.windows(2) {
            assert!(
                pair[0].linf_distance(&pair[1]) <= eps,
                "ε-agreement violated: {} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    use crate::validity::assert_strict_validity as assert_validity;

    fn run_sync(
        n: usize,
        f: usize,
        d: usize,
        eps: f64,
        honest_inputs: Vec<Point>,
        strategy: ByzantineStrategy,
        seed: u64,
    ) -> (Vec<Point>, Vec<Point>) {
        let cfg = config(n, f, d, eps);
        let rounds = restricted_round_budget(&cfg) + 3;
        let cache = GammaCache::shared();
        let mut processes: Vec<Box<dyn SyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(StateExchangeProcess::restricted_sync(
                cfg.clone(),
                i,
                input.clone(),
                cache.clone(),
            )));
        }
        for b in 0..f {
            let me = n - f + b;
            let mut forge = PointForge::new(strategy, d, 0.0, 1.0, seed + b as u64);
            forge.set_honest_value(Point::uniform(d, 0.5));
            processes.push(Box::new(StateForger::new(
                (0..n).filter(|&to| to != me).collect(),
                rounds,
                forge,
                StateMsg::new,
            )));
        }
        let honest: Vec<usize> = (0..n - f).collect();
        let outcome = SyncNetwork::new(processes, rounds).run(&honest);
        let decisions = honest
            .iter()
            .map(|&i| outcome.outputs[i].clone().expect("honest decision"))
            .collect();
        (decisions, honest_inputs)
    }

    fn run_async(
        n: usize,
        f: usize,
        d: usize,
        eps: f64,
        honest_inputs: Vec<Point>,
        strategy: ByzantineStrategy,
        seed: u64,
    ) -> (Vec<Point>, Vec<Point>) {
        let cfg = config(n, f, d, eps);
        let cache = GammaCache::shared();
        let mut processes: Vec<Box<dyn AsyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(RestrictedAsyncProcess::new(
                cfg.clone(),
                i,
                input.clone(),
                cache.clone(),
            )));
        }
        for b in 0..f {
            let me = n - f + b;
            let mut forge = PointForge::new(strategy, d, 0.0, 1.0, seed + b as u64);
            forge.set_honest_value(Point::uniform(d, 0.5));
            processes.push(Box::new(StateForger::new(
                (0..n).filter(|&to| to != me).collect(),
                restricted_round_budget(&cfg),
                forge,
                StateMsg::new,
            )));
        }
        let honest: Vec<usize> = (0..n - f).collect();
        let outcome =
            AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, seed, 2_000_000).run(&honest);
        assert!(outcome.completed, "honest processes must terminate");
        let decisions = honest
            .iter()
            .map(|&i| outcome.outputs[i].clone().expect("honest decision"))
            .collect();
        (decisions, honest_inputs)
    }

    #[test]
    fn sync_restricted_scalar_with_outlier() {
        // d = 1, f = 1: n ≥ (1+2)·1+1 = 4.
        let inputs = vec![
            Point::new(vec![0.0]),
            Point::new(vec![0.4]),
            Point::new(vec![1.0]),
        ];
        let (decisions, honest) =
            run_sync(4, 1, 1, 0.05, inputs, ByzantineStrategy::FixedOutlier, 3);
        assert_eps_agreement(&decisions, 0.05);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn sync_restricted_planar_with_equivocation() {
        // d = 2, f = 1: n ≥ 5.
        let inputs = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![0.8, 0.8]),
        ];
        let (decisions, honest) = run_sync(5, 1, 2, 0.1, inputs, ByzantineStrategy::Equivocate, 7);
        assert_eps_agreement(&decisions, 0.1);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn sync_restricted_crash_fault() {
        let inputs = vec![
            Point::new(vec![0.2]),
            Point::new(vec![0.6]),
            Point::new(vec![0.8]),
        ];
        let (decisions, honest) = run_sync(4, 1, 1, 0.05, inputs, ByzantineStrategy::Crash(2), 9);
        assert_eps_agreement(&decisions, 0.05);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn async_restricted_scalar_with_anti_convergence() {
        // d = 1, f = 1: n ≥ (1+4)·1+1 = 6.
        let inputs = vec![
            Point::new(vec![0.0]),
            Point::new(vec![0.2]),
            Point::new(vec![0.6]),
            Point::new(vec![0.9]),
            Point::new(vec![1.0]),
        ];
        let (decisions, honest) =
            run_async(6, 1, 1, 0.1, inputs, ByzantineStrategy::AntiConvergence, 11);
        assert_eps_agreement(&decisions, 0.1);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn async_restricted_silent_fault() {
        let inputs = vec![
            Point::new(vec![0.1]),
            Point::new(vec![0.3]),
            Point::new(vec![0.5]),
            Point::new(vec![0.7]),
            Point::new(vec![0.9]),
        ];
        let (decisions, honest) = run_async(6, 1, 1, 0.1, inputs, ByzantineStrategy::Silent, 13);
        assert_eps_agreement(&decisions, 0.1);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn histories_record_every_round() {
        let cfg = config(4, 1, 1, 0.1);
        let budget = restricted_round_budget(&cfg);
        let mut p = StateExchangeProcess::restricted_sync(
            cfg.clone(),
            0,
            Point::new(vec![0.5]),
            GammaCache::shared(),
        );
        // Drive it alone (no messages): every round it keeps its own state.
        for round in 1..=(budget + 1) {
            let _ = p.round(round, &[]);
        }
        assert_eq!(p.core().history().len(), budget + 1);
        assert!(p.output().is_some());
    }

    #[test]
    fn round_budget_is_positive_and_matches_formula() {
        let cfg = config(6, 1, 1, 0.1);
        let budget = restricted_round_budget(&cfg);
        assert!(budget >= 2);
    }
}
