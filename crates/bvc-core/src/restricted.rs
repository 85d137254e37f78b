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
//! [`RestrictedSyncProcess`] and [`RestrictedAsyncProcess`] are the honest
//! implementations; the forging adversary of both is
//! [`bvc_adversary::StateForger`] over [`StateMsg::new`].

use crate::config::BvcConfig;
use crate::convergence::{gamma, round_threshold};
use crate::witness::{average_state, zi_full};
use bvc_geometry::{Point, SharedGammaCache};
use bvc_net::{broadcast_to_all, AsyncProcess, Delivery, Outgoing, ProcessId, SyncProcess};
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

// ---------------------------------------------------------------------------
// Synchronous variant
// ---------------------------------------------------------------------------

/// Honest process of the restricted-round **synchronous** algorithm
/// (`n ≥ (d+2)f + 1`).
pub struct RestrictedSyncProcess {
    config: BvcConfig,
    me: usize,
    state: Point,
    max_rounds: usize,
    history: Vec<Point>,
    decision: Option<Point>,
    gamma_cache: Option<SharedGammaCache>,
}

impl RestrictedSyncProcess {
    /// Creates the honest process with index `me` and input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d` or
    /// `config.f == 0`.
    pub fn new(config: BvcConfig, me: usize, input: Point) -> Self {
        assert!(me < config.n, "process index {me} out of range");
        assert_eq!(input.dim(), config.d, "input dimension must equal config.d");
        assert!(config.f >= 1, "RestrictedSyncProcess requires f >= 1");
        let max_rounds = restricted_round_budget(&config);
        Self {
            history: vec![input.clone()],
            config,
            me,
            state: input,
            max_rounds,
            decision: None,
            gamma_cache: None,
        }
    }

    /// Shares a [`GammaCache`](bvc_geometry::GammaCache) with this process's
    /// round loop.  Honest processes of a round receive the same *honest*
    /// states, but an equivocating sender tells each receiver something
    /// else, and every `(n−f)`-subset but one contains a Byzantine entry —
    /// measured, one subset in `C(n, n−f)` is common to two receivers.  What
    /// the cache does serve is this process's own repeated sub-multisets
    /// once honest states coincide, and whole repeated instances through a
    /// parent cache.  Cached and uncached runs produce identical states.
    pub fn with_gamma_cache(mut self, cache: SharedGammaCache) -> Self {
        self.gamma_cache = Some(cache);
        self
    }

    /// Total number of executor rounds needed: `max_rounds` exchange rounds
    /// plus one closing round in which the last inbox is processed.
    pub fn total_rounds(config: &BvcConfig) -> usize {
        restricted_round_budget(config) + 1
    }

    /// Per-round states (`history()[t]` is `v_i[t]`, index 0 the input).
    pub fn history(&self) -> &[Point] {
        &self.history
    }

    fn apply_update(&mut self, received: &[Delivery<StateMsg>], round: usize) {
        // B_i[t]: the vectors received this round (at most one per sender,
        // first wins) plus this process's own state.
        let mut per_sender: BTreeMap<usize, &Point> = BTreeMap::new();
        for delivery in received {
            if delivery.msg.round == round && delivery.msg.state.dim() == self.config.d {
                per_sender
                    .entry(delivery.from.index())
                    .or_insert(&delivery.msg.state);
            }
        }
        per_sender.insert(self.me, &self.state);
        let entries: Vec<&Point> = per_sender.into_values().collect();
        let quorum = self.config.n - self.config.f;
        if entries.len() >= quorum {
            let zi = zi_full(&entries, quorum, self.config.f, self.gamma_cache.as_deref());
            if !zi.is_empty() {
                self.state = average_state(&zi);
            }
        }
        self.history.push(self.state.clone());
    }
}

impl SyncProcess for RestrictedSyncProcess {
    type Msg = StateMsg;
    type Output = Point;

    fn round(&mut self, round: usize, inbox: &[Delivery<StateMsg>]) -> Vec<Outgoing<StateMsg>> {
        // The inbox holds the state vectors sent in round `round − 1`.
        if round >= 2 && round <= self.max_rounds + 1 {
            self.apply_update(inbox, round - 1);
            if round == self.max_rounds + 1 {
                self.decision = Some(self.state.clone());
            }
        }
        if round <= self.max_rounds {
            broadcast_to_all(
                self.config.n,
                Some(ProcessId::new(self.me)),
                &StateMsg::new(round, self.state.clone()),
            )
        } else {
            Vec::new()
        }
    }

    fn output(&self) -> Option<Point> {
        self.decision.clone()
    }

    fn trace_state(&self) -> Option<Vec<f64>> {
        Some(self.state.coords().to_vec())
    }
}

// ---------------------------------------------------------------------------
// Asynchronous variant
// ---------------------------------------------------------------------------

/// Honest process of the restricted-round **asynchronous** algorithm
/// (`n ≥ (d+4)f + 1`): in each round it broadcasts its state, waits for
/// `n − f − 1` round-`t` states from other processes, and applies the same
/// update rule.
pub struct RestrictedAsyncProcess {
    config: BvcConfig,
    me: usize,
    state: Point,
    current_round: usize,
    max_rounds: usize,
    /// Received state vectors per round, at most one per sender.
    received: BTreeMap<usize, BTreeMap<usize, Point>>,
    history: Vec<Point>,
    decision: Option<Point>,
    gamma_cache: Option<SharedGammaCache>,
}

impl RestrictedAsyncProcess {
    /// Creates the honest process with index `me` and input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d` or
    /// `config.f == 0`.
    pub fn new(config: BvcConfig, me: usize, input: Point) -> Self {
        assert!(me < config.n, "process index {me} out of range");
        assert_eq!(input.dim(), config.d, "input dimension must equal config.d");
        assert!(config.f >= 1, "RestrictedAsyncProcess requires f >= 1");
        let max_rounds = restricted_round_budget(&config);
        Self {
            history: vec![input.clone()],
            config,
            me,
            state: input,
            current_round: 0,
            max_rounds,
            received: BTreeMap::new(),
            decision: None,
            gamma_cache: None,
        }
    }

    /// Shares a [`GammaCache`](bvc_geometry::GammaCache) with this process's
    /// round loop; asynchronous processes see overlapping (not identical)
    /// `B_i[t]` sets, so the sharing is partial but still substantial.
    pub fn with_gamma_cache(mut self, cache: SharedGammaCache) -> Self {
        self.gamma_cache = Some(cache);
        self
    }

    /// Per-round states (`history()[t]` is `v_i[t]`, index 0 the input).
    pub fn history(&self) -> &[Point] {
        &self.history
    }

    fn broadcast_state(&self, round: usize) -> Vec<Outgoing<StateMsg>> {
        broadcast_to_all(
            self.config.n,
            Some(ProcessId::new(self.me)),
            &StateMsg::new(round, self.state.clone()),
        )
    }

    fn try_advance(&mut self) -> Vec<Outgoing<StateMsg>> {
        let mut out = Vec::new();
        loop {
            if self.decision.is_some() {
                return out;
            }
            let round = self.current_round;
            let quorum_others = self.config.n - self.config.f - 1;
            let have = self.received.get(&round).map(|m| m.len()).unwrap_or(0);
            if have < quorum_others {
                return out;
            }
            // B_i[t]: own state plus the first n − f − 1 received vectors.
            let mut entries: Vec<&Point> = vec![&self.state];
            entries.extend(
                self.received
                    .get(&round)
                    .into_iter()
                    .flat_map(|m| m.values())
                    .take(quorum_others),
            );
            let quorum = self.config.n - self.config.f;
            let zi = zi_full(&entries, quorum, self.config.f, self.gamma_cache.as_deref());
            if !zi.is_empty() {
                self.state = average_state(&zi);
            }
            self.history.push(self.state.clone());
            if round >= self.max_rounds {
                self.decision = Some(self.state.clone());
                return out;
            }
            self.current_round = round + 1;
            out.extend(self.broadcast_state(self.current_round));
        }
    }
}

impl AsyncProcess for RestrictedAsyncProcess {
    type Msg = StateMsg;
    type Output = Point;

    fn on_start(&mut self) -> Vec<Outgoing<StateMsg>> {
        self.current_round = 1;
        let mut out = self.broadcast_state(1);
        out.extend(self.try_advance());
        out
    }

    fn on_message(&mut self, from: ProcessId, msg: StateMsg) -> Vec<Outgoing<StateMsg>> {
        if msg.state.dim() != self.config.d || msg.round == 0 || msg.round > self.max_rounds {
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
        self.decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_adversary::{ByzantineStrategy, PointForge, StateForger};
    use bvc_net::{AsyncNetwork, DeliveryPolicy, SyncNetwork};

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
        let rounds = RestrictedSyncProcess::total_rounds(&cfg) + 2;
        let mut processes: Vec<Box<dyn SyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(RestrictedSyncProcess::new(
                cfg.clone(),
                i,
                input.clone(),
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
        let mut processes: Vec<Box<dyn AsyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(RestrictedAsyncProcess::new(
                cfg.clone(),
                i,
                input.clone(),
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
        let mut p = RestrictedSyncProcess::new(cfg.clone(), 0, Point::new(vec![0.5]));
        // Drive it alone (no messages): every round it keeps its own state.
        for round in 1..=(budget + 1) {
            let _ = p.round(round, &[]);
        }
        assert_eq!(p.history().len(), budget + 1);
        assert!(p.output().is_some());
    }

    #[test]
    fn round_budget_is_positive_and_matches_formula() {
        let cfg = config(6, 1, 1, 0.1);
        let budget = restricted_round_budget(&cfg);
        assert!(budget >= 2);
    }
}
