//! Exact Byzantine vector consensus in synchronous systems (Section 2.2).
//!
//! The algorithm, verbatim from the paper, for
//! `n ≥ max(3f + 1, (d + 1)f + 1)`:
//!
//! 1. Every process uses a Byzantine broadcast algorithm to broadcast its
//!    input vector to all processes.  At the end of this step every non-faulty
//!    process holds an **identical** multiset `S` of `n` vectors in which the
//!    entry of every non-faulty process equals that process's input.
//! 2. Every process picks, with the same deterministic rule, a point of
//!    `Γ(S)` as its decision.  `Γ(S) ≠ ∅` by Lemma 1 because
//!    `|S| = n ≥ (d+1)f + 1`.
//!
//! [`ExactBvcProcess`] implements the honest protocol as a
//! [`SyncProcess`]; a Byzantine participant is the same process under
//! [`bvc_adversary::Forging`] (equivocation during its own broadcast, forged
//! relays in other instances, silence, …), which [`ExactMsg`] opts into by
//! saying where its points live.

use crate::config::BvcConfig;
use bvc_adversary::ForgePoints;
use bvc_broadcast::{BroadcastInstance, BroadcastMessage, ChildSlots, Relay};
use bvc_geometry::{Point, PointMultiset, SharedGammaCache, ValidityPredicate};
use bvc_net::{broadcast_to_all, Delivery, Outgoing, ProcessId, SyncProcess};
use std::sync::Arc;

/// Message exchanged by the Exact BVC protocol: a Byzantine-broadcast message
/// tagged with the instance (source) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactMsg {
    /// Index of the process whose input this broadcast instance disseminates.
    pub source: usize,
    /// The underlying broadcast-protocol message.
    pub payload: BroadcastMessage<Point>,
}

impl ForgePoints for ExactMsg {
    fn forge_points(&mut self, point: &Point) {
        match &mut self.payload {
            BroadcastMessage::Initial(v) => *v = point.clone(),
            // A fresh relay of the honest length: the honest copies sharing
            // the old one keep theirs.
            BroadcastMessage::Relay(relay) => {
                *relay = Arc::new(Relay::filled(point.clone(), relay.ids.len()));
            }
        }
    }
}

/// Honest process of the Exact BVC algorithm.
pub struct ExactBvcProcess {
    config: BvcConfig,
    me: usize,
    instances: Vec<BroadcastInstance<Point>>,
    agreed_multiset: Option<PointMultiset>,
    decision: Option<Point>,
    gamma_cache: SharedGammaCache,
    validity: ValidityPredicate,
}

impl ExactBvcProcess {
    /// Creates the honest process with index `me` and input vector `input`,
    /// running Step 1 on `slots`, the EIG child-slot table of
    /// `(config.n, config.f)`, and deciding through `gamma_cache`.  Both are
    /// the run's, built once and passed to every process of the cast: the
    /// table is the same for all of them, and since Step 1 leaves every
    /// non-faulty process with the *identical* multiset `S`, a shared cache
    /// computes the Step-2 decision point once per system instead of once
    /// per process.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d`, or
    /// `config.f == 0` (with no faults the problem is a plain deterministic
    /// exchange; the runners handle that case separately).
    pub fn new(
        config: BvcConfig,
        me: usize,
        input: Point,
        slots: &Arc<ChildSlots>,
        gamma_cache: SharedGammaCache,
    ) -> Self {
        assert!(me < config.n, "process index {me} out of range");
        assert_eq!(input.dim(), config.d, "input dimension must equal config.d");
        assert!(config.f >= 1, "ExactBvcProcess requires f >= 1");
        let default = Point::uniform(config.d, config.lower_bound);
        let mut instances: Vec<BroadcastInstance<Point>> = (0..config.n)
            .map(|source| {
                BroadcastInstance::with_slots(Arc::clone(slots), me, source, default.clone())
            })
            .collect();
        instances[me].set_input(input);
        Self {
            config,
            me,
            instances,
            agreed_multiset: None,
            decision: None,
            gamma_cache,
            validity: ValidityPredicate::Strict,
        }
    }

    /// Selects the validity regime of the Step-2 decision rule.  `Strict`
    /// (the default) picks a point of `Γ(S)`.  Relaxed modes widen the rule
    /// exactly as the relaxed problem permits: `AlphaScaled(α)` picks a
    /// point of the `(1+α)`-dilated safe area (byte-identical to strict at
    /// `α = 0`), and `KRelaxed(k)` falls back to the per-coordinate
    /// trimmed-centre rule, verified against every `k`-dimensional
    /// projection, when `Γ(S)` itself is empty.  All honest processes hold
    /// the identical multiset `S` after Step 1, so every relaxed rule is
    /// still the "same deterministic function at every process" that exact
    /// agreement requires.
    pub fn with_validity_mode(mut self, mode: ValidityPredicate) -> Self {
        self.validity = mode;
        self
    }

    /// Number of synchronous rounds until the decision is available:
    /// `f + 2` broadcast rounds plus one closing round.
    pub fn total_rounds(config: &BvcConfig) -> usize {
        config.f + 3
    }

    fn broadcast_rounds(&self) -> usize {
        self.config.f + 2
    }

    fn deliver_inbox(&mut self, round: usize, inbox: &[Delivery<ExactMsg>]) {
        if round < 2 {
            return;
        }
        let broadcast_round = round - 1;
        if broadcast_round > self.broadcast_rounds() {
            return;
        }
        for delivery in inbox {
            let source = delivery.msg.source;
            if source < self.instances.len() {
                self.instances[source].receive(
                    broadcast_round,
                    delivery.from.index(),
                    &delivery.msg.payload,
                );
            }
        }
        for instance in self.instances.iter_mut() {
            instance.end_round(broadcast_round);
        }
        if broadcast_round == self.broadcast_rounds() {
            self.conclude();
        }
    }

    fn conclude(&mut self) {
        let points: Vec<Point> = self
            .instances
            .iter()
            .map(|inst| {
                inst.decision()
                    .cloned()
                    .unwrap_or_else(|| Point::uniform(self.config.d, self.config.lower_bound))
            })
            .collect();
        let multiset = PointMultiset::new(points);
        let cache = &self.gamma_cache;
        self.decision = cache.decision_point(&multiset, self.config.f, &self.validity);
        self.agreed_multiset = Some(multiset);
    }

    fn outgoing_for_round(&mut self, round: usize) -> Vec<Outgoing<ExactMsg>> {
        if round > self.broadcast_rounds() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for source in 0..self.config.n {
            if let Some(payload) = self.instances[source].message_for_round(round) {
                let msg = ExactMsg { source, payload };
                out.extend(broadcast_to_all(
                    self.config.n,
                    Some(ProcessId::new(self.me)),
                    &msg,
                ));
            }
        }
        out
    }
}

impl SyncProcess for ExactBvcProcess {
    type Msg = ExactMsg;
    type Output = Point;

    fn round(&mut self, round: usize, inbox: &[Delivery<ExactMsg>]) -> Vec<Outgoing<ExactMsg>> {
        self.deliver_inbox(round, inbox);
        self.outgoing_for_round(round)
    }

    fn output(&self) -> Option<Point> {
        self.decision.clone()
    }

    // Exact consensus has no converging round state; the decision appears in
    // the closing round, so the traced spread collapses exactly there.
    fn trace_state(&self) -> Option<Vec<f64>> {
        self.decision.as_ref().map(|p| p.coords().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_adversary::{ByzantineStrategy, Forging, PointForge};
    use bvc_geometry::GammaCache;
    use bvc_net::SyncNetwork;

    fn config(n: usize, f: usize, d: usize) -> BvcConfig {
        BvcConfig::new(n, f, d).unwrap()
    }

    /// Builds a network of `n` processes where the last `f` are Byzantine with
    /// the given strategy, runs it, and returns (honest decisions, honest
    /// inputs).
    fn run_exact(
        n: usize,
        f: usize,
        d: usize,
        honest_inputs: Vec<Point>,
        strategy: ByzantineStrategy,
        seed: u64,
    ) -> (Vec<Point>, Vec<Point>) {
        assert_eq!(honest_inputs.len(), n - f);
        let cfg = config(n, f, d);
        let cache = GammaCache::shared();
        let slots = Arc::new(ChildSlots::new(n, f));
        let mut processes: Vec<Box<dyn SyncProcess<Msg = ExactMsg, Output = Point>>> = Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(ExactBvcProcess::new(
                cfg.clone(),
                i,
                input.clone(),
                &slots,
                cache.clone(),
            )));
        }
        for b in 0..f {
            let me = n - f + b;
            let mut forge = PointForge::new(
                strategy,
                d,
                cfg.lower_bound,
                cfg.upper_bound,
                seed + b as u64,
            );
            forge.set_honest_value(Point::uniform(d, cfg.upper_bound));
            let corner = Point::uniform(d, cfg.lower_bound);
            let skeleton = ExactBvcProcess::new(cfg.clone(), me, corner, &slots, cache.clone());
            processes.push(Box::new(Forging::new(skeleton, forge)));
        }
        let honest_indices: Vec<usize> = (0..n - f).collect();
        let outcome =
            SyncNetwork::new(processes, ExactBvcProcess::total_rounds(&cfg)).run(&honest_indices);
        let decisions: Vec<Point> = honest_indices
            .iter()
            .map(|&i| {
                outcome.outputs[i]
                    .clone()
                    .expect("honest process must decide")
            })
            .collect();
        (decisions, honest_inputs)
    }

    fn assert_agreement(decisions: &[Point]) {
        for pair in decisions.windows(2) {
            assert!(
                pair[0] == pair[1],
                "agreement violated: {} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    use crate::validity::assert_strict_validity as assert_validity;

    #[test]
    fn fault_free_skeleton_agrees_on_input_multiset() {
        // n = 4, f = 1 but the "Byzantine" process is benign: everyone honest
        // in effect. d = 1.
        let inputs = vec![
            Point::new(vec![0.1]),
            Point::new(vec![0.5]),
            Point::new(vec![0.9]),
        ];
        let (decisions, honest) = run_exact(4, 1, 1, inputs, ByzantineStrategy::Benign, 1);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn outlier_attack_cannot_break_validity_d2() {
        // d = 2, f = 1, n = max(4, 4) = 4 ... but (d+1)f+1 = 4, 3f+1 = 4.
        let inputs = vec![
            Point::new(vec![0.2, 0.2]),
            Point::new(vec![0.8, 0.3]),
            Point::new(vec![0.5, 0.9]),
        ];
        let (decisions, honest) = run_exact(4, 1, 2, inputs, ByzantineStrategy::FixedOutlier, 2);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn equivocation_attack_cannot_break_agreement_d2() {
        let inputs = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
        ];
        let (decisions, honest) = run_exact(4, 1, 2, inputs, ByzantineStrategy::Equivocate, 3);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn silent_byzantine_process_does_not_block_termination() {
        let inputs = vec![
            Point::new(vec![0.25, 0.75]),
            Point::new(vec![0.5, 0.5]),
            Point::new(vec![0.75, 0.25]),
        ];
        let (decisions, honest) = run_exact(4, 1, 2, inputs, ByzantineStrategy::Silent, 4);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn probability_vector_inputs_stay_probability_vectors() {
        // The paper's motivating example: if every honest input is a
        // probability vector, the decision must be one too (it lies in their
        // convex hull). d = 3, f = 1, n = max(4, 5) = 5.
        let inputs = vec![
            Point::new(vec![2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0]),
            Point::new(vec![1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]),
            Point::new(vec![1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]),
            Point::new(vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
        ];
        let (decisions, honest) = run_exact(5, 1, 3, inputs, ByzantineStrategy::AntiConvergence, 5);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
        let d = &decisions[0];
        let sum: f64 = d.coords().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-5,
            "decision must remain a probability vector"
        );
        assert!(d.coords().iter().all(|&c| c >= -1e-6));
    }

    #[test]
    fn two_faults_seven_processes_d2() {
        let inputs = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![0.5, 0.5]),
        ];
        let (decisions, honest) = run_exact(7, 2, 2, inputs, ByzantineStrategy::RandomNoise, 6);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn extra_processes_beyond_the_bound_still_work() {
        // n = 6 > 4 required for d = 2, f = 1.
        let inputs = vec![
            Point::new(vec![0.1, 0.1]),
            Point::new(vec![0.9, 0.1]),
            Point::new(vec![0.5, 0.9]),
            Point::new(vec![0.4, 0.4]),
            Point::new(vec![0.6, 0.6]),
        ];
        let (decisions, honest) = run_exact(6, 1, 2, inputs, ByzantineStrategy::Equivocate, 7);
        assert_agreement(&decisions);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn forge_points_rewrites_payloads() {
        // Three positions over a two-entry dictionary, the first entry twice.
        let honest_relay = Relay {
            dictionary: vec![Point::new(vec![1.0, 2.0]), Point::new(vec![3.0, 4.0])],
            ids: vec![0, 1, 0],
        };
        let honest = ExactMsg {
            source: 0,
            payload: BroadcastMessage::Relay(Arc::new(honest_relay.clone())),
        };
        let mut msg = honest.clone();
        let forged = Point::new(vec![9.0, 9.0]);
        msg.forge_points(&forged);
        let BroadcastMessage::Relay(relay) = &msg.payload else {
            panic!("payload kind changed");
        };
        // Every position reads the forged point, and the relay keeps its
        // length.
        assert_eq!(relay.ids.len(), 3);
        assert_eq!(relay.values().collect::<Vec<_>>(), [&forged; 3]);
        // The honest copy shared the relay and keeps its values.
        let BroadcastMessage::Relay(kept) = &honest.payload else {
            unreachable!()
        };
        assert_eq!(**kept, honest_relay);
        let mut initial = ExactMsg {
            source: 1,
            payload: BroadcastMessage::Initial(Point::new(vec![0.0, 0.0])),
        };
        initial.forge_points(&forged);
        assert_eq!(initial.payload, BroadcastMessage::Initial(forged));
    }

    #[test]
    #[should_panic(expected = "requires f >= 1")]
    fn zero_faults_rejected_by_process() {
        // No table exists for f = 0; the check comes before the table is read.
        let (cfg, slots) = (config(3, 0, 2), Arc::new(ChildSlots::new(4, 1)));
        let point = Point::new(vec![0.0, 0.0]);
        let _ = ExactBvcProcess::new(cfg, 0, point, &slots, GammaCache::shared());
    }
}
