//! Approximate Byzantine vector consensus in asynchronous systems
//! (Section 3.2).
//!
//! The algorithm, for `n ≥ (d + 2)f + 1`:
//!
//! 1. In its round `t`, each process runs the AAD-style exchange
//!    ([`crate::aad`]) to obtain a tuple set `B_i[t]` with Properties 1–3.
//! 2. It forms the multiset `Z_i` by adding one deterministically chosen point
//!    of `Γ(Φ(C))` for `(n−f)`-sized subsets `C ⊆ B_i[t]` (all of them, or —
//!    with the Appendix F optimisation — only the witness-advertised ones),
//!    and sets its new state to the average of `Z_i` (equation (9)).
//! 3. It terminates after `1 + ⌈log_{1/(1-γ)} (U − ν)/ε⌉` rounds, where
//!    `γ = 1/(n·C(n,n−f))` (or `1/n²` with the optimisation).
//!
//! [`ApproxBvcProcess`] implements the honest protocol as an
//! [`AsyncProcess`]; a Byzantine participant is the same process under
//! [`bvc_adversary::Forging`].  Processes keep serving reliable-broadcast traffic for *earlier*
//! rounds even after moving on, which is what makes the exchange's totality
//! (and hence liveness for slower processes) hold.

use crate::aad::{AadExchange, AadMsg};
use crate::config::BvcConfig;
use crate::convergence::{gamma, gamma_witness_optimized, round_threshold};
use crate::rounds::IterateCore;
use crate::witness::{average_state, zi_witness};
use bvc_geometry::{Point, SharedGammaCache};
use bvc_net::{broadcast_to_all, AsyncProcess, Outgoing, ProcessId};
use std::collections::BTreeMap;

/// Which subset-selection rule Step 2 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateRule {
    /// Every `(n−f)`-subset of `B_i[t]` (the rule proved in Theorem 5).
    FullSubsets,
    /// Only the witness-advertised subsets (Appendix F), at most `n` of them.
    WitnessOptimized,
}

/// Decision of an honest asynchronous process, together with the per-round
/// telemetry that the facade's `tests/convergence_and_budgets.rs` and
/// `tests/resilience_bounds.rs` assert on (`ρ[t]` under the equation-(13)
/// envelope, `|Z_i|` under its Appendix F bound).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxOutput {
    /// The decision vector (the state after the final round).
    pub decision: Point,
    /// `history[t]` is the state `v_i[t]`; index 0 is the input vector.
    pub history: Vec<Point>,
    /// `zi_sizes[t-1]` is `|Z_i|` in round `t` (the Appendix F optimisation
    /// bounds this by `n`; the full rule by `C(|B_i|, n−f)`).
    pub zi_sizes: Vec<usize>,
}

/// Honest process of the asynchronous approximate BVC algorithm: an
/// [`IterateCore`] whose collection rule is the AAD exchange.
pub struct ApproxBvcProcess {
    core: IterateCore,
    rule: UpdateRule,
    current_round: usize,
    exchanges: BTreeMap<usize, AadExchange>,
    /// Messages that arrived for rounds this process has not started yet.
    future: BTreeMap<usize, Vec<(usize, AadMsg)>>,
    /// `|Z_i|` per completed round.
    zi_sizes: Vec<usize>,
}

impl ApproxBvcProcess {
    /// Creates the honest process with index `me` and input vector `input`,
    /// using the given update rule and asking Γ through `cache`, the run's
    /// (both update rules): overlapping `B_i[t]` sets across processes make
    /// the sharing substantial even under asynchrony.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d` or
    /// `config.f == 0`.
    pub fn new(
        config: BvcConfig,
        me: usize,
        input: Point,
        rule: UpdateRule,
        cache: SharedGammaCache,
    ) -> Self {
        let budget = Self::round_budget(&config, rule);
        let core = IterateCore::new(config, me, input, budget, cache);
        Self {
            core: core.requiring_a_fault("ApproxBvcProcess"),
            rule,
            current_round: 0,
            exchanges: BTreeMap::new(),
            future: BTreeMap::new(),
            zi_sizes: Vec::new(),
        }
    }

    /// The number of asynchronous rounds the termination rule of Step 3
    /// prescribes for this configuration and update rule.
    pub fn round_budget(config: &BvcConfig, rule: UpdateRule) -> usize {
        let g = match rule {
            UpdateRule::FullSubsets => gamma(config.n, config.f),
            UpdateRule::WitnessOptimized => gamma_witness_optimized(config.n),
        };
        round_threshold(g, config.lower_bound, config.upper_bound, config.epsilon)
    }

    /// State, history, budget and decision.
    pub fn core(&self) -> &IterateCore {
        &self.core
    }

    fn fan_out(&self, msgs: Vec<AadMsg>) -> Vec<Outgoing<AadMsg>> {
        let mut out = Vec::new();
        for msg in msgs {
            out.extend(broadcast_to_all(
                self.core.config.n,
                Some(ProcessId::new(self.core.me)),
                &msg,
            ));
        }
        out
    }

    fn start_round(&mut self, round: usize) -> Vec<AadMsg> {
        self.current_round = round;
        let (exchange, mut msgs) = AadExchange::start(
            self.core.config.n,
            self.core.config.f,
            self.core.me,
            round,
            self.core.state().clone(),
        );
        self.exchanges.insert(round, exchange);
        // Replay any messages that arrived for this round before we started it.
        if let Some(buffered) = self.future.remove(&round) {
            let exchange = self.exchanges.get_mut(&round).expect("just inserted");
            for (from, msg) in buffered {
                msgs.extend(exchange.handle(from, &msg));
            }
        }
        msgs
    }

    /// Advances through as many rounds as have completed (an exchange can
    /// complete instantly on replayed buffered messages), collecting all
    /// messages to send.
    fn advance_if_complete(&mut self) -> Vec<AadMsg> {
        let mut out = Vec::new();
        let (n, f) = (self.core.config.n, self.core.config.f);
        while self.core.decision().is_none() {
            let round = self.current_round;
            let Some(done) = self.exchanges.get(&round).and_then(|e| e.completed()) else {
                break;
            };
            // Step 2: build Z_i and average it.
            let cache = &self.core.gamma_cache;
            let (next, zi_size) = match self.rule {
                UpdateRule::FullSubsets => {
                    let entries: Vec<&Point> = done.entries.iter().map(|(_, v)| v).collect();
                    cache.subset_centroid(&entries, n - f, f)
                }
                UpdateRule::WitnessOptimized => {
                    let zi = zi_witness(
                        done.witness_sets
                            .iter()
                            .map(|set| set.iter().map(|(_, v)| v)),
                        f,
                        cache,
                    );
                    ((!zi.is_empty()).then(|| average_state(&zi)), zi.len())
                }
            };
            self.zi_sizes.push(zi_size);
            // Step 3: terminate after the round budget.
            if !self.core.close_round(round, next) {
                out.extend(self.start_round(round + 1));
            }
        }
        out
    }
}

impl AsyncProcess for ApproxBvcProcess {
    type Msg = AadMsg;
    type Output = ApproxOutput;

    fn on_start(&mut self) -> Vec<Outgoing<AadMsg>> {
        let mut msgs = self.start_round(1);
        msgs.extend(self.advance_if_complete());
        self.fan_out(msgs)
    }

    fn on_message(&mut self, from: ProcessId, msg: AadMsg) -> Vec<Outgoing<AadMsg>> {
        let round = msg.round();
        let mut responses = Vec::new();
        if let Some(exchange) = self.exchanges.get_mut(&round) {
            responses.extend(exchange.handle(from.index(), &msg));
        } else if round > self.current_round && round <= self.core.budget() {
            // A faster process is already in a later round: buffer until we
            // get there.
            self.future
                .entry(round)
                .or_default()
                .push((from.index(), msg));
        }
        responses.extend(self.advance_if_complete());
        self.fan_out(responses)
    }

    fn output(&self) -> Option<ApproxOutput> {
        self.core.decision().map(|decision| ApproxOutput {
            decision: decision.clone(),
            history: self.core.history().to_vec(),
            zi_sizes: self.zi_sizes.clone(),
        })
    }

    fn is_decided(&self) -> bool {
        self.core.decision().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_adversary::{ByzantineStrategy, Forging, PointForge};
    use bvc_geometry::GammaCache;
    use bvc_net::{AsyncNetwork, DeliveryPolicy};

    /// Runs the asynchronous algorithm with the last `f` processes Byzantine.
    /// Returns the honest decisions and the honest inputs.
    #[allow(clippy::too_many_arguments)]
    fn run_approx(
        n: usize,
        f: usize,
        d: usize,
        epsilon: f64,
        honest_inputs: Vec<Point>,
        strategy: ByzantineStrategy,
        rule: UpdateRule,
        policy: DeliveryPolicy,
        seed: u64,
    ) -> (Vec<Point>, Vec<Point>) {
        assert_eq!(honest_inputs.len(), n - f);
        let config = BvcConfig::new(n, f, d)
            .unwrap()
            .with_epsilon(epsilon)
            .unwrap()
            .with_value_bounds(0.0, 1.0)
            .unwrap();
        let cache = GammaCache::shared();
        let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput>>> =
            Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(ApproxBvcProcess::new(
                config.clone(),
                i,
                input.clone(),
                rule,
                cache.clone(),
            )));
        }
        for b in 0..f {
            let me = n - f + b;
            let mut forge = PointForge::new(strategy, d, 0.0, 1.0, seed + 1000 + b as u64);
            forge.set_honest_value(Point::uniform(d, 0.5));
            let mid = Point::uniform(d, 0.5);
            let skeleton = ApproxBvcProcess::new(config.clone(), me, mid, rule, cache.clone());
            processes.push(Box::new(Forging::new(skeleton, forge)));
        }
        let honest: Vec<usize> = (0..n - f).collect();
        let outcome = AsyncNetwork::new(processes, policy, seed, 2_000_000).run(&honest);
        assert!(outcome.completed, "honest processes must terminate");
        let decisions = honest
            .iter()
            .map(|&i| {
                outcome.outputs[i]
                    .clone()
                    .expect("honest decision")
                    .decision
            })
            .collect();
        (decisions, honest_inputs)
    }

    fn assert_eps_agreement(decisions: &[Point], eps: f64) {
        for pair in decisions.windows(2) {
            assert!(
                pair[0].linf_distance(&pair[1]) <= eps,
                "ε-agreement violated: {} vs {} (ε = {eps})",
                pair[0],
                pair[1]
            );
        }
    }

    use crate::validity::assert_strict_validity as assert_validity;

    #[test]
    fn scalar_case_with_outlier_attack() {
        // d = 1, f = 1, n = (1+2)·1+1 = 4.
        let inputs = vec![
            Point::new(vec![0.1]),
            Point::new(vec![0.5]),
            Point::new(vec![0.9]),
        ];
        let (decisions, honest) = run_approx(
            4,
            1,
            1,
            0.05,
            inputs,
            ByzantineStrategy::FixedOutlier,
            UpdateRule::WitnessOptimized,
            DeliveryPolicy::RandomFair,
            11,
        );
        assert_eps_agreement(&decisions, 0.05);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn planar_case_with_anti_convergence_attack() {
        // d = 2, f = 1, n = 5.
        let inputs = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
        ];
        let (decisions, honest) = run_approx(
            5,
            1,
            2,
            0.1,
            inputs,
            ByzantineStrategy::AntiConvergence,
            UpdateRule::WitnessOptimized,
            DeliveryPolicy::RandomFair,
            13,
        );
        assert_eps_agreement(&decisions, 0.1);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn full_subset_rule_also_converges() {
        let inputs = vec![
            Point::new(vec![0.2]),
            Point::new(vec![0.4]),
            Point::new(vec![0.8]),
        ];
        let (decisions, honest) = run_approx(
            4,
            1,
            1,
            0.1,
            inputs,
            ByzantineStrategy::Equivocate,
            UpdateRule::FullSubsets,
            DeliveryPolicy::RandomFair,
            17,
        );
        assert_eps_agreement(&decisions, 0.1);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn adversarial_scheduling_delaying_one_honest_process() {
        // Delay all traffic from honest process 0: the others still terminate
        // (n − f of them suffice), and ε-agreement/validity hold for everyone
        // who decides.
        let inputs = vec![
            Point::new(vec![0.1, 0.9]),
            Point::new(vec![0.9, 0.1]),
            Point::new(vec![0.5, 0.5]),
            Point::new(vec![0.3, 0.7]),
        ];
        let (decisions, honest) = run_approx(
            5,
            1,
            2,
            0.1,
            inputs,
            ByzantineStrategy::RandomNoise,
            UpdateRule::WitnessOptimized,
            DeliveryPolicy::DelayFrom(vec![ProcessId::new(0)]),
            19,
        );
        assert_eps_agreement(&decisions, 0.1);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn silent_byzantine_process_does_not_block_progress() {
        let inputs = vec![
            Point::new(vec![0.0]),
            Point::new(vec![0.3]),
            Point::new(vec![1.0]),
        ];
        let (decisions, honest) = run_approx(
            4,
            1,
            1,
            0.05,
            inputs,
            ByzantineStrategy::Silent,
            UpdateRule::WitnessOptimized,
            DeliveryPolicy::RoundRobin,
            23,
        );
        assert_eps_agreement(&decisions, 0.05);
        assert_validity(&decisions, &honest);
    }

    #[test]
    fn history_shows_contracting_range() {
        // Measure the per-round range across honest processes: it must shrink
        // from the initial range to within ε at the end, and never expand
        // beyond the initial honest range (validity of intermediate states).
        let n = 4;
        let f = 1;
        let config = BvcConfig::new(n, f, 1).unwrap().with_epsilon(0.05).unwrap();
        let inputs = [0.0, 0.5, 1.0];
        let cache = GammaCache::shared();
        let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput>>> =
            Vec::new();
        for (i, v) in inputs.iter().enumerate() {
            processes.push(Box::new(ApproxBvcProcess::new(
                config.clone(),
                i,
                Point::new(vec![*v]),
                UpdateRule::WitnessOptimized,
                cache.clone(),
            )));
        }
        let mut forge = PointForge::new(ByzantineStrategy::AntiConvergence, 1, 0.0, 1.0, 5);
        forge.set_honest_value(Point::new(vec![0.5]));
        processes.push(Box::new(Forging::new(
            ApproxBvcProcess::new(
                config.clone(),
                3,
                Point::new(vec![0.5]),
                UpdateRule::WitnessOptimized,
                cache,
            ),
            forge,
        )));
        let outcome =
            AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, 31, 2_000_000).run(&[0, 1, 2]);
        assert!(outcome.completed);
        let outputs: Vec<ApproxOutput> = (0..3)
            .map(|i| outcome.outputs[i].clone().unwrap())
            .collect();
        let decisions: Vec<f64> = outputs.iter().map(|o| o.decision.coord(0)).collect();
        let spread = decisions.iter().cloned().fold(f64::MIN, f64::max)
            - decisions.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 0.05, "final spread {spread} exceeds ε");
        // All decisions stay within the honest input range [0, 1].
        assert!(decisions.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        // Telemetry: the history covers every round plus the input, the
        // per-round range never exceeds the initial honest range, and |Z_i|
        // respects the Appendix F bound |Z_i| ≤ n.
        for output in &outputs {
            assert_eq!(output.history.len(), output.zi_sizes.len() + 1);
            assert!(output.zi_sizes.iter().all(|&s| s <= n));
            assert!(output
                .history
                .iter()
                .all(|p| (-1e-9..=1.0 + 1e-9).contains(&p.coord(0))));
        }
    }

    #[test]
    fn round_budget_matches_convergence_module() {
        let config = BvcConfig::new(4, 1, 1).unwrap().with_epsilon(0.1).unwrap();
        let full = ApproxBvcProcess::round_budget(&config, UpdateRule::FullSubsets);
        let optimized = ApproxBvcProcess::round_budget(&config, UpdateRule::WitnessOptimized);
        // For n = 4, f = 1 both γ's equal 1/16, so the budgets coincide.
        assert_eq!(full, optimized);
        assert!(full >= 2);
    }

    #[test]
    #[should_panic(expected = "requires f >= 1")]
    fn zero_faults_rejected() {
        let config = BvcConfig::new(3, 0, 1).unwrap();
        let rule = UpdateRule::FullSubsets;
        let _ = ApproxBvcProcess::new(config, 0, Point::new(vec![0.0]), rule, GammaCache::shared());
    }
}
