//! Exact Byzantine vector consensus on arbitrary **directed** graphs
//! (Tseng & Vaidya, arXiv:1208.5075), and its local-broadcast variant
//! (Khan, Tseng & Vaidya, arXiv:1911.07298).
//!
//! The complete-graph protocol of Section 2.2 assumes every process can
//! broadcast to every other; on an arbitrary digraph that assumption fails
//! and solvability is governed by a graph condition instead of a closed-form
//! bound ([`Topology::directed_exact_sufficiency`] /
//! [`Topology::directed_exact_lb_sufficiency`]).  This module provides the
//! runnable protocol for that setting:
//!
//! 1. **Dissemination by flooding.**  Every process claims its input and
//!    relays every *fresh* claim it learns to its out-neighbors, tagged with
//!    the claimed source.  After `n` relay rounds every claim known to an
//!    honest process has reached every honest process it can reach.
//! 2. **Deterministic resolution.**  Each process resolves every source to
//!    the smallest claim it holds for that source in the canonical order
//!    ([`canonical_cmp`]: lexicographic under `f64::total_cmp`, so
//!    resolution is bit-deterministic and order-independent), defaulting claim-less sources to the lower-bound
//!    corner, and decides a point of `Γ(S)` over the resolved multiset with
//!    the same [`decision_point`](bvc_geometry::relaxed::decision_point) rule
//!    as the complete-graph protocol.
//!
//! Under **local broadcast** the network canonicalises every send batch
//! (`bvc_net::enforce_local_broadcast`), so a Byzantine process cannot give
//! two out-neighbors different claims in the same round — the model
//! divergence the two papers prove shows up directly as verdict divergence
//! on graphs that satisfy the LB condition but violate the point-to-point
//! one.
//!
//! **Scope.** The flood-and-resolve schedule is simulation-grade, not a
//! verbatim reproduction of the papers' committee constructions: a Byzantine
//! process may forge claims *for honest sources* when relaying, and a claim
//! injected in the final relay round reaches only the injector's direct
//! out-neighbors.  Runs where such attacks break agreement are exactly what
//! the verdict scoring and the recorded sufficiency condition are for — a
//! failed verdict on a condition-violating graph is data, not a bug (and the
//! chaos engine's job is to find the ones on condition-satisfying graphs).
//! On complete graphs the session delegates to the real Section-2.2 protocol,
//! so the `K_n` behaviour is the paper's, byte-for-byte.

use crate::config::BvcConfig;
use bvc_adversary::ForgePoints;
use bvc_geometry::{canonical_cmp, Point, PointMultiset, SharedGammaCache, ValidityPredicate};
use bvc_net::{Delivery, Outgoing, ProcessId, SyncProcess};
use bvc_topology::Topology;
use std::sync::Arc;

/// Message of the directed flood protocol: one claim, tagged with the
/// process it is claimed **for** (not necessarily the sender — honest
/// processes relay claims verbatim).
#[derive(Debug, Clone, PartialEq)]
pub struct DirectedMsg {
    /// The process this claim attributes an input to.
    pub source: usize,
    /// The claimed input vector.
    pub point: Point,
}

/// Under [`bvc_adversary::Forging`] a Byzantine relayer forges the claimed
/// point of every message and keeps the claimed source (per receiver under
/// point-to-point; the local-broadcast executor canonicalises the batch, so
/// per-receiver equivocation dies on the wire).
impl ForgePoints for DirectedMsg {
    fn forge_points(&mut self, point: &Point) {
        self.point = point.clone();
    }
}

/// Honest process of the directed exact-BVC protocol.
pub struct DirectedExactProcess {
    config: BvcConfig,
    me: usize,
    topology: Arc<Topology>,
    /// Per-source claim sets, deduplicated by bit-equality, in arrival
    /// order.  A Byzantine relayer can grow an honest source's set beyond
    /// one entry; resolution picks the lexicographic minimum.
    claims: Vec<Vec<Point>>,
    /// Claims learned this round and not yet relayed.
    fresh: Vec<DirectedMsg>,
    decision: Option<Point>,
    gamma_cache: SharedGammaCache,
    validity: ValidityPredicate,
}

impl DirectedExactProcess {
    /// Creates the honest process with index `me` and input vector `input`
    /// on `topology`, deciding through `gamma_cache`, the run's: processes
    /// that resolve the same multiset compute the decision point once
    /// system-wide, exactly like the complete-graph protocol.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d`, or the
    /// topology covers a different number of processes.
    pub fn new(
        config: BvcConfig,
        me: usize,
        input: Point,
        topology: Arc<Topology>,
        gamma_cache: SharedGammaCache,
    ) -> Self {
        assert!(me < config.n, "process index {me} out of range");
        assert_eq!(input.dim(), config.d, "input dimension must equal config.d");
        assert_eq!(
            topology.len(),
            config.n,
            "topology size must equal config.n"
        );
        let mut claims: Vec<Vec<Point>> = vec![Vec::new(); config.n];
        claims[me].push(input.clone());
        Self {
            config,
            me,
            topology,
            claims,
            fresh: vec![DirectedMsg {
                source: me,
                point: input,
            }],
            decision: None,
            gamma_cache,
            validity: ValidityPredicate::Strict,
        }
    }

    /// Selects the validity regime of the resolution-step decision rule,
    /// mirroring
    /// [`ExactBvcProcess::with_validity_mode`](crate::exact::ExactBvcProcess::with_validity_mode).
    pub fn with_validity_mode(mut self, mode: ValidityPredicate) -> Self {
        self.validity = mode;
        self
    }

    /// Number of synchronous rounds until the decision is available: `n`
    /// relay rounds (any claim an honest process holds crosses the ≤ n − 1
    /// remaining hops) plus one closing round.
    pub fn total_rounds(config: &BvcConfig) -> usize {
        config.n + 1
    }

    /// Ingests one delivered claim; returns `true` when it was new.
    fn ingest(&mut self, msg: &DirectedMsg) -> bool {
        if msg.source >= self.claims.len() || msg.point.dim() != self.config.d {
            return false;
        }
        let known = self.claims[msg.source]
            .iter()
            .any(|p| p.coords() == msg.point.coords());
        if known {
            return false;
        }
        self.claims[msg.source].push(msg.point.clone());
        true
    }

    /// Resolves every source to its smallest claim under [`canonical_cmp`]
    /// (so ties and NaN payloads still order deterministically), defaulting claim-less sources to the
    /// lower-bound corner, and decides over the resolved multiset.
    fn conclude(&mut self) {
        let default = Point::uniform(self.config.d, self.config.lower_bound);
        let points: Vec<Point> = self
            .claims
            .iter()
            .map(|set| {
                set.iter()
                    .min_by(|a, b| canonical_cmp(a.coords(), b.coords()))
                    .cloned()
                    .unwrap_or_else(|| default.clone())
            })
            .collect();
        let multiset = PointMultiset::new(points);
        let cache = &self.gamma_cache;
        self.decision = cache.decision_point(&multiset, self.config.f, &self.validity);
    }
}

impl SyncProcess for DirectedExactProcess {
    type Msg = DirectedMsg;
    type Output = Point;

    fn round(
        &mut self,
        round: usize,
        inbox: &[Delivery<DirectedMsg>],
    ) -> Vec<Outgoing<DirectedMsg>> {
        for delivery in inbox {
            let msg = delivery.msg.clone();
            if self.ingest(&msg) {
                self.fresh.push(msg);
            }
        }
        if round >= Self::total_rounds(&self.config) {
            self.conclude();
            return Vec::new();
        }
        let fresh = std::mem::take(&mut self.fresh);
        let mut out = Vec::new();
        for msg in fresh {
            for &to in self.topology.out_neighbors(self.me) {
                out.push(Outgoing::new(ProcessId::new(to), msg.clone()));
            }
        }
        out
    }

    fn output(&self) -> Option<Point> {
        self.decision.clone()
    }

    // Like exact consensus: no converging round state, the traced spread
    // collapses in the closing round where the decision appears.
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

    /// The committed divergence digraph (scenarios/directed_divergence.toml):
    /// two directed 4-cliques bridged by an undirected perfect matching.
    fn divergence_digraph() -> Topology {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        for i in 0..4 {
            edges.push((i, i + 4));
        }
        Topology::from_edges(8, &edges, true).unwrap()
    }

    fn run_directed(
        topology: Topology,
        f: usize,
        d: usize,
        honest_inputs: Vec<Point>,
        strategy: ByzantineStrategy,
        seed: u64,
        local_broadcast: bool,
    ) -> Vec<Option<Point>> {
        let n = topology.len();
        assert_eq!(honest_inputs.len(), n - f);
        let cfg = config(n, f, d);
        let topology = Arc::new(topology);
        let cache = GammaCache::shared();
        let mut processes: Vec<Box<dyn SyncProcess<Msg = DirectedMsg, Output = Point>>> =
            Vec::new();
        for (i, input) in honest_inputs.iter().enumerate() {
            processes.push(Box::new(DirectedExactProcess::new(
                cfg.clone(),
                i,
                input.clone(),
                Arc::clone(&topology),
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
            forge.set_honest_value(Point::uniform(d, 0.5));
            processes.push(Box::new(Forging::new(
                DirectedExactProcess::new(
                    cfg.clone(),
                    me,
                    Point::uniform(d, cfg.lower_bound),
                    Arc::clone(&topology),
                    cache.clone(),
                ),
                forge,
            )));
        }
        let honest: Vec<usize> = (0..n - f).collect();
        SyncNetwork::new(processes, DirectedExactProcess::total_rounds(&cfg))
            .with_topology(topology)
            .with_local_broadcast(local_broadcast)
            .run(&honest)
            .outputs
    }

    fn assert_agreement(outputs: &[Option<Point>], honest: usize) {
        let decisions: Vec<&Point> = outputs[..honest]
            .iter()
            .map(|o| o.as_ref().expect("honest process must decide"))
            .collect();
        for pair in decisions.windows(2) {
            assert!(
                pair[0] == pair[1],
                "agreement violated: {} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn fault_free_flood_decides_on_a_ring() {
        // f = 0 on a directed-reachable ring: every claim floods everywhere
        // within n rounds and all processes resolve the identical multiset.
        let inputs: Vec<Point> = (0..5).map(|i| Point::new(vec![i as f64 / 4.0])).collect();
        let outputs = run_directed(
            Topology::ring(5),
            0,
            1,
            inputs,
            ByzantineStrategy::Benign,
            1,
            false,
        );
        assert_agreement(&outputs, 5);
    }

    #[test]
    fn crash_adversary_on_the_divergence_digraph_decides_under_local_broadcast() {
        let inputs: Vec<Point> = (0..7)
            .map(|i| Point::new(vec![i as f64 / 6.0, (6 - i) as f64 / 6.0]))
            .collect();
        let outputs = run_directed(
            divergence_digraph(),
            1,
            2,
            inputs,
            ByzantineStrategy::Crash(1),
            3,
            true,
        );
        assert_agreement(&outputs, 7);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let inputs: Vec<Point> = (0..7)
            .map(|i| Point::new(vec![i as f64 / 6.0, i as f64 / 7.0]))
            .collect();
        let a = run_directed(
            divergence_digraph(),
            1,
            2,
            inputs.clone(),
            ByzantineStrategy::Crash(2),
            9,
            true,
        );
        let b = run_directed(
            divergence_digraph(),
            1,
            2,
            inputs,
            ByzantineStrategy::Crash(2),
            9,
            true,
        );
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Some(p), Some(q)) => assert_eq!(p.coords(), q.coords()),
                (None, None) => {}
                other => panic!("termination diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn silent_byzantine_source_resolves_to_the_default_corner() {
        let inputs: Vec<Point> = (0..7)
            .map(|i| Point::new(vec![0.4 + i as f64 / 50.0, 0.5]))
            .collect();
        let outputs = run_directed(
            divergence_digraph(),
            1,
            2,
            inputs,
            ByzantineStrategy::Silent,
            5,
            false,
        );
        // The silent source contributes no claim anywhere; every honest
        // process resolves it to the same default, so agreement holds and
        // the decision stays near the honest cluster (f = 1 outlier is
        // trimmed by Γ).
        assert_agreement(&outputs, 7);
        let decision = outputs[0].as_ref().unwrap();
        assert!(
            decision.coords()[0] > 0.3,
            "decision {decision} left the honest hull"
        );
    }

    #[test]
    fn relays_preserve_the_claimed_source() {
        // On a directed path 0 → 1 → 2, process 2 only hears process 0's
        // claim through 1's relay — the claim must still be attributed to 0.
        let path = Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)], false).unwrap();
        let cfg = config(3, 0, 1);
        let topology = Arc::new(path);
        let cache = GammaCache::shared();
        let mut processes: Vec<Box<dyn SyncProcess<Msg = DirectedMsg, Output = Point>>> =
            Vec::new();
        for i in 0..3 {
            processes.push(Box::new(DirectedExactProcess::new(
                cfg.clone(),
                i,
                Point::new(vec![i as f64 / 2.0]),
                Arc::clone(&topology),
                cache.clone(),
            )));
        }
        let outcome = SyncNetwork::new(processes, DirectedExactProcess::total_rounds(&cfg))
            .with_topology(topology)
            .run(&[0, 1, 2]);
        assert!(outcome.outputs.iter().all(|o| o.is_some()));
        assert_agreement(&outcome.outputs, 3);
    }

    #[test]
    fn total_rounds_is_n_plus_one() {
        assert_eq!(DirectedExactProcess::total_rounds(&config(8, 1, 2)), 9);
    }

    #[test]
    fn lex_resolution_is_order_independent() {
        let cfg = config(3, 0, 2);
        let t = Arc::new(Topology::complete(3));
        let input = Point::new(vec![0.9, 0.9]);
        let process =
            |cfg, input| DirectedExactProcess::new(cfg, 0, input, t.clone(), GammaCache::shared());
        let mut a = process(cfg.clone(), input.clone());
        let mut b = process(cfg, input);
        let claims = [
            DirectedMsg {
                source: 1,
                point: Point::new(vec![0.5, 0.1]),
            },
            DirectedMsg {
                source: 1,
                point: Point::new(vec![0.5, 0.0]),
            },
            DirectedMsg {
                source: 2,
                point: Point::new(vec![0.2, 0.2]),
            },
        ];
        for msg in &claims {
            a.ingest(msg);
        }
        for msg in claims.iter().rev() {
            b.ingest(msg);
        }
        a.conclude();
        b.conclude();
        assert_eq!(
            a.decision.as_ref().map(|p| p.coords().to_vec()),
            b.decision.as_ref().map(|p| p.coords().to_vec()),
            "resolution must not depend on claim arrival order"
        );
    }
}
