//! Iterative BVC over an incomplete communication graph.
//!
//! *Iterative Byzantine Vector Consensus in Incomplete Graphs* (Vaidya 2013,
//! arXiv:1307.2483) studies the simplest protocol shape on a *declared*
//! directed topology: each process keeps a single state vector, sends it to
//! its out-neighbors every round, and updates it to a convex combination of
//! its own state and the values received from its in-neighbors.  The
//! Byzantine defence is entirely local — each round the process forms the
//! multiset `Y_i[t]` of its in-neighborhood values plus its own state and
//! picks the deterministic safe-area point `z_i[t] ∈ Γ(Y_i[t])` (removing
//! `f` values), then moves halfway:
//!
//! ```text
//! v_i[t] = ( v_i[t−1] + z_i[t] ) / 2,      z_i[t] ∈ Γ(Y_i[t], f)
//! ```
//!
//! `z_i[t]` lies in the hull of every `(|Y_i|−f)`-sub-multiset, hence in the
//! hull of the honest values among `Y_i[t]` whenever at most `f` in-neighbors
//! are Byzantine — so validity is preserved inductively on **any** topology.
//! Convergence (ε-agreement) additionally needs the graph to satisfy the
//! sufficiency condition checked by
//! [`Topology::iterative_sufficiency`](bvc_topology::Topology); on graphs
//! that violate it the protocol still runs and still preserves validity, but
//! the honest states may never contract — which is exactly what the scenario
//! engine records.
//!
//! When `Γ(Y_i[t])` is empty (possible below the Lemma-1 threshold, e.g. on
//! very sparse neighborhoods) or fewer than `f + 1` values are available,
//! the process keeps its state for the round — a safe no-op.
//!
//! The safe-area evaluations reuse the shared Γ engine: the `d = 1` closed
//! form, the trimmed-box probe and the [`GammaCache`](bvc_geometry::GammaCache)
//! all apply unchanged to the per-neighborhood multisets.
//!
//! The honest process is [`StateExchangeProcess::iterative`]: the lock-step
//! round of [`crate::rounds`] with the out-neighbors as recipients and the
//! update above as Step 2.

use crate::config::BvcConfig;
use crate::convergence::{gamma_iterative, round_threshold};
use crate::rounds::{IterateCore, StateExchangeProcess};
use crate::witness::average_state;
use bvc_geometry::{CanonicalEntries, Point, SharedGammaCache};
use bvc_topology::Topology;

/// The round budget of the iterative protocol: the Section-3.2 termination
/// rule evaluated at the conservative incomplete-graph contraction parameter
/// [`gamma_iterative`].
pub fn iterative_round_budget(config: &BvcConfig) -> usize {
    round_threshold(
        gamma_iterative(config.n.max(2)),
        config.lower_bound,
        config.upper_bound,
        config.epsilon,
    )
}

impl StateExchangeProcess {
    /// Honest process `me` of the iterative incomplete-graph protocol on
    /// `topology`: every round it sends its state to its out-neighbors, and
    /// `Y_i[t]` is what its in-neighbors reported plus its own state.  The
    /// executor needs `iterative_round_budget + 1` rounds, the last one
    /// closing the final inbox.
    ///
    /// Step 2 asks Γ through `cache`, the run's: neighborhood multisets
    /// overlap across processes and repeat across rounds as the states
    /// converge, which is what a shared Γ cache collapses.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n`, `input.dim() != config.d`, or the topology
    /// size differs from `config.n`.
    pub fn iterative(
        config: BvcConfig,
        me: usize,
        input: Point,
        topology: &Topology,
        cache: SharedGammaCache,
    ) -> Self {
        assert_eq!(
            topology.len(),
            config.n,
            "topology size must match config.n"
        );
        let budget = iterative_round_budget(&config);
        let core = IterateCore::new(config, me, input, budget, cache);
        Self::new(core, topology.out_neighbors(me).to_vec(), midpoint_to_gamma)
    }
}

/// Step 2 of arXiv:1307.2483 on `Y_i[t]`: halfway to the Γ point of the
/// neighborhood.  The state is kept when `|Y_i[t]| ≤ f` or Γ is empty.
fn midpoint_to_gamma(core: &IterateCore, reports: &[&Point]) -> Option<Point> {
    let f = core.config.f;
    if reports.len() <= f {
        return None;
    }
    let mut neighborhood = CanonicalEntries::new(reports.iter().copied());
    let z = core.gamma_cache.find_point_of(neighborhood.all(), f)?;
    Some(average_state(&[core.state().clone(), z]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::StateMsg;
    use bvc_geometry::GammaCache;
    use bvc_net::{SyncNetwork, SyncProcess};
    use std::sync::Arc;

    fn run_honest(
        topology: Topology,
        f: usize,
        inputs: Vec<Point>,
        epsilon: f64,
    ) -> Vec<Option<Point>> {
        let n = topology.len();
        let config = BvcConfig::new(n, f, inputs[0].dim())
            .unwrap()
            .with_epsilon(epsilon)
            .unwrap();
        let topology = Arc::new(topology);
        let cache = GammaCache::shared();
        let processes: Vec<Box<dyn SyncProcess<Msg = StateMsg, Output = Point>>> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                Box::new(StateExchangeProcess::iterative(
                    config.clone(),
                    i,
                    input,
                    &topology,
                    cache.clone(),
                )) as Box<dyn SyncProcess<Msg = StateMsg, Output = Point>>
            })
            .collect();
        let wait: Vec<usize> = (0..n).collect();
        SyncNetwork::new(processes, iterative_round_budget(&config) + 1)
            .with_topology(topology)
            .run(&wait)
            .outputs
    }

    #[test]
    fn fault_free_ring_reaches_epsilon_agreement() {
        let inputs: Vec<Point> = (0..6).map(|i| Point::new(vec![i as f64 / 5.0])).collect();
        let outputs = run_honest(Topology::ring(6), 0, inputs, 0.05);
        let decisions: Vec<&Point> = outputs.iter().map(|o| o.as_ref().unwrap()).collect();
        for a in &decisions {
            for b in &decisions {
                assert!(
                    a.linf_distance(b) <= 0.05,
                    "ring states must contract: {a} vs {b}"
                );
            }
            assert!(
                (0.0..=1.0).contains(&a.coord(0)),
                "validity: decisions stay in the input hull"
            );
        }
    }

    #[test]
    fn states_stay_inside_the_running_hull_in_2d() {
        let inputs = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![0.5, 0.5]),
        ];
        let outputs = run_honest(Topology::complete(5), 0, inputs, 0.1);
        for o in outputs {
            let p = o.expect("everyone decides at the budget");
            assert!(p.coords().iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn empty_neighborhood_keeps_the_state() {
        // Two isolated nodes: no exchange ever happens, so each decision is
        // its own input (validity holds trivially; agreement cannot).
        let t = Topology::from_edges(2, &[], false).unwrap();
        let inputs = vec![Point::new(vec![0.0]), Point::new(vec![1.0])];
        let outputs = run_honest(t, 0, inputs, 0.1);
        assert_eq!(outputs[0].as_ref().unwrap().coord(0), 0.0);
        assert_eq!(outputs[1].as_ref().unwrap().coord(0), 1.0);
    }

    #[test]
    fn round_budget_is_positive_and_grows_with_precision() {
        let coarse = BvcConfig::new(8, 1, 1).unwrap().with_epsilon(0.1).unwrap();
        let fine = BvcConfig::new(8, 1, 1)
            .unwrap()
            .with_epsilon(0.001)
            .unwrap();
        assert!(iterative_round_budget(&coarse) >= 1);
        assert!(iterative_round_budget(&fine) > iterative_round_budget(&coarse));
    }
}
