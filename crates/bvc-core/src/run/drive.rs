//! The one run path: every protocol is a **cast** — `n − f` honest
//! processes built from the honest inputs, then `f` that "may behave
//! arbitrarily" built from a seeded [`PointForge`] — handed to one of two
//! executors.
//!
//! [`BvcSession::drive`] is the single dispatch point.  Each arm of its
//! `match` states only what differs between protocols: how honest process
//! `i` and Byzantine process `b` are built, the executor round count, the
//! agreement tolerance, and the optional round budget / per-process outputs
//! / sufficiency verdict.  Everything else — the cast loop, the executor
//! wiring (topology, delivery model, faults, seed), collecting the honest
//! decisions — is written once, in [`BvcSession::cast`],
//! [`BvcSession::run_sync`] and [`BvcSession::run_async`].
//!
//! A Byzantine process is never protocol code: it is the honest process of
//! the same protocol under [`Forging`] (its skeleton is built by the same
//! closure as the honest processes, on a nominal input, and so asks Γ
//! through the run's cache like every other cast member — but never gets
//! the validity mode), or a [`StateForger`] for the protocols whose message
//! is a bare state vector and which asks no Γ.

use super::{BvcSession, DriverOutcome, ProtocolKind};
use crate::approx::{ApproxBvcProcess, ApproxOutput};
use crate::directed::DirectedExactProcess;
use crate::exact::ExactBvcProcess;
use crate::iterative::iterative_round_budget;
use crate::restricted::{restricted_round_budget, RestrictedAsyncProcess, StateMsg};
use crate::rounds::StateExchangeProcess;
use bvc_adversary::{Forging, PointForge, StateForger};
use bvc_broadcast::ChildSlots;
use bvc_geometry::Point;
use bvc_net::{AsyncNetwork, AsyncProcess, SyncNetwork, SyncProcess};
use std::sync::Arc;

type SyncBox<M> = Box<dyn SyncProcess<Msg = M, Output = Point>>;
type AsyncBox<M, O> = Box<dyn AsyncProcess<Msg = M, Output = O>>;

fn sync_box<P: SyncProcess<Output = Point> + 'static>(process: P) -> SyncBox<P::Msg> {
    Box::new(process)
}

fn async_box<P: AsyncProcess + 'static>(process: P) -> AsyncBox<P::Msg, P::Output> {
    Box::new(process)
}

impl BvcSession {
    /// Executes the session's protocol and returns the raw outcome.
    pub(super) fn drive(&self) -> DriverOutcome {
        let config = &self.core;
        let rc = &self.config;
        let cache = &self.gamma_cache;
        let topology = &self.topology;
        let everyone_but = |me: usize| (0..config.n).filter(|&to| to != me).collect::<Vec<_>>();
        let state_forger =
            |recipients, rounds, forge| StateForger::new(recipients, rounds, forge, StateMsg::new);
        match self.protocol {
            ProtocolKind::Exact => self.drive_exact(),
            ProtocolKind::Approx => {
                let mid = Point::uniform(config.d, 0.5 * (config.lower_bound + config.upper_bound));
                let process = |me, input| {
                    ApproxBvcProcess::new(config.clone(), me, input, rc.update_rule, cache.clone())
                };
                let cast = self.cast(
                    |i, input| async_box(process(i, input)),
                    |me, forge| async_box(Forging::new(process(me, mid.clone()), forge)),
                );
                let (mut outcome, outputs) =
                    self.run_async(cast, |output: &ApproxOutput| output.decision.clone());
                outcome.round_budget = Some(ApproxBvcProcess::round_budget(config, rc.update_rule));
                outcome.outputs = outputs;
                outcome
            }
            ProtocolKind::RestrictedSync => {
                let rounds = restricted_round_budget(config) + 1;
                let cast = self.cast(
                    |i, input| {
                        sync_box(StateExchangeProcess::restricted_sync(
                            config.clone(),
                            i,
                            input,
                            cache.clone(),
                        ))
                    },
                    |me, forge| sync_box(state_forger(everyone_but(me), rounds, forge)),
                );
                self.run_sync(cast, rounds, false, config.epsilon)
            }
            ProtocolKind::RestrictedAsync => {
                let rounds = restricted_round_budget(config);
                let cast = self.cast(
                    |i, input| {
                        async_box(RestrictedAsyncProcess::new(
                            config.clone(),
                            i,
                            input,
                            cache.clone(),
                        ))
                    },
                    |me, forge| async_box(state_forger(everyone_but(me), rounds, forge)),
                );
                self.run_async(cast, Point::clone).0
            }
            // No closed-form resilience bound and `f = 0` allowed: whether
            // the run is solvable is the topology's sufficiency check, whose
            // verdict the report records.  A violated condition is data, not
            // an error — the run executes, and the scenario layer flags it
            // expected-unsolvable.  The check keeps the strict dimension
            // under every validity mode: the update rule has no relaxed
            // variant, so a sparser graph does not become expected-solvable
            // under lenient scoring.
            ProtocolKind::Iterative => {
                let rounds = iterative_round_budget(config) + 1;
                let cast = self.cast(
                    |i, input| {
                        sync_box(StateExchangeProcess::iterative(
                            config.clone(),
                            i,
                            input,
                            topology,
                            cache.clone(),
                        ))
                    },
                    |me, forge| {
                        let out_neighbors = topology.out_neighbors(me).to_vec();
                        sync_box(state_forger(out_neighbors, rounds, forge))
                    },
                );
                let mut outcome = self.run_sync(cast, rounds, false, config.epsilon);
                outcome.round_budget = Some(iterative_round_budget(config));
                outcome.sufficiency = Some(topology.iterative_sufficiency(config.f, config.d));
                outcome
            }
            // The model's graph condition is recorded like the iterative
            // one.  On `K_n` with the Section-2.2 preconditions met the run
            // *is* the complete-graph protocol — `K_n` is exactly the
            // setting it is proven for, its Byzantine broadcast already
            // defeats everything the directed condition guards against
            // there, and local broadcast is vacuous (every receiver set is
            // all of Π) — which is what keeps the `K_n` verdicts
            // byte-identical to `ProtocolKind::Exact`.
            ProtocolKind::DirectedExact | ProtocolKind::DirectedExactLb => {
                let local_broadcast = self.protocol == ProtocolKind::DirectedExactLb;
                let sufficiency = if local_broadcast {
                    topology.directed_exact_lb_sufficiency(config.f, config.d)
                } else {
                    topology.directed_exact_sufficiency(config.f, config.d)
                };
                let exact_floor = ProtocolKind::Exact.min_processes(config.d, config.f);
                let exact_admits =
                    config.f >= 1 && exact_floor.is_some_and(|floor| config.n >= floor);
                let mut outcome = if topology.is_complete() && exact_admits {
                    self.drive_exact()
                } else {
                    let corner = Point::uniform(config.d, config.lower_bound);
                    let flood = |me, input| {
                        let topology = topology.clone();
                        DirectedExactProcess::new(
                            config.clone(),
                            me,
                            input,
                            topology,
                            cache.clone(),
                        )
                    };
                    let cast = self.cast(
                        |i, input| sync_box(flood(i, input).with_validity_mode(rc.validity)),
                        |me, forge| sync_box(Forging::new(flood(me, corner.clone()), forge)),
                    );
                    self.run_sync(
                        cast,
                        DirectedExactProcess::total_rounds(config),
                        local_broadcast,
                        0.0,
                    )
                };
                outcome.sufficiency = Some(sufficiency);
                outcome
            }
        }
    }

    /// Section 2.2 on the synchronous executor; also what the directed kinds
    /// run on `K_n`.  The cast shares one EIG child-slot table, as it shares
    /// the Γ cache.
    fn drive_exact(&self) -> DriverOutcome {
        let config = &self.core;
        let cache = &self.gamma_cache;
        let corner = Point::uniform(config.d, config.lower_bound);
        let slots = Arc::new(ChildSlots::new(config.n, config.f));
        let process =
            |me, input| ExactBvcProcess::new(config.clone(), me, input, &slots, cache.clone());
        let cast = self.cast(
            |i, input| sync_box(process(i, input).with_validity_mode(self.config.validity)),
            |me, forge| sync_box(Forging::new(process(me, corner.clone()), forge)),
        );
        self.run_sync(cast, ExactBvcProcess::total_rounds(config), false, 0.0)
    }

    /// The cast: honest process `i` on honest input `i` for `i < n − f`,
    /// then Byzantine process `n − f + b` on the forge of `(seed, b)`.
    fn cast<B>(
        &self,
        honest: impl Fn(usize, Point) -> B,
        byzantine: impl Fn(usize, PointForge) -> B,
    ) -> Vec<B> {
        let inputs = self.config.honest_inputs.iter().cloned().enumerate();
        let mut processes: Vec<B> = inputs.map(|(i, input)| honest(i, input)).collect();
        for b in 0..self.core.f {
            processes.push(byzantine(self.core.honest_count() + b, self.forge(b)));
        }
        processes
    }

    /// The seeded point forge of Byzantine process `index` (deterministic
    /// per `(seed, index)`, the same for every protocol).
    fn forge(&self, index: usize) -> PointForge {
        let config = &self.core;
        let mut forge = PointForge::new(
            self.config.adversary,
            config.d,
            config.lower_bound,
            config.upper_bound,
            self.config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
        );
        forge.set_honest_value(Point::uniform(
            config.d,
            0.5 * (config.lower_bound + config.upper_bound),
        ));
        forge
    }

    /// The honest process indices (`0..n−f`), the executor's "must decide"
    /// set.
    fn honest_indices(&self) -> Vec<usize> {
        (0..self.core.honest_count()).collect()
    }

    /// Extracts the decided outputs of the honest processes from an
    /// executor's output slots, in honest-index order.
    fn honest_decisions<T: Clone>(&self, outputs: &[Option<T>]) -> Vec<T> {
        (0..self.core.honest_count())
            .filter_map(|i| outputs[i].clone())
            .collect()
    }

    /// The synchronous executor, waited on the honest processes and judged
    /// at `tolerance`: ε, or 0 for the exact kinds, whose honest decisions
    /// are the same deterministic Γ point of the same multiset, so agreement
    /// is equality.
    fn run_sync<M: Clone>(
        &self,
        cast: Vec<SyncBox<M>>,
        rounds: usize,
        local_broadcast: bool,
        tolerance: f64,
    ) -> DriverOutcome {
        let honest = self.honest_indices();
        let outcome = SyncNetwork::new(cast, rounds)
            .with_topology(Arc::clone(&self.topology))
            .with_local_broadcast(local_broadcast)
            .with_faults(self.config.faults.clone(), self.config.seed)
            .run(&honest);
        let decisions = self.honest_decisions(&outcome.outputs);
        DriverOutcome {
            terminated: decisions.len() == honest.len(),
            decisions,
            tolerance,
            rounds: outcome.rounds,
            stats: outcome.stats,
            round_budget: None,
            outputs: Vec::new(),
            sufficiency: None,
        }
    }

    /// The asynchronous executor, waited on the honest processes and judged
    /// at ε; also hands back the honest processes' full outputs.
    fn run_async<M: Clone, O: Clone>(
        &self,
        cast: Vec<AsyncBox<M, O>>,
        decision: impl Fn(&O) -> Point,
    ) -> (DriverOutcome, Vec<O>) {
        let rc = &self.config;
        let honest = self.honest_indices();
        let outcome = AsyncNetwork::new(cast, rc.delivery_policy.clone(), rc.seed, rc.max_steps)
            .with_topology(Arc::clone(&self.topology))
            .with_faults(rc.faults.clone())
            .run(&honest);
        let outputs = self.honest_decisions(&outcome.outputs);
        let driven = DriverOutcome {
            terminated: outputs.len() == honest.len() && outcome.completed,
            decisions: outputs.iter().map(decision).collect(),
            tolerance: self.core.epsilon,
            rounds: outcome.stats.steps,
            stats: outcome.stats,
            round_budget: None,
            outputs: Vec::new(),
            sufficiency: None,
        };
        (driven, outputs)
    }
}
