//! Deterministic asynchronous execution simulator.
//!
//! In the paper's asynchronous model, processes take steps at arbitrary
//! relative speeds and message delays are unbounded but finite; channels are
//! reliable and FIFO.  The [`AsyncNetwork`] simulator models an execution as a
//! sequence of *delivery steps*: at each step an adversarial (but fair)
//! scheduler picks one non-empty channel, delivers its oldest message, and
//! lets the recipient react by sending further messages.
//!
//! The scheduler is seeded, so a given `(processes, policy, seed)` triple
//! always produces exactly the same execution — which is what makes the
//! asynchronous experiments and property tests reproducible.
//!
//! This module is only the scheduler.  What happens to each send — topology,
//! local broadcast, injected faults, accounting — is the crate's
//! [delivery core](crate#one-delivery-core-two-schedulers).

use crate::faults::FaultPlan;
use crate::links::{Gate, ReadyLinks};
use crate::process::{ExecutionStats, Outgoing, ProcessId};
use bvc_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// An event-driven state machine driven by the asynchronous executor.
pub trait AsyncProcess {
    /// Message payload type exchanged by the protocol.
    type Msg: Clone;
    /// Decision/output type of the protocol.
    type Output: Clone;

    /// Called once when the execution starts; returns the initial messages.
    fn on_start(&mut self) -> Vec<Outgoing<Self::Msg>>;

    /// Called when a message is delivered to this process; returns the
    /// messages to send in response.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg) -> Vec<Outgoing<Self::Msg>>;

    /// The process's decision, once reached.
    fn output(&self) -> Option<Self::Output>;

    /// Whether the process has decided: what the executor asks after every
    /// delivery, so a process whose [`output`](Self::output) is costly to
    /// build answers it without building it.
    fn is_decided(&self) -> bool {
        self.output().is_some()
    }
}

/// Scheduling policy of the asynchronous adversary.
///
/// All policies are *fair*: a message sitting in a channel is eventually
/// delivered, because the scheduler only ever chooses among non-empty
/// channels and every policy gives every non-empty channel a chance once the
/// preferred ones are drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Pick a uniformly random non-empty channel at each step.
    RandomFair,
    /// Cycle through channels in a fixed order.
    RoundRobin,
    /// Starve messages **from** the listed processes for as long as any other
    /// channel has pending messages (the "slow process" adversary used in the
    /// necessity proof of Theorem 4, where `p_{d+2}` takes no steps until the
    /// others are done).
    DelayFrom(Vec<ProcessId>),
    /// Starve messages **to** the listed processes for as long as any other
    /// channel has pending messages.
    DelayTo(Vec<ProcessId>),
}

/// Outcome of running an asynchronous execution.
#[derive(Debug, Clone)]
pub struct AsyncOutcome<O> {
    /// Output of each process, by index (`None` if it never decided).
    pub outputs: Vec<Option<O>>,
    /// Whether every process the caller waited for decided before the step
    /// cap was reached.
    pub completed: bool,
    /// Message statistics (`steps` counts delivery steps).
    pub stats: ExecutionStats,
}

/// The asynchronous executor (complete graph by default).
pub struct AsyncNetwork<M, O> {
    processes: Vec<Box<dyn AsyncProcess<Msg = M, Output = O>>>,
    policy: DeliveryPolicy,
    seed: u64,
    max_steps: usize,
    gate: Gate,
}

impl<M: Clone, O: Clone> AsyncNetwork<M, O> {
    /// Creates an executor with the given scheduling policy, RNG seed and a
    /// safety cap on the number of delivery steps.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty or `max_steps == 0`.
    pub fn new(
        processes: Vec<Box<dyn AsyncProcess<Msg = M, Output = O>>>,
        policy: DeliveryPolicy,
        seed: u64,
        max_steps: usize,
    ) -> Self {
        let gate = Gate::new(processes.len());
        assert!(max_steps > 0, "max_steps must be positive");
        Self {
            processes,
            policy,
            seed,
            max_steps,
            gate,
        }
    }

    /// Restricts delivery to the links of `topology` (the complete graph is
    /// the default); a message addressed across a missing link vanishes —
    /// step 4 of the [delivery order contract](crate#delivery-order-contract)
    /// — and consumes no scheduling or fault randomness.
    ///
    /// # Panics
    ///
    /// Panics if `topology.len()` differs from the number of processes.
    pub fn with_topology(mut self, topology: impl Into<Arc<Topology>>) -> Self {
        self.gate.set_topology(topology.into());
        self
    }

    /// Layers an injected-fault schedule over the delivery policy; fault
    /// windows are measured in scheduler ticks.  Drop decisions draw from a
    /// dedicated RNG stream derived from the executor seed, so adding a
    /// fault-free plan leaves the execution byte-identical.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.gate.set_faults(faults, self.seed);
        self
    }

    /// Runs the execution until every process listed in `wait_for` has
    /// produced an output, all channels are empty, or the step cap is hit.
    ///
    /// With an injected [`FaultPlan`], scheduler *ticks* advance even on
    /// stalls where every pending message is blocked by an active fault;
    /// `stats.steps` still counts deliveries only.  A stall jumps straight to
    /// the next tick at which a queued head comes due or a fault window opens
    /// or closes, so a long window costs one jump, not one pass per tick; no
    /// window opens inside a jump, so the execution and its trace are those
    /// of ticking through it.  The tick budget is `max_steps` plus the plan's
    /// quiescence horizon, so a finite fault schedule can never turn the step
    /// cap into permanent starvation.
    pub fn run(mut self, wait_for: &[usize]) -> AsyncOutcome<O> {
        let n = self.processes.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let tick_cap = self.max_steps.saturating_add(self.gate.quiescent_at());
        let mut links = ReadyLinks::new(self.gate);
        let mut round_robin_cursor = 0usize;
        let mut now = 0usize;
        let mut steps = 0usize;

        // A message is in its channel the moment it is sent (no transit
        // time); only the scheduler and the fault plan hold it back.
        for (index, process) in self.processes.iter_mut().enumerate() {
            links.send(index, process.on_start());
        }

        let decided = |processes: &[Box<dyn AsyncProcess<Msg = M, Output = O>>]| {
            wait_for.iter().all(|&i| processes[i].is_decided())
        };

        while steps < self.max_steps && now < tick_cap {
            links.links.gate.announce_fault_windows(now, "ticks");
            if decided(&self.processes) {
                break;
            }
            if links.ready_channels().is_empty() {
                if links.any_pending() {
                    // Everything in flight is fault-blocked: skip the ticks
                    // at which nothing can change.
                    now = links.next_change().map_or(tick_cap, |t| t.min(tick_cap));
                    links.advance(now);
                    continue;
                }
                break;
            }
            let channel =
                self.policy
                    .pick(links.ready_channels(), n, &mut rng, &mut round_robin_cursor);
            let msg = links.take(channel);
            steps += 1;
            now += 1;
            links.advance(now);
            let (from, to) = (channel / n, channel % n);
            let outgoing = self.processes[to].on_message(ProcessId::new(from), msg);
            links.send(to, outgoing);
        }

        AsyncOutcome {
            completed: decided(&self.processes),
            outputs: self.processes.iter().map(|p| p.output()).collect(),
            stats: links.links.gate.finish(steps),
        }
    }
}

impl DeliveryPolicy {
    /// The channel (`from * n + to`) this policy delivers from next, among
    /// the `ready` ones (ascending).
    fn pick(&self, ready: &[usize], n: usize, rng: &mut StdRng, cursor: &mut usize) -> usize {
        let listed = |list: &[ProcessId], i: usize| list.iter().any(|p| p.index() == i);
        match self {
            DeliveryPolicy::RandomFair => ready[rng.gen_range(0..ready.len())],
            DeliveryPolicy::RoundRobin => {
                let choice = ready[*cursor % ready.len()];
                *cursor = cursor.wrapping_add(1);
                choice
            }
            DeliveryPolicy::DelayFrom(list) => pick_preferred(ready, rng, |c| !listed(list, c / n)),
            DeliveryPolicy::DelayTo(list) => pick_preferred(ready, rng, |c| !listed(list, c % n)),
        }
    }
}

/// A uniform draw among the `preferred` ready channels, or among all of them
/// when none is preferred; indexes in place, drawing what a draw from the
/// filtered list would.
fn pick_preferred(ready: &[usize], rng: &mut StdRng, preferred: impl Fn(usize) -> bool) -> usize {
    let count = ready.iter().filter(|&&c| preferred(c)).count();
    if count == 0 {
        return ready[rng.gen_range(0..ready.len())];
    }
    let k = rng.gen_range(0..count);
    (ready.iter().copied().filter(|&c| preferred(c)).nth(k)).expect("k < count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::broadcast_to_all;

    /// Toy protocol: each process broadcasts its value once, then outputs the
    /// sum of the first `n - 1` values it receives (including duplicates).
    struct Summer {
        id: ProcessId,
        n: usize,
        value: u64,
        received: Vec<u64>,
        result: Option<u64>,
    }

    impl AsyncProcess for Summer {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self) -> Vec<Outgoing<u64>> {
            broadcast_to_all(self.n, Some(self.id), &self.value)
        }

        fn on_message(&mut self, _from: ProcessId, msg: u64) -> Vec<Outgoing<u64>> {
            if self.result.is_none() {
                self.received.push(msg);
                if self.received.len() == self.n - 1 {
                    self.result = Some(self.received.iter().sum::<u64>() + self.value);
                }
            }
            Vec::new()
        }

        fn output(&self) -> Option<u64> {
            self.result
        }
    }

    fn summer_network(values: &[u64], policy: DeliveryPolicy, seed: u64) -> AsyncNetwork<u64, u64> {
        let n = values.len();
        let processes: Vec<Box<dyn AsyncProcess<Msg = u64, Output = u64>>> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Box::new(Summer {
                    id: ProcessId::new(i),
                    n,
                    value: v,
                    received: Vec::new(),
                    result: None,
                }) as Box<dyn AsyncProcess<Msg = u64, Output = u64>>
            })
            .collect();
        AsyncNetwork::new(processes, policy, seed, 10_000)
    }

    #[test]
    fn all_messages_eventually_delivered_random_policy() {
        let all: Vec<usize> = (0..4).collect();
        let outcome = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 7).run(&all);
        assert!(outcome.completed);
        assert_eq!(
            outcome.outputs,
            vec![Some(10), Some(10), Some(10), Some(10)]
        );
    }

    #[test]
    fn round_robin_policy_also_completes() {
        let all: Vec<usize> = (0..3).collect();
        let outcome = summer_network(&[1, 2, 3], DeliveryPolicy::RoundRobin, 0).run(&all);
        assert!(outcome.completed);
        assert_eq!(outcome.outputs, vec![Some(6), Some(6), Some(6)]);
    }

    #[test]
    fn executions_are_reproducible_for_equal_seeds() {
        let all: Vec<usize> = (0..4).collect();
        let a = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 42).run(&all);
        let b = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 42).run(&all);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn delayed_process_messages_arrive_last_but_arrive() {
        // Delay messages from process 0; everyone still completes because the
        // policy is fair.
        let all: Vec<usize> = (0..3).collect();
        let outcome = summer_network(
            &[100, 1, 2],
            DeliveryPolicy::DelayFrom(vec![ProcessId::new(0)]),
            3,
        )
        .run(&all);
        assert!(outcome.completed);
        assert_eq!(outcome.outputs, vec![Some(103), Some(103), Some(103)]);
    }

    #[test]
    fn waiting_for_a_subset_ignores_others() {
        // Only wait for processes 1 and 2; process 0 needs n-1 = 3 messages
        // like the others, but we do not require it.
        let outcome = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 9).run(&[1, 2]);
        assert!(outcome.completed);
        assert!(outcome.outputs[1].is_some() && outcome.outputs[2].is_some());
    }

    #[test]
    fn step_cap_halts_runaway_executions() {
        // A protocol that ping-pongs forever between two processes.
        struct PingPong {
            id: ProcessId,
        }
        impl AsyncProcess for PingPong {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self) -> Vec<Outgoing<()>> {
                vec![Outgoing::new(ProcessId::new(1 - self.id.index()), ())]
            }
            fn on_message(&mut self, from: ProcessId, _msg: ()) -> Vec<Outgoing<()>> {
                vec![Outgoing::new(from, ())]
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        let processes: Vec<Box<dyn AsyncProcess<Msg = (), Output = ()>>> = (0..2)
            .map(|i| {
                Box::new(PingPong {
                    id: ProcessId::new(i),
                }) as Box<dyn AsyncProcess<Msg = (), Output = ()>>
            })
            .collect();
        let outcome = AsyncNetwork::new(processes, DeliveryPolicy::RoundRobin, 0, 50).run(&[0, 1]);
        assert!(!outcome.completed);
        assert_eq!(outcome.stats.steps, 50);
    }

    #[test]
    fn per_channel_fifo_order_is_respected() {
        // Process 0 sends two ordered messages to process 1 at start; process
        // 1 records the order it sees them in.
        struct Sender;
        struct Receiver {
            seen: Vec<u64>,
            done: Option<Vec<u64>>,
        }
        #[derive(Clone)]
        enum Msg {
            Value(u64),
        }
        impl AsyncProcess for Sender {
            type Msg = Msg;
            type Output = Vec<u64>;
            fn on_start(&mut self) -> Vec<Outgoing<Msg>> {
                vec![
                    Outgoing::new(ProcessId::new(1), Msg::Value(1)),
                    Outgoing::new(ProcessId::new(1), Msg::Value(2)),
                    Outgoing::new(ProcessId::new(1), Msg::Value(3)),
                ]
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg) -> Vec<Outgoing<Msg>> {
                Vec::new()
            }
            fn output(&self) -> Option<Vec<u64>> {
                Some(Vec::new())
            }
        }
        impl AsyncProcess for Receiver {
            type Msg = Msg;
            type Output = Vec<u64>;
            fn on_start(&mut self) -> Vec<Outgoing<Msg>> {
                Vec::new()
            }
            fn on_message(&mut self, _f: ProcessId, m: Msg) -> Vec<Outgoing<Msg>> {
                let Msg::Value(v) = m;
                self.seen.push(v);
                if self.seen.len() == 3 {
                    self.done = Some(self.seen.clone());
                }
                Vec::new()
            }
            fn output(&self) -> Option<Vec<u64>> {
                self.done.clone()
            }
        }
        let processes: Vec<Box<dyn AsyncProcess<Msg = Msg, Output = Vec<u64>>>> = vec![
            Box::new(Sender),
            Box::new(Receiver {
                seen: Vec::new(),
                done: None,
            }),
        ];
        let outcome = AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, 123, 1000).run(&[1]);
        assert_eq!(outcome.outputs[1], Some(vec![1, 2, 3]));
    }

    // ------------------------------------------------------------------
    // Point-to-point channels (no local-broadcast model)
    // ------------------------------------------------------------------

    /// Process 0 equivocates at start: 1 to process 1, 2 to process 2.
    struct AsyncEquivocator;
    struct AsyncListener {
        heard: Option<u64>,
    }
    impl AsyncProcess for AsyncEquivocator {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self) -> Vec<Outgoing<u64>> {
            vec![
                Outgoing::new(ProcessId::new(1), 1),
                Outgoing::new(ProcessId::new(2), 2),
            ]
        }
        fn on_message(&mut self, _f: ProcessId, _m: u64) -> Vec<Outgoing<u64>> {
            Vec::new()
        }
        fn output(&self) -> Option<u64> {
            Some(0)
        }
    }
    impl AsyncProcess for AsyncListener {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self) -> Vec<Outgoing<u64>> {
            Vec::new()
        }
        fn on_message(&mut self, from: ProcessId, msg: u64) -> Vec<Outgoing<u64>> {
            if from == ProcessId::new(0) {
                self.heard = Some(msg);
            }
            Vec::new()
        }
        fn output(&self) -> Option<u64> {
            self.heard
        }
    }

    #[test]
    fn async_point_to_point_permits_equivocation() {
        let processes: Vec<Box<dyn AsyncProcess<Msg = u64, Output = u64>>> = vec![
            Box::new(AsyncEquivocator),
            Box::new(AsyncListener { heard: None }),
            Box::new(AsyncListener { heard: None }),
        ];
        let outcome = AsyncNetwork::new(processes, DeliveryPolicy::RoundRobin, 0, 100).run(&[1, 2]);
        assert_eq!(outcome.outputs[1], Some(1));
        assert_eq!(outcome.outputs[2], Some(2));
    }

    // ------------------------------------------------------------------
    // Declared topologies
    // ------------------------------------------------------------------

    use bvc_topology::Topology;

    #[test]
    fn complete_topology_leaves_executions_byte_identical() {
        let all: Vec<usize> = (0..4).collect();
        let plain = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 42).run(&all);
        let explicit = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 42)
            .with_topology(Topology::complete(4))
            .run(&all);
        assert_eq!(plain.outputs, explicit.outputs);
        assert_eq!(plain.stats, explicit.stats);
    }

    #[test]
    fn missing_links_starve_receivers_without_drop_attribution() {
        // Summer processes need n − 1 = 3 messages; on a ring each receives
        // only 2, so nobody decides — and nothing is recorded as dropped.
        let all: Vec<usize> = (0..4).collect();
        let outcome = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 7)
            .with_topology(Topology::ring(4))
            .run(&all);
        assert!(!outcome.completed);
        assert!(outcome.outputs.iter().all(|o| o.is_none()));
        assert_eq!(outcome.stats.messages_sent, 12);
        assert_eq!(outcome.stats.messages_delivered, 8);
        assert_eq!(outcome.stats.messages_dropped, 0);
    }

    // ------------------------------------------------------------------
    // Injected network faults
    // ------------------------------------------------------------------

    use crate::faults::{FaultEvent, FaultKind, FaultPlan, LinkSelector};

    #[test]
    fn empty_fault_plan_leaves_executions_byte_identical() {
        let all: Vec<usize> = (0..4).collect();
        let plain = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 42).run(&all);
        let faulted = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 42)
            .with_faults(FaultPlan::new())
            .run(&all);
        assert_eq!(plain.outputs, faulted.outputs);
        assert_eq!(plain.stats, faulted.stats);
    }

    /// Fairness regression: a partition with a finite window never
    /// permanently starves a channel — messages queued while the partition is
    /// up are delivered after the heal and every process still decides.  A
    /// stall fast-forwards to the heal, so a 2^40-tick window is as cheap as
    /// a 300-tick one.
    #[test]
    fn finite_partition_heals_and_never_starves_a_channel() {
        let all: Vec<usize> = (0..4).collect();
        for duration in [300, 1 << 40] {
            let plan = FaultPlan::new()
                .with_event(FaultEvent {
                    kind: FaultKind::Partition {
                        groups: vec![vec![ProcessId::new(0)]],
                    },
                    start: 0,
                    duration,
                })
                .unwrap();
            let outcome = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 7)
                .with_faults(plan)
                .run(&all);
            assert!(outcome.completed, "partition must heal, not starve");
            assert_eq!(
                outcome.outputs,
                vec![Some(10), Some(10), Some(10), Some(10)]
            );
            assert_eq!(
                outcome.stats.messages_dropped, 0,
                "partitions delay, never destroy"
            );
        }
    }

    /// Fairness regression: a finite-window drop fault destroys only messages
    /// sent inside the window; the channel itself is never starved afterwards.
    #[test]
    fn finite_drop_window_loses_messages_but_not_the_channel() {
        let all: Vec<usize> = (0..4).collect();
        // Destroy everything process 0 sends at tick 0 (its start broadcast).
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Drop {
                    rate: 1.0,
                    links: LinkSelector::From(vec![ProcessId::new(0)]),
                },
                start: 0,
                duration: 1,
            })
            .unwrap();
        let outcome = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 7)
            .with_faults(plan)
            .run(&all);
        // Process 0 still hears the other three and decides; the others are
        // missing its value forever — drops genuinely break reliability.
        assert_eq!(outcome.outputs[0], Some(10));
        assert!(outcome.outputs[1..].iter().all(|o| o.is_none()));
        assert!(!outcome.completed);
        assert_eq!(outcome.stats.messages_dropped, 3);
        assert_eq!(outcome.stats.per_process[0].dropped, 3);
        assert_eq!(outcome.stats.per_process[0].sent, 3);
    }

    #[test]
    fn latency_fault_delays_delivery_but_everyone_decides() {
        let all: Vec<usize> = (0..3).collect();
        for extra in [100, 1 << 40] {
            let plan = FaultPlan::new()
                .with_event(FaultEvent {
                    kind: FaultKind::Latency {
                        extra,
                        links: LinkSelector::All,
                    },
                    start: 0,
                    duration: 1,
                })
                .unwrap();
            let outcome = summer_network(&[1, 2, 3], DeliveryPolicy::RandomFair, 5)
                .with_faults(plan)
                .run(&all);
            assert!(outcome.completed);
            assert_eq!(outcome.outputs, vec![Some(6), Some(6), Some(6)]);
            // Deliveries are unchanged; only time passed while stalled.
            assert_eq!(outcome.stats.messages_delivered, 6);
        }
    }

    #[test]
    fn faulted_executions_are_reproducible_for_equal_seeds() {
        let all: Vec<usize> = (0..4).collect();
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Drop {
                    rate: 0.5,
                    links: LinkSelector::All,
                },
                start: 0,
                duration: 2,
            })
            .unwrap();
        let a = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 11)
            .with_faults(plan.clone())
            .run(&all);
        let b = summer_network(&[1, 2, 3, 4], DeliveryPolicy::RandomFair, 11)
            .with_faults(plan)
            .run(&all);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn per_process_counters_track_the_toy_protocol() {
        let all: Vec<usize> = (0..3).collect();
        let outcome = summer_network(&[1, 2, 3], DeliveryPolicy::RoundRobin, 0).run(&all);
        assert!(outcome.completed);
        for counters in &outcome.stats.per_process {
            assert_eq!(counters.sent, 2);
            assert_eq!(counters.delivered, 2);
            assert_eq!(counters.dropped, 0);
        }
    }
}
