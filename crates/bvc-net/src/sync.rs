//! Lock-step synchronous round executor.
//!
//! In the paper's synchronous model, computation proceeds in rounds: in every
//! round each process sends messages that are delivered before the next round
//! begins, and message delays are bounded by the round structure.  The
//! [`SyncNetwork`] executor reproduces this: it calls every process once per
//! round with the messages sent to it in the previous round, collects the
//! messages it wants to send, and delivers them (per-sender FIFO) at the
//! start of the next round.
//!
//! This module is only the scheduler.  What happens to each send — topology,
//! local broadcast, injected faults, accounting — is the crate's
//! [delivery core](crate#one-delivery-core-two-schedulers).
//!
//! Byzantine processes are ordinary [`SyncProcess`] implementations — they may
//! return arbitrary messages, including different messages to different
//! receivers (equivocation) or none at all (silence/crash); the adversary
//! crate provides reusable wrappers.

use crate::faults::FaultPlan;
use crate::links::{Gate, Links};
use crate::process::{Delivery, ExecutionStats, Outgoing, ProcessId};
use bvc_topology::Topology;
use std::sync::Arc;

/// A deterministic state machine driven by the synchronous executor.
///
/// `round` is called once per round, starting at round `1`, with the messages
/// delivered to this process at the start of the round (i.e. the messages sent
/// to it during the previous round, ordered by sender id, preserving
/// per-sender FIFO order).  It returns the messages to send during this round.
pub trait SyncProcess {
    /// Message payload type exchanged by the protocol.
    type Msg: Clone;
    /// Decision/output type of the protocol.
    type Output: Clone;

    /// Executes one synchronous round.
    fn round(&mut self, round: usize, inbox: &[Delivery<Self::Msg>]) -> Vec<Outgoing<Self::Msg>>;

    /// The process's decision, once reached.
    fn output(&self) -> Option<Self::Output>;

    /// Optional state report for tracing: the process's current protocol
    /// state as a coordinate vector.  Honest protocol processes override
    /// this so the executor can record the per-round state spread in
    /// `round_close` trace events; the default (`None`) opts out (Byzantine
    /// wrappers, toy processes).  Never called unless tracing is active.
    fn trace_state(&self) -> Option<Vec<f64>> {
        None
    }
}

/// L∞ diameter of the reported states: the largest per-coordinate spread
/// over processes that opted into state reporting.  `None` when fewer than
/// two processes report (or dimensions disagree).
fn state_spread<M: Clone, O: Clone>(
    processes: &[Box<dyn SyncProcess<Msg = M, Output = O>>],
) -> Option<f64> {
    let mut lo: Vec<f64> = Vec::new();
    let mut hi: Vec<f64> = Vec::new();
    let mut reporting = 0usize;
    for process in processes {
        let Some(state) = process.trace_state() else {
            continue;
        };
        if reporting == 0 {
            lo = state.clone();
            hi = state;
        } else {
            if state.len() != lo.len() {
                return None;
            }
            for (i, v) in state.iter().enumerate() {
                lo[i] = lo[i].min(*v);
                hi[i] = hi[i].max(*v);
            }
        }
        reporting += 1;
    }
    if reporting < 2 {
        return None;
    }
    lo.iter()
        .zip(&hi)
        .map(|(l, h)| h - l)
        .fold(None, |acc: Option<f64>, s| {
            Some(acc.map_or(s, |a| a.max(s)))
        })
}

/// Outcome of running a synchronous execution to completion.
#[derive(Debug, Clone)]
pub struct SyncOutcome<O> {
    /// Output of each process, by process index (None if it never decided —
    /// e.g. a crashed or silent Byzantine process).
    pub outputs: Vec<Option<O>>,
    /// Number of rounds actually executed.
    pub rounds: usize,
    /// Message statistics.
    pub stats: ExecutionStats,
}

/// The synchronous executor over `n` processes (complete graph by default).
pub struct SyncNetwork<M, O> {
    processes: Vec<Box<dyn SyncProcess<Msg = M, Output = O>>>,
    max_rounds: usize,
    gate: Gate,
}

impl<M: Clone, O: Clone> SyncNetwork<M, O> {
    /// Creates an executor over the given processes (index = process id) with
    /// a safety cap on the number of rounds.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty or `max_rounds == 0`.
    pub fn new(
        processes: Vec<Box<dyn SyncProcess<Msg = M, Output = O>>>,
        max_rounds: usize,
    ) -> Self {
        let gate = Gate::new(processes.len());
        assert!(max_rounds > 0, "max_rounds must be positive");
        Self {
            processes,
            max_rounds,
            gate,
        }
    }

    /// Switches the executor to the **local-broadcast** delivery model (step 1
    /// of the [delivery order contract](crate#delivery-order-contract)): a
    /// (Byzantine) sender cannot tell different receivers different things in
    /// the same round.  Off by default (point-to-point channels, the paper's
    /// model).
    pub fn with_local_broadcast(mut self, on: bool) -> Self {
        self.gate.set_local_broadcast(on);
        self
    }

    /// Restricts delivery to the links of `topology` (the complete graph is
    /// the default); a message addressed across a missing link vanishes —
    /// step 4 of the [delivery order contract](crate#delivery-order-contract).
    ///
    /// # Panics
    ///
    /// Panics if `topology.len()` differs from the number of processes.
    pub fn with_topology(mut self, topology: impl Into<Arc<Topology>>) -> Self {
        self.gate.set_topology(topology.into());
        self
    }

    /// Layers an injected-fault schedule over the lock-step rounds; fault
    /// windows are measured in (1-based) round numbers and `seed` drives the
    /// drop decisions.
    ///
    /// Note that delay and partition faults deliberately break the
    /// synchronous model's "delivered before the next round" promise: a
    /// delayed message arrives in a later round, where a round-structured
    /// protocol may ignore or misinterpret it.  That is the point — the
    /// verdict records how the algorithm behaves outside its proven model.
    pub fn with_faults(mut self, faults: FaultPlan, seed: u64) -> Self {
        self.gate.set_faults(faults, seed);
        self
    }

    /// Runs rounds until every process listed in `wait_for` has produced an
    /// output, or the round cap is reached.  Typically `wait_for` is the set
    /// of non-faulty process indices (Byzantine processes need not terminate).
    pub fn run(mut self, wait_for: &[usize]) -> SyncOutcome<O> {
        let n = self.processes.len();
        let mut links = Links::new(self.gate);
        // inboxes[i] = messages delivered to process i at the start of the
        // upcoming round.
        let mut inboxes: Vec<Vec<Delivery<M>>> = vec![Vec::new(); n];
        let mut rounds_executed = 0;

        for round in 1..=self.max_rounds {
            rounds_executed = round;
            bvc_trace::emit(|| bvc_trace::TraceEvent::RoundOpen { round });
            links.gate.announce_fault_windows(round, "rounds");
            // A message travels one round: without faults, what is sent in
            // round r is due in round r + 1, the plain lock-step model.
            for (index, process) in self.processes.iter_mut().enumerate() {
                links.send(round, 1, index, process.round(round, &inboxes[index]));
            }
            // Drain every channel that is ready at the next round.  Iterating
            // senders in id order gives the documented sorted-by-sender
            // inbox; taking in queue order preserves per-sender FIFO.
            let next_round = round + 1;
            let mut next_inboxes: Vec<Vec<Delivery<M>>> = vec![Vec::new(); n];
            for from in 0..n {
                for (to, inbox) in next_inboxes.iter_mut().enumerate() {
                    while let Some(msg) = links.take(next_round, from, to) {
                        inbox.push(Delivery::new(ProcessId::new(from), msg));
                    }
                }
            }
            inboxes = next_inboxes;

            // The spread computation walks every process, so gate it on an
            // installed tracer rather than relying on emit's lazy closure.
            if bvc_trace::is_active() {
                let spread = state_spread(&self.processes);
                bvc_trace::emit(|| bvc_trace::TraceEvent::RoundClose { round, spread });
            }

            let all_decided = wait_for
                .iter()
                .all(|&i| self.processes[i].output().is_some());
            if all_decided {
                break;
            }
        }

        SyncOutcome {
            outputs: self.processes.iter().map(|p| p.output()).collect(),
            rounds: rounds_executed,
            stats: links.gate.finish(rounds_executed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::broadcast_to_all;

    /// A toy protocol: every process broadcasts its value each round; after
    /// `target_rounds` rounds it outputs the sum of everything it received in
    /// the last round plus its own value.
    struct SummingProcess {
        id: ProcessId,
        n: usize,
        value: u64,
        target_rounds: usize,
        result: Option<u64>,
    }

    impl SyncProcess for SummingProcess {
        type Msg = u64;
        type Output = u64;

        fn round(&mut self, round: usize, inbox: &[Delivery<u64>]) -> Vec<Outgoing<u64>> {
            if round > self.target_rounds {
                return Vec::new();
            }
            if round == self.target_rounds {
                let sum: u64 = inbox.iter().map(|d| d.msg).sum::<u64>() + self.value;
                self.result = Some(sum);
            }
            broadcast_to_all(self.n, Some(self.id), &self.value)
        }

        fn output(&self) -> Option<u64> {
            self.result
        }
    }

    fn summing_network(values: &[u64], target_rounds: usize) -> SyncNetwork<u64, u64> {
        let n = values.len();
        let processes: Vec<Box<dyn SyncProcess<Msg = u64, Output = u64>>> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Box::new(SummingProcess {
                    id: ProcessId::new(i),
                    n,
                    value: v,
                    target_rounds,
                    result: None,
                }) as Box<dyn SyncProcess<Msg = u64, Output = u64>>
            })
            .collect();
        SyncNetwork::new(processes, 10)
    }

    #[test]
    fn all_processes_receive_all_messages_each_round() {
        let outcome = summing_network(&[1, 2, 3, 4], 2).run(&[0, 1, 2, 3]);
        // After round 2 every process has the other three values plus its own.
        assert_eq!(
            outcome.outputs,
            vec![Some(10), Some(10), Some(10), Some(10)]
        );
        assert_eq!(outcome.rounds, 2);
    }

    #[test]
    fn run_stops_as_soon_as_waited_processes_decide() {
        let outcome = summing_network(&[5, 6], 1).run(&[0, 1]);
        assert_eq!(outcome.rounds, 1);
        // Round 1 has an empty inbox, so each output is just its own value.
        assert_eq!(outcome.outputs, vec![Some(5), Some(6)]);
    }

    #[test]
    fn round_cap_prevents_infinite_runs() {
        // target_rounds beyond the cap: nobody decides, executor stops at cap.
        let outcome = summing_network(&[1, 1, 1], 99).run(&[0, 1, 2]);
        assert_eq!(outcome.rounds, 10);
        assert!(outcome.outputs.iter().all(|o| o.is_none()));
    }

    #[test]
    fn stats_count_messages() {
        let outcome = summing_network(&[1, 2, 3], 2).run(&[0, 1, 2]);
        // 3 processes broadcast to 2 others for 2 rounds = 12 messages.
        assert_eq!(outcome.stats.messages_sent, 12);
        assert_eq!(outcome.stats.messages_delivered, 12);
        assert_eq!(outcome.stats.steps, 2);
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        struct Recorder {
            id: ProcessId,
            n: usize,
            seen: Vec<usize>,
            done: Option<Vec<usize>>,
        }
        impl SyncProcess for Recorder {
            type Msg = ();
            type Output = Vec<usize>;
            fn round(&mut self, round: usize, inbox: &[Delivery<()>]) -> Vec<Outgoing<()>> {
                if round == 2 {
                    self.seen = inbox.iter().map(|d| d.from.index()).collect();
                    self.done = Some(self.seen.clone());
                    return Vec::new();
                }
                broadcast_to_all(self.n, Some(self.id), &())
            }
            fn output(&self) -> Option<Vec<usize>> {
                self.done.clone()
            }
        }
        let n = 4;
        let processes: Vec<Box<dyn SyncProcess<Msg = (), Output = Vec<usize>>>> = (0..n)
            .map(|i| {
                Box::new(Recorder {
                    id: ProcessId::new(i),
                    n,
                    seen: Vec::new(),
                    done: None,
                }) as Box<dyn SyncProcess<Msg = (), Output = Vec<usize>>>
            })
            .collect();
        let outcome = SyncNetwork::new(processes, 5).run(&(0..n).collect::<Vec<_>>());
        for (i, out) in outcome.outputs.iter().enumerate() {
            let senders = out.as_ref().unwrap();
            let expected: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            assert_eq!(senders, &expected);
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_network_panics() {
        let processes: Vec<Box<dyn SyncProcess<Msg = (), Output = ()>>> = Vec::new();
        let _ = SyncNetwork::new(processes, 1);
    }

    // ------------------------------------------------------------------
    // Declared topologies
    // ------------------------------------------------------------------

    use bvc_topology::Topology;

    #[test]
    fn complete_topology_is_identical_to_the_default() {
        let all: Vec<usize> = (0..4).collect();
        let plain = summing_network(&[1, 2, 3, 4], 2).run(&all);
        let explicit = summing_network(&[1, 2, 3, 4], 2)
            .with_topology(Topology::complete(4))
            .run(&all);
        assert_eq!(plain.outputs, explicit.outputs);
        assert_eq!(plain.stats, explicit.stats);
    }

    #[test]
    fn ring_topology_delivers_only_to_neighbors() {
        // Every process broadcasts to all; on the ring only i ± 1 receive, so
        // each round-2 sum is own value plus the two ring neighbors'.
        let all: Vec<usize> = (0..4).collect();
        let outcome = summing_network(&[1, 2, 4, 8], 2)
            .with_topology(Topology::ring(4))
            .run(&all);
        assert_eq!(
            outcome.outputs,
            vec![
                Some(1 + 2 + 8),
                Some(2 + 1 + 4),
                Some(4 + 2 + 8),
                Some(8 + 4 + 1)
            ]
        );
        // Sent counts the handed-over broadcasts; only on-link ones deliver.
        assert_eq!(outcome.stats.messages_sent, 24);
        assert_eq!(outcome.stats.messages_delivered, 16);
        assert_eq!(
            outcome.stats.messages_dropped, 0,
            "missing links are not drops"
        );
    }

    #[test]
    #[should_panic(expected = "topology size must match")]
    fn topology_size_mismatch_panics() {
        let _ = summing_network(&[1, 2, 3], 1).with_topology(Topology::ring(4));
    }

    // ------------------------------------------------------------------
    // Local-broadcast delivery
    // ------------------------------------------------------------------

    /// Process 0 equivocates: value 1 to process 1, value 2 to process 2.
    /// The others are silent and record what they hear from process 0.
    struct Equivocator;
    struct Listener {
        heard: Option<u64>,
        rounds: usize,
    }
    impl SyncProcess for Equivocator {
        type Msg = u64;
        type Output = u64;
        fn round(&mut self, round: usize, _inbox: &[Delivery<u64>]) -> Vec<Outgoing<u64>> {
            if round == 1 {
                vec![
                    Outgoing::new(ProcessId::new(1), 1),
                    Outgoing::new(ProcessId::new(2), 2),
                ]
            } else {
                Vec::new()
            }
        }
        fn output(&self) -> Option<u64> {
            Some(0)
        }
    }
    impl SyncProcess for Listener {
        type Msg = u64;
        type Output = u64;
        fn round(&mut self, _round: usize, inbox: &[Delivery<u64>]) -> Vec<Outgoing<u64>> {
            if let Some(d) = inbox.iter().find(|d| d.from == ProcessId::new(0)) {
                self.heard = Some(d.msg);
            }
            self.rounds += 1;
            Vec::new()
        }
        fn output(&self) -> Option<u64> {
            if self.rounds >= 2 {
                Some(self.heard.unwrap_or(u64::MAX))
            } else {
                None
            }
        }
    }

    fn equivocation_network() -> SyncNetwork<u64, u64> {
        let processes: Vec<Box<dyn SyncProcess<Msg = u64, Output = u64>>> = vec![
            Box::new(Equivocator),
            Box::new(Listener {
                heard: None,
                rounds: 0,
            }),
            Box::new(Listener {
                heard: None,
                rounds: 0,
            }),
        ];
        SyncNetwork::new(processes, 5)
    }

    #[test]
    fn point_to_point_permits_equivocation() {
        let outcome = equivocation_network().run(&[1, 2]);
        assert_eq!(outcome.outputs[1], Some(1));
        assert_eq!(outcome.outputs[2], Some(2));
    }

    #[test]
    fn local_broadcast_forces_receiver_consistency() {
        let outcome = equivocation_network()
            .with_local_broadcast(true)
            .run(&[1, 2]);
        // Both listeners observe the lowest receiver's payload.
        assert_eq!(outcome.outputs[1], Some(1));
        assert_eq!(outcome.outputs[2], Some(1));
    }

    #[test]
    fn local_broadcast_composes_with_drop_faults() {
        // Canonicalise first, then drop the (already consistent) copy on the
        // 0 → 1 link only: process 2 still hears the canonical value.
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Drop {
                    rate: 1.0,
                    links: LinkSelector::Directed(vec![ProcessId::new(0)], vec![ProcessId::new(1)]),
                },
                start: 1,
                duration: 1,
            })
            .unwrap();
        let outcome = equivocation_network()
            .with_local_broadcast(true)
            .with_faults(plan, 3)
            .run(&[1, 2]);
        assert_eq!(outcome.outputs[1], Some(u64::MAX), "its copy was dropped");
        assert_eq!(outcome.outputs[2], Some(1), "canonical payload survives");
        assert_eq!(outcome.stats.messages_dropped, 1);
    }

    #[test]
    fn local_broadcast_is_identity_for_honest_broadcasters() {
        let all: Vec<usize> = (0..4).collect();
        let plain = summing_network(&[1, 2, 3, 4], 2).run(&all);
        let lb = summing_network(&[1, 2, 3, 4], 2)
            .with_local_broadcast(true)
            .run(&all);
        assert_eq!(plain.outputs, lb.outputs);
        assert_eq!(plain.stats, lb.stats);
    }

    // ------------------------------------------------------------------
    // Injected network faults
    // ------------------------------------------------------------------

    use crate::faults::{FaultEvent, FaultKind, FaultPlan, LinkSelector};

    #[test]
    fn empty_fault_plan_is_identical_to_the_plain_executor() {
        let all: Vec<usize> = (0..4).collect();
        let plain = summing_network(&[1, 2, 3, 4], 2).run(&all);
        let faulted = summing_network(&[1, 2, 3, 4], 2)
            .with_faults(FaultPlan::new(), 99)
            .run(&all);
        assert_eq!(plain.outputs, faulted.outputs);
        assert_eq!(plain.stats, faulted.stats);
    }

    #[test]
    fn round_scoped_drop_fault_loses_messages_and_attributes_them() {
        // Drop everything process 0 sends during round 1 only.
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Drop {
                    rate: 1.0,
                    links: LinkSelector::From(vec![ProcessId::new(0)]),
                },
                start: 1,
                duration: 1,
            })
            .unwrap();
        let all: Vec<usize> = (0..3).collect();
        let outcome = summing_network(&[10, 1, 2], 2)
            .with_faults(plan, 7)
            .run(&all);
        // Round 2 inboxes of processes 1 and 2 are missing process 0's value.
        assert_eq!(outcome.outputs, vec![Some(13), Some(3), Some(3)]);
        assert_eq!(outcome.stats.messages_dropped, 2);
        assert_eq!(outcome.stats.per_process[0].dropped, 2);
    }

    #[test]
    fn latency_fault_moves_messages_to_a_later_round() {
        // Delay round-1 messages by one extra round: round-2 inboxes are
        // empty, the delayed values surface in round 3.
        struct LastInboxSum {
            id: ProcessId,
            n: usize,
            value: u64,
            sums: Vec<u64>,
        }
        impl SyncProcess for LastInboxSum {
            type Msg = u64;
            type Output = Vec<u64>;
            fn round(&mut self, round: usize, inbox: &[Delivery<u64>]) -> Vec<Outgoing<u64>> {
                self.sums.push(inbox.iter().map(|d| d.msg).sum());
                if round == 1 {
                    broadcast_to_all(self.n, Some(self.id), &self.value)
                } else {
                    Vec::new()
                }
            }
            fn output(&self) -> Option<Vec<u64>> {
                if self.sums.len() >= 3 {
                    Some(self.sums.clone())
                } else {
                    None
                }
            }
        }
        let n = 3;
        let processes: Vec<Box<dyn SyncProcess<Msg = u64, Output = Vec<u64>>>> = (0..n)
            .map(|i| {
                Box::new(LastInboxSum {
                    id: ProcessId::new(i),
                    n,
                    value: (i + 1) as u64,
                    sums: Vec::new(),
                }) as Box<dyn SyncProcess<Msg = u64, Output = Vec<u64>>>
            })
            .collect();
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Latency {
                    extra: 1,
                    links: LinkSelector::All,
                },
                start: 1,
                duration: 1,
            })
            .unwrap();
        let outcome = SyncNetwork::new(processes, 5)
            .with_faults(plan, 0)
            .run(&(0..n).collect::<Vec<_>>());
        // sums[0] = round 1 (nothing yet), sums[1] = round 2 (delayed away),
        // sums[2] = round 3 (the delayed broadcasts arrive).
        let expected_last: Vec<u64> = vec![5, 4, 3];
        for (i, out) in outcome.outputs.iter().enumerate() {
            let sums = out.as_ref().expect("everyone reaches round 3");
            assert_eq!(sums[0], 0);
            assert_eq!(sums[1], 0);
            assert_eq!(sums[2], expected_last[i]);
        }
    }

    #[test]
    fn partition_defers_cross_group_messages_until_the_heal() {
        // Partition {0} from the rest during rounds 1..=2; its round-1
        // broadcast reaches the others in round 4 (first unblocked round is
        // 3, delivered into round-3 end-of-round inboxes... i.e. seen by the
        // processes at the start of round 4 at the latest).
        struct FirstSeen {
            id: ProcessId,
            n: usize,
            seen_zero_in: Option<usize>,
            done: Option<usize>,
        }
        impl SyncProcess for FirstSeen {
            type Msg = u64;
            type Output = usize;
            fn round(&mut self, round: usize, inbox: &[Delivery<u64>]) -> Vec<Outgoing<u64>> {
                if self.seen_zero_in.is_none() && inbox.iter().any(|d| d.from == ProcessId::new(0))
                {
                    self.seen_zero_in = Some(round);
                    self.done = Some(round);
                }
                if round == 1 {
                    broadcast_to_all(self.n, Some(self.id), &(self.id.index() as u64))
                } else {
                    Vec::new()
                }
            }
            fn output(&self) -> Option<usize> {
                self.done
            }
        }
        let n = 3;
        let processes: Vec<Box<dyn SyncProcess<Msg = u64, Output = usize>>> = (0..n)
            .map(|i| {
                Box::new(FirstSeen {
                    id: ProcessId::new(i),
                    n,
                    seen_zero_in: None,
                    done: None,
                }) as Box<dyn SyncProcess<Msg = u64, Output = usize>>
            })
            .collect();
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Partition {
                    groups: vec![vec![ProcessId::new(0)]],
                },
                start: 1,
                duration: 2,
            })
            .unwrap();
        let outcome = SyncNetwork::new(processes, 10)
            .with_faults(plan, 0)
            .run(&[1, 2]);
        // The partition blocks delivery into rounds 1 and 2; round 3 is the
        // first unblocked delivery round, so processes 1 and 2 first see
        // process 0's broadcast in round 3 — delayed, not lost.
        assert_eq!(outcome.outputs[1], Some(3));
        assert_eq!(outcome.outputs[2], Some(3));
        assert_eq!(outcome.stats.messages_dropped, 0);
    }
}
