//! The delivery core: what happens to a send, decided in one place.
//!
//! Both executors hand a process's outgoing batch to a [`Gate`], which
//! applies the crate's [delivery order contract](crate#delivery-order-contract)
//! and keeps the books, and queue what the gate lets through in [`Links`],
//! the `n × n` reliable FIFO channels of the paper's model.  Nothing here
//! decides *when* a message moves — that is the two schedulers' only job.

use crate::faults::FaultPlan;
use crate::process::{enforce_local_broadcast, ExecutionStats, Outgoing};
use bvc_topology::Topology;
use bvc_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Decorrelates the drop stream from the scheduling stream of the same seed,
/// so a plan without drop faults leaves the scheduling stream untouched.
const DROP_STREAM: u64 = 0xFA01_7FA0_17FA_017F;

/// The admission half of the core: the network an execution runs on
/// (topology, fault plan, delivery model) plus its message accounting.
pub(crate) struct Gate {
    n: usize,
    /// `None` is the paper's complete graph: every link exists.
    topology: Option<Arc<Topology>>,
    faults: FaultPlan,
    drop_rng: StdRng,
    local_broadcast: bool,
    stats: ExecutionStats,
}

impl Gate {
    /// A fault-free point-to-point complete graph over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        Self {
            n,
            topology: None,
            faults: FaultPlan::new(),
            drop_rng: StdRng::seed_from_u64(DROP_STREAM),
            local_broadcast: false,
            stats: ExecutionStats::for_processes(n),
        }
    }

    /// Restricts the network to the links of `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `topology.len()` differs from the number of processes.
    pub(crate) fn set_topology(&mut self, topology: Arc<Topology>) {
        assert_eq!(
            topology.len(),
            self.n,
            "topology size must match the process count"
        );
        self.topology = Some(topology);
    }

    /// Installs a fault plan; `seed` drives its drop decisions.
    pub(crate) fn set_faults(&mut self, faults: FaultPlan, seed: u64) {
        self.faults = faults;
        self.drop_rng = StdRng::seed_from_u64(seed ^ DROP_STREAM);
    }

    /// Selects the local-broadcast (`true`) or point-to-point delivery model.
    pub(crate) fn set_local_broadcast(&mut self, on: bool) {
        self.local_broadcast = on;
    }

    /// The plan's quiescence horizon (see [`FaultPlan::quiescent_at`]).
    pub(crate) fn quiescent_at(&self) -> usize {
        self.faults.quiescent_at()
    }

    /// Decides the fate of every message `from` emits at time `now`, in the
    /// crate's delivery order; a survivor is handed to `accept(to, due, msg)`
    /// with `due = now + transit +` the link's extra latency.
    pub(crate) fn admit<M: Clone>(
        &mut self,
        now: usize,
        transit: usize,
        from: usize,
        mut batch: Vec<Outgoing<M>>,
        mut accept: impl FnMut(usize, usize, M),
    ) {
        if self.local_broadcast {
            if let Some((receivers, slots)) = enforce_local_broadcast(&mut batch) {
                bvc_trace::emit(|| TraceEvent::LocalBroadcast {
                    time: now,
                    from,
                    receivers,
                    slots,
                });
            }
        }
        self.stats.record_sent(from, batch.len());
        for Outgoing { to, msg } in batch {
            let to = to.index();
            bvc_trace::emit(|| TraceEvent::Send {
                time: now,
                from,
                to,
            });
            let topology = self.topology.as_ref();
            if to >= self.n || topology.is_some_and(|t| !t.has_edge(from, to)) {
                bvc_trace::emit(|| TraceEvent::Vanish {
                    time: now,
                    from,
                    to,
                });
                continue;
            }
            // The stream is drawn from only under an active drop fault, so a
            // plan without one leaves every later decision where it was.
            let drop_probability = self.faults.drop_probability(now, from, to);
            if drop_probability > 0.0 && self.drop_rng.gen_bool(drop_probability) {
                self.stats.record_dropped(from);
                bvc_trace::emit(|| TraceEvent::Drop {
                    time: now,
                    from,
                    to,
                });
                continue;
            }
            let latency = self.faults.extra_latency(now, from, to);
            accept(to, now.saturating_add(transit).saturating_add(latency), msg);
        }
    }

    /// Books one message from `from` reaching `to` at time `at`.
    pub(crate) fn delivered(&mut self, at: usize, from: usize, to: usize) {
        self.stats.record_delivered(to);
        bvc_trace::emit(|| TraceEvent::Deliver { time: at, from, to });
    }

    /// Traces the fault windows that open at `now`; `unit` names the clock
    /// ("rounds", "ticks").
    pub(crate) fn announce_fault_windows(&self, now: usize, unit: &str) {
        for event in self.faults.events() {
            if event.start == now {
                bvc_trace::emit(|| TraceEvent::FaultWindow {
                    round: now,
                    kind: event.kind.name().to_string(),
                    detail: format!("{unit} {}..{}", event.start, event.end()),
                });
            }
        }
    }

    /// Closes the books: the accounting so far, with the scheduler's `steps`.
    pub(crate) fn finish(mut self, steps: usize) -> ExecutionStats {
        self.stats.steps = steps;
        self.stats
    }
}

/// A [`Gate`] plus the FIFO channels behind it.
pub(crate) struct Links<M> {
    pub(crate) gate: Gate,
    /// Row-major `from * n + to` queues of `(due, message)`.
    channels: Vec<VecDeque<(usize, M)>>,
}

impl<M: Clone> Links<M> {
    /// Empty channels behind `gate`.
    pub(crate) fn new(gate: Gate) -> Self {
        let channels = (0..gate.n * gate.n).map(|_| VecDeque::new()).collect();
        Self { gate, channels }
    }

    /// Admits `batch` and queues the survivors on their channels.
    pub(crate) fn send(
        &mut self,
        now: usize,
        transit: usize,
        from: usize,
        batch: Vec<Outgoing<M>>,
    ) {
        let (n, channels) = (self.gate.n, &mut self.channels);
        self.gate.admit(now, transit, from, batch, |to, due, msg| {
            channels[from * n + to].push_back((due, msg));
        });
    }

    /// Whether `from → to` can deliver at time `at`: its head has come due
    /// and no partition blocks the link.  A head that cannot move blocks the
    /// channel behind it, which is what keeps every link FIFO under faults.
    pub(crate) fn ready(&self, at: usize, from: usize, to: usize) -> bool {
        self.channels[from * self.gate.n + to]
            .front()
            .is_some_and(|&(due, _)| due <= at && !self.gate.faults.blocked(at, from, to))
    }

    /// Delivers the head of `from → to` if the channel is [`ready`](Self::ready).
    pub(crate) fn take(&mut self, at: usize, from: usize, to: usize) -> Option<M> {
        if !self.ready(at, from, to) {
            return None;
        }
        let (_, msg) = self.channels[from * self.gate.n + to].pop_front()?;
        self.gate.delivered(at, from, to);
        Some(msg)
    }

    /// Whether any message is still queued, ready or not.
    pub(crate) fn any_pending(&self) -> bool {
        self.channels.iter().any(|queue| !queue.is_empty())
    }

    /// The first time after `now` at which [`ready`](Self::ready) can change
    /// or a fault window opens: the earliest later head due time or window
    /// start or end.  Between `now` and it, no channel becomes ready and no
    /// window is announced; `None` when nothing is scheduled after `now`.
    pub(crate) fn next_change(&self, now: usize) -> Option<usize> {
        let heads = self.channels.iter().filter_map(|queue| queue.front());
        let windows = self.gate.faults.events().iter();
        (heads.map(|&(due, _)| due))
            .chain(windows.flat_map(|event| [event.start, event.end()]))
            .filter(|&at| at > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind, LinkSelector};
    use crate::process::ProcessId;
    use bvc_trace::{TraceHandle, Tracer};
    use std::sync::Mutex;

    struct Capture(Arc<Mutex<Vec<TraceEvent>>>);

    impl Tracer for Capture {
        fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    /// One batch process 0 emits: the time, `(to, payload)` in emission
    /// order, the `(receivers, slots)` local broadcast canonicalises it to,
    /// and the per-message trace it leaves.
    struct Batch {
        now: usize,
        messages: Vec<(usize, u8)>,
        canonical: (Vec<usize>, usize),
        events: Vec<TraceEvent>,
    }

    /// A row of the fate table.  `queued` is what process 0's channels hold
    /// after every batch, as `(to, due, payload, payload under local
    /// broadcast)` in channel-then-queue order; `first_ready` names a channel
    /// and the first time it may deliver.
    struct Case {
        name: &'static str,
        topology: Option<Topology>,
        faults: Vec<(FaultKind, usize, usize)>,
        transit: usize,
        batches: Vec<Batch>,
        queued: Vec<(usize, usize, u8, u8)>,
        dropped: usize,
        first_ready: (usize, usize),
    }

    fn send(time: usize, to: usize) -> TraceEvent {
        TraceEvent::Send { time, from: 0, to }
    }

    fn vanish(time: usize, to: usize) -> TraceEvent {
        TraceEvent::Vanish { time, from: 0, to }
    }

    fn cases() -> Vec<Case> {
        let p = |i| vec![ProcessId::new(i)];
        vec![
            Case {
                name: "queued: due after the transit time",
                topology: None,
                faults: vec![],
                transit: 1,
                batches: vec![Batch {
                    now: 4,
                    messages: vec![(1, 10), (2, 20)],
                    canonical: (vec![1, 2], 1),
                    events: vec![send(4, 1), send(4, 2)],
                }],
                queued: vec![(1, 5, 10, 10), (2, 5, 20, 10)],
                dropped: 0,
                first_ready: (1, 5),
            },
            Case {
                name: "deferred: a latency window stamps a later due time, and the \
                       late head blocks the on-time message behind it",
                topology: None,
                faults: vec![(
                    FaultKind::Latency {
                        extra: 3,
                        links: LinkSelector::All,
                    },
                    5,
                    1,
                )],
                transit: 0,
                batches: vec![
                    Batch {
                        now: 5,
                        messages: vec![(1, 1)],
                        canonical: (vec![1], 1),
                        events: vec![send(5, 1)],
                    },
                    Batch {
                        now: 6,
                        messages: vec![(1, 2)],
                        canonical: (vec![1], 1),
                        events: vec![send(6, 1)],
                    },
                ],
                queued: vec![(1, 8, 1, 1), (1, 6, 2, 2)],
                dropped: 0,
                first_ready: (1, 8),
            },
            Case {
                name: "deferred: a partition holds a due head until it heals",
                topology: None,
                faults: vec![(FaultKind::Partition { groups: vec![p(0)] }, 0, 4)],
                transit: 0,
                batches: vec![Batch {
                    now: 0,
                    messages: vec![(1, 1)],
                    canonical: (vec![1], 1),
                    events: vec![send(0, 1)],
                }],
                queued: vec![(1, 0, 1, 1)],
                dropped: 0,
                first_ready: (1, 4),
            },
            Case {
                name: "dropped: attributed to the sender, after canonicalisation",
                topology: None,
                faults: vec![(
                    FaultKind::Drop {
                        rate: 1.0,
                        links: LinkSelector::Directed(p(0), p(1)),
                    },
                    0,
                    10,
                )],
                transit: 0,
                batches: vec![Batch {
                    now: 2,
                    messages: vec![(1, 7), (2, 9)],
                    canonical: (vec![1, 2], 1),
                    events: vec![
                        send(2, 1),
                        TraceEvent::Drop {
                            time: 2,
                            from: 0,
                            to: 1,
                        },
                        send(2, 2),
                    ],
                }],
                queued: vec![(2, 2, 9, 7)],
                dropped: 1,
                first_ready: (2, 2),
            },
            Case {
                name: "vanished: off-topology and out-of-range, sent but never dropped",
                topology: Some(Topology::ring(4)),
                faults: vec![],
                transit: 1,
                batches: vec![Batch {
                    now: 1,
                    messages: vec![(1, 1), (2, 2), (9, 3)],
                    canonical: (vec![1, 2, 9], 1),
                    events: vec![
                        send(1, 1),
                        send(1, 2),
                        vanish(1, 2),
                        send(1, 9),
                        vanish(1, 9),
                    ],
                }],
                queued: vec![(1, 2, 1, 1)],
                dropped: 0,
                first_ready: (1, 2),
            },
        ]
    }

    #[test]
    fn every_fate_of_a_send_is_booked_stamped_and_traced() {
        const N: usize = 4;
        for local_broadcast in [false, true] {
            for case in cases() {
                let name = format!("{} (local broadcast: {local_broadcast})", case.name);
                let mut gate = Gate::new(N);
                if let Some(topology) = case.topology {
                    gate.set_topology(Arc::new(topology));
                }
                let mut plan = FaultPlan::new();
                for (kind, start, duration) in case.faults {
                    let event = FaultEvent {
                        kind,
                        start,
                        duration,
                    };
                    plan.push(event).unwrap();
                }
                gate.set_faults(plan, 1);
                gate.set_local_broadcast(local_broadcast);
                let mut links = Links::new(gate);

                let log = Arc::new(Mutex::new(Vec::new()));
                let tracer = Box::new(Capture(Arc::clone(&log)));
                let scope = bvc_trace::install(TraceHandle::new(tracer, false), 0);

                let mut sent = 0;
                let mut events = Vec::new();
                for batch in case.batches {
                    sent += batch.messages.len();
                    if local_broadcast {
                        let (receivers, slots) = batch.canonical;
                        events.push(TraceEvent::LocalBroadcast {
                            time: batch.now,
                            from: 0,
                            receivers,
                            slots,
                        });
                    }
                    events.extend(batch.events);
                    let outgoing = (batch.messages.iter())
                        .map(|&(to, payload)| Outgoing::new(ProcessId::new(to), payload))
                        .collect();
                    links.send(batch.now, case.transit, 0, outgoing);
                }

                let queued: Vec<(usize, usize, u8)> = (0..N)
                    .flat_map(|to| links.channels[to].iter().map(move |&(due, m)| (to, due, m)))
                    .collect();
                let expected: Vec<(usize, usize, u8)> = (case.queued.iter())
                    .map(|&(to, due, p2p, lb)| (to, due, if local_broadcast { lb } else { p2p }))
                    .collect();
                assert_eq!(queued, expected, "{name}: queue contents");
                assert!((N..N * N).all(|other| links.channels[other].is_empty()));

                let (to, at) = case.first_ready;
                if at > 0 {
                    assert!(!links.ready(at - 1, 0, to), "{name}: ready early");
                    assert!(links.take(at - 1, 0, to).is_none(), "{name}: taken early");
                    assert_eq!(links.next_change(at - 1), Some(at), "{name}: stall jump");
                }
                assert!(links.ready(at, 0, to), "{name}: not ready when due");
                let mut taken = Vec::new();
                while let Some(payload) = links.take(at, 0, to) {
                    taken.push(payload);
                    events.push(TraceEvent::Deliver {
                        time: at,
                        from: 0,
                        to,
                    });
                }
                let in_order: Vec<u8> = (expected.iter())
                    .filter(|&&(t, _, _)| t == to)
                    .map(|&(_, _, payload)| payload)
                    .collect();
                assert_eq!(taken, in_order, "{name}: FIFO order");

                drop(scope);
                assert_eq!(*log.lock().unwrap(), events, "{name}: trace");

                let stats = links.gate.finish(0);
                assert_eq!(stats.messages_sent, sent, "{name}");
                assert_eq!(stats.per_process[0].sent, sent, "{name}");
                assert_eq!(stats.messages_dropped, case.dropped, "{name}");
                assert_eq!(stats.per_process[0].dropped, case.dropped, "{name}");
                assert_eq!(stats.messages_delivered, taken.len(), "{name}");
                assert_eq!(stats.per_process[to].delivered, taken.len(), "{name}");
            }
        }
    }
}
