//! The delivery core: what happens to a send, decided in one place.
//!
//! Both executors hand a process's outgoing batch to a [`Gate`], which
//! applies the crate's [delivery order contract](crate#delivery-order-contract)
//! and keeps the books, and queue what the gate lets through in [`Links`],
//! the `n × n` reliable FIFO channels of the paper's model.  The
//! asynchronous scheduler reads them through [`ReadyLinks`], which keeps the
//! set of channels that can deliver up to date.  Nothing here decides
//! *when* a message moves — that is the two schedulers' only job.

use crate::faults::FaultPlan;
use crate::process::{enforce_local_broadcast, ExecutionStats, Outgoing};
use bvc_topology::Topology;
use bvc_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
    /// ("rounds", "ticks").  Untraced, the plan is not walked at all.
    pub(crate) fn announce_fault_windows(&self, now: usize, unit: &str) {
        if !bvc_trace::is_active() {
            return;
        }
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
    fn ready(&self, at: usize, from: usize, to: usize) -> bool {
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
}

/// [`Links`] plus the set of channels that can deliver at the clock, kept up
/// to date as heads change instead of rescanned per delivery: the
/// asynchronous scheduler's view of the channels.
///
/// Every queued head is in exactly one of three states: *ready* (due and
/// not partition-blocked), *waiting* (not yet due) or *parked* (due but
/// blocked).  A head is classified when it changes — on a send into an empty
/// channel and on a take; a waiting head moves when [`advance`](Self::advance)
/// passes its due time; and every head is reclassified when the clock
/// crosses a fault-window boundary, the only ticks at which
/// [`FaultPlan::blocked`] can change, so parked heads move only there.
pub(crate) struct ReadyLinks<M> {
    pub(crate) links: Links<M>,
    set: ReadySet,
    /// Every window start and end, ascending and deduplicated.
    boundaries: Vec<usize>,
    /// Index of the first boundary after the clock.
    next_boundary: usize,
}

/// The classification of the heads of [`ReadyLinks`] at `clock`.
struct ReadySet {
    clock: usize,
    /// Channel ids `from * n + to` of the ready heads, ascending: the
    /// from-major order a scan over every channel yields.
    ready: Vec<usize>,
    /// `(due, channel)` of the waiting heads, earliest first.
    waiting: BinaryHeap<Reverse<(usize, usize)>>,
    /// Whether a partition active at the clock blocks each channel.
    blocked: Vec<bool>,
    /// Messages queued over all channels, ready or not.
    pending: usize,
}

impl ReadySet {
    /// Files `channel`'s head, due at `due`, as ready, waiting or parked.
    fn classify(&mut self, channel: usize, due: usize) {
        if due > self.clock {
            self.waiting.push(Reverse((due, channel)));
        } else if !self.blocked[channel] {
            if let Err(at) = self.ready.binary_search(&channel) {
                self.ready.insert(at, channel);
            }
        }
    }
}

impl<M: Clone> ReadyLinks<M> {
    /// Empty channels behind `gate`, with the clock at tick 0.
    pub(crate) fn new(gate: Gate) -> Self {
        let mut boundaries: Vec<usize> = (gate.faults.events().iter())
            .flat_map(|event| [event.start, event.end()])
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let next_boundary = boundaries.partition_point(|&at| at == 0);
        let channels = gate.n * gate.n;
        let mut links = Self {
            links: Links::new(gate),
            set: ReadySet {
                clock: 0,
                ready: Vec::with_capacity(channels),
                waiting: BinaryHeap::with_capacity(channels),
                blocked: vec![false; channels],
                pending: 0,
            },
            boundaries,
            next_boundary,
        };
        links.reclassify();
        links
    }

    /// Admits `from`'s `batch` at the clock (no transit time) and queues the
    /// survivors on their channels.
    pub(crate) fn send(&mut self, from: usize, batch: Vec<Outgoing<M>>) {
        let (n, channels, set) = (self.links.gate.n, &mut self.links.channels, &mut self.set);
        self.links
            .gate
            .admit(set.clock, 0, from, batch, |to, due, msg| {
                let channel = from * n + to;
                let queue = &mut channels[channel];
                queue.push_back((due, msg));
                set.pending += 1;
                if queue.len() == 1 {
                    set.classify(channel, due);
                }
            });
    }

    /// Moves the clock forward to `now`: heads that have come due leave the
    /// waiting heap, and a crossed window boundary reclassifies every head.
    pub(crate) fn advance(&mut self, now: usize) {
        debug_assert!(now >= self.set.clock, "the clock only moves forward");
        self.set.clock = now;
        let crossed = (self.boundaries[self.next_boundary..].iter())
            .take_while(|&&at| at <= now)
            .count();
        if crossed > 0 {
            self.next_boundary += crossed;
            self.reclassify();
            return;
        }
        while let Some(&Reverse((due, channel))) = self.set.waiting.peek() {
            if due > now {
                break;
            }
            self.set.waiting.pop();
            self.set.classify(channel, due);
        }
    }

    /// Recomputes the blocked links at the clock and refiles every head.
    fn reclassify(&mut self) {
        let (n, faults, set) = (self.links.gate.n, &self.links.gate.faults, &mut self.set);
        for (channel, blocked) in set.blocked.iter_mut().enumerate() {
            *blocked = faults.blocked(set.clock, channel / n, channel % n);
        }
        set.ready.clear();
        set.waiting.clear();
        for (channel, queue) in self.links.channels.iter().enumerate() {
            if let Some(&(due, _)) = queue.front() {
                set.classify(channel, due);
            }
        }
    }

    /// The ready channel ids, ascending (from-major).
    pub(crate) fn ready_channels(&self) -> &[usize] {
        &self.set.ready
    }

    /// Delivers the head of the ready `channel` at the clock.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not ready.
    pub(crate) fn take(&mut self, channel: usize) -> M {
        let set = &mut self.set;
        let at = (set.ready.binary_search(&channel)).expect("only a ready channel delivers");
        let queue = &mut self.links.channels[channel];
        let (_, msg) = queue.pop_front().expect("a ready channel has a head");
        set.pending -= 1;
        match queue.front() {
            // Due already, and the link was open a moment ago: still ready.
            Some(&(due, _)) if due <= set.clock => {}
            Some(&(due, _)) => {
                set.ready.remove(at);
                set.waiting.push(Reverse((due, channel)));
            }
            None => {
                set.ready.remove(at);
            }
        }
        let n = self.links.gate.n;
        self.links
            .gate
            .delivered(set.clock, channel / n, channel % n);
        msg
    }

    /// Whether any message is still queued, ready or not.
    pub(crate) fn any_pending(&self) -> bool {
        self.set.pending > 0
    }

    /// The first tick after the clock at which a channel can become ready or
    /// a fault window opens or closes: the earliest waiting head or the next
    /// window boundary.  Between the clock and it, no channel becomes ready
    /// and no window is announced; `None` when nothing is scheduled.
    pub(crate) fn next_change(&self) -> Option<usize> {
        let head = self.set.waiting.peek().map(|&Reverse((due, _))| due);
        let boundary = self.boundaries.get(self.next_boundary).copied();
        head.into_iter().chain(boundary).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asim::{AsyncNetwork, AsyncProcess, DeliveryPolicy};
    use crate::faults::{FaultEvent, FaultKind, LinkSelector};
    use crate::process::{broadcast_to_all, ProcessId};
    use bvc_trace::{TraceHandle, Tracer};
    use proptest::prelude::*;
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
                    let jump = scan_next_change(&links, at - 1);
                    assert_eq!(jump, Some(at), "{name}: stall jump");
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

    /// The scan the ready set replaced, kept as its oracle: every channel,
    /// from-major, tested against the fault plan at `at`.
    fn scan_ready<M: Clone>(links: &Links<M>, at: usize) -> Vec<usize> {
        let n = links.gate.n;
        (0..n * n)
            .filter(|&c| links.ready(at, c / n, c % n))
            .collect()
    }

    /// The fold `next_change` replaced: the earliest head due time or window
    /// start or end after `now`.
    fn scan_next_change<M>(links: &Links<M>, now: usize) -> Option<usize> {
        let heads = links.channels.iter().filter_map(|queue| queue.front());
        let windows = links.gate.faults.events().iter();
        (heads.map(|&(due, _)| due))
            .chain(windows.flat_map(|event| [event.start, event.end()]))
            .filter(|&at| at > now)
            .min()
    }

    /// A seeded plan over `n` processes and ticks `[0, horizon)`: latency
    /// windows with varied `extra`, partitions that open and heal mid-run,
    /// and drops.
    fn random_plan(rng: &mut StdRng, n: usize, horizon: usize) -> FaultPlan {
        fn some(rng: &mut StdRng, n: usize) -> Vec<ProcessId> {
            (0..n)
                .filter(|_| rng.gen_bool(0.4))
                .map(ProcessId::new)
                .collect()
        }
        fn selector(rng: &mut StdRng, n: usize) -> LinkSelector {
            match rng.gen_range(0..3usize) {
                0 => LinkSelector::All,
                1 => LinkSelector::From(some(rng, n)),
                _ => LinkSelector::To(some(rng, n)),
            }
        }
        let mut plan = FaultPlan::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let kind = match rng.gen_range(0..3usize) {
                0 => FaultKind::Latency {
                    extra: rng.gen_range(0..12usize),
                    links: selector(rng, n),
                },
                1 => FaultKind::Partition {
                    groups: (0..rng.gen_range(1..3usize))
                        .map(|_| some(rng, n))
                        .collect(),
                },
                _ => FaultKind::Drop {
                    rate: rng.gen_range(0.0..0.5),
                    links: selector(rng, n),
                },
            };
            let start = rng.gen_range(0..horizon);
            let duration = rng.gen_range(1..horizon / 2);
            plan.push(FaultEvent {
                kind,
                start,
                duration,
            })
            .unwrap();
        }
        plan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_ready_set_is_the_scan_at_every_step(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..6usize);
            let mut gate = Gate::new(n);
            gate.set_faults(random_plan(&mut rng, n, 80), seed);
            let mut links = ReadyLinks::new(gate);
            let mut payload = 0u32;
            for step in 0..400 {
                match rng.gen_range(0..10usize) {
                    0..=3 => {
                        let batch = (0..rng.gen_range(1..4usize))
                            .map(|_| {
                                payload += 1;
                                Outgoing::new(ProcessId::new(rng.gen_range(0..n)), payload)
                            })
                            .collect();
                        links.send(rng.gen_range(0..n), batch);
                    }
                    4..=7 if !links.ready_channels().is_empty() => {
                        let ready = links.ready_channels();
                        let channel = ready[rng.gen_range(0..ready.len())];
                        let head = links.links.channels[channel].front().map(|&(_, m)| m);
                        prop_assert_eq!(Some(links.take(channel)), head, "step {}", step);
                    }
                    8 => links.advance(links.set.clock + rng.gen_range(0..5usize)),
                    _ => {
                        if let Some(at) = links.next_change() {
                            links.advance(at);
                        }
                    }
                }
                let now = links.set.clock;
                prop_assert_eq!(links.ready_channels(), &scan_ready(&links.links, now)[..], "step {}", step);
                let jump = scan_next_change(&links.links, now);
                prop_assert_eq!(links.next_change(), jump, "step {}", step);
                let queued = links.links.channels.iter().any(|q| !q.is_empty());
                prop_assert_eq!(links.any_pending(), queued, "step {}", step);
            }
        }
    }

    const HOPS: u32 = 5;

    /// Traffic for the full-run check: every process greets every other at
    /// start, and a delivery of hop count `h < HOPS` sends `h + 1` back to
    /// the sender and on to process `(me + h + 1) % n`.  Nobody decides.
    struct Gossip {
        me: usize,
        n: usize,
    }

    impl AsyncProcess for Gossip {
        type Msg = u32;
        type Output = ();

        fn on_start(&mut self) -> Vec<Outgoing<u32>> {
            broadcast_to_all(self.n, Some(ProcessId::new(self.me)), &0)
        }

        fn on_message(&mut self, from: ProcessId, hops: u32) -> Vec<Outgoing<u32>> {
            if hops >= HOPS {
                return Vec::new();
            }
            let on = ProcessId::new((self.me + hops as usize + 1) % self.n);
            vec![Outgoing::new(from, hops + 1), Outgoing::new(on, hops + 1)]
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    fn gossip(n: usize) -> Vec<Box<dyn AsyncProcess<Msg = u32, Output = ()>>> {
        (0..n)
            .map(|me| Box::new(Gossip { me, n }) as Box<dyn AsyncProcess<Msg = u32, Output = ()>>)
            .collect()
    }

    /// The executor loop the ready set replaced, kept as an oracle: the scan
    /// over every channel per delivery, the fold for stall jumps, and the
    /// pick that filters a fresh preferred list.  Waits for process 0.
    fn scanning_run(
        n: usize,
        policy: &DeliveryPolicy,
        seed: u64,
        max_steps: usize,
        faults: FaultPlan,
    ) -> ExecutionStats {
        let mut processes = gossip(n);
        let mut gate = Gate::new(n);
        gate.set_faults(faults, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let tick_cap = max_steps.saturating_add(gate.quiescent_at());
        let mut links = Links::new(gate);
        let (mut cursor, mut now, mut steps) = (0usize, 0usize, 0usize);
        for (index, process) in processes.iter_mut().enumerate() {
            links.send(now, 0, index, process.on_start());
        }
        while steps < max_steps && now < tick_cap {
            links.gate.announce_fault_windows(now, "ticks");
            if processes[0].output().is_some() {
                break;
            }
            let eligible: Vec<(usize, usize)> = (scan_ready(&links, now).into_iter())
                .map(|c| (c / n, c % n))
                .collect();
            if eligible.is_empty() {
                if links.channels.iter().any(|q| !q.is_empty()) {
                    now = scan_next_change(&links, now).map_or(tick_cap, |t| t.min(tick_cap));
                    continue;
                }
                break;
            }
            let slow = |list: &[ProcessId], i: usize| list.iter().any(|p| p.index() == i);
            let pool: Vec<(usize, usize)> = match policy {
                DeliveryPolicy::DelayFrom(list) => eligible
                    .iter()
                    .copied()
                    .filter(|&(from, _)| !slow(list, from))
                    .collect(),
                DeliveryPolicy::DelayTo(list) => eligible
                    .iter()
                    .copied()
                    .filter(|&(_, to)| !slow(list, to))
                    .collect(),
                _ => Vec::new(),
            };
            let pool = if pool.is_empty() { &eligible } else { &pool };
            let (from, to) = match policy {
                DeliveryPolicy::RoundRobin => {
                    cursor += 1;
                    pool[(cursor - 1) % pool.len()]
                }
                _ => pool[rng.gen_range(0..pool.len())],
            };
            let msg = links.take(now, from, to).expect("picked among the ready");
            steps += 1;
            now += 1;
            let outgoing = processes[to].on_message(ProcessId::new(from), msg);
            links.send(now, 0, to, outgoing);
        }
        links.gate.finish(steps)
    }

    fn traced<T>(run: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tracer = Box::new(Capture(Arc::clone(&log)));
        let scope = bvc_trace::install(TraceHandle::new(tracer, false), 0);
        let out = run();
        drop(scope);
        let events = log.lock().unwrap().clone();
        (out, events)
    }

    #[test]
    fn every_policy_schedules_exactly_what_the_scanning_executor_did() {
        const N: usize = 5;
        let slow = vec![ProcessId::new(0), ProcessId::new(3)];
        let policies = [
            DeliveryPolicy::RandomFair,
            DeliveryPolicy::RoundRobin,
            DeliveryPolicy::DelayFrom(slow.clone()),
            DeliveryPolicy::DelayTo(slow),
        ];
        for seed in 0..12u64 {
            let plan = random_plan(&mut StdRng::seed_from_u64(seed), N, 400);
            for policy in &policies {
                let max_steps = 2_000;
                let (old, old_trace) =
                    traced(|| scanning_run(N, policy, seed, max_steps, plan.clone()));
                let (new, new_trace) = traced(|| {
                    AsyncNetwork::new(gossip(N), policy.clone(), seed, max_steps)
                        .with_faults(plan.clone())
                        .run(&[0])
                        .stats
                });
                assert!(
                    old.steps > 100,
                    "seed {seed}, {policy:?}: too little traffic"
                );
                assert_eq!(new, old, "seed {seed}, {policy:?}: accounting");
                assert!(new_trace == old_trace, "seed {seed}, {policy:?}: schedule");
            }
        }
    }
}
