//! Process identities and message envelopes.
//!
//! The paper's system model (Section 1): `n` processes
//! `P = {p_1, …, p_n}`, every pair connected by a reliable FIFO channel
//! (complete graph).  Processes are identified here by a zero-based
//! [`ProcessId`]; the paper's `p_i` corresponds to `ProcessId::new(i - 1)`.

use std::fmt;

/// Identifier of a process in the system (zero-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process id from its zero-based index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The zero-based index of the process.
    pub fn index(self) -> usize {
        self.0
    }

    /// All process ids `0..n`.
    pub fn all(n: usize) -> Vec<ProcessId> {
        (0..n).map(ProcessId::new).collect()
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One-based in display, matching the paper's p_1..p_n.
        write!(f, "p{}", self.0 + 1)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        Self::new(index)
    }
}

/// A message queued for sending: destination plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing<M> {
    /// Destination process.
    pub to: ProcessId,
    /// Message payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Creates an outgoing message.
    pub fn new(to: ProcessId, msg: M) -> Self {
        Self { to, msg }
    }
}

/// A delivered message: original sender plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<M> {
    /// The process that sent the message.
    pub from: ProcessId,
    /// Message payload.
    pub msg: M,
}

impl<M> Delivery<M> {
    /// Creates a delivery record.
    pub fn new(from: ProcessId, msg: M) -> Self {
        Self { from, msg }
    }
}

/// Builds one copy of `msg` addressed to every process in `0..n` except
/// (optionally) the sender itself.
pub fn broadcast_to_all<M: Clone>(
    n: usize,
    exclude: Option<ProcessId>,
    msg: &M,
) -> Vec<Outgoing<M>> {
    ProcessId::all(n)
        .into_iter()
        .filter(|&p| Some(p) != exclude)
        .map(|p| Outgoing::new(p, msg.clone()))
        .collect()
}

/// Canonicalises one sender's outgoing batch under the **local-broadcast**
/// delivery guarantee (Khan, Tseng & Vaidya, arXiv:1911.07298): all
/// out-neighbors of a sender observe the same message, so per-receiver
/// equivocation is structurally impossible.
///
/// Messages are grouped by receiver preserving per-receiver order; the k-th
/// message addressed to each receiver is replaced by the k-th message of the
/// *lowest-indexed* receiver that has a k-th message.  Receivers keep their
/// own slot counts (an omission fault model stays expressible), only payloads
/// are forced consistent.  Executors apply this *before* per-link faults
/// (vanish / drop / latency), so fault plans still compose per link.
///
/// Returns the sorted receiver set and the slot count (for trace
/// attribution), or `None` for an empty batch.
pub fn enforce_local_broadcast<M: Clone>(
    outgoing: &mut [Outgoing<M>],
) -> Option<(Vec<usize>, usize)> {
    if outgoing.is_empty() {
        return None;
    }
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut slot_of = Vec::with_capacity(outgoing.len());
    for out in outgoing.iter() {
        let count = counts.entry(out.to.index()).or_insert(0);
        slot_of.push(*count);
        *count += 1;
    }
    let slots = counts.values().copied().max().unwrap_or(0);
    let mut canonical: Vec<Option<M>> = (0..slots).map(|_| None).collect();
    for (slot, entry) in canonical.iter_mut().enumerate() {
        let Some((&receiver, _)) = counts.iter().find(|(_, &count)| count > slot) else {
            continue;
        };
        *entry = outgoing
            .iter()
            .zip(&slot_of)
            .find(|(out, &s)| out.to.index() == receiver && s == slot)
            .map(|(out, _)| out.msg.clone());
    }
    for (pos, out) in outgoing.iter_mut().enumerate() {
        if let Some(msg) = &canonical[slot_of[pos]] {
            out.msg = msg.clone();
        }
    }
    Some((counts.keys().copied().collect(), slots))
}

/// Message counters attributed to one process.
///
/// `sent` counts messages the process handed to the executor, `delivered`
/// counts messages delivered *to* it, and `dropped` counts messages it sent
/// that an injected drop fault destroyed (see `bvc_net::faults`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessCounters {
    /// Messages this process sent.
    pub sent: usize,
    /// Messages delivered to this process.
    pub delivered: usize,
    /// Messages this process sent that a drop fault destroyed.
    pub dropped: usize,
}

/// Execution statistics common to the synchronous and asynchronous executors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Total number of messages delivered.
    pub messages_delivered: usize,
    /// Total number of messages sent (may exceed deliveries if the execution
    /// was cut off).
    pub messages_sent: usize,
    /// Total number of messages destroyed by injected drop faults.
    pub messages_dropped: usize,
    /// Number of synchronous rounds executed, or of scheduler steps for the
    /// asynchronous executor.
    pub steps: usize,
    /// Per-process counters, indexed by process id.  Every executor
    /// attributes messages; only a `default()` aggregate that has absorbed
    /// no execution yet is empty.
    pub per_process: Vec<ProcessCounters>,
    /// Γ queries issued through the run's cache front end, when the driver
    /// measured them (cache-counter delta around the execution); `0` when
    /// the protocol does no geometry or the driver does not track it.
    pub gamma_queries: u64,
}

impl ExecutionStats {
    /// Zeroed statistics tracking `n` processes.
    pub fn for_processes(n: usize) -> Self {
        Self {
            per_process: vec![ProcessCounters::default(); n],
            ..Self::default()
        }
    }

    /// Records `count` messages sent by process `from`.
    pub fn record_sent(&mut self, from: usize, count: usize) {
        self.messages_sent += count;
        if let Some(counters) = self.per_process.get_mut(from) {
            counters.sent += count;
        }
    }

    /// Records one message delivered to process `to`.
    pub fn record_delivered(&mut self, to: usize) {
        self.messages_delivered += 1;
        if let Some(counters) = self.per_process.get_mut(to) {
            counters.delivered += 1;
        }
    }

    /// Records one message from process `from` destroyed by a drop fault.
    pub fn record_dropped(&mut self, from: usize) {
        self.messages_dropped += 1;
        if let Some(counters) = self.per_process.get_mut(from) {
            counters.dropped += 1;
        }
    }

    /// Folds another execution's statistics into this one — the aggregation
    /// primitive for multi-instance runs (one service stream = many
    /// executions).  Totals and steps are summed; per-process counters are
    /// summed element-wise, growing to the longer of the two vectors.
    pub fn absorb(&mut self, other: &ExecutionStats) {
        self.messages_delivered += other.messages_delivered;
        self.messages_sent += other.messages_sent;
        self.messages_dropped += other.messages_dropped;
        self.steps += other.steps;
        self.gamma_queries += other.gamma_queries;
        if self.per_process.len() < other.per_process.len() {
            self.per_process
                .resize(other.per_process.len(), ProcessCounters::default());
        }
        for (mine, theirs) in self.per_process.iter_mut().zip(&other.per_process) {
            mine.sent += theirs.sent;
            mine.delivered += theirs.delivered;
            mine.dropped += theirs.dropped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip_and_display() {
        let p = ProcessId::new(2);
        assert_eq!(p.index(), 2);
        assert_eq!(format!("{p}"), "p3");
        let q: ProcessId = 5usize.into();
        assert_eq!(q.index(), 5);
    }

    #[test]
    fn all_ids_enumerates_in_order() {
        let ids = ProcessId::all(3);
        assert_eq!(
            ids,
            vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]
        );
    }

    #[test]
    fn broadcast_excludes_sender_when_requested() {
        let msgs = broadcast_to_all(4, Some(ProcessId::new(1)), &"hello");
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().all(|m| m.to != ProcessId::new(1)));
    }

    #[test]
    fn broadcast_includes_everyone_without_exclusion() {
        let msgs = broadcast_to_all(3, None, &7u32);
        assert_eq!(msgs.len(), 3);
    }

    #[test]
    fn outgoing_and_delivery_constructors() {
        let out = Outgoing::new(ProcessId::new(0), 42);
        assert_eq!(out.to.index(), 0);
        assert_eq!(out.msg, 42);
        let del = Delivery::new(ProcessId::new(1), "x");
        assert_eq!(del.from.index(), 1);
    }

    #[test]
    fn local_broadcast_collapses_equivocation() {
        // Sender equivocates: "a" to p1, "b" to p3.  Under local broadcast
        // both receivers must observe the lowest receiver's payload.
        let mut batch = vec![
            Outgoing::new(ProcessId::new(2), "b"),
            Outgoing::new(ProcessId::new(0), "a"),
        ];
        let (receivers, slots) = enforce_local_broadcast(&mut batch).unwrap();
        assert_eq!(receivers, vec![0, 2]);
        assert_eq!(slots, 1);
        assert_eq!(batch[0].msg, "a");
        assert_eq!(batch[1].msg, "a");
        assert_eq!(batch[0].to, ProcessId::new(2));
        assert_eq!(batch[1].to, ProcessId::new(0));
    }

    #[test]
    fn local_broadcast_is_identity_for_uniform_batches() {
        let mut batch = broadcast_to_all(4, Some(ProcessId::new(1)), &7u32);
        let original = batch.clone();
        let (receivers, slots) = enforce_local_broadcast(&mut batch).unwrap();
        assert_eq!(batch, original);
        assert_eq!(receivers, vec![0, 2, 3]);
        assert_eq!(slots, 1);
    }

    #[test]
    fn local_broadcast_canonicalises_slots_independently() {
        // Two messages per receiver: each slot is forced to the lowest
        // receiver's payload for that slot, preserving per-receiver order.
        let mut batch = vec![
            Outgoing::new(ProcessId::new(1), "x1"),
            Outgoing::new(ProcessId::new(0), "y1"),
            Outgoing::new(ProcessId::new(1), "x2"),
            Outgoing::new(ProcessId::new(0), "y2"),
        ];
        let (receivers, slots) = enforce_local_broadcast(&mut batch).unwrap();
        assert_eq!(receivers, vec![0, 1]);
        assert_eq!(slots, 2);
        assert_eq!(batch[0].msg, "y1");
        assert_eq!(batch[1].msg, "y1");
        assert_eq!(batch[2].msg, "y2");
        assert_eq!(batch[3].msg, "y2");
    }

    #[test]
    fn local_broadcast_keeps_per_receiver_counts() {
        // Receiver 2 gets one extra message; its second slot draws from the
        // lowest receiver that *has* a second message (receiver 2 itself).
        let mut batch = vec![
            Outgoing::new(ProcessId::new(0), "a"),
            Outgoing::new(ProcessId::new(2), "b"),
            Outgoing::new(ProcessId::new(2), "c"),
        ];
        let (receivers, slots) = enforce_local_broadcast(&mut batch).unwrap();
        assert_eq!(receivers, vec![0, 2]);
        assert_eq!(slots, 2);
        assert_eq!(batch[0].msg, "a");
        assert_eq!(batch[1].msg, "a");
        assert_eq!(batch[2].msg, "c");
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn local_broadcast_on_empty_batch_is_none() {
        let mut batch: Vec<Outgoing<u32>> = Vec::new();
        assert!(enforce_local_broadcast(&mut batch).is_none());
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = ExecutionStats::default();
        assert_eq!(s.messages_delivered, 0);
        assert_eq!(s.messages_sent, 0);
        assert_eq!(s.messages_dropped, 0);
        assert_eq!(s.steps, 0);
        assert!(s.per_process.is_empty());
    }

    #[test]
    fn stats_attribute_messages_per_process() {
        let mut s = ExecutionStats::for_processes(3);
        s.record_sent(0, 4);
        s.record_sent(2, 1);
        s.record_delivered(1);
        s.record_delivered(1);
        s.record_dropped(0);
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.messages_delivered, 2);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.per_process[0].sent, 4);
        assert_eq!(s.per_process[0].dropped, 1);
        assert_eq!(s.per_process[1].delivered, 2);
        assert_eq!(s.per_process[2].sent, 1);
    }

    #[test]
    fn absorb_sums_totals_and_grows_per_process() {
        let mut total = ExecutionStats::for_processes(2);
        total.record_sent(0, 3);
        total.steps = 5;
        let mut other = ExecutionStats::for_processes(3);
        other.record_sent(0, 1);
        other.record_delivered(2);
        other.record_dropped(1);
        other.steps = 7;
        total.absorb(&other);
        assert_eq!(total.messages_sent, 4);
        assert_eq!(total.messages_delivered, 1);
        assert_eq!(total.messages_dropped, 1);
        assert_eq!(total.steps, 12);
        assert_eq!(total.per_process.len(), 3);
        assert_eq!(total.per_process[0].sent, 4);
        assert_eq!(total.per_process[1].dropped, 1);
        assert_eq!(total.per_process[2].delivered, 1);
    }

    #[test]
    fn out_of_range_attribution_is_ignored_but_counted_in_aggregate() {
        let mut s = ExecutionStats::for_processes(1);
        s.record_sent(5, 2);
        s.record_delivered(5);
        s.record_dropped(5);
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.per_process[0], ProcessCounters::default());
    }
}
