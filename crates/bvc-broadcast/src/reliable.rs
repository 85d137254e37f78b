//! Asynchronous reliable broadcast (Bracha-style echo broadcast).
//!
//! The asynchronous Approximate BVC algorithm (Section 3.2 of the paper)
//! borrows "Component #1" of the Abraham–Amit–Dolev (AAD) algorithm: a
//! per-round exchange through which each process `p_i` obtains a set `B_i[t]`
//! of tuples `(p_j, w_j, t)` satisfying three properties.  The first building
//! block of that exchange is a *reliable broadcast* primitive with the
//! classical guarantees (for `n ≥ 3f + 1`):
//!
//! * **Consistency** — no two non-faulty processes deliver different values
//!   for the same `(sender, tag)`, even if the sender is Byzantine.
//! * **Validity** — if the sender is non-faulty, every non-faulty process
//!   eventually delivers the sender's value.
//! * **Totality** — if any non-faulty process delivers a value for
//!   `(sender, tag)`, every non-faulty process eventually delivers it.
//!
//! Consistency gives AAD's Property 2 and 3; totality is what lets the
//! witness mechanism (in `bvc-core::aad`) establish Property 1.
//!
//! [`ReliableBroadcastInstance`] is a pure state machine for a single
//! `(sender, tag)` slot; the caller routes [`RbMessage`]s between processes.
//! Only the slot's designated sender can open it: an `Init` from any other
//! process is ignored, as EIG's `BroadcastInstance::receive` ignores an
//! `Initial` that does not come from the source.  Otherwise a Byzantine
//! process could start a broadcast in an honest process's name, and an echo
//! quorum for its forged value would break Property 3.  Echoes and readies
//! are tallied per distinct value, each sender counted once.

/// Message kinds of the echo-broadcast protocol for one `(sender, tag)` slot.
#[derive(Debug, Clone, PartialEq)]
pub enum RbMessage<V> {
    /// Sent by the designated sender to everyone: its proposed value.
    Init(V),
    /// Echoed by every receiver of an `Init`.
    Echo(V),
    /// Sent once a process has seen enough matching echoes (or enough
    /// `Ready`s to amplify).
    Ready(V),
}

/// Actions a caller must carry out after feeding a message into the instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RbStep<V> {
    /// Messages to broadcast to **all** processes (including self-delivery,
    /// which the instance performs internally; the caller only needs to send
    /// them to the other processes).
    pub broadcast: Vec<RbMessage<V>>,
    /// Value delivered by this step, if the delivery threshold was reached.
    pub delivered: Option<V>,
}

impl<V> RbStep<V> {
    fn empty() -> Self {
        Self {
            broadcast: Vec::new(),
            delivered: None,
        }
    }
}

/// Distinct senders per value, each sender counted once: the
/// `value → sender count` table of the echo and ready quorums.
#[derive(Debug, Clone)]
struct Tally<V> {
    heard: Vec<bool>,
    counts: Vec<(V, usize)>,
}

impl<V: Clone + PartialEq> Tally<V> {
    fn new(n: usize) -> Self {
        Self {
            heard: vec![false; n],
            counts: Vec::new(),
        }
    }

    /// Counts `from`'s first message, `value`; returns how many distinct
    /// senders have sent `value` so far, or `None` if `from` was heard.
    fn add(&mut self, from: usize, value: &V) -> Option<usize> {
        if std::mem::replace(&mut self.heard[from], true) {
            return None;
        }
        Some(match self.counts.iter_mut().find(|(v, _)| v == value) {
            Some((_, count)) => {
                *count += 1;
                *count
            }
            None => {
                self.counts.push((value.clone(), 1));
                1
            }
        })
    }
}

/// Per-process state machine for one reliable-broadcast slot.
#[derive(Debug, Clone)]
pub struct ReliableBroadcastInstance<V> {
    n: usize,
    f: usize,
    /// The designated sender: the only process whose `Init` counts.
    sender: usize,
    echoes: Tally<V>,
    readies: Tally<V>,
    sent_echo: bool,
    sent_ready: bool,
    delivered: Option<V>,
}

impl<V: Clone + PartialEq> ReliableBroadcastInstance<V> {
    /// Creates the state machine of `sender`'s slot for a system of `n`
    /// processes tolerating `f` Byzantine faults.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1`, `f ≥ 1` and `sender < n`.
    pub fn new(n: usize, f: usize, sender: usize) -> Self {
        assert!(f >= 1, "reliable broadcast instance expects f >= 1");
        assert!(
            n > 3 * f,
            "reliable broadcast requires n >= 3f + 1 (n = {n}, f = {f})"
        );
        assert!(sender < n, "sender {sender} out of range");
        Self {
            n,
            f,
            sender,
            echoes: Tally::new(n),
            readies: Tally::new(n),
            sent_echo: false,
            sent_ready: false,
            delivered: None,
        }
    }

    /// Starts the broadcast as the designated sender with value `value`:
    /// returns the `Init` to broadcast (the instance also processes its own
    /// `Init`/`Echo` internally).
    pub fn start_as_sender(&mut self, value: V) -> RbStep<V> {
        let me = self.sender;
        let mut step = self.handle(me, me, &RbMessage::Init(value.clone()));
        step.broadcast.insert(0, RbMessage::Init(value));
        step
    }

    /// Handles a protocol message for this slot received from `from` (use
    /// `from == me` for self-delivery of one's own broadcasts).  Returns the
    /// messages to broadcast in response and the delivered value, if any.
    pub fn handle(&mut self, me: usize, from: usize, msg: &RbMessage<V>) -> RbStep<V> {
        if from >= self.n {
            return RbStep::empty();
        }
        let mut step = RbStep::empty();
        match msg {
            RbMessage::Init(value) => {
                // Echo the first Init seen from the sender (a Byzantine
                // sender may send several different Inits; only the first is
                // echoed).  An Init from anyone else is an impersonation.
                if from == self.sender && !self.sent_echo {
                    self.sent_echo = true;
                    let echo = RbMessage::Echo(value.clone());
                    step.broadcast.push(echo.clone());
                    // Self-deliver the echo.
                    let follow_up = self.handle(me, me, &echo);
                    step.broadcast.extend(follow_up.broadcast);
                    step.delivered = step.delivered.or(follow_up.delivered);
                }
            }
            RbMessage::Echo(value) => {
                // Quorum of n − f matching echoes triggers Ready.
                if let Some(matching) = self.echoes.add(from, value) {
                    if matching >= self.n - self.f && !self.sent_ready {
                        self.send_ready(me, value.clone(), &mut step);
                    }
                }
            }
            RbMessage::Ready(value) => {
                if let Some(matching) = self.readies.add(from, value) {
                    // Amplification: f + 1 Readys for a value we have not
                    // endorsed yet ⇒ send our own Ready.
                    if matching > self.f && !self.sent_ready {
                        self.send_ready(me, value.clone(), &mut step);
                    }
                    // Delivery: 2f + 1 matching Readys.  (Our own Ready, if
                    // just sent, was counted by its self-delivery, which
                    // delivers first if that reaches the quorum.)
                    if matching > 2 * self.f && self.delivered.is_none() {
                        self.delivered = Some(value.clone());
                        step.delivered = Some(value.clone());
                    }
                }
            }
        }
        step
    }

    fn send_ready(&mut self, me: usize, value: V, step: &mut RbStep<V>) {
        self.sent_ready = true;
        let ready = RbMessage::Ready(value);
        step.broadcast.push(ready.clone());
        let follow_up = self.handle(me, me, &ready);
        step.broadcast.extend(follow_up.broadcast);
        if step.delivered.is_none() {
            step.delivered = follow_up.delivered;
        }
    }

    /// The value this process has delivered for this slot, if any.
    pub fn delivered(&self) -> Option<&V> {
        self.delivered.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Runs one reliable-broadcast slot among `n` processes with `byzantine`
    /// processes dropping all their protocol duties (silent faults), and the
    /// (possibly Byzantine) sender injecting `inits[to]` as the Init it sends
    /// to process `to`.  Messages are delivered in FIFO order per channel by a
    /// simple queue.  Returns the delivered value per process.
    fn run_slot(
        n: usize,
        f: usize,
        sender: usize,
        inits: &dyn Fn(usize) -> Option<i32>,
        byzantine: &[usize],
    ) -> Vec<Option<i32>> {
        let mut instances: Vec<ReliableBroadcastInstance<i32>> = (0..n)
            .map(|_| ReliableBroadcastInstance::new(n, f, sender))
            .collect();
        let mut queue: VecDeque<(usize, usize, RbMessage<i32>)> = VecDeque::new();

        // Sender injects its Inits (a Byzantine sender may equivocate).
        for to in 0..n {
            if to == sender {
                continue;
            }
            if let Some(v) = inits(to) {
                queue.push_back((sender, to, RbMessage::Init(v)));
            }
        }
        // An honest sender also processes its own Init.
        if !byzantine.contains(&sender) {
            if let Some(v) = inits(sender) {
                let step = instances[sender].start_as_sender(v);
                for m in step.broadcast {
                    if matches!(m, RbMessage::Init(_)) {
                        continue; // already queued above
                    }
                    for to in 0..n {
                        if to != sender {
                            queue.push_back((sender, to, m.clone()));
                        }
                    }
                }
            }
        }

        while let Some((from, to, msg)) = queue.pop_front() {
            if byzantine.contains(&to) {
                continue; // silent Byzantine processes do nothing
            }
            let step = instances[to].handle(to, from, &msg);
            for m in step.broadcast {
                for dest in 0..n {
                    if dest != to {
                        queue.push_back((to, dest, m.clone()));
                    }
                }
            }
        }
        instances.iter().map(|i| i.delivered().copied()).collect()
    }

    #[test]
    fn honest_sender_delivers_to_all_honest() {
        let delivered = run_slot(4, 1, 0, &|_| Some(9), &[]);
        assert_eq!(delivered, vec![Some(9); 4]);
    }

    #[test]
    fn honest_sender_with_silent_byzantine_peer() {
        let delivered = run_slot(4, 1, 0, &|_| Some(5), &[2]);
        for (i, d) in delivered.iter().enumerate() {
            if i == 2 {
                continue;
            }
            assert_eq!(*d, Some(5), "process {i} must deliver the sender's value");
        }
    }

    #[test]
    fn equivocating_sender_never_causes_divergent_deliveries() {
        // The Byzantine sender sends value 1 to half the processes and 2 to
        // the rest. With n = 7, f = 2, no two honest processes may deliver
        // different values (they may deliver nothing).
        let delivered = run_slot(7, 2, 6, &|to| Some(if to % 2 == 0 { 1 } else { 2 }), &[6]);
        let honest: Vec<i32> = delivered[..6].iter().filter_map(|d| *d).collect();
        assert!(
            honest.windows(2).all(|w| w[0] == w[1]),
            "honest deliveries must agree: {honest:?}"
        );
    }

    #[test]
    fn totality_holds_when_sender_equivocates_but_one_value_wins() {
        // Sender sends the same value to enough processes that a delivery
        // happens; then all honest processes must deliver it.
        let delivered = run_slot(4, 1, 3, &|_to| Some(8), &[3]);
        let honest: Vec<Option<i32>> = delivered[..3].to_vec();
        assert!(honest.iter().all(|d| *d == Some(8)));
    }

    #[test]
    fn no_delivery_without_a_sender() {
        let delivered = run_slot(4, 1, 1, &|_| None, &[1]);
        assert!(delivered.iter().all(|d| d.is_none()));
    }

    #[test]
    fn only_the_designated_sender_opens_its_slot() {
        let mut inst = ReliableBroadcastInstance::new(4, 1, 1);
        let step = inst.handle(0, 3, &RbMessage::Init(9));
        assert!(step.broadcast.is_empty(), "an impersonated Init is ignored");
        let step = inst.handle(0, 1, &RbMessage::Init(5));
        assert_eq!(step.broadcast, vec![RbMessage::Echo(5)]);
    }

    #[test]
    fn duplicate_echoes_from_one_process_count_once() {
        let mut inst = ReliableBroadcastInstance::new(4, 1, 0);
        // Three echoes are needed (n − f = 3); two copies from the same
        // process must not suffice together with one other.
        let _ = inst.handle(0, 1, &RbMessage::Echo(7));
        let _ = inst.handle(0, 1, &RbMessage::Echo(7));
        let step = inst.handle(0, 2, &RbMessage::Echo(7));
        assert!(step.broadcast.is_empty(), "quorum must not be reached yet");
        let step = inst.handle(0, 3, &RbMessage::Echo(7));
        assert!(
            step.broadcast
                .iter()
                .any(|m| matches!(m, RbMessage::Ready(7))),
            "third distinct echo reaches the quorum"
        );
    }

    #[test]
    fn ready_amplification_from_f_plus_one_readys() {
        let mut inst = ReliableBroadcastInstance::new(4, 1, 0);
        // f + 1 = 2 Readys for value 3 must trigger our own Ready even though
        // we never saw an Init or enough Echos.
        let _ = inst.handle(0, 1, &RbMessage::Ready(3));
        let step = inst.handle(0, 2, &RbMessage::Ready(3));
        assert!(step
            .broadcast
            .iter()
            .any(|m| matches!(m, RbMessage::Ready(3))));
        // With our own Ready that is 3 = 2f + 1 matching Readys: delivered.
        assert_eq!(inst.delivered(), Some(&3));
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn insufficient_processes_panics() {
        let _ = ReliableBroadcastInstance::<i32>::new(5, 2, 0);
    }
}
