//! Synchronous Byzantine broadcast built on EIG consensus.
//!
//! The classical reduction: a designated *source* sends its value to every
//! process in the first round, and then all processes run Byzantine consensus
//! (here: EIG, [`crate::eig`]) on the value they received, using a default for
//! a silent source.  For `n ≥ 3f + 1` this satisfies exactly the two
//! properties the Exact BVC algorithm's Step 1 relies on:
//!
//! 1. all non-faulty processes decide an identical value, and
//! 2. if the source is non-faulty, that value is the source's input.
//!
//! [`BroadcastInstance`] is a pure per-process state machine (no I/O): the
//! caller moves messages between instances.  The Exact BVC process multiplexes
//! `n` of these, one per source, over the synchronous network executor, and
//! builds them on one shared [`ChildSlots`] table.

use crate::eig::{ChildSlots, EigTree, Relay};
use std::sync::Arc;

/// Payload of a broadcast-protocol message for one instance.
#[derive(Debug, Clone, PartialEq)]
pub enum BroadcastMessage<V> {
    /// Round 1: the source's value.
    Initial(V),
    /// Rounds 2..=f+2: the EIG relay for EIG round `round − 1` — its
    /// distinct values once, in a dictionary, and one dictionary index per
    /// position in the wire order of [`crate::eig`] — shared by every
    /// receiver.
    Relay(Arc<Relay<V>>),
}

/// Per-process state machine for one Byzantine broadcast instance (one
/// designated source).
#[derive(Debug, Clone)]
pub struct BroadcastInstance<V> {
    me: usize,
    source: usize,
    default: V,
    /// Value to broadcast; meaningful only at the source.
    input: Option<V>,
    /// The value this process received directly from the source in round 1.
    received_from_source: Option<V>,
    tree: EigTree<V>,
    decision: Option<V>,
}

impl<V: Clone + PartialEq> BroadcastInstance<V> {
    /// Creates the state machine for process `me` participating in the
    /// broadcast of `source`, in a system of `n` processes tolerating `f`
    /// faults, with `default` used when the source is silent or equivocates
    /// unintelligibly.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1`, `f ≥ 1`, and `me, source < n`.
    pub fn new(n: usize, f: usize, me: usize, source: usize, default: V) -> Self {
        Self::with_slots(Arc::new(ChildSlots::new(n, f)), me, source, default)
    }

    /// [`Self::new`] on a child-slot table built once for `slots`' `(n, f)`
    /// and shared with the process's other instances.
    ///
    /// # Panics
    ///
    /// Panics unless `me, source < n`.
    pub fn with_slots(slots: Arc<ChildSlots>, me: usize, source: usize, default: V) -> Self {
        assert!(source < slots.n(), "source index {source} out of range");
        let tree = EigTree::new(slots, me, default.clone());
        Self {
            me,
            source,
            default,
            input: None,
            received_from_source: None,
            tree,
            decision: None,
        }
    }

    /// Total number of synchronous rounds the protocol takes: `f + 2`.
    pub fn rounds(&self) -> usize {
        self.tree.rounds() + 1
    }

    /// The designated source of this instance.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Sets the value to broadcast.  Only meaningful when `me == source`.
    pub fn set_input(&mut self, value: V) {
        self.input = Some(value);
    }

    /// The messages this process should send to **all other processes** in
    /// round `round` (1-based), or `None` if it has nothing to send (e.g. a
    /// non-source process in round 1).
    ///
    /// # Panics
    ///
    /// Panics if `round` is 0 or exceeds [`Self::rounds`].
    pub fn message_for_round(&mut self, round: usize) -> Option<BroadcastMessage<V>> {
        assert!(
            round >= 1 && round <= self.rounds(),
            "round {round} out of range"
        );
        if round == 1 {
            if self.me == self.source {
                let value = self.input.clone().unwrap_or_else(|| self.default.clone());
                // The source "receives from itself" immediately.
                self.received_from_source = Some(value.clone());
                return Some(BroadcastMessage::Initial(value));
            }
            return None;
        }
        // EIG rounds: consensus round = round − 1. At the first EIG round the
        // consensus input is whatever arrived from the source.
        let eig_round = round - 1;
        if eig_round == 1 {
            let input = self
                .received_from_source
                .clone()
                .unwrap_or_else(|| self.default.clone());
            self.tree.set_input(input);
        }
        let relay = self.tree.relay(eig_round);
        Some(BroadcastMessage::Relay(Arc::new(relay)))
    }

    /// Handles a message received from `from` during round `round`.
    ///
    /// Out-of-place messages (an `Initial` not from the source or outside
    /// round 1, a `Relay` in round 1) are ignored: that is how a Byzantine
    /// sender's protocol violations are neutralised, as is a sender out of
    /// range.
    pub fn receive(&mut self, round: usize, from: usize, msg: &BroadcastMessage<V>) {
        match msg {
            BroadcastMessage::Initial(value) => {
                if round == 1 && from == self.source && self.received_from_source.is_none() {
                    self.received_from_source = Some(value.clone());
                }
            }
            BroadcastMessage::Relay(relay) => {
                if round >= 2 && round <= self.rounds() {
                    self.tree.receive(round - 1, from, relay);
                }
            }
        }
    }

    /// Marks the end of round `round`: fills EIG defaults and, after the last
    /// round, computes the decision.
    pub fn end_round(&mut self, round: usize) {
        if round >= 2 && round <= self.rounds() {
            self.tree.fill_defaults(round - 1);
        }
        if round == self.rounds() && self.decision.is_none() {
            self.decision = Some(self.tree.decide());
        }
    }

    /// The broadcast decision, available after [`Self::rounds`] rounds.
    pub fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one broadcast instance synchronously.  `byzantine` processes send
    /// whatever `forge` returns (possibly different messages per receiver)
    /// instead of their honest messages.  Returns the decisions of honest
    /// processes.
    fn run_broadcast(
        n: usize,
        f: usize,
        source: usize,
        source_value: i64,
        byzantine: &[usize],
        mut forge: impl FnMut(usize, usize, usize) -> Option<BroadcastMessage<i64>>,
    ) -> Vec<i64> {
        let default = 0i64;
        let mut instances: Vec<BroadcastInstance<i64>> = (0..n)
            .map(|me| BroadcastInstance::new(n, f, me, source, default))
            .collect();
        instances[source].set_input(source_value);
        let rounds = f + 2;
        for round in 1..=rounds {
            let outgoing: Vec<Option<BroadcastMessage<i64>>> = instances
                .iter_mut()
                .map(|inst| inst.message_for_round(round))
                .collect();
            for (to, inst) in instances.iter_mut().enumerate() {
                for (from, out) in outgoing.iter().enumerate() {
                    if from == to {
                        continue;
                    }
                    let msg = if byzantine.contains(&from) {
                        forge(round, from, to)
                    } else {
                        out.clone()
                    };
                    if let Some(m) = msg {
                        inst.receive(round, from, &m);
                    }
                }
            }
            for inst in instances.iter_mut() {
                inst.end_round(round);
            }
        }
        (0..n)
            .filter(|i| !byzantine.contains(i))
            .map(|i| *instances[i].decision().expect("decided after f+2 rounds"))
            .collect()
    }

    /// A relay whose positions read `values` in order, each from its own
    /// dictionary entry.
    fn relay(values: impl IntoIterator<Item = i64>) -> Option<BroadcastMessage<i64>> {
        let dictionary: Vec<i64> = values.into_iter().collect();
        let ids = (0..dictionary.len() as u32).collect();
        Some(BroadcastMessage::Relay(Arc::new(Relay { dictionary, ids })))
    }

    #[test]
    fn honest_source_value_is_adopted_by_all() {
        let decisions = run_broadcast(4, 1, 0, 42, &[], |_, _, _| None);
        assert_eq!(decisions, vec![42, 42, 42, 42]);
    }

    #[test]
    fn honest_source_with_a_byzantine_relay() {
        // Process 2 is Byzantine and relays garbage; the source (0) is honest,
        // so everyone must still decide 42.
        let decisions = run_broadcast(4, 1, 0, 42, &[2], |round, _from, to| {
            if round == 1 {
                None
            } else {
                // Longer than an honest relay in both EIG rounds.
                relay([900, 800, 700, 600].map(|v| v + to as i64))
            }
        });
        assert_eq!(decisions, vec![42, 42, 42]);
    }

    #[test]
    fn equivocating_source_still_yields_agreement() {
        // The source (0) is Byzantine and tells every receiver a different
        // value, then relays garbage. Honest processes must still agree on
        // *some* identical value.
        let decisions = run_broadcast(4, 1, 0, 0, &[0], |round, _from, to| {
            if round == 1 {
                Some(BroadcastMessage::Initial(100 + to as i64))
            } else {
                relay([500 + to as i64])
            }
        });
        assert_eq!(decisions.len(), 3);
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn silent_source_yields_agreement_on_some_value() {
        let decisions = run_broadcast(4, 1, 3, 7, &[3], |_, _, _| None);
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn two_faults_with_seven_processes() {
        // n = 7, f = 2, honest source, Byzantine relays from 5 and 6.
        let decisions = run_broadcast(7, 2, 0, 13, &[5, 6], |round, from, to| {
            if round == 1 {
                None
            } else {
                relay([(round * 100 + from * 10 + to) as i64])
            }
        });
        assert_eq!(decisions, vec![13; 5]);
    }

    #[test]
    fn equivocating_source_with_two_faults() {
        // n = 7, f = 2: the source and one relay are Byzantine.
        let decisions = run_broadcast(7, 2, 1, 0, &[1, 4], |round, from, to| {
            if from == 1 && round == 1 {
                Some(BroadcastMessage::Initial((to % 3) as i64))
            } else if round >= 2 {
                relay([to as i64])
            } else {
                None
            }
        });
        assert_eq!(decisions.len(), 5);
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn misplaced_messages_are_ignored() {
        let mut inst = BroadcastInstance::new(4, 1, 1, 0, 0i64);
        // An Initial from a non-source process must be ignored.
        inst.receive(1, 2, &BroadcastMessage::Initial(99));
        // A Relay in round 1, past the last round or from a sender out of
        // range must be ignored.
        let stray = BroadcastMessage::Relay(Arc::new(Relay::filled(99, 1)));
        inst.receive(1, 0, &stray);
        inst.receive(4, 0, &stray);
        inst.receive(2, 7, &stray);
        // An Initial from a sender out of range too.
        inst.receive(1, 7, &BroadcastMessage::Initial(98));
        // Now the genuine initial from the source.
        inst.receive(1, 0, &BroadcastMessage::Initial(5));
        let _ = inst.message_for_round(2);
        assert_eq!(inst.tree.value(&[]), Some(&5));
        assert_eq!(inst.tree.value(&[1]), Some(&5));
        assert_eq!(inst.tree.value(&[0]), None);
    }

    #[test]
    fn source_decides_its_own_value() {
        let decisions = run_broadcast(4, 1, 2, -3, &[], |_, _, _| None);
        assert_eq!(decisions, vec![-3; 4]);
    }

    #[test]
    fn rounds_is_f_plus_two() {
        let inst = BroadcastInstance::new(7, 2, 0, 0, 0i64);
        assert_eq!(inst.rounds(), 4);
    }
}
