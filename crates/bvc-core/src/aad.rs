//! The AAD-style exchange primitive ("Component #1", Section 3.2).
//!
//! In every asynchronous round `t`, each non-faulty process `p_i` must obtain
//! a set `B_i[t]` of at least `n − f` tuples `(p_j, w_j, t)` with the three
//! properties the correctness proof of Theorem 5 relies on:
//!
//! 1. **Property 1** — for any two non-faulty `p_i, p_j`:
//!    `|B_i[t] ∩ B_j[t]| ≥ n − f`.
//! 2. **Property 2** — `B_i[t]` contains at most one tuple per process.
//! 3. **Property 3** — a tuple for a non-faulty `p_k` can only carry
//!    `w_k = v_k[t−1]`, that process's true round-`(t−1)` state.
//!
//! The paper takes this component from Abraham–Amit–Dolev (OPODIS 2004).  Our
//! implementation composes two sub-protocols, mirroring AAD's structure:
//!
//! * every process **reliably broadcasts** its round-`t` value
//!   ([`ReliableBroadcastInstance`]); consistency/validity of reliable
//!   broadcast give Properties 2 and 3, and totality guarantees that a tuple
//!   delivered anywhere is eventually delivered everywhere;
//! * once a process has delivered `n − f` tuples it broadcasts a **report**
//!   listing them; a process `p_k` becomes a **witness** for `p_i` when every
//!   tuple in `p_k`'s report has also been delivered at `p_i`.  A process
//!   finishes the exchange when it has `n − f` witnesses.  Any two non-faulty
//!   processes then share at least `n − 2f ≥ f + 1` witnesses, hence at least
//!   one *non-faulty* common witness, whose reported `n − f` tuples are
//!   contained in both B sets — exactly Property 1.
//!
//! Nothing is rescanned per message.  Reliable broadcast tallies echoes and
//! readies per distinct value; the exchange keeps the number of delivered
//! tuples and, per reporter, the number of tuples of its report not yet
//! delivered here with the reported value.  That count is set when the
//! report arrives and lowered by each matching first delivery; a reporter
//! whose count reaches zero is a witness.
//!
//! The completed exchange also exposes the witnesses' reported tuple sets,
//! which is what the witness optimisation of Appendix F uses to shrink `Z_i`
//! from `C(|B_i|, n−f)` subsets to at most `n`.

use bvc_adversary::{ForgePoints, RoundTagged};
use bvc_broadcast::{RbMessage, ReliableBroadcastInstance};
use bvc_geometry::Point;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Message of the asynchronous approximate-BVC protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum AadMsg {
    /// Reliable-broadcast traffic carrying the round-`round` value of process
    /// `origin`.
    Rb {
        /// Asynchronous round the value belongs to.
        round: usize,
        /// The process whose value is being reliably broadcast.
        origin: usize,
        /// The underlying echo-broadcast message.
        inner: RbMessage<Point>,
    },
    /// A process's report of the first `n − f` tuples it delivered in
    /// `round` (the witness mechanism).
    Report {
        /// Asynchronous round the report belongs to.
        round: usize,
        /// `(process, value)` tuples the reporter has delivered.
        entries: Vec<(usize, Point)>,
    },
}

impl AadMsg {
    /// The asynchronous round this message belongs to.
    pub fn round(&self) -> usize {
        match self {
            AadMsg::Rb { round, .. } => *round,
            AadMsg::Report { round, .. } => *round,
        }
    }
}

impl ForgePoints for AadMsg {
    fn forge_points(&mut self, point: &Point) {
        match self {
            AadMsg::Rb { inner, .. } => match inner {
                RbMessage::Init(v) | RbMessage::Echo(v) | RbMessage::Ready(v) => *v = point.clone(),
            },
            AadMsg::Report { entries, .. } => {
                for (_, v) in entries.iter_mut() {
                    *v = point.clone();
                }
            }
        }
    }
}

impl RoundTagged for AadMsg {
    fn round(&self) -> usize {
        AadMsg::round(self)
    }
}

/// The result of a completed exchange: the `B_i[t]` snapshot and the
/// witnesses' reported tuple sets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedExchange {
    /// The tuples `(process, value)` delivered at completion time (Property 2
    /// guarantees at most one per process).
    pub entries: Vec<(usize, Point)>,
    /// The reported tuple sets of this process's witnesses, each of size
    /// exactly `n − f` (used by the Appendix F optimisation).
    pub witness_sets: Vec<Vec<(usize, Point)>>,
}

/// Per-process, per-round state machine of the exchange.
#[derive(Debug, Clone)]
pub struct AadExchange {
    n: usize,
    f: usize,
    me: usize,
    round: usize,
    rb: Vec<ReliableBroadcastInstance<Point>>,
    delivered: Vec<Option<Point>>,
    /// How many entries of `delivered` are `Some`.
    delivered_count: usize,
    /// First report received from each process (later reports are ignored).
    reports: BTreeMap<usize, Vec<(usize, Point)>>,
    /// Per reporter, how many tuples of its report are not yet delivered
    /// here with the reported value (meaningful while it is in `reports`).
    missing: Vec<usize>,
    witnesses: BTreeSet<usize>,
    sent_report: bool,
    completion: Option<CompletedExchange>,
}

impl AadExchange {
    /// Starts the exchange for `round` at process `me` with state value
    /// `value`; returns the state machine and the initial messages to
    /// broadcast to all other processes.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1`, `f ≥ 1` and `me < n`.
    pub fn start(n: usize, f: usize, me: usize, round: usize, value: Point) -> (Self, Vec<AadMsg>) {
        assert!(me < n, "process index {me} out of range");
        let rb: Vec<ReliableBroadcastInstance<Point>> = (0..n)
            .map(|origin| ReliableBroadcastInstance::new(n, f, origin))
            .collect();
        let mut exchange = Self {
            n,
            f,
            me,
            round,
            rb,
            delivered: vec![None; n],
            delivered_count: 0,
            reports: BTreeMap::new(),
            missing: vec![0; n],
            witnesses: BTreeSet::new(),
            sent_report: false,
            completion: None,
        };
        let step = exchange.rb[me].start_as_sender(value);
        let mut out: Vec<AadMsg> = step
            .broadcast
            .into_iter()
            .map(|inner| AadMsg::Rb {
                round,
                origin: me,
                inner,
            })
            .collect();
        if let Some(v) = step.delivered {
            exchange.record_delivery(me, v);
        }
        exchange.refresh(&mut out);
        (exchange, out)
    }

    /// The asynchronous round this exchange belongs to.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of tuples delivered so far.
    pub fn delivered_count(&self) -> usize {
        self.delivered_count
    }

    /// Number of witnesses acquired so far.
    pub fn witness_count(&self) -> usize {
        self.witnesses.len()
    }

    /// The completed exchange, once `n − f` witnesses have been obtained.
    pub fn completed(&self) -> Option<&CompletedExchange> {
        self.completion.as_ref()
    }

    /// Handles a protocol message received from `from`; returns the messages
    /// to broadcast in response.  Messages whose round does not match this
    /// exchange are ignored (the caller routes by round).
    pub fn handle(&mut self, from: usize, msg: &AadMsg) -> Vec<AadMsg> {
        if from >= self.n || msg.round() != self.round {
            return Vec::new();
        }
        let mut out = Vec::new();
        match msg {
            AadMsg::Rb { origin, inner, .. } => {
                if *origin >= self.n {
                    return Vec::new();
                }
                let step = self.rb[*origin].handle(self.me, from, inner);
                out.extend(step.broadcast.into_iter().map(|inner| AadMsg::Rb {
                    round: self.round,
                    origin: *origin,
                    inner,
                }));
                if let Some(v) = step.delivered {
                    self.record_delivery(*origin, v);
                }
            }
            AadMsg::Report { entries, .. } => {
                // Keep only the first, well-formed report of each process:
                // at most one entry per origin, valid indices, and at least
                // n − f entries (honest reports always satisfy this).
                if !self.reports.contains_key(&from) {
                    let sane = Self::sanitize_report(self.n, entries);
                    if sane.len() >= self.n - self.f {
                        self.add_report(from, sane);
                    }
                }
            }
        }
        self.refresh(&mut out);
        out
    }

    fn sanitize_report(n: usize, entries: &[(usize, Point)]) -> Vec<(usize, Point)> {
        let mut seen = BTreeSet::new();
        entries
            .iter()
            .filter(|(origin, _)| *origin < n && seen.insert(*origin))
            .cloned()
            .collect()
    }

    /// Files `reporter`'s report with its count of tuples still missing
    /// here; a reporter with none missing is a witness.
    fn add_report(&mut self, reporter: usize, entries: Vec<(usize, Point)>) {
        let missing = (entries.iter())
            .filter(|(origin, value)| self.delivered[*origin].as_ref() != Some(value))
            .count();
        self.missing[reporter] = missing;
        if missing == 0 {
            self.witnesses.insert(reporter);
        }
        self.reports.insert(reporter, entries);
    }

    /// Records the first delivery for `origin`, and lowers the missing count
    /// of every pending report that lists this very tuple: a reporter is a
    /// witness once every tuple it reported has been delivered here with the
    /// same value.
    fn record_delivery(&mut self, origin: usize, value: Point) {
        if self.delivered[origin].is_some() {
            return;
        }
        // A witness's tuples are all delivered, so none of them is this one.
        for (&reporter, entries) in &self.reports {
            if entries.iter().any(|(o, v)| *o == origin && *v == value) {
                self.missing[reporter] -= 1;
                if self.missing[reporter] == 0 {
                    self.witnesses.insert(reporter);
                }
            }
        }
        self.delivered[origin] = Some(value);
        self.delivered_count += 1;
    }

    /// Sends this process's report and completes the exchange once their
    /// thresholds are met.
    fn refresh(&mut self, out: &mut Vec<AadMsg>) {
        let quorum = self.n - self.f;
        // Send our own report once we hold n − f tuples.
        if !self.sent_report && self.delivered_count >= quorum {
            self.sent_report = true;
            let entries: Vec<(usize, Point)> = self
                .delivered
                .iter()
                .enumerate()
                .filter_map(|(p, v)| v.clone().map(|v| (p, v)))
                .take(quorum)
                .collect();
            // Self-deliver the report: we are trivially our own witness.
            self.add_report(self.me, entries.clone());
            out.push(AadMsg::Report {
                round: self.round,
                entries,
            });
        }
        // Completion: n − f witnesses and n − f tuples.
        if self.completion.is_none()
            && self.witnesses.len() >= quorum
            && self.delivered_count >= quorum
        {
            let entries: Vec<(usize, Point)> = self
                .delivered
                .iter()
                .enumerate()
                .filter_map(|(p, v)| v.clone().map(|v| (p, v)))
                .collect();
            let witness_sets: Vec<Vec<(usize, Point)>> = self
                .witnesses
                .iter()
                .filter_map(|w| self.reports.get(w))
                .map(|entries| entries.iter().take(quorum).cloned().collect())
                .collect();
            self.completion = Some(CompletedExchange {
                entries,
                witness_sets,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The witness rule the counters replaced, kept as their oracle: every
    /// reporter all of whose reported tuples are delivered with its value.
    fn rescanned_witnesses(exchange: &AadExchange) -> BTreeSet<usize> {
        (exchange.reports.iter())
            .filter(|(_, entries)| {
                (entries.iter())
                    .all(|(origin, value)| exchange.delivered[*origin].as_ref() == Some(value))
            })
            .map(|(&reporter, _)| reporter)
            .collect()
    }

    /// Runs one exchange round among `n` processes, `byz` of which are silent
    /// Byzantine processes, under FIFO per-channel scheduling, checking the
    /// counters against a rescan after every message.  Returns the exchanges
    /// after quiescence.
    fn run_exchange(n: usize, f: usize, byz: &[usize], values: &[f64]) -> Vec<AadExchange> {
        let mut exchanges = Vec::new();
        let mut queue: VecDeque<(usize, usize, AadMsg)> = VecDeque::new();
        for (me, &value) in values.iter().enumerate() {
            let (exchange, msgs) = AadExchange::start(n, f, me, 1, Point::new(vec![value]));
            if !byz.contains(&me) {
                for msg in msgs {
                    for to in 0..n {
                        if to != me {
                            queue.push_back((me, to, msg.clone()));
                        }
                    }
                }
            }
            exchanges.push(exchange);
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            if byz.contains(&to) {
                continue;
            }
            let responses = exchanges[to].handle(from, &msg);
            let exchange = &exchanges[to];
            assert_eq!(exchange.witnesses, rescanned_witnesses(exchange));
            let delivered = exchange.delivered.iter().flatten().count();
            assert_eq!(exchange.delivered_count, delivered);
            for response in responses {
                for dest in 0..n {
                    if dest != to {
                        queue.push_back((to, dest, response.clone()));
                    }
                }
            }
        }
        exchanges
    }

    #[test]
    fn all_honest_processes_complete_without_faults() {
        let exchanges = run_exchange(4, 1, &[], &[1.0, 2.0, 3.0, 4.0]);
        for (i, e) in exchanges.iter().enumerate() {
            let done = e
                .completed()
                .unwrap_or_else(|| panic!("process {i} incomplete"));
            assert!(done.entries.len() >= 3);
            assert!(!done.witness_sets.is_empty());
        }
    }

    #[test]
    fn completes_despite_a_silent_byzantine_process() {
        let exchanges = run_exchange(4, 1, &[3], &[1.0, 2.0, 3.0, 99.0]);
        for (i, exchange) in exchanges.iter().take(3).enumerate() {
            assert!(
                exchange.completed().is_some(),
                "honest process {i} must complete without the silent process"
            );
        }
    }

    #[test]
    fn property_2_at_most_one_tuple_per_process() {
        let exchanges = run_exchange(4, 1, &[], &[1.0, 2.0, 3.0, 4.0]);
        for e in &exchanges {
            let done = e.completed().unwrap();
            let mut origins: Vec<usize> = done.entries.iter().map(|(p, _)| *p).collect();
            origins.sort_unstable();
            origins.dedup();
            assert_eq!(origins.len(), done.entries.len());
        }
    }

    #[test]
    fn property_3_honest_values_are_reported_faithfully() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let exchanges = run_exchange(4, 1, &[3], &values);
        for exchange in exchanges.iter().take(3) {
            let done = exchange.completed().unwrap();
            for (origin, value) in &done.entries {
                if *origin < 3 {
                    assert!(
                        (value.coord(0) - values[*origin]).abs() < 1e-12,
                        "tuple for honest process {origin} must carry its true value"
                    );
                }
            }
        }
    }

    #[test]
    fn property_1_intersection_is_at_least_n_minus_f() {
        let exchanges = run_exchange(4, 1, &[3], &[1.0, 2.0, 3.0, 4.0]);
        let quorum = 3;
        for i in 0..3 {
            for j in (i + 1)..3 {
                let a = exchanges[i].completed().unwrap();
                let b = exchanges[j].completed().unwrap();
                let common = a
                    .entries
                    .iter()
                    .filter(|(p, v)| {
                        b.entries
                            .iter()
                            .any(|(q, w)| q == p && w.approx_eq(v, 1e-12))
                    })
                    .count();
                assert!(
                    common >= quorum,
                    "processes {i} and {j} share only {common} tuples"
                );
            }
        }
    }

    #[test]
    fn witness_sets_have_exactly_quorum_entries() {
        let exchanges = run_exchange(7, 2, &[5, 6], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        for exchange in exchanges.iter().take(5) {
            let done = exchange.completed().unwrap();
            assert!(done.witness_sets.len() <= 7);
            for set in &done.witness_sets {
                assert_eq!(set.len(), 5);
            }
        }
    }

    #[test]
    fn messages_for_other_rounds_are_ignored() {
        let (mut exchange, _) = AadExchange::start(4, 1, 0, 1, Point::new(vec![0.0]));
        let before = exchange.delivered_count();
        let out = exchange.handle(
            1,
            &AadMsg::Rb {
                round: 2,
                origin: 1,
                inner: RbMessage::Init(Point::new(vec![5.0])),
            },
        );
        assert!(out.is_empty());
        assert_eq!(exchange.delivered_count(), before);
    }

    #[test]
    fn malformed_reports_are_dropped() {
        let (mut exchange, _) = AadExchange::start(4, 1, 0, 1, Point::new(vec![0.0]));
        // Too few entries after sanitisation (duplicates collapse).
        let _ = exchange.handle(
            1,
            &AadMsg::Report {
                round: 1,
                entries: vec![
                    (2, Point::new(vec![9.0])),
                    (2, Point::new(vec![9.0])),
                    (9, Point::new(vec![9.0])),
                ],
            },
        );
        assert_eq!(exchange.witness_count(), 0);
    }

    #[test]
    fn forge_points_rewrites_all_payload_kinds() {
        let p = Point::new(vec![7.0]);
        let mut rb = AadMsg::Rb {
            round: 1,
            origin: 0,
            inner: RbMessage::Echo(Point::new(vec![1.0])),
        };
        rb.forge_points(&p);
        if let AadMsg::Rb {
            inner: RbMessage::Echo(v),
            ..
        } = &rb
        {
            assert_eq!(v.coord(0), 7.0);
        } else {
            panic!("message shape changed");
        }
        let mut report = AadMsg::Report {
            round: 2,
            entries: vec![(0, Point::new(vec![1.0])), (1, Point::new(vec![2.0]))],
        };
        report.forge_points(&p);
        if let AadMsg::Report { entries, .. } = &report {
            assert!(entries.iter().all(|(_, v)| v.coord(0) == 7.0));
        }
        assert_eq!(report.round(), 2);
    }
}
