//! Byzantine wrappers for network processes.
//!
//! Two kinds.  The **payload-agnostic** ones ([`CrashAfterSync`],
//! [`SilenceTowardsSync`], [`DuplicateSync`]) do not need to understand the
//! protocol's message contents at all: they post-process the outgoing
//! message list of an inner (honest) [`SyncProcess`].
//!
//! The **forging** ones put a [`PointForge`] on the wire, keyed by
//! `(round, receiver)` so equivocation is expressible:
//!
//! * [`Forging`] runs an unmodified honest process and overwrites every
//!   point it sends — the protocol only has to say where the points live in
//!   its messages ([`ForgePoints`]).
//! * [`StateForger`] needs no inner process: for the protocols whose whole
//!   message is a round-tagged state vector it sends a forged state to each
//!   process of a recipient list.
//!
//! Both decide nothing (`output()` is `None`) and report no trace state.

use crate::strategy::PointForge;
use bvc_geometry::Point;
use bvc_net::{AsyncProcess, Delivery, Outgoing, ProcessId, SyncProcess};

/// A synchronous process that behaves exactly like `inner` but stops sending
/// anything after round `last_round` (crash-stop).  `last_round = 0` silences
/// it from the start.
pub struct CrashAfterSync<P> {
    inner: P,
    last_round: usize,
}

impl<P> CrashAfterSync<P> {
    /// Wraps `inner`, participating through round `last_round` and silent
    /// afterwards.
    pub fn new(inner: P, last_round: usize) -> Self {
        Self { inner, last_round }
    }
}

impl<P: SyncProcess> SyncProcess for CrashAfterSync<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn round(&mut self, round: usize, inbox: &[Delivery<Self::Msg>]) -> Vec<Outgoing<Self::Msg>> {
        let outgoing = self.inner.round(round, inbox);
        if round > self.last_round {
            Vec::new()
        } else {
            outgoing
        }
    }

    fn output(&self) -> Option<Self::Output> {
        // A crashed process never announces a decision.
        None
    }
}

/// A synchronous process that drops every message addressed to the victims
/// (selective silence / targeted partition attempt), forwarding the rest
/// unchanged.
pub struct SilenceTowardsSync<P> {
    inner: P,
    victims: Vec<ProcessId>,
}

impl<P> SilenceTowardsSync<P> {
    /// Wraps `inner`, dropping all messages to `victims`.
    pub fn new(inner: P, victims: Vec<ProcessId>) -> Self {
        Self { inner, victims }
    }
}

impl<P: SyncProcess> SyncProcess for SilenceTowardsSync<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn round(&mut self, round: usize, inbox: &[Delivery<Self::Msg>]) -> Vec<Outgoing<Self::Msg>> {
        self.inner
            .round(round, inbox)
            .into_iter()
            .filter(|m| !self.victims.contains(&m.to))
            .collect()
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }
}

/// A synchronous process that sends every outgoing message twice (a simple
/// replay/duplication attack; protocols relying on per-slot first-write-wins
/// must be immune to it).
pub struct DuplicateSync<P> {
    inner: P,
}

impl<P> DuplicateSync<P> {
    /// Wraps `inner`, duplicating everything it sends.
    pub fn new(inner: P) -> Self {
        Self { inner }
    }
}

impl<P: SyncProcess> SyncProcess for DuplicateSync<P>
where
    P::Msg: Clone,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn round(&mut self, round: usize, inbox: &[Delivery<Self::Msg>]) -> Vec<Outgoing<Self::Msg>> {
        let outgoing = self.inner.round(round, inbox);
        let mut doubled = Vec::with_capacity(outgoing.len() * 2);
        for m in outgoing {
            doubled.push(Outgoing::new(m.to, m.msg.clone()));
            doubled.push(m);
        }
        doubled
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }
}

/// A protocol message whose point payloads an adversary can overwrite.
pub trait ForgePoints {
    /// Replaces every point payload in this message by `point`, keeping the
    /// message shape (kind, tags, entry count) as the honest sender built it.
    fn forge_points(&mut self, point: &Point);
}

/// A message that names the protocol round it belongs to — what keys the
/// forge where no executor round exists (asynchronous protocols).
pub trait RoundTagged {
    /// The protocol round this message belongs to.
    fn round(&self) -> usize;
}

/// A Byzantine participant of any point-carrying protocol: runs the honest
/// message schedule of `inner` unmodified and forges every point it sends
/// according to a [`PointForge`] strategy — per `(round, receiver)`, so it
/// can equivocate — or drops the message when the strategy sends nothing to
/// that receiver in that round.  Recipients and send order are `inner`'s.
///
/// Give `inner` a strategy-independent nominal input so its schedule stays
/// well formed.  The forge is keyed by the executor round under
/// [`SyncProcess`] and by the message's own round under [`AsyncProcess`].
pub struct Forging<P> {
    inner: P,
    forge: PointForge,
}

impl<P> Forging<P> {
    /// Wraps the honest skeleton `inner` with the given forge.
    pub fn new(inner: P, forge: PointForge) -> Self {
        Self { inner, forge }
    }

    fn corrupt<M: ForgePoints>(
        &mut self,
        honest: Vec<Outgoing<M>>,
        round_of: impl Fn(&M) -> usize,
    ) -> Vec<Outgoing<M>> {
        let mut forged = Vec::with_capacity(honest.len());
        for mut outgoing in honest {
            // `None`: the strategy sends nothing to this receiver this round.
            if let Some(point) = self
                .forge
                .forge(round_of(&outgoing.msg), outgoing.to.index())
            {
                outgoing.msg.forge_points(&point);
                forged.push(outgoing);
            }
        }
        forged
    }
}

impl<P: SyncProcess> SyncProcess for Forging<P>
where
    P::Msg: ForgePoints,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn round(&mut self, round: usize, inbox: &[Delivery<Self::Msg>]) -> Vec<Outgoing<Self::Msg>> {
        let honest = self.inner.round(round, inbox);
        self.corrupt(honest, |_| round)
    }

    fn output(&self) -> Option<Self::Output> {
        // A Byzantine process's output is irrelevant to the problem statement.
        None
    }
}

impl<P: AsyncProcess> AsyncProcess for Forging<P>
where
    P::Msg: ForgePoints + RoundTagged,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self) -> Vec<Outgoing<Self::Msg>> {
        let honest = self.inner.on_start();
        self.corrupt(honest, RoundTagged::round)
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg) -> Vec<Outgoing<Self::Msg>> {
        let honest = self.inner.on_message(from, msg);
        self.corrupt(honest, RoundTagged::round)
    }

    fn output(&self) -> Option<Self::Output> {
        None
    }
}

/// A Byzantine participant of a state-exchange protocol (one round-tagged
/// state vector per message): reports a forged state to each process of
/// `recipients`, per `(round, receiver)`, for rounds `1..=rounds`, and
/// ignores everything it receives.  `make(round, state)` builds the
/// protocol's message.
///
/// Under [`SyncProcess`] it sends one round per executor call; under
/// [`AsyncProcess`] it sends all `rounds` up front (an aggressive but simple
/// adversary) and nothing after.
pub struct StateForger<M> {
    recipients: Vec<usize>,
    rounds: usize,
    forge: PointForge,
    make: fn(usize, Point) -> M,
}

impl<M> StateForger<M> {
    /// Creates the Byzantine process.  `recipients` is whom it talks to, in
    /// send order: every other process on a complete graph, its
    /// out-neighbors on a declared topology.
    pub fn new(
        recipients: Vec<usize>,
        rounds: usize,
        forge: PointForge,
        make: fn(usize, Point) -> M,
    ) -> Self {
        Self {
            recipients,
            rounds,
            forge,
            make,
        }
    }

    fn report(&mut self, round: usize, out: &mut Vec<Outgoing<M>>) {
        for &to in &self.recipients {
            if let Some(point) = self.forge.forge(round, to) {
                out.push(Outgoing::new(ProcessId::new(to), (self.make)(round, point)));
            }
        }
    }
}

impl<M: Clone> SyncProcess for StateForger<M> {
    type Msg = M;
    type Output = Point;

    fn round(&mut self, round: usize, _inbox: &[Delivery<M>]) -> Vec<Outgoing<M>> {
        let mut out = Vec::new();
        if round <= self.rounds {
            self.report(round, &mut out);
        }
        out
    }

    fn output(&self) -> Option<Point> {
        None
    }
}

impl<M: Clone> AsyncProcess for StateForger<M> {
    type Msg = M;
    type Output = Point;

    fn on_start(&mut self) -> Vec<Outgoing<M>> {
        let mut out = Vec::new();
        for round in 1..=self.rounds {
            self.report(round, &mut out);
        }
        out
    }

    fn on_message(&mut self, _from: ProcessId, _msg: M) -> Vec<Outgoing<M>> {
        Vec::new()
    }

    fn output(&self) -> Option<Point> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ByzantineStrategy;
    use bvc_net::broadcast_to_all;

    /// A simple honest process that broadcasts its id every round and never
    /// decides (enough to observe the wrappers' message-level effects).
    struct Chatter {
        id: ProcessId,
        n: usize,
    }

    impl SyncProcess for Chatter {
        type Msg = usize;
        type Output = usize;
        fn round(&mut self, _round: usize, _inbox: &[Delivery<usize>]) -> Vec<Outgoing<usize>> {
            broadcast_to_all(self.n, Some(self.id), &self.id.index())
        }
        fn output(&self) -> Option<usize> {
            Some(self.id.index())
        }
    }

    fn chatter() -> Chatter {
        Chatter {
            id: ProcessId::new(0),
            n: 4,
        }
    }

    #[test]
    fn crash_after_sync_silences_later_rounds() {
        let mut p = CrashAfterSync::new(chatter(), 2);
        assert_eq!(p.round(1, &[]).len(), 3);
        assert_eq!(p.round(2, &[]).len(), 3);
        assert_eq!(p.round(3, &[]).len(), 0);
        assert!(p.output().is_none());
    }

    #[test]
    fn silence_towards_drops_only_victims() {
        let mut p = SilenceTowardsSync::new(chatter(), vec![ProcessId::new(2)]);
        let out = p.round(1, &[]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|m| m.to != ProcessId::new(2)));
        assert_eq!(p.output(), Some(0));
    }

    #[test]
    fn duplicate_sync_doubles_traffic() {
        let mut p = DuplicateSync::new(chatter());
        assert_eq!(p.round(1, &[]).len(), 6);
    }

    /// The message of [`Reporter`]: one round-tagged point.
    #[derive(Debug, Clone, PartialEq)]
    struct Report {
        round: usize,
        point: Point,
    }

    impl ForgePoints for Report {
        fn forge_points(&mut self, point: &Point) {
            self.point = point.clone();
        }
    }

    impl RoundTagged for Report {
        fn round(&self) -> usize {
            self.round
        }
    }

    fn report(round: usize, point: Point) -> Report {
        Report { round, point }
    }

    /// An honest skeleton for the forging wrappers: tells everyone else its
    /// value, tagged with the executor round (sync) or with one more than
    /// the round of the message it reacts to (async; round 1 on start).
    struct Reporter {
        id: ProcessId,
        n: usize,
    }

    impl Reporter {
        fn tell_all(&self, round: usize) -> Vec<Outgoing<Report>> {
            broadcast_to_all(
                self.n,
                Some(self.id),
                &report(round, Point::new(vec![0.5, 0.5])),
            )
        }
    }

    impl SyncProcess for Reporter {
        type Msg = Report;
        type Output = Point;
        fn round(&mut self, round: usize, _inbox: &[Delivery<Report>]) -> Vec<Outgoing<Report>> {
            self.tell_all(round)
        }
        fn output(&self) -> Option<Point> {
            Some(Point::new(vec![0.5, 0.5]))
        }
        fn trace_state(&self) -> Option<Vec<f64>> {
            Some(vec![0.5, 0.5])
        }
    }

    impl AsyncProcess for Reporter {
        type Msg = Report;
        type Output = Point;
        fn on_start(&mut self) -> Vec<Outgoing<Report>> {
            self.tell_all(1)
        }
        fn on_message(&mut self, _from: ProcessId, msg: Report) -> Vec<Outgoing<Report>> {
            self.tell_all(msg.round + 1)
        }
        fn output(&self) -> Option<Point> {
            Some(Point::new(vec![0.5, 0.5]))
        }
    }

    fn reporter() -> Reporter {
        Reporter {
            id: ProcessId::new(3),
            n: 4,
        }
    }

    fn forge(strategy: ByzantineStrategy) -> PointForge {
        PointForge::new(strategy, 2, 0.0, 1.0, 7)
    }

    fn recipients(out: &[Outgoing<Report>]) -> Vec<usize> {
        out.iter().map(|m| m.to.index()).collect()
    }

    fn assert_receiver_distinct(out: &[Outgoing<Report>]) {
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                assert_ne!(a.msg.point, b.msg.point, "equivocation is per receiver");
            }
        }
    }

    #[test]
    fn silent_forgers_send_nothing_and_no_forger_ever_decides() {
        let mut p = Forging::new(reporter(), forge(ByzantineStrategy::Silent));
        assert!(SyncProcess::round(&mut p, 1, &[]).is_empty());
        assert!(p.on_start().is_empty());
        let from = ProcessId::new(0);
        assert!(p
            .on_message(from, report(1, Point::new(vec![0.0, 0.0])))
            .is_empty());
        // The inner skeleton decides and reports a state; the wrapper hides both.
        assert!(SyncProcess::output(&p).is_none());
        assert!(AsyncProcess::output(&p).is_none());
        assert!(p.trace_state().is_none());

        let mut s = StateForger::new(vec![0, 1, 2], 3, forge(ByzantineStrategy::Silent), report);
        assert!(SyncProcess::round(&mut s, 1, &[]).is_empty());
        assert!(s.on_start().is_empty());
        assert!(SyncProcess::output(&s).is_none());
        assert!(AsyncProcess::output(&s).is_none());
        assert!(s.trace_state().is_none());
    }

    #[test]
    fn forging_keeps_the_inner_schedule_and_forges_per_receiver() {
        for strategy in [
            ByzantineStrategy::Equivocate,
            ByzantineStrategy::FixedOutlier,
            ByzantineStrategy::AntiConvergence,
        ] {
            let honest = SyncProcess::round(&mut reporter(), 2, &[]);
            let mut p = Forging::new(reporter(), forge(strategy));
            let forged = SyncProcess::round(&mut p, 2, &[]);
            // Recipients, order and message shape are the inner schedule's.
            assert_eq!(recipients(&forged), recipients(&honest), "{strategy:?}");
            assert!(forged.iter().all(|m| m.msg.round == 2));
            // Every point is the forge's, drawn in send order.
            let mut reference = forge(strategy);
            for m in &forged {
                assert_eq!(
                    Some(&m.msg.point),
                    reference.forge(2, m.to.index()).as_ref()
                );
            }
            if strategy == ByzantineStrategy::Equivocate {
                assert_receiver_distinct(&forged);
            }
        }
    }

    #[test]
    fn forging_is_keyed_by_executor_round_when_sync_and_message_round_when_async() {
        // Crash(1) participates in round 1 only.
        let mut p = Forging::new(reporter(), forge(ByzantineStrategy::Crash(1)));
        assert_eq!(SyncProcess::round(&mut p, 1, &[]).len(), 3);
        assert!(SyncProcess::round(&mut p, 2, &[]).is_empty());

        let mut p = Forging::new(reporter(), forge(ByzantineStrategy::Crash(1)));
        assert_eq!(p.on_start().len(), 3, "start messages carry round 1");
        let from = ProcessId::new(0);
        let zero = Point::new(vec![0.0, 0.0]);
        // The reaction to a round-0 message is tagged round 1, to a round-1
        // message round 2: only the former is within the crash round.
        assert_eq!(p.on_message(from, report(0, zero.clone())).len(), 3);
        assert!(p.on_message(from, report(1, zero)).is_empty());
    }

    #[test]
    fn state_forger_sync_reports_one_round_per_call_to_its_recipient_list() {
        // The declared list is used as is (an out-neighbor list need not be
        // sorted or contiguous).
        let mut s = StateForger::new(vec![2, 0], 2, forge(ByzantineStrategy::Equivocate), report);
        for round in 1..=2 {
            let out = SyncProcess::round(&mut s, round, &[]);
            assert_eq!(recipients(&out), vec![2, 0]);
            assert!(out.iter().all(|m| m.msg.round == round));
            assert_receiver_distinct(&out);
        }
        assert!(
            SyncProcess::round(&mut s, 3, &[]).is_empty(),
            "past its rounds"
        );
    }

    #[test]
    fn state_forger_async_reports_every_round_up_front_and_nothing_after() {
        let mut s = StateForger::new(
            vec![0, 1, 2],
            4,
            forge(ByzantineStrategy::Equivocate),
            report,
        );
        let out = s.on_start();
        assert_eq!(out.len(), 4 * 3, "rounds × recipients");
        for (i, chunk) in out.chunks(3).enumerate() {
            assert_eq!(recipients(chunk), vec![0, 1, 2]);
            assert!(chunk.iter().all(|m| m.msg.round == i + 1));
        }
        assert_receiver_distinct(&out);
        let reply = report(1, Point::new(vec![0.0, 0.0]));
        assert!(s.on_message(ProcessId::new(0), reply).is_empty());

        // A crash strategy truncates the up-front schedule at its round.
        let mut s = StateForger::new(vec![0, 1, 2], 4, forge(ByzantineStrategy::Crash(2)), report);
        assert_eq!(s.on_start().len(), 2 * 3);
    }
}
