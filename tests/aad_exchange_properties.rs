//! Integration tests: the AAD-style exchange (Component #1) delivers
//! Properties 1–3 when driven by the adversarially scheduled asynchronous
//! executor, with Byzantine participants forging and equivocating — not just
//! under the simple FIFO queue used by the unit tests.

use bvc::adversary::{ByzantineStrategy, ForgePoints, PointForge};
use bvc::broadcast::RbMessage;
use bvc::core::{AadExchange, AadMsg, CompletedExchange};
use bvc::geometry::Point;
use bvc::net::{broadcast_to_all, AsyncNetwork, AsyncProcess, DeliveryPolicy, Outgoing, ProcessId};

/// A process that runs exactly one exchange round and outputs the completed
/// B-set snapshot.
struct OneRound {
    me: usize,
    n: usize,
    exchange: Option<AadExchange>,
    value: Point,
    f: usize,
}

impl OneRound {
    fn new(n: usize, f: usize, me: usize, value: Point) -> Self {
        Self {
            me,
            n,
            exchange: None,
            value,
            f,
        }
    }

    fn fan_out(&self, msgs: Vec<AadMsg>) -> Vec<Outgoing<AadMsg>> {
        msgs.into_iter()
            .flat_map(|m| broadcast_to_all(self.n, Some(ProcessId::new(self.me)), &m))
            .collect()
    }
}

impl AsyncProcess for OneRound {
    type Msg = AadMsg;
    type Output = CompletedExchange;

    fn on_start(&mut self) -> Vec<Outgoing<AadMsg>> {
        let (exchange, msgs) = AadExchange::start(self.n, self.f, self.me, 1, self.value.clone());
        self.exchange = Some(exchange);
        self.fan_out(msgs)
    }

    fn on_message(&mut self, from: ProcessId, msg: AadMsg) -> Vec<Outgoing<AadMsg>> {
        let Some(exchange) = self.exchange.as_mut() else {
            return Vec::new();
        };
        let out = exchange.handle(from.index(), &msg);
        self.fan_out(out)
    }

    fn output(&self) -> Option<CompletedExchange> {
        self.exchange.as_ref().and_then(|e| e.completed().cloned())
    }
}

/// A Byzantine participant that runs the exchange skeleton but forges every
/// point per receiver.
struct ByzantineOneRound {
    inner: OneRound,
    forge: PointForge,
}

impl AsyncProcess for ByzantineOneRound {
    type Msg = AadMsg;
    type Output = CompletedExchange;

    fn on_start(&mut self) -> Vec<Outgoing<AadMsg>> {
        let honest = self.inner.on_start();
        self.corrupt(honest)
    }

    fn on_message(&mut self, from: ProcessId, msg: AadMsg) -> Vec<Outgoing<AadMsg>> {
        let honest = self.inner.on_message(from, msg);
        self.corrupt(honest)
    }

    fn output(&self) -> Option<CompletedExchange> {
        None
    }
}

impl ByzantineOneRound {
    fn corrupt(&mut self, outgoing: Vec<Outgoing<AadMsg>>) -> Vec<Outgoing<AadMsg>> {
        let mut forged = Vec::new();
        for mut out in outgoing {
            if let Some(p) = self.forge.forge(1, out.to.index()) {
                out.msg.forge_points(&p);
                forged.push(out);
            }
        }
        forged
    }
}

fn run_one_round(
    n: usize,
    f: usize,
    strategy: ByzantineStrategy,
    policy: DeliveryPolicy,
    seed: u64,
) -> Vec<CompletedExchange> {
    let honest_count = n - f;
    let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = CompletedExchange>>> =
        Vec::new();
    for i in 0..honest_count {
        processes.push(Box::new(OneRound::new(
            n,
            f,
            i,
            Point::new(vec![i as f64 / honest_count as f64]),
        )));
    }
    for b in 0..f {
        let me = honest_count + b;
        let mut forge = PointForge::new(strategy, 1, 0.0, 1.0, seed + b as u64);
        forge.set_honest_value(Point::new(vec![0.5]));
        processes.push(Box::new(ByzantineOneRound {
            inner: OneRound::new(n, f, me, Point::new(vec![0.5])),
            forge,
        }));
    }
    let honest: Vec<usize> = (0..honest_count).collect();
    let outcome = AsyncNetwork::new(processes, policy, seed, 500_000).run(&honest);
    assert!(
        outcome.completed,
        "every honest process must finish the exchange"
    );
    honest
        .iter()
        .map(|&i| outcome.outputs[i].clone().expect("completed exchange"))
        .collect()
}

fn check_properties(results: &[CompletedExchange], n: usize, f: usize, honest_count: usize) {
    let quorum = n - f;
    for (i, done) in results.iter().enumerate() {
        // |B_i| ≥ n − f.
        assert!(done.entries.len() >= quorum, "process {i}: |B| too small");
        // Property 2: at most one tuple per origin.
        let mut origins: Vec<usize> = done.entries.iter().map(|(p, _)| *p).collect();
        origins.sort_unstable();
        origins.dedup();
        assert_eq!(
            origins.len(),
            done.entries.len(),
            "process {i}: duplicate origins"
        );
        // Property 3: honest tuples carry true values.
        for (origin, value) in &done.entries {
            if *origin < honest_count {
                let expected = *origin as f64 / honest_count as f64;
                assert!(
                    (value.coord(0) - expected).abs() < 1e-12,
                    "process {i}: tuple for honest origin {origin} is {value}, expected {expected}"
                );
            }
        }
    }
    // Property 1: any two honest processes share at least n − f identical tuples.
    for i in 0..results.len() {
        for j in (i + 1)..results.len() {
            let common = results[i]
                .entries
                .iter()
                .filter(|(p, v)| {
                    results[j]
                        .entries
                        .iter()
                        .any(|(q, w)| q == p && w.approx_eq(v, 1e-12))
                })
                .count();
            assert!(
                common >= quorum,
                "processes {i} and {j} share only {common} tuples (need {quorum})"
            );
        }
    }
}

#[test]
fn properties_hold_under_random_scheduling_and_equivocation() {
    let (n, f) = (4, 1);
    let results = run_one_round(
        n,
        f,
        ByzantineStrategy::Equivocate,
        DeliveryPolicy::RandomFair,
        3,
    );
    check_properties(&results, n, f, n - f);
}

#[test]
fn properties_hold_with_two_byzantine_processes() {
    let (n, f) = (7, 2);
    let results = run_one_round(
        n,
        f,
        ByzantineStrategy::RandomNoise,
        DeliveryPolicy::RandomFair,
        11,
    );
    check_properties(&results, n, f, n - f);
}

#[test]
fn properties_hold_when_byzantine_processes_stay_silent() {
    let (n, f) = (4, 1);
    let results = run_one_round(
        n,
        f,
        ByzantineStrategy::Silent,
        DeliveryPolicy::RoundRobin,
        5,
    );
    check_properties(&results, n, f, n - f);
}

#[test]
fn properties_hold_under_delayed_scheduling() {
    let (n, f) = (5, 1);
    let results = run_one_round(
        n,
        f,
        ByzantineStrategy::AntiConvergence,
        DeliveryPolicy::DelayFrom(vec![ProcessId::new(0)]),
        17,
    );
    check_properties(&results, n, f, n - f);
}

#[test]
fn witness_sets_are_quorum_sized_and_verified() {
    let (n, f) = (5, 1);
    let results = run_one_round(
        n,
        f,
        ByzantineStrategy::Equivocate,
        DeliveryPolicy::RandomFair,
        23,
    );
    for done in &results {
        assert!(!done.witness_sets.is_empty());
        for set in &done.witness_sets {
            assert_eq!(set.len(), n - f);
            // Every advertised tuple must be present in the owner's B set
            // with the identical value (that is what made the reporter a
            // witness).
            for (origin, value) in set {
                assert!(done
                    .entries
                    .iter()
                    .any(|(p, v)| p == origin && v.approx_eq(value, 1e-12)));
            }
        }
    }
}

/// A Byzantine process that opens a reliable broadcast in an honest
/// process's name: at start it sends `Init(forged)` for `origin` to
/// `victims`, then echoes and readies the forged value to everyone, and is
/// silent afterwards.
struct Impersonator {
    n: usize,
    origin: usize,
    victims: Vec<usize>,
    forged: Point,
}

impl AsyncProcess for Impersonator {
    type Msg = AadMsg;
    type Output = CompletedExchange;

    fn on_start(&mut self) -> Vec<Outgoing<AadMsg>> {
        let rb = |inner| AadMsg::Rb {
            round: 1,
            origin: self.origin,
            inner,
        };
        let mut out: Vec<Outgoing<AadMsg>> = (self.victims.iter())
            .map(|&to| Outgoing::new(ProcessId::new(to), rb(RbMessage::Init(self.forged.clone()))))
            .collect();
        for inner in [
            RbMessage::Echo(self.forged.clone()),
            RbMessage::Ready(self.forged.clone()),
        ] {
            out.extend(broadcast_to_all(
                self.n,
                Some(ProcessId::new(self.n - 1)),
                &rb(inner),
            ));
        }
        out
    }

    fn on_message(&mut self, _from: ProcessId, _msg: AadMsg) -> Vec<Outgoing<AadMsg>> {
        Vec::new()
    }

    fn output(&self) -> Option<CompletedExchange> {
        None
    }
}

#[test]
fn property_3_holds_when_a_byzantine_process_impersonates_an_honest_origin() {
    // n = 4, f = 1: process 3 sends Init([9.0]) for origin 1 to processes 0
    // and 2, then echoes and readies it; the schedule delivers all of that
    // ahead of the honest start messages.  Only origin 1 may open its own
    // broadcast, so every honest process must still hold origin 1's true
    // value (or no tuple for it).
    let (n, f) = (4, 1);
    let honest_count = n - f;
    let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = CompletedExchange>>> = (0
        ..honest_count)
        .map(|i| {
            let value = Point::new(vec![i as f64 / honest_count as f64]);
            Box::new(OneRound::new(n, f, i, value))
                as Box<dyn AsyncProcess<Msg = AadMsg, Output = CompletedExchange>>
        })
        .collect();
    processes.push(Box::new(Impersonator {
        n,
        origin: 1,
        victims: vec![0, 2],
        forged: Point::new(vec![9.0]),
    }));
    let honest: Vec<usize> = (0..honest_count).collect();
    let slow = honest.iter().copied().map(ProcessId::new).collect();
    let outcome =
        AsyncNetwork::new(processes, DeliveryPolicy::DelayFrom(slow), 1, 10_000).run(&honest);
    assert!(
        outcome.completed,
        "every honest process must finish the exchange"
    );
    let results: Vec<CompletedExchange> = (outcome.outputs.into_iter().take(honest_count))
        .map(|done| done.expect("completed exchange"))
        .collect();
    check_properties(&results, n, f, honest_count);
}
