//! The round structure every iterative algorithm shares.
//!
//! Section 3.2 states an iteration once — obtain `B_i[t]`, apply Step 2 to
//! it, stop at the static round budget of Step 3 — and Section 4 (like
//! arXiv:1307.2483 on incomplete graphs) only redefines how `B_i[t]` is
//! obtained.  This module is that skeleton:
//!
//! * [`IterateCore`] is what is left of a process once its collection rule
//!   is taken away: the state `v_i[t]`, its history, the budget, the
//!   decision, the optional Γ cache, and `IterateCore::close_round` —
//!   Step 2's assignment, the history push and Step 3, in that order.
//!   [`ApproxBvcProcess`](crate::approx::ApproxBvcProcess) and
//!   [`RestrictedAsyncProcess`](crate::restricted::RestrictedAsyncProcess)
//!   embed it and keep only how they collect.
//! * [`StateExchangeProcess`] is the lock-step collection rule on top of it:
//!   send the state to a fixed recipient list, take the first round-`t`
//!   report of every sender, hand them to a Step-2 function.  Its two
//!   constructors are `restricted_sync` ([`crate::restricted`]) and
//!   `iterative` ([`crate::iterative`]).

use crate::config::BvcConfig;
use crate::restricted::StateMsg;
use bvc_geometry::{Point, SharedGammaCache};
use bvc_net::{Delivery, Outgoing, ProcessId, SyncProcess};
use std::collections::BTreeMap;

/// State, history, budget and decision of one honest iterative process.
pub struct IterateCore {
    pub(crate) config: BvcConfig,
    pub(crate) me: usize,
    history: Vec<Point>,
    budget: usize,
    decision: Option<Point>,
    /// The run's Γ cache: Step 2 asks every Γ point through it.
    pub(crate) gamma_cache: SharedGammaCache,
}

impl IterateCore {
    /// The core of process `me` starting from `input`, deciding when round
    /// `budget` closes, asking Γ through `gamma_cache`.
    ///
    /// # Panics
    ///
    /// Panics if `me >= config.n` or `input.dim() != config.d`.
    pub(crate) fn new(
        config: BvcConfig,
        me: usize,
        input: Point,
        budget: usize,
        gamma_cache: SharedGammaCache,
    ) -> Self {
        assert!(me < config.n, "process index {me} out of range");
        assert_eq!(input.dim(), config.d, "input dimension must equal config.d");
        Self {
            history: vec![input],
            config,
            me,
            budget,
            decision: None,
            gamma_cache,
        }
    }

    /// The complete-graph algorithms are stated for at least one fault:
    /// panics if `config.f == 0`.
    pub(crate) fn requiring_a_fault(self, who: &str) -> Self {
        assert!(self.config.f >= 1, "{who} requires f >= 1");
        self
    }

    /// The current state `v_i[t]`: the last recorded one.
    pub(crate) fn state(&self) -> &Point {
        self.history.last().expect("history holds the input")
    }

    /// Per-round states (`history()[t]` is `v_i[t]`, index 0 the input).
    pub fn history(&self) -> &[Point] {
        &self.history
    }

    /// The static round budget of Step 3.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The decision: the state at the close of round `budget`.
    pub fn decision(&self) -> Option<&Point> {
        self.decision.as_ref()
    }

    /// Closes round `round`: Step 2 assigns `next` (`None` keeps the state —
    /// the safe no-op of a round whose collection fell short), the state is
    /// recorded, and Step 3 decides it once the budget is reached.  Returns
    /// whether the process has decided.
    pub(crate) fn close_round(&mut self, round: usize, next: Option<Point>) -> bool {
        let state = next.unwrap_or_else(|| self.state().clone());
        if round >= self.budget {
            self.decision = Some(state.clone());
        }
        self.history.push(state);
        self.decision.is_some()
    }
}

/// Step 2 of a lock-step process: the new state from the core (own state,
/// `n`, `f`, Γ cache) and the round's reports — one per sender, own state
/// included, in sender order — or `None` to keep the state.
pub(crate) type Step2 = fn(&IterateCore, &[&Point]) -> Option<Point>;

/// Honest process of the lock-step state exchange: in every round up to the
/// budget it sends its state to its recipients, and in the next round it
/// applies Step 2 to what came back.
pub struct StateExchangeProcess {
    core: IterateCore,
    recipients: Vec<usize>,
    step2: Step2,
}

impl StateExchangeProcess {
    pub(crate) fn new(core: IterateCore, recipients: Vec<usize>, step2: Step2) -> Self {
        Self {
            core,
            recipients,
            step2,
        }
    }

    /// State, history, budget and decision.
    pub fn core(&self) -> &IterateCore {
        &self.core
    }
}

impl SyncProcess for StateExchangeProcess {
    type Msg = StateMsg;
    type Output = Point;

    fn round(&mut self, round: usize, inbox: &[Delivery<StateMsg>]) -> Vec<Outgoing<StateMsg>> {
        let core = &mut self.core;
        // The inbox holds the states sent in round `round − 1`: at most one
        // per sender (first wins), of that round and of dimension `d`.
        if round >= 2 && round <= core.budget + 1 {
            let mut reports: BTreeMap<usize, &Point> = BTreeMap::new();
            for delivery in inbox {
                if delivery.msg.round == round - 1 && delivery.msg.state.dim() == core.config.d {
                    reports
                        .entry(delivery.from.index())
                        .or_insert(&delivery.msg.state);
                }
            }
            reports.insert(core.me, core.state());
            let reports: Vec<&Point> = reports.into_values().collect();
            let next = (self.step2)(core, &reports);
            core.close_round(round - 1, next);
        }
        if round > core.budget {
            return Vec::new();
        }
        let msg = StateMsg::new(round, core.state().clone());
        let to = |&to| Outgoing::new(ProcessId::new(to), msg.clone());
        self.recipients.iter().map(to).collect()
    }

    fn output(&self) -> Option<Point> {
        self.core.decision.clone()
    }

    fn trace_state(&self) -> Option<Vec<f64>> {
        Some(self.core.state().coords().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{ApproxBvcProcess, UpdateRule};
    use crate::restricted::RestrictedAsyncProcess;
    use bvc_geometry::GammaCache;
    use bvc_net::AsyncProcess;
    use bvc_topology::Topology;
    use std::collections::VecDeque;

    /// n = 4, f = 1, d = 1: at both resilience bounds, small budget.
    fn config() -> BvcConfig {
        BvcConfig::new(4, 1, 1).unwrap().with_epsilon(0.2).unwrap()
    }

    type Build = fn(BvcConfig, Point) -> StateExchangeProcess;

    /// The two constructors of the lock-step process, as process 0 of `K_4`.
    fn constructors() -> [(&'static str, Build); 2] {
        [
            ("restricted_sync", |config, input| {
                StateExchangeProcess::restricted_sync(config, 0, input, GammaCache::shared())
            }),
            ("iterative", |config, input| {
                let k4 = Topology::complete(4);
                StateExchangeProcess::iterative(config, 0, input, &k4, GammaCache::shared())
            }),
        ]
    }

    fn report(from: usize, round: usize, coords: &[f64]) -> Delivery<StateMsg> {
        let msg = StateMsg::new(round, Point::new(coords.to_vec()));
        Delivery::new(ProcessId::new(from), msg)
    }

    /// `v_0[1]` of a process started at 0.5 whose round-1 inbox is `inbox`.
    fn state_after(build: Build, inbox: &[Delivery<StateMsg>]) -> Point {
        let mut process = build(config(), Point::new(vec![0.5]));
        let sent = process.round(1, &[]);
        assert_eq!(sent.len(), 3, "round 1 goes to every recipient");
        process.round(2, inbox);
        let history = process.core().history();
        assert_eq!(history.len(), 2, "a closed round is recorded");
        history[1].clone()
    }

    #[test]
    fn collection_takes_the_first_round_t_report_of_each_sender() {
        let clean = [
            report(1, 1, &[0.0]),
            report(2, 1, &[0.1]),
            report(3, 1, &[0.2]),
        ];
        let second_from_sender_1 = report(1, 1, &[0.9]);
        let of_another_round = report(3, 2, &[0.9]);
        let of_another_dimension = report(3, 1, &[0.9, 0.9]);
        // (what the inbox holds, the inbox it has to be equivalent to)
        let table = [
            (
                "two reports from one sender: first wins",
                vec![
                    clean[0].clone(),
                    second_from_sender_1.clone(),
                    clean[1].clone(),
                    clean[2].clone(),
                ],
                &clean[..],
            ),
            (
                "a report tagged with another round is not of this round",
                vec![
                    clean[0].clone(),
                    clean[1].clone(),
                    of_another_round.clone(),
                    clean[2].clone(),
                ],
                &clean[..],
            ),
            (
                "a report of the wrong dimension is no report",
                vec![
                    clean[0].clone(),
                    clean[1].clone(),
                    of_another_dimension.clone(),
                ],
                &clean[..2],
            ),
        ];
        for (name, build) in constructors() {
            let input = Point::new(vec![0.5]);
            let moved = state_after(build, &clean);
            assert_ne!(moved, input, "{name}: the clean inbox moves the state");
            // Were the second report or the stray ones counted, the state
            // would differ: they all sit at 0.9, far from the clean values.
            let last_wins = [
                second_from_sender_1.clone(),
                clean[1].clone(),
                clean[2].clone(),
            ];
            assert_ne!(state_after(build, &last_wins), moved, "{name}");
            for (case, inbox, same_as) in &table {
                let got = state_after(build, inbox);
                assert_eq!(got, state_after(build, same_as), "{name}: {case}");
            }
        }
    }

    #[test]
    fn a_round_that_collects_too_little_keeps_the_state_and_is_recorded() {
        let input = Point::new(vec![0.5]);
        // RestrictedSync: own state + one report < n − f = 3.
        let [(_, restricted_sync), (_, iterative)] = constructors();
        let below_quorum = [report(1, 1, &[0.0]), report(1, 1, &[0.1])];
        assert_eq!(state_after(restricted_sync, &below_quorum), input);
        // Iterative: with nothing admissible, own state alone is |Y| = 1 ≤ f.
        let strays = [report(2, 3, &[0.0]), report(3, 1, &[0.0, 0.0])];
        assert_eq!(state_after(iterative, &strays), input);
    }

    /// Step 3, as every process must show it: the decision appears exactly
    /// when round `budget` closes, and is the last recorded state.
    fn assert_decides_at_the_budget(core: &IterateCore) {
        let closed = core.history().len() - 1;
        assert!(closed <= core.budget(), "no round closes past the budget");
        assert_eq!(core.decision().is_some(), closed == core.budget());
        if let Some(decision) = core.decision() {
            assert_eq!(Some(decision), core.history().last());
        }
    }

    #[test]
    fn lock_step_processes_decide_exactly_when_the_budget_round_closes() {
        for (name, build) in constructors() {
            let mut process = build(config(), Point::new(vec![0.5]));
            let budget = process.core().budget();
            assert!(budget >= 2, "{name}: the budget is worth iterating over");
            for round in 1..=budget + 3 {
                let sent = process.round(round, &[]);
                assert_eq!(sent.is_empty(), round > budget, "{name}: round {round}");
                assert_decides_at_the_budget(process.core());
                assert_eq!(process.core().history().len(), round.min(budget + 1));
                assert_eq!(process.output().as_ref(), process.core().decision());
            }
        }
    }

    /// Runs all-honest `processes` to quiescence over FIFO delivery,
    /// checking Step 3 on the receiver after every step.
    fn run_checked<P: AsyncProcess>(mut processes: Vec<P>, core: fn(&P) -> &IterateCore)
    where
        P::Msg: Clone,
    {
        let mut queue = VecDeque::new();
        for (from, process) in processes.iter_mut().enumerate() {
            queue.extend(process.on_start().into_iter().map(|out| (from, out)));
            assert_decides_at_the_budget(core(process));
        }
        while let Some((from, out)) = queue.pop_front() {
            let to = out.to.index();
            let replies = processes[to].on_message(ProcessId::new(from), out.msg);
            queue.extend(replies.into_iter().map(|out| (to, out)));
            assert_decides_at_the_budget(core(&processes[to]));
        }
        for process in &processes {
            let core = core(process);
            assert_eq!(core.history().len(), core.budget() + 1);
            assert!(process.output().is_some());
        }
    }

    #[test]
    fn asynchronous_processes_decide_exactly_when_the_budget_round_closes() {
        let inputs = |n: usize| (0..n).map(move |i| Point::new(vec![i as f64 / n as f64]));
        let cache = GammaCache::shared();
        let rule = UpdateRule::WitnessOptimized;
        let approx = inputs(4)
            .enumerate()
            .map(|(i, input)| ApproxBvcProcess::new(config(), i, input, rule, cache.clone()));
        run_checked(approx.collect(), ApproxBvcProcess::core);
        // n ≥ (d + 4)f + 1 = 6.
        let config = BvcConfig::new(6, 1, 1).unwrap().with_epsilon(0.2).unwrap();
        let restricted = inputs(6)
            .enumerate()
            .map(|(i, input)| RestrictedAsyncProcess::new(config.clone(), i, input, cache.clone()));
        run_checked(restricted.collect(), RestrictedAsyncProcess::core);
    }
}
