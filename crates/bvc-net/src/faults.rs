//! Injected network faults, layered over the delivery policies.
//!
//! The paper's model assumes **reliable FIFO channels**; everything the four
//! algorithms guarantee is proved under that assumption.  Real deployments —
//! and the follow-up literature (iterative BVC in *incomplete* graphs,
//! relaxed-validity BVC) — care about what happens beyond it.  This module
//! lets a scenario script faults on top of either executor:
//!
//! * [`FaultKind::Drop`] — messages sent on covered links while the fault is
//!   active are destroyed with a given probability (omission faults; this is
//!   the one fault kind that genuinely breaks the reliable-channel
//!   assumption, so protocol guarantees may fail and the verdict records it).
//! * [`FaultKind::Latency`] — messages sent on covered links while active
//!   become deliverable only `extra` scheduler ticks (asynchronous executor)
//!   or rounds (synchronous executor) after they were sent.
//! * [`FaultKind::Partition`] — links between different groups are blocked
//!   while active; queued messages are **not** lost, they wait for the heal
//!   (per-link FIFO order is preserved throughout).
//!
//! # Fairness contract
//!
//! The asynchronous executor promises that every sent message is eventually
//! delivered (unless a drop fault destroyed it).  To keep that promise every
//! fault must expire: [`FaultPlan::push`] rejects events whose activity
//! window does not fit in a `usize` ([`FaultError::NeverExpires`]), and the
//! executor budgets extra scheduler ticks past the step cap so that a stalled
//! execution survives until [`FaultPlan::quiescent_at`], after which every
//! channel is eligible again and the ordinary fairness argument applies.  The
//! fairness regression test in this module's test suite pins that behaviour.

use crate::process::ProcessId;

/// Which directed links of the complete graph a fault covers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkSelector {
    /// Every link.
    All,
    /// Links whose sender is one of the listed processes.
    From(Vec<ProcessId>),
    /// Links whose receiver is one of the listed processes.
    To(Vec<ProcessId>),
    /// Only the directed links sender-set → receiver-set (the reverse
    /// direction is *not* covered).
    Directed(Vec<ProcessId>, Vec<ProcessId>),
}

impl LinkSelector {
    /// Whether the directed link `from → to` is covered.
    pub fn covers(&self, from: usize, to: usize) -> bool {
        let has = |set: &[ProcessId], i: usize| set.iter().any(|p| p.index() == i);
        match self {
            LinkSelector::All => true,
            LinkSelector::From(senders) => has(senders, from),
            LinkSelector::To(receivers) => has(receivers, to),
            LinkSelector::Directed(senders, receivers) => has(senders, from) && has(receivers, to),
        }
    }
}

/// One kind of injectable network fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Destroy messages sent on covered links with probability `rate`.
    Drop {
        /// Probability in `[0, 1]` that a covered message is destroyed.
        rate: f64,
        /// Links the fault covers.
        links: LinkSelector,
    },
    /// Delay messages sent on covered links by `extra` ticks/rounds.
    Latency {
        /// Additional delivery delay, in scheduler ticks (async) or rounds
        /// (sync).
        extra: usize,
        /// Links the fault covers.
        links: LinkSelector,
    },
    /// Block links between different groups; unlisted processes form one
    /// implicit extra group.
    Partition {
        /// The explicit groups of the partition.
        groups: Vec<Vec<ProcessId>>,
    },
}

impl FaultKind {
    /// A short stable name for reports ("drop", "latency", "partition").
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop { .. } => "drop",
            FaultKind::Latency { .. } => "latency",
            FaultKind::Partition { .. } => "partition",
        }
    }
}

/// A fault with its activity window `[start, start + duration)`, measured in
/// scheduler ticks (asynchronous executor) or rounds (synchronous executor).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// What the fault does while active.
    pub kind: FaultKind,
    /// First tick/round at which the fault is active.
    pub start: usize,
    /// Length of the activity window; must be positive and finite (see the
    /// module-level fairness contract).
    pub duration: usize,
}

impl FaultEvent {
    /// Whether the fault is active at the given tick/round.
    pub fn active_at(&self, time: usize) -> bool {
        time >= self.start && time - self.start < self.duration
    }

    /// First tick/round at which the fault is guaranteed inactive.
    pub fn end(&self) -> usize {
        // Validated at plan construction: start + duration never overflows.
        self.start + self.duration
    }
}

/// Why a fault event was rejected by [`FaultPlan::push`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A drop probability was outside `[0, 1]` or not finite.
    InvalidRate(f64),
    /// The event's activity window does not terminate (zero would be a no-op
    /// and an end beyond `usize::MAX` never expires, starving channels
    /// forever and breaking the async fairness contract).
    NeverExpires {
        /// The offending start.
        start: usize,
        /// The offending duration.
        duration: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidRate(rate) => {
                write!(f, "drop rate must be a probability in [0, 1], got {rate}")
            }
            FaultError::NeverExpires { start, duration } => write!(
                f,
                "fault window [{start}, {start} + {duration}) must be positive and finite \
                 so the fairness contract holds"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// A validated schedule of network faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event after validating it (see [`FaultError`]).
    ///
    /// # Errors
    ///
    /// Rejects non-probability drop rates and activity windows that are empty
    /// or never expire.
    pub fn push(&mut self, event: FaultEvent) -> Result<(), FaultError> {
        if event.duration == 0 || event.start.checked_add(event.duration).is_none() {
            return Err(FaultError::NeverExpires {
                start: event.start,
                duration: event.duration,
            });
        }
        if let FaultKind::Drop { rate, .. } = &event.kind {
            if !rate.is_finite() || !(0.0..=1.0).contains(rate) {
                return Err(FaultError::InvalidRate(*rate));
            }
        }
        self.events.push(event);
        Ok(())
    }

    /// Builder-style [`push`](Self::push).
    ///
    /// # Errors
    ///
    /// Same as [`push`](Self::push).
    pub fn with_event(mut self, event: FaultEvent) -> Result<Self, FaultError> {
        self.push(event)?;
        Ok(self)
    }

    /// The validated events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// First tick/round by which every fault has expired **and** every
    /// latency-delayed message has come due — the horizon after which the
    /// unfaulted fairness argument applies unchanged.
    pub fn quiescent_at(&self) -> usize {
        self.events
            .iter()
            .map(|e| match &e.kind {
                FaultKind::Latency { extra, .. } => e.end().saturating_add(*extra),
                _ => e.end(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Combined probability that a message sent on `from → to` at `time` is
    /// destroyed (independent drop faults compose as `1 − Π(1 − rateᵢ)`).
    pub fn drop_probability(&self, time: usize, from: usize, to: usize) -> f64 {
        let mut keep = 1.0;
        for event in &self.events {
            if let FaultKind::Drop { rate, links } = &event.kind {
                if event.active_at(time) && links.covers(from, to) {
                    keep *= 1.0 - rate;
                }
            }
        }
        1.0 - keep
    }

    /// Extra delivery delay for a message sent on `from → to` at `time`
    /// (maximum over active latency faults covering the link).
    pub fn extra_latency(&self, time: usize, from: usize, to: usize) -> usize {
        self.events
            .iter()
            .filter_map(|event| match &event.kind {
                FaultKind::Latency { extra, links }
                    if event.active_at(time) && links.covers(from, to) =>
                {
                    Some(*extra)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether an active partition blocks the link `from → to` at `time`.
    pub fn blocked(&self, time: usize, from: usize, to: usize) -> bool {
        self.events.iter().any(|event| match &event.kind {
            FaultKind::Partition { groups } if event.active_at(time) => {
                group_of(groups, from) != group_of(groups, to)
            }
            _ => false,
        })
    }
}

/// Index of the partition group containing process `i`; unlisted processes
/// share the implicit group `groups.len()`.
fn group_of(groups: &[Vec<ProcessId>], i: usize) -> usize {
    groups
        .iter()
        .position(|g| g.iter().any(|p| p.index() == i))
        .unwrap_or(groups.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[usize]) -> Vec<ProcessId> {
        indices.iter().copied().map(ProcessId::new).collect()
    }

    #[test]
    fn selectors_cover_the_right_links() {
        assert!(LinkSelector::All.covers(0, 1));
        let from = LinkSelector::From(ids(&[2]));
        assert!(from.covers(2, 0) && !from.covers(0, 2));
        let to = LinkSelector::To(ids(&[1]));
        assert!(to.covers(0, 1) && !to.covers(1, 0));
        let directed = LinkSelector::Directed(ids(&[0]), ids(&[3]));
        assert!(directed.covers(0, 3));
        assert!(
            !directed.covers(3, 0),
            "Directed must not cover the reverse link"
        );
        assert!(!directed.covers(0, 1));
    }

    #[test]
    fn activity_windows_are_half_open() {
        let event = FaultEvent {
            kind: FaultKind::Partition {
                groups: vec![ids(&[0])],
            },
            start: 10,
            duration: 5,
        };
        assert!(!event.active_at(9));
        assert!(event.active_at(10));
        assert!(event.active_at(14));
        assert!(!event.active_at(15));
        assert_eq!(event.end(), 15);
    }

    #[test]
    fn plan_rejects_never_expiring_windows() {
        let mut plan = FaultPlan::new();
        let zero = FaultEvent {
            kind: FaultKind::Latency {
                extra: 1,
                links: LinkSelector::All,
            },
            start: 0,
            duration: 0,
        };
        assert!(matches!(
            plan.push(zero),
            Err(FaultError::NeverExpires { .. })
        ));
        let overflow = FaultEvent {
            kind: FaultKind::Partition {
                groups: vec![ids(&[0])],
            },
            start: 1,
            duration: usize::MAX,
        };
        assert!(matches!(
            plan.push(overflow),
            Err(FaultError::NeverExpires { .. })
        ));
        assert!(plan.is_empty());
    }

    #[test]
    fn plan_rejects_bad_drop_rates() {
        for rate in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let event = FaultEvent {
                kind: FaultKind::Drop {
                    rate,
                    links: LinkSelector::All,
                },
                start: 0,
                duration: 10,
            };
            assert!(matches!(
                FaultPlan::new().with_event(event),
                Err(FaultError::InvalidRate(_))
            ));
        }
    }

    #[test]
    fn quiescence_accounts_for_latency_tails() {
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Partition {
                    groups: vec![ids(&[0])],
                },
                start: 0,
                duration: 50,
            })
            .unwrap()
            .with_event(FaultEvent {
                kind: FaultKind::Latency {
                    extra: 30,
                    links: LinkSelector::All,
                },
                start: 10,
                duration: 20,
            })
            .unwrap();
        // Latency fault ends at 30 but a message sent at tick 29 is due at 59;
        // the partition ends at 50; quiescence is max(50, 30 + 30) = 60.
        assert_eq!(plan.quiescent_at(), 60);
    }

    #[test]
    fn drop_probabilities_compose() {
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Drop {
                    rate: 0.5,
                    links: LinkSelector::All,
                },
                start: 0,
                duration: 100,
            })
            .unwrap()
            .with_event(FaultEvent {
                kind: FaultKind::Drop {
                    rate: 0.5,
                    links: LinkSelector::From(ids(&[1])),
                },
                start: 0,
                duration: 100,
            })
            .unwrap();
        assert!((plan.drop_probability(5, 0, 1) - 0.5).abs() < 1e-12);
        assert!((plan.drop_probability(5, 1, 0) - 0.75).abs() < 1e-12);
        assert_eq!(plan.drop_probability(100, 1, 0), 0.0);
    }

    #[test]
    fn partitions_block_across_groups_only() {
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Partition {
                    groups: vec![ids(&[0, 1])],
                },
                start: 0,
                duration: 10,
            })
            .unwrap();
        // {0, 1} vs the implicit rest-group {2, 3, ...}.
        assert!(plan.blocked(0, 0, 2));
        assert!(plan.blocked(0, 2, 1));
        assert!(!plan.blocked(0, 0, 1));
        assert!(!plan.blocked(0, 2, 3));
        assert!(!plan.blocked(10, 0, 2));
    }

    #[test]
    fn latency_takes_the_max_of_active_faults() {
        let plan = FaultPlan::new()
            .with_event(FaultEvent {
                kind: FaultKind::Latency {
                    extra: 5,
                    links: LinkSelector::All,
                },
                start: 0,
                duration: 100,
            })
            .unwrap()
            .with_event(FaultEvent {
                kind: FaultKind::Latency {
                    extra: 20,
                    links: LinkSelector::To(ids(&[2])),
                },
                start: 0,
                duration: 100,
            })
            .unwrap();
        assert_eq!(plan.extra_latency(0, 0, 1), 5);
        assert_eq!(plan.extra_latency(0, 0, 2), 20);
        assert_eq!(plan.extra_latency(200, 0, 2), 0);
    }
}
