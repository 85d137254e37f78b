//! Byzantine fault strategies.
//!
//! The paper's fault model is the strongest one: up to `f` processes "may
//! behave arbitrarily" (Section 1, citing Lamport–Shostak–Pease).  Arbitrary
//! behaviour cannot be enumerated, so this crate provides a library of
//! *representative attack strategies* that stress the specific properties the
//! algorithms must defend:
//!
//! * attacks on **validity** — report points far outside the honest hull and
//!   try to drag the decision out of it;
//! * attacks on **agreement / ε-agreement** — tell different processes
//!   different things (equivocation), or push opposite extremes to different
//!   receivers to keep the honest states spread apart;
//! * attacks on **termination / liveness** — crash, stay silent, or stop
//!   participating halfway through.
//!
//! [`ByzantineStrategy`] names the attack; [`PointForge`] turns a strategy
//! into concrete forged points, deterministically from a seed, so that every
//! experiment and test is reproducible.

use bvc_geometry::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named Byzantine attack strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByzantineStrategy {
    /// Participate correctly for a while, then stop sending anything
    /// (crash-stop).  The embedded value is the last round in which the
    /// process participates; `0` means it never sends at all.
    Crash(usize),
    /// Never send any message (equivalent to `Crash(0)`, provided separately
    /// because it is the adversary used in several necessity arguments).
    Silent,
    /// Always report one fixed point far outside the honest inputs' bounding
    /// box (a validity attack).
    FixedOutlier,
    /// Report uniformly random points from an inflated box (a fuzzing-style
    /// attack on both validity and convergence).
    RandomNoise,
    /// Report different values to different receivers (equivocation), drawn
    /// at random per receiver.
    Equivocate,
    /// Report opposite extreme corners of the value box to different
    /// receivers, alternating by receiver parity — the strongest simple
    /// attack against the contraction argument of Theorem 5 (it maximises the
    /// spread the adversary can induce in honest states).
    AntiConvergence,
    /// Report opposite extreme corners of the value box according to an
    /// arbitrary receiver partition: receivers whose index bit is set in the
    /// mask get the `hi` corner, the rest get `lo` (indices ≥ 64 wrap).
    /// Generalises [`AntiConvergence`](Self::AntiConvergence) (whose parity
    /// split is mask `0xAAAA…`) into a searchable equivocation-target knob:
    /// an optimizing adversary can mutate the mask to find the worst split.
    SplitBrain(u64),
    /// Follow the protocol exactly (a "Byzantine" process that happens to
    /// behave; useful as a control in experiments).
    Benign,
}

impl ByzantineStrategy {
    /// All strategies that actively forge values (swept by the resilience and property tests).
    pub fn active_attacks() -> Vec<ByzantineStrategy> {
        vec![
            ByzantineStrategy::FixedOutlier,
            ByzantineStrategy::RandomNoise,
            ByzantineStrategy::Equivocate,
            ByzantineStrategy::AntiConvergence,
        ]
    }

    /// All strategies, including the passive ones.
    pub fn all() -> Vec<ByzantineStrategy> {
        let mut v = Self::active_attacks();
        v.push(ByzantineStrategy::Crash(1));
        v.push(ByzantineStrategy::Silent);
        v.push(ByzantineStrategy::Benign);
        v
    }

    /// A short stable name for tables and benchmark ids.
    pub fn name(&self) -> &'static str {
        match self {
            ByzantineStrategy::Crash(_) => "crash",
            ByzantineStrategy::Silent => "silent",
            ByzantineStrategy::FixedOutlier => "fixed-outlier",
            ByzantineStrategy::RandomNoise => "random-noise",
            ByzantineStrategy::Equivocate => "equivocate",
            ByzantineStrategy::AntiConvergence => "anti-convergence",
            ByzantineStrategy::SplitBrain(_) => "split-brain",
            ByzantineStrategy::Benign => "benign",
        }
    }

    /// The stable label verdict lines carry and the scenario schema parses
    /// back: [`name`](Self::name), plus the crash round (`crash:K`) or the
    /// split-brain mask (`split-brain:MASK`).
    pub fn label(&self) -> String {
        match self {
            ByzantineStrategy::Crash(k) => format!("crash:{k}"),
            ByzantineStrategy::SplitBrain(mask) => format!("split-brain:{mask}"),
            other => other.name().to_string(),
        }
    }

    /// Whether a process following this strategy sends anything at all in the
    /// given round (1-based).
    pub fn participates_in_round(&self, round: usize) -> bool {
        match self {
            ByzantineStrategy::Silent => false,
            ByzantineStrategy::Crash(last) => round <= *last,
            _ => true,
        }
    }

    /// Whether the strategy ever sends different payloads to different
    /// receivers in the same round.
    pub fn equivocates(&self) -> bool {
        matches!(
            self,
            ByzantineStrategy::Equivocate
                | ByzantineStrategy::AntiConvergence
                | ByzantineStrategy::SplitBrain(_)
        )
    }
}

/// Deterministic factory of forged points for a Byzantine process.
///
/// The forge knows the value bounds `[lo, hi]` the honest inputs live in
/// (the paper's `ν` and `U`), so outlier attacks can place points well outside
/// the honest hull and anti-convergence attacks can hit the box corners.
#[derive(Debug, Clone)]
pub struct PointForge {
    strategy: ByzantineStrategy,
    dim: usize,
    lo: f64,
    hi: f64,
    rng: StdRng,
    /// The honest value this Byzantine process would have used, if any (used
    /// by the `Benign` strategy).
    honest_value: Option<Point>,
}

impl PointForge {
    /// Creates a forge for one Byzantine process.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lo > hi`.
    pub fn new(strategy: ByzantineStrategy, dim: usize, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(lo <= hi, "lo must not exceed hi");
        Self {
            strategy,
            dim,
            lo,
            hi,
            rng: StdRng::seed_from_u64(seed),
            honest_value: None,
        }
    }

    /// The strategy this forge implements.
    pub fn strategy(&self) -> ByzantineStrategy {
        self.strategy
    }

    /// Sets the honest value the process would have reported (used by
    /// [`ByzantineStrategy::Benign`], and as a fallback).
    pub fn set_honest_value(&mut self, value: Point) {
        assert_eq!(value.dim(), self.dim, "honest value dimension mismatch");
        self.honest_value = Some(value);
    }

    /// Returns the point this process reports to receiver `to` in round
    /// `round`, or `None` if the strategy sends nothing in this round.
    pub fn forge(&mut self, round: usize, to: usize) -> Option<Point> {
        if !self.strategy.participates_in_round(round) {
            return None;
        }
        let span = (self.hi - self.lo).max(1.0);
        let value = match self.strategy {
            ByzantineStrategy::Silent | ByzantineStrategy::Crash(_) | ByzantineStrategy::Benign => {
                self.honest_value
                    .clone()
                    .unwrap_or_else(|| Point::uniform(self.dim, self.lo))
            }
            ByzantineStrategy::FixedOutlier => {
                // A fixed point far above the honest box.
                Point::uniform(self.dim, self.hi + 10.0 * span)
            }
            ByzantineStrategy::RandomNoise => {
                let lo = self.lo - 5.0 * span;
                let hi = self.hi + 5.0 * span;
                Point::new((0..self.dim).map(|_| self.rng.gen_range(lo..=hi)).collect())
            }
            ByzantineStrategy::Equivocate => {
                // A different random in-box value per (round, receiver): the
                // RNG stream plus the receiver index sets them apart.
                let jitter = (to as f64 + 1.0) / 1000.0;
                Point::new(
                    (0..self.dim)
                        .map(|_| self.rng.gen_range(self.lo..=self.hi) + jitter)
                        .collect(),
                )
            }
            ByzantineStrategy::AntiConvergence => {
                // Opposite corners of the box by receiver parity.
                if to.is_multiple_of(2) {
                    Point::uniform(self.dim, self.lo)
                } else {
                    Point::uniform(self.dim, self.hi)
                }
            }
            ByzantineStrategy::SplitBrain(mask) => {
                // Opposite corners by the mask's receiver partition.
                if (mask >> (to % 64)) & 1 == 1 {
                    Point::uniform(self.dim, self.hi)
                } else {
                    Point::uniform(self.dim, self.lo)
                }
            }
        };
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct_enough() {
        let names: Vec<&str> = ByzantineStrategy::all().iter().map(|s| s.name()).collect();
        assert!(names.contains(&"equivocate"));
        assert!(names.contains(&"fixed-outlier"));
        assert_eq!(names.len(), 7);
        // A label carries the payload its name drops.
        assert_eq!(ByzantineStrategy::Crash(3).label(), "crash:3");
        assert_eq!(ByzantineStrategy::SplitBrain(6).label(), "split-brain:6");
        assert_eq!(ByzantineStrategy::Silent.label(), "silent");
    }

    #[test]
    fn participation_rules() {
        assert!(!ByzantineStrategy::Silent.participates_in_round(1));
        assert!(ByzantineStrategy::Crash(2).participates_in_round(2));
        assert!(!ByzantineStrategy::Crash(2).participates_in_round(3));
        assert!(ByzantineStrategy::FixedOutlier.participates_in_round(100));
    }

    #[test]
    fn equivocation_flag() {
        assert!(ByzantineStrategy::Equivocate.equivocates());
        assert!(ByzantineStrategy::AntiConvergence.equivocates());
        assert!(!ByzantineStrategy::FixedOutlier.equivocates());
    }

    #[test]
    fn silent_forge_returns_none() {
        let mut forge = PointForge::new(ByzantineStrategy::Silent, 2, 0.0, 1.0, 1);
        assert!(forge.forge(1, 0).is_none());
    }

    #[test]
    fn crash_forge_stops_after_configured_round() {
        let mut forge = PointForge::new(ByzantineStrategy::Crash(2), 2, 0.0, 1.0, 1);
        forge.set_honest_value(Point::new(vec![0.5, 0.5]));
        assert!(forge.forge(1, 0).is_some());
        assert!(forge.forge(2, 0).is_some());
        assert!(forge.forge(3, 0).is_none());
    }

    #[test]
    fn fixed_outlier_is_far_outside_the_box() {
        let mut forge = PointForge::new(ByzantineStrategy::FixedOutlier, 3, 0.0, 1.0, 7);
        let p = forge.forge(1, 2).unwrap();
        assert!(p.coords().iter().all(|&c| c > 5.0));
    }

    #[test]
    fn anti_convergence_hits_opposite_corners() {
        let mut forge = PointForge::new(ByzantineStrategy::AntiConvergence, 2, -1.0, 1.0, 7);
        let even = forge.forge(1, 0).unwrap();
        let odd = forge.forge(1, 1).unwrap();
        assert_eq!(even.coords(), &[-1.0, -1.0]);
        assert_eq!(odd.coords(), &[1.0, 1.0]);
    }

    #[test]
    fn split_brain_partitions_receivers_by_mask() {
        // Mask 0b0110: receivers 1 and 2 get the hi corner, 0 and 3 the lo.
        let mut forge = PointForge::new(ByzantineStrategy::SplitBrain(0b0110), 2, 0.0, 1.0, 7);
        assert_eq!(forge.forge(1, 0).unwrap().coords(), &[0.0, 0.0]);
        assert_eq!(forge.forge(1, 1).unwrap().coords(), &[1.0, 1.0]);
        assert_eq!(forge.forge(1, 2).unwrap().coords(), &[1.0, 1.0]);
        assert_eq!(forge.forge(1, 3).unwrap().coords(), &[0.0, 0.0]);
        assert!(ByzantineStrategy::SplitBrain(0b0110).equivocates());
    }

    #[test]
    fn equivocate_differs_per_receiver() {
        let mut forge = PointForge::new(ByzantineStrategy::Equivocate, 2, 0.0, 1.0, 11);
        let a = forge.forge(1, 0).unwrap();
        let b = forge.forge(1, 1).unwrap();
        assert!(!a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn benign_reports_the_honest_value() {
        let mut forge = PointForge::new(ByzantineStrategy::Benign, 2, 0.0, 1.0, 3);
        forge.set_honest_value(Point::new(vec![0.25, 0.75]));
        let p = forge.forge(4, 1).unwrap();
        assert!(p.approx_eq(&Point::new(vec![0.25, 0.75]), 1e-12));
    }

    #[test]
    fn forges_with_equal_seeds_are_reproducible() {
        let mut a = PointForge::new(ByzantineStrategy::RandomNoise, 3, 0.0, 1.0, 99);
        let mut b = PointForge::new(ByzantineStrategy::RandomNoise, 3, 0.0, 1.0, 99);
        for round in 1..5 {
            assert_eq!(a.forge(round, 0), b.forge(round, 0));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn honest_value_dimension_checked() {
        let mut forge = PointForge::new(ByzantineStrategy::Benign, 2, 0.0, 1.0, 3);
        forge.set_honest_value(Point::new(vec![0.1]));
    }
}
