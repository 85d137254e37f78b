//! Counterexample shrinking: minimize a violating spec while preserving
//! the violation.
//!
//! The shrinker is **rng-free and deterministic**: it applies a fixed
//! sequence of reduction passes — drop fault events, halve fault windows,
//! round input coordinates, canonicalise α / seed / strategy / delivery,
//! shed processes — keeping a reduction only if the reduced spec still
//! produces a *genuine* violation with the **same verdict flags** as the
//! original.  A reduction that would change nothing is not tried.  Passes
//! repeat to a fixpoint, which is what makes shrinking idempotent:
//! re-shrinking a shrunk spec changes nothing (pinned by the property
//! tests).

use crate::objective::evaluate;
use crate::search::{edit_faults, fit, points_mut};
use bvc_adversary::ByzantineStrategy;
use bvc_core::{FaultEvent, FaultKind};
use bvc_net::DeliveryPolicy;
use bvc_scenario::{ScenarioSpec, ValidityMode};

/// The result of shrinking one violating spec.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized spec (equal to the input when nothing reduced).
    pub spec: ScenarioSpec,
    /// The accepted reduction steps, in application order — deterministic
    /// for a deterministic input.
    pub steps: Vec<String>,
    /// Spec evaluations spent shrinking.
    pub evaluations: usize,
}

/// Rounds `x` to `decimals` decimal places.
fn round_to(x: f64, decimals: u32) -> f64 {
    let scale = 10f64.powi(decimals as i32);
    (x * scale).round() / scale
}

impl ShrinkResult {
    /// Tries one reduction: `edit` applied to a copy of the incumbent, kept
    /// (and logged as `step`) iff it changed something and the original
    /// violation — a genuine one with verdict `flags` — survives it.
    fn attempt(
        &mut self,
        flags: (bool, bool, bool),
        step: impl Into<String>,
        edit: impl FnOnce(&mut ScenarioSpec),
    ) -> bool {
        let mut candidate = self.spec.clone();
        edit(&mut candidate);
        fit(&mut candidate, || {
            unreachable!("no reduction adds an honest process")
        });
        if candidate == self.spec {
            return false;
        }
        self.evaluations += 1;
        let eval = evaluate(&candidate);
        let kept = eval.violation && eval.verdict_flags() == flags;
        if kept {
            self.spec = candidate;
            self.steps.push(step.into());
        }
        kept
    }
}

/// Shrinks `spec`, which must currently violate with verdict `flags`
/// (from [`Evaluation::verdict_flags`](crate::objective::Evaluation::verdict_flags)).
///
/// # Panics
///
/// If `spec` does not list exactly `n − f` explicit points of dimension
/// `d`, as every spec the search builds does.
pub fn shrink(spec: &ScenarioSpec, flags: (bool, bool, bool)) -> ShrinkResult {
    let mut s = ShrinkResult {
        spec: spec.clone(),
        steps: Vec::new(),
        evaluations: 0,
    };

    // The outer loop runs the whole pass list to a fixpoint (bounded, since
    // every accepted reduction strictly simplifies the spec).
    for _round in 0..8 {
        let mut changed = false;

        // Pass 1: drop fault events one at a time.
        let mut i = 0;
        while i < s.spec.faults.events().len() {
            let drop_fault = |c: &mut ScenarioSpec| {
                edit_faults(c, |e| {
                    e.remove(i);
                })
            };
            if s.attempt(flags, format!("drop-fault:{i}"), drop_fault) {
                changed = true;
            } else {
                i += 1;
            }
        }

        // Pass 2: halve remaining fault windows and delays.
        for i in 0..s.spec.faults.events().len() {
            let event = s.spec.faults.events()[i].clone();
            let FaultKind::Latency { extra, links } = event.kind else {
                continue;
            };
            let halved = FaultEvent {
                kind: FaultKind::Latency {
                    extra: (extra / 2).max(1),
                    links,
                },
                start: event.start,
                duration: (event.duration / 2).max(1),
            };
            let halve = |c: &mut ScenarioSpec| edit_faults(c, |e| e[i] = halved);
            changed |= s.attempt(flags, format!("halve-window:{i}"), halve);
        }

        // Pass 3: round every input coordinate (coarse first).
        for decimals in [1u32, 2] {
            let round = |c: &mut ScenarioSpec| {
                for x in points_mut(c).iter_mut().flatten() {
                    *x = round_to(*x, decimals);
                }
            };
            if s.attempt(flags, format!("round-inputs:{decimals}"), round) {
                changed = true;
                break;
            }
        }

        // Pass 4: round α (coarse first).
        if let Some(ValidityMode::AlphaScaled(alpha)) = s.spec.validity {
            for decimals in [1u32, 2] {
                let rounded = Some(ValidityMode::AlphaScaled(round_to(alpha, decimals)));
                if s.attempt(flags, format!("round-alpha:{decimals}"), |c| {
                    c.validity = rounded
                }) {
                    changed = true;
                    break;
                }
            }
        }

        // Passes 5–8: canonical seed, default delivery schedule, canonical
        // strategy (equivocation is the zoo's default), and no declared
        // topology — a directed finding that still reproduces on the
        // complete graph is the simpler reproducer (and usually a deeper
        // one: it survived losing its cut structure).
        changed |= s.attempt(flags, "zero-seed", |c| c.seed = 0);
        changed |= s.attempt(flags, "default-delivery", |c| {
            c.policy = DeliveryPolicy::RandomFair
        });
        changed |= s.attempt(flags, "canonical-strategy", |c| {
            c.strategy = ByzantineStrategy::Equivocate
        });
        changed |= s.attempt(flags, "drop-topology", |c| c.topology = None);

        // Pass 9: shed processes (dropping the last honest input point).
        while s.spec.n > s.spec.f + 2 && s.attempt(flags, "shrink-n", |c| c.n -= 1) {
            changed = true;
        }

        // Pass 10: fewer Byzantine processes, shrinking n in lockstep so
        // the honest inputs keep their shape.
        if s.spec.f > 1 {
            changed |= s.attempt(flags, "shrink-f", |c| {
                c.f -= 1;
                c.n -= 1;
            });
        }

        if !changed {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_helper_is_exact_on_short_decimals() {
        assert_eq!(round_to(0.12345, 2), 0.12);
        assert_eq!(round_to(0.15, 1), 0.2);
        assert_eq!(round_to(0.5, 1), 0.5);
    }
}
