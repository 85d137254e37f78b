//! Pluggable validity conditions and the relaxed-regime resource checks.
//!
//! The verdict scoring of every runner used to hard-code the strict validity
//! condition (decision ∈ hull of honest inputs).  This module threads the
//! [`ValidityPredicate`](bvc_geometry::ValidityPredicate) of `bvc-geometry`
//! — strict, `(1+α)`-relaxed, or `k`-relaxed (Xiang & Vaidya,
//! arXiv:1601.08067) — through the runners as a
//! [`ValidityMode`], and models the relaxed paper's headline result as a
//! **resource check**: relaxing validity lowers the `(d+1)f+1`-type process
//! requirement of the strict problem, because the relaxed condition only
//! binds in an *effective dimension* `d_eff < d` (`k` for `k`-relaxed, `1`
//! for `(1+α)`-relaxed with `α > 0`).  Each run records the mode and the
//! lowered threshold alongside the verdict, the same way topology-aware runs
//! record the iterative sufficiency verdict: a failed verdict on a run whose
//! resource check is *not* satisfied is expected data, not a regression.
//!
//! The exact statements of 1601.08067 are finer-grained than this model
//! (separate necessity results per relaxation and per `k`); refining
//! `validity_check`'s requirement against them is a recorded ROADMAP
//! follow-up.

use crate::run::ProtocolKind;
pub use bvc_geometry::ValidityPredicate as ValidityMode;

/// The relaxed-regime resource check recorded in run results: which validity
/// mode the run was scored against, the (possibly lowered) process
/// requirement for the run's protocol under that mode, and whether `n` meets
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidityCheck {
    /// The validity condition the verdict was scored against.
    pub mode: ValidityMode,
    /// Minimum `n` for this protocol under `mode` (the paper's strict bound
    /// evaluated at the mode's effective dimension).
    pub required_n: usize,
    /// Whether the configured `n` meets `required_n`.  A violated verdict
    /// with `satisfied = false` is the anticipated outcome of running below
    /// the resource bound, not a finding.
    pub satisfied: bool,
}

/// Builds the [`ValidityCheck`] a run records: the minimum `n` for
/// `protocol` under the run's validity mode is its floor in
/// [`ProtocolKind::min_processes`] evaluated at the mode's effective
/// dimension (`d` for strict, `k` for `k`-relaxed, `1` for `(1+α)`-relaxed,
/// `α > 0`) — **for protocols whose decision rule actually relaxes**.  Today
/// that is the exact algorithm only: approx and the restricted-round variants
/// score and admit under the mode but still run the strict update rule (a
/// ROADMAP follow-up), so relaxing validity cannot make a below-strict-bound
/// run of theirs succeed, and their recorded requirement stays the strict one
/// — otherwise anticipated failures would be tallied as regressions.  `None`
/// for the kinds that are not [paper protocols](ProtocolKind::is_paper_protocol),
/// whose resource signal is the topology sufficiency verdict.
pub(crate) fn validity_check(
    protocol: ProtocolKind,
    mode: ValidityMode,
    n: usize,
    d: usize,
    f: usize,
) -> Option<ValidityCheck> {
    if !protocol.is_paper_protocol() {
        return None;
    }
    let d_eff = match (protocol, mode) {
        // The exact decision rule relaxes, but its k-relaxed fallback (the
        // trimmed-centre rule) is only complete for k = 1: for 1 < k < d it
        // can fail projection verification at any n, so the recorded
        // requirement stays the strict one — a non-decision there must be
        // flagged as anticipated, not promised away by a lowered bound.
        (ProtocolKind::Exact, ValidityMode::KRelaxed(k)) if k > 1 && k < d => d,
        (ProtocolKind::Exact, _) => mode.effective_dim(d),
        _ => d,
    };
    let required_n = protocol.min_processes(d_eff, f)?;
    Some(ValidityCheck {
        mode,
        required_n,
        satisfied: n >= required_n,
    })
}

/// The fewest processes admission accepts for `protocol` under `mode` — the
/// one admission-floor query, read by
/// [`RunConfig::validate`](crate::RunConfig::validate) and by samplers that
/// want only admissible shapes.  Strict runs are held to the protocol's floor
/// exactly.  The paper's protocols under a relaxed mode are admitted down to
/// the floor at the mode's *relaxation family* dimension (that is the point
/// of the relaxation — e.g. an Exact BVC run at `n = 8 < (d+1)f+1 = 9` is
/// admissible under `(1+α)`-relaxed validity, where only `3f+1 = 7` processes
/// are required): a scenario sweeping `α` (or `k`) is solving the relaxed
/// problem, whose lowered bound admits it — including the `α = 0` cells of
/// the sweep, which execute (with behaviour byte-identical to strict) and are
/// then *recorded* against the strict requirement (`satisfied = false` below
/// it), exactly like topology sweeps record expected-unsolvable substrates
/// instead of refusing to run them.  The directed kinds keep their floor
/// under every mode (the flood has no relaxed variant); `None` for the
/// iterative protocol, which has no floor.
pub fn admission_floor(
    protocol: ProtocolKind,
    mode: &ValidityMode,
    d: usize,
    f: usize,
) -> Option<usize> {
    let family_d = match (protocol.is_paper_protocol(), mode) {
        (true, ValidityMode::AlphaScaled(_)) => 1,
        (true, ValidityMode::KRelaxed(k)) => (*k).clamp(1, d),
        _ => d,
    };
    protocol.min_processes(family_d, f)
}

/// The shared strict-validity test assertion (deduplicated from the per-file
/// copies the protocol test modules used to carry): every decision must lie
/// in the hull of the honest inputs, judged by the same predicate the
/// runners score with.
#[cfg(test)]
pub(crate) fn assert_strict_validity(
    decisions: &[bvc_geometry::Point],
    honest_inputs: &[bvc_geometry::Point],
) {
    let honest = bvc_geometry::PointMultiset::new(honest_inputs.to_vec());
    for decision in decisions {
        assert!(
            ValidityMode::Strict.contains(&honest, decision),
            "validity violated: {decision} outside the honest hull"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProtocolKind::{Exact, RestrictedAsync, RestrictedSync};

    /// The requirement a run of `protocol` records under `mode`.
    fn required(protocol: ProtocolKind, mode: ValidityMode, d: usize, f: usize) -> Option<usize> {
        validity_check(protocol, mode, 0, d, f).map(|check| check.required_n)
    }

    #[test]
    fn strict_mode_reproduces_the_paper_bounds() {
        assert_eq!(required(Exact, ValidityMode::Strict, 3, 1), Some(5));
        assert_eq!(
            required(ProtocolKind::Approx, ValidityMode::Strict, 2, 2),
            Some(9)
        );
    }

    #[test]
    fn alpha_relaxation_drops_the_dimension_term() {
        // Exact: max(3f+1, (d_eff+1)f+1) with d_eff = 1 is 3f+1.
        assert_eq!(
            required(Exact, ValidityMode::AlphaScaled(0.5), 3, 2),
            Some(7)
        );
        // α = 0 is the strict condition and keeps the strict bound.
        assert_eq!(
            required(Exact, ValidityMode::AlphaScaled(0.0), 3, 2),
            Some(9)
        );
        // Protocols without a relaxed decision rule keep the strict
        // requirement — relaxed scoring cannot make their runs succeed
        // below it, so failures there must be flagged as anticipated.
        assert_eq!(
            required(RestrictedAsync, ValidityMode::AlphaScaled(1.0), 3, 1),
            Some(8)
        );
        let check = validity_check(RestrictedSync, ValidityMode::AlphaScaled(1.0), 8, 3, 2)
            .expect("a paper protocol records its check");
        assert_eq!(check.required_n, 11, "strict (d+2)f+1: no relaxed rule");
        assert!(!check.satisfied);
    }

    #[test]
    fn k_relaxation_interpolates_between_scalar_and_strict() {
        let f = 1;
        let d = 4;
        let strict = required(Exact, ValidityMode::Strict, d, f);
        let k1 = required(Exact, ValidityMode::KRelaxed(1), d, f);
        let k2 = required(Exact, ValidityMode::KRelaxed(2), d, f);
        let kd = required(Exact, ValidityMode::KRelaxed(d), d, f);
        assert_eq!(strict, Some(6)); // max(3f+1, (4+1)f+1)
        assert_eq!(k1, Some(4)); // 3f+1 floor: the k = 1 rule is complete
        assert_eq!(k2, strict, "no complete 1 < k < d rule: strict bound");
        assert_eq!(kd, strict);
        assert!(k1 <= k2 && k2 <= kd);
    }

    #[test]
    fn admission_is_lowered_only_for_relaxed_modes() {
        // n = 8 < 9 = strict Exact bound at d = 3, f = 2 …
        assert_eq!(admission_floor(Exact, &ValidityMode::Strict, 3, 2), Some(9));
        // … but admissible under (1+α)-relaxed validity (requires 3f+1 = 7).
        assert_eq!(
            admission_floor(Exact, &ValidityMode::AlphaScaled(0.5), 3, 2),
            Some(7)
        );
        let check = validity_check(Exact, ValidityMode::AlphaScaled(0.5), 8, 3, 2).unwrap();
        assert_eq!(check.required_n, 7);
        assert!(check.satisfied);
        let strict = validity_check(Exact, ValidityMode::Strict, 8, 3, 2).unwrap();
        assert_eq!(strict.required_n, 9);
        assert!(!strict.satisfied);
        // Only the paper's protocols record a check; the directed floor does
        // not move under a relaxed mode, and the iterative protocol has none.
        let directed = ProtocolKind::DirectedExact;
        assert_eq!(
            validity_check(directed, ValidityMode::Strict, 8, 3, 2),
            None
        );
        assert_eq!(
            admission_floor(directed, &ValidityMode::AlphaScaled(0.5), 3, 2),
            Some(9)
        );
        let iterative = ProtocolKind::Iterative;
        assert_eq!(
            admission_floor(iterative, &ValidityMode::Strict, 3, 2),
            None
        );
    }

    #[test]
    fn alpha_zero_cells_are_admitted_but_recorded_unsatisfied() {
        // The α = 0 cell of an alpha sweep runs (family admission) …
        assert_eq!(
            admission_floor(Exact, &ValidityMode::AlphaScaled(0.0), 3, 2),
            Some(7)
        );
        // … but its recorded check reflects the strict requirement it is
        // actually held to, so its expected violations are flagged up front.
        let zero = validity_check(Exact, ValidityMode::AlphaScaled(0.0), 8, 3, 2).unwrap();
        assert_eq!(zero.required_n, 9);
        assert!(!zero.satisfied);
    }
}
