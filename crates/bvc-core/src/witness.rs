//! Construction of the multiset `Z_i` used in Step 2 of the approximate
//! algorithms.
//!
//! Given the tuples a process collected in a round (its `B_i[t]`), Step 2 of
//! the asynchronous algorithm adds to `Z_i` one deterministically chosen point
//! of `Γ(Φ(C))` for certain `(n−f)`-sized subsets `C ⊆ B_i[t]`, and the new
//! state is the average of `Z_i` (equation (9)).  Two subset-selection rules
//! appear in the paper:
//!
//! * the **full rule** (Section 3.2): every `C ⊆ B_i[t]` with `|C| = n − f`,
//!   giving `|Z_i| = C(|B_i|, n−f)`;
//! * the **witness-optimised rule** (Appendix F): only the `≤ n` subsets
//!   advertised by this process's witnesses, giving `|Z_i| ≤ n` and improving
//!   the contraction constant to `γ = 1/n²`.
//!
//! A process never holds the full rule's `Z_i`: the AAD-based algorithm
//! ([`crate::approx`]) and the restricted-round algorithms
//! ([`crate::restricted`]) take the new state straight from
//! [`GammaCache::subset_centroid`], which at `d = 1` reads every subset's
//! closed-form interval off one sort and averages the midpoints as they
//! stream.  [`build_zi_full_cached`] materialises `Z_i` one
//! [`GammaCache::find_point_of`] per subset — the rule as written, and the
//! oracle the fold is tested against (`tests/zi_views.rs`) — and
//! [`average_state`] of it is bit for bit that centroid.  The witness rule
//! lives here and feeds [`crate::approx`].  Every Γ point either rule adds is
//! asked of a [`GammaCache`]: a process passes its run's cache, and a public
//! `build_zi_*_cached` call given `None` gets a fresh one for that call.  A
//! cached answer is the engine's (a Γ point is a deterministic function of
//! the multiset), and every query leaves one `gamma` trace event.

use bvc_geometry::{CanonicalEntries, GammaCache, Point};

/// Builds `Z_i` with the full rule: one `Γ` point per `(n−f)`-subset of
/// `entries`, each looked up in `cache` (a fresh cache when `None`).
///
/// `entries` are the values of the tuples in `B_i[t]` (order irrelevant);
/// `quorum` is `n − f` and `f` the fault bound used inside `Γ`.
/// Subsets whose `Γ` is empty (possible only when `quorum < (d+1)f + 1`,
/// i.e. below the resilience bound) are skipped.
///
/// What a shared cache buys was measured, not assumed: under a per-receiver
/// equivocating adversary the honest processes of a synchronous round do
/// *not* build `Z_i` from the same vector (one subset in `C(n, n−f)` is
/// common to two receivers), so the reuse is a process's own repeated
/// sub-multisets once honest states coincide, plus whole repeated instances
/// through a parent cache shared across runs.  `d = 1` subsets are answered
/// in closed form and never stored.  `Z_i` is emitted in `Combinations`
/// order over the positions of `entries`, the order
/// [`GammaCache::subset_centroid`] sums in.
///
/// # Panics
///
/// Panics if `entries.len() < quorum` or `quorum == 0`.
pub fn build_zi_full_cached(
    entries: &[Point],
    quorum: usize,
    f: usize,
    cache: Option<&GammaCache>,
) -> Vec<Point> {
    let fresh = GammaCache::new();
    let entries: Vec<&Point> = entries.iter().collect();
    cache.unwrap_or(&fresh).subset_points(&entries, quorum, f)
}

/// Builds `Z_i` with the witness-optimised rule: one `Γ` point per witness-
/// advertised subset (each subset is a list of tuple values of size `n − f`),
/// each looked up in `cache` (a fresh cache when `None`).
///
/// Subsets whose `Γ` is empty are skipped (they cannot arise for parameters
/// meeting the paper's bounds).
pub fn build_zi_witness_cached(
    witness_sets: &[Vec<Point>],
    f: usize,
    cache: Option<&GammaCache>,
) -> Vec<Point> {
    let fresh = GammaCache::new();
    let sets = witness_sets.iter().map(|set| set.iter());
    zi_witness(sets, f, cache.unwrap_or(&fresh))
}

/// [`build_zi_witness_cached`] over borrowed sets.  Every witness set is a
/// list of its own, so each is one whole-list view (one canonical sort per
/// query, none per member).
pub(crate) fn zi_witness<'a, S>(
    witness_sets: impl IntoIterator<Item = S>,
    f: usize,
    cache: &GammaCache,
) -> Vec<Point>
where
    S: IntoIterator<Item = &'a Point>,
{
    let mut zi = Vec::new();
    for set in witness_sets {
        let mut members = set.into_iter().peekable();
        if members.peek().is_none() {
            continue;
        }
        if let Some(point) = cache.find_point_of(CanonicalEntries::new(members).all(), f) {
            zi.push(point);
        }
    }
    zi
}

/// The state-update rule of equation (9): the average of the points of `Z_i`.
///
/// # Panics
///
/// Panics if `zi` is empty.
pub fn average_state(zi: &[Point]) -> Point {
    assert!(
        !zi.is_empty(),
        "Z_i must be non-empty to compute the new state"
    );
    Point::centroid(zi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_geometry::{ConvexHull, PointMultiset};

    fn pts(vals: &[f64]) -> Vec<Point> {
        vals.iter().map(|&v| Point::new(vec![v])).collect()
    }

    #[test]
    fn full_rule_produces_binomial_many_points() {
        // 4 entries, quorum 3, f = 1 (d = 1 so quorum ≥ (d+1)f+1 = 3 holds).
        let zi = build_zi_full_cached(&pts(&[0.0, 1.0, 2.0, 10.0]), 3, 1, None);
        assert_eq!(zi.len(), 4); // C(4,3)
    }

    #[test]
    fn full_rule_points_lie_in_the_entry_hull() {
        let entries = pts(&[0.0, 1.0, 2.0, 10.0]);
        let hull = ConvexHull::new(PointMultiset::new(entries.clone()));
        for z in build_zi_full_cached(&entries, 3, 1, None) {
            assert!(hull.contains(&z));
        }
    }

    #[test]
    fn witness_rule_produces_one_point_per_set() {
        let sets = vec![pts(&[0.0, 1.0, 2.0]), pts(&[1.0, 2.0, 3.0])];
        let zi = build_zi_witness_cached(&sets, 1, None);
        assert_eq!(zi.len(), 2);
    }

    #[test]
    fn witness_rule_skips_empty_sets() {
        let sets = vec![Vec::new(), pts(&[0.0, 1.0, 2.0])];
        let zi = build_zi_witness_cached(&sets, 1, None);
        assert_eq!(zi.len(), 1);
    }

    #[test]
    fn gamma_points_are_robust_to_one_outlier() {
        // With f = 1 and three honest-looking values near 1 plus one huge
        // outlier, every Γ point must stay within the range spanned by at
        // least n − 2f = 2 honest values — in particular far below the
        // outlier.
        let entries = pts(&[0.9, 1.0, 1.1, 1000.0]);
        for z in build_zi_full_cached(&entries, 3, 1, None) {
            assert!(
                z.coord(0) <= 1.1 + 1e-6,
                "Γ point dragged by the outlier: {z}"
            );
        }
    }

    #[test]
    fn average_state_is_the_centroid() {
        let avg = average_state(&pts(&[0.0, 1.0, 2.0]));
        assert!((avg.coord(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn average_of_empty_zi_panics() {
        let _ = average_state(&[]);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn full_rule_with_too_few_entries_panics() {
        let _ = build_zi_full_cached(&pts(&[0.0]), 2, 1, None);
    }

    #[test]
    fn shared_cache_zi_matches_fresh_cache_zi() {
        let cache = GammaCache::new();
        let entries = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![5.0, 5.0]),
        ];
        let fresh = build_zi_full_cached(&entries, 4, 1, None);
        let cached = build_zi_full_cached(&entries, 4, 1, Some(&cache));
        assert_eq!(fresh.len(), cached.len());
        for (a, b) in fresh.iter().zip(&cached) {
            assert!(a.approx_eq(b, 1e-15), "{a} vs {b}");
        }
        // A second pass is served from the cache and still identical.
        let again = build_zi_full_cached(&entries, 4, 1, Some(&cache));
        assert!(cache.hits() > 0);
        for (a, b) in cached.iter().zip(&again) {
            assert!(a.approx_eq(b, 1e-15));
        }
    }

    #[test]
    fn two_dimensional_subsets_work() {
        // d = 2, f = 1, quorum 4 (≥ (d+1)f+1 = 4).
        let entries = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![5.0, 5.0]),
        ];
        let zi = build_zi_full_cached(&entries, 4, 1, None);
        assert_eq!(zi.len(), 5); // C(5,4)
        let hull = ConvexHull::new(PointMultiset::new(entries));
        assert!(zi.iter().all(|z| hull.contains(z)));
    }
}
