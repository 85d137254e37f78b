//! Tverberg partitions and Tverberg points (Theorem 2 of the paper).
//!
//! Tverberg's theorem: every multiset of at least `(d+1)f + 1` points in `R^d`
//! can be partitioned into `f + 1` non-empty parts whose convex hulls share a
//! common point (a *Tverberg point*).  Lemma 1 of the paper derives
//! `Γ(Y) ≠ ∅` from this, and the proof shows every Tverberg point lies in
//! `Γ(Y)`.
//!
//! The paper notes (end of Section 2.2) that no polynomial-time algorithm is
//! known for computing Tverberg points in arbitrary dimension; consistently
//! with that, this module implements a **brute-force search** over canonical
//! set partitions, intended for small instances such as Figure 1's heptagon
//! (asserted by `heptagon_has_three_part_tverberg_partition` and
//! `tverberg_point_lies_in_gamma` below).  The consensus
//! algorithms themselves never call it — they use the LP of
//! [`crate::gamma`] instead, exactly as the paper prescribes.

use crate::combinatorics::partitions_into_blocks;
use crate::gamma::gamma_contains;
use crate::hull::ConvexHull;
use crate::multiset::PointMultiset;
use crate::point::Point;

/// A Tverberg partition of a multiset together with one common point of the
/// part hulls.
#[derive(Debug, Clone)]
pub struct TverbergPartition {
    /// Index lists of the parts (a partition of `0..y.len()`), ordered by
    /// smallest member.
    pub parts: Vec<Vec<usize>>,
    /// A point lying in the convex hull of every part.
    pub point: Point,
}

impl TverbergPartition {
    /// Number of parts in the partition.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }
}

/// Checks whether `parts` is a Tverberg partition of `y` (each part non-empty,
/// forming a partition, with intersecting hulls); returns a common point of
/// the part hulls if so.
///
/// # Panics
///
/// Panics if `parts` is not a partition of `0..y.len()`.
pub fn common_point_of_partition(y: &PointMultiset, parts: &[Vec<usize>]) -> Option<Point> {
    let part_multisets = y.partition(parts);
    let hulls: Vec<ConvexHull> = part_multisets.into_iter().map(ConvexHull::new).collect();
    ConvexHull::common_point(&hulls)
}

/// Searches for a Tverberg partition of `y` into `parts` non-empty parts by
/// exhaustive enumeration of canonical set partitions.
///
/// Returns the first partition (in canonical enumeration order) whose part
/// hulls intersect, together with a common point.  Returns `None` if no such
/// partition exists — which, by Tverberg's theorem, can only happen when
/// `|y| < (d+1)(parts−1) + 1`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn find_tverberg_partition(y: &PointMultiset, parts: usize) -> Option<TverbergPartition> {
    assert!(parts > 0, "a Tverberg partition needs at least one part");
    if parts > y.len() {
        return None;
    }
    for candidate in partitions_into_blocks(y.len(), parts) {
        if let Some(point) = common_point_of_partition(y, &candidate) {
            return Some(TverbergPartition {
                parts: candidate,
                point,
            });
        }
    }
    None
}

/// Radon's special case (`f = 1`): a partition of at least `d + 2` points into
/// two parts with intersecting hulls.
pub fn find_radon_partition(y: &PointMultiset) -> Option<TverbergPartition> {
    find_tverberg_partition(y, 2)
}

/// Verifies the containment `Tverberg points ⊆ Γ(Y)` asserted in the proof of
/// Lemma 1: returns `true` when `partition.point` lies in `Γ(y)` with fault
/// bound `parts − 1`.
pub fn tverberg_point_in_gamma(y: &PointMultiset, partition: &TverbergPartition) -> bool {
    let f = partition.num_parts().saturating_sub(1);
    if f >= y.len() {
        return false;
    }
    gamma_contains(y, f, &partition.point)
}

/// The threshold of Tverberg's theorem: the minimum multiset size
/// `(d+1)f + 1` that guarantees a partition into `f + 1` intersecting parts.
pub fn tverberg_threshold(d: usize, f: usize) -> usize {
    (d + 1) * f + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[&[f64]]) -> PointMultiset {
        PointMultiset::new(coords.iter().map(|c| Point::new(c.to_vec())).collect())
    }

    fn heptagon() -> PointMultiset {
        let pts: Vec<Point> = (0..7)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / 7.0;
                Point::new(vec![theta.cos(), theta.sin()])
            })
            .collect();
        PointMultiset::new(pts)
    }

    #[test]
    fn threshold_formula() {
        assert_eq!(tverberg_threshold(1, 1), 3);
        assert_eq!(tverberg_threshold(2, 2), 7);
        assert_eq!(tverberg_threshold(3, 1), 5);
    }

    #[test]
    fn radon_partition_of_four_points_in_the_plane() {
        // Radon's theorem: any 4 points in R^2 admit a partition into two
        // parts with intersecting hulls.
        let y = pts(&[&[0.0, 0.0], &[4.0, 0.0], &[0.0, 4.0], &[1.0, 1.0]]);
        let partition = find_radon_partition(&y).expect("Radon");
        assert_eq!(partition.num_parts(), 2);
        let p = common_point_of_partition(&y, &partition.parts).unwrap();
        // `p` and `partition.point` need not coincide, but each must be a
        // common point: inside the hull of every part.
        for part in &partition.parts {
            let hull = ConvexHull::new(PointMultiset::new(
                part.iter().map(|&i| y.points()[i].clone()).collect(),
            ));
            assert!(hull.contains(&p));
            assert!(hull.contains(&partition.point));
        }
    }

    #[test]
    fn heptagon_has_three_part_tverberg_partition() {
        // Figure 1 of the paper: 7 points in R^2, f = 2, partition into 3
        // parts with a common point.
        let y = heptagon();
        assert_eq!(y.len(), tverberg_threshold(2, 2));
        let partition = find_tverberg_partition(&y, 3).expect("Tverberg for the heptagon");
        assert_eq!(partition.num_parts(), 3);
        // The common point must be in each part hull.
        let part_sets = y.partition(&partition.parts);
        for part in part_sets {
            assert!(ConvexHull::new(part).contains(&partition.point));
        }
    }

    #[test]
    fn tverberg_point_lies_in_gamma() {
        let y = heptagon();
        let partition = find_tverberg_partition(&y, 3).unwrap();
        assert!(tverberg_point_in_gamma(&y, &partition));
    }

    #[test]
    fn no_partition_below_threshold_for_generic_points() {
        // 3 affinely independent points in R^2 cannot be split into two parts
        // with intersecting hulls (below the Radon threshold of 4).
        let y = pts(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        assert!(find_tverberg_partition(&y, 2).is_none());
    }

    #[test]
    fn degenerate_duplicate_points_partition_easily() {
        // Two identical points split into two singleton parts whose hulls are
        // the same point.
        let y = pts(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let partition = find_tverberg_partition(&y, 2).expect("duplicates intersect");
        assert!(partition.point.approx_eq(&Point::new(vec![1.0, 1.0]), 1e-6));
    }

    #[test]
    fn single_part_partition_always_exists() {
        let y = pts(&[&[0.0], &[3.0]]);
        let partition = find_tverberg_partition(&y, 1).unwrap();
        assert_eq!(partition.num_parts(), 1);
    }

    #[test]
    fn more_parts_than_points_returns_none() {
        let y = pts(&[&[0.0], &[1.0]]);
        assert!(find_tverberg_partition(&y, 3).is_none());
    }

    #[test]
    fn one_dimensional_tverberg_three_points() {
        // d = 1, f = 1, threshold 3: {0, 5, 10} partitions into {0,10} and {5}.
        let y = pts(&[&[0.0], &[5.0], &[10.0]]);
        let partition = find_tverberg_partition(&y, 2).expect("1-D Tverberg");
        let p = partition.point.coord(0);
        assert!((p - 5.0).abs() < 1e-6);
    }

    #[test]
    fn common_point_of_given_partition_detects_failure() {
        let y = pts(&[&[0.0], &[1.0], &[10.0]]);
        // Parts {0,1} (hull [0,1]) and {10} do not intersect.
        assert!(common_point_of_partition(&y, &[vec![0, 1], vec![2]]).is_none());
    }
}
