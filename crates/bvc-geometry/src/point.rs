//! Points in `R^d`.
//!
//! The paper treats a process input interchangeably as a *d-dimensional vector
//! of reals* and as a *point in Euclidean space* (Section 1).  [`Point`] is the
//! shared representation used throughout the workspace: an owned `Vec<f64>`
//! wrapper with the vector-space operations, norms and convex-combination
//! helpers the consensus algorithms need.

pub use crate::tolerance::DEFAULT_TOLERANCE;
use crate::tolerance::{NEGATIVE_WEIGHT_TOLERANCE, WEIGHT_SUM_TOLERANCE};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Index, Mul, Sub};

/// A point (equivalently, a vector) in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite value.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "a point needs at least one coordinate");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "point coordinates must be finite"
        );
        Self { coords }
    }

    /// The origin (all-zero vector) of `R^d`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn origin(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// The `i`-th standard basis vector of `R^d` (1 in coordinate `i`, 0
    /// elsewhere).  Used by the impossibility constructions of Theorems 1
    /// and 4.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim` or `dim == 0`.
    pub fn standard_basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut coords = vec![0.0; dim];
        coords[i] = 1.0;
        Self::new(coords)
    }

    /// A point with every coordinate equal to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `value` is not finite.
    pub fn uniform(dim: usize, value: f64) -> Self {
        Self::new(vec![value; dim])
    }

    /// The dimension `d` of the point.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Borrows the coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Consumes the point, returning its coordinates.
    pub fn into_coords(self) -> Vec<f64> {
        self.coords
    }

    /// Coordinate `l` (0-based; the paper indexes 1 ≤ l ≤ d).
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.dim()`.
    pub fn coord(&self, l: usize) -> f64 {
        self.coords[l]
    }

    /// Scales the point by `factor`.
    pub fn scale(&self, factor: f64) -> Self {
        Self {
            coords: self.coords.iter().map(|c| c * factor).collect(),
        }
    }

    /// Euclidean (L2) distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn distance(&self, other: &Self) -> f64 {
        self.check_same_dim(other);
        self.coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Chebyshev (L∞) distance to `other`: the maximum per-coordinate
    /// absolute difference.  This is the metric in which the paper's
    /// ε-agreement condition is stated (each element within ε).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn linf_distance(&self, other: &Self) -> f64 {
        self.check_same_dim(other);
        self.coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns `true` when every coordinate of `self` and `other` differs by
    /// at most `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn approx_eq(&self, other: &Self, tolerance: f64) -> bool {
        self.linf_distance(other) <= tolerance
    }

    /// Componentwise convex combination `Σ weights[k] * points[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, lengths differ, dimensions differ, any
    /// weight is negative beyond tolerance, or the weights do not sum to 1
    /// within `1e-6`.
    pub fn convex_combination(points: &[Point], weights: &[f64]) -> Self {
        assert!(!points.is_empty(), "convex combination of zero points");
        assert_eq!(
            points.len(),
            weights.len(),
            "points and weights must have equal length"
        );
        let total: f64 = weights.iter().sum();
        assert!(
            (total - 1.0).abs() < WEIGHT_SUM_TOLERANCE,
            "convex-combination weights must sum to 1 (got {total})"
        );
        assert!(
            weights.iter().all(|&w| w >= -NEGATIVE_WEIGHT_TOLERANCE),
            "convex-combination weights must be non-negative"
        );
        let dim = points[0].dim();
        let mut coords = vec![0.0; dim];
        for (p, &w) in points.iter().zip(weights) {
            assert_eq!(p.dim(), dim, "points must share a dimension");
            for (c, pc) in coords.iter_mut().zip(p.coords()) {
                *c += w * pc;
            }
        }
        Self::new(coords)
    }

    /// The centroid (arithmetic mean) of `points`.
    ///
    /// This is the deterministic averaging step (9) of the asynchronous
    /// algorithm: `v_i[t] = (Σ_{z ∈ Z_i} z) / |Z_i|`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or dimensions differ.
    pub fn centroid(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "centroid of zero points");
        let n = points.len() as f64;
        let weights = vec![1.0 / n; points.len()];
        Self::convex_combination(points, &weights)
    }

    fn check_same_dim(&self, other: &Self) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimension mismatch: {} vs {}",
            self.dim(),
            other.dim()
        );
    }
}

/// The canonical order of coordinate vectors: lexicographic under
/// `f64::total_cmp`, so it is total and bit-deterministic (`-0.0` sorts
/// before `0.0`).  Γ queries put their members in this order, a `d = 2` hull
/// sorts its polygon's vertices by it, and the directed protocol resolves a
/// source's claims to their minimum under it.
#[inline]
pub fn canonical_cmp(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .zip(b)
        .fold(Ordering::Equal, |order, (x, y)| order.then(x.total_cmp(y)))
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.coords[index]
    }
}

impl Add<&Point> for &Point {
    type Output = Point;

    fn add(self, rhs: &Point) -> Point {
        self.check_same_dim(rhs);
        Point::new(
            self.coords
                .iter()
                .zip(&rhs.coords)
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub<&Point> for &Point {
    type Output = Point;

    fn sub(self, rhs: &Point) -> Point {
        self.check_same_dim(rhs);
        Point::new(
            self.coords
                .iter()
                .zip(&rhs.coords)
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Mul<f64> for &Point {
    type Output = Point;

    fn mul(self, rhs: f64) -> Point {
        self.scale(rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Self::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Self::new(coords.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p[2], 3.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least one coordinate")]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_coordinate_panics() {
        let _ = Point::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn origin_and_basis() {
        assert_eq!(Point::origin(3).coords(), &[0.0, 0.0, 0.0]);
        assert_eq!(Point::standard_basis(3, 1).coords(), &[0.0, 1.0, 0.0]);
        assert_eq!(Point::uniform(2, 0.5).coords(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_index_out_of_range_panics() {
        let _ = Point::standard_basis(2, 2);
    }

    #[test]
    fn distances() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.linf_distance(&b) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_dimension_mismatch_panics() {
        let a = Point::new(vec![0.0]);
        let b = Point::new(vec![0.0, 1.0]);
        let _ = a.distance(&b);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Point::new(vec![1.0, 2.0]);
        let b = Point::new(vec![3.0, 5.0]);
        assert_eq!((&a + &b).coords(), &[4.0, 7.0]);
        assert_eq!((&b - &a).coords(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).coords(), &[2.0, 4.0]);
    }

    #[test]
    fn convex_combination_of_two_points_is_segment_midpoint() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![2.0, 4.0]);
        let mid = Point::convex_combination(&[a, b], &[0.5, 0.5]);
        assert_eq!(mid.coords(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn convex_combination_with_bad_weights_panics() {
        let a = Point::new(vec![0.0]);
        let b = Point::new(vec![1.0]);
        let _ = Point::convex_combination(&[a, b], &[0.7, 0.7]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn convex_combination_with_negative_weight_panics() {
        let a = Point::new(vec![0.0]);
        let b = Point::new(vec![1.0]);
        let _ = Point::convex_combination(&[a, b], &[1.5, -0.5]);
    }

    #[test]
    fn centroid_of_triangle() {
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![3.0, 0.0]),
            Point::new(vec![0.0, 3.0]),
        ];
        let c = Point::centroid(&pts);
        assert!(c.approx_eq(&Point::new(vec![1.0, 1.0]), 1e-12));
    }

    #[test]
    fn approx_eq_uses_linf() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![1e-8, -1e-8]);
        assert!(a.approx_eq(&b, DEFAULT_TOLERANCE));
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn canonical_order_is_lexicographic_and_total() {
        assert_eq!(canonical_cmp(&[1.0, 5.0], &[2.0, 0.0]), Ordering::Less);
        assert_eq!(canonical_cmp(&[1.0, 5.0], &[1.0, 0.0]), Ordering::Greater);
        assert_eq!(canonical_cmp(&[-0.0], &[0.0]), Ordering::Less);
        assert_eq!(canonical_cmp(&[0.5, 0.5], &[0.5, 0.5]), Ordering::Equal);
    }

    #[test]
    fn display_formats_coordinates() {
        let p = Point::new(vec![0.5, 1.0]);
        assert_eq!(format!("{p}"), "(0.5000, 1.0000)");
    }

    #[test]
    fn from_conversions() {
        let p: Point = vec![1.0, 2.0].into();
        assert_eq!(p.dim(), 2);
        let q: Point = [3.0, 4.0].as_slice().into();
        assert_eq!(q.coords(), &[3.0, 4.0]);
    }
}
