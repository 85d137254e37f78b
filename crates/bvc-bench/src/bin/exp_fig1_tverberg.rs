//! E9 — Figure 1: a Tverberg partition of 7 points in the plane (f = 2).
//!
//! The paper's only figure illustrates Tverberg's theorem on the vertices of
//! a regular heptagon: `n = 7 = (d+1)f + 1` points with `d = 2, f = 2` admit
//! a partition into `f + 1 = 3` parts whose convex hulls share a point.  This
//! experiment recomputes such a partition, verifies the common point lies in
//! every part hull and in `Γ(Y)`, and prints the partition.

use bvc_bench::{experiment_header, mark, Table};
use bvc_geometry::{
    common_point_of_partition, find_tverberg_partition, gamma_contains, tverberg_threshold,
    ConvexHull, Point, PointMultiset,
};

fn heptagon() -> PointMultiset {
    PointMultiset::new(
        (0..7)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / 7.0;
                Point::new(vec![theta.cos(), theta.sin()])
            })
            .collect(),
    )
}

fn main() {
    experiment_header(
        "E9: Figure 1 — Tverberg partition of a regular heptagon",
        "7 points in R^2 with f = 2 admit a partition into 3 parts whose hulls intersect; \
         every Tverberg point lies in Γ(Y) (Lemma 1)",
    );

    let d = 2;
    let f = 2;
    let y = heptagon();
    assert_eq!(y.len(), tverberg_threshold(d, f));

    let partition = find_tverberg_partition(&y, f + 1).expect("Tverberg's theorem");
    println!("heptagon vertices (indexed 0..6):");
    for (i, p) in y.iter().enumerate() {
        println!("  v{i} = {p}");
    }
    println!();
    println!("Tverberg partition found (canonical search order):");
    for (k, part) in partition.parts.iter().enumerate() {
        println!("  part {}: {:?}", k + 1, part);
    }
    println!("common point: {}", partition.point);
    println!();

    let parts = y.partition(&partition.parts);
    let mut table = Table::new(&["check", "holds"]);
    for (k, part) in parts.iter().enumerate() {
        let hull = ConvexHull::new(part.clone());
        table.row(&[
            format!("common point in hull of part {}", k + 1),
            mark(hull.contains(&partition.point)),
        ]);
    }
    table.row(&[
        "common point in Γ(Y) with f = 2 (Lemma 1)".to_string(),
        mark(gamma_contains(&y, f, &partition.point)),
    ]);
    table.row(&[
        "verification via common_point_of_partition".to_string(),
        mark(common_point_of_partition(&y, &partition.parts).is_some()),
    ]);
    table.print();
    println!();
    println!(
        "The partition matches the structure of Figure 1 (one triangle-like part and two \
         smaller parts whose hulls all contain the common point)."
    );
}
