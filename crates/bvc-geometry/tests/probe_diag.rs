//! Regression pin for the `gamma_point n=10 f=2 d=3` benchmark row — the
//! reproduction referenced from the README's "Case study: the n = 10,
//! f = 2, d = 3 outlier" section.
//!
//! Historically this was an `#[ignore]`d diagnostic: seed 1016 produced a
//! degenerate phase-1 LP that stalled the banded simplex, corrupted the
//! tableau, and sent the engine to the naive all-hulls fallback (over a
//! second per query in debug builds) which then *mis-reported* the
//! sub-tolerance Lemma-1 sliver as empty.  The lexicographic leaving rule
//! fixed both — first as a recovery run after a stall, now as `bvc-lp`'s
//! only pivot rule — so the diagnostic is a latency-free regression test:
//! every seed must find its Γ point, and none may take the naive fallback.  No timing assertions — only the engine path taken,
//! which is deterministic.

use bvc_geometry::{gamma_point_attributed, PointMultiset, WorkloadGenerator};
use bvc_trace::GammaPath;

#[test]
fn n10_f2_d3_corpus_finds_points_without_the_naive_fallback() {
    for s in 0..24u64 {
        let seed = 1000 + s;
        let y: PointMultiset = WorkloadGenerator::new(seed).box_points(10, 3, 0.0, 1.0);
        let (point, attribution) = gamma_point_attributed(&y, 2);
        assert!(
            point.is_some(),
            "seed {seed}: Lemma 1 holds (|Y| = 10 ≥ (d+1)f + 1 = 9), \
             so Γ must be non-empty"
        );
        assert_ne!(
            attribution.path,
            GammaPath::NaiveFallback,
            "seed {seed}: the lexicographic rule must keep the active-set \
             loop off the naive all-hulls fallback"
        );
    }
}
