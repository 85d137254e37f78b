//! Regression pin for the `gamma_point n=10 f=2 d=3` benchmark row — the
//! reproduction referenced from the README's "Case study: the n = 10,
//! f = 2, d = 3 outlier" section.
//!
//! Historically this was an `#[ignore]`d diagnostic: seed 1016 produced a
//! degenerate phase-1 LP that stalled the banded simplex, corrupted the
//! tableau, and sent the engine to the naive all-hulls fallback (over a
//! second per query in debug builds) which then *mis-reported* the
//! sub-tolerance Lemma-1 sliver as empty.  The lexicographic leaving rule
//! fixed both, and the depth region in space then replaced the subset hulls
//! on this path altogether: every seed must find its Γ point through the
//! region, a probe hit with no simplex and a miss with at most its one
//! centre LP.  No timing assertions — only the engine path taken and the
//! solves counted, which are deterministic.

use bvc_geometry::{gamma_point_attributed, PointMultiset, WorkloadGenerator};
use bvc_trace::{GammaPath, TraceEvent, TraceHandle, Tracer};
use std::sync::{Arc, Mutex};

/// Counts the simplex events it is handed.
struct Solves(Arc<Mutex<usize>>);

impl Tracer for Solves {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        if matches!(event, TraceEvent::Simplex { .. }) {
            *self.0.lock().unwrap() += 1;
        }
    }
}

#[test]
fn n10_f2_d3_corpus_finds_points_without_the_naive_fallback() {
    for s in 0..24u64 {
        let seed = 1000 + s;
        let y: PointMultiset = WorkloadGenerator::new(seed).box_points(10, 3, 0.0, 1.0);
        let count = Arc::new(Mutex::new(0));
        let (point, attribution) = {
            let handle = TraceHandle::new(Box::new(Solves(Arc::clone(&count))), false);
            let _scope = bvc_trace::install(handle, 0);
            gamma_point_attributed(&y, 2)
        };
        let solves = *count.lock().unwrap();
        assert!(
            point.is_some(),
            "seed {seed}: Lemma 1 holds (|Y| = 10 ≥ (d+1)f + 1 = 9), \
             so Γ must be non-empty"
        );
        let allowed = match attribution.path {
            GammaPath::ProbeHit => 0,
            GammaPath::DepthRegion => 1,
            path => panic!("seed {seed}: {path:?} answered; the depth region owns d = 3"),
        };
        assert!(
            solves <= allowed,
            "seed {seed}: {solves} simplex solves on {:?}",
            attribution.path
        );
    }
}
