//! The borrowed-view front end of the Γ cache against the owned-multiset
//! queries it replaced: same points bit for bit, same entries, same cache
//! levels, one `gamma` event per public query, and no entry in front of the
//! `d = 1` closed form.
//!
//! Inputs are biased toward what a canonical key can get wrong: exact
//! duplicates, near-duplicates one ulp-scale step apart, and `±0.0` (equal
//! under `==`, distinct under `total_cmp` and in the key's bit pattern).

use bvc_geometry::combinatorics::Combinations;
use bvc_geometry::{
    decision_point, gamma_point, gamma_point_of, CanonicalEntries, GammaCache, Point,
    PointMultiset, ValidityPredicate,
};
use bvc_trace::{CacheLevel, GammaPath, TraceEvent, TraceHandle, Tracer};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// `raw[i]` cut to `d` coordinates and bent by `kinds[i]`: a fresh point, a
/// copy of an earlier one, an earlier one nudged by 1e-9, or one with a
/// `+0.0` / `-0.0` / grid-snapped first coordinate.
fn biased(raw: &[Vec<f64>], kinds: &[usize], d: usize) -> Vec<Point> {
    let mut out: Vec<Point> = Vec::new();
    for (i, (coords, kind)) in raw.iter().zip(kinds).enumerate() {
        let mut coords = coords[..d].to_vec();
        match kind {
            1 if i > 0 => coords = out[i / 2].coords().to_vec(),
            2 if i > 0 => {
                coords = out[i - 1].coords().to_vec();
                coords[d - 1] += 1e-9;
            }
            3 => coords[0] = 0.0,
            4 => coords[0] = -0.0,
            5 => coords[0] = coords[0].round(),
            _ => {}
        }
        out.push(Point::new(coords));
    }
    out
}

fn bits(p: &Option<Point>) -> Option<Vec<u64>> {
    p.as_ref()
        .map(|p| p.coords().iter().map(|c| c.to_bits()).collect())
}

/// Cache level and engine path of one `gamma` event.
type Served = (CacheLevel, Option<GammaPath>);

/// Collects what every `gamma` event says about how it was served.
struct Levels(Arc<Mutex<Vec<Served>>>);

impl Tracer for Levels {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        if let TraceEvent::Gamma { cache, path, .. } = event {
            self.0.lock().unwrap().push((*cache, *path));
        }
    }
}

/// The `gamma` events `run` leaves, in order.
fn traced(run: impl FnOnce()) -> Vec<Served> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    {
        let handle = TraceHandle::new(Box::new(Levels(Arc::clone(&seen))), false);
        let _scope = bvc_trace::install(handle, 0);
        run();
    }
    let seen = seen.lock().unwrap().clone();
    seen
}

/// The events are the account of `cache`'s queries: one per public query,
/// the `local` ones exactly its hits, and a path only on an engine
/// computation.
fn accounts_for(events: &[Served], cache: &GammaCache) -> bool {
    let local = events.iter().filter(|e| e.0 == CacheLevel::Local).count();
    events.len() as u64 == cache.hits() + cache.misses()
        && local as u64 == cache.hits()
        && events
            .iter()
            .all(|e| e.1.is_none() || e.0 == CacheLevel::Miss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `cache.find_point(&y, f)` ≡ `gamma_point(&y, f)` by `to_bits`, on the
    /// first (engine) and second (resident, for d ≥ 2) pass, for whole
    /// multisets and for every quorum-sized view of them.
    #[test]
    fn cached_and_view_queries_equal_the_engine_bit_for_bit(
        raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 6),
        kinds in prop::collection::vec(0usize..6, 6),
    ) {
        for d in 1..=3usize {
            let pts = biased(&raw, &kinds, d);
            let y = PointMultiset::new(pts.clone());
            let cache = GammaCache::new();
            let events = traced(|| for pass in 0..2 {
                assert_eq!(
                    bits(&cache.find_point(&y, 1)),
                    bits(&gamma_point(&y, 1)),
                    "whole multiset, d={d}, pass {pass}"
                );
                let mut canonical = CanonicalEntries::new(&pts);
                let mut subsets = Combinations::new(pts.len(), 5);
                while let Some(idx) = subsets.next_ref() {
                    let direct = bits(&gamma_point(&y.select(idx), 1));
                    assert_eq!(
                        bits(&cache.find_point_of(canonical.subset(idx), 1)),
                        direct.clone(),
                        "cached view {idx:?}, d={d}, pass {pass}"
                    );
                    assert_eq!(
                        bits(&gamma_point_of(canonical.subset(idx), 1)),
                        direct,
                        "uncached view {idx:?}, d={d}"
                    );
                }
            });
            prop_assert!(accounts_for(&events, &cache));
            if d == 1 {
                prop_assert_eq!(cache.len(), 0);
            } else {
                prop_assert!(cache.hits() >= 7, "second pass is resident (d={})", d);
            }
        }
    }

    /// `cache.decision_point(&y, f, mode)` ≡ `decision_point(&y, f, mode)` by
    /// `to_bits` under all three modes (and the two that normalise to
    /// strict), on the first (engine) and second (resident) pass: the cache
    /// and the uncached rule are one dispatch.
    #[test]
    fn cached_decisions_equal_the_uncached_rule_bit_for_bit(
        raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 6),
        kinds in prop::collection::vec(0usize..6, 6),
    ) {
        let modes = [
            ValidityPredicate::Strict,
            ValidityPredicate::AlphaScaled(0.0),
            ValidityPredicate::AlphaScaled(0.5),
            ValidityPredicate::KRelaxed(1),
            ValidityPredicate::KRelaxed(2),
            ValidityPredicate::KRelaxed(3),
        ];
        for d in 1..=3usize {
            let y = PointMultiset::new(biased(&raw, &kinds, d));
            let cache = GammaCache::new();
            let events = traced(|| for pass in 0..2 {
                for f in 1..=2usize {
                    for mode in &modes {
                        assert_eq!(
                            bits(&cache.decision_point(&y, f, mode)),
                            bits(&decision_point(&y, f, mode)),
                            "{mode}, d={d}, f={f}, pass {pass}"
                        );
                    }
                }
            });
            prop_assert!(accounts_for(&events, &cache));
        }
    }

    /// A view and the owned multiset of the same members — given in any
    /// order — land on one entry: one miss, then hits, `len() == 1`.
    #[test]
    fn a_view_and_its_multiset_share_one_entry(
        raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 2), 6),
        kinds in prop::collection::vec(0usize..6, 6),
    ) {
        let pts = biased(&raw, &kinds, 2);
        let idx = [5usize, 0, 3, 2];
        let members: Vec<Point> = idx.iter().map(|&i| pts[i].clone()).collect();
        let cache = GammaCache::new();
        let via_view = cache.find_point_of(CanonicalEntries::new(&pts).subset(&idx), 1);
        prop_assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let via_multiset = cache.find_point(&PointMultiset::new(members.clone()), 1);
        let mut reversed = members;
        reversed.reverse();
        let via_reversed = cache.find_point(&PointMultiset::new(reversed), 1);
        prop_assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
        prop_assert_eq!(bits(&via_view), bits(&via_multiset));
        prop_assert_eq!(bits(&via_view), bits(&via_reversed));
    }

    /// After any `d = 1` run the cache holds nothing and hit nothing: every
    /// strict query — point, view, strict-normalised decision, through a
    /// child or not — is an engine computation on
    /// path `d1-closed-form`, and the parent is never asked.
    #[test]
    fn d1_queries_are_answered_in_closed_form_and_never_stored(
        raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 1), 7),
        kinds in prop::collection::vec(0usize..6, 7),
    ) {
        let pts = biased(&raw, &kinds, 1);
        let y = PointMultiset::new(pts.clone());
        let parent = GammaCache::shared();
        let child = GammaCache::with_parent(Arc::clone(&parent));
        let mut queries = 0;
        let events = traced(|| {
            for _ in 0..2 {
                for f in 1..=3usize {
                    assert_eq!(bits(&child.find_point(&y, f)), bits(&gamma_point(&y, f)));
                    let strict = child.decision_point(&y, f, &ValidityPredicate::KRelaxed(1));
                    assert_eq!(bits(&strict), bits(&gamma_point(&y, f)));
                    queries += 2;
                }
                let mut canonical = CanonicalEntries::new(&pts);
                let mut subsets = Combinations::new(pts.len(), 5);
                while let Some(idx) = subsets.next_ref() {
                    let direct = gamma_point(&y.select(idx), 2);
                    assert_eq!(
                        bits(&child.find_point_of(canonical.subset(idx), 2)),
                        bits(&direct)
                    );
                    queries += 1;
                }
            }
        });
        prop_assert_eq!((child.len(), child.hits(), child.misses()), (0, 0, queries));
        prop_assert_eq!((parent.len(), parent.hits(), parent.misses()), (0, 0, 0));
        prop_assert_eq!(events.len() as u64, queries, "one gamma event per public query");
        prop_assert!(events
            .iter()
            .all(|e| *e == (CacheLevel::Miss, Some(GammaPath::D1ClosedForm))));
    }
}

/// A fixed script through a child → parent chain yields the level sequence
/// the owned-multiset front end produced (checked against the parent commit
/// with the two view queries spelt as `find_point(&y.select(..))`), a path on
/// every strict engine computation and none on a relaxed one, and each
/// cache's own hit/miss split.
#[test]
fn a_child_parent_chain_keeps_its_level_sequence() {
    let pts: Vec<Point> = [
        [0.0, 0.0],
        [4.0, 0.0],
        [0.0, 4.0],
        [4.0, 4.0],
        [2.0, 2.0],
        [1.0, 3.0],
    ]
    .iter()
    .map(|c| Point::new(c.to_vec()))
    .collect();
    let a = PointMultiset::new(pts[..5].to_vec());
    let a_reversed = PointMultiset::new(pts[..5].iter().rev().cloned().collect());
    let b_idx = [5usize, 1, 2, 3, 0];
    let b = PointMultiset::new(b_idx.iter().map(|&i| pts[i].clone()).collect());
    let alpha = ValidityPredicate::AlphaScaled(2.0);
    let k1 = ValidityPredicate::KRelaxed(1);

    let parent = GammaCache::shared();
    let first = GammaCache::with_parent(Arc::clone(&parent));
    let second = GammaCache::with_parent(Arc::clone(&parent));
    let events = traced(|| {
        first.find_point(&a, 1); // engine
        first.find_point(&a, 1); // own entry
        second.find_point(&a_reversed, 1); // the parent's entry, other order
        second.find_point_of(CanonicalEntries::new(&pts).subset(&[0, 1, 2, 3, 4]), 1);
        second.find_point_of(CanonicalEntries::new(&pts).subset(&b_idx), 1); // engine
        first.find_point(&b, 1); // the parent's entry, put there by a view
        first.decision_point(&a, 2, &alpha); // relaxed engine, unattributed
        second.decision_point(&a, 2, &alpha);
        second.decision_point(&a, 2, &alpha);
        // k-relaxed at the root: the strict leg is a public query of the
        // parent (own entry by now), then the decision itself.
        first.decision_point(&a, 1, &k1);
        second.decision_point(&a, 1, &k1);
    });
    use CacheLevel::{Local, Miss, Parent};
    let levels: Vec<CacheLevel> = events.iter().map(|e| e.0).collect();
    assert_eq!(
        levels,
        [Miss, Local, Parent, Local, Miss, Parent, Miss, Parent, Local, Local, Miss, Parent]
    );
    let miss_paths: Vec<Option<GammaPath>> =
        events.iter().filter(|e| e.0 == Miss).map(|e| e.1).collect();
    // The two relaxed engines carry no ladder path.
    assert_eq!(
        miss_paths,
        [
            Some(GammaPath::ProbeHit),
            Some(GammaPath::ProbeHit),
            None,
            None
        ]
    );
    assert!(events.iter().all(|e| e.0 == Miss || e.1.is_none()));
    let split = |c: &GammaCache| (c.hits(), c.misses());
    assert_eq!(
        (split(&first), split(&second), split(&parent)),
        ((1, 4), (2, 4), (5, 4))
    );
    assert_eq!((first.len(), second.len(), parent.len()), (4, 4, 4));
}
