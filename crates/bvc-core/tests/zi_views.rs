//! Step 2's `Z_i` built from borrowed views against the formulation it
//! replaced — one cloned, separately canonicalised `PointMultiset` per
//! subset — bit for bit, through a shared cache and a fresh one, and one
//! `gamma` trace event per subset on both the memoised (`d = 2`) and
//! closed-form (`d = 1`) routes.  The streamed fold the protocols take,
//! `GammaCache::subset_centroid`, against `build_zi_full_cached` +
//! `average_state`: the same centroid, count, counters and event stream.

use bvc_core::{average_state, build_zi_full_cached, build_zi_witness_cached};
use bvc_geometry::combinatorics::{binomial, Combinations};
use bvc_geometry::{gamma_point, GammaCache, Point, PointMultiset};
use bvc_trace::{GammaPath, TraceEvent, TraceHandle, Tracer};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// `raw[i]` cut to `d` coordinates and bent by `kinds[i]` toward duplicates,
/// near-duplicates and `±0.0`.
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
            _ => {}
        }
        out.push(Point::new(coords));
    }
    out
}

fn bits(zi: &[Point]) -> Vec<Vec<u64>> {
    zi.iter()
        .map(|p| p.coords().iter().map(|c| c.to_bits()).collect())
        .collect()
}

/// The reference: every subset cloned into its own multiset, in
/// `Combinations` order over the entry positions.
fn zi_by_cloning(entries: &[Point], quorum: usize, f: usize) -> Vec<Point> {
    let mut zi = Vec::new();
    let mut subsets = Combinations::new(entries.len(), quorum);
    while let Some(subset) = subsets.next_ref() {
        let members = subset.iter().map(|&i| entries[i].clone()).collect();
        zi.extend(gamma_point(&PointMultiset::new(members), f));
    }
    zi
}

/// Counts `gamma` events, and those answered on the `d = 1` closed form.
struct GammaTally(Arc<Mutex<(u128, u128)>>);

impl Tracer for GammaTally {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        if let TraceEvent::Gamma { path, .. } = event {
            let mut tally = self.0.lock().unwrap();
            tally.0 += 1;
            tally.1 += u128::from(*path == Some(GammaPath::D1ClosedForm));
        }
    }
}

fn gamma_events(run: impl FnOnce()) -> (u128, u128) {
    let tally = Arc::new(Mutex::new((0, 0)));
    {
        let handle = TraceHandle::new(Box::new(GammaTally(Arc::clone(&tally))), false);
        let _scope = bvc_trace::install(handle, 0);
        run();
    }
    let tally = *tally.lock().unwrap();
    tally
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zi_from_views_equals_zi_from_cloned_subsets(
        raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 6),
        kinds in prop::collection::vec(0usize..5, 6),
    ) {
        for d in 1..=3usize {
            let entries = biased(&raw, &kinds, d);
            let reference = bits(&zi_by_cloning(&entries, 5, 1));
            prop_assert_eq!(
                bits(&build_zi_full_cached(&entries, 5, 1, None)),
                reference.clone(),
                "d={}",
                d
            );
            let cache = GammaCache::new();
            let (events, closed_form) = gamma_events(|| for pass in 0..2 {
                assert_eq!(
                    bits(&build_zi_full_cached(&entries, 5, 1, Some(&cache))),
                    reference.clone(),
                    "d={d}, pass {pass}"
                );
            });
            prop_assert_eq!((events, cache.hits() + cache.misses()), (12, 12));
            if d == 1 {
                prop_assert_eq!((cache.len(), cache.hits(), closed_form), (0, 0, 12));
            } else {
                prop_assert!(cache.hits() >= 6, "the second pass is resident");
            }

            // The witness rule: each set is a whole list of its own.
            let sets = vec![entries[..5].to_vec(), Vec::new(), entries[1..].to_vec()];
            let direct: Vec<Point> = [&sets[0], &sets[2]]
                .iter()
                .filter_map(|set| gamma_point(&PointMultiset::new(set.to_vec()), 1))
                .collect();
            prop_assert_eq!(bits(&build_zi_witness_cached(&sets, 1, None)), bits(&direct));
            prop_assert_eq!(
                bits(&build_zi_witness_cached(&sets, 1, Some(&cache))),
                bits(&direct)
            );
        }
    }
}

#[test]
fn one_gamma_event_per_subset_on_the_cached_and_the_closed_form_route() {
    // The rsync-n9-d1 shape (9 entries, quorum 7) and its d = 2 twin.
    for d in [1usize, 2] {
        let entries: Vec<Point> = (0..9u32)
            .map(|i| Point::new((2..d as u32 + 2).map(|m| f64::from(i * m % 7)).collect()))
            .collect();
        let cache = GammaCache::new();
        let subsets = binomial(entries.len(), 7);
        for pass in 0..2 {
            let (events, closed_form) = gamma_events(|| {
                build_zi_full_cached(&entries, 7, 2, Some(&cache));
            });
            assert_eq!(events, subsets, "d={d}, pass {pass}");
            assert_eq!(closed_form, if d == 1 { subsets } else { 0 });
        }
        // A fresh cache (`None`) owes the same one event per subset.
        let fresh = gamma_events(|| drop(build_zi_full_cached(&entries, 7, 2, None)));
        assert_eq!(fresh.0, subsets, "d={d}, fresh cache");
    }
}

/// Every trace event `run` leaves, in order, with what it returned.
fn recorded<T>(run: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    struct Record(Arc<Mutex<Vec<TraceEvent>>>);
    impl Tracer for Record {
        fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }
    let events = Arc::new(Mutex::new(Vec::new()));
    let value = {
        let handle = TraceHandle::new(Box::new(Record(Arc::clone(&events))), false);
        let _scope = bvc_trace::install(handle, 0);
        run()
    };
    let events = events.lock().unwrap().clone();
    (value, events)
}

/// The centroid's coordinates as bit patterns, with the point count.
type Folded = (Option<Vec<u64>>, usize);

fn folded((centroid, count): (Option<Point>, usize)) -> Folded {
    let bits = centroid.map(|p| p.coords().iter().map(|c| c.to_bits()).collect());
    (bits, count)
}

/// Asserts that `subset_centroid` on a cache and `build_zi_full_cached` +
/// `average_state` on another give the same centroid, count, hit and miss
/// counters and `gamma` event stream, traced and then untraced (a second
/// pass also meets whatever the first left resident).
fn assert_fold_is_zi_then_average(entries: &[Point], quorum: usize, f: usize) {
    let refs: Vec<&Point> = entries.iter().collect();
    let (fold_cache, oracle_cache) = (GammaCache::new(), GammaCache::new());
    let oracle = || {
        let zi = build_zi_full_cached(entries, quorum, f, Some(&oracle_cache));
        let average = (!zi.is_empty()).then(|| average_state(&zi));
        folded((average, zi.len()))
    };
    let fold = || folded(fold_cache.subset_centroid(&refs, quorum, f));
    let shape = format!(
        "n={} d={} quorum={quorum} f={f}",
        entries.len(),
        entries[0].dim()
    );
    let (expected, expected_events) = recorded(oracle);
    let (got, events) = recorded(fold);
    assert_eq!(got, expected, "{shape}");
    assert_eq!(events, expected_events, "{shape}");
    assert_eq!(oracle(), expected, "{shape}, untraced");
    assert_eq!(fold(), expected, "{shape}, untraced");
    let counters = |c: &GammaCache| (c.hits(), c.misses(), c.len());
    assert_eq!(counters(&fold_cache), counters(&oracle_cache), "{shape}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_streamed_fold_is_zi_full_then_average(
        raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 2), 9),
        kinds in prop::collection::vec(0usize..8, 9),
        n1 in 1usize..10,
        n2 in 1usize..7,
        f in 0usize..4,
        quorum in 0usize..100,
    ) {
        for (d, n) in [(1usize, n1), (2, n2)] {
            let f = f.min(n - 1);
            // Any quorum above f, also below (d+1)f+1 where Γ can be empty.
            let quorum = f + 1 + quorum % (n - f);
            let mut entries = biased(&raw[..n], &kinds[..n], d);
            // Kinds 5–7 bend a scalar toward ties within and just past
            // `D1_TOLERANCE` (1e-7) and toward a `-0.0` twin of a `0.0`:
            // a short quorum's inverted interval then sits on either side
            // of the emptiness threshold.
            for i in 1..n {
                let previous = entries[i - 1].coord(0);
                let mut coords = entries[i].coords().to_vec();
                match kinds[i] {
                    5 => coords[0] = previous - 6e-8,
                    6 => coords[0] = previous + 3e-7,
                    7 if previous == 0.0 => coords[0] = -previous,
                    _ => continue,
                }
                entries[i] = Point::new(coords);
            }
            assert_fold_is_zi_then_average(&entries, quorum, f);
        }
    }
}

#[test]
fn the_fold_meets_its_oracle_at_the_benchmark_shape_and_past_one_word() {
    // rsync-n9-d1's Step 2: 9 reports, quorum 7, f = 2.
    let scalars =
        |values: &[f64]| -> Vec<Point> { values.iter().map(|&v| Point::new(vec![v])).collect() };
    let benchmark = [0.3, -0.0, 0.0, 0.7, 0.3, 1e-8, 0.9, 0.3 + 5e-8, 0.1];
    assert_fold_is_zi_then_average(&scalars(&benchmark), 7, 2);
    // Every quorum-3 interval of {0, 1e-8, 2e-8, 1} with f = 2 is inverted
    // (lo = y(2) > hi = y(0)): within D1_TOLERANCE among the three small
    // values, past it once 1 is in.
    assert_fold_is_zi_then_average(&scalars(&[0.0, 1e-8, 2e-8, 1.0]), 3, 2);
    // 66 entries do not fit one rank word: the per-subset path answers.
    let many: Vec<f64> = (0..66u32).map(|i| f64::from(i * 37 % 11) / 7.0).collect();
    assert_fold_is_zi_then_average(&scalars(&many), 65, 2);
    // A parent-chained cache counts d = 1 queries on the child alone.
    let parent = GammaCache::shared();
    let child = GammaCache::with_parent(Arc::clone(&parent));
    let entries = scalars(&benchmark);
    let refs: Vec<&Point> = entries.iter().collect();
    let _ = child.subset_centroid(&refs, 7, 2);
    assert_eq!((child.misses(), parent.hits() + parent.misses()), (36, 0));
}
