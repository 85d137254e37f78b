//! Step 2's `Z_i` built from borrowed views against the formulation it
//! replaced — one cloned, separately canonicalised `PointMultiset` per
//! subset — bit for bit, cached and uncached, and one `gamma` trace event per
//! subset on both the memoised (`d = 2`) and closed-form (`d = 1`) routes.

use bvc_core::{build_zi_full, build_zi_full_cached, build_zi_witness, build_zi_witness_cached};
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
            prop_assert_eq!(bits(&build_zi_full(&entries, 5, 1)), reference.clone(), "d={}", d);
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
            prop_assert_eq!(bits(&build_zi_witness(&sets, 1)), bits(&direct));
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
        // Uncached, the engine is asked directly and no event is owed.
        assert_eq!(gamma_events(|| drop(build_zi_full(&entries, 7, 2))).0, 0);
    }
}
