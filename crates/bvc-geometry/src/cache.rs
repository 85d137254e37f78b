//! Process-shareable memoisation of Γ queries.
//!
//! [`GammaCache`] memoises [`find_point`](GammaCache::find_point) and
//! [`decision_point`](GammaCache::decision_point) results keyed by a
//! **canonical multiset key**: the members are sorted lexicographically (under `f64::total_cmp`)
//! and their coordinate bit patterns concatenated, so two multisets that
//! differ only in member order share one entry.  Because every Γ query is a
//! deterministic, order-invariant function of the multiset (see
//! [`crate::gamma`]), serving a result from the cache is observationally
//! identical to recomputing it — which is what makes the cache safe to share
//! across processes, rounds, and threads (`Arc<GammaCache>` =
//! [`SharedGammaCache`]).
//!
//! A point query takes a borrowed [`SubsetView`] end to end: the key is
//! gathered from the view (no point cloned, nothing sorted per query) and the
//! owned canonical multiset is built only when an engine has to run.
//!
//! What the reuse is, as measured on the benchmark of record (`rsync-n9-d1`
//! traffic, `Equivocate`): a Byzantine sender forges a different value per
//! (round, receiver), so honest processes of one synchronous round do *not*
//! hold the same received vector — one subset in `C(n, n−f)` is common to two
//! receivers.  The hits that exist are one process asking about the same
//! sub-multiset again once honest states coincide (36 index subsets, 4
//! distinct multisets), plus whole repeated instances served through a
//! long-lived parent (`svc-warm`).
//!
//! **The cache stores no answer the engine gives in closed form.**  A strict
//! `d = 1` query is the trimmed interval (0.05 µs off a view when measured;
//! a hit in front of it cost 445 ns and a miss-and-insert 1.8 µs), so such
//! queries are answered without a key, counted as engine computations on
//! path `d1-closed-form`, traced, and never stored.  Step 2 asks them
//! `C(n, n−f)` at a time: [`subset_centroid`](GammaCache::subset_centroid)
//! sorts a round's scalars once and reads every subset's interval by rank,
//! folding the midpoints into the centroid as they stream — no view, point
//! or `Vec<Point>` per subset, one miss and (under a tracer) one event each.
//! On `rsync-n9-d1` that is 18 648 queries a decision; a loop over its
//! shape (nine scalars, quorum 7, `f = 2`, a shared 2-core box) reads
//! 26–32 ns a subset, against 126–167 ns for a `find_point_of` per subset
//! plus `Point::centroid`.
//!
//! Memory is bounded: when the map reaches the configured capacity it is
//! wholesale-cleared (deterministically; eviction can never change results,
//! only cost).
//!
//! **A query is counted once, in its trace event.**  Every public query
//! leaves exactly one `gamma` event naming the cache level that answered it,
//! the engine path and the probe outcome; `trace-report` and the benchmark
//! of record read the partition from there.  The cache itself keeps two
//! counters, `hits` and `misses` — what `ServiceStats`' hit rates and a
//! run's `gamma_queries` need.

use crate::combinatorics::Combinations;
use crate::gamma::{
    d1_subset_midpoints, engine_point, CanonicalEntries, GammaAttribution, SubsetView,
    D1_FOLD_ENTRIES,
};
use crate::multiset::PointMultiset;
use crate::point::Point;
use crate::relaxed::{ModeKey, ValidityPredicate};
use bvc_trace::{CacheLevel, GammaPath, GammaQueryKind, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A Γ-results cache shared between the processes of a run.
pub type SharedGammaCache = Arc<GammaCache>;

/// Canonical identity of a `(Y, f, mode)` query: the fault bound, the
/// dimension, the validity regime, and the bit patterns of the canonically
/// ordered members.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MultisetKey {
    f: usize,
    dim: usize,
    mode: ModeKey,
    bits: Vec<u64>,
}

/// Key gathered from a view (canonical by construction): no point is cloned
/// and nothing is sorted.
fn key_of(view: SubsetView<'_>, f: usize, mode: ModeKey) -> MultisetKey {
    let mut bits = Vec::with_capacity(view.len() * view.dim());
    for p in view.iter() {
        bits.extend(p.coords().iter().map(|c| c.to_bits()));
    }
    MultisetKey {
        f,
        dim: view.dim(),
        mode,
        bits,
    }
}

/// Step 2 needs at least one subset: `0 < quorum ≤ entries`.
fn check_quorum(entries: usize, quorum: usize) {
    assert!(quorum > 0, "quorum must be positive");
    assert!(
        entries >= quorum,
        "need at least {quorum} entries, got {entries}"
    );
}

/// The `gamma` event of one query of shape `(len, f, d)` under `mode`,
/// answered at `level` by `attr`'s path, given whether a point was found.
fn gamma_event(
    mode: ModeKey,
    level: CacheLevel,
    attr: Option<GammaAttribution>,
    (len, f, d): (usize, usize, usize),
) -> impl Fn(bool) -> TraceEvent {
    move |found| TraceEvent::Gamma {
        kind: match mode {
            ModeKey::Strict => GammaQueryKind::Point,
            ModeKey::Alpha(_) | ModeKey::K(_) => GammaQueryKind::Decision,
        },
        cache: level,
        path: attr.map(|a| a.path),
        probe_missed: attr.is_some_and(|a| a.probe_missed),
        len,
        f,
        d,
        found,
    }
}

/// How a parent-chain outcome looks one level down: any ancestor hit is a
/// parent hit for the child; an engine computation stays a miss.
fn demote(parent_level: CacheLevel) -> CacheLevel {
    match parent_level {
        CacheLevel::Local | CacheLevel::Parent => CacheLevel::Parent,
        CacheLevel::Miss => CacheLevel::Miss,
    }
}

/// Memoises safe-area queries across processes and rounds.
///
/// A cache may chain to a **parent** ([`Self::with_parent`]): misses are
/// answered by the parent (which memoises them in turn) instead of the Γ
/// engine.  A long-lived parent shared by many runs then measures exactly
/// the *cross-run* reuse — same-run repeats are absorbed by the per-run
/// child, so every parent hit is a query some earlier run already paid for.
#[derive(Debug)]
pub struct GammaCache {
    points: Mutex<HashMap<MultisetKey, Option<Point>>>,
    capacity: usize,
    /// Queries answered from this cache's own map.
    hits: AtomicU64,
    /// Queries resolved elsewhere: by the parent chain or the engine.
    misses: AtomicU64,
    parent: Option<SharedGammaCache>,
}

impl Default for GammaCache {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The cached values are plain data; a panic elsewhere cannot leave them
    // half-written, so poisoning is ignorable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GammaCache {
    /// Default capacity: enough for the longest restricted-round executions
    /// the scenario engine drives (tens of thousands of distinct multisets)
    /// while staying far below typical memory budgets.
    const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            points: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            parent: None,
        }
    }

    /// Creates a cache ready for sharing across processes.
    pub fn shared() -> SharedGammaCache {
        Arc::new(Self::new())
    }

    /// Creates a default-capacity cache whose misses are resolved (and
    /// memoised) by `parent` instead of the Γ engine.
    ///
    /// Chaining is observationally transparent — every Γ query is a pure
    /// function of `(Y, f, mode)`, so a parent answer is identical to a
    /// recomputation.  The parent's hit counter counts exactly the queries
    /// that this child missed but some earlier sibling already computed.
    pub fn with_parent(parent: SharedGammaCache) -> Self {
        Self {
            parent: Some(parent),
            ..Self::new()
        }
    }

    /// Memoised [`gamma_point`](crate::gamma_point): the deterministically
    /// chosen point of `Γ(y)`, or `None` when the safe area is empty.
    ///
    /// # Panics
    ///
    /// Panics if `f >= y.len()`.
    pub fn find_point(&self, y: &PointMultiset, f: usize) -> Option<Point> {
        self.find_point_of(CanonicalEntries::new(y.points()).all(), f)
    }

    /// [`find_point`](Self::find_point) of a sub-multiset named by a
    /// borrowed view: same entry, same trace event as the query for
    /// `view.to_multiset()`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= view.len()`.
    pub fn find_point_of(&self, view: SubsetView<'_>, f: usize) -> Option<Point> {
        self.point_query(view, f, ModeKey::Strict)
    }

    /// Memoised [`decision_point`](crate::relaxed::decision_point): the
    /// deterministic Step-2 decision value for `(y, f)` under the given
    /// validity mode.  Modes that are semantically strict (`Strict`,
    /// `AlphaScaled(0)`, `KRelaxed(k ≥ d)`) share the strict
    /// [`find_point`](Self::find_point) entries; genuinely relaxed modes get
    /// their own — which is what lets the `n − f` honest processes of an
    /// exact run below the strict threshold compute the relaxed safe-area
    /// intersection once system-wide instead of once each.
    ///
    /// # Panics
    ///
    /// Panics if `f >= y.len()` or the mode's parameter is invalid.
    pub fn decision_point(
        &self,
        y: &PointMultiset,
        f: usize,
        mode: &ValidityPredicate,
    ) -> Option<Point> {
        let mode = ModeKey::normalise(mode, y.dim());
        self.point_query(CanonicalEntries::new(y.points()).all(), f, mode)
    }

    /// Step 2 of the iterative algorithms (Sections 3.2 and 4) on one
    /// round's entries: the centroid of the strict Γ points of every
    /// `quorum`-subset of `entries`, summed in [`Combinations`] order over
    /// their positions, and how many points there were (`None` when every
    /// subset's Γ is empty).  Bit for bit `Point::centroid` of
    /// [`subset_points`](Self::subset_points), with the same counts and
    /// the same `gamma` events.
    ///
    /// At `d = 1` (up to 64 entries: a subset is one `u64` of ranks) the
    /// scalars are sorted once and each subset's closed-form interval is
    /// read by rank; its midpoint is folded in as an `f64` — no view, no
    /// point, no `Vec<Point>`.  Each subset is still one query: one miss
    /// and, under a tracer, one `d1-closed-form` event.  Any other shape
    /// asks one [`find_point_of`](Self::find_point_of) per subset.
    ///
    /// # Panics
    ///
    /// Panics if `quorum == 0`, `entries.len() < quorum`, `f >= quorum` or
    /// the entries do not share a dimension.
    pub fn subset_centroid(
        &self,
        entries: &[&Point],
        quorum: usize,
        f: usize,
    ) -> (Option<Point>, usize) {
        check_quorum(entries.len(), quorum);
        if entries[0].dim() > 1 || entries.len() > D1_FOLD_ENTRIES {
            let points = self.subset_points(entries, quorum, f);
            return (
                (!points.is_empty()).then(|| Point::centroid(&points)),
                points.len(),
            );
        }
        let traced = bvc_trace::is_active().then(|| {
            let attr = GammaAttribution {
                path: GammaPath::D1ClosedForm,
                probe_missed: false,
            };
            gamma_event(
                ModeKey::Strict,
                CacheLevel::Miss,
                Some(attr),
                (quorum, f, 1),
            )
        });
        let (mut queries, mut midpoints) = (0, Vec::new());
        d1_subset_midpoints(entries, quorum, f, |mid| {
            queries += 1;
            if let Some(event) = &traced {
                bvc_trace::emit(|| event(mid.is_some()));
            }
            midpoints.extend(mid);
        });
        self.note(CacheLevel::Miss, queries);
        // `Point::centroid`'s sum: weight `1/|Z_i|`, from 0.0, in order.
        let w = 1.0 / midpoints.len() as f64;
        let mean = midpoints.iter().fold(0.0, |sum, x| sum + w * x);
        let centroid = (!midpoints.is_empty()).then(|| Point::new(vec![mean]));
        (centroid, midpoints.len())
    }

    /// The strict Γ point of every `quorum`-subset of `entries` whose Γ is
    /// non-empty, in [`Combinations`] order over their positions: one
    /// [`find_point_of`](Self::find_point_of) per subset.  The entries are
    /// put in canonical order **once**, and each subset is a borrowed view
    /// into that order — no point is cloned and nothing is sorted per
    /// subset.
    ///
    /// # Panics
    ///
    /// Panics if `quorum == 0`, `entries.len() < quorum`, `f >= quorum` or
    /// the entries do not share a dimension.
    pub fn subset_points(&self, entries: &[&Point], quorum: usize, f: usize) -> Vec<Point> {
        check_quorum(entries.len(), quorum);
        let mut canonical = CanonicalEntries::new(entries.iter().copied());
        let mut points = Vec::new();
        let mut subsets = Combinations::new(entries.len(), quorum);
        while let Some(subset) = subsets.next_ref() {
            points.extend(self.find_point_of(canonical.subset(subset), f));
        }
        points
    }

    /// The one public point query: resolve, then record exactly one `Gamma`
    /// trace event.
    fn point_query(&self, view: SubsetView<'_>, f: usize, mode: ModeKey) -> Option<Point> {
        let (value, level, attr) = self.resolve_point(view, f, mode);
        let event = gamma_event(mode, level, attr, (view.len(), f, view.dim()));
        bvc_trace::emit(|| event(value.is_some()));
        value
    }

    /// Cache lookup + resolution without event emission: one `Gamma` trace
    /// event must be recorded per *public* query, so parent delegation goes
    /// through this levelled function.  Each cache on the chain still counts
    /// its own hit or miss.  Only the strict rule attributes a path; relaxed
    /// outcomes carry none.
    fn resolve_point(
        &self,
        view: SubsetView<'_>,
        f: usize,
        mode: ModeKey,
    ) -> (Option<Point>, CacheLevel, Option<GammaAttribution>) {
        // The cache stores no answer the engine gives in closed form: a
        // strict `d = 1` query has no key, asks no parent, leaves no entry.
        let key = (mode != ModeKey::Strict || view.dim() > 1).then(|| key_of(view, f, mode));
        if let Some(cached) = key
            .as_ref()
            .and_then(|k| lock(&self.points).get(k).cloned())
        {
            self.note(CacheLevel::Local, 1);
            return (cached, CacheLevel::Local, None);
        }
        let (value, level, attr) = match (&self.parent, &key) {
            (Some(parent), Some(_)) => {
                let (value, parent_level, attr) = parent.resolve_point(view, f, mode);
                (value, demote(parent_level), attr)
            }
            // The k-relaxed rule's strict leg goes through the *public*
            // query so it shares the `ModeKey::Strict` entry instead of
            // re-solving the strict LP on every relaxed miss — it is a full
            // strict query in its own right and keeps its own count and
            // trace event.
            _ => {
                let (value, attr) = engine_point(view, f, mode, |v, f| self.find_point_of(v, f));
                (value, CacheLevel::Miss, attr)
            }
        };
        self.note(level, 1);
        if let Some(key) = key {
            let mut map = lock(&self.points);
            if map.len() >= self.capacity {
                map.clear();
            }
            map.insert(key, value.clone());
        }
        (value, level, attr)
    }

    /// Records this cache's own view of one resolved query: `Local` is a
    /// hit; `Parent` and `Miss` are both misses of this cache's map (the
    /// finer split is the trace event's).
    fn note(&self, level: CacheLevel, queries: u64) {
        match level {
            CacheLevel::Local => self.hits.fetch_add(queries, Ordering::Relaxed),
            CacheLevel::Parent | CacheLevel::Miss => {
                self.misses.fetch_add(queries, Ordering::Relaxed)
            }
        };
    }

    /// Queries answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries this cache's own map could not answer (the parent chain or
    /// the engine did).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        lock(&self.points).len()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma_point;
    use bvc_trace::{GammaPath, TraceHandle, Tracer};

    /// Cache level and engine path of one `gamma` event.
    type Served = (CacheLevel, Option<GammaPath>);

    /// Collects what every `gamma` event says about how it was served.
    struct Levels(Arc<Mutex<Vec<Served>>>);

    impl Tracer for Levels {
        fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
            if let TraceEvent::Gamma { cache, path, .. } = event {
                lock(&self.0).push((*cache, *path));
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
        let seen = lock(&seen).clone();
        seen
    }

    fn square_plus_centre() -> PointMultiset {
        PointMultiset::new(vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![4.0, 0.0]),
            Point::new(vec![0.0, 4.0]),
            Point::new(vec![4.0, 4.0]),
            Point::new(vec![2.0, 2.0]),
        ])
    }

    #[test]
    fn cached_find_point_matches_uncached() {
        let cache = GammaCache::new();
        let y = square_plus_centre();
        let direct = gamma_point(&y, 1).unwrap();
        let cached = cache.find_point(&y, 1).unwrap();
        assert!(direct.approx_eq(&cached, 1e-15));
        assert_eq!(cache.misses(), 1);
        let again = cache.find_point(&y, 1).unwrap();
        assert!(direct.approx_eq(&again, 1e-15));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn reordered_multisets_share_an_entry() {
        let cache = GammaCache::new();
        let y = square_plus_centre();
        let mut reordered = y.points().to_vec();
        reordered.reverse();
        let reordered = PointMultiset::new(reordered);
        let a = cache.find_point(&y, 1).unwrap();
        let b = cache.find_point(&reordered, 1).unwrap();
        assert!(a.approx_eq(&b, 1e-15));
        assert_eq!(cache.misses(), 1, "canonical keying shares the entry");
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn capacity_eviction_keeps_answers_correct() {
        let cache = GammaCache::with_capacity(2);
        for i in 0..5u8 {
            let y = PointMultiset::new(vec![
                Point::new(vec![0.0, 0.0]),
                Point::new(vec![f64::from(i), 1.0]),
                Point::new(vec![2.0, 0.0]),
                Point::new(vec![1.0, 3.0]),
            ]);
            let cached = cache.find_point(&y, 1);
            let direct = gamma_point(&y, 1);
            assert_eq!(cached.is_some(), direct.is_some());
            if let (Some(c), Some(d)) = (cached, direct) {
                assert!(c.approx_eq(&d, 1e-15));
            }
            assert!((1..=2).contains(&cache.len()), "every answer is stored");
        }
        assert_eq!(cache.misses(), 5);
    }

    #[test]
    fn scalar_queries_are_never_stored() {
        // The cache stores no answer the engine gives in closed form: the
        // same d = 1 query twice is two engine computations, no entry.
        let cache = GammaCache::with_capacity(2);
        let y = PointMultiset::new(vec![
            Point::new(vec![0.0]),
            Point::new(vec![1.0]),
            Point::new(vec![2.0]),
        ]);
        let events = traced(|| {
            for _ in 0..2 {
                assert_eq!(cache.find_point(&y, 1), gamma_point(&y, 1));
            }
        });
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (0, 0, 2));
        assert_eq!(
            events,
            [(CacheLevel::Miss, Some(GammaPath::D1ClosedForm)); 2]
        );
    }

    #[test]
    fn empty_regions_are_cached_too() {
        let cache = GammaCache::new();
        let y = PointMultiset::new(vec![
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![0.0, 0.0]),
        ]);
        assert!(cache.find_point(&y, 1).is_none());
        assert!(cache.find_point(&y, 1).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn relaxed_decision_points_are_cached_per_mode() {
        let cache = GammaCache::new();
        let y = square_plus_centre();
        // Strict-normalised modes share the strict entry.
        let strict = cache.find_point(&y, 1).unwrap();
        let zero = cache
            .decision_point(&y, 1, &ValidityPredicate::AlphaScaled(0.0))
            .unwrap();
        assert_eq!(strict.coords(), zero.coords());
        assert_eq!(cache.misses(), 1, "α = 0 shares the strict entry");
        assert_eq!(cache.hits(), 1);
        // A genuinely relaxed mode gets its own entry, then hits it.
        let first = cache.decision_point(&y, 2, &ValidityPredicate::AlphaScaled(2.0));
        let again = cache.decision_point(&y, 2, &ValidityPredicate::AlphaScaled(2.0));
        assert_eq!(
            first.as_ref().map(|p| p.coords()),
            again.as_ref().map(|p| p.coords())
        );
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        // The cached relaxed value equals the uncached decision rule.
        let direct = crate::relaxed::decision_point(&y, 2, &ValidityPredicate::AlphaScaled(2.0));
        assert_eq!(
            first.map(|p| p.coords().to_vec()),
            direct.map(|p| p.coords().to_vec())
        );
    }

    #[test]
    fn parent_chaining_answers_child_misses_and_counts_cross_run_reuse() {
        let parent = GammaCache::shared();
        let y = square_plus_centre();

        // First "run": a fresh child misses, the parent misses, the engine
        // answers; both layers memoise.
        let first = GammaCache::with_parent(Arc::clone(&parent));
        let a = first.find_point(&y, 1).unwrap();
        assert_eq!((first.hits(), first.misses()), (0, 1));
        assert_eq!((parent.hits(), parent.misses()), (0, 1));
        // Same-run repeat: absorbed by the child, parent untouched.
        let _ = first.find_point(&y, 1);
        assert_eq!(first.hits(), 1);
        assert_eq!(parent.hits(), 0);

        // Second "run": a new child misses but the parent hits — the hit
        // counts exactly the cross-run reuse.
        let second = GammaCache::with_parent(Arc::clone(&parent));
        let b = second.find_point(&y, 1).unwrap();
        assert!(a.approx_eq(&b, 0.0), "parent answers are bit-identical");
        assert_eq!((second.hits(), second.misses()), (0, 1));
        assert_eq!((parent.hits(), parent.misses()), (1, 1));
    }

    #[test]
    fn parent_chaining_is_observationally_transparent() {
        let parent = GammaCache::shared();
        let chained = GammaCache::with_parent(Arc::clone(&parent));
        let cold = GammaCache::new();
        let y = square_plus_centre();
        for (f, alpha) in [(1usize, 0.0), (1, 2.0), (2, 2.0)] {
            let mode = ValidityPredicate::AlphaScaled(alpha);
            let via_parent = chained.decision_point(&y, f, &mode);
            let direct = cold.decision_point(&y, f, &mode);
            assert_eq!(
                via_parent.map(|p| p.coords().to_vec()),
                direct.map(|p| p.coords().to_vec())
            );
        }
    }

    #[test]
    fn one_event_per_public_query_names_its_level_and_path() {
        let parent = GammaCache::shared();
        let child = GammaCache::with_parent(Arc::clone(&parent));
        let sibling = GammaCache::with_parent(Arc::clone(&parent));
        let y = square_plus_centre();
        let relaxed = ValidityPredicate::AlphaScaled(2.0);
        let events = traced(|| {
            // Engine computation through the chain: one event, path named.
            let _ = child.find_point(&y, 1);
            // Local hit.
            let _ = child.find_point(&y, 1);
            // A sibling misses locally but the parent answers.
            let _ = sibling.find_point(&y, 1);
            // A relaxed decision is an engine computation without a path.
            let _ = child.decision_point(&y, 2, &relaxed);
        });
        use CacheLevel::{Local, Miss, Parent};
        assert_eq!(
            events,
            [
                (Miss, Some(GammaPath::ProbeHit)),
                (Local, None),
                (Parent, None),
                (Miss, None)
            ]
        );
        // Each cache counts only its own map: a parent answer is a miss of
        // the child, a hit of the parent.
        assert_eq!((child.hits(), child.misses()), (1, 2));
        assert_eq!((sibling.hits(), sibling.misses()), (0, 1));
        assert_eq!((parent.hits(), parent.misses()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "smaller than")]
    fn oversized_fault_bound_panics() {
        let cache = GammaCache::new();
        let y = PointMultiset::new(vec![Point::new(vec![0.0])]);
        let _ = cache.find_point(&y, 1);
    }
}
