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
//! `d = 1` query is the 0.05 µs trimmed interval; a hit in front of it cost
//! 445 ns and a miss-and-insert 1.8 µs, so such queries are answered straight
//! off the view, counted as engine computations on path `d1-closed-form`,
//! traced, and never stored.
//!
//! Memory is bounded: when the map reaches the configured capacity it is
//! wholesale-cleared (deterministically; eviction can never change results,
//! only cost).

use crate::gamma::{engine_point, CanonicalEntries, GammaAttribution, SubsetView};
use crate::multiset::PointMultiset;
use crate::point::Point;
use crate::relaxed::{ModeKey, ValidityPredicate};
use bvc_trace::{CacheLevel, GammaPath, GammaQueryKind, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A Γ-results cache shared between the processes of a run.
pub type SharedGammaCache = Arc<GammaCache>;

/// A snapshot of a cache's query counters: the overall hit/miss split plus
/// the per-path attribution of engine computations.  Two snapshots
/// subtracted ([`since`](Self::since)) bound the queries of one run even
/// when the cache is shared across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GammaCounters {
    /// Queries answered from this cache's own maps.
    pub hits: u64,
    /// Queries this cache had to resolve elsewhere (parent chain or engine).
    pub misses: u64,
    /// The subset of `misses` answered by an ancestor cache.
    pub parent_hits: u64,
    /// Engine computations where the trimmed-box probe ran and missed.
    pub probe_misses: u64,
    /// Engine computations with no path attribution (relaxed-validity
    /// decision rules, which bypass the strict engine ladder).
    pub unattributed: u64,
    /// Engine computations per [`GammaPath`] (indexed by
    /// [`GammaPath::index`]).
    pub paths: [u64; GammaPath::ALL.len()],
}

impl GammaCounters {
    /// Total queries observed: hits plus misses.
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// Engine computations attributed to `path`.
    pub fn path_count(&self, path: GammaPath) -> u64 {
        self.paths[path.index()]
    }

    /// Counter deltas since an earlier snapshot of the same cache.
    pub fn since(&self, earlier: &GammaCounters) -> GammaCounters {
        let mut paths = [0u64; GammaPath::ALL.len()];
        for (i, slot) in paths.iter_mut().enumerate() {
            *slot = self.paths[i].saturating_sub(earlier.paths[i]);
        }
        GammaCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            parent_hits: self.parent_hits.saturating_sub(earlier.parent_hits),
            probe_misses: self.probe_misses.saturating_sub(earlier.probe_misses),
            unattributed: self.unattributed.saturating_sub(earlier.unattributed),
            paths,
        }
    }

    /// Field-wise sum (for aggregating per-instance deltas).
    pub fn absorb(&mut self, other: &GammaCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.parent_hits += other.parent_hits;
        self.probe_misses += other.probe_misses;
        self.unattributed += other.unattributed;
        for (slot, add) in self.paths.iter_mut().zip(other.paths.iter()) {
            *slot += add;
        }
    }

    /// Every query is accounted for exactly once: local hits, parent hits,
    /// attributed engine paths, and unattributed engine computations sum to
    /// [`queries`](Self::queries).  (The trace stream's Γ breakdown relies
    /// on the same partition.)
    pub fn is_consistent(&self) -> bool {
        let engine: u64 = self.paths.iter().sum::<u64>() + self.unattributed;
        self.hits + self.parent_hits + engine == self.queries()
    }
}

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
    hits: AtomicU64,
    misses: AtomicU64,
    parent_hits: AtomicU64,
    probe_misses: AtomicU64,
    unattributed: AtomicU64,
    paths: [AtomicU64; GammaPath::ALL.len()],
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
            parent_hits: AtomicU64::new(0),
            probe_misses: AtomicU64::new(0),
            unattributed: AtomicU64::new(0),
            paths: std::array::from_fn(|_| AtomicU64::new(0)),
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

    /// The parent cache misses are delegated to, if any.
    pub fn parent(&self) -> Option<&SharedGammaCache> {
        self.parent.as_ref()
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
    /// borrowed view: same entry, same counters, same trace event as the
    /// query for `view.to_multiset()`.
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

    /// The one public point query: resolve, then record exactly one `Gamma`
    /// trace event.
    fn point_query(&self, view: SubsetView<'_>, f: usize, mode: ModeKey) -> Option<Point> {
        let (value, level, attr) = self.resolve_point(view, f, mode);
        bvc_trace::emit(|| TraceEvent::Gamma {
            kind: match mode {
                ModeKey::Strict => GammaQueryKind::Point,
                ModeKey::Alpha(_) | ModeKey::K(_) => GammaQueryKind::Decision,
            },
            cache: level,
            path: attr.map(|a| a.path),
            probe_missed: attr.is_some_and(|a| a.probe_missed),
            len: view.len(),
            f,
            d: view.dim(),
            found: value.is_some(),
        });
        value
    }

    /// Cache lookup + resolution without event emission: one `Gamma` trace
    /// event must be recorded per *public* query, so parent delegation goes
    /// through this levelled function.  Counter bookkeeping (each cache's own
    /// view) still happens at every level.  Only the strict rule attributes
    /// a path; relaxed outcomes carry none ([`GammaCounters`] counts them
    /// under `unattributed`).
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
            self.note(CacheLevel::Local, None, false);
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
            // strict query in its own right and keeps its own counter
            // increment and trace event.
            _ => {
                let (value, attr) = engine_point(view, f, mode, |v, f| self.find_point_of(v, f));
                (value, CacheLevel::Miss, attr)
            }
        };
        self.note(
            level,
            attr.map(|a| a.path),
            attr.is_some_and(|a| a.probe_missed),
        );
        if let Some(key) = key {
            let mut map = lock(&self.points);
            if map.len() >= self.capacity {
                map.clear();
            }
            map.insert(key, value.clone());
        }
        (value, level, attr)
    }

    /// Records this cache's own view of one resolved query.  `Local` keeps
    /// the historical `hits` semantics; both `Parent` and `Miss` count as
    /// `misses` (the query was not answered from this cache's maps), with
    /// the finer split carried by `parent_hits` / the path counters.
    fn note(&self, level: CacheLevel, path: Option<GammaPath>, probe_missed: bool) {
        match level {
            CacheLevel::Local => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            CacheLevel::Parent => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.parent_hits.fetch_add(1, Ordering::Relaxed);
            }
            CacheLevel::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                match path {
                    Some(p) => {
                        self.paths[p.index()].fetch_add(1, Ordering::Relaxed);
                        if probe_missed {
                            self.probe_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => {
                        self.unattributed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Queries answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that had to be computed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter (hit/miss split, parent hits, and per-path
    /// engine attribution).  Snapshots taken around a run and subtracted
    /// with [`GammaCounters::since`] isolate that run's queries.
    pub fn counters(&self) -> GammaCounters {
        let mut paths = [0u64; GammaPath::ALL.len()];
        for (slot, counter) in paths.iter_mut().zip(self.paths.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        GammaCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            parent_hits: self.parent_hits.load(Ordering::Relaxed),
            probe_misses: self.probe_misses.load(Ordering::Relaxed),
            unattributed: self.unattributed.load(Ordering::Relaxed),
            paths,
        }
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
        for _ in 0..2 {
            assert_eq!(cache.find_point(&y, 1), gamma_point(&y, 1));
        }
        let c = cache.counters();
        assert_eq!((cache.len(), c.hits, c.misses), (0, 0, 2));
        assert_eq!(c.path_count(GammaPath::D1ClosedForm), 2);
        assert!(c.is_consistent());
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
        assert!(second.parent().is_some());
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
    fn counters_partition_queries_by_level_and_path() {
        let parent = GammaCache::shared();
        let child = GammaCache::with_parent(Arc::clone(&parent));
        let y = square_plus_centre();

        // Engine computation through the chain: both caches record a miss,
        // both attribute the engine path; neither records a parent hit.
        let _ = child.find_point(&y, 1);
        let c = child.counters();
        assert_eq!((c.hits, c.misses, c.parent_hits), (0, 1, 0));
        assert_eq!(c.paths.iter().sum::<u64>(), 1);
        assert!(c.is_consistent());

        // Local hit: only `hits` moves.
        let _ = child.find_point(&y, 1);
        let c = child.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!(c.is_consistent());

        // A sibling child misses locally but the parent answers: that is a
        // parent hit, not an engine path.
        let sibling = GammaCache::with_parent(Arc::clone(&parent));
        let _ = sibling.find_point(&y, 1);
        let s = sibling.counters();
        assert_eq!((s.hits, s.misses, s.parent_hits), (0, 1, 1));
        assert_eq!(s.paths.iter().sum::<u64>(), 0);
        assert!(s.is_consistent());
        assert!(parent.counters().is_consistent());

        let c2 = child.counters();
        // Relaxed decisions are engine computations without a ladder path.
        let _ = child.decision_point(&y, 2, &ValidityPredicate::AlphaScaled(2.0));
        let c3 = child.counters();
        assert_eq!(c3.unattributed, 1);
        assert!(c3.is_consistent());

        // Deltas between snapshots isolate a window.
        let delta = c3.since(&c2);
        assert_eq!(delta.queries(), 1);
        assert_eq!(delta.unattributed, 1);
    }

    #[test]
    #[should_panic(expected = "smaller than")]
    fn oversized_fault_bound_panics() {
        let cache = GammaCache::new();
        let y = PointMultiset::new(vec![Point::new(vec![0.0])]);
        let _ = cache.find_point(&y, 1);
    }
}
