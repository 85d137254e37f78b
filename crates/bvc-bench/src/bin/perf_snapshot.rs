//! `perf-snapshot` — the Γ-engine performance gate.
//!
//! Runs a fixed workload matrix over the safe-area operator (micro level:
//! `gamma_point` / `gamma_contains` / cached lookups / the restricted Step-2
//! unit; macro level: end-to-end protocol runs, including the
//! `n = 9, f = 2, d = 2` restricted-synchronous shape that took minutes
//! before the engine overhaul) and emits one JSON document, by convention
//! `BENCH_gamma.json`, that seeds the repository's performance trajectory.
//! CI runs this binary under a wall-clock budget and uploads the artifact,
//! so regressions in the Γ hot path fail loudly.
//!
//! ```text
//! cargo run --release -p bvc-bench --bin perf-snapshot -- [--out BENCH_gamma.json]
//! ```
//!
//! Exit code 0 means the matrix completed and every end-to-end verdict held;
//! 1 means some verdict was violated (timings are reported either way).

use bvc_core::witness::build_zi_full;
use bvc_core::{BvcSession, ByzantineStrategy, ProtocolKind, RunConfig};
use bvc_geometry::{
    gamma_contains, gamma_point, gamma_point_attributed, GammaCache, GammaCounters, Point,
    PointMultiset, WorkloadGenerator,
};
use bvc_trace::event::escape_json;
use bvc_trace::GammaPath;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Distinct random multisets measured per micro shape.
const MICRO_CASES: u64 = 24;

struct Row {
    kind: &'static str,
    n: usize,
    f: usize,
    d: usize,
    detail: String,
    calls: usize,
    wall_ms: f64,
    ok: bool,
    /// Share of queries answered without the slow paths (LP active-set,
    /// naive subset enumeration, full hull-stream scans), in percent.
    /// `None` for workloads with no Γ path attribution.
    fast_path_pct: Option<f64>,
}

/// Share of the counted queries that stayed off the slow paths: cache hits
/// (local or parent) and the cheap attributed paths count as fast;
/// `active-set-lp`, `naive-fallback` and `stream-scan` are the slow tail.
fn fast_path_pct(counters: &GammaCounters) -> Option<f64> {
    let queries = counters.queries();
    if queries == 0 {
        return None;
    }
    let slow = counters.path_count(GammaPath::ActiveSetLp)
        + counters.path_count(GammaPath::NaiveFallback)
        + counters.path_count(GammaPath::StreamScan);
    Some(100.0 * (queries - slow.min(queries)) as f64 / queries as f64)
}

impl Row {
    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_ms * 1000.0 / self.calls as f64
        }
    }
}

fn multiset(n: usize, d: usize, seed: u64) -> PointMultiset {
    WorkloadGenerator::new(seed).box_points(n, d, 0.0, 1.0)
}

/// Micro: `gamma_point` on fresh multisets (engine path, no cache).
fn micro_gamma_point(n: usize, f: usize, d: usize) -> Row {
    let sets: Vec<PointMultiset> = (0..MICRO_CASES).map(|s| multiset(n, d, 1000 + s)).collect();
    let start = Instant::now();
    let mut found = 0usize;
    let mut slow = 0usize;
    for y in &sets {
        let (point, attribution) = gamma_point_attributed(y, f);
        if point.is_some() {
            found += 1;
        }
        if matches!(
            attribution.path,
            GammaPath::ActiveSetLp | GammaPath::NaiveFallback | GammaPath::StreamScan
        ) {
            slow += 1;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Row {
        kind: "gamma_point",
        n,
        f,
        d,
        detail: format!("found={found}/{}", sets.len()),
        calls: sets.len(),
        wall_ms,
        // Lemma 1 shapes: Γ is non-empty; allow the occasional sliver that
        // every LP formulation rejects at tolerance, but no systematic miss.
        ok: found * 10 >= sets.len() * 9,
        fast_path_pct: Some(100.0 * (sets.len() - slow) as f64 / sets.len() as f64),
    }
}

/// Micro: membership of the chosen point plus an outside point.
fn micro_gamma_contains(n: usize, f: usize, d: usize) -> Row {
    let sets: Vec<(PointMultiset, Point)> = (0..MICRO_CASES)
        .filter_map(|s| {
            let y = multiset(n, d, 2000 + s);
            let p = gamma_point(&y, f)?;
            Some((y, p))
        })
        .collect();
    let outside = Point::new(vec![7.5; d]);
    let start = Instant::now();
    let mut ok = true;
    for (y, p) in &sets {
        ok &= gamma_contains(y, f, p);
        ok &= !gamma_contains(y, f, &outside);
    }
    Row {
        kind: "gamma_contains",
        n,
        f,
        d,
        detail: String::new(),
        calls: sets.len() * 2,
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        ok,
        fast_path_pct: None,
    }
}

/// Micro: the shared-cache hit path (second evaluation of the same multiset).
fn micro_cache_hit(n: usize, f: usize, d: usize) -> Row {
    let cache = GammaCache::new();
    let sets: Vec<PointMultiset> = (0..MICRO_CASES).map(|s| multiset(n, d, 3000 + s)).collect();
    for y in &sets {
        let _ = cache.find_point(y, f); // warm
    }
    let warmed = cache.counters();
    let start = Instant::now();
    for y in &sets {
        let _ = cache.find_point(y, f);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Row {
        kind: "gamma_cache_hit",
        n,
        f,
        d,
        detail: String::new(),
        calls: sets.len(),
        wall_ms,
        ok: cache.hits() >= sets.len() as u64,
        fast_path_pct: fast_path_pct(&cache.counters().since(&warmed)),
    }
}

/// Micro: one restricted-sync Step-2 update (`build_zi_full` over
/// `C(entries, quorum)` subsets) — the per-process-per-round unit of work.
fn micro_step2_unit(entries: usize, quorum: usize, f: usize, d: usize) -> Row {
    let sets: Vec<Vec<Point>> = (0..8)
        .map(|s| multiset(entries, d, 4000 + s).into_points())
        .collect();
    let start = Instant::now();
    let mut total = 0usize;
    for e in &sets {
        total += build_zi_full(e, quorum, f).len();
    }
    Row {
        kind: "step2_build_zi_full",
        n: entries,
        f,
        d,
        detail: format!("quorum={quorum}"),
        calls: sets.len(),
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        ok: total > 0,
        fast_path_pct: None,
    }
}

/// Macro: one full restricted-synchronous execution.
fn run_restricted_sync(n: usize, f: usize, d: usize, epsilon: f64, seed: u64) -> Row {
    let inputs: Vec<Point> = WorkloadGenerator::new(7)
        .box_points(n - f, d, 0.0, 1.0)
        .into_points();
    let cache = GammaCache::shared();
    let start = Instant::now();
    let run = BvcSession::new(
        ProtocolKind::RestrictedSync,
        RunConfig::new(n, f, d)
            .honest_inputs(inputs)
            .adversary(ByzantineStrategy::Equivocate)
            .epsilon(epsilon)
            .seed(seed)
            .gamma_cache(cache.clone()),
    )
    .expect("workload matrix shapes satisfy the resilience bounds")
    .run();
    Row {
        kind: "restricted_sync_run",
        n,
        f,
        d,
        detail: format!(
            "epsilon={epsilon}, strategy=equivocate, rounds={}",
            run.rounds()
        ),
        calls: 1,
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        ok: run.verdict().all_hold(),
        fast_path_pct: fast_path_pct(&cache.counters()),
    }
}

/// Macro: one full Exact BVC execution.
fn run_exact(n: usize, f: usize, d: usize, seed: u64) -> Row {
    let inputs: Vec<Point> = WorkloadGenerator::new(11)
        .box_points(n - f, d, 0.0, 1.0)
        .into_points();
    let cache = GammaCache::shared();
    let start = Instant::now();
    let run = BvcSession::new(
        ProtocolKind::Exact,
        RunConfig::new(n, f, d)
            .honest_inputs(inputs)
            .adversary(ByzantineStrategy::Equivocate)
            .seed(seed)
            .gamma_cache(cache.clone()),
    )
    .expect("workload matrix shapes satisfy the resilience bounds")
    .run();
    Row {
        kind: "exact_run",
        n,
        f,
        d,
        detail: "strategy=equivocate".to_string(),
        calls: 1,
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        ok: run.verdict().all_hold(),
        fast_path_pct: fast_path_pct(&cache.counters()),
    }
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"bvc-perf-snapshot/v1\",\n");
    out.push_str("  \"description\": \"Gamma-engine workload matrix: micro safe-area queries and end-to-end protocol runs (wall clock, release build)\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kind\": \"{}\", \"n\": {}, \"f\": {}, \"d\": {}, \"detail\": \"{}\", \"calls\": {}, \"wall_ms\": {:.3}, \"mean_us\": {:.1}, \"ok\": {}",
            row.kind,
            row.n,
            row.f,
            row.d,
            escape_json(&row.detail),
            row.calls,
            row.wall_ms,
            row.mean_us(),
            row.ok
        );
        if let Some(pct) = row.fast_path_pct {
            let _ = write!(out, ", \"fast_path_pct\": {pct:.1}");
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_gamma.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("usage: perf-snapshot [--out <file>]");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!("usage: perf-snapshot [--out <file>]");
                return ExitCode::from(2);
            }
            other => {
                eprintln!("perf-snapshot: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    // Micro matrix: shapes strictly above the Lemma-1 threshold
    // `(d+1)f + 1` (at the exact threshold Γ degenerates to a Tverberg
    // point, which is numerically borderline for *any* formulation),
    // including the closed-form d = 1 path, the C(9,7)-subset f = 2 shape,
    // and the two cliff shapes: `(10, 2, 3)` with C(10,8) = 45 subset hulls
    // and `(13, 3, 2)` with C(13,10) = 286.
    let micro_shapes: &[(usize, usize, usize)] = &[
        (4, 1, 1),
        (7, 2, 1),
        (10, 3, 1),
        (5, 1, 2),
        (8, 2, 2),
        (9, 2, 2),
        (13, 3, 2),
        (6, 1, 3),
        (10, 2, 3),
    ];
    let mut rows = Vec::new();
    for &(n, f, d) in micro_shapes {
        eprintln!("perf-snapshot: micro n={n} f={f} d={d}");
        rows.push(micro_gamma_point(n, f, d));
        rows.push(micro_gamma_contains(n, f, d));
        rows.push(micro_cache_hit(n, f, d));
    }
    rows.push(micro_step2_unit(9, 7, 2, 2));

    // Macro matrix: end-to-end runs, led by the previously minutes-long
    // n = 9, f = 2, d = 2 restricted-sync shape (the acceptance row).
    eprintln!("perf-snapshot: macro restricted-sync n=9 f=2 d=2");
    rows.push(run_restricted_sync(9, 2, 2, 0.01, 42));
    rows.push(run_restricted_sync(9, 2, 2, 0.1, 42));
    rows.push(run_restricted_sync(5, 1, 2, 0.1, 42));
    eprintln!("perf-snapshot: macro exact");
    rows.push(run_exact(7, 2, 2, 42));
    rows.push(run_exact(5, 1, 3, 42));

    let rendered = render(&rows);
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("perf-snapshot: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    print!("{rendered}");

    let acceptance = rows
        .iter()
        .find(|r| r.kind == "restricted_sync_run" && r.n == 9 && r.f == 2 && r.d == 2)
        .expect("acceptance row is part of the fixed matrix");
    eprintln!(
        "perf-snapshot: n=9 f=2 d=2 restricted-sync completed in {:.1} ms (target < 5000 ms)",
        acceptance.wall_ms
    );
    if rows.iter().all(|r| r.ok) {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf-snapshot: some workload failed its correctness check");
        ExitCode::from(1)
    }
}
