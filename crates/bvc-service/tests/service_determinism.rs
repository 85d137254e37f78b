//! The service's two determinism contracts:
//!
//! 1. The verdict stream is **byte-identical** for every worker count —
//!    the reorder buffer restores admission order and lines carry no
//!    timing, so scheduling cannot leak into the output.
//! 2. Sharing the Γ cache across instances is **observationally
//!    transparent** — the shared-parent and cold-cache streams decide
//!    identically (a cached safe-area answer is bit-identical to a
//!    recomputed one).

use bvc_core::{InstanceOverrides, ProtocolKind, RunConfig};
use bvc_geometry::Point;
use bvc_service::{BvcService, CacheMode, MemorySink, ServiceConfig};
use proptest::prelude::*;

/// A mixed-strategy restricted-sync stream: seeds cycle so the shared
/// cache has cross-instance repeats to hit, strategies rotate so the
/// stream is not one instance repeated.
fn stream(instances: usize, seed_cycle: u64) -> ServiceConfig {
    use bvc_adversary::ByzantineStrategy as S;
    let rotation = [
        S::Equivocate,
        S::AntiConvergence,
        S::Silent,
        S::FixedOutlier,
    ];
    let template = RunConfig::new(5, 1, 2).epsilon(0.1);
    let overrides = (0..instances)
        .map(|i| {
            let seed = if seed_cycle == 0 {
                i as u64
            } else {
                i as u64 % seed_cycle
            };
            InstanceOverrides {
                seed,
                honest_inputs: Some(
                    (0..4)
                        .map(|p| {
                            Point::new(vec![
                                (seed as f64 * 0.31 + p as f64 * 0.17) % 1.0,
                                (seed as f64 * 0.47 + p as f64 * 0.13) % 1.0,
                            ])
                        })
                        .collect(),
                ),
                adversary: Some(rotation[i % rotation.len()]),
                validity: None,
            }
        })
        .collect();
    ServiceConfig::new(ProtocolKind::RestrictedSync, template)
        .instances(overrides)
        .label("determinism")
}

fn run_stream(config: ServiceConfig) -> Vec<String> {
    let mut sink = MemorySink::new();
    BvcService::new(config)
        .expect("stream admits")
        .run(&mut sink)
        .expect("memory sink cannot fail");
    sink.into_lines()
}

#[test]
fn verdict_stream_is_byte_identical_across_worker_counts() {
    for mode in [CacheMode::Shared, CacheMode::PerInstance] {
        let reference = run_stream(stream(40, 8).workers(1).cache_mode(mode));
        assert_eq!(reference.len(), 40);
        for workers in [1usize, 2, 3, 8] {
            let lines = run_stream(stream(40, 8).workers(workers).cache_mode(mode));
            assert_eq!(
                lines, reference,
                "stream differs at workers = {workers}, {mode:?}"
            );
        }
    }
}

#[test]
fn an_injected_panic_yields_one_panic_line_and_a_drained_stream() {
    let clean = run_stream(stream(10, 0).workers(1));
    for workers in [1usize, 3] {
        let lines = run_stream(stream(10, 0).workers(workers).inject_panic(4));
        assert_eq!(lines.len(), 10, "the stream drains past the panic");
        let panics: Vec<usize> = (0..10)
            .filter(|&i| lines[i].contains("\"panic\": "))
            .collect();
        assert_eq!(panics, [4]);
        for i in (0..10).filter(|&i| i != 4) {
            assert_eq!(lines[i], clean[i], "instance {i} at workers = {workers}");
        }
    }
}

#[test]
fn shared_cache_hits_across_instances_without_changing_the_stream() {
    let shared_config = stream(24, 4).workers(4).cache_mode(CacheMode::Shared);
    let mut sink = MemorySink::new();
    let stats = BvcService::new(shared_config)
        .unwrap()
        .run(&mut sink)
        .unwrap();
    assert!(
        stats.cache.shared_hits > 0,
        "seed cycling must produce cross-instance hits: {:?}",
        stats.cache
    );
    let cold = run_stream(stream(24, 4).workers(4).cache_mode(CacheMode::PerInstance));
    assert_eq!(
        sink.into_lines(),
        cold,
        "cache sharing leaked into verdicts"
    );
}

proptest! {
    // End-to-end streams are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared-parent and cold-cache services decide identically for any
    /// stream shape the generator produces: cached Γ answers are
    /// bit-identical to recomputed ones, so cache topology can never leak
    /// into a verdict.
    #[test]
    fn shared_and_cold_cache_streams_decide_identically(
        instances in 2usize..14,
        seed_cycle in 0u64..5,
        workers in 1usize..5,
    ) {
        let shared = run_stream(
            stream(instances, seed_cycle)
                .workers(workers)
                .cache_mode(CacheMode::Shared),
        );
        let cold = run_stream(
            stream(instances, seed_cycle)
                .workers(workers)
                .cache_mode(CacheMode::PerInstance),
        );
        prop_assert_eq!(shared, cold);
    }
}
