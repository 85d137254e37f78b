//! Property tests for the search/shrink pipeline.
//!
//! Three properties, each checked across a spread of master seeds (plain
//! seed loops — the properties themselves are the point, not a framework):
//!
//! 1. **Determinism** — the same master seed produces a byte-identical
//!    search trace, findings and shrink step sequence;
//! 2. **Preservation** — a shrunk reproducer still exhibits the original
//!    violation, with the same verdict flags;
//! 3. **Idempotence** — shrinking a shrunk spec changes nothing.
//!
//! The searches here run over a deliberately tiny space (exact protocol,
//! d = 1, small n) so the whole file stays debug-mode cheap; the acid-test
//! rediscovery of the small-α family runs in release mode via
//! `chaos-run --search` in CI instead.

use bvc_chaos::{evaluate, search, shrink, SearchConfig};
use bvc_scenario::{Protocol, ScenarioSpec};

/// A tiny, debug-cheap search configuration.
fn tiny_config(master_seed: u64) -> SearchConfig {
    let mut config = SearchConfig::new(master_seed, 3, 6);
    config.space.protocols = vec![Protocol::Exact];
    config.space.f_range = (1, 1);
    config.space.d_range = (1, 2);
    config.space.n_slack = 1;
    config.space.alpha_max = 2.0;
    config
}

/// A hand-built violating spec in the small-α family (exact consensus
/// admitted by the α-relaxation below the strict bound, Γ_α empty), used
/// to exercise the shrinker even on seeds whose search finds nothing.
fn alpha_family_spec() -> ScenarioSpec {
    ScenarioSpec::from_toml(
        r#"
[scenario]
name = "exact-n4f1d3-alpha"
protocol = "exact"
n = 4
f = 1
d = 3
epsilon = 0.1
seed = 7
max_steps = 200000
validity = "alpha-relaxed"
alpha = 0.05

[inputs]
generator = "explicit"
points = [
    [0.05, 0.5, 0.95],
    [0.9, 0.1, 0.4],
    [0.3, 0.8, 0.2],
]

[adversary]
strategy = "anti-convergence"
"#,
    )
    .expect("the small-α fixture parses")
}

#[test]
fn the_same_master_seed_reproduces_the_search_byte_for_byte() {
    for seed in [0u64, 1, 17, 4242] {
        let a = search(&tiny_config(seed));
        let b = search(&tiny_config(seed));
        assert_eq!(a.trace, b.trace, "trace diverged for master seed {seed}");
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.findings.len(), b.findings.len());
        for (fa, fb) in a.findings.iter().zip(&b.findings) {
            assert_eq!(fa.spec, fb.spec, "finding specs diverged");
            // The shrink sequence is a pure function of the finding.
            let sa = shrink(&fa.spec, fa.flags);
            let sb = shrink(&fb.spec, fb.flags);
            assert_eq!(sa.steps, sb.steps, "shrink steps diverged for seed {seed}");
            assert_eq!(sa.spec, sb.spec);
        }
    }
}

#[test]
fn shrunk_reproducers_still_exhibit_the_original_violation() {
    let mut shrunk_any = false;
    for spec in violating_specs() {
        let original = evaluate(&spec);
        assert!(original.violation, "fixture must violate before shrinking");
        let flags = original.verdict_flags();

        let result = shrink(&spec, flags);
        let replay = evaluate(&result.spec);
        assert!(
            replay.violation,
            "shrinking lost the violation (steps: {:?})",
            result.steps
        );
        assert_eq!(
            replay.verdict_flags(),
            flags,
            "shrinking changed the verdict flags (steps: {:?})",
            result.steps
        );
        shrunk_any |= !result.steps.is_empty();
    }
    assert!(shrunk_any, "no fixture shrank at all — the passes are dead");
}

#[test]
fn shrinking_is_idempotent() {
    for spec in violating_specs() {
        let flags = evaluate(&spec).verdict_flags();
        let once = shrink(&spec, flags);
        let twice = shrink(&once.spec, flags);
        assert!(
            twice.steps.is_empty(),
            "re-shrinking a shrunk spec still reduced it: {:?}",
            twice.steps
        );
        assert_eq!(once.spec, twice.spec);
    }
}

/// Violating specs to shrink: the hand-built small-α fixture (seed
/// variants) plus anything the tiny searches find.
fn violating_specs() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for seed in [7u64, 123] {
        let mut spec = alpha_family_spec();
        spec.seed = seed;
        if evaluate(&spec).violation {
            specs.push(spec);
        }
    }
    for master_seed in [0u64, 17] {
        let report = search(&tiny_config(master_seed));
        specs.extend(report.findings.into_iter().map(|f| f.spec));
    }
    assert!(
        !specs.is_empty(),
        "the hand-built small-α fixture must violate"
    );
    specs
}
