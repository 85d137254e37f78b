//! Property tests pinning the relaxed-validity subsystem to the strict
//! baseline: `AlphaScaled(0)` and `KRelaxed(d)` must produce verdicts
//! byte-identical to `Strict` scoring, declared-strict metadata must be the
//! only JSON difference from an undeclared scenario, and relaxed validity
//! must be monotone in α.

use bvc_scenario::{run_scenario_instance, ScenarioSpec, ValidityMode};

/// An above-threshold Exact BVC scenario (n = 9 ≥ max(3f+1, (d+1)f+1) = 9),
/// so the strict mode admits it and all modes can be compared.
fn above_threshold_spec() -> ScenarioSpec {
    ScenarioSpec::from_toml(
        "[scenario]\nname = \"pin\"\nprotocol = \"exact\"\nn = 9\nf = 2\nd = 3\n\
         [inputs]\ngenerator = \"random-ball\"\ncenter = [0.5, 0.5, 0.5]\nradius = 0.45\n",
    )
    .expect("valid scenario")
}

/// The below-threshold shape of `scenarios/alpha_sweep.toml`.
fn below_threshold_spec() -> ScenarioSpec {
    ScenarioSpec::from_toml(
        "[scenario]\nname = \"sweep\"\nprotocol = \"exact\"\nn = 8\nf = 2\nd = 3\n\
         validity = \"(1+α)-relaxed\"\n\
         [inputs]\ngenerator = \"random-ball\"\ncenter = [0.5, 0.5, 0.5]\nradius = 0.45\n",
    )
    .expect("valid scenario")
}

/// The `"verdict": {...}` object of a serialized outcome, for byte-level
/// comparison independent of the surrounding metadata fields.
fn verdict_json(json: &str) -> &str {
    let start = json.find("\"verdict\"").expect("outcome has a verdict");
    let end = json
        .find(", \"rounds\"")
        .expect("rounds follows the verdict");
    &json[start..end]
}

fn run_under(spec: &ScenarioSpec, seed: u64, validity: Option<&ValidityMode>) -> String {
    run_scenario_instance(
        spec,
        seed,
        spec.strategy,
        spec.policy.clone(),
        None,
        validity,
    )
    .expect("instance runs")
    .to_json()
}

#[test]
fn alpha_zero_verdicts_are_byte_identical_to_strict() {
    let spec = above_threshold_spec();
    for seed in [0, 1, 7] {
        let strict = run_under(&spec, seed, Some(&ValidityMode::Strict));
        let alpha_zero = run_under(&spec, seed, Some(&ValidityMode::AlphaScaled(0.0)));
        assert_eq!(
            verdict_json(&strict),
            verdict_json(&alpha_zero),
            "seed {seed}: α = 0 must score byte-identically to strict"
        );
    }
}

#[test]
fn k_equal_d_verdicts_are_byte_identical_to_strict() {
    let spec = above_threshold_spec();
    for seed in [0, 1, 7] {
        let strict = run_under(&spec, seed, Some(&ValidityMode::Strict));
        let k_d = run_under(&spec, seed, Some(&ValidityMode::KRelaxed(3)));
        assert_eq!(
            verdict_json(&strict),
            verdict_json(&k_d),
            "seed {seed}: k = d must score byte-identically to strict"
        );
    }
}

#[test]
fn undeclared_validity_keeps_the_pre_validity_json() {
    let spec = above_threshold_spec();
    let undeclared = run_under(&spec, 3, None);
    assert!(
        !undeclared.contains("\"validity\": {"),
        "no declared mode ⇒ no validity metadata"
    );
    // Declared strict differs from undeclared only by the metadata object.
    let declared = run_under(&spec, 3, Some(&ValidityMode::Strict));
    let stripped = declared.replace(
        ", \"validity\": {\"mode\": \"strict\", \"required_n\": 9, \"satisfied\": true}",
        "",
    );
    assert_eq!(undeclared, stripped);
}

#[test]
fn below_threshold_alpha_zero_matches_strict_behaviour_and_collapses_with_alpha() {
    let spec = below_threshold_spec();
    // α = 0: strict behaviour — Γ(S) is empty below the Lemma-1 threshold,
    // no process decides, and the check records the unmet strict bound.
    let zero = run_scenario_instance(
        &spec,
        0,
        spec.strategy,
        spec.policy.clone(),
        None,
        Some(&ValidityMode::AlphaScaled(0.0)),
    )
    .expect("admitted by the relaxed family bound");
    assert!(!zero.verdict.termination, "Γ(S) = ∅ below the threshold");
    let meta = zero.validity.as_ref().expect("declared mode ⇒ metadata");
    assert_eq!(meta.required_n, Some(9));
    assert!(!meta.satisfied);
    // A swept α > 0 restores termination, agreement and (relaxed) validity.
    let relaxed = run_scenario_instance(
        &spec,
        0,
        spec.strategy,
        spec.policy.clone(),
        None,
        Some(&ValidityMode::AlphaScaled(3.0)),
    )
    .expect("admitted");
    assert!(relaxed.verdict.all_hold(), "{:?}", relaxed.verdict);
    let meta = relaxed.validity.as_ref().unwrap();
    assert_eq!(meta.required_n, Some(7), "the lowered 3f+1 bound");
    assert!(meta.satisfied);
}

#[test]
fn decisions_valid_at_alpha_stay_valid_at_larger_alpha() {
    // Monotonicity at the run level: a decision that satisfies (1+α)-relaxed
    // validity satisfies it at every α′ > α — the dilated hull only grows.
    use bvc_core::{BvcSession, ByzantineStrategy, ProtocolKind, RunConfig};
    use bvc_geometry::PointMultiset;
    let spec = below_threshold_spec();
    let inputs = bvc_scenario::generate_inputs(&spec, 1).expect("inputs");
    let run = BvcSession::new(
        ProtocolKind::Exact,
        RunConfig::new(8, 2, 3)
            .honest_inputs(inputs.clone())
            .adversary(ByzantineStrategy::Equivocate)
            .seed(1)
            .validity_mode(ValidityMode::AlphaScaled(1.0)),
    )
    .expect("admitted below the strict bound")
    .run();
    assert!(run.verdict().all_hold(), "{:?}", run.verdict());
    let honest = PointMultiset::new(inputs);
    for decision in run.decisions() {
        for alpha in [1.0, 1.5, 2.0, 5.0] {
            assert!(
                ValidityMode::AlphaScaled(alpha).contains(&honest, decision),
                "decision {decision} valid at α = 1 must stay valid at α = {alpha}"
            );
        }
    }
}
