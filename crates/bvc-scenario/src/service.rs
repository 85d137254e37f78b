//! Bridge from a `[service]` scenario to a runnable [`ServiceConfig`].
//!
//! A service scenario is one TOML file read as a *persistent configuration*:
//! the `[scenario]` shape, topology, faults and validity mode are built once
//! and shared by every instance, while the `[service]` table stamps out the
//! per-instance overrides — seed (cycled or sequential), freshly generated
//! honest inputs and an optional strategy rotation.  The resulting
//! [`ServiceConfig`] feeds [`bvc_service::BvcService`] directly.

use crate::runner::{generate_inputs, run_config_from_spec, ScenarioError, TOPOLOGY_SEED_SALT};
use crate::schema::{ScenarioSpec, ServiceSpec};
use bvc_core::InstanceOverrides;
use bvc_service::{CacheMode, ServiceConfig};

/// Builds the multi-shot service stream a `[service]` scenario declares.
///
/// The topology (if any) is materialised **once** from the base seed — the
/// stream models repeated consensus over one persistent substrate, unlike
/// campaign sweeps which rebuild it per instance seed.  Instance `i` runs at
/// seed `base + (i % seed_cycle)` (or `base + i` when the cycle is 0) with
/// inputs regenerated from that seed, so a short cycle yields repeated
/// configurations whose Γ queries the shared cache can answer.
///
/// # Errors
///
/// [`ScenarioError::Rejected`] when the file has no `[service]` section or
/// the topology cannot be built; [`ScenarioError::BadInputs`] when the input
/// generator cannot satisfy the scenario shape.  Per-instance admission
/// checks happen later, in [`bvc_service::BvcService::new`].
pub fn service_config_from_spec(spec: &ScenarioSpec) -> Result<ServiceConfig, ScenarioError> {
    let Some(service) = &spec.service else {
        return Err(ScenarioError::Rejected(
            "scenario has no [service] section".into(),
        ));
    };
    let topology = match &spec.topology {
        None => None,
        Some(t) => Some(
            t.build(spec.n, spec.seed ^ TOPOLOGY_SEED_SALT)
                .map_err(|e| ScenarioError::Rejected(e.to_string()))?,
        ),
    };
    let template = run_config_from_spec(
        spec,
        spec.seed,
        spec.strategy,
        spec.policy.clone(),
        topology.as_ref(),
        spec.validity.as_ref(),
    )?;
    let overrides = instance_overrides(spec, service)?;
    let cache_mode = if service.shared_cache {
        CacheMode::Shared
    } else {
        CacheMode::PerInstance
    };
    Ok(ServiceConfig::new(spec.protocol, template)
        .instances(overrides)
        .workers(service.workers)
        .cache_mode(cache_mode)
        .label(spec.name.clone()))
}

/// The per-instance override list of a service stream: seeds, regenerated
/// inputs, and the strategy rotation.
fn instance_overrides(
    spec: &ScenarioSpec,
    service: &ServiceSpec,
) -> Result<Vec<InstanceOverrides>, ScenarioError> {
    (0..service.instances)
        .map(|i| {
            let offset = if service.seed_cycle == 0 {
                i as u64
            } else {
                i as u64 % service.seed_cycle
            };
            let seed = spec.seed.wrapping_add(offset);
            let adversary = if service.strategies.is_empty() {
                None
            } else {
                Some(service.strategies[i % service.strategies.len()])
            };
            Ok(InstanceOverrides {
                seed,
                honest_inputs: Some(generate_inputs(spec, seed)?),
                adversary,
                validity: None,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_adversary::ByzantineStrategy;
    use bvc_service::{BvcService, MemorySink};

    fn service_spec(extra: &str) -> ScenarioSpec {
        ScenarioSpec::from_toml(&format!(
            "[scenario]\nname = \"svc\"\nprotocol = \"restricted-sync\"\nn = 5\nf = 1\nd = 2\n\
             epsilon = 0.1\nseed = 3\n\
             [inputs]\ngenerator = \"random-ball\"\nradius = 0.2\n\
             [service]\ninstances = 6\n{extra}"
        ))
        .unwrap()
    }

    #[test]
    fn seeds_cycle_and_strategies_rotate() {
        let spec = service_spec("seed_cycle = 2\nstrategies = [\"silent\", \"equivocate\"]\n");
        let config = service_config_from_spec(&spec).unwrap();
        assert_eq!(config.instances.len(), 6);
        let seeds: Vec<u64> = config.instances.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, [3, 4, 3, 4, 3, 4], "base 3, cycle 2");
        assert_eq!(
            config.instances[0].adversary,
            Some(ByzantineStrategy::Silent)
        );
        assert_eq!(
            config.instances[1].adversary,
            Some(ByzantineStrategy::Equivocate)
        );
        // Equal seeds regenerate equal inputs — the cache-reuse substrate.
        assert_eq!(
            config.instances[0].honest_inputs,
            config.instances[2].honest_inputs
        );
        assert_eq!(config.label, "svc");
    }

    #[test]
    fn a_declared_stream_runs_end_to_end() {
        let spec = service_spec("seed_cycle = 3\nworkers = 2\n");
        let config = service_config_from_spec(&spec).unwrap();
        let mut sink = MemorySink::new();
        let stats = BvcService::new(config)
            .expect("stream admits")
            .run(&mut sink)
            .expect("memory sink cannot fail");
        assert_eq!(sink.lines().len(), 6);
        assert_eq!(stats.decided, 6);
        assert!(
            stats.cache.shared_hits > 0,
            "cycled seeds must reuse Γ answers: {:?}",
            stats.cache
        );
        assert!(sink.lines()[0].starts_with("{\"service\": \"svc\", \"instance\": 0, "));
    }

    #[test]
    fn files_without_a_service_section_are_rejected() {
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"plain\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n",
        )
        .unwrap();
        assert!(matches!(
            service_config_from_spec(&spec),
            Err(ScenarioError::Rejected(_))
        ));
    }
}
