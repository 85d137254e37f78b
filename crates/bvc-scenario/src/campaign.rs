//! Campaign mode: expand scenario files into an instance matrix and run it
//! across OS threads.
//!
//! A campaign is the cartesian product `seeds × strategies × policies` per
//! scenario (each axis defaulting to the scenario's single base value), run
//! on the workspace's one ordered worker pool
//! ([`bvc_service::pool::run_ordered`]).  Results come back **by instance
//! index**, so the output order — and therefore the emitted JSON — is
//! independent of thread interleaving: campaigns are as deterministic as
//! single runs.

use crate::runner::{run_scenario_instance, ScenarioError, ScenarioOutcome};
use crate::schema::{Protocol, ScenarioSpec};
use bvc_adversary::ByzantineStrategy;
use bvc_core::ValidityMode;
use bvc_net::DeliveryPolicy;
use bvc_service::pool::run_ordered;
use bvc_service::VerdictSink;
use bvc_topology::TopologySpec;
use std::io;

/// One expanded cell of the campaign matrix.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Index of the originating scenario in the campaign input order.
    pub scenario_index: usize,
    /// The scenario this instance came from.
    pub spec: ScenarioSpec,
    /// Executor seed.
    pub seed: u64,
    /// Byzantine strategy.
    pub strategy: ByzantineStrategy,
    /// Delivery policy.
    pub policy: DeliveryPolicy,
    /// Topology of this instance (`None` ⇒ the plain complete graph with no
    /// topology metadata in the verdict).
    pub topology: Option<TopologySpec>,
    /// Validity mode of this instance (`None` ⇒ strict scoring with no
    /// validity metadata in the verdict).
    pub validity: Option<ValidityMode>,
}

/// Expands one scenario into its instance matrix (a scenario without a
/// `[campaign]` section expands to exactly one instance).
///
/// Synchronous protocols ignore the delivery policy, so their `policies`
/// axis is collapsed to one value — sweeping it would only produce
/// byte-identical duplicate instances.
///
/// A `broadcast` axis (directed protocols only; the schema rejects it
/// elsewhere) rewrites each instance's *protocol* between the two directed
/// kinds — the broadcast model is part of the protocol's delivery
/// assumption, so the sweep shows up in the verdict's `protocol` field
/// rather than a new one.
pub fn expand(scenario_index: usize, spec: &ScenarioSpec) -> Vec<Instance> {
    let (seeds, strategies, policies, topologies, validity_axis, broadcasts) = match &spec.campaign
    {
        None => (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ),
        Some(c) => (
            c.seeds.clone(),
            c.strategies.clone(),
            c.policies.clone(),
            c.topologies.clone(),
            c.validity_axis(),
            c.broadcasts.clone(),
        ),
    };
    let seeds = if seeds.is_empty() {
        vec![spec.seed]
    } else {
        seeds
    };
    let strategies = if strategies.is_empty() {
        vec![spec.strategy]
    } else {
        strategies
    };
    let policies = if policies.is_empty() || !spec.protocol.is_async() {
        vec![spec.policy.clone()]
    } else {
        policies
    };
    let topologies: Vec<Option<TopologySpec>> = if topologies.is_empty() {
        vec![spec.topology.clone()]
    } else {
        topologies.into_iter().map(Some).collect()
    };
    let validities: Vec<Option<ValidityMode>> = if validity_axis.is_empty() {
        vec![spec.validity]
    } else {
        validity_axis.into_iter().map(Some).collect()
    };
    let protocols: Vec<Protocol> = if broadcasts.is_empty() {
        vec![spec.protocol]
    } else {
        broadcasts
            .iter()
            .map(|&model| spec.protocol.with_broadcast(model).unwrap_or(spec.protocol))
            .collect()
    };
    let capacity = seeds.len()
        * strategies.len()
        * policies.len()
        * topologies.len()
        * validities.len()
        * protocols.len();
    let mut instances = Vec::with_capacity(capacity);
    for &seed in &seeds {
        for &strategy in &strategies {
            for policy in &policies {
                for topology in &topologies {
                    for validity in &validities {
                        for &protocol in &protocols {
                            let mut spec = spec.clone();
                            spec.protocol = protocol;
                            instances.push(Instance {
                                scenario_index,
                                spec,
                                seed,
                                strategy,
                                policy: policy.clone(),
                                topology: topology.clone(),
                                validity: *validity,
                            });
                        }
                    }
                }
            }
        }
    }
    instances
}

/// Expands a whole campaign (scenarios in input order).
pub fn expand_all(specs: &[ScenarioSpec]) -> Vec<Instance> {
    specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| expand(i, spec))
        .collect()
}

/// Outcome of one instance: the verdict, or why it could not run.
pub type InstanceResult = Result<ScenarioOutcome, ScenarioError>;

fn run_instance(instance: &Instance) -> InstanceResult {
    run_scenario_instance(
        &instance.spec,
        instance.seed,
        instance.strategy,
        instance.policy.clone(),
        instance.topology.as_ref(),
        instance.validity.as_ref(),
    )
}

/// Runs every instance on a pool of `jobs` worker threads and returns the
/// results in instance order, independent of scheduling.
///
/// `jobs == 0` selects the available parallelism (or 1 if unknown).
pub fn run_campaign(instances: &[Instance], jobs: usize) -> Vec<InstanceResult> {
    let job = |_, index: usize| (None, run_instance(&instances[index]));
    run_ordered(instances.len(), jobs, &mut (), job)
        .expect("the line-less sink `()` cannot fail")
        .results
}

/// Runs every instance on a pool of `jobs` worker threads, **streaming** each
/// verdict line into `sink` as soon as it is next in instance order — the
/// emitted byte stream is identical to collecting every result first, but a
/// long campaign produces output (and frees each outcome) as it goes instead
/// of holding the whole result vector until the end.
///
/// Rejected instances emit no line (exactly as [`run_campaign`] callers skip
/// them); they consume their slot in the order buffer and come back in the
/// second return value, sorted by instance index.  `sink.finish()` is called
/// after the last line.
///
/// `jobs == 0` selects the available parallelism (or 1 if unknown).
///
/// # Errors
///
/// The first sink I/O error aborts emission (remaining instances still run,
/// their lines are dropped) and is returned.
pub fn run_campaign_streaming(
    instances: &[Instance],
    jobs: usize,
    sink: &mut dyn VerdictSink,
) -> io::Result<(CampaignSummary, Vec<(usize, ScenarioError)>)> {
    // Each job keeps only what outlives its line: the instance's tally and,
    // for a rejection, the reason.
    let done = run_ordered(instances.len(), jobs, sink, |_, index| {
        let result = run_instance(&instances[index]);
        let mut tally = CampaignSummary::default();
        tally.add(&result);
        match result {
            Ok(outcome) => (Some(outcome.to_json()), (tally, None)),
            Err(error) => (None, (tally, Some(error))),
        }
    })?;
    let mut summary = CampaignSummary::default();
    let mut rejections = Vec::new();
    for (index, (tally, rejection)) in done.results.into_iter().enumerate() {
        summary.absorb(&tally);
        rejections.extend(rejection.map(|error| (index, error)));
    }
    Ok((summary, rejections))
}

/// Aggregate counts over a finished campaign, for the human-readable summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Instances that ran and whose verdict held all three conditions.
    pub passed: usize,
    /// Instances that ran but violated agreement, validity or termination on
    /// a substrate the checker declared solvable.
    pub violated: usize,
    /// Instances whose verdict failed on a substrate flagged up front as
    /// expected-unsolvable — a topology failing the iterative sufficiency
    /// check, or a validity mode whose (possibly lowered) resource bound the
    /// run is below — data the campaign set out to collect, not a
    /// regression.
    pub expected_unsolvable: usize,
    /// Instances that could not run (bound/parameter rejections).
    pub rejected: usize,
}

impl CampaignSummary {
    /// Tallies one result into the summary.
    pub fn add(&mut self, result: &InstanceResult) {
        match result {
            Ok(outcome) if outcome.verdict.all_hold() => self.passed += 1,
            Ok(outcome) if !outcome.expected_solvable() => self.expected_unsolvable += 1,
            Ok(_) => self.violated += 1,
            Err(_) => self.rejected += 1,
        }
    }

    /// Tallies a result list.
    pub fn tally(results: &[InstanceResult]) -> Self {
        let mut summary = Self::default();
        for result in results {
            summary.add(result);
        }
        summary
    }

    /// Adds another summary's counts to this one.
    pub fn absorb(&mut self, other: &Self) {
        let Self {
            passed,
            violated,
            expected_unsolvable,
            rejected,
        } = other;
        self.passed += passed;
        self.violated += violated;
        self.expected_unsolvable += expected_unsolvable;
        self.rejected += rejected;
    }

    /// Total number of instances.
    pub fn total(&self) -> usize {
        self.passed + self.violated + self.expected_unsolvable + self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec() -> ScenarioSpec {
        ScenarioSpec::from_toml(
            "[scenario]\nname = \"sweep\"\nprotocol = \"approx\"\nn = 5\nf = 1\nd = 2\n\
             epsilon = 0.1\nmax_steps = 500000\n\
             [campaign]\nseed_range = [0, 2]\nstrategies = [\"equivocate\", \"silent\"]\n\
             policies = [\"random-fair\", \"round-robin\"]\n",
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_stable_order() {
        let spec = sweep_spec();
        let instances = expand(0, &spec);
        assert_eq!(instances.len(), 3 * 2 * 2);
        assert_eq!(instances[0].seed, 0);
        assert_eq!(instances.last().unwrap().seed, 2);
        // Policies vary fastest, then strategies, then seeds.
        assert_eq!(instances[0].policy, DeliveryPolicy::RandomFair);
        assert_eq!(instances[1].policy, DeliveryPolicy::RoundRobin);
        assert_eq!(instances[0].strategy, instances[1].strategy);
        assert_ne!(instances[0].strategy, instances[2].strategy);
    }

    #[test]
    fn sync_protocols_do_not_sweep_the_policy_axis() {
        // Delivery policies are meaningless for lock-step protocols; sweeping
        // them would duplicate every instance byte-for-byte.
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"s\"\nprotocol = \"restricted-sync\"\nn = 5\nf = 1\nd = 2\n\
             [campaign]\nseeds = [0, 1]\npolicies = [\"random-fair\", \"round-robin\"]\n",
        )
        .unwrap();
        assert_eq!(expand(0, &spec).len(), 2);
    }

    #[test]
    fn topology_axis_multiplies_instances_and_defaults_to_none() {
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"topo\"\nprotocol = \"iterative\"\nn = 8\nf = 1\nd = 1\n\
             [campaign]\nseeds = [0, 1]\ntopologies = [\"complete\", \"ring\", \"torus:2x4\"]\n",
        )
        .unwrap();
        let instances = expand(0, &spec);
        assert_eq!(instances.len(), 2 * 3);
        assert_eq!(instances[0].topology, Some(TopologySpec::Complete));
        assert_eq!(instances[1].topology, Some(TopologySpec::Ring));
        assert_eq!(
            instances[2].topology,
            Some(TopologySpec::Torus { rows: 2, cols: 4 })
        );
        // Without a topologies axis, instances inherit the scenario topology
        // (None here: plain complete graph, no metadata).
        let plain = ScenarioSpec::from_toml(
            "[scenario]\nname = \"p\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n",
        )
        .unwrap();
        assert_eq!(expand(0, &plain)[0].topology, None);
    }

    #[test]
    fn broadcast_axis_rewrites_the_instance_protocol() {
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"dir\"\nprotocol = \"directed-exact\"\nn = 8\nf = 1\nd = 2\n\
             [topology]\nkind = \"ring\"\n\
             [campaign]\nseeds = [0, 1]\nbroadcast = [\"point-to-point\", \"local\"]\n",
        )
        .unwrap();
        let instances = expand(0, &spec);
        assert_eq!(instances.len(), 2 * 2);
        // Broadcast varies fastest: the two delivery models of one seed land
        // on adjacent lines of the campaign output.
        assert_eq!(instances[0].spec.protocol, Protocol::DirectedExact);
        assert_eq!(instances[1].spec.protocol, Protocol::DirectedExactLb);
        assert_eq!(instances[0].seed, instances[1].seed);
        assert_eq!(instances[2].seed, 1);
        // Without the axis, the scenario protocol rides through untouched.
        let plain = ScenarioSpec::from_toml(
            "[scenario]\nname = \"dir\"\nprotocol = \"directed-exact-lb\"\nn = 8\nf = 1\nd = 2\n\
             [topology]\nkind = \"ring\"\n",
        )
        .unwrap();
        assert_eq!(
            expand(0, &plain)[0].spec.protocol,
            Protocol::DirectedExactLb
        );
    }

    #[test]
    fn expected_unsolvable_verdicts_do_not_count_as_violations() {
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"ring-flagged\"\nprotocol = \"iterative\"\nn = 6\nf = 1\n\
             d = 1\nepsilon = 0.05\n[topology]\nkind = \"ring\"\n",
        )
        .unwrap();
        let instances = expand(0, &spec);
        let results = run_campaign(&instances, 1);
        let outcome = results[0].as_ref().unwrap();
        let meta = outcome.topology.as_ref().expect("topology metadata");
        assert_eq!(meta.sufficiency, "violated");
        assert!(!meta.expected_solvable);
        let summary = CampaignSummary::tally(&results);
        assert_eq!(
            summary.violated, 0,
            "flagged topologies are not regressions"
        );
        assert_eq!(
            summary.passed + summary.expected_unsolvable,
            1,
            "the single instance lands in passed or expected-unsolvable"
        );
    }

    #[test]
    fn scenarios_without_campaign_expand_to_one_instance() {
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"single\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\nseed = 9\n",
        )
        .unwrap();
        let instances = expand(3, &spec);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].seed, 9);
        assert_eq!(instances[0].scenario_index, 3);
    }

    #[test]
    fn streaming_campaign_emits_the_collected_byte_stream() {
        use bvc_service::MemorySink;
        let spec = sweep_spec();
        let instances = expand(0, &spec);
        let collected = run_campaign(&instances, 2);
        let expected: Vec<String> = collected
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|o| o.to_json()))
            .collect();

        let mut sink = MemorySink::new();
        let (summary, rejections) = run_campaign_streaming(&instances, 4, &mut sink).unwrap();
        assert_eq!(sink.into_lines(), expected);
        assert_eq!(summary, CampaignSummary::tally(&collected));
        assert!(rejections.is_empty());
    }

    #[test]
    fn streaming_campaign_reports_rejections_in_instance_order() {
        use bvc_service::MemorySink;
        // n = 4 violates the approx bound (d+2)f+1 = 5: every instance is
        // rejected, none emits a line.
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"under\"\nprotocol = \"approx\"\nn = 4\nf = 1\nd = 2\n\
             [campaign]\nseed_range = [0, 3]\n",
        )
        .unwrap();
        let instances = expand(0, &spec);
        let mut sink = MemorySink::new();
        let (summary, rejections) = run_campaign_streaming(&instances, 3, &mut sink).unwrap();
        assert!(sink.lines().is_empty());
        assert_eq!(summary.rejected, 4);
        let indices: Vec<usize> = rejections.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, [0, 1, 2, 3]);
    }

    #[test]
    fn parallel_campaign_matches_serial_campaign() {
        let spec = sweep_spec();
        let instances = expand(0, &spec);
        let serial = run_campaign(&instances, 1);
        let parallel = run_campaign(&instances, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.to_json(), b.to_json());
        }
        let summary = CampaignSummary::tally(&parallel);
        assert_eq!(summary.total(), instances.len());
        assert_eq!(summary.rejected, 0);
    }
}
