//! The seven workloads: what each one runs and how its inputs follow from
//! `--seed`.  README.md says why each was chosen and which layer it loads.

use bvc_core::{
    ByzantineStrategy, FaultEvent, FaultKind, FaultPlan, InstanceOverrides, LinkSelector,
    ProtocolKind, RunConfig,
};
use bvc_geometry::{GammaCache, Point, SharedGammaCache, WorkloadGenerator};
use bvc_net::ProcessId;
use bvc_service::ServiceConfig;
use std::ops::Range;
use std::sync::Arc;

/// A workload that decides a stream of generated instances of one shape
/// through `BvcService` (throughput) and `BvcSession` (latency).
#[derive(Debug)]
pub struct Stream {
    pub protocol: ProtocolKind,
    pub n: usize,
    pub f: usize,
    pub d: usize,
    pub epsilon: f64,
    /// Instance `k` runs against `strategies[k % len]`.  The restricted-sync
    /// workloads keep to one strategy: under `Equivocate` a decision costs
    /// two to six times what it costs under `AntiConvergence`, and the
    /// median of an even two-mode mix sits in the gap between the modes and
    /// flips with the seed.
    pub strategies: &'static [ByzantineStrategy],
    /// Instance seeds repeat with this period; `None` makes every instance
    /// of a run unique.
    pub seed_cycle: Option<u64>,
    /// Run under the asynchronous fault plan of [`async_fault_plan`].
    pub faulted: bool,
    /// Throughput round `r` decides instances `r·round..(r+1)·round`, about
    /// half a second of them at two workers.  A round is one
    /// `BvcService::run`, so one shared Γ cache; rounds are disjoint
    /// stretches of the stream, so that the median round of a run averages
    /// over `rounds·round` draws and does not hang on the first `round`.
    pub round: usize,
    /// Rounds in a ten-second run (about four seconds of them).
    pub rounds: usize,
    /// Set-up's warm-up stream decides instances `0..warmup`.
    pub warmup: usize,
    /// A latency pass decides instances `0..latency_samples` one by one;
    /// the count fixes the tail percentile.
    pub latency_samples: usize,
    /// Latency passes in a ten-second run (three to six seconds of them).
    pub passes: usize,
    /// `|Y|` of the Γ queries this protocol issues at this shape.
    pub gamma_len: usize,
}

/// What a workload runs.
#[derive(Debug)]
pub enum Kind {
    Stream(Stream),
    /// Parse, expand and run every scenario file of `scenarios/`, and
    /// compare the verdicts with the pinned corpus.
    Campaign,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const EQUIVOCATE: &[ByzantineStrategy] = &[ByzantineStrategy::Equivocate];
const ALTERNATE: &[ByzantineStrategy] = &[
    ByzantineStrategy::Equivocate,
    ByzantineStrategy::AntiConvergence,
];

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "svc-warm",
        kind: Kind::Stream(Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 5,
            f: 1,
            d: 2,
            epsilon: 0.1,
            strategies: EQUIVOCATE,
            seed_cycle: Some(50),
            faulted: false,
            round: 600,
            rounds: 9,
            warmup: 300,
            latency_samples: 1000,
            passes: 3,
            gamma_len: 4,
        }),
    },
    Workload {
        name: "svc-unique",
        kind: Kind::Stream(Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 5,
            f: 1,
            d: 2,
            epsilon: 0.1,
            strategies: EQUIVOCATE,
            seed_cycle: None,
            faulted: false,
            round: 300,
            rounds: 9,
            warmup: 100,
            latency_samples: 400,
            passes: 3,
            gamma_len: 4,
        }),
    },
    Workload {
        name: "rsync-n9-d1",
        kind: Kind::Stream(Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 9,
            f: 2,
            d: 1,
            // 75 rounds.  Every round of this shape costs the same, so the
            // issue's ε = 0.05 (972 rounds, 160 ms) would buy a tenth of the
            // instances a run can decide and no other kind of work.
            epsilon: 0.8,
            strategies: EQUIVOCATE,
            seed_cycle: None,
            faulted: false,
            round: 32,
            rounds: 9,
            warmup: 6,
            latency_samples: 60,
            passes: 3,
            gamma_len: 7,
        }),
    },
    Workload {
        name: "rsync-n9-d2",
        kind: Kind::Stream(Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 9,
            f: 2,
            d: 2,
            // Three rounds.  Under Equivocate the Γ engine works while the
            // honest states still differ, which is the first rounds; every
            // later round is cache hits and costs what a round of
            // rsync-n9-d1 costs, so a smaller ε only adds what that workload
            // already measures (and a spread of 2x between seeds).
            epsilon: 0.999,
            strategies: EQUIVOCATE,
            seed_cycle: None,
            faulted: false,
            round: 16,
            rounds: 9,
            warmup: 4,
            latency_samples: 40,
            passes: 2,
            gamma_len: 7,
        }),
    },
    Workload {
        name: "exact-n10-d3",
        kind: Kind::Stream(Stream {
            protocol: ProtocolKind::Exact,
            n: 10,
            f: 2,
            d: 3,
            epsilon: 0.1,
            strategies: ALTERNATE,
            seed_cycle: None,
            faulted: false,
            // One instance in thirty takes two to twenty times the median
            // (and most of those do not decide: KNOWN_FAILURES.md).  Short
            // rounds keep them out of the median round.
            round: 8,
            rounds: 16,
            warmup: 4,
            latency_samples: 40,
            passes: 2,
            gamma_len: 10,
        }),
    },
    Workload {
        name: "approx-async",
        kind: Kind::Stream(Stream {
            protocol: ProtocolKind::Approx,
            n: 6,
            f: 1,
            d: 2,
            epsilon: 0.05,
            strategies: ALTERNATE,
            seed_cycle: None,
            faulted: true,
            round: 16,
            rounds: 10,
            warmup: 6,
            latency_samples: 40,
            passes: 2,
            gamma_len: 5,
        }),
    },
    Workload {
        name: "campaign",
        kind: Kind::Campaign,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fault plan of the asynchronous workload, in scheduler ticks: 20
/// extra ticks of latency on every link over `[0, 2000)`, and processes
/// `{0, 1}` partitioned from the rest over `[500, 2000)`.  Delay is injected
/// in ticks, not wall time: the latency this workload reports is processor
/// time only.
pub fn async_fault_plan() -> FaultPlan {
    let events = [
        FaultEvent {
            kind: FaultKind::Latency {
                extra: 20,
                links: LinkSelector::All,
            },
            start: 0,
            duration: 2000,
        },
        FaultEvent {
            kind: FaultKind::Partition {
                groups: vec![vec![ProcessId::new(0), ProcessId::new(1)]],
            },
            start: 500,
            duration: 1500,
        },
    ];
    events.into_iter().fold(FaultPlan::new(), |plan, event| {
        plan.with_event(event)
            .expect("both windows are finite and non-empty")
    })
}

impl Stream {
    /// The stream-wide configuration every instance inherits.
    pub fn template(&self) -> RunConfig {
        let template = RunConfig::new(self.n, self.f, self.d).epsilon(self.epsilon);
        if self.faulted {
            template.faults(async_fault_plan())
        } else {
            template
        }
    }

    /// Instance `k` of the run seeded `run_seed`: its seed, its honest
    /// inputs (uniform in the unit box) and its Byzantine strategy.
    pub fn instance(&self, run_seed: u64, k: u64) -> InstanceOverrides {
        let position = self.seed_cycle.map_or(k, |cycle| k % cycle);
        let seed = (run_seed << 32).wrapping_add(position);
        let inputs: Vec<Point> = WorkloadGenerator::new(0x5EED_0000 ^ seed)
            .box_points(self.n - self.f, self.d, 0.0, 1.0)
            .into_points();
        InstanceOverrides {
            seed,
            honest_inputs: Some(inputs),
            adversary: Some(self.strategies[(position % self.strategies.len() as u64) as usize]),
            validity: None,
        }
    }

    /// The service configuration that decides instances `ks` on `workers`
    /// threads; batch size, cache mode and cache capacity stay at the
    /// service's defaults.
    pub fn service_config(&self, run_seed: u64, ks: Range<u64>, workers: usize) -> ServiceConfig {
        ServiceConfig::new(self.protocol, self.template())
            .instances(ks.map(|k| self.instance(run_seed, k)).collect())
            .workers(workers)
            .label("benchmark")
    }

    /// The configuration of one `BvcSession` deciding instance `k` with the
    /// cache arrangement the service gives its instances: a fresh cache
    /// chained to a longer-lived `parent`.
    pub fn session_config(&self, run_seed: u64, k: u64, parent: &SharedGammaCache) -> RunConfig {
        self.template()
            .for_instance(&self.instance(run_seed, k))
            .gamma_cache(Arc::new(GammaCache::with_parent(Arc::clone(parent))))
    }

    /// A parent cache as `BvcService::run` makes one.
    pub fn parent_cache() -> SharedGammaCache {
        Arc::new(GammaCache::with_capacity(
            ServiceConfig::DEFAULT_SHARED_CAPACITY,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_percentile;
    use bvc_service::BvcService;

    fn streams() -> impl Iterator<Item = (&'static str, &'static Stream)> {
        WORKLOADS.iter().filter_map(|w| match &w.kind {
            Kind::Stream(stream) => Some((w.name, stream)),
            Kind::Campaign => None,
        })
    }

    #[test]
    fn every_stream_is_admitted_and_its_inputs_follow_the_seed() {
        for (name, stream) in streams() {
            let config = stream.service_config(7, 0..4, 1);
            assert!(
                BvcService::new(config).is_ok(),
                "{name} must pass admission"
            );
            let (a, b, c) = (
                stream.instance(7, 3),
                stream.instance(7, 3),
                stream.instance(8, 3),
            );
            assert_eq!(a.seed, b.seed, "{name}");
            assert_eq!(a.honest_inputs, b.honest_inputs, "{name}");
            assert_ne!(
                a.honest_inputs, c.honest_inputs,
                "{name}: another seed, other inputs"
            );
        }
    }

    #[test]
    fn only_the_warm_stream_repeats_instances() {
        for (name, stream) in streams() {
            let repeats = stream.instance(1, 5).seed == stream.instance(1, 105).seed;
            assert_eq!(repeats, name == "svc-warm", "{name}");
        }
    }

    #[test]
    fn every_stream_samples_enough_for_a_real_tail() {
        for (name, stream) in streams() {
            assert!(tail_percentile(stream.latency_samples) >= 75, "{name}");
            assert!(stream.passes >= 2 && stream.rounds >= 3, "{name}");
        }
    }
}
