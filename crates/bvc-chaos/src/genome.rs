//! The search genome: everything the optimizing adversary may mutate.
//!
//! A [`ChaosGenome`] is one fully-specified adversarial consensus instance —
//! protocol, shape, the explicit honest input points, the Byzantine strategy
//! (including the searchable split-brain receiver mask), the validity knob,
//! per-link latency fault windows, the delivery schedule and the executor
//! seed.  Its single serialised form is a **standard scenario TOML**
//! ([`ChaosGenome::to_toml`]): evaluation parses that TOML back through
//! [`ScenarioSpec::from_toml`] and runs it through the ordinary scenario
//! runner, so a genome, its committed reproducer file, and a `scenario-run`
//! replay of that file are guaranteed to execute byte-identically.

use bvc_scenario::{Protocol, ScenarioSpec, SchemaError};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;

/// The validity knob of a genome, mirroring the scenario schema's
/// `strict` / `alpha-relaxed` / `k-relaxed` axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidityGene {
    /// Strict validity (decision in the honest hull).
    Strict,
    /// `(1+α)`-relaxed validity with the given α.
    Alpha(f64),
    /// `k`-relaxed validity with the given k.
    K(usize),
}

impl ValidityGene {
    /// Coarse family label used in reproducer signatures (`strict`,
    /// `alpha`, `k1`, `k2`, …) — deliberately independent of the α value,
    /// so every small-α variant of one failure family shares a signature.
    pub fn family(&self) -> String {
        match self {
            ValidityGene::Strict => "strict".to_string(),
            ValidityGene::Alpha(_) => "alpha".to_string(),
            ValidityGene::K(k) => format!("k{k}"),
        }
    }
}

/// One per-link latency fault window (a directed `from → to` link).  The
/// genome only carries latency faults: drop faults break the reliable-channel
/// assumption, so any violation under them is expected data and would poison
/// the search objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultGene {
    /// Sending process index.
    pub from: usize,
    /// Receiving process index.
    pub to: usize,
    /// Extra delivery delay (scheduler ticks / rounds).
    pub extra: usize,
    /// Window start (1-based rounds for sync protocols; keep ≥ 1 so the
    /// TOML round-trips without the sync round-shift rewriting it).
    pub start: usize,
    /// Window length; must be finite and ≥ 1 (the fairness contract).
    pub duration: usize,
}

/// A fully-specified adversarial consensus instance, mutable by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosGenome {
    /// The protocol under attack.
    pub protocol: Protocol,
    /// Total processes.
    pub n: usize,
    /// Byzantine processes (the last `f` ids).
    pub f: usize,
    /// Input dimension.
    pub d: usize,
    /// ε of ε-agreement (ignored by `exact`).
    pub epsilon: f64,
    /// Executor / forge seed.
    pub seed: u64,
    /// Explicit honest inputs: exactly `n − f` points of dimension `d`,
    /// each coordinate in `[0, 1]`.
    pub points: Vec<Vec<f64>>,
    /// The Byzantine strategy, in its stable label form (`equivocate`,
    /// `split-brain:MASK`, `crash:K`, …) so the mask and crash-round knobs
    /// are part of the genome.
    pub strategy: String,
    /// The validity knob.
    pub validity: ValidityGene,
    /// Declared communication topology, in the campaign-compact label form
    /// (`ring`, `random-regular:4`, …) of `TopologySpec::parse`.  `None` is
    /// the paper's complete graph and keeps the serialised TOML
    /// byte-identical to pre-digraph genomes; the search only declares a
    /// topology for the directed protocol kinds, where the graph condition
    /// is the whole game.
    pub topology: Option<String>,
    /// Per-link latency fault windows.
    pub faults: Vec<FaultGene>,
    /// `true` selects the round-robin delivery schedule (async protocols;
    /// ignored by the synchronous ones).
    pub round_robin: bool,
    /// Async delivery-step cap.
    pub max_steps: usize,
}

/// TOML float formatting: shortest round-trip, always with a decimal point
/// so the value parses back as a float (matching the verdict JSON rules).
fn toml_f64(x: f64) -> String {
    let mut s = format!("{x}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

impl ChaosGenome {
    /// The honest process count `n − f` (the required `points` length).
    pub fn honest(&self) -> usize {
        self.n - self.f
    }

    /// The family signature used to name reproducers and to match freshly
    /// found violations against committed ones:
    /// `<protocol>-n<n>f<f>d<d>-<validity family>`, with a `-<topology>`
    /// suffix (`:` flattened to `-` so the signature stays a valid file
    /// stem) when the genome declares one.
    pub fn signature(&self) -> String {
        let mut signature = format!(
            "{}-n{}f{}d{}-{}",
            self.protocol.name(),
            self.n,
            self.f,
            self.d,
            self.validity.family()
        );
        if let Some(topology) = &self.topology {
            let _ = write!(signature, "-{}", topology.replace(':', "-"));
        }
        signature
    }

    /// Serialises the genome as a standard scenario TOML document.  This is
    /// the genome's only serialised form: evaluation, shrinking and the
    /// committed reproducer all go through this exact text, which is what
    /// makes a pinned reproducer replay the search's finding byte for byte.
    pub fn to_toml(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("[scenario]\nname = \"");
        out.push_str(&self.signature());
        out.push_str("\"\n");
        let _ = writeln!(out, "protocol = \"{}\"", self.protocol.name());
        let _ = writeln!(out, "n = {}", self.n);
        let _ = writeln!(out, "f = {}", self.f);
        let _ = writeln!(out, "d = {}", self.d);
        let _ = writeln!(out, "epsilon = {}", toml_f64(self.epsilon));
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "max_steps = {}", self.max_steps);
        match self.validity {
            ValidityGene::Strict => {}
            ValidityGene::Alpha(alpha) => {
                let _ = writeln!(
                    out,
                    "validity = \"alpha-relaxed\"\nalpha = {}",
                    toml_f64(alpha)
                );
            }
            ValidityGene::K(k) => {
                let _ = writeln!(out, "validity = \"k-relaxed\"\nk = {k}");
            }
        }
        out.push_str("\n[inputs]\ngenerator = \"explicit\"\npoints = [\n");
        for point in &self.points {
            out.push_str("    [");
            for (i, c) in point.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&toml_f64(*c));
            }
            out.push_str("],\n");
        }
        out.push_str("]\n");
        let _ = writeln!(out, "\n[adversary]\nstrategy = \"{}\"", self.strategy);
        if let Some(topology) = &self.topology {
            let _ = writeln!(out, "\n[topology]\nkind = \"{topology}\"");
        }
        if self.round_robin {
            out.push_str("\n[delivery]\npolicy = \"round-robin\"\n");
        }
        for fault in &self.faults {
            let _ = writeln!(
                out,
                "\n[[faults]]\nkind = \"latency\"\nextra = {}\nfrom = [{}]\nto = [{}]\n\
                 start = {}\nduration = {}",
                fault.extra, fault.from, fault.to, fault.start, fault.duration,
            );
        }
        out
    }

    /// Parses the genome's TOML form back into a runnable [`ScenarioSpec`].
    ///
    /// # Errors
    ///
    /// A genome whose parameters the scenario schema rejects (malformed
    /// points, bad strategy label…) — the search scores such genomes as
    /// rejected rather than panicking.
    pub fn to_spec(&self) -> Result<ScenarioSpec, SchemaError> {
        ScenarioSpec::from_toml(&self.to_toml())
    }

    /// Resizes `points` to `n − f` entries of dimension `d`, drawing any
    /// new coordinates uniformly from `[0, 1]` — called after every shape
    /// mutation so the genome stays well-formed.
    pub fn fix_points(&mut self, rng: &mut StdRng) {
        let honest = self.honest();
        self.points.truncate(honest);
        while self.points.len() < honest {
            let point = (0..self.d).map(|_| rng.gen_range(0.0..=1.0)).collect();
            self.points.push(point);
        }
        for point in &mut self.points {
            point.truncate(self.d);
            while point.len() < self.d {
                point.push(rng.gen_range(0.0..=1.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn genome() -> ChaosGenome {
        ChaosGenome {
            protocol: Protocol::Exact,
            n: 5,
            f: 1,
            d: 2,
            epsilon: 0.1,
            seed: 3,
            points: vec![
                vec![0.1, 0.2],
                vec![0.3, 0.4],
                vec![0.5, 0.6],
                vec![0.7, 0.8],
            ],
            strategy: "split-brain:5".to_string(),
            validity: ValidityGene::Alpha(0.5),
            topology: None,
            faults: vec![FaultGene {
                from: 0,
                to: 2,
                extra: 2,
                start: 1,
                duration: 3,
            }],
            round_robin: false,
            max_steps: 200_000,
        }
    }

    #[test]
    fn toml_round_trips_through_the_scenario_schema() {
        let g = genome();
        let spec = g.to_spec().expect("genome TOML parses");
        assert_eq!(spec.n, 5);
        assert_eq!(spec.f, 1);
        assert_eq!(spec.d, 2);
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.strategy.label(), "split-brain:5");
        assert_eq!(spec.faults.events().len(), 1);
        assert!(spec.validity.is_some());
    }

    #[test]
    fn signatures_name_the_failure_family_not_the_alpha_value() {
        let mut a = genome();
        let mut b = genome();
        a.validity = ValidityGene::Alpha(0.25);
        b.validity = ValidityGene::Alpha(3.0);
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.signature(), "exact-n5f1d2-alpha");
        b.validity = ValidityGene::K(1);
        assert_eq!(b.signature(), "exact-n5f1d2-k1");
    }

    #[test]
    fn a_directed_genome_round_trips_with_its_topology() {
        let mut g = genome();
        g.protocol = Protocol::DirectedExactLb;
        g.n = 8;
        g.f = 1;
        g.strategy = "crash:1".to_string();
        g.validity = ValidityGene::Strict;
        g.topology = Some("random-regular:4".to_string());
        g.faults.clear();
        g.fix_points(&mut StdRng::seed_from_u64(5));
        let spec = g.to_spec().expect("directed genome TOML parses");
        assert_eq!(spec.protocol.name(), "directed-exact-lb");
        assert_eq!(
            spec.topology.as_ref().map(|t| t.name()),
            Some("random-regular:4".to_string())
        );
        assert_eq!(
            g.signature(),
            "directed-exact-lb-n8f1d2-strict-random-regular-4",
            "the topology suffix flattens `:` into a file-stem-safe `-`"
        );
    }

    #[test]
    fn fix_points_restores_the_shape_invariant() {
        let mut g = genome();
        let mut rng = StdRng::seed_from_u64(1);
        g.n = 7;
        g.d = 3;
        g.fix_points(&mut rng);
        assert_eq!(g.points.len(), 6);
        assert!(g.points.iter().all(|p| p.len() == 3));
        assert!(g.points.iter().flatten().all(|c| (0.0..=1.0).contains(c)));
    }
}
