//! Service configuration: one template, many instances, validated up front.

use bvc_core::{BvcError, InstanceOverrides, ProtocolKind, RunConfig};
use std::fmt;
use std::io;

/// How instances see the Γ cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Every instance gets a fresh per-instance cache chained to one
    /// service-lifetime parent, so safe-area evaluations are reused across
    /// instances and the parent's hit counter measures exactly that reuse.
    Shared,
    /// Every instance gets an isolated fresh cache (the one-shot
    /// behaviour).  Useful as the control group: decisions must be
    /// identical to [`CacheMode::Shared`].
    PerInstance,
}

/// A validated multi-instance stream: a [`RunConfig`] template plus one
/// [`InstanceOverrides`] per consensus instance, and the worker count.
///
/// Admission is all-or-nothing: [`ServiceConfig::validate`] (called by
/// [`BvcService::new`](crate::BvcService::new)) checks every effective
/// instance configuration against the protocol's admission bound before
/// anything runs, so the worker pool never sees a rejectable instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The protocol every instance is dispatched to.
    pub protocol: ProtocolKind,
    /// The stream-wide template (shape, topology, faults, ε, bounds…).
    pub template: RunConfig,
    /// One entry per instance, in decision order.
    pub instances: Vec<InstanceOverrides>,
    /// Worker threads; `0` selects the available parallelism.
    pub workers: usize,
    /// Γ-cache sharing across instances.
    pub cache_mode: CacheMode,
    /// Stream label, echoed in every verdict line and in the stats.
    pub label: String,
    /// Chaos-lab knob: deliberately panic the instance with this sequence
    /// number inside the worker pool.  No admitted configuration panics
    /// organically, so this is how panic containment is exercised — the
    /// instance must surface as a contained panic verdict while the rest
    /// of the stream drains normally.
    pub panic_instance: Option<usize>,
}

impl ServiceConfig {
    /// Entry capacity of the shared parent cache.  The parent is
    /// wholesale-cleared when full, so it must span the stream's seed
    /// cycle: a stream whose distinct Γ queries between seed repeats exceed
    /// the capacity evicts every entry before it can be reused and measures
    /// zero cross-instance hits.  Sized for long streams of the hardest
    /// tier-1 shapes (n = 9, d = 2 restricted rounds contribute thousands of
    /// distinct multisets per instance; a 50-seed cycle then needs several
    /// hundred thousand live entries for repeats to survive until their
    /// reuse).
    pub const DEFAULT_SHARED_CAPACITY: usize = 1 << 20;

    /// A stream over `template` with no instances yet and the defaults:
    /// available-parallelism workers, shared Γ cache at
    /// [`DEFAULT_SHARED_CAPACITY`](Self::DEFAULT_SHARED_CAPACITY) entries,
    /// label `"service"`.
    pub fn new(protocol: ProtocolKind, template: RunConfig) -> Self {
        Self {
            protocol,
            template,
            instances: Vec::new(),
            workers: 0,
            cache_mode: CacheMode::Shared,
            label: "service".to_string(),
            panic_instance: None,
        }
    }

    /// Replaces the instance list.
    pub fn instances(mut self, instances: Vec<InstanceOverrides>) -> Self {
        self.instances = instances;
        self
    }

    /// Worker threads (`0` = available parallelism; always clamped to the
    /// instance count).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Γ-cache sharing mode.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Stream label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Deliberately panics the instance with sequence number `seq` inside
    /// the worker pool (chaos-lab panic injection; see
    /// [`panic_instance`](Self::panic_instance)).
    pub fn inject_panic(mut self, seq: usize) -> Self {
        self.panic_instance = Some(seq);
        self
    }

    /// Validates the whole stream: a non-empty instance list, and every
    /// effective instance config admitted by [`RunConfig::validate`] for
    /// the stream's protocol.
    ///
    /// # Errors
    ///
    /// [`ServiceError::EmptyStream`], or the first
    /// [`ServiceError::Instance`] rejection in stream order.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.instances.is_empty() {
            return Err(ServiceError::EmptyStream);
        }
        for (index, overrides) in self.instances.iter().enumerate() {
            self.template
                .for_instance(overrides)
                .validate(self.protocol)
                .map_err(|source| ServiceError::Instance { index, source })?;
        }
        Ok(())
    }
}

/// Why a service could not be built or run.
#[derive(Debug)]
pub enum ServiceError {
    /// The instance list is empty.
    EmptyStream,
    /// An instance's effective configuration was rejected at admission.
    Instance {
        /// Stream index of the rejected instance.
        index: usize,
        /// The underlying admission error.
        source: BvcError,
    },
    /// The verdict sink failed mid-stream.
    Io(io::Error),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::EmptyStream => write!(f, "service stream has no instances"),
            ServiceError::Instance { index, source } => {
                write!(f, "instance {index} rejected at admission: {source}")
            }
            ServiceError::Io(e) => write!(f, "verdict sink error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Instance { source, .. } => Some(source),
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_geometry::Point;

    fn inputs(count: usize, d: usize) -> Vec<Point> {
        (0..count)
            .map(|i| Point::uniform(d, i as f64 / count as f64))
            .collect()
    }

    fn valid_config(instances: usize) -> ServiceConfig {
        let template = RunConfig::new(5, 1, 2).honest_inputs(inputs(4, 2));
        let overrides = (0..instances as u64)
            .map(|seed| InstanceOverrides {
                seed,
                ..InstanceOverrides::default()
            })
            .collect();
        ServiceConfig::new(ProtocolKind::RestrictedSync, template).instances(overrides)
    }

    #[test]
    fn an_empty_stream_is_rejected() {
        assert!(matches!(
            valid_config(0).validate(),
            Err(ServiceError::EmptyStream)
        ));
        valid_config(3).validate().expect("defaults are valid");
    }

    #[test]
    fn a_bad_instance_is_rejected_with_its_index() {
        let mut config = valid_config(3);
        // Instance 1 overrides the inputs with the wrong count.
        config.instances[1].honest_inputs = Some(inputs(2, 2));
        match config.validate() {
            Err(ServiceError::Instance { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected instance rejection, got {other:?}"),
        }
    }
}
