//! System parameters and the errors of admission.
//!
//! [`BvcConfig`] bundles the parameters every algorithm needs — the number of
//! processes `n`, the fault bound `f`, the dimension `d`, the agreement
//! parameter `ε` and the a-priori value bounds `ν ≤ x ≤ U` assumed by the
//! termination rule of Section 3.2.  The resilience bounds are not here:
//! [`ProtocolKind::min_processes`] is the one table of every protocol's
//! floor, and [`RunConfig::validate`](crate::RunConfig::validate) the one
//! place it is enforced.

use crate::run::ProtocolKind;
use std::fmt;

/// Errors produced by configuration validation and the high-level runners.
///
/// Rejection messages name the protocol by its schema name
/// ([`ProtocolKind::name`]), e.g. `approx requires n >= 5 processes, but only
/// 4 were configured`.
#[derive(Debug, Clone, PartialEq)]
pub enum BvcError {
    /// The number of processes is below the protocol's (possibly
    /// mode-lowered) floor.
    InsufficientProcesses {
        /// The protocol whose floor is violated.
        protocol: ProtocolKind,
        /// Number of processes the floor requires.
        required: usize,
        /// Number of processes actually configured.
        actual: usize,
    },
    /// A parameter is structurally invalid (zero dimension, `ε ≤ 0`, bad
    /// bounds, wrong number of inputs, …).
    InvalidParameter(String),
    /// An input coordinate or value bound exceeds
    /// [`MAX_INPUT_MAGNITUDE`] in magnitude.
    InputTooLarge {
        /// The offending value.
        value: f64,
    },
}

/// The largest input coordinate (and value bound) admitted, in magnitude.
/// The Γ engine multiplies coordinate differences (orientation signs, LP
/// pivots), and the forged values of the shipped strategies reach about
/// twelve times the value span, so a product of two stays far below
/// `f64::MAX` (about 1.8e308); past it the engine would build non-finite
/// points.
pub const MAX_INPUT_MAGNITUDE: f64 = 1e150;

impl fmt::Display for BvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BvcError::InsufficientProcesses {
                protocol,
                required,
                actual,
            } => write!(
                f,
                "{protocol} requires n >= {required} processes, but only {actual} were configured"
            ),
            BvcError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            BvcError::InputTooLarge { value } => write!(
                f,
                "input value {value:e} exceeds the admitted magnitude {MAX_INPUT_MAGNITUDE:e}"
            ),
        }
    }
}

impl std::error::Error for BvcError {}

/// System configuration shared by all algorithms in this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct BvcConfig {
    /// Total number of processes `n`.
    pub n: usize,
    /// Maximum number of Byzantine processes `f`.
    pub f: usize,
    /// Dimension `d` of input and decision vectors.
    pub d: usize,
    /// ε of the ε-agreement condition (approximate algorithms only).
    pub epsilon: f64,
    /// A-priori lower bound `ν` on every input coordinate (Section 3.2).
    pub lower_bound: f64,
    /// A-priori upper bound `U` on every input coordinate (Section 3.2).
    pub upper_bound: f64,
}

impl BvcConfig {
    /// Creates a configuration with the default agreement parameters
    /// (`ε = 0.01`, value bounds `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`BvcError::InvalidParameter`] if `n == 0`, `d == 0` or
    /// `f >= n`.
    pub fn new(n: usize, f: usize, d: usize) -> Result<Self, BvcError> {
        let config = Self {
            n,
            f,
            d,
            epsilon: 0.01,
            lower_bound: 0.0,
            upper_bound: 1.0,
        };
        config.validate_structure()?;
        Ok(config)
    }

    /// Sets the ε of ε-agreement.
    ///
    /// # Errors
    ///
    /// Returns [`BvcError::InvalidParameter`] if `epsilon <= 0` or not finite.
    pub fn with_epsilon(mut self, epsilon: f64) -> Result<Self, BvcError> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(BvcError::InvalidParameter(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        self.epsilon = epsilon;
        Ok(self)
    }

    /// Sets the a-priori value bounds `[ν, U]`.
    ///
    /// # Errors
    ///
    /// Returns [`BvcError::InvalidParameter`] if the bounds are not finite or
    /// `lower >= upper`.
    pub fn with_value_bounds(mut self, lower: f64, upper: f64) -> Result<Self, BvcError> {
        if !(lower.is_finite() && upper.is_finite() && lower < upper) {
            return Err(BvcError::InvalidParameter(format!(
                "value bounds must be finite with lower < upper, got [{lower}, {upper}]"
            )));
        }
        self.lower_bound = lower;
        self.upper_bound = upper;
        Ok(self)
    }

    fn validate_structure(&self) -> Result<(), BvcError> {
        if self.n == 0 {
            return Err(BvcError::InvalidParameter("n must be positive".into()));
        }
        if self.d == 0 {
            return Err(BvcError::InvalidParameter("d must be positive".into()));
        }
        if self.f >= self.n {
            return Err(BvcError::InvalidParameter(format!(
                "f = {} must be smaller than n = {}",
                self.f, self.n
            )));
        }
        Ok(())
    }

    /// Number of non-faulty processes assumed by the runners (`n − f`).
    pub fn honest_count(&self) -> usize {
        self.n - self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_bad_shapes() {
        assert!(BvcConfig::new(0, 0, 1).is_err());
        assert!(BvcConfig::new(4, 4, 1).is_err());
        assert!(BvcConfig::new(4, 1, 0).is_err());
        assert!(BvcConfig::new(4, 1, 2).is_ok());
    }

    #[test]
    fn epsilon_and_bounds_validation() {
        let config = BvcConfig::new(6, 1, 2).unwrap();
        assert!(config.clone().with_epsilon(0.0).is_err());
        assert!(config.clone().with_epsilon(-1.0).is_err());
        assert!(config.clone().with_epsilon(0.5).is_ok());
        assert!(config.clone().with_value_bounds(1.0, 1.0).is_err());
        assert!(config.clone().with_value_bounds(0.0, f64::NAN).is_err());
        assert!(config.with_value_bounds(-5.0, 5.0).is_ok());
    }

    #[test]
    fn honest_count() {
        let config = BvcConfig::new(7, 2, 2).unwrap();
        assert_eq!(config.honest_count(), 5);
    }
}
