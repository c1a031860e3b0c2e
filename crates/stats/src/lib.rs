//! Statistical summarization methodology from *The Alberta Workloads for the
//! SPEC CPU 2017 Benchmark Suite* (Amaral et al., ISPASS 2018).
//!
//! The paper condenses "how sensitive is a benchmark's behaviour to its
//! workload?" into single numbers built from geometric statistics:
//!
//! * [`geometric::geometric_mean`] — Eq. (1): `μg(f) = (∏ fᵢ)^(1/n)`
//! * [`geometric::geometric_std`] — Eq. (2): `σg(f) = exp(√(Σ ln²(fᵢ/μg)/n))`
//! * [`geometric::proportional_variation`] — Eq. (3): `V(f) = σg(f)/μg(f)`
//! * [`variation::TopDownSummary`] — Eq. (4): `μg(V)` over the four
//!   Top-Down categories
//! * [`coverage::CoverageSummary`] — Eq. (5): `μg(M)` over per-method time
//!   fractions
//!
//! # Examples
//!
//! ```
//! use alberta_stats::{geometric_mean, geometric_std};
//!
//! # fn main() -> Result<(), alberta_stats::StatsError> {
//! let front_end_bound = [0.23, 0.25, 0.22, 0.24];
//! let mu = geometric_mean(&front_end_bound)?;
//! let sigma = geometric_std(&front_end_bound)?;
//! assert!(mu > 0.22 && mu < 0.25);
//! assert!(sigma >= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod cluster;
mod coverage;
mod geometric;
mod summary;
pub mod variation;

pub use cluster::{k_medoids, Clustering};
pub use coverage::{CoverageMatrix, CoverageSummary, MethodVariation};
pub use geometric::{geometric_mean, geometric_std, proportional_variation};
pub use summary::Summary;
pub use variation::{RatioSummary, TopDownSummary};

use std::error::Error;
use std::fmt;

/// Error returned by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input slice was empty where at least one sample is required.
    Empty,
    /// An input value was non-positive where a strictly positive value is
    /// required (geometric statistics are defined on positive reals).
    NonPositive {
        /// Index of the offending sample.
        index: usize,
    },
    /// An input value was not finite (NaN or infinite).
    NotFinite {
        /// Index of the offending sample.
        index: usize,
    },
    /// Two parallel inputs had mismatched lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "input is empty"),
            StatsError::NonPositive { index } => {
                write!(f, "input value at index {index} is not strictly positive")
            }
            StatsError::NotFinite { index } => {
                write!(f, "input value at index {index} is not finite")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "input lengths differ: {left} vs {right}")
            }
        }
    }
}

impl Error for StatsError {}

/// Validates that every sample is finite and strictly positive.
pub(crate) fn validate_positive(samples: &[f64]) -> Result<(), StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    for (index, &x) in samples.iter().enumerate() {
        if !x.is_finite() {
            return Err(StatsError::NotFinite { index });
        }
        if x <= 0.0 {
            return Err(StatsError::NonPositive { index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_without_punctuation() {
        let msgs = [
            StatsError::Empty.to_string(),
            StatsError::NonPositive { index: 3 }.to_string(),
            StatsError::NotFinite { index: 0 }.to_string(),
            StatsError::LengthMismatch { left: 1, right: 2 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        assert_eq!(validate_positive(&[]), Err(StatsError::Empty));
        assert_eq!(
            validate_positive(&[1.0, 0.0]),
            Err(StatsError::NonPositive { index: 1 })
        );
        assert_eq!(
            validate_positive(&[1.0, -2.0]),
            Err(StatsError::NonPositive { index: 1 })
        );
        assert_eq!(
            validate_positive(&[f64::NAN]),
            Err(StatsError::NotFinite { index: 0 })
        );
        assert_eq!(
            validate_positive(&[1.0, f64::INFINITY]),
            Err(StatsError::NotFinite { index: 1 })
        );
        assert_eq!(validate_positive(&[0.5]), Ok(()));
    }
}
