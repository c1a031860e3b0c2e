//! Feedback-Directed Optimization laboratory.
//!
//! The paper's central methodological claim (Sections I–II) is that FDO
//! techniques have been evaluated with a broken protocol: train on the
//! single SPEC `train` workload, evaluate on the single `ref` workload —
//! "machine learning by observing a single point in the space". The
//! Alberta Workloads exist so researchers can instead cross-validate over
//! many workloads.
//!
//! This crate makes the claim *executable*. Using the `minigcc` compiler
//! and VM from `alberta-benchmarks`:
//!
//! * [`programs`] generates input-sensitive mini-C programs and families
//!   of input workloads with different value distributions;
//! * [`FdoPipeline`] runs static FDO end to end — instrumented training
//!   run → edge profile → profile-guided recompilation (hot-function
//!   layout + hot-call inlining) → modelled cycle count via the Top-Down
//!   machine model;
//! * [`classic_train_ref`], [`cross_validate`] and [`hidden_learning`]
//!   reproduce the methodology comparisons: classic train→ref evaluation
//!   vs leave-one-out cross-validation, Berube-style combined profiles,
//!   and the *hidden learning* effect (tuning a compiler heuristic on the
//!   evaluation set).
//!
//! # Examples
//!
//! ```
//! use alberta_fdo::{classifier_program, Distribution, FdoPipeline, InputGen};
//!
//! # fn main() -> Result<(), alberta_fdo::FdoError> {
//! let source = classifier_program(3, &[2, 6, 18]);
//! let pipeline = FdoPipeline::new(&source)?;
//! let train = InputGen { len: 64, distribution: Distribution::SkewLow }.generate(1);
//! let eval = InputGen { len: 64, distribution: Distribution::SkewLow }.generate(2);
//! let baseline = pipeline.measure_baseline(&eval)?;
//! let optimized = pipeline.measure_fdo(&[train], &eval)?;
//! assert_eq!(baseline.result, optimized.result, "FDO must not change semantics");
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod experiments;
mod measure;
pub mod programs;

pub use experiments::{
    classic_train_ref, cross_validate, hidden_learning, ClassicOutcome, CrossValidation, Fold,
    HiddenLearning,
};
pub use measure::{FdoPipeline, Measurement};
pub use programs::{classifier_program, Distribution, InputGen};

use std::error::Error;
use std::fmt;

/// Error from the FDO laboratory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FdoError {
    /// The program failed to compile or run.
    Program {
        /// Underlying message.
        message: String,
    },
    /// An experiment was configured with too few workloads.
    NotEnoughWorkloads {
        /// How many were given.
        got: usize,
        /// How many are required.
        need: usize,
    },
}

impl fmt::Display for FdoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdoError::Program { message } => write!(f, "program failure: {message}"),
            FdoError::NotEnoughWorkloads { got, need } => {
                write!(f, "experiment needs at least {need} workloads, got {got}")
            }
        }
    }
}

impl Error for FdoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(FdoError::Program {
            message: "x".into()
        }
        .to_string()
        .contains('x'));
        assert!(FdoError::NotEnoughWorkloads { got: 1, need: 3 }
            .to_string()
            .contains('3'));
    }
}
