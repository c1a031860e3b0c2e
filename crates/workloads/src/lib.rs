//! Workload generators for the Alberta Workloads reproduction.
//!
//! The paper's central artifact is a set of *additional workloads* for the
//! SPEC CPU 2017 suite, many produced by procedural generators (the mcf
//! city/bus-schedule generator, the deepsjeng position picker, the leela
//! game culler, the x264 video preparation script, …). This crate rebuilds
//! one seeded, parameterized generator per benchmark family, so researchers
//! can mint as many workloads as their methodology needs — the exact
//! capability the paper argues FDO evaluation requires.
//!
//! Every generator is deterministic in its seed and parameters. Each module
//! provides:
//!
//! * a `*Gen` parameter struct with a `generate(seed)` method, and
//! * an `alberta_set(scale)` constructor returning the named standard set
//!   used by the Table II reproduction (workload counts mirror the paper),
//!   plus `train(scale)` and `refrate(scale)` canonical inputs.
//!
//! [`Scale`] shrinks or grows every workload so the same experiments run
//! as fast unit tests, medium integration tests, or full benchmark runs.

pub mod chess;
pub mod compress;
pub mod csrc;
pub mod fem;
pub mod flow;
pub mod fluid;
pub mod go;
pub mod mesh;
pub mod molecule;
pub mod netsim;
pub mod pde;
pub mod raytrace;
pub mod sudoku;
pub mod video;
pub mod weather;
pub mod xmlgen;

mod rng;

pub use rng::SeededRng;

/// Global size multiplier for workload generation.
///
/// The SPEC suite distinguishes `test` (smoke), `train` (FDO profiling) and
/// `ref` (measurement) input sizes; our scale plays the same role for every
/// generated workload set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny inputs for unit tests (sub-second full-suite runs).
    Test,
    /// Medium inputs for integration tests and quick experiments.
    #[default]
    Train,
    /// Full-size inputs for benchmark regeneration.
    Ref,
}

impl Scale {
    /// Multiplies a base size by the scale factor (Test ×1, Train ×4,
    /// Ref ×16), saturating at `usize::MAX`.
    pub fn apply(self, base: usize) -> usize {
        base.saturating_mul(self.factor())
    }

    /// The raw multiplier.
    pub fn factor(self) -> usize {
        match self {
            Scale::Test => 1,
            Scale::Train => 4,
            Scale::Ref => 16,
        }
    }

    /// The next scale down, or `None` at [`Scale::Test`]. Resilient
    /// harnesses use this to retry a failed run on smaller inputs.
    pub fn reduced(self) -> Option<Scale> {
        match self {
            Scale::Test => None,
            Scale::Train => Some(Scale::Test),
            Scale::Ref => Some(Scale::Train),
        }
    }

    /// The canonical name (`test`, `train`, `ref`) used on the command
    /// line, in file names and in every canonical-JSON document.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Train => "train",
            Scale::Ref => "ref",
        }
    }

    /// The scale with the given canonical name, or `None` for any other
    /// text.
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "test" => Some(Scale::Test),
            "train" => Some(Scale::Train),
            "ref" => Some(Scale::Ref),
            _ => None,
        }
    }
}

/// A named workload: the unit the characterization harness iterates over.
#[derive(Debug, Clone, PartialEq)]
pub struct Named<W> {
    /// Workload name, unique within a benchmark's set (e.g. `alberta.3`).
    pub name: String,
    /// The workload payload.
    pub workload: W,
}

impl<W> Named<W> {
    /// Creates a named workload.
    pub fn new(name: impl Into<String>, workload: W) -> Self {
        Named {
            name: name.into(),
            workload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_are_ordered() {
        assert!(Scale::Test.factor() < Scale::Train.factor());
        assert!(Scale::Train.factor() < Scale::Ref.factor());
        assert_eq!(Scale::Test.apply(100), 100);
        assert_eq!(Scale::Train.apply(100), 400);
        assert_eq!(Scale::Ref.apply(100), 1600);
    }

    #[test]
    fn scale_apply_saturates() {
        assert_eq!(Scale::Ref.apply(usize::MAX / 2), usize::MAX);
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Test, Scale::Train, Scale::Ref] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::from_name("Train"), None);
    }

    #[test]
    fn named_constructor() {
        let n = Named::new("alberta.1", 42u32);
        assert_eq!(n.name, "alberta.1");
        assert_eq!(n.workload, 42);
    }
}
