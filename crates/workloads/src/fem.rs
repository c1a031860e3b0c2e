//! Workload generator for `510.parest_r` — finite-element parameter
//! estimation problems.
//!
//! parest estimates spatially varying coefficients of a PDE from noisy
//! observations (optical tomography). The mini-parest solves the same
//! inverse-problem shape: recover a piecewise-constant diffusion
//! coefficient on a 2-D grid from observations of the forward Poisson
//! solution. A workload is the mesh resolution, the hidden coefficient
//! field, observation noise, and regularization.

use crate::{Named, Scale, SeededRng};

/// A parest workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FemWorkload {
    /// Mesh cells per side (the FEM grid is `n × n`).
    pub mesh: usize,
    /// Hidden diffusion coefficient per parameter block, row-major over a
    /// `blocks × blocks` partition of the domain.
    pub true_coefficients: Vec<f64>,
    /// Parameter blocks per side.
    pub blocks: usize,
    /// Relative observation noise.
    pub noise: f64,
    /// Tikhonov regularization weight.
    pub regularization: f64,
    /// Gauss–Newton outer iterations.
    pub outer_iterations: usize,
    /// Seed for observation-noise generation.
    pub noise_seed: u64,
}

/// Parameters of the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FemGen {
    /// Mesh cells per side.
    pub mesh: usize,
    /// Parameter blocks per side.
    pub blocks: usize,
    /// Observation noise level.
    pub noise: f64,
    /// Outer iterations.
    pub outer_iterations: usize,
}

impl FemGen {
    /// Standard configuration scaled by `scale`.
    pub(crate) fn standard(scale: Scale) -> Self {
        FemGen {
            mesh: 8 + 2 * scale.factor(),
            blocks: 2,
            noise: 0.02,
            outer_iterations: 2 + scale.factor() / 2,
        }
    }

    /// Generates one workload with a random hidden coefficient field.
    ///
    /// # Panics
    ///
    /// Panics if `mesh < blocks` or `blocks == 0`.
    pub fn generate(&self, seed: u64) -> FemWorkload {
        assert!(self.blocks > 0, "need at least one block");
        assert!(self.mesh >= self.blocks, "mesh finer than blocks");
        let mut rng = SeededRng::new(seed);
        let true_coefficients = (0..self.blocks * self.blocks)
            .map(|_| rng.float(0.5, 3.0))
            .collect();
        FemWorkload {
            mesh: self.mesh,
            true_coefficients,
            blocks: self.blocks,
            noise: self.noise,
            regularization: rng.float(1e-4, 1e-2),
            outer_iterations: self.outer_iterations,
            noise_seed: rng.next_u64(),
        }
    }
}

/// The 8 parest workloads of Table II: a sweep over mesh resolution,
/// block count, and noise level.
pub fn alberta_set(scale: Scale) -> Vec<Named<FemWorkload>> {
    let base = FemGen::standard(scale);
    let variants: [(usize, usize, f64); 8] = [
        (base.mesh, 1, 0.0),
        (base.mesh, 2, 0.0),
        (base.mesh, 2, 0.05),
        (base.mesh, 3, 0.02),
        (base.mesh * 3 / 2, 2, 0.02),
        (base.mesh * 3 / 2, 3, 0.05),
        (base.mesh * 2, 2, 0.01),
        (base.mesh * 2, 4, 0.02),
    ];
    variants
        .iter()
        .enumerate()
        .map(|(i, &(mesh, blocks, noise))| {
            let gen = FemGen {
                mesh,
                blocks,
                noise,
                outer_iterations: base.outer_iterations,
            };
            Named::new(format!("alberta.{i}"), gen.generate(0xFE0 + i as u64))
        })
        .collect()
}

/// Canonical training workload.
pub fn train(scale: Scale) -> Named<FemWorkload> {
    let mut gen = FemGen::standard(scale);
    gen.mesh = (gen.mesh / 2).max(gen.blocks);
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload.
pub fn refrate(scale: Scale) -> Named<FemWorkload> {
    let mut gen = FemGen::standard(scale);
    gen.mesh *= 2;
    gen.blocks = 3;
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_are_positive_and_sized() {
        let gen = FemGen::standard(Scale::Test);
        let w = gen.generate(1);
        assert_eq!(w.true_coefficients.len(), w.blocks * w.blocks);
        assert!(w.true_coefficients.iter().all(|&c| c > 0.0));
        assert!(w.regularization > 0.0);
    }

    #[test]
    fn alberta_set_has_eight_problems() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 8, "Table II lists 8 parest workloads");
        let meshes: Vec<usize> = set.iter().map(|w| w.workload.mesh).collect();
        assert!(meshes.iter().max().unwrap() >= &(meshes.iter().min().unwrap() * 2));
    }

    #[test]
    fn determinism() {
        let gen = FemGen::standard(Scale::Test);
        assert_eq!(gen.generate(3), gen.generate(3));
        assert_ne!(gen.generate(3), gen.generate(4));
    }

    #[test]
    #[should_panic(expected = "mesh finer than blocks")]
    fn blocks_beyond_mesh_panics() {
        let gen = FemGen {
            mesh: 2,
            blocks: 4,
            noise: 0.0,
            outer_iterations: 1,
        };
        let _ = gen.generate(0);
    }
}
