//! Workload generator for `519.lbm_r` — obstacle geometries for the
//! lattice-Boltzmann channel.
//!
//! The paper's twenty-four lbm workloads vary "the shape and size of the
//! objects, the object density and the parameter for the simulation".
//! This generator places spheres and boxes of configurable size/density in
//! a 3-D channel and selects the relaxation parameter and step count.

use crate::{Named, Scale, SeededRng};

/// Obstacle shapes supported by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Obstacle {
    /// Solid sphere: center (x, y, z) and radius, in cell units.
    Sphere {
        /// Center coordinates.
        center: (f64, f64, f64),
        /// Radius.
        radius: f64,
    },
    /// Axis-aligned box: min and max corners.
    Box {
        /// Minimum corner.
        min: (f64, f64, f64),
        /// Maximum corner.
        max: (f64, f64, f64),
    },
}

impl Obstacle {
    /// Whether the cell `(x, y, z)` lies inside the obstacle.
    pub fn contains(&self, p: (f64, f64, f64)) -> bool {
        match *self {
            Obstacle::Sphere { center, radius } => {
                let d = (p.0 - center.0, p.1 - center.1, p.2 - center.2);
                d.0 * d.0 + d.1 * d.1 + d.2 * d.2 <= radius * radius
            }
            Obstacle::Box { min, max } => {
                p.0 >= min.0
                    && p.0 <= max.0
                    && p.1 >= min.1
                    && p.1 <= max.1
                    && p.2 >= min.2
                    && p.2 <= max.2
            }
        }
    }
}

/// An lbm workload: channel geometry plus simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidWorkload {
    /// Channel dimensions in cells (x = flow direction).
    pub dims: (usize, usize, usize),
    /// Obstacles inside the channel.
    pub obstacles: Vec<Obstacle>,
    /// Time steps to simulate.
    pub steps: usize,
    /// BGK relaxation parameter τ (stability requires τ > 0.5).
    pub tau: f64,
    /// Inflow velocity at the channel entrance.
    pub inflow: f64,
}

/// Parameters of the fluid workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidGen {
    /// Channel dimensions.
    pub dims: (usize, usize, usize),
    /// Number of obstacles.
    pub obstacles: usize,
    /// Obstacle radius range as a fraction of channel height.
    pub radius_range: (f64, f64),
    /// Fraction of obstacles that are boxes rather than spheres.
    pub box_fraction: f64,
    /// Simulation steps.
    pub steps: usize,
    /// Relaxation parameter.
    pub tau: f64,
}

impl FluidGen {
    /// Standard configuration scaled by `scale`.
    pub fn standard(scale: Scale) -> Self {
        FluidGen {
            dims: (24, 12, 12),
            obstacles: 3,
            radius_range: (0.1, 0.25),
            box_fraction: 0.3,
            steps: scale.apply(8),
            tau: 0.8,
        }
    }

    /// Generates the workload; obstacles never block the inflow plane.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is below 4 or `tau <= 0.5` (unstable).
    pub fn generate(&self, seed: u64) -> FluidWorkload {
        let (nx, ny, nz) = self.dims;
        assert!(nx >= 4 && ny >= 4 && nz >= 4, "channel too small");
        assert!(self.tau > 0.5, "tau must exceed 0.5 for stability");
        let mut rng = SeededRng::new(seed);
        let h = ny.min(nz) as f64;
        let obstacles = (0..self.obstacles)
            .map(|_| {
                let r = rng.float(self.radius_range.0, self.radius_range.1) * h;
                // Keep clear of the inflow (x < 3) and outflow planes.
                let cx = rng.float(3.0 + r, nx as f64 - 2.0 - r);
                let cy = rng.float(r, ny as f64 - 1.0 - r);
                let cz = rng.float(r, nz as f64 - 1.0 - r);
                if rng.chance(self.box_fraction) {
                    Obstacle::Box {
                        min: (cx - r, cy - r, cz - r),
                        max: (cx + r, cy + r, cz + r),
                    }
                } else {
                    Obstacle::Sphere {
                        center: (cx, cy, cz),
                        radius: r,
                    }
                }
            })
            .collect();
        FluidWorkload {
            dims: self.dims,
            obstacles,
            steps: self.steps,
            tau: self.tau,
            inflow: 0.05,
        }
    }
}

/// The paper ships twenty-four lbm workloads varying shape, size, density
/// and step parameters; Table II characterizes 30 (including SPEC's own).
/// We generate 30: a 5×3×2 sweep of obstacle count × size × τ.
pub fn alberta_set(scale: Scale) -> Vec<Named<FluidWorkload>> {
    let base = FluidGen::standard(scale);
    let mut out = Vec::new();
    let mut i = 0u64;
    for &count in &[0usize, 1, 3, 6, 10] {
        for &(rlo, rhi) in &[(0.08, 0.15), (0.15, 0.28), (0.25, 0.4)] {
            for &tau in &[0.6, 1.1] {
                let gen = FluidGen {
                    obstacles: count,
                    radius_range: (rlo, rhi),
                    tau,
                    ..base
                };
                out.push(Named::new(
                    format!(
                        "alberta.o{count}.r{}.t{}",
                        (rhi * 100.0) as u32,
                        (tau * 10.0) as u32
                    ),
                    gen.generate(0x1B4 + i),
                ));
                i += 1;
            }
        }
    }
    out
}

/// Canonical training workload: short, sparse channel.
pub fn train(scale: Scale) -> Named<FluidWorkload> {
    let mut gen = FluidGen::standard(scale);
    gen.steps = (gen.steps / 2).max(1);
    gen.obstacles = 1;
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload.
pub fn refrate(scale: Scale) -> Named<FluidWorkload> {
    let mut gen = FluidGen::standard(scale);
    gen.steps *= 2;
    gen.obstacles = 5;
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of channel cells blocked by obstacles.
    fn solid_fraction(w: &FluidWorkload) -> f64 {
        let (nx, ny, nz) = w.dims;
        let mut solid = 0usize;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let p = (x as f64, y as f64, z as f64);
                    if w.obstacles.iter().any(|o| o.contains(p)) {
                        solid += 1;
                    }
                }
            }
        }
        solid as f64 / (nx * ny * nz) as f64
    }

    #[test]
    fn obstacles_stay_inside_channel_and_clear_of_inflow() {
        let gen = FluidGen::standard(Scale::Test);
        let w = gen.generate(1);
        let (nx, ny, nz) = w.dims;
        for x in 0..3 {
            for y in 0..ny {
                for z in 0..nz {
                    let p = (x as f64, y as f64, z as f64);
                    assert!(
                        !w.obstacles.iter().any(|o| o.contains(p)),
                        "inflow plane blocked at {p:?}"
                    );
                }
            }
        }
        assert!(solid_fraction(&w) < 0.5);
        assert!(nx > 0 && ny > 0 && nz > 0);
    }

    #[test]
    fn solid_fraction_grows_with_obstacle_count() {
        let base = FluidGen::standard(Scale::Test);
        let sparse = FluidGen {
            obstacles: 1,
            ..base
        }
        .generate(3);
        let dense = FluidGen {
            obstacles: 8,
            ..base
        }
        .generate(3);
        assert!(solid_fraction(&dense) > solid_fraction(&sparse));
    }

    #[test]
    fn sphere_and_box_membership() {
        let s = Obstacle::Sphere {
            center: (5.0, 5.0, 5.0),
            radius: 2.0,
        };
        assert!(s.contains((5.0, 6.0, 5.0)));
        assert!(!s.contains((9.0, 5.0, 5.0)));
        let b = Obstacle::Box {
            min: (0.0, 0.0, 0.0),
            max: (2.0, 2.0, 2.0),
        };
        assert!(b.contains((1.0, 1.5, 0.5)));
        assert!(!b.contains((3.0, 1.0, 1.0)));
    }

    #[test]
    fn alberta_set_has_thirty_workloads() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 30, "Table II lists 30 lbm workloads");
        // Sweep actually varies density.
        let fracs: Vec<f64> = set.iter().map(|w| solid_fraction(&w.workload)).collect();
        assert!(fracs.contains(&0.0), "zero-obstacle case present");
        assert!(fracs.iter().any(|&f| f > 0.05), "dense case present");
    }

    #[test]
    fn determinism() {
        let gen = FluidGen::standard(Scale::Test);
        assert_eq!(gen.generate(5), gen.generate(5));
    }

    #[test]
    #[should_panic(expected = "tau must exceed 0.5")]
    fn unstable_tau_panics() {
        let mut gen = FluidGen::standard(Scale::Test);
        gen.tau = 0.5;
        let _ = gen.generate(0);
    }
}
