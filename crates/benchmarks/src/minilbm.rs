//! `519.lbm_r` stand-in: a D3Q19 lattice-Boltzmann fluid solver.
//!
//! Simulates incompressible flow through a 3-D channel with the generated
//! obstacle geometries: BGK collision, streaming into a double buffer,
//! bounce-back at obstacles and walls, and a constant-velocity inflow.
//! Memory behaviour matches the original's: large sequential sweeps over
//! distribution arrays with data-dependent branching only at obstacle
//! cells.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::fluid::{self, FluidWorkload};
use alberta_workloads::{Named, Scale};

const F_REGION: u64 = 0x1_4000_0000;
const FLAG_REGION: u64 = 0x1_5000_0000;

/// The 19 lattice velocities of D3Q19.
pub(crate) const VELOCITIES: [(i32, i32, i32); 19] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];

/// Lattice weights matching [`VELOCITIES`].
pub(crate) const WEIGHTS: [f64; 19] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// Index of the velocity opposite to `q` (for bounce-back).
pub(crate) fn opposite(q: usize) -> usize {
    const OPP: [usize; 19] = [
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
    ];
    OPP[q]
}

/// Cell classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellKind {
    /// Regular fluid cell.
    Fluid,
    /// Solid obstacle or wall (bounce-back).
    Solid,
    /// Inflow cell with prescribed velocity.
    Inflow,
}

/// Result summary of one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LbmStats {
    /// Total mass (density sum) at the end.
    pub mass: f64,
    /// Mean x-velocity over fluid cells.
    pub mean_velocity: f64,
    /// Lattice-site updates performed.
    pub site_updates: u64,
}

pub(crate) struct Fns {
    simulate: FnId,
    collide: FnId,
    stream: FnId,
    boundary: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        // Root scope: every step's kernels nest under it, so call paths
        // read `lbm::simulate;lbm::collide` in flamegraphs. It retires
        // no work itself (attribution follows the innermost frame).
        simulate: profiler.register_function("lbm::simulate", 500),
        collide: profiler.register_function("lbm::collide", 2600),
        stream: profiler.register_function("lbm::stream", 2200),
        boundary: profiler.register_function("lbm::boundary", 900),
    }
}

/// The simulation grid and state.
pub(crate) struct Lattice {
    nx: usize,
    ny: usize,
    nz: usize,
    f: Vec<f64>,
    f_next: Vec<f64>,
    kind: Vec<CellKind>,
    tau: f64,
    inflow: f64,
}

impl Lattice {
    /// Builds the lattice from a workload description.
    pub(crate) fn new(w: &FluidWorkload) -> Self {
        let (nx, ny, nz) = w.dims;
        let cells = nx * ny * nz;
        let mut kind = vec![CellKind::Fluid; cells];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let idx = (z * ny + y) * nx + x;
                    let boundary_wall = y == 0 || y == ny - 1 || z == 0 || z == nz - 1;
                    let in_obstacle = w
                        .obstacles
                        .iter()
                        .any(|o| o.contains((x as f64, y as f64, z as f64)));
                    if boundary_wall || in_obstacle {
                        kind[idx] = CellKind::Solid;
                    } else if x == 0 {
                        kind[idx] = CellKind::Inflow;
                    }
                }
            }
        }
        // Equilibrium at rest everywhere.
        let mut f = vec![0.0; cells * 19];
        for c in 0..cells {
            for q in 0..19 {
                f[c * 19 + q] = WEIGHTS[q];
            }
        }
        Lattice {
            nx,
            ny,
            nz,
            f_next: f.clone(),
            f,
            kind: kind.clone(),
            tau: w.tau,
            inflow: w.inflow,
        }
    }

    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }

    /// Density and momentum of a cell.
    pub(crate) fn macroscopic(&self, cell: usize) -> (f64, f64, f64, f64) {
        let mut rho = 0.0;
        let mut ux = 0.0;
        let mut uy = 0.0;
        let mut uz = 0.0;
        for (q, v) in VELOCITIES.iter().enumerate() {
            let fi = self.f[cell * 19 + q];
            rho += fi;
            ux += fi * v.0 as f64;
            uy += fi * v.1 as f64;
            uz += fi * v.2 as f64;
        }
        (rho, ux / rho, uy / rho, uz / rho)
    }

    fn equilibrium(rho: f64, u: (f64, f64, f64), q: usize) -> f64 {
        let c = VELOCITIES[q];
        let cu = c.0 as f64 * u.0 + c.1 as f64 * u.1 + c.2 as f64 * u.2;
        let u2 = u.0 * u.0 + u.1 * u.1 + u.2 * u.2;
        WEIGHTS[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2)
    }

    /// One collide + stream step.
    pub(crate) fn step(&mut self, profiler: &mut Profiler, fns: &Fns) -> u64 {
        let cells = self.nx * self.ny * self.nz;
        let mut updates = 0u64;
        // Collision (in place).
        profiler.enter(fns.collide);
        for c in 0..cells {
            profiler.load(FLAG_REGION + c as u64);
            let solid = self.kind[c] == CellKind::Solid;
            profiler.branch(0, solid);
            if solid {
                continue;
            }
            let (rho, ux, uy, uz) = self.macroscopic(c);
            let omega = 1.0 / self.tau;
            for q in 0..19 {
                let feq = Lattice::equilibrium(rho, (ux, uy, uz), q);
                let i = c * 19 + q;
                self.f[i] += omega * (feq - self.f[i]);
            }
            profiler.load(F_REGION + (c as u64 * 19) * 8 % (1 << 28));
            profiler.store(F_REGION + (c as u64 * 19) * 8 % (1 << 28));
            profiler.retire(60);
            updates += 1;
        }
        profiler.exit();

        // Streaming with bounce-back.
        profiler.enter(fns.stream);
        for z in 0..self.nz {
            for y in 0..self.ny {
                for x in 0..self.nx {
                    let c = self.idx(x, y, z);
                    if self.kind[c] == CellKind::Solid {
                        continue;
                    }
                    for (q, &(dx, dy, dz)) in VELOCITIES.iter().enumerate() {
                        let sx = x as i32 - dx;
                        let sy = y as i32 - dy;
                        let sz = z as i32 - dz;
                        // Periodic in x (outflow wraps back), walls in y/z.
                        let sx = ((sx + self.nx as i32) % self.nx as i32) as usize;
                        let from_solid = sy < 0
                            || sy >= self.ny as i32
                            || sz < 0
                            || sz >= self.nz as i32
                            || self.kind[self.idx(sx, sy as usize, sz as usize)] == CellKind::Solid;
                        if from_solid {
                            // Bounce back: reflect this cell's own opposite.
                            self.f_next[c * 19 + q] = self.f[c * 19 + opposite(q)];
                        } else {
                            let s = self.idx(sx, sy as usize, sz as usize);
                            self.f_next[c * 19 + q] = self.f[s * 19 + q];
                        }
                    }
                    profiler.load(F_REGION + (c as u64 * 19) * 8 % (1 << 28));
                    profiler.store(F_REGION + ((cells + c) as u64 * 19) * 8 % (1 << 28));
                    profiler.retire(40);
                }
            }
        }
        profiler.exit();
        std::mem::swap(&mut self.f, &mut self.f_next);

        // Inflow condition.
        profiler.enter(fns.boundary);
        for z in 0..self.nz {
            for y in 0..self.ny {
                let c = self.idx(0, y, z);
                if self.kind[c] == CellKind::Inflow {
                    for q in 0..19 {
                        self.f[c * 19 + q] = Lattice::equilibrium(1.0, (self.inflow, 0.0, 0.0), q);
                    }
                    profiler.store(F_REGION + (c as u64 * 19) * 8 % (1 << 28));
                    profiler.retire(25);
                }
            }
        }
        profiler.exit();
        updates
    }

    /// Total mass and mean x-velocity over fluid cells.
    pub(crate) fn stats(&self) -> (f64, f64) {
        let cells = self.nx * self.ny * self.nz;
        let mut mass = 0.0;
        let mut vel = 0.0;
        let mut fluid = 0usize;
        for c in 0..cells {
            if self.kind[c] == CellKind::Solid {
                continue;
            }
            let (rho, ux, _, _) = self.macroscopic(c);
            mass += rho;
            vel += ux;
            fluid += 1;
        }
        (mass, vel / fluid.max(1) as f64)
    }
}

/// Runs a fluid workload to completion.
pub(crate) fn simulate(w: &FluidWorkload, profiler: &mut Profiler) -> LbmStats {
    let fns = register(profiler);
    let mut lattice = Lattice::new(w);
    let mut site_updates = 0;
    profiler.enter(fns.simulate);
    for _ in 0..w.steps {
        site_updates += lattice.step(profiler, &fns);
    }
    profiler.exit();
    let (mass, mean_velocity) = lattice.stats();
    LbmStats {
        mass,
        mean_velocity,
        site_updates,
    }
}

/// The lbm mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniLbm {
    workloads: Vec<Named<FluidWorkload>>,
}

impl MiniLbm {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniLbm {
            workloads: standard_set(scale, fluid::train, fluid::refrate, fluid::alberta_set),
        }
    }
}

impl Benchmark for MiniLbm {
    fn name(&self) -> &'static str {
        "519.lbm_r"
    }

    fn short_name(&self) -> &'static str {
        "lbm"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let stats = simulate(w, profiler);
        if !stats.mass.is_finite() {
            return Err(BenchError::InvalidInput {
                benchmark: "519.lbm_r",
                reason: "simulation diverged to non-finite mass".to_owned(),
            });
        }
        Ok(RunOutput {
            checksum: fnv1a([stats.mass.to_bits(), stats.mean_velocity.to_bits()]),
            work: stats.site_updates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::fluid::FluidGen;

    fn small_workload(obstacles: usize, steps: usize) -> FluidWorkload {
        let mut gen = FluidGen::standard(Scale::Test);
        gen.dims = (12, 8, 8);
        gen.obstacles = obstacles;
        gen.steps = steps;
        gen.generate(1)
    }

    #[test]
    fn opposite_velocities_are_inverses() {
        for q in 0..19 {
            let (dx, dy, dz) = VELOCITIES[q];
            let (ox, oy, oz) = VELOCITIES[opposite(q)];
            assert_eq!((dx, dy, dz), (-ox, -oy, -oz), "q={q}");
            assert_eq!(opposite(opposite(q)), q);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let s: f64 = WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equilibrium_at_rest_recovers_weights() {
        for (q, &w) in WEIGHTS.iter().enumerate() {
            let feq = Lattice::equilibrium(1.0, (0.0, 0.0, 0.0), q);
            assert!((feq - w).abs() < 1e-12);
        }
    }

    #[test]
    fn resting_fluid_without_inflow_stays_at_rest() {
        let mut w = small_workload(0, 3);
        w.inflow = 0.0;
        let mut p = Profiler::default();
        let stats = simulate(&w, &mut p);
        let _ = p.finish();
        assert!(stats.mean_velocity.abs() < 1e-9, "{}", stats.mean_velocity);
    }

    #[test]
    fn inflow_drives_positive_mean_velocity() {
        let w = small_workload(0, 6);
        let mut p = Profiler::default();
        let stats = simulate(&w, &mut p);
        let _ = p.finish();
        assert!(stats.mean_velocity > 1e-4, "{}", stats.mean_velocity);
        assert!(stats.mass.is_finite() && stats.mass > 0.0);
    }

    #[test]
    fn obstacles_reduce_fluid_cells_and_updates() {
        let open = small_workload(0, 2);
        let blocked = small_workload(6, 2);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let s1 = simulate(&open, &mut p1);
        let s2 = simulate(&blocked, &mut p2);
        let _ = (p1.finish(), p2.finish());
        assert!(s2.site_updates <= s1.site_updates);
    }

    #[test]
    fn simulation_is_stable_over_many_steps() {
        let w = small_workload(2, 30);
        let mut p = Profiler::default();
        let stats = simulate(&w, &mut p);
        let _ = p.finish();
        assert!(stats.mass.is_finite());
        assert!(stats.mean_velocity.is_finite());
        assert!(
            stats.mean_velocity.abs() < 1.0,
            "lattice units stay subsonic"
        );
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniLbm::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("train", &mut p1).unwrap();
        let o2 = b.run("train", &mut p2).unwrap();
        assert_eq!(o1, o2);
        let cov = p1.finish().coverage_percent();
        assert!(cov["lbm::collide"] + cov["lbm::stream"] > 70.0, "{cov:?}");
    }
}
