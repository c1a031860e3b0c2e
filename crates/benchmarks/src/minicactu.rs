//! `507.cactuBSSN_r` stand-in: a 3-D finite-difference evolution of a
//! BSSN-flavoured hyperbolic system.
//!
//! The real benchmark evolves Einstein's equations in vacuum with the
//! EinsteinToolkit. This mini evolves the closest tractable analogue: a
//! first-order-in-time wave system `∂t φ = K`, `∂t K = ∇²φ` with an
//! auxiliary conformal-factor field and Kreiss–Oliger dissipation, on a
//! cubic grid with the workload's resolution, Courant factor, and
//! initial data (Gaussian pulse, binary pulses, or smooth noise). The
//! computational pattern — wide 3-D stencils over several coupled fields
//! — is what makes cactuBSSN behave as it does.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::pde::{self, InitialData, PdeWorkload};
use alberta_workloads::{Named, Scale};

const PHI_REGION: u64 = 0x1_8000_0000;
const K_REGION: u64 = 0x1_9000_0000;

/// The evolved fields.
#[derive(Debug, Clone)]
pub(crate) struct BssnState {
    n: usize,
    /// Wave field φ.
    pub phi: Vec<f64>,
    /// Extrinsic-curvature-like field K = ∂t φ.
    pub kk: Vec<f64>,
    /// Auxiliary conformal-factor-like field (relaxes toward 1 + φ²).
    pub conformal: Vec<f64>,
}

pub(crate) struct Fns {
    rhs: FnId,
    dissipation: FnId,
    update: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        rhs: profiler.register_function("cactu::compute_rhs", 3200),
        dissipation: profiler.register_function("cactu::kreiss_oliger", 1600),
        update: profiler.register_function("cactu::update_fields", 1000),
    }
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E3779B97F4A7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl BssnState {
    /// Initializes fields from the workload's initial data.
    pub(crate) fn new(w: &PdeWorkload) -> Self {
        let n = w.grid;
        let mut phi = vec![0.0; n * n * n];
        let gauss = |phi: &mut [f64], cx: f64, cy: f64, cz: f64, width: f64| {
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let dx = (x as f64 - cx) / (width * n as f64);
                        let dy = (y as f64 - cy) / (width * n as f64);
                        let dz = (z as f64 - cz) / (width * n as f64);
                        phi[(z * n + y) * n + x] += (-(dx * dx + dy * dy + dz * dz)).exp();
                    }
                }
            }
        };
        let c = n as f64 / 2.0;
        match w.initial {
            InitialData::GaussianPulse { width } => gauss(&mut phi, c, c, c, width),
            InitialData::BinaryPulses { separation } => {
                let off = separation * n as f64 / 2.0;
                gauss(&mut phi, c - off, c, c, 0.1);
                gauss(&mut phi, c + off, c, c, 0.1);
            }
            InitialData::SmoothNoise { amplitude } => {
                let mut seed = w.seed;
                for v in phi.iter_mut() {
                    *v = ((splitmix(&mut seed) % 2000) as f64 / 1000.0 - 1.0) * amplitude;
                }
                // One smoothing pass keeps it resolvable.
                let old = phi.clone();
                for z in 1..n - 1 {
                    for y in 1..n - 1 {
                        for x in 1..n - 1 {
                            let i = (z * n + y) * n + x;
                            phi[i] = (old[i]
                                + old[i - 1]
                                + old[i + 1]
                                + old[i - n]
                                + old[i + n]
                                + old[i - n * n]
                                + old[i + n * n])
                                / 7.0;
                        }
                    }
                }
            }
        }
        BssnState {
            n,
            kk: vec![0.0; n * n * n],
            conformal: vec![1.0; n * n * n],
            phi,
        }
    }

    fn lap(&self, field: &[f64], x: usize, y: usize, z: usize) -> f64 {
        let n = self.n;
        let i = (z * n + y) * n + x;
        field[i - 1]
            + field[i + 1]
            + field[i - n]
            + field[i + n]
            + field[i - n * n]
            + field[i + n * n]
            - 6.0 * field[i]
    }

    /// One evolution step. Symplectic (Euler–Cromer) time stepping: the
    /// momentum field `K` is advanced with the old Laplacian, then `φ`
    /// with the *new* `K` — stable for wave systems under the CFL bound,
    /// where naive forward Euler would grow without bound.
    pub(crate) fn step(&mut self, w: &PdeWorkload, profiler: &mut Profiler, fns: &Fns) -> u64 {
        let n = self.n;
        let dt = w.courant; // dx = 1
        let mut work = 0u64;
        profiler.enter(fns.rhs);
        let mut dk = vec![0.0; n * n * n];
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = (z * n + y) * n + x;
                    dk[i] = self.lap(&self.phi, x, y, z);
                    profiler.load(PHI_REGION + i as u64 * 8);
                    profiler.load(K_REGION + i as u64 * 8);
                    profiler.retire(14);
                    work += 1;
                }
            }
        }
        profiler.exit();

        let mut diss = vec![0.0; n * n * n];
        if w.dissipation > 0.0 {
            profiler.enter(fns.dissipation);
            for z in 2..n - 2 {
                for y in 2..n - 2 {
                    for x in 2..n - 2 {
                        let i = (z * n + y) * n + x;
                        // Fourth-derivative dissipation along x only (the
                        // classic KO operator applied dimension-split).
                        let d4 = self.phi[i - 2] - 4.0 * self.phi[i - 1] + 6.0 * self.phi[i]
                            - 4.0 * self.phi[i + 1]
                            + self.phi[i + 2];
                        diss[i] = -w.dissipation * d4 / 16.0;
                        profiler.retire(8);
                    }
                }
            }
            profiler.exit();
        }

        profiler.enter(fns.update);
        for i in 0..n * n * n {
            self.kk[i] += dt * dk[i];
            self.phi[i] += dt * (self.kk[i] + diss[i]);
            // Conformal factor relaxes toward 1 + φ² (nonlinear coupling
            // standing in for the BSSN constraint fields).
            self.conformal[i] += 0.1 * dt * (1.0 + self.phi[i] * self.phi[i] - self.conformal[i]);
            profiler.store(PHI_REGION + i as u64 * 8);
            profiler.retire(8);
        }
        profiler.exit();
        work
    }

    /// Discrete wave energy `Σ (K² + |∇φ|²)/2` over interior points.
    pub(crate) fn energy(&self) -> f64 {
        let n = self.n;
        let mut e = 0.0;
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = (z * n + y) * n + x;
                    let gx = (self.phi[i + 1] - self.phi[i - 1]) / 2.0;
                    let gy = (self.phi[i + n] - self.phi[i - n]) / 2.0;
                    let gz = (self.phi[i + n * n] - self.phi[i - n * n]) / 2.0;
                    e += 0.5 * (self.kk[i] * self.kk[i] + gx * gx + gy * gy + gz * gz);
                }
            }
        }
        e
    }

    /// Maximum |φ| over the grid.
    pub(crate) fn max_abs_phi(&self) -> f64 {
        self.phi.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

/// Runs a workload; returns the final state and total site updates.
pub(crate) fn simulate(w: &PdeWorkload, profiler: &mut Profiler) -> (BssnState, u64) {
    let fns = register(profiler);
    let mut state = BssnState::new(w);
    let mut work = 0;
    for _ in 0..w.steps {
        work += state.step(w, profiler, &fns);
    }
    (state, work)
}

/// The cactuBSSN mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniCactu {
    workloads: Vec<Named<PdeWorkload>>,
}

impl MiniCactu {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniCactu {
            workloads: standard_set(scale, pde::train, pde::refrate, pde::alberta_set),
        }
    }
}

impl Benchmark for MiniCactu {
    fn name(&self) -> &'static str {
        "507.cactuBSSN_r"
    }

    fn short_name(&self) -> &'static str {
        "cactuBSSN"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let (state, work) = simulate(w, profiler);
        let e = state.energy();
        if !e.is_finite() {
            return Err(BenchError::InvalidInput {
                benchmark: "507.cactuBSSN_r",
                reason: "evolution diverged".to_owned(),
            });
        }
        Ok(RunOutput {
            checksum: fnv1a([e.to_bits(), state.max_abs_phi().to_bits()]),
            work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::pde::PdeGen;

    fn workload(initial: InitialData, steps: usize) -> PdeWorkload {
        let mut gen = PdeGen::standard(Scale::Test);
        gen.steps = steps;
        let mut w = gen.generate(initial, 3);
        w.courant = 0.25;
        w.dissipation = 0.1;
        w
    }

    fn run(w: &PdeWorkload) -> (BssnState, u64) {
        let mut p = Profiler::default();
        let out = simulate(w, &mut p);
        let _ = p.finish();
        out
    }

    #[test]
    fn flat_space_stays_flat() {
        let mut w = workload(InitialData::SmoothNoise { amplitude: 0.0 }, 6);
        w.dissipation = 0.0;
        let (state, _) = run(&w);
        assert!(state.max_abs_phi() < 1e-12);
        assert!(state.energy() < 1e-12);
        // Conformal factor relaxes to exactly 1 for φ = 0.
        for &c in state.conformal.iter().take(16) {
            assert!((c - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pulse_spreads_outward() {
        let w = workload(InitialData::GaussianPulse { width: 0.1 }, 8);
        let initial = BssnState::new(&w);
        let peak0 = initial.max_abs_phi();
        let (state, _) = run(&w);
        // The central peak decays as the wave propagates outward.
        let n = state.n;
        let center = (n / 2 * n + n / 2) * n + n / 2;
        assert!(
            state.phi[center].abs() < peak0,
            "center must radiate energy away"
        );
    }

    #[test]
    fn evolution_is_stable_under_cfl() {
        let w = workload(InitialData::BinaryPulses { separation: 0.3 }, 20);
        let (state, _) = run(&w);
        assert!(state.energy().is_finite());
        assert!(state.max_abs_phi() < 10.0, "bounded evolution expected");
    }

    #[test]
    fn dissipation_reduces_noise_energy() {
        let base = workload(InitialData::SmoothNoise { amplitude: 0.2 }, 6);
        let mut no_diss = base.clone();
        no_diss.dissipation = 0.0;
        let mut with_diss = base;
        with_diss.dissipation = 0.3;
        let (s1, _) = run(&no_diss);
        let (s2, _) = run(&with_diss);
        assert!(
            s2.energy() < s1.energy(),
            "KO dissipation must damp noise: {} vs {}",
            s2.energy(),
            s1.energy()
        );
    }

    #[test]
    fn finer_grids_do_more_work() {
        let coarse =
            PdeGen { grid: 10, steps: 2 }.generate(InitialData::GaussianPulse { width: 0.2 }, 1);
        let fine =
            PdeGen { grid: 20, steps: 2 }.generate(InitialData::GaussianPulse { width: 0.2 }, 1);
        let (_, w1) = run(&coarse);
        let (_, w2) = run(&fine);
        assert!(w2 > w1 * 4);
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniCactu::new(Scale::Test);
        let name = b
            .workload_names()
            .into_iter()
            .find(|n| n.starts_with("alberta.gauss"))
            .expect("gaussian workload present");
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run(&name, &mut p1).unwrap();
        let o2 = b.run(&name, &mut p2).unwrap();
        assert_eq!(o1, o2);
        let cov = p1.finish().coverage_percent();
        assert!(cov["cactu::compute_rhs"] > 25.0, "{cov:?}");
    }
}
