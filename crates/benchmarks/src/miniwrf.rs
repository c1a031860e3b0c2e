//! `521.wrf_r` stand-in: a numerical weather-prediction kernel.
//!
//! Evolves a synthetic storm (vorticity-driven wind field plus moisture
//! and temperature tracers) on a 2-D periodic grid with semi-Lagrangian
//! advection, diffusion, and the four switchable physics modules the
//! paper's workloads toggle: cloud microphysics (condensation +
//! precipitation), long-wave radiative cooling, land-surface coupling
//! over generated terrain, and a boundary-layer mixing scheme.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::weather::{self, WeatherWorkload};
use alberta_workloads::{Named, Scale};

const FIELD_REGION: u64 = 0x1_6000_0000;
const TERRAIN_REGION: u64 = 0x1_7000_0000;

/// The prognostic fields of the model.
#[derive(Debug, Clone)]
pub(crate) struct Atmosphere {
    n: usize,
    /// Wind components.
    pub u: Vec<f64>,
    /// Wind components.
    pub v: Vec<f64>,
    /// Moisture mixing ratio.
    pub moisture: Vec<f64>,
    /// Temperature anomaly.
    pub temperature: Vec<f64>,
    /// Accumulated precipitation.
    pub precip: Vec<f64>,
    /// Terrain height (static).
    pub terrain: Vec<f64>,
}

struct Fns {
    advect: FnId,
    micro: FnId,
    radiation: FnId,
    surface: FnId,
    pbl: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        advect: profiler.register_function("wrf::advect", 2800),
        micro: profiler.register_function("wrf::microphysics", 1800),
        radiation: profiler.register_function("wrf::radiation", 1200),
        surface: profiler.register_function("wrf::land_surface", 1400),
        pbl: profiler.register_function("wrf::boundary_layer", 1600),
    }
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E3779B97F4A7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Atmosphere {
    /// Initializes the fields from a workload (storm vortex + terrain).
    pub(crate) fn new(w: &WeatherWorkload) -> Self {
        let n = w.grid;
        let mut a = Atmosphere {
            n,
            u: vec![0.0; n * n],
            v: vec![0.0; n * n],
            moisture: vec![0.0; n * n],
            temperature: vec![0.0; n * n],
            precip: vec![0.0; n * n],
            terrain: vec![0.0; n * n],
        };
        // Fractal-ish terrain from the seed.
        let mut seed = w.terrain_seed;
        for v in a.terrain.iter_mut() {
            *v = (splitmix(&mut seed) % 1000) as f64 / 1000.0 * 0.4;
        }
        // Smooth the terrain twice.
        for _ in 0..2 {
            let old = a.terrain.clone();
            for y in 0..n {
                for x in 0..n {
                    let mut s = 0.0;
                    for (dx, dy) in [(0i32, 0i32), (1, 0), (-1, 0), (0, 1), (0, -1)] {
                        s += old[a.wrap(x as i32 + dx, y as i32 + dy)];
                    }
                    a.terrain[y * n + x] = s / 5.0;
                }
            }
        }
        // Rankine-style vortex for the storm.
        let cx = w.storm.center.0 * n as f64;
        let cy = w.storm.center.1 * n as f64;
        let radius = w.storm.radius * n as f64;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let r = (dx * dx + dy * dy).sqrt().max(1e-9);
                let speed = if r < radius {
                    w.storm.intensity * r / radius
                } else {
                    w.storm.intensity * radius / r
                };
                let i = y * n + x;
                a.u[i] = -dy / r * speed + w.storm.steering.0 * 0.3;
                a.v[i] = dx / r * speed + w.storm.steering.1 * 0.3;
                a.moisture[i] = w.storm.moisture * (-r / (2.0 * radius)).exp();
                a.temperature[i] = 0.5 * (-r / radius).exp();
            }
        }
        a
    }

    fn wrap(&self, x: i32, y: i32) -> usize {
        let n = self.n as i32;
        let x = ((x % n) + n) % n;
        let y = ((y % n) + n) % n;
        (y * n + x) as usize
    }

    /// Bilinear sample of a field at fractional coordinates (periodic).
    fn sample(&self, field: &[f64], x: f64, y: f64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let i00 = self.wrap(x0 as i32, y0 as i32);
        let i10 = self.wrap(x0 as i32 + 1, y0 as i32);
        let i01 = self.wrap(x0 as i32, y0 as i32 + 1);
        let i11 = self.wrap(x0 as i32 + 1, y0 as i32 + 1);
        field[i00] * (1.0 - fx) * (1.0 - fy)
            + field[i10] * fx * (1.0 - fy)
            + field[i01] * (1.0 - fx) * fy
            + field[i11] * fx * fy
    }

    /// Total moisture plus accumulated precipitation (conserved when
    /// microphysics is the only moisture sink).
    pub(crate) fn total_water(&self) -> f64 {
        self.moisture.iter().sum::<f64>() + self.precip.iter().sum::<f64>()
    }
}

/// Runs one workload; returns the final state and work counter.
pub(crate) fn simulate(w: &WeatherWorkload, profiler: &mut Profiler) -> (Atmosphere, u64) {
    let fns = register(profiler);
    let mut a = Atmosphere::new(w);
    let n = a.n;
    let dt = 0.5;
    let mut work = 0u64;
    for _ in 0..w.steps {
        // Semi-Lagrangian advection of all prognostic fields.
        profiler.enter(fns.advect);
        let u0 = a.u.clone();
        let v0 = a.v.clone();
        let m0 = a.moisture.clone();
        let t0 = a.temperature.clone();
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                let sx = x as f64 - u0[i] * dt;
                let sy = y as f64 - v0[i] * dt;
                a.u[i] = a.sample(&u0, sx, sy) * 0.999;
                a.v[i] = a.sample(&v0, sx, sy) * 0.999;
                a.moisture[i] = a.sample(&m0, sx, sy);
                a.temperature[i] = a.sample(&t0, sx, sy);
                profiler.load(FIELD_REGION + i as u64 * 32);
                profiler.store(FIELD_REGION + i as u64 * 32);
                profiler.retire(30);
                work += 1;
            }
        }
        profiler.exit();

        if w.physics.microphysics {
            profiler.enter(fns.micro);
            for i in 0..n * n {
                // Condensation where moisture exceeds a temperature-scaled
                // saturation threshold; condensate precipitates out.
                let saturation = 0.6 + 0.3 * a.temperature[i];
                let excess = a.moisture[i] - saturation;
                profiler.branch(0, excess > 0.0);
                profiler.retire(4);
                if excess > 0.0 {
                    let rain = excess * 0.5;
                    a.moisture[i] -= rain;
                    a.precip[i] += rain;
                    a.temperature[i] += 0.2 * rain; // latent heat
                    profiler.store(FIELD_REGION + i as u64 * 32 + 8);
                }
            }
            profiler.exit();
        }
        if w.physics.longwave_radiation {
            profiler.enter(fns.radiation);
            for i in 0..n * n {
                a.temperature[i] *= 0.98; // radiative cooling toward 0
                profiler.retire(2);
            }
            profiler.exit();
        }
        if w.physics.land_surface {
            profiler.enter(fns.surface);
            for i in 0..n * n {
                // High terrain cools and dries the column; low terrain
                // (water-like) moistens it slightly.
                let h = a.terrain[i];
                profiler.load(TERRAIN_REGION + i as u64 * 8);
                let highland = h > 0.2;
                profiler.branch(1, highland);
                if highland {
                    a.temperature[i] -= 0.01 * h;
                    a.moisture[i] *= 0.995;
                } else {
                    a.moisture[i] += 0.001 * (1.0 - h);
                }
                profiler.retire(5);
            }
            profiler.exit();
        }
        if w.physics.boundary_layer > 0 {
            profiler.enter(fns.pbl);
            let strength = 0.05 * w.physics.boundary_layer as f64;
            let u0 = a.u.clone();
            let v0 = a.v.clone();
            for y in 0..n {
                for x in 0..n {
                    let i = y * n + x;
                    let mut su = 0.0;
                    let mut sv = 0.0;
                    for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1)] {
                        let j = a.wrap(x as i32 + dx, y as i32 + dy);
                        su += u0[j];
                        sv += v0[j];
                    }
                    a.u[i] += strength * (su / 4.0 - u0[i]);
                    a.v[i] += strength * (sv / 4.0 - v0[i]);
                    profiler.retire(12);
                }
            }
            profiler.exit();
        }
    }
    (a, work)
}

/// The wrf mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniWrf {
    workloads: Vec<Named<WeatherWorkload>>,
}

impl MiniWrf {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniWrf {
            workloads: standard_set(
                scale,
                weather::train,
                weather::refrate,
                weather::alberta_set,
            ),
        }
    }
}

impl Benchmark for MiniWrf {
    fn name(&self) -> &'static str {
        "521.wrf_r"
    }

    fn short_name(&self) -> &'static str {
        "wrf"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let (atmos, work) = simulate(w, profiler);
        let total_precip: f64 = atmos.precip.iter().sum();
        if !total_precip.is_finite() {
            return Err(BenchError::InvalidInput {
                benchmark: "521.wrf_r",
                reason: "forecast diverged".to_owned(),
            });
        }
        Ok(RunOutput {
            checksum: fnv1a([total_precip.to_bits(), atmos.total_water().to_bits()]),
            work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::weather::{PhysicsOptions, Storm, WeatherGen};

    fn workload(storm: Storm, physics: PhysicsOptions, steps: usize) -> WeatherWorkload {
        let mut gen = WeatherGen::standard(Scale::Test);
        gen.steps = steps;
        gen.generate(storm, physics, 11)
    }

    fn run(w: &WeatherWorkload) -> (Atmosphere, u64) {
        let mut p = Profiler::default();
        let out = simulate(w, &mut p);
        let _ = p.finish();
        out
    }

    #[test]
    fn initial_vortex_rotates_around_center() {
        let w = workload(Storm::katrina(), PhysicsOptions::dynamics_only(), 1);
        let a = Atmosphere::new(&w);
        let n = a.n;
        let cx = (w.storm.center.0 * n as f64) as usize;
        let cy = (w.storm.center.1 * n as f64) as usize;
        // East of the center the wind blows north-ish (v > steering bias).
        let east = cy * n + (cx + 3).min(n - 1);
        assert!(a.v[east] > a.v[cy * n + cx], "cyclonic rotation expected");
    }

    #[test]
    fn water_is_conserved_with_microphysics_only() {
        let physics = PhysicsOptions {
            microphysics: true,
            ..PhysicsOptions::dynamics_only()
        };
        let w = workload(Storm::rusa(), physics, 4);
        let a0 = Atmosphere::new(&w);
        let before = a0.total_water();
        let (a, _) = run(&w);
        let after = a.total_water();
        // Semi-Lagrangian advection is not exactly conservative, but the
        // microphysics moisture→precip exchange must be: allow only the
        // small interpolation drift.
        let drift = (after - before).abs() / before;
        assert!(drift < 0.05, "water drift {drift}");
    }

    #[test]
    fn microphysics_produces_rain_in_a_moist_storm() {
        let physics = PhysicsOptions {
            microphysics: true,
            ..PhysicsOptions::dynamics_only()
        };
        let w = workload(Storm::katrina(), physics, 5);
        let (a, _) = run(&w);
        assert!(a.precip.iter().sum::<f64>() > 0.0, "no rain fell");
    }

    #[test]
    fn dynamics_only_never_rains() {
        let w = workload(Storm::katrina(), PhysicsOptions::dynamics_only(), 5);
        let (a, _) = run(&w);
        assert_eq!(a.precip.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn radiation_cools_the_domain() {
        let with = workload(
            Storm::rusa(),
            PhysicsOptions {
                longwave_radiation: true,
                ..PhysicsOptions::dynamics_only()
            },
            6,
        );
        let without = workload(Storm::rusa(), PhysicsOptions::dynamics_only(), 6);
        let (a1, _) = run(&with);
        let (a2, _) = run(&without);
        let t1: f64 = a1.temperature.iter().sum();
        let t2: f64 = a2.temperature.iter().sum();
        assert!(t1 < t2, "radiation must cool: {t1} vs {t2}");
    }

    #[test]
    fn boundary_layer_smooths_the_wind_field() {
        let with = workload(
            Storm::katrina(),
            PhysicsOptions {
                boundary_layer: 2,
                ..PhysicsOptions::dynamics_only()
            },
            4,
        );
        let without = workload(Storm::katrina(), PhysicsOptions::dynamics_only(), 4);
        let (a1, _) = run(&with);
        let (a2, _) = run(&without);
        let roughness = |a: &Atmosphere| -> f64 {
            let n = a.n;
            let mut r = 0.0;
            for y in 0..n {
                for x in 0..n - 1 {
                    r += (a.u[y * n + x + 1] - a.u[y * n + x]).abs();
                }
            }
            r
        };
        assert!(roughness(&a1) < roughness(&a2), "PBL must smooth wind");
    }

    #[test]
    fn physics_options_change_executed_work_mix() {
        let full = workload(Storm::katrina(), PhysicsOptions::full(), 3);
        let dynamics = workload(Storm::katrina(), PhysicsOptions::dynamics_only(), 3);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        simulate(&full, &mut p1);
        simulate(&dynamics, &mut p2);
        let cov_full = p1.finish().coverage_percent();
        let cov_dyn = p2.finish().coverage_percent();
        assert!(cov_full["wrf::microphysics"] > 0.0);
        assert_eq!(cov_dyn["wrf::microphysics"], 0.0);
        assert!(cov_dyn["wrf::advect"] > cov_full["wrf::advect"]);
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniWrf::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("alberta.katrina.full", &mut p1).unwrap();
        let o2 = b.run("alberta.katrina.full", &mut p2).unwrap();
        assert_eq!(o1, o2);
        assert!(o1.work > 0);
    }
}
