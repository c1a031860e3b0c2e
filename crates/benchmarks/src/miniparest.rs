//! `510.parest_r` stand-in: finite-element parameter estimation.
//!
//! parest recovers spatially varying PDE coefficients from observations
//! (optical tomography with deal.II). This mini solves the same inverse
//! problem on a 5-point finite-difference discretization of
//! `-∇·(a(x) ∇u) = f`: the forward problem is solved with conjugate
//! gradients, synthetic observations are produced from the workload's
//! hidden coefficient field (plus noise), and a Gauss–Newton outer loop
//! with finite-difference Jacobians and Tikhonov regularization recovers
//! the block coefficients. CG inner iterations dominate, as in the
//! original.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::fem::{self, FemWorkload};
use alberta_workloads::{Named, Scale};

const MATRIX_REGION: u64 = 0x1_D000_0000;
const VECTOR_REGION: u64 = 0x1_E000_0000;

pub(crate) struct Fns {
    apply: FnId,
    cg: FnId,
    assemble: FnId,
    gauss_newton: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        apply: profiler.register_function("parest::apply_operator", 2000),
        cg: profiler.register_function("parest::cg_solve", 2600),
        assemble: profiler.register_function("parest::assemble", 1200),
        gauss_newton: profiler.register_function("parest::gauss_newton", 1500),
    }
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E3779B97F4A7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The discretized forward problem on an `n × n` interior grid.
pub(crate) struct ForwardProblem {
    n: usize,
    /// Per-cell coefficient, expanded from block values.
    coeff: Vec<f64>,
    /// Right-hand side (source term).
    rhs: Vec<f64>,
}

impl ForwardProblem {
    /// Builds the problem for the given block coefficients.
    pub(crate) fn new(
        w: &FemWorkload,
        block_coeffs: &[f64],
        profiler: &mut Profiler,
        fns: &Fns,
    ) -> Self {
        profiler.enter(fns.assemble);
        let n = w.mesh;
        let mut coeff = vec![0.0; n * n];
        for y in 0..n {
            for x in 0..n {
                let bx = (x * w.blocks / n).min(w.blocks - 1);
                let by = (y * w.blocks / n).min(w.blocks - 1);
                coeff[y * n + x] = block_coeffs[by * w.blocks + bx];
                profiler.store(MATRIX_REGION + (y * n + x) as u64 * 8);
                profiler.retire(3);
            }
        }
        // A smooth source centred in the domain.
        let mut rhs = vec![0.0; n * n];
        for y in 0..n {
            for x in 0..n {
                let fx = (x as f64 + 0.5) / n as f64 - 0.5;
                let fy = (y as f64 + 0.5) / n as f64 - 0.5;
                rhs[y * n + x] = (-8.0 * (fx * fx + fy * fy)).exp();
            }
        }
        profiler.exit();
        ForwardProblem { n, coeff, rhs }
    }

    /// Applies the operator `v ↦ -∇·(a ∇v)` with zero Dirichlet walls.
    pub(crate) fn apply(&self, v: &[f64], out: &mut [f64], profiler: &mut Profiler, fns: &Fns) {
        profiler.enter(fns.apply);
        let n = self.n;
        let get = |v: &[f64], x: i64, y: i64| -> f64 {
            if x < 0 || y < 0 || x >= n as i64 || y >= n as i64 {
                0.0
            } else {
                v[(y as usize) * n + x as usize]
            }
        };
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                let a = self.coeff[i];
                // Harmonic-ish mean with neighbours keeps symmetry.
                let an = |dx: i64, dy: i64| -> f64 {
                    let xx = x as i64 + dx;
                    let yy = y as i64 + dy;
                    if xx < 0 || yy < 0 || xx >= n as i64 || yy >= n as i64 {
                        a
                    } else {
                        0.5 * (a + self.coeff[(yy as usize) * n + xx as usize])
                    }
                };
                let c = get(v, x as i64, y as i64);
                out[i] = an(1, 0) * (c - get(v, x as i64 + 1, y as i64))
                    + an(-1, 0) * (c - get(v, x as i64 - 1, y as i64))
                    + an(0, 1) * (c - get(v, x as i64, y as i64 + 1))
                    + an(0, -1) * (c - get(v, x as i64, y as i64 - 1));
                profiler.load(MATRIX_REGION + i as u64 * 8);
                profiler.retire(20);
            }
        }
        profiler.exit();
    }

    /// Solves `A u = rhs` by conjugate gradients; returns (u, iterations).
    pub(crate) fn solve(&self, profiler: &mut Profiler, fns: &Fns) -> (Vec<f64>, u32) {
        profiler.enter(fns.cg);
        let n2 = self.n * self.n;
        let mut u = vec![0.0; n2];
        let mut r = self.rhs.clone();
        let mut p = r.clone();
        let mut ap = vec![0.0; n2];
        let mut rr: f64 = r.iter().map(|x| x * x).sum();
        let tol = 1e-10 * rr.max(1e-30);
        let mut iterations = 0;
        let max_iter = 4 * n2 as u32;
        while rr > tol && iterations < max_iter {
            self.apply(&p, &mut ap, profiler, fns);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap.abs() < 1e-30 {
                break;
            }
            let alpha = rr / pap;
            for i in 0..n2 {
                u[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
                profiler.load(VECTOR_REGION + i as u64 * 8);
            }
            let rr_new: f64 = r.iter().map(|x| x * x).sum();
            let beta = rr_new / rr;
            for i in 0..n2 {
                p[i] = r[i] + beta * p[i];
            }
            profiler.retire(n2 as u64 * 6);
            rr = rr_new;
            iterations += 1;
            let converged = rr <= tol;
            profiler.branch(0, converged);
        }
        profiler.exit();
        (u, iterations)
    }
}

/// Result of the inverse solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InverseResult {
    /// Recovered block coefficients.
    pub coefficients: Vec<f64>,
    /// Final data misfit (sum of squared residuals at observations).
    pub misfit: f64,
    /// Initial misfit with the flat starting guess.
    pub initial_misfit: f64,
    /// Total CG iterations across all forward solves.
    pub cg_iterations: u64,
}

fn misfit(observed: &[f64], simulated: &[f64]) -> f64 {
    observed
        .iter()
        .zip(simulated)
        .map(|(o, s)| (o - s) * (o - s))
        .sum()
}

/// Runs the full inverse problem for a workload.
pub(crate) fn estimate(w: &FemWorkload, profiler: &mut Profiler) -> InverseResult {
    let fns = register(profiler);
    let k = w.blocks * w.blocks;
    let mut cg_total = 0u64;

    // Synthetic observations from the hidden coefficients (plus noise).
    let truth = ForwardProblem::new(w, &w.true_coefficients, profiler, &fns);
    let (mut observed, it) = truth.solve(profiler, &fns);
    cg_total += it as u64;
    let mut noise_seed = w.noise_seed;
    for o in observed.iter_mut() {
        let r = (splitmix(&mut noise_seed) % 2000) as f64 / 1000.0 - 1.0;
        *o *= 1.0 + w.noise * r;
    }

    // Gauss–Newton from a flat initial guess.
    let mut coeffs = vec![1.0; k];
    let forward = |coeffs: &[f64], profiler: &mut Profiler, cg: &mut u64| -> Vec<f64> {
        let p = ForwardProblem::new(w, coeffs, profiler, &fns);
        let (u, it) = p.solve(profiler, &fns);
        *cg += it as u64;
        u
    };
    let mut current = forward(&coeffs, profiler, &mut cg_total);
    let initial_misfit = misfit(&observed, &current);
    for _ in 0..w.outer_iterations {
        profiler.enter(fns.gauss_newton);
        // Finite-difference Jacobian: k forward solves.
        let h = 1e-4;
        let n2 = current.len();
        let mut jacobian = vec![vec![0.0; n2]; k];
        profiler.exit();
        for j in 0..k {
            let mut bumped = coeffs.clone();
            bumped[j] += h;
            let u = forward(&bumped, profiler, &mut cg_total);
            for i in 0..n2 {
                jacobian[j][i] = (u[i] - current[i]) / h;
            }
        }
        profiler.enter(fns.gauss_newton);
        // Normal equations (J^T J + λI) δ = J^T r, solved directly (k ≤ 16).
        let mut jtj = vec![vec![0.0; k]; k];
        let mut jtr = vec![0.0; k];
        let residual: Vec<f64> = observed.iter().zip(&current).map(|(o, s)| o - s).collect();
        for a in 0..k {
            for b in 0..k {
                jtj[a][b] = jacobian[a]
                    .iter()
                    .zip(&jacobian[b])
                    .map(|(x, y)| x * y)
                    .sum();
                profiler.retire(n2 as u64 / 8 + 1);
            }
            jtj[a][a] += w.regularization;
            jtr[a] = jacobian[a].iter().zip(&residual).map(|(x, y)| x * y).sum();
        }
        let delta = solve_dense(&mut jtj, &mut jtr);
        for (c, d) in coeffs.iter_mut().zip(&delta) {
            *c = (*c + d).max(0.05); // coefficients stay positive
        }
        profiler.exit();
        current = forward(&coeffs, profiler, &mut cg_total);
    }
    InverseResult {
        coefficients: coeffs,
        misfit: misfit(&observed, &current),
        initial_misfit,
        cg_iterations: cg_total,
    }
}

/// In-place Gaussian elimination with partial pivoting (k ≤ 16).
#[allow(clippy::needless_range_loop)] // `c` walks two rows of the same matrix
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let k = b.len();
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let d = a[col][col];
        if d.abs() < 1e-12 {
            continue;
        }
        for row in col + 1..k {
            let f = a[row][col] / d;
            for c in col..k {
                a[row][c] -= f * a[col][c];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; k];
    for row in (0..k).rev() {
        let mut s = b[row];
        for c in row + 1..k {
            s -= a[row][c] * x[c];
        }
        x[row] = if a[row][row].abs() < 1e-12 {
            0.0
        } else {
            s / a[row][row]
        };
    }
    x
}

/// The parest mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniParest {
    workloads: Vec<Named<FemWorkload>>,
}

impl MiniParest {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniParest {
            workloads: standard_set(scale, fem::train, fem::refrate, fem::alberta_set),
        }
    }
}

impl Benchmark for MiniParest {
    fn name(&self) -> &'static str {
        "510.parest_r"
    }

    fn short_name(&self) -> &'static str {
        "parest"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let result = estimate(w, profiler);
        if !result.misfit.is_finite() {
            return Err(BenchError::InvalidInput {
                benchmark: "510.parest_r",
                reason: "inverse solve diverged".to_owned(),
            });
        }
        Ok(RunOutput {
            checksum: fnv1a(
                result
                    .coefficients
                    .iter()
                    .map(|c| c.to_bits())
                    .chain([result.misfit.to_bits()]),
            ),
            work: result.cg_iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::fem::FemGen;

    fn workload(mesh: usize, blocks: usize, noise: f64) -> FemWorkload {
        let gen = FemGen {
            mesh,
            blocks,
            noise,
            outer_iterations: 3,
        };
        gen.generate(5)
    }

    #[test]
    fn cg_solves_the_forward_problem() {
        let w = workload(10, 2, 0.0);
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let problem = ForwardProblem::new(&w, &w.true_coefficients, &mut p, &fns);
        let (u, iterations) = problem.solve(&mut p, &fns);
        // Residual check: ||A u - rhs|| must be tiny.
        let mut au = vec![0.0; u.len()];
        problem.apply(&u, &mut au, &mut p, &fns);
        let _ = p.finish();
        let res: f64 = au
            .iter()
            .zip(&problem.rhs)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(res < 1e-8, "CG residual {res}");
        assert!(iterations > 0);
    }

    #[test]
    fn operator_is_symmetric() {
        let w = workload(8, 2, 0.0);
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let problem = ForwardProblem::new(&w, &w.true_coefficients, &mut p, &fns);
        let n2 = w.mesh * w.mesh;
        // <Av, w> == <v, Aw> for a couple of deterministic test vectors.
        let v: Vec<f64> = (0..n2).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect();
        let wv: Vec<f64> = (0..n2).map(|i| ((i * 104729) % 17) as f64 - 8.0).collect();
        let mut av = vec![0.0; n2];
        let mut aw = vec![0.0; n2];
        problem.apply(&v, &mut av, &mut p, &fns);
        problem.apply(&wv, &mut aw, &mut p, &fns);
        let _ = p.finish();
        let left: f64 = av.iter().zip(&wv).map(|(a, b)| a * b).sum();
        let right: f64 = v.iter().zip(&aw).map(|(a, b)| a * b).sum();
        assert!((left - right).abs() < 1e-6 * left.abs().max(1.0));
    }

    #[test]
    fn gauss_newton_reduces_misfit() {
        let w = workload(10, 2, 0.0);
        let mut p = Profiler::default();
        let r = estimate(&w, &mut p);
        let _ = p.finish();
        assert!(
            r.misfit < r.initial_misfit * 0.5,
            "misfit {} vs initial {}",
            r.misfit,
            r.initial_misfit
        );
    }

    #[test]
    fn noiseless_recovery_approaches_truth() {
        let w = workload(12, 2, 0.0);
        let mut p = Profiler::default();
        let r = estimate(&w, &mut p);
        let _ = p.finish();
        let err: f64 = r
            .coefficients
            .iter()
            .zip(&w.true_coefficients)
            .map(|(a, b)| (a - b).abs() / b)
            .sum::<f64>()
            / r.coefficients.len() as f64;
        assert!(err < 0.4, "mean relative coefficient error {err}");
    }

    #[test]
    fn dense_solver_matches_hand_computed_system() {
        // [2 1; 1 3] x = [5; 10] → x = [1, 3].
        let mut a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut b = vec![5.0, 10.0];
        let x = solve_dense(&mut a, &mut b);
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniParest::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("alberta.0", &mut p1).unwrap();
        let o2 = b.run("alberta.0", &mut p2).unwrap();
        assert_eq!(o1, o2);
        let cov = p1.finish().coverage_percent();
        assert!(
            cov["parest::apply_operator"] + cov["parest::cg_solve"] > 40.0,
            "{cov:?}"
        );
    }
}
