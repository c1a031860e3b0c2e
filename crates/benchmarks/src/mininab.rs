//! `544.nab_r` stand-in: molecular-mechanics force evaluation and
//! dynamics.
//!
//! The Nucleic Acid Builder evaluates force fields over biomolecules.
//! This mini evaluates the same term families over the generated
//! protein-like chains: harmonic bonds, harmonic angles, and nonbonded
//! Lennard-Jones + Coulomb interactions within a cutoff (found via a cell
//! list), integrated with velocity Verlet. Force symmetry (Newton's third
//! law) is the correctness oracle.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::molecule::{self, Molecule};
use alberta_workloads::{Named, Scale};

const POS_REGION: u64 = 0x1_A000_0000;
const FORCE_REGION: u64 = 0x1_B000_0000;
const CELL_REGION: u64 = 0x1_C000_0000;

type V3 = (f64, f64, f64);

fn sub(a: V3, b: V3) -> V3 {
    (a.0 - b.0, a.1 - b.1, a.2 - b.2)
}

fn add(a: V3, b: V3) -> V3 {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

fn scale(a: V3, k: f64) -> V3 {
    (a.0 * k, a.1 * k, a.2 * k)
}

fn norm(a: V3) -> f64 {
    (a.0 * a.0 + a.1 * a.1 + a.2 * a.2).sqrt()
}

fn dot(a: V3, b: V3) -> f64 {
    a.0 * b.0 + a.1 * b.1 + a.2 * b.2
}

pub(crate) struct Fns {
    bonded: FnId,
    angles: FnId,
    nonbonded: FnId,
    cells: FnId,
    integrate: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        bonded: profiler.register_function("nab::bond_forces", 1200),
        angles: profiler.register_function("nab::angle_forces", 1600),
        nonbonded: profiler.register_function("nab::nonbonded_forces", 3000),
        cells: profiler.register_function("nab::build_cell_list", 1100),
        integrate: profiler.register_function("nab::verlet", 800),
    }
}

/// Forces on every atom plus the potential energy.
#[derive(Debug, Clone)]
pub(crate) struct ForceField {
    /// Per-atom force vectors.
    pub forces: Vec<V3>,
    /// Total potential energy.
    pub energy: f64,
    /// Nonbonded pairs evaluated (work metric).
    pub pairs: u64,
}

/// Evaluates all force-field terms for the current positions.
pub(crate) fn evaluate_forces(
    mol: &Molecule,
    positions: &[V3],
    profiler: &mut Profiler,
    fns: &Fns,
) -> ForceField {
    let n = positions.len();
    let mut forces = vec![(0.0, 0.0, 0.0); n];
    let mut energy = 0.0;

    // Bonds.
    profiler.enter(fns.bonded);
    for b in &mol.bonds {
        let (i, j) = (b.a as usize, b.b as usize);
        let d = sub(positions[j], positions[i]);
        let r = norm(d).max(1e-9);
        let stretch = r - b.length;
        energy += 0.5 * b.k * stretch * stretch;
        let f = scale(d, b.k * stretch / r);
        forces[i] = add(forces[i], f);
        forces[j] = sub(forces[j], f);
        profiler.load(POS_REGION + i as u64 * 24);
        profiler.store(FORCE_REGION + j as u64 * 24);
        profiler.retire(16);
    }
    profiler.exit();

    // Angles (harmonic in the cosine, which keeps forces simple and
    // exactly symmetric).
    profiler.enter(fns.angles);
    for a in &mol.angles {
        let (i, j, k) = (a.a as usize, a.b as usize, a.c as usize);
        let r1 = sub(positions[i], positions[j]);
        let r2 = sub(positions[k], positions[j]);
        let n1 = norm(r1).max(1e-9);
        let n2 = norm(r2).max(1e-9);
        let cos_t = (dot(r1, r2) / (n1 * n2)).clamp(-1.0, 1.0);
        let cos0 = a.theta0.cos();
        let diff = cos_t - cos0;
        energy += 0.5 * a.k * diff * diff;
        // dE/dcos = k * diff; gradient of cos wrt each position.
        let g = a.k * diff;
        let gi = scale(
            sub(scale(r2, 1.0 / (n1 * n2)), scale(r1, cos_t / (n1 * n1))),
            g,
        );
        let gk = scale(
            sub(scale(r1, 1.0 / (n1 * n2)), scale(r2, cos_t / (n2 * n2))),
            g,
        );
        forces[i] = sub(forces[i], gi);
        forces[k] = sub(forces[k], gk);
        forces[j] = add(forces[j], add(gi, gk));
        profiler.load(POS_REGION + j as u64 * 24);
        profiler.retire(30);
    }
    profiler.exit();

    // Nonbonded via a cell list.
    profiler.enter(fns.cells);
    let cutoff = mol.cutoff;
    let cell = cutoff.max(1.0);
    let mut min = positions[0];
    for p in positions {
        min = (min.0.min(p.0), min.1.min(p.1), min.2.min(p.2));
    }
    let key = |p: V3| -> (i32, i32, i32) {
        (
            ((p.0 - min.0) / cell) as i32,
            ((p.1 - min.1) / cell) as i32,
            ((p.2 - min.2) / cell) as i32,
        )
    };
    let mut cells: std::collections::BTreeMap<(i32, i32, i32), Vec<usize>> = Default::default();
    for (i, &p) in positions.iter().enumerate() {
        cells.entry(key(p)).or_default().push(i);
        profiler.store(CELL_REGION + i as u64 * 8);
        profiler.retire(4);
    }
    profiler.exit();

    profiler.enter(fns.nonbonded);
    let mut pairs = 0u64;
    let cut2 = cutoff * cutoff;
    for (&(cx, cy, cz), atoms) in &cells {
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let Some(neighbors) = cells.get(&(cx + dx, cy + dy, cz + dz)) else {
                        continue;
                    };
                    for &i in atoms {
                        for &j in neighbors {
                            if j <= i {
                                continue;
                            }
                            // Bonded neighbours are excluded (1-2 pairs).
                            if (i as i64 - j as i64).abs() == 1 {
                                continue;
                            }
                            let d = sub(positions[j], positions[i]);
                            let r2 = dot(d, d);
                            let within = r2 < cut2;
                            profiler.branch(0, within);
                            profiler.load(POS_REGION + j as u64 * 24);
                            profiler.retire(6);
                            if !within {
                                continue;
                            }
                            pairs += 1;
                            let ai = &mol.atoms[i];
                            let aj = &mol.atoms[j];
                            let r2 = r2.max(0.5);
                            let r = r2.sqrt();
                            let sigma = 0.5 * (ai.sigma + aj.sigma);
                            let eps = (ai.epsilon * aj.epsilon).sqrt();
                            let s6 = (sigma * sigma / r2).powi(3);
                            let s12 = s6 * s6;
                            energy += 4.0 * eps * (s12 - s6);
                            let lj_mag = 24.0 * eps * (2.0 * s12 - s6) / r2;
                            let coulomb = 332.0 * ai.charge * aj.charge / r;
                            energy += coulomb;
                            let c_mag = coulomb / r2;
                            let f = scale(d, lj_mag + c_mag);
                            forces[i] = sub(forces[i], f);
                            forces[j] = add(forces[j], f);
                            profiler.retire(40);
                        }
                    }
                }
            }
        }
    }
    profiler.exit();

    ForceField {
        forces,
        energy,
        pairs,
    }
}

/// Runs `steps` of velocity-Verlet dynamics; returns final positions,
/// total pair evaluations, and the last potential energy.
pub(crate) fn simulate(mol: &Molecule, profiler: &mut Profiler) -> (Vec<V3>, u64, f64) {
    let fns = register(profiler);
    let mut positions: Vec<V3> = mol.atoms.iter().map(|a| a.position).collect();
    let mut velocities = vec![(0.0, 0.0, 0.0); positions.len()];
    let dt = 0.001;
    let mut total_pairs = 0;
    let mut field = evaluate_forces(mol, &positions, profiler, &fns);
    for _ in 0..mol.steps {
        profiler.enter(fns.integrate);
        for i in 0..positions.len() {
            velocities[i] = add(velocities[i], scale(field.forces[i], 0.5 * dt));
            positions[i] = add(positions[i], scale(velocities[i], dt));
            profiler.store(POS_REGION + i as u64 * 24);
            profiler.retire(12);
        }
        profiler.exit();
        field = evaluate_forces(mol, &positions, profiler, &fns);
        profiler.enter(fns.integrate);
        for (v, f) in velocities.iter_mut().zip(&field.forces) {
            *v = add(*v, scale(*f, 0.5 * dt));
        }
        profiler.exit();
        total_pairs += field.pairs;
    }
    (positions, total_pairs, field.energy)
}

/// The nab mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniNab {
    workloads: Vec<Named<Molecule>>,
}

impl MiniNab {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniNab {
            workloads: standard_set(
                scale,
                molecule::train,
                molecule::refrate,
                molecule::alberta_set,
            ),
        }
    }
}

impl Benchmark for MiniNab {
    fn name(&self) -> &'static str {
        "544.nab_r"
    }

    fn short_name(&self) -> &'static str {
        "nab"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let mol = find_workload(&self.workloads, self.name(), workload)?;
        let (positions, pairs, energy) = simulate(mol, profiler);
        if !energy.is_finite() {
            return Err(BenchError::InvalidInput {
                benchmark: "544.nab_r",
                reason: "dynamics diverged".to_owned(),
            });
        }
        let pos_hash = fnv1a(
            positions
                .iter()
                .flat_map(|p| [p.0.to_bits(), p.1.to_bits(), p.2.to_bits()]),
        );
        Ok(RunOutput {
            checksum: fnv1a([pos_hash, energy.to_bits()]),
            work: pairs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::molecule::MoleculeGen;

    fn molecule(residues: usize) -> Molecule {
        let mut gen = MoleculeGen::standard(Scale::Test);
        gen.residues = residues;
        gen.generate(3)
    }

    fn forces(mol: &Molecule) -> ForceField {
        let positions: Vec<V3> = mol.atoms.iter().map(|a| a.position).collect();
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let f = evaluate_forces(mol, &positions, &mut p, &fns);
        let _ = p.finish();
        f
    }

    #[test]
    fn newtons_third_law_total_force_is_zero() {
        let mol = molecule(40);
        let f = forces(&mol);
        let total = f
            .forces
            .iter()
            .fold((0.0, 0.0, 0.0), |acc, &fi| add(acc, fi));
        assert!(norm(total) < 1e-6, "net force must vanish, got {total:?}");
    }

    #[test]
    fn stretched_bond_pulls_atoms_together() {
        let mut mol = molecule(3);
        // Stretch the first bond by moving atom 1 away along x.
        let mut positions: Vec<V3> = mol.atoms.iter().map(|a| a.position).collect();
        let dir = sub(positions[1], positions[0]);
        positions[1] = add(positions[0], scale(dir, 2.0));
        mol.atoms[1].position = positions[1];
        let f = forces(&mol);
        // Force on atom 1 points back toward atom 0.
        let back = sub(positions[0], positions[1]);
        assert!(
            dot(f.forces[1], back) > 0.0,
            "stretched bond must be restoring"
        );
    }

    #[test]
    fn energy_is_finite_and_pairs_counted() {
        let f = forces(&molecule(60));
        assert!(f.energy.is_finite());
        assert!(f.pairs > 0, "a folded chain must have nonbonded contacts");
    }

    #[test]
    fn larger_cutoff_finds_more_pairs() {
        let mut small = molecule(60);
        small.cutoff = 5.0;
        let mut large = molecule(60);
        large.cutoff = 12.0;
        assert!(forces(&large).pairs > forces(&small).pairs);
    }

    #[test]
    fn cell_list_matches_brute_force_pair_count() {
        let mol = molecule(40);
        let positions: Vec<V3> = mol.atoms.iter().map(|a| a.position).collect();
        let mut brute = 0u64;
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                if (i as i64 - j as i64).abs() == 1 {
                    continue;
                }
                let d = sub(positions[j], positions[i]);
                if dot(d, d) < mol.cutoff * mol.cutoff {
                    brute += 1;
                }
            }
        }
        assert_eq!(forces(&mol).pairs, brute);
    }

    #[test]
    fn dynamics_is_stable_for_short_runs() {
        let mol = molecule(30);
        let mut p = Profiler::default();
        let (positions, pairs, energy) = simulate(&mol, &mut p);
        let _ = p.finish();
        assert!(energy.is_finite());
        assert!(pairs > 0);
        assert!(positions.iter().all(|p| p.0.is_finite()));
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniNab::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("alberta.protein0", &mut p1).unwrap();
        let o2 = b.run("alberta.protein0", &mut p2).unwrap();
        assert_eq!(o1, o2);
        let cov = p1.finish().coverage_percent();
        assert!(cov["nab::nonbonded_forces"] > 20.0, "{cov:?}");
    }
}
