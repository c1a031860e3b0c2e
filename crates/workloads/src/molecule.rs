//! Workload generator for `544.nab_r` — protein-like molecular systems.
//!
//! The paper's seven nab workloads model forces in seven proteins pulled
//! from the Protein Data Bank. Without PDB access we generate protein-like
//! chains directly: a self-avoiding random walk on a jittered lattice
//! gives residue positions; bonds connect neighbours; angles span bond
//! pairs; partial charges alternate along the chain. The force-field
//! terms the mini-nab evaluates (bond, angle, Lennard-Jones, Coulomb with
//! cutoff) see exactly the structural variety real proteins would induce.

use crate::{Named, Scale, SeededRng};

/// One atom (residue bead) of the generated molecule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Position in Å-like units.
    pub position: (f64, f64, f64),
    /// Partial charge.
    pub charge: f64,
    /// Lennard-Jones σ (collision diameter).
    pub sigma: f64,
    /// Lennard-Jones ε (well depth).
    pub epsilon: f64,
}

/// A bond between two atom indices with rest length and stiffness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    /// First atom.
    pub a: u32,
    /// Second atom.
    pub b: u32,
    /// Rest length.
    pub length: f64,
    /// Force constant.
    pub k: f64,
}

/// An angle term over three consecutive atoms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    /// Outer atom.
    pub a: u32,
    /// Vertex atom.
    pub b: u32,
    /// Outer atom.
    pub c: u32,
    /// Rest angle in radians.
    pub theta0: f64,
    /// Force constant.
    pub k: f64,
}

/// A nab workload: the molecular system plus evaluation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    /// Atoms.
    pub atoms: Vec<Atom>,
    /// Bond terms.
    pub bonds: Vec<Bond>,
    /// Angle terms.
    pub angles: Vec<Angle>,
    /// Nonbonded cutoff radius.
    pub cutoff: f64,
    /// Molecular-dynamics steps to run.
    pub steps: usize,
}

/// Parameters of the molecule generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoleculeGen {
    /// Residues (atoms) in the chain.
    pub residues: usize,
    /// Chain compactness in `[0, 1]`: 0 = extended, 1 = tightly folded.
    pub compactness: f64,
    /// Nonbonded cutoff.
    pub cutoff: f64,
    /// MD steps.
    pub steps: usize,
}

impl MoleculeGen {
    /// Standard configuration scaled by `scale`.
    pub fn standard(scale: Scale) -> Self {
        MoleculeGen {
            residues: scale.apply(60),
            compactness: 0.5,
            cutoff: 9.0,
            steps: 2 + scale.factor(),
        }
    }

    /// Generates the molecule via a self-avoiding walk.
    ///
    /// # Panics
    ///
    /// Panics if `residues < 3`.
    pub fn generate(&self, seed: u64) -> Molecule {
        assert!(self.residues >= 3, "need at least three residues");
        let mut rng = SeededRng::new(seed);
        let bond_len = 3.8; // Cα–Cα distance
        let mut atoms: Vec<Atom> = Vec::with_capacity(self.residues);
        let mut pos = (0.0, 0.0, 0.0);
        for i in 0..self.residues {
            atoms.push(Atom {
                position: pos,
                charge: if i % 2 == 0 { 0.35 } else { -0.35 } * rng.float(0.5, 1.5),
                sigma: rng.float(3.2, 4.2),
                epsilon: rng.float(0.05, 0.3),
            });
            // Next direction: biased toward the origin when compact (folds
            // back on itself), with retry-based self-avoidance.
            let mut placed = false;
            for _ in 0..32 {
                let dir = random_unit(&mut rng);
                let pull = self.compactness * 0.5;
                let to_center = normalize((-pos.0, -pos.1, -pos.2));
                let d = normalize((
                    dir.0 + pull * to_center.0,
                    dir.1 + pull * to_center.1,
                    dir.2 + pull * to_center.2,
                ));
                let candidate = (
                    pos.0 + d.0 * bond_len,
                    pos.1 + d.1 * bond_len,
                    pos.2 + d.2 * bond_len,
                );
                let clash = atoms
                    .iter()
                    .any(|a| dist2(a.position, candidate) < (bond_len * 0.7).powi(2));
                if !clash {
                    pos = candidate;
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Escape outward when boxed in; keeps generation total.
                let d = normalize((pos.0 + 1e-3, pos.1 + 2e-3, pos.2 + 3e-3));
                pos = (
                    pos.0 + d.0 * bond_len,
                    pos.1 + d.1 * bond_len,
                    pos.2 + d.2 * bond_len,
                );
            }
        }
        let bonds = (0..self.residues - 1)
            .map(|i| Bond {
                a: i as u32,
                b: i as u32 + 1,
                length: bond_len,
                k: 300.0,
            })
            .collect();
        let angles = (0..self.residues.saturating_sub(2))
            .map(|i| Angle {
                a: i as u32,
                b: i as u32 + 1,
                c: i as u32 + 2,
                theta0: 1.9,
                k: 50.0,
            })
            .collect();
        Molecule {
            atoms,
            bonds,
            angles,
            cutoff: self.cutoff,
            steps: self.steps,
        }
    }
}

fn random_unit(rng: &mut SeededRng) -> (f64, f64, f64) {
    loop {
        let v = (
            rng.float(-1.0, 1.0),
            rng.float(-1.0, 1.0),
            rng.float(-1.0, 1.0),
        );
        let n2 = v.0 * v.0 + v.1 * v.1 + v.2 * v.2;
        if n2 > 1e-4 && n2 <= 1.0 {
            return normalize(v);
        }
    }
}

fn normalize(v: (f64, f64, f64)) -> (f64, f64, f64) {
    let n = (v.0 * v.0 + v.1 * v.1 + v.2 * v.2).sqrt().max(1e-12);
    (v.0 / n, v.1 / n, v.2 / n)
}

fn dist2(a: (f64, f64, f64), b: (f64, f64, f64)) -> f64 {
    let d = (a.0 - b.0, a.1 - b.1, a.2 - b.2);
    d.0 * d.0 + d.1 * d.1 + d.2 * d.2
}

/// The paper's seven proteins → seven generated chains of varying length
/// and fold compactness; Table II lists 11 nab workloads, so four cutoff
/// variants are added.
pub fn alberta_set(scale: Scale) -> Vec<Named<Molecule>> {
    let base = MoleculeGen::standard(scale);
    let mut out = Vec::new();
    let proteins: [(usize, f64); 7] = [
        (base.residues / 2, 0.2),
        (base.residues / 2, 0.8),
        (base.residues, 0.2),
        (base.residues, 0.5),
        (base.residues, 0.8),
        (base.residues * 2, 0.4),
        (base.residues * 2, 0.7),
    ];
    for (i, &(residues, compactness)) in proteins.iter().enumerate() {
        let gen = MoleculeGen {
            residues,
            compactness,
            ..base
        };
        out.push(Named::new(
            format!("alberta.protein{i}"),
            gen.generate(0x0AB + i as u64),
        ));
    }
    for (j, cutoff) in [6.0f64, 8.0, 12.0, 16.0].iter().enumerate() {
        let gen = MoleculeGen {
            cutoff: *cutoff,
            ..base
        };
        out.push(Named::new(
            format!("alberta.cutoff{cutoff}"),
            gen.generate(0x0B8 + j as u64),
        ));
    }
    out
}

/// Canonical training workload: a short chain.
pub fn train(scale: Scale) -> Named<Molecule> {
    let mut gen = MoleculeGen::standard(scale);
    gen.residues = (gen.residues / 2).max(3);
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload: a long, folded chain.
pub fn refrate(scale: Scale) -> Named<Molecule> {
    let mut gen = MoleculeGen::standard(scale);
    gen.residues *= 2;
    gen.compactness = 0.7;
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_topology_is_consistent() {
        let gen = MoleculeGen::standard(Scale::Test);
        let m = gen.generate(1);
        assert_eq!(m.atoms.len(), gen.residues);
        assert!(!m.atoms.is_empty());
        assert_eq!(m.bonds.len(), gen.residues - 1);
        assert_eq!(m.angles.len(), gen.residues - 2);
        for b in &m.bonds {
            assert!((b.a as usize) < m.atoms.len() && (b.b as usize) < m.atoms.len());
        }
    }

    #[test]
    fn bonded_atoms_are_near_rest_length() {
        let gen = MoleculeGen::standard(Scale::Test);
        let m = gen.generate(2);
        for b in &m.bonds {
            let d = dist2(
                m.atoms[b.a as usize].position,
                m.atoms[b.b as usize].position,
            )
            .sqrt();
            assert!((d - b.length).abs() < 0.1, "bond stretched to {d}");
        }
    }

    #[test]
    fn self_avoidance_mostly_holds() {
        let gen = MoleculeGen::standard(Scale::Test);
        let m = gen.generate(3);
        let mut clashes = 0;
        for i in 0..m.atoms.len() {
            for j in i + 2..m.atoms.len() {
                if dist2(m.atoms[i].position, m.atoms[j].position) < 2.0f64.powi(2) {
                    clashes += 1;
                }
            }
        }
        assert!(
            clashes * 20 < m.atoms.len(),
            "{clashes} steric clashes in {} residues",
            m.atoms.len()
        );
    }

    #[test]
    fn compact_chains_have_smaller_radius_of_gyration() {
        let base = MoleculeGen {
            residues: 120,
            ..MoleculeGen::standard(Scale::Test)
        };
        let rg = |compactness: f64| {
            let m = MoleculeGen {
                compactness,
                ..base
            }
            .generate(7);
            let n = m.atoms.len() as f64;
            let cx = m.atoms.iter().map(|a| a.position.0).sum::<f64>() / n;
            let cy = m.atoms.iter().map(|a| a.position.1).sum::<f64>() / n;
            let cz = m.atoms.iter().map(|a| a.position.2).sum::<f64>() / n;
            (m.atoms
                .iter()
                .map(|a| dist2(a.position, (cx, cy, cz)))
                .sum::<f64>()
                / n)
                .sqrt()
        };
        assert!(rg(0.9) < rg(0.0), "folded chain must be more compact");
    }

    #[test]
    fn alberta_set_has_eleven_systems() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 11, "Table II lists 11 nab workloads");
    }

    #[test]
    fn determinism() {
        let gen = MoleculeGen::standard(Scale::Test);
        assert_eq!(gen.generate(5), gen.generate(5));
        assert_ne!(gen.generate(5), gen.generate(6));
    }

    #[test]
    #[should_panic(expected = "at least three residues")]
    fn tiny_chain_panics() {
        let mut gen = MoleculeGen::standard(Scale::Test);
        gen.residues = 2;
        let _ = gen.generate(0);
    }
}
