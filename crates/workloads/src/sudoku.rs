//! Workload generator for `548.exchange2_r` — Sudoku seed puzzles.
//!
//! The benchmark consumes a file of valid 81-character Sudoku puzzles that
//! seed the generation of further puzzles with identical clue patterns.
//! The paper found that replacing the distributed 27 seeds with other
//! puzzles made runs too short, so its script keeps the original seeds and
//! varies only *how many* puzzles each workload processes. Our generator
//! goes one step further and can mint arbitrarily many valid seed puzzles
//! without a solver: it builds a canonical solved grid and applies the
//! validity-preserving symmetries of Sudoku (digit relabeling, row/column
//! permutations within bands, band/stack permutations), then punches out
//! clues according to a pattern.

use crate::{Named, Scale, SeededRng};

/// A 9×9 Sudoku puzzle; `0` denotes an empty cell. Stored row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Puzzle(pub [u8; 81]);

impl Puzzle {
    /// Renders the puzzle as the 81-character string format the SPEC
    /// benchmark reads (digits, `.` for empties).
    pub fn to_line(&self) -> String {
        self.0
            .iter()
            .map(|&d| if d == 0 { '.' } else { char::from(b'0' + d) })
            .collect()
    }

    /// Number of clues (filled cells).
    pub fn clue_count(&self) -> usize {
        self.0.iter().filter(|&&d| d != 0).count()
    }

    /// Checks that no row, column, or box repeats a digit (empties are
    /// ignored), i.e. the puzzle is *consistent*.
    #[allow(clippy::needless_range_loop)]
    pub fn is_consistent(&self) -> bool {
        let mut rows = [[false; 10]; 9];
        let mut cols = [[false; 10]; 9];
        let mut boxes = [[false; 10]; 9];
        for r in 0..9 {
            for c in 0..9 {
                let d = self.0[r * 9 + c] as usize;
                if d == 0 {
                    continue;
                }
                let b = (r / 3) * 3 + c / 3;
                if rows[r][d] || cols[c][d] || boxes[b][d] {
                    return false;
                }
                rows[r][d] = true;
                cols[c][d] = true;
                boxes[b][d] = true;
            }
        }
        true
    }

    /// Whether the grid is fully filled and consistent.
    pub fn is_solved(&self) -> bool {
        self.0.iter().all(|&d| d != 0) && self.is_consistent()
    }
}

/// Produces a solved grid from a seed by symmetry transformations of the
/// canonical Latin-square-style solution.
pub fn solved_grid(seed: u64) -> Puzzle {
    let mut rng = SeededRng::new(seed);
    // Canonical pattern: cell(r, c) = (3*(r%3) + r/3 + c) % 9 + 1.
    let mut grid = [0u8; 81];
    for r in 0..9 {
        for c in 0..9 {
            grid[r * 9 + c] = ((3 * (r % 3) + r / 3 + c) % 9) as u8 + 1;
        }
    }
    // Digit relabeling.
    let mut digits: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];
    rng.shuffle(&mut digits);
    for cell in grid.iter_mut() {
        *cell = digits[(*cell - 1) as usize];
    }
    // Row permutations within each band, then band permutation.
    let mut rows: Vec<usize> = (0..9).collect();
    for band in 0..3 {
        let mut idx = [band * 3, band * 3 + 1, band * 3 + 2];
        rng.shuffle(&mut idx);
        rows[band * 3..band * 3 + 3].copy_from_slice(&idx);
    }
    let mut bands = [0usize, 1, 2];
    rng.shuffle(&mut bands);
    let rows: Vec<usize> = bands
        .iter()
        .flat_map(|&b| rows[b * 3..b * 3 + 3].to_vec())
        .collect();
    // Column permutations within each stack, then stack permutation.
    let mut cols: Vec<usize> = (0..9).collect();
    for stack in 0..3 {
        let mut idx = [stack * 3, stack * 3 + 1, stack * 3 + 2];
        rng.shuffle(&mut idx);
        cols[stack * 3..stack * 3 + 3].copy_from_slice(&idx);
    }
    let mut stacks = [0usize, 1, 2];
    rng.shuffle(&mut stacks);
    let cols: Vec<usize> = stacks
        .iter()
        .flat_map(|&s| cols[s * 3..s * 3 + 3].to_vec())
        .collect();
    let mut out = [0u8; 81];
    for (r, &src_r) in rows.iter().enumerate() {
        for (c, &src_c) in cols.iter().enumerate() {
            out[r * 9 + c] = grid[src_r * 9 + src_c];
        }
    }
    Puzzle(out)
}

/// Generates a valid puzzle with exactly `clues` clues from a seed.
///
/// # Panics
///
/// Panics if `clues` is not in `17..=81` (17 is the known minimum for a
/// uniquely solvable Sudoku; we do not verify uniqueness, matching the
/// benchmark's seed-file semantics, but refuse obviously degenerate
/// inputs).
pub fn generate_puzzle(seed: u64, clues: usize) -> Puzzle {
    assert!((17..=81).contains(&clues), "clue count out of range");
    let solved = solved_grid(seed);
    let mut rng = SeededRng::new(seed ^ 0xC1E5);
    let mut order: Vec<usize> = (0..81).collect();
    rng.shuffle(&mut order);
    let mut out = solved;
    for &cell in order.iter().take(81 - clues) {
        out.0[cell] = 0;
    }
    out
}

/// An exchange2 workload: seed puzzles plus how many generated puzzles to
/// derive from each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SudokuWorkload {
    /// The seed puzzles.
    pub seeds: Vec<Puzzle>,
    /// Puzzles to generate per seed.
    pub puzzles_per_seed: u32,
}

/// Parameters of the Sudoku workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SudokuGen {
    /// Seed puzzles per workload.
    pub seeds_per_workload: usize,
    /// Clue count of generated seed puzzles.
    pub clues: usize,
    /// Generated puzzles per seed.
    pub puzzles_per_seed: u32,
}

impl SudokuGen {
    /// Standard configuration scaled by `scale`.
    pub(crate) fn standard(scale: Scale) -> Self {
        SudokuGen {
            seeds_per_workload: 6,
            clues: 30,
            puzzles_per_seed: scale.apply(2) as u32,
        }
    }

    /// Generates one workload.
    ///
    /// # Panics
    ///
    /// Panics if `seeds_per_workload` is zero (see also
    /// [`generate_puzzle`] for the clue-range panic).
    pub(crate) fn generate(&self, seed: u64) -> SudokuWorkload {
        assert!(self.seeds_per_workload > 0);
        let mut rng = SeededRng::new(seed);
        let seeds = (0..self.seeds_per_workload)
            .map(|_| generate_puzzle(rng.next_u64(), self.clues))
            .collect();
        SudokuWorkload {
            seeds,
            puzzles_per_seed: self.puzzles_per_seed,
        }
    }
}

/// The ten Alberta workloads (paper: "the ten additional workloads").
pub fn alberta_set(scale: Scale) -> Vec<Named<SudokuWorkload>> {
    let gen = SudokuGen::standard(scale);
    (0..10)
        .map(|i| Named::new(format!("alberta.{i}"), gen.generate(0x5D0 + i)))
        .collect()
}

/// Canonical training workload.
pub fn train(scale: Scale) -> Named<SudokuWorkload> {
    let mut gen = SudokuGen::standard(scale);
    gen.seeds_per_workload = 2;
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload.
pub fn refrate(scale: Scale) -> Named<SudokuWorkload> {
    let mut gen = SudokuGen::standard(scale);
    gen.seeds_per_workload = 9;
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses an 81-character `to_line` rendering back into a puzzle.
    fn from_line(line: &str) -> Puzzle {
        let mut cells = [0u8; 81];
        for (cell, b) in cells.iter_mut().zip(line.bytes()) {
            *cell = if b == b'.' { 0 } else { b - b'0' };
        }
        Puzzle(cells)
    }

    #[test]
    fn solved_grids_are_solved() {
        for seed in 0..20 {
            let g = solved_grid(seed);
            assert!(g.is_solved(), "seed {seed} produced an invalid grid");
        }
    }

    #[test]
    fn solved_grids_vary_with_seed() {
        assert_ne!(solved_grid(1), solved_grid(2));
        assert_eq!(solved_grid(1), solved_grid(1));
    }

    #[test]
    fn generated_puzzles_have_exact_clue_count_and_consistency() {
        for seed in 0..10 {
            let p = generate_puzzle(seed, 30);
            assert_eq!(p.clue_count(), 30);
            assert!(p.is_consistent());
            assert!(!p.is_solved());
        }
    }

    #[test]
    fn line_round_trip() {
        let p = generate_puzzle(5, 25);
        let line = p.to_line();
        assert_eq!(line.len(), 81);
        assert_eq!(from_line(&line), p);
    }

    #[test]
    fn consistency_detects_duplicates() {
        let mut p = solved_grid(3);
        // Force a row duplicate.
        p.0[1] = p.0[0];
        assert!(!p.is_consistent());
    }

    #[test]
    fn alberta_set_matches_paper_count() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 10, "paper ships ten exchange2 workloads");
        for w in &set {
            for s in &w.workload.seeds {
                assert!(s.is_consistent());
            }
        }
    }

    #[test]
    #[should_panic(expected = "clue count out of range")]
    fn degenerate_clue_count_panics() {
        let _ = generate_puzzle(0, 5);
    }
}
