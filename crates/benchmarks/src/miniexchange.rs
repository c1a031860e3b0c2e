//! `548.exchange2_r` stand-in: a Sudoku puzzle generator driven by seed
//! puzzles.
//!
//! The SPEC benchmark reads a collection of valid puzzles and generates
//! new puzzles with identical clue patterns. This mini does the same:
//! for each seed it (1) solves the seed with a bitmask backtracking
//! solver, (2) derives new solved grids by validity-preserving digit
//! relabelings, (3) masks them with the seed's clue pattern, and (4)
//! verifies each derived puzzle by re-solving it and counting solutions
//! up to two. The backtracking solver dominates the run, exactly like the
//! Fortran original.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::sudoku::{self, Puzzle, SudokuWorkload};
use alberta_workloads::{Named, Scale};

const GRID_REGION: u64 = 0x4000_0000;
const MASK_REGION: u64 = 0x5000_0000;

/// The exchange2 mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniExchange {
    workloads: Vec<Named<SudokuWorkload>>,
}

impl MiniExchange {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniExchange {
            workloads: standard_set(scale, sudoku::train, sudoku::refrate, sudoku::alberta_set),
        }
    }
}

impl Benchmark for MiniExchange {
    fn name(&self) -> &'static str {
        "548.exchange2_r"
    }

    fn short_name(&self) -> &'static str {
        "exchange2"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let fns = register(profiler);
        let mut checksums = Vec::new();
        let mut generated = 0u64;
        for (si, seed_puzzle) in w.seeds.iter().enumerate() {
            if !seed_puzzle.is_consistent() {
                return Err(BenchError::InvalidInput {
                    benchmark: "548.exchange2_r",
                    reason: format!("seed puzzle {si} is inconsistent"),
                });
            }
            profiler.enter(fns.generate);
            let solution = match solve(seed_puzzle, profiler, &fns) {
                Some(s) => s,
                None => {
                    profiler.exit();
                    return Err(BenchError::InvalidInput {
                        benchmark: "548.exchange2_r",
                        reason: format!("seed puzzle {si} is unsolvable"),
                    });
                }
            };
            for k in 0..w.puzzles_per_seed {
                // Derived solved grid: rotate digit labels by k+1.
                let mut derived = solution;
                for cell in derived.0.iter_mut() {
                    *cell = (*cell + k as u8) % 9 + 1;
                    profiler.retire(1);
                }
                // Same clue pattern as the seed.
                let mut new_puzzle = derived;
                for (i, &c) in seed_puzzle.0.iter().enumerate() {
                    let keep = c != 0;
                    profiler.branch(0, keep);
                    profiler.load(MASK_REGION + i as u64);
                    if !keep {
                        new_puzzle.0[i] = 0;
                    }
                }
                // Verification pass: the derived puzzle must be solvable;
                // count up to two solutions like real generators do.
                let solutions = count_solutions(&new_puzzle, 2, profiler, &fns);
                assert!(solutions >= 1, "derived puzzle lost solvability");
                generated += 1;
                checksums.push(fnv1a(new_puzzle.0.iter().map(|&b| b as u64)));
            }
            profiler.exit();
        }
        Ok(RunOutput {
            checksum: fnv1a(checksums),
            work: generated,
        })
    }
}

pub(crate) struct Fns {
    solve: FnId,
    candidates: FnId,
    generate: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        generate: profiler.register_function("exchange2::generate", 800),
        solve: profiler.register_function("exchange2::solve", 1600),
        candidates: profiler.register_function("exchange2::candidates", 500),
    }
}

/// Solves a puzzle with a throwaway profiler; the entry point for
/// integration and property tests that only care about the solution.
pub fn solve_for_tests(puzzle: &Puzzle) -> Option<Puzzle> {
    let mut profiler = Profiler::default();
    let fns = register(&mut profiler);
    let solution = solve(puzzle, &mut profiler, &fns);
    let _ = profiler.finish();
    solution
}

/// Bitmask state: rows/cols/boxes track used digits.
struct Masks {
    rows: [u16; 9],
    cols: [u16; 9],
    boxes: [u16; 9],
}

impl Masks {
    fn of(puzzle: &Puzzle) -> Option<Masks> {
        let mut m = Masks {
            rows: [0; 9],
            cols: [0; 9],
            boxes: [0; 9],
        };
        for r in 0..9 {
            for c in 0..9 {
                let d = puzzle.0[r * 9 + c];
                if d == 0 {
                    continue;
                }
                let bit = 1u16 << d;
                let b = (r / 3) * 3 + c / 3;
                if m.rows[r] & bit != 0 || m.cols[c] & bit != 0 || m.boxes[b] & bit != 0 {
                    return None;
                }
                m.rows[r] |= bit;
                m.cols[c] |= bit;
                m.boxes[b] |= bit;
            }
        }
        Some(m)
    }
}

/// Solves a puzzle by backtracking; returns the first solution found.
pub(crate) fn solve(puzzle: &Puzzle, profiler: &mut Profiler, fns: &Fns) -> Option<Puzzle> {
    let mut grid = *puzzle;
    let mut masks = Masks::of(puzzle)?;
    if solve_rec(&mut grid, &mut masks, 0, profiler, fns) {
        Some(grid)
    } else {
        None
    }
}

fn solve_rec(
    grid: &mut Puzzle,
    masks: &mut Masks,
    from: usize,
    profiler: &mut Profiler,
    fns: &Fns,
) -> bool {
    profiler.enter(fns.solve);
    // Find the next empty cell (first-empty heuristic keeps the search
    // shape close to the Fortran original's nested loops).
    let mut cell = from;
    while cell < 81 {
        let empty = grid.0[cell] == 0;
        profiler.branch(1, empty);
        profiler.load(GRID_REGION + cell as u64);
        if empty {
            break;
        }
        cell += 1;
    }
    if cell == 81 {
        profiler.exit();
        return true;
    }
    let (r, c) = (cell / 9, cell % 9);
    let b = (r / 3) * 3 + c / 3;
    profiler.enter(fns.candidates);
    let used = masks.rows[r] | masks.cols[c] | masks.boxes[b];
    profiler.retire(3);
    profiler.exit();
    for d in 1..=9u8 {
        let bit = 1u16 << d;
        let free = used & bit == 0;
        profiler.branch(2, free);
        // The Fortran original performs substantial index arithmetic per
        // candidate (its digit bookkeeping is unrolled loops, not bit
        // masks); account the equivalent straight-line work.
        profiler.retire(5);
        if !free {
            continue;
        }
        grid.0[cell] = d;
        masks.rows[r] |= bit;
        masks.cols[c] |= bit;
        masks.boxes[b] |= bit;
        profiler.retire(8);
        profiler.store(GRID_REGION + cell as u64);
        if solve_rec(grid, masks, cell + 1, profiler, fns) {
            profiler.exit();
            return true;
        }
        grid.0[cell] = 0;
        masks.rows[r] &= !bit;
        masks.cols[c] &= !bit;
        masks.boxes[b] &= !bit;
    }
    profiler.exit();
    false
}

/// Counts solutions up to `limit` by exhaustive backtracking.
pub(crate) fn count_solutions(
    puzzle: &Puzzle,
    limit: u32,
    profiler: &mut Profiler,
    fns: &Fns,
) -> u32 {
    let mut grid = *puzzle;
    let mut masks = match Masks::of(puzzle) {
        Some(m) => m,
        None => return 0,
    };
    let mut found = 0;
    count_rec(&mut grid, &mut masks, 0, limit, &mut found, profiler, fns);
    found
}

#[allow(clippy::too_many_arguments)]
fn count_rec(
    grid: &mut Puzzle,
    masks: &mut Masks,
    from: usize,
    limit: u32,
    found: &mut u32,
    profiler: &mut Profiler,
    fns: &Fns,
) {
    if *found >= limit {
        return;
    }
    profiler.enter(fns.solve);
    let mut cell = from;
    while cell < 81 && grid.0[cell] != 0 {
        profiler.load(GRID_REGION + cell as u64);
        cell += 1;
    }
    if cell == 81 {
        *found += 1;
        profiler.exit();
        return;
    }
    let (r, c) = (cell / 9, cell % 9);
    let b = (r / 3) * 3 + c / 3;
    let used = masks.rows[r] | masks.cols[c] | masks.boxes[b];
    for d in 1..=9u8 {
        let bit = 1u16 << d;
        let free = used & bit == 0;
        profiler.branch(3, free);
        if !free {
            continue;
        }
        grid.0[cell] = d;
        masks.rows[r] |= bit;
        masks.cols[c] |= bit;
        masks.boxes[b] |= bit;
        count_rec(grid, masks, cell + 1, limit, found, profiler, fns);
        grid.0[cell] = 0;
        masks.rows[r] &= !bit;
        masks.cols[c] &= !bit;
        masks.boxes[b] &= !bit;
        if *found >= limit {
            break;
        }
    }
    profiler.exit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::sudoku::generate_puzzle;

    fn with_profiler<T>(f: impl FnOnce(&mut Profiler, &Fns) -> T) -> T {
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let out = f(&mut p, &fns);
        let _ = p.finish();
        out
    }

    #[test]
    fn solves_generated_puzzles_to_valid_solutions() {
        for seed in 0..6 {
            let puzzle = generate_puzzle(seed, 30);
            let solution = with_profiler(|p, fns| solve(&puzzle, p, fns)).expect("solvable");
            assert!(solution.is_solved());
            // Solution extends the clues.
            for i in 0..81 {
                if puzzle.0[i] != 0 {
                    assert_eq!(puzzle.0[i], solution.0[i], "clue changed at {i}");
                }
            }
        }
    }

    #[test]
    fn solved_puzzle_has_exactly_one_solution() {
        let full = sudoku::solved_grid(4);
        let n = with_profiler(|p, fns| count_solutions(&full, 5, p, fns));
        assert_eq!(n, 1);
    }

    #[test]
    fn empty_grid_has_many_solutions() {
        let empty = Puzzle([0; 81]);
        let n = with_profiler(|p, fns| count_solutions(&empty, 3, p, fns));
        assert_eq!(n, 3, "limit caps the count");
    }

    #[test]
    fn inconsistent_puzzle_has_no_solutions() {
        let mut bad = sudoku::solved_grid(1);
        bad.0[1] = bad.0[0];
        assert!(with_profiler(|p, fns| solve(&bad, p, fns)).is_none());
        assert_eq!(with_profiler(|p, fns| count_solutions(&bad, 2, p, fns)), 0);
    }

    #[test]
    fn benchmark_runs_and_profiles() {
        let b = MiniExchange::new(Scale::Test);
        let mut p = Profiler::default();
        let out = b.run("alberta.0", &mut p).unwrap();
        let profile = p.finish();
        assert!(out.work > 0);
        let cov = profile.coverage_percent();
        assert!(
            cov["exchange2::solve"] > 50.0,
            "backtracking must dominate: {cov:?}"
        );
    }

    #[test]
    fn determinism() {
        let b = MiniExchange::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        assert_eq!(
            b.run("train", &mut p1).unwrap(),
            b.run("train", &mut p2).unwrap()
        );
    }
}
