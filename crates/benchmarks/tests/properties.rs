//! Property-based tests on the mini-benchmark substrates: the invariants
//! that must hold for *any* input, not just the generated workloads.

use alberta_benchmarks::minideepsjeng::{piece, Board, Move};
use alberta_benchmarks::minigcc::{MiniGcc, OptOptions};
use alberta_benchmarks::minileela::{Color, GoBoard};
use alberta_benchmarks::minimcf::solve_min_cost_flow;
use alberta_benchmarks::{miniexchange, minixz, suite, BenchError};
use alberta_profile::Profiler;
use alberta_workloads::chess::PositionSpec;
use alberta_workloads::csrc::CSourceGen;
use alberta_workloads::flow::FlowGen;
use alberta_workloads::sudoku;
use alberta_workloads::Scale;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LZ77 + range coder round-trips arbitrary bytes at any dictionary
    /// size.
    #[test]
    fn xz_roundtrip_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        dict_shift in 6u32..14,
    ) {
        let dict = 1usize << dict_shift;
        let mut p = Profiler::default();
        let packed = minixz::compress(&data, dict, &mut p);
        let unpacked = minixz::decompress(&packed, &mut p).expect("stream we produced decodes");
        let _ = p.finish();
        prop_assert_eq!(unpacked, data);
    }

    /// Every generated Sudoku seed puzzle is consistent and solvable, and
    /// its solution extends the clues.
    #[test]
    fn sudoku_generated_puzzles_solve(seed in any::<u64>(), clues in 20usize..60) {
        let puzzle = sudoku::generate_puzzle(seed, clues);
        prop_assert!(puzzle.is_consistent());
        prop_assert_eq!(puzzle.clue_count(), clues);
        let solved = miniexchange::solve_for_tests(&puzzle).expect("solvable by construction");
        prop_assert!(solved.is_solved());
        for i in 0..81 {
            if puzzle.0[i] != 0 {
                prop_assert_eq!(puzzle.0[i], solved.0[i]);
            }
        }
    }

    /// The optimizer never changes program semantics on generated mini-C.
    #[test]
    fn minigcc_optimizer_preserves_semantics(seed in any::<u64>()) {
        let gen = CSourceGen::standard(Scale::Test);
        let src = gen.generate(seed).source;
        let mut p0 = Profiler::default();
        let mut p2 = Profiler::default();
        let (r0, _) = MiniGcc::compile_and_run(&src, &OptOptions::none(), &mut p0)
            .expect("generated programs compile");
        let (r2, _) = MiniGcc::compile_and_run(&src, &OptOptions::default(), &mut p2)
            .expect("generated programs compile");
        prop_assert_eq!(r0, r2);
    }

    /// Min-cost-flow solutions on generated scheduling instances are
    /// always feasible (flow conservation) and capacity-respecting.
    #[test]
    fn mcf_solutions_are_feasible(seed in any::<u64>()) {
        let mut gen = FlowGen::standard(Scale::Test);
        gen.trips = 25;
        let instance = gen.generate(seed);
        let mut p = Profiler::default();
        let solution = solve_min_cost_flow(&instance, &mut p).expect("feasible by construction");
        let _ = p.finish();
        let mut balance = vec![0i64; instance.node_count as usize];
        for (k, arc) in instance.arcs.iter().enumerate() {
            prop_assert!(solution.flows[k] >= 0);
            prop_assert!(solution.flows[k] <= arc.capacity);
            balance[arc.from as usize] -= solution.flows[k];
            balance[arc.to as usize] += solution.flows[k];
        }
        for (b, s) in balance.iter().zip(&instance.supplies) {
            prop_assert_eq!(*b, -*s);
        }
    }

    /// Every benchmark answers a bogus workload name with a typed
    /// [`BenchError::UnknownWorkload`] — never a panic, never a run.
    #[test]
    fn bogus_workload_names_yield_unknown_workload(
        chars in prop::collection::vec(any::<char>(), 0..24),
    ) {
        // The prefix guarantees the name collides with no real workload
        // (all real names are train/refrate/alberta.*).
        let name: String = format!("bogus-{}", chars.into_iter().collect::<String>());
        for b in suite(Scale::Test) {
            let mut p = Profiler::default();
            match b.run(&name, &mut p) {
                Err(BenchError::UnknownWorkload { benchmark, workload }) => {
                    prop_assert_eq!(benchmark, b.name());
                    prop_assert_eq!(workload, name.clone());
                }
                other => prop_assert!(false, "{}: expected UnknownWorkload, got {:?}", b.name(), other),
            }
        }
    }

    /// Run output (checksum and work) is bit-identical across repeated
    /// runs of the same workload — for every benchmark and any workload
    /// in its set.
    #[test]
    fn checksums_are_reproducible(pick in any::<u64>()) {
        let benchmarks = suite(Scale::Test);
        let b = &benchmarks[(pick % benchmarks.len() as u64) as usize];
        let names = b.workload_names();
        let workload = &names[((pick >> 8) % names.len() as u64) as usize];
        let first = b.run(workload, &mut Profiler::default()).expect("workload runs");
        let second = b.run(workload, &mut Profiler::default()).expect("workload runs");
        prop_assert_eq!(first.checksum, second.checksum, "{}/{}", b.name(), workload);
        prop_assert_eq!(first.work, second.work);
    }

    /// Go: playing any sequence of random proposals never corrupts the
    /// board — stone counts change only by legal amounts and captured
    /// points are empty.
    #[test]
    fn go_board_stays_consistent(seed in any::<u64>(), size in 5usize..10) {
        let mut board = GoBoard::new(size);
        let mut state = seed;
        let mut to_move = Color::Black;
        for _ in 0..3 * size * size {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (state >> 16) as usize % (size * size);
            let before: usize = count_stones(&board, size);
            match board.play(idx % size, idx / size, to_move) {
                Some(captured) => {
                    let after = count_stones(&board, size);
                    // +1 stone placed, −captured removed.
                    prop_assert_eq!(after as i64, before as i64 + 1 - captured as i64);
                    to_move = to_move.other();
                }
                None => {
                    prop_assert_eq!(count_stones(&board, size), before, "illegal move mutated board");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chess: at every ply of a random legal walk, the pin-aware
    /// `legal_moves` equals the make/`in_check`/unmake filter in set and
    /// order, and XORing `hash_delta` tracks `Board::hash` through every
    /// make and unmake.
    #[test]
    fn chess_legal_moves_and_hash_match_the_references(seed in any::<u64>()) {
        chess_walk(seed, 160);
    }

    /// Go: on random boards, `play` captures and rejects suicide exactly
    /// as the rule restated on `group_and_liberties` says, and
    /// `legal_moves` keeps exactly the empty non-eye points a trial
    /// `play` on a copy accepts.
    #[test]
    fn go_play_and_legal_moves_match_the_references(seed in any::<u64>(), size in 5usize..20) {
        go_walk(seed, size);
    }
}

/// The legality filter the pin-aware one replaced: every pseudo-move,
/// made, tested with `in_check` and unmade.
fn reference_legal_moves(board: &mut Board) -> Vec<Move> {
    let mut pseudo = Vec::new();
    board.pseudo_moves(&mut pseudo);
    let side = board.side;
    pseudo
        .into_iter()
        .filter(|&m| {
            board.make(m);
            let legal = !board.in_check(side);
            board.unmake(m);
            legal
        })
        .collect()
}

fn reference_perft(board: &mut Board, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let mut nodes = 0;
    for m in reference_legal_moves(board) {
        board.make(m);
        nodes += reference_perft(board, depth - 1);
        board.unmake(m);
    }
    nodes
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// What a random chess walk met: plies played, positions in check, and
/// pseudo-moves of a piece other than the king that were illegal
/// although the mover was not in check (a pin made them so).
#[derive(Debug, Default)]
struct ChessCoverage {
    plies: usize,
    checks: usize,
    pinned_moves: usize,
}

/// Plays up to `plies` seeded random legal moves from the initial
/// position, checking `legal_moves` and `hash_delta` against their
/// references at every ply.
fn chess_walk(seed: u64, plies: usize) -> ChessCoverage {
    let mut board = Board::initial();
    let mut state = seed;
    let mut coverage = ChessCoverage::default();
    for ply in 0..plies {
        let legal = board.legal_moves();
        let reference = reference_legal_moves(&mut board);
        assert_eq!(legal, reference, "seed {seed} ply {ply}: {board:?}");
        let side = board.side;
        let checked = board.in_check(side);
        coverage.checks += checked as usize;
        let king = board
            .squares
            .iter()
            .position(|&p| p == piece::KING * side)
            .expect("the mover's king is on the board");
        let mut pseudo = Vec::new();
        board.pseudo_moves(&mut pseudo);
        let hash = board.hash();
        for m in pseudo {
            let after = hash ^ board.hash_delta(m);
            board.make(m);
            assert_eq!(board.hash(), after, "seed {seed} ply {ply}: make {m:?}");
            let king_stayed = board.squares[king] == piece::KING * side;
            board.unmake(m);
            assert_eq!(
                after ^ board.hash_delta(m),
                hash,
                "seed {seed} ply {ply}: unmake {m:?}"
            );
            if !checked && king_stayed && !legal.contains(&m) {
                coverage.pinned_moves += 1;
            }
        }
        if legal.is_empty() {
            break;
        }
        let m = legal[(splitmix(&mut state) % legal.len() as u64) as usize];
        board.make(m);
        coverage.plies += 1;
    }
    coverage
}

/// The walks reach what the pin-aware filter special-cases: positions in
/// check and moves a pin makes illegal.
#[test]
fn chess_walks_reach_checks_and_pins() {
    let mut total = ChessCoverage::default();
    for seed in 0..8 {
        let c = chess_walk(seed, 160);
        total.plies += c.plies;
        total.checks += c.checks;
        total.pinned_moves += c.pinned_moves;
    }
    assert!(total.plies > 600, "{total:?}");
    assert!(total.checks > 20, "{total:?}");
    assert!(total.pinned_moves > 50, "{total:?}");
}

#[test]
fn chess_perft_matches_the_reference_from_scrambled_positions() {
    for (seed, random_moves) in [(11, 14), (22, 24), (33, 34)] {
        let spec = PositionSpec {
            seed,
            random_moves,
            depth: 3,
        };
        let mut board = Board::from_spec(&spec);
        let before = board.clone();
        let expected = reference_perft(&mut board.clone(), 3);
        assert!(expected > 1000, "{spec:?}: {expected} nodes");
        assert_eq!(board.perft(3), expected, "{spec:?}");
        assert_eq!(board, before, "perft must leave the position as it was");
    }
}

/// The points orthogonally next to `(x, y)`.
fn go_neighbors(size: usize, x: usize, y: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if x > 0 {
        out.push((x - 1, y));
    }
    if x + 1 < size {
        out.push((x + 1, y));
    }
    if y > 0 {
        out.push((x, y - 1));
    }
    if y + 1 < size {
        out.push((x, y + 1));
    }
    out
}

/// The play rule restated on `group_and_liberties`, read off the board
/// before the stone is placed: `None` for an occupied point or suicide,
/// otherwise the point indices the move captures.
fn reference_play(board: &GoBoard, x: usize, y: usize, color: Color) -> Option<BTreeSet<usize>> {
    if board.at(x, y).is_some() {
        return None;
    }
    let size = board.size();
    let mut captured = BTreeSet::new();
    let mut breathes = false;
    for (nx, ny) in go_neighbors(size, x, y) {
        match board.at(nx, ny) {
            None => breathes = true,
            Some(c) => {
                // (x, y) is empty and adjacent, so it is one of the
                // group's liberties.
                let (group, liberties) = board.group_and_liberties(ny * size + nx);
                if c == color {
                    breathes |= liberties > 1;
                } else if liberties == 1 {
                    captured.extend(group);
                }
            }
        }
    }
    (breathes || !captured.is_empty()).then_some(captured)
}

/// What a random Go walk met: moves that captured, and suicides.
#[derive(Debug, Default)]
struct GoCoverage {
    captures: usize,
    suicides: usize,
}

/// Proposes `3 · size²` seeded random moves of random color on an empty
/// board, checking `play` and `legal_moves` against their references
/// before each.
fn go_walk(seed: u64, size: usize) -> GoCoverage {
    let mut board = GoBoard::new(size);
    let mut state = seed;
    let mut coverage = GoCoverage::default();
    for _ in 0..3 * size * size {
        let r = splitmix(&mut state);
        let color = if r & 1 == 0 {
            Color::Black
        } else {
            Color::White
        };
        let reference: Vec<usize> = (0..size * size)
            .filter(|&idx| {
                let (x, y) = (idx % size, idx / size);
                let eye = go_neighbors(size, x, y)
                    .iter()
                    .all(|&(nx, ny)| board.at(nx, ny) == Some(color));
                board.at(x, y).is_none() && !eye && board.clone().play(x, y, color).is_some()
            })
            .collect();
        assert_eq!(
            board.legal_moves(color),
            reference,
            "seed {seed} size {size}"
        );
        let idx = (r >> 8) as usize % (size * size);
        let (x, y) = (idx % size, idx / size);
        let expected = reference_play(&board, x, y, color);
        let before = board.clone();
        let got = board.play(x, y, color);
        assert_eq!(
            got,
            expected.as_ref().map(|c| c.len() as u32),
            "seed {seed} size {size}: {color:?} at ({x}, {y}) on {before:?}"
        );
        match expected {
            None => {
                assert_eq!(board, before, "a rejected move must not change the board");
                coverage.suicides += before.at(x, y).is_none() as usize;
            }
            Some(captured) => {
                coverage.captures += !captured.is_empty() as usize;
                for p in 0..size * size {
                    let (px, py) = (p % size, p / size);
                    let want = if p == idx {
                        Some(color)
                    } else if captured.contains(&p) {
                        None
                    } else {
                        before.at(px, py)
                    };
                    assert_eq!(board.at(px, py), want, "seed {seed} size {size}: point {p}");
                }
            }
        }
    }
    coverage
}

/// The walks reach both outcomes the capture probe decides.
#[test]
fn go_walks_reach_captures_and_suicides() {
    let mut total = GoCoverage::default();
    for (seed, size) in [(1, 5), (2, 5), (3, 7), (4, 9), (5, 9), (6, 13)] {
        let c = go_walk(seed, size);
        total.captures += c.captures;
        total.suicides += c.suicides;
    }
    assert!(total.captures > 20, "{total:?}");
    assert!(total.suicides > 10, "{total:?}");
}

fn count_stones(board: &GoBoard, size: usize) -> usize {
    let mut n = 0;
    for y in 0..size {
        for x in 0..size {
            if board.at(x, y).is_some() {
                n += 1;
            }
        }
    }
    n
}
