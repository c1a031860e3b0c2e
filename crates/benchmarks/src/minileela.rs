//! `541.leela_r` stand-in: a Go engine playing incomplete games to
//! completion with Monte-Carlo tree search.
//!
//! Implements a Go board with group/liberty tracking via flood fill,
//! capture and suicide rules, area scoring, and an engine that picks each
//! move by UCB1 bandit selection over the legal root moves with uniform
//! random playouts — the root layer of leela's MCTS. Superko is not
//! tracked; playouts are bounded in length instead, which is how fast
//! playout engines avoid cycles in practice.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::go::{self, GameSpec, GoWorkload};
use alberta_workloads::{Named, Scale};

const BOARD_REGION: u64 = 0xD000_0000;
const TREE_REGION: u64 = 0xE000_0000;

/// Stone colors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Black stone.
    Black,
    /// White stone.
    White,
}

impl Color {
    /// The opposing color.
    pub fn other(self) -> Color {
        match self {
            Color::Black => Color::White,
            Color::White => Color::Black,
        }
    }

    fn cell(self) -> u8 {
        match self {
            Color::Black => 1,
            Color::White => 2,
        }
    }
}

/// Smallest supported board side.
const MIN_SIZE: usize = 5;
/// Largest supported board side.
const MAX_SIZE: usize = 25;

/// A set of points of a board, as a bitset sized for the largest board.
type PointSet = [u64; (MAX_SIZE * MAX_SIZE).div_ceil(64)];

/// Adds `idx` to `set`; returns whether it was absent.
fn insert(set: &mut PointSet, idx: usize) -> bool {
    let (word, bit) = (idx / 64, 1 << (idx % 64));
    let absent = set[word] & bit == 0;
    set[word] |= bit;
    absent
}

/// Removes and returns the lowest point of `set`.
fn pop(set: &mut PointSet) -> Option<usize> {
    let word = set.iter().position(|&w| w != 0)?;
    let bit = set[word].trailing_zeros() as usize;
    set[word] &= set[word] - 1;
    Some(word * 64 + bit)
}

/// The up-to-four orthogonal neighbours of one point, in the order
/// left, right, up, down.
#[derive(Clone, Copy)]
struct Neighbors {
    len: u8,
    at: [u16; 4],
}

/// Where each supported size's points start in [`NEIGHBORS`]; the entry
/// after the largest size is the table's length.
const NEIGHBOR_BASE: [usize; MAX_SIZE + 2] = {
    let mut base = [0; MAX_SIZE + 2];
    let mut size = MIN_SIZE;
    while size <= MAX_SIZE {
        base[size + 1] = base[size] + size * size;
        size += 1;
    }
    base
};

/// The neighbours of every point of every supported board size, so
/// that no lookup divides by the side length: point `idx` of a `size`
/// board is entry `NEIGHBOR_BASE[size] + idx`.
static NEIGHBORS: [Neighbors; NEIGHBOR_BASE[MAX_SIZE + 1]] = {
    let mut table = [Neighbors { len: 0, at: [0; 4] }; NEIGHBOR_BASE[MAX_SIZE + 1]];
    let mut size = MIN_SIZE;
    while size <= MAX_SIZE {
        let mut idx = 0;
        while idx < size * size {
            let (x, y) = (idx % size, idx / size);
            let candidates = [
                (x > 0, idx.wrapping_sub(1)),
                (x + 1 < size, idx + 1),
                (y > 0, idx.wrapping_sub(size)),
                (y + 1 < size, idx + size),
            ];
            let entry = &mut table[NEIGHBOR_BASE[size] + idx];
            let mut k = 0;
            while k < candidates.len() {
                if candidates[k].0 {
                    entry.at[entry.len as usize] = candidates[k].1 as u16;
                    entry.len += 1;
                }
                k += 1;
            }
            idx += 1;
        }
        size += 1;
    }
    table
};

/// A Go board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoBoard {
    size: usize,
    cells: Vec<u8>, // 0 empty, 1 black, 2 white
    captures: [u32; 2],
}

impl GoBoard {
    /// Creates an empty board.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not between 5 and 25.
    pub fn new(size: usize) -> Self {
        assert!(
            (MIN_SIZE..=MAX_SIZE).contains(&size),
            "unsupported board size"
        );
        GoBoard {
            size,
            cells: vec![0; size * size],
            captures: [0, 0],
        }
    }

    /// Board side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Cell state: `None` = empty.
    pub fn at(&self, x: usize, y: usize) -> Option<Color> {
        match self.cells[y * self.size + x] {
            1 => Some(Color::Black),
            2 => Some(Color::White),
            _ => None,
        }
    }

    /// The up-to-four orthogonal neighbours of `idx`.
    fn neighbors(&self, idx: usize) -> &'static [u16] {
        let entry = &NEIGHBORS[NEIGHBOR_BASE[self.size] + idx];
        &entry.at[..entry.len as usize]
    }

    /// Flood-fills the group containing `idx`; returns (group, liberties).
    /// Visited sets are stack bitsets (boards are at most 25×25).
    pub fn group_and_liberties(&self, idx: usize) -> (Vec<usize>, usize) {
        let color = self.cells[idx];
        debug_assert!(color != 0);
        let mut group = Vec::with_capacity(8);
        group.push(idx);
        let mut seen = PointSet::default();
        let mut lib_seen = PointSet::default();
        insert(&mut seen, idx);
        let mut cursor = 0;
        let mut liberties = 0;
        while cursor < group.len() {
            let s = group[cursor];
            cursor += 1;
            for &n in self.neighbors(s) {
                let n = n as usize;
                if self.cells[n] == 0 {
                    if insert(&mut lib_seen, n) {
                        liberties += 1;
                    }
                } else if self.cells[n] == color && insert(&mut seen, n) {
                    group.push(n);
                }
            }
        }
        (group, liberties)
    }

    /// Capture probe: flood-fills the group at `idx` and returns `None`
    /// as soon as it finds a liberty other than `filled`, a point that
    /// counts as occupied. A group with no such liberty comes back as its
    /// set of points. The fill and its worklist are stack bitsets, so a
    /// probe allocates nothing.
    fn group_if_captured(&self, idx: usize, filled: usize) -> Option<PointSet> {
        let color = self.cells[idx];
        let mut group = PointSet::default();
        let mut todo = PointSet::default();
        insert(&mut group, idx);
        insert(&mut todo, idx);
        while let Some(s) = pop(&mut todo) {
            for &n in self.neighbors(s) {
                let n = n as usize;
                if n == filled {
                    continue;
                }
                let cell = self.cells[n];
                if cell == 0 {
                    return None; // liberty: not captured
                }
                if cell == color && insert(&mut group, n) {
                    insert(&mut todo, n);
                }
            }
        }
        Some(group)
    }

    /// Empties every point of `group`; returns how many there were.
    fn remove(&mut self, group: &PointSet) -> u32 {
        let mut removed = 0;
        for (word, &bits) in group.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                self.cells[word * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
                removed += 1;
            }
        }
        removed
    }

    /// Attempts to play at `(x, y)`. Returns captured stone count, or
    /// `None` if the move is illegal (occupied or suicide).
    pub fn play(&mut self, x: usize, y: usize, color: Color) -> Option<u32> {
        self.play_at(y * self.size + x, color)
    }

    /// [`GoBoard::play`] at point index `idx`.
    fn play_at(&mut self, idx: usize, color: Color) -> Option<u32> {
        if self.cells[idx] != 0 {
            return None;
        }
        self.cells[idx] = color.cell();
        // Capture adjacent opponent groups with no liberties.
        let mut captured = 0u32;
        let opp = color.other().cell();
        for &n in self.neighbors(idx) {
            let n = n as usize;
            if self.cells[n] == opp {
                if let Some(group) = self.group_if_captured(n, idx) {
                    captured += self.remove(&group);
                }
            }
        }
        // Suicide check.
        if captured == 0 && self.group_if_captured(idx, idx).is_some() {
            self.cells[idx] = 0;
            return None;
        }
        self.captures[match color {
            Color::Black => 0,
            Color::White => 1,
        }] += captured;
        Some(captured)
    }

    /// Legal moves for `color` (not suicide, not occupied), excluding
    /// single-point true eyes of the mover (standard playout heuristic).
    pub fn legal_moves(&self, color: Color) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&idx| {
                self.cells[idx] == 0 && !self.is_true_eye(idx, color) && self.is_legal(idx, color)
            })
            .collect()
    }

    /// Whether `color` may play at the empty point `idx`, decided without
    /// playing it: the stone has a liberty, joins a group that keeps one,
    /// or captures a group whose last liberty is `idx`.
    fn is_legal(&self, idx: usize, color: Color) -> bool {
        let own = color.cell();
        self.neighbors(idx).iter().any(|&n| {
            let n = n as usize;
            match self.cells[n] {
                0 => true,
                cell if cell == own => self.group_if_captured(n, idx).is_none(),
                _ => self.group_if_captured(n, idx).is_some(),
            }
        })
    }

    /// A single-point eye: all neighbours are the mover's stones.
    fn is_true_eye(&self, idx: usize, color: Color) -> bool {
        self.neighbors(idx)
            .iter()
            .all(|&n| self.cells[n as usize] == color.cell())
    }

    /// Area score from black's perspective: stones plus territory whose
    /// flood-filled empty region touches only one color.
    pub(crate) fn area_score(&self) -> i32 {
        let mut score = 0i32;
        let mut seen = vec![false; self.cells.len()];
        for idx in 0..self.cells.len() {
            match self.cells[idx] {
                1 => score += 1,
                2 => score -= 1,
                _ => {
                    if seen[idx] {
                        continue;
                    }
                    // Flood the empty region.
                    let mut stack = vec![idx];
                    seen[idx] = true;
                    let mut region = 1i32;
                    let mut touches_black = false;
                    let mut touches_white = false;
                    while let Some(s) = stack.pop() {
                        for &n in self.neighbors(s) {
                            let n = n as usize;
                            match self.cells[n] {
                                1 => touches_black = true,
                                2 => touches_white = true,
                                _ => {
                                    if !seen[n] {
                                        seen[n] = true;
                                        region += 1;
                                        stack.push(n);
                                    }
                                }
                            }
                        }
                    }
                    if touches_black && !touches_white {
                        score += region;
                    } else if touches_white && !touches_black {
                        score -= region;
                    }
                }
            }
        }
        score
    }
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E3779B97F4A7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

pub(crate) struct Fns {
    playout: FnId,
    select: FnId,
    legal: FnId,
    score: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        playout: profiler.register_function("leela::playout", 2200),
        select: profiler.register_function("leela::uct_select", 900),
        legal: profiler.register_function("leela::gen_legal", 1600),
        score: profiler.register_function("leela::score", 1100),
    }
}

/// Plays one uniform random playout; returns black's area score.
///
/// Playouts pick moves by probing random empty points rather than
/// generating the full legal-move list each turn — the standard fast
/// playout policy of Monte-Carlo Go engines.
fn playout(
    board: &GoBoard,
    mut to_move: Color,
    rng: &mut u64,
    profiler: &mut Profiler,
    fns: &Fns,
) -> i32 {
    profiler.enter(fns.playout);
    let mut b = board.clone();
    let points = b.size() * b.size();
    let cap = points + points / 2;
    let mut passes = 0;
    for _ in 0..cap {
        // Probe random empty points; pass after a bounded number of
        // failed probes.
        let mut played = false;
        let start = (splitmix(rng) % points as u64) as usize;
        let mut probes = 0;
        for m in (start..points).chain(0..start) {
            if b.cells[m] != 0 {
                continue;
            }
            probes += 1;
            if probes > 24 {
                break;
            }
            profiler.load(BOARD_REGION + m as u64 % (1 << 20));
            if b.is_true_eye(m, to_move) {
                profiler.branch(1, true);
                continue;
            }
            profiler.branch(1, false);
            if b.play_at(m, to_move).is_some() {
                profiler.store(BOARD_REGION + m as u64 % (1 << 20));
                profiler.retire(6);
                played = true;
                break;
            }
        }
        let pass = !played;
        profiler.branch(0, pass);
        profiler.retire(4);
        if pass {
            passes += 1;
            if passes == 2 {
                break;
            }
        } else {
            passes = 0;
        }
        to_move = to_move.other();
    }
    profiler.enter(fns.score);
    let s = b.area_score();
    profiler.retire(b.size() as u64 * b.size() as u64 / 8);
    profiler.exit();
    profiler.exit();
    s
}

/// Plays one uniform random playout from `board`, `to_move` to play,
/// under `profiler`; returns black's area score. This is the playout
/// the engine runs for each of its UCB1 samples.
pub fn random_playout(
    board: &GoBoard,
    to_move: Color,
    rng: &mut u64,
    profiler: &mut Profiler,
) -> i32 {
    let fns = register(profiler);
    playout(board, to_move, rng, profiler, &fns)
}

/// Picks a move for `color` by UCB1 over the root moves.
///
/// Returns `None` when the position has no legal moves (pass).
pub(crate) fn engine_move(
    board: &GoBoard,
    color: Color,
    playouts: u32,
    rng: &mut u64,
    profiler: &mut Profiler,
    fns: &Fns,
) -> Option<usize> {
    profiler.enter(fns.legal);
    let moves = board.legal_moves(color);
    profiler.retire(moves.len() as u64);
    profiler.exit();
    if moves.is_empty() {
        return None;
    }
    let mut wins = vec![0.0f64; moves.len()];
    let mut visits = vec![0u32; moves.len()];
    for t in 0..playouts.max(1) {
        profiler.enter(fns.select);
        // UCB1 selection (untried arms first).
        let mut pick = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, &v) in visits.iter().enumerate() {
            profiler.load(TREE_REGION + i as u64 * 16);
            let u = if v == 0 {
                f64::INFINITY
            } else {
                wins[i] / v as f64 + (2.0 * ((t + 1) as f64).ln() / v as f64).sqrt()
            };
            let better = u > best;
            profiler.branch(1, better);
            if better {
                best = u;
                pick = i;
            }
        }
        profiler.exit();
        let m = moves[pick];
        let mut b = board.clone();
        b.play_at(m, color);
        let score = playout(&b, color.other(), rng, profiler, fns);
        let won = match color {
            Color::Black => score > 0,
            Color::White => score < 0,
        };
        wins[pick] += won as u32 as f64;
        visits[pick] += 1;
        profiler.store(TREE_REGION + pick as u64 * 16);
    }
    // Most-visited move wins, the standard MCTS final selection.
    let best = (0..moves.len())
        .max_by_key(|&i| visits[i])
        .expect("non-empty");
    Some(moves[best])
}

/// Plays one game spec: seeded prefix then engine moves to completion.
pub(crate) fn play_game(spec: &GameSpec, profiler: &mut Profiler, fns: &Fns) -> (i32, u64) {
    let mut board = GoBoard::new(spec.board_size as usize);
    let mut rng = spec.seed;
    let mut to_move = Color::Black;
    // Prefix: the "incomplete game from the archive".
    for _ in 0..spec.prefix_moves {
        let moves = board.legal_moves(to_move);
        if moves.is_empty() {
            break;
        }
        let m = moves[(splitmix(&mut rng) % moves.len() as u64) as usize];
        board.play_at(m, to_move);
        to_move = to_move.other();
    }
    // Engine finishes the game.
    let mut engine_moves = 0u64;
    for _ in 0..spec.moves_to_play {
        match engine_move(&board, to_move, spec.playouts, &mut rng, profiler, fns) {
            Some(m) => {
                board.play_at(m, to_move);
                engine_moves += 1;
            }
            None => break,
        }
        to_move = to_move.other();
    }
    (board.area_score(), engine_moves)
}

/// The leela mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniLeela {
    workloads: Vec<Named<GoWorkload>>,
}

impl MiniLeela {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniLeela {
            workloads: standard_set(scale, go::train, go::refrate, go::alberta_set),
        }
    }
}

impl Benchmark for MiniLeela {
    fn name(&self) -> &'static str {
        "541.leela_r"
    }

    fn short_name(&self) -> &'static str {
        "leela"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let fns = register(profiler);
        let mut scores = Vec::new();
        let mut total_moves = 0;
        for game in &w.games {
            let (score, moves) = play_game(game, profiler, &fns);
            scores.push(score as i64 as u64);
            total_moves += moves;
        }
        Ok(RunOutput {
            checksum: fnv1a(scores),
            work: total_moves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stone_capture() {
        let mut b = GoBoard::new(5);
        // Surround a white stone at (1,1).
        b.play(1, 1, Color::White).unwrap();
        b.play(0, 1, Color::Black).unwrap();
        b.play(2, 1, Color::Black).unwrap();
        b.play(1, 0, Color::Black).unwrap();
        let captured = b.play(1, 2, Color::Black).unwrap();
        assert_eq!(captured, 1);
        assert_eq!(b.at(1, 1), None);
        assert_eq!(b.captures[0], 1, "Black captured one stone");
    }

    #[test]
    fn group_capture() {
        let mut b = GoBoard::new(5);
        // Two connected white stones in the corner.
        b.play(0, 0, Color::White).unwrap();
        b.play(1, 0, Color::White).unwrap();
        b.play(0, 1, Color::Black).unwrap();
        b.play(1, 1, Color::Black).unwrap();
        let captured = b.play(2, 0, Color::Black).unwrap();
        assert_eq!(captured, 2);
        assert_eq!(b.at(0, 0), None);
        assert_eq!(b.at(1, 0), None);
    }

    #[test]
    fn suicide_is_illegal() {
        let mut b = GoBoard::new(5);
        b.play(0, 1, Color::Black).unwrap();
        b.play(1, 0, Color::Black).unwrap();
        b.play(1, 1, Color::Black).unwrap();
        assert_eq!(b.play(0, 0, Color::White), None, "corner suicide");
        assert_eq!(b.at(0, 0), None);
    }

    #[test]
    fn capturing_move_into_no_liberty_point_is_legal() {
        let mut b = GoBoard::new(5);
        // White stone at (0,0) with one liberty at (1,0); black plays
        // there: looks like self-atari but captures first.
        b.play(0, 0, Color::White).unwrap();
        b.play(0, 1, Color::Black).unwrap();
        let captured = b.play(1, 0, Color::Black);
        assert_eq!(captured, Some(1));
    }

    #[test]
    fn liberties_counted_correctly() {
        let mut b = GoBoard::new(7);
        b.play(3, 3, Color::Black).unwrap();
        let (group, libs) = b.group_and_liberties(3 * 7 + 3);
        assert_eq!(group.len(), 1);
        assert_eq!(libs, 4);
        b.play(3, 4, Color::Black).unwrap();
        let (group, libs) = b.group_and_liberties(3 * 7 + 3);
        assert_eq!(group.len(), 2);
        assert_eq!(libs, 6);
    }

    #[test]
    fn area_score_on_settled_board() {
        let mut b = GoBoard::new(5);
        // Black wall down column 2: left side black territory.
        for y in 0..5 {
            b.play(2, y, Color::Black).unwrap();
        }
        // score = 5 stones + 10 left+right empty? Both sides touch only
        // black, so the whole remainder is black: 5 + 20 = 25.
        assert_eq!(b.area_score(), 25);
        // Add a white stone on the right: right region becomes neutral.
        b.play(4, 2, Color::White).unwrap();
        let s = b.area_score();
        assert!(s < 25 && s > 0, "score {s}");
    }

    #[test]
    fn eye_moves_are_excluded_from_playout_moves() {
        let mut b = GoBoard::new(5);
        b.play(0, 1, Color::Black).unwrap();
        b.play(1, 0, Color::Black).unwrap();
        b.play(1, 1, Color::Black).unwrap();
        let moves = b.legal_moves(Color::Black);
        assert!(!moves.contains(&0), "corner eye must not be filled");
    }

    #[test]
    fn capturing_line_scores_better_in_playouts() {
        // A white group in atari at (3,1). Compare mean playout score for
        // black after capturing versus after a wasted corner move: the
        // capture removes two stones and must score strictly better.
        let mut b = GoBoard::new(5);
        b.play(1, 1, Color::White).unwrap();
        b.play(2, 1, Color::White).unwrap();
        b.play(1, 0, Color::Black).unwrap();
        b.play(2, 0, Color::Black).unwrap();
        b.play(0, 1, Color::Black).unwrap();
        b.play(1, 2, Color::Black).unwrap();
        b.play(2, 2, Color::Black).unwrap();
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let mean_score = |board: &GoBoard, p: &mut Profiler, fns: &Fns| -> f64 {
            let mut rng = 42u64;
            let n = 30;
            (0..n)
                .map(|_| playout(board, Color::White, &mut rng, p, fns) as f64)
                .sum::<f64>()
                / n as f64
        };
        let mut captured = b.clone();
        assert_eq!(captured.play(3, 1, Color::Black), Some(2));
        let mut wasted = b.clone();
        assert_eq!(wasted.play(4, 4, Color::Black), Some(0));
        let capture_score = mean_score(&captured, &mut p, &fns);
        let wasted_score = mean_score(&wasted, &mut p, &fns);
        let _ = p.finish();
        assert!(
            capture_score > wasted_score,
            "capture {capture_score} vs wasted {wasted_score}"
        );
    }

    #[test]
    fn engine_move_is_legal_and_deterministic() {
        let mut b = GoBoard::new(9);
        b.play(4, 4, Color::Black).unwrap();
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let mut rng1 = 7u64;
        let mut rng2 = 7u64;
        let m1 = engine_move(&b, Color::White, 20, &mut rng1, &mut p, &fns).unwrap();
        let m2 = engine_move(&b, Color::White, 20, &mut rng2, &mut p, &fns).unwrap();
        let _ = p.finish();
        assert_eq!(m1, m2);
        assert_eq!(b.at(m1 % 9, m1 / 9), None, "move targets an empty point");
    }

    #[test]
    fn playouts_terminate_and_benchmark_runs() {
        let b = MiniLeela::new(Scale::Test);
        let mut p = Profiler::default();
        let out = b.run("train", &mut p).unwrap();
        assert!(out.work > 0);
        let cov = p.finish().coverage_percent();
        assert!(cov["leela::playout"] > 20.0, "{cov:?}");
    }

    #[test]
    fn determinism() {
        let b = MiniLeela::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        assert_eq!(
            b.run("alberta.0", &mut p1).unwrap(),
            b.run("alberta.0", &mut p2).unwrap()
        );
    }
}
