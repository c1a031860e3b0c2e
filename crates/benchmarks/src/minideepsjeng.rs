//! `531.deepsjeng_r` stand-in: a chess engine performing α–β tree search.
//!
//! Implements a 0x88-board chess engine: pseudo-legal move generation
//! with legality filtering, material + piece-square evaluation, negamax
//! α–β search with a transposition table and MVV-LVA move ordering, and a
//! capture-only quiescence search. Move generation is validated against
//! the standard perft node counts.
//!
//! Simplifications relative to full chess (documented substitutions):
//! castling and en passant are omitted and promotion is always to a
//! queen. Workload positions are derived by playing seeded random legal
//! moves from the initial position, so they are legal by construction —
//! the role the Arasan test-suite positions play in the paper.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::chess::{self, ChessWorkload, PositionSpec};
use alberta_workloads::{Named, Scale};

const BOARD_REGION: u64 = 0x6000_0000;
const TT_REGION: u64 = 0x7000_0000;

/// Piece codes; positive = white, negative = black, 0 = empty.
pub mod piece {
    /// Pawn.
    pub(crate) const PAWN: i8 = 1;
    /// Knight.
    pub(crate) const KNIGHT: i8 = 2;
    /// Bishop.
    pub(crate) const BISHOP: i8 = 3;
    /// Rook.
    pub(crate) const ROOK: i8 = 4;
    /// Queen.
    pub(crate) const QUEEN: i8 = 5;
    /// King.
    pub const KING: i8 = 6;
}

const KNIGHT_D: [i16; 8] = [14, 18, 31, 33, -14, -18, -31, -33];
const KING_D: [i16; 8] = [1, -1, 16, -16, 15, 17, -15, -17];
const BISHOP_D: [i16; 4] = [15, 17, -15, -17];
const ROOK_D: [i16; 4] = [1, -1, 16, -16];

/// A chess position on a 0x88 board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    /// 128-cell 0x88 board.
    pub squares: [i8; 128],
    /// Side to move: 1 = white, -1 = black.
    pub side: i8,
    /// Cached king squares: `[white, black]`. Kept in sync by
    /// [`Board::make`]/[`Board::unmake`]; may briefly point at a captured
    /// king inside pseudo-legal lines, which [`Board::in_check`] detects.
    kings: [u8; 2],
}

/// A move: from/to 0x88 indices plus the captured piece for unmake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    from: u8,
    to: u8,
    captured: i8,
    promotion: bool,
}

impl Board {
    /// The initial chess position.
    pub fn initial() -> Self {
        use piece::*;
        let mut squares = [0i8; 128];
        let back = [ROOK, KNIGHT, BISHOP, QUEEN, KING, BISHOP, KNIGHT, ROOK];
        for (f, &p) in back.iter().enumerate() {
            squares[f] = p; // white back rank (rank 0)
            squares[0x10 + f] = PAWN;
            squares[0x60 + f] = -PAWN;
            squares[0x70 + f] = -p;
        }
        Board {
            squares,
            side: 1,
            kings: [0x04, 0x74],
        }
    }

    fn on_board(sq: i16) -> bool {
        sq & 0x88 == 0 && sq >= 0
    }

    /// Generates pseudo-legal moves (may leave own king in check), in
    /// ascending order of the moving piece's square.
    pub fn pseudo_moves(&self, out: &mut Vec<Move>) {
        out.clear();
        for rank in 0..8 {
            let mut own = self.own_pieces(rank);
            while own != 0 {
                let from = rank as u8 * 16 + (own.trailing_zeros() / 8) as u8;
                own &= own - 1;
                self.piece_moves(from, out);
            }
        }
    }

    /// The eight squares of `rank` as one word, file 0 in the low byte.
    fn rank_word(&self, rank: usize) -> u64 {
        let base = rank * 16;
        let files: [i8; 8] = self.squares[base..base + 8]
            .try_into()
            .expect("a rank has eight files");
        u64::from_le_bytes(files.map(|p| p as u8))
    }

    /// The side to move's pieces on `rank`: the top bit of each of their
    /// bytes in [`Board::rank_word`]. White pieces are the nonzero bytes
    /// with the sign bit clear, black ones the bytes with it set.
    fn own_pieces(&self, rank: usize) -> u64 {
        let word = self.rank_word(rank);
        let negative = word & BYTE_TOPS;
        if self.side == 1 {
            nonzero_bytes(word) & !negative
        } else {
            negative
        }
    }

    /// The number of occupied squares on `rank`.
    fn rank_occupancy(&self, rank: usize) -> u32 {
        nonzero_bytes(self.rank_word(rank)).count_ones()
    }

    /// Pushes the pseudo-legal moves of the side to move's piece on
    /// `from`.
    fn piece_moves(&self, from: u8, out: &mut Vec<Move>) {
        use piece::*;
        match self.squares[from as usize].abs() {
            PAWN => {
                let dir: i16 = if self.side == 1 { 16 } else { -16 };
                let fwd = from as i16 + dir;
                if Board::on_board(fwd) && self.squares[fwd as usize] == 0 {
                    out.push(self.mk(from, fwd as u8));
                    // Double push from the home rank.
                    let home = if self.side == 1 { 1 } else { 6 };
                    let fwd2 = fwd + dir;
                    if (from >> 4) == home
                        && Board::on_board(fwd2)
                        && self.squares[fwd2 as usize] == 0
                    {
                        out.push(self.mk(from, fwd2 as u8));
                    }
                }
                for dd in [dir - 1, dir + 1] {
                    let t = from as i16 + dd;
                    if Board::on_board(t) {
                        let q = self.squares[t as usize];
                        if q != 0 && q.signum() != self.side {
                            out.push(self.mk(from, t as u8));
                        }
                    }
                }
            }
            KNIGHT => self.step_moves(from, &KNIGHT_D, out),
            KING => self.step_moves(from, &KING_D, out),
            BISHOP => self.slide_moves(from, &BISHOP_D, out),
            ROOK => self.slide_moves(from, &ROOK_D, out),
            QUEEN => {
                self.slide_moves(from, &BISHOP_D, out);
                self.slide_moves(from, &ROOK_D, out);
            }
            _ => unreachable!("invalid piece code"),
        }
    }

    fn mk(&self, from: u8, to: u8) -> Move {
        let promotion =
            self.squares[from as usize].abs() == piece::PAWN && matches!(to >> 4, 0 | 7);
        Move {
            from,
            to,
            captured: self.squares[to as usize],
            promotion,
        }
    }

    fn step_moves(&self, from: u8, deltas: &[i16], out: &mut Vec<Move>) {
        for &d in deltas {
            let t = from as i16 + d;
            if Board::on_board(t) {
                let q = self.squares[t as usize];
                if q == 0 || q.signum() != self.side {
                    out.push(self.mk(from, t as u8));
                }
            }
        }
    }

    fn slide_moves(&self, from: u8, deltas: &[i16], out: &mut Vec<Move>) {
        for &d in deltas {
            let mut t = from as i16 + d;
            while Board::on_board(t) {
                let q = self.squares[t as usize];
                if q == 0 {
                    out.push(self.mk(from, t as u8));
                } else {
                    if q.signum() != self.side {
                        out.push(self.mk(from, t as u8));
                    }
                    break;
                }
                t += d;
            }
        }
    }

    fn king_index(side: i8) -> usize {
        if side == 1 {
            0
        } else {
            1
        }
    }

    /// Applies a move.
    pub fn make(&mut self, m: Move) {
        let mut p = self.squares[m.from as usize];
        if m.promotion {
            p = piece::QUEEN * p.signum();
        }
        if p.abs() == piece::KING {
            self.kings[Board::king_index(p.signum())] = m.to;
        }
        self.squares[m.to as usize] = p;
        self.squares[m.from as usize] = 0;
        self.side = -self.side;
    }

    /// Reverts a move made by [`Board::make`].
    pub fn unmake(&mut self, m: Move) {
        let mut p = self.squares[m.to as usize];
        if m.promotion {
            p = piece::PAWN * p.signum();
        }
        if p.abs() == piece::KING {
            self.kings[Board::king_index(p.signum())] = m.from;
        }
        self.squares[m.from as usize] = p;
        self.squares[m.to as usize] = m.captured;
        self.side = -self.side;
    }

    /// Whether `side`'s king is attacked.
    pub fn in_check(&self, side: i8) -> bool {
        use piece::*;
        let cached = self.kings[Board::king_index(side)] as usize;
        if self.squares[cached] != KING * side {
            return true; // king captured in a pseudo-legal line
        }
        let ks = cached as i16;
        // Knights.
        for d in [14i16, 18, 31, 33, -14, -18, -31, -33] {
            let t = ks + d;
            if Board::on_board(t) && self.squares[t as usize] == -side * KNIGHT {
                return true;
            }
        }
        // Sliders and king adjacency.
        for (deltas, pieces) in [
            ([15i16, 17, -15, -17].as_slice(), [BISHOP, QUEEN].as_slice()),
            ([1i16, -1, 16, -16].as_slice(), [ROOK, QUEEN].as_slice()),
        ] {
            for &d in deltas {
                let mut t = ks + d;
                let mut first = true;
                while Board::on_board(t) {
                    let q = self.squares[t as usize];
                    if q != 0 {
                        if q.signum() == -side {
                            let a = q.abs();
                            if pieces.contains(&a) || (first && a == KING) {
                                return true;
                            }
                        }
                        break;
                    }
                    t += d;
                    first = false;
                }
            }
        }
        // Pawns.
        let dir: i16 = if side == 1 { 16 } else { -16 };
        for dd in [dir - 1, dir + 1] {
            let t = ks + dd;
            if Board::on_board(t) && self.squares[t as usize] == -side * PAWN {
                return true;
            }
        }
        false
    }

    /// Generates fully legal moves, in [`Board::pseudo_moves`] order.
    pub fn legal_moves(&mut self) -> Vec<Move> {
        let mut moves = Vec::with_capacity(64);
        self.legal_moves_into(&mut moves);
        moves
    }

    /// Fills `out` with the legal moves, in [`Board::pseudo_moves`]
    /// order, filtering the pseudo-moves in place.
    ///
    /// Only king moves, every move while in check, and moves of pinned
    /// pieces are tried with make/[`Board::in_check`]/unmake. Any other
    /// move is legal: it moves no king, the king is not attacked before
    /// it, a capture only removes an attacker, and vacating a square
    /// that is not pinned cannot open a line to the king.
    fn legal_moves_into(&mut self, out: &mut Vec<Move>) {
        self.pseudo_moves(out);
        let side = self.side;
        let king = self.kings[Board::king_index(side)];
        let checked = self.in_check(side);
        let pinned = self.pinned(side);
        out.retain(|&m| {
            if !checked && m.from != king && pinned >> m.from & 1 == 0 {
                return true;
            }
            self.make(m);
            let ok = !self.in_check(side);
            self.unmake(m);
            ok
        });
    }

    /// `side`'s pinned pieces as a bit mask over 0x88 squares: each own
    /// piece that is first on a ray from the king, with an enemy slider
    /// that moves along that ray (bishop or queen on a diagonal, rook or
    /// queen on a file or rank) next behind it.
    fn pinned(&self, side: i8) -> u128 {
        use piece::*;
        let ks = self.kings[Board::king_index(side)] as i16;
        let mut pinned = 0u128;
        for (deltas, slider) in [(BISHOP_D, BISHOP), (ROOK_D, ROOK)] {
            for d in deltas {
                let mut t = ks + d;
                let mut blocker = None;
                while Board::on_board(t) {
                    let q = self.squares[t as usize];
                    if q != 0 {
                        match blocker {
                            None if q.signum() == side => blocker = Some(t),
                            None => break,
                            Some(b) => {
                                if q == -side * slider || q == -side * QUEEN {
                                    pinned |= 1 << b;
                                }
                                break;
                            }
                        }
                    }
                    t += d;
                }
            }
        }
        pinned
    }

    /// Perft node count (for move-generator validation).
    pub fn perft(&mut self, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let moves = self.legal_moves();
        if depth == 1 {
            return moves.len() as u64;
        }
        let mut nodes = 0;
        for m in moves {
            self.make(m);
            nodes += self.perft(depth - 1);
            self.unmake(m);
        }
        nodes
    }

    /// Zobrist-style hash of the position.
    pub fn hash(&self) -> u64 {
        let mut h = if self.side == 1 { 0x9E37 } else { 0x79B9 };
        for s in 0..128 {
            if s & 0x88 == 0 && self.squares[s] != 0 {
                let code = (self.squares[s] + 6) as u64;
                h ^= splitmix(code * 131 + s as u64);
            }
        }
        h
    }

    /// What [`Board::make`]`(m)` XORs into [`Board::hash`], read before
    /// the move is made (or after it is unmade): the moved piece leaves
    /// `from` and arrives at `to`, possibly promoted, any captured piece
    /// leaves `to`, and the side to move flips.
    pub fn hash_delta(&self, m: Move) -> u64 {
        let p = self.squares[m.from as usize];
        let arrives = if m.promotion {
            piece::QUEEN * p.signum()
        } else {
            p
        };
        let mut delta = SIDE_FLIP;
        delta ^= ZOBRIST[(p + 6) as usize][m.from as usize];
        delta ^= ZOBRIST[(arrives + 6) as usize][m.to as usize];
        if m.captured != 0 {
            delta ^= ZOBRIST[(m.captured + 6) as usize][m.to as usize];
        }
        delta
    }

    /// Material plus piece-square score from white's side, summed over
    /// the board: what the search's evaluation keeps by
    /// [`Board::material_delta`].
    fn material(&self) -> i32 {
        let mut score = 0;
        for s in 0..128u8 {
            if s & 0x88 == 0 {
                score += piece_square(self.squares[s as usize], s);
            }
        }
        score
    }

    /// What [`Board::make`]`(m)` adds to [`Board::material`], read
    /// before the move is made (or after it is unmade), with the same
    /// terms as [`Board::hash_delta`].
    fn material_delta(&self, m: Move) -> i32 {
        let p = self.squares[m.from as usize];
        let arrives = if m.promotion {
            piece::QUEEN * p.signum()
        } else {
            p
        };
        piece_square(arrives, m.to) - piece_square(p, m.from) - piece_square(m.captured, m.to)
    }

    /// Derives a position by playing `spec.random_moves` seeded random
    /// legal moves from the initial position (stops early at mate or
    /// stalemate).
    pub fn from_spec(spec: &PositionSpec) -> Board {
        let mut board = Board::initial();
        let mut state = spec.seed;
        for _ in 0..spec.random_moves {
            let moves = board.legal_moves();
            if moves.is_empty() {
                break;
            }
            state = splitmix(state);
            let m = moves[(state % moves.len() as u64) as usize];
            board.make(m);
        }
        board
    }
}

const fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// What flipping the side to move XORs into [`Board::hash`]: its white
/// term `0x9E37` out and its black term `0x79B9` in, or back.
const SIDE_FLIP: u64 = 0x9E37 ^ 0x79B9;

/// [`Board::hash`]'s piece-square terms, indexed by piece code + 6 and
/// 0x88 square.
static ZOBRIST: [[u64; 128]; 13] = {
    let mut table = [[0; 128]; 13];
    let mut code = 0;
    while code < 13 {
        let mut s = 0;
        while s < 128 {
            table[code][s] = splitmix(code as u64 * 131 + s as u64);
            s += 1;
        }
        code += 1;
    }
    table
};

/// The top bit of each byte of a word.
const BYTE_TOPS: u64 = 0x8080_8080_8080_8080;

/// The top bit of each nonzero byte of `word`: adding seven ones to a
/// byte's low seven bits carries into its top bit unless they are all
/// zero, and no carry crosses into the next byte.
const fn nonzero_bytes(word: u64) -> u64 {
    const LOW_SEVENS: u64 = !BYTE_TOPS;
    (((word & LOW_SEVENS) + LOW_SEVENS) | word) & BYTE_TOPS
}

const PIECE_VALUE: [i32; 7] = [0, 100, 320, 330, 500, 900, 20000];

/// Piece `p`'s value plus its bonus on `sq`, signed by colour; zero for
/// an empty square.
fn piece_square(p: i8, sq: u8) -> i32 {
    (PIECE_VALUE[p.unsigned_abs() as usize] + square_bonus(sq)) * p.signum() as i32
}

/// Center-weighted piece-square bonus.
fn square_bonus(sq: u8) -> i32 {
    let file = (sq & 7) as i32;
    let rank = (sq >> 4) as i32;
    let df = (file - 3).abs().min((file - 4).abs());
    let dr = (rank - 3).abs().min((rank - 4).abs());
    8 - 2 * (df + dr)
}

struct Engine<'a> {
    board: Board,
    /// `board.hash()`, kept incrementally by [`Engine::make`] and
    /// [`Engine::unmake`].
    hash: u64,
    /// `board.material()`, kept incrementally the same way.
    material: i32,
    profiler: &'a mut Profiler,
    fns: Fns,
    tt: Vec<(u64, i32, u32)>, // (hash, score, depth)
    nodes: u64,
    /// Move buffers not held by a node on the search stack, reused so
    /// that a node allocates none.
    spare_moves: Vec<Vec<Move>>,
    /// [`Engine::ordered_moves`]'s sort buffer of (MVV-LVA key, move).
    keyed_moves: Vec<(i32, Move)>,
}

struct Fns {
    search: FnId,
    quiesce: FnId,
    movegen: FnId,
    evaluate: FnId,
    make_move: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        search: profiler.register_function("deepsjeng::search", 2600),
        quiesce: profiler.register_function("deepsjeng::qsearch", 1200),
        movegen: profiler.register_function("deepsjeng::gen_moves", 1800),
        evaluate: profiler.register_function("deepsjeng::evaluate", 1400),
        make_move: profiler.register_function("deepsjeng::make", 400),
    }
}

const TT_SIZE: usize = 1 << 12;
const MATE: i32 = 100_000;

impl<'a> Engine<'a> {
    fn new(board: Board, profiler: &'a mut Profiler) -> Self {
        let fns = register(profiler);
        Engine {
            hash: board.hash(),
            material: board.material(),
            board,
            profiler,
            fns,
            // An empty slot holds hash `u64::MAX` at depth 0, so a probe
            // can only fake a hit on it at depth 0 for a position whose
            // hash is exactly `u64::MAX`.
            tt: vec![(u64::MAX, 0, 0); TT_SIZE],
            nodes: 0,
            spare_moves: Vec::new(),
            keyed_moves: Vec::new(),
        }
    }

    fn evaluate(&mut self) -> i32 {
        self.profiler.enter(self.fns.evaluate);
        for rank in 0..8 {
            // The board scan reads one cache line per rank; reporting one
            // load per eight squares models that without drowning the
            // profiler in events. Each occupied square retires two ops.
            self.profiler.load(BOARD_REGION + rank as u64 * 16);
            for _ in 0..self.board.rank_occupancy(rank) {
                self.profiler.retire(2);
            }
        }
        self.profiler.exit();
        self.material * self.board.side as i32
    }

    /// The ordered moves of the current position, in a buffer taken from
    /// `spare_moves`; the caller pushes it back when done with it.
    fn ordered_moves(&mut self, captures_only: bool) -> Vec<Move> {
        self.profiler.enter(self.fns.movegen);
        let mut moves = self.spare_moves.pop().unwrap_or_default();
        self.board.legal_moves_into(&mut moves);
        self.profiler.retire(moves.len() as u64 * 4);
        for m in &moves {
            self.profiler.load(BOARD_REGION + m.from as u64);
        }
        if captures_only {
            moves.retain(|m| m.captured != 0);
        }
        // MVV-LVA: most valuable victim, least valuable attacker first.
        // Each key is computed once; the stable sort keeps generation
        // order among equal keys.
        self.keyed_moves.clear();
        self.keyed_moves.extend(moves.iter().map(|&m| {
            let victim = PIECE_VALUE[m.captured.unsigned_abs() as usize];
            let attacker = PIECE_VALUE[self.board.squares[m.from as usize].unsigned_abs() as usize];
            (-(victim * 100 - attacker), m)
        }));
        self.keyed_moves.sort_by_key(|&(key, _)| key);
        for (slot, &(_, m)) in moves.iter_mut().zip(&self.keyed_moves) {
            *slot = m;
        }
        self.profiler.exit();
        moves
    }

    fn quiesce(&mut self, mut alpha: i32, beta: i32) -> i32 {
        self.profiler.enter(self.fns.quiesce);
        self.nodes += 1;
        let stand = self.evaluate();
        if stand >= beta {
            self.profiler.branch(10, true);
            self.profiler.exit();
            return beta;
        }
        self.profiler.branch(10, false);
        alpha = alpha.max(stand);
        let moves = self.ordered_moves(true);
        for &m in &moves {
            self.make(m);
            let score = -self.quiesce(-beta, -alpha);
            self.unmake(m);
            let cut = score >= beta;
            self.profiler.branch(11, cut);
            if cut {
                alpha = beta;
                break;
            }
            alpha = alpha.max(score);
        }
        self.spare_moves.push(moves);
        self.profiler.exit();
        alpha
    }

    fn make(&mut self, m: Move) {
        self.profiler.enter(self.fns.make_move);
        self.profiler.store(BOARD_REGION + m.to as u64);
        self.profiler.store(BOARD_REGION + m.from as u64);
        self.profiler.retire(3);
        self.hash ^= self.board.hash_delta(m);
        self.material += self.board.material_delta(m);
        self.board.make(m);
        self.profiler.exit();
    }

    fn unmake(&mut self, m: Move) {
        self.board.unmake(m);
        self.hash ^= self.board.hash_delta(m);
        self.material -= self.board.material_delta(m);
        self.profiler.retire(3);
    }

    fn search(&mut self, depth: u32, mut alpha: i32, beta: i32) -> i32 {
        self.profiler.enter(self.fns.search);
        self.nodes += 1;
        let hash = self.hash;
        let slot = (hash as usize) & (TT_SIZE - 1);
        self.profiler.load(TT_REGION + slot as u64 * 16);
        let (tt_hash, tt_score, tt_depth) = self.tt[slot];
        let tt_hit = tt_hash == hash && tt_depth >= depth;
        self.profiler.branch(12, tt_hit);
        if tt_hit {
            self.profiler.exit();
            return tt_score;
        }
        if depth == 0 {
            let score = self.quiesce(alpha, beta);
            self.profiler.exit();
            return score;
        }
        let moves = self.ordered_moves(false);
        if moves.is_empty() {
            self.spare_moves.push(moves);
            let side = self.board.side;
            let score = if self.board.in_check(side) { -MATE } else { 0 };
            self.profiler.exit();
            return score;
        }
        let mut best = -MATE * 2;
        for &m in &moves {
            self.make(m);
            let score = -self.search(depth - 1, -beta, -alpha);
            self.unmake(m);
            best = best.max(score);
            alpha = alpha.max(score);
            let cut = alpha >= beta;
            self.profiler.branch(13, cut);
            if cut {
                break;
            }
        }
        self.spare_moves.push(moves);
        self.tt[slot] = (hash, best, depth);
        self.profiler.store(TT_REGION + slot as u64 * 16);
        self.profiler.exit();
        best
    }
}

/// Searches one position spec to its depth; returns (score, nodes).
pub fn analyze(spec: &PositionSpec, profiler: &mut Profiler) -> (i32, u64) {
    let mut engine = Engine::new(Board::from_spec(spec), profiler);
    let score = engine.search(spec.depth, -MATE * 2, MATE * 2);
    (score, engine.nodes)
}

/// The deepsjeng mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniDeepsjeng {
    workloads: Vec<Named<ChessWorkload>>,
}

impl MiniDeepsjeng {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniDeepsjeng {
            workloads: standard_set(scale, chess::train, chess::refrate, chess::alberta_set),
        }
    }
}

impl Benchmark for MiniDeepsjeng {
    fn name(&self) -> &'static str {
        "531.deepsjeng_r"
    }

    fn short_name(&self) -> &'static str {
        "deepsjeng"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let mut scores = Vec::new();
        let mut nodes = 0;
        for (i, spec) in w.positions.iter().enumerate() {
            // A zero-ply search task is as meaningless as an illegal FEN:
            // reject it up front instead of "searching" it.
            if spec.depth == 0 {
                return Err(BenchError::InvalidInput {
                    benchmark: "531.deepsjeng_r",
                    reason: format!("position {i} has illegal search depth 0"),
                });
            }
            let (score, n) = analyze(spec, profiler);
            scores.push(score as u64);
            nodes += n;
        }
        Ok(RunOutput {
            checksum: fnv1a(scores),
            work: nodes,
        })
    }

    fn inject_malformed(&mut self, workload: &str, seed: u64) -> bool {
        self.workloads
            .iter_mut()
            .find(|n| n.name == workload)
            .map(|n| n.workload.corrupt(seed))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perft_matches_standard_counts() {
        // Standard chess perft; no castling/en passant is reachable at
        // these depths from the initial position, so the counts match
        // full chess.
        let mut b = Board::initial();
        assert_eq!(b.perft(1), 20);
        assert_eq!(b.perft(2), 400);
        assert_eq!(b.perft(3), 8902);
    }

    #[test]
    fn make_unmake_round_trips() {
        let mut b = Board::initial();
        let snapshot = b.clone();
        for m in b.legal_moves() {
            b.make(m);
            b.unmake(m);
            assert_eq!(b, snapshot, "unmake failed for {m:?}");
        }
    }

    #[test]
    fn initial_position_is_not_check() {
        let b = Board::initial();
        assert!(!b.in_check(1));
        assert!(!b.in_check(-1));
    }

    #[test]
    fn scholars_mate_is_detected_as_winning_capture_line() {
        // A queen en prise must be captured by the search: material swing
        // visible at depth 2.
        let mut b = Board::initial();
        // Hang a black queen on a3 (0x20): the b1 knight captures it
        // outright and nothing defends the square.
        b.squares[0x20] = -piece::QUEEN;
        let spec = PositionSpec {
            seed: 0,
            random_moves: 0,
            depth: 2,
        };
        let mut p = Profiler::default();
        let mut engine = Engine::new(b, &mut p);
        // Statically, white is down a full queen...
        let static_eval = engine.evaluate();
        assert!(
            static_eval < -700,
            "static eval should show the deficit: {static_eval}"
        );
        // ...but the search finds Nxa3 and restores material equality.
        let score = engine.search(spec.depth, -MATE * 2, MATE * 2);
        assert!(
            score > -200,
            "search must recover the queen (≈0), got {score}"
        );
        let _ = p.finish();
    }

    /// `Engine::make` and `Engine::unmake` keep the hash and the
    /// material score equal to `Board::hash` and the full-board
    /// `Board::material` scan.
    #[test]
    fn engine_make_and_unmake_keep_the_hash() {
        let mut p = Profiler::default();
        let mut promotions = 0;
        for seed in [7, 8, 9, 10] {
            let spec = PositionSpec {
                seed,
                random_moves: 12,
                depth: 1,
            };
            let mut engine = Engine::new(Board::from_spec(&spec), &mut p);
            let mut state = spec.seed;
            for _ in 0..150 {
                let moves = engine.board.legal_moves();
                if moves.is_empty() {
                    break;
                }
                for &m in &moves {
                    promotions += m.promotion as usize;
                    engine.make(m);
                    assert_eq!(engine.hash, engine.board.hash(), "make {m:?}");
                    assert_eq!(engine.material, engine.board.material(), "make {m:?}");
                    engine.unmake(m);
                    assert_eq!(engine.hash, engine.board.hash(), "unmake {m:?}");
                    assert_eq!(engine.material, engine.board.material(), "unmake {m:?}");
                }
                state = splitmix(state);
                engine.make(moves[(state % moves.len() as u64) as usize]);
            }
        }
        assert!(promotions > 0, "the walk reaches promotions");
        let _ = p.finish();
    }

    /// The 128-square scan that `Board::pseudo_moves` replaced with a
    /// per-rank piece scan: every square, in ascending order.
    fn scanned_pseudo_moves(board: &Board) -> Vec<Move> {
        let mut out = Vec::new();
        for from in 0..128u8 {
            let p = board.squares[from as usize];
            if from & 0x88 == 0 && p != 0 && p.signum() == board.side {
                board.piece_moves(from, &mut out);
            }
        }
        out
    }

    /// The ordering `Engine::ordered_moves` replaced: `sort_by_key`
    /// recomputing both board lookups per comparison.
    fn sorted_by_key(board: &mut Board, captures_only: bool) -> Vec<Move> {
        let mut moves = board.legal_moves();
        if captures_only {
            moves.retain(|m| m.captured != 0);
        }
        moves.sort_by_key(|m| {
            let victim = PIECE_VALUE[m.captured.unsigned_abs() as usize];
            let attacker = PIECE_VALUE[board.squares[m.from as usize].unsigned_abs() as usize];
            -(victim * 100 - attacker)
        });
        moves
    }

    /// At every ply of seeded legal walks, for either side to move, the
    /// per-rank piece scan and occupancy count equal the 128-square
    /// scan, and `ordered_moves` equals the `sort_by_key` ordering.
    #[test]
    fn piece_scan_and_move_order_match_the_references() {
        let mut p = Profiler::default();
        let mut captures = 0;
        for seed in 0..6 {
            let mut engine = Engine::new(Board::initial(), &mut p);
            let mut state = seed;
            for ply in 0..120 {
                for _ in 0..2 {
                    let board = &engine.board;
                    let mut pseudo = Vec::new();
                    board.pseudo_moves(&mut pseudo);
                    assert_eq!(pseudo, scanned_pseudo_moves(board), "seed {seed} ply {ply}");
                    for rank in 0..8 {
                        let occupied = (0..8)
                            .filter(|&file| board.squares[rank * 16 + file] != 0)
                            .count() as u32;
                        assert_eq!(board.rank_occupancy(rank), occupied, "rank {rank}");
                    }
                    engine.board.side = -engine.board.side;
                }
                for captures_only in [false, true] {
                    let ordered = engine.ordered_moves(captures_only);
                    let reference = sorted_by_key(&mut engine.board, captures_only);
                    assert_eq!(ordered, reference, "seed {seed} ply {ply}");
                    captures += captures_only as usize * ordered.len();
                    engine.spare_moves.push(ordered);
                }
                let moves = engine.board.legal_moves();
                if moves.is_empty() {
                    break;
                }
                state = splitmix(state);
                engine.make(moves[(state % moves.len() as u64) as usize]);
            }
        }
        assert!(captures > 100, "the walks order captures: {captures}");
        let _ = p.finish();
    }

    #[test]
    fn from_spec_is_deterministic_and_legal() {
        let spec = PositionSpec {
            seed: 99,
            random_moves: 30,
            depth: 1,
        };
        let a = Board::from_spec(&spec);
        let b = Board::from_spec(&spec);
        assert_eq!(a, b);
        // Both kings alive.
        let kings = a
            .squares
            .iter()
            .filter(|&&p| p.abs() == piece::KING)
            .count();
        assert_eq!(kings, 2);
    }

    #[test]
    fn deeper_search_visits_more_nodes() {
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let shallow = analyze(
            &PositionSpec {
                seed: 5,
                random_moves: 10,
                depth: 2,
            },
            &mut p1,
        );
        let deep = analyze(
            &PositionSpec {
                seed: 5,
                random_moves: 10,
                depth: 4,
            },
            &mut p2,
        );
        assert!(deep.1 > shallow.1 * 3, "{} vs {}", deep.1, shallow.1);
    }

    #[test]
    fn benchmark_runs_with_search_dominating_coverage() {
        let b = MiniDeepsjeng::new(Scale::Test);
        let mut p = Profiler::default();
        let out = b.run("train", &mut p).unwrap();
        assert!(out.work > 0);
        let profile = p.finish();
        let cov = profile.coverage_percent();
        let search_family = cov["deepsjeng::search"]
            + cov["deepsjeng::qsearch"]
            + cov["deepsjeng::gen_moves"]
            + cov["deepsjeng::evaluate"];
        assert!(search_family > 80.0, "{cov:?}");
    }

    #[test]
    fn determinism() {
        let b = MiniDeepsjeng::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        assert_eq!(
            b.run("alberta.1", &mut p1).unwrap(),
            b.run("alberta.1", &mut p2).unwrap()
        );
        assert_eq!(p1.finish().totals, p2.finish().totals);
    }
}
