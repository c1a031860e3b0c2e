//! Workload generator for `541.leela_r` — incomplete Go games.
//!
//! The paper's leela workloads are SGF games from the No-Name Go Server
//! archive with "moves culled from the end of the game so that the games
//! are incomplete"; board size and cull count vary between workloads, and
//! each workload holds exactly six positions. With no NNGS archive, a game
//! is specified as a seeded sequence of plausible random moves that the
//! mini-leela engine replays on its own board (guaranteeing legality) —
//! the same way the chess workloads operate. The paper's three board-size
//! choices and the cull knob are preserved.

use crate::{Named, Scale, SeededRng};

/// Supported board sizes (the paper's generator offers three).
pub(crate) const BOARD_SIZES: [u8; 3] = [9, 13, 19];

/// One incomplete game to be played to completion by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameSpec {
    /// Board side length (9, 13 or 19).
    pub board_size: u8,
    /// Seed for the prefix move sequence.
    pub seed: u64,
    /// Number of prefix half-moves replayed before the engine takes over.
    pub prefix_moves: u32,
    /// Monte-Carlo playouts per engine move.
    pub playouts: u32,
    /// Maximum number of moves the engine plays to "finish" the game.
    pub moves_to_play: u32,
}

/// A leela workload: six incomplete games.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoWorkload {
    /// The games, played in order.
    pub games: Vec<GameSpec>,
}

/// Parameters of the Go workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GoGen {
    /// Games per workload (the paper uses six).
    pub games_per_workload: usize,
    /// Playouts per move.
    pub playouts: u32,
    /// How many moves the engine plays per game.
    pub moves_to_play: u32,
}

impl GoGen {
    /// Standard configuration scaled by `scale`.
    pub(crate) fn standard(scale: Scale) -> Self {
        GoGen {
            games_per_workload: 6,
            playouts: scale.apply(24) as u32,
            moves_to_play: 6 + scale.factor() as u32,
        }
    }

    /// Generates one workload. Board sizes and prefix lengths vary
    /// between games, like the archive games the paper sampled.
    ///
    /// # Panics
    ///
    /// Panics if `games_per_workload` is zero.
    pub(crate) fn generate(&self, seed: u64) -> GoWorkload {
        assert!(self.games_per_workload > 0);
        let mut rng = SeededRng::new(seed);
        let games = (0..self.games_per_workload)
            .map(|_| {
                let board_size = *rng.pick(&BOARD_SIZES);
                // Mid-game: fill roughly 15–50% of the board before culling.
                let points = board_size as u32 * board_size as u32;
                let prefix = rng.range((points / 6) as i64, (points / 2) as i64) as u32;
                GameSpec {
                    board_size,
                    seed: rng.next_u64(),
                    prefix_moves: prefix,
                    playouts: self.playouts,
                    moves_to_play: self.moves_to_play,
                }
            })
            .collect();
        GoWorkload { games }
    }
}

/// The nine Alberta workloads (paper: "nine additional workloads …
/// each of the new workloads contains exactly six Go positions").
pub fn alberta_set(scale: Scale) -> Vec<Named<GoWorkload>> {
    let gen = GoGen::standard(scale);
    (0..9)
        .map(|i| Named::new(format!("alberta.{i}"), gen.generate(0x60 + i)))
        .collect()
}

/// Canonical training workload: two small-board games.
pub fn train(scale: Scale) -> Named<GoWorkload> {
    let mut gen = GoGen::standard(scale);
    gen.games_per_workload = 2;
    gen.playouts /= 2;
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload.
pub fn refrate(scale: Scale) -> Named<GoWorkload> {
    let gen = GoGen::standard(scale);
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn games_use_supported_board_sizes() {
        let gen = GoGen::standard(Scale::Test);
        let w = gen.generate(1);
        assert_eq!(w.games.len(), 6);
        for g in &w.games {
            assert!(BOARD_SIZES.contains(&g.board_size));
            let points = g.board_size as u32 * g.board_size as u32;
            assert!(g.prefix_moves <= points / 2);
            assert!(g.prefix_moves >= points / 6);
        }
    }

    #[test]
    fn alberta_set_matches_paper_count() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 9);
        assert!(set.iter().all(|w| w.workload.games.len() == 6));
    }

    #[test]
    fn set_spans_multiple_board_sizes() {
        let set = alberta_set(Scale::Test);
        let mut sizes: Vec<u8> = set
            .iter()
            .flat_map(|w| w.workload.games.iter().map(|g| g.board_size))
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert!(sizes.len() >= 2, "workloads should vary board size");
    }

    #[test]
    fn determinism_and_distinctness() {
        let gen = GoGen::standard(Scale::Test);
        assert_eq!(gen.generate(3), gen.generate(3));
        assert_ne!(gen.generate(3), gen.generate(4));
    }

    #[test]
    fn scale_increases_playouts() {
        assert!(GoGen::standard(Scale::Ref).playouts > GoGen::standard(Scale::Test).playouts);
    }
}
