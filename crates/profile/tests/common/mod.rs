//! Hook programs shared by the profiler's property tests.

use proptest::prelude::TestRng;

const MAX_DEPTH: usize = 12;

/// One step of a generated profiling program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Enter(usize),
    Exit,
    Retire(u64),
    Noise,
}

/// Generates a balanced random program over `nfuncs` functions. The
/// trailing exits close every scope the walk left open, so the program
/// is always valid for `Profiler::finish`.
pub fn arb_program(rng: &mut TestRng, nfuncs: usize) -> Vec<Action> {
    let steps = 1 + rng.below(200) as usize;
    let mut program = Vec::with_capacity(steps + MAX_DEPTH);
    let mut depth = 0usize;
    for _ in 0..steps {
        match rng.below(5) {
            0 | 1 if depth < MAX_DEPTH => {
                program.push(Action::Enter(rng.below(nfuncs as u64) as usize));
                depth += 1;
            }
            2 if depth > 0 => {
                program.push(Action::Exit);
                depth -= 1;
            }
            3 => program.push(Action::Retire(rng.below(100))),
            _ => program.push(Action::Noise),
        }
    }
    program.extend(std::iter::repeat_n(Action::Exit, depth));
    program
}
