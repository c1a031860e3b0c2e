//! Property tests for the call-tree aggregator: random nested scope
//! programs, checked against an independent shadow model.
//!
//! The invariants the observability layer leans on:
//!
//! * the sealed root's inclusive work equals the total *attributed*
//!   work — work retired outside any scope stays out of the tree,
//!   exactly as it stays out of the flat `fn_work` vector;
//! * summing path-exclusive work by leaf function reproduces the flat
//!   per-function profile — the tree is a refinement of `fn_work`, not
//!   a second opinion;
//! * the collapsed-stack rendering is a pure function of the program:
//!   replaying the same action sequence yields byte-identical
//!   `.folded` output.

mod common;

use alberta_profile::{FnId, Profiler};
use common::{arb_program, Action};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What the shadow model expects of one distinct call path.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Expected {
    calls: u64,
    exclusive: u64,
}

/// Replays `program` through a fresh profiler while accumulating the
/// shadow model: flat per-function work, total attributed work, and a
/// path-keyed map equivalent to the call tree.
fn replay(
    program: &[Action],
    nfuncs: usize,
) -> (
    alberta_profile::Profile,
    Vec<u64>,
    BTreeMap<String, Expected>,
) {
    let mut p = Profiler::default();
    let fns: Vec<FnId> = (0..nfuncs)
        .map(|i| p.register_function(&format!("f{i}"), 64 + i as u32))
        .collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut flat = vec![0u64; nfuncs];
    let mut paths: BTreeMap<String, Expected> = BTreeMap::new();
    let path_key = |stack: &[usize]| -> String {
        stack
            .iter()
            .map(|&i| format!("f{i}"))
            .collect::<Vec<_>>()
            .join(";")
    };
    for (step, action) in program.iter().enumerate() {
        match *action {
            Action::Enter(i) => {
                p.enter(fns[i]);
                stack.push(i);
                paths.entry(path_key(&stack)).or_default().calls += 1;
            }
            Action::Exit => {
                p.exit();
                stack.pop();
            }
            Action::Retire(n) => {
                p.retire(n);
                if let Some(&innermost) = stack.last() {
                    flat[innermost] += n;
                    paths.get_mut(&path_key(&stack)).expect("entered").exclusive += n;
                }
            }
            Action::Noise => {
                p.branch(step as u32 % 7, step % 3 == 0);
                p.load(0x1000 + step as u64 * 64);
                p.store(0x9000 + step as u64 * 64);
                // Each of branch/load/store retires one micro-op.
                if let Some(&innermost) = stack.last() {
                    flat[innermost] += 3;
                    paths.get_mut(&path_key(&stack)).expect("entered").exclusive += 3;
                }
            }
        }
    }
    (p.finish(), flat, paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sealed root's inclusive work is exactly the total attributed
    /// work, and the tree's exclusive total agrees with the flat
    /// profile.
    #[test]
    fn root_inclusive_equals_total_attributed_work(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let nfuncs = 1 + rng.below(6) as usize;
        let program = arb_program(&mut rng, nfuncs);
        let (profile, flat, _) = replay(&program, nfuncs);
        profile.validate().expect("profile invariants hold");
        let attributed: u64 = flat.iter().sum();
        prop_assert_eq!(profile.calltree.root().inclusive, attributed);
        prop_assert_eq!(profile.calltree.total_exclusive(), attributed);
        prop_assert_eq!(profile.fn_work, flat);
    }

    /// Summing path-exclusive work by leaf function reproduces the flat
    /// per-function work vector, and the path table matches the shadow
    /// model path for path.
    #[test]
    fn path_exclusive_sums_to_flat_fn_work(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let nfuncs = 1 + rng.below(6) as usize;
        let program = arb_program(&mut rng, nfuncs);
        let (profile, flat, shadow) = replay(&program, nfuncs);
        let table = profile.path_table();

        let mut by_leaf = vec![0u64; nfuncs];
        for row in table.rows() {
            let leaf = row.path.rsplit(';').next().expect("non-empty path");
            let index: usize = leaf[1..].parse().expect("f<index> name");
            by_leaf[index] += row.exclusive;
        }
        prop_assert_eq!(by_leaf, flat);

        for row in table.rows() {
            let expected = shadow.get(&row.path).expect("path observed by shadow model");
            prop_assert_eq!(row.calls, expected.calls, "calls of {}", &row.path);
            prop_assert_eq!(row.exclusive, expected.exclusive, "exclusive of {}", &row.path);
        }
        prop_assert_eq!(table.rows().len(), shadow.len());
    }

    /// Replaying the identical program yields a byte-identical collapsed
    /// rendering, hot paths are sorted by descending exclusive work, and
    /// folded lines agree with the shadow model.
    #[test]
    fn folded_rendering_is_deterministic_and_sorted(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let nfuncs = 1 + rng.below(6) as usize;
        let program = arb_program(&mut rng, nfuncs);
        let (first, _, shadow) = replay(&program, nfuncs);
        let (second, _, _) = replay(&program, nfuncs);
        let folded = first.path_table().folded();
        prop_assert_eq!(&folded, &second.path_table().folded());

        // Lines are sorted, and each is a shadow-model path with
        // non-zero exclusive work.
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&lines, &sorted);
        for line in lines {
            let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
            let expected = shadow.get(path).expect("folded path observed");
            prop_assert!(expected.exclusive > 0, "zero-work paths are skipped");
            prop_assert_eq!(count.parse::<u64>().expect("count"), expected.exclusive);
        }

        let table = first.path_table();
        let hot = table.hot_paths(3);
        prop_assert!(hot.len() <= 3);
        for pair in hot.windows(2) {
            prop_assert!(pair[0].exclusive >= pair[1].exclusive);
        }
        for row in &hot {
            prop_assert!(row.exclusive > 0, "hot paths never include zero-work paths");
        }
    }
}
