//! Deterministic call-tree aggregation.
//!
//! `gprof`'s real output is a *call graph*, not a flat histogram: the
//! question Section V-C's methodology actually asks is "which *path*
//! got hot under workload X". The flat `fn_work` vector cannot answer
//! it, so the [`Profiler`](crate::Profiler) additionally folds its
//! `enter`/`exit`/`retire` stream into a [`CallTree`] — one node per
//! distinct call *path* (the sequence of instrumented functions on the
//! stack), with exact exclusive/inclusive work and call counts.
//!
//! Unlike the sampled [`EventTrace`](crate::EventTrace), the tree is
//! exact and unaffected by sampling intervals, so it is bit-identical
//! across repetitions like the rest of the profiler's counters. The
//! name-resolved [`PathTable`] view supports hot-path extraction
//! (top-k paths by exclusive work) and collapsed-stack emission in the
//! standard `caller;callee count` format consumed by flamegraph
//! tooling.

use crate::profiler::FnId;
use std::fmt::Write as _;

/// Index of the synthetic root node of every [`CallTree`].
pub const ROOT: u32 = 0;

/// Sentinel for "no node" in the intrusive sibling links.
const NONE: u32 = u32::MAX;

/// One node of a [`CallTree`]: a distinct call path, identified by the
/// function it ends in and the node of the path one frame shorter.
///
/// Nodes live in one arena (`CallTree::nodes`) and link their children
/// intrusively (`first_child`/`next_sibling` indices) instead of each
/// carrying a `Vec<u32>`: a tree of N paths is exactly one allocation,
/// and `descend` on the hot enter path touches only the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallNode {
    /// The function this path ends in; `None` only for the root.
    pub func: Option<FnId>,
    /// Parent node index ([`ROOT`]'s parent is itself).
    pub parent: u32,
    /// First child in first-call order (`u32::MAX` when childless).
    first_child: u32,
    /// Last child in first-call order (`u32::MAX` when childless);
    /// kept so appending a new child is O(1).
    last_child: u32,
    /// Next sibling in the parent's first-call order (`u32::MAX` at
    /// the end of the sibling chain).
    next_sibling: u32,
    /// Times this exact path was entered.
    pub calls: u64,
    /// Work retired while this path was the innermost open scope.
    pub exclusive: u64,
    /// Work retired on this path or any extension of it. Computed by
    /// `CallTree::seal`; zero until then.
    pub inclusive: u64,
}

impl CallNode {
    fn fresh(func: Option<FnId>, parent: u32) -> Self {
        CallNode {
            func,
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            calls: 0,
            exclusive: 0,
            inclusive: 0,
        }
    }
}

/// A path-keyed aggregation of one run's call activity.
///
/// Built incrementally by the profiler (enter descends, exit ascends,
/// retire adds to the cursor's exclusive work) and sealed once at
/// [`Profiler::finish`](crate::Profiler::finish), when inclusive work
/// is propagated leaf-to-root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallTree {
    nodes: Vec<CallNode>,
    cursor: u32,
}

impl CallTree {
    /// Creates a tree holding only the root.
    pub fn new() -> Self {
        CallTree {
            nodes: vec![CallNode::fresh(None, ROOT)],
            cursor: ROOT,
        }
    }

    /// All nodes; index 0 is the root, children always follow their
    /// parent (nodes are created on first entry of their path).
    pub fn nodes(&self) -> &[CallNode] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> &CallNode {
        &self.nodes[ROOT as usize]
    }

    /// Number of distinct paths observed (excluding the root).
    pub fn path_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Child node indices of `node` in first-call order.
    pub fn children(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cursor = self.nodes[node as usize].first_child;
        std::iter::from_fn(move || {
            if cursor == NONE {
                return None;
            }
            let current = cursor;
            cursor = self.nodes[cursor as usize].next_sibling;
            Some(current)
        })
    }

    /// Descends into `func`: reuses the child path if this path was
    /// seen before, creates it otherwise. Called by the profiler on
    /// every `enter`.
    pub(crate) fn descend(&mut self, func: FnId) {
        let parent = self.cursor;
        let mut node = self.nodes[parent as usize].first_child;
        while node != NONE && self.nodes[node as usize].func != Some(func) {
            node = self.nodes[node as usize].next_sibling;
        }
        if node == NONE {
            node = u32::try_from(self.nodes.len()).expect("call tree exceeds u32 paths");
            self.nodes.push(CallNode::fresh(Some(func), parent));
            let tail = self.nodes[parent as usize].last_child;
            if tail == NONE {
                self.nodes[parent as usize].first_child = node;
            } else {
                self.nodes[tail as usize].next_sibling = node;
            }
            self.nodes[parent as usize].last_child = node;
        }
        self.nodes[node as usize].calls += 1;
        self.cursor = node;
    }

    /// Ascends to the parent path. Called by the profiler on every
    /// `exit`; enter/exit balance is enforced by the profiler's own
    /// scope stack, so the cursor cannot ascend past the root.
    pub(crate) fn ascend(&mut self) {
        self.cursor = self.nodes[self.cursor as usize].parent;
    }

    /// Adds exclusive work to the current path. No-op at the root: work
    /// retired outside any scope is unattributed, exactly as in the
    /// flat `fn_work` vector.
    pub(crate) fn retire(&mut self, n: u64) {
        if self.cursor != ROOT {
            self.nodes[self.cursor as usize].exclusive += n;
        }
    }

    /// Propagates inclusive work leaf-to-root. Children always have
    /// larger indices than their parents, so one reverse sweep
    /// suffices. After sealing, the root's inclusive work equals the
    /// total attributed work (the sum of the flat `fn_work` vector).
    pub(crate) fn seal(&mut self) {
        for index in (0..self.nodes.len()).rev() {
            let total = self.nodes[index].exclusive + self.nodes[index].inclusive;
            self.nodes[index].inclusive = total;
            if index != ROOT as usize {
                let parent = self.nodes[index].parent as usize;
                self.nodes[parent].inclusive += total;
            }
        }
    }

    /// Sum of exclusive work over all paths — must equal the sum of the
    /// flat per-function work vector (checked by
    /// [`Profile::validate`](crate::Profile::validate)).
    pub fn total_exclusive(&self) -> u64 {
        self.nodes.iter().map(|n| n.exclusive).sum()
    }

    /// Sum of per-path call counts — must equal the aggregate call
    /// total.
    pub fn total_calls(&self) -> u64 {
        self.nodes.iter().map(|n| n.calls).sum()
    }

    /// The function-id path from the root to `node` (root excluded).
    pub fn path_of(&self, node: u32) -> Vec<FnId> {
        let mut path = Vec::new();
        let mut cursor = node;
        while cursor != ROOT {
            let n = &self.nodes[cursor as usize];
            path.push(n.func.expect("non-root nodes carry a function"));
            cursor = n.parent;
        }
        path.reverse();
        path
    }

    /// Resolves the tree against a function-name table into a
    /// [`PathTable`] — the self-contained, name-keyed view the report
    /// and trace layers consume.
    ///
    /// Path keys are built incrementally: nodes are created on first
    /// entry of their path, so every parent precedes its children and
    /// one forward sweep can extend each parent's already-rendered key
    /// by one `;name` segment — O(total key bytes) rather than
    /// re-walking to the root per node.
    pub fn resolve(&self, names: &[impl AsRef<str>]) -> PathTable {
        let mut keys: Vec<String> = Vec::with_capacity(self.nodes.len());
        keys.push(String::new()); // the root is not a path
        let mut rows: Vec<PathRow> = self
            .nodes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(index, node)| {
                let name =
                    names[node.func.expect("non-root nodes carry a function").0 as usize].as_ref();
                let parent_key = &keys[node.parent as usize];
                let mut path = String::with_capacity(parent_key.len() + 1 + name.len());
                if !parent_key.is_empty() {
                    path.push_str(parent_key);
                    path.push(';');
                }
                path.push_str(name);
                keys.push(path.clone());
                debug_assert_eq!(keys.len(), index + 1);
                PathRow {
                    path,
                    calls: node.calls,
                    exclusive: node.exclusive,
                    inclusive: node.inclusive,
                }
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.path.cmp(&b.path));
        PathTable { rows }
    }
}

impl Default for CallTree {
    fn default() -> Self {
        CallTree::new()
    }
}

/// One row of a [`PathTable`]: a call path with its exact counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRow {
    /// The path, rendered as `caller;callee;…` (collapsed-stack
    /// notation, root first).
    pub path: String,
    /// Times this exact path was entered.
    pub calls: u64,
    /// Work retired with this path innermost.
    pub exclusive: u64,
    /// Work retired on this path or any extension of it.
    pub inclusive: u64,
}

/// A name-resolved, deterministically ordered (lexicographic by path)
/// view of a [`CallTree`], detached from the profile that produced it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathTable {
    rows: Vec<PathRow>,
}

impl PathTable {
    /// Rebuilds a table from externally supplied rows (e.g. decoded
    /// from a worker's pipe message), restoring the lexicographic
    /// order invariant.
    pub fn from_rows(mut rows: Vec<PathRow>) -> Self {
        rows.sort_unstable_by(|a, b| a.path.cmp(&b.path));
        PathTable { rows }
    }

    /// The rows, sorted lexicographically by path.
    pub fn rows(&self) -> &[PathRow] {
        &self.rows
    }

    /// Whether the run opened any scopes at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total exclusive work over all paths (equals the run's attributed
    /// work).
    pub fn total_exclusive(&self) -> u64 {
        self.rows.iter().map(|r| r.exclusive).sum()
    }

    /// The `k` hottest paths by exclusive work, hottest first; ties
    /// break lexicographically by path so the selection is
    /// deterministic. Paths with zero exclusive work never qualify.
    pub fn hot_paths(&self, k: usize) -> Vec<&PathRow> {
        let mut rows: Vec<&PathRow> = self.rows.iter().filter(|r| r.exclusive > 0).collect();
        rows.sort_by(|a, b| {
            b.exclusive
                .cmp(&a.exclusive)
                .then_with(|| a.path.cmp(&b.path))
        });
        rows.truncate(k);
        rows
    }

    /// Renders the collapsed-stack (`.folded`) form: one
    /// `caller;callee count` line per path with non-zero exclusive
    /// work, lexicographically ordered, newline-terminated — directly
    /// consumable by `inferno`/`flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for row in self.rows.iter().filter(|r| r.exclusive > 0) {
            let _ = writeln!(out, "{} {}", row.path, row.exclusive);
        }
        out
    }

    /// Merges another table into this one, summing counters of shared
    /// paths — used to aggregate one benchmark's workloads into a
    /// per-benchmark hot-path summary. Keeps the lexicographic order.
    pub fn merge(&mut self, other: &PathTable) {
        for row in &other.rows {
            match self.rows.binary_search_by(|r| r.path.cmp(&row.path)) {
                Ok(i) => {
                    self.rows[i].calls += row.calls;
                    self.rows[i].exclusive += row.exclusive;
                    self.rows[i].inclusive += row.inclusive;
                }
                Err(i) => self.rows.insert(i, row.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, SampleConfig};

    /// main → {kernel ×2, helper}, kernel → helper.
    fn sample_profile() -> crate::Profile {
        let mut p = Profiler::new(SampleConfig::default());
        let main_fn = p.register_function("main", 100);
        let kernel = p.register_function("kernel", 100);
        let helper = p.register_function("helper", 100);
        p.enter(main_fn);
        p.retire(5);
        for _ in 0..2 {
            p.enter(kernel);
            p.retire(10);
            p.enter(helper);
            p.retire(7);
            p.exit();
            p.exit();
        }
        p.enter(helper);
        p.retire(3);
        p.exit();
        p.exit();
        p.finish()
    }

    #[test]
    fn tree_keys_by_path_not_function() {
        let profile = sample_profile();
        let tree = &profile.calltree;
        // Paths: main, main;kernel, main;kernel;helper, main;helper.
        assert_eq!(tree.path_count(), 4);
        let table = profile.path_table();
        let paths: Vec<&str> = table.rows().iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["main", "main;helper", "main;kernel", "main;kernel;helper"]
        );
    }

    #[test]
    fn exclusive_and_inclusive_work_are_exact() {
        let profile = sample_profile();
        let table = profile.path_table();
        let row = |p: &str| {
            table
                .rows()
                .iter()
                .find(|r| r.path == p)
                .unwrap_or_else(|| panic!("path {p} missing"))
        };
        assert_eq!(row("main").exclusive, 5);
        assert_eq!(row("main").inclusive, 42);
        assert_eq!(row("main;kernel").exclusive, 20);
        assert_eq!(row("main;kernel").inclusive, 34);
        assert_eq!(row("main;kernel").calls, 2);
        assert_eq!(row("main;kernel;helper").exclusive, 14);
        assert_eq!(row("main;helper").exclusive, 3);
        assert_eq!(profile.calltree.root().inclusive, 42);
        assert_eq!(
            profile.calltree.total_exclusive(),
            profile.fn_work.iter().sum::<u64>()
        );
    }

    #[test]
    fn hot_paths_rank_by_exclusive_with_stable_ties() {
        let profile = sample_profile();
        let table = profile.path_table();
        let hot: Vec<&str> = table.hot_paths(2).iter().map(|r| r.path.as_str()).collect();
        assert_eq!(hot, vec!["main;kernel", "main;kernel;helper"]);
        assert_eq!(table.hot_paths(100).len(), 4, "all paths have work");
    }

    #[test]
    fn folded_output_is_flamegraph_collapsed_format() {
        let profile = sample_profile();
        let folded = profile.path_table().folded();
        assert_eq!(
            folded,
            "main 5\nmain;helper 3\nmain;kernel 20\nmain;kernel;helper 14\n"
        );
    }

    #[test]
    fn unattributed_work_stays_out_of_the_tree() {
        let mut p = Profiler::default();
        let f = p.register_function("f", 1);
        p.retire(100); // outside any scope
        p.enter(f);
        p.retire(1);
        p.exit();
        let profile = p.finish();
        assert_eq!(profile.calltree.root().inclusive, 1);
        assert_eq!(profile.calltree.total_exclusive(), 1);
        assert_eq!(profile.totals.retired_ops, 101);
    }

    #[test]
    fn merge_sums_shared_paths_and_keeps_order() {
        let a = sample_profile().path_table();
        let mut merged = a.clone();
        merged.merge(&a);
        assert_eq!(merged.rows().len(), a.rows().len());
        for (m, o) in merged.rows().iter().zip(a.rows()) {
            assert_eq!(m.path, o.path);
            assert_eq!(m.exclusive, o.exclusive * 2);
            assert_eq!(m.calls, o.calls * 2);
        }
        let mut partial = PathTable::default();
        partial.merge(&a);
        assert_eq!(partial, a);
    }

    #[test]
    fn empty_run_yields_empty_table() {
        let profile = Profiler::default().finish();
        assert_eq!(profile.calltree.path_count(), 0);
        let table = profile.path_table();
        assert!(table.is_empty());
        assert_eq!(table.folded(), "");
        assert!(table.hot_paths(5).is_empty());
    }

    #[test]
    fn children_iterate_in_first_call_order() {
        let profile = sample_profile();
        let tree = &profile.calltree;
        let roots: Vec<u32> = tree.children(ROOT).collect();
        assert_eq!(roots.len(), 1, "main is the only top-level path");
        let main = roots[0];
        let names: Vec<&str> = tree
            .children(main)
            .map(|c| {
                let id = tree.nodes()[c as usize].func.unwrap();
                ["main", "kernel", "helper"][id.0 as usize]
            })
            .collect();
        // kernel was entered before helper under main.
        assert_eq!(names, vec!["kernel", "helper"]);
        let leaf = tree.children(main).next().unwrap();
        assert_eq!(tree.children(leaf).count(), 1, "kernel;helper");
    }

    #[test]
    fn recursion_extends_the_path() {
        let mut p = Profiler::default();
        let f = p.register_function("fib", 64);
        p.enter(f);
        p.retire(1);
        p.enter(f);
        p.retire(1);
        p.enter(f);
        p.retire(1);
        p.exit();
        p.exit();
        p.exit();
        let profile = p.finish();
        let folded = profile.path_table().folded();
        assert_eq!(folded, "fib 1\nfib;fib 1\nfib;fib;fib 1\n");
        assert_eq!(profile.calltree.root().inclusive, 3);
    }
}
