//! `505.mcf_r` stand-in: a minimum-cost-flow solver on the generated
//! vehicle-scheduling instances.
//!
//! The SPEC benchmark wraps Löbel's network-simplex MCF code. This mini
//! implements the successive-shortest-path algorithm with Johnson
//! potentials — the same problem, the same memory behaviour class
//! (pointer-light adjacency walks over a large arc array with
//! data-dependent branches), and a checkable optimality certificate: a
//! flow is optimal iff the residual network has no negative-cost cycle,
//! which the tests verify with Bellman–Ford.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::flow::{self, FlowInstance};
use alberta_workloads::{Named, Scale};

/// Data-region bases for the profiler's address stream.
const ARC_REGION: u64 = 0x1000_0000;
const NODE_REGION: u64 = 0x2000_0000;
const HEAP_REGION: u64 = 0x3000_0000;

/// The mcf mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniMcf {
    workloads: Vec<Named<FlowInstance>>,
}

impl MiniMcf {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniMcf {
            workloads: standard_set(scale, flow::train, flow::refrate, flow::alberta_set),
        }
    }
}

impl Benchmark for MiniMcf {
    fn name(&self) -> &'static str {
        "505.mcf_r"
    }

    fn short_name(&self) -> &'static str {
        "mcf"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let instance = find_workload(&self.workloads, self.name(), workload)?;
        let solution =
            solve_min_cost_flow(instance, profiler).map_err(|reason| BenchError::InvalidInput {
                benchmark: "505.mcf_r",
                reason,
            })?;
        Ok(RunOutput {
            checksum: fnv1a([solution.cost as u64, solution.flows.len() as u64]),
            work: solution.augmentations,
        })
    }

    fn inject_malformed(&mut self, workload: &str, seed: u64) -> bool {
        self.workloads
            .iter_mut()
            .find(|n| n.name == workload)
            .map(|n| n.workload.disconnect(seed))
            .unwrap_or(false)
    }
}

/// A solved flow: per-arc flow values and the total cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSolution {
    /// Flow on each input arc, parallel to `FlowInstance::arcs`.
    pub flows: Vec<i64>,
    /// Total cost.
    pub cost: i64,
    /// Number of augmenting-path iterations (work proxy).
    pub augmentations: u64,
}

struct Residual {
    // Forward + backward arc pairs; arc 2k is input arc k, arc 2k+1 its
    // reverse.
    to: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    head: Vec<Vec<u32>>, // adjacency: node -> arc ids
}

struct Fns {
    solve: FnId,
    dijkstra: FnId,
    augment: FnId,
    build: FnId,
    potentials: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        // Root scope: all phases nest under it, so call paths read
        // `mcf::solve;mcf::shortest_path` in flamegraphs. It retires no
        // work itself (attribution follows the innermost frame).
        solve: profiler.register_function("mcf::solve", 400),
        build: profiler.register_function("mcf::build_network", 900),
        dijkstra: profiler.register_function("mcf::shortest_path", 2200),
        augment: profiler.register_function("mcf::augment", 700),
        potentials: profiler.register_function("mcf::refresh_potential", 600),
    }
}

/// Solves the instance by successive shortest paths, reporting events to
/// the profiler.
///
/// # Errors
///
/// Returns a message if the instance is structurally invalid or
/// infeasible.
pub fn solve_min_cost_flow(
    instance: &FlowInstance,
    profiler: &mut Profiler,
) -> Result<FlowSolution, String> {
    instance.validate()?;
    let fns = register(profiler);
    let n = instance.node_count as usize;
    // Super source (n) and super sink (n+1) absorb per-node supplies.
    let total_nodes = n + 2;
    let source = n as u32;
    let sink = n as u32 + 1;

    profiler.enter(fns.solve);
    profiler.enter(fns.build);
    let mut res = Residual {
        to: Vec::new(),
        cap: Vec::new(),
        cost: Vec::new(),
        head: vec![Vec::new(); total_nodes],
    };
    let add_arc = |res: &mut Residual, from: u32, to: u32, cap: i64, cost: i64| {
        let id = res.to.len() as u32;
        res.head[from as usize].push(id);
        res.to.push(to);
        res.cap.push(cap);
        res.cost.push(cost);
        res.head[to as usize].push(id + 1);
        res.to.push(from);
        res.cap.push(0);
        res.cost.push(-cost);
    };
    for arc in &instance.arcs {
        add_arc(&mut res, arc.from, arc.to, arc.capacity, arc.cost);
        profiler.store(ARC_REGION + res.to.len() as u64 * 8);
        profiler.retire(4);
    }
    let mut total_supply = 0i64;
    for (i, &s) in instance.supplies.iter().enumerate() {
        if s > 0 {
            add_arc(&mut res, source, i as u32, s, 0);
            total_supply += s;
        } else if s < 0 {
            add_arc(&mut res, i as u32, sink, -s, 0);
        }
        profiler.load(NODE_REGION + i as u64 * 8);
    }
    profiler.exit();

    // Johnson potentials start at zero: all reduced costs are the original
    // costs, which are non-negative in our instances; Bellman–Ford would
    // initialize them otherwise. Potentials are refreshed after every
    // augmentation.
    let mut potential = vec![0i64; total_nodes];
    let mut flows_sent = 0i64;
    let mut total_cost = 0i64;
    let mut augmentations = 0u64;

    while flows_sent < total_supply {
        // Dijkstra with reduced costs.
        profiler.enter(fns.dijkstra);
        const INF: i64 = i64::MAX / 4;
        let mut dist = vec![INF; total_nodes];
        let mut prev_arc = vec![u32::MAX; total_nodes];
        let mut heap = std::collections::BinaryHeap::new();
        dist[source as usize] = 0;
        heap.push(std::cmp::Reverse((0i64, source)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            profiler.load(HEAP_REGION + u as u64 * 16);
            if profiler_branch_stale(profiler, d, dist[u as usize]) {
                continue;
            }
            for &arc in &res.head[u as usize] {
                let arc = arc as usize;
                profiler.load(ARC_REGION + arc as u64 * 24);
                let has_cap = res.cap[arc] > 0;
                profiler.branch(1, has_cap);
                if !has_cap {
                    continue;
                }
                let v = res.to[arc] as usize;
                let rc = res.cost[arc] + potential[u as usize] - potential[v];
                let nd = d + rc;
                let better = nd < dist[v];
                profiler.branch(2, better);
                profiler.retire(3);
                if better {
                    dist[v] = nd;
                    prev_arc[v] = arc as u32;
                    profiler.store(NODE_REGION + v as u64 * 16);
                    heap.push(std::cmp::Reverse((nd, v as u32)));
                }
            }
        }
        profiler.exit();

        if dist[sink as usize] == INF {
            profiler.exit(); // leave mcf::solve balanced on the error path
            return Err("instance is infeasible: no augmenting path".to_owned());
        }

        profiler.enter(fns.potentials);
        for (i, d) in dist.iter().enumerate() {
            if *d < INF {
                potential[i] += d;
            }
            profiler.store(NODE_REGION + i as u64 * 8 + 0x8000);
            profiler.retire(1);
        }
        profiler.exit();

        profiler.enter(fns.augment);
        // Find bottleneck, then push.
        let mut bottleneck = i64::MAX;
        let mut v = sink as usize;
        while v != source as usize {
            let arc = prev_arc[v] as usize;
            bottleneck = bottleneck.min(res.cap[arc]);
            profiler.load(ARC_REGION + arc as u64 * 24);
            v = res.to[arc ^ 1] as usize;
        }
        let mut v = sink as usize;
        while v != source as usize {
            let arc = prev_arc[v] as usize;
            res.cap[arc] -= bottleneck;
            res.cap[arc ^ 1] += bottleneck;
            total_cost += res.cost[arc] * bottleneck;
            profiler.store(ARC_REGION + arc as u64 * 24);
            profiler.retire(4);
            v = res.to[arc ^ 1] as usize;
        }
        flows_sent += bottleneck;
        augmentations += 1;
        profiler.exit();
    }
    profiler.exit();

    // Recover per-input-arc flow: reverse-arc capacity equals flow pushed.
    let flows = (0..instance.arcs.len())
        .map(|k| res.cap[2 * k + 1])
        .collect();
    Ok(FlowSolution {
        flows,
        cost: total_cost,
        augmentations,
    })
}

/// Branch helper for the "stale heap entry" check so the site id stays in
/// one place.
fn profiler_branch_stale(profiler: &mut Profiler, d: i64, best: i64) -> bool {
    let stale = d > best;
    profiler.branch(0, stale);
    stale
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::flow::{Arc, FlowGen};

    fn tiny_instance() -> FlowInstance {
        // source 0 → {1, 2} → sink 3; cheap path through 1 limited.
        FlowInstance {
            node_count: 4,
            supplies: vec![2, 0, 0, -2],
            arcs: vec![
                Arc {
                    from: 0,
                    to: 1,
                    capacity: 1,
                    cost: 1,
                },
                Arc {
                    from: 0,
                    to: 2,
                    capacity: 2,
                    cost: 3,
                },
                Arc {
                    from: 1,
                    to: 3,
                    capacity: 2,
                    cost: 1,
                },
                Arc {
                    from: 2,
                    to: 3,
                    capacity: 2,
                    cost: 1,
                },
            ],
        }
    }

    fn solve(instance: &FlowInstance) -> FlowSolution {
        let mut p = Profiler::default();
        let s = solve_min_cost_flow(instance, &mut p).unwrap();
        let _ = p.finish();
        s
    }

    #[test]
    fn tiny_instance_hand_checked_optimum() {
        let s = solve(&tiny_instance());
        // One unit via 0→1→3 (cost 2), one via 0→2→3 (cost 4): total 6.
        assert_eq!(s.cost, 6);
        assert_eq!(s.flows, vec![1, 1, 1, 1]);
    }

    /// Optimality certificate: the residual graph of an optimal flow
    /// contains no negative-cost cycle (Bellman–Ford over all residual
    /// arcs).
    fn assert_optimal(instance: &FlowInstance, solution: &FlowSolution) {
        let n = instance.node_count as usize;
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for (k, arc) in instance.arcs.iter().enumerate() {
            let f = solution.flows[k];
            assert!(f >= 0 && f <= arc.capacity, "capacity violated");
            if f < arc.capacity {
                edges.push((arc.from as usize, arc.to as usize, arc.cost));
            }
            if f > 0 {
                edges.push((arc.to as usize, arc.from as usize, -arc.cost));
            }
        }
        let mut dist = vec![0i64; n];
        for _ in 0..n {
            for &(u, v, c) in &edges {
                if dist[u] + c < dist[v] {
                    dist[v] = dist[u] + c;
                }
            }
        }
        for &(u, v, c) in &edges {
            assert!(
                dist[u] + c >= dist[v],
                "negative residual cycle: flow is not optimal"
            );
        }
    }

    /// Flow conservation at every node.
    fn assert_feasible(instance: &FlowInstance, solution: &FlowSolution) {
        let mut balance = vec![0i64; instance.node_count as usize];
        for (k, arc) in instance.arcs.iter().enumerate() {
            balance[arc.from as usize] -= solution.flows[k];
            balance[arc.to as usize] += solution.flows[k];
        }
        for (i, (&b, &s)) in balance.iter().zip(&instance.supplies).enumerate() {
            assert_eq!(b, -s, "conservation violated at node {i}");
        }
    }

    #[test]
    fn generated_instances_solve_to_certified_optimum() {
        let gen = FlowGen::standard(Scale::Test);
        for seed in 0..4 {
            let instance = gen.generate(seed);
            let s = solve(&instance);
            assert_feasible(&instance, &s);
            assert_optimal(&instance, &s);
            assert!(s.cost > 0);
        }
    }

    #[test]
    fn bigger_instances_cost_no_less_per_trip() {
        // More trips → at least as many augmentations.
        let mut small_gen = FlowGen::standard(Scale::Test);
        small_gen.trips = 20;
        let mut big_gen = FlowGen::standard(Scale::Test);
        big_gen.trips = 60;
        let s_small = solve(&small_gen.generate(1));
        let s_big = solve(&big_gen.generate(1));
        assert!(s_big.augmentations >= s_small.augmentations);
    }

    #[test]
    fn benchmark_trait_roundtrip() {
        let b = MiniMcf::new(Scale::Test);
        assert_eq!(b.short_name(), "mcf");
        let mut p = Profiler::default();
        let out = b.run("alberta.0", &mut p).unwrap();
        let profile = p.finish();
        assert!(out.work > 0);
        assert!(profile.totals.retired_ops > 0);
        assert!(profile.totals.branches > 0);
        let cov = profile.coverage_percent();
        assert!(
            cov["mcf::shortest_path"] > 10.0,
            "dijkstra must dominate: {cov:?}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let b = MiniMcf::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("refrate", &mut p1).unwrap();
        let o2 = b.run("refrate", &mut p2).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(p1.finish().totals, p2.finish().totals);
    }

    #[test]
    fn infeasible_instance_is_rejected() {
        // Demand with no incoming arcs.
        let instance = FlowInstance {
            node_count: 2,
            supplies: vec![1, -1],
            arcs: vec![],
        };
        let mut p = Profiler::default();
        let err = solve_min_cost_flow(&instance, &mut p).unwrap_err();
        assert!(err.contains("infeasible"));
    }
}
