//! `520.omnetpp_r` stand-in: a discrete-event network simulator.
//!
//! The SPEC benchmark runs OMNeT++ simulating an Ethernet network. This
//! mini keeps the core of any discrete-event engine: a future-event set
//! (binary heap), per-node message queues, store-and-forward routing over
//! shortest paths, and jittered service times. The workload's topology
//! (line, ring, star, tree, random — the paper's seven shapes) decides
//! queueing behaviour and hop counts, which is exactly the variation the
//! Alberta workloads introduce.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::netsim::{self, NetWorkload};
use alberta_workloads::{Named, Scale};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const FES_REGION: u64 = 0xF000_0000;
const QUEUE_REGION: u64 = 0x1_0000_0000;
const ROUTE_REGION: u64 = 0x1_1000_0000;

/// One simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A message arrives at a node and must be queued or forwarded.
    Arrival {
        /// Message id.
        msg: u32,
        /// Node where it arrives.
        node: u32,
    },
    /// A node finishes transmitting and can start its next queued message.
    TxDone {
        /// The node whose transmitter frees up.
        node: u32,
    },
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SimStats {
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Total hops across all delivered messages.
    pub total_hops: u64,
    /// Total queueing + transmission latency in integer microseconds.
    pub total_latency_us: u64,
    /// Events processed (the engine's work metric).
    pub events: u64,
}

struct Fns {
    schedule: FnId,
    handle: FnId,
    route: FnId,
    enqueue: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        schedule: profiler.register_function("omnetpp::schedule_event", 900),
        handle: profiler.register_function("omnetpp::handle_event", 2000),
        route: profiler.register_function("omnetpp::route_lookup", 1200),
        enqueue: profiler.register_function("omnetpp::enqueue", 700),
    }
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E3779B97F4A7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// All-pairs next-hop table via BFS per destination (networks are small).
fn routing_table(w: &NetWorkload) -> Vec<Vec<u32>> {
    let n = w.nodes;
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in &w.links {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    // table[src][dst] = neighbour of src on a shortest path toward dst.
    let mut table = vec![vec![u32::MAX; n]; n];
    for dst in 0..n {
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[dst] = 0;
        queue.push_back(dst as u32);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    table[v as usize][dst] = u;
                    queue.push_back(v);
                }
            }
        }
    }
    table
}

/// Runs the simulation, reporting events to the profiler.
pub(crate) fn simulate(w: &NetWorkload, profiler: &mut Profiler) -> SimStats {
    let fns = register(profiler);
    let next_hop = routing_table(w);
    let n = w.nodes;

    #[derive(Clone, Copy)]
    struct Msg {
        dst: u32,
        born_us: u64,
        hops: u32,
    }

    let mut msgs: Vec<Msg> = Vec::new();
    // Future event set keyed by (time, seq) for determinism.
    let mut fes: BinaryHeap<Reverse<(u64, u64, EventKind)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = w.traffic_seed;

    fn push(
        fes: &mut BinaryHeap<Reverse<(u64, u64, EventKind)>>,
        profiler: &mut Profiler,
        fns: &Fns,
        time: u64,
        seq: &mut u64,
        kind: EventKind,
    ) {
        profiler.enter(fns.schedule);
        profiler.store(FES_REGION + (*seq % (1 << 18)) * 32);
        profiler.retire(4);
        fes.push(Reverse((time, *seq, kind)));
        *seq += 1;
        profiler.exit();
    }

    // Source traffic: jittered arrivals per node.
    for src in 0..n as u32 {
        let mut t = 0u64;
        for _ in 0..w.messages_per_node {
            t += 1 + splitmix(&mut rng) % (2 * w.mean_link_delay_us as u64 + 1);
            let mut dst = (splitmix(&mut rng) % n as u64) as u32;
            if dst == src {
                dst = (dst + 1) % n as u32;
            }
            let id = msgs.len() as u32;
            msgs.push(Msg {
                dst,
                born_us: t,
                hops: 0,
            });
            push(
                &mut fes,
                profiler,
                &fns,
                t,
                &mut seq,
                EventKind::Arrival { msg: id, node: src },
            );
        }
    }

    // Per-node output queues and busy flags.
    let mut queues: Vec<std::collections::VecDeque<u32>> = vec![Default::default(); n];
    let mut busy = vec![false; n];
    let mut stats = SimStats::default();

    while let Some(Reverse((now, _, kind))) = fes.pop() {
        profiler.enter(fns.handle);
        profiler.load(FES_REGION + (stats.events % (1 << 18)) * 32);
        profiler.retire(6);
        stats.events += 1;
        match kind {
            EventKind::Arrival { msg, node } => {
                let m = msgs[msg as usize];
                let at_destination = node == m.dst;
                profiler.branch(0, at_destination);
                if at_destination {
                    stats.delivered += 1;
                    stats.total_hops += m.hops as u64;
                    stats.total_latency_us += now - m.born_us;
                } else {
                    profiler.enter(fns.enqueue);
                    queues[node as usize].push_back(msg);
                    profiler.store(QUEUE_REGION + node as u64 * 4096);
                    profiler.exit();
                    let idle = !busy[node as usize];
                    profiler.branch(1, idle);
                    if idle {
                        busy[node as usize] = true;
                        push(
                            &mut fes,
                            profiler,
                            &fns,
                            now,
                            &mut seq,
                            EventKind::TxDone { node },
                        );
                    }
                }
            }
            EventKind::TxDone { node } => {
                let next = queues[node as usize].pop_front();
                profiler.branch(2, next.is_some());
                match next {
                    Some(msg) => {
                        let m = &mut msgs[msg as usize];
                        let dst = m.dst;
                        m.hops += 1;
                        profiler.enter(fns.route);
                        let hop = next_hop[node as usize][dst as usize];
                        profiler.load(ROUTE_REGION + (node as u64 * n as u64 + dst as u64) * 4);
                        profiler.retire(3);
                        profiler.exit();
                        let jitter = splitmix(&mut rng) % (w.mean_link_delay_us as u64 / 2 + 1);
                        let arrive = now + w.mean_link_delay_us as u64 + jitter;
                        push(
                            &mut fes,
                            profiler,
                            &fns,
                            arrive,
                            &mut seq,
                            EventKind::Arrival { msg, node: hop },
                        );
                        // The transmitter frees after the send time.
                        push(
                            &mut fes,
                            profiler,
                            &fns,
                            now + w.mean_link_delay_us as u64 / 2 + 1,
                            &mut seq,
                            EventKind::TxDone { node },
                        );
                    }
                    None => {
                        busy[node as usize] = false;
                    }
                }
            }
        }
        profiler.exit();
    }
    stats
}

/// The omnetpp mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniOmnetpp {
    workloads: Vec<Named<NetWorkload>>,
}

impl MiniOmnetpp {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniOmnetpp {
            workloads: standard_set(scale, netsim::train, netsim::refrate, netsim::alberta_set),
        }
    }
}

impl Benchmark for MiniOmnetpp {
    fn name(&self) -> &'static str {
        "520.omnetpp_r"
    }

    fn short_name(&self) -> &'static str {
        "omnetpp"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        if !w.is_connected() {
            return Err(BenchError::InvalidInput {
                benchmark: "520.omnetpp_r",
                reason: "network is not connected".to_owned(),
            });
        }
        let stats = simulate(w, profiler);
        Ok(RunOutput {
            checksum: fnv1a([stats.delivered, stats.total_hops, stats.total_latency_us]),
            work: stats.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::netsim::{NetGen, Topology};

    fn sim(topology: Topology) -> SimStats {
        let w = NetGen::standard(Scale::Test, topology).generate(3);
        let mut p = Profiler::default();
        let s = simulate(&w, &mut p);
        let _ = p.finish();
        s
    }

    #[test]
    fn all_messages_are_delivered() {
        for topo in [
            Topology::Line,
            Topology::Ring,
            Topology::Star,
            Topology::Tree,
            Topology::Random { edges: 18 },
        ] {
            let w = NetGen::standard(Scale::Test, topo).generate(1);
            let mut p = Profiler::default();
            let s = simulate(&w, &mut p);
            let _ = p.finish();
            let injected = (w.nodes as u32 * w.messages_per_node) as u64;
            assert_eq!(s.delivered, injected, "{topo:?} lost messages");
        }
    }

    #[test]
    fn star_has_shorter_paths_than_line() {
        let star = sim(Topology::Star);
        let line = sim(Topology::Line);
        let star_hops = star.total_hops as f64 / star.delivered as f64;
        let line_hops = line.total_hops as f64 / line.delivered as f64;
        assert!(
            star_hops < line_hops,
            "star {star_hops:.2} vs line {line_hops:.2}"
        );
    }

    #[test]
    fn routing_table_finds_shortest_paths_on_line() {
        let w = NetGen::standard(Scale::Test, Topology::Line).generate(2);
        let table = routing_table(&w);
        // On a line 0-1-2-…, next hop from 0 toward n-1 is 1.
        assert_eq!(table[0][w.nodes - 1], 1);
        assert_eq!(table[w.nodes - 1][0], (w.nodes - 2) as u32);
    }

    #[test]
    fn denser_traffic_processes_more_events() {
        let base = NetGen::standard(Scale::Test, Topology::Ring);
        let mut dense = base;
        dense.messages_per_node *= 4;
        let w1 = base.generate(5);
        let w2 = dense.generate(5);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let s1 = simulate(&w1, &mut p1);
        let s2 = simulate(&w2, &mut p2);
        let _ = (p1.finish(), p2.finish());
        assert!(s2.events > s1.events * 3);
    }

    #[test]
    fn latency_is_positive_and_accumulates() {
        let s = sim(Topology::Tree);
        assert!(s.total_latency_us > 0);
        assert!(s.total_hops >= s.delivered, "every delivery needs ≥1 hop");
    }

    #[test]
    fn benchmark_runs_and_is_deterministic() {
        let b = MiniOmnetpp::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let o1 = b.run("alberta.ring", &mut p1).unwrap();
        let o2 = b.run("alberta.ring", &mut p2).unwrap();
        assert_eq!(o1, o2);
        assert!(o1.work > 0);
        let cov = p1.finish().coverage_percent();
        assert!(cov["omnetpp::handle_event"] > 20.0, "{cov:?}");
    }
}
