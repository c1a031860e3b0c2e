//! Workload generator for `505.mcf_r` — single-depot vehicle scheduling as
//! a minimum-cost-flow instance.
//!
//! The paper describes the most elaborate of the Alberta generators: it
//! builds "a map for a city with various levels of density and
//! connectivity", uses "a circadian cycle to schedule the number of buses
//! running throughout the day", and derives from it a single-depot vehicle
//! scheduling problem whose deadhead transitions the MCF benchmark
//! optimizes. This module follows the same pipeline:
//!
//! 1. place stops on a grid-with-jitter city map;
//! 2. draw timetabled trips whose per-hour frequency follows a circadian
//!    curve (morning and evening peaks);
//! 3. connect trips that a single vehicle can serve back-to-back
//!    (deadhead arcs, cost = travel distance + idle time);
//! 4. emit the classic min-cost-flow formulation: one node per trip plus a
//!    depot source/sink, fleet cost on depot arcs, deadhead cost on
//!    connection arcs.
//!
//! The resulting [`FlowInstance`] is guaranteed feasible: every trip can
//! always be served by a fresh vehicle straight from the depot (the
//! failure mode the paper says their "initial effort" ran into is thereby
//! excluded by construction).

use crate::{Named, Scale, SeededRng};

/// One directed arc of a min-cost-flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Tail node index.
    pub from: u32,
    /// Head node index.
    pub to: u32,
    /// Arc capacity (upper bound on flow).
    pub capacity: i64,
    /// Per-unit flow cost.
    pub cost: i64,
}

/// A minimum-cost-flow instance in node/arc form with per-node supplies.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowInstance {
    /// Number of nodes; node indices are `0..node_count`.
    pub node_count: u32,
    /// Supply (positive) or demand (negative) of each node; sums to zero.
    pub supplies: Vec<i64>,
    /// The arcs.
    pub arcs: Vec<Arc>,
}

impl FlowInstance {
    /// Checks structural invariants: balanced supplies, in-range arc
    /// endpoints, non-negative capacities.
    pub fn validate(&self) -> Result<(), String> {
        if self.supplies.len() != self.node_count as usize {
            return Err(format!(
                "supply vector length {} != node count {}",
                self.supplies.len(),
                self.node_count
            ));
        }
        let balance: i64 = self.supplies.iter().sum();
        if balance != 0 {
            return Err(format!("supplies sum to {balance}, expected 0"));
        }
        for (i, arc) in self.arcs.iter().enumerate() {
            if arc.from >= self.node_count || arc.to >= self.node_count {
                return Err(format!("arc {i} endpoint out of range"));
            }
            if arc.capacity < 0 {
                return Err(format!("arc {i} has negative capacity"));
            }
        }
        Ok(())
    }

    /// Fault-injection hook: deterministically disconnects the network by
    /// deleting every arc touching one seeded-picked demand node, leaving
    /// its demand unservable. The instance still passes [`validate`]'s
    /// structural checks (balanced supplies, in-range endpoints) but is
    /// infeasible, which is exactly the class of degenerate input a
    /// production workload service must survive.
    ///
    /// No-op (returns `false`) when the instance has no demand node.
    ///
    /// [`validate`]: FlowInstance::validate
    pub fn disconnect(&mut self, seed: u64) -> bool {
        let demand_nodes: Vec<u32> = (0..self.node_count)
            .filter(|&i| self.supplies[i as usize] < 0)
            .collect();
        if demand_nodes.is_empty() {
            return false;
        }
        let victim = demand_nodes[(seed % demand_nodes.len() as u64) as usize];
        self.arcs
            .retain(|arc| arc.from != victim && arc.to != victim);
        true
    }
}

/// A timetabled trip on the generated city map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    /// Departure stop index.
    pub from_stop: u32,
    /// Arrival stop index.
    pub to_stop: u32,
    /// Departure time in minutes from midnight.
    pub depart_min: u32,
    /// Arrival time in minutes from midnight.
    pub arrive_min: u32,
}

/// The vehicle-scheduling problem before conversion to min-cost flow;
/// exposed so tests and examples can inspect the generator's city model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleProblem {
    /// Stop coordinates on the city map (arbitrary distance units).
    pub stops: Vec<(f64, f64)>,
    /// The trips to be covered, sorted by departure time.
    pub trips: Vec<Trip>,
    /// Cost of dispatching one vehicle from the depot.
    pub fleet_cost: i64,
}

/// Parameters of the city/schedule generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowGen {
    /// Number of stops on the map.
    pub stops: usize,
    /// Number of timetabled trips per day.
    pub trips: usize,
    /// Map side length in distance units (≈ minutes of deadhead travel).
    pub city_size: f64,
    /// Maximum idle minutes a vehicle waits between two linked trips.
    pub max_layover_min: u32,
    /// Relative strength of the circadian rush-hour peaks in `[0, 1]`.
    pub peakiness: f64,
    /// Cost of putting one more vehicle on the road.
    pub fleet_cost: i64,
}

impl FlowGen {
    /// The generator configuration used for the standard Alberta set.
    pub fn standard(scale: Scale) -> Self {
        FlowGen {
            stops: 12 + 2 * scale.factor(),
            trips: scale.apply(60),
            city_size: 40.0,
            max_layover_min: 45,
            peakiness: 0.7,
            fleet_cost: 5_000,
        }
    }

    /// Relative trip frequency for a given hour of day: a double-peaked
    /// circadian curve (maxima near 08:00 and 17:30, trough overnight).
    pub(crate) fn circadian_weight(&self, hour: f64) -> f64 {
        let peak = |center: f64, width: f64| {
            let d = (hour - center) / width;
            (-d * d).exp()
        };
        let base = 0.15;
        base + self.peakiness * (peak(8.0, 2.0) + peak(17.5, 2.5))
    }

    /// Generates the intermediate vehicle-scheduling problem.
    ///
    /// # Panics
    ///
    /// Panics if `stops < 2` or `trips == 0`.
    pub fn generate_schedule(&self, seed: u64) -> ScheduleProblem {
        assert!(self.stops >= 2, "need at least two stops");
        assert!(self.trips > 0, "need at least one trip");
        let mut rng = SeededRng::new(seed);

        // Grid-with-jitter city map: roughly uniform coverage with local
        // irregularity, like real street networks.
        let side = (self.stops as f64).sqrt().ceil() as usize;
        let cell = self.city_size / side as f64;
        let mut stops = Vec::with_capacity(self.stops);
        for i in 0..self.stops {
            let gx = (i % side) as f64;
            let gy = (i / side) as f64;
            stops.push((
                (gx + rng.float(0.15, 0.85)) * cell,
                (gy + rng.float(0.15, 0.85)) * cell,
            ));
        }

        // Sample departure hours from the circadian distribution by
        // rejection over the 04:00–26:00 service window.
        let mut trips = Vec::with_capacity(self.trips);
        let max_w = self.circadian_weight(8.0).max(self.circadian_weight(17.5));
        while trips.len() < self.trips {
            let hour = rng.float(4.0, 26.0);
            let wrapped = if hour >= 24.0 { hour - 24.0 } else { hour };
            if rng.unit() * max_w > self.circadian_weight(wrapped) {
                continue;
            }
            let from_stop = rng.below(self.stops as u64) as u32;
            let mut to_stop = rng.below(self.stops as u64) as u32;
            if to_stop == from_stop {
                to_stop = (to_stop + 1) % self.stops as u32;
            }
            let depart_min = (hour * 60.0) as u32;
            let travel = distance(stops[from_stop as usize], stops[to_stop as usize]);
            // Route service is slower than deadhead driving.
            let duration = (travel * 1.6) as u32 + rng.below(15) as u32 + 5;
            trips.push(Trip {
                from_stop,
                to_stop,
                depart_min,
                arrive_min: depart_min + duration,
            });
        }
        trips.sort_by_key(|t| (t.depart_min, t.from_stop, t.to_stop));
        ScheduleProblem {
            stops,
            trips,
            fleet_cost: self.fleet_cost,
        }
    }

    /// Generates the min-cost-flow formulation of a scheduling problem.
    pub fn generate(&self, seed: u64) -> FlowInstance {
        let problem = self.generate_schedule(seed);
        problem_to_flow(&problem, self.max_layover_min)
    }
}

fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    // Manhattan distance: vehicles drive a street grid.
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// Converts a scheduling problem into the classic MCF formulation.
///
/// Nodes: `2t` trip nodes (out/in split per trip) plus depot source `2t`
/// and depot sink `2t + 1`. Each trip must receive exactly one vehicle:
/// modelled by supply 1 at its out-node and demand 1 at its in-node, with
/// deadhead/depot arcs carrying vehicles between them.
pub(crate) fn problem_to_flow(problem: &ScheduleProblem, max_layover_min: u32) -> FlowInstance {
    let t = problem.trips.len() as u32;
    let source = 2 * t;
    let sink = 2 * t + 1;
    let node_count = 2 * t + 2;
    let mut arcs = Vec::new();
    let mut supplies = vec![0i64; node_count as usize];

    for (i, trip) in problem.trips.iter().enumerate() {
        let i = i as u32;
        // Vehicle leaves trip i's end (out-node 2i) and must arrive at some
        // trip's start (in-node 2j+1) or the depot sink.
        supplies[(2 * i) as usize] = 1;
        supplies[(2 * i + 1) as usize] = -1;
        // Fresh vehicle from depot.
        arcs.push(Arc {
            from: source,
            to: 2 * i + 1,
            capacity: 1,
            cost: problem.fleet_cost,
        });
        // Vehicle retires to depot after the trip.
        arcs.push(Arc {
            from: 2 * i,
            to: sink,
            capacity: 1,
            cost: 0,
        });
        // Deadhead links to compatible later trips.
        for (j, next) in problem.trips.iter().enumerate().skip(i as usize + 1) {
            let deadhead = distance(
                problem.stops[trip.to_stop as usize],
                problem.stops[next.from_stop as usize],
            );
            let ready = trip.arrive_min + deadhead.ceil() as u32;
            if next.depart_min >= ready && next.depart_min - ready <= max_layover_min {
                let idle = next.depart_min - ready;
                arcs.push(Arc {
                    from: 2 * i,
                    to: 2 * j as u32 + 1,
                    capacity: 1,
                    cost: deadhead.ceil() as i64 * 10 + idle as i64,
                });
            }
        }
    }
    // Depot circulation arc so vehicle count balances.
    arcs.push(Arc {
        from: source,
        to: sink,
        capacity: t as i64,
        cost: 0,
    });
    supplies[source as usize] = t as i64;
    supplies[sink as usize] = -(t as i64);

    FlowInstance {
        node_count,
        supplies,
        arcs,
    }
}

/// The three automatically generated Alberta workloads plus, at the tail,
/// nothing else — mirroring the paper's "three new automatically generated
/// workloads" for mcf. The paper's Table II characterizes mcf over 7
/// workloads; our standard set therefore includes 7 seeds.
pub fn alberta_set(scale: Scale) -> Vec<Named<FlowInstance>> {
    let gen = FlowGen::standard(scale);
    (0..7)
        .map(|i| Named::new(format!("alberta.{i}"), gen.generate(0x4C0 + i)))
        .collect()
}

/// The canonical training workload (a mid-density weekday).
pub fn train(scale: Scale) -> Named<FlowInstance> {
    let mut gen = FlowGen::standard(scale);
    gen.trips /= 2;
    Named::new("train", gen.generate(0x7241))
}

/// The canonical reference workload (a dense weekday).
pub fn refrate(scale: Scale) -> Named<FlowInstance> {
    let mut gen = FlowGen::standard(scale);
    gen.trips = gen.trips * 3 / 2;
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instance_is_valid() {
        let gen = FlowGen::standard(Scale::Test);
        for seed in 0..5 {
            let inst = gen.generate(seed);
            inst.validate().expect("instance must validate");
            assert!(inst.node_count > 2);
            assert!(!inst.arcs.is_empty());
        }
    }

    #[test]
    fn every_trip_reachable_from_depot() {
        let gen = FlowGen::standard(Scale::Test);
        let inst = gen.generate(42);
        let t = (inst.node_count - 2) / 2;
        let source = 2 * t;
        for i in 0..t {
            assert!(
                inst.arcs
                    .iter()
                    .any(|a| a.from == source && a.to == 2 * i + 1),
                "trip {i} lacks a depot arc — instance could be infeasible"
            );
        }
    }

    #[test]
    fn deadhead_arcs_respect_time_feasibility() {
        let gen = FlowGen::standard(Scale::Test);
        let problem = gen.generate_schedule(7);
        let inst = problem_to_flow(&problem, gen.max_layover_min);
        let t = problem.trips.len() as u32;
        for arc in &inst.arcs {
            if arc.from < 2 * t && arc.to < 2 * t && arc.from % 2 == 0 && arc.to % 2 == 1 {
                let i = (arc.from / 2) as usize;
                let j = (arc.to / 2) as usize;
                assert!(
                    problem.trips[j].depart_min >= problem.trips[i].arrive_min,
                    "vehicle departs before it arrives"
                );
            }
        }
    }

    #[test]
    fn circadian_curve_has_rush_hour_peaks() {
        let gen = FlowGen::standard(Scale::Test);
        let morning = gen.circadian_weight(8.0);
        let night = gen.circadian_weight(2.0);
        let noon = gen.circadian_weight(12.5);
        assert!(morning > noon, "morning peak above midday");
        assert!(noon > night, "midday above the small hours");
    }

    #[test]
    fn circadian_shapes_departures() {
        let gen = FlowGen::standard(Scale::Train);
        let problem = gen.generate_schedule(9);
        let in_peak = problem
            .trips
            .iter()
            .filter(|t| {
                let h = t.depart_min as f64 / 60.0 % 24.0;
                (7.0..10.0).contains(&h) || (16.0..19.5).contains(&h)
            })
            .count();
        // 5.5 peak hours out of a 22-hour service window would be 25%
        // under a uniform distribution; the circadian bias must push well
        // past that.
        assert!(
            in_peak * 100 / problem.trips.len() > 35,
            "only {in_peak}/{} trips in peaks",
            problem.trips.len()
        );
    }

    #[test]
    fn determinism() {
        let gen = FlowGen::standard(Scale::Test);
        assert_eq!(gen.generate(5), gen.generate(5));
        assert_ne!(gen.generate(5), gen.generate(6));
    }

    #[test]
    fn alberta_set_has_seven_distinct_workloads() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 7);
        for w in &set {
            w.workload.validate().unwrap();
        }
        assert_ne!(set[0].workload, set[1].workload);
    }

    #[test]
    fn train_is_smaller_than_refrate() {
        let t = train(Scale::Test);
        let r = refrate(Scale::Test);
        assert!(t.workload.node_count < r.workload.node_count);
    }

    #[test]
    fn trips_sorted_by_departure() {
        let gen = FlowGen::standard(Scale::Test);
        let p = gen.generate_schedule(3);
        for w in p.trips.windows(2) {
            assert!(w[0].depart_min <= w[1].depart_min);
        }
    }
}
