//! Deterministic work-stealing placement over mock hosts.
//!
//! Real work stealing is racy by construction: whichever worker's queue
//! empties first steals, and that depends on wall-clock timing. This
//! scheduler keeps the *policy* — idle hosts steal from the tail of the
//! most-loaded queue — but replaces wall-clock with virtual time, so
//! the placement (and therefore the per-host task counts and the steal
//! counter the CI gate pins) is a pure function of the task set and the
//! host roster.
//!
//! Each task is homed on `hash(key) % hosts` and charged a synthetic
//! cost derived from the same hash (1–8 virtual ticks), so queues drain
//! at uneven rates and stealing actually happens. The hosts are threads
//! of the daemon's own process and cannot go down, so every task is
//! placed.

use std::collections::VecDeque;

use alberta_core::json;

/// Where one task landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPlacement {
    /// The executing host.
    pub host: usize,
    /// True when a host other than the home host executed it.
    pub stolen: bool,
    /// Virtual tick the executing host started this task at. With
    /// `end_ticks` this is the task's slot on the service timeline —
    /// deterministic, unlike wall-clock.
    pub start_ticks: u64,
    /// Virtual tick the task finishes at (`start + cost`).
    pub end_ticks: u64,
}

/// Per-host placement totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostLoad {
    /// Tasks the host executed.
    pub tasks: u64,
    /// Of those, tasks stolen from another host's queue.
    pub stolen: u64,
}

/// A complete placement: one entry per input key, plus the totals the
/// service reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Parallel to the input keys.
    pub tasks: Vec<TaskPlacement>,
    /// One entry per host.
    pub per_host: Vec<HostLoad>,
    /// Total steals.
    pub steals: u64,
}

/// The stable hash a key's home host and synthetic cost derive from.
fn key_hash(key: &str) -> u64 {
    let fp = json::fingerprint(key.as_bytes());
    u64::from_str_radix(&fp[..16], 16).expect("fingerprint is hex")
}

/// A task's home host.
pub fn home_host(key: &str, hosts: usize) -> usize {
    (key_hash(key) % hosts as u64) as usize
}

/// The synthetic virtual-time cost of executing a task (1–8 ticks).
pub(crate) fn task_cost(key: &str) -> u64 {
    1 + (key_hash(key) >> 17) % 8
}

/// Places `keys` (already in canonical order) onto `hosts` mock hosts
/// with work stealing.
pub fn place(keys: &[String], hosts: usize) -> Placement {
    assert!(hosts > 0, "a service needs at least one configured host");
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); hosts];
    for (i, key) in keys.iter().enumerate() {
        queues[home_host(key, hosts)].push_back(i);
    }
    // Each slot is overwritten once, when its task is placed.
    let mut tasks = vec![
        TaskPlacement {
            host: 0,
            stolen: false,
            start_ticks: 0,
            end_ticks: 0,
        };
        keys.len()
    ];
    let mut per_host = vec![HostLoad::default(); hosts];
    let mut clock = vec![0u64; hosts];
    let mut steals = 0u64;
    for _ in 0..keys.len() {
        // The next host to go idle in virtual time; ties break toward
        // the lowest index so the schedule is total-ordered.
        let h = (0..hosts)
            .min_by_key(|&h| (clock[h], h))
            .expect("at least one host");
        let (task, stolen) = match queues[h].pop_front() {
            Some(task) => (task, false),
            None => {
                // Steal from the tail of the most-loaded queue.
                let donor = (0..hosts)
                    .max_by_key(|&d| (queues[d].len(), usize::MAX - d))
                    .expect("at least one host");
                let task = queues[donor]
                    .pop_back()
                    .expect("a task not yet placed is still queued");
                steals += 1;
                (task, true)
            }
        };
        let start_ticks = clock[h];
        clock[h] += task_cost(&keys[task]);
        tasks[task] = TaskPlacement {
            host: h,
            stolen,
            start_ticks,
            end_ticks: clock[h],
        };
        per_host[h].tasks += 1;
        if stolen {
            per_host[h].stolen += 1;
        }
    }

    Placement {
        tasks,
        per_host,
        steals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("key-{i:04}")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_complete() {
        let keys = keys(64);
        let a = place(&keys, 4);
        let b = place(&keys, 4);
        assert_eq!(a, b, "same inputs, same placement");
        assert!(a.tasks.iter().all(|t| t.host < 4));
        let total: u64 = a.per_host.iter().map(|h| h.tasks).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn uneven_costs_produce_steals() {
        let keys = keys(96);
        let placement = place(&keys, 4);
        assert!(
            placement.steals > 0,
            "synthetic costs must drain queues unevenly enough to steal"
        );
        let stolen: u64 = placement.per_host.iter().map(|h| h.stolen).sum();
        assert_eq!(stolen, placement.steals);
    }

    #[test]
    fn virtual_ticks_tile_each_host_without_overlap() {
        let keys = keys(96);
        let placement = place(&keys, 4);
        for h in 0..4 {
            let mut slots: Vec<(u64, u64)> = placement
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.host == h)
                .map(|(i, t)| {
                    assert_eq!(t.end_ticks - t.start_ticks, task_cost(&keys[i]));
                    (t.start_ticks, t.end_ticks)
                })
                .collect();
            slots.sort_unstable();
            for pair in slots.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "slots on one host must not overlap");
            }
        }
    }
}
