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
//! at uneven rates and stealing actually happens. Dead hosts never
//! execute and are never stolen from: a task homed on a dead host is
//! reported unplaced, which the engine turns into a failed (but
//! complete — never hung) response, preserving the "n of m survivors"
//! degradation the resilient pipeline already uses.

use std::collections::{BTreeSet, VecDeque};

use alberta_core::json;

/// Where one task landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPlacement {
    /// The executing host, or `None` when the task's home host is dead.
    pub host: Option<usize>,
    /// True when a host other than the home host executed it.
    pub stolen: bool,
    /// Virtual tick the executing host started this task at (0 for
    /// unplaced tasks). With `end_ticks` this is the task's slot on the
    /// service timeline — deterministic, unlike wall-clock.
    pub start_ticks: u64,
    /// Virtual tick the task finishes at (`start + cost`; 0 when
    /// unplaced).
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
    /// One entry per host (dead hosts keep zeroed entries).
    pub per_host: Vec<HostLoad>,
    /// Total steals.
    pub steals: u64,
    /// Tasks left unplaced because their home host is dead.
    pub unplaced: u64,
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
/// with work stealing, excluding `dead` hosts entirely.
pub fn place(keys: &[String], hosts: usize, dead: &BTreeSet<usize>) -> Placement {
    assert!(hosts > 0, "a service needs at least one configured host");
    let live: Vec<usize> = (0..hosts).filter(|h| !dead.contains(h)).collect();
    let mut tasks = vec![
        TaskPlacement {
            host: None,
            stolen: false,
            start_ticks: 0,
            end_ticks: 0,
        };
        keys.len()
    ];
    let mut per_host = vec![HostLoad::default(); hosts];
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); hosts];
    let mut remaining = 0usize;
    for (i, key) in keys.iter().enumerate() {
        let home = home_host(key, hosts);
        if !dead.contains(&home) {
            queues[home].push_back(i);
            remaining += 1;
        }
    }
    let unplaced = (keys.len() - remaining) as u64;
    if live.is_empty() {
        return Placement {
            tasks,
            per_host,
            steals: 0,
            unplaced,
        };
    }

    let mut clock = vec![0u64; hosts];
    let mut steals = 0u64;
    while remaining > 0 {
        // The next host to go idle in virtual time; ties break toward
        // the lowest index so the schedule is total-ordered.
        let h = *live
            .iter()
            .min_by_key(|&&h| (clock[h], h))
            .expect("at least one live host");
        let (task, stolen) = match queues[h].pop_front() {
            Some(task) => (task, false),
            None => {
                // Steal from the tail of the most-loaded live queue.
                let donor = *live
                    .iter()
                    .max_by_key(|&&d| (queues[d].len(), usize::MAX - d))
                    .expect("at least one live host");
                match queues[donor].pop_back() {
                    Some(task) => {
                        steals += 1;
                        (task, true)
                    }
                    None => unreachable!("remaining > 0 implies a non-empty queue"),
                }
            }
        };
        let start_ticks = clock[h];
        clock[h] += task_cost(&keys[task]);
        tasks[task] = TaskPlacement {
            host: Some(h),
            stolen,
            start_ticks,
            end_ticks: clock[h],
        };
        per_host[h].tasks += 1;
        if stolen {
            per_host[h].stolen += 1;
        }
        remaining -= 1;
    }

    Placement {
        tasks,
        per_host,
        steals,
        unplaced,
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
        let dead = BTreeSet::new();
        let a = place(&keys, 4, &dead);
        let b = place(&keys, 4, &dead);
        assert_eq!(a, b, "same inputs, same placement");
        assert!(a.tasks.iter().all(|t| t.host.is_some()));
        assert_eq!(a.unplaced, 0);
        let total: u64 = a.per_host.iter().map(|h| h.tasks).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn uneven_costs_produce_steals() {
        let keys = keys(96);
        let placement = place(&keys, 4, &BTreeSet::new());
        assert!(
            placement.steals > 0,
            "synthetic costs must drain queues unevenly enough to steal"
        );
        let stolen: u64 = placement.per_host.iter().map(|h| h.stolen).sum();
        assert_eq!(stolen, placement.steals);
    }

    #[test]
    fn dead_hosts_neither_execute_nor_donate() {
        let keys = keys(64);
        let dead: BTreeSet<usize> = [1].into_iter().collect();
        let placement = place(&keys, 4, &dead);
        assert_eq!(placement.per_host[1], HostLoad::default());
        assert!(placement.unplaced > 0, "host 1 homed at least one key");
        for (i, t) in placement.tasks.iter().enumerate() {
            match t.host {
                Some(h) => assert_ne!(h, 1),
                None => assert_eq!(home_host(&keys[i], 4), 1),
            }
        }
    }

    #[test]
    fn virtual_ticks_tile_each_host_without_overlap() {
        let keys = keys(96);
        let placement = place(&keys, 4, &BTreeSet::new());
        for h in 0..4 {
            let mut slots: Vec<(u64, u64)> = placement
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.host == Some(h))
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

    #[test]
    fn all_dead_leaves_everything_unplaced() {
        let keys = keys(8);
        let dead: BTreeSet<usize> = (0..2).collect();
        let placement = place(&keys, 2, &dead);
        assert_eq!(placement.unplaced, 8);
        assert!(placement.tasks.iter().all(|t| t.host.is_none()));
    }
}
