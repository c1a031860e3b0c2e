//! Resource figures read from `/proc`: peak resident memory, CPU time
//! (own and reaped children), host steal time, load average, and the
//! CPUs the process may run on.
//!
//! The parsers take the file text so they can be tested on fixtures;
//! the readers around them return `None` where `/proc` is unavailable.

use crate::affinity::MAX_CPUS;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of the CPU-time fields in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 on every Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// document, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// The CPUs in the `Cpus_allowed_list` line of a `/proc/<pid>/status`
/// document: comma-separated ids and inclusive ranges. Empty when the
/// line is missing or malformed, or names a CPU beyond [`MAX_CPUS`].
pub fn parse_allowed_cpus(status: &str) -> Vec<usize> {
    let Some(list) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for item in list.trim().split(',') {
        let (first, last) = item.split_once('-').unwrap_or((item, item));
        match (first.parse::<usize>(), last.parse::<usize>()) {
            (Ok(first), Ok(last)) if first <= last && last < MAX_CPUS => {
                cpus.extend(first..=last);
            }
            _ => return Vec::new(),
        }
    }
    cpus
}

/// The fields of `/proc/<pid>/stat` this benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// User-mode CPU ticks of the process itself.
    pub utime: u64,
    /// Kernel-mode CPU ticks of the process itself.
    pub stime: u64,
    /// User-mode CPU ticks of reaped children.
    pub cutime: u64,
    /// Kernel-mode CPU ticks of reaped children.
    pub cstime: u64,
}

impl ProcStat {
    /// CPU seconds of the process itself.
    pub fn own_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_SECOND
    }

    /// CPU seconds of the process's reaped children.
    pub fn children_s(&self) -> f64 {
        (self.cutime + self.cstime) as f64 / TICKS_PER_SECOND
    }
}

/// Parses `/proc/<pid>/stat`. The command name sits in parentheses and
/// may itself hold spaces or parentheses, so fields are counted from the
/// last `)`.
pub fn parse_proc_stat(stat: &str) -> Option<ProcStat> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so field N is N - 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

/// Aggregate host CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Ticks the hypervisor ran something else while this guest wanted
    /// the CPU.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Guest time is
/// already counted inside user time, so it is left out of the total.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| HostCpu {
        total: ticks.iter().sum(),
        steal: ticks[7],
    })
}

/// The one-minute load average from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

/// Peak resident set of this process, in KiB.
pub fn self_vm_hwm_kb() -> Option<u64> {
    parse_vm_hwm_kb(&read("/proc/self/status")?)
}

/// The CPUs this process may run on; empty where `/proc` cannot say.
pub fn allowed_cpus() -> Vec<usize> {
    read("/proc/self/status").map_or_else(Vec::new, |status| parse_allowed_cpus(&status))
}

/// CPU accounting of this process.
pub fn self_stat() -> Option<ProcStat> {
    parse_proc_stat(&read("/proc/self/stat")?)
}

/// Host-wide CPU ticks.
pub fn host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&read("/proc/stat")?)
}

/// The one-minute load average.
pub fn loadavg() -> Option<f64> {
    parse_loadavg(&read("/proc/loadavg")?)
}

/// The pids in a `/proc/<pid>/task/<tid>/children` document.
pub fn parse_children(text: &str) -> Vec<u32> {
    text.split_whitespace()
        .filter_map(|p| p.parse().ok())
        .collect()
}

/// The largest `VmHWM` among this process's live children, in KiB. Each
/// thread lists the children it forked in its own `children` file.
fn children_vm_hwm_kb() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("children")).ok())
        .flat_map(|text| parse_children(&text))
        .filter_map(|child| parse_vm_hwm_kb(&read(&format!("/proc/{child}/status"))?))
        .max()
        .unwrap_or(0)
}

/// Polls the peak resident set of this process's child processes (the
/// process pool's workers) until stopped. A child's `VmHWM` vanishes
/// with it, so the watcher keeps the largest value it saw.
pub struct ChildRssWatcher {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<Mutex<u64>>,
    handle: JoinHandle<()>,
}

impl ChildRssWatcher {
    /// Starts polling every `period`.
    pub fn start(period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(Mutex::new(0));
        let handle = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let kb = children_vm_hwm_kb();
                    let mut peak = peak_kb.lock().expect("watcher state poisoned");
                    *peak = (*peak).max(kb);
                    drop(peak);
                    std::thread::sleep(period);
                }
            })
        };
        ChildRssWatcher {
            stop,
            peak_kb,
            handle,
        }
    }

    /// Stops polling, joins the thread and returns the peak in KiB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("child RSS watcher panicked");
        let peak = *self.peak_kb.lock().expect("watcher state poisoned");
        peak
    }
}

/// Host and process state at the start of a run, to be differenced at
/// its end.
pub struct RunProbe {
    host: Option<HostCpu>,
    proc: Option<ProcStat>,
}

impl RunProbe {
    /// Records the starting state.
    pub fn start() -> Self {
        RunProbe {
            host: host_cpu(),
            proc: self_stat(),
        }
    }

    /// The diagnostics over the run so far: host steal share, load
    /// average, and CPU seconds of this process and its reaped children.
    /// Call after every worker pool has shut down, or the children's CPU
    /// time is not yet accounted.
    pub fn diagnostics(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        if let (Some(before), Some(after)) = (self.host, host_cpu()) {
            let total = after.total.saturating_sub(before.total);
            let steal = after.steal.saturating_sub(before.steal);
            let share = if total == 0 {
                0.0
            } else {
                100.0 * steal as f64 / total as f64
            };
            out.push((
                "host_steal".to_owned(),
                format!("{share:.2}% ({steal} of {total} ticks)"),
            ));
        }
        if let Some(load) = loadavg() {
            out.push(("host_loadavg_1m".to_owned(), format!("{load:.2}")));
        }
        if let (Some(before), Some(after)) = (self.proc, self_stat()) {
            out.push((
                "cpu_self_s".to_owned(),
                format!("{:.2}", after.own_s() - before.own_s()),
            ));
            out.push((
                "cpu_children_s".to_owned(),
                format!("{:.2}", after.children_s() - before.children_s()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  350112 kB\nVmSize:\t  350112 kB\nVmHWM:\t  181236 kB\n\
        VmRSS:\t  175004 kB\nThreads:\t3\nCpus_allowed:\t3\n\
        Cpus_allowed_list:\t0-1\n";

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(181_236));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn allowed_cpus_expand_ranges_and_reject_garbage() {
        assert_eq!(parse_allowed_cpus(STATUS), vec![0, 1]);
        assert_eq!(
            parse_allowed_cpus("Cpus_allowed_list:\t2,5-7\n"),
            vec![2, 5, 6, 7]
        );
        assert!(parse_allowed_cpus("Cpus_allowed_list:\t3-1\n").is_empty());
        assert!(parse_allowed_cpus("Cpus_allowed_list:\t0-4096\n").is_empty());
        assert!(parse_allowed_cpus("Cpus_allowed_list:\t0,x\n").is_empty());
        assert!(parse_allowed_cpus("Name:\tx\n").is_empty());
    }

    #[test]
    fn proc_stat_counts_fields_after_the_command_name() {
        // A command name holding spaces and a parenthesis must not shift
        // the fields.
        let stat = "4242 (perf (bench) x) S 4200 4242 4200 0 -1 4194304 1500 0 0 0 \
                    731 42 17 5 20 0 3 0 123456 350112000 45000 18446744073709551615";
        let parsed = parse_proc_stat(stat).expect("well-formed stat line");
        assert_eq!(
            parsed,
            ProcStat {
                utime: 731,
                stime: 42,
                cutime: 17,
                cstime: 5,
            }
        );
        assert!((parsed.own_s() - 7.73).abs() < 1e-9);
        assert!((parsed.children_s() - 0.22).abs() < 1e-9);
        assert_eq!(parse_proc_stat("4242 (x) S 1 2"), None);
        assert_eq!(parse_proc_stat("no parenthesis"), None);
    }

    #[test]
    fn host_cpu_sums_the_first_eight_columns() {
        let stat = "cpu  82984 0 1964 209103 180 0 89 149 7 0\n\
                    cpu0 41000 0 900 104000 90 0 40 70 0 0\nintr 1 2 3\n";
        let cpu = parse_host_cpu(stat).expect("aggregate cpu line");
        assert_eq!(cpu.total, 82984 + 1964 + 209103 + 180 + 89 + 149);
        assert_eq!(cpu.steal, 149);
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_cpu("intr 1 2 3\n"), None);
    }

    #[test]
    fn children_lists_pids() {
        assert_eq!(parse_children("5321 5322 \n"), vec![5321, 5322]);
        assert!(parse_children("").is_empty());
    }

    #[test]
    fn loadavg_reads_the_one_minute_figure() {
        assert_eq!(parse_loadavg("0.54 0.58 0.48 1/84 3335\n"), Some(0.54));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(self_vm_hwm_kb().is_some_and(|kb| kb > 0));
        assert!(self_stat().is_some());
        assert!(!allowed_cpus().is_empty());
    }
}
