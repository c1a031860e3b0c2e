//! Pinning serial timed passes to each CPU in turn.
//!
//! On the 2-vCPU guest the benchmark was tuned on, each vCPU runs at one
//! of several speeds for seconds to minutes at a time, independently of
//! the other, and a serial pass stays on the vCPU it starts on. Pass `n`
//! of a serial workload therefore runs pinned to the `n`-th CPU the
//! process may use, in rotation, and each part of a pass keeps its
//! fastest time over the passes (`Measured::wall_s`): a run reads the
//! faster vCPU, not whichever one the scheduler happened to leave it on.

use crate::procfs;

/// CPUs a C library `cpu_set_t` holds.
pub const MAX_CPUS: usize = 1024;

/// Restricts the calling thread to `cpus`, each below [`MAX_CPUS`];
/// false when the kernel refuses.
#[cfg(target_os = "linux")]
fn set_affinity(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MAX_CPUS / 64];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread, and `mask` is a live,
    // initialised array of exactly `size_of_val(&mask)` bytes, the size
    // of `cpu_set_t`, which the call only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpus: &[usize]) -> bool {
    false
}

/// Pins the calling thread to one allowed CPU per pass, in turn, and
/// gives it back every allowed CPU when dropped.
pub struct Rotation {
    cpus: Vec<usize>,
}

impl Rotation {
    /// A rotation over the CPUs this process may use. With fewer than
    /// two, or when `/proc` cannot say, it never pins.
    pub fn over_allowed_cpus() -> Rotation {
        Rotation {
            cpus: procfs::allowed_cpus(),
        }
    }

    /// Pins the calling thread to the CPU whose turn pass `pass` is.
    pub fn pin(&self, pass: usize) {
        if self.cpus.len() > 1 {
            let cpu = self.cpus[pass % self.cpus.len()];
            if !set_affinity(&[cpu]) {
                eprintln!("perfbench: cannot pin a pass to CPU {cpu}");
            }
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.cpus.len() > 1 && !set_affinity(&self.cpus) {
            eprintln!("perfbench: cannot restore the allowed CPUs");
        }
    }
}
