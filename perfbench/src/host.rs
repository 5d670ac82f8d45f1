//! CPU affinity of the calling thread (Linux `sched_{get,set}affinity`).
//!
//! A workload whose load is one thread of work runs on one CPU at a time.
//! On a virtual machine, handing work to a thread on another vCPU waits for
//! the host to wake that vCPU; on a 2-vCPU VM this made back-to-back
//! unpinned `serve_mixed` runs differ 3x. Each vCPU's speed also drifts on
//! its own, by up to 1.6x over tens of seconds on that VM, so the timed
//! passes move from CPU to CPU in slices.

use std::mem::size_of;

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU set.
pub fn get() -> Result<CpuSet, String> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set.0` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.0.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(set)
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `set`.
pub fn set(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set.0` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.0.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

impl CpuSet {
    /// Each CPU of this set, alone, in ascending order.
    pub fn singles(&self) -> Vec<CpuSet> {
        let mut out = Vec::new();
        for (word, bits) in self.0.iter().enumerate() {
            for bit in 0..64 {
                if bits & (1 << bit) != 0 {
                    let mut one = CpuSet([0; 16]);
                    one.0[word] = 1 << bit;
                    out.push(one);
                }
            }
        }
        out
    }
}
