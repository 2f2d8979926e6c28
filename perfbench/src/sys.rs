//! Process resource usage and CPU clocks, read with `getrusage(2)` and
//! `clock_gettime(2)` from the C library the standard library already
//! links (the workspace vendors no `libc` crate), and peak memory from
//! `/proc/self/status`. Linux only: the `struct rusage` layout below is
//! Linux's.

use std::os::raw::{c_int, c_long};

#[cfg(not(target_os = "linux"))]
compile_error!("doqlab-perfbench reads Linux's getrusage and clock_gettime layouts");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux's `struct rusage`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Resource counters of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub involuntary_switches: u64,
}

impl Usage {
    /// What the counters added since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            involuntary_switches: self.involuntary_switches - earlier.involuntary_switches,
        }
    }
}

/// This process's resource counters now.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with Linux's
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.ru_utime),
        sys_s: secs(&ru.ru_stime),
        minor_faults: ru.ru_minflt as u64,
        involuntary_switches: ru.ru_nivcsw as u64,
    }
}

/// Peak resident set size of this process's own address space, KiB
/// (`VmHWM`). `getrusage`'s `ru_maxrss` would not do: across `fork` and
/// `exec` it keeps the parent's peak, so under `cargo run` it reads
/// cargo's memory whenever that is the larger.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux has /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec`, and `clock` is
    // one of the CPU-time clocks Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Burn `ns` of the calling thread's CPU time: the calibration work.
pub fn spin_cpu(ns: u64) {
    let until = thread_cpu_ns() + ns;
    while thread_cpu_ns() < until {
        std::hint::spin_loop();
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinning_burns_the_cpu_time_asked_for() {
        let before = process_cpu_ns();
        spin_cpu(5_000_000);
        let spent = process_cpu_ns() - before;
        assert!(spent >= 5_000_000, "spent {spent} ns");
        let now = usage();
        assert!(now.user_s + now.sys_s > 0.0 && peak_rss_kib() > 0);
    }
}
