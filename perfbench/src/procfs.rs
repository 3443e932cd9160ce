//! What the benchmark reads about its own process — CPU time and peak
//! resident set — and the call that pins it to one CPU.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t` of 1024 CPUs, as glibc defines it.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this process,
/// at nanosecond resolution (`/proc/self/stat` only has 10 ms ticks).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on now. Returns that CPU, or
/// `None` (leaving the affinity unchanged) when the calls fail.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a writable buffer of exactly `size` bytes, laid out
    // as the kernel's CPU bitmap; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let (word, bits) = set.bits.iter().enumerate().find(|(_, &b)| b != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a readable bitmap of `size` bytes naming one CPU
    // the thread was already allowed to use; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field_kb(&status, "VmHWM:").unwrap_or(0) * 1024
}

/// The value of a `Name:  123 kB`-style line of a `status` file.
fn status_field_kb(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_gives_peak_rss() {
        let status = "Name:\tvd-perfbench\nVmHWM:\t   10240 kB\nThreads:\t1\n";
        assert_eq!(status_field_kb(status, "VmHWM:"), Some(10240));
        assert_eq!(status_field_kb("Name:\tx\n", "VmHWM:"), None);
    }

    #[test]
    fn pinning_keeps_the_thread_on_a_cpu_it_could_use() {
        // A thread of its own, so the test runner's threads keep their
        // affinity.
        let cpu = std::thread::spawn(pin_to_one_cpu).join().expect("joins");
        assert!(cpu.is_some_and(|c| c < 1024));
    }

    #[test]
    fn live_process_figures_are_read() {
        let before = process_cpu();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_bytes() > 0);
    }
}
