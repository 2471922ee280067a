//! What the benchmark asks of the host: process CPU time, memory and thread
//! count, one CPU to run on, and a fixed integer kernel that shows when the
//! host is slow.

use std::time::Instant;

/// Threads of this process, from `/proc/self/stat`.
pub fn threads() -> u64 {
    let line = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_threads(&line).expect("parse /proc/self/stat")
}

/// `num_threads` of one `/proc/<pid>/stat` line. The command name (field
/// 2) is in parentheses and may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_threads(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); num_threads is field 20.
    rest.split_ascii_whitespace().nth(20 - 3)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Times a fixed integer kernel (xorshift over 2^24 steps, nothing the
/// system under test could speed up) and returns nanoseconds. Run before
/// and after a workload: when the two differ, the host changed speed
/// under the measurement.
pub fn calibrate_ns() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of this process, all threads, exited ones
/// included, to the nanosecond. (`/proc/self/stat` counts the same time in
/// 10 ms ticks: too coarse for a slice of a low-rate window.)
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

// The C library's clock and affinity calls; `std` links it already.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to one CPU. Returns whether the kernel accepted.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let line = "4242 (lc bench) x) S 1 4242 4242 0 -1 4194304 1500 0 3 0 \
                    731 209 0 0 20 0 17 0 123456 1000000 250 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_threads(line), Some(17));
        assert_eq!(parse_threads("no parenthesis here"), None);
        assert_eq!(parse_threads("1 (short) S 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_s();
        std::hint::black_box(calibrate_ns());
        assert!(process_cpu_s() > before, "the kernel above burnt CPU time");
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        assert!(pin_to(cpus[0]));
        assert_eq!(allowed_cpus(), vec![cpus[0]]);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tlcbench\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
