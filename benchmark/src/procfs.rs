//! What the kernel knows about this process: CPU time, page faults, peak
//! memory, voluntary context switches (one per park), and thread placement.
//! The parsers take text so they can be tested on canned `/proc` content.

use std::fs;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which is 100 on
/// every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    /// Voluntary context switches summed over the live threads.
    pub parks: u64,
}

impl ProcSample {
    /// Counters of this process now; zeros where `/proc` is unavailable.
    pub fn now() -> ProcSample {
        let mut s = fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|t| parse_stat(&t))
            .unwrap_or_default();
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            s.parks = tasks
                .flatten()
                .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
                .filter_map(|t| status_field(&t, "voluntary_ctxt_switches"))
                .sum();
        }
        s
    }

    /// Growth since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            // Threads that exited in between take their count with them.
            parks: self.parks.saturating_sub(earlier.parks),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn sys_share(&self) -> f64 {
        if self.cpu_s() > 0.0 {
            self.sys_s / self.cpu_s()
        } else {
            0.0
        }
    }
}

/// `minflt`, `utime` and `stime` of a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcSample> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcSample {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_SEC,
        sys_s: field(15)? as f64 / TICKS_PER_SEC,
        parks: 0,
    })
}

/// The leading integer of the `key:` line of a `/proc/<pid>/status` text
/// (`VmHWM:   1234 kB` gives 1234).
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| status_field(&t, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, at: *mut [i64; 2]) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// User + system CPU seconds of all threads of this process so far, at the
/// kernel's nanosecond resolution (`/proc/self/stat` counts 10 ms ticks,
/// too coarse for a slice of a trial); 0 where the clock is unavailable.
pub fn cpu_seconds() -> f64 {
    let mut at = [0i64; 2];
    // SAFETY: `at` is a live, writable `timespec` (two 64-bit words on every
    // 64-bit Linux ABI), which is all the call writes.
    if unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut at) } != 0 {
        return 0.0;
    }
    at[0] as f64 + at[1] as f64 * 1e-9
}

/// Words in the CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on, ascending; empty where the call fails.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus`. False where the kernel refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Restrict the calling thread, and the threads it starts from now on, to
/// one CPU (the last it is allowed, leaving the first to the harness).
/// Every trial runs like this: left free, a cluster's threads spread over
/// the virtual machine's CPUs and every wake crosses them, which costs more
/// than the program's own work and varies twofold from run to run. A no-op
/// where the kernel refuses.
pub fn pin_to_one_cpu() {
    if let Some(&cpu) = allowed_cpus().last() {
        pin_current_thread(&[cpu]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (oopp bench) x) S 1 4242 4242 0 -1 4194560 \
        1234 0 5 0 250 75 0 0 20 0 3 0 98765 12345678 900 18446744073709551615 \
        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\toopp-benchmark\nVmPeak:\t  204800 kB\n\
        VmHWM:\t   34816 kB\nThreads:\t3\nvoluntary_ctxt_switches:\t57012\n\
        nonvoluntary_ctxt_switches:\t14\n";

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(s.minor_faults, 1234);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.75);
        assert_eq!(s.sys_share(), 0.75 / 3.25);
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn status_fields_by_exact_key() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(34816));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(57012));
        assert_eq!(status_field(STATUS, "VmRSS"), None);
        // A key that is only a prefix of another line's key does not match it.
        assert_eq!(status_field(STATUS, "Vm"), None);
    }

    #[test]
    fn deltas_saturate_when_threads_exit() {
        let a = ProcSample {
            user_s: 1.0,
            sys_s: 0.5,
            minor_faults: 10,
            parks: 100,
        };
        let b = ProcSample {
            user_s: 1.5,
            sys_s: 1.5,
            minor_faults: 25,
            parks: 40,
        };
        let d = b.since(&a);
        assert_eq!((d.cpu_s(), d.minor_faults, d.parks), (1.5, 15, 0));
    }
}
