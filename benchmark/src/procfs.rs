//! `/proc` readers: peak resident set, per-thread on-CPU time and
//! voluntary context switches. Parsing is separate from reading so the
//! parsers are tested on fixture strings.

use std::fs::File;
use std::os::unix::fs::FileExt;

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status_field(status, "VmHWM:")
}

/// `voluntary_ctxt_switches` from the text of a `status` file.
pub fn parse_voluntary_switches(status: &str) -> Option<u64> {
    status_field(status, "voluntary_ctxt_switches:")
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// On-CPU nanoseconds: the first field of a `schedstat` file.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// The process's peak resident set in MB, or 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Voluntary context switches of the calling thread so far.
pub fn thread_voluntary_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| parse_voluntary_switches(&s))
        .unwrap_or(0)
}

/// The calling thread's `schedstat`, opened once so a reading is a
/// single `pread`. `/proc/thread-self` resolves when the file is opened,
/// so the handle must be created on the thread it measures.
pub struct ThreadCpuClock {
    file: Option<File>,
}

impl ThreadCpuClock {
    /// Open the calling thread's `schedstat`.
    pub fn for_this_thread() -> Self {
        ThreadCpuClock {
            file: File::open("/proc/thread-self/schedstat").ok(),
        }
    }

    /// On-CPU nanoseconds of the thread so far (0 where unavailable).
    pub fn now_ns(&self) -> u64 {
        let mut buf = [0u8; 96];
        self.file
            .as_ref()
            .and_then(|f| f.read_at(&mut buf, 0).ok())
            .and_then(|n| std::str::from_utf8(&buf[..n]).ok())
            .and_then(parse_schedstat_ns)
            .unwrap_or(0)
    }
}

/// One-minute load average, for the context line.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "?".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tccoll-benchmark\nUmask:\t0022\nVmPeak:\t  412340 kB\n\
        VmHWM:\t  131072 kB\nVmRSS:\t   90000 kB\nThreads:\t3\n\
        voluntary_ctxt_switches:\t4321\nnonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn vm_hwm_from_a_status_file() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(131_072));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn voluntary_switches_not_the_nonvoluntary_line() {
        assert_eq!(parse_voluntary_switches(STATUS), Some(4321));
        assert_eq!(
            parse_voluntary_switches("nonvoluntary_ctxt_switches:\t17\n"),
            None
        );
    }

    #[test]
    fn schedstat_first_field() {
        assert_eq!(
            parse_schedstat_ns("8412345678 120045 3312\n"),
            Some(8_412_345_678)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn live_readers_do_not_fail_on_this_kernel() {
        assert!(peak_rss_mb() >= 0.0);
        let clock = ThreadCpuClock::for_this_thread();
        let a = clock.now_ns();
        assert!(clock.now_ns() >= a);
    }
}
