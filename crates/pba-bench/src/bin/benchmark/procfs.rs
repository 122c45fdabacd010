//! What the kernel says about this process, read from `/proc/self`: CPU time
//! of all threads, the resident-set high-water mark, and context switches.
//! Off Linux (or with `/proc` unreadable) every reader returns `None` and the
//! metrics that depend on it are printed as unavailable, never guessed.

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. It is a fixed
/// part of the Linux ABI (100 on every mainstream architecture), which is
/// what lets this file avoid `sysconf` and with it a `libc` dependency.
const TICKS_PER_SECOND: u64 = 100;

/// `utime + stime` of the whole process (all threads, load generator
/// included) in nanoseconds. Resolution is one tick (10 ms).
pub fn cpu_time_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks * (1_000_000_000 / TICKS_PER_SECOND))
}

/// Peak resident set size (`VmHWM`) in KiB. The mark lasts as long as the
/// process, which is why `main` gives every pass a process of its own.
pub fn peak_rss_kib() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_status_field(&status, "VmHWM")
}

/// Voluntary plus involuntary context switches, summed over every live
/// thread (`/proc/self/status` alone would cover only the main thread, and
/// the thread of interest is the reactor's).
pub fn context_switches() -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        // A thread can exit between the listing and the read; skip it.
        let Ok(status) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        total += parse_status_field(&status, "voluntary_ctxt_switches")?
            + parse_status_field(&status, "nonvoluntary_ctxt_switches")?;
    }
    Some(total)
}

/// `utime + stime` in ticks from one `/proc/<pid>/stat` line. The command
/// name (field 2) may itself hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// The leading integer of the `key:` line of a `/proc/<pid>/status` text
/// (`VmHWM:     1234 kB` → 1234).
fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1300));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None, "truncated");
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tbenchmark\nVmPeak:\t  90000 kB\nVmHWM:\t   51234 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51234));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(5)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_readers_report_a_running_process() {
        let burn = std::time::Instant::now();
        let mut x = 0u64;
        while burn.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time_ns().expect("/proc/self/stat") > 0);
        assert!(peak_rss_kib().expect("VmHWM") > 0);
        assert!(context_switches().is_some());
    }
}
