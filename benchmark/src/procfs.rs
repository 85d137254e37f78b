//! Process accounting read from `/proc/self`: CPU time and peak resident set.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100 for
/// every architecture it exports `/proc/<pid>/stat` on.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)`: `utime` and `stime` are fields 14 and 15 of the line.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "/proc/self/stat: unexpected format".to_string())
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status).ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_read_after_a_hostile_comm() {
        let stat = "4242 (bvc bench) x) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 19 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(7.5));
    }

    #[test]
    fn malformed_stat_is_none_not_a_panic() {
        assert_eq!(parse_cpu_seconds("no parenthesis at all"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 1 1 0 -1 0 0 0 0 0 a b"), None);
    }

    #[test]
    fn peak_rss_is_vmhwm_in_mib() {
        let status = "Name:\tbvc\nVmPeak:\t  999999 kB\nVmHWM:\t  367616 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(359.0));
        assert_eq!(parse_peak_rss_mb("Name:\tbvc\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn this_process_has_used_cpu_and_memory() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
