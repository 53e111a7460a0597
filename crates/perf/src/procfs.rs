//! Process and host accounting read from `/proc`: CPU seconds of this
//! process, its peak resident set, host steal time, and the filesystem
//! a path lives on. Parsing is split from reading so it can be tested
//! on fixed text.

use std::path::Path;

/// Kernel clock ticks per second in `/proc/*/stat`. Linux has exported
/// `USER_HZ = 100` on every architecture since 2.6; reading it properly
/// needs `sysconf`, which std does not expose.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set in KiB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(steal, total)` ticks summed over all CPUs from the text of
/// `/proc/stat`.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount_point = left.split_whitespace().nth(4)?;
        let fs_type = right.split_whitespace().next()?;
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map(|b| b.1)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_secs(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Host `(steal, total)` ticks right now; `(0, 0)` off Linux.
pub fn host_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_steal(&s))
        .unwrap_or((0, 0))
}

/// Percent of host CPU time stolen between two [`host_steal`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Filesystem type under `path` (`"unknown"` when `/proc` cannot say).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|s| parse_fs_type(&s, &path))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // utime = 1234 ticks, stime = 66 ticks -> 13.0 s.
        let stat = "4242 (flaml) perf) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu_secs(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_secs("no parens here"), None);
        assert_eq!(parse_stat_cpu_secs("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tflaml-perf\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n";
        assert_eq!(parse_host_steal(stat), Some((35, 1000)));
        assert_eq!(steal_pct((35, 1000), (45, 1200)), 5.0);
        assert_eq!(steal_pct((35, 1000), (35, 1000)), 0.0);
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let mountinfo = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:25 / /dev/shm rw,nosuid - tmpfs tmpfs rw
31 22 0:26 / /dev rw - devtmpfs devtmpfs rw
";
        let fs = |p: &str| parse_fs_type(mountinfo, Path::new(p));
        assert_eq!(fs("/dev/shm/state").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/null").as_deref(), Some("devtmpfs"));
    }
}
