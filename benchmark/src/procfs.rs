//! What the kernel says about the daemon: CPU time from
//! `/proc/<pid>/stat`, resident memory from `/proc/<pid>/status`.

use std::io;

/// `utime + stime` of a process, all threads, in clock ticks, from the
/// text of `/proc/<pid>/stat`. The second field (the command name) may
/// itself contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn bad(what: &str, pid: u32) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse /proc/{pid}/{what}"))
}

/// CPU seconds (user + system, all threads) the process has used.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_cpu_ticks(&text).ok_or_else(|| bad("stat", pid))?;
    Ok(ticks as f64 / ticks_per_second())
}

/// `(VmHWM, VmRSS)` in kB: peak and current resident set.
pub fn rss_kb(pid: u32) -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let field = |name| parse_status_kb(&text, name).ok_or_else(|| bad("status", pid));
    Ok((field("VmHWM")?, field("VmRSS")?))
}

/// The unit of `utime`/`stime` (`sysconf(_SC_CLK_TCK)`, 100 on Linux).
fn ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer, touches no memory of ours and
    // is always safe to call; an unknown name returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (sk) ild (x) S 1 4242 4242 0 -1 4194304 731 0 0 0 \
                    1234 567 0 0 20 0 5 0 1000 123456 789 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_in_kb() {
        let status = "Name:\tskild\nVmPeak:\t  999 kB\nVmHWM:\t  376832 kB\nVmRSS:\t    5120 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(376832));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // `VmHWM` must not match a longer field name.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        let (hwm, rss) = rss_kb(pid).unwrap();
        assert!(hwm >= rss && rss > 0);
    }
}
