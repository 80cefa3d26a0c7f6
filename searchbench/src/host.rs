//! Readings from `/proc`: CPU time stolen by the hypervisor, and this
//! process's peak resident set size.

/// `/proc/stat` counts in USER_HZ ticks, fixed at 100 per second by the
/// Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor has stolen from this machine's vCPUs since
/// boot (`steal` in `/proc/stat`), in seconds.
pub fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / TICKS_PER_S)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
