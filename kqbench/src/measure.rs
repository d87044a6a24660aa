//! Process-level measurements: wall time, CPU time and peak resident
//! memory of one measured region, read from procfs.

use std::io;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the kernel ABI).
const USER_HZ: f64 = 100.0;

const MIB: f64 = 1024.0 * 1024.0;

/// What one measured region cost.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds minus [`Sample::steal_s`]: the time the region
    /// would take if the hypervisor gave this machine its CPUs throughout.
    /// On a shared virtual machine the stolen time varies from minute to
    /// minute with other tenants' load and would otherwise dominate the
    /// run-to-run spread; on bare metal nothing is subtracted.
    pub wall_s: f64,
    /// Wall-clock seconds as measured.
    pub raw_wall_s: f64,
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Resident-memory high-water mark inside the region, in MiB.
    pub peak_rss_mib: f64,
    /// CPU time the hypervisor ran something else, averaged over CPUs.
    pub steal_s: f64,
}

/// User plus system CPU seconds this process has used, exited threads
/// included.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name is parenthesised and may contain spaces; fields are
    // counted from the closing parenthesis, which ends field 2.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| bad_data("no ')' in /proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad_data("short /proc/self/stat"))
    };
    Ok((tick(11)? + tick(12)?) as f64 / USER_HZ)
}

/// Seconds the hypervisor has stolen from this machine's CPUs, averaged
/// over the CPUs (`steal` in `/proc/stat`; zero on bare metal).
pub fn steal_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let mut cpus = 0usize;
    let mut total = None;
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("cpu") => total = fields.nth(7).and_then(|f| f.parse::<u64>().ok()),
            Some(name) if name.starts_with("cpu") => cpus += 1,
            _ => {}
        }
    }
    let total = total.ok_or_else(|| bad_data("no steal column in /proc/stat"))?;
    Ok(total as f64 / USER_HZ / cpus.max(1) as f64)
}

/// Resets this process's resident-memory high-water mark to its current
/// resident size, so the next [`peak_rss_bytes`] reports only what
/// happened after this call.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// This process's resident-memory high-water mark (`VmHWM`).
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| bad_data("no VmHWM in /proc/self/status"))?;
    Ok(kib * 1024)
}

/// Runs `f` as one measured region. The peak is reset first, so neither
/// input generation, the oracle, nor an earlier region sets this one's
/// peak.
pub fn measured<T>(f: impl FnOnce() -> T) -> io::Result<(T, Sample)> {
    reset_peak_rss()?;
    let cpu0 = cpu_seconds()?;
    let steal0 = steal_seconds()?;
    let t0 = Instant::now();
    let out = f();
    let raw_wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;
    let steal_s = steal_seconds()? - steal0;
    let peak_rss_mib = peak_rss_bytes()? as f64 / MIB;
    Ok((
        out,
        Sample {
            wall_s: (raw_wall_s - steal_s).max(0.0),
            raw_wall_s,
            cpu_s,
            peak_rss_mib,
            steal_s,
        },
    ))
}

/// The median of `values` (mean of the middle two for an even count);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds().unwrap();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds().unwrap() - before >= 0.1, "{x}");
    }
}
