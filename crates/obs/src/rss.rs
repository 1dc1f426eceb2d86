//! Process peak-RSS probe, for memory-budget gates.
//!
//! The mpisim scale sweeps (10⁴–10⁶ virtual ranks) gate on peak resident
//! set size: a 65 536-rank world must stay under 2 GB. Linux exposes the
//! high-water mark as `VmHWM` in `/proc/self/status`; other platforms
//! report `None` and the gates skip.

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable (non-Linux hosts).
///
/// The value is a high-water mark: it only rises until something resets
/// it, so measuring a phase means reading it after that phase and
/// comparing against the budget, not subtracting a "before" sample.
/// Writing `5` to `/proc/self/clear_refs` resets it to the current RSS;
/// the end-to-end benchmark (`perfbench/`) does that at each phase entry.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Current resident set size in bytes (`VmRSS`), or `None` off-Linux.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_field(&status, "VmRSS:")
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    parse_field(status, "VmHWM:")
}

/// Extract a `kB` field from `/proc/self/status` text.
fn parse_field(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tsiesta\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123456 * 1024));
        assert_eq!(parse_field(status, "VmRSS:"), Some(100 * 1024));
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tsiesta\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_probe_reports_something_sane() {
        // Current first: concurrent tests may grow the process between the
        // two reads, and only a later high-water mark bounds an earlier RSS.
        let rss = current_rss_bytes().expect("VmRSS on Linux");
        let hwm = peak_rss_bytes().expect("VmHWM on Linux");
        // A test process surely holds between 1 MB and 1 TB resident.
        assert!(hwm > 1 << 20, "peak RSS {hwm} implausibly small");
        assert!(hwm < 1 << 40, "peak RSS {hwm} implausibly large");
        assert!(rss <= hwm, "current {rss} above high-water {hwm}");
    }
}
