//! Peak-memory accounting reproducing the paper's "mem score" (§7.3).
//!
//! The paper snapshots the memory usage of all distributed processes every
//! 0.5 s and scores the snapshot `s_max` at which the *total* usage peaks,
//! normalized by `|E|`:
//!
//! ```text
//! MemScore = (1/|E|) * Σ_{pr} pr's memory usage (bytes) at s_max
//! ```
//!
//! Here processes report their live heap bytes explicitly at phase
//! boundaries ([`MemoryTracker::report`]) — a *logical* snapshot instead of
//! an OS timer, which is more reproducible and measures the same quantity
//! (bytes of partitioning state held at the worst moment).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared tracker of per-process live bytes and the global peak total.
#[derive(Debug)]
pub struct MemoryTracker {
    current: Vec<AtomicU64>,
    peak_total: AtomicU64,
}

/// Immutable summary extracted after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport {
    /// Highest total-across-processes live bytes observed at any report.
    pub peak_total_bytes: u64,
    /// Final per-process live bytes.
    pub final_per_process: Vec<u64>,
}

impl MemoryTracker {
    /// Tracker for `nprocs` processes, all zero.
    pub fn new(nprocs: usize) -> Arc<Self> {
        Arc::new(Self {
            current: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            peak_total: AtomicU64::new(0),
        })
    }

    /// Report the live heap bytes of `rank`'s partitioning state. Updates
    /// the global peak if the new total is the highest seen.
    pub fn report(&self, rank: usize, live_bytes: usize) {
        self.current[rank].store(live_bytes as u64, Ordering::Relaxed);
        let total: u64 = self.current.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        self.peak_total.fetch_max(total, Ordering::Relaxed);
    }

    /// Highest total observed so far.
    pub fn peak_total_bytes(&self) -> u64 {
        self.peak_total.load(Ordering::Relaxed)
    }

    /// Build the final report.
    pub fn report_summary(&self) -> MemoryReport {
        MemoryReport {
            peak_total_bytes: self.peak_total_bytes(),
            final_per_process: self.current.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        }
    }

    /// The paper's mem score: peak total bytes normalized by edge count.
    pub fn mem_score(&self, num_edges: u64) -> f64 {
        if num_edges == 0 {
            0.0
        } else {
            self.peak_total_bytes() as f64 / num_edges as f64
        }
    }
}

/// True peak resident set size of the *whole process* in bytes (`VmHWM`
/// from `/proc/self/status`), as an external cross-check of the logical
/// accounting above: the logical tracker counts partitioning state only,
/// while the kernel's high-water mark also sees allocator slack, code,
/// and whatever else the process touched. Returns `None` where procfs is
/// unavailable (non-Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Peak virtual address space of the *current OS process* (`VmPeak` from
/// `/proc/self/status`) — the figure a `ulimit -v` cap is compared with,
/// which counts reserved and mapped-but-untouched pages that
/// [`peak_rss_bytes`] does not. `None` where procfs is unavailable.
pub fn peak_vm_bytes() -> Option<u64> {
    proc_status_bytes("VmPeak:")
}

/// One `<field> <n> kB` line of `/proc/self/status`, in bytes.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Reset the kernel's resident-set high-water mark (write `5` to
/// `/proc/self/clear_refs`), so a following [`peak_rss_bytes`] reflects
/// only allocations made *after* the reset. `VmHWM` is monotonic over a
/// process's lifetime; without this reset, back-to-back measurements of
/// several runs would all report the largest one. Returns `false` where
/// the reset is unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_total_across_processes() {
        let t = MemoryTracker::new(2);
        t.report(0, 100);
        t.report(1, 200); // total 300
        t.report(0, 50); // total 250
        assert_eq!(t.peak_total_bytes(), 300);
        let r = t.report_summary();
        assert_eq!(r.final_per_process, vec![50, 200]);
    }

    #[test]
    fn mem_score_normalizes_by_edges() {
        let t = MemoryTracker::new(1);
        t.report(0, 64_000);
        assert_eq!(t.mem_score(1000), 64.0);
        assert_eq!(t.mem_score(0), 0.0);
    }

    #[test]
    fn zero_reports_keep_zero_peak() {
        let t = MemoryTracker::new(3);
        assert_eq!(t.peak_total_bytes(), 0);
        assert_eq!(t.report_summary().peak_total_bytes, 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_vm_hwm() {
        // The check reads process-wide counters, so sibling test threads
        // allocating between the read and the reset would break it: the
        // test re-runs itself alone in a child process of this binary,
        // marked by an env var, and the check runs there.
        const CHILD: &str = "PEAK_RSS_TEST_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["memory::tests::peak_rss_reads_vm_hwm", "--exact", "--test-threads=1"])
                .env(CHILD, "1")
                .output()
                .expect("re-run the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "child failed: {stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("1 passed"), "the child must run this test: {stdout}");
            return;
        }
        // Even alone, a process at its high-water mark raises it with the
        // next page it touches — the second read's own buffer, say. So the
        // child first lifts its peak with 8 MiB it touches and hands back
        // to the OS, leaving headroom that no read here can fill.
        std::hint::black_box(vec![1u8; 8 << 20]);
        // Any live Linux process has touched at least a page.
        let peak = peak_rss_bytes().expect("procfs should be readable on Linux");
        assert!(peak > 0);
        // After a reset the high-water mark restarts from the *current*
        // RSS, which can only be <= the old peak.
        if reset_peak_rss() {
            assert!(peak_rss_bytes().expect("still readable") <= peak);
        }
    }
}
