//! Measurement utilities: context switches and time breakdowns.
//!
//! Figure 4 plots OS context-switch rates; we read the kernel's per-thread
//! `voluntary_ctxt_switches` counters (summed over every thread of the
//! process) before and after each run. Figures 2 and 7 are stacked time
//! breakdowns; [`Breakdown`] assembles them from the counters the log
//! buffer, lock manager and commit path maintain.

use std::time::Duration;

/// Sum of voluntary context switches across all threads of this process.
/// Voluntary switches are the ones blocking I/O and condvar waits cause —
/// exactly what log flushes inflict on agent threads (§4).
pub fn voluntary_ctx_switches() -> u64 {
    read_ctx_switches("voluntary_ctxt_switches")
}

/// Probe whether this host's `/proc` actually reports context switches:
/// the per-thread field must parse AND advance across blocking sleeps.
/// Some container runtimes mount a `/proc` that omits the field or pins
/// it at a static value; on such hosts the Figure-4 rates are meaningless
/// and callers should report "unsupported" instead of a zero rate.
pub fn ctx_switches_supported() -> bool {
    let Some(before) = read_ctx_switches_self("voluntary_ctxt_switches") else {
        return false;
    };
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(2));
        match read_ctx_switches_self("voluntary_ctxt_switches") {
            Some(now) if now > before => return true,
            Some(_) => continue,
            None => return false,
        }
    }
    false
}

fn read_ctx_switches_self(field: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            if let Ok(v) = rest.trim_start_matches(':').trim().parse::<u64>() {
                return Some(v);
            }
        }
    }
    None
}

fn read_ctx_switches(field: &str) -> u64 {
    let mut total = 0u64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    for t in tasks.flatten() {
        let path = t.path().join("status");
        if let Ok(s) = std::fs::read_to_string(path) {
            for line in s.lines() {
                if let Some(rest) = line.strip_prefix(field) {
                    if let Ok(v) = rest.trim_start_matches(':').trim().parse::<u64>() {
                        total += v;
                    }
                }
            }
        }
    }
    total
}

/// A stacked time breakdown over the agent threads of one run, in the
/// paper's Figure-2/7 categories. All values are thread-seconds; `total`
/// is `clients × wall`.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Total agent thread-seconds (clients × wall-clock).
    pub total_s: f64,
    /// Filling log buffer slots ("log mgr. work": `log.fill_ns`).
    pub log_work_s: f64,
    /// Reserving and releasing log buffer space ("log mgr. contention":
    /// `log.reserve_ns` + `log.release_ns`).
    pub log_contention_s: f64,
    /// Blocked on database locks ("other contention"; with a slow log this
    /// is the log-induced lock contention of Figure 1 (B)).
    pub lock_wait_s: f64,
    /// Blocked waiting for commit flushes (Figure 1 (A)+(C); becomes idle
    /// time in the paper's utilization bars).
    pub flush_wait_s: f64,
}

impl Breakdown {
    /// Whatever is left: useful transaction work.
    pub fn other_work_s(&self) -> f64 {
        (self.total_s
            - self.log_work_s
            - self.log_contention_s
            - self.lock_wait_s
            - self.flush_wait_s)
            .max(0.0)
    }

    /// Percentage helper.
    pub fn pct(&self, part: f64) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            100.0 * part / self.total_s
        }
    }

    /// Render the five stacked components as TSV columns:
    /// `other_work log_work log_contention lock_wait flush_wait` (percent).
    pub fn tsv_row(&self) -> String {
        format!(
            "{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            self.pct(self.other_work_s()),
            self.pct(self.log_work_s),
            self.pct(self.log_contention_s),
            self.pct(self.lock_wait_s),
            self.pct(self.flush_wait_s),
        )
    }

    /// Header matching [`Breakdown::tsv_row`].
    pub fn tsv_header() -> &'static str {
        "other_work%\tlog_work%\tlog_contention%\tlock_wait%\tflush_wait%"
    }
}

/// ns → seconds.
pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_switch_counters_monotonic() {
        // Probe first: hosts whose /proc omits the field or pins it at a
        // static value can't satisfy the monotonicity property, and that
        // is the host's defect, not ours — skip rather than fail.
        if !ctx_switches_supported() {
            eprintln!("ctx-switch counters unavailable on this host; skipping");
            return;
        }
        // Process-wide sums can dip when sibling threads exit, so test
        // monotonicity on the calling thread's own counter.
        let a = read_ctx_switches_self("voluntary_ctxt_switches").unwrap_or(0);
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let b = read_ctx_switches_self("voluntary_ctxt_switches").unwrap_or(0);
        assert!(b >= a, "per-thread counter went backwards: {a} -> {b}");
        assert!(voluntary_ctx_switches() > 0, "process-wide sum parses");
    }

    #[test]
    fn breakdown_partitions_to_100_percent() {
        let b = Breakdown {
            total_s: 10.0,
            log_work_s: 1.0,
            log_contention_s: 2.0,
            lock_wait_s: 3.0,
            flush_wait_s: 0.5,
        };
        assert!((b.other_work_s() - 3.5).abs() < 1e-9);
        let sum = b.pct(b.other_work_s())
            + b.pct(b.log_work_s)
            + b.pct(b.log_contention_s)
            + b.pct(b.lock_wait_s)
            + b.pct(b.flush_wait_s);
        assert!((sum - 100.0).abs() < 1e-6);
        assert_eq!(b.tsv_row().split('\t').count(), 5);
        assert_eq!(Breakdown::tsv_header().split('\t').count(), 5);
    }

    #[test]
    fn breakdown_clamps_negative_other() {
        let b = Breakdown {
            total_s: 1.0,
            log_work_s: 2.0, // overcounted phases must not go negative
            ..Default::default()
        };
        assert_eq!(b.other_work_s(), 0.0);
        assert_eq!(Breakdown::default().pct(1.0), 0.0);
    }

    #[test]
    fn conversions() {
        assert_eq!(ns_to_s(1_500_000_000), 1.5);
    }
}
