//! Log-stream analysis: record-kind and record-size distributions.
//!
//! §5 motivates the decoupled designs with Shore-MT's record-size profile:
//! "the distribution of log records has two strong peaks at 40B and 264B (a
//! 6x difference) and the largest log records can occupy several kB each";
//! §6.3.1 uses ~120 B as the workload average. This module computes the same
//! statistics from any log device so the claim can be checked against the
//! logs *this* system writes.

use aether_core::device::LogDevice;
use aether_core::reader::LogReader;
use aether_core::record::RecordKind;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregate statistics over a log stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogProfile {
    /// Records per kind.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// On-log bytes per kind.
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Histogram of on-log record sizes (size → count).
    pub size_histogram: BTreeMap<u32, u64>,
    /// Total records.
    pub records: u64,
    /// Total on-log bytes.
    pub bytes: u64,
}

fn kind_name(k: RecordKind) -> &'static str {
    match k {
        RecordKind::Filler => "filler",
        RecordKind::UpdateCommit => "update_commit",
    }
}

impl LogProfile {
    /// Scan `device` and build the profile.
    pub fn scan(device: Arc<dyn LogDevice>) -> aether_core::Result<LogProfile> {
        let mut p = LogProfile::default();
        let mut reader = LogReader::new(device);
        while let Some(rec) = reader.next_record()? {
            let name = kind_name(rec.header.kind);
            *p.by_kind.entry(name).or_default() += 1;
            *p.bytes_by_kind.entry(name).or_default() += rec.header.total_len as u64;
            *p.size_histogram.entry(rec.header.total_len).or_default() += 1;
            p.records += 1;
            p.bytes += rec.header.total_len as u64;
        }
        Ok(p)
    }

    /// Mean on-log record size.
    pub fn mean_size(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.bytes as f64 / self.records as f64
        }
    }

    /// Size percentile (0.0..=1.0) over records.
    pub fn size_percentile(&self, q: f64) -> u32 {
        let target = (self.records as f64 * q).ceil() as u64;
        let mut seen = 0u64;
        for (&size, &count) in &self.size_histogram {
            seen += count;
            if seen >= target {
                return size;
            }
        }
        self.size_histogram.keys().last().copied().unwrap_or(0)
    }

    /// The distribution's modes (most frequent sizes), most frequent first.
    pub fn top_sizes(&self, n: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.size_histogram.iter().map(|(&s, &c)| (s, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Render a TSV report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "records\t{}\nbytes\t{}\nmean_size\t{:.1}\np50\t{}\np99\t{}\nmax\t{}\n",
            self.records,
            self.bytes,
            self.mean_size(),
            self.size_percentile(0.50),
            self.size_percentile(0.99),
            self.size_percentile(1.0),
        ));
        out.push_str("kind\tcount\tbytes\n");
        for (kind, count) in &self.by_kind {
            out.push_str(&format!(
                "{kind}\t{count}\t{}\n",
                self.bytes_by_kind.get(kind).copied().unwrap_or(0)
            ));
        }
        out.push_str("top_sizes\t");
        for (s, c) in self.top_sizes(4) {
            out.push_str(&format!("{s}B x{c}  "));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::{DeviceKind, LogManager, RecordKind};

    #[test]
    fn profile_counts_kinds_and_sizes() {
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        for i in 0..100u64 {
            log.insert(RecordKind::UpdateCommit, i, &[0; 8]); // 40 B on log
        }
        for i in 0..50u64 {
            log.insert(RecordKind::UpdateCommit, i, &[0; 232]); // 264 B on log
        }
        for i in 0..30u64 {
            log.insert(RecordKind::Filler, i, &[]);
        }
        log.flush_all().unwrap();
        let p = LogProfile::scan(std::sync::Arc::clone(log.device())).unwrap();
        assert_eq!(p.records, 180);
        assert_eq!(p.by_kind["update_commit"], 150);
        assert_eq!(p.by_kind["filler"], 30);
        // Shore-MT's two peaks reproduced.
        let tops = p.top_sizes(2);
        assert_eq!(tops[0].0, 40);
        assert_eq!(tops[1].0, 264);
        assert_eq!(p.size_percentile(0.5), 40);
        assert_eq!(p.size_percentile(1.0), 264);
        assert!(p.mean_size() > 40.0 && p.mean_size() < 264.0);
        let report = p.report();
        assert!(report.contains("update_commit\t150"));
        assert!(report.contains("40B x100")); // the 8-byte-payload updates
        assert_eq!(p.bytes_by_kind["filler"], 30 * 32); // bare 32B headers
    }

    #[test]
    fn empty_log_profile() {
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        log.flush_all().unwrap();
        let p = LogProfile::scan(std::sync::Arc::clone(log.device())).unwrap();
        assert_eq!(p.records, 0);
        assert_eq!(p.mean_size(), 0.0);
        assert_eq!(p.size_percentile(0.5), 0);
        assert!(p.top_sizes(3).is_empty());
    }
}
