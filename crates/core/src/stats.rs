//! The log buffer's counters as one typed view.
//!
//! The counts live in the log's telemetry registry (`log.inserts`,
//! `log.consolidations`, ...), which counts whether telemetry is on or off;
//! [`BufferStats::snapshot`] reads them back as a [`StatsSnapshot`]. The
//! paper's time breakdowns ("log mgr. work" and "log mgr. contention",
//! Figures 2 and 7) are the registry's `log.fill_ns` and `log.reserve_ns` +
//! `log.release_ns`, which add up only while telemetry is on.

use crate::telemetry::Telemetry;
use std::sync::Arc;

/// The log buffer's counters, read from its telemetry registry.
///
/// Field meanings (see [`StatsSnapshot`]): `direct_acquires` are inserts
/// that took the mutex themselves, `consolidations` are followers in a
/// consolidation-array group, `group_acquires` are group leaders,
/// and `delegated_releases` are releases handed to a predecessor.
#[derive(Debug)]
pub struct BufferStats(Arc<Telemetry>);

/// A point-in-time copy of [`BufferStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total records inserted.
    pub inserts: u64,
    /// Total bytes inserted (on-log footprint).
    pub bytes: u64,
    /// Fast-path (uncontended) acquisitions.
    pub direct_acquires: u64,
    /// Follower joins in consolidation groups.
    pub consolidations: u64,
    /// Leader acquisitions for consolidation groups.
    pub group_acquires: u64,
    /// Releases handed to a predecessor that was still filling (D, CD and
    /// CDME; one per reservation, so one per consolidation group).
    pub delegated_releases: u64,
}

impl BufferStats {
    /// The view over `telemetry`'s buffer counters.
    pub(crate) fn new(telemetry: Arc<Telemetry>) -> Self {
        BufferStats(telemetry)
    }

    /// Read the counters. Exact once the counting threads are joined; while
    /// they run, each field is some value it held during the call.
    pub fn snapshot(&self) -> StatsSnapshot {
        let (t, ids) = (&self.0, self.0.ids());
        StatsSnapshot {
            inserts: t.count(ids.log_inserts),
            bytes: t.count(ids.log_bytes),
            direct_acquires: t.count(ids.log_direct_acquires),
            consolidations: t.count(ids.log_consolidations),
            group_acquires: t.count(ids.log_group_acquires),
            delegated_releases: t.count(ids.log_delegated_releases),
        }
    }
}

impl StatsSnapshot {
    /// Difference of two snapshots (self - earlier), for interval reporting.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts - earlier.inserts,
            bytes: self.bytes - earlier.bytes,
            direct_acquires: self.direct_acquires - earlier.direct_acquires,
            consolidations: self.consolidations - earlier.consolidations,
            group_acquires: self.group_acquires - earlier.group_acquires,
            delegated_releases: self.delegated_releases - earlier.delegated_releases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryConfig;

    fn stats() -> BufferStats {
        BufferStats::new(Arc::new(Telemetry::new(&TelemetryConfig::default())))
    }

    #[test]
    fn counters_accumulate() {
        let s = stats();
        let (t, ids) = (&s.0, s.0.ids());
        t.inc(ids.log_inserts);
        t.add(ids.log_bytes, 120);
        t.inc(ids.log_inserts);
        t.add(ids.log_bytes, 40);
        t.inc(ids.log_direct_acquires);
        t.inc(ids.log_consolidations);
        t.inc(ids.log_group_acquires);
        t.inc(ids.log_delegated_releases);
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.bytes, 160);
        assert_eq!(snap.direct_acquires, 1);
        assert_eq!(snap.consolidations, 1);
        assert_eq!(snap.group_acquires, 1);
        assert_eq!(snap.delegated_releases, 1);
    }

    #[test]
    fn delta_subtracts() {
        let s = stats();
        let (t, ids) = (&s.0, s.0.ids());
        t.inc(ids.log_inserts);
        t.add(ids.log_bytes, 10);
        let a = s.snapshot();
        t.inc(ids.log_inserts);
        t.add(ids.log_bytes, 30);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.inserts, 1);
        assert_eq!(d.bytes, 30);
    }
}
