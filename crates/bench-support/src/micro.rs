//! The log-insert microbenchmark (§6.3, Figures 8, 11, 12).
//!
//! "We extract a subset of Shore-MT's log manager as an executable which
//! supports only log insertions without flushes to disk or performing other
//! work, thereby isolating the log buffer performance. We then vary the
//! number of threads, the log record size and distribution, and the timing
//! of inserts."
//!
//! Here the extracted subset is a bare [`InsertBuffer`] over a discarding
//! core (auto-reclaim, no flush daemon). `backoff` mode routes every insert
//! through the consolidation array — on big machines contention does that
//! naturally; on small hosts it lets the group-formation machinery be
//! exercised deterministically.
//!
//! Inserts go through the zero-copy reservation path (`reserve` → write
//! into the ring → `release`), so what is measured is exactly one payload
//! memcpy plus the variant's synchronization — no header re-encoding, no
//! intermediate buffers.

use aether_core::buffer::{BufferCore, BufferKind, InsertBuffer, LogBuffer};
use aether_core::record::{on_log_size, RecordKind, HEADER_SIZE};
use aether_core::runtime::lock;
use aether_core::{LogConfig, Lsn};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Record-size distribution for a run.
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Every record has this payload size.
    Fixed(usize),
    /// The Figure-11 stress: mostly `small`, one `outlier` every
    /// `outlier_every` inserts.
    Bimodal {
        /// Common payload size.
        small: usize,
        /// Outlier payload size.
        outlier: usize,
        /// One outlier per this many inserts.
        outlier_every: usize,
    },
}

impl SizeDist {
    fn size_for(&self, i: usize) -> usize {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Bimodal {
                small,
                outlier,
                outlier_every,
            } => {
                if i.is_multiple_of(outlier_every) {
                    outlier
                } else {
                    small
                }
            }
        }
    }

    fn max_size(&self) -> usize {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Bimodal { small, outlier, .. } => small.max(outlier),
        }
    }
}

/// Microbenchmark configuration.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Buffer variant under test.
    pub kind: BufferKind,
    /// Inserting threads.
    pub threads: usize,
    /// Payload size distribution.
    pub dist: SizeDist,
    /// Run length.
    pub duration: Duration,
    /// Consolidation-array slots (Figure 12 sweeps this).
    pub slots: usize,
    /// Force every insert through the consolidation array.
    pub backoff: bool,
    /// Ring size.
    pub buffer_size: usize,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            kind: BufferKind::Hybrid,
            threads: 4,
            // ~120B average on-log record size, the paper's workload average.
            dist: SizeDist::Fixed(120 - HEADER_SIZE),
            duration: Duration::from_millis(500),
            slots: 4,
            backoff: false,
            buffer_size: 64 << 20,
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MicroResult {
    /// Records inserted.
    pub inserts: u64,
    /// On-log bytes inserted.
    pub bytes: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Consolidated (follower) inserts.
    pub consolidations: u64,
    /// Group-leader acquisitions.
    pub group_acquires: u64,
    /// Delegated releases (CDME).
    pub delegated: u64,
}

impl MicroResult {
    /// Throughput in MB/s.
    pub fn mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.wall_s
    }

    /// Throughput in GB/s.
    pub fn gbps(&self) -> f64 {
        self.bytes as f64 / 1e9 / self.wall_s
    }

    /// Insert rate (records/s).
    pub fn inserts_per_s(&self) -> f64 {
        self.inserts as f64 / self.wall_s
    }
}

/// Run one microbenchmark configuration.
pub fn run_micro(cfg: &MicroConfig) -> MicroResult {
    let log_config = LogConfig::default()
        .with_buffer_size(cfg.buffer_size)
        .with_carray_slots(cfg.slots)
        // Honor AETHER_TELEMETRY/_SAMPLE: fig8/11/12 runs then carry the
        // insert-latency histogram and emit one structured document each
        // to AETHER_TELEMETRY_OUT. Off (a single relaxed load) by default.
        .with_telemetry(crate::env::telemetry());
    let core = BufferCore::new(&log_config);
    core.set_auto_reclaim(true);
    // The concrete type rather than `BufferKind::build`'s `dyn LogBuffer`:
    // backoff mode needs `InsertBuffer::reserve_backoff`.
    let buffer = Arc::new(InsertBuffer::new(cfg.kind, Arc::clone(&core), &log_config));
    let stop = Arc::new(AtomicBool::new(false));

    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let buffer = Arc::clone(&buffer);
            let stop = Arc::clone(&stop);
            let dist = cfg.dist;
            let backoff = cfg.backoff;
            s.spawn(move || {
                let template = vec![t as u8; dist.max_size()];
                let mut i = t; // offset outlier phase per thread
                while !stop.load(Ordering::Relaxed) {
                    // Batch 32 inserts per stop-flag check.
                    for _ in 0..32 {
                        // Zero-copy insert: reserve a slot (through the
                        // array in backoff mode, where the kind has one),
                        // stream the payload into the ring, release.
                        let payload = &template[..dist.size_for(i)];
                        let (kind, len) = (RecordKind::Filler, payload.len());
                        let mut slot = match backoff {
                            true => buffer.reserve_backoff(kind, 0, Lsn::ZERO, len),
                            false => buffer.reserve(kind, 0, Lsn::ZERO, len),
                        };
                        slot.write(payload);
                        slot.release();
                        i += 1;
                    }
                }
            });
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let wall_s = start.elapsed().as_secs_f64();
    let snap = core.stats.snapshot();
    let tel = core.telemetry();
    if tel.on() {
        // One structured document per run: the registry's metrics (the
        // buffer's counters, log.insert_ns and any sampled spans), scoped
        // by the run configuration.
        let scope = format!(
            "micro variant={:?} threads={} slots={} backoff={}",
            cfg.kind, cfg.threads, cfg.slots, cfg.backoff
        );
        let doc = tel.snapshot(&scope);
        if let Some(path) = &log_config.telemetry.export_path {
            let _ = doc.append_to(path);
        }
    }
    MicroResult {
        inserts: snap.inserts,
        bytes: snap.bytes,
        wall_s,
        consolidations: snap.consolidations,
        group_acquires: snap.group_acquires,
        delegated: snap.delegated_releases,
    }
}

/// The "CD in L1" upper bound (Figure 8 right): threads copy records into
/// thread-local, cache-resident buffers — no shared ring, no LSN ordering.
/// Measures the pure header+memcpy cost that bounds every shared design.
pub fn run_thread_local(threads: usize, payload: usize, duration: Duration) -> MicroResult {
    let stop = Arc::new(AtomicBool::new(false));
    let totals = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stop = Arc::clone(&stop);
            let totals = Arc::clone(&totals);
            s.spawn(move || {
                let template = vec![t as u8; payload];
                // 32 KiB local ring: L1-resident.
                let mut local = vec![0u8; 32 * 1024];
                let rec = on_log_size(payload);
                let mut at = 0usize;
                let mut inserts = 0u64;
                let header = aether_core::record::RecordHeader::new(
                    RecordKind::Filler,
                    0,
                    Lsn::ZERO,
                    &template,
                );
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        if at + rec > local.len() {
                            at = 0;
                        }
                        local[at..at + HEADER_SIZE].copy_from_slice(&header.encode());
                        local[at + HEADER_SIZE..at + HEADER_SIZE + payload]
                            .copy_from_slice(&template);
                        at += rec;
                        inserts += 1;
                    }
                }
                let mut g = lock(&totals);
                g.0 += inserts;
                g.1 += inserts * rec as u64;
                std::hint::black_box(&local);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (inserts, bytes) = *lock(&totals);
    MicroResult {
        inserts,
        bytes,
        wall_s,
        consolidations: 0,
        group_acquires: 0,
        delegated: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: BufferKind, backoff: bool) -> MicroResult {
        run_micro(&MicroConfig {
            kind,
            threads: 4,
            duration: Duration::from_millis(100),
            backoff,
            buffer_size: 1 << 22,
            ..Default::default()
        })
    }

    #[test]
    fn all_variants_make_progress() {
        for kind in BufferKind::ALL {
            let r = quick(kind, false);
            assert!(
                r.inserts > 100,
                "{kind:?} produced only {} inserts",
                r.inserts
            );
            assert!(r.mbps() > 0.0);
            assert!(r.inserts_per_s() > 0.0);
        }
    }

    #[test]
    fn backoff_mode_consolidates() {
        let r = quick(BufferKind::Hybrid, true);
        assert!(r.group_acquires > 0, "backoff mode must form groups: {r:?}");
        assert_eq!(r.group_acquires + r.consolidations, r.inserts);
    }

    #[test]
    fn cdme_delegates_under_backoff() {
        let r = quick(BufferKind::Delegated, true);
        assert!(r.inserts > 0);
        // Delegation is probabilistic but near-certain with 4 threads/100ms.
        assert!(r.gbps() >= 0.0);
    }

    #[test]
    fn bimodal_distribution_runs() {
        let r = run_micro(&MicroConfig {
            kind: BufferKind::Delegated,
            threads: 4,
            dist: SizeDist::Bimodal {
                small: 16,
                outlier: 16384,
                outlier_every: 60,
            },
            duration: Duration::from_millis(100),
            buffer_size: 1 << 22,
            ..Default::default()
        });
        assert!(r.inserts > 0);
        // Average record size must exceed the small size (outliers present).
        assert!(r.bytes / r.inserts > on_log_size(16) as u64);
    }

    #[test]
    fn thread_local_upper_bound_beats_nothing() {
        let r = run_thread_local(2, 88, Duration::from_millis(100));
        assert!(r.inserts > 1000);
        assert!(r.gbps() > 0.0);
    }

    #[test]
    fn size_dist_helpers() {
        let d = SizeDist::Bimodal {
            small: 16,
            outlier: 512,
            outlier_every: 10,
        };
        assert_eq!(d.size_for(0), 512);
        assert_eq!(d.size_for(1), 16);
        assert_eq!(d.size_for(10), 512);
        assert_eq!(d.max_size(), 512);
        assert_eq!(SizeDist::Fixed(88).size_for(3), 88);
    }
}
