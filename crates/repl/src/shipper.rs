//! The log shipper: tails the primary's durable frontier and streams it.
//!
//! One shipper per replica. The ship thread blocks on the primary's durable
//! watermark ([`aether_core::LogManager::wait_durable`]) — no spin-polling —
//! and forwards
//! every newly-durable byte run as a CRC-framed message; because the flush
//! daemon advances the durable watermark once per *group* flush, the
//! shipper naturally emits one frame per commit group and the replica acks
//! it with a single message: group commit amortizes the ack round-trip
//! exactly as it amortizes the local sync. The [`ack_link`] folds each
//! replica ack into the primary's [`aether_core::commit::CommitGate`] and
//! re-checks pending commits, on the link's own delivery thread.
//!
//! [`Shipper::stop`] raises a flag and wakes the durable waiters, so the
//! ship thread leaves its wait at once. An ack already on the wire may
//! still land afterwards: it only ever reports bytes the replica holds
//! durably.
//!
//! ## Falling behind the truncated prefix
//!
//! Checkpoint-driven truncation ([`aether_core::LogManager::truncate_to`])
//! normally never outruns a registered replica's acks. But a forced
//! truncation (bounded-disk emergency) — or a shipper attached with a
//! stale start position — can leave the read cursor below the log's
//! low-water mark, where the bytes no longer exist. The shipper detects
//! this, captures a fresh checkpoint [`BaseSnapshot`] from the primary
//! (pages + ATT/DPT), ships it as a [`SnapshotFrame`] in sequence order,
//! and resumes log frames from the snapshot LSN. The replica re-seeds
//! itself; no historical log is ever required again.

use crate::frame::{Frame, SnapshotFrame};
use crate::transport::{link, LinkConfig, LinkSender};
use aether_core::commit::ReplicaAck;
use aether_core::telemetry::{Stage, Unit};
use aether_core::{LogManager, Lsn};
use aether_storage::db::Db;
use aether_storage::replay::{self, BaseSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shipper tuning.
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// Maximum bytes per frame (runs larger than this are split).
    pub chunk: usize,
}

impl Default for ShipperConfig {
    fn default() -> Self {
        ShipperConfig { chunk: 1 << 16 }
    }
}

/// The return path of one pipeline: a link whose delivery thread folds each
/// replica ack into `ack` (a handle from
/// [`aether_core::commit::CommitGate::register_replica`]) and re-checks the
/// commits waiting on the primary's `log`. Hand the sender to the replica.
pub fn ack_link(log: &Arc<LogManager>, ack: Arc<ReplicaAck>, cfg: LinkConfig) -> LinkSender<Lsn> {
    let log = Arc::clone(log);
    let tel = Arc::clone(log.telemetry());
    link(cfg, move |lsn| {
        ack.advance(lsn);
        // Joined with the flush daemon's `durable` event, the span gives the
        // replication round-trip in (virtual) ns.
        if let Some(now) = tel.ts() {
            tel.event(Stage::ReplicaAck, lsn, now);
        }
        log.replication_recheck();
        true
    })
}

/// Handle for one primary→replica shipping pipeline's ship thread.
pub struct Shipper {
    stop: Arc<AtomicBool>,
    log: Arc<LogManager>,
    ship_thread: Option<aether_core::runtime::JoinHandle<()>>,
}

impl std::fmt::Debug for Shipper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shipper").finish_non_exhaustive()
    }
}

impl Shipper {
    /// Start shipping `primary`'s durable log bytes through `tx` from
    /// `start_lsn` (the replica's bootstrap LSN — zero for a replica seeded
    /// with the full history). The acks come back over an [`ack_link`].
    pub fn spawn(
        primary: Arc<Db>,
        tx: LinkSender<Vec<u8>>,
        start_lsn: Lsn,
        cfg: ShipperConfig,
    ) -> Shipper {
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::clone(primary.log());
        let rt = log.config().runtime.clone();

        let ship_thread = {
            let stop = Arc::clone(&stop);
            rt.spawn("aether-shipper", move || {
                let log = Arc::clone(primary.log());
                let device = Arc::clone(log.device());
                let tel = Arc::clone(log.telemetry());
                let m_frames = tel.counter("ship.frames", Unit::Count);
                let m_bytes = tel.counter("ship.bytes", Unit::Bytes);
                let m_snapshots = tel.counter("ship.snapshots", Unit::Count);
                let m_lag_lsns = tel.gauge("ship.lag_lsns", Unit::Lsns);
                let m_lag_ns = tel.gauge("ship.lag_ns", Unit::Nanos);
                // Runtime-monotonic instant when the ship cursor fell
                // behind the durable frontier; None while caught up.
                let mut behind_since: Option<u64> = None;
                let mut at = start_lsn;
                let mut seq = 0u64;
                loop {
                    // Fell behind the truncated prefix? The bytes below
                    // the low-water mark are gone; re-seed the replica
                    // from a fresh checkpoint snapshot instead.
                    if at < device.low_water() {
                        let snap: BaseSnapshot = replay::base_snapshot(&primary);
                        let msg = SnapshotFrame {
                            seq,
                            body: snap.encode(),
                        };
                        if !tx.send(msg.encode()) {
                            return; // replica gone
                        }
                        seq += 1;
                        at = snap.start_lsn;
                        tel.inc(m_snapshots);
                        continue;
                    }
                    let durable = log.wait_durable(at.advance(1), || stop.load(Ordering::SeqCst));
                    if durable <= at {
                        return; // stopped, or the log closed: nothing more comes
                    }
                    while at < durable {
                        if at < device.low_water() {
                            break; // truncated mid-run: snapshot instead
                        }
                        let n = (cfg.chunk as u64).min(durable.since(at)) as usize;
                        let mut bytes = vec![0u8; n];
                        let got = match device.read_at(at.raw(), &mut bytes) {
                            Ok(g) => g,
                            Err(_) => return,
                        };
                        if got == 0 {
                            break;
                        }
                        bytes.truncate(got);
                        let frame = Frame {
                            seq,
                            start_lsn: at,
                            bytes,
                        };
                        if !tx.send(frame.encode()) {
                            return; // replica gone
                        }
                        seq += 1;
                        at = at.advance(got as u64);
                        tel.inc(m_frames);
                        tel.add(m_bytes, got as u64);
                    }
                    if tel.on() {
                        // Replication lag as the cursor waits, both ways the
                        // operator asks for it: bytes of durable log not yet
                        // shipped, and how long the cursor has been behind.
                        let lag = durable.since(at);
                        tel.gauge_set(m_lag_lsns, lag as i64);
                        let now = aether_core::runtime::monotonic_ns();
                        let lag_ns = if lag == 0 {
                            behind_since = None;
                            0
                        } else {
                            let t0 = *behind_since.get_or_insert(now);
                            now.saturating_sub(t0)
                        };
                        tel.gauge_set(m_lag_ns, lag_ns as i64);
                    }
                }
            })
        };

        Shipper {
            stop,
            log,
            ship_thread: Some(ship_thread),
        }
    }

    /// Stop the ship thread (idempotent): it leaves its wait on the durable
    /// watermark at once. Dropping the shipper also stops it — the model for
    /// "the network to this replica is cut".
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.log.wake_durable_waiters();
        if let Some(t) = self.ship_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Shipper {
    fn drop(&mut self) {
        self.stop();
    }
}
