//! The replica: receives shipped log runs, keeps a standby database warm by
//! continuous redo, serves bounded-staleness snapshot reads, and can be
//! promoted to a full primary via ordinary ARIES recovery.
//!
//! Protocol: messages are restored to sequence order (reorder-resistant),
//! log runs are appended to the replica's own log device, and **acked at
//! the durably received LSN** — semi-synchronous semantics: an ack means
//! "these bytes survive a primary failure", not "these bytes are already
//! applied". Replay then advances independently through
//! [`aether_storage::replay`]; the gap between received and replayed is the
//! replica's lag, and the time since the last applied batch is its measured
//! staleness bound.
//!
//! A replica has no thread of its own: its frame link's delivery thread
//! runs the ingest — restore order, append, ack, replay — as each message
//! lands. [`Replica::stop`] takes the ingest state under its lock, so
//! nothing is ingested once it returns, even while frames keep arriving.
//!
//! A [`SnapshotFrame`] in the stream **re-seeds the replica**: the primary
//! truncated its log past what this replica had received (or the replica
//! attached after truncation), so the missing bytes no longer exist
//! anywhere. The replica rebuilds its standby database from the snapshot's
//! pages, rebases its log device at the snapshot LSN, and resumes frame
//! ingestion from there — no historical log required.

use crate::frame::{SnapshotFrame, WireMsg};
use crate::transport::{link, LinkConfig, LinkSender};
use aether_core::device::{LogDevice, SimDevice};
use aether_core::reader::LogReader;
use aether_core::runtime::{self, lock, read, write};
use aether_core::telemetry::{GaugeId, Telemetry, Unit};
use aether_core::Lsn;
use aether_storage::db::{CrashImage, Db, DbOptions};
use aether_storage::error::StorageResult;
use aether_storage::recovery::RecoveryStats;
use aether_storage::replay::{self, BaseSnapshot};
use aether_storage::store::PageStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// A point-in-time view of a replica's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Bytes durably received (and acked) so far.
    pub received_lsn: Lsn,
    /// Replay frontier: every record below this is applied to the standby.
    pub replay_lsn: Lsn,
    /// Records applied (page-changing redo).
    pub applied: u64,
    /// Commit records observed by replay.
    pub commits_seen: u64,
    /// Frames dropped for failing their CRC or decode.
    pub corrupt_frames: u64,
    /// Snapshot bootstraps installed (1 for a snapshot-attached replica
    /// that never fell behind; +1 per re-seed after log truncation).
    pub bootstraps: u64,
    /// Measured staleness bound: time since replay last caught up with the
    /// received bytes (zero when fully caught up at sampling time).
    pub staleness: Duration,
}

/// The rebindable half of a replica: replaced wholesale when a snapshot
/// bootstrap re-seeds it.
struct ReplicaState {
    db: Arc<Db>,
    device: Arc<SimDevice>,
}

struct ReplicaShared {
    state: RwLock<ReplicaState>,
    received: AtomicU64,
    replay: AtomicU64,
    applied: AtomicU64,
    commits_seen: AtomicU64,
    corrupt_frames: AtomicU64,
    bootstraps: AtomicU64,
    /// `Some(t)` while replay lags the received bytes, recording the
    /// runtime-monotonic ns when the lag began; `None` while caught up.
    lag_since: Mutex<Option<u64>>,
    /// Readers waiting for the replay frontier to move (continuous redo or
    /// a snapshot rebase).
    replay_wait: runtime::WaitSet,
}

impl ReplicaShared {
    /// Publish a new replay frontier and wake every applied-watermark
    /// waiter. All frontier stores go through here.
    fn publish_replay(&self, at: Lsn) {
        self.replay.store(at.raw(), Ordering::SeqCst);
        self.replay_wait.notify();
    }

    /// Block until the replay frontier reaches `lsn` or `timeout` elapses;
    /// returns the frontier as it is then (`>= lsn` iff the wait succeeded).
    /// Replay notifies once per replayed batch, so a waiter wakes with the
    /// freshest frontier, not a poll quantum later.
    fn wait_replay(&self, lsn: Lsn, timeout: Duration) -> Lsn {
        let replay = || Lsn(self.replay.load(Ordering::Acquire));
        self.replay_wait
            .wait_until(Some(timeout), || Some(replay()).filter(|&at| at >= lsn))
            .unwrap_or_else(replay)
    }
}

/// What the frame link's delivery thread needs to ingest a message: the
/// sequence-order restore buffer, the replay cursor and the ack path.
struct Ingest {
    opts: DbOptions,
    ack_tx: LinkSender<Lsn>,
    /// Reorder resistance: messages parked until their predecessors arrive.
    pending: BTreeMap<u64, WireMsg>,
    next_seq: u64,
    replay_at: Lsn,
    // Replica-side observability rides on the first standby's log telemetry
    // (the one a re-seed replaces is not re-fetched: ids are stable because
    // registration is idempotent by name).
    tel: Arc<Telemetry>,
    m_reorder: GaugeId,
    m_staleness: GaugeId,
}

/// A running replica: a standby database fed by its frame link.
pub struct Replica {
    shared: Arc<ReplicaShared>,
    /// `None` once stopped: a late delivery finds nothing to ingest into.
    ingest: Arc<Mutex<Option<Ingest>>>,
    opts: DbOptions,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.status();
        f.debug_struct("Replica")
            .field("received", &s.received_lsn)
            .field("replay", &s.replay_lsn)
            .finish()
    }
}

impl Replica {
    /// Spawn a replica from a base backup (the primary's flushed page store
    /// plus schema), receiving the log stream from LSN 0 over a frame link
    /// built from `link_cfg` and acking through `ack_tx`. Returns the
    /// replica and the frame link's sender, for the shipper. For a primary
    /// whose log may already be truncated, use
    /// [`Replica::spawn_from_snapshot`].
    pub fn spawn(
        opts: DbOptions,
        store: Arc<PageStore>,
        schema: &[(usize, u64)],
        link_cfg: LinkConfig,
        ack_tx: LinkSender<Lsn>,
    ) -> StorageResult<(Replica, LinkSender<Vec<u8>>)> {
        let db = replay::standby_db(opts.clone(), store, schema)?;
        Ok(Self::launch(opts, db, Lsn::ZERO, 0, link_cfg, ack_tx))
    }

    /// Spawn a replica bootstrapped from a checkpoint [`BaseSnapshot`]: the
    /// standby starts from the snapshot's pages and the log stream begins
    /// at the snapshot LSN — the truncated history below it is never
    /// needed. This is how a freshly attached replica joins a long-running
    /// cluster.
    pub fn spawn_from_snapshot(
        opts: DbOptions,
        snap: &BaseSnapshot,
        link_cfg: LinkConfig,
        ack_tx: LinkSender<Lsn>,
    ) -> StorageResult<(Replica, LinkSender<Vec<u8>>)> {
        let db = replay::standby_from_snapshot(opts.clone(), snap)?;
        Ok(Self::launch(opts, db, snap.start_lsn, 1, link_cfg, ack_tx))
    }

    fn launch(
        opts: DbOptions,
        db: Arc<Db>,
        base: Lsn,
        bootstraps: u64,
        link_cfg: LinkConfig,
        ack_tx: LinkSender<Lsn>,
    ) -> (Replica, LinkSender<Vec<u8>>) {
        let tel = Arc::clone(db.log().telemetry());
        let ingest = Arc::new(Mutex::new(Some(Ingest {
            opts: opts.clone(),
            ack_tx,
            pending: BTreeMap::new(),
            next_seq: 0,
            replay_at: base,
            m_reorder: tel.gauge("repl.reorder_depth", Unit::Records),
            m_staleness: tel.gauge("repl.staleness_ns", Unit::Nanos),
            tel,
        })));
        let shared = Arc::new(ReplicaShared {
            state: RwLock::new(ReplicaState {
                db,
                device: Arc::new(SimDevice::from_image(base, Vec::new())),
            }),
            received: AtomicU64::new(base.raw()),
            replay: AtomicU64::new(base.raw()),
            applied: AtomicU64::new(0),
            commits_seen: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            bootstraps: AtomicU64::new(bootstraps),
            lag_since: Mutex::new(None),
            replay_wait: runtime::WaitSet::new(),
        });
        let frame_tx = {
            let (shared, ingest) = (Arc::clone(&shared), Arc::clone(&ingest));
            link(link_cfg, move |bytes: Vec<u8>| {
                match lock(&ingest).as_mut() {
                    Some(state) => state.deliver(&shared, &bytes),
                    None => return false, // stopped
                }
                true
            })
        };
        let replica = Replica {
            shared,
            ingest,
            opts,
        };
        (replica, frame_tx)
    }

    /// Snapshot read against the standby (no locks; staleness bounded by
    /// [`ReplicaStatus::staleness`]).
    pub fn read(&self, table: u32, key: u64) -> StorageResult<Option<Vec<u8>>> {
        let db = Arc::clone(&read(&self.shared.state).db);
        replay::snapshot_read(&db, table, key)
    }

    /// The standby database (tests fingerprint its state). A snapshot
    /// bootstrap replaces the standby wholesale — re-fetch after one.
    pub fn db(&self) -> Arc<Db> {
        Arc::clone(&read(&self.shared.state).db)
    }

    /// Current progress counters.
    pub fn status(&self) -> ReplicaStatus {
        ReplicaStatus {
            received_lsn: Lsn(self.shared.received.load(Ordering::Acquire)),
            replay_lsn: Lsn(self.shared.replay.load(Ordering::Acquire)),
            applied: self.shared.applied.load(Ordering::Relaxed),
            commits_seen: self.shared.commits_seen.load(Ordering::Relaxed),
            corrupt_frames: self.shared.corrupt_frames.load(Ordering::Relaxed),
            bootstraps: self.shared.bootstraps.load(Ordering::Relaxed),
            staleness: lock(&self.shared.lag_since)
                .map(|t| Duration::from_nanos(runtime::monotonic_ns().saturating_sub(t)))
                .unwrap_or(Duration::ZERO),
        }
    }

    /// Block until the replay frontier reaches `lsn` or `timeout` elapses;
    /// true on success. Replay notifies per replayed batch — no spin or
    /// sleep polling of [`ReplicaStatus::replay_lsn`].
    pub fn wait_replay(&self, lsn: Lsn, timeout: Duration) -> bool {
        self.shared.wait_replay(lsn, timeout) >= lsn
    }

    /// A cloneable serving handle: lock-free snapshot reads plus the
    /// applied watermark, detached from the replica's lifetime (the
    /// `ReadRouter` holds these, not the replicas themselves).
    pub fn reader(&self) -> ReplicaReader {
        ReplicaReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop ingesting (idempotent): once this returns, nothing more is
    /// appended, replayed or acked, though the frame link may still deliver.
    /// Frames parked behind a gap stay unapplied — the gap is where the
    /// stream (and any later promotion) cleanly ends. The standby stays
    /// readable.
    pub fn stop(&mut self) {
        lock(&self.ingest).take();
    }

    /// Promote: finish replaying whatever arrived, then run full ARIES
    /// recovery (analysis / redo / undo) over the shipped prefix — which
    /// starts at the replica's bootstrap LSN, not zero: recovery tolerates
    /// the missing (truncated) history because the snapshot's pages already
    /// contain it. The shipped log may end in a torn frame — recovery
    /// truncates at the first invalid record, exactly as after a local
    /// crash. In-flight primary transactions whose commit never arrived are
    /// rolled back; every commit the primary acked under SemiSync
    /// (which required this ack) is present and survives.
    pub fn promote(mut self) -> StorageResult<(Arc<Db>, RecoveryStats)> {
        self.stop();
        // Persist the replayed pages so recovery starts from them (redo then
        // skips everything at or below each page LSN). The crash image's
        // store shares those images; recovery copies each into a frame once.
        let state = read(&self.shared.state);
        state.db.flush_pages();
        let image = CrashImage {
            log_start: state.device.low_water(),
            log_bytes: state.device.contents(),
            store: state.db.store().deep_clone(),
            schema: state.db.schema(),
        };
        drop(state);
        aether_storage::recovery::recover_with_stats(image, self.opts.clone())
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A cloneable serving handle over one replica's standby — see
/// [`Replica::reader`]. This is the unit the `ReadRouter` load-balances:
/// lock-free snapshot reads, the applied watermark (and a blocking wait on
/// it), and the received watermark for lag accounting.
#[derive(Clone)]
pub struct ReplicaReader {
    shared: Arc<ReplicaShared>,
}

impl std::fmt::Debug for ReplicaReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaReader")
            .field("applied", &self.applied())
            .finish()
    }
}

impl ReplicaReader {
    /// Lock-free snapshot read against the standby.
    pub fn read(&self, table: u32, key: u64) -> StorageResult<Option<Vec<u8>>> {
        let db = Arc::clone(&read(&self.shared.state).db);
        replay::snapshot_read(&db, table, key)
    }

    /// Applied (replay) watermark: the freshness this replica can serve.
    pub fn applied(&self) -> Lsn {
        Lsn(self.shared.replay.load(Ordering::Acquire))
    }

    /// Durably received (acked) watermark.
    pub fn received(&self) -> Lsn {
        Lsn(self.shared.received.load(Ordering::Acquire))
    }

    /// Block until the applied watermark reaches `lsn` or `timeout`
    /// elapses; returns the watermark at wake-up.
    pub fn wait_applied(&self, lsn: Lsn, timeout: Duration) -> Lsn {
        self.shared.wait_replay(lsn, timeout)
    }
}

impl Ingest {
    /// Ingest one delivered message, then replay everything received so
    /// far.
    fn deliver(&mut self, shared: &ReplicaShared, bytes: &[u8]) {
        self.ingest(shared, bytes);
        self.tel
            .gauge_set(self.m_reorder, self.pending.len() as i64);
        // Continuous redo over everything received so far.
        self.replay_at = replay_available(shared, self.replay_at);
        if self.tel.on() {
            let stale = lock(&shared.lag_since)
                .map(|t| runtime::monotonic_ns().saturating_sub(t))
                .unwrap_or(0);
            self.tel.gauge_set(self.m_staleness, stale as i64);
        }
    }

    /// Decode one wire message, restore sequence order, apply the
    /// contiguous run — appending log bytes, or installing a snapshot
    /// bootstrap (which rebases the replay cursor) — and ack the
    /// durably-received LSN.
    fn ingest(&mut self, shared: &ReplicaShared, bytes: &[u8]) {
        match WireMsg::decode(bytes) {
            Some(m) if m.seq() >= self.next_seq => {
                self.pending.insert(m.seq(), m);
            }
            Some(_) => {} // duplicate of an already-applied message
            None => {
                // Corrupt message: drop it. Its sequence number never
                // arrives, so the stream stops advancing cleanly at the gap
                // — nothing corrupt is ever appended or installed.
                shared.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Apply the contiguous run restored so far, then ack once.
        let mut advanced = false;
        while let Some(m) = self.pending.remove(&self.next_seq) {
            match m {
                WireMsg::Log(f) => {
                    let device = Arc::clone(&read(&shared.state).device);
                    let have = device.len();
                    let start = f.start_lsn.raw();
                    let end = f.end_lsn().raw();
                    if end > have {
                        // Skip any overlap with already-received bytes (a
                        // re-shipped prefix after reconnect), append the
                        // rest.
                        let skip = have.saturating_sub(start) as usize;
                        if start <= have && device.append(&f.bytes[skip..]).is_ok() {
                            advanced = true;
                        }
                    }
                }
                WireMsg::Snapshot(s) => {
                    if let Some(at) = install_snapshot(shared, &self.opts, &s) {
                        self.replay_at = at;
                        advanced = true;
                    }
                }
            }
            self.next_seq += 1;
        }
        if advanced {
            let received = read(&shared.state).device.len();
            shared.received.store(received, Ordering::Release);
            let mut lag = lock(&shared.lag_since);
            if lag.is_none() {
                *lag = Some(runtime::monotonic_ns());
            }
            drop(lag);
            // One cumulative ack per restored run: this is what the
            // primary's commit gate waits on.
            self.ack_tx.send(Lsn(received));
        }
    }
}

/// Re-seed the standby from a shipped checkpoint snapshot: fresh database
/// from the snapshot pages, log device rebased at the snapshot LSN. A
/// malformed snapshot counts as a corrupt frame (its gap stalls the stream,
/// like any other corruption). Returns the new replay cursor.
fn install_snapshot(shared: &ReplicaShared, opts: &DbOptions, s: &SnapshotFrame) -> Option<Lsn> {
    let snap = BaseSnapshot::decode(&s.body).or_else(|| {
        shared.corrupt_frames.fetch_add(1, Ordering::Relaxed);
        None
    })?;
    let db = replay::standby_from_snapshot(opts.clone(), &snap).ok()?;
    let mut state = write(&shared.state);
    // Never re-seed backwards: a stale snapshot (reordered behind a newer
    // one) would discard received bytes.
    if snap.start_lsn.raw() < state.device.len() {
        return None;
    }
    state.db = db;
    state.device = Arc::new(SimDevice::from_image(snap.start_lsn, Vec::new()));
    drop(state);
    // The status a waiter reads once the new frontier releases it must
    // already show the re-seed: count it and move `received` up first.
    shared.bootstraps.fetch_add(1, Ordering::Relaxed);
    shared
        .received
        .fetch_max(snap.start_lsn.raw(), Ordering::AcqRel);
    shared.publish_replay(snap.start_lsn);
    Some(snap.start_lsn)
}

/// Replay complete records in `[from, received)`; returns the new frontier.
/// Stops at an incomplete tail (more bytes may still arrive) or at a torn /
/// corrupt record (promotion truncates there).
fn replay_available(shared: &ReplicaShared, from: Lsn) -> Lsn {
    let (db, device) = {
        let state = read(&shared.state);
        (Arc::clone(&state.db), Arc::clone(&state.device))
    };
    let mut reader = LogReader::from_lsn(device.clone() as Arc<dyn LogDevice>, from);
    let mut at = from;
    // Stops at an incomplete tail or corrupt record alike (Ok(None)/Err).
    while let Ok(Some(rec)) = reader.next_record() {
        if rec.header.kind == aether_core::RecordKind::Commit {
            shared.commits_seen.fetch_add(1, Ordering::Relaxed);
        }
        if replay::apply_record(&db, &rec).unwrap_or(false) {
            shared.applied.fetch_add(1, Ordering::Relaxed);
        }
        at = rec.next_lsn();
    }
    shared.publish_replay(at);
    if at.raw() >= device.len() {
        *lock(&shared.lag_since) = None;
    }
    at
}
