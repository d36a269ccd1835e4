//! The database facade: transactions over tables, WAL through `aether-core`,
//! commit protocols, checkpoints, crash and recovery.

use crate::error::{StorageError, StorageResult};
use crate::lock::{LockConfig, LockId, LockManager, LockMode};
use crate::page::{PageId, Rid};
use crate::segmented::Segmented;
use crate::store::PageStore;
use crate::table::Table;
use crate::txn::{CommitOutcome, CommitProtocol, Transaction, TxnManager, TxnStatus, UndoEntry};
use crate::wal::{CheckpointPayload, ClrPayload, UpdatePayload};
use aether_core::commit::CommitToken;
use aether_core::device::LogDevice;
use aether_core::telemetry::{CounterId, HistId, Telemetry, Unit};
use aether_core::{
    BufferKind, DeviceKind, LogConfig, LogManager, Lsn, RecordKind, TelemetrySnapshot,
};
use std::sync::Arc;

/// How a commit stands when [`Db::commit_inner`] returns.
enum Fate {
    /// Durable (and replicated as the policy requires), or read-only.
    Durable,
    /// Locally durable, replication indeterminate.
    Unreplicated,
    /// Waits for the log's watermark (`AsyncCommit`, `Pipelined`).
    Pending,
}

/// Database construction options.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Log-buffer insertion algorithm.
    pub buffer: BufferKind,
    /// Log device class.
    pub device: DeviceKind,
    /// Log manager tuning.
    pub log_config: LogConfig,
    /// Commit protocol (the §3/§4 experiment axis).
    pub protocol: CommitProtocol,
    /// Lock-manager tuning.
    pub lock_config: LockConfig,
    /// Soft disk-pressure watermark: once the retained log footprint
    /// (bytes between low-water and durable) exceeds this, [`Db::try_begin`]
    /// kicks off an emergency checkpoint-and-truncate cycle in the
    /// background but keeps admitting transactions. `None` disables.
    pub log_soft_bytes: Option<u64>,
    /// Hard disk-pressure watermark: above this retained footprint,
    /// [`Db::try_begin`] rejects new transactions with
    /// [`aether_core::AetherError::LogFull`] until reclamation brings the
    /// footprint back down. `None` disables.
    pub log_hard_bytes: Option<u64>,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            buffer: BufferKind::Hybrid,
            device: DeviceKind::Ram,
            log_config: LogConfig::default(),
            protocol: CommitProtocol::Baseline,
            lock_config: LockConfig::default(),
            log_soft_bytes: None,
            log_hard_bytes: None,
        }
    }
}

/// What survives a crash: the *retained* durable log suffix (plus the
/// stream offset where it begins — the prefix below it was recycled behind
/// fuzzy checkpoints), the page store, and the schema (which a real system
/// would read from its catalog pages).
pub struct CrashImage {
    /// Stream offset (LSN) of `log_bytes[0]`: the log's low-water mark at
    /// crash time. Zero for a log that was never truncated.
    pub log_start: Lsn,
    /// Retained bytes of the log device at crash time (ring contents are
    /// lost, and so is everything below `log_start`).
    pub log_bytes: Vec<u8>,
    /// The page store at crash time: a copy of its page table that shares
    /// the stored images, which are never mutated.
    pub store: Arc<PageStore>,
    /// Schema: (record_size, dense_rows) per table id.
    pub schema: Vec<(usize, u64)>,
}

impl std::fmt::Debug for CrashImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashImage")
            .field("log_start", &self.log_start)
            .field("log_bytes", &self.log_bytes.len())
            .field("stored_pages", &self.store.len())
            .field("tables", &self.schema.len())
            .finish()
    }
}

/// Aggregate database counters (feed the Figure-2/7 time breakdowns): a
/// typed view of the `db.*` counters on the log's telemetry registry.
#[derive(Debug)]
pub struct DbStats {
    tel: Arc<Telemetry>,
    flush_wait_ns: CounterId,
    commits: CounterId,
    aborts: CounterId,
    admission_rejects: CounterId,
    emergency_checkpoints: CounterId,
}

impl DbStats {
    fn new(tel: &Arc<Telemetry>) -> DbStats {
        DbStats {
            tel: Arc::clone(tel),
            flush_wait_ns: tel.counter("db.flush_wait_ns", Unit::Nanos),
            commits: tel.counter("db.commits", Unit::Count),
            aborts: tel.counter("db.aborts", Unit::Count),
            admission_rejects: tel.counter("db.admission_rejects", Unit::Count),
            emergency_checkpoints: tel.counter("db.emergency_checkpoints", Unit::Count),
        }
    }

    /// Nanoseconds committing transactions spent blocked in the log flush
    /// (delays A + C of Figure 1; zero under flush pipelining).
    pub fn flush_wait_ns(&self) -> u64 {
        self.tel.count(self.flush_wait_ns)
    }
    /// Transactions committed (submitted; durability may lag for async
    /// protocols).
    pub fn commits(&self) -> u64 {
        self.tel.count(self.commits)
    }
    /// Transactions aborted.
    pub fn aborts(&self) -> u64 {
        self.tel.count(self.aborts)
    }
    /// Transactions refused at [`Db::try_begin`] because the retained log
    /// footprint crossed the hard watermark (admission control).
    pub fn admission_rejects(&self) -> u64 {
        self.tel.count(self.admission_rejects)
    }
    /// Emergency checkpoint-and-truncate cycles triggered by disk pressure.
    pub fn emergency_checkpoints(&self) -> u64 {
        self.tel.count(self.emergency_checkpoints)
    }
}

/// The storage manager facade.
pub struct Db {
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    /// The catalog: tables are never dropped, so a lookup takes no lock.
    tables: Segmented<Table>,
    txns: Arc<TxnManager>,
    store: Arc<PageStore>,
    opts: DbOptions,
    stats: DbStats,
    /// The redo low-water mark published by the last fuzzy checkpoint: the
    /// ARIES truncation point computed at checkpoint time. Everything
    /// strictly below it is recoverable from the page store alone.
    redo_low_water: aether_core::lsn::AtomicLsn,
    /// Ids of the storage-layer metrics registered on the log's telemetry.
    tel: DbTelIds,
    /// True while an emergency (disk-pressure) checkpoint cycle is running;
    /// CAS-guarded so concurrent `try_begin` calls spawn at most one.
    emergency_ckpt: std::sync::atomic::AtomicBool,
}

/// Storage-layer metric ids, registered once at [`Db::assemble`].
#[derive(Debug, Clone, Copy)]
struct DbTelIds {
    /// `db.commit_latency_ns` — commit entry to durable (per protocol).
    commit_latency_ns: HistId,
    /// `ckpt.cycles` — housekeeping cycles completed.
    ckpt_cycles: CounterId,
    /// `ckpt.cycle_ns` — flush + checkpoint + truncate latency per cycle.
    ckpt_cycle_ns: HistId,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("tables", &self.table_count())
            .field("protocol", &self.opts.protocol)
            .field("buffer", &self.opts.buffer)
            .finish()
    }
}

impl Db {
    /// Open an empty database with `opts`.
    pub fn open(opts: DbOptions) -> Arc<Db> {
        let log = Arc::new(
            LogManager::builder()
                .config(opts.log_config.clone())
                .buffer(opts.buffer)
                .device(opts.device.clone())
                .build(),
        );
        Self::assemble(opts, log, PageStore::new())
    }

    /// Open with a caller-supplied log device (crash tests share a
    /// [`aether_core::device::SimDevice`]).
    pub fn open_with_device(opts: DbOptions, device: Arc<dyn LogDevice>) -> Arc<Db> {
        let log = Arc::new(
            LogManager::builder()
                .config(opts.log_config.clone())
                .buffer(opts.buffer)
                .device_instance(device)
                .build(),
        );
        Self::assemble(opts, log, PageStore::new())
    }

    pub(crate) fn assemble(
        opts: DbOptions,
        log: Arc<LogManager>,
        store: Arc<PageStore>,
    ) -> Arc<Db> {
        let t = log.telemetry();
        let locks = LockManager::new(opts.lock_config.clone(), t);
        let stats = DbStats::new(t);
        let tel = DbTelIds {
            commit_latency_ns: t.histogram("db.commit_latency_ns", Unit::Nanos),
            ckpt_cycles: t.counter("ckpt.cycles", Unit::Count),
            ckpt_cycle_ns: t.histogram("ckpt.cycle_ns", Unit::Nanos),
        };
        let txns = Arc::new(TxnManager::watching(Arc::clone(log.pipeline())));
        Arc::new(Db {
            log,
            locks,
            tables: Segmented::new(8),
            txns,
            store,
            opts,
            stats,
            redo_low_water: aether_core::lsn::AtomicLsn::new(Lsn::ZERO),
            tel,
            emergency_ckpt: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// Full telemetry snapshot: the log's own snapshot, which holds the
    /// storage layer's counters too, plus the locks granted and the
    /// transactions active now, tagged with `scope`.
    pub fn telemetry_snapshot(&self, scope: &str) -> TelemetrySnapshot {
        let mut snap = self.log.telemetry_snapshot_scoped(scope);
        snap.push_gauge(
            "lock.granted",
            Unit::Count,
            self.locks.granted_count() as i64,
        );
        snap.push_gauge("txn.active", Unit::Count, self.txns.active_count() as i64);
        snap
    }

    /// The log manager (experiments read stats and watermarks from here).
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The page store.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Options the database was opened with.
    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// The transaction manager (ATT).
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    // ------------------------------------------------------------------
    // Schema
    // ------------------------------------------------------------------

    /// Create a table of `record_size`-byte records with `dense_rows` dense
    /// keys preallocated; returns the table id. Pages the store holds of
    /// that id (a standby's or a recovering database's) are its frames'
    /// starting images.
    pub fn create_table(&self, record_size: usize, dense_rows: u64) -> u32 {
        self.tables
            .push_with(|id| Table::new(id as u32, record_size, dense_rows, &self.store))
            as u32
    }

    /// Lock-free snapshot read: the latest committed-or-in-flight cell
    /// image, taken without a transaction, locks, or undo bookkeeping. On a
    /// standby this is the replica serving path (`ReadRouter` in
    /// `aether-repl`); on a primary it is the router's freshness-fallback —
    /// the primary's state is by definition never stale.
    pub fn snapshot_read(&self, table: u32, key: u64) -> StorageResult<Option<Vec<u8>>> {
        let t = self.table(table)?;
        Ok(t.rid_of(key).and_then(|rid| t.read(rid)))
    }

    /// Look up a table by id.
    pub fn table(&self, id: u32) -> StorageResult<&Table> {
        self.tables
            .get(id as usize)
            .ok_or_else(|| StorageError::InvalidRecord(format!("no table {id}")))
    }

    /// Bulk-load one record during setup (unlogged; finish with
    /// [`Db::setup_complete`]).
    pub fn load(&self, table: u32, key: u64, record: &[u8]) -> StorageResult<()> {
        self.table(table)?.load(key, record)?;
        Ok(())
    }

    /// Flush all pages and take a checkpoint: makes the loaded state durable
    /// so recovery never needs to replay the bulk load.
    pub fn setup_complete(&self) {
        self.flush_pages();
        self.checkpoint();
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        self.txns.begin()
    }

    /// Begin a transaction, subject to disk-pressure admission control.
    ///
    /// Compares the retained log footprint against the watermarks in
    /// [`DbOptions`]:
    ///
    /// * **Below soft** (or no watermarks configured): admit, exactly like
    ///   [`Db::begin`].
    /// * **Soft ≤ footprint < hard**: admit, but trigger one emergency
    ///   checkpoint-and-truncate cycle in the background (CAS-guarded so
    ///   concurrent callers spawn at most one).
    /// * **≥ hard**: reject with [`aether_core::AetherError::LogFull`] — a
    ///   *transient* error ([`StorageError::is_retryable`] is true) that
    ///   clears once reclamation catches up. The emergency cycle is also
    ///   triggered so the system digs itself out without new load.
    ///
    /// Serving tiers should route `Begin` and auto-commit requests through
    /// this; internal housekeeping (recovery, checkpoints) keeps using
    /// [`Db::begin`], which is never shed.
    pub fn try_begin(self: &Arc<Self>) -> StorageResult<Transaction> {
        let soft = self.opts.log_soft_bytes;
        let hard = self.opts.log_hard_bytes;
        if soft.is_none() && hard.is_none() {
            return Ok(self.begin());
        }
        let retained = self.log.retained_bytes();
        if let Some(limit) = hard {
            if retained >= limit {
                self.stats.tel.inc(self.stats.admission_rejects);
                self.kick_emergency_checkpoint();
                return Err(StorageError::Log(aether_core::AetherError::LogFull {
                    retained,
                    limit,
                }));
            }
        }
        if let Some(limit) = soft {
            if retained >= limit {
                self.kick_emergency_checkpoint();
            }
        }
        Ok(self.begin())
    }

    /// Launch one emergency checkpoint-and-truncate cycle if none is in
    /// flight. Under the real runtime the cycle runs on a detached
    /// "aether-emerg-ckpt" thread; under sim it runs inline on the caller
    /// (spawning requires the caller to be a sim actor, and inline execution
    /// keeps replays deterministic).
    fn kick_emergency_checkpoint(self: &Arc<Self>) {
        use std::sync::atomic::Ordering;
        if self
            .emergency_ckpt
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        self.stats.tel.inc(self.stats.emergency_checkpoints);
        let rt = self.log.config().runtime.clone();
        if rt.is_sim() {
            let _ = self.checkpoint_and_truncate();
            self.emergency_ckpt.store(false, Ordering::Release);
        } else {
            let db = Arc::clone(self);
            // Detached on purpose: admission control only needs the flag to
            // clear when the cycle ends, not the outcome.
            let _ = rt.spawn("aether-emerg-ckpt", move || {
                let _ = db.checkpoint_and_truncate();
                db.emergency_ckpt
                    .store(false, std::sync::atomic::Ordering::Release);
            });
        }
    }

    /// Read `key` (S row lock).
    pub fn read(&self, txn: &mut Transaction, table: u32, key: u64) -> StorageResult<Vec<u8>> {
        self.check_active(txn)?;
        let t = self.table(table)?;
        self.lock(txn, LockId::row(table, key), LockMode::S)?;
        let rid = t
            .rid_of(key)
            .ok_or(StorageError::KeyNotFound { table, key })?;
        t.read(rid).ok_or(StorageError::KeyNotFound { table, key })
    }

    /// Read `key` with an X row lock (read-for-update: avoids the S→X
    /// upgrade deadlock in read-modify-write transactions).
    pub fn read_for_update(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
    ) -> StorageResult<Vec<u8>> {
        self.check_active(txn)?;
        let t = self.table(table)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        let rid = t
            .rid_of(key)
            .ok_or(StorageError::KeyNotFound { table, key })?;
        t.read(rid).ok_or(StorageError::KeyNotFound { table, key })
    }

    /// Overwrite the record at `key` (X row lock; logs before/after).
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
        record: &[u8],
    ) -> StorageResult<()> {
        self.check_active(txn)?;
        let t = self.table(table)?;
        t.check_record(record)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        let rid = t
            .rid_of(key)
            .ok_or(StorageError::KeyNotFound { table, key })?;
        if !Self::read_before(txn, t, rid, true) {
            return Err(StorageError::KeyNotFound { table, key });
        }
        self.log_and_apply(txn, t, rid, Some(record));
        Ok(())
    }

    /// Read-modify-write convenience: `f` mutates the record in place.
    pub fn update_with<F: FnOnce(&mut [u8])>(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
        f: F,
    ) -> StorageResult<()> {
        let mut rec = self.read_for_update(txn, table, key)?;
        f(&mut rec);
        self.update(txn, table, key, &rec)
    }

    /// Insert a new record at `key` (X row lock).
    pub fn insert(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
        record: &[u8],
    ) -> StorageResult<()> {
        self.check_active(txn)?;
        let t = self.table(table)?;
        t.check_record(record)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        // Existence check.
        if let Some(rid) = t.rid_of(key) {
            if !Self::read_before(txn, t, rid, false) {
                return Err(StorageError::DuplicateKey { table, key });
            }
            // Dense slot exists but is empty: insert in place.
            self.log_and_apply(txn, t, rid, Some(record));
            return Ok(());
        }
        let rid = t.allocate_slot();
        if !t.index().insert(key, rid) {
            return Err(StorageError::DuplicateKey { table, key });
        }
        let empty = Self::read_before(txn, t, rid, false);
        assert!(empty, "append slot {rid:?} of table {table} is occupied");
        self.log_and_apply(txn, t, rid, Some(record));
        Ok(())
    }

    /// Delete the record at `key` (X row lock).
    pub fn delete(&self, txn: &mut Transaction, table: u32, key: u64) -> StorageResult<()> {
        self.check_active(txn)?;
        let t = self.table(table)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        let rid = t
            .rid_of(key)
            .ok_or(StorageError::KeyNotFound { table, key })?;
        if !Self::read_before(txn, t, rid, true) {
            return Err(StorageError::KeyNotFound { table, key });
        }
        self.log_and_apply(txn, t, rid, None);
        if key >= t.dense_rows {
            t.index().remove(key);
        }
        Ok(())
    }

    fn check_active(&self, txn: &Transaction) -> StorageResult<()> {
        if txn.is_active() {
            Ok(())
        } else {
            Err(StorageError::TxnNotActive(txn.id))
        }
    }

    fn lock(&self, txn: &mut Transaction, id: LockId, mode: LockMode) -> StorageResult<()> {
        self.locks.acquire(txn.id, id, mode)?;
        txn.note_lock(id);
        Ok(())
    }

    /// Read the cell at `rid` onto the end of `txn`'s image arena, as the
    /// before-image of the update about to be logged, if it holds a record
    /// exactly when `present`; returns whether it did. On `true`,
    /// [`Db::log_and_apply`] must follow.
    fn read_before(txn: &mut Transaction, t: &Table, rid: Rid, present: bool) -> bool {
        let at = txn.images.len();
        t.read_cell_into(rid, &mut txn.images);
        if (txn.images[at] == 1) != present {
            txn.images.truncate(at);
            return false;
        }
        true
    }

    /// Log an update of `rid` to `after` (a record, or `None` for an empty
    /// cell) whose before-image [`Db::read_before`] has just put at the end
    /// of `txn`'s image arena; remember the undo entry, and apply the
    /// after-image.
    ///
    /// The after-image is built behind the before-image in the same arena,
    /// and the record is serialized from there straight into the reserved
    /// log slot — no encode buffer, no allocation once the arena has grown:
    /// an update costs one copy of its after-image into the arena and one
    /// of each image into the ring.
    fn log_and_apply(&self, txn: &mut Transaction, t: &Table, rid: Rid, after: Option<&[u8]>) {
        let cell = t.geom.cell_size;
        let at = txn.images.len() - cell;
        match after {
            Some(record) => {
                txn.images.push(1);
                txn.images.extend_from_slice(record);
            }
            None => txn.images.resize(at + 2 * cell, 0),
        }
        let page = PageId {
            table: t.id,
            page_no: rid.page_no,
        };
        let (before, after) = txn.images[at..].split_at(cell);
        let payload = UpdatePayload {
            page,
            slot: rid.slot,
            before,
            after,
        };
        let (lsn, _) =
            self.log
                .insert_payload(RecordKind::Update, txn.id, txn.last_lsn(), &payload);
        self.txns.logged(txn, lsn);
        t.apply_cell(rid, &txn.images[at + cell..], lsn);
        txn.images.truncate(at + cell);
        txn.undo.push(UndoEntry {
            page,
            slot: rid.slot,
            update_lsn: lsn,
            at,
        });
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit per the configured protocol.
    pub fn commit(&self, txn: Transaction) -> StorageResult<CommitOutcome> {
        self.commit_tokened(txn).map(|(out, _)| out)
    }

    /// Commit and also return the session [`CommitToken`]: the commit
    /// record's end LSN in the log's total order. Threading the token into
    /// `aether-repl`'s `ReadRouter::read_at_least` yields read-your-writes
    /// on replica reads — any snapshot whose applied watermark reaches the
    /// token contains this commit. Read-only transactions return
    /// [`CommitToken::ZERO`] (they left nothing to observe).
    pub fn commit_tokened(&self, txn: Transaction) -> StorageResult<(CommitOutcome, CommitToken)> {
        let (fate, token) = self.commit_inner(txn)?;
        let outcome = match fate {
            Fate::Durable => CommitOutcome::Durable,
            Fate::Unreplicated => CommitOutcome::Unsafe,
            Fate::Pending if self.opts.protocol.sacrifices_durability() => CommitOutcome::Unsafe,
            Fate::Pending => CommitOutcome::Pipelined(self.log.handle(token.lsn())),
        };
        Ok((outcome, token))
    }

    /// Commit without a handle, for a caller that subscribes to the log's
    /// watermark itself (the wire server, the benchmark drivers). Returns
    /// the token and whether the commit still waits for the log: true for
    /// an `AsyncCommit` or `Pipelined` commit that logged, whose caller
    /// hands `token.lsn()` to its subscriber; false when it is durable now.
    pub fn commit_deferred(&self, txn: Transaction) -> StorageResult<(CommitToken, bool)> {
        let (fate, token) = self.commit_inner(txn)?;
        Ok((token, matches!(fate, Fate::Pending)))
    }

    fn commit_inner(&self, mut txn: Transaction) -> StorageResult<(Fate, CommitToken)> {
        self.check_active(&txn)?;
        let t_commit = self.log.telemetry().ts();

        // Read-only transactions: nothing to harden.
        if txn.undo.is_empty() {
            txn.status = TxnStatus::Committed;
            self.locks.release_all(txn.id, &txn.held);
            self.txns.finish(&txn);
            return Ok((Fate::Durable, CommitToken::ZERO));
        }

        let (_, end) =
            self.log
                .insert_payload::<[u8]>(RecordKind::Commit, txn.id, txn.last_lsn(), &[]);
        txn.status = TxnStatus::Precommitted;
        self.stats.tel.inc(self.stats.commits);
        let token = CommitToken::at(end);
        let protocol = self.opts.protocol;
        // §3, when locks drop: as soon as the commit record is buffered
        // (ELR), or only after the flush (Baseline: delay (B) of Figure 1).
        if protocol.early_release() {
            self.locks.release_all(txn.id, &txn.held);
        }
        // §4, who waits for the flush.
        match protocol {
            // The caller: only this transaction blocks on the I/O. Local
            // durability plus replica acks, per the log's durability policy
            // (plain flush_until when replication is off); `Ok(false)`
            // means a primary-failure simulation released the wait and the
            // commit's replicated fate is indeterminate.
            CommitProtocol::Baseline | CommitProtocol::Elr => {
                let t = aether_core::runtime::monotonic_ns();
                let replicated = self.log.wait_committed(end);
                let now = aether_core::runtime::monotonic_ns();
                self.stats
                    .tel
                    .add(self.stats.flush_wait_ns, now.saturating_sub(t));
                // Commit latency: entry to durable.
                if let Some(t0) = t_commit {
                    let tel = self.log.telemetry();
                    tel.record(self.tel.commit_latency_ns, now.saturating_sub(t0));
                }
                if !protocol.early_release() {
                    self.locks.release_all(txn.id, &txn.held);
                }
                // On `Err` the commit record never hardened: the log is
                // poisoned (or shut down). Locks are released and the txn
                // slot retired all the same — the transaction is dead either
                // way; the caller gets the typed error.
                self.txns.finish(&txn);
                let fate = if replicated? {
                    Fate::Durable
                } else {
                    Fate::Unreplicated
                };
                Ok((fate, token))
            }
            // Nobody: the flush daemon makes the record durable, the
            // transaction leaves the ATT when the log's watermark passes its
            // commit record, and whoever waits on the commit subscribes to
            // that watermark. Nothing is registered here.
            CommitProtocol::AsyncCommit | CommitProtocol::Pipelined => {
                self.log.note_commit(end);
                self.txns.finish_at(&txn, end);
                Ok((Fate::Pending, token))
            }
        }
    }

    /// Roll back: apply before-images in reverse, logging CLRs; then release
    /// locks. Safe at any point before commit.
    pub fn abort(&self, mut txn: Transaction) -> StorageResult<()> {
        self.check_active(&txn)?;
        // Entry i's undo-chain continuation is entry i-1's update LSN; each
        // CLR is serialized from the image arena (no clone, no encode
        // buffer).
        for i in (0..txn.undo.len()).rev() {
            let e = txn.undo[i];
            let t = self.table(e.page.table)?;
            let clr = ClrPayload {
                page: e.page,
                slot: e.slot,
                restored: txn.before_image(&e, t.geom.cell_size),
                undo_next: match i {
                    0 => Lsn::ZERO,
                    _ => txn.undo[i - 1].update_lsn,
                },
            };
            let lsn = self.compensate(t, txn.id, txn.last_lsn(), &clr);
            self.txns.logged(&mut txn, lsn);
        }
        self.log
            .insert_payload::<[u8]>(RecordKind::Abort, txn.id, txn.last_lsn(), &[]);
        txn.status = TxnStatus::Aborted;
        self.stats.tel.inc(self.stats.aborts);
        self.locks.release_all(txn.id, &txn.held);
        self.txns.finish(&txn);
        Ok(())
    }

    /// Undo one update of transaction `txn`, whose last record is at
    /// `prev`, in table `t`: fix the index for the cell `clr` restores, log
    /// `clr` chained to `prev`, apply its image; returns the CLR's LSN.
    /// Rollback and restart undo both take this one step.
    pub(crate) fn compensate(
        &self,
        t: &Table,
        txn: u64,
        prev: Lsn,
        clr: &ClrPayload<&[u8]>,
    ) -> Lsn {
        let rid = clr.rid();
        t.reindex_cell(rid, t.key_at(rid), clr.restored);
        let (lsn, _) = self.log.insert_payload(RecordKind::Clr, txn, prev, clr);
        t.apply_cell(rid, clr.restored, lsn);
        lsn
    }

    // ------------------------------------------------------------------
    // Checkpoints, crash, recovery
    // ------------------------------------------------------------------

    /// Write all dirty pages to the page store and mark them clean.
    pub fn flush_pages(&self) {
        for (_, t) in self.tables.iter() {
            let id = t.id;
            t.for_each_dirty(|page_no, frame| {
                self.store
                    .write(PageId { table: id, page_no }, frame.page_lsn, &frame.data);
                frame.mark_clean();
            });
        }
    }

    /// Take a fuzzy checkpoint: begin record, ATT + DPT snapshot, end
    /// record, flushed — then publish the checkpoint's redo low-water mark
    /// ([`Db::redo_low_water`]), the truncation point the log may be
    /// retired to. Returns the checkpoint-begin LSN.
    pub fn checkpoint(&self) -> Lsn {
        let (begin, _) =
            self.log
                .insert_payload::<[u8]>(RecordKind::CheckpointBegin, 0, Lsn::ZERO, &[]);
        let (att, att_floor) = self.txns.att_snapshot_with_floor();
        let payload = CheckpointPayload {
            att,
            dpt: self.dpt_snapshot(),
        };
        let (_, end) = self
            .log
            .insert_payload(RecordKind::CheckpointEnd, 0, Lsn::ZERO, &payload);
        // A poisoned log means this checkpoint never hardened — safe to
        // ignore here: truncation targets are clamped to the durable
        // watermark, so an unflushed checkpoint can never widen truncation.
        let _ = self.log.flush_until(end);
        // The published truncation point must honor the ATT as *captured*,
        // not the ATT as of now: a transaction this checkpoint lists as
        // active may have committed in the meantime, and recovery — which
        // seeds losers from the checkpoint record — still needs its whole
        // chain (commit included) to classify it correctly.
        let mut point = self.log_truncation_point();
        if let Some(floor) = att_floor {
            point = point.min(floor);
        }
        self.redo_low_water.fetch_max(point);
        begin
    }

    /// The redo low-water mark published by the last fuzzy checkpoint: the
    /// highest safe log-truncation point known. Recovery needs nothing
    /// strictly below it — every older update is in the page store and no
    /// active transaction's undo chain reaches below it.
    pub fn redo_low_water(&self) -> Lsn {
        self.redo_low_water.load()
    }

    /// One full housekeeping cycle: flush dirty pages, take a fuzzy
    /// checkpoint, and retire the log prefix through
    /// [`aether_core::LogManager::truncate_to`] (which refuses to outrun
    /// the slowest replica ack). Two-tier target: first the fresh
    /// checkpoint's redo low-water mark; if a replica has not yet
    /// acknowledged that far — under replication the checkpoint's own
    /// records are always still in flight — fall back to the *previous*
    /// checkpoint's mark, which any keeping-up replica acked long ago
    /// (the keep-two-checkpoints policy of production WAL managers). Either
    /// way the on-disk log and the recovery scan stay bounded by checkpoint
    /// distance instead of growing with uptime; only a genuinely lagging
    /// replica pins the log.
    pub fn checkpoint_and_truncate(&self) -> aether_core::TruncationOutcome {
        let tel = self.log.telemetry();
        let t0 = tel.ts();
        let prev = self.redo_low_water();
        self.flush_pages();
        self.checkpoint();
        let mut out = self.log.truncate_to(self.redo_low_water());
        if out.held_back_by_replica && prev > self.log.low_water() {
            out = self.log.truncate_to(prev);
        }
        tel.inc(self.tel.ckpt_cycles);
        if let Some(t0) = t0 {
            let dt = aether_core::runtime::monotonic_ns().saturating_sub(t0);
            tel.record(self.tel.ckpt_cycle_ns, dt);
        }
        out
    }

    /// The ARIES log-truncation point: everything strictly below this LSN
    /// can be recycled because (a) every page it might redo has been flushed
    /// (no dirty page's `rec_lsn` is below it) and (b) no active transaction
    /// might undo through it (no active txn's first record is below it).
    pub fn log_truncation_point(&self) -> Lsn {
        let mut point = self.log.durable_lsn();
        for (_, rec_lsn) in self.dpt_snapshot() {
            point = point.min(rec_lsn);
        }
        if let Some(oldest) = self.txns.oldest_first_lsn() {
            point = point.min(oldest);
        }
        point
    }

    /// The live dirty-page table across all tables: `(packed page id,
    /// recovery LSN)` per dirty page. What fuzzy checkpoints record and the
    /// truncation point is computed from.
    pub fn dpt_snapshot(&self) -> Vec<(u64, Lsn)> {
        let mut dpt = Vec::new();
        for (_, t) in self.tables.iter() {
            dpt.extend(t.dpt_snapshot());
        }
        dpt
    }

    /// The schema as (record_size, dense_rows) per table id — what a real
    /// system would read from catalog pages. Base backups for replicas and
    /// crash images both carry it.
    pub fn schema(&self) -> Vec<(usize, u64)> {
        self.tables
            .iter()
            .map(|(_, t)| (t.geom.record_size, t.dense_rows))
            .collect()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Capture what would survive a power failure right now: the synced
    /// prefix of the retained log (with its start offset — the truncated
    /// prefix is gone, as on a real disk) and the page store. Bytes written
    /// but not yet synced are lost with the in-memory ring, frames, and lock
    /// state. Panics if the log device cannot snapshot (Null).
    pub fn crash(&self) -> CrashImage {
        let (log_start, log_bytes) = self
            .log
            .device()
            .snapshot()
            .expect("crash simulation needs a snapshot-capable log device");
        CrashImage {
            log_start,
            log_bytes,
            store: self.store.deep_clone(),
            schema: self.schema(),
        }
    }

    /// Recover a database from a crash image (ARIES analysis/redo/undo).
    /// See [`crate::recovery`] for the algorithm.
    pub fn recover(image: CrashImage, opts: DbOptions) -> StorageResult<Arc<Db>> {
        crate::recovery::recover(image, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::commit::Tally;

    fn rec(key: u64, size: usize, fill: u8) -> Vec<u8> {
        let mut r = vec![fill; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    fn tiny_db(protocol: CommitProtocol) -> Arc<Db> {
        let opts = DbOptions {
            protocol,
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        };
        let db = Db::open(opts);
        let t = db.create_table(40, 100);
        assert_eq!(t, 0);
        for k in 0..100u64 {
            db.load(0, k, &rec(k, 40, 1)).unwrap();
        }
        db.setup_complete();
        db
    }

    #[test]
    fn read_update_commit_roundtrip() {
        let db = tiny_db(CommitProtocol::Baseline);
        let mut txn = db.begin();
        let before = db.read(&mut txn, 0, 5).unwrap();
        assert_eq!(before[8], 1);
        db.update_with(&mut txn, 0, 5, |r| r[8] = 42).unwrap();
        let out = db.commit(txn).unwrap();
        assert!(out.is_durable_now());
        let mut txn2 = db.begin();
        assert_eq!(db.read(&mut txn2, 0, 5).unwrap()[8], 42);
        db.commit(txn2).unwrap();
        assert_eq!(db.locks().granted_count(), 0);
        assert_eq!(db.txn_manager().active_count(), 0);
    }

    #[test]
    fn abort_restores_before_images() {
        let db = tiny_db(CommitProtocol::Baseline);
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 7, |r| r[8] = 99).unwrap();
        db.update_with(&mut txn, 0, 8, |r| r[8] = 98).unwrap();
        db.abort(txn).unwrap();
        let mut t2 = db.begin();
        assert_eq!(db.read(&mut t2, 0, 7).unwrap()[8], 1);
        assert_eq!(db.read(&mut t2, 0, 8).unwrap()[8], 1);
        db.commit(t2).unwrap();
        assert_eq!(db.locks().granted_count(), 0);
    }

    #[test]
    fn insert_then_delete_with_index() {
        let db = tiny_db(CommitProtocol::Elr);
        let key = 1_000u64;
        let mut txn = db.begin();
        db.insert(&mut txn, 0, key, &rec(key, 40, 9)).unwrap();
        db.commit(txn).unwrap();
        let mut t2 = db.begin();
        assert_eq!(db.read(&mut t2, 0, key).unwrap()[8], 9);
        db.delete(&mut t2, 0, key).unwrap();
        db.commit(t2).unwrap();
        let mut t3 = db.begin();
        assert!(matches!(
            db.read(&mut t3, 0, key),
            Err(StorageError::KeyNotFound { .. })
        ));
        db.commit(t3).unwrap();
    }

    #[test]
    fn abort_of_insert_removes_index_entry() {
        let db = tiny_db(CommitProtocol::Baseline);
        let key = 5_000u64;
        let mut txn = db.begin();
        db.insert(&mut txn, 0, key, &rec(key, 40, 3)).unwrap();
        db.abort(txn).unwrap();
        assert!(db.table(0).unwrap().rid_of(key).is_none());
        // Re-insert works after the aborted one.
        let mut t2 = db.begin();
        db.insert(&mut t2, 0, key, &rec(key, 40, 4)).unwrap();
        db.commit(t2).unwrap();
        let mut t3 = db.begin();
        assert_eq!(db.read(&mut t3, 0, key).unwrap()[8], 4);
        db.commit(t3).unwrap();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let db = tiny_db(CommitProtocol::Baseline);
        let mut txn = db.begin();
        assert!(matches!(
            db.insert(&mut txn, 0, 5, &rec(5, 40, 2)),
            Err(StorageError::DuplicateKey { .. })
        ));
        db.abort(txn).unwrap();
    }

    #[test]
    fn pipelined_commit_completes_via_handle() {
        let db = tiny_db(CommitProtocol::Pipelined);
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 3, |r| r[8] = 77).unwrap();
        let (out, token) = db.commit_tokened(txn).unwrap();
        match out {
            CommitOutcome::Pipelined(h) => assert!(h.wait()),
            other => panic!("expected pipelined outcome, got {other:?}"),
        }
        assert!(db.log().commit_lsn() >= token.lsn());
        assert_eq!(db.txn_manager().active_count(), 0);
    }

    #[test]
    fn one_snapshot_with_telemetry_off_carries_every_layers_counts() {
        let db = tiny_db(CommitProtocol::Pipelined);
        assert!(!db.log().telemetry().on());
        // A second transaction blocks on the first one's row lock.
        let mut a = db.begin();
        db.update_with(&mut a, 0, 1, |r| r[8] = 2).unwrap();
        std::thread::scope(|s| {
            let b = s.spawn(|| {
                let mut b = db.begin();
                db.update_with(&mut b, 0, 1, |r| r[8] = 3).unwrap();
                db.commit(b).unwrap();
            });
            while db.locks().blocked_acquires() == 0 {
                std::thread::yield_now();
            }
            db.commit(a).unwrap();
            b.join().unwrap();
        });
        // A watched commit, resolved durable by a flush.
        let tally = Arc::new(Tally::default());
        let pipeline = db.log().pipeline();
        pipeline.subscribe(tally.clone());
        let mut c = db.begin();
        db.update_with(&mut c, 0, 2, |r| r[8] = 4).unwrap();
        let (token, _) = db.commit_deferred(c).unwrap();
        tally.add(token.lsn());
        pipeline.watch(&*tally, token.lsn());
        assert!(tally.wait_settled(Some(std::time::Duration::from_secs(10))));
        db.checkpoint_and_truncate();

        let snap = db.telemetry_snapshot("off");
        for name in [
            "log.inserts",
            "flush.flushes",
            "commit.submitted",
            "db.commits",
            "lock.blocked_acquires",
            "truncation.truncations",
        ] {
            assert!(snap.counter(name) > Some(0), "{name}: {snap:?}");
        }
        assert_eq!(snap.counter("db.commits"), Some(db.stats().commits()));
    }

    #[test]
    fn committing_an_inactive_transaction_is_refused() {
        for protocol in CommitProtocol::ALL {
            let db = tiny_db(protocol);
            for deferred in [false, true] {
                let mut txn = db.begin();
                txn.status = TxnStatus::Committed;
                let r = if deferred {
                    db.commit_deferred(txn).map(|_| ())
                } else {
                    db.commit_tokened(txn).map(|_| ())
                };
                assert!(
                    matches!(r, Err(StorageError::TxnNotActive(_))),
                    "{protocol:?}"
                );
            }
        }
    }

    #[test]
    fn an_async_commit_leaves_the_att_once_durable() {
        // No handle is kept and nothing is handed back: the slot settles by
        // the watermark alone, and a new transaction may claim it.
        for protocol in [CommitProtocol::AsyncCommit, CommitProtocol::Pipelined] {
            let device = Arc::new(aether_core::device::FaultDevice::new(
                Arc::new(aether_core::device::SimDevice::new(
                    std::time::Duration::ZERO,
                )),
                &[],
            ));
            let opts = DbOptions {
                protocol,
                ..DbOptions::default()
            };
            let db = Db::open_with_device(opts, device.clone());
            db.create_table(40, 8);
            db.load(0, 1, &rec(1, 40, 0)).unwrap();
            db.setup_complete();
            device.arm(aether_core::device::DeviceFault::HoldSync(None));
            let mut txn = db.begin();
            db.update_with(&mut txn, 0, 1, |r| r[8] = 9).unwrap();
            let (token, pending) = db.commit_deferred(txn).unwrap();
            assert!(pending, "{protocol:?}");
            assert_eq!(db.txn_manager().active_count(), 1, "listed until durable");
            let (att, floor) = db.txn_manager().att_snapshot_with_floor();
            assert_eq!(att.len(), 1);
            assert!(floor.is_some());
            device.release();
            db.log().flush_all().unwrap();
            assert!(db.log().durable_lsn() >= token.lsn());
            assert_eq!(db.txn_manager().active_count(), 0, "{protocol:?}");
            let t = db.begin();
            assert_eq!(db.txn_manager().active_count(), 1);
            db.commit(t).unwrap();
        }
    }

    #[test]
    fn async_commit_is_marked_unsafe() {
        let db = tiny_db(CommitProtocol::AsyncCommit);
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 2, |r| r[8] = 50).unwrap();
        let out = db.commit(txn).unwrap();
        assert!(matches!(out, CommitOutcome::Unsafe));
        // The update is visible immediately even though durability lags.
        let mut t2 = db.begin();
        assert_eq!(db.read(&mut t2, 0, 2).unwrap()[8], 50);
        db.commit(t2).unwrap();
    }

    #[test]
    fn read_only_commit_is_free() {
        let db = tiny_db(CommitProtocol::Baseline);
        let flushes_before = db.log().flush_count();
        let mut txn = db.begin();
        let _ = db.read(&mut txn, 0, 1).unwrap();
        let out = db.commit(txn).unwrap();
        assert!(out.is_durable_now());
        assert_eq!(
            db.log().flush_count(),
            flushes_before,
            "no flush for RO txn"
        );
    }

    #[test]
    fn elr_releases_locks_before_flush() {
        // With a slow device, an ELR writer's locks must be available to a
        // second transaction well before the writer's flush completes.
        let opts = DbOptions {
            protocol: CommitProtocol::Elr,
            device: DeviceKind::CustomUs(20_000), // 20ms sync
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        };
        let db = Db::open(opts);
        db.create_table(40, 10);
        for k in 0..10u64 {
            db.load(0, k, &rec(k, 40, 1)).unwrap();
        }
        db.setup_complete();

        let db2 = Arc::clone(&db);
        let start = aether_core::runtime::monotonic_ns();
        let committer = std::thread::spawn(move || {
            let mut txn = db2.begin();
            db2.update_with(&mut txn, 0, 0, |r| r[8] = 2).unwrap();
            db2.commit(txn).unwrap(); // blocks ~20ms on flush
        });
        // Give the committer time to insert its commit record and release.
        aether_core::runtime::sleep(std::time::Duration::from_millis(5));
        let mut txn = db.begin();
        let got = db.read_for_update(&mut txn, 0, 0);
        let waited_ms = (aether_core::runtime::monotonic_ns() - start) / 1_000_000;
        committer.join().unwrap();
        got.unwrap();
        db.abort(txn).unwrap();
        assert!(
            waited_ms < 18,
            "ELR should hand over the lock before the 20ms flush finishes (waited {waited_ms}ms)"
        );
    }

    #[test]
    fn truncation_point_tracks_dirty_pages_and_active_txns() {
        let db = tiny_db(CommitProtocol::Baseline);
        // Clean DB, no active txns: truncation point == durable end.
        db.flush_pages();
        let clean_point = db.log_truncation_point();
        assert_eq!(clean_point, db.log().durable_lsn());
        // An active transaction pins the point at its first record.
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 1, |r| r[8] = 9).unwrap();
        let first = txn.first_lsn().unwrap();
        assert!(db.log_truncation_point() <= first);
        db.commit(txn).unwrap();
        // Dirty pages pin it at their rec_lsn until flushed.
        let dirty_point = db.log_truncation_point();
        assert!(dirty_point <= first);
        db.flush_pages();
        assert_eq!(db.log_truncation_point(), db.log().durable_lsn());
    }

    #[test]
    fn checkpoint_writes_att_and_dpt() {
        let db = tiny_db(CommitProtocol::Baseline);
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 1, |r| r[8] = 9).unwrap();
        // Checkpoint while txn is active and page dirty.
        db.checkpoint();
        db.commit(txn).unwrap();
        // Find the checkpoint-end record in the log.
        let recs = db.log().reader().read_all().unwrap();
        let cp = recs
            .iter()
            .rev()
            .find(|r| r.header.kind == RecordKind::CheckpointEnd)
            .expect("checkpoint end present");
        let payload = CheckpointPayload::decode(&cp.payload).unwrap();
        assert_eq!(payload.att.len(), 1, "one active txn at checkpoint");
        assert!(!payload.dpt.is_empty(), "dirty page recorded");
    }
}
