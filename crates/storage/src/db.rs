//! The database facade: transactions over tables, WAL through `aether-core`,
//! commit protocols, checkpoints, crash and recovery.

use crate::error::{StorageError, StorageResult};
use crate::lock::{LockConfig, LockId, LockManager, LockMode};
use crate::page::{Frame, PageId, Rid};
use crate::recovery::Redo;
use crate::segmented::Segmented;
use crate::store::PageStore;
use crate::table::Table;
use crate::txn::{CommitOutcome, CommitProtocol, Transaction, TxnManager, Write};
use crate::wal::UpdateCommitPayload;
use aether_core::commit::CommitToken;
use aether_core::device::LogDevice;
use aether_core::record::{on_log_size, HEADER_SIZE, MAX_PAYLOAD};
use aether_core::runtime::write;
use aether_core::telemetry::{CounterId, HistId, Telemetry, Unit};
use aether_core::{
    BufferKind, DeviceKind, LogConfig, LogManager, Lsn, RecordKind, TelemetrySnapshot,
};
use std::sync::{Arc, RwLockWriteGuard};

/// The most statements [`Db::update_commit_run`] runs as one.
pub const RUN_MAX: usize = 16;

/// What [`Db::update_commit_run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// How many of the items it ran, at least one: the rest are the next
    /// run's. `out[..done]` holds their outcomes.
    pub done: usize,
    /// Whether its commits still wait for the log: they were logged under
    /// `AsyncCommit` or `Pipelined`, and their caller watches their tokens
    /// on the log's watermark.
    pub pending: bool,
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

/// What survives a crash, frozen: the synced prefix of the *retained* log
/// (plus the stream offset where it begins — the prefix below it was
/// recycled behind checkpoints), the page store, and the schema
/// (which a real system would read from its catalog pages). Tests and the
/// benchmark cut it and hand it to [`Db::recover`], which opens over a
/// device rebuilt from its bytes; a promotion needs none, it recovers over
/// the replica's receive log in place.
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
    pub(crate) log: Arc<LogManager>,
    locks: Arc<LockManager>,
    /// The catalog: tables are never dropped, so a lookup takes no lock.
    pub(crate) tables: Segmented<Table>,
    txns: Arc<TxnManager>,
    pub(crate) store: Arc<PageStore>,
    opts: DbOptions,
    stats: DbStats,
    /// The redo low-water mark published by the last checkpoint: the
    /// truncation point computed at checkpoint time. Everything
    /// strictly below it is recoverable from the page store alone.
    pub(crate) redo_low_water: aether_core::lsn::AtomicLsn,
    /// Ids of the storage-layer metrics registered on the log's telemetry.
    pub(crate) tel: DbTelIds,
    /// True while an emergency (disk-pressure) checkpoint cycle is running;
    /// CAS-guarded so concurrent `try_begin` calls spawn at most one.
    emergency_ckpt: std::sync::atomic::AtomicBool,
}

/// Storage-layer metric ids, registered once at [`Db::assemble`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct DbTelIds {
    /// `db.commit_latency_ns` — commit entry to durable (per protocol).
    commit_latency_ns: HistId,
    /// `ckpt.cycles` — housekeeping cycles completed.
    pub(crate) ckpt_cycles: CounterId,
    /// `ckpt.cycle_ns` — flush + checkpoint + truncate latency per cycle.
    pub(crate) ckpt_cycle_ns: HistId,
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
    /// Open an empty database with `opts`, over a new device of
    /// `opts.device`'s kind.
    pub fn open(opts: DbOptions) -> Arc<Db> {
        let device = opts.device.build().expect("the log device");
        Self::open_with_device(opts, device)
    }

    /// Open over a caller-supplied log device (crash tests share a
    /// [`aether_core::device::SimDevice`]) and an empty page store: a new
    /// database on an empty device. A device that holds log bytes is
    /// recovered ([`Db::open_on`]).
    pub fn open_with_device(opts: DbOptions, device: Arc<dyn LogDevice>) -> Arc<Db> {
        let (db, _) = Self::open_on(Redo::new(device), PageStore::new(), &[], opts)
            .expect("open the database");
        db
    }

    /// Build the database around a log just built over its device; only
    /// [`Db::open_on`] calls it.
    pub(crate) fn assemble(
        opts: DbOptions,
        log: Arc<LogManager>,
        store: Arc<PageStore>,
        tables: Segmented<Table>,
    ) -> Arc<Db> {
        let t = log.telemetry();
        let locks = LockManager::new(opts.lock_config.clone(), t);
        let stats = DbStats::new(t);
        let tel = DbTelIds {
            commit_latency_ns: t.histogram("db.commit_latency_ns", Unit::Nanos),
            ckpt_cycles: t.counter("ckpt.cycles", Unit::Count),
            ckpt_cycle_ns: t.histogram("ckpt.cycle_ns", Unit::Nanos),
        };
        Arc::new(Db {
            log,
            locks,
            tables,
            txns: Arc::new(TxnManager::new()),
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

    /// The transaction manager: ids and the count of open transactions.
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

    /// Lock-free snapshot read: the latest committed cell image, taken
    /// without a transaction or locks. On a standby this is the replica
    /// serving path (`ReadRouter` in `aether-repl`); on a primary it is the
    /// router's freshness-fallback. It never shows an open transaction's
    /// write: writes reach a page only at commit. On a primary it can show
    /// a pre-committed one before it is durable (a commit writes its cells
    /// once its record is in the log buffer, and ELR releases its locks
    /// before the flush), so a reader can see a value that a crash then
    /// loses.
    pub fn snapshot_read(&self, table: u32, key: u64) -> StorageResult<Option<Vec<u8>>> {
        let t = self.table(table)?;
        Ok(t.rid_of(key).and_then(|rid| t.read(rid)))
    }

    /// Look up a table by id.
    pub fn table(&self, id: u32) -> StorageResult<&Table> {
        table_in(&self.tables, id)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Bulk-load one record during setup (unlogged; finish with
    /// [`Db::setup_complete`]).
    pub fn load(&self, table: u32, key: u64, record: &[u8]) -> StorageResult<()> {
        self.table(table)?.load(key, record)?;
        Ok(())
    }

    /// Flush all pages and publish the truncation point: makes the loaded
    /// state durable, so recovery never needs to replay the bulk load.
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
        self.admit()?;
        Ok(self.begin())
    }

    /// The admission check of [`Db::try_begin`] and [`Db::update_commit_run`].
    fn admit(self: &Arc<Self>) -> StorageResult<()> {
        let soft = self.opts.log_soft_bytes;
        let hard = self.opts.log_hard_bytes;
        if soft.is_none() && hard.is_none() {
            return Ok(());
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
        Ok(())
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

    /// Read `key` (S row lock): the transaction's own write if it wrote it,
    /// else the committed value.
    pub fn read(&self, txn: &mut Transaction, table: u32, key: u64) -> StorageResult<Vec<u8>> {
        let t = self.table(table)?;
        self.lock(txn, LockId::row(table, key), LockMode::S)?;
        Self::read_locked(txn, t, key)
    }

    /// Read `key` with an X row lock (read-for-update: avoids the S→X
    /// upgrade deadlock in read-modify-write transactions).
    pub fn read_for_update(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
    ) -> StorageResult<Vec<u8>> {
        let t = self.table(table)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        Self::read_locked(txn, t, key)
    }

    /// `key` as `txn` sees it, under its lock.
    fn read_locked(txn: &Transaction, t: &Table, key: u64) -> StorageResult<Vec<u8>> {
        let missing = || StorageError::KeyNotFound { table: t.id, key };
        let rid = t.rid_of(key).ok_or_else(missing)?;
        match txn.write_at(t.id, rid) {
            Some(i) => txn.after(i, t.geom.record_size).map(<[u8]>::to_vec),
            None => t.read(rid),
        }
        .ok_or_else(missing)
    }

    /// Whether the cell at `rid` holds a record as `txn` sees it.
    fn holds(txn: &Transaction, t: &Table, rid: Rid) -> bool {
        match txn.write_at(t.id, rid) {
            Some(i) => txn.writes[i].at.is_some(),
            None => t.key_at(rid).is_some(),
        }
    }

    /// Overwrite the record at `key` (X row lock). The new record waits in
    /// the transaction's write set until it commits.
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
        record: &[u8],
    ) -> StorageResult<()> {
        let t = self.table(table)?;
        t.check_record(record)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        let rid = t
            .rid_of(key)
            .filter(|&rid| Self::holds(txn, t, rid))
            .ok_or(StorageError::KeyNotFound { table, key })?;
        self.write(txn, t, key, rid, Some(record))
    }

    /// Run a prefix of `items`, `(key, record)` overwrites of `table`, as
    /// one-record transactions logged together: the wire's pipelined
    /// auto-commits. Each statement is a transaction of its own, with its
    /// own id and X row lock, that commits in the one
    /// [`RecordKind::UpdateCommit`] record it logs; `out[i]` gets statement
    /// `i`'s commit token, or why it failed and logged nothing. The log
    /// bytes are those of the statements run one by one.
    ///
    /// What the run shares: one admission check (its refusal fails only the
    /// first statement), one `fetch_add` of ids, the commit body of
    /// [`Db::commit`] (`Db::log_commits`: one reservation of the log's
    /// insert lock for every record, one release), and one commit tail
    /// (`Db::harden`: one lock release sweep, one wait or one flush
    /// registration). The run holds nothing until its first lock, which may
    /// wait; every later lock is taken only if it is free at once
    /// ([`LockManager::try_grant`]), and a refusal ends the run before that
    /// statement, so a key repeated in the run or held by an open
    /// transaction waits in the next run, not in this one behind its own
    /// locks. The presence checks run under the page latches.
    ///
    /// Runs at most [`RUN_MAX`] statements and an eighth of the log's ring,
    /// and at least one; allocates nothing.
    pub fn update_commit_run(
        self: &Arc<Self>,
        table: u32,
        items: &[(u64, &[u8])],
        out: &mut [StorageResult<CommitToken>],
    ) -> RunOutcome {
        let t = match self.admit().and_then(|()| self.table(table)) {
            Ok(t) => t,
            Err(e) => {
                out[0] = Err(e);
                return RunOutcome {
                    done: 1,
                    pending: false,
                };
            }
        };
        let payload_len = UpdateCommitPayload::<&[u8]>::len_for(t.geom.cell_size);
        let rec_len = on_log_size(payload_len) as u64;
        let fit = (self.log.buffer().core().capacity() / 8 / rec_len).clamp(1, RUN_MAX as u64);
        let items = &items[..items.len().min(fit as usize)];
        let first_id = self.txns.next_ids(items.len() as u64);
        let row = |i: usize| LockId::row(table, items[i].0);

        // Locks: `rids[i]` is set while statement `i` holds its lock.
        let mut rids = [None::<Rid>; RUN_MAX];
        let mut done = items.len();
        for (i, &(key, record)) in items.iter().enumerate() {
            if let Err(e) = t.check_record(record) {
                out[i] = Err(e);
                continue;
            }
            let id = first_id + i as u64;
            if rids[..i].iter().all(Option::is_none) {
                if let Err(e) = self.locks.acquire(id, row(i), LockMode::X) {
                    out[i] = Err(e);
                    continue;
                }
            } else if !self.locks.try_grant(id, row(i), LockMode::X) {
                done = i;
                break;
            }
            rids[i] = t.rid_of(key);
            if rids[i].is_none() {
                self.locks.release(id, row(i));
                out[i] = Err(StorageError::KeyNotFound { table, key });
            }
        }

        // Latches, in page order, then the presence checks under them.
        let mut pages = [0u32; RUN_MAX];
        let mut np = 0;
        for rid in rids[..done].iter().flatten() {
            if !pages[..np].contains(&rid.page_no) {
                pages[np] = rid.page_no;
                np += 1;
            }
        }
        pages[..np].sort_unstable();
        let mut latches = Latches::default();
        for &page_no in &pages[..np] {
            latches.add(t, page_no);
        }
        // `held[..n]`: the statements that log, in statement order.
        let mut held = [0usize; RUN_MAX];
        let mut n = 0;
        for i in 0..done {
            let Some(rid) = rids[i] else { continue };
            let g = latches.frame(PageId {
                table,
                page_no: rid.page_no,
            });
            if g.data[t.geom.offset(rid.slot)] == 1 {
                held[n] = i;
                n += 1;
            } else {
                rids[i] = None;
                self.locks.release(first_id + i as u64, row(i));
                out[i] = Err(StorageError::KeyNotFound {
                    table,
                    key: items[i].0,
                });
            }
        }
        if n == 0 {
            return RunOutcome {
                done,
                pending: false,
            };
        }
        let mut last = Lsn::ZERO;
        self.log_commits(
            &mut latches,
            n,
            |r| first_id + held[r] as u64,
            |r| {
                let i = held[r];
                std::iter::once((t, rids[i].expect("held"), Some(items[i].1)))
            },
            |r, end| {
                out[held[r]] = Ok(CommitToken::at(end));
                last = end;
            },
        );
        drop(latches);

        // Their commit stage begins once their records are in the log.
        let t_commit = self.log.telemetry().ts();
        let hardened = self.harden(n, last, t_commit, || {
            for &i in &held[..n] {
                self.locks.release(first_id + i as u64, row(i));
            }
        });
        let pending = match hardened {
            Ok(_) => matches!(
                self.opts.protocol,
                CommitProtocol::AsyncCommit | CommitProtocol::Pipelined
            ),
            // The wait for the log failed: each commit not durable by now
            // never will be.
            Err(_) => {
                let durable = self.log.durable_lsn();
                for o in &mut out[..done] {
                    if matches!(o, Ok(token) if token.lsn() > durable) {
                        *o = Err(self.log_closed());
                    }
                }
                false
            }
        };
        RunOutcome { done, pending }
    }

    /// Why a wait for the log ended short: it is poisoned or shut down.
    fn log_closed(&self) -> StorageError {
        StorageError::Log(match self.log.buffer().core().poison_reason() {
            Some(reason) => aether_core::AetherError::Poisoned {
                reason: reason.to_string(),
            },
            None => aether_core::AetherError::Shutdown,
        })
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

    /// Insert a new record at `key` (X row lock). An appended key gets its
    /// slot and its index entry now, so the transaction and its later
    /// statements find it; its cell stays empty until the commit.
    pub fn insert(
        &self,
        txn: &mut Transaction,
        table: u32,
        key: u64,
        record: &[u8],
    ) -> StorageResult<()> {
        let t = self.table(table)?;
        t.check_record(record)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        let duplicate = StorageError::DuplicateKey { table, key };
        // A slot the key maps to but that is empty: insert in place.
        if let Some(rid) = t.rid_of(key) {
            if Self::holds(txn, t, rid) {
                return Err(duplicate);
            }
            return self.write(txn, t, key, rid, Some(record));
        }
        self.record_len_with(txn, t)?;
        let rid = t.allocate_slot();
        if !t.index().insert(key, rid) {
            return Err(duplicate);
        }
        self.write(txn, t, key, rid, Some(record))
    }

    /// Delete the record at `key` (X row lock).
    pub fn delete(&self, txn: &mut Transaction, table: u32, key: u64) -> StorageResult<()> {
        let t = self.table(table)?;
        self.lock(txn, LockId::row(table, key), LockMode::X)?;
        let rid = t
            .rid_of(key)
            .filter(|&rid| Self::holds(txn, t, rid))
            .ok_or(StorageError::KeyNotFound { table, key })?;
        self.write(txn, t, key, rid, None)
    }

    fn lock(&self, txn: &mut Transaction, id: LockId, mode: LockMode) -> StorageResult<()> {
        self.locks.acquire(txn.id, id, mode)?;
        txn.note_lock(id);
        Ok(())
    }

    /// The payload `txn`'s commit record has once it writes one more cell
    /// of `t`, or the typed refusal if one record cannot hold it: at most
    /// [`MAX_PAYLOAD`], and at most an eighth of the log's ring, the most
    /// one reservation may take.
    fn record_len_with(&self, txn: &Transaction, t: &Table) -> StorageResult<usize> {
        let bytes = txn.record_len + UpdateCommitPayload::<&[u8]>::len_for(t.geom.cell_size);
        let ring = (self.log.buffer().core().capacity() / 8) as usize;
        let limit = MAX_PAYLOAD.min(ring.saturating_sub(HEADER_SIZE));
        if bytes > limit {
            return Err(StorageError::WriteSetFull { bytes, limit });
        }
        Ok(bytes)
    }

    /// Put `after` (a record, or `None` to empty the cell) for the cell
    /// `rid` of `t`, `key`'s, into `txn`'s write set: over its earlier
    /// write of that cell, or as a new entry if the commit record can hold
    /// one more. Nothing reaches a page or the log.
    fn write(
        &self,
        txn: &mut Transaction,
        t: &Table,
        key: u64,
        rid: Rid,
        after: Option<&[u8]>,
    ) -> StorageResult<()> {
        let i = match txn.write_at(t.id, rid) {
            Some(i) => i,
            None => {
                txn.record_len = self.record_len_with(txn, t)?;
                txn.writes.push(Write {
                    table: t.id,
                    key,
                    rid,
                    at: None,
                });
                txn.writes.len() - 1
            }
        };
        txn.writes[i].at = after.map(|record| match txn.writes[i].at {
            Some(at) => {
                txn.images[at..at + record.len()].copy_from_slice(record);
                at
            }
            None => {
                let at = txn.images.len();
                txn.images.extend_from_slice(record);
                at
            }
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit per the configured protocol: log the write set as one
    /// [`RecordKind::UpdateCommit`] record and apply it, through the body
    /// [`Db::update_commit_run`] runs — its pages latched in `(table, page)`
    /// order, one reservation, each cell written and encoded from its
    /// page, the pages stamped, the latches dropped — then the protocol's
    /// commit tail. A read-only transaction logs nothing.
    ///
    /// A caller that subscribes to the log's watermark itself (the wire
    /// server, the benchmark drivers) hands a `Pipelined` or `Unsafe`
    /// commit's token to its subscriber.
    pub fn commit(&self, mut txn: Transaction) -> StorageResult<CommitOutcome> {
        if txn.writes.is_empty() {
            // Read-only: nothing to log or harden.
            self.locks.release_all(txn.id, &txn.held);
            self.txns.finish();
            return Ok(CommitOutcome::Durable(CommitToken::ZERO));
        }
        let t_commit = self.log.telemetry().ts();
        // Page order: one page's entries are consecutive in the record.
        txn.writes
            .sort_unstable_by_key(|w| (w.table, w.rid.page_no, w.rid.slot));
        let table = |id: u32| self.table(id).expect("a written table");
        let mut latches = Latches::default();
        for w in &txn.writes {
            latches.add(table(w.table), w.rid.page_no);
        }
        let mut end = Lsn::ZERO;
        self.log_commits(
            &mut latches,
            1,
            |_| txn.id,
            |_| {
                let txn = &txn;
                (0..txn.writes.len()).map(move |i| {
                    let t = table(txn.writes[i].table);
                    (t, txn.writes[i].rid, txn.after(i, t.geom.record_size))
                })
            },
            |_, e| end = e,
        );
        drop(latches);
        // A key the commit emptied leaves the index.
        for w in txn.writes.iter().filter(|w| w.at.is_none()) {
            unmap(table(w.table), w.key, w.rid);
        }
        let replicated = self.harden(1, end, t_commit, || {
            self.locks.release_all(txn.id, &txn.held)
        });
        self.txns.finish();
        let token = CommitToken::at(end);
        Ok(match self.opts.protocol {
            CommitProtocol::AsyncCommit => CommitOutcome::Unsafe(token),
            CommitProtocol::Pipelined => CommitOutcome::Pipelined(self.log.handle(end)),
            _ if replicated? => CommitOutcome::Durable(token),
            _ => CommitOutcome::Unreplicated(token),
        })
    }

    /// Log `records` transactions' commits in one reservation and apply
    /// them to their latched pages: the body [`Db::commit`] and
    /// [`Db::update_commit_run`] share. Record `r` is transaction
    /// `txn(r)`'s [`RecordKind::UpdateCommit`], one entry per cell of
    /// `cells(r)` — `(table, cell, new record)`, `None` emptying the cell —
    /// in `(table, page)` order. Each cell is written into its page first
    /// and its entry encoded from there, so a record is one copy of its
    /// images into the ring; its pages are stamped with its range once it
    /// is released, and `logged(r, end)` hears where it ends. Allocates
    /// nothing.
    fn log_commits<'c, I>(
        &self,
        latches: &mut Latches<'_>,
        records: usize,
        txn: impl Fn(usize) -> u64,
        cells: impl Fn(usize) -> I,
        mut logged: impl FnMut(usize, Lsn),
    ) where
        I: Iterator<Item = (&'c Table, Rid, Option<&'c [u8]>)>,
    {
        let payload_len = |r: usize| -> usize {
            cells(r)
                .map(|(t, ..)| UpdateCommitPayload::<&[u8]>::len_for(t.geom.cell_size))
                .sum()
        };
        let len = (0..records).map(|r| on_log_size(payload_len(r)) as u64);
        let mut run = self.log.reserve_run(len.sum());
        for r in 0..records {
            let mut slot = run.record(RecordKind::UpdateCommit, txn(r), Lsn::ZERO, payload_len(r));
            for (t, rid, after) in cells(r) {
                let page = PageId {
                    table: t.id,
                    page_no: rid.page_no,
                };
                let off = t.geom.offset(rid.slot);
                let cell = &mut latches.frame(page).data[off..off + t.geom.cell_size];
                match after {
                    Some(record) => {
                        cell[0] = 1;
                        cell[1..].copy_from_slice(record);
                    }
                    None => cell.fill(0),
                }
                let entry = UpdateCommitPayload {
                    page,
                    slot: rid.slot,
                    after: &*cell,
                };
                slot.fill(&entry);
            }
            let end = slot.end_lsn();
            let lsn = slot.release();
            for (t, rid, _) in cells(r) {
                latches
                    .frame(PageId {
                        table: t.id,
                        page_no: rid.page_no,
                    })
                    .stamp(lsn, end);
            }
            logged(r, end);
        }
        run.release();
    }

    /// The commit tail of `commits` transactions whose commits are in the
    /// log, the last ending at `end`, per the protocol: a transaction, or a
    /// run of one-record ones. `release_locks` drops every lock they hold.
    /// `t_commit` is when the commits began (telemetry on). Returns false
    /// only when a primary-failure simulation released a blocking wait
    /// before enough replicas acked.
    fn harden(
        &self,
        commits: usize,
        end: Lsn,
        t_commit: Option<u64>,
        release_locks: impl Fn(),
    ) -> StorageResult<bool> {
        self.stats.tel.add(self.stats.commits, commits as u64);
        let protocol = self.opts.protocol;
        // §3, when locks drop: as soon as the commit record is buffered
        // (ELR), or only after the flush (Baseline: delay (B) of Figure 1).
        if protocol.early_release() {
            release_locks();
        }
        // §4, who waits for the flush.
        match protocol {
            // The caller: only this transaction blocks on the I/O. Local
            // durability plus replica acks, per the log's durability policy
            // (plain flush_until when replication is off).
            CommitProtocol::Baseline | CommitProtocol::Elr => {
                let t = aether_core::runtime::monotonic_ns();
                let replicated = self.log.wait_committed(end);
                let now = aether_core::runtime::monotonic_ns();
                self.stats
                    .tel
                    .add(self.stats.flush_wait_ns, now.saturating_sub(t));
                // Commit latency: entry to durable, for each commit.
                if let Some(t0) = t_commit {
                    let tel = self.log.telemetry();
                    for _ in 0..commits {
                        tel.record(self.tel.commit_latency_ns, now.saturating_sub(t0));
                    }
                }
                // On `Err` the commit record never hardened: the log is
                // poisoned (or shut down). Locks are released all the same
                // — the transaction is dead either way; the caller gets the
                // typed error.
                if !protocol.early_release() {
                    release_locks();
                }
                Ok(replicated?)
            }
            // Nobody: the flush daemon makes the record durable, and
            // whoever waits on the commit subscribes to the log's
            // watermark. Nothing is registered here.
            CommitProtocol::AsyncCommit | CommitProtocol::Pipelined => {
                self.log.note_commits(commits, end);
                Ok(true)
            }
        }
    }

    /// Roll back: drop the write set, and the index entries of keys it
    /// appended; then release the locks. Nothing was logged or applied, so
    /// nothing is undone and nothing is logged.
    pub fn abort(&self, txn: Transaction) -> StorageResult<()> {
        for w in &txn.writes {
            let t = self.table(w.table)?;
            if t.key_at(w.rid).is_none() {
                unmap(t, w.key, w.rid);
            }
        }
        self.stats.tel.inc(self.stats.aborts);
        self.locks.release_all(txn.id, &txn.held);
        self.txns.finish();
        Ok(())
    }
}

/// Table `id` of a catalog.
pub(crate) fn table_in(tables: &Segmented<Table>, id: u32) -> StorageResult<&Table> {
    tables
        .get(id as usize)
        .ok_or_else(|| StorageError::InvalidRecord(format!("no table {id}")))
}

/// A transaction that wrote `key` at `rid` ended, and the cell does not
/// hold it: an appended key leaves the index there.
fn unmap(t: &Table, key: u64, rid: Rid) {
    if key >= t.dense_rows {
        t.index().remove_at(key, rid);
    }
}

/// Write latches on the pages a commit writes, taken in `(table, page)`
/// order and held together from before its records are reserved until its
/// pages are stamped: a commit never waits for a latch while it holds a log
/// reservation, and its pages are dirty before its records are released, so
/// a record below the durable watermark never lacks its dirty page (see
/// [`Db::log_truncation_point`]). The first [`RUN_MAX`] sit inline; a
/// larger write set's others allocate.
#[derive(Default)]
struct Latches<'a> {
    head: [Option<Latch<'a>>; RUN_MAX],
    more: Vec<Latch<'a>>,
    len: usize,
}

type Latch<'a> = (PageId, RwLockWriteGuard<'a, Frame>);

impl<'a> Latches<'a> {
    /// Latch page `page_no` of `t`. Pages come in ascending order; the
    /// last one again is already latched.
    fn add(&mut self, t: &'a Table, page_no: u32) {
        let page = PageId {
            table: t.id,
            page_no,
        };
        if let Some(last) = self.len.checked_sub(1) {
            let latched = self.at(last).0;
            debug_assert!(latched <= page, "latched out of order");
            if latched == page {
                return;
            }
        }
        let latch = (page, write(t.frame(page_no)));
        match self.head.get_mut(self.len) {
            Some(free) => *free = Some(latch),
            None => self.more.push(latch),
        }
        self.len += 1;
    }

    fn at(&mut self, i: usize) -> &mut Latch<'a> {
        match i.checked_sub(RUN_MAX) {
            None => self.head[i].as_mut().expect("latched"),
            Some(j) => &mut self.more[j],
        }
    }

    /// The frame of `page`, which is latched.
    fn frame(&mut self, page: PageId) -> &mut Frame {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.at(mid).0 < page {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let latch = self.at(lo);
        assert_eq!(latch.0, page, "a page written but not latched");
        &mut latch.1
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
        let out = db.commit(txn).unwrap();
        let token = out.token();
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
        let token = db.commit(c).unwrap().token();
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
    fn an_update_commit_is_one_record_and_no_att_entry() {
        use aether_core::record::on_log_size;
        for protocol in CommitProtocol::ALL {
            let db = tiny_db(protocol);
            let inserts = || db.telemetry_snapshot("t").counter("log.inserts").unwrap();
            let (inserts0, commits0, end0) =
                (inserts(), db.stats().commits(), db.log().released_lsn());
            for k in 0..10u64 {
                let mut out = [Ok(CommitToken::ZERO)];
                let run = db.update_commit_run(0, &[(k, rec(k, 40, 5).as_slice())], &mut out);
                let [token] = out;
                let (token, pending) = (token.unwrap(), run.pending);
                let deferred = matches!(
                    protocol,
                    CommitProtocol::AsyncCommit | CommitProtocol::Pipelined
                );
                assert_eq!(pending, deferred, "{protocol:?}");
                assert!(token.lsn() > end0);
                assert_eq!(db.txn_manager().active_count(), 0, "{protocol:?}");
            }
            assert_eq!(
                inserts() - inserts0,
                10,
                "{protocol:?}: one insert a commit"
            );
            assert_eq!(db.stats().commits() - commits0, 10, "{protocol:?}");
            // A 41 B cell behind the 12 B prefix: no before-image, no commit.
            let bytes = db.log().released_lsn().raw() - end0.raw();
            assert_eq!(bytes, 10 * on_log_size(12 + 41) as u64, "{protocol:?}");
            assert_eq!(db.locks().granted_count(), 0, "{protocol:?}");
            let mut t = db.begin();
            assert_eq!(db.read(&mut t, 0, 9).unwrap()[8], 5);
            db.commit(t).unwrap();
        }
    }

    #[test]
    fn async_commit_is_marked_unsafe() {
        let db = tiny_db(CommitProtocol::AsyncCommit);
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 2, |r| r[8] = 50).unwrap();
        let out = db.commit(txn).unwrap();
        assert!(matches!(out, CommitOutcome::Unsafe(_)));
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
    fn truncation_point_tracks_dirty_pages_only() {
        let db = tiny_db(CommitProtocol::Baseline);
        // Clean DB, no open txns: truncation point == durable end.
        db.flush_pages();
        let clean_point = db.log_truncation_point();
        assert_eq!(clean_point, db.log().durable_lsn());
        // An open transaction has logged nothing and pins nothing.
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 1, |r| r[8] = 9).unwrap();
        assert_eq!(db.log_truncation_point(), clean_point);
        db.commit(txn).unwrap();
        // Dirty pages pin it at their rec_lsn until flushed.
        assert_eq!(db.log_truncation_point(), clean_point);
        db.flush_pages();
        assert!(db.log_truncation_point() > clean_point);
        assert_eq!(db.log_truncation_point(), db.log().durable_lsn());
    }

    #[test]
    fn a_checkpoint_publishes_the_truncation_point_and_logs_nothing() {
        let db = tiny_db(CommitProtocol::Baseline);
        let start = db.log().released_lsn();
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, 1, |r| r[8] = 9).unwrap();
        db.commit(txn).unwrap();
        let logged = db.log().released_lsn();
        // Checkpoint while the page is dirty: the mark is the page's first
        // record, where a recovery from the page store would start.
        assert_eq!(db.dpt_snapshot().len(), 1, "dirty page in the table");
        assert_eq!(db.checkpoint(), start);
        assert_eq!(db.redo_low_water(), start);
        db.flush_pages();
        assert_eq!(db.checkpoint(), logged);
        assert_eq!(db.log().released_lsn(), logged, "a checkpoint logged");
    }
}
