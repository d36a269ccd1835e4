//! Transactions and commit protocols.
//!
//! The heart of the reproduction's §3/§4 story lives here: **when** a
//! committing transaction releases its locks and **whether** it blocks for
//! the log flush:
//!
//! | Protocol | Release locks | Wait for durability | Safe? |
//! |---|---|---|---|
//! | `Baseline` | after flush completes | yes, blocking | yes |
//! | `Elr` | right after the commit record is in the buffer | yes, blocking | yes |
//! | `AsyncCommit` | right after the commit record is in the buffer | **no** | **no** (can lose committed work) |
//! | `Pipelined` | right after the commit record is in the buffer | no block: completion delivered via the commit pipeline | yes |
//!
//! `Pipelined` is flush pipelining (§4.1) and assumes ELR (the paper notes
//! "flush pipelining depends on ELR to prevent log-induced lock contention").
//!
//! ELR's two safety conditions (§3.1) hold by construction: (1) the log is
//! serial, so any dependant's commit record lands at a higher LSN and becomes
//! durable later; (2) a transaction never aborts after inserting its commit
//! record.

use crate::lock::LockId;
use crate::page::PageId;
use aether_core::commit::CommitHandle;
use aether_core::Lsn;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How commits interact with the log flush and lock release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitProtocol {
    /// Traditional WAL commit: flush, then release locks (Figure 1's delays
    /// A, B and C all present).
    Baseline,
    /// Early Lock Release: locks drop as soon as the commit record is
    /// buffered; the client still waits for durability (removes delay B).
    Elr,
    /// Asynchronous commit: ELR + no durability wait. Unsafe — loses
    /// committed work on a crash (the paper's foil).
    AsyncCommit,
    /// Flush pipelining (+ELR): no blocking anywhere; completion is
    /// delivered asynchronously by the flush daemon (removes B and C).
    Pipelined,
}

impl CommitProtocol {
    /// All protocols, in the paper's comparison order.
    pub const ALL: [CommitProtocol; 4] = [
        CommitProtocol::Baseline,
        CommitProtocol::Elr,
        CommitProtocol::AsyncCommit,
        CommitProtocol::Pipelined,
    ];

    /// Whether this protocol releases locks before the flush (ELR family).
    pub fn early_release(&self) -> bool {
        !matches!(self, CommitProtocol::Baseline)
    }

    /// Whether committed work can be lost on a crash.
    pub fn sacrifices_durability(&self) -> bool {
        matches!(self, CommitProtocol::AsyncCommit)
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            CommitProtocol::Baseline => "baseline",
            CommitProtocol::Elr => "elr",
            CommitProtocol::AsyncCommit => "async",
            CommitProtocol::Pipelined => "pipelined",
        }
    }
}

/// One undo entry kept in-transaction (rollback never reads the log; the
/// before-image is at hand, as in any system that keeps an in-memory undo
/// list for active transactions).
#[derive(Debug, Clone)]
pub struct UndoEntry {
    /// Page the update touched.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
    /// Cell image to restore.
    pub before: Vec<u8>,
    /// LSN of the update record being undone (threads the CLR's undo_next).
    pub update_lsn: Lsn,
}

/// Transaction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; may read/write.
    Active,
    /// Commit record inserted, awaiting durability (ELR window).
    Precommitted,
    /// Durably committed.
    Committed,
    /// Rolled back.
    Aborted,
}

/// Per-transaction shared state (the active-transaction-table entry).
#[derive(Debug)]
pub struct TxnShared {
    /// Transaction id.
    pub id: u64,
    /// Last log record written by this transaction (undo-chain head).
    pub last_lsn: AtomicU64,
    /// First log record written (log-truncation anchor: the log cannot be
    /// truncated past the oldest active transaction's first record, which
    /// undo may need).
    pub first_lsn: AtomicU64,
}

/// A transaction handle. Not `Sync`: owned and driven by one agent thread,
/// like Shore-MT's transaction objects.
#[derive(Debug)]
pub struct Transaction {
    /// Transaction id.
    pub id: u64,
    shared: Arc<TxnShared>,
    /// Locks held, released at commit/abort per the protocol.
    pub(crate) held: Vec<LockId>,
    /// In-memory undo list (reverse order on rollback).
    pub(crate) undo: Vec<UndoEntry>,
    /// Current status.
    pub status: TxnStatus,
}

impl Transaction {
    /// Undo-chain head (LSN of this transaction's most recent record).
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.shared.last_lsn.load(Ordering::Relaxed))
    }

    /// Update the undo-chain head after writing a record at `lsn`.
    pub fn set_last_lsn(&self, lsn: Lsn) {
        self.shared.last_lsn.store(lsn.raw(), Ordering::Relaxed);
        // First write pins the truncation anchor. LSN 0 is a valid first
        // record position, so offset by +1 and treat 0 as "none".
        let _ = self.shared.first_lsn.compare_exchange(
            0,
            lsn.raw() + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// First LSN written by this transaction, if any.
    pub fn first_lsn(&self) -> Option<Lsn> {
        match self.shared.first_lsn.load(Ordering::Relaxed) {
            0 => None,
            v => Some(Lsn(v - 1)),
        }
    }

    /// Record a lock for release at end-of-transaction.
    pub fn note_lock(&mut self, id: LockId) {
        // Cheap dedup: transactions hold few locks; linear scan beats a set.
        if !self.held.contains(&id) {
            self.held.push(id);
        }
    }

    /// Push an undo entry.
    pub fn note_undo(&mut self, e: UndoEntry) {
        self.undo.push(e);
    }

    /// True while the transaction may perform work.
    pub fn is_active(&self) -> bool {
        self.status == TxnStatus::Active
    }
}

/// Result of a commit: how completion is (or will be) known.
#[derive(Debug)]
pub enum CommitOutcome {
    /// Commit is durable now (Baseline, ELR, and read-only commits).
    Durable,
    /// Commit acknowledged without full durability: AsyncCommit always, or
    /// a replicated commit released by a primary-failure simulation before
    /// its replica acks arrived (locally durable, replication
    /// indeterminate).
    Unsafe,
    /// Flush pipelining: completion arrives via this handle (and/or the
    /// callback registered by the driver).
    Pipelined(CommitHandle),
}

impl CommitOutcome {
    /// True if the commit is already durable.
    pub fn is_durable_now(&self) -> bool {
        matches!(self, CommitOutcome::Durable)
    }
}

/// Allocates transaction ids and tracks active transactions (the ATT used by
/// fuzzy checkpoints).
#[derive(Debug, Default)]
pub struct TxnManager {
    next: AtomicU64,
    active: Mutex<HashMap<u64, Arc<TxnShared>>>,
}

impl TxnManager {
    /// Empty manager; ids start at 1.
    pub fn new() -> TxnManager {
        TxnManager {
            next: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
        }
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(TxnShared {
            id,
            last_lsn: AtomicU64::new(0),
            first_lsn: AtomicU64::new(0),
        });
        self.active.lock().insert(id, Arc::clone(&shared));
        Transaction {
            id,
            shared,
            held: Vec::new(),
            undo: Vec::new(),
            status: TxnStatus::Active,
        }
    }

    /// Remove a finished transaction from the ATT.
    pub fn finish(&self, id: u64) {
        self.active.lock().remove(&id);
    }

    /// Snapshot the ATT: (txn id, last LSN) pairs for the checkpoint record.
    pub fn att_snapshot(&self) -> Vec<(u64, Lsn)> {
        self.att_snapshot_with_floor().0
    }

    /// Snapshot the ATT together with its undo floor — the oldest first-LSN
    /// among the captured transactions — under a single lock acquisition.
    /// The floor is what makes the snapshot safe to *publish*: a checkpoint
    /// that lists transaction T as active must pin the truncation point at
    /// or below T's first record, even if T finishes right after the
    /// capture. Recomputing the floor later from the then-active set (as
    /// [`TxnManager::oldest_first_lsn`] does) races with T's commit:
    /// truncation could retire T's whole chain — commit record included —
    /// while the surviving checkpoint still names T, and recovery would
    /// chase T's "undo chain" into the recycled prefix.
    pub fn att_snapshot_with_floor(&self) -> (Vec<(u64, Lsn)>, Option<Lsn>) {
        let active = self.active.lock();
        let att = active
            .values()
            .map(|s| (s.id, Lsn(s.last_lsn.load(Ordering::Relaxed))))
            .collect();
        let floor = active
            .values()
            .filter_map(|s| match s.first_lsn.load(Ordering::Relaxed) {
                0 => None,
                v => Some(Lsn(v - 1)),
            })
            .min();
        (att, floor)
    }

    /// Number of in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Oldest first-LSN among active transactions (the undo anchor for log
    /// truncation), if any active transaction has logged.
    pub fn oldest_first_lsn(&self) -> Option<Lsn> {
        self.active
            .lock()
            .values()
            .filter_map(|s| match s.first_lsn.load(Ordering::Relaxed) {
                0 => None,
                v => Some(Lsn(v - 1)),
            })
            .min()
    }

    /// Restore the id counter after recovery so new ids never collide with
    /// pre-crash ones.
    pub fn bump_next(&self, min_next: u64) {
        self.next.fetch_max(min_next, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_properties() {
        assert!(!CommitProtocol::Baseline.early_release());
        assert!(CommitProtocol::Elr.early_release());
        assert!(CommitProtocol::AsyncCommit.early_release());
        assert!(CommitProtocol::Pipelined.early_release());
        assert!(CommitProtocol::AsyncCommit.sacrifices_durability());
        assert!(!CommitProtocol::Pipelined.sacrifices_durability());
        assert_eq!(CommitProtocol::ALL.len(), 4);
        assert_eq!(CommitProtocol::Pipelined.label(), "pipelined");
    }

    #[test]
    fn txn_lifecycle_and_att() {
        let mgr = TxnManager::new();
        let mut t1 = mgr.begin();
        let t2 = mgr.begin();
        assert_ne!(t1.id, t2.id);
        assert_eq!(mgr.active_count(), 2);
        t1.set_last_lsn(Lsn(64));
        let att = mgr.att_snapshot();
        assert!(att.contains(&(t1.id, Lsn(64))));
        assert!(att.contains(&(t2.id, Lsn::ZERO)));
        mgr.finish(t2.id);
        assert_eq!(mgr.active_count(), 1);
        assert!(t1.is_active());
        t1.status = TxnStatus::Committed;
        assert!(!t1.is_active());
        mgr.finish(t1.id);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn lock_dedup_and_undo_accumulate() {
        let mgr = TxnManager::new();
        let mut t = mgr.begin();
        let id = LockId::row(1, 5);
        t.note_lock(id);
        t.note_lock(id);
        t.note_lock(LockId::table(1));
        assert_eq!(t.held.len(), 2);
        t.note_undo(UndoEntry {
            page: PageId {
                table: 1,
                page_no: 0,
            },
            slot: 3,
            before: vec![0; 10],
            update_lsn: Lsn(100),
        });
        assert_eq!(t.undo.len(), 1);
        mgr.finish(t.id);
    }

    #[test]
    fn bump_next_prevents_id_reuse() {
        let mgr = TxnManager::new();
        mgr.bump_next(1000);
        let t = mgr.begin();
        assert!(t.id >= 1000);
        mgr.finish(t.id);
    }
}
