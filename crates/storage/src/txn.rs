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
use crate::page::Rid;
use aether_core::commit::{CommitHandle, CommitToken};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

/// One cell a transaction writes, kept in its write set until commit: the
/// row's key, where it lives, and where its new record sits in the
/// transaction's image arena. Nothing of it reaches a page or the log
/// before the commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write {
    /// Table written.
    pub table: u32,
    /// Key of the row written.
    pub key: u64,
    /// Its cell.
    pub rid: Rid,
    /// Where the new record starts in the image arena; `None` for a
    /// delete, which leaves the cell empty.
    pub at: Option<usize>,
}

/// A transaction's buffers, kept with their capacity in a small per-thread
/// pool between transactions: a transaction allocates nothing once its
/// thread has run a few.
#[derive(Debug, Default)]
struct TxnBuffers {
    held: Vec<LockId>,
    writes: Vec<Write>,
    images: Vec<u8>,
}

/// Buffers a thread keeps between transactions. A thread that holds more
/// transactions open at once than this allocates for the extra ones.
const POOL_CAP: usize = 4;
/// An image arena grown past this by a large transaction is dropped, not
/// pooled, so one bulk update does not pin its memory in the thread.
const POOL_MAX_IMAGE_BYTES: usize = 64 << 10;

thread_local! {
    static POOL: RefCell<Vec<TxnBuffers>> = const { RefCell::new(Vec::new()) };
}

/// A transaction handle. Not `Sync`: owned and driven by one agent thread,
/// like Shore-MT's transaction objects. [`crate::Db::commit`] and
/// [`crate::Db::abort`] consume it, so a handle is always an open
/// transaction.
///
/// Its writes stay in its write set until [`crate::Db::commit`] logs them
/// as one record and applies them; a rollback drops them.
#[derive(Debug)]
pub struct Transaction {
    /// Transaction id.
    pub id: u64,
    /// Locks held, released at commit/abort per the protocol.
    pub(crate) held: Vec<LockId>,
    /// The write set, one entry per cell, in the order first written.
    pub(crate) writes: Vec<Write>,
    /// The write set's new records, back to back.
    pub(crate) images: Vec<u8>,
    /// Payload bytes the commit record will have.
    pub(crate) record_len: usize,
}

impl Transaction {
    /// Record a lock for release at end-of-transaction.
    pub fn note_lock(&mut self, id: LockId) {
        // Cheap dedup: transactions hold few locks; linear scan beats a set.
        if !self.held.contains(&id) {
            self.held.push(id);
        }
    }

    /// The write set's entry for the cell `rid` of `table`, if it wrote it.
    pub(crate) fn write_at(&self, table: u32, rid: Rid) -> Option<usize> {
        self.writes
            .iter()
            .position(|w| w.table == table && w.rid == rid)
    }

    /// The record entry `i` writes, `len` bytes long; `None` for a delete.
    pub(crate) fn after(&self, i: usize, len: usize) -> Option<&[u8]> {
        self.writes[i].at.map(|at| &self.images[at..at + len])
    }
}

impl Drop for Transaction {
    /// Hand the buffers back to this thread's pool.
    fn drop(&mut self) {
        let mut b = TxnBuffers {
            held: std::mem::take(&mut self.held),
            writes: std::mem::take(&mut self.writes),
            images: std::mem::take(&mut self.images),
        };
        if b.images.capacity() > POOL_MAX_IMAGE_BYTES {
            return;
        }
        b.held.clear();
        b.writes.clear();
        b.images.clear();
        // A thread being torn down has no pool left: the buffers just go.
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_CAP {
                p.push(b);
            }
        });
    }
}

/// How a commit stands when [`crate::Db::commit`] returns, and where it is
/// in the log: its [`CommitToken`], the end LSN of its commit record.
/// Threading the token into `aether-repl`'s `ReadRouter::read_at_least`
/// yields read-your-writes on replica reads.
#[derive(Debug)]
pub enum CommitOutcome {
    /// Durable, and replicated as the log's policy requires (Baseline and
    /// ELR). A read-only commit logs nothing: its token is
    /// [`CommitToken::ZERO`].
    Durable(CommitToken),
    /// Durable locally, but a primary-failure simulation released the wait
    /// before enough replicas acked: its replicated fate is indeterminate.
    Unreplicated(CommitToken),
    /// AsyncCommit: acknowledged before it is durable, so a crash can lose
    /// it.
    Unsafe(CommitToken),
    /// Flush pipelining: completion arrives through this handle, or through
    /// a subscription to the log's watermark at the token.
    Pipelined(CommitHandle),
}

impl CommitOutcome {
    /// The commit's token.
    pub fn token(&self) -> CommitToken {
        match self {
            CommitOutcome::Durable(token)
            | CommitOutcome::Unreplicated(token)
            | CommitOutcome::Unsafe(token) => *token,
            CommitOutcome::Pipelined(handle) => CommitToken::at(handle.lsn()),
        }
    }

    /// True if the commit is already durable and replicated.
    pub fn is_durable_now(&self) -> bool {
        matches!(self, CommitOutcome::Durable(_))
    }
}

/// Allocates transaction ids and counts open transactions. Nothing of an
/// open transaction is in the log or on a page, so neither a checkpoint
/// nor recovery needs to know which transactions are open.
#[derive(Debug)]
pub struct TxnManager {
    next: AtomicU64,
    active: AtomicUsize,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

impl TxnManager {
    /// Empty manager; ids start at 1 (0 is the wire's auto-commit
    /// sentinel).
    pub fn new() -> TxnManager {
        TxnManager {
            next: AtomicU64::new(1),
            active: AtomicUsize::new(0),
        }
    }

    /// `n` fresh transaction ids, the first returned and the rest after
    /// it, for one-statement transactions that commit in the record they
    /// log and are never open.
    pub fn next_ids(&self, n: u64) -> u64 {
        self.next.fetch_add(n, Ordering::Relaxed)
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        let id = self.next_ids(1);
        self.active.fetch_add(1, Ordering::Relaxed);
        let b = POOL
            .try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        Transaction {
            id,
            held: b.held,
            writes: b.writes,
            images: b.images,
            record_len: 0,
        }
    }

    /// A transaction committed or rolled back.
    pub fn finish(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of open transactions.
    pub fn active_count(&self) -> usize {
        self.active.load(Ordering::Relaxed)
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
    fn txn_lifecycle_and_active_count() {
        let mgr = TxnManager::new();
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        assert_ne!(t1.id, t2.id);
        assert_eq!(mgr.active_count(), 2);
        mgr.finish();
        assert_eq!(mgr.active_count(), 1);
        mgr.finish();
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn lock_dedup() {
        let mgr = TxnManager::new();
        let mut t = mgr.begin();
        let id = LockId::row(1, 5);
        t.note_lock(id);
        t.note_lock(id);
        t.note_lock(LockId::row(1, 6));
        assert_eq!(t.held.len(), 2);
        mgr.finish();
    }

    #[test]
    fn bump_next_prevents_id_reuse() {
        let mgr = TxnManager::new();
        mgr.bump_next(1000);
        let t = mgr.begin();
        assert!(t.id >= 1000);
        mgr.finish();
    }

    #[test]
    fn ids_start_at_one_from_either_constructor() {
        // 0 is the wire's auto-commit sentinel: a `Begun { txn: 0 }` would
        // turn a client's updates into auto-commits.
        for mgr in [TxnManager::new(), TxnManager::default()] {
            let t = mgr.begin();
            assert_eq!(t.id, 1);
            mgr.finish();
        }
    }
}
