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
use crate::segmented::Segmented;
use aether_core::commit::{CommitHandle, CommitPipeline};
use aether_core::Lsn;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicU64, Ordering};
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
/// list for active transactions). The image itself sits in the
/// transaction's image arena, one cell long.
#[derive(Debug, Clone, Copy)]
pub struct UndoEntry {
    /// Page the update touched.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
    /// LSN of the update record being undone (threads the CLR's undo_next).
    pub update_lsn: Lsn,
    /// Where the before-image starts in the transaction's image arena.
    pub(crate) at: usize,
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

/// A transaction's buffers, kept with their capacity in a small per-thread
/// pool between transactions: a transaction allocates nothing once its
/// thread has run a few.
#[derive(Debug, Default)]
struct TxnBuffers {
    held: Vec<LockId>,
    undo: Vec<UndoEntry>,
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
    /// The ATT slot this thread's last transaction used: the first one its
    /// next transaction tries, so a thread keeps to one slot's cache line.
    static SLOT_HINT: Cell<usize> = const { Cell::new(0) };
}

/// A transaction handle. Not `Sync`: owned and driven by one agent thread,
/// like Shore-MT's transaction objects.
#[derive(Debug)]
pub struct Transaction {
    /// Transaction id.
    pub id: u64,
    /// Index of the ATT slot this transaction owns until it finishes.
    pub(crate) slot: usize,
    last_lsn: Lsn,
    first_lsn: Option<Lsn>,
    /// Locks held, released at commit/abort per the protocol.
    pub(crate) held: Vec<LockId>,
    /// In-memory undo list (reverse order on rollback).
    pub(crate) undo: Vec<UndoEntry>,
    /// The undo entries' before-images, back to back, and scratch space
    /// behind them while an update is logged.
    pub(crate) images: Vec<u8>,
    /// Current status.
    pub status: TxnStatus,
}

impl Transaction {
    /// Undo-chain head (LSN of this transaction's most recent record).
    pub fn last_lsn(&self) -> Lsn {
        self.last_lsn
    }

    /// First LSN written by this transaction, if any.
    pub fn first_lsn(&self) -> Option<Lsn> {
        self.first_lsn
    }

    /// Record a lock for release at end-of-transaction.
    pub fn note_lock(&mut self, id: LockId) {
        // Cheap dedup: transactions hold few locks; linear scan beats a set.
        if !self.held.contains(&id) {
            self.held.push(id);
        }
    }

    /// The before-image of `e`, `cell_size` bytes long.
    pub(crate) fn before_image(&self, e: &UndoEntry, cell_size: usize) -> &[u8] {
        &self.images[e.at..e.at + cell_size]
    }

    /// True while the transaction may perform work.
    pub fn is_active(&self) -> bool {
        self.status == TxnStatus::Active
    }
}

impl Drop for Transaction {
    /// Hand the buffers back to this thread's pool. The ATT slot is not
    /// touched: an asynchronous commit's slot stays listed until the log
    /// is durable past its commit record, after its `Transaction` is gone.
    fn drop(&mut self) {
        let mut b = TxnBuffers {
            held: std::mem::take(&mut self.held),
            undo: std::mem::take(&mut self.undo),
            images: std::mem::take(&mut self.images),
        };
        if b.images.capacity() > POOL_MAX_IMAGE_BYTES {
            return;
        }
        b.held.clear();
        b.undo.clear();
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
    /// Flush pipelining: completion arrives via this handle (or a
    /// subscription to the log's watermark).
    Pipelined(CommitHandle),
}

impl CommitOutcome {
    /// True if the commit is already durable.
    pub fn is_durable_now(&self) -> bool {
        matches!(self, CommitOutcome::Durable)
    }
}

/// One ATT slot, on cache lines of its own: the transaction that owns it
/// is the only writer of its LSNs.
///
/// `id` doubles as the slot's sequence word. It is [`FREE`], [`CLAIMING`]
/// while a new owner resets the LSNs, or the owner's id, and ids are never
/// reused, so a reader that sees the same id before and after it reads the
/// LSNs has read one transaction's values (see [`Slot::read`]).
///
/// An asynchronous commit leaves its id in place and records its commit
/// record's end LSN instead: the slot counts as finished once the log is
/// durable there, and a `begin` may then claim it from the old id.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    id: AtomicU64,
    last_lsn: AtomicU64,
    /// First LSN + 1; 0 while the owner has logged nothing.
    first_lsn: AtomicU64,
    /// The commit record's end LSN once the owner committed asynchronously;
    /// 0 before.
    commit_end: AtomicU64,
}

/// A slot nobody owns. Transaction ids start at 1, so no owner has it.
const FREE: u64 = 0;
/// A slot whose new owner is resetting its LSNs; no transaction id.
const CLAIMING: u64 = u64::MAX;

impl Slot {
    /// Whether an owner that committed asynchronously is done with the slot.
    fn settled(&self, log: Option<&CommitPipeline>) -> bool {
        match (self.commit_end.load(Ordering::Acquire), log) {
            (0, _) | (_, None) => false,
            (end, Some(log)) => log.settled(Lsn(end)),
        }
    }

    /// Make `id` the owner if the slot is free or its owner's asynchronous
    /// commit has settled.
    fn claim(&self, id: u64, log: Option<&CommitPipeline>) -> bool {
        let old = self.id.load(Ordering::Acquire);
        if old == CLAIMING
            || (old != FREE && !self.settled(log))
            || self
                .id
                .compare_exchange(old, CLAIMING, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return false;
        }
        // A reader that sees a reset LSN sees `CLAIMING` or later in `id`.
        fence(Ordering::Release);
        self.last_lsn.store(0, Ordering::Relaxed);
        self.first_lsn.store(0, Ordering::Relaxed);
        self.commit_end.store(0, Ordering::Relaxed);
        self.id.store(id, Ordering::Release);
        true
    }

    /// `(id, last LSN, first LSN)` of the owner, all from the same owner,
    /// or `None` for a slot nobody owns or whose asynchronous commit has
    /// settled. A seqlock read: `id` before and after the LSNs; if it
    /// changed, the owner finished mid-read, and the slot is read again.
    fn read(&self, log: Option<&CommitPipeline>) -> Option<(u64, Lsn, Option<Lsn>)> {
        loop {
            let id = self.id.load(Ordering::Acquire);
            if id == FREE || id == CLAIMING {
                return None;
            }
            let last = self.last_lsn.load(Ordering::Acquire);
            let first = self.first_lsn.load(Ordering::Relaxed);
            let settled = self.settled(log);
            fence(Ordering::Acquire);
            if self.id.load(Ordering::Relaxed) == id {
                return (!settled).then(|| (id, Lsn(last), first.checked_sub(1).map(Lsn)));
            }
        }
    }
}

/// Allocates transaction ids and tracks active transactions (the ATT used by
/// fuzzy checkpoints): an array of padded slots, one per open transaction.
/// Beginning claims a free slot, finishing is one store, and a snapshot
/// reads each slot on its own; nothing is locked. An asynchronous commit
/// finishes by the log's watermark: nothing hands its slot back.
pub struct TxnManager {
    next: AtomicU64,
    slots: Segmented<Slot>,
    /// The log whose durable watermark settles asynchronous commits (`None`:
    /// they never settle).
    log: Option<Arc<CommitPipeline>>,
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("next", &self.next)
            .field("active", &self.active_count())
            .finish()
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

impl TxnManager {
    /// Empty manager; ids start at 1 (0 is the wire's auto-commit
    /// sentinel, and a free slot's mark).
    pub fn new() -> TxnManager {
        TxnManager {
            next: AtomicU64::new(1),
            slots: Segmented::new(64),
            log: None,
        }
    }

    /// Empty manager whose asynchronous commits settle by `log`'s durable
    /// watermark.
    pub fn watching(log: Arc<CommitPipeline>) -> TxnManager {
        TxnManager {
            log: Some(log),
            ..TxnManager::new()
        }
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = self.claim(id);
        let b = POOL
            .try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        Transaction {
            id,
            slot,
            last_lsn: Lsn::ZERO,
            first_lsn: None,
            held: b.held,
            undo: b.undo,
            images: b.images,
            status: TxnStatus::Active,
        }
    }

    /// Claim a free slot for `id`: this thread's last one if it is free,
    /// else the next free one after it, else a new one.
    fn claim(&self, id: u64) -> usize {
        let hint = SLOT_HINT.with(Cell::get);
        let n = self.slots.len();
        let i = (0..n)
            .map(|j| (hint + j) % n)
            .chain(n..)
            .find(|&i| {
                let slot = self.slots.get_or_init(i, Slot::default);
                slot.claim(id, self.log.as_deref())
            })
            .expect("slot indices are unbounded");
        SLOT_HINT.with(|h| h.set(i));
        i
    }

    fn slot(&self, txn: &Transaction) -> &Slot {
        let slot = self.slots.get(txn.slot).expect("a claimed slot exists");
        debug_assert_eq!(slot.id.load(Ordering::Relaxed), txn.id, "slot not owned");
        slot
    }

    /// `txn` wrote a record at `lsn`: advance its undo-chain head and, at
    /// its first record, pin its truncation anchor (the log cannot be
    /// truncated past the oldest active transaction's first record, which
    /// undo may need), in the transaction and in its ATT slot.
    pub fn logged(&self, txn: &mut Transaction, lsn: Lsn) {
        let slot = self.slot(txn);
        if txn.first_lsn.is_none() {
            slot.first_lsn.store(lsn.raw() + 1, Ordering::Relaxed);
            txn.first_lsn = Some(lsn);
        }
        // After the first LSN: a reader that sees this last LSN sees it.
        slot.last_lsn.store(lsn.raw(), Ordering::Release);
        txn.last_lsn = lsn;
    }

    /// Remove a finished transaction from the ATT.
    pub fn finish(&self, txn: &Transaction) {
        self.slot(txn).id.store(FREE, Ordering::Release);
    }

    /// `txn` committed asynchronously with its commit record ending at
    /// `end`: it stays in the ATT until the log is durable there.
    pub fn finish_at(&self, txn: &Transaction, end: Lsn) {
        self.slot(txn)
            .commit_end
            .store(end.raw(), Ordering::Release);
    }

    /// Every active transaction: `(id, last LSN, first LSN)`.
    fn active(&self) -> impl Iterator<Item = (u64, Lsn, Option<Lsn>)> + '_ {
        let log = self.log.as_deref();
        self.slots.iter().filter_map(move |(_, s)| s.read(log))
    }

    /// Snapshot the ATT: (txn id, last LSN) pairs for the checkpoint record.
    pub fn att_snapshot(&self) -> Vec<(u64, Lsn)> {
        self.att_snapshot_with_floor().0
    }

    /// Snapshot the ATT together with its undo floor — the oldest first-LSN
    /// among the captured transactions. The floor is what makes the
    /// snapshot safe to *publish*: a checkpoint that lists transaction T as
    /// active must pin the truncation point at or below T's first record,
    /// even if T finishes right after the capture. Recomputing the floor
    /// later from the then-active set (as [`TxnManager::oldest_first_lsn`]
    /// does) races with T's commit: truncation could retire T's whole chain
    /// — commit record included — while the surviving checkpoint still
    /// names T, and recovery would chase T's "undo chain" into the recycled
    /// prefix. So each slot's id and LSNs are read together, seqlock-style
    /// (the slot's id before and after its LSNs), and the floor comes from
    /// exactly the transactions listed.
    pub fn att_snapshot_with_floor(&self) -> (Vec<(u64, Lsn)>, Option<Lsn>) {
        let mut att = Vec::new();
        let mut floor: Option<Lsn> = None;
        for (id, last, first) in self.active() {
            att.push((id, last));
            floor = floor.into_iter().chain(first).min();
        }
        (att, floor)
    }

    /// Number of in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Oldest first-LSN among active transactions (the undo anchor for log
    /// truncation), if any active transaction has logged.
    pub fn oldest_first_lsn(&self) -> Option<Lsn> {
        self.active().filter_map(|(_, _, first)| first).min()
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
        mgr.logged(&mut t1, Lsn(64));
        let att = mgr.att_snapshot();
        assert!(att.contains(&(t1.id, Lsn(64))));
        assert!(att.contains(&(t2.id, Lsn::ZERO)));
        mgr.finish(&t2);
        assert_eq!(mgr.active_count(), 1);
        assert!(t1.is_active());
        t1.status = TxnStatus::Committed;
        assert!(!t1.is_active());
        mgr.finish(&t1);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn lock_dedup_and_undo_accumulate() {
        let mgr = TxnManager::new();
        let mut t = mgr.begin();
        let id = LockId::row(1, 5);
        t.note_lock(id);
        t.note_lock(id);
        t.note_lock(LockId::row(1, 6));
        assert_eq!(t.held.len(), 2);
        t.undo.push(UndoEntry {
            page: PageId {
                table: 1,
                page_no: 0,
            },
            slot: 3,
            update_lsn: Lsn(100),
            at: 0,
        });
        assert_eq!(t.undo.len(), 1);
        mgr.finish(&t);
    }

    #[test]
    fn bump_next_prevents_id_reuse() {
        let mgr = TxnManager::new();
        mgr.bump_next(1000);
        let t = mgr.begin();
        assert!(t.id >= 1000);
        mgr.finish(&t);
    }

    #[test]
    fn ids_start_at_one_from_either_constructor() {
        // 0 is the wire's auto-commit sentinel: a `Begun { txn: 0 }` would
        // turn a client's updates into auto-commits.
        for mgr in [TxnManager::new(), TxnManager::default()] {
            let t = mgr.begin();
            assert_eq!(t.id, 1);
            mgr.finish(&t);
        }
    }

    #[test]
    fn slots_are_reused_and_grow_past_a_segment() {
        let mgr = TxnManager::new();
        let open: Vec<Transaction> = (0..200).map(|_| mgr.begin()).collect();
        assert_eq!(mgr.active_count(), 200);
        let mut slots: Vec<usize> = open.iter().map(|t| t.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 200, "every open transaction owns its slot");
        for t in &open {
            mgr.finish(t);
        }
        assert_eq!(mgr.active_count(), 0);
        let t = mgr.begin();
        assert!(t.slot < 200, "a free slot is reused, not a new one made");
        mgr.finish(&t);
    }

    /// One thread begins, logs and finishes transactions while another
    /// snapshots the ATT. Transaction `id` logs at `10 * id` and then
    /// `10 * id + 5`, so a listed transaction's first LSN is known: it must
    /// be at or above the snapshot's floor, and its last LSN must be one of
    /// its own. A read that mixed two owners of one slot would show as a
    /// foreign last LSN or as a floor above a listed first LSN. The writer
    /// goes on until the snapshots have caught 100 logged transactions.
    #[test]
    fn att_snapshot_floor_covers_every_listed_transaction() {
        let mgr = TxnManager::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        let caught = AtomicU64::new(0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let mut rounds = 0;
                while rounds < 20_000 || caught.load(Ordering::Relaxed) < 100 {
                    rounds += 1;
                    let mut a = mgr.begin();
                    let mut b = mgr.begin();
                    for t in [&mut a, &mut b] {
                        let base = 10 * t.id;
                        mgr.logged(t, Lsn(base));
                        mgr.logged(t, Lsn(base + 5));
                    }
                    mgr.finish(&a);
                    mgr.finish(&b);
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            while !done.load(Ordering::Acquire) {
                let (att, floor) = mgr.att_snapshot_with_floor();
                for (id, last) in att {
                    assert!(
                        [0, 10 * id, 10 * id + 5].contains(&last.raw()),
                        "txn {id} listed with another owner's last LSN {last}"
                    );
                    if last.raw() != 0 {
                        caught.fetch_add(1, Ordering::Relaxed);
                        let floor = floor.expect("a listed txn that logged sets a floor");
                        assert!(
                            floor.raw() <= 10 * id,
                            "floor {floor} above txn {id}'s first"
                        );
                    }
                }
            }
        });
        assert_eq!(mgr.active_count(), 0);
    }
}
