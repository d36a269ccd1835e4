//! The log buffer and the five insertion algorithms of the paper (§5, §A.1,
//! §A.3) that it runs.
//!
//! There is one buffer type, [`InsertBuffer`], over one [`BufferCore`] (ring,
//! watermarks, stats). The paper presents its algorithms as two
//! orthogonal changes to the baseline insert that combine (§5.3), and that
//! is how [`BufferKind`] selects among them — two axes and one guard:
//!
//! | Kind | Paper | Consolidate on contention | Decouple fill from the lock | Treadmill guard |
//! |---|---|---|---|---|
//! | `Baseline` (B) | Alg. 1 | – | – | – |
//! | `Consolidation` (C) | Alg. 2 | yes | – | – |
//! | `Decoupled` (D) | Alg. 3 | – | yes | – |
//! | `Hybrid` (CD) | §5.3 | yes | yes | – |
//! | `Delegated` (CDME) | Alg. 4, §A.3 | yes | yes | yes |
//!
//! * **Consolidate** (off: every insert takes the insert lock itself): an
//!   insert that finds the lock busy backs off into the consolidation array
//!   ([`crate::carray`]) and joins a group; the group's leader takes the
//!   lock and reserves once for all members, who fill disjoint sub-ranges
//!   computed at join time; the last member out releases the group's range.
//!   C makes one `try_lock` before backing off; CD and CDME, whose lock is
//!   held for LSN generation only, spin on it briefly first. Records larger
//!   than a group may be (an eighth of the ring) take the lock directly.
//! * **Decouple** (off: the lock is held across the fill and the release is
//!   "advance the watermark, unlock" — so fills are serialized, Figure 8's
//!   ~140 MB/s plateau for B): the lock covers LSN generation only, fills
//!   run in parallel, and ranges release in LSN order through the hand-off
//!   table of the `release` module — a finisher whose predecessor is still
//!   filling hands its range to that predecessor instead of waiting.
//! * **Treadmill guard**: Algorithm 4's occasional refusal to hand off, so
//!   no thread publishes an endless chain of other threads' releases.
//!
//! Inserting is the **reservation protocol** ([`LogBuffer::reserve`] →
//! [`LogSlot`]) and nothing else: acquire hands the caller an exclusively
//! owned byte range of the ring with the header already encoded in place,
//! the caller serializes its payload straight into the ring (the frame CRC
//! streams along with the bytes), and releasing the slot runs the kind's
//! release stage.
//!
//! The insert critical path never allocates and never blocks on I/O;
//! back-pressure (ring full) is the only wait that can sleep — it is a wait
//! on the durable watermark like a committer's, and resolves as the flush
//! daemon reclaims space; every other wait on the
//! insert path (the insert lock, a group leader's allocation) spins, then
//! yields. A record costs exactly one pass over its payload:
//! no intermediate encode buffer on the way in (see [`EncodePayload`]) and
//! no scratch copy on the way out (the flush daemon drains ring slices via
//! [`BufferCore::released_slices`]).

mod insert;
mod release;

pub use insert::InsertBuffer;

use crate::carray::Slot;
use crate::config::LogConfig;
use crate::error::{AetherError, Result};
use crate::flush::FlushShared;
use crate::lsn::{AtomicLsn, Lsn};
use crate::padded::CachePadded;
use crate::record::{
    crc32_finish, crc32_update, encode_frame_header, on_log_size, RecordKind, CHECKSUM_OFFSET,
    CRC32_INIT, HEADER_SIZE, MAX_PAYLOAD,
};
use crate::ring::Ring;
use crate::runtime::{self, WaitSet};
use crate::stats::BufferStats;
use crate::telemetry::{Stage, Telemetry};
use release::{Finish, OrderedRelease};
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Which insertion algorithm a [`crate::manager::LogManager`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Algorithm 1: one mutex across acquire/fill/release.
    Baseline,
    /// Algorithm 2: consolidation-array backoff (C).
    Consolidation,
    /// Algorithm 3: decoupled buffer fill (D).
    Decoupled,
    /// §5.3: consolidation + decoupling (CD).
    Hybrid,
    /// §A.3: CD + delegated buffer release with its treadmill guard (CDME).
    Delegated,
}

impl BufferKind {
    /// All variants, in the order the paper's figures present them.
    pub const ALL: [BufferKind; 5] = [
        BufferKind::Baseline,
        BufferKind::Consolidation,
        BufferKind::Decoupled,
        BufferKind::Hybrid,
        BufferKind::Delegated,
    ];

    /// Short label used in experiment output ("B", "C", "D", "CD", "CDME").
    pub fn label(&self) -> &'static str {
        match self {
            BufferKind::Baseline => "B",
            BufferKind::Consolidation => "C",
            BufferKind::Decoupled => "D",
            BufferKind::Hybrid => "CD",
            BufferKind::Delegated => "CDME",
        }
    }

    /// Construct a buffer of this kind over `core`.
    pub fn build(&self, core: Arc<BufferCore>, config: &LogConfig) -> Arc<dyn LogBuffer> {
        Arc::new(InsertBuffer::new(*self, core, config))
    }
}

impl std::fmt::Display for BufferKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A log buffer: what the layers above hold ([`InsertBuffer`] implements it).
///
/// The one way into the ring is [`LogBuffer::reserve`]: it runs the kind's
/// acquire protocol (lock / consolidation / LSN generation / back-pressure)
/// and hands back a [`LogSlot`] — an exclusively owned byte range of the
/// ring with the record header already serialized in place. The caller
/// writes its payload **directly into the ring** through the slot (the ring
/// handles the wrap split; the frame CRC is computed as the bytes stream
/// by) and then [`LogSlot::release`]s, which patches the checksum in place
/// and runs the kind's release path. No intermediate buffer, no
/// allocation, exactly one copy of the payload — the memcpy the paper says
/// an insert should cost (§5).
pub trait LogBuffer: Send + Sync {
    /// Reserve ring space for one record of `payload_len` payload bytes and
    /// return the slot to fill. Blocks only for ring back-pressure (and, by
    /// design, contention); never for device I/O.
    ///
    /// The record is published when the returned slot is released (or
    /// dropped); until then, depending on the kind, later inserts may be
    /// blocked behind it — fill promptly.
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_>;

    /// Reserve `len` bytes of ring for a run of records with one insert-lock
    /// acquisition, one LSN range and one release ticket, and return the
    /// run to write them into ([`LogRun::record`]). Keep `len` within an
    /// eighth of the ring, a consolidation group's bound, so a run always
    /// fits beside the groups in flight. The kinds that fill under the lock
    /// (B, C) hold it until the run is released, as a direct insert does.
    fn reserve_run(&self, len: u64) -> LogRun<'_>;

    /// Shared core (watermarks, stats, ring geometry).
    fn core(&self) -> &BufferCore;

    /// Which insertion algorithm this buffer runs.
    fn kind(&self) -> BufferKind;
}

/// Reject oversized payloads **before** any lock is taken or LSN space is
/// reserved. `reserve` calls this on entry: panicking later (insert mutex
/// held, reservation issued, slot not yet constructed) would leave the lock
/// locked and the hole unreleased, wedging every subsequent insert.
#[inline]
pub(crate) fn check_payload_len(payload_len: usize) {
    assert!(
        payload_len <= MAX_PAYLOAD,
        "payload of {payload_len} bytes exceeds MAX_PAYLOAD"
    );
}

/// A payload that can serialize itself straight into a reserved log slot.
///
/// Implementors promise `encode_into` writes exactly `encoded_len()` bytes.
/// This is how the storage layer's WAL payloads (a commit's cells, a
/// checkpoint's dirty-page table) reach the log with zero intermediate `Vec`s: the encoding happens inside
/// the ring, not into a temporary that is then copied.
pub trait EncodePayload {
    /// Exact number of bytes `encode_into` will write.
    fn encoded_len(&self) -> usize;

    /// Serialize into the slot's payload region.
    fn encode_into(&self, w: &mut SlotWriter<'_>);
}

impl EncodePayload for [u8] {
    fn encoded_len(&self) -> usize {
        self.len()
    }
    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        w.put_slice(self);
    }
}

impl<const N: usize> EncodePayload for [u8; N] {
    fn encoded_len(&self) -> usize {
        N
    }
    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        w.put_slice(self);
    }
}

/// Streaming writer over a reserved payload region of the ring.
///
/// Bytes go straight to their final location (`write_at` splits the copy in
/// at most two segments on ring wrap) while the frame CRC accumulates, so a
/// record costs exactly one pass over its payload.
pub struct SlotWriter<'a> {
    ring: &'a Ring,
    /// Stream offset of payload byte 0.
    base: u64,
    /// Payload capacity in bytes.
    len: u32,
    written: u32,
    /// Running (pre-finalization) frame CRC: header already folded in.
    crc: u32,
}

impl std::fmt::Debug for SlotWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotWriter")
            .field("len", &self.len)
            .field("written", &self.written)
            .finish()
    }
}

impl SlotWriter<'_> {
    /// Payload capacity of the reservation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len as usize
    }

    /// Bytes written so far.
    #[inline]
    pub fn written(&self) -> usize {
        self.written as usize
    }

    /// Bytes still unwritten.
    #[inline]
    pub fn remaining(&self) -> usize {
        (self.len - self.written) as usize
    }

    /// Append `bytes` to the payload.
    ///
    /// # Panics
    /// Panics if the write would overflow the reservation.
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len() <= self.remaining(),
            "slot overflow: {} bytes into a reservation with {} remaining",
            bytes.len(),
            self.remaining()
        );
        // SAFETY: the slot owns `[base, base + len)` exclusively (LSN space
        // is handed out exactly once) and `written` never exceeds `len`.
        unsafe { self.ring.write_at(self.base + self.written as u64, bytes) };
        self.crc = crc32_update(self.crc, bytes);
        self.written += bytes.len() as u32;
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// How a [`LogSlot`] publishes its record — the release half of the insert,
/// run by [`LogSlot::release`] — along the same two axes as the acquire.
#[derive(Clone, Copy)]
pub(crate) struct SlotFinish<'a> {
    /// The consolidation group the record belongs to: its array slot and
    /// the base LSN and length of the group's range. The members share the
    /// group's `order`; whichever finishes last releases the whole range
    /// and recycles the slot. `None`: the record is released on its own.
    group: Option<(&'a Slot, Lsn, u64)>,
    order: Release<'a>,
}

/// How a reserved range — a record's or a group's — is released.
#[derive(Clone, Copy)]
pub(crate) enum Release<'a> {
    /// Coupled fill (B, C): the insert lock has been held since the
    /// reservation, so advance the released watermark and drop it — perhaps
    /// on another thread than took it (Algorithm 2, line 20).
    Locked(&'a InsertLock),
    /// Decoupled fill (D, CD, CDME): release in LSN order with the ticket
    /// taken at reservation, handing off to a predecessor that is still
    /// filling ([`BufferCore::release_ordered`]).
    Ordered { ticket: u64, treadmill_inv: u32 },
    /// A record of a [`LogRun`]: the run releases its whole range at once,
    /// so the record's own release publishes nothing.
    InRun,
}

impl Release<'_> {
    /// Publish `[start, end)` this way (nothing for [`Release::InRun`]).
    fn publish(self, core: &BufferCore, start: Lsn, end: Lsn) {
        match self {
            Release::Locked(lock) => {
                core.advance_released(end);
                lock.unlock();
            }
            Release::Ordered {
                ticket,
                treadmill_inv,
            } => core.release_ordered(ticket, start, end, treadmill_inv),
            Release::InRun => {}
        }
    }
}

/// An exclusively owned, header-initialized record reservation in the ring.
///
/// Produced by [`LogBuffer::reserve`]; the caller streams its payload in via
/// the embedded [`SlotWriter`] and calls [`LogSlot::release`]. Dropping a
/// slot without releasing it zero-fills the unwritten payload tail and
/// releases anyway — the release protocols are chained (in-order watermarks,
/// group counts, cross-thread mutex handoff), so an abandoned reservation
/// would wedge every later insert.
pub struct LogSlot<'a> {
    core: &'a BufferCore,
    writer: SlotWriter<'a>,
    start: Lsn,
    total_len: u32,
    /// Fill-start timestamp when telemetry is enabled, else 0.
    t_fill: u64,
    finish: SlotFinish<'a>,
    done: bool,
}

impl std::fmt::Debug for LogSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogSlot")
            .field("start", &self.start)
            .field("total_len", &self.total_len)
            .field("written", &self.writer.written)
            .finish()
    }
}

impl<'a> LogSlot<'a> {
    /// Start LSN of the record.
    #[inline]
    pub fn lsn(&self) -> Lsn {
        self.start
    }

    /// LSN one past the record (start + aligned on-log size) — the
    /// durability target for commit waits on this record.
    #[inline]
    pub fn end_lsn(&self) -> Lsn {
        self.start.advance(self.total_len as u64)
    }

    /// The payload writer.
    #[inline]
    pub fn writer(&mut self) -> &mut SlotWriter<'a> {
        &mut self.writer
    }

    /// Append payload bytes (shorthand for `writer().put_slice`).
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.writer.put_slice(bytes);
    }

    /// Serialize `payload` into the slot. The payload's `encoded_len` must
    /// match the reserved length (callers reserve with that same value).
    #[inline]
    pub fn fill<P: EncodePayload + ?Sized>(&mut self, payload: &P) {
        payload.encode_into(&mut self.writer);
    }

    /// Finalize and publish the record: patch the frame CRC into the header
    /// in place, account the insert, and run the variant's release path.
    /// Returns the record's start LSN.
    ///
    /// The payload must be completely written; a debug assertion enforces it
    /// (release builds treat a short release like a drop: the record is
    /// neutralized to an all-zero [`RecordKind::Filler`]).
    pub fn release(mut self) -> Lsn {
        debug_assert_eq!(
            self.writer.written, self.writer.len,
            "released a slot with an incomplete payload"
        );
        let lsn = self.start;
        self.finalize();
        lsn
    }

    fn finalize(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        // Abandoned (or short-released) slot — e.g. a serializer panicked
        // mid-fill. The release chain must still run (successors are queued
        // behind this reservation), but the half-written record must NOT
        // reach recovery or a replica under its original kind: a CRC-valid
        // UpdateCommit frame with a garbage payload would wedge replay
        // forever. Neutralize it: rewrite the header in place as an
        // all-zero-payload Filler (which every log consumer skips) and
        // restart the frame CRC accordingly.
        if self.writer.written < self.writer.len {
            let header =
                encode_frame_header(RecordKind::Filler, 0, Lsn::ZERO, self.writer.len as usize);
            // SAFETY: the header and payload lie inside this reservation.
            unsafe { self.core.ring.write_at(self.start.raw(), &header) };
            self.writer.crc = crc32_update(CRC32_INIT, &header);
            self.writer.written = 0;
            while self.writer.remaining() > 0 {
                const ZEROS: [u8; 64] = [0u8; 64];
                let n = self.writer.remaining().min(ZEROS.len());
                self.writer.put_slice(&ZEROS[..n]);
            }
        }
        let crc = crc32_finish(self.writer.crc);
        // SAFETY: the checksum field lies inside this slot's reservation.
        unsafe {
            self.core.ring.write_at(
                self.start.raw() + CHECKSUM_OFFSET as u64,
                &crc.to_le_bytes(),
            );
        }
        let tel = &self.core.telemetry;
        tel.inc(tel.ids().log_inserts);
        tel.add(tel.ids().log_bytes, self.total_len as u64);
        let t_rel = if tel.on() { runtime::monotonic_ns() } else { 0 };
        // A group member that is not the last one out has nothing to
        // release; the last one releases the group's range, not its own.
        let range = match self.finish.group {
            None => Some((self.start, self.end_lsn())),
            Some((slot, base, len)) => slot.release_member(self.total_len as u64).then(|| {
                slot.free();
                (base, base.advance(len))
            }),
        };
        if let Some((start, end)) = range {
            self.finish.order.publish(self.core, start, end);
        }
        if t_rel != 0 {
            let done = runtime::monotonic_ns();
            if self.t_fill != 0 {
                tel.record(tel.ids().log_insert_ns, done.saturating_sub(self.t_fill));
                tel.add(tel.ids().log_fill_ns, t_rel.saturating_sub(self.t_fill));
                tel.span(Stage::Fill, self.start, self.t_fill, t_rel);
            }
            tel.add(tel.ids().log_release_ns, done.saturating_sub(t_rel));
            tel.span(Stage::Release, self.start, t_rel, done);
        }
    }
}

impl Drop for LogSlot<'_> {
    fn drop(&mut self) {
        self.finalize();
    }
}

/// A run of records reserved together ([`LogBuffer::reserve_run`]): one
/// insert-lock acquisition, one LSN range and one release serve them all,
/// as a consolidation group's do (Algorithm 2), but for records one thread
/// already holds. Each [`LogRun::record`] is an ordinary record with its
/// own header and checksum; [`LogRun::release`] publishes the range. A run
/// dropped short of its range fills the rest with [`RecordKind::Filler`]
/// records and releases anyway, so later inserts never wedge behind it.
pub struct LogRun<'a> {
    core: &'a BufferCore,
    start: Lsn,
    /// Start of the next record.
    next: Lsn,
    end: Lsn,
    order: Release<'a>,
    done: bool,
}

impl std::fmt::Debug for LogRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogRun")
            .field("start", &self.start)
            .field("next", &self.next)
            .field("end", &self.end)
            .finish()
    }
}

impl<'a> LogRun<'a> {
    pub(crate) fn new(core: &'a BufferCore, start: Lsn, len: u64, order: Release<'a>) -> Self {
        LogRun {
            core,
            start,
            next: start,
            end: start.advance(len),
            order,
            done: false,
        }
    }

    /// Start LSN of the run's range.
    pub fn lsn(&self) -> Lsn {
        self.start
    }

    /// The next record of the run, at the end of the one before: fill it
    /// and release it as any slot. Its release writes its checksum and
    /// publishes nothing; the run's does.
    ///
    /// # Panics
    /// Panics if the record does not fit in what is left of the range.
    pub fn record(
        &mut self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        check_payload_len(payload_len);
        let start = self.next;
        let next = start.advance(on_log_size(payload_len) as u64);
        assert!(next <= self.end, "a record past the end of its run");
        self.next = next;
        let finish = SlotFinish {
            group: None,
            order: Release::InRun,
        };
        self.core
            .begin_fill(start, kind, txn, prev, payload_len, finish)
    }

    /// Publish the run's range; returns its end.
    pub fn release(mut self) -> Lsn {
        debug_assert_eq!(self.next, self.end, "released a run short of its range");
        self.finalize();
        self.end
    }

    fn finalize(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        while self.next < self.end {
            let left = (self.end.raw() - self.next.raw()) as usize;
            // The whole rest as one filler, or half the largest payload
            // and the rest after it.
            let len = match left - HEADER_SIZE {
                whole if whole <= MAX_PAYLOAD => whole,
                _ => MAX_PAYLOAD / 2,
            };
            // An abandoned slot publishes itself as an all-zero filler.
            drop(self.record(RecordKind::Filler, 0, Lsn::ZERO, len));
        }
        self.order.publish(self.core, self.start, self.end);
    }
}

impl Drop for LogRun<'_> {
    fn drop(&mut self) {
        self.finalize();
    }
}

/// Wait backoff shared by the busy-waits on the insert path: brief spinning
/// (the common case on multicore — the paper's target), then yielding so
/// that on an oversubscribed host the thread being waited for gets the core.
/// It never sleeps: a sleeping waiter is late by a scheduler quantum every
/// time, which on the insert path turns one descheduled thread into a
/// convoy. Waits that may last (a flush, a replica) belong on a condvar.
#[derive(Debug, Default)]
pub struct WaitBackoff {
    spins: u32,
}

impl WaitBackoff {
    /// Fresh backoff state.
    #[inline]
    pub fn new() -> Self {
        WaitBackoff { spins: 0 }
    }

    /// Wait one step: spin for the first 32, then yield.
    #[inline]
    pub fn wait(&mut self) {
        if self.spins < 32 {
            self.spins += 1;
            std::hint::spin_loop();
        } else {
            runtime::yield_now();
        }
    }
}

/// A test-and-test-and-set lock with bounded spinning and yielding.
///
/// The log insert critical section is short (§5: "LSN generation is short and
/// predictable"), so a spin lock is appropriate. Unlike `std::sync::Mutex`,
/// this lock may be *released by a different thread* than the one that
/// acquired it — exactly what the consolidation variant needs, where the last
/// member of a group to finish its fill releases the lock the group leader
/// acquired (Algorithm 2, line 20).
#[derive(Debug, Default)]
pub struct InsertLock {
    locked: AtomicBool,
}

impl InsertLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        InsertLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Non-blocking attempt (Algorithm 2 line 2 starts with one of these).
    #[inline]
    pub fn try_lock(&self) -> bool {
        !self.locked.load(Ordering::Relaxed)
            && self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// [`InsertLock::try_lock`], retried a small fixed number of times.
    ///
    /// For the variants that hold the lock for LSN generation only (D, CD,
    /// CDME): the critical section is a few stores, so a holder that is
    /// running is gone within a few spins, and waiting it out is far cheaper
    /// than forming a consolidation group of one. A holder that is
    /// descheduled costs the caller only these few spins before it backs
    /// off into the array.
    #[inline]
    pub fn try_lock_spin(&self) -> bool {
        const TRIES: u32 = 24;
        for _ in 0..TRIES {
            if self.try_lock() {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    /// Acquire, spinning then yielding (see [`WaitBackoff`]).
    #[inline]
    pub fn lock(&self) {
        let mut backoff = WaitBackoff::new();
        loop {
            if self.try_lock() {
                return;
            }
            backoff.wait();
        }
    }

    /// Release. May be called from any thread, provided the lock is held and
    /// the caller has been handed responsibility for it.
    #[inline]
    pub fn unlock(&self) {
        debug_assert!(self.locked.load(Ordering::Relaxed), "unlock of free lock");
        self.locked.store(false, Ordering::Release);
    }
}

/// The LSN allocator: its state is protected by the variant's [`InsertLock`].
///
/// Wrapped in `UnsafeCell` because the lock discipline (not the type system)
/// guarantees exclusive access; see the safety comments at each use.
#[derive(Debug)]
pub struct LsnAlloc {
    next: UnsafeCell<u64>,
    /// Reservations ending at or below this fit in the ring as of the last
    /// look at the durable watermark, which is read again only past it.
    space_limit: UnsafeCell<u64>,
    /// Next release ticket (D, CD and CDME take one per reservation).
    ticket: UnsafeCell<u64>,
    /// Tickets below this were free in the hand-off table when last looked;
    /// the release head's line is read again only past it.
    ticket_limit: UnsafeCell<u64>,
}

// SAFETY: the cells are only dereferenced while the owning variant's
// InsertLock is held, which serializes access.
unsafe impl Sync for LsnAlloc {}

impl LsnAlloc {
    /// Start allocating at `start`.
    pub fn new(start: Lsn) -> Self {
        LsnAlloc {
            next: UnsafeCell::new(start.raw()),
            space_limit: UnsafeCell::new(0),
            ticket: UnsafeCell::new(0),
            ticket_limit: UnsafeCell::new(0),
        }
    }

    /// Reserve `len` bytes; returns the start LSN of the reservation.
    ///
    /// # Safety
    /// Caller must hold the associated [`InsertLock`].
    #[inline]
    pub unsafe fn reserve(&self, len: u64) -> Lsn {
        // SAFETY: exclusive access per the function contract.
        let next = unsafe { &mut *self.next.get() };
        let start = *next;
        *next = start + len;
        Lsn(start)
    }

    /// [`LsnAlloc::reserve`], then wait until the reservation fits in
    /// `core`'s ring (back-pressure: the flush daemon advances the durable
    /// watermark without the insert lock, so this cannot deadlock).
    ///
    /// # Safety
    /// Caller must hold the associated [`InsertLock`].
    #[inline]
    pub unsafe fn reserve_space(&self, len: u64, core: &BufferCore) -> Lsn {
        // SAFETY: exclusive access per the function contract.
        let (start, limit) = unsafe { (self.reserve(len), &mut *self.space_limit.get()) };
        let end = start.advance(len);
        if end.raw() > *limit {
            core.wait_for_space(end);
            *limit = core.durable_lsn().raw() + core.capacity();
        }
        start
    }

    /// Current frontier.
    ///
    /// # Safety
    /// Caller must hold the associated [`InsertLock`].
    #[inline]
    pub unsafe fn frontier(&self) -> Lsn {
        // SAFETY: exclusive access per the function contract.
        Lsn(unsafe { *self.next.get() })
    }

    /// [`LsnAlloc::reserve_space`] plus the release ticket that goes with the
    /// reservation (D, CD, CDME), so tickets and LSN ranges are issued in the
    /// same order. Waits (yielding) while `core`'s hand-off table has no free
    /// entry, which takes as many reservations in flight as the table has
    /// entries.
    ///
    /// # Safety
    /// Caller must hold the associated [`InsertLock`].
    #[inline]
    pub(crate) unsafe fn reserve_ordered(&self, len: u64, core: &BufferCore) -> (Lsn, u64) {
        // SAFETY: exclusive access per the function contract.
        let (start, ticket, limit) = unsafe {
            (
                self.reserve_space(len, core),
                &mut *self.ticket.get(),
                &mut *self.ticket_limit.get(),
            )
        };
        let mine = *ticket;
        while mine >= *limit {
            match core.order.tickets_free(mine) {
                // The releases that free an entry do not need the insert
                // lock we hold, so this cannot deadlock.
                0 => runtime::yield_now(),
                free => *limit = mine + free,
            }
        }
        *ticket = mine + 1;
        (start, mine)
    }
}

/// A variant's insert lock and the allocator it protects, on a cache line
/// of their own: whoever takes the lock gets the allocator with it, and
/// neither shares a line with anything read outside the lock.
#[derive(Debug)]
pub(crate) struct InsertGate {
    pub(crate) lock: InsertLock,
    pub(crate) alloc: LsnAlloc,
}

impl InsertGate {
    pub(crate) fn new(start: Lsn) -> CachePadded<InsertGate> {
        CachePadded::new(InsertGate {
            lock: InsertLock::new(),
            alloc: LsnAlloc::new(start),
        })
    }
}

/// State shared by every buffer variant: the ring, the release/durability
/// watermarks, back-pressure plumbing and statistics.
pub struct BufferCore {
    ring: Ring,
    /// The released watermark — the contiguous prefix of the log stream
    /// whose fills are complete; the flush daemon may copy
    /// `[durable, released)` to the device — and the hand-off table that
    /// advances it in LSN order. The watermark has a cache line to itself.
    order: OrderedRelease,
    /// Prefix that has reached the device; ring bytes below this may be
    /// overwritten (reclaimed). On its own line: the flush daemon writes it,
    /// reservations read it (when their cached bound runs out).
    durable: CachePadded<AtomicLsn>,
    /// When true there is no flush daemon and no durable watermark of its
    /// own: what is released is reclaimed, [`BufferCore::durable_lsn`] is
    /// the released watermark (microbenchmark mode, Null device).
    auto_reclaim: AtomicBool,
    /// Set once nothing more will become durable, and every wait on the
    /// watermark that has no deadline ends: to `Some(reason)` when the flush
    /// daemon poisoned the log, to `None` when it shut down.
    closed: OnceLock<Option<String>>,
    /// Everyone waiting for the durable watermark to move: committers,
    /// inserters out of ring space, the log shipper. Read on every durable
    /// advance, written only around a block, so kept off the lines the
    /// advance itself writes.
    durable_wait: CachePadded<WaitSet>,
    /// The flush daemon's state, so whoever needs an LSN durable can ask
    /// for it (unset without a daemon).
    flusher: OnceLock<Arc<FlushShared>>,
    /// The buffer's counters, a typed view of `telemetry`'s `log.*` ones.
    pub stats: BufferStats,
    /// Per-log telemetry registry, shared (via [`BufferCore::telemetry`])
    /// with the flush daemon, commit gate, storage and replication layers.
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for BufferCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferCore")
            .field("capacity", &self.ring.capacity())
            .field("released", &self.released_lsn())
            .field("durable", &self.durable_lsn())
            .finish()
    }
}

impl BufferCore {
    /// Build a core with a ring of `config.buffer_size` bytes.
    pub fn new(config: &LogConfig) -> Arc<BufferCore> {
        Self::with_start(config, Lsn::ZERO)
    }

    /// Build a core whose LSN space begins at `start`: the end of a device
    /// that already holds log bytes, so a record's LSN is its offset there.
    pub fn with_start(config: &LogConfig, start: Lsn) -> Arc<BufferCore> {
        config.validate().map_err(AetherError::Config).unwrap();
        let telemetry = Arc::new(Telemetry::new(&config.telemetry));
        Arc::new(BufferCore {
            ring: Ring::new(config.buffer_size),
            order: OrderedRelease::new(start, config.release_queue_pool),
            durable: CachePadded::new(AtomicLsn::new(start)),
            auto_reclaim: AtomicBool::new(false),
            closed: OnceLock::new(),
            durable_wait: CachePadded::default(),
            flusher: OnceLock::new(),
            stats: BufferStats::new(Arc::clone(&telemetry)),
            telemetry,
        })
    }

    /// The per-log telemetry registry. One registry serves every layer that
    /// touches this log (flush daemon, commit gate, storage, replication),
    /// so a single snapshot describes the whole pipeline.
    #[inline]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Stash "reserve started now" for the calling thread iff telemetry is
    /// enabled. `reserve` calls this on entry, before the LSN
    /// is known; [`BufferCore::begin_fill`] consumes the mark once it is.
    #[inline]
    pub(crate) fn note_reserve_start(&self) {
        if self.telemetry.on() {
            crate::telemetry::mark_reserve_start();
        }
    }

    /// Ring capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.ring.capacity()
    }

    /// The ring itself (flush daemon reads released bytes out of it).
    #[inline]
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Route [`BufferCore::flush_until`] to the daemon behind `shared`. First
    /// call wins (one daemon serves one core).
    pub(crate) fn attach_flusher(&self, shared: Arc<FlushShared>) {
        let _ = self.flusher.set(shared);
    }

    /// Enable auto-reclaim: releasing immediately reclaims ring space (no
    /// flush daemon; used with discarding devices). Set it before the first
    /// insert and leave it: the durable watermark is not kept up meanwhile.
    pub fn set_auto_reclaim(&self, on: bool) {
        self.auto_reclaim.store(on, Ordering::Relaxed);
    }

    /// Whether auto-reclaim is on.
    pub fn auto_reclaim(&self) -> bool {
        self.auto_reclaim.load(Ordering::Relaxed)
    }

    /// Released watermark (acquire).
    #[inline]
    pub fn released_lsn(&self) -> Lsn {
        self.order.released()
    }

    /// Durable watermark (acquire); under auto-reclaim, the released one.
    #[inline]
    pub fn durable_lsn(&self) -> Lsn {
        if self.auto_reclaim() {
            self.order.released()
        } else {
            self.durable.load()
        }
    }

    /// Block until the reservation ending at `end` fits in the ring, i.e.
    /// `end - durable <= capacity`. Called with the insert lock held; the
    /// flush daemon advances `durable` independently so this cannot deadlock.
    /// An inserter out of space is one more caller that wants an LSN durable.
    /// On a closed log it goes on at once: nothing in the ring will be
    /// flushed any more, and its transaction fails at the commit.
    #[inline]
    pub fn wait_for_space(&self, end: Lsn) {
        let _ = self.flush_until(Lsn(end.raw().saturating_sub(self.capacity())));
    }

    /// Advance the released watermark to `upto`. Caller must guarantee that
    /// every byte below `upto` has been filled and that no other thread can
    /// be advancing `released` concurrently (B and C serialize by the insert
    /// lock; D, CD and CDME go through [`BufferCore::release_ordered`]).
    #[inline]
    pub fn advance_released(&self, upto: Lsn) {
        let from = self.order.released();
        self.order.publish(upto);
        self.after_release(from);
    }

    /// Run by whoever moved the released watermark from `from`, after the
    /// publish. Under auto-reclaim a release is a durable advance too: wake
    /// whoever waits for one. Otherwise a flusher may have parked on a
    /// commit registered ahead of these bytes: the daemon wakes it.
    #[inline]
    fn after_release(&self, from: Lsn) {
        if self.auto_reclaim() {
            self.notify_durable();
        } else if let Some(flusher) = self.flusher.get() {
            flusher.released_from(from);
        }
    }

    /// Advance the durable watermark (the flush daemon's job): ring space
    /// below it is reclaimed at once. [`BufferCore::notify_durable`] wakes
    /// whoever waits for it.
    #[inline]
    pub fn advance_durable(&self, upto: Lsn) {
        self.durable.fetch_max(upto);
    }

    /// Wake the threads waiting on the durable watermark. Apart from the
    /// advance so that the daemon can complete the flush's pipelined commits
    /// in between: a committer woken by a flush finds them completed.
    #[inline]
    pub fn notify_durable(&self) {
        self.durable_wait.notify();
    }

    /// Nothing more will become durable — the daemon poisoned the log, for
    /// `poison`, or shut down: end every wait that has no deadline of its
    /// own. The first call wins: a poisoned log stays so through shutdown.
    pub(crate) fn close(&self, poison: Option<String>) {
        let _ = self.closed.set(poison);
        fence(Ordering::SeqCst);
        self.durable_wait.notify();
    }

    /// Whether the log is closed: poisoned or shut down.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.get().is_some()
    }

    /// Why the flush daemon halted, if it did so on a device failure: the
    /// terminal poisoned-log state.
    pub fn poison_reason(&self) -> Option<&str> {
        self.closed.get()?.as_deref()
    }

    /// Demand durability up to `lsn` and block until it holds. This is the
    /// *baseline* commit path: one blocking wait (and its pair of context
    /// switches) per call. Fully concurrent: any number of committers may
    /// wait simultaneously and are woken together by the daemon (group
    /// commit). The daemon gives a blocked caller no yield to bring more
    /// work: its thread has nothing to add.
    ///
    /// Fails fast with [`AetherError::Poisoned`] when the daemon halted on
    /// a device failure, and with [`AetherError::Shutdown`] when the log
    /// shut down before `lsn` became durable — waiters get an `Err`, never
    /// a hang. Under auto-reclaim (no daemon) it waits out the in-flight
    /// releases below `lsn`.
    pub fn flush_until(&self, lsn: Lsn) -> Result<()> {
        if self.durable_lsn() >= lsn {
            return Ok(());
        }
        if let Some(flusher) = self.flusher.get() {
            flusher.want(lsn);
        }
        if self.wait_durable(lsn, || false) >= lsn {
            return Ok(());
        }
        Err(match self.poison_reason() {
            Some(reason) => AetherError::Poisoned {
                reason: reason.to_string(),
            },
            None => AetherError::Shutdown,
        })
    }

    /// Threads waiting on the durable watermark right now.
    #[cfg(test)]
    pub(crate) fn durable_waiters(&self) -> usize {
        self.durable_wait.waiting()
    }

    /// Block until the durable watermark reaches `lsn`, the log is closed,
    /// or `give_up` holds, and return the watermark as it is then. `give_up`
    /// is looked at under the waiters' lock: keep it a load, and whoever
    /// makes it true stores `SeqCst` and then calls
    /// [`BufferCore::notify_durable`].
    pub fn wait_durable(&self, lsn: Lsn, give_up: impl Fn() -> bool) -> Lsn {
        let seen = self.durable_wait.wait_until(None, || {
            let durable = self.durable_lsn();
            (durable >= lsn || self.is_closed() || give_up()).then_some(durable)
        });
        seen.unwrap_or_else(|| self.durable_lsn())
    }

    /// Release `[start, end)`, the range reserved with `ticket`, in LSN
    /// order without waiting for its predecessors (Algorithm 3 line 9 with
    /// the wait replaced by §A.3's hand-off): if they are all published the
    /// caller publishes `end` plus whatever successors handed off to it;
    /// otherwise it hands the range to its predecessor and returns.
    ///
    /// `treadmill_inv` is Algorithm 4's guard against one thread publishing
    /// an endless chain of hand-offs: with probability `1/treadmill_inv` a
    /// finisher that could hand off instead waits its turn (spinning, then
    /// yielding) and so takes the chain over. 0 never refuses.
    #[inline]
    pub fn release_ordered(&self, ticket: u64, start: Lsn, end: Lsn, treadmill_inv: u32) {
        if treadmill_inv != 0
            && self.order.released() != start
            && fast_rand().is_multiple_of(treadmill_inv)
        {
            let mut backoff = WaitBackoff::new();
            while self.order.released() != start {
                backoff.wait();
            }
        }
        let tel = &self.telemetry;
        match self.order.finish(ticket, start, end) {
            Finish::HandedOff => tel.inc(tel.ids().log_delegated_releases),
            Finish::Head => {
                let mut from = start;
                self.order.advance(ticket, start, end, |upto| {
                    self.after_release(from);
                    from = upto;
                });
            }
        }
    }

    /// Open a [`LogSlot`] over the reservation starting at `start`: encode
    /// the header straight into the ring (checksum zeroed, single pass),
    /// zero the alignment pad, and seed the streaming frame CRC. The caller
    /// (`reserve`) must own the reservation
    /// `[start, start + on_log_size(payload_len))` and supplies the release
    /// action the slot will run when it is released.
    pub(crate) fn begin_fill<'a>(
        &'a self,
        start: Lsn,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
        finish: SlotFinish<'a>,
    ) -> LogSlot<'a> {
        // Size validation happened in check_payload_len before any lock or
        // LSN space was taken; panicking here — with the insert mutex held
        // and the reservation issued — would wedge the log.
        debug_assert!(payload_len <= MAX_PAYLOAD);
        // The LSN is known here for the first time: close the Reserve span
        // (entry timestamp parked thread-locally by `note_reserve_start`)
        // and pin the fill start for the Fill/Release spans in `finalize`.
        let tel = &self.telemetry;
        let t_fill = if tel.on() {
            let now = runtime::monotonic_ns();
            let t0 = crate::telemetry::take_reserve_mark();
            if t0 != 0 {
                tel.add(tel.ids().log_reserve_ns, now.saturating_sub(t0));
                tel.span(Stage::Reserve, start, t0, now);
            }
            now
        } else {
            0
        };
        let total = on_log_size(payload_len);
        let header = encode_frame_header(kind, txn, prev, payload_len);
        // SAFETY: the caller owns this reservation (LSN space is handed out
        // exactly once), so the range is exclusive; see module docs.
        unsafe {
            self.ring.write_at(start.raw(), &header);
            let pad = total - HEADER_SIZE - payload_len;
            if pad > 0 {
                // Zero the pad so the stream is deterministic (no stale
                // ring bytes from a previous lap leak to the device).
                self.ring.write_at(
                    start.raw() + (total - pad) as u64,
                    &[0u8; crate::record::RECORD_ALIGN][..pad],
                );
            }
        }
        LogSlot {
            core: self,
            writer: SlotWriter {
                ring: &self.ring,
                base: start.raw() + HEADER_SIZE as u64,
                len: payload_len as u32,
                written: 0,
                crc: crc32_update(CRC32_INIT, &header),
            },
            start,
            total_len: total as u32,
            t_fill,
            finish,
            done: false,
        }
    }

    /// Borrow `len` published bytes starting at `from` directly out of the
    /// ring as at most two slices — the zero-copy flush drain.
    ///
    /// # Safety
    /// `[from, from + len)` must be published (below `released`) and must
    /// stay unreclaimed for the whole lifetime of the returned slices; only
    /// the single reclaimer (the flush daemon, which alone advances the
    /// durable watermark) can guarantee that.
    pub unsafe fn released_slices(&self, from: Lsn, len: u64) -> (&[u8], &[u8]) {
        debug_assert!(from.advance(len) <= self.released_lsn());
        // SAFETY: forwarded contract, plus `released - durable <= capacity`
        // (writers cannot reserve past `durable + capacity`), so the range
        // is within one lap of the frontier.
        unsafe { self.ring.read_slices(from.raw(), len as usize) }
    }
}

/// A tiny xorshift PRNG for probe/backoff randomization (thread-local, no
/// allocation, no `rand` dependency on the hot path).
#[inline]
pub(crate) fn fast_rand() -> u32 {
    use std::cell::Cell;
    // Under simulation, draw from the actor's seeded stream so probe and
    // backoff choices replay identically for a given seed.
    if let Some(r) = runtime::sim_thread_rand() {
        return (r >> 32) as u32;
    }
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        if x == 0 {
            // Seed from the address of a stack local + thread id hash.
            let addr = &x as *const _ as u64;
            x = addr ^ 0x853C_49E6_748F_EA9B ^ std::process::id() as u64;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        (x >> 32) as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_core() -> Arc<BufferCore> {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        BufferCore::new(&cfg)
    }

    #[test]
    fn insert_lock_basic() {
        let l = InsertLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        l.lock();
        l.unlock();
    }

    #[test]
    fn insert_lock_cross_thread_unlock() {
        let l = Arc::new(InsertLock::new());
        l.lock();
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || l2.unlock()).join().unwrap();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn lsn_alloc_reserves_contiguously() {
        let lock = InsertLock::new();
        let alloc = LsnAlloc::new(Lsn(100));
        lock.lock();
        // SAFETY: lock held.
        let a = unsafe { alloc.reserve(40) };
        let b = unsafe { alloc.reserve(8) };
        let f = unsafe { alloc.frontier() };
        lock.unlock();
        assert_eq!(a, Lsn(100));
        assert_eq!(b, Lsn(140));
        assert_eq!(f, Lsn(148));
    }

    #[test]
    fn core_watermarks_advance() {
        let core = small_core();
        assert_eq!(core.released_lsn(), Lsn::ZERO);
        core.advance_released(Lsn(64));
        assert_eq!(core.released_lsn(), Lsn(64));
        assert_eq!(core.durable_lsn(), Lsn::ZERO);
        core.advance_durable(Lsn(64));
        assert_eq!(core.durable_lsn(), Lsn(64));
    }

    #[test]
    fn auto_reclaim_moves_durable_with_released() {
        let core = small_core();
        core.set_auto_reclaim(true);
        assert!(core.auto_reclaim());
        core.advance_released(Lsn(128));
        assert_eq!(core.durable_lsn(), Lsn(128));
    }

    #[test]
    fn release_ordered_publishes_only_contiguous_prefixes() {
        let core = small_core();
        core.set_auto_reclaim(true);
        // Three reservations finishing last to first: the later two hand
        // off, the first publishes all three.
        core.release_ordered(2, Lsn(128), Lsn(192), 0);
        core.release_ordered(1, Lsn(64), Lsn(128), 0);
        assert_eq!(core.released_lsn(), Lsn::ZERO);
        assert_eq!(core.stats.snapshot().delegated_releases, 2);
        core.release_ordered(0, Lsn(0), Lsn(64), 0);
        assert_eq!(core.released_lsn(), Lsn(192));
        assert_eq!(core.durable_lsn(), Lsn(192), "auto-reclaim follows");
    }

    #[test]
    fn treadmill_refusal_waits_its_turn_instead_of_handing_off() {
        let core = small_core();
        std::thread::scope(|s| {
            // treadmill_inv = 1 always refuses: the second range must be
            // published by its own thread, after the first.
            let second = s.spawn(|| core.release_ordered(1, Lsn(64), Lsn(128), 1));
            core.release_ordered(0, Lsn(0), Lsn(64), 1);
            second.join().unwrap();
        });
        assert_eq!(core.released_lsn(), Lsn(128));
        assert_eq!(core.stats.snapshot().delegated_releases, 0);
    }

    #[test]
    fn tickets_wait_for_a_free_handoff_entry() {
        let cfg = LogConfig {
            release_queue_pool: 64,
            ..LogConfig::default().with_buffer_size(1 << 16)
        };
        let core = BufferCore::new(&cfg);
        let gate = InsertGate::new(Lsn::ZERO);
        gate.lock.lock();
        // SAFETY: lock held.
        let tickets: Vec<u64> = (0..64)
            .map(|_| unsafe { gate.alloc.reserve_ordered(8, &core).1 })
            .collect();
        assert_eq!(tickets, (0..64).collect::<Vec<_>>());
        // The 65th would reuse ticket 0's entry: it must wait for ticket 0.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| unsafe { gate.alloc.reserve_ordered(8, &core).1 });
            crate::runtime::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished());
            core.release_ordered(0, Lsn(0), Lsn(8), 0);
            assert_eq!(waiter.join().unwrap(), 64);
        });
        gate.lock.unlock();
    }

    #[test]
    fn wait_for_space_blocks_until_reclaim() {
        let core = small_core(); // 64 KiB
        let cap = core.capacity();
        // Pretend the ring is full: reservation would end 1 byte past.
        let end = Lsn(cap + 1);
        let core2 = Arc::clone(&core);
        let t = std::thread::spawn(move || {
            core2.wait_for_space(end);
        });
        crate::runtime::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished());
        core.advance_durable(Lsn(1));
        core.notify_durable();
        t.join().unwrap();
    }

    #[test]
    fn wait_durable_wakes_on_advance() {
        let core = small_core();
        let core2 = Arc::clone(&core);
        let t = std::thread::spawn(move || core2.wait_durable(Lsn(100), || false));
        crate::runtime::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished());
        core.advance_durable(Lsn(64));
        core.notify_durable(); // not enough: waiter re-arms
        core.advance_durable(Lsn(128));
        core.notify_durable();
        assert_eq!(t.join().unwrap(), Lsn(128));
        // Already satisfied: returns immediately.
        assert_eq!(core.wait_durable(Lsn(5), || false), Lsn(128));
    }

    #[test]
    fn wait_durable_gives_up_when_its_condition_holds() {
        let core = small_core();
        let give_up = Arc::new(AtomicBool::new(false));
        let t = {
            let (core, give_up) = (Arc::clone(&core), Arc::clone(&give_up));
            std::thread::spawn(move || {
                core.wait_durable(Lsn(1000), || give_up.load(Ordering::SeqCst))
            })
        };
        crate::runtime::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished());
        give_up.store(true, Ordering::SeqCst);
        core.notify_durable();
        assert_eq!(t.join().unwrap(), Lsn::ZERO);
    }

    #[test]
    fn fast_rand_varies() {
        let a = fast_rand();
        let b = fast_rand();
        let c = fast_rand();
        assert!(!(a == b && b == c), "xorshift should not be constant");
    }

    #[test]
    fn buffer_kind_labels() {
        assert_eq!(BufferKind::Baseline.label(), "B");
        assert_eq!(BufferKind::Delegated.to_string(), "CDME");
        assert_eq!(BufferKind::ALL.len(), 5);
    }
}
