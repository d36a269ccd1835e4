//! Ordered release with hand-off: how D, CD and CDME publish fills in LSN
//! order without anyone waiting for a predecessor (§5.2, §A.3).
//!
//! Records must be published in LSN order — recovery stops at the first gap
//! — but fills finish in any order. Waiting for `released` to reach one's
//! own start convoys every inserter behind one descheduled thread, so a
//! finisher whose predecessor is still filling instead **hands its range to
//! that predecessor and leaves**: the §A.3 idea (delegated release), here
//! through a fixed table rather than an abortable-MCS queue, so the three
//! variants share one mechanism and the uncontended path stays one load and
//! one store of `released`.
//!
//! ## Protocol
//!
//! Every reservation takes a *ticket* under the insert lock, so tickets and
//! LSN ranges are issued in the same order; ticket `t` owns table entry
//! `t mod N`. A finisher with `(ticket, start, end)`:
//!
//! 1. If `released == start` its predecessors are all published: it is the
//!    **head**, the one thread allowed to advance `released`.
//! 2. Otherwise it deposits `start → end` in its entry and re-reads
//!    `released`. Still not `start`: the predecessor will find the deposit;
//!    done. Now `start`: the predecessor may have looked before the deposit
//!    landed, so the finisher tries to take the deposit back with a CAS —
//!    whoever wins that CAS (it, or the predecessor consuming) is the head.
//! 3. The head publishes `released = end`, then looks at the next ticket's
//!    entry: a deposit starting at `end` is consumed (CAS) and its range
//!    published the same way, until the chain ends at a ticket that is still
//!    filling — whose owner will find `released == start` in step 1.
//!
//! Steps 2 and 3 are a store followed by a load of the other side's word,
//! all four `SeqCst`, so at least one side sees the other (Dekker) and the
//! CAS on the entry picks exactly one head. Deposits are keyed by start LSN,
//! which never repeats, so a head that was descheduled between its publish
//! and its look at the next entry cannot mistake a later lap's deposit for
//! its successor's.
//!
//! **Invariant:** `released` is the end of a contiguous prefix of completed
//! fills, and exactly one thread — the head — advances it at a time.
//!
//! The same pair wakes the flush daemon for a commit registered ahead of its
//! handed-off release. A flusher that finds the want and nothing released
//! raises `FlushShared::ahead` to it and then reads `released`; after every
//! publish the head reads `ahead` (`BufferCore::after_release`). Both writes
//! and both reads are `SeqCst` (the flusher's read follows a `SeqCst` fence),
//! so either the flusher sees the bytes and claims them, or the head sees a
//! want above the watermark it moved from and wakes a flusher.
//!
//! An entry may be reused once its previous ticket is released, so at most
//! `N` tickets are outstanding: `LsnAlloc::ticket` holds back the `N`-th
//! reservation past the head (under the insert lock, like ring
//! back-pressure) until the head moves.

use crate::lsn::Lsn;
use crate::padded::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// No deposit. Not a start LSN: a reservation starting here could not end.
const EMPTY: u64 = u64::MAX;

/// One table entry: a finished range waiting for its predecessor.
#[derive(Debug)]
struct Handoff {
    /// Start LSN of the deposited range, or [`EMPTY`]. Written last by the
    /// depositor; cleared by whoever takes the range over.
    start: AtomicU64,
    /// End LSN of the deposited range; valid while `start` is set.
    end: AtomicU64,
}

/// The released watermark and the ticket that goes with it. Only the head
/// writes this line.
#[derive(Debug)]
struct Head {
    released: AtomicU64,
    /// Tickets below this are released, their table entries free.
    ticket: AtomicU64,
}

/// The released watermark plus the hand-off table (see the module docs).
#[derive(Debug)]
pub(crate) struct OrderedRelease {
    head: CachePadded<Head>,
    table: Box<[Handoff]>,
}

/// What a finisher has to do after [`OrderedRelease::finish`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Finish {
    /// The range was handed to a predecessor, which will publish it.
    HandedOff,
    /// The caller is the head: it must [`OrderedRelease::advance`].
    Head,
}

impl OrderedRelease {
    /// A table of `entries` (rounded up to a power of two) with nothing
    /// outstanding below `start`.
    pub(crate) fn new(start: Lsn, entries: usize) -> OrderedRelease {
        OrderedRelease {
            head: CachePadded::new(Head {
                released: AtomicU64::new(start.raw()),
                ticket: AtomicU64::new(0),
            }),
            table: (0..entries.next_power_of_two())
                .map(|_| Handoff {
                    start: AtomicU64::new(EMPTY),
                    end: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn entry(&self, ticket: u64) -> &Handoff {
        &self.table[(ticket & (self.table.len() as u64 - 1)) as usize]
    }

    /// Released watermark (acquire: pairs with the head's publish, so fills
    /// below it are visible).
    #[inline]
    pub(crate) fn released(&self) -> Lsn {
        Lsn(self.head.released.load(Ordering::Acquire))
    }

    /// Publish `upto` outside the ticket protocol. The caller serializes
    /// releases itself (B and C release under the insert lock). `SeqCst`
    /// like the head's own publish: under auto-reclaim the watermark is what
    /// the durable waiters are notified of.
    #[inline]
    pub(crate) fn publish(&self, upto: Lsn) {
        debug_assert!(self.released() <= upto, "released went backwards");
        self.head.released.store(upto.raw(), Ordering::SeqCst);
    }

    /// Number of tickets that may be issued before the table wraps onto an
    /// unreleased one, given `ticket` is the next to issue; 0 means wait.
    #[inline]
    pub(crate) fn tickets_free(&self, ticket: u64) -> u64 {
        let released = self.head.ticket.load(Ordering::Acquire);
        (released + self.table.len() as u64).saturating_sub(ticket)
    }

    /// Step 1–2 of the protocol for the range `[start, end)` of `ticket`.
    #[inline]
    pub(crate) fn finish(&self, ticket: u64, start: Lsn, end: Lsn) -> Finish {
        if self.head.released.load(Ordering::Acquire) == start.raw() {
            return Finish::Head;
        }
        let entry = self.entry(ticket);
        debug_assert_eq!(entry.start.load(Ordering::Relaxed), EMPTY);
        entry.end.store(end.raw(), Ordering::Relaxed);
        entry.start.store(start.raw(), Ordering::SeqCst);
        if self.head.released.load(Ordering::SeqCst) != start.raw() {
            return Finish::HandedOff;
        }
        // The predecessor published in between and may have looked at the
        // entry before the deposit landed: one of us takes the range.
        match entry
            .start
            .compare_exchange(start.raw(), EMPTY, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => Finish::Head,
            Err(_) => Finish::HandedOff,
        }
    }

    /// Step 3, head only: publish `[start, end)` for `ticket`, then every
    /// successor range already handed off. `published` runs after each
    /// advance of the watermark with the new value — by which time the next
    /// head may already be running its own.
    #[inline]
    pub(crate) fn advance(
        &self,
        mut ticket: u64,
        start: Lsn,
        end: Lsn,
        mut published: impl FnMut(Lsn),
    ) {
        let (mut from, mut upto) = (start.raw(), end.raw());
        loop {
            ticket += 1;
            // Release: whoever reads this count (to reuse an entry) also
            // sees the entry cleared below.
            self.head.ticket.store(ticket, Ordering::Release);
            debug_assert_eq!(
                self.head.released.load(Ordering::Relaxed),
                from,
                "a second head moved the watermark"
            );
            self.head.released.store(upto, Ordering::SeqCst);
            published(Lsn(upto));
            let next = self.entry(ticket);
            if next.start.load(Ordering::SeqCst) != upto {
                return;
            }
            let next_end = next.end.load(Ordering::Relaxed);
            if next
                .start
                .compare_exchange(upto, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return; // the successor took its range back: it is the head
            }
            (from, upto) = (upto, next_end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::lock;

    fn release(o: &OrderedRelease, ticket: u64, start: u64, end: u64) -> Finish {
        let f = o.finish(ticket, Lsn(start), Lsn(end));
        if f == Finish::Head {
            o.advance(ticket, Lsn(start), Lsn(end), |_| {});
        }
        f
    }

    #[test]
    fn in_order_finishers_are_each_head() {
        let o = OrderedRelease::new(Lsn(100), 8);
        assert_eq!(release(&o, 0, 100, 140), Finish::Head);
        assert_eq!(release(&o, 1, 140, 148), Finish::Head);
        assert_eq!(o.released(), Lsn(148));
    }

    #[test]
    fn out_of_order_finishers_hand_off_to_the_first() {
        let o = OrderedRelease::new(Lsn::ZERO, 8);
        assert_eq!(release(&o, 2, 30, 100), Finish::HandedOff);
        assert_eq!(release(&o, 1, 10, 30), Finish::HandedOff);
        assert_eq!(o.released(), Lsn::ZERO, "nothing publishes past a gap");
        let mut seen = Vec::new();
        assert_eq!(o.finish(0, Lsn(0), Lsn(10)), Finish::Head);
        o.advance(0, Lsn(0), Lsn(10), |l| seen.push(l.raw()));
        assert_eq!(seen, [10, 30, 100], "the head publishes the whole chain");
        assert_eq!(o.released(), Lsn(100));
    }

    #[test]
    fn chain_stops_at_a_ticket_still_filling() {
        let o = OrderedRelease::new(Lsn::ZERO, 8);
        assert_eq!(release(&o, 2, 20, 30), Finish::HandedOff);
        assert_eq!(release(&o, 0, 0, 10), Finish::Head);
        assert_eq!(o.released(), Lsn(10), "ticket 1 is still filling");
        assert_eq!(release(&o, 1, 10, 20), Finish::Head);
        assert_eq!(o.released(), Lsn(30));
    }

    #[test]
    fn table_wraps_and_holds_back_the_nth_ticket() {
        let o = OrderedRelease::new(Lsn::ZERO, 4);
        assert_eq!(o.tickets_free(0), 4);
        assert_eq!(
            o.tickets_free(4),
            0,
            "ticket 4 would reuse ticket 0's entry"
        );
        // Many laps over a 4-entry table, always finishing back to front.
        let mut at = 0u64;
        for lap in 0..50u64 {
            let t0 = lap * 4;
            assert_eq!(o.tickets_free(t0), 4);
            for i in (1..4).rev() {
                assert_eq!(
                    release(&o, t0 + i, at + i * 8, at + i * 8 + 8),
                    Finish::HandedOff
                );
            }
            assert_eq!(release(&o, t0, at, at + 8), Finish::Head);
            at += 32;
            assert_eq!(o.released(), Lsn(at));
        }
    }

    #[test]
    fn concurrent_finishers_publish_everything_once() {
        // Tickets and ranges are issued under a mutex (the insert lock's
        // job); finishes race freely.
        let o = OrderedRelease::new(Lsn::ZERO, 64);
        let next = std::sync::Mutex::new((0u64, 0u64));
        let publishes = AtomicU64::new(0);
        let (threads, per, len) = (8u64, 4000u64, 24u64);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per {
                        let (ticket, start) = {
                            let mut n = lock(&next);
                            while o.tickets_free(n.0) == 0 {
                                std::thread::yield_now();
                            }
                            let got = *n;
                            *n = (got.0 + 1, got.1 + len);
                            got
                        };
                        if i % 17 == 0 {
                            std::thread::yield_now();
                        }
                        if o.finish(ticket, Lsn(start), Lsn(start + len)) == Finish::Head {
                            // Two heads at once would trip `advance`'s
                            // assertion that the watermark is at `start`.
                            o.advance(ticket, Lsn(start), Lsn(start + len), |_| {
                                publishes.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                });
            }
        });
        assert_eq!(o.released(), Lsn(threads * per * len));
        // One advance of the watermark per range: none lost, none twice.
        assert_eq!(publishes.load(Ordering::Relaxed), threads * per);
    }
}
