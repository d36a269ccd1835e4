//! [`InsertBuffer`]: the one log buffer, and the one `reserve` that all five
//! of the paper's insertion algorithms run (see the two-axis table in the
//! module docs of [`super`]).

use super::{BufferCore, BufferKind, InsertGate, LogBuffer, LogRun, LogSlot, Release, SlotFinish};
use crate::carray::CArray;
use crate::config::LogConfig;
use crate::lsn::Lsn;
use crate::padded::CachePadded;
use crate::record::{on_log_size, RecordKind};
use std::sync::Arc;

/// The log buffer. Its [`BufferKind`] sets the paper's two axes and CDME's
/// guard; everything else about an insert is the same for every kind.
pub struct InsertBuffer {
    core: Arc<BufferCore>,
    gate: CachePadded<InsertGate>,
    kind: BufferKind,
    /// Axis 1, *consolidate on contention* (Algorithm 2; C, CD, CDME): an
    /// insert that finds the lock busy joins a group in this array and only
    /// the group's leader takes the lock. `None` for B and D, where every
    /// insert takes the lock itself.
    carray: Option<CArray>,
    /// Axis 2, *decouple fill from the insert lock* (Algorithm 3; D, CD,
    /// CDME): the lock covers LSN generation only, fills run in parallel
    /// and release in LSN order ([`BufferCore::release_ordered`]). Off for B
    /// and C, which fill under the lock and release by dropping it.
    decoupled: bool,
    /// Algorithm 4's treadmill guard on the ordered release: a finisher
    /// refuses to hand off with probability `1/treadmill_inv`. CDME takes
    /// it from [`LogConfig::treadmill_inv`]; 0 (never refuse) otherwise.
    treadmill_inv: u32,
}

impl InsertBuffer {
    /// A buffer of `kind` over `core`, appending at its released watermark.
    /// [`BufferKind::build`] is this behind the [`LogBuffer`] trait; only
    /// callers of [`InsertBuffer::reserve_backoff`] need the concrete type.
    pub fn new(kind: BufferKind, core: Arc<BufferCore>, config: &LogConfig) -> Self {
        use BufferKind::*;
        let consolidate = matches!(kind, Consolidation | Hybrid | Delegated);
        // A group is at most an eighth of the ring, so its one allocation
        // always fits; larger records bypass the array.
        let max_group = core.capacity() / 8;
        InsertBuffer {
            gate: InsertGate::new(core.released_lsn()),
            core,
            kind,
            // §A.1: "we avoid memory management overheads by allocating a
            // large number of consolidation structures at startup" — a pool
            // at least twice the active set for the array to recycle through.
            carray: consolidate.then(|| {
                let pool = (2 * config.carray_slots).max(64);
                CArray::new(config.carray_slots, pool, max_group)
            }),
            decoupled: matches!(kind, Decoupled | Hybrid | Delegated),
            treadmill_inv: match kind {
                Delegated => config.treadmill_inv,
                _ => 0,
            },
        }
    }

    /// [`LogBuffer::reserve`] without the uncontended fast path: every
    /// insert that fits a group goes through the consolidation array, so
    /// tests and the Figure-12 sensitivity runs form groups even on hosts
    /// with too few cores to contend. The same as `reserve` for B and D.
    pub fn reserve_backoff(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        self.reserve_with(kind, txn, prev, payload_len, true)
    }

    #[inline]
    fn reserve_with(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
        force_backoff: bool,
    ) -> LogSlot<'_> {
        super::check_payload_len(payload_len);
        let (core, lock, alloc) = (&*self.core, &self.gate.lock, &self.gate.alloc);
        let tel = core.telemetry();
        core.note_reserve_start();
        let len = on_log_size(payload_len) as u64;

        // Algorithm 2, line 2: with an array to back off into, start with a
        // non-blocking attempt. C holds the lock across its fill, so one
        // try is all a busy lock is worth; the decoupled kinds hold it for
        // LSN generation only, so a running holder is gone within a few
        // spins (see `InsertLock::try_lock_spin`).
        let locked = match &self.carray {
            Some(_) if force_backoff => false,
            Some(_) if self.decoupled => lock.try_lock_spin(),
            Some(_) => lock.try_lock(),
            None => false,
        };
        // Contention (lines 8–21): join a group, unless the record is too
        // large for one or this kind has no array.
        let join = match &self.carray {
            Some(array) if !locked && len <= array.max_group() => Some((array, array.join(len))),
            _ => None,
        };
        let order = |ticket| self.order(ticket);
        if let Some((_, join)) = join.filter(|(_, j)| j.offset != 0) {
            // Follower: the leader's one allocation covers this record, at
            // the offset fixed when it joined.
            tel.inc(tel.ids().log_consolidations);
            let (base, group_len, ticket) = join.slot.wait();
            let finish = SlotFinish {
                group: Some((join.slot, base, group_len)),
                order: order(ticket),
            };
            let start = base.advance(join.offset);
            return core.begin_fill(start, kind, txn, prev, payload_len, finish);
        }

        // A direct insert, or a leader on its group's behalf: take the lock
        // and reserve.
        if !locked {
            lock.lock();
        }
        // A leader closes its group and reserves for all of it.
        let reserve_len = join.map_or(len, |(array, j)| array.close_and_replace(j.slot));
        let (base, ticket) = if self.decoupled {
            // SAFETY: the insert lock is held.
            let reserved = unsafe { alloc.reserve_ordered(reserve_len, core) };
            // Algorithm 3, line 4: unlock before anyone fills.
            lock.unlock();
            reserved
        } else {
            // B and C fill under the lock; the slot's release drops it.
            // SAFETY: the insert lock is held.
            (unsafe { alloc.reserve_space(reserve_len, core) }, 0)
        };
        let group = join.map(|(_, j)| {
            j.slot.notify(base, reserve_len, ticket);
            (j.slot, base, reserve_len)
        });
        tel.inc(match group {
            Some(_) => tel.ids().log_group_acquires,
            None => tel.ids().log_direct_acquires,
        });
        let finish = SlotFinish {
            group,
            order: order(ticket),
        };
        core.begin_fill(base, kind, txn, prev, payload_len, finish)
    }

    /// How a range reserved with `ticket` is released: in LSN order for
    /// the decoupled kinds, by dropping the insert lock for B and C.
    fn order(&self, ticket: u64) -> Release<'_> {
        match self.decoupled {
            true => Release::Ordered {
                ticket,
                treadmill_inv: self.treadmill_inv,
            },
            false => Release::Locked(&self.gate.lock),
        }
    }
}

impl LogBuffer for InsertBuffer {
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_> {
        self.reserve_with(kind, txn, prev, payload_len, false)
    }

    /// A direct acquire for the whole run: it never joins a group (its
    /// records are one thread's, already together).
    fn reserve_run(&self, len: u64) -> LogRun<'_> {
        let (core, lock, alloc) = (&*self.core, &self.gate.lock, &self.gate.alloc);
        debug_assert!(len <= core.capacity() / 8, "a run beyond a group's bound");
        core.note_reserve_start();
        lock.lock();
        let (start, ticket) = if self.decoupled {
            // SAFETY: the insert lock is held.
            let reserved = unsafe { alloc.reserve_ordered(len, core) };
            lock.unlock();
            reserved
        } else {
            // SAFETY: the insert lock is held.
            (unsafe { alloc.reserve_space(len, core) }, 0)
        };
        let tel = core.telemetry();
        tel.inc(tel.ids().log_direct_acquires);
        LogRun::new(core, start, len, self.order(ticket))
    }

    fn core(&self) -> &BufferCore {
        &self.core
    }

    fn kind(&self) -> BufferKind {
        self.kind
    }
}

/// Every kind, through the ordinary entry and through the forced-backoff
/// one, against the same table of workloads.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsSnapshot;

    fn make(kind: BufferKind, ring: usize) -> InsertBuffer {
        let cfg = LogConfig::default().with_buffer_size(ring);
        let core = BufferCore::new(&cfg);
        core.set_auto_reclaim(true);
        InsertBuffer::new(kind, core, &cfg)
    }

    fn put(
        b: &InsertBuffer,
        backoff: bool,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        p: &[u8],
    ) -> Lsn {
        let mut slot = match backoff {
            true => b.reserve_backoff(kind, txn, prev, p.len()),
            false => b.reserve(kind, txn, prev, p.len()),
        };
        slot.write(p);
        slot.release()
    }

    fn each_kind_and_entry(mut f: impl FnMut(BufferKind, bool)) {
        for kind in BufferKind::ALL {
            for backoff in [false, true] {
                f(kind, backoff);
            }
        }
    }

    /// `threads[t]` inserts of payload size `size(t, i)` from thread `t`, all
    /// threads at once, on a 256 KiB ring (groups of at most 32 KiB). Checks
    /// that the records tile the log stream — no gap, no overlap, the
    /// released watermark at the end of the last one — and that every insert
    /// was counted once, as exactly one of direct / leader / follower.
    fn run(
        kind: BufferKind,
        backoff: bool,
        threads: &[usize],
        size: fn(usize, usize) -> usize,
    ) -> StatsSnapshot {
        let b = make(kind, 1 << 18);
        let mut records: Vec<(Lsn, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = threads
                .iter()
                .enumerate()
                .map(|(t, &n)| {
                    let b = &b;
                    s.spawn(move || {
                        (0..n)
                            .map(|i| {
                                let p = vec![t as u8; size(t, i)];
                                let lsn =
                                    put(b, backoff, RecordKind::Filler, t as u64, Lsn::ZERO, &p);
                                (lsn, on_log_size(p.len()) as u64)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        records.sort();
        let mut expect = Lsn::ZERO;
        for (lsn, len) in records {
            assert_eq!(lsn, expect, "{kind} backoff={backoff}: gap or overlap");
            expect = lsn.advance(len);
        }
        let s = b.core().stats.snapshot();
        let total = threads.iter().sum::<usize>() as u64;
        assert_eq!(b.core().released_lsn(), expect, "{kind} backoff={backoff}");
        assert_eq!(s.bytes, expect.raw(), "{kind} backoff={backoff}");
        assert_eq!(s.inserts, total, "{kind} backoff={backoff}");
        assert_eq!(
            s.direct_acquires + s.group_acquires + s.consolidations,
            total,
            "{kind} backoff={backoff}"
        );
        s
    }

    /// Name, inserts per thread, payload size of thread `t`'s `i`-th insert,
    /// and how many of the records are too large for a group (32 KiB here).
    type Workload = (
        &'static str,
        &'static [usize],
        fn(usize, usize) -> usize,
        u64,
    );
    const WORKLOADS: [Workload; 7] = [
        ("uniform 56 B", &[500; 8], |_, _| 56, 0),
        (
            "mixed, 8 threads",
            &[400; 8],
            |t, i| 24 + (t * 31 + i * 7) % 480,
            0,
        ),
        ("mixed, 16 threads", &[500; 16], |_, i| 8 + (i % 9) * 24, 0),
        // Figure 11's skew: small records with rare large outliers.
        (
            "bimodal 16 B / 4 KiB",
            &[1000; 8],
            |_, i| if i % 13 == 0 { 4096 } else { 16 },
            0,
        ),
        (
            "bimodal 16 B / 32 KiB",
            &[300; 8],
            |_, i| if i % 60 == 0 { 1 << 15 } else { 16 },
            8 * 5,
        ),
        // A large record must not break the stream of the small ones that
        // fill in its shadow.
        (
            "60 kB beside 8 B",
            &[20, 2000],
            |t, _| if t == 0 { 60_000 } else { 8 },
            20,
        ),
        ("all 40 kB", &[20; 4], |_, _| 40_000, 80),
    ];

    #[test]
    fn concurrent_inserts_tile_the_stream() {
        each_kind_and_entry(|kind, backoff| {
            for (name, threads, size, oversized) in WORKLOADS {
                let s = run(kind, backoff, threads, size);
                let what = format!("{kind} backoff={backoff} {name}: {s:?}");
                match kind {
                    // No array: every insert takes the lock itself.
                    BufferKind::Baseline | BufferKind::Decoupled => {
                        assert_eq!(s.direct_acquires, s.inserts, "{what}")
                    }
                    // Forced backoff sends everything through the array
                    // except what is too large for a group.
                    _ if backoff => {
                        assert_eq!(s.direct_acquires, oversized, "{what}");
                        assert_eq!(
                            s.group_acquires + s.consolidations,
                            s.inserts - oversized,
                            "{what}"
                        );
                    }
                    _ => assert!(s.direct_acquires >= oversized, "{what}"),
                }
            }
        });
    }

    #[test]
    fn single_thread_layout_is_the_same_for_every_kind() {
        each_kind_and_entry(|kind, backoff| {
            let b = make(kind, 1 << 18);
            assert_eq!(b.kind(), kind);
            let first = put(&b, backoff, RecordKind::Filler, 1, Lsn::ZERO, &[1; 8]);
            let second = put(&b, backoff, RecordKind::UpdateCommit, 1, first, &[2; 100]);
            let third = put(&b, backoff, RecordKind::Filler, 1, second, &[]);
            assert_eq!(first, Lsn::ZERO, "{kind}");
            assert_eq!(second, Lsn(on_log_size(8) as u64), "{kind}");
            assert_eq!(third, second.advance(on_log_size(100) as u64), "{kind}");
            let end = third.advance(on_log_size(0) as u64);
            assert_eq!(b.core().released_lsn(), end, "{kind}");
        });
    }

    #[test]
    fn uncontended_inserts_take_the_fast_path() {
        for kind in BufferKind::ALL {
            let s = run(kind, false, &[100], |_, _| 88);
            assert_eq!(s.direct_acquires, 100, "{kind}");
            assert_eq!(s.consolidations, 0, "{kind}");
        }
    }

    /// A run takes one direct acquire for all its records, which tile the
    /// stream like records inserted one by one, around inserts by other
    /// threads, under every kind; a run dropped short fills the rest of its
    /// range with fillers and releases it anyway.
    #[test]
    fn a_run_is_one_acquire_and_tiles_the_stream() {
        use crate::reader::LogReader;
        for kind in BufferKind::ALL {
            let b = make(kind, 1 << 16);
            let rec = on_log_size(100) as u64;
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..200 {
                        put(&b, false, RecordKind::Filler, 9, Lsn::ZERO, &[9; 40]);
                    }
                });
                for _ in 0..50 {
                    let mut run = b.reserve_run(4 * rec);
                    let start = run.lsn();
                    for i in 0..4u64 {
                        let mut slot = run.record(RecordKind::UpdateCommit, i + 1, Lsn::ZERO, 100);
                        assert_eq!(slot.lsn(), start.advance(i * rec), "{kind}");
                        slot.write(&[i as u8; 100]);
                        slot.release();
                    }
                    assert_eq!(run.release(), start.advance(4 * rec), "{kind}");
                }
            });
            let s = b.core().stats.snapshot();
            assert_eq!(s.inserts, 200 + 50 * 4, "{kind}");
            assert_eq!(
                s.direct_acquires + s.group_acquires + s.consolidations,
                200 + 50,
                "{kind}"
            );

            let mut short = b.reserve_run(3 * rec);
            let start = short.lsn();
            let mut slot = short.record(RecordKind::UpdateCommit, 1, Lsn::ZERO, 100);
            slot.write(&[1; 100]);
            slot.release();
            drop(short);
            let end = start.advance(3 * rec);
            assert_eq!(b.core().released_lsn(), end, "{kind}");
            // SAFETY: released, and nothing reclaims it meanwhile.
            let (a, z) = unsafe { b.core().released_slices(start, 3 * rec) };
            let device = crate::device::SimDevice::from_image(start, [a, z].concat());
            let mut reader = LogReader::from_lsn(Arc::new(device), start);
            let kinds: Vec<RecordKind> = std::iter::from_fn(|| reader.next_record().ok().flatten())
                .map(|r| r.header.kind)
                .collect();
            assert_eq!(
                kinds,
                [RecordKind::UpdateCommit, RecordKind::Filler],
                "{kind}"
            );
        }
    }

    #[test]
    fn ring_wraparound_many_laps() {
        each_kind_and_entry(|kind, backoff| {
            let b = make(kind, 1 << 16);
            let payload = [7u8; 1000];
            for _ in 0..1000 {
                put(&b, backoff, RecordKind::Filler, 0, Lsn::ZERO, &payload);
            }
            // 1000 * 1032 bytes ≈ 16 laps around the 64 KiB ring.
            let end = Lsn(1000 * on_log_size(1000) as u64);
            assert_eq!(b.core().released_lsn(), end, "{kind} backoff={backoff}");
        });
    }
}
