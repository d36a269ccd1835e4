//! Property-based tests for aether-core's lowest layers: the ring buffer,
//! the consolidation array's group partitioning, the ordered release's
//! hand-off guarantees, and the sharded counters' exactness.

use aether_core::buffer::BufferCore;
use aether_core::carray::CArray;
use aether_core::record::{on_log_size, RecordKind};
use aether_core::ring::Ring;
use aether_core::{BufferKind, LogConfig, Lsn};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_roundtrips_at_any_offset(
        cap_pow in 6u32..16,
        offset in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let cap = 1usize << cap_pow;
        prop_assume!(data.len() <= cap);
        let ring = Ring::new(cap);
        // SAFETY: single-threaded, exclusive access.
        unsafe { ring.write_at(offset, &data) };
        let mut out = vec![0u8; data.len()];
        unsafe { ring.read_at(offset, &mut out) };
        prop_assert_eq!(out, data);
    }

    #[test]
    fn ring_disjoint_writes_do_not_interfere(
        a_off in 0u64..1000,
        a_len in 1usize..200,
        gap in 0u64..500,
        b_len in 1usize..200,
    ) {
        let ring = Ring::new(1 << 12);
        let b_off = a_off + a_len as u64 + gap;
        prop_assume!(b_off + b_len as u64 - a_off <= (1 << 12));
        let a = vec![0xAAu8; a_len];
        let b = vec![0xBBu8; b_len];
        unsafe {
            ring.write_at(a_off, &a);
            ring.write_at(b_off, &b);
        }
        let mut out_a = vec![0u8; a_len];
        let mut out_b = vec![0u8; b_len];
        unsafe {
            ring.read_at(a_off, &mut out_a);
            ring.read_at(b_off, &mut out_b);
        }
        prop_assert!(out_a.iter().all(|&x| x == 0xAA));
        prop_assert!(out_b.iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn carray_group_offsets_tile_exactly(
        sizes in proptest::collection::vec(8u64..2048, 1..40),
    ) {
        // Sequential joins into one slot must tile [0, total) contiguously
        // in join order — that is what lets followers compute their record
        // positions with no further communication.
        let ca = CArray::new(1, 4, 1 << 20);
        let mut joins = Vec::new();
        for &s in &sizes {
            joins.push((ca.join(s), s));
        }
        let total = ca.close_and_replace(joins[0].0.slot);
        prop_assert_eq!(total, sizes.iter().sum::<u64>());
        let mut expect = 0u64;
        for (j, s) in &joins {
            prop_assert_eq!(j.offset, expect);
            expect += s;
        }
        // Drain the group so the slot recycles cleanly.
        joins[0].0.slot.notify(Lsn(0), total, 0);
        let mut last = 0;
        for (j, s) in &joins {
            last += 1;
            let done = j.slot.release_member(*s);
            prop_assert_eq!(done, last == joins.len());
        }
        joins[0].0.slot.free();
    }

    #[test]
    fn ordered_release_survives_any_finish_permutation(
        lens in proptest::collection::vec(1u64..500, 1..20),
        seed in any::<u64>(),
    ) {
        // Reserve in LSN order (ticket i = i-th range), finish in an
        // arbitrary permutation; the released watermark must land exactly at
        // the total, with no gaps at any intermediate point. Single-threaded,
        // so this only terminates because no finisher ever waits for a
        // predecessor: it hands its range off instead.
        let core = BufferCore::new(&LogConfig::default().with_buffer_size(1 << 20));
        core.set_auto_reclaim(true);
        let mut ranges = Vec::new();
        let mut at = 0u64;
        for &l in &lens {
            ranges.push((Lsn(at), Lsn(at + l)));
            at += l;
        }
        // Deterministic shuffle.
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        let mut s = seed | 1;
        for i in (1..order.len()).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            order.swap(i, (s as usize) % (i + 1));
        }
        let mut finished = vec![false; ranges.len()];
        for &i in &order {
            let (start, end) = ranges[i];
            // treadmill_inv = 0: never refuse to hand off. A refusal waits
            // for a predecessor that this test finishes *later*.
            core.release_ordered(i as u64, start, end, 0);
            finished[i] = true;
            // The watermark is exactly the end of the finished prefix.
            let prefix = finished.iter().take_while(|&&f| f).count();
            let want = if prefix == 0 { Lsn::ZERO } else { ranges[prefix - 1].1 };
            prop_assert_eq!(core.released_lsn(), want);
        }
        prop_assert_eq!(core.released_lsn(), Lsn(at));
        let handed_off = core.stats.snapshot().delegated_releases as usize;
        prop_assert!(handed_off < ranges.len(), "the first range cannot hand off");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn segmented_device_equals_flat_stream(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..3000), 1..30),
        seg_pow in 12u32..15,
        read_at in any::<u16>(),
    ) {
        use aether_core::device::LogDevice;
        use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
        let seg = SegmentedDevice::new(Box::new(MemSegmentFactory), 1 << seg_pow).unwrap();
        let mut flat = Vec::new();
        for c in &chunks {
            seg.append(c).unwrap();
            flat.extend_from_slice(c);
        }
        seg.sync().unwrap();
        prop_assert_eq!(seg.len(), flat.len() as u64);
        // Full read stitches across segments.
        let mut out = vec![0u8; flat.len()];
        prop_assert_eq!(seg.read_at(0, &mut out).unwrap(), flat.len());
        prop_assert_eq!(&out, &flat);
        // Random partial read agrees with the flat stream.
        let at = (read_at as usize) % flat.len();
        let want = (flat.len() - at).min(512);
        let mut part = vec![0u8; want];
        prop_assert_eq!(seg.read_at(at as u64, &mut part).unwrap(), want);
        prop_assert_eq!(&part[..], &flat[at..at + want]);
        // Snapshot equals the stream (nothing truncated yet).
        prop_assert_eq!(seg.snapshot().unwrap(), (Lsn::ZERO, flat));
    }
}

#[test]
fn carray_many_slots_under_parallel_joins() {
    // Heavier, non-proptest stress: several active slots, parallel joiners,
    // total bytes conserved.
    let ca = Arc::new(CArray::new(4, 16, 1 << 24));
    let total_bytes = std::sync::atomic::AtomicU64::new(0);
    let released_bytes = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let ca = Arc::clone(&ca);
            let total_bytes = &total_bytes;
            let released_bytes = &released_bytes;
            s.spawn(move || {
                for i in 0..500u64 {
                    let size = 16 + (t * 13 + i * 7) % 256;
                    total_bytes.fetch_add(size, std::sync::atomic::Ordering::Relaxed);
                    let j = ca.join(size);
                    if j.offset == 0 {
                        let group = ca.close_and_replace(j.slot);
                        j.slot.notify(Lsn(0), group, 0);
                    }
                    let (_, group, _) = j.slot.wait();
                    if j.slot.release_member(size) {
                        released_bytes.fetch_add(group, std::sync::atomic::Ordering::Relaxed);
                        j.slot.free();
                    }
                }
            });
        }
    });
    assert_eq!(
        total_bytes.load(std::sync::atomic::Ordering::Relaxed),
        released_bytes.load(std::sync::atomic::Ordering::Relaxed),
        "every joined byte must be released exactly once"
    );
}

/// The counters are sharded per thread; `snapshot()` must still be exact once
/// the threads are joined, on every variant, with more threads than shards.
#[test]
fn sharded_stats_equal_the_per_thread_tallies() {
    for kind in BufferKind::ALL {
        let cfg = LogConfig::default().with_buffer_size(1 << 20);
        let core = BufferCore::new(&cfg);
        core.set_auto_reclaim(true);
        let buffer = kind.build(Arc::clone(&core), &cfg);
        let tallies: Vec<(u64, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..40usize)
                .map(|t| {
                    let buffer = &buffer;
                    s.spawn(move || {
                        let (mut inserts, mut bytes) = (0u64, 0u64);
                        for i in 0..400usize {
                            let payload = vec![t as u8; 8 + (t * 7 + i * 13) % 200];
                            let mut slot = buffer.reserve(
                                RecordKind::Filler,
                                t as u64,
                                Lsn::ZERO,
                                payload.len(),
                            );
                            slot.write(&payload);
                            slot.release();
                            inserts += 1;
                            bytes += on_log_size(payload.len()) as u64;
                        }
                        (inserts, bytes)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let snap = core.stats.snapshot();
        let inserts: u64 = tallies.iter().map(|t| t.0).sum();
        let bytes: u64 = tallies.iter().map(|t| t.1).sum();
        assert_eq!(snap.inserts, inserts, "{kind}");
        assert_eq!(snap.bytes, bytes, "{kind}");
        assert_eq!(core.released_lsn(), Lsn(bytes), "{kind}");
        // Every insert took exactly one of the three acquire paths.
        assert_eq!(
            snap.direct_acquires + snap.consolidations + snap.group_acquires,
            inserts,
            "{kind}: {snap:?}"
        );

        // delta() still subtracts field by field: a single-threaded tail of
        // direct inserts moves exactly three counters.
        let mut slot = buffer.reserve(RecordKind::Filler, 0, Lsn::ZERO, 16);
        slot.write(&[0; 16]);
        slot.release();
        let d = core.stats.snapshot().delta(&snap);
        let want = aether_core::stats::StatsSnapshot {
            inserts: 1,
            bytes: on_log_size(16) as u64,
            direct_acquires: 1,
            ..Default::default()
        };
        assert_eq!(d, want, "{kind}");
    }
}
