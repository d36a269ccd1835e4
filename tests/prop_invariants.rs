//! Property-based tests over the core invariants:
//!
//! * arbitrary payload sequences inserted through any buffer variant read
//!   back exactly (content, order, chaining);
//! * record headers round-trip and reject mutations;
//! * zipfian sampling is a valid distribution for arbitrary (n, s);
//! * the TPC-B balance invariant holds for arbitrary operation interleavings
//!   of commit/abort;
//! * crash/recovery converges to the committed-model state for arbitrary
//!   operation scripts.

use aether::prelude::*;
use aether_core::record::{crc32, on_log_size, RecordHeader, RecordKind};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn header_roundtrip_and_mutation_detection(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        txn in any::<u64>(),
        prev in any::<u64>(),
        flip in 0usize..32,
    ) {
        let h = RecordHeader::new(RecordKind::Update, txn, Lsn(prev), &payload);
        let enc = h.encode();
        let dec = RecordHeader::decode(&enc).unwrap();
        prop_assert_eq!(dec, h);
        prop_assert!(dec.verify(&payload));
        // Flipping any single *meaningful* header byte must break decode or
        // change the decoded header. Bytes 10..12 are reserved padding and
        // legitimately ignored.
        if !(10..12).contains(&flip) {
            let mut bad = enc;
            bad[flip] ^= 0xFF;
            match RecordHeader::decode(&bad) {
                None => {}
                Some(other) => prop_assert_ne!(other, h),
            }
        }
    }

    #[test]
    fn checksum_catches_single_bit_flips(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        bit in 0usize..8,
        at_frac in 0.0f64..1.0,
    ) {
        let at = ((payload.len() - 1) as f64 * at_frac) as usize;
        let a = crc32(&payload);
        let mut mutated = payload.clone();
        mutated[at] ^= 1 << bit;
        prop_assert_ne!(a, crc32(&mutated));
    }

    #[test]
    fn on_log_size_is_aligned_and_monotonic(a in 0usize..100_000, b in 0usize..100_000) {
        prop_assert_eq!(on_log_size(a) % 8, 0);
        prop_assert!(on_log_size(a) >= a + 32);
        if a <= b {
            prop_assert!(on_log_size(a) <= on_log_size(b));
        }
    }

    #[test]
    fn zipf_is_a_distribution(n in 1u64..5000, s in 0.0f64..4.0) {
        let z = aether::bench::zipf::Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n ^ s.to_bits());
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn log_stream_roundtrips_for_any_payload_sequence(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600), 1..60),
        variant in 0usize..5,
    ) {
        let kind = BufferKind::ALL[variant];
        let log = LogManager::builder()
            .buffer(kind)
            .device(DeviceKind::Ram)
            .build();
        let mut prev = Lsn::ZERO;
        for (i, p) in payloads.iter().enumerate() {
            prev = log.insert_payload(RecordKind::Update, i as u64, prev, &p[..]).0;
        }
        log.flush_all().unwrap();
        let records = log.reader().read_all().unwrap();
        prop_assert_eq!(records.len(), payloads.len());
        let mut expect_prev = Lsn::ZERO;
        for (i, (r, p)) in records.iter().zip(&payloads).enumerate() {
            prop_assert_eq!(&r.payload, p, "payload {} corrupted", i);
            prop_assert_eq!(r.header.txn, i as u64);
            prop_assert_eq!(r.header.prev_lsn, expect_prev, "chain broken at {}", i);
            expect_prev = r.lsn;
        }
    }

    #[test]
    fn tpcb_style_commit_abort_interleavings_preserve_sums(
        script in proptest::collection::vec((0u64..8, 0u64..8, -500i64..500, any::<bool>()), 1..40),
    ) {
        let db = Db::open(DbOptions {
            protocol: CommitProtocol::Elr,
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        });
        // Two tables ("accounts", "branches") whose sums must stay equal.
        let ta = db.create_table(24, 8);
        let tb = db.create_table(24, 8);
        let zero = |k: u64| {
            let mut r = vec![0u8; 24];
            r[..8].copy_from_slice(&k.to_le_bytes());
            r
        };
        for k in 0..8 {
            db.load(ta, k, &zero(k)).unwrap();
            db.load(tb, k, &zero(k)).unwrap();
        }
        db.setup_complete();
        let bump = |r: &mut [u8], d: i64| {
            let v = i64::from_le_bytes(r[8..16].try_into().unwrap()) + d;
            r[8..16].copy_from_slice(&v.to_le_bytes());
        };
        for &(ka, kb, delta, commit) in &script {
            let mut txn = db.begin();
            db.update_with(&mut txn, ta, ka, |r| bump(r, delta)).unwrap();
            db.update_with(&mut txn, tb, kb, |r| bump(r, delta)).unwrap();
            if commit {
                db.commit(txn).unwrap();
            } else {
                db.abort(txn).unwrap();
            }
        }
        // Sums must match exactly (every commit applied symmetrically,
        // every abort fully undone).
        let mut txn = db.begin();
        let mut sa = 0i64;
        let mut sb = 0i64;
        for k in 0..8 {
            sa += i64::from_le_bytes(db.read(&mut txn, ta, k).unwrap()[8..16].try_into().unwrap());
            sb += i64::from_le_bytes(db.read(&mut txn, tb, k).unwrap()[8..16].try_into().unwrap());
        }
        db.commit(txn).unwrap();
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn recovery_matches_committed_model_for_any_script(
        script in proptest::collection::vec((0u64..6, 1u64..10_000, any::<bool>()), 1..30),
    ) {
        let o = DbOptions {
            protocol: CommitProtocol::Elr,
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        };
        let db = Db::open(o.clone());
        db.create_table(24, 6);
        let mk = |k: u64, v: u64| {
            let mut r = vec![0u8; 24];
            r[..8].copy_from_slice(&k.to_le_bytes());
            r[8..16].copy_from_slice(&v.to_le_bytes());
            r
        };
        for k in 0..6 {
            db.load(0, k, &mk(k, 0)).unwrap();
        }
        db.setup_complete();
        let mut model = [0u64; 6];
        for &(k, v, commit) in &script {
            let mut txn = db.begin();
            db.update(&mut txn, 0, k, &mk(k, v)).unwrap();
            if commit {
                db.commit(txn).unwrap();
                model[k as usize] = v;
            } else {
                db.abort(txn).unwrap();
            }
        }
        let db2 = Db::recover(db.crash(), o).unwrap();
        let mut txn = db2.begin();
        for k in 0..6u64 {
            let rec = db2.read(&mut txn, 0, k).unwrap();
            let v = u64::from_le_bytes(rec[8..16].try_into().unwrap());
            prop_assert_eq!(v, model[k as usize], "key {} diverged", k);
        }
        db2.commit(txn).unwrap();
    }
}
