//! Property test over the truncation safety rule (ISSUE 3 satellite,
//! DESIGN.md invariant 7): for ANY interleaving of commits, checkpoints,
//! replica-ack advances and truncation requests, the log's low-water mark
//! never exceeds `min(published redo low-water mark, slowest replica ack)`
//! — and the database still crash-recovers to its committed state from the
//! retained suffix alone.

use aether::log::partition::{MemSegmentFactory, SegmentedDevice};
use aether::prelude::*;
use aether::storage::recovery::recover_with_stats;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        buffer: BufferKind::Hybrid,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncation_never_exceeds_min_of_redo_mark_and_slowest_ack(
        script in proptest::collection::vec(
            (0u8..5, any::<u64>(), 0.0f64..1.0),
            4..48,
        ),
    ) {
        let keys = 8u64;
        let segments = Arc::new(
            SegmentedDevice::new(Box::new(MemSegmentFactory), 4096).unwrap(),
        );
        let db = aether::storage::Db::open_with_device(
            opts(),
            Arc::clone(&segments) as _,
        );
        db.create_table(40, keys);
        for k in 0..keys {
            db.load(0, k, &record(k, 0)).unwrap();
        }
        db.setup_complete();
        // One simulated replica: its ack watermark is the truncation clamp.
        let ack = db.log().commit_gate().register_replica();
        let mut committed: HashMap<u64, u64> = (0..keys).map(|k| (k, 0)).collect();

        for (i, &(op, key, frac)) in script.iter().enumerate() {
            match op % 5 {
                0 | 1 => {
                    // Committed update (weighted 2x so logs actually grow).
                    let k = key % keys;
                    let v = i as u64 + 1;
                    let mut txn = db.begin();
                    db.update(&mut txn, 0, k, &record(k, v)).unwrap();
                    db.commit(txn).unwrap();
                    committed.insert(k, v);
                }
                2 => {
                    db.flush_pages();
                    db.checkpoint();
                }
                3 => {
                    // Ack some fraction of the durable frontier (cumulative
                    // max inside, so regressions are ignored).
                    let durable = db.log().durable_lsn().raw();
                    ack.advance(Lsn((durable as f64 * frac) as u64));
                }
                _ => {
                    // Truncation request — direct or via the two-tier
                    // checkpoint cycle; both route through `truncate_to`.
                    if key % 2 == 0 {
                        db.log().truncate_to(db.redo_low_water());
                    } else {
                        db.checkpoint_and_truncate();
                    }
                }
            }
            // THE invariant, checked after every single step.
            let lw = db.log().low_water();
            let redo = db.redo_low_water();
            let slowest = db.log().commit_gate().slowest_ack();
            prop_assert!(
                lw <= redo,
                "step {i}: low-water {lw} passed the published redo mark {redo}"
            );
            prop_assert!(
                lw <= slowest,
                "step {i}: low-water {lw} passed the slowest replica ack {slowest}"
            );
        }

        // The retained suffix alone recovers the committed state.
        db.log().flush_all().unwrap();
        let image = db.crash();
        prop_assert_eq!(image.log_start, db.log().low_water());
        drop(db);
        let (db2, _) = recover_with_stats(image, opts()).unwrap();
        let mut txn = db2.begin();
        for k in 0..keys {
            let got = u64::from_le_bytes(
                db2.read(&mut txn, 0, k).unwrap()[8..16].try_into().unwrap(),
            );
            prop_assert_eq!(got, committed[&k], "key {} after recovery", k);
        }
        db2.commit(txn).unwrap();
    }
}
