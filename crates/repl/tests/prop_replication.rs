//! Property tests for log-shipping replication:
//!
//! * For any generated workload and **any prefix of shipped runs**, the
//!   replica's replayed table state equals the primary's state replayed to
//!   the same LSN — independent of how the byte stream was cut into frames.
//! * The full pipeline (links with latency + reordering, shipper, replica)
//!   converges to the primary's exact state for any workload.

use aether_core::device::LogDevice;
use aether_core::reader::LogReader;
use aether_core::runtime::Runtime;
use aether_core::{BufferKind, DeviceKind, LogConfig, Lsn};
use aether_repl::frame::Frame;
use aether_repl::prelude::*;
use aether_storage::replay::{apply_record, standby_db, state_fingerprint, CellFingerprint};
use aether_storage::{CommitProtocol, Db, DbOptions};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        buffer: BufferKind::Hybrid,
        device: DeviceKind::Ram,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

fn mk(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 24];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

/// Run a generated script against a fresh primary. Ops: update / insert /
/// delete / abort, over dense keys 0..8 and appended keys 100..104.
/// Returns the primary after a final log flush.
fn run_script(script: &[(u8, u64, u64, bool)]) -> Arc<Db> {
    let db = Db::open(opts());
    db.create_table(24, 8);
    for k in 0..8u64 {
        db.load(0, k, &mk(k, 0)).unwrap();
    }
    db.setup_complete();
    for &(op, key, v, commit) in script {
        let mut txn = db.begin();
        let key = match op % 3 {
            0 => key % 8,       // dense update target
            _ => 100 + key % 5, // appended-key insert/delete target
        };
        let ok = match op % 3 {
            0 => db.update(&mut txn, 0, key, &mk(key, v)).is_ok(),
            1 => db.insert(&mut txn, 0, key, &mk(key, v)).is_ok(),
            _ => db.delete(&mut txn, 0, key).is_ok(),
        };
        if ok && commit {
            db.commit(txn).unwrap();
        } else {
            db.abort(txn).unwrap();
        }
    }
    db.log().flush_all().unwrap();
    db
}

/// Replay `bytes[..cut]` into a fresh standby via frames of the given chunk
/// size (exercising arbitrary run boundaries), returning its fingerprint
/// and the replayed LSN frontier.
fn replay_prefix_chunked(primary: &Db, bytes: &[u8], chunk: usize) -> (CellFingerprint, Lsn) {
    let standby = standby_db(opts(), primary.store().deep_clone(), &primary.schema()).unwrap();
    let device = Arc::new(aether_core::device::SimDevice::new(Duration::ZERO));
    let mut seq = 0u64;
    let mut at = 0usize;
    while at < bytes.len() {
        let n = chunk.min(bytes.len() - at);
        // Round-trip through the wire encoding: what the replica would see.
        let f = Frame {
            seq,
            start_lsn: Lsn(at as u64),
            bytes: bytes[at..at + n].to_vec(),
        };
        let decoded = Frame::decode(&f.encode()).expect("frame round-trips");
        device.append(&decoded.bytes).unwrap();
        seq += 1;
        at += n;
    }
    let mut frontier = Lsn::ZERO;
    let mut reader = LogReader::new(Arc::clone(&device) as Arc<dyn aether_core::device::LogDevice>);
    while let Some(rec) = reader.next_record().unwrap() {
        apply_record(&standby, &rec).unwrap();
        frontier = rec.next_lsn();
    }
    (state_fingerprint(&standby).unwrap(), frontier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any prefix of the shipped stream, cut into frames of any size,
    /// replays to exactly the state of the primary's log replayed to the
    /// same LSN (the one-shot whole-prefix replay is the reference).
    #[test]
    fn any_prefix_any_chunking_matches_reference_replay(
        script in proptest::collection::vec(
            (0u8..3, 0u64..8, 1u64..10_000, any::<bool>()), 1..30),
        cut_frac in 0.0f64..1.0,
        chunk in 1usize..512,
    ) {
        let primary = run_script(&script);
        let (_, bytes) = primary.log().device().snapshot().unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;

        let (chunked, lsn_a) = replay_prefix_chunked(&primary, &bytes[..cut], chunk);
        // Reference: the same prefix in one run (chunk > prefix length).
        let (reference, lsn_b) =
            replay_prefix_chunked(&primary, &bytes[..cut], bytes.len().max(1));
        prop_assert_eq!(lsn_a, lsn_b, "replay frontier independent of framing");
        prop_assert_eq!(chunked, reference, "state independent of framing");
    }

    /// The live pipeline — latency, reordering links, shipper, replica —
    /// converges to the primary's exact state for any workload.
    #[test]
    fn live_pipeline_converges_to_primary_state(
        script in proptest::collection::vec(
            (0u8..3, 0u64..8, 1u64..10_000, any::<bool>()), 1..25),
        reorder in 0usize..4,
        latency_us in 0u64..300,
    ) {
        let primary = Db::open(opts());
        primary.create_table(24, 8);
        for k in 0..8u64 {
            primary.load(0, k, &mk(k, 0)).unwrap();
        }
        primary.setup_complete();
        let cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 1,
                policy: DurabilityPolicy::Async,
                link: LinkConfig {
                    latency: Duration::from_micros(latency_us),
                    reorder_period: reorder,
                    ..LinkConfig::default()
                },
                shipper: ShipperConfig { chunk: 96 },
            },
        ).unwrap();
        for &(op, key, v, commit) in &script {
            let mut txn = primary.begin();
            let key = match op % 3 {
                0 => key % 8,
                _ => 100 + key % 5,
            };
            let ok = match op % 3 {
                0 => primary.update(&mut txn, 0, key, &mk(key, v)).is_ok(),
                1 => primary.insert(&mut txn, 0, key, &mk(key, v)).is_ok(),
                _ => primary.delete(&mut txn, 0, key).is_ok(),
            };
            if ok && commit {
                primary.commit(txn).unwrap();
            } else {
                primary.abort(txn).unwrap();
            }
        }
        primary.log().flush_all().unwrap();
        prop_assert!(cluster.wait_catchup(Duration::from_secs(10)), "replica caught up");
        let st = cluster.replica(0).status();
        prop_assert_eq!(st.corrupt_frames, 0);
        prop_assert_eq!(
            state_fingerprint(&cluster.replica(0).db()).unwrap(),
            state_fingerprint(&primary).unwrap(),
            "replica state == primary state"
        );
    }
}

/// The live pipeline under [`Runtime::sim`]: the same seed must replay
/// the same scheduler history — shipper, reordering link, replica apply
/// loop included — and converge to the same fingerprint both times.
/// `AETHER_SIM_SEED=<n>` replays a specific interleaving.
#[test]
fn sim_seeded_pipeline_replays_byte_identically() {
    // splitmix64, inlined (this crate cannot depend on aether-sim — the
    // sim crate depends on us): decorrelates the op script from the
    // scheduler's own seed stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn run(seed: u64) -> ((u64, u64), CellFingerprint, CellFingerprint) {
        let rt = Runtime::sim(seed);
        let guard = rt.enter();
        let opts = DbOptions {
            log_config: LogConfig::default()
                .with_buffer_size(1 << 20)
                .with_runtime(rt.clone()),
            ..opts()
        };
        let primary = Db::open(opts);
        primary.create_table(24, 8);
        for k in 0..8u64 {
            primary.load(0, k, &mk(k, 0)).unwrap();
        }
        primary.setup_complete();
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 1,
                policy: DurabilityPolicy::Async,
                link: LinkConfig {
                    latency: Duration::from_micros(120),
                    reorder_period: 3,
                    runtime: rt.clone(),
                    ..LinkConfig::default()
                },
                shipper: ShipperConfig { chunk: 96 },
            },
        )
        .unwrap();

        let mut s = seed ^ 0xC0DE;
        for _ in 0..40 {
            let (op, key, v, commit) = (mix(&mut s), mix(&mut s), mix(&mut s), mix(&mut s));
            let mut txn = primary.begin();
            let key = match op % 3 {
                0 => key % 8,
                _ => 100 + key % 5,
            };
            let ok = match op % 3 {
                0 => primary.update(&mut txn, 0, key, &mk(key, v)).is_ok(),
                1 => primary.insert(&mut txn, 0, key, &mk(key, v)).is_ok(),
                _ => primary.delete(&mut txn, 0, key).is_ok(),
            };
            if ok && commit % 4 != 0 {
                primary.commit(txn).unwrap();
            } else {
                primary.abort(txn).unwrap();
            }
        }
        primary.log().flush_all().unwrap();
        assert!(
            cluster.wait_catchup(Duration::from_secs(30)),
            "replica caught up (virtual time)"
        );
        let fp_primary = state_fingerprint(&primary).unwrap();
        let fp_replica = state_fingerprint(&cluster.replica(0).db()).unwrap();
        cluster.shutdown();
        primary.log().shutdown();
        let history = rt.history();
        drop(guard);
        (history, fp_primary, fp_replica)
    }

    let seed: u64 = std::env::var("AETHER_SIM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xA57E_C0DE);
    let (h1, p1, r1) = run(seed);
    assert_eq!(r1, p1, "replica converged to primary state");
    let (h2, p2, r2) = run(seed);
    assert_eq!(h1, h2, "same seed must replay the same scheduler history");
    assert_eq!((p1, r1), (p2, r2), "same history, same states");
    let (h3, _, _) = run(seed ^ 1);
    assert_ne!(h1, h3, "different seed must steer the interleaving");
}
