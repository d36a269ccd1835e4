//! Property tests for the read router's three core invariants, under
//! randomized replica lag (up to effectively-failed: a link so slow the
//! replica never applies anything within the test horizon) and random
//! join interleavings:
//!
//! (a) **Read-your-writes**: a session read never observes state older
//!     than the session's commit-token watermark — the value read for a
//!     key is exactly the last value this (single-writer) session
//!     committed to it.
//! (b) **Bounded staleness**: `read_at_least(lsn)` never returns a
//!     snapshot whose applied watermark is below `lsn`.
//! (c) **Quarantine**: a quarantined replica receives no reads until it
//!     is re-admitted.

use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_repl::prelude::*;
use aether_storage::{CommitProtocol, Db, DbOptions};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const KEYS: u64 = 8;

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

fn counter_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

fn primary() -> Arc<Db> {
    let db = Db::open(opts());
    db.create_table(24, KEYS);
    for k in 0..KEYS {
        db.load(0, k, &mk(k, 0)).unwrap();
    }
    db.setup_complete();
    db
}

/// Per-read check for invariant (c): comparing router stats before/after a
/// single-threaded read, any replica that was quarantined across the whole
/// read (and was not re-admitted during it) must not have served it.
fn assert_no_quarantined_serves(
    before: &RouterStats,
    after: &RouterStats,
) -> Result<(), TestCaseError> {
    for i in 0..before.quarantined.len() {
        if before.quarantined[i]
            && after.quarantined[i]
            && before.readmissions == after.readmissions
        {
            prop_assert_eq!(
                before.routed_per_replica[i],
                after.routed_per_replica[i],
                "replica {} served a read while quarantined: {:?} -> {:?}",
                i,
                before,
                after
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn session_reads_are_token_monotonic_under_lag(
        ops in proptest::collection::vec((0u64..KEYS, 1u64..10_000), 5..30),
        healthy in 1usize..3,
        lag_ms in 0u64..400,
        budget_us in 200u64..20_000,
        join_at in 0usize..5,
        floor_pick in 0usize..64,
    ) {
        let primary = primary();
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: healthy,
                policy: DurabilityPolicy::SemiSync(1),
                ..ReplicationConfig::default()
            },
        ).unwrap();

        let router_cfg = RouterConfig {
            budget: Duration::from_micros(budget_us),
            quarantine_lag: 256,
            readmit_lag: 128,
            ..RouterConfig::default()
        };
        let session = Session::new();
        let mut last_written = vec![0u64; KEYS as usize];
        let mut tokens: Vec<CommitToken> = Vec::new();
        let mut router: Option<ReadRouter> = None;

        for (i, &(key, v)) in ops.iter().enumerate() {
            // A laggy-to-effectively-failed replica joins mid-workload: the
            // router it feeds is rebuilt to include it (routers hold reader
            // handles; building one is cheap).
            if i == join_at {
                cluster
                    .add_replica_with_link(LinkConfig::with_latency_us(lag_ms * 1_000))
                    .unwrap();
                router = None;
            }
            let router = router.get_or_insert_with(|| cluster.router(router_cfg.clone()));

            let mut txn = primary.begin();
            primary.update(&mut txn, 0, key, &mk(key, v)).unwrap();
            let token = cluster.commit(txn).unwrap().token();
            session.observe(token);
            last_written[key as usize] = v;
            tokens.push(token);

            let before = router.stats();
            let read = router.read_session(&session, 0, key).unwrap();
            let after = router.stats();

            // (a) read-your-writes: never older than the session token.
            prop_assert!(
                read.applied >= session.watermark(),
                "session floor {:?}, served applied {:?} from {:?}",
                session.watermark(), read.applied, read.source
            );
            // Single writer + applied >= watermark: the value is exactly
            // the last one this session committed.
            let got = read.value.as_deref().map(counter_of).unwrap_or(0);
            prop_assert_eq!(got, last_written[key as usize], "from {:?}", read.source);

            // (c) no reads land on a quarantined replica.
            assert_no_quarantined_serves(&before, &after)?;
        }

        // (b) explicit bounded-staleness floors: an arbitrary historic
        // token and the freshest one both must be honored.
        let router = router.get_or_insert_with(|| cluster.router(router_cfg.clone()));
        let floor = tokens[floor_pick % tokens.len()].lsn();
        for min in [floor, tokens.last().unwrap().lsn()] {
            let before = router.stats();
            let read = router.read_at_least(0, ops[0].0, min).unwrap();
            let after = router.stats();
            prop_assert!(
                read.applied >= min,
                "read_at_least({min:?}) served applied {:?} from {:?}",
                read.applied, read.source
            );
            assert_no_quarantined_serves(&before, &after)?;
        }
    }
}
