//! Disk-pressure degradation seen from the wire: shed, then recover.
//!
//! `crates/storage/tests/disk_pressure.rs` checks the watermark ladder below
//! the wire. Here a pipelining client drives a server whose log sits on a
//! small segmented device with tight watermarks. A replica that stopped
//! acknowledging pins truncation, so the retained log can only grow and the
//! hard watermark is crossed by construction, not by timing: admission must
//! then answer `LogFull`, typed and retryable, without dropping the
//! connection. Once the replica is gone, the emergency checkpoint the shed
//! requests kicked can truncate, and commits flow again with no operator
//! action, no poisoned log and no acked write lost. An interactive
//! transaction open across the shed still commits: it was admitted at
//! `Begin`.

use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
use aether_core::LogConfig;
use aether_server::protocol::{ErrCode, Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEG: u64 = 8 * 1024;
const SOFT: u64 = 2 * SEG;
const HARD: u64 = 4 * SEG;
const VAL: usize = 128;
const KEYS: u64 = 64;
const PIN_KEY: u64 = KEYS - 1;
const WINDOW: usize = 8;

fn value(i: u64) -> Vec<u8> {
    let mut v = vec![0x5Au8; VAL];
    v[..8].copy_from_slice(&i.to_le_bytes());
    v
}

fn is_log_full(resp: &Response) -> bool {
    match resp {
        Response::Err { code, .. } => {
            let code = ErrCode::from_u16(*code).expect("known error code");
            assert_eq!(code, ErrCode::LogFull, "only LogFull may shed: {resp:?}");
            assert!(code.is_retryable());
            true
        }
        _ => false,
    }
}

#[test]
fn wire_client_is_shed_with_log_full_then_recovers() {
    let segments = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), SEG).unwrap());
    let db = Db::open_with_device(
        DbOptions {
            protocol: CommitProtocol::Pipelined,
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            log_soft_bytes: Some(SOFT),
            log_hard_bytes: Some(HARD),
            ..DbOptions::default()
        },
        Arc::clone(&segments) as _,
    );
    let table = db.create_table(VAL, KEYS);
    for k in 0..KEYS {
        db.load(table, k, &[0u8; VAL]).unwrap();
    }
    db.setup_complete();
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let mut client = Client::new(Box::new(server.connect_chan()));

    // Pin truncation: a replica that never acknowledges past the load. (An
    // open transaction logs nothing, so it pins nothing.)
    let gate = db.log().commit_gate();
    let stalled = gate.register_replica_at(db.log().durable_lsn());

    // An interactive transaction with one update, left open.
    let pin = match client.call(&Request::Begin).unwrap() {
        Response::Begun { txn } => txn,
        other => panic!("begin: {other:?}"),
    };
    let pinned = Request::Update {
        txn: pin,
        table,
        key: PIN_KEY,
        value: value(u64::MAX),
    };
    assert_eq!(client.call(&pinned).unwrap(), Response::UpdateOk);

    // Pipeline auto-commit updates until admission sheds. Each one logs more
    // than VAL bytes and nothing can be truncated, so 8 * HARD / VAL of them
    // are far past the watermark.
    let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut pending: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
    let (mut issued, mut shed) = (0u64, 0u64);
    let budget = 8 * HARD / VAL as u64;
    while (shed == 0 && issued < budget) || !pending.is_empty() {
        while shed == 0 && issued < budget && pending.len() < WINDOW {
            let (key, v) = (issued % PIN_KEY, value(issued));
            let req = Request::Update {
                txn: 0,
                table,
                key,
                value: v.clone(),
            };
            pending.insert(client.send(&req).unwrap(), (key, v));
            issued += 1;
        }
        let (id, resp) = client.recv().unwrap();
        let (key, v) = pending.remove(&id).expect("response for unknown id");
        match resp {
            Response::Committed { .. } => {
                acked.insert(key, v);
            }
            other if is_log_full(&other) => shed += 1,
            other => panic!("update {id}: unexpected {other:?}"),
        }
    }
    assert!(
        shed > 0,
        "{issued} commits admitted past a {HARD}-byte hard watermark: admission control is off"
    );
    assert!(db.stats().admission_rejects() >= shed);

    // The open transaction's commit is never shed: it was admitted at
    // Begin. Then the pin goes.
    match client.call(&Request::Commit { txn: pin }).unwrap() {
        Response::Committed { .. } => acked.insert(PIN_KEY, value(u64::MAX)),
        other => panic!("commit of the open transaction: {other:?}"),
    };
    assert!(gate.unregister_replica(&stalled));

    // Recovery without operator action: every shed request kicks the
    // emergency checkpoint, so retrying is all a client has to do.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut recovered = 0u64;
    while recovered < 2 * WINDOW as u64 {
        let (key, v) = (recovered % PIN_KEY, value(1_000_000 + recovered));
        let req = Request::Update {
            txn: 0,
            table,
            key,
            value: v.clone(),
        };
        match client.call(&req).unwrap() {
            Response::Committed { .. } => {
                acked.insert(key, v);
                recovered += 1;
            }
            other if is_log_full(&other) => {
                assert!(Instant::now() < deadline, "admission never recovered");
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("retry: unexpected {other:?}"),
        }
    }
    assert!(db.stats().emergency_checkpoints() >= 1);
    assert!(segments.recycled_segments() > 0, "nothing was truncated");
    assert!(!db.log().is_poisoned());

    // Every acked write is readable, over the wire.
    for (key, v) in &acked {
        let read = Request::Read {
            table,
            key: *key,
            at_least: 0,
        };
        match client.call(&read).unwrap() {
            Response::Value { present, value, .. } => {
                assert!(present && value == *v, "acked write to key {key} lost");
            }
            other => panic!("read {key}: {other:?}"),
        }
    }
    client.close();
    server.shutdown();
    db.log().flush_all().unwrap();
}
