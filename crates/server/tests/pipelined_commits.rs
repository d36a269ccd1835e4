//! Pipelined commits over the wire: correctness under a flush stall, and
//! the reason to pipeline at all (fewer flushes than serial round trips).
//!
//! Several connections keep deep windows of auto-commit updates in flight
//! while the primary's log device stops syncing mid-run. The server must
//! keep per-connection response order, must not ack a single commit whose
//! bytes have not reached the (stalled) durable store, and after a crash
//! taken *during* the stall, recovery must reproduce every acked write.

use aether_core::device::{DeviceKind, LogDevice, StallDevice};
use aether_core::runtime::{monotonic_ns, Runtime};
use aether_core::LogConfig;
use aether_server::protocol::{Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitProtocol, Db, DbOptions};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const CONNS: usize = 4;
const OPS: usize = 48;
const WINDOW: usize = 8;
const KEYS_PER_CONN: u64 = 64;

fn record(conn: usize, i: usize) -> Vec<u8> {
    let mut v = vec![0xABu8; 16];
    v[0] = conn as u8;
    v[1] = i as u8;
    v
}

#[test]
fn flush_stall_never_acks_undurable_and_keeps_order() {
    // A held `StallDevice` blocks the flush daemon inside `sync`, so
    // durability callbacks (and therefore `Committed` responses) stop;
    // anything acked anyway would be provably undurable. Its 2 ms of sync
    // latency keeps the run flush-bound, so the windows stay deep and
    // commits group behind the flush in flight.
    let device = Arc::new(StallDevice::new(Duration::from_millis(2)));
    let opts = DbOptions {
        protocol: CommitProtocol::Pipelined,
        ..DbOptions::default()
    };
    let db = Db::open_with_device(opts, device.clone() as Arc<dyn LogDevice>);
    let table = db.create_table(16, CONNS as u64 * KEYS_PER_CONN);
    for k in 0..CONNS as u64 * KEYS_PER_CONN {
        db.load(table, k, &[0u8; 16]).unwrap();
    }
    db.setup_complete();
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();

    // key -> value of every commit the server has ACKED so far.
    let acked: Arc<Mutex<HashMap<u64, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));

    let mut workers = Vec::new();
    for conn in 0..CONNS {
        let mut client = Client::new(Box::new(server.connect_chan()));
        let acked = Arc::clone(&acked);
        workers.push(std::thread::spawn(move || {
            let mut pending: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
            let mut last_id: Option<u64> = None;
            let mut issued = 0usize;
            while issued < OPS || !pending.is_empty() {
                while issued < OPS && pending.len() < WINDOW {
                    let key = conn as u64 * KEYS_PER_CONN + issued as u64;
                    let value = record(conn, issued);
                    let id = client
                        .send(&Request::Update {
                            txn: 0,
                            table,
                            key,
                            value: value.clone(),
                        })
                        .unwrap();
                    pending.insert(id, (key, value));
                    issued += 1;
                }
                let (id, resp) = client.recv().unwrap();
                // Per-connection response ordering: ids strictly ascend,
                // stall or no stall.
                assert!(
                    last_id.is_none_or(|p| id > p),
                    "conn {conn}: response id {id} after {last_id:?}"
                );
                last_id = Some(id);
                let (key, value) = pending.remove(&id).expect("response for unknown id");
                match resp {
                    Response::Committed { token } => {
                        assert!(token > 0);
                        acked.lock().insert(key, value);
                    }
                    other => panic!("conn {conn}: unexpected {other:?}"),
                }
            }
            client.close();
        }));
    }

    // Let the run get going, then stall the flush path mid-run.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while acked.lock().len() < CONNS {
        assert!(std::time::Instant::now() < deadline, "no commits acked");
        std::thread::sleep(Duration::from_millis(1));
    }
    device.hold();
    // Quiesce: the one sync already past the stall gate may still complete
    // and ack its batch; after this window nothing else can.
    std::thread::sleep(Duration::from_millis(100));
    let a1 = acked.lock().len();
    std::thread::sleep(Duration::from_millis(100));
    let a2 = acked.lock().len();
    assert_eq!(a1, a2, "commits acked while the log device was stalled");
    assert!(
        a2 < CONNS * OPS,
        "stall landed too late to exercise anything"
    );

    // Crash while stalled: the image holds only synced bytes. Every ack the
    // clients have seen so far must survive recovery.
    let acked_at_crash: HashMap<u64, Vec<u8>> = acked.lock().clone();
    let image = db.crash();
    // A second, independent image (recovery consumes its store).
    let image2 = aether_storage::CrashImage {
        log_start: image.log_start,
        log_bytes: image.log_bytes.clone(),
        store: image.store.deep_clone(),
        schema: image.schema.clone(),
    };

    // Release the stall and drain the run cleanly.
    device.release();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(acked.lock().len(), CONNS * OPS, "every op eventually acked");
    server.shutdown();
    db.log().flush_all().unwrap();
    assert_eq!(db.locks().granted_count(), 0);
    assert_eq!(db.txn_manager().active_count(), 0);

    // Recover from the mid-stall image.
    let recovered = Db::recover(
        image,
        DbOptions {
            protocol: CommitProtocol::Pipelined,
            ..DbOptions::default()
        },
    )
    .unwrap();
    for (key, value) in &acked_at_crash {
        let got = recovered.snapshot_read(table, *key).unwrap();
        assert_eq!(
            got.as_ref(),
            Some(value),
            "acked commit for key {key} missing after recovery — undurable ack"
        );
    }

    // Recovery is a pure function of the image: a second recovery lands on
    // the same state fingerprint.
    let recovered2 = Db::recover(
        image2,
        DbOptions {
            protocol: CommitProtocol::Pipelined,
            ..DbOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        state_fingerprint(&recovered).unwrap(),
        state_fingerprint(&recovered2).unwrap()
    );
}

/// `CONNS` connections each commit 16 auto-commit updates through a
/// `window`-deep pipeline, entirely under the simulator on a 2 ms device.
/// Returns (device syncs, virtual nanoseconds) for the load.
fn sim_load(window: usize) -> (u64, u64) {
    const OPS: usize = 16;
    let rt = Runtime::sim(17);
    let _guard = rt.enter();
    let db = Db::open(DbOptions {
        protocol: CommitProtocol::Pipelined,
        device: DeviceKind::CustomUs(2000),
        log_config: LogConfig::default().with_runtime(rt.clone()),
        ..DbOptions::default()
    });
    let table = db.create_table(16, CONNS as u64 * KEYS_PER_CONN);
    for k in 0..CONNS as u64 * KEYS_PER_CONN {
        db.load(table, k, &[0u8; 16]).unwrap();
    }
    db.setup_complete();
    let cfg = ServerConfig {
        runtime: rt.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start(Engine::primary(Arc::clone(&db)), cfg).unwrap();

    let flushes_before = db.log().flush_count();
    let t0 = monotonic_ns();
    let workers: Vec<_> = (0..CONNS)
        .map(|conn| {
            let mut client = Client::new(Box::new(server.connect_chan()));
            rt.spawn(&format!("client-{conn}"), move || {
                let (mut issued, mut in_flight) = (0usize, 0usize);
                while issued < OPS || in_flight > 0 {
                    while issued < OPS && in_flight < window {
                        let req = Request::Update {
                            txn: 0,
                            table,
                            key: conn as u64 * KEYS_PER_CONN + issued as u64,
                            value: record(conn, issued),
                        };
                        client.send(&req).unwrap();
                        issued += 1;
                        in_flight += 1;
                    }
                    match client.recv().unwrap() {
                        (_, Response::Committed { .. }) => in_flight -= 1,
                        (_, other) => panic!("conn {conn}: unexpected {other:?}"),
                    }
                }
                client.close();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let out = (db.log().flush_count() - flushes_before, monotonic_ns() - t0);
    server.shutdown();
    db.log().shutdown();
    out
}

/// Pipelining is what lets one flush harden many of a connection's commits:
/// at equal connection count, 8 commits in flight per connection must need
/// strictly fewer device syncs, and less (virtual) time, than one commit per
/// round trip. Under the simulator both are exact, not wall-clock luck.
#[test]
fn pipelined_window_beats_serial_at_equal_connections() {
    let (serial_flushes, serial_ns) = sim_load(1);
    let (piped_flushes, piped_ns) = sim_load(WINDOW);
    assert!(
        piped_flushes < serial_flushes,
        "window {WINDOW} took {piped_flushes} flushes, window 1 took {serial_flushes}"
    );
    assert!(
        piped_ns < serial_ns,
        "window {WINDOW} took {piped_ns} ns, window 1 took {serial_ns} ns"
    );
}
