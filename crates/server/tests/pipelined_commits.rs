//! Pipelined commits over the wire: correctness under a flush stall, and
//! the reason to pipeline at all (fewer flushes than serial round trips).
//!
//! Several connections keep deep windows of auto-commit updates in flight
//! while the primary's log device stops syncing mid-run. The server must
//! keep per-connection response order, must not ack a single commit whose
//! bytes have not reached the (stalled) durable store, and after a crash
//! taken *during* the stall, recovery must reproduce every acked write.

use aether_core::device::{DeviceKind, LogDevice, StallDevice};
use aether_core::runtime::{lock, monotonic_ns, Runtime};
use aether_core::LogConfig;
use aether_server::protocol::{Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
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
    // completions (and therefore `Committed` responses) stop;
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
                        lock(&acked).insert(key, value);
                    }
                    other => panic!("conn {conn}: unexpected {other:?}"),
                }
            }
            client.close();
        }));
    }

    // Let the run get going, then stall the flush path mid-run.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while lock(&acked).len() < CONNS {
        assert!(std::time::Instant::now() < deadline, "no commits acked");
        std::thread::sleep(Duration::from_millis(1));
    }
    device.hold();
    // Quiesce: the one sync already past the stall gate may still complete
    // and ack its batch; after this window nothing else can.
    std::thread::sleep(Duration::from_millis(100));
    let a1 = lock(&acked).len();
    std::thread::sleep(Duration::from_millis(100));
    let a2 = lock(&acked).len();
    assert_eq!(a1, a2, "commits acked while the log device was stalled");
    assert!(
        a2 < CONNS * OPS,
        "stall landed too late to exercise anything"
    );

    // Crash while stalled: the image holds only synced bytes. Every ack the
    // clients have seen so far must survive recovery.
    let acked_at_crash: HashMap<u64, Vec<u8>> = lock(&acked).clone();
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
    assert_eq!(lock(&acked).len(), CONNS * OPS, "every op eventually acked");
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

/// A client that queues 4096 auto-commits of 1 KiB (4 MiB, far past the
/// client's 64 KiB out-buffer and the socket buffers) before it reads an
/// ack must not deadlock with the server, and gets every ack in request
/// order (invariant 10).
#[test]
fn a_deep_send_only_burst_over_tcp_is_acked_in_order() {
    const UPDATES: u64 = 4096;
    let db = Db::open(DbOptions {
        protocol: CommitProtocol::Pipelined,
        ..DbOptions::default()
    });
    let table = db.create_table(1024, UPDATES);
    for k in 0..UPDATES {
        db.load(table, k, &[0u8; 1024]).unwrap();
    }
    db.setup_complete();
    let cfg = ServerConfig {
        addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let server = Server::start(Engine::primary(Arc::clone(&db)), cfg).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let ids: Vec<u64> = (0..UPDATES)
        .map(|key| {
            let value = vec![key as u8; 1024];
            let req = Request::Update {
                txn: 0,
                table,
                key,
                value,
            };
            client.send(&req).unwrap()
        })
        .collect();
    for id in ids {
        match client.recv().unwrap() {
            (got, Response::Committed { .. }) => assert_eq!(got, id, "ack out of order"),
            (_, other) => panic!("request {id}: unexpected {other:?}"),
        }
    }
    client.close();
    server.shutdown();
    db.log().shutdown();
}

/// Flush, then wait until no lock is granted and no transaction is active.
fn wait_no_leaks(db: &Arc<Db>) {
    let deadline = monotonic_ns() + 5_000_000_000;
    loop {
        db.log().flush_all().unwrap();
        if db.locks().granted_count() == 0 && db.txn_manager().active_count() == 0 {
            return;
        }
        assert!(
            monotonic_ns() < deadline,
            "leaked: {} locks granted, {} txns active",
            db.locks().granted_count(),
            db.txn_manager().active_count()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Retry auto-commit `id` on `client` until the answer is not `Busy` (a
/// bounded wait); the token it commits with.
fn retry_until_settled(client: &mut Client, table: u32, key: u64, id: u64) -> u64 {
    let deadline = monotonic_ns() + 5_000_000_000;
    let req = Request::Update {
        txn: 0,
        table,
        key,
        value: vec![key as u8; 16],
    };
    loop {
        client.send_with_id(&req, id).unwrap();
        match client.recv().unwrap() {
            (got, Response::Committed { token }) if got == id => return token,
            (_, Response::Err { code, .. }) if code == aether_server::ErrCode::Busy as u16 => {
                assert!(monotonic_ns() < deadline, "id {id:#x}: Busy for 5 s");
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("id {id:#x}: unexpected {other:?}"),
        }
    }
}

#[test]
fn a_connection_closed_mid_flight_still_settles_its_commits() {
    // A held `StallDevice` keeps the flush from completing while a client
    // sends eight dedup-tagged auto-commits and closes its connection. The
    // connection's response queue stays subscribed to the log: once the
    // stall lifts, each commit settles its dedup entry, so a retry of each
    // id on a new connection replays the original token — it is neither
    // re-executed nor answered `Busy` for ever.
    let device = Arc::new(StallDevice::new(Duration::ZERO));
    let opts = DbOptions {
        protocol: CommitProtocol::Pipelined,
        log_config: LogConfig::default().with_telemetry(aether_core::TelemetryConfig {
            enabled: true,
            ..aether_core::TelemetryConfig::default()
        }),
        ..DbOptions::default()
    };
    let db = Db::open_with_device(opts, device.clone() as Arc<dyn LogDevice>);
    let table = db.create_table(16, 8);
    for k in 0..8u64 {
        db.load(table, k, &[0u8; 16]).unwrap();
    }
    db.setup_complete();
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let ids: Vec<u64> = (0..8)
        .map(|i| aether_server::retry::retry_id(77, i))
        .collect();

    device.hold();
    let commits_before = db.stats().commits();
    let mut client = Client::new(Box::new(server.connect_chan()));
    for (key, &id) in ids.iter().enumerate() {
        let req = Request::Update {
            txn: 0,
            table,
            key: key as u64,
            value: vec![key as u8; 16],
        };
        client.send_with_id(&req, id).unwrap();
    }
    client.flush().unwrap();
    let closed = |db: &Db| {
        db.telemetry_snapshot("t")
            .counter("server.conns_closed")
            .unwrap_or(0)
    };
    let deadline = monotonic_ns() + 5_000_000_000;
    while db.stats().commits() < commits_before + 8 {
        assert!(
            monotonic_ns() < deadline,
            "the eight commits never executed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    client.close();
    while closed(&db) < 1 {
        assert!(monotonic_ns() < deadline, "the connection never closed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Still in flight: a retry now is told to back off.
    let mut retry = Client::new(Box::new(server.connect_chan()));
    let req = Request::Update {
        txn: 0,
        table,
        key: 0,
        value: vec![0; 16],
    };
    retry.send_with_id(&req, ids[0]).unwrap();
    assert!(
        matches!(retry.recv().unwrap(), (_, Response::Err { code, .. }) if code == aether_server::ErrCode::Busy as u16),
        "a commit of the closed connection was settled while the flush was held"
    );

    device.release();
    wait_no_leaks(&db);
    let tokens: Vec<u64> = ids
        .iter()
        .enumerate()
        .map(|(key, &id)| retry_until_settled(&mut retry, table, key as u64, id))
        .collect();
    assert_eq!(
        db.stats().commits(),
        commits_before + 8,
        "a retry re-executed its commit"
    );
    let mut distinct = tokens.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 8, "eight commits, eight tokens: {tokens:?}");
    assert!(tokens
        .iter()
        .all(|&t| t > 0 && t <= db.log().durable_lsn().raw()));
    let again: Vec<u64> = ids
        .iter()
        .enumerate()
        .map(|(key, &id)| retry_until_settled(&mut retry, table, key as u64, id))
        .collect();
    assert_eq!(again, tokens, "the original tokens, replayed");
    wait_no_leaks(&db);
    drop(retry);
    server.shutdown();
}
