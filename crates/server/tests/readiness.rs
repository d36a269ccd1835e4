//! Readiness, not polling: a request runs as soon as its bytes arrive and a
//! response leaves as soon as it (and everything before it) is complete, so
//! under the simulator the server adds no virtual time of its own. A client
//! that stops reading blocks only its own connection's writer; shutdown and
//! client waits take the time they are asked to, not a polling period's.

use aether_core::device::DeviceKind;
use aether_core::runtime::{monotonic_ns, Runtime};
use aether_core::telemetry::TelemetryConfig;
use aether_core::LogConfig;
use aether_server::protocol::{Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_db(log_config: LogConfig, device: DeviceKind) -> (Arc<Db>, u32) {
    let db = Db::open(DbOptions {
        protocol: CommitProtocol::Pipelined,
        device,
        log_config,
        ..DbOptions::default()
    });
    let table = db.create_table(16, 8);
    for k in 0..8u64 {
        db.load(table, k, &[0u8; 16]).unwrap();
    }
    db.setup_complete();
    (db, table)
}

/// Run `f` with a client of a server on `device`, everything under
/// `Runtime::sim(seed)`.
fn in_sim<T>(seed: u64, device: DeviceKind, f: impl FnOnce(&mut Client, u32) -> T) -> T {
    let rt = Runtime::sim(seed);
    let guard = rt.enter();
    let (db, table) = open_db(LogConfig::default().with_runtime(rt.clone()), device);
    let cfg = ServerConfig {
        runtime: rt.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start(Engine::primary(Arc::clone(&db)), cfg).unwrap();
    let mut client = Client::new(Box::new(server.connect_chan()));
    let out = f(&mut client, table);
    client.close();
    server.shutdown();
    db.log().shutdown();
    drop(guard);
    out
}

#[test]
fn a_ping_is_answered_in_zero_virtual_time() {
    let took = in_sim(7, DeviceKind::Flash, |client, _| {
        (0..4)
            .map(|_| {
                let t0 = monotonic_ns();
                assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
                monotonic_ns() - t0
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(took, vec![0; 4], "virtual ns per ping");
}

#[test]
fn a_flash_commit_is_acked_in_one_device_sync() {
    let took = in_sim(7, DeviceKind::Flash, |client, table| {
        (0..8u64)
            .map(|key| {
                let t0 = monotonic_ns();
                let update = Request::Update {
                    txn: 0,
                    table,
                    key,
                    value: vec![key as u8; 16],
                };
                match client.call(&update).unwrap() {
                    Response::Committed { .. } => monotonic_ns() - t0,
                    other => panic!("unexpected {other:?}"),
                }
            })
            .collect::<Vec<_>>()
    });
    // The 100 µs sync is the only wait on the path.
    assert!(
        took.iter().all(|ns| (100_000..=110_000).contains(ns)),
        "virtual ns per commit: {took:?}"
    );
}

fn tcp_server() -> (Arc<Db>, Server) {
    let log_config = LogConfig::default().with_telemetry(TelemetryConfig {
        enabled: true,
        ..TelemetryConfig::default()
    });
    let (db, _) = open_db(log_config, DeviceKind::Ram);
    let cfg = ServerConfig {
        addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let server = Server::start(Engine::primary(Arc::clone(&db)), cfg).unwrap();
    (db, server)
}

#[test]
fn a_client_that_stops_reading_stalls_only_its_own_connection() {
    let (db, server) = tcp_server();
    let addr = server.local_addr().unwrap();
    let mut other = Client::connect_tcp(addr).unwrap();
    assert_eq!(other.call(&Request::Ping).unwrap(), Response::Pong);

    // Connection A pings in batches and never reads, until the server has
    // read every ping but answered none of the last batch: its responses
    // fill the socket buffers, and whatever writes them is blocked.
    let count = move |name: &str| {
        let snap = db.log().telemetry().snapshot("test");
        snap.counter(name).unwrap_or(0)
    };
    let (stalled_tx, stalled) = std::sync::mpsc::channel();
    let mut a = Client::connect_tcp(addr).unwrap();
    let pinger = std::thread::spawn(move || {
        const BATCH: u64 = 4096;
        for round in 1..=256 {
            for _ in 0..BATCH {
                a.send(&Request::Ping).unwrap();
            }
            a.flush().unwrap();
            // Every request so far, the other connection's ping included.
            let total = round * BATCH + 1;
            let deadline = Instant::now() + Duration::from_secs(1);
            while count("server.requests") < total && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            if count("server.responses") < total {
                // Stalled on the way out, not short of requests.
                assert!(
                    count("server.requests") >= total,
                    "the server read too few pings"
                );
                stalled_tx.send(()).unwrap();
                break;
            }
        }
        a
    });
    stalled
        .recv_timeout(Duration::from_secs(30))
        .expect("the server kept answering a client that never reads");

    let t0 = Instant::now();
    other.send(&Request::Ping).unwrap();
    let answer = other.recv_timeout(Duration::from_millis(100)).unwrap();
    assert!(
        matches!(answer, Some((_, Response::Pong))),
        "another connection's ping went unanswered for {:?}",
        t0.elapsed()
    );
    drop(pinger.join().unwrap());
    other.close();
    server.shutdown();
}

#[test]
fn shutdown_with_idle_tcp_clients_is_prompt() {
    let (_db, server) = tcp_server();
    let addr = server.local_addr().unwrap();
    let clients: Vec<Client> = (0..4)
        .map(|_| {
            let mut c = Client::connect_tcp(addr).unwrap();
            assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
            c
        })
        .collect();
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    drop(clients);
}

#[test]
fn a_client_wait_lasts_as_long_as_asked() {
    let (_db, server) = tcp_server();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let t0 = Instant::now();
    let got = client.recv_timeout(Duration::from_micros(300)).unwrap();
    let took = t0.elapsed();
    assert!(got.is_none());
    assert!(
        (Duration::from_micros(300)..Duration::from_millis(2)).contains(&took),
        "a 300 µs wait took {took:?}"
    );
    client.close();
    server.shutdown();
}
