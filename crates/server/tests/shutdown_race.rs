//! Regression tests for the connection-teardown race (ISSUE 9 satellite):
//! a socket closed mid-pipeline — with requests still queued to the
//! executor and a transaction holding row locks — must have its queued
//! tail drained and its in-flight transactions aborted. Nothing may leak:
//! no lock stays granted, no transaction stays active, and the row is
//! immediately lockable by another connection (the deadlock detector's
//! lock table is the witness).

use aether_core::telemetry::TelemetryConfig;
use aether_core::LogConfig;
use aether_server::protocol::{Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot() -> (Arc<Db>, u32, Server) {
    let opts = DbOptions {
        protocol: CommitProtocol::Pipelined,
        log_config: LogConfig::default().with_telemetry(TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }),
        ..DbOptions::default()
    };
    let db = Db::open(opts);
    let table = db.create_table(16, 64);
    for k in 0..64u64 {
        db.load(table, k, &[0u8; 16]).unwrap();
    }
    db.setup_complete();
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    (db, table, server)
}

fn wait_no_leaks(db: &Arc<Db>) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        db.log().flush_all().unwrap();
        if db.locks().granted_count() == 0 && db.txn_manager().active_count() == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "teardown leaked: {} locks granted, {} txns active",
            db.locks().granted_count(),
            db.txn_manager().active_count()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Close a connection with an open lock-holding transaction *and* a deep
/// queue of unexecuted requests. The executor must drain the queued tail,
/// abort the open transaction, and release every lock.
#[test]
fn close_mid_pipeline_releases_locks() {
    let (db, table, server) = boot();
    let mut client = Client::new(Box::new(server.connect_chan()));

    let txn = match client.call(&Request::Begin).unwrap() {
        Response::Begun { txn } => txn,
        other => panic!("unexpected {other:?}"),
    };
    // Take locks on rows 0..8 within the open transaction.
    for key in 0..8u64 {
        assert_eq!(
            client
                .call(&Request::Update {
                    txn,
                    table,
                    key,
                    value: vec![1u8; 16],
                })
                .unwrap(),
            Response::UpdateOk
        );
    }
    assert!(db.locks().granted_count() >= 8, "locks held");

    // Now pile unread work onto the pipeline — more updates on the open
    // transaction plus auto-commits — and slam the socket shut without
    // reading a single response.
    for key in 8..16u64 {
        client
            .send(&Request::Update {
                txn,
                table,
                key,
                value: vec![2u8; 16],
            })
            .unwrap();
        client
            .send(&Request::Update {
                txn: 0,
                table,
                key: 32 + key,
                value: vec![3u8; 16],
            })
            .unwrap();
    }
    client.close();

    wait_no_leaks(&db);

    // The rows the dead connection locked are immediately writable by a
    // fresh connection — a leaked lock would stall this for the full lock
    // timeout and trip the deadlock detector instead of committing.
    let mut other = Client::new(Box::new(server.connect_chan()));
    for key in 0..16u64 {
        match other
            .call(&Request::Update {
                txn: 0,
                table,
                key,
                value: vec![9u8; 16],
            })
            .unwrap()
        {
            Response::Committed { token } => assert!(token > 0),
            resp => panic!("row {key} not writable after teardown: {resp:?}"),
        }
    }
    other.close();

    // The teardown path was the abort path, not a silent drop: the server
    // counted close-time aborts for the dead connection.
    let snap = db.log().telemetry().snapshot("test");
    let aborts = snap
        .counters
        .iter()
        .find(|c| c.name == "server.close_aborts")
        .map(|c| c.value)
        .unwrap_or(0);
    assert!(aborts >= 1, "close-time abort not accounted: {aborts}");

    server.shutdown();
    wait_no_leaks(&db);
}

/// Server shutdown with connections mid-pipeline: every executor drains
/// and aborts; afterwards the Db is reusable directly with no stuck locks.
#[test]
fn server_shutdown_mid_pipeline_leaves_clean_db() {
    let (db, table, server) = boot();

    let mut clients = Vec::new();
    for c in 0..4usize {
        let mut client = Client::new(Box::new(server.connect_chan()));
        let txn = match client.call(&Request::Begin).unwrap() {
            Response::Begun { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            client
                .call(&Request::Update {
                    txn,
                    table,
                    key: c as u64,
                    value: vec![c as u8; 16],
                })
                .unwrap(),
            Response::UpdateOk
        );
        // Leave more work queued and the transaction open.
        for i in 0..8u64 {
            client
                .send(&Request::Update {
                    txn,
                    table,
                    key: 16 + c as u64 * 8 + i % 8,
                    value: vec![7u8; 16],
                })
                .unwrap();
        }
        // Queued requests leave only on a read, a flush or a close.
        client.flush().unwrap();
        clients.push(client);
    }
    assert!(db.locks().granted_count() >= 4);

    // Shut the server down under the open pipelines.
    server.shutdown();
    wait_no_leaks(&db);
    drop(clients);

    // The Db itself is healthy: direct transactions on the same rows work.
    let mut txn = db.begin();
    db.update(&mut txn, table, 0, &[5u8; 16]).unwrap();
    db.commit(txn).unwrap();
    db.log().flush_all().unwrap();
    assert_eq!(db.locks().granted_count(), 0);
    assert_eq!(db.txn_manager().active_count(), 0);
}

/// Churn: connections repeatedly open transactions, pipeline work, and
/// vanish without ceremony, concurrently. No interleaving may leak.
#[test]
fn churning_abrupt_closes_never_leak() {
    let (db, table, server) = boot();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let server = &server;
            s.spawn(move || {
                for round in 0..8usize {
                    let mut client = Client::new(Box::new(server.connect_chan()));
                    let txn = match client.call(&Request::Begin).unwrap() {
                        Response::Begun { txn } => txn,
                        other => panic!("unexpected {other:?}"),
                    };
                    // Every thread fights over the same 4 rows, so teardown
                    // aborts interleave with live lock waits.
                    let key = (t as u64 + round as u64) % 4;
                    let _ = client.call(&Request::Update {
                        txn,
                        table,
                        key,
                        value: vec![round as u8; 16],
                    });
                    client
                        .send(&Request::Update {
                            txn,
                            table,
                            key: (key + 1) % 4,
                            value: vec![round as u8; 16],
                        })
                        .unwrap();
                    client.close();
                }
            });
        }
    });
    wait_no_leaks(&db);
    server.shutdown();
    wait_no_leaks(&db);
}
