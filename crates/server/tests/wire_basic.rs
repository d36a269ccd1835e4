//! End-to-end smoke: a server fronting a real Db, exercised over both
//! transports — interactive transactions, auto-commit, scans, errors,
//! read-your-writes tokens.

use aether_core::runtime::Runtime;
use aether_server::protocol::{ErrCode, Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;

fn boot(protocol: CommitProtocol) -> (Arc<Db>, u32) {
    let opts = DbOptions {
        protocol,
        ..DbOptions::default()
    };
    let db = Db::open(opts);
    let table = db.create_table(16, 64);
    for k in 0..64u64 {
        db.load(table, k, &[7u8; 16]).unwrap();
    }
    db.setup_complete();
    (db, table)
}

fn run_session(client: &mut Client, table: u32) {
    // Interactive transaction: begin, update, commit.
    let txn = match client.call(&Request::Begin).unwrap() {
        Response::Begun { txn } => txn,
        other => panic!("unexpected {other:?}"),
    };
    let resp = client
        .call(&Request::Update {
            txn,
            table,
            key: 3,
            value: vec![9u8; 16],
        })
        .unwrap();
    assert_eq!(resp, Response::UpdateOk);
    let token = match client.call(&Request::Commit { txn }).unwrap() {
        Response::Committed { token } => token,
        other => panic!("unexpected {other:?}"),
    };
    assert!(token > 0, "non-read-only commit carries a token");

    // Read our own write back, at the committed token's freshness floor.
    match client
        .call(&Request::Read {
            table,
            key: 3,
            at_least: token,
        })
        .unwrap()
    {
        Response::Value { present, value, .. } => {
            assert!(present);
            assert_eq!(value, vec![9u8; 16]);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Auto-commit update acks as a commit.
    match client
        .call(&Request::Update {
            txn: 0,
            table,
            key: 4,
            value: vec![5u8; 16],
        })
        .unwrap()
    {
        Response::Committed { token } => assert!(token > 0),
        other => panic!("unexpected {other:?}"),
    }

    // Scan sees the loaded rows.
    match client
        .call(&Request::Scan {
            table,
            start: 0,
            count: 64,
        })
        .unwrap()
    {
        Response::ScanDone { found, .. } => assert_eq!(found, 64),
        other => panic!("unexpected {other:?}"),
    }

    // Errors are responses, not connection drops.
    match client.call(&Request::Commit { txn: 999_999 }).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrCode::NoSuchTxn as u16),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
}

#[test]
fn chan_transport_full_session() {
    let (db, table) = boot(CommitProtocol::Pipelined);
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let mut client = Client::new(Box::new(server.connect_chan()));
    run_session(&mut client, table);
    client.close();
    server.shutdown();
    db.log().flush_all().unwrap();
    assert_eq!(db.locks().granted_count(), 0);
    assert_eq!(db.txn_manager().active_count(), 0);
}

#[test]
fn tcp_transport_full_session() {
    let (db, table) = boot(CommitProtocol::Elr);
    let cfg = ServerConfig {
        addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let server = Server::start(Engine::primary(Arc::clone(&db)), cfg).unwrap();
    let addr = server.local_addr().expect("bound");
    let mut client = Client::connect_tcp(addr).unwrap();
    run_session(&mut client, table);
    client.close();
    server.shutdown();
}

#[test]
fn pipelined_window_many_commits_in_flight() {
    let (db, table) = boot(CommitProtocol::Pipelined);
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let mut client = Client::new(Box::new(server.connect_chan()));

    // Fire 32 auto-commit updates without reading a single response, then
    // collect: responses must come back in request order, every one a
    // durable Committed with a non-decreasing token.
    let mut ids = Vec::new();
    for i in 0..32u64 {
        let key = i % 64;
        ids.push(
            client
                .send(&Request::Update {
                    txn: 0,
                    table,
                    key,
                    value: vec![i as u8; 16],
                })
                .unwrap(),
        );
    }
    let mut last_token = 0u64;
    for expect_id in ids {
        let (id, resp) = client.recv().unwrap();
        assert_eq!(id, expect_id, "responses out of order");
        match resp {
            Response::Committed { token } => {
                assert!(token >= last_token, "tokens regressed");
                last_token = token;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Ordering held while the runtime saw real pipelining; the telemetry
    // batch histogram is checked in the benches, not here (timing-shaped).
    client.close();
    server.shutdown();
    db.log().flush_all().unwrap();
    assert_eq!(db.locks().granted_count(), 0);
    assert_eq!(db.txn_manager().active_count(), 0);
}

/// A wire auto-commit is one log record under every protocol: one insert
/// on the registry per acked request.
#[test]
fn an_auto_commit_is_one_log_insert() {
    for protocol in CommitProtocol::ALL {
        let (db, table) = boot(protocol);
        let server =
            Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
        let mut client = Client::new(Box::new(server.connect_chan()));
        let inserts = || db.telemetry_snapshot("wire").counter("log.inserts");
        let before = inserts().unwrap();
        for key in 0..20u64 {
            let value = vec![3u8; 16];
            match client.call(&Request::Update {
                txn: 0,
                table,
                key,
                value,
            }) {
                Ok(Response::Committed { .. }) => {}
                other => panic!("{protocol:?}: unexpected {other:?}"),
            }
        }
        assert_eq!(inserts().unwrap() - before, 20, "{protocol:?}");
        client.close();
        server.shutdown();
        db.log().shutdown();
    }
}

/// A read never shows an open transaction's write: connection A begins
/// and updates a key, and connection B's read of it returns the committed
/// value until A commits.
#[test]
fn a_read_does_not_see_an_open_transactions_write() {
    let (db, table) = boot(CommitProtocol::Pipelined);
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let mut a = Client::new(Box::new(server.connect_chan()));
    let mut b = Client::new(Box::new(server.connect_chan()));
    let read = |client: &mut Client| match client.call(&Request::Read {
        table,
        key: 5,
        at_least: 0,
    }) {
        Ok(Response::Value { present, value, .. }) => {
            assert!(present);
            value
        }
        other => panic!("unexpected {other:?}"),
    };
    let txn = match a.call(&Request::Begin).unwrap() {
        Response::Begun { txn } => txn,
        other => panic!("unexpected {other:?}"),
    };
    let update = Request::Update {
        txn,
        table,
        key: 5,
        value: vec![9u8; 16],
    };
    assert_eq!(a.call(&update).unwrap(), Response::UpdateOk);
    assert_eq!(read(&mut b), vec![7u8; 16], "B read A's open write");
    match a.call(&Request::Commit { txn }).unwrap() {
        Response::Committed { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(read(&mut b), vec![9u8; 16], "B missed A's commit");
    a.close();
    b.close();
    server.shutdown();
    db.log().shutdown();
}

#[test]
fn sim_runtime_serves_deterministically() {
    fn run(seed: u64) -> (u64, u64) {
        let rt = Runtime::sim(seed);
        let guard = rt.enter();
        let opts = DbOptions {
            protocol: CommitProtocol::Pipelined,
            log_config: aether_core::LogConfig::default().with_runtime(rt.clone()),
            ..DbOptions::default()
        };
        let db = Db::open(opts);
        let table = db.create_table(16, 32);
        for k in 0..32u64 {
            db.load(table, k, &[1u8; 16]).unwrap();
        }
        db.setup_complete();
        let cfg = ServerConfig {
            runtime: rt.clone(),
            ..ServerConfig::default()
        };
        let server = Server::start(Engine::primary(Arc::clone(&db)), cfg).unwrap();
        // Two concurrent client actors: with a second committer in flight
        // the scheduler has real interleaving choices (group-commit batch
        // cuts, executor turn order), so the seed actually steers the
        // history — a single blocking client's schedule is forced.
        let mut client = Client::new(Box::new(server.connect_chan()));
        let mut side = Client::new(Box::new(server.connect_chan()));
        let side_worker = rt.spawn("sim-side-client", move || {
            for i in 0..20u64 {
                match side
                    .call(&Request::Update {
                        txn: 0,
                        table,
                        key: 16 + i % 16,
                        value: vec![i as u8; 16],
                    })
                    .unwrap()
                {
                    Response::Committed { token } => assert!(token > 0),
                    other => panic!("unexpected {other:?}"),
                }
            }
            side.close();
        });
        for i in 0..20u64 {
            match client
                .call(&Request::Update {
                    txn: 0,
                    table,
                    key: i % 16,
                    value: vec![i as u8; 16],
                })
                .unwrap()
            {
                Response::Committed { token } => rt.note(&format!("commit@{token}")),
                other => panic!("unexpected {other:?}"),
            }
        }
        side_worker.join().unwrap();
        client.close();
        server.shutdown();
        db.log().flush_all().unwrap();
        db.log().shutdown();
        let h = rt.history();
        drop(guard);
        h
    }
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must replay the same history");
    let c = run(43);
    assert_ne!(a, c, "different seed should diverge");
}
