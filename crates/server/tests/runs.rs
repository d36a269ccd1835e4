//! Runs of pipelined auto-commits over the wire: the auto-commits one read
//! delivers execute as runs (`Db::update_commit_run`), and each is still a
//! transaction of its own, answered in request order.

use aether_server::protocol::{Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

const ROWS: u64 = 256;

fn boot(protocol: CommitProtocol) -> (Arc<Db>, u32) {
    let opts = DbOptions {
        protocol,
        ..DbOptions::default()
    };
    let db = Db::open(opts);
    let table = db.create_table(16, ROWS);
    for k in 0..ROWS {
        db.load(table, k, &[7u8; 16]).unwrap();
    }
    db.setup_complete();
    (db, table)
}

fn update(table: u32, key: u64, fill: u8) -> Request {
    Request::Update {
        txn: 0,
        table,
        key,
        value: vec![fill; 16],
    }
}

fn read(client: &mut Client, table: u32, key: u64) -> Vec<u8> {
    match client.call(&Request::Read {
        table,
        key,
        at_least: 0,
    }) {
        Ok(Response::Value { value, .. }) => value,
        other => panic!("read {key}: {other:?}"),
    }
}

/// Send `reqs` in one write; the ids they went out under.
fn send_all(client: &mut Client, reqs: &[Request]) -> Vec<u64> {
    let ids = reqs.iter().map(|r| client.send(r).unwrap()).collect();
    client.flush().unwrap();
    ids
}

/// The next response, which must answer `id`.
fn answer(client: &mut Client, id: u64) -> Response {
    let (got, resp) = client.recv().unwrap();
    assert_eq!(got, id, "responses out of request order");
    resp
}

/// One write carrying the same key twice: the second statement ends the
/// run of the first (its lock is refused, not queued behind the run's own
/// lock), runs next, and wins. A run whose later statements queue for
/// their locks waits on itself until the lock time-out.
#[test]
fn a_key_twice_in_one_write_answers_both_and_keeps_the_second() {
    for protocol in CommitProtocol::ALL {
        let (db, table) = boot(protocol);
        let server =
            Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
        let mut client = Client::new(Box::new(server.connect_chan()));
        let reqs = [
            update(table, 1, 1),
            update(table, 5, 2),
            update(table, 2, 3),
            update(table, 5, 4),
            update(table, 3, 5),
        ];
        let started = std::time::Instant::now();
        for id in send_all(&mut client, &reqs) {
            let resp = answer(&mut client, id);
            assert!(
                matches!(resp, Response::Committed { .. }),
                "{protocol:?}: {resp:?}"
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{protocol:?}: a run waited on its own lock"
        );
        assert_eq!(read(&mut client, table, 5), vec![4u8; 16], "{protocol:?}");
        for (key, fill) in [(1, 1), (2, 3), (3, 5)] {
            assert_eq!(
                read(&mut client, table, key),
                vec![fill; 16],
                "{protocol:?}"
            );
        }
        client.close();
        server.shutdown();
        db.log().shutdown();
    }
}

/// A key held by another connection's open transaction cuts the run: the
/// statements before it are answered while it waits, and once the holder
/// commits it and every statement after it commit.
#[test]
fn a_key_held_by_an_open_transaction_cuts_the_run() {
    let (db, table) = boot(CommitProtocol::Pipelined);
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let mut holder = Client::new(Box::new(server.connect_chan()));
    let txn = match holder.call(&Request::Begin).unwrap() {
        Response::Begun { txn } => txn,
        other => panic!("{other:?}"),
    };
    let held = Request::Update {
        txn,
        table,
        key: 4,
        value: vec![9u8; 16],
    };
    assert_eq!(holder.call(&held).unwrap(), Response::UpdateOk);

    let mut client = Client::new(Box::new(server.connect_chan()));
    let reqs: Vec<Request> = (0..8).map(|k| update(table, k, 0x40 + k as u8)).collect();
    let ids = send_all(&mut client, &reqs);
    // Keys 0..4 commit while key 4 waits for the holder.
    for &id in &ids[..4] {
        assert!(matches!(
            answer(&mut client, id),
            Response::Committed { .. }
        ));
    }
    assert!(
        client
            .recv_timeout(Duration::from_millis(50))
            .unwrap()
            .is_none(),
        "key 4 was answered while its lock was held"
    );
    assert!(matches!(
        holder.call(&Request::Commit { txn }).unwrap(),
        Response::Committed { .. }
    ));
    for &id in &ids[4..] {
        assert!(matches!(
            answer(&mut client, id),
            Response::Committed { .. }
        ));
    }
    for k in 0..8u64 {
        assert_eq!(read(&mut client, table, k), vec![0x40 + k as u8; 16]);
    }
    holder.close();
    client.close();
    server.shutdown();
    db.log().shutdown();
}

/// 64 auto-commits in flight on one connection take the log's insert lock
/// at most once per two records: a run is one acquisition. One at a time,
/// each record takes it once (ratio 1.0).
#[test]
fn pipelined_auto_commits_share_insert_lock_acquisitions() {
    let (db, table) = boot(CommitProtocol::Pipelined);
    let server = Server::start(Engine::primary(Arc::clone(&db)), ServerConfig::default()).unwrap();
    let mut client = Client::new(Box::new(server.connect_chan()));
    let counts = || {
        let snap = db.telemetry_snapshot("runs");
        let c = |name| snap.counter(name).unwrap_or(0);
        (
            c("log.direct_acquires") + c("log.group_acquires"),
            c("log.inserts"),
        )
    };
    let (acquires0, inserts0) = counts();
    for round in 0..8u64 {
        let reqs: Vec<Request> = (0..64)
            .map(|i| update(table, (round * 64 + i) % ROWS, round as u8))
            .collect();
        for id in send_all(&mut client, &reqs) {
            assert!(matches!(
                answer(&mut client, id),
                Response::Committed { .. }
            ));
        }
    }
    let (acquires, inserts) = counts();
    let (acquires, inserts) = (acquires - acquires0, inserts - inserts0);
    assert_eq!(inserts, 8 * 64);
    let ratio = acquires as f64 / inserts as f64;
    assert!(
        ratio <= 0.5,
        "{acquires} insert-lock acquisitions for {inserts} records"
    );
    client.close();
    server.shutdown();
    db.log().shutdown();
}
