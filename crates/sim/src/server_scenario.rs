//! The wire server under the simulated runtime: one seed, one server, a
//! fleet of deterministic client actors.
//!
//! [`run_server_seed`] boots a `Db` *and* an `aether-server` entirely under
//! [`Runtime::sim`] — each connection's reader and writer threads, the
//! flush daemon, and every client all scheduled by the seeded cooperative
//! scheduler over in-process byte-channel transports, so chunk delivery
//! order is scheduler order, which is seed order. The run checks the
//! server-level invariants from DESIGN.md:
//!
//! * **Per-connection response ordering** (inv. 10): responses arrive in
//!   request order — `Client::call` hard-fails on any id mismatch.
//! * **Commit-ack durability** (inv. 10): a `Committed` token is only ever
//!   produced once the durable watermark passed it, and tokens never
//!   regress within a connection.
//! * **Read-your-writes**: a read at `at_least = token` immediately after
//!   that token's commit must observe the committed value, through
//!   whatever routing the engine uses.
//! * **Acked commits survive a crash**: the run ends with a crash and a
//!   recovery, after which every private key holds the last value its
//!   connection saw acked (not checked under `AsyncCommit`, whose acks
//!   promise no durability).
//! * **No lock wait outlives a cycle**: some interactive transactions update
//!   both of two hot keys, each in a seed-chosen order, so connections
//!   cross. A `Deadlock` answer is legal — the server has rolled the victim
//!   back — and is counted in [`ServerSimReport::deadlocks`]; a
//!   `LockTimeout` is a cycle the detector missed, sitting out the 10 s
//!   time-out (free in virtual time), and fails the seed.
//!
//! The returned [`ServerSimReport::history`] is the reproducibility
//! witness: same seed ⇒ same `(hash, events)` ⇒ same state checksum.

use crate::plan::SeedRng;
use aether_core::runtime::Runtime;
use aether_core::LogConfig;
use aether_server::protocol::{ErrCode, Request, Response};
use aether_server::{Client, Engine, Server, ServerConfig};
use aether_storage::recovery::recover;
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Outcome of one simulated server run.
#[derive(Debug)]
pub struct ServerSimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Commits acknowledged across all client actors.
    pub acked: u64,
    /// Interactive updates refused as deadlock victims.
    pub deadlocks: u64,
    /// `(hash, events)` of the scheduler history.
    pub history: (u64, u64),
    /// Checksum over the final table contents (replayable witness of the
    /// converged state).
    pub state: u64,
    /// Invariant violations ("" ⇒ pass).
    pub violations: Vec<String>,
}

impl ServerSimReport {
    /// True when the run satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Keys 0..32 are private (8 per connection — read-your-writes value
/// equality is checkable there); 32..40 are a shared hot zone where
/// connections fight over locks and only freshness is checkable.
const KEYS: u64 = 40;
const PRIVATE: u64 = 8;
const HOT_BASE: u64 = 32;
/// The two hot keys a crossing transaction updates, in either order.
const PAIR: [u64; 2] = [HOT_BASE, HOT_BASE + 1];
const RECORD: usize = 16;

fn value_of(conn: u64, op: u64) -> Vec<u8> {
    let mut v = vec![0u8; RECORD];
    v[..8].copy_from_slice(&conn.to_le_bytes());
    v[8..16].copy_from_slice(&op.to_le_bytes());
    v
}

/// Run one seeded server scenario to completion.
pub fn run_server_seed(seed: u64) -> ServerSimReport {
    let mut rng = SeedRng::new(seed.rotate_left(17));
    let protocol = match rng.below(4) {
        0 => CommitProtocol::Baseline,
        1 => CommitProtocol::Elr,
        2 => CommitProtocol::AsyncCommit,
        _ => CommitProtocol::Pipelined,
    };
    let conns = 2 + rng.below(3); // 2..=4 client actors
    let ops = 6 + rng.below(12); // 6..=17 ops each
    let interactive_bias = rng.below(3); // how often ops use begin/commit

    let rt = Runtime::sim(seed);
    let guard = rt.enter();

    let db = Db::open(DbOptions {
        protocol,
        log_config: LogConfig::default().with_runtime(rt.clone()),
        ..DbOptions::default()
    });
    let table = db.create_table(RECORD, KEYS);
    for k in 0..KEYS {
        db.load(table, k, &[0u8; RECORD]).unwrap();
    }
    db.setup_complete();

    let server = Server::start(
        Engine::primary(Arc::clone(&db)),
        ServerConfig {
            runtime: rt.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("in-process server start");

    let mut workers = Vec::new();
    for conn in 0..conns {
        let mut client = Client::new(Box::new(server.connect_chan()));
        let mut rng = SeedRng::new(seed ^ (conn + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        workers.push(rt.spawn(&format!("sim-client-{conn}"), move || {
            let mut acked = 0u64;
            let mut deadlocks = 0u64;
            let mut last_token = 0u64;
            // The last acked value of each private key.
            let mut last_acked = BTreeMap::new();
            let mut violations = Vec::new();
            'ops: for op in 0..ops {
                let first = rng.below(2) as usize;
                let cross = rng.below(4) == 0;
                let hot = cross || rng.below(4) == 0;
                let key = if cross {
                    PAIR[first]
                } else if hot {
                    HOT_BASE + rng.below(KEYS - HOT_BASE)
                } else {
                    conn * PRIVATE + rng.below(PRIVATE)
                };
                let keys: &[u64] = if cross {
                    &[key, PAIR[1 - first]]
                } else {
                    &[key]
                };
                let value = value_of(conn, op);
                // Interactive transaction or auto-commit, seed's choice; a
                // crossing one is always interactive.
                let token = if cross || rng.below(3) <= interactive_bias {
                    let txn = match client.call(&Request::Begin) {
                        Ok(Response::Begun { txn }) => txn,
                        other => {
                            violations.push(format!("conn {conn} op {op}: begin → {other:?}"));
                            continue;
                        }
                    };
                    for &key in keys {
                        match client.call(&Request::Update {
                            txn,
                            table,
                            key,
                            value: value.clone(),
                        }) {
                            Ok(Response::UpdateOk) => {}
                            Ok(Response::Err { code, .. }) if code == ErrCode::Deadlock as u16 => {
                                deadlocks += 1;
                                continue 'ops;
                            }
                            other => {
                                violations.push(format!("conn {conn} op {op}: update → {other:?}"));
                                let _ = client.call(&Request::Abort { txn });
                                continue 'ops;
                            }
                        }
                    }
                    match client.call(&Request::Commit { txn }) {
                        Ok(Response::Committed { token }) => token,
                        other => {
                            violations.push(format!("conn {conn} op {op}: commit → {other:?}"));
                            continue;
                        }
                    }
                } else {
                    match client.call(&Request::Update {
                        txn: 0,
                        table,
                        key,
                        value: value.clone(),
                    }) {
                        Ok(Response::Committed { token }) => token,
                        other => {
                            violations.push(format!("conn {conn} op {op}: autocommit → {other:?}"));
                            continue;
                        }
                    }
                };
                acked += 1;
                if !hot {
                    last_acked.insert(key, value.clone());
                }
                if token < last_token {
                    violations.push(format!(
                        "conn {conn} op {op}: token regressed {token} < {last_token}"
                    ));
                }
                last_token = token;
                // Read-your-writes at the token's freshness floor. On a
                // private key the exact value must come back; on a hot key
                // a later writer may have won, but the serving snapshot
                // must still honor the floor.
                match client.call(&Request::Read {
                    table,
                    key,
                    at_least: token,
                }) {
                    Ok(Response::Value {
                        present,
                        applied,
                        value: v,
                        ..
                    }) => {
                        if !present {
                            violations.push(format!("conn {conn} op {op}: key {key} vanished"));
                        } else if applied < token {
                            violations.push(format!(
                                "conn {conn} op {op}: freshness floor ignored \
                                 ({applied} < {token})"
                            ));
                        } else if !hot && v != value {
                            violations.push(format!(
                                "conn {conn} op {op}: read-your-writes lost key {key}"
                            ));
                        }
                    }
                    other => {
                        violations.push(format!("conn {conn} op {op}: read → {other:?}"));
                    }
                }
            }
            client.close();
            (acked, deadlocks, last_acked, violations)
        }));
    }

    let mut acked = 0u64;
    let mut deadlocks = 0u64;
    let mut violations = Vec::new();
    let mut last_acked = BTreeMap::new();
    for w in workers {
        match w.join() {
            Ok((a, d, last, v)) => {
                acked += a;
                deadlocks += d;
                last_acked.extend(last);
                violations.extend(v);
            }
            Err(_) => violations.push("client actor panicked".into()),
        }
    }
    server.shutdown();

    // Crash with whatever the flushers have not synced yet, and recover.
    match recover(db.crash(), db.options().clone()) {
        Ok(recovered) => {
            let acks_are_durable = protocol != CommitProtocol::AsyncCommit;
            for (key, want) in last_acked.iter().filter(|_| acks_are_durable) {
                if recovered.snapshot_read(table, *key).ok().flatten().as_ref() != Some(want) {
                    violations.push(format!("key {key}: last acked value lost in a crash"));
                }
            }
            recovered.log().shutdown();
        }
        Err(e) => violations.push(format!("recovery after the run failed: {e:?}")),
    }
    let _ = db.log().flush_all();

    // State checksum over the converged table (FNV-1a over key/value).
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..KEYS {
        if let Ok(Some(v)) = db.snapshot_read(table, k) {
            for b in k.to_le_bytes().iter().chain(v.iter()) {
                state ^= u64::from(*b);
                state = state.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    db.log().shutdown();
    let history = rt.history();
    drop(guard);

    ServerSimReport {
        seed,
        acked,
        deadlocks,
        history,
        state,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_passes_and_commits() {
        let r = run_server_seed(7);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.acked > 0);
        assert!(r.history.1 > 0, "sim history must record events");
    }

    /// Seeds 24 and 27 time out when a waiter's edges go to the holders at
    /// enqueue only (neither the waiters ahead nor a republish on release).
    #[test]
    fn crossing_transactions_end_in_victims_not_time_outs() {
        let mut deadlocks = 0;
        for seed in 0..32 {
            let r = run_server_seed(seed);
            assert!(r.ok(), "seed {seed} violations: {:?}", r.violations);
            deadlocks += r.deadlocks;
        }
        assert!(deadlocks >= 1, "no seed in 0..32 crossed");
    }
}
