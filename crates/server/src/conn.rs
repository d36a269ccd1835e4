//! Per-connection state: the ordered response queue and request execution.
//!
//! Each connection is served by two threads ([`crate::server`]). The
//! *connection thread* reads frames off the socket and executes each request
//! in place, in arrival order, against the engine; a statement blocked on a
//! row lock stalls only its own connection. The *writer thread* parks on the
//! [`RespQueue`] until the front slot is filled and writes the responses.
//!
//! Pipelining without reordering: the connection thread reserves one
//! [`RespQueue`] slot per request *before* executing it, so slot order is
//! request order. Fast statements fulfill their slot synchronously; commits
//! fulfill theirs from the durability callback, which the group-commit gate
//! fires off the single flush that hardens the whole in-flight batch. The
//! writer only ever writes the queue's *completed prefix*, so responses
//! leave the socket in request order (invariant 10) and a commit is never
//! acked before it is durable.

use crate::dedup::{Claim, CommitDedup};
use crate::protocol::{ErrCode, Request, Response};
use aether_core::commit::CommitToken;
use aether_core::lsn::Lsn;
use aether_core::record::crc32;
use aether_core::runtime::{self, lock, WaitSet};
use aether_core::telemetry::{HistId, Telemetry};
use aether_repl::router::ReadRouter;
use aether_repl::SourceKind;
use aether_storage::{Db, StorageError, Transaction};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the server executes against: the primary database, plus an
/// optional read router when the server fronts a replicated cluster.
#[derive(Clone)]
pub struct Engine {
    /// The primary.
    pub db: Arc<Db>,
    /// Router for snapshot reads (None: serve reads from the primary).
    pub router: Option<Arc<ReadRouter>>,
    /// Engine-wide idempotent-retry window for auto-commit requests
    /// (retries arrive on new connections, so this cannot live per-conn).
    pub dedup: Arc<CommitDedup>,
}

/// Completed auto-commits remembered for client retries; must dwarf any
/// plausible retry horizon (windows × connections).
const DEDUP_WINDOW: usize = 1 << 16;

impl Engine {
    /// An engine serving everything from the primary.
    pub fn primary(db: Arc<Db>) -> Engine {
        Engine {
            db,
            router: None,
            dedup: Arc::new(CommitDedup::new(DEDUP_WINDOW)),
        }
    }

    /// An engine routing reads through `router`.
    pub fn routed(db: Arc<Db>, router: Arc<ReadRouter>) -> Engine {
        Engine {
            db,
            router: Some(router),
            dedup: Arc::new(CommitDedup::new(DEDUP_WINDOW)),
        }
    }
}

struct Slot {
    req_id: u64,
    t0: Option<u64>,
    resp: Option<Response>,
}

struct RespInner {
    slots: VecDeque<Slot>,
    /// Sequence of `slots[0]`.
    front: u64,
    /// Next sequence to hand out.
    next: u64,
    /// The connection is gone: the writer stops.
    closed: bool,
}

/// The connection's ordered response queue (see module docs).
pub(crate) struct RespQueue {
    inner: Mutex<RespInner>,
    /// The writer, parked until the front slot is filled or the queue closes.
    ready: WaitSet,
    tel: Arc<Telemetry>,
    req_ns: HistId,
}

impl RespQueue {
    pub(crate) fn new(tel: Arc<Telemetry>, req_ns: HistId) -> RespQueue {
        RespQueue {
            inner: Mutex::new(RespInner {
                slots: VecDeque::new(),
                front: 0,
                next: 0,
                closed: false,
            }),
            ready: WaitSet::new(),
            tel,
            req_ns,
        }
    }

    /// Reserve the next slot for `req_id`; returns its sequence.
    pub(crate) fn reserve(&self, req_id: u64) -> u64 {
        let mut g = lock(&self.inner);
        let seq = g.next;
        g.next += 1;
        g.slots.push_back(Slot {
            req_id,
            t0: self.tel.ts(),
            resp: None,
        });
        seq
    }

    /// Fill slot `seq`, waking the writer if it is the front one. Every slot
    /// is fulfilled exactly once, but a slot already popped (connection
    /// died) is silently ignored: late durability callbacks outlive sockets.
    pub(crate) fn fulfill(&self, seq: u64, resp: Response) {
        let front = {
            let mut g = lock(&self.inner);
            if seq < g.front {
                return;
            }
            let idx = (seq - g.front) as usize;
            if let Some(slot) = g.slots.get_mut(idx) {
                if let Some(t0) = slot.t0.take() {
                    let dt = runtime::monotonic_ns().saturating_sub(t0);
                    self.tel.record(self.req_ns, dt);
                }
                slot.resp = Some(resp);
            }
            idx == 0
        };
        // The slot is published under `inner`, which the writer's look takes
        // too: that orders it before the waiter count `notify` reads.
        if front {
            self.ready.notify();
        }
    }

    /// Park until the front slot is filled, then pop the completed prefix:
    /// `(req_id, response)` pairs in request order. `None` once closed.
    pub(crate) fn next_ready(&self) -> Option<Vec<(u64, Response)>> {
        self.ready
            .wait_until(None, || {
                let mut g = lock(&self.inner);
                if g.closed {
                    return Some(None);
                }
                let mut out = Vec::new();
                while matches!(g.slots.front(), Some(s) if s.resp.is_some()) {
                    let s = g.slots.pop_front().expect("front checked");
                    g.front += 1;
                    out.push((s.req_id, s.resp.expect("resp checked")));
                }
                (!out.is_empty()).then_some(Some(out))
            })
            .flatten()
    }

    /// Stop the writer; responses still queued are dropped with the socket.
    pub(crate) fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify();
    }
}

fn err_of(e: &StorageError) -> Response {
    Response::Err {
        code: ErrCode::of(e) as u16,
        msg: e.to_string(),
    }
}

/// Execute one request whose response slot `seq` is already reserved.
pub(crate) fn exec_one(
    engine: &Engine,
    resp: &Arc<RespQueue>,
    watermark: &Arc<AtomicU64>,
    open: &mut BTreeMap<u64, Transaction>,
    seq: u64,
    req_id: u64,
    req: Request,
) {
    let db = &engine.db;
    match req {
        Request::Begin => match db.try_begin() {
            Ok(t) => {
                let id = t.id;
                open.insert(id, t);
                resp.fulfill(seq, Response::Begun { txn: id });
            }
            // Admission control shed the begin (disk pressure). The client
            // sees a typed, retryable error response — never a dropped
            // connection.
            Err(e) => resp.fulfill(seq, err_of(&e)),
        },
        Request::Ping => resp.fulfill(seq, Response::Pong),
        Request::Read {
            table,
            key,
            at_least,
        } => {
            // Read-your-writes: the floor is the request's explicit token
            // folded with everything this connection has committed.
            let floor = Lsn(at_least.max(watermark.load(Ordering::Acquire)));
            let r = match &engine.router {
                Some(router) => router
                    .read_at_least(table, key, floor)
                    .map(|r| (r.value, r.applied, !matches!(r.source, SourceKind::Primary))),
                None => db
                    .snapshot_read(table, key)
                    .map(|v| (v, db.log().durable_lsn(), false)),
            };
            match r {
                Ok((value, applied, from_replica)) => resp.fulfill(
                    seq,
                    Response::Value {
                        present: value.is_some(),
                        applied: applied.raw(),
                        from_replica,
                        value: value.unwrap_or_default(),
                    },
                ),
                Err(e) => resp.fulfill(seq, err_of(&e)),
            }
        }
        Request::Scan {
            table,
            start,
            count,
        } => {
            // Analytical scan, pinned to the primary: under ELR the rows it
            // visits include early-released (pre-durability) writes — the
            // scan never blocks behind a committing writer's flush.
            let mut found = 0u32;
            let mut checksum = 0u64;
            let mut failed = None;
            for key in start..start.saturating_add(u64::from(count)) {
                match db.snapshot_read(table, key) {
                    Ok(Some(v)) => {
                        found += 1;
                        let mut seed = [0u8; 8];
                        seed.copy_from_slice(&key.to_le_bytes());
                        checksum ^= (u64::from(crc32(&v)) << 16) ^ u64::from(crc32(&seed));
                    }
                    Ok(None) => {}
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            match failed {
                Some(e) => resp.fulfill(seq, err_of(&e)),
                None => resp.fulfill(seq, Response::ScanDone { found, checksum }),
            }
        }
        Request::Update {
            txn: 0,
            table,
            key,
            value,
        } => {
            // Auto-commit: one statement, one transaction, acked at
            // durability. This is the stream that feeds group commit —
            // every pipelined connection keeps several of these in flight,
            // and one flush completes them all.
            //
            // Exactly-once for retrying clients: a nonce-tagged request id
            // is checked against the engine's dedup window first, so a
            // retry of an already-hardened commit replays the original
            // token instead of re-executing.
            match engine.dedup.claim(req_id) {
                Claim::Done(token) => {
                    watermark.fetch_max(token, Ordering::AcqRel);
                    resp.fulfill(seq, Response::Committed { token });
                    return;
                }
                Claim::InFlight => {
                    resp.fulfill(
                        seq,
                        Response::Err {
                            code: ErrCode::Busy as u16,
                            msg: format!("request {req_id} is still executing"),
                        },
                    );
                    return;
                }
                Claim::New => {}
            }
            let mut t = match db.try_begin() {
                Ok(t) => t,
                Err(e) => {
                    engine.dedup.forget(req_id);
                    resp.fulfill(seq, err_of(&e));
                    return;
                }
            };
            match db.update(&mut t, table, key, &value) {
                Ok(()) => finish_commit(engine, resp, watermark, seq, Some(req_id), t),
                Err(e) => {
                    engine.dedup.forget(req_id);
                    let r = err_of(&e);
                    let _ = db.abort(t);
                    resp.fulfill(seq, r);
                }
            }
        }
        Request::Update {
            txn,
            table,
            key,
            value,
        } => match open.get_mut(&txn) {
            Some(t) => match db.update(t, table, key, &value) {
                Ok(()) => resp.fulfill(seq, Response::UpdateOk),
                Err(e) => {
                    // Statement failure rolls the whole transaction back
                    // (deadlock victims and lock timeouts must release
                    // everything they hold; simpler errors follow suit so
                    // the wire semantics stay uniform).
                    let r = err_of(&e);
                    if let Some(t) = open.remove(&txn) {
                        let _ = db.abort(t);
                    }
                    resp.fulfill(seq, r);
                }
            },
            None => resp.fulfill(seq, no_such_txn(txn)),
        },
        Request::Commit { txn } => match open.remove(&txn) {
            // Interactive commits are not idempotent-retryable (the txn id
            // itself dies with the connection), so no dedup id.
            Some(t) => finish_commit(engine, resp, watermark, seq, None, t),
            None => resp.fulfill(seq, no_such_txn(txn)),
        },
        Request::Abort { txn } => match open.remove(&txn) {
            Some(t) => match db.abort(t) {
                Ok(()) => resp.fulfill(seq, Response::Aborted),
                Err(e) => resp.fulfill(seq, err_of(&e)),
            },
            None => resp.fulfill(seq, no_such_txn(txn)),
        },
    }
}

/// Commit `t`, fulfilling `seq` from the durability callback. The callback
/// is the *only* place the response is produced, for every protocol and
/// every outcome (it runs exactly once, errors included): blocking
/// protocols run it inline, pipelined ones run it from the flush daemon
/// when the gate opens. Folding the token into the
/// connection watermark before fulfilling keeps read-your-writes airtight
/// even though the connection thread has already moved on to the next
/// request.
fn finish_commit(
    engine: &Engine,
    resp: &Arc<RespQueue>,
    watermark: &Arc<AtomicU64>,
    seq: u64,
    dedup_id: Option<u64>,
    t: Transaction,
) {
    let on_durable = {
        let resp = Arc::clone(resp);
        let watermark = Arc::clone(watermark);
        let dedup = Arc::clone(&engine.dedup);
        Box::new(move |r: aether_storage::StorageResult<CommitToken>| {
            match r {
                Ok(token) => {
                    // Settle the dedup entry *before* acking: once the
                    // client sees Committed, any duplicate must replay.
                    if let Some(id) = dedup_id {
                        dedup.complete(id, token.lsn().raw());
                    }
                    watermark.fetch_max(token.lsn().raw(), Ordering::AcqRel);
                    resp.fulfill(
                        seq,
                        Response::Committed {
                            token: token.lsn().raw(),
                        },
                    );
                }
                // The commit never hardened (log poisoned / shut down):
                // the client gets a typed protocol error, not a dropped
                // connection.
                Err(e) => {
                    if let Some(id) = dedup_id {
                        dedup.forget(id);
                    }
                    resp.fulfill(seq, err_of(&e));
                }
            }
        })
    };
    // Any failure has reached the callback too, which answered it.
    let _ = engine.db.commit_tokened_with(t, on_durable);
}

fn no_such_txn(txn: u64) -> Response {
    Response::Err {
        code: ErrCode::NoSuchTxn as u16,
        msg: format!("no open transaction {txn}"),
    }
}
