//! Per-connection state: the ordered response queue and request execution.
//!
//! Each connection is served by two threads ([`crate::server`]). The
//! *connection thread* reads frames off the socket and executes each request
//! in place, in arrival order, against the engine; a statement blocked on a
//! row lock stalls only its own connection. Consecutive auto-commits of one
//! read run as one ([`Db::update_commit_run`]): one log reservation, one
//! commit tail and one lock of the response queue serve the run. The
//! *writer thread* parks on the [`RespQueue`] until the front slot is filled
//! and writes the responses.
//!
//! Pipelining without reordering: only the connection thread reserves
//! [`RespQueue`] slots, one per request, in request order — before
//! executing a request, and for a run of auto-commits once it has run —
//! so slot order is request order. Fast statements, and commits under the blocking
//! protocols, fulfill their slot synchronously. A pipelined commit's slot is
//! filled by the queue's subscription to the log's durable watermark: the
//! queue is the connection's [`Subscriber`], and the flush that hardens the
//! connection's in-flight commits answers them all in one call, under one
//! lock, with one wake of the writer. The writer only ever writes the
//! queue's *completed prefix*, so responses leave the socket in request
//! order (invariant 10) and a commit is never acked before it is durable.

use crate::dedup::{Claim, CommitDedup};
use crate::protocol::{ErrCode, Request, Response};
use aether_core::commit::{CommitPipeline, LowMark, Subscriber};
use aether_core::lsn::Lsn;
use aether_core::record::crc32;
use aether_core::runtime::{lock, WaitSet};
use aether_core::telemetry::{HistId, Telemetry, Unit};
use aether_storage::{
    CommitOutcome, CommitToken, Db, StorageError, StorageResult, Transaction, RUN_MAX,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// What the server executes against: the primary database. Replica reads
/// are `aether-repl`'s `ReadRouter`, a tier of their own.
#[derive(Clone)]
pub struct Engine {
    /// The primary.
    pub db: Arc<Db>,
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
            dedup: Arc::new(CommitDedup::new(DEDUP_WINDOW)),
        }
    }
}

struct Slot {
    req_id: u64,
    t0: Option<u64>,
    resp: Option<Response>,
}

/// A commit whose slot waits for the log's watermark.
struct PendingCommit {
    /// End of its commit record: its token once durable.
    lsn: Lsn,
    seq: u64,
    /// The dedup id to settle, for an idempotent auto-commit.
    dedup: Option<u64>,
    /// Commit entry, for `db.commit_latency_ns`.
    t0: Option<u64>,
}

struct RespInner {
    slots: VecDeque<Slot>,
    /// Sequence of `slots[0]`.
    front: u64,
    /// Next sequence to hand out.
    next: u64,
    /// The connection is gone: the writer stops.
    closed: bool,
    /// Commits awaiting the watermark, in LSN order: the connection thread
    /// commits one at a time, in log order.
    commits: VecDeque<PendingCommit>,
}

/// The connection's ordered response queue (see module docs), and its
/// subscription to the log's durable watermark.
pub(crate) struct RespQueue {
    inner: Mutex<RespInner>,
    /// The lowest LSN in `commits`, published for the flushers.
    low: LowMark,
    /// The writer, parked until the front slot is filled or the queue closes.
    ready: WaitSet,
    dedup: Arc<CommitDedup>,
    tel: Arc<Telemetry>,
    req_ns: HistId,
    commit_ns: HistId,
}

impl RespQueue {
    pub(crate) fn new(tel: Arc<Telemetry>, req_ns: HistId, dedup: Arc<CommitDedup>) -> RespQueue {
        RespQueue {
            inner: Mutex::new(RespInner {
                slots: VecDeque::new(),
                front: 0,
                next: 0,
                closed: false,
                commits: VecDeque::new(),
            }),
            low: LowMark::default(),
            ready: WaitSet::new(),
            dedup,
            commit_ns: tel.histogram("db.commit_latency_ns", Unit::Nanos),
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

    /// Put `resp` in slot `seq`; whether it is the front slot. Every slot is
    /// filled exactly once, but one already popped (the connection died) is
    /// ignored.
    fn fill(&self, g: &mut RespInner, seq: u64, resp: Response, now: Option<u64>) -> bool {
        if seq < g.front {
            return false;
        }
        let idx = (seq - g.front) as usize;
        if let Some(slot) = g.slots.get_mut(idx) {
            if let (Some(t0), Some(now)) = (slot.t0.take(), now) {
                self.tel.record(self.req_ns, now.saturating_sub(t0));
            }
            slot.resp = Some(resp);
        }
        idx == 0
    }

    /// Fill slot `seq`, waking the writer if it is the front one.
    pub(crate) fn fulfill(&self, seq: u64, resp: Response) {
        let now = self.tel.ts();
        let front = self.fill(&mut lock(&self.inner), seq, resp, now);
        // The slot is published under `inner`, which the writer's look takes
        // too: that orders it before the waiter count `notify` reads.
        if front {
            self.ready.notify();
        }
    }

    /// Answer slot `seq` once the log's watermark reaches `lsn`, the end of
    /// a commit record: publish the commit, then look (see
    /// [`CommitPipeline::watch`]).
    fn await_commit(&self, log: &CommitPipeline, seq: u64, lsn: Lsn, t0: Option<u64>) {
        {
            let mut g = lock(&self.inner);
            g.commits.push_back(PendingCommit {
                lsn,
                seq,
                dedup: None,
                t0,
            });
            if g.commits.len() == 1 {
                self.low.set(Some(lsn));
            }
        }
        log.watch(self, lsn);
    }

    /// Reserve the next slots for the run of auto-commits `ids` (requests
    /// received at `t0`) and answer them by their outcomes `out`, under one
    /// lock: a pending commit (its commit stage began at `t_commit`) is
    /// published for the watermark, anything else is answered now. Each
    /// dedup entry settles before its ack. Then one look at the watermark
    /// at the run's first pending LSN answers whatever a flush hardened
    /// before the run was published ([`CommitPipeline::watch_commits`]).
    fn answer_run(
        &self,
        log: &CommitPipeline,
        ids: &[u64],
        out: &[StorageResult<CommitToken>],
        pending: bool,
        t0: Option<u64>,
        t_commit: Option<u64>,
    ) {
        let now = self.tel.ts();
        let (mut first, mut waiting, mut front) = (None, 0, false);
        {
            let mut g = lock(&self.inner);
            let was_idle = g.commits.is_empty();
            for (&req_id, done) in ids.iter().zip(out) {
                let seq = g.next;
                g.next += 1;
                g.slots.push_back(Slot {
                    req_id,
                    t0,
                    resp: None,
                });
                let resp = match done {
                    Ok(token) if pending => {
                        g.commits.push_back(PendingCommit {
                            lsn: token.lsn(),
                            seq,
                            dedup: Some(req_id),
                            t0: t_commit,
                        });
                        first.get_or_insert(token.lsn());
                        waiting += 1;
                        continue;
                    }
                    Ok(token) => {
                        let token = token.lsn().raw();
                        self.dedup.complete(req_id, token);
                        Response::Committed { token }
                    }
                    Err(e) => {
                        self.dedup.forget(req_id);
                        err_of(e)
                    }
                };
                front |= self.fill(&mut g, seq, resp, now);
            }
            if was_idle && first.is_some() {
                self.low.set(first);
            }
        }
        if front {
            self.ready.notify();
        }
        if let Some(lsn) = first {
            log.watch_commits(self, lsn, waiting);
        }
    }

    /// Park until the front slot is filled, then move the completed prefix
    /// into `out` (cleared first): `(req_id, response)` pairs in request
    /// order. `false` once closed.
    pub(crate) fn next_ready(&self, out: &mut Vec<(u64, Response)>) -> bool {
        out.clear();
        self.ready
            .wait_until(None, || {
                let mut g = lock(&self.inner);
                if g.closed {
                    return Some(false);
                }
                while matches!(g.slots.front(), Some(s) if s.resp.is_some()) {
                    let s = g.slots.pop_front().expect("front checked");
                    g.front += 1;
                    out.push((s.req_id, s.resp.expect("resp checked")));
                }
                (!out.is_empty()).then_some(true)
            })
            .unwrap_or(false)
    }

    /// Stop the writer; responses still queued are dropped with the socket.
    /// Commits still pending keep the queue subscribed until they resolve,
    /// so their dedup entries settle.
    pub(crate) fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify();
    }
}

impl Subscriber for RespQueue {
    fn low(&self) -> Lsn {
        self.low.get()
    }

    /// Answer the ready prefix of the pending commits: settle each dedup
    /// entry *before* its ack (once the client sees `Committed`, a duplicate
    /// must replay), and wake the writer once.
    fn resolve(&self, upto: Lsn, fail_rest: bool, each: &mut dyn FnMut(Lsn, bool)) {
        let now = self.tel.ts();
        let mut g = lock(&self.inner);
        let mut front = false;
        while let Some(c) = g.commits.front() {
            let durable = c.lsn <= upto;
            if !durable && !fail_rest {
                break;
            }
            let c = g.commits.pop_front().expect("front checked");
            each(c.lsn, durable);
            if let (Some(t0), Some(now)) = (c.t0, now) {
                self.tel.record(self.commit_ns, now.saturating_sub(t0));
            }
            let resp = if durable {
                let token = c.lsn.raw();
                if let Some(id) = c.dedup {
                    self.dedup.complete(id, token);
                }
                Response::Committed { token }
            } else {
                // The commit never hardened (log poisoned or shut down):
                // the client gets a typed protocol error, not a dropped
                // connection.
                if let Some(id) = c.dedup {
                    self.dedup.forget(id);
                }
                err_of(&StorageError::Log(aether_core::AetherError::Poisoned {
                    reason: "log poisoned before commit hardened".into(),
                }))
            };
            front |= self.fill(&mut g, c.seq, resp, now);
        }
        self.low.set(g.commits.front().map(|c| c.lsn));
        drop(g);
        if front {
            self.ready.notify();
        }
    }

    fn retired(&self) -> bool {
        let g = lock(&self.inner);
        g.closed && g.commits.is_empty()
    }
}

fn err_of(e: &StorageError) -> Response {
    Response::Err {
        code: ErrCode::of(e) as u16,
        msg: e.to_string(),
    }
}

/// Execute one read's requests in arrival order: each run of auto-commits
/// as one ([`exec_run`]), every other request alone.
pub(crate) fn exec_batch(
    engine: &Engine,
    resp: &RespQueue,
    open: &mut BTreeMap<u64, Transaction>,
    batch: &[(u64, Request)],
) {
    let (mut at, mut claimed) = (0, 0);
    while at < batch.len() {
        let (req_id, req) = &batch[at];
        if let Request::Update { txn: 0, .. } = req {
            let (done, left) = exec_run(engine, resp, &batch[at..], claimed);
            (at, claimed) = (at + done, left);
        } else {
            debug_assert_eq!(claimed, 0, "a run left claims behind");
            let seq = resp.reserve(*req_id);
            exec_one(engine, resp, open, seq, req);
            at += 1;
        }
    }
}

/// Execute the run of auto-commits at the front of `batch` — the
/// `Update { txn: 0 }` requests there on one table, at most [`RUN_MAX`] —
/// with one [`Db::update_commit_run`]: one log reservation, one commit tail,
/// then one lock of the response queue for their slots and pending commits
/// ([`RespQueue::answer_run`]). The first `claimed` of them were claimed in
/// the dedup window by the run before, which did not get to them. Returns
/// how many requests it answered, and how many after those it claimed
/// without running.
///
/// Exactly-once for retrying clients: a nonce-tagged request id is checked
/// against the engine's dedup window first, so a retry of an
/// already-hardened commit replays the original token instead of
/// re-executing; a retry still in flight ends the run before it.
fn exec_run(
    engine: &Engine,
    resp: &RespQueue,
    batch: &[(u64, Request)],
    claimed: usize,
) -> (usize, usize) {
    let t0 = resp.tel.ts();
    let mut ids = [0u64; RUN_MAX];
    let mut items: [(u64, &[u8]); RUN_MAX] = [(0, &[]); RUN_MAX];
    let (mut n, mut run_table) = (0, None);
    for (i, (req_id, req)) in batch.iter().take(RUN_MAX).enumerate() {
        let &Request::Update {
            txn: 0,
            table,
            key,
            ref value,
        } = req
        else {
            break;
        };
        if run_table.is_some_and(|t| t != table) {
            break;
        }
        let claim = match i < claimed {
            true => Claim::New,
            false => engine.dedup.claim(*req_id),
        };
        let answer = match claim {
            Claim::New => None,
            _ if n > 0 => break,
            Claim::Done(token) => Some(Response::Committed { token }),
            Claim::InFlight => Some(Response::Err {
                code: ErrCode::Busy as u16,
                msg: format!("request {req_id} is still executing"),
            }),
        };
        if let Some(answer) = answer {
            let seq = resp.reserve(*req_id);
            resp.fulfill(seq, answer);
            return (1, 0);
        }
        run_table = Some(table);
        ids[n] = *req_id;
        items[n] = (key, value);
        n += 1;
    }
    let db = &engine.db;
    let mut out: [StorageResult<CommitToken>; RUN_MAX] =
        std::array::from_fn(|_| Ok(CommitToken::ZERO));
    let table = run_table.expect("a run starts with an auto-commit");
    let run = db.update_commit_run(table, &items[..n], &mut out);
    // Their commit stage begins once their records are in the log.
    let t_commit = db.log().telemetry().ts();
    resp.answer_run(
        db.log().pipeline(),
        &ids[..run.done],
        &out[..run.done],
        run.pending,
        t0,
        t_commit,
    );
    (run.done, n - run.done)
}

/// Execute one request other than an auto-commit, whose response slot
/// `seq` is already reserved.
fn exec_one(
    engine: &Engine,
    resp: &RespQueue,
    open: &mut BTreeMap<u64, Transaction>,
    seq: u64,
    req: &Request,
) {
    let db = &engine.db;
    match *req {
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
        // The primary meets any `at_least`: a token is acked only once it is
        // durable, so every token a client holds is already readable here.
        // The value is committed, never an open transaction's write; it can
        // be a pre-committed one not yet durable (ROADMAP item 1).
        Request::Read { table, key, .. } => match db.snapshot_read(table, key) {
            Ok(value) => resp.fulfill(
                seq,
                Response::Value {
                    present: value.is_some(),
                    applied: db.log().durable_lsn().raw(),
                    from_replica: false,
                    value: value.unwrap_or_default(),
                },
            ),
            Err(e) => resp.fulfill(seq, err_of(&e)),
        },
        Request::Scan {
            table,
            start,
            count,
        } => {
            // Analytical scan, pinned to the primary: it sees committed
            // rows only, never an open transaction's write, but under ELR
            // those include early-released (pre-durability) commits — the
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
            txn,
            table,
            key,
            ref value,
        } => match open.get_mut(&txn) {
            Some(t) => match db.update(t, table, key, value) {
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
            Some(t) => {
                let t0 = db.log().telemetry().ts();
                answer_commit(db, resp, seq, t0, db.commit(t));
            }
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

/// Answer slot `seq` with the outcome `done` of an interactive commit begun
/// at `t0`: at once under the blocking protocols (the commit is durable
/// when the call returns; an unreplicated one is answered `Committed`
/// too), and from the queue's subscription once it is durable under the
/// asynchronous ones. Every outcome, errors included, is answered exactly
/// once.
fn answer_commit(
    db: &Db,
    resp: &RespQueue,
    seq: u64,
    t0: Option<u64>,
    done: StorageResult<CommitOutcome>,
) {
    match done {
        Ok(out @ (CommitOutcome::Pipelined(_) | CommitOutcome::Unsafe(_))) => {
            resp.await_commit(db.log().pipeline(), seq, out.token().lsn(), t0)
        }
        Ok(out @ (CommitOutcome::Durable(_) | CommitOutcome::Unreplicated(_))) => resp.fulfill(
            seq,
            Response::Committed {
                token: out.token().lsn().raw(),
            },
        ),
        Err(e) => resp.fulfill(seq, err_of(&e)),
    }
}

fn no_such_txn(txn: u64) -> Response {
    Response::Err {
        code: ErrCode::NoSuchTxn as u16,
        msg: format!("no open transaction {txn}"),
    }
}
