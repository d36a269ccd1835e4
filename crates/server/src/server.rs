//! The serving threads: two per connection, each parked on what it waits
//! for, and an acceptor.
//!
//! * The *connection thread* blocks in [`ByteStream::read`]. It decodes
//!   every complete frame of a read, then executes the requests in place,
//!   in order, each in a response slot of its own; a run of auto-commits
//!   executes as one (`conn.rs`).
//! * The *writer thread* parks on the connection's response queue. Whenever
//!   the front slot is filled it encodes the whole completed prefix into one
//!   buffer and writes it with one call, not one per response. A client that
//!   stops reading blocks only its own writer.
//! * The *acceptor* blocks in `accept`.
//!
//! No thread polls or sleeps: a request is executed as soon as its bytes
//! arrive, and a response leaves as soon as it and everything before it is
//! complete. [`Server::shutdown`] ends each blocked read from outside — a
//! `shutdown(Both)` on TCP, an end-of-stream chunk the server sends itself
//! on the in-process pipe — and joins every thread.
//!
//! All threads are spawned through the runtime seam, so the same code
//! serves real TCP traffic and deterministic in-process [`chan_pair`]
//! traffic under [`Runtime::sim`](aether_core::runtime::Runtime::sim).
//!
//! [`chan_pair`]: crate::stream::chan_pair

use crate::conn::{exec_batch, Engine, RespQueue};
use crate::protocol::{request_at, Extracted};
use crate::stream::{
    chan_conn, ByteStream, ChanByteStream, Closer, Halves, ReadOutcome, TcpByteStream,
};
use aether_core::runtime::{self, lock, JoinHandle, Runtime};
use aether_core::telemetry::{CounterId, HistId, Telemetry, Unit};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server construction options.
#[derive(Clone)]
pub struct ServerConfig {
    /// Runtime to spawn under (sim for deterministic runs).
    pub runtime: Runtime,
    /// TCP listen address (`None`: in-process connections only).
    pub addr: Option<SocketAddr>,
    /// No longer read: the server does not poll. Kept for callers that
    /// still print it.
    pub batch_window: Duration,
    /// No longer read: the acceptor blocks in `accept`. Kept for callers
    /// that still print it.
    pub accept_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            runtime: Runtime::real(),
            addr: None,
            batch_window: Duration::from_micros(50),
            accept_window: Duration::from_micros(200),
        }
    }
}

/// `server.*` metric ids, registered on the engine's telemetry.
#[derive(Clone, Copy)]
struct ServerTel {
    conns_opened: CounterId,
    conns_closed: CounterId,
    requests: CounterId,
    responses: CounterId,
    corrupt_frames: CounterId,
    close_aborts: CounterId,
    ack_batch: HistId,
    req_ns: HistId,
}

impl ServerTel {
    fn register(t: &Arc<Telemetry>) -> ServerTel {
        ServerTel {
            conns_opened: t.counter("server.conns_opened", Unit::Count),
            conns_closed: t.counter("server.conns_closed", Unit::Count),
            requests: t.counter("server.requests", Unit::Count),
            responses: t.counter("server.responses", Unit::Count),
            corrupt_frames: t.counter("server.corrupt_frames", Unit::Count),
            close_aborts: t.counter("server.close_aborts", Unit::Count),
            ack_batch: t.histogram("server.ack_batch", Unit::Count),
            req_ns: t.histogram("server.req_ns", Unit::Nanos),
        }
    }
}

/// A connection as the server keeps it: a way to end it and its thread.
struct Conn {
    closer: Closer,
    thread: JoinHandle<()>,
    /// Set as the thread's last act: the join will not block.
    done: Arc<AtomicBool>,
}

struct Shared {
    engine: Engine,
    cfg: ServerConfig,
    tel: Arc<Telemetry>,
    ids: ServerTel,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    conns: Mutex<Vec<Conn>>,
}

/// A running server. Dropping without [`Server::shutdown`] leaks threads;
/// call shutdown.
pub struct Server {
    sh: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Server {
    /// Start serving `engine` per `cfg`.
    pub fn start(engine: Engine, cfg: ServerConfig) -> io::Result<Server> {
        let tel = Arc::clone(engine.db.log().telemetry());
        let ids = ServerTel::register(&tel);
        let listener = cfg.addr.map(TcpListener::bind).transpose()?;
        let local_addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let sh = Arc::new(Shared {
            engine,
            cfg,
            tel,
            ids,
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = listener.map(|l| {
            let sh = Arc::clone(&sh);
            sh.cfg
                .runtime
                .clone()
                .spawn("server-accept", move || accept_loop(sh, l))
        });
        Ok(Server {
            sh,
            acceptor,
            local_addr,
        })
    }

    /// The bound TCP address (None when serving in-process only).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Open an in-process connection; returns the client end. Works on any
    /// runtime and is the only connection path under sim.
    pub fn connect_chan(&self) -> ChanByteStream {
        let (client, halves) = chan_conn();
        open(&self.sh, halves);
        client
    }

    /// Stop accepting, close every connection (aborting their open
    /// transactions), and join the serving threads.
    pub fn shutdown(mut self) {
        self.sh.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            // One connection to ourselves wakes `accept` to see `stop`.
            if let Some(addr) = self.local_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *lock(&self.sh.conns));
        for c in &conns {
            c.closer.close();
        }
        for c in conns {
            let _ = c.thread.join();
        }
    }
}

fn accept_loop(sh: Arc<Shared>, listener: TcpListener) {
    for sock in listener.incoming() {
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
        match sock.and_then(TcpByteStream::halves) {
            Ok(halves) => open(&sh, halves),
            // Out of descriptors or a connection reset before accept.
            Err(_) => runtime::yield_now(),
        }
    }
}

/// Start serving one connection, unless the server is stopping (then the
/// halves are dropped and the client sees `Closed`). Joins the threads of
/// connections that have ended since the last call and drops their
/// closers, each of which holds a TCP socket open.
fn open(sh: &Arc<Shared>, halves: Halves) {
    let ended = {
        let mut conns = lock(&sh.conns);
        if sh.stop.load(Ordering::SeqCst) {
            return;
        }
        let id = sh.conn_seq.fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(AtomicBool::new(false));
        let thread = {
            let (sh, done) = (Arc::clone(sh), Arc::clone(&done));
            let Halves { input, output, .. } = halves;
            sh.cfg
                .runtime
                .clone()
                .spawn(&format!("server-conn-{id}"), move || {
                    serve(&sh, id, input, output);
                    done.store(true, Ordering::Release);
                })
        };
        sh.tel.inc(sh.ids.conns_opened);
        let (ended, live) = std::mem::take(&mut *conns)
            .into_iter()
            .partition(|c: &Conn| c.done.load(Ordering::Acquire));
        *conns = live;
        conns.push(Conn {
            closer: halves.closer,
            thread,
            done,
        });
        ended
    };
    for c in ended {
        let _ = c.thread.join();
    }
}

/// The connection thread: spawn the writer, then read and execute requests
/// until the peer closes, a frame is corrupt or the server stops; then roll
/// back what is still open and join the writer.
fn serve(sh: &Shared, id: u64, mut input: Box<dyn ByteStream>, output: Box<dyn ByteStream>) {
    let resp = Arc::new(RespQueue::new(
        Arc::clone(&sh.tel),
        sh.ids.req_ns,
        Arc::clone(&sh.engine.dedup),
    ));
    let log = sh.engine.db.log().pipeline();
    log.subscribe(resp.clone());
    let writer = {
        let resp = Arc::clone(&resp);
        let (tel, ids) = (Arc::clone(&sh.tel), sh.ids);
        sh.cfg
            .runtime
            .spawn(&format!("server-write-{id}"), move || {
                write_responses(&resp, output, &tel, ids)
            })
    };
    // Open interactive transactions, keyed by wire txn id. BTreeMap so the
    // teardown abort sweep is ordered — identical across sim replays.
    let mut open = BTreeMap::new();
    let mut inbuf = Vec::new();
    // The requests one read completed, decoded before any runs.
    let mut batch = Vec::new();
    while matches!(input.read(&mut inbuf), Ok(ReadOutcome::Bytes(_)))
        && !sh.stop.load(Ordering::SeqCst)
    {
        let mut at = 0;
        let corrupt = loop {
            match request_at(&inbuf, &mut at) {
                Extracted::Msg { req_id, msg } => batch.push((req_id, msg)),
                Extracted::NeedMore => break false,
                // Unrecoverable framing damage: the length prefix needed
                // to skip the bad frame is itself suspect.
                Extracted::Corrupt => break true,
            }
        };
        sh.tel.add(sh.ids.requests, batch.len() as u64);
        exec_batch(&sh.engine, &resp, &mut open, &batch);
        batch.clear();
        inbuf.drain(..at);
        if corrupt {
            sh.tel.inc(sh.ids.corrupt_frames);
            break;
        }
    }
    input.close();
    resp.close();
    sh.tel.add(sh.ids.close_aborts, open.len() as u64);
    for (_, txn) in open {
        let _ = sh.engine.db.abort(txn);
    }
    let _ = writer.join();
    // A queue with commits still pending stays subscribed until they
    // resolve; the walk that resolves the last one drops it.
    log.prune();
    sh.tel.inc(sh.ids.conns_closed);
}

/// The writer thread: each time the front slot is filled, write the whole
/// completed prefix in one call, reusing one batch and one byte buffer.
/// Closes `output` on the way out.
fn write_responses(
    resp: &RespQueue,
    mut output: Box<dyn ByteStream>,
    tel: &Telemetry,
    ids: ServerTel,
) {
    let mut bytes = Vec::new();
    let mut ready = Vec::new();
    while resp.next_ready(&mut ready) {
        bytes.clear();
        for (req_id, r) in &ready {
            r.encode_into(*req_id, &mut bytes);
        }
        tel.record(ids.ack_batch, ready.len() as u64);
        tel.add(ids.responses, ready.len() as u64);
        if output.write_all(&bytes).is_err() {
            break;
        }
    }
    output.close();
}
