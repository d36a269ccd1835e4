//! The serving loop: an epoll-style readiness poll over every connection.
//!
//! One IO thread owns all sockets. Each pass it (1) adopts newly accepted
//! connections, (2) appends readable bytes to each connection's
//! accumulator and parses complete frames out of it, reserving a response
//! slot per request and handing the request to the connection's executor,
//! (3) writes each connection's completed response prefix back to its
//! socket. When a pass moves no bytes the loop sleeps for the *batch
//! window*, which bounds how long a request or a completed response waits
//! for the next pass and how many acks leave in one write. It does not pace
//! the log: the flush daemon starts on a commit as soon as it is idle, and
//! the commits that arrive during that flush share the next one.
//!
//! All threads are spawned through the runtime seam, and the loop's only
//! time source is `runtime::sleep`, so the same code serves real TCP
//! traffic and deterministic in-process [`chan_pair`] traffic under
//! [`Runtime::sim`](aether_core::runtime::Runtime::sim).

use crate::conn::{exec_loop, Engine, ExecMsg, RespQueue};
use crate::protocol::{extract_request, Extracted};
use crate::stream::{chan_pair, ByteStream, ChanByteStream, ReadOutcome, TcpByteStream};
use aether_core::runtime::{self, rt_channel, JoinHandle, RtReceiver, RtSender, Runtime};
use aether_core::telemetry::{CounterId, HistId, Telemetry, Unit};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server construction options.
#[derive(Clone)]
pub struct ServerConfig {
    /// Runtime to spawn under (sim for deterministic runs).
    pub runtime: Runtime,
    /// TCP listen address (`None`: in-process connections only).
    pub addr: Option<SocketAddr>,
    /// Idle-pass sleep of the IO loop: the longest a request or a completed
    /// response waits for the next pass.
    pub batch_window: Duration,
    /// Acceptor poll interval.
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

struct Shared {
    engine: Engine,
    cfg: ServerConfig,
    tel: Arc<Telemetry>,
    ids: ServerTel,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    conn_tx: RtSender<Box<dyn ByteStream>>,
}

/// A running server. Dropping without [`Server::shutdown`] leaks threads;
/// call shutdown.
pub struct Server {
    sh: Arc<Shared>,
    io: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Server {
    /// Start serving `engine` per `cfg`.
    pub fn start(engine: Engine, cfg: ServerConfig) -> io::Result<Server> {
        let tel = Arc::clone(engine.db.log().telemetry());
        let ids = ServerTel::register(&tel);
        let (conn_tx, conn_rx) = rt_channel::<Box<dyn ByteStream>>();
        let listener = match cfg.addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let local_addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let sh = Arc::new(Shared {
            engine,
            cfg,
            tel,
            ids,
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            conn_tx,
        });
        let io = {
            let sh = Arc::clone(&sh);
            sh.cfg
                .runtime
                .clone()
                .spawn("server-io", move || io_loop(sh, conn_rx))
        };
        let acceptor = listener.map(|l| {
            let sh = Arc::clone(&sh);
            sh.cfg
                .runtime
                .clone()
                .spawn("server-accept", move || accept_loop(sh, l))
        });
        Ok(Server {
            sh,
            io: Some(io),
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
        let (client, server_end) = chan_pair();
        self.sh.conn_tx.send(Box::new(server_end));
        client
    }

    /// Stop accepting, close every connection (aborting their open
    /// transactions), and join the serving threads.
    pub fn shutdown(mut self) {
        self.sh.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(sh: Arc<Shared>, listener: TcpListener) {
    while !sh.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, _peer)) => match TcpByteStream::new(sock) {
                Ok(s) => {
                    sh.conn_tx.send(Box::new(s));
                }
                Err(_) => continue,
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                runtime::sleep(sh.cfg.accept_window);
            }
            Err(_) => runtime::sleep(sh.cfg.accept_window),
        }
    }
}

struct ConnEntry {
    stream: Box<dyn ByteStream>,
    inbuf: Vec<u8>,
    exec_tx: RtSender<ExecMsg>,
    exec: Option<JoinHandle<()>>,
    resp: Arc<RespQueue>,
    dead: bool,
}

fn io_loop(sh: Arc<Shared>, conn_rx: RtReceiver<Box<dyn ByteStream>>) {
    let mut conns: Vec<ConnEntry> = Vec::new();
    let mut zombies: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stopping = sh.stop.load(Ordering::SeqCst);
        // Adopt new connections.
        while let Some(stream) = conn_rx.try_recv() {
            if stopping {
                // Refuse: drop the server end; the client sees Closed.
                continue;
            }
            conns.push(adopt(&sh, stream));
        }
        if stopping {
            break;
        }

        let mut progressed = false;
        for c in conns.iter_mut() {
            progressed |= pump_reads(&sh, c);
            progressed |= pump_writes(&sh, c);
        }

        // Reap connections that died this pass.
        if conns.iter().any(|c| c.dead) {
            for c in conns.iter_mut().filter(|c| c.dead) {
                retire(&sh, c, &mut zombies);
            }
            conns.retain(|c| !c.dead);
            progressed = true;
        }

        if progressed {
            // Stay fair under sim: hand the token over between passes.
            runtime::yield_now();
        } else {
            runtime::sleep(sh.cfg.batch_window);
        }
    }

    // Shutdown: tear every connection down, then join the executors. The
    // executors abort whatever was still open, so no lock outlives the
    // server (the shutdown-race regression test pins this).
    for c in conns.iter_mut() {
        retire(&sh, c, &mut zombies);
    }
    conns.clear();
    for z in zombies {
        let _ = z.join();
    }
}

fn adopt(sh: &Arc<Shared>, stream: Box<dyn ByteStream>) -> ConnEntry {
    let id = sh.conn_seq.fetch_add(1, Ordering::Relaxed);
    let resp = Arc::new(RespQueue::new(Arc::clone(&sh.tel), sh.ids.req_ns));
    let (exec_tx, exec_rx) = rt_channel::<ExecMsg>();
    let exec = {
        let engine = sh.engine.clone();
        let resp = Arc::clone(&resp);
        let watermark = Arc::new(AtomicU64::new(0));
        let tel = Arc::clone(&sh.tel);
        let close_aborts = sh.ids.close_aborts;
        sh.cfg
            .runtime
            .clone()
            .spawn(&format!("server-exec-{id}"), move || {
                exec_loop(engine, exec_rx, resp, watermark, tel, close_aborts)
            })
    };
    sh.tel.inc(sh.ids.conns_opened);
    ConnEntry {
        stream,
        inbuf: Vec::new(),
        exec_tx,
        exec: Some(exec),
        resp,
        dead: false,
    }
}

/// Read available bytes and dispatch every complete frame. Returns whether
/// anything moved.
fn pump_reads(sh: &Arc<Shared>, c: &mut ConnEntry) -> bool {
    if c.dead {
        return false;
    }
    let mut moved = false;
    match c.stream.read_some(&mut c.inbuf) {
        Ok(ReadOutcome::Bytes(_)) => {
            moved = true;
            loop {
                match extract_request(&mut c.inbuf) {
                    Extracted::Msg { req_id, msg } => {
                        sh.tel.inc(sh.ids.requests);
                        let seq = c.resp.reserve(req_id);
                        if !c.exec_tx.send(ExecMsg::Req {
                            seq,
                            req_id,
                            req: msg,
                        }) {
                            c.dead = true;
                            break;
                        }
                    }
                    Extracted::NeedMore => break,
                    Extracted::Corrupt => {
                        // Unrecoverable framing damage: the length prefix
                        // needed to skip the bad frame is itself suspect.
                        // Drop the connection; the executor aborts its
                        // open transactions on the way out.
                        sh.tel.inc(sh.ids.corrupt_frames);
                        c.dead = true;
                        break;
                    }
                }
            }
        }
        Ok(ReadOutcome::WouldBlock) => {}
        Ok(ReadOutcome::Closed) | Err(_) => c.dead = true,
    }
    moved
}

/// Write the completed response prefix. Returns whether anything moved.
fn pump_writes(sh: &Arc<Shared>, c: &mut ConnEntry) -> bool {
    let ready = c.resp.pop_ready();
    if ready.is_empty() {
        return false;
    }
    sh.tel.record(sh.ids.ack_batch, ready.len() as u64);
    for (req_id, resp) in ready {
        if c.dead {
            break;
        }
        sh.tel.inc(sh.ids.responses);
        let bytes = resp.encode(req_id);
        if c.stream.write_all(&bytes).is_err() {
            c.dead = true;
        }
    }
    true
}

/// Close a connection's socket and signal its executor; the join is
/// deferred (the executor may be sitting in a lock wait, and the IO loop
/// must never block behind one connection).
fn retire(sh: &Arc<Shared>, c: &mut ConnEntry, zombies: &mut Vec<JoinHandle<()>>) {
    c.stream.close();
    c.exec_tx.send(ExecMsg::Close);
    if let Some(h) = c.exec.take() {
        zombies.push(h);
    }
    sh.tel.inc(sh.ids.conns_closed);
}
