//! The four wire workloads: an in-process server on TCP loopback, two
//! connections from this process, every ack after the device `sync`.

use crate::measure::{Clock, LaneLog, Shape, LANES};
use crate::ops::{
    canary_key, check_value, generate_stream, initial_value, make_value, ValueInfo, CANARY_EVERY,
    ROWS, STREAM_LEN, TABLE, VALUE_LEN,
};
use crate::rng::{KeyDist, SplitMix64, Zipf};
use crate::spans::{self, Span};
use aether_core::commit::DurabilityPolicy;
use aether_core::runtime::monotonic_ns;
use aether_core::telemetry::TelemetrySnapshot;
use aether_core::DeviceKind;
use aether_repl::{LinkConfig, ReplicatedDb, ReplicationConfig};
use aether_server::{Client, Engine, Request, Response, Server, ServerConfig};
use aether_storage::recovery::{recover_with_stats, RecoveryStats};
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests each closed-loop connection keeps in flight. Two connections
/// make 128, which trips the 64-commit group-commit trigger.
pub const IN_FLIGHT: usize = 64;
/// Warm-up ops per connection, a fixed count so set-up does the same work
/// on every commit.
pub const WARMUP_OPS: u64 = 8192;
/// An open-loop op unanswered this long after its intended send has failed.
pub const ANSWER_DEADLINE: Duration = Duration::from_secs(1);
/// How long an open-loop connection sleeps between polls for answers.
pub const POLL: Duration = Duration::from_micros(50);
/// One-way latency of the replication link.
pub const LINK_US: u64 = 200;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Each connection keeps [`IN_FLIGHT`] requests outstanding.
    Closed,
    /// Each connection sends on a fixed schedule, whatever comes back.
    Open { per_conn_per_s: u64 },
}

/// A wire workload. The values are the workload definitions; they are not
/// options, and nothing reads them from the environment.
#[derive(Debug, Clone)]
pub struct WireSpec {
    pub device: DeviceKind,
    pub pacing: Pacing,
    /// Share of ops that are snapshot reads; the rest are auto-commit updates.
    pub read_share: f64,
    pub zipf: bool,
    /// Replicas attached under `SemiSync(1)` (0: no replication).
    pub replicas: usize,
}

/// The options every wire workload opens its database with: defaults, the
/// pipelined commit protocol, the workload's device. Never `from_env()`.
pub fn db_options(device: DeviceKind) -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Pipelined,
        device,
        ..DbOptions::default()
    }
}

/// The server configuration: defaults plus a loopback listener.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: Some(([127, 0, 0, 1], 0).into()),
        ..ServerConfig::default()
    }
}

pub fn key_dist(spec: &WireSpec) -> KeyDist {
    if spec.zipf {
        KeyDist::Zipf(Zipf::new(ROWS, 0.99))
    } else {
        KeyDist::Uniform(ROWS)
    }
}

/// Pre-built requests of every lane, made once per run from the seed.
pub fn request_streams(seed: u64, spec: &WireSpec) -> Vec<Arc<Vec<Request>>> {
    let keys = key_dist(spec);
    (0..LANES)
        .map(|lane| Arc::new(generate_stream(seed, lane, spec.read_share, &keys)))
        .collect()
}

type Res<T> = Result<T, String>;

fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A system set up and warmed: database, optional replicas, server, and one
/// connected lane per connection.
pub struct Env {
    pub db: Arc<Db>,
    cluster: Option<ReplicatedDb>,
    server: Server,
    lanes: Vec<Lane>,
    opts: DbOptions,
}

struct Pending {
    id: u64,
    /// Send time (open loop: intended send time).
    t0: u64,
    read_key: Option<u64>,
    /// Non-zero for a canary write: the sequence number it carries.
    canary_seq: u64,
}

/// One connection and what it has sent.
struct Lane {
    index: usize,
    client: Client,
    reqs: Arc<Vec<Request>>,
    issued: u64,
    canary_acked: u64,
    inflight: VecDeque<Pending>,
    filler: SplitMix64,
    log: LaneLog,
}

/// How an answered request ended.
enum Answer {
    Commit,
    Read,
    Failed,
}

impl Lane {
    /// Send the next op of the stream (every [`CANARY_EVERY`]th op is the
    /// canary write instead), timing it from `t0`.
    fn issue(&mut self, t0: u64) -> Res<()> {
        let n = self.issued;
        self.issued += 1;
        self.log.attempted += 1;
        let mut pending = Pending {
            id: 0,
            t0,
            read_key: None,
            canary_seq: 0,
        };
        pending.id = if n.is_multiple_of(CANARY_EVERY) {
            let seq = n / CANARY_EVERY + 1;
            pending.canary_seq = seq;
            let key = canary_key(self.index);
            let info = ValueInfo {
                key,
                writer: self.index as u64 + 1,
                seq,
            };
            self.client.send(&Request::Update {
                txn: 0,
                table: TABLE,
                key,
                value: make_value(info, &mut self.filler).to_vec(),
            })
        } else {
            let req = &self.reqs[n as usize % STREAM_LEN];
            if let Request::Read { key, .. } = req {
                pending.read_key = Some(*key);
            }
            self.client.send(req)
        }
        .map_err(ctx("send"))?;
        self.inflight.push_back(pending);
        Ok(())
    }

    /// Match a response to the oldest request in flight and check it.
    fn absorb(&mut self, id: u64, resp: Response) -> (Pending, Answer) {
        let p = self
            .inflight
            .pop_front()
            .expect("a response implies a request in flight");
        let answer = if p.id != id {
            self.log
                .violation(format!("response {id} arrived for request {}", p.id));
            Answer::Failed
        } else {
            match (p.read_key, resp) {
                (None, Response::Committed { .. }) => {
                    self.canary_acked = self.canary_acked.max(p.canary_seq);
                    Answer::Commit
                }
                (Some(key), Response::Value { present, value, .. }) => match check_value(&value) {
                    Some(info) if present && info.key == key => Answer::Read,
                    _ => {
                        self.log
                            .violation(format!("read of key {key}: value does not verify"));
                        Answer::Failed
                    }
                },
                (_, Response::Err { code, msg }) => {
                    self.log.error(1, format!("error response {code}: {msg}"));
                    Answer::Failed
                }
                (_, other) => {
                    self.log.violation(format!("unexpected response {other:?}"));
                    Answer::Failed
                }
            }
        };
        (p, answer)
    }

    /// Closed loop for a fixed op count, nothing recorded: the warm-up.
    fn warm_up(&mut self) -> Res<()> {
        let mut left = WARMUP_OPS;
        while left > 0 || !self.inflight.is_empty() {
            while left > 0 && self.inflight.len() < IN_FLIGHT {
                self.issue(0)?;
                left -= 1;
            }
            let (id, resp) = self.client.recv().map_err(ctx("recv"))?;
            self.absorb(id, resp);
        }
        Ok(())
    }

    /// Check the answer to the oldest request and record it in the window
    /// it arrived in. An answer later than [`ANSWER_DEADLINE`] is a failure.
    fn answer(&mut self, clock: &Clock, shape: &Shape, id: u64, resp: Response) {
        let t = monotonic_ns();
        let (p, answer) = self.absorb(id, resp);
        let name = match answer {
            Answer::Failed => return,
            _ if t - p.t0 > ANSWER_DEADLINE.as_nanos() as u64 => {
                let what = format!("request {} answered after {ANSWER_DEADLINE:?}", p.id);
                return self.log.error(1, what);
            }
            Answer::Commit => "client.commit",
            Answer::Read => "client.read",
        };
        let Some(w) = clock.window_of(t) else { return };
        let log = &mut self.log.windows[w];
        log.ok += 1;
        match answer {
            Answer::Read => log.read_ns.push(t - p.t0),
            _ => log.commit_ns.push(t - p.t0),
        }
        if shape.traced && p.id % 64 == 0 {
            self.log.spans.push(Span {
                id: spans::op_id(self.index as u32, p.id, 0),
                parent: spans::window_id(w),
                name,
                lane: self.index as u32,
                req: p.id,
                start_ns: p.t0,
                end_ns: t,
            });
        }
    }

    /// Closed loop over the measured windows: keep [`IN_FLIGHT`] requests
    /// outstanding until the last window closes, then drain.
    fn run_closed(&mut self, clock: &Clock, shape: &Shape) -> Res<()> {
        loop {
            let issuing = monotonic_ns() < clock.t_end();
            while issuing && self.inflight.len() < IN_FLIGHT {
                self.issue(monotonic_ns())?;
            }
            if self.inflight.is_empty() {
                return Ok(());
            }
            let (id, resp) = self.client.recv().map_err(ctx("recv"))?;
            self.answer(clock, shape, id, resp);
        }
    }

    /// Open loop: op `k` is due at `first + k × interval` whatever has come
    /// back, and its latency runs from that due time, so a stall is charged
    /// to every op it delays (no coordinated omission).
    ///
    /// Between sends the thread sleeps and polls: `Client::recv_timeout`
    /// rounds its wait up to the kernel's socket-timeout granularity (whole
    /// milliseconds), which would make the generator late. An answer is
    /// therefore seen up to one [`POLL`] (plus timer slack) after it arrived.
    fn run_open(&mut self, clock: &Clock, shape: &Shape, interval_ns: u64) -> Res<()> {
        let deadline_ns = ANSWER_DEADLINE.as_nanos() as u64;
        // Lanes are offset by half an interval so they do not send in step.
        let first = clock.t_start + self.index as u64 * interval_ns / LANES as u64;
        let mut sent = 0u64;
        let mut window = 0usize;
        loop {
            while let Some((id, resp)) = self.client.try_recv().map_err(ctx("recv"))? {
                self.answer(clock, shape, id, resp);
            }
            let now = monotonic_ns();
            if let Some(w) = clock.window_of(now).filter(|&w| w != window) {
                self.log.windows[window].backlog = self.inflight.len() as u64;
                window = w;
            }
            let due = first + sent * interval_ns;
            let wake = if due < clock.t_end() {
                if now >= due {
                    if let Some(w) = clock.window_of(due) {
                        self.log.windows[w].late_ns.push(now - due);
                    }
                    self.issue(due)?;
                    sent += 1;
                    continue;
                }
                due
            } else {
                match self.inflight.front() {
                    Some(oldest) if now < oldest.t0 + deadline_ns => oldest.t0 + deadline_ns,
                    _ => break,
                }
            };
            std::thread::sleep(Duration::from_nanos(wake - now).min(POLL));
        }
        self.log.windows[window].backlog = self.inflight.len() as u64;
        let unanswered = self.inflight.len() as u64;
        if unanswered > 0 {
            let what = format!("{unanswered} ops unanswered after {ANSWER_DEADLINE:?}");
            self.log.error(unanswered, what);
            self.inflight.clear();
        }
        Ok(())
    }
}

/// Open the database, load the rows, attach replicas, start the server,
/// connect, and run the fixed-count warm-up on every connection.
pub fn set_up(
    spec: &WireSpec,
    streams: &[Arc<Vec<Request>>],
    seed: u64,
    windows: usize,
) -> Res<Env> {
    let opts = db_options(spec.device.clone());
    let db = Db::open(opts.clone());
    let rows = ROWS + LANES as u64;
    let table = db.create_table(VALUE_LEN, rows);
    assert_eq!(table, TABLE);
    for key in 0..rows {
        db.load(table, key, &initial_value(key))
            .map_err(ctx("load"))?;
    }
    db.setup_complete();
    let cluster = if spec.replicas > 0 {
        let cfg = ReplicationConfig {
            replicas: spec.replicas,
            policy: DurabilityPolicy::SemiSync(1),
            link: LinkConfig::with_latency_us(LINK_US),
            ..ReplicationConfig::default()
        };
        Some(ReplicatedDb::attach(Arc::clone(&db), cfg).map_err(ctx("attach replicas"))?)
    } else {
        None
    };
    let server =
        Server::start(Engine::primary(Arc::clone(&db)), server_config()).map_err(ctx("server"))?;
    let addr = server.local_addr().expect("server listens on loopback");
    let mut lanes = Vec::with_capacity(LANES);
    for (index, reqs) in streams.iter().enumerate() {
        lanes.push(Lane {
            index,
            client: Client::connect_tcp(addr).map_err(ctx("connect"))?,
            reqs: Arc::clone(reqs),
            issued: 0,
            canary_acked: 0,
            inflight: VecDeque::with_capacity(IN_FLIGHT * 2),
            filler: SplitMix64::stream(seed, 1_000 + index as u64),
            log: LaneLog::new(windows),
        });
    }
    let warmed: Vec<Res<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes.iter_mut().map(|l| s.spawn(|| l.warm_up())).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    warmed.into_iter().collect::<Res<()>>()?;
    Ok(Env {
        db,
        cluster,
        server,
        lanes,
        opts,
    })
}

/// What the post-run crash and recovery measured.
pub struct Recovery {
    pub stats: RecoveryStats,
    pub wall: Duration,
}

impl Env {
    /// Stop serving and release everything (for a set-up that was only timed).
    pub fn tear_down(self) {
        for mut lane in self.lanes {
            lane.client.close();
        }
        self.server.shutdown();
        drop(self.cluster);
        self.db.log().shutdown();
    }

    /// Run the measured windows: one load thread per connection, while this
    /// thread takes a telemetry snapshot at every window boundary and, on a
    /// traced run, switches the program's telemetry on for the even windows.
    /// Returns the boundary snapshots (`windows + 1` of them, traced runs
    /// only).
    pub fn measure(
        &mut self,
        spec: &WireSpec,
        shape: &Shape,
    ) -> Res<(Clock, Vec<TelemetrySnapshot>)> {
        let clock = Clock::new(monotonic_ns() + 2_000_000, shape);
        let db = &self.db;
        let mut snaps = Vec::new();
        let ran: Vec<Res<()>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    s.spawn(move || match spec.pacing {
                        Pacing::Closed => lane.run_closed(&clock, shape),
                        Pacing::Open { per_conn_per_s } => {
                            lane.run_open(&clock, shape, 1_000_000_000 / per_conn_per_s)
                        }
                    })
                })
                .collect();
            if shape.traced {
                clock.at_each_boundary(shape, |telemetry_on| {
                    snaps.push(db.telemetry_snapshot("primary"));
                    db.log().telemetry().set_enabled(telemetry_on);
                });
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        ran.into_iter().collect::<Res<()>>()?;
        Ok((clock, snaps))
    }

    /// The lanes' records, taken out for reduction.
    pub fn take_logs(&mut self) -> Vec<LaneLog> {
        self.lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.log))
            .collect()
    }

    /// Stop the server, then check the outputs: replicas equal to the
    /// primary, and after `crash()` → `recover()` every acked canary present
    /// and every row's checksum intact. Violations are returned in words.
    pub fn verify(self) -> Res<(Recovery, Vec<String>)> {
        let mut violations = Vec::new();
        let acked: Vec<u64> = self.lanes.iter().map(|l| l.canary_acked).collect();
        for mut lane in self.lanes {
            lane.client.close();
        }
        self.server.shutdown();
        self.db.log().flush_all().map_err(ctx("final flush"))?;
        if let Some(mut cluster) = self.cluster {
            if cluster.wait_catchup(Duration::from_secs(30)) {
                let want = state_fingerprint(&self.db).map_err(ctx("fingerprint"))?;
                for i in 0..cluster.replicas().len() {
                    let got =
                        state_fingerprint(&cluster.replica(i).db()).map_err(ctx("fingerprint"))?;
                    if got != want {
                        violations.push(format!("replica {i} state differs from the primary's"));
                    }
                }
            } else {
                violations.push("replicas did not catch up within 30 s".to_string());
            }
            cluster.shutdown();
        }

        let image = self.db.crash();
        self.db.log().shutdown();
        drop(self.db);
        let t0 = Instant::now();
        let (recovered, stats) = recover_with_stats(image, self.opts).map_err(ctx("recover"))?;
        let wall = t0.elapsed();
        for (lane, &acked_seq) in acked.iter().enumerate() {
            let key = canary_key(lane);
            let found = recovered
                .snapshot_read(TABLE, key)
                .map_err(ctx("canary read"))?
                .as_deref()
                .and_then(check_value);
            match found {
                Some(info) if info.key == key && info.seq >= acked_seq => {}
                other => violations.push(format!(
                    "lane {lane}: canary {acked_seq} was acked but recovery has {other:?}"
                )),
            }
        }
        let mut bad_rows = 0u64;
        for key in 0..ROWS {
            let row = recovered
                .snapshot_read(TABLE, key)
                .map_err(ctx("row read"))?;
            if row.as_deref().and_then(check_value).map(|i| i.key) != Some(key) {
                bad_rows += 1;
            }
        }
        if bad_rows > 0 {
            violations.push(format!("{bad_rows} recovered rows fail their checksum"));
        }
        recovered.log().shutdown();
        Ok((Recovery { stats, wall }, violations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_server::protocol::{extract_request, Extracted};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Answers every request `Committed`, but goes silent for `stall` after
    /// the first `before_stall` answers.
    fn stalling_server(before_stall: usize, stall: Duration) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let (mut buf, mut chunk, mut answered) = (Vec::new(), [0u8; 4096], 0usize);
            loop {
                match sock.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
                while let Extracted::Msg { req_id, .. } = extract_request(&mut buf) {
                    if answered == before_stall {
                        std::thread::sleep(stall);
                    }
                    answered += 1;
                    let resp = Response::Committed { token: 1 }.encode(req_id);
                    if sock.write_all(&resp).is_err() {
                        return;
                    }
                }
            }
        });
        addr
    }

    /// No coordinated omission: while the server is stalled the generator
    /// keeps its schedule, and every op due during the stall is charged the
    /// part of the stall it waited through — not just the one op that was
    /// on the wire when the stall began.
    #[test]
    fn open_loop_latencies_grow_with_a_server_stall() {
        let stall = Duration::from_millis(200);
        let per_s = 1000u64;
        let addr = stalling_server(100, stall);
        let shape = Shape {
            windows: 1,
            window: Duration::from_millis(600),
            setups: 1,
            traced: false,
        };
        let mut lane = Lane {
            index: 0,
            client: Client::connect_tcp(addr).unwrap(),
            reqs: Arc::new(generate_stream(5, 0, 0.0, &KeyDist::Uniform(ROWS))),
            issued: 0,
            canary_acked: 0,
            inflight: VecDeque::new(),
            filler: SplitMix64::new(5),
            log: LaneLog::new(shape.windows),
        };
        let clock = Clock::new(monotonic_ns(), &shape);
        lane.run_open(&clock, &shape, 1_000_000_000 / per_s)
            .unwrap();

        let log = &lane.log.windows[0];
        assert_eq!(
            lane.log.attempted, 600,
            "the schedule was kept through the stall"
        );
        assert_eq!(lane.log.failed, 0, "{:?}", lane.log.errors);
        let slow = log.commit_ns.iter().filter(|&&ns| ns > 50_000_000).count();
        let worst = *log.commit_ns.iter().max().unwrap();
        // Ops due in the first 150 ms of the stall each waited over 50 ms.
        assert!(slow >= 120, "only {slow} ops were charged for the stall");
        assert!(worst >= 180_000_000, "worst latency {worst} ns");
        // The stalled ops' latencies fall off linearly: the median slow op
        // waited about half of what the worst one did.
        let mut slow_ns: Vec<u64> = log
            .commit_ns
            .iter()
            .copied()
            .filter(|&ns| ns > 50_000_000)
            .collect();
        slow_ns.sort_unstable();
        let mid = slow_ns[slow_ns.len() / 2];
        assert!(
            (90_000_000..160_000_000).contains(&mid),
            "median slow op {mid} ns"
        );
        let mut late = log.late_ns.clone();
        late.sort_unstable();
        let late_p99 = late[late.len() * 99 / 100];
        assert!(late_p99 < 20_000_000, "generator ran {late_p99} ns late");
    }
}
