//! `log_insert_2t`: the paper's log-insert microbenchmark (§6.3) at two
//! threads. `reserve` → `LogSlot::write` → `release` of 120 B records on the
//! default buffer variant over a discarding `BufferCore`: no flush daemon,
//! no device, nothing but `core::buffer`, `carray` and `mcs`.
//!
//! One op in [`ROUND_OPS`] is a log *read* instead: the thread pulls the next
//! record of a small flushed log through `LogReader` — the scan recovery
//! and the shipper run beside inserts — and checks its CRC and contents.
//! That is the workload's read-back check, and its `read_*` latency.

use crate::measure::{Clock, LaneLog, Shape, LANES};
use crate::rng::SplitMix64;
use crate::spans::{self, Span};
use aether_core::buffer::{BufferCore, LogBuffer};
use aether_core::device::LogDevice;
use aether_core::manager::LogManager;
use aether_core::reader::LogReader;
use aether_core::record::{on_log_size, RecordKind, HEADER_SIZE};
use aether_core::runtime::monotonic_ns;
use aether_core::stats::StatsSnapshot;
use aether_core::{BufferKind, DeviceKind, LogConfig, Lsn};
use aether_storage::DbOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// On-log record size, the paper's workload average.
pub const RECORD: usize = 120;
const PAYLOAD: usize = RECORD - HEADER_SIZE;
/// Inserts timed as one: the workload's "commit", what a transaction that
/// logs 16 records waits for. (One insert alone takes half a microsecond,
/// and whether its 99th percentile catches the buffer's back-off or not
/// changes from run to run; so does that of a few hundred inserts, which a
/// pre-empted neighbour delays about once in a hundred times.)
pub const GROUP: u64 = 16;
/// Groups in a round; a round ends with one read of the flushed log.
pub const GROUPS: usize = 16;
/// Ops in a round: the phase-timed insert, the groups, the read.
pub const ROUND_OPS: u64 = 1 + GROUP * GROUPS as u64 + 1;
/// Records in the flushed log the reads scan, over and over.
pub const READBACK_RECORDS: u64 = 10_000;
/// Records one read pulls through `LogReader` (one record alone takes a
/// third of a microsecond, too short to time steadily).
pub const SCAN: u64 = 8;
/// Warm-up inserts per thread, a fixed count.
pub const WARMUP_OPS: u64 = 1 << 19;

type Res<T> = Result<T, String>;

/// Payload of record `i` of the read-back log.
fn readback_payload(seed: u64, i: u64) -> [u8; PAYLOAD] {
    let mut rng = SplitMix64::stream(seed, i);
    let mut p = [0u8; PAYLOAD];
    for chunk in p.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    p
}

/// The buffer under test plus the flushed log the reads scan.
pub struct Env {
    pub core: Arc<BufferCore>,
    buffer: Arc<dyn LogBuffer>,
    readback: Arc<dyn LogDevice>,
    seed: u64,
    lanes: Vec<Lane>,
}

struct Lane {
    index: usize,
    rounds: u64,
    inserts: u64,
    reader: LogReader,
    /// Index of the read-back record the reader is at.
    read_at: u64,
    payload: [u8; PAYLOAD],
    log: LaneLog,
    /// Sums of the rounds' first inserts' reserve / fill / release times.
    pub phase_ns: [u64; 3],
    pub phase_samples: u64,
}

impl Lane {
    fn insert(&mut self, buffer: &dyn LogBuffer) {
        let mut slot = buffer.reserve(RecordKind::Filler, 0, Lsn::ZERO, PAYLOAD);
        slot.write(&self.payload);
        slot.release();
        self.inserts += 1;
    }

    /// An insert with a timestamp between each of the three public calls.
    fn insert_timed(&mut self, buffer: &dyn LogBuffer) -> [u64; 4] {
        let t0 = monotonic_ns();
        let mut slot = buffer.reserve(RecordKind::Filler, 0, Lsn::ZERO, PAYLOAD);
        let t1 = monotonic_ns();
        slot.write(&self.payload);
        let t2 = monotonic_ns();
        slot.release();
        let t3 = monotonic_ns();
        self.inserts += 1;
        [t0, t1, t2, t3]
    }

    /// Read and check the next [`SCAN`] records of the read-back log,
    /// wrapping at its end. Returns the scan's start and end time.
    fn read(&mut self, env_seed: u64, device: &Arc<dyn LogDevice>) -> Res<[u64; 2]> {
        if self.read_at == READBACK_RECORDS {
            self.reader = LogReader::new(Arc::clone(device)).strict();
            self.read_at = 0;
        }
        let mut records = Vec::with_capacity(SCAN as usize);
        let t0 = monotonic_ns();
        for _ in 0..SCAN {
            records.push(self.reader.next_record());
        }
        let t1 = monotonic_ns();
        for rec in records {
            match rec {
                Ok(Some(r)) if r.payload == readback_payload(env_seed, self.read_at) => {
                    self.read_at += 1;
                }
                Ok(_) => {
                    return Err(format!(
                        "read-back record {} is missing or altered",
                        self.read_at
                    ))
                }
                Err(e) => return Err(format!("read-back record {}: {e}", self.read_at)),
            }
        }
        Ok([t0, t1])
    }

    /// One round: an insert with a timestamp between each of its three
    /// calls, [`GROUPS`] groups of [`GROUP`] inserts each timed as a whole,
    /// then one read.
    fn round(&mut self, env: &Shared) -> Round {
        let phases = self.insert_timed(env.buffer);
        let mut marks = [phases[3]; GROUPS + 1];
        for mark in &mut marks[1..] {
            for _ in 0..GROUP {
                self.insert(env.buffer);
            }
            *mark = monotonic_ns();
        }
        let read = self.read(env.seed, env.readback);
        self.rounds += 1;
        self.log.attempted += ROUND_OPS;
        Round {
            phases,
            marks,
            read,
        }
    }

    fn warm_up(&mut self, env: &Shared) {
        for _ in 0..WARMUP_OPS / ROUND_OPS {
            if let Err(what) = self.round(env).read {
                self.log.violation(what);
            }
        }
    }

    /// Run rounds until the last window closes, filing each under the
    /// window it finished in.
    fn run(&mut self, env: &Shared, clock: &Clock, shape: &Shape) {
        loop {
            let round = self.round(env);
            let [read_start, end] = match round.read {
                Ok(times) => times,
                Err(what) => {
                    self.log.violation(what);
                    continue;
                }
            };
            if let Some(w) = clock.window_of(end) {
                let log = &mut self.log.windows[w];
                log.ok += ROUND_OPS;
                log.commit_ns
                    .extend(round.marks.windows(2).map(|m| m[1] - m[0]));
                log.read_ns.push(end - read_start);
                for (sum, pair) in self.phase_ns.iter_mut().zip(round.phases.windows(2)) {
                    *sum += pair[1] - pair[0];
                }
                self.phase_samples += 1;
                // Spans for one round in 64 keep the file small.
                if shape.traced && self.rounds.is_multiple_of(64) {
                    self.round_spans(w, &round.phases, &round.marks, [read_start, end]);
                }
            }
            if end >= clock.t_end() {
                return;
            }
        }
    }

    fn round_spans(&mut self, w: usize, phases: &[u64; 4], marks: &[u64], read: [u64; 2]) {
        let (lane, req) = (self.index as u32, self.rounds);
        let id = |part| spans::op_id(lane, req, part);
        let window = spans::window_id(w);
        let parts = [
            (id(0), window, "log.insert", phases[0], phases[3]),
            (id(1), id(0), "buffer.reserve", phases[0], phases[1]),
            (id(2), id(0), "buffer.fill", phases[1], phases[2]),
            (id(3), id(0), "buffer.release", phases[2], phases[3]),
            (id(4), window, "log.commit", marks[0], marks[1]),
            (id(5), window, "log.read", read[0], read[1]),
        ];
        for (id, parent, name, start_ns, end_ns) in parts {
            self.log.spans.push(Span {
                id,
                parent,
                name,
                lane,
                req,
                start_ns,
                end_ns,
            });
        }
    }
}

/// When the parts of one round happened.
struct Round {
    /// The first insert: before `reserve`, after it, after `write`, after
    /// `release`.
    phases: [u64; 4],
    /// Group `g` ran from `marks[g]` to `marks[g + 1]`.
    marks: [u64; GROUPS + 1],
    /// Before and after the read, or what was wrong with a record.
    read: Res<[u64; 2]>,
}

/// What the lanes share, borrowed for a phase.
struct Shared<'a> {
    buffer: &'a dyn LogBuffer,
    readback: &'a Arc<dyn LogDevice>,
    seed: u64,
}

/// Build the buffer and the read-back log, then warm both threads up.
pub fn set_up(seed: u64, windows: usize) -> Res<Env> {
    // The variant a database gets by default (CD at this commit).
    let kind = DbOptions::default().buffer;
    let config = LogConfig::default();
    let core = BufferCore::new(&config);
    core.set_auto_reclaim(true);
    let buffer = kind.build(Arc::clone(&core), &config);

    let log = LogManager::builder()
        .config(config)
        .buffer(kind)
        .device(DeviceKind::Ram)
        .build();
    for i in 0..READBACK_RECORDS {
        let mut slot = log.reserve(RecordKind::Filler, 0, Lsn::ZERO, PAYLOAD);
        slot.write(&readback_payload(seed, i));
        slot.release();
    }
    log.flush_all()
        .map_err(|e| format!("flush read-back log: {e}"))?;
    let readback = Arc::clone(log.device());
    log.shutdown();

    let lanes = (0..LANES)
        .map(|index| Lane {
            index,
            rounds: 0,
            inserts: 0,
            reader: LogReader::new(Arc::clone(&readback)).strict(),
            read_at: 0,
            payload: [index as u8 + 1; PAYLOAD],
            log: LaneLog::new(windows),
            phase_ns: [0; 3],
            phase_samples: 0,
        })
        .collect();
    let mut env = Env {
        core,
        buffer,
        readback,
        seed,
        lanes,
    };
    env.each_lane(|lane, shared| lane.warm_up(shared));
    Ok(env)
}

impl Env {
    fn each_lane(&mut self, f: impl Fn(&mut Lane, &Shared) + Sync) {
        let shared = Shared {
            buffer: &*self.buffer,
            readback: &self.readback,
            seed: self.seed,
        };
        std::thread::scope(|s| {
            for lane in &mut self.lanes {
                s.spawn(|| f(lane, &shared));
            }
        });
    }

    /// Run the measured windows; on a traced run this thread switches the
    /// buffer's telemetry on for the even windows.
    pub fn measure(&mut self, shape: &Shape) -> Clock {
        let clock = Clock::new(monotonic_ns() + 2_000_000, shape);
        let core = Arc::clone(&self.core);
        std::thread::scope(|s| {
            if shape.traced {
                s.spawn(|| clock.at_each_boundary(shape, |on| core.telemetry().set_enabled(on)));
            }
            self.each_lane(|lane, shared| lane.run(shared, &clock, shape));
        });
        clock
    }

    /// Buffer counters (consolidations, inserts) for the per-layer report.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.stats.snapshot()
    }

    /// Mean reserve / fill / release time of the rounds' first inserts, ns.
    pub fn phase_means_ns(&self) -> [f64; 3] {
        let n: u64 = self.lanes.iter().map(|l| l.phase_samples).sum();
        std::array::from_fn(|i| {
            let sum: u64 = self.lanes.iter().map(|l| l.phase_ns[i]).sum();
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64
            }
        })
    }

    pub fn take_logs(&mut self) -> Vec<LaneLog> {
        self.lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.log))
            .collect()
    }

    /// Every reserved byte was released: the released LSN equals the sum of
    /// the on-log sizes of everything inserted.
    pub fn verify(&self) -> Vec<String> {
        let inserts: u64 = self.lanes.iter().map(|l| l.inserts).sum();
        let want = inserts * on_log_size(PAYLOAD) as u64;
        let got = self.core.released_lsn().raw();
        let counted = self.core.stats.snapshot().inserts;
        let mut violations = Vec::new();
        if got != want {
            violations.push(format!(
                "released LSN {got} but {inserts} inserts of {RECORD} B sum to {want}"
            ));
        }
        if counted != inserts {
            violations.push(format!(
                "buffer counted {counted} inserts, threads did {inserts}"
            ));
        }
        violations
    }
}

/// Insert bandwidth of one buffer variant at two threads, MB/s: the Fig. 8
/// comparison the per-layer report carries.
pub fn insert_mb_per_s(kind: BufferKind, run: Duration) -> f64 {
    let config = LogConfig::default();
    let core = BufferCore::new(&config);
    core.set_auto_reclaim(true);
    let buffer = kind.build(Arc::clone(&core), &config);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..LANES {
            let (buffer, stop) = (&buffer, &stop);
            s.spawn(move || {
                let payload = [t as u8 + 1; PAYLOAD];
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..32 {
                        let mut slot = buffer.reserve(RecordKind::Filler, 0, Lsn::ZERO, PAYLOAD);
                        slot.write(&payload);
                        slot.release();
                    }
                }
            });
        }
        std::thread::sleep(run);
        stop.store(true, Ordering::Relaxed);
    });
    let wall = start.elapsed().as_secs_f64();
    core.stats.snapshot().bytes as f64 / 1e6 / wall
}
