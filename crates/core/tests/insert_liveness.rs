//! The insert path never sleeps, and on D, CD and CDME no finisher waits for
//! a predecessor that is still filling: it hands its range off instead.
//!
//! The simulator makes the first claim checkable without a clock: virtual
//! time moves only when an actor sleeps, yields (the sim charges a yield
//! 200 ns) or times out on a condvar, and an actor that *parks* on a condvar
//! gives up the run token without moving it. So actors that park in the
//! middle of a fill are the "descheduled predecessor", and if anyone waits
//! for them — by yielding or by sleeping — the clock shows it.

use aether_core::buffer::BufferCore;
use aether_core::record::{on_log_size, RecordKind};
use aether_core::runtime::{lock, monotonic_ns, Runtime, WaitSet};
use aether_core::{BufferKind, DeviceKind, LogConfig, LogManager, Lsn};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const ACTORS: usize = 4;
const INSERTS: usize = 2000;

fn payload_len(actor: usize, i: usize) -> usize {
    16 + (actor * 37 + i * 11) % 160
}

/// Lets actors park without moving the sim clock: a parked actor resumes
/// when any other actor finishes an insert (or finishes altogether), and
/// nobody parks unless someone else is awake to wake it.
struct Parking {
    state: Mutex<ParkState>,
    /// Moved, under `state`, each time the parked actors are woken.
    epoch: AtomicU64,
    wake: WaitSet,
}

struct ParkState {
    /// Actors that have not finished.
    live: usize,
    /// Actors waiting for `epoch` to move.
    parked: usize,
}

impl Parking {
    fn park(&self) {
        let parked_at = {
            let mut s = lock(&self.state);
            if s.live - s.parked <= 1 {
                return;
            }
            s.parked += 1;
            self.epoch.load(Ordering::Relaxed)
        };
        let moved = || (self.epoch.load(Ordering::Relaxed) != parked_at).then_some(());
        self.wake.wait_until(None, moved);
    }

    fn wake_all(&self, s: &mut ParkState) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        s.parked = 0;
        self.wake.notify();
    }

    fn insert_done(&self) {
        self.wake_all(&mut lock(&self.state));
    }

    fn actor_done(&self) {
        let mut s = lock(&self.state);
        s.live -= 1;
        self.wake_all(&mut s);
    }
}

/// Run [`ACTORS`] sim actors of [`INSERTS`] inserts each and return the
/// virtual nanoseconds the whole run took.
fn sim_run(kind: BufferKind, seed: u64) -> u64 {
    let rt = Runtime::sim(seed);
    let _sim = rt.enter();
    // 4 MiB holds every record of the run: no ring back-pressure, the one
    // wait on the insert path that is allowed to block on a timer.
    let cfg = LogConfig::default()
        .with_buffer_size(1 << 22)
        .with_runtime(rt.clone());
    let core = BufferCore::new(&cfg);
    core.set_auto_reclaim(true);
    let buffer = kind.build(Arc::clone(&core), &cfg);
    let parking = Arc::new(Parking {
        state: Mutex::new(ParkState {
            live: ACTORS,
            parked: 0,
        }),
        epoch: AtomicU64::new(0),
        wake: WaitSet::new(),
    });
    // B and C fill under the insert mutex, so whoever parks inside a fill
    // holds everyone up by design; their actors park between inserts.
    let park_mid_fill = matches!(
        kind,
        BufferKind::Decoupled | BufferKind::Hybrid | BufferKind::Delegated
    );
    let actors: Vec<_> = (0..ACTORS)
        .map(|a| {
            let (buffer, parking) = (Arc::clone(&buffer), Arc::clone(&parking));
            rt.spawn("inserter", move || {
                let mut bytes = 0u64;
                for i in 0..INSERTS {
                    let len = payload_len(a, i);
                    let parks = i % 8 == a;
                    let mut slot = buffer.reserve(RecordKind::Filler, a as u64, Lsn::ZERO, len);
                    slot.write(&vec![a as u8; len]);
                    if parks && park_mid_fill {
                        parking.park();
                    }
                    slot.release();
                    if parks && !park_mid_fill {
                        parking.park();
                    }
                    parking.insert_done();
                    bytes += on_log_size(len) as u64;
                }
                parking.actor_done();
                bytes
            })
        })
        .collect();
    let bytes: u64 = actors.into_iter().map(|a| a.join().unwrap()).sum();
    let snap = core.stats.snapshot();
    assert_eq!(snap.inserts, (ACTORS * INSERTS) as u64, "{kind}");
    assert_eq!(core.released_lsn(), Lsn(bytes), "{kind}: a range was lost");
    if park_mid_fill {
        assert!(
            snap.delegated_releases > 0,
            "{kind}: actors parked mid-fill, yet nobody handed a release off"
        );
    }
    monotonic_ns()
}

#[test]
fn sim_inserts_take_zero_virtual_time_on_every_variant() {
    // CDME's treadmill guard is a deliberate wait for a predecessor (one
    // release in 32); with predecessors parked it would wait forever. With
    // the guard off CDME is CD, so CD's run is its guard-off run. The guard
    // has its own test beside `BufferCore::release_ordered`.
    for kind in BufferKind::ALL
        .into_iter()
        .filter(|&k| k != BufferKind::Delegated)
    {
        for seed in [1, 2, 3] {
            assert_eq!(
                sim_run(kind, seed),
                0,
                "{kind} seed {seed}: an insert yielded or slept"
            );
        }
    }
}

/// Deterministic hand-off on OS threads: while one reservation is held open,
/// every later finisher must hand off (none may block), nothing may be
/// published past the gap, and closing it publishes the whole chain.
#[test]
fn finishers_behind_an_open_reservation_all_hand_off() {
    for kind in [BufferKind::Decoupled, BufferKind::Hybrid] {
        let log = LogManager::builder()
            .buffer(kind)
            .device(DeviceKind::Ram)
            .build();
        let first = log.reserve(RecordKind::Filler, 0, Lsn::ZERO, 8);
        let gap = first.lsn();
        let (threads, per) = (8usize, 200usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = &log;
                s.spawn(move || {
                    for i in 0..per {
                        let len = payload_len(t, i);
                        let mut slot = log.reserve(RecordKind::Filler, t as u64, Lsn::ZERO, len);
                        slot.write(&vec![t as u8; len]);
                        slot.release();
                    }
                });
            }
        });
        // All 1600 inserts returned although their predecessor never did.
        let snap = log.stats();
        assert_eq!(log.released_lsn(), gap, "{kind}: published past a gap");
        assert_eq!(
            snap.delegated_releases,
            snap.direct_acquires + snap.group_acquires - 1,
            "{kind}: every reservation but the open one hands off: {snap:?}"
        );
        let mut first = first;
        first.write(&[7; 8]);
        first.release();
        log.flush_all().unwrap();
        let records = log.reader().strict().read_all().unwrap();
        assert_eq!(records.len(), threads * per + 1, "{kind}");
        log.shutdown();
    }
}

/// A commit registered while its record's release is still handed off must
/// complete once the release is published, with no later commit to nudge the
/// flush daemon: the daemon keeps its group-commit clock running for it.
#[test]
fn commits_behind_an_open_reservation_complete_after_it_closes() {
    let log = LogManager::builder()
        .buffer(BufferKind::Hybrid)
        .device(DeviceKind::Ram)
        .build();
    let mut first = log.reserve(RecordKind::Filler, 0, Lsn::ZERO, 8);
    // Enough commits to trip the daemon's commit-count trigger, which finds
    // nothing released to write.
    let commits: Vec<_> = (0..log.config().group_commit.max_pending_commits as u64)
        .map(|txn| {
            let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, txn, Lsn::ZERO, &[]);
            log.note_commit(end);
            log.handle(end)
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(commits.iter().all(|c| !c.is_done()), "committed past a gap");
    first.write(&[7; 8]);
    first.release();
    for c in &commits {
        assert!(c.wait(), "commit failed");
    }
    assert!(log.durable_lsn() >= log.released_lsn());
    log.shutdown();
}

/// Liveness and density at 4x oversubscription: every record of every thread
/// comes back, in LSN order with no gap, each thread's in program order.
#[test]
fn oversubscribed_inserts_read_back_dense() {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let (threads, per) = (4 * cores, 3000usize);
    for kind in [
        BufferKind::Decoupled,
        BufferKind::Hybrid,
        BufferKind::Delegated,
    ] {
        // A ring far smaller than the run, so back-pressure is in play too.
        let log = LogManager::builder()
            .buffer(kind)
            .config(LogConfig::default().with_buffer_size(1 << 16))
            .device(DeviceKind::Ram)
            .build();
        let bytes: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let log = &log;
                    s.spawn(move || {
                        let mut bytes = 0u64;
                        for i in 0..per {
                            let len = payload_len(t, i).max(8);
                            let mut payload = vec![t as u8; len];
                            payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
                            let mut slot =
                                log.reserve(RecordKind::Filler, t as u64, Lsn::ZERO, len);
                            slot.write(&payload);
                            slot.release();
                            bytes += on_log_size(len) as u64;
                        }
                        bytes
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(
            log.released_lsn(),
            Lsn(bytes),
            "{kind} at {threads} threads"
        );
        log.flush_all().unwrap();
        let mut next_seq = vec![0u64; threads];
        let mut at = Lsn::ZERO;
        let mut count = 0usize;
        for rec in log.reader().strict() {
            let rec = rec.unwrap();
            assert_eq!(rec.lsn, at, "{kind}: gap in the log");
            at = at.advance(rec.header.total_len as u64);
            let t = rec.header.txn as usize;
            let seq = u64::from_le_bytes(rec.payload[..8].try_into().unwrap());
            assert_eq!(seq, next_seq[t], "{kind}: thread {t} out of order");
            assert!(rec.payload[8..].iter().all(|&b| b == t as u8), "{kind}");
            next_seq[t] += 1;
            count += 1;
        }
        assert_eq!(count, threads * per, "{kind}");
        assert_eq!(at, Lsn(bytes), "{kind}");
        log.shutdown();
    }
}
