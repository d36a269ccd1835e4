//! Closed-loop benchmark driver.
//!
//! N client (agent) threads each run transactions back-to-back against a
//! [`Db`] until the clock runs out — the paper's experimental setup ("60
//! clients run the TPC-B benchmark", §1.1). Completion counting is
//! *durable*: a transaction counts when its commit is durable, which for
//! flush pipelining the flush daemon reports to the client's [`Tally`], a
//! subscriber to the log's watermark — so the numbers never credit unsafe
//! work (except under `AsyncCommit`, whose whole point is that they do).

use crate::measure::{self, Breakdown};
use crate::tatp::{Tatp, TatpConfig, TatpMix};
use crate::tpcb::{Tpcb, TpcbConfig};
use aether_core::commit::Tally;
use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_storage::error::StorageResult;
use aether_storage::txn::Transaction;
use aether_storage::{CommitOutcome, CommitProtocol, Db, DbOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of client threads.
    pub clients: usize,
    /// Measured run length.
    pub duration: Duration,
    /// Base RNG seed (client i uses `seed + i`).
    pub seed: u64,
}

/// Result of one driver run.
#[derive(Debug, Clone)]
pub struct DriverResult {
    /// Transactions whose commit became durable (the throughput metric).
    pub committed: u64,
    /// Commits submitted (== committed unless some failed or the drain
    /// timed out).
    pub submitted: u64,
    /// Aborted transactions (deadlock victims + workload-expected failures).
    pub aborts: u64,
    /// Wall-clock seconds of the measured window.
    pub wall_s: f64,
    /// Durable commits per second.
    pub tps: f64,
    /// Voluntary context switches during the run (process-wide).
    pub ctx_switches: u64,
    /// Stacked time breakdown over agent threads.
    pub breakdown: Breakdown,
    /// Device syncs performed (group-commit effectiveness).
    pub flushes: u64,
}

/// What the clients of one [`Point`] run.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// TPC-B AccountUpdate over `accounts` accounts, zipfian `skew`.
    Tpcb {
        /// Accounts loaded.
        accounts: u64,
        /// Zipf exponent of the account pick.
        skew: f64,
    },
    /// TATP over `subscribers` subscribers, each transaction drawn from `mix`.
    Tatp {
        /// Subscribers loaded.
        subscribers: u64,
        /// Transaction mix.
        mix: TatpMix,
    },
}

/// One closed-loop point of a figure: the paper's axes (commit protocol,
/// buffer variant, device latency, clients) and the workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// Commit protocol.
    pub protocol: CommitProtocol,
    /// Log-buffer variant.
    pub buffer: BufferKind,
    /// Log device.
    pub device: DeviceKind,
    /// What each client runs.
    pub workload: Workload,
    /// Client threads.
    pub clients: usize,
    /// Measured run length.
    pub duration: Duration,
    /// Base RNG seed.
    pub seed: u64,
}

/// Open a [`Db`] for `p` with the environment's telemetry
/// ([`crate::env::telemetry`]), load its workload and run it closed-loop.
/// With telemetry on, the point's snapshot goes to stderr as text. The `Db`
/// is returned for what a figure reads after the run.
pub fn run_point(p: &Point) -> (Arc<Db>, DriverResult) {
    let db = Db::open(DbOptions {
        protocol: p.protocol,
        buffer: p.buffer,
        device: p.device.clone(),
        log_config: LogConfig::default().with_telemetry(crate::env::telemetry()),
        ..DbOptions::default()
    });
    let cfg = DriverConfig {
        clients: p.clients,
        duration: p.duration,
        seed: p.seed,
    };
    let r = match p.workload {
        Workload::Tpcb { accounts, skew } => {
            let cfg_tpcb = TpcbConfig {
                accounts,
                skew,
                ..TpcbConfig::default()
            };
            let t = Tpcb::setup(&db, cfg_tpcb);
            run_closed_loop(&db, &cfg, &move |db, txn, rng, _| {
                t.account_update(db, txn, rng)
            })
        }
        Workload::Tatp { subscribers, mix } => {
            let t = Tatp::setup(&db, TatpConfig { subscribers });
            run_closed_loop(&db, &cfg, &move |db, txn, rng, _| {
                let kind = t.pick(mix, rng);
                t.run(kind, db, txn, rng)
            })
        }
    };
    if db.log().telemetry().on() {
        let label = format!("{:?} {:?} clients={}", p.workload, p.protocol, p.clients);
        eprint!("{}", db.telemetry_snapshot(&label).render_text());
    }
    (db, r)
}

/// A transaction body: runs inside an open transaction; `Ok` commits,
/// retryable errors abort-and-retry, other errors abort-and-continue
/// (TATP's expected "failed" transactions).
pub type TxnBody = dyn Fn(&Db, &mut Transaction, &mut StdRng, usize) -> StorageResult<()> + Sync;

/// Run `body` closed-loop from `cfg.clients` threads.
pub fn run_closed_loop(db: &Arc<Db>, cfg: &DriverConfig, body: &TxnBody) -> DriverResult {
    // The phase times of the Figure 2/7 breakdowns add up only while
    // telemetry is on; the caller's setting comes back after the run.
    let tel = db.log().telemetry();
    let was_on = tel.on();
    tel.set_enabled(true);

    // Every submitted commit resolves once, durable or not: a blocking one
    // when `commit` returns, an asynchronous one in its client's
    // tally. The drain below waits for the tallies, so a poisoned log ends
    // it at once.
    let pipeline = db.log().pipeline();
    let tallies: Vec<Arc<Tally>> = (0..cfg.clients)
        .map(|_| {
            let t = Arc::new(Tally::default());
            pipeline.subscribe(t.clone());
            t
        })
        .collect();
    let inline_ok = AtomicU64::new(0);
    let submitted = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    let before = db.telemetry_snapshot("before");
    let ctx_before = measure::voluntary_ctx_switches();

    let start = Instant::now();
    std::thread::scope(|s| {
        for (client, tally) in tallies.iter().enumerate() {
            let db = Arc::clone(db);
            let inline_ok = &inline_ok;
            let submitted = &submitted;
            let aborts = &aborts;
            let stop = &stop;
            let mut rng = StdRng::seed_from_u64(cfg.seed + client as u64);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = db.begin();
                    match body(&db, &mut txn, &mut rng, client) {
                        Ok(()) => {
                            submitted.fetch_add(1, Ordering::Relaxed);
                            match db.commit(txn) {
                                Ok(
                                    out @ (CommitOutcome::Pipelined(_) | CommitOutcome::Unsafe(_)),
                                ) => {
                                    let lsn = out.token().lsn();
                                    tally.add(lsn);
                                    pipeline.watch(&**tally, lsn);
                                }
                                Ok(CommitOutcome::Durable(_) | CommitOutcome::Unreplicated(_)) => {
                                    inline_ok.fetch_add(1, Ordering::Relaxed);
                                }
                                // A poisoned log: resolved, not committed.
                                Err(_) => {}
                            }
                        }
                        Err(_) => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                            let _ = db.abort(txn);
                        }
                    }
                }
            });
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let wall = start.elapsed();

    // Drain: make every submitted commit durable and wait for it to resolve.
    let _ = db.log().flush_all();
    let target = submitted.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(10);
    for t in &tallies {
        t.wait_settled(Some(deadline.saturating_duration_since(Instant::now())));
        t.close();
    }
    pipeline.prune();

    let after = db.telemetry_snapshot("after");
    tel.set_enabled(was_on);
    let grew = |name| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let ns = |name| measure::ns_to_s(grew(name));
    // Process-wide over the threads alive now: one that exited since (a
    // concurrent test's daemon) takes its count with it.
    let ctx = measure::voluntary_ctx_switches().saturating_sub(ctx_before);

    let wall_s = wall.as_secs_f64();
    let committed =
        inline_ok.load(Ordering::Relaxed) + tallies.iter().map(|t| t.durable()).sum::<u64>();
    DriverResult {
        committed,
        submitted: target,
        aborts: aborts.load(Ordering::Relaxed),
        wall_s,
        tps: committed as f64 / wall_s,
        ctx_switches: ctx,
        breakdown: Breakdown {
            total_s: wall_s * cfg.clients as f64,
            log_work_s: ns("log.fill_ns"),
            log_contention_s: ns("log.reserve_ns") + ns("log.release_ns"),
            lock_wait_s: ns("lock.wait_ns"),
            flush_wait_s: ns("db.flush_wait_ns"),
        },
        flushes: grew("flush.flushes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::device::{DeviceFault, FaultDevice, SimDevice};

    fn rec(key: u64, size: usize) -> Vec<u8> {
        let mut r = vec![1u8; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    fn small_opts(protocol: CommitProtocol) -> DbOptions {
        DbOptions {
            protocol,
            log_config: aether_core::LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        }
    }

    fn small_db(protocol: CommitProtocol) -> Arc<Db> {
        loaded(Db::open(small_opts(protocol)))
    }

    fn loaded(db: Arc<Db>) -> Arc<Db> {
        db.create_table(40, 64);
        for k in 0..64 {
            db.load(0, k, &rec(k, 40)).unwrap();
        }
        db.setup_complete();
        db
    }

    fn bump_body(db: &Db, txn: &mut Transaction, rng: &mut StdRng, _c: usize) -> StorageResult<()> {
        use rand::Rng;
        let key = rng.gen_range(0..64u64);
        db.update_with(txn, 0, key, |r| r[8] = r[8].wrapping_add(1))
    }

    #[test]
    fn driver_counts_durable_commits() {
        for protocol in [
            CommitProtocol::Baseline,
            CommitProtocol::Elr,
            CommitProtocol::Pipelined,
        ] {
            let db = small_db(protocol);
            let r = run_closed_loop(
                &db,
                &DriverConfig {
                    clients: 2,
                    duration: Duration::from_millis(200),
                    seed: 1,
                },
                &bump_body,
            );
            assert!(r.committed > 0, "{protocol:?}: no commits");
            assert_eq!(
                r.committed, r.submitted,
                "{protocol:?}: drain must complete every submitted commit"
            );
            assert!(r.tps > 0.0);
            assert!(r.breakdown.total_s > 0.0);
        }
    }

    #[test]
    fn a_poisoned_log_ends_the_drain() {
        // Once the device fails for good every commit resolves with an
        // error and never counts as committed: the drain must end when the
        // last one resolves, not wait out its 10 s bound.
        for protocol in [CommitProtocol::Pipelined, CommitProtocol::Baseline] {
            let device = Arc::new(FaultDevice::new(
                Arc::new(SimDevice::new(Duration::ZERO)),
                &[DeviceFault::FailSync {
                    nth: 21,
                    times: u64::MAX,
                    transient: false,
                }],
            ));
            let db = loaded(Db::open_with_device(small_opts(protocol), device));
            let cfg = DriverConfig {
                clients: 2,
                duration: Duration::from_millis(200),
                seed: 3,
            };
            let start = Instant::now();
            let r = run_closed_loop(&db, &cfg, &bump_body);
            let took = start.elapsed();
            assert!(
                db.log().is_poisoned(),
                "{protocol:?}: the device never failed"
            );
            assert!(r.committed < r.submitted, "{protocol:?}: {r:?}");
            assert!(
                took < cfg.duration + Duration::from_secs(1),
                "{protocol:?}: a {:?} run took {took:?}",
                cfg.duration
            );
        }
    }

    #[test]
    fn retryable_aborts_are_counted_not_fatal() {
        let db = small_db(CommitProtocol::Baseline);
        let flaky = |db: &Db, txn: &mut Transaction, rng: &mut StdRng, c: usize| {
            bump_body(db, txn, rng, c)?;
            use rand::Rng;
            if rng.gen_bool(0.3) {
                // Simulate a workload-level failure → abort path.
                return Err(aether_storage::StorageError::KeyNotFound { table: 0, key: 1 });
            }
            Ok(())
        };
        let r = run_closed_loop(
            &db,
            &DriverConfig {
                clients: 2,
                duration: Duration::from_millis(200),
                seed: 2,
            },
            &flaky,
        );
        assert!(r.aborts > 0);
        assert!(r.committed > 0);
    }
}
