//! Closed-loop benchmark driver.
//!
//! N client (agent) threads each run transactions back-to-back against a
//! [`Db`] until the clock runs out — the paper's experimental setup ("60
//! clients run the TPC-B benchmark", §1.1). Completion counting is
//! *durable*: a transaction counts when its commit action fires, which for
//! flush pipelining happens on the flush daemon's notification — so the
//! numbers never credit unsafe work (except under `AsyncCommit`, whose
//! whole point is that they do).

use crate::measure::{self, Breakdown};
use aether_storage::error::StorageResult;
use aether_storage::txn::Transaction;
use aether_storage::Db;
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

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            clients: 4,
            duration: Duration::from_millis(500),
            seed: 0xAE7_AE7,
        }
    }
}

/// Result of one driver run.
#[derive(Debug, Clone)]
pub struct DriverResult {
    /// Transactions whose commit became durable (the throughput metric).
    pub committed: u64,
    /// Commits submitted (== committed unless the run was cut short).
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

/// A transaction body: runs inside an open transaction; `Ok` commits,
/// retryable errors abort-and-retry, other errors abort-and-continue
/// (TATP's expected "failed" transactions).
pub type TxnBody = dyn Fn(&Db, &mut Transaction, &mut StdRng, usize) -> StorageResult<()> + Sync;

/// Run `body` closed-loop from `cfg.clients` threads.
pub fn run_closed_loop(db: &Arc<Db>, cfg: &DriverConfig, body: &TxnBody) -> DriverResult {
    db.log().set_timing(true);

    let committed = Arc::new(AtomicU64::new(0));
    let submitted = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    let log_before = db.log().stats();
    let lock_wait_before = db.locks().wait_ns();
    let flush_wait_before = db.stats().flush_wait_ns();
    let ctx_before = measure::voluntary_ctx_switches();
    let flushes_before = db.log().flush_count();

    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..cfg.clients {
            let db = Arc::clone(db);
            let committed = Arc::clone(&committed);
            let submitted = &submitted;
            let aborts = &aborts;
            let stop = &stop;
            let mut rng = StdRng::seed_from_u64(cfg.seed + client as u64);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = db.begin();
                    match body(&db, &mut txn, &mut rng, client) {
                        Ok(()) => {
                            let c = Arc::clone(&committed);
                            submitted.fetch_add(1, Ordering::Relaxed);
                            let _ = db.commit_tokened_with(
                                txn,
                                Box::new(move |durable| {
                                    if durable.is_ok() {
                                        c.fetch_add(1, Ordering::Relaxed);
                                    }
                                }),
                            );
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

    // Drain: make every submitted commit durable and wait for callbacks.
    let _ = db.log().flush_all();
    let target = submitted.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(10);
    while committed.load(Ordering::Relaxed) < target && Instant::now() < deadline {
        let _ = db.log().flush_all();
        std::thread::sleep(Duration::from_micros(200));
    }

    let log_after = db.log().stats();
    let log = log_after.delta(&log_before);
    let lock_wait = db.locks().wait_ns() - lock_wait_before;
    let flush_wait = db.stats().flush_wait_ns() - flush_wait_before;
    let ctx = measure::voluntary_ctx_switches() - ctx_before;
    let flushes = db.log().flush_count() - flushes_before;

    let wall_s = wall.as_secs_f64();
    let committed = committed.load(Ordering::Relaxed);
    DriverResult {
        committed,
        submitted: target,
        aborts: aborts.load(Ordering::Relaxed),
        wall_s,
        tps: committed as f64 / wall_s,
        ctx_switches: ctx,
        breakdown: Breakdown {
            total_s: wall_s * cfg.clients as f64,
            log_work_s: measure::ns_to_s(log.fill_ns),
            log_contention_s: measure::ns_to_s(log.acquire_wait_ns + log.release_wait_ns),
            lock_wait_s: measure::ns_to_s(lock_wait),
            flush_wait_s: measure::ns_to_s(flush_wait),
        },
        flushes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_storage::{CommitProtocol, DbOptions};

    fn rec(key: u64, size: usize) -> Vec<u8> {
        let mut r = vec![1u8; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    fn small_db(protocol: CommitProtocol) -> Arc<Db> {
        let opts = DbOptions {
            protocol,
            log_config: aether_core::LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        };
        let db = Db::open(opts);
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
