//! Cluster supervision: a watchdog actor that keeps a [`ReplicatedDb`]
//! healthy without operator action.
//!
//! The supervisor owns the cluster and probes it on a fixed cadence:
//!
//! * **Replica healing.** A replica whose gate-side ack watermark trails
//!   the primary's durable frontier by more than
//!   [`SupervisorConfig::lag_bytes`] continuously for
//!   [`SupervisorConfig::lag_grace`] is quarantined and replaced via
//!   [`ReplicatedDb::heal_replica`]: a fresh pipeline is seeded from a new
//!   checkpoint snapshot, and the laggard's stalled watermark is
//!   unregistered so it stops clamping log truncation and holding the
//!   replication floor down. The lag signal is primary-side on purpose — a
//!   replica behind a wedged link cannot report its own status.
//! * **Failover.** A poisoned primary log (terminal I/O failure — see
//!   `AetherError::Poisoned`) or a poisoned commit gate means the primary
//!   is done. The supervisor releases any committers still blocked on
//!   replica acks, picks the most-caught-up replica, and promotes it to a
//!   standalone primary through restart recovery over the shipped
//!   prefix. The promoted database is then available from
//!   [`Supervisor::promoted`] / [`Supervisor::wait_promoted`].
//!
//! All timing goes through [`aether_core::runtime`], so a supervised
//! cluster is deterministic under a simulated runtime like everything else.

use crate::cluster::ReplicatedDb;
use aether_core::runtime::{self, lock, WaitSet};
use aether_core::telemetry::{CounterId, Telemetry, TelemetrySnapshot, Unit};
use aether_storage::db::Db;
use aether_storage::recovery::RecoveryStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Supervisor tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Health-probe cadence.
    pub probe: Duration,
    /// Ack lag (bytes behind the primary's durable frontier) beyond which a
    /// replica counts as lagging.
    pub lag_bytes: u64,
    /// How long a replica may stay lagging before it is quarantined and
    /// healed. Grace absorbs transient lag spikes (a big commit group, a
    /// slow-link burst) that would otherwise cause heal thrash.
    pub lag_grace: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            probe: Duration::from_millis(2),
            lag_bytes: 256 * 1024,
            lag_grace: Duration::from_millis(20),
        }
    }
}

/// What the supervisor has done so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Health probes completed.
    pub probes: u64,
    /// Replica pipelines quarantined and replaced.
    pub heals: u64,
    /// Failovers performed (0 or 1 — promotion ends supervision).
    pub promotions: u64,
}

enum SupState {
    Running(ReplicatedDb),
    Promoted {
        db: Arc<Db>,
        stats: RecoveryStats,
    },
    /// Failover was required but promotion itself failed — terminal.
    Failed(String),
    Stopped,
}

struct SupShared {
    state: Mutex<SupState>,
    /// The supervised primary's registry, which keeps the counters below
    /// after a failover replaces the primary.
    tel: Arc<Telemetry>,
    /// `sup.probes`: health probes completed.
    probes: CounterId,
    /// `sup.heals`: replica pipelines quarantined and replaced.
    heals: CounterId,
    /// `sup.promotions`: failovers performed.
    promotions: CounterId,
    /// Set once a failover has left `Running` for good. `wait_promoted`
    /// looks here, not at `state`, which the watch loop holds across a heal
    /// or a promotion.
    settled: AtomicBool,
    stop: AtomicBool,
    /// Where the watch loop sleeps out a probe and `wait_promoted` waits.
    wake: WaitSet,
}

/// A running supervisor: owns the cluster, heals laggards, fails over on
/// primary death. See the module docs for the policy.
pub struct Supervisor {
    shared: Arc<SupShared>,
    thread: Option<runtime::JoinHandle<()>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = self.report();
        f.debug_struct("Supervisor")
            .field("probes", &r.probes)
            .field("heals", &r.heals)
            .field("promotions", &r.promotions)
            .finish()
    }
}

impl Supervisor {
    /// Take ownership of `cluster` and start supervising it under `cfg`.
    pub fn start(cluster: ReplicatedDb, cfg: SupervisorConfig) -> Supervisor {
        let rt = cluster.primary().log().config().runtime.clone();
        let tel = Arc::clone(cluster.primary().log().telemetry());
        let shared = Arc::new(SupShared {
            state: Mutex::new(SupState::Running(cluster)),
            probes: tel.counter("sup.probes", Unit::Count),
            heals: tel.counter("sup.heals", Unit::Count),
            promotions: tel.counter("sup.promotions", Unit::Count),
            tel,
            settled: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            wake: WaitSet::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            rt.spawn("aether-supervisor", move || watch_loop(shared, cfg))
        };
        Supervisor {
            shared,
            thread: Some(thread),
        }
    }

    /// Counters so far.
    pub fn report(&self) -> SupervisorReport {
        let (tel, sh) = (&self.shared.tel, &self.shared);
        SupervisorReport {
            probes: tel.count(sh.probes),
            heals: tel.count(sh.heals),
            promotions: tel.count(sh.promotions),
        }
    }

    /// A snapshot of the registry the supervisor counts on (the supervised
    /// primary's), tagged with `scope`.
    pub fn telemetry_snapshot(&self, scope: &str) -> TelemetrySnapshot {
        self.shared.tel.snapshot(scope)
    }

    /// The current primary: the supervised cluster's while it is healthy,
    /// the promoted replica's database after a failover, `None` if
    /// supervision ended without a usable primary.
    pub fn primary(&self) -> Option<Arc<Db>> {
        match &*lock(&self.shared.state) {
            SupState::Running(c) => Some(Arc::clone(c.primary())),
            SupState::Promoted { db, .. } => Some(Arc::clone(db)),
            _ => None,
        }
    }

    /// The promoted post-failover primary, with its recovery statistics.
    pub fn promoted(&self) -> Option<(Arc<Db>, RecoveryStats)> {
        match &*lock(&self.shared.state) {
            SupState::Promoted { db, stats } => Some((Arc::clone(db), stats.clone())),
            _ => None,
        }
    }

    /// Why failover failed, if it did.
    pub fn failure(&self) -> Option<String> {
        match &*lock(&self.shared.state) {
            SupState::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }

    /// Block until a failover completes (returning the promoted primary) or
    /// `timeout` elapses (`None` — the cluster may simply be healthy).
    pub fn wait_promoted(&self, timeout: Duration) -> Option<(Arc<Db>, RecoveryStats)> {
        // Acquire: pairs with the store after the promotion's outcome was
        // written under `state`, so `promoted` below reads that outcome.
        let settled = || self.shared.settled.load(Ordering::Acquire).then_some(());
        self.shared.wake.wait_until(Some(timeout), settled)?;
        self.promoted()
    }

    /// Stop the watchdog (idempotent). The cluster (or promoted primary)
    /// stays in place; reclaim a still-healthy cluster with
    /// [`Supervisor::release`].
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stop supervising and hand the cluster back, if no failover consumed
    /// it.
    pub fn release(mut self) -> Option<ReplicatedDb> {
        self.stop();
        let mut st = lock(&self.shared.state);
        match std::mem::replace(&mut *st, SupState::Stopped) {
            SupState::Running(c) => Some(c),
            other => {
                *st = other;
                None
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn watch_loop(shared: Arc<SupShared>, cfg: SupervisorConfig) {
    let grace_ns = cfg.lag_grace.as_nanos() as u64;
    // Runtime-monotonic instant each replica's lag episode began; None
    // while within bounds. Index-parallel with the cluster's pipelines.
    let mut lag_since: Vec<Option<u64>> = Vec::new();
    let stopped = || shared.stop.load(Ordering::Relaxed).then_some(());
    while stopped().is_none() {
        let mut st = lock(&shared.state);
        let cluster = match &mut *st {
            SupState::Running(c) => c,
            _ => return,
        };
        shared.tel.inc(shared.probes);

        // Primary death: poisoned log (terminal I/O failure) or poisoned
        // commit gate (replication declared dead).
        let log = Arc::clone(cluster.primary().log());
        if log.is_poisoned() || log.commit_gate().is_poisoned() {
            let cluster = match std::mem::replace(&mut *st, SupState::Stopped) {
                SupState::Running(c) => c,
                _ => unreachable!("state checked above"),
            };
            *st = promote_best(cluster, &shared);
            drop(st);
            shared.settled.store(true, Ordering::SeqCst);
            shared.wake.notify();
            return;
        }

        // Replica lag: primary-side ack watermarks vs the durable frontier.
        let durable = log.durable_lsn();
        let n = cluster.replicas().len();
        lag_since.resize(n, None);
        let now = runtime::monotonic_ns();
        let mut heal = None;
        for (i, since) in lag_since.iter_mut().enumerate() {
            if durable.since(cluster.ack_lsn(i)) > cfg.lag_bytes {
                let t0 = *since.get_or_insert(now);
                if now.saturating_sub(t0) >= grace_ns && heal.is_none() {
                    heal = Some(i);
                }
            } else {
                *since = None;
            }
        }
        // One heal per probe: each heal takes a checkpoint snapshot, and a
        // mass outage should converge a pipeline at a time, not stampede.
        if let Some(i) = heal {
            if cluster.heal_replica(i).is_ok() {
                shared.tel.inc(shared.heals);
                lag_since[i] = None;
            }
        }
        drop(st);
        shared.wake.wait_until(Some(cfg.probe), stopped);
    }
}

/// Failover: release blocked committers, promote the most-caught-up
/// replica.
fn promote_best(mut cluster: ReplicatedDb, shared: &SupShared) -> SupState {
    // Poison the gate (idempotent) so committers blocked on acks return
    // Unreplicated instead of hanging while recovery runs.
    cluster.kill_primary();
    let i = cluster.most_caught_up();
    match cluster.promote(i) {
        Ok((db, stats)) => {
            shared.tel.inc(shared.promotions);
            SupState::Promoted { db, stats }
        }
        Err(e) => SupState::Failed(e.to_string()),
    }
}
