//! The read-replica serving tier: a [`ReadRouter`] load-balancing
//! bounded-staleness snapshot reads over N replicas.
//!
//! The paper's single serial log makes *writes* scale up, not out; reads
//! are the traffic that scales out, across the continuous-redo standbys the
//! shipping pipeline already keeps warm. The router turns those standbys
//! into a serving tier with an explicit staleness contract:
//!
//! * **Load balancing** — reads go round-robin over the admitted
//!   replicas: maximal spread, freshness-blind (a stale pick pays the
//!   blocking wait below). In `fig16_read_scaleout` it out-reads the
//!   least-lagged and freshness-weighted picks it replaced at 2 and 4
//!   replicas (EXPERIMENTS.md): those crowd the freshest replica. Reads
//!   themselves are lock-free snapshot reads.
//! * **Bounded staleness** — [`ReadRouter::read_at_least`] guarantees the
//!   returned snapshot's applied watermark covers the requested LSN. If the
//!   chosen replica is behind, the read blocks on its applied watermark for
//!   at most the configured budget, then falls back to a fresher replica,
//!   and finally to the primary (which is never stale).
//! * **Read-your-writes** — [`aether_storage::db::Db::commit`] (or
//!   [`crate::cluster::ReplicatedDb::commit`]) returns a [`CommitToken`] in
//!   its outcome;
//!   a [`Session`] folds tokens into a running maximum and
//!   [`ReadRouter::read_session`] threads that watermark into every read.
//!   Invariant 9 of DESIGN.md: a session read never observes state older
//!   than the session's token.
//! * **Quarantine** — a replica that falls further behind the primary's
//!   durable frontier than the configured lag bound, or that misses a
//!   read's staleness budget, stops receiving reads until it catches back
//!   up (re-admission is automatic, by watermark, on the routing path).
//!
//! Every decision is counted on the primary's telemetry registry
//! (`router.routed`, `router.blocked`, `router.fallback_*`,
//! `router.quarantines`, `router.readmissions`, and `router.routed.<i>`
//! for each replica `i`; the `router.read_ns`
//! latency histogram while telemetry is on). Counters count with telemetry
//! off, so [`ReadRouter::stats`] reads them back for tests and the
//! simulator.
//!
//! All blocking goes through [`aether_core::runtime`] and no choice is
//! random, so the router runs unmodified — and replays byte-identically —
//! under [`aether_core::runtime::Runtime::sim`].

use crate::replica::ReplicaReader;
use aether_core::commit::CommitToken;
use aether_core::lsn::AtomicLsn;
use aether_core::runtime::{self, lock};
use aether_core::telemetry::{CounterId, GaugeId, HistId, Telemetry, Unit};
use aether_core::Lsn;
use aether_storage::db::Db;
use aether_storage::error::StorageResult;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-request staleness budget: the longest a read blocks on a lagging
    /// replica's applied watermark before falling back to a fresher replica
    /// or the primary.
    pub budget: Duration,
    /// Quarantine threshold: a replica whose applied watermark trails the
    /// primary's durable frontier by more than this many log bytes stops
    /// receiving reads. (A replica that stopped acking entirely trips this
    /// bound as soon as the primary's frontier moves past it.)
    pub quarantine_lag: u64,
    /// Re-admission threshold: a quarantined replica rejoins the rotation
    /// once its applied watermark is within this many log bytes of the
    /// primary's durable frontier. Must be below `quarantine_lag` or the
    /// replica would flap.
    pub readmit_lag: u64,
    /// Modeled per-replica service time: when nonzero, each read occupies
    /// its replica exclusively for this long (virtual time under
    /// simulation). This is the in-process stand-in for a remote replica's
    /// bounded serving capacity — it is what makes read throughput scale
    /// with replica count measurable in `fig16_read_scaleout` — and is zero
    /// (no model) by default.
    pub service: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            budget: Duration::from_millis(50),
            quarantine_lag: 1 << 20,
            readmit_lag: 1 << 14,
            service: Duration::ZERO,
        }
    }
}

/// A client session accumulating commit tokens for read-your-writes.
///
/// [`Session::observe`] folds each commit's [`CommitToken`] into a running
/// maximum (tokens are totally ordered by log position, so the max covers
/// every observed commit); [`ReadRouter::read_session`] then uses the
/// watermark as the read's freshness floor. Shareable across threads —
/// wrap in an `Arc` for a multi-threaded session.
#[derive(Debug, Default)]
pub struct Session {
    last: AtomicLsn,
}

impl Session {
    /// A fresh session: no commits observed, any snapshot acceptable.
    pub fn new() -> Session {
        Session::default()
    }

    /// Fold a commit token into the session watermark.
    pub fn observe(&self, token: CommitToken) {
        self.last.fetch_max(token.lsn());
    }

    /// The freshness floor this session's reads must satisfy.
    pub fn watermark(&self) -> Lsn {
        self.last.load()
    }
}

/// Where a routed read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Served by replica `i` (router index).
    Replica(usize),
    /// Served by the primary (freshness fallback, or no admitted replica).
    Primary,
}

/// One routed read: the value plus the staleness evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedRead {
    /// The snapshot value (`None`: key absent at that snapshot).
    pub value: Option<Vec<u8>>,
    /// The serving source's applied watermark at read time — always `>=`
    /// the requested floor (the staleness contract).
    pub applied: Lsn,
    /// Which node served the read.
    pub source: SourceKind,
}

/// A point-in-time view of the router's decisions (valid with telemetry
/// disabled). The decision counts are the primary registry's `router.*`
/// counters, so they cover every router over that primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Reads served by a replica without blocking.
    pub routed: u64,
    /// Reads that blocked on an applied watermark and made the budget.
    pub blocked: u64,
    /// Reads that missed the chosen replica's budget and were served by a
    /// fresher replica.
    pub fallback_fresher: u64,
    /// Reads served by the primary (budget misses with no fresh-enough
    /// replica, or an empty admitted set).
    pub fallback_primary: u64,
    /// Quarantine transitions (lag bound exceeded or budget missed).
    pub quarantines: u64,
    /// Re-admissions (quarantined replica caught back up).
    pub readmissions: u64,
    /// Per-replica: currently quarantined?
    pub quarantined: Vec<bool>,
    /// Per-replica: reads served (including blocked and fresher-fallback
    /// serves).
    pub routed_per_replica: Vec<u64>,
}

/// One replica as the router sees it.
struct Node {
    reader: ReplicaReader,
    quarantined: AtomicBool,
    /// `router.routed.<i>`: reads this replica served.
    routed: CounterId,
    /// Serializes reads through one node when the service-time model is
    /// active (capacity of one request at a time, like a remote server's
    /// worker); unused (never locked) when `service` is zero.
    serving: Mutex<()>,
}

/// The name of replica `i`'s `router.routed.<i>` counter. A registry
/// keeps `&'static` names, so each index's is made once per process.
fn routed_name(i: usize) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = lock(&NAMES);
    while names.len() <= i {
        let name = format!("router.routed.{}", names.len());
        names.push(Box::leak(name.into_boxed_str()));
    }
    names[i]
}

/// Telemetry ids for the router's decision counters.
struct Metrics {
    routed: CounterId,
    blocked: CounterId,
    fallback_fresher: CounterId,
    fallback_primary: CounterId,
    quarantines: CounterId,
    readmissions: CounterId,
    quarantined_now: GaugeId,
    read_ns: HistId,
}

/// Load-balances bounded-staleness snapshot reads over a set of replicas,
/// with the primary as the always-fresh fallback. See the module docs for
/// the full contract.
pub struct ReadRouter {
    primary: Arc<Db>,
    nodes: Vec<Node>,
    cfg: RouterConfig,
    /// Round-robin cursor.
    rr: AtomicUsize,
    /// Primary-side serving slot for the service-time model.
    primary_serving: Mutex<()>,
    tel: Arc<Telemetry>,
    m: Metrics,
}

impl std::fmt::Debug for ReadRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadRouter")
            .field("replicas", &self.nodes.len())
            .finish()
    }
}

impl ReadRouter {
    /// Build a router over `readers` with `primary` as the freshness
    /// fallback. `ReplicatedDb::router` is the usual entry point; this
    /// direct constructor serves hand-wired clusters (tests, simulation).
    pub fn new(primary: Arc<Db>, readers: Vec<ReplicaReader>, cfg: RouterConfig) -> ReadRouter {
        assert!(
            cfg.readmit_lag <= cfg.quarantine_lag,
            "readmit_lag must not exceed quarantine_lag (hysteresis, not flapping)"
        );
        let tel = Arc::clone(primary.log().telemetry());
        let m = Metrics {
            routed: tel.counter("router.routed", Unit::Count),
            blocked: tel.counter("router.blocked", Unit::Count),
            fallback_fresher: tel.counter("router.fallback_fresher", Unit::Count),
            fallback_primary: tel.counter("router.fallback_primary", Unit::Count),
            quarantines: tel.counter("router.quarantines", Unit::Count),
            readmissions: tel.counter("router.readmissions", Unit::Count),
            quarantined_now: tel.gauge("router.quarantined", Unit::Count),
            read_ns: tel.histogram("router.read_ns", Unit::Nanos),
        };
        ReadRouter {
            primary,
            nodes: readers
                .into_iter()
                .enumerate()
                .map(|(i, reader)| Node {
                    reader,
                    quarantined: AtomicBool::new(false),
                    routed: tel.counter(routed_name(i), Unit::Count),
                    serving: Mutex::new(()),
                })
                .collect(),
            cfg,
            rr: AtomicUsize::new(0),
            primary_serving: Mutex::new(()),
            tel,
            m,
        }
    }

    /// Number of replicas behind this router.
    pub fn replica_count(&self) -> usize {
        self.nodes.len()
    }

    /// An unconstrained snapshot read: any admitted replica, any staleness.
    pub fn read(&self, table: u32, key: u64) -> StorageResult<RoutedRead> {
        self.read_at_least(table, key, Lsn::ZERO)
    }

    /// A session read: freshness floor = the session's token watermark, so
    /// the caller observes every commit it (or anyone whose token it
    /// folded in) has made — read-your-writes.
    pub fn read_session(
        &self,
        session: &Session,
        table: u32,
        key: u64,
    ) -> StorageResult<RoutedRead> {
        self.read_at_least(table, key, session.watermark())
    }

    /// The bounded-staleness read: the returned snapshot's applied
    /// watermark is `>= min`, whatever it takes — serve the round-robin
    /// pick if fresh enough, block up to the staleness budget while it
    /// catches up, fall back to a fresher replica, and finally to the
    /// primary.
    pub fn read_at_least(&self, table: u32, key: u64, min: Lsn) -> StorageResult<RoutedRead> {
        let t0 = self.tel.ts();
        self.maintain();
        let out = self.route(table, key, min);
        if let (Some(t0), Ok(_)) = (t0, &out) {
            let dt = runtime::monotonic_ns().saturating_sub(t0);
            self.tel.record(self.m.read_ns, dt);
        }
        out
    }

    /// Routing decision counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.tel.count(self.m.routed),
            blocked: self.tel.count(self.m.blocked),
            fallback_fresher: self.tel.count(self.m.fallback_fresher),
            fallback_primary: self.tel.count(self.m.fallback_primary),
            quarantines: self.tel.count(self.m.quarantines),
            readmissions: self.tel.count(self.m.readmissions),
            quarantined: self
                .nodes
                .iter()
                .map(|n| n.quarantined.load(Ordering::Relaxed))
                .collect(),
            routed_per_replica: self
                .nodes
                .iter()
                .map(|n| self.tel.count(n.routed))
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Quarantine bookkeeping
    // ------------------------------------------------------------------

    /// Re-evaluate quarantine state against the primary's durable frontier.
    /// Runs on every read (cheap: one atomic load per replica); transitions
    /// use compare-exchange so concurrent readers count each one once.
    fn maintain(&self) {
        let durable = self.primary.log().durable_lsn();
        let mut quarantined_now = 0i64;
        for n in &self.nodes {
            let lag = durable.raw().saturating_sub(n.reader.applied().raw());
            if n.quarantined.load(Ordering::Acquire) {
                if lag <= self.cfg.readmit_lag
                    && n.quarantined
                        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.tel.inc(self.m.readmissions);
                } else if lag > self.cfg.readmit_lag {
                    quarantined_now += 1;
                }
            } else if lag > self.cfg.quarantine_lag {
                self.quarantine(n);
                quarantined_now += 1;
            }
        }
        self.tel.gauge_set(self.m.quarantined_now, quarantined_now);
    }

    /// Quarantine one node (idempotent under races; each transition counts
    /// once).
    fn quarantine(&self, n: &Node) {
        if n.quarantined
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.tel.inc(self.m.quarantines);
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// The replicas not quarantined, by index.
    fn admitted(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| !self.nodes[i].quarantined.load(Ordering::Acquire))
    }

    fn route(&self, table: u32, key: u64, min: Lsn) -> StorageResult<RoutedRead> {
        // Admitted replicas only: a quarantined replica receives no reads
        // until re-admission (invariant (c) of tests/prop_router.rs). The
        // pick is the cursor's turn among them, found by counting twice
        // rather than collecting them; a replica quarantined between the
        // two counts can leave the turn unfilled, and then the primary
        // serves, as it does when nothing is admitted.
        let n = self.admitted().count();
        let turn = (n > 0).then(|| self.rr.fetch_add(1, Ordering::Relaxed) % n);
        let Some(pick) = turn.and_then(|k| self.admitted().nth(k)) else {
            return self.read_primary(table, key, min);
        };

        // Staleness: serve immediately if fresh enough, otherwise block on
        // its applied watermark within the budget.
        let node = &self.nodes[pick];
        if node.reader.applied() >= min {
            self.tel.inc(self.m.routed);
        } else {
            // A read that blocks counts as `blocked` or as a fallback,
            // never as `routed` too: the four outcomes partition the reads.
            if node.reader.wait_applied(min, self.cfg.budget) >= min {
                self.tel.inc(self.m.blocked);
            } else {
                // Budget missed: this replica is failing its staleness
                // contract — quarantine it and serve elsewhere.
                self.quarantine(node);
                let fresher = self
                    .admitted()
                    .filter(|&j| j != pick)
                    .map(|j| (self.nodes[j].reader.applied(), j))
                    .filter(|&(a, _)| a >= min)
                    .max_by_key(|&(a, j)| (a, std::cmp::Reverse(j)));
                if let Some((_, j)) = fresher {
                    self.tel.inc(self.m.fallback_fresher);
                    return self.read_node(j, table, key, min);
                }
                return self.read_primary(table, key, min);
            }
        }
        self.read_node(pick, table, key, min)
    }

    /// Serve from replica `i` (freshness already established: its applied
    /// watermark reached `min` before we got here, and watermarks are
    /// monotone outside snapshot rebases, which only ever move forward).
    fn read_node(&self, i: usize, table: u32, key: u64, min: Lsn) -> StorageResult<RoutedRead> {
        let node = &self.nodes[i];
        self.tel.inc(node.routed);
        let value = if self.cfg.service > Duration::ZERO {
            let _slot = lock(&node.serving);
            runtime::precise_sleep(self.cfg.service);
            node.reader.read(table, key)?
        } else {
            node.reader.read(table, key)?
        };
        Ok(RoutedRead {
            value,
            applied: node.reader.applied().max(min),
            source: SourceKind::Replica(i),
        })
    }

    /// Serve from the primary: its materialized state covers every issued
    /// commit token, so any floor is satisfied by construction.
    fn read_primary(&self, table: u32, key: u64, min: Lsn) -> StorageResult<RoutedRead> {
        self.tel.inc(self.m.fallback_primary);
        let value = if self.cfg.service > Duration::ZERO {
            let _slot = lock(&self.primary_serving);
            runtime::precise_sleep(self.cfg.service);
            self.primary.snapshot_read(table, key)?
        } else {
            self.primary.snapshot_read(table, key)?
        };
        Ok(RoutedRead {
            value,
            applied: self.primary.log().released_lsn().max(min),
            source: SourceKind::Primary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ReplicatedDb, ReplicationConfig};
    use crate::transport::LinkConfig;
    use aether_core::commit::DurabilityPolicy;
    use aether_storage::DbOptions;

    fn record(key: u64, v: u64) -> Vec<u8> {
        let mut r = vec![0u8; 16];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r[8..16].copy_from_slice(&v.to_le_bytes());
        r
    }

    fn counter_of(rec: &[u8]) -> u64 {
        u64::from_le_bytes(rec[8..16].try_into().unwrap())
    }

    fn primary() -> Arc<Db> {
        let db = Db::open(DbOptions::default());
        db.create_table(16, 8);
        for k in 0..8u64 {
            db.load(0, k, &record(k, 0)).unwrap();
        }
        db.setup_complete();
        db
    }

    #[test]
    fn round_robin_spreads_reads_across_replicas() {
        let primary = primary();
        let cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 3,
                policy: DurabilityPolicy::SemiSync(1),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        assert!(cluster.wait_catchup(Duration::from_secs(10)));
        let router = cluster.router(RouterConfig::default());
        for _ in 0..9 {
            let out = router.read(0, 3).unwrap();
            assert!(matches!(out.source, SourceKind::Replica(_)));
        }
        let st = router.stats();
        assert_eq!(st.routed, 9);
        assert_eq!(
            st.routed_per_replica,
            vec![3, 3, 3],
            "round robin must spread evenly: {st:?}"
        );
    }

    #[test]
    fn session_reads_observe_own_commits() {
        let primary = primary();
        let cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 2,
                policy: DurabilityPolicy::SemiSync(1),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        let router = cluster.router(RouterConfig {
            budget: Duration::from_secs(10),
            ..RouterConfig::default()
        });
        let session = Session::new();
        for v in 1..=20u64 {
            let mut txn = primary.begin();
            primary.update(&mut txn, 0, 5, &record(5, v)).unwrap();
            let out = cluster.commit(txn).unwrap();
            assert!(out.is_durable_now());
            session.observe(out.token());
            let read = router.read_session(&session, 0, 5).unwrap();
            assert!(read.applied >= session.watermark(), "staleness floor");
            let got = counter_of(read.value.as_deref().expect("key exists"));
            assert!(got >= v, "read-your-writes: wrote {v}, read {got}");
        }
        // SemiSync(1) acks at *received*; replay may still need the watch,
        // so some reads legitimately blocked — but none may have been
        // served below the floor (the asserts above) and none from a
        // quarantined node.
        let st = router.stats();
        assert_eq!(
            st.routed + st.blocked + st.fallback_fresher + st.fallback_primary,
            20
        );
    }

    #[test]
    fn lagging_replica_is_quarantined_and_readmitted() {
        let primary = primary();
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 1,
                policy: DurabilityPolicy::SemiSync(1),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        // Second replica behind a painfully slow link: it will trail the
        // durable frontier far past the quarantine bound.
        let lagger = cluster
            .add_replica_with_link(LinkConfig::with_latency_us(200_000))
            .unwrap();
        // Round-robin is freshness-blind, so only quarantine keeps reads off
        // the lagger — and after re-admission it must get picks again.
        let router = cluster.router(RouterConfig {
            quarantine_lag: 256,
            readmit_lag: 64,
            budget: Duration::from_millis(1),
            ..RouterConfig::default()
        });
        for v in 1..=40u64 {
            let mut txn = primary.begin();
            primary.update(&mut txn, 0, 2, &record(2, v)).unwrap();
            primary.commit(txn).unwrap();
        }
        // Reads route while the lagger trails: it must be quarantined and
        // receive nothing.
        for _ in 0..10 {
            router.read(0, 2).unwrap();
        }
        let st = router.stats();
        assert!(st.quarantines >= 1, "lagger must trip quarantine: {st:?}");
        assert!(st.quarantined[lagger], "lagger still behind: {st:?}");
        assert_eq!(
            st.routed_per_replica[lagger], 0,
            "no reads may land on a quarantined replica: {st:?}"
        );
        // Once it catches up, it is re-admitted and serves again.
        assert!(cluster.wait_catchup(Duration::from_secs(30)));
        for _ in 0..8 {
            router.read(0, 2).unwrap();
        }
        let st = router.stats();
        assert!(st.readmissions >= 1, "caught-up lagger re-admitted: {st:?}");
        assert!(!st.quarantined[lagger], "{st:?}");
        assert!(
            st.routed_per_replica[lagger] > 0,
            "re-admitted replica serves reads again: {st:?}"
        );
    }

    #[test]
    fn read_at_least_falls_back_to_primary_when_no_replica_can_satisfy() {
        let primary = primary();
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 0,
                policy: DurabilityPolicy::Async,
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        let slow = cluster
            .add_replica_with_link(LinkConfig::with_latency_us(500_000))
            .unwrap();
        let router = cluster.router(RouterConfig {
            budget: Duration::from_millis(2),
            // Huge quarantine bound: the replica stays admitted, so the
            // read exercises the budget-miss path, not the empty-set path.
            quarantine_lag: u64::MAX,
            readmit_lag: 1 << 20,
            ..RouterConfig::default()
        });
        let mut txn = primary.begin();
        primary.update(&mut txn, 0, 7, &record(7, 42)).unwrap();
        let token = primary.commit(txn).unwrap().token();
        let out = router.read_at_least(0, 7, token.lsn()).unwrap();
        assert!(out.applied >= token.lsn());
        assert_eq!(
            out.source,
            SourceKind::Primary,
            "replica {slow} lags by 500ms"
        );
        assert_eq!(counter_of(&out.value.unwrap()), 42);
        let st = router.stats();
        assert_eq!(st.fallback_primary, 1);
    }

    #[test]
    fn stats_are_the_registry_counters_with_telemetry_off() {
        let primary = primary();
        assert!(!primary.log().telemetry().on());
        let cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 2,
                policy: DurabilityPolicy::SemiSync(1),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        assert!(cluster.wait_catchup(Duration::from_secs(10)));
        let router = cluster.router(RouterConfig {
            budget: Duration::from_millis(1),
            ..RouterConfig::default()
        });
        for k in 0..8 {
            router.read(0, k).unwrap();
        }
        // A floor no replica reaches within the budget: the primary serves.
        router.read_at_least(0, 1, Lsn(1 << 40)).unwrap();
        let st = router.stats();
        let snap = primary.telemetry_snapshot("router");
        let counted = [
            "router.routed",
            "router.blocked",
            "router.fallback_fresher",
            "router.fallback_primary",
            "router.quarantines",
            "router.readmissions",
        ]
        .map(|name| snap.counter(name).unwrap());
        assert_eq!(
            [
                st.routed,
                st.blocked,
                st.fallback_fresher,
                st.fallback_primary,
                st.quarantines,
                st.readmissions
            ],
            counted,
            "{st:?}"
        );
        assert_eq!((st.routed, st.fallback_primary), (8, 1), "{st:?}");
        let per_replica = ["router.routed.0", "router.routed.1"].map(|n| snap.counter(n).unwrap());
        assert_eq!(per_replica.to_vec(), st.routed_per_replica, "{st:?}");
        assert_eq!(per_replica, [4, 4], "round-robin");
    }
}
