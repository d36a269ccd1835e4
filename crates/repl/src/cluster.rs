//! Wiring: a primary database with N log-shipping replicas.
//!
//! [`ReplicatedDb::attach`] takes a prepared primary (tables created, bulk
//! load done, [`Db::setup_complete`] called), captures a checkpoint
//! [`BaseSnapshot`] (pages + DPT + the truncation-safe start LSN),
//! seeds each replica from it (the snapshot shares the primary's stored
//! page images; a replica copies each page once, into its own frames),
//! builds the frame/ack links, spawns replicas and shippers, and installs
//! the durability policy on the primary's commit gate. From then on every
//! commit obeys the policy: `Async` acks locally, `SemiSync(k)`
//! additionally waits for `k` replica acks — amortized per flush group,
//! not per transaction.
//!
//! Because every replica starts from a snapshot rather than LSN 0,
//! [`ReplicatedDb::add_replica`] can join a **fresh replica to a
//! long-running cluster whose log prefix has long been recycled** — the
//! defining requirement for running replication and checkpoint-driven log
//! truncation together.

use crate::replica::{Replica, ReplicaStatus};
use crate::router::{ReadRouter, RouterConfig};
use crate::shipper::{ack_link, Shipper, ShipperConfig};
use crate::transport::LinkConfig;
use aether_core::commit::{DurabilityPolicy, ReplicaAck};
use aether_core::runtime;
use aether_core::Lsn;
use aether_storage::db::Db;
use aether_storage::error::StorageResult;
use aether_storage::recovery::RecoveryStats;
use aether_storage::replay::{self, BaseSnapshot};
use aether_storage::txn::{CommitOutcome, Transaction};
use std::sync::Arc;
use std::time::Duration;

/// Cluster-level replication settings.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Commit durability policy installed on the primary.
    pub policy: DurabilityPolicy,
    /// Simulated link between primary and each replica (both directions).
    pub link: LinkConfig,
    /// Shipper tuning.
    pub shipper: ShipperConfig,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 1,
            policy: DurabilityPolicy::SemiSync(1),
            link: LinkConfig::default(),
            shipper: ShipperConfig::default(),
        }
    }
}

/// A primary plus its shipping pipelines and replicas.
pub struct ReplicatedDb {
    primary: Arc<Db>,
    shippers: Vec<Shipper>,
    replicas: Vec<Replica>,
    /// Gate-side ack handle per pipeline (index-parallel with the other
    /// vecs); kept so [`ReplicatedDb::heal_replica`] can unregister a dead
    /// pipeline's watermark instead of letting it clamp truncation forever.
    acks: Vec<Arc<ReplicaAck>>,
    cfg: ReplicationConfig,
}

impl std::fmt::Debug for ReplicatedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedDb")
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

impl ReplicatedDb {
    /// Attach `cfg.replicas` replicas to a prepared primary and install the
    /// durability policy. Each replica bootstraps from a checkpoint
    /// [`BaseSnapshot`] — pages, DPT and the truncation-safe start LSN
    /// — so attach works identically on a fresh primary and on one whose
    /// log prefix has already been recycled; the log is shipped from the
    /// snapshot LSN onward (replay is idempotent over any overlap thanks to
    /// page LSNs).
    pub fn attach(primary: Arc<Db>, cfg: ReplicationConfig) -> StorageResult<ReplicatedDb> {
        let mut cluster = ReplicatedDb {
            primary,
            shippers: Vec::with_capacity(cfg.replicas),
            replicas: Vec::with_capacity(cfg.replicas),
            acks: Vec::with_capacity(cfg.replicas),
            cfg,
        };
        let snap = replay::base_snapshot(&cluster.primary);
        for _ in 0..cluster.cfg.replicas {
            let link = cluster.cfg.link.clone();
            cluster.spawn_pipeline(&snap, link)?;
        }
        // Policy last: commits block on acks only once replicas exist.
        cluster
            .primary
            .log()
            .set_durability_policy(cluster.cfg.policy);
        Ok(cluster)
    }

    /// Join one more replica to a *running* cluster. The newcomer bootstraps
    /// from a fresh checkpoint snapshot and receives log frames only from
    /// the snapshot LSN onward — the recycled history below the log's
    /// low-water mark is never needed, which is what keeps long-running
    /// replicated clusters (re)seedable at all. Returns the new replica's
    /// index.
    pub fn add_replica(&mut self) -> StorageResult<usize> {
        let snap = replay::base_snapshot(&self.primary);
        let link = self.cfg.link.clone();
        self.spawn_pipeline(&snap, link)?;
        Ok(self.replicas.len() - 1)
    }

    /// [`ReplicatedDb::add_replica`] with a per-replica link instead of the
    /// cluster-wide one — the way to wire a deliberately slow (lagging)
    /// replica next to healthy ones, as the router quarantine tests and the
    /// simulator's lagging-replica fault do. Returns the new replica's
    /// index.
    pub fn add_replica_with_link(&mut self, link: LinkConfig) -> StorageResult<usize> {
        let snap = replay::base_snapshot(&self.primary);
        self.spawn_pipeline(&snap, link)?;
        Ok(self.replicas.len() - 1)
    }

    /// Build one replica + shipper pipeline seeded from `snap`, connected
    /// over `link_cfg`, and append it to the cluster.
    fn spawn_pipeline(&mut self, snap: &BaseSnapshot, link_cfg: LinkConfig) -> StorageResult<()> {
        let (replica, shipper, ack) = self.build_pipeline(snap, link_cfg)?;
        self.replicas.push(replica);
        self.shippers.push(shipper);
        self.acks.push(ack);
        Ok(())
    }

    /// Build one replica + shipper pipeline seeded from `snap` without
    /// attaching it — the caller decides whether it appends (new replica)
    /// or replaces a quarantined one in place ([`ReplicatedDb::heal_replica`]).
    fn build_pipeline(
        &self,
        snap: &BaseSnapshot,
        link_cfg: LinkConfig,
    ) -> StorageResult<(Replica, Shipper, Arc<ReplicaAck>)> {
        let gate = self.primary.log().commit_gate();
        // The snapshot implicitly covers everything below its LSN, so the
        // newcomer must not drag the truncation clamp (slowest ack) to 0.
        let ack = gate.register_replica_at(snap.start_lsn);
        let ack_tx = ack_link(
            self.primary.log(),
            Arc::clone(&ack),
            LinkConfig {
                // Acks never reorder meaningfully (cumulative max), so the
                // return path only carries the latency. The chaos switch is
                // shared: a partition cuts both directions at once.
                reorder_period: 0,
                ..link_cfg.clone()
            },
        );
        let spawned =
            Replica::spawn_from_snapshot(self.primary.options().clone(), snap, link_cfg, ack_tx);
        let (replica, frame_tx) = match spawned {
            Ok(pair) => pair,
            Err(e) => {
                gate.unregister_replica(&ack);
                return Err(e);
            }
        };
        let shipper = Shipper::spawn(
            Arc::clone(&self.primary),
            frame_tx,
            snap.start_lsn,
            self.cfg.shipper.clone(),
        );
        Ok((replica, shipper, ack))
    }

    /// Replace replica `i`'s entire pipeline with a fresh one seeded from a
    /// new checkpoint snapshot — the supervision path for a replica that
    /// fell irrecoverably behind (wedged link, stalled acks). The
    /// replacement is built *first*, so a failure leaves the old pipeline
    /// untouched; then the old shipper and replica are stopped and
    /// the old ack watermark is unregistered from the commit gate, so the
    /// quarantined replica stops clamping log truncation and holding the
    /// replication floor down. Existing [`ReadRouter`]s keep serving from
    /// the old (frozen) standby; rebuild them after a heal.
    pub fn heal_replica(&mut self, i: usize) -> StorageResult<()> {
        if i >= self.replicas.len() || self.shippers.len() != self.replicas.len() {
            return Err(aether_core::AetherError::Config(format!(
                "heal_replica({i}): no active pipeline at that index"
            ))
            .into());
        }
        let snap = replay::base_snapshot(&self.primary);
        let (replica, shipper, ack) = self.build_pipeline(&snap, self.cfg.link.clone())?;
        // New ack registered before the old is removed: replica_count never
        // dips, so a SemiSync floor cannot transiently misfire.
        let mut old_shipper = std::mem::replace(&mut self.shippers[i], shipper);
        let mut old_replica = std::mem::replace(&mut self.replicas[i], replica);
        let old_ack = std::mem::replace(&mut self.acks[i], ack);
        old_shipper.stop();
        old_replica.stop();
        self.primary
            .log()
            .commit_gate()
            .unregister_replica(&old_ack);
        // Dropping the laggard's watermark may complete gated commits.
        self.primary.log().replication_recheck();
        Ok(())
    }

    /// The commit gate's view of replica `i`'s acknowledged watermark — the
    /// primary-side lag signal supervision acts on (replica-side status
    /// needs the replica to still be responsive; this does not).
    pub fn ack_lsn(&self, i: usize) -> Lsn {
        self.acks[i].acked()
    }

    /// The primary database.
    pub fn primary(&self) -> &Arc<Db> {
        &self.primary
    }

    /// Commit on the primary under the cluster's durability policy. Feed
    /// the outcome's [`CommitOutcome::token`] to a
    /// [`crate::router::Session`] and the router's session reads are
    /// guaranteed to observe this commit (read-your-writes).
    pub fn commit(&self, txn: Transaction) -> StorageResult<CommitOutcome> {
        self.primary.commit(txn)
    }

    /// A [`ReadRouter`] serving bounded-staleness reads over this cluster's
    /// replicas, with the primary as the freshness fallback. The router
    /// holds lightweight reader handles — cluster lifecycle ([`promote`],
    /// [`shutdown`]) is unaffected, and several routers (e.g. with
    /// different policies) can coexist over one cluster.
    ///
    /// [`promote`]: ReplicatedDb::promote
    /// [`shutdown`]: ReplicatedDb::shutdown
    pub fn router(&self, cfg: RouterConfig) -> ReadRouter {
        ReadRouter::new(
            Arc::clone(&self.primary),
            self.replicas.iter().map(|r| r.reader()).collect(),
            cfg,
        )
    }

    /// Replica `i`.
    pub fn replica(&self, i: usize) -> &Replica {
        &self.replicas[i]
    }

    /// All replicas.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Status of every replica.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        self.replicas.iter().map(|r| r.status()).collect()
    }

    /// Block until every replica has replayed the primary's current durable
    /// frontier (true) or `timeout` elapses (false).
    pub fn wait_catchup(&self, timeout: Duration) -> bool {
        let target = self.primary.log().durable_lsn();
        let deadline = runtime::monotonic_ns().saturating_add(timeout.as_nanos() as u64);
        self.replicas.iter().all(|r| {
            let left = deadline.saturating_sub(runtime::monotonic_ns());
            r.wait_replay(target, Duration::from_nanos(left))
        })
    }

    /// Simulate a primary failure: cut the network (stop all shippers) and
    /// poison the commit gate, releasing any committer still blocked on
    /// replica acks. Those commits return [`CommitOutcome::Unreplicated`] —
    /// on a real failed primary the client's session dies with an
    /// indeterminate outcome; here the API reports exactly that
    /// indeterminacy instead of a false success. Replicas keep whatever
    /// they durably received.
    pub fn kill_primary(&mut self) {
        for s in &mut self.shippers {
            s.stop();
        }
        self.shippers.clear();
        self.primary.log().commit_gate().poison();
        self.primary.log().replication_recheck();
    }

    /// Index of the replica with the most durably-received bytes — the
    /// failover candidate (under `SemiSync(k)`, every acked
    /// commit is on at least `k` replicas, so the most-caught-up one has
    /// them all).
    pub fn most_caught_up(&self) -> usize {
        self.replicas
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.status().received_lsn)
            .map(|(i, _)| i)
            .expect("at least one replica")
    }

    /// Promote replica `i` to a standalone primary via restart recovery over
    /// its shipped log prefix; consumes the cluster (the old primary is
    /// dead, the other replicas would re-seed from the new primary).
    pub fn promote(mut self, i: usize) -> StorageResult<(Arc<Db>, RecoveryStats)> {
        for s in &mut self.shippers {
            s.stop();
        }
        self.shippers.clear();
        let replica = self.replicas.swap_remove(i);
        replica.promote()
    }

    /// Detach replication gracefully: stop shippers and replicas and
    /// uninstall the durability policy, so the primary stays fully usable —
    /// subsequent commits are local-only instead of blocking forever on
    /// acks that will never come.
    pub fn shutdown(&mut self) {
        for s in &mut self.shippers {
            s.stop();
        }
        self.shippers.clear();
        for r in &mut self.replicas {
            r.stop();
        }
        self.primary
            .log()
            .set_durability_policy(DurabilityPolicy::Async);
    }
}

impl Drop for ReplicatedDb {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::runtime::Runtime;
    use aether_storage::DbOptions;
    use std::time::Duration;

    /// Under the simulator: a two-replica SemiSync cluster over 200 µs links
    /// with one commit replicated, then `act` on it, timed in virtual ns.
    fn virtual_ns_to(act: impl FnOnce(&mut ReplicatedDb)) -> u64 {
        let rt = Runtime::sim(44);
        let g = rt.enter();
        let primary = primary_on(rt.clone());
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 2,
                policy: DurabilityPolicy::SemiSync(1),
                link: LinkConfig::with_latency_us(200).with_runtime(rt.clone()),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        let mut txn = primary.begin();
        primary.update_with(&mut txn, 0, 1, |r| r[8] = 1).unwrap();
        assert!(primary.commit(txn).unwrap().is_durable_now());
        assert!(cluster.wait_catchup(Duration::from_secs(5)));
        let t = runtime::monotonic_ns();
        act(&mut cluster);
        let took = runtime::monotonic_ns() - t;
        drop(cluster);
        drop(primary);
        drop(g);
        took
    }

    #[test]
    fn shutdown_stops_two_replicas_at_once() {
        let took = virtual_ns_to(ReplicatedDb::shutdown);
        assert!(took < 1_000_000, "shutdown took {took} virtual ns");
    }

    #[test]
    fn heal_replica_stops_the_old_pipeline_at_once() {
        let took = virtual_ns_to(|c| c.heal_replica(0).unwrap());
        assert!(took < 1_000_000, "heal_replica took {took} virtual ns");
    }

    fn small_primary() -> Arc<Db> {
        primary_on(Runtime::real())
    }

    fn primary_on(rt: Runtime) -> Arc<Db> {
        let db = Db::open(DbOptions {
            log_config: aether_core::LogConfig::default().with_runtime(rt),
            ..DbOptions::default()
        });
        db.create_table(16, 4);
        for k in 0..4u64 {
            let mut rec = vec![0u8; 16];
            rec[..8].copy_from_slice(&k.to_le_bytes());
            db.load(0, k, &rec).unwrap();
        }
        db.setup_complete();
        db
    }

    #[test]
    fn shutdown_detaches_policy_so_primary_stays_usable() {
        let primary = small_primary();
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 1,
                policy: DurabilityPolicy::SemiSync(1),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        let mut txn = primary.begin();
        primary.update_with(&mut txn, 0, 1, |r| r[8] = 1).unwrap();
        assert!(primary.commit(txn).unwrap().is_durable_now());
        assert!(cluster.wait_catchup(Duration::from_secs(5)));
        cluster.shutdown();
        // With dead shippers the policy must be gone too, or this commit
        // would block forever waiting on acks that can never arrive.
        let mut txn = primary.begin();
        primary.update_with(&mut txn, 0, 2, |r| r[8] = 2).unwrap();
        assert!(primary.commit(txn).unwrap().is_durable_now());
    }

    #[test]
    fn kill_primary_releases_blocked_commits_as_unreplicated() {
        let primary = small_primary();
        let mut cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas: 1,
                policy: DurabilityPolicy::SemiSync(1),
                // A slow link so the kill lands while a commit waits.
                link: LinkConfig::with_latency_us(50_000),
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        let p2 = Arc::clone(&primary);
        let committer = std::thread::spawn(move || {
            let mut txn = p2.begin();
            p2.update_with(&mut txn, 0, 3, |r| r[8] = 9).unwrap();
            p2.commit(txn).unwrap()
        });
        runtime::sleep(Duration::from_millis(10));
        cluster.kill_primary();
        let outcome = committer.join().unwrap();
        assert!(
            matches!(outcome, CommitOutcome::Unreplicated(_)),
            "a commit released by the kill must report Unreplicated (got {outcome:?})"
        );
    }
}
