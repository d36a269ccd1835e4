//! One seed, one cluster, one verdict.
//!
//! [`run_seed`] decodes a [`FaultPlan`], boots a whole cluster — primary,
//! flush daemon, optional replicas with their shippers and links, worker
//! actors committing counters — entirely under [`Runtime::sim`], drives the
//! planned fault into it, and checks the DESIGN.md invariants that scenario
//! puts at risk:
//!
//! * **Dense stream** (inv. 1): the durable log parses cleanly and every
//!   record starts exactly where the previous one ended.
//! * **Commit safety / zero acked loss** (inv. 4, 6): every commit
//!   acknowledged `Durable` before a fault is present after recovery or on
//!   the promoted replica.
//! * **Recovery convergence** (inv. 5): recovery from a crash image — torn
//!   or clean — succeeds, is deterministic (same image twice ⇒ same state),
//!   and yields a database that accepts new committed work.
//! * **Replication equivalence** (inv. 6): a caught-up replica's state
//!   fingerprint equals the primary's.
//! * **Truncation safety** (inv. 7): a wedged recycler degrades log
//!   boundedness, never correctness.
//!
//! Violations are collected as strings rather than panics so a sweep can
//! report every failing seed instead of dying on the first.

use crate::plan::{Fault, FaultPlan};
use aether_core::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
use aether_core::reader::LogReader;
use aether_core::runtime::{self, Runtime};
use aether_core::{BufferKind, LogConfig, TelemetryConfig};
use aether_repl::prelude::*;
use aether_storage::recovery::recover_with_stats;
use aether_storage::replay::{snapshot_read, state_fingerprint};
use aether_storage::{Checkpointer, CommitProtocol, Db, DbOptions};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// The decoded scenario.
    pub plan: FaultPlan,
    /// Total commits acknowledged `Durable` across all workers.
    pub acked: u64,
    /// `(hash, events)` of the scheduler history — the reproducibility
    /// witness: rerunning the seed must reproduce it bit-for-bit.
    pub history: (u64, u64),
    /// Invariant violations ("" ⇒ the seed passes).
    pub violations: Vec<String>,
    /// Rendered primary telemetry snapshot (`telemetry>`-prefixed lines),
    /// captured at end of run under the virtual clock. Part of the
    /// determinism contract: same seed ⇒ byte-identical text. Dumped next
    /// to the violations when a seed fails.
    pub telemetry: String,
}

impl SimReport {
    /// True when the run satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Fixed worker record layout: key at `[0..8]`, counter at `[8..16]`.
fn record(key: u64, counter: u64) -> Vec<u8> {
    let mut r = vec![0u8; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&counter.to_le_bytes());
    r
}

fn counter_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

/// Run the scenario for `seed` to completion and report.
pub fn run_seed(seed: u64) -> SimReport {
    let plan = FaultPlan::decode(seed);
    let rt = Runtime::sim(seed);
    let guard = rt.enter();
    let (acked, violations, telemetry) = Scenario::new(&rt, &plan).run();
    let history = rt.history();
    // Link delivery threads are detached: one may still be sleeping out a
    // slow link's latency (up to ~120 virtual ms) on a message sent just
    // before shutdown. Let it land before leaving the simulation.
    runtime::sleep(Duration::from_secs(1));
    drop(guard);
    SimReport {
        seed,
        plan,
        acked,
        history,
        violations,
        telemetry,
    }
}

/// Everything a running scenario needs in one place.
struct Scenario<'a> {
    rt: &'a Runtime,
    plan: &'a FaultPlan,
    device: Arc<FaultDevice>,
    primary: Arc<Db>,
    violations: Vec<String>,
}

impl<'a> Scenario<'a> {
    fn new(rt: &'a Runtime, plan: &'a FaultPlan) -> Scenario<'a> {
        let inner: Arc<dyn LogDevice> = if plan.segmented {
            Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 16 * 1024).unwrap())
        } else {
            Arc::new(SimDevice::new(Duration::ZERO))
        };
        let device = Arc::new(FaultDevice::new(inner, &[]));
        let opts = DbOptions {
            protocol: if plan.elr {
                CommitProtocol::Elr
            } else {
                CommitProtocol::Baseline
            },
            buffer: BufferKind::Hybrid,
            log_config: LogConfig::default()
                .with_buffer_size(1 << 20)
                .with_runtime(rt.clone())
                // Telemetry always on under sim: it costs nothing in
                // virtual time and every invariant failure then comes
                // with a snapshot. Dense sampling (every 8th record)
                // keeps span traces populated at sim-sized workloads.
                .with_telemetry(TelemetryConfig {
                    enabled: true,
                    sample_every: 8,
                    ..TelemetryConfig::default()
                }),
            ..DbOptions::default()
        };
        let primary = Db::open_with_device(opts, Arc::clone(&device) as Arc<dyn LogDevice>);
        // One row per worker plus a marker row (key = plan.workers) the
        // router check commits to — worker counters stay untouched so the
        // recovery-equality invariants keep their exact-value form.
        primary.create_table(40, plan.workers + 1);
        for k in 0..=plan.workers {
            primary.load(0, k, &record(k, 0)).unwrap();
        }
        primary.setup_complete();
        Scenario {
            rt,
            plan,
            device,
            primary,
            violations: Vec::new(),
        }
    }

    fn violate(&mut self, msg: String) {
        self.rt.note(&format!("violation:{msg}"));
        self.violations.push(msg);
    }

    fn run(mut self) -> (u64, Vec<String>, String) {
        let plan = self.plan;
        // Partition switch shared by every replication link (frames and
        // acks): the PartitionThenHeal arm flips it.
        let chaos = LinkChaos::default();
        let cluster = if plan.replicas > 0 {
            let latency = match plan.fault {
                // The latency-spike fault: tens of virtual milliseconds per
                // hop. Free under the virtual clock, brutal for SemiSync.
                Fault::SlowLink => Duration::from_millis(20 + plan.fault_entropy % 30),
                _ => plan.link_latency,
            };
            Some(
                ReplicatedDb::attach(
                    Arc::clone(&self.primary),
                    ReplicationConfig {
                        replicas: plan.replicas,
                        policy: DurabilityPolicy::SemiSync(1),
                        link: LinkConfig {
                            latency,
                            reorder_period: plan.reorder_period,
                            runtime: self.rt.clone(),
                            chaos: chaos.clone(),
                        },
                        ..ReplicationConfig::default()
                    },
                )
                .unwrap(),
            )
        } else {
            None
        };

        // Worker actors: each owns one key and commits an incrementing
        // counter. `submitted` is the value handed to `commit`; `acked` the
        // last value whose commit returned `Durable`.
        let stop = Arc::new(AtomicBool::new(false));
        let submitted: Arc<Vec<AtomicU64>> =
            Arc::new((0..plan.workers).map(|_| AtomicU64::new(0)).collect());
        let acked: Arc<Vec<AtomicU64>> =
            Arc::new((0..plan.workers).map(|_| AtomicU64::new(0)).collect());
        let workers: Vec<_> = (0..plan.workers)
            .map(|k| {
                let db = Arc::clone(&self.primary);
                let stop = Arc::clone(&stop);
                let submitted = Arc::clone(&submitted);
                let acked = Arc::clone(&acked);
                let rt = self.rt.clone();
                self.rt.spawn("sim-worker", move || {
                    let mut v = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        v += 1;
                        let mut txn = db.begin();
                        db.update(&mut txn, 0, k, &record(k, v)).unwrap();
                        submitted[k as usize].store(v, Ordering::SeqCst);
                        if db.commit(txn).unwrap().is_durable_now() {
                            acked[k as usize].store(v, Ordering::SeqCst);
                            rt.note(&format!("ack:{k}:{v}"));
                        }
                        // Pace commits so virtual time moves relative to the
                        // workload (each worker at a slightly different
                        // deterministic rate).
                        runtime::sleep(Duration::from_micros(80 + k * 37));
                    }
                })
            })
            .collect();
        // Stop the workers; what each submitted last.
        let halt = {
            let (stop, submitted) = (Arc::clone(&stop), Arc::clone(&submitted));
            move || -> Vec<u64> {
                stop.store(true, Ordering::SeqCst);
                for w in workers {
                    w.join().unwrap();
                }
                submitted.iter().map(|a| a.load(Ordering::SeqCst)).collect()
            }
        };

        // Trigger: wait (in virtual time) until every worker has made
        // enough progress for the fault to land mid-flight.
        let floor_counts: &Vec<AtomicU64> = if plan.replicas > 0 || !plan.elr {
            &acked
        } else {
            // ELR acks are deliberately decoupled from durability; progress
            // is measured by submissions instead.
            &submitted
        };
        let deadline = runtime::monotonic_ns() + 120_000_000_000; // 120 virtual s
        while floor_counts
            .iter()
            .any(|a| a.load(Ordering::SeqCst) < plan.acks_before_fault)
        {
            if runtime::monotonic_ns() > deadline {
                self.violate("trigger: workload made no progress in 120 virtual s".into());
                break;
            }
            runtime::sleep(Duration::from_millis(1));
        }

        // Inject the planned fault and check its invariants.
        let acked_total = match plan.fault {
            Fault::KillPrimary => {
                self.rt.note("fault:kill-primary");
                let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                let mut cluster = cluster.expect("KillPrimary requires replicas");
                cluster.kill_primary();
                let submitted = halt();
                self.check_failover(cluster, &floor, &submitted);
                floor.iter().sum()
            }
            Fault::TornWrite => {
                self.rt.note("fault:torn-write");
                // Snapshot the floor *before* the device starts lying: those
                // acks were honestly durable and must survive recovery.
                let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                self.device
                    .arm(DeviceFault::TearWrite(plan.fault_entropy % 256));
                // Let the workload run into the dark device for a while.
                runtime::sleep(Duration::from_millis(5));
                let submitted = halt();
                // The crash keeps the synced prefix and a seed-chosen part
                // of what was written after it, up to the tear.
                let unsynced = self.device.unsynced_len();
                self.device.arm(DeviceFault::CrashKeeps(
                    (plan.fault_entropy >> 8) % (unsynced + 1),
                ));
                self.check_torn_recovery(&floor, &submitted);
                floor.iter().sum()
            }
            Fault::TruncateStuck => {
                self.rt.note("fault:truncate-stuck");
                self.device.arm(DeviceFault::TruncateStuck);
                self.check_stuck_truncation();
                self.device.disarm(DeviceFault::TruncateStuck);
                let _ = Checkpointer::checkpoint_once(&self.primary);
                let submitted = halt();
                self.check_quiesced(cluster, &submitted);
                acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
            }
            Fault::LaggingReplica => {
                self.rt.note("fault:lagging-replica");
                let mut cluster = cluster.expect("LaggingReplica requires replicas");
                // The newcomer joins over a crawling link: tens of virtual
                // milliseconds one way while the workers keep committing, so
                // its applied watermark falls ever further behind.
                let lagger = cluster
                    .add_replica_with_link(LinkConfig {
                        latency: Duration::from_millis(40 + plan.fault_entropy % 80),
                        reorder_period: 0,
                        runtime: self.rt.clone(),
                        chaos: LinkChaos::default(),
                    })
                    .unwrap();
                self.check_router(&cluster, Some(lagger));
                let submitted = halt();
                self.check_quiesced(Some(cluster), &submitted);
                acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
            }
            Fault::PartitionThenHeal => {
                self.rt.note("fault:partition-heal");
                let cluster = cluster.expect("PartitionThenHeal requires replicas");
                chaos.cut();
                // Acks already past the cut point drain first; only then is
                // the frozen floor meaningful.
                runtime::sleep(Duration::from_millis(5));
                let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                runtime::sleep(Duration::from_millis(15));
                let during: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                if during != floor {
                    // SemiSync(1) with every replica unreachable: an ack
                    // here claims replica durability that cannot exist.
                    self.violate(format!(
                        "partition: commits acked with every replica unreachable ({floor:?} -> {during:?})"
                    ));
                }
                chaos.heal();
                // The backlog drains and the workload resumes: every worker
                // must push its acked floor forward.
                let deadline = runtime::monotonic_ns() + 30_000_000_000;
                while acked
                    .iter()
                    .zip(&floor)
                    .any(|(a, &f)| a.load(Ordering::SeqCst) <= f)
                {
                    if runtime::monotonic_ns() > deadline {
                        self.violate(
                            "partition: workload never resumed within 30 virtual s of heal".into(),
                        );
                        break;
                    }
                    runtime::sleep(Duration::from_millis(1));
                }
                let submitted = halt();
                self.check_quiesced(Some(cluster), &submitted);
                acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
            }
            Fault::DiskFullOnTruncate => {
                self.rt.note("fault:disk-full-truncate");
                self.device.arm(DeviceFault::TruncateFull);
                let lw = self.primary.log().low_water();
                let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                for round in 0..3 {
                    let out = Checkpointer::checkpoint_once(&self.primary);
                    // The failure is typed and contained: the low-water mark
                    // must not move an inch while the recycler errors.
                    if self.primary.log().low_water() != lw {
                        self.violate(format!(
                            "enospc truncation: low-water moved {:?} -> {:?} on a failing recycler (round {round})",
                            lw,
                            self.primary.log().low_water()
                        ));
                    }
                    if out.segments_recycled != 0 {
                        self.violate(format!(
                            "enospc truncation: {} segments recycled through a DiskFull error",
                            out.segments_recycled
                        ));
                    }
                    runtime::sleep(Duration::from_millis(2));
                }
                if self.primary.log().is_poisoned() {
                    self.violate("enospc truncation: a recycler error poisoned the log".into());
                }
                // Commits must keep flowing under the wedged recycler.
                let deadline = runtime::monotonic_ns() + 30_000_000_000;
                while acked
                    .iter()
                    .zip(&floor)
                    .any(|(a, &f)| a.load(Ordering::SeqCst) <= f)
                {
                    if runtime::monotonic_ns() > deadline {
                        self.violate(
                            "enospc truncation: workload stalled behind a failing recycler".into(),
                        );
                        break;
                    }
                    runtime::sleep(Duration::from_millis(1));
                }
                self.device.disarm(DeviceFault::TruncateFull);
                if Checkpointer::checkpoint_once(&self.primary).device_error {
                    self.violate("enospc truncation: still failing after space returned".into());
                }
                let submitted = halt();
                self.check_quiesced(cluster, &submitted);
                acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
            }
            Fault::CrashDuringRecovery => {
                self.rt.note("fault:crash-during-recovery");
                // Acks after the power cut are lies (the dark device drops
                // the bytes); only the floor before it is honestly durable.
                let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                self.device.arm(DeviceFault::TearWrite(0));
                runtime::sleep(Duration::from_millis(5));
                let submitted = halt();
                self.check_crash_during_recovery(&floor, &submitted);
                floor.iter().sum()
            }
            Fault::TransientSyncError => {
                self.rt.note("fault:transient-sync");
                // A blip burst strictly inside the flush daemon's retry
                // budget: it must be absorbed invisibly.
                let budget = aether_core::flush::FLUSH_ATTEMPTS as u64;
                let blips = 1 + plan.fault_entropy % budget.saturating_sub(1).max(1);
                let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                self.device.arm(DeviceFault::FailSync {
                    nth: 1,
                    times: blips,
                    transient: true,
                });
                let deadline = runtime::monotonic_ns() + 30_000_000_000;
                while acked
                    .iter()
                    .zip(&floor)
                    .any(|(a, &f)| a.load(Ordering::SeqCst) <= f)
                {
                    if runtime::monotonic_ns() > deadline {
                        self.violate(format!(
                            "transient sync: workload stalled after {blips} retryable blips"
                        ));
                        break;
                    }
                    runtime::sleep(Duration::from_millis(1));
                }
                if self.primary.log().is_poisoned() {
                    self.violate(format!(
                        "transient sync: {blips} blips (budget {budget}) poisoned the log"
                    ));
                }
                let submitted = halt();
                self.check_quiesced(cluster, &submitted);
                acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
            }
            Fault::None | Fault::SlowLink => {
                // Replicated fault-free / slow-link runs also exercise the
                // read router's session contract under load.
                if let Some(c) = cluster.as_ref() {
                    self.check_router(c, None);
                }
                let submitted = halt();
                self.check_quiesced(cluster, &submitted);
                acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
            }
        };

        // Snapshot the primary's telemetry while still under the virtual
        // clock — counters, histograms, and any live sampled spans. The
        // registry outlives a killed primary (it is all Arc'd atomics), so
        // this works on every fault path.
        let telemetry = self.primary.telemetry_snapshot("sim").render_text();
        (acked_total, self.violations, telemetry)
    }

    // -- Invariant checks ---------------------------------------------------

    /// Router contract under load (inv. 9): commit markers through the
    /// cluster, fold the tokens into a session, and every session read must
    /// come back with an applied watermark at or past the session's — on
    /// whatever source round-robin and the staleness budget route it to.
    /// With a lagging replica in the set, the lagger must end up quarantined
    /// and receive no reads while it stays quarantined.
    fn check_router(&mut self, cluster: &ReplicatedDb, lagger: Option<usize>) {
        let router = cluster.router(RouterConfig {
            budget: Duration::from_millis(5),
            quarantine_lag: 512,
            readmit_lag: 256,
            service: Duration::ZERO,
        });
        let session = Session::new();
        let mut marker = 0u64;
        for _ in 0..8 {
            marker += 1;
            self.router_round(cluster, &router, &session, marker);
        }
        let Some(lag) = lagger else { return };
        // The lagger trails the durable frontier by the whole slow-link
        // pipeline; keep committing until quarantine trips (bounded, in
        // virtual time, so a miss is a real bug, not a slow machine).
        let mut rounds = 0;
        while !router.stats().quarantined[lag] {
            if rounds >= 200 {
                self.violate(format!(
                    "router quarantine: lagging replica {lag} never quarantined: {:?}",
                    router.stats()
                ));
                return;
            }
            rounds += 1;
            marker += 1;
            self.router_round(cluster, &router, &session, marker);
        }
        // While quarantined, the lagger must receive no reads.
        let before = router.stats().routed_per_replica[lag];
        for _ in 0..8 {
            marker += 1;
            self.router_round(cluster, &router, &session, marker);
        }
        let st = router.stats();
        if st.quarantined[lag] && st.routed_per_replica[lag] != before {
            self.violate(format!(
                "router quarantine: replica {lag} served {} reads while quarantined",
                st.routed_per_replica[lag] - before
            ));
        }
    }

    /// One router-check round: commit a marker through the cluster, fold
    /// the token into the session, session-read it back, and check the
    /// staleness floor and read-your-writes on whatever source served it.
    fn router_round(
        &mut self,
        cluster: &ReplicatedDb,
        router: &ReadRouter,
        session: &Session,
        marker: u64,
    ) {
        let marker_key = self.plan.workers; // the extra row no worker owns
        let mut txn = self.primary.begin();
        self.primary
            .update(&mut txn, 0, marker_key, &record(marker_key, marker))
            .unwrap();
        let token = cluster.commit(txn).unwrap().token();
        session.observe(token);
        let read = router.read_session(session, 0, marker_key).unwrap();
        if read.applied < session.watermark() {
            self.violate(format!(
                "router staleness: session floor {:?}, served applied {:?} from {:?}",
                session.watermark(),
                read.applied,
                read.source
            ));
        }
        let got = read.value.as_deref().map(counter_of).unwrap_or(0);
        if got < marker {
            self.violate(format!(
                "router read-your-writes: wrote marker {marker}, read {got} from {:?}",
                read.source
            ));
        }
        runtime::sleep(Duration::from_micros(300));
    }

    /// Fault-free / slow-link / unstuck-truncation endgame: quiesce, then
    /// check replication equivalence, the dense stream, and clean-crash
    /// recovery equal to the exact committed state.
    fn check_quiesced(&mut self, cluster: Option<ReplicatedDb>, submitted: &[u64]) {
        let _ = self.primary.log().flush_all();
        if let Some(mut cluster) = cluster {
            if !cluster.wait_catchup(Duration::from_secs(30)) {
                self.violate("replication: replica failed to catch up in 30 virtual s".into());
            }
            for (i, st) in cluster.status().iter().enumerate() {
                if st.corrupt_frames != 0 {
                    self.violate(format!(
                        "replication: replica {i} dropped {} frames on a clean link",
                        st.corrupt_frames
                    ));
                }
            }
            let want = state_fingerprint(&self.primary).unwrap();
            for i in 0..cluster.replicas().len() {
                let got = state_fingerprint(&cluster.replica(i).db()).unwrap();
                if got != want {
                    self.violate(format!(
                        "replication equivalence: replica {i} state != primary state"
                    ));
                }
            }
            cluster.shutdown();
        }
        self.check_dense_stream();
        // Clean crash at a quiesced point: recovery must reproduce exactly
        // the submitted counters (every commit completed and was flushed).
        let recovered = match recover_with_stats(self.primary.crash(), self.sim_opts()) {
            Ok((db, _)) => db,
            Err(e) => {
                self.violate(format!("recovery: clean-crash recovery failed: {e:?}"));
                return;
            }
        };
        for (k, &want) in submitted.iter().enumerate() {
            let got = snapshot_read(&recovered, 0, k as u64)
                .unwrap()
                .map(|r| counter_of(&r))
                .unwrap_or(0);
            if got != want {
                self.violate(format!(
                    "durability: key {k} recovered {got}, committed {want}"
                ));
            }
        }
    }

    /// Kill-primary endgame: promote the most-caught-up replica; every
    /// acked commit must be on it, and it must accept new work.
    fn check_failover(&mut self, cluster: ReplicatedDb, floor: &[u64], submitted: &[u64]) {
        let candidate = cluster.most_caught_up();
        let (promoted, _stats) = match cluster.promote(candidate) {
            Ok(p) => p,
            Err(e) => {
                self.violate(format!("failover: promotion failed: {e:?}"));
                return;
            }
        };
        for (k, (&a, &s)) in floor.iter().zip(submitted).enumerate() {
            let got = snapshot_read(&promoted, 0, k as u64)
                .unwrap()
                .map(|r| counter_of(&r))
                .unwrap_or(0);
            if got < a {
                self.violate(format!(
                    "zero acked loss: key {k} promoted with {got}, acked floor {a}"
                ));
            }
            if got > s {
                self.violate(format!(
                    "phantom commit: key {k} promoted with {got}, never submitted past {s}"
                ));
            }
        }
        // The promoted replica is a full primary.
        let mut txn = promoted.begin();
        promoted
            .update(&mut txn, 0, 0, &record(0, u64::MAX))
            .unwrap();
        if promoted.commit(txn).is_err() {
            self.violate("failover: promoted replica rejected new work".into());
        }
    }

    /// Torn-write endgame: recover from the torn image; the pre-tear acked
    /// floor must survive, recovery must be deterministic, and the
    /// recovered database must accept new committed work.
    fn check_torn_recovery(&mut self, floor: &[u64], submitted: &[u64]) {
        let image = self.primary.crash();
        let (r1, stats) = match recover_with_stats(image, self.sim_opts()) {
            Ok(r) => r,
            Err(e) => {
                self.violate(format!("recovery: torn-image recovery failed: {e:?}"));
                return;
            }
        };
        let (r2, stats2) = recover_with_stats(self.primary.crash(), self.sim_opts())
            .expect("second recovery of the same image");
        if state_fingerprint(&r1).unwrap() != state_fingerprint(&r2).unwrap() {
            self.violate("recovery convergence: same torn image recovered to two states".into());
        }
        if stats != stats2 {
            self.violate(format!(
                "recovery convergence: same torn image, different recovery paths: {stats:?} vs {stats2:?}"
            ));
        }
        for (k, (&a, &s)) in floor.iter().zip(submitted).enumerate() {
            let got = snapshot_read(&r1, 0, k as u64)
                .unwrap()
                .map(|r| counter_of(&r))
                .unwrap_or(0);
            if got < a {
                self.violate(format!(
                    "torn durability: key {k} recovered {got}, pre-tear acked floor {a}"
                ));
            }
            if got > s {
                self.violate(format!(
                    "torn phantom: key {k} recovered {got}, never submitted past {s}"
                ));
            }
        }
        let mut txn = r1.begin();
        r1.update(&mut txn, 0, 0, &record(0, u64::MAX)).unwrap();
        if r1.commit(txn).is_err() {
            self.violate("recovery: recovered database rejected new work".into());
        }
    }

    /// Crash-during-recovery endgame: recover once, then power-cut *again*.
    /// Recovery only redoes and appends nothing, so a crash at any point of
    /// it leaves the log it started from: the recovered database's crash
    /// image must hold that log byte for byte, and its recovery must
    /// succeed, be deterministic, and land in the once-recovered state; the
    /// pre-crash acked floor survives both crashes.
    fn check_crash_during_recovery(&mut self, floor: &[u64], submitted: &[u64]) {
        let image = self.primary.crash();
        let log = (image.log_start, image.log_bytes.clone());
        let (r1, stats1) = match recover_with_stats(image, self.sim_opts()) {
            Ok(r) => r,
            Err(e) => {
                self.violate(format!("recovery: first recovery failed: {e:?}"));
                return;
            }
        };
        let want = state_fingerprint(&r1).unwrap();
        let again = r1.crash();
        if (again.log_start, &again.log_bytes) != (log.0, &log.1) {
            self.violate(format!(
                "recovery convergence: recovery changed the log ({} -> {} bytes)",
                log.1.len(),
                again.log_bytes.len()
            ));
        }
        let (r2a, stats2a) = match recover_with_stats(again, self.sim_opts()) {
            Ok(r) => r,
            Err(e) => {
                self.violate(format!(
                    "recovery: a crash right after recovery is unrecoverable: {e:?}"
                ));
                return;
            }
        };
        let (r2b, stats2b) = recover_with_stats(r1.crash(), self.sim_opts())
            .expect("second recovery of the same image");
        if state_fingerprint(&r2a).unwrap() != state_fingerprint(&r2b).unwrap()
            || stats2a != stats2b
        {
            self.violate(format!(
                "recovery convergence: one image recovered nondeterministically: {stats2a:?} vs {stats2b:?}"
            ));
        }
        if state_fingerprint(&r2a).unwrap() != want || stats2a != stats1 {
            self.violate(format!(
                "recovery convergence: a crash after recovery landed off the recovered state: {stats1:?} vs {stats2a:?}"
            ));
        }
        for (k, (&a, &s)) in floor.iter().zip(submitted).enumerate() {
            let got = snapshot_read(&r2a, 0, k as u64)
                .unwrap()
                .map(|r| counter_of(&r))
                .unwrap_or(0);
            if got < a {
                self.violate(format!(
                    "double-crash durability: key {k} recovered {got}, acked floor {a}"
                ));
            }
            if got > s {
                self.violate(format!(
                    "double-crash phantom: key {k} recovered {got}, never submitted past {s}"
                ));
            }
        }
        let mut txn = r2a.begin();
        r2a.update(&mut txn, 0, 0, &record(0, u64::MAX)).unwrap();
        if r2a.commit(txn).is_err() {
            self.violate("recovery: twice-recovered database rejected new work".into());
        }
    }

    /// With the recycler wedged, checkpoints keep succeeding and the
    /// truncation point never outruns the published redo low-water mark;
    /// the log simply stops shrinking.
    fn check_stuck_truncation(&mut self) {
        for round in 0..3 {
            let out = Checkpointer::checkpoint_once(&self.primary);
            if out.applied > self.primary.redo_low_water() {
                self.violate(format!(
                    "truncation safety: applied {:?} outran redo low-water {:?} (round {round})",
                    out.applied,
                    self.primary.redo_low_water()
                ));
            }
            runtime::sleep(Duration::from_millis(2));
        }
        if self.primary.log().truncation_stats().segments_recycled > 0 {
            self.violate("truncation: wedged device still reported recycled segments".into());
        }
    }

    /// Dense-stream check over the primary's durable log: records parse
    /// cleanly from the low-water mark and each starts where the previous
    /// ended.
    fn check_dense_stream(&mut self) {
        let device = Arc::clone(self.primary.log().device());
        let mut prev_end = device.low_water();
        let mut reader = LogReader::from_lsn(device, prev_end);
        loop {
            match reader.next_record() {
                Ok(Some(rec)) => {
                    if rec.lsn != prev_end {
                        self.violate(format!(
                            "dense stream: record at {:?} follows end {:?}",
                            rec.lsn, prev_end
                        ));
                        return;
                    }
                    prev_end = rec.next_lsn();
                }
                Ok(None) => break,
                Err(e) => {
                    self.violate(format!("dense stream: scan failed at {prev_end:?}: {e:?}"));
                    return;
                }
            }
        }
        let durable = self.primary.log().durable_lsn();
        if prev_end < durable && !self.device.is_dark() {
            self.violate(format!(
                "dense stream: scan ended at {prev_end:?} short of durable {durable:?}"
            ));
        }
    }

    /// Recovery options: same protocol/buffer as the primary, same sim
    /// runtime (the recovered database's flush daemon must be a sim actor).
    fn sim_opts(&self) -> DbOptions {
        self.primary.options().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lagging-replica fault end to end: the seed passes, the router
    /// actually quarantined the lagger (visible in the telemetry snapshot),
    /// and the run replays byte-identically — router decisions included.
    #[test]
    fn lagging_replica_fault_quarantines_and_replays_identically() {
        let seed = (0..10_000u64)
            .find(|&s| FaultPlan::decode(s).fault == Fault::LaggingReplica)
            .expect("some seed decodes to LaggingReplica");
        let r1 = run_seed(seed);
        assert!(r1.ok(), "seed {seed} violations: {:?}", r1.violations);
        let quarantines = r1
            .telemetry
            .lines()
            .find_map(|l| l.strip_prefix("telemetry> counter router.quarantines="))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .expect("router.quarantines counter in telemetry");
        assert!(
            quarantines >= 1,
            "lagger was never quarantined:\n{}",
            r1.telemetry
        );
        let r2 = run_seed(seed);
        assert_eq!(
            r1.history, r2.history,
            "seed {seed} must replay identically"
        );
        assert_eq!(
            r1.telemetry, r2.telemetry,
            "telemetry must replay identically"
        );
    }
}
