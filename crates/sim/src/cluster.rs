//! One seed, one cluster, one verdict.
//!
//! [`run_seed`] decodes a [`FaultPlan`], boots a whole cluster — primary,
//! flush daemon, optional replicas with their shippers and links, worker
//! actors committing counters — entirely under [`Runtime::sim`], and drives
//! the planned fault into it. A fault's arm only injects it; the workers
//! then halt, and one of four endgames (quiesced, failover, torn recovery,
//! crash during recovery) checks the DESIGN.md invariants at risk, each
//! stated once:
//!
//! * **Dense stream** (inv. 1): a strict scan of the durable log reads
//!   whole records up to the durable LSN.
//! * **Commit safety / zero acked loss** (inv. 4, 6): after a crash or on
//!   the promoted replica, each key holds at least its acked floor and
//!   nothing past what was submitted; a surviving database takes new work.
//! * **Recovery convergence** (inv. 5): two crash images of one database
//!   recover to one state by one path.
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
use aether_core::{BufferKind, LogConfig, Lsn, TelemetryConfig};
use aether_repl::prelude::*;
use aether_storage::recovery::{recover_with_stats, RecoveryStats};
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitProtocol, CrashImage, Db, DbOptions};
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

/// Each worker's count, now.
fn snapshot(counts: &[AtomicU64]) -> Vec<u64> {
    counts.iter().map(|a| a.load(Ordering::SeqCst)).collect()
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
        let mut cluster = if plan.replicas > 0 {
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
                snapshot(&submitted)
            }
        };

        // Trigger: wait until every worker has made enough progress for the
        // fault to land mid-flight. ELR acks are deliberately decoupled from
        // durability; progress is measured by submissions instead.
        let progress = if plan.elr { &submitted } else { &acked };
        self.await_past(
            progress,
            &vec![plan.acks_before_fault - 1; plan.workers as usize],
            120,
            "trigger: workload made no progress in 120 virtual s".into(),
        );

        // Inject the planned fault. The acks so far were honestly durable:
        // the floor a crash or a kill must not lose.
        let mut floor = snapshot(&acked);
        match plan.fault {
            Fault::None | Fault::SlowLink => {
                // Replicated fault-free / slow-link runs also exercise the
                // read router's session contract under load.
                if let Some(c) = &cluster {
                    self.check_router(c, None);
                }
            }
            Fault::KillPrimary => {
                self.rt.note("fault:kill-primary");
                cluster
                    .as_mut()
                    .expect("KillPrimary requires replicas")
                    .kill_primary();
            }
            Fault::TornWrite | Fault::CrashDuringRecovery => {
                self.rt.note(&format!("fault:{}", plan.fault.name()));
                // The next write lands a prefix (a seed-chosen one, or
                // nothing), then the device goes dark: its later acks are
                // lies. Let the workload run into it for a while.
                let keep = match plan.fault {
                    Fault::TornWrite => plan.fault_entropy % 256,
                    _ => 0,
                };
                self.device.arm(DeviceFault::TearWrite(keep));
                runtime::sleep(Duration::from_millis(5));
            }
            Fault::TruncateStuck => {
                self.rt.note("fault:truncate-stuck");
                self.device.arm(DeviceFault::TruncateStuck);
                self.check_stuck_truncation();
                self.device.disarm(DeviceFault::TruncateStuck);
                let _ = self.primary.checkpoint_and_truncate();
            }
            Fault::LaggingReplica => {
                self.rt.note("fault:lagging-replica");
                let cluster = cluster.as_mut().expect("LaggingReplica requires replicas");
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
                self.check_router(cluster, Some(lagger));
            }
            Fault::PartitionThenHeal => {
                self.rt.note("fault:partition-heal");
                chaos.cut();
                // Acks already past the cut point drain first; only then is
                // the frozen floor meaningful.
                runtime::sleep(Duration::from_millis(5));
                let cut = snapshot(&acked);
                runtime::sleep(Duration::from_millis(15));
                let during = snapshot(&acked);
                if during != cut {
                    // SemiSync(1) with every replica unreachable: an ack
                    // here claims replica durability that cannot exist.
                    self.violate(format!(
                        "partition: commits acked with every replica unreachable ({cut:?} -> {during:?})"
                    ));
                }
                chaos.heal();
                // The backlog drains and the workload resumes: every worker
                // must push its acked floor forward.
                self.await_past(
                    &acked,
                    &cut,
                    30,
                    "partition: workload never resumed within 30 virtual s of heal".into(),
                );
            }
            Fault::DiskFullOnTruncate => {
                self.rt.note("fault:disk-full-truncate");
                self.device.arm(DeviceFault::TruncateFull);
                let lw = self.primary.log().low_water();
                for round in 0..3 {
                    let out = self.primary.checkpoint_and_truncate();
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
                self.await_past(
                    &acked,
                    &floor,
                    30,
                    "enospc truncation: workload stalled behind a failing recycler".into(),
                );
                self.device.disarm(DeviceFault::TruncateFull);
                if self.primary.checkpoint_and_truncate().device_error {
                    self.violate("enospc truncation: still failing after space returned".into());
                }
            }
            Fault::TransientSyncError => {
                self.rt.note("fault:transient-sync");
                // A blip burst strictly inside the flush daemon's retry
                // budget: it must be absorbed invisibly.
                let budget = aether_core::flush::FLUSH_ATTEMPTS as u64;
                let blips = 1 + plan.fault_entropy % budget.saturating_sub(1).max(1);
                self.device.arm(DeviceFault::FailSync {
                    nth: 1,
                    times: blips,
                    transient: true,
                });
                self.await_past(
                    &acked,
                    &floor,
                    30,
                    format!("transient sync: workload stalled after {blips} retryable blips"),
                );
                if self.primary.log().is_poisoned() {
                    self.violate(format!(
                        "transient sync: {blips} blips (budget {budget}) poisoned the log"
                    ));
                }
            }
        }

        // The fault's endgame. What survives a crash or a kill holds every
        // key between its acked floor and what was submitted, and takes new
        // work.
        let submitted = halt();
        match plan.fault {
            Fault::KillPrimary => {
                if let Some(db) = self.failover(cluster.expect("KillPrimary requires replicas")) {
                    self.check_range(&db, &floor, &submitted, "failover");
                    self.check_new_work(&db, "failover");
                }
            }
            Fault::TornWrite => {
                // The crash keeps the synced prefix and a seed-chosen part
                // of what was written after it, up to the tear.
                let keep = (plan.fault_entropy >> 8) % (self.device.unsynced_len() + 1);
                self.device.arm(DeviceFault::CrashKeeps(keep));
                let primary = Arc::clone(&self.primary);
                // The second recovery is dropped after the checks, as the
                // first is: a drop joins its flusher, a scheduling point.
                if let Some([(db, _), _second]) = self.recover_twice(&primary, "torn write") {
                    self.check_range(&db, &floor, &submitted, "torn write");
                    self.check_new_work(&db, "torn write");
                }
            }
            Fault::CrashDuringRecovery => {
                if let Some(db) = self.crash_during_recovery() {
                    self.check_range(&db, &floor, &submitted, "double crash");
                    self.check_new_work(&db, "double crash");
                }
            }
            _ => {
                // Every submitted commit completed and was flushed, so every
                // ack is honest and the clean crash recovers exactly them.
                floor = snapshot(&acked);
                if let Some(db) = self.quiesce(cluster) {
                    self.check_range(&db, &submitted, &submitted, "clean crash");
                }
            }
        }

        // Snapshot the primary's telemetry while still under the virtual
        // clock — counters, histograms, and any live sampled spans. The
        // registry outlives a killed primary (it is all Arc'd atomics), so
        // this works on every fault path.
        let telemetry = self.primary.telemetry_snapshot("sim").render_text();
        (floor.iter().sum(), self.violations, telemetry)
    }

    /// Wait in virtual time, at most `secs`, until every worker's count is
    /// past its `floor`; a miss is the violation `stalled`.
    fn await_past(&mut self, counts: &[AtomicU64], floor: &[u64], secs: u64, stalled: String) {
        let deadline = runtime::monotonic_ns() + secs * 1_000_000_000;
        while snapshot(counts).iter().zip(floor).any(|(a, f)| a <= f) {
            if runtime::monotonic_ns() > deadline {
                self.violate(stalled);
                return;
            }
            runtime::sleep(Duration::from_millis(1));
        }
    }

    // -- Endgames -----------------------------------------------------------

    /// Quiesce, then check replication equivalence and the dense stream,
    /// and recover a clean crash.
    fn quiesce(&mut self, cluster: Option<ReplicatedDb>) -> Option<Arc<Db>> {
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
        let log = self.primary.log();
        if let Some(v) = dense_stream(Arc::clone(log.device()), log.durable_lsn()) {
            self.violate(v);
        }
        self.recover(self.primary.crash(), "clean crash")
            .map(|(db, _)| db)
    }

    /// Promote the most-caught-up replica.
    fn failover(&mut self, cluster: ReplicatedDb) -> Option<Arc<Db>> {
        let candidate = cluster.most_caught_up();
        match cluster.promote(candidate) {
            Ok((promoted, _)) => Some(promoted),
            Err(e) => {
                self.violate(format!("failover: promotion failed: {e:?}"));
                None
            }
        }
    }

    /// Recover, then power-cut *again*. Recovery only redoes and appends
    /// nothing, so a crash at any point of it leaves the log it started
    /// from: the recovered database's crash image must hold that log byte
    /// for byte, and recover to the once-recovered state by the same path.
    /// The twice-recovered database.
    fn crash_during_recovery(&mut self) -> Option<Arc<Db>> {
        let log = |db: &Db| db.log().device().snapshot().expect("a sim log");
        let primary = Arc::clone(&self.primary);
        let before = log(&primary);
        let [(r1, stats1), _] = self.recover_twice(&primary, "double crash, first")?;
        let again = log(&r1);
        if again != before {
            self.violate(format!(
                "recovery convergence: recovery changed the log ({} -> {} bytes)",
                before.1.len(),
                again.1.len()
            ));
        }
        let [(r2, stats2), _] = self.recover_twice(&r1, "double crash, second")?;
        if state_fingerprint(&r2).unwrap() != state_fingerprint(&r1).unwrap() || stats2 != stats1 {
            self.violate(format!(
                "recovery convergence: a crash after recovery landed off the recovered state: {stats1:?} vs {stats2:?}"
            ));
        }
        Some(r2)
    }

    // -- Shared checks ------------------------------------------------------

    /// Commit safety (inv. 4, 6): each worker's key in `db` holds at least
    /// its `floor` and nothing past what was `submitted`.
    fn check_range(&mut self, db: &Db, floor: &[u64], submitted: &[u64], what: &str) {
        for (k, (&f, &s)) in floor.iter().zip(submitted).enumerate() {
            let got = db
                .snapshot_read(0, k as u64)
                .unwrap()
                .map_or(0, |r| counter_of(&r));
            if got < f {
                self.violate(format!(
                    "durability ({what}): key {k} holds {got}, below its floor {f}"
                ));
            }
            if got > s {
                self.violate(format!(
                    "phantom commit ({what}): key {k} holds {got}, never submitted past {s}"
                ));
            }
        }
    }

    /// A recovered or promoted database commits new work.
    fn check_new_work(&mut self, db: &Db, what: &str) {
        let mut txn = db.begin();
        db.update(&mut txn, 0, 0, &record(0, u64::MAX)).unwrap();
        if db.commit(txn).is_err() {
            self.violate(format!("new work ({what}): the database rejected a commit"));
        }
    }

    /// Recover `image` under the primary's options (its protocol, buffer
    /// and sim runtime: the recovered flush daemon must be a sim actor).
    fn recover(&mut self, image: CrashImage, what: &str) -> Option<(Arc<Db>, RecoveryStats)> {
        match recover_with_stats(image, self.primary.options().clone()) {
            Ok(r) => Some(r),
            Err(e) => {
                self.violate(format!("recovery ({what}): {e:?}"));
                None
            }
        }
    }

    /// Recovery convergence (inv. 5): two crash images of `db` recover to
    /// one state by one path. Both recoveries, in order.
    fn recover_twice(&mut self, db: &Db, what: &str) -> Option<[(Arc<Db>, RecoveryStats); 2]> {
        let (r1, stats1) = self.recover(db.crash(), what)?;
        let (r2, stats2) = self.recover(db.crash(), what)?;
        if state_fingerprint(&r1).unwrap() != state_fingerprint(&r2).unwrap() || stats1 != stats2 {
            self.violate(format!(
                "recovery convergence ({what}): one image recovered two ways: {stats1:?} vs {stats2:?}"
            ));
        }
        Some([(r1, stats1), (r2, stats2)])
    }

    // -- Fault-specific checks ----------------------------------------------

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
            self.router_round(&router, &session, marker);
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
            self.router_round(&router, &session, marker);
        }
        // While quarantined, the lagger must receive no reads.
        let before = router.stats().routed_per_replica[lag];
        for _ in 0..8 {
            marker += 1;
            self.router_round(&router, &session, marker);
        }
        let st = router.stats();
        if st.quarantined[lag] && st.routed_per_replica[lag] != before {
            self.violate(format!(
                "router quarantine: replica {lag} served {} reads while quarantined",
                st.routed_per_replica[lag] - before
            ));
        }
    }

    /// One router-check round: commit a marker on the primary, fold the
    /// token into the session, session-read it back, and check the
    /// staleness floor and read-your-writes on whatever source served it.
    fn router_round(&mut self, router: &ReadRouter, session: &Session, marker: u64) {
        let marker_key = self.plan.workers; // the extra row no worker owns
        let mut txn = self.primary.begin();
        self.primary
            .update(&mut txn, 0, marker_key, &record(marker_key, marker))
            .unwrap();
        let token = self.primary.commit(txn).unwrap().token();
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

    /// With the recycler wedged, checkpoints keep succeeding and the
    /// truncation point never outruns the published redo low-water mark;
    /// the log simply stops shrinking.
    fn check_stuck_truncation(&mut self) {
        for round in 0..3 {
            let out = self.primary.checkpoint_and_truncate();
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
}

/// Dense stream (inv. 1): a strict scan of `device` from its low-water
/// mark reads whole records up to `durable`. A record that fails its
/// checksum is reported at its LSN, a scan that ends short where it ended.
fn dense_stream(device: Arc<dyn LogDevice>, durable: Lsn) -> Option<String> {
    let mut reader = LogReader::new(device).strict();
    if let Some(Err(e)) = reader.find(Result::is_err) {
        let at = reader.position();
        return Some(format!("dense stream: scan failed at {at:?}: {e:?}"));
    }
    let end = reader.position();
    (end < durable)
        .then(|| format!("dense stream: scan ended at {end:?} short of durable {durable:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::record::HEADER_SIZE;

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

    /// A flushed log of a few one-update commits: its bytes, its records'
    /// LSNs, and its durable LSN.
    fn flushed_log() -> (Vec<u8>, Vec<Lsn>, Lsn) {
        let device = Arc::new(SimDevice::new(Duration::ZERO));
        let opts = DbOptions {
            log_config: LogConfig::default().with_buffer_size(1 << 16),
            ..DbOptions::default()
        };
        let db = Db::open_with_device(opts, Arc::clone(&device) as Arc<dyn LogDevice>);
        db.create_table(40, 2);
        for k in 0..2 {
            db.load(0, k, &record(k, 0)).unwrap();
        }
        db.setup_complete();
        for v in 1..=6 {
            let mut txn = db.begin();
            db.update(&mut txn, 0, v % 2, &record(v % 2, v)).unwrap();
            db.commit(txn).unwrap();
        }
        db.log().flush_all().unwrap();
        let lsns = db.log().reader().map(|r| r.unwrap().lsn).collect();
        (device.contents(), lsns, db.log().durable_lsn())
    }

    fn check(bytes: Vec<u8>, durable: Lsn) -> Option<String> {
        dense_stream(Arc::new(SimDevice::from_image(Lsn::ZERO, bytes)), durable)
    }

    #[test]
    fn a_clean_log_is_a_dense_stream() {
        let (bytes, lsns, durable) = flushed_log();
        assert!(lsns.len() >= 6 && durable == Lsn(bytes.len() as u64));
        assert_eq!(check(bytes, durable), None);
    }

    #[test]
    fn a_flipped_payload_byte_is_reported_at_its_records_lsn() {
        let (mut bytes, lsns, durable) = flushed_log();
        let bad = lsns[lsns.len() / 2];
        bytes[bad.raw() as usize + HEADER_SIZE] ^= 0x5a;
        let v = check(bytes, durable).expect("a violation");
        assert!(v.contains(&format!("scan failed at {bad:?}")), "{v}");
    }

    #[test]
    fn a_log_cut_short_of_durable_is_reported() {
        let (mut bytes, lsns, durable) = flushed_log();
        bytes.truncate(bytes.len() - 1);
        let v = check(bytes, durable).expect("a violation");
        let last = lsns[lsns.len() - 1];
        assert!(
            v.contains(&format!("scan ended at {last:?} short of durable")),
            "{v}"
        );
    }
}
