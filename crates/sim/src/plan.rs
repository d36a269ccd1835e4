//! Seed → scenario decoding.
//!
//! Every simulated run is a pure function of one `u64` seed. The seed feeds
//! two independent consumers:
//!
//! * the scheduler inside [`aether_core::runtime::Runtime::sim`], which
//!   decides the thread interleaving, and
//! * this module, which decodes the *scenario*: cluster shape, link
//!   behavior, and which fault (if any) fires, when, and how hard.
//!
//! Both draw from the same number, so "rerun seed 7213" reproduces not just
//! the interleaving but the whole experiment.

use std::time::Duration;

/// Splitmix64: a tiny, well-distributed PRNG used only for decoding the
/// scenario (never for scheduling — the runtime has its own stream).
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// Derive a scenario stream from `seed`. The constant offsets the
    /// stream away from the scheduler's, so scenario and schedule decisions
    /// are decorrelated even though they share one seed.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next raw 64-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n.max(1)
    }
}

/// Which single fault this run injects (one per run keeps every failing
/// seed attributable to one mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the run only has to satisfy the steady-state invariants.
    None,
    /// Cut the network and poison the primary's commit gate mid-flight,
    /// then promote the most-caught-up replica. Requires replicas.
    KillPrimary,
    /// The next log-device write lands only a prefix, then the device goes
    /// dark (a torn final write followed by power loss); the crash keeps the
    /// synced bytes and a seed-chosen prefix of the rest, up to the tear.
    TornWrite,
    /// The log device stops honoring `truncate_before` (segment recycling
    /// wedged, as on a disk-full metadata store). Requires a segmented log.
    TruncateStuck,
    /// A latency spike on the replication links: acks crawl, commits under
    /// SemiSync stall behind them. Virtual time makes this free to run.
    SlowLink,
    /// One extra replica joins over a crawling link and trails the durable
    /// frontier far behind the others. The read router must quarantine it
    /// (no reads served from it) while still honoring every session read's
    /// staleness floor from the healthy replicas or the primary. Requires
    /// replicas.
    LaggingReplica,
    /// Every replication link (frames and acks) partitions at once, then
    /// heals. While cut, SemiSync must hold every commit ack hostage — zero
    /// false acks — and after the heal the backlog drains with nothing
    /// lost. Requires replicas.
    PartitionThenHeal,
    /// Segment recycling fails with a typed `DiskFull` (the recycler itself
    /// hits ENOSPC). Checkpoints must keep succeeding, the low-water mark
    /// must not move, commits must keep flowing, and the log must not
    /// poison; once space returns, truncation resumes. Requires a
    /// segmented log.
    DiskFullOnTruncate,
    /// Power-cut the device, recover, then crash *again*. Recovery writes
    /// nothing, so the second crash must find the first one's log byte for
    /// byte, and the second recovery must be deterministic and converge to
    /// the same state. Runs standalone.
    CrashDuringRecovery,
    /// A burst of transient sync failures, sized under the flush daemon's
    /// retry budget. The daemon must absorb them — workload keeps acking,
    /// the log never poisons — and every ack stays durable.
    TransientSyncError,
}

impl Fault {
    /// Every fault kind, in menu order (sweep histograms iterate this).
    pub const ALL: [Fault; 10] = [
        Fault::None,
        Fault::KillPrimary,
        Fault::TornWrite,
        Fault::TruncateStuck,
        Fault::SlowLink,
        Fault::LaggingReplica,
        Fault::PartitionThenHeal,
        Fault::DiskFullOnTruncate,
        Fault::CrashDuringRecovery,
        Fault::TransientSyncError,
    ];

    /// Stable kebab-case name (sweep reports, `AETHER_SIM_FAULT`).
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::KillPrimary => "kill-primary",
            Fault::TornWrite => "torn-write",
            Fault::TruncateStuck => "truncate-stuck",
            Fault::SlowLink => "slow-link",
            Fault::LaggingReplica => "lagging-replica",
            Fault::PartitionThenHeal => "partition-then-heal",
            Fault::DiskFullOnTruncate => "disk-full-truncate",
            Fault::CrashDuringRecovery => "crash-during-recovery",
            Fault::TransientSyncError => "transient-sync",
        }
    }

    /// Inverse of [`Fault::name`].
    pub fn from_name(name: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Whether the scenario only makes sense with replicas attached.
    pub fn needs_replicas(self) -> bool {
        matches!(
            self,
            Fault::KillPrimary | Fault::SlowLink | Fault::LaggingReplica | Fault::PartitionThenHeal
        )
    }
}

/// The fully decoded scenario for one seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed this plan was decoded from.
    pub seed: u64,
    /// Committing worker actors (each owns one key).
    pub workers: u64,
    /// Replicas attached behind the primary (0 = standalone).
    pub replicas: usize,
    /// Use a segmented log device (enables truncation faults) instead of a
    /// plain byte-stream device.
    pub segmented: bool,
    /// Run the ELR commit protocol instead of Baseline.
    pub elr: bool,
    /// One-way frame/ack link latency.
    pub link_latency: Duration,
    /// Reorder period for the frame link (0 = in-order).
    pub reorder_period: usize,
    /// SemiSync-acked commits per worker before the fault trigger fires.
    pub acks_before_fault: u64,
    /// The injected fault.
    pub fault: Fault,
    /// Raw entropy for fault parameters (e.g. how many bytes of the torn
    /// write survive).
    pub fault_entropy: u64,
}

impl FaultPlan {
    /// Decode the scenario for `seed`.
    pub fn decode(seed: u64) -> FaultPlan {
        let mut rng = SeedRng::new(seed);
        let workers = 1 + rng.below(3);
        let mut replicas = rng.below(3) as usize;
        let mut segmented = rng.below(2) == 1;
        // ELR decouples the commit ack from durability, so the acked-floor
        // invariants (which equate "commit returned Durable" with "on disk /
        // on a replica") only run it standalone.
        let mut elr = rng.below(2) == 1 && replicas == 0;
        let link_latency = Duration::from_micros([0, 50, 200, 1_000][rng.below(4) as usize]);
        let reorder_period = rng.below(4) as usize;
        let acks_before_fault = 3 + rng.below(6);
        let fault = match std::env::var("AETHER_SIM_FAULT").ok().as_deref() {
            // Forced fault kind (the sweep's per-fault mode and the chaos
            // CI job): the draw below is skipped entirely, but the shape
            // axes (workers, replicas, links…) still come from the seed.
            // Preconditions are *imposed*, not filtered, so every seed
            // yields a run of the requested kind.
            Some(name) if !name.is_empty() => {
                let f = Fault::from_name(name)
                    .unwrap_or_else(|| panic!("AETHER_SIM_FAULT: unknown fault {name:?}"));
                if f.needs_replicas() && replicas == 0 {
                    replicas = 1;
                }
                if f == Fault::TruncateStuck || f == Fault::DiskFullOnTruncate {
                    segmented = true;
                }
                f
            }
            _ => match rng.below(10) {
                0 => Fault::None,
                1 if replicas > 0 => Fault::KillPrimary,
                2 => Fault::TornWrite,
                3 if segmented => Fault::TruncateStuck,
                4 if replicas > 0 => Fault::SlowLink,
                5 if replicas > 0 => Fault::LaggingReplica,
                6 if replicas > 0 => Fault::PartitionThenHeal,
                7 if segmented => Fault::DiskFullOnTruncate,
                8 => Fault::CrashDuringRecovery,
                9 => Fault::TransientSyncError,
                // Draws whose precondition (replicas, segmentation) failed
                // run the fault-free scenario; the shape axes still vary.
                _ => Fault::None,
            },
        };
        if fault == Fault::TornWrite || fault == Fault::CrashDuringRecovery {
            // A dark device stops acks dead: under SemiSync every commit
            // would hang forever on a replica ack that can never come.
            // These scenarios are about local recovery, so they run
            // standalone.
            replicas = 0;
        }
        if replicas > 0 {
            // Forced-fault mode can raise the replica count after the ELR
            // draw; re-impose the standalone-only rule.
            elr = false;
        }
        FaultPlan {
            seed,
            workers,
            replicas,
            segmented,
            elr,
            link_latency,
            reorder_period,
            acks_before_fault,
            fault,
            fault_entropy: rng.draw(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_is_deterministic() {
        for seed in 0..64 {
            let a = FaultPlan::decode(seed);
            let b = FaultPlan::decode(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn decode_respects_preconditions() {
        for seed in 0..4096 {
            let p = FaultPlan::decode(seed);
            assert!((1..=3).contains(&p.workers));
            assert!(p.replicas <= 2);
            if p.fault.needs_replicas() {
                assert!(p.replicas > 0, "seed {seed}: fault needs replicas");
            }
            if p.fault == Fault::TruncateStuck || p.fault == Fault::DiskFullOnTruncate {
                assert!(p.segmented, "seed {seed}: fault needs a segmented log");
            }
            if p.fault == Fault::TornWrite || p.fault == Fault::CrashDuringRecovery {
                assert_eq!(p.replicas, 0, "seed {seed}: {:?} runs standalone", p.fault);
            }
            if p.elr {
                assert_eq!(p.replicas, 0, "seed {seed}: ELR runs standalone");
            }
        }
    }

    #[test]
    fn fault_menu_is_reachable() {
        let mut seen = [false; Fault::ALL.len()];
        for seed in 0..4096 {
            let f = FaultPlan::decode(seed).fault;
            seen[Fault::ALL.iter().position(|&a| a == f).unwrap()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every fault must be reachable from some seed: {seen:?}"
        );
    }

    #[test]
    fn fault_names_round_trip() {
        for f in Fault::ALL {
            assert_eq!(Fault::from_name(f.name()), Some(f));
        }
        assert_eq!(Fault::from_name("no-such-fault"), None);
    }
}
