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
//!
//! What a fault needs of the cluster's shape is stated once,
//! [`Fault::needs`]: the draw, a forced fault and a standalone one all
//! follow it.

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
    /// then promote the most-caught-up replica.
    KillPrimary,
    /// The next log-device write lands only a prefix, then the device goes
    /// dark (a torn final write followed by power loss); the crash keeps the
    /// synced bytes and a seed-chosen prefix of the rest, up to the tear.
    TornWrite,
    /// The log device stops honoring `truncate_before` (segment recycling
    /// wedged, as on a disk-full metadata store).
    TruncateStuck,
    /// A latency spike on the replication links: acks crawl, commits under
    /// SemiSync stall behind them. Virtual time makes this free to run.
    SlowLink,
    /// One extra replica joins over a crawling link and trails the durable
    /// frontier far behind the others. The read router must quarantine it
    /// (no reads served from it) while still honoring every session read's
    /// staleness floor from the healthy replicas or the primary.
    LaggingReplica,
    /// Every replication link (frames and acks) partitions at once, then
    /// heals. While cut, SemiSync must hold every commit ack hostage — zero
    /// false acks — and after the heal the backlog drains with nothing
    /// lost.
    PartitionThenHeal,
    /// Segment recycling fails with a typed `DiskFull` (the recycler itself
    /// hits ENOSPC). Checkpoints must keep succeeding, the low-water mark
    /// must not move, commits must keep flowing, and the log must not
    /// poison; once space returns, truncation resumes.
    DiskFullOnTruncate,
    /// Power-cut the device, recover, then crash *again*. Recovery writes
    /// nothing, so the second crash must find the first one's log byte for
    /// byte, and the second recovery must be deterministic and converge to
    /// the same state.
    CrashDuringRecovery,
    /// A burst of transient sync failures, sized under the flush daemon's
    /// retry budget. The daemon must absorb them — workload keeps acking,
    /// the log never poisons — and every ack stays durable.
    TransientSyncError,
}

impl Fault {
    /// Every fault kind, in menu order: the draw indexes it, and sweep
    /// histograms iterate it.
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

    /// What the fault needs of the cluster's shape.
    pub fn needs(self) -> Needs {
        match self {
            Fault::None | Fault::TransientSyncError => Needs::Any,
            Fault::KillPrimary
            | Fault::SlowLink
            | Fault::LaggingReplica
            | Fault::PartitionThenHeal => Needs::Replicas,
            Fault::TruncateStuck | Fault::DiskFullOnTruncate => Needs::SegmentedLog,
            // A dark device stops acks dead: under SemiSync every commit
            // would hang on a replica ack that can never come. These
            // faults are about local recovery.
            Fault::TornWrite | Fault::CrashDuringRecovery => Needs::Standalone,
        }
    }
}

/// What a fault needs of the cluster's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Needs {
    /// Any shape.
    Any,
    /// At least one replica.
    Replicas,
    /// A segmented log device, whose truncation can be wedged.
    SegmentedLog,
    /// No replicas.
    Standalone,
}

impl Needs {
    /// Whether a plan with `replicas` replicas and a `segmented` (or flat)
    /// log meets this need.
    pub fn met(self, replicas: usize, segmented: bool) -> bool {
        match self {
            Needs::Any => true,
            Needs::Replicas => replicas > 0,
            Needs::SegmentedLog => segmented,
            Needs::Standalone => replicas == 0,
        }
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
    /// Decode the scenario for `seed`. `AETHER_SIM_FAULT` forces the
    /// fault kind (the sweep's per-fault mode and the chaos CI job).
    pub fn decode(seed: u64) -> FaultPlan {
        let forced = std::env::var("AETHER_SIM_FAULT")
            .ok()
            .filter(|n| !n.is_empty())
            .map(|n| {
                Fault::from_name(&n)
                    .unwrap_or_else(|| panic!("AETHER_SIM_FAULT: unknown fault {n:?}"))
            });
        FaultPlan::decode_as(seed, forced)
    }

    /// Decode the scenario for `seed`, with the fault `forced` if given:
    /// the fault draw is then skipped, but the shape axes (workers,
    /// replicas, links…) still come from the seed.
    fn decode_as(seed: u64, forced: Option<Fault>) -> FaultPlan {
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
        let fault = forced.unwrap_or_else(|| {
            // A drawn fault the shape cannot host runs fault-free (the
            // shape axes still vary); a standalone one sheds the replicas.
            let f = Fault::ALL[rng.below(Fault::ALL.len() as u64) as usize];
            match f.needs() {
                Needs::Standalone => f,
                need if need.met(replicas, segmented) => f,
                _ => Fault::None,
            }
        });
        // A forced fault's need is imposed, so every seed yields a run of
        // the requested kind; a drawn fault's only sheds replicas.
        match fault.needs() {
            Needs::Any => {}
            Needs::Replicas => replicas = replicas.max(1),
            Needs::SegmentedLog => segmented = true,
            Needs::Standalone => replicas = 0,
        }
        if replicas > 0 {
            // A forced fault can raise the replica count after the ELR
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
            let need = p.fault.needs();
            assert!(need.met(p.replicas, p.segmented), "seed {seed}: {need:?}");
            if p.elr {
                assert_eq!(p.replicas, 0, "seed {seed}: ELR runs standalone");
            }
        }
    }

    #[test]
    fn every_forced_kind_decodes_to_a_shape_that_hosts_it() {
        for f in Fault::ALL {
            for seed in 0..1000 {
                let p = FaultPlan::decode_as(seed, Some(f));
                assert_eq!(p.fault, f);
                assert!(
                    p.fault.needs().met(p.replicas, p.segmented),
                    "{f:?} seed {seed}"
                );
                assert!(
                    !p.elr || p.replicas == 0,
                    "{f:?} seed {seed}: ELR runs standalone"
                );
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
