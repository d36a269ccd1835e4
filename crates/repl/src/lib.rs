//! # aether-repl — log-shipping replication for Aether
//!
//! The paper's §A.5 analysis (reproduced by `fig13_distributed`) shows why
//! *partitioning* a log across nodes is painful: cross-log commit
//! dependencies are too widespread to track. The production-standard way to
//! scale a single totally-ordered log to heavy read traffic and high
//! availability is the opposite: keep the log serial and **ship it** —
//! stream the durable prefix to replicas that replay it continuously.
//! This crate implements that, end to end, offline and deterministically:
//!
//! * [`transport`] — in-process links with injectable latency and
//!   deterministic reordering (the simulated network). A link's delivery
//!   thread hands each message to its receiver by calling it.
//! * [`frame`] — CRC-32C-framed byte runs and snapshot bootstraps sharing
//!   one sequence space; corrupt messages are dropped, reordered ones
//!   restored.
//! * [`shipper`] — tails the primary's durable frontier through
//!   [`aether_core::LogManager::wait_durable`] (no polling) and streams one
//!   frame per flush group, so group commit amortizes ack round-trips; its
//!   [`shipper::ack_link`] folds acks into the commit gate as they land.
//! * [`replica`] — appends received runs to its own log device, acks the
//!   durably-received LSN, and keeps a standby [`aether_storage::db::Db`]
//!   warm by following that log with one
//!   [`aether_storage::recovery::Redo`]; snapshot reads come with a
//!   measured staleness bound. It has no thread of its own: its frame
//!   link's delivery thread ingests and replays, so a replica runs three
//!   threads (ship, frame link, ack link), and [`replica::Replica::stop`]
//!   takes effect at once. [`replica::Replica::promote`] stops the redo
//!   and opens the received log behind it for failover.
//! * [`cluster`] — [`cluster::ReplicatedDb`] wires a primary to N replicas
//!   under a [`aether_core::commit::DurabilityPolicy`]: `Async`, or
//!   `SemiSync(k)` — commit completion waits on `k` replica acks in
//!   addition to the local sync (a majority quorum of `n` is
//!   `SemiSync(n / 2 + 1)`). Replicas bootstrap from a checkpoint
//!   [`aether_storage::replay::BaseSnapshot`] (pages, DPT and start
//!   LSN), so [`cluster::ReplicatedDb::add_replica`] can join a fresh
//!   replica to a cluster whose log prefix has been truncated away, and a
//!   shipper stranded below the log's low-water mark re-seeds its replica
//!   over the wire instead of reading recycled bytes.
//! * [`supervisor`] — [`supervisor::Supervisor`], the self-healing tier:
//!   owns a cluster, quarantines and re-seeds replicas whose acks stall
//!   past a lag budget, and on primary death (poisoned log or commit gate)
//!   auto-promotes the most-caught-up replica.
//! * [`router`] — [`router::ReadRouter`], the read-serving tier: routes
//!   lock-free snapshot reads round-robin across the replicas, enforces
//!   per-request staleness budgets with fallback to a fresher replica or
//!   the primary, quarantines replicas that fall behind, and gives
//!   sessions read-your-writes via [`aether_core::commit::CommitToken`]s
//!   returned from the primary's [`aether_storage::Db::commit`].
//!
//! ## Quick start
//!
//! ```
//! use aether_repl::prelude::*;
//! use aether_storage::{Db, DbOptions};
//!
//! let db = Db::open(DbOptions::default());
//! db.create_table(16, 4);
//! for k in 0..4u64 {
//!     let mut rec = vec![0u8; 16];
//!     rec[..8].copy_from_slice(&k.to_le_bytes());
//!     db.load(0, k, &rec).unwrap();
//! }
//! db.setup_complete();
//! let cluster = ReplicatedDb::attach(
//!     db,
//!     ReplicationConfig {
//!         replicas: 1,
//!         policy: DurabilityPolicy::SemiSync(1),
//!         ..ReplicationConfig::default()
//!     },
//! )
//! .unwrap();
//! let mut txn = cluster.primary().begin();
//! cluster
//!     .primary()
//!     .update_with(&mut txn, 0, 1, |r| r[8] = 42)
//!     .unwrap();
//! // Completes only after the replica durably received the commit.
//! cluster.primary().commit(txn).unwrap();
//! assert!(cluster.wait_catchup(std::time::Duration::from_secs(5)));
//! assert_eq!(cluster.replica(0).read(0, 1).unwrap().unwrap()[8], 42);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod replica;
pub mod router;
pub mod shipper;
pub mod supervisor;
pub mod transport;

pub use cluster::{ReplicatedDb, ReplicationConfig};
pub use replica::{Replica, ReplicaReader, ReplicaStatus};
pub use router::{ReadRouter, RoutedRead, RouterConfig, RouterStats, Session, SourceKind};
pub use shipper::{ack_link, Shipper, ShipperConfig};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorReport};
pub use transport::{link, LinkChaos, LinkConfig, LinkSender};

/// Convenience prelude for replication programs.
pub mod prelude {
    pub use crate::cluster::{ReplicatedDb, ReplicationConfig};
    pub use crate::replica::{Replica, ReplicaReader, ReplicaStatus};
    pub use crate::router::{
        ReadRouter, RoutedRead, RouterConfig, RouterStats, Session, SourceKind,
    };
    pub use crate::shipper::{Shipper, ShipperConfig};
    pub use crate::supervisor::{Supervisor, SupervisorConfig, SupervisorReport};
    pub use crate::transport::{LinkChaos, LinkConfig, LinkSender};
    pub use aether_core::commit::{CommitToken, DurabilityPolicy};
}
