//! # aether-storage — a miniature Shore-MT
//!
//! The Aether paper evaluates its logging techniques inside Shore-MT, a
//! multi-threaded transactional storage manager. This crate is the
//! from-scratch substrate that plays Shore-MT's role for the reproduction:
//!
//! * fixed-size-record **tables** over 8 KiB pages with page LSNs
//!   ([`table`], [`page`]),
//! * an in-memory **page store** standing in for the data volume
//!   ([`store`]),
//! * a **lock manager** (S/X row locks, FIFO queues, timeout +
//!   wait-for-graph deadlock detection) ([`lock`]),
//! * **transactions** logged once, at commit, as one redo-only record whose
//!   writes wait in the transaction until then (a rollback drops them and
//!   logs nothing), and the four commit protocols the paper compares —
//!   Baseline, **ELR**, Asynchronous commit, and **Flush Pipelining**
//!   ([`txn`]),
//! * **recovery** as one redo scan, bounded by fuzzy checkpoints and log
//!   truncation ([`recovery`]),
//! * **continuous redo** for log-shipping standby replicas ([`replay`]),
//! * a [`db::Db`] facade the benchmark workloads drive.
//!
//! Everything WAL-related delegates to `aether-core`: the storage manager
//! inserts its commit records through whichever log-buffer variant the
//! experiment selects.

#![warn(missing_docs)]

pub mod checkpointer;
pub mod db;
pub mod error;
pub mod lock;
pub mod page;
pub mod recovery;
pub mod replay;
mod segmented;
pub mod store;
pub mod table;
pub mod txn;
pub mod wal;

pub use aether_core::commit::CommitToken;
pub use checkpointer::Checkpointer;
pub use db::{CrashImage, Db, DbOptions, RunOutcome, RUN_MAX};
pub use error::{StorageError, StorageResult};
pub use lock::{LockId, LockMode};
pub use replay::BaseSnapshot;
pub use txn::{CommitOutcome, CommitProtocol, Transaction};
