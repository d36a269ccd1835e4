//! Deterministic whole-cluster simulation for the Aether logging stack.
//!
//! The core, storage, and replication crates route every clock read, sleep,
//! thread spawn, and blocking wait through
//! [`aether_core::runtime`]. This crate exploits that seam: it boots an
//! entire cluster — primary with its flush daemon, replicas with shippers
//! and simulated links, committing workers — under
//! [`aether_core::runtime::Runtime::sim`], where a seeded cooperative
//! scheduler and a virtual clock make the whole execution a pure function
//! of one `u64` seed.
//!
//! On top of the virtual runtime sits a seeded **fault harness**:
//!
//! * [`plan::FaultPlan`] decodes each seed into a scenario — cluster shape,
//!   link latency/reordering, commit protocol, and one injected fault
//!   (primary kill, torn device write, wedged truncation, latency spike);
//! * [`aether_core::device::FaultDevice`] wraps the primary's log device
//!   and injects the device faults from a script of
//!   [`aether_core::device::DeviceFault`] lines: torn writes, wedged or
//!   failing truncation, failed syncs, and a crash that keeps only the
//!   synced prefix plus a seed-chosen prefix of the unsynced bytes;
//! * [`cluster::run_seed`] runs the scenario and checks the DESIGN.md
//!   invariants it puts at risk, returning a [`cluster::SimReport`] whose
//!   `history` field is the reproducibility witness: the same seed must
//!   reproduce it bit-for-bit.
//!
//! [`server_scenario::run_server_seed`] does the same for the wire tier:
//! an `aether-server` connection loop plus a fleet of pipelining clients,
//! all over in-process channel transports under the seeded scheduler, so
//! the server's batching/ordering invariants replay byte-identically too.
//!
//! The `sim_sweep` binary runs a batch of seeds (default 200) and prints
//! the failing ones; `AETHER_SIM_SEED=<n> sim_sweep` reruns a single seed —
//! byte-identically, every time.

#![warn(missing_docs)]

pub mod cluster;
pub mod plan;
pub mod server_scenario;

pub use cluster::{run_seed, SimReport};
pub use plan::{Fault, FaultPlan, SeedRng};
pub use server_scenario::{run_server_seed, ServerSimReport};
