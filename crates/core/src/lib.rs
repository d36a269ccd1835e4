//! # aether-core — a scalable approach to logging
//!
//! This crate is a from-scratch implementation of the **Aether** log manager
//! from Johnson et al., *"Aether: A Scalable Approach to Logging"*, PVLDB 3(1),
//! 2010. It provides:
//!
//! * A write-ahead **log buffer**, [`buffer::InsertBuffer`], that runs the
//!   five insertion algorithms the paper studies (module [`buffer`]). A
//!   [`BufferKind`] picks one by setting the paper's two axes:
//!   - `Baseline` — one mutex across acquire/fill/release (Algorithm 1),
//!   - `Consolidation` (**C**) — contending inserts combine in the
//!     consolidation array (Algorithm 2),
//!   - `Decoupled` (**D**) — the fill leaves the mutex (Algorithm 3),
//!   - `Hybrid` (**CD**) — both (§5.3),
//!   - `Delegated` (**CDME**) — CD plus the treadmill guard of the delegated
//!     buffer release (Algorithm 4, §A.3).
//! * The **consolidation array** itself ([`carray`]), a generalization of
//!   elimination-based backoff where threads combine log-insert requests
//!   instead of cancelling them (§A.2, Figure 10 state machine).
//! * A **flush daemon** with group-commit policies and **flush pipelining**
//!   ([`flush`], [`commit`]) so transactions commit without triggering
//!   context switches (§4).
//! * Simulated and real **log devices** ([`device`]): ramdisk (0µs), flash
//!   (100µs), fast disk (1ms), slow disk (10ms) — the same latency models the
//!   paper injects with high-resolution timers — plus a real file device.
//! * A [`manager::LogManager`] facade tying everything together, and a
//!   [`reader`] used by ARIES-style recovery in the `aether-storage` crate.
//!
//! ## Quick start
//!
//! ```
//! use aether_core::{LogConfig, manager::LogManager, record::RecordKind};
//!
//! let log = LogManager::builder()
//!     .buffer(aether_core::BufferKind::Hybrid)
//!     .device(aether_core::DeviceKind::Ram)
//!     .build();
//! let lsn = log.insert(RecordKind::Update, 42, b"hello, aether");
//! log.flush_all();
//! assert!(log.durable_lsn() > lsn);
//! let _ = LogConfig::default();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod buffer;
pub mod carray;
pub mod commit;
pub mod config;
pub mod device;
pub mod error;
pub mod flush;
pub mod lsn;
pub mod manager;
pub mod partition;
pub mod reader;
pub mod record;
pub mod ring;
pub mod runtime;
pub mod stats;
pub mod telemetry;

pub use buffer::{BufferKind, EncodePayload, LogBuffer, LogSlot, SlotWriter};
pub use commit::{CommitGate, CommitToken, DurabilityPolicy, ReplicaAck};
pub use config::LogConfig;
pub use device::DeviceKind;
pub use error::{AetherError, Result};
pub use lsn::Lsn;
pub use manager::{LogManager, TruncationOutcome, TruncationStats};
pub use record::{RecordHeader, RecordKind};
pub use runtime::Runtime;
pub use telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
