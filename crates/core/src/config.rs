//! Log manager configuration.

use std::time::Duration;

/// Group-commit policy: "flush every X transactions, L bytes logged, or T
/// time elapsed, whichever comes first" (§4.1) — as **upper bounds**. The
/// flush daemon does not wait for any of them while somebody waits on bytes
/// it could write: it flushes as soon as it is idle, and commits that arrive
/// during a flush form the next group (see [`crate::flush`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCommitPolicy {
    /// Upper bound on a group: with this many commits pending the daemon
    /// stops letting further committers run first and drains.
    pub max_pending_commits: usize,
    /// Upper bound on unflushed bytes: at this many the daemon drains even
    /// if nobody waits on them, and stops growing a group.
    pub max_pending_bytes: u64,
    /// Upper bound on the age of released bytes nobody waits on: they are
    /// written at most this long after the daemon went idle.
    pub max_wait: Duration,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy {
            max_pending_commits: 64,
            max_pending_bytes: 64 * 1024,
            max_wait: Duration::from_millis(1),
        }
    }
}

/// Configuration for a [`crate::manager::LogManager`] or a standalone buffer.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// In-memory ring size in bytes. Must be a power of two.
    pub buffer_size: usize,
    /// Number of active slots in the consolidation array. The paper finds
    /// 3–4 optimal on a 64-context machine (§A.4, Figure 12) and fixes 4.
    pub carray_slots: usize,
    /// Group-commit policy for the flush daemon.
    pub group_commit: GroupCommitPolicy,
    /// Runtime the log's background threads and waits run under. Defaults
    /// to the real runtime; a simulated cluster injects
    /// [`crate::runtime::Runtime::sim`] here for deterministic replay.
    pub runtime: crate::runtime::Runtime,
    /// Telemetry (metrics registry + pipeline tracing) configuration.
    /// Disabled by default: instrumented hot paths then cost a single
    /// relaxed load.
    pub telemetry: crate::telemetry::TelemetryConfig,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            buffer_size: 64 << 20,
            carray_slots: 4,
            group_commit: GroupCommitPolicy::default(),
            runtime: crate::runtime::Runtime::default(),
            telemetry: crate::telemetry::TelemetryConfig::default(),
        }
    }
}

impl LogConfig {
    /// Validate invariants; returns a human-readable error for the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.buffer_size.is_power_of_two() || self.buffer_size < 4096 {
            return Err(format!(
                "buffer_size must be a power of two >= 4096 (got {})",
                self.buffer_size
            ));
        }
        if self.carray_slots == 0 {
            return Err("carray_slots must be >= 1".into());
        }
        self.telemetry.validate()?;
        Ok(())
    }

    /// Builder-style setter for the ring size.
    pub fn with_buffer_size(mut self, bytes: usize) -> Self {
        self.buffer_size = bytes;
        self
    }

    /// Builder-style setter for the runtime.
    pub fn with_runtime(mut self, runtime: crate::runtime::Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Builder-style setter for the consolidation-array slot count.
    pub fn with_carray_slots(mut self, slots: usize) -> Self {
        self.carray_slots = slots;
        self
    }

    /// Builder-style setter for the telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: crate::telemetry::TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(LogConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_buffer_size() {
        let c = LogConfig::default().with_buffer_size(1000);
        assert!(c.validate().is_err());
        let c = LogConfig::default().with_buffer_size(2048);
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_slots() {
        let c = LogConfig {
            carray_slots: 0,
            ..LogConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn runtime_defaults_to_real() {
        let c = LogConfig::default();
        assert!(!c.runtime.is_sim());
        let c = c.with_runtime(crate::runtime::Runtime::sim(1));
        assert!(c.runtime.is_sim());
    }
}
