//! Error types for the log manager.

use std::fmt;

/// Errors surfaced by the log manager and the layers above it.
///
/// The hot insert path is infallible by construction (back-pressure blocks
/// instead of failing); errors arise at the edges — device I/O, recovery
/// scans, configuration validation — and, since the self-healing work, from
/// the flush daemon's retry machinery (a log that exhausted its retries is
/// *poisoned*: a terminal state every pending and future committer observes
/// as an `Err` instead of a hang) and from disk-pressure admission control
/// ([`AetherError::LogFull`] / [`AetherError::Busy`]).
#[derive(Debug)]
pub enum AetherError {
    /// Underlying device I/O failure.
    Io(std::io::Error),
    /// The device ran out of space (ENOSPC). Classified separately from
    /// [`AetherError::Io`] because the cure is different: truncation frees
    /// space, so the disk-pressure machinery retries after checkpointing
    /// rather than poisoning the log.
    DiskFull,
    /// A record failed validation during a recovery scan (torn write, bad
    /// checksum, or impossible length). Scans stop at the first such record:
    /// per §5.2 of the paper, recovery must stop at the first gap.
    Corrupt {
        /// LSN at which the corruption was detected.
        at: crate::Lsn,
        /// Human-readable description.
        reason: String,
    },
    /// Configuration rejected (e.g. non-power-of-two buffer size).
    Config(String),
    /// The log manager has been shut down.
    Shutdown,
    /// The log is poisoned: the flush daemon hit a permanent device failure
    /// (or exhausted its bounded retries on a transient one) and halted.
    /// Terminal — all pending committers were released with this error and
    /// every future durability wait fails fast with it.
    Poisoned {
        /// What killed the flush daemon.
        reason: String,
    },
    /// Admission control: the retained log footprint crossed the hard
    /// watermark and new transactions are being shed until
    /// checkpoint+truncate frees space. Retryable.
    LogFull {
        /// Bytes of log currently retained.
        retained: u64,
        /// The configured hard watermark.
        limit: u64,
    },
    /// Transient overload pushback (retryable after backoff).
    Busy(String),
}

impl AetherError {
    /// Whether a bounded retry with backoff is a sensible response.
    ///
    /// Transient: interrupted/timed-out I/O (the classes a flaky device or
    /// controller reset produces), [`AetherError::Busy`] and
    /// [`AetherError::LogFull`] (pressure that truncation relieves).
    /// Everything else — corruption, configuration, shutdown, a poisoned
    /// log, and unclassified I/O errors like EIO — is permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            AetherError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            AetherError::Busy(_) | AetherError::LogFull { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for AetherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AetherError::Io(e) => write!(f, "log device I/O error: {e}"),
            AetherError::DiskFull => write!(f, "log device out of space (ENOSPC)"),
            AetherError::Corrupt { at, reason } => {
                write!(f, "corrupt log record at LSN {at}: {reason}")
            }
            AetherError::Config(msg) => write!(f, "invalid log configuration: {msg}"),
            AetherError::Shutdown => write!(f, "log manager is shut down"),
            AetherError::Poisoned { reason } => {
                write!(f, "log is poisoned (flush daemon halted): {reason}")
            }
            AetherError::LogFull { retained, limit } => write!(
                f,
                "log full: {retained} bytes retained exceeds hard watermark {limit}"
            ),
            AetherError::Busy(msg) => write!(f, "busy: {msg}"),
        }
    }
}

impl std::error::Error for AetherError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AetherError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AetherError {
    fn from(e: std::io::Error) -> Self {
        // ENOSPC gets its own variant: disk pressure is curable (truncate),
        // unlike a generic I/O failure. Matched by raw errno — stable across
        // toolchains, unlike `ErrorKind::StorageFull`.
        if e.raw_os_error() == Some(28) {
            return AetherError::DiskFull;
        }
        AetherError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AetherError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lsn;

    #[test]
    fn display_variants() {
        let e = AetherError::Corrupt {
            at: Lsn(64),
            reason: "bad checksum".into(),
        };
        assert!(e.to_string().contains("64"));
        assert!(AetherError::Shutdown.to_string().contains("shut down"));
        assert!(AetherError::Config("x".into()).to_string().contains("x"));
        let io: AetherError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(AetherError::DiskFull.to_string().contains("ENOSPC"));
        assert!(AetherError::Poisoned {
            reason: "sync failed".into()
        }
        .to_string()
        .contains("sync failed"));
        assert!(AetherError::LogFull {
            retained: 100,
            limit: 50
        }
        .to_string()
        .contains("100"));
        assert!(AetherError::Busy("ckpt".into())
            .to_string()
            .contains("ckpt"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let io: AetherError = std::io::Error::other("boom").into();
        assert!(io.source().is_some());
        assert!(AetherError::Shutdown.source().is_none());
    }

    #[test]
    fn enospc_classifies_as_disk_full() {
        let e: AetherError = std::io::Error::from_raw_os_error(28).into();
        assert!(matches!(e, AetherError::DiskFull));
        // EIO stays a plain (permanent) I/O error.
        let e: AetherError = std::io::Error::from_raw_os_error(5).into();
        assert!(matches!(e, AetherError::Io(_)));
    }

    #[test]
    fn transience_classification() {
        let transient: AetherError =
            std::io::Error::new(std::io::ErrorKind::Interrupted, "blip").into();
        assert!(transient.is_transient());
        let timed: AetherError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(timed.is_transient());
        assert!(AetherError::Busy("x".into()).is_transient());
        assert!(AetherError::LogFull {
            retained: 1,
            limit: 1
        }
        .is_transient());
        assert!(!AetherError::DiskFull.is_transient());
        assert!(!AetherError::Shutdown.is_transient());
        assert!(!AetherError::Poisoned { reason: "x".into() }.is_transient());
        let eio: AetherError = std::io::Error::from_raw_os_error(5).into();
        assert!(!eio.is_transient());
    }
}
