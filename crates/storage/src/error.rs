//! Storage-manager errors.

use std::fmt;

/// Errors surfaced by the storage manager.
#[derive(Debug)]
pub enum StorageError {
    /// Lock wait timed out (treated as a deadlock victim).
    LockTimeout {
        /// Transaction that gave up.
        txn: u64,
    },
    /// The deadlock detector chose this transaction as the victim.
    Deadlock {
        /// Victim transaction.
        txn: u64,
    },
    /// Key not found in the table.
    KeyNotFound {
        /// Table id.
        table: u32,
        /// Missing key.
        key: u64,
    },
    /// Key already present on insert.
    DuplicateKey {
        /// Table id.
        table: u32,
        /// Conflicting key.
        key: u64,
    },
    /// Record/RID out of range or size mismatch.
    InvalidRecord(String),
    /// Transaction used after commit/abort.
    TxnNotActive(u64),
    /// Log-layer failure.
    Log(aether_core::AetherError),
    /// Recovery found an inconsistency it cannot repair.
    Recovery(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::LockTimeout { txn } => write!(f, "lock timeout (txn {txn})"),
            StorageError::Deadlock { txn } => write!(f, "deadlock victim (txn {txn})"),
            StorageError::KeyNotFound { table, key } => {
                write!(f, "key {key} not found in table {table}")
            }
            StorageError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table}")
            }
            StorageError::InvalidRecord(m) => write!(f, "invalid record: {m}"),
            StorageError::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            StorageError::Log(e) => write!(f, "log error: {e}"),
            StorageError::Recovery(m) => write!(f, "recovery error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Log(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aether_core::AetherError> for StorageError {
    fn from(e: aether_core::AetherError) -> Self {
        StorageError::Log(e)
    }
}

/// Convenience alias.
pub type StorageResult<T> = Result<T, StorageError>;

impl StorageError {
    /// True for errors that indicate the transaction should be retried
    /// (deadlock victims, lock timeouts, and transient log-layer conditions
    /// such as admission-control rejection under disk pressure).
    pub fn is_retryable(&self) -> bool {
        match self {
            StorageError::LockTimeout { .. } | StorageError::Deadlock { .. } => true,
            StorageError::Log(e) => e.is_transient(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_retryability() {
        assert!(StorageError::LockTimeout { txn: 3 }.is_retryable());
        assert!(StorageError::Deadlock { txn: 3 }.is_retryable());
        assert!(!StorageError::KeyNotFound { table: 1, key: 2 }.is_retryable());
        assert!(StorageError::Log(aether_core::AetherError::LogFull {
            retained: 9,
            limit: 8,
        })
        .is_retryable());
        assert!(
            StorageError::Log(aether_core::AetherError::Busy("admission".into())).is_retryable()
        );
        assert!(!StorageError::Log(aether_core::AetherError::Shutdown).is_retryable());
        assert!(StorageError::Deadlock { txn: 7 }.to_string().contains('7'));
        assert!(StorageError::DuplicateKey { table: 1, key: 9 }
            .to_string()
            .contains('9'));
    }
}
