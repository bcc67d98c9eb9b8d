//! Error types shared across the engine.
//!
//! The variants mirror the abort reasons the paper distinguishes:
//! lock-wait timeouts (§3.2 uses timeouts instead of deadlock detection on hot
//! rows), detected deadlocks (vanilla 2PL), the *prevented* hot/non-hot
//! deadlock rollback (§4.5), cascading aborts caused by group locking (§4.4),
//! and Aria's batch-validation aborts.

use crate::ids::{RecordId, TableId, TxnId};
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Engine-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A lock wait exceeded the configured timeout and the transaction must
    /// abort (the paper's preferred mechanism for hot rows, §3.2 / §4.5).
    LockWaitTimeout {
        /// Transaction that timed out.
        txn: TxnId,
        /// Record it was waiting for.
        record: RecordId,
    },
    /// The wait-for-graph deadlock detector chose this transaction as victim.
    Deadlock {
        /// Victim transaction.
        txn: TxnId,
    },
    /// Deadlock *prevention* on hotspots (§4.5): the blocked transaction and
    /// its blocker both updated the same hot row, so we proactively roll back
    /// rather than wait for a timeout.
    HotspotDeadlockPrevented {
        /// Transaction that is rolled back.
        txn: TxnId,
        /// The hot row both transactions updated.
        hot_record: RecordId,
        /// The transaction currently blocking us.
        blocker: TxnId,
    },
    /// The transaction was aborted because a transaction it depends on (an
    /// earlier uncommitted hotspot update it read from) rolled back — a
    /// cascading abort (§4.4).
    CascadingAbort {
        /// Aborted transaction.
        txn: TxnId,
        /// The transaction whose rollback triggered the cascade.
        cause: TxnId,
    },
    /// Aria batch validation failed (RAW/WAW conflict inside the batch).
    AriaValidationFailed {
        /// Aborted transaction.
        txn: TxnId,
    },
    /// Bamboo-style dirty-read cascade: a lock the transaction inherited early
    /// was invalidated by the holder's abort.
    DirtyReadAborted {
        /// Aborted transaction.
        txn: TxnId,
        /// The aborted holder it read from.
        cause: TxnId,
    },
    /// The user requested an explicit rollback (injected aborts in Figure 10).
    ExplicitRollback {
        /// Rolled-back transaction.
        txn: TxnId,
    },
    /// Referenced table does not exist.
    UnknownTable {
        /// The missing table.
        table: TableId,
    },
    /// Referenced row does not exist.
    UnknownRecord {
        /// The missing record.
        record: RecordId,
    },
    /// A primary-key lookup failed.
    KeyNotFound {
        /// Table searched.
        table: TableId,
        /// Key searched for.
        key: i64,
    },
    /// Attempt to insert a duplicate primary key.
    DuplicateKey {
        /// Table the insert targeted.
        table: TableId,
        /// The duplicate key.
        key: i64,
    },
    /// Admission control shed the transaction at the front door: the
    /// admission queue for a hot record it declared was at capacity (or in
    /// its post-shed hysteresis window), so the transaction was rejected
    /// *before* touching the lock table rather than queueing unboundedly.
    Overloaded {
        /// The hot record whose admission queue rejected the transaction.
        record: RecordId,
    },
    /// An injected crash fired: the simulated process died at the named crash
    /// point.  Everything after this error is the crash image — the only
    /// legitimate continuation is recovery (`Database::restart_from_crash`).
    Crashed {
        /// The crash point that fired (see `txsql_storage::fault::CrashPoint`).
        point: &'static str,
    },
    /// The engine degraded to read-only (a persistent fsync failure): reads
    /// keep working, writes and flushes are rejected.
    ReadOnly {
        /// Why the engine degraded.
        reason: &'static str,
    },
    /// The protocol in force does not offer the operation (a session write
    /// under Aria); retrying does not help.
    Unsupported {
        /// The refused operation.
        what: &'static str,
    },
    /// A row with more columns than a frame of the redo log holds.
    RowTooLarge {
        /// The row's column count.
        columns: usize,
    },
    /// Generic invariant violation (programming error surfaced gracefully).
    Internal {
        /// Description of the violated invariant.
        reason: String,
    },
}

impl Error {
    /// Returns true when the error is one of the abort classes after which a
    /// client is expected to retry the whole transaction (every contention-
    /// related abort in the paper's experiments is retried by the driver).
    /// An admission shed ([`Error::Overloaded`]) is retryable too, but only
    /// *after* backing off — the drivers' retry budget and adaptive backoff
    /// enforce that a shed client waits instead of hammering the queue.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::LockWaitTimeout { .. }
                | Error::Deadlock { .. }
                | Error::HotspotDeadlockPrevented { .. }
                | Error::CascadingAbort { .. }
                | Error::AriaValidationFailed { .. }
                | Error::DirtyReadAborted { .. }
                | Error::Overloaded { .. }
        )
    }

    /// Returns true when the abort is part of a cascade (used by Figure 10's
    /// cascade-abort-ratio measurement).
    pub fn is_cascading(&self) -> bool {
        matches!(
            self,
            Error::CascadingAbort { .. } | Error::DirtyReadAborted { .. }
        )
    }

    /// Short machine-readable label used by the metrics registry.
    pub fn label(&self) -> &'static str {
        match self {
            Error::LockWaitTimeout { .. } => "lock_wait_timeout",
            Error::Deadlock { .. } => "deadlock",
            Error::HotspotDeadlockPrevented { .. } => "hotspot_deadlock_prevented",
            Error::CascadingAbort { .. } => "cascading_abort",
            Error::AriaValidationFailed { .. } => "aria_validation_failed",
            Error::DirtyReadAborted { .. } => "dirty_read_aborted",
            Error::ExplicitRollback { .. } => "explicit_rollback",
            Error::UnknownTable { .. } => "unknown_table",
            Error::UnknownRecord { .. } => "unknown_record",
            Error::KeyNotFound { .. } => "key_not_found",
            Error::DuplicateKey { .. } => "duplicate_key",
            Error::Overloaded { .. } => "overloaded",
            Error::Crashed { .. } => "crash_injected",
            Error::ReadOnly { .. } => "read_only",
            Error::Unsupported { .. } => "unsupported",
            Error::RowTooLarge { .. } => "row_too_large",
            Error::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LockWaitTimeout { txn, record } => {
                write!(f, "{txn} timed out waiting for a lock on {record}")
            }
            Error::Deadlock { txn } => write!(f, "{txn} chosen as deadlock victim"),
            Error::HotspotDeadlockPrevented { txn, hot_record, blocker } => write!(
                f,
                "{txn} rolled back to prevent a deadlock on hot row {hot_record} (blocked by {blocker})"
            ),
            Error::CascadingAbort { txn, cause } => {
                write!(f, "{txn} aborted in cascade caused by rollback of {cause}")
            }
            Error::AriaValidationFailed { txn } => {
                write!(f, "{txn} failed Aria batch validation")
            }
            Error::DirtyReadAborted { txn, cause } => {
                write!(f, "{txn} aborted because it read dirty data from aborted {cause}")
            }
            Error::ExplicitRollback { txn } => write!(f, "{txn} explicitly rolled back"),
            Error::UnknownTable { table } => write!(f, "unknown {table}"),
            Error::UnknownRecord { record } => write!(f, "unknown {record}"),
            Error::KeyNotFound { table, key } => write!(f, "key {key} not found in {table}"),
            Error::DuplicateKey { table, key } => write!(f, "duplicate key {key} in {table}"),
            Error::Overloaded { record } => {
                write!(f, "shed by admission control: queue for hot {record} is full")
            }
            Error::Crashed { point } => write!(f, "injected crash fired at {point}"),
            Error::ReadOnly { reason } => write!(f, "engine is read-only: {reason}"),
            Error::Unsupported { what } => write!(f, "not supported: {what}"),
            Error::RowTooLarge { columns } => write!(f, "a {columns}-column row fits no log frame"),
            Error::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RecordId;

    #[test]
    fn retryable_classification() {
        let timeout = Error::LockWaitTimeout {
            txn: TxnId(1),
            record: RecordId::new(1, 1, 1),
        };
        let deadlock = Error::Deadlock { txn: TxnId(1) };
        let dup = Error::DuplicateKey {
            table: TableId(1),
            key: 7,
        };
        assert!(timeout.is_retryable());
        assert!(deadlock.is_retryable());
        assert!(!dup.is_retryable());
    }

    #[test]
    fn overloaded_is_retryable_after_backoff() {
        let shed = Error::Overloaded {
            record: RecordId::new(1, 2, 3),
        };
        assert!(shed.is_retryable(), "a shed client retries after backoff");
        assert!(!shed.is_cascading());
        assert_eq!(shed.label(), "overloaded");
        assert!(shed.to_string().contains("admission"));
    }

    #[test]
    fn crash_and_read_only_are_terminal() {
        // Neither error class may be retried by a workload driver: the only
        // legitimate continuation is a restart (crash) or an operator
        // intervention (read-only degradation).
        let crashed = Error::Crashed { point: "mid_flush" };
        let read_only = Error::ReadOnly {
            reason: "fsync failed persistently",
        };
        assert!(!crashed.is_retryable());
        assert!(!read_only.is_retryable());
        assert_eq!(crashed.label(), "crash_injected");
        assert_eq!(read_only.label(), "read_only");
        assert!(crashed.to_string().contains("mid_flush"));
        assert!(read_only.to_string().contains("fsync"));
    }

    #[test]
    fn cascading_classification() {
        let cascade = Error::CascadingAbort {
            txn: TxnId(2),
            cause: TxnId(1),
        };
        let dirty = Error::DirtyReadAborted {
            txn: TxnId(2),
            cause: TxnId(1),
        };
        let timeout = Error::LockWaitTimeout {
            txn: TxnId(1),
            record: RecordId::new(1, 1, 1),
        };
        assert!(cascade.is_cascading());
        assert!(dirty.is_cascading());
        assert!(!timeout.is_cascading());
    }

    #[test]
    fn labels_are_distinct_for_abort_classes() {
        let errors = [
            Error::Deadlock { txn: TxnId(1) },
            Error::LockWaitTimeout {
                txn: TxnId(1),
                record: RecordId::new(0, 0, 0),
            },
            Error::CascadingAbort {
                txn: TxnId(1),
                cause: TxnId(2),
            },
            Error::AriaValidationFailed { txn: TxnId(1) },
        ];
        let labels: std::collections::HashSet<_> = errors.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), errors.len());
    }

    #[test]
    fn display_is_human_readable() {
        let err = Error::HotspotDeadlockPrevented {
            txn: TxnId(3),
            hot_record: RecordId::new(1, 2, 3),
            blocker: TxnId(4),
        };
        let s = err.to_string();
        assert!(s.contains("trx#3"));
        assert!(s.contains("rec(1,2,3)"));
        assert!(s.contains("trx#4"));
    }
}
