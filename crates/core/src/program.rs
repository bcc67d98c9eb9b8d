//! Declarative transaction programs.
//!
//! The workload generators describe each transaction as a [`TxnProgram`]: a
//! list of [`Operation`]s plus retry metadata.  Programs serve two purposes:
//!
//! * they are the only way to execute under Aria, which must know the whole
//!   transaction before its batch runs;
//! * they give the benchmark drivers a protocol-agnostic way to submit work —
//!   `Database::execute_program` runs the same program under any protocol.

use txsql_common::TableId;

/// One statement of a transaction program.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// Snapshot read of the row with primary key `pk`.
    Read {
        /// Table to read from.
        table: TableId,
        /// Primary key.
        pk: i64,
    },
    /// `SELECT ... FOR UPDATE`: lock the row exclusively without changing it.
    SelectForUpdate {
        /// Table to read from.
        table: TableId,
        /// Primary key.
        pk: i64,
    },
    /// `UPDATE t SET col = col + delta WHERE id = pk` — the hot-row primitive.
    UpdateAdd {
        /// Table to update.
        table: TableId,
        /// Primary key.
        pk: i64,
        /// Column index to modify (must be an integer column).
        column: usize,
        /// Amount to add.
        delta: i64,
    },
    /// Insert a fresh row whose primary key is `pk`; remaining integer
    /// columns are filled with `fill`.
    Insert {
        /// Table to insert into.
        table: TableId,
        /// Primary key of the new row.
        pk: i64,
        /// What the non-key columns are filled with.
        fill: i64,
    },
    /// Application work performed inside the transaction (business logic, a
    /// downstream call) while every lock acquired so far stays held.  The
    /// open-loop traces use it to give hot-row critical sections a realistic
    /// length; under deterministic simulation it advances virtual time
    /// instead of burning wall clock.
    Work {
        /// Work length in microseconds.
        micros: u64,
    },
    /// Ask the engine to roll the transaction back at this point (used to
    /// inject aborts for the Figure 10 experiment).
    ForcedRollback,
}

impl Operation {
    /// True for operations that take an exclusive lock / write.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Operation::UpdateAdd { .. }
                | Operation::Insert { .. }
                | Operation::SelectForUpdate { .. }
        )
    }

    /// The `(table, pk)` the operation touches, if any.
    pub fn key(&self) -> Option<(TableId, i64)> {
        match self {
            Operation::Read { table, pk }
            | Operation::SelectForUpdate { table, pk }
            | Operation::UpdateAdd { table, pk, .. }
            | Operation::Insert { table, pk, .. } => Some((*table, *pk)),
            Operation::Work { .. } | Operation::ForcedRollback => None,
        }
    }
}

/// A whole transaction, described up front.
#[derive(Debug, Clone, Default)]
pub struct TxnProgram {
    /// The operations, in execution order.
    pub operations: Vec<Operation>,
}

impl TxnProgram {
    /// Creates a program from operations.
    pub fn new(operations: Vec<Operation>) -> Self {
        Self { operations }
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// True when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// True when any operation writes.
    pub fn has_writes(&self) -> bool {
        self.operations.iter().any(Operation::is_write)
    }

    /// The set of `(table, pk)` keys written by the program (Aria's write
    /// reservations are computed from this).
    pub fn write_keys(&self) -> Vec<(TableId, i64)> {
        let mut keys: Vec<(TableId, i64)> = self
            .operations
            .iter()
            .filter(|op| op.is_write())
            .filter_map(Operation::key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The set of `(table, pk)` keys read by the program.
    pub fn read_keys(&self) -> Vec<(TableId, i64)> {
        let mut keys: Vec<(TableId, i64)> = self
            .operations
            .iter()
            .filter(|op| matches!(op, Operation::Read { .. }))
            .filter_map(Operation::key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// Result of running one program attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramOutcome {
    /// Values returned by `Read` operations, in order.
    pub reads: Vec<i64>,
    /// Whether the transaction committed (false only for intentional
    /// `ForcedRollback` programs — contention aborts are reported as errors).
    pub committed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TxnProgram {
        TxnProgram::new(vec![
            Operation::Read {
                table: TableId(1),
                pk: 5,
            },
            Operation::UpdateAdd {
                table: TableId(1),
                pk: 1,
                column: 1,
                delta: 1,
            },
            Operation::UpdateAdd {
                table: TableId(1),
                pk: 1,
                column: 1,
                delta: 2,
            },
            Operation::Insert {
                table: TableId(2),
                pk: 9,
                fill: 0,
            },
        ])
    }

    #[test]
    fn write_and_read_keys_deduplicate() {
        let p = sample();
        assert_eq!(p.write_keys(), vec![(TableId(1), 1), (TableId(2), 9)]);
        assert_eq!(p.read_keys(), vec![(TableId(1), 5)]);
        assert!(p.has_writes());
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn operation_classification() {
        assert!(Operation::UpdateAdd {
            table: TableId(1),
            pk: 1,
            column: 1,
            delta: 1
        }
        .is_write());
        assert!(Operation::SelectForUpdate {
            table: TableId(1),
            pk: 1
        }
        .is_write());
        assert!(!Operation::Read {
            table: TableId(1),
            pk: 1
        }
        .is_write());
        assert_eq!(Operation::ForcedRollback.key(), None);
        assert!(!Operation::ForcedRollback.is_write());
    }

    #[test]
    fn read_only_program_has_no_writes() {
        let p = TxnProgram::new(vec![Operation::Read {
            table: TableId(1),
            pk: 1,
        }]);
        assert!(!p.has_writes());
        assert!(p.write_keys().is_empty());
    }
}
