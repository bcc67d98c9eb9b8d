//! # txsql
//!
//! A from-scratch Rust reproduction of **"TXSQL: Lock Optimizations Towards
//! High Contented Workloads"** (SIGMOD 2025): a multi-threaded in-memory
//! transactional engine whose lock manager implements the paper's whole
//! optimization journey — lightweight locking, copy-free read views, queue
//! locking and group locking for hotspots — alongside the MySQL, Bamboo and
//! Aria baselines it is evaluated against.
//!
//! This crate is a thin facade: it re-exports the workspace crates so that a
//! downstream user (and the bundled examples) can depend on a single `txsql`
//! crate.
//!
//! ```
//! use txsql::prelude::*;
//!
//! let db = Database::with_protocol(Protocol::GroupLockingTxsql);
//! db.create_table(TableSchema::new(TableId(1), "counters", 2)).unwrap();
//! db.load_row(TableId(1), Row::from_ints(&[1, 0])).unwrap();
//!
//! let mut txn = db.begin();
//! db.update_add(&mut txn, TableId(1), 1, 1, 5).unwrap();
//! db.commit(txn).unwrap();
//!
//! let record = db.record_id(TableId(1), 1).unwrap();
//! let row = db.storage().read_committed(TableId(1), record).unwrap().unwrap();
//! assert_eq!(row.get_int(1), Some(5));
//! db.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use txsql_common as common;
pub use txsql_core as core;
pub use txsql_lockmgr as lockmgr;
pub use txsql_replication as replication;
pub use txsql_storage as storage;
pub use txsql_txn as txn;
pub use txsql_workloads as workloads;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use txsql_common::latency::LatencyModel;
    pub use txsql_common::{Error, RecordId, Result, Row, TableId, TxnId};
    pub use txsql_core::{Database, EngineConfig, Operation, ProgramOutcome, Protocol, TxnProgram};
    pub use txsql_replication::{ReplicationHook, ReplicationMode};
    pub use txsql_storage::TableSchema;
    pub use txsql_workloads::{
        run_closed_loop, run_fixed_tps_report, ClosedLoopOptions, FitWorkload, FixedTpsOptions,
        HotspotsTrace, SysbenchVariant, SysbenchWorkload, TpccWorkload, Workload,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_round_trip() {
        let db = Database::with_protocol(Protocol::LightweightO1);
        db.create_table(TableSchema::new(TableId(1), "t", 2))
            .unwrap();
        db.load_row(TableId(1), Row::from_ints(&[1, 10])).unwrap();
        let outcome = db
            .execute_program(&TxnProgram::new(vec![Operation::UpdateAdd {
                table: TableId(1),
                pk: 1,
                column: 1,
                delta: 1,
            }]))
            .unwrap();
        assert!(outcome.committed);
        db.shutdown();
    }
}
