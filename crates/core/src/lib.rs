//! # txsql-core
//!
//! The paper's primary contribution, assembled into a usable engine: a
//! multi-threaded, in-memory transactional database whose *write path* can be
//! switched between six concurrency-control protocols:
//!
//! | [`Protocol`] | Paper name | Impl (`src/cc/`) | Summary |
//! |---|---|---|---|
//! | `Mysql2pl` | MySQL | `TwoPhase<PageLayout>` | `lock_sys` sharded by page, lock object per acquisition, wait-for-graph deadlock detection |
//! | `LightweightO1` | O1 | `TwoPhase<FlatLayout>` | `trx_lock_wait` map sharded by record, lock objects only on conflict, copy-free read views |
//! | `QueueLockingO2` | O2 | `queue::QueueLocking` | O1 + FIFO ticket queues in front of detected hot rows, timeouts instead of detection |
//! | `GroupLockingTxsql` | TXSQL | `group::GroupLocking` | O1 + group locking: leader/follower groups, dependency list, ordered commit/rollback, group commit |
//! | `Bamboo` | Bamboo \[29\] | `bamboo::Bamboo` | early lock release with dirty-read commit dependencies and cascading aborts |
//! | `Aria` | Aria \[43\] | `aria::Aria` | batched deterministic execution with read/write-set validation |
//!
//! [`Database`] runs one write / commit / rollback skeleton and calls the
//! configured impl's hooks where the protocols differ (`src/cc/mod.rs` maps
//! each hook to its lines of the paper's Alg. 1–3); nothing outside `cc/` and
//! `config.rs` branches on the protocol.
//!
//! The public entry point is [`Database`]: create one with an
//! [`EngineConfig`], load tables, then run transactions either through the
//! explicit session API (`begin` / `update_add` / `commit`) or by submitting
//! declarative [`TxnProgram`]s (what the workload drivers do — and the only
//! way to run under Aria, which needs the whole transaction up front).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
mod cc;
pub mod checker;
pub mod commit;
pub mod config;
pub mod database;
pub mod hooks;
pub mod program;
pub mod write_path;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionPermit, BackoffPolicy, RetryState,
};
pub use checker::{HistoryRecorder, SerializabilityReport};
pub use commit::CommitPipeline;
pub use config::{ConfigDelta, EngineConfig, Protocol};
pub use database::Database;
pub use hooks::{BinlogTxn, CommitHook, OsEvent};
pub use program::{Operation, ProgramOutcome, TxnProgram};
