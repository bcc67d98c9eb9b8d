//! # txsql-storage
//!
//! An in-memory, InnoDB-like storage engine substrate for the TXSQL
//! reproduction.
//!
//! The paper's optimizations live in the lock manager and transaction
//! manager, but they only make sense on top of a storage engine that has the
//! same moving parts as InnoDB:
//!
//! * rows addressed by `<space_id, page_no, heap_no>` and organised in pages
//!   ([`heap`]),
//! * tables with a primary-key index ([`schema`], [`table`]), found — like
//!   their pages and slots — through append-only directories that readers
//!   borrow from without locking ([`directory`]),
//! * MVCC version chains so snapshot reads never block ([`version`]),
//! * an undo header that carries either the commit sequence number or the
//!   `hot_update_order` (paper §5.3), logged in the redo log, and each
//!   unfinished writer's first LSN, the checkpoint floor ([`undo`]) — the
//!   version chain is the undo image and the write set the undo list,
//! * a redo log / WAL of checksummed frames in fixed segments, appended to
//!   without a lock, with an explicit durability horizon so crashes can be
//!   simulated ([`wal`]),
//! * crash-fault injection that kills the simulated process at named crash
//!   points from a seeded plan ([`fault`]),
//! * and crash recovery that replays the durable redo suffix (scan-stopping
//!   at a torn tail) and rolls back uncommitted transactions in the correct
//!   (hotspot-aware) order ([`recovery`]).
//!
//! The [`Storage`] facade ties these together and is what the transaction
//! layer (`txsql-txn`, `txsql-core`) talks to.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod directory;
pub mod fault;
pub mod heap;
pub mod recovery;
pub mod schema;
pub mod storage;
pub mod table;
pub mod undo;
pub mod version;
pub mod wal;

pub use fault::{CrashPoint, FaultInjector, FaultPlan};
pub use schema::TableSchema;
pub use storage::Storage;
pub use table::Table;
pub use undo::UndoHeader;
pub use version::{RecordVersions, Version, VisibilityJudge};
pub use wal::{RedoLog, RedoRecord};
