//! The protocol seam: one trait, one impl per concurrency-control protocol.
//!
//! The paper presents MySQL → O1 → O2 → group locking as successive
//! replacements of the same three steps of a transaction's life (§3.1–3.3;
//! §4 Alg. 1 Execute, Alg. 2 Commit, Alg. 3 Rollback).  [`Database`] runs
//! those steps once and calls out to a [`ConcurrencyControl`] at the places
//! where the protocols differ; it never asks which protocol it is.
//!
//! | hook | called from | paper |
//! |---|---|---|
//! | `begin` | `Database::begin` | — |
//! | `acquire_for_write` | `update_row` / `select_for_update`, before the read | Alg. 1 lines 2–9 (+ §4.5 prevention): a hot row's writer owns the row's one flight |
//! | `after_write` | `update_row`, after the new version is stacked | Alg. 1 lines 10–14 (end the flight, grant the next follower) |
//! | `before_order` | `commit`, before `trx_no` and the commit record | Alg. 2 lines 2–10 (leader step-down, commit turn) |
//! | `after_order` | `commit`, once the commit record is in the log | Alg. 2 lines 11–12 (leave the dependency list) |
//! | `before_undo` | `rollback`, before the storage undo | Alg. 3 lines 2–7 (doom successors, rollback turn) |
//! | `after_undo` | `rollback`, after the storage undo | Alg. 3 lines 8–12 (leave the list, resume granting) |
//! | `finished` | last protocol step of commit and rollback | O2 ticket release, Bamboo outcome |
//! | `execute_program` | `Database::execute_program`, after admission | Aria's batches |
//!
//! Every hook defaults to a no-op, so plain 2PL is its lock table and
//! nothing else: between `after_order` / `after_undo` and `finished` the
//! engine drops the transaction's locks through [`LockTable::release_all`]
//! (the 2PL release point).  Each impl owns its protocol's state:
//!
//! | [`Protocol`] | impl | owns |
//! |---|---|---|
//! | `Mysql2pl` | [`TwoPhase`]`<PageLayout>` | the page-sharded `lock_sys`, a lock object per acquisition |
//! | `LightweightO1` | [`TwoPhase`]`<FlatLayout>` | the record-keyed lightweight table |
//! | `QueueLockingO2` | [`QueueLocking`] | lightweight table + per-hot-row ticket queues |
//! | `GroupLockingTxsql` | [`GroupLocking`] | lightweight table + `GroupLockTable` (groups, dependency lists) |
//! | `Bamboo` | [`Bamboo`] | lightweight table + the completion event of every active transaction |
//! | `Aria` | [`Aria`] | the batch queue; programs only — a session update is refused, so its lightweight table stays empty |
//!
//! The lock table is a concrete type inside each impl, so the acquire path
//! stays monomorphised; the seam costs one indirect call per hook.  The
//! hotspot registry stays on the engine: admission control reads it too.

mod aria;
mod bamboo;
mod group;
mod queue;

use crate::config::{EngineConfig, Protocol};
use crate::database::{Database, DbInner};
use crate::program::{ProgramOutcome, TxnProgram};
use aria::Aria;
use bamboo::Bamboo;
use group::GroupLocking;
use parking_lot::Mutex;
use queue::QueueLocking;
use std::sync::Arc;
use std::time::Instant;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{RecordId, Result, TableId, TxnId};
use txsql_lockmgr::group_lock::GroupLockTable;
use txsql_lockmgr::hotspot::HotspotRegistry;
use txsql_lockmgr::lock_table::{Layout, RecordLockTable};
use txsql_lockmgr::queue_lock::QueueLockTable;
use txsql_lockmgr::registry::TxnLockRegistry;
use txsql_lockmgr::{LightweightLockTable, LockSys, LockTableConfig};
use txsql_txn::Transaction;

/// What a protocol does at each step of a transaction (call sites: above).
pub(crate) trait ConcurrencyControl: Send + Sync {
    /// A transaction started.
    fn begin(&self, _txn: &Transaction) {}

    /// Admits `txn` to write `record`: blocks until it may read the row's
    /// newest version and stack its own on top.
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()>;

    /// `txn` stacked a new version on `record`.
    fn after_write(&self, _txn: &Transaction, _record: RecordId) {}

    /// Last step before the commit record is ordered; an error rolls back.
    fn before_order(&self, _txn: &mut Transaction) -> Result<()> {
        Ok(())
    }

    /// The commit record is in the log (locks are still held).
    fn after_order(&self, _txn: &Transaction) {}

    /// First step of a rollback, before storage undoes the writes.
    fn before_undo(&self, _txn: &mut Transaction) {}

    /// Storage has undone the writes (locks are still held).
    fn after_undo(&self, _txn: &Transaction) {}

    /// The outcome is final in storage and every lock is gone.
    fn finished(&self, _txn: &Transaction, _committed: bool) {}

    /// Runs an admitted program to its outcome.
    fn execute_program(&self, db: &Database, program: &TxnProgram) -> Result<ProgramOutcome> {
        db.run_session(program)
    }

    /// The protocol's record-lock table.
    fn locks(&self) -> &dyn LockTable;

    /// The sweeper's question before it demotes a hot `record`: does it still
    /// have traffic?  Not a pure query — a protocol drops the idle per-row
    /// state it finds while answering, this being the one place that learns
    /// a row has gone quiet.  Only asked under protocols that promote
    /// hotspots.
    fn keep_hot(&self, _record: RecordId) -> bool {
        false
    }

    /// Entries left in the protocol's private tables (groups, ticket queues,
    /// completions); zero when no transaction is active.
    fn live_entries(&self) -> usize {
        0
    }
}

/// What the engine itself asks of a record-lock table, in either layout.
pub(crate) trait LockTable: Send + Sync {
    /// Drops every record lock `txn` still holds; the release-path
    /// counters go to the transaction's metrics scratch.
    fn release_all(&self, txn: &Transaction);

    /// The lock bookkeeping transaction teardown verifies and
    /// `snapshot_metrics` samples.
    fn registry(&self) -> &Arc<TxnLockRegistry>;

    /// The transaction holding `record`'s lock, if any.
    fn holder_of(&self, record: RecordId) -> Option<TxnId>;
}

impl<L: Layout> LockTable for RecordLockTable<L> {
    fn release_all(&self, txn: &Transaction) {
        self.release_all_in(txn.id, txn.metrics());
    }

    fn registry(&self) -> &Arc<TxnLockRegistry> {
        RecordLockTable::registry(self)
    }

    fn holder_of(&self, record: RecordId) -> Option<TxnId> {
        RecordLockTable::holder_of(self, record)
    }
}

/// Plain strict 2PL over either layout of the record-lock table: the MySQL
/// baseline (the page-sharded `lock_sys`) and O1 (the record-keyed
/// lightweight table, §3.1).  The lock table is the whole protocol.
struct TwoPhase<L: Layout> {
    locks: RecordLockTable<L>,
}

impl<L: Layout> ConcurrencyControl for TwoPhase<L> {
    fn acquire_for_write(
        &self,
        _db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()> {
        if held(txn, table, record) {
            return Ok(());
        }
        lock_to_commit(&self.locks, txn, record)
    }

    fn locks(&self) -> &dyn LockTable {
        &self.locks
    }
}

/// Builds the protocol `config` selects, with the state it owns.
pub(crate) fn build(
    config: &EngineConfig,
    metrics: &Arc<EngineMetrics>,
) -> Box<dyn ConcurrencyControl> {
    let table = || LockTableConfig {
        lock_wait_timeout: config.lock_wait_timeout,
        ..LockTableConfig::default()
    };
    let metrics = || Arc::clone(metrics);
    let flat = || LightweightLockTable::new(table(), metrics());
    match config.protocol {
        Protocol::Mysql2pl => Box::new(TwoPhase {
            locks: LockSys::new(table(), metrics()),
        }),
        Protocol::LightweightO1 => Box::new(TwoPhase { locks: flat() }),
        Protocol::QueueLockingO2 => Box::new(QueueLocking {
            locks: flat(),
            tickets: QueueLockTable::new(config.group.hot_wait_timeout),
            metrics: metrics(),
        }),
        Protocol::GroupLockingTxsql => Box::new(GroupLocking {
            locks: flat(),
            groups: GroupLockTable::new(config.group.clone(), metrics()),
            metrics: metrics(),
        }),
        Protocol::Bamboo => Box::new(Bamboo {
            locks: flat(),
            completions: Mutex::default(),
            dependency_timeout: config.lock_wait_timeout * 4,
        }),
        Protocol::Aria => Box::new(Aria::new(flat(), config.aria_batch_size)),
    }
}

/// Whether `txn` wrote or locked `record` already (SELECT FOR UPDATE, then
/// UPDATE; repeated updates): it does not queue again (§4.6.2).  A hot
/// row's member asks its group instead.
fn held(txn: &Transaction, table: TableId, record: RecordId) -> bool {
    txn.write_set().contains(&(table, record)) || txn.holds_lock(record)
}

/// X-locks `record`, charging the wait to the transaction's blocked time.
/// The per-cycle lock counters go to the transaction's metrics scratch.
/// With a `detector` — the row is not hot (yet) — a request that has to
/// queue reports the queue it joins to it (§4.1 promotion); the lock attempt
/// itself does the reporting, so an uncontended row is probed exactly once,
/// by the acquisition.
fn lock_row<L: Layout>(
    locks: &RecordLockTable<L>,
    txn: &mut Transaction,
    record: RecordId,
    detector: Option<&HotspotRegistry>,
) -> Result<()> {
    let start = Instant::now();
    let report = |queue_len| {
        if let Some(hotspots) = detector {
            hotspots.observe_wait(record, queue_len);
        }
    };
    let result = locks.lock_record_reporting(txn.id, record, txn.metrics(), report);
    txn.add_blocked(start.elapsed());
    result
}

/// Plain 2PL admission: one exclusive record lock held to `release_all`.
fn lock_to_commit<L: Layout>(
    locks: &RecordLockTable<L>,
    txn: &mut Transaction,
    record: RecordId,
) -> Result<()> {
    lock_row(locks, txn, record, None)?;
    txn.record_lock(record);
    Ok(())
}
