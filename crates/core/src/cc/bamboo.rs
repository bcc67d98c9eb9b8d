//! Bamboo \[29\]: O1's lock acquisition, but the record lock is released
//! right after the update (early lock release).  A later writer that stacks
//! on the uncommitted head takes a commit dependency on its writer: it may
//! not order its commit record before that writer's outcome is final, and
//! cascades if the writer aborts.

use super::{held, lock_to_commit, ConcurrencyControl, LockTable, WriteAdmission};
use crate::database::DbInner;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::FxHashMap;
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, TableId, TxnId};
use txsql_lockmgr::{LightweightLockTable, OsEvent};
use txsql_txn::{DirtyRead, Transaction};

/// Completion payload: the writer committed.
const COMMITTED: u32 = 1;
/// Completion payload: the writer rolled back; its dependents cascade.
const ABORTED: u32 = 2;

pub(super) struct Bamboo {
    pub(super) locks: LightweightLockTable,
    /// The completion event of every *active* transaction: a dependent clones
    /// its writer's event when it reads the writer's dirty version, and the
    /// writer posts [`COMMITTED`] or [`ABORTED`] to it — and leaves this map
    /// — once its outcome is final.  A dependent's wait is then one park on
    /// the event it holds; the event dies with its last dependent.
    pub(super) completions: Mutex<FxHashMap<TxnId, Arc<OsEvent>>>,
    /// How long a commit waits for the writers it depends on.
    pub(super) dependency_timeout: Duration,
}

impl ConcurrencyControl for Bamboo {
    fn begin(&self, txn: &Transaction) {
        let completion = OsEvent::acquire_pooled();
        self.completions.lock().insert(txn.id, completion);
    }

    /// Locks the row, then takes `txn`'s commit dependency on the writer of
    /// the row's uncommitted head, if it has one — before the read, so that
    /// should the head change in between, the writer depended on has
    /// finished and its outcome decides ours.  A writer leaves `completions`
    /// only after its versions were stamped or undone, so one that is no
    /// longer there is no longer the head's uncommitted writer either: look
    /// again.
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<WriteAdmission> {
        if held(txn, table, record).is_none() {
            lock_to_commit(&self.locks, txn, record)?;
        }
        while let Some(writer) = db.storage.latest_writer(table, record)? {
            if writer == txn.id {
                break;
            }
            let completion = self.completions.lock().get(&writer).cloned();
            if let Some(completion) = completion {
                txn.record_dirty_read_from(DirtyRead {
                    writer,
                    record,
                    completion,
                });
                break;
            }
        }
        Ok(WriteAdmission::Locked)
    }

    /// The 2PL violation that gives early lock release its name.
    fn after_write(&self, txn: &Transaction, record: RecordId, _admission: WriteAdmission) {
        let sink = txn.metrics_sink();
        self.locks.release_record_locks_in(txn.id, &[record], sink);
    }

    /// Waits for the outcome of every writer whose dirty data `txn` read —
    /// one park per dependency, woken by that writer's `finished`.  An I/O
    /// wait: the outcome is posted after the writer's flush.
    fn before_order(&self, txn: &mut Transaction) -> Result<()> {
        // SimInstant: under deterministic simulation this deadline lives on
        // the scheduler's virtual clock, so the timeout path is explorable.
        let deadline = SimInstant::now() + self.dependency_timeout;
        for read in txn.dirty_reads_from() {
            let remaining = deadline.saturating_duration_since(SimInstant::now());
            let _ = read.completion.wait_for(remaining);
            let (txn, cause, record) = (txn.id, read.writer, read.record);
            match read.completion.payload() {
                Some(COMMITTED) => {}
                Some(_) => return Err(Error::DirtyReadAborted { txn, cause }),
                None => return Err(Error::LockWaitTimeout { txn, record }),
            }
        }
        Ok(())
    }

    /// Posts the outcome to the transactions that read `txn`'s dirty data
    /// and forgets the completion (they keep the event alive for as long as
    /// they need it).
    fn finished(&self, txn: &Transaction, committed: bool) {
        let completion = self.completions.lock().remove(&txn.id);
        if let Some(completion) = completion {
            completion.set_with(if committed { COMMITTED } else { ABORTED });
            OsEvent::recycle(completion);
        }
    }

    fn locks(&self) -> &dyn LockTable {
        &self.locks
    }

    fn live_entries(&self) -> usize {
        self.completions.lock().len()
    }
}
