//! O2, queue locking (§3.2): O1, plus a FIFO ticket queue in front of every
//! detected hot row.  A hot-row writer takes the row's ticket first and only
//! then the real lock, so at most one transaction contends for it; the
//! ticket is given back once the transaction's outcome is final.

use super::{held, lock_row};
use super::{ConcurrencyControl, LockTable};
use crate::database::DbInner;
use std::sync::Arc;
use std::time::Instant;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, RecordId, Result, TableId};
use txsql_lockmgr::queue_lock::{QueueAdmission, QueueLockTable};
use txsql_lockmgr::LightweightLockTable;
use txsql_txn::{HotRole, Transaction};

pub(super) struct QueueLocking {
    pub(super) locks: LightweightLockTable,
    pub(super) tickets: QueueLockTable,
    pub(super) metrics: Arc<EngineMetrics>,
}

impl ConcurrencyControl for QueueLocking {
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()> {
        if held(txn, table, record) {
            return Ok(());
        }
        if !db.hotspots.is_hot(record) {
            lock_row(&self.locks, txn, record, Some(&db.hotspots))?;
            txn.record_lock(record);
            return Ok(());
        }
        let (key, owner) = (record.packed(), txn.id.0);
        match self.tickets.admit(key, owner) {
            QueueAdmission::Proceed => {}
            QueueAdmission::Full => unreachable!("queue locking sets no bound"),
            QueueAdmission::Wait(event, _) => {
                let start = Instant::now();
                let granted = self.tickets.wait(key, owner, event);
                txn.add_blocked(start.elapsed());
                if !granted {
                    self.metrics.lock_waits.inc();
                    return Err(Error::LockWaitTimeout {
                        txn: txn.id,
                        record,
                    });
                }
            }
        }
        // Ticket acquired: take the real row lock (the previous holder has
        // already released it, or will very soon).
        if let Err(err) = lock_row(&self.locks, txn, record, None) {
            self.tickets.release(key, owner);
            return Err(err);
        }
        txn.record_lock(record);
        txn.record_hot_update(record, HotRole::Leader, 0, None);
        self.metrics.hotspot_group_entries.inc();
        Ok(())
    }

    /// The row lock is gone: the next ticket holder may contend for it.
    fn finished(&self, txn: &Transaction, _committed: bool) {
        for hot in txn.hot_updates() {
            self.tickets.release(hot.record.packed(), txn.id.0);
        }
    }

    fn locks(&self) -> &dyn LockTable {
        &self.locks
    }

    fn keep_hot(&self, record: RecordId) -> bool {
        self.tickets.has_waiters(record.packed()) || self.locks.wait_queue_len(record) > 0
    }

    fn live_entries(&self) -> usize {
        self.tickets.live_queues()
    }
}
