//! The per-protocol write path: how `UPDATE` / `SELECT FOR UPDATE` / `INSERT`
//! acquire (or avoid) locks.
//!
//! This module is where the paper's protocols actually diverge:
//!
//! * **MySQL** — IX table lock + record lock in the page-sharded `lock_sys`
//!   layout of the record-lock table, deadlock detection on every wait.
//! * **O1** — record lock in the lightweight `trx_lock_wait` layout; lock
//!   objects only materialise on conflict.
//! * **O2** — O1, plus: once a row is a detected hotspot, updates join the
//!   per-row ticket queue first and only then take the real lock (timeout,
//!   no detection).
//! * **TXSQL (group locking)** — O1, plus: hotspot updates join a group;
//!   the leader takes the row lock once, followers execute serially on the
//!   uncommitted head without locking; the §4.5 prevention check aborts a
//!   transaction that would block on a peer sharing its hot row.
//! * **Bamboo** — O1 acquisition, but the lock is released immediately after
//!   the update (early lock release); later transactions that consume the
//!   dirty value record a commit dependency and may cascade-abort.
//! * **Aria** never reaches this module (whole-program batches, see
//!   [`crate::aria`]).

use crate::config::Protocol;
use crate::database::{Database, RecordLocks};
use std::time::Instant;
use txsql_common::{Error, RecordId, Result, Row, TableId, TxnId};
use txsql_lockmgr::group_lock::{HotExecution, WokenRole};
use txsql_lockmgr::modes::LockMode;
use txsql_lockmgr::queue_lock::QueueAdmission;
use txsql_txn::{HotRole, Transaction};

/// How a row was admitted for writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteAdmission {
    /// A conventional lock is held (2PL / O1 / O2 / Bamboo / group leader).
    Locked,
    /// Group-locking follower: executes without any lock.
    HotFollower,
}

impl Database {
    /// `UPDATE table SET col<column> = col<column> + delta WHERE id = pk`.
    /// Returns the new column value.
    pub fn update_add(
        &self,
        txn: &mut Transaction,
        table: TableId,
        pk: i64,
        column: usize,
        delta: i64,
    ) -> Result<i64> {
        let mut new_value = 0;
        self.update_row(txn, table, pk, &mut |row: &mut Row| {
            new_value = row.add_int(column, delta).unwrap_or_default();
        })?;
        Ok(new_value)
    }

    /// `SELECT ... FOR UPDATE`: acquires the write admission for the row and
    /// returns its current (possibly uncommitted) value without modifying it.
    /// A later `UPDATE` of the same row by the same transaction skips the
    /// hotspot queueing step (§4.6.2).
    pub fn select_for_update(&self, txn: &mut Transaction, table: TableId, pk: i64) -> Result<Row> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        self.inner.metrics.queries.inc();
        let record = self.record_id(table, pk)?;
        let _admission = self.acquire_for_write(txn, table, record)?;
        // The locked read observes the newest version (a predecessor's
        // uncommitted head for group followers / Bamboo — by design); record
        // that version's writer so the checker sees the true wr dependency.
        let (row, writer) = self.inner.storage.read_latest_with_writer(table, record)?;
        txn.record_read(table, record, writer);
        Ok(row)
    }

    /// Transactional insert.
    pub fn insert(&self, txn: &mut Transaction, table: TableId, row: Row) -> Result<()> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        self.inner.metrics.queries.inc();
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "insert without integer pk".into(),
        })?;
        let (record, _) = self
            .inner
            .storage
            .apply_insert(txn.id, table, row.clone())?;
        txn.record_write(table, record);
        txn.record_change(table, pk, row);
        Ok(())
    }

    /// The shared read-modify-write skeleton used by every update statement.
    pub fn update_row(
        &self,
        txn: &mut Transaction,
        table: TableId,
        pk: i64,
        mutate: &mut dyn FnMut(&mut Row),
    ) -> Result<Row> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        self.inner.metrics.queries.inc();
        let record = self.record_id(table, pk)?;
        let admission = self.acquire_for_write(txn, table, record)?;

        // Read the newest version (for group followers / Bamboo this is the
        // predecessor's uncommitted value — exactly the point of the design),
        // apply the mutation, and stack the new version.  Bamboo takes its
        // commit dependency on that predecessor first: should the head change
        // before the read, the writer depended on has finished, and its
        // outcome decides ours.
        if self.protocol() == Protocol::Bamboo {
            self.depend_on_dirty_head(txn, table, record)?;
        }
        let mut row = self.inner.storage.read_latest(table, record)?;
        mutate(&mut row);
        self.inner
            .storage
            .apply_update(txn.id, table, record, row.clone())?;
        txn.record_write(table, record);
        txn.record_change(table, pk, row.clone());

        match admission {
            WriteAdmission::Locked => {
                // Bamboo: release the record lock right after the update (the
                // 2PL violation that gives early lock release its name).
                if self.protocol() == Protocol::Bamboo {
                    self.inner
                        .locks
                        .release_records(txn.id, &[record], txn.metrics_sink());
                }
                // Group-locking leaders still grant followers after each of
                // their own updates on the hot row.
                if self.protocol() == Protocol::GroupLockingTxsql
                    && txn.hot_role(record) == Some(HotRole::Leader)
                {
                    self.inner.group_locks.finish_update(txn.id, record, true);
                }
            }
            WriteAdmission::HotFollower => {
                self.inner.group_locks.finish_update(txn.id, record, false);
            }
        }
        Ok(row)
    }

    // ------------------------------------------------------------------
    // Admission control (the protocol dispatch)
    // ------------------------------------------------------------------

    pub(crate) fn acquire_for_write(
        &self,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<WriteAdmission> {
        // A transaction that already has write admission on this record (e.g.
        // SELECT FOR UPDATE followed by UPDATE, or repeated updates) does not
        // queue again (§4.6.2).
        if txn.write_set().contains(&(table, record)) || txn.holds_lock(record) {
            return Ok(WriteAdmission::Locked);
        }
        if let Some(role) = txn.hot_role(record) {
            return Ok(match role {
                HotRole::Leader => WriteAdmission::Locked,
                HotRole::Follower => WriteAdmission::HotFollower,
            });
        }

        match self.protocol() {
            Protocol::Mysql2pl | Protocol::LightweightO1 | Protocol::Bamboo | Protocol::Aria => {
                if let RecordLocks::LockSys(lock_sys) = &self.inner.locks {
                    // MySQL baseline: IX table lock before the record lock.
                    lock_sys.lock_table(txn.id, table, LockMode::IntentionExclusive)?;
                }
                self.acquire_record_lock(txn, record)
            }
            Protocol::QueueLockingO2 => self.acquire_queue(txn, record),
            Protocol::GroupLockingTxsql => self.acquire_group(txn, record),
        }
    }

    /// X-locks `record` in the engine's lock table, charging the wait to the
    /// transaction's blocked time.  The per-cycle lock counters go to the
    /// transaction's metrics scratch.
    fn lock_row(&self, txn: &mut Transaction, record: RecordId) -> Result<()> {
        let start = Instant::now();
        let result = self
            .inner
            .locks
            .lock_exclusive(txn.id, record, txn.metrics_sink());
        txn.add_blocked(start.elapsed());
        result
    }

    /// Plain 2PL admission: one exclusive record lock held to commit.
    fn acquire_record_lock(
        &self,
        txn: &mut Transaction,
        record: RecordId,
    ) -> Result<WriteAdmission> {
        self.lock_row(txn, record)?;
        txn.record_lock(record);
        Ok(WriteAdmission::Locked)
    }

    /// O2: hotspot ticket queue in front of the lightweight lock.
    fn acquire_queue(&self, txn: &mut Transaction, record: RecordId) -> Result<WriteAdmission> {
        if !self.inner.hotspots.is_hot(record) {
            self.observe_contention(record);
            return self.acquire_record_lock(txn, record);
        }
        let start = Instant::now();
        match self.inner.queue_locks.admit(txn.id, record) {
            QueueAdmission::Proceed => {}
            QueueAdmission::Wait(event) => {
                let outcome = event.wait_for(self.inner.queue_locks.timeout());
                if outcome == txsql_lockmgr::event::WaitOutcome::TimedOut
                    && !self.inner.queue_locks.claim_ticket(txn.id, record)
                    // A false return means the grant raced our timeout: the
                    // releaser already popped us and made us the active
                    // ticket holder, so bailing out here would wedge the
                    // queue behind a ticket nobody releases — proceed as
                    // granted instead.  True means we really left the queue
                    // (and the queue's event clone with it, so the recycle
                    // below can pool the event).
                    && self.inner.queue_locks.cancel_wait(txn.id, record)
                {
                    txsql_lockmgr::event::OsEvent::recycle(event);
                    txn.add_blocked(start.elapsed());
                    self.inner.metrics.lock_waits.inc();
                    return Err(Error::LockWaitTimeout {
                        txn: txn.id,
                        record,
                    });
                }
                txsql_lockmgr::event::OsEvent::recycle(event);
            }
        }
        // Ticket acquired: take the real row lock (the previous holder has
        // already released it, or will very soon).
        let result = self
            .inner
            .locks
            .lock_exclusive(txn.id, record, txn.metrics_sink());
        txn.add_blocked(start.elapsed());
        match result {
            Ok(()) => {
                txn.record_lock(record);
                txn.record_hot_update(record, HotRole::Leader, 0);
                self.inner.metrics.hotspot_group_entries.inc();
                Ok(WriteAdmission::Locked)
            }
            Err(err) => {
                self.inner.queue_locks.release(txn.id, record);
                Err(err)
            }
        }
    }

    /// The §4.5 prevention check extended to hot-row *registration*: joining
    /// `record`'s group behind a transaction that is ordered **after** us on
    /// another hot row we both updated would create a cross-record
    /// commit-order cycle — each of us first on one dependency list and
    /// second on the other — which the per-record FIFO commit waits can only
    /// resolve by timing out.  Aborting now converts a multi-second wedge of
    /// the whole hot row into one quick retried abort.  (The check snapshots
    /// the dependency lists without nesting group-entry locks; the rare
    /// registration that races past it still resolves through the
    /// commit-turn deadline.)
    fn check_hot_inversion(&self, txn: &Transaction, record: RecordId) -> Result<()> {
        if !txn.has_hot_updates() {
            return Ok(());
        }
        let members = self.inner.group_locks.dep_list(record);
        if members.is_empty() {
            return Ok(());
        }
        for (prior, _, _) in txn.hot_updates() {
            if prior == record {
                continue;
            }
            let prior_list = self.inner.group_locks.dep_list(prior);
            let Some(my_pos) = prior_list.iter().position(|t| *t == txn.id) else {
                continue;
            };
            for member in &members {
                if let Some(member_pos) = prior_list.iter().position(|t| t == member) {
                    if member_pos > my_pos {
                        return Err(Error::HotspotDeadlockPrevented {
                            txn: txn.id,
                            hot_record: record,
                            blocker: *member,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// TXSQL group locking (Algorithm 1) plus the §4.5 prevention check for
    /// non-hot rows.
    fn acquire_group(&self, txn: &mut Transaction, record: RecordId) -> Result<WriteAdmission> {
        // Fail fast if a predecessor's rollback already doomed us on a hot
        // row we updated: every statement from here on is wasted work, and
        // the aborter's rollback (with granting paused on that row) cannot
        // finish until we cascade.  Aborting at the next admission instead of
        // at commit shortens the whole drain.
        for (prior, _, _) in txn.hot_updates() {
            if let Some(cause) = self.inner.group_locks.doomed_cause(txn.id, prior) {
                return Err(Error::CascadingAbort { txn: txn.id, cause });
            }
        }
        if !self.inner.hotspots.is_hot(record) {
            // §4.5 deadlock prevention: if we already updated a hot row and
            // one of the transactions currently holding the lock we are about
            // to wait for updated the *same* hot row, waiting would very
            // likely deadlock (its commit depends on us, or ours on it) — roll
            // back proactively instead.  The check is deliberately
            // non-directional, as in the paper: waiting even behind a holder
            // that commits before us convoys the hot row's commit FIFO behind
            // a 200 ms cold-lock timeout, which measures far worse than the
            // quick abort-and-retry this produces.
            if txn.has_hot_updates() {
                let holders = self.inner.locks.holders_of(record);
                for holder in holders {
                    if holder == txn.id {
                        continue;
                    }
                    for (hot_record, _, _) in txn.hot_updates() {
                        if self
                            .inner
                            .group_locks
                            .both_updated(hot_record, txn.id, holder)
                        {
                            return Err(Error::HotspotDeadlockPrevented {
                                txn: txn.id,
                                hot_record,
                                blocker: holder,
                            });
                        }
                    }
                }
            }
            self.observe_contention(record);
            self.lock_row(txn, record)?;
            if !self.inner.hotspots.is_hot(record) {
                txn.record_lock(record);
                return Ok(WriteAdmission::Locked);
            }
            // The row was promoted while we queued.  A group leader hands the
            // row lock over *before* its commit record is ordered, relying on
            // every writer of a hot row being in the dependency list; holding
            // the lock outside the group we could read its uncommitted head
            // and commit first.  Nothing was read yet: give the lock back and
            // enter through the group like a fresh arrival.
            self.inner
                .locks
                .release_records(txn.id, &[record], txn.metrics_sink());
        }

        // Hot path (Algorithm 1).
        let start = Instant::now();
        match self.inner.group_locks.begin_hot_update(txn.id, record) {
            HotExecution::Leader => {
                // The leader performs the one real lock acquisition per group.
                let result = self
                    .inner
                    .locks
                    .lock_exclusive(txn.id, record, txn.metrics_sink());
                txn.add_blocked(start.elapsed());
                if let Err(err) = result {
                    self.inner.group_locks.leader_handover(txn.id, record);
                    return Err(err);
                }
                txn.record_lock(record);
                if let Err(err) = self.check_hot_inversion(txn, record) {
                    // The row lock we hold drains with the rollback's
                    // release; hand leadership over so the queue moves on.
                    self.inner.group_locks.leader_handover(txn.id, record);
                    return Err(err);
                }
                let order = self.inner.group_locks.register_update(txn.id, record);
                self.inner.storage.set_hot_update_order(txn.id, order);
                txn.record_hot_update(record, HotRole::Leader, order);
                Ok(WriteAdmission::Locked)
            }
            HotExecution::Follower => {
                txn.add_blocked(start.elapsed());
                if let Err(err) = self.check_hot_inversion(txn, record) {
                    // Clear the in-flight grant so the group keeps granting.
                    self.inner.group_locks.finish_update(txn.id, record, false);
                    return Err(err);
                }
                let order = self.inner.group_locks.register_update(txn.id, record);
                self.inner.storage.set_hot_update_order(txn.id, order);
                txn.record_hot_update(record, HotRole::Follower, order);
                Ok(WriteAdmission::HotFollower)
            }
            HotExecution::Wait(slot) => {
                let role = self.inner.group_locks.wait_for_grant(txn.id, record, &slot);
                txn.add_blocked(start.elapsed());
                self.inner.metrics.lock_waits.inc();
                match role? {
                    WokenRole::Follower => {
                        if let Err(err) = self.check_hot_inversion(txn, record) {
                            self.inner.group_locks.finish_update(txn.id, record, false);
                            return Err(err);
                        }
                        let order = self.inner.group_locks.register_update(txn.id, record);
                        self.inner.storage.set_hot_update_order(txn.id, order);
                        txn.record_hot_update(record, HotRole::Follower, order);
                        Ok(WriteAdmission::HotFollower)
                    }
                    WokenRole::NewLeader => {
                        if let Err(err) = self.lock_row(txn, record) {
                            self.inner.group_locks.leader_handover(txn.id, record);
                            return Err(err);
                        }
                        txn.record_lock(record);
                        if let Err(err) = self.check_hot_inversion(txn, record) {
                            self.inner.group_locks.leader_handover(txn.id, record);
                            return Err(err);
                        }
                        let order = self.inner.group_locks.register_update(txn.id, record);
                        self.inner.storage.set_hot_update_order(txn.id, order);
                        txn.record_hot_update(record, HotRole::Leader, order);
                        Ok(WriteAdmission::Locked)
                    }
                }
            }
        }
    }

    /// Observes lock-queue length for hotspot promotion (§4.1).
    fn observe_contention(&self, record: RecordId) {
        if !self.inner.config.protocol.uses_hotspots() {
            return;
        }
        let queue_len = self.inner.locks.wait_queue_len(record)
            + usize::from(!self.inner.locks.holders_of(record).is_empty());
        if queue_len > 0 {
            self.inner.hotspots.observe_wait(record, queue_len);
        }
    }

    /// Exposes whether two transactions both updated a given hot row (used by
    /// integration tests exercising the §4.5 scenario).
    pub fn both_updated_hot_row(&self, record: RecordId, a: TxnId, b: TxnId) -> bool {
        self.inner.group_locks.both_updated(record, a, b)
    }
}
