//! TXSQL group locking (§3.3, §4): O1, plus, once a row is a detected
//! hotspot, its writers form groups.  The leader takes the row lock once per
//! group; followers execute serially on the uncommitted head without
//! locking; the row's dependency list (update order) serialises commit
//! records (§4.3) and rollbacks (§4.4); the §4.5 prevention checks abort a
//! transaction that would wait behind a peer sharing its hot row.
//!
//! The group state itself lives in [`GroupLockTable`]; this impl is the
//! order in which a transaction's life cycle drives it.

use super::{held, lock_row};
use super::{ConcurrencyControl, LockTable, WriteAdmission};
use crate::database::DbInner;
use std::sync::Arc;
use std::time::Instant;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, RecordId, Result, TableId};
use txsql_lockmgr::group_lock::{GroupLockTable, HotExecution, WokenRole};
use txsql_lockmgr::LightweightLockTable;
use txsql_txn::{HotRole, Transaction};

pub(super) struct GroupLocking {
    pub(super) locks: LightweightLockTable,
    pub(super) groups: GroupLockTable,
    pub(super) metrics: Arc<EngineMetrics>,
}

impl GroupLocking {
    /// §4.5 deadlock prevention for a *cold* row: if we already updated a hot
    /// row and one of the transactions holding the lock we are about to wait
    /// for updated the same hot row, waiting would very likely deadlock (its
    /// commit depends on us, or ours on it) — roll back proactively instead.
    /// The check is deliberately non-directional, as in the paper: waiting
    /// even behind a holder that commits before us convoys the hot row's
    /// commit FIFO behind a cold-lock timeout, which measures far worse than
    /// the quick abort-and-retry this produces.
    fn check_cold_wait(&self, txn: &Transaction, record: RecordId) -> Result<()> {
        if !txn.has_hot_updates() {
            return Ok(());
        }
        for holder in self.locks.holders_of(record) {
            if holder == txn.id {
                continue;
            }
            for hot_record in txn.hot_records() {
                if self.groups.both_updated(hot_record, txn.id, holder) {
                    return Err(Error::HotspotDeadlockPrevented {
                        txn: txn.id,
                        hot_record,
                        blocker: holder,
                    });
                }
            }
        }
        Ok(())
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
        let members = self.groups.dep_list(record);
        if members.is_empty() {
            return Ok(());
        }
        for prior in txn.hot_records().filter(|prior| *prior != record) {
            let prior_list = self.groups.dep_list(prior);
            let Some(my_pos) = prior_list.iter().position(|t| *t == txn.id) else {
                continue;
            };
            let behind_us = &prior_list[my_pos + 1..];
            if let Some(blocker) = members.iter().find(|m| behind_us.contains(m)) {
                return Err(Error::HotspotDeadlockPrevented {
                    txn: txn.id,
                    hot_record: record,
                    blocker: *blocker,
                });
            }
        }
        Ok(())
    }

    /// Joins `record`'s dependency list in `role` (Alg. 1 lines 7–9).  If
    /// the registration check objects, the grant just taken is given back so
    /// the group keeps moving: a leader hands leadership over (its row lock
    /// drains with the rollback's release), a follower clears the in-flight
    /// grant.
    fn join_group(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        record: RecordId,
        role: HotRole,
    ) -> Result<WriteAdmission> {
        if let Err(err) = self.check_hot_inversion(txn, record) {
            match role {
                HotRole::Leader => {
                    self.groups.leader_handover(txn.id, record);
                }
                HotRole::Follower => self.groups.finish_update(txn.id, record, false),
            }
            return Err(err);
        }
        let order = self.groups.register_update(txn.id, record);
        db.storage.set_hot_update_order(txn.id, order);
        txn.record_hot_update(record, role, order);
        Ok(match role {
            HotRole::Leader => WriteAdmission::Locked,
            HotRole::Follower => WriteAdmission::HotFollower,
        })
    }

    /// Leads a group: the one real lock acquisition per group, then the join.
    fn lead_group(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        record: RecordId,
    ) -> Result<WriteAdmission> {
        if let Err(err) = lock_row(&self.locks, txn, record, None) {
            self.groups.leader_handover(txn.id, record);
            return Err(err);
        }
        txn.record_lock(record);
        self.join_group(db, txn, record, HotRole::Leader)
    }
}

impl ConcurrencyControl for GroupLocking {
    /// Algorithm 1, plus the §4.5 prevention check for non-hot rows.
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<WriteAdmission> {
        if let Some(admission) = held(txn, table, record) {
            return Ok(admission);
        }
        // Fail fast if a predecessor's rollback already doomed us on a hot
        // row we updated: every statement from here on is wasted work, and
        // the aborter's rollback (with granting paused on that row) cannot
        // finish until we cascade.  Aborting at the next admission instead of
        // at commit shortens the whole drain.
        for prior in txn.hot_records() {
            if let Some(cause) = self.groups.doomed_cause(txn.id, prior) {
                return Err(Error::CascadingAbort { txn: txn.id, cause });
            }
        }
        if !db.hotspots.is_hot(record) {
            self.check_cold_wait(txn, record)?;
            lock_row(&self.locks, txn, record, Some(&db.hotspots))?;
            if !db.hotspots.is_hot(record) {
                txn.record_lock(record);
                return Ok(WriteAdmission::Locked);
            }
            // The row was promoted while we queued.  A group leader hands the
            // row lock over *before* its commit record is ordered, relying on
            // every writer of a hot row being in the dependency list; holding
            // the lock outside the group we could read its uncommitted head
            // and commit first.  Nothing was read yet: give the lock back and
            // enter through the group like a fresh arrival.
            let sink = txn.metrics_sink();
            self.locks.release_record_locks_in(txn.id, &[record], sink);
        }

        match self.groups.begin_hot_update(txn.id, record) {
            HotExecution::Leader => self.lead_group(db, txn, record),
            HotExecution::Follower => self.join_group(db, txn, record, HotRole::Follower),
            HotExecution::Wait(slot) => {
                let start = Instant::now();
                let role = self.groups.wait_for_grant(txn.id, record, &slot);
                txn.add_blocked(start.elapsed());
                self.metrics.lock_waits.inc();
                match role? {
                    WokenRole::Follower => self.join_group(db, txn, record, HotRole::Follower),
                    WokenRole::NewLeader => self.lead_group(db, txn, record),
                }
            }
        }
    }

    /// Ends the update's in-flight grant so the group grants the next
    /// follower (Alg. 1 lines 10–14); a leader does so after each of its own
    /// updates of the hot row.
    fn after_write(&self, txn: &Transaction, record: RecordId, admission: WriteAdmission) {
        match admission {
            WriteAdmission::HotFollower => self.groups.finish_update(txn.id, record, false),
            WriteAdmission::Locked if txn.hot_role(record) == Some(HotRole::Leader) => {
                self.groups.finish_update(txn.id, record, true)
            }
            WriteAdmission::Locked => {}
        }
    }

    /// Leader side (Alg. 2 lines 2–10): stop granting, wait for the
    /// in-flight grant, release the *hot row* lock and hand the next group
    /// over.  The early row-lock release is the paper's pipelining lever —
    /// group N+1 executes while group N drains its commit-order waits — and
    /// it is safe because the dependency list (not the row lock) serialises
    /// hot-row commit records; every row is only written through the group
    /// path while it is hot.  Cold locks stay held until the commit record is
    /// ordered.  The hand-over is batched across the leader's hot records
    /// (see `GroupLockTable::begin_leader_commit`).
    ///
    /// Then, for every member (§4.3): wait for all dependency-list
    /// predecessors before ordering our own commit record.  Predecessors
    /// commit without the row lock; a predecessor stuck on a *cold* lock we
    /// hold is pre-empted by the §4.5 check, and any residual entanglement
    /// resolves through the wait deadline.
    fn before_order(&self, txn: &mut Transaction) -> Result<()> {
        let hot_updates = txn.hot_updates();
        let leader_records: Vec<RecordId> = hot_updates
            .iter()
            .filter(|(_, role, _)| *role == HotRole::Leader)
            .map(|(record, _, _)| *record)
            .collect();
        if !leader_records.is_empty() {
            let prepared = self.groups.begin_leader_commit(txn.id, &leader_records);
            let sink = txn.metrics_sink();
            self.locks
                .release_record_locks_in(txn.id, &leader_records, sink);
            self.groups.finish_leader_handover(txn.id, prepared);
        }
        for (record, _, _) in hot_updates {
            let start = Instant::now();
            let turn = self.groups.wait_commit_turn(txn.id, record);
            txn.add_blocked(start.elapsed());
            turn?;
        }
        Ok(())
    }

    /// The dependency-list slot is released as soon as our commit record is
    /// ordered in the log; the durable flush may then be batched with our
    /// successors (group commit, Figure 5c).
    fn after_order(&self, txn: &Transaction) {
        for record in txn.hot_records() {
            self.groups.finish_commit(txn.id, record);
        }
    }

    /// Rollback ordering (Alg. 3 + §4.4): doom successors, then wait until
    /// we are the newest entry of every dependency list we are on.
    fn before_undo(&self, txn: &mut Transaction) {
        let records: Vec<RecordId> = txn.hot_records().collect();
        for record in &records {
            self.groups.begin_rollback(txn.id, *record);
        }
        for record in records {
            let start = Instant::now();
            if self.groups.wait_rollback_turn(txn.id, record).is_err() {
                // Undoing out of turn beats wedging the row, but a
                // successor that never cascaded must not go unreported.
                self.metrics.abort_causes.record("rollback_turn_timeout");
            }
            txn.add_blocked(start.elapsed());
        }
    }

    /// The undo removed our version from each record's head: registrants
    /// from here on read clean data and need no doom.
    fn after_undo(&self, txn: &Transaction) {
        for record in txn.hot_records() {
            self.groups.mark_undone(txn.id, record);
            self.groups.finish_rollback(txn.id, record);
            self.groups.resume_granting(record);
        }
    }

    fn locks(&self) -> &dyn LockTable {
        &self.locks
    }

    fn keep_hot(&self, record: RecordId) -> bool {
        self.groups.collect_if_idle(record) || self.locks.wait_queue_len(record) > 0
    }

    fn live_entries(&self) -> usize {
        self.groups.live_groups()
    }
}
