//! TXSQL group locking (§3.3, §4): O1, plus, once a row is a detected
//! hotspot, its writers form groups.  The leader takes the row lock once per
//! group; followers execute serially on the uncommitted head without
//! locking, each write in the row's one flight, which its writer owns; the
//! row's dependency list (update order) serialises commit records (§4.3)
//! and rollbacks (§4.4); the §4.5 prevention checks abort a transaction
//! that would wait behind a peer sharing its hot row.
//!
//! The group state itself lives in [`GroupLockTable`]; this impl is the
//! order in which a transaction's life cycle drives it.

use super::{held, lock_row};
use super::{ConcurrencyControl, LockTable};
use crate::database::DbInner;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, RecordId, Result, TableId};
use txsql_lockmgr::group_lock::{CommitTurn, GroupHandle, GroupLockTable, HotExecution, WokenRole};
use txsql_lockmgr::LightweightLockTable;
use txsql_txn::{HotRole, HotUpdate, Transaction};

pub(super) struct GroupLocking {
    pub(super) locks: LightweightLockTable,
    pub(super) groups: GroupLockTable,
    pub(super) metrics: Arc<EngineMetrics>,
}

/// The transaction's handle on a hot row's group: resolved by its first
/// group call on the row, used by every later one.
fn group_of(hot: &HotUpdate) -> &GroupHandle {
    let group = hot.group.as_ref();
    group.expect("group locking records a handle with every hot row")
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
            for hot in txn.hot_updates() {
                if self.groups.both_updated(group_of(hot), txn.id, holder) {
                    return Err(Error::HotspotDeadlockPrevented {
                        txn: txn.id,
                        hot_record: hot.record,
                        blocker: holder,
                    });
                }
            }
        }
        Ok(())
    }

    /// The §4.5 prevention check extended to joining a hot row's group:
    /// joining `group` behind a transaction that is ordered **after** us on
    /// another hot row we both updated would create a cross-record
    /// commit-order cycle — each of us first on one dependency list and
    /// second on the other — which the per-record FIFO commit waits can only
    /// resolve by timing out.  Aborting now converts a multi-second wedge of
    /// the whole hot row into one quick retried abort.  (The check snapshots
    /// the dependency lists without nesting group-entry locks; the rare
    /// join that races past it still resolves through the commit-turn
    /// deadline.)  A transaction's first hot row has nothing to compare.
    fn check_hot_inversion(&self, txn: &Transaction, group: &GroupHandle) -> Result<()> {
        if !txn.has_hot_updates() {
            return Ok(());
        }
        let members = self.groups.dep_list(group);
        for prior in txn.hot_updates() {
            let prior_list = self.groups.dep_list(group_of(prior));
            let Some(my_pos) = prior_list.iter().position(|t| *t == txn.id) else {
                continue;
            };
            let behind_us = &prior_list[my_pos + 1..];
            if let Some(blocker) = members.iter().find(|m| behind_us.contains(m)) {
                return Err(Error::HotspotDeadlockPrevented {
                    txn: txn.id,
                    hot_record: group.record(),
                    blocker: *blocker,
                });
            }
        }
        Ok(())
    }

    /// `txn` was granted `role` on the row: it is the row's in-flight
    /// updater and on its dependency list already (Alg. 1 lines 7–9 happen
    /// in the granter's critical section), so what is left is to draw its
    /// order and remember the group.  A grant that cannot be used is given
    /// back with its registration so the group keeps moving: leadership is
    /// handed over (a row lock taken drains with the rollback's release), a
    /// follower's in-flight mark is cleared.
    fn join_group(&self, txn: &mut Transaction, group: GroupHandle, role: HotRole) -> Result<()> {
        let (leads, record) = (role == HotRole::Leader, group.record());
        // A leader's one real lock acquisition per group, then the
        // prevention check.
        let locked = match leads {
            true => lock_row(&self.locks, txn, record, None).map(|()| txn.record_lock(record)),
            false => Ok(()),
        };
        if let Err(err) = locked.and_then(|()| self.check_hot_inversion(txn, &group)) {
            self.groups.abandon_update(txn.id, &group);
            return Err(err);
        }
        let order = self.groups.take_hot_update_order();
        let scratch = txn.metrics();
        scratch.hotspot_group_entries.inc();
        if leads {
            scratch.groups_formed.inc();
        }
        txn.record_hot_update(record, role, order, Some(group));
        Ok(())
    }
}

impl ConcurrencyControl for GroupLocking {
    /// Algorithm 1, plus the §4.5 prevention check for non-hot rows.  A
    /// member's later write of its hot row takes the row's flight again.
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()> {
        if let Some(hot) = txn.hot_update(record) {
            return self.groups.rewrite(txn.id, group_of(hot));
        }
        if held(txn, table, record) {
            return Ok(());
        }
        // Fail fast if a predecessor's rollback already doomed us on a hot
        // row we updated: every statement from here on is wasted work, and
        // the aborter's rollback (with granting paused on that row) cannot
        // finish until we cascade.  Aborting at the next admission instead of
        // at commit shortens the whole drain.
        for prior in txn.hot_updates() {
            if let Some(cause) = self.groups.doomed_cause(txn.id, group_of(prior)) {
                return Err(Error::CascadingAbort { txn: txn.id, cause });
            }
        }
        if !db.hotspots.is_hot(record) {
            self.check_cold_wait(txn, record)?;
            lock_row(&self.locks, txn, record, Some(&db.hotspots))?;
            if !db.hotspots.is_hot(record) {
                txn.record_lock(record);
                return Ok(());
            }
            // The row was promoted while we queued.  A group leader hands the
            // row lock over *before* its commit record is ordered, relying on
            // every writer of a hot row being in the dependency list; holding
            // the lock outside the group we could read its uncommitted head
            // and commit first.  Nothing was read yet: give the lock back and
            // enter through the group like a fresh arrival.
            self.locks
                .release_record_locks_in(txn.id, &[record], txn.metrics());
        }

        // From the grant to `after_write` the whole group waits for us:
        // nothing in there allocates or writes a line other clients share.
        txn.reserve_hot_update();
        let (group, execution) = self.groups.begin_update(txn.id, record);
        let role = match execution {
            HotExecution::Leader => HotRole::Leader,
            HotExecution::Follower => HotRole::Follower,
            HotExecution::Wait(slot) => {
                let start = Instant::now();
                let role = self.groups.wait_for_grant(txn.id, &group, &slot);
                let waited = start.elapsed();
                txn.add_blocked(waited);
                txn.metrics().lock_wait_latency.record(waited);
                match role? {
                    WokenRole::Follower => HotRole::Follower,
                    WokenRole::NewLeader => HotRole::Leader,
                }
            }
        };
        self.join_group(txn, group, role)
    }

    /// Ends the write's flight so the group grants the next follower
    /// (Alg. 1 lines 10–14): after every write of a hot row, each of which
    /// ran in a flight its writer owned.
    fn after_write(&self, txn: &Transaction, record: RecordId) {
        if let Some(hot) = txn.hot_update(record) {
            (self.groups).finish_update(txn.id, group_of(hot), hot.role == HotRole::Leader);
        }
    }

    /// Leader side (Alg. 2 lines 2–10), per hot row it leads: release the
    /// *hot row* lock and step down, which hands the next group over — at
    /// once, or, behind a follower's update in flight, when that update ends
    /// (the leader does not wait for it).  The early row-lock release is the
    /// paper's pipelining lever — group N+1 executes while group N drains its
    /// commit-order waits — and it is safe because the dependency list (not
    /// the row lock) serialises hot-row commit records; every row is only
    /// written through the group path while it is hot.  Cold locks stay held
    /// until the commit record is ordered.
    ///
    /// Then, for every member (§4.3): wait for all dependency-list
    /// predecessors before ordering our own commit record.  A leader's
    /// step-down saw its turn under the guard it held, so a leader that is
    /// first of its list does not ask again (one that is not — blocked, or
    /// doomed — hears it from the wait).  Predecessors commit without
    /// the row lock; a predecessor stuck on a *cold* lock we hold is
    /// pre-empted by the §4.5 check, and any residual entanglement resolves
    /// through the wait deadline.
    fn before_order(&self, txn: &mut Transaction) -> Result<()> {
        let (id, scratch) = (txn.id, txn.metrics());
        let mut ask_again = false;
        for hot in txn.hot_updates() {
            if hot.role != HotRole::Leader {
                continue;
            }
            let row = std::slice::from_ref(&hot.record);
            self.locks.release_record_locks_in(id, row, scratch);
            ask_again |= self.groups.leader_step_down(id, group_of(hot)).turn != CommitTurn::Ready;
        }
        let mut waits = txn.hot_updates().iter();
        let blocked = waits.try_fold(Duration::ZERO, |blocked, hot| {
            if hot.role == HotRole::Leader && !ask_again {
                return Ok(blocked);
            }
            let waited = self.groups.wait_commit_turn(id, group_of(hot))?;
            Ok::<_, Error>(blocked + waited)
        })?;
        txn.add_blocked(blocked);
        Ok(())
    }

    /// The dependency-list slot is released as soon as our commit record is
    /// ordered in the log; the durable flush may then be batched with our
    /// successors (group commit, Figure 5c).
    fn after_order(&self, txn: &Transaction) {
        for hot in txn.hot_updates() {
            self.groups.finish_commit(txn.id, group_of(hot));
        }
    }

    /// Rollback ordering (Alg. 3 + §4.4): doom successors, then wait until
    /// we are the newest entry of every dependency list we are on.
    fn before_undo(&self, txn: &mut Transaction) {
        for hot in txn.hot_updates() {
            self.groups.begin_rollback(txn.id, group_of(hot));
        }
        let start = Instant::now();
        for hot in txn.hot_updates() {
            let turn = self.groups.wait_rollback_turn(txn.id, group_of(hot));
            if turn.is_err() {
                // Undoing out of turn beats wedging the row, but a
                // successor that never cascaded must not go unreported.
                self.metrics.rollback_turn_timeouts.inc();
            }
        }
        txn.add_blocked(start.elapsed());
    }

    /// The undo removed our version from each record's head: leave the
    /// dependency lists, which lets granting resume once the last member
    /// rolling back has left (whoever is granted from there on reads clean
    /// data).
    fn after_undo(&self, txn: &Transaction) {
        for hot in txn.hot_updates() {
            self.groups.finish_rollback(txn.id, group_of(hot));
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
