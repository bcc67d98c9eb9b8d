//! TXSQL group locking (§3.3, §4): O1, plus, once a row is a detected
//! hotspot, its writers form groups.  The leader takes the row lock once per
//! group; followers execute serially on the uncommitted head without
//! locking, each write in the row's one flight, which its writer owns; the
//! row's dependency list (update order) serialises commit records (§4.3)
//! and rollbacks (§4.4); the §4.5 prevention checks abort a transaction
//! that would wait behind a peer sharing its hot row.
//!
//! The group state itself, and the §4.5 rules over it, live in
//! [`GroupLockTable`]; this impl is the order in which a transaction's life
//! cycle drives it.

use super::{held, lock_row};
use super::{ConcurrencyControl, LockTable};
use crate::database::DbInner;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, RecordId, Result, TableId};
use txsql_lockmgr::group_lock::{CommitTurn, GroupHandle, GroupLockTable, HotExecution};
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

/// The handles of every hot row the transaction joined so far.
fn groups_of(txn: &Transaction) -> impl Iterator<Item = &GroupHandle> {
    txn.hot_updates().iter().map(group_of)
}

impl GroupLocking {
    /// `txn` was granted `role` on the row: it is the row's in-flight
    /// updater and on its dependency list already (Alg. 1 lines 7–9 happen
    /// in the granter's critical section), so what is left is to draw its
    /// order and remember the group.  A grant that cannot be used (the row
    /// lock failed, §4.5 objects to the join) goes back with its
    /// registration, and the group keeps moving: leadership is handed over
    /// (a row lock taken drains with the rollback's release), a follower's
    /// in-flight mark is cleared.
    fn join_group(&self, txn: &mut Transaction, group: GroupHandle, role: HotRole) -> Result<()> {
        let (leads, record) = (role == HotRole::Leader, group.record());
        // A leader's one real lock acquisition per group.
        let locked = match leads {
            true => lock_row(&self.locks, txn, record, None).map(|()| txn.record_lock(record)),
            false => Ok(()),
        };
        let joined = |()| self.groups.check_join(txn.id, &group, groups_of(txn));
        if let Err(err) = locked.and_then(joined) {
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
    /// Algorithm 1, after the §4.5 checks of a member of other hot rows.  A
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
        let cold = !db.hotspots.is_hot(record);
        let holder = match cold && txn.has_hot_updates() {
            true => self.locks.holder_of(record),
            false => None,
        };
        self.groups
            .check_cold_wait(txn.id, groups_of(txn), holder.as_slice())?;
        if cold {
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
                role?
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
                // Undoing out of turn is safe: `begin_rollback` doomed every
                // successor, a doomed member never commits, and the undo
                // removes only our own versions, keeping the rest in order
                // (`RecordVersions::rollback_writer`).  A successor that
                // never cascaded still must not go unreported.
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
