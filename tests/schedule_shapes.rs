//! Tests that the lock *schedules* have the shapes of Figures 3 and 5:
//! group locking takes one lock per group instead of one per transaction,
//! queue locking still locks per transaction, and the hot/non-hot deadlock
//! example of §4.5 resolves by prevention rather than by timeout.  Every test
//! runs on the shared fixture and ends in its audit.

use std::time::Instant;
use txsql::prelude::*;
use txsql::workloads::fixture::{self, add, Fixture, ACCOUNTS};

/// Account 0 is the row the tests contend on; 2 is a row they lock cold.
const HOT: i64 = 0;

fn setup(protocol: Protocol) -> Fixture {
    Fixture::new(Database::new(fixture::config(protocol)), 1, 3)
}

/// `threads` clients, started together, each commit `per_thread` increments
/// of the hot row.
fn hammer_hot_row(fixture: &Fixture, threads: u64, per_thread: usize) {
    fixture.threads(threads, |fixture, worker| {
        let increment = TxnProgram::new(vec![add(HOT, 1)]);
        let committed = fixture.run(worker, &vec![increment; per_thread]);
        assert_eq!(committed, per_thread as u64, "client {worker} starved");
    });
}

/// Figure 3c: within a group only the leader locks, so the number of hotspot
/// groups formed is (much) smaller than the number of hotspot member updates.
///
/// The group is built from explicitly overlapping sessions (leader still
/// uncommitted while the followers update) rather than a timing-dependent
/// hammer, so the shape is reproducible even on a single-core machine where
/// organic preemption inside a microsecond transaction is vanishingly rare.
#[test]
fn group_locking_locks_once_per_group() {
    let fixture = setup(Protocol::GroupLockingTxsql);
    let db = &fixture.db;
    db.hotspots().promote(fixture.record(HOT));

    // Leader opens the group; two followers join while it is uncommitted.
    let mut members = [db.begin(), db.begin(), db.begin()];
    for txn in &mut members {
        db.update_add(txn, ACCOUNTS, HOT, 1, 1).unwrap();
    }
    for txn in members {
        db.commit(txn).unwrap();
        fixture.acked(&[(HOT, 1)]);
    }

    let groups = db.metrics().groups_formed.get();
    let members = db.metrics().hotspot_group_entries.get();
    assert!(
        members >= 3,
        "hotspot machinery never engaged (members={members})"
    );
    assert!(
        groups < members,
        "expected several members per group (groups={groups}, members={members})"
    );
    // The committed value reflects every member exactly once.
    fixture.audit("a group of three");
}

/// MySQL-style 2PL creates a lock object for every acquisition; group locking
/// creates far fewer per committed transaction (Figure 6d's shape).
#[test]
fn txsql_creates_fewer_lock_objects_than_mysql() {
    let locks_per_txn = |protocol: Protocol| {
        let fixture = setup(protocol);
        hammer_hot_row(&fixture, 6, 20);
        fixture.audit(protocol.label());
        let metrics = fixture.db.metrics();
        metrics.locks_created.get() as f64 / metrics.committed.get() as f64
    };
    let mysql = locks_per_txn(Protocol::Mysql2pl);
    let txsql = locks_per_txn(Protocol::GroupLockingTxsql);
    assert!(
        txsql < mysql,
        "TXSQL should need fewer lock objects per transaction ({txsql:.3} vs {mysql:.3})"
    );
}

/// §4.5 worked example, exactly as in the paper's table: T1 updates the hot
/// row t1, T2 updates it next, T2 takes the non-hot row t2, and T1 then tries
/// t2.  Instead of waiting into a deadlock (T2's commit depends on T1, T1
/// waits for T2's lock), T1 is rolled back *proactively* the moment the
/// shared hot row is detected, and T2 — which consumed T1's uncommitted hot
/// update — cascades.  Both end up rolled back and every value reverts.
#[test]
fn hot_and_cold_deadlock_example_resolves_by_prevention() {
    let fixture = setup(Protocol::GroupLockingTxsql);
    let db = &fixture.db;
    db.hotspots().promote(fixture.record(HOT));

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    db.update_add(&mut t1, ACCOUNTS, HOT, 1, 1).unwrap(); // hot row -> 1 (leader)
    db.update_add(&mut t2, ACCOUNTS, HOT, 1, 1).unwrap(); // hot row -> 2 (follower)
    db.update_add(&mut t2, ACCOUNTS, 2, 1, 1).unwrap(); // non-hot row locked by T2
    let started = Instant::now();
    let err = db.update_add(&mut t1, ACCOUNTS, 2, 1, 1).unwrap_err();
    assert!(
        matches!(err, Error::HotspotDeadlockPrevented { .. }),
        "got {err:?}"
    );
    // Prevention is immediate — it does not sit out the lock-wait timeout.
    assert!(started.elapsed() < db.config().lock_wait_timeout);
    db.rollback(t1, Some(&err));
    // T2 read T1's uncommitted hot update, so its commit must cascade.
    let cascade = db.commit(t2).unwrap_err();
    assert!(cascade.is_cascading(), "expected cascade, got {cascade:?}");

    // Nothing was acknowledged: the audit finds every row back at 0.
    fixture.audit("both rolled back");
    assert_eq!(
        db.metrics().abort_causes.get("hotspot_deadlock_prevented"),
        1
    );
    assert!(db.metrics().cascading_aborts.get() >= 1);
}

/// Queue locking (O2) keeps one lock acquisition per transaction: the number
/// of hotspot entries tracks committed transactions rather than groups.
///
/// The hot row is promoted explicitly (as the sweeper would after observing
/// contention) so the queue path engages deterministically; a concurrent
/// hammer then checks no updates are lost and every admission locked.
#[test]
fn queue_locking_still_locks_per_transaction() {
    let fixture = setup(Protocol::QueueLockingO2);
    let db = &fixture.db;
    db.hotspots().promote(fixture.record(HOT));
    hammer_hot_row(&fixture, 6, 20);
    let entries = db.metrics().hotspot_group_entries.get();
    assert!(
        entries >= 6 * 20,
        "queue locking never engaged (entries={entries})"
    );
    assert_eq!(
        db.metrics().groups_formed.get(),
        0,
        "O2 must not form groups"
    );
    // Every committed increment is present.
    fixture.audit("O2 hammer");
}
