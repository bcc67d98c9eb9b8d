//! Cross-crate integration tests: primary/replica consistency under
//! contention, end-to-end crash recovery, and a replica fed the captured
//! binlog — each on the shared fixture, ending in its audit.

use std::sync::Arc;
use std::time::Duration;
use txsql::prelude::*;
use txsql::replication::Replica;
use txsql::workloads::fixture::{self, add, Fixture, ACCOUNTS};

const HOT: i64 = 0;

fn setup(protocol: Protocol) -> Fixture {
    Fixture::new(Database::new(fixture::config(protocol)), 1, 3)
}

/// `threads` clients each commit `per_thread` increments of the hot row.
fn contended_run(fixture: &Fixture, threads: u64, per_thread: usize) {
    fixture.threads(threads, |fixture, worker| {
        let increment = TxnProgram::new(vec![add(HOT, 1)]);
        let committed = fixture.run(worker, &vec![increment; per_thread]);
        assert_eq!(committed, per_thread as u64, "client {worker} starved");
    });
}

#[test]
fn synchronous_replica_matches_primary_after_contended_run() {
    let fixture = setup(Protocol::GroupLockingTxsql);
    let db = &fixture.db;
    let hook = ReplicationHook::new(ReplicationMode::Synchronous, LatencyModel::in_memory(), 2);
    db.register_commit_hook(hook.clone());

    contended_run(&fixture, 6, 25);

    // The primary holds every acknowledged increment (the audit); the hot
    // row reached the replicas with the primary's committed value.
    fixture.audit("semi-sync primary");
    for replica in hook.replicas() {
        let diverging = replica.diverging_rows(|table, pk| {
            let record = db.record_id(table, pk).ok()?;
            db.storage().read_committed(table, record).ok().flatten()
        });
        assert!(diverging.is_empty(), "replica diverged on {diverging:?}");
        let replicated = replica.row(ACCOUNTS, HOT).unwrap().get_int(1);
        assert_eq!(replicated, Some(fixture.value(HOT)));
    }
    hook.shutdown();
}

#[test]
fn asynchronous_replica_catches_up() {
    let fixture = setup(Protocol::LightweightO1);
    let hook = ReplicationHook::new(ReplicationMode::Asynchronous, LatencyModel::in_memory(), 1);
    fixture.db.register_commit_hook(hook.clone());
    contended_run(&fixture, 1, 20);
    assert!(hook.wait_caught_up(20, Duration::from_secs(2)));
    let replicated = hook.replicas()[0].row(ACCOUNTS, HOT).unwrap().get_int(1);
    assert_eq!(replicated, Some(20));
    hook.shutdown();
    fixture.audit("async primary");
}

#[test]
fn crash_recovery_preserves_exactly_the_durable_commits() {
    let fixture = setup(Protocol::GroupLockingTxsql);
    let db = &fixture.db;
    db.checkpoint().unwrap();

    contended_run(&fixture, 4, 20);
    db.storage().redo().flush_all().unwrap();
    // An update that never becomes durable.
    let mut in_flight = db.begin();
    db.update_add(&mut in_flight, ACCOUNTS, HOT, 1, 1_000)
        .unwrap();

    // The restarted engine holds the 80 acknowledged increments and the
    // restart's probe; the audit would see the in-flight 1 000 survive.
    let (recovered, report) = fixture.restart();
    assert_eq!(recovered.value(HOT), 80 + 1, "{}", report.summary());
    db.rollback(in_flight, None);
    recovered.audit("recovered state must equal durable commits");
}

#[test]
fn binlog_applied_in_trx_no_order_reproduces_the_hot_row() {
    let fixture = setup(Protocol::GroupLockingTxsql);
    // Capture the binlog through a collecting hook.
    let collector = Arc::new(txsql::core::hooks::CollectingHook::new());
    fixture.db.register_commit_hook(collector.clone());
    contended_run(&fixture, 4, 15);
    fixture.audit("binlog source");
    let mut events = collector.events();
    assert_eq!(events.len(), 60, "one binlog event per commit");
    events.sort_by_key(|e| e.trx_no);

    let replica = Replica::new("binlog-target");
    for event in &events {
        replica.apply(event);
    }
    assert_eq!(replica.row(ACCOUNTS, HOT).unwrap().get_int(1), Some(60));
}
