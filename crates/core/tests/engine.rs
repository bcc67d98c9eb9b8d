//! Integration tests of the engine: every protocol must preserve the basic
//! transactional guarantees, and the hotspot machinery must reproduce the
//! schedules and examples of the paper (§3.3, §4.4, §4.5, §5).

use std::sync::Arc;
use std::thread;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::{Error, Row, TableId};
use txsql_core::hooks::CollectingHook;
use txsql_core::{BinlogTxn, Database, EngineConfig, Operation, Protocol, TxnProgram};
use txsql_storage::{CrashPoint, FaultPlan, TableSchema};
use txsql_workloads::fixture::{self, add, Fixture, ACCOUNTS};

const JOURNAL: TableId = TableId(2);

/// The shared fixture (`txsql_workloads::fixture`) with `n_accounts` hot rows
/// at balance 0, and an empty `journal(id, amount)`.
fn setup(config: EngineConfig, n_accounts: i64) -> Fixture {
    let fixture = Fixture::new(Database::new(config), n_accounts, 0);
    let journal = TableSchema::new(JOURNAL, "journal", 2);
    fixture.db.create_table(journal).unwrap();
    fixture
}

/// The fixture's configuration (promotion after two waiters, history on for
/// the audit) with a lock wait long enough for native threads.
fn hot_config(protocol: Protocol) -> EngineConfig {
    fixture::config(protocol).with_lock_wait_timeout(Duration::from_millis(500))
}

// ---------------------------------------------------------------------------
// Basic transactional guarantees, per protocol
// ---------------------------------------------------------------------------

#[test]
fn per_txn_metrics_scratch_loses_no_counts_across_abort_paths() {
    // Every transaction's lock counters now accumulate in a per-transaction
    // scratch that only reaches EngineMetrics when the transaction drops
    // (TxnMetrics flush-on-drop).  This storm mixes commits, explicit
    // rollbacks and lock-wait-timeout aborts on a contended row: if any
    // path lost its scratch, the `locks_released` total could not balance
    // against the app-side count of records the registry ever tracked, and
    // leftover bookkeeping would show in the `lock_registry_entries` gauge.
    use std::sync::atomic::{AtomicU64, Ordering};
    let config = EngineConfig::for_protocol(Protocol::LightweightO1)
        .with_lock_wait_timeout(Duration::from_millis(10));
    let db = setup(config, 64).db;
    const THREADS: usize = 6;
    const TXNS_PER_THREAD: usize = 60;
    const HOT_PK: i64 = 0;
    let tracked = Arc::new(AtomicU64::new(0));
    thread::scope(|scope| {
        for worker in 0..THREADS {
            let db = db.clone();
            let tracked = Arc::clone(&tracked);
            scope.spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let mut txn = db.begin();
                    // Two cold records in a range PRIVATE to this worker
                    // (pks 1 + worker*10 .. 10 + worker*10), so the cold
                    // acquisitions never cross-contend and the unwrap below
                    // cannot trip on another worker's 10 ms timeout.
                    let base = (1 + worker * 10 + i % 5) as i64;
                    for pk in [base, base + 5] {
                        db.update_add(&mut txn, ACCOUNTS, pk, 1, 1).unwrap();
                        tracked.fetch_add(1, Ordering::Relaxed);
                    }
                    // The contended row: a grant is one more tracked record;
                    // a timed-out wait is also tracked (then forgotten by
                    // the wait loop's cleanup) — both must be released
                    // exactly once.
                    match db.update_add(&mut txn, ACCOUNTS, HOT_PK, 1, 1) {
                        Ok(_) => {
                            tracked.fetch_add(1, Ordering::Relaxed);
                            if i % 3 == 0 {
                                db.rollback(txn, None);
                            } else {
                                db.commit(txn).unwrap();
                            }
                        }
                        Err(err) => {
                            tracked.fetch_add(1, Ordering::Relaxed);
                            db.rollback(txn, Some(&err));
                        }
                    }
                }
            });
        }
    });
    // All transactions finished and dropped: every scratch has flushed.
    assert_eq!(
        db.metrics().locks_released.get(),
        tracked.load(Ordering::Relaxed),
        "released-lock total must balance the records ever tracked — a \
         mismatch means an abort path lost its metrics scratch"
    );
    let snapshot = db.snapshot_metrics(Duration::from_secs(1));
    assert_eq!(
        snapshot.lock_registry_entries, 0,
        "registry must drain to zero after the storm"
    );
    assert!(
        snapshot.release_shard_locks > 0,
        "scratch counts must flush"
    );
    db.shutdown();
}

#[test]
fn commit_makes_updates_visible_under_every_protocol() {
    for protocol in Protocol::ALL {
        let fixture = setup(fixture::config(protocol), 4);
        let program = TxnProgram::new(vec![add(1, 25)]);
        assert_eq!(fixture.run(0, &[program]), 1, "{protocol:?}");
        assert_eq!(fixture.value(1), 25, "{protocol:?}");
        assert_eq!(fixture.db.metrics().committed.get(), 1, "{protocol:?}");
        fixture.audit(&format!("{protocol:?}"));
    }
}

#[test]
fn explicit_rollback_restores_old_value_under_every_protocol() {
    for protocol in Protocol::ALL {
        let fixture = setup(fixture::config(protocol), 4);
        let program = TxnProgram::new(vec![add(1, 500), Operation::ForcedRollback]);
        assert_eq!(fixture.run(0, &[program]), 0, "{protocol:?}");
        assert_eq!(fixture.db.metrics().aborted.get(), 1, "{protocol:?}");
        // Nothing was acknowledged: the audit finds the old value.
        fixture.audit(&format!("{protocol:?}"));
    }
}

#[test]
fn a_version_stacked_before_its_statement_failed_is_rolled_back() {
    // `Storage::update_row` and `apply_insert` stack the version and append
    // its frame before their last fault check; an engine that degrades to
    // read-only (or crashes) in between fails the statement with the version
    // on the chain.  Rollback pops what the write set names, so the write set
    // must name that row.  (Aria refuses session writes before storage sees
    // them.)
    let active = FaultPlan::none().crash_at(CrashPoint::PreAppend, u64::MAX);
    for protocol in Protocol::ALL.into_iter().filter(|p| *p != Protocol::Aria) {
        for pk in [0, 1] {
            let fixture = setup(fixture::config(protocol).with_fault_plan(active.clone()), 2);
            let db = &fixture.db;
            db.hotspots().pin(fixture.record(0));
            let mut txn = db.begin();
            let writer = txn.id;
            let err = db
                .update_row(&mut txn, ACCOUNTS, pk, &mut |row| {
                    row.add_int(1, 5);
                    db.faults().degrade_read_only();
                })
                .unwrap_err();
            assert!(matches!(err, Error::ReadOnly { .. }), "{protocol:?}: {err}");
            db.rollback(txn, Some(&err));
            let (row, head) = db
                .storage()
                .read_latest_with_writer(ACCOUNTS, fixture.record(pk))
                .unwrap();
            assert_ne!(
                head, writer,
                "{protocol:?}, pk {pk}: the failed write stayed"
            );
            assert_eq!((row.get_int(1), chain_len(db, pk)), (Some(0), 1));
            fixture.audit(&format!("{protocol:?}, pk {pk}"));
        }
        let crash = FaultPlan::none().crash_at(CrashPoint::PostAppendPreFlush, 1);
        let fixture = setup(fixture::config(protocol).with_fault_plan(crash), 2);
        let db = &fixture.db;
        let mut txn = db.begin();
        let err = db
            .insert(&mut txn, JOURNAL, Row::from_ints(&[7, 1]))
            .unwrap_err();
        assert!(matches!(err, Error::Crashed { .. }), "{protocol:?}: {err}");
        db.rollback(txn, Some(&err));
        let found = db.record_id(JOURNAL, 7);
        assert!(found.is_err(), "{protocol:?}: the failed insert stayed");
        fixture.audit(&format!("{protocol:?}, insert"));
    }
}

#[test]
fn snapshot_reads_do_not_observe_uncommitted_updates() {
    for protocol in [
        Protocol::Mysql2pl,
        Protocol::LightweightO1,
        Protocol::GroupLockingTxsql,
    ] {
        let db = setup(EngineConfig::for_protocol(protocol), 4).db;
        let mut writer = db.begin();
        db.update_add(&mut writer, ACCOUNTS, 2, 1, 77).unwrap();
        let mut reader = db.begin();
        let row = db.read(&mut reader, ACCOUNTS, 2).unwrap();
        assert_eq!(row.get_int(1), Some(0), "{protocol:?}");
        db.rollback(reader, None);
        db.commit(writer).unwrap();
        let mut reader2 = db.begin();
        assert_eq!(
            db.read(&mut reader2, ACCOUNTS, 2).unwrap().get_int(1),
            Some(77)
        );
        db.rollback(reader2, None);
        db.shutdown();
    }
}

#[test]
fn insert_and_read_back() {
    let db = setup(EngineConfig::for_protocol(Protocol::LightweightO1), 2).db;
    let program = TxnProgram::new(vec![Operation::Insert {
        table: JOURNAL,
        pk: 42,
        fill: 7,
    }]);
    db.execute_program(&program).unwrap();
    let record = db.record_id(JOURNAL, 42).unwrap();
    let row = db
        .storage()
        .read_committed(JOURNAL, record)
        .unwrap()
        .unwrap();
    assert_eq!(row.get_int(1), Some(7));
    db.shutdown();
}

#[test]
fn select_for_update_blocks_conflicting_writers() {
    let config =
        fixture::config(Protocol::LightweightO1).with_lock_wait_timeout(Duration::from_millis(50));
    let fixture = setup(config, 4);
    let db = &fixture.db;
    let mut holder = db.begin();
    let row = db.select_for_update(&mut holder, ACCOUNTS, 3).unwrap();
    assert_eq!(row.get_int(1), Some(0));
    // A concurrent updater times out while the lock is held.
    let mut other = db.begin();
    let err = db.update_add(&mut other, ACCOUNTS, 3, 1, 1).unwrap_err();
    assert!(err.is_retryable());
    db.rollback(other, Some(&err));
    // The holder can update without re-queueing and commit.
    db.update_add(&mut holder, ACCOUNTS, 3, 1, 5).unwrap();
    db.commit(holder).unwrap();
    fixture.acked(&[(3, 5)]);
    fixture.audit("the holder's update, not the waiter's");
}

/// A hot-row `SELECT … FOR UPDATE` holds the group's grant like an update in
/// flight.  One that no update of the row follows ends the grant at commit,
/// so the next writer gets the row within its wait budget — for a leader and
/// for a follower — and the group's entry is gone once every transaction is.
#[test]
fn a_hot_select_for_update_without_an_update_passes_the_row_on_at_commit() {
    let config = fixture::config(Protocol::GroupLockingTxsql)
        .with_lock_wait_timeout(Duration::from_millis(100));
    let fixture = setup(config, 2);
    let db = &fixture.db;
    db.hotspots().pin(fixture.record(0));
    let write_and_commit = || {
        let mut writer = db.begin();
        db.update_add(&mut writer, ACCOUNTS, 0, 1, 1).unwrap();
        db.commit(writer).unwrap();
    };
    // The leader selects and commits.
    let mut leader = db.begin();
    db.select_for_update(&mut leader, ACCOUNTS, 0).unwrap();
    db.commit(leader).unwrap();
    write_and_commit();
    // A leader updates, a follower selects; both commit.
    let mut leader = db.begin();
    db.update_add(&mut leader, ACCOUNTS, 0, 1, 1).unwrap();
    let mut follower = db.begin();
    db.select_for_update(&mut follower, ACCOUNTS, 0).unwrap();
    db.commit(leader).unwrap();
    db.commit(follower).unwrap();
    write_and_commit();
    assert_eq!(db.protocol_entries(), 0);
    fixture.acked(&[(0, 3)]);
    fixture.audit("every select committed, every writer got the row");
}

/// A rollback behind a successor that idles gives up its turn after four
/// lock waits (80 ms here) and undoes out of turn: the successor was doomed,
/// so it cascades at its commit and nobody sees the undone write.
#[test]
fn a_rollback_behind_an_idle_successor_undoes_out_of_turn() {
    let config = fixture::config(Protocol::GroupLockingTxsql);
    let fixture = setup(config.with_lock_wait_timeout(Duration::from_millis(20)), 1);
    let db = &fixture.db;
    db.hotspots().pin(fixture.record(0));
    let (mut t1, mut t2) = (db.begin(), db.begin());
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 1).unwrap(); // leads
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 1).unwrap(); // follows, idles
    db.rollback(t1, None);
    assert_eq!(db.metrics().rollback_turn_timeouts.get(), 1);
    let mut reader = db.begin();
    let row = db.read(&mut reader, ACCOUNTS, 0).unwrap();
    assert_eq!(row.get_int(1), Some(0));
    db.commit(reader).unwrap();
    assert!(db.commit(t2).unwrap_err().is_cascading());
    fixture.audit("both rolled back, the leader's out of turn");
}

// ---------------------------------------------------------------------------
// Hotspot correctness: concurrent increments must not lose updates
// ---------------------------------------------------------------------------

/// How a concurrent-increment run arranges for the hotspot machinery to see
/// the contended row.  On a single-core runner a microsecond transaction is
/// essentially never preempted mid-critical-section, so *organic* waiters —
/// and therefore organic promotion — rarely materialise under OS
/// scheduling; they are covered by deterministic schedule exploration in
/// `sim_schedule.rs` (`sim_organic_hotspot_promotion_loses_no_updates`).
#[derive(Clone, Copy, PartialEq)]
enum HotSetup {
    /// No help: rely on scheduler preemption (fine for sum-conservation runs).
    Organic,
    /// Promote the row before any traffic (deterministic hot-path coverage,
    /// and no transaction ever straddles the promotion boundary).
    PromoteFirst,
}

/// `threads` clients, started together, each commit `per_thread` increments
/// of account 0 (and read account 1, which nobody writes) through the
/// fixture's retry loop; the run ends in the audit.
fn run_concurrent_increments(
    config: EngineConfig,
    threads: u64,
    per_thread: usize,
    hot_setup: HotSetup,
) -> Fixture {
    let fixture = setup(config, 2);
    let db = &fixture.db;
    if hot_setup == HotSetup::PromoteFirst {
        db.hotspots().promote(fixture.record(0));
    }
    fixture.threads(threads, |fixture, worker| {
        let (table, pk) = (ACCOUNTS, 1);
        let program = TxnProgram::new(vec![add(0, 1), Operation::Read { table, pk }]);
        let committed = fixture.run(worker, &vec![program; per_thread]);
        assert_eq!(committed, per_thread as u64, "worker {worker} starved");
    });
    fixture.audit(&format!("{:?}, {threads} x {per_thread}", db.protocol()));
    fixture
}

/// No increment is lost, the history is serializable and nothing stays
/// locked (the audit) under every protocol; where the protocol has a hot-row
/// path, the row is promoted up front so that the path engages
/// deterministically (organic promotion needs multi-core preemption; see
/// `HotSetup`).
#[test]
fn concurrent_hot_increments_are_not_lost() {
    for protocol in Protocol::ALL {
        let hot_setup = match protocol.uses_hotspots() {
            true => HotSetup::PromoteFirst,
            false => HotSetup::Organic,
        };
        let fixture = run_concurrent_increments(hot_config(protocol), 8, 20, hot_setup);
        let hot_entries = fixture.db.metrics().hotspot_group_entries.get();
        assert_eq!(hot_entries > 0, protocol.uses_hotspots(), "{protocol:?}");
    }
}

// ---------------------------------------------------------------------------
// The paper's worked examples
// ---------------------------------------------------------------------------

/// §4.4: T1, T3, T2 update the hot row in that order; T1 then rolls back, so
/// T3 and T2 must cascade (their commits fail) and the row returns to its
/// original value.  T1's rollback blocks until its successors have rolled
/// back in reverse update order, so the three finishers run on separate
/// threads exactly like the paper's worked example.
#[test]
fn cascading_rollback_follows_reverse_update_order() {
    let fixture = setup(hot_config(Protocol::GroupLockingTxsql), 4);
    let db = &fixture.db;
    db.hotspots().promote(fixture.record(0));

    let (mut t1, mut t3, mut t2) = (db.begin(), db.begin(), db.begin());
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 1).unwrap(); // leader, val -> 1
    db.update_add(&mut t3, ACCOUNTS, 0, 1, 1).unwrap(); // follower, val -> 2
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 1).unwrap(); // follower, val -> 3
    thread::scope(|scope| {
        // T1 rolls back (blocks until T2 and T3 have rolled back).
        scope.spawn(|| db.rollback(t1, None));
        // T3 commits next: doomed, cascades (blocks until T2 rolled back).
        let commit_t3 = scope.spawn(|| db.commit(t3).unwrap_err());
        thread::sleep(Duration::from_millis(50));
        // T2 commits last: doomed, cascades at once (it is the newest entry).
        let err2 = db.commit(t2).unwrap_err();
        assert!(err2.is_cascading(), "T2 should cascade, got {err2:?}");
        let err3 = commit_t3.join().unwrap();
        assert!(err3.is_cascading(), "T3 should cascade, got {err3:?}");
    });
    assert!(db.metrics().cascading_aborts.get() >= 2);
    fixture.audit("all three rolled back: the row is back at its original value");
}

/// Figure 3(c): within a group only the leader locks; followers execute
/// without creating lock objects.
#[test]
fn group_locking_reduces_lock_objects_versus_o1() {
    let locks_per_txn = |protocol: Protocol| {
        let fixture = run_concurrent_increments(hot_config(protocol), 6, 25, HotSetup::Organic);
        let metrics = fixture.db.metrics();
        metrics.locks_created.get() as f64 / metrics.committed.get() as f64
    };
    let txsql_locks = locks_per_txn(Protocol::GroupLockingTxsql);
    let o1_locks = locks_per_txn(Protocol::LightweightO1);
    assert!(
        txsql_locks <= o1_locks + 0.1,
        "group locking should not create more lock objects per txn than O1 \
         (TXSQL {txsql_locks:.3} vs O1 {o1_locks:.3})"
    );
}

#[test]
fn bamboo_cascades_when_dirty_writer_aborts() {
    let config =
        fixture::config(Protocol::Bamboo).with_lock_wait_timeout(Duration::from_millis(200));
    let fixture = setup(config, 2);
    let db = &fixture.db;
    let mut t1 = db.begin();
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 10).unwrap();
    // Bamboo released T1's lock right after the update, so T2 can update the
    // same row and consume T1's dirty value.
    let mut t2 = db.begin();
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 10).unwrap();
    // T1 aborts -> T2's commit must cascade.
    db.rollback(
        t1,
        Some(&txsql_common::Error::ExplicitRollback {
            txn: txsql_common::TxnId(0),
        }),
    );
    let err = db.commit(t2).unwrap_err();
    assert!(err.is_cascading(), "expected cascade, got {err:?}");
    fixture.audit("neither committed");
}

#[test]
fn bamboo_dependency_timeout_names_the_record_read() {
    let config = fixture::config(Protocol::Bamboo).with_lock_wait_timeout(Duration::from_millis(5));
    let fixture = setup(config, 1);
    let db = &fixture.db;
    let mut writer = db.begin();
    db.update_add(&mut writer, ACCOUNTS, 0, 1, 5).unwrap();
    let mut dependent = db.begin();
    db.update_add(&mut dependent, ACCOUNTS, 0, 1, 1).unwrap();
    let row = fixture.record(0);
    let read = &dependent.dirty_reads_from()[0];
    assert_eq!((read.writer, read.record), (writer.id, row));
    // The writer never finishes: the dependent's commit times out on the
    // row whose dirty head it read.
    let err = db.commit(dependent).unwrap_err();
    assert!(
        matches!(err, txsql_common::Error::LockWaitTimeout { record, .. } if record == row),
        "{err:?}"
    );
    db.rollback(writer, None);
    fixture.audit("neither committed");
}

#[test]
fn bamboo_releases_each_record_lock_at_its_statement() {
    let fixture = setup(fixture::config(Protocol::Bamboo), 4);
    let db = &fixture.db;
    let mut t1 = db.begin();
    for pk in 0..3 {
        db.update_add(&mut t1, ACCOUNTS, pk, 1, 10).unwrap();
        let record = fixture.record(pk);
        assert!(
            db.lock_holder(record).is_none(),
            "the update statement must release its own lock"
        );
    }
    // A second transaction can consume the dirty values and both commit in
    // dependency order.
    let mut t2 = db.begin();
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 5).unwrap();
    db.commit(t1).unwrap();
    db.commit(t2).unwrap();
    fixture.acked(&[(0, 10 + 5), (1, 10), (2, 10)]);
    fixture.audit("both committed, in dependency order");
}

#[test]
fn a_transaction_holds_a_lock_exactly_when_the_lock_table_says_so() {
    // Aria refuses session writes.  The others must agree with their table
    // after a cold update: Bamboo gave its lock back, the rest keep theirs.
    for protocol in Protocol::ALL.into_iter().filter(|p| *p != Protocol::Aria) {
        let fixture = setup(fixture::config(protocol), 2);
        let (db, record) = (&fixture.db, fixture.record(1));
        let mut txn = db.begin();
        db.update_add(&mut txn, ACCOUNTS, 1, 1, 5).unwrap();
        let held = db.lock_holder(record) == Some(txn.id);
        assert_eq!(txn.holds_lock(record), held, "{protocol:?}");
        db.commit(txn).unwrap();
        fixture.acked(&[(1, 5)]);
        fixture.audit(&format!("{protocol:?}"));
    }
}

#[test]
fn aria_aborts_a_conflicting_batch_member_and_refuses_session_writes() {
    let config = fixture::config(Protocol::Aria).with_aria_batch_size(2);
    let fixture = setup(config, 2);
    let committed = std::sync::atomic::AtomicU64::new(0);
    // One attempt each: a retry would hide the abort this is about.
    fixture.threads(2, |fixture, _| {
        if fixture
            .db
            .execute_program(&TxnProgram::new(vec![add(0, 5)]))
            .is_ok()
        {
            fixture.acked(&[(0, 5)]);
            committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });
    // Either they landed in the same batch (one aborts) or different batches
    // (both commit); in both cases no update is lost.
    assert!(committed.into_inner() >= 1);
    fixture.audit("two writers of one row, batches of two");

    // A batch writes without locks: a program would stack its version on a
    // session's uncommitted one, which the session's rollback then cannot
    // take off.  So the session's write is refused, and leaves nothing.
    let (db, redo) = (&fixture.db, fixture.db.storage().redo());
    let mut session = db.begin();
    let mut logged = vec![redo.latest_lsn()];
    let refused = db.update_add(&mut session, ACCOUNTS, 1, 1, 100);
    logged.push(redo.latest_lsn());
    assert_eq!(fixture.run(0, &[TxnProgram::new(vec![add(1, 5)])]), 1);
    logged.push(redo.latest_lsn());
    db.rollback(session, refused.as_ref().err());
    logged.push(redo.latest_lsn());
    assert_eq!(chain_len(db, 1), 2, "the session's version is stranded");
    fixture.audit("a program beside a session's write");
    assert_eq!(logged[0], logged[1], "the session's write was logged");
    assert_eq!(logged[2], logged[3], "the session had something to undo");
    let err = refused.unwrap_err();
    assert!(matches!(err, Error::Unsupported { .. }), "{err:?}");
    assert!(!err.is_retryable());
}

// ---------------------------------------------------------------------------
// Hotspot detection (§4.1)
// ---------------------------------------------------------------------------

#[test]
fn uniform_workload_triggers_no_hotspot_handling() {
    let fixture = setup(hot_config(Protocol::GroupLockingTxsql), 64);
    fixture.threads(4, |fixture, worker| {
        // Disjoint 16-row stripes per worker: a truly uniform load never
        // queues two transactions on one row, so promotion (threshold 2)
        // must stay impossible even when the OS preempts a lock holder on a
        // busy machine.
        let update = |i: u64| TxnProgram::new(vec![add((worker * 16 + i % 16) as i64, 1)]);
        let programs: Vec<_> = (0..50).map(update).collect();
        assert_eq!(fixture.run(worker, &programs), 50);
    });
    assert_eq!(fixture.db.metrics().hotspot_group_entries.get(), 0);
    assert_eq!(fixture.db.metrics().committed.get(), 200);
    fixture.audit("uniform load");
}

// ---------------------------------------------------------------------------
// Commit pipeline / group commit metrics
// ---------------------------------------------------------------------------

#[test]
fn group_commit_uses_fewer_fsyncs_than_per_txn_commit() {
    let run = |group_commit: bool| {
        let config = hot_config(Protocol::GroupLockingTxsql)
            .with_group_commit(group_commit)
            .with_latency(LatencyModel {
                fsync: Duration::from_micros(200),
                network_one_way: Duration::ZERO,
            });
        let db = run_concurrent_increments(config, 6, 20, HotSetup::Organic).db;
        (
            db.storage().redo().fsync_count(),
            db.metrics().committed.get(),
        )
    };
    let (fsync_grouped, committed_grouped) = run(true);
    let (fsync_single, committed_single) = run(false);
    assert_eq!(committed_grouped, committed_single);
    assert!(
        fsync_grouped < fsync_single,
        "group commit should batch fsyncs: {fsync_grouped} vs {fsync_single}"
    );
}

/// A hook gets one image per row a transaction wrote, as its commit left it:
/// a leader's image is not its follower's newer head, and a row written
/// twice ships once.
#[test]
fn a_hook_ships_each_written_row_once_as_its_commit_left_it() {
    let fixture = setup(hot_config(Protocol::GroupLockingTxsql), 2);
    let db = &fixture.db;
    db.hotspots().pin(fixture.record(0));
    let hook = Arc::new(CollectingHook::new());
    db.register_commit_hook(hook.clone());
    let (mut leader, mut follower) = (db.begin(), db.begin());
    db.update_add(&mut leader, ACCOUNTS, 0, 1, 1).unwrap();
    db.update_add(&mut follower, ACCOUNTS, 0, 1, 10).unwrap(); // on the leader's head
    db.commit(leader).unwrap();
    db.commit(follower).unwrap();
    let mut twice = db.begin();
    db.update_add(&mut twice, ACCOUNTS, 1, 1, 5).unwrap();
    db.update_add(&mut twice, ACCOUNTS, 1, 1, 7).unwrap();
    db.commit(twice).unwrap();
    let balances = |event: &BinlogTxn| -> Vec<(i64, Option<i64>)> {
        let image = |(_, pk, row): &(TableId, i64, Row)| (*pk, row.get_int(1));
        event.changes.iter().map(image).collect()
    };
    let shipped: Vec<_> = hook.events().iter().map(balances).collect();
    assert_eq!(shipped, [[(0, Some(1))], [(0, Some(11))], [(1, Some(12))]]);
    fixture.acked(&[(0, 11), (1, 12)]);
    fixture.audit("a leader, its follower, and a row written twice");
}

// ---------------------------------------------------------------------------
// Recovery of hotspot state (§5.3) through the engine
// ---------------------------------------------------------------------------

#[test]
fn crash_recovery_discards_uncommitted_hotspot_updates() {
    let fixture = setup(hot_config(Protocol::GroupLockingTxsql), 2);
    let db = &fixture.db;
    db.hotspots().promote(fixture.record(0));
    db.checkpoint().unwrap();

    // One committed, durable update...
    assert_eq!(fixture.run(0, &[TxnProgram::new(vec![add(0, 5)])]), 1);
    db.storage().redo().flush_all().unwrap();
    // ...and two uncommitted hotspot updates left in flight at the crash.
    let mut t_a = db.begin();
    let mut t_b = db.begin();
    db.update_add(&mut t_a, ACCOUNTS, 0, 1, 100).unwrap();
    db.update_add(&mut t_b, ACCOUNTS, 0, 1, 100).unwrap();
    db.storage().redo().flush_all().unwrap();

    let (recovered, report) = fixture.restart();
    assert_eq!(report.rolled_back.len(), 2);
    assert_eq!(report.recovered_hot_orders.len(), 2);
    // Leave the in-flight transactions to clean up normally; the audit finds
    // the committed 5 and the restart's probe, and neither 100.
    db.rollback(t_a, None);
    db.rollback(t_b, None);
    recovered.audit("two hot updates in flight at the crash");
}

// ---------------------------------------------------------------------------
// Version chains stay short: purge at commit
// ---------------------------------------------------------------------------

fn chain_len(db: &Database, pk: i64) -> usize {
    let record = db.record_id(ACCOUNTS, pk).unwrap();
    let table = db.storage().table(ACCOUNTS).unwrap();
    let len = table.slot(record).unwrap().read().version_count();
    len
}

/// Commits `+1` on `pk` through the fixture's retry loop; `false` for the
/// program that ends in a forced rollback (or spent its retry budget).
fn run_update(fixture: &Fixture, pk: i64, roll_back: bool) -> bool {
    let mut operations = vec![add(pk, 1)];
    if roll_back {
        operations.push(Operation::ForcedRollback);
    }
    fixture.run(0, &[TxnProgram::new(operations)]) == 1
}

#[test]
fn hot_row_chain_stays_short_and_readers_never_lose_the_row() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const WRITERS: usize = 4;
    for protocol in Protocol::ALL {
        // 20k commits where a commit costs microseconds.  Bamboo's pile-ups
        // on one row end in dependency-wait polling and cascades (~6 ms per
        // commit) and an Aria batch validates one writer of the row, so
        // those two get fewer.
        let per_writer = match protocol {
            Protocol::Bamboo => 250,
            Protocol::Aria => 1_250,
            _ => 5_000,
        };
        let total = WRITERS * per_writer;
        // Each protocol reads through its own read view (MySQL's copies the
        // active list).  (No history: the two readers below commit a hundred
        // thousand read-only transactions, and the checker's rw edges are the
        // product of readers and writers.)
        let config =
            EngineConfig::for_protocol(protocol).with_lock_wait_timeout(Duration::from_millis(500));
        let fixture = setup(config, 2);
        let db = &fixture.db;
        if protocol.uses_hotspots() {
            db.hotspots().pin(fixture.record(0));
        }
        let committed = AtomicUsize::new(0);
        let shortest_late = AtomicUsize::new(usize::MAX);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut last = 0;
                    while committed.load(Ordering::Acquire) < total {
                        let mut txn = db.begin();
                        let row = db.read(&mut txn, ACCOUNTS, 0).unwrap_or_else(|err| {
                            panic!("{protocol:?}: reader lost the row: {err}")
                        });
                        db.commit(txn).unwrap();
                        let balance = row.get_int(1).unwrap();
                        assert!(balance >= last, "{protocol:?}: {last} -> {balance}");
                        last = balance;
                    }
                });
            }
            for _ in 0..WRITERS {
                scope.spawn(|| {
                    let mut attempt = 0;
                    while committed.load(Ordering::Acquire) < total {
                        // One program in a hundred rolls back.
                        attempt += 1;
                        if attempt % 100 == 0 {
                            assert!(!run_update(&fixture, 0, true));
                        } else if run_update(&fixture, 0, false)
                            && committed.fetch_add(1, Ordering::AcqRel) >= total / 2
                        {
                            shortest_late.fetch_min(chain_len(db, 0), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // (Bamboo can commit on top of a dirty value whose writer then
        // aborts — it reads the row and the writer in two latch takes —
        // so its total is not exact, here or at the parent.)
        let total = committed.into_inner();
        if protocol != Protocol::Bamboo {
            assert_eq!(fixture.value(0), total as i64);
        }
        // A commit keeps the newest version at or below the purge floor
        // plus one per transaction that was handed a commit number and
        // has not finished — itself included.  Nothing is in flight now,
        // so one more commit leaves the kept version and its own.
        assert!(run_update(&fixture, 0, false));
        assert!(
            chain_len(db, 0) <= 2,
            "{protocol:?}: {} versions after {total} commits",
            chain_len(db, 0)
        );
        // The same rule while it ran, which is what this still proves:
        // commits purge as they go, not only the last one.  How long a
        // chain gets meanwhile is how many commits fit into the time
        // slice of a committer (or a reader's view) descheduled between
        // its commit number and its finish — a property of the box, so
        // the peak is not bounded.  But whenever nobody is held, the
        // chain is the kept version plus at most one per writer in
        // flight, and of the writers that looked right after their own
        // commit in the second half of the run (every one does, so the
        // samples do not depend on who gets scheduled) some must have
        // seen it so; a chain that was cut only at the end would be
        // `total / 2` long or longer in every one of those samples.
        let shortest = shortest_late.load(Ordering::Relaxed);
        assert!(
            shortest <= 2 * WRITERS + 2,
            "{protocol:?}: chain never under {shortest} of {total} versions \
             while the second half of the commits ran"
        );
    }
}

#[test]
fn cold_row_chains_stay_short_under_uniform_updates() {
    const WRITERS: u64 = 4;
    const PER_WRITER: usize = 5_000;
    const ROWS: i64 = 1_024;
    let fixture = setup(fixture::config(Protocol::GroupLockingTxsql), ROWS);
    fixture.threads(WRITERS, |fixture, worker| {
        let mut rng = txsql_common::rng::XorShiftRng::for_worker(7, worker);
        for i in 0..PER_WRITER {
            let pk = rng.next_bounded(ROWS as u64) as i64;
            run_update(fixture, pk, i % 100 == 99);
        }
    });
    let db = &fixture.db;
    // A cold row's last commit kept one version at the floor plus the
    // commits of *this row* above it — its own, and rarely another that a
    // descheduled committer held there.  Other rows' traffic does not
    // lengthen its chain: ~2 versions a row, not the ~20 it was given.
    let total: usize = (0..ROWS).map(|pk| chain_len(db, pk)).sum();
    assert!(
        total <= 3 * ROWS as usize,
        "{total} versions on {ROWS} rows"
    );
    // With nothing in flight, one more commit leaves exactly two.
    for pk in 0..ROWS {
        assert!(run_update(&fixture, pk, false));
        assert_eq!(chain_len(db, pk), 2, "row {pk}");
    }
    fixture.audit("uniform updates of cold rows");
}

// ---------------------------------------------------------------------------
// Waits block; nothing polls
// ---------------------------------------------------------------------------

#[test]
fn shutdown_of_an_idle_engine_does_not_wait_out_the_sweep_interval() {
    // The sweeper waits on the stop event with its interval as the timeout,
    // so shutdown wakes it instead of joining a sleeper.
    let interval = Duration::from_millis(400);
    let mut config = EngineConfig::for_protocol(Protocol::GroupLockingTxsql);
    config.hotspot.sweep_interval = interval;
    assert!(config.start_sweeper);
    let db = setup(config, 1).db;
    // The first sweep demotes this idle row: once it has, the sweeper is
    // back in its wait with a whole interval to go.
    let record = db.record_id(ACCOUNTS, 0).unwrap();
    db.hotspots().promote(record);
    while db.hotspots().is_hot(record) {
        thread::yield_now();
    }
    let start = std::time::Instant::now();
    db.shutdown();
    let took = start.elapsed();
    assert!(took < interval / 2, "shutdown took {took:?}");
}

/// On-CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
    stat.split_whitespace().next().unwrap().parse().unwrap()
}

/// Commits single-update transactions on one pinned hot row from `threads`
/// threads for `window`; returns the threads' CPU time per commit in µs.
fn hot_row_cpu_us_per_commit(threads: usize, window: Duration) -> f64 {
    let fixture = setup(EngineConfig::for_protocol(Protocol::GroupLockingTxsql), 1);
    let db = &fixture.db;
    db.hotspots().pin(fixture.record(0));
    let program = TxnProgram::new(vec![add(0, 1)]);
    let start = std::time::Instant::now();
    let (commits, cpu_ns) = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let cpu_before = thread_cpu_ns();
                    let mut commits = 0u64;
                    while start.elapsed() < window {
                        db.execute_program(&program).expect("nothing aborts here");
                        commits += 1;
                    }
                    (commits, thread_cpu_ns() - cpu_before)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().unwrap())
            .fold((0, 0), |sum, (commits, cpu)| (sum.0 + commits, sum.1 + cpu))
    });
    assert_eq!(fixture.value(0), commits as i64);
    cpu_ns as f64 / 1e3 / commits as f64
}

#[test]
fn oversubscribed_hot_row_waiters_do_not_burn_the_cpu() {
    // The `hot_update_mem` shape at 16 threads.  A waiter that polls burns
    // the time slice of the thread it waits for, so the CPU a commit costs
    // grows with the number of waiters; a waiter that spins a few µs and
    // then parks costs a bounded extra.  Measured against the single-thread
    // cost on a 2-CPU box: 4 × (debug) and 12–15 × (release) parking, 17–20 ×
    // and 55 × with the `ut_delay` poll loops.
    let one = hot_row_cpu_us_per_commit(1, Duration::from_millis(300));
    let sixteen = hot_row_cpu_us_per_commit(16, Duration::from_millis(1_000));
    let bound = if cfg!(debug_assertions) { 8.0 } else { 25.0 };
    assert!(
        sixteen < bound * one,
        "a commit costs {sixteen:.1} us of CPU at 16 threads, {one:.1} us at one"
    );
}

#[test]
fn read_only_transactions_leave_no_footprint() {
    // A transaction that writes nothing is begun nowhere but in the
    // transaction system: no storage entry, no log record, no `trx_no`, no
    // hold on the checkpoint floor — under every protocol.
    for protocol in Protocol::ALL {
        let fixture = setup(fixture::config(protocol), 8);
        let db = &fixture.db;
        db.checkpoint().unwrap();
        let update = |pk| TxnProgram::new(vec![add(pk, 7)]);
        assert_eq!(fixture.run(0, &[update(0), update(1), update(2)]), 3);
        let history = db.history().unwrap();
        let newest = |history: &txsql_core::checker::HistoryRecorder| {
            let (txn, info) = history.committed_snapshot().pop().unwrap();
            (txn, info.trx_no)
        };
        let (last_writer, last_trx_no) = newest(history);
        let redo = db.storage().redo();
        let (lsn, logged) = (redo.latest_lsn(), redo.len());

        // Readers: whole programs, the session API, and an open one rolled back.
        let reads = TxnProgram::new(
            (0..8)
                .map(|pk| Operation::Read {
                    table: ACCOUNTS,
                    pk,
                })
                .collect(),
        );
        for _ in 0..20 {
            let outcome = db.execute_program(&reads).unwrap();
            assert!(outcome.committed, "{protocol:?}");
            assert_eq!(outcome.reads[..3], [7; 3], "{protocol:?}");
        }
        let mut reader = db.begin();
        assert_eq!(
            db.read(&mut reader, ACCOUNTS, 5).unwrap().get_int(1),
            Some(0)
        );
        assert_eq!(
            db.storage().active_txn_floor(),
            None,
            "{protocol:?}: an open reader holds no floor"
        );
        db.commit(reader).unwrap();
        let mut reader = db.begin();
        db.read(&mut reader, ACCOUNTS, 6).unwrap();
        db.rollback(reader, None);

        assert_eq!(
            (redo.latest_lsn(), redo.len()),
            (lsn, logged),
            "{protocol:?}"
        );
        assert_eq!(db.protocol_entries(), 0, "{protocol:?}");
        // Committed readers are in the history, at the horizon they read
        // under; none of them was handed a commit number.
        assert!(history.check().is_serializable(), "{protocol:?}");
        let readers = history.committed_snapshot();
        let readers: Vec<_> = readers
            .iter()
            .filter(|(_, t)| t.writes.is_empty())
            .collect();
        assert!(readers.len() >= 21, "{protocol:?}: {}", readers.len());
        assert!(readers.iter().all(|(_, t)| t.trx_no == last_trx_no));
        assert!(
            readers.iter().all(|(_, t)| !t.reads.is_empty()),
            "{protocol:?}: a committed reader without its reads"
        );
        assert_eq!(fixture.run(0, &[update(3)]), 1);
        assert_eq!(newest(history).1, last_trx_no + 1, "{protocol:?}");

        // A restart finds nothing of the readers: the same state, and ids
        // that go on after the last one that wrote.
        redo.flush_all().unwrap();
        let (restarted, report) = db.restart_from_crash().unwrap();
        assert!(report.rolled_back.is_empty(), "{protocol:?}");
        assert!(report.max_txn_id > last_writer.0, "{protocol:?}");
        assert!(restarted.begin().id.0 > report.max_txn_id, "{protocol:?}");
        let balances = |db: &Database| -> Vec<_> {
            let row = |pk| db.storage().read_committed(ACCOUNTS, fixture.record(pk));
            (0..8)
                .map(|pk| row(pk).unwrap().unwrap().get_int(1))
                .collect()
        };
        assert_eq!(balances(&restarted), balances(db), "{protocol:?}");

        // Nor do they hold a checkpoint back: it truncates the whole log.
        for _ in 0..5 {
            db.execute_program(&reads).unwrap();
        }
        let reader = db.begin();
        db.checkpoint().unwrap();
        assert!(redo.is_empty(), "{protocol:?}: {} records left", redo.len());
        db.commit(reader).unwrap();
        // Nothing to replay, and the restarted engine holds what the ledger
        // holds (and the restart's probe).
        let (restarted, report) = fixture.restart();
        assert_eq!(report.replayed, 0, "{protocol:?}");
        restarted.audit(&format!("{protocol:?}"));
    }
}

/// Pinned per-transaction budgets of shim lock acquisitions, `(shape, locks)`:
/// ten point reads, four cold updates, one update of a pinned hot row (5 of
/// its locks are `GroupLockTable`'s; 6 with a leader's quiesce), that update
/// rolled back (8 of `GroupLockTable`'s: a lone member's `finish_rollback` is one state
/// acquisition and one collection; 31 with 13 while lifting the pause was a
/// second call), the update again with a 100 µs sync (the commit
/// pipeline's count of released members is one more state acquisition), and
/// FiT's shape (two cold updates after it, each after one §4.5 check).
/// None is the redo log's: an append is a compare-and-swap (53 / 29 / 26
/// while `Begin`, every update and the marker each took its tail mutex).
/// Nor is `begin`'s, or the `finish` of a transaction with no commit number:
/// under copy-free views `TrxSys` keeps no active list (23 / 43 / 24 / 22 /
/// 25 / 44 while it did).  ARCHITECTURE.md, "What a statement touches", has
/// the break-down.
#[cfg(debug_assertions)]
const LOCK_BUDGET: [(&str, u64); 6] = [
    ("10 reads", 21),
    ("4 cold updates", 42),
    ("1 hot update", 23),
    ("1 hot update, rolled back", 20),
    ("1 hot update, local_ssd", 24),
    ("1 hot update, 2 cold updates", 43),
];

#[cfg(debug_assertions)]
#[test]
fn lock_acquisitions_per_transaction_stay_within_budget() {
    // Every `Mutex` / `RwLock` in the engine is the shim's, and the shim
    // counts acquisitions per thread in debug builds.  With one client on a
    // warmed engine (event pools filled, lock-table queues and the hot row's
    // group entry created) the count per transaction repeats exactly, so it
    // can be pinned: a statement or commit path that starts taking one more
    // engine-wide lock fails here before any benchmark has to notice.
    let pinned = |latency| {
        let config = EngineConfig::for_protocol(Protocol::GroupLockingTxsql);
        let fixture = setup(config.with_latency(latency), 64);
        fixture.db.hotspots().pin(fixture.record(0));
        fixture
    };
    let memory = pinned(LatencyModel::in_memory());
    let ssd = pinned(LatencyModel::local_ssd());
    let read = |pk| Operation::Read {
        table: ACCOUNTS,
        pk,
    };
    let add = |pk| add(pk, 1);
    let rolled_back = TxnProgram::new(vec![add(0), Operation::ForcedRollback]);
    let runs = [
        (&memory, TxnProgram::new((1..=10).map(read).collect())),
        (&memory, TxnProgram::new((11..=14).map(add).collect())),
        (&memory, TxnProgram::new(vec![add(0)])),
        (&memory, rolled_back),
        (&ssd, TxnProgram::new(vec![add(0)])),
        (&memory, TxnProgram::new(vec![add(0), add(15), add(16)])),
    ];
    for ((fixture, program), (shape, budget)) in runs.iter().zip(LOCK_BUDGET) {
        let db = &fixture.db;
        let mut counts = [0u64; 4];
        for count in &mut counts {
            let before = parking_lot::thread_acquisitions();
            let rolls_back = program.operations.last() == Some(&Operation::ForcedRollback);
            let committed = db.execute_program(program).unwrap().committed;
            assert_eq!(committed, !rolls_back, "{shape}");
            *count = parking_lot::thread_acquisitions() - before;
        }
        // counts[0] is the warm-up.
        assert!(
            counts[1..].iter().all(|count| *count == counts[1]),
            "{shape}: {counts:?} does not repeat"
        );
        println!("lock acquisitions per transaction, {shape}: {}", counts[1]);
        assert!(
            counts[1] <= budget,
            "{shape}: {} lock acquisitions per transaction, budget {budget}",
            counts[1]
        );
    }
    // A lone committer takes itself off before it could wait for itself.
    let metrics = ssd.db.metrics();
    let holds = metrics.commit_held_batches.get() + metrics.commit_hold_expired.get();
    assert_eq!(holds, 0);
}
