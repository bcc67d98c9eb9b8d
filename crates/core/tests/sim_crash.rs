//! Whole-engine crash exploration (`txsql-sim` + the storage fault
//! injector): every seed derives a [`FaultPlan`] that crashes the engine at
//! a named crash point — mid-commit, mid-handover, mid-group-commit-batch,
//! mid-checkpoint — then restarts it through
//! [`Database::restart_from_crash`] and checks the **recovery oracle**:
//!
//! 1. every commit the pipeline *acknowledged* (an `Ok` return from
//!    `Database::commit`) is present after restart;
//! 2. no uncommitted write survives — transactions in flight at the crash
//!    are rolled back, and a transaction's writes recover atomically
//!    (the hot row and the per-worker cold rows stay in lockstep);
//! 3. the restarted engine is fully working (it accepts and commits new
//!    transactions).
//!
//! A failing seed panics with a replayable schedule trace; the seed set is
//! `TXSQL_SIM_SEEDS`-overridable (CI pins `0..200`).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::{Lsn, Row, TableId, TxnId};
use txsql_core::{Database, EngineConfig, Protocol};
use txsql_sim::run_seed;
use txsql_storage::fault::{CrashPoint, FaultInjector, FaultPlan};
use txsql_storage::wal::{RedoLog, RedoRecord};
use txsql_storage::TableSchema;

const ACCOUNTS: TableId = TableId(1);
const HOT_PK: i64 = 1;
const WORKERS: usize = 3;
const PER_WORKER: usize = 2;

fn cold_pk(worker: usize) -> i64 {
    100 + worker as i64
}

/// Engine configuration safe for a sim run: every thread touching the engine
/// must be a sim thread, so the background hotspot sweeper stays off.
fn sim_config(protocol: Protocol) -> EngineConfig {
    let mut config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100));
    config.start_sweeper = false;
    config.record_history = false;
    config
}

fn setup_accounts(db: &Database) {
    db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
        .unwrap();
    db.load_row(ACCOUNTS, Row::from_ints(&[HOT_PK, 0])).unwrap();
    for worker in 0..WORKERS {
        db.load_row(ACCOUNTS, Row::from_ints(&[cold_pk(worker), 0]))
            .unwrap();
    }
}

fn committed_value(db: &Database, pk: i64) -> i64 {
    let record = db.record_id(ACCOUNTS, pk).unwrap();
    db.storage()
        .read_committed(ACCOUNTS, record)
        .unwrap()
        .unwrap()
        .get_int(1)
        .unwrap()
}

/// One worker of the crash workload: each transaction adds `+1` to the hot
/// row *and* `+1` to the worker's private cold row, so recovered state can be
/// checked for both durability (hot total) and atomicity (hot == Σ cold).
/// Retryable contention errors retry; a crash or read-only degradation stops
/// the worker — the engine is dead and only `restart_from_crash` continues.
fn crash_worker(
    db: Arc<Database>,
    worker: usize,
    acked: Arc<parking_lot::Mutex<Vec<TxnId>>>,
    commit_attempts: Arc<AtomicI64>,
) {
    let mut committed = 0;
    let mut tries = 0;
    while committed < PER_WORKER {
        tries += 1;
        if tries > 60 {
            return; // starved by this schedule — the oracle still holds
        }
        let mut txn = db.begin();
        let step = db
            .update_add(&mut txn, ACCOUNTS, HOT_PK, 1, 1)
            .and_then(|_| db.update_add(&mut txn, ACCOUNTS, cold_pk(worker), 1, 1));
        match step {
            Ok(_) => {
                let id = txn.id;
                commit_attempts.fetch_add(1, Ordering::Relaxed);
                match db.commit(txn) {
                    Ok(()) => {
                        acked.lock().push(id);
                        committed += 1;
                    }
                    Err(err) if err.is_retryable() => {}
                    Err(_) => return, // crashed / read-only: process is dead
                }
            }
            Err(err) if err.is_retryable() => db.rollback(txn, Some(&err)),
            Err(_) => {
                db.rollback(txn, None);
                return;
            }
        }
    }
}

/// A checkpointer running alongside the workload, so seeded crashes can land
/// between publishing a checkpoint image and truncating the log behind it.
fn checkpoint_worker(db: Arc<Database>, rounds: usize) {
    for _ in 0..rounds {
        if db.checkpoint().is_err() {
            return; // crashed mid-checkpoint (or read-only)
        }
    }
}

/// Runs the crash workload under one seed and applies the recovery oracle.
/// Returns the name of the crash point that fired, if the seed crashed.
fn explore_one_seed(seed: u64, plan: FaultPlan) -> Option<&'static str> {
    let target = plan.crash_target();
    let db = Database::new(sim_config(Protocol::GroupLockingTxsql).with_fault_plan(plan));
    setup_accounts(&db);
    // The baseline checkpoint makes the bulk-loaded rows recoverable (bulk
    // load is not redo-logged).  A `Checkpoint`-targeted plan with
    // `nth_hit == 1` crashes right here — before any workload ran — and the
    // only oracle left is "restart produces a working engine".
    if db.checkpoint().is_err() {
        assert!(
            db.has_crashed(),
            "seed {seed}: baseline checkpoint failed without a crash"
        );
        let (recovered, report) = db.restart_from_crash().unwrap();
        assert!(report.committed.is_empty() && report.rolled_back.is_empty());
        recovered
            .create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        recovered
            .load_row(ACCOUNTS, Row::from_ints(&[HOT_PK, 0]))
            .unwrap();
        let mut probe = recovered.begin();
        recovered
            .update_add(&mut probe, ACCOUNTS, HOT_PK, 1, 1)
            .unwrap();
        recovered.commit(probe).unwrap();
        recovered.shutdown();
        return Some(
            target
                .expect("only a planned crash fails the baseline")
                .0
                .name(),
        );
    }

    let db = Arc::new(db);
    let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let commit_attempts = Arc::new(AtomicI64::new(0));
    let db_build = Arc::clone(&db);
    let acked_build = Arc::clone(&acked);
    let attempts_build = Arc::clone(&commit_attempts);
    run_seed(seed, move |sim| {
        for worker in 0..WORKERS {
            let db = Arc::clone(&db_build);
            let acked = Arc::clone(&acked_build);
            let attempts = Arc::clone(&attempts_build);
            sim.spawn(format!("worker-{worker}"), move || {
                crash_worker(db, worker, acked, attempts);
            });
        }
        let db = Arc::clone(&db_build);
        sim.spawn("checkpointer", move || checkpoint_worker(db, 2));
    });

    let crashed_at = if db.has_crashed() {
        assert_eq!(
            db.metrics().crash_injected.get(),
            1,
            "seed {seed}: a crash fires exactly once"
        );
        Some(target.expect("only a planned crash can fire").0.name())
    } else {
        None
    };

    // --- Restart and apply the recovery oracle. ---
    let acked: Vec<TxnId> = acked.lock().clone();
    let attempts = commit_attempts.load(Ordering::Relaxed);
    let (recovered, report) = db.restart_from_crash().unwrap();

    // (2) In-flight transactions roll back; nothing acknowledged is among
    // them.  (Acked transactions folded into a mid-run checkpoint image are
    // no longer in the log at all — which is also not-rolled-back.)
    for id in &acked {
        assert!(
            !report.rolled_back.contains(id),
            "seed {seed}: acked transaction {id} was rolled back\n{}",
            report.summary()
        );
    }

    // (1)+(2) Durability and no-ghost-commits envelope: every acked commit
    // adds exactly +1 to the hot row, and nothing that never reached a
    // commit attempt can be counted.
    let hot = committed_value(&recovered, HOT_PK);
    assert!(
        hot >= acked.len() as i64 && hot <= attempts,
        "seed {seed}: recovered hot value {hot} outside [{}, {attempts}]\n{}",
        acked.len(),
        report.summary()
    );

    // (2) Atomicity: each transaction writes the hot row and one cold row
    // together, so a partially-recovered transaction would break lockstep.
    let cold_sum: i64 = (0..WORKERS)
        .map(|w| committed_value(&recovered, cold_pk(w)))
        .sum();
    assert_eq!(
        hot,
        cold_sum,
        "seed {seed}: a transaction recovered partially\n{}",
        report.summary()
    );

    // Observability: the replay counter of the restarted engine matches the
    // report.
    assert_eq!(
        recovered.metrics().recovery_replayed.get(),
        report.replayed as u64
    );

    // (3) The restarted engine is fully working.
    let mut probe = recovered.begin();
    recovered
        .update_add(&mut probe, ACCOUNTS, HOT_PK, 1, 1)
        .unwrap();
    recovered.commit(probe).unwrap();
    assert_eq!(committed_value(&recovered, HOT_PK), hot + 1);
    recovered.shutdown();
    crashed_at
}

/// Seeded crash exploration: every explored schedule must satisfy the
/// recovery oracle, and across the seed set every seeded crash point must
/// actually fire at least once (otherwise the exploration is vacuous).
#[test]
fn sim_crash_exploration_recovers_every_acknowledged_commit() {
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut crashed_points = std::collections::HashSet::new();
    let mut crashed_seeds = 0u64;
    for seed in seeds {
        if let Some(point) = explore_one_seed(seed, FaultPlan::seeded(seed)) {
            crashed_points.insert(point);
            crashed_seeds += 1;
        }
    }
    assert!(
        crashed_seeds > 0,
        "no explored schedule crashed ({n_seeds} seeds)"
    );
    // Meta-assertion: the whole point of seeding is coverage of every
    // seeded crash point (FsyncError crashes are exercised separately by
    // the wal unit tests and the fsync-retry seeds below).
    for point in [
        "pre_append",
        "post_append_pre_flush",
        "mid_flush",
        "checkpoint",
    ] {
        assert!(
            crashed_points.contains(point),
            "crash point {point} never fired across {n_seeds} seeds (saw {crashed_points:?})"
        );
    }
}

/// The bounded-retry path under exploration: seeds whose plan injects
/// transient fsync errors must retry them (visible in `fsync_retries`)
/// without degrading the engine, and the oracle must still hold.
#[test]
fn sim_transient_fsync_errors_recover_under_exploration() {
    let mut retried = 0u64;
    for seed in txsql_sim::ci_seeds(40) {
        // Plans without a crash: only the transient-error budget, so every
        // flush eventually succeeds and no worker dies early.
        let plan = FaultPlan::none().with_transient_fsync_errors(2);
        let db = Database::new(sim_config(Protocol::GroupLockingTxsql).with_fault_plan(plan));
        setup_accounts(&db);
        db.checkpoint().unwrap();
        let db = Arc::new(db);
        let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let attempts = Arc::new(AtomicI64::new(0));
        let db_build = Arc::clone(&db);
        let acked_build = Arc::clone(&acked);
        let attempts_build = Arc::clone(&attempts);
        run_seed(seed, move |sim| {
            for worker in 0..WORKERS {
                let db = Arc::clone(&db_build);
                let acked = Arc::clone(&acked_build);
                let attempts = Arc::clone(&attempts_build);
                sim.spawn(format!("worker-{worker}"), move || {
                    crash_worker(db, worker, acked, attempts);
                });
            }
        });
        assert!(!db.has_crashed() && !db.is_read_only());
        retried += db.metrics().fsync_retries.get();
        let acked_count = acked.lock().len() as i64;
        assert_eq!(
            committed_value(&db, HOT_PK),
            acked_count,
            "seed {seed}: retried flushes must not lose or invent commits"
        );
        db.shutdown();
    }
    assert!(retried > 0, "no explored schedule exercised an fsync retry");
}

/// A crash landing *inside* a group-commit flush batch: non-zero fsync
/// latency makes followers pile up behind one leader flush, and the
/// mid-flush cut leaves a torn tail that recovery must scan-stop at.
/// Some batch members' commit markers may survive below the cut — they were
/// answered with an error (ambiguous outcome), which the oracle's envelope
/// permits — but nothing acknowledged may be lost.
#[test]
fn sim_torn_tail_inside_group_commit_batch_recovers() {
    let mut crashed_seeds = 0u64;
    for seed in txsql_sim::ci_seeds(60) {
        let plan = FaultPlan::none()
            .crash_at(CrashPoint::MidFlush, 1 + seed % 3)
            .with_torn_cut_back(1 + seed % 2);
        let db = Database::new(
            sim_config(Protocol::GroupLockingTxsql)
                .with_fault_plan(plan)
                .with_latency(txsql_common::latency::LatencyModel::local_ssd()),
        );
        setup_accounts(&db);
        db.checkpoint().unwrap();
        let db = Arc::new(db);
        let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let attempts = Arc::new(AtomicI64::new(0));
        let db_build = Arc::clone(&db);
        let acked_build = Arc::clone(&acked);
        let attempts_build = Arc::clone(&attempts);
        run_seed(seed, move |sim| {
            for worker in 0..WORKERS {
                let db = Arc::clone(&db_build);
                let acked = Arc::clone(&acked_build);
                let attempts = Arc::clone(&attempts_build);
                sim.spawn(format!("worker-{worker}"), move || {
                    crash_worker(db, worker, acked, attempts);
                });
            }
        });
        let crashed = db.has_crashed();
        let torn = db.storage().redo().torn_lsn();
        let acked: Vec<TxnId> = acked.lock().clone();
        let attempts = attempts.load(Ordering::Relaxed);
        let (recovered, report) = db.restart_from_crash().unwrap();
        if crashed {
            crashed_seeds += 1;
            assert!(
                torn.is_some(),
                "seed {seed}: a mid-flush crash must leave a torn tail"
            );
            assert_eq!(
                report.torn_tail, torn,
                "recovery must scan-stop at the torn record"
            );
        }
        for id in &acked {
            assert!(
                !report.rolled_back.contains(id),
                "seed {seed}: acked {id} rolled back"
            );
        }
        let hot = committed_value(&recovered, HOT_PK);
        assert!(
            hot >= acked.len() as i64 && hot <= attempts,
            "seed {seed}: recovered hot value {hot} outside [{}, {attempts}]",
            acked.len()
        );
        let mut probe = recovered.begin();
        recovered
            .update_add(&mut probe, ACCOUNTS, HOT_PK, 1, 1)
            .unwrap();
        recovered.commit(probe).unwrap();
        recovered.shutdown();
    }
    assert!(crashed_seeds > 0, "no explored schedule crashed mid-flush");
}

// ---------------------------------------------------------------------------
// Deterministic checkpoint/truncation interplay (no sim needed)
// ---------------------------------------------------------------------------

/// A checkpoint taken with a transaction in flight must keep that
/// transaction's records in the log (truncation stops at the active-txn
/// floor), so a later crash recovers: image rows + post-image log rows, and
/// the in-flight transaction rolled back.
#[test]
fn checkpoint_with_inflight_txn_then_crash_recovers_image_plus_log() {
    let db = Database::new(sim_config(Protocol::GroupLockingTxsql));
    setup_accounts(&db);
    db.checkpoint().unwrap();

    // A committed, durable transaction folded into the next image...
    let mut a = db.begin();
    db.update_add(&mut a, ACCOUNTS, HOT_PK, 1, 5).unwrap();
    db.commit(a).unwrap();
    db.storage().redo().flush_all().unwrap();

    // ...a transaction still in flight when the checkpoint runs (it holds a
    // cold row so the later hot-row commit is not blocked behind its lock)...
    let mut in_flight = db.begin();
    db.update_add(&mut in_flight, ACCOUNTS, cold_pk(0), 1, 100)
        .unwrap();
    let image = db.checkpoint().unwrap();
    assert!(
        db.metrics().wal_truncated_records.get() > 0,
        "the committed prefix below the active-txn floor must be truncated"
    );

    // ...and one committed after the image was cut.
    let mut c = db.begin();
    db.update_add(&mut c, ACCOUNTS, HOT_PK, 1, 7).unwrap();
    let c_id = c.id;
    db.commit(c).unwrap();
    db.storage().redo().flush_all().unwrap();

    // "Crash" with the in-flight transaction still open: restart recovers
    // the image (5), replays the post-image suffix (7) and rolls back the
    // in-flight +100.
    let in_flight_id = in_flight.id;
    let (recovered, report) = db.restart_from_crash().unwrap();
    assert_eq!(committed_value(&recovered, HOT_PK), 12);
    assert_eq!(
        committed_value(&recovered, cold_pk(0)),
        0,
        "the in-flight +100 must not survive"
    );
    assert!(report.rolled_back.contains(&in_flight_id));
    assert!(report.committed.contains(&c_id));
    assert!(image.lsn >= Lsn(1));
    recovered.shutdown();
}

/// A crash *between* flushing a checkpoint image and publishing it: the new
/// image is discarded and recovery falls back to the previous baseline plus
/// the (un-truncated, merely redundant) log — which idempotent replay
/// tolerates.
#[test]
fn crash_during_checkpoint_falls_back_to_previous_baseline() {
    // Hit 1 is the baseline checkpoint below; hit 2 the crashing one.
    let plan = FaultPlan::none().crash_at(CrashPoint::Checkpoint, 2);
    let db = Database::new(sim_config(Protocol::GroupLockingTxsql).with_fault_plan(plan));
    setup_accounts(&db);
    db.checkpoint().unwrap();

    let mut a = db.begin();
    db.update_add(&mut a, ACCOUNTS, HOT_PK, 1, 5).unwrap();
    let a_id = a.id;
    db.commit(a).unwrap();
    db.storage().redo().flush_all().unwrap();

    assert!(db.checkpoint().is_err(), "the second checkpoint crashes");
    assert!(db.has_crashed());

    let (recovered, report) = db.restart_from_crash().unwrap();
    assert_eq!(
        committed_value(&recovered, HOT_PK),
        5,
        "recovery replays the durable log over the previous baseline"
    );
    assert!(report.committed.contains(&a_id));
    recovered.shutdown();
}

// ---------------------------------------------------------------------------
// Regression: the flush_to durability race
// ---------------------------------------------------------------------------

/// Regression test for the `RedoLog::flush_to` durability race.
///
/// The pre-fix code had no flush latch: a caller checked
/// `durable_lsn >= lsn`, fsynced, and `fetch_max`ed the horizon — with no
/// re-check that the process was still alive when the fsync completed.  The
/// failing schedule (caught at seed 1 with the fix reverted — "durable
/// horizon Lsn(1) swallowed the torn record at Lsn(1)"): flusher A enters
/// `flush_to(1)` and yields inside its fsync; flusher B enters
/// `flush_to(2)`, crashes mid-flush and freezes the durable horizon at the
/// crash image (cutting lsn 1..=2); A then resumes and its `fetch_max`
/// advances the horizon *past the frozen crash image*, so A acknowledges a
/// flush whose records the crash already destroyed — a durably-acknowledged
/// commit that recovery cannot see.  With flushers serialized and the
/// post-fsync `crashed()` re-check, every `Ok` return's records are in the
/// durable suffix on every explored schedule.
#[test]
fn sim_flush_to_race_never_acks_records_the_crash_destroyed() {
    let mut crashed_seeds = 0u64;
    for seed in txsql_sim::ci_seeds(100) {
        let faults = FaultInjector::new(
            FaultPlan::none()
                .crash_at(CrashPoint::MidFlush, 1)
                .with_torn_cut_back(1 + seed % 2),
        );
        let redo = Arc::new(RedoLog::with_faults(Duration::from_micros(50), faults));
        let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let redo_build = Arc::clone(&redo);
        let acked_build = Arc::clone(&acked);
        run_seed(seed, move |sim| {
            for t in 0..2u64 {
                let redo = Arc::clone(&redo_build);
                let acked = Arc::clone(&acked_build);
                sim.spawn(format!("flusher-{t}"), move || {
                    let lsn = redo.append(RedoRecord::Commit {
                        txn: TxnId(t + 1),
                        trx_no: t + 1,
                    });
                    if redo.flush_to(lsn).is_ok() {
                        acked.lock().push((TxnId(t + 1), lsn));
                    }
                });
            }
        });
        if redo.faults().crashed() {
            crashed_seeds += 1;
        }
        // The frozen-horizon invariant: the torn record a mid-flush crash
        // left behind must stay *above* the durable horizon forever.  On the
        // pre-fix code, a concurrent flusher whose fsync was in flight at
        // the crash re-advanced the horizon over the torn record with its
        // post-fsync `fetch_max` — acknowledging records the crash image
        // destroyed.
        if let Some(torn) = redo.torn_lsn() {
            assert!(
                redo.durable_lsn().0 < torn.0,
                "seed {seed}: durable horizon {:?} swallowed the torn record at {torn:?}",
                redo.durable_lsn()
            );
            for (txn, lsn) in acked.lock().iter() {
                assert!(
                    lsn.0 < torn.0,
                    "seed {seed}: {txn} was acknowledged at {lsn:?}, at/past the torn record {torn:?}"
                );
            }
        }
        let durable = redo.durable_records();
        for (txn, lsn) in acked.lock().iter() {
            assert!(
                lsn.0 <= redo.durable_lsn().0,
                "seed {seed}: acked lsn {lsn:?} above the durable horizon {:?}",
                redo.durable_lsn()
            );
            assert!(
                durable
                    .iter()
                    .any(|r| matches!(r, RedoRecord::Commit { txn: t, .. } if t == txn)),
                "seed {seed}: flush_to acked {txn} but its record did not survive the crash"
            );
        }
    }
    assert!(crashed_seeds > 0, "no explored schedule crashed mid-flush");
}
