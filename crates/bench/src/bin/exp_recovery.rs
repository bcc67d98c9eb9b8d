//! §6.4.6 — failure recovery: run a hotspot-heavy FiT load, crash, restart
//! the engine through [`txsql_core::Database::restart_from_crash`], and
//! report the recovery duration, how many in-flight transactions were rolled
//! back, the group-commit fsync count of the run and whether committed data
//! survived intact in the restarted engine.  A second table replays one hot
//! row's history at two lengths: replay is linear in the log, so the cost per
//! record must not grow with the history.

use std::time::Instant;
use txsql_bench::{fmt, measure_duration, print_table, short_thread_ladder, warmup_duration};
use txsql_common::{Row, TableId};
use txsql_core::{Database, EngineConfig, Protocol};
use txsql_storage::TableSchema;
use txsql_workloads::fit::FIT_ACCOUNTS;
use txsql_workloads::{run_closed_loop, ClosedLoopOptions, FitWorkload, Workload};

fn build_db(protocol: Protocol) -> Database {
    Database::new(EngineConfig::for_protocol(protocol))
}

/// The committed balance of FiT's hot account.
fn hot_balance(db: &Database) -> Option<i64> {
    let record = db.record_id(FIT_ACCOUNTS, 0).ok()?;
    let row = db.storage().read_committed(FIT_ACCOUNTS, record).ok()??;
    row.get_int(1)
}

/// Restart after `updates` committed single-statement updates of one row.
fn hot_row_restart(updates: usize) -> Vec<String> {
    const TABLE: TableId = TableId(1);
    let db = build_db(Protocol::GroupLockingTxsql);
    db.create_table(TableSchema::new(TABLE, "hot", 2)).unwrap();
    db.load_row(TABLE, Row::from_ints(&[0, 0])).unwrap();
    db.hotspots().pin(db.record_id(TABLE, 0).unwrap());
    db.checkpoint().unwrap();
    for _ in 0..updates {
        let mut txn = db.begin();
        db.update_add(&mut txn, TABLE, 0, 1, 1).unwrap();
        db.commit(txn).unwrap();
    }
    db.storage().redo().flush_all().unwrap();
    let started = Instant::now();
    let (recovered, report) = db.restart_from_crash().unwrap();
    let recovery_time = started.elapsed();
    let record = recovered.record_id(TABLE, 0).unwrap();
    let balance = recovered.storage().read_committed(TABLE, record).unwrap();
    let matches = balance.and_then(|row| row.get_int(1)) == Some(updates as i64);
    recovered.shutdown();
    vec![
        updates.to_string(),
        report.replayed.to_string(),
        fmt(recovery_time.as_secs_f64() * 1_000.0),
        fmt(recovery_time.as_secs_f64() * 1e6 / report.replayed as f64),
        matches.to_string(),
    ]
}

fn main() {
    let mut rows = Vec::new();
    for protocol in [Protocol::Mysql2pl, Protocol::GroupLockingTxsql] {
        let &threads = short_thread_ladder().last().unwrap();
        let db = build_db(protocol);
        let workload = FitWorkload::standard();
        workload.setup(&db);
        db.checkpoint().unwrap();
        let options = ClosedLoopOptions::default().with_threads(threads);
        let options = options.with_durations(warmup_duration(), measure_duration());
        let snapshot = run_closed_loop(&db, &workload, &options);
        // "Crash": only the durable prefix of the redo log survives.
        db.storage().redo().flush_all().unwrap();
        let fsyncs = db.storage().redo().fsync_count();
        let primary_balance = hot_balance(&db);
        let started = Instant::now();
        let (recovered, report) = db.restart_from_crash().unwrap();
        let recovery_time = started.elapsed();
        // Committed hot balance must be reproducible in the restarted
        // engine, and the engine must be fully working again.
        let recovered_balance = hot_balance(&recovered);
        let mut probe = recovered.begin();
        recovered
            .update_add(&mut probe, FIT_ACCOUNTS, 0, 1, 0)
            .unwrap();
        recovered.commit(probe).unwrap();
        rows.push(vec![
            protocol.label().to_string(),
            threads.to_string(),
            snapshot.committed.to_string(),
            report.replayed.to_string(),
            report.rolled_back.len().to_string(),
            fsyncs.to_string(),
            fmt(recovery_time.as_secs_f64() * 1_000.0),
            (primary_balance.is_some() && primary_balance == recovered_balance).to_string(),
        ]);
        recovered.shutdown();
    }
    let headers = |names: &str| names.split(' ').map(String::from).collect::<Vec<_>>();
    let title =
        "Failure recovery (§6.4.6): redo replay + ordered rollback of in-flight transactions";
    let columns = "protocol threads committed redo_replayed rolled_back group_fsyncs recovery_ms";
    print_table(title, &headers(&format!("{columns} state_matches")), &rows);
    let columns = headers("updates redo_replayed recovery_ms us_per_record state_matches");
    let replays = [hot_row_restart(10_000), hot_row_restart(40_000)];
    print_table(
        "Hot-row replay: one row's history at two lengths",
        &columns,
        &replays,
    );
}
