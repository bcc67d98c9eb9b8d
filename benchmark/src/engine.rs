//! The adapter: the only file that names the engine's crates.
//!
//! Everything else in the benchmark imports engine items from here, so the
//! `pub use` list below *is* the API surface the benchmark pins (README.md
//! repeats it).  A PR that renames or re-shapes one of these items has to
//! touch this file and nothing else in `benchmark/`.

pub use txsql_common::latency::LatencyModel;
pub use txsql_common::metrics::{EngineMetrics, MetricsScratch};
pub use txsql_common::{Error, RecordId, Row, TableId, TxnId};
pub use txsql_core::{
    AdmissionConfig, AdmissionController, AdmissionPermit, BinlogTxn, CommitHook, CommitPipeline,
    Database, EngineConfig, Operation, ProgramOutcome, Protocol, TxnProgram,
};
pub use txsql_lockmgr::group_lock::{GroupLockConfig, GroupLockTable, HotExecution};
pub use txsql_lockmgr::hotspot::{HotspotConfig, HotspotRegistry};
pub use txsql_lockmgr::lightweight::{LightweightConfig, LightweightLockTable};
pub use txsql_lockmgr::lock_sys::{LockSys, LockSysConfig};
pub use txsql_lockmgr::modes::LockMode;
pub use txsql_replication::{ReplicationHook, ReplicationMode};
pub use txsql_storage::recovery::recover;
pub use txsql_storage::{RedoLog, RedoRecord, Storage, TableSchema};
pub use txsql_txn::{ReadViewMode, TrxSys};

use crate::trace::{Recorder, SpanName};
use crate::workloads::{Durability, Expected, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the output check waits for the replicas to apply the binlog.
const REPLICA_CATCH_UP: Duration = Duration::from_secs(5);

/// One database set up for one workload.
pub struct Engine {
    db: Database,
    workload: Workload,
    hook: Option<Arc<ReplicationHook>>,
    /// The hook's own registry: the engine's is reset at window boundaries,
    /// and a degraded commit anywhere in the run voids it.
    repl_metrics: Arc<EngineMetrics>,
}

/// Engine-side counts over one measurement window (see
/// [`Engine::begin_window`]).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub lock_waits: u64,
    pub lock_wait_mean_us: f64,
    pub locks_created: u64,
    pub deadlock_checks: u64,
    pub hot_entries: u64,
    pub groups_formed: u64,
    pub commit_batches: u64,
    pub commit_synced: u64,
    pub blocked_ns: u64,
    pub busy_ns: u64,
    pub aborts_deadlock: u64,
    pub aborts_wait_timeout: u64,
    pub aborts_cascading: u64,
    pub wal_records: u64,
    pub wal_fsyncs: u64,
}

/// Redo-log position at the start of a window.
pub struct WindowMark {
    lsn: u64,
    fsyncs: u64,
}

impl Engine {
    /// `Database::new` + load + pin + hook registration + the baseline
    /// checkpoint a restart recovers from: what `setup_s` times.
    pub fn set_up(workload: Workload, protocol: Protocol) -> Engine {
        let latency = match workload.durability() {
            Durability::InMemory => LatencyModel::in_memory(),
            Durability::LocalSsd => LatencyModel::local_ssd(),
            Durability::SemiSync => LatencyModel::semi_sync_replication(),
        };
        let db = Database::new(EngineConfig::for_protocol(protocol).with_latency(latency));
        for table in workload.tables() {
            db.create_table(TableSchema::new(table.id, table.name, table.columns))
                .expect("fresh database has no tables");
            let mut columns = vec![table.initial; table.columns];
            for pk in 0..table.rows {
                columns[0] = pk;
                db.load_row(table.id, Row::from_ints(&columns))
                    .expect("bulk load of distinct keys");
            }
        }
        if protocol.uses_hotspots() {
            for (table, pk) in workload.hot_rows() {
                let record = db.record_id(*table, *pk).expect("hot row was loaded");
                db.hotspots().pin(record);
            }
        }
        let repl_metrics = Arc::new(EngineMetrics::new());
        let hook = (workload.durability() == Durability::SemiSync).then(|| {
            let hook = ReplicationHook::builder(ReplicationMode::Synchronous, latency, 2)
                .metrics(Arc::clone(&repl_metrics))
                .build();
            db.register_commit_hook(hook.clone());
            hook
        });
        db.checkpoint()
            .expect("baseline checkpoint on a healthy engine");
        Engine {
            db,
            workload,
            hook,
            repl_metrics,
        }
    }

    /// The untraced path: exactly what a client of the engine calls.
    pub fn execute(&self, program: &TxnProgram) -> Result<ProgramOutcome, Error> {
        self.db.execute_program(program)
    }

    /// `Database::execute_program` replayed statement by statement through
    /// the public session API, with a span around every call into the engine.
    /// Kept in step with `execute_program`; `traced_and_untraced_paths_agree`
    /// fails if the two diverge in outcome.
    pub fn execute_traced(
        &self,
        program: &TxnProgram,
        rec: &mut Recorder,
    ) -> Result<ProgramOutcome, Error> {
        let db = &self.db;
        let permit = rec.span(SpanName::Admission, || {
            if !db.config().admission.enabled {
                return Ok(AdmissionPermit::default());
            }
            let hot: Vec<RecordId> = program
                .write_keys()
                .into_iter()
                .filter_map(|(table, pk)| db.record_id(table, pk).ok())
                .filter(|record| db.hotspots().is_hot(*record))
                .collect();
            db.admission().admit(&hot)
        })?;
        let result = self.run_admitted(program, rec);
        rec.span(SpanName::Admission, || db.admission().release(permit));
        result
    }

    fn run_admitted(
        &self,
        program: &TxnProgram,
        rec: &mut Recorder,
    ) -> Result<ProgramOutcome, Error> {
        let db = &self.db;
        let mut txn = rec.span(SpanName::Begin, || db.begin());
        let mut reads = Vec::new();
        for op in &program.operations {
            let step = match op {
                Operation::Read { table, pk } => rec
                    .span(SpanName::StmtRead, || db.read(&mut txn, *table, *pk))
                    .map(|row| reads.push(row.get_int(1).unwrap_or_default())),
                Operation::UpdateAdd {
                    table,
                    pk,
                    column,
                    delta,
                } => {
                    let name = if self.workload.hot_rows().contains(&(*table, *pk)) {
                        SpanName::StmtUpdateHot
                    } else {
                        SpanName::StmtUpdateCold
                    };
                    rec.span(name, || {
                        db.update_add(&mut txn, *table, *pk, *column, *delta)
                    })
                    .map(|_| ())
                }
                Operation::Insert { table, pk, fill } => rec.span(SpanName::StmtInsert, || {
                    let columns = db.storage().table(*table)?.schema().n_columns;
                    let mut row = vec![*fill; columns];
                    row[0] = *pk;
                    db.insert(&mut txn, *table, Row::from_ints(&row))
                }),
                Operation::ForcedRollback => {
                    let err = Error::ExplicitRollback { txn: txn.id };
                    rec.span(SpanName::Rollback, || db.rollback(txn, Some(&err)));
                    return Ok(ProgramOutcome {
                        reads,
                        committed: false,
                    });
                }
                other => unreachable!("the generators never emit {other:?}"),
            };
            if let Err(err) = step {
                rec.span(SpanName::Rollback, || db.rollback(txn, Some(&err)));
                return Err(err);
            }
        }
        rec.span(SpanName::Commit, || db.commit(txn))?;
        Ok(ProgramOutcome {
            reads,
            committed: true,
        })
    }

    /// Starts a measurement window: resets the engine's counters (the use
    /// `Database::reset_metrics` documents) and marks the redo log.
    pub fn begin_window(&self) -> WindowMark {
        self.db.reset_metrics();
        let redo = self.db.storage().redo();
        WindowMark {
            lsn: redo.latest_lsn().0,
            fsyncs: redo.fsync_count(),
        }
    }

    /// The engine's counts since `mark`.
    pub fn end_window(&self, mark: &WindowMark, elapsed: Duration) -> Counters {
        let snapshot = self.db.snapshot_metrics(elapsed);
        let metrics = self.db.metrics();
        let redo = self.db.storage().redo();
        Counters {
            lock_waits: snapshot.lock_waits,
            lock_wait_mean_us: snapshot.mean_lock_wait_ms * 1_000.0,
            locks_created: snapshot.locks_created,
            deadlock_checks: snapshot.deadlock_checks,
            hot_entries: snapshot.hotspot_group_entries,
            groups_formed: snapshot.groups_formed,
            commit_batches: snapshot.commit_batches,
            commit_synced: metrics.commit_synced.get(),
            blocked_ns: metrics.blocked_nanos.get(),
            busy_ns: metrics.busy_nanos.get(),
            aborts_deadlock: snapshot.abort_breakdown.deadlocks,
            aborts_wait_timeout: snapshot.abort_breakdown.wait_timeouts,
            aborts_cascading: snapshot.abort_breakdown.cascading,
            wal_records: redo.latest_lsn().0 - mark.lsn,
            wal_fsyncs: redo.fsync_count() - mark.fsyncs,
        }
    }

    /// Commits the semi-sync hook shipped without waiting for a replica, over
    /// the whole life of this engine.  Non-zero means the run did not measure
    /// semi-synchronous commits.
    pub fn degraded_commits(&self) -> u64 {
        self.repl_metrics.degraded_commits.get()
    }

    /// Checks the database against what the clients were told: every
    /// pre-loaded row holds its initial value plus the acknowledged deltas,
    /// every acknowledged insert is there with its values, nothing else is,
    /// and (semi-sync) both replicas hold the hot rows' committed values.
    pub fn verify(&self, expected: &Expected) -> Result<(), String> {
        verify_database(&self.db, expected)?;
        if let Some(hook) = &self.hook {
            if self.degraded_commits() > 0 {
                return Err(format!(
                    "{} commits were shipped degraded (not semi-synchronous)",
                    self.degraded_commits()
                ));
            }
            if !hook.wait_caught_up(hook.binlog_len(), REPLICA_CATCH_UP) {
                return Err("replicas did not catch up with the binlog".into());
            }
            for (table, pk) in self.workload.hot_rows() {
                let want = committed_value(&self.db, *table, *pk)?;
                for replica in hook.replicas() {
                    let got = replica.row(*table, *pk).and_then(|row| row.get_int(1));
                    // A row nobody updated was never shipped.
                    if got.is_some_and(|got| got != want) {
                        return Err(format!(
                            "{}: {table} pk {pk} is {got:?}, primary has {want}",
                            replica.name()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Acked ⊆ durable: restarts the engine from its crash image (baseline
    /// checkpoint + durable redo) and runs the same check on the recovered
    /// database.  Returns the restart time and the records replayed.
    pub fn restart_and_verify(&self, expected: &Expected) -> Result<(Duration, usize), String> {
        let start = Instant::now();
        let (recovered, report) = self
            .db
            .restart_from_crash()
            .map_err(|err| format!("restart_from_crash: {err}"))?;
        let elapsed = start.elapsed();
        let verdict = verify_database(&recovered, expected);
        recovered.shutdown();
        verdict
            .map(|()| (elapsed, report.replayed))
            .map_err(|err| format!("after restart: {err}"))
    }

    /// Stops the engine's background threads and waits for them.
    pub fn shut_down(self) {
        if let Some(hook) = &self.hook {
            hook.shutdown();
        }
        self.db.shutdown();
    }
}

fn committed_value(db: &Database, table: TableId, pk: i64) -> Result<i64, String> {
    let record = db
        .record_id(table, pk)
        .map_err(|err| format!("{table} pk {pk}: {err}"))?;
    db.storage()
        .read_committed(table, record)
        .map_err(|err| format!("{table} pk {pk}: {err}"))?
        .and_then(|row| row.get_int(1))
        .ok_or_else(|| format!("{table} pk {pk} has no committed value"))
}

fn verify_database(db: &Database, expected: &Expected) -> Result<(), String> {
    for (spec, deltas) in &expected.deltas {
        for (pk, delta) in deltas.iter().enumerate() {
            let got = committed_value(db, spec.id, pk as i64)?;
            let want = spec.initial + delta;
            if got != want {
                return Err(format!(
                    "{} pk {pk}: committed value {got}, acknowledged commits give {want}",
                    spec.name
                ));
            }
        }
    }
    let mut inserted_per_table = std::collections::BTreeMap::new();
    for (table, pk, fill) in &expected.inserted {
        let got = committed_value(db, *table, *pk)?;
        if got != *fill {
            return Err(format!("{table} pk {pk}: inserted {fill}, found {got}"));
        }
        *inserted_per_table.entry(*table).or_insert(0usize) += 1;
    }
    for (table, pk) in &expected.absent {
        if db.record_id(*table, *pk).is_ok() {
            return Err(format!("{table} pk {pk}: rolled-back insert left a row"));
        }
    }
    for (spec, _) in &expected.deltas {
        inserted_per_table.entry(spec.id).or_insert(0);
    }
    for (table, inserted) in inserted_per_table {
        let loaded = expected
            .deltas
            .iter()
            .find(|(spec, _)| spec.id == table)
            .map_or(0, |(spec, _)| spec.rows as usize);
        let rows = db
            .storage()
            .table(table)
            .map_err(|err| err.to_string())?
            .row_count();
        if rows != loaded + inserted {
            return Err(format!(
                "{table}: {rows} rows, expected {loaded} loaded + {inserted} inserted"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Commit, Generator};

    fn run(workload: Workload, traced: bool, programs: usize) -> (Engine, Expected) {
        let engine = Engine::set_up(workload, Protocol::GroupLockingTxsql);
        let mut expected = Expected::new(workload);
        let mut generator = Generator::new(workload, 42, 0, 1);
        let mut rec = Recorder::new(Instant::now(), 1 << 12);
        for _ in 0..programs {
            let program = generator.next_program();
            let result = if traced {
                let txn = rec.open(SpanName::Txn);
                let result = engine.execute_traced(&program, &mut rec);
                rec.close(txn);
                result
            } else {
                engine.execute(&program)
            };
            let outcome = match result {
                Ok(outcome) if outcome.committed => Commit::Committed,
                Ok(_) => Commit::RolledBack,
                Err(err) => panic!("single client cannot conflict: {err}"),
            };
            expected.record(&program, outcome);
        }
        (engine, expected)
    }

    #[test]
    fn traced_and_untraced_paths_agree() {
        for workload in [Workload::FitSsd, Workload::UniformMixedMem] {
            let (plain, expected_plain) = run(workload, false, 400);
            let (traced, expected_traced) = run(workload, true, 400);
            // Same stream, same outcomes: each database passes the *other*
            // run's expectations.
            plain.verify(&expected_traced).unwrap();
            traced.verify(&expected_plain).unwrap();
            assert!(expected_plain.committed_writers > 0);
            plain.shut_down();
            traced.shut_down();
        }
    }

    #[test]
    fn a_corrupted_expected_total_fails_the_check() {
        let (engine, mut expected) = run(Workload::HotUpdateMem, false, 50);
        engine.verify(&expected).unwrap();
        expected.deltas[0].1[0] += 1;
        let err = engine.verify(&expected).unwrap_err();
        assert!(err.contains("acknowledged commits give"), "{err}");
        engine.shut_down();
    }

    #[test]
    fn a_lost_or_phantom_journal_row_fails_the_check() {
        let (engine, expected) = run(Workload::FitSsd, false, 300);
        assert!(
            !expected.absent.is_empty(),
            "300 programs include a rollback"
        );
        let mut lost = expected.clone();
        lost.inserted.pop();
        assert!(engine.verify(&lost).unwrap_err().contains("rows, expected"));
        let mut phantom = expected.clone();
        let (table, pk, _) = expected.inserted[0];
        phantom.absent.push((table, pk));
        assert!(engine.verify(&phantom).unwrap_err().contains("left a row"));
        engine.shut_down();
    }

    #[test]
    fn acknowledged_commits_survive_a_restart() {
        let (engine, mut expected) = run(Workload::FitSsd, false, 200);
        let (_, replayed) = engine.restart_and_verify(&expected).unwrap();
        assert!(
            replayed >= 400,
            "hot update + journal row per program: {replayed}"
        );
        expected.deltas[0].1[0] -= 1;
        assert!(engine.restart_and_verify(&expected).is_err());
        engine.shut_down();
    }

    #[test]
    fn semi_sync_set_up_ships_to_both_replicas() {
        let (engine, expected) = run(Workload::HotUpdateSync, false, 20);
        engine.verify(&expected).unwrap();
        assert_eq!(engine.degraded_commits(), 0);
        let hook = engine.hook.as_ref().unwrap();
        assert!(hook.replicas().iter().all(|r| r.applied_txns() == 20));
        engine.shut_down();
    }
}
