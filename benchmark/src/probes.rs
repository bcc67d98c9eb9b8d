//! Layer probes: workload-independent micro-loops on each layer's public
//! functions, so an end-to-end delta can be pinned to a layer.
//!
//! Each probe drives one layer the way `txsql_core::Database` drives it (the
//! `*_in` entry points with a per-transaction scratch, default configs) and
//! reports one number.  They have no bound: they explain, they do not gate.

use crate::engine::{
    recover, AdmissionConfig, AdmissionController, BinlogTxn, CommitHook, CommitPipeline,
    EngineMetrics, GroupLockConfig, GroupLockTable, HotExecution, HotspotConfig, HotspotRegistry,
    LatencyModel, LightweightConfig, LightweightLockTable, LockMode, LockSys, LockSysConfig,
    MetricsScratch, ReadViewMode, RecordId, RedoLog, RedoRecord, ReplicationHook, ReplicationMode,
    Row, Storage, TableId, TableSchema, TrxSys, TxnId,
};
use crate::stats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(metric name, unit, value)` for every probe, each run for about `window`.
pub fn run_all(window: Duration) -> Vec<(&'static str, &'static str, f64)> {
    let lock_sys = || LockSys::new(probe_lock_sys_config(), metrics());
    let lightweight = || LightweightLockTable::new(probe_lightweight_config(), metrics());
    vec![
        (
            "probe.lockmgr.lock_sys.cycle_ns",
            "ns",
            lock_cycle(&lock_sys(), window),
        ),
        (
            "probe.lockmgr.lightweight.cycle_ns",
            "ns",
            lock_cycle(&lightweight(), window),
        ),
        (
            "probe.lockmgr.lock_sys.handoff_us",
            "us",
            lock_handoff(&lock_sys(), window),
        ),
        (
            "probe.lockmgr.lightweight.handoff_us",
            "us",
            lock_handoff(&lightweight(), window),
        ),
        (
            "probe.lockmgr.group_lock.cycle_ns",
            "ns",
            group_lock_cycle(window),
        ),
        (
            "probe.lockmgr.hotspot.is_hot_ns",
            "ns",
            hotspot_is_hot(window),
        ),
        ("probe.txn.begin_finish_ns", "ns", txn_begin_finish(window)),
        (
            "probe.txn.readview_copyfree_ns",
            "ns",
            read_view(ReadViewMode::CopyFree, window),
        ),
        (
            "probe.txn.readview_copying_ns",
            "ns",
            read_view(ReadViewMode::Copying, window),
        ),
        (
            "probe.storage.apply_update_ns",
            "ns",
            storage_apply_update(window),
        ),
        (
            "probe.storage.read_visible_ns",
            "ns",
            storage_read_visible(1, window),
        ),
        (
            "probe.storage.read_visible_deep_ns",
            "ns",
            storage_read_visible(64, window),
        ),
        ("probe.storage.wal.append_ns", "ns", wal_append(window)),
        (
            "probe.storage.wal.flush_overshoot_us",
            "us",
            wal_flush_overshoot(window),
        ),
        (
            "probe.storage.checkpoint_ms",
            "ms",
            storage_checkpoint(window),
        ),
        (
            "probe.storage.recovery.replay_ns_per_record",
            "ns",
            recovery_replay(window),
        ),
        (
            "probe.core.commit.pipeline_us",
            "us",
            commit_pipeline(window),
        ),
        (
            "probe.core.admission.admit_release_ns",
            "ns",
            admission_cycle(window),
        ),
        (
            "probe.replication.sync_commit_overshoot_us",
            "us",
            sync_commit_overshoot(window),
        ),
    ]
}

fn metrics() -> Arc<EngineMetrics> {
    Arc::new(EngineMetrics::new())
}

/// The engine's lock-table defaults, except a wait timeout no stall of this
/// box reaches: a timed-out hand-off would end the ping-pong.
fn probe_lock_sys_config() -> LockSysConfig {
    LockSysConfig {
        lock_wait_timeout: Duration::from_secs(5),
        ..LockSysConfig::default()
    }
}

fn probe_lightweight_config() -> LightweightConfig {
    LightweightConfig {
        lock_wait_timeout: Duration::from_secs(5),
        ..LightweightConfig::default()
    }
}

/// Mean nanoseconds per call of `op`, run in batches until `window` passes.
fn ns_per_op(window: Duration, batch: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..batch {
        op();
    }
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < window {
        for _ in 0..batch {
            op();
        }
        ops += batch as u64;
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// The two record lock tables behind one face, as `Database` uses them.
trait RecordLocks: Sync {
    fn lock(&self, txn: TxnId, record: RecordId, scratch: &MetricsScratch);
    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch);
    fn waiters(&self, record: RecordId) -> usize;
}

impl RecordLocks for LockSys {
    fn lock(&self, txn: TxnId, record: RecordId, scratch: &MetricsScratch) {
        self.lock_record_in(txn, record, LockMode::Exclusive, scratch)
            .expect("probe locks never time out");
    }
    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch) {
        self.release_all_in(txn, scratch);
    }
    fn waiters(&self, record: RecordId) -> usize {
        self.wait_queue_len(record)
    }
}

impl RecordLocks for LightweightLockTable {
    fn lock(&self, txn: TxnId, record: RecordId, scratch: &MetricsScratch) {
        self.lock_record_in(txn, record, LockMode::Exclusive, scratch)
            .expect("probe locks never time out");
    }
    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch) {
        self.release_all_in(txn, scratch);
    }
    fn waiters(&self, record: RecordId) -> usize {
        self.wait_queue_len(record)
    }
}

/// X-lock + `release_all` on rotating cold records, one thread.
fn lock_cycle(table: &dyn RecordLocks, window: Duration) -> f64 {
    let scratch = MetricsScratch::new();
    let mut next = 0u64;
    ns_per_op(window, 256, || {
        next += 1;
        let record = RecordId::new(1, (next % 64) as u32, (next % 1_024) as u16);
        table.lock(TxnId(next), record, &scratch);
        table.release_all(TxnId(next), &scratch);
    })
}

/// How long a holder keeps the lock after its successor queued, so that the
/// successor is asleep when the lock is released (the hot-row statements of
/// the workloads hold theirs for 20–80 µs).
const PARK_GRACE: Duration = Duration::from_micros(100);

/// Two threads alternating on one record; a sample runs from just before the
/// holder's `release_all` to the parked waiter's `lock` returning.  Median,
/// in µs.
fn lock_handoff(table: &dyn RecordLocks, window: Duration) -> f64 {
    let record = RecordId::new(7, 0, 0);
    let origin = Instant::now();
    let released_at = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut samples: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|side| {
                let (released_at, stop) = (&released_at, &stop);
                scope.spawn(move || {
                    let scratch = MetricsScratch::new();
                    let mut samples = Vec::new();
                    let mut txn = (side + 1) << 32;
                    while !stop.load(Ordering::Relaxed) {
                        txn += 1;
                        table.lock(TxnId(txn), record, &scratch);
                        let now = origin.elapsed().as_nanos() as u64;
                        let released = released_at.swap(0, Ordering::AcqRel);
                        if released != 0 {
                            samples.push(now.saturating_sub(released) as f64 / 1e3);
                        }
                        // Hold until the other side is queued behind us (or
                        // the probe ends) and has had time to park, then
                        // hand over: the wake-up of a sleeping waiter is the
                        // cost a hot row's successor pays.
                        while table.waiters(record) == 0 && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        let queued = Instant::now();
                        while queued.elapsed() < PARK_GRACE {
                            std::hint::spin_loop();
                        }
                        released_at.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
                        table.release_all(TxnId(txn), &scratch);
                    }
                    samples
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("hand-off thread panicked"))
            .collect()
    });
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    stats::median(&samples)
}

/// One leader's whole hot-row life cycle on one pinned record, as
/// `Database::update_row` + `Database::commit` sequence the calls.
fn group_lock_cycle(window: Duration) -> f64 {
    let shared = metrics();
    let group = GroupLockTable::new(GroupLockConfig::default(), Arc::clone(&shared));
    let table = LightweightLockTable::new(probe_lightweight_config(), shared);
    let scratch = MetricsScratch::new();
    let record = RecordId::new(31, 0, 0);
    let records = [record];
    let mut next = 0u64;
    ns_per_op(window, 64, || {
        next += 1;
        let txn = TxnId(next);
        assert!(matches!(
            group.begin_hot_update(txn, record),
            HotExecution::Leader
        ));
        table
            .lock_record_in(txn, record, LockMode::Exclusive, &scratch)
            .expect("single leader owns the row");
        group.register_update(txn, record);
        group.finish_update(txn, record, true);
        let prepared = group.begin_leader_commit(txn, &records);
        table.release_record_locks_in(txn, &records, &scratch);
        group.finish_leader_handover(txn, prepared);
        group.wait_commit_turn(txn, record).expect("no predecessor");
        group.finish_commit(txn, record);
    })
}

fn hotspot_is_hot(window: Duration) -> f64 {
    let registry = HotspotRegistry::new(HotspotConfig::default());
    registry.pin(RecordId::new(1, 0, 0));
    let mut next = 0u16;
    ns_per_op(window, 1_024, || {
        // Alternates the pinned record with cold ones.
        next = next.wrapping_add(1);
        black_box(registry.is_hot(RecordId::new(1, 0, next % 2 * next)));
    })
}

fn txn_begin_finish(window: Duration) -> f64 {
    let trx_sys = TrxSys::new(ReadViewMode::CopyFree);
    ns_per_op(window, 256, || {
        let txn = trx_sys.begin();
        let trx_no = trx_sys.allocate_trx_no();
        trx_sys.finish(txn.id, Some(trx_no));
    })
}

/// Read-view creation with 64 transactions active: where copy-free views
/// (§3.1.2) differ from copying ones, which two clients never show.
fn read_view(mode: ReadViewMode, window: Duration) -> f64 {
    let trx_sys = TrxSys::new(mode);
    let active: Vec<_> = (0..64).map(|_| trx_sys.begin()).collect();
    let owner = active[0].id;
    ns_per_op(window, 256, || {
        black_box(trx_sys.read_view_in_mode(owner, mode));
    })
}

const PROBE_TABLE: TableId = TableId(1);

fn loaded_storage(rows: i64) -> (Storage, Vec<RecordId>) {
    let storage = Storage::new(Duration::ZERO);
    storage
        .create_table(TableSchema::new(PROBE_TABLE, "probe", 2))
        .expect("fresh storage");
    let records = (0..rows)
        .map(|pk| {
            storage
                .load_row(PROBE_TABLE, Row::from_ints(&[pk, 0]))
                .expect("distinct keys")
        })
        .collect();
    (storage, records)
}

/// `apply_update` alone: begin, commit and the purge that keeps every chain
/// one version deep run outside the timed section.
fn storage_apply_update(window: Duration) -> f64 {
    const PER_TXN: usize = 16;
    let (storage, records) = loaded_storage(4_096);
    let (mut next, mut timed, mut ops) = (0u64, Duration::ZERO, 0u64);
    let start = Instant::now();
    while start.elapsed() < window {
        next += 1;
        let txn = TxnId(next);
        storage.begin_txn(txn);
        let first = (next as usize * PER_TXN) % records.len();
        let touched = &records[first..first + PER_TXN];
        let rows: Vec<Row> = (0..PER_TXN)
            .map(|i| Row::from_ints(&[(first + i) as i64, next as i64]))
            .collect();
        let section = Instant::now();
        for (record, row) in touched.iter().zip(rows) {
            storage
                .apply_update(txn, PROBE_TABLE, *record, row)
                .expect("loaded record");
        }
        timed += section.elapsed();
        ops += PER_TXN as u64;
        let writes: Vec<_> = touched.iter().map(|r| (PROBE_TABLE, *r)).collect();
        storage
            .commit_writes(txn, next, &writes)
            .expect("no faults");
        for record in touched {
            storage
                .purge_record(PROBE_TABLE, *record)
                .expect("loaded record");
        }
    }
    timed.as_nanos() as f64 / ops as f64
}

/// A committed read that has to walk `depth - 1` uncommitted versions first.
fn storage_read_visible(depth: usize, window: Duration) -> f64 {
    let (storage, records) = loaded_storage(1_024);
    let writer = TxnId(1);
    storage.begin_txn(writer);
    for record in &records {
        for version in 1..depth {
            storage
                .apply_update(
                    writer,
                    PROBE_TABLE,
                    *record,
                    Row::from_ints(&[0, version as i64]),
                )
                .expect("loaded record");
        }
    }
    let mut next = 0usize;
    ns_per_op(window, 256, || {
        next += 1;
        black_box(
            storage
                .read_committed(PROBE_TABLE, records[next % records.len()])
                .expect("loaded record"),
        );
    })
}

fn wal_append(window: Duration) -> f64 {
    let redo = RedoLog::new(Duration::ZERO);
    let (mut next, mut timed, mut ops) = (0u64, Duration::ZERO, 0u64);
    let start = Instant::now();
    while start.elapsed() < window {
        let section = Instant::now();
        for _ in 0..4_096 {
            next += 1;
            redo.append(RedoRecord::Commit {
                txn: TxnId(next),
                trx_no: next,
            });
        }
        timed += section.elapsed();
        ops += 4_096;
        // Keep the in-memory log from growing across batches.
        redo.flush_all().expect("no faults");
        redo.truncate_to(redo.latest_lsn());
    }
    timed.as_nanos() as f64 / ops as f64
}

/// How far a flush with a nominal 100 µs device latency overshoots it.
fn wal_flush_overshoot(window: Duration) -> f64 {
    let nominal = LatencyModel::local_ssd().fsync;
    let redo = RedoLog::new(nominal);
    let mut next = 0u64;
    let per_flush = ns_per_op(window, 8, || {
        next += 1;
        let lsn = redo.append(RedoRecord::Commit {
            txn: TxnId(next),
            trx_no: next,
        });
        redo.flush_to(lsn).expect("no faults");
    });
    (per_flush - nominal.as_nanos() as f64) / 1e3
}

/// A checkpoint image of one 100k-row table (median of the runs that fit).
fn storage_checkpoint(window: Duration) -> f64 {
    let (storage, _) = loaded_storage(100_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < window {
        let section = Instant::now();
        black_box(storage.checkpoint());
        samples.push(section.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&samples)
}

/// Redo replay cost per record: recovery of a log of single-row transactions
/// spread over 4 096 rows, minus recovery of the same checkpoint with an empty
/// log.  (Replay onto one *hot* row is quadratic in its chain length; the
/// `fit_ssd` restart check shows that, this probe deliberately does not.)
fn recovery_replay(window: Duration) -> f64 {
    const TXNS: u64 = 8_192;
    let (storage, records) = loaded_storage(4_096);
    let image = storage.checkpoint();
    for next in 1..=TXNS {
        let txn = TxnId(next);
        let slot = next as usize % records.len();
        storage.begin_txn(txn);
        storage
            .apply_update(
                txn,
                PROBE_TABLE,
                records[slot],
                Row::from_ints(&[slot as i64, next as i64]),
            )
            .expect("loaded record");
        storage
            .commit_writes(txn, next, &[(PROBE_TABLE, records[slot])])
            .expect("no faults");
    }
    storage.redo().flush_all().expect("no faults");
    let log = storage.redo().durable_records();
    let timed = |log: &[RedoRecord]| {
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.is_empty() || start.elapsed() < window / 2 {
            let section = Instant::now();
            let outcome = recover(&image, log, Duration::ZERO).expect("intact log");
            samples.push(section.elapsed().as_nanos() as f64);
            assert_eq!(
                outcome.report.replayed,
                if log.is_empty() { 0 } else { TXNS as usize }
            );
        }
        stats::median(&samples)
    };
    (timed(&log) - timed(&[])).max(0.0) / TXNS as f64
}

fn probe_binlog(next: u64) -> BinlogTxn {
    BinlogTxn {
        txn: TxnId(next),
        trx_no: next,
        changes: vec![(PROBE_TABLE, 0, Row::from_ints(&[0, next as i64]))],
        involves_hotspot: true,
    }
}

/// One caller through the group-commit pipeline with zero device latency and
/// no hooks: the pipeline's own cost.
fn commit_pipeline(window: Duration) -> f64 {
    let pipeline = CommitPipeline::new(true, metrics());
    let redo = RedoLog::new(Duration::ZERO);
    let mut next = 0u64;
    let per_commit = ns_per_op(window, 64, || {
        next += 1;
        let lsn = redo.append(RedoRecord::Commit {
            txn: TxnId(next),
            trx_no: next,
        });
        pipeline
            .commit(&redo, lsn, probe_binlog(next), &[])
            .expect("no faults");
        if next.is_multiple_of(4_096) {
            redo.truncate_to(redo.latest_lsn());
        }
    });
    per_commit / 1e3
}

/// Admission is off by default; this is the cost a transaction on a hot key
/// would pay if a later PR turned it on.
fn admission_cycle(window: Duration) -> f64 {
    let controller =
        AdmissionController::new(AdmissionConfig::default().with_enabled(true), metrics());
    let hot = [RecordId::new(1, 0, 0)];
    ns_per_op(window, 256, || {
        let permit = controller.admit(&hot).expect("idle queue admits");
        controller.release(permit);
    })
}

/// How far one semi-synchronous batch overshoots the nominal round trip.
fn sync_commit_overshoot(window: Duration) -> f64 {
    let latency = LatencyModel::semi_sync_replication();
    let hook = ReplicationHook::new(ReplicationMode::Synchronous, latency, 2);
    let mut next = 0u64;
    let per_batch = ns_per_op(window, 4, || {
        next += 1;
        hook.on_commit_batch(&[probe_binlog(next)])
            .expect("no faults");
    });
    hook.shutdown();
    (per_batch - latency.network_round_trip().as_nanos() as f64) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_finite_number_under_its_name() {
        let probes = run_all(Duration::from_millis(20));
        assert_eq!(probes.len(), 19);
        for (name, unit, value) in &probes {
            assert!(name.starts_with("probe."), "{name}");
            assert!(["ns", "us", "ms"].contains(unit), "{name}: {unit}");
            assert!(value.is_finite(), "{name} = {value}");
        }
        let value = |name| probes.iter().find(|p| p.0 == name).unwrap().2;
        assert!(value("probe.lockmgr.lock_sys.cycle_ns") > 0.0);
        assert!(value("probe.lockmgr.lightweight.handoff_us") > 0.0);
        assert!(
            value("probe.storage.read_visible_deep_ns") > value("probe.storage.read_visible_ns")
        );
        assert!(value("probe.replication.sync_commit_overshoot_us") > -50.0);
    }
}
