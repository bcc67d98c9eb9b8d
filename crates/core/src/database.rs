//! The engine facade: tables, sessions, commit and rollback.
//!
//! A [`Database`] owns one storage engine, one transaction system, the
//! record-lock table of its protocol's layout, the hotspot tables and the
//! commit pipeline; which of those a transaction's write path actually
//! exercises is decided by the configured [`crate::Protocol`] (see
//! [`crate::write_path`]).  Commit and rollback live
//! here because they are where the paper's ordering guarantees (§4.3 commit
//! order, §4.4 rollback order, §4.5 deadlock prevention fallout) come
//! together.

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::aria::AriaCoordinator;
use crate::checker::HistoryRecorder;
use crate::commit::CommitPipeline;
use crate::config::{EngineConfig, Protocol};
use crate::hooks::{BinlogTxn, CommitHook};
use crate::program::{Operation, ProgramOutcome, TxnProgram};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::fxhash::FxHashMap;
use txsql_common::metrics::{EngineMetrics, MetricsScratch, MetricsSnapshot};
use txsql_common::time::SimInstant;
use txsql_common::{Error, Lsn, RecordId, Result, Row, TableId, TxnId};
use txsql_lockmgr::event::WaitOutcome;
use txsql_lockmgr::group_lock::GroupLockTable;
use txsql_lockmgr::hotspot::HotspotRegistry;
use txsql_lockmgr::queue_lock::QueueLockTable;
use txsql_lockmgr::registry::TxnLockRegistry;
use txsql_lockmgr::{LightweightLockTable, LockMode, LockSys, LockTableConfig, OsEvent};
use txsql_storage::fault::{CrashPoint, FaultInjector};
use txsql_storage::recovery::{self, RecoveryReport};
use txsql_storage::storage::CheckpointImage;
use txsql_storage::{RedoRecord, Storage, TableSchema};
use txsql_txn::{Transaction, TrxSys, TxnState};

/// The engine's record-lock table in the layout its protocol measures: the
/// page-hash `lock_sys` for the MySQL baseline, the record-keyed lightweight
/// table for everything else.  A transaction only ever locks here, so
/// release and the registry checks visit one table.
pub(crate) enum RecordLocks {
    LockSys(LockSys),
    Lightweight(LightweightLockTable),
}

impl RecordLocks {
    /// X-locks `record`, counting into the transaction's metrics scratch.
    pub(crate) fn lock_exclusive(
        &self,
        txn: TxnId,
        record: RecordId,
        sink: &MetricsScratch,
    ) -> Result<()> {
        match self {
            Self::LockSys(t) => t.lock_record_in(txn, record, LockMode::Exclusive, sink),
            Self::Lightweight(t) => t.lock_record_in(txn, record, LockMode::Exclusive, sink),
        }
    }

    /// Releases a batch of record locks before commit (Bamboo's early
    /// release, the group leader's hot-row handover).
    pub(crate) fn release_records(&self, txn: TxnId, records: &[RecordId], sink: &MetricsScratch) {
        match self {
            Self::LockSys(t) => t.release_record_locks_in(txn, records, sink),
            Self::Lightweight(t) => t.release_record_locks_in(txn, records, sink),
        }
    }

    fn release_all(&self, txn: TxnId, sink: &MetricsScratch) {
        match self {
            Self::LockSys(t) => t.release_all_in(txn, sink),
            Self::Lightweight(t) => t.release_all_in(txn, sink),
        }
    }

    pub(crate) fn wait_queue_len(&self, record: RecordId) -> usize {
        match self {
            Self::LockSys(t) => t.wait_queue_len(record),
            Self::Lightweight(t) => t.wait_queue_len(record),
        }
    }

    pub(crate) fn holders_of(&self, record: RecordId) -> Vec<TxnId> {
        match self {
            Self::LockSys(t) => t.holders_of(record),
            Self::Lightweight(t) => t.holders_of(record),
        }
    }

    fn registry(&self) -> &Arc<TxnLockRegistry> {
        match self {
            Self::LockSys(t) => t.registry(),
            Self::Lightweight(t) => t.registry(),
        }
    }
}

/// Completion payload: the writer committed.
const COMMITTED: u32 = 1;
/// Completion payload: the writer rolled back; its dependents cascade.
const ABORTED: u32 = 2;

pub(crate) struct DbInner {
    pub(crate) config: EngineConfig,
    pub(crate) storage: Storage,
    pub(crate) trx_sys: TrxSys,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) admission: AdmissionController,
    pub(crate) locks: RecordLocks,
    pub(crate) hotspots: HotspotRegistry,
    pub(crate) queue_locks: QueueLockTable,
    pub(crate) group_locks: GroupLockTable,
    pub(crate) pipeline: CommitPipeline,
    /// The completion event of every *active* transaction under
    /// [`Protocol::Bamboo`] (empty otherwise): a dependent clones its
    /// writer's event when it reads the writer's dirty version, and the
    /// writer posts [`COMMITTED`] or [`ABORTED`] to it — and leaves this map
    /// — once its outcome is final.  A dependent's wait is then one park on
    /// the event it holds; the event dies with its last dependent.
    pub(crate) completions: Mutex<FxHashMap<TxnId, Arc<OsEvent>>>,
    /// The registered hooks behind one `Arc`, so a commit borrows the list
    /// with one reference-count step instead of copying it.
    pub(crate) hooks: RwLock<Arc<[Arc<dyn CommitHook>]>>,
    pub(crate) history: Option<HistoryRecorder>,
    pub(crate) aria: AriaCoordinator,
    /// The newest checkpoint image — what `restart_from_crash` recovers from.
    /// Starts empty (LSN 0, no tables): engines that never checkpoint after
    /// schema setup recover nothing but the log, so take a baseline
    /// checkpoint once tables are loaded.
    pub(crate) last_checkpoint: Mutex<CheckpointImage>,
    /// Set by shutdown; the sweeper waits on it with its interval as timeout.
    sweeper_stop: Arc<OsEvent>,
    sweeper_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The TXSQL-reproduction database engine.  Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("protocol", &self.inner.config.protocol)
            .field("tables", &self.inner.storage.tables().len())
            .finish()
    }
}

impl Database {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let metrics = Arc::new(EngineMetrics::new());
        let faults = match &config.fault_plan {
            Some(plan) => FaultInjector::with_metrics(plan.clone(), Arc::clone(&metrics)),
            None => FaultInjector::disabled(),
        };
        let storage = Storage::with_faults(config.latency.fsync, faults);
        Self::assemble(config, storage, metrics, None)
    }

    /// Wires an engine around an existing storage (fresh start or the
    /// recovered engine after a crash).  `trx_seed` re-seeds the transaction
    /// system's id and commit-sequence counters past everything the
    /// recovered log used.
    fn assemble(
        config: EngineConfig,
        storage: Storage,
        metrics: Arc<EngineMetrics>,
        trx_seed: Option<(u64, u64)>,
    ) -> Self {
        let lock_config = LockTableConfig {
            lock_wait_timeout: config.lock_wait_timeout,
            ..LockTableConfig::default()
        };
        let locks = if config.protocol.uses_lock_sys() {
            RecordLocks::LockSys(LockSys::new(lock_config, Arc::clone(&metrics)))
        } else {
            RecordLocks::Lightweight(LightweightLockTable::new(lock_config, Arc::clone(&metrics)))
        };
        let mut trx_sys = TrxSys::new(config.read_view_mode)
            // Transaction teardown verifies the lock bookkeeping drained.
            .with_lock_registries(vec![Arc::clone(locks.registry())])
            // Every transaction carries a Cell-based metrics scratch that
            // flushes here when it drops — the lock hot paths pay no shared
            // atomics per cycle (see txsql_txn::TxnMetrics).
            .with_engine_metrics(Arc::clone(&metrics));
        if let Some((next_txn_id, next_trx_no)) = trx_seed {
            trx_sys = trx_sys.with_start(next_txn_id, next_trx_no);
        }
        // Commit purges version chains to the floor the transaction system
        // publishes.
        let storage = storage.with_purge_floor(Arc::clone(trx_sys.purge_floor()));
        let hotspots = HotspotRegistry::new(config.hotspot.clone());
        let queue_locks = QueueLockTable::new(config.group.hot_wait_timeout);
        let group_locks = GroupLockTable::new(config.group.clone(), Arc::clone(&metrics));
        let pipeline = CommitPipeline::new(config.group_commit, Arc::clone(&metrics));
        let history = if config.record_history {
            Some(HistoryRecorder::new())
        } else {
            None
        };
        let aria = AriaCoordinator::new(config.aria_batch_size);
        let admission = AdmissionController::new(config.admission.clone(), Arc::clone(&metrics));
        let inner = Arc::new(DbInner {
            config,
            storage,
            trx_sys,
            metrics,
            admission,
            locks,
            hotspots,
            queue_locks,
            group_locks,
            pipeline,
            completions: Mutex::new(FxHashMap::default()),
            hooks: RwLock::new(Arc::new([])),
            history,
            aria,
            last_checkpoint: Mutex::new(CheckpointImage {
                lsn: Lsn(0),
                tables: Vec::new(),
            }),
            sweeper_stop: OsEvent::new(),
            sweeper_handle: Mutex::new(None),
        });
        let db = Database { inner };
        if db.inner.config.start_sweeper {
            db.start_sweeper();
        }
        db
    }

    /// Convenience: an engine with the default configuration for `protocol`.
    pub fn with_protocol(protocol: Protocol) -> Self {
        Self::new(EngineConfig::for_protocol(protocol))
    }

    fn start_sweeper(&self) {
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.sweeper_stop);
        let interval = self.inner.config.hotspot.sweep_interval;
        let handle = std::thread::Builder::new()
            .name("txsql-hotspot-sweeper".into())
            .spawn(move || {
                while stop.wait_for(interval) == WaitOutcome::TimedOut {
                    let Some(inner) = weak.upgrade() else { break };
                    inner.hotspots.sweep(|record| {
                        inner.group_locks.has_activity(record)
                            || inner.queue_locks.has_waiters(record)
                            || inner.locks.wait_queue_len(record) > 0
                    });
                }
            })
            .expect("spawn hotspot sweeper");
        *self.inner.sweeper_handle.lock() = Some(handle);
    }

    /// Stops background threads.  Called automatically when the last handle is
    /// dropped; safe to call multiple times.
    pub fn shutdown(&self) {
        self.inner.sweeper_stop.set();
        if let Some(handle) = self.inner.sweeper_handle.lock().take() {
            let _ = handle.join();
        }
    }

    // ------------------------------------------------------------------
    // Schema / data management
    // ------------------------------------------------------------------

    /// Creates a table.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.inner.storage.create_table(schema).map(|_| ())
    }

    /// Bulk-loads a committed row (initial population; not logged).
    pub fn load_row(&self, table: TableId, row: Row) -> Result<RecordId> {
        self.inner.storage.load_row(table, row)
    }

    /// Looks up the record id of a primary key.
    pub fn record_id(&self, table: TableId, pk: i64) -> Result<RecordId> {
        self.inner.storage.table(table)?.lookup_pk(pk)
    }

    /// The storage engine (checkpointing, redo access, recovery experiments).
    pub fn storage(&self) -> &Storage {
        &self.inner.storage
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The protocol in force.
    pub fn protocol(&self) -> Protocol {
        self.inner.config.protocol
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// A shared handle on the engine metrics, for components that outlive a
    /// borrow of the database (e.g. the replication hook's shipping path).
    pub fn metrics_handle(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Serialisable metrics snapshot over `elapsed`.
    pub fn snapshot_metrics(&self, elapsed: Duration) -> MetricsSnapshot {
        // The registry-entry gauge is sampled here rather than maintained on
        // the lock hot path (per-shard counts stay with their shards).
        let live = self.inner.locks.registry().total_entries();
        self.inner.metrics.lock_registry_entries.set(live as u64);
        self.inner.metrics.snapshot(elapsed)
    }

    /// Resets metrics (between warm-up and measurement windows).
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
    }

    /// The hotspot registry (promotion / demotion introspection).
    pub fn hotspots(&self) -> &HotspotRegistry {
        &self.inner.hotspots
    }

    /// The front-door admission controller (queue/shed introspection).
    pub fn admission(&self) -> &AdmissionController {
        &self.inner.admission
    }

    /// The drivers' retry/backoff policy, derived from the engine
    /// configuration (one policy governs every retry loop, whether or not
    /// the admission queues are enabled).
    pub fn backoff_policy(&self) -> crate::admission::BackoffPolicy {
        self.inner.config.admission.backoff_policy()
    }

    /// Transactions currently holding a record lock on `record`
    /// (introspection for tests of early lock release).
    pub fn lock_holders(&self, record: RecordId) -> Vec<TxnId> {
        self.inner.locks.holders_of(record)
    }

    /// Current group leader of a hot row (introspection for tests and
    /// diagnostics).
    pub fn group_leader_of(&self, record: RecordId) -> Option<TxnId> {
        self.inner.group_locks.leader_of(record)
    }

    /// Current dependency list of a hot row, in update order.
    pub fn group_dep_list(&self, record: RecordId) -> Vec<TxnId> {
        self.inner.group_locks.dep_list(record)
    }

    /// Number of updates parked on a hot row's group.
    pub fn group_waiting_len(&self, record: RecordId) -> usize {
        self.inner.group_locks.waiting_len(record)
    }

    /// One-line rendering of a hot row's full group state (diagnostics).
    pub fn group_debug_state(&self, record: RecordId) -> String {
        self.inner.group_locks.debug_state(record)
    }

    /// Entries the protocol's private tables still hold: hot-row groups, O2
    /// ticket queues, Bamboo completion events.  Zero once every transaction
    /// has finished — anything else is leaked protocol state.
    pub fn protocol_entries(&self) -> usize {
        self.inner.group_locks.live_groups()
            + self.inner.queue_locks.live_queues()
            + self.inner.completions.lock().len()
    }

    /// The serializability history recorder, when enabled.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.inner.history.as_ref()
    }

    /// Registers a commit hook (replication, tests).
    pub fn register_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        let mut hooks = self.inner.hooks.write();
        *hooks = hooks.iter().cloned().chain([hook]).collect();
    }

    /// Captures a checkpoint image, makes it the engine's recovery baseline
    /// and truncates the redo log behind it.
    ///
    /// The truncation is safe by construction: it never cuts past the
    /// durable horizon (`truncate_to` clamps to it) nor past the first LSN
    /// of the oldest transaction that was active when the image was started,
    /// so every record recovery could still need survives.  The image is
    /// published as the baseline *before* the log is truncated — a crash
    /// between the two recovers from the new image plus an un-truncated
    /// (merely redundant) log, which idempotent replay tolerates.
    pub fn checkpoint(&self) -> Result<CheckpointImage> {
        // Floor and image are captured in one apply-latch critical section:
        // a transaction the image does not (fully) reflect is either in the
        // floor or entirely above the image LSN, so the truncation below
        // never cuts a record recovery still needs.
        let (image, floor) = self.inner.storage.checkpoint_with_floor();
        let redo = self.inner.storage.redo();
        // The image is only a valid baseline once everything it reflects is
        // durable.
        redo.flush_to(image.lsn)?;
        // Crash point: the image exists but was never published — recovery
        // falls back to the previous baseline.
        redo.crash_point(CrashPoint::Checkpoint)?;
        *self.inner.last_checkpoint.lock() = image.clone();
        let limit = match floor {
            Some(first) => Lsn(image.lsn.0.min(first.0.saturating_sub(1))),
            None => image.lsn,
        };
        let removed = redo.truncate_to(limit);
        self.inner.metrics.wal_truncated_records.add(removed);
        Ok(image)
    }

    /// Restarts the engine from its crash image: recovers from the last
    /// published checkpoint plus the durable redo suffix (scan-stopping at a
    /// torn tail), rebuilds the transaction system with counters seeded past
    /// everything in the recovered log, and returns a fully working engine
    /// together with the recovery report.
    ///
    /// Works on a healthy engine too (an orderly restart); the redo log of
    /// the *new* engine starts empty, with a fresh baseline checkpoint of
    /// the recovered state installed.
    pub fn restart_from_crash(&self) -> Result<(Database, RecoveryReport)> {
        self.shutdown();
        let image = self.inner.last_checkpoint.lock().clone();
        let frames = self.inner.storage.redo().durable_frames();
        let outcome = recovery::recover_frames(&image, &frames, self.inner.config.latency.fsync)?;
        let report = outcome.report;
        let metrics = Arc::new(EngineMetrics::new());
        metrics.recovery_replayed.add(report.replayed as u64);
        // The restarted engine runs fault-free: the plan described one crash,
        // and it already fired.
        let mut config = self.inner.config.clone();
        config.fault_plan = None;
        let db = Self::assemble(
            config,
            outcome.storage,
            metrics,
            Some((report.max_txn_id + 1, report.max_trx_no + 1)),
        );
        // The recovered state is the new engine's baseline: a second crash
        // before its first explicit checkpoint recovers to at least here.
        *db.inner.last_checkpoint.lock() = db.inner.storage.checkpoint();
        Ok((db, report))
    }

    /// The crash-fault injector (disabled unless a fault plan was configured).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        self.inner.storage.faults()
    }

    /// True once an injected crash fired: the engine is a crash image and
    /// the only legitimate continuation is [`Database::restart_from_crash`].
    pub fn has_crashed(&self) -> bool {
        self.inner.storage.faults().crashed()
    }

    /// True once the engine degraded to read-only (persistent fsync failure).
    pub fn is_read_only(&self) -> bool {
        self.inner.storage.faults().is_read_only()
    }

    /// Redo records that would survive a crash right now.
    pub fn durable_redo(&self) -> Vec<RedoRecord> {
        self.inner.storage.redo().durable_records()
    }

    // ------------------------------------------------------------------
    // Session API
    // ------------------------------------------------------------------

    /// Starts a transaction.
    pub fn begin(&self) -> Transaction {
        let mut txn = self.inner.trx_sys.begin();
        if self.protocol() == Protocol::Bamboo {
            let completion = OsEvent::acquire_pooled();
            self.inner.completions.lock().insert(txn.id, completion);
        }
        self.inner.storage.begin_txn(txn.id);
        txn.state = TxnState::Active;
        txn
    }

    /// Snapshot read by primary key.  The read view is statement-scoped and
    /// built under the record's latch, which is what lets commit purge the
    /// chain (see `Storage::read_snapshot`); the writer of the version read
    /// goes to the read set for the serializability checker.
    pub fn read(&self, txn: &mut Transaction, table: TableId, pk: i64) -> Result<Row> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        self.inner.metrics.queries.inc();
        let record = self.record_id(table, pk)?;
        let (row, writer) = self
            .inner
            .storage
            .read_snapshot(table, record, || self.inner.trx_sys.read_view(txn.id))?
            .ok_or(Error::UnknownRecord { record })?;
        txn.record_read(table, record, writer);
        Ok(row)
    }

    // ------------------------------------------------------------------
    // Commit / rollback
    // ------------------------------------------------------------------

    /// Drops every lock the transaction holds: one registry-shard take, then
    /// each lock-table shard it touched once.  Release-path counters go to
    /// the transaction's metrics scratch (flushed when the transaction
    /// drops).
    fn release_all_locks(&self, txn: &Transaction) {
        self.inner.locks.release_all(txn.id, txn.metrics_sink());
    }

    /// Commits a transaction.  On a cascading abort or commit-time conflict the
    /// transaction is rolled back internally and the error returned.
    pub fn commit(&self, mut txn: Transaction) -> Result<()> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        txn.state = TxnState::Preparing;
        let hot_updates = txn.hot_updates();

        // Group locking, leader side (Algorithm 2 lines 2–10): stop granting,
        // wait for the in-flight grant, release the *hot row* lock and hand
        // the next group over.  The early row-lock release is the paper's
        // pipelining lever — group N+1 executes while group N drains its
        // commit-order waits — and it is safe because the dependency list
        // (not the row lock) serializes hot-row commit records; every row is
        // only written through the group path while it is hot.  Cold locks
        // stay held until the commit record is ordered below.
        //
        // The handover is batched across the leader's hot records: one
        // entry-map fetch per group-table shard covers prepare AND handover,
        // the row locks drain in one batched lock-table call, and every
        // promoted leader is woken after the guards drop — see
        // `GroupLockTable::begin_leader_commit`.
        if self.protocol() == Protocol::GroupLockingTxsql {
            let leader_records: Vec<RecordId> = hot_updates
                .iter()
                .filter(|(_, role, _)| *role == txsql_txn::HotRole::Leader)
                .map(|(record, _, _)| *record)
                .collect();
            if !leader_records.is_empty() {
                let prepared = self
                    .inner
                    .group_locks
                    .begin_leader_commit(txn.id, &leader_records);
                self.inner
                    .locks
                    .release_records(txn.id, &leader_records, txn.metrics_sink());
                self.inner
                    .group_locks
                    .finish_leader_handover(txn.id, prepared);
            }
            // Commit-order guarantee (§4.3): wait for all dependency-list
            // predecessors before ordering our own commit record.
            // Predecessors commit without the row lock; a predecessor stuck
            // on a *cold* lock we hold is pre-empted by the §4.5 deadlock
            // prevention check, and any residual entanglement resolves
            // through the wait deadline.
            for (record, _, _) in &hot_updates {
                let wait_start = Instant::now();
                match self.inner.group_locks.wait_commit_turn(txn.id, *record) {
                    Ok(()) => txn.add_blocked(wait_start.elapsed()),
                    Err(err) => {
                        txn.add_blocked(wait_start.elapsed());
                        self.rollback_internal(txn, Some(&err));
                        return Err(err);
                    }
                }
            }
        }

        // Bamboo: wait for every transaction whose dirty data we read.
        if self.protocol() == Protocol::Bamboo {
            if let Err(err) = self.wait_bamboo_dependencies(&txn) {
                self.rollback_internal(txn, Some(&err));
                return Err(err);
            }
        }

        // Order the commit record while every cold lock is still held
        // (release-after-ordering).  Releasing first opened a window where a
        // competing transaction could lock the row, read the *pre-commit*
        // version and commit with a smaller trx_no — the intermittent
        // serializability violation the red_envelope example used to trip
        // over (see `sim_commit_release_ordering` in crates/core/tests).
        let trx_no = self.inner.trx_sys.allocate_trx_no();
        let write_set: Vec<(TableId, RecordId)> = txn.write_set().to_vec();
        let commit_lsn = match self.inner.storage.commit_writes(txn.id, trx_no, &write_set) {
            Ok(lsn) => lsn,
            Err(err) => {
                // Locks are still held here — propagating without rolling
                // back would leak them (and the group dep-list slot) forever.
                self.rollback_internal(txn, Some(&err));
                return Err(err);
            }
        };

        // The dependency-list slot can be released as soon as our commit
        // record is ordered in the log; the durable flush below may then be
        // batched with our successors (group commit, Figure 5c).
        if self.protocol() == Protocol::GroupLockingTxsql {
            for (record, _, _) in &hot_updates {
                self.inner.group_locks.finish_commit(txn.id, *record);
            }
        }

        // The remaining (cold) locks go *after* the commit record is ordered.
        self.release_all_locks(&txn);

        let binlog = BinlogTxn {
            txn: txn.id,
            trx_no,
            changes: txn.changes().to_vec(),
            involves_hotspot: !hot_updates.is_empty(),
        };
        let hooks = Arc::clone(&self.inner.hooks.read());
        let pipeline_result =
            self.inner
                .pipeline
                .commit(self.inner.storage.redo(), commit_lsn, binlog, &hooks);

        // Release hotspot queue tickets (O2) now that the lock is gone.
        if self.protocol() == Protocol::QueueLockingO2 {
            for (record, _, _) in &hot_updates {
                self.inner.queue_locks.release(txn.id, *record);
            }
        }

        self.post_completion(txn.id, COMMITTED);
        self.inner.trx_sys.finish(txn.id, Some(trx_no));

        if let Err(err) = pipeline_result {
            // The flush failed (injected crash or read-only degradation): the
            // commit was stamped in memory — dependents that read our
            // versions must not cascade, so the completion and trx_sys
            // horizon above still record a commit — but it never became
            // durable, so it must NOT be acknowledged to the client.  The
            // recovery oracle counts only `Ok` returns as acknowledged.
            txn.state = TxnState::Committed;
            self.inner.metrics.abort_causes.record(err.label());
            return Err(err);
        }

        if let Some(history) = &self.inner.history {
            // The writer of each read version was captured at read time — no
            // commit-time re-read, which would mis-attribute reads to
            // whichever writer happened to have committed by now.
            let reads = txn.read_set().iter().map(|(_, r, w)| (*r, *w)).collect();
            let writes = write_set.iter().map(|(_, r)| *r).collect();
            history.record_commit(txn.id, trx_no, reads, writes);
        }

        txn.state = TxnState::Committed;
        let elapsed = txn.started_at.elapsed();
        self.inner.metrics.committed.inc();
        self.inner.metrics.txn_latency.record(elapsed);
        let blocked = txn.blocked_time();
        self.inner
            .metrics
            .blocked_nanos
            .add(blocked.as_nanos() as u64);
        self.inner
            .metrics
            .busy_nanos
            .add(elapsed.saturating_sub(blocked).as_nanos() as u64);
        Ok(())
    }

    /// Bamboo: takes `txn`'s commit dependency on the writer of `record`'s
    /// uncommitted head, if it has one.  A writer leaves `completions` only
    /// after its versions were stamped or undone, so one that is no longer
    /// there is no longer the head's uncommitted writer either: look again.
    pub(crate) fn depend_on_dirty_head(
        &self,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()> {
        while let Some(writer) = self.inner.storage.latest_writer(table, record)? {
            if writer == txn.id {
                break;
            }
            let completion = self.inner.completions.lock().get(&writer).cloned();
            if let Some(completion) = completion {
                txn.record_dirty_read_from(writer, completion);
                break;
            }
        }
        Ok(())
    }

    /// Bamboo: waits for the outcome of every writer whose dirty data `txn`
    /// read — one park per dependency, woken by that writer's
    /// [`Database::post_completion`].  An I/O wait: the outcome is posted
    /// after the writer's flush.
    fn wait_bamboo_dependencies(&self, txn: &Transaction) -> Result<()> {
        // SimInstant: under deterministic simulation this deadline lives on
        // the scheduler's virtual clock, so the timeout path is explorable.
        let deadline = SimInstant::now() + self.inner.config.lock_wait_timeout * 4;
        for (writer, completion) in txn.dirty_reads_from() {
            let remaining = deadline.saturating_duration_since(SimInstant::now());
            let _ = completion.wait_for(remaining);
            match completion.payload() {
                Some(COMMITTED) => {}
                Some(_) => {
                    return Err(Error::DirtyReadAborted {
                        txn: txn.id,
                        cause: *writer,
                    });
                }
                None => {
                    return Err(Error::LockWaitTimeout {
                        txn: txn.id,
                        record: RecordId::new(0, 0, 0),
                    });
                }
            }
        }
        Ok(())
    }

    /// Bamboo: posts `txn`'s final outcome to the transactions that read its
    /// dirty data and forgets the completion (they keep the event alive for
    /// as long as they need it).  Call once the outcome is final in storage.
    fn post_completion(&self, txn: TxnId, outcome: u32) {
        if self.protocol() != Protocol::Bamboo {
            return;
        }
        let completion = self.inner.completions.lock().remove(&txn);
        if let Some(completion) = completion {
            completion.set_with(outcome);
            OsEvent::recycle(completion);
        }
    }

    /// Rolls back a transaction explicitly.
    pub fn rollback(&self, txn: Transaction, reason: Option<&Error>) {
        self.rollback_internal(txn, reason);
    }

    pub(crate) fn rollback_internal(&self, mut txn: Transaction, reason: Option<&Error>) {
        if txn.state == TxnState::Committed || txn.state == TxnState::Aborted {
            return;
        }
        let hot_updates = txn.hot_updates();

        // Group locking rollback ordering (Algorithm 3 + §4.4): doom
        // successors, wait until we are the newest entry, then undo.
        if self.protocol() == Protocol::GroupLockingTxsql && !hot_updates.is_empty() {
            for (record, _, _) in &hot_updates {
                let doomed = self.inner.group_locks.begin_rollback(txn.id, *record);
                let _ = doomed;
            }
            for (record, _, _) in &hot_updates {
                let wait_start = Instant::now();
                if self
                    .inner
                    .group_locks
                    .wait_rollback_turn(txn.id, *record)
                    .is_err()
                {
                    // Undoing out of turn beats wedging the row, but a
                    // successor that never cascaded must not go unreported.
                    self.inner
                        .metrics
                        .abort_causes
                        .record("rollback_turn_timeout");
                }
                txn.add_blocked(wait_start.elapsed());
            }
        }

        let _ = self.inner.storage.rollback_writes(txn.id);

        if self.protocol() == Protocol::GroupLockingTxsql && !hot_updates.is_empty() {
            for (record, _, _) in &hot_updates {
                // The undo above removed our version from the record's head:
                // registrants from here on read clean data and need no doom.
                self.inner.group_locks.mark_undone(txn.id, *record);
                self.inner.group_locks.finish_rollback(txn.id, *record);
                self.inner.group_locks.resume_granting(*record);
            }
        }

        self.release_all_locks(&txn);
        if self.protocol() == Protocol::QueueLockingO2 {
            for (record, _, _) in &hot_updates {
                self.inner.queue_locks.release(txn.id, *record);
            }
        }

        self.post_completion(txn.id, ABORTED);
        self.inner.trx_sys.finish(txn.id, None);
        txn.state = TxnState::Aborted;
        self.inner.metrics.aborted.inc();
        if let Some(reason) = reason {
            self.inner.metrics.abort_causes.record(reason.label());
            if reason.is_cascading() {
                self.inner.metrics.cascading_aborts.inc();
            }
        } else {
            self.inner.metrics.abort_causes.record("explicit_rollback");
        }
    }

    // ------------------------------------------------------------------
    // Program execution (the workload driver entry point)
    // ------------------------------------------------------------------

    /// Executes a whole transaction program.  Under Aria the program joins the
    /// next deterministic batch; under every other protocol it runs through
    /// the session API.  Contention aborts are returned as errors (the caller
    /// retries); an explicit [`Operation::ForcedRollback`] yields
    /// `Ok(ProgramOutcome { committed: false, .. })`.
    ///
    /// Every program passes through front-door admission first: declared
    /// write keys that the hotspot registry currently flags are serialized
    /// through their admission queues, and an over-capacity queue sheds the
    /// program with [`Error::Overloaded`] before a transaction even begins
    /// (see [`crate::admission`]).
    pub fn execute_program(&self, program: &TxnProgram) -> Result<ProgramOutcome> {
        let permit = match self.admit_program(program) {
            Ok(permit) => permit,
            Err(err) => {
                // Shed at the front door: no transaction began, but the shed
                // is an abort from the client's perspective and must show in
                // the abort-reason breakdown.
                self.inner.metrics.abort_causes.record(err.label());
                return Err(err);
            }
        };
        let result = self.execute_admitted(program);
        self.inner.admission.release(permit);
        result
    }

    /// Resolves the program's declared write keys against the hotspot
    /// registry and takes the admission queues of every currently-hot one.
    /// Keys that do not resolve (fresh inserts) cannot be hot yet and are
    /// skipped.  `write_keys` order is sorted and deduplicated, so every
    /// admission acquires queues in one global order — deadlock-free.
    fn admit_program(&self, program: &TxnProgram) -> Result<AdmissionPermit> {
        if !self.inner.config.admission.enabled {
            return Ok(AdmissionPermit::default());
        }
        let mut hot = Vec::new();
        for (table, pk) in program.write_keys() {
            if let Ok(record) = self.record_id(table, pk) {
                if self.inner.hotspots.is_hot(record) {
                    hot.push(record);
                }
            }
        }
        self.inner.admission.admit(&hot)
    }

    fn execute_admitted(&self, program: &TxnProgram) -> Result<ProgramOutcome> {
        if self.protocol() == Protocol::Aria {
            return self.inner.aria.execute(self, program);
        }
        let mut txn = self.begin();
        let mut reads = Vec::new();
        for op in &program.operations {
            let step: Result<()> = match op {
                Operation::Read { table, pk } => self.read(&mut txn, *table, *pk).map(|row| {
                    reads.push(row.get_int(1).unwrap_or_default());
                }),
                Operation::SelectForUpdate { table, pk } => {
                    self.select_for_update(&mut txn, *table, *pk).map(|row| {
                        reads.push(row.get_int(1).unwrap_or_default());
                    })
                }
                Operation::UpdateAdd {
                    table,
                    pk,
                    column,
                    delta,
                } => self
                    .update_add(&mut txn, *table, *pk, *column, *delta)
                    .map(|_| ()),
                Operation::Insert { table, pk, fill } => {
                    let n_cols = self
                        .inner
                        .storage
                        .table(*table)
                        .map(|t| t.schema().n_columns)
                        .unwrap_or(2);
                    let mut cols = vec![*pk];
                    cols.resize(n_cols, *fill);
                    self.insert(&mut txn, *table, Row::from_ints(&cols))
                }
                Operation::Work { micros } => {
                    txsql_common::latency::simulate_delay(std::time::Duration::from_micros(
                        *micros,
                    ));
                    Ok(())
                }
                Operation::ForcedRollback => {
                    let err = Error::ExplicitRollback { txn: txn.id };
                    self.rollback_internal(txn, Some(&err));
                    return Ok(ProgramOutcome {
                        reads,
                        committed: false,
                    });
                }
            };
            if let Err(err) = step {
                self.rollback_internal(txn, Some(&err));
                return Err(err);
            }
        }
        self.commit(txn)?;
        Ok(ProgramOutcome {
            reads,
            committed: true,
        })
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        self.sweeper_stop.set();
        if let Some(handle) = self.sweeper_handle.lock().take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_row(protocol: Protocol) -> Database {
        let db = Database::with_protocol(protocol);
        db.create_table(TableSchema::new(TableId(1), "t", 2))
            .unwrap();
        db.load_row(TableId(1), Row::from_ints(&[0, 0])).unwrap();
        db
    }

    #[test]
    fn completions_exist_only_for_active_bamboo_transactions() {
        let program = TxnProgram::new(vec![Operation::UpdateAdd {
            table: TableId(1),
            pk: 0,
            column: 1,
            delta: 1,
        }]);
        for protocol in [
            Protocol::GroupLockingTxsql,
            Protocol::Aria,
            Protocol::Bamboo,
        ] {
            let db = one_row(protocol);
            for _ in 0..10 {
                db.execute_program(&program).unwrap();
            }
            let open = db.begin();
            let tracked = usize::from(protocol == Protocol::Bamboo);
            assert_eq!(db.inner.completions.lock().len(), tracked, "{protocol:?}");
            db.rollback(open, None);
            assert!(db.inner.completions.lock().is_empty(), "{protocol:?}");
            db.shutdown();
        }
    }

    /// A dependent parked on its writer's completion, the writer's outcome
    /// and what is left afterwards.  Returns the dependent's commit result.
    fn dependent_outcome(writer_commits: bool) -> Result<()> {
        let db = one_row(Protocol::Bamboo);
        let mut writer = db.begin();
        db.update_add(&mut writer, TableId(1), 0, 1, 5).unwrap();
        let mut dependent = db.begin();
        // Early lock release: the row is free, its head is the writer's.
        db.update_add(&mut dependent, TableId(1), 0, 1, 1).unwrap();
        let completion = Arc::downgrade(&dependent.dirty_reads_from()[0].1);
        assert_eq!(dependent.dirty_reads_from()[0].0, writer.id);

        use std::sync::atomic::{AtomicBool, Ordering};
        let returned = Arc::new(AtomicBool::new(false));
        let committer = {
            let (db, returned) = (db.clone(), Arc::clone(&returned));
            std::thread::spawn(move || {
                let result = db.commit(dependent);
                returned.store(true, Ordering::SeqCst);
                result
            })
        };
        // The dependent cannot finish before its writer's outcome is posted.
        std::thread::yield_now();
        assert!(!returned.load(Ordering::SeqCst));
        if writer_commits {
            db.commit(writer).unwrap();
        } else {
            db.rollback(writer, None);
        }
        let result = committer.join().unwrap();
        // Writer and dependent are done: nothing of the completion is left.
        assert!(db.inner.completions.lock().is_empty());
        assert!(completion.upgrade().is_none(), "completion event leaked");
        let row = db
            .storage()
            .read_committed(TableId(1), RecordId::new(1, 0, 0));
        let expected = if writer_commits { 6 } else { 0 };
        assert_eq!(row.unwrap().unwrap().get_int(1), Some(expected));
        db.shutdown();
        result
    }

    #[test]
    fn bamboo_dependent_wakes_on_its_writers_commit_and_abort() {
        dependent_outcome(true).unwrap();
        let err = dependent_outcome(false).unwrap_err();
        assert!(matches!(err, Error::DirtyReadAborted { .. }), "{err:?}");
    }
}
