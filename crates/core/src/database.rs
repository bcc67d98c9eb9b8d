//! The engine facade: tables, sessions, commit and rollback.
//!
//! A [`Database`] owns one storage engine, one transaction system, the
//! hotspot registry, the commit pipeline and one `ConcurrencyControl` — the
//! configured protocol with its lock table and private state (see
//! `cc/mod.rs`).  Commit and rollback live here because their skeleton is
//! the same for every protocol: the ordering guarantees of the paper (§4.3
//! commit order, §4.4 rollback order) hang off the protocol hooks it calls.

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::cc::{self, ConcurrencyControl};
use crate::checker::HistoryRecorder;
use crate::commit::CommitPipeline;
use crate::config::{EngineConfig, Protocol};
use crate::hooks::{BinlogTxn, CommitHook};
use crate::program::{Operation, ProgramOutcome, TxnProgram};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::metrics::{EngineMetrics, MetricsSnapshot};
use txsql_common::{Error, Lsn, RecordId, Result, Row, TableId, TxnId};
use txsql_lockmgr::event::WaitOutcome;
use txsql_lockmgr::hotspot::HotspotRegistry;
use txsql_lockmgr::OsEvent;
use txsql_storage::fault::{CrashPoint, FaultInjector};
use txsql_storage::recovery::{self, RecoveryReport};
use txsql_storage::storage::CheckpointImage;
use txsql_storage::{Storage, TableSchema};
use txsql_txn::{ReadView, Transaction, TrxSys};

pub(crate) struct DbInner {
    pub(crate) config: EngineConfig,
    pub(crate) storage: Storage,
    pub(crate) trx_sys: TrxSys,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) admission: AdmissionController,
    pub(crate) hotspots: HotspotRegistry,
    /// The configured protocol: lock table, private state, life-cycle hooks.
    pub(crate) cc: Box<dyn ConcurrencyControl>,
    pub(crate) pipeline: CommitPipeline,
    /// The registered hooks behind one `Arc`, so a commit borrows the list
    /// with one reference-count step instead of copying it.
    pub(crate) hooks: RwLock<Arc<[Arc<dyn CommitHook>]>>,
    /// Set by the first registration: a commit on an engine without hooks
    /// takes neither the lock nor the reference.
    has_hooks: AtomicBool,
    pub(crate) history: Option<HistoryRecorder>,
    /// The newest checkpoint image — what `restart_from_crash` recovers from.
    /// Starts empty (LSN 0, no tables): engines that never checkpoint after
    /// schema setup recover nothing but the log, so take a baseline
    /// checkpoint once tables are loaded.
    pub(crate) last_checkpoint: Mutex<CheckpointImage>,
    /// Set by shutdown; the sweeper waits on it with its interval as timeout.
    sweeper_stop: Arc<OsEvent>,
    sweeper_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DbInner {
    fn stop_sweeper(&self) {
        self.sweeper_stop.set();
        if let Some(handle) = self.sweeper_handle.lock().take() {
            let _ = handle.join();
        }
    }

    /// The row an [`Operation::Insert`] describes: `pk`, then `fill` in every
    /// other column of `table`.
    pub(crate) fn filled_row(&self, table: TableId, pk: i64, fill: i64) -> Row {
        let n_cols = self.storage.table(table).map(|t| t.schema().n_columns);
        let mut cols = vec![pk];
        cols.resize(n_cols.unwrap_or(2), fill);
        Row::from_ints(&cols)
    }
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
        let cc = cc::build(&config, &metrics);
        let mut trx_sys = TrxSys::new(config.protocol.read_view_mode())
            // Transaction teardown verifies the lock bookkeeping drained.
            .with_lock_registries(vec![Arc::clone(cc.locks().registry())])
            // Every transaction carries a Cell-based metrics scratch that
            // flushes here when it drops — the lock hot paths pay no shared
            // atomics per cycle (see txsql_common::metrics::MetricsScratch).
            .with_engine_metrics(Arc::clone(&metrics));
        if let Some((next_txn_id, next_trx_no)) = trx_seed {
            trx_sys = trx_sys.with_start(next_txn_id, next_trx_no);
        }
        // Commit purges version chains to the floor the transaction system
        // publishes.
        let storage = storage.with_purge_floor(Arc::clone(trx_sys.purge_floor()));
        let hotspots = HotspotRegistry::new(config.hotspot.clone());
        let pipeline = CommitPipeline::new(config.group_commit, Arc::clone(&metrics));
        let history = if config.record_history {
            Some(HistoryRecorder::new())
        } else {
            None
        };
        let admission = AdmissionController::new(config.admission.clone(), Arc::clone(&metrics));
        let inner = Arc::new(DbInner {
            config,
            storage,
            trx_sys,
            metrics,
            admission,
            hotspots,
            cc,
            pipeline,
            hooks: RwLock::new(Arc::new([])),
            has_hooks: AtomicBool::new(false),
            history,
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
                    inner.hotspots.sweep(|record| inner.cc.keep_hot(record));
                }
            })
            .expect("spawn hotspot sweeper");
        *self.inner.sweeper_handle.lock() = Some(handle);
    }

    /// Stops background threads.  Called automatically when the last handle is
    /// dropped; safe to call multiple times.
    pub fn shutdown(&self) {
        self.inner.stop_sweeper();
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
        let live = self.inner.cc.locks().registry().total_entries();
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

    /// The transaction currently holding `record`'s lock, if any
    /// (introspection for tests of early lock release).
    pub fn lock_holder(&self, record: RecordId) -> Option<TxnId> {
        self.inner.cc.locks().holder_of(record)
    }

    /// Entries the protocol's private tables still hold: hot-row groups, O2
    /// ticket queues, Bamboo completion events.  Zero once every transaction
    /// has finished — anything else is leaked protocol state.
    pub fn protocol_entries(&self) -> usize {
        self.inner.cc.live_entries()
    }

    /// The serializability history recorder, when enabled.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.inner.history.as_ref()
    }

    /// Registers a commit hook (replication, tests).
    pub fn register_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        let mut hooks = self.inner.hooks.write();
        *hooks = hooks.iter().cloned().chain([hook]).collect();
        self.inner.has_hooks.store(true, Ordering::Release);
    }

    /// Captures a checkpoint image, makes it the engine's recovery baseline
    /// and truncates the redo log behind it.
    ///
    /// The truncation is safe by construction: it never cuts past the
    /// durable horizon (`truncate_to` clamps to it) nor past the first LSN
    /// of the oldest transaction that was active when the image was started,
    /// so every record recovery could still need survives.  The image is
    /// published as the baseline *before* the log is truncated — a crash
    /// between the two recovers from the new image plus an un-truncated log
    /// that overlaps it, and in-order replay of whole row images rewrites
    /// the overlap to what the image already holds.
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
        // The log's own walk over its durable frames, decoded in place.
        let frames = self.inner.storage.redo().durable_frames();
        let outcome = recovery::recover_frames(&image, frames, self.inner.config.latency.fsync)?;
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

    // ------------------------------------------------------------------
    // Session API
    // ------------------------------------------------------------------

    /// Starts a transaction.  Storage and the log hear of it at its first
    /// write statement (`Database::begin_write`), not here.
    pub fn begin(&self) -> Transaction {
        let txn = self.inner.trx_sys.begin();
        self.inner.cc.begin(&txn);
        txn
    }

    /// Called by every write statement before it asks the protocol for the
    /// row: the transaction's first one gives it its storage entry (the log
    /// hears of it with its first frame).  Ahead of `acquire_for_write` on
    /// purpose — inside a hot row's grant this would be paid by everyone
    /// queued behind it.
    pub(crate) fn begin_write(&self, txn: &mut Transaction) {
        if txn.become_writer() {
            self.inner.storage.begin_txn(txn.id);
        }
    }

    /// Called by a write statement whose storage write failed: a failure
    /// after the version was stacked (the fault check behind the log append)
    /// leaves it as the row's head, and rollback pops what the write set
    /// names — so the row goes in the write set all the same.
    pub(crate) fn keep_stacked_write(&self, txn: &mut Transaction, table: TableId, pk: i64) {
        let Ok(record) = self.record_id(table, pk) else {
            return;
        };
        if self.inner.storage.latest_writer(table, record) == Ok(Some(txn.id)) {
            txn.record_write(table, record);
        }
    }

    /// Snapshot read by primary key.  The read view is statement-scoped and
    /// built under the record's latch, which is what lets commit purge the
    /// chain (see `Storage::read_snapshot`); the writer of the version read
    /// goes to the read set when a history records it for the
    /// serializability checker.
    pub fn read(&self, txn: &mut Transaction, table: TableId, pk: i64) -> Result<Row> {
        txn.metrics().queries.inc();
        let record = self.record_id(table, pk)?;
        let (row, writer) = self
            .inner
            .storage
            .read_snapshot(table, record, || self.inner.trx_sys.read_view(txn.id))?
            .ok_or(Error::UnknownRecord { record })?;
        if self.inner.history.is_some() {
            txn.record_read(table, record, writer);
        }
        Ok(row)
    }

    // ------------------------------------------------------------------
    // Commit / rollback
    // ------------------------------------------------------------------

    /// Commits a transaction.  On a cascading abort or commit-time conflict the
    /// transaction is rolled back internally and the error returned.
    pub fn commit(&self, mut txn: Transaction) -> Result<()> {
        let cc = &self.inner.cc;

        if !txn.is_writer() {
            // Nothing was written: there is nothing to order, log, ship or
            // release, so the transaction takes no `trx_no` and no part in
            // the commit sequence.  Its place in the history is the horizon
            // it read under (the checker orders only writers by `trx_no`).
            debug_assert!(txn.locked_records().is_empty() && !txn.has_hot_updates());
            cc.finished(&txn, true);
            let horizon = self.inner.trx_sys.commit_horizon();
            self.inner.trx_sys.finish(txn.id, None);
            self.acknowledge(txn, horizon);
            return Ok(());
        }

        // The protocol's commit-order waits (group locking's hand-over and
        // commit turn, Bamboo's dirty-read dependencies).
        if let Err(err) = cc.before_order(&mut txn) {
            self.rollback(txn, Some(&err));
            return Err(err);
        }

        // Order the commit record while every cold lock is still held
        // (release-after-ordering).  Releasing first opened a window where a
        // competing transaction could lock the row, read the *pre-commit*
        // version and commit with a smaller trx_no — the intermittent
        // serializability violation the red_envelope example used to trip
        // over (see `sim_commit_release_ordering` in crates/core/tests).
        let trx_no = self.inner.trx_sys.allocate_trx_no();
        let applied = self
            .inner
            .storage
            .commit_writes(txn.id, trx_no, txn.write_set());
        let commit_lsn = match applied {
            Ok(lsn) => lsn,
            Err(err) => {
                // Locks are still held here — propagating without rolling
                // back would leak them (and the group dep-list slot) forever.
                self.rollback(txn, Some(&err));
                return Err(err);
            }
        };
        cc.after_order(&txn);
        // Locks go *after* the commit record is ordered.
        cc.locks().release_all(&txn);

        let has_hooks = self.inner.has_hooks.load(Ordering::Acquire);
        let hooks = has_hooks.then(|| Arc::clone(&self.inner.hooks.read()));
        let binlog = BinlogTxn {
            txn: txn.id,
            trx_no,
            changes: if has_hooks {
                self.committed_images(&txn, trx_no)
            } else {
                Vec::new()
            },
            involves_hotspot: txn.has_hot_updates(),
        };
        let pipeline_result = self.inner.pipeline.commit(
            self.inner.storage.redo(),
            commit_lsn,
            binlog,
            hooks.as_deref().unwrap_or(&[]),
        );

        cc.finished(&txn, true);
        self.inner.trx_sys.finish(txn.id, Some(trx_no));

        if let Err(err) = pipeline_result {
            // The flush failed (injected crash or read-only degradation): the
            // commit was stamped in memory — dependents that read our
            // versions must not cascade, so `finished` and the trx_sys
            // horizon above still record a commit — but it never became
            // durable, so it must NOT be acknowledged to the client.  The
            // recovery oracle counts only `Ok` returns as acknowledged.
            self.inner.metrics.abort_causes.record(err.label());
            return Err(err);
        }

        self.acknowledge(txn, trx_no);
        Ok(())
    }

    /// Last step of a successful commit: the history entry at `position` (a
    /// writer's `trx_no`, a reader's horizon) and the commit sample, which
    /// reaches the engine's counters with the rest of the transaction's
    /// metrics scratch when `txn` drops here.
    fn acknowledge(&self, txn: Transaction, position: u64) {
        if let Some(history) = &self.inner.history {
            // The writer of each read version was captured at read time — no
            // commit-time re-read, which would mis-attribute reads to
            // whichever writer happened to have committed by now.
            let reads = txn.read_set().iter().map(|(_, r, w)| (*r, *w)).collect();
            let writes = txn.write_set().iter().map(|(_, r)| *r).collect();
            history.record_commit(txn.id, position, reads, writes);
        }
        txn.metrics()
            .on_commit(txn.started_at.elapsed(), txn.blocked_time());
    }

    /// The binlog's images of a commit: each row `txn` wrote, in write-set
    /// order, as the commit left it.  A view at the commit's own `trx_no`
    /// reads exactly that version: the purge floor stays below `trx_no` until
    /// `TrxSys::finish`, and every version above it is uncommitted or carries
    /// a larger `trx_no`.
    fn committed_images(&self, txn: &Transaction, trx_no: u64) -> Vec<(TableId, i64, Row)> {
        let storage = &self.inner.storage;
        let view = || ReadView::CopyFree {
            commit_horizon: trx_no,
            owner: txn.id,
        };
        let image = |&(table, record): &(TableId, RecordId)| {
            let read = storage.read_snapshot(table, record, view);
            let (row, _) = read.ok().flatten().expect("purge keeps it until `finish`");
            (table, row.primary_key().expect("column 0 is the key"), row)
        };
        txn.write_set().iter().map(image).collect()
    }

    /// Rolls back a transaction, recording `reason` (or an explicit rollback)
    /// as the abort cause.
    pub fn rollback(&self, mut txn: Transaction, reason: Option<&Error>) {
        let cc = &self.inner.cc;
        cc.before_undo(&mut txn);
        let _ = self.inner.storage.rollback_writes(txn.id, txn.write_set());
        cc.after_undo(&txn);
        cc.locks().release_all(&txn);
        cc.finished(&txn, false);
        self.inner.trx_sys.finish(txn.id, None);
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
        let result = self.inner.cc.execute_program(self, program);
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

    /// Runs a program statement by statement through the session API.
    pub(crate) fn run_session(&self, program: &TxnProgram) -> Result<ProgramOutcome> {
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
                    let row = self.inner.filled_row(*table, *pk, *fill);
                    self.insert(&mut txn, *table, row)
                }
                Operation::Work { micros } => {
                    txsql_common::latency::simulate_delay(std::time::Duration::from_micros(
                        *micros,
                    ));
                    Ok(())
                }
                Operation::ForcedRollback => {
                    let err = Error::ExplicitRollback { txn: txn.id };
                    self.rollback(txn, Some(&err));
                    return Ok(ProgramOutcome {
                        reads,
                        committed: false,
                    });
                }
            };
            if let Err(err) = step {
                self.rollback(txn, Some(&err));
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
        self.stop_sweeper();
    }
}
