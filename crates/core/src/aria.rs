//! Aria: batched deterministic execution (the SOTA deterministic baseline,
//! \[43\] in the paper).
//!
//! Transactions are collected into batches.  Every transaction in a batch
//! *executes against the same committed snapshot* (reads never block), its
//! writes are buffered as reservations, and a deterministic validation pass
//! aborts transactions with write–write conflicts (a smaller-indexed
//! transaction reserved the same key) or read-after-write conflicts (it read
//! a key a smaller-indexed transaction wrote).  Survivors are applied and
//! committed in batch order; aborted transactions are retried by the caller
//! in a later batch.
//!
//! Fidelity notes (documented in `DESIGN.md`): batch execution is performed
//! by the thread that happens to become batch leader, so Aria's throughput in
//! this reproduction is roughly flat as the client thread count grows —
//! matching the qualitative behaviour the paper reports ("maintained stable
//! TPS as the number of threads increased") without reproducing Aria's
//! intra-batch parallelism.

use crate::database::Database;
use crate::hooks::{BinlogTxn, CommitHook};
use crate::program::{Operation, ProgramOutcome, TxnProgram};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::FxHashMap;
use txsql_common::time::SimInstant;
use txsql_common::{Error, Result, Row, TableId};
use txsql_lockmgr::event::OsEvent;
use txsql_storage::version::ReadCommitted;

struct AriaJob {
    program: TxnProgram,
    submitted: SimInstant,
    result: Arc<Mutex<Option<Result<ProgramOutcome>>>>,
    done: Arc<OsEvent>,
}

/// The Aria batch coordinator.
///
/// Jobs are handed off through an (instrumented) unbounded channel and the
/// first submitter to win the `batch_running` flag becomes the batch leader
/// and drains it.  Both the hand-off and the batch-boundary clock run on sim
/// primitives (`SimInstant`, channel yield points), so batch formation races
/// — who joins a batch, who leads it, where the boundary falls — are explored
/// deterministically under `txsql-sim` (`crates/core/tests/sim_aria.rs`).
pub struct AriaCoordinator {
    batch_size: usize,
    batch_wait: Duration,
    jobs_tx: Sender<AriaJob>,
    jobs_rx: Receiver<AriaJob>,
    batch_running: AtomicBool,
}

impl std::fmt::Debug for AriaCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AriaCoordinator")
            .field("batch_size", &self.batch_size)
            .finish()
    }
}

impl AriaCoordinator {
    /// Creates a coordinator with the given batch size.
    pub fn new(batch_size: usize) -> Self {
        let (jobs_tx, jobs_rx) = crossbeam::channel::unbounded();
        Self {
            batch_size: batch_size.max(1),
            batch_wait: Duration::from_micros(200),
            jobs_tx,
            jobs_rx,
            batch_running: AtomicBool::new(false),
        }
    }

    /// Submits a program and blocks until its batch has been processed.
    pub fn execute(&self, db: &Database, program: &TxnProgram) -> Result<ProgramOutcome> {
        let result: Arc<Mutex<Option<Result<ProgramOutcome>>>> = Arc::new(Mutex::new(None));
        let done = OsEvent::new();
        self.jobs_tx
            .send(AriaJob {
                program: program.clone(),
                submitted: SimInstant::now(),
                result: Arc::clone(&result),
                done: Arc::clone(&done),
            })
            .unwrap_or_else(|_| unreachable!("coordinator keeps both channel ends alive"));
        let mut waited_since = SimInstant::now();
        loop {
            if let Some(outcome) = result.lock().take() {
                return outcome;
            }
            // Try to become the batch leader.  The batch boundary is decided
            // on the (virtual under sim) clock: a full batch forms
            // immediately, a partial one after `batch_wait`.
            let batch_ready =
                self.jobs_rx.len() >= self.batch_size || waited_since.elapsed() >= self.batch_wait;
            if batch_ready
                && !self.jobs_rx.is_empty()
                && self
                    .batch_running
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                // Leader: drain everything queued at this boundary.  A racing
                // leader may have emptied the channel first, in which case
                // this batch is vacuous and the flag is simply released.
                let mut jobs = Vec::new();
                while let Ok(job) = self.jobs_rx.try_recv() {
                    jobs.push(job);
                }
                if !jobs.is_empty() {
                    self.run_batch(db, jobs);
                    self.batch_running.store(false, Ordering::Release);
                    waited_since = SimInstant::now();
                    continue;
                }
                self.batch_running.store(false, Ordering::Release);
            }
            let _ = done.wait_for(self.batch_wait);
            done.reset();
        }
    }

    /// Executes one deterministic batch: snapshot execution, validation,
    /// ordered apply.
    fn run_batch(&self, db: &Database, jobs: Vec<AriaJob>) {
        let inner = &db.inner;
        // Phase 1: execute against the committed snapshot, buffering writes.
        struct Executed {
            reads: Vec<i64>,
            read_keys: Vec<(TableId, i64)>,
            writes: Vec<(TableId, i64, Row)>,
            forced_rollback: bool,
        }
        let mut executed: Vec<Executed> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let mut reads = Vec::new();
            let mut read_keys = Vec::new();
            let mut writes: FxHashMap<(TableId, i64), Row> = FxHashMap::default();
            let mut forced_rollback = false;
            for op in &job.program.operations {
                match op {
                    Operation::Read { table, pk } | Operation::SelectForUpdate { table, pk } => {
                        read_keys.push((*table, *pk));
                        if let Ok(record) = db.record_id(*table, *pk) {
                            if let Ok(Some(row)) =
                                inner.storage.read_visible(*table, record, &ReadCommitted)
                            {
                                reads.push(row.get_int(1).unwrap_or_default());
                            }
                        }
                        inner.metrics.queries.inc();
                    }
                    Operation::UpdateAdd {
                        table,
                        pk,
                        column,
                        delta,
                    } => {
                        inner.metrics.queries.inc();
                        let key = (*table, *pk);
                        let base = if let Some(pending) = writes.get(&key) {
                            Some(pending.clone())
                        } else if let Ok(record) = db.record_id(*table, *pk) {
                            inner
                                .storage
                                .read_visible(*table, record, &ReadCommitted)
                                .ok()
                                .flatten()
                        } else {
                            None
                        };
                        if let Some(mut row) = base {
                            row.add_int(*column, *delta);
                            writes.insert(key, row);
                        }
                        read_keys.push(key);
                    }
                    Operation::Insert { table, pk, fill } => {
                        inner.metrics.queries.inc();
                        let n_cols = inner
                            .storage
                            .table(*table)
                            .map(|t| t.schema().n_columns)
                            .unwrap_or(2);
                        let mut cols = vec![*pk];
                        cols.resize(n_cols, *fill);
                        writes.insert((*table, *pk), Row::from_ints(&cols));
                    }
                    Operation::Work { micros } => {
                        txsql_common::latency::simulate_delay(std::time::Duration::from_micros(
                            *micros,
                        ));
                    }
                    Operation::ForcedRollback => {
                        forced_rollback = true;
                    }
                }
            }
            let writes: Vec<(TableId, i64, Row)> = writes
                .into_iter()
                .map(|((t, pk), row)| (t, pk, row))
                .collect();
            executed.push(Executed {
                reads,
                read_keys,
                writes,
                forced_rollback,
            });
        }

        // Validation: write reservations go to the smallest batch index.
        let mut reservations: FxHashMap<(TableId, i64), usize> = FxHashMap::default();
        for (idx, exec) in executed.iter().enumerate() {
            if exec.forced_rollback {
                continue;
            }
            for (table, pk, _) in &exec.writes {
                reservations.entry((*table, *pk)).or_insert(idx);
            }
        }
        let mut aborted = vec![false; executed.len()];
        for (idx, exec) in executed.iter().enumerate() {
            if exec.forced_rollback {
                continue;
            }
            let waw = exec.writes.iter().any(|(t, pk, _)| {
                reservations
                    .get(&(*t, *pk))
                    .is_some_and(|owner| *owner < idx)
            });
            let raw = exec.read_keys.iter().any(|(t, pk)| {
                reservations
                    .get(&(*t, *pk))
                    .is_some_and(|owner| *owner < idx)
            });
            aborted[idx] = waw || raw;
        }

        // Phase 2: apply survivors in batch order.
        let hooks = Arc::clone(&inner.hooks.read());
        for (idx, (job, exec)) in jobs.iter().zip(executed.iter()).enumerate() {
            if exec.forced_rollback {
                inner.metrics.aborted.inc();
                inner.metrics.abort_causes.record("explicit_rollback");
                *job.result.lock() = Some(Ok(ProgramOutcome {
                    reads: exec.reads.clone(),
                    committed: false,
                }));
                job.done.set();
                continue;
            }
            if aborted[idx] {
                inner.metrics.aborted.inc();
                let txn_id = txsql_common::TxnId(0);
                inner
                    .metrics
                    .abort_causes
                    .record(Error::AriaValidationFailed { txn: txn_id }.label());
                *job.result.lock() = Some(Err(Error::AriaValidationFailed { txn: txn_id }));
                job.done.set();
                continue;
            }
            let outcome = self.apply_job(db, exec.reads.clone(), &exec.writes, job, &hooks);
            *job.result.lock() = Some(outcome);
            job.done.set();
        }
    }

    fn apply_job(
        &self,
        db: &Database,
        reads: Vec<i64>,
        writes: &[(TableId, i64, Row)],
        job: &AriaJob,
        hooks: &[Arc<dyn CommitHook>],
    ) -> Result<ProgramOutcome> {
        let inner = &db.inner;
        let mut txn = db.begin();
        let mut changes = Vec::new();
        let mut write_set = Vec::new();
        for (table, pk, row) in writes {
            match db.record_id(*table, *pk) {
                Ok(record) => {
                    inner
                        .storage
                        .apply_update(txn.id, *table, record, row.clone())?;
                    write_set.push((*table, record));
                }
                Err(_) => {
                    let (record, _) = inner.storage.apply_insert(txn.id, *table, row.clone())?;
                    write_set.push((*table, record));
                }
            }
            txn.record_write(*table, write_set.last().unwrap().1);
            changes.push((*table, *pk, row.clone()));
        }
        let trx_no = inner.trx_sys.allocate_trx_no();
        let lsn = inner.storage.commit_writes(txn.id, trx_no, &write_set)?;
        let binlog = BinlogTxn {
            txn: txn.id,
            trx_no,
            changes,
            involves_hotspot: false,
        };
        let pipeline_result = inner
            .pipeline
            .commit(inner.storage.redo(), lsn, binlog, hooks);
        inner.trx_sys.finish(txn.id, Some(trx_no));
        txn.state = txsql_txn::TxnState::Committed;
        if let Err(err) = pipeline_result {
            // The flush failed (injected crash / read-only): stamped in
            // memory but not durable — do not acknowledge the commit.
            inner.metrics.abort_causes.record(err.label());
            return Err(err);
        }
        inner.metrics.committed.inc();
        inner.metrics.txn_latency.record(job.submitted.elapsed());
        Ok(ProgramOutcome {
            reads,
            committed: true,
        })
    }
}
