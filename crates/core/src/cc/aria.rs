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
//! Fidelity note: batch execution is performed by the thread that happens to
//! become batch leader, so Aria's throughput in this reproduction is roughly
//! flat as the client thread count grows — matching the qualitative
//! behaviour the paper reports ("maintained stable TPS as the number of
//! threads increased") without reproducing Aria's intra-batch parallelism.
//!
//! Programs never touch the lock table.  The explicit session API still
//! works under Aria and is plain 2PL on a lightweight table of its own.

use super::{ConcurrencyControl, LockTable, TwoPhase};
use crate::database::{Database, DbInner};
use crate::program::{Operation, ProgramOutcome, TxnProgram};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::fxhash::FxHashMap;
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, Row, TableId, TxnId};
use txsql_lockmgr::event::OsEvent;
use txsql_lockmgr::lightweight::FlatLayout;
use txsql_lockmgr::LightweightLockTable;
use txsql_txn::Transaction;

struct AriaJob {
    program: TxnProgram,
    submitted: Instant,
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
pub(super) struct Aria {
    /// The explicit session API: plain 2PL, never used by a batch.
    session: TwoPhase<FlatLayout>,
    batch_size: usize,
    batch_wait: Duration,
    jobs_tx: Sender<AriaJob>,
    jobs_rx: Receiver<AriaJob>,
    batch_running: AtomicBool,
}

impl ConcurrencyControl for Aria {
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()> {
        self.session.acquire_for_write(db, txn, table, record)
    }

    /// Submits a program and blocks until its batch has been processed.
    fn execute_program(&self, db: &Database, program: &TxnProgram) -> Result<ProgramOutcome> {
        let result: Arc<Mutex<Option<Result<ProgramOutcome>>>> = Arc::new(Mutex::new(None));
        let done = OsEvent::new();
        self.jobs_tx
            .send(AriaJob {
                program: program.clone(),
                submitted: Instant::now(),
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

    fn locks(&self) -> &dyn LockTable {
        self.session.locks()
    }
}

impl Aria {
    pub(super) fn new(locks: LightweightLockTable, batch_size: usize) -> Self {
        let (jobs_tx, jobs_rx) = crossbeam::channel::unbounded();
        Self {
            session: TwoPhase { locks },
            batch_size: batch_size.max(1),
            batch_wait: Duration::from_micros(200),
            jobs_tx,
            jobs_rx,
            batch_running: AtomicBool::new(false),
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
        let committed_row = |table: TableId, pk: i64| {
            let record = db.record_id(table, pk).ok()?;
            inner.storage.read_committed(table, record).ok().flatten()
        };
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
                        if let Some(row) = committed_row(*table, *pk) {
                            reads.push(row.get_int(1).unwrap_or_default());
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
                        let pending = writes.get(&key).cloned();
                        if let Some(mut row) = pending.or_else(|| committed_row(*table, *pk)) {
                            row.add_int(*column, *delta);
                            writes.insert(key, row);
                        }
                        read_keys.push(key);
                    }
                    Operation::Insert { table, pk, fill } => {
                        inner.metrics.queries.inc();
                        writes.insert((*table, *pk), inner.filled_row(*table, *pk, *fill));
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
        for (idx, (job, exec)) in jobs.iter().zip(executed.iter()).enumerate() {
            let outcome = if exec.forced_rollback {
                inner.metrics.aborted.inc();
                inner.metrics.abort_causes.record("explicit_rollback");
                Ok(ProgramOutcome {
                    reads: exec.reads.clone(),
                    committed: false,
                })
            } else if aborted[idx] {
                let err = Error::AriaValidationFailed { txn: TxnId(0) };
                inner.metrics.aborted.inc();
                inner.metrics.abort_causes.record(err.label());
                Err(err)
            } else {
                Self::apply_job(db, exec.reads.clone(), &exec.writes, job)
            };
            *job.result.lock() = Some(outcome);
            job.done.set();
        }
    }

    /// Applies a surviving job's buffered writes and commits them through
    /// the engine's one commit path.
    fn apply_job(
        db: &Database,
        reads: Vec<i64>,
        writes: &[(TableId, i64, Row)],
        job: &AriaJob,
    ) -> Result<ProgramOutcome> {
        let storage = &db.inner.storage;
        let mut txn = db.begin();
        // The transaction's latency counts its wait for the batch.
        txn.started_at = job.submitted;
        if !writes.is_empty() {
            db.begin_write(&mut txn);
        }
        for (table, pk, row) in writes {
            let applied = match db.record_id(*table, *pk) {
                Ok(record) => storage
                    .apply_update(txn.id, *table, record, row.clone())
                    .map(|_| record),
                Err(_) => storage
                    .apply_insert(txn.id, *table, row.clone())
                    .map(|(record, _)| record),
            };
            match applied {
                Ok(record) => txn.record_write(*table, record),
                Err(err) => {
                    db.rollback(txn, Some(&err));
                    return Err(err);
                }
            }
            txn.record_change(*table, *pk, row.clone());
        }
        db.commit(txn)?;
        Ok(ProgramOutcome {
            reads,
            committed: true,
        })
    }
}
