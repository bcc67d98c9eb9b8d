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
//! Each job is one engine transaction: phase 1 reads through
//! `Database::read`, so the history records what it read and from whom, and
//! phase 2 commits it or ends it through `Database::rollback`.  Aria runs
//! programs only.  A batch writes without locks, so the session API keeps
//! its reads and `acquire_for_write` refuses its `UPDATE` and `SELECT … FOR
//! UPDATE` (an `INSERT` asks no protocol, and is not refused yet); the lock
//! table the engine's release path asks for stays empty.

use super::{ConcurrencyControl, LockTable};
use crate::database::{Database, DbInner};
use crate::program::{Operation, ProgramOutcome, TxnProgram};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::fxhash::FxHashMap;
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, Row, TableId};
use txsql_lockmgr::event::OsEvent;
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
    /// What `locks()` answers; nothing is ever locked in it.
    locks: LightweightLockTable,
    batch_size: usize,
    batch_wait: Duration,
    jobs_tx: Sender<AriaJob>,
    jobs_rx: Receiver<AriaJob>,
    batch_running: AtomicBool,
}

impl ConcurrencyControl for Aria {
    /// Refuses a session write before it touches the row: a batch applies
    /// its writes without locks, over whatever the row holds.
    fn acquire_for_write(
        &self,
        _db: &DbInner,
        _txn: &mut Transaction,
        _table: TableId,
        _record: RecordId,
    ) -> Result<()> {
        Err(Error::Unsupported {
            what: "a session write under Aria, which runs whole programs only",
        })
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
        &self.locks
    }
}

impl Aria {
    pub(super) fn new(locks: LightweightLockTable, batch_size: usize) -> Self {
        let (jobs_tx, jobs_rx) = crossbeam::channel::unbounded();
        Self {
            locks,
            batch_size: batch_size.max(1),
            batch_wait: Duration::from_micros(200),
            jobs_tx,
            jobs_rx,
            batch_running: AtomicBool::new(false),
        }
    }

    /// Executes one deterministic batch: snapshot execution, validation,
    /// ordered apply.  Each job is one engine transaction, from its first
    /// read to its commit or rollback.
    fn run_batch(&self, db: &Database, jobs: Vec<AriaJob>) {
        // Phase 1: execute against the committed snapshot, buffering writes.
        struct Executed {
            txn: Transaction,
            reads: Vec<i64>,
            read_keys: Vec<(TableId, i64)>,
            writes: FxHashMap<(TableId, i64), Row>,
            forced_rollback: bool,
        }
        let mut executed: Vec<Executed> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let mut txn = db.begin();
            // The transaction's latency counts its wait for the batch.
            txn.started_at = job.submitted;
            let mut reads = Vec::new();
            let mut read_keys = Vec::new();
            let mut writes: FxHashMap<(TableId, i64), Row> = FxHashMap::default();
            let mut forced_rollback = false;
            for op in &job.program.operations {
                match op {
                    Operation::Read { table, pk } | Operation::SelectForUpdate { table, pk } => {
                        read_keys.push((*table, *pk));
                        if let Ok(row) = db.read(&mut txn, *table, *pk) {
                            reads.push(row.get_int(1).unwrap_or_default());
                        }
                    }
                    Operation::UpdateAdd {
                        table,
                        pk,
                        column,
                        delta,
                    } => {
                        // Read even a row this job already wrote: one query
                        // per statement; the buffered row is the newer one.
                        let key = (*table, *pk);
                        let base = db.read(&mut txn, *table, *pk).ok();
                        if let Some(mut row) = writes.get(&key).cloned().or(base) {
                            row.add_int(*column, *delta);
                            writes.insert(key, row);
                        }
                        read_keys.push(key);
                    }
                    Operation::Insert { table, pk, fill } => {
                        txn.metrics().queries.inc();
                        writes.insert((*table, *pk), db.inner.filled_row(*table, *pk, *fill));
                    }
                    Operation::Work { micros } => {
                        txsql_common::latency::simulate_delay(Duration::from_micros(*micros));
                    }
                    Operation::ForcedRollback => {
                        forced_rollback = true;
                    }
                }
            }
            executed.push(Executed {
                txn,
                reads,
                read_keys,
                writes,
                forced_rollback,
            });
        }

        // Validation: write reservations go to the smallest batch index; a
        // job aborts if a smaller index reserved a key it writes or reads.
        let mut reservations: FxHashMap<(TableId, i64), usize> = FxHashMap::default();
        for (idx, exec) in executed.iter().enumerate() {
            if !exec.forced_rollback {
                for key in exec.writes.keys() {
                    reservations.entry(*key).or_insert(idx);
                }
            }
        }

        // Phase 2: apply survivors in batch order.
        for (idx, (job, exec)) in jobs.iter().zip(executed).enumerate() {
            let mut keys = exec.writes.keys().chain(&exec.read_keys);
            let conflict = keys.any(|key| reservations.get(key).is_some_and(|owner| *owner < idx));
            let reads = exec.reads;
            let outcome = if exec.forced_rollback {
                db.rollback(exec.txn, None);
                Ok(ProgramOutcome {
                    reads,
                    committed: false,
                })
            } else if conflict {
                let err = Error::AriaValidationFailed { txn: exec.txn.id };
                db.rollback(exec.txn, Some(&err));
                Err(err)
            } else {
                Self::apply_job(db, exec.txn, exec.writes).map(|()| ProgramOutcome {
                    reads,
                    committed: true,
                })
            };
            *job.result.lock() = Some(outcome);
            job.done.set();
        }
    }

    /// Applies a surviving job's buffered writes on its transaction and
    /// commits it through the engine's one commit path.
    fn apply_job(
        db: &Database,
        mut txn: Transaction,
        writes: FxHashMap<(TableId, i64), Row>,
    ) -> Result<()> {
        let storage = &db.inner.storage;
        for ((table, pk), row) in writes {
            db.begin_write(&mut txn);
            let applied = match db.record_id(table, pk) {
                Ok(record) => storage
                    .apply_update(txn.id, table, record, row)
                    .map(|_| record),
                Err(_) => storage
                    .apply_insert(txn.id, table, row)
                    .map(|(record, _)| record),
            };
            match applied {
                Ok(record) => txn.record_write(table, record),
                Err(err) => {
                    db.keep_stacked_write(&mut txn, table, pk);
                    db.rollback(txn, Some(&err));
                    return Err(err);
                }
            }
        }
        db.commit(txn)
    }
}
