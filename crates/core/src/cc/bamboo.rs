//! Bamboo \[29\]: O1's lock acquisition, taken again by every write, but the
//! record lock is released right after the update (early lock release).  A
//! later writer that stacks on the uncommitted head takes a commit
//! dependency on its writer: it may not order its commit record before that
//! writer's outcome is final, and cascades if the writer aborts.  A dependency that would close a cycle —
//! its writer already waits, however indirectly, for the reader's outcome —
//! is refused before the read: every member of such a cycle would otherwise
//! wait out its timeout and cascade the others.

use super::{lock_row, ConcurrencyControl, LockTable};
use crate::database::DbInner;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{FxHashMap, FxHashSet};
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, TableId, TxnId};
use txsql_lockmgr::{LightweightLockTable, OsEvent};
use txsql_txn::{DirtyRead, Transaction};

/// Completion payload: the writer committed.
const COMMITTED: u32 = 1;
/// Completion payload: the writer rolled back; its dependents cascade.
const ABORTED: u32 = 2;

/// Per active transaction: its completion event, and the writers whose
/// dirty data it read.
type Completions = FxHashMap<TxnId, (Arc<OsEvent>, Vec<TxnId>)>;

pub(super) struct Bamboo {
    pub(super) locks: LightweightLockTable,
    /// The completion event of every *active* transaction, with the writers
    /// whose dirty data it read: a dependent clones its writer's event when
    /// it reads the writer's dirty version, and the writer posts
    /// [`COMMITTED`] or [`ABORTED`] to it — and leaves this map — once its
    /// outcome is final.  A dependent's wait is then one park on the event it
    /// holds; the event dies with its last dependent.
    pub(super) completions: Mutex<Completions>,
    /// How long a commit waits for the writers it depends on.
    pub(super) dependency_timeout: Duration,
}

impl ConcurrencyControl for Bamboo {
    fn begin(&self, txn: &Transaction) {
        let completion = OsEvent::acquire_pooled();
        self.completions
            .lock()
            .insert(txn.id, (completion, Vec::new()));
    }

    /// Locks the row — a second write of it too, since a writer may have
    /// stacked on the first once its lock went back, and without noting the
    /// lock as held, since `after_write` gives it back — then takes `txn`'s
    /// commit dependency on the writer of the row's uncommitted head, if it
    /// has one — before the read, so that should the head change in between,
    /// the writer depended on has finished and its outcome decides ours.  A writer leaves `completions`
    /// only after its versions were stamped or undone, so one that is no
    /// longer there is no longer the head's uncommitted writer either: look
    /// again.
    fn acquire_for_write(
        &self,
        db: &DbInner,
        txn: &mut Transaction,
        table: TableId,
        record: RecordId,
    ) -> Result<()> {
        lock_row(&self.locks, txn, record, None)?;
        while let Some(writer) = db.storage.latest_writer(table, record)? {
            if writer == txn.id {
                break;
            }
            let mut completions = self.completions.lock();
            if let Some((completion, _)) = completions.get(&writer) {
                let completion = Arc::clone(completion);
                if waits_for(&completions, writer, txn.id) {
                    return Err(Error::Deadlock { txn: txn.id });
                }
                let (_, reads_from) = completions.get_mut(&txn.id).expect("begun");
                reads_from.push(writer);
                drop(completions);
                txn.record_dirty_read_from(DirtyRead {
                    writer,
                    record,
                    completion,
                });
                break;
            }
        }
        Ok(())
    }

    /// The 2PL violation that gives early lock release its name.
    fn after_write(&self, txn: &Transaction, record: RecordId) {
        self.locks
            .release_record_locks_in(txn.id, &[record], txn.metrics());
    }

    /// Waits for the outcome of every writer whose dirty data `txn` read —
    /// one park per dependency, woken by that writer's `finished`.  An I/O
    /// wait: the outcome is posted after the writer's flush.
    fn before_order(&self, txn: &mut Transaction) -> Result<()> {
        // SimInstant: under deterministic simulation this deadline lives on
        // the scheduler's virtual clock, so the timeout path is explorable.
        let deadline = SimInstant::now() + self.dependency_timeout;
        for read in txn.dirty_reads_from() {
            let remaining = deadline.saturating_duration_since(SimInstant::now());
            let _ = read.completion.wait_for(remaining);
            let (txn, cause, record) = (txn.id, read.writer, read.record);
            match read.completion.payload() {
                Some(COMMITTED) => {}
                Some(_) => return Err(Error::DirtyReadAborted { txn, cause }),
                None => return Err(Error::LockWaitTimeout { txn, record }),
            }
        }
        Ok(())
    }

    /// Posts the outcome to the transactions that read `txn`'s dirty data
    /// and forgets the completion (they keep the event alive for as long as
    /// they need it).
    fn finished(&self, txn: &Transaction, committed: bool) {
        let completion = self.completions.lock().remove(&txn.id);
        if let Some((completion, _)) = completion {
            completion.set_with(if committed { COMMITTED } else { ABORTED });
            OsEvent::recycle(completion);
        }
    }

    fn locks(&self) -> &dyn LockTable {
        &self.locks
    }

    fn live_entries(&self) -> usize {
        self.completions.lock().len()
    }
}

/// Whether `from` waits for `target`'s outcome: read its dirty data, or that
/// of a writer that does (a finished writer waits for nobody).
fn waits_for(completions: &Completions, from: TxnId, target: TxnId) -> bool {
    let (mut stack, mut seen) = (vec![from], FxHashSet::default());
    while let Some(txn) = stack.pop() {
        if txn == target {
            return true;
        }
        if seen.insert(txn) {
            stack.extend(completions.get(&txn).into_iter().flat_map(|(_, r)| r));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::OsEvent;
    use crate::config::Protocol;
    use crate::database::Database;
    use crate::program::{Operation, TxnProgram};
    use std::sync::Arc;
    use txsql_common::{Error, RecordId, Result, Row, TableId};
    use txsql_storage::TableSchema;

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
            assert_eq!(db.inner.cc.live_entries(), tracked, "{protocol:?}");
            db.rollback(open, None);
            assert_eq!(db.inner.cc.live_entries(), 0, "{protocol:?}");
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
        let completion = Arc::downgrade(&dependent.dirty_reads_from()[0].completion);
        assert_eq!(dependent.dirty_reads_from()[0].writer, writer.id);
        let pooled_before = OsEvent::pooled_count();

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
        assert_eq!(db.inner.cc.live_entries(), 0);
        // The event is freed with its last dependent — or, when the dependent
        // was gone before the writer let go of it, back in the writer's (this)
        // thread's pool, which then holds the only reference.
        let pooled = OsEvent::pooled_count() - pooled_before;
        assert_eq!(completion.strong_count(), pooled, "completion event leaked");
        let row = db
            .storage()
            .read_committed(TableId(1), RecordId::new(1, 0, 0));
        let expected = if writer_commits { 6 } else { 0 };
        assert_eq!(row.unwrap().unwrap().get_int(1), Some(expected));
        db.shutdown();
        result
    }

    #[test]
    fn a_dependency_that_would_close_a_cycle_is_refused_before_the_read() {
        let db = one_row(Protocol::Bamboo);
        db.load_row(TableId(1), Row::from_ints(&[1, 0])).unwrap();
        let (mut t1, mut t2) = (db.begin(), db.begin());
        db.update_add(&mut t1, TableId(1), 0, 1, 1).unwrap();
        db.update_add(&mut t2, TableId(1), 1, 1, 1).unwrap();
        // T1 reads T2's dirty row 1, so T1 waits for T2; T2 reading T1's
        // dirty row 0 would make T2 wait for T1.
        db.update_add(&mut t1, TableId(1), 1, 1, 1).unwrap();
        let err = db.update_add(&mut t2, TableId(1), 0, 1, 1).unwrap_err();
        assert!(matches!(err, Error::Deadlock { .. }), "{err:?}");
        db.rollback(t2, Some(&err));
        let err = db.commit(t1).unwrap_err();
        assert!(matches!(err, Error::DirtyReadAborted { .. }), "{err:?}");
        assert_eq!(db.inner.cc.live_entries(), 0);
        db.shutdown();
    }

    #[test]
    fn bamboo_dependent_wakes_on_its_writers_commit_and_abort() {
        dependent_outcome(true).unwrap();
        let err = dependent_outcome(false).unwrap_err();
        assert!(matches!(err, Error::DirtyReadAborted { .. }), "{err:?}");
    }
}
