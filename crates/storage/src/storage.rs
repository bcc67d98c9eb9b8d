//! The storage facade used by the transaction layer.
//!
//! [`Storage`] owns the tables, the redo log and the undo log, and exposes the
//! transactional primitives the concurrency-control protocols in `txsql-core`
//! are built from:
//!
//! * `begin_txn` — give a transaction its one storage entry, a lower bound
//!   of its first LSN; called ahead of the first write, so a transaction
//!   that only reads leaves no trace here, and in the log a transaction
//!   begins with its first frame;
//! * `update_row` / `apply_insert` — write an uncommitted version and append
//!   physical redo: the row image, which names its table and carries the
//!   row's integers, nothing else (`update_row` is the whole
//!   read-modify-write under one latch hold; `apply_update` is the same with
//!   the new image in hand);
//! * `commit_writes` — stamp the versions of the write set with a commit
//!   sequence number, purge what no read view can select any more, and
//!   append the commit marker;
//! * `rollback_writes` — pop the versions of the same write set (the chain
//!   is the undo image) and append the rollback marker;
//! * `set_hot_update_order` — log the hot-update order in an undo header so
//!   crash recovery can order hotspot rollbacks (§5.3); an update of the hot
//!   row carries it instead (`update_row`);
//! * `checkpoint` — capture the committed state, the starting point for the
//!   failure-recovery experiment (§6.4.6).
//!
//! # What is shared
//!
//! Tables are created and never dropped, so the catalog is an append-only
//! [`Directory`] and [`Storage::table`] lends out `&Table` without a lock
//! (likewise [`Table::slot`], see [`crate::table`]).  A transaction's one
//! entry lives in the sharded `UndoLog`, which only `begin_txn` and the
//! commit or rollback that ends the transaction take, on the transaction's
//! own shard; a write statement takes the row's latch and nothing else.
//! What every writer still shares is the redo log's tail word (one
//! compare-and-swap per reservation, no lock) and the apply latch's read
//! side.

use crate::directory::Directory;
use crate::fault::{CrashPoint, FaultInjector};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::undo::{UndoHeader, UndoLog};
use crate::version::{ReadCommitted, RecordVersions, VisibilityJudge};
use crate::wal::{RedoLog, RedoRecord};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::{Error, Lsn, RecordId, Result, Row, TableId, TxnId};

/// A consistent image of the committed data, used as the recovery baseline.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// LSN up to which the checkpoint reflects the log.
    pub lsn: Lsn,
    /// Every table's schema and its committed rows.
    pub tables: Vec<(TableSchema, Vec<Row>)>,
}

/// The storage engine facade.
#[derive(Debug)]
pub struct Storage {
    /// The catalog, in creation order (a handful of tables: lookups scan).
    tables: Directory<Table>,
    redo: RedoLog,
    /// The first LSN of every unfinished *writing* transaction; the oldest is
    /// the floor checkpoint truncation must not cut past.
    undo: UndoLog,
    faults: Arc<FaultInjector>,
    /// Serialises commit *application* against checkpoint *capture*:
    /// `commit_writes` stamps a transaction's versions committed slot by
    /// slot, and a capture scanning rows in between would publish an image
    /// reflecting half a commit — unrecoverable once truncation drops the
    /// transaction's records.  Committers share the read side (they are
    /// already serialised per slot); the capture takes the write side.
    apply_latch: RwLock<()>,
    /// Purge floor `commit_writes` truncates version chains to (see
    /// [`crate::version`]).  Stays 0 — retain everything — until a
    /// transaction system publishes into it ([`Storage::with_purge_floor`]).
    purge_floor: Arc<AtomicU64>,
}

impl Default for Storage {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl Storage {
    /// Creates an empty storage engine whose redo flushes cost
    /// `fsync_latency` and that never experiences injected faults.
    pub fn new(fsync_latency: Duration) -> Self {
        Self::with_faults(fsync_latency, FaultInjector::disabled())
    }

    /// Creates an empty storage engine wired to a fault injector (shared with
    /// its redo log, so crash points fire consistently across both).
    pub fn with_faults(fsync_latency: Duration, faults: Arc<FaultInjector>) -> Self {
        Self {
            tables: Directory::default(),
            redo: RedoLog::with_faults(fsync_latency, Arc::clone(&faults)),
            undo: UndoLog::default(),
            faults,
            apply_latch: RwLock::new(()),
            purge_floor: Arc::default(),
        }
    }

    /// Attaches the watermark commit-time purge reads.  Its publisher
    /// guarantees that every transaction given a commit number at or below
    /// it has left the active set, with its effect on later read views
    /// ordered before the store (`Release`, paired with the `Acquire` load in
    /// [`Storage::commit_writes`]).
    pub fn with_purge_floor(mut self, floor: Arc<AtomicU64>) -> Self {
        self.purge_floor = floor;
        self
    }

    /// The fault injector shared by this storage engine and its redo log.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The floor below which checkpoint truncation must not cut the log: no
    /// frame of an unfinished transaction lies below it.
    pub fn active_txn_floor(&self) -> Option<Lsn> {
        self.undo.oldest_first_lsn()
    }

    /// Creates a table.  Returns an error if the id is already in use.
    pub fn create_table(&self, schema: TableSchema) -> Result<&Table> {
        let mut catalog = self.tables.grow();
        if self.table(schema.id).is_ok() {
            return Err(Error::Internal {
                reason: format!("{} already exists", schema.id),
            });
        }
        Ok(catalog.push(Table::new(schema)).1)
    }

    /// Looks up a table.  Lock-free, and the borrow lasts as long as the
    /// storage does: tables are never dropped.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .iter()
            .find(|table| table.schema().id == id)
            .ok_or(Error::UnknownTable { table: id })
    }

    /// All tables, in id order.
    pub fn tables(&self) -> Vec<&Table> {
        let mut tables: Vec<&Table> = self.tables.iter().collect();
        tables.sort_by_key(|t| t.schema().id);
        tables
    }

    /// The redo log.
    pub fn redo(&self) -> &RedoLog {
        &self.redo
    }

    // ---------------------------------------------------------------------
    // Non-transactional helpers (bulk load, reads)
    // ---------------------------------------------------------------------

    /// Bulk-loads a committed row without logging (the checkpoint captures
    /// loaded data instead, as a real system's initial backup would).
    pub fn load_row(&self, table: TableId, row: Row) -> Result<RecordId> {
        self.table(table)?.insert_committed(row)
    }

    /// Reads the newest (possibly uncommitted) row image together with its
    /// writer (`TxnId::INVALID` for a bulk-loaded base version), in a single
    /// slot read — the locked-read hot path records both.
    pub fn read_latest_with_writer(
        &self,
        table: TableId,
        record: RecordId,
    ) -> Result<(Row, TxnId)> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        guard
            .latest()
            .map(|v| (v.row.clone(), v.writer))
            .ok_or(Error::UnknownRecord { record })
    }

    /// The MVCC read path: takes the record's latch, *then* builds the read
    /// view with `view`, and returns the newest version visible to it with
    /// its writer.  Purge runs under the same latch's write side, so the view
    /// is newer than every purge the chain has seen — the condition under
    /// which the purge floor is safe (see [`crate::version`]).
    pub fn read_snapshot<J: VisibilityJudge>(
        &self,
        table: TableId,
        record: RecordId,
        view: impl FnOnce() -> J,
    ) -> Result<Option<(Row, TxnId)>> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        Ok(guard.visible(&view()).map(|v| (v.row.clone(), v.writer)))
    }

    /// Reads the newest *committed* row image.
    pub fn read_committed(&self, table: TableId, record: RecordId) -> Result<Option<Row>> {
        let read = self.read_snapshot(table, record, || ReadCommitted)?;
        Ok(read.map(|(row, _)| row))
    }

    /// Writer of the newest version of a record *if that version is still
    /// uncommitted* (the Bamboo dirty-read dependency signal).
    pub fn latest_writer(&self, table: TableId, record: RecordId) -> Result<Option<TxnId>> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        Ok(guard
            .latest()
            .filter(|v| !v.is_committed())
            .map(|v| v.writer))
    }

    // ---------------------------------------------------------------------
    // Transactional primitives
    // ---------------------------------------------------------------------

    /// Enters `txn` in the undo log ahead of its first write, stamped with
    /// the log's next LSN — a lower bound of its first frame's — under the
    /// shard lock and before that frame is reserved.  That keeps the
    /// checkpoint floor safe: a capture that read a log position covering
    /// the frame scans the shard after the stamp and finds it; a transaction
    /// begun after the scan has every frame above the position it read.  The
    /// log hears of the transaction with its first write; a transaction that
    /// never writes is never begun.  Every write primitive below expects its
    /// transaction begun.  Idempotent.
    pub fn begin_txn(&self, txn: TxnId) {
        self.undo.begin(txn, || Lsn(self.redo.latest_lsn().0 + 1));
    }

    /// The read-modify-write an update statement is: under **one** hold of
    /// the record's latch, `make` is shown the newest (possibly uncommitted)
    /// row image and returns the new one, which is stacked as `txn`'s
    /// uncommitted version.  The first write of a hot row the transaction
    /// joined carries its `hot_update_order` in an undo header (§5.3): the
    /// header and the update are one redo reservation, so they have
    /// consecutive LSNs.  Returns the redo LSN of the update.
    ///
    /// An error from the check after the append leaves the version stacked:
    /// the caller puts the row in its write set all the same, which is what
    /// rollback walks.
    pub fn update_row(
        &self,
        txn: TxnId,
        table_id: TableId,
        record: RecordId,
        hot_update_order: Option<u64>,
        make: impl FnOnce(&Row) -> Row,
    ) -> Result<Lsn> {
        self.redo.crash_point(CrashPoint::PreAppend)?;
        let slot = self.table(table_id)?.slot(record)?;
        let header = hot_update_order.map(UndoHeader::with_hot_update_order);
        let new_row = {
            let mut guard = slot.write();
            let head = guard.latest().ok_or(Error::UnknownRecord { record })?;
            let new_row = make(&head.row);
            if !RedoRecord::fits(&new_row) {
                let columns = new_row.len();
                return Err(Error::RowTooLarge { columns });
            }
            guard.push_uncommitted(new_row.clone(), txn);
            new_row
        };
        let update = RedoRecord::Image {
            txn,
            table: table_id,
            row: new_row,
        };
        let lsn = match header {
            Some(header) => {
                let field = header.raw();
                let header = RedoRecord::UndoHeader { txn, field };
                self.redo.append_pair(header, update)
            }
            None => self.redo.append(update),
        };
        self.redo.crash_point(CrashPoint::PostAppendPreFlush)?;
        Ok(lsn)
    }

    /// [`Storage::update_row`] with the new image in hand: stacks `new_row`
    /// whatever the newest version holds.
    pub fn apply_update(
        &self,
        txn: TxnId,
        table_id: TableId,
        record: RecordId,
        new_row: Row,
    ) -> Result<Lsn> {
        self.update_row(txn, table_id, record, None, |_| new_row)
    }

    /// Applies a transactional insert (uncommitted) and logs its image.  Like
    /// [`Storage::update_row`], an error from the check after the append
    /// leaves the row inserted.
    pub fn apply_insert(&self, txn: TxnId, table_id: TableId, row: Row) -> Result<(RecordId, Lsn)> {
        self.redo.crash_point(CrashPoint::PreAppend)?;
        let table = self.table(table_id)?;
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "insert without a primary key".into(),
        })?;
        if !RedoRecord::fits(&row) {
            let columns = row.len();
            return Err(Error::RowTooLarge { columns });
        }
        let record = table.insert_versions(pk, RecordVersions::new(row.clone(), txn, None))?;
        let lsn = self.redo.append(RedoRecord::Image {
            txn,
            table: table_id,
            row,
        });
        self.redo.crash_point(CrashPoint::PostAppendPreFlush)?;
        Ok((record, lsn))
    }

    /// Logs the hot-update order of `txn` in an undo header (§5.3) on its
    /// own — for a transaction that joined a hot row's group without writing
    /// the row yet (`SELECT ... FOR UPDATE`); an update carries it along
    /// ([`Storage::update_row`]).
    pub fn set_hot_update_order(&self, txn: TxnId, order: u64) -> Lsn {
        let field = UndoHeader::with_hot_update_order(order).raw();
        self.redo.append(RedoRecord::UndoHeader { txn, field })
    }

    /// Marks every version written by `txn` on the given records as committed
    /// with `trx_no`, purges each chain to the purge floor under the same
    /// latch, logs the undo header, ends the transaction's entry and appends
    /// the commit marker.
    /// Returns the LSN of the commit marker (the LSN the commit pipeline must
    /// make durable).
    pub fn commit_writes(
        &self,
        txn: TxnId,
        trx_no: u64,
        writes: &[(TableId, RecordId)],
    ) -> Result<Lsn> {
        self.redo.crash_point(CrashPoint::PreAppend)?;
        // Atomic with respect to checkpoint capture: a capture must see this
        // commit either fully applied (and deregistered from the floor) or
        // not at all — see `apply_latch`.
        let _apply = self.apply_latch.read();
        let floor = self.purge_floor.load(Ordering::Acquire);
        for (table_id, record) in writes {
            let mut guard = self.table(*table_id)?.slot(*record)?.write();
            guard.commit_writer(txn, trx_no);
            guard.purge_to_floor(floor);
        }
        // The header now carries the trx_no (§5.3).
        let field = UndoHeader::with_trx_no(trx_no).raw();
        let lsn = self.redo.append_pair(
            RedoRecord::UndoHeader { txn, field },
            RedoRecord::Commit { txn, trx_no },
        );
        self.undo.take(txn);
        // A crash here leaves the commit marker in the log buffer but never
        // flushed: the transaction was stamped in memory yet its commit is
        // not durable and must not be acknowledged.
        self.redo.crash_point(CrashPoint::PostAppendPreFlush)?;
        Ok(lsn)
    }

    /// Rolls back every change `txn` made to the records of its write set
    /// (each named once, as [`Storage::commit_writes`] takes it), ends its
    /// entry and appends the rollback marker.  Each record goes through
    /// `Table::rollback_writer`, the step recovery's replay takes too.
    ///
    /// Deliberately *not* gated on crash points or read-only degradation:
    /// rollback must keep working after an fsync failure degraded the engine
    /// (it only pops in-memory versions), and after a crash it is a harmless
    /// no-op on the dead process image.
    ///
    /// A transaction that changed nothing, or that a failed commit already
    /// ended (its versions are stamped), gets no marker: the returned LSN is
    /// then the log's current end.
    pub fn rollback_writes(&self, txn: TxnId, writes: &[(TableId, RecordId)]) -> Result<Lsn> {
        if self.undo.take(txn).is_none() || writes.is_empty() {
            return Ok(self.redo.latest_lsn());
        }
        for (table_id, record) in writes {
            self.table(*table_id)?.rollback_writer(*record, txn)?;
        }
        Ok(self.redo.append(RedoRecord::Rollback { txn }))
    }

    /// Purges a record with an unbounded floor: only its newest committed
    /// version and the uncommitted ones above it stay.  For a storage no
    /// transaction system is attached to (no reader can hold a snapshot).
    pub fn purge_record(&self, table: TableId, record: RecordId) -> Result<usize> {
        let slot = self.table(table)?.slot(record)?;
        let purged = slot.write().purge_to_floor(u64::MAX);
        Ok(purged)
    }

    // ---------------------------------------------------------------------
    // Checkpoint
    // ---------------------------------------------------------------------

    /// Captures the committed state of every table together with the current
    /// log position.  Recovery starts from this image and replays the durable
    /// redo suffix.
    pub fn checkpoint(&self) -> CheckpointImage {
        self.checkpoint_with_floor().0
    }

    /// [`Storage::checkpoint`] plus the active-transaction floor, both read
    /// under the apply latch so the image is a *consistent* snapshot:
    ///
    /// * no commit can apply mid-scan ([`Storage::commit_writes`] holds the
    ///   latch's read side across stamping every slot *and* deregistering
    ///   from the floor), so every transaction is either fully in the image
    ///   or not at all;
    /// * a transaction fully in the image has its records below the image
    ///   LSN covered (truncating them is safe, and replaying those that
    ///   survive rewrites, in log order, what the image already reflects);
    /// * a transaction not in the image is either still active — the floor
    ///   read *in the same critical section* protects its records from
    ///   truncation, so replay recovers it — or starts after the capture,
    ///   with all its records above the image LSN.
    ///
    /// Reading the floor outside the latch is the bug sim explorer v2
    /// caught (sim_crash seed 198): a transaction that began after an early
    /// floor read and finished applying mid-scan was half-captured by the
    /// image while truncation dropped its records.
    pub fn checkpoint_with_floor(&self) -> (CheckpointImage, Option<Lsn>) {
        let _latch = self.apply_latch.write();
        let lsn = self.redo.latest_lsn();
        let floor = self.active_txn_floor();
        let mut tables = Vec::new();
        for table in self.tables() {
            let mut rows = Vec::new();
            for (_, record) in table.all_record_ids() {
                if let Ok(slot) = table.slot(record) {
                    let guard = slot.read();
                    rows.extend(guard.visible(&ReadCommitted).map(|v| v.row.clone()));
                }
            }
            tables.push((table.schema().clone(), rows));
        }
        (CheckpointImage { lsn, tables }, floor)
    }

    /// Rebuilds a storage engine from a checkpoint image (no redo replay; see
    /// [`crate::recovery::recover`] for the full recovery path).
    pub fn from_checkpoint(image: &CheckpointImage, fsync_latency: Duration) -> Result<Self> {
        let storage = Storage::new(fsync_latency);
        for (schema, rows) in &image.tables {
            let table = storage.create_table(schema.clone())?;
            for row in rows {
                table.insert_committed(row.clone())?;
            }
        }
        Ok(storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `txn` sets the row's value.
    fn set(storage: &Storage, txn: TxnId, tid: TableId, rid: RecordId, value: i64) -> Lsn {
        let row = Row::from_ints(&[1, value]);
        storage.apply_update(txn, tid, rid, row).unwrap()
    }

    /// The row's newest committed value.
    fn committed(storage: &Storage, tid: TableId, rid: RecordId) -> Option<i64> {
        storage.read_committed(tid, rid).unwrap()?.get_int(1)
    }

    /// The row's newest value, committed or not.
    fn latest(storage: &Storage, tid: TableId, rid: RecordId) -> Option<i64> {
        let (row, _) = storage.read_latest_with_writer(tid, rid).unwrap();
        row.get_int(1)
    }

    fn setup() -> (Storage, TableId, RecordId) {
        let storage = Storage::default();
        let tid = TableId(1);
        storage
            .create_table(TableSchema::new(tid, "t1", 2))
            .unwrap();
        let rid = storage.load_row(tid, Row::from_ints(&[1, 100])).unwrap();
        (storage, tid, rid)
    }

    #[test]
    fn update_commit_cycle() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(10);
        storage.begin_txn(txn);
        set(&storage, txn, tid, rid, 101);
        // Not yet visible to committed readers.
        assert_eq!(committed(&storage, tid, rid), Some(100));
        assert_eq!(latest(&storage, tid, rid), Some(101));
        assert_eq!(storage.latest_writer(tid, rid).unwrap(), Some(txn));
        let lsn = storage.commit_writes(txn, 1, &[(tid, rid)]).unwrap();
        storage.redo().flush_to(lsn).unwrap();
        assert_eq!(committed(&storage, tid, rid), Some(101));
        assert_eq!(storage.latest_writer(tid, rid).unwrap(), None);
        // Its storage entry is gone after commit.
        assert_eq!(storage.active_txn_floor(), None);
    }

    #[test]
    fn update_rollback_cycle() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(11);
        storage.begin_txn(txn);
        set(&storage, txn, tid, rid, 999);
        storage.rollback_writes(txn, &[(tid, rid)]).unwrap();
        assert_eq!(latest(&storage, tid, rid), Some(100));
        assert_eq!(committed(&storage, tid, rid), Some(100));
    }

    #[test]
    fn insert_rollback_removes_row() {
        let (storage, tid, _) = setup();
        let txn = TxnId(12);
        storage.begin_txn(txn);
        let (rid, _) = storage
            .apply_insert(txn, tid, Row::from_ints(&[2, 200]))
            .unwrap();
        assert_eq!(latest(&storage, tid, rid), Some(200));
        storage.rollback_writes(txn, &[(tid, rid)]).unwrap();
        assert!(storage.table(tid).unwrap().lookup_pk(2).is_err());
    }

    #[test]
    fn insert_commit_makes_row_visible() {
        let (storage, tid, _) = setup();
        let txn = TxnId(13);
        storage.begin_txn(txn);
        let (rid, _) = storage
            .apply_insert(txn, tid, Row::from_ints(&[5, 500]))
            .unwrap();
        assert!(storage.read_committed(tid, rid).unwrap().is_none());
        storage.commit_writes(txn, 2, &[(tid, rid)]).unwrap();
        assert_eq!(committed(&storage, tid, rid), Some(500));
    }

    #[test]
    fn stacked_uncommitted_updates_roll_back_in_reverse_order() {
        let (storage, tid, rid) = setup();
        for (t, v) in [(1u64, 101i64), (2, 102), (3, 103)] {
            let txn = TxnId(t);
            storage.begin_txn(txn);
            set(&storage, txn, tid, rid, v);
        }
        assert_eq!(latest(&storage, tid, rid), Some(103));
        for t in [3, 2, 1] {
            storage.rollback_writes(TxnId(t), &[(tid, rid)]).unwrap();
        }
        assert_eq!(latest(&storage, tid, rid), Some(100));
    }

    #[test]
    fn hot_update_order_persisted_in_the_redo_undo_header() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(21);
        storage.begin_txn(txn);
        set(&storage, txn, tid, rid, 150);
        storage.set_hot_update_order(txn, 17);
        storage.redo().flush_all().unwrap();
        let has_header_record = storage
            .redo()
            .durable_records()
            .iter()
            .any(|r| matches!(r, RedoRecord::UndoHeader { txn: t, field } if *t == txn && field & crate::undo::HOT_UPDATE_ORDER_FLAG != 0));
        assert!(has_header_record);
    }

    #[test]
    fn update_row_is_one_latch_hold_and_one_log_reservation() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(22);
        storage.begin_txn(txn);
        let add = |row: &Row| Row::from_ints(&[1, row.get_int(1).unwrap() + 5]);
        // A hot row's first update carries the order: header and row image
        // take consecutive LSNs, the header first, and begin the transaction.
        let hot = storage.update_row(txn, tid, rid, Some(17), add).unwrap();
        assert_eq!((hot, storage.active_txn_floor()), (Lsn(2), Some(Lsn(1))));
        // The next one (and any cold update) is the row image alone, built
        // from the head the first one left.
        let cold = storage.update_row(txn, tid, rid, None, add).unwrap();
        assert_eq!(cold, Lsn(hot.0 + 1));
        assert_eq!(latest(&storage, tid, rid), Some(110));
        storage.redo().flush_all().unwrap();
        assert!(matches!(
            storage.redo().durable_records()[..],
            [
                RedoRecord::UndoHeader { .. },
                RedoRecord::Image { .. },
                RedoRecord::Image { .. }
            ]
        ));
        #[cfg(debug_assertions)]
        {
            // The slot latch and nothing else: the log reservation takes no
            // lock, and the transaction's storage entry is not visited.
            let before = parking_lot::thread_acquisitions();
            storage.update_row(txn, tid, rid, Some(18), add).unwrap();
            assert_eq!(parking_lot::thread_acquisitions() - before, 1);
        }
        // An unknown record leaves no trace.
        let missing = RecordId::new(rid.space_id, rid.page_no, rid.heap_no + 1);
        assert!(storage.update_row(txn, tid, missing, None, add).is_err());
    }

    #[test]
    fn a_row_image_that_fits_no_frame_is_refused_before_anything_is_installed() {
        let (storage, tid, rid) = setup();
        let wide = |columns: usize| Row::from_ints(&vec![1; columns]);
        // The widest row fits a segment beside its hot-order header.
        storage.begin_txn(TxnId(1));
        storage
            .update_row(TxnId(1), tid, rid, Some(1), |_| {
                wide(RedoRecord::MAX_COLUMNS)
            })
            .unwrap();
        storage.rollback_writes(TxnId(1), &[(tid, rid)]).unwrap();
        let newest = || storage.read_latest_with_writer(tid, rid);
        let before = (storage.redo().latest_lsn(), newest());
        for result in [
            storage.apply_update(TxnId(2), tid, rid, wide(RedoRecord::MAX_COLUMNS + 1)),
            (storage.apply_insert(TxnId(2), tid, wide(1 << 20))).map(|(_, lsn)| lsn),
        ] {
            assert!(matches!(result, Err(Error::RowTooLarge { .. })));
        }
        // No version, no frame: the statement never happened.
        assert_eq!((storage.redo().latest_lsn(), newest()), before);
        assert_eq!(storage.table(tid).unwrap().lookup_pk(1), Ok(rid));
        storage.redo().flush_all().unwrap();
        assert_eq!(storage.redo().durable_records().len(), 3);
    }

    #[test]
    fn checkpoint_round_trip() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(30);
        storage.begin_txn(txn);
        set(&storage, txn, tid, rid, 123);
        storage.commit_writes(txn, 3, &[(tid, rid)]).unwrap();
        // An uncommitted change must not leak into the checkpoint.
        let txn2 = TxnId(31);
        storage.begin_txn(txn2);
        set(&storage, txn2, tid, rid, 999);

        let image = storage.checkpoint();
        let rebuilt = Storage::from_checkpoint(&image, Duration::ZERO).unwrap();
        let rid2 = rebuilt.table(tid).unwrap().lookup_pk(1).unwrap();
        assert_eq!(committed(&rebuilt, tid, rid2), Some(123));
    }

    #[test]
    fn active_txn_floor_tracks_oldest_unfinished_txn() {
        let (storage, tid, rid) = setup();
        assert_eq!(storage.active_txn_floor(), None);
        let a = TxnId(1);
        let b = TxnId(2);
        // A begun transaction holds the floor before its first frame, at the
        // log's next LSN: a lower bound of that frame's.
        storage.begin_txn(a);
        assert_eq!(storage.active_txn_floor(), Some(Lsn(1)));
        let first = set(&storage, a, tid, rid, 101);
        storage.begin_txn(b);
        storage.begin_txn(a);
        assert_eq!(storage.active_txn_floor(), Some(first));
        let header = storage.set_hot_update_order(b, 1);
        storage.commit_writes(a, 1, &[(tid, rid)]).unwrap();
        // The floor advances to the younger transaction once `a` finishes.
        assert_eq!(storage.active_txn_floor(), Some(header));
        storage.rollback_writes(b, &[]).unwrap();
        assert_eq!(storage.active_txn_floor(), None);
    }

    #[test]
    fn rollback_of_a_transaction_that_wrote_nothing_logs_nothing() {
        let (storage, _, _) = setup();
        // Never begun: no trace at all.
        let end = storage.rollback_writes(TxnId(8), &[]).unwrap();
        assert_eq!((end, storage.redo().len()), (Lsn(0), 0));
        // Begun (a locked read, say) but nothing changed: the log never
        // hears of it, and its entry is gone.
        storage.begin_txn(TxnId(9));
        assert_eq!(storage.rollback_writes(TxnId(9), &[]).unwrap(), Lsn(0));
        assert!(storage.redo().is_empty() && storage.active_txn_floor().is_none());
    }

    #[test]
    fn a_storm_of_transactions_leaves_no_storage_entry() {
        const THREADS: u64 = 16;
        const PER_THREAD: u64 = 200;
        let storage = Storage::default();
        let tid = TableId(1);
        storage
            .create_table(TableSchema::new(tid, "t1", 2))
            .unwrap();
        let records: Vec<RecordId> = (0..THREADS as i64)
            .map(|pk| storage.load_row(tid, Row::from_ints(&[pk, 0])).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..THREADS {
                let (storage, record) = (&storage, records[worker as usize]);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Ids interleave across workers, as `TrxSys` hands
                        // them out; each worker owns one row.
                        let txn = TxnId(1 + i * THREADS + worker);
                        storage.begin_txn(txn);
                        if i % 4 == 0 {
                            storage.set_hot_update_order(txn, i);
                        }
                        let row = Row::from_ints(&[worker as i64, i as i64]);
                        storage.apply_update(txn, tid, record, row).unwrap();
                        if i % 3 == 0 {
                            storage.rollback_writes(txn, &[(tid, record)]).unwrap();
                        } else {
                            storage.commit_writes(txn, txn.0, &[(tid, record)]).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(storage.active_txn_floor(), None);
        // Every frame of the storm decodes, in LSN order, and every
        // transaction ends in its one marker.
        storage.redo().flush_all().unwrap();
        let frames: Vec<_> = storage.redo().durable_frames().collect();
        assert!((frames.iter().map(|(lsn, _)| lsn.0)).eq(1..=storage.redo().latest_lsn().0));
        let is_marker =
            |r: &RedoRecord| matches!(r, RedoRecord::Commit { .. } | RedoRecord::Rollback { .. });
        let markers = frames.iter().filter(|(_, record)| is_marker(record));
        assert_eq!(markers.count() as u64, THREADS * PER_THREAD);
    }

    #[test]
    fn crash_during_commit_is_not_acknowledged() {
        use crate::fault::{FaultInjector, FaultPlan};
        // The crash fires after the commit marker is appended but before any
        // flush covers it: commit_writes must surface the crash instead of
        // acknowledging the commit.
        let plan = FaultPlan::none().crash_at(CrashPoint::PostAppendPreFlush, 2);
        let storage = Storage::with_faults(Duration::ZERO, FaultInjector::new(plan));
        let tid = TableId(1);
        storage
            .create_table(TableSchema::new(tid, "t1", 2))
            .unwrap();
        let rid = storage.load_row(tid, Row::from_ints(&[1, 100])).unwrap();
        let txn = TxnId(7);
        storage.begin_txn(txn);
        set(&storage, txn, tid, rid, 101); // first PostAppendPreFlush hit passes
        let err = storage.commit_writes(txn, 1, &[(tid, rid)]).unwrap_err();
        assert!(matches!(err, Error::Crashed { .. }));
        // Nothing was ever flushed: the durable image has no trace of txn.
        assert!(storage.redo().durable_records().is_empty());
    }

    #[test]
    fn duplicate_table_creation_fails() {
        let storage = Storage::default();
        storage
            .create_table(TableSchema::new(TableId(9), "a", 1))
            .unwrap();
        assert!(storage
            .create_table(TableSchema::new(TableId(9), "b", 1))
            .is_err());
        assert!(storage.table(TableId(8)).is_err());
    }
}
