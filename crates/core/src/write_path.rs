//! The write statements: `UPDATE` / `SELECT FOR UPDATE` / `INSERT`.
//!
//! Every write is the same skeleton — begin the transaction in storage if
//! this is its first write, admit, read the newest version, stack a new one
//! — with the protocol called at two places (Alg. 1 of the paper):
//!
//! 1. `ConcurrencyControl::acquire_for_write` before the read: Alg. 1
//!    lines 2–9.  MySQL / O1 lock the row; O2 takes the hot row's ticket
//!    first; group locking makes the transaction leader or follower of the
//!    row's group (a follower takes no lock at all); Bamboo locks and then
//!    takes its commit dependency on the writer of a dirty head.
//! 2. `ConcurrencyControl::after_write` once the new version is stacked:
//!    Alg. 1 lines 10–14.  Group locking ends the in-flight grant so the next
//!    follower runs; Bamboo releases the row lock early.
//!
//! Aria programs never come through here (whole-program batches, see
//! `cc/aria.rs`); its session API does, as plain 2PL.  `cc/mod.rs` has the
//! full hook table and which impl owns which state.

use crate::database::Database;
use txsql_common::{Error, Result, Row, TableId};
use txsql_txn::Transaction;

impl Database {
    /// `UPDATE table SET col<column> = col<column> + delta WHERE id = pk`.
    /// Returns the new column value.
    pub fn update_add(
        &self,
        txn: &mut Transaction,
        table: TableId,
        pk: i64,
        column: usize,
        delta: i64,
    ) -> Result<i64> {
        let mut new_value = 0;
        self.update_row(txn, table, pk, &mut |row: &mut Row| {
            new_value = row.add_int(column, delta).unwrap_or_default();
        })?;
        Ok(new_value)
    }

    /// `SELECT ... FOR UPDATE`: acquires the write admission for the row and
    /// returns its current (possibly uncommitted) value without modifying it.
    /// A later `UPDATE` of the same row by the same transaction skips the
    /// hotspot queueing step (§4.6.2).
    pub fn select_for_update(&self, txn: &mut Transaction, table: TableId, pk: i64) -> Result<Row> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        txn.metrics_sink().on_query();
        let record = self.record_id(table, pk)?;
        self.begin_write(txn);
        let inner = &self.inner;
        inner.cc.acquire_for_write(inner, txn, table, record)?;
        // The locked read observes the newest version (a predecessor's
        // uncommitted head for group followers / Bamboo — by design); record
        // that version's writer so the checker sees the true wr dependency.
        let (row, writer) = inner.storage.read_latest_with_writer(table, record)?;
        txn.record_read(table, record, writer);
        Ok(row)
    }

    /// Transactional insert.
    pub fn insert(&self, txn: &mut Transaction, table: TableId, row: Row) -> Result<()> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        txn.metrics_sink().on_query();
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "insert without integer pk".into(),
        })?;
        self.begin_write(txn);
        let (record, _) = self
            .inner
            .storage
            .apply_insert(txn.id, table, row.clone())?;
        txn.record_write(table, record);
        txn.record_change(table, pk, row);
        Ok(())
    }

    /// The shared read-modify-write skeleton used by every update statement.
    pub fn update_row(
        &self,
        txn: &mut Transaction,
        table: TableId,
        pk: i64,
        mutate: &mut dyn FnMut(&mut Row),
    ) -> Result<Row> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        txn.metrics_sink().on_query();
        let record = self.record_id(table, pk)?;
        self.begin_write(txn);
        let inner = &self.inner;
        let admission = inner.cc.acquire_for_write(inner, txn, table, record)?;

        // Read the newest version (for group followers / Bamboo this is the
        // predecessor's uncommitted value — exactly the point of the design),
        // apply the mutation, and stack the new version.
        let mut row = inner.storage.read_latest(table, record)?;
        mutate(&mut row);
        inner
            .storage
            .apply_update(txn.id, table, record, row.clone())?;
        txn.record_write(table, record);
        txn.record_change(table, pk, row.clone());
        inner.cc.after_write(txn, record, admission);
        Ok(row)
    }
}
