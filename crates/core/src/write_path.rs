//! The write statements: `UPDATE` / `SELECT FOR UPDATE` / `INSERT`.
//!
//! Every write is the same skeleton — begin the transaction in storage if
//! this is its first write, admit, read the newest version and stack a new
//! one on it (one `Storage::update_row`: one latch hold and one log
//! reservation, for hot and cold rows alike) — with the protocol called
//! at two places (Alg. 1 of the paper):
//!
//! 1. `ConcurrencyControl::acquire_for_write` before the read: Alg. 1
//!    lines 2–9.  MySQL / O1 lock the row; O2 takes the hot row's ticket
//!    first; group locking makes the transaction leader or follower of the
//!    row's group (a follower takes no lock at all); Bamboo locks and then
//!    takes its commit dependency on the writer of a dirty head.
//! 2. `ConcurrencyControl::after_write` once the new version is stacked:
//!    Alg. 1 lines 10–14.  Group locking ends the write's flight (every
//!    write of a hot row, a second one too, runs in one its writer owns) so
//!    the next follower runs; Bamboo releases the row lock early.  Between
//!    the two a hot row's whole group is waiting, so nothing else happens
//!    there: the transaction's own bookkeeping (its write set) comes after.
//!
//! Aria programs never come through here (whole-program batches, see
//! `cc/aria.rs`), and Aria refuses a session update at step 1.  `cc/mod.rs`
//! has the full hook table and which impl owns which state.

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
        txn.metrics().queries.inc();
        let record = self.record_id(table, pk)?;
        self.begin_write(txn);
        let inner = &self.inner;
        inner.cc.acquire_for_write(inner, txn, table, record)?;
        if let Some(order) = txn.take_unlogged_order(record) {
            // Joined the hot row's group without writing it: the order an
            // update would carry (§5.3) is logged on its own.
            inner.storage.set_hot_update_order(txn.id, order);
        }
        // The locked read observes the newest version (a predecessor's
        // uncommitted head for group followers / Bamboo — by design); record
        // that version's writer so the checker sees the true wr dependency.
        let (row, writer) = inner.storage.read_latest_with_writer(table, record)?;
        if inner.history.is_some() {
            txn.record_read(table, record, writer);
        }
        Ok(row)
    }

    /// Transactional insert.
    pub fn insert(&self, txn: &mut Transaction, table: TableId, row: Row) -> Result<()> {
        txn.metrics().queries.inc();
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "insert without a primary key".into(),
        })?;
        self.begin_write(txn);
        let (record, _) = self
            .inner
            .storage
            .apply_insert(txn.id, table, row)
            .inspect_err(|_| self.keep_stacked_write(txn, table, pk))?;
        txn.record_write(table, record);
        Ok(())
    }

    /// The shared read-modify-write skeleton used by every update statement.
    ///
    /// `mutate` runs under the row's write latch and, on a hot row, inside
    /// the transaction's grant with the row's group queued behind it: keep
    /// it short, and do not call back into the engine from it — a read of
    /// the same row would wait for the latch this call holds.
    pub fn update_row(
        &self,
        txn: &mut Transaction,
        table: TableId,
        pk: i64,
        mutate: &mut dyn FnMut(&mut Row),
    ) -> Result<()> {
        txn.metrics().queries.inc();
        let record = self.record_id(table, pk)?;
        self.begin_write(txn);
        let inner = &self.inner;
        inner.cc.acquire_for_write(inner, txn, table, record)?;

        // Read the newest version (for group followers / Bamboo this is the
        // predecessor's uncommitted value — exactly the point of the design),
        // apply the mutation, and stack the new version.
        let hot_order = txn.take_unlogged_order(record);
        let make = |head: &Row| {
            let mut row = head.clone();
            mutate(&mut row);
            row
        };
        inner
            .storage
            .update_row(txn.id, table, record, hot_order, make)
            .inspect_err(|_| self.keep_stacked_write(txn, table, pk))?;
        inner.cc.after_write(txn, record);
        txn.record_write(table, record);
        Ok(())
    }
}
