//! Tables: a collection of pages plus a primary-key index.
//!
//! The primary-key index maps `pk -> RecordId` so workloads can address rows
//! the way SQL would (`WHERE id = ?`), while the engine internals — lock
//! manager, hotspot hash, write sets, redo — always speak `RecordId`,
//! mirroring the paper's description of locating a record through its
//! tablespace, page and heap position (§2.2).
//!
//! # Append-only
//!
//! Pages are only ever appended and a record never moves or gives its slot
//! back (see [`crate::heap`]), so the page directory is a
//! [`Directory`]: [`Table::slot`] resolves a record id to a borrowed latch
//! without taking a lock, and a record id stays valid for as long as the
//! table does.  An insert publishes in the order slot → index entry, so a
//! record id a reader got from [`Table::lookup_pk`] always resolves; one it
//! made up resolves to a slot or to [`Error::UnknownRecord`], never to a
//! half-built slot.  Inserts serialise on the page directory's growth lock,
//! which an insert holds from choosing its page to filling its slot.
//!
//! The primary-key index is the one lock a point lookup still takes.

use crate::directory::Directory;
use crate::heap::Page;
use crate::schema::TableSchema;
use crate::version::RecordVersions;
use parking_lot::RwLock;
use txsql_common::fxhash::FxHashMap;
use txsql_common::{Error, PageNo, RecordId, Result, Row, TxnId};

/// A table: schema, heap pages and the primary-key index.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    /// Heap pages, append-only.  Its growth lock serialises heap allocation:
    /// which page, which slot.
    pages: Directory<Page>,
    /// Primary key -> record id.
    pk_index: RwLock<FxHashMap<i64, RecordId>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Self {
            schema,
            pages: Directory::default(),
            pk_index: RwLock::new(FxHashMap::default()),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live (indexed) rows.
    pub fn row_count(&self) -> usize {
        self.pk_index.read().len()
    }

    /// Inserts a row version chain, allocating heap space and indexing the
    /// primary key.  Fails on duplicate primary keys.
    pub fn insert_versions(&self, row_pk: i64, versions: RecordVersions) -> Result<RecordId> {
        let duplicate = || Error::DuplicateKey {
            table: self.schema.id,
            key: row_pk,
        };
        if self.pk_index.read().contains_key(&row_pk) {
            return Err(duplicate());
        }
        let record_id = {
            let mut pages = self.pages.grow();
            let page = match self.pages.last() {
                Some(page) if !page.is_full() => page,
                _ => {
                    let page_no = self.pages.len() as PageNo;
                    let space_id = self.schema.space_id();
                    let page = Page::new(space_id, page_no, self.schema.rows_per_page);
                    pages.push(page).1
                }
            };
            let heap_no = page
                .allocate(versions)
                .expect("the growth lock is held and the page has room");
            RecordId::new(page.space_id(), page.page_no(), heap_no)
        };
        let mut index = self.pk_index.write();
        if index.contains_key(&row_pk) {
            // Lost the race with a concurrent insert of the same key.  The heap
            // slot stays allocated but unindexed (same as a rolled-back insert).
            return Err(duplicate());
        }
        index.insert(row_pk, record_id);
        Ok(record_id)
    }

    /// Bulk-load convenience: inserts a committed row.
    pub fn insert_committed(&self, row: Row) -> Result<RecordId> {
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "row has no primary key".into(),
        })?;
        self.insert_versions(pk, RecordVersions::new(row, TxnId::INVALID, Some(0)))
    }

    /// Looks up the record id for a primary key.
    pub fn lookup_pk(&self, pk: i64) -> Result<RecordId> {
        self.pk_index
            .read()
            .get(&pk)
            .copied()
            .ok_or(Error::KeyNotFound {
                table: self.schema.id,
                key: pk,
            })
    }

    /// Removes a primary key from the index.  Returns true if the key was
    /// present.
    fn unindex_pk(&self, pk: i64) -> bool {
        self.pk_index.write().remove(&pk).is_some()
    }

    /// Rolls back `writer` on one row: pops its uncommitted versions (the
    /// chain is the undo image), and unindexes the row if that left it with
    /// no version — `writer` inserted it and nobody stacked on the insert.
    /// Live rollback and recovery's replay both undo a row through here.
    pub(crate) fn rollback_writer(&self, record: RecordId, writer: TxnId) -> Result<()> {
        let mut guard = self.slot(record)?.write();
        let pk = guard.latest().and_then(|v| v.row.primary_key());
        guard.rollback_writer(writer);
        if guard.version_count() == 0 {
            drop(guard);
            if let Some(pk) = pk {
                self.unindex_pk(pk);
            }
        }
        Ok(())
    }

    /// Returns the record slot — the version chain behind its latch — for a
    /// record id.  Lock-free: see the module documentation.
    pub fn slot(&self, record: RecordId) -> Result<&RwLock<RecordVersions>> {
        self.pages
            .get(record.page_no as usize)
            .and_then(|page| page.slot(record.heap_no))
            .ok_or(Error::UnknownRecord { record })
    }

    /// Record ids of every indexed row, in primary-key order (used by scans,
    /// consistency checks and recovery verification).
    pub fn all_record_ids(&self) -> Vec<(i64, RecordId)> {
        let mut rows: Vec<(i64, RecordId)> =
            self.pk_index.read().iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_unstable_by_key(|(k, _)| *k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use txsql_common::TableId;

    fn small_table() -> Table {
        Table::new(TableSchema {
            rows_per_page: 2,
            ..TableSchema::new(TableId(1), "t", 2)
        })
    }

    #[test]
    fn insert_and_lookup() {
        let t = small_table();
        let rid = t.insert_committed(Row::from_ints(&[7, 70])).unwrap();
        assert_eq!(t.lookup_pk(7).unwrap(), rid);
        assert_eq!(t.row_count(), 1);
        let slot = t.slot(rid).unwrap();
        assert_eq!(slot.read().latest().unwrap().row.get_int(1), Some(70));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let t = small_table();
        t.insert_committed(Row::from_ints(&[1, 1])).unwrap();
        let err = t.insert_committed(Row::from_ints(&[1, 2])).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { key: 1, .. }));
    }

    #[test]
    fn pages_overflow_to_new_page() {
        let t = small_table();
        for pk in 0..5 {
            t.insert_committed(Row::from_ints(&[pk, pk])).unwrap();
        }
        assert_eq!(t.pages.len(), 3);
        // Records keep the (space, page, heap) addressing.
        let rid = t.lookup_pk(4).unwrap();
        assert_eq!(rid.space_id, 1);
        assert_eq!(rid.page_no, 2);
        assert_eq!(rid.heap_no, 0);
    }

    #[test]
    fn unknown_lookups_fail_cleanly() {
        let t = small_table();
        assert!(matches!(
            t.lookup_pk(99),
            Err(Error::KeyNotFound { key: 99, .. })
        ));
        let missing = RecordId::new(1, 9, 9);
        assert!(matches!(t.slot(missing), Err(Error::UnknownRecord { .. })));
    }

    #[test]
    fn unindex_removes_visibility_via_pk() {
        let t = small_table();
        t.insert_committed(Row::from_ints(&[3, 30])).unwrap();
        assert!(t.unindex_pk(3));
        assert!(!t.unindex_pk(3));
        assert!(t.lookup_pk(3).is_err());
    }

    #[test]
    fn all_record_ids_sorted_by_pk() {
        let t = small_table();
        for pk in [5, 1, 3] {
            t.insert_committed(Row::from_ints(&[pk, pk])).unwrap();
        }
        let pks: Vec<i64> = t.all_record_ids().into_iter().map(|(k, _)| k).collect();
        assert_eq!(pks, vec![1, 3, 5]);
    }

    #[test]
    fn rows_without_pk_rejected() {
        let t = small_table();
        assert!(t.insert_committed(Row::default()).is_err());
    }

    /// The append-only invariants, as facts writers publish and readers check
    /// while the directory grows under them.
    struct Churn {
        table: Table,
        per_writer: usize,
        /// Per writer: how many of its keys are finished (inserted and, every
        /// other one, unindexed again as a rolled-back insert would be).
        done: [AtomicUsize; 2],
        /// Per key: the packed record id, published before `done` moves.
        records: Vec<AtomicU64>,
    }

    impl Churn {
        /// Two rows per page: every other insert opens a page, and a few
        /// hundred keys cross the directory's first bucket boundaries.
        fn new(per_writer: usize) -> Self {
            Self {
                table: small_table(),
                per_writer,
                done: Default::default(),
                records: (0..2 * per_writer).map(|_| AtomicU64::new(0)).collect(),
            }
        }

        fn write(&self, writer: usize) {
            for i in 0..self.per_writer {
                let pk = (writer * self.per_writer + i) as i64;
                let record = self.table.insert_committed(Row::from_ints(&[pk, pk]));
                self.records[pk as usize].store(record.unwrap().packed(), Ordering::Release);
                if i % 2 == 1 {
                    assert!(self.table.unindex_pk(pk));
                }
                self.done[writer].store(i + 1, Ordering::Release);
            }
        }

        /// A slot that resolves is fully built: it holds `pk`'s row.
        fn assert_built(&self, record: RecordId, pk: i64) {
            let slot = self.table.slot(record).expect("published record id");
            assert_eq!(slot.read().latest().unwrap().row.get_int(0), Some(pk));
        }

        /// One pass over the newest facts of each writer; true once both
        /// writers are finished.
        fn check(&self) -> bool {
            let mut finished = true;
            for writer in 0..2 {
                let done = self.done[writer].load(Ordering::Acquire);
                finished &= done == self.per_writer;
                for i in done.saturating_sub(8)..done {
                    let pk = (writer * self.per_writer + i) as i64;
                    let packed = self.records[pk as usize].load(Ordering::Acquire);
                    let record = RecordId::from_packed(packed);
                    // Resolves for good, its key unindexed or not.
                    self.assert_built(record, pk);
                    match self.table.lookup_pk(pk) {
                        Ok(found) => assert_eq!((found, i % 2), (record, 0)),
                        Err(err) => {
                            assert!(matches!(err, Error::KeyNotFound { .. }) && i % 2 == 1)
                        }
                    }
                }
                // The insert in flight: indexed means allocated.
                let next = (writer * self.per_writer + done) as i64;
                if let Ok(record) = self.table.lookup_pk(next) {
                    self.assert_built(record, next);
                }
            }
            // What was never allocated is unknown — the rest of the newest
            // page, pages nobody appended — and never a half-built slot.
            let pages = self.table.pages.len() as PageNo;
            for (page_no, heap_no) in [(pages.saturating_sub(1), 1), (pages + 1_000, 0)] {
                match self.table.slot(RecordId::new(1, page_no, heap_no)) {
                    Ok(slot) => assert!(slot.read().latest().is_some()),
                    Err(err) => assert!(matches!(err, Error::UnknownRecord { .. })),
                }
            }
            finished
        }
    }

    #[test]
    fn published_records_resolve_while_the_directory_grows() {
        let churn = Churn::new(1_500);
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let churn = &churn;
                scope.spawn(move || churn.write(writer));
            }
            for _ in 0..4 {
                scope.spawn(|| while !churn.check() {});
            }
        });
        assert!(churn.check());
        assert_eq!(churn.table.row_count(), 1_500);
        assert_eq!(churn.table.pages.len(), 1_500);
    }

    #[test]
    fn sim_published_records_resolve_while_the_directory_grows() {
        txsql_sim::explore(txsql_sim::ci_seeds(50), |sim| {
            let churn = Arc::new(Churn::new(5));
            for writer in 0..2 {
                let churn = Arc::clone(&churn);
                sim.spawn(format!("writer-{writer}"), move || churn.write(writer));
            }
            for reader in 0..4 {
                let churn = Arc::clone(&churn);
                sim.spawn(format!("reader-{reader}"), move || {
                    for _ in 0..3 {
                        churn.check();
                    }
                });
            }
        });
    }
}
