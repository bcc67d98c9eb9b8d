//! Table schemas.
//!
//! Schemas in this engine are intentionally minimal: a table has a name, a
//! fixed number of columns (column 0 is the integer primary key), and a
//! `rows_per_page` packing factor.  The packing factor matters because the
//! lock manager (`lock_sys`) is sharded by *page*: the more rows share a
//! page, the more unrelated rows contend on the same shard mutex — one of the
//! effects the lightweight-locking optimization (§3.1.1) targets.

use txsql_common::TableId;

/// Default number of records per page.  InnoDB packs on the order of a
/// hundred short rows into a 16 KiB page; we use the same order of magnitude
/// so page-level contention behaves comparably.
pub const DEFAULT_ROWS_PER_PAGE: u16 = 128;

/// Static description of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table identifier; also used as the tablespace id (`space_id`).
    pub id: TableId,
    /// Human-readable name (used in examples and benchmark output).
    pub name: String,
    /// Number of columns, including the primary key column 0.
    pub n_columns: usize,
    /// Records packed into one page.
    pub rows_per_page: u16,
}

impl TableSchema {
    /// Creates a schema with the default page packing.
    pub fn new(id: TableId, name: impl Into<String>, n_columns: usize) -> Self {
        assert!(
            n_columns >= 1,
            "a table needs at least the primary key column"
        );
        Self {
            id,
            name: name.into(),
            n_columns,
            rows_per_page: DEFAULT_ROWS_PER_PAGE,
        }
    }

    /// The tablespace id used in record identifiers for this table.
    pub fn space_id(&self) -> u32 {
        self.id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_defaults() {
        let s = TableSchema::new(TableId(3), "sbtest", 4);
        assert_eq!(s.space_id(), 3);
        assert_eq!(s.rows_per_page, DEFAULT_ROWS_PER_PAGE);
        assert_eq!(s.name, "sbtest");
    }

    #[test]
    #[should_panic(expected = "at least the primary key")]
    fn zero_columns_rejected() {
        let _ = TableSchema::new(TableId(1), "t", 0);
    }
}
