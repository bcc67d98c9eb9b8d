//! Row model.
//!
//! Every schema this workspace defines (SysBench, TPC-C, FiT) is integer
//! columns — ids, counters, money in cents — so a [`Row`] is its integers.
//! Keeping rows small and cheap to clone matters because MVCC keeps one copy
//! per version and the redo log one image per write.

/// A row: an ordered list of integer columns.  Column 0 is the primary key by
/// convention in every schema this workspace defines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    columns: Vec<i64>,
}

impl Row {
    /// Creates a row from its column values.
    pub fn from_ints(ints: &[i64]) -> Self {
        Self {
            columns: ints.to_vec(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column values, in order.
    pub fn ints(&self) -> &[i64] {
        &self.columns
    }

    /// A column (None if out of range).
    pub fn get_int(&self, idx: usize) -> Option<i64> {
        self.columns.get(idx).copied()
    }

    /// Replaces a column value.  Panics if the index is out of range — rows in
    /// this engine have a fixed arity determined by their table schema.
    pub fn set(&mut self, idx: usize, value: i64) {
        self.columns[idx] = value;
    }

    /// Adds `delta` to a column, returning the new value (None if out of
    /// range).  This is the primitive behind `UPDATE t SET val = val + 1`.
    pub fn add_int(&mut self, idx: usize, delta: i64) -> Option<i64> {
        let column = self.columns.get_mut(idx)?;
        *column = column.wrapping_add(delta);
        Some(*column)
    }

    /// The primary key (column 0), if present.
    pub fn primary_key(&self) -> Option<i64> {
        self.get_int(0)
    }
}

impl From<Vec<i64>> for Row {
    fn from(columns: Vec<i64>) -> Self {
        Self { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ints_builds_integer_row() {
        let row = Row::from_ints(&[1, 2, 3]);
        assert_eq!((row.len(), row.ints()), (3, &[1, 2, 3][..]));
        assert_eq!((row.get_int(2), row.get_int(3)), (Some(3), None));
        assert_eq!(row.primary_key(), Some(1));
    }

    #[test]
    fn add_int_updates_in_place_and_wraps() {
        let mut row = Row::from_ints(&[10, i64::MAX]);
        assert_eq!(row.add_int(0, 5), Some(15));
        assert_eq!(row.add_int(1, 1), Some(i64::MIN));
        assert_eq!(row.add_int(9, 1), None);
        row.set(1, 7);
        assert_eq!(row.ints(), [15, 7]);
    }
}
