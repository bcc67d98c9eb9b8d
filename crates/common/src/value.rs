//! Row model.
//!
//! Every schema this workspace defines (SysBench, TPC-C, FiT) is integer
//! columns — ids, counters, money in cents — so a [`Row`] is its integers.
//! Keeping rows small and cheap to clone matters because MVCC keeps one copy
//! per version and the redo log one image per write: a row of up to four
//! columns (no schema here has more than three) holds them in place and never
//! touches the allocator; only a wider one spills to the heap.

/// Columns a row holds without a heap buffer.
const INLINE: usize = 4;

/// A row: an ordered list of integer columns.  Column 0 is the primary key by
/// convention in every schema this workspace defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row(Columns);

/// A row's columns.  `Inline` holds exactly the rows of up to `INLINE`
/// columns, with the unused ones zero, so the derived `==` compares rows.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Columns {
    Inline { len: u8, ints: [i64; INLINE] },
    Spilled(Box<[i64]>),
}

impl Default for Row {
    fn default() -> Self {
        Self::from_ints(&[])
    }
}

impl Row {
    /// Creates a row from its column values.
    pub fn from_ints(ints: &[i64]) -> Self {
        ints.iter().copied().collect()
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.ints().len()
    }

    /// True when the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column values, in order.
    pub fn ints(&self) -> &[i64] {
        match &self.0 {
            Columns::Inline { len, ints } => &ints[..*len as usize],
            Columns::Spilled(ints) => ints,
        }
    }

    fn ints_mut(&mut self) -> &mut [i64] {
        match &mut self.0 {
            Columns::Inline { len, ints } => &mut ints[..*len as usize],
            Columns::Spilled(ints) => ints,
        }
    }

    /// A column (None if out of range).
    pub fn get_int(&self, idx: usize) -> Option<i64> {
        self.ints().get(idx).copied()
    }

    /// Replaces a column value.  Panics if the index is out of range — rows in
    /// this engine have a fixed arity determined by their table schema.
    pub fn set(&mut self, idx: usize, value: i64) {
        self.ints_mut()[idx] = value;
    }

    /// Adds `delta` to a column, returning the new value (None if out of
    /// range).  This is the primitive behind `UPDATE t SET val = val + 1`.
    pub fn add_int(&mut self, idx: usize, delta: i64) -> Option<i64> {
        let column = self.ints_mut().get_mut(idx)?;
        *column = column.wrapping_add(delta);
        Some(*column)
    }

    /// The primary key (column 0), if present.
    pub fn primary_key(&self) -> Option<i64> {
        self.get_int(0)
    }
}

impl FromIterator<i64> for Row {
    /// Builds the row in place: only a row wider than `INLINE` allocates.
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut ints = [0; INLINE];
        // `zip` polls `iter` only while an inline column is free.
        let len = ints.iter_mut().zip(&mut iter).map(|(c, v)| *c = v).count() as u8;
        Self(match iter.next() {
            None => Columns::Inline { len, ints },
            Some(next) => Columns::Spilled(ints.into_iter().chain([next]).chain(iter).collect()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_of_every_width_across_the_inline_boundary() {
        for width in 0..=INLINE + 2 {
            let ints: Vec<i64> = (1..=width as i64).collect();
            let mut row = Row::from_ints(&ints);
            assert_eq!((row.len(), row.ints()), (width, &ints[..]));
            assert_eq!(row.is_empty(), row == Row::default());
            assert_eq!(matches!(row.0, Columns::Spilled(_)), width > INLINE);
            assert_eq!(row.primary_key(), ints.first().copied());
            assert_eq!((row.get_int(width), row.add_int(width, 1)), (None, None));
            let copy = row.clone();
            assert_eq!(copy, ints.into_iter().collect());
            if let Some(last) = width.checked_sub(1) {
                row.set(last, i64::MAX);
                assert_eq!(row.add_int(last, 1), Some(i64::MIN));
                assert_ne!(row, copy);
                row.set(last, width as i64);
                assert_eq!(row, copy);
            }
        }
    }
}
