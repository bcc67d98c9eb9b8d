//! Row/value model.
//!
//! The workloads in the paper (SysBench, TPC-C, FiT) only need integer,
//! decimal-as-integer, and short string columns, so the value model is kept
//! deliberately small: a [`Value`] enum and a [`Row`] of values.  Keeping rows
//! small and cheap to clone matters because MVCC keeps one copy per version.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer (ids, counters, money in cents).
    Int(i64),
    /// UTF-8 string (SysBench pad/c columns, TPC-C names).
    Str(String),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Returns the integer payload, or an engine error if the value is not an
    /// integer.  Used by workloads that do arithmetic on balances/stock.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes, used by the storage engine to
    /// account for page fill and by recovery to size log records.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
            Value::Null => 0,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A row: an ordered list of column values.  Column 0 is the primary key by
/// convention in every schema this workspace defines.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Row {
    columns: Vec<Value>,
}

impl Row {
    /// Creates a row from column values.
    pub fn new(columns: Vec<Value>) -> Self {
        Self { columns }
    }

    /// Convenience constructor for all-integer rows (the common case in the
    /// SysBench and FiT schemas).
    pub fn from_ints(ints: &[i64]) -> Self {
        Self {
            columns: ints.iter().copied().map(Value::Int).collect(),
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

    /// Borrow a column value.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.columns.get(idx)
    }

    /// Integer value of a column (None if out of range or not an integer).
    pub fn get_int(&self, idx: usize) -> Option<i64> {
        self.columns.get(idx).and_then(Value::as_int)
    }

    /// Replaces a column value.  Panics if the index is out of range — rows in
    /// this engine have a fixed arity determined by their table schema.
    pub fn set(&mut self, idx: usize, value: Value) {
        self.columns[idx] = value;
    }

    /// Adds `delta` to an integer column, returning the new value.
    /// This is the primitive behind `UPDATE t SET val = val + 1`.
    pub fn add_int(&mut self, idx: usize, delta: i64) -> Option<i64> {
        match self.columns.get_mut(idx) {
            Some(Value::Int(v)) => {
                *v = v.wrapping_add(delta);
                Some(*v)
            }
            _ => None,
        }
    }

    /// Iterator over column values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.columns.iter()
    }

    /// The primary key (column 0 as an integer), if present.
    pub fn primary_key(&self) -> Option<i64> {
        self.get_int(0)
    }

    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(Value::size_bytes).sum::<usize>() + 8
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        &self.columns[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ints_builds_integer_row() {
        let row = Row::from_ints(&[1, 2, 3]);
        assert_eq!(row.len(), 3);
        assert_eq!(row.get_int(0), Some(1));
        assert_eq!(row.get_int(2), Some(3));
        assert_eq!(row.primary_key(), Some(1));
    }

    #[test]
    fn add_int_updates_in_place() {
        let mut row = Row::from_ints(&[10, 100]);
        assert_eq!(row.add_int(1, 5), Some(105));
        assert_eq!(row.get_int(1), Some(105));
        // Non-integer and out-of-range columns return None.
        row.set(1, Value::Str("x".into()));
        assert_eq!(row.add_int(1, 1), None);
        assert_eq!(row.add_int(9, 1), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::from("abc").size_bytes(), 3);
        assert_eq!(Value::from(1i64).size_bytes(), 8);
    }

    #[test]
    fn display_formats() {
        let row = Row::new(vec![Value::Int(1), Value::Str("hi".into()), Value::Null]);
        assert_eq!(row.to_string(), "(1, 'hi', NULL)");
    }

    #[test]
    fn wrapping_add_does_not_panic_on_overflow() {
        let mut row = Row::from_ints(&[i64::MAX]);
        assert_eq!(row.add_int(0, 1), Some(i64::MIN));
    }

    #[test]
    fn index_operator_borrows_columns() {
        let row = Row::from_ints(&[4, 5]);
        assert_eq!(row[1], Value::Int(5));
    }
}
