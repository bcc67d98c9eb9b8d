//! The one lock mode.
//!
//! Reads are MVCC snapshot reads that take no lock, so the only record lock
//! the engine takes is the exclusive one an `UPDATE`, `DELETE` or
//! `SELECT ... FOR UPDATE` needs — the lock whose contention the paper
//! studies.  A record therefore has at most one holder and a FIFO of
//! waiters, and there is no compatibility matrix to consult.  No table is
//! locked: an intention-exclusive table lock never conflicts with another,
//! so it would decide nothing.

/// A record lock's mode: the callers name what they take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Exclusive record lock.
    Exclusive,
}
