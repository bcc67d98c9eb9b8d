//! Lock modes and the conflict matrix.
//!
//! Record locks come in shared (`S`, taken by `SELECT ... FOR SHARE` /
//! serializable reads) and exclusive (`X`, taken by `UPDATE`, `DELETE`,
//! `SELECT ... FOR UPDATE`) flavours.  Table-level intention modes (`IS`,
//! `IX`) are included for completeness of the 2PL substrate — workloads in
//! the paper take an `IX` table lock before every row update, exactly as
//! InnoDB does, although the contention the paper studies is entirely on the
//! record locks.

/// A lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared record (or table) lock.
    Shared,
    /// Exclusive record (or table) lock.
    Exclusive,
    /// Intention-shared table lock.
    IntentionShared,
    /// Intention-exclusive table lock.
    IntentionExclusive,
}

impl LockMode {
    /// Returns true when two locks in these modes can be held simultaneously
    /// by *different* transactions on the same object.
    pub fn is_compatible_with(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            // Intention locks are compatible with each other.
            (IntentionShared, IntentionShared)
            | (IntentionShared, IntentionExclusive)
            | (IntentionExclusive, IntentionShared)
            | (IntentionExclusive, IntentionExclusive) => true,
            // IS is compatible with S.
            (IntentionShared, Shared) | (Shared, IntentionShared) => true,
            // S with S.
            (Shared, Shared) => true,
            // Everything involving X (or IX vs S/X) conflicts.
            _ => false,
        }
    }

    /// Returns true when a lock held in `self` mode already covers a request
    /// in `requested` mode by the *same* transaction (no upgrade needed).
    pub fn covers(self, requested: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, requested),
            (Exclusive, _)
                | (Shared, Shared)
                | (Shared, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionShared, IntentionShared)
        )
    }

    /// True for record-level modes.
    pub fn is_record_mode(self) -> bool {
        matches!(self, LockMode::Shared | LockMode::Exclusive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    const MODES: [LockMode; 4] = [Shared, Exclusive, IntentionShared, IntentionExclusive];

    #[test]
    fn compatibility_is_the_standard_matrix() {
        // Rows and columns in the order of `MODES`: S, X, IS, IX.
        const MATRIX: [[bool; 4]; 4] = [
            [true, false, true, false],
            [false, false, false, false],
            [true, false, true, true],
            [false, false, true, true],
        ];
        for (a, row) in MODES.iter().zip(MATRIX) {
            for (b, compatible) in MODES.iter().zip(row) {
                assert_eq!(a.is_compatible_with(*b), compatible, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn exclusive_covers_everything() {
        for m in MODES {
            assert!(Exclusive.covers(m));
        }
        assert!(!Shared.covers(Exclusive));
        assert!(Shared.covers(Shared));
        assert!(!IntentionShared.covers(IntentionExclusive));
    }

    #[test]
    fn record_mode_classification() {
        assert!(Shared.is_record_mode());
        assert!(Exclusive.is_record_mode());
        assert!(!IntentionShared.is_record_mode());
        assert!(!IntentionExclusive.is_record_mode());
    }
}
