//! MVCC read views: the copying and copy-free variants (§3.1.2).
//!
//! A read view answers one question for the storage layer: *is a row version
//! written by transaction `W` (committed with sequence number `c`, or still
//! uncommitted) visible to me?*
//!
//! * The **copying** view is what InnoDB's classic `readView` does: at
//!   creation it locks the active-transaction list and copies the ids of all
//!   transactions active at that instant.  A version is visible when its
//!   writer committed and was not in that copied set.  The copy (and the lock
//!   protecting it) is the overhead §3.1.2 wants to avoid.
//! * The **copy-free** view records a single number: the newest commit
//!   sequence number (`trx_no`) at creation time — effectively the `del_ts`
//!   horizon.  A version is visible when its writer's commit number is at or
//!   below that horizon.  No list is locked or copied.
//!
//! Both variants implement [`VisibilityJudge`] so the storage layer does not
//! care which one is in use; the `readview` bench measures the creation-cost
//! difference under concurrency.

use txsql_common::fxhash::FxHashSet;
use txsql_common::TxnId;
use txsql_storage::VisibilityJudge;

/// Which read-view implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadViewMode {
    /// Copy the active transaction list (baseline MySQL behaviour).
    Copying,
    /// Copy-free `del_ts` visibility (the §3.1.2 optimization).
    CopyFree,
}

/// A snapshot for MVCC reads.
#[derive(Debug, Clone)]
pub enum ReadView {
    /// Classic copying view.
    Copying {
        /// Ids of transactions that were active when the view was created.
        active_ids: FxHashSet<TxnId>,
        /// Ids at or above this limit did not exist yet at view creation.
        low_limit: TxnId,
        /// The transaction this view belongs to (sees its own writes).
        owner: TxnId,
    },
    /// Copy-free view based on commit sequence numbers.
    CopyFree {
        /// Newest commit sequence number visible to this view.
        commit_horizon: u64,
        /// The transaction this view belongs to (sees its own writes).
        owner: TxnId,
    },
}

impl ReadView {
    /// Which mode this view was created in.
    pub fn mode(&self) -> ReadViewMode {
        match self {
            ReadView::Copying { .. } => ReadViewMode::Copying,
            ReadView::CopyFree { .. } => ReadViewMode::CopyFree,
        }
    }
}

impl VisibilityJudge for ReadView {
    fn is_visible(&self, writer: TxnId, commit_no: Option<u64>) -> bool {
        match self {
            ReadView::Copying {
                active_ids,
                low_limit,
                owner,
            } => {
                if writer == *owner {
                    return true;
                }
                // The bulk loader (TxnId::INVALID) is always visible.
                if !writer.is_valid() {
                    return true;
                }
                if commit_no.is_none() {
                    return false;
                }
                // Started after the view was created?
                if writer >= *low_limit {
                    return false;
                }
                // Active (uncommitted) when the view was created?
                !active_ids.contains(&writer)
            }
            ReadView::CopyFree {
                commit_horizon,
                owner,
            } => {
                if writer == *owner {
                    return true;
                }
                if !writer.is_valid() {
                    return true;
                }
                match commit_no {
                    Some(no) => no <= *commit_horizon,
                    None => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copying(active: &[u64], low_limit: u64, owner: u64) -> ReadView {
        ReadView::Copying {
            active_ids: active.iter().map(|i| TxnId(*i)).collect(),
            low_limit: TxnId(low_limit),
            owner: TxnId(owner),
        }
    }

    #[test]
    fn copying_view_hides_active_and_future_writers() {
        let view = copying(&[5, 7], 10, 99);
        // Committed, old, not active at view creation: visible.
        assert!(view.is_visible(TxnId(3), Some(2)));
        // Active at view creation: invisible even though now committed.
        assert!(!view.is_visible(TxnId(5), Some(8)));
        // Started after the view: invisible.
        assert!(!view.is_visible(TxnId(11), Some(9)));
        // Uncommitted: invisible.
        assert!(!view.is_visible(TxnId(3), None));
        // Own writes: visible even uncommitted.
        assert!(view.is_visible(TxnId(99), None));
        // Bulk-loaded data: visible.
        assert!(view.is_visible(TxnId::INVALID, Some(0)));
    }

    #[test]
    fn copy_free_view_uses_commit_horizon() {
        let view = ReadView::CopyFree {
            commit_horizon: 10,
            owner: TxnId(99),
        };
        assert!(view.is_visible(TxnId(1), Some(10)));
        assert!(view.is_visible(TxnId(1), Some(1)));
        assert!(!view.is_visible(TxnId(1), Some(11)));
        assert!(!view.is_visible(TxnId(1), None));
        assert!(view.is_visible(TxnId(99), None));
        assert!(view.is_visible(TxnId::INVALID, Some(0)));
    }

    #[test]
    fn both_views_agree_on_committed_history() {
        // A writer that committed before either snapshot must be visible to
        // both; a writer that committed after must be invisible to both.
        let copying_view = copying(&[], 100, 1);
        let copy_free_view = ReadView::CopyFree {
            commit_horizon: 50,
            owner: TxnId(1),
        };
        for (writer, commit_no, expected) in
            [(TxnId(10), Some(20u64), true), (TxnId(10), None, false)]
        {
            assert_eq!(copying_view.is_visible(writer, commit_no), expected);
            assert_eq!(copy_free_view.is_visible(writer, commit_no), expected);
        }
    }

    #[test]
    fn accessors() {
        let v = ReadView::CopyFree {
            commit_horizon: 1,
            owner: TxnId(2),
        };
        assert_eq!(v.mode(), ReadViewMode::CopyFree);
        let c = copying(&[], 1, 3);
        assert_eq!(c.mode(), ReadViewMode::Copying);
    }
}
