//! MVCC version chains.
//!
//! Every heap record owns a chain of [`Version`]s.  The newest version is the
//! "current" row an updater sees; older versions are what snapshot readers
//! reconstruct through their read view, exactly like InnoDB's undo-based row
//! versions.
//!
//! **Orientation is private.**  The newest version lives in the record's
//! slot, so a read of the current row stops there; older ones sit
//! oldest-first in a buffer that a write pushes onto and purge drains in
//! place.  With a [`Row`] inline too, an update, its purge and a read's clone
//! allocate nothing.  Callers see only "newest" ([`RecordVersions::latest`]),
//! "newest visible" ([`RecordVersions::visible`]) and operations named after
//! a writer, never an index.
//!
//! **Uncommitted-suffix invariant.**  Committed versions come first, in
//! commit order; every uncommitted version is newer than every committed one.
//! Group locking (§3.3) and Bamboo both let a transaction update a row whose
//! newest version is still uncommitted, so the suffix may stack versions of
//! several writers in update order — but a writer commits only after the
//! writers beneath it have (§4.3 commit order, Bamboo's commit
//! dependencies), so stamping never leaves an uncommitted version beneath a
//! committed one.  (A transaction that updated a row *again* after another
//! writer stacked on its first update, and then committed before that writer,
//! would be the exception — both protocols make it wait for the writer in
//! between, and the history was never serializable.  The version in between
//! would then be neither stamped nor popped: it sits superseded beneath the
//! newer committed one until the next purge drops it.)  Commit and rollback
//! therefore look at the suffix only: its length is bounded by the group size
//! (group locking) or the dirty-write depth (Bamboo), not by the row's
//! history.  The rollback-order guarantee (§4.4) makes a group-locking
//! rollback a pop of the newest versions; Bamboo's cascading aborts may
//! remove versions from the middle of the suffix.
//!
//! **Purge rule.**  [`RecordVersions::purge_to_floor`] keeps the newest
//! version committed at or below a *purge floor* and everything newer, and
//! drops the rest.  The floor the engine passes (`TrxSys::purge_floor`) obeys
//! one rule: every transaction that was given a commit number at or below it
//! has left the active set.  That is safe for both read-view modes as long as
//! a view is built while the reader holds the record's latch (so it is newer
//! than any purge the chain has seen): the kept version's writer has finished
//! committing, so it is absent from a copying view's active list and its
//! commit number is at or below a copy-free view's horizon — every such view
//! stops at the kept version or a newer one and never asks for what was
//! dropped.

use txsql_common::{Row, TxnId};

/// One version of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The row image this version represents.
    pub row: Row,
    /// Transaction that wrote this version.
    pub writer: TxnId,
    /// Commit sequence number (`trx_no`) assigned when the writer committed;
    /// `None` while the writer is still active (or was rolled back and the
    /// version removed).
    pub commit_no: Option<u64>,
}

impl Version {
    /// True once the writing transaction has committed.
    pub fn is_committed(&self) -> bool {
        self.commit_no.is_some()
    }
}

/// Decides whether a row version is visible to a reader.
///
/// Implemented by the read views in `txsql-txn`: the classic *copying*
/// active-transaction-list view and the paper's *copy-free* `del_ts` view
/// (§3.1.2) both reduce to this question at the storage layer.
pub trait VisibilityJudge {
    /// Should a version written by `writer` (committed with `commit_no`, or
    /// uncommitted if `None`) be visible to this reader?
    fn is_visible(&self, writer: TxnId, commit_no: Option<u64>) -> bool;
}

/// A visibility judge that sees only committed data (READ COMMITTED snapshot
/// taken "now"), used for bulk loads, administrative scans and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCommitted;

impl VisibilityJudge for ReadCommitted {
    fn is_visible(&self, _writer: TxnId, commit_no: Option<u64>) -> bool {
        commit_no.is_some()
    }
}

/// The full version chain of one heap record.
#[derive(Debug, Clone, Default)]
pub struct RecordVersions {
    /// The newest version; `None` only in an empty chain (recovery's
    /// placeholder, a rolled-back insert).
    head: Option<Version>,
    /// The versions beneath it, oldest first; purge keeps the buffer.
    older: Vec<Version>,
}

impl RecordVersions {
    /// A chain of one version: a bulk load's, by `TxnId::INVALID` committed
    /// as 0, or an insert's, uncommitted.
    pub fn new(row: Row, writer: TxnId, commit_no: Option<u64>) -> Self {
        let head = Some(Version {
            row,
            writer,
            commit_no,
        });
        Self {
            head,
            older: Vec::new(),
        }
    }

    /// The newest version (the one an updater operates on).
    pub fn latest(&self) -> Option<&Version> {
        self.head.as_ref()
    }

    /// Number of versions currently retained.
    pub fn version_count(&self) -> usize {
        usize::from(self.head.is_some()) + self.older.len()
    }

    /// Pushes a new uncommitted version written by `writer`.
    ///
    /// Group locking and Bamboo may push onto an uncommitted head; plain 2PL
    /// only pushes onto committed heads because the row lock serialises
    /// writers across commit.
    pub fn push_uncommitted(&mut self, row: Row, writer: TxnId) {
        let version = Version {
            row,
            writer,
            commit_no: None,
        };
        self.older.extend(self.head.replace(version));
    }

    /// Marks every uncommitted version written by `writer` as committed with
    /// `commit_no`, looking at the uncommitted suffix only.  Returns the
    /// number of versions committed.
    pub fn commit_writer(&mut self, writer: TxnId, commit_no: u64) -> usize {
        let mut n = 0;
        for v in self.head.iter_mut().chain(self.older.iter_mut().rev()) {
            if v.is_committed() {
                break;
            }
            if v.writer == writer {
                v.commit_no = Some(commit_no);
                n += 1;
            }
        }
        n
    }

    /// Removes the uncommitted versions written by `writer`, looking at the
    /// uncommitted suffix only.  Returns the number of versions removed.
    ///
    /// Group locking rolls writers back strictly in reverse update order (the
    /// dependency list enforces it), so in that protocol the removed versions
    /// are always the newest ones.  Bamboo's cascading aborts may transiently
    /// remove a version from the middle of the suffix; the remaining dirty
    /// versions above it belong to transactions that are themselves doomed to
    /// cascade, so the final state is still correct.
    pub fn rollback_writer(&mut self, writer: TxnId) -> usize {
        if self.head.as_ref().is_none_or(Version::is_committed) {
            return 0;
        }
        let before = self.version_count();
        let suffix = self
            .older
            .iter()
            .rposition(Version::is_committed)
            .map_or(0, |newest_committed| newest_committed + 1);
        // Stable in-place compaction of the suffix beneath the head.
        let mut keep = suffix;
        for i in suffix..self.older.len() {
            if self.older[i].writer != writer {
                self.older.swap(keep, i);
                keep += 1;
            }
        }
        self.older.truncate(keep);
        if self.head.as_ref().is_some_and(|v| v.writer == writer) {
            self.head = self.older.pop();
        }
        before - self.version_count()
    }

    /// Returns the newest version visible to `judge` (the MVCC read path), or
    /// `None` when nothing retained is visible.
    pub fn visible<J: VisibilityJudge + ?Sized>(&self, judge: &J) -> Option<&Version> {
        self.head
            .iter()
            .chain(self.older.iter().rev())
            .find(|v| judge.is_visible(v.writer, v.commit_no))
    }

    /// Drops every version older than the newest one committed at or below
    /// `floor` (see the module doc for which floors are safe); under the
    /// suffix invariant all of them are committed.  Versions committed above
    /// the floor and the uncommitted suffix always stay.  Returns the number
    /// of versions dropped.
    pub fn purge_to_floor(&mut self, floor: u64) -> usize {
        // Commit numbers grow along the chain, so the scan stops at the first
        // version committed above the floor: a floor that never moves (a
        // bare `Storage`) costs O(1) however long the chain.
        let mut keep_from = 0;
        for (i, v) in self.older.iter().chain(&self.head).enumerate() {
            match v.commit_no {
                Some(no) if no > floor => break,
                Some(_) => keep_from = i,
                None => {}
            }
        }
        self.older.drain(..keep_from);
        keep_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_common::rng::XorShiftRng;

    fn row(v: i64) -> Row {
        Row::from_ints(&[1, v])
    }

    fn committed_value(chain: &RecordVersions) -> Option<i64> {
        chain.visible(&ReadCommitted).and_then(|v| v.row.get_int(1))
    }

    #[test]
    fn a_version_is_visible_once_its_writer_commits_and_gone_once_it_rolls_back() {
        let mut chain = RecordVersions::new(row(10), TxnId::INVALID, Some(0));
        chain.push_uncommitted(row(20), TxnId(5));
        chain.push_uncommitted(row(30), TxnId(6));
        assert_eq!(chain.latest().unwrap().row.get_int(1), Some(30));
        // Snapshot readers still see the committed base.
        assert_eq!(committed_value(&chain), Some(10));
        assert_eq!(chain.rollback_writer(TxnId(6)), 1);
        assert_eq!(chain.rollback_writer(TxnId(9)), 0);
        assert_eq!(chain.commit_writer(TxnId(5), 7), 1);
        let visible = chain.visible(&ReadCommitted).unwrap();
        assert_eq!(
            (visible.row.get_int(1), visible.writer),
            (Some(20), TxnId(5))
        );
        assert_eq!(chain.version_count(), 2);
        // A transactional insert starts uncommitted; its rollback empties the chain.
        let mut insert = RecordVersions::new(row(5), TxnId(9), None);
        assert!(insert.visible(&ReadCommitted).is_none());
        assert_eq!(
            (insert.rollback_writer(TxnId(9)), insert.latest()),
            (1, None)
        );
    }

    #[test]
    fn group_locking_style_stacked_uncommitted_versions() {
        // T1, T3, T2 update the hot row in that order without committing
        // (the cascade example in §4.4 of the paper).
        let mut chain = RecordVersions::new(row(1), TxnId::INVALID, Some(0));
        chain.push_uncommitted(row(2), TxnId(1));
        chain.push_uncommitted(row(3), TxnId(3));
        chain.push_uncommitted(row(4), TxnId(2));
        assert_eq!(chain.version_count(), 4);
        assert_eq!(chain.latest().unwrap().row.get_int(1), Some(4));
        // Rollback in reverse update order: T2, then T3, then T1.
        chain.rollback_writer(TxnId(2));
        assert_eq!(chain.latest().unwrap().row.get_int(1), Some(3));
        chain.rollback_writer(TxnId(3));
        assert_eq!(chain.latest().unwrap().row.get_int(1), Some(2));
        chain.rollback_writer(TxnId(1));
        assert_eq!(chain.latest().unwrap().row.get_int(1), Some(1));
    }

    #[test]
    fn bamboo_style_rollback_from_the_middle_of_the_suffix() {
        let mut chain = RecordVersions::new(row(1), TxnId::INVALID, Some(0));
        chain.push_uncommitted(row(2), TxnId(1));
        chain.push_uncommitted(row(3), TxnId(2));
        chain.push_uncommitted(row(4), TxnId(3));
        assert_eq!(chain.rollback_writer(TxnId(2)), 1);
        assert_eq!(chain.latest().unwrap().writer, TxnId(3));
        assert_eq!(chain.rollback_writer(TxnId(3)), 1);
        assert_eq!(chain.latest().unwrap().writer, TxnId(1));
        // A committed version of the same writer is history, not undo.
        chain.commit_writer(TxnId(1), 4);
        assert_eq!(chain.rollback_writer(TxnId(1)), 0);
        assert_eq!(committed_value(&chain), Some(2));
    }

    #[test]
    fn purge_keeps_newest_at_floor_and_everything_newer() {
        let mut chain = RecordVersions::new(row(1), TxnId::INVALID, Some(0));
        for i in 1..=5u64 {
            chain.push_uncommitted(row(10 + i as i64), TxnId(i));
            chain.commit_writer(TxnId(i), i);
        }
        chain.push_uncommitted(row(99), TxnId(42));
        // A floor at the base version drops nothing.
        assert_eq!(chain.purge_to_floor(0), 0);
        // Floor 3: versions 3, 4, 5 and the uncommitted head stay.
        assert_eq!(chain.purge_to_floor(3), 3);
        assert_eq!(chain.version_count(), 4);
        assert_eq!(chain.purge_to_floor(3), 0);
        // Unbounded floor: the newest committed version and the head stay.
        assert_eq!(chain.purge_to_floor(u64::MAX), 2);
        assert_eq!(chain.version_count(), 2);
        assert_eq!(chain.latest().unwrap().row.get_int(1), Some(99));
        assert_eq!(committed_value(&chain), Some(15));
    }

    /// The chain as it was before orientation became private: newest first,
    /// front insert, full-chain commit and rollback.  Kept as the reference
    /// the differential test below compares against.
    #[derive(Default)]
    struct NewestFirstModel {
        versions: Vec<Version>,
    }

    impl NewestFirstModel {
        fn push_uncommitted(&mut self, row: Row, writer: TxnId) {
            self.versions.insert(
                0,
                Version {
                    row,
                    writer,
                    commit_no: None,
                },
            );
        }

        fn commit_writer(&mut self, writer: TxnId, commit_no: u64) {
            for v in &mut self.versions {
                if v.writer == writer && v.commit_no.is_none() {
                    v.commit_no = Some(commit_no);
                }
            }
        }

        fn rollback_writer(&mut self, writer: TxnId) {
            self.versions
                .retain(|v| !(v.writer == writer && v.commit_no.is_none()));
        }

        fn purge_to_floor(&mut self, floor: u64) {
            if let Some(kept) = self
                .versions
                .iter()
                .position(|v| v.commit_no.is_some_and(|no| no <= floor))
            {
                self.versions.truncate(kept + 1);
            }
        }

        fn visible<J: VisibilityJudge + ?Sized>(&self, judge: &J) -> Option<&Version> {
            self.versions
                .iter()
                .find(|v| judge.is_visible(v.writer, v.commit_no))
        }
    }

    /// Copy-free view: commit numbers at or below the horizon are visible.
    struct Horizon(u64);

    impl VisibilityJudge for Horizon {
        fn is_visible(&self, _writer: TxnId, commit_no: Option<u64>) -> bool {
            commit_no.is_some_and(|no| no <= self.0)
        }
    }

    /// Copying view: committed writers outside the active list are visible.
    struct ActiveList(Vec<TxnId>);

    impl VisibilityJudge for ActiveList {
        fn is_visible(&self, writer: TxnId, commit_no: Option<u64>) -> bool {
            commit_no.is_some() && !self.0.contains(&writer)
        }
    }

    #[test]
    fn chain_agrees_with_the_newest_first_model_on_random_scripts() {
        for seed in 1..=200u64 {
            let mut rng = XorShiftRng::new(seed);
            // Writers with uncommitted versions, bottom to top.  The suffix
            // invariant shapes the script: only the top writer updates
            // again, only the bottom one commits; any of them rolls back.
            // Half the seeds start as recovery's placeholder or as an
            // insert, so a rollback can leave the chain without a head.
            let mut chain = match seed % 4 {
                0 => RecordVersions::default(),
                1 => RecordVersions::new(row(0), TxnId(1), None),
                _ => RecordVersions::new(row(0), TxnId::INVALID, Some(0)),
            };
            let mut model = NewestFirstModel::default();
            model.versions.extend(chain.latest().cloned());
            let (mut dirty, mut committed) = (Vec::new(), Vec::new());
            for v in &model.versions {
                match v.commit_no {
                    Some(no) => committed.push((v.writer, no)),
                    None => dirty.push(v.writer),
                }
            }
            let (mut next_writer, mut next_commit_no, mut floor) = (1u64, 1u64, 0u64);
            for step in 0..400 {
                match rng.next_bounded(10) {
                    0..=3 => {
                        if dirty.is_empty() || rng.next_bool(0.7) {
                            next_writer += 1;
                            dirty.push(TxnId(next_writer));
                        }
                        let writer = *dirty.last().unwrap();
                        chain.push_uncommitted(row(step), writer);
                        model.push_uncommitted(row(step), writer);
                    }
                    4..=6 if !dirty.is_empty() => {
                        let writer = dirty.remove(0);
                        chain.commit_writer(writer, next_commit_no);
                        model.commit_writer(writer, next_commit_no);
                        committed.push((writer, next_commit_no));
                        next_commit_no += 1;
                    }
                    7 if !dirty.is_empty() => {
                        // Tail (group locking) or mid-suffix (Bamboo).
                        let at = if rng.next_bool(0.5) {
                            dirty.len() - 1
                        } else {
                            rng.next_bounded(dirty.len() as u64) as usize
                        };
                        let writer = dirty.remove(at);
                        chain.rollback_writer(writer);
                        model.rollback_writer(writer);
                    }
                    8 => {
                        floor = floor.max(rng.next_bounded(next_commit_no));
                        let before = chain.version_count();
                        let dropped = chain.purge_to_floor(floor);
                        model.purge_to_floor(floor);
                        assert_eq!(chain.version_count(), before - dropped);
                    }
                    _ => {}
                }
                assert_eq!(chain.version_count(), model.versions.len(), "seed {seed}");
                assert_eq!(chain.latest(), model.versions.first(), "seed {seed}");
                // Judges a reader may hold: a horizon at or above the floor;
                // an active list of dirty writers plus some that are stamped
                // above the floor but have not left the active set yet.
                let horizon = Horizon(floor + rng.next_bounded(next_commit_no - floor));
                let mut active = ActiveList(dirty.clone());
                for (writer, commit_no) in &committed {
                    if *commit_no > floor && rng.next_bool(0.5) {
                        active.0.push(*writer);
                    }
                }
                // Purge kept a version for every judge that can see a commit.
                for judge in [&ReadCommitted as &dyn VisibilityJudge, &horizon, &active] {
                    assert_eq!(chain.visible(judge), model.visible(judge));
                    let sees = committed
                        .iter()
                        .any(|(w, no)| judge.is_visible(*w, Some(*no)));
                    assert_eq!(
                        chain.visible(judge).is_some(),
                        sees,
                        "seed {seed} step {step}"
                    );
                }
            }
        }
    }
}
