//! Crash recovery.
//!
//! Recovery rebuilds the engine from a [`CheckpointImage`] plus the durable
//! suffix of the redo log, then deals with in-flight transactions:
//!
//! 1. **Outcome resolution** — one scan of the suffix for `Commit` markers
//!    (the first `trx_no` of a duplicated marker wins) and `UndoHeader`
//!    records (which may carry a `hot_update_order`, §5.3).
//! 2. **Replay** — every durable row image is re-applied in
//!    log order as a version written by its original transaction.  A winner's
//!    image is stamped with its `trx_no` as it is applied and the committed
//!    image it supersedes is dropped, so a row's chain never grows past the
//!    losers stacked on it and replay is linear in the log, however hot the
//!    row.  Replay is *idempotent*: an image its transaction has already
//!    applied to the same row is skipped instead of double-applied, so
//!    replaying the same durable suffix twice — or a suffix that overlaps the
//!    checkpoint — yields the same state.  The guard looks at the
//!    transaction's own applied images, never at the row's chain.
//!    The images of a transaction with a durable `Rollback` marker were all
//!    undone before the marker was written: they are counted, not applied.
//! 3. **Loser rollback** — transactions without a durable `Commit` marker
//!    (rolled back before the crash, or still active) are rolled back *in
//!    reverse hot-update order* (transactions without a hot order are rolled
//!    back first), reproducing the paper's single-threaded sequential
//!    rollback.  The rollback order is also reported so the failure-recovery
//!    experiment can verify it.
//!
//! # Torn tails
//!
//! A mid-flush crash cuts the durable bytes inside a flush batch, usually
//! inside a frame.  [`recover_frames`] is handed the log's own walk over its
//! durable frames ([`Frames`]), which scan-stops at the first frame whose
//! length or checksum does not hold — that record never reached disk whole,
//! so the transaction it belonged to simply falls into the rollback pass —
//! and reports where it stopped as [`RecoveryReport::torn_tail`].

use crate::storage::{CheckpointImage, Storage};
use crate::undo::UndoHeader;
use crate::version::RecordVersions;
use crate::wal::{Frames, RedoRecord};
use std::time::Duration;
use txsql_common::fxhash::{FxHashMap, FxHashSet};
use txsql_common::{Lsn, Result, Row, TableId, TxnId};

/// Everything recovery learned, separated from the recovered engine so it can
/// be logged, asserted on by the recovery oracle, and used to reseed the
/// transaction system after a restart.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Transactions whose commit marker was durable (re-committed), sorted.
    pub committed: Vec<TxnId>,
    /// In-flight transactions rolled back during recovery, in the order they
    /// were rolled back (reverse hot-update order).
    pub rolled_back: Vec<TxnId>,
    /// Number of redo records replayed.
    pub replayed: usize,
    /// Row images skipped because their transaction had already applied them
    /// (idempotent replay of an overlapping or duplicated suffix).
    pub duplicate_replays_skipped: usize,
    /// Hot-update orders recovered from persisted undo headers, in rollback
    /// order (descending).
    pub recovered_hot_orders: Vec<(TxnId, u64)>,
    /// LSN of the torn frame the log walk scan-stopped at, if any.
    pub torn_tail: Option<Lsn>,
    /// Highest transaction id seen in the durable suffix (0 if none).
    pub max_txn_id: u64,
    /// Highest commit sequence number seen in the durable suffix (0 if none).
    pub max_trx_no: u64,
}

impl RecoveryReport {
    /// One-line human-readable summary (the recovery outcome log).
    pub fn summary(&self) -> String {
        let torn = match self.torn_tail {
            Some(lsn) => format!("torn tail at lsn {}", lsn.0),
            None => "clean tail".to_string(),
        };
        format!(
            "recovery: replayed {} records ({} duplicates skipped), \
             {} committed, {} rolled back ({} hot-ordered), {}",
            self.replayed,
            self.duplicate_replays_skipped,
            self.committed.len(),
            self.rolled_back.len(),
            self.recovered_hot_orders.len(),
            torn
        )
    }
}

/// Outcome of a recovery run: the recovered engine plus its report.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The recovered storage engine.
    pub storage: Storage,
    /// What recovery did (for logging and the recovery oracle).
    pub report: RecoveryReport,
}

#[derive(Default)]
struct TxnRecoveryState {
    committed_as: Option<u64>,
    /// A durable `Rollback` marker: every change was undone before it was
    /// written, so the images are counted but not applied.
    rolled_back: bool,
    header: UndoHeader,
    /// Log positions of the row images replayed for this transaction, in log
    /// order: what the duplicate guard compares against and what rollback
    /// walks backwards.
    applied: Vec<usize>,
    last_seq: usize,
}

/// The row image a redo record carries: table, primary key, row.  The image
/// names no record: replay finds the row by its primary key, column 0.
fn row_image(record: &RedoRecord) -> Option<(TableId, i64, &Row)> {
    match record {
        RedoRecord::Image { table, row, .. } => Some((*table, row.primary_key()?, row)),
        _ => None,
    }
}

/// Applies one row image as the newest version of its row, written by `txn`,
/// inserting the row if its primary key does not exist yet (it may have been
/// created after the checkpoint).  A winner's image (`commit_no` known) is
/// stamped at once and everything it supersedes is dropped; a loser's stays
/// uncommitted for the rollback pass.
fn replay_row(
    storage: &Storage,
    txn: TxnId,
    commit_no: Option<u64>,
    (table_id, pk, row): (TableId, i64, &Row),
) -> Result<()> {
    let table = storage.table(table_id)?;
    let record = match table.lookup_pk(pk) {
        Ok(record) => record,
        Err(_) => table.insert_versions(pk, RecordVersions::default())?,
    };
    let slot = table.slot(record)?;
    let mut guard = slot.write();
    guard.push_uncommitted(row.clone(), txn);
    if let Some(commit_no) = commit_no {
        guard.commit_writer(txn, commit_no);
        guard.purge_to_floor(u64::MAX);
    }
    #[cfg(test)]
    tests::PEAK_CHAIN.with(|peak| peak.set(peak.get().max(guard.version_count())));
    Ok(())
}

/// Recovers a storage engine from `checkpoint` and the durable log as read
/// back after a crash: `frames` is decoded once, in place, up to where it
/// scan-stops (the two passes of [`recover`] index what it yielded).
pub fn recover_frames(
    checkpoint: &CheckpointImage,
    mut frames: Frames<'_>,
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    let records: Vec<RedoRecord> = frames.by_ref().map(|(_, record)| record).collect();
    let mut outcome = recover(checkpoint, &records, fsync_latency)?;
    outcome.report.torn_tail = frames.torn_tail();
    Ok(outcome)
}

/// Recovers a storage engine from `checkpoint` and the durable redo suffix,
/// given as the records of its whole frames.
pub fn recover(
    checkpoint: &CheckpointImage,
    durable_redo: &[RedoRecord],
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    let storage = Storage::from_checkpoint(checkpoint, fsync_latency)?;
    let mut states: FxHashMap<TxnId, TxnRecoveryState> = FxHashMap::default();

    // Pass 1: resolve outcomes and collect per-transaction metadata.
    let mut max_trx_no = 0u64;
    for (seq, record) in durable_redo.iter().enumerate() {
        let state = states.entry(record.txn()).or_default();
        state.last_seq = seq;
        match record {
            RedoRecord::UndoHeader { field, .. } => {
                state.header = UndoHeader::from_raw(*field);
            }
            RedoRecord::Commit { trx_no, .. } => {
                // A duplicated suffix can carry the same Commit marker twice;
                // the first trx_no wins (they are identical in practice).
                let trx_no = *state.committed_as.get_or_insert(*trx_no);
                max_trx_no = max_trx_no.max(trx_no);
            }
            RedoRecord::Rollback { .. } => state.rolled_back = true,
            _ => {}
        }
    }

    // Pass 2: replay row images in log order, winners stamped as applied.
    let mut replayed = 0usize;
    let mut duplicate_replays_skipped = 0usize;
    for (seq, record) in durable_redo.iter().enumerate() {
        let Some(image) = row_image(record) else {
            continue;
        };
        let txn = record.txn();
        let state = states.get_mut(&txn).expect("pass 1 saw every record");
        let already_applied = state
            .applied
            .iter()
            .any(|earlier| row_image(&durable_redo[*earlier]) == Some(image));
        if already_applied {
            duplicate_replays_skipped += 1;
            continue;
        }
        if !state.rolled_back {
            replay_row(&storage, txn, state.committed_as, image)?;
        }
        state.applied.push(seq);
        replayed += 1;
    }
    let mut committed: Vec<TxnId> = states
        .iter()
        .filter(|(_, s)| s.committed_as.is_some())
        .map(|(txn, _)| *txn)
        .collect();
    committed.sort_unstable();

    // Pass 3: roll back transactions that did not reach a durable commit —
    // both those with a durable rollback marker and those still active.
    // Order: transactions WITHOUT a recovered hot-update order first (they
    // cannot have stacked uncommitted versions under a hotspot chain), then
    // hotspot transactions in reverse hot-update order (§5.3).
    let mut to_roll_back: Vec<(TxnId, Option<u64>, usize)> = states
        .iter()
        .filter(|(_, s)| s.committed_as.is_none() && !s.applied.is_empty())
        .map(|(txn, s)| (*txn, s.header.hot_update_order(), s.last_seq))
        .collect();
    to_roll_back.sort_by(|a, b| match (a.1, b.1) {
        (None, None) => b.2.cmp(&a.2),
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => y.cmp(&x),
    });

    let mut rolled_back = Vec::new();
    let mut recovered_hot_orders = Vec::new();
    let mut seen: FxHashSet<TxnId> = FxHashSet::default();
    for (txn, hot_order, _) in to_roll_back {
        if !seen.insert(txn) {
            continue;
        }
        if let Some(order) = hot_order {
            recovered_hot_orders.push((txn, order));
        }
        for seq in states[&txn].applied.iter().rev() {
            let (table_id, pk, _) = row_image(&durable_redo[*seq]).expect("applied image");
            let table = storage.table(table_id)?;
            if let Ok(record) = table.lookup_pk(pk) {
                table.rollback_writer(record, txn)?;
            }
        }
        rolled_back.push(txn);
    }
    recovered_hot_orders.sort_by_key(|(_, order)| std::cmp::Reverse(*order));

    let max_txn_id = states.keys().map(|t| t.0).max().unwrap_or(0);
    Ok(RecoveryOutcome {
        storage,
        report: RecoveryReport {
            committed,
            rolled_back,
            replayed,
            duplicate_replays_skipped,
            recovered_hot_orders,
            torn_tail: None,
            max_txn_id,
            max_trx_no,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use std::cell::Cell;
    use txsql_common::{RecordId, TableId};

    thread_local! {
        /// Longest chain `replay_row` left behind on this thread.
        pub(super) static PEAK_CHAIN: Cell<usize> = const { Cell::new(0) };
    }

    /// Builds a storage with one table, one hot row (pk=1) and one cold row
    /// (pk=2), returning (storage, table id, hot rid, cold rid, checkpoint).
    fn setup() -> (Storage, TableId, RecordId, RecordId, CheckpointImage) {
        setup_on(Storage::default())
    }

    /// [`setup`] on an engine whose first flush is cut `cut_back` bytes short.
    fn setup_torn(cut_back: u64) -> (Storage, TableId, RecordId, RecordId, CheckpointImage) {
        use crate::fault::{CrashPoint, FaultInjector, FaultPlan};
        let plan = FaultPlan::none()
            .crash_at(CrashPoint::MidFlush, 1)
            .with_torn_cut_back(cut_back);
        setup_on(Storage::with_faults(
            Duration::ZERO,
            FaultInjector::new(plan),
        ))
    }

    fn setup_on(storage: Storage) -> (Storage, TableId, RecordId, RecordId, CheckpointImage) {
        let tid = TableId(1);
        storage.create_table(TableSchema::new(tid, "t", 2)).unwrap();
        let hot = storage.load_row(tid, Row::from_ints(&[1, 1])).unwrap();
        let cold = storage.load_row(tid, Row::from_ints(&[2, 100])).unwrap();
        let checkpoint = storage.checkpoint();
        (storage, tid, hot, cold, checkpoint)
    }

    /// Begins `txn` and has it set the hot row's value.
    fn set_hot(storage: &Storage, txn: TxnId, tid: TableId, hot: RecordId, value: i64) -> Lsn {
        storage.begin_txn(txn);
        let row = Row::from_ints(&[1, value]);
        storage.apply_update(txn, tid, hot, row).unwrap()
    }

    /// Recovery from `checkpoint` and what of `storage`'s log is durable.
    fn recovered(storage: &Storage, checkpoint: &CheckpointImage) -> RecoveryOutcome {
        recover(
            checkpoint,
            &storage.redo().durable_records(),
            Duration::ZERO,
        )
        .unwrap()
    }

    /// The committed value of the row with primary key `pk`.
    fn value_of(outcome: &RecoveryOutcome, tid: TableId, pk: i64) -> Option<i64> {
        let rid = outcome.storage.table(tid).unwrap().lookup_pk(pk).unwrap();
        let row = outcome.storage.read_committed(tid, rid).unwrap();
        row.unwrap().get_int(1)
    }

    #[test]
    fn committed_transactions_survive_a_crash() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(10);
        set_hot(&storage, txn, tid, hot, 2);
        let lsn = storage.commit_writes(txn, 1, &[(tid, hot)]).unwrap();
        storage.redo().flush_to(lsn).unwrap();

        let outcome = recovered(&storage, &checkpoint);
        assert_eq!(outcome.report.committed, vec![txn]);
        assert!(outcome.report.rolled_back.is_empty());
        assert_eq!(outcome.report.max_txn_id, 10);
        assert_eq!(outcome.report.max_trx_no, 1);
        assert_eq!(value_of(&outcome, tid, 1), Some(2));
    }

    #[test]
    fn unflushed_commit_is_rolled_back() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(10);
        let lsn = set_hot(&storage, txn, tid, hot, 2);
        storage.redo().flush_to(lsn).unwrap();
        // Commit marker exists but is NOT flushed.
        storage.commit_writes(txn, 1, &[(tid, hot)]).unwrap();

        let outcome = recovered(&storage, &checkpoint);
        assert!(outcome.report.committed.is_empty());
        assert_eq!(outcome.report.rolled_back, vec![txn]);
        assert_eq!(value_of(&outcome, tid, 1), Some(1));
    }

    #[test]
    fn hotspot_transactions_roll_back_in_reverse_hot_order() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        // Three uncommitted hotspot updates, orders 1,2,3 (paper §4.4 example).
        for (t, order, val) in [(1u64, 1u64, 2i64), (3, 2, 3), (2, 3, 4)] {
            let txn = TxnId(t);
            set_hot(&storage, txn, tid, hot, val);
            storage.set_hot_update_order(txn, order);
        }
        storage.redo().flush_all().unwrap();

        let outcome = recovered(&storage, &checkpoint);
        // Reverse hot-update order: order 3 (T2), then order 2 (T3), then order 1 (T1).
        let rolled_back = &outcome.report.rolled_back;
        assert_eq!(rolled_back, &[TxnId(2), TxnId(3), TxnId(1)]);
        assert_eq!(
            outcome.report.recovered_hot_orders,
            vec![(TxnId(2), 3), (TxnId(3), 2), (TxnId(1), 1)]
        );
        assert_eq!(value_of(&outcome, tid, 1), Some(1));
    }

    #[test]
    fn inserts_after_checkpoint_are_replayed_and_resolved() {
        let (storage, tid, _hot, _cold, checkpoint) = setup();
        let committed_txn = TxnId(5);
        storage.begin_txn(committed_txn);
        let (rid, _) = storage
            .apply_insert(committed_txn, tid, Row::from_ints(&[10, 10]))
            .unwrap();
        let lsn = storage
            .commit_writes(committed_txn, 2, &[(tid, rid)])
            .unwrap();
        storage.redo().flush_to(lsn).unwrap();

        let active_txn = TxnId(6);
        storage.begin_txn(active_txn);
        storage
            .apply_insert(active_txn, tid, Row::from_ints(&[11, 11]))
            .unwrap();
        storage.redo().flush_all().unwrap();

        let outcome = recovered(&storage, &checkpoint);
        let t = outcome.storage.table(tid).unwrap();
        assert!(t.lookup_pk(10).is_ok(), "committed insert must survive");
        assert!(t.lookup_pk(11).is_err(), "the uncommitted insert stayed");
        assert_eq!(outcome.report.committed, vec![committed_txn]);
        assert!(outcome.report.rolled_back.contains(&active_txn));
    }

    #[test]
    fn recovery_is_idempotent_when_rerun() {
        // A crash during recovery: running recovery again over the same
        // durable log must yield the same state (§5.3 last paragraph).
        let (storage, tid, hot, _cold, checkpoint) = setup();
        for (t, order, val) in [(1u64, 1u64, 2i64), (2, 2, 3)] {
            let txn = TxnId(t);
            set_hot(&storage, txn, tid, hot, val);
            storage.set_hot_update_order(txn, order);
        }
        storage.redo().flush_all().unwrap();
        let durable = storage.redo().durable_records();

        let first = recover(&checkpoint, &durable, Duration::ZERO).unwrap();
        let second = recover(&checkpoint, &durable, Duration::ZERO).unwrap();
        assert_eq!(value_of(&first, tid, 1), value_of(&second, tid, 1));
        assert_eq!(first.report.rolled_back, second.report.rolled_back);
    }

    #[test]
    fn replaying_the_same_suffix_twice_is_idempotent() {
        // The same durable suffix concatenated with itself — e.g. an archiver
        // handing recovery an overlapping log segment — must not double-apply
        // versions or double-commit.
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let committed = TxnId(1);
        set_hot(&storage, committed, tid, hot, 7);
        storage.commit_writes(committed, 1, &[(tid, hot)]).unwrap();
        let in_flight = TxnId(2);
        set_hot(&storage, in_flight, tid, hot, 9);
        storage.redo().flush_all().unwrap();

        let suffix = storage.redo().durable_records();
        let mut doubled = suffix.clone();
        doubled.extend(suffix.iter().cloned());

        let once = recover(&checkpoint, &suffix, Duration::ZERO).unwrap();
        let twice = recover(&checkpoint, &doubled, Duration::ZERO).unwrap();
        assert_eq!(twice.report.replayed, once.report.replayed);
        assert_eq!(twice.report.duplicate_replays_skipped, once.report.replayed);
        assert_eq!(once.report.committed, twice.report.committed);
        assert_eq!(once.report.rolled_back, twice.report.rolled_back);
        for outcome in [&once, &twice] {
            let t = outcome.storage.table(tid).unwrap();
            let rid = t.lookup_pk(1).unwrap();
            let slot = t.slot(rid).unwrap();
            assert_eq!(
                slot.read()
                    .visible(&crate::version::ReadCommitted)
                    .unwrap()
                    .row
                    .get_int(1),
                Some(7)
            );
            // No stacked duplicates, and the winner's image superseded the
            // checkpoint's: exactly one version remains.
            assert_eq!(slot.read().version_count(), 1);
        }
    }

    /// One hot row (pk 1) updated by 50 000 transactions in group-locking
    /// style — up to four stack their updates before the first of them
    /// commits, one group in a hundred ends with its newest updater rolling
    /// back — then three in-flight hotspot updates, then the last 2 000
    /// records once more (an overlapping archive segment).  Returns the log
    /// and the transactions it rolled back before the crash.
    fn hot_row_log(tid: TableId) -> (Vec<RedoRecord>, Vec<TxnId>) {
        let mut rng = txsql_common::rng::XorShiftRng::new(18);
        let (mut log, mut rolled_back) = (Vec::new(), Vec::new());
        let update = |log: &mut Vec<RedoRecord>, txn: u64, value: i64, order: u64| {
            let txn = TxnId(txn);
            log.push(RedoRecord::Image {
                txn,
                table: tid,
                row: Row::from_ints(&[1, value]),
            });
            log.push(RedoRecord::UndoHeader {
                txn,
                field: UndoHeader::with_hot_update_order(order).raw(),
            });
        };
        let (mut next_txn, mut trx_no, mut value, mut order) = (1u64, 0u64, 1i64, 0u64);
        while next_txn <= 50_000 {
            let group: Vec<u64> = (0..=rng.next_bounded(4)).map(|i| next_txn + i).collect();
            next_txn += group.len() as u64;
            for txn in &group {
                value += 1;
                order += 1;
                update(&mut log, *txn, value, order);
            }
            let mut committers = group.as_slice();
            if rng.next_bounded(100) == 0 {
                let (newest, rest) = group.split_last().unwrap();
                log.push(RedoRecord::Rollback {
                    txn: TxnId(*newest),
                });
                rolled_back.push(TxnId(*newest));
                value -= 1;
                committers = rest;
            }
            for txn in committers {
                trx_no += 1;
                let txn = TxnId(*txn);
                let field = UndoHeader::with_trx_no(trx_no).raw();
                log.push(RedoRecord::UndoHeader { txn, field });
                log.push(RedoRecord::Commit { txn, trx_no });
            }
        }
        for loser in 0..3 {
            order += 1;
            update(&mut log, next_txn + loser, value + 1 + loser as i64, order);
        }
        let overlap = log[log.len() - 2_000..].to_vec();
        log.extend(overlap);
        (log, rolled_back)
    }

    #[test]
    fn hot_row_replay_is_linear_and_matches_the_two_pass_algorithm() {
        let (_storage, tid, _hot, _cold, checkpoint) = setup();
        let (log, rolled_back_before_crash) = hot_row_log(tid);
        PEAK_CHAIN.with(|peak| peak.set(0));
        let outcome = recover(&checkpoint, &log, Duration::ZERO).unwrap();
        // Every number below is what the parent's replay-all-then-resolve
        // algorithm reports for this log (it needs 6 s for it, not 60 ms).
        let report = &outcome.report;
        let losers = [TxnId(50_006), TxnId(50_005), TxnId(50_004)];
        let mut expected_rolled_back = losers.to_vec();
        expected_rolled_back.extend(rolled_back_before_crash.iter().rev());
        assert_eq!(report.rolled_back, expected_rolled_back);
        assert_eq!(report.rolled_back.len(), 212);
        // Each transaction updated once, so its hot order is its id.
        let expected_orders: Vec<_> = expected_rolled_back.iter().map(|t| (*t, t.0)).collect();
        assert_eq!(report.recovered_hot_orders, expected_orders);
        let expected_committed: Vec<_> = (1..=50_003)
            .map(TxnId)
            .filter(|txn| !rolled_back_before_crash.contains(txn))
            .collect();
        assert_eq!(report.committed, expected_committed);
        assert_eq!(report.committed.len(), 49_794);
        assert_eq!(report.replayed, 50_006);
        assert_eq!(report.duplicate_replays_skipped, 501);
        assert_eq!((report.max_txn_id, report.max_trx_no), (50_006, 49_794));
        let rid = outcome.storage.table(tid).unwrap().lookup_pk(1).unwrap();
        let row = outcome.storage.read_committed(tid, rid).unwrap().unwrap();
        assert_eq!(row.get_int(1), Some(49_795));
        let (latest, _) = outcome.storage.read_latest_with_writer(tid, rid).unwrap();
        assert_eq!(latest, row);
        // The chain never held more than the committed image and the three
        // in-flight updates stacked on it.
        assert_eq!(PEAK_CHAIN.with(|peak| peak.get()), losers.len() + 1);
    }

    #[test]
    fn duplicate_commit_marker_is_applied_once() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(4);
        set_hot(&storage, txn, tid, hot, 42);
        storage.commit_writes(txn, 9, &[(tid, hot)]).unwrap();
        storage.redo().flush_all().unwrap();
        let mut suffix = storage.redo().durable_records();
        suffix.push(RedoRecord::Commit { txn, trx_no: 9 });

        let outcome = recover(&checkpoint, &suffix, Duration::ZERO).unwrap();
        assert_eq!(outcome.report.committed, vec![txn]);
        assert_eq!(outcome.report.max_trx_no, 9);
        assert_eq!(value_of(&outcome, tid, 1), Some(42));
    }

    #[test]
    fn torn_tail_scan_stops_at_last_intact_record() {
        // The cut falls inside the second transaction's commit marker, the
        // batch's last frame (3 words).
        let (storage, tid, hot, cold, checkpoint) = setup_torn(20);
        for (txn, record, pk) in [(TxnId(1), hot, 1), (TxnId(2), cold, 2)] {
            storage
                .apply_update(txn, tid, record, Row::from_ints(&[pk, 5]))
                .unwrap();
            storage.commit_writes(txn, txn.0, &[(tid, record)]).unwrap();
        }
        let torn_at = storage.redo().latest_lsn();
        assert!(storage.redo().flush_all().is_err());

        let frames = storage.redo().durable_frames();
        let outcome = recover_frames(&checkpoint, frames, Duration::ZERO).unwrap();
        assert_eq!(outcome.report.torn_tail, Some(torn_at));
        assert_eq!(outcome.report.committed, vec![TxnId(1)]);
        assert_eq!(outcome.report.rolled_back, vec![TxnId(2)]);
        assert!(outcome.report.summary().contains("torn tail"));
    }

    #[test]
    fn cut_between_hot_order_header_and_its_update_keeps_the_order() {
        // T1 and T2 stack uncommitted updates on the hot row (orders 1, 2);
        // T2 wrote a cold row first.  An update's header and row image are
        // one reservation — consecutive frames — so a mid-flush cut can fall
        // between them: here T2's header is durable, its hot update (the
        // batch's last 40 bytes) is not.
        let (storage, tid, hot, cold, checkpoint) = setup_torn(40);
        let bump = |row: &Row| Row::from_ints(&[1, row.get_int(1).unwrap() + 1]);
        storage
            .update_row(TxnId(1), tid, hot, Some(1), bump)
            .unwrap();
        storage
            .apply_update(TxnId(2), tid, cold, Row::from_ints(&[2, 7]))
            .unwrap();
        let update = storage
            .update_row(TxnId(2), tid, hot, Some(2), bump)
            .unwrap();
        assert!(storage.redo().flush_all().is_err());
        let durable = storage.redo().durable_records();
        assert_eq!(storage.redo().durable_lsn(), Lsn(update.0 - 1));
        let header = durable.last().unwrap();
        assert!(matches!(
            header,
            RedoRecord::UndoHeader { txn: TxnId(2), .. }
        ));

        let frames = storage.redo().durable_frames();
        let outcome = recover_frames(&checkpoint, frames, Duration::ZERO).unwrap();
        assert_eq!(outcome.report.torn_tail, Some(update));
        // T2 rolls back what of it reached the disk, and does so in its
        // place of the reverse hot order (§5.3): before T1.
        assert_eq!(outcome.report.rolled_back, vec![TxnId(2), TxnId(1)]);
        assert_eq!(
            outcome.report.recovered_hot_orders,
            vec![(TxnId(2), 2), (TxnId(1), 1)]
        );
        for (pk, base) in [(1, 1), (2, 100)] {
            let record = outcome.storage.table(tid).unwrap().lookup_pk(pk).unwrap();
            let (row, _) = outcome
                .storage
                .read_latest_with_writer(tid, record)
                .unwrap();
            assert_eq!(row.get_int(1), Some(base));
        }
    }

    #[test]
    fn empty_log_recovers_checkpoint_exactly() {
        let (_storage, tid, _hot, _cold, checkpoint) = setup();
        let outcome = recover(&checkpoint, &[], Duration::ZERO).unwrap();
        assert_eq!(outcome.report.replayed, 0);
        assert_eq!(outcome.report.summary(), outcome.report.summary());
        let t = outcome.storage.table(tid).unwrap();
        assert_eq!(t.row_count(), 2);
    }
}
