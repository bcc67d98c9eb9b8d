//! Crash recovery.
//!
//! Recovery rebuilds the engine from a [`CheckpointImage`] plus the durable
//! suffix of the redo log, in one pass in log order that does what the
//! engine did:
//!
//! * a row image becomes the newest, uncommitted version of its row, written
//!   by its transaction (the row is inserted if its primary key is absent: it
//!   may have been created after the checkpoint);
//! * a `Commit` marker stamps its transaction's rows with the marker's
//!   `trx_no` and drops what that supersedes, so a row's chain never grows
//!   past the transactions stacked on it and replay is linear in the log,
//!   however hot the row;
//! * a `Rollback` marker undoes its transaction's rows through
//!   `Table::rollback_writer`, as the live rollback did before writing it;
//! * an `UndoHeader` records the transaction's hot-update order (§5.3).
//!
//! Images are whole rows, so replaying a stretch of log the checkpoint
//! already reflects rewrites the same values in the same order, and a
//! recovery rerun over the same log yields the same state.
//!
//! After the pass, the transactions with no durable marker are rolled back
//! *in reverse hot-update order* (transactions without a hot order first),
//! reproducing the paper's single-threaded sequential rollback.  The report
//! lists every transaction that did not commit in that order — those a
//! `Rollback` marker already undid too — so the failure-recovery experiment
//! can verify it.
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
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::time::Duration;
use txsql_common::fxhash::FxHashMap;
use txsql_common::{Lsn, RecordId, Result, TableId, TxnId};

/// Everything recovery learned, separated from the recovered engine so it can
/// be logged, asserted on by the recovery oracle, and used to reseed the
/// transaction system after a restart.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Transactions whose commit marker was durable (re-committed), sorted.
    pub committed: Vec<TxnId>,
    /// Transactions with a row image and no durable commit, in rollback
    /// order (reverse hot-update order), including those a durable
    /// `Rollback` marker undid.
    pub rolled_back: Vec<TxnId>,
    /// Number of row images replayed.
    pub replayed: usize,
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
            "recovery: replayed {} records, {} committed, {} rolled back ({} hot-ordered), {}",
            self.replayed,
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
    /// A durable `Commit` marker was replayed.
    committed: bool,
    /// A durable `Rollback` marker was replayed: its rows are already undone.
    rolled_back: bool,
    header: UndoHeader,
    /// The rows its images were replayed into, each once, in the order of
    /// their first image (the rule of `Transaction::record_write`).
    writes: Vec<(TableId, RecordId)>,
    last_seq: usize,
}

/// Recovers a storage engine from `checkpoint` and the durable log as read
/// back after a crash: `frames` is decoded once, in place, as it is replayed,
/// up to where it scan-stops.
pub fn recover_frames(
    checkpoint: &CheckpointImage,
    mut frames: Frames<'_>,
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    let records = frames.by_ref().map(|(_, record)| record);
    let mut outcome = replay(checkpoint, records, fsync_latency)?;
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
    replay(checkpoint, durable_redo, fsync_latency)
}

/// The one pass over `records` in log order, then the rollback of the
/// transactions it left without a durable marker.
fn replay(
    checkpoint: &CheckpointImage,
    records: impl IntoIterator<Item = impl Borrow<RedoRecord>>,
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    let storage = Storage::from_checkpoint(checkpoint, fsync_latency)?;
    let mut states: FxHashMap<TxnId, TxnRecoveryState> = FxHashMap::default();
    let (mut replayed, mut max_trx_no) = (0usize, 0u64);
    for (seq, record) in records.into_iter().enumerate() {
        let record = record.borrow();
        let txn = record.txn();
        let state = states.entry(txn).or_default();
        state.last_seq = seq;
        match record {
            RedoRecord::Image {
                table: table_id,
                row,
                ..
            } => {
                // The image names no record: its row is found by its primary
                // key, column 0, and inserted if the key is absent (it may
                // have been created after the checkpoint).
                let Some(pk) = row.primary_key() else {
                    continue;
                };
                let table = storage.table(*table_id)?;
                let record = match table.lookup_pk(pk) {
                    Ok(record) => record,
                    Err(_) => table.insert_versions(pk, RecordVersions::default())?,
                };
                let mut guard = table.slot(record)?.write();
                guard.push_uncommitted(row.clone(), txn);
                #[cfg(test)]
                tests::PEAK_CHAIN.with(|peak| peak.set(peak.get().max(guard.version_count())));
                if !state.writes.contains(&(*table_id, record)) {
                    state.writes.push((*table_id, record));
                }
                replayed += 1;
            }
            RedoRecord::UndoHeader { field, .. } => state.header = UndoHeader::from_raw(*field),
            RedoRecord::Commit { trx_no, .. } => {
                state.committed = true;
                max_trx_no = max_trx_no.max(*trx_no);
                for (table_id, record) in state.writes.drain(..) {
                    let mut guard = storage.table(table_id)?.slot(record)?.write();
                    guard.commit_writer(txn, *trx_no);
                    guard.purge_to_floor(u64::MAX);
                }
            }
            RedoRecord::Rollback { .. } => {
                state.rolled_back = true;
                for (table_id, record) in state.writes.iter().rev() {
                    storage.table(*table_id)?.rollback_writer(*record, txn)?;
                }
            }
        }
    }
    let mut committed: Vec<TxnId> = states
        .iter()
        .filter(|(_, s)| s.committed)
        .map(|(txn, _)| *txn)
        .collect();
    committed.sort_unstable();

    // Roll back the transactions with no durable marker, and report them
    // with those a rollback marker undid, in one order: transactions WITHOUT
    // a recovered hot-update order first, newest first (they cannot have
    // stacked uncommitted versions under a hotspot chain), then hotspot
    // transactions in reverse hot-update order (§5.3).
    let mut losers: Vec<_> = states
        .iter()
        .filter(|(_, s)| !s.committed && !s.writes.is_empty())
        .collect();
    losers.sort_by_key(|(_, s)| {
        let order = s.header.hot_update_order();
        (order.is_some(), Reverse(order), Reverse(s.last_seq))
    });
    let mut rolled_back = Vec::with_capacity(losers.len());
    let mut recovered_hot_orders = Vec::new();
    for (&txn, state) in losers {
        if !state.rolled_back {
            for (table_id, record) in state.writes.iter().rev() {
                storage.table(*table_id)?.rollback_writer(*record, txn)?;
            }
        }
        recovered_hot_orders.extend(state.header.hot_update_order().map(|order| (txn, order)));
        rolled_back.push(txn);
    }

    let max_txn_id = states.keys().map(|t| t.0).max().unwrap_or(0);
    Ok(RecoveryOutcome {
        storage,
        report: RecoveryReport {
            committed,
            rolled_back,
            replayed,
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
    use txsql_common::Row;

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
    fn a_row_set_back_to_an_earlier_value_recovers_the_last_write() {
        // One transaction writes the hot row 2 -> 3 -> 2 and commits: the
        // repeated image is a write of its own, not a duplicate to skip.
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(1);
        for value in [2, 3, 2] {
            set_hot(&storage, txn, tid, hot, value);
        }
        storage.commit_writes(txn, 1, &[(tid, hot)]).unwrap();
        storage.redo().flush_all().unwrap();

        let outcome = recovered(&storage, &checkpoint);
        assert_eq!(outcome.report.committed, vec![txn]);
        assert_eq!(outcome.report.replayed, 3);
        assert_eq!(value_of(&outcome, tid, 1), Some(2));
    }

    /// One hot row (pk 1) updated by 50 000 transactions in group-locking
    /// style — up to four stack their updates before the first of them
    /// commits, one group in a hundred ends with its newest updater rolling
    /// back — then three in-flight hotspot updates.  Returns the log, the
    /// transactions it rolled back before the crash and its largest group.
    fn hot_row_log(tid: TableId) -> (Vec<RedoRecord>, Vec<TxnId>, usize) {
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
        let mut largest_group = 0;
        while next_txn <= 50_000 {
            let group: Vec<u64> = (0..=rng.next_bounded(4)).map(|i| next_txn + i).collect();
            next_txn += group.len() as u64;
            largest_group = largest_group.max(group.len());
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
        (log, rolled_back, largest_group)
    }

    #[test]
    fn hot_row_replay_is_linear_and_keeps_the_reported_outcome() {
        let (_storage, tid, _hot, _cold, checkpoint) = setup();
        let (log, rolled_back_before_crash, largest_group) = hot_row_log(tid);
        PEAK_CHAIN.with(|peak| peak.set(0));
        let outcome = recover(&checkpoint, &log, Duration::ZERO).unwrap();
        // Every number below is what replaying the whole log, then resolving
        // outcomes reports for this log (that quadratic algorithm needs 6 s
        // for it, not 60 ms).
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
        assert_eq!((report.max_txn_id, report.max_trx_no), (50_006, 49_794));
        let rid = outcome.storage.table(tid).unwrap().lookup_pk(1).unwrap();
        let row = outcome.storage.read_committed(tid, rid).unwrap().unwrap();
        assert_eq!(row.get_int(1), Some(49_795));
        let (latest, _) = outcome.storage.read_latest_with_writer(tid, rid).unwrap();
        assert_eq!(latest, row);
        // The chain never held more than the committed image and the largest
        // group's updates stacked on it, the bound the engine keeps.
        assert_eq!(PEAK_CHAIN.with(|peak| peak.get()), largest_group + 1);
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
