//! Undo log: per-transaction undo segments.
//!
//! Each writing transaction owns an [`UndoSegment`] naming the records it
//! modified plus an [`UndoHeader`] and a lower bound of the LSN its redo
//! starts at — the one record storage keeps per transaction, in the sharded
//! [`UndoLog`].  The
//! segment holds no before-images: the version chain *is* the undo image,
//! and rollback pops the writer's versions off it.
//!
//! The header reproduces the paper's recovery trick (§5.3): InnoDB's
//! `TRX_UNDO_TRX_NO` field normally stores the commit sequence number
//! (`trx_no`), but while a hotspot transaction is uncommitted that field is
//! unused — so TXSQL repurposes it, setting the top bit to 1 and storing the
//! `hot_update_order` there.  After a crash, recovery reads the field back
//! and, when the top bit is set, uses the hot-update order to roll back
//! uncommitted hotspot transactions in the correct (reverse) order.

use parking_lot::Mutex;
use txsql_common::fxhash::FxHashMap;
use txsql_common::pad::CachePadded;
use txsql_common::{Lsn, RecordId, TableId, TxnId};

/// Top bit of the `TRX_UNDO_TRX_NO` field: set → the value is a
/// `hot_update_order`, clear → the value is a commit `trx_no` (§5.3).
pub const HOT_UPDATE_ORDER_FLAG: u64 = 1 << 63;

/// The undo segment header (the repurposed `TRX_UNDO_TRX_NO` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UndoHeader {
    field: u64,
}

impl UndoHeader {
    /// Encodes a commit sequence number.
    pub fn with_trx_no(trx_no: u64) -> Self {
        assert!(
            trx_no & HOT_UPDATE_ORDER_FLAG == 0,
            "trx_no overflows the header field"
        );
        Self { field: trx_no }
    }

    /// Encodes a hot update order (top bit set).
    pub fn with_hot_update_order(order: u64) -> Self {
        assert!(
            order & HOT_UPDATE_ORDER_FLAG == 0,
            "hot_update_order overflows the header field"
        );
        Self {
            field: order | HOT_UPDATE_ORDER_FLAG,
        }
    }

    /// The raw field value as persisted in the redo log.
    pub fn raw(&self) -> u64 {
        self.field
    }

    /// Rebuilds a header from its persisted raw value.
    pub fn from_raw(field: u64) -> Self {
        Self { field }
    }

    /// Returns the hot update order if the field currently encodes one.
    pub fn hot_update_order(&self) -> Option<u64> {
        if self.field & HOT_UPDATE_ORDER_FLAG != 0 {
            Some(self.field & !HOT_UPDATE_ORDER_FLAG)
        } else {
            None
        }
    }

    /// Returns the commit sequence number if the field currently encodes one.
    pub fn trx_no(&self) -> Option<u64> {
        if self.field != 0 && self.field & HOT_UPDATE_ORDER_FLAG == 0 {
            Some(self.field)
        } else {
            None
        }
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.field == 0
    }
}

/// What a single undo record reverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoRecord {
    /// An update: pop the writer's versions at `record`.
    Update {
        /// Table the row belongs to.
        table: TableId,
        /// The updated record.
        record: RecordId,
    },
    /// An insert: remove the row (unindex `pk`) at `record`.
    Insert {
        /// Table the row belongs to.
        table: TableId,
        /// The inserted record.
        record: RecordId,
        /// Primary key to unindex on rollback.
        pk: i64,
    },
}

impl UndoRecord {
    /// The table this undo entry refers to.
    pub fn table(&self) -> TableId {
        match self {
            UndoRecord::Update { table, .. } | UndoRecord::Insert { table, .. } => *table,
        }
    }

    /// The record this undo entry refers to.
    pub fn record(&self) -> RecordId {
        match self {
            UndoRecord::Update { record, .. } | UndoRecord::Insert { record, .. } => *record,
        }
    }
}

/// Everything storage keeps for one unfinished writing transaction: where
/// its redo starts, the undo header and the undo records.
#[derive(Debug, Clone, Default)]
pub struct UndoSegment {
    /// No frame of the transaction lies below this LSN (`None` until it is
    /// about to log its first); checkpoint truncation must not cut past the
    /// oldest of these.
    pub first_lsn: Option<Lsn>,
    /// The (repurposed) undo header.
    pub header: UndoHeader,
    /// Undo records in the order the operations were performed.
    pub records: Vec<UndoRecord>,
}

impl UndoSegment {
    /// Number of undo records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no operations have been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates undo records in rollback order (reverse of execution).
    pub fn rollback_order(&self) -> impl Iterator<Item = &UndoRecord> {
        self.records.iter().rev()
    }
}

/// Shards of the undo log (a power of two).  Transaction ids are handed out
/// in sequence, so concurrent transactions land on different shards.
const SHARDS: usize = 64;

/// One shard of the undo log, on its own cache line.
type Shard = CachePadded<Mutex<FxHashMap<TxnId, UndoSegment>>>;

/// The undo log: the segment of every unfinished writing transaction, in a
/// table sharded by transaction id.  A transaction takes only its own shard,
/// on its own cache line; a transaction that writes nothing is never in it.
#[derive(Debug)]
pub struct UndoLog {
    shards: Box<[Shard]>,
}

impl Default for UndoLog {
    fn default() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| CachePadded::default()).collect(),
        }
    }
}

impl UndoLog {
    /// Creates an empty undo log.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, txn: TxnId) -> &Shard {
        &self.shards[txn.0 as usize & (SHARDS - 1)]
    }

    /// Runs `f` on `txn`'s segment under its shard lock; a transaction not
    /// in the log yet gets an empty one.
    pub fn with<R>(&self, txn: TxnId, f: impl FnOnce(&mut UndoSegment) -> R) -> R {
        f(self.shard(txn).lock().entry(txn).or_default())
    }

    /// Removes and returns the segment for `txn` (at commit or rollback).
    pub fn take(&self, txn: TxnId) -> Option<UndoSegment> {
        self.shard(txn).lock().remove(&txn)
    }

    /// A copy of `txn`'s segment, if it has one.
    pub fn snapshot(&self, txn: TxnId) -> Option<UndoSegment> {
        self.shard(txn).lock().get(&txn).cloned()
    }

    /// The lowest `first_lsn` of the transactions in the log, if any has one.
    pub fn oldest_first_lsn(&self) -> Option<Lsn> {
        let oldest = |shard: &Shard| shard.lock().values().filter_map(|s| s.first_lsn).min();
        self.shards.iter().filter_map(oldest).min()
    }

    /// Number of transactions that currently own a segment.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// True when no transaction owns a segment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_trx_no_and_hot_order() {
        let commit = UndoHeader::with_trx_no(42);
        assert_eq!(commit.trx_no(), Some(42));
        assert_eq!(commit.hot_update_order(), None);
        let hot = UndoHeader::with_hot_update_order(7);
        assert_eq!(hot.hot_update_order(), Some(7));
        assert_eq!(hot.trx_no(), None);
        // Raw persistence round trip (what the redo log stores).
        assert_eq!(UndoHeader::from_raw(hot.raw()), hot);
        assert_eq!(UndoHeader::from_raw(commit.raw()), commit);
        assert!(UndoHeader::default().is_empty());
    }

    #[test]
    fn effective_periods_do_not_overlap() {
        // §5.3: the same field stores hot_update_order while uncommitted and
        // trx_no after commit; the top bit disambiguates.
        let hot = UndoHeader::with_hot_update_order(99);
        let committed = UndoHeader::with_trx_no(99);
        assert_ne!(hot.raw(), committed.raw());
        assert!(hot.raw() & HOT_UPDATE_ORDER_FLAG != 0);
        assert!(committed.raw() & HOT_UPDATE_ORDER_FLAG == 0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_trx_no_rejected() {
        let _ = UndoHeader::with_trx_no(HOT_UPDATE_ORDER_FLAG);
    }

    #[test]
    fn undo_log_accumulates_and_takes_segments() {
        let log = UndoLog::new();
        let txn = TxnId(5);
        // A segment without a first LSN has logged nothing: no floor yet.
        log.with(txn, |_| ());
        assert_eq!((log.len(), log.oldest_first_lsn()), (1, None));
        log.with(txn, |segment| {
            segment.first_lsn = Some(Lsn(9));
            segment.records.push(UndoRecord::Update {
                table: TableId(1),
                record: RecordId::new(1, 0, 0),
            });
            segment.records.push(UndoRecord::Insert {
                table: TableId(1),
                record: RecordId::new(1, 0, 1),
                pk: 2,
            });
            segment.header = UndoHeader::with_hot_update_order(3);
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.oldest_first_lsn(), Some(Lsn(9)));

        let seg = log.take(txn).unwrap();
        assert_eq!((seg.len(), seg.first_lsn), (2, Some(Lsn(9))));
        assert_eq!(seg.header.hot_update_order(), Some(3));
        // Rollback order is reverse execution order.
        let first_rollback = seg.rollback_order().next().unwrap();
        assert!(matches!(first_rollback, UndoRecord::Insert { pk: 2, .. }));
        assert!(log.take(txn).is_none());
        assert!(log.is_empty() && log.oldest_first_lsn().is_none());
    }

    #[test]
    fn snapshot_does_not_remove_segment() {
        let log = UndoLog::new();
        let txn = TxnId(1);
        log.with(txn, |segment| {
            segment.records.push(UndoRecord::Insert {
                table: TableId(2),
                record: RecordId::new(2, 0, 0),
                pk: 0,
            })
        });
        let snap = log.snapshot(txn).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(log.snapshot(txn).unwrap().len(), 1);
    }

    #[test]
    fn oldest_first_lsn_spans_the_shards() {
        let log = UndoLog::new();
        for id in 1..=3 * SHARDS as u64 {
            log.with(TxnId(id), |segment| {
                segment.first_lsn = Some(Lsn(1_000 - id))
            });
        }
        assert_eq!(log.len(), 3 * SHARDS);
        assert_eq!(log.oldest_first_lsn(), Some(Lsn(1_000 - 3 * SHARDS as u64)));
        log.take(TxnId(3 * SHARDS as u64));
        assert_eq!(log.oldest_first_lsn(), Some(Lsn(1_001 - 3 * SHARDS as u64)));
    }

    #[test]
    fn undo_record_exposes_its_record_id() {
        let r = RecordId::new(4, 5, 6);
        let rec = UndoRecord::Update {
            table: TableId(4),
            record: r,
        };
        assert_eq!(rec.record(), r);
        assert_eq!(rec.table(), TableId(4));
    }
}
