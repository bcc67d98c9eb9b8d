//! The undo header's encoding and the checkpoint floor.
//!
//! Storage keeps no undo records: the version chain *is* the undo image, and
//! the list of rows to pop is the transaction's write set, the same one
//! commit walks.  What storage does keep per unfinished writing transaction
//! is a lower bound of the LSN its redo starts at, in the sharded
//! `UndoLog`: the floor checkpoint truncation must not cut past.
//!
//! The [`UndoHeader`] reproduces the paper's recovery trick (§5.3): InnoDB's
//! `TRX_UNDO_TRX_NO` field normally stores the commit sequence number
//! (`trx_no`), but while a hotspot transaction is uncommitted that field is
//! unused — so TXSQL repurposes it, setting the top bit to 1 and storing the
//! `hot_update_order` there.  The header lives in the redo log only; after a
//! crash, recovery reads the field back and, when the top bit is set, uses
//! the hot-update order to roll back uncommitted hotspot transactions in the
//! correct (reverse) order.

use parking_lot::Mutex;
use txsql_common::fxhash::FxHashMap;
use txsql_common::pad::CachePadded;
use txsql_common::{Lsn, TxnId};

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
}

/// Shards of the undo log (a power of two).  Transaction ids are handed out
/// in sequence, so concurrent transactions land on different shards.
const SHARDS: usize = 64;

/// One shard of the undo log, on its own cache line.
type Shard = CachePadded<Mutex<FxHashMap<TxnId, Lsn>>>;

/// The undo log: the first LSN of every unfinished writing transaction, in a
/// table sharded by transaction id.  A transaction takes only its own shard,
/// on its own cache line, once when it begins and once when it ends; a
/// transaction that writes nothing is never in it.
#[derive(Debug)]
pub(crate) struct UndoLog {
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
    fn shard(&self, txn: TxnId) -> &Shard {
        &self.shards[txn.0 as usize & (SHARDS - 1)]
    }

    /// Enters `txn` with the first LSN `first_lsn` returns, read under the
    /// shard lock; a transaction already in the log keeps its own.
    pub(crate) fn begin(&self, txn: TxnId, first_lsn: impl FnOnce() -> Lsn) {
        self.shard(txn).lock().entry(txn).or_insert_with(first_lsn);
    }

    /// Removes `txn` (at commit or rollback), returning its first LSN.
    pub(crate) fn take(&self, txn: TxnId) -> Option<Lsn> {
        self.shard(txn).lock().remove(&txn)
    }

    /// The lowest first LSN of the transactions in the log, if any.
    pub(crate) fn oldest_first_lsn(&self) -> Option<Lsn> {
        let oldest = |shard: &Shard| shard.lock().values().min().copied();
        self.shards.iter().filter_map(oldest).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_trx_no_and_hot_order() {
        let commit = UndoHeader::with_trx_no(42);
        assert_eq!(commit.hot_update_order(), None);
        let hot = UndoHeader::with_hot_update_order(7);
        assert_eq!(hot.hot_update_order(), Some(7));
        // Raw persistence round trip (what the redo log stores).
        assert_eq!(UndoHeader::from_raw(hot.raw()), hot);
        assert_eq!(UndoHeader::from_raw(commit.raw()), commit);
        assert_eq!(commit.raw(), 42);
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
    fn oldest_first_lsn_spans_the_shards() {
        let log = UndoLog::default();
        assert_eq!(log.oldest_first_lsn(), None);
        for id in 1..=3 * SHARDS as u64 {
            log.begin(TxnId(id), || Lsn(1_000 - id));
        }
        // A second begin keeps the first LSN.
        log.begin(TxnId(1), || Lsn(1));
        assert_eq!(log.oldest_first_lsn(), Some(Lsn(1_000 - 3 * SHARDS as u64)));
        assert_eq!(
            log.take(TxnId(3 * SHARDS as u64)),
            Some(Lsn(1_000 - 3 * SHARDS as u64))
        );
        assert_eq!(log.oldest_first_lsn(), Some(Lsn(1_001 - 3 * SHARDS as u64)));
        assert_eq!(log.take(TxnId(3 * SHARDS as u64)), None);
        for id in 1..3 * SHARDS as u64 {
            log.take(TxnId(id));
        }
        assert_eq!(log.oldest_first_lsn(), None);
    }
}
