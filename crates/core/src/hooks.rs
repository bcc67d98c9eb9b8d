//! Commit hooks: how replication (and tests) observe committed transactions.
//!
//! The commit pipeline ([`crate::commit`]) hands every flushed batch to each
//! registered [`CommitHook`] as [`BinlogTxn`] events — the engine-side
//! equivalent of writing the binary log and, in semi-synchronous mode,
//! waiting for the replica acknowledgement.  One call serves the whole
//! batch, so its latency is amortised exactly like the paper's group commit
//! (Figure 5c, Figure 13).  The pipeline overlaps batches, so a hook sees
//! each batch in two halves; see [`CommitHook`].

use std::ops::Range;
use txsql_common::{Result, Row, TableId, TxnId};

/// The engine's wait primitive, for a hook's blocking half to park on (an
/// I/O wait: [`OsEvent::wait_for`]).
pub use txsql_lockmgr::event::OsEvent;

/// One committed transaction as it appears in the binlog.
#[derive(Debug, Clone, PartialEq)]
pub struct BinlogTxn {
    /// Transaction id.
    pub txn: TxnId,
    /// Commit sequence number (`trx_no`); defines the replication apply order.
    pub trx_no: u64,
    /// `(table, primary key, row)`: one image per row the transaction wrote,
    /// in write-set order, as its commit left it.
    pub changes: Vec<(TableId, i64, Row)>,
    /// True when the transaction updated a hotspot row.  Nothing in the
    /// workspace acts on it; it stays because `benchmark/` builds this struct.
    pub involves_hotspot: bool,
}

/// Observer of committed batches, in two halves per batch.
///
/// * The **ordered half** ([`Self::ship_ordered`]) runs while the batch's
///   leader still owns the pipeline's flush stage: never two at once, in
///   flush order.  Whatever must be ordered (assigning binlog positions)
///   goes here and nothing that waits for another party does — the next
///   batch cannot flush until it returns.
/// * The **blocking half** ([`Self::await_ack`]) runs after the stage was
///   handed on: the network round trip and the ack wait.
///
/// **Re-entrancy.**  Blocking halves, and [`Self::on_commit_batch`] calls
/// from outside the pipeline, run concurrently with each other and with
/// later ordered halves, and finish in any order.  (The replication hook
/// addresses deliveries by position: an early arrival is nacked and refilled
/// from the retained binlog, a late one is an idempotent duplicate.)  A hook
/// that implements only `on_commit_batch` gets it run inside the ordered
/// half: always correct, and batches queue behind it while it blocks.
///
/// An `Err` means the ship path failed hard — in practice an injected crash
/// between redo flush and binlog ack
/// ([`txsql_storage::fault::CrashPoint::PreBinlogShip`] and friends).  The
/// pipeline fails *that batch* like a flush failure: durable in redo, none
/// of its members acknowledged — the window crash recovery must cover.
pub trait CommitHook: Send + Sync {
    /// Both halves back to back: ships one flushed batch and blocks until it
    /// may be acknowledged.  For callers with nothing to overlap.
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()>;

    /// The ordered half; returns the batch's position range `[start, end)`
    /// in the hook's binlog (empty for a hook without positions).
    fn ship_ordered(&self, batch: &[BinlogTxn]) -> Result<Range<u64>> {
        self.on_commit_batch(batch).map(|()| 0..0)
    }

    /// The blocking half, given what `ship_ordered` returned for `batch`.
    fn await_ack(&self, _range: Range<u64>, _batch: &[BinlogTxn]) -> Result<()> {
        Ok(())
    }
}

/// A hook that simply collects every event (used by tests).
#[derive(Debug, Default)]
pub struct CollectingHook {
    events: parking_lot::Mutex<Vec<BinlogTxn>>,
    batches: parking_lot::Mutex<usize>,
}

impl CollectingHook {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything observed so far.
    pub fn events(&self) -> Vec<BinlogTxn> {
        self.events.lock().clone()
    }

    /// Number of batches observed.
    pub fn batch_count(&self) -> usize {
        *self.batches.lock()
    }
}

impl CommitHook for CollectingHook {
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
        self.events.lock().extend_from_slice(batch);
        *self.batches.lock() += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_hook_accumulates_batches() {
        let hook = CollectingHook::new();
        let event = BinlogTxn {
            txn: TxnId(1),
            trx_no: 1,
            changes: vec![(TableId(1), 5, Row::from_ints(&[5, 50]))],
            involves_hotspot: true,
        };
        hook.on_commit_batch(std::slice::from_ref(&event)).unwrap();
        hook.on_commit_batch(&[event.clone(), event.clone()])
            .unwrap();
        assert_eq!(hook.events().len(), 3);
        assert_eq!(hook.batch_count(), 2);
        assert!(hook.events()[0].involves_hotspot);
    }
}
