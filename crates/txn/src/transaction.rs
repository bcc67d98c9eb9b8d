//! The per-worker transaction handle.

use std::sync::Arc;
use std::time::Instant;
use txsql_common::fxhash::FxHashSet;
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::{RecordId, TableId, TxnId};
use txsql_lockmgr::group_lock::GroupHandle;
pub use txsql_lockmgr::group_lock::HotRole;
use txsql_lockmgr::OsEvent;

/// A transaction's membership of one hot row's group (group locking) or
/// ticket queue (O2).
#[derive(Debug)]
pub struct HotUpdate {
    /// The hot row.
    pub record: RecordId,
    /// The role the transaction was granted.
    pub role: HotRole,
    /// Its `hot_update_order` on the row.
    pub order: u64,
    /// Its handle on the row's group state, resolved once by its first
    /// group call; every later step of its life goes through it.  O2's
    /// ticket holders have none.
    pub group: Option<GroupHandle>,
    /// A group member's `order` has not been written to the undo header
    /// yet: the row's first write statement carries it (see
    /// [`Transaction::take_unlogged_order`]).
    order_unlogged: bool,
}

/// A commit dependency taken by reading another transaction's uncommitted
/// version (Bamboo's early lock release).
#[derive(Debug)]
pub struct DirtyRead {
    /// The transaction whose uncommitted version was read.
    pub writer: TxnId,
    /// The record it was read from (reported when the wait times out).
    pub record: RecordId,
    /// The event `writer` posts its outcome to.
    pub completion: Arc<OsEvent>,
}

/// A transaction: owned by exactly one worker thread.  `Database::commit`
/// and `Database::rollback` consume it, so a handle its caller still holds
/// is open.
#[derive(Debug)]
pub struct Transaction {
    /// Transaction id assigned at begin.
    pub id: TxnId,
    /// Wall-clock start, used for latency accounting.
    pub started_at: Instant,
    /// Rows written: `(table, record)` in execution order (duplicates kept out).
    write_set: Vec<(TableId, RecordId)>,
    /// Rows read, with the writer of the version actually observed (used by
    /// the serializability checker and Aria validation).  Capturing the
    /// writer *at read time* — instead of re-reading the chain at commit —
    /// is what lets the checker attribute `wr`/`rw` edges to the version a
    /// statement really saw, even when later writers commit in between.
    read_set: Vec<(TableId, RecordId, TxnId)>,
    /// Hot rows this transaction updated, in join order (a handful at most:
    /// lookups scan).
    hot_updates: Vec<HotUpdate>,
    /// Rows whose lock this transaction currently holds through the lock
    /// manager (leaders and plain-2PL writers; followers hold none).  A hash
    /// set so the per-statement "already locked?" check is O(1) no matter
    /// how many rows the transaction touches.
    locked_records: FxHashSet<RecordId>,
    /// Writers whose uncommitted versions this transaction read (Bamboo-style
    /// dirty reads), one entry per writer.
    dirty_reads_from: Vec<DirtyRead>,
    /// Cumulative time spent blocked on locks / queues / commit ordering.
    blocked: std::time::Duration,
    /// Set by the first write statement (see [`Transaction::become_writer`]).
    writer: bool,
    /// Transaction-private metrics scratch: the lock tables' hot-path
    /// counters accumulate here (plain `Cell` arithmetic) and flush to the
    /// engine's shared `EngineMetrics` once, when the transaction drops —
    /// commit, rollback and abort paths alike.
    metrics: MetricsScratch,
}

impl Transaction {
    /// Creates a new transaction with a detached metrics scratch
    /// (counts are kept but never flushed — tests and stand-alone use).
    pub fn new(id: TxnId) -> Self {
        Self::with_metrics(id, MetricsScratch::new())
    }

    /// Creates a new transaction attached to the engine's metrics:
    /// the scratch flushes there when the transaction finishes.
    pub fn attached_to(id: TxnId, engine_metrics: Arc<EngineMetrics>) -> Self {
        Self::with_metrics(id, MetricsScratch::attached(engine_metrics))
    }

    fn with_metrics(id: TxnId, metrics: MetricsScratch) -> Self {
        Self {
            id,
            started_at: Instant::now(),
            write_set: Vec::new(),
            read_set: Vec::new(),
            hot_updates: Vec::new(),
            locked_records: FxHashSet::default(),
            dirty_reads_from: Vec::new(),
            blocked: std::time::Duration::ZERO,
            writer: false,
            metrics,
        }
    }

    /// The transaction's metrics scratch — what the engine passes to the
    /// lock tables' `*_in` entry points so per-cycle counters cost no atomic
    /// RMW.
    #[inline]
    pub fn metrics(&self) -> &MetricsScratch {
        &self.metrics
    }

    /// Marks the transaction a writer — one that has, or is about to have, a
    /// footprint outside itself: a storage entry and `Begin` record, locks,
    /// group membership, and at commit a `trx_no` and a commit record.
    /// Returns true the first time, when the caller owes the storage begin.
    /// Until then the transaction is a pure reader and finishes without
    /// touching any of those.
    pub fn become_writer(&mut self) -> bool {
        !std::mem::replace(&mut self.writer, true)
    }

    /// True once a write statement started (see [`Transaction::become_writer`]).
    pub fn is_writer(&self) -> bool {
        self.writer
    }

    /// Records a write.  Idempotent per `(table, record)`.
    pub fn record_write(&mut self, table: TableId, record: RecordId) {
        debug_assert!(self.writer, "a write statement calls become_writer first");
        if !self.write_set.contains(&(table, record)) {
            self.write_set.push((table, record));
        }
    }

    /// Records a read of the version produced by `writer`
    /// (`TxnId::INVALID` for a bulk-loaded base version).  The first
    /// observation wins: re-reading a row does not overwrite the version the
    /// transaction's logic actually consumed.
    pub fn record_read(&mut self, table: TableId, record: RecordId, writer: TxnId) {
        if !self
            .read_set
            .iter()
            .any(|(t, r, _)| *t == table && *r == record)
        {
            self.read_set.push((table, record, writer));
        }
    }

    /// The write set in execution order.
    pub fn write_set(&self) -> &[(TableId, RecordId)] {
        &self.write_set
    }

    /// The read set in execution order: `(table, record, version writer)`.
    /// The engine records it only while a history consumes it (the
    /// serializability checker); otherwise it stays empty.
    pub fn read_set(&self) -> &[(TableId, RecordId, TxnId)] {
        &self.read_set
    }

    /// Makes room for one more hot row, so that recording it — inside the
    /// row's grant, with the group queued behind — does not allocate.
    pub fn reserve_hot_update(&mut self) {
        self.hot_updates.reserve(1);
    }

    /// Registers participation in a hot row's group or ticket queue.
    pub fn record_hot_update(
        &mut self,
        record: RecordId,
        role: HotRole,
        order: u64,
        group: Option<GroupHandle>,
    ) {
        debug_assert!(self.hot_update(record).is_none(), "one entry per hot row");
        self.hot_updates.push(HotUpdate {
            record,
            role,
            order,
            order_unlogged: group.is_some(),
            group,
        });
    }

    /// Hot rows this transaction updated, in join order.
    pub fn hot_updates(&self) -> &[HotUpdate] {
        &self.hot_updates
    }

    /// The transaction's membership of `record`'s group or ticket queue.
    pub fn hot_update(&self, record: RecordId) -> Option<&HotUpdate> {
        self.hot_updates.iter().find(|hot| hot.record == record)
    }

    /// The `hot_update_order` the statement about to write `record` must
    /// persist in the undo header (§5.3): `Some` once per hot row, for the
    /// first write statement after the transaction joined its group.
    pub fn take_unlogged_order(&mut self, record: RecordId) -> Option<u64> {
        let hot = self.hot_updates.iter_mut().find(|h| h.record == record)?;
        std::mem::take(&mut hot.order_unlogged).then_some(hot.order)
    }

    /// True when the transaction updated *any* hot row.
    pub fn has_hot_updates(&self) -> bool {
        !self.hot_updates.is_empty()
    }

    /// Remembers that this transaction holds the lock-manager lock on a record.
    pub fn record_lock(&mut self, record: RecordId) {
        self.locked_records.insert(record);
    }

    /// Records this transaction currently holds locks on.
    pub fn locked_records(&self) -> &FxHashSet<RecordId> {
        &self.locked_records
    }

    /// True when this transaction holds the lock-manager lock on `record`.
    #[inline]
    pub fn holds_lock(&self, record: RecordId) -> bool {
        self.locked_records.contains(&record)
    }

    /// Records that this transaction read uncommitted data (Bamboo
    /// early-lock-release path); commit must wait on the read's completion
    /// event for its writer's outcome.
    pub fn record_dirty_read_from(&mut self, read: DirtyRead) {
        let known = |r: &DirtyRead| r.writer == read.writer;
        if read.writer != self.id && !self.dirty_reads_from.iter().any(known) {
            self.dirty_reads_from.push(read);
        }
    }

    /// The uncommitted data this transaction depends on.
    pub fn dirty_reads_from(&self) -> &[DirtyRead] {
        &self.dirty_reads_from
    }

    /// Accumulates time spent blocked (lock waits, hotspot queues, commit-turn
    /// waits) — the numerator of the blocked share in the CPU-utilisation
    /// proxy (Figure 6b).
    pub fn add_blocked(&mut self, blocked: std::time::Duration) {
        self.blocked += blocked;
    }

    /// Total blocked time accumulated so far.
    pub fn blocked_time(&self) -> std::time::Duration {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_lockmgr::group_lock::{GroupLockConfig, GroupLockTable};

    #[test]
    fn write_and_read_sets_deduplicate() {
        let mut t = Transaction::new(TxnId(1));
        let r = RecordId::new(1, 0, 0);
        assert!(t.become_writer() && !t.become_writer() && t.is_writer());
        t.record_write(TableId(1), r);
        t.record_write(TableId(1), r);
        t.record_read(TableId(1), r, TxnId(7));
        t.record_read(TableId(1), r, TxnId(8));
        assert_eq!(t.write_set().len(), 1);
        assert_eq!(t.read_set().len(), 1);
        // First observation wins: the version the logic consumed is kept.
        assert_eq!(t.read_set()[0].2, TxnId(7));
    }

    #[test]
    fn hot_update_bookkeeping() {
        let mut t = Transaction::new(TxnId(2));
        let hot = RecordId::new(1, 0, 0);
        let cold = RecordId::new(1, 0, 1);
        assert!(!t.has_hot_updates());
        let groups = GroupLockTable::new(GroupLockConfig::default(), Arc::default());
        t.reserve_hot_update();
        let (group, _) = groups.begin_update(t.id, hot);
        t.record_hot_update(hot, HotRole::Follower, 42, Some(group));
        assert!(t.hot_update(cold).is_none());
        let [update] = t.hot_updates() else {
            panic!("one hot row")
        };
        assert_eq!(
            (update.record, update.role, update.order),
            (hot, HotRole::Follower, 42)
        );
        assert_eq!(update.group.as_ref().map(GroupHandle::record), Some(hot));
        assert!(t.has_hot_updates());
        // The order is handed to exactly one write statement of the row.
        assert_eq!(t.take_unlogged_order(cold), None);
        assert_eq!(t.take_unlogged_order(hot), Some(42));
        assert_eq!(t.take_unlogged_order(hot), None);
        // An O2 ticket holder has neither a group nor an order to log.
        t.record_hot_update(cold, HotRole::Leader, 0, None);
        assert!(t
            .hot_update(cold)
            .is_some_and(|ticket| ticket.group.is_none()));
        assert_eq!(t.take_unlogged_order(cold), None);
    }

    #[test]
    fn dirty_read_dependencies_ignore_self_and_duplicates() {
        let mut t = Transaction::new(TxnId(3));
        let read = |writer| DirtyRead {
            writer: TxnId(writer),
            record: RecordId::new(1, 0, 0),
            completion: OsEvent::new(),
        };
        t.record_dirty_read_from(read(3));
        t.record_dirty_read_from(read(4));
        t.record_dirty_read_from(read(4));
        let writers: Vec<TxnId> = t.dirty_reads_from().iter().map(|r| r.writer).collect();
        assert_eq!(writers, [TxnId(4)]);
    }

    #[test]
    fn locked_records_deduplicate() {
        let mut t = Transaction::new(TxnId(6));
        let r = RecordId::new(2, 1, 0);
        t.record_lock(r);
        t.record_lock(r);
        assert_eq!(t.locked_records().len(), 1);
        assert!(t.holds_lock(r));
        assert!(!t.holds_lock(RecordId::new(2, 1, 1)));
    }
}
