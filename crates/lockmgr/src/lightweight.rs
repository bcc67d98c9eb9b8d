//! The lightweight `trx_lock_wait` lock table (§3.1.1, "O1").
//!
//! [`LightweightLockTable`] is the shared [`RecordLockTable`] driver over
//! [`FlatLayout`].  Differences from the vanilla
//! [`LockSys`](crate::lock_sys::LockSys):
//!
//! * keyed by *record* (`<space_id, page_no, heap_no>`) instead of page, and
//!   spread over 16× more shards, so unrelated rows on the same page no
//!   longer contend on one mutex;
//! * holder information is just transaction ids — a lock object (the thing
//!   that costs allocation and bookkeeping, counted in Figure 6d) is only
//!   created, and counted, when a conflict forces a transaction to wait
//!   (`COUNT_UNCONTENDED_GRANTS = false`);
//! * entries are removed as soon as they become empty, so the table stays
//!   proportional to the number of *contended* rows, not all touched rows.
//!
//! Deadlock handling remains wait-for-graph detection by default (the paper
//! notes O1's p95 is slightly inflated by exactly this, Figure 6c).

use crate::lock_table::{Layout, LockTableConfig, RecordLockTable};
use crate::record_queue::RecordQueue;
use txsql_common::fxhash::FxHashMap;
use txsql_common::RecordId;

/// The record-keyed lightweight lock table.
pub type LightweightLockTable = RecordLockTable<FlatLayout>;

/// Configuration of the lightweight lock table.
pub type LightweightConfig = LockTableConfig;

/// Queue placement of O1: one flat map per shard, keyed and hashed by packed
/// record id.
#[derive(Debug, Default)]
pub struct FlatLayout;

impl Layout for FlatLayout {
    const COUNT_UNCONTENDED_GRANTS: bool = false;
    /// Record-keyed, so this can be much larger than the page-sharded
    /// baseline.
    const SHARDS: usize = 1024;
    type Shard = FxHashMap<u64, RecordQueue>;

    #[inline]
    fn shard_key(record: RecordId) -> u64 {
        record.packed()
    }

    #[inline]
    fn queue_or_insert(shard: &mut Self::Shard, record: RecordId) -> &mut RecordQueue {
        shard.entry(record.packed()).or_default()
    }

    fn queue(shard: &Self::Shard, record: RecordId) -> Option<&RecordQueue> {
        shard.get(&record.packed())
    }

    #[inline]
    fn visit_queue<R>(
        shard: &mut Self::Shard,
        record: RecordId,
        f: impl FnOnce(&mut RecordQueue) -> R,
    ) -> Option<R> {
        let key = record.packed();
        let queue = shard.get_mut(&key)?;
        let result = f(queue);
        if queue.is_empty() {
            shard.remove(&key);
        }
        Some(result)
    }
}
