//! The lightweight `trx_lock_wait` lock table (§3.1.1, "O1").
//!
//! [`LightweightLockTable`] is the shared [`RecordLockTable`] driver over
//! [`FlatLayout`].  Differences from the vanilla
//! [`LockSys`](crate::lock_sys::LockSys):
//!
//! * hashed by *record* (`<space_id, page_no, heap_no>`) instead of page, and
//!   spread over 16× more shards, so unrelated rows on the same page no
//!   longer contend on one mutex;
//! * holder information is just transaction ids — a lock object (the thing
//!   that costs allocation and bookkeeping, counted in Figure 6d) is only
//!   created, and counted, when a conflict forces a transaction to wait
//!   (`COUNT_UNCONTENDED_GRANTS = false`).
//!
//! Both arms prune a record's queue as soon as it empties, so the table stays
//! proportional to the number of locked rows.  Deadlock handling remains
//! wait-for-graph detection by default (the paper notes O1's p95 is slightly
//! inflated by exactly this, Figure 6c).

use crate::lock_table::{Layout, LockTableConfig, RecordLockTable};
use txsql_common::RecordId;

/// The record-keyed lightweight lock table.
pub type LightweightLockTable = RecordLockTable<FlatLayout>;

/// Configuration of the lightweight lock table.
pub type LightweightConfig = LockTableConfig;

/// Shard hashing and accounting of O1: hashed by packed record id, a lock
/// object per wait.
#[derive(Debug)]
pub struct FlatLayout;

impl Layout for FlatLayout {
    const COUNT_UNCONTENDED_GRANTS: bool = false;
    /// Record-keyed, so this can be much larger than the page-sharded
    /// baseline.
    const SHARDS: usize = 1024;

    #[inline]
    fn shard_key(record: RecordId) -> u64 {
        record.packed()
    }
}
