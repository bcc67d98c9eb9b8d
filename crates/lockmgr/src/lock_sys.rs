//! The vanilla, InnoDB-style lock system (`lock_sys`) — the MySQL baseline.
//!
//! [`LockSys`] is the shared [`RecordLockTable`] driver over [`PageLayout`],
//! which keeps exactly the two shortcomings §3.1.1 calls out (paper §2.2):
//!
//! * the hash table is keyed by `(space_id, page_no)`, so a hot page funnels
//!   every acquisition, release, grant scan *and* deadlock check of all its
//!   rows through one shard mutex (Figure 6c) — two hot rows on the same page
//!   still contend;
//! * every acquisition counts one created lock object, even without
//!   contention (`COUNT_UNCONTENDED_GRANTS`, the Figure-6d accounting).
//!
//! Within a page, requests live in **per-`heap_no` record queues**, so
//! acquisitions and grants are O(requests on that record) rather than O(all
//! requests on the page): the page-level mutex remains the faithful
//! bottleneck, but nothing scans other records' requests.  A page's emptied
//! map is kept, so a page that is locked again reuses its allocation and the
//! uncontended cycle allocates nothing in steady state; memory is bounded by
//! the number of distinct pages that ever carried a lock (~100 bytes each).
//!
//! The layout also owns the table-level intention-exclusive locks
//! ([`RecordLockTable::lock_table`]), sharded by `TableId`.  They never
//! conflict, so a table's entry is just its holders; release-all visits only
//! the tables the transaction actually locked (tracked by the registry).

use crate::lock_table::{Layout, LockTableConfig, RecordLockTable};
use crate::record_queue::RecordQueue;
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::ids::{HeapNo, PageId};
use txsql_common::pad::CachePadded;
use txsql_common::{RecordId, TableId, TxnId};

/// Number of table-lock shards.  Tables are few and their locks never
/// conflict; 16 shards removes the global choke point without bloating the
/// structure.
const TABLE_SHARDS: usize = 16;

type TableShard = FxHashMap<TableId, Vec<TxnId>>;

/// The page-sharded lock system.
pub type LockSys = RecordLockTable<PageLayout>;

/// Configuration of [`LockSys`].
pub type LockSysConfig = LockTableConfig;

/// Queue placement of the MySQL arm: `page → heap_no → queue`, hashed by
/// page, plus the table-level locks.
#[derive(Debug)]
pub struct PageLayout {
    /// Table-level intention-exclusive locks, sharded by table.
    table_shards: Box<[CachePadded<Mutex<TableShard>>]>,
}

impl Default for PageLayout {
    fn default() -> Self {
        Self {
            table_shards: (0..TABLE_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(TableShard::default())))
                .collect(),
        }
    }
}

impl PageLayout {
    #[inline]
    fn table_shard_for(&self, table: TableId) -> &Mutex<TableShard> {
        let idx = (fxhash::hash_u64(table.0 as u64) % TABLE_SHARDS as u64) as usize;
        &self.table_shards[idx]
    }
}

impl Layout for PageLayout {
    const COUNT_UNCONTENDED_GRANTS: bool = true;
    /// InnoDB uses a small fixed number of page-hash shards.
    const SHARDS: usize = 64;
    type Shard = FxHashMap<PageId, FxHashMap<HeapNo, RecordQueue>>;

    #[inline]
    fn shard_key(record: RecordId) -> u64 {
        ((record.space_id as u64) << 32) | record.page_no as u64
    }

    #[inline]
    fn queue_or_insert(shard: &mut Self::Shard, record: RecordId) -> &mut RecordQueue {
        shard
            .entry(record.page())
            .or_default()
            .entry(record.heap_no)
            .or_default()
    }

    fn queue(shard: &Self::Shard, record: RecordId) -> Option<&RecordQueue> {
        shard.get(&record.page())?.get(&record.heap_no)
    }

    #[inline]
    fn visit_queue<R>(
        shard: &mut Self::Shard,
        record: RecordId,
        f: impl FnOnce(&mut RecordQueue) -> R,
    ) -> Option<R> {
        let page = shard.get_mut(&record.page())?;
        let queue = page.get_mut(&record.heap_no)?;
        let result = f(queue);
        if queue.is_empty() {
            // Only the record's queue goes; the page's map stays for reuse.
            page.remove(&record.heap_no);
        }
        Some(result)
    }

    fn release_tables(&self, txn: TxnId, tables: &[TableId]) {
        for table in tables {
            let mut shard = self.table_shard_for(*table).lock();
            if let Some(holders) = shard.get_mut(table) {
                holders.retain(|t| *t != txn);
                if holders.is_empty() {
                    shard.remove(table);
                }
            }
        }
    }

    fn grant_table(&self, txn: TxnId, table: TableId) -> bool {
        let mut tables = self.table_shard_for(table).lock();
        let _scope = GuardScope::enter();
        let holders = tables.entry(table).or_default();
        let newly = !holders.contains(&txn);
        if newly {
            holders.push(txn);
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_table::DeadlockPolicy;
    use crate::test_support::{assert_locks_drained, lock_table};

    #[test]
    fn table_locks_never_conflict() {
        let s = lock_table::<PageLayout>(DeadlockPolicy::TimeoutOnly, 200);
        for txn in [1, 2, 2, 3] {
            s.lock_table(TxnId(txn), TableId(1));
        }
        assert_eq!(s.metrics.locks_created.get(), 3, "a re-lock is no new lock");
        for txn in 1..=3 {
            s.release_all(TxnId(txn));
        }
        assert_locks_drained(&s);
    }
}
