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
//!   contention (`count_uncontended_grants`, the Figure-6d accounting), and
//!   an `S→X` upgrade may not jump earlier queued waiters
//!   (`upgrade_respects_queue`, InnoDB's FIFO fairness).
//!
//! Within a page, requests live in **per-`heap_no` record queues**, so
//! conflict checks and grant scans are O(requests on that record) rather
//! than O(all requests on the page): the page-level mutex remains the
//! faithful bottleneck, but nothing scans other records' requests.  A page's
//! emptied map is kept, so a page that is locked again reuses its allocation
//! and the uncontended cycle allocates nothing in steady state; memory is
//! bounded by the number of distinct pages that ever carried a lock (~100
//! bytes each).
//!
//! The layout also owns the table-level intention locks
//! ([`RecordLockTable::lock_table`]), sharded by `TableId`; release-all visits only
//! the tables the transaction actually locked (tracked by the registry).

use crate::lock_table::{Layout, LockTableConfig, RecordLockTable};
use crate::record_queue::{QueuePolicy, RecordQueue};
use crate::wake_check::GuardScope;
use crate::LockMode;
use parking_lot::Mutex;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::ids::{HeapNo, PageId};
use txsql_common::pad::CachePadded;
use txsql_common::{Error, RecordId, Result, TableId, TxnId};

/// Number of table-lock shards.  Tables are few and intention modes almost
/// never conflict; 16 shards removes the global choke point without bloating
/// the structure.
const TABLE_SHARDS: usize = 16;

type TableShard = FxHashMap<TableId, Vec<(TxnId, LockMode)>>;

/// The page-sharded lock system.
pub type LockSys = RecordLockTable<PageLayout>;

/// Configuration of [`LockSys`].
pub type LockSysConfig = LockTableConfig;

/// Queue placement of the MySQL arm: `page → heap_no → queue`, hashed by
/// page, plus the table-level locks.
#[derive(Debug)]
pub struct PageLayout {
    /// Table-level locks (intention modes in practice), sharded by table.
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
    const POLICY: QueuePolicy = QueuePolicy {
        upgrade_respects_queue: true,
        count_uncontended_grants: true,
    };
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
                holders.retain(|(t, _)| *t != txn);
                if holders.is_empty() {
                    shard.remove(table);
                }
            }
        }
    }

    fn grant_table(&self, txn: TxnId, table: TableId, mode: LockMode) -> Result<bool> {
        let mut tables = self.table_shard_for(table).lock();
        let _scope = GuardScope::enter();
        let holders = tables.entry(table).or_default();
        if holders
            .iter()
            .any(|(t, m)| *t != txn && !m.is_compatible_with(mode))
        {
            return Err(Error::LockWaitTimeout {
                txn,
                record: RecordId::new(table.0, u32::MAX, 0),
            });
        }
        let newly = !holders.iter().any(|(t, m)| *t == txn && m.covers(mode));
        if newly {
            holders.push((txn, mode));
        }
        Ok(newly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_table::DeadlockPolicy;
    use crate::test_support::{assert_locks_drained, lock_table};

    #[test]
    fn table_intention_locks_are_compatible() {
        let s = lock_table::<PageLayout>(DeadlockPolicy::TimeoutOnly, 200);
        let (ix, is) = (LockMode::IntentionExclusive, LockMode::IntentionShared);
        for (txn, mode) in [(1, ix), (2, ix), (3, is)] {
            s.lock_table(TxnId(txn), TableId(1), mode).unwrap();
        }
        for txn in 1..=3 {
            s.release_all(TxnId(txn));
        }
        assert_locks_drained(&s);
    }
}
