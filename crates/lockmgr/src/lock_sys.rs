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
    use std::sync::Arc;
    use std::time::Duration;
    use txsql_common::metrics::EngineMetrics;

    fn sys(metrics: &Arc<EngineMetrics>) -> LockSys {
        LockSys::new(
            LockSysConfig {
                deadlock_policy: DeadlockPolicy::TimeoutOnly,
                lock_wait_timeout: Duration::from_millis(200),
            },
            Arc::clone(metrics),
        )
    }

    const R1: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 0,
    };
    const R2: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 1,
    };

    #[test]
    fn table_intention_locks_are_compatible() {
        let s = sys(&Arc::new(EngineMetrics::new()));
        s.lock_table(TxnId(1), TableId(1), LockMode::IntentionExclusive)
            .unwrap();
        s.lock_table(TxnId(2), TableId(1), LockMode::IntentionExclusive)
            .unwrap();
        s.lock_table(TxnId(3), TableId(1), LockMode::IntentionShared)
            .unwrap();
        s.release_all(TxnId(1));
        s.release_all(TxnId(2));
        s.release_all(TxnId(3));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn uncontended_grant_counts_one_object_and_no_wait() {
        let metrics = Arc::new(EngineMetrics::new());
        let s = sys(&metrics);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(1), R2, LockMode::Exclusive).unwrap();
        // One lock object per acquisition (vanilla behaviour) but no waits,
        // hence no events, and live registry entries for exactly the two
        // records.
        assert_eq!(metrics.locks_created.get(), 2);
        assert_eq!(metrics.lock_waits.get(), 0);
        assert_eq!(s.registry().total_entries(), 2);
        s.release_all(TxnId(1));
        assert_eq!(s.registry().total_entries(), 0);
        assert_eq!(metrics.locks_released.get(), 2);
    }

    #[test]
    fn grant_scan_length_is_per_record_not_per_page() {
        let metrics = Arc::new(EngineMetrics::new());
        let s = Arc::new(sys(&metrics));
        // Populate one page with 100 granted locks on other heap_nos.
        for heap in 10..110u16 {
            s.lock_record(
                TxnId(heap as u64),
                RecordId::new(1, 0, heap),
                LockMode::Exclusive,
            )
            .unwrap();
        }
        // A release that grants a real waiter on R1: the grant scan must
        // examine only that record's queue (one waiter), not the 100 other
        // requests on the page.
        s.lock_record(TxnId(500), R1, LockMode::Exclusive).unwrap();
        let s2 = Arc::clone(&s);
        let w = std::thread::spawn(move || s2.lock_record(TxnId(501), R1, LockMode::Exclusive));
        while s.wait_queue_len(R1) != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        s.release_record_lock(TxnId(500), R1);
        w.join().unwrap().unwrap();
        assert!(
            metrics.grant_scan_len.max_micros() <= 2,
            "grant scan examined {} requests — it must not scale with page population",
            metrics.grant_scan_len.max_micros()
        );
        s.release_all(TxnId(501));
    }
}
