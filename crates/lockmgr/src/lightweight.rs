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
//!   (`count_uncontended_grants = false`);
//! * an `S→X` upgrade proceeds whenever no *holder* conflicts
//!   (`upgrade_respects_queue = false`);
//! * entries are removed as soon as they become empty, so the table stays
//!   proportional to the number of *contended* rows, not all touched rows.
//!
//! Deadlock handling remains wait-for-graph detection by default (the paper
//! notes O1's p95 is slightly inflated by exactly this, Figure 6c).

use crate::lock_table::{Layout, LockTableConfig, RecordLockTable};
use crate::record_queue::{QueuePolicy, RecordQueue};
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
    const POLICY: QueuePolicy = QueuePolicy {
        upgrade_respects_queue: false,
        count_uncontended_grants: false,
    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_table::DeadlockPolicy;
    use crate::LockMode;
    use std::sync::Arc;
    use std::time::Duration;
    use txsql_common::metrics::EngineMetrics;
    use txsql_common::TxnId;

    const R1: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 0,
    };

    fn table(metrics: &Arc<EngineMetrics>) -> Arc<LightweightLockTable> {
        Arc::new(LightweightLockTable::new(
            LightweightConfig {
                deadlock_policy: DeadlockPolicy::Detect,
                lock_wait_timeout: Duration::from_millis(2_000),
            },
            Arc::clone(metrics),
        ))
    }

    #[test]
    fn uncontended_locks_create_no_lock_objects() {
        let metrics = Arc::new(EngineMetrics::new());
        let t = table(&metrics);
        for txn in 1..=10u64 {
            let rid = RecordId::new(1, 0, txn as u16);
            t.lock_record(TxnId(txn), rid, LockMode::Exclusive).unwrap();
        }
        assert_eq!(
            metrics.locks_created.get(),
            0,
            "O1 must not create lock objects without conflicts"
        );
        for txn in 1..=10u64 {
            t.release_all(TxnId(txn));
        }
        assert!(
            t.registry().is_empty(),
            "registry must drain after release_all"
        );
        assert_eq!(t.registry().total_entries(), 0);
        assert_eq!(metrics.locks_released.get(), 10);
    }

    #[test]
    fn conflicting_lock_creates_object_and_waits() {
        let metrics = Arc::new(EngineMetrics::new());
        let t = table(&metrics);
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.lock_record(TxnId(2), R1, LockMode::Exclusive));
        while t.wait_queue_len(R1) != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(metrics.locks_created.get(), 1);
        t.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(t.holders_of(R1), vec![TxnId(2)]);
        t.release_all(TxnId(2));
        assert_eq!(t.holders_of(R1), Vec::<TxnId>::new());
        assert_eq!(t.lock_count_of(TxnId(2)), 0);
    }
}
