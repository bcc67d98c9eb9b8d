//! The sharded per-transaction lock registry.
//!
//! Both lock tables used to track "which records does transaction T hold"
//! in one global `Mutex<FxHashMap<TxnId, Vec<RecordId>>>`: every acquisition
//! and every release-all from **every** worker serialized on that one mutex,
//! and the `Vec::contains` dedupe made each acquisition O(locks already
//! held).  That is precisely the centralized-bookkeeping contention the
//! paper's §3 motivation (Figure 6c/6d) blames for the lock manager's
//! collapse, and what Ren et al. identify as the dominant multicore scaling
//! lever.
//!
//! [`TxnLockRegistry`] decentralizes it: entries are sharded by `TxnId` so
//! two transactions only contend when they hash to the same shard, and shards
//! are cache-padded so neighbouring shard mutexes do not false-share.
//!
//! Per-transaction records are an **append log**: [`TxnLockRegistry::remember_record`]
//! is a plain `Vec::push`, so the acquire path pays no ordered insert and no
//! binary search.  A record is logged once per lock or wait: a re-entrant
//! request logs nothing, and a wait that gives up forgets its entry.
//! [`TxnLockRegistry::take_all_in`] removes the whole entry from the owning
//! shard in one lock acquisition; the lock table then groups the records by
//! its own shards and takes each shard mutex once, instead of re-locking a
//! shard once per record.  [`TxnLockRegistry::forget_records_in`] batches the
//! early-release bookkeeping (Bamboo) the same way — one shard lock per
//! batch, not one per row (the log is unsorted, so removal is a linear scan,
//! bounded by the handful of locks a realistic transaction holds).
//!
//! The registry is layout-agnostic and holds records only — neither lock
//! table takes table locks.  The one lock-table driver feeds it (the
//! wait loop forgets a timed-out waiter's record, `release_record_locks`
//! forgets a whole batch), each table owns its own instance, and only the
//! shard counts differ.  Release-path shard acquisitions (here and in the
//! lock tables) are counted in the releasing transaction's
//! [`MetricsScratch`] and land in `EngineMetrics::release_shard_locks`, the
//! denominator for the batching amortization the bench records.
//!
//! Live-entry counts are kept **per shard** (a plain integer guarded by the
//! shard mutex — no shared atomic on the acquire path) and aggregated on
//! demand by [`TxnLockRegistry::total_entries`], which the engine samples
//! into the `lock_registry_entries` gauge at snapshot time.

use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::metrics::MetricsScratch;
use txsql_common::pad::CachePadded;
use txsql_common::{RecordId, TxnId};

#[derive(Debug, Default)]
struct Shard {
    /// Each live transaction's records, an **unsorted append log** —
    /// `remember_record` is a plain push (the acquire-path cost).
    /// Transactions hold few locks in the paper's workloads, so the
    /// occasional linear scan (`forget_records_in`) stays cheap.  (A
    /// transaction holding many thousands of locks would prefer a tiered
    /// structure; nothing in the evaluated workloads comes close.)
    txns: FxHashMap<TxnId, Vec<RecordId>>,
    /// Live `(txn, record)` log entries in this shard.  Guarded by the shard
    /// mutex, so counting costs nothing extra on the hot path and never
    /// bounces a shared cache line between shards.
    live_records: u64,
}

/// Sharded, cache-padded map from transaction to its held locks.
#[derive(Debug)]
pub struct TxnLockRegistry {
    shards: Box<[CachePadded<Mutex<Shard>>]>,
}

impl TxnLockRegistry {
    /// Creates a registry with `n_shards` shards (rounded up to at least 1).
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        Self {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(Shard::default())))
                .collect(),
        }
    }

    #[inline]
    fn shard_for(&self, txn: TxnId) -> &Mutex<Shard> {
        let idx = (fxhash::hash_u64(txn.0) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Records that `txn` holds (or waits on) `record`: one shard lock and
    /// one `Vec::push`.  The lock table calls it once per lock or wait.
    pub fn remember_record(&self, txn: TxnId, record: RecordId) {
        let mut shard = self.shard_for(txn).lock();
        let _scope = GuardScope::enter();
        shard.txns.entry(txn).or_default().push(record);
        shard.live_records += 1;
    }

    /// Forgets a batch of records with one shard lock for the whole batch
    /// (the bookkeeping half of a batched pre-commit release, or of a wait
    /// that gave up), counting into `scratch`.  Returns how many of them were
    /// actually tracked.
    pub fn forget_records_in(
        &self,
        txn: TxnId,
        records: &[RecordId],
        scratch: &MetricsScratch,
    ) -> usize {
        let released = {
            let mut shard = self.shard_for(txn).lock();
            let _scope = GuardScope::enter();
            scratch.release_shard_locks.inc();
            let mut released = 0usize;
            if let Some(held) = shard.txns.get_mut(&txn) {
                for record in records {
                    // The log is unsorted, so removal is a linear scan.
                    if let Some(at) = held.iter().position(|r| r == record) {
                        held.swap_remove(at);
                        released += 1;
                    }
                }
                if held.is_empty() {
                    shard.txns.remove(&txn);
                }
            }
            shard.live_records -= released as u64;
            released
        };
        scratch.locks_released.add(released as u64);
        released
    }

    /// Removes and returns every record `txn` locked or waited on, each
    /// once and in no particular order — one shard lock, no walk of anyone
    /// else's state — or `None` when the transaction holds nothing.  The
    /// counts go to `scratch`.
    pub fn take_all_in(&self, txn: TxnId, scratch: &MetricsScratch) -> Option<Vec<RecordId>> {
        let records = {
            let mut shard = self.shard_for(txn).lock();
            let _scope = GuardScope::enter();
            scratch.release_shard_locks.inc();
            let records = shard.txns.remove(&txn)?;
            shard.live_records -= records.len() as u64;
            records
        };
        scratch.locks_released.add(records.len() as u64);
        Some(records)
    }

    /// Number of records `txn` currently holds or waits on (zero once it
    /// finished, as `TrxSys::finish` checks in debug builds).
    pub fn record_count_of(&self, txn: TxnId) -> usize {
        self.shard_for(txn)
            .lock()
            .txns
            .get(&txn)
            .map_or(0, Vec::len)
    }

    /// Total live `(txn, record)` entries across all shards (O(shards) —
    /// each shard keeps its own count, so this is a sum of integers, not a
    /// walk).  Sampled into the `lock_registry_entries` gauge at snapshot
    /// time.
    pub fn total_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().live_records as usize)
            .sum()
    }

    /// True when no transaction holds anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().txns.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use txsql_common::metrics::EngineMetrics;

    const R1: RecordId = RecordId::new(1, 0, 0);
    const R2: RecordId = RecordId::new(1, 0, 1);

    /// A registry, and a scratch attached to the metrics it returns.
    fn counted() -> (TxnLockRegistry, Arc<EngineMetrics>, MetricsScratch) {
        let metrics = Arc::new(EngineMetrics::new());
        let scratch = MetricsScratch::attached(Arc::clone(&metrics));
        (TxnLockRegistry::new(8), metrics, scratch)
    }

    #[test]
    fn take_all_empties_the_transaction() {
        let (reg, scratch) = (TxnLockRegistry::new(8), MetricsScratch::new());
        reg.remember_record(TxnId(1), R1);
        assert_eq!(reg.take_all_in(TxnId(1), &scratch).unwrap(), [R1]);
        assert!(reg.take_all_in(TxnId(1), &scratch).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn forgetting_prunes_empty_entries_and_counts_into_the_scratch() {
        let (reg, metrics, scratch) = counted();
        reg.remember_record(TxnId(1), R1);
        reg.remember_record(TxnId(1), R2);
        reg.remember_record(TxnId(2), R1);
        assert_eq!(reg.total_entries(), 3);
        assert_eq!(reg.forget_records_in(TxnId(1), &[R2], &scratch), 1);
        assert_eq!(reg.forget_records_in(TxnId(1), &[R2], &scratch), 0);
        assert_eq!(reg.total_entries(), 2);
        reg.take_all_in(TxnId(1), &scratch);
        reg.take_all_in(TxnId(2), &scratch);
        assert!(reg.is_empty());
        assert_eq!(reg.total_entries(), 0);
        // Shared counters untouched until the flush.
        assert_eq!(metrics.locks_released.get(), 0);
        scratch.flush();
        assert_eq!(metrics.locks_released.get(), 3);
        assert_eq!(metrics.release_shard_locks.get(), 4);
    }

    #[test]
    fn forget_records_batch_takes_one_pass() {
        let (reg, metrics, scratch) = counted();
        reg.remember_record(TxnId(1), R1);
        reg.remember_record(TxnId(1), R2);
        let untracked = RecordId::new(5, 5, 5);
        assert_eq!(
            reg.forget_records_in(TxnId(1), &[R1, R2, untracked], &scratch),
            2
        );
        assert!(reg.is_empty());
        scratch.flush();
        assert_eq!(metrics.locks_released.get(), 2);
        assert_eq!(metrics.release_shard_locks.get(), 1);
    }

    #[test]
    fn concurrent_transactions_do_not_interfere() {
        let reg = Arc::new(TxnLockRegistry::new(16));
        let handles: Vec<_> = (1..=8u64)
            .map(|t| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    for heap in 0..64u16 {
                        reg.remember_record(TxnId(t), RecordId::new(1, t as u32, heap));
                    }
                    assert_eq!(reg.record_count_of(TxnId(t)), 64);
                    let records = reg.take_all_in(TxnId(t), &MetricsScratch::new()).unwrap();
                    assert_eq!(records.len(), 64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(reg.is_empty());
    }
}
