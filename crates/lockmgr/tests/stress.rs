//! Concurrent stress test of the decentralized lock bookkeeping.
//!
//! N threads hammer one hot record plus disjoint cold records through both
//! [`LockSys`] and [`LightweightLockTable`], asserting:
//!
//! * no lost grants — every successful exclusive acquisition of the hot
//!   record observes and increments a shared counter exactly once, so the
//!   final counter equals the number of grants;
//! * no duplicate holders — while a thread holds the hot record
//!   exclusively, it must be the only holder the table reports;
//! * bookkeeping drains — after every thread has issued `release_all`, the
//!   per-transaction registry and the wait-for graph are empty (this is the
//!   race the timeout-removal vs grant-scan interplay can leak on);
//! * one page's records stay independent — the hot record and every cold
//!   record live on one page (one shard of the page layout), and the cold
//!   records, released through the batched `release_record_locks` path,
//!   never fail to lock;
//! * the per-transaction metrics scratch loses no counts — every worker
//!   drives the tables through its own `MetricsScratch` (the engine shape:
//!   `lock_record_in` / `release_record_locks_in` / `release_all_in`) and
//!   flushes when it drops, so the `locks_released` totals asserted below
//!   would come up short if any scratch count were dropped.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use support::{assert_locks_drained, lock_table, lock_table_on};
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::{Error, RecordId, TxnId};
use txsql_lockmgr::lightweight::FlatLayout;
use txsql_lockmgr::lock_sys::PageLayout;
use txsql_lockmgr::lock_table::{DeadlockPolicy, Layout};
use txsql_lockmgr::modes::LockMode;

/// On the cold records' page (they use heap numbers under 3,200).
const HOT: RecordId = RecordId::new(9, 1, 4_095);
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 200;

/// Drives a table of layout `L` the way the engine does: every lock/release
/// entry point takes the worker's `MetricsScratch`.  Returns its metrics.
fn stress<L: Layout + 'static>() -> Arc<EngineMetrics> {
    let shared = Arc::new(EngineMetrics::new());
    let table = lock_table_on::<L>(DeadlockPolicy::TimeoutOnly, 10, &shared);
    let counter = Arc::new(AtomicU64::new(0));
    let grants = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let table = Arc::clone(&table);
            let counter = Arc::clone(&counter);
            let grants = Arc::clone(&grants);
            let barrier = Arc::clone(&barrier);
            // The worker's private metrics scratch — per-cycle counts
            // accumulate here and flush in one batch when the worker ends
            // (the engine flushes per transaction; one flush per worker
            // makes any lost count equally visible in the totals below).
            let scratch = MetricsScratch::attached(Arc::clone(&shared));
            scope.spawn(move || {
                barrier.wait();
                let mut txn_no = ((worker as u64) + 1) << 32;
                for op in 0..OPS_PER_THREAD {
                    txn_no += 1;
                    let txn = TxnId(txn_no);
                    // Two disjoint cold records per thread, always
                    // uncontended — but all cold records share ONE page, so
                    // the page layout puts every thread's requests on one
                    // shard mutex.
                    let base = (worker * OPS_PER_THREAD + op) * 2;
                    let cold_a = RecordId::new(9, 1, (base % 4_096) as u16);
                    let cold_b = RecordId::new(9, 1, ((base + 1) % 4_096) as u16);
                    for cold in [cold_a, cold_b] {
                        assert!(
                            table
                                .lock_record_in(txn, cold, LockMode::Exclusive, &scratch)
                                .is_ok(),
                            "cold record acquisition must never fail"
                        );
                    }
                    // The shared hot record: may time out under contention,
                    // but a grant must be exclusive.
                    if table
                        .lock_record_in(txn, HOT, LockMode::Exclusive, &scratch)
                        .is_ok()
                    {
                        let holder = table.holder_of(HOT);
                        assert_eq!(holder, Some(txn), "a grant makes its requester the holder");
                        counter.fetch_add(1, Ordering::Relaxed);
                        grants.fetch_add(1, Ordering::Relaxed);
                    }
                    // The cold records go through the batched pre-commit
                    // release path (one shard-group drain + one registry
                    // batch), the hot one through release_all.
                    table.release_record_locks_in(txn, &[cold_a, cold_b], &scratch);
                    assert_eq!(table.holder_of(cold_a), None);
                    table.release_all_in(txn, &scratch);
                }
            });
        }
    });

    assert_eq!(
        counter.load(Ordering::Relaxed),
        grants.load(Ordering::Relaxed),
        "every grant increments the shared counter exactly once"
    );
    assert!(
        grants.load(Ordering::Relaxed) > 0,
        "at least some hot acquisitions must succeed"
    );
    assert_eq!(
        table.holder_of(HOT),
        None,
        "hot record must end with no holder"
    );
    assert_locks_drained(&table);
    shared
}

#[test]
fn lock_sys_hot_and_cold_stress() {
    stress::<PageLayout>();
}

#[test]
fn lightweight_hot_and_cold_stress() {
    let metrics = stress::<FlatLayout>();
    // Lightweight only creates lock objects for waits; releases must cover
    // every registry entry ever created (two batched cold releases plus the
    // hot record per op).
    let released = metrics.locks_released.get();
    assert_eq!(released, (THREADS * OPS_PER_THREAD) as u64 * 3);
}

#[test]
fn deadlock_detection_survives_concurrent_churn() {
    // With detection enabled and short timeouts, cross-thread cycles on two
    // records must resolve as deadlock or timeout — never hang — and the
    // graph must drain afterwards.  Only the request that closes a cycle
    // dies, so a first request, made while holding nothing, never does.
    let table = lock_table::<FlatLayout>(DeadlockPolicy::Detect, 20);
    let a = RecordId::new(3, 0, 0);
    let b = RecordId::new(3, 0, 1);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let table = Arc::clone(&table);
            scope.spawn(move || {
                let mut txn_no = ((worker as u64) + 1) << 40;
                for _ in 0..100 {
                    txn_no += 1;
                    let txn = TxnId(txn_no);
                    // Half the workers lock a->b, half b->a: real deadlock
                    // cycles form and must be broken.
                    let (first, second) = if worker % 2 == 0 { (a, b) } else { (b, a) };
                    match table.lock_record(txn, first, LockMode::Exclusive) {
                        Ok(()) => {
                            let _ = table.lock_record(txn, second, LockMode::Exclusive);
                        }
                        Err(err) => assert!(
                            !matches!(err, Error::Deadlock { .. }),
                            "{txn:?} died holding nothing"
                        ),
                    }
                    table.release_all(txn);
                }
            });
        }
    });
    assert_eq!((table.holder_of(a), table.holder_of(b)), (None, None));
    assert_locks_drained(&table);
}
