//! Focused lock-manager micro-benchmark backing `BENCH_lockmgr.json`.
//!
//! Measures, for both the vanilla `LockSys` layout and the lightweight
//! record-keyed table:
//!
//! * **uncontended acquire/release** — one thread, a rotating set of cold
//!   records, `lock_record` + `release_all` per iteration.  This is the path
//!   the decentralized-bookkeeping refactor targets: no global mutex, no
//!   `OsEvent` allocation — and, since the fast-path overhaul, no heap
//!   allocation (inline holders), no waiter deque, and no shared-atomic
//!   metrics (every cell drives the tables through a `MetricsScratch`, the
//!   engine's per-transaction shape, flushed once per cell).
//! * **hot-record throughput** — 4 threads hammering a single record with a
//!   short timeout, counting successful acquire+release cycles.
//! * **populated hot page** — one page pre-loaded with 512 granted locks on
//!   other heap_nos, then a single thread acquiring/releasing one further
//!   record on that page.  This isolates the cost a page-level lock table
//!   pays for page *population* even without any conflict: flat-vector
//!   layouts scan every request on the page, per-record queues do not.
//! * **two hot records, one page** — 4 threads in two pairs, each pair
//!   hammering its own heap_no on the same page.  Grant scans and conflict
//!   checks of one record must not pay for the other record's queue.
//! * **commit handover** — a group-locking leader commits N hot rows (same
//!   page) through `begin_leader_commit` / one `release_record_locks` /
//!   `finish_leader_handover`.  Reports hot records committed per second and
//!   group-table **entry-shard-lock takes per hot record** (the
//!   `handover_shard_locks` counter).
//!
//! Output is a flat JSON object on stdout so runs can be recorded verbatim.
//! `TXSQL_BENCH_SECONDS` scales the per-cell measurement window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::{RecordId, TxnId};
use txsql_lockmgr::group_lock::{GroupLockConfig, GroupLockTable, HotExecution};
use txsql_lockmgr::lightweight::FlatLayout;
use txsql_lockmgr::lock_sys::PageLayout;
use txsql_lockmgr::lock_table::{DeadlockPolicy, Layout, LockTableConfig, RecordLockTable};
use txsql_lockmgr::modes::LockMode;

/// One lock table under test plus the metrics it counts into.  Every cell
/// drives the table through a `MetricsScratch` — the engine's
/// per-transaction shape.
struct Bench<L: Layout> {
    table: RecordLockTable<L>,
    metrics: Arc<EngineMetrics>,
}

impl<L: Layout> Bench<L> {
    fn new(timeout: Duration) -> Self {
        let metrics = Arc::new(EngineMetrics::new());
        let config = LockTableConfig {
            deadlock_policy: DeadlockPolicy::TimeoutOnly,
            lock_wait_timeout: timeout,
        };
        Self {
            table: RecordLockTable::new(config, Arc::clone(&metrics)),
            metrics,
        }
    }

    fn lock(&self, txn: TxnId, record: RecordId, scratch: &MetricsScratch) -> bool {
        self.table
            .lock_record_in(txn, record, LockMode::Exclusive, scratch)
            .is_ok()
    }

    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch) {
        self.table.release_all_in(txn, scratch);
    }
}

/// Single-threaded cold-record acquire/release loop; returns
/// (ops/sec, locks_created per op).
fn bench_uncontended<L: Layout>(table: &Bench<L>, window: Duration) -> (f64, f64) {
    let scratch = MetricsScratch::new();
    // Warm up shard maps so steady-state cost is measured.
    for i in 0..4_096u64 {
        let txn = TxnId(i + 1);
        table.lock(txn, record_for(i), &scratch);
        table.release_all(txn, &scratch);
    }
    scratch.flush(&table.metrics);
    let created_before = table.metrics.locks_created.get();
    let start = Instant::now();
    let mut ops = 0u64;
    let mut next_txn = 1_000_000u64;
    while start.elapsed() < window {
        // Batch 256 iterations per clock check.
        for _ in 0..256 {
            next_txn += 1;
            let txn = TxnId(next_txn);
            table.lock(txn, record_for(next_txn), &scratch);
            table.release_all(txn, &scratch);
            ops += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    scratch.flush(&table.metrics);
    let created = (table.metrics.locks_created.get() - created_before) as f64;
    (ops as f64 / elapsed, created / ops as f64)
}

fn record_for(i: u64) -> RecordId {
    RecordId::new(1, (i % 64) as u32, (i % 1_024) as u16)
}

/// Multi-threaded single-record hammer; returns successful cycles/sec.
fn bench_hot<L: Layout>(table: &Bench<L>, threads: usize, window: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let hot = RecordId::new(7, 0, 0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            scope.spawn(move || {
                let scratch = MetricsScratch::new();
                let mut txn_no = (worker as u64 + 1) << 32;
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    txn_no += 1;
                    let txn = TxnId(txn_no);
                    if table.lock(txn, hot, &scratch) {
                        ok += 1;
                    }
                    table.release_all(txn, &scratch);
                }
                scratch.flush(&table.metrics);
                total.fetch_add(ok, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Single thread acquiring/releasing one record on a page pre-populated with
/// `population` granted locks on *other* heap_nos (one parked transaction
/// each).  Returns ops/sec: the page-population tax of the lock layout.
fn bench_hot_page_populated<L: Layout>(table: &Bench<L>, population: u16, window: Duration) -> f64 {
    let scratch = MetricsScratch::new();
    for heap in 0..population {
        let txn = TxnId(1 + heap as u64);
        assert!(
            table.lock(txn, RecordId::new(11, 0, heap), &scratch),
            "populating lock must not conflict"
        );
    }
    let target = RecordId::new(11, 0, population);
    let start = Instant::now();
    let mut ops = 0u64;
    let mut next_txn = 10_000_000u64;
    while start.elapsed() < window {
        // Batch 64 iterations per clock check.
        for _ in 0..64 {
            next_txn += 1;
            let txn = TxnId(next_txn);
            table.lock(txn, target, &scratch);
            table.release_all(txn, &scratch);
            ops += 1;
        }
    }
    scratch.flush(&table.metrics);
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Two hot records on one page, two threads per record: intra-record
/// contention with cross-record independence.  Returns successful
/// acquire+release cycles/sec across all threads.
fn bench_hot_page_two_records<L: Layout>(table: &Bench<L>, window: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            // Workers 0/1 share heap 0, workers 2/3 share heap 1.
            let record = RecordId::new(12, 0, (worker / 2) as u16);
            scope.spawn(move || {
                let scratch = MetricsScratch::new();
                let mut txn_no = (worker as u64 + 1) << 32;
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    txn_no += 1;
                    let txn = TxnId(txn_no);
                    if table.lock(txn, record, &scratch) {
                        ok += 1;
                    }
                    table.release_all(txn, &scratch);
                }
                scratch.flush(&table.metrics);
                total.fetch_add(ok, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Commit-time hot-row handover: a group-locking leader repeatedly owns
/// `n_hot` hot rows (same page — the multi-row flash-sale shape) and commits
/// them through `begin_leader_commit` → one `release_record_locks` →
/// `finish_leader_handover`.  Returns (hot records committed/sec, group-table
/// entry-shard-lock takes per hot record — the `handover_shard_locks`
/// counter).
fn bench_commit_handover(n_hot: usize, window: Duration) -> (f64, f64) {
    let Bench { table, metrics } = Bench::<FlatLayout>::new(Duration::from_millis(5));
    let group = GroupLockTable::new(GroupLockConfig::default(), Arc::clone(&metrics));
    let scratch = MetricsScratch::new();
    let records: Vec<RecordId> = (0..n_hot)
        .map(|heap| RecordId::new(31, 0, heap as u16))
        .collect();
    let mut next_txn = 90_000_000u64;
    let run_cycle = |txn: TxnId| {
        // Execute phase: the leader updates each hot row (Algorithm 1).
        for r in &records {
            assert!(
                matches!(group.begin_hot_update(txn, *r), HotExecution::Leader),
                "single leader must own every hot row"
            );
            assert!(table
                .lock_record_in(txn, *r, LockMode::Exclusive, &scratch)
                .is_ok());
            group.register_update(txn, *r);
            group.finish_update(txn, *r, true);
        }
        // Commit phase (Algorithm 2, leader side).
        let prepared = group.begin_leader_commit(txn, &records);
        table.release_record_locks_in(txn, &records, &scratch);
        group.finish_leader_handover(txn, prepared);
        for r in &records {
            group.finish_commit(txn, *r);
        }
    };
    // Warm up the entry shards and lock-table shards.
    for _ in 0..1_024 {
        next_txn += 1;
        run_cycle(TxnId(next_txn));
    }
    let takes_before = metrics.handover_shard_locks.get();
    let start = Instant::now();
    let mut committed_records = 0u64;
    while start.elapsed() < window {
        // Batch 16 commits per clock check.
        for _ in 0..16 {
            next_txn += 1;
            run_cycle(TxnId(next_txn));
            committed_records += n_hot as u64;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    scratch.flush(&metrics);
    let takes = (metrics.handover_shard_locks.get() - takes_before) as f64;
    (
        committed_records as f64 / elapsed,
        takes / committed_records as f64,
    )
}

fn main() {
    let window = std::env::var("TXSQL_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(Duration::from_secs_f64)
        .unwrap_or(Duration::from_millis(500));
    // Every cell gets a fresh table of each layout.
    let timeout = Duration::from_millis(5);
    let vanilla = || Bench::<PageLayout>::new(timeout);
    let light = || Bench::<FlatLayout>::new(timeout);

    let (lock_sys_uncontended, lock_sys_objects_per_op) = bench_uncontended(&vanilla(), window);
    let (lightweight_uncontended, lightweight_objects_per_op) = bench_uncontended(&light(), window);

    let lock_sys_hot = bench_hot(&vanilla(), 4, window);
    let lightweight_hot = bench_hot(&light(), 4, window);

    let lock_sys_populated = bench_hot_page_populated(&vanilla(), 512, window);
    let lightweight_populated = bench_hot_page_populated(&light(), 512, window);

    let lock_sys_two_records = bench_hot_page_two_records(&vanilla(), window);
    let lightweight_two_records = bench_hot_page_two_records(&light(), window);

    const HANDOVER_HOT_ROWS: usize = 4;
    let (handover_ops, handover_takes) = bench_commit_handover(HANDOVER_HOT_ROWS, window);

    println!("{{");
    println!("  \"window_secs\": {},", window.as_secs_f64());
    println!("  \"uncontended_acquire_release_ops_per_sec\": {{");
    println!("    \"lock_sys\": {lock_sys_uncontended:.0},");
    println!("    \"lightweight\": {lightweight_uncontended:.0}");
    println!("  }},");
    println!("  \"lock_objects_created_per_uncontended_op\": {{");
    println!("    \"lock_sys\": {lock_sys_objects_per_op:.3},");
    println!("    \"lightweight\": {lightweight_objects_per_op:.3}");
    println!("  }},");
    println!("  \"hot_record_4_threads_cycles_per_sec\": {{");
    println!("    \"lock_sys\": {lock_sys_hot:.0},");
    println!("    \"lightweight\": {lightweight_hot:.0}");
    println!("  }},");
    println!("  \"hot_page_populated_512_ops_per_sec\": {{");
    println!("    \"lock_sys\": {lock_sys_populated:.0},");
    println!("    \"lightweight\": {lightweight_populated:.0}");
    println!("  }},");
    println!("  \"hot_page_two_records_4_threads_cycles_per_sec\": {{");
    println!("    \"lock_sys\": {lock_sys_two_records:.0},");
    println!("    \"lightweight\": {lightweight_two_records:.0}");
    println!("  }},");
    println!("  \"commit_handover_{HANDOVER_HOT_ROWS}_hot_rows_same_page\": {{");
    println!("    \"hot_records_per_sec\": {handover_ops:.0},");
    println!("    \"handover_shard_lock_takes_per_record\": {handover_takes:.3}");
    println!("  }}");
    println!("}}");
}
