//! Offline binlog replay: single-threaded vs parallel, with the hotspot
//! restriction of §4.6.3.
//!
//! Group commit makes multi-threaded replay of the binlog possible, but the
//! paper found that replaying *hotspot* transactions in parallel causes so
//! much lock contention on the replica that it is slower than a single
//! thread.  TXSQL therefore pins transactions that touched a hotspot onto one
//! replay thread and only parallelises the rest.  [`replay`] reproduces the
//! three strategies so the ablation bench can compare them; contention on the
//! replica is modelled by a per-conflict penalty (two parallel workers
//! touching the same row serialise on that row's mutex).

use crate::replica::Replica;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::fxhash::FxHashMap;
use txsql_common::latency::simulate_delay;
use txsql_core::BinlogTxn;

/// How the binlog is replayed on the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// One thread applies everything in commit order (native binlog replay).
    SingleThreaded,
    /// Transactions are spread across `workers` threads regardless of what
    /// they touched (the naive parallel replay the paper found to regress).
    Parallel {
        /// Number of replay workers.
        workers: usize,
    },
    /// Parallel replay, but transactions that involve a hotspot are pinned to
    /// one worker (§4.6.3).
    ParallelHotspotRestricted {
        /// Number of replay workers.
        workers: usize,
    },
}

/// Result of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Mode used.
    pub mode: ReplayMode,
    /// Transactions applied.
    pub transactions: usize,
    /// Wall-clock replay duration.
    pub duration: Duration,
    /// Row-level conflicts encountered by parallel workers (serialised on the
    /// row mutex) — the contention the hotspot restriction avoids.
    pub conflicts: u64,
}

impl ReplayReport {
    /// Replay throughput in transactions per second.
    pub fn tps(&self) -> f64 {
        self.transactions as f64 / self.duration.as_secs_f64().max(1e-9)
    }
}

/// Per-row apply cost, so replay durations are measurable rather than pure
/// memory writes (every change pays this once; a change is a row its
/// transaction wrote, however many statements wrote it).
const APPLY_COST: Duration = Duration::from_micros(2);

/// Replica-side per-row lock map: `(space_id, pk)` to its row mutex.
type RowLockMap = Mutex<FxHashMap<(u32, i64), Arc<Mutex<()>>>>;

fn apply_with_locks(
    replica: &Replica,
    event: &BinlogTxn,
    row_locks: &RowLockMap,
    conflicts: &Mutex<u64>,
) {
    for (table, pk, _) in &event.changes {
        let row_lock = {
            let mut locks = row_locks.lock();
            Arc::clone(
                locks
                    .entry((table.0, *pk))
                    .or_insert_with(|| Arc::new(Mutex::new(()))),
            )
        };
        // A contended row mutex is exactly the replica-side lock contention
        // the paper observed.
        if row_lock.try_lock().is_none() {
            *conflicts.lock() += 1;
        }
        let _guard = row_lock.lock();
        simulate_delay(APPLY_COST);
    }
    replica.apply(event);
}

/// Replays `events` (already in commit order) onto a fresh replica.
pub fn replay(events: &[BinlogTxn], mode: ReplayMode) -> (Replica, ReplayReport) {
    let replica = Replica::new("replay-target");
    let start = Instant::now();
    let row_locks: RowLockMap = Mutex::new(FxHashMap::default());
    let conflicts = Mutex::new(0u64);

    match mode {
        ReplayMode::SingleThreaded => {
            for event in events {
                for _ in &event.changes {
                    simulate_delay(APPLY_COST);
                }
                replica.apply(event);
            }
        }
        ReplayMode::Parallel { workers } | ReplayMode::ParallelHotspotRestricted { workers } => {
            let restrict = matches!(mode, ReplayMode::ParallelHotspotRestricted { .. });
            let workers = workers.max(1);
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let replica = &replica;
                    let row_locks = &row_locks;
                    let conflicts = &conflicts;
                    scope.spawn(move || {
                        for (idx, event) in events.iter().enumerate() {
                            let assigned = if restrict && event.involves_hotspot {
                                // Hotspot transactions always replay on worker 0.
                                0
                            } else {
                                idx % workers
                            };
                            if assigned == worker {
                                apply_with_locks(replica, event, row_locks, conflicts);
                            }
                        }
                    });
                }
            });
        }
    }

    let report = ReplayReport {
        mode,
        transactions: events.len(),
        duration: start.elapsed(),
        conflicts: *conflicts.lock(),
    };
    (replica, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_common::{Row, TableId, TxnId};

    fn hotspot_events(n: u64) -> Vec<BinlogTxn> {
        (1..=n)
            .map(|i| BinlogTxn {
                txn: TxnId(i),
                trx_no: i,
                changes: vec![(TableId(1), 1, Row::from_ints(&[1, i as i64]))],
                involves_hotspot: true,
            })
            .collect()
    }

    fn uniform_events(n: u64) -> Vec<BinlogTxn> {
        (1..=n)
            .map(|i| BinlogTxn {
                txn: TxnId(i),
                trx_no: i,
                changes: vec![(TableId(1), i as i64, Row::from_ints(&[i as i64, i as i64]))],
                involves_hotspot: false,
            })
            .collect()
    }

    #[test]
    fn all_modes_apply_every_transaction() {
        let events = uniform_events(64);
        for mode in [
            ReplayMode::SingleThreaded,
            ReplayMode::Parallel { workers: 4 },
            ReplayMode::ParallelHotspotRestricted { workers: 4 },
        ] {
            let (replica, report) = replay(&events, mode);
            assert_eq!(replica.applied_txns(), 64, "{mode:?}");
            assert_eq!(report.transactions, 64);
            assert!(report.tps() > 0.0);
        }
    }

    #[test]
    fn hotspot_restriction_avoids_parallel_conflicts_on_hot_rows() {
        let events = hotspot_events(200);
        let (_, parallel) = replay(&events, ReplayMode::Parallel { workers: 4 });
        let (_, restricted) = replay(
            &events,
            ReplayMode::ParallelHotspotRestricted { workers: 4 },
        );
        assert!(
            restricted.conflicts <= parallel.conflicts,
            "restricted replay must not contend more ({} vs {})",
            restricted.conflicts,
            parallel.conflicts
        );
    }

    #[test]
    fn single_threaded_replay_has_no_conflicts() {
        let events = hotspot_events(50);
        let (_, report) = replay(&events, ReplayMode::SingleThreaded);
        assert_eq!(report.conflicts, 0);
    }

    #[test]
    fn final_state_matches_last_writer_in_every_mode() {
        let events = hotspot_events(30);
        // With a single hot row, the restricted mode keeps commit order on
        // worker 0, so the final value is the last transaction's.
        let (replica, _) = replay(
            &events,
            ReplayMode::ParallelHotspotRestricted { workers: 4 },
        );
        assert_eq!(replica.row(TableId(1), 1).unwrap().get_int(1), Some(30));
        let (replica, _) = replay(&events, ReplayMode::SingleThreaded);
        assert_eq!(replica.row(TableId(1), 1).unwrap().get_int(1), Some(30));
    }
}
