//! Redo log (write-ahead log) with an explicit durability horizon.
//!
//! The log is the engine's only "disk".  Appending is cheap and in-memory;
//! durability is modelled by [`RedoLog::flush_to`], which advances the
//! durable LSN after paying the configured fsync latency.  A simulated crash
//! ([`RedoLog::durable_records`]) keeps only what was flushed — everything
//! the paper's failure-recovery experiment (§6.4.6) needs.
//!
//! The commit pipeline in `txsql-core` writes three kinds of records per
//! transaction: its row changes (physical redo, including uncommitted ones),
//! its undo-header updates (so `hot_update_order` survives a crash, §5.3) and
//! a final `Commit`/`Rollback` marker.
//!
//! # Durability contract
//!
//! Flushers are serialized behind a flush latch: when [`RedoLog::flush_to`]
//! returns `Ok(())`, every record at or below the requested LSN has been
//! covered by a *completed* fsync.  The durable horizon only ever advances
//! after the fsync that covers it finishes — there is no window in which a
//! caller can observe `durable_lsn >= lsn` while the covering fsync is still
//! in flight on another thread.
//!
//! # Crash model
//!
//! A [`crate::fault::FaultInjector`] can kill the simulated process at named
//! crash points.  Once crashed, the durable horizon is frozen (the crash
//! image): appends are swallowed, flushes fail with [`Error::Crashed`], and
//! [`RedoLog::durable_frames`] returns exactly what a restarted process would
//! read back — possibly ending in a [`LogFrame::Torn`] frame when a
//! mid-flush crash cut the durable suffix inside a flush batch.

use crate::fault::{CrashPoint, FaultInjector, FsyncFault};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::simulate_delay;
use txsql_common::{Error, Lsn, RecordId, Result, Row, TableId, TxnId};

/// How many times a transiently failing fsync is retried (with backoff)
/// before the engine degrades to read-only.
pub const MAX_FSYNC_RETRIES: u64 = 3;

/// One redo log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoRecord {
    /// Transaction start marker.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// A row update (physical redo of the after-image).
    Update {
        /// Writing transaction.
        txn: TxnId,
        /// Table of the row.
        table: TableId,
        /// The updated record.
        record: RecordId,
        /// Primary key of the row (so recovery can rebuild the index).
        pk: i64,
        /// After-image.
        after: Row,
    },
    /// A row insert.
    Insert {
        /// Writing transaction.
        txn: TxnId,
        /// Table of the row.
        table: TableId,
        /// Allocated record id.
        record: RecordId,
        /// Primary key.
        pk: i64,
        /// Inserted row.
        row: Row,
    },
    /// The undo header field for `txn` changed (carries the raw
    /// `TRX_UNDO_TRX_NO` field, which may encode a `hot_update_order`).
    UndoHeader {
        /// Owning transaction.
        txn: TxnId,
        /// Raw header field (see [`crate::undo::UndoHeader`]).
        field: u64,
    },
    /// Commit marker with the commit sequence number.
    Commit {
        /// Committing transaction.
        txn: TxnId,
        /// Commit sequence number (`trx_no`).
        trx_no: u64,
    },
    /// Rollback marker (the transaction's changes must be undone if replayed).
    Rollback {
        /// Rolled-back transaction.
        txn: TxnId,
    },
}

impl RedoRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            RedoRecord::Begin { txn }
            | RedoRecord::Update { txn, .. }
            | RedoRecord::Insert { txn, .. }
            | RedoRecord::UndoHeader { txn, .. }
            | RedoRecord::Commit { txn, .. }
            | RedoRecord::Rollback { txn } => *txn,
        }
    }
}

/// One frame of the durable log suffix, as a restarted process reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogFrame {
    /// A fully durable record.
    Intact(RedoRecord),
    /// A torn record: a mid-flush crash cut the durable suffix here.  Recovery
    /// scan-stops at the last intact record (see [`crate::recovery`]).
    Torn,
}

/// The redo log.
#[derive(Debug)]
pub struct RedoLog {
    records: Mutex<Vec<(Lsn, RedoRecord)>>,
    next_lsn: AtomicU64,
    durable_lsn: AtomicU64,
    /// LSN of the torn record a mid-flush crash left behind (0 = none).
    torn_lsn: AtomicU64,
    /// Serializes flushers: `flush_to` returning `Ok` means the covering
    /// fsync *completed* (the durability contract, see the module docs).
    flush_lock: Mutex<()>,
    fsync_latency: Duration,
    fsync_count: AtomicU64,
    faults: Arc<FaultInjector>,
}

impl Default for RedoLog {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl RedoLog {
    /// Creates an empty log whose flushes cost `fsync_latency` and that never
    /// experiences injected faults.
    pub fn new(fsync_latency: Duration) -> Self {
        Self::with_faults(fsync_latency, FaultInjector::disabled())
    }

    /// Creates an empty log wired to a fault injector.
    pub fn with_faults(fsync_latency: Duration, faults: Arc<FaultInjector>) -> Self {
        Self {
            records: Mutex::new(Vec::new()),
            next_lsn: AtomicU64::new(1),
            durable_lsn: AtomicU64::new(0),
            torn_lsn: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
            fsync_latency,
            fsync_count: AtomicU64::new(0),
            faults,
        }
    }

    /// The fault injector this log reports to.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Appends a record, returning its LSN.  The record is *not* durable
    /// until a flush covers its LSN.  After an injected crash the append is
    /// swallowed (the process is dead; nothing reaches the log buffer).
    pub fn append(&self, record: RedoRecord) -> Lsn {
        self.reserve(1, |lsn, log| log.push((Lsn(lsn), record)))
    }

    /// Appends `first` and `second` as consecutive records under one
    /// reservation — one step of the LSN counter, one acquisition of the log
    /// buffer — and returns the LSN of `second`.  What a stage that logs two
    /// records at once (commit's undo header + marker) publishes with.
    pub fn append_pair(&self, first: RedoRecord, second: RedoRecord) -> Lsn {
        self.reserve(2, |lsn, log| {
            log.push((Lsn(lsn), first));
            log.push((Lsn(lsn + 1), second));
        })
    }

    /// Takes the next `n` LSNs and lets `fill` push their records (it is
    /// handed the first one); returns the last.  A dead process's appends
    /// take their LSNs and are swallowed.
    fn reserve(&self, n: u64, fill: impl FnOnce(u64, &mut Vec<(Lsn, RedoRecord)>)) -> Lsn {
        let first = self.next_lsn.fetch_add(n, Ordering::Relaxed);
        if !self.faults.crashed() {
            fill(first, &mut self.records.lock());
        }
        Lsn(first + n - 1)
    }

    /// Registers a hit of `point` and surfaces the injected crash (or an
    /// earlier crash / read-only degradation) as an error.  Called by the
    /// storage write paths at their named crash points.
    pub fn crash_point(&self, point: CrashPoint) -> Result<()> {
        if self.faults.hit(point) {
            return Err(Error::Crashed {
                point: point.name(),
            });
        }
        self.faults.check_writable()
    }

    /// Highest LSN ever assigned.
    pub fn latest_lsn(&self) -> Lsn {
        Lsn(self.next_lsn.load(Ordering::Relaxed).saturating_sub(1))
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn.load(Ordering::Relaxed))
    }

    /// LSN of the torn record a mid-flush crash left behind, if any.
    pub fn torn_lsn(&self) -> Option<Lsn> {
        match self.torn_lsn.load(Ordering::Acquire) {
            0 => None,
            lsn => Some(Lsn(lsn)),
        }
    }

    /// Number of fsyncs performed (group commit reduces this; Figure 13).
    pub fn fsync_count(&self) -> u64 {
        self.fsync_count.load(Ordering::Relaxed)
    }

    /// Makes everything up to `lsn` durable.  Pays one fsync latency if there
    /// is anything new to flush; callers batching multiple transactions behind
    /// one flush is exactly the group-commit optimization.
    ///
    /// Flushers are serialized: `Ok(())` means the fsync covering `lsn` has
    /// *completed*.  Transient injected fsync errors are retried up to
    /// [`MAX_FSYNC_RETRIES`] times with backoff; persistent ones (or an
    /// exhausted budget) degrade the engine to read-only.  An injected
    /// mid-flush crash cuts the durable suffix inside this flush batch and
    /// leaves a torn record behind.
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        // Safe unlatched fast path: the durable horizon only advances after a
        // *completed* fsync, so observing `durable >= lsn` here really does
        // mean the data is on disk.
        if lsn.0 <= self.durable_lsn.load(Ordering::Acquire) {
            return Ok(());
        }
        let _flusher = self.flush_lock.lock();
        self.faults.check_writable()?;
        // Re-check under the latch: the previous flusher may have covered us
        // (group commit), in which case we owe no extra fsync.
        if lsn.0 <= self.durable_lsn.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut retries = 0;
        loop {
            let fault = self.faults.fsync_attempt();
            if self.faults.crashed() {
                // A plan may crash *at* an injected fsync error.
                return Err(Error::Crashed {
                    point: CrashPoint::FsyncError.name(),
                });
            }
            match fault {
                FsyncFault::Ok => break,
                FsyncFault::Transient => {
                    if retries >= MAX_FSYNC_RETRIES {
                        self.faults.degrade_read_only();
                        return Err(Error::ReadOnly {
                            reason: "fsync retry budget exhausted",
                        });
                    }
                    retries += 1;
                    self.faults.note_fsync_retry();
                    // Bounded backoff before the next attempt.
                    simulate_delay(self.fsync_latency);
                }
                FsyncFault::Persistent => {
                    self.faults.degrade_read_only();
                    return Err(Error::ReadOnly {
                        reason: "fsync failed persistently",
                    });
                }
            }
        }
        simulate_delay(self.fsync_latency);
        if self.faults.hit(CrashPoint::MidFlush) {
            // The crash landed inside this flush batch: the durable horizon
            // advances only part-way to the target and the first record past
            // it becomes the torn tail a restarted process reads back.
            let current = self.durable_lsn.load(Ordering::Acquire);
            let cut = lsn
                .0
                .saturating_sub(self.faults.torn_cut_back())
                .max(current);
            self.durable_lsn.store(cut, Ordering::Release);
            let torn = {
                let records = self.records.lock();
                records
                    .iter()
                    .filter(|(l, _)| l.0 > cut)
                    .map(|(l, _)| l.0)
                    .min()
            };
            if let Some(torn) = torn {
                self.torn_lsn.store(torn, Ordering::Release);
            }
            return Err(Error::Crashed {
                point: CrashPoint::MidFlush.name(),
            });
        }
        if self.faults.crashed() {
            // The process died (at some other crash point) while our fsync
            // was in flight: the durable horizon is frozen at the crash
            // image and this flush must not be acknowledged.
            return Err(Error::Crashed { point: "crashed" });
        }
        self.fsync_count.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.fetch_max(lsn.0, Ordering::AcqRel);
        Ok(())
    }

    /// Flushes everything appended so far.
    pub fn flush_all(&self) -> Result<()> {
        self.flush_to(self.latest_lsn())
    }

    /// Drops every record with `lsn <= min(lsn, durable_lsn)` from the log
    /// buffer (checkpoint truncation).  Never removes an un-flushed record.
    /// Returns the number of records removed.
    pub fn truncate_to(&self, lsn: Lsn) -> u64 {
        let limit = lsn.0.min(self.durable_lsn.load(Ordering::Acquire));
        let mut records = self.records.lock();
        let before = records.len();
        records.retain(|(l, _)| l.0 > limit);
        (before - records.len()) as u64
    }

    /// Records that survive a crash: everything with `lsn <= durable_lsn`,
    /// in LSN order.
    pub fn durable_records(&self) -> Vec<RedoRecord> {
        self.durable_frames()
            .into_iter()
            .filter_map(|(_, frame)| match frame {
                LogFrame::Intact(record) => Some(record),
                LogFrame::Torn => None,
            })
            .collect()
    }

    /// The durable log suffix exactly as a restarted process reads it back:
    /// intact records in LSN order, optionally followed by a single
    /// [`LogFrame::Torn`] frame when a mid-flush crash cut the suffix.
    pub fn durable_frames(&self) -> Vec<(Lsn, LogFrame)> {
        let durable = self.durable_lsn();
        let mut frames: Vec<(Lsn, LogFrame)> = self
            .records
            .lock()
            .iter()
            .filter(|(lsn, _)| *lsn <= durable)
            .map(|(lsn, record)| (*lsn, LogFrame::Intact(record.clone())))
            .collect();
        frames.sort_by_key(|(lsn, _)| *lsn);
        if let Some(torn) = self.torn_lsn() {
            frames.push((torn, LogFrame::Torn));
        }
        frames
    }

    /// All records regardless of durability (used by replication, which ships
    /// from the in-memory log buffer, and by tests), in LSN order.
    pub fn all_records(&self) -> Vec<RedoRecord> {
        let mut records: Vec<(Lsn, RedoRecord)> = self.records.lock().clone();
        records.sort_by_key(|(lsn, _)| *lsn);
        records.into_iter().map(|(_, r)| r).collect()
    }

    /// Total number of appended records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn upd(txn: u64, pk: i64, val: i64) -> RedoRecord {
        RedoRecord::Update {
            txn: TxnId(txn),
            table: TableId(1),
            record: RecordId::new(1, 0, pk as u16),
            pk,
            after: Row::from_ints(&[pk, val]),
        }
    }

    #[test]
    fn lsns_are_monotonic() {
        let log = RedoLog::default();
        let a = log.append(RedoRecord::Begin { txn: TxnId(1) });
        let b = log.append(upd(1, 0, 5));
        assert!(b > a);
        assert_eq!(log.latest_lsn(), b);
        assert_eq!(log.len(), 2);
        // A pair takes consecutive LSNs and reports its last one.
        let commit = RedoRecord::Commit {
            txn: TxnId(1),
            trx_no: 1,
        };
        let c = log.append_pair(upd(1, 0, 6), commit.clone());
        assert_eq!((c, log.latest_lsn(), log.len()), (Lsn(b.0 + 2), c, 4));
        assert_eq!(log.all_records()[3], commit);
    }

    #[test]
    fn unflushed_records_do_not_survive_a_crash() {
        let log = RedoLog::default();
        log.append(upd(1, 0, 5));
        let flushed_up_to = log.append(RedoRecord::Commit {
            txn: TxnId(1),
            trx_no: 1,
        });
        log.flush_to(flushed_up_to).unwrap();
        log.append(upd(2, 0, 6)); // never flushed
        let survived = log.durable_records();
        assert_eq!(survived.len(), 2);
        assert!(matches!(
            survived.last().unwrap(),
            RedoRecord::Commit { .. }
        ));
        assert_eq!(log.all_records().len(), 3);
    }

    #[test]
    fn flush_is_idempotent_and_monotonic() {
        let log = RedoLog::default();
        let lsn = log.append(upd(1, 0, 1));
        log.flush_to(lsn).unwrap();
        let count = log.fsync_count();
        log.flush_to(lsn).unwrap(); // no new data: no extra fsync
        log.flush_to(Lsn(0)).unwrap();
        assert_eq!(log.fsync_count(), count);
        assert_eq!(log.durable_lsn(), lsn);
    }

    #[test]
    fn group_flush_covers_multiple_transactions_with_one_fsync() {
        let log = RedoLog::default();
        for t in 1..=10u64 {
            log.append(upd(t, 0, t as i64));
            log.append(RedoRecord::Commit {
                txn: TxnId(t),
                trx_no: t,
            });
        }
        log.flush_all().unwrap();
        assert_eq!(log.fsync_count(), 1);
        assert_eq!(log.durable_records().len(), 20);
    }

    #[test]
    fn record_txn_accessor() {
        assert_eq!(RedoRecord::Rollback { txn: TxnId(3) }.txn(), TxnId(3));
        assert_eq!(upd(9, 1, 1).txn(), TxnId(9));
    }

    #[test]
    fn mid_flush_crash_leaves_a_torn_tail() {
        let plan = FaultPlan::none()
            .crash_at(CrashPoint::MidFlush, 1)
            .with_torn_cut_back(1);
        let log = RedoLog::with_faults(Duration::ZERO, FaultInjector::new(plan));
        for t in 1..=3u64 {
            log.append(upd(t, 0, t as i64));
        }
        let target = log.latest_lsn();
        let err = log.flush_to(target).unwrap_err();
        assert!(matches!(err, Error::Crashed { point: "mid_flush" }));
        // The durable horizon stopped one record short of the flush target
        // and the record past it is the torn tail.
        assert_eq!(log.durable_lsn(), Lsn(target.0 - 1));
        assert_eq!(log.torn_lsn(), Some(target));
        let frames = log.durable_frames();
        assert_eq!(frames.len(), 3);
        assert!(matches!(frames.last().unwrap().1, LogFrame::Torn));
        assert_eq!(log.durable_records().len(), 2);
        // The dead process swallows further appends and rejects flushes.
        log.append(upd(9, 0, 9));
        assert_eq!(log.len(), 3);
        assert!(log.flush_all().is_err());
        assert_eq!(log.durable_lsn(), Lsn(target.0 - 1));
    }

    #[test]
    fn transient_fsync_errors_are_retried_with_backoff() {
        let plan = FaultPlan::none().with_transient_fsync_errors(2);
        let log = RedoLog::with_faults(Duration::ZERO, FaultInjector::new(plan));
        let lsn = log.append(upd(1, 0, 1));
        log.flush_to(lsn).unwrap();
        assert_eq!(log.durable_lsn(), lsn);
        assert_eq!(log.fsync_count(), 1);
    }

    #[test]
    fn persistent_fsync_failure_degrades_to_read_only() {
        let plan = FaultPlan::none().with_persistent_fsync_failure();
        let log = RedoLog::with_faults(Duration::ZERO, FaultInjector::new(plan));
        let lsn = log.append(upd(1, 0, 1));
        let err = log.flush_to(lsn).unwrap_err();
        assert!(matches!(err, Error::ReadOnly { .. }));
        assert!(log.faults().is_read_only());
        assert_eq!(log.durable_lsn(), Lsn(0));
        // Every subsequent flush fails fast without touching the horizon.
        assert!(matches!(
            log.flush_to(lsn).unwrap_err(),
            Error::ReadOnly { .. }
        ));
    }

    #[test]
    fn exhausted_transient_budget_degrades_to_read_only() {
        let plan = FaultPlan::none().with_transient_fsync_errors(MAX_FSYNC_RETRIES + 5);
        let log = RedoLog::with_faults(Duration::ZERO, FaultInjector::new(plan));
        let lsn = log.append(upd(1, 0, 1));
        let err = log.flush_to(lsn).unwrap_err();
        assert!(matches!(err, Error::ReadOnly { .. }));
    }

    #[test]
    fn truncate_never_removes_unflushed_records() {
        let log = RedoLog::default();
        let a = log.append(upd(1, 0, 1));
        log.append(upd(2, 0, 2));
        let c = log.append(upd(3, 0, 3));
        log.flush_to(a).unwrap();
        // Asking to truncate past the durable horizon is clamped to it.
        let removed = log.truncate_to(c);
        assert_eq!(removed, 1);
        assert_eq!(log.len(), 2);
        log.flush_all().unwrap();
        assert_eq!(log.truncate_to(c), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn pre_append_crash_point_fires_and_pins_the_log() {
        let plan = FaultPlan::none().crash_at(CrashPoint::PreAppend, 2);
        let log = RedoLog::with_faults(Duration::ZERO, FaultInjector::new(plan));
        log.crash_point(CrashPoint::PreAppend).unwrap();
        let lsn = log.append(upd(1, 0, 1));
        log.flush_to(lsn).unwrap();
        let err = log.crash_point(CrashPoint::PreAppend).unwrap_err();
        assert!(matches!(
            err,
            Error::Crashed {
                point: "pre_append"
            }
        ));
        // Everything durable before the crash is preserved, nothing after.
        assert_eq!(log.durable_records().len(), 1);
        assert!(log.crash_point(CrashPoint::PostAppendPreFlush).is_err());
    }
}
