//! Crash-fault injection for the storage layer.
//!
//! A [`FaultInjector`] is threaded into [`crate::wal::RedoLog`] and
//! [`crate::Storage`] and fires at *named crash points* according to a seeded
//! [`FaultPlan`]:
//!
//! * [`CrashPoint::PreAppend`] — the process dies before a redo record is
//!   appended (the record is lost entirely);
//! * [`CrashPoint::PostAppendPreFlush`] — the record reached the in-memory
//!   log buffer but the durability horizon is frozen before any flush covers
//!   it;
//! * [`CrashPoint::MidFlush`] — the crash lands *inside* a flush batch: the
//!   batch's bytes reach the disk only up to a cut, and the frame the cut
//!   falls in (or before) is the **torn tail** (recovery scan-stops there,
//!   see [`crate::recovery`]);
//! * [`CrashPoint::FsyncError`] — fired once per *injected fsync error*;
//!   transient errors are retried with bounded backoff, persistent ones
//!   degrade the engine to read-only instead of panicking;
//! * [`CrashPoint::Checkpoint`] — the crash lands between publishing a new
//!   checkpoint image and truncating the log behind it;
//! * [`CrashPoint::PreBinlogShip`] / [`CrashPoint::PostShipPreAck`] /
//!   [`CrashPoint::PostAck`] — the crash lands inside the commit→binlog
//!   pipeline: after the redo flush but before the batch is shipped to the
//!   replicas, between shipping and collecting the semi-sync acknowledgement,
//!   or after the ack quorum was met but before the client is answered.  The
//!   commit is already durable in redo at all three points, so recovery must
//!   preserve it even though the client never saw an `Ok`.
//!
//! A crash is modelled as "the process died": once the injector is crashed,
//! the redo log's durable horizon is frozen (the crash image), writes return
//! [`Error::Crashed`] and the only legitimate continuation is
//! `Database::restart_from_crash` in `txsql-core`.  Every `hit` is also a
//! deterministic-scheduler yield point, so `txsql-sim` seed exploration
//! interleaves crashes with commits, handovers and group-commit batches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, Result};

/// A named site where an injected crash may fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before a redo record is appended (the record is dropped).
    PreAppend,
    /// After a redo record is appended, before any flush covers it.
    PostAppendPreFlush,
    /// Inside a flush batch (produces a torn tail).
    MidFlush,
    /// At an injected fsync error (fires once per injected error).
    FsyncError,
    /// Between publishing a checkpoint image and truncating the log.
    Checkpoint,
    /// After the redo flush, before the batch is shipped to the binlog hooks.
    PreBinlogShip,
    /// After the batch was shipped to the replicas, before the ack quorum.
    PostShipPreAck,
    /// After the ack quorum was met, before the client acknowledgement.
    PostAck,
}

impl CrashPoint {
    /// All crash points, in declaration order (seeded plans cycle these).
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::PreAppend,
        CrashPoint::PostAppendPreFlush,
        CrashPoint::MidFlush,
        CrashPoint::FsyncError,
        CrashPoint::Checkpoint,
        CrashPoint::PreBinlogShip,
        CrashPoint::PostShipPreAck,
        CrashPoint::PostAck,
    ];

    /// Stable name used in [`Error::Crashed`] and logs.
    pub fn name(&self) -> &'static str {
        match self {
            CrashPoint::PreAppend => "pre_append",
            CrashPoint::PostAppendPreFlush => "post_append_pre_flush",
            CrashPoint::MidFlush => "mid_flush",
            CrashPoint::FsyncError => "fsync_error",
            CrashPoint::Checkpoint => "checkpoint",
            CrashPoint::PreBinlogShip => "pre_binlog_ship",
            CrashPoint::PostShipPreAck => "post_ship_pre_ack",
            CrashPoint::PostAck => "post_ack",
        }
    }

    fn index(&self) -> usize {
        match self {
            CrashPoint::PreAppend => 0,
            CrashPoint::PostAppendPreFlush => 1,
            CrashPoint::MidFlush => 2,
            CrashPoint::FsyncError => 3,
            CrashPoint::Checkpoint => 4,
            CrashPoint::PreBinlogShip => 5,
            CrashPoint::PostShipPreAck => 6,
            CrashPoint::PostAck => 7,
        }
    }
}

/// What a plan injects: at most one crash plus optional fsync errors.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash at the `n`-th hit of a crash point (1-based), if set.
    crash: Option<(CrashPoint, u64)>,
    /// How many bytes short of its end a [`CrashPoint::MidFlush`] crash cuts
    /// the flush batch (at least 1: the batch's last frame is torn).
    torn_cut_back: u64,
    /// Number of fsync attempts that fail transiently before succeeding.
    fsync_transient_errors: u64,
    /// After the transient budget, every fsync fails (degrades to read-only).
    fsync_fail_persistently: bool,
}

impl FaultPlan {
    /// A plan that injects nothing (equivalent to running without faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Crash at the `nth_hit`-th (1-based) hit of `point`.
    pub fn crash_at(mut self, point: CrashPoint, nth_hit: u64) -> Self {
        self.crash = Some((point, nth_hit.max(1)));
        self
    }

    /// Sets how many bytes of its flush batch a mid-flush crash loses.
    pub fn with_torn_cut_back(mut self, bytes: u64) -> Self {
        self.torn_cut_back = bytes;
        self
    }

    /// Injects `n` transient fsync errors (each retried with backoff).
    pub fn with_transient_fsync_errors(mut self, n: u64) -> Self {
        self.fsync_transient_errors = n;
        self
    }

    /// Makes every fsync after the transient budget fail persistently.
    pub fn with_persistent_fsync_failure(mut self) -> Self {
        self.fsync_fail_persistently = true;
        self
    }

    /// The planned crash site and 1-based hit count, if any — exposed so
    /// exploration harnesses can assert per-crash-point coverage.
    pub fn crash_target(&self) -> Option<(CrashPoint, u64)> {
        self.crash
    }

    /// True when the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.crash.is_some() || self.fsync_transient_errors > 0 || self.fsync_fail_persistently
    }

    /// Derives a deterministic plan from an exploration seed: the seed picks
    /// the crash point, how many hits to let pass first, the torn-tail cut
    /// (4 to 96 bytes, so that it falls inside a header, inside a payload and
    /// on a frame boundary) and whether transient fsync errors precede the
    /// crash.  Every
    /// point in [`CrashPoint::ALL`] except `FsyncError` is covered by
    /// `seed % 4`; `FsyncError` crashes are driven by the seeds that also
    /// inject fsync errors.
    pub fn seeded(seed: u64) -> Self {
        let point = match seed % 4 {
            0 => CrashPoint::PreAppend,
            1 => CrashPoint::PostAppendPreFlush,
            2 => CrashPoint::MidFlush,
            _ => CrashPoint::Checkpoint,
        };
        // Let between 1 and 12 hits pass so crashes land at different depths
        // of the workload (mid-commit, mid-handover, mid-batch).
        let nth_hit = 1 + (seed / 4) % 12;
        let mut plan = FaultPlan::none()
            .crash_at(point, nth_hit)
            .with_torn_cut_back(4 * (1 + (seed / 4) % 24));
        if seed.is_multiple_of(5) {
            // Exercise the bounded-retry path under exploration too; two
            // transient errors stay under the retry budget so the flush
            // still succeeds.
            plan = plan.with_transient_fsync_errors(2);
        }
        plan
    }

    /// Derives a deterministic plan targeting the commit→binlog pipeline
    /// crash points: `seed % 4` picks `pre_binlog_ship`, `post_ship_pre_ack`,
    /// `post_ack` or *no* primary crash (those seeds explore replica-side
    /// faults alone), and `seed / 4` picks how many hits pass first.  Used by
    /// the replication recovery oracle (`sim_replication.rs`).
    pub fn seeded_binlog(seed: u64) -> Self {
        let point = match seed % 4 {
            0 => CrashPoint::PreBinlogShip,
            1 => CrashPoint::PostShipPreAck,
            2 => CrashPoint::PostAck,
            _ => return FaultPlan::none(),
        };
        let nth_hit = 1 + (seed / 4) % 6;
        FaultPlan::none().crash_at(point, nth_hit)
    }
}

/// Outcome of one simulated fsync attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncFault {
    /// The fsync succeeds.
    Ok,
    /// The fsync fails transiently (retry after backoff).
    Transient,
    /// The fsync fails persistently (degrade to read-only).
    Persistent,
}

/// Runtime state of an injected fault plan; shared by the redo log, the
/// storage facade and the engine.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Fast path: false = no plan, every check short-circuits.
    active: bool,
    hits: [AtomicU64; CrashPoint::ALL.len()],
    fsync_attempts: AtomicU64,
    crashed: AtomicBool,
    read_only: AtomicBool,
    metrics: Option<Arc<EngineMetrics>>,
}

impl FaultInjector {
    /// An injector that never fires (the default for engines without a plan).
    pub fn disabled() -> Arc<Self> {
        Self::new(FaultPlan::none())
    }

    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Self::build(plan, None)
    }

    /// Creates an injector whose firings are counted in `metrics`
    /// (`crash_injected`, `fsync_retries`).
    pub fn with_metrics(plan: FaultPlan, metrics: Arc<EngineMetrics>) -> Arc<Self> {
        Self::build(plan, Some(metrics))
    }

    fn build(plan: FaultPlan, metrics: Option<Arc<EngineMetrics>>) -> Arc<Self> {
        let active = plan.is_active();
        Arc::new(Self {
            plan,
            active,
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            fsync_attempts: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            read_only: AtomicBool::new(false),
            metrics,
        })
    }

    /// True when the injector can fire at all.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True once an injected crash fired: the simulated process is dead and
    /// the durable redo suffix is frozen.
    pub fn crashed(&self) -> bool {
        self.active && self.crashed.load(Ordering::Acquire)
    }

    /// True once the engine degraded to read-only (persistent fsync failure).
    pub fn is_read_only(&self) -> bool {
        self.active && self.read_only.load(Ordering::Acquire)
    }

    /// Degrades the engine to read-only (writes rejected, reads fine).
    pub fn degrade_read_only(&self) {
        self.read_only.store(true, Ordering::Release);
    }

    /// Errors when the engine can no longer accept writes (crashed or
    /// read-only); the cheap guard every storage write path starts with.
    pub fn check_writable(&self) -> Result<()> {
        if !self.active {
            return Ok(());
        }
        if self.crashed.load(Ordering::Acquire) {
            return Err(Error::Crashed { point: "crashed" });
        }
        if self.read_only.load(Ordering::Acquire) {
            return Err(Error::ReadOnly {
                reason: "fsync failed persistently",
            });
        }
        Ok(())
    }

    /// Registers one hit of `point`: a deterministic-scheduler yield point,
    /// and the trigger check for the plan's crash.  Returns `true` when the
    /// crash fires at this hit (the caller freezes its durable state and
    /// surfaces [`Error::Crashed`]).
    pub fn hit(&self, point: CrashPoint) -> bool {
        if !self.active || self.crashed.load(Ordering::Acquire) {
            return false;
        }
        // Make every crash point a schedule point so seed exploration can
        // interleave the crash with commits, handovers and flush batches.
        // Fault points tag the global Fault resource: they conflict with
        // everything, so crash placement is never pruned by the POR filter.
        if let Some(handle) = txsql_sim::current() {
            handle.yield_at(txsql_sim::Resource::global(txsql_sim::ResourceKind::Fault));
        }
        let n = self.hits[point.index()].fetch_add(1, Ordering::AcqRel) + 1;
        match self.plan.crash {
            Some((p, at)) if p == point && n == at => {
                self.crashed.store(true, Ordering::Release);
                if let Some(metrics) = &self.metrics {
                    metrics.crash_injected.inc();
                }
                true
            }
            _ => false,
        }
    }

    /// Simulates one fsync attempt, consuming the plan's error budget.  The
    /// caller retries transient faults with backoff (counted via
    /// [`FaultInjector::note_fsync_retry`]) and degrades on persistent ones.
    /// An injected error also registers a [`CrashPoint::FsyncError`] hit, so
    /// a plan may crash *at* the n-th fsync error.
    pub fn fsync_attempt(&self) -> FsyncFault {
        if !self.active {
            return FsyncFault::Ok;
        }
        let n = self.fsync_attempts.fetch_add(1, Ordering::AcqRel) + 1;
        if n <= self.plan.fsync_transient_errors {
            self.hit(CrashPoint::FsyncError);
            FsyncFault::Transient
        } else if self.plan.fsync_fail_persistently {
            self.hit(CrashPoint::FsyncError);
            FsyncFault::Persistent
        } else {
            FsyncFault::Ok
        }
    }

    /// Counts one retried fsync (metrics observability).
    pub fn note_fsync_retry(&self) {
        if let Some(metrics) = &self.metrics {
            metrics.fsync_retries.inc();
        }
    }

    /// How many bytes of its flush batch a mid-flush crash loses.
    pub fn torn_cut_back(&self) -> u64 {
        self.plan.torn_cut_back.max(1)
    }

    /// Number of hits `point` has registered so far.
    pub fn hits_of(&self, point: CrashPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_active());
        for point in CrashPoint::ALL {
            assert!(!inj.hit(point));
        }
        assert!(!inj.crashed());
        assert_eq!(inj.fsync_attempt(), FsyncFault::Ok);
        assert!(inj.check_writable().is_ok());
    }

    #[test]
    fn crash_fires_at_the_configured_hit() {
        let inj = FaultInjector::new(FaultPlan::none().crash_at(CrashPoint::PreAppend, 3));
        assert!(!inj.hit(CrashPoint::PreAppend));
        assert!(!inj.hit(CrashPoint::MidFlush), "other points don't trigger");
        assert!(!inj.hit(CrashPoint::PreAppend));
        assert!(inj.hit(CrashPoint::PreAppend), "third hit fires");
        assert!(inj.crashed());
        // A dead process never fires again, and writes are rejected.
        assert!(!inj.hit(CrashPoint::PreAppend));
        assert!(matches!(inj.check_writable(), Err(Error::Crashed { .. })));
    }

    #[test]
    fn fsync_budget_transient_then_persistent() {
        let inj = FaultInjector::new(
            FaultPlan::none()
                .with_transient_fsync_errors(2)
                .with_persistent_fsync_failure(),
        );
        assert_eq!(inj.fsync_attempt(), FsyncFault::Transient);
        assert_eq!(inj.fsync_attempt(), FsyncFault::Transient);
        assert_eq!(inj.fsync_attempt(), FsyncFault::Persistent);
        assert_eq!(inj.hits_of(CrashPoint::FsyncError), 3);
        inj.degrade_read_only();
        assert!(matches!(inj.check_writable(), Err(Error::ReadOnly { .. })));
    }

    #[test]
    fn seeded_plans_cover_every_crash_point() {
        let mut points_seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            let plan = FaultPlan::seeded(seed);
            assert!(plan.is_active());
            if let Some((point, at)) = plan.crash {
                assert!(at >= 1);
                points_seen.insert(point.name());
            }
        }
        assert!(points_seen.contains("pre_append"));
        assert!(points_seen.contains("post_append_pre_flush"));
        assert!(points_seen.contains("mid_flush"));
        assert!(points_seen.contains("checkpoint"));
    }

    #[test]
    fn crash_point_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            CrashPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), CrashPoint::ALL.len());
    }
}
