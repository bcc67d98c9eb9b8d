//! The replication commit hook: fault-tolerant semi-synchronous shipping
//! with real acknowledgements, degrade-to-async, and auto re-sync.
//!
//! Registered on the primary [`txsql_core::Database`], the hook receives each
//! flushed commit batch in the two halves of [`txsql_core::CommitHook`].  The
//! ordered half appends the batch to a retained binlog buffer and takes its
//! position range; the blocking half — which the commit pipeline runs
//! concurrently with later batches — ships that range to the replicas
//! position-addressed from the batch in hand (see [`crate::ack`] for the
//! protocol).  Batches may therefore *arrive* out of order: a replica nacks
//! an early arrival, the primary refills the hole from the retained buffer,
//! and the batch that was overtaken later lands as an idempotent duplicate.
//!
//! What is left to ship is recorded once: the retained binlog beyond each
//! replica's acknowledged position.  One *catch-up pass* restarts the
//! replicas whose injected crash is over, ships every reachable replica the
//! suffix it has not acknowledged behind one network delay, and decides
//! re-sync; whoever needs the replicas to move runs one.
//!
//! * in **synchronous** (semi-sync) mode the committing batch ships, then
//!   blocks until one replica (`ACK_QUORUM`) acknowledges its binlog
//!   position or the ack timeout ([`ReplicationHookBuilder::ack_timeout`])
//!   expires — the Figure 9 "synchronization mode" setting, which lengthens
//!   lock hold times and is where group locking pays off the most.  The
//!   wait runs a catch-up pass before each park (nothing else re-requests a
//!   dropped ack or reaches a replica whose stall is over).  A timeout **degrades** the
//!   hook to asynchronous shipping (the commit still succeeds: a stalled
//!   follower tier costs bounded latency, never a wedged primary); a
//!   degraded commit runs one catch-up pass instead of waiting, and the hook
//!   **re-syncs** in the pass that finds the quorum at the binlog end.  A
//!   transient ship error is retried `SHIP_RETRIES` times, `RETRY_BACKOFF`
//!   apart, before the commit degrades the same way;
//! * in **asynchronous** mode the committing batch rings the applier's
//!   doorbell and returns.  The applier — a background thread, or under the
//!   deterministic simulator a sim thread a test schedules on
//!   [`ReplicationHook::run_applier_loop`] — runs one catch-up pass per ring.
//!   The doorbell holds one ring: a pass ships everything appended before it
//!   started, so a ring that finds one pending is already answered, not shed.
//!
//! [`ReplicationHook::wait_caught_up`] is the semi-sync ack wait with every
//! replica in the quorum.
//!
//! Fault injection ([`crate::fault`]) drives ack drops, replica stalls,
//! replica crash/restart and transient ship errors on this path, and an
//! optional [`FaultInjector`] fires the `post_ship_pre_ack` / `post_ack`
//! crash points so the recovery oracle can kill the primary between redo
//! flush and client acknowledgement.

use crate::ack::{AckTracker, SyncState};
use crate::fault::{DeliveryFault, ReplFaultPlan, ReplFaults};
use crate::replica::{DeliverOutcome, Replica};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::{simulate_delay, LatencyModel};
use txsql_common::metrics::EngineMetrics;
use txsql_common::time::SimInstant;
use txsql_common::{Error, Result};
use txsql_core::{BinlogTxn, CommitHook};
use txsql_storage::fault::{CrashPoint, FaultInjector};

/// Replication shipping mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Semi-synchronous: commits wait for the replica ack quorum (and
    /// degrade to asynchronous shipping when the wait times out).
    Synchronous,
    /// Asynchronous: commits return immediately; replicas apply in the
    /// background.
    Asynchronous,
}

/// How long an ack or catch-up wait parks before it runs a catch-up pass
/// itself: nothing else wakes it when the ack it waits for was dropped, or
/// its replica is stalled or down.
const RETRANSMIT_INTERVAL: Duration = Duration::from_micros(200);

/// How many replicas must ack a commit's binlog position before the client
/// is answered (MySQL's `rpl_semi_sync_master_wait_for_slave_count`).
const ACK_QUORUM: usize = 1;

/// How long a commit waits for the quorum, unless the builder sets another
/// [`ReplicationHookBuilder::ack_timeout`] (MySQL's `..._timeout`).
const DEFAULT_ACK_TIMEOUT: Duration = Duration::from_millis(10);

/// Retries of a ship attempt that fails transiently before the commit
/// degrades instead of wedging.
const SHIP_RETRIES: u32 = 3;

/// Backoff between ship retries.
const RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Primary-side shipping state behind one mutex: the retained binlog buffer
/// (the ack protocol's position space) and the semi-sync ↔ degraded state.
struct ShipState {
    binlog: Vec<BinlogTxn>,
    sync_state: SyncState,
}

/// Everything the shipping paths (commit threads, the async applier,
/// `wait_caught_up` callers) share.
struct Shared {
    latency: LatencyModel,
    ack_timeout: Duration,
    replicas: Vec<Arc<Replica>>,
    tracker: AckTracker,
    faults: ReplFaults,
    metrics: Option<Arc<EngineMetrics>>,
    state: Mutex<ShipState>,
    /// The async applier's doorbell, one ring deep.  Going through the
    /// instrumented crossbeam shim makes ringing and waiting tagged yield
    /// points, so the simulator interleaves them with the committers.
    doorbell: (Sender<()>, Receiver<()>),
    /// Asks the async applier to exit after its next pass.
    stop: AtomicBool,
}

impl Shared {
    /// Appends a batch to the retained binlog, returning its position range.
    fn append(&self, batch: &[BinlogTxn]) -> (u64, u64) {
        let mut state = self.state.lock();
        let start = state.binlog.len() as u64;
        state.binlog.extend_from_slice(batch);
        (start, state.binlog.len() as u64)
    }

    /// Clones the binlog entries in `[start, end)`.
    fn slice(&self, start: u64, end: u64) -> Vec<BinlogTxn> {
        let state = self.state.lock();
        state.binlog[start as usize..end as usize].to_vec()
    }

    /// Retained binlog length — the end of the ack position space.
    fn binlog_len(&self) -> u64 {
        self.state.lock().binlog.len() as u64
    }

    fn sync_state(&self) -> SyncState {
        self.state.lock().sync_state
    }

    fn metric(&self, f: impl FnOnce(&EngineMetrics)) {
        if let Some(metrics) = &self.metrics {
            f(metrics);
        }
    }

    /// Samples the `replica_lag` gauge from the slowest replica's ack.
    fn update_lag(&self) {
        let lag = self.binlog_len().saturating_sub(self.tracker.min_acked());
        self.metric(|m| m.replica_lag.set(lag));
    }

    /// One delivery to one replica, with the fault injector consulted first.
    /// Applies the outcome to the ack tracker; a nack triggers one immediate
    /// catch-up re-ship from the position the replica expected.
    fn deliver_to(&self, idx: usize, start: u64, events: &[BinlogTxn], now: SimInstant) {
        let replica = &self.replicas[idx];
        match self.faults.on_delivery(idx, now) {
            DeliveryFault::Crash(_) => {
                // The restart deadline was recorded by the injector; a
                // catch-up pass revives the replica when it passes.
                replica.crash();
                return;
            }
            DeliveryFault::Stall(duration) => {
                replica.stall_for(duration, now);
                return;
            }
            DeliveryFault::DropAck => {
                // The replica applies the delivery but its ack is lost; a
                // catch-up pass's idempotent re-delivery recovers it later.
                let _ = replica.deliver(start, events, now);
                return;
            }
            DeliveryFault::None => {}
        }
        match replica.deliver(start, events, now) {
            DeliverOutcome::Ack(pos) => self.tracker.record(idx, pos),
            DeliverOutcome::Nack { expected } => {
                // Gap: re-ship the hole from the retained buffer (one level —
                // a full-prefix re-ship cannot nack again).
                let end = start + events.len() as u64;
                let fill = self.slice(expected, end);
                if let DeliverOutcome::Ack(pos) = replica.deliver(expected, &fill, now) {
                    self.tracker.record(idx, pos);
                }
            }
            DeliverOutcome::Offline | DeliverOutcome::Stalled => {}
        }
    }

    /// Ships `events`, the binlog entries from `start` on, to every replica
    /// (one one-way network delay per batch, amortised by group commit).
    fn deliver_range(&self, start: u64, events: &[BinlogTxn]) {
        simulate_delay(self.latency.network_one_way);
        let now = SimInstant::now();
        for idx in 0..self.replicas.len() {
            self.deliver_to(idx, start, events, now);
        }
        self.update_lag();
    }

    /// One catch-up pass: restarts the replicas whose injected crash
    /// deadline passed, ships every reachable replica that has not
    /// acknowledged the end of the retained binlog its suffix from its own
    /// relay position — behind one network delay for the pass — and decides
    /// re-sync.  Batches not shipped yet, expired stalls, dropped acks and
    /// restarts are all the same gap; an empty suffix is a pure ack
    /// retransmission request.
    fn pump(&self) {
        let now = SimInstant::now();
        for idx in self.faults.due_restarts(now) {
            self.replicas[idx].restart();
        }
        let end = self.binlog_len();
        let behind: Vec<usize> = (0..self.replicas.len())
            .filter(|&idx| {
                let replica = &self.replicas[idx];
                self.tracker.acked_pos(idx) < end && replica.is_online() && !replica.is_stalled(now)
            })
            .collect();
        if !behind.is_empty() {
            simulate_delay(self.latency.network_one_way);
            let now = SimInstant::now();
            for idx in behind {
                let start = self.replicas[idx].log_pos().min(end);
                self.deliver_to(idx, start, &self.slice(start, end), now);
            }
        }
        self.update_lag();
        self.try_resync();
    }

    /// Parks until `replicas` replicas have acknowledged binlog position
    /// `pos`, running a catch-up pass before every park; false when
    /// `timeout` passes first.  Every recorded ack — any delivery's, ours or
    /// a concurrent batch's — wakes the park.  Deterministic under
    /// simulation: the deadline is a [`SimInstant`] and the park is on the
    /// sim's virtual clock.
    fn wait_acked(&self, pos: u64, replicas: usize, timeout: Duration) -> bool {
        let deadline = SimInstant::now() + timeout;
        loop {
            let seen = self.tracker.advances();
            if self.tracker.count_at_least(pos) >= replicas {
                return true;
            }
            let remaining = deadline.saturating_duration_since(SimInstant::now());
            if remaining.is_zero() {
                return false;
            }
            self.pump();
            self.tracker
                .wait_advance(seen, RETRANSMIT_INTERVAL.min(remaining));
        }
    }

    /// A commit acknowledged without a replica ack behind it (the hook is
    /// degraded): counted, and the replicas get one catch-up pass instead.
    fn degraded_commit(&self) {
        self.metric(|m| m.degraded_commits.inc());
        self.pump();
    }

    /// Degraded → semi-sync: re-enter ack waiting once the quorum has
    /// acknowledged the binlog end.
    fn try_resync(&self) {
        let target = {
            let state = self.state.lock();
            if state.sync_state != SyncState::Degraded {
                return;
            }
            state.binlog.len() as u64
        };
        if self.tracker.count_at_least(target) >= ACK_QUORUM.min(self.replicas.len()) {
            let mut state = self.state.lock();
            if state.sync_state == SyncState::Degraded {
                state.sync_state = SyncState::SemiSync;
                drop(state);
                self.metric(|m| m.semi_sync_resyncs.inc());
            }
        }
    }

    /// Semi-sync → degraded (ack timeout or exhausted ship retries); the
    /// commit that gave up goes through as a degraded one.
    fn degrade(&self) {
        let flipped = {
            let mut state = self.state.lock();
            let flipped = state.sync_state == SyncState::SemiSync;
            state.sync_state = SyncState::Degraded;
            flipped
        };
        if flipped {
            self.metric(|m| m.semi_sync_timeouts.inc());
        }
        self.degraded_commit();
    }

    /// Tells the async applier the binlog grew.  A full doorbell holds a
    /// ring the applier has not taken yet, and the pass that ring starts
    /// reads the binlog after this append.
    fn ring(&self) {
        let _ = self.doorbell.0.try_send(());
    }

    /// The async applier: one catch-up pass per ring, until the pass that
    /// started after [`ReplicationHook::shutdown`] raised the stop flag.
    fn run_applier(&self) {
        while self.doorbell.1.recv().is_ok() {
            let last = self.stop.load(Ordering::Acquire);
            self.pump();
            if last {
                return;
            }
        }
    }
}

/// The replication hook.
pub struct ReplicationHook {
    mode: ReplicationMode,
    shared: Arc<Shared>,
    /// Storage fault injector for the `post_ship_pre_ack` / `post_ack`
    /// crash points (the primary's own crash window inside the hook).
    injector: Option<Arc<FaultInjector>>,
    /// The async applier thread.  It holds the shared state, not the hook,
    /// so dropping the last handle on the hook stops and joins it.
    applier: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ReplicationHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationHook")
            .field("mode", &self.mode)
            .field("replicas", &self.shared.replicas.len())
            .field("sync_state", &self.shared.sync_state())
            .finish()
    }
}

/// Configures a [`ReplicationHook`] beyond the [`ReplicationHook::new`]
/// defaults: the ack timeout, an injected replication fault plan, the
/// primary's crash injector, and the metrics registry the counters land in.
pub struct ReplicationHookBuilder {
    mode: ReplicationMode,
    latency: LatencyModel,
    n_replicas: usize,
    ack_timeout: Duration,
    faults: ReplFaultPlan,
    injector: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<EngineMetrics>>,
}

impl ReplicationHookBuilder {
    /// Sets how long a semi-sync commit waits for its ack before the hook
    /// degrades to asynchronous shipping (10 ms by default).
    pub fn ack_timeout(mut self, timeout: Duration) -> Self {
        self.ack_timeout = timeout;
        self
    }

    /// Installs a replication fault plan.
    pub fn faults(mut self, plan: ReplFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Wires the primary's crash injector so the `post_ship_pre_ack` and
    /// `post_ack` crash points fire inside the hook (usually
    /// [`txsql_core::Database::faults`]).
    pub fn crash_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Routes the hook's counters into `metrics` (usually
    /// [`txsql_core::Database::metrics_handle`]).
    pub fn metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Builds the hook, spawning the applier thread when the mode is
    /// asynchronous.  A background OS thread is invisible to the
    /// deterministic scheduler (it would race the sim's logical threads on
    /// real time), so a hook built inside a simulation spawns none: a sim
    /// test schedules [`ReplicationHook::run_applier_loop`] as an explicit
    /// sim thread instead, and the explorer interleaves it like any other.
    pub fn build(self) -> Arc<ReplicationHook> {
        let replicas: Vec<Arc<Replica>> = (0..self.n_replicas)
            .map(|i| Arc::new(Replica::new(format!("replica-{i}"))))
            .collect();
        let shared = Arc::new(Shared {
            latency: self.latency,
            ack_timeout: self.ack_timeout,
            tracker: AckTracker::new(self.n_replicas),
            faults: ReplFaults::new(self.faults, self.n_replicas),
            metrics: self.metrics,
            replicas,
            state: Mutex::new(ShipState {
                binlog: Vec::new(),
                sync_state: SyncState::SemiSync,
            }),
            doorbell: crossbeam::channel::bounded(1),
            stop: AtomicBool::new(false),
        });
        let spawn = self.mode == ReplicationMode::Asynchronous && txsql_sim::current().is_none();
        let applier = spawn.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("txsql-async-applier".into())
                .spawn(move || shared.run_applier())
                .expect("spawn async applier")
        });
        Arc::new(ReplicationHook {
            mode: self.mode,
            shared,
            injector: self.injector,
            applier: Mutex::new(applier),
        })
    }
}

impl ReplicationHook {
    /// Creates a hook shipping to `n_replicas` replicas with the default ack
    /// timeout and no injected faults.
    pub fn new(mode: ReplicationMode, latency: LatencyModel, n_replicas: usize) -> Arc<Self> {
        Self::builder(mode, latency, n_replicas).build()
    }

    /// Starts configuring a hook (see [`ReplicationHookBuilder`]).
    pub fn builder(
        mode: ReplicationMode,
        latency: LatencyModel,
        n_replicas: usize,
    ) -> ReplicationHookBuilder {
        ReplicationHookBuilder {
            mode,
            latency,
            n_replicas,
            ack_timeout: DEFAULT_ACK_TIMEOUT,
            faults: ReplFaultPlan::none(),
            injector: None,
            metrics: None,
        }
    }

    /// The replicas this hook ships to.
    pub fn replicas(&self) -> &[Arc<Replica>] {
        &self.shared.replicas
    }

    /// The shipping mode.
    pub fn mode(&self) -> ReplicationMode {
        self.mode
    }

    /// Whether commits currently wait for acks or ship degraded.
    pub fn sync_state(&self) -> SyncState {
        self.shared.sync_state()
    }

    /// The replication fault injector (coverage meta-assertions).
    pub fn faults(&self) -> &ReplFaults {
        &self.shared.faults
    }

    /// The binlog position `replica` has acknowledged.
    pub fn acked_pos(&self, replica: usize) -> u64 {
        self.shared.tracker.acked_pos(replica)
    }

    /// Retained binlog length (the end of the ack position space).
    pub fn binlog_len(&self) -> u64 {
        self.shared.binlog_len()
    }

    /// Current replica lag in binlog entries (slowest replica).
    pub fn replica_lag(&self) -> u64 {
        self.shared
            .binlog_len()
            .saturating_sub(self.shared.tracker.min_acked())
    }

    /// Fires a hook-side crash point against the primary's injector.
    fn crash_point(&self, point: CrashPoint) -> Result<()> {
        if let Some(injector) = &self.injector {
            if injector.hit(point) {
                return Err(Error::Crashed {
                    point: point.name(),
                });
            }
            if injector.crashed() {
                return Err(Error::Crashed { point: "crashed" });
            }
        }
        Ok(())
    }

    /// The semi-sync path for one batch at `range`.  Returns `Ok` when
    /// the commit may be acknowledged (quorum met, or the hook degraded —
    /// MySQL semantics: a semi-sync timeout never fails the commit); `Err`
    /// only on an injected primary crash.
    fn ship_semi_sync(&self, range: Range<u64>, batch: &[BinlogTxn]) -> Result<()> {
        let shared = &*self.shared;
        // Bounded retry/backoff on transient ship errors; exhausting the
        // budget degrades instead of wedging the committing thread.
        let mut retries = 0u32;
        while !shared.faults.ship_attempt_ok() {
            retries += 1;
            shared.metric(|m| m.ship_retries.inc());
            if retries > SHIP_RETRIES {
                shared.degrade();
                return Ok(());
            }
            simulate_delay(RETRY_BACKOFF);
        }

        shared.deliver_range(range.start, batch);
        self.crash_point(CrashPoint::PostShipPreAck)?;

        let quorum = ACK_QUORUM.min(shared.replicas.len());
        if !shared.wait_acked(range.end, quorum, shared.ack_timeout) {
            // rpl_semi_sync-style timeout: degrade and let the commit
            // through unacked by the replicas.
            shared.degrade();
            return Ok(());
        }

        self.crash_point(CrashPoint::PostAck)?;
        // The ack's network leg back to the primary.
        simulate_delay(shared.latency.network_one_way);
        Ok(())
    }

    /// The async applier loop: one catch-up pass per ring of the doorbell,
    /// until a pass that started after [`ReplicationHook::shutdown`].
    ///
    /// Natively this is the body of the applier thread `build` spawns.
    /// Under the deterministic simulator (where `build` spawns nothing) a
    /// test schedules it as an ordinary sim thread, so ring / pass /
    /// shutdown interleavings are explored rather than hidden behind an OS
    /// thread the scheduler cannot see.
    pub fn run_applier_loop(&self) {
        self.shared.run_applier();
    }

    /// Blocks until every replica has acknowledged binlog position
    /// `expected` (with one transaction per binlog entry, applied that many
    /// transactions) or the timeout expires, then decides re-sync: true
    /// means caught up.  The semi-sync ack wait with all replicas in the
    /// quorum.
    pub fn wait_caught_up(&self, expected: u64, timeout: Duration) -> bool {
        let replicas = self.shared.replicas.len();
        let caught_up = self.shared.wait_acked(expected, replicas, timeout);
        self.shared.try_resync();
        caught_up
    }

    /// Stops the async applier after one last catch-up pass and joins it.
    /// Idempotent; `Drop` calls it too.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.ring();
        if let Some(handle) = self.applier.lock().take() {
            let _ = handle.join();
        }
    }
}

impl CommitHook for ReplicationHook {
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
        let range = self.ship_ordered(batch)?;
        self.await_ack(range, batch)
    }

    /// Appends the batch to the retained binlog: the one step whose order
    /// matters (positions are the ack protocol's address space), and the one
    /// copy of the batch the hook makes.
    fn ship_ordered(&self, batch: &[BinlogTxn]) -> Result<Range<u64>> {
        let (start, end) = self.shared.append(batch);
        Ok(start..end)
    }

    /// Delivery, ack wait and return leg.  Concurrent calls may reach a
    /// replica in any order; see the module docs.
    fn await_ack(&self, range: Range<u64>, batch: &[BinlogTxn]) -> Result<()> {
        match self.mode {
            ReplicationMode::Asynchronous => self.shared.ring(),
            ReplicationMode::Synchronous if self.shared.sync_state() == SyncState::Degraded => {
                self.shared.degraded_commit()
            }
            ReplicationMode::Synchronous => return self.ship_semi_sync(range, batch),
        }
        Ok(())
    }
}

impl Drop for ReplicationHook {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_common::{Row, TableId, TxnId};

    fn event(trx_no: u64, value: i64) -> BinlogTxn {
        BinlogTxn {
            txn: TxnId(trx_no),
            trx_no,
            changes: vec![(TableId(1), 1, Row::from_ints(&[1, value]))],
            involves_hotspot: false,
        }
    }

    #[test]
    fn synchronous_mode_applies_before_returning() {
        let hook = ReplicationHook::new(ReplicationMode::Synchronous, LatencyModel::in_memory(), 2);
        hook.on_commit_batch(&[event(1, 10), event(2, 20)]).unwrap();
        for replica in hook.replicas() {
            assert_eq!(replica.applied_txns(), 2);
            assert_eq!(replica.row(TableId(1), 1).unwrap().get_int(1), Some(20));
        }
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(hook.binlog_len(), 2);
        assert_eq!(hook.acked_pos(0), 2);
        assert_eq!(hook.replica_lag(), 0);
    }

    #[test]
    fn asynchronous_mode_catches_up_in_background() {
        let hook =
            ReplicationHook::new(ReplicationMode::Asynchronous, LatencyModel::in_memory(), 1);
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        hook.on_commit_batch(&[event(2, 20)]).unwrap();
        assert!(hook.wait_caught_up(2, Duration::from_secs(2)));
        assert_eq!(
            hook.replicas()[0].row(TableId(1), 1).unwrap().get_int(1),
            Some(20)
        );
        hook.shutdown();
    }

    #[test]
    fn wait_caught_up_times_out_when_nothing_ships() {
        let hook =
            ReplicationHook::new(ReplicationMode::Asynchronous, LatencyModel::in_memory(), 1);
        assert!(!hook.wait_caught_up(5, Duration::from_millis(20)));
        hook.shutdown();
    }

    #[test]
    fn ack_drop_is_recovered_by_retransmission() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(ReplFaultPlan::none().with_ack_drop(0, 1))
                .ack_timeout(Duration::from_millis(100))
                .metrics(Arc::clone(&metrics))
                .build();
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        // The first delivery applied but its ack was dropped; the ack-wait
        // pump re-requested it, so the commit still went through semi-sync.
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(metrics.semi_sync_timeouts.get(), 0);
        assert_eq!(hook.acked_pos(0), 1);
        // ...and the replica applied the transaction exactly once.
        assert_eq!(hook.replicas()[0].applied_txns(), 1);
        assert_eq!(
            hook.faults().hits_of(crate::fault::ReplFaultPoint::AckDrop),
            1
        );
    }

    #[test]
    fn stall_shorter_than_the_timeout_does_not_degrade() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(2)))
                .ack_timeout(Duration::from_millis(200))
                .metrics(Arc::clone(&metrics))
                .build();
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        // The stall expired inside the ack window: no timeout, no degrade.
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(metrics.semi_sync_timeouts.get(), 0);
        assert_eq!(metrics.degraded_commits.get(), 0);
        assert_eq!(hook.replicas()[0].applied_txns(), 1);
    }

    #[test]
    fn stall_past_the_timeout_degrades_then_resyncs() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(10)))
                .ack_timeout(Duration::from_millis(2))
                .metrics(Arc::clone(&metrics))
                .build();

        // Commit 1: the replica stalls past the ack timeout → degrade.
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        assert_eq!(hook.sync_state(), SyncState::Degraded);
        assert_eq!(metrics.semi_sync_timeouts.get(), 1);
        assert_eq!(metrics.degraded_commits.get(), 1);

        // Commit 2 while degraded: ships async, still counted as degraded.
        hook.on_commit_batch(&[event(2, 20)]).unwrap();
        assert_eq!(metrics.degraded_commits.get(), 2);

        // Once the stall expires the replica catches up from the retained
        // binlog and the hook re-syncs.
        assert!(hook.wait_caught_up(2, Duration::from_secs(2)));
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(metrics.semi_sync_resyncs.get(), 1);
        assert_eq!(hook.acked_pos(0), 2);
        assert_eq!(
            hook.replicas()[0].row(TableId(1), 1).unwrap().get_int(1),
            Some(20)
        );

        // Commit 3 goes back through the semi-sync ack path.
        hook.on_commit_batch(&[event(3, 30)]).unwrap();
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(metrics.degraded_commits.get(), 2, "no new degraded commit");
        assert_eq!(hook.acked_pos(0), 3);
    }

    #[test]
    fn replica_crash_degrades_and_restart_resyncs() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(ReplFaultPlan::none().with_crash(0, 1, Some(Duration::from_millis(5))))
                .ack_timeout(Duration::from_millis(2))
                .metrics(Arc::clone(&metrics))
                .build();
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        assert_eq!(hook.sync_state(), SyncState::Degraded);
        assert!(!hook.replicas()[0].is_online());
        // After the restart deadline the pump revives the replica and it
        // recovers the whole binlog from its durable relay position.
        assert!(hook.wait_caught_up(1, Duration::from_secs(2)));
        assert!(hook.replicas()[0].is_online());
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(metrics.semi_sync_resyncs.get(), 1);
    }

    #[test]
    fn transient_ship_errors_retry_with_backoff() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(ReplFaultPlan::none().with_ship_errors(2))
                .metrics(Arc::clone(&metrics))
                .build();
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        assert_eq!(metrics.ship_retries.get(), 2);
        assert_eq!(hook.sync_state(), SyncState::SemiSync, "retries absorbed");
        assert_eq!(hook.acked_pos(0), 1);
    }

    #[test]
    fn exhausted_ship_retries_degrade_instead_of_wedging() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(ReplFaultPlan::none().with_ship_errors(10))
                .metrics(Arc::clone(&metrics))
                .build();
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        assert_eq!(metrics.semi_sync_timeouts.get(), 1, "degraded");
        assert_eq!(metrics.degraded_commits.get(), 1);
        assert!(metrics.ship_retries.get() > u64::from(SHIP_RETRIES));
        // The degraded commit's catch-up pass reached the replica, and the
        // same pass re-synced.
        assert_eq!(hook.acked_pos(0), 1);
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
        assert_eq!(metrics.semi_sync_resyncs.get(), 1);
    }

    #[test]
    fn catching_up_after_a_dropped_ack_ends_resynced() {
        // The stall outlives the ack timeout; the delivery after it applies
        // but loses its ack.  Catch-up is the acknowledged position, so the
        // wait re-requests the ack and re-syncs before it returns.
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .faults(
                    ReplFaultPlan::none()
                        .with_stall(None, 1, Duration::from_millis(10))
                        .with_ack_drop(0, 2),
                )
                .ack_timeout(Duration::from_millis(2))
                .build();
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        assert_eq!(hook.sync_state(), SyncState::Degraded);
        assert!(hook.wait_caught_up(1, Duration::from_secs(2)));
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
    }

    #[test]
    fn dropping_an_async_hook_stops_its_applier_after_one_last_pass() {
        let hook =
            ReplicationHook::new(ReplicationMode::Asynchronous, LatencyModel::in_memory(), 1);
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        let (shared, replica) = (
            Arc::downgrade(&hook.shared),
            Arc::clone(&hook.replicas()[0]),
        );
        drop(hook);
        assert!(
            shared.upgrade().is_none(),
            "the applier thread still holds the hook's state"
        );
        assert_eq!(replica.applied_txns(), 1);
    }

    #[test]
    fn shutdown_and_drop_teardown_once() {
        let hook =
            ReplicationHook::new(ReplicationMode::Asynchronous, LatencyModel::in_memory(), 1);
        hook.on_commit_batch(&[event(1, 10)]).unwrap();
        hook.shutdown();
        hook.shutdown(); // Idempotent.
        assert_eq!(
            hook.replicas()[0].applied_txns(),
            1,
            "the last pass shipped"
        );
        // Drop after shutdown is the second teardown call — a no-op.
    }

    // ------------------------------------------------------------------
    // Overlapping batches: the commit pipeline runs blocking halves
    // concurrently, so deliveries reach a replica in any order.
    // ------------------------------------------------------------------

    fn semi_sync_hook(metrics: &Arc<EngineMetrics>) -> Arc<ReplicationHook> {
        ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 2)
            .metrics(Arc::clone(metrics))
            .build()
    }

    fn assert_converged_exactly_once(hook: &ReplicationHook, txns: u64) {
        assert_eq!(hook.binlog_len(), txns, "binlog positions are gap-free");
        for (idx, replica) in hook.replicas().iter().enumerate() {
            assert_eq!(replica.applied_txns(), txns, "{} applied", replica.name());
            assert_eq!(replica.log_pos(), txns);
            assert_eq!(hook.acked_pos(idx), txns);
        }
        assert_eq!(hook.sync_state(), SyncState::SemiSync);
    }

    #[test]
    fn overtaken_batch_is_refilled_from_the_retained_binlog_and_applied_once() {
        let metrics = Arc::new(EngineMetrics::new());
        let hook = semi_sync_hook(&metrics);
        let (early, late) = ([event(1, 10), event(2, 20)], [event(3, 30)]);
        let early_range = hook.ship_ordered(&early).unwrap();
        let late_range = hook.ship_ordered(&late).unwrap();
        assert_eq!((early_range.clone(), late_range.clone()), (0..2, 2..3));

        // The later batch arrives first: the replica nacks with the position
        // it expected, the primary refills `[0, 3)` from the retained
        // binlog, and the cumulative ack covers both batches.
        hook.await_ack(late_range.clone(), &late).unwrap();
        assert_converged_exactly_once(&hook, 3);
        // The overtaken batch then lands as a duplicate and is acknowledged
        // by the cumulative position already recorded.
        hook.await_ack(early_range, &early).unwrap();
        assert_converged_exactly_once(&hook, 3);
        for replica in hook.replicas() {
            assert_eq!(replica.row(TableId(1), 1).unwrap().get_int(1), Some(30));
        }
        assert_eq!(metrics.degraded_commits.get(), 0);
        assert_eq!(metrics.semi_sync_timeouts.get(), 0);
    }

    #[test]
    fn shuffled_arrivals_converge_exactly_once_for_every_seed() {
        const BATCHES: u64 = 12;
        for seed in 1..=32u64 {
            let metrics = Arc::new(EngineMetrics::new());
            let hook = semi_sync_hook(&metrics);
            // Ordered halves in flush order, as the pipeline calls them.
            let mut shipped = Vec::new();
            let mut next = 0;
            for batch in 0..BATCHES {
                let events: Vec<BinlogTxn> = (0..1 + (batch + seed) % 3)
                    .map(|_| {
                        next += 1;
                        event(next, next as i64)
                    })
                    .collect();
                let range = hook.ship_ordered(&events).unwrap();
                assert_eq!(range.end, next, "positions follow flush order");
                assert_eq!(range.end - range.start, events.len() as u64);
                shipped.push((range, events));
            }
            // Blocking halves in a seeded shuffle.
            txsql_common::rng::XorShiftRng::new(seed).shuffle(&mut shipped);
            for (range, events) in &shipped {
                hook.await_ack(range.clone(), events).unwrap();
                assert!(hook.acked_pos(0) >= range.end && hook.acked_pos(1) >= range.end);
            }
            assert_converged_exactly_once(&hook, next);
            assert_eq!(metrics.degraded_commits.get(), 0, "seed {seed}");
        }
    }

    #[test]
    fn concurrent_semi_sync_batches_apply_exactly_once() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 100;
        let metrics = Arc::new(EngineMetrics::new());
        let hook = semi_sync_hook(&metrics);
        let next = std::sync::atomic::AtomicU64::new(0);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        let trx_no = next.fetch_add(1, Ordering::Relaxed) + 1;
                        hook.on_commit_batch(&[event(trx_no, trx_no as i64)])
                            .unwrap();
                    }
                });
            }
        });
        assert_converged_exactly_once(&hook, THREADS * ROUNDS);
        assert_eq!(metrics.degraded_commits.get(), 0);
        assert_eq!(metrics.semi_sync_timeouts.get(), 0);
    }
}
