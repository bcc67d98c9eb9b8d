//! The one record-lock table driver.
//!
//! The paper's O1 (§3.1.1) changes *how a record's lock is found and what a
//! grant allocates*; it does not change what acquiring, waiting for or
//! releasing a record lock means.  [`RecordLockTable`] is therefore the only
//! implementation of acquire → deadlock check → enqueue → wait and of
//! release → grant → wake, on top of the per-record [`RecordQueue`] core.
//! Every shard holds one map from packed record id to queue, whatever the
//! layout.  The table is parameterised by a [`Layout`] that owns exactly
//! what the paper measures:
//!
//! * [`crate::lock_sys::PageLayout`] — the MySQL arm: shards hashed by
//!   *page*, so all rows of a page share one shard mutex, and one counted
//!   lock object per acquisition;
//! * [`crate::lightweight::FlatLayout`] — O1: shards hashed by record over
//!   16× more shards, and lock objects counted only for requests that wait.
//!
//! The layouts are monomorphised in ([`crate::LockSys`] and
//! [`crate::LightweightLockTable`] are aliases of the two instantiations), so
//! the seam costs no dispatch on the hot path.
//!
//! Every record lock is exclusive ([`crate::modes`]).  Waiting requests park
//! on a pooled [`OsEvent`] outside every shard mutex; the releasing
//! transaction hands the record to the front of its FIFO and fires the
//! event after dropping the guard.  Under [`DeadlockPolicy::Detect`] a
//! wait-for-graph check runs before every wait, and a request whose wait
//! would close a cycle fails with `Deadlock` before it queues; every other
//! wait ends in a grant or the lock-wait timeout.

use crate::deadlock::WaitForGraph;
use crate::event::{OsEvent, WaitOutcome};
use crate::modes::LockMode;
use crate::record_queue::{deadlock_check_on_wait, AcquireOutcome, RecordQueue};
use crate::registry::TxnLockRegistry;
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::pad::CachePadded;
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, TxnId};

/// How a lock table deals with deadlocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Run wait-for-graph detection on every wait (InnoDB default).
    Detect,
    /// Rely on lock-wait timeouts only (no detection).
    TimeoutOnly,
}

/// Configuration of a [`RecordLockTable`], whatever its layout.
#[derive(Debug, Clone)]
pub struct LockTableConfig {
    /// Deadlock handling policy.
    pub deadlock_policy: DeadlockPolicy,
    /// Lock wait timeout.
    pub lock_wait_timeout: Duration,
}

impl Default for LockTableConfig {
    fn default() -> Self {
        Self {
            deadlock_policy: DeadlockPolicy::Detect,
            lock_wait_timeout: Duration::from_millis(200),
        }
    }
}

/// What distinguishes one lock-table arm of the Figure-6 ablation from the
/// other: how records are hashed onto shards, how many shards there are, and
/// the `locks_created` accounting.  Everything else is [`RecordLockTable`].
pub trait Layout: Send + Sync {
    /// Figure-6d accounting: when true, every uncontended grant counts one
    /// created lock object (the baseline keeps a `lock_t` entry per
    /// acquisition); otherwise only requests that wait create — and count —
    /// one.  The one in-queue difference between the layouts.
    const COUNT_UNCONTENDED_GRANTS: bool;
    /// Number of shard mutexes.
    const SHARDS: usize;

    /// The value hashed to pick `record`'s shard.
    fn shard_key(record: RecordId) -> u64;
}

/// One shard's queues, keyed by [`RecordId::packed`].  A queue is pruned as
/// soon as it empties, so a shard holds only records that are locked or
/// waited on.
type Shard = FxHashMap<u64, RecordQueue>;

/// Runs `f` on `record`'s queue if it still exists and prunes the queue when
/// `f` leaves it empty.  `None` means the queue was already pruned: missing
/// state is never resurrected by the release or wait paths.
#[inline]
fn visit_queue<R>(
    shard: &mut Shard,
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

/// A sharded record-lock table: the shared acquire/wait/release driver over
/// the queue placement of `L`.
#[derive(Debug)]
pub struct RecordLockTable<L: Layout> {
    config: LockTableConfig,
    layout: PhantomData<L>,
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    graph: WaitForGraph,
    /// Sharded per-transaction bookkeeping — needed for release-all.
    pub(crate) registry: Arc<TxnLockRegistry>,
    pub(crate) metrics: Arc<EngineMetrics>,
}

impl<L: Layout> RecordLockTable<L> {
    /// Creates a lock table with its own lock registry.
    pub fn new(config: LockTableConfig, metrics: Arc<EngineMetrics>) -> Self {
        let registry = Arc::new(TxnLockRegistry::new((L::SHARDS / 4).max(64)));
        Self {
            config,
            layout: PhantomData,
            shards: (0..L::SHARDS)
                .map(|_| CachePadded::new(Mutex::new(Shard::default())))
                .collect(),
            graph: WaitForGraph::new(),
            registry,
            metrics,
        }
    }

    /// The per-transaction lock registry backing release-all.
    pub fn registry(&self) -> &Arc<TxnLockRegistry> {
        &self.registry
    }

    #[inline]
    fn shard_index(&self, record: RecordId) -> usize {
        (fxhash::hash_u64(L::shard_key(record)) % L::SHARDS as u64) as usize
    }

    #[inline]
    fn detects(&self) -> bool {
        self.config.deadlock_policy == DeadlockPolicy::Detect
    }

    /// A scratch that drains into the table's own metrics when it drops:
    /// what the entry points without a `_in` count through.
    fn own_scratch(&self) -> MetricsScratch {
        MetricsScratch::attached(Arc::clone(&self.metrics))
    }

    /// [`RecordLockTable::lock_record_in`] counting into the table's metrics.
    pub fn lock_record(&self, txn: TxnId, record: RecordId, mode: LockMode) -> Result<()> {
        self.lock_record_in(txn, record, mode, &self.own_scratch())
    }

    /// Acquires a record lock in `mode` — there is only
    /// [`LockMode::Exclusive`] — blocking until granted, deadlock or timeout.
    /// `scratch` receives the per-cycle counters (`locks_created`, and a
    /// give-up's release counts) — the engine passes the transaction's, so
    /// the uncontended fast path performs no atomic RMW.
    pub fn lock_record_in(
        &self,
        txn: TxnId,
        record: RecordId,
        mode: LockMode,
        scratch: &MetricsScratch,
    ) -> Result<()> {
        let LockMode::Exclusive = mode;
        self.lock_record_reporting(txn, record, scratch, |_| ())
    }

    /// [`Self::lock_record_in`] that tells `on_queue` the length of the queue
    /// the request joins — the waiters ahead of it plus one for the holder,
    /// the paper's hotspot-detection signal (§4.1) — when it has to wait,
    /// before it does.  The length is read in the lock attempt's own
    /// critical section: an uncontended acquisition pays nothing for it, and
    /// `on_queue` runs after the shard guard is dropped.
    pub fn lock_record_reporting(
        &self,
        txn: TxnId,
        record: RecordId,
        scratch: &MetricsScratch,
        on_queue: impl FnOnce(usize),
    ) -> Result<()> {
        let event;
        let queue_len;
        {
            let mut shard = self.shards[self.shard_index(record)].lock();
            let _scope = GuardScope::enter();
            let queue = shard.entry(record.packed()).or_default();
            match queue.try_acquire(txn, L::COUNT_UNCONTENDED_GRANTS, scratch) {
                AcquireOutcome::AlreadyHeld => return Ok(()),
                AcquireOutcome::Granted => {
                    // Uncontended grant: no OsEvent, no global bookkeeping —
                    // just the holder entry and the transaction's registry
                    // shard (updated after the shard guard drops).
                    drop(_scope);
                    drop(shard);
                    self.registry.remember_record(txn, record);
                    return Ok(());
                }
                AcquireOutcome::MustWait => {
                    queue_len = queue.waiter_count() + 1;
                    // A requester that closes a cycle returns before any lock
                    // object or wait is recorded, so the Figure-6d counters
                    // stay truthful.
                    if self.detects() {
                        deadlock_check_on_wait(queue, &self.graph, &self.metrics, txn)?;
                    }
                    event = queue.enqueue_waiter(txn, &self.metrics);
                }
            }
        }
        on_queue(queue_len);
        self.registry.remember_record(txn, record);
        self.wait_until_granted(txn, record, event, scratch)
    }

    /// Locks `record`'s shard and runs `f` on its still-existing queue,
    /// pruning the queue if `f` empties it.  The guard is dropped before
    /// returning, so events collected inside `f` are fired outside the lock.
    fn with_queue<R>(&self, record: RecordId, f: impl FnOnce(&mut RecordQueue) -> R) -> Option<R> {
        let mut shard = self.shards[self.shard_index(record)].lock();
        let _scope = GuardScope::enter();
        visit_queue(&mut shard, record, f)
    }

    /// The wait loop a queued request parks in: wait outside the shard mutex
    /// (a hand-off wait — the holder releases before its flush), re-check the
    /// grant under the shard guard on every wake-up, and — on timeout —
    /// remove the waiting request (the holder keeps the record, so nobody is
    /// woken), forget the registry entry, counting the release into the
    /// requester's `scratch`, and drop the requester's wait-for edges.  The
    /// deadline lives on [`SimInstant`], so under deterministic simulation it
    /// fires on the virtual clock.
    fn wait_until_granted(
        &self,
        txn: TxnId,
        record: RecordId,
        event: Arc<OsEvent>,
        scratch: &MetricsScratch,
    ) -> Result<()> {
        let wait_start = SimInstant::now();
        let deadline = wait_start + self.config.lock_wait_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(SimInstant::now());
            let timed_out =
                remaining.is_zero() || event.wait_handoff(remaining) == WaitOutcome::TimedOut;
            let waited = wait_start.elapsed();
            // One shard acquisition serves both the grant check and the
            // give-up cleanup.  A pruned queue means our request is gone.
            let granted = self
                .with_queue(record, |queue| {
                    let granted = queue.holder() == Some(txn);
                    if !granted && timed_out {
                        // Give up: another transaction holds the record, so
                        // removing our waiting request wakes nobody.
                        queue.remove_waiter(txn);
                    }
                    granted
                })
                .unwrap_or(false);
            if !granted && !timed_out {
                // Spurious wake-up (event set but our grant was raced away):
                // reset and wait again.
                event.reset();
                continue;
            }
            let result = if granted {
                Ok(())
            } else {
                self.registry.forget_records_in(txn, &[record], scratch);
                if self.detects() {
                    // A granted waiter's edges went with its grant
                    // (`grant_from_front`); one that gives up drops its own.
                    self.graph.clear_waits_of(txn);
                }
                Err(Error::LockWaitTimeout { txn, record })
            };
            self.metrics.lock_wait_latency.record(waited);
            OsEvent::recycle(event);
            return result;
        }
    }

    /// [`RecordLockTable::release_record_locks_in`] counting into the
    /// table's metrics.
    pub fn release_record_locks(&self, txn: TxnId, records: &[RecordId]) {
        self.release_record_locks_in(txn, records, &self.own_scratch());
    }

    /// Releases a batch of record locks before commit (Bamboo's early lock
    /// release, the group leader's hot-row handover): each lock-table shard
    /// is taken once per batch, and the registry bookkeeping drains with one
    /// registry-shard lock for the whole batch.  Release-path counters
    /// (`release_shard_locks`, `locks_released`) go to `scratch`.
    pub fn release_record_locks_in(
        &self,
        txn: TxnId,
        records: &[RecordId],
        scratch: &MetricsScratch,
    ) {
        if records.is_empty() {
            return;
        }
        self.drop_requests(txn, records, scratch);
        self.registry.forget_records_in(txn, records, scratch);
    }

    /// Removes `txn`'s requests on `records` and grants whatever unblocks
    /// (lock-table state only; registry bookkeeping is the caller's).
    /// Records are grouped by shard — one sorted scratch vec, cheaper than a
    /// hash-map group-by for statement-sized batches — so each shard mutex is
    /// taken once.  Returns whether a request still waits on one of them.
    fn drop_requests(&self, txn: TxnId, records: &[RecordId], scratch: &MetricsScratch) -> bool {
        if let [single] = records {
            return self.drop_shard_requests(txn, self.shard_index(*single), [*single], scratch);
        }
        let mut keyed: Vec<(usize, RecordId)> =
            records.iter().map(|r| (self.shard_index(*r), *r)).collect();
        keyed.sort_unstable();
        let mut waited_on = false;
        for chunk in keyed.chunk_by(|a, b| a.0 == b.0) {
            let records = chunk.iter().map(|(_, r)| *r);
            waited_on |= self.drop_shard_requests(txn, chunk[0].0, records, scratch);
        }
        waited_on
    }

    /// Removes `txn`'s requests on the given records of one shard under a
    /// single shard-lock acquisition, firing the grants after the guard
    /// drops.  Returns whether a request still waits on one of them.
    fn drop_shard_requests(
        &self,
        txn: TxnId,
        shard_idx: usize,
        records: impl IntoIterator<Item = RecordId>,
        scratch: &MetricsScratch,
    ) -> bool {
        let (mut woken, mut waited_on) = (Vec::new(), false);
        {
            let mut shard = self.shards[shard_idx].lock();
            let _scope = GuardScope::enter();
            scratch.release_shard_locks.inc();
            for record in records {
                visit_queue(&mut shard, record, |queue| {
                    queue.remove_requests_of(txn);
                    queue.grant_from_front(&self.graph, &mut woken);
                    waited_on |= queue.waiter_count() > 0;
                });
            }
        }
        for event in woken {
            event.set();
        }
        waited_on
    }

    /// [`RecordLockTable::release_all_in`] counting into the table's metrics.
    pub fn release_all(&self, txn: TxnId) {
        self.release_all_in(txn, &self.own_scratch());
    }

    /// Releases every lock `txn` holds (and abandons any waits), granting
    /// whatever unblocks.  Called at commit and rollback.  Walks only the
    /// transaction's own registry shard and the lock-table shards it
    /// touched, each taken once, and the graph only if a request still waits
    /// on one of its records.  Counters go to `scratch` (the transaction's).
    pub fn release_all_in(&self, txn: TxnId, scratch: &MetricsScratch) {
        if let Some(records) = self.registry.take_all_in(txn, scratch) {
            let waited_on = self.drop_requests(txn, &records, scratch);
            if waited_on && self.detects() {
                self.graph.remove_txn(txn);
            }
        }
    }

    /// Number of requests waiting on `record` — the paper's
    /// hotspot-detection signal (§4.1).
    pub fn wait_queue_len(&self, record: RecordId) -> usize {
        self.queue(record, RecordQueue::waiter_count).unwrap_or(0)
    }

    /// The transaction holding `record`'s lock, if any.
    pub fn holder_of(&self, record: RecordId) -> Option<TxnId> {
        self.queue(record, RecordQueue::holder).flatten()
    }

    /// Reads `record`'s queue, if it exists, under its shard guard.
    fn queue<R>(&self, record: RecordId, f: impl FnOnce(&RecordQueue) -> R) -> Option<R> {
        let shard = self.shards[self.shard_index(record)].lock();
        shard.get(&record.packed()).map(f)
    }

    /// The wait-for graph (tests assert it drains).
    pub fn wait_for_graph(&self) -> &WaitForGraph {
        &self.graph
    }
}

/// One conformance suite, instantiated per layout, plus a differential test
/// that runs one seeded script through both layouts.  Tests that only make
/// sense for one layout live next to it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lightweight::FlatLayout;
    use crate::lock_sys::PageLayout;
    use crate::test_support::{assert_locks_drained as assert_drained, lock_table as table};
    use std::thread::{self, JoinHandle};
    use txsql_common::rng::XorShiftRng;

    const R1: RecordId = RecordId::new(1, 0, 0);
    const R2: RecordId = RecordId::new(1, 0, 1);
    const X: LockMode = LockMode::Exclusive;

    type Table<L> = Arc<RecordLockTable<L>>;

    /// Issues `lock_record` on its own thread and returns once the request
    /// is either granted (thread finished) or queued on `record`.
    fn lock_async<L: Layout + 'static>(
        t: &Table<L>,
        txn: u64,
        record: RecordId,
    ) -> JoinHandle<Result<()>> {
        let queued_before = t.wait_queue_len(record);
        let t2 = Arc::clone(t);
        let handle = thread::spawn(move || t2.lock_record(TxnId(txn), record, X));
        while !handle.is_finished() && t.wait_queue_len(record) == queued_before {
            thread::yield_now();
        }
        handle
    }

    fn exclusive_lock_is_granted_reentrant_and_released<L: Layout + 'static>() {
        let t = table::<L>(DeadlockPolicy::Detect, 30);
        t.lock_record(TxnId(1), R1, X).unwrap();
        t.lock_record(TxnId(1), R1, X).unwrap();
        assert_eq!(t.holder_of(R1), Some(TxnId(1)));
        assert_eq!(
            t.registry.record_count_of(TxnId(1)),
            1,
            "re-entry logs nothing"
        );
        // A waiter that times out leaves no bookkeeping behind.
        let err = t.lock_record(TxnId(2), R1, X).unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        assert_eq!(t.registry.record_count_of(TxnId(2)), 0);
        t.release_all(TxnId(1));
        assert_eq!(t.holder_of(R1), None);
        assert_eq!(t.registry.record_count_of(TxnId(1)), 0);
        assert_drained(&t);
    }

    fn single_and_batched_release_keep_other_locks<L: Layout + 'static>() {
        let t = table::<L>(DeadlockPolicy::TimeoutOnly, 2_000);
        // Three records over two pages, all held by T1.
        let other_page = RecordId::new(1, 9, 4);
        for r in [R1, R2, other_page] {
            t.lock_record(TxnId(1), r, X).unwrap();
        }
        let w = lock_async(&t, 2, other_page);
        assert_eq!(t.wait_queue_len(other_page), 1);
        // One batched call releases R1 and the other page's record: the
        // waiter must be granted, R2 must stay held, registry must drop to 1.
        t.release_record_locks(TxnId(1), &[R1, other_page]);
        w.join().unwrap().unwrap();
        assert_eq!(t.holder_of(other_page), Some(TxnId(2)));
        assert_eq!(t.holder_of(R1), None);
        assert_eq!(t.holder_of(R2), Some(TxnId(1)));
        assert_eq!(t.registry.record_count_of(TxnId(1)), 1);
        t.release_record_locks(TxnId(1), &[R2]);
        assert_eq!(t.holder_of(R2), None);
        t.release_all(TxnId(1));
        t.release_all(TxnId(2));
        assert_drained(&t);
    }

    fn deadlock_is_detected<L: Layout + 'static>() {
        let t = table::<L>(DeadlockPolicy::Detect, 5_000);
        t.lock_record(TxnId(1), R1, X).unwrap();
        t.lock_record(TxnId(2), R2, X).unwrap();
        // T1 waits for R2 (held by T2).
        let h = lock_async(&t, 1, R2);
        // T2 requesting R1 closes the cycle, so T2 is the victim.
        let err = t.lock_record(TxnId(2), R1, X).unwrap_err();
        assert!(matches!(err, Error::Deadlock { txn: TxnId(2) }));
        // Let T1 proceed by releasing T2's locks (as its rollback would).
        t.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        t.release_all(TxnId(1));
        assert_drained(&t);
    }

    fn the_request_that_closes_a_cycle_dies_and_the_waiters_ahead_keep_their_turn<
        L: Layout + 'static,
    >() {
        // T1 holds R1 and T2 holds R2; T3 queues on R1, then T2 behind it,
        // so T2 waits for T3 too.  T3 holds nothing: aborting it breaks no
        // cycle.  T1's request for R2 closes the cycle, and T1 dies at once.
        let t = table::<L>(DeadlockPolicy::Detect, 5_000);
        t.lock_record(TxnId(1), R1, X).unwrap();
        t.lock_record(TxnId(2), R2, X).unwrap();
        let third = lock_async(&t, 3, R1);
        let second = lock_async(&t, 2, R1);
        let asked = std::time::Instant::now();
        let err = t.lock_record(TxnId(1), R2, X).unwrap_err();
        assert!(
            matches!(err, Error::Deadlock { txn: TxnId(1) }),
            "got {err:?}"
        );
        assert!(asked.elapsed() < Duration::from_secs(1), "not a timeout");
        // T1's rollback releases R1, and its FIFO grants it in order.
        t.release_all(TxnId(1));
        third.join().unwrap().unwrap();
        assert_eq!(t.holder_of(R1), Some(TxnId(3)));
        t.release_all(TxnId(3));
        second.join().unwrap().unwrap();
        assert_eq!(t.holder_of(R1), Some(TxnId(2)));
        t.release_all(TxnId(2));
        assert_drained(&t);
    }

    fn timeout_policy_never_reports_deadlock<L: Layout + 'static>() {
        let t = table::<L>(DeadlockPolicy::TimeoutOnly, 40);
        t.lock_record(TxnId(1), R1, X).unwrap();
        t.lock_record(TxnId(2), R2, X).unwrap();
        let h = lock_async(&t, 1, R2);
        let err = t.lock_record(TxnId(2), R1, X).unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        // The other waiter also times out (nobody released).
        assert!(matches!(
            h.join().unwrap().unwrap_err(),
            Error::LockWaitTimeout { .. }
        ));
    }

    macro_rules! conformance {
        ($($test:ident),* $(,)?) => {
            mod page_layout {
                $(#[test] fn $test() { super::$test::<super::PageLayout>() })*
            }
            mod flat_layout {
                $(#[test] fn $test() { super::$test::<super::FlatLayout>() })*
            }
        };
    }

    conformance!(
        exclusive_lock_is_granted_reentrant_and_released,
        single_and_batched_release_keep_other_locks,
        deadlock_is_detected,
        the_request_that_closes_a_cycle_dies_and_the_waiters_ahead_keep_their_turn,
        timeout_policy_never_reports_deadlock,
    );

    /// A release takes its registry shard and its record's lock-table shard,
    /// no graph shard, while an unrelated transaction waits (debug builds).
    #[cfg(debug_assertions)]
    #[test]
    fn a_release_takes_no_graph_shard_while_another_transaction_waits() {
        let t = table::<PageLayout>(DeadlockPolicy::Detect, 5_000);
        t.lock_record(TxnId(1), R1, X).unwrap();
        let waiter = lock_async(&t, 2, R1);
        t.lock_record(TxnId(3), R2, X).unwrap();
        let before = parking_lot::thread_acquisitions();
        t.release_all(TxnId(3));
        let taken = parking_lot::thread_acquisitions() - before;
        assert_eq!(taken, 2, "the registry shard and the lock shard");
        t.release_all(TxnId(1));
        waiter.join().unwrap().unwrap();
    }

    /// The page arm's one structural difference (Figure 6c): every row of a
    /// page hashes to the page's one shard mutex, where O1 spreads the rows.
    #[test]
    fn the_page_layout_puts_a_page_on_one_shard_and_the_flat_layout_spreads_it() {
        let page = table::<PageLayout>(DeadlockPolicy::TimeoutOnly, 30);
        let flat = table::<FlatLayout>(DeadlockPolicy::TimeoutOnly, 30);
        let on_page = |heap| RecordId::new(1, 7, heap);
        let page_shard = page.shard_index(on_page(0));
        assert!((0..=u16::MAX).all(|heap| page.shard_index(on_page(heap)) == page_shard));
        let flat_shard = flat.shard_index(on_page(0));
        assert!((1..100).any(|heap| flat.shard_index(on_page(heap)) != flat_shard));
    }

    /// Runs a seeded lock/release script over six transaction slots and
    /// three records (two sharing a page) and returns the grant log: holder
    /// and queue length of the touched record after every step.  Grants
    /// happen under the releaser's shard guard, so the log does not depend on
    /// when woken threads run.  Slots lock records in ascending order, so the
    /// script cannot deadlock.
    fn run_script<L: Layout + 'static>(seed: u64) -> (Vec<(Option<TxnId>, usize)>, Table<L>) {
        const RECORDS: [RecordId; 3] = [R1, R2, RecordId::new(1, 9, 0)];
        struct Slot {
            txn: u64,
            next_record: usize,
            blocked: Option<(RecordId, JoinHandle<Result<()>>)>,
        }
        let t = table::<L>(DeadlockPolicy::TimeoutOnly, 30_000);
        // Ballast: 100 granted requests on other records of R1's and R2's
        // page, which share their shard in the page layout and must not
        // change any grant of the script.
        const BALLAST: TxnId = TxnId(u64::MAX);
        for heap in 10..110 {
            t.lock_record(BALLAST, RecordId::new(1, 0, heap), X)
                .unwrap();
        }
        let mut rng = XorShiftRng::new(seed);
        let mut slots: Vec<Slot> = (1..=6u64)
            .map(|txn| Slot {
                txn,
                next_record: 0,
                blocked: None,
            })
            .collect();
        let mut log = Vec::new();
        for _ in 0..200 {
            let idx = rng.next_bounded(slots.len() as u64) as usize;
            let slot = &mut slots[idx];
            if slot.blocked.is_some() {
                continue;
            }
            let touched = if slot.next_record < RECORDS.len() && rng.next_bool(0.7) {
                // Skip ahead at random, keeping the ascending order.
                let pick = rng.next_range_inclusive(slot.next_record as u64, 2) as usize;
                let record = RECORDS[pick];
                slot.next_record = pick + 1;
                let handle = lock_async(&t, slot.txn, record);
                if handle.is_finished() {
                    handle.join().unwrap().unwrap();
                } else {
                    slot.blocked = Some((record, handle));
                }
                vec![record]
            } else {
                t.release_all(TxnId(slot.txn));
                // A fresh transaction takes over the slot.
                slot.txn += 10;
                slot.next_record = 0;
                RECORDS.to_vec()
            };
            for slot in &mut slots {
                if let Some((record, _)) = &slot.blocked {
                    if t.holder_of(*record) == Some(TxnId(slot.txn)) {
                        let (_, handle) = slot.blocked.take().unwrap();
                        handle.join().unwrap().unwrap();
                    }
                }
            }
            for record in touched {
                log.push((t.holder_of(record), t.wait_queue_len(record)));
            }
        }
        // Drain: release runnable slots until every blocked one was granted.
        while slots.iter().any(|s| s.blocked.is_some()) {
            for slot in &mut slots {
                match slot.blocked.take() {
                    Some((record, handle)) if t.holder_of(record) != Some(TxnId(slot.txn)) => {
                        slot.blocked = Some((record, handle));
                    }
                    Some((_, handle)) => handle.join().unwrap().unwrap(),
                    None => t.release_all(TxnId(slot.txn)),
                }
            }
        }
        for slot in &slots {
            t.release_all(TxnId(slot.txn));
        }
        t.release_all(BALLAST);
        (log, t)
    }

    #[test]
    fn layouts_agree_on_a_seeded_script_and_differ_only_in_accounting() {
        for seed in 1..=8 {
            let (page_log, page) = run_script::<PageLayout>(seed);
            let (flat_log, flat) = run_script::<FlatLayout>(seed);
            assert_eq!(page_log, flat_log, "grant order diverged at seed {seed}");
            assert!(page_log.iter().any(|(_, queued)| *queued > 0));
            assert_drained(&page);
            assert_drained(&flat);
            // The one difference (Figure 6d): the flat layout counts a lock
            // object only per wait, the page layout also per fresh grant.
            let (pm, fm) = (&page.metrics, &flat.metrics);
            assert_eq!(pm.lock_waits.get(), fm.lock_waits.get());
            assert_eq!(fm.locks_created.get(), fm.lock_waits.get());
            assert!(pm.locks_created.get() > fm.locks_created.get());
            assert_eq!(pm.locks_released.get(), fm.locks_released.get());
        }
    }
}
