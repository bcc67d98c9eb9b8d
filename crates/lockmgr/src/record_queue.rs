//! One record's lock queue: the state every layout of the record-lock table
//! stores per record.
//!
//! A [`RecordQueue`] owns the holder/waiter split, the from-front FIFO grant
//! and timeout/cancel removal; [`deadlock_check_on_wait`] reads the queue a
//! request is about to join and fails that request when its wait would close
//! a cycle.  Every record lock is exclusive
//! ([`crate::modes`]), so a record has at most one holder and a release
//! hands it to the front waiter only.  The queue never knows how it is
//! keyed, sharded or pruned, nor how a request waits: the shard maps and
//! the acquire, wait and release drivers live once, in
//! [`RecordLockTable`](crate::lock_table::RecordLockTable), whose
//! [`Layout`](crate::lock_table::Layout) only picks the shard.  The one
//! in-queue difference between the layouts is the `locks_created`
//! accounting passed into [`RecordQueue::try_acquire`]
//! ([`Layout::COUNT_UNCONTENDED_GRANTS`](crate::lock_table::Layout::COUNT_UNCONTENDED_GRANTS)).
//!
//! ## The uncontended fast path
//!
//! The zero-conflict acquire/release cycle is the layout's first-class
//! citizen (see the crate docs' "fast path" section):
//!
//! * **the holder is inline** — an `Option<TxnId>`, so a locked record costs
//!   **no heap allocation**;
//! * **the waiter deque is lazily allocated** — a record that never sees a
//!   conflict never materialises its `VecDeque` (it lives behind an
//!   `Option<Box<…>>` created by the first [`RecordQueue::enqueue_waiter`]),
//!   which also keeps the queue struct small inside the tables' shard maps;
//! * **hot counters go to the transaction's scratch** —
//!   [`RecordQueue::try_acquire`] counts the per-cycle `locks_created` into
//!   the caller's `Cell`-based [`MetricsScratch`] instead of a shared
//!   atomic; the slow paths (waits, deadlock checks) still record into
//!   [`EngineMetrics`] directly.

use crate::deadlock::WaitForGraph;
use crate::event::OsEvent;
use std::collections::VecDeque;
use std::sync::Arc;
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::{Error, Result, TxnId};

/// A waiting request.  Only waiters carry request objects (with their
/// wake-up event); the holder is a plain transaction id.
#[derive(Debug)]
struct WaitingRequest {
    txn: TxnId,
    event: Arc<OsEvent>,
}

/// How [`RecordQueue::try_acquire`] resolved a request under the shard guard.
#[derive(Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The requester already holds the record — nothing changed, no
    /// bookkeeping needed.
    AlreadyHeld,
    /// The requester is the holder now (uncontended grant).  The caller must
    /// remember the record in its registry *after* dropping the shard guard.
    Granted,
    /// Another transaction holds the record: the caller runs
    /// [`deadlock_check_on_wait`] and then [`RecordQueue::enqueue_waiter`].
    MustWait,
}

/// One record's lock queue: the holder split from the waiter FIFO, so every
/// operation on the record is O(requests on that record) — never O(page
/// population) or O(table population).  The default (empty) queue owns no
/// heap memory at all: the holder is inline and the waiter deque is only
/// boxed into existence by the first conflicting request.
///
/// Between two operations under the shard guard a queue with waiters has a
/// holder (every removal of the holder is followed by
/// [`RecordQueue::grant_from_front`]), and a boxed deque is never empty.
#[derive(Debug, Default)]
pub struct RecordQueue {
    holder: Option<TxnId>,
    /// Boxed on purpose (`clippy::box_collection` notwithstanding): the
    /// deque is absent on every uncontended record, and `Option<Box<…>>` is
    /// one pointer instead of `VecDeque`'s four words — the queues live by
    /// the thousand inside the tables' shard maps, so the common-case struct
    /// stays small and the indirection is only ever paid on the wait path.
    #[allow(clippy::box_collection)]
    waiters: Option<Box<VecDeque<WaitingRequest>>>,
}

impl RecordQueue {
    /// True when no holder and no waiter remains — the owning table prunes
    /// the queue from its map at this point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.holder.is_none() && self.waiter_count() == 0
    }

    /// Number of waiting requests (the paper's hotspot-detection signal).
    #[inline]
    pub fn waiter_count(&self) -> usize {
        self.waiters.as_ref().map_or(0, |w| w.len())
    }

    /// The transaction holding the record, if any.
    #[inline]
    pub fn holder(&self) -> Option<TxnId> {
        self.holder
    }

    /// Resolves an acquisition attempt under the owning shard's guard: the
    /// re-entrant fast path, the uncontended grant and the must-wait
    /// decision.  With `count_grant`, an uncontended grant counts one
    /// created lock object into `scratch` (no atomic RMW).
    #[inline]
    pub fn try_acquire(
        &mut self,
        txn: TxnId,
        count_grant: bool,
        scratch: &MetricsScratch,
    ) -> AcquireOutcome {
        match self.holder {
            Some(holder) if holder == txn => AcquireOutcome::AlreadyHeld,
            Some(_) => AcquireOutcome::MustWait,
            None => {
                debug_assert_eq!(self.waiter_count(), 0, "waiters behind no holder");
                // Uncontended grant: no OsEvent, no lock object unless the
                // table's accounting says every acquisition creates one.
                if count_grant {
                    scratch.locks_created.inc();
                }
                self.holder = Some(txn);
                AcquireOutcome::Granted
            }
        }
    }

    /// Queues a waiting request behind the current FIFO, drawing its wake-up
    /// event from the thread-local pool, and counts the lock object and the
    /// wait.  The first waiter on a record materialises the boxed deque.
    /// Returns the event the caller parks on (a second clone stays with the
    /// queued request).
    pub fn enqueue_waiter(&mut self, txn: TxnId, metrics: &EngineMetrics) -> Arc<OsEvent> {
        metrics.locks_created.inc();
        metrics.lock_waits.inc();
        let event = OsEvent::acquire_pooled();
        self.waiters
            .get_or_insert_with(Default::default)
            .push_back(WaitingRequest {
                txn,
                event: Arc::clone(&event),
            });
        event
    }

    /// Removes every request `txn` has on this record (its hold and its
    /// waiting entry alike) without granting — the release paths call this
    /// and then [`RecordQueue::grant_from_front`].
    #[inline]
    pub fn remove_requests_of(&mut self, txn: TxnId) {
        if self.holder == Some(txn) {
            self.holder = None;
        }
        self.remove_waiter(txn);
    }

    /// Removes `txn`'s *waiting* entry only: the timeout cleanup, which
    /// wakes nobody, since the holder keeps the record.
    pub(crate) fn remove_waiter(&mut self, txn: TxnId) {
        if let Some(waiters) = &mut self.waiters {
            waiters.retain(|w| w.txn != txn);
            if waiters.is_empty() {
                // Contention drained: the record is back to its
                // allocation-free shape (the next conflict re-boxes it).
                self.waiters = None;
            }
        }
    }

    /// Iterator over the transactions currently waiting (FIFO order).
    fn waiter_ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.waiters.iter().flat_map(|w| w.iter()).map(|w| w.txn)
    }

    /// Hands a free record to the front waiter and pushes the grantee's
    /// event to fire once the caller has dropped the shard guard.
    #[inline]
    pub fn grant_from_front(&mut self, graph: &WaitForGraph, woken: &mut Vec<Arc<OsEvent>>) {
        if self.holder.is_some() {
            return;
        }
        let Some(waiters) = self.waiters.as_mut() else {
            return;
        };
        let waiter = waiters.pop_front().expect("a boxed deque is never empty");
        if waiters.is_empty() {
            self.waiters = None;
        }
        self.holder = Some(waiter.txn);
        graph.clear_waits_of(waiter.txn);
        woken.push(waiter.event);
    }
}

/// Runs wait-for-graph deadlock detection for a request that is about to
/// queue behind `queue`'s holder and waiters (called under the shard guard,
/// before the waiter is enqueued, so the Figure-6d counters stay truthful
/// when the requester dies without ever creating a lock object).
///
/// Returns `Err(Deadlock)` when the request's edges close a cycle: the
/// requester is the victim (see [`crate::deadlock`]) and its graph entry is
/// already cleared.
pub fn deadlock_check_on_wait(
    queue: &RecordQueue,
    graph: &WaitForGraph,
    metrics: &EngineMetrics,
    txn: TxnId,
) -> Result<()> {
    metrics.deadlock_checks.inc();
    graph.set_waits_for(txn, queue.holder.into_iter().chain(queue.waiter_ids()));
    if graph.has_cycle_through(txn) {
        graph.clear_waits_of(txn);
        return Err(Error::Deadlock { txn });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_acquire_grant_reentrant_and_wait() {
        let scratch = MetricsScratch::new();
        let mut q = RecordQueue::default();
        assert_eq!(
            q.try_acquire(TxnId(1), false, &scratch),
            AcquireOutcome::Granted
        );
        assert_eq!(
            q.try_acquire(TxnId(1), false, &scratch),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(
            q.try_acquire(TxnId(2), false, &scratch),
            AcquireOutcome::MustWait
        );
        assert_eq!(q.holder(), Some(TxnId(1)));
        assert!(scratch.is_empty(), "no lock object without counting");
    }

    #[test]
    fn a_counted_grant_lands_in_the_scratch() {
        let metrics = Arc::new(EngineMetrics::new());
        let scratch = MetricsScratch::attached(Arc::clone(&metrics));
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), true, &scratch);
        scratch.flush();
        assert_eq!(metrics.locks_created.get(), 1);
    }

    #[test]
    fn waiter_deque_is_lazy_and_freed_when_drained() {
        let (metrics, scratch) = (EngineMetrics::new(), MetricsScratch::new());
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), false, &scratch);
        assert!(q.waiters.is_none(), "no conflict, no deque");
        q.enqueue_waiter(TxnId(2), &metrics);
        assert!(q.waiters.is_some());
        q.remove_requests_of(TxnId(1));
        let mut woken = Vec::new();
        q.grant_from_front(&WaitForGraph::new(), &mut woken);
        assert_eq!(woken.len(), 1);
        assert!(
            q.waiters.is_none(),
            "drained waiter deque must be released back to the lazy state"
        );
    }

    #[test]
    fn a_release_grants_the_front_waiter_only() {
        let (metrics, scratch) = (EngineMetrics::new(), MetricsScratch::new());
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), false, &scratch);
        for txn in 2..=4 {
            q.enqueue_waiter(TxnId(txn), &metrics);
        }
        // The front waiter gives up while the holder keeps the record.
        q.remove_waiter(TxnId(2));
        assert_eq!((q.holder(), q.waiter_count()), (Some(TxnId(1)), 2));
        let mut woken = Vec::new();
        q.remove_requests_of(TxnId(1));
        q.grant_from_front(&WaitForGraph::new(), &mut woken);
        assert_eq!(woken.len(), 1);
        assert_eq!(q.holder(), Some(TxnId(3)));
        assert_eq!(q.waiter_count(), 1);
    }
}
