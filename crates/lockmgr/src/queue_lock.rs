//! FIFO ticket queues, one per key: queue locking for hotspot rows (§3.2,
//! "O2") and the front-door admission queues of `txsql_core::admission`.
//!
//! Once a row is promoted to hotspot, update transactions no longer pile up
//! inside the lock manager.  Instead they join a FIFO *ticket queue* keyed by
//! the record id: exactly one transaction at a time is allowed to proceed to
//! the actual row lock; when it commits (or aborts) and releases that lock it
//! wakes the next queued transaction.  Deadlocks on the hot row are handled
//! by a timeout rather than wait-for-graph detection — the paper found
//! detection both slower and more complex in this path.
//!
//! Compared with group locking, every transaction still performs one real
//! lock acquisition and release, which is why queue locking loses its edge as
//! per-transaction latency grows (Figure 2b).
//!
//! Admission control puts the same queue in front of a hot key *before* a
//! transaction begins (Prasaad et al.'s shared queue for same-hot-set
//! transactions), with a bound: an arrival that finds `depth` waiters is
//! turned away, and so is every arrival after it until the backlog has
//! drained to `recover_depth`.  Queue locking sets no bound.  Three things
//! are solved here once for both: grants are FIFO and fire outside the shard
//! guard, a grant that races the waiter's timeout wins, and an idle queue
//! leaves the map.

use crate::event::{OsEvent, WaitOutcome};
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::pad::CachePadded;

/// Number of shards for the ticket-queue map: unrelated hot rows must not
/// serialize on one global mutex just to reach their own queue.
const QUEUE_SHARDS: usize = 64;

/// One shard of the ticket-queue map.
type QueueShard = CachePadded<Mutex<FxHashMap<u64, QueueEntry>>>;

/// Result of asking for a key's ticket.
#[derive(Debug)]
pub enum QueueAdmission {
    /// The queue is empty: the caller holds the ticket.
    Proceed,
    /// Queued, at this place behind the holder (1 is next): hand the event
    /// to [`QueueLockTable::wait`].
    Wait(Arc<OsEvent>, usize),
    /// The queue is at its bound, or draining after it was: not queued.
    Full,
}

#[derive(Debug, Default)]
struct QueueEntry {
    /// `(arrival number, owner)` of the ticket holder.
    active: Option<(u64, u64)>,
    /// Arrivals queued behind it, in arrival order.
    waiters: VecDeque<(u64, u64, Arc<OsEvent>)>,
    /// Arrivals so far; they are numbered from 1.
    arrivals: u64,
    /// Arrival number of the newest grant — the FIFO oracle: within one
    /// incarnation of the queue, grants are strictly increasing.
    last_granted: u64,
    /// True from an arrival that found the queue full until the backlog has
    /// drained to the recover depth.
    full: bool,
}

impl QueueEntry {
    fn grant(&mut self, arrival: u64, owner: u64) {
        assert!(self.active.is_none(), "ticket granted while it is held");
        assert!(
            arrival > self.last_granted,
            "ticket queue FIFO violated: granted #{arrival} after #{}",
            self.last_granted
        );
        self.active = Some((arrival, owner));
        self.last_granted = arrival;
    }
}

/// The per-key ticket queues, sharded by key.  An owner is whatever names a
/// holder uniquely among the key's concurrent users (a transaction id, an
/// admission number).
#[derive(Debug)]
pub struct QueueLockTable {
    shards: Box<[QueueShard]>,
    /// How long [`QueueLockTable::wait`] waits for a grant.
    timeout: Duration,
    /// Waiters one key may hold; an arrival beyond them is `Full`.
    depth: usize,
    /// Backlog a full queue must drain to before it queues arrivals again.
    recover_depth: usize,
}

impl QueueLockTable {
    /// Creates unbounded queues with the given wait timeout.
    pub fn new(timeout: Duration) -> Self {
        Self::bounded(timeout, usize::MAX, usize::MAX)
    }

    /// Creates queues that hold at most `depth` waiters per key and, once
    /// full, turn arrivals away until `recover_depth` are left.
    pub fn bounded(timeout: Duration, depth: usize, recover_depth: usize) -> Self {
        Self {
            shards: (0..QUEUE_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(FxHashMap::default())))
                .collect(),
            timeout,
            depth,
            recover_depth,
        }
    }

    #[inline]
    fn shard_for(&self, key: u64) -> &Mutex<FxHashMap<u64, QueueEntry>> {
        &self.shards[(fxhash::hash_u64(key) % QUEUE_SHARDS as u64) as usize]
    }

    /// Asks for `key`'s ticket on behalf of `owner`.
    pub fn admit(&self, key: u64, owner: u64) -> QueueAdmission {
        let mut entries = self.shard_for(key).lock();
        let _scope = GuardScope::enter();
        let entry = entries.entry(key).or_default();
        entry.arrivals += 1;
        let arrival = entry.arrivals;
        if entry.active.is_none() && entry.waiters.is_empty() {
            entry.grant(arrival, owner);
            return QueueAdmission::Proceed;
        }
        let backlog = entry.waiters.len();
        entry.full = (entry.full && backlog > self.recover_depth) || backlog >= self.depth;
        if entry.full {
            return QueueAdmission::Full;
        }
        // Pooled: `wait` recycles the event once the wait is over; the
        // unique-`Arc` rule keeps an event the queue still references out of
        // the pool.
        let event = OsEvent::acquire_pooled();
        entry
            .waiters
            .push_back((arrival, owner, Arc::clone(&event)));
        QueueAdmission::Wait(event, backlog + 1)
    }

    /// Waits for the grant `admit` queued `owner` for.  False means the wait
    /// timed out and `owner` has left the queue.  A grant that raced the
    /// timeout wins: the releaser already popped `owner` and made it the
    /// holder, so leaving would wedge the queue behind a ticket nobody
    /// releases.
    pub fn wait(&self, key: u64, owner: u64, event: Arc<OsEvent>) -> bool {
        let granted = event.wait_for(self.timeout) == WaitOutcome::Signalled || {
            let mut entries = self.shard_for(key).lock();
            let entry = entries.get_mut(&key).expect("queue exists while waited");
            let before = entry.waiters.len();
            // Leaving drops the queue's clone of the event, so the recycle
            // below can pool it and no granter reaches it afterwards.
            entry.waiters.retain(|(_, waiter, _)| *waiter != owner);
            entry.waiters.len() == before
        };
        OsEvent::recycle(event);
        granted
    }

    /// Gives back the ticket `owner` holds and wakes the next waiter, if any.
    pub fn release(&self, key: u64, owner: u64) {
        let to_wake = {
            let mut entries = self.shard_for(key).lock();
            let _scope = GuardScope::enter();
            let entry = entries.get_mut(&key).expect("queue exists while held");
            let holder = entry.active.take().map(|(_, holder)| holder);
            assert_eq!(holder, Some(owner), "ticket released by a non-holder");
            let next = entry.waiters.pop_front();
            entry.full &= entry.waiters.len() > self.recover_depth;
            match next {
                Some((arrival, waiter, event)) => {
                    entry.grant(arrival, waiter);
                    Some(event)
                }
                None => {
                    // Idle queues leave the map, so a demoted hotspot leaks
                    // no entry (the arrival numbers restart with the next
                    // incarnation).
                    entries.remove(&key);
                    None
                }
            }
        };
        if let Some(event) = to_wake {
            event.set();
        }
    }

    /// Number of arrivals queued behind `key`'s holder.
    pub fn queue_len(&self, key: u64) -> usize {
        let entries = self.shard_for(key).lock();
        entries.get(&key).map_or(0, |e| e.waiters.len())
    }

    /// True when some owner holds `key`'s ticket or is queued for it.
    pub fn has_waiters(&self, key: u64) -> bool {
        self.shard_for(key).lock().contains_key(&key)
    }

    /// Keys with a ticket holder or a queue — zero once every owner that
    /// took a ticket has released it.
    pub fn live_queues(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Queues that are turning arrivals away until their backlog drains.
    pub fn full_queues(&self) -> usize {
        let full = |shard: &QueueShard| shard.lock().values().filter(|e| e.full).count();
        self.shards.iter().map(full).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const HOT: u64 = 7;

    fn queued(q: &QueueLockTable, owner: u64) -> Arc<OsEvent> {
        match q.admit(HOT, owner) {
            QueueAdmission::Wait(event, place) => {
                assert_eq!(place, q.queue_len(HOT));
                event
            }
            other => panic!("owner {owner} should queue, got {other:?}"),
        }
    }

    #[test]
    fn first_owner_proceeds_directly_and_an_idle_queue_leaves_the_map() {
        let q = QueueLockTable::new(Duration::from_millis(100));
        assert!(matches!(q.admit(HOT, 1), QueueAdmission::Proceed));
        assert!(q.has_waiters(HOT));
        q.release(HOT, 1);
        assert!(!q.has_waiters(HOT));
        assert_eq!(q.live_queues(), 0);
    }

    #[test]
    fn queued_owners_are_woken_in_fifo_order() {
        let q = Arc::new(QueueLockTable::new(Duration::from_secs(5)));
        assert!(matches!(q.admit(HOT, 1), QueueAdmission::Proceed));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for id in 2..=5u64 {
            let (q2, order2, event) = (Arc::clone(&q), Arc::clone(&order), queued(&q, id));
            handles.push(thread::spawn(move || {
                assert!(q2.wait(HOT, id, event));
                order2.lock().push(id);
                q2.release(HOT, id);
            }));
        }
        assert_eq!(q.queue_len(HOT), 4);
        q.release(HOT, 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 3, 4, 5]);
        assert!(!q.has_waiters(HOT));
    }

    #[test]
    fn a_timed_out_wait_leaves_the_queue_and_disturbs_nobody() {
        let q = QueueLockTable::new(Duration::from_millis(10));
        assert!(matches!(q.admit(HOT, 1), QueueAdmission::Proceed));
        let (second, third) = (queued(&q, 2), queued(&q, 3));
        let pooled = OsEvent::pooled_count();
        assert!(!q.wait(HOT, 2, second), "owner 1 never released");
        // The queue let go of its clone of the event, so the wait pooled it.
        assert_eq!(OsEvent::pooled_count(), pooled + 1);
        assert_eq!(q.queue_len(HOT), 1, "owner 3 stays queued behind owner 1");
        // Only once owner 1 releases does owner 3 hold the ticket.
        q.release(HOT, 1);
        assert!(q.wait(HOT, 3, third));
        q.release(HOT, 3);
        assert_eq!(q.live_queues(), 0);
    }

    #[test]
    fn a_grant_racing_the_timeout_wins() {
        // Both users rely on this: when the holder's release pops a waiter
        // just as that waiter times out, the waiter is no longer *queued* and
        // must proceed as the holder instead of abandoning the ticket.
        let q = QueueLockTable::new(Duration::ZERO);
        assert!(matches!(q.admit(HOT, 1), QueueAdmission::Proceed));
        let event = queued(&q, 2);
        q.release(HOT, 1);
        event.reset(); // the wake-up is still on its way when the wait ends
        assert!(q.wait(HOT, 2, event), "the grant raced ahead");
        q.release(HOT, 2);
        assert!(!q.has_waiters(HOT));
    }

    #[test]
    fn a_full_queue_turns_arrivals_away_until_it_has_drained() {
        let q = QueueLockTable::bounded(Duration::from_secs(5), 2, 0);
        assert!(matches!(q.admit(HOT, 1), QueueAdmission::Proceed));
        let (second, third) = (queued(&q, 2), queued(&q, 3));
        assert!(matches!(q.admit(HOT, 4), QueueAdmission::Full));
        assert_eq!(q.full_queues(), 1);
        // One waiter is under the bound of 2 but over the recover depth of 0.
        q.release(HOT, 1);
        assert!(q.wait(HOT, 2, second));
        assert!(matches!(q.admit(HOT, 4), QueueAdmission::Full));
        // The next release drains the backlog: arrivals queue again.
        q.release(HOT, 2);
        assert!(q.wait(HOT, 3, third));
        assert_eq!(q.full_queues(), 0);
        let fourth = queued(&q, 4);
        q.release(HOT, 3);
        assert!(q.wait(HOT, 4, fourth));
        q.release(HOT, 4);
        assert_eq!(q.live_queues(), 0);
    }
}
