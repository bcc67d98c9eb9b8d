//! Queue locking for hotspot rows (§3.2, "O2").
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

use crate::event::OsEvent;
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::pad::CachePadded;
use txsql_common::{RecordId, TxnId};

/// Number of shards for the ticket-queue map: unrelated hot rows must not
/// serialize on one global mutex just to reach their own queue.
const QUEUE_SHARDS: usize = 64;

/// One shard of the ticket-queue map.
type QueueShard = CachePadded<Mutex<FxHashMap<u64, QueueEntry>>>;

/// Result of asking to proceed on a hot row.
#[derive(Debug)]
pub enum QueueAdmission {
    /// The queue is empty: proceed directly to the lock manager.
    Proceed,
    /// Wait on this event; when it fires the transaction owns the ticket.
    Wait(Arc<OsEvent>),
}

#[derive(Debug, Default)]
struct QueueEntry {
    /// Transaction currently allowed to contend for the real lock.
    active: Option<TxnId>,
    /// Transactions queued behind it.
    waiters: VecDeque<(TxnId, Arc<OsEvent>)>,
}

/// The per-hot-row ticket queues, sharded by record.
#[derive(Debug)]
pub struct QueueLockTable {
    shards: Box<[QueueShard]>,
    /// Hotspot wait timeout (deadlock handling for hot rows).
    timeout: Duration,
}

impl Default for QueueLockTable {
    fn default() -> Self {
        Self::new(Duration::from_millis(100))
    }
}

impl QueueLockTable {
    /// Creates a queue-lock table with the given hotspot wait timeout.
    pub fn new(timeout: Duration) -> Self {
        Self {
            shards: (0..QUEUE_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(FxHashMap::default())))
                .collect(),
            timeout,
        }
    }

    /// The hotspot wait timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    #[inline]
    fn shard_for(&self, record: RecordId) -> &Mutex<FxHashMap<u64, QueueEntry>> {
        let idx = (fxhash::hash_u64(record.packed()) % QUEUE_SHARDS as u64) as usize;
        &self.shards[idx]
    }

    /// Asks to proceed with an update of hot `record`.
    pub fn admit(&self, txn: TxnId, record: RecordId) -> QueueAdmission {
        let mut entries = self.shard_for(record).lock();
        let _scope = GuardScope::enter();
        let entry = entries.entry(record.packed()).or_default();
        if entry.active.is_none() && entry.waiters.is_empty() {
            entry.active = Some(txn);
            QueueAdmission::Proceed
        } else {
            // Pooled: the waiting side recycles the event after its wait ends
            // (grant or cancellation); the unique-`Arc` rule keeps an event
            // the queue still references out of the pool.
            let event = OsEvent::acquire_pooled();
            entry.waiters.push_back((txn, Arc::clone(&event)));
            QueueAdmission::Wait(event)
        }
    }

    /// Called after the woken transaction observes its event: marks it the
    /// active ticket holder.  Returns false if the transaction is no longer
    /// queued (e.g. it was cancelled concurrently).
    pub fn claim_ticket(&self, txn: TxnId, record: RecordId) -> bool {
        let mut entries = self.shard_for(record).lock();
        let Some(entry) = entries.get_mut(&record.packed()) else {
            return false;
        };
        if entry.active == Some(txn) {
            return true;
        }
        false
    }

    /// Releases the ticket held by `txn` (after it released the real row
    /// lock at commit/rollback) and wakes the next waiter, if any.
    pub fn release(&self, txn: TxnId, record: RecordId) {
        let to_wake = {
            let mut entries = self.shard_for(record).lock();
            let _scope = GuardScope::enter();
            let Some(entry) = entries.get_mut(&record.packed()) else {
                return;
            };
            if entry.active == Some(txn) {
                entry.active = None;
            } else {
                // A queued (not yet active) transaction is bailing out.
                entry.waiters.retain(|(t, _)| *t != txn);
            }
            if entry.active.is_some() {
                None
            } else if let Some((next_txn, event)) = entry.waiters.pop_front() {
                entry.active = Some(next_txn);
                Some(event)
            } else {
                entries.remove(&record.packed());
                None
            }
        };
        if let Some(event) = to_wake {
            event.set();
        }
    }

    /// Removes a waiter that gave up (timeout).  Returns true if it was still
    /// queued.
    pub fn cancel_wait(&self, txn: TxnId, record: RecordId) -> bool {
        let mut entries = self.shard_for(record).lock();
        let _scope = GuardScope::enter();
        let Some(entry) = entries.get_mut(&record.packed()) else {
            return false;
        };
        let before = entry.waiters.len();
        entry.waiters.retain(|(t, _)| *t != txn);
        let removed = entry.waiters.len() != before;
        if entry.active.is_none() && entry.waiters.is_empty() {
            entries.remove(&record.packed());
        }
        removed
    }

    /// Number of transactions queued behind the active one.
    pub fn queue_len(&self, record: RecordId) -> usize {
        self.shard_for(record)
            .lock()
            .get(&record.packed())
            .map(|e| e.waiters.len())
            .unwrap_or(0)
    }

    /// Hot rows with a ticket holder or a queue — zero once every transaction
    /// that took a ticket has released it.
    pub fn live_queues(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// True when some transaction currently holds the ticket or is queued.
    pub fn has_waiters(&self, record: RecordId) -> bool {
        self.shard_for(record)
            .lock()
            .get(&record.packed())
            .map(|e| e.active.is_some() || !e.waiters.is_empty())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const HOT: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 0,
    };

    #[test]
    fn first_transaction_proceeds_directly() {
        let q = QueueLockTable::new(Duration::from_millis(100));
        assert!(matches!(q.admit(TxnId(1), HOT), QueueAdmission::Proceed));
        assert!(q.has_waiters(HOT));
        q.release(TxnId(1), HOT);
        assert!(!q.has_waiters(HOT));
    }

    #[test]
    fn queued_transactions_are_woken_in_fifo_order() {
        let q = Arc::new(QueueLockTable::new(Duration::from_secs(5)));
        assert!(matches!(q.admit(TxnId(1), HOT), QueueAdmission::Proceed));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for id in 2..=5u64 {
            let q2 = Arc::clone(&q);
            let order2 = Arc::clone(&order);
            let admission = q.admit(TxnId(id), HOT);
            handles.push(thread::spawn(move || {
                if let QueueAdmission::Wait(event) = admission {
                    event.wait();
                    assert!(q2.claim_ticket(TxnId(id), HOT));
                }
                order2.lock().push(id);
                q2.release(TxnId(id), HOT);
            }));
        }
        assert_eq!(q.queue_len(HOT), 4);
        q.release(TxnId(1), HOT);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 3, 4, 5]);
        assert!(!q.has_waiters(HOT));
    }

    #[test]
    fn cancel_wait_removes_from_queue() {
        let q = QueueLockTable::new(Duration::from_millis(10));
        assert!(matches!(q.admit(TxnId(1), HOT), QueueAdmission::Proceed));
        let _ = q.admit(TxnId(2), HOT);
        assert!(q.cancel_wait(TxnId(2), HOT));
        assert!(!q.cancel_wait(TxnId(2), HOT));
        assert_eq!(q.queue_len(HOT), 0);
        q.release(TxnId(1), HOT);
    }

    #[test]
    fn release_of_queued_transaction_does_not_disturb_active() {
        let q = QueueLockTable::new(Duration::from_millis(100));
        assert!(matches!(q.admit(TxnId(1), HOT), QueueAdmission::Proceed));
        let _ = q.admit(TxnId(2), HOT);
        let _ = q.admit(TxnId(3), HOT);
        // Txn 2 aborts while still queued: txn 1 keeps the ticket and txn 3
        // stays queued behind it.
        q.release(TxnId(2), HOT);
        assert!(q.claim_ticket(TxnId(1), HOT));
        assert!(!q.claim_ticket(TxnId(3), HOT));
        assert_eq!(q.queue_len(HOT), 1);
        // Only once txn 1 releases does txn 3 become active.
        q.release(TxnId(1), HOT);
        assert!(q.claim_ticket(TxnId(3), HOT));
        assert_eq!(q.queue_len(HOT), 0);
    }

    #[test]
    fn grant_racing_a_timeout_is_detectable_via_cancel_wait() {
        // The O2 write path's timeout handling relies on this contract: when
        // the previous holder's release() pops a waiter to active just as
        // that waiter times out, cancel_wait returns false (it is no longer
        // *queued*) and the waiter must proceed as the active ticket holder
        // instead of abandoning a ticket nobody would ever release.
        let q = QueueLockTable::new(Duration::from_millis(10));
        assert!(matches!(q.admit(TxnId(1), HOT), QueueAdmission::Proceed));
        let _ = q.admit(TxnId(2), HOT);
        q.release(TxnId(1), HOT); // grants txn 2 concurrently with its timeout
        assert!(!q.cancel_wait(TxnId(2), HOT), "no longer queued");
        assert!(q.claim_ticket(TxnId(2), HOT), "the grant raced ahead");
        q.release(TxnId(2), HOT);
        assert!(!q.has_waiters(HOT));
    }

    #[test]
    fn claim_ticket_only_for_active_holder() {
        let q = QueueLockTable::new(Duration::from_millis(100));
        assert!(matches!(q.admit(TxnId(1), HOT), QueueAdmission::Proceed));
        let _ = q.admit(TxnId(2), HOT);
        assert!(q.claim_ticket(TxnId(1), HOT));
        assert!(!q.claim_ticket(TxnId(2), HOT));
    }
}
