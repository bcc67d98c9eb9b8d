//! One record's lock queue: the state every layout of the record-lock table
//! stores per record.
//!
//! A [`RecordQueue`] owns the holder/waiter split, the mode-compatibility
//! conflict check, the from-front FIFO grant scan and timeout/cancel removal.
//! It never knows how queues are keyed, sharded or pruned — that is the
//! [`Layout`](crate::lock_table::Layout)'s business — nor how a request
//! waits: the acquire, wait and release drivers live once, in
//! [`RecordLockTable`](crate::lock_table::RecordLockTable).
//!
//! The two behaviours on which the lock-table arms differ *inside* a queue
//! are a [`QueuePolicy`] passed into [`RecordQueue::try_acquire`]:
//!
//! * **upgrade fairness** — the baseline keeps InnoDB's FIFO rule that an
//!   `S→X` upgrade may not jump earlier queued waiters, while the lightweight
//!   table upgrades in place whenever no *holder* conflicts
//!   ([`QueuePolicy::upgrade_respects_queue`]);
//! * **`locks_created` accounting** — the baseline counts one `lock_t`-like
//!   object per acquisition (the Figure 6d cost the paper measures), the
//!   lightweight table only counts requests that actually wait
//!   ([`QueuePolicy::count_uncontended_grants`]).
//!
//! ## The uncontended fast path
//!
//! The zero-conflict acquire/release cycle is the layout's first-class
//! citizen (see the crate docs' "fast path" section):
//!
//! * **holders are stored inline** — [`RecordQueue`] keeps its granted
//!   holders in a three-state enum (`None` / one inline entry / spilled
//!   `Vec`), so the overwhelmingly common single-holder record costs **no
//!   heap allocation**; only shared-mode records with 2+ holders spill;
//! * **the waiter deque is lazily allocated** — a record that never sees a
//!   conflict never materialises its `VecDeque` (it lives behind an
//!   `Option<Box<…>>` created by the first [`RecordQueue::enqueue_waiter`]),
//!   which also keeps the queue struct small inside the tables' shard maps;
//! * **hot counters go to the transaction's scratch** —
//!   [`RecordQueue::try_acquire`] and [`RecordQueue::grant_from_front`] count
//!   the per-cycle `locks_created` and grant-scan lengths into the caller's
//!   `Cell`-based [`MetricsScratch`] instead of shared atomics; the slow
//!   paths (waits, deadlock checks) still record into [`EngineMetrics`]
//!   directly.

use crate::deadlock::{select_victim, WaitForGraph};
use crate::event::OsEvent;
use crate::modes::LockMode;
use crate::registry::TxnLockRegistry;
use std::collections::VecDeque;
use std::sync::Arc;
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::{Error, Result, TxnId};

/// The two in-queue behaviours on which the lock-table layouts differ.
/// Everything not captured here (conflict scan, grant order) is shared.
#[derive(Debug, Clone, Copy)]
pub struct QueuePolicy {
    /// FIFO upgrade fairness: when true, an in-place lock upgrade (`S→X` by
    /// an existing holder) is only allowed while no other request is queued —
    /// an upgrade may not jump an earlier waiting request.  The InnoDB-style
    /// baseline sets this; the lightweight table upgrades whenever no holder
    /// conflicts.
    pub upgrade_respects_queue: bool,
    /// Figure-6d accounting: when true, every fresh uncontended grant counts
    /// one created lock object (the baseline keeps a `lock_t` entry per
    /// acquisition).  The lightweight table only materialises — and counts —
    /// lock objects for requests that wait.
    pub count_uncontended_grants: bool,
}

/// A waiting request.  Only waiters carry full request objects (with their
/// wake-up event); granted locks are plain `(txn, mode)` holder entries.
#[derive(Debug)]
struct WaitingRequest {
    txn: TxnId,
    mode: LockMode,
    event: Arc<OsEvent>,
}

/// How [`RecordQueue::try_acquire`] resolved a request under the shard guard.
#[derive(Debug)]
pub enum AcquireOutcome {
    /// An existing granted lock already covers the request — nothing changed,
    /// no bookkeeping needed.
    AlreadyHeld,
    /// The existing holder entry was upgraded in place (`S→X`); the record is
    /// already registry-tracked, so nothing else to do.
    Upgraded,
    /// A fresh holder entry was pushed (uncontended grant).  The caller must
    /// remember the record in its registry *after* dropping the shard guard.
    Granted,
    /// Conflicting holders (or FIFO order behind queued waiters) force a
    /// wait.  Carries the conflicting holder ids for the deadlock check; the
    /// caller runs [`deadlock_check_on_wait`] and then
    /// [`RecordQueue::enqueue_waiter`].
    MustWait(Vec<TxnId>),
}

/// Granted holders of one record, stored inline for the 1-holder common
/// case.  A record held by a single transaction (the shape of virtually
/// every exclusive lock) costs no heap allocation; only shared-mode records
/// with two or more simultaneous holders spill into a `Vec`.
#[derive(Debug, Default)]
enum Holders {
    /// Nobody holds the record.
    #[default]
    None,
    /// Exactly one holder, stored inline — the uncontended fast path.
    One((TxnId, LockMode)),
    /// Two or more holders (shared locks) spilled to the heap.
    Many(Vec<(TxnId, LockMode)>),
}

impl Holders {
    #[inline]
    fn as_slice(&self) -> &[(TxnId, LockMode)] {
        match self {
            Holders::None => &[],
            Holders::One(h) => std::slice::from_ref(h),
            Holders::Many(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [(TxnId, LockMode)] {
        match self {
            Holders::None => &mut [],
            Holders::One(h) => std::slice::from_mut(h),
            Holders::Many(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Holders::None => 0,
            Holders::One(_) => 1,
            Holders::Many(v) => v.len(),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn push(&mut self, holder: (TxnId, LockMode)) {
        match std::mem::take(self) {
            Holders::None => *self = Holders::One(holder),
            Holders::One(first) => *self = Holders::Many(vec![first, holder]),
            Holders::Many(mut v) => {
                v.push(holder);
                *self = Holders::Many(v);
            }
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&(TxnId, LockMode)) -> bool) {
        match self {
            Holders::None => {}
            Holders::One(h) => {
                if !keep(h) {
                    *self = Holders::None;
                }
            }
            Holders::Many(v) => {
                v.retain(|h| keep(h));
                match v.len() {
                    // Collapse back to the allocation-free states so a record
                    // that momentarily spilled does not pin its Vec forever.
                    0 => *self = Holders::None,
                    1 => *self = Holders::One(v[0]),
                    _ => {}
                }
            }
        }
    }
}

/// One record's lock queue: granted holders split from the waiter FIFO, so
/// every operation on the record is O(requests on that record) — never
/// O(page population) or O(table population).  The default (empty) queue owns
/// no heap memory at all: holders are inline (the private `Holders` enum) and the waiter
/// deque is only boxed into existence by the first conflicting request.
#[derive(Debug, Default)]
pub struct RecordQueue {
    holders: Holders,
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
        self.holders.is_empty() && self.waiter_count() == 0
    }

    /// Number of waiting requests (the paper's hotspot-detection signal).
    #[inline]
    pub fn waiter_count(&self) -> usize {
        self.waiters.as_ref().map_or(0, |w| w.len())
    }

    /// True when some transaction holds a granted lock.
    #[inline]
    pub fn has_holders(&self) -> bool {
        !self.holders.is_empty()
    }

    /// Transactions currently holding a granted lock.
    pub fn holder_ids(&self) -> Vec<TxnId> {
        self.holders.as_slice().iter().map(|(t, _)| *t).collect()
    }

    /// True when `txn` holds a granted lock (any mode) on this record.
    pub fn holds_any(&self, txn: TxnId) -> bool {
        self.holders.as_slice().iter().any(|(t, _)| *t == txn)
    }

    /// True when `txn` holds a granted lock covering `mode`.
    #[inline]
    pub(crate) fn is_granted(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .as_slice()
            .iter()
            .any(|(t, m)| *t == txn && m.covers(mode))
    }

    /// Transactions among the current holders that conflict with a request
    /// by `txn` for `mode`.
    fn conflicting_holders(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders
            .as_slice()
            .iter()
            .filter(|(t, m)| *t != txn && !m.is_compatible_with(mode))
            .map(|(t, _)| *t)
            .collect()
    }

    /// Resolves an acquisition attempt under the owning shard's guard: the
    /// re-entrant fast path, the in-place upgrade, the uncontended grant and
    /// the must-wait decision, in one conflict scan.  `scratch` receives the
    /// `locks_created` count per `policy`, so the uncontended grant costs no
    /// atomic RMW.
    #[inline]
    pub fn try_acquire(
        &mut self,
        txn: TxnId,
        mode: LockMode,
        policy: QueuePolicy,
        scratch: &MetricsScratch,
    ) -> AcquireOutcome {
        let held = self
            .holders
            .as_slice()
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m);
        if let Some(held) = held {
            // Re-entrant fast path: an existing granted lock that covers the
            // request needs no new lock entry.
            if held.covers(mode) {
                return AcquireOutcome::AlreadyHeld;
            }
        }

        // One conflict scan serves the upgrade, fresh-grant and wait paths
        // alike (it may run under the hottest mutex in the system).
        let blockers = self.conflicting_holders(txn, mode);
        if blockers.is_empty() {
            let no_waiters = self.waiter_count() == 0;
            if held.is_some() && (!policy.upgrade_respects_queue || no_waiters) {
                // Lock upgrade (S -> X) in place.  Under FIFO upgrade
                // fairness this is only reached with an empty waiter queue.
                for (t, m) in self.holders.as_mut_slice() {
                    if *t == txn {
                        *m = LockMode::Exclusive;
                    }
                }
                return AcquireOutcome::Upgraded;
            }
            if held.is_none() && no_waiters {
                // Uncontended grant: no OsEvent, no lock object unless the
                // table's accounting says every acquisition creates one.
                if policy.count_uncontended_grants {
                    scratch.locks_created.inc();
                }
                self.holders.push((txn, mode));
                return AcquireOutcome::Granted;
            }
        }
        AcquireOutcome::MustWait(blockers)
    }

    /// Queues a waiting request behind the current FIFO, drawing its wake-up
    /// event from the thread-local pool, and counts the lock object and the
    /// wait.  The first waiter on a record materialises the boxed deque.
    /// Returns the event the caller parks on (a second clone stays with the
    /// queued request).
    pub fn enqueue_waiter(
        &mut self,
        txn: TxnId,
        mode: LockMode,
        metrics: &EngineMetrics,
    ) -> Arc<OsEvent> {
        metrics.locks_created.inc();
        metrics.lock_waits.inc();
        let event = OsEvent::acquire_pooled();
        self.waiters
            .get_or_insert_with(Default::default)
            .push_back(WaitingRequest {
                txn,
                mode,
                event: Arc::clone(&event),
            });
        event
    }

    /// Removes every request `txn` has on this record (granted holders and
    /// waiting entries alike) without granting — the release paths call this
    /// and then [`RecordQueue::grant_from_front`].
    #[inline]
    pub fn remove_requests_of(&mut self, txn: TxnId) {
        self.holders.retain(|(t, _)| *t != txn);
        if let Some(waiters) = &mut self.waiters {
            waiters.retain(|w| w.txn != txn);
        }
    }

    /// Removes `txn`'s *waiting* entry only (timeout/doom cleanup: a granted
    /// holder entry — e.g. the surviving pre-upgrade lock — must stay).
    pub(crate) fn remove_waiter(&mut self, txn: TxnId) {
        if let Some(waiters) = &mut self.waiters {
            waiters.retain(|w| w.txn != txn);
        }
    }

    /// Iterator over the transactions currently waiting (FIFO order).
    fn waiter_ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.waiters.iter().flat_map(|w| w.iter()).map(|w| w.txn)
    }

    /// FIFO grant scan: grants waiters from the front while they are
    /// compatible with the remaining holders.  Records the scan length
    /// (requests examined) in `scratch` and pushes the events to fire once
    /// the caller has dropped the shard guard.
    #[inline]
    pub fn grant_from_front(
        &mut self,
        graph: &WaitForGraph,
        scratch: &MetricsScratch,
        woken: &mut Vec<Arc<OsEvent>>,
    ) {
        let examined = self.holders.len() + self.waiter_count();
        scratch.grant_scan_len.record_micros(examined as u64);
        let Some(waiters) = self.waiters.as_mut() else {
            return;
        };
        while let Some(front) = waiters.front() {
            let compatible = self
                .holders
                .as_slice()
                .iter()
                .all(|(t, m)| *t == front.txn || m.is_compatible_with(front.mode));
            if !compatible {
                break;
            }
            let waiter = waiters.pop_front().expect("front exists");
            if let Some((_, held)) = self
                .holders
                .as_mut_slice()
                .iter_mut()
                .find(|(t, _)| *t == waiter.txn)
            {
                // Granting a queued *upgrade*: overwrite the transaction's
                // existing holder entry (its old Shared grant) instead of
                // pushing a duplicate — duplicate entries would defeat the
                // re-entrant fast path and double-count in holders_of.
                *held = waiter.mode;
            } else {
                self.holders.push((waiter.txn, waiter.mode));
            }
            graph.clear_waits_of(waiter.txn);
            woken.push(waiter.event);
        }
        if waiters.is_empty() {
            // Contention drained: drop the boxed deque so the record is back
            // to its allocation-free shape (the next conflict re-boxes it).
            self.waiters = None;
        }
    }
}

/// Runs wait-for-graph deadlock detection for a request that is about to
/// queue behind `queue` (called under the shard guard, before the waiter is
/// enqueued, so the Figure-6d counters stay truthful when the requester is
/// chosen as victim and returns without ever creating a lock object).
///
/// Returns `Err(Deadlock)` when the requester itself must die (its graph
/// entry is already cleared), `Ok(Some(victim))` when a *remote* cycle member
/// was chosen — the caller dooms it through the graph **after** dropping the
/// shard guard — and `Ok(None)` when no cycle was found.
pub fn deadlock_check_on_wait(
    queue: &RecordQueue,
    graph: &WaitForGraph,
    registry: &TxnLockRegistry,
    metrics: &EngineMetrics,
    txn: TxnId,
    blockers: Vec<TxnId>,
) -> Result<Option<TxnId>> {
    metrics.deadlock_checks.inc();
    let mut waits_for = blockers;
    waits_for.extend(queue.waiter_ids());
    graph.set_waits_for(txn, waits_for);
    if let Some(cycle) = graph.find_cycle_from(txn) {
        let victim = select_victim(&cycle, |t| registry.record_count_of(t));
        if victim == txn {
            graph.clear_waits_of(txn);
            return Err(Error::Deadlock { txn });
        }
        return Ok(Some(victim));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: QueuePolicy = QueuePolicy {
        upgrade_respects_queue: true,
        count_uncontended_grants: false,
    };

    #[test]
    fn try_acquire_grant_reentrant_upgrade_and_wait() {
        let scratch = MetricsScratch::new();
        let mut q = RecordQueue::default();
        assert!(matches!(
            q.try_acquire(TxnId(1), LockMode::Shared, POLICY, &scratch),
            AcquireOutcome::Granted
        ));
        assert!(matches!(
            q.try_acquire(TxnId(1), LockMode::Shared, POLICY, &scratch),
            AcquireOutcome::AlreadyHeld
        ));
        assert!(matches!(
            q.try_acquire(TxnId(1), LockMode::Exclusive, POLICY, &scratch),
            AcquireOutcome::Upgraded
        ));
        match q.try_acquire(TxnId(2), LockMode::Exclusive, POLICY, &scratch) {
            AcquireOutcome::MustWait(blockers) => assert_eq!(blockers, vec![TxnId(1)]),
            other => panic!("expected MustWait, got {other:?}"),
        }
        assert!(scratch.is_empty(), "no lock object under this policy");
    }

    #[test]
    fn a_counted_grant_and_its_release_scan_land_in_the_scratch() {
        let metrics = Arc::new(EngineMetrics::new());
        let scratch = MetricsScratch::attached(Arc::clone(&metrics));
        let counting = QueuePolicy {
            upgrade_respects_queue: true,
            count_uncontended_grants: true,
        };
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), LockMode::Exclusive, counting, &scratch);
        q.remove_requests_of(TxnId(1));
        q.grant_from_front(&WaitForGraph::new(), &scratch, &mut Vec::new());
        scratch.flush();
        assert_eq!(metrics.locks_created.get(), 1);
        assert_eq!(metrics.grant_scan_len.count(), 1);
    }

    #[test]
    fn single_holder_stays_inline_and_shared_holders_spill_and_collapse() {
        let scratch = MetricsScratch::new();
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), LockMode::Shared, POLICY, &scratch);
        assert!(matches!(q.holders, Holders::One(_)));
        q.try_acquire(TxnId(2), LockMode::Shared, POLICY, &scratch);
        assert!(matches!(q.holders, Holders::Many(_)));
        assert_eq!(q.holder_ids(), vec![TxnId(1), TxnId(2)]);
        q.remove_requests_of(TxnId(1));
        assert!(
            matches!(q.holders, Holders::One(_)),
            "shrinking to one holder must collapse back to the inline state"
        );
        q.remove_requests_of(TxnId(2));
        assert!(matches!(q.holders, Holders::None));
        assert!(q.is_empty());
    }

    #[test]
    fn waiter_deque_is_lazy_and_freed_when_drained() {
        let (metrics, scratch) = (EngineMetrics::new(), MetricsScratch::new());
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), LockMode::Exclusive, POLICY, &scratch);
        assert!(q.waiters.is_none(), "no conflict, no deque");
        q.enqueue_waiter(TxnId(2), LockMode::Exclusive, &metrics);
        assert!(q.waiters.is_some());
        q.remove_requests_of(TxnId(1));
        let mut woken = Vec::new();
        q.grant_from_front(&WaitForGraph::new(), &scratch, &mut woken);
        assert_eq!(woken.len(), 1);
        assert!(
            q.waiters.is_none(),
            "drained waiter deque must be released back to the lazy state"
        );
    }

    #[test]
    fn granted_upgrade_replaces_holder_entry_instead_of_duplicating() {
        let (metrics, scratch) = (EngineMetrics::new(), MetricsScratch::new());
        let mut q = RecordQueue::default();
        // T1 and T2 share the record; T1's queued upgrade is blocked by T2.
        q.try_acquire(TxnId(1), LockMode::Shared, POLICY, &scratch);
        q.try_acquire(TxnId(2), LockMode::Shared, POLICY, &scratch);
        assert!(matches!(
            q.try_acquire(TxnId(1), LockMode::Exclusive, POLICY, &scratch),
            AcquireOutcome::MustWait(_)
        ));
        q.enqueue_waiter(TxnId(1), LockMode::Exclusive, &metrics);
        // T2 releases: the grant scan must upgrade T1's existing entry in
        // place, not append a duplicate holder.
        q.remove_requests_of(TxnId(2));
        let mut woken = Vec::new();
        q.grant_from_front(&WaitForGraph::new(), &scratch, &mut woken);
        assert_eq!(woken.len(), 1);
        assert_eq!(q.holder_ids(), vec![TxnId(1)], "exactly one holder entry");
        assert!(q.is_granted(TxnId(1), LockMode::Exclusive));
        assert_eq!(q.waiter_count(), 0);
    }

    #[test]
    fn grant_scan_is_fifo_and_compat_bounded() {
        let (metrics, scratch) = (EngineMetrics::new(), MetricsScratch::new());
        let mut q = RecordQueue::default();
        q.try_acquire(TxnId(1), LockMode::Exclusive, POLICY, &scratch);
        q.enqueue_waiter(TxnId(2), LockMode::Shared, &metrics);
        q.enqueue_waiter(TxnId(3), LockMode::Shared, &metrics);
        q.enqueue_waiter(TxnId(4), LockMode::Exclusive, &metrics);
        q.remove_requests_of(TxnId(1));
        let mut woken = Vec::new();
        q.grant_from_front(&WaitForGraph::new(), &scratch, &mut woken);
        // Both Shared waiters are granted together; the Exclusive stays.
        assert_eq!(woken.len(), 2);
        assert_eq!(q.holder_ids(), vec![TxnId(2), TxnId(3)]);
        assert_eq!(q.waiter_count(), 1);
    }
}
