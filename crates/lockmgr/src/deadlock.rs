//! Sharded wait-for graph deadlock detection.
//!
//! Vanilla 2PL (the MySQL baseline) and the lightweight O1 lock table both
//! run a cycle check every time a transaction starts waiting: the waiter adds
//! edges to every transaction currently blocking it, and a depth-first search
//! from the waiter looks for a path back to itself.  The paper's motivation
//! section (§3.2) observes that the cost of this detection — performed while
//! holding lock-manager mutexes — grows with the length of the wait queue and
//! is one of the reasons hotspot performance collapses; the queue- and
//! group-locking paths therefore bypass it entirely (timeouts / prevention
//! instead).
//!
//! The graph exploits the documented invariant that **a transaction waits
//! for at most one lock at a time**, so each waiter owns exactly one
//! out-edge set.  Those sets are sharded by waiter id across cache-padded
//! mutexes: `set_waits_for` / `clear_waits_of` — the operations on every
//! wait and wake — touch only the waiter's own shard and never contend
//! across unrelated waiters.  Only the cycle DFS and `remove_txn` cross
//! shards, and they take per-shard guards one at a time instead of a single
//! global mutex, so a long detection scan no longer stalls every other
//! waiter in the system.
//!
//! An entry lives exactly as long as its owner waits.  An edge to a finished
//! transaction is a dead end for the DFS (ids are never reused), so only the
//! waiters still queued on a record it released need pruning
//! ([`WaitForGraph::remove_txn`]): a FIFO waiter's set would otherwise keep
//! the whole queue it joined, walked by every later check on that queue
//! under the lock-table shard mutex.  A release nobody waits on leaves the
//! graph alone.
//!
//! Consequence of per-shard locking: a DFS observes each out-edge set at a
//! (possibly slightly different) instant rather than one global snapshot.
//! Under concurrent edge churn it can therefore report a cycle whose edges
//! never all existed at a single instant (a *spurious* deadlock: the victim
//! aborts and retries — safe, just wasted work), and a cycle it misses is
//! caught by the next waiter's check or by the lock-wait timeout.  Trading
//! occasional spurious aborts under heavy churn for never freezing every
//! waiter behind one detection mutex is the standard choice for sharded
//! detectors; debuggers of abort-rate anomalies should keep the false-
//! positive mode in mind.
//!
//! ## Victim selection
//!
//! [`WaitForGraph::find_cycle_from`] returns the full membership of the
//! detected cycle so the caller can choose a victim ([`select_victim`]).
//! Always aborting the requester wastes its work even when another cycle
//! member has barely started, so the victim is the member with the fewest
//! registry-tracked locks (Brook-2PL makes the same argument for
//! contention-aware victim choice).  A victim other than the
//! requester is necessarily *waiting* (every cycle member is), so each
//! waiter parks its wake-up event in its graph entry
//! ([`WaitForGraph::attach_waiter_event`]); [`WaitForGraph::doom`] marks the
//! victim and fires that event, and the victim's wait loop observes the mark
//! ([`WaitForGraph::take_doomed`]) and returns a deadlock error from its own
//! `lock_record` call.

use crate::event::OsEvent;
use parking_lot::Mutex;
use std::sync::Arc;
use txsql_common::fxhash::{self, FxHashMap, FxHashSet};
use txsql_common::pad::CachePadded;
use txsql_common::TxnId;

/// Number of waiter shards (waits are rare relative to acquisitions; 64
/// shards keeps the footprint small while eliminating cross-waiter
/// contention).
const SHARDS: usize = 64;

/// Picks the deadlock victim among `cycle` members: the one holding the
/// fewest registry-tracked locks (least work lost), as reported by
/// `lock_count`.
pub fn select_victim(cycle: &[TxnId], lock_count: impl Fn(TxnId) -> usize) -> TxnId {
    cycle
        .iter()
        .copied()
        // Ties go to the youngest transaction — the largest id, since ids
        // are handed out monotonically at BEGIN.
        .min_by_key(|t| (lock_count(*t), std::cmp::Reverse(t.0)))
        .expect("cycle is never empty")
}

/// One waiter's graph state: its out-edges plus the machinery remote victim
/// selection needs (the parked event to fire and the doomed mark).
#[derive(Debug, Default)]
struct WaiterEntry {
    out: FxHashSet<TxnId>,
    event: Option<Arc<OsEvent>>,
    doomed: bool,
}

type Shard = FxHashMap<TxnId, WaiterEntry>;

/// A dynamic wait-for graph, sharded by waiter.
#[derive(Debug)]
pub struct WaitForGraph {
    /// waiter -> set of transactions it waits for, sharded by waiter id.
    shards: Box<[CachePadded<Mutex<Shard>>]>,
}

impl Default for WaitForGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(Mutex::new(Shard::default())))
                .collect(),
        }
    }

    #[inline]
    fn shard_for(&self, waiter: TxnId) -> &Mutex<Shard> {
        &self.shards[(fxhash::hash_u64(waiter.0) % SHARDS as u64) as usize]
    }

    /// Declares that `waiter` now waits for each transaction in `holders`.
    /// Existing edges from `waiter` are replaced (a transaction waits for at
    /// most one lock at a time), touching only the waiter's own shard.  A
    /// fresh wait starts with no parked event and no doomed mark.
    pub fn set_waits_for(&self, waiter: TxnId, holders: impl IntoIterator<Item = TxnId>) {
        let set: FxHashSet<TxnId> = holders.into_iter().filter(|h| *h != waiter).collect();
        let mut shard = self.shard_for(waiter).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        if set.is_empty() {
            shard.remove(&waiter);
        } else {
            let entry = WaiterEntry {
                out: set,
                ..WaiterEntry::default()
            };
            shard.insert(waiter, entry);
        }
    }

    /// Parks the waiter's wake-up event in its graph entry so a later
    /// detection pass can [`WaitForGraph::doom`] it.  A no-op when the entry
    /// is already gone (the wait was granted before the event was parked).
    pub fn attach_waiter_event(&self, waiter: TxnId, event: Arc<OsEvent>) {
        let mut shard = self.shard_for(waiter).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        if let Some(entry) = shard.get_mut(&waiter) {
            entry.event = Some(event);
        }
    }

    /// Marks `victim` as the chosen deadlock victim and fires its parked
    /// event so it re-checks its wait immediately.  Returns false when the
    /// victim is no longer waiting (its entry is gone): the cycle evidence
    /// was stale and the cycle is already broken, so callers may simply
    /// ignore the return — the requester's own lock-wait timeout backstops
    /// any cycle a racing edge change re-forms.
    ///
    /// Staleness in the other direction is also possible: if the victim's
    /// blocking wait resolved *between* detection and this call and it
    /// already started a new, cycle-free wait, the mark lands on that new
    /// wait and aborts it — a spurious deadlock of the same (safe,
    /// retried) kind the sharded DFS itself can report under edge churn;
    /// see the module docs.  The window is a few instructions wide
    /// (requester descheduled between dropping its page guard and dooming).
    pub fn doom(&self, victim: TxnId) -> bool {
        let event = {
            let mut shard = self.shard_for(victim).lock();
            let _scope = crate::wake_check::GuardScope::enter();
            match shard.get_mut(&victim) {
                Some(entry) => {
                    entry.doomed = true;
                    entry.event.clone()
                }
                None => return false,
            }
        };
        // Fire outside the shard guard; a victim whose event is not parked
        // yet still observes the mark before parking (`take_doomed`).
        if let Some(event) = event {
            event.set();
        }
        true
    }

    /// Consumes the doomed mark of `txn`, if set.  Called by the waiter on
    /// every wake-up; a true return means some detection pass sacrificed it.
    pub fn take_doomed(&self, txn: TxnId) -> bool {
        let mut shard = self.shard_for(txn).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        match shard.get_mut(&txn) {
            Some(entry) => std::mem::take(&mut entry.doomed),
            None => false,
        }
    }

    /// Removes `txn`'s entry and every edge pointing to it: it finished, and
    /// the waiters still queued on a record it held name it.  Takes the
    /// shards one at a time.
    pub fn remove_txn(&self, txn: TxnId) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            let _scope = crate::wake_check::GuardScope::enter();
            guard.retain(|waiter, entry| {
                entry.out.remove(&txn);
                *waiter != txn && !entry.out.is_empty()
            });
        }
    }

    /// Removes only the outgoing edges of `txn` (it stopped waiting but may
    /// still block others).  One shard lock, no cross-waiter contention.
    pub fn clear_waits_of(&self, txn: TxnId) {
        let mut shard = self.shard_for(txn).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        shard.remove(&txn);
    }

    /// Snapshot of one waiter's out-edges (locks only that waiter's shard).
    fn out_edges(&self, waiter: TxnId) -> Option<Vec<TxnId>> {
        let shard = self.shard_for(waiter).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        shard
            .get(&waiter)
            .map(|entry| entry.out.iter().copied().collect())
    }

    /// Depth-first search: does a cycle pass through `start`?
    ///
    /// Returns the members of the detected cycle, `start` first, so the
    /// caller can pick a victim with [`select_victim`].  Each node's edges
    /// are read under that node's shard guard only.
    pub fn find_cycle_from(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let mut visited: FxHashSet<TxnId> = FxHashSet::default();
        let mut pred: FxHashMap<TxnId, TxnId> = FxHashMap::default();
        let mut stack: Vec<(TxnId, TxnId)> = self
            .out_edges(start)
            .unwrap_or_default()
            .into_iter()
            .map(|next| (next, start))
            .collect();
        while let Some((current, from)) = stack.pop() {
            if current == start {
                // Walk the predecessor chain back to `start` to materialise
                // the cycle membership (`from` was visited before its edges
                // were pushed, so its chain is complete).
                let mut cycle = vec![start];
                let mut node = from;
                while node != start {
                    cycle.push(node);
                    node = pred[&node];
                }
                return Some(cycle);
            }
            if !visited.insert(current) {
                continue;
            }
            pred.insert(current, from);
            if let Some(nexts) = self.out_edges(current) {
                stack.extend(nexts.into_iter().map(|next| (next, current)));
            }
        }
        None
    }

    /// Number of transactions currently waiting.  An entry always has an
    /// out-edge, so zero waiters is also zero edges.
    pub fn waiting_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cycle_in_a_chain() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(2)]);
        g.set_waits_for(TxnId(2), [TxnId(3)]);
        assert_eq!(g.find_cycle_from(TxnId(1)), None);
        assert_eq!(g.find_cycle_from(TxnId(2)), None);
        assert_eq!(g.waiting_count(), 2);
    }

    #[test]
    fn long_cycle_detected_across_shards() {
        // A cycle longer than the shard count crosses shard boundaries and
        // has two members in one shard.
        let g = WaitForGraph::new();
        let n = SHARDS as u64 + 1;
        for i in 1..n {
            g.set_waits_for(TxnId(i), [TxnId(i + 1)]);
        }
        g.set_waits_for(TxnId(n), [TxnId(1)]);
        let cycle = g.find_cycle_from(TxnId(n)).unwrap();
        assert_eq!(cycle[0], TxnId(n));
        assert_eq!(cycle.len(), n as usize, "the whole ring is reported");
        assert_eq!(g.waiting_count(), n as usize);
        (1..=n).for_each(|i| g.clear_waits_of(TxnId(i)));
        assert_eq!(g.waiting_count(), 0);
    }

    #[test]
    fn removing_a_transaction_breaks_the_cycle() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(2)]);
        g.set_waits_for(TxnId(2), [TxnId(3)]);
        g.set_waits_for(TxnId(3), [TxnId(1)]);
        assert!(g.find_cycle_from(TxnId(1)).is_some());
        g.remove_txn(TxnId(2));
        assert_eq!(g.find_cycle_from(TxnId(1)), None);
        assert_eq!(g.find_cycle_from(TxnId(3)), None);
        assert_eq!(g.waiting_count(), 1, "T1 waited for T2 alone, T3 waits on");
    }

    #[test]
    fn self_edges_are_ignored() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(1)]);
        assert_eq!(g.find_cycle_from(TxnId(1)), None);
        assert_eq!(g.waiting_count(), 0);
    }

    #[test]
    fn a_wait_set_holds_several_blockers_and_a_finished_one_is_a_dead_end() {
        let g = WaitForGraph::new();
        // T1 waits for T2 and T3; T2 has finished, so it has no entry.
        g.set_waits_for(TxnId(1), [TxnId(2), TxnId(3)]);
        g.set_waits_for(TxnId(3), [TxnId(1)]);
        // The requester leads the cycle it closed.
        assert_eq!(g.find_cycle_from(TxnId(3)), Some(vec![TxnId(3), TxnId(1)]));
        assert!(!g.find_cycle_from(TxnId(1)).unwrap().contains(&TxnId(2)));
        g.clear_waits_of(TxnId(1));
        assert_eq!(g.find_cycle_from(TxnId(1)), None);
        // Txn 3 still waits for 1.
        assert_eq!(g.waiting_count(), 1);
    }

    #[test]
    fn diamond_without_cycle_is_clean() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(2), TxnId(3)]);
        g.set_waits_for(TxnId(2), [TxnId(4)]);
        g.set_waits_for(TxnId(3), [TxnId(4)]);
        assert_eq!(g.find_cycle_from(TxnId(1)), None);
    }

    #[test]
    fn fewest_locks_victim_prefers_lightest_then_youngest() {
        let cycle = [TxnId(5), TxnId(2), TxnId(9)];
        // Distinct weights: TxnId(2) holds the fewest locks.
        let victim = select_victim(&cycle, |t| t.0 as usize);
        assert_eq!(victim, TxnId(2));
        // All weights equal: the youngest (largest id) loses the tie.
        let victim = select_victim(&cycle, |_| 3);
        assert_eq!(victim, TxnId(9));
    }

    #[test]
    fn doom_fires_parked_event_and_is_consumed_once() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(2)]);
        let event = OsEvent::acquire_pooled();
        g.attach_waiter_event(TxnId(1), Arc::clone(&event));
        assert!(g.doom(TxnId(1)));
        assert!(event.is_set(), "doom must fire the parked event");
        assert!(g.take_doomed(TxnId(1)));
        assert!(!g.take_doomed(TxnId(1)), "the mark is consumed on read");
        // A transaction with no graph entry cannot be doomed.
        assert!(!g.doom(TxnId(42)));
        g.clear_waits_of(TxnId(1));
        assert!(!g.take_doomed(TxnId(1)), "cleared entries drop the mark");
    }
}
