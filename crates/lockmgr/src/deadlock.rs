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
//! never all existed at a single instant (a *spurious* deadlock: the
//! requester aborts and retries — safe, just wasted work), and two requests
//! that close one cycle at the same instant can each miss the other's edges,
//! leaving the cycle to the lock-wait timeout.  Trading occasional spurious
//! aborts under heavy churn for never freezing every waiter behind one
//! detection mutex is the standard choice for sharded detectors; debuggers
//! of abort-rate anomalies should keep the false-positive mode in mind.
//!
//! ## The victim is the requester
//!
//! The check runs when a wait begins, and only the request that found a
//! cycle through itself dies ([`WaitForGraph::has_cycle_through`]).  Before
//! that wait the graph had no cycle (but for one the race above let through,
//! which the timeout ends), so every cycle the new edges close runs through
//! the requester, and aborting it breaks them all (PostgreSQL's rule: the
//! backend whose check finds the cycle aborts).

use parking_lot::Mutex;
use txsql_common::fxhash::{self, FxHashMap, FxHashSet};
use txsql_common::pad::CachePadded;
use txsql_common::TxnId;

/// Number of waiter shards (waits are rare relative to acquisitions; 64
/// shards keeps the footprint small while eliminating cross-waiter
/// contention).
const SHARDS: usize = 64;

/// Waiter -> the transactions it waits for, for the waiters of one shard.
type Shard = FxHashMap<TxnId, Vec<TxnId>>;

/// A dynamic wait-for graph, sharded by waiter.
#[derive(Debug)]
pub struct WaitForGraph {
    /// waiter -> transactions it waits for, sharded by waiter id.
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
    /// most one lock at a time), touching only the waiter's own shard.
    pub fn set_waits_for(&self, waiter: TxnId, holders: impl IntoIterator<Item = TxnId>) {
        let out: Vec<TxnId> = holders.into_iter().filter(|h| *h != waiter).collect();
        let mut shard = self.shard_for(waiter).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        if out.is_empty() {
            shard.remove(&waiter);
        } else {
            shard.insert(waiter, out);
        }
    }

    /// Removes `txn`'s entry and every edge pointing to it: it finished, and
    /// the waiters still queued on a record it held name it.  Takes the
    /// shards one at a time.
    pub fn remove_txn(&self, txn: TxnId) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            let _scope = crate::wake_check::GuardScope::enter();
            guard.retain(|waiter, out| {
                out.retain(|t| *t != txn);
                *waiter != txn && !out.is_empty()
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

    /// Pushes one waiter's out-edges onto `stack` (locks only that waiter's
    /// shard).
    fn push_out_edges(&self, waiter: TxnId, stack: &mut Vec<TxnId>) {
        let shard = self.shard_for(waiter).lock();
        let _scope = crate::wake_check::GuardScope::enter();
        if let Some(out) = shard.get(&waiter) {
            stack.extend_from_slice(out);
        }
    }

    /// Depth-first search: does a cycle pass through `start`?  Each node's
    /// edges are read under that node's shard guard only.
    pub fn has_cycle_through(&self, start: TxnId) -> bool {
        let mut visited: FxHashSet<TxnId> = FxHashSet::default();
        let mut stack = Vec::new();
        self.push_out_edges(start, &mut stack);
        while let Some(current) = stack.pop() {
            if current == start {
                return true;
            }
            if visited.insert(current) {
                self.push_out_edges(current, &mut stack);
            }
        }
        false
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
        assert!(!g.has_cycle_through(TxnId(1)));
        assert!(!g.has_cycle_through(TxnId(2)));
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
        assert!(g.has_cycle_through(TxnId(n)));
        assert!(g.has_cycle_through(TxnId(1)), "every ring member is on it");
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
        assert!(g.has_cycle_through(TxnId(1)));
        g.remove_txn(TxnId(2));
        assert!(!g.has_cycle_through(TxnId(1)));
        assert!(!g.has_cycle_through(TxnId(3)));
        assert_eq!(g.waiting_count(), 1, "T1 waited for T2 alone, T3 waits on");
    }

    #[test]
    fn self_edges_are_ignored() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(1)]);
        assert!(!g.has_cycle_through(TxnId(1)));
        assert_eq!(g.waiting_count(), 0);
    }

    #[test]
    fn a_wait_set_holds_several_blockers_and_a_finished_one_is_a_dead_end() {
        let g = WaitForGraph::new();
        // T1 waits for T2 and T3; T2 has finished, so it has no entry.
        g.set_waits_for(TxnId(1), [TxnId(2), TxnId(3)]);
        g.set_waits_for(TxnId(3), [TxnId(1)]);
        assert!(g.has_cycle_through(TxnId(3)));
        assert!(g.has_cycle_through(TxnId(1)));
        assert!(!g.has_cycle_through(TxnId(2)), "T2 finished");
        g.clear_waits_of(TxnId(1));
        assert!(!g.has_cycle_through(TxnId(1)));
        // Txn 3 still waits for 1.
        assert_eq!(g.waiting_count(), 1);
    }

    #[test]
    fn diamond_without_cycle_is_clean() {
        let g = WaitForGraph::new();
        g.set_waits_for(TxnId(1), [TxnId(2), TxnId(3)]);
        g.set_waits_for(TxnId(2), [TxnId(4)]);
        g.set_waits_for(TxnId(3), [TxnId(4)]);
        assert!(!g.has_cycle_through(TxnId(1)));
    }
}
