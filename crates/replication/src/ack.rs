//! The semi-sync acknowledgement protocol: per-replica ack positions and
//! the semi-sync ↔ degraded state.
//!
//! Acknowledgements are *cumulative binlog positions*, not transaction ids:
//! the primary retains every shipped [`txsql_core::BinlogTxn`] in an
//! append-only buffer and addresses deliveries by index, so an ack of `p`
//! means "I have applied every binlog entry below `p`".  Position-based acks
//! make gaps detectable (a replica that missed a batch nacks with the
//! position it expected, and the primary re-ships the hole from the retained
//! buffer) and make duplicate deliveries harmless — the properties the
//! degrade → re-sync cycle needs to never lose or double-apply a batch.
//!
//! The state machine mirrors MySQL's `rpl_semi_sync` master plugin with
//! `wait_for_slave_count = 1`: a commit waits for one replica to ack its
//! position within the hook's ack timeout
//! ([`crate::ReplicationHookBuilder::ack_timeout`]); a timeout **degrades**
//! shipping to asynchronous (commits stop waiting — the primary survives a
//! stalled follower tier at the cost of its durability guarantee, counted in
//! `degraded_commits`), and once a replica has acknowledged the binlog end
//! the hook **re-syncs** and commits wait again.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use txsql_core::OsEvent;

/// Whether commits currently wait for replica acks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncState {
    /// Commits wait for the ack quorum (normal operation).
    SemiSync,
    /// An ack wait timed out; commits ship asynchronously until the replicas
    /// catch back up.
    Degraded,
}

/// Per-replica cumulative acknowledged binlog positions, and the threads
/// waiting for one of them to advance.
#[derive(Debug)]
pub struct AckTracker {
    state: Mutex<AckState>,
}

#[derive(Debug)]
struct AckState {
    acked: Vec<u64>,
    /// How many times a position has advanced: what a waiter compares
    /// against to know whether it missed an ack between its check and its
    /// park.
    advances: u64,
    /// Parked ack / catch-up waiters; all are woken by the next advance.
    waiters: Vec<Arc<OsEvent>>,
}

impl AckTracker {
    /// A tracker for `n_replicas` replicas, all at position 0.
    pub fn new(n_replicas: usize) -> Self {
        Self {
            state: Mutex::new(AckState {
                acked: vec![0; n_replicas],
                advances: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Records a cumulative ack: replica `replica` has applied everything
    /// below `pos`.  Acks never move backwards (a late-arriving duplicate
    /// ack cannot regress the position).  An advance wakes every thread
    /// parked in [`AckTracker::wait_advance`].
    pub fn record(&self, replica: usize, pos: u64) {
        let woken = {
            let mut state = self.state.lock();
            if pos <= state.acked[replica] {
                return;
            }
            state.acked[replica] = pos;
            state.advances += 1;
            std::mem::take(&mut state.waiters)
        };
        for event in woken {
            event.set();
        }
    }

    /// The number of advances recorded so far; read it *before* checking a
    /// position and hand it to [`AckTracker::wait_advance`].
    pub fn advances(&self) -> u64 {
        self.state.lock().advances
    }

    /// Parks until a position advances past the `seen` count or `timeout`
    /// elapses — an I/O wait: the ack crosses the network.  Returns at once
    /// when an advance was already missed.
    pub fn wait_advance(&self, seen: u64, timeout: Duration) {
        let event = {
            let mut state = self.state.lock();
            if state.advances != seen {
                return;
            }
            let event = OsEvent::acquire_pooled();
            state.waiters.push(Arc::clone(&event));
            event
        };
        let _ = event.wait_for(timeout);
        // Still listed after a timeout; dropping the list's clone is what
        // lets the event go back to the pool.
        self.state
            .lock()
            .waiters
            .retain(|waiter| !Arc::ptr_eq(waiter, &event));
        OsEvent::recycle(event);
    }

    /// The position `replica` has acknowledged.
    pub fn acked_pos(&self, replica: usize) -> u64 {
        self.state.lock().acked[replica]
    }

    /// The slowest replica's acknowledged position.
    pub fn min_acked(&self) -> u64 {
        self.state.lock().acked.iter().copied().min().unwrap_or(0)
    }

    /// How many replicas have acknowledged at least `pos` — the quorum test
    /// for a commit whose batch ends at binlog position `pos`.
    pub fn count_at_least(&self, pos: u64) -> usize {
        let state = self.state.lock();
        state.acked.iter().filter(|&&p| p >= pos).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_are_cumulative_and_never_regress() {
        let tracker = AckTracker::new(2);
        tracker.record(0, 5);
        tracker.record(0, 3);
        assert_eq!(tracker.acked_pos(0), 5);
        assert_eq!(tracker.acked_pos(1), 0);
        assert_eq!(tracker.min_acked(), 0);
        tracker.record(1, 7);
        assert_eq!(tracker.min_acked(), 5);
    }

    #[test]
    fn quorum_counts_replicas_at_or_past_the_position() {
        let tracker = AckTracker::new(3);
        tracker.record(0, 10);
        tracker.record(1, 10);
        tracker.record(2, 4);
        assert_eq!(tracker.count_at_least(10), 2);
        assert_eq!(tracker.count_at_least(4), 3);
        assert_eq!(tracker.count_at_least(11), 0);
    }

    #[test]
    fn wait_advance_returns_on_an_ack_and_never_misses_one() {
        let tracker = Arc::new(AckTracker::new(1));
        // An advance between the caller's check and its wait is not slept
        // through (the long timeout would fail the test run).
        let seen = tracker.advances();
        tracker.record(0, 1);
        tracker.wait_advance(seen, Duration::from_secs(60));
        // A duplicate ack is no advance; a parked waiter wakes on a real one.
        let seen = tracker.advances();
        tracker.record(0, 1);
        assert_eq!(tracker.advances(), seen);
        let waiter = {
            let tracker = Arc::clone(&tracker);
            std::thread::spawn(move || tracker.wait_advance(seen, Duration::from_secs(60)))
        };
        while tracker.state.lock().waiters.is_empty() {
            std::thread::yield_now();
        }
        tracker.record(0, 2);
        waiter.join().unwrap();
        assert!(tracker.state.lock().waiters.is_empty());
        // A timeout leaves no waiter behind.
        tracker.wait_advance(tracker.advances(), Duration::from_millis(1));
        assert!(tracker.state.lock().waiters.is_empty());
    }
}
