//! Simulated durability and replication latencies.
//!
//! The paper's headline effect — group locking pays off most when transaction
//! latency is high (Figure 2b, Figure 9) — depends on the time a transaction
//! holds its locks across the commit path: binlog flush, fsync, and for
//! semi-synchronous replication a network round trip to the replicas.  We do
//! not have the paper's SSDs or 1.033 ms datacentre network, so the commit
//! pipeline consumes a configurable [`LatencyModel`] instead: a flush time
//! and a network delay, both on the commit path.  Setting both to zero
//! turns the engine into a pure in-memory system.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Latency knobs for the commit path and replication.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Simulated duration of a binlog/redo fsync (the Sync stage of the 2PC
    /// commit phase).  Group commit amortises this across a batch.
    pub fsync: Duration,
    /// Simulated one-way network latency to a replica.
    pub network_one_way: Duration,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl LatencyModel {
    /// No artificial latency at all: pure in-memory execution.
    pub const fn in_memory() -> Self {
        Self {
            fsync: Duration::ZERO,
            network_one_way: Duration::ZERO,
        }
    }

    /// A "local SSD" profile: a cheap but non-zero fsync, no replication.
    /// Used by most figure harnesses as the asynchronous-replication setting.
    pub const fn local_ssd() -> Self {
        Self {
            fsync: Duration::from_micros(100),
            network_one_way: Duration::ZERO,
        }
    }

    /// A semi-synchronous replication profile approximating the paper's
    /// testbed (average network latency 1.033 ms between servers, §6.1).
    pub const fn semi_sync_replication() -> Self {
        Self {
            fsync: Duration::from_micros(100),
            network_one_way: Duration::from_micros(1_033),
        }
    }

    /// Round-trip time to a replica (ack required in semi-sync mode).
    pub fn network_round_trip(&self) -> Duration {
        self.network_one_way * 2
    }
}

/// Busy-waits (for sub-100µs pauses) or sleeps for `d`.
///
/// Thread sleeps on Linux have ~50µs+ of scheduler noise, which would swamp
/// the 100µs-scale fsync simulation; the hybrid spin keeps short pauses
/// accurate while long pauses (network RTT) still yield the CPU.
pub fn simulate_delay(d: Duration) {
    if d.is_zero() {
        return;
    }
    if let Some(handle) = txsql_sim::current() {
        // Under deterministic simulation the pause consumes *virtual* time
        // and becomes a preemption point instead of burning wall clock.  The
        // clock is a global resource: timing-dependent interleavings stay
        // fully explored under the POR filter.
        handle.advance(d);
        handle.yield_at(txsql_sim::Resource::global(txsql_sim::ResourceKind::Clock));
        return;
    }
    if d < Duration::from_micros(100) {
        let start = std::time::Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn semi_sync_has_network_latency() {
        let m = LatencyModel::semi_sync_replication();
        assert_eq!(m.network_round_trip(), Duration::from_micros(2_066));
        assert!(m.network_round_trip() > m.fsync);
    }

    #[test]
    fn simulate_delay_zero_returns_immediately() {
        let start = Instant::now();
        simulate_delay(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn simulate_delay_waits_roughly_requested_time() {
        let start = Instant::now();
        simulate_delay(Duration::from_micros(200));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(200));
        assert!(elapsed < Duration::from_millis(50), "took {elapsed:?}");
    }

    #[test]
    fn latency_model_serialises() {
        let m = LatencyModel::semi_sync_replication();
        let json = serde_json::to_string(&m).unwrap();
        let back: LatencyModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
