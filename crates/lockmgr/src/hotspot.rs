//! Hotspot detection and the `hot_row_hash` registry (§4.1).
//!
//! A row becomes a *hotspot* when the number of transactions waiting for its
//! lock exceeds a threshold (the paper uses 32 as a rule of thumb).  Once
//! promoted, the row's identifier lives in the `hot_row_hash`; subsequent
//! update transactions take the queue-locking (O2) or group-locking (TXSQL)
//! path instead of the plain lock manager.  A background sweeper periodically
//! demotes rows that no longer have waiters, reverting them to standard 2PL.
//!
//! Detection is deliberately lightweight: the only signal is the wait-queue
//! length the lock manager already knows, observed at the moment a
//! transaction is about to wait.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap, FxHashSet};
use txsql_common::pad::CachePadded;
use txsql_common::RecordId;

/// Shards for the `hot_row_hash` and the recent-wait counters.  `is_hot` is
/// consulted on every hotspot-capable acquisition, so even its read lock
/// must not be a single global cache line.
const HOT_SHARDS: usize = 64;

/// One shard of the hot-row set.
type HotShard = CachePadded<RwLock<FxHashSet<u64>>>;
/// One shard of the recent-wait counters.
type RecentShard = CachePadded<RwLock<FxHashMap<u64, u64>>>;

/// Configuration of hotspot detection.
#[derive(Debug, Clone)]
pub struct HotspotConfig {
    /// Queue length at which a row is promoted to hotspot (paper: 32).
    pub promote_threshold: usize,
    /// How often the background sweeper checks for cold rows.
    pub sweep_interval: Duration,
    /// Master switch: when false, nothing is ever promoted (plain 2PL / O1).
    pub enabled: bool,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            promote_threshold: 32,
            sweep_interval: Duration::from_millis(50),
            enabled: true,
        }
    }
}

impl HotspotConfig {
    /// A configuration with hotspot handling disabled.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Overrides the promotion threshold.
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.promote_threshold = threshold.max(1);
        self
    }
}

/// The `hot_row_hash`: which rows are currently treated as hotspots,
/// sharded by record so promotion checks on unrelated rows never touch the
/// same lock.
#[derive(Debug)]
pub struct HotspotRegistry {
    config: HotspotConfig,
    hot_rows: Box<[HotShard]>,
    /// Rows declared hot by the workload ([`HotspotRegistry::pin`]): the
    /// sweeper never demotes them, only an explicit
    /// [`HotspotRegistry::demote`] does.
    pinned_rows: Box<[HotShard]>,
    /// Cumulative wait observations per record since the last sweep — used by
    /// the sweeper to decide whether a hotspot is still hot.
    recent_waits: Box<[RecentShard]>,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl HotspotRegistry {
    /// Creates a registry.
    pub fn new(config: HotspotConfig) -> Self {
        Self {
            config,
            hot_rows: (0..HOT_SHARDS)
                .map(|_| CachePadded::new(RwLock::new(FxHashSet::default())))
                .collect(),
            pinned_rows: (0..HOT_SHARDS)
                .map(|_| CachePadded::new(RwLock::new(FxHashSet::default())))
                .collect(),
            recent_waits: (0..HOT_SHARDS)
                .map(|_| CachePadded::new(RwLock::new(FxHashMap::default())))
                .collect(),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_idx(key: u64) -> usize {
        (fxhash::hash_u64(key) % HOT_SHARDS as u64) as usize
    }

    /// The configuration in force.
    pub fn config(&self) -> &HotspotConfig {
        &self.config
    }

    /// Is this record currently a hotspot?
    #[inline]
    pub fn is_hot(&self, record: RecordId) -> bool {
        if !self.config.enabled {
            return false;
        }
        let key = record.packed();
        self.hot_rows[Self::shard_idx(key)].read().contains(&key)
    }

    /// Reports that a transaction is about to wait for `record` behind
    /// `queue_len` other waiters.  Promotes the record when the threshold is
    /// crossed.  Returns true when the record is (now) hot.
    pub fn observe_wait(&self, record: RecordId, queue_len: usize) -> bool {
        if !self.config.enabled {
            return false;
        }
        let key = record.packed();
        let idx = Self::shard_idx(key);
        {
            let mut recent = self.recent_waits[idx].write();
            *recent.entry(key).or_insert(0) += 1;
        }
        if self.hot_rows[idx].read().contains(&key) {
            return true;
        }
        if queue_len >= self.config.promote_threshold {
            let mut hot = self.hot_rows[idx].write();
            if hot.insert(key) {
                self.promotions.fetch_add(1, Ordering::Relaxed);
            }
            true
        } else {
            false
        }
    }

    /// Force-promotes a record (used by tests and by workloads that declare
    /// a known hotspot up front, mirroring PolarDB-style hints for
    /// comparison experiments).  The promotion is subject to the sweeper's
    /// normal decay; use [`HotspotRegistry::pin`] for a declaration that
    /// must outlive idle periods.
    pub fn promote(&self, record: RecordId) {
        let key = record.packed();
        if self.hot_rows[Self::shard_idx(key)].write().insert(key) {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Declares a record hot for the lifetime of the workload: promotes it
    /// and exempts it from sweeper decay, so a declared hotspot stays hot
    /// through calm phases where no transaction ever waits for it.  Only an
    /// explicit [`HotspotRegistry::demote`] undoes a pin.
    pub fn pin(&self, record: RecordId) {
        let key = record.packed();
        let idx = Self::shard_idx(key);
        self.pinned_rows[idx].write().insert(key);
        if self.hot_rows[idx].write().insert(key) {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Demotes a record back to plain 2PL (clearing any pin).
    pub fn demote(&self, record: RecordId) {
        let key = record.packed();
        let idx = Self::shard_idx(key);
        self.pinned_rows[idx].write().remove(&key);
        if self.hot_rows[idx].write().remove(&key) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One sweeper pass: demote every hot row that both (a) saw no waits since
    /// the previous sweep and (b) currently has no waiting transactions
    /// according to `has_waiters`.
    pub fn sweep<F: Fn(RecordId) -> bool>(&self, has_waiters: F) -> usize {
        if !self.config.enabled {
            return 0;
        }
        let mut demoted = 0;
        for idx in 0..HOT_SHARDS {
            let recent = std::mem::take(&mut *self.recent_waits[idx].write());
            let pinned = self.pinned_rows[idx].read();
            let mut hot = self.hot_rows[idx].write();
            hot.retain(|key| {
                let record = RecordId::from_packed(*key);
                let seen_recent_waits = recent.get(key).copied().unwrap_or(0) > 0;
                let keep = pinned.contains(key) || seen_recent_waits || has_waiters(record);
                if !keep {
                    demoted += 1;
                }
                keep
            });
        }
        self.demotions.fetch_add(demoted as u64, Ordering::Relaxed);
        demoted
    }

    /// Lifetime promotion count.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Lifetime demotion count.
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: RecordId = RecordId::new(1, 0, 0);
    const COLD: RecordId = RecordId::new(1, 0, 1);

    #[test]
    fn promotion_happens_at_threshold() {
        let reg = HotspotRegistry::new(HotspotConfig::default().with_threshold(4));
        assert!(!reg.observe_wait(HOT, 1));
        assert!(!reg.observe_wait(HOT, 3));
        assert!(!reg.is_hot(HOT));
        assert!(reg.observe_wait(HOT, 4));
        assert!(reg.is_hot(HOT));
        assert!(!reg.is_hot(COLD));
        assert_eq!(reg.promotions(), 1);
    }

    #[test]
    fn disabled_registry_never_promotes() {
        let reg = HotspotRegistry::new(HotspotConfig::disabled());
        assert!(!reg.observe_wait(HOT, 1_000));
        assert!(!reg.is_hot(HOT));
        reg.promote(HOT); // manual promote still records, but is_hot honours the switch
        assert!(!reg.is_hot(HOT));
    }

    #[test]
    fn sweep_demotes_idle_rows_only() {
        let reg = HotspotRegistry::new(HotspotConfig::default().with_threshold(1));
        reg.observe_wait(HOT, 5);
        reg.observe_wait(COLD, 5);
        assert!(reg.is_hot(HOT) && reg.is_hot(COLD));
        // First sweep: both saw recent waits, nothing demoted.
        assert_eq!(reg.sweep(|_| false), 0);
        // Second sweep with no recent waits: HOT still has waiters, COLD not.
        assert_eq!(reg.sweep(|r| r == HOT), 1);
        assert!(reg.is_hot(HOT));
        assert!(!reg.is_hot(COLD));
        assert_eq!(reg.demotions(), 1);
    }

    #[test]
    fn manual_promote_and_demote() {
        let reg = HotspotRegistry::new(HotspotConfig::default());
        reg.promote(HOT);
        assert!(reg.is_hot(HOT));
        reg.demote(HOT);
        assert!(!reg.is_hot(HOT));
    }

    #[test]
    fn pinned_rows_survive_idle_sweeps() {
        let reg = HotspotRegistry::new(HotspotConfig::default());
        reg.pin(HOT);
        reg.promote(COLD);
        assert!(reg.is_hot(HOT) && reg.is_hot(COLD));
        // Two idle sweeps: the unpinned promotion decays, the pin holds.
        assert_eq!(reg.sweep(|_| false), 1);
        assert_eq!(reg.sweep(|_| false), 0);
        assert!(reg.is_hot(HOT));
        assert!(!reg.is_hot(COLD));
        // An explicit demote clears the pin for good.
        reg.demote(HOT);
        assert!(!reg.is_hot(HOT));
        reg.promote(HOT);
        assert_eq!(reg.sweep(|_| false), 1, "demote must clear the pin");
    }

    #[test]
    fn repeated_promotions_counted_once() {
        let reg = HotspotRegistry::new(HotspotConfig::default().with_threshold(1));
        reg.observe_wait(HOT, 2);
        reg.observe_wait(HOT, 2);
        reg.promote(HOT);
        assert_eq!(reg.promotions(), 1);
    }

    #[test]
    fn threshold_is_at_least_one() {
        let cfg = HotspotConfig::default().with_threshold(0);
        assert_eq!(cfg.promote_threshold, 1);
    }
}
