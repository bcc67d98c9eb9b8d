//! Hotspot detection and the `hot_row_hash` registry (§4.1).
//!
//! A row becomes a *hotspot* when the number of transactions waiting for its
//! lock exceeds a threshold (the paper uses 32 as a rule of thumb).  Once
//! promoted, the row has an entry in the `hot_row_hash`; subsequent update
//! transactions take the queue-locking (O2) or group-locking (TXSQL) path
//! instead of the plain lock manager.  A background sweeper periodically
//! demotes rows that no longer have waiters, reverting them to standard 2PL.
//!
//! Detection is deliberately lightweight: the only signal is the wait-queue
//! length the lock manager already knows, observed at the moment a
//! transaction is about to wait.  A row is hot exactly when the map has an
//! entry for it, the one record kept per row; a wait on a cold row below
//! the threshold reads one shard and writes nothing.
//!
//! The registry has no off switch: only the protocols that detect hotspots
//! report waits to it and run its sweeper, so under the others no row is
//! hot unless a caller promotes or pins one.

use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::pad::CachePadded;
use txsql_common::RecordId;

/// Shards of the `hot_row_hash`.  `is_hot` is consulted on every
/// hotspot-capable acquisition, so even its read lock must not be a single
/// global cache line.
const HOT_SHARDS: usize = 64;

/// What the registry keeps per hot row.
#[derive(Debug, Default)]
struct HotRow {
    /// Declared hot ([`HotspotRegistry::pin`]): only a `demote` ends it.
    pinned: bool,
    /// Waits seen since the last sweep, the promoting one included.
    waits: u64,
}

/// One shard of the `hot_row_hash`, keyed by packed record id.
type HotShard = CachePadded<RwLock<FxHashMap<u64, HotRow>>>;

/// Configuration of hotspot detection.
#[derive(Debug, Clone)]
pub struct HotspotConfig {
    /// Queue length at which a row is promoted to hotspot (paper: 32).
    pub promote_threshold: usize,
    /// How often the background sweeper checks for cold rows.
    pub sweep_interval: Duration,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            promote_threshold: 32,
            sweep_interval: Duration::from_millis(50),
        }
    }
}

impl HotspotConfig {
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
    rows: Box<[HotShard]>,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl HotspotRegistry {
    /// Creates a registry.
    pub fn new(config: HotspotConfig) -> Self {
        Self {
            config,
            rows: (0..HOT_SHARDS)
                .map(|_| CachePadded::new(RwLock::new(FxHashMap::default())))
                .collect(),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &RwLock<FxHashMap<u64, HotRow>> {
        &self.rows[(fxhash::hash_u64(key) % HOT_SHARDS as u64) as usize]
    }

    /// A new hot row's entry, counted as a promotion.
    fn promoted(&self) -> HotRow {
        self.promotions.fetch_add(1, Ordering::Relaxed);
        HotRow::default()
    }

    /// Is this record currently a hotspot?
    #[inline]
    pub fn is_hot(&self, record: RecordId) -> bool {
        let key = record.packed();
        self.shard(key).read().contains_key(&key)
    }

    /// Reports that a transaction is about to wait for `record` behind
    /// `queue_len` other waiters.  Promotes the record when the threshold is
    /// crossed.  Returns true when the record is (now) hot.
    pub fn observe_wait(&self, record: RecordId, queue_len: usize) -> bool {
        let key = record.packed();
        let promotes = queue_len >= self.config.promote_threshold;
        let shard = self.shard(key);
        if !promotes && !shard.read().contains_key(&key) {
            return false;
        }
        let mut rows = shard.write();
        let row = match rows.entry(key) {
            Entry::Occupied(row) => row.into_mut(),
            // Demoted between the two guards: as if the read came after.
            Entry::Vacant(_) if !promotes => return false,
            Entry::Vacant(row) => row.insert(self.promoted()),
        };
        row.waits += 1;
        true
    }

    /// Force-promotes a record (used by tests and by workloads that declare
    /// a known hotspot up front, mirroring PolarDB-style hints for
    /// comparison experiments).  The promotion is subject to the sweeper's
    /// normal decay; use [`HotspotRegistry::pin`] for a declaration that
    /// must outlive idle periods.
    pub fn promote(&self, record: RecordId) {
        let key = record.packed();
        self.shard(key)
            .write()
            .entry(key)
            .or_insert_with(|| self.promoted());
    }

    /// Declares a record hot for the lifetime of the workload: promotes it
    /// and exempts it from sweeper decay, so a declared hotspot stays hot
    /// through calm phases where no transaction ever waits for it.  Only an
    /// explicit [`HotspotRegistry::demote`] undoes a pin.
    pub fn pin(&self, record: RecordId) {
        let key = record.packed();
        let mut rows = self.shard(key).write();
        rows.entry(key).or_insert_with(|| self.promoted()).pinned = true;
    }

    /// Demotes a record back to plain 2PL (clearing any pin).
    pub fn demote(&self, record: RecordId) {
        let key = record.packed();
        if self.shard(key).write().remove(&key).is_some() {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One sweeper pass: demote every hot row that is not pinned, saw no
    /// waits since the previous sweep and currently has no waiting
    /// transactions according to `has_waiters`; the rows that stay start
    /// the next window at zero waits.
    pub fn sweep<F: Fn(RecordId) -> bool>(&self, has_waiters: F) -> usize {
        let mut demoted = 0;
        for shard in self.rows.iter() {
            shard.write().retain(|key, row| {
                let record = RecordId::from_packed(*key);
                let keep = row.pinned || row.waits > 0 || has_waiters(record);
                row.waits = 0;
                demoted += usize::from(!keep);
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
    fn waits_below_the_threshold_on_cold_rows_leave_no_entry() {
        let reg = HotspotRegistry::new(HotspotConfig::default().with_threshold(4));
        (0..100).for_each(|heap| assert!(!reg.observe_wait(RecordId::new(1, 0, heap), 3)));
        assert!(reg.rows.iter().all(|shard| shard.read().is_empty()));
    }

    #[test]
    fn threshold_is_at_least_one() {
        let cfg = HotspotConfig::default().with_threshold(0);
        assert_eq!(cfg.promote_threshold, 1);
    }
}
