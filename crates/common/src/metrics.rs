//! Lock-free metrics used to reproduce the paper's measurements.
//!
//! The evaluation section reports, per protocol and configuration:
//! throughput (TPS), 95th-percentile latency, the *lock-wait share* of that
//! latency (Figure 6c), the number of locks created per query (Figure 6d),
//! CPU utilisation (Figure 6b — we report a useful-work ratio instead:
//! [`EngineMetrics::utilization`]), abort and cascading-abort ratios
//! (Figure 10) and failure rate over time (Figure 11).  [`EngineMetrics`] collects all of those with
//! relaxed atomics so that metrics collection itself does not become a point
//! of contention.
//!
//! Everything the engine measures is one row of the `metrics_table!` below.
//! What fires on every lock cycle or statement is counted privately per
//! transaction instead, in a [`MetricsScratch`] flushed once when the
//! transaction finishes: such a per-transaction counter is one `scratch`
//! row, which makes it a field of both structs and of the flush.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A sampled gauge: mirrors the current size of a live structure (e.g.
/// lock-registry entries), written by `set` from the structure's own
/// (sharded) counts rather than maintained with hot-path arithmetic.
/// Unlike [`Counter`] it is *not* reset between measurement windows — it
/// reflects live state, not per-window traffic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value with a freshly sampled one.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: sub-microsecond to ~8.9 minutes in
/// power-of-two steps, which is plenty for transaction latencies.
const BUCKETS: usize = 40;

/// A log2-bucketed latency histogram supporting approximate percentiles.
///
/// Recording is a single relaxed `fetch_add`, so worker threads can record
/// every transaction without measurable overhead.  Percentile resolution is
/// one power of two, refined by linear interpolation inside the bucket, which
/// is accurate enough to reproduce the paper's p95 curves.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LatencyHistogram {
    /// Snapshots the atomics (relaxed, so a clone taken while writers are
    /// active is a consistent-enough point-in-time copy for reporting).
    fn clone(&self) -> Self {
        let copy = Self::new();
        for (dst, src) in copy.buckets.iter().zip(self.buckets.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        copy.count
            .store(self.count.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.sum_micros
            .store(self.sum_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.max_micros
            .store(self.max_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        copy
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_for(micros: u64) -> usize {
        // bucket i holds values in [2^i, 2^(i+1)) microseconds; bucket 0 holds 0–1us.
        (64 - micros.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one latency observation.
    #[inline]
    pub fn record(&self, latency: Duration) {
        self.record_micros(Self::micros(latency));
    }

    /// `latency` in the unit the buckets hold.
    #[inline]
    fn micros(latency: Duration) -> u64 {
        latency.as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Records a latency expressed in microseconds.
    #[inline]
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_for(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 if empty).
    pub fn mean_micros(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// Maximum observed latency in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Approximate percentile (`q` in `[0,1]`) in microseconds.
    pub fn percentile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = 1u64 << i;
                let within = (target - seen) as f64 / in_bucket as f64;
                return lo + ((hi - lo) as f64 * within) as u64;
            }
            seen += in_bucket;
        }
        self.max_micros()
    }

    /// Arbitrary percentile in milliseconds.
    pub fn percentile_millis(&self, q: f64) -> f64 {
        self.percentile_micros(q) as f64 / 1_000.0
    }

    /// Median latency in milliseconds.
    pub fn p50_millis(&self) -> f64 {
        self.percentile_millis(0.50)
    }

    /// 95th percentile latency in milliseconds — the unit the paper plots.
    pub fn p95_millis(&self) -> f64 {
        self.percentile_millis(0.95)
    }

    /// 99th percentile latency in milliseconds (tail the workload grid records).
    pub fn p99_millis(&self) -> f64 {
        self.percentile_millis(0.99)
    }

    /// Resets all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micros.store(0, Ordering::Relaxed);
        self.max_micros.store(0, Ordering::Relaxed);
    }

    /// Merges another histogram into this one (used when each worker keeps a
    /// thread-local histogram).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (i, b) in other.buckets.iter().enumerate() {
            self.buckets[i].fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_micros
            .fetch_add(other.sum_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_micros
            .fetch_max(other.max_micros(), Ordering::Relaxed);
    }
}

/// A single-owner [`Counter`]: a plain `Cell`, drained into the shared
/// counter by [`MetricsScratch::flush`].
#[derive(Debug, Default)]
pub struct ScratchCounter(Cell<u64>);

impl ScratchCounter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.set(self.0.get() + v);
    }

    fn is_empty(&self) -> bool {
        self.0.get() == 0
    }

    /// Moves the count into `shared`; returns it.
    fn drain(&self, shared: &Counter) -> u64 {
        let n = self.0.take();
        if n > 0 {
            shared.add(n);
        }
        n
    }
}

/// A single-owner [`LatencyHistogram`]: the same buckets as plain `Cell`s,
/// merged into the shared one bucket by bucket (full fidelity).  The buckets
/// are `u32` — a scratch counts one transaction's observations — because
/// every `Transaction` carries two of these by value through `begin`,
/// `commit` and `rollback`.
#[derive(Debug)]
pub struct ScratchHistogram {
    buckets: [Cell<u32>; BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    max: Cell<u64>,
}

impl Default for ScratchHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            max: Cell::new(0),
        }
    }
}

impl ScratchHistogram {
    /// Records one latency observation.
    #[inline]
    pub fn record(&self, latency: Duration) {
        self.record_micros(LatencyHistogram::micros(latency));
    }

    /// Records a value in the unit the buckets hold.
    #[inline]
    pub fn record_micros(&self, value: u64) {
        let bucket = &self.buckets[LatencyHistogram::bucket_for(value)];
        bucket.set(bucket.get() + 1);
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get() + value);
        self.max.set(self.max.get().max(value));
    }

    fn is_empty(&self) -> bool {
        self.count.get() == 0
    }

    /// Drains into `shared`; returns how many observations moved.
    fn drain(&self, shared: &LatencyHistogram) -> u64 {
        let count = self.count.take();
        if count > 0 {
            for (i, bucket) in self.buckets.iter().enumerate() {
                let n = bucket.take();
                if n > 0 {
                    shared.buckets[i].fetch_add(u64::from(n), Ordering::Relaxed);
                }
            }
            shared.count.fetch_add(count, Ordering::Relaxed);
            shared
                .sum_micros
                .fetch_add(self.sum.take(), Ordering::Relaxed);
            shared
                .max_micros
                .fetch_max(self.max.take(), Ordering::Relaxed);
        }
        count
    }
}

/// The single-owner stand-in of a `scratch` row's kind.
macro_rules! scratch_of {
    (Counter) => {
        ScratchCounter
    };
    (LatencyHistogram) => {
        ScratchHistogram
    };
}

impl MetricsScratch {
    /// A detached scratch: counts accumulate and stay (probes, and
    /// transactions created outside an engine).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch whose [`MetricsScratch::flush`] — and drop — drains into
    /// `target`.
    pub fn attached(target: Arc<EngineMetrics>) -> Self {
        let mut scratch = Self::default();
        scratch.target = Some(target);
        scratch
    }

    /// The owning transaction committed after `latency`, `blocked` of it
    /// spent waiting: the commit count, the latency histogram and the
    /// blocked / busy split all come from this one sample.
    pub fn on_commit(&self, latency: Duration, blocked: Duration) {
        self.commit.set(Some((latency, blocked)));
    }

    /// Drains everything recorded into the attached [`EngineMetrics`] with
    /// one atomic operation per non-zero counter or bucket, leaving the
    /// scratch empty; a detached scratch keeps its counts.  Safe to call
    /// repeatedly; dropping the scratch calls it, so no abort path loses
    /// counts.
    pub fn flush(&self) {
        let Some(metrics) = &self.target else {
            return;
        };
        if let Some((latency, blocked)) = self.commit.take() {
            metrics.committed.inc();
            metrics.txn_latency.record(latency);
            metrics.blocked_nanos.add(blocked.as_nanos() as u64);
            let busy = latency.saturating_sub(blocked);
            metrics.busy_nanos.add(busy.as_nanos() as u64);
        }
        self.drain_rows(metrics);
    }
}

impl Drop for MetricsScratch {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Labelled abort counters, keyed by [`crate::error::Error::label`].
#[derive(Debug, Default)]
pub struct AbortCounters {
    inner: Mutex<Vec<(&'static str, u64)>>,
}

impl AbortCounters {
    /// Records one abort with the given label.
    pub fn record(&self, label: &'static str) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.iter_mut().find(|(l, _)| *l == label) {
            entry.1 += 1;
        } else {
            inner.push((label, 1));
        }
    }

    /// Snapshot of `(label, count)` pairs.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let owned = |(label, count): &(&str, u64)| (label.to_string(), *count);
        self.inner.lock().iter().map(owned).collect()
    }

    /// Count for a specific label.
    pub fn get(&self, label: &str) -> u64 {
        self.inner
            .lock()
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Clears all counters.
    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

/// Structured abort-reason breakdown for one measurement window.
///
/// The raw [`AbortCounters`] list is keyed by `Error::label` strings; this
/// struct folds those labels into the classes the paper's contention analysis
/// distinguishes (deadlock vs wait-timeout vs Aria conflict vs cascade), plus
/// the driver-side retry count, so every recorded benchmark cell states *why*
/// its aborted share aborted without string matching at read time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AbortBreakdown {
    /// Wait-for-graph deadlock victims (`deadlock`).
    pub deadlocks: u64,
    /// Lock-wait timeouts (`lock_wait_timeout`), the §3.2 hot-row mechanism.
    pub wait_timeouts: u64,
    /// Proactive hot/non-hot deadlock rollbacks (`hotspot_deadlock_prevented`).
    pub hotspot_prevented: u64,
    /// Group-locking cascades (`cascading_abort`).
    pub cascading: u64,
    /// Bamboo dirty-read cascades (`dirty_read_aborted`).
    pub dirty_reads: u64,
    /// Aria batch-validation conflicts (`aria_validation_failed`).
    pub aria_conflicts: u64,
    /// Explicit / injected rollbacks (`explicit_rollback`).
    pub explicit_rollbacks: u64,
    /// Front-door admission sheds (`overloaded`): the transaction was
    /// rejected by a full hot-key admission queue before reaching the lock
    /// table.
    #[serde(default)]
    pub overloaded: u64,
    /// Aborts with any other label (integrity errors surfaced mid-run, ...).
    pub other: u64,
    /// Driver-side retries after a retryable abort — the front-door
    /// admission-retry traffic a scheduling layer would absorb.  Counted by
    /// the workload drivers, not the engine, so it is *not* a subset of the
    /// abort totals above: one transaction can retry many times.
    pub admission_retries: u64,
}

impl AbortBreakdown {
    /// Folds `(label, count)` pairs into the structured classes.
    pub fn from_causes(causes: &[(String, u64)], admission_retries: u64) -> Self {
        let mut breakdown = AbortBreakdown {
            admission_retries,
            ..Default::default()
        };
        for (label, count) in causes {
            match label.as_str() {
                "deadlock" => breakdown.deadlocks += count,
                "lock_wait_timeout" => breakdown.wait_timeouts += count,
                "hotspot_deadlock_prevented" => breakdown.hotspot_prevented += count,
                "cascading_abort" => breakdown.cascading += count,
                "dirty_read_aborted" => breakdown.dirty_reads += count,
                "aria_validation_failed" => breakdown.aria_conflicts += count,
                "explicit_rollback" => breakdown.explicit_rollbacks += count,
                "overloaded" => breakdown.overloaded += count,
                _ => breakdown.other += count,
            }
        }
        breakdown
    }

    /// Total engine-side aborts across all classes (excludes driver retries).
    pub fn total(&self) -> u64 {
        self.deadlocks
            + self.wait_timeouts
            + self.hotspot_prevented
            + self.cascading
            + self.dirty_reads
            + self.aria_conflicts
            + self.explicit_rollbacks
            + self.overloaded
            + self.other
    }
}

/// A metric [`EngineMetrics::reset`] knows how to start a new window for.
trait Metric {
    /// Clears what the last measurement window accumulated.
    fn reset(&self);
}

impl Metric for Counter {
    fn reset(&self) {
        self.take();
    }
}

impl Metric for Gauge {
    /// A gauge mirrors live state (in-flight transactions still own their
    /// registry entries, parked waiters are still parked): a new window does
    /// not change it.
    fn reset(&self) {}
}

impl Metric for LatencyHistogram {
    fn reset(&self) {
        LatencyHistogram::reset(self);
    }
}

impl Metric for AbortCounters {
    fn reset(&self) {
        AbortCounters::reset(self);
    }
}

/// Fills one derived [`MetricsSnapshot`] field; being a function gives the
/// table's closures their parameter types.
fn derived<T>(
    metrics: &EngineMetrics,
    elapsed: Duration,
    fill: impl FnOnce(&EngineMetrics, Duration) -> T,
) -> T {
    fill(metrics, elapsed)
}

/// The one table of engine metrics.  A `snapshot` row is a field of
/// [`MetricsSnapshot`], in the order the snapshot serialises: `name: Kind`
/// is also a field of [`EngineMetrics`], copied over under its own name;
/// `name: Type = |metrics, elapsed| …` is a ratio or percentile computed when
/// the snapshot is taken, most of them from the `internal` and `scratch`
/// rows, which only [`EngineMetrics`] has.  A `scratch` row is a metric a
/// transaction counts privately: it is a field of both [`EngineMetrics`] and
/// [`MetricsScratch`], recorded into the same way, and
/// [`MetricsScratch::flush`] drains the one into the other; `=> counter` also
/// adds the number of observations the row drained to `counter`.  `reset`
/// visits every metric (what a reset means is the row's kind's business, see
/// [`Metric`]).
macro_rules! metrics_table {
    (
        snapshot { $($rows:tt)* }
        internal { $($internal:tt)* }
        scratch { $($scratch:tt)* }
    ) => {
        metrics_table!(@row [] [] { $($rows)* } { $($internal)* } { $($scratch)* });
    };
    // A metric: an `EngineMetrics` field and the snapshot field it is copied to.
    (@row [$($metrics:tt)*] [$($fields:tt)*] {
        $(#[doc = $doc:literal])* $(#[serde($serde:ident)])? $name:ident: $kind:ident,
        $($rows:tt)*
    } $internal:tt $scratch:tt) => {
        metrics_table!(@row
            [$($metrics)* { $(#[doc = $doc])* $name: $kind }]
            [$($fields)* {
                $(#[doc = $doc])* $(#[serde($serde)])? $name: u64 = |m, _| m.$name.get()
            }]
            { $($rows)* } $internal $scratch);
    };
    // A derived snapshot field.
    (@row [$($metrics:tt)*] [$($fields:tt)*] {
        $(#[doc = $doc:literal])* $name:ident: $ty:ty = $fill:expr,
        $($rows:tt)*
    } $internal:tt $scratch:tt) => {
        metrics_table!(@row
            [$($metrics)*]
            [$($fields)* { $(#[doc = $doc])* $name: $ty = $fill }]
            { $($rows)* } $internal $scratch);
    };
    (@row
        [$({ $(#[doc = $mdoc:literal])* $metric:ident: $kind:ident })*]
        [$({
            $(#[doc = $doc:literal])* $(#[serde($serde:ident)])? $field:ident: $ty:ty = $fill:expr
        })*]
        {}
        { $( $(#[$idoc:meta])* $int:ident: $ikind:ty, )* }
        { $( $(#[$sdoc:meta])* $scr:ident: $skind:ident $(=> $count:ident)?, )* }
    ) => {
        /// All metrics the engine maintains while running a workload.
        #[derive(Debug, Default)]
        pub struct EngineMetrics {
            $( $(#[doc = $mdoc])* pub $metric: $kind, )*
            $( $(#[$idoc])* pub $int: $ikind, )*
            $( $(#[$sdoc])* pub $scr: $skind, )*
        }

        impl EngineMetrics {
            /// Starts a new measurement window: clears every counter,
            /// histogram and label, and leaves the gauges alone.
            pub fn reset(&self) {
                $( Metric::reset(&self.$metric); )*
                $( Metric::reset(&self.$int); )*
                $( Metric::reset(&self.$scr); )*
            }

            /// Takes a serialisable snapshot, computing TPS over `elapsed`.
            pub fn snapshot(&self, elapsed: Duration) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: derived(self, elapsed, $fill), )*
                }
            }
        }

        /// A point-in-time, serialisable view of [`EngineMetrics`].
        #[derive(Debug, Clone, Serialize, Deserialize, Default)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $doc])* $(#[serde($serde)])? pub $field: $ty, )*
        }

        /// A single-owner (per-transaction or per-bench-thread) scratch pad:
        /// one field per `scratch` row, recorded into exactly like the
        /// [`EngineMetrics`] field of the same name but with plain `Cell`
        /// arithmetic — no atomics, no sharing — plus the owner's commit
        /// sample.  [`MetricsScratch::flush`] drains it into the metrics it is
        /// attached to, at a commit or when the scratch drops.
        #[derive(Debug, Default)]
        pub struct MetricsScratch {
            $( $(#[$sdoc])* pub $scr: scratch_of!($skind), )*
            /// `(latency, blocked)` of the owner's commit, once it committed.
            commit: Cell<Option<(Duration, Duration)>>,
            /// Where a flush drains to; `None` keeps the counts.
            target: Option<Arc<EngineMetrics>>,
        }

        impl MetricsScratch {
            /// True when nothing has been recorded since the last flush.
            pub fn is_empty(&self) -> bool {
                $( self.$scr.is_empty() && )* self.commit.get().is_none()
            }

            /// Drains every row into `metrics`.
            fn drain_rows(&self, metrics: &EngineMetrics) {
                $(
                    let _drained = self.$scr.drain(&metrics.$scr);
                    $( if _drained > 0 {
                        metrics.$count.add(_drained);
                    } )?
                )*
            }
        }
    };
}

metrics_table! {
    snapshot {
        /// Measurement window length in seconds.
        elapsed_secs: f64 = |_, elapsed| elapsed.as_secs_f64(),
        /// Committed transactions.
        committed: Counter,
        /// Aborted transactions (all causes).
        aborted: Counter,
        /// Aborts that were part of a cascade (Figure 10 left).
        cascading_aborts: Counter,
        /// Transactions per second.
        tps: f64 = |m, elapsed| m.committed.get() as f64 / elapsed.as_secs_f64().max(1e-9),
        /// aborted / (aborted + committed).
        abort_ratio: f64 = |m, _| m.abort_ratio(),
        /// cascading aborts / (aborted + committed).
        cascade_abort_ratio: f64 = |m, _| m.cascade_abort_ratio(),
        /// Median end-to-end latency (ms).
        p50_latency_ms: f64 = |m, _| m.txn_latency.p50_millis(),
        /// 99th percentile end-to-end latency (ms).
        p99_latency_ms: f64 = |m, _| m.txn_latency.p99_millis(),
        /// 95th percentile end-to-end latency (ms).
        p95_latency_ms: f64 = |m, _| m.txn_latency.p95_millis(),
        /// Mean end-to-end latency (ms).
        mean_latency_ms: f64 = |m, _| m.txn_latency.mean_micros() / 1_000.0,
        /// 95th percentile lock-wait time (ms).
        p95_lock_wait_ms: f64 = |m, _| m.lock_wait_latency.p95_millis(),
        /// Mean lock-wait time (ms).
        mean_lock_wait_ms: f64 = |m, _| m.lock_wait_latency.mean_micros() / 1_000.0,
        /// Number of `lock_t` objects created (Figure 6d numerator).
        locks_created: u64 = |m, _| m.locks_created.get(),
        /// Record locks released (individually or via release-all), making
        /// bookkeeping churn observable next to `locks_created`.
        locks_released: u64 = |m, _| m.locks_released.get(),
        /// Live `(txn, record)` entries across the sharded lock registries —
        /// the decentralized successor of the global `txn_locks` map.  Sampled
        /// from the registries' per-shard counts at snapshot time (never updated
        /// on the lock hot path).  A non-zero value with no active transactions
        /// indicates leaked bookkeeping.
        lock_registry_entries: Gauge,
        /// Lock objects created per query (Figure 6d).
        locks_per_query: f64 = |m, _| m.locks_per_query(),
        /// Number of lock requests that had to wait.
        lock_waits: Counter,
        /// Shard-mutex acquisitions on the lock **release** paths: one per page
        /// (or row-shard) group drained by the lock tables and one per registry
        /// batch (`forget_records_in` / `take_all_in`).  The denominator for release
        /// batching: a batch takes each shard once, so takes per released lock
        /// fall as a transaction's locks share shards.
        release_shard_locks: u64 = |m, _| m.release_shard_locks.get(),
        /// Number of deadlock-detector runs.
        deadlock_checks: Counter,
        /// Number of transactions that entered a hotspot group (leader or follower).
        hotspot_group_entries: u64 = |m, _| m.hotspot_group_entries.get(),
        /// Number of groups formed by group locking.
        groups_formed: u64 = |m, _| m.groups_formed.get(),
        /// Rollbacks that undid out of turn after their turn wait timed out.
        #[serde(default)]
        rollback_turn_timeouts: Counter,
        /// Useful-work ratio (CPU utilisation proxy).
        utilization: f64 = |m, _| m.utilization(),
        /// Group-commit batches flushed by the commit pipeline.
        commit_batches: Counter,
        /// Batches led from a held stage: a committer that found the stage
        /// free queued for up to one sync, and the next arrival took its
        /// queue plus itself through one flush.
        #[serde(default)]
        commit_held_batches: Counter,
        /// Holds whose sync passed with nobody back: the holder flushed its
        /// queue itself.
        #[serde(default)]
        commit_hold_expired: Counter,
        /// Injected crash points that fired (fault-injection runs only).
        crash_injected: Counter,
        /// Fsync attempts retried after a transient injected error.
        fsync_retries: Counter,
        /// Redo records replayed by `Database::restart_from_crash`.
        recovery_replayed: Counter,
        /// Redo records dropped by checkpoint-time log truncation.
        wal_truncated_records: Counter,
        /// Semi-sync ack waits that hit the `rpl_semi_sync`-style timeout and
        /// degraded the pipeline to asynchronous shipping.
        semi_sync_timeouts: Counter,
        /// Commits acknowledged to the client while the pipeline was degraded
        /// (shipped asynchronously, no replica ack backing them).
        degraded_commits: Counter,
        /// Degraded→semi-sync transitions: the replicas caught back up within
        /// the configured re-sync lag and ack waiting resumed.
        semi_sync_resyncs: Counter,
        /// Shipping attempts retried after a transient injected ship error.
        ship_retries: Counter,
        /// Replica lag in binlog batches: retained binlog length minus the
        /// slowest replica's acknowledged position.  A live gauge sampled on
        /// the shipping path, not reset between windows.
        replica_lag: Gauge,
        /// Driver-side retries after a retryable abort: each time a closed-loop
        /// or fixed-TPS worker re-submits a transaction that aborted on
        /// contention.  This is the retry-storm traffic arriving at the front
        /// door — the signal the ROADMAP's admission-control layer will consume.
        admission_retries: Counter,
        /// Transactions that waited in a hot-key admission queue before being
        /// admitted (the front-door serialization the admission layer applies to
        /// declared-hot-key transactions).
        #[serde(default)]
        admission_queued: Counter,
        /// Transactions shed by admission control: rejected with
        /// `Error::Overloaded` because a hot-key queue was at capacity or inside
        /// its post-shed hysteresis window.
        #[serde(default)]
        admission_shed: Counter,
        /// Driver-side retry loops that gave up because their retry budget was
        /// exhausted (the transaction is reported failed instead of retried).
        #[serde(default)]
        retry_budget_exhausted: Counter,
        /// Backoff sleeps taken by the drivers' budgeted retry loops (one per
        /// retry that waited before re-submitting).
        #[serde(default)]
        backoff_waits: Counter,
        /// Live waiters across all hot-key admission queues.  Sampled by the
        /// admission controller on enqueue/dequeue; like the other gauges it is
        /// *not* reset between windows — a non-zero value after a burst drains
        /// means a wedged queue.
        #[serde(default)]
        admission_queue_depth: Gauge,
        /// Structured abort-reason breakdown (see [`AbortBreakdown`]).
        abort_breakdown: AbortBreakdown = |m, _| m.abort_breakdown(),
        /// Per-cause abort counts.
        abort_causes: Vec<(String, u64)> = |m, _| m.abort_causes.snapshot(),
    }
    internal {
        /// Per-cause abort counters.
        abort_causes: AbortCounters,
        /// End-to-end transaction latency.
        txn_latency: LatencyHistogram,
        /// Nanoseconds spent doing useful work (executing statements / commit logic).
        busy_nanos: Counter,
        /// Nanoseconds spent blocked (waiting for locks, queues or group wake-ups).
        blocked_nanos: Counter,
        /// Transactions that went through the binlog sync stage.
        commit_synced: Counter,
    }
    scratch {
        /// Queries (statements) executed (Figure 6d denominator).
        queries: Counter,
        /// Lock objects created (Figure 6d numerator).
        locks_created: Counter,
        /// Record locks released.
        locks_released: Counter,
        /// Shard-mutex acquisitions on the lock release paths.
        release_shard_locks: Counter,
        /// Groups formed by group locking.
        groups_formed: Counter,
        /// Transactions that entered a hotspot group (leader or follower).
        hotspot_group_entries: Counter,
        /// Time spent waiting for locks (the inner bar of Figure 6c); each
        /// observation a scratch drains is also one `lock_waits`.
        lock_wait_latency: LatencyHistogram => lock_waits,
    }
}

impl EngineMetrics {
    /// Creates a fresh metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// CPU-utilisation proxy: fraction of worker time spent doing useful work
    /// rather than being blocked.
    pub fn utilization(&self) -> f64 {
        let busy = self.busy_nanos.get() as f64;
        let blocked = self.blocked_nanos.get() as f64;
        if busy + blocked == 0.0 {
            0.0
        } else {
            busy / (busy + blocked)
        }
    }

    /// Locks created per executed query (Figure 6d).
    pub fn locks_per_query(&self) -> f64 {
        let q = self.queries.get();
        if q == 0 {
            0.0
        } else {
            self.locks_created.get() as f64 / q as f64
        }
    }

    /// Abort ratio: aborts / (aborts + commits).
    pub fn abort_ratio(&self) -> f64 {
        let a = self.aborted.get() as f64;
        let c = self.committed.get() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }

    /// Cascade abort ratio: cascading aborts / (aborts + commits).
    pub fn cascade_abort_ratio(&self) -> f64 {
        let a = self.aborted.get() as f64;
        let c = self.committed.get() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            self.cascading_aborts.get() as f64 / (a + c)
        }
    }

    /// Structured abort-reason breakdown of the current window.
    pub fn abort_breakdown(&self) -> AbortBreakdown {
        let causes = self.abort_causes.snapshot();
        AbortBreakdown::from_causes(&causes, self.admission_retries.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basic_operations() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_percentiles_are_monotonic() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_micros(i);
        }
        let p50 = h.percentile_micros(0.5);
        let p95 = h.percentile_micros(0.95);
        let p99 = h.percentile_micros(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max_micros().next_power_of_two());
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_percentile_is_roughly_accurate() {
        let h = LatencyHistogram::new();
        // 95% of observations at ~100us, 5% at ~10000us.
        for _ in 0..9_500 {
            h.record_micros(100);
        }
        for _ in 0..500 {
            h.record_micros(10_000);
        }
        let p50 = h.percentile_micros(0.50);
        let p99 = h.percentile_micros(0.99);
        assert!((64..=256).contains(&p50), "p50={p50}");
        assert!(p99 >= 8_192, "p99={p99}");
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_micros(10);
        b.record_micros(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_micros() >= 1_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_micros(0.95), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn abort_counters_accumulate_by_label() {
        let a = AbortCounters::default();
        a.record("deadlock");
        a.record("deadlock");
        a.record("lock_wait_timeout");
        assert_eq!(a.get("deadlock"), 2);
        assert_eq!(a.get("lock_wait_timeout"), 1);
        assert_eq!(a.get("other"), 0);
    }

    #[test]
    fn engine_metrics_ratios() {
        let m = EngineMetrics::new();
        m.committed.add(90);
        m.aborted.add(10);
        m.cascading_aborts.add(5);
        m.queries.add(200);
        m.locks_created.add(100);
        m.busy_nanos.add(750);
        m.blocked_nanos.add(250);
        assert!((m.abort_ratio() - 0.1).abs() < 1e-9);
        assert!((m.cascade_abort_ratio() - 0.05).abs() < 1e-9);
        assert!((m.locks_per_query() - 0.5).abs() < 1e-9);
        assert!((m.utilization() - 0.75).abs() < 1e-9);
        let snap = m.snapshot(Duration::from_secs(2));
        assert!((snap.tps - 45.0).abs() < 1e-9);
        m.reset();
        assert_eq!(m.committed.get(), 0);
        assert_eq!(m.abort_ratio(), 0.0);
    }

    #[test]
    fn every_scratch_row_reaches_the_attached_metrics_once() {
        let m = Arc::new(EngineMetrics::new());
        let scratch = MetricsScratch::attached(Arc::clone(&m));
        scratch.queries.add(2);
        scratch.locks_created.inc();
        scratch.locks_created.inc();
        scratch.locks_released.add(3);
        scratch.release_shard_locks.inc();
        scratch.groups_formed.inc();
        scratch.hotspot_group_entries.add(2);
        scratch.lock_wait_latency.record(Duration::from_micros(3));
        scratch.lock_wait_latency.record(Duration::from_micros(9));
        scratch.on_commit(Duration::from_micros(40), Duration::from_micros(10));
        // Nothing reaches the shared counters until the flush.
        assert_eq!((m.queries.get(), m.committed.get()), (0, 0));
        assert_eq!((m.locks_created.get(), m.lock_wait_latency.count()), (0, 0));
        assert_eq!((m.lock_waits.get(), m.groups_formed.get()), (0, 0));
        assert!(!scratch.is_empty());
        let drained = |m: &EngineMetrics| {
            assert_eq!(m.queries.get(), 2);
            assert_eq!(m.locks_created.get(), 2);
            assert_eq!(m.locks_released.get(), 3);
            assert_eq!(m.release_shard_locks.get(), 1);
            assert_eq!(m.groups_formed.get(), 1);
            assert_eq!(m.hotspot_group_entries.get(), 2);
            assert_eq!((m.lock_waits.get(), m.lock_wait_latency.count()), (2, 2));
            assert_eq!(m.lock_wait_latency.max_micros(), 9);
            assert!((m.lock_wait_latency.mean_micros() - 6.0).abs() < 1e-9);
            assert_eq!((m.committed.get(), m.txn_latency.count()), (1, 1));
            assert_eq!(
                (m.blocked_nanos.get(), m.busy_nanos.get()),
                (10_000, 30_000)
            );
        };
        scratch.flush();
        assert!(scratch.is_empty());
        drained(&m);
        // A second flush is a no-op; dropping the scratch flushes what came
        // after the first.
        scratch.flush();
        drained(&m);
        scratch.locks_created.inc();
        drop(scratch);
        assert_eq!(m.locks_created.get(), 3);
        // A detached scratch keeps its counts.
        let detached = MetricsScratch::new();
        detached.locks_created.inc();
        detached.flush();
        assert!(!detached.is_empty());
    }

    #[test]
    fn abort_breakdown_folds_labels_into_classes() {
        let m = EngineMetrics::new();
        m.abort_causes.record("deadlock");
        m.abort_causes.record("deadlock");
        m.abort_causes.record("lock_wait_timeout");
        m.abort_causes.record("aria_validation_failed");
        m.abort_causes.record("cascading_abort");
        m.abort_causes.record("dirty_read_aborted");
        m.abort_causes.record("hotspot_deadlock_prevented");
        m.abort_causes.record("explicit_rollback");
        m.abort_causes.record("duplicate_key");
        m.abort_causes.record("overloaded");
        m.admission_retries.add(17);
        let b = m.abort_breakdown();
        assert_eq!(b.deadlocks, 2);
        assert_eq!(b.wait_timeouts, 1);
        assert_eq!(b.aria_conflicts, 1);
        assert_eq!(b.cascading, 1);
        assert_eq!(b.dirty_reads, 1);
        assert_eq!(b.hotspot_prevented, 1);
        assert_eq!(b.explicit_rollbacks, 1);
        assert_eq!(b.overloaded, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.admission_retries, 17);
        assert_eq!(b.total(), 10, "driver retries are not engine aborts");
        // The breakdown rides along in the serialisable snapshot.
        let snap = m.snapshot(Duration::from_secs(1));
        assert_eq!(snap.abort_breakdown, b);
        assert_eq!(snap.admission_retries, 17);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.abort_breakdown.deadlocks, 2);
        // Resetting clears the retry counter with the rest of the window.
        m.reset();
        assert_eq!(m.abort_breakdown().total(), 0);
        assert_eq!(m.admission_retries.get(), 0);
    }

    #[test]
    fn admission_counters_reset_but_depth_gauge_persists() {
        let m = EngineMetrics::new();
        m.admission_queued.inc();
        m.admission_shed.add(2);
        m.retry_budget_exhausted.inc();
        m.backoff_waits.add(3);
        m.admission_queue_depth.set(4);
        let snap = m.snapshot(Duration::from_secs(1));
        assert_eq!(snap.admission_queued, 1);
        assert_eq!(snap.admission_shed, 2);
        assert_eq!(snap.retry_budget_exhausted, 1);
        assert_eq!(snap.backoff_waits, 3);
        assert_eq!(snap.admission_queue_depth, 4);
        m.reset();
        assert_eq!(m.admission_queued.get(), 0);
        assert_eq!(m.admission_shed.get(), 0);
        assert_eq!(m.retry_budget_exhausted.get(), 0);
        assert_eq!(m.backoff_waits.get(), 0);
        assert_eq!(
            m.admission_queue_depth.get(),
            4,
            "live gauge survives the window reset"
        );
    }

    #[test]
    fn snapshot_percentiles_are_ordered() {
        let m = EngineMetrics::new();
        for i in 1..=1_000u64 {
            m.txn_latency.record_micros(i * 100);
        }
        let snap = m.snapshot(Duration::from_secs(1));
        assert!(snap.p50_latency_ms > 0.0);
        assert!(snap.p50_latency_ms <= snap.p95_latency_ms);
        assert!(snap.p95_latency_ms <= snap.p99_latency_ms);
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let m = EngineMetrics::new();
        m.committed.add(3);
        m.aborted.add(1);
        m.abort_causes.record("deadlock");
        m.txn_latency.record_micros(100);
        let snap = m.snapshot(Duration::from_secs(2));
        let json = serde_json::to_string(&snap).unwrap();
        // The table's row order is the serialised order: recorded files and
        // their readers see the bytes the hand-written struct produced.
        let recorded = concat!(
            r#"{"elapsed_secs":2.0,"committed":3,"aborted":1,"cascading_aborts":0,"tps":1.5,"#,
            r#""abort_ratio":0.25,"cascade_abort_ratio":0.0,"p50_latency_ms":0.128,"#,
            r#""p99_latency_ms":0.128,"p95_latency_ms":0.128,"mean_latency_ms":0.1,"#,
            r#""p95_lock_wait_ms":0.0,"mean_lock_wait_ms":0.0,"locks_created":0,"#,
            r#""locks_released":0,"lock_registry_entries":0,"locks_per_query":0.0,"#,
            r#""lock_waits":0,"release_shard_locks":0,"#,
            r#""deadlock_checks":0,"hotspot_group_entries":0,"#,
            r#""groups_formed":0,"rollback_turn_timeouts":0,"#,
            r#""utilization":0.0,"commit_batches":0,"#,
            r#""commit_held_batches":0,"commit_hold_expired":0,"crash_injected":0,"#,
            r#""fsync_retries":0,"recovery_replayed":0,"wal_truncated_records":0,"#,
            r#""semi_sync_timeouts":0,"degraded_commits":0,"semi_sync_resyncs":0,"#,
            r#""ship_retries":0,"replica_lag":0,"admission_retries":0,"#,
            r#""admission_queued":0,"admission_shed":0,"retry_budget_exhausted":0,"#,
            r#""backoff_waits":0,"admission_queue_depth":0,"abort_breakdown":{"deadlocks":1,"#,
            r#""wait_timeouts":0,"hotspot_prevented":0,"cascading":0,"dirty_reads":0,"#,
            r#""aria_conflicts":0,"explicit_rollbacks":0,"overloaded":0,"other":0,"#,
            r#""admission_retries":0},"abort_causes":[["deadlock",1]]}"#,
        );
        assert_eq!(json, recorded);
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.committed, 3);
        // The admission, hold and group-event fields came after the first recordings.
        let older = json.replace(r#""admission_shed":0,"#, "");
        let older = older.replace(r#""commit_held_batches":0,"commit_hold_expired":0,"#, "");
        let older = older.replace(r#""rollback_turn_timeouts":0,"#, "");
        let back: MetricsSnapshot = serde_json::from_str(&older).unwrap();
        assert_eq!((back.admission_shed, back.backoff_waits), (0, 0));
        assert_eq!((back.commit_held_batches, back.commit_hold_expired), (0, 0));
        assert_eq!(back.rollback_turn_timeouts, 0);
    }
}
