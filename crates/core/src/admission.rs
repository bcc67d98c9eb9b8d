//! Front-door admission control: hot-key queues, retry budgets, adaptive
//! backoff, and observable load shedding.
//!
//! The paper's lock optimizations (§4) assume contended transactions reach
//! the lock manager; at high arrival rates the retry storm *ahead* of the
//! lock manager becomes the failure mode.  Following Prasaad et al.'s
//! transaction-scheduling result (steering same-hot-set transactions into
//! shared queues beats blind retry) and Thomasian's high-contention
//! load-shedding analysis, this module puts a bounded FIFO admission queue
//! in front of every *detected hot record* and sheds arrivals the queue
//! cannot absorb:
//!
//! * **Per-hot-key admission queues** — [`AdmissionController::admit`] checks
//!   the transaction's declared write keys against the hotspot registry
//!   (§4.1's promotion signal).  A transaction declaring a currently-hot key
//!   is serialized through that key's FIFO ticket queue — the lock manager's
//!   [`QueueLockTable`], the structure queue locking (O2) puts in front of a
//!   hot row, here with a bound: at most one admitted holder runs at a time
//!   and at most [`AdmissionConfig::queue_depth`] waiters park behind it (on
//!   pooled events, so waits are yield points under deterministic
//!   simulation).  What is admission's own is the policy — when to shed, the
//!   hysteresis watermark, the permit — and the counters and gauge.
//! * **Load shedding with hysteresis** — an arrival that finds the queue at
//!   capacity is rejected with [`Error::Overloaded`] *before* touching the
//!   lock table, and the queue enters a degraded window in which further
//!   arrivals are also shed until the backlog drains to half the configured
//!   depth.  A burst therefore ends in re-admission, never a wedged queue: no
//!   waiter is held past its deadline budget and the depth gauge returns to
//!   zero once the burst passes.
//! * **Retry budgets + adaptive backoff** — [`BackoffPolicy`] replaces the
//!   drivers' immediate-retry-on-abort loops: each retry waits an
//!   exponentially growing, deterministically jittered delay (seeded from
//!   the transaction id, timed on the sim-aware clock) and gives up once the
//!   budget is exhausted, counted in `retry_budget_exhausted`.
//!
//! Everything is observable through [`EngineMetrics`]: `admission_queued`,
//! `admission_shed`, `retry_budget_exhausted`, `backoff_waits` and the live
//! `admission_queue_depth` gauge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::metrics::EngineMetrics;
use txsql_common::rng::XorShiftRng;
use txsql_common::{Error, RecordId, Result};
use txsql_lockmgr::queue_lock::{QueueAdmission, QueueLockTable};

/// Admission-control configuration: the front-door knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch.  When `false` the controller admits everything
    /// immediately (the queues and shedding are bypassed); the retry/backoff
    /// policy below still governs the drivers' retry loops.
    pub enabled: bool,
    /// Maximum *waiters* parked behind one hot key's admitted holder.  An
    /// arrival that would exceed this is shed with [`Error::Overloaded`].
    pub queue_depth: usize,
    /// Wait-deadline budget: how long an admitted-but-queued transaction may
    /// park before it is shed instead of admitted (bounds queue residence so
    /// a stalled holder cannot wedge the queue).
    pub queue_timeout: Duration,
    /// Retry budget for the drivers' budgeted retry loops: how many times a
    /// retryable abort is re-submitted before the transaction is reported
    /// failed (`retry_budget_exhausted`).
    pub retry_budget: u32,
    /// First backoff delay; doubles each retry (before jitter).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for AdmissionConfig {
    /// Admission queues off (opt-in per experiment cell), with the backoff
    /// policy the drivers use everywhere: budget 8, 100µs base doubling to a
    /// 10ms cap.
    fn default() -> Self {
        Self {
            enabled: false,
            queue_depth: 16,
            queue_timeout: Duration::from_millis(100),
            retry_budget: 8,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(10),
        }
    }
}

impl AdmissionConfig {
    /// Enables or disables the hot-key queues.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Sets the per-key waiter bound (clamped to ≥ 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// The re-admission watermark of the shed hysteresis: after a shed, the
    /// queue keeps shedding until its backlog drains to this depth.
    pub fn recover_depth(&self) -> usize {
        self.queue_depth / 2
    }

    /// The drivers' retry/backoff policy derived from this configuration.
    pub fn backoff_policy(&self) -> BackoffPolicy {
        BackoffPolicy {
            budget: self.retry_budget,
            base: self.backoff_base,
            cap: self.backoff_cap,
        }
    }
}

/// Retry budget + adaptive exponential backoff with deterministic jitter.
///
/// The policy is pure data; per-transaction state lives in [`RetryState`],
/// whose jitter stream is seeded from the transaction id so the same seed
/// yields the same delay sequence under native threads and the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// How many retries the budget allows.
    pub budget: u32,
    /// First delay; doubles each retry (before jitter).
    pub base: Duration,
    /// Upper bound on a single delay.
    pub cap: Duration,
}

impl BackoffPolicy {
    /// Starts a retry sequence whose jitter is derived from `seed`.
    pub fn begin(&self, seed: u64) -> RetryState {
        RetryState {
            attempt: 0,
            rng: XorShiftRng::for_worker(seed, 0xAD41_5510),
        }
    }
}

/// Per-transaction retry bookkeeping (see [`BackoffPolicy::begin`]).
#[derive(Debug)]
pub struct RetryState {
    attempt: u32,
    rng: XorShiftRng,
}

impl RetryState {
    /// Consumes one unit of retry budget, returning the jittered delay to
    /// wait before the next attempt — or `None` when the budget is exhausted
    /// and the caller must report the transaction failed.
    ///
    /// The delay for retry *n* is uniform in `[d/2, d]` with
    /// `d = min(base · 2ⁿ, cap)`: exponential ramp-up with enough jitter to
    /// decorrelate clients that aborted on the same hot row together.
    pub fn next_backoff(&mut self, policy: &BackoffPolicy) -> Option<Duration> {
        if self.attempt >= policy.budget {
            return None;
        }
        let exp = self.attempt.min(20);
        self.attempt += 1;
        let ceiling = policy
            .base
            .saturating_mul(1u32 << exp)
            .min(policy.cap)
            .max(policy.base);
        let ceiling_us = ceiling.as_micros().min(u128::from(u64::MAX)) as u64;
        let half = (ceiling_us / 2).max(1);
        let jittered = half + self.rng.next_bounded(ceiling_us - half + 1);
        Some(Duration::from_micros(jittered))
    }

    /// Retries consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// The per-database admission controller.
///
/// Owned by the `Database`, consulted by `execute_program` before `begin`:
/// the transaction's declared write keys are matched against the hotspot
/// registry and every currently-hot key is acquired through its queue (in
/// sorted key order, so multi-hot-key admissions cannot deadlock).  The
/// returned [`AdmissionPermit`] must be handed back to
/// [`AdmissionController::release`] when the transaction finishes (commit,
/// abort and shed paths alike) so the next waiter is woken.
#[derive(Debug)]
pub struct AdmissionController {
    /// [`AdmissionConfig::enabled`]: off admits everything at once.
    enabled: bool,
    metrics: Arc<EngineMetrics>,
    /// The hot keys' ticket queues: bounded by `queue_depth`, draining to
    /// `recover_depth` after a shed, waits bounded by `queue_timeout`.
    queues: QueueLockTable,
    /// Names each admission among its key's concurrent holders and waiters.
    next_owner: AtomicU64,
    /// Live waiters across every queue (mirrored into the depth gauge).
    waiting: AtomicU64,
    /// Deepest place in one queue an admission has waited at.
    peak_depth: AtomicU64,
    /// Sheds taken because the queue was full (or degraded).
    depth_sheds: AtomicU64,
    /// Sheds taken because the wait-deadline budget expired.
    timeout_sheds: AtomicU64,
    /// Total admissions granted through a queue wait (not fast-path).
    queued_grants: AtomicU64,
}

/// Proof that a transaction passed admission; hand back via
/// [`AdmissionController::release`].  An empty permit (no hot keys declared,
/// or admission disabled) is free to construct and release.
#[derive(Debug, Default)]
#[must_use = "release() the permit or the next waiter is never woken"]
pub struct AdmissionPermit {
    /// `(key, owner)` grants in acquisition order.
    grants: Vec<(RecordId, u64)>,
}

impl AdmissionPermit {
    /// True when the permit holds no queue grants (fast-path admission).
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }
}

impl AdmissionController {
    /// Creates a controller publishing into `metrics`.
    pub fn new(config: AdmissionConfig, metrics: Arc<EngineMetrics>) -> Self {
        let queues = QueueLockTable::bounded(
            config.queue_timeout,
            config.queue_depth,
            config.recover_depth(),
        );
        Self {
            enabled: config.enabled,
            metrics,
            queues,
            next_owner: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
            depth_sheds: AtomicU64::new(0),
            timeout_sheds: AtomicU64::new(0),
            queued_grants: AtomicU64::new(0),
        }
    }

    /// Serializes the caller through the admission queues of every key in
    /// `hot_keys` (which must be sorted and deduplicated — `write_keys`
    /// order), blocking on each queue in turn.  Returns the permit to hand
    /// back on completion, or [`Error::Overloaded`] when any queue shed the
    /// arrival; grants already taken are released before the error returns.
    pub fn admit(&self, hot_keys: &[RecordId]) -> Result<AdmissionPermit> {
        let mut permit = AdmissionPermit::default();
        if !self.enabled || hot_keys.is_empty() {
            return Ok(permit);
        }
        for &key in hot_keys {
            match self.admit_one(key) {
                Ok(owner) => permit.grants.push((key, owner)),
                Err(err) => {
                    self.release(permit);
                    return Err(err);
                }
            }
        }
        Ok(permit)
    }

    /// Admission through one key's queue; returns the owner number the
    /// grant is held under.
    fn admit_one(&self, key: RecordId) -> Result<u64> {
        let owner = self.next_owner.fetch_add(1, Ordering::Relaxed);
        let shed = |sheds: &AtomicU64| {
            sheds.fetch_add(1, Ordering::Relaxed);
            self.metrics.admission_shed.inc();
            Err(Error::Overloaded { record: key })
        };
        match self.queues.admit(key.packed(), owner) {
            QueueAdmission::Proceed => Ok(owner),
            QueueAdmission::Full => shed(&self.depth_sheds),
            QueueAdmission::Wait(event, place) => {
                self.peak_depth.fetch_max(place as u64, Ordering::Relaxed);
                self.metrics.admission_queued.inc();
                let gauge = &self.metrics.admission_queue_depth;
                gauge.set(self.waiting.fetch_add(1, Ordering::Relaxed) + 1);
                let granted = self.queues.wait(key.packed(), owner, event);
                gauge.set(self.waiting.fetch_sub(1, Ordering::Relaxed) - 1);
                if !granted {
                    return shed(&self.timeout_sheds);
                }
                self.queued_grants.fetch_add(1, Ordering::Relaxed);
                Ok(owner)
            }
        }
    }

    /// Hands a finished transaction's grants back, waking each queue's next
    /// waiter in FIFO order.
    pub fn release(&self, permit: AdmissionPermit) {
        for (key, owner) in permit.grants.into_iter().rev() {
            self.queues.release(key.packed(), owner);
        }
    }

    /// Live waiters across every queue.
    pub fn total_waiting(&self) -> u64 {
        self.waiting.load(Ordering::Relaxed)
    }

    /// Queues currently inside their post-shed hysteresis window.
    pub fn degraded_queues(&self) -> usize {
        self.queues.full_queues()
    }

    /// Sheds taken because a queue was at capacity (or degraded).
    pub fn depth_sheds(&self) -> u64 {
        self.depth_sheds.load(Ordering::Relaxed)
    }

    /// Sheds taken because the wait-deadline budget expired.
    pub fn timeout_sheds(&self) -> u64 {
        self.timeout_sheds.load(Ordering::Relaxed)
    }

    /// Deepest per-queue backlog observed since construction.
    pub fn peak_depth(&self) -> u64 {
        self.peak_depth.load(Ordering::Relaxed)
    }

    /// Admissions granted through a queue wait (excludes the idle fast path).
    pub fn queued_grants(&self) -> u64 {
        self.queued_grants.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn controller(config: AdmissionConfig) -> AdmissionController {
        AdmissionController::new(config, Arc::new(EngineMetrics::new()))
    }

    fn key(n: u32) -> RecordId {
        RecordId::new(1, n, 1)
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let c = controller(AdmissionConfig::default());
        let permit = c.admit(&[key(1), key(2)]).unwrap();
        assert!(permit.is_empty());
        c.release(permit);
        assert_eq!(c.total_waiting(), 0);
    }

    #[test]
    fn idle_key_is_a_fast_path() {
        let c = controller(AdmissionConfig::default().with_enabled(true));
        let permit = c.admit(&[key(1)]).unwrap();
        assert!(!permit.is_empty());
        assert_eq!(c.queued_grants(), 0, "no wait on an idle key");
        c.release(permit);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let c = controller(AdmissionConfig {
            queue_timeout: Duration::from_millis(200),
            ..AdmissionConfig::default()
                .with_enabled(true)
                .with_queue_depth(1)
        });
        let holder = c.admit(&[key(1)]).unwrap();
        // One waiter fits; the next arrival must shed.
        let c = Arc::new(c);
        let waiter = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.admit(&[key(1)]).map(|p| c.release(p)))
        };
        while c.total_waiting() == 0 {
            thread::yield_now();
        }
        let shed = c.admit(&[key(1)]);
        assert!(matches!(shed, Err(Error::Overloaded { .. })), "{shed:?}");
        assert_eq!(c.depth_sheds(), 1);
        assert!(c.degraded_queues() > 0, "shed opens the hysteresis window");
        c.release(holder);
        waiter.join().unwrap().unwrap();
        assert_eq!(c.total_waiting(), 0);
        assert_eq!(
            c.queued_grants(),
            1,
            "the waiter was granted by the release"
        );
        assert_eq!(c.metrics.admission_shed.get(), 1);
        assert_eq!(c.metrics.admission_queued.get(), 1);
    }

    #[test]
    fn wait_deadline_budget_sheds_instead_of_wedging() {
        let c = controller(AdmissionConfig {
            queue_timeout: Duration::from_millis(5),
            ..AdmissionConfig::default().with_enabled(true)
        });
        let holder = c.admit(&[key(1)]).unwrap();
        // The holder never releases within the budget: the waiter sheds.
        let shed = c.admit(&[key(1)]);
        assert!(matches!(shed, Err(Error::Overloaded { .. })));
        assert_eq!(c.timeout_sheds(), 1);
        assert_eq!(c.total_waiting(), 0, "timed-out waiter withdrew");
        c.release(holder);
        // The queue is usable again after the shed.
        let next = c.admit(&[key(1)]).unwrap();
        c.release(next);
    }

    #[test]
    fn multi_key_admission_releases_partial_grants_on_shed() {
        let c = controller(AdmissionConfig {
            queue_timeout: Duration::from_millis(5),
            ..AdmissionConfig::default().with_enabled(true)
        });
        // key(2) is held, so a (key1, key2) admission takes key1 then sheds
        // on key2 — and must hand key1 back.
        let blocker = c.admit(&[key(2)]).unwrap();
        let shed = c.admit(&[key(1), key(2)]);
        assert!(matches!(shed, Err(Error::Overloaded { .. })));
        c.release(blocker);
        let free = c.admit(&[key(1)]).unwrap();
        assert_eq!(
            c.queued_grants(),
            0,
            "key1 was released by the failed admission, so this was a fast path"
        );
        c.release(free);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = BackoffPolicy {
            budget: 8,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(5),
        };
        let seq = |seed: u64| -> Vec<Duration> {
            let mut state = policy.begin(seed);
            std::iter::from_fn(|| state.next_backoff(&policy)).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed, same jitter sequence");
        assert_ne!(seq(7), seq(8), "different seeds decorrelate");
        let delays = seq(7);
        assert_eq!(delays.len(), 8, "budget bounds the sequence");
        for (i, d) in delays.iter().enumerate() {
            let ceiling = policy
                .base
                .saturating_mul(1 << i.min(20))
                .min(policy.cap)
                .max(policy.base);
            assert!(*d <= ceiling, "retry {i}: {d:?} > {ceiling:?}");
            assert!(*d >= ceiling / 2, "retry {i}: {d:?} < half ceiling");
        }
        // The ramp reaches the cap region: the last delay is in [cap/2, cap].
        let last = delays.last().unwrap();
        assert!(*last >= Duration::from_micros(2_500) && *last <= Duration::from_millis(5));
    }

    #[test]
    fn exhausted_budget_returns_none() {
        let policy = BackoffPolicy {
            budget: 2,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
        };
        let mut state = policy.begin(1);
        assert!(state.next_backoff(&policy).is_some());
        assert!(state.next_backoff(&policy).is_some());
        assert!(state.next_backoff(&policy).is_none());
        assert_eq!(state.attempts(), 2);
    }
}
