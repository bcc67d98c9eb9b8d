//! Workload drivers.
//!
//! * [`run_closed_loop`] — the academic-style driver: `threads` clients each
//!   submit transactions back-to-back, retrying contention aborts, for a
//!   fixed duration.  Used by the throughput/latency figures (2, 6–10, 12,
//!   13).
//! * [`run_fixed_tps_report`] — the industry rate model of §4.6.1: a dispatcher
//!   issues a fixed number of transactions per second to a worker pool and
//!   records per-second throughput, failure rate, p95 latency and the
//!   utilisation proxy — the four panels of Figure 11.

use crate::hotspots::HotspotsTrace;
use crate::Workload;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txsql_common::metrics::{LatencyHistogram, MetricsSnapshot};
use txsql_common::rng::XorShiftRng;
use txsql_common::Result;
use txsql_core::{Database, TxnProgram};

/// Salt separating the retry-jitter RNG stream from the program-generation
/// stream a worker's base seed feeds.
const RETRY_SEED_SALT: u64 = 0xB0FF_5EED;

/// Executes one transaction with a budgeted retry loop: every retryable
/// abort waits an adaptive, deterministically jittered backoff delay (see
/// [`txsql_core::BackoffPolicy`]) before the next attempt, and the loop
/// gives up — counted in `retry_budget_exhausted` — once the budget runs
/// out.
///
/// `max_retries > 0` overrides the engine-configured retry budget; `0`
/// means "use the engine's budget" (and an engine budget of `0` retries
/// until the stop flag, with the backoff still pacing the loop, so a
/// livelocked transaction can never run past the measurement deadline and
/// hang a harness cell).  `retry_seed` seeds the jitter stream, so the same
/// seed replays the same delay sequence under native threads and the
/// simulator.  Every retry is counted into
/// [`txsql_common::metrics::EngineMetrics::admission_retries`] so the abort
/// breakdown can distinguish driver-side retry pressure from engine-side
/// aborts.  Returns whether the transaction committed or was rolled back by
/// its own [`txsql_core::Operation::ForcedRollback`], or the error that ended
/// the loop: the last retryable one when the budget (or the stop flag) did,
/// otherwise one no retry can cure.
pub(crate) fn execute_with_retries(
    db: &Database,
    program: &TxnProgram,
    max_retries: usize,
    stop: &AtomicBool,
    retry_seed: u64,
) -> Result<bool> {
    let mut policy = db.backoff_policy();
    if max_retries > 0 {
        policy.budget = max_retries.min(u32::MAX as usize) as u32;
    }
    if policy.budget == 0 {
        policy.budget = u32::MAX;
    }
    let mut state = policy.begin(retry_seed);
    loop {
        match db.execute_program(program) {
            Ok(outcome) => return Ok(outcome.committed),
            Err(err) if err.is_retryable() => {
                db.metrics().admission_retries.inc();
                if stop.load(Ordering::Relaxed) {
                    return Err(err);
                }
                match state.next_backoff(&policy) {
                    Some(delay) => {
                        db.metrics().backoff_waits.inc();
                        back_off(delay);
                    }
                    None => {
                        db.metrics().retry_budget_exhausted.inc();
                        return Err(err);
                    }
                }
            }
            Err(err) => return Err(err),
        }
    }
}

/// Waits out a retry's backoff: under the simulator, parked until the
/// virtual deadline, as a sleeping thread is (`simulate_delay` leaves it
/// runnable, so retriers that aborted together retried together forever).
fn back_off(delay: Duration) {
    match txsql_sim::current() {
        Some(sim) => _ = sim.park_timeout(txsql_sim::key_of(&delay), delay),
        None => txsql_common::latency::simulate_delay(delay),
    }
}

/// Options for the closed-loop driver.
#[derive(Debug, Clone)]
pub struct ClosedLoopOptions {
    /// Number of client threads (the paper's X axis, 8–1024).
    pub threads: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Warm-up discarded before measurement.
    pub warmup: Duration,
    /// Base RNG seed (each worker derives its own stream).
    pub seed: u64,
    /// Retry budget per transaction (it still counts as aborted work in the
    /// metrics; 0 means use the engine-configured budget,
    /// [`txsql_core::AdmissionConfig::retry_budget`]).
    pub max_retries: usize,
}

impl Default for ClosedLoopOptions {
    fn default() -> Self {
        Self {
            threads: 8,
            duration: Duration::from_millis(800),
            warmup: Duration::from_millis(200),
            seed: 42,
            max_retries: 0,
        }
    }
}

impl ClosedLoopOptions {
    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets warm-up and measurement durations.
    pub fn with_durations(mut self, warmup: Duration, duration: Duration) -> Self {
        self.warmup = warmup;
        self.duration = duration;
        self
    }
}

/// Runs `workload` against `db` with a closed loop of clients and returns the
/// metrics snapshot of the measurement window.
pub fn run_closed_loop(
    db: &Database,
    workload: &dyn Workload,
    options: &ClosedLoopOptions,
) -> MetricsSnapshot {
    workload.setup(db);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for worker in 0..options.threads {
            let db = db.clone();
            let stop = &stop;
            let seed = options.seed;
            let max_retries = options.max_retries;
            let workload_ref: &dyn Workload = workload;
            scope.spawn(move || {
                let mut rng = XorShiftRng::for_worker(seed, worker as u64);
                // A separate jitter stream keeps the program sequence
                // identical whether or not retries back off.
                let mut retry_rng = XorShiftRng::for_worker(seed ^ RETRY_SEED_SALT, worker as u64);
                while !stop.load(Ordering::Relaxed) {
                    let program = workload_ref.next_program(&mut rng);
                    let _ = execute_with_retries(
                        &db,
                        &program,
                        max_retries,
                        stop,
                        retry_rng.next_u64(),
                    );
                }
            });
        }

        // Warm-up, then reset metrics and measure.
        std::thread::sleep(options.warmup);
        db.reset_metrics();
        std::thread::sleep(options.duration);
        stop.store(true, Ordering::Relaxed);
    });
    db.snapshot_metrics(options.duration)
}

/// One second of a fixed-TPS run (one X position of Figure 11).
#[derive(Debug, Clone)]
pub struct SecondSample {
    /// Second index from the start of the trace.
    pub second: u64,
    /// Target transactions issued this second.
    pub target_tps: u64,
    /// Transactions that committed this second.
    pub committed: u64,
    /// Transactions that failed (exhausted retries or missed the deadline).
    pub failed: u64,
    /// p95 end-to-end latency (ms) of transactions finishing this second.
    pub p95_latency_ms: f64,
    /// Useful-work ratio during this second (CPU-utilisation proxy).
    pub utilization: f64,
    /// Transactions shed by front-door admission control this second.
    pub admission_shed: u64,
    /// Transactions queued through a hot-key admission queue this second.
    pub admission_queued: u64,
    /// Retry budgets exhausted this second (transaction reported failed).
    pub retry_budget_exhausted: u64,
}

impl SecondSample {
    /// Failure rate in percent (the Figure 11 middle panel).
    pub fn failure_rate_pct(&self) -> f64 {
        let total = self.committed + self.failed;
        if total == 0 {
            0.0
        } else {
            self.failed as f64 / total as f64 * 100.0
        }
    }
}

/// Options for the fixed-TPS driver.
#[derive(Debug, Clone)]
pub struct FixedTpsOptions {
    /// Size of the worker pool serving the dispatched transactions.
    pub threads: usize,
    /// Retry budget per transaction before it is reported as a failure.
    pub retry_limit: usize,
    /// A transaction that takes longer than this end-to-end is a failure.
    pub deadline: Duration,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for FixedTpsOptions {
    fn default() -> Self {
        Self {
            threads: 16,
            retry_limit: 3,
            deadline: Duration::from_millis(500),
            seed: 7,
        }
    }
}

struct DispatchedJob {
    second: u64,
    issued_at: Instant,
}

/// Everything a fixed-TPS run produced: the per-second Figure 11 panels plus
/// a cumulative latency histogram spanning the whole trace.
///
/// [`run_fixed_tps_report`] resets the engine metrics every second to produce the
/// per-second panels, so a harness cell that wants whole-run p50/p95/p99 must
/// read them from this driver-side histogram rather than from a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct FixedTpsReport {
    /// One entry per trace second.
    pub samples: Vec<SecondSample>,
    /// End-to-end latency of every dispatched transaction across the run.
    pub latencies: LatencyHistogram,
}

impl FixedTpsReport {
    /// Transactions that committed within their deadline, over the whole run.
    pub fn total_committed(&self) -> u64 {
        self.samples.iter().map(|s| s.committed).sum()
    }

    /// Transactions that failed or missed their deadline, over the whole run.
    pub fn total_failed(&self) -> u64 {
        self.samples.iter().map(|s| s.failed).sum()
    }

    /// Whole-run goodput: committed-in-deadline transactions per second.
    pub fn goodput_tps(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total_committed() as f64 / self.samples.len() as f64
        }
    }

    /// Whole-run failure rate in percent.
    pub fn failure_rate_pct(&self) -> f64 {
        let total = self.total_committed() + self.total_failed();
        if total == 0 {
            0.0
        } else {
            self.total_failed() as f64 / total as f64 * 100.0
        }
    }

    /// Transactions shed by admission control over the whole run.
    pub fn total_shed(&self) -> u64 {
        self.samples.iter().map(|s| s.admission_shed).sum()
    }

    /// Transactions that waited in a hot-key admission queue, whole run.
    pub fn total_queued(&self) -> u64 {
        self.samples.iter().map(|s| s.admission_queued).sum()
    }

    /// Retry budgets exhausted over the whole run.
    pub fn total_budget_exhausted(&self) -> u64 {
        self.samples.iter().map(|s| s.retry_budget_exhausted).sum()
    }

    /// Whole-run goodput restricted to `seconds` (e.g. the pre-burst or
    /// post-burst phase of a burst trace): committed transactions per second
    /// over that window.
    pub fn goodput_tps_in(&self, seconds: std::ops::Range<u64>) -> f64 {
        let span = seconds.end.saturating_sub(seconds.start);
        if span == 0 {
            return 0.0;
        }
        let committed: u64 = self
            .samples
            .iter()
            .filter(|s| seconds.contains(&s.second))
            .map(|s| s.committed)
            .sum();
        committed as f64 / span as f64
    }
}

/// Runs the composite trace against `db` at its fixed per-second rates and
/// returns the per-second samples with the whole-run latency histogram.
pub fn run_fixed_tps_report(
    db: &Database,
    trace: &HotspotsTrace,
    options: &FixedTpsOptions,
) -> FixedTpsReport {
    trace.setup(db);
    let (job_tx, job_rx): (Sender<DispatchedJob>, Receiver<DispatchedJob>) = bounded(65_536);
    let stop = AtomicBool::new(false);
    let (committed, failed) = (AtomicU64::new(0), AtomicU64::new(0));
    // `record` takes `&self`: the workers share both histograms as they are.
    let (second_latencies, run_latencies) = (LatencyHistogram::new(), LatencyHistogram::new());

    let samples = std::thread::scope(|scope| {
        for worker in 0..options.threads {
            let db = db.clone();
            let job_rx = job_rx.clone();
            let (stop, committed, failed) = (&stop, &committed, &failed);
            let (second_latencies, run_latencies) = (&second_latencies, &run_latencies);
            let retry_limit = options.retry_limit;
            let deadline = options.deadline;
            let seed = options.seed;
            let trace_ref: &HotspotsTrace = trace;
            scope.spawn(move || {
                let mut rng = XorShiftRng::for_worker(seed, worker as u64);
                let mut retry_rng = XorShiftRng::for_worker(seed ^ RETRY_SEED_SALT, worker as u64);
                while !stop.load(Ordering::Relaxed) {
                    let Ok(job) = job_rx.recv_timeout(Duration::from_millis(20)) else {
                        continue;
                    };
                    let program = trace_ref.program_at(job.second, &mut rng);
                    // `retry_limit` backoff retries on top of the first
                    // attempt; the stop flag inside the helper bounds the
                    // loop by the measurement deadline.
                    let outcome = execute_with_retries(
                        &db,
                        &program,
                        retry_limit,
                        stop,
                        retry_rng.next_u64(),
                    );
                    let elapsed = job.issued_at.elapsed();
                    second_latencies.record(elapsed);
                    run_latencies.record(elapsed);
                    if matches!(outcome, Ok(true)) && elapsed <= deadline {
                        committed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Dispatcher: one batch of jobs per second, metrics sampled per second.
        let mut samples = Vec::new();
        let total_seconds = trace.total_seconds();
        for second in 0..total_seconds {
            let target = trace.target_tps_at(second);
            db.reset_metrics();
            committed.store(0, Ordering::Relaxed);
            failed.store(0, Ordering::Relaxed);
            second_latencies.reset();
            let second_start = Instant::now();
            // Dispatch the whole second's budget in small even slices.
            let slices = 20u64;
            for slice in 0..slices {
                let jobs_this_slice = target * (slice + 1) / slices - target * slice / slices;
                for _ in 0..jobs_this_slice {
                    let _ = job_tx.try_send(DispatchedJob {
                        second,
                        issued_at: Instant::now(),
                    });
                }
                let slice_deadline =
                    second_start + Duration::from_millis(1_000 * (slice + 1) / slices);
                let now = Instant::now();
                if slice_deadline > now {
                    std::thread::sleep(slice_deadline - now);
                }
            }
            // Sampled before the next second's reset wipes the counters: the
            // admission columns are this second's front-door activity.
            let utilization = db.metrics().utilization();
            let admission_shed = db.metrics().admission_shed.get();
            let admission_queued = db.metrics().admission_queued.get();
            let retry_budget_exhausted = db.metrics().retry_budget_exhausted.get();
            samples.push(SecondSample {
                second,
                target_tps: target,
                committed: committed.load(Ordering::Relaxed),
                failed: failed.load(Ordering::Relaxed),
                p95_latency_ms: second_latencies.p95_millis(),
                utilization,
                admission_shed,
                admission_queued,
                retry_budget_exhausted,
            });
        }
        stop.store(true, Ordering::Relaxed);
        samples
    });
    FixedTpsReport {
        samples,
        latencies: run_latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysbench::{SysbenchVariant, SysbenchWorkload};
    use txsql_common::{Row, TableId};
    use txsql_core::{EngineConfig, Operation, Protocol};
    use txsql_storage::TableSchema;

    #[test]
    fn closed_loop_driver_produces_throughput() {
        let db = Database::with_protocol(Protocol::GroupLockingTxsql);
        let workload = SysbenchWorkload::new(SysbenchVariant::HotspotUpdate, 128);
        let options = ClosedLoopOptions::default()
            .with_threads(4)
            .with_durations(Duration::from_millis(50), Duration::from_millis(200));
        let snapshot = run_closed_loop(&db, &workload, &options);
        assert!(snapshot.committed > 0, "no transactions committed");
        assert!(snapshot.tps > 0.0);
        db.shutdown();
    }

    #[test]
    fn closed_loop_driver_works_for_every_protocol() {
        for protocol in Protocol::ALL {
            let db = Database::with_protocol(protocol);
            let workload = SysbenchWorkload::new(SysbenchVariant::UniformUpdate { length: 2 }, 256);
            let options = ClosedLoopOptions::default()
                .with_threads(2)
                .with_durations(Duration::from_millis(20), Duration::from_millis(100));
            let snapshot = run_closed_loop(&db, &workload, &options);
            assert!(snapshot.committed > 0, "{protocol:?} committed nothing");
            db.shutdown();
        }
    }

    /// Retry-budget accounting across the three outcome paths of
    /// [`execute_with_retries`]:
    ///
    /// * **commit** — succeeds first try: no backoff waits, no retries,
    ///   budget untouched;
    /// * **abort** — a `ForcedRollback` is a clean non-retryable outcome:
    ///   the loop returns `false` immediately without charging the budget;
    /// * **timeout** — a held row lock makes every attempt fail retryably:
    ///   exactly `budget` backoff waits are paid, `retry_budget_exhausted`
    ///   fires once, and each failed attempt counts one `admission_retries`.
    #[test]
    fn retry_budget_accounting_across_commit_abort_and_timeout() {
        const TABLE: TableId = TableId(9);
        let config = EngineConfig::for_protocol(Protocol::Mysql2pl)
            .with_lock_wait_timeout(Duration::from_millis(5));
        let db = Database::new(config);
        db.create_table(TableSchema::new(TABLE, "accounts", 2))
            .unwrap();
        db.load_row(TABLE, Row::from_ints(&[1, 0])).unwrap();
        db.load_row(TABLE, Row::from_ints(&[2, 0])).unwrap();
        let stop = AtomicBool::new(false);
        let bump = |pk| {
            TxnProgram::new(vec![Operation::UpdateAdd {
                table: TABLE,
                pk,
                column: 1,
                delta: 1,
            }])
        };

        // Commit path: a free row commits on the first attempt.
        assert!(execute_with_retries(&db, &bump(1), 3, &stop, 7).unwrap());
        assert_eq!(db.metrics().backoff_waits.get(), 0);
        assert_eq!(db.metrics().admission_retries.get(), 0);
        assert_eq!(db.metrics().retry_budget_exhausted.get(), 0);

        // Abort path: a forced rollback is not retryable — one attempt,
        // no budget spent.
        let mut rollback = bump(1);
        rollback.operations.push(Operation::ForcedRollback);
        assert!(!execute_with_retries(&db, &rollback, 3, &stop, 7).unwrap());
        assert_eq!(db.metrics().backoff_waits.get(), 0);
        assert_eq!(db.metrics().admission_retries.get(), 0);
        assert_eq!(db.metrics().retry_budget_exhausted.get(), 0);

        // Timeout path: another transaction holds row 2, so every attempt
        // times out.  Budget 3 = 4 attempts total, 3 backoff waits, one
        // budget exhaustion.
        let mut holder = db.begin();
        db.select_for_update(&mut holder, TABLE, 2).unwrap();
        assert!(execute_with_retries(&db, &bump(2), 3, &stop, 7).is_err());
        assert_eq!(db.metrics().backoff_waits.get(), 3);
        assert_eq!(db.metrics().admission_retries.get(), 4);
        assert_eq!(db.metrics().retry_budget_exhausted.get(), 1);

        // Once the holder releases, the same program commits and the
        // exhaustion tally does not move.
        db.rollback(holder, None);
        assert!(execute_with_retries(&db, &bump(2), 3, &stop, 7).unwrap());
        assert_eq!(db.metrics().retry_budget_exhausted.get(), 1);
        db.shutdown();
    }

    /// The jitter stream is seeded per transaction: the same `retry_seed`
    /// must replay the same delay sequence (the native half of the
    /// determinism contract; `sim_admission.rs` pins the sim half).
    #[test]
    fn retry_jitter_replays_per_seed() {
        let db = Database::with_protocol(Protocol::Mysql2pl);
        let policy = db.backoff_policy();
        let a: Vec<Duration> = {
            let mut state = policy.begin(99);
            std::iter::from_fn(|| state.next_backoff(&policy)).collect()
        };
        let b: Vec<Duration> = {
            let mut state = policy.begin(99);
            std::iter::from_fn(|| state.next_backoff(&policy)).collect()
        };
        let c: Vec<Duration> = {
            let mut state = policy.begin(100);
            std::iter::from_fn(|| state.next_backoff(&policy)).collect()
        };
        assert_eq!(a, b, "same seed must replay the same jitter sequence");
        assert_ne!(a, c, "different seeds must jitter differently");
        db.shutdown();
    }

    #[test]
    fn fixed_tps_driver_tracks_the_schedule() {
        let db = Database::with_protocol(Protocol::GroupLockingTxsql);
        let trace = HotspotsTrace::new(
            vec![
                crate::hotspots::TracePhase {
                    seconds: 1,
                    target_tps: 50,
                    hotspot_share: 0.1,
                },
                crate::hotspots::TracePhase {
                    seconds: 1,
                    target_tps: 100,
                    hotspot_share: 0.9,
                },
            ],
            256,
        );
        let options = FixedTpsOptions {
            threads: 4,
            ..Default::default()
        };
        let samples = run_fixed_tps_report(&db, &trace, &options).samples;
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].target_tps, 50);
        assert_eq!(samples[1].target_tps, 100);
        let total: u64 = samples.iter().map(|s| s.committed).sum();
        assert!(total > 0, "nothing committed under the fixed-TPS driver");
        assert!(samples[0].failure_rate_pct() <= 100.0);
        db.shutdown();
    }
}
