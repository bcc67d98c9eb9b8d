//! Front-door admission control under schedule exploration (`txsql-sim`).
//!
//! The admission queues are exactly the kind of hand-rolled waiter machinery
//! that hides lost-wakeup and leaked-ticket bugs behind timing: a grant that
//! races a timeout, a shed that forgets to release the keys it already
//! queued on, a degraded queue that never re-arms.  Each test here runs the
//! production engine with admission enabled under the cooperative scheduler,
//! once per seed, and checks the oracle invariants after every explored
//! schedule:
//!
//! * **No lost wakeups** — once all workers exit, `total_waiting()` is zero;
//!   nobody is left parked on a queue that will never signal them.
//! * **FIFO per key** — `AdmissionController::release` asserts strictly
//!   increasing grant tickets internally; any out-of-order grant panics the
//!   sim thread and fails the seed with a replayable schedule.
//! * **Shed implies queue-full** — `depth_sheds > 0` only if the peak queue
//!   depth actually reached the configured bound.
//! * **Hysteresis re-arms** — after the burst drains, `degraded_queues()`
//!   is zero again.
//!
//! Seeds come from `TXSQL_SIM_SEEDS` (CI pins `0..200`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::{Row, TableId};
use txsql_core::{
    AdmissionConfig, BackoffPolicy, Database, EngineConfig, Operation, Protocol, TxnProgram,
};
use txsql_sim::run_seed;
use txsql_storage::TableSchema;

const ACCOUNTS: TableId = TableId(1);

/// Engine configuration safe for a sim run (no background sweeper thread),
/// with admission enabled and a deliberately tiny queue so that 4 workers on
/// one hot row overflow it: 1 holder + `depth` waiters leaves the last
/// arrival nowhere to stand.
fn sim_config(depth: usize) -> EngineConfig {
    let admission = AdmissionConfig::default()
        .with_enabled(true)
        .with_queue_depth(depth)
        .with_queue_timeout(Duration::from_millis(20))
        .with_retry_budget(8)
        .with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let mut config = EngineConfig::for_protocol(Protocol::GroupLockingTxsql)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100))
        .with_admission_config(admission);
    config.start_sweeper = false;
    config
}

/// One worker's admitted-increment loop: every retryable front-door outcome
/// (shed, lock timeout, deadlock avoidance) goes through the same
/// [`BackoffPolicy`] the bench drivers use.  A worker whose retry budget
/// runs dry abandons that increment — conservation is then checked against
/// what actually committed, not a fixed quota.
fn admitted_increments(db: &Database, worker: usize, per_worker: usize, committed: &AtomicI64) {
    let program = TxnProgram::new(vec![Operation::UpdateAdd {
        table: ACCOUNTS,
        pk: 1,
        column: 1,
        delta: 1,
    }]);
    let policy = db.backoff_policy();
    let mut attempts = 0u64;
    for round in 0..per_worker {
        let mut state = policy.begin((worker as u64) << 32 | round as u64);
        loop {
            attempts += 1;
            assert!(attempts < 400, "worker {worker} starved by this schedule");
            match db.execute_program(&program) {
                Ok(outcome) => {
                    assert!(outcome.committed, "no ForcedRollback in this program");
                    committed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(err) if err.is_retryable() => match state.next_backoff(&policy) {
                    Some(delay) => txsql_common::latency::simulate_delay(delay),
                    None => break, // budget dry: abandon this increment
                },
                Err(err) => panic!("worker {worker}: unexpected error {err}"),
            }
        }
    }
}

/// The main oracle sweep: 4 workers hammer one force-promoted hot row
/// through the full `execute_program` front door with queue depth 2, so
/// explored schedules cover immediate grants, queued grants, depth sheds,
/// timeout sheds, and grant/timeout races.  Every seed must end drained,
/// FIFO-clean, and conserving the row.
#[test]
fn sim_admission_queue_oracle_drains_and_conserves() {
    const THREADS: usize = 4;
    const PER_WORKER: usize = 2;
    const DEPTH: usize = 2;
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut classes: HashSet<u64> = HashSet::new();
    let mut shed_seeds = 0u64;
    let mut queued_seeds = 0u64;
    let mut timeout_shed_seeds = 0u64;
    let mut budget_dry_total = 0u64;

    for seed in seeds {
        let db = Database::new(sim_config(DEPTH));
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        db.load_row(ACCOUNTS, Row::from_ints(&[1, 0])).unwrap();
        // Force-promote the row so admission gates from the very first
        // transaction; organic promotion is sim_schedule.rs's job.
        let record = db.record_id(ACCOUNTS, 1).unwrap();
        db.hotspots().promote(record);
        assert!(db.hotspots().is_hot(record), "promotion did not stick");
        let db = Arc::new(db);
        let committed = Arc::new(AtomicI64::new(0));

        let db_build = Arc::clone(&db);
        let committed_build = Arc::clone(&committed);
        let report = run_seed(seed, move |sim| {
            for worker in 0..THREADS {
                let db = Arc::clone(&db_build);
                let committed = Arc::clone(&committed_build);
                sim.spawn(format!("admit-{worker}"), move || {
                    admitted_increments(&db, worker, PER_WORKER, &committed);
                });
            }
        });

        // Conservation: the hot row reflects exactly the committed
        // increments, however many sheds and retries the schedule forced.
        let balance = db
            .storage()
            .read_committed(ACCOUNTS, record)
            .unwrap()
            .unwrap()
            .get_int(1)
            .unwrap();
        assert_eq!(
            balance,
            committed.load(Ordering::Relaxed),
            "seed {seed}: admission lost or duplicated an increment"
        );

        let admission = db.admission();
        // No lost wakeups: every worker exited, so nobody can still be
        // counted as waiting on a queue.
        assert_eq!(
            admission.total_waiting(),
            0,
            "seed {seed}: waiters left parked after all workers exited"
        );
        // Hysteresis re-armed: the burst is over, no queue may stay degraded.
        assert_eq!(
            admission.degraded_queues(),
            0,
            "seed {seed}: a queue stayed degraded after draining"
        );
        // Shed implies queue-full: depth sheds require the queue to have
        // actually reached its bound at some point.
        if admission.depth_sheds() > 0 {
            assert!(
                admission.peak_depth() >= DEPTH as u64,
                "seed {seed}: shed at peak depth {} < configured depth {DEPTH}",
                admission.peak_depth()
            );
        }
        // Metric consistency: the public counters are exactly the sum of the
        // internal shed/grant tallies.
        assert_eq!(
            db.metrics().admission_shed.get(),
            admission.depth_sheds() + admission.timeout_sheds(),
            "seed {seed}: admission_shed disagrees with the controller"
        );
        assert_eq!(
            db.metrics().admission_queued.get(),
            admission.queued_grants(),
            "seed {seed}: admission_queued disagrees with the controller"
        );

        classes.insert(report.coverage.schedule_class);
        if admission.depth_sheds() > 0 {
            shed_seeds += 1;
        }
        if admission.timeout_sheds() > 0 {
            timeout_shed_seeds += 1;
        }
        if admission.queued_grants() > 0 {
            queued_seeds += 1;
        }
        budget_dry_total += db.metrics().retry_budget_exhausted.get();
        db.shutdown();
    }

    println!(
        "sim-coverage: suite=sim_admission runs={n_seeds} classes={} shed_seeds={shed_seeds} \
         timeout_shed_seeds={timeout_shed_seeds} queued_seeds={queued_seeds} \
         budget_dry={budget_dry_total}",
        classes.len()
    );
    assert!(
        queued_seeds > 0,
        "no explored schedule ({n_seeds} seeds) ever queued a waiter — \
         the admission queue is not being exercised"
    );
    assert!(
        shed_seeds > 0,
        "no explored schedule ({n_seeds} seeds) ever overflowed the depth-{DEPTH} queue — \
         the shed path is not being exercised"
    );
    assert!(
        classes.len() > 1,
        "every seed collapsed to a single schedule class"
    );
}

/// Backoff determinism across execution contexts: the jitter sequence for a
/// given seed must be identical whether it is computed natively (as unit
/// tests and replay tooling do) or inside a sim thread (as the drivers do
/// under exploration).  Any divergence would make shrunk schedules
/// unreplayable.
#[test]
fn sim_backoff_jitter_matches_native_replay() {
    let policy = BackoffPolicy {
        budget: 8,
        base: Duration::from_micros(100),
        cap: Duration::from_millis(5),
    };
    for seed in 0..16u64 {
        let native: Vec<Duration> = {
            let mut state = policy.begin(seed);
            std::iter::from_fn(|| state.next_backoff(&policy)).collect()
        };
        assert_eq!(native.len(), policy.budget as usize);

        let in_sim = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&in_sim);
        run_seed(seed, move |sim| {
            let sink = Arc::clone(&sink);
            sim.spawn("backoff", move || {
                let mut state = policy.begin(seed);
                let mut delays = Vec::new();
                while let Some(delay) = state.next_backoff(&policy) {
                    delays.push(delay);
                }
                *sink.lock() = delays;
            });
        });
        assert_eq!(
            *in_sim.lock(),
            native,
            "seed {seed}: sim and native jitter sequences diverged"
        );
    }
}

/// A shed is not silent: under sustained overflow the engine must label the
/// aborts (`overloaded`) and count them, so dashboards can tell load
/// shedding from lock contention.  Checked under exploration because the
/// shed/grant race is exactly where a miscount would hide.
#[test]
fn sim_sheds_are_counted_and_labelled() {
    const THREADS: usize = 4;
    let mut labelled_seeds = 0u64;
    let seeds = txsql_sim::ci_seeds(100);
    let n_seeds = seeds.len();
    for seed in seeds {
        let db = Database::new(sim_config(1));
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        db.load_row(ACCOUNTS, Row::from_ints(&[1, 0])).unwrap();
        let record = db.record_id(ACCOUNTS, 1).unwrap();
        db.hotspots().promote(record);
        let db = Arc::new(db);
        let sink = Arc::new(AtomicI64::new(0));

        let db_build = Arc::clone(&db);
        let sink_build = Arc::clone(&sink);
        run_seed(seed, move |sim| {
            for worker in 0..THREADS {
                let db = Arc::clone(&db_build);
                let sink = Arc::clone(&sink_build);
                sim.spawn(format!("burst-{worker}"), move || {
                    admitted_increments(&db, worker, 1, &sink);
                });
            }
        });

        let shed = db.metrics().admission_shed.get();
        let labelled = db.metrics().abort_causes.get("overloaded");
        assert_eq!(
            labelled, shed,
            "seed {seed}: every shed must surface as an `overloaded` abort cause"
        );
        if shed > 0 && labelled == shed {
            labelled_seeds += 1;
        }
        db.shutdown();
    }
    assert!(
        labelled_seeds > 0,
        "no explored schedule ({n_seeds} seeds) shed with a depth-1 queue under 4 workers"
    );
}

/// Regression guard for the grant/timeout race: a waiter whose deadline and
/// grant fire on the same step must take exactly one of the two paths —
/// either it runs admitted (and later releases) or it sheds (and the grant
/// passes to the next ticket).  Double-consumption would show up here as a
/// stuck waiter or a FIFO assertion inside `release`.
#[test]
fn sim_grant_timeout_race_never_wedges_the_queue() {
    const THREADS: usize = 3;
    let mut timed_out_seeds = 0u64;
    let seeds = txsql_sim::ci_seeds(100);
    let n_seeds = seeds.len();
    for seed in seeds {
        // Tight timeout: queued waiters frequently reach their deadline
        // while the holder is still inside the engine.
        let admission = AdmissionConfig::default()
            .with_enabled(true)
            .with_queue_depth(2)
            .with_queue_timeout(Duration::from_micros(200))
            .with_retry_budget(6)
            .with_backoff(Duration::from_micros(50), Duration::from_millis(1));
        let mut config = EngineConfig::for_protocol(Protocol::GroupLockingTxsql)
            .with_hotspot_threshold(2)
            .with_lock_wait_timeout(Duration::from_millis(100))
            .with_admission_config(admission);
        config.start_sweeper = false;
        let db = Database::new(config);
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        db.load_row(ACCOUNTS, Row::from_ints(&[1, 0])).unwrap();
        let record = db.record_id(ACCOUNTS, 1).unwrap();
        db.hotspots().promote(record);
        let db = Arc::new(db);
        let committed = Arc::new(AtomicI64::new(0));

        let db_build = Arc::clone(&db);
        let committed_build = Arc::clone(&committed);
        run_seed(seed, move |sim| {
            // A slow permit holder: admits the hot key through the same
            // controller and sits on the permit for 5× the queue deadline,
            // so queued front-door transactions race their timeout against
            // the grant that fires at release.
            let holder_db = Arc::clone(&db_build);
            sim.spawn("race-holder".to_string(), move || {
                for _ in 0..2 {
                    match holder_db.admission().admit(&[record]) {
                        Ok(permit) => {
                            txsql_common::latency::simulate_delay(Duration::from_millis(1));
                            holder_db.admission().release(permit);
                        }
                        Err(_) => {
                            txsql_common::latency::simulate_delay(Duration::from_micros(100));
                        }
                    }
                }
            });
            for worker in 0..THREADS {
                let db = Arc::clone(&db_build);
                let committed = Arc::clone(&committed_build);
                sim.spawn(format!("race-{worker}"), move || {
                    admitted_increments(&db, worker, 2, &committed);
                });
            }
        });

        let balance = db
            .storage()
            .read_committed(ACCOUNTS, record)
            .unwrap()
            .unwrap()
            .get_int(1)
            .unwrap();
        assert_eq!(balance, committed.load(Ordering::Relaxed), "seed {seed}");
        assert_eq!(db.admission().total_waiting(), 0, "seed {seed}: wedged");
        assert_eq!(db.admission().degraded_queues(), 0, "seed {seed}");
        if db.admission().timeout_sheds() > 0 {
            timed_out_seeds += 1;
        }
        db.shutdown();
    }
    assert!(
        timed_out_seeds > 0,
        "no explored schedule ({n_seeds} seeds) hit a queue-wait deadline — \
         the timeout-shed path is not being exercised"
    );
}
