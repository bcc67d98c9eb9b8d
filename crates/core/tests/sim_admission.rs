//! Front-door admission control under schedule exploration (`txsql-sim`).
//!
//! The admission queues are exactly the kind of hand-rolled waiter machinery
//! that hides lost-wakeup and leaked-ticket bugs behind timing: a grant that
//! races a timeout, a shed that forgets to release the keys it already
//! queued on, a degraded queue that never re-arms.  Each test here runs the
//! production engine with admission enabled under the cooperative scheduler,
//! once per seed, on the shared fixture (`txsql_workloads::fixture`), whose
//! audit every schedule ends in — the hot row holds exactly the committed
//! increments however many sheds and retries the schedule forced, the
//! history is serializable, nothing is left locked — and which carries two of
//! this suite's oracle invariants for every other suite too:
//!
//! * **No lost wakeups** — once all workers exit, `total_waiting()` is zero;
//!   nobody is left parked on a queue that will never signal them.
//! * **Hysteresis re-arms** — after the burst drains, `degraded_queues()`
//!   is zero again.
//!
//! This suite's own:
//!
//! * **FIFO per key** — the ticket queue asserts strictly increasing grants
//!   internally; any out-of-order grant panics the sim thread and fails the
//!   seed with a replayable schedule.
//! * **Shed implies queue-full** — `depth_sheds > 0` only if the peak queue
//!   depth actually reached the configured bound.
//! * **Sheds are counted and labelled**, and a grant that races a timeout is
//!   taken exactly once.
//!
//! Seeds come from `TXSQL_SIM_SEEDS` (CI pins `0..200`).

use std::sync::Arc;
use std::time::Duration;
use txsql_core::{AdmissionConfig, BackoffPolicy, Database, Protocol, TxnProgram};
use txsql_sim::run_seed;
use txsql_workloads::fixture::{self, add, explore, Fixture};

const HOT: i64 = 0;

/// A fixture with one force-promoted hot row (so admission gates from the
/// very first transaction; organic promotion is `sim_schedule.rs`'s job)
/// behind a deliberately tiny admission queue: with 4 workers, 1 holder +
/// `depth` waiters leaves the last arrival nowhere to stand.  The drivers'
/// retry loop runs on `budget`; a worker whose budget runs dry abandons that
/// increment, which the audit's ledger then does not expect.
fn admission_fixture(depth: usize, queue_timeout: Duration, budget: u32) -> Fixture {
    let mut config = fixture::config(Protocol::GroupLockingTxsql);
    config.admission = AdmissionConfig {
        enabled: true,
        queue_depth: depth,
        queue_timeout,
        retry_budget: budget,
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_millis(1),
    };
    let fixture = Fixture::new(Database::new(config), 1, 0);
    let record = fixture.record(HOT);
    fixture.db.hotspots().promote(record);
    assert!(
        fixture.db.hotspots().is_hot(record),
        "promotion did not stick"
    );
    fixture
}

/// `rounds` increments of the hot row through the `execute_program` front
/// door: every retryable outcome (shed, lock timeout, deadlock avoidance)
/// goes through the drivers' budgeted backoff.
fn increments(rounds: usize) -> Vec<TxnProgram> {
    vec![TxnProgram::new(vec![add(HOT, 1)]); rounds]
}

/// The main oracle sweep: 4 workers hammer the hot row with queue depth 2, so
/// explored schedules cover immediate grants, queued grants, depth sheds,
/// timeout sheds, and grant/timeout races.  Every seed must end drained,
/// FIFO-clean, and conserving the row.
#[test]
fn sim_admission_queue_oracle_drains_and_conserves() {
    const THREADS: u64 = 4;
    const DEPTH: usize = 2;
    let mut shed_seeds = 0u64;
    let mut queued_seeds = 0u64;
    let sweep = explore("sim_admission", txsql_sim::ci_seeds(200), |seed| {
        let fixture = admission_fixture(DEPTH, Duration::from_millis(20), 8);
        let report = fixture.simulate(seed, THREADS, |fixture, worker| {
            fixture.run(worker, &increments(2));
        });
        fixture.audit(&format!("seed {seed}"));

        let (db, admission) = (&fixture.db, fixture.db.admission());
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
        shed_seeds += u64::from(admission.depth_sheds() > 0);
        queued_seeds += u64::from(admission.queued_grants() > 0);
        report
    });
    let n_seeds = sweep.runs;
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
        sweep.distinct_classes > 1,
        "every seed collapsed to a single schedule class"
    );
}

/// Backoff determinism across execution contexts: the jitter sequence for a
/// given seed must be identical whether it is computed natively (as unit
/// tests and replay tooling do) or inside a sim thread (as the drivers do
/// under exploration).  Any divergence would make shrunk schedules
/// unreplayable.  (No engine: the policy alone.)
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
    let mut labelled_seeds = 0u64;
    let sweep = explore("sim_admission/labels", txsql_sim::ci_seeds(100), |seed| {
        let fixture = admission_fixture(1, Duration::from_millis(20), 8);
        let report = fixture.simulate(seed, 4, |fixture, worker| {
            fixture.run(worker, &increments(1));
        });
        let shed = fixture.db.metrics().admission_shed.get();
        let labelled = fixture.db.metrics().abort_causes.get("overloaded");
        assert_eq!(
            labelled, shed,
            "seed {seed}: every shed must surface as an `overloaded` abort cause"
        );
        labelled_seeds += u64::from(shed > 0);
        fixture.audit(&format!("seed {seed}"));
        report
    });
    assert!(
        labelled_seeds > 0,
        "no explored schedule ({} seeds) shed with a depth-1 queue under 4 workers",
        sweep.runs
    );
}

/// Regression guard for the grant/timeout race: a waiter whose deadline and
/// grant fire on the same step must take exactly one of the two paths —
/// either it runs admitted (and later releases) or it sheds (and the grant
/// passes to the next ticket).  Double-consumption would show up here as a
/// stuck waiter or a FIFO assertion inside the ticket queue.
#[test]
fn sim_grant_timeout_race_never_wedges_the_queue() {
    const THREADS: u64 = 3;
    let mut timed_out_seeds = 0u64;
    let sweep = explore("sim_admission/race", txsql_sim::ci_seeds(100), |seed| {
        // Tight timeout: queued waiters frequently reach their deadline
        // while the holder is still inside the engine.
        let fixture = admission_fixture(2, Duration::from_micros(200), 6);
        let report = fixture.simulate(seed, THREADS + 1, |fixture, worker| {
            if worker < THREADS {
                fixture.run(worker, &increments(2));
                return;
            }
            // A slow permit holder: admits the hot key through the same
            // controller and sits on the permit for 5× the queue deadline,
            // so queued front-door transactions race their timeout against
            // the grant that fires at release.
            let admission = fixture.db.admission();
            for _ in 0..2 {
                match admission.admit(&[fixture.record(HOT)]) {
                    Ok(permit) => {
                        txsql_common::latency::simulate_delay(Duration::from_millis(1));
                        admission.release(permit);
                    }
                    Err(_) => txsql_common::latency::simulate_delay(Duration::from_micros(100)),
                }
            }
        });
        fixture.audit(&format!("seed {seed}"));
        timed_out_seeds += u64::from(fixture.db.admission().timeout_sheds() > 0);
        report
    });
    assert!(
        timed_out_seeds > 0,
        "no explored schedule ({} seeds) hit a queue-wait deadline — \
         the timeout-shed path is not being exercised",
        sweep.runs
    );
}
