//! Aria batch pipeline under schedule exploration (`txsql-sim`).
//!
//! Before the channel shim was instrumented, Aria's batch hand-off was a
//! blind spot: the coordinator's queue operations never yielded, so the
//! explorer could not place a context switch between "job enqueued" and
//! "leader drains" — every seed saw the same degenerate one-job batches.
//! With `send`/`try_recv` as tagged yield points, batch formation races are
//! explorable: who joins a batch, who becomes leader, and where the batch
//! boundary falls all vary by schedule, which is exactly what Aria's
//! deterministic validation (write reservations, batch-order aborts) must
//! survive.  The meta-assertions at the bottom pin that this interleaving
//! class is actually reached.
//!
//! Seeds come from `TXSQL_SIM_SEEDS` (CI pins `0..200`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::{Row, TableId};
use txsql_core::{Database, EngineConfig, Operation, Protocol, TxnProgram};
use txsql_sim::{run_seed, ResourceKind};
use txsql_storage::TableSchema;

const ACCOUNTS: TableId = TableId(1);

/// Engine configuration safe for a sim run: every thread touching the engine
/// must be a sim thread, so the background hotspot sweeper stays off.
fn sim_config(batch_size: usize) -> EngineConfig {
    let mut config = EngineConfig::for_protocol(Protocol::Aria)
        .with_aria_batch_size(batch_size)
        .with_lock_wait_timeout(Duration::from_millis(100));
    config.start_sweeper = false;
    config
}

/// A worker that retries its program until it commits; Aria validation
/// aborts (`AriaValidationFailed`) are the expected retry cause.
fn submit_until_committed(db: &Database, program: &TxnProgram, who: usize) -> u64 {
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        assert!(attempts < 100, "worker {who} starved by this schedule");
        match db.execute_program(program) {
            Ok(outcome) if outcome.committed => return attempts,
            Ok(_) => panic!("worker {who}: program rolled back without ForcedRollback"),
            Err(err) if err.is_retryable() => {}
            Err(err) => panic!("worker {who}: unexpected error {err}"),
        }
    }
}

/// Conflicting single-row increments through the Aria pipeline: every
/// explored schedule must conserve the hot row (validation may abort and
/// retry, but survivors apply exactly once, in batch order).
///
/// Meta-assertions across the seed sweep:
/// * channel yield points fired (the hand-off is visible to the explorer);
/// * at least one schedule packed conflicting jobs into the same batch and
///   aborted one via write-reservation validation — the interleaving class
///   that was unreachable before channel instrumentation.
#[test]
fn sim_aria_conflicting_increments_conserve_the_hot_row() {
    const THREADS: usize = 3;
    const PER_THREAD: i64 = 2;
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut classes: HashSet<u64> = HashSet::new();
    let mut channel_yields = 0u64;
    let mut validation_abort_seeds = 0u64;
    let mut total_contended = 0u64;
    let mut total_skips = 0u64;

    for seed in seeds {
        let db = Database::new(sim_config(THREADS));
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        db.load_row(ACCOUNTS, Row::from_ints(&[1, 0])).unwrap();
        let db = Arc::new(db);
        let committed_increments = Arc::new(AtomicI64::new(0));

        let db_build = Arc::clone(&db);
        let committed_build = Arc::clone(&committed_increments);
        let report = run_seed(seed, move |sim| {
            for worker in 0..THREADS {
                let db = Arc::clone(&db_build);
                let committed = Arc::clone(&committed_build);
                sim.spawn(format!("aria-{worker}"), move || {
                    let program = TxnProgram::new(vec![Operation::UpdateAdd {
                        table: ACCOUNTS,
                        pk: 1,
                        column: 1,
                        delta: 1,
                    }]);
                    for _ in 0..PER_THREAD {
                        submit_until_committed(&db, &program, worker);
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        let record = db.record_id(ACCOUNTS, 1).unwrap();
        let balance = db
            .storage()
            .read_committed(ACCOUNTS, record)
            .unwrap()
            .unwrap()
            .get_int(1)
            .unwrap();
        assert_eq!(
            balance,
            committed_increments.load(Ordering::Relaxed),
            "seed {seed}: Aria lost or duplicated an increment"
        );
        assert_eq!(
            balance,
            THREADS as i64 * PER_THREAD,
            "seed {seed}: a worker exited without committing its quota"
        );

        classes.insert(report.coverage.schedule_class);
        channel_yields += report.coverage.yields_of(ResourceKind::Channel);
        total_contended += report.coverage.contended_decisions;
        total_skips += report.coverage.commuting_skips;
        if db.metrics().abort_causes.get("aria_validation_failed") > 0 {
            validation_abort_seeds += 1;
        }
        db.shutdown();
    }

    println!(
        "sim-coverage: suite=sim_aria runs={n_seeds} classes={} contended={total_contended} \
         skips={total_skips} channel_yields={channel_yields}",
        classes.len()
    );
    assert!(
        channel_yields > 0,
        "the Aria hand-off channel never became a yield point"
    );
    assert!(
        validation_abort_seeds > 0,
        "no explored schedule ({n_seeds} seeds) packed conflicting jobs into one batch — \
         the batch-formation interleaving class is not being reached"
    );
    assert!(
        classes.len() > 1,
        "every seed collapsed to a single schedule class"
    );
}

/// Disjoint-key programs: validation never aborts, so every job must commit
/// on its first attempt on *every* schedule — batch boundary races (full
/// batch vs. `batch_wait` expiry, leader churn, racing drains) may change
/// who leads and how batches split, but never lose a job or wedge a waiter.
#[test]
fn sim_aria_batch_boundary_races_deliver_every_job() {
    const THREADS: usize = 3;
    let seeds = txsql_sim::ci_seeds(100);
    let mut multi_attempt_seeds = 0u64;
    for seed in seeds {
        let db = Database::new(sim_config(2));
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        for worker in 0..THREADS {
            db.load_row(ACCOUNTS, Row::from_ints(&[worker as i64 + 1, 0]))
                .unwrap();
        }
        let db = Arc::new(db);

        let db_build = Arc::clone(&db);
        run_seed(seed, move |sim| {
            for worker in 0..THREADS {
                let db = Arc::clone(&db_build);
                sim.spawn(format!("aria-{worker}"), move || {
                    let pk = worker as i64 + 1;
                    let program = TxnProgram::new(vec![
                        Operation::Read {
                            table: ACCOUNTS,
                            pk,
                        },
                        Operation::UpdateAdd {
                            table: ACCOUNTS,
                            pk,
                            column: 1,
                            delta: 1,
                        },
                    ]);
                    for _ in 0..2 {
                        let attempts = submit_until_committed(&db, &program, worker);
                        assert_eq!(
                            attempts, 1,
                            "worker {worker}: disjoint writes must never fail validation"
                        );
                    }
                });
            }
        });

        for worker in 0..THREADS {
            let record = db.record_id(ACCOUNTS, worker as i64 + 1).unwrap();
            let balance = db
                .storage()
                .read_committed(ACCOUNTS, record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            assert_eq!(balance, 2, "seed {seed}: worker {worker} lost a commit");
        }
        if db.metrics().committed.get() > 0 && db.metrics().aborted.get() > 0 {
            multi_attempt_seeds += 1;
        }
        db.shutdown();
    }
    assert_eq!(
        multi_attempt_seeds, 0,
        "disjoint-key programs aborted somewhere in the sweep"
    );
}
