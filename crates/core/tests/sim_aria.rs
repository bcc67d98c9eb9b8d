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
//! Both sweeps run on the shared fixture and end in its audit
//! (`txsql_workloads::fixture`): survivors apply exactly once, in an order
//! the recorded history finds serializable.  What is this suite's own is the
//! batch boundary.  Seeds come from `TXSQL_SIM_SEEDS` (CI pins `0..200`).

use txsql_core::{Database, Operation, Protocol, TxnProgram};
use txsql_sim::ResourceKind;
use txsql_workloads::fixture::{self, add, explore, Fixture};

const THREADS: u64 = 3;
const PER_THREAD: usize = 2;

/// A fixture under Aria with batches of `batch_size`: one row every worker
/// increments, and one of its own each.
fn aria_fixture(batch_size: usize) -> Fixture {
    let config = fixture::config(Protocol::Aria).with_aria_batch_size(batch_size);
    Fixture::new(Database::new(config), 1, THREADS as i64)
}

/// Conflicting single-row increments through the Aria pipeline: every
/// explored schedule must conserve the hot row (validation may abort and
/// retry — `AriaValidationFailed` is the expected retry cause — but
/// survivors apply exactly once, in batch order) and no worker may starve.
///
/// Meta-assertions across the seed sweep:
/// * channel yield points fired (the hand-off is visible to the explorer);
/// * at least one schedule packed conflicting jobs into the same batch and
///   aborted one via write-reservation validation — the interleaving class
///   that was unreachable before channel instrumentation.
#[test]
fn sim_aria_conflicting_increments_conserve_the_hot_row() {
    let mut validation_abort_seeds = 0u64;
    let sweep = explore("sim_aria", txsql_sim::ci_seeds(200), |seed| {
        let fixture = aria_fixture(THREADS as usize);
        let report = fixture.simulate(seed, THREADS, |fixture, worker| {
            let increment = TxnProgram::new(vec![add(0, 1)]);
            let committed = fixture.run(worker, &vec![increment; PER_THREAD]);
            assert_eq!(committed, PER_THREAD as u64, "worker {worker} starved");
        });
        fixture.audit(&format!("seed {seed}"));
        let aborts = fixture
            .db
            .metrics()
            .abort_causes
            .get("aria_validation_failed");
        validation_abort_seeds += u64::from(aborts > 0);
        report
    });
    assert!(
        sweep.yields_by_kind[ResourceKind::Channel as usize] > 0,
        "the Aria hand-off channel never became a yield point"
    );
    assert!(
        validation_abort_seeds > 0,
        "no explored schedule ({} seeds) packed conflicting jobs into one batch — \
         the batch-formation interleaving class is not being reached",
        sweep.runs
    );
    assert!(
        sweep.distinct_classes > 1,
        "every seed collapsed to a single schedule class"
    );
}

/// Disjoint-key programs: validation never aborts, so every job must commit
/// on its first attempt on *every* schedule — batch boundary races (full
/// batch vs. `batch_wait` expiry, leader churn, racing drains) may change
/// who leads and how batches split, but never lose a job or wedge a waiter.
#[test]
fn sim_aria_batch_boundary_races_deliver_every_job() {
    explore("sim_aria/boundary", txsql_sim::ci_seeds(100), |seed| {
        let fixture = aria_fixture(2);
        let report = fixture.simulate(seed, THREADS, |fixture, worker| {
            let pk = fixture.cold(worker);
            let table = fixture::ACCOUNTS;
            let program = TxnProgram::new(vec![Operation::Read { table, pk }, add(pk, 1)]);
            let committed = fixture.run(worker, &vec![program; PER_THREAD]);
            assert_eq!(
                committed, PER_THREAD as u64,
                "worker {worker} lost a commit"
            );
        });
        fixture.audit(&format!("seed {seed}"));
        let aborted = fixture.db.metrics().aborted.get();
        assert_eq!(aborted, 0, "seed {seed}: disjoint writes failed validation");
        report
    });
}
