//! Whole-engine schedule exploration (`txsql-sim`): the regression tests for
//! the two interleaving bugs the 1-CPU CI box could never reproduce on
//! demand, plus the *organic* hotspot-promotion coverage that previously had
//! to fall back to explicit promotion / row pinning (see `HotSetup` in
//! `engine.rs`).
//!
//! Each test runs the production engine — lock tables, group locking, commit
//! pipeline, MVCC storage — under the cooperative scheduler, once per seed,
//! on the shared fixture (`txsql_workloads::fixture`), and ends in its audit;
//! what is this suite's own is the red-envelope shape.  A failing seed panics
//! with a replayable schedule trace; see `crates/sim/README.md`.  The seed
//! set is `TXSQL_SIM_SEEDS`-overridable (CI pins `0..200`).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use txsql_common::{Row, TableId};
use txsql_core::{Database, Protocol, TxnProgram};
use txsql_storage::TableSchema;
use txsql_workloads::fixture::{self, add, explore, Fixture, ACCOUNTS};

/// Account 0 is the envelope (and, in the promotion test, the counter).
const ENVELOPE: i64 = 0;
const CLAIMS: TableId = TableId(2);

/// One recipient's claim loop of the miniature red envelope.  Hand-rolled
/// because the claim reads the envelope before it decides what to write,
/// which a `TxnProgram` cannot say: retryable contention errors (timeouts,
/// deadlock prevention, cascading aborts) retry; a bounded attempt budget
/// keeps adversarial schedules from spinning the step counter out.
fn claim_worker(fixture: &Fixture, recipient: i64, claims: usize, next_claim_id: &AtomicI64) {
    let db = &fixture.db;
    for _ in 0..claims {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 50 {
                return; // starved by this schedule — conservation still holds
            }
            let mut txn = db.begin();
            let attempt = (|| -> txsql_common::Result<Option<i64>> {
                let envelope = db.select_for_update(&mut txn, ACCOUNTS, ENVELOPE)?;
                let remaining = envelope.get_int(1).unwrap_or(0);
                if remaining <= 0 {
                    return Ok(None);
                }
                let take = remaining.min(3);
                db.update_add(&mut txn, ACCOUNTS, ENVELOPE, 1, -take)?;
                let claim_id = next_claim_id.fetch_add(1, Ordering::Relaxed);
                db.insert(
                    &mut txn,
                    CLAIMS,
                    Row::from_ints(&[claim_id, recipient, take]),
                )?;
                Ok(Some(take))
            })();
            match attempt {
                Ok(Some(take)) => {
                    if db.commit(txn).is_ok() {
                        fixture.acked(&[(ENVELOPE, -take)]);
                        break;
                    }
                }
                Ok(None) => {
                    db.rollback(txn, None);
                    return; // envelope empty
                }
                Err(err) if err.is_retryable() => db.rollback(txn, Some(&err)),
                Err(err) => panic!("recipient {recipient}: unexpected error {err}"),
            }
        }
    }
}

/// Regression test for the `examples/red_envelope` serializability violation.
///
/// The seed engine released every lock *before* `commit_writes` ordered the
/// commit record; under an explored schedule a competing claim slips into
/// that window, locks the envelope row, reads the pre-commit balance and
/// commits with a smaller `trx_no` — the checker then finds a ww/rw cycle
/// (and money is occasionally created from thin air).  On the pre-fix code
/// this fails within the first handful of seeds with a
/// `history is not serializable` artifact from the audit; with
/// release-after-ordering in `Database::commit`, every explored schedule
/// stays serializable and conserves the envelope: what is left in it is what
/// was put in minus what the acknowledged claims took.
#[test]
fn sim_commit_release_ordering_red_envelope() {
    const AMOUNT: i64 = 12;
    let cases = fixture::cases(&[Protocol::LightweightO1, Protocol::GroupLockingTxsql], 200);
    explore("sim_schedule/red_envelope", cases, |(protocol, seed)| {
        let fixture = Fixture::new(Database::new(fixture::config(protocol)), 1, 0);
        let claims = TableSchema::new(CLAIMS, "claims", 3);
        fixture.db.create_table(claims).unwrap();
        let fill = TxnProgram::new(vec![add(ENVELOPE, AMOUNT)]);
        assert_eq!(fixture.run(0, &[fill]), 1);
        let next_claim_id = Arc::new(AtomicI64::new(1));
        let report = fixture.simulate(seed, 3, move |fixture, recipient| {
            claim_worker(fixture, recipient as i64, 2, &next_claim_id);
        });
        assert!(fixture.value(ENVELOPE) >= 0, "{protocol:?} seed {seed}");
        fixture.audit(&format!("{protocol:?} seed {seed}"));
        report
    });
}

/// The PR-1 schedule-shape coverage, restored to *organic* promotion: no
/// `hotspots().promote()`, no pinned row — the contended schedules the
/// simulator explores make waiters pile up naturally, the engine detects the
/// hotspot itself (threshold 2), and traffic mid-run migrates onto the
/// queue-/group-locking path.  Increments must never be lost across the
/// promotion boundary, whatever the schedule.
#[test]
fn sim_organic_hotspot_promotion_loses_no_updates() {
    const THREADS: u64 = 4;
    const PER_THREAD: usize = 3;
    let protocols = [Protocol::QueueLockingO2, Protocol::GroupLockingTxsql];
    let mut promoted_seeds = [0u64; 2];
    let cases = fixture::cases(&protocols, 100);
    let sweep = explore("sim_schedule/promotion", cases, |(protocol, seed)| {
        let fixture = Fixture::new(Database::new(fixture::config(protocol)), 1, 0);
        let report = fixture.simulate(seed, THREADS, |fixture, worker| {
            let increment = TxnProgram::new(vec![add(ENVELOPE, 1)]);
            let committed = fixture.run(worker, &vec![increment; PER_THREAD]);
            assert_eq!(committed, PER_THREAD as u64, "worker {worker} starved");
        });
        fixture.audit(&format!("{protocol:?} seed {seed}"));
        let promoted = fixture.db.hotspots().promotions() > 0;
        promoted_seeds[usize::from(protocol == protocols[1])] += u64::from(promoted);
        report
    });
    // The whole point of exploration: organic waiter pile-ups (and hence
    // organic promotion) must actually occur on a 1-CPU box.
    for (protocol, promoted) in protocols.iter().zip(promoted_seeds) {
        assert!(
            promoted > 0,
            "{protocol:?}: no explored schedule promoted the hot row organically \
             ({} runs)",
            sweep.runs
        );
    }
}
