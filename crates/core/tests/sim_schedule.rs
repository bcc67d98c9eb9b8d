//! Whole-engine schedule exploration (`txsql-sim`): the regression tests for
//! the two interleaving bugs the 1-CPU CI box could never reproduce on
//! demand, plus the *organic* hotspot-promotion coverage that previously had
//! to fall back to explicit promotion / row pinning (see `HotSetup` in
//! `engine.rs`).
//!
//! Each test runs the production engine — lock tables, group locking, commit
//! pipeline, MVCC storage — under the cooperative scheduler, once per seed.
//! A failing seed panics with a replayable schedule trace; see
//! `crates/sim/README.md`.  The seed set is `TXSQL_SIM_SEEDS`-overridable
//! (CI pins `0..200`).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::{Row, TableId};
use txsql_core::{Database, EngineConfig, Protocol};
use txsql_sim::run_seed;
use txsql_storage::TableSchema;

const ENVELOPES: TableId = TableId(1);
const CLAIMS: TableId = TableId(2);

/// Engine configuration safe for a sim run: every thread touching the engine
/// must be a sim thread, so the background hotspot sweeper stays off.
fn sim_config(protocol: Protocol) -> EngineConfig {
    let mut config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100))
        .with_history_recording(true);
    config.start_sweeper = false;
    config
}

/// One recipient's claim loop of the miniature red envelope: retryable
/// contention errors (timeouts, deadlock prevention, cascading aborts) retry;
/// a bounded attempt budget keeps adversarial schedules from spinning the
/// step counter out.
fn claim_worker(
    db: Arc<Database>,
    recipient: i64,
    claims: usize,
    claimed_total: Arc<AtomicI64>,
    next_claim_id: Arc<AtomicI64>,
) {
    for _ in 0..claims {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 50 {
                return; // starved by this schedule — conservation still holds
            }
            let mut txn = db.begin();
            let attempt = (|| -> txsql_common::Result<Option<i64>> {
                let envelope = db.select_for_update(&mut txn, ENVELOPES, 1)?;
                let remaining = envelope.get_int(1).unwrap_or(0);
                if remaining <= 0 {
                    return Ok(None);
                }
                let take = remaining.min(3);
                db.update_add(&mut txn, ENVELOPES, 1, 1, -take)?;
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
                        claimed_total.fetch_add(take, Ordering::Relaxed);
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
/// `history is not serializable` artifact; with release-after-ordering in
/// `Database::commit`, every explored schedule stays serializable and
/// conserves the envelope.
#[test]
fn sim_commit_release_ordering_red_envelope() {
    const AMOUNT: i64 = 12;
    for protocol in [Protocol::LightweightO1, Protocol::GroupLockingTxsql] {
        for seed in txsql_sim::ci_seeds(200) {
            let db = Database::new(sim_config(protocol));
            db.create_table(TableSchema::new(ENVELOPES, "envelopes", 2))
                .unwrap();
            db.create_table(TableSchema::new(CLAIMS, "claims", 3))
                .unwrap();
            db.load_row(ENVELOPES, Row::from_ints(&[1, AMOUNT]))
                .unwrap();
            let db = Arc::new(db);
            let claimed_total = Arc::new(AtomicI64::new(0));
            let next_claim_id = Arc::new(AtomicI64::new(1));

            let db_build = Arc::clone(&db);
            let total_build = Arc::clone(&claimed_total);
            let id_build = Arc::clone(&next_claim_id);
            run_seed(seed, move |sim| {
                for recipient in 0..3 {
                    let db = Arc::clone(&db_build);
                    let total = Arc::clone(&total_build);
                    let ids = Arc::clone(&id_build);
                    sim.spawn(format!("recipient-{recipient}"), move || {
                        claim_worker(db, recipient, 2, total, ids);
                    });
                }
            });

            let record = db.record_id(ENVELOPES, 1).unwrap();
            let remaining = db
                .storage()
                .read_committed(ENVELOPES, record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            let claimed = claimed_total.load(Ordering::Relaxed);
            assert_eq!(
                claimed + remaining,
                AMOUNT,
                "{protocol:?} seed {seed}: money was created or destroyed"
            );
            let report = db.history().unwrap().check();
            assert!(
                report.is_serializable(),
                "{protocol:?} seed {seed}: history is not serializable, cycle {:?}\nhistory: {:#?}",
                report.cycle,
                db.history().unwrap().committed_snapshot()
            );
            db.shutdown();
        }
    }
}

/// The PR-1 schedule-shape coverage, restored to *organic* promotion: no
/// `hotspots().promote()`, no pinned row — the contended schedules the
/// simulator explores make waiters pile up naturally, the engine detects the
/// hotspot itself (threshold 2), and traffic mid-run migrates onto the
/// queue-/group-locking path.  Increments must never be lost across the
/// promotion boundary, whatever the schedule.
#[test]
fn sim_organic_hotspot_promotion_loses_no_updates() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 3;
    for protocol in [Protocol::QueueLockingO2, Protocol::GroupLockingTxsql] {
        let mut promoted_seeds = 0u64;
        let seeds = txsql_sim::ci_seeds(100);
        let n_seeds = seeds.len();
        for seed in seeds {
            let mut config = sim_config(protocol);
            config.record_history = false;
            let db = Database::new(config);
            db.create_table(TableSchema::new(ENVELOPES, "accounts", 2))
                .unwrap();
            db.load_row(ENVELOPES, Row::from_ints(&[1, 0])).unwrap();
            let db = Arc::new(db);

            let db_build = Arc::clone(&db);
            run_seed(seed, move |sim| {
                for worker in 0..THREADS {
                    let db = Arc::clone(&db_build);
                    sim.spawn(format!("incr-{worker}"), move || {
                        let mut committed = 0;
                        let mut attempts = 0;
                        while committed < PER_THREAD {
                            attempts += 1;
                            assert!(attempts < 200, "worker starved");
                            let mut txn = db.begin();
                            match db.update_add(&mut txn, ENVELOPES, 1, 1, 1) {
                                Ok(_) => {
                                    if db.commit(txn).is_ok() {
                                        committed += 1;
                                    }
                                }
                                Err(err) if err.is_retryable() => {
                                    db.rollback(txn, Some(&err));
                                }
                                Err(err) => panic!("worker {worker}: {err}"),
                            }
                        }
                    });
                }
            });

            let record = db.record_id(ENVELOPES, 1).unwrap();
            let balance = db
                .storage()
                .read_committed(ENVELOPES, record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            assert_eq!(
                balance,
                (THREADS * PER_THREAD) as i64,
                "{protocol:?} seed {seed}: increments were lost"
            );
            if db.hotspots().promotions() > 0 {
                promoted_seeds += 1;
            }
            db.shutdown();
        }
        // The whole point of exploration: organic waiter pile-ups (and hence
        // organic promotion) must actually occur on a 1-CPU box.
        assert!(
            promoted_seeds > 0,
            "{protocol:?}: no explored schedule promoted the hot row organically \
             ({n_seeds} seeds)"
        );
    }
}
