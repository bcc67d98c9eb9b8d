//! Whole-engine crash exploration (`txsql-sim` + the storage fault
//! injector): every seed derives a [`FaultPlan`] that crashes the engine at
//! a named crash point — mid-commit, mid-handover, mid-group-commit-batch,
//! mid-checkpoint — then restarts it through
//! [`Fixture::restart`] (`Database::restart_from_crash` plus a probe commit)
//! and ends in the shared audit (`txsql_workloads::fixture`), which is the
//! **recovery oracle**:
//!
//! 1. every commit the pipeline *acknowledged* is present after restart;
//! 2. no uncommitted write survives — transactions in flight at the crash
//!    are rolled back, and a transaction's writes recover atomically (each
//!    one writes the hot row and its worker's cold row);
//! 3. the restarted engine is fully working, and the history the crashed one
//!    recorded is serializable.
//!
//! What is this suite's own is the fault — the plans, which crash points must
//! fire, what a torn tail or a half-published checkpoint recovers to.  The
//! sweeps run every seed under 2PL, queue locking and group locking.  A
//! failing seed panics with a replayable schedule trace; the seed set is
//! `TXSQL_SIM_SEEDS`-overridable (CI pins `0..200`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::{Error, Lsn, TxnId};
use txsql_core::{Database, Protocol, TxnProgram};
use txsql_sim::{run_seed, RunReport};
use txsql_storage::fault::{CrashPoint, FaultInjector, FaultPlan};
use txsql_storage::wal::{RedoLog, RedoRecord};
use txsql_workloads::fixture::{self, add, explore, Fixture};

const HOT: i64 = 0;
const WORKERS: u64 = 3;
const PER_WORKER: usize = 2;

/// Every sweep runs every seed under each of these, so that a seed-derived
/// fault parameter meets every protocol.
const PROTOCOLS: [Protocol; 3] = [
    Protocol::GroupLockingTxsql,
    Protocol::Mysql2pl,
    Protocol::QueueLockingO2,
];

/// A fixture whose engine runs `plan`, one hot row, a cold row per worker.
fn crash_fixture(protocol: Protocol, plan: FaultPlan, latency: LatencyModel) -> Fixture {
    let config = fixture::config(protocol)
        .with_fault_plan(plan)
        .with_latency(latency);
    Fixture::new(Database::new(config), 1, WORKERS as i64)
}

/// `+1` to the hot row *and* `+1` to the worker's cold row, so the audit sees
/// durability (every acknowledged increment) and atomicity (both or neither).
fn increment(fixture: &Fixture, worker: u64) -> TxnProgram {
    TxnProgram::new(vec![add(HOT, 1), add(fixture.cold(worker), 1)])
}

/// The crash workload under one seed: `WORKERS` workers commit `PER_WORKER`
/// increments each (a dead engine ends a worker's run) and, with
/// `checkpointer`, one more thread checkpoints twice alongside them so that
/// a crash can land between publishing an image and truncating behind it.
fn run_workload(fixture: &Fixture, seed: u64, checkpointer: bool) -> RunReport {
    let threads = WORKERS + u64::from(checkpointer);
    fixture.simulate(seed, threads, |fixture, worker| {
        if worker == WORKERS {
            // Stops at a crash mid-checkpoint (or a read-only engine).
            let _ = fixture
                .db
                .checkpoint()
                .and_then(|_| fixture.db.checkpoint());
        } else {
            fixture.run(worker, &vec![increment(fixture, worker); PER_WORKER]);
        }
    })
}

/// Where a walk over `redo`'s durable bytes scan-stops: the frame a cut
/// flush tore, `None` when the bytes end with a whole frame.
fn torn_tail(redo: &RedoLog) -> Option<Lsn> {
    let mut frames = redo.durable_frames();
    frames.by_ref().for_each(drop);
    frames.torn_tail()
}

/// The sweeps' vacuity check: under every protocol some explored schedule
/// crashed with a commit already acknowledged — without one the audit's
/// acked ⊆ durable has nothing to lose.
fn assert_all_crashed_after_an_ack(crashed: &HashSet<Protocol>) {
    let all = PROTOCOLS.len();
    assert_eq!(crashed.len(), all, "only {crashed:?} crashed after an ack");
}

/// Seeded crash exploration: every explored schedule must satisfy the
/// recovery oracle, and across the seed set every seeded crash point must
/// actually fire at least once, and every protocol must have been crashed
/// after it acknowledged something (otherwise the exploration is vacuous).
#[test]
fn sim_crash_exploration_recovers_every_acknowledged_commit() {
    let mut crashed = HashSet::new();
    let mut acked_then_crashed = HashSet::new();
    let cases = fixture::cases(&PROTOCOLS, 200);
    let summary = explore("sim_crash", cases, |(protocol, seed)| {
        let plan = FaultPlan::seeded(seed);
        let target = plan.crash_target();
        let mut fixture = crash_fixture(protocol, plan, LatencyModel::in_memory());
        let context = format!("{protocol:?} seed {seed}");
        // The baseline checkpoint makes the bulk-loaded rows recoverable (bulk
        // load is not redo-logged).  A `Checkpoint`-targeted plan with
        // `nth_hit == 1` crashes right here — before any workload ran — and
        // restart produces an empty engine, which the workload below has to
        // find working.
        if fixture.db.checkpoint().is_err() {
            assert!(fixture.db.has_crashed(), "{context}: baseline checkpoint");
            let (recovered, report) = fixture.db.restart_from_crash().unwrap();
            assert!(report.committed.is_empty() && report.rolled_back.is_empty());
            crashed.insert(target.unwrap().0.name());
            fixture = Fixture::new(recovered, 1, WORKERS as i64);
            fixture.db.checkpoint().unwrap();
        }
        let run = run_workload(&fixture, seed, true);
        if fixture.db.has_crashed() {
            let fired = fixture.db.metrics().crash_injected.get();
            assert_eq!(fired, 1, "{context}: a crash fires exactly once");
            crashed.insert(target.expect("only a planned crash can fire").0.name());
            if fixture.acknowledged(HOT) > 0 {
                acked_then_crashed.insert(protocol);
            }
        }
        let (recovered, report) = fixture.restart();
        // Observability: the replay counter of the restarted engine matches
        // the report.
        let replayed = recovered.db.metrics().recovery_replayed.get();
        assert_eq!(replayed, report.replayed as u64, "{context}");
        recovered.audit(&format!("{context}\n{}", report.summary()));
        run
    });
    // Meta-assertion: the whole point of seeding is coverage of every seeded
    // crash point (FsyncError crashes are exercised separately by the wal
    // unit tests and the fsync-retry seeds below).
    for point in [
        "pre_append",
        "post_append_pre_flush",
        "mid_flush",
        "checkpoint",
    ] {
        let runs = summary.runs;
        assert!(
            crashed.contains(point),
            "crash point {point} never fired across {runs} runs (saw {crashed:?})"
        );
    }
    assert_all_crashed_after_an_ack(&acked_then_crashed);
}

/// The bounded-retry path under exploration: seeds whose plan injects
/// transient fsync errors must retry them (visible in `fsync_retries`)
/// without degrading the engine, and the oracle must still hold.
#[test]
fn sim_transient_fsync_errors_recover_under_exploration() {
    let mut retried = HashSet::new();
    let cases = fixture::cases(&PROTOCOLS, 40);
    explore("sim_crash/fsync_retry", cases, |(protocol, seed)| {
        // Plans without a crash: only the transient-error budget, so every
        // flush eventually succeeds and no worker dies early.
        let plan = FaultPlan::none().with_transient_fsync_errors(2);
        let fixture = crash_fixture(protocol, plan, LatencyModel::in_memory());
        fixture.db.checkpoint().unwrap();
        let run = run_workload(&fixture, seed, false);
        assert!(!fixture.db.has_crashed() && !fixture.db.is_read_only());
        if fixture.db.metrics().fsync_retries.get() > 0 {
            retried.insert(protocol);
        }
        // Retried flushes must not lose or invent commits.
        fixture.audit(&format!("{protocol:?} seed {seed}"));
        run
    });
    assert_eq!(
        retried.len(),
        PROTOCOLS.len(),
        "only {retried:?} exercised an fsync retry"
    );
}

/// A crash landing *inside* a group-commit flush batch: non-zero fsync
/// latency makes followers pile up behind one leader flush, and the
/// mid-flush cut — at a byte offset, with garbage behind it: any prefix of
/// the batch's bytes, from all of it but a byte to none of it — leaves a torn
/// tail that recovery must scan-stop at.  Some batch members' commit markers
/// may survive below the cut — they were answered with an error (in doubt),
/// which the audit permits — but nothing acknowledged may be lost.  Under
/// every protocol some schedule must lead a batch from a held stage (a
/// worker held the free stage and the next arrival took its queue,
/// `core::commit`), so that a held batch meets the cut too.
#[test]
fn sim_torn_tail_inside_group_commit_batch_recovers() {
    let mut acked_then_crashed = HashSet::new();
    let mut held = HashSet::new();
    let cases = fixture::cases(&PROTOCOLS, 60);
    explore("sim_crash/torn_tail", cases, |(protocol, seed)| {
        let plan = FaultPlan::none()
            .crash_at(CrashPoint::MidFlush, 1 + seed % 3)
            .with_torn_cut_back(1 + seed * 7 % 300);
        let fixture = crash_fixture(protocol, plan, LatencyModel::local_ssd());
        fixture.db.checkpoint().unwrap();
        let run = run_workload(&fixture, seed, false);
        if fixture.db.metrics().commit_held_batches.get() > 0 {
            held.insert(protocol);
        }
        let crashed = fixture.db.has_crashed();
        let acked = fixture.acknowledged(HOT);
        let redo = fixture.db.storage().redo();
        let (torn, durable) = (torn_tail(redo), redo.durable_lsn());
        let (recovered, report) = fixture.restart();
        if crashed {
            assert_eq!(
                torn,
                Some(Lsn(durable.0 + 1)),
                "seed {seed}: a mid-flush crash must leave a torn tail"
            );
            assert_eq!(
                report.torn_tail, torn,
                "recovery must scan-stop at the torn frame"
            );
            if acked > 0 {
                acked_then_crashed.insert(protocol);
            }
        }
        recovered.audit(&format!("{protocol:?} seed {seed}"));
        run
    });
    assert_all_crashed_after_an_ack(&acked_then_crashed);
    assert_eq!(held.len(), PROTOCOLS.len(), "only {held:?} held a stage");
}

// ---------------------------------------------------------------------------
// Deterministic checkpoint/truncation interplay (no sim needed)
// ---------------------------------------------------------------------------

/// Commits `delta` to the hot row through the session API and flushes it.
fn commit_durably(fixture: &Fixture, delta: i64) -> TxnId {
    let db = &fixture.db;
    let mut txn = db.begin();
    db.update_add(&mut txn, fixture::ACCOUNTS, HOT, 1, delta)
        .unwrap();
    let id = txn.id;
    db.commit(txn).unwrap();
    fixture.acked(&[(HOT, delta)]);
    db.storage().redo().flush_all().unwrap();
    id
}

/// A checkpoint taken with a transaction in flight must keep that
/// transaction's records in the log (truncation stops at the active-txn
/// floor), so a later crash recovers: image rows + post-image log rows, and
/// the in-flight transaction rolled back.
#[test]
fn checkpoint_with_inflight_txn_then_crash_recovers_image_plus_log() {
    let fixture = crash_fixture(PROTOCOLS[0], FaultPlan::none(), LatencyModel::in_memory());
    let db = &fixture.db;
    db.checkpoint().unwrap();

    // A committed, durable transaction folded into the next image...
    commit_durably(&fixture, 5);

    // ...a transaction still in flight when the checkpoint runs (it holds a
    // cold row so the later hot-row commit is not blocked behind its lock)...
    let mut in_flight = db.begin();
    db.update_add(&mut in_flight, fixture::ACCOUNTS, fixture.cold(0), 1, 100)
        .unwrap();
    let image = db.checkpoint().unwrap();
    assert!(
        db.metrics().wal_truncated_records.get() > 0,
        "the committed prefix below the active-txn floor must be truncated"
    );

    // ...and one committed after the image was cut.
    let c_id = commit_durably(&fixture, 7);

    // "Crash" with the in-flight transaction still open: restart recovers
    // the image (5), replays the post-image suffix (7) and rolls back the
    // in-flight +100 — the ledger never heard of it, so the audit would see
    // it survive.
    let in_flight_id = in_flight.id;
    let (recovered, report) = fixture.restart();
    assert_eq!(recovered.value(HOT), 5 + 7 + 1, "image, log and the probe");
    assert!(report.rolled_back.contains(&in_flight_id));
    assert!(report.committed.contains(&c_id));
    assert!(image.lsn >= Lsn(1));
    db.rollback(in_flight, None);
    recovered.audit("checkpoint with a transaction in flight");
}

/// A transaction that sets the hot row back to an earlier value (`+1, +1,
/// -1`) recovers as its last write left it, under every protocol: its second
/// image of the same row is a write of its own, not a record to skip.
#[test]
fn a_row_set_back_to_an_earlier_value_recovers_its_last_write() {
    for protocol in PROTOCOLS {
        let fixture = crash_fixture(protocol, FaultPlan::none(), LatencyModel::in_memory());
        let db = &fixture.db;
        db.checkpoint().unwrap();
        let mut txn = db.begin();
        for delta in [1, 1, -1] {
            db.update_add(&mut txn, fixture::ACCOUNTS, HOT, 1, delta)
                .unwrap();
        }
        db.commit(txn).unwrap();
        fixture.acked(&[(HOT, 1)]);
        db.storage().redo().flush_all().unwrap();
        let (recovered, _) = fixture.restart();
        recovered.audit(&format!("{protocol:?}: +1, +1, -1 on the hot row"));
    }
}

/// A crash *between* flushing a checkpoint image and publishing it: the new
/// image is discarded and recovery falls back to the previous baseline plus
/// the un-truncated log, which replay redoes in order from that baseline.
#[test]
fn crash_during_checkpoint_falls_back_to_previous_baseline() {
    // Hit 1 is the baseline checkpoint below; hit 2 the crashing one.
    let plan = FaultPlan::none().crash_at(CrashPoint::Checkpoint, 2);
    let fixture = crash_fixture(PROTOCOLS[0], plan, LatencyModel::in_memory());
    fixture.db.checkpoint().unwrap();
    let a_id = commit_durably(&fixture, 5);

    let second = fixture.db.checkpoint();
    assert!(second.is_err(), "the second checkpoint crashes");
    assert!(fixture.db.has_crashed());

    // Recovery replays the durable log over the previous baseline.
    let (recovered, report) = fixture.restart();
    assert!(report.committed.contains(&a_id));
    recovered.audit("crash between image and publication");
}

// ---------------------------------------------------------------------------
// Regression: the flush_to durability race
// ---------------------------------------------------------------------------

/// Regression test for the `RedoLog::flush_to` durability race.
///
/// The pre-fix code had no flush latch: a caller checked
/// `durable_lsn >= lsn`, fsynced, and `fetch_max`ed the horizon — with no
/// re-check that the process was still alive when the fsync completed.  The
/// failing schedule (caught at seed 1 with the fix reverted — "durable
/// horizon Lsn(1) swallowed the torn record at Lsn(1)"): flusher A enters
/// `flush_to(1)` and yields inside its fsync; flusher B enters
/// `flush_to(2)`, crashes mid-flush and freezes the durable horizon at the
/// crash image (cutting lsn 1..=2); A then resumes and its `fetch_max`
/// advances the horizon *past the frozen crash image*, so A acknowledges a
/// flush whose records the crash already destroyed — a durably-acknowledged
/// commit that recovery cannot see.  With flushers serialized and the
/// post-fsync `crashed()` re-check, every `Ok` return's records are in the
/// durable suffix on every explored schedule.
///
/// (The redo log alone, no engine: there is no history or ledger to audit.)
#[test]
fn sim_flush_to_race_never_acks_records_the_crash_destroyed() {
    let mut crashed_seeds = 0u64;
    for seed in txsql_sim::ci_seeds(100) {
        let faults = FaultInjector::new(
            FaultPlan::none()
                .crash_at(CrashPoint::MidFlush, 1)
                // Inside the batch's last commit marker, or all of it.
                .with_torn_cut_back(8 + 16 * (seed % 2)),
        );
        let redo = Arc::new(RedoLog::with_faults(Duration::from_micros(50), faults));
        let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let frozen = Arc::new(AtomicU64::new(u64::MAX));
        run_seed(seed, |sim| {
            for t in 0..2u64 {
                let (redo, acked, frozen) = (redo.clone(), acked.clone(), frozen.clone());
                sim.spawn(format!("flusher-{t}"), move || {
                    let lsn = redo.append(RedoRecord::Commit {
                        txn: TxnId(t + 1),
                        trx_no: t + 1,
                    });
                    match redo.flush_to(lsn) {
                        Ok(()) => acked.lock().push((TxnId(t + 1), lsn)),
                        // The crash image: the horizon as the cut flush left it.
                        Err(Error::Crashed { point: "mid_flush" }) => {
                            frozen.store(redo.durable_lsn().0, Ordering::Release)
                        }
                        Err(_) => {}
                    }
                });
            }
        });
        if redo.faults().crashed() {
            crashed_seeds += 1;
        }
        // The frozen-horizon invariant: the horizon stays where the cut flush
        // left it, and the torn frame stays *above* it, forever.  On the
        // pre-fix code, a concurrent flusher whose fsync was in flight at
        // the crash re-advanced the horizon over the torn frame with its
        // post-fsync `fetch_max` — acknowledging records whose bytes the
        // crash had turned to garbage.
        let (frozen, now) = (frozen.load(Ordering::Acquire), redo.durable_lsn().0);
        let moved = frozen != u64::MAX && frozen != now;
        assert!(!moved, "seed {seed}: the horizon moved, {frozen} to {now}");
        if let Some(torn) = torn_tail(&redo) {
            assert!(
                redo.durable_lsn().0 < torn.0,
                "seed {seed}: durable horizon {:?} swallowed the torn record at {torn:?}",
                redo.durable_lsn()
            );
            for (txn, lsn) in acked.lock().iter() {
                assert!(
                    lsn.0 < torn.0,
                    "seed {seed}: {txn} was acknowledged at {lsn:?}, at/past the torn record {torn:?}"
                );
            }
        }
        let durable = redo.durable_records();
        for (txn, lsn) in acked.lock().iter() {
            assert!(
                lsn.0 <= redo.durable_lsn().0,
                "seed {seed}: acked lsn {lsn:?} above the durable horizon {:?}",
                redo.durable_lsn()
            );
            assert!(
                durable
                    .iter()
                    .any(|r| matches!(r, RedoRecord::Commit { txn: t, .. } if t == txn)),
                "seed {seed}: flush_to acked {txn} but its record did not survive the crash"
            );
        }
    }
    assert!(crashed_seeds > 0, "no explored schedule crashed mid-flush");
}
