//! Deterministic schedule exploration of the lock manager (`txsql-sim`).
//!
//! Every test here runs the *production* lock-manager code under the
//! cooperative scheduler: shim `Mutex`/`RwLock` acquisitions and
//! `OsEvent::wait/set` are the preemption points, and timeouts fire on the
//! virtual clock.  A failing seed prints a replayable failure artifact; see
//! `crates/sim/README.md` for how to replay it.
//!
//! The seed set is `TXSQL_SIM_SEEDS`-overridable (CI pins `0..200`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::simulate_delay;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{RecordId, TxnId};
use txsql_lockmgr::event::OsEvent;
use txsql_lockmgr::group_lock::{
    CancelOutcome, GroupLockConfig, GroupLockTable, HotExecution, WokenRole,
};
use txsql_lockmgr::lightweight::FlatLayout;
use txsql_lockmgr::lock_sys::PageLayout;
use txsql_lockmgr::lock_table::{DeadlockPolicy, Layout, LockTableConfig, RecordLockTable};
use txsql_lockmgr::modes::LockMode;
use txsql_lockmgr::queue_lock::{QueueAdmission, QueueLockTable};
use txsql_sim::run_seed;

const HOT: RecordId = RecordId {
    space_id: 1,
    page_no: 0,
    heap_no: 0,
};

fn group_table() -> GroupLockTable {
    GroupLockTable::new(
        GroupLockConfig {
            hot_wait_timeout: Duration::from_millis(100),
            ..GroupLockConfig::default()
        },
        Arc::new(EngineMetrics::new()),
    )
}

// ---------------------------------------------------------------------------
// group_lock entry()/collect_if_idle lifecycle race (ROADMAP pre-existing bug)
// ---------------------------------------------------------------------------

/// Drives the fetch → deschedule → gc → enqueue interleaving that used to
/// orphan hot-row state: `begin_hot_update` fetched the `GroupEntry` Arc from
/// the shard map, and if the committing leader's `finish_commit` ran
/// `collect_if_idle` before the joiner locked the entry's state, the joiner
/// elected itself leader of (or parked on) an entry no longer reachable through the
/// map — invisible to every later `entry()` lookup.
///
/// On the pre-fix code this fails within the first few seeds in two ways:
/// the joiner's `leader_of(HOT)` assertion sees `None`/a stale leader because
/// its leadership lives on the orphaned entry, or the joiner times out in
/// `wait_for_grant` because its wait slot is queued where no granter will
/// ever look (the artifact then shows `LockWaitTimeout` after a virtual-clock
/// jump).  Post-fix, `with_state` re-validates the entry after locking (the
/// `dead` generation mark), so every seed passes.
#[test]
fn group_entry_gc_race_is_closed_under_exploration() {
    for seed in txsql_sim::ci_seeds(200) {
        let g = Arc::new(group_table());
        const T1: TxnId = TxnId(1);
        const T2: TxnId = TxnId(2);
        // T1 is an established leader that has finished its update and is
        // about to commit (the state in which finish_commit can GC).
        assert!(matches!(g.begin_hot_update(T1, HOT), HotExecution::Leader));
        g.register_update(T1, HOT);
        g.finish_update(T1, HOT, true);

        let committer = Arc::clone(&g);
        let joiner = Arc::clone(&g);
        run_seed(seed, move |sim| {
            let g1 = Arc::clone(&committer);
            sim.spawn("committer", move || {
                g1.leader_prepare_commit(T1, HOT);
                g1.wait_commit_turn(T1, HOT).unwrap();
                g1.finish_commit(T1, HOT); // may remove the map entry
                g1.leader_handover(T1, HOT);
            });
            let g2 = Arc::clone(&joiner);
            sim.spawn("joiner", move || {
                let role = match g2.begin_hot_update(T2, HOT) {
                    HotExecution::Leader => WokenRole::NewLeader,
                    HotExecution::Follower => WokenRole::Follower,
                    HotExecution::Wait(slot) => g2.wait_for_grant(T2, HOT, &slot).unwrap(),
                };
                g2.register_update(T2, HOT);
                if role == WokenRole::NewLeader {
                    // Leadership must be visible through the shard map: a
                    // leader recorded on an orphaned entry is the bug.
                    assert_eq!(
                        g2.leader_of(HOT),
                        Some(T2),
                        "joiner's leadership is not visible through the entry map"
                    );
                }
                assert!(
                    g2.dep_list(HOT).contains(&T2),
                    "joiner's update landed on an orphaned dependency list"
                );
                g2.finish_update(T2, HOT, role == WokenRole::NewLeader);
                if role == WokenRole::NewLeader {
                    g2.leader_prepare_commit(T2, HOT);
                }
                g2.wait_commit_turn(T2, HOT).unwrap();
                g2.finish_commit(T2, HOT);
                if role == WokenRole::NewLeader {
                    g2.leader_handover(T2, HOT);
                }
            });
        });

        // Whatever the schedule, the hot row must end fully drained.
        assert!(
            g.dep_list(HOT).is_empty(),
            "seed {seed}: dep list not drained"
        );
        assert_eq!(g.leader_of(HOT), None, "seed {seed}: leader not cleared");
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
}

// ---------------------------------------------------------------------------
// Group handles: one entry lookup per (transaction, hot row)
// ---------------------------------------------------------------------------

/// One transaction's whole life on `HOT` through its handle, as the engine
/// drives it: begin (the one entry-map lookup), the update, and the commit.
/// A leader's leadership and every member's registration must be visible
/// through the entry map the moment it is granted — on an orphaned entry
/// they would not be.  Returns whether it led.
fn run_member_on_its_handle(g: &GroupLockTable, txn: TxnId) -> bool {
    let (handle, execution) = g.begin_update(txn, HOT);
    let leads = match execution {
        HotExecution::Leader => true,
        HotExecution::Follower => false,
        HotExecution::Wait(slot) => {
            g.wait_for_grant(txn, &handle, &slot).unwrap() == WokenRole::NewLeader
        }
    };
    if leads {
        assert_eq!(
            g.leader_of(HOT),
            Some(txn),
            "leadership not visible through the entry map"
        );
    }
    assert!(
        g.dep_list(HOT).contains(&txn),
        "registration not visible through the entry map"
    );
    g.take_hot_update_order();
    g.finish_update(txn, &handle, leads);
    if leads {
        g.leader_prepare_commit(txn, &handle);
        g.leader_handover(txn, &handle);
    }
    g.wait_commit_turn(txn, &handle).unwrap();
    g.finish_commit(txn, &handle);
    leads
}

/// The entry-lifecycle race of the test above, now with the entry `Arc`
/// held for a transaction's whole life instead of one call: T1 keeps its
/// handle across its own `finish_commit` — after which the entry is idle, a
/// sweeper collects it and peers re-create it — and still hands over with
/// it.  Every call must land on the live entry: a hand-over through a dead
/// one would leave the live group's waiters parked (a timeout on the
/// virtual clock), and one that clobbered the live group's leader would
/// elect two.
#[test]
fn handle_held_across_entry_gc_lands_on_the_live_entry_under_exploration() {
    const T1: TxnId = TxnId(1);
    for seed in txsql_sim::ci_seeds(200) {
        let g = Arc::new(group_table());
        let (handle, execution) = g.begin_update(T1, HOT);
        assert!(matches!(execution, HotExecution::Leader));
        g.finish_update(T1, &handle, true);

        let shared = Arc::clone(&g);
        run_seed(seed, move |sim| {
            let g = Arc::clone(&shared);
            let handle = handle.clone();
            sim.spawn("committer", move || {
                g.leader_prepare_commit(T1, &handle);
                g.wait_commit_turn(T1, &handle).unwrap();
                g.finish_commit(T1, &handle); // idle from here: collectable
                g.leader_handover(T1, &handle);
                assert_no_wait_ran_into_its_deadline();
            });
            let g = Arc::clone(&shared);
            sim.spawn("sweeper", move || {
                for _ in 0..3 {
                    g.collect_if_idle(HOT);
                }
            });
            for joiner in [TxnId(2), TxnId(3)] {
                let g = Arc::clone(&shared);
                sim.spawn(format!("joiner-{}", joiner.0), move || {
                    run_member_on_its_handle(&g, joiner);
                    assert_no_wait_ran_into_its_deadline();
                });
            }
        });
        assert!(
            g.dep_list(HOT).is_empty(),
            "seed {seed}: dep list not drained"
        );
        assert_eq!(g.leader_of(HOT), None, "seed {seed}: leader not cleared");
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
}

/// Granting registers, so the doom scan of a rollback sees every
/// transaction that can have read the aborting one's uncommitted head: an
/// arrival granted before T1's `begin_rollback` paused the row is on the
/// dependency list behind T1 and **always** doomed; one granted after the
/// last `resume_granting` reads the undone head and **never** is.  (The
/// window between — granted before the pause, registered after the scan —
/// needed a second doom rule while registration was the grantee's own
/// step.)  `head` stands for the row: 1 is T1's uncommitted write.
#[test]
fn grant_before_a_rollback_is_doomed_and_after_it_is_clean_under_exploration() {
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    let (mut doomed_seeds, mut clean_seeds) = (0, 0);
    for seed in txsql_sim::ci_seeds(200) {
        let g = Arc::new(group_table());
        let (aborter, execution) = g.begin_update(T1, HOT);
        assert!(matches!(execution, HotExecution::Leader));
        g.finish_update(T1, &aborter, true);
        let head = Arc::new(AtomicUsize::new(1));
        let doomed = Arc::new(AtomicUsize::new(0));

        let (shared, row, outcome) = (Arc::clone(&g), Arc::clone(&head), Arc::clone(&doomed));
        run_seed(seed, move |sim| {
            let (g, head) = (Arc::clone(&shared), Arc::clone(&row));
            let aborter = aborter.clone();
            sim.spawn("aborter", move || {
                g.begin_rollback(T1, &aborter);
                g.wait_rollback_turn(T1, &aborter).unwrap();
                head.store(0, Ordering::Relaxed); // the storage undo
                g.finish_rollback(T1, &aborter);
                g.resume_granting(&aborter);
                assert_no_wait_ran_into_its_deadline();
            });
            let (g, head, doomed) = (Arc::clone(&shared), Arc::clone(&row), Arc::clone(&outcome));
            sim.spawn("arrival", move || {
                let (handle, execution) = g.begin_update(T2, HOT);
                let follows = match execution {
                    HotExecution::Leader => false,
                    HotExecution::Follower => true,
                    HotExecution::Wait(slot) => {
                        g.wait_for_grant(T2, &handle, &slot).unwrap() == WokenRole::Follower
                    }
                };
                let seen = head.load(Ordering::Relaxed);
                g.finish_update(T2, &handle, !follows);
                if !follows {
                    g.leader_prepare_commit(T2, &handle);
                    g.leader_handover(T2, &handle);
                }
                match g.wait_commit_turn(T2, &handle) {
                    Ok(_) => {
                        // Only T1 can have been followed: a follower was
                        // granted before the pause.
                        assert!(!follows, "granted before the rollback, not doomed");
                        assert_eq!(seen, 0, "committed on top of an aborted write");
                        g.finish_commit(T2, &handle);
                    }
                    Err(err) => {
                        let cascade = txsql_common::Error::CascadingAbort { txn: T2, cause: T1 };
                        assert_eq!(err, cascade);
                        assert!(follows, "granted after the rollback, yet doomed");
                        doomed.store(1, Ordering::Relaxed);
                        g.begin_rollback(T2, &handle);
                        g.wait_rollback_turn(T2, &handle).unwrap();
                        g.finish_rollback(T2, &handle);
                        g.resume_granting(&handle);
                    }
                }
                assert_no_wait_ran_into_its_deadline();
            });
        });
        match doomed.load(Ordering::Relaxed) {
            0 => clean_seeds += 1,
            _ => doomed_seeds += 1,
        }
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
    println!("sim_lock/doom_window: doomed_seeds={doomed_seeds} clean_seeds={clean_seeds}");
    assert!(
        doomed_seeds > 0 && clean_seeds > 0,
        "both sides of the pause must be explored ({doomed_seeds} doomed, {clean_seeds} clean)"
    );
}

/// A leader is registered by the grant that makes it leader, before it has
/// the row lock.  When the lock cannot be had it gives the grant back, and
/// the registration with it: no dependency-list entry of T1 survives for a
/// successor's commit turn to wait behind, and whoever is granted next
/// leads a fresh group — it must not follow a leader that never was.
#[test]
fn abandoned_leader_grant_leaves_no_registration_under_exploration() {
    const T1: TxnId = TxnId(1);
    for seed in txsql_sim::ci_seeds(200) {
        let g = Arc::new(group_table());
        let (failed, execution) = g.begin_update(T1, HOT);
        assert!(matches!(execution, HotExecution::Leader));
        let leaders = Arc::new(AtomicUsize::new(0));

        let (shared, led) = (Arc::clone(&g), Arc::clone(&leaders));
        run_seed(seed, move |sim| {
            let g = Arc::clone(&shared);
            let failed = failed.clone();
            sim.spawn("lock-failed", move || {
                g.abandon_update(T1, &failed, true);
                assert!(!g.dep_list(HOT).contains(&T1), "registration survived");
            });
            for arrival in [TxnId(2), TxnId(3)] {
                let (g, led) = (Arc::clone(&shared), Arc::clone(&led));
                sim.spawn(format!("arrival-{}", arrival.0), move || {
                    if run_member_on_its_handle(&g, arrival) {
                        led.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_no_wait_ran_into_its_deadline();
                });
            }
        });
        assert!(
            leaders.load(Ordering::Relaxed) >= 1,
            "seed {seed}: both arrivals followed the leader that never was"
        );
        assert!(
            g.dep_list(HOT).is_empty(),
            "seed {seed}: dep list not drained"
        );
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
}

// ---------------------------------------------------------------------------
// Batched commit handover (PR 5): one promotion per hot row, timeout-safe
// ---------------------------------------------------------------------------

/// The batched leader commit (`begin_leader_commit` + `finish_leader_handover`
/// across several hot rows at once) must behave exactly like the per-record
/// sequence under every interleaving with waiter timeouts:
///
/// * **exactly one new leader per hot row** — each parked waiter is either
///   promoted (role `NewLeader`, leadership visible through the entry map) or
///   it cancels out on timeout and the row is left leaderless (dynamic batch),
///   never both and never two leaders;
/// * **no lost promotion** — a waiter that stays queued through the handover
///   is always woken (a lost wake surfaces as a virtual-clock timeout with the
///   waiter still queued, or a sim deadlock artifact);
/// * **no double-leader when a follower times out mid-handover** — the
///   `cancel_hot_wait` vs `promote_next_leader` race resolves to one side:
///   `AlreadyGranted(NewLeader)` (the waiter proceeds as the promoted leader)
///   or `Cancelled` (the promotion never happened; the queue entry is gone).
///
/// The committing leader's `simulate_delay` lines the handover up against the
/// waiters' wait deadline so both orders of the race are explored across the
/// seed set.
#[test]
fn batched_handover_promotes_exactly_one_leader_per_row_under_exploration() {
    const ROWS: usize = 2;
    const LEADER: TxnId = TxnId(1);
    for seed in txsql_sim::ci_seeds(200) {
        let g = Arc::new(GroupLockTable::new(
            GroupLockConfig {
                hot_wait_timeout: Duration::from_millis(100),
                ..GroupLockConfig::default()
            },
            Arc::new(EngineMetrics::new()),
        ));
        // Same page on purpose: the batched fetch takes the entry shard once.
        let records: Vec<RecordId> = (0..ROWS).map(|h| RecordId::new(1, 0, h as u16)).collect();
        for record in &records {
            assert!(matches!(
                g.begin_hot_update(LEADER, *record),
                HotExecution::Leader
            ));
            g.register_update(LEADER, *record);
            g.finish_update(LEADER, *record, true);
        }
        // Per row: how often the waiter acted as a leader (promoted by the
        // handover, or fresh leader of the next group), executed as a
        // follower of the old group, or cancelled out on timeout.
        let led = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let followed = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let cancelled = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);

        let gt = Arc::clone(&g);
        let led2 = Arc::clone(&led);
        let followed2 = Arc::clone(&followed);
        let cancelled2 = Arc::clone(&cancelled);
        let rs = records.clone();
        run_seed(seed, move |sim| {
            for (i, record) in rs.iter().enumerate() {
                let g2 = Arc::clone(&gt);
                let led = Arc::clone(&led2);
                let followed = Arc::clone(&followed2);
                let cancelled = Arc::clone(&cancelled2);
                let record = *record;
                let txn = TxnId(10 + i as u64);
                sim.spawn(format!("waiter-{i}"), move || {
                    let commit_as_leader = |g: &GroupLockTable| {
                        // The write path's leader shape: leadership must be
                        // visible through the entry map (a leader recorded on
                        // an orphaned/duplicate entry is the double-leader
                        // bug), then the full Algorithm-2 commit.
                        assert_eq!(
                            g.leader_of(record),
                            Some(txn),
                            "leadership not visible through the entry map"
                        );
                        g.register_update(txn, record);
                        g.finish_update(txn, record, true);
                        g.leader_prepare_commit(txn, record);
                        g.leader_handover(txn, record);
                        g.wait_commit_turn(txn, record).unwrap();
                        g.finish_commit(txn, record);
                    };
                    match g2.begin_hot_update(txn, record) {
                        // Arrived after the whole handover drained the row
                        // (dynamic batch left it leaderless): fresh group.
                        HotExecution::Leader => {
                            led[i].fetch_add(1, Ordering::Relaxed);
                            commit_as_leader(&g2);
                        }
                        // Arrived while the old group's leader was idle
                        // before its commit: granted follower execution.
                        HotExecution::Follower => {
                            followed[i].fetch_add(1, Ordering::Relaxed);
                            g2.register_update(txn, record);
                            g2.finish_update(txn, record, false);
                            g2.wait_commit_turn(txn, record).unwrap();
                            g2.finish_commit(txn, record);
                        }
                        HotExecution::Wait(slot) => {
                            match g2.wait_for_grant(txn, record, &slot) {
                                Ok(WokenRole::NewLeader) => {
                                    led[i].fetch_add(1, Ordering::Relaxed);
                                    commit_as_leader(&g2);
                                }
                                Ok(WokenRole::Follower) => {
                                    panic!("a commit handover must promote, not grant a follower")
                                }
                                Err(err) => {
                                    assert!(
                                        matches!(err, txsql_common::Error::LockWaitTimeout { .. }),
                                        "unexpected waiter error: {err:?}"
                                    );
                                    cancelled[i].fetch_add(1, Ordering::Relaxed);
                                    // A cancelled waiter must not be (or
                                    // become) the leader — that would be the
                                    // double-leader bug.
                                    assert_ne!(
                                        g2.leader_of(record),
                                        Some(txn),
                                        "cancelled waiter still recorded as leader"
                                    );
                                }
                            }
                        }
                    }
                });
            }
            let g2 = Arc::clone(&gt);
            let rs2 = rs.clone();
            sim.spawn("committer", move || {
                // Prepare first: a waiter arriving after this parks
                // (`switching_new_leader`); one arriving before executes as a
                // follower of the old group — both orders occur across seeds.
                let prepared = g2.begin_leader_commit(LEADER, &rs2);
                assert_eq!(prepared.record_count(), ROWS);
                // Stall mid-handover past the waiters' 100 ms deadline: their
                // timeouts fire on the virtual clock *while* the handover is
                // pending, so `cancel_hot_wait` races `promote_next_leader`
                // in both orders across the seed set.
                simulate_delay(Duration::from_micros(105_000));
                let promotions = g2.finish_leader_handover(LEADER, prepared);
                assert_eq!(promotions.len(), ROWS);
                for record in &rs2 {
                    g2.finish_commit(LEADER, *record);
                }
            });
        });

        for (i, record) in records.iter().enumerate() {
            let l = led[i].load(Ordering::Relaxed);
            let f = followed[i].load(Ordering::Relaxed);
            let c = cancelled[i].load(Ordering::Relaxed);
            assert_eq!(
                l + f + c,
                1,
                "seed {seed}, row {record}: waiter must lead XOR follow XOR cancel \
                 (led={l}, followed={f}, cancelled={c})"
            );
            // Whatever the race outcome, the row must end fully drained: no
            // leader, no parked waiter, no dependency-list residue.  A lost
            // promotion would leave the waiter parked (or surface above as
            // its timeout); a double promotion would trip the leader_of
            // assertions inside the threads.
            assert_eq!(
                g.waiting_len(*record),
                0,
                "seed {seed}, row {record}: lost promotion left a parked waiter"
            );
            if c == 1 {
                assert_eq!(
                    g.leader_of(*record),
                    None,
                    "seed {seed}, row {record}: cancelled row must be leaderless"
                );
            }
            assert!(
                g.dep_list(*record).is_empty(),
                "seed {seed}, row {record}: dep list not drained"
            );
            assert!(
                !g.has_activity(*record),
                "seed {seed}, row {record}: entry still live"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// grant_waiters FIFO / compatibility invariants (both lock tables)
// ---------------------------------------------------------------------------

/// A timeout-only table of layout `L`.  Under that policy the registry
/// entry (`lock_count_of`) is written immediately before the wait deadline is
/// captured (no yield point in between — detection would add the graph's
/// event-attach lock there), so tests can gate on it to order virtual-clock
/// deadlines deterministically.
fn lock_table<L: Layout>() -> Arc<RecordLockTable<L>> {
    Arc::new(RecordLockTable::new(
        LockTableConfig {
            deadlock_policy: DeadlockPolicy::TimeoutOnly,
            lock_wait_timeout: Duration::from_millis(200),
        },
        Arc::new(EngineMetrics::new()),
    ))
}

/// Exclusive waiters staged in a known arrival order must be granted in that
/// order, and none may be lost: a lost wakeup surfaces as either a
/// virtual-clock timeout (`unwrap` fails) or a sim deadlock artifact.
fn fifo_grant_order<L: Layout + 'static>(table: Arc<RecordLockTable<L>>, seed: u64) {
    const WAITERS: usize = 3;
    let order = Arc::new(parking_lot::Mutex::new(Vec::<usize>::new()));
    let holder_txn = TxnId(1);
    // The holder takes the lock before any sim thread runs.
    table
        .lock_record(holder_txn, HOT, LockMode::Exclusive)
        .unwrap();

    let t = Arc::clone(&table);
    let o = Arc::clone(&order);
    run_seed(seed, move |sim| {
        for i in 0..WAITERS {
            let table = Arc::clone(&t);
            let order = Arc::clone(&o);
            sim.spawn(format!("waiter-{i}"), move || {
                let h = txsql_sim::current().unwrap();
                // Stage arrivals: waiter i enqueues only once i earlier
                // waiters are already parked in the queue.
                while table.wait_queue_len(HOT) != i {
                    h.yield_now();
                }
                table
                    .lock_record(TxnId(10 + i as u64), HOT, LockMode::Exclusive)
                    .unwrap();
                order.lock().push(i);
                table.release_all(TxnId(10 + i as u64));
            });
        }
        let table = Arc::clone(&t);
        sim.spawn("releaser", move || {
            let h = txsql_sim::current().unwrap();
            while table.wait_queue_len(HOT) != WAITERS {
                h.yield_now();
            }
            table.release_all(holder_txn);
        });
    });

    assert_eq!(
        *order.lock(),
        (0..WAITERS).collect::<Vec<_>>(),
        "seed {seed}: grants out of FIFO order"
    );
}

#[test]
fn fifo_grant_order_under_exploration_lock_sys() {
    for seed in txsql_sim::ci_seeds(200) {
        fifo_grant_order(lock_table::<PageLayout>(), seed);
    }
}

#[test]
fn fifo_grant_order_under_exploration_lightweight() {
    for seed in txsql_sim::ci_seeds(200) {
        fifo_grant_order(lock_table::<FlatLayout>(), seed);
    }
}

/// A Shared waiter queued behind an earlier conflicting Exclusive waiter must
/// not jump the queue while the Exclusive wait is pending — but when that
/// front waiter *times out*, the timeout cleanup must re-run the grant scan
/// and wake the compatible waiter behind it (no lost wakeup on the timeout
/// path).  The virtual clock makes the timeout fire deterministically in
/// every explored schedule.
fn timeout_grants_compatible_waiter_behind<L: Layout + 'static>(
    table: Arc<RecordLockTable<L>>,
    seed: u64,
) {
    let holder_txn = TxnId(1);
    table
        .lock_record(holder_txn, HOT, LockMode::Shared)
        .unwrap();
    let granted_shared = Arc::new(AtomicUsize::new(0));

    let t = Arc::clone(&table);
    let g = Arc::clone(&granted_shared);
    run_seed(seed, move |sim| {
        let table = Arc::clone(&t);
        sim.spawn("exclusive-waiter", move || {
            // Conflicts with the Shared holder; nobody releases, so this wait
            // can only end through the (virtual-clock) timeout.
            let err = table
                .lock_record(TxnId(2), HOT, LockMode::Exclusive)
                .unwrap_err();
            assert!(
                matches!(err, txsql_common::Error::LockWaitTimeout { .. }),
                "unexpected error: {err:?}"
            );
        });
        let table = Arc::clone(&t);
        let granted = Arc::clone(&g);
        sim.spawn("shared-waiter", move || {
            let h = txsql_sim::current().unwrap();
            // Enqueue strictly behind the Exclusive waiter, with a later
            // virtual-clock deadline: gate on the registry entry (written
            // just before the Exclusive waiter captures its deadline, with
            // no yield point in between) so the delay below advances the
            // clock strictly after that capture.
            while table.wait_queue_len(HOT) != 1 || table.lock_count_of(TxnId(2)) != 1 {
                h.yield_now();
            }
            simulate_delay(Duration::from_micros(1_000));
            // FIFO fairness keeps us waiting behind the Exclusive request;
            // its timeout cleanup must then grant us.
            table.lock_record(TxnId(3), HOT, LockMode::Shared).unwrap();
            granted.fetch_add(1, Ordering::Relaxed);
            table.release_all(TxnId(3));
        });
    });

    assert_eq!(
        granted_shared.load(Ordering::Relaxed),
        1,
        "seed {seed}: compatible waiter was never granted"
    );
    table.release_all(holder_txn);
}

/// Two hot heap_nos on ONE page: FIFO and compatibility invariants must hold
/// independently per record, and one record's timeout churn must never wake
/// (or time out) the other record's waiters.  On the page-sharded `lock_sys`
/// both records share a shard mutex, so this is exactly the per-record-queue
/// guarantee; the record-keyed lightweight table gets it structurally.
///
/// Virtual-clock layout: record A's waiter captures its 200 ms deadline
/// first; record B's two waiters push the clock forward (150 ms / 10 ms)
/// before queueing, so firing A's timeout (the +60 ms jump at 220 ms) leaves
/// B's deadlines (350 ms / 360 ms) unexpired — B's waiters can only proceed
/// through a genuine grant.
fn per_record_queues_are_independent<L: Layout + 'static>(
    table: Arc<RecordLockTable<L>>,
    seed: u64,
) {
    const A: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 0,
    };
    const B: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 1,
    };
    let holder_a = TxnId(1);
    let holder_b = TxnId(2);
    table.lock_record(holder_a, A, LockMode::Exclusive).unwrap();
    table.lock_record(holder_b, B, LockMode::Exclusive).unwrap();
    let order = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let a_timed_out = Arc::new(AtomicUsize::new(0));

    let t = Arc::clone(&table);
    let o = Arc::clone(&order);
    let flag = Arc::clone(&a_timed_out);
    run_seed(seed, move |sim| {
        // A's waiter: its holder never releases, so only the virtual-clock
        // timeout can end this wait — and its cleanup (the grant scan on A)
        // must not leak into B's queue.
        let table = Arc::clone(&t);
        let flag2 = Arc::clone(&flag);
        sim.spawn("a-waiter", move || {
            let err = table
                .lock_record(TxnId(3), A, LockMode::Exclusive)
                .unwrap_err();
            assert!(
                matches!(err, txsql_common::Error::LockWaitTimeout { .. }),
                "A's waiter must end by timeout, got {err:?}"
            );
            flag2.store(1, Ordering::Relaxed);
        });
        // B's first waiter queues after A's deadline is captured, with a
        // +150 ms clock push so its own deadline lands well past A's.
        let table = Arc::clone(&t);
        let order = Arc::clone(&o);
        sim.spawn("b-waiter-4", move || {
            let h = txsql_sim::current().unwrap();
            while table.wait_queue_len(A) != 1 || table.lock_count_of(TxnId(3)) != 1 {
                h.yield_now();
            }
            simulate_delay(Duration::from_micros(150_000));
            table.lock_record(TxnId(4), B, LockMode::Exclusive).unwrap();
            order.lock().push(4);
            table.release_all(TxnId(4));
        });
        // B's second waiter queues strictly behind the first (FIFO).
        let table = Arc::clone(&t);
        let order = Arc::clone(&o);
        sim.spawn("b-waiter-5", move || {
            let h = txsql_sim::current().unwrap();
            while table.wait_queue_len(B) != 1 {
                h.yield_now();
            }
            simulate_delay(Duration::from_micros(10_000));
            table.lock_record(TxnId(5), B, LockMode::Exclusive).unwrap();
            order.lock().push(5);
            table.release_all(TxnId(5));
        });
        // The driver: once everyone queued, fire A's timeout, verify B's
        // queue survived the churn untouched, then release B for real.
        let table = Arc::clone(&t);
        let order = Arc::clone(&o);
        let a_flag = Arc::clone(&flag);
        sim.spawn("b-releaser", move || {
            let h = txsql_sim::current().unwrap();
            while table.wait_queue_len(A) != 1 || table.wait_queue_len(B) != 2 {
                h.yield_now();
            }
            // Jump to 220 ms: past A's 200 ms deadline, short of B's 350 ms.
            simulate_delay(Duration::from_micros(60_000));
            while a_flag.load(Ordering::Relaxed) == 0 {
                h.yield_now();
            }
            // A's timeout cleanup ran its grant scan; B must be untouched.
            assert_eq!(
                table.holders_of(B),
                vec![holder_b],
                "seed {seed}: A's timeout churn must not change B's holders"
            );
            assert_eq!(
                table.wait_queue_len(B),
                2,
                "seed {seed}: A's timeout churn must not wake B's waiters"
            );
            assert!(
                order.lock().is_empty(),
                "seed {seed}: no B waiter may be granted before B is released"
            );
            table.release_all(holder_b);
        });
    });

    assert_eq!(
        *order.lock(),
        vec![4, 5],
        "seed {seed}: B's grants out of FIFO order"
    );
    assert_eq!(
        table.holders_of(A),
        vec![holder_a],
        "seed {seed}: A's holder must survive all the churn"
    );
    assert_eq!(table.wait_queue_len(A), 0);
    table.release_all(holder_a);
}

/// A statement-boundary **batched** release (`release_record_locks` over
/// several records at once — the wider Bamboo early-release batch) must wake
/// every eligible waiter exactly once: no lost wakeup (every waiter is
/// granted — a lost one would surface as a virtual-clock timeout or a sim
/// deadlock artifact) and no double grant (each exclusive grantee observes
/// itself as the record's only holder).  On the page-sharded table all
/// records share one page, so the whole batch drains under a single shard
/// acquisition — exactly the path the statement-boundary flush exercises.
fn batched_release_wakes_each_waiter_exactly_once<L: Layout + 'static>(
    table: Arc<RecordLockTable<L>>,
    seed: u64,
) {
    const RECORDS: usize = 3;
    let records: Vec<RecordId> = (0..RECORDS)
        .map(|heap| RecordId::new(1, 0, heap as u16))
        .collect();
    let holder = TxnId(1);
    for record in &records {
        table
            .lock_record(holder, *record, LockMode::Exclusive)
            .unwrap();
    }
    let grants = Arc::new(AtomicUsize::new(0));

    let t = Arc::clone(&table);
    let g = Arc::clone(&grants);
    let rs = records.clone();
    run_seed(seed, move |sim| {
        for (i, record) in rs.iter().enumerate() {
            let table = Arc::clone(&t);
            let grants = Arc::clone(&g);
            let record = *record;
            let txn = TxnId(10 + i as u64);
            sim.spawn(format!("waiter-{i}"), move || {
                table.lock_record(txn, record, LockMode::Exclusive).unwrap();
                // Exactly-once: an exclusive grant must be the sole holder;
                // a double grant would show a second transaction here.
                assert_eq!(
                    table.holders_of(record),
                    vec![txn],
                    "double grant on {record}"
                );
                grants.fetch_add(1, Ordering::Relaxed);
                table.release_all(txn);
            });
        }
        let table = Arc::clone(&t);
        let rs2 = rs.clone();
        sim.spawn("batch-releaser", move || {
            let h = txsql_sim::current().unwrap();
            while rs2.iter().any(|r| table.wait_queue_len(*r) != 1) {
                h.yield_now();
            }
            table.release_record_locks(holder, &rs2);
        });
    });

    assert_eq!(
        grants.load(Ordering::Relaxed),
        RECORDS,
        "seed {seed}: every waiter must be woken exactly once by the batch"
    );
    for record in &records {
        assert!(
            table.holders_of(*record).is_empty(),
            "seed {seed}: {record} must drain"
        );
    }
    assert_eq!(table.lock_count_of(holder), 0, "seed {seed}: registry leak");
}

#[test]
fn batched_release_wakes_each_waiter_exactly_once_lock_sys() {
    for seed in txsql_sim::ci_seeds(200) {
        batched_release_wakes_each_waiter_exactly_once(lock_table::<PageLayout>(), seed);
    }
}

#[test]
fn batched_release_wakes_each_waiter_exactly_once_lightweight() {
    for seed in txsql_sim::ci_seeds(200) {
        batched_release_wakes_each_waiter_exactly_once(lock_table::<FlatLayout>(), seed);
    }
}

#[test]
fn per_record_queue_independence_under_exploration_lock_sys() {
    for seed in txsql_sim::ci_seeds(200) {
        per_record_queues_are_independent(lock_table::<PageLayout>(), seed);
    }
}

#[test]
fn per_record_queue_independence_under_exploration_lightweight() {
    for seed in txsql_sim::ci_seeds(200) {
        per_record_queues_are_independent(lock_table::<FlatLayout>(), seed);
    }
}

#[test]
fn timeout_wakes_compatible_waiter_lock_sys() {
    for seed in txsql_sim::ci_seeds(200) {
        timeout_grants_compatible_waiter_behind(lock_table::<PageLayout>(), seed);
    }
}

#[test]
fn timeout_wakes_compatible_waiter_lightweight() {
    for seed in txsql_sim::ci_seeds(200) {
        timeout_grants_compatible_waiter_behind(lock_table::<FlatLayout>(), seed);
    }
}

// ---------------------------------------------------------------------------
// POR coverage win (explorer comparison)
// ---------------------------------------------------------------------------

/// Fixed-budget coverage comparison between the random explorer (the pre-v2
/// behaviour) and the POR explorer on this suite's contention shape:
/// transactions of *different sizes* alternate thread-private work
/// (commuting — the POR filter skips those switches) with locking one shared
/// hot record (dependent — both explorers must order it).
///
/// Why POR wins here: the schedule class hashes only the dependent-access
/// order, and the order in which staggered transactions arrive at the hot
/// record is what varies it.  The random walker advances every thread at the
/// same average rate (one yield per pick), so arrival order barely deviates
/// from the deterministic lockstep order — reordering two arrivals `gap`
/// yields apart needs ~`gap` consecutive same-way picks.  POR compresses the
/// private work to zero random picks (commuting skips move a thread a whole
/// chunk per decision), so the same deviation costs ~`gap / chunk` decisions
/// — deep arrival reorderings that random almost never aligns are cheap.
#[test]
fn por_reaches_more_schedule_classes_than_random() {
    fn build(explorer: txsql_sim::Explorer) -> impl Fn(&mut txsql_sim::Sim) {
        move |sim: &mut txsql_sim::Sim| {
            sim.set_explorer(explorer);
            let table = lock_table::<PageLayout>();
            // Per-thread private work between hot accesses: deliberately
            // different, so lockstep arrival order is nontrivial to reorder.
            const CHURN: [usize; 3] = [40, 95, 150];
            for i in 0..3u64 {
                let table = Arc::clone(&table);
                sim.spawn(format!("txn-{i}"), move || {
                    let txn = TxnId(10 + i);
                    let handle = txsql_sim::current().expect("sim thread");
                    // A genuinely thread-private resource: churn on it never
                    // conflicts, so the POR filter may skip every switch.
                    let local = [0u8; 1];
                    let res = txsql_sim::Resource::new(
                        txsql_sim::ResourceKind::Lock,
                        txsql_sim::key_of(&local),
                    );
                    for _round in 0..3 {
                        for _ in 0..CHURN[i as usize] {
                            handle.yield_at(res);
                        }
                        // The dependent access both explorers must order.
                        table.lock_record(txn, HOT, LockMode::Exclusive).unwrap();
                        table.release_all(txn);
                    }
                });
            }
        }
    }
    let budget: Vec<u64> = (0..200).collect();
    let random = txsql_sim::explore_collect(budget.clone(), build(txsql_sim::Explorer::Random));
    let por = txsql_sim::explore_collect(budget, build(txsql_sim::Explorer::Por));
    println!("{}", random.line("sim_lock/random"));
    println!("{}", por.line("sim_lock/por"));
    assert_eq!(
        random.commuting_skips, 0,
        "the random explorer must not filter"
    );
    assert!(
        por.commuting_skips > 0,
        "the private-record churn must give the POR filter switches to skip"
    );
    assert!(
        por.distinct_classes > random.distinct_classes,
        "POR must reach strictly more schedule classes at a fixed budget \
         (por {} vs random {})",
        por.distinct_classes,
        random.distinct_classes
    );
}

// ---------------------------------------------------------------------------
// Turn waits: the quiesce and rollback-turn wake-ups
// ---------------------------------------------------------------------------

/// Nothing in the turn-wait scenarios spends virtual time, so the clock only
/// moves when the scheduler runs out of runnable threads and jumps to a
/// parked waiter's deadline: a wake-up that was lost, even if the timed-out
/// waiter then finds its turn has come.  Each sim thread ends with this.
fn assert_no_wait_ran_into_its_deadline() {
    let now = txsql_sim::current().expect("sim thread").now();
    assert_eq!(now, Duration::ZERO, "a parked wait was ended by the clock");
}

/// A group whose leader T1 and followers T2, T3 have all updated `HOT`.
fn three_member_group() -> Arc<GroupLockTable> {
    let g = Arc::new(group_table());
    assert!(matches!(
        g.begin_hot_update(TxnId(1), HOT),
        HotExecution::Leader
    ));
    g.register_update(TxnId(1), HOT);
    g.finish_update(TxnId(1), HOT, true);
    for follower in [TxnId(2), TxnId(3)] {
        assert!(matches!(
            g.begin_hot_update(follower, HOT),
            HotExecution::Follower
        ));
        g.register_update(follower, HOT);
        g.finish_update(follower, HOT, false);
    }
    g
}

/// The committing leader's quiesce is a parked wait that only the in-flight
/// follower's `finish_update` ends.  Whatever the interleaving of the
/// leader's check-then-park with that `finish_update` (and with a joiner
/// queueing behind the switching leader), the wake-up must not be lost: a
/// lost one shows as the leader sleeping to its virtual-clock deadline and
/// force-clearing the follower (`quiesce_forced`).
#[test]
fn quiesce_wakeup_is_never_lost_under_exploration() {
    let mut classes = std::collections::HashSet::new();
    for seed in txsql_sim::ci_seeds(200) {
        let metrics = Arc::new(EngineMetrics::new());
        let g = Arc::new(GroupLockTable::new(
            GroupLockConfig {
                hot_wait_timeout: Duration::from_millis(100),
                ..GroupLockConfig::default()
            },
            Arc::clone(&metrics),
        ));
        const LEADER: TxnId = TxnId(1);
        const FOLLOWER: TxnId = TxnId(2);
        const JOINER: TxnId = TxnId(3);
        assert!(matches!(
            g.begin_hot_update(LEADER, HOT),
            HotExecution::Leader
        ));
        g.register_update(LEADER, HOT);
        g.finish_update(LEADER, HOT, true);
        // Granted and mid-update when the leader starts to commit.
        assert!(matches!(
            g.begin_hot_update(FOLLOWER, HOT),
            HotExecution::Follower
        ));

        let shared = Arc::clone(&g);
        let report = run_seed(seed, move |sim| {
            let g = Arc::clone(&shared);
            sim.spawn("leader", move || {
                g.leader_prepare_commit(LEADER, HOT);
                g.leader_handover(LEADER, HOT);
                g.wait_commit_turn(LEADER, HOT).unwrap();
                g.finish_commit(LEADER, HOT);
                assert_no_wait_ran_into_its_deadline();
            });
            let g = Arc::clone(&shared);
            sim.spawn("follower", move || {
                g.register_update(FOLLOWER, HOT);
                g.finish_update(FOLLOWER, HOT, false);
                g.wait_commit_turn(FOLLOWER, HOT).unwrap();
                g.finish_commit(FOLLOWER, HOT);
                assert_no_wait_ran_into_its_deadline();
            });
            let g = Arc::clone(&shared);
            sim.spawn("joiner", move || {
                let role = match g.begin_hot_update(JOINER, HOT) {
                    HotExecution::Leader => WokenRole::NewLeader,
                    HotExecution::Follower => WokenRole::Follower,
                    HotExecution::Wait(slot) => g.wait_for_grant(JOINER, HOT, &slot).unwrap(),
                };
                let leads = role == WokenRole::NewLeader;
                g.register_update(JOINER, HOT);
                g.finish_update(JOINER, HOT, leads);
                if leads {
                    g.leader_prepare_commit(JOINER, HOT);
                    g.leader_handover(JOINER, HOT);
                }
                g.wait_commit_turn(JOINER, HOT).unwrap();
                g.finish_commit(JOINER, HOT);
                assert_no_wait_ran_into_its_deadline();
            });
        });
        classes.insert(report.coverage.schedule_class);
        assert_eq!(
            metrics.abort_causes.get("quiesce_forced"),
            0,
            "seed {seed}: the leader slept through the follower's finish_update"
        );
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
    println!(
        "sim-coverage: suite=sim_lock/quiesce classes={}",
        classes.len()
    );
}

/// A mid-list rollback (T2 of [T1, T2, T3]) waits for its turn while its
/// doomed successor T3 cascades and the leader T1 commits and hands over:
/// the turn comes through T3's `finish_rollback` (newest again) and T1's
/// handover (`switching_new_leader` cleared), in either order.  A lost
/// wake-up shows as a `LockWaitTimeout` on the virtual clock.
#[test]
fn rollback_turn_wakeup_is_never_lost_under_exploration() {
    let mut classes = std::collections::HashSet::new();
    for seed in txsql_sim::ci_seeds(200) {
        let g = three_member_group();
        let shared = Arc::clone(&g);
        let report = run_seed(seed, move |sim| {
            let roll_back = |g: &GroupLockTable, txn: TxnId| {
                g.begin_rollback(txn, HOT);
                g.wait_rollback_turn(txn, HOT).unwrap();
                g.finish_rollback(txn, HOT);
                g.resume_granting(HOT);
                assert_no_wait_ran_into_its_deadline();
            };
            let g = Arc::clone(&shared);
            sim.spawn("leader", move || {
                g.leader_prepare_commit(TxnId(1), HOT);
                g.leader_handover(TxnId(1), HOT);
                g.wait_commit_turn(TxnId(1), HOT).unwrap();
                g.finish_commit(TxnId(1), HOT);
                assert_no_wait_ran_into_its_deadline();
            });
            let g = Arc::clone(&shared);
            sim.spawn("aborter", move || roll_back(&g, TxnId(2)));
            let g = Arc::clone(&shared);
            sim.spawn("successor", move || {
                // Commits if it beats the aborter's doom to its turn check
                // (never: T2 precedes it), cascades otherwise.
                match g.wait_commit_turn(TxnId(3), HOT) {
                    Ok(_) => panic!("T3 committed ahead of its predecessor T2"),
                    Err(err) => {
                        assert!(
                            matches!(err, txsql_common::Error::CascadingAbort { .. }),
                            "seed {seed}: {err:?}"
                        );
                        roll_back(&g, TxnId(3));
                    }
                }
            });
        });
        classes.insert(report.coverage.schedule_class);
        assert!(
            g.dep_list(HOT).is_empty(),
            "seed {seed}: dep list not drained"
        );
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
    println!(
        "sim-coverage: suite=sim_lock/rollback_turn classes={}",
        classes.len()
    );
}

// ---------------------------------------------------------------------------
// Event-pool draining on the timeout / cancellation paths
// ---------------------------------------------------------------------------

/// A cancelled group-lock wait must drain its pooled event back to the
/// thread-local free list: cancellation removes the queue's `WaitSlot` clone,
/// so the waiter's drop is the last one and recycles the (unique) event.
#[test]
fn cancelled_group_wait_drains_event_to_pool() {
    let g = group_table();
    assert!(matches!(
        g.begin_hot_update(TxnId(1), HOT),
        HotExecution::Leader
    ));
    g.register_update(TxnId(1), HOT);
    let slot = match g.begin_hot_update(TxnId(2), HOT) {
        HotExecution::Wait(slot) => slot,
        other => panic!("expected Wait, got {other:?}"),
    };
    let before = OsEvent::pooled_count();
    assert_eq!(g.cancel_hot_wait(TxnId(2), HOT), CancelOutcome::Cancelled);
    drop(slot);
    assert_eq!(
        OsEvent::pooled_count(),
        before + 1,
        "cancelled wait slot must recycle its event"
    );
}

/// A slot whose granter still holds a clone must NOT recycle a shared event:
/// the unique-`Arc` rule protects the pool from stale wakes.
#[test]
fn granted_slot_event_is_not_pooled_while_shared() {
    let g = group_table();
    let _ = g.begin_hot_update(TxnId(1), HOT);
    g.register_update(TxnId(1), HOT);
    let slot = match g.begin_hot_update(TxnId(2), HOT) {
        HotExecution::Wait(slot) => slot,
        other => panic!("expected Wait, got {other:?}"),
    };
    let stale_granter_clone = Arc::clone(slot.event());
    g.finish_update(TxnId(1), HOT, true); // grants T2, queue drops its slot clone
    let before = OsEvent::pooled_count();
    drop(slot);
    assert_eq!(
        OsEvent::pooled_count(),
        before,
        "event with an outstanding granter clone must not be pooled"
    );
    drop(stale_granter_clone);
}

/// A timed-out ticket wait leaves the queue, its clone of the event with it,
/// so the wait can pool the event.
#[test]
fn cancelled_queue_wait_drains_event_to_pool() {
    let q = QueueLockTable::new(Duration::from_millis(10));
    let key = HOT.packed();
    assert!(matches!(q.admit(key, 1), QueueAdmission::Proceed));
    let event = match q.admit(key, 2) {
        QueueAdmission::Wait(event, _) => event,
        other => panic!("expected Wait, got {other:?}"),
    };
    let before = OsEvent::pooled_count();
    assert!(!q.wait(key, 2, event), "owner 1 never released");
    assert_eq!(OsEvent::pooled_count(), before + 1);
    q.release(key, 1);
}

/// A commit-turn wait that times out under an explored schedule must retire
/// its event (remove the state's clone) instead of leaving its turn-waiter
/// entry behind — observable as an empty waiter list and a recycled event
/// even though nobody ever woke the waiter.
#[test]
fn timed_out_commit_wait_retires_its_event_under_sim() {
    for seed in txsql_sim::ci_seeds(20) {
        let g = Arc::new(GroupLockTable::new(
            GroupLockConfig {
                hot_wait_timeout: Duration::from_millis(20),
                ..GroupLockConfig::default()
            },
            Arc::new(EngineMetrics::new()),
        ));
        const T1: TxnId = TxnId(1);
        const T2: TxnId = TxnId(2);
        // T1 precedes T2 in the dependency list and never commits, so T2's
        // commit turn can only end in a (virtual clock) timeout.
        let _ = g.begin_hot_update(T1, HOT);
        g.register_update(T1, HOT);
        g.finish_update(T1, HOT, true);
        assert!(matches!(
            g.begin_hot_update(T2, HOT),
            HotExecution::Follower
        ));
        g.register_update(T2, HOT);
        g.finish_update(T2, HOT, false);

        let gt = Arc::clone(&g);
        run_seed(seed, move |sim| {
            let g2 = Arc::clone(&gt);
            sim.spawn("commit-waiter", move || {
                let pooled_before = OsEvent::pooled_count();
                let err = g2.wait_commit_turn(T2, HOT).unwrap_err();
                assert!(matches!(err, txsql_common::Error::LockWaitTimeout { .. }));
                // The retired events went back to this thread's pool (capped
                // by the pool size); at minimum the last one must be there.
                assert!(
                    OsEvent::pooled_count() > pooled_before.saturating_sub(1),
                    "retired commit-turn event was not recycled"
                );
            });
        });
        // No abandoned commit-waiter entries may survive the timeout.
        g.finish_rollback(T2, HOT);
        g.finish_rollback(T1, HOT);
        assert!(!g.has_activity(HOT), "seed {seed}: entry still live");
    }
}
