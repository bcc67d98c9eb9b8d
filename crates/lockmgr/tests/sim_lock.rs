//! Deterministic schedule exploration of the lock manager (`txsql-sim`).
//!
//! Every test here runs the *production* lock-manager code under the
//! cooperative scheduler: shim `Mutex`/`RwLock` acquisitions and
//! `OsEvent::wait/set` are the preemption points, and timeouts fire on the
//! virtual clock.  A failing seed prints a replayable failure artifact; see
//! `crates/sim/README.md` for how to replay it.
//!
//! A group scenario declares who is on the hot row when the schedule starts
//! ([`Hot::group`]) and what each sim thread's member does with its life
//! (`support::Member`); the driver checks, under every schedule, that a grant is
//! visible through the entry map, that commits leave the row's version
//! chain from the bottom and undos from the top, and that a cascade names a
//! transaction whose write the doomed one read.  Every sweep goes through
//! [`explore`]: the seed set is `TXSQL_SIM_SEEDS`-overridable (CI pins
//! `0..200`) and each prints its `sim-coverage:` line.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::{assert_locks_drained, assert_no_wait_ran_into_its_deadline, explore, lock_table};
use support::{Hot, HOT};
use txsql_common::latency::simulate_delay;
use txsql_common::{Error, RecordId, TxnId};
use txsql_lockmgr::event::OsEvent;
use txsql_lockmgr::group_lock::HotExecution;
use txsql_lockmgr::lightweight::FlatLayout;
use txsql_lockmgr::lock_sys::PageLayout;
use txsql_lockmgr::lock_table::{DeadlockPolicy, Layout, RecordLockTable};
use txsql_lockmgr::modes::LockMode;
use txsql_sim::{run_seed, RunReport, Sim};

/// Runs `life` on its own sim thread with a clone of `with` (a member, or
/// the [`Hot`] row for a transaction that has yet to arrive).  No group
/// scenario but the timeout ones spends virtual time, so the thread must end
/// without the clock having ended a wait for it.
fn on<T: Clone + Send + 'static>(
    sim: &mut Sim,
    name: &str,
    with: &T,
    life: impl FnOnce(T) + Send + 'static,
) {
    let with = with.clone();
    sim.spawn(name, move || {
        life(with);
        assert_no_wait_ran_into_its_deadline();
    });
}

/// A transaction that arrives while a rollback may be going on: granted
/// before the pause it read the aborting head and cascades, granted after
/// the last `finish_rollback` it commits (`Member::commit_or_cascade` holds
/// it to that).  Returns whether it was doomed.
fn arrival(hot: Hot, txn: u64) -> bool {
    let member = hot.arrive(TxnId(txn)).unwrap();
    member.update();
    member.commit_or_cascade().is_some()
}

// ---------------------------------------------------------------------------
// Group handles and the entry lifecycle
// ---------------------------------------------------------------------------

/// The entry-lifecycle race: a handle is held without the entry's state
/// mutex, so `collect_if_idle` can take the entry out of the map under it.
/// T1 keeps its handle across its own `finish_commit` — after which the
/// entry is idle, a sweeper collects it and peers re-create it — and still
/// hands over with it.  Every call must land on the live entry
/// (`with_state`'s re-validation of the `dead` mark): a joiner that enqueued
/// on a dead one would wait out its deadline where no granter looks, a
/// hand-over through a dead one would leave the live group's waiters parked,
/// and one that clobbered the live group's leader would elect two.
#[test]
fn handle_held_across_entry_gc_lands_on_the_live_entry_under_exploration() {
    explore("sim_lock/entry_gc", 200, |seed| {
        let (hot, members) = Hot::group(&[], None);
        let report = run_seed(seed, |sim| {
            on(sim, "committer", &members[0], |t1| {
                let g = &t1.hot.g;
                g.leader_prepare_commit(t1.txn, &t1.handle);
                g.wait_commit_turn(t1.txn, &t1.handle).unwrap();
                t1.hot.committed(t1.txn);
                g.finish_commit(t1.txn, &t1.handle); // idle from here: collectable
                g.leader_handover(t1.txn, &t1.handle);
            });
            on(sim, "sweeper", &hot, |hot| {
                for _ in 0..3 {
                    hot.g.collect_if_idle(HOT);
                }
            });
            for joiner in [2, 3] {
                on(sim, &format!("joiner-{joiner}"), &hot, move |hot| {
                    hot.run(TxnId(joiner));
                });
            }
        });
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
}

/// A grantee is registered by the grant, before it can use it.  When it
/// cannot — a leader whose row lock failed, a follower a prevention check
/// turned away — it gives the grant back, and the registration with it: no
/// dependency-list entry survives for a successor's commit turn to wait
/// behind, and after a leader that never was, whoever is granted next leads
/// a fresh group.
#[test]
fn abandoned_grant_leaves_no_registration_under_exploration() {
    let shapes: [(&str, &[u64]); 2] = [
        ("sim_lock/abandoned_leader", &[]),
        ("sim_lock/abandoned_follower", &[2]),
    ];
    for (suite, followers) in shapes {
        explore(suite, 200, |seed| {
            // The last to be granted is in flight and will abandon.
            let abandoner = followers.last().copied().unwrap_or(1);
            let (hot, members) = Hot::group(followers, Some(abandoner));
            let leaders = Arc::new(AtomicUsize::new(0));
            let report = run_seed(seed, |sim| {
                on(sim, "abandoner", members.last().unwrap(), |gone| {
                    let g = &gone.hot.g;
                    g.abandon_update(gone.txn, &gone.handle, gone.leads);
                    let row = g.peek(HOT);
                    assert!(!row.dep_list.contains(&gone.txn), "left behind: {row:?}");
                });
                if !followers.is_empty() {
                    on(sim, "leader", &members[0], |t1| t1.commit().unwrap());
                }
                for arrival in [8, 9] {
                    let with = (hot.clone(), Arc::clone(&leaders));
                    on(
                        sim,
                        &format!("arrival-{arrival}"),
                        &with,
                        move |(hot, leaders)| {
                            if hot.run(TxnId(arrival)) {
                                leaders.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                    );
                }
            });
            assert!(
                !followers.is_empty() || leaders.load(Ordering::Relaxed) >= 1,
                "seed {seed}: both arrivals followed the leader that never was"
            );
            hot.assert_drained(&format!("seed {seed}"));
            report
        });
    }
}

/// A parked update's deadline racing the hand-over that would promote it
/// resolves to one side: the waiter either proceeds as the promoted leader
/// (the grant raced ahead of the cancellation) or left the queue and the row
/// is left leaderless — never both, never a lost promotion.  The committing
/// leader stalls between quiesce and hand-over past the waiter's 100 ms
/// deadline, so both orders occur across the seed set; a waiter that arrives
/// before the quiesce follows the old group instead, one that arrives after
/// the stall is promoted in time.
#[test]
fn grant_deadline_racing_the_hand_over_resolves_to_one_side_under_exploration() {
    let gave_up = Arc::new(AtomicUsize::new(0));
    let summary = explore("sim_lock/handover_deadline", 200, |seed| {
        let (hot, members) = Hot::group(&[], None);
        let report = run_seed(seed, |sim| {
            let (hot, gave_up) = (hot.clone(), Arc::clone(&gave_up));
            sim.spawn("waiter", move || match hot.arrive(TxnId(2)) {
                Ok(member) => {
                    member.update();
                    member.commit().unwrap();
                }
                Err(err) => {
                    assert!(matches!(err, Error::LockWaitTimeout { .. }), "{err:?}");
                    let row = hot.g.peek(HOT);
                    assert_ne!(row.leader, Some(TxnId(2)), "gave up, yet leads");
                    gave_up.fetch_add(1, Ordering::Relaxed);
                }
            });
            let t1 = members[0].clone();
            sim.spawn("committer", move || {
                let g = &t1.hot.g;
                g.leader_prepare_commit(t1.txn, &t1.handle);
                // A first pause lets the waiter park behind the switching
                // leader; the second runs past the deadline it then took.
                simulate_delay(Duration::from_millis(1));
                simulate_delay(Duration::from_millis(105));
                g.leader_handover(t1.txn, &t1.handle);
                g.wait_commit_turn(t1.txn, &t1.handle).unwrap();
                t1.hot.committed(t1.txn);
                g.finish_commit(t1.txn, &t1.handle);
            });
        });
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
    let gave_up = gave_up.load(Ordering::Relaxed) as u64;
    assert!(
        0 < gave_up && gave_up < summary.runs,
        "both sides of the race must be explored ({gave_up} of {} gave up)",
        summary.runs
    );
}

// ---------------------------------------------------------------------------
// Rollbacks: the doom scan, the pause and the turn
// ---------------------------------------------------------------------------

/// Granting registers, so the doom scan of a rollback sees every
/// transaction that can have read the aborting one's uncommitted head: an
/// arrival granted before T1's `begin_rollback` paused the row is on the
/// dependency list behind T1 and **always** doomed; one granted after the
/// last `finish_rollback` reads the undone head and **never** is.
#[test]
fn grant_before_a_rollback_is_doomed_and_after_it_is_clean_under_exploration() {
    let doomed = Arc::new(AtomicUsize::new(0));
    let summary = explore("sim_lock/doom_window", 200, |seed| {
        let (hot, members) = Hot::group(&[], None);
        let report = run_seed(seed, |sim| {
            on(sim, "aborter", &members[0], |t1| {
                t1.roll_back();
            });
            let with = (hot.clone(), Arc::clone(&doomed));
            on(sim, "arrival", &with, |(hot, doomed)| {
                doomed.fetch_add(arrival(hot, 2) as usize, Ordering::Relaxed);
            });
        });
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
    let doomed = doomed.load(Ordering::Relaxed) as u64;
    assert!(
        0 < doomed && doomed < summary.runs,
        "both sides of the pause must be explored ({doomed} of {} doomed)",
        summary.runs
    );
}

/// Two members of one row rolling back at once: the leader T1 has committed
/// and left the row leaderless, T2 aborts and its doomed successor T3
/// cascades, so T3 finishes its rollback while T2 is still between
/// `begin_rollback` and `finish_rollback`.  The pause is the list of members
/// rolling back and nothing else: T3's `finish_rollback` promotes nobody,
/// no arrival is granted before T2's — it would write on top of T2's head,
/// and T2's undo would not find its own version there — and T2's promotes
/// the one parked arrival there is room for.
#[test]
fn pause_lasts_until_the_last_of_two_rollbacks_finishes_under_exploration() {
    let promotions = Arc::new(AtomicUsize::new(0));
    explore("sim_lock/rollback_pair", 200, |seed| {
        let (hot, members) = Hot::group(&[2, 3], None);
        members[0].commit().unwrap();
        let report = run_seed(seed, |sim| {
            let with = (members[1].clone(), Arc::clone(&promotions));
            on(sim, "aborter", &with, |(t2, promotions)| {
                if let Some(promoted) = t2.roll_back() {
                    assert!(promoted.0 >= 8, "promoted {promoted}");
                    promotions.fetch_add(1, Ordering::Relaxed);
                }
            });
            on(sim, "successor", &members[2], |t3| {
                let err = t3.commit().expect_err("T2 precedes it and rolls back");
                assert!(err.is_cascading(), "{err:?}");
                let promoted = t3.roll_back();
                assert_eq!(promoted, None, "promoted while T2 is still rolling back");
            });
            for txn in [8, 9] {
                on(sim, &format!("arrival-{txn}"), &hot, move |hot| {
                    arrival(hot, txn);
                });
            }
        });
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
    let promotions = promotions.load(Ordering::Relaxed);
    assert!(promotions > 0, "no schedule parked an arrival in the pause");
}

/// A mid-list rollback (T2 of [T1, T2, T3]) waits for its turn while its
/// doomed successor T3 cascades and the leader T1 commits and hands over:
/// the turn comes through T3's `finish_rollback` (newest again) and T1's
/// hand-over (`switching_new_leader` cleared), in either order, and a lost
/// wake-up shows as a wait ended by the virtual clock.  An arrival parked in
/// the pause must not be promoted by T1's hand-over while T2 and T3 are
/// still rolling back.
#[test]
fn rollback_turn_wakeup_is_never_lost_under_exploration() {
    explore("sim_lock/rollback_turn", 200, |seed| {
        let (hot, members) = Hot::group(&[2, 3], None);
        let report = run_seed(seed, |sim| {
            on(sim, "leader", &members[0], |t1| t1.commit().unwrap());
            on(sim, "aborter", &members[1], |t2| {
                t2.roll_back();
            });
            on(sim, "successor", &members[2], |t3| {
                let cause = t3.commit_or_cascade();
                assert_eq!(cause, Some(TxnId(2)), "T3 committed ahead of T2");
            });
            on(sim, "arrival", &hot, |hot| {
                arrival(hot, 4);
            });
        });
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
}

/// The committing leader's quiesce is a parked wait that only the in-flight
/// follower's `finish_update` ends.  Whatever the interleaving of the
/// leader's check-then-park with that `finish_update` (and with a joiner
/// queueing behind the switching leader), the wake-up must not be lost: a
/// lost one shows as the leader sleeping to its virtual-clock deadline and
/// force-clearing the follower (`quiesce_forced`).
#[test]
fn quiesce_wakeup_is_never_lost_under_exploration() {
    explore("sim_lock/quiesce", 200, |seed| {
        let (hot, members) = Hot::group(&[2], Some(2));
        let report = run_seed(seed, |sim| {
            on(sim, "leader", &members[0], |t1| t1.commit().unwrap());
            on(sim, "follower", &members[1], |t2| {
                t2.update();
                t2.commit().unwrap();
            });
            on(sim, "joiner", &hot, |hot| {
                hot.run(TxnId(3));
            });
        });
        let forced = hot.metrics.abort_causes.get("quiesce_forced");
        assert_eq!(
            forced, 0,
            "seed {seed}: the leader slept through finish_update"
        );
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
}

// ---------------------------------------------------------------------------
// grant_waiters FIFO / compatibility invariants (both lock tables)
// ---------------------------------------------------------------------------

/// The scenarios below run on a timeout-only table.  Under that policy the
/// registry entry (`lock_count_of`) is written immediately before the wait
/// deadline is captured (no yield point in between — detection would add the
/// graph's event-attach lock there), so they can gate on it to order
/// virtual-clock deadlines deterministically.
fn timeout_only<L: Layout>() -> Arc<RecordLockTable<L>> {
    lock_table(DeadlockPolicy::TimeoutOnly, 200)
}

/// Exclusive waiters staged in a known arrival order must be granted in that
/// order, and none may be lost: a lost wakeup surfaces as either a
/// virtual-clock timeout (`unwrap` fails) or a sim deadlock artifact.
fn fifo_grant_order<L: Layout + 'static>(seed: u64) -> RunReport {
    let table = timeout_only::<L>();
    const WAITERS: usize = 3;
    let order = Arc::new(parking_lot::Mutex::new(Vec::<usize>::new()));
    let holder_txn = TxnId(1);
    // The holder takes the lock before any sim thread runs.
    table
        .lock_record(holder_txn, HOT, LockMode::Exclusive)
        .unwrap();

    let t = Arc::clone(&table);
    let o = Arc::clone(&order);
    let report = run_seed(seed, move |sim| {
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
    assert_locks_drained(&table);
    report
}

/// A Shared waiter queued behind an earlier conflicting Exclusive waiter must
/// not jump the queue while the Exclusive wait is pending — but when that
/// front waiter *times out*, the timeout cleanup must re-run the grant scan
/// and wake the compatible waiter behind it (no lost wakeup on the timeout
/// path).  The virtual clock makes the timeout fire deterministically in
/// every explored schedule.
fn timeout_grants_compatible_waiter_behind<L: Layout + 'static>(seed: u64) -> RunReport {
    let table = timeout_only::<L>();
    let holder_txn = TxnId(1);
    table
        .lock_record(holder_txn, HOT, LockMode::Shared)
        .unwrap();
    let granted_shared = Arc::new(AtomicUsize::new(0));

    let t = Arc::clone(&table);
    let g = Arc::clone(&granted_shared);
    let report = run_seed(seed, move |sim| {
        let table = Arc::clone(&t);
        sim.spawn("exclusive-waiter", move || {
            // Conflicts with the Shared holder; nobody releases, so this wait
            // can only end through the (virtual-clock) timeout.
            let err = table
                .lock_record(TxnId(2), HOT, LockMode::Exclusive)
                .unwrap_err();
            assert!(
                matches!(err, Error::LockWaitTimeout { .. }),
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
    assert_locks_drained(&table);
    report
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
fn per_record_queues_are_independent<L: Layout + 'static>(seed: u64) -> RunReport {
    let table = timeout_only::<L>();
    const A: RecordId = RecordId::new(1, 0, 0);
    const B: RecordId = RecordId::new(1, 0, 1);
    let holder_a = TxnId(1);
    let holder_b = TxnId(2);
    table.lock_record(holder_a, A, LockMode::Exclusive).unwrap();
    table.lock_record(holder_b, B, LockMode::Exclusive).unwrap();
    let order = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let a_timed_out = Arc::new(AtomicUsize::new(0));

    let t = Arc::clone(&table);
    let o = Arc::clone(&order);
    let flag = Arc::clone(&a_timed_out);
    let report = run_seed(seed, move |sim| {
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
                matches!(err, Error::LockWaitTimeout { .. }),
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
    assert_locks_drained(&table);
    report
}

/// A statement-boundary **batched** release (`release_record_locks` over
/// several records at once — the wider Bamboo early-release batch) must wake
/// every eligible waiter exactly once: no lost wakeup (every waiter is
/// granted — a lost one would surface as a virtual-clock timeout or a sim
/// deadlock artifact) and no double grant (each exclusive grantee observes
/// itself as the record's only holder).  On the page-sharded table all
/// records share one page, so the whole batch drains under a single shard
/// acquisition — exactly the path the statement-boundary flush exercises.
fn batched_release_wakes_each_waiter_exactly_once<L: Layout + 'static>(seed: u64) -> RunReport {
    let table = timeout_only::<L>();
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
    let report = run_seed(seed, move |sim| {
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
    assert_locks_drained(&table);
    report
}

/// One `#[test]` per scenario and layout: every CI seed, one coverage line.
macro_rules! under_exploration {
    ($($test:ident: $scenario:ident::<$layout:ty>),* $(,)?) => {$(
        #[test]
        fn $test() {
            explore(concat!("sim_lock/", stringify!($test)), 200, $scenario::<$layout>);
        }
    )*};
}

under_exploration!(
    fifo_grant_order_under_exploration_lock_sys: fifo_grant_order::<PageLayout>,
    fifo_grant_order_under_exploration_lightweight: fifo_grant_order::<FlatLayout>,
    timeout_wakes_compatible_waiter_lock_sys: timeout_grants_compatible_waiter_behind::<PageLayout>,
    timeout_wakes_compatible_waiter_lightweight: timeout_grants_compatible_waiter_behind::<FlatLayout>,
    per_record_queue_independence_under_exploration_lock_sys: per_record_queues_are_independent::<PageLayout>,
    per_record_queue_independence_under_exploration_lightweight: per_record_queues_are_independent::<FlatLayout>,
    batched_release_wakes_each_waiter_exactly_once_lock_sys: batched_release_wakes_each_waiter_exactly_once::<PageLayout>,
    batched_release_wakes_each_waiter_exactly_once_lightweight: batched_release_wakes_each_waiter_exactly_once::<FlatLayout>,
);

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
            let table = timeout_only::<PageLayout>();
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
// Event-pool draining on the timeout / cancellation paths
// ---------------------------------------------------------------------------

/// A grant wait that gives up leaves the queue, and the queue's clone of its
/// `WaitSlot` with it, so the waiter's drop is the last one and recycles the
/// (unique) pooled event.
#[test]
fn timed_out_grant_wait_leaves_the_queue_and_pools_its_event() {
    let (hot, _in_flight) = Hot::group(&[], Some(1));
    let (handle, execution) = hot.g.begin_update(TxnId(2), HOT);
    let HotExecution::Wait(slot) = execution else {
        panic!("T1 is in flight: {execution:?}")
    };
    let before = OsEvent::pooled_count();
    let err = hot.g.wait_for_grant(TxnId(2), &handle, &slot).unwrap_err();
    assert!(matches!(err, Error::LockWaitTimeout { .. }), "{err:?}");
    assert!(hot.g.peek(HOT).waiting.is_empty(), "still queued");
    drop(slot);
    assert_eq!(OsEvent::pooled_count(), before + 1, "event not recycled");
}

/// A commit-turn wait that times out under an explored schedule must retire
/// its event (remove the state's clone) instead of leaving its turn-waiter
/// entry behind — observable as a recycled event and a row that drains even
/// though nobody ever woke the waiter.
#[test]
fn timed_out_commit_wait_retires_its_event_under_sim() {
    explore("sim_lock/commit_wait_timeout", 20, |seed| {
        // T1 precedes T2 on the dependency list and never commits, so T2's
        // commit turn can only end in a (virtual clock) timeout.
        let (hot, members) = Hot::group(&[2], None);
        let report = run_seed(seed, |sim| {
            let t2 = members[1].clone();
            sim.spawn("commit-waiter", move || {
                let pooled_before = OsEvent::pooled_count();
                let err = t2.commit().unwrap_err();
                assert!(matches!(err, Error::LockWaitTimeout { .. }), "{err:?}");
                // The retired events went back to this thread's pool (capped
                // by the pool size); at minimum the last one must be there.
                assert!(
                    OsEvent::pooled_count() > pooled_before.saturating_sub(1),
                    "retired commit-turn event was not recycled"
                );
            });
        });
        // No abandoned turn-waiter entry may keep the row alive.
        members[1].roll_back();
        members[0].roll_back();
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
}
