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
//! visible through the entry map and lands beside no other update in flight,
//! that commits leave the row's version chain from the bottom and undos from
//! the top, and that a cascade names a transaction whose write the doomed one
//! read.  Every sweep goes through [`explore`]: the seed set is
//! `TXSQL_SIM_SEEDS`-overridable (CI pins `0..200`) and each prints its
//! `sim-coverage:` line.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::{assert_locks_drained, assert_no_wait_ran_into_its_deadline, explore, lock_table};
use support::{Hot, Member, HOT};
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
/// entry is idle, a sweeper collects it and peers re-create it — and steps
/// down with it once more.  Every call must land on the live entry
/// (`with_state`'s re-validation of the `dead` mark): a joiner that enqueued
/// on a dead one would wait out its deadline where no granter looks, and a
/// step-down that clobbered the live group's leader would elect two.
#[test]
fn handle_held_across_entry_gc_lands_on_the_live_entry_under_exploration() {
    explore("sim_lock/entry_gc", 200, |seed| {
        let (hot, members) = Hot::group(&[], None);
        let report = run_seed(seed, |sim| {
            on(sim, "committer", &members[0], |t1| {
                t1.commit().unwrap(); // idle from here: collectable
                t1.hot.g.leader_step_down(t1.txn, &t1.handle);
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
                    gone.abandon();
                    let row = gone.hot.g.peek(HOT);
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

/// A parked update's deadline racing the grant that would end its wait
/// resolves to one side: the waiter proceeds with the role it was granted
/// (the grant raced ahead of the cancellation) or left the queue — never
/// both, never a lost grant.  T1 leads, its update in flight, and stalls
/// past the deadline of T2, parked behind it; then, by the seed, it gives
/// the grant back (its row lock failed: T2 would lead) or ends its update
/// (T2 would follow) and commits, stepping down behind T2's update.  T3
/// arrives anywhere around them.  Nothing is granted beside an update in
/// flight: a pending hand-over is for the end of that update to complete,
/// never for a timed-out waiter.
#[test]
fn grant_deadline_racing_a_grant_resolves_to_one_side_under_exploration() {
    let ends: [fn(Member); 2] = [
        |t1| t1.abandon(),
        |t1| {
            t1.update();
            t1.commit().unwrap();
        },
    ];
    let gave_up = Arc::new(AtomicUsize::new(0));
    let summary = explore("sim_lock/grant_deadline", 200, |seed| {
        let (hot, members) = Hot::group(&[], Some(1));
        let end = ends[seed as usize % ends.len()];
        let report = run_seed(seed, |sim| {
            let t1 = members[0].clone();
            sim.spawn("leader", move || {
                // A first pause lets T2 park behind the update in flight;
                // the second runs past the deadline it then took.
                simulate_delay(Duration::from_millis(1));
                simulate_delay(Duration::from_millis(105));
                end(t1);
            });
            for txn in [2, 3] {
                let (hot, gave_up) = (hot.clone(), Arc::clone(&gave_up));
                sim.spawn(format!("arrival-{txn}"), move || {
                    match hot.arrive(TxnId(txn)) {
                        Ok(member) => {
                            member.update();
                            member.commit().unwrap();
                        }
                        Err(err) => {
                            assert!(matches!(err, Error::LockWaitTimeout { .. }), "{err:?}");
                            let row = hot.g.peek(HOT);
                            assert_ne!(row.leader, Some(TxnId(txn)), "gave up, yet leads");
                            gave_up.fetch_add((txn == 2) as usize, Ordering::Relaxed);
                        }
                    }
                });
            }
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
/// doomed successor T3 cascades and the leader T1 commits and steps down:
/// the turn comes through T3's `finish_rollback` (newest again), and a lost
/// wake-up shows as a wait ended by the virtual clock.  An arrival parked in
/// the pause must not be promoted by T1's step-down while T2 and T3 are
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

/// The committing leader steps down while its follower T2's update is in
/// flight, and parks on nothing: the hand-over it leaves pending is
/// completed by whichever transition ends the flight — T2's `finish_update`,
/// its `abandon_update`, or its `begin_rollback` (then the last
/// `finish_rollback` promotes) — each explored against the step-down and a
/// joiner arriving anywhere around them.  The joiner is granted before its
/// deadline (a lost promotion shows as the clock ending its wait), the
/// driver sees no two updates in flight, and the row drains.
#[test]
fn a_pending_hand_over_is_completed_by_whatever_ends_the_flight_under_exploration() {
    let ends: [fn(Member); 3] = [
        |t2| {
            t2.update();
            t2.commit().unwrap();
        },
        |t2| t2.abandon(),
        |t2| _ = t2.roll_back(),
    ];
    explore("sim_lock/step_down", 200, |seed| {
        let (hot, members) = Hot::group(&[2], Some(2));
        let end = ends[seed as usize % ends.len()];
        let report = run_seed(seed, |sim| {
            on(sim, "leader", &members[0], |t1| t1.commit().unwrap());
            on(sim, "follower", &members[1], end);
            on(sim, "joiner", &hot, |hot| {
                hot.run(TxnId(3));
            });
        });
        hot.assert_drained(&format!("seed {seed}"));
        report
    });
}

// ---------------------------------------------------------------------------
// FIFO grant invariants (both lock tables)
// ---------------------------------------------------------------------------

/// The scenarios below run on a timeout-only table.  Under that policy a
/// request's registry entry is written immediately before its wait deadline
/// is captured (no yield point in between — detection would add the graph's
/// event-attach lock there), so a waiter can gate on it ([`Waiter::behind`])
/// to order virtual-clock deadlines deterministically.
fn timeout_only<L: Layout>() -> Arc<RecordLockTable<L>> {
    lock_table(DeadlockPolicy::TimeoutOnly, 200)
}

/// One staged waiter of a lock-table scenario.  It requests `record` once
/// every record of `queued` has that many waiters and the request of
/// `behind` is registered, `delay_us` of virtual time later; then it is
/// granted — the grantee sees itself as the holder, so no grant was doubled
/// — and releases, or, with `times_out`, gives up.  A wake-up that is lost
/// surfaces as the wrong one of the two.
#[derive(Clone)]
struct Waiter {
    txn: u64,
    record: RecordId,
    queued: Vec<(RecordId, usize)>,
    behind: Option<u64>,
    delay_us: u64,
    times_out: bool,
}

/// A request that is granted, made once `queued` holds.
fn waiter(txn: u64, record: RecordId, queued: &[(RecordId, usize)]) -> Waiter {
    Waiter {
        txn,
        record,
        queued: queued.to_vec(),
        behind: None,
        delay_us: 0,
        times_out: false,
    }
}

impl Waiter {
    /// …and once `behind`'s request is registered, `delay_us` later.
    fn late(mut self, behind: Option<u64>, delay_us: u64) -> Self {
        (self.behind, self.delay_us) = (behind, delay_us);
        self
    }
}

/// Who was granted and who timed out, in the order it happened.
#[derive(Default)]
struct Outcomes {
    granted: Vec<u64>,
    timed_out: Vec<u64>,
}

fn yield_until(done: impl Fn() -> bool) {
    let sim = txsql_sim::current().expect("sim thread");
    while !done() {
        sim.yield_now();
    }
}

fn queued<L: Layout>(table: &RecordLockTable<L>, queues: &[(RecordId, usize)]) -> bool {
    (queues.iter()).all(|(record, waiters)| table.wait_queue_len(*record) == *waiters)
}

/// Runs `waiters`, and `driver` beside them, against `table` under `seed`,
/// then releases what `held` still holds: the table must be drained.
fn stage<L: Layout + 'static>(
    seed: u64,
    table: &Arc<RecordLockTable<L>>,
    held: &[TxnId],
    waiters: &[Waiter],
    driver: impl Fn(&RecordLockTable<L>, &parking_lot::Mutex<Outcomes>) + Clone + Send + 'static,
) -> (RunReport, Outcomes) {
    let outcomes = Arc::new(parking_lot::Mutex::new(Outcomes::default()));
    let report = run_seed(seed, |sim| {
        for waiter in waiters.iter().cloned() {
            let (table, outcomes) = (Arc::clone(table), Arc::clone(&outcomes));
            sim.spawn(format!("waiter-{}", waiter.txn), move || {
                let registry = table.registry();
                let registered = |txn| registry.record_count_of(TxnId(txn)) == 1;
                yield_until(|| {
                    queued(&table, &waiter.queued) && waiter.behind.is_none_or(registered)
                });
                simulate_delay(Duration::from_micros(waiter.delay_us));
                let (txn, record) = (TxnId(waiter.txn), waiter.record);
                match table.lock_record(txn, record, LockMode::Exclusive) {
                    Ok(()) if !waiter.times_out => {
                        assert_eq!(table.holder_of(record), Some(txn), "double grant");
                        outcomes.lock().granted.push(waiter.txn);
                        table.release_all(txn);
                    }
                    Err(Error::LockWaitTimeout { .. }) if waiter.times_out => {
                        outcomes.lock().timed_out.push(waiter.txn)
                    }
                    other => panic!("seed {seed}: {txn} ended in {other:?}"),
                }
            });
        }
        let (table, outcomes, driver) = (Arc::clone(table), Arc::clone(&outcomes), driver.clone());
        sim.spawn("driver", move || driver(&table, &outcomes));
    });
    let outcomes = std::mem::take(&mut *outcomes.lock());
    for holder in held {
        let kept = table.registry().record_count_of(*holder);
        assert!(kept > 0, "seed {seed}: the churn cost {holder} its lock");
        table.release_all(*holder);
    }
    assert_locks_drained(table);
    (report, outcomes)
}

/// Exclusive waiters staged in a known arrival order are granted in that
/// order, and none is lost.
fn fifo_grant_order<L: Layout + 'static>(seed: u64) -> RunReport {
    let (table, holder) = (timeout_only::<L>(), TxnId(1));
    table.lock_record(holder, HOT, LockMode::Exclusive).unwrap();
    // Waiter i enqueues only once i earlier ones are parked in the queue.
    let waiters: Vec<Waiter> = (0..3)
        .map(|i| waiter(10 + i as u64, HOT, &[(HOT, i)]))
        .collect();
    let (report, outcomes) = stage(seed, &table, &[], &waiters, move |table, _| {
        yield_until(|| queued(table, &[(HOT, 3)]));
        table.release_all(holder);
    });
    assert_eq!(outcomes.granted, [10, 11, 12], "seed {seed}: not FIFO");
    report
}

/// The front waiter *times out* while the holder keeps the row (only the
/// virtual clock can end its wait): its cleanup wakes nobody, and the waiter
/// queued 50 ms behind it — its deadline 50 ms later — stays queued, is not
/// lost, and is granted at the holder's release.
fn front_timeout_keeps_the_waiter_behind<L: Layout + 'static>(seed: u64) -> RunReport {
    let (table, holder) = (timeout_only::<L>(), TxnId(1));
    table.lock_record(holder, HOT, LockMode::Exclusive).unwrap();
    let mut front = waiter(2, HOT, &[]);
    front.times_out = true;
    let behind = waiter(3, HOT, &[(HOT, 1)]).late(Some(2), 50_000);
    let (report, outcomes) = stage(seed, &table, &[], &[front, behind], move |table, seen| {
        yield_until(|| queued(table, &[(HOT, 2)]));
        // Past the front deadline (200 ms), short of the one behind (250 ms).
        simulate_delay(Duration::from_micros(160_000));
        yield_until(|| seen.lock().timed_out == [2]);
        assert_eq!(table.holder_of(HOT), Some(holder), "seed {seed}");
        assert!(
            queued(table, &[(HOT, 1)]),
            "seed {seed}: the waiter behind left"
        );
        assert!(seen.lock().granted.is_empty(), "seed {seed}");
        table.release_all(holder);
    });
    assert_eq!((outcomes.timed_out, outcomes.granted), (vec![2], vec![3]));
    report
}

/// Two hot heap_nos on ONE page: FIFO holds per record, and one record's
/// timeout churn never wakes (or times out) the other record's waiters.  On
/// the page-sharded `lock_sys` both records share a shard mutex, so this is
/// exactly the per-record-queue guarantee; the record-keyed lightweight
/// table gets it structurally.
///
/// Virtual-clock layout: A's waiter captures its 200 ms deadline first; B's
/// two waiters push the clock forward (150 ms / 10 ms) before queueing, so
/// firing A's timeout (the driver's +60 ms jump, to 220 ms) leaves B's
/// deadlines (350 ms / 360 ms) unexpired — B's waiters can only proceed
/// through a genuine grant.
fn per_record_queues_are_independent<L: Layout + 'static>(seed: u64) -> RunReport {
    const A: RecordId = RecordId::new(1, 0, 0);
    const B: RecordId = RecordId::new(1, 0, 1);
    let (table, holder_a, holder_b) = (timeout_only::<L>(), TxnId(1), TxnId(2));
    table.lock_record(holder_a, A, LockMode::Exclusive).unwrap();
    table.lock_record(holder_b, B, LockMode::Exclusive).unwrap();
    // A's holder never releases: its waiter's wait ends by timeout, and its
    // cleanup (the grant scan on A) must not leak into B's queue.
    let mut waiters = [
        waiter(3, A, &[]),
        waiter(4, B, &[(A, 1)]).late(Some(3), 150_000),
        waiter(5, B, &[(B, 1)]).late(None, 10_000),
    ];
    waiters[0].times_out = true;
    let (report, outcomes) = stage(seed, &table, &[holder_a], &waiters, move |table, seen| {
        yield_until(|| queued(table, &[(A, 1), (B, 2)]));
        simulate_delay(Duration::from_micros(60_000));
        yield_until(|| seen.lock().timed_out == [3]);
        // A's timeout cleanup left B untouched.
        assert_eq!(table.holder_of(B), Some(holder_b), "seed {seed}");
        assert!(queued(table, &[(A, 0), (B, 2)]), "seed {seed}: B was woken");
        assert!(seen.lock().granted.is_empty(), "seed {seed}");
        table.release_all(holder_b);
    });
    assert_eq!(outcomes.granted, [4, 5], "seed {seed}: B not FIFO");
    report
}

/// A statement-boundary **batched** release (`release_record_locks` over
/// several records at once — the wider Bamboo early-release batch) wakes
/// every eligible waiter exactly once.  On the page-sharded table all records
/// share one page, so the whole batch drains under a single shard
/// acquisition — exactly the path the statement-boundary flush exercises.
fn batched_release_wakes_each_waiter_exactly_once<L: Layout + 'static>(seed: u64) -> RunReport {
    let (table, holder) = (timeout_only::<L>(), TxnId(1));
    let records: Vec<RecordId> = (0..3).map(|heap| RecordId::new(1, 0, heap)).collect();
    for record in &records {
        table
            .lock_record(holder, *record, LockMode::Exclusive)
            .unwrap();
    }
    let waiters = (records.iter().zip(10..)).map(|(record, txn)| waiter(txn, *record, &[]));
    let waiters: Vec<Waiter> = waiters.collect();
    let (report, mut outcomes) = stage(seed, &table, &[], &waiters, move |table, _| {
        yield_until(|| records.iter().all(|record| queued(table, &[(*record, 1)])));
        table.release_record_locks(holder, &records);
    });
    outcomes.granted.sort_unstable();
    assert_eq!(outcomes.granted, [10, 11, 12], "seed {seed}: a lost waiter");
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
    front_timeout_keeps_the_waiter_behind_lock_sys: front_timeout_keeps_the_waiter_behind::<PageLayout>,
    front_timeout_keeps_the_waiter_behind_lightweight: front_timeout_keeps_the_waiter_behind::<FlatLayout>,
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
