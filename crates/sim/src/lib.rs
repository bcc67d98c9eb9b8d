//! # txsql-sim
//!
//! A deterministic concurrency simulator for the TXSQL reproduction, in the
//! spirit of `loom`/`shuttle`: N logical threads run *one at a time* on a
//! cooperative scheduler that picks the next runnable thread from a seeded
//! RNG (schedule exploration) or a recorded trace (replay of a failing
//! schedule).
//!
//! ## Why
//!
//! The paper's contributions — group-lock grant scheduling, lightweight
//! locking, commit ordering — are interleaving-sensitive, but on a 1-CPU CI
//! box microsecond transactions are essentially never preempted mid-hold, so
//! the dangerous schedules occur rarely and non-reproducibly.  The simulator
//! makes the schedule itself the test input: hundreds of distinct
//! interleavings per test, each exactly reproducible from its seed.
//!
//! ## How it hooks in
//!
//! The repo's *own* synchronisation shims are the instrumentation points, so
//! production code needs zero `#[cfg]` noise:
//!
//! * `parking_lot` (shim) `Mutex::lock` / `RwLock::read`/`write` /
//!   `Condvar::wait*` check [`current`]; with a handle installed they yield
//!   to the scheduler and park *in the sim* instead of the OS,
//! * `crossbeam` (shim) channel `send`/`recv`/`try_send`/`try_recv`/
//!   `recv_timeout` and sender/receiver disconnects are yield points too, so
//!   Aria's batch hand-off and the replication ship queue are explorable,
//! * `txsql_lockmgr::event::OsEvent::wait`/`wait_for`/`set` route the same
//!   way,
//! * `txsql_common::latency::simulate_delay` becomes a virtual clock advance
//!   plus a yield,
//! * every *crash point* of the storage fault injector
//!   (`txsql_storage::fault::FaultInjector::hit`) is a yield point too, so
//!   seeded crash plans land at explored positions inside commits, flush
//!   batches and checkpoints (`crates/core/tests/sim_crash.rs`).
//!
//! Because exactly one logical thread runs at a time, a check-then-park in an
//! instrumented primitive is atomic with respect to every other sim thread —
//! there are no lost wakeups *inside* the instrumentation, so any stall the
//! scheduler reports is a real bug in the code under test (and is reported
//! with a per-thread "blocked on" diagnostic instead of a hang).
//!
//! Timeouts use the **virtual clock**: when no thread is runnable the
//! scheduler jumps time forward to the earliest deadline, so timeout paths
//! run deterministically and in microseconds of wall clock.
//!
//! ## Partial-order reduction
//!
//! Every yield point tags the [`Resource`] its next step touches.  Under the
//! default [`Explorer::Por`] the scheduler *skips* commuting context
//! switches — when no other runnable thread's next step touches a
//! conflicting resource, switching is equivalent to not switching — and
//! restricts random picks to the threads actually racing for the resource.
//! The seed's randomness is thereby spent only where interleavings differ,
//! so a fixed seed budget reaches more distinct *schedule classes* (the
//! [`ScheduleCoverage::schedule_class`] hash over contended decisions).
//! [`Sim::set_explorer`] restores the pure random explorer for A/B
//! comparison; [`explore_collect`] returns an
//! [`ExploreSummary`] whose `line(suite)` emits the `sim-coverage:` lines CI
//! pins.
//!
//! Failing schedules shrink: [`minimize`] bisects a losing trace to a
//! minimal reproducing prefix (replayable via [`replay_with_seed`]), and
//! [`explore`] prints both the full and the minimized artifact on failure.
//!
//! ## Writing a sim test
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! txsql_sim::explore(0..50, |sim| {
//!     // `build` runs once per seed: create fresh shared state here.
//!     let counter = Arc::new(AtomicU64::new(0));
//!     for i in 0..3 {
//!         let counter = Arc::clone(&counter);
//!         sim.spawn(format!("worker-{i}"), move || {
//!             // Instrumented primitives (shim Mutex, OsEvent, channels, ...)
//!             // yield automatically; explicit yields add interleaving points.
//!             txsql_sim::current().unwrap().yield_now();
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         });
//!     }
//! });
//! ```
//!
//! On failure [`explore`] prints the losing seed plus the full and minimized
//! schedule traces; `run_with_seed(seed, build)`, [`replay`] or
//! [`replay_with_seed`] reproduce it exactly.
//!
//! Rules for sim runs:
//!
//! * every thread touching instrumented state must be a [`Sim::spawn`]ed
//!   thread (no background OS threads — e.g. construct `Database` with
//!   `start_sweeper: false`, and build an asynchronous replication hook
//!   inside a sim thread, where it spawns no applier),
//! * `build` must create fresh state per run (it is called once per seed),
//! * don't use real-time sleeps or OS synchronisation inside sim threads.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
mod minimize;
mod sched;

pub use clock::SimInstant;
pub use minimize::{minimize, Minimized};
pub use sched::{
    ci_seeds, current, explore, explore_cases, explore_collect, key_of, replay, replay_with_seed,
    run_seed, run_with_seed, ExploreSummary, Explorer, Resource, ResourceKind, RunReport,
    ScheduleCoverage, Sim, SimHandle,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn same_seed_gives_same_schedule() {
        let build = |sim: &mut Sim| {
            for i in 0..4 {
                sim.spawn(format!("t{i}"), move || {
                    for _ in 0..5 {
                        if let Some(h) = current() {
                            h.yield_now();
                        }
                    }
                });
            }
        };
        let a = run_with_seed(42, build);
        let b = run_with_seed(42, build);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.coverage, b.coverage);
        assert!(a.failure.is_none());
        let c = run_with_seed(43, build);
        assert_ne!(
            a.schedule, c.schedule,
            "different seeds should explore different schedules"
        );
    }

    #[test]
    fn replay_reproduces_a_recorded_schedule() {
        let build = |sim: &mut Sim| {
            for i in 0..3 {
                sim.spawn(format!("t{i}"), move || {
                    for _ in 0..4 {
                        if let Some(h) = current() {
                            h.yield_now();
                        }
                    }
                });
            }
        };
        let recorded = run_with_seed(7, build);
        let replayed = replay(&recorded.schedule, build);
        assert_eq!(recorded.schedule, replayed.schedule);
    }

    #[test]
    fn park_unpark_passes_the_baton() {
        let order = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&order);
        let report = run_with_seed(1, move |sim| {
            // A hand-rolled two-thread rendezvous on a shared key.
            let key = 0xD00D_usize;
            let o1 = Arc::clone(&o);
            let o2 = Arc::clone(&o);
            sim.spawn("waiter", move || {
                let h = current().unwrap();
                while o1.load(Ordering::Relaxed) == 0 {
                    h.park(key);
                }
                o1.store(2, Ordering::Relaxed);
            });
            sim.spawn("setter", move || {
                let h = current().unwrap();
                h.yield_now();
                o2.store(1, Ordering::Relaxed);
                h.unpark_all(key);
            });
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert_eq!(order.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn lost_wakeup_is_reported_as_deadlock_with_diagnostic() {
        let report = run_with_seed(3, |sim| {
            sim.spawn("stuck", || {
                current().unwrap().park(0xBEEF);
            });
        });
        let failure = report.failure.expect("must report the stall");
        assert!(failure.contains("deadlock"), "{failure}");
        assert!(failure.contains("stuck"), "{failure}");
    }

    #[test]
    fn timed_park_fires_on_the_virtual_clock() {
        let report = run_with_seed(5, |sim| {
            sim.spawn("timed", || {
                let h = current().unwrap();
                let timed_out = h.park_timeout(0xF00D, Duration::from_millis(250));
                assert!(timed_out);
                assert_eq!(h.now(), Duration::from_millis(250));
            });
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert_eq!(report.virtual_time, Duration::from_millis(250));
    }

    #[test]
    fn panics_become_failure_artifacts() {
        let report = run_with_seed(9, |sim| {
            sim.spawn("ok", || {});
            sim.spawn("boom", || panic!("invariant violated"));
        });
        let failure = report.failure.expect("panic must be captured");
        assert!(failure.contains("invariant violated"), "{failure}");
        assert!(failure.contains("boom"), "{failure}");
    }

    #[test]
    fn explore_covers_many_seeds() {
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        explore(0..10, move |sim| {
            let r = Arc::clone(&r);
            sim.spawn("t", move || {
                r.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(runs.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn ci_seeds_parses_specs() {
        // The parser, not the variable: CI runs this suite with it set.
        use crate::sched::parse_seeds;
        assert_eq!(parse_seeds(None, 3), vec![0, 1, 2]);
        assert_eq!(parse_seeds(Some("nonsense"), 3), vec![0, 1, 2]);
        assert_eq!(parse_seeds(Some(" 2 "), 3), vec![0, 1]);
        assert_eq!(parse_seeds(Some("5..8"), 3), vec![5, 6, 7]);
        assert_eq!(parse_seeds(Some("7, 13,42"), 3), vec![7, 13, 42]);
    }

    // Two threads hammering *disjoint* tagged resources: every switch
    // commutes, so the POR explorer should skip them all while the random
    // explorer records a full interleaving trace.
    fn disjoint_build(explorer: Explorer) -> impl Fn(&mut Sim) {
        move |sim: &mut Sim| {
            sim.set_explorer(explorer);
            for i in 0..2u64 {
                sim.spawn(format!("t{i}"), move || {
                    let h = current().unwrap();
                    // Distinct non-zero keys per thread — disjoint resources.
                    let res = Resource::new(ResourceKind::Lock, 0x1000 + i as usize);
                    for _ in 0..10 {
                        h.yield_at(res);
                    }
                });
            }
        }
    }

    #[test]
    fn por_skips_commuting_switches() {
        let por = run_with_seed(11, disjoint_build(Explorer::Por));
        assert!(por.failure.is_none(), "{:?}", por.failure);
        assert!(
            por.coverage.commuting_skips > 0,
            "disjoint-resource yields must be skipped: {:?}",
            por.coverage
        );

        let random = run_with_seed(11, disjoint_build(Explorer::Random));
        assert!(random.failure.is_none());
        assert_eq!(random.coverage.commuting_skips, 0);
        assert!(
            random.schedule.len() > por.schedule.len(),
            "random explorer records every commuting pick ({} vs {})",
            random.schedule.len(),
            por.schedule.len()
        );
    }

    #[test]
    fn contended_yields_are_still_explored_under_por() {
        // Both threads yield on the SAME resource: nothing commutes, so the
        // POR explorer must keep exploring orderings (distinct classes across
        // seeds) exactly like the random one.
        let build = |sim: &mut Sim| {
            sim.set_explorer(Explorer::Por);
            for i in 0..2u64 {
                sim.spawn(format!("t{i}"), move || {
                    let h = current().unwrap();
                    let res = Resource::new(ResourceKind::Lock, 0x2000);
                    for _ in 0..6 {
                        h.yield_at(res);
                    }
                });
            }
        };
        let mut classes = std::collections::HashSet::new();
        let mut contended = 0;
        for seed in 0..20 {
            let r = run_with_seed(seed, build);
            assert!(r.failure.is_none());
            classes.insert(r.coverage.schedule_class);
            contended += r.coverage.contended_decisions;
        }
        assert!(contended > 0, "same-resource yields must be contended");
        assert!(
            classes.len() > 1,
            "contended orderings must still vary across seeds"
        );
    }

    #[test]
    fn yields_by_kind_accounts_tagged_points() {
        let report = run_with_seed(2, |sim| {
            sim.spawn("chan", || {
                let h = current().unwrap();
                h.yield_at(Resource::new(ResourceKind::Channel, 0x42));
                h.yield_at(Resource::global(ResourceKind::Clock));
                h.yield_now();
            });
        });
        assert!(report.failure.is_none());
        assert_eq!(report.coverage.yields_of(ResourceKind::Channel), 1);
        assert_eq!(report.coverage.yields_of(ResourceKind::Clock), 1);
        assert_eq!(report.coverage.yields_of(ResourceKind::Other), 1);
    }

    /// A classic lost-update race: read, yield at the shared cell, write
    /// back.  Some schedules interleave the read-modify-write windows and the
    /// final sum comes up short.
    fn racy_build(sim: &mut Sim) {
        let cell = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..2u64 {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            sim.spawn(format!("t{i}"), move || {
                let h = current().unwrap();
                let res = Resource::new(ResourceKind::Lock, 0x3000);
                for _ in 0..3 {
                    h.yield_at(res);
                    let v = cell.load(Ordering::Relaxed);
                    h.yield_at(res);
                    cell.store(v + 1, Ordering::Relaxed);
                }
                if done.fetch_add(1, Ordering::Relaxed) == 1 {
                    assert_eq!(
                        cell.load(Ordering::Relaxed),
                        6,
                        "lost update under this schedule"
                    );
                }
            });
        }
    }

    #[test]
    fn minimize_shrinks_a_failing_trace() {
        // Find a failing seed (the race loses an update on many schedules).
        let failing = (0..100)
            .map(|seed| run_with_seed(seed, racy_build))
            .find(|r| r.failure.is_some())
            .expect("the lost-update race must fail on some seed");
        let min = minimize(&failing, racy_build);
        assert!(
            min.report.failure.is_some(),
            "minimized prefix must still fail"
        );
        assert!(
            min.prefix.len() < failing.schedule.len(),
            "shrinker must cut the trace ({} -> {})",
            failing.schedule.len(),
            min.prefix.len()
        );
        // The artifact is replayable: same prefix, same failure.
        let again = replay_with_seed(failing.seed, &min.prefix, racy_build);
        assert!(again.failure.is_some(), "artifact must reproduce");
    }

    #[test]
    fn explore_collect_reports_coverage() {
        let summary = explore_collect(0..10, |sim| {
            sim.set_explorer(Explorer::Por);
            for i in 0..2u64 {
                sim.spawn(format!("t{i}"), move || {
                    let h = current().unwrap();
                    for _ in 0..4 {
                        h.yield_at(Resource::new(ResourceKind::Event, 0x77));
                    }
                });
            }
        });
        assert_eq!(summary.runs, 10);
        assert!(summary.distinct_classes >= 2);
        assert!(summary.contended_decisions > 0);
        let line = summary.line("selftest");
        assert!(
            line.starts_with("sim-coverage: suite=selftest runs=10"),
            "{line}"
        );
        assert!(line.contains("event_yields="), "{line}");
    }
}
