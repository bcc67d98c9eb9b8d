//! `OsEvent`: the engine's one wait primitive.
//!
//! InnoDB parks waiting threads on `os_event_t` objects (`os_event_wait` /
//! `os_event_set`) behind a short spin, and the paper's pseudo-code
//! (Algorithms 1–3) waits the same way.  Every wait in the engine — lock
//! grants, hot-row grants, commit and rollback turns, the commit pipeline's
//! stage queue, admission queues, replica acks, the sweeper's interval — is a
//! wait on an [`OsEvent`]; nothing polls.
//!
//! ## The state word
//!
//! An event is one `AtomicU32`.  Its low 31 bits are the **wake payload**:
//! zero means unset, anything else means set, and the value is whatever the
//! waker passed to [`OsEvent::set_with`] ([`OsEvent::set`] passes 1).  The
//! waker's message therefore travels in the same store that wakes — a hot-row
//! grant carries the role the waiter was granted, a Bamboo completion carries
//! committed/aborted — and a waiter reads it back with [`OsEvent::payload`]
//! without taking any lock.  The top bit is `PARKED`: some waiter is, or is
//! about to be, asleep on the condvar.
//!
//! ## Why `set` skips the condvar
//!
//! `set` is one atomic swap.  Only when the swapped-out word had `PARKED` does
//! it take the park mutex and notify: a `std` condvar notify is a
//! `futex_wake` system call whether or not anyone sleeps, and on a hot-row
//! hand-off the waiter is usually still spinning (or has not started waiting
//! yet), so the common set costs no system call at all.  The waiter side
//! closes the race: it publishes `PARKED` with a compare-exchange *under the
//! park mutex* and only then sleeps, so a `set` either sees `PARKED` (and its
//! notify, taken under the same mutex, cannot fall between the waiter's check
//! and its sleep) or its payload makes the waiter's compare-exchange fail.
//!
//! ## Two kinds of wait, chosen by the call site
//!
//! * **Hand-off waits** ([`OsEvent::wait_handoff`]) are waits for another
//!   transaction that is *running right now* and will wake us within a
//!   statement's time: the hot-row grant (`group_lock::wait_for_grant`), the
//!   commit turn and the rollback turn (the group table's turn waiters)
//!   and the record-lock grant (`lock_table`; locks
//!   are released before the flush).  They re-check the word for
//!   `HANDOFF_SPIN` before parking, because a park + wake pair (two system
//!   calls and a reschedule: ≈ 10 µs of the waker's time and 17–40 µs until
//!   the waiter runs again) costs more than the whole transaction being
//!   waited for.  A thread whose hand-off spins have been paying — the
//!   transactions it waits for really are on another CPU — may spin up to
//!   `HANDOFF_SPIN_PAYING`, as long as a park would cost it; one whose spins
//!   keep ending in a park (more runnable threads than CPUs) stays at the
//!   short bound.  See [`OsEvent::wait_handoff`].
//! * **I/O waits** ([`OsEvent::wait`] / [`OsEvent::wait_for`]) are waits for
//!   something that takes a flush, a network round trip or a timer: the
//!   commit pipeline's stage queue and its held stage (a committer waiting,
//!   for at most one sync, for the next committer to arrive and lead both
//!   into one flush), the admission queue and the queue lock's
//!   ticket (both held across a whole commit), a Bamboo dependency's
//!   completion (posted after the writer's flush), an Aria batch, the
//!   replication ack and the sweeper's interval.  They park at once — a spin
//!   there only burns the CPU the flusher needs.
//!
//! Which kind a site is is a property of what it waits for, so it is fixed in
//! the code; there is no knob.
//!
//! ## Pooling
//!
//! Waiting is the *only* path that needs an event, and events are reusable,
//! so waiters draw them from a thread-local free list
//! ([`OsEvent::acquire_pooled`] / [`OsEvent::recycle`]) instead of
//! allocating per wait.  An event is only returned to the pool once its
//! `Arc` is unique — i.e. no granter still holds a clone that could `set()`
//! it later — so a recycled event can never receive a stale wake-up.
//!
//! ## Deterministic simulation
//!
//! Under `txsql-sim`, waits and `set` route through the cooperative
//! scheduler: a waiter parks in the sim on the event's key (on the virtual
//! clock for timed waits) instead of the OS condvar, and never spins — each
//! wait is one resource-tagged scheduling point, which makes lost-wakeup and
//! stale-wake bugs reproducible from a seed.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-thread free list size: enough for the deepest realistic wait nesting,
/// small enough to be cache-friendly.
const POOL_CAP: usize = 32;

/// How long every hand-off wait re-checks the state word before it parks.
/// Measured on the 2-CPU reference box (`hot_update_mem`): with 2 clients
/// 92 % of hand-off waits end within 4 µs and 94 % within 5 µs, and
/// throughput reads 88k / 108k / 132k tps at 3 / 4 / 5 µs (45k with no spin);
/// 16 oversubscribed clients, whose spins succeed 3 times in 1 000, lose
/// ≈ 10 % from 2 to 5 µs, 30 % at 8 µs and as much again at 20 µs.
const HANDOFF_SPIN: Duration = Duration::from_micros(5);

/// How long a hand-off wait spins while the thread's spins are paying (see
/// `SPIN_CREDIT`): what a park costs.  `HANDOFF_SPIN` alone sits on the knee
/// of the 2-client wait distribution: a transaction that runs 2 µs late
/// parks its waiter, the waker spends ≈ 10 µs in `futex_wake`, then waits
/// for the thread it just woke 17–40 µs before that thread runs, and parks
/// in turn.  10 % of the waits park in such chains, `hot_update_mem` reads
/// 108k tps and a `p99_ms` of 0.10, and both move with how many chains a run
/// catches; with this bound 0.4 % park and it reads 132k and 0.056.
const HANDOFF_SPIN_PAYING: Duration = Duration::from_micros(20);

/// `SPIN_CREDIT`'s ceiling, and (halved) the credit the long spin needs.
const SPIN_CREDIT_MAX: u32 = 8;

/// State-word bit: a waiter is parked (or committed to parking) on the
/// condvar, so `set` must notify.
const PARKED: u32 = 1 << 31;

thread_local! {
    static EVENT_POOL: RefCell<Vec<Arc<OsEvent>>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread's hand-off spins pay: +1 for a wait that ended in
    /// its spin, halved by one that had to park.  One late transaction leaves
    /// the long spin in place (the wait after a park is the one that most
    /// needs it); spins that keep failing, as they do when the threads waited
    /// for are not on a CPU, take it away within two waits.
    static SPIN_CREDIT: Cell<u32> = const { Cell::new(SPIN_CREDIT_MAX) };
}

/// The calling thread's current hand-off spin bound.
fn handoff_spin() -> Duration {
    if SPIN_CREDIT.get() >= SPIN_CREDIT_MAX / 2 {
        HANDOFF_SPIN_PAYING
    } else {
        HANDOFF_SPIN
    }
}

/// A resettable signalling event that carries a small wake payload.
#[derive(Debug, Default)]
pub struct OsEvent {
    /// Payload (low 31 bits, zero = unset) and the `PARKED` bit.
    state: AtomicU32,
    /// Number of waiters inside [`OsEvent::park`]; the mutex orders a
    /// waiter's `PARKED` publication and sleep against `set`'s notify.
    parked: Mutex<u32>,
    condvar: Condvar,
    /// Condvar notifies issued by `set` (tests pin that an unparked set
    /// issues none).
    #[cfg(test)]
    notifies: AtomicU32,
}

/// Outcome of a timed wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The event was set before the deadline.
    Signalled,
    /// The deadline passed without a signal.
    TimedOut,
}

impl OsEvent {
    /// Creates a new, unsignalled event behind an `Arc` (events are shared
    /// between the waiting transaction and whoever wakes it).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Takes an unsignalled event from the current thread's free list, or
    /// allocates one if the list is empty.
    pub fn acquire_pooled() -> Arc<Self> {
        EVENT_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default()
    }

    /// Returns an event to the current thread's free list if no one else
    /// still holds a clone of it (a late `set()` through a leftover clone
    /// must not wake the event's next user); otherwise the `Arc` is simply
    /// dropped.
    pub fn recycle(event: Arc<Self>) {
        if Arc::strong_count(&event) == 1 {
            EVENT_POOL.with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < POOL_CAP {
                    event.reset();
                    pool.push(event);
                }
            });
        }
    }

    /// Number of events currently in the calling thread's free list (test
    /// observability for the recycle paths).
    pub fn pooled_count() -> usize {
        EVENT_POOL.with(|pool| pool.borrow().len())
    }

    /// Sets the event with payload 1, waking all current and future waiters
    /// (until reset).
    pub fn set(&self) {
        self.set_with(1);
    }

    /// Sets the event with `payload` (1 ..= `i32::MAX`), waking all current
    /// and future waiters (until reset); they read it with
    /// [`OsEvent::payload`].
    ///
    /// Debug builds assert the **wake-outside-lock** invariant here: a set
    /// while the calling thread holds a lockmgr shard/state guard is a
    /// latent convoy (the woken thread immediately blocks on that guard) —
    /// every release/grant/handover path collects its events under the guard
    /// and fires them after dropping it (see the private `wake_check`
    /// module; the crate docs' fast-path section describes the invariant).
    pub fn set_with(&self, payload: u32) {
        crate::wake_check::assert_wake_outside_guard();
        debug_assert!(payload != 0 && payload & PARKED == 0, "payload {payload}");
        // The `Release` half publishes what the waker did before waking; the
        // `Acquire` half pairs with a parking waiter's compare-exchange.
        if self.state.swap(payload, Ordering::AcqRel) & PARKED != 0 {
            // Taking the mutex orders this notify after the waiter's sleep.
            let parked = self.lock_parked();
            if *parked > 0 {
                #[cfg(test)]
                self.notifies.fetch_add(1, Ordering::Relaxed);
                self.condvar.notify_all();
            }
        }
        // Under deterministic simulation, waiters are parked in the scheduler
        // on this event's key rather than on the condvar.  The set is also a
        // *preemption point*: the woken waiter may run before the setter
        // proceeds.  That is legal precisely because of the wake-outside-lock
        // invariant asserted above — the setter holds no shard/state guard
        // here, so the waiter cannot convoy on it.
        if let Some(handle) = txsql_sim::current() {
            let key = txsql_sim::key_of(self);
            handle.unpark_all(key);
            handle.yield_at(txsql_sim::Resource::new(
                txsql_sim::ResourceKind::Event,
                key,
            ));
        }
    }

    /// Clears the event so the next wait blocks again.
    pub fn reset(&self) {
        self.state.fetch_and(PARKED, Ordering::AcqRel);
    }

    /// The payload the event was set with, or `None` while it is unset.
    /// `Acquire`: pairs with the `Release` in [`OsEvent::set_with`].
    #[inline]
    pub fn payload(&self) -> Option<u32> {
        match self.state.load(Ordering::Acquire) & !PARKED {
            0 => None,
            payload => Some(payload),
        }
    }

    /// Returns whether the event is currently set without blocking.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.payload().is_some()
    }

    /// I/O wait: parks at once until the event is set.
    pub fn wait(&self) {
        if self.sim_wait(None).is_none() {
            self.park(None);
        }
    }

    /// I/O wait: parks at once until the event is set or `timeout` elapses.
    pub fn wait_for(&self, timeout: Duration) -> WaitOutcome {
        self.sim_wait(Some(timeout))
            .unwrap_or_else(|| self.park(Some(Instant::now() + timeout)))
    }

    /// Hand-off wait: re-checks the state word for the calling thread's spin
    /// bound — `HANDOFF_SPIN`, or `HANDOFF_SPIN_PAYING` while its spins have
    /// been ending without a park — then parks until the event is set or
    /// `timeout` elapses.  For waits on a transaction that is running now
    /// (see the module docs).
    pub fn wait_handoff(&self, timeout: Duration) -> WaitOutcome {
        if let Some(outcome) = self.sim_wait(Some(timeout)) {
            return outcome;
        }
        let start = Instant::now();
        let spin_until = start + handoff_spin().min(timeout);
        loop {
            if self.is_set() {
                SPIN_CREDIT.set((SPIN_CREDIT.get() + 1).min(SPIN_CREDIT_MAX));
                return WaitOutcome::Signalled;
            }
            if Instant::now() >= spin_until {
                SPIN_CREDIT.set(SPIN_CREDIT.get() / 2);
                return self.park(Some(start + timeout));
            }
            std::hint::spin_loop();
        }
    }

    fn lock_parked(&self) -> MutexGuard<'_, u32> {
        // The count is valid at every step, so a poisoned guard is usable.
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleeps on the condvar until the event is set or `deadline` passes.
    fn park(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut parked = self.lock_parked();
        *parked += 1;
        let outcome = loop {
            // Publish `PARKED` unless the event is set; a racing `set` either
            // fails this exchange with its payload or sees the bit.
            if let Err(state) =
                self.state
                    .compare_exchange(0, PARKED, Ordering::AcqRel, Ordering::Acquire)
            {
                if state != PARKED {
                    break WaitOutcome::Signalled;
                }
            }
            parked = match deadline {
                None => self
                    .condvar
                    .wait(parked)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break WaitOutcome::TimedOut;
                    }
                    self.condvar
                        .wait_timeout(parked, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        };
        *parked -= 1;
        if *parked == 0 {
            // Nobody is left to notify (a no-op after a set, whose swap
            // already cleared the bit).
            self.state.fetch_and(!PARKED, Ordering::AcqRel);
        }
        outcome
    }

    /// The wait under deterministic simulation (`None` outside it): one
    /// tagged scheduling point, then a park in the scheduler — on the virtual
    /// clock when timed, so the deadline fires deterministically when nothing
    /// else can run.  Cooperative scheduling makes the check-then-park atomic
    /// with respect to other sim threads, so a `set` between the two is
    /// impossible.
    fn sim_wait(&self, timeout: Option<Duration>) -> Option<WaitOutcome> {
        let handle = txsql_sim::current()?;
        let key = txsql_sim::key_of(self);
        let kind = txsql_sim::ResourceKind::Event;
        // The deadline first: the yield may let another thread move the clock.
        let deadline = timeout.map(|timeout| handle.now().saturating_add(timeout));
        handle.yield_at(txsql_sim::Resource::new(kind, key));
        loop {
            if self.is_set() {
                return Some(WaitOutcome::Signalled);
            }
            match deadline {
                None => handle.park_at(key, kind),
                Some(deadline) => {
                    let now = handle.now();
                    if now >= deadline {
                        return Some(WaitOutcome::TimedOut);
                    }
                    handle.park_timeout_at(key, kind, deadline - now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn set_before_wait_does_not_block() {
        let ev = OsEvent::new();
        ev.set();
        assert!(ev.is_set());
        ev.wait();
        assert_eq!(
            ev.wait_for(Duration::from_millis(1)),
            WaitOutcome::Signalled
        );
        assert_eq!(
            ev.wait_handoff(Duration::from_millis(1)),
            WaitOutcome::Signalled
        );
    }

    #[test]
    fn payload_travels_with_the_set() {
        let ev = OsEvent::new();
        assert_eq!(ev.payload(), None);
        ev.set_with(7);
        assert_eq!(ev.payload(), Some(7));
        ev.reset();
        assert_eq!(ev.payload(), None);
        ev.set();
        assert_eq!(ev.payload(), Some(1));
    }

    #[test]
    fn wait_blocks_until_set_from_another_thread() {
        let ev = OsEvent::new();
        let ev2 = Arc::clone(&ev);
        let waiter = thread::spawn(move || {
            ev2.wait();
            true
        });
        thread::sleep(Duration::from_millis(20));
        ev.set();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn timed_waits_time_out_when_never_set() {
        let ev = OsEvent::new();
        let start = Instant::now();
        assert_eq!(
            ev.wait_for(Duration::from_millis(30)),
            WaitOutcome::TimedOut
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        let start = Instant::now();
        assert_eq!(
            ev.wait_handoff(Duration::from_millis(30)),
            WaitOutcome::TimedOut
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        // The timed-out waiters left no `PARKED` mark behind.
        ev.set();
        assert_eq!(ev.notifies.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reset_makes_subsequent_waits_block_again() {
        let ev = OsEvent::new();
        ev.set();
        ev.reset();
        assert!(!ev.is_set());
        assert_eq!(
            ev.wait_for(Duration::from_millis(10)),
            WaitOutcome::TimedOut
        );
    }

    #[test]
    fn pooled_events_are_reused_when_unique() {
        let ev = OsEvent::acquire_pooled();
        ev.set();
        let ptr = Arc::as_ptr(&ev);
        OsEvent::recycle(ev);
        let again = OsEvent::acquire_pooled();
        assert_eq!(Arc::as_ptr(&again), ptr, "unique event should be pooled");
        assert!(!again.is_set(), "recycled event must come back unsignalled");
        OsEvent::recycle(again);
    }

    #[test]
    fn shared_events_are_not_pooled() {
        let ev = OsEvent::acquire_pooled();
        let ptr = Arc::as_ptr(&ev);
        let clone = Arc::clone(&ev);
        OsEvent::recycle(ev);
        let next = OsEvent::acquire_pooled();
        assert_ne!(Arc::as_ptr(&next), ptr, "shared event must not be recycled");
        drop(clone);
        OsEvent::recycle(next);
    }

    #[test]
    fn many_waiters_are_all_woken() {
        let ev = OsEvent::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ev = Arc::clone(&ev);
                thread::spawn(move || {
                    ev.wait();
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(10));
        ev.set();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn set_with_nobody_parked_never_touches_the_condvar() {
        let ev = OsEvent::new();
        for _ in 0..1_000 {
            ev.set();
            // A waiter that finds the event set returns from its spin (or its
            // first look) without parking.
            assert_eq!(
                ev.wait_handoff(Duration::from_secs(1)),
                WaitOutcome::Signalled
            );
            ev.wait();
            ev.reset();
        }
        assert_eq!(ev.notifies.load(Ordering::Relaxed), 0);
        // A parked waiter is notified exactly once.
        let waiter = {
            let ev = Arc::clone(&ev);
            thread::spawn(move || ev.wait())
        };
        while *ev.lock_parked() == 0 {
            thread::yield_now();
        }
        ev.set();
        waiter.join().unwrap();
        assert_eq!(ev.notifies.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failing_spins_lose_the_long_bound_and_paying_ones_earn_it_back() {
        // The credit is per thread: start from a fresh one.
        thread::spawn(|| {
            let ev = OsEvent::new();
            let park = |ev: &OsEvent| ev.wait_handoff(Duration::from_micros(50));
            assert_eq!(handoff_spin(), HANDOFF_SPIN_PAYING);
            // One wait that parks keeps the long spin, a second in a row
            // takes it away.
            assert_eq!(park(&ev), WaitOutcome::TimedOut);
            assert_eq!(handoff_spin(), HANDOFF_SPIN_PAYING);
            assert_eq!(park(&ev), WaitOutcome::TimedOut);
            assert_eq!(handoff_spin(), HANDOFF_SPIN);
            // Two waits that end in their spin earn it back.
            ev.set();
            assert_eq!(park(&ev), WaitOutcome::Signalled);
            assert_eq!(handoff_spin(), HANDOFF_SPIN);
            assert_eq!(park(&ev), WaitOutcome::Signalled);
            assert_eq!(handoff_spin(), HANDOFF_SPIN_PAYING);
            // Spins that never pay stay at the short bound.
            ev.reset();
            for _ in 0..10 {
                assert_eq!(park(&ev), WaitOutcome::TimedOut);
            }
            assert_eq!(handoff_spin(), HANDOFF_SPIN);
        })
        .join()
        .unwrap();
    }

    /// N setter/waiter pairs, each racing `set` against the waiter's
    /// spin → park transition (and, with `timeout`, against its deadline) for
    /// `rounds` rounds.  A lost wake-up hangs an untimed waiter and shows as
    /// a set-but-timed-out round in a timed one.
    fn race_pairs(pairs: usize, rounds: usize, timeout: Option<Duration>) {
        let handles: Vec<_> = (0..pairs)
            .flat_map(|pair| {
                let ev = OsEvent::new();
                let ack = OsEvent::new();
                let start = Arc::new(Barrier::new(2));
                let setter = {
                    let (ev, ack, start) = (Arc::clone(&ev), Arc::clone(&ack), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        for round in 0..rounds {
                            // Vary the set's phase across the waiter's spin
                            // window and past it (into the park).
                            for _ in 0..(round * 7 + pair * 13) % 400 {
                                std::hint::spin_loop();
                            }
                            ev.set_with(round as u32 % 1_000 + 1);
                            ack.wait();
                            ack.reset();
                        }
                    })
                };
                let waiter = thread::spawn(move || {
                    start.wait();
                    for round in 0..rounds {
                        match timeout {
                            None if round % 2 == 0 => ev.wait(),
                            None => {
                                let outcome = ev.wait_handoff(Duration::from_secs(30));
                                assert_eq!(outcome, WaitOutcome::Signalled, "lost wake-up");
                            }
                            // Timing out is legal; every round must still
                            // end signalled, with the parked count intact.
                            Some(timeout) => {
                                while ev.wait_handoff(timeout) == WaitOutcome::TimedOut {}
                            }
                        }
                        assert_eq!(ev.payload(), Some(round as u32 % 1_000 + 1));
                        ev.reset();
                        ack.set();
                    }
                });
                [setter, waiter]
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn no_wakeup_is_lost_across_the_spin_to_park_transition() {
        race_pairs(4, 100_000, None);
    }

    #[test]
    fn no_wakeup_is_lost_against_the_timeout() {
        // Timeouts of the order of the spin bound, so rounds end both ways.
        race_pairs(4, 100_000, Some(Duration::from_micros(3)));
    }
}
