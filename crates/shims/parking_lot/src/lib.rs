//! Offline shim for the `parking_lot` crate (see `crates/shims/README.md`).
//!
//! Implements the subset of the `parking_lot` 0.12 API this workspace uses —
//! `Mutex`, `RwLock` and `Condvar` with non-poisoning guards — on top of
//! `std::sync`.  Poisoning is translated into "take the lock anyway", which
//! matches `parking_lot` semantics (a panicking holder does not poison).
//!
//! ## Deterministic-simulation instrumentation
//!
//! Because every crate in the workspace synchronises through this shim, it is
//! also the instrumentation point for the `txsql-sim` cooperative scheduler:
//! when the calling thread carries a sim handle (`txsql_sim::current()`),
//! blocking acquisitions become *yield points* and contended acquisitions
//! park the logical thread **in the scheduler** instead of the OS.  Guard
//! drops wake sim threads parked on the lock.  Threads without a handle (the
//! normal case — the check is one relaxed atomic load) use `std::sync`
//! exactly as before, so production behaviour is unchanged and there is no
//! `#[cfg]` split between tested and shipped code.
//!
//! One rule follows from this design: within a sim run, instrumented locks
//! must only be shared among sim-spawned threads — a non-sim thread's guard
//! drop does not wake sim waiters.
//!
//! ## Acquisition counter
//!
//! Debug builds (`debug_assertions`, which `cargo test` has and a release
//! build has not) also count every lock acquisition in a thread-local:
//! [`thread_acquisitions`] is what the engine's acquisition-budget test reads
//! to pin how many locks a statement takes.  Nothing of it exists on the
//! release path.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use txsql_sim::{Resource, ResourceKind};

#[cfg(debug_assertions)]
thread_local! {
    static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `Mutex` / `RwLock` acquisitions (blocking, and successful `try_*`) this
/// thread has made so far.  With one thread driving an engine the difference
/// across a transaction repeats exactly.  Debug builds only.
#[cfg(debug_assertions)]
pub fn thread_acquisitions() -> u64 {
    ACQUISITIONS.with(std::cell::Cell::get)
}

#[inline(always)]
fn count_acquisition() {
    #[cfg(debug_assertions)]
    ACQUISITIONS.with(|n| n.set(n.get() + 1));
}

/// A mutual-exclusion primitive (non-poisoning facade over `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Non-blocking acquisition of the underlying std mutex (poison-stripping).
    #[inline]
    fn raw_try_lock(&self) -> Option<std::sync::MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(poison)) => Some(poison.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires the mutex, blocking until it is available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count_acquisition();
        if let Some(handle) = txsql_sim::current() {
            let key = txsql_sim::key_of(self);
            // Preemption point, tagged with the lock: only threads whose next
            // step may touch this lock are switch candidates under POR.
            handle.yield_at(Resource::new(ResourceKind::Lock, key));
            loop {
                if let Some(guard) = self.raw_try_lock() {
                    return MutexGuard {
                        lock: self,
                        inner: Some(guard),
                        sim_key: Some(key),
                    };
                }
                handle.park_at(key, ResourceKind::Lock);
            }
        }
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        MutexGuard {
            lock: self,
            inner: Some(guard),
            sim_key: None,
        }
    }

    /// Attempts to acquire the mutex without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let sim_key = txsql_sim::current().map(|_| txsql_sim::key_of(self));
        self.raw_try_lock()
            .inspect(|_| count_acquisition())
            .map(|g| MutexGuard {
                lock: self,
                inner: Some(g),
                sim_key,
            })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    /// The owning shim mutex — needed so `Condvar` can re-acquire under sim.
    lock: &'a Mutex<T>,
    // `Option` so Condvar::wait can move the std guard out and back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Sim resource key when acquired by a sim thread; guard drop then wakes
    /// sim threads parked on the lock.
    sim_key: Option<usize>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the lock first, then wake sim waiters.
        self.inner.take();
        if let Some(key) = self.sim_key {
            if let Some(handle) = txsql_sim::current() {
                handle.unpark_all(key);
            }
        }
    }
}

/// A reader-writer lock (non-poisoning facade over `std::sync::RwLock`).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    fn raw_try_read(&self) -> Option<std::sync::RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    #[inline]
    fn raw_try_write(&self) -> Option<std::sync::RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires shared read access.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        count_acquisition();
        if let Some(handle) = txsql_sim::current() {
            let key = txsql_sim::key_of(self);
            handle.yield_at(Resource::new(ResourceKind::Lock, key));
            loop {
                if let Some(guard) = self.raw_try_read() {
                    return RwLockReadGuard {
                        inner: Some(guard),
                        sim_key: Some(key),
                    };
                }
                handle.park_at(key, ResourceKind::Lock);
            }
        }
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        RwLockReadGuard {
            inner: Some(guard),
            sim_key: None,
        }
    }

    /// Acquires exclusive write access.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        count_acquisition();
        if let Some(handle) = txsql_sim::current() {
            let key = txsql_sim::key_of(self);
            handle.yield_at(Resource::new(ResourceKind::Lock, key));
            loop {
                if let Some(guard) = self.raw_try_write() {
                    return RwLockWriteGuard {
                        inner: Some(guard),
                        sim_key: Some(key),
                    };
                }
                handle.park_at(key, ResourceKind::Lock);
            }
        }
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        RwLockWriteGuard {
            inner: Some(guard),
            sim_key: None,
        }
    }

    /// Attempts shared read access without blocking.
    #[inline]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let sim_key = txsql_sim::current().map(|_| txsql_sim::key_of(self));
        self.raw_try_read()
            .inspect(|_| count_acquisition())
            .map(|g| RwLockReadGuard {
                inner: Some(g),
                sim_key,
            })
    }

    /// Attempts exclusive write access without blocking.
    #[inline]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let sim_key = txsql_sim::current().map(|_| txsql_sim::key_of(self));
        self.raw_try_write()
            .inspect(|_| count_acquisition())
            .map(|g| RwLockWriteGuard {
                inner: Some(g),
                sim_key,
            })
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            None => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    sim_key: Option<usize>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some(key) = self.sim_key {
            if let Some(handle) = txsql_sim::current() {
                handle.unpark_all(key);
            }
        }
    }
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    sim_key: Option<usize>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some(key) = self.sim_key {
            if let Some(handle) = txsql_sim::current() {
                handle.unpark_all(key);
            }
        }
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed.
    #[inline]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable compatible with [`Mutex`] / [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    // std::sync::Condvar spurious wakeups are passed through, as in parking_lot.
    _used: AtomicBool,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            _used: AtomicBool::new(false),
        }
    }

    /// Sim path shared by `wait` and `wait_for`: release the mutex, park on
    /// the condvar key, re-acquire.  Returns whether the park timed out.
    fn sim_wait<T: ?Sized>(
        &self,
        handle: &txsql_sim::SimHandle,
        guard: &mut MutexGuard<'_, T>,
        timeout: Option<Duration>,
    ) -> bool {
        let mutex_key = txsql_sim::key_of(guard.lock);
        let cv_key = txsql_sim::key_of(self);
        // Release the lock (waking sim threads parked on it), then park on
        // the condvar.  Cooperative scheduling makes release+park atomic with
        // respect to other sim threads, so notifies cannot be lost.
        guard.inner.take();
        handle.unpark_all(mutex_key);
        let timed_out = match timeout {
            Some(t) => handle.park_timeout_at(cv_key, ResourceKind::Condvar, t),
            None => {
                handle.park_at(cv_key, ResourceKind::Condvar);
                false
            }
        };
        // Re-acquire the mutex before returning, as a condvar must.
        loop {
            if let Some(g) = guard.lock.raw_try_lock() {
                guard.inner = Some(g);
                return timed_out;
            }
            handle.park_at(mutex_key, ResourceKind::Lock);
        }
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self._used.store(true, Ordering::Relaxed);
        if let Some(handle) = txsql_sim::current() {
            self.sim_wait(&handle, guard, None);
            return;
        }
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        guard.inner = Some(std_guard);
    }

    /// Blocks until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if let Some(handle) = txsql_sim::current() {
            let timed_out = self.sim_wait(&handle, guard, Some(timeout));
            return WaitTimeoutResult { timed_out };
        }
        let std_guard = guard.inner.take().expect("guard present");
        let (std_guard, result) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(poison) => {
                let (g, r) = poison.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(std_guard);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        if let Some(handle) = txsql_sim::current() {
            // Sim waiters re-check their condition on wake, so waking all is
            // a sound (spurious-wakeup-compatible) notify_one.
            handle.unpark_all(txsql_sim::key_of(self));
        }
        true
    }

    /// Wakes all waiters.
    #[inline]
    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        if let Some(handle) = txsql_sim::current() {
            handle.unpark_all(txsql_sim::key_of(self));
        }
        0
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_guards_data() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_allows_parallel_reads() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
        drop((r1, r2));
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut guard = m.lock();
        let res = cv.wait_for(&mut guard, Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        drop(done);
        h.join().unwrap();
    }

    #[test]
    fn sim_threads_interleave_inside_critical_sections() {
        // Mutual exclusion must hold across every explored schedule, and the
        // shim's yield points must let the scheduler preempt at lock
        // boundaries.
        txsql_sim::explore(0..20, |sim| {
            let m = Arc::new(Mutex::new((0u64, false)));
            for i in 0..3 {
                let m = Arc::clone(&m);
                sim.spawn(format!("locker-{i}"), move || {
                    for _ in 0..3 {
                        let mut g = m.lock();
                        assert!(!g.1, "two threads inside one critical section");
                        g.1 = true;
                        txsql_sim::current().unwrap().yield_now();
                        g.1 = false;
                        g.0 += 1;
                    }
                });
            }
        });
    }

    #[test]
    fn sim_condvar_wakes_parked_thread() {
        txsql_sim::explore(0..20, |sim| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p1 = Arc::clone(&pair);
            sim.spawn("waiter", move || {
                let (m, cv) = &*p1;
                let mut ready = m.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
            });
            let p2 = Arc::clone(&pair);
            sim.spawn("setter", move || {
                let (m, cv) = &*p2;
                *m.lock() = true;
                cv.notify_all();
            });
        });
    }

    #[test]
    fn sim_rwlock_writer_waits_for_readers() {
        txsql_sim::explore(0..20, |sim| {
            let l = Arc::new(RwLock::new(0u64));
            for i in 0..2 {
                let l = Arc::clone(&l);
                sim.spawn(format!("reader-{i}"), move || {
                    let v = *l.read();
                    assert!(v == 0 || v == 7);
                });
            }
            let l2 = Arc::clone(&l);
            sim.spawn("writer", move || {
                *l2.write() = 7;
            });
        });
    }
}
