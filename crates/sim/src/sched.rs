//! The cooperative scheduler: N logical threads, exactly one running at a
//! time, the next runnable one picked by a seeded RNG (exploration) or a
//! recorded schedule (replay).
//!
//! Every instrumented synchronisation operation (shim `Mutex`/`RwLock`
//! acquisition, `OsEvent::wait`/`set`, channel `send`/`recv`, `simulate_delay`)
//! funnels into [`Scheduler::reschedule`], which parks the calling OS thread
//! on a condvar until the scheduler hands the baton back.  Blocked threads
//! are parked *in the sim* (state [`RunState::Blocked`]), never in the OS, so
//! the scheduler always knows the full wait graph: if nothing is runnable it
//! either advances the virtual clock to the earliest deadline (timeouts fire
//! deterministically and instantly) or reports a genuine lost-wakeup /
//! deadlock with a per-thread diagnostic.
//!
//! ## Partial-order reduction
//!
//! Since sim explorer v2, every yield point *tags* the [`Resource`] its next
//! step touches (a lock address, a channel, the virtual clock, a fault
//! point).  Under the default [`Explorer::Por`] the scheduler skips
//! *commuting* context switches: if no other runnable thread's next step
//! touches a conflicting resource, switching away and back produces the same
//! state as not switching, so the caller keeps the baton and the schedule
//! budget is spent where interleavings actually differ.  Two refinements
//! keep the reduction sound in practice: skip chains are bounded
//! ([`SKIP_CHAIN_MAX`]) so peers still get turns to advance to their
//! conflicting accesses, and a resource ever touched by two threads is
//! promoted to *shared* — accesses to it are always real recorded decisions,
//! even when no peer is pending on it at that instant (the DPOR insight:
//! dependence is a property of the resource's access history, not of the
//! momentary ready set).
//!
//! The per-run [`ScheduleCoverage`] folds every *dependent* access — an
//! access to a shared resource, or one conflicting with another live
//! thread's pending access — into a schedule-class hash.  Commuting accesses
//! never fold, so distinct classes per seed budget measure realised orders
//! of dependent accesses and are directly comparable between the random and
//! POR explorers.

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Sentinel panic payload used to unwind secondary threads once a run has
/// already failed; never reported as a failure itself.
pub(crate) struct SimTeardown;

/// Longest run of consecutive commuting skips before the POR explorer makes
/// a real pick anyway.  Pending tags only describe each thread's *next*
/// step, so an unbounded skip chain would let one thread barrel through a
/// resource-disjoint block and straight past the conflicting accesses behind
/// it, serialising the run; bounding the chain rotates threads in chunks —
/// disjoint blocks stay compressed (the reduction) while peers still get
/// turns to advance to their conflicting accesses.
const SKIP_CHAIN_MAX: u64 = 8;

/// Scheduling decisions one run may make before it is failed as a livelock.
const MAX_STEPS: u64 = 500_000;

/// What kind of shared resource a yield point touches.  The kind is
/// informational (coverage accounting, class hashing); conflict detection is
/// by key, with key 0 meaning "global — conflicts with everything".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A shim `Mutex`/`RwLock` (lock shard, record queue, engine state).
    Lock = 0,
    /// A shim `Condvar`.
    Condvar = 1,
    /// An `OsEvent` (lock-grant wakeup).
    Event = 2,
    /// A crossbeam-shim channel (Aria hand-off, replication ship queue).
    Channel = 3,
    /// The virtual clock (`simulate_delay` advances).
    Clock = 4,
    /// A fault-injector crash point.
    Fault = 5,
    /// Untagged / unknown — conservatively conflicts with everything.
    Other = 6,
}

impl ResourceKind {
    /// Number of kinds (length of [`ScheduleCoverage::yields_by_kind`]).
    pub const COUNT: usize = 7;

    /// All kinds, indexable in `yields_by_kind` order.
    pub const ALL: [ResourceKind; Self::COUNT] = [
        ResourceKind::Lock,
        ResourceKind::Condvar,
        ResourceKind::Event,
        ResourceKind::Channel,
        ResourceKind::Clock,
        ResourceKind::Fault,
        ResourceKind::Other,
    ];

    /// Stable lower-case name (used in coverage report lines).
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Lock => "lock",
            ResourceKind::Condvar => "condvar",
            ResourceKind::Event => "event",
            ResourceKind::Channel => "channel",
            ResourceKind::Clock => "clock",
            ResourceKind::Fault => "fault",
            ResourceKind::Other => "other",
        }
    }
}

/// The resource a yield point touches: a kind plus a key (usually the shared
/// object's address via [`key_of`]).  Key 0 is the *global* resource — it
/// conflicts with every other resource, so clock advances and fault points
/// are never skipped by the POR filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resource {
    /// What category of primitive this is.
    pub kind: ResourceKind,
    /// Conflict key — address of the primitive, or 0 for global.
    pub key: usize,
}

impl Resource {
    /// A resource identified by a specific key (see [`key_of`]).
    pub fn new(kind: ResourceKind, key: usize) -> Self {
        Self { kind, key }
    }

    /// The global resource of a kind: conflicts with everything, so yields
    /// tagged with it are always exploration candidates.
    pub fn global(kind: ResourceKind) -> Self {
        Self { kind, key: 0 }
    }
}

/// Two next-steps conflict when they may touch the same state: either key is
/// global (0), the keys match, or one side is unknown (`None`).
fn conflicts(a: Resource, b: Option<Resource>) -> bool {
    match b {
        None => true,
        Some(b) => a.key == 0 || b.key == 0 || a.key == b.key,
    }
}

/// Which schedule explorer drives the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Explorer {
    /// Pure random picks at every yield point (the pre-v2 behaviour).
    Random,
    /// Partial-order reduction: commuting switches are skipped, random picks
    /// are restricted to threads whose next step conflicts (default).
    #[default]
    Por,
}

/// How one logical thread is currently doing.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunState {
    /// Can be picked by the scheduler.
    Ready,
    /// Parked on a resource key (a lock, event or condvar address), with an
    /// optional virtual-clock deadline.
    Blocked {
        key: usize,
        deadline: Option<Duration>,
    },
    /// Ran to completion (or unwound).
    Finished,
}

#[derive(Debug)]
struct ThreadSlot {
    name: String,
    state: RunState,
    /// Set when the thread was made ready by the virtual clock reaching its
    /// deadline rather than by an `unpark_all`.
    woke_by_timeout: bool,
    /// The resource this thread's *next* step touches, declared at its most
    /// recent yield/park.  `None` before the first yield (conservatively
    /// conflicts with everything).
    pending: Option<Resource>,
}

/// Per-run coverage accounting: which yield kinds fired, how many decisions
/// were contended, how many commuting switches the POR filter skipped, and a
/// hash identifying the *schedule class* — the sequence of contended picks
/// with resources numbered by first appearance, so the value is stable across
/// runs even though resource keys are addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleCoverage {
    /// FNV-1a hash over (picked thread, resource kind, dense resource index)
    /// of every *dependent access* — a pick whose thread's declared next step
    /// touches a resource some other thread also uses, or conflicts with
    /// another live thread's declared next step.  Two runs with the same
    /// class hash ordered all dependent resource accesses identically; runs
    /// that differ only in commuting switches share a class.
    pub schedule_class: u64,
    /// Dependent accesses granted (the folds behind `schedule_class`).
    pub contended_decisions: u64,
    /// Context switches the POR filter skipped as commuting (0 under
    /// [`Explorer::Random`]).
    pub commuting_skips: u64,
    /// Yield-point count per [`ResourceKind`] (indexed by `kind as usize`).
    pub yields_by_kind: [u64; ResourceKind::COUNT],
}

impl ScheduleCoverage {
    fn new() -> Self {
        Self {
            schedule_class: 0xcbf2_9ce4_8422_2325, // FNV-1a 64 offset basis
            contended_decisions: 0,
            commuting_skips: 0,
            yields_by_kind: [0; ResourceKind::COUNT],
        }
    }

    /// Count of yields on a specific kind (convenience for meta-assertions).
    pub fn yields_of(&self, kind: ResourceKind) -> u64 {
        self.yields_by_kind[kind as usize]
    }

    fn fold_byte(&mut self, b: u8) {
        self.schedule_class ^= b as u64;
        self.schedule_class = self.schedule_class.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn fold_decision(&mut self, pick: u32, res: Option<Resource>, dense_idx: u32) {
        self.contended_decisions += 1;
        for b in pick.to_le_bytes() {
            self.fold_byte(b);
        }
        self.fold_byte(res.map(|r| r.kind as u8).unwrap_or(0xFF));
        for b in dense_idx.to_le_bytes() {
            self.fold_byte(b);
        }
    }
}

pub(crate) struct SchedState {
    threads: Vec<ThreadSlot>,
    /// Thread currently holding the baton (`None` once all finished).
    current: Option<usize>,
    /// Virtual nanoseconds since the run started.  Only advances when nothing
    /// is runnable (jump to the earliest deadline) or through `advance`
    /// (`simulate_delay` under sim).
    virtual_now: Duration,
    rng: u64,
    /// Recorded schedule to replay instead of random picks.
    replay: Option<Vec<u32>>,
    /// Every pick made so far — the replayable schedule trace.  Commuting
    /// skips are *not* recorded (they are re-derived deterministically).
    pub(crate) trace: Vec<u32>,
    steps: u64,
    /// POR filtering enabled (false = [`Explorer::Random`]).
    por: bool,
    /// Consecutive commuting skips since the last real pick (bounded by
    /// [`SKIP_CHAIN_MAX`]).
    skip_chain: u64,
    /// Coverage accounting for the run report.
    coverage: ScheduleCoverage,
    /// Resource key → bitmask of threads that have declared an access to it
    /// (bit 63 saturates).  A key accessed by ≥ 2 threads is *shared*:
    /// accesses to it are dependent in the DPOR sense even when no other
    /// thread is pending on it right now — pending tags only see one step
    /// ahead, access history sees the whole prefix.
    accessors: HashMap<usize, u64>,
    /// Resource key → dense index by first *fold* (not first yield); keeps
    /// the class hash independent of addresses without letting the first-touch
    /// order of never-folded private resources leak into it.
    fold_index: HashMap<usize, u32>,
    /// Set once a failure is recorded: all other threads unwind.
    poisoned: bool,
    pub(crate) failure: Option<String>,
    finished: usize,
}

pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    pub(crate) fn new(
        names: Vec<String>,
        seed: u64,
        replay: Option<Vec<u32>>,
        explorer: Explorer,
    ) -> Arc<Self> {
        let threads = names
            .into_iter()
            .map(|name| ThreadSlot {
                name,
                state: RunState::Ready,
                woke_by_timeout: false,
                pending: None,
            })
            .collect();
        Arc::new(Self {
            state: Mutex::new(SchedState {
                threads,
                current: None,
                virtual_now: Duration::ZERO,
                // xorshift* must not start at 0; fold the seed in.
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                replay,
                trace: Vec::new(),
                steps: 0,
                por: explorer == Explorer::Por,
                skip_chain: 0,
                coverage: ScheduleCoverage::new(),
                accessors: HashMap::new(),
                fold_index: HashMap::new(),
                poisoned: false,
                failure: None,
                finished: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Locks the state, recovering from poison (a panicking sim thread may
    /// have been holding the lock while unwinding through `fail`).
    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn rng_next(st: &mut SchedState) -> u64 {
        let mut x = st.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        st.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Records a failure (first one wins), poisons the run and unwinds the
    /// calling thread.
    fn fail(&self, st: &mut SchedState, msg: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.poisoned = true;
        self.cv.notify_all();
        panic::panic_any(SimTeardown);
    }

    fn charge_step(&self, st: &mut SchedState) {
        st.steps += 1;
        if st.steps > MAX_STEPS {
            let msg = format!(
                "sim: step budget of {MAX_STEPS} exceeded (livelock?); vclock={:?}",
                st.virtual_now
            );
            self.fail(st, msg);
        }
    }

    /// Dense per-run index of a resource key (first-*fold* order), so the
    /// class hash depends on neither raw addresses nor the first-touch order
    /// of private resources that never fold.
    fn fold_idx(st: &mut SchedState, key: usize) -> u32 {
        let next = st.fold_index.len() as u32;
        *st.fold_index.entry(key).or_insert(next)
    }

    /// True when `key` names a resource some *other* thread has also declared
    /// an access to at any point in this run — the conservative dependency
    /// test classical DPOR uses.  Pending tags only see one step ahead, so a
    /// thread at an uncontended-right-now shared resource must still be a
    /// real scheduling decision (and fold into the class): skipping through
    /// it would serialise the very accesses exploration exists to reorder.
    fn shared_with_peer(st: &SchedState, key: usize, me: usize) -> bool {
        key != 0
            && st
                .accessors
                .get(&key)
                .is_some_and(|&bits| bits & !(1u64 << me.min(63)) != 0)
    }

    /// Chooses the next thread to run among `ready`.  `yielder` is the thread
    /// whose yield/park triggered the decision (None at run start / thread
    /// exit); its declared pending resource drives the POR conflict analysis.
    fn pick_from_ready(&self, st: &mut SchedState, ready: &[usize], yielder: Option<usize>) {
        let mut candidates: Vec<usize> = ready.to_vec();
        if let Some(y) = yielder.filter(|&y| st.threads[y].state == RunState::Ready) {
            let r = st.threads[y]
                .pending
                .expect("yield points always tag a resource");
            let conflicting: Vec<usize> = ready
                .iter()
                .copied()
                .filter(|&i| i != y && conflicts(r, st.threads[i].pending))
                .collect();
            if st.por {
                let shared = Self::shared_with_peer(st, r.key, y);
                if conflicting.is_empty() && !shared && st.skip_chain < SKIP_CHAIN_MAX {
                    // Commuting switch: the resource is thread-private so far
                    // and no other runnable thread's next step conflicts, so
                    // switching away and back is equivalent to not switching.
                    // Keep the baton (still charged against the step budget
                    // so a tagged spin loop cannot livelock unbudgeted).  The
                    // chain is bounded: pending tags only describe *next*
                    // steps, so a thread must not barrel through an entire
                    // resource-disjoint block and past the conflicting access
                    // behind it — peers need turns to advance to their
                    // conflicts.
                    st.coverage.commuting_skips += 1;
                    st.skip_chain += 1;
                    self.charge_step(st);
                    st.current = Some(y);
                    return;
                }
                if conflicting.is_empty() && !shared {
                    // Chain bound hit: make a real (recorded) pick over the
                    // full ready set so another thread can take a chunk.
                    candidates = ready.to_vec();
                } else {
                    candidates = conflicting;
                    candidates.push(y);
                }
                // Anti-starvation escape hatch: occasionally widen back to
                // the full ready set so a thread whose pending tag went stale
                // (it is inside a multi-resource critical section) cannot be
                // starved out of the restricted picks forever.
                if candidates.len() < ready.len() && Self::rng_next(st).is_multiple_of(8) {
                    candidates = ready.to_vec();
                }
            }
        }

        let pos = st.trace.len();
        // Replay is permissive: accept any ready thread (not just the POR
        // candidates) so recorded traces survive filter changes.
        let replayed = st
            .replay
            .as_ref()
            .and_then(|r| r.get(pos).copied())
            .map(|id| id as usize)
            .filter(|id| ready.contains(id));
        let pick = match replayed {
            Some(id) => id,
            // Off-schedule (or no replay): fall back to the seeded RNG so a
            // divergent replay still terminates.
            None => candidates[(Self::rng_next(st) % candidates.len() as u64) as usize],
        };
        st.trace.push(pick as u32);
        st.skip_chain = 0;
        self.charge_step(st);
        // Fold the *access* this pick grants: the picked thread now runs past
        // its declared yield point.  Only dependent accesses are folded — on
        // a resource another thread also uses (shared), or conflicting with
        // another live thread's declared next step — so the class is a
        // Mazurkiewicz-style trace signature: granting a commuting thread
        // does not mint a spurious class, which keeps class counts comparable
        // between the random and POR explorers.  Pre-first-yield peers (no
        // tag yet) do not count as conflicting here, or every start
        // permutation would mint a free class on both explorers.
        if let Some(r) = st.threads[pick].pending {
            let dependent = Self::shared_with_peer(st, r.key, pick)
                || st.threads.iter().enumerate().any(|(j, t)| {
                    j != pick
                        && t.state != RunState::Finished
                        && t.pending.is_some_and(|p| conflicts(r, Some(p)))
                });
            if dependent {
                let dense = Self::fold_idx(st, r.key);
                st.coverage.fold_decision(pick as u32, Some(r), dense);
            }
        }
        st.current = Some(pick);
    }

    /// Chooses the next thread to run.  Must make progress: if nothing is
    /// runnable, advances the virtual clock to the earliest deadline; if
    /// there is none, the run is deadlocked (or every thread finished).
    fn pick_next(&self, st: &mut SchedState, yielder: Option<usize>) {
        loop {
            let ready: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == RunState::Ready)
                .map(|(i, _)| i)
                .collect();
            if !ready.is_empty() {
                self.pick_from_ready(st, &ready, yielder);
                return;
            }

            // Nothing runnable.  All done?
            if st.threads.iter().all(|t| t.state == RunState::Finished) {
                st.current = None;
                return;
            }

            // Advance the virtual clock to the earliest deadline, waking every
            // timed wait whose deadline is reached.
            let earliest = st
                .threads
                .iter()
                .filter_map(|t| match t.state {
                    RunState::Blocked {
                        deadline: Some(d), ..
                    } => Some(d),
                    _ => None,
                })
                .min();
            match earliest {
                Some(deadline) => {
                    st.virtual_now = st.virtual_now.max(deadline);
                    let now = st.virtual_now;
                    for t in st.threads.iter_mut() {
                        if let RunState::Blocked {
                            deadline: Some(d), ..
                        } = t.state
                        {
                            if d <= now {
                                t.state = RunState::Ready;
                                t.woke_by_timeout = true;
                            }
                        }
                    }
                }
                None => {
                    // Genuine deadlock / lost wakeup: nobody runnable, nobody
                    // with a timeout.  Report who waits on what.
                    let mut diag = String::from("sim: deadlock — no runnable thread:");
                    for t in st.threads.iter() {
                        if let RunState::Blocked { key, .. } = t.state {
                            diag.push_str(&format!("\n  {} blocked on key {key:#x}", t.name));
                        }
                    }
                    let msg = format!("{diag}\n  vclock={:?}", st.virtual_now);
                    self.fail(st, msg);
                }
            }
        }
    }

    /// Gives up the baton with `new_state` for the caller and parks until the
    /// scheduler hands it back.  Returns true when the thread was woken by
    /// its deadline rather than an `unpark_all`.
    /// Unwinds the calling sim thread on a poisoned run — unless it is
    /// *already* unwinding (a `Drop` along a panicking frame hit an
    /// instrumented primitive), where a second panic would abort the whole
    /// process and eat the failure artifact.  Returns false so such callers
    /// simply proceed and finish their unwind.
    fn teardown_or_continue() -> bool {
        if std::thread::panicking() {
            return false;
        }
        panic::panic_any(SimTeardown);
    }

    fn reschedule(&self, me: usize, new_state: RunState, res: Resource) -> bool {
        let mut st = self.lock_state();
        if st.poisoned {
            drop(st);
            return Self::teardown_or_continue();
        }
        st.threads[me].state = new_state;
        st.threads[me].woke_by_timeout = false;
        st.threads[me].pending = Some(res);
        st.coverage.yields_by_kind[res.kind as usize] += 1;
        if res.key != 0 {
            *st.accessors.entry(res.key).or_insert(0) |= 1u64 << me.min(63);
        }
        self.pick_next(&mut st, Some(me));
        if st.current != Some(me) {
            self.cv.notify_all();
            loop {
                st = match self.cv.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                if st.poisoned {
                    drop(st);
                    return Self::teardown_or_continue();
                }
                if st.current == Some(me) {
                    break;
                }
            }
        }
        debug_assert_eq!(st.threads[me].state, RunState::Ready);
        std::mem::take(&mut st.threads[me].woke_by_timeout)
    }

    pub(crate) fn yield_at(&self, me: usize, res: Resource) {
        self.reschedule(me, RunState::Ready, res);
    }

    pub(crate) fn park(&self, me: usize, key: usize, kind: ResourceKind) {
        self.reschedule(
            me,
            RunState::Blocked {
                key,
                deadline: None,
            },
            Resource::new(kind, key),
        );
    }

    pub(crate) fn park_timeout(
        &self,
        me: usize,
        key: usize,
        kind: ResourceKind,
        timeout: Duration,
    ) -> bool {
        let deadline = {
            let st = self.lock_state();
            st.virtual_now.saturating_add(timeout)
        };
        self.reschedule(
            me,
            RunState::Blocked {
                key,
                deadline: Some(deadline),
            },
            Resource::new(kind, key),
        )
    }

    /// Makes every thread parked on `key` runnable again (they re-check their
    /// condition when next scheduled).  Does not switch.
    pub(crate) fn unpark_all(&self, key: usize) {
        let mut st = self.lock_state();
        for t in st.threads.iter_mut() {
            if matches!(t.state, RunState::Blocked { key: k, .. } if k == key) {
                t.state = RunState::Ready;
                t.woke_by_timeout = false;
            }
        }
    }

    pub(crate) fn now(&self) -> Duration {
        self.lock_state().virtual_now
    }

    /// Advances the virtual clock (a sim thread "spending time" in a busy
    /// wait), firing any timed waits whose deadline is reached.
    pub(crate) fn advance(&self, d: Duration) {
        let mut st = self.lock_state();
        st.virtual_now = st.virtual_now.saturating_add(d);
        let now = st.virtual_now;
        for t in st.threads.iter_mut() {
            if let RunState::Blocked {
                deadline: Some(dl), ..
            } = t.state
            {
                if dl <= now {
                    t.state = RunState::Ready;
                    t.woke_by_timeout = true;
                }
            }
        }
    }

    /// First hand-off: called by the runner after all OS threads exist.
    fn start(&self) {
        let mut st = self.lock_state();
        self.pick_next(&mut st, None);
        self.cv.notify_all();
    }

    /// Parks the freshly spawned OS thread until its first turn.  Returns
    /// false when the run was poisoned before this thread ever ran.
    fn wait_for_first_turn(&self, me: usize) -> bool {
        let mut st = self.lock_state();
        loop {
            if st.poisoned {
                return false;
            }
            if st.current == Some(me) {
                return true;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Marks a thread finished (recording its panic, if any, as the run's
    /// failure) and hands the baton onward.
    fn finish_thread(&self, me: usize, outcome: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock_state();
        st.threads[me].state = RunState::Finished;
        st.finished += 1;
        if let Err(payload) = outcome {
            if payload.downcast_ref::<SimTeardown>().is_none() && st.failure.is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                st.failure = Some(format!("thread '{}' panicked: {msg}", st.threads[me].name));
                st.poisoned = true;
            }
        }
        if !st.poisoned {
            self.pick_next(&mut st, None);
        }
        self.cv.notify_all();
    }

    /// Blocks the (non-sim) runner thread until every sim thread finished.
    fn wait_all_finished(&self, n: usize) {
        let mut st = self.lock_state();
        while st.finished < n {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local handle
// ---------------------------------------------------------------------------

/// Count of live sim runs in the process: the fast path for
/// [`current`] — instrumented primitives pay one relaxed load when no sim is
/// active anywhere.
static ACTIVE_SIMS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: std::cell::RefCell<Option<SimHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// Handle installed in each sim thread's TLS; the hook instrumented
/// primitives route through.
#[derive(Clone)]
pub struct SimHandle {
    sched: Arc<Scheduler>,
    id: usize,
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle").field("id", &self.id).finish()
    }
}

impl SimHandle {
    /// An untagged preemption point: conservatively conflicts with every
    /// other thread's next step, so it is never skipped by the POR filter.
    pub fn yield_now(&self) {
        self.sched
            .yield_at(self.id, Resource::global(ResourceKind::Other));
    }

    /// A preemption point tagged with the resource the caller's next step
    /// touches.  Under the POR explorer the switch is skipped when no other
    /// runnable thread's next step conflicts with `res`.
    pub fn yield_at(&self, res: Resource) {
        self.sched.yield_at(self.id, res);
    }

    /// Parks the thread on `key` until some thread calls
    /// [`SimHandle::unpark_all`] with the same key.  The caller re-checks its
    /// condition in a loop — cooperative scheduling makes check-then-park
    /// atomic with respect to other sim threads, so no wakeup can be lost
    /// between the check and the park.
    pub fn park(&self, key: usize) {
        self.sched.park(self.id, key, ResourceKind::Other);
    }

    /// [`SimHandle::park`] with a resource kind for coverage accounting.
    pub fn park_at(&self, key: usize, kind: ResourceKind) {
        self.sched.park(self.id, key, kind);
    }

    /// Parks on `key` with a virtual-clock deadline.  Returns true when the
    /// wait ended because the deadline was reached.
    pub fn park_timeout(&self, key: usize, timeout: Duration) -> bool {
        self.sched
            .park_timeout(self.id, key, ResourceKind::Other, timeout)
    }

    /// [`SimHandle::park_timeout`] with a resource kind for coverage
    /// accounting.
    pub fn park_timeout_at(&self, key: usize, kind: ResourceKind, timeout: Duration) -> bool {
        self.sched.park_timeout(self.id, key, kind, timeout)
    }

    /// Wakes every thread parked on `key`.
    pub fn unpark_all(&self, key: usize) {
        self.sched.unpark_all(key);
    }

    /// Virtual time since the run started.
    pub fn now(&self) -> Duration {
        self.sched.now()
    }

    /// Advances the virtual clock (models a busy wait consuming time).
    pub fn advance(&self, d: Duration) {
        self.sched.advance(d);
    }
}

/// The calling thread's sim handle, when it is a sim logical thread.
/// Costs one relaxed atomic load when no sim run is active in the process.
pub fn current() -> Option<SimHandle> {
    if ACTIVE_SIMS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Derives a stable resource key from a shared object's address.
pub fn key_of<T: ?Sized>(t: &T) -> usize {
    t as *const T as *const () as usize
}

// ---------------------------------------------------------------------------
// Run driver
// ---------------------------------------------------------------------------

/// Builder collecting the logical threads of one schedule run.
#[derive(Default)]
pub struct Sim {
    threads: Vec<(String, Box<dyn FnOnce() + Send>)>,
    explorer: Explorer,
}

impl Sim {
    /// Registers a logical thread.  Threads are identified by registration
    /// order in the schedule trace (thread 0 is the first spawned).
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce() + Send + 'static) {
        self.threads.push((name.into(), Box::new(f)));
    }

    /// Overrides the explorer for this run (default: [`Explorer::Por`]).
    pub fn set_explorer(&mut self, explorer: Explorer) {
        self.explorer = explorer;
    }
}

/// Outcome of one explored (or replayed) schedule.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seed the schedule was generated from (also the RNG fallback seed of a
    /// replay, so prefix replays diverge deterministically).
    pub seed: u64,
    /// The complete schedule: the thread id picked at every step.  Feed it
    /// back through [`replay`] to reproduce this run exactly.
    pub schedule: Vec<u32>,
    /// Scheduling decisions made (including POR commuting skips).
    pub steps: u64,
    /// Virtual time consumed (timeouts and `simulate_delay`s, not wall clock).
    pub virtual_time: Duration,
    /// Schedule-class and yield-point coverage of the run.
    pub coverage: ScheduleCoverage,
    /// The failure artifact: panic message or deadlock diagnostic.
    pub failure: Option<String>,
}

fn run_inner(seed: u64, replay: Option<Vec<u32>>, build: &dyn Fn(&mut Sim)) -> RunReport {
    let mut sim = Sim::default();
    build(&mut sim);
    let names: Vec<String> = sim.threads.iter().map(|(n, _)| n.clone()).collect();
    let n = names.len();
    let sched = Scheduler::new(names, seed, replay, sim.explorer);

    ACTIVE_SIMS.fetch_add(1, Ordering::SeqCst);
    let mut handles = Vec::with_capacity(n);
    for (id, (name, f)) in sim.threads.into_iter().enumerate() {
        let sched = Arc::clone(&sched);
        handles.push(
            std::thread::Builder::new()
                .name(format!("sim-{id}-{name}"))
                .spawn(move || {
                    CURRENT.with(|c| {
                        *c.borrow_mut() = Some(SimHandle {
                            sched: Arc::clone(&sched),
                            id,
                        });
                    });
                    let outcome = if sched.wait_for_first_turn(id) {
                        panic::catch_unwind(AssertUnwindSafe(f))
                    } else {
                        Ok(())
                    };
                    CURRENT.with(|c| c.borrow_mut().take());
                    sched.finish_thread(id, outcome);
                })
                .expect("spawn sim thread"),
        );
    }
    sched.start();
    sched.wait_all_finished(n);
    for h in handles {
        // Secondary teardown panics already produced the failure artifact.
        let _ = h.join();
    }
    ACTIVE_SIMS.fetch_sub(1, Ordering::SeqCst);

    let st = sched.lock_state();
    RunReport {
        seed,
        schedule: st.trace.clone(),
        steps: st.steps,
        virtual_time: st.virtual_now,
        coverage: st.coverage.clone(),
        failure: st.failure.clone(),
    }
}

/// Runs one schedule chosen by `seed`.  `build` registers the logical
/// threads; it is called once per run so closures can capture fresh state.
pub fn run_with_seed(seed: u64, build: impl Fn(&mut Sim)) -> RunReport {
    run_inner(seed, None, &build)
}

/// [`run_with_seed`] for tests: panics with the replayable artifact (seed,
/// failure, schedule trace) on a deadlock, a lost wake-up or an assertion
/// inside a sim thread, and returns the run's report (coverage) otherwise.
pub fn run_seed(seed: u64, build: impl Fn(&mut Sim)) -> RunReport {
    let report = run_with_seed(seed, build);
    if let Some(failure) = &report.failure {
        panic!(
            "seed {seed} failed: {failure}\nschedule: {:?}\nreproduce: txsql_sim::replay(&schedule, build)",
            report.schedule
        );
    }
    report
}

/// Replays a recorded schedule (the `schedule` field of a failing
/// [`RunReport`]).  Divergence falls back to seeded picks so the run still
/// terminates.
pub fn replay(schedule: &[u32], build: impl Fn(&mut Sim)) -> RunReport {
    run_inner(0, Some(schedule.to_vec()), &build)
}

/// [`replay`] with an explicit RNG fallback seed: past the end of the
/// recorded schedule (or on divergence) picks continue from `seed`'s RNG.
/// This is what the trace shrinker uses to replay *prefixes* of a failing
/// schedule deterministically.
pub fn replay_with_seed(seed: u64, schedule: &[u32], build: impl Fn(&mut Sim)) -> RunReport {
    run_inner(seed, Some(schedule.to_vec()), &build)
}

/// Aggregate coverage of an exploration sweep (see [`explore_collect`]).
#[derive(Debug, Clone, Default)]
pub struct ExploreSummary {
    /// Seeds run.
    pub runs: u64,
    /// Distinct schedule classes reached across the sweep — the coverage
    /// metric the POR explorer is meant to raise at a fixed seed budget.
    pub distinct_classes: u64,
    /// Total contended decisions across the sweep.
    pub contended_decisions: u64,
    /// Total POR commuting skips across the sweep.
    pub commuting_skips: u64,
    /// Total yields per [`ResourceKind`] across the sweep.
    pub yields_by_kind: [u64; ResourceKind::COUNT],
}

impl ExploreSummary {
    /// The standard machine-greppable coverage line CI pins:
    /// `sim-coverage: suite=<name> runs=N classes=C contended=D skips=S ...`.
    pub fn line(&self, suite: &str) -> String {
        let mut s = format!(
            "sim-coverage: suite={suite} runs={} classes={} contended={} skips={}",
            self.runs, self.distinct_classes, self.contended_decisions, self.commuting_skips
        );
        for kind in ResourceKind::ALL {
            let n = self.yields_by_kind[kind as usize];
            if n > 0 {
                s.push_str(&format!(" {}_yields={n}", kind.name()));
            }
        }
        s
    }
}

/// Runs `run` once per case (a seed, or a seed with whatever else a suite
/// varies) and accumulates the coverage of the reports it returns.  `run`
/// owns the failure of its case: [`run_seed`] panics with the replayable
/// artifact.
pub fn explore_cases<C>(
    cases: impl IntoIterator<Item = C>,
    mut run: impl FnMut(C) -> RunReport,
) -> ExploreSummary {
    let mut summary = ExploreSummary::default();
    let mut classes: HashSet<u64> = HashSet::new();
    for case in cases {
        let report = run(case);
        summary.runs += 1;
        classes.insert(report.coverage.schedule_class);
        summary.contended_decisions += report.coverage.contended_decisions;
        summary.commuting_skips += report.coverage.commuting_skips;
        for (acc, n) in summary
            .yields_by_kind
            .iter_mut()
            .zip(report.coverage.yields_by_kind)
        {
            *acc += n;
        }
    }
    summary.distinct_classes = classes.len() as u64;
    summary
}

/// Explores one schedule per seed, accumulating coverage.  On the first
/// failure the trace is shrunk with [`crate::minimize`] and both the full and
/// the minimized artifacts are printed before panicking.
pub fn explore_collect(
    seeds: impl IntoIterator<Item = u64>,
    build: impl Fn(&mut Sim),
) -> ExploreSummary {
    explore_cases(seeds, |seed| {
        let report = run_with_seed(seed, &build);
        if let Some(failure) = &report.failure {
            eprintln!("==== txsql-sim failure artifact ====");
            eprintln!("seed     : {seed}");
            eprintln!("steps    : {}", report.steps);
            eprintln!("vclock   : {:?}", report.virtual_time);
            eprintln!("schedule : {:?}", report.schedule);
            eprintln!("failure  : {failure}");
            eprintln!("reproduce: txsql_sim::run_with_seed({seed}, build)");
            let minimized = crate::minimize(&report, &build);
            eprintln!("==== minimized (txsql_sim::minimize) ====");
            eprintln!(
                "prefix   : {} of {} decisions",
                minimized.prefix.len(),
                report.schedule.len()
            );
            eprintln!("prefix schedule : {:?}", minimized.prefix);
            eprintln!("failure  : {:?}", minimized.report.failure);
            eprintln!(
                "reproduce: txsql_sim::replay_with_seed({seed}, &{:?}, build)",
                minimized.prefix
            );
            panic!("sim: seed {seed} failed: {failure}");
        }
        report
    })
}

/// Explores one schedule per seed and panics on the first failure, printing
/// the failure artifact (losing seed + full and minimized schedule traces) so
/// the run can be replayed with [`replay`] or `run_with_seed(seed, ..)`.
pub fn explore(seeds: impl IntoIterator<Item = u64>, build: impl Fn(&mut Sim)) {
    let _ = explore_collect(seeds, build);
}

/// The seed set used by exploration suites: `TXSQL_SIM_SEEDS` may be a count
/// (`"200"`), a range (`"0..200"`) or a comma list (`"7,13,42"`); the default
/// is `0..default_count`.
pub fn ci_seeds(default_count: u64) -> Vec<u64> {
    let spec = std::env::var("TXSQL_SIM_SEEDS").ok();
    parse_seeds(spec.as_deref(), default_count)
}

/// [`ci_seeds`] for an explicit `TXSQL_SIM_SEEDS` value.
pub(crate) fn parse_seeds(spec: Option<&str>, default_count: u64) -> Vec<u64> {
    let spec = spec.unwrap_or("").trim();
    if let Some((a, b)) = spec.split_once("..") {
        let a: u64 = a.trim().parse().unwrap_or(0);
        let b: u64 = b.trim().parse().unwrap_or(default_count);
        (a..b).collect()
    } else if spec.contains(',') {
        spec.split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect()
    } else {
        (0..spec.parse().unwrap_or(default_count)).collect()
    }
}
