//! Group locking for hotspot rows (§3.3, §4 — the paper's headline
//! contribution).
//!
//! Conflicting updates of a hot row are organised into *groups*:
//!
//! * the first transaction of a group is the **leader**; it is the only one
//!   that acquires (and later releases) the real row lock;
//! * subsequent transactions are **followers**: they are parked in the
//!   `waiting_updates` queue and granted execution one at a time, directly on
//!   the (still uncommitted) newest row version, without touching the lock
//!   manager at all;
//! * every granted update is appended to the row's **dependency list**
//!   (`dep_list`) and draws a globally increasing `hot_update_order`;
//!   commits must proceed in dependency-list order (§4.3) and rollbacks in
//!   the reverse order (§4.4, cascading aborts);
//! * when the leader commits it releases the row lock and steps down: the
//!   next waiter is promoted to leader of a fresh group — or, with the
//!   **dynamic batch size** optimization (§4.6.1), nobody is when the queue
//!   is empty.  Algorithm 2 lines 2–4 (stop granting, wait while a granted
//!   follower is still updating — the paper's `granting_new_trx`, here
//!   `executing`) are a **flag here, not a wait**: a leader that steps down
//!   behind a follower's update in flight marks the group
//!   `switching_new_leader` and goes on to its commit turn, and whichever
//!   transition ends that update completes the hand-over under the guard it
//!   already holds.  Waiting there put the follower's whole update inside
//!   the leader's commit — one more cross-core hand-off per group, on a row
//!   whose throughput is the count of those hand-offs;
//! * a member that would wait behind a peer on one of its dependency lists
//!   aborts instead (**deadlock prevention**, §4.5):
//!   [`GroupLockTable::check_cold_wait`] before it writes another row (a
//!   doomed member cascades first) and [`GroupLockTable::check_join`] once
//!   granted another hot row, each under the rows' own guards.
//!
//! The state machine below follows Algorithms 1–3 of the paper; the method
//! names map to the pseudo-code lines noted in their doc comments.  Every
//! rule in it is one an engine transaction can reach.
//!
//! ## Two serial sections, one state transition each
//!
//! Members of a group run "serially in an uncommitted state … without the
//! need for locking", so what bounds a hot row is the length of the two
//! sections that *are* serial: grant → [`GroupLockTable::finish_update`]
//! (Alg. 1) and commit turn → [`GroupLockTable::finish_commit`] (Alg. 2).
//! Each costs this module one acquisition of the row's state mutex and
//! nothing else: no entry-map lookup, no shared counter, no allocation.
//!
//! * **One handle per (transaction, hot row).**  The first group call,
//!   [`GroupLockTable::begin_update`], resolves the row's entry through the
//!   sharded entry map — the only time the transaction takes a map shard —
//!   and returns a [`GroupHandle`]; the transaction keeps it next to its
//!   role and order and names the row by it in every later call
//!   ([`HotRow`]).  A handle guarantees that the call lands on the row's
//!   **live** state: [`GroupLockTable::collect_if_idle`] marks the entry it
//!   removes `dead` under its own mutex, and a call that finds the mark goes
//!   back through the map.  (An entry with the holder on its dependency
//!   list or in its queue is never idle, so in a transaction's life that
//!   only happens at its edges.)  A call that names the row by
//!   [`RecordId`] is an entry-map lookup plus the same call, for tests and
//!   probes; [`GroupLockTable::peek`] is the one read-only view of a row
//!   and never creates an entry.
//! * **Granting registers.**  Whoever makes a transaction the row's
//!   in-flight updater — [`GroupLockTable::begin_update`]'s two immediate
//!   paths, [`GroupLockTable::finish_update`]'s grant, a promotion by a
//!   step-down ([`GroupLockTable::leader_step_down`] or the end of the
//!   update it left pending) or by the last
//!   [`GroupLockTable::finish_rollback`] — appends it to the dependency
//!   list in the critical section it already holds.  A woken follower goes
//!   from its event straight to the row; it draws its `hot_update_order`
//!   from the global counter without the state lock
//!   ([`GroupLockTable::take_hot_update_order`]: one grantee per row is in
//!   flight, so per-row order equals list order).  A grantee that cannot
//!   use its grant gives both back with [`GroupLockTable::abandon_update`].
//!   Every granting path is closed while a rollback is in progress, so a
//!   grantee is on the list before any later
//!   [`GroupLockTable::begin_rollback`] scans it: a follower of an aborting
//!   transaction is always doomed, one granted after the last
//!   [`GroupLockTable::finish_rollback`] never is.
//!   [`GroupLockTable::register_update`] remains for the probe that
//!   registers by hand; it draws an order and is otherwise idempotent.
//! * **Every write runs in a flight its writer owns** (`executing`, the
//!   paper's `granting_new_trx`): a grant opens it, a member's later write
//!   of the row reopens it ([`GroupLockTable::rewrite`]), and
//!   [`GroupLockTable::finish_update`] ends it after every write.  A commit
//!   or rollback ends one no write ended (a `SELECT … FOR UPDATE` alone).
//! * **Commit transitions fuse.**  A leader's commit is
//!   [`GroupLockTable::leader_step_down`] — which returns the commit-turn
//!   verdict it can see under the guard it holds — and `finish_commit`:
//!   two state acquisitions, the same as a follower's turn check and
//!   `finish_commit`.  A step-down never waits: at most one update is in
//!   flight per row, and while the hand-over it left pending is open
//!   nothing but the end of that update clears `leader` or
//!   `switching_new_leader` (a fresh arrival parks behind them).
//! * **Rollback transitions fuse.**  A rollback is three transitions per
//!   hot row ([`GroupLockTable::begin_rollback`],
//!   [`GroupLockTable::wait_rollback_turn`],
//!   [`GroupLockTable::finish_rollback`]), and granting is paused exactly
//!   while some member is between the first and the last of them: the
//!   `rolling_back` list *is* the §4.4 pause, there is no flag beside it.
//!   The last step leaves the list, lifts the pause when the last
//!   roller-back leaves, promotes a parked update if the row lock was left
//!   free, wakes, and collects the entry if that left the row idle: one
//!   state acquisition and at most one collection.
//!
//! ## Two waiter lists, named wakers
//!
//! A hot row parks transactions on two lists, because they are woken with
//! different things.  A parked *update* waits on its [`WaitSlot`] in
//! `waiting_updates` and is granted by [`GroupLockTable::finish_update`]
//! (follower) or by a step-down, the end of the update one left pending or
//! the last [`GroupLockTable::finish_rollback`] (new leader); the **role
//! travels as the wake-up's payload**, so a woken follower takes no state
//! lock between its event and its update (that lock was one of the ten a
//! follower's grant → `finish_update` used to take; it takes four).  Every
//! other wait on a hot row is a wait for a **turn** — a predicate over the
//! group state, re-checked under the guard by the woken waiter — and parks
//! on `turn_waiters`:
//!
//! * the **commit turn** (§4.3, [`GroupLockTable::wait_commit_turn`]): first
//!   of the dependency list, or doomed;
//! * the **rollback turn** (Algorithm 3 lines 6–7,
//!   [`GroupLockTable::wait_rollback_turn`]): newest of the dependency list
//!   and nothing in flight (a leader is switching only while an update is).
//!
//! Nothing polls: a transition that can make a turn's predicate true —
//! [`GroupLockTable::finish_update`], [`GroupLockTable::finish_commit`],
//! [`GroupLockTable::finish_rollback`], [`GroupLockTable::abandon_update`]
//! and [`GroupLockTable::begin_rollback`] — re-evaluates the parked
//! predicates under the state guard it already holds, takes the waiters
//! whose turn has come off the list and fires their events after dropping
//! the guard (wake-outside-lock).  A woken waiter re-checks under the guard,
//! so a turn that was taken away again just parks again.  The waits are
//! hand-off waits ([`OsEvent::wait_handoff`]): the transaction being waited
//! for is running.

use crate::event::OsEvent;
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::metrics::EngineMetrics;
use txsql_common::pad::CachePadded;
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, TxnId};

/// Events collected under a state guard, fired after dropping it.  The first
/// one is held inline: a transition of a two-member group wakes at most one
/// waiter, and must not allocate to do so.
#[derive(Debug, Default)]
#[must_use = "fire these events after dropping the state guard"]
struct WakeList {
    first: Option<Arc<OsEvent>>,
    rest: Vec<Arc<OsEvent>>,
}

impl WakeList {
    fn push(&mut self, event: Arc<OsEvent>) {
        match self.first {
            None => self.first = Some(event),
            Some(_) => self.rest.push(event),
        }
    }

    fn fire(self) {
        for event in self.first.into_iter().chain(self.rest) {
            event.set();
        }
    }
}

/// Configuration of group locking.
#[derive(Debug, Clone)]
pub struct GroupLockConfig {
    /// Maximum number of follower grants per group (the paper's default batch
    /// size is 10).  `0` means unbounded.
    pub batch_size: usize,
    /// How long a queued hotspot update waits before giving up (the timeout
    /// that replaces deadlock detection on hot rows).
    pub hot_wait_timeout: Duration,
}

impl Default for GroupLockConfig {
    fn default() -> Self {
        Self {
            batch_size: 10,
            hot_wait_timeout: Duration::from_millis(500),
        }
    }
}

/// Role a transaction plays on a hot row — what a grant gives it, and the
/// payload a parked one is woken with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum HotRole {
    /// Group leader: acquires the real row lock for its group.
    Leader = 1,
    /// Follower: executes without locking inside a group.
    Follower = 2,
}

/// A parked hotspot update waiting to be granted.
///
/// The wake-up event is drawn from the thread-local pool and recycled when
/// the last `Arc<WaitSlot>` clone drops — whichever side (waiter, granter, or
/// the queue on cancellation) lets go last returns it, and the unique-`Arc`
/// rule in [`OsEvent::recycle`] guarantees a slot torn down mid-grant can
/// never leak a stale wake into the pool.
#[derive(Debug)]
pub struct WaitSlot {
    event: Option<Arc<OsEvent>>,
}

impl WaitSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            event: Some(OsEvent::acquire_pooled()),
        })
    }

    /// The event the owner waits on.
    fn event(&self) -> &Arc<OsEvent> {
        self.event.as_ref().expect("slot event present until drop")
    }

    /// Role assigned by the waker, if any: the event's payload.
    fn role(&self) -> Option<HotRole> {
        self.event().payload().map(|payload| match payload {
            1 => HotRole::Leader,
            2 => HotRole::Follower,
            other => unreachable!("wait slot woken with payload {other}"),
        })
    }

    /// Wakes the owner with its role.  Call after dropping the state guard.
    fn grant(&self, role: HotRole) {
        self.event().set_with(role as u32);
    }
}

impl Drop for WaitSlot {
    fn drop(&mut self) {
        if let Some(event) = self.event.take() {
            OsEvent::recycle(event);
        }
    }
}

/// Outcome of starting a hotspot update.  Whoever is granted — at once, or
/// by the wake-up of its slot — is the row's in-flight updater and already
/// on its dependency list.
#[derive(Debug)]
pub enum HotExecution {
    /// The transaction is the group leader: acquire the row lock, then
    /// execute.
    Leader,
    /// Granted follower execution immediately (no other hotspot update was in
    /// flight): execute without locking.
    Follower,
    /// Park on the slot; the waker assigns [`HotRole`].
    Wait(Arc<WaitSlot>),
}

/// Outcome of asking for the commit turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitTurn {
    /// All dependency-list predecessors have committed: proceed.
    Ready,
    /// A predecessor rolled back; this transaction must cascade-abort.
    Doomed {
        /// The transaction whose rollback doomed us.
        cause: TxnId,
    },
    /// A dependency-list predecessor has not committed yet.
    Blocked,
}

/// What a leader's step-down did and saw (see
/// [`GroupLockTable::leader_step_down`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandOver {
    /// The parked update promoted to leader of the next group, if any: with
    /// the dynamic batch size there may be none, and behind an update in
    /// flight its end promotes.
    pub promoted: Option<TxnId>,
    /// The outgoing leader's commit turn, as of the step-down.
    pub turn: CommitTurn,
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    slot: Arc<WaitSlot>,
}

/// The predicate over the group state a parked transaction waits for (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    /// First of the dependency list, or doomed.
    Commit,
    /// Newest of the dependency list, nothing in flight.
    Rollback,
}

#[derive(Debug)]
struct TurnWaiter {
    txn: TxnId,
    turn: Turn,
    event: Arc<OsEvent>,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Granted-but-uncommitted transactions in update order.
    dep_list: Vec<TxnId>,
    /// Transactions doomed to cascade-abort, with the causing transaction.
    doomed: FxHashMap<TxnId, TxnId>,
    /// Parked hotspot updates.
    waiting_updates: VecDeque<Waiter>,
    /// Current group leader (holder of the real row lock).
    leader: Option<TxnId>,
    /// Transaction whose granted hotspot update has not yet finished, if
    /// any (`granting_new_trx` in the paper, which does not say whose).
    executing: Option<TxnId>,
    /// `switching_new_leader`: the leader stepped down while `executing`'s
    /// update was in flight; stop granting, and hand the row over when that
    /// update ends.  Set only then: it implies `executing`.
    switching_new_leader: bool,
    /// Followers granted in the current group (for the batch size).
    granted_in_group: usize,
    /// Transactions between `begin_rollback` and `finish_rollback` on this
    /// record.  While there is one, granting is paused (`paused`, the §4.4
    /// rollback optimization), so nobody joins the dependency list behind an
    /// aborting transaction's head.
    rolling_back: Vec<TxnId>,
    /// Transactions parked until their turn comes (commit order, rollback
    /// order).
    turn_waiters: Vec<TurnWaiter>,
    /// Set (under this state's mutex) when `collect_if_idle` removed the
    /// entry from the shard map.  A thread holding the entry's `Arc` — a
    /// handle — discovers the flag after locking and goes back through the
    /// map: the fetch-then-lock lifecycle race that used to orphan waiters.
    dead: bool,
}

impl GroupState {
    fn is_idle(&self) -> bool {
        self.dep_list.is_empty()
            && self.waiting_updates.is_empty()
            && self.leader.is_none()
            && self.turn_waiters.is_empty()
            && self.doomed.is_empty()
            && self.rolling_back.is_empty()
    }

    /// The §4.4 pause — no new grants, no leader promotion — lasts exactly
    /// while some member is between `begin_rollback` and `finish_rollback`.
    fn paused(&self) -> bool {
        !self.rolling_back.is_empty()
    }

    /// Whether `txn`'s `turn` has come.
    fn turn_ready(&self, txn: TxnId, turn: Turn) -> bool {
        match turn {
            Turn::Commit => {
                self.doomed.contains_key(&txn)
                    || self.dep_list.first().is_none_or(|first| *first == txn)
                    || !self.dep_list.contains(&txn)
            }
            Turn::Rollback => {
                self.dep_list.last().is_none_or(|last| *last == txn) && self.executing.is_none()
            }
        }
    }

    /// `txn`'s commit turn (§4.3).
    fn commit_turn(&self, txn: TxnId) -> CommitTurn {
        match self.doomed.get(&txn) {
            Some(cause) => CommitTurn::Doomed { cause: *cause },
            None if self.turn_ready(txn, Turn::Commit) => CommitTurn::Ready,
            None => CommitTurn::Blocked,
        }
    }

    /// Takes the parked transactions whose turn has come off the list, for
    /// the caller to wake **after** dropping the state guard
    /// (wake-outside-lock).  Every transition that can make a turn's
    /// predicate true ends with this.
    fn take_ready_waiters(&mut self) -> WakeList {
        let mut ready = WakeList::default();
        let mut at = 0;
        while let Some(waiter) = self.turn_waiters.get(at) {
            if self.turn_ready(waiter.txn, waiter.turn) {
                ready.push(self.turn_waiters.swap_remove(at).event);
            } else {
                at += 1;
            }
        }
        ready
    }

    /// Appends `txn` to the dependency list (Algorithm 1, lines 7–9);
    /// idempotent.  Grants never get here while a rollback is in progress —
    /// granting is paused — which is why a grantee needs no second look
    /// after `begin_rollback`'s scan.
    fn register(&mut self, txn: TxnId) {
        if !self.dep_list.contains(&txn) {
            self.dep_list.push(txn);
        }
    }

    /// Gives `txn` back what a grant gave it: its dependency-list entry.
    fn unregister(&mut self, txn: TxnId) {
        self.dep_list.retain(|t| *t != txn);
        self.doomed.remove(&txn);
    }

    /// Makes `txn` the row's in-flight updater, and registers it.
    fn grant(&mut self, txn: TxnId) {
        self.executing = Some(txn);
        self.register(txn);
    }

    /// Makes `txn` leader of a fresh group.  Its own update is in flight
    /// until it calls `finish_update`, so nobody can slip in between.
    fn lead(&mut self, txn: TxnId) {
        self.leader = Some(txn);
        self.granted_in_group = 0;
        self.grant(txn);
    }

    /// Starts `txn`'s update (Algorithm 1, lines 2–6).
    fn begin(&mut self, txn: TxnId, batch_size: usize) -> HotExecution {
        let paused = self.paused();
        if self.leader.is_none() && self.waiting_updates.is_empty() && !paused {
            self.lead(txn);
            return HotExecution::Leader;
        }
        let batch_open = batch_size == 0 || self.granted_in_group < batch_size;
        if self.executing.is_none()
            && !paused
            && self.waiting_updates.is_empty()
            && self.leader.is_some()
            && batch_open
        {
            self.granted_in_group += 1;
            self.grant(txn);
            return HotExecution::Follower;
        }
        let slot = WaitSlot::new();
        self.waiting_updates.push_back(Waiter {
            txn,
            slot: Arc::clone(&slot),
        });
        HotExecution::Wait(slot)
    }

    /// Ends `txn`'s in-flight update, if it has one: a hand-over the leader
    /// left pending behind it completes — the next parked update is promoted
    /// — or else the next follower is granted if allowed (Algorithm 1,
    /// lines 11–20).  The caller grants the returned slot its role after
    /// dropping the guard.
    fn end_update(&mut self, txn: TxnId, batch_size: usize) -> Option<(Arc<WaitSlot>, HotRole)> {
        if self.executing != Some(txn) {
            // Nothing of `txn`'s in flight: a commit or rollback after its
            // last write ended its flight.
            return None;
        }
        self.executing = None;
        if self.switching_new_leader {
            return self.step_down().map(|(_, slot)| (slot, HotRole::Leader));
        }
        let batch_full = batch_size > 0 && self.granted_in_group >= batch_size;
        if self.paused() || batch_full {
            return None;
        }
        let waiter = self.waiting_updates.pop_front()?;
        self.granted_in_group += 1;
        self.grant(waiter.txn);
        Some((waiter.slot, HotRole::Follower))
    }

    /// Promotes the next parked update to leader of a fresh group.  The
    /// caller grants the returned slot [`HotRole::Leader`] after dropping
    /// the guard.
    fn promote_next_leader(&mut self) -> Option<(TxnId, Arc<WaitSlot>)> {
        let waiter = self.waiting_updates.pop_front()?;
        self.lead(waiter.txn);
        Some((waiter.txn, waiter.slot))
    }

    /// The leader, with nothing in flight, steps down and the next parked
    /// update, if any, is promoted (Algorithm 2, lines 7–10).  With nobody
    /// parked — the dynamic batch size — the next arrival starts a fresh
    /// group at once; while a rollback is draining, the last
    /// `finish_rollback` promotes instead.
    fn step_down(&mut self) -> Option<(TxnId, Arc<WaitSlot>)> {
        self.leader = None;
        self.switching_new_leader = false;
        if self.paused() {
            return None;
        }
        self.promote_next_leader()
    }
}

#[derive(Debug, Default)]
struct GroupEntry {
    state: Mutex<GroupState>,
}

/// A transaction's hold on one hot row's group state: the entry, resolved
/// through the entry map once.  A call that names its row by handle lands on
/// the row's live state whatever [`GroupLockTable::collect_if_idle`] did in
/// between (see the module docs).
#[derive(Clone)]
pub struct GroupHandle {
    record: RecordId,
    entry: Arc<GroupEntry>,
}

impl GroupHandle {
    /// The hot row this handle is for.
    pub fn record(&self) -> RecordId {
        self.record
    }

    /// §4.5's verdict on `txn`, which would wait behind `blocker` here.
    fn prevents(&self, txn: TxnId, blocker: TxnId) -> Error {
        let hot_record = self.record;
        Error::HotspotDeadlockPrevented {
            txn,
            hot_record,
            blocker,
        }
    }
}

impl fmt::Debug for GroupHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupHandle({})", self.record)
    }
}

/// How a group call names its hot row.  The engine passes the
/// `&`[`GroupHandle`] the transaction holds: no entry-map lookup.  A
/// [`RecordId`] is `handle(record)` plus the same call — for tests, probes
/// and introspection, which keep no handle.
pub trait HotRow<'a> {
    /// The row's handle in `table`.
    fn handle_in(self, table: &GroupLockTable) -> Cow<'a, GroupHandle>;
}

impl<'a> HotRow<'a> for &'a GroupHandle {
    fn handle_in(self, _: &GroupLockTable) -> Cow<'a, GroupHandle> {
        Cow::Borrowed(self)
    }
}

impl HotRow<'static> for RecordId {
    fn handle_in(self, table: &GroupLockTable) -> Cow<'static, GroupHandle> {
        Cow::Owned(table.handle(self))
    }
}

/// What [`GroupLockTable::peek`] reads off a hot row's group state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowView {
    /// Current group leader (holder of the real row lock), if any.
    pub leader: Option<TxnId>,
    /// Granted-but-uncommitted transactions in update order.
    pub dep_list: Vec<TxnId>,
    /// Parked hotspot updates, in arrival order.
    pub waiting: Vec<TxnId>,
    /// Transactions doomed to cascade-abort, each with its cause.
    pub doomed: Vec<(TxnId, TxnId)>,
    /// Nothing is registered, parked, leading or rolling back: the entry, if
    /// the row still has one, is collectable.
    pub idle: bool,
}

/// A leader's hot records between [`GroupLockTable::begin_leader_commit`]
/// and [`GroupLockTable::finish_leader_handover`], which steps down on each:
/// the probe's by-record name for [`GroupLockTable::leader_step_down`], with
/// the row locks released in between as `before_order` releases them.
#[derive(Debug)]
pub struct LeaderCommit {
    records: Vec<RecordId>,
}

/// Number of shards for the hot-row entry map, keyed by record.  Each hot
/// row has its own `GroupEntry` mutex, and a transaction goes through the
/// map once per hot row it touches (its [`GroupHandle`]); sharding the map
/// keeps unrelated hot rows' first calls off one mutex.
const ENTRY_SHARDS: usize = 64;

/// One shard of the hot-row entry map.
type EntryShard = CachePadded<Mutex<FxHashMap<u64, Arc<GroupEntry>>>>;

/// The per-hot-row group-locking state (`hot_lock_sys` in the paper).
#[derive(Debug)]
pub struct GroupLockTable {
    config: GroupLockConfig,
    entry_shards: Box<[EntryShard]>,
    /// Written by every grantee; on a line of its own so that the fields
    /// every call reads (configuration, shard table) stay shared.
    global_hot_update_order: CachePadded<AtomicU64>,
    /// Turn-predicate evaluations by waiting transactions (tests pin that a
    /// turn wait checks once per wake-up instead of polling).
    #[cfg(test)]
    turn_checks: AtomicU64,
}

impl GroupLockTable {
    /// Creates a group-lock table.  It counts nothing; `_metrics` stays for
    /// the callers that pass the engine's.
    pub fn new(config: GroupLockConfig, _metrics: Arc<EngineMetrics>) -> Self {
        Self {
            config,
            entry_shards: (0..ENTRY_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(FxHashMap::default())))
                .collect(),
            global_hot_update_order: CachePadded::new(AtomicU64::new(1)),
            #[cfg(test)]
            turn_checks: AtomicU64::new(0),
        }
    }

    #[inline]
    fn entry_shard(&self, record: RecordId) -> &Mutex<FxHashMap<u64, Arc<GroupEntry>>> {
        let shard = fxhash::hash_u64(record.packed()) % ENTRY_SHARDS as u64;
        &self.entry_shards[shard as usize]
    }

    /// Resolves `record`'s group entry through the entry map, creating it if
    /// the row has none.
    fn handle(&self, record: RecordId) -> GroupHandle {
        let mut entries = self.entry_shard(record).lock();
        let _scope = GuardScope::enter();
        let entry = Arc::clone(entries.entry(record.packed()).or_default());
        GroupHandle { record, entry }
    }

    /// Runs `f` on the row's *live* group state.
    ///
    /// Every mutation routes through here.  A handle is held without the
    /// entry's state mutex, so `collect_if_idle` can remove the entry from
    /// the map in between — enqueueing on such an orphan used to strand the
    /// waiter until `hot_wait_timeout` (and could elect two leaders for one
    /// hot row).  GC therefore marks removed entries `dead` under their own
    /// state mutex, and this helper re-validates after locking, going back
    /// through the map until it holds a live entry.
    fn with_state<R>(&self, handle: &GroupHandle, mut f: impl FnMut(&mut GroupState) -> R) -> R {
        let mut replacement: Option<GroupHandle> = None;
        loop {
            let live = replacement.as_ref().unwrap_or(handle);
            {
                let mut state = live.entry.state.lock();
                let _scope = GuardScope::enter();
                if !state.dead {
                    return f(&mut state);
                }
            }
            replacement = Some(self.handle(handle.record));
        }
    }

    /// The one read-only view of a hot row, for tests and failure reports.
    /// It never creates an entry — introspection must not repopulate the map
    /// with empty entries nothing collects — and a row without one reads as
    /// idle.
    pub fn peek(&self, record: RecordId) -> RowView {
        // Shard lock, then state lock: the nesting `collect_if_idle` uses,
        // so an entry found here is live.
        let entries = self.entry_shard(record).lock();
        let Some(entry) = entries.get(&record.packed()) else {
            return RowView {
                idle: true,
                ..RowView::default()
            };
        };
        let state = entry.state.lock();
        RowView {
            leader: state.leader,
            dep_list: state.dep_list.clone(),
            waiting: state.waiting_updates.iter().map(|w| w.txn).collect(),
            doomed: state.doomed.iter().map(|(txn, by)| (*txn, *by)).collect(),
            idle: state.is_idle(),
        }
    }

    /// Collects `record`'s entry if it is idle; returns whether a busy one
    /// remains.  Called where a row may have gone quiet for good — the end of
    /// a rollback, and by the sweeper before it demotes the row — and not
    /// per commit: a live hot row's next writer is about to use the entry
    /// again, and finding that out costs every commit the shard mutex.  An
    /// idle entry therefore outlives its last commit until the sweeper
    /// comes by; a pinned row, which the sweeper never asks about, keeps its
    /// one entry.
    pub fn collect_if_idle(&self, record: RecordId) -> bool {
        // Shard lock first, then the entry's state lock, so the idle check,
        // the dead mark and the map removal are one atomic step.
        let mut entries = self.entry_shard(record).lock();
        let _scope = GuardScope::enter();
        let Some(existing) = entries.get(&record.packed()) else {
            return false;
        };
        let mut state = existing.state.lock();
        if !state.is_idle() {
            return true;
        }
        state.dead = true;
        drop(state);
        entries.remove(&record.packed());
        false
    }

    // ------------------------------------------------------------------
    // Algorithm 1 — Execute
    // ------------------------------------------------------------------

    /// Starts a hotspot update (Algorithm 1, lines 2–6): the transaction's
    /// first call on the row, and the one that resolves its handle.
    ///
    /// When the group exists but nothing is mid-update (the leader is idle
    /// between statements, as in the paper's §4.5 worked example), an
    /// arriving update is granted follower execution immediately instead of
    /// parking.
    pub fn begin_update(&self, txn: TxnId, record: RecordId) -> (GroupHandle, HotExecution) {
        loop {
            let handle = self.handle(record);
            let execution = {
                let mut state = handle.entry.state.lock();
                let _scope = GuardScope::enter();
                if state.dead {
                    continue;
                }
                state.begin(txn, self.config.batch_size)
            };
            return (handle, execution);
        }
    }

    /// [`GroupLockTable::begin_update`] without the handle.
    pub fn begin_hot_update(&self, txn: TxnId, record: RecordId) -> HotExecution {
        self.begin_update(txn, record).1
    }

    /// Waits on `slot` until granted, returning the role, or times out.  A
    /// hand-off wait: the granter is mid-update or mid-commit right now.
    pub fn wait_for_grant<'a>(
        &self,
        txn: TxnId,
        row: impl HotRow<'a>,
        slot: &Arc<WaitSlot>,
    ) -> Result<HotRole> {
        let _ = slot.event().wait_handoff(self.config.hot_wait_timeout);
        // The role is the wake-up's payload; without one the wait timed out,
        // and leaving the queue tells us whether a grant raced the deadline.
        let handle = row.handle_in(self);
        let role = slot.role().or_else(|| self.cancel_wait(txn, &handle));
        let record = handle.record;
        role.ok_or(Error::LockWaitTimeout { txn, record })
    }

    /// Takes a transaction that gave up waiting out of the queue.  When it
    /// is not queued any more the grant (of the update in flight, maybe)
    /// raced the deadline, and it must proceed with the role returned.
    fn cancel_wait(&self, txn: TxnId, handle: &GroupHandle) -> Option<HotRole> {
        self.with_state(handle, |state| {
            match state.waiting_updates.iter().position(|w| w.txn == txn) {
                Some(pos) => {
                    state.waiting_updates.remove(pos);
                    None
                }
                // The role reaches the slot only once the granter has dropped
                // this guard, so read it off the state instead.
                None if state.leader == Some(txn) => Some(HotRole::Leader),
                None => Some(HotRole::Follower),
            }
        })
    }

    /// Draws the next global `hot_update_order` — what a grantee does first.
    /// No state lock: it is the one update in flight on its row, so the
    /// orders of a row's updates ascend along its dependency list.
    pub fn take_hot_update_order(&self) -> u64 {
        self.global_hot_update_order.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers an update by hand (Algorithm 1, lines 7–9): draws a
    /// `hot_update_order` and makes sure the transaction is on the
    /// dependency list — a grantee already is, so for it this only draws.
    /// (No engine caller: the gate's lock-manager probe drives it.)
    pub fn register_update<'a>(&self, txn: TxnId, row: impl HotRow<'a>) -> u64 {
        let order = self.take_hot_update_order();
        self.with_state(&row.handle_in(self), |state| state.register(txn));
        order
    }

    /// Gives a member's later write of its row a flight: its grant if still
    /// open (a `SELECT … FOR UPDATE`), else the row's, taken again while
    /// nothing is in flight and `txn` is the newest member — no later member
    /// read its write — of a row with a leader (`begin`'s lead path and the
    /// last `finish_rollback`'s promotion take a leaderless row for an idle
    /// one).  Otherwise the write is §4.5-prevented behind the member in
    /// flight or the newest.
    pub fn rewrite<'a>(&self, txn: TxnId, row: impl HotRow<'a>) -> Result<()> {
        let handle = row.handle_in(self);
        self.with_state(&handle, |state| {
            if let Some(&cause) = state.doomed.get(&txn) {
                return Err(Error::CascadingAbort { txn, cause });
            }
            let newest = state.dep_list.last().copied();
            let retake = state.executing.is_none() && state.leader.is_some() && newest == Some(txn);
            if retake || state.executing == Some(txn) {
                state.executing = Some(txn);
                return Ok(());
            }
            Err(handle.prevents(txn, state.executing.or(newest).unwrap_or(txn)))
        })
    }

    /// Completes an update and grants the next follower if allowed
    /// (Algorithm 1, lines 11–20) — or, behind a leader that stepped down
    /// meanwhile, completes its hand-over; with nobody granted, nothing is
    /// in flight any more, which is what a rollback turn waits for.  Called
    /// after every write, each in a flight its writer owns, whatever its
    /// role (`_is_leader`).  Wake-ups fire after the state guard is dropped.
    pub fn finish_update<'a>(&self, txn: TxnId, row: impl HotRow<'a>, _is_leader: bool) {
        self.hand_on(row, |state| {
            debug_assert_eq!(state.executing, Some(txn), "{txn} has no grant");
            state.end_update(txn, self.config.batch_size)
        });
    }

    /// Runs `transition` on the row's live state, then — after dropping the
    /// guard — grants the parked update it granted, if any, its role and
    /// wakes the turn waiters whose turn it made.
    fn hand_on<'a>(
        &self,
        row: impl HotRow<'a>,
        mut transition: impl FnMut(&mut GroupState) -> Option<(Arc<WaitSlot>, HotRole)>,
    ) {
        let (granted, woken) = self.with_state(&row.handle_in(self), |state| {
            (transition(state), state.take_ready_waiters())
        });
        if let Some((slot, role)) = granted {
            slot.grant(role);
        }
        woken.fire();
    }

    /// Gives an unused grant back — the row lock could not be taken, a
    /// prevention check objected — together with the registration it came
    /// with, in one transition: `txn` leaves the dependency list, and the
    /// group keeps moving as after a [`GroupLockTable::leader_step_down`]
    /// (leader) or a [`GroupLockTable::finish_update`] (follower).
    pub fn abandon_update<'a>(&self, txn: TxnId, row: impl HotRow<'a>) {
        self.hand_on(row, |state| {
            state.unregister(txn);
            match state.leader == Some(txn) {
                true => {
                    state.executing = None;
                    let promoted = state.step_down();
                    promoted.map(|(_, slot)| (slot, HotRole::Leader))
                }
                false => state.end_update(txn, self.config.batch_size),
            }
        });
    }

    // ------------------------------------------------------------------
    // Algorithm 2 — Commit
    // ------------------------------------------------------------------

    /// The committing leader steps down, after releasing the row lock
    /// (Algorithm 2): with nothing in flight the next waiter is promoted to
    /// leader of a new group at once (lines 7–10); behind a follower's update
    /// in flight the group is marked `switching_new_leader` (lines 2–3) and
    /// the end of that update promotes.  Never waits.  Reports the leader's
    /// commit turn as seen under the same guard — one that is first of the
    /// dependency list goes straight on to order its commit record.  The
    /// leader's own grant — a `SELECT … FOR UPDATE` it never followed with an
    /// update — ends here.  A transaction that does not lead the row (a stale
    /// handle) changes nothing.
    pub fn leader_step_down<'a>(&self, txn: TxnId, row: impl HotRow<'a>) -> HandOver {
        let (promoted, turn) = self.with_state(&row.handle_in(self), |state| {
            let promoted = match state.leader == Some(txn) {
                true if state.executing.is_some_and(|t| t != txn) => {
                    state.switching_new_leader = true;
                    None
                }
                true => {
                    state.executing = None;
                    state.step_down()
                }
                false => None,
            };
            (promoted, state.commit_turn(txn))
        });
        let promoted = promoted.map(|(new_leader, slot)| {
            slot.grant(HotRole::Leader);
            new_leader
        });
        HandOver { promoted, turn }
    }

    /// The start of a leader's commit on all of its hot `records`; nothing
    /// changes until [`GroupLockTable::finish_leader_handover`].
    pub fn begin_leader_commit(&self, _txn: TxnId, records: &[RecordId]) -> LeaderCommit {
        LeaderCommit {
            records: records.to_vec(),
        }
    }

    /// [`GroupLockTable::leader_step_down`] on the records of `commit`;
    /// returns the promotion per record.
    pub fn finish_leader_handover(
        &self,
        txn: TxnId,
        commit: LeaderCommit,
    ) -> Vec<(RecordId, Option<TxnId>)> {
        let step_down = |record| (record, self.leader_step_down(txn, record).promoted);
        commit.records.into_iter().map(step_down).collect()
    }

    /// Waits — parked on the row's turn-waiter list, never polling — until
    /// `txn`'s `turn` has come.  Returns the transaction that doomed it
    /// meanwhile, if any, and how long it waited (zero, and no clock read,
    /// when the turn had already come); four wait budgets without the turn
    /// are a lock-wait timeout.  A hand-off wait: whoever holds the turn up
    /// is running now, and its transition (module docs) fires our event.
    fn wait_turn(
        &self,
        handle: &GroupHandle,
        txn: TxnId,
        turn: Turn,
    ) -> Result<(Option<TxnId>, Duration)> {
        let timeout = self.config.hot_wait_timeout * 4;
        // Our event and when we started, once we had to wait.
        let mut waiting: Option<(Arc<OsEvent>, SimInstant)> = None;
        let verdict = loop {
            let waited = waiting.as_ref().map(|(_, start)| start.elapsed());
            let remaining = timeout.saturating_sub(waited.unwrap_or_default());
            let ready = self.with_state(handle, |state| {
                #[cfg(test)]
                self.turn_checks.fetch_add(1, Ordering::Relaxed);
                if let Some((event, _)) = &waiting {
                    // A waker takes our entry off the list before it fires;
                    // after a timeout it is still there.
                    state
                        .turn_waiters
                        .retain(|waiter| !Arc::ptr_eq(&waiter.event, event));
                }
                if state.turn_ready(txn, turn) {
                    let doomed_by = state.doomed.get(&txn).copied();
                    return Some(Ok((doomed_by, waited.unwrap_or_default())));
                }
                if remaining.is_zero() {
                    let record = handle.record;
                    return Some(Err(Error::LockWaitTimeout { txn, record }));
                }
                let (event, _) =
                    waiting.get_or_insert_with(|| (OsEvent::acquire_pooled(), SimInstant::now()));
                event.reset();
                state.turn_waiters.push(TurnWaiter {
                    txn,
                    turn,
                    event: Arc::clone(event),
                });
                None
            });
            if let Some(verdict) = ready {
                break verdict;
            }
            let (event, _) = waiting.as_ref().expect("registered above");
            let _ = event.wait_handoff(remaining);
        };
        if let Some((event, _)) = waiting {
            OsEvent::recycle(event);
        }
        verdict
    }

    /// Blocks until `txn` may commit (or must cascade-abort), and returns
    /// how long that took.  Woken by the predecessor's
    /// [`GroupLockTable::finish_commit`] /
    /// [`GroupLockTable::finish_rollback`], or by the
    /// [`GroupLockTable::begin_rollback`] that dooms it.
    pub fn wait_commit_turn<'a>(&self, txn: TxnId, row: impl HotRow<'a>) -> Result<Duration> {
        match self.wait_turn(&row.handle_in(self), txn, Turn::Commit)? {
            (Some(cause), _) => Err(Error::CascadingAbort { txn, cause }),
            (None, waited) => Ok(waited),
        }
    }

    /// Finalises a commit: removes `txn` from the dependency list and wakes
    /// the transactions whose turn that makes it (Algorithm 2, lines 11–12)
    /// — after dropping the state guard.  A follower's grant that no update
    /// ended — a `SELECT … FOR UPDATE` alone — ends here, as after
    /// [`GroupLockTable::finish_update`].
    /// A leader has stepped down by then; one whose hand-over is pending
    /// stays `leader` until the update in flight ends, so that no arrival
    /// leads beside that update.
    pub fn finish_commit<'a>(&self, txn: TxnId, row: impl HotRow<'a>) {
        self.hand_on(row, |state| {
            state.unregister(txn);
            state.end_update(txn, self.config.batch_size)
        });
    }

    // ------------------------------------------------------------------
    // Algorithm 3 — Rollback
    // ------------------------------------------------------------------

    /// Starts a rollback of `txn` (Algorithm 3, lines 2–5, plus the §4.4
    /// rollback optimization): pauses granting and dooms every
    /// dependency-list successor (they must cascade-abort first).
    pub fn begin_rollback<'a>(&self, txn: TxnId, row: impl HotRow<'a>) {
        self.hand_on(row, |state| {
            if !state.rolling_back.contains(&txn) {
                state.rolling_back.push(txn);
            }
            // Aborted between its grant and `finish_update`, the transaction
            // ends its own update here, so that its rollback turn does not
            // wait for itself; a pending hand-over completes, promoting
            // nobody inside the pause.
            let granted = state.end_update(txn, self.config.batch_size);
            debug_assert!(granted.is_none(), "granted inside the pause");
            if let Some(at) = state.dep_list.iter().position(|t| *t == txn) {
                for succ in &state.dep_list[at + 1..] {
                    state.doomed.entry(*succ).or_insert(txn);
                }
            }
            granted
        });
    }

    /// Blocks until `txn` is the newest entry of the dependency list and no
    /// grant is in flight (Algorithm 3, lines 6–7).  Woken by a successor's
    /// [`GroupLockTable::finish_rollback`] (or
    /// [`GroupLockTable::finish_commit`]), or by the end of the update in
    /// flight.
    pub fn wait_rollback_turn<'a>(&self, txn: TxnId, row: impl HotRow<'a>) -> Result<()> {
        self.wait_turn(&row.handle_in(self), txn, Turn::Rollback)
            .map(drop)
    }

    /// The last step of a rollback, once storage has undone `txn`'s writes
    /// (Algorithm 3, lines 8–9, and the end of the §4.4 pause), as one
    /// transition: `txn` leaves the dependency list and loses its doomed
    /// mark; if it was the last member rolling back, granting resumes, and
    /// with the row lock left free the next parked update is promoted to
    /// leader so the queue does not stall (returned); the transactions whose
    /// turn this makes it are woken after the state guard is dropped; and a
    /// row left idle gives its entry back.
    pub fn finish_rollback<'a>(&self, txn: TxnId, row: impl HotRow<'a>) -> Option<TxnId> {
        let handle = row.handle_in(self);
        let (promoted, woken, idle) = self.with_state(&handle, |state| {
            state.unregister(txn);
            state.rolling_back.retain(|t| *t != txn);
            // (A leader that stepped down behind an update still in flight
            // stays `leader` until that update ends.)
            if state.leader == Some(txn) && !state.switching_new_leader {
                state.leader = None;
            }
            // Another member may still be between `begin_rollback` and here:
            // granting stays paused until the last of them leaves.
            let resume = !state.paused() && state.leader.is_none();
            let promoted = resume.then(|| state.promote_next_leader()).flatten();
            (promoted, state.take_ready_waiters(), state.is_idle())
        });
        let promoted = promoted.map(|(new_leader, slot)| {
            slot.grant(HotRole::Leader);
            new_leader
        });
        woken.fire();
        if idle {
            self.collect_if_idle(handle.record);
        }
        promoted
    }

    // ------------------------------------------------------------------
    // Deadlock prevention (§4.5); introspection (sweeper, tests)
    // ------------------------------------------------------------------

    /// Before `txn`, a member of the hot `rows`, writes another row.  Doomed
    /// on one of them, it fails fast: every statement from here on is wasted
    /// work, and the aborter's rollback, with granting paused, waits for our
    /// cascade.  Else it does not wait for a cold row held by a peer on one
    /// of its lists (`holders`; a hot target passes none): that would very
    /// likely deadlock, its commit depending on ours or ours on its.  Like
    /// the paper's, the rule is non-directional: waiting even behind a
    /// holder that commits first convoys the row's commit FIFO behind a
    /// cold-lock timeout, which measures far worse than a quick retry.
    pub fn check_cold_wait<'a>(
        &self,
        txn: TxnId,
        rows: impl IntoIterator<Item = &'a GroupHandle>,
        holders: &[TxnId],
    ) -> Result<()> {
        let mut prevented = Ok(());
        for row in rows {
            let peer = self.with_state(row, |state| match state.doomed.get(&txn) {
                Some(&cause) => Err(Error::CascadingAbort { txn, cause }),
                None => {
                    let peer = |h: &&TxnId| **h != txn && state.dep_list.contains(h);
                    Ok(holders.iter().find(peer))
                }
            })?;
            if let (Ok(()), Some(&blocker)) = (&prevented, peer) {
                prevented = Err(row.prevents(txn, blocker));
            }
        }
        prevented
    }

    /// After `txn`, a member of the hot `rows`, was granted `group`: joining
    /// behind a member ordered **after** it on one of them makes a
    /// cross-record commit-order cycle, which the per-record FIFO commit
    /// waits resolve only by timing out, wedging the row for seconds; an
    /// abort (the caller gives the grant back) is one quick retry.  The
    /// members behind `txn` are taken under each row's guard and tested
    /// under `group`'s, never two at once: a join that races past it still
    /// ends at the commit-turn deadline.
    pub fn check_join<'a>(
        &self,
        txn: TxnId,
        group: &GroupHandle,
        rows: impl IntoIterator<Item = &'a GroupHandle>,
    ) -> Result<()> {
        let mut behind_us = Vec::new();
        for row in rows {
            self.with_state(row, |state| {
                if let Some(at) = state.dep_list.iter().position(|t| *t == txn) {
                    behind_us.extend_from_slice(&state.dep_list[at + 1..]);
                }
            });
        }
        let behind = |member: &&TxnId| behind_us.contains(member);
        let blocker = match behind_us.is_empty() {
            true => None,
            false => self.with_state(group, |state| state.dep_list.iter().find(behind).copied()),
        };
        blocker.map_or(Ok(()), |blocker| Err(group.prevents(txn, blocker)))
    }

    /// Hot rows that still have group state — zero once every transaction
    /// that touched a hot row has finished (the leak oracle of the tests).
    pub fn live_groups(&self) -> usize {
        let live = |shard: &EntryShard| {
            let entries = shard.lock();
            entries
                .values()
                .filter(|e| !e.state.lock().is_idle())
                .count()
        };
        self.entry_shards.iter().map(live).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{Hot, HOT};

    /// Parks `txn` behind whatever keeps `HOT` from granting it at once.
    fn parked(g: &GroupLockTable, txn: u64) -> (GroupHandle, Arc<WaitSlot>) {
        match g.begin_update(TxnId(txn), HOT) {
            (handle, HotExecution::Wait(slot)) => (handle, slot),
            (_, granted) => panic!("T{txn} should park, got {granted:?}"),
        }
    }

    #[test]
    fn batch_size_limits_grants_per_group() {
        let config = GroupLockConfig {
            batch_size: 1,
            ..Default::default()
        };
        let g = GroupLockTable::new(config, Arc::default());
        let (leader, _) = g.begin_update(TxnId(1), HOT);
        let ((second, slot2), (_, slot3)) = (parked(&g, 2), parked(&g, 3));
        g.finish_update(TxnId(1), &leader, true);
        assert_eq!(slot2.role(), Some(HotRole::Follower));
        g.finish_update(TxnId(2), &second, false);
        // Batch of 1 exhausted: T3 is not granted as a follower; it leads
        // the next group at the hand-over.
        assert_eq!(slot3.role(), None);
        let promoted = g.leader_step_down(TxnId(1), &leader).promoted;
        assert_eq!(promoted, Some(TxnId(3)));
        assert_eq!(slot3.role(), Some(HotRole::Leader));
        assert_eq!(g.peek(HOT).dep_list, [1, 2, 3].map(TxnId));
    }

    /// The calls only the gate's probe makes (`probe.lockmgr.group_lock.
    /// cycle_ns`: rows named by `RecordId`, registration by hand, the
    /// several-rows commit) are the by-handle transitions under other names.
    #[test]
    fn the_probes_by_record_calls_are_the_by_handle_transitions() {
        let g = GroupLockTable::new(GroupLockConfig::default(), Arc::default());
        let rows = [HOT, RecordId::new(2, 0, 0)];
        let mut last_order = 0;
        for txn in [TxnId(1), TxnId(2)] {
            for row in rows {
                let execution = g.begin_hot_update(txn, row);
                assert!(matches!(execution, HotExecution::Leader), "{execution:?}");
                // Registering on top of the grant changes nothing, and orders
                // ascend across rows.
                let order = g.register_update(txn, row);
                assert!(order > last_order);
                last_order = order;
                assert_eq!(g.peek(row).dep_list, [txn]);
                g.finish_update(txn, row, true);
            }
            let prepared = g.begin_leader_commit(txn, &rows);
            let promotions = g.finish_leader_handover(txn, prepared);
            assert_eq!(promotions, rows.map(|row| (row, None)));
            for row in rows {
                g.wait_commit_turn(txn, row).unwrap();
                g.finish_commit(txn, row);
            }
        }
        assert_eq!(g.live_groups(), 0);
    }

    #[test]
    fn step_down_reports_the_outgoing_leaders_commit_turn() {
        // First of its list: straight on to the commit record.
        let (hot, members) = Hot::group(&[2], None);
        let (g, leader) = (&hot.g, &members[0].handle);
        assert_eq!(g.leader_step_down(TxnId(1), leader).turn, CommitTurn::Ready);
        // The next group's leader behind a member of the last one.
        let next = hot.arrive(TxnId(3)).unwrap();
        assert!(next.leads);
        next.update();
        let blocked = g.leader_step_down(TxnId(3), &next.handle);
        assert_eq!(
            (blocked.promoted, blocked.turn),
            (None, CommitTurn::Blocked)
        );
        // Doomed by a predecessor's rollback meanwhile.
        g.begin_rollback(TxnId(2), &members[1].handle);
        let doomed = CommitTurn::Doomed { cause: TxnId(2) };
        assert_eq!(g.leader_step_down(TxnId(3), &next.handle).turn, doomed);
    }

    /// A leader commits while its follower is mid-update: its step-down
    /// parks on nothing, and the end of the follower's update completes the
    /// hand-over it left pending — the arrival parked behind both leads.
    #[test]
    fn a_leader_commits_past_its_in_flight_follower_whose_update_hands_over() {
        let (hot, members) = Hot::group(&[2], Some(2));
        let (g, leader, follower) = (&hot.g, &members[0], &members[1]);
        let (_, slot) = parked(g, 3);
        let checks = g.turn_checks.load(Ordering::Relaxed);
        leader.commit().unwrap();
        assert_eq!(g.turn_checks.load(Ordering::Relaxed), checks, "parked");
        let row = g.peek(HOT);
        assert_eq!((row.leader, slot.role()), (Some(TxnId(1)), None));
        follower.update();
        assert_eq!(slot.role(), Some(HotRole::Leader));
        assert_eq!(g.peek(HOT).leader, Some(TxnId(3)));
        assert_eq!(g.peek(HOT).dep_list, [2, 3].map(TxnId));
    }

    /// A transaction that is on no list does not keep the entry alive, so the
    /// handle it still holds can go stale; the exploration of that race
    /// (`sim_lock`) only ever makes harmless calls through one, so the rule
    /// itself — `with_state` re-validates against `dead` — is pinned here.
    #[test]
    fn a_handle_held_across_collection_lands_on_the_live_entry() {
        let (hot, members) = Hot::group(&[], None);
        let (g, stale) = (&hot.g, &members[0].handle);
        members[0].commit().unwrap();
        // The row went quiet and its entry was collected; a peer re-created
        // it and leads.
        assert!(!g.collect_if_idle(HOT));
        let peer = hot.arrive(TxnId(2)).unwrap();
        // The stale handle sees, and acts on, the peer's group.
        assert_eq!(g.with_state(stale, |s| s.dep_list.clone()), [TxnId(2)]);
        let step_down = g.leader_step_down(TxnId(1), stale);
        let nothing_to_do = (None, CommitTurn::Ready);
        assert_eq!((step_down.promoted, step_down.turn), nothing_to_do);
        assert_eq!(
            g.peek(HOT).leader,
            Some(TxnId(2)),
            "one leader, the live one"
        );
        peer.update();
        peer.commit().unwrap();
        hot.assert_drained("the peer committed");
    }

    /// The two serial sections of a hot row cost this module one state-mutex
    /// acquisition each — no entry-map shard, nothing else — counted with
    /// the shim's per-thread acquisition counter (debug builds).
    #[cfg(debug_assertions)]
    #[test]
    fn a_woken_follower_takes_one_group_lock_and_a_commit_turn_waiter_two() {
        let (hot, members) = Hot::group(&[], Some(1));
        let (g, leader) = (Arc::clone(&hot.g), members[0].handle.clone());
        let follower = std::thread::spawn(move || {
            let (handle, slot) = parked(&g, 2);
            let role = g.wait_for_grant(TxnId(2), &handle, &slot);
            // Grant → `finish_update`: the order, then the one lock.
            let woken = parking_lot::thread_acquisitions();
            assert_eq!(role, Ok(HotRole::Follower));
            g.take_hot_update_order();
            g.finish_update(TxnId(2), &handle, false);
            let in_grant = parking_lot::thread_acquisitions() - woken;
            // The commit turn behind T1: check and park, woken, re-check.
            let before = parking_lot::thread_acquisitions();
            g.wait_commit_turn(TxnId(2), &handle).unwrap();
            let in_turn = parking_lot::thread_acquisitions() - before;
            g.finish_commit(TxnId(2), &handle);
            (in_grant, in_turn)
        });
        let g = &hot.g;
        while g.peek(HOT).waiting.is_empty() {
            std::thread::yield_now();
        }
        g.finish_update(TxnId(1), &leader, true);
        while g.with_state(&leader, |state| state.turn_waiters.is_empty()) {
            std::thread::yield_now();
        }
        g.finish_commit(TxnId(1), &leader);
        assert_eq!(follower.join().unwrap(), (1, 2));
    }

    /// Runs `wait` on its own thread, lets it park as a turn waiter on
    /// `HOT`, runs `transition`, and returns how often the waiter evaluated
    /// its predicate from then until it returned: 1 for a wait that is woken
    /// by the transition, unbounded for one that polls.
    fn checks_after_parking<R: Send + 'static>(
        g: &Arc<GroupLockTable>,
        wait: impl FnOnce(&GroupLockTable) -> R + Send + 'static,
        transition: impl FnOnce(&GroupLockTable),
    ) -> (R, u64) {
        let waiter = {
            let g = Arc::clone(g);
            std::thread::spawn(move || wait(&g))
        };
        while g.with_state(&g.handle(HOT), |state| state.turn_waiters.is_empty()) {
            std::thread::yield_now();
        }
        let parked_at = g.turn_checks.load(Ordering::Relaxed);
        transition(g);
        let result = waiter.join().unwrap();
        (result, g.turn_checks.load(Ordering::Relaxed) - parked_at)
    }

    /// [`Hot::group`]'s table; these tests name the row by `RecordId`.
    fn group(followers: &[u64], in_flight: Option<u64>) -> Arc<GroupLockTable> {
        Hot::group(followers, in_flight).0.g
    }

    #[test]
    fn rollback_turn_waiter_is_woken_by_each_transition_that_gives_it_the_turn() {
        let turn = |g: &GroupLockTable| g.wait_rollback_turn(TxnId(2), HOT);
        let follows = |g: &GroupLockTable, txn| {
            let execution = g.begin_hot_update(TxnId(txn), HOT);
            assert!(matches!(execution, HotExecution::Follower), "{execution:?}");
        };
        // Newest, but an update granted before the pause is in flight (a
        // predecessor's second one: it is on the list already).
        let g = group(&[2], None);
        follows(&g, 1);
        g.begin_rollback(TxnId(2), HOT);
        let (result, checks) = checks_after_parking(&g, turn, |g| {
            g.finish_update(TxnId(1), HOT, false);
        });
        assert_eq!((result, checks), (Ok(()), 1), "finish_update");
        // A newcomer granted before the pause joined the list with its
        // grant, so the scan doomed it: the end of its update does not give
        // the turn (and wakes nobody), its cascade does.
        let g = group(&[2], None);
        follows(&g, 3);
        g.begin_rollback(TxnId(2), HOT);
        assert_eq!(g.peek(HOT).doomed, [(TxnId(3), TxnId(2))]);
        let (result, checks) = checks_after_parking(&g, turn, |g| {
            g.finish_update(TxnId(3), HOT, false);
            g.finish_rollback(TxnId(3), HOT);
        });
        assert_eq!((result, checks), (Ok(()), 1), "in-flight successor leaves");
        // A doomed successor must leave the dependency list first.
        let roll_back = |g: &GroupLockTable| {
            g.finish_rollback(TxnId(3), HOT);
        };
        let commit = |g: &GroupLockTable| g.finish_commit(TxnId(3), HOT);
        for leave in [roll_back as fn(&GroupLockTable), commit] {
            let g = group(&[2, 3], None);
            g.begin_rollback(TxnId(2), HOT);
            let (result, checks) = checks_after_parking(&g, turn, leave);
            assert_eq!((result, checks), (Ok(()), 1), "successor leaves");
        }
    }

    #[test]
    fn commit_turn_waiter_is_woken_by_its_predecessor_and_by_its_doom() {
        let turn = |g: &GroupLockTable| g.wait_commit_turn(TxnId(2), HOT).map(drop);
        let g = group(&[2], None);
        let (result, checks) = checks_after_parking(&g, turn, |g| {
            g.finish_commit(TxnId(1), HOT);
        });
        assert_eq!((result, checks), (Ok(()), 1), "finish_commit");
        let g = group(&[2], None);
        let (result, checks) = checks_after_parking(&g, turn, |g| {
            g.begin_rollback(TxnId(1), HOT);
        });
        let doomed = Err(Error::CascadingAbort {
            txn: TxnId(2),
            cause: TxnId(1),
        });
        assert_eq!((result, checks), (doomed, 1), "begin_rollback");
    }

    /// The §4.5 checks: a wait for a cold row's holder and a join behind a
    /// member ordered after us elsewhere are prevented only behind a peer on
    /// a shared list (a member doomed on any row cascades first), and a
    /// later write of the row runs in a flight its writer owns — its open
    /// grant, or the row's retaken by the newest member of a led row.
    #[test]
    fn a_write_behind_a_peer_on_a_shared_list_is_prevented() {
        let (hot, members) = Hot::group(&[2], Some(2));
        let (g, t1, t2, t3) = (&hot.g, TxnId(1), TxnId(2), TxnId(3));
        let prevented = |txn, hot_record, blocker| {
            Err(Error::HotspotDeadlockPrevented {
                txn,
                hot_record,
                blocker,
            })
        };
        let (on_hot, row) = ([&members[0].handle], RecordId::new(2, 0, 0));
        let holders = |list: &[TxnId]| g.check_cold_wait(t1, on_hot, list);
        assert_eq!(holders(&[t3, t2]), prevented(t1, HOT, t2));
        assert_eq!(holders(&[t1, t3]), Ok(()));
        // On another row T2 leads and T1 follows, behind its own successor.
        let (t2_on_row, _) = g.begin_update(t2, row);
        g.finish_update(t2, &t2_on_row, true);
        let (t1_on_row, _) = g.begin_update(t1, row);
        assert_eq!(g.check_join(t1, &t1_on_row, on_hot), prevented(t1, row, t2));
        assert_eq!(g.check_join(t2, &t2_on_row, [&members[1].handle]), Ok(()));
        g.begin_rollback(t2, &t2_on_row);
        let both = [&members[0].handle, &t1_on_row];
        let cascade = Err(Error::CascadingAbort { txn: t1, cause: t2 });
        assert_eq!(g.check_cold_wait(t1, both, &[t2]), cascade);
        // T2's grant is open: its write goes in it, T1's would go beside it.
        assert_eq!(
            (g.rewrite(t2, HOT), g.rewrite(t1, HOT)),
            (Ok(()), prevented(t1, HOT, t2))
        );
        members[1].update();
        // Nothing in flight: T2 takes it again, T1 (T2 read its write) not.
        assert_eq!(
            (g.rewrite(t1, HOT), g.rewrite(t2, HOT)),
            (prevented(t1, HOT, t2), Ok(()))
        );
        g.finish_update(t2, HOT, false);
        // Leaderless, an arrival would lead beside the flight.
        members[0].commit().unwrap();
        assert_eq!(g.rewrite(t2, HOT), prevented(t2, HOT, t2));
    }
}
