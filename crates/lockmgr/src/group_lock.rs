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
//! * every executed update is appended to the row's **dependency list**
//!   (`dep_list`) together with a globally increasing `hot_update_order`;
//!   commits must proceed in dependency-list order (§4.3) and rollbacks in
//!   the reverse order (§4.4, cascading aborts);
//! * when the leader commits it stops granting (`switching_new_leader`),
//!   waits for the in-flight granted follower (`granting_new_trx`), releases
//!   the row lock and promotes the next waiter to leader of a fresh group —
//!   or, with the **dynamic batch size** optimization (§4.6.1), releases the
//!   lock without promoting anyone when the queue is empty.
//!
//! The state machine below follows Algorithms 1–3 of the paper; the method
//! names map to the pseudo-code lines noted in their doc comments.
//!
//! ## One waiter list, named wakers
//!
//! A parked *update* waits on its [`WaitSlot`] in `waiting_updates` and is
//! granted by [`GroupLockTable::finish_update`] (follower) or a handover /
//! [`GroupLockTable::resume_granting`] (new leader); the role travels as the
//! wake-up's payload.  Every other wait on a hot row is a wait for a **turn**
//! — a predicate over the group state:
//!
//! * the **commit turn** (§4.3, [`GroupLockTable::wait_commit_turn`]): first
//!   of the dependency list, or doomed;
//! * the leader's **quiesce** (Algorithm 2 lines 2–4,
//!   [`GroupLockTable::begin_leader_commit`]): no granted update in flight;
//! * the **rollback turn** (Algorithm 3 lines 6–7,
//!   [`GroupLockTable::wait_rollback_turn`]): newest of the dependency list,
//!   nothing in flight, no leader switching.
//!
//! All three park on the state's one `turn_waiters` list and nothing polls:
//! a transition that can make a turn's predicate true —
//! [`GroupLockTable::finish_update`], [`GroupLockTable::finish_commit`],
//! [`GroupLockTable::finish_rollback`],
//! [`GroupLockTable::finish_leader_handover`] and
//! [`GroupLockTable::begin_rollback`] — re-evaluates the parked predicates
//! under the state guard it already holds, takes the waiters whose turn has
//! come off the list and fires their events after dropping the guard
//! (wake-outside-lock).  A woken waiter re-checks under the guard, so a turn
//! that was taken away again just parks again.  The waits are hand-off waits
//! ([`OsEvent::wait_handoff`]): the transaction being waited for is running.
//!
//! A leader's commit of several hot rows fetches their group entries with
//! one entry-map shard lock per shard, caches the `Arc`s across
//! [`GroupLockTable::begin_leader_commit`] and
//! [`GroupLockTable::finish_leader_handover`], and promotes every successor
//! leader before firing any wake-up; the `handover_shard_locks` counter
//! records exactly these entry-map takes.

use crate::event::OsEvent;
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::metrics::EngineMetrics;
use txsql_common::pad::CachePadded;
use txsql_common::time::SimInstant;
use txsql_common::{Error, RecordId, Result, TxnId};

/// Fires events collected under a state guard.  Call after dropping it.
fn wake_all(events: Vec<Arc<OsEvent>>) {
    for event in events {
        event.set();
    }
}

/// Configuration of group locking.
#[derive(Debug, Clone)]
pub struct GroupLockConfig {
    /// Maximum number of follower grants per group (the paper's default batch
    /// size is 10).  `0` means unbounded.
    pub batch_size: usize,
    /// Dynamic batch size (§4.6.1): when the waiting queue is empty at
    /// commit, release the lock without nominating a new leader.
    pub dynamic_batch: bool,
    /// How long a queued hotspot update waits before giving up (the timeout
    /// that replaces deadlock detection on hot rows).
    pub hot_wait_timeout: Duration,
}

impl Default for GroupLockConfig {
    fn default() -> Self {
        Self {
            batch_size: 10,
            dynamic_batch: true,
            hot_wait_timeout: Duration::from_millis(500),
        }
    }
}

/// Role a parked transaction is woken with (the wake-up's payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum WokenRole {
    /// Granted execution inside the current group (no locking).
    Follower = 1,
    /// Promoted to leader of a new group (must acquire the row lock).
    NewLeader = 2,
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
    pub fn event(&self) -> &Arc<OsEvent> {
        self.event.as_ref().expect("slot event present until drop")
    }

    /// Role assigned by the waker, if any: the event's payload.
    pub fn role(&self) -> Option<WokenRole> {
        self.event().payload().map(|payload| match payload {
            1 => WokenRole::Follower,
            2 => WokenRole::NewLeader,
            other => unreachable!("wait slot woken with payload {other}"),
        })
    }

    /// Wakes the owner with its role.  Call after dropping the state guard.
    fn grant(&self, role: WokenRole) {
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

/// Outcome of starting a hotspot update.
#[derive(Debug)]
pub enum HotExecution {
    /// The transaction is the group leader: acquire the row lock, then call
    /// [`GroupLockTable::register_update`].
    Leader,
    /// Granted follower execution immediately (no other hotspot update was in
    /// flight): register the update and execute without locking.
    Follower,
    /// Park on the slot; the waker assigns [`WokenRole`].
    Wait(Arc<WaitSlot>),
}

/// Outcome of cancelling a parked wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Successfully removed from the queue.
    Cancelled,
    /// The grant raced ahead: the transaction must proceed with this role.
    AlreadyGranted(WokenRole),
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
    /// No granted update in flight.
    Quiesce,
    /// Newest of the dependency list, nothing in flight, no leader switching.
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
    /// Executed-but-uncommitted transactions in update order.
    dep_list: Vec<TxnId>,
    /// Transactions doomed to cascade-abort, with the causing transaction.
    doomed: FxHashMap<TxnId, TxnId>,
    /// Parked hotspot updates.
    waiting_updates: VecDeque<Waiter>,
    /// Current group leader (holder of the real row lock).
    leader: Option<TxnId>,
    /// Transaction whose hotspot update is currently in flight, if any.
    executing: Option<TxnId>,
    /// `granting_new_trx`: a granted hotspot update has not yet finished.
    granting_new_trx: bool,
    /// `switching_new_leader`: the leader is committing; stop granting.
    switching_new_leader: bool,
    /// Followers granted in the current group (for the batch size).
    granted_in_group: usize,
    /// Server-initiated rollback in progress (§4.4 rollback optimization):
    /// no new grants, no leader handover.
    rollback_pause: bool,
    /// Transactions between `begin_rollback` and `finish_rollback` on this
    /// record (granting stays paused until the last one resumes).
    rolling_back: Vec<TxnId>,
    /// The subset of `rolling_back` whose storage undo has not completed
    /// yet.  An update that registers while this is non-empty may have read
    /// a rolling-back transaction's uncommitted head (it was granted before
    /// the pause and registers after the doom scan), so it is doomed on
    /// registration — otherwise it could commit a value derived from an
    /// aborted write.  Once the undo has run (`mark_undone`) the head is
    /// clean again and later registrants need no doom.
    undo_pending: Vec<TxnId>,
    /// Transactions parked until their turn comes (commit order, leader
    /// quiesce, rollback order).
    turn_waiters: Vec<TurnWaiter>,
    /// Set (under this state's mutex) when `collect_if_idle` removed the
    /// entry from the shard map.  A thread that fetched the entry's `Arc`
    /// *before* the removal discovers the flag after locking and retries
    /// through the map — the fetch-then-lock lifecycle race that used to
    /// orphan waiters.
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

    /// Whether `txn`'s `turn` has come.
    fn turn_ready(&self, txn: TxnId, turn: Turn) -> bool {
        match turn {
            Turn::Commit => {
                self.doomed.contains_key(&txn)
                    || self.dep_list.first().is_none_or(|first| *first == txn)
                    || !self.dep_list.contains(&txn)
            }
            Turn::Quiesce => !self.granting_new_trx,
            Turn::Rollback => {
                self.dep_list.last().is_none_or(|last| *last == txn)
                    && !self.granting_new_trx
                    && !self.switching_new_leader
            }
        }
    }

    /// Takes the parked transactions whose turn has come off the list, for
    /// the caller to wake **after** dropping the state guard
    /// (wake-outside-lock).  Every transition that can make a turn's
    /// predicate true ends with this.
    #[must_use = "fire these events after dropping the state guard"]
    fn take_ready_waiters(&mut self) -> Vec<Arc<OsEvent>> {
        let mut ready = Vec::new();
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

    /// Promotes the next parked update to leader of a fresh group.  The
    /// caller grants the returned slot [`WokenRole::NewLeader`] after
    /// dropping the guard.
    fn promote_next_leader(&mut self, metrics: &EngineMetrics) -> Option<(TxnId, Arc<WaitSlot>)> {
        let waiter = self.waiting_updates.pop_front()?;
        self.leader = Some(waiter.txn);
        self.granted_in_group = 0;
        self.switching_new_leader = false;
        // The new leader's own update is considered in flight until it
        // calls `finish_update`, so nobody can slip in between.
        self.granting_new_trx = true;
        self.executing = Some(waiter.txn);
        metrics.groups_formed.inc();
        Some((waiter.txn, waiter.slot))
    }

    /// One record of [`GroupLockTable::finish_leader_handover`]: `txn` steps
    /// down as leader and the next parked update, if any, is promoted.
    fn hand_over(
        &mut self,
        txn: TxnId,
        metrics: &EngineMetrics,
        new_leaders: &mut Vec<Arc<WaitSlot>>,
    ) -> Option<TxnId> {
        if self.leader == Some(txn) {
            self.leader = None;
            // The committing leader is stepping down: its
            // `switching_new_leader` mark must not outlive it — left set, it
            // blocks every rollback turn on the row until the deadline.
            self.switching_new_leader = false;
        } else if self.leader.is_some() {
            // Another transaction's group already owns this row (our own
            // entry went idle, was GC'd, and the map entry was re-created
            // since): nothing to hand over, and the live group's in-flight
            // flags must not be clobbered.
            return None;
        }
        if self.rollback_pause {
            // No promotion while a rollback is draining; the last
            // `resume_granting` promotes instead.
            return None;
        }
        if let Some((new_leader, slot)) = self.promote_next_leader(metrics) {
            new_leaders.push(slot);
            Some(new_leader)
        } else {
            // Dynamic batch size: release without nominating a leader; the
            // next arrival starts a fresh group immediately.
            self.switching_new_leader = false;
            self.granting_new_trx = false;
            self.executing = None;
            None
        }
    }
}

#[derive(Debug, Default)]
struct GroupEntry {
    state: Mutex<GroupState>,
}

/// Prepared state of a leader's **batched** commit handover: the leader's
/// hot records with their group entries already fetched (one entry-map
/// shard-lock take per shard) and quiesced by
/// [`GroupLockTable::begin_leader_commit`].  Handing this back to
/// [`GroupLockTable::finish_leader_handover`] promotes the next leaders
/// without ever going through the entry map again.
#[derive(Debug)]
pub struct LeaderCommit {
    entries: Vec<(RecordId, Arc<GroupEntry>)>,
}

impl LeaderCommit {
    /// Number of hot records in this commit batch.
    pub fn record_count(&self) -> usize {
        self.entries.len()
    }
}

/// Number of shards for the hot-row entry map.  Each hot row already has
/// its own `GroupEntry` mutex; sharding the *lookup* map keeps unrelated hot
/// rows from contending on one global mutex just to fetch their entry.
///
/// The map is sharded by **page**, not by record: all group-state mutation
/// happens under the per-row `GroupEntry` mutex, so the shard lock is only
/// held to clone an `Arc` out of the map — and page locality is exactly what
/// lets the batched commit handover fetch a leader's co-located hot records
/// with one shard-lock take (hot rows of one flash sale are loaded together
/// and land on the same page).
///
/// Trade: same-page hot rows now share one shard mutex for *every* entry
/// fetch (`begin_hot_update`, `register_update`, `commit_turn`, …), where
/// record-keyed sharding spread them across up to 64 shards.  The hold is a
/// hash plus an `Arc` clone — all group-state mutation still happens under
/// the per-row `GroupEntry` mutex — but workloads hammering several hot rows
/// of one page from many threads pay a new cross-row fetch serialization
/// point in exchange for the amortized commit handover.
const ENTRY_SHARDS: usize = 64;

/// One shard of the hot-row entry map.
type EntryShard = CachePadded<Mutex<FxHashMap<u64, Arc<GroupEntry>>>>;

/// The per-hot-row group-locking state (`hot_lock_sys` in the paper).
#[derive(Debug)]
pub struct GroupLockTable {
    config: GroupLockConfig,
    entry_shards: Box<[EntryShard]>,
    global_hot_update_order: AtomicU64,
    metrics: Arc<EngineMetrics>,
    /// Turn-predicate evaluations by waiting transactions (tests pin that a
    /// turn wait checks once per wake-up instead of polling).
    #[cfg(test)]
    turn_checks: AtomicU64,
}

impl GroupLockTable {
    /// Creates a group-lock table.
    pub fn new(config: GroupLockConfig, metrics: Arc<EngineMetrics>) -> Self {
        Self {
            config,
            entry_shards: (0..ENTRY_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(FxHashMap::default())))
                .collect(),
            global_hot_update_order: AtomicU64::new(1),
            metrics,
            #[cfg(test)]
            turn_checks: AtomicU64::new(0),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &GroupLockConfig {
        &self.config
    }

    #[inline]
    fn entry_shard_index(&self, record: RecordId) -> usize {
        // Page-keyed sharding: see the ENTRY_SHARDS docs.
        let page = record.page();
        let key = ((page.space_id as u64) << 32) | page.page_no as u64;
        (fxhash::hash_u64(key) % ENTRY_SHARDS as u64) as usize
    }

    #[inline]
    fn entry_shard(&self, record: RecordId) -> &Mutex<FxHashMap<u64, Arc<GroupEntry>>> {
        &self.entry_shards[self.entry_shard_index(record)]
    }

    fn entry(&self, record: RecordId) -> Arc<GroupEntry> {
        let mut entries = self.entry_shard(record).lock();
        let _scope = GuardScope::enter();
        Arc::clone(entries.entry(record.packed()).or_default())
    }

    /// Fetches one record's entry on the **commit-handover path**, counting
    /// the entry-map shard take in `handover_shard_locks` (the unbatched
    /// prepare/handover pair pays two of these per record; the batched path
    /// amortizes them across shard groups).
    fn entry_counted(&self, record: RecordId) -> Arc<GroupEntry> {
        self.metrics.handover_shard_locks.inc();
        self.entry(record)
    }

    /// Runs `f` on the record's *live* group state.
    ///
    /// Every public operation routes through here.  The shard map hands out
    /// `Arc<GroupEntry>` clones without holding the entry's state mutex, so a
    /// caller can fetch an entry, lose the CPU, and find that
    /// `collect_if_idle` removed it from the map in between — enqueueing on
    /// such an orphan used to strand the waiter until `hot_wait_timeout`
    /// (and could elect two leaders for one hot row).  GC therefore marks
    /// removed entries `dead` under their own state mutex, and this helper
    /// re-validates after locking, retrying through the map until it holds
    /// a live entry.
    fn with_state<R>(&self, record: RecordId, mut f: impl FnMut(&mut GroupState) -> R) -> R {
        loop {
            let entry = self.entry(record);
            let mut state = entry.state.lock();
            let _scope = GuardScope::enter();
            if state.dead {
                continue;
            }
            return f(&mut state);
        }
    }

    /// Runs `f` on a record's live state through a **cached** entry `Arc`
    /// (the batched commit path fetches entries once per shard group and
    /// reuses them across prepare + handover).  A cached entry that
    /// `collect_if_idle` killed in the meantime is replaced through the map
    /// — one more counted shard take — and the closure retried on the live
    /// entry.
    fn with_cached_state<R>(
        &self,
        record: RecordId,
        entry: &mut Arc<GroupEntry>,
        mut f: impl FnMut(&mut GroupState) -> R,
    ) -> R {
        loop {
            {
                let mut state = entry.state.lock();
                let _scope = GuardScope::enter();
                if !state.dead {
                    return f(&mut state);
                }
            }
            *entry = self.entry_counted(record);
        }
    }

    /// Like [`Self::with_state`], but never creates an entry: read-only
    /// queries and post-timeout cleanup must not resurrect a GC'd row (the
    /// §4.5 prevention check probes `both_updated` on every cold-lock
    /// conflict, which would otherwise repopulate the shard maps with empty
    /// entries nothing collects).  Returns `None` when the row has no live
    /// group state.
    fn with_existing_state<R>(
        &self,
        record: RecordId,
        mut f: impl FnMut(&mut GroupState) -> R,
    ) -> Option<R> {
        loop {
            let entry = {
                let entries = self.entry_shard(record).lock();
                let _scope = GuardScope::enter();
                Arc::clone(entries.get(&record.packed())?)
            };
            let mut state = entry.state.lock();
            let _scope = GuardScope::enter();
            if state.dead {
                continue;
            }
            return Some(f(&mut state));
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
        // Shard lock first, then the entry's state lock (the same nesting
        // order `entry()` + `with_state` compose to), so the idle check, the
        // dead mark and the map removal are one atomic step.
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

    /// Starts a hotspot update (Algorithm 1, lines 2–6).
    ///
    /// `granting_new_trx` doubles as the "a hotspot update is executing right
    /// now" flag: when the group exists but nothing is mid-update (the leader
    /// is idle between statements, as in the paper's §4.5 worked example), an
    /// arriving update is granted follower execution immediately instead of
    /// parking.
    pub fn begin_hot_update(&self, txn: TxnId, record: RecordId) -> HotExecution {
        self.with_state(record, |state| {
            if state.leader.is_none() && state.waiting_updates.is_empty() && !state.rollback_pause {
                state.leader = Some(txn);
                state.switching_new_leader = false;
                state.granted_in_group = 0;
                state.granting_new_trx = true;
                state.executing = Some(txn);
                self.metrics.groups_formed.inc();
                return HotExecution::Leader;
            }
            let batch_open =
                self.config.batch_size == 0 || state.granted_in_group < self.config.batch_size;
            if !state.granting_new_trx
                && !state.switching_new_leader
                && !state.rollback_pause
                && state.waiting_updates.is_empty()
                && state.leader.is_some()
                && batch_open
            {
                state.granting_new_trx = true;
                state.granted_in_group += 1;
                state.executing = Some(txn);
                return HotExecution::Follower;
            }
            let slot = WaitSlot::new();
            state.waiting_updates.push_back(Waiter {
                txn,
                slot: Arc::clone(&slot),
            });
            HotExecution::Wait(slot)
        })
    }

    /// Waits on `slot` until granted, returning the role, or times out.  A
    /// hand-off wait: the granter is mid-update or mid-commit right now.
    pub fn wait_for_grant(
        &self,
        txn: TxnId,
        record: RecordId,
        slot: &Arc<WaitSlot>,
    ) -> Result<WokenRole> {
        let start = SimInstant::now();
        let _ = slot.event().wait_handoff(self.config.hot_wait_timeout);
        // The role is the wake-up's payload; without one the wait timed out,
        // and leaving the queue tells us whether a grant raced the deadline.
        let role = slot
            .role()
            .or_else(|| match self.cancel_hot_wait(txn, record) {
                CancelOutcome::AlreadyGranted(role) => Some(role),
                CancelOutcome::Cancelled => None,
            });
        self.metrics.lock_wait_latency.record(start.elapsed());
        role.ok_or(Error::LockWaitTimeout { txn, record })
    }

    /// Removes a parked transaction that gave up waiting.
    pub fn cancel_hot_wait(&self, txn: TxnId, record: RecordId) -> CancelOutcome {
        self.with_state(record, |state| {
            if let Some(pos) = state.waiting_updates.iter().position(|w| w.txn == txn) {
                state.waiting_updates.remove(pos);
                return CancelOutcome::Cancelled;
            }
            // Not queued any more: the grant raced ahead of us.  Its role
            // reaches the slot only once the granter has dropped this guard,
            // so read it off the state instead.
            if state.leader == Some(txn) {
                CancelOutcome::AlreadyGranted(WokenRole::NewLeader)
            } else {
                CancelOutcome::AlreadyGranted(WokenRole::Follower)
            }
        })
    }

    /// Registers an executed update (Algorithm 1, lines 7–9): assigns the
    /// global `hot_update_order` and appends the transaction to the
    /// dependency list.
    pub fn register_update(&self, txn: TxnId, record: RecordId) -> u64 {
        let order = self.global_hot_update_order.fetch_add(1, Ordering::Relaxed);
        self.with_state(record, |state| {
            if !state.dep_list.contains(&txn) {
                state.dep_list.push(txn);
            }
            // A registrant arriving while an undo is still pending was granted
            // before the pause but slipped past `begin_rollback`'s doom scan:
            // its upcoming read may observe the aborting transaction's head,
            // so it must cascade-abort too (see `GroupState::undo_pending`).
            if let Some(cause) = state.undo_pending.iter().find(|t| **t != txn).copied() {
                state.doomed.entry(txn).or_insert(cause);
            }
        });
        self.metrics.hotspot_group_entries.inc();
        order
    }

    /// Completes an update and grants the next follower if allowed
    /// (Algorithm 1, lines 11–20); with nobody granted, nothing is in flight
    /// any more, which is what a quiescing leader or a rollback turn waits
    /// for.  Wake-ups fire after the state guard is dropped.
    pub fn finish_update(&self, txn: TxnId, record: RecordId, is_leader: bool) {
        let (granted, woken) = self.with_state(record, |state| {
            // Whoever just finished (leader or follower) is no longer
            // mid-update.
            state.granting_new_trx = false;
            state.executing = None;
            if is_leader && state.leader == Some(txn) {
                state.switching_new_leader = false;
            }
            let batch_full =
                self.config.batch_size > 0 && state.granted_in_group >= self.config.batch_size;
            let granted = if state.switching_new_leader || state.rollback_pause || batch_full {
                None
            } else {
                state.waiting_updates.pop_front().map(|waiter| {
                    state.granting_new_trx = true;
                    state.granted_in_group += 1;
                    state.executing = Some(waiter.txn);
                    waiter.slot
                })
            };
            (granted, state.take_ready_waiters())
        });
        if let Some(slot) = granted {
            slot.grant(WokenRole::Follower);
        }
        wake_all(woken);
    }

    // ------------------------------------------------------------------
    // Algorithm 2 — Commit
    // ------------------------------------------------------------------

    /// Fetches the entries for a leader's hot records, grouped by entry
    /// shard: each distinct shard's map lock is taken **once** for all the
    /// records it hosts (counted in `handover_shard_locks`).
    fn fetch_hot_entries(&self, records: &[RecordId]) -> Vec<(RecordId, Arc<GroupEntry>)> {
        let mut keyed: Vec<(usize, RecordId)> = records
            .iter()
            .map(|r| (self.entry_shard_index(*r), *r))
            .collect();
        keyed.sort_unstable();
        let mut entries = Vec::with_capacity(records.len());
        for chunk in keyed.chunk_by(|a, b| a.0 == b.0) {
            self.metrics.handover_shard_locks.inc();
            let mut shard = self.entry_shards[chunk[0].0].lock();
            let _scope = GuardScope::enter();
            for (_, record) in chunk {
                entries.push((
                    *record,
                    Arc::clone(shard.entry(record.packed()).or_default()),
                ));
            }
        }
        entries
    }

    /// Batched leader-side commit preparation (Algorithm 2, lines 2–4, for a
    /// whole commit): fetches every hot record's entry with one shard-lock
    /// take per entry shard, marks each group `switching_new_leader` and
    /// waits — parked as a quiesce turn, woken by the follower's
    /// [`GroupLockTable::finish_update`] — until no granted follower is
    /// mid-update on any of them.  The
    /// returned handle caches the entry `Arc`s so
    /// [`GroupLockTable::finish_leader_handover`] promotes without going back
    /// through the entry map.
    ///
    /// The caller releases the real row locks **between** the two calls —
    /// ideally as one batched `release_record_locks` call — so every promoted
    /// leader finds its row lock free.
    pub fn begin_leader_commit(&self, txn: TxnId, records: &[RecordId]) -> LeaderCommit {
        let mut entries = self.fetch_hot_entries(records);
        for (record, entry) in entries.iter_mut() {
            let quiesced = self.with_cached_state(*record, entry, |state| {
                if state.leader == Some(txn) {
                    state.switching_new_leader = true;
                }
                !state.granting_new_trx
            });
            // The wait budget is per record: one stalled record's vanished
            // follower must not eat later records' budget and force-clear
            // their healthy in-flight followers.
            let budget = self.config.hot_wait_timeout * 4;
            if !quiesced && self.wait_turn(txn, *record, Turn::Quiesce, budget).is_err() {
                // A granted follower disappeared without calling
                // finish_update (it aborted on an unrelated error).  Proceed
                // rather than wedging the whole hot row, and say so.
                self.metrics.abort_causes.record("quiesce_forced");
                wake_all(self.with_cached_state(*record, entry, |state| {
                    state.granting_new_trx = false;
                    state.take_ready_waiters()
                }));
            }
        }
        LeaderCommit { entries }
    }

    /// Batched leader-side handover after the row locks were released
    /// (Algorithm 2, lines 7–10): promotes the next waiter of each prepared
    /// hot record to leader of a new group — reusing the entry `Arc`s cached
    /// by [`GroupLockTable::begin_leader_commit`], no entry-map locks — and
    /// fires every promoted leader's event only after the last state guard
    /// is dropped.  Returns the promotion per record (`None` with the
    /// dynamic batch size when the queue was empty).
    pub fn finish_leader_handover(
        &self,
        txn: TxnId,
        commit: LeaderCommit,
    ) -> Vec<(RecordId, Option<TxnId>)> {
        let LeaderCommit { mut entries } = commit;
        let mut promotions = Vec::with_capacity(entries.len());
        let mut new_leaders: Vec<Arc<WaitSlot>> = Vec::new();
        let mut woken: Vec<Arc<OsEvent>> = Vec::new();
        for (record, entry) in entries.iter_mut() {
            let promoted = self.with_cached_state(*record, entry, |state| {
                let promoted = state.hand_over(txn, &self.metrics, &mut new_leaders);
                // Stepping down cleared `switching_new_leader` (and, with
                // nobody to promote, the in-flight mark).
                woken.append(&mut state.take_ready_waiters());
                promoted
            });
            promotions.push((*record, promoted));
        }
        // Every guard is dropped: fire the promotions and the turns.
        for slot in new_leaders {
            slot.grant(WokenRole::NewLeader);
        }
        wake_all(woken);
        promotions
    }

    /// [`GroupLockTable::begin_leader_commit`] for a single record, with the
    /// cached entry dropped, so a following
    /// [`GroupLockTable::leader_handover`] re-fetches it — the gap the sim
    /// suite's entry-GC race tests explore.
    pub fn leader_prepare_commit(&self, txn: TxnId, record: RecordId) {
        let _ = self.begin_leader_commit(txn, std::slice::from_ref(&record));
    }

    /// Leader-side handover for a single record after releasing the row lock
    /// (Algorithm 2, lines 7–10): promotes the next waiter to leader of a new
    /// group.  Returns the new leader, if any (with the dynamic batch size
    /// there may be none).
    pub fn leader_handover(&self, txn: TxnId, record: RecordId) -> Option<TxnId> {
        let commit = LeaderCommit {
            entries: vec![(record, self.entry_counted(record))],
        };
        self.finish_leader_handover(txn, commit)
            .pop()
            .and_then(|(_, promoted)| promoted)
    }

    /// Asks whether `txn` may commit now (commit-order guarantee, §4.3).
    pub fn commit_turn(&self, txn: TxnId, record: RecordId) -> CommitTurn {
        self.with_state(record, |state| match state.doomed.get(&txn) {
            Some(cause) => CommitTurn::Doomed { cause: *cause },
            None if state.turn_ready(txn, Turn::Commit) => CommitTurn::Ready,
            None => CommitTurn::Blocked,
        })
    }

    /// Waits — parked on the record's turn-waiter list, never polling — until
    /// `txn`'s `turn` has come, and returns the transaction that doomed it
    /// meanwhile, if any; `timeout` without the turn is a lock-wait timeout.
    /// A hand-off wait: whoever holds the turn up is running now, and its
    /// transition (see the module docs) fires our event.
    fn wait_turn(
        &self,
        txn: TxnId,
        record: RecordId,
        turn: Turn,
        timeout: Duration,
    ) -> Result<Option<TxnId>> {
        let deadline = SimInstant::now() + timeout;
        let mut entry = self.entry(record);
        // Our event, once we had to wait.
        let mut event: Option<Arc<OsEvent>> = None;
        let verdict = loop {
            let remaining = deadline.saturating_duration_since(SimInstant::now());
            let ready = self.with_cached_state(record, &mut entry, |state| {
                #[cfg(test)]
                self.turn_checks.fetch_add(1, Ordering::Relaxed);
                if let Some(event) = &event {
                    // A waker takes our entry off the list before it fires;
                    // after a timeout it is still there.
                    state
                        .turn_waiters
                        .retain(|waiter| !Arc::ptr_eq(&waiter.event, event));
                }
                if state.turn_ready(txn, turn) {
                    return Some(Ok(state.doomed.get(&txn).copied()));
                }
                if remaining.is_zero() {
                    return Some(Err(Error::LockWaitTimeout { txn, record }));
                }
                let event = event.get_or_insert_with(OsEvent::acquire_pooled);
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
            let _ = event
                .as_ref()
                .expect("registered above")
                .wait_handoff(remaining);
        };
        if let Some(event) = event {
            OsEvent::recycle(event);
        }
        verdict
    }

    /// Blocks until `txn` may commit (or must cascade-abort).  Woken by the
    /// predecessor's [`GroupLockTable::finish_commit`] /
    /// [`GroupLockTable::finish_rollback`], or by the
    /// [`GroupLockTable::begin_rollback`] that dooms it.
    pub fn wait_commit_turn(&self, txn: TxnId, record: RecordId) -> Result<()> {
        match self.wait_turn(txn, record, Turn::Commit, self.config.hot_wait_timeout * 4)? {
            Some(cause) => Err(Error::CascadingAbort { txn, cause }),
            None => Ok(()),
        }
    }

    /// Finalises a commit: removes `txn` from the dependency list and wakes
    /// the transactions whose turn that makes it (Algorithm 2, lines 11–12)
    /// — after dropping the state guard.
    pub fn finish_commit(&self, txn: TxnId, record: RecordId) {
        let woken = self.with_state(record, |state| {
            state.dep_list.retain(|t| *t != txn);
            state.doomed.remove(&txn);
            if state.leader == Some(txn) {
                // Normally leader_handover already ran; clear defensively so a
                // committed leader can never keep the entry alive (nor its
                // commit-in-progress mark wedge later rollback turns).
                state.leader = None;
                state.switching_new_leader = false;
            }
            state.take_ready_waiters()
        });
        wake_all(woken);
    }

    // ------------------------------------------------------------------
    // Algorithm 3 — Rollback
    // ------------------------------------------------------------------

    /// Starts a rollback of `txn` (Algorithm 3, lines 2–5, plus the §4.4
    /// rollback optimization): pauses granting, dooms every dependency-list
    /// successor and returns them (they must cascade-abort first).
    pub fn begin_rollback(&self, txn: TxnId, record: RecordId) -> Vec<TxnId> {
        let (successors, woken) = self.with_state(record, |state| {
            state.rollback_pause = true;
            if !state.rolling_back.contains(&txn) {
                state.rolling_back.push(txn);
            }
            if !state.undo_pending.contains(&txn) {
                state.undo_pending.push(txn);
            }
            if state.leader == Some(txn) {
                state.switching_new_leader = false;
            }
            if state.executing == Some(txn) {
                // The rolling-back transaction was itself mid-update (it
                // aborted between register and finish): clear the in-flight
                // flag so the rollback-order wait below does not wait for
                // itself.
                state.granting_new_trx = false;
                state.executing = None;
            }
            let successors: Vec<TxnId> = match state.dep_list.iter().position(|t| *t == txn) {
                Some(pos) => state.dep_list[pos + 1..].to_vec(),
                None => Vec::new(),
            };
            for succ in &successors {
                state.doomed.entry(*succ).or_insert(txn);
            }
            (successors, state.take_ready_waiters())
        });
        wake_all(woken);
        successors
    }

    /// Blocks until `txn` is the newest entry of the dependency list, no
    /// grant is in flight and no leader is switching (Algorithm 3, lines
    /// 6–7).  Woken by a successor's [`GroupLockTable::finish_rollback`] (or
    /// [`GroupLockTable::finish_commit`]), the in-flight update's
    /// [`GroupLockTable::finish_update`], or the committing leader's
    /// [`GroupLockTable::finish_leader_handover`].
    pub fn wait_rollback_turn(&self, txn: TxnId, record: RecordId) -> Result<()> {
        self.wait_turn(
            txn,
            record,
            Turn::Rollback,
            self.config.hot_wait_timeout * 4,
        )
        .map(|_| ())
    }

    /// Records that `txn`'s storage undo for `record` has completed: the
    /// record's head no longer carries the aborted write, so transactions
    /// registering from here on read clean data and are not doomed.  Call
    /// between the storage rollback and `finish_rollback`.
    pub fn mark_undone(&self, txn: TxnId, record: RecordId) {
        self.with_state(record, |state| {
            state.undo_pending.retain(|t| *t != txn);
        });
    }

    /// Finalises a rollback: removes `txn` from the dependency list, clears
    /// its doomed mark and wakes the transactions whose turn that makes it
    /// (Algorithm 3, lines 8–9) — after dropping the state guard.
    pub fn finish_rollback(&self, txn: TxnId, record: RecordId) {
        let woken = self.with_state(record, |state| {
            state.dep_list.retain(|t| *t != txn);
            state.rolling_back.retain(|t| *t != txn);
            state.undo_pending.retain(|t| *t != txn);
            state.doomed.remove(&txn);
            if state.leader == Some(txn) {
                state.leader = None;
            }
            state.take_ready_waiters()
        });
        wake_all(woken);
        self.collect_if_idle(record);
    }

    /// Resumes granting after a server-initiated rollback completed (§4.4).
    /// If the row lock was left free, the next parked transaction is promoted
    /// to leader so the queue does not stall.
    pub fn resume_granting(&self, record: RecordId) -> Option<TxnId> {
        let promoted = self.with_state(record, |state| {
            // Another transaction may still be between `begin_rollback` and
            // `finish_rollback` on this record; granting stays paused until
            // the last of them resumes.
            if !state.rolling_back.is_empty() {
                return None;
            }
            state.rollback_pause = false;
            if state.leader.is_none() {
                return state.promote_next_leader(&self.metrics);
            }
            None
        });
        match promoted {
            Some((new_leader, slot)) => {
                // State guard dropped: fire the promotion.
                slot.grant(WokenRole::NewLeader);
                Some(new_leader)
            }
            None => {
                // A rollback that left the row fully idle must not keep the
                // map entry alive.
                self.collect_if_idle(record);
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection (deadlock prevention §4.5, sweeper, tests)
    // ------------------------------------------------------------------

    /// True when both transactions have executed uncommitted updates on this
    /// hot row — the §4.5 deadlock-prevention predicate.
    pub fn both_updated(&self, record: RecordId, a: TxnId, b: TxnId) -> bool {
        self.with_existing_state(record, |state| {
            state.dep_list.contains(&a) && state.dep_list.contains(&b)
        })
        .unwrap_or(false)
    }

    /// Returns the transaction that doomed `txn` on this hot row, if any
    /// (lets the write path cascade-abort at the next statement instead of
    /// running to commit while the paused group waits on it).
    pub fn doomed_cause(&self, txn: TxnId, record: RecordId) -> Option<TxnId> {
        self.with_existing_state(record, |state| state.doomed.get(&txn).copied())
            .flatten()
    }

    /// Current dependency list (update order) of a hot row.
    pub fn dep_list(&self, record: RecordId) -> Vec<TxnId> {
        self.with_existing_state(record, |state| state.dep_list.clone())
            .unwrap_or_default()
    }

    /// True when the hot row still has any group activity.
    pub fn has_activity(&self, record: RecordId) -> bool {
        let entries = self.entry_shard(record).lock();
        entries
            .get(&record.packed())
            .map(|e| !e.state.lock().is_idle())
            .unwrap_or(false)
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

    /// Current leader of the hot row, if any.
    pub fn leader_of(&self, record: RecordId) -> Option<TxnId> {
        let entries = self.entry_shard(record).lock();
        entries
            .get(&record.packed())
            .and_then(|e| e.state.lock().leader)
    }

    /// Number of parked hotspot updates.
    pub fn waiting_len(&self, record: RecordId) -> usize {
        let entries = self.entry_shard(record).lock();
        entries
            .get(&record.packed())
            .map(|e| e.state.lock().waiting_updates.len())
            .unwrap_or(0)
    }

    /// The next value the global hot-update order counter will hand out.
    pub fn next_hot_update_order(&self) -> u64 {
        self.global_hot_update_order.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 0,
    };

    fn table() -> GroupLockTable {
        GroupLockTable::new(GroupLockConfig::default(), Arc::new(EngineMetrics::new()))
    }

    #[test]
    fn first_transaction_becomes_leader() {
        let g = table();
        assert!(matches!(
            g.begin_hot_update(TxnId(1), HOT),
            HotExecution::Leader
        ));
        assert_eq!(g.leader_of(HOT), Some(TxnId(1)));
        let order = g.register_update(TxnId(1), HOT);
        assert!(order >= 1);
        assert_eq!(g.dep_list(HOT), vec![TxnId(1)]);
    }

    #[test]
    fn second_transaction_waits_and_is_granted_as_follower() {
        let g = table();
        assert!(matches!(
            g.begin_hot_update(TxnId(1), HOT),
            HotExecution::Leader
        ));
        g.register_update(TxnId(1), HOT);
        let slot = match g.begin_hot_update(TxnId(2), HOT) {
            HotExecution::Wait(slot) => slot,
            other => panic!("expected Wait, got {other:?}"),
        };
        assert_eq!(g.waiting_len(HOT), 1);
        // Leader finishes its update: follower is granted.
        g.finish_update(TxnId(1), HOT, true);
        assert_eq!(slot.role(), Some(WokenRole::Follower));
        assert!(slot.event().is_set());
        let order2 = g.register_update(TxnId(2), HOT);
        g.finish_update(TxnId(2), HOT, false);
        assert_eq!(g.dep_list(HOT), vec![TxnId(1), TxnId(2)]);
        assert!(order2 > 1);
    }

    #[test]
    fn commit_order_follows_dependency_list() {
        let g = table();
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        let slot2 = match g.begin_hot_update(TxnId(2), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        g.finish_update(TxnId(1), HOT, true);
        assert_eq!(slot2.role(), Some(WokenRole::Follower));
        g.register_update(TxnId(2), HOT);
        g.finish_update(TxnId(2), HOT, false);

        // Txn 2 cannot commit before txn 1.
        assert_eq!(g.commit_turn(TxnId(2), HOT), CommitTurn::Blocked);
        assert!(matches!(g.commit_turn(TxnId(1), HOT), CommitTurn::Ready));
        g.finish_commit(TxnId(1), HOT);
        assert!(matches!(g.commit_turn(TxnId(2), HOT), CommitTurn::Ready));
        g.finish_commit(TxnId(2), HOT);
        assert!(g.dep_list(HOT).is_empty());
        assert!(!g.has_activity(HOT));
    }

    #[test]
    fn leader_handover_promotes_next_waiter_to_new_leader() {
        let g = table();
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        g.finish_update(TxnId(1), HOT, true);
        // The leader is idle, so the next arrival is granted follower
        // execution immediately (the §4.5 worked-example behaviour).
        assert!(matches!(
            g.begin_hot_update(TxnId(2), HOT),
            HotExecution::Follower
        ));
        g.register_update(TxnId(2), HOT);
        g.finish_update(TxnId(2), HOT, false);

        // A third arrives while the leader is committing: it must be parked
        // and promoted to the next group's leader at handover.
        g.leader_prepare_commit(TxnId(1), HOT);
        let slot3 = match g.begin_hot_update(TxnId(3), HOT) {
            HotExecution::Wait(s) => s,
            other => panic!("expected Wait, got {other:?}"),
        };
        let new_leader = g.leader_handover(TxnId(1), HOT);
        assert_eq!(new_leader, Some(TxnId(3)));
        assert_eq!(slot3.role(), Some(WokenRole::NewLeader));
        assert_eq!(g.leader_of(HOT), Some(TxnId(3)));
    }

    #[test]
    fn dynamic_batch_leaves_no_leader_when_queue_empty() {
        let g = table();
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        g.finish_update(TxnId(1), HOT, true);
        g.leader_prepare_commit(TxnId(1), HOT);
        assert_eq!(g.leader_handover(TxnId(1), HOT), None);
        assert_eq!(g.leader_of(HOT), None);
        // Next arrival becomes leader immediately.
        assert!(matches!(
            g.begin_hot_update(TxnId(2), HOT),
            HotExecution::Leader
        ));
    }

    #[test]
    fn batch_size_limits_grants_per_group() {
        let g = GroupLockTable::new(
            GroupLockConfig {
                batch_size: 1,
                ..Default::default()
            },
            Arc::new(EngineMetrics::new()),
        );
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        let slot2 = match g.begin_hot_update(TxnId(2), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        let slot3 = match g.begin_hot_update(TxnId(3), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        g.finish_update(TxnId(1), HOT, true);
        assert_eq!(slot2.role(), Some(WokenRole::Follower));
        g.register_update(TxnId(2), HOT);
        g.finish_update(TxnId(2), HOT, false);
        // Batch of 1 exhausted: txn 3 must NOT be granted as follower.
        assert_eq!(slot3.role(), None);
        // It becomes the next group's leader at handover.
        g.leader_prepare_commit(TxnId(1), HOT);
        assert_eq!(g.leader_handover(TxnId(1), HOT), Some(TxnId(3)));
        assert_eq!(slot3.role(), Some(WokenRole::NewLeader));
    }

    #[test]
    fn batched_handover_amortizes_entry_shard_takes_and_promotes_each_row() {
        let metrics = Arc::new(EngineMetrics::new());
        let g = GroupLockTable::new(GroupLockConfig::default(), Arc::clone(&metrics));
        // Four hot rows on ONE page: page-keyed entry sharding puts them in
        // one shard, so the batched fetch is a single counted take.
        let records: Vec<RecordId> = (0..4).map(|heap| RecordId::new(1, 0, heap)).collect();
        let mut slots = Vec::new();
        for (i, record) in records.iter().enumerate() {
            assert!(matches!(
                g.begin_hot_update(TxnId(1), *record),
                HotExecution::Leader
            ));
            g.register_update(TxnId(1), *record);
            g.finish_update(TxnId(1), *record, true);
            // Park one waiter per row while the leader is idle — force the
            // Wait path by marking the leader committing first.
            g.with_state(*record, |state| state.switching_new_leader = true);
            let slot = match g.begin_hot_update(TxnId(10 + i as u64), *record) {
                HotExecution::Wait(slot) => slot,
                other => panic!("expected Wait, got {other:?}"),
            };
            g.with_state(*record, |state| state.switching_new_leader = false);
            slots.push(slot);
        }

        let takes_before = metrics.handover_shard_locks.get();
        let prepared = g.begin_leader_commit(TxnId(1), &records);
        assert_eq!(prepared.record_count(), 4);
        let promotions = g.finish_leader_handover(TxnId(1), prepared);
        assert_eq!(
            metrics.handover_shard_locks.get() - takes_before,
            1,
            "four same-page rows must resolve in one entry-shard take"
        );
        for ((record, promoted), (i, slot)) in promotions.iter().zip(slots.iter().enumerate()) {
            assert_eq!(
                *promoted,
                Some(TxnId(10 + i as u64)),
                "waiter on {record} must be promoted to leader"
            );
            assert_eq!(slot.role(), Some(WokenRole::NewLeader));
            assert!(slot.event().is_set(), "promotion must fire the event");
            assert_eq!(g.leader_of(*record), Some(TxnId(10 + i as u64)));
        }
        // The unbatched pair pays two counted takes for one record.
        let single = RecordId::new(2, 0, 0);
        let _ = g.begin_hot_update(TxnId(2), single);
        g.register_update(TxnId(2), single);
        g.finish_update(TxnId(2), single, true);
        let takes_before = metrics.handover_shard_locks.get();
        g.leader_prepare_commit(TxnId(2), single);
        g.leader_handover(TxnId(2), single);
        assert_eq!(metrics.handover_shard_locks.get() - takes_before, 2);
    }

    #[test]
    fn rollback_dooms_successors_and_enforces_reverse_order() {
        let g = table();
        // T1 updates, then T3, then T2 (the paper's §4.4 example), following
        // the real grant flow: each follower registers and finishes its
        // update before the next one is granted.
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        let slot3 = match g.begin_hot_update(TxnId(3), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        let slot2 = match g.begin_hot_update(TxnId(2), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        g.finish_update(TxnId(1), HOT, true);
        assert_eq!(slot3.role(), Some(WokenRole::Follower));
        g.register_update(TxnId(3), HOT);
        g.finish_update(TxnId(3), HOT, false);
        assert_eq!(slot2.role(), Some(WokenRole::Follower));
        g.register_update(TxnId(2), HOT);
        g.finish_update(TxnId(2), HOT, false);
        assert_eq!(g.dep_list(HOT), vec![TxnId(1), TxnId(3), TxnId(2)]);

        let doomed = g.begin_rollback(TxnId(1), HOT);
        assert_eq!(doomed, vec![TxnId(3), TxnId(2)]);
        // Successors cascade in reverse order.
        assert!(matches!(
            g.commit_turn(TxnId(2), HOT),
            CommitTurn::Doomed { cause: TxnId(1) }
        ));
        g.finish_rollback(TxnId(2), HOT);
        assert!(matches!(
            g.commit_turn(TxnId(3), HOT),
            CommitTurn::Doomed { cause: TxnId(1) }
        ));
        g.finish_rollback(TxnId(3), HOT);
        // Now T1 is last and may roll back.
        g.wait_rollback_turn(TxnId(1), HOT).unwrap();
        g.finish_rollback(TxnId(1), HOT);
        g.resume_granting(HOT);
        assert!(g.dep_list(HOT).is_empty());
        assert!(!g.has_activity(HOT));
    }

    #[test]
    fn late_registrant_during_rollback_is_doomed() {
        let g = table();
        // T1 is the leader and has an uncommitted update; T2 was granted
        // follower execution but has not registered yet when T1 begins its
        // rollback — the race `begin_rollback`'s doom scan cannot see.
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        g.finish_update(TxnId(1), HOT, true);
        let doomed = g.begin_rollback(TxnId(1), HOT);
        assert!(doomed.is_empty(), "T2 has not registered yet");
        // T2 registers mid-rollback: it may have read T1's doomed head, so it
        // must cascade-abort instead of committing a value derived from it.
        g.register_update(TxnId(2), HOT);
        assert!(matches!(
            g.commit_turn(TxnId(2), HOT),
            CommitTurn::Doomed { cause: TxnId(1) }
        ));
        g.finish_rollback(TxnId(2), HOT);
        g.wait_rollback_turn(TxnId(1), HOT).unwrap();
        g.finish_rollback(TxnId(1), HOT);
        // Granting resumes only once no rollback is in flight.
        g.resume_granting(HOT);
        assert!(!g.has_activity(HOT));
        // A registrant arriving after the rollback fully finished is clean.
        let _ = g.begin_hot_update(TxnId(3), HOT);
        g.register_update(TxnId(3), HOT);
        assert!(matches!(g.commit_turn(TxnId(3), HOT), CommitTurn::Ready));
        g.finish_commit(TxnId(3), HOT);
    }

    #[test]
    fn both_updated_detects_shared_hot_row() {
        let g = table();
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        let _ = g.begin_hot_update(TxnId(2), HOT);
        g.register_update(TxnId(2), HOT);
        assert!(g.both_updated(HOT, TxnId(1), TxnId(2)));
        assert!(!g.both_updated(HOT, TxnId(1), TxnId(9)));
    }

    #[test]
    fn wait_for_grant_times_out_when_never_granted() {
        let g = GroupLockTable::new(
            GroupLockConfig {
                hot_wait_timeout: Duration::from_millis(30),
                ..Default::default()
            },
            Arc::new(EngineMetrics::new()),
        );
        let _ = g.begin_hot_update(TxnId(1), HOT);
        let slot = match g.begin_hot_update(TxnId(2), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        let err = g.wait_for_grant(TxnId(2), HOT, &slot).unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        assert_eq!(g.waiting_len(HOT), 0);
    }

    #[test]
    fn hot_update_order_is_globally_increasing_across_records() {
        let g = table();
        let other = RecordId::new(2, 0, 0);
        let _ = g.begin_hot_update(TxnId(1), HOT);
        let a = g.register_update(TxnId(1), HOT);
        let _ = g.begin_hot_update(TxnId(2), other);
        let b = g.register_update(TxnId(2), other);
        assert!(b > a);
        assert_eq!(g.next_hot_update_order(), b + 1);
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
        while g.with_state(HOT, |state| state.turn_waiters.is_empty()) {
            std::thread::yield_now();
        }
        let parked_at = g.turn_checks.load(Ordering::Relaxed);
        transition(g);
        let result = waiter.join().unwrap();
        (result, g.turn_checks.load(Ordering::Relaxed) - parked_at)
    }

    /// T1 leads `HOT` and has finished its update; each of `followers` was
    /// granted, registered and (unless it is `in_flight`) finished.
    fn group(followers: &[u64], in_flight: Option<u64>) -> Arc<GroupLockTable> {
        let g = Arc::new(table());
        assert!(matches!(
            g.begin_hot_update(TxnId(1), HOT),
            HotExecution::Leader
        ));
        g.register_update(TxnId(1), HOT);
        g.finish_update(TxnId(1), HOT, true);
        for follower in followers {
            assert!(matches!(
                g.begin_hot_update(TxnId(*follower), HOT),
                HotExecution::Follower
            ));
            g.register_update(TxnId(*follower), HOT);
            if in_flight != Some(*follower) {
                g.finish_update(TxnId(*follower), HOT, false);
            }
        }
        g
    }

    #[test]
    fn quiescing_leader_is_woken_by_each_transition_that_ends_the_in_flight_update() {
        let quiesce = |g: &GroupLockTable| g.leader_prepare_commit(TxnId(1), HOT);
        // The granted follower finishes its update.
        let g = group(&[2], Some(2));
        let (_, checks) = checks_after_parking(&g, quiesce, |g| {
            g.finish_update(TxnId(2), HOT, false);
        });
        assert_eq!(checks, 1, "finish_update");
        // The granted follower rolls back mid-update.
        let g = group(&[2], Some(2));
        let (_, checks) = checks_after_parking(&g, quiesce, |g| {
            g.begin_rollback(TxnId(2), HOT);
        });
        assert_eq!(checks, 1, "begin_rollback");
        // A new leader whose row lock failed hands the row on while a
        // former leader (T9) still quiesces.
        let g = Arc::new(table());
        let _ = g.begin_hot_update(TxnId(1), HOT);
        let stale = |g: &GroupLockTable| g.leader_prepare_commit(TxnId(9), HOT);
        let (_, checks) = checks_after_parking(&g, stale, |g| {
            g.leader_handover(TxnId(1), HOT);
        });
        assert_eq!(checks, 1, "finish_leader_handover");
        assert_eq!(g.metrics.abort_causes.get("quiesce_forced"), 0);
    }

    #[test]
    fn rollback_turn_waiter_is_woken_by_each_transition_that_gives_it_the_turn() {
        let turn = |g: &GroupLockTable| g.wait_rollback_turn(TxnId(2), HOT);
        // Newest, but an update granted before the pause is in flight.
        let g = group(&[2], None);
        assert!(matches!(
            g.begin_hot_update(TxnId(3), HOT),
            HotExecution::Follower
        ));
        g.begin_rollback(TxnId(2), HOT);
        let (result, checks) = checks_after_parking(&g, turn, |g| {
            g.finish_update(TxnId(3), HOT, false);
        });
        assert_eq!((result, checks), (Ok(()), 1), "finish_update");
        // A doomed successor must leave the dependency list first.
        for leave in [
            GroupLockTable::finish_rollback,
            GroupLockTable::finish_commit,
        ] {
            let g = group(&[2, 3], None);
            assert_eq!(g.begin_rollback(TxnId(2), HOT), vec![TxnId(3)]);
            let (result, checks) = checks_after_parking(&g, turn, |g| leave(g, TxnId(3), HOT));
            assert_eq!((result, checks), (Ok(()), 1), "successor leaves");
        }
        // The leader is committing (`switching_new_leader`) until it hands
        // over — or rolls back itself.
        let hand_over = |g: &GroupLockTable| {
            g.leader_handover(TxnId(1), HOT);
        };
        let roll_back = |g: &GroupLockTable| {
            g.begin_rollback(TxnId(1), HOT);
        };
        for step_down in [hand_over as fn(&GroupLockTable), roll_back] {
            let g = group(&[2], None);
            g.leader_prepare_commit(TxnId(1), HOT);
            g.begin_rollback(TxnId(2), HOT);
            let (result, checks) = checks_after_parking(&g, turn, step_down);
            assert_eq!((result, checks), (Ok(()), 1), "leader steps down");
        }
    }

    #[test]
    fn commit_turn_waiter_is_woken_by_its_predecessor_and_by_its_doom() {
        let turn = |g: &GroupLockTable| g.wait_commit_turn(TxnId(2), HOT);
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

    #[test]
    fn vanished_follower_is_force_cleared_and_reported() {
        let metrics = Arc::new(EngineMetrics::new());
        let g = GroupLockTable::new(
            GroupLockConfig {
                hot_wait_timeout: Duration::from_millis(5),
                ..Default::default()
            },
            Arc::clone(&metrics),
        );
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        g.finish_update(TxnId(1), HOT, true);
        // T2 is granted and then never heard of again.
        assert!(matches!(
            g.begin_hot_update(TxnId(2), HOT),
            HotExecution::Follower
        ));
        g.leader_prepare_commit(TxnId(1), HOT);
        assert_eq!(metrics.abort_causes.get("quiesce_forced"), 1);
        assert_eq!(g.leader_handover(TxnId(1), HOT), None);
        assert_eq!(g.with_state(HOT, |state| state.turn_waiters.len()), 0);
    }

    #[test]
    fn resume_granting_promotes_waiter_after_rollback() {
        let g = table();
        let _ = g.begin_hot_update(TxnId(1), HOT);
        g.register_update(TxnId(1), HOT);
        let slot2 = match g.begin_hot_update(TxnId(2), HOT) {
            HotExecution::Wait(s) => s,
            _ => unreachable!(),
        };
        g.begin_rollback(TxnId(1), HOT);
        g.wait_rollback_turn(TxnId(1), HOT).unwrap();
        g.finish_rollback(TxnId(1), HOT);
        // While paused, nobody was promoted.
        assert_eq!(slot2.role(), None);
        let promoted = g.resume_granting(HOT);
        assert_eq!(promoted, Some(TxnId(2)));
        assert_eq!(slot2.role(), Some(WokenRole::NewLeader));
    }
}
