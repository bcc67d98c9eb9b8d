//! # txsql-lockmgr
//!
//! The lock manager of the TXSQL reproduction — the subsystem the paper's
//! optimizations actually live in.
//!
//! The crate contains four generations of locking machinery, matching the
//! paper's narrative:
//!
//! 1. [`lock_sys`] — the vanilla InnoDB-style lock system: a hash table
//!    sharded by *page* (`<space_id, page_no>`), a `lock_t`-like request
//!    entry created for **every** acquisition, FIFO wait queues, and
//!    wait-for-graph deadlock detection run while holding the shard mutex.
//!    This is the "MySQL" baseline whose collapse under hotspot load
//!    motivates the paper (Figure 2a).  Inside a shard, requests live in
//!    **per-record queues** (the holder split from the waiter FIFO), so
//!    acquisitions and grants are O(requests on that record) — the
//!    page-level shard mutex remains the faithful bottleneck.
//! 2. [`lightweight`] — the general lock optimization (§3.1.1, "O1"): a
//!    record-keyed `trx_lock_wait` map with many more shards, which only
//!    materialises lock objects when a conflict actually exists.
//! 3. [`queue_lock`] — queue locking for hotspots (§3.2, "O2"): detected hot
//!    rows get a FIFO of waiting transactions *in front of* the lock manager,
//!    woken one at a time by the committing predecessor, with timeouts
//!    instead of deadlock detection.  The FIFO is a ticket queue per key
//!    with an optional bound; `txsql-core`'s admission control is its second
//!    user.
//! 4. [`group_lock`] — group locking (§3.3/§4, "TXSQL"): leader/follower
//!    groups executing serially on uncommitted data without locking, the
//!    dependency list that fixes commit and rollback order, and the
//!    dynamic-batch-size latency optimization.
//!
//! ## One lock-table driver, two layouts
//!
//! Generations 1 and 2 differ in *how a record's lock queue is found and
//! what a grant allocates*, not in what acquiring, waiting for or releasing a
//! record lock means.  The acquire → deadlock-check → enqueue → wait and
//! release → grant → wake drivers therefore exist once, in
//! [`lock_table::RecordLockTable`], over the per-record
//! [`record_queue::RecordQueue`]; [`LockSys`] and [`LightweightLockTable`]
//! are its two monomorphised instantiations.  Every shard holds one map
//! from packed record id to queue; a [`lock_table::Layout`] contributes only
//! the shard hashing (page vs. record), the shard count and its
//! `locks_created` accounting
//! ([`lock_table::Layout::COUNT_UNCONTENDED_GRANTS`]: per acquisition vs.
//! per conflict), the one difference inside a record's queue.  Every record
//! lock is exclusive ([`modes`]): a record has at most one holder and a FIFO
//! of waiters, and a release hands it to the front waiter.  A grant,
//! deadlock check, wake or acquisition-order change lands once and both arms
//! get it; the conformance and differential tests in
//! [`lock_table`] and the sim suites hold the two layouts to the same
//! behaviour.
//!
//! ## Decentralized bookkeeping
//!
//! Whatever the locking generation, the *bookkeeping around* lock state must
//! not become the bottleneck itself (paper §3, Figure 6c/6d; Ren et al. make
//! the same point for multicore OLTP generally).  Three design rules keep
//! every hot path free of global mutexes:
//!
//! * **Per-transaction lock lists are sharded by `TxnId`** in the
//!   [`registry::TxnLockRegistry`]: acquisition appends `(txn, record)` to
//!   the transaction's own cache-padded shard (an unsorted append log, one
//!   entry per lock or wait), and `release_all` takes the whole entry out
//!   with one shard lock — there is no global `txn_locks` map to serialize
//!   on.  Registry size is observable via the `lock_registry_entries` gauge
//!   and `locks_released` counter in `EngineMetrics`.
//! * **Release is batched per shard**: `release_all` and the
//!   `release_record_locks` batch API (Bamboo's early lock release, the
//!   group leader's hot-row handover) group a transaction's records by
//!   lock-table shard — by page in the page layout, since a page's rows
//!   share a shard — take each shard mutex once, and drain the registry
//!   bookkeeping with one registry-shard lock per batch
//!   ([`registry::TxnLockRegistry::forget_records_in`]).  The
//!   `release_shard_locks` counter in `EngineMetrics` makes the amortization
//!   observable.
//! * **The wait-for graph is sharded by waiter** ([`deadlock`]): a
//!   transaction waits for at most one lock at a time, so its out-edge set
//!   lives in a per-waiter-shard slot; `set_waits_for` / `clear_waits_of`
//!   never contend across unrelated waiters, a release sweeps the graph only
//!   when a record it released has waiters, and the cycle DFS takes
//!   per-shard guards one node at a time.  The request whose wait closes a
//!   cycle dies: the graph had no cycle before that wait, so every cycle it
//!   closes runs through the requester.
//! * **Uncontended grants allocate nothing**: a request that does not wait
//!   carries no `OsEvent` (a holder is a transaction id, and only waiters
//!   carry request objects), and requests that *do* wait draw their event
//!   from a thread-local free list
//!   ([`event::OsEvent::acquire_pooled`] / [`event::OsEvent::recycle`]) —
//!   an event is only pooled again once its `Arc` is unique, so a recycled
//!   event can never receive a stale wake.
//!
//! ## The uncontended fast path
//!
//! The zero-conflict acquire/release cycle — the path every cold record
//! takes, and the one the contended optimizations must not tax — is kept
//! allocation- and contention-minimal end to end:
//!
//! * **inline holder, lazy waiters**: a [`record_queue::RecordQueue`]
//!   stores its one holder inline and has no waiter deque at all until the
//!   first conflict boxes one into existence — an uncontended
//!   acquire/release cycle performs **zero heap allocations** in either lock
//!   table;
//! * **per-transaction metrics scratch**: the per-cycle counters
//!   (`locks_created`, `locks_released`, `release_shard_locks`) go to a
//!   `Cell`-based [`MetricsScratch`](txsql_common::metrics::MetricsScratch) — the
//!   transaction's, flushed to `EngineMetrics` once when it drops, so abort
//!   paths lose nothing — instead of hammering shared atomics 2+ times per
//!   cycle; the lock tables' `*_in` entry points (`lock_record_in`,
//!   `release_all_in`, `release_record_locks_in`) take the scratch, and the
//!   names without `_in` count through one attached to the table's metrics;
//! * **append-log registry inserts**: [`registry::TxnLockRegistry`] records
//!   an acquisition with a plain `Vec::push`; the release paths group the
//!   records by lock-table shard themselves, so nothing is kept sorted.
//!
//! The same pass made the **wake-outside-lock** rule uniform and checked:
//! every path that wakes a waiter (grant scans, batched release, the group
//! tables' follower grants, leader step-down and turn-waiter wakes)
//! collects its events under the shard/state guard and fires them after
//! dropping it, and `OsEvent::set` debug-asserts the calling thread holds no
//! lockmgr guard (the private `wake_check` module).
//!
//! ## Group locking
//!
//! [`group_lock`]'s module doc is the one account of a hot row's group
//! state: one handle per transaction and row, granting registers, every
//! write in a flight its writer owns, fused commit and rollback transitions,
//! and the §4.5 prevention rules, each evaluated under the row's state
//! guard.  The counts a group produces between a grant and the update it
//! admits go to the transaction's `MetricsScratch`, like the lock tables'
//! per-cycle counters.
//!
//! Supporting modules: [`record_queue`] (the shared per-record queue core),
//! [`event`] (the engine's one wait primitive: a state word that carries the
//! wake payload, a `set` that skips the condvar when nobody is parked, and
//! hand-off waits that spin briefly before parking while I/O waits park at
//! once — nothing in this crate polls), [`modes`] (the one lock mode),
//! [`deadlock`] (the sharded wait-for graph), [`registry`] (the
//! per-transaction lock registry) and [`hotspot`] (hotspot detection and
//! the `hot_row_hash` shared by queue and group locking: one sharded map
//! holding one entry per hot row).
//!
//! ## Deterministic testing
//!
//! Everything in this crate is interleaving-sensitive, and a 1-CPU CI box
//! essentially never preempts a microsecond critical section — organic
//! dangerous schedules simply do not occur.  The crate is therefore fully
//! explorable under the `txsql-sim` cooperative scheduler:
//!
//! * blocking acquisitions of the `parking_lot` shim's `Mutex`/`RwLock` are
//!   yield points, and contended acquisitions park the logical thread in the
//!   scheduler instead of the OS;
//! * [`event::OsEvent::wait`]/`wait_for`/`wait_handoff`/`set` route the same
//!   way (one tagged scheduling point per wait, no spin), with timed waits
//!   parked on the scheduler's **virtual clock**;
//! * every deadline in this crate (`lock_wait_timeout`, `hot_wait_timeout`
//!   and their multiples) is computed with `txsql_common::time::SimInstant`,
//!   which reads the virtual clock inside a sim run — timeout paths fire
//!   deterministically instead of depending on wall-clock races.
//!
//! There is no `#[cfg]` split: the exact code that ships is the code the
//! simulator schedules.  `crates/lockmgr/tests/sim_lock.rs` explores the
//! grant/timeout/GC interleavings (including regression tests for the
//! `group_lock` entry-lifecycle race) across hundreds of seeded schedules;
//! its scenarios, the inline tests and `tests/stress.rs` share one member
//! driver, one group builder and the drained checks (`tests/support`).  See
//! `crates/sim/README.md` for how to write a sim test and replay a failing
//! seed.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod deadlock;
pub mod event;
pub mod group_lock;
pub mod hotspot;
pub mod lightweight;
pub mod lock_sys;
pub mod lock_table;
pub mod modes;
pub mod queue_lock;
pub mod record_queue;
pub mod registry;
mod wake_check;

pub use deadlock::WaitForGraph;
pub use event::OsEvent;
pub use group_lock::{GroupLockTable, HotExecution};
pub use hotspot::{HotspotConfig, HotspotRegistry};
pub use lightweight::LightweightLockTable;
pub use lock_sys::LockSys;
pub use lock_table::{DeadlockPolicy, LockTableConfig, RecordLockTable};
pub use modes::LockMode;
pub use queue_lock::QueueLockTable;
pub use record_queue::RecordQueue;
pub use registry::TxnLockRegistry;

/// The suites' shared drivers (`tests/support`), for the inline tests; it
/// names this crate the way the integration suites do.
#[cfg(test)]
extern crate self as txsql_lockmgr;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod test_support;
