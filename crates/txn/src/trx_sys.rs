//! The transaction system: id allocation, commit sequence numbers and
//! read-view creation.
//!
//! `TrxSys` is the moral equivalent of InnoDB's `trx_sys`: it hands out
//! transaction ids at `BEGIN` and commit sequence numbers (`trx_no`) at
//! commit.  Read views are created here in the mode the system was built
//! with (§3.1.2).  A copy-free view is the commit horizon, one atomic load,
//! so a copy-free system keeps no list of active transactions: `begin` is
//! one `fetch_add`, and a transaction that finishes without a `trx_no` (a
//! reader, a rollback) takes no lock.  Only a copying system keeps the
//! classic active transaction list, and its views lock and copy it, so that
//! the overhead the paper describes is measurable.
//!
//! It also publishes the **purge floor** storage truncates version chains to
//! at commit: the highest `trx_no` such that every transaction given a
//! `trx_no` at or below it has finished.  Whatever a chain keeps at or below
//! the floor is then visible to every read view created from now on, in
//! either mode — its writer is in no active list and at or below any horizon
//! (see `txsql_storage::version`).

use crate::readview::{ReadView, ReadViewMode};
use crate::transaction::Transaction;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txsql_common::fxhash::FxHashSet;
use txsql_common::metrics::EngineMetrics;
use txsql_common::TxnId;
use txsql_lockmgr::registry::TxnLockRegistry;

/// What `allocate_trx_no` and a writer's `finish` keep under one mutex (and,
/// in a copying system only, `begin` and every `finish`).
#[derive(Debug, Default)]
struct Active {
    /// The classic active transaction list, locked and copied by copying
    /// views.  Empty in a copy-free system, which never reads it.
    ids: FxHashSet<TxnId>,
    /// One flag per `trx_no` above the purge floor, oldest first (entry `i`
    /// is `floor + 1 + i`): `true` once the transaction it was handed to has
    /// finished.  The floor advances over the finished prefix.
    finished: VecDeque<bool>,
}

/// The transaction system.
#[derive(Debug)]
pub struct TrxSys {
    next_txn_id: AtomicU64,
    /// Newest commit sequence number handed out (the copy-free visibility
    /// horizon — effectively the global `del_ts` clock).
    max_committed_trx_no: AtomicU64,
    active: Mutex<Active>,
    /// See the module doc.  Written under `active`, after the finishing
    /// transaction advanced the horizon; the `Release` store pairs with
    /// storage's `Acquire` load.  The next `trx_no` to hand out is
    /// `floor + 1 + finished.len()`.
    purge_floor: Arc<AtomicU64>,
    read_view_mode: ReadViewMode,
    /// Lock registries checked at transaction teardown: `finish` asserts (in
    /// debug builds) that `release_all` drained the finished transaction's
    /// bookkeeping, so leaks surface at the transaction that caused them.
    lock_registries: Vec<Arc<TxnLockRegistry>>,
    /// Engine metrics handle threaded into every transaction at `begin` so
    /// its per-transaction scratch can flush on drop.
    engine_metrics: Option<Arc<EngineMetrics>>,
}

impl TrxSys {
    /// Creates a transaction system using the given read-view mode; only a
    /// `Copying` one keeps the active transaction list.
    pub fn new(read_view_mode: ReadViewMode) -> Self {
        Self {
            next_txn_id: AtomicU64::new(1),
            max_committed_trx_no: AtomicU64::new(0),
            active: Mutex::default(),
            purge_floor: Arc::default(),
            read_view_mode,
            lock_registries: Vec::new(),
            engine_metrics: None,
        }
    }

    /// Attaches the lock registries whose drained state `finish` asserts.
    pub fn with_lock_registries(mut self, registries: Vec<Arc<TxnLockRegistry>>) -> Self {
        self.lock_registries = registries;
        self
    }

    /// Seeds the id and commit-sequence counters — used when rebuilding the
    /// transaction system after crash recovery, so a restarted engine never
    /// re-issues a transaction id or `trx_no` that appears in the recovered
    /// log.  The copy-free visibility horizon and the purge floor start at
    /// `next_trx_no - 1` (everything recovered as committed is visible).
    pub fn with_start(self, next_txn_id: u64, next_trx_no: u64) -> Self {
        self.next_txn_id
            .store(next_txn_id.max(1), Ordering::Relaxed);
        self.max_committed_trx_no
            .store(next_trx_no.max(1) - 1, Ordering::Relaxed);
        self.purge_floor
            .store(next_trx_no.max(1) - 1, Ordering::Relaxed);
        self
    }

    /// Attaches the engine metrics every transaction's scratch flushes to.
    pub fn with_engine_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.engine_metrics = Some(metrics);
        self
    }

    /// True when views copy the active transaction list, which is then kept.
    fn copying(&self) -> bool {
        self.read_view_mode == ReadViewMode::Copying
    }

    /// Starts a transaction: allocates an id and, in a copying system,
    /// registers it active.  The transaction's metrics scratch is attached
    /// to the engine metrics when configured
    /// ([`TrxSys::with_engine_metrics`]).
    pub fn begin(&self) -> Transaction {
        let id = TxnId(self.next_txn_id.fetch_add(1, Ordering::Relaxed));
        if self.copying() {
            self.active.lock().ids.insert(id);
        }
        match &self.engine_metrics {
            Some(metrics) => Transaction::attached_to(id, Arc::clone(metrics)),
            None => Transaction::new(id),
        }
    }

    /// Allocates a commit sequence number for a committing transaction.  It
    /// holds the purge floor back until [`TrxSys::finish`] is told it
    /// committed; a number that never is (only a crashed or read-only engine
    /// fails between the two) pins the floor, which stops purge and nothing
    /// else.
    pub fn allocate_trx_no(&self) -> u64 {
        let mut active = self.active.lock();
        active.finished.push_back(false);
        self.purge_floor.load(Ordering::Relaxed) + active.finished.len() as u64
    }

    /// The purge floor, shared with the storage engine that truncates
    /// version chains to it (`Storage::with_purge_floor`).
    pub fn purge_floor(&self) -> &Arc<AtomicU64> {
        &self.purge_floor
    }

    /// Marks a transaction finished.  For commits, pass the `trx_no` it
    /// committed with (this advances the copy-free visibility horizon — the
    /// transaction's `del_ts` — and then the purge floor); for rollbacks and
    /// transactions that wrote nothing pass `None`, which in a copy-free
    /// system takes no lock.
    pub fn finish(&self, txn: TxnId, committed_trx_no: Option<u64>) {
        if self.copying() || committed_trx_no.is_some() {
            let mut active = self.active.lock();
            if self.copying() {
                active.ids.remove(&txn);
            }
            if let Some(no) = committed_trx_no {
                self.max_committed_trx_no.fetch_max(no, Ordering::AcqRel);
                let floor = self.purge_floor.load(Ordering::Relaxed);
                let slot = no
                    .checked_sub(floor + 1)
                    .and_then(|i| usize::try_from(i).ok());
                if let Some(done) = slot.and_then(|i| active.finished.get_mut(i)) {
                    *done = true;
                }
                let prefix = active.finished.iter().take_while(|done| **done).count();
                active.finished.drain(..prefix);
                self.purge_floor
                    .store(floor + prefix as u64, Ordering::Release);
            }
        }
        // A finished transaction must not keep registry entries alive:
        // release_all already drained them, so this is a debug-only check
        // (one lookup in the transaction's own shard).  Removing leftovers
        // here would hide the leak — the page-queue/holder entries they
        // refer to would stay behind silently.
        if cfg!(debug_assertions) {
            for registry in &self.lock_registries {
                debug_assert_eq!(
                    registry.record_count_of(txn),
                    0,
                    "transaction {txn} finished with lock bookkeeping still registered"
                );
            }
        }
    }

    /// Newest committed `trx_no` (the copy-free horizon).
    pub fn commit_horizon(&self) -> u64 {
        self.max_committed_trx_no.load(Ordering::Acquire)
    }

    /// Creates a read view for `owner` in the configured mode.
    pub fn read_view(&self, owner: TxnId) -> ReadView {
        self.read_view_in_mode(owner, self.read_view_mode)
    }

    /// Creates a read view in an explicit mode (used by the ablation bench).
    /// A `Copying` view needs a copying system: a copy-free one keeps no
    /// active list to copy.
    pub fn read_view_in_mode(&self, owner: TxnId, mode: ReadViewMode) -> ReadView {
        match mode {
            ReadViewMode::Copying => {
                debug_assert!(self.copying(), "a copy-free system keeps no active list");
                // Lock and copy the active list — the cost §3.1.2 eliminates.
                let active_ids = self.active.lock().ids.clone();
                ReadView::Copying {
                    active_ids,
                    low_limit: TxnId(self.next_txn_id.load(Ordering::Relaxed)),
                    owner,
                }
            }
            ReadViewMode::CopyFree => ReadView::CopyFree {
                commit_horizon: self.commit_horizon(),
                owner,
            },
        }
    }
}

impl Default for TrxSys {
    fn default() -> Self {
        Self::new(ReadViewMode::CopyFree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_storage::VisibilityJudge;

    #[test]
    fn begin_assigns_increasing_ids() {
        let sys = TrxSys::default();
        let a = sys.begin();
        let b = sys.begin();
        assert!(b.id > a.id);
    }

    #[test]
    fn finish_asserts_registries_drained() {
        let registry = Arc::new(TxnLockRegistry::new(8));
        let sys =
            TrxSys::new(ReadViewMode::CopyFree).with_lock_registries(vec![Arc::clone(&registry)]);
        // Clean teardown passes the drained-registry check.
        let t = sys.begin();
        sys.finish(t.id, None);
        assert!(registry.is_empty());
        // A leaked entry is loud in debug builds (and deliberately left
        // intact rather than silently dropped — it still refers to live
        // lock-table state).
        if cfg!(debug_assertions) {
            let t2 = sys.begin();
            registry.remember_record(t2.id, txsql_common::RecordId::new(1, 0, 0));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sys.finish(t2.id, None);
            }));
            assert!(caught.is_err(), "debug build must flag leaked bookkeeping");
            assert_eq!(
                registry.record_count_of(t2.id),
                1,
                "leftover must not be dropped"
            );
        }
    }

    #[test]
    fn with_start_seeds_counters_past_recovered_ids() {
        let sys = TrxSys::default().with_start(42, 17);
        let t = sys.begin();
        assert_eq!(t.id, TxnId(42));
        assert_eq!(sys.allocate_trx_no(), 17);
        // Everything recovered as committed (trx_no <= 16) is visible.
        assert_eq!(sys.commit_horizon(), 16);
        sys.finish(t.id, None);
    }

    #[test]
    fn purge_floor_is_the_finished_prefix_of_allocated_trx_nos() {
        let sys = TrxSys::default().with_start(1, 11);
        let floor = || sys.purge_floor().load(Ordering::Acquire);
        let (a, b, c) = (sys.begin(), sys.begin(), sys.begin());
        assert_eq!(floor(), 10);
        let (no_a, no_b, no_c) = (
            sys.allocate_trx_no(),
            sys.allocate_trx_no(),
            sys.allocate_trx_no(),
        );
        assert_eq!((no_a, no_b, no_c), (11, 12, 13));
        // Out of order: 12 finished, 11 still active — the floor waits.
        sys.finish(b.id, Some(no_b));
        assert_eq!((floor(), sys.commit_horizon()), (10, 12));
        sys.finish(a.id, Some(no_a));
        assert_eq!(floor(), 12);
        // A rollback neither advances nor blocks it.
        sys.finish(sys.begin().id, None);
        sys.finish(c.id, Some(no_c));
        assert_eq!(floor(), 13);
        assert_eq!(sys.allocate_trx_no(), 14);
    }

    #[test]
    fn commit_horizon_advances_with_commits() {
        let sys = TrxSys::default();
        let t = sys.begin();
        assert_eq!(sys.commit_horizon(), 0);
        let no = sys.allocate_trx_no();
        sys.finish(t.id, Some(no));
        assert_eq!(sys.commit_horizon(), no);
        // Rollbacks do not advance the horizon.
        let t2 = sys.begin();
        sys.finish(t2.id, None);
        assert_eq!(sys.commit_horizon(), no);
    }

    #[test]
    fn copying_view_snapshot_isolates_concurrent_commits() {
        let sys = TrxSys::new(ReadViewMode::Copying);
        let writer = sys.begin();
        let reader = sys.begin();
        let view = sys.read_view(reader.id);
        // Writer commits after the view was created.
        let no = sys.allocate_trx_no();
        sys.finish(writer.id, Some(no));
        // Its version is still invisible to the old view.
        assert!(!view.is_visible(writer.id, Some(no)));
        // A fresh view sees it.
        let fresh = sys.read_view(reader.id);
        assert!(fresh.is_visible(writer.id, Some(no)));
    }

    #[test]
    fn copy_free_view_snapshot_isolates_concurrent_commits() {
        let sys = TrxSys::new(ReadViewMode::CopyFree);
        let writer = sys.begin();
        let reader = sys.begin();
        let view = sys.read_view(reader.id);
        let no = sys.allocate_trx_no();
        sys.finish(writer.id, Some(no));
        assert!(!view.is_visible(writer.id, Some(no)));
        let fresh = sys.read_view(reader.id);
        assert!(fresh.is_visible(writer.id, Some(no)));
    }

    #[test]
    fn both_modes_agree_on_visibility_of_settled_history() {
        let sys = TrxSys::new(ReadViewMode::Copying);
        let writer = sys.begin();
        let no = sys.allocate_trx_no();
        sys.finish(writer.id, Some(no));
        let reader = sys.begin();
        let copying = sys.read_view_in_mode(reader.id, ReadViewMode::Copying);
        let copy_free = sys.read_view_in_mode(reader.id, ReadViewMode::CopyFree);
        assert!(copying.is_visible(writer.id, Some(no)));
        assert!(copy_free.is_visible(writer.id, Some(no)));
        // An uncommitted write from a later transaction is invisible to both.
        let other = sys.begin();
        assert!(!copying.is_visible(other.id, None));
        assert!(!copy_free.is_visible(other.id, None));
    }
}
