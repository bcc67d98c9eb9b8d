//! What the lock manager's suites share, so that a schedule shape is said
//! once: a member's whole life on a hot row ([`Member`]), a prepared group
//! ([`Hot::group`]), the drained checks ([`Hot::assert_drained`],
//! [`assert_locks_drained`]), the table constructors and the seed sweep with
//! its `sim-coverage:` line ([`explore`]).  The integration suites include it
//! as `mod support`, the crate's inline tests as `crate::test_support`.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};
use std::time::Duration;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, RecordId, Result, TxnId};
use txsql_lockmgr::group_lock::{
    CommitTurn, GroupHandle, GroupLockConfig, GroupLockTable, HotExecution, HotRole, RowView,
};
use txsql_lockmgr::lock_table::{DeadlockPolicy, Layout, LockTableConfig, RecordLockTable};
use txsql_sim::{ExploreSummary, RunReport};

/// The hot row of the group suites.
pub const HOT: RecordId = RecordId::new(1, 0, 0);

/// Runs `one` per CI seed (`TXSQL_SIM_SEEDS`, by default `0..default_seeds`)
/// and prints the suite's `sim-coverage:` line, whose `classes=` CI holds
/// against a floor.  A failing seed panics inside `one` with its replayable
/// artifact ([`txsql_sim::run_seed`]).
pub fn explore(
    suite: &str,
    default_seeds: u64,
    one: impl FnMut(u64) -> RunReport,
) -> ExploreSummary {
    let summary = txsql_sim::explore_cases(txsql_sim::ci_seeds(default_seeds), one);
    println!("{}", summary.line(suite));
    summary
}

/// Nothing in the group scenarios spends virtual time, so the clock only
/// moves when the scheduler runs out of runnable threads and jumps to a
/// parked waiter's deadline: a wake-up that was lost, even if the timed-out
/// waiter then finds its turn has come.  Each sim thread ends with this.
pub fn assert_no_wait_ran_into_its_deadline() {
    let now = txsql_sim::current().expect("sim thread").now();
    assert_eq!(now, Duration::ZERO, "a parked wait was ended by the clock");
}

/// A lock table of layout `L` that counts into `metrics`.
pub fn lock_table_on<L: Layout>(
    policy: DeadlockPolicy,
    timeout_ms: u64,
    metrics: &Arc<EngineMetrics>,
) -> Arc<RecordLockTable<L>> {
    let config = LockTableConfig {
        deadlock_policy: policy,
        lock_wait_timeout: Duration::from_millis(timeout_ms),
    };
    Arc::new(RecordLockTable::new(config, Arc::clone(metrics)))
}

/// A lock table of layout `L` with metrics of its own.
pub fn lock_table<L: Layout>(policy: DeadlockPolicy, timeout_ms: u64) -> Arc<RecordLockTable<L>> {
    lock_table_on(policy, timeout_ms, &Arc::default())
}

/// Every transaction released everything: no registry entry, no wait-for
/// edge, nobody waiting.
pub fn assert_locks_drained<L: Layout>(table: &RecordLockTable<L>) {
    let left = table.registry().total_entries();
    assert!(table.registry().is_empty(), "registry left {left} entries");
    assert_eq!(table.wait_for_graph().waiting_count(), 0);
}

/// A model of a hot row's storage: the writers of its uncommitted versions,
/// oldest first, for each what it wrote on top of, and whose granted update
/// is in flight.
#[derive(Default)]
struct Chain {
    uncommitted: Vec<TxnId>,
    read_by: Vec<(TxnId, Vec<TxnId>)>,
    in_flight: Option<TxnId>,
}

/// One hot row under test: the group table and the model of
/// the row every member driven through [`Member`] is checked against — a
/// commit leaves the chain from the bottom (§4.3: dependency-list order) and
/// an undo from the top (§4.4: reverse order), so nobody commits on top of a
/// write that was rolled back.
#[derive(Clone)]
pub struct Hot {
    pub g: Arc<GroupLockTable>,
    chain: Arc<Mutex<Chain>>,
}

impl Hot {
    /// [`HOT`] in a fresh table whose waits give up after `timeout_ms`.
    pub fn new(timeout_ms: u64) -> Self {
        let config = GroupLockConfig {
            hot_wait_timeout: Duration::from_millis(timeout_ms),
            ..GroupLockConfig::default()
        };
        Self {
            g: Arc::new(GroupLockTable::new(config, Arc::default())),
            chain: Arc::default(),
        }
    }

    /// A fresh row on which T1 leads and has finished its update, and each
    /// of `followers` was granted in turn and — unless it is `in_flight` —
    /// finished its update too.  Returns the members, T1 first.
    pub fn group(followers: &[u64], in_flight: Option<u64>) -> (Self, Vec<Member>) {
        let hot = Self::new(100);
        let mut members = Vec::new();
        for (position, txn) in std::iter::once(&1).chain(followers).enumerate() {
            let member = hot.arrive(TxnId(*txn)).expect("granted at once");
            assert_eq!(member.leads, position == 0, "T1 leads, the others follow");
            if in_flight != Some(*txn) {
                member.update();
            }
            members.push(member);
        }
        (hot, members)
    }

    /// `txn` arrives at the row (Alg. 1, lines 2–6) and, if it was parked,
    /// waits for its grant; `Err` when that wait gave up.  A leader's
    /// leadership and every member's registration must be visible through
    /// the entry map the moment it is granted — on an orphaned entry they
    /// would not be — and no other granted update may still be in flight.
    pub fn arrive(&self, txn: TxnId) -> Result<Member> {
        let (handle, execution) = self.g.begin_update(txn, HOT);
        let leads = match execution {
            HotExecution::Leader => true,
            HotExecution::Follower => false,
            HotExecution::Wait(slot) => {
                self.g.wait_for_grant(txn, &handle, &slot)? == HotRole::Leader
            }
        };
        let other = self.chain.lock().unwrap().in_flight.replace(txn);
        assert_eq!(other, None, "{txn} granted beside an update in flight");
        let row = self.g.peek(HOT);
        assert!(row.dep_list.contains(&txn), "{txn} granted, not registered");
        assert_eq!(row.leader == Some(txn), leads, "{txn}'s role: {row:?}");
        Ok(Member {
            hot: self.clone(),
            txn,
            handle,
            leads,
        })
    }

    /// `txn`'s whole life on the row, as the engine drives it: arrive,
    /// update, commit.  Returns whether it led.
    pub fn run(&self, txn: TxnId) -> bool {
        let member = self.arrive(txn).unwrap();
        member.update();
        member.commit().unwrap();
        member.leads
    }

    /// Nobody is left on the row: no leader, no dependency-list entry, no
    /// parked update, no doomed mark, nothing that keeps the entry alive —
    /// and no uncommitted version.
    pub fn assert_drained(&self, context: &str) {
        let drained = RowView {
            idle: true,
            ..RowView::default()
        };
        assert_eq!(self.g.peek(HOT), drained, "{context}: row not drained");
        let left = &self.chain.lock().unwrap().uncommitted;
        assert!(left.is_empty(), "{context}: uncommitted versions {left:?}");
    }

    /// `txn`'s granted update lands — before the group hears of it, so the
    /// next grantee finds nothing in flight.
    fn landed(&self, txn: TxnId) {
        (self.chain.lock().unwrap().in_flight).take_if(|flying| *flying == txn);
    }

    /// `txn` writes the row's head, on top of every uncommitted version.
    fn wrote(&self, txn: TxnId) {
        let mut chain = self.chain.lock().unwrap();
        let below = chain.uncommitted.clone();
        chain.read_by.push((txn, below));
        chain.uncommitted.push(txn);
    }

    /// `txn` commits: every version under its own must be gone.  (A member
    /// driven by hand calls this where its commit is ordered.)
    pub fn committed(&self, txn: TxnId) {
        let mut chain = self.chain.lock().unwrap();
        let oldest = chain.uncommitted.first().copied();
        assert_eq!(oldest, Some(txn), "{txn} commits out of order");
        chain.uncommitted.remove(0);
    }

    /// `txn` undoes its write, if it made one: nothing may sit on top of it.
    fn undid(&self, txn: TxnId) {
        let mut chain = self.chain.lock().unwrap();
        if chain.uncommitted.contains(&txn) {
            let newest = chain.uncommitted.pop();
            assert_eq!(newest, Some(txn), "{txn} undoes out of order");
        }
    }

    /// Whether `txn`'s write went on top of an uncommitted one of `writer`.
    fn read_from(&self, txn: TxnId, writer: TxnId) -> bool {
        let read_by = &self.chain.lock().unwrap().read_by;
        let mut reads = read_by.iter();
        reads.any(|(reader, below)| *reader == txn && below.contains(&writer))
    }
}

/// One transaction's life on a hot row, by its handle: leader or follower,
/// granted at once or after a wait ([`Hot::arrive`]), then
/// [`Member::update`], and [`Member::commit`] or [`Member::roll_back`].
#[derive(Clone)]
pub struct Member {
    pub hot: Hot,
    pub txn: TxnId,
    pub handle: GroupHandle,
    pub leads: bool,
}

impl Member {
    /// The granted update (Alg. 1, lines 7–20): writes the row's head, draws
    /// the order and ends the grant.
    pub fn update(&self) {
        self.hot.wrote(self.txn);
        self.hot.g.take_hot_update_order();
        self.hot.landed(self.txn);
        self.hot.g.finish_update(self.txn, &self.handle, self.leads);
    }

    /// Gives the unused grant back (`GroupLocking::join_group` when the row
    /// lock or a prevention check fails): nothing was written.
    pub fn abandon(&self) {
        self.hot.landed(self.txn);
        self.hot.g.abandon_update(self.txn, &self.handle);
    }

    /// Alg. 2 as `GroupLocking::before_order` / `after_order` drive it: a
    /// leader steps down, and believes the step-down's verdict on its turn;
    /// everybody else waits for the turn.  `Err` is the cascade (or the
    /// timeout) the turn wait ended in; nothing was committed then.
    pub fn commit(&self) -> Result<()> {
        let (g, txn) = (&self.hot.g, self.txn);
        let mut turn = CommitTurn::Blocked;
        if self.leads {
            turn = g.leader_step_down(txn, &self.handle).turn;
        }
        if turn != CommitTurn::Ready {
            g.wait_commit_turn(txn, &self.handle)?;
        }
        self.hot.committed(txn);
        g.finish_commit(txn, &self.handle);
        Ok(())
    }

    /// [`Member::commit`] for a member whose predecessor may roll back: a
    /// cascade — the only error allowed, and only behind a transaction whose
    /// uncommitted write it read — is answered by rolling back.  Returns the
    /// transaction that doomed it, if one did.
    pub fn commit_or_cascade(&self) -> Option<TxnId> {
        match self.commit() {
            Ok(()) => None,
            Err(Error::CascadingAbort { cause, .. }) => {
                let dirty = self.hot.read_from(self.txn, cause);
                assert!(
                    dirty,
                    "{} doomed by {cause}, whose write it never read",
                    self.txn
                );
                self.roll_back();
                Some(cause)
            }
            Err(other) => panic!("{}: {other:?}", self.txn),
        }
    }

    /// Alg. 3 as `before_undo` / `after_undo` drive it: doom the successors,
    /// wait for the turn, undo, leave.  Returns what the last step promoted.
    pub fn roll_back(&self) -> Option<TxnId> {
        let (g, txn) = (&self.hot.g, self.txn);
        self.hot.landed(txn);
        g.begin_rollback(txn, &self.handle);
        g.wait_rollback_turn(txn, &self.handle).unwrap();
        self.hot.undid(txn);
        g.finish_rollback(txn, &self.handle)
    }
}
