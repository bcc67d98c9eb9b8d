//! The commit pipeline: a serial flush stage with leader hand-off, an
//! ordered ship, and an ack wait that overlaps the next batch's flush.
//!
//! The expensive part of a commit is the *sync*: an fsync plus, in semi-sync
//! replication, a round trip to the replicas.  Group commit (Figure 5c, §4.3)
//! lets the transactions that queued up behind one slow sync leave together,
//! one sync per batch instead of one per transaction (Figure 5b).
//!
//! ```text
//!            |------ owns the flush stage -------|   |---- stage handed on ----|
//! batch N    flush_to, pre_binlog_ship, ship_ordered -> await_ack (ship, quorum) -> wake members
//! batch N+1  queued, parked ......................... -> flush_to, .., ship_ordered -> await_ack ..
//! ```
//!
//! **Who owns what.**  The flush stage has one owner at a time.  A committer
//! that finds it free leads a batch of one; one that finds it busy queues
//! and parks.  The owner flushes redo once for its batch and, still the
//! owner, runs every hook's ordered half ([`CommitHook::ship_ordered`]) — so
//! binlog order *is* flush order, with no second queue to keep in step.
//!
//! **The hand-off rule.**  Nothing after that needs the stage, so the owner
//! gives it to the head of the queue that formed meanwhile (one wake, outside
//! the state lock; the head takes the whole queue as its batch — with group
//! commit off, Figure 5b, only itself) or marks it free, whether or not its
//! own flush succeeded.  It never leads a second batch: it runs the blocking
//! half ([`CommitHook::await_ack`]) for *its* batch while the next owner is
//! already flushing, releases its members (wakes them) and returns to its
//! client.
//!
//! **Holding a free stage for the committer on its way back.**  Group
//! locking hands a hot row on before its writer is durable so that the
//! writers can then share one sync.  Two clients on one hot row would still
//! take turns at the stage: each finds it free and flushes alone.  So the
//! pipeline counts the members it has *released* — after the blocking half,
//! so a batch still waiting for its replica is not out — and takes one off
//! for every committer that enters `commit`, measuring the gap since the last
//! release.  The count is the pipeline's, not a client's: whoever arrives is
//! taken as one of them back.  A committer that finds the stage free while,
//! after its own arrival, a released member is still out, and the last gap
//! was shorter than one sync ([`RedoLog::fsync_latency`]), queues and parks
//! for at most one sync instead of flushing alone.  The next committer to
//! arrive takes the held queue plus itself as its batch; it is already
//! running, so no wake is spent on it.  If the sync passes first, the holder
//! flushes its queue itself, and the pipeline forgets who is out and stops
//! holding until a fast return is measured again.  The wait is
//! bounded by the measured return time of the committer waited for
//! (Thomasian's restart-wait rule), not by a constant.  With group commit off
//! or a sync that costs nothing the pipeline never holds, and reads no clock
//! and writes nothing shared for it.
//!
//! **Failure scope.**  A flush, crash-point or hook error fails exactly the
//! members of the batch it happened in.  A later batch is judged on its own:
//! after an injected crash its `flush_to` fails fast, so the queue drains
//! instead of parking forever.  Whichever batch a crash landed in, no call
//! returns `Ok` once the process is dead.  Hot-row commit *ordering* is
//! decided before a transaction enters (the dependency list); the pipeline
//! preserves arrival order within and across batches by construction.

use crate::hooks::{BinlogTxn, CommitHook};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::metrics::EngineMetrics;
use txsql_common::time::SimInstant;
use txsql_common::{Error, Lsn, Result};
use txsql_lockmgr::event::OsEvent;
use txsql_storage::fault::CrashPoint;
use txsql_storage::RedoLog;

/// A parked committer; its transaction is at the same index of `txns`.
struct Waiter {
    /// Arrival number: how a woken committer recognises its own slot.
    seq: u64,
    lsn: Lsn,
    wake: Arc<OsEvent>,
}

/// The members the pipeline released and has not seen back in `commit`.
/// Any arrival counts as one of them back: the count is the pipeline's, not
/// a client's, so a committer that follows itself (Aria's batch leader
/// commits its batch's jobs one after another) takes itself off before it
/// could wait for itself.
#[derive(Default)]
struct Out {
    count: usize,
    /// When the last batch was released.
    released_at: Option<SimInstant>,
    /// The last gap measured from a release to the next return; `None`
    /// until one is.
    last_gap: Option<Duration>,
}

impl Out {
    /// Whether a committer that finds the stage free should hold it: someone
    /// else is out, and the last one back came within a sync.
    fn worth_holding(&self, sync: Duration) -> bool {
        self.count > 0 && self.last_gap.is_some_and(|gap| gap < sync)
    }

    /// `members` were released at `at`.
    fn release(&mut self, members: usize, at: SimInstant) {
        self.count += members;
        self.released_at = Some(at);
    }

    /// A committer entered `commit` at `now`: one fewer is out.
    fn arrived(&mut self, now: SimInstant) {
        if let Some(at) = self.released_at.filter(|_| self.count > 0) {
            self.count -= 1;
            self.last_gap = Some(now.saturating_duration_since(at));
        }
    }
}

#[derive(Default)]
struct PipelineState {
    /// True while some committer owns the flush stage.
    flushing: bool,
    /// Committers that found the stage busy, or are holding it free, in
    /// arrival order, and their transactions.  Non-empty with `!flushing`
    /// only while a holder waits.
    waiters: Vec<Waiter>,
    txns: Vec<BinlogTxn>,
    next_seq: u64,
    /// Errors of failed batches, by member `seq`; a member takes its own on waking.
    failed: Vec<(u64, Error)>,
    /// Released members not back yet; tracked only while holding is possible.
    out: Out,
}

impl PipelineState {
    /// Queues a committer; returns its arrival number and the event it parks on.
    fn enqueue(&mut self, lsn: Lsn, binlog: BinlogTxn) -> (u64, Arc<OsEvent>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let wake = OsEvent::acquire_pooled();
        self.txns.push(binlog);
        self.waiters.push(Waiter {
            seq,
            lsn,
            wake: Arc::clone(&wake),
        });
        (seq, wake)
    }

    /// Makes the committer queued as `seq` the stage's owner, with the first
    /// `take` queued committers — itself among them — as its batch: their
    /// transactions in arrival order, the highest LSN, and the members to
    /// wake when it is done.
    fn take_batch(&mut self, seq: u64, take: usize) -> (Vec<BinlogTxn>, Lsn, Vec<Waiter>) {
        self.flushing = true;
        let txns = self.txns.drain(..take).collect();
        let mut followers: Vec<_> = self.waiters.drain(..take).collect();
        let max_lsn = followers.iter().map(|w| w.lsn).max();
        followers.retain(|w| w.seq != seq);
        (txns, max_lsn.expect("the owner's own slot"), followers)
    }
}

/// The commit pipeline.
pub struct CommitPipeline {
    group_commit: bool,
    state: Mutex<PipelineState>,
    metrics: Arc<EngineMetrics>,
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("group_commit", &self.group_commit)
            .finish()
    }
}

impl CommitPipeline {
    /// Creates a pipeline.  `group_commit` selects between Figure 5b (off)
    /// and Figure 5c (on).
    pub fn new(group_commit: bool, metrics: Arc<EngineMetrics>) -> Self {
        Self {
            group_commit,
            state: Mutex::new(PipelineState::default()),
            metrics,
        }
    }

    /// Commits one transaction whose commit record was appended at `lsn`:
    /// blocks until it is durable and every hook has acknowledged its batch.
    /// An error means the client must not be told "committed" — though after
    /// a crash the commit may be durable in redo (the recovery oracle's window).
    pub fn commit(
        &self,
        redo: &RedoLog,
        lsn: Lsn,
        binlog: BinlogTxn,
        hooks: &[Arc<dyn CommitHook>],
    ) -> Result<()> {
        // A dead process acknowledges nothing, whichever batch the crash hit.
        let unless_dead = |result: Result<()>| match result {
            Ok(()) if redo.faults().crashed() => Err(Error::Crashed { point: "crashed" }),
            result => result,
        };
        // One sync, when a hold can save one: with group commit off or a free
        // sync, nothing below reads the clock or counts who is out.
        let sync = Some(redo.fsync_latency()).filter(|sync| self.group_commit && !sync.is_zero());
        let now = sync.map(|_| SimInstant::now());
        let mut state = self.state.lock();
        if let Some(now) = now {
            state.out.arrived(now);
        }
        // A free stage with a queue is held: its holder waits for us.
        let free = !state.flushing;
        let held = free && !state.waiters.is_empty();
        let hold = free && !held && sync.is_some_and(|sync| state.out.worth_holding(sync));
        let (txns, max_lsn, followers) = if free && !held && !hold {
            state.flushing = true;
            drop(state);
            (vec![binlog], lsn, Vec::new())
        } else {
            // Behind the owner, or holding the free stage, we park; at a held
            // stage we lead the holder's queue at once, and no wake is spent.
            let (seq, wake) = state.enqueue(lsn, binlog);
            if held {
                self.metrics.commit_held_batches.inc();
            } else {
                drop(state);
                match sync.filter(|_| hold) {
                    Some(sync) => {
                        wake.wait_for(sync);
                    }
                    None => wake.wait(),
                }
                state = self.state.lock();
                // Our slot left the queue with another owner's batch, or we
                // are the head: handed the stage, or a holder nobody came
                // back for within the sync.
                if state.waiters.first().is_none_or(|head| head.seq != seq) {
                    if !wake.is_set() {
                        // A hold that timed out as a returner took it.
                        drop(state);
                        wake.wait();
                        state = self.state.lock();
                    }
                    let failed = state.failed.iter().position(|(s, _)| *s == seq);
                    let failure = failed.map(|at| state.failed.swap_remove(at).1);
                    drop(state);
                    OsEvent::recycle(wake);
                    return unless_dead(failure.map_or(Ok(()), Err));
                }
                if hold {
                    self.metrics.commit_hold_expired.inc();
                    state.out = Out::default();
                }
            }
            let take = match self.group_commit {
                true => state.waiters.len(),
                false => 1,
            };
            let batch = state.take_batch(seq, take);
            drop(state);
            OsEvent::recycle(wake);
            batch
        };

        // Flush stage, owned: one fsync for the batch, then the ordered half
        // of the ship.  `pre_binlog_ship`: durable in redo, nothing shipped.
        let shipped = redo
            .flush_to(max_lsn)
            .and_then(|()| redo.crash_point(CrashPoint::PreBinlogShip))
            .and_then(|()| hooks.iter().map(|hook| hook.ship_ordered(&txns)).collect());

        // Hand the stage on, success or not.
        let next = {
            let mut state = self.state.lock();
            let next = state.waiters.first().map(|head| Arc::clone(&head.wake));
            state.flushing = next.is_some();
            next
        };
        if let Some(wake) = next {
            wake.set();
        }

        // Blocking half, overlapping the next owner's flush.
        let result = shipped.and_then(|ranges: Vec<_>| {
            let mut halves = hooks.iter().zip(ranges);
            halves.try_for_each(|(hook, range)| hook.await_ack(range, &txns))
        });
        match &result {
            Ok(()) => {
                self.metrics.commit_batches.inc();
                self.metrics.commit_synced.add(txns.len() as u64);
                if sync.is_some() {
                    // Released: every member is out until its next commit.
                    let now = SimInstant::now();
                    self.state.lock().out.release(txns.len(), now);
                }
            }
            // Nothing counts as synced (after a post-flush failure the batch
            // IS durable in redo, but its clients are never acknowledged).
            Err(err) => {
                let failures = followers.iter().map(|w| (w.seq, err.clone()));
                self.state.lock().failed.extend(failures);
            }
        }
        for follower in followers {
            follower.wake.set();
        }
        unless_dead(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CollectingHook;
    use std::collections::HashSet;
    use std::ops::Range;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::sync::{Condvar, Mutex as StdMutex};
    use std::thread;
    use std::time::{Duration, Instant};
    use txsql_common::{Row, TableId, TxnId};
    use txsql_storage::fault::{FaultInjector, FaultPlan};
    use txsql_storage::RedoRecord;

    fn binlog(txn: u64) -> BinlogTxn {
        BinlogTxn {
            txn: TxnId(txn),
            trx_no: txn,
            changes: vec![(TableId(1), 1, Row::from_ints(&[1, txn as i64]))],
            involves_hotspot: false,
        }
    }

    #[test]
    fn per_transaction_commit_pays_one_fsync_each() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = CommitPipeline::new(false, Arc::clone(&metrics));
        let redo = RedoLog::default();
        let hook = Arc::new(CollectingHook::new());
        let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];
        for t in 1..=5u64 {
            let lsn = redo.append(RedoRecord::Commit {
                txn: TxnId(t),
                trx_no: t,
            });
            pipeline.commit(&redo, lsn, binlog(t), &hooks).unwrap();
        }
        assert_eq!(redo.fsync_count(), 5);
        assert_eq!(hook.batch_count(), 5);
        assert_eq!(metrics.commit_batches.get(), 5);
        assert_eq!(metrics.commit_held_batches.get(), 0);
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = Arc::new(CommitPipeline::new(true, Arc::clone(&metrics)));
        let redo = Arc::new(RedoLog::new(Duration::from_millis(2)));
        let hook = Arc::new(CollectingHook::new());
        let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];

        let n = 16;
        let mut handles = Vec::new();
        for t in 1..=n {
            let pipeline = Arc::clone(&pipeline);
            let redo = Arc::clone(&redo);
            let hooks = hooks.clone();
            handles.push(thread::spawn(move || {
                let lsn = redo.append(RedoRecord::Commit {
                    txn: TxnId(t),
                    trx_no: t,
                });
                pipeline.commit(&redo, lsn, binlog(t), &hooks).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every transaction was synced exactly once...
        assert_eq!(hook.events().len(), n as usize);
        assert_eq!(metrics.commit_synced.get(), n);
        // ...but with far fewer fsyncs than transactions (batching happened).
        assert!(
            redo.fsync_count() < n,
            "expected batched fsyncs, got {} for {} txns",
            redo.fsync_count(),
            n
        );
        assert!(redo.durable_lsn() >= redo.latest_lsn());
    }

    #[test]
    fn group_commit_with_single_transaction_still_completes() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = CommitPipeline::new(true, metrics);
        let redo = RedoLog::default();
        let lsn = redo.append(RedoRecord::Commit {
            txn: TxnId(1),
            trx_no: 1,
        });
        pipeline.commit(&redo, lsn, binlog(1), &[]).unwrap();
        assert_eq!(redo.durable_lsn(), lsn);
    }

    #[test]
    fn failed_group_flush_is_not_acknowledged_and_skips_hooks() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = CommitPipeline::new(true, Arc::clone(&metrics));
        let redo = RedoLog::with_faults(
            Duration::ZERO,
            FaultInjector::new(FaultPlan::none().with_persistent_fsync_failure()),
        );
        let hook = Arc::new(CollectingHook::new());
        let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];
        let lsn = redo.append(RedoRecord::Commit {
            txn: TxnId(1),
            trx_no: 1,
        });
        let err = pipeline.commit(&redo, lsn, binlog(1), &hooks).unwrap_err();
        assert!(matches!(err, Error::ReadOnly { .. }));
        // No hook observed the batch, nothing counts as synced, nothing is
        // durable.
        assert_eq!(hook.batch_count(), 0);
        assert_eq!(metrics.commit_synced.get(), 0);
        assert_eq!(redo.durable_lsn(), Lsn(0));
    }

    // ------------------------------------------------------------------
    // Overlapping batches.  A gate-controlled hook parks chosen batches in
    // a chosen half and reports every entry on a channel, so each test
    // stages its interleaving by events; timeouts only turn a hang into a
    // failure.
    // ------------------------------------------------------------------

    const WAIT: Duration = Duration::from_secs(2);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Half {
        Ordered,
        Blocking,
    }

    /// Identifies a batch by its first transaction's `trx_no`.
    type Key = (Half, u64);

    struct GateHook {
        held: StdMutex<HashSet<Key>>,
        released: Condvar,
        entered: StdMutex<Sender<Key>>,
        /// The blocking half of the batch starting at this `trx_no` fails.
        fail_on: Option<u64>,
        redo: Arc<RedoLog>,
        /// Per ordered half, in call order: the batch's `trx_no`s and the
        /// durable LSN it found.
        log: StdMutex<Vec<(Vec<u64>, Lsn)>>,
        in_ordered: AtomicBool,
    }

    impl GateHook {
        fn pass(&self, half: Half, batch: &[BinlogTxn]) {
            let key = (half, batch[0].trx_no);
            let _ = self.entered.lock().unwrap().send(key);
            let mut held = self.held.lock().unwrap();
            while held.contains(&key) {
                held = self.released.wait(held).unwrap();
            }
        }

        fn release(&self, half: Half, first: u64) {
            self.held.lock().unwrap().remove(&(half, first));
            self.released.notify_all();
        }

        fn batches(&self) -> Vec<Vec<u64>> {
            let log = self.log.lock().unwrap();
            log.iter().map(|(batch, _)| batch.clone()).collect()
        }
    }

    impl CommitHook for GateHook {
        fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
            let range = self.ship_ordered(batch)?;
            self.await_ack(range, batch)
        }

        fn ship_ordered(&self, batch: &[BinlogTxn]) -> Result<Range<u64>> {
            assert!(
                !self.in_ordered.swap(true, Ordering::SeqCst),
                "two ordered halves ran at once"
            );
            self.log.lock().unwrap().push((
                batch.iter().map(|t| t.trx_no).collect(),
                self.redo.durable_lsn(),
            ));
            self.pass(Half::Ordered, batch);
            self.in_ordered.store(false, Ordering::SeqCst);
            Ok(0..0)
        }

        fn await_ack(&self, _range: Range<u64>, batch: &[BinlogTxn]) -> Result<()> {
            self.pass(Half::Blocking, batch);
            if self.fail_on == Some(batch[0].trx_no) {
                return Err(Error::ReadOnly {
                    reason: "injected ship failure",
                });
            }
            Ok(())
        }
    }

    /// A pipeline, its redo log and one [`GateHook`]; `trx_no` = LSN.
    struct Rig {
        pipeline: Arc<CommitPipeline>,
        metrics: Arc<EngineMetrics>,
        redo: Arc<RedoLog>,
        hook: Arc<GateHook>,
        entered: Receiver<Key>,
    }

    impl Rig {
        fn new(redo: RedoLog, held: &[Key], fail_on: Option<u64>) -> Self {
            let metrics = Arc::new(EngineMetrics::new());
            let redo = Arc::new(redo);
            let (tx, entered) = mpsc::channel();
            let hook = Arc::new(GateHook {
                held: StdMutex::new(held.iter().copied().collect()),
                released: Condvar::new(),
                entered: StdMutex::new(tx),
                fail_on,
                redo: Arc::clone(&redo),
                log: StdMutex::new(Vec::new()),
                in_ordered: AtomicBool::new(false),
            });
            Self {
                pipeline: Arc::new(CommitPipeline::new(true, Arc::clone(&metrics))),
                metrics,
                redo,
                hook,
                entered,
            }
        }

        /// Appends the next commit record here (so LSNs follow call order)
        /// and commits it on a thread of its own; the result arrives on the
        /// returned channel.
        fn spawn_commit(&self) -> (Lsn, Receiver<Result<()>>) {
            let lsn = append_commit(&self.redo);
            let (pipeline, redo) = (Arc::clone(&self.pipeline), Arc::clone(&self.redo));
            let hooks: Vec<Arc<dyn CommitHook>> = vec![self.hook.clone()];
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let _ = tx.send(pipeline.commit(&redo, lsn, binlog(lsn.0), &hooks));
            });
            (lsn, rx)
        }

        /// The same rig with group commit off (Figure 5b).
        fn without_group_commit(mut self) -> Self {
            let metrics = Arc::clone(&self.metrics);
            self.pipeline = Arc::new(CommitPipeline::new(false, metrics));
            self
        }

        /// Blocks until exactly `n` committers are parked in the queue.
        fn wait_queued(&self, n: usize) {
            let deadline = Instant::now() + WAIT;
            while self.pipeline.state.lock().waiters.len() != n {
                assert!(Instant::now() < deadline, "queue never reached {n}");
                thread::yield_now();
            }
        }

        /// The next `n` hook entries, order-insensitive (halves of different
        /// batches run concurrently).
        fn next_entered(&self, n: usize) -> HashSet<Key> {
            (0..n)
                .map(|_| self.entered.recv_timeout(WAIT).expect("hook entry"))
                .collect()
        }
    }

    fn append_commit(redo: &RedoLog) -> Lsn {
        // The record's ids are irrelevant here; only its LSN is used.
        redo.append(RedoRecord::Commit {
            txn: TxnId(0),
            trx_no: 0,
        })
    }

    #[test]
    fn next_batch_flushes_and_ships_while_the_previous_waits_for_its_ack() {
        let rig = Rig::new(RedoLog::default(), &[(Half::Blocking, 1)], None);
        let (_, first) = rig.spawn_commit();
        assert_eq!(
            rig.next_entered(2),
            HashSet::from([(Half::Ordered, 1), (Half::Blocking, 1)])
        );

        // Batch 1 is parked in its ack wait.  A second committer must get
        // through the flush stage and into its hook regardless.
        let (lsn, second) = rig.spawn_commit();
        assert_eq!(
            rig.entered.recv_timeout(WAIT),
            Ok((Half::Ordered, 2)),
            "batch 2 never flushed while batch 1 waited for its ack"
        );
        assert!(rig.redo.durable_lsn() >= lsn);
        assert_eq!(second.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(
            first.try_recv().ok(),
            None,
            "batch 1 is still waiting for its ack"
        );

        rig.hook.release(Half::Blocking, 1);
        assert_eq!(first.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.metrics.commit_batches.get(), 2);
    }

    #[test]
    fn leader_returns_while_the_batch_it_handed_the_stage_to_is_in_flight() {
        let held = [(Half::Ordered, 1), (Half::Blocking, 2)];
        let rig = Rig::new(RedoLog::default(), &held, None);
        let (_, first) = rig.spawn_commit();
        assert_eq!(rig.entered.recv_timeout(WAIT), Ok((Half::Ordered, 1)));
        // The first committer owns the stage; the second queues behind it.
        let (_, second) = rig.spawn_commit();
        rig.wait_queued(1);

        rig.hook.release(Half::Ordered, 1);
        assert_eq!(
            rig.next_entered(3),
            HashSet::from([(Half::Blocking, 1), (Half::Ordered, 2), (Half::Blocking, 2)])
        );
        assert_eq!(
            first.recv_timeout(WAIT),
            Ok(Ok(())),
            "the first leader stayed to lead the batch that queued behind it"
        );
        assert_eq!(
            second.try_recv().ok(),
            None,
            "batch 2 is still parked in its hook"
        );

        rig.hook.release(Half::Blocking, 2);
        assert_eq!(second.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.hook.batches(), [vec![1], vec![2]]);
    }

    #[test]
    fn a_failed_batch_fails_exactly_its_members_with_its_neighbours_in_flight() {
        let held = [(Half::Ordered, 1), (Half::Blocking, 1), (Half::Ordered, 2)];
        let rig = Rig::new(RedoLog::default(), &held, Some(2));

        // Batch {1} owns the stage; 2 and 3 queue behind it, in that order.
        let (_, first) = rig.spawn_commit();
        assert_eq!(rig.entered.recv_timeout(WAIT), Ok((Half::Ordered, 1)));
        let (_, second) = rig.spawn_commit();
        rig.wait_queued(1);
        let (_, third) = rig.spawn_commit();
        rig.wait_queued(2);

        // {1} moves on to its ack wait (parked there); 2 leads {2, 3} and is
        // parked owning the stage, so 4 queues behind it.
        rig.hook.release(Half::Ordered, 1);
        assert_eq!(
            rig.next_entered(2),
            HashSet::from([(Half::Blocking, 1), (Half::Ordered, 2)])
        );
        let (_, fourth) = rig.spawn_commit();
        rig.wait_queued(1);

        // {2, 3} fails in its blocking half; {4} ships after it; {1} is
        // still in flight before both.
        rig.hook.release(Half::Ordered, 2);
        assert_eq!(
            rig.next_entered(3),
            HashSet::from([(Half::Blocking, 2), (Half::Ordered, 4), (Half::Blocking, 4)])
        );
        for member in [&second, &third] {
            assert!(matches!(
                member.recv_timeout(WAIT),
                Ok(Err(Error::ReadOnly { .. }))
            ));
        }
        assert_eq!(fourth.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.metrics.commit_synced.get(), 1, "only {{4}} so far");
        assert_eq!(rig.metrics.commit_batches.get(), 1);

        rig.hook.release(Half::Blocking, 1);
        assert_eq!(first.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.metrics.commit_synced.get(), 2);
        assert_eq!(rig.metrics.commit_batches.get(), 2);
        // Batches shipped in arrival order, members in arrival order.
        assert_eq!(rig.hook.batches(), [vec![1], vec![2, 3], vec![4]]);
        assert!(rig.pipeline.state.lock().failed.is_empty());
    }

    #[test]
    fn nothing_in_flight_is_acknowledged_after_a_crash_in_a_later_batch() {
        // Batch {1} waits for its ack while batches {2} and {3} put two
        // members out (flushes 2 and 3); then 4 holds the free stage and 5
        // leads both into flush 4, which crashes.
        let plan = FaultPlan::none().crash_at(CrashPoint::MidFlush, 4);
        let redo = RedoLog::with_faults(SYNC, FaultInjector::new(plan));
        let rig = Rig::new(redo, &[(Half::Blocking, 1), (Half::Ordered, 2)], None);
        let (lsn, first) = rig.spawn_commit();
        assert_eq!(
            rig.next_entered(2),
            HashSet::from([(Half::Ordered, 1), (Half::Blocking, 1)])
        );
        two_out(&rig);
        let (_, held) = rig.spawn_commit();
        rig.wait_queued(1);
        let (_, returner) = rig.spawn_commit();
        // The crash fails the whole batch it cut: the returner and the
        // commit held for it.
        for member in [&returner, &held] {
            assert!(matches!(
                member.recv_timeout(WAIT),
                Ok(Err(Error::Crashed { .. }))
            ));
        }
        assert_eq!(rig.metrics.commit_held_batches.get(), 1);

        // Batch {1} is durable and its hook is about to succeed, but the
        // process is dead: its client must not hear "committed".
        rig.hook.release(Half::Blocking, 1);
        assert!(matches!(
            first.recv_timeout(WAIT),
            Ok(Err(Error::Crashed { .. }))
        ));
        assert!(rig.redo.durable_lsn() >= lsn);
        // A committer arriving after the crash fails fast.
        let (_, third) = rig.spawn_commit();
        assert!(matches!(
            third.recv_timeout(WAIT),
            Ok(Err(Error::Crashed { .. }))
        ));
    }

    // ------------------------------------------------------------------
    // The held stage.  A log whose sync is long against every step a test
    // takes, so that a hold outlasts any of them unless nobody comes back.
    // ------------------------------------------------------------------

    const SYNC: Duration = Duration::from_millis(200);

    /// Puts two members out with no return measured yet: the next commit
    /// waits in its ordered half (the rig gates it) until one more queues
    /// behind it, and then both batches are released.
    fn two_out(rig: &Rig) {
        let (first, a) = rig.spawn_commit();
        assert_eq!(rig.entered.recv_timeout(WAIT), Ok((Half::Ordered, first.0)));
        let (_, b) = rig.spawn_commit();
        rig.wait_queued(1);
        rig.hook.release(Half::Ordered, first.0);
        for done in [a, b] {
            assert_eq!(done.recv_timeout(WAIT), Ok(Ok(())));
        }
    }

    #[test]
    fn a_free_stage_is_held_for_the_returner_and_both_share_its_flush() {
        let rig = Rig::new(RedoLog::new(SYNC), &[(Half::Ordered, 1)], None);
        two_out(&rig);
        let fsyncs = rig.redo.fsync_count();

        // The stage is free and, once the arrival took itself off, one
        // member is still out: the arrival queues.
        let (held, first) = rig.spawn_commit();
        rig.wait_queued(1);
        assert!(!rig.pipeline.state.lock().flushing);
        // The returner leads both, in arrival order, through one flush.
        let (lsn, returner) = rig.spawn_commit();
        assert_eq!(returner.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(first.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.redo.fsync_count(), fsyncs + 1);
        assert_eq!(rig.hook.batches().last(), Some(&vec![held.0, lsn.0]));
        assert_eq!(rig.metrics.commit_held_batches.get(), 1);
        assert_eq!(rig.metrics.commit_hold_expired.get(), 0);
    }

    #[test]
    fn a_hold_nobody_comes_back_for_flushes_alone_after_one_sync() {
        let rig = Rig::new(RedoLog::new(SYNC), &[(Half::Ordered, 1)], None);
        two_out(&rig);
        let start = Instant::now();
        let (held, first) = rig.spawn_commit();
        assert_eq!(first.recv_timeout(WAIT), Ok(Ok(())));
        assert!(start.elapsed() >= 2 * SYNC, "one sync held, one flushed");
        assert_eq!(rig.hook.batches().last(), Some(&vec![held.0]));
        assert_eq!(rig.metrics.commit_held_batches.get(), 0);
        assert_eq!(rig.metrics.commit_hold_expired.get(), 1);

        // The pipeline forgot who was out — the member still out and the
        // holder it just released would make a quick arrival hold again —
        // so the next arrival at the free stage flushes at once.
        let (next, second) = rig.spawn_commit();
        assert_eq!(second.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.hook.batches().last(), Some(&vec![next.0]));
        assert_eq!(rig.metrics.commit_hold_expired.get(), 1);
    }

    #[test]
    fn a_free_sync_or_group_commit_off_never_holds() {
        let gate = [(Half::Ordered, 1)];
        let free_sync = Rig::new(RedoLog::default(), &gate, None);
        let group_commit_off = Rig::new(RedoLog::new(SYNC), &gate, None).without_group_commit();
        for rig in [free_sync, group_commit_off] {
            two_out(&rig);
            let (lsn, alone) = rig.spawn_commit();
            assert_eq!(alone.recv_timeout(WAIT), Ok(Ok(())));
            assert_eq!(rig.hook.batches().last(), Some(&vec![lsn.0]));
            assert_eq!(rig.metrics.commit_held_batches.get(), 0);
            assert_eq!(rig.metrics.commit_hold_expired.get(), 0);
        }
    }

    #[test]
    fn a_leader_taking_over_from_a_serial_committer_does_not_hold_for_it() {
        // Aria's batch leader commits its batch's jobs one after another on
        // its own thread while the other clients are parked, and then
        // another client leads the next batch.  Nobody is on the way back.
        let rig = Rig::new(RedoLog::new(SYNC), &[], None);
        let hooks: Vec<Arc<dyn CommitHook>> = vec![rig.hook.clone()];
        for _ in 0..2 {
            let lsn = append_commit(&rig.redo);
            let committed = rig.pipeline.commit(&rig.redo, lsn, binlog(lsn.0), &hooks);
            assert_eq!(committed, Ok(()));
        }
        let (_, next_leader) = rig.spawn_commit();
        assert_eq!(next_leader.recv_timeout(WAIT), Ok(Ok(())));
        assert_eq!(rig.metrics.commit_held_batches.get(), 0);
        assert_eq!(rig.metrics.commit_hold_expired.get(), 0);
    }

    #[test]
    fn concurrent_commits_ship_once_each_through_an_exclusive_ordered_half() {
        const THREADS: u64 = 16;
        const ROUNDS: u64 = 200;
        // A sleeping fsync, so committers pile up behind the stage owner.
        let rig = Rig::new(RedoLog::new(Duration::from_micros(100)), &[], None);
        let hooks: Vec<Arc<dyn CommitHook>> = vec![rig.hook.clone()];
        thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        let lsn = append_commit(&rig.redo);
                        rig.pipeline
                            .commit(&rig.redo, lsn, binlog(lsn.0), &hooks)
                            .unwrap();
                    }
                });
            }
        });

        let log = rig.hook.log.lock().unwrap();
        let mut shipped: Vec<u64> = Vec::new();
        for (batch, durable) in log.iter() {
            assert!(
                batch.iter().all(|lsn| *lsn <= durable.0),
                "batch {batch:?} shipped before its flush (durable {durable:?})"
            );
            shipped.extend(batch);
        }
        shipped.sort_unstable();
        let expected: Vec<u64> = (1..=THREADS * ROUNDS).collect();
        assert_eq!(shipped, expected, "every transaction exactly once");
        assert_eq!(rig.metrics.commit_synced.get(), THREADS * ROUNDS);
        assert_eq!(rig.metrics.commit_batches.get(), log.len() as u64);
        assert!(
            (log.len() as u64) < THREADS * ROUNDS,
            "no committer ever joined another's batch"
        );
        let state = rig.pipeline.state.lock();
        assert!(!state.flushing && state.waiters.is_empty() && state.failed.is_empty());
    }
}
