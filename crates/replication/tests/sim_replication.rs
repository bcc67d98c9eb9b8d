//! Whole-pipeline replication crash/fault exploration (`txsql-sim` + the
//! storage fault injector + the replication fault injector): every seed
//! derives a [`FaultPlan`] that crashes the *primary* inside the
//! commit→binlog pipeline (`pre_binlog_ship`, `post_ship_pre_ack`,
//! `post_ack`) **and** a [`ReplFaultPlan`] that perturbs the *replication
//! path* (ack drop, replica stall, replica crash/restart, transient ship
//! errors), runs a multi-worker commit workload under the deterministic
//! scheduler, and checks the **replication recovery oracle**:
//!
//! 1. every commit the client *acknowledged* (an `Ok` return from
//!    [`Database::commit`]) survives in durable redo after
//!    [`Database::restart_from_crash`];
//! 2. replicas never retain a transaction the restarted primary lost: the
//!    pipeline flushes redo *before* it ships, so everything a replica
//!    applied is bounded by the recovered durable state;
//! 3. the degraded → re-synced state machine never loses or double-applies
//!    a batch: on fault-only schedules the replicas converge to the exact
//!    primary state, apply each binlog entry exactly once, and a degraded
//!    hook re-enters semi-sync once they catch up.
//!
//! A failing seed panics with a replayable schedule trace; the seed set is
//! `TXSQL_SIM_SEEDS`-overridable (CI pins `0..200`).  Coverage
//! meta-assertions confirm every binlog crash point and every replication
//! fault point actually fired across the sweep — otherwise the exploration
//! is vacuous.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::{Error, Result, Row, TableId, TxnId};
use txsql_core::{BinlogTxn, CommitHook, Database, EngineConfig, Protocol};
use txsql_replication::{
    ReplFaultPlan, ReplFaultPoint, Replica, ReplicationHook, ReplicationMode, SemiSyncConfig,
    SyncState,
};
use txsql_sim::run_seed;
use txsql_storage::fault::{CrashPoint, FaultPlan};
use txsql_storage::TableSchema;

const ACCOUNTS: TableId = TableId(1);
const HOT_PK: i64 = 1;
const WORKERS: usize = 3;
const PER_WORKER: usize = 2;
const REPLICAS: usize = 2;

fn cold_pk(worker: usize) -> i64 {
    100 + worker as i64
}

/// Engine configuration safe for a sim run: every thread touching the engine
/// must be a sim thread, so the background hotspot sweeper stays off.
fn sim_config(protocol: Protocol) -> EngineConfig {
    let mut config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100));
    config.start_sweeper = false;
    config.record_history = false;
    config
}

/// Semi-sync knobs for exploration: a short ack timeout so injected stalls
/// and crashes degrade the hook within the run, and no background applier
/// (the sim cannot schedule threads it did not spawn).
fn sim_semi_sync() -> SemiSyncConfig {
    SemiSyncConfig::default()
        .with_ack_timeout(Duration::from_millis(2))
        .with_background_applier(false)
}

fn setup_accounts(db: &Database) {
    db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
        .unwrap();
    db.load_row(ACCOUNTS, Row::from_ints(&[HOT_PK, 0])).unwrap();
    for worker in 0..WORKERS {
        db.load_row(ACCOUNTS, Row::from_ints(&[cold_pk(worker), 0]))
            .unwrap();
    }
}

fn committed_value(db: &Database, pk: i64) -> i64 {
    let record = db.record_id(ACCOUNTS, pk).unwrap();
    db.storage()
        .read_committed(ACCOUNTS, record)
        .unwrap()
        .unwrap()
        .get_int(1)
        .unwrap()
}

/// The value a replica holds for `pk` (0 when it never saw the row — bulk
/// load is not replicated, so replicas start empty).
fn replica_value(replica: &Replica, pk: i64) -> i64 {
    replica
        .row(ACCOUNTS, pk)
        .and_then(|row| row.get_int(1))
        .unwrap_or(0)
}

/// One worker of the replicated crash workload: each transaction adds `+1`
/// to the hot row *and* `+1` to the worker's private cold row (durability and
/// atomicity stay checkable), committing through the registered replication
/// hook.  Retryable contention errors retry; a crash stops the worker — the
/// primary is dead and only `restart_from_crash` continues.
fn repl_worker(
    db: Arc<Database>,
    worker: usize,
    acked: Arc<parking_lot::Mutex<Vec<TxnId>>>,
    commit_attempts: Arc<AtomicI64>,
) {
    let mut committed = 0;
    let mut tries = 0;
    while committed < PER_WORKER {
        tries += 1;
        if tries > 60 {
            return; // starved by this schedule — the oracle still holds
        }
        let mut txn = db.begin();
        let step = db
            .update_add(&mut txn, ACCOUNTS, HOT_PK, 1, 1)
            .and_then(|_| db.update_add(&mut txn, ACCOUNTS, cold_pk(worker), 1, 1));
        match step {
            Ok(_) => {
                let id = txn.id;
                commit_attempts.fetch_add(1, Ordering::Relaxed);
                let dead_on_entry = db.has_crashed();
                match db.commit(txn) {
                    Ok(()) => {
                        // No `Ok` after the crash instant.  (The exact form —
                        // a batch already past its ack when another batch
                        // crashes — is pinned by the pipeline's unit tests;
                        // here `commit` still runs yield points after the
                        // pipeline's own last check.)
                        assert!(!dead_on_entry, "{id} was acknowledged by a dead primary");
                        acked.lock().push(id);
                        committed += 1;
                    }
                    Err(err) if err.is_retryable() => {}
                    Err(_) => return, // crashed: process is dead
                }
            }
            Err(err) if err.is_retryable() => db.rollback(txn, Some(&err)),
            Err(_) => {
                db.rollback(txn, None);
                return;
            }
        }
    }
}

/// Wraps the replication hook to notice a schedule this suite must reach
/// because the commit pipeline overlaps batches: a primary crash while a
/// *second* batch is between its redo flush and its ack.
struct InFlightProbe {
    inner: Arc<ReplicationHook>,
    /// Batches past their ordered half whose blocking half has not returned.
    in_flight: AtomicI64,
    crash_overlapped: AtomicBool,
}

impl CommitHook for InFlightProbe {
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
        let range = self.ship_ordered(batch)?;
        self.await_ack(range, batch)
    }

    fn ship_ordered(&self, batch: &[BinlogTxn]) -> Result<Range<u64>> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.inner.ship_ordered(batch)
    }

    fn await_ack(&self, range: Range<u64>, batch: &[BinlogTxn]) -> Result<()> {
        let result = self.inner.await_ack(range, batch);
        if let Err(Error::Crashed { point }) = &result {
            // Either this batch's own crash point fired with another batch in
            // flight, or this batch was in flight when another one's fired
            // (the hook reports that as the generic "crashed").
            if self.in_flight.load(Ordering::Relaxed) > 1 || *point == "crashed" {
                self.crash_overlapped.store(true, Ordering::Relaxed);
            }
        }
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }
}

/// What one explored seed contributed to the sweep-wide coverage
/// meta-assertions.
struct SeedOutcome {
    crashed_at: Option<&'static str>,
    /// The crash landed with two batches between flush and ack.
    crash_overlapped: bool,
    repl_hits: Vec<(&'static str, u64)>,
    semi_sync_timeouts: u64,
    degraded_commits: u64,
    semi_sync_resyncs: u64,
}

/// Runs the replicated workload under one seed — primary crash plan and
/// replication fault plan both active — and applies the recovery oracle.
fn explore_one_seed(seed: u64) -> SeedOutcome {
    explore(
        seed,
        FaultPlan::seeded_binlog(seed),
        ReplFaultPlan::seeded(seed),
        LatencyModel::in_memory(),
    )
}

fn explore(
    seed: u64,
    plan: FaultPlan,
    repl_plan: ReplFaultPlan,
    latency: LatencyModel,
) -> SeedOutcome {
    let target = plan.crash_target();
    let db = Database::new(
        sim_config(Protocol::GroupLockingTxsql)
            .with_fault_plan(plan)
            .with_latency(latency),
    );
    setup_accounts(&db);
    // Baseline checkpoint: bulk-loaded rows are not redo-logged, and none of
    // the binlog crash points can fire outside a commit.
    db.checkpoint().unwrap();

    let metrics = db.metrics_handle();
    let hook = ReplicationHook::builder(ReplicationMode::Synchronous, latency, REPLICAS)
        .config(sim_semi_sync())
        .faults(repl_plan)
        .crash_injector(Arc::clone(db.faults()))
        .metrics(Arc::clone(&metrics))
        .build();
    let probe = Arc::new(InFlightProbe {
        inner: hook.clone(),
        in_flight: AtomicI64::new(0),
        crash_overlapped: AtomicBool::new(false),
    });
    db.register_commit_hook(probe.clone());

    let db = Arc::new(db);
    let acked = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let commit_attempts = Arc::new(AtomicI64::new(0));
    let db_build = Arc::clone(&db);
    let acked_build = Arc::clone(&acked);
    let attempts_build = Arc::clone(&commit_attempts);
    run_seed(seed, move |sim| {
        for worker in 0..WORKERS {
            let db = Arc::clone(&db_build);
            let acked = Arc::clone(&acked_build);
            let attempts = Arc::clone(&attempts_build);
            sim.spawn(format!("worker-{worker}"), move || {
                repl_worker(db, worker, acked, attempts);
            });
        }
    });

    let acked: Vec<TxnId> = acked.lock().clone();
    let attempts = commit_attempts.load(Ordering::Relaxed);

    let crashed_at = if db.has_crashed() {
        assert_eq!(
            db.metrics().crash_injected.get(),
            1,
            "seed {seed}: a crash fires exactly once"
        );
        Some(target.expect("only a planned crash can fire").0.name())
    } else {
        None
    };

    if db.has_crashed() {
        // --- The primary died inside the binlog pipeline: restart it and
        // --- apply the recovery oracle.
        let (recovered, report) = db.restart_from_crash().unwrap();

        // (1) Every client-acked transaction survives in durable redo.
        for id in &acked {
            assert!(
                !report.rolled_back.contains(id),
                "seed {seed}: acked transaction {id} was rolled back\n{}",
                report.summary()
            );
        }
        let hot = committed_value(&recovered, HOT_PK);
        assert!(
            hot >= acked.len() as i64 && hot <= attempts,
            "seed {seed}: recovered hot value {hot} outside [{}, {attempts}]\n{}",
            acked.len(),
            report.summary()
        );
        // Atomicity lockstep: each transaction writes the hot row and one
        // cold row together.
        let cold_sum: i64 = (0..WORKERS)
            .map(|w| committed_value(&recovered, cold_pk(w)))
            .sum();
        assert_eq!(
            hot, cold_sum,
            "seed {seed}: a transaction recovered partially"
        );

        // (2) Replicas never retain a transaction the restarted primary
        // lost: redo flushes before the binlog ships, so every applied
        // after-image is bounded by the recovered durable counters (the
        // workload's values are monotonic).
        for replica in hook.replicas() {
            let replica_hot = replica_value(replica, HOT_PK);
            assert!(
                replica_hot <= hot,
                "seed {seed}: {} retains hot value {replica_hot} > recovered {hot} \
                 — it applied a transaction the restarted primary lost",
                replica.name()
            );
            for worker in 0..WORKERS {
                let replica_cold = replica_value(replica, cold_pk(worker));
                let recovered_cold = committed_value(&recovered, cold_pk(worker));
                assert!(
                    replica_cold <= recovered_cold,
                    "seed {seed}: {} retains cold[{worker}] {replica_cold} > recovered {recovered_cold}",
                    replica.name()
                );
            }
        }

        // (3) The restarted primary is fully working.
        let mut probe = recovered.begin();
        recovered
            .update_add(&mut probe, ACCOUNTS, HOT_PK, 1, 1)
            .unwrap();
        recovered.commit(probe).unwrap();
        assert_eq!(committed_value(&recovered, HOT_PK), hot + 1);
        recovered.shutdown();
    } else {
        // --- Fault-only schedule (or the planned crash never triggered):
        // --- the degrade → re-sync cycle must converge exactly.
        let expected = hook.binlog_len();
        assert!(
            hook.wait_caught_up(expected, Duration::from_secs(2)),
            "seed {seed}: replicas never caught up to {expected} binlog entries \
             (acked: {:?}, lag {})",
            (0..REPLICAS).map(|i| hook.acked_pos(i)).collect::<Vec<_>>(),
            hook.replica_lag()
        );
        // A degraded hook re-syncs once the quorum has caught up; the last
        // ack of the run can race the catch-up check, so give the pump a
        // few more rounds before asserting.
        for _ in 0..3 {
            if hook.sync_state() == SyncState::SemiSync {
                break;
            }
            hook.wait_caught_up(expected, Duration::from_millis(50));
        }
        assert_eq!(
            hook.sync_state(),
            SyncState::SemiSync,
            "seed {seed}: hook stayed degraded after the replicas caught up"
        );

        // Nothing acked was lost (no crash: every acked +1 is visible) and
        // nothing unacked leaked in.
        let hot = committed_value(&db, HOT_PK);
        assert_eq!(
            hot,
            acked.len() as i64,
            "seed {seed}: faults without a crash must not lose or invent commits"
        );

        // Exact convergence: every replica row matches the primary's
        // committed value, and every binlog entry was applied exactly once —
        // no batch lost, none double-applied across degrade/re-sync.
        for replica in hook.replicas() {
            let diverging = replica.diverging_rows(|table, pk| {
                db.record_id(table, pk)
                    .ok()
                    .and_then(|record| db.storage().read_committed(table, record).ok().flatten())
            });
            assert!(
                diverging.is_empty(),
                "seed {seed}: {} diverges from the primary on {diverging:?}",
                replica.name()
            );
            assert_eq!(
                replica.log_pos(),
                expected,
                "seed {seed}: {} relay position did not reach the binlog end",
                replica.name()
            );
            assert_eq!(
                replica.applied_txns(),
                expected,
                "seed {seed}: {} applied a batch twice (or lost one)",
                replica.name()
            );
        }
        hook.shutdown();
        db.shutdown();
    }

    SeedOutcome {
        crashed_at,
        crash_overlapped: probe.crash_overlapped.load(Ordering::Relaxed),
        repl_hits: ReplFaultPoint::ALL
            .iter()
            .map(|point| (point.name(), hook.faults().hits_of(*point)))
            .collect(),
        semi_sync_timeouts: metrics.semi_sync_timeouts.get(),
        degraded_commits: metrics.degraded_commits.get(),
        semi_sync_resyncs: metrics.semi_sync_resyncs.get(),
    }
}

/// Seeded replication exploration: every explored schedule must satisfy the
/// recovery oracle, and across the seed set every binlog crash point, every
/// replication fault point, and the degrade → re-sync transition must
/// actually fire (otherwise the exploration is vacuous).
#[test]
fn sim_replication_exploration_upholds_the_recovery_oracle() {
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut crashed_points = HashSet::new();
    let mut crashed_seeds = 0u64;
    let mut repl_hits: HashMap<&'static str, u64> = HashMap::new();
    let mut timeouts = 0u64;
    let mut degraded = 0u64;
    let mut resyncs = 0u64;
    for seed in seeds {
        let outcome = explore_one_seed(seed);
        if let Some(point) = outcome.crashed_at {
            crashed_points.insert(point);
            crashed_seeds += 1;
        }
        for (name, hits) in outcome.repl_hits {
            *repl_hits.entry(name).or_insert(0) += hits;
        }
        timeouts += outcome.semi_sync_timeouts;
        degraded += outcome.degraded_commits;
        resyncs += outcome.semi_sync_resyncs;
    }
    assert!(
        crashed_seeds > 0,
        "no explored schedule crashed the primary ({n_seeds} seeds)"
    );
    // Meta-assertion: every crash point inside the commit→binlog pipeline
    // fired, including the durable-but-unacked `post_ship_pre_ack` window.
    for point in ["pre_binlog_ship", "post_ship_pre_ack", "post_ack"] {
        assert!(
            crashed_points.contains(point),
            "crash point {point} never fired across {n_seeds} seeds (saw {crashed_points:?})"
        );
    }
    // Meta-assertion: every replication fault point fired.
    for point in ReplFaultPoint::ALL {
        let hits = repl_hits.get(point.name()).copied().unwrap_or(0);
        assert!(
            hits > 0,
            "replication fault {} never fired across {n_seeds} seeds (saw {repl_hits:?})",
            point.name()
        );
    }
    // Meta-assertion: the degrade → re-sync state machine was exercised.
    assert!(
        timeouts > 0,
        "no explored schedule timed out an ack wait ({n_seeds} seeds)"
    );
    assert!(
        degraded > 0,
        "no explored schedule shipped a degraded commit ({n_seeds} seeds)"
    );
    assert!(
        resyncs > 0,
        "no explored schedule re-synced after degrading ({n_seeds} seeds)"
    );
}

/// The commit pipeline overlaps batches, so a crash point of one batch can
/// fire while another batch sits between its redo flush and its ack.  This
/// sweep makes that window wide — real fsync and network delays on the
/// virtual clock, so a batch spends its ack wait while the next one flushes
/// — aims one crash at each seam of the pipeline (`mid_flush` included: the
/// *next* batch's flush dies under a batch waiting for its replica), and
/// applies the same oracle: acked ⊆ durable after `restart_from_crash`, no
/// replica ahead of the primary's durable redo, and no `Ok` from a dead
/// primary.  The meta-assertion pins that the two-in-flight window was
/// reached for every crash point, not just explored around.
#[test]
fn sim_crash_with_a_second_batch_in_flight_upholds_the_oracle() {
    const POINTS: [CrashPoint; 4] = [
        CrashPoint::MidFlush,
        CrashPoint::PreBinlogShip,
        CrashPoint::PostShipPreAck,
        CrashPoint::PostAck,
    ];
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut overlapped: HashSet<&'static str> = HashSet::new();
    for seed in seeds {
        // From the second hit on: the first batch is in flight by then.
        let point = POINTS[(seed % 4) as usize];
        let plan = FaultPlan::none().crash_at(point, 2 + (seed / 4) % 4);
        let outcome = explore(
            seed,
            plan,
            ReplFaultPlan::none(),
            LatencyModel::semi_sync_replication(),
        );
        if outcome.crash_overlapped {
            overlapped.insert(outcome.crashed_at.expect("an overlapped crash is a crash"));
        }
        assert_eq!(
            outcome.degraded_commits, 0,
            "seed {seed}: overlap alone must never time an ack wait out"
        );
    }
    for point in POINTS {
        assert!(
            overlapped.contains(point.name()),
            "{} never fired with a second batch in flight across {n_seeds} seeds \
             (saw {overlapped:?})",
            point.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Ship-queue channel races: the bounded shipping queue is an instrumented
// channel, so enqueue (`try_send`), drain (`try_recv`) and shed (Full) are
// tagged yield points — the explorer can now place context switches *inside*
// the shed-vs-drain window, an interleaving class that was invisible while
// the queue was a plain VecDeque behind the state mutex.
// ---------------------------------------------------------------------------

/// Ship-queue races under exploration: concurrent committers (degraded to
/// the async path by a stalled replica) race each other and a
/// `wait_caught_up` drainer on a capacity-1 shipping channel.  On every
/// schedule, shedding may drop *work* but never *data* — catch-up re-ships
/// from the retained binlog and the replica converges exactly — and the
/// degraded hook re-syncs once the stall clears.
///
/// Per-yield-point coverage meta-assertions pin that the sweep actually
/// explored the new surface: channel yields fired (the queue is explorable),
/// at least one schedule shed on a full queue, and the degrade-to-async flip
/// occurred.
#[test]
fn sim_ship_queue_shed_drain_and_degrade_races_converge() {
    const COMMITTERS: usize = 3;
    const PER_COMMITTER: u64 = 2;
    const TOTAL: u64 = COMMITTERS as u64 * PER_COMMITTER;
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut classes = HashSet::new();
    let mut channel_yields = 0u64;
    let mut lock_yields = 0u64;
    let mut event_yields = 0u64;
    let mut total_skips = 0u64;
    let mut shed_seeds = 0u64;
    let mut degraded_seeds = 0u64;

    for seed in seeds {
        let metrics = Arc::new(txsql_common::metrics::EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, LatencyModel::in_memory(), 1)
                .config(sim_semi_sync().with_queue_capacity(1))
                .faults(ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(10)))
                .metrics(Arc::clone(&metrics))
                .build();
        let next_trx = Arc::new(AtomicI64::new(1));

        let hook_build = Arc::clone(&hook);
        let trx_build = Arc::clone(&next_trx);
        let report = run_seed(seed, move |sim| {
            for committer in 0..COMMITTERS {
                let hook = Arc::clone(&hook_build);
                let next_trx = Arc::clone(&trx_build);
                sim.spawn(format!("committer-{committer}"), move || {
                    let pk = 100 + committer as i64;
                    for round in 1..=PER_COMMITTER {
                        let trx_no = next_trx.fetch_add(1, Ordering::Relaxed) as u64;
                        let batch = [BinlogTxn {
                            txn: TxnId(trx_no),
                            trx_no,
                            changes: vec![(ACCOUNTS, pk, Row::from_ints(&[pk, round as i64]))],
                            involves_hotspot: false,
                        }];
                        // Degraded shipping never fails the commit.
                        hook.on_commit_batch(&batch).unwrap();
                    }
                });
            }
            let hook = Arc::clone(&hook_build);
            sim.spawn("drainer", move || {
                // A concurrent catch-up poller: drains the queue and pumps
                // while the committers are still enqueueing — the drain half
                // of the shed-vs-drain race.
                hook.wait_caught_up(TOTAL, Duration::from_millis(500));
            });
        });

        // The stall outlives the ack timeout, so the first commit degraded;
        // afterwards everything flowed through the bounded channel.  Shed or
        // not, convergence must be exact.
        assert!(
            hook.wait_caught_up(TOTAL, Duration::from_secs(2)),
            "seed {seed}: replica never converged (lag {})",
            hook.replica_lag()
        );
        for _ in 0..3 {
            if hook.sync_state() == SyncState::SemiSync {
                break;
            }
            hook.wait_caught_up(TOTAL, Duration::from_millis(50));
        }
        assert_eq!(
            hook.sync_state(),
            SyncState::SemiSync,
            "seed {seed}: hook stayed degraded after the stall cleared"
        );
        let replica = &hook.replicas()[0];
        assert_eq!(
            replica.applied_txns(),
            TOTAL,
            "seed {seed}: a shed batch was lost (or one applied twice)"
        );
        assert_eq!(replica.log_pos(), TOTAL, "seed {seed}: relay gap");
        for committer in 0..COMMITTERS {
            let pk = 100 + committer as i64;
            assert_eq!(
                replica_value(replica, pk),
                PER_COMMITTER as i64,
                "seed {seed}: committer {committer}'s last write did not survive shipping"
            );
        }
        hook.shutdown();

        classes.insert(report.coverage.schedule_class);
        channel_yields += report.coverage.yields_of(txsql_sim::ResourceKind::Channel);
        lock_yields += report.coverage.yields_of(txsql_sim::ResourceKind::Lock);
        event_yields += report.coverage.yields_of(txsql_sim::ResourceKind::Event);
        total_skips += report.coverage.commuting_skips;
        if metrics.ship_queue_full.get() > 0 {
            shed_seeds += 1;
        }
        if metrics.degraded_commits.get() > 0 {
            degraded_seeds += 1;
        }
    }

    println!(
        "sim-coverage: suite=sim_ship_queue runs={n_seeds} classes={} \
         channel_yields={channel_yields} lock_yields={lock_yields} event_yields={event_yields} \
         skips={total_skips} shed_seeds={shed_seeds} degraded_seeds={degraded_seeds}",
        classes.len()
    );
    // Per-yield-point coverage: the shipping path must actually exercise the
    // instrumented primitives, or the exploration above is vacuous.
    assert!(
        channel_yields > 0,
        "the shipping channel never became a yield point"
    );
    assert!(lock_yields > 0, "no tagged mutex yields on the ship path");
    assert!(event_yields > 0, "no tagged event waits on the ship path");
    assert!(
        shed_seeds > 0,
        "no explored schedule filled the capacity-1 queue ({n_seeds} seeds) — \
         the shed-vs-drain interleaving class is not being reached"
    );
    assert!(
        degraded_seeds > 0,
        "no explored schedule flipped the hook to async shipping ({n_seeds} seeds)"
    );
    assert!(
        classes.len() > 1,
        "every seed collapsed to a single schedule class"
    );
}

/// The async applier as a *scheduled sim thread* (PR 9 leftover): instead of
/// committers draining the ship queue inline, a dedicated sim thread runs
/// [`ReplicationHook::run_applier_loop`] — the same loop the native
/// background thread runs — so the explorer interleaves enqueue, drain, idle
/// wake-ups and shutdown like any other threads.  Committers gate on
/// `applier_running()` before enqueueing, so every delivery in the run is
/// the applier's; the coordinator shuts the hook down once they finish, and
/// the loop must exit with the queue empty and the ownership flag cleared.
#[test]
fn sim_scheduled_applier_owns_the_ship_queue() {
    const COMMITTERS: usize = 2;
    const PER_COMMITTER: u64 = 2;
    const TOTAL: u64 = COMMITTERS as u64 * PER_COMMITTER;
    let seeds = txsql_sim::ci_seeds(100);
    let n_seeds = seeds.len();
    let mut classes = HashSet::new();
    let mut channel_yields = 0u64;

    for seed in seeds {
        let metrics = Arc::new(txsql_common::metrics::EngineMetrics::new());
        let hook =
            ReplicationHook::builder(ReplicationMode::Asynchronous, LatencyModel::in_memory(), 1)
                .config(sim_semi_sync().with_queue_capacity(4))
                .metrics(Arc::clone(&metrics))
                .build();
        let next_trx = Arc::new(AtomicI64::new(1));
        let done = Arc::new(AtomicI64::new(0));

        let hook_build = Arc::clone(&hook);
        let trx_build = Arc::clone(&next_trx);
        let done_build = Arc::clone(&done);
        let report = run_seed(seed, move |sim| {
            let applier = Arc::clone(&hook_build);
            sim.spawn("applier", move || applier.run_applier_loop());
            for committer in 0..COMMITTERS {
                let hook = Arc::clone(&hook_build);
                let next_trx = Arc::clone(&trx_build);
                let done = Arc::clone(&done_build);
                sim.spawn(format!("committer-{committer}"), move || {
                    // Wait for the applier to claim the queue, so the drain
                    // below is attributable to it alone.
                    while !hook.applier_running() {
                        txsql_common::latency::ut_delay(10);
                    }
                    let pk = 100 + committer as i64;
                    for round in 1..=PER_COMMITTER {
                        let trx_no = next_trx.fetch_add(1, Ordering::Relaxed) as u64;
                        let batch = [BinlogTxn {
                            txn: TxnId(trx_no),
                            trx_no,
                            changes: vec![(ACCOUNTS, pk, Row::from_ints(&[pk, round as i64]))],
                            involves_hotspot: false,
                        }];
                        hook.on_commit_batch(&batch).unwrap();
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            let hook = Arc::clone(&hook_build);
            let done = Arc::clone(&done_build);
            sim.spawn("coordinator", move || {
                while done.load(Ordering::Relaxed) < COMMITTERS as i64 {
                    txsql_common::latency::ut_delay(50);
                }
                // Stop the applier: it may only exit once the queue is empty.
                hook.shutdown();
            });
        });

        assert!(
            !hook.applier_running(),
            "seed {seed}: the applier exited without releasing queue ownership"
        );
        let replica = &hook.replicas()[0];
        assert_eq!(
            replica.applied_txns(),
            TOTAL,
            "seed {seed}: the scheduled applier lost a queued batch"
        );
        assert_eq!(
            hook.replica_lag(),
            0,
            "seed {seed}: shutdown returned with the replica still behind"
        );
        for committer in 0..COMMITTERS {
            let pk = 100 + committer as i64;
            assert_eq!(
                replica_value(replica, pk),
                PER_COMMITTER as i64,
                "seed {seed}: committer {committer}'s last write did not survive"
            );
        }

        classes.insert(report.coverage.schedule_class);
        channel_yields += report.coverage.yields_of(txsql_sim::ResourceKind::Channel);
    }

    println!(
        "sim-coverage: suite=sim_scheduled_applier runs={n_seeds} classes={} \
         channel_yields={channel_yields}",
        classes.len()
    );
    assert!(
        channel_yields > 0,
        "the applier's queue never became a yield point"
    );
    assert!(
        classes.len() > 1,
        "every seed collapsed to a single schedule class"
    );
}

// ---------------------------------------------------------------------------
// Deterministic crash-window checks (no sim needed): each binlog crash point
// pins down what the client, the replicas and durable redo saw.
// ---------------------------------------------------------------------------

/// Builds a primary + semi-sync hook pair with `plan` installed, runs one
/// commit (which the plan crashes), and returns the pieces for inspection.
fn crash_one_commit(plan: FaultPlan) -> (Arc<Database>, Arc<ReplicationHook>, TxnId) {
    let db = Database::new(sim_config(Protocol::GroupLockingTxsql).with_fault_plan(plan));
    setup_accounts(&db);
    db.checkpoint().unwrap();
    let hook = ReplicationHook::builder(
        ReplicationMode::Synchronous,
        LatencyModel::in_memory(),
        REPLICAS,
    )
    .config(sim_semi_sync())
    .crash_injector(Arc::clone(db.faults()))
    .metrics(db.metrics_handle())
    .build();
    db.register_commit_hook(hook.clone());

    let mut txn = db.begin();
    db.update_add(&mut txn, ACCOUNTS, HOT_PK, 1, 1).unwrap();
    let id = txn.id;
    let err = db.commit(txn).unwrap_err();
    assert!(
        matches!(err, txsql_common::Error::Crashed { .. }),
        "expected an injected crash, got {err}"
    );
    assert!(db.has_crashed());
    (Arc::new(db), hook, id)
}

/// `pre_binlog_ship`: the crash lands after the redo flush but before any
/// replica saw the batch.  The client got an error (ambiguous outcome), the
/// replicas saw nothing, and recovery replays the durable commit — which the
/// oracle's envelope permits.
#[test]
fn pre_binlog_ship_crash_is_durable_but_never_shipped() {
    let plan = FaultPlan::none().crash_at(CrashPoint::PreBinlogShip, 1);
    let (db, hook, id) = crash_one_commit(plan);
    assert_eq!(hook.binlog_len(), 0, "the batch never reached the hook");
    for replica in hook.replicas() {
        assert_eq!(replica.applied_txns(), 0);
    }
    let (recovered, report) = db.restart_from_crash().unwrap();
    assert!(
        report.committed.contains(&id),
        "the commit record was flushed before the ship: {}",
        report.summary()
    );
    assert_eq!(committed_value(&recovered, HOT_PK), 1);
    recovered.shutdown();
}

/// `post_ship_pre_ack`: the crash lands between the ship and the ack wait.
/// The replicas already applied the batch, the client got an error, and the
/// restarted primary still has the transaction — the replicas are *not*
/// ahead of durable state.
#[test]
fn post_ship_pre_ack_crash_leaves_replicas_bounded_by_durable_redo() {
    let plan = FaultPlan::none().crash_at(CrashPoint::PostShipPreAck, 1);
    let (db, hook, id) = crash_one_commit(plan);
    for replica in hook.replicas() {
        assert_eq!(
            replica_value(replica, HOT_PK),
            1,
            "the ship preceded the crash"
        );
    }
    let (recovered, report) = db.restart_from_crash().unwrap();
    assert!(report.committed.contains(&id));
    assert_eq!(
        committed_value(&recovered, HOT_PK),
        1,
        "everything the replicas applied is durable on the restarted primary"
    );
    recovered.shutdown();
}

/// `post_ack`: the crash lands after the ack quorum was met but before the
/// client was answered.  Replicas and durable redo both have the
/// transaction; only the client ack was lost.
#[test]
fn post_ack_crash_loses_only_the_client_ack() {
    let plan = FaultPlan::none().crash_at(CrashPoint::PostAck, 1);
    let (db, hook, id) = crash_one_commit(plan);
    assert!(
        hook.acked_pos(0) >= 1 || hook.acked_pos(1) >= 1,
        "the ack quorum was met before the crash"
    );
    let (recovered, report) = db.restart_from_crash().unwrap();
    assert!(report.committed.contains(&id));
    assert_eq!(committed_value(&recovered, HOT_PK), 1);
    recovered.shutdown();
}
