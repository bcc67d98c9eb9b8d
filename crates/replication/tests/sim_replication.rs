//! Whole-pipeline replication crash/fault exploration (`txsql-sim` + the
//! storage fault injector + the replication fault injector): every seed
//! derives a [`FaultPlan`] that crashes the *primary* inside the
//! commit→binlog pipeline (`pre_binlog_ship`, `post_ship_pre_ack`,
//! `post_ack`) **and** a [`ReplFaultPlan`] that perturbs the *replication
//! path* (ack drop, replica stall, replica crash/restart, transient ship
//! errors), runs the shared fixture's commit workload
//! (`txsql_workloads::fixture`) under the deterministic scheduler — every
//! seed of the two engine sweeps under 2PL, queue locking and group locking —
//! and checks the **replication recovery oracle**:
//!
//! 1. every commit the client *acknowledged* survives in durable redo after
//!    a restart, no commit recovers in part, and the recorded history is
//!    serializable — the fixture's audit, which every case ends in — and a
//!    dead primary acknowledges nothing (the fixture per program, the
//!    in-flight probe per batch);
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
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use txsql_common::latency::{simulate_delay, LatencyModel};
use txsql_common::{Error, Result, Row, TxnId};
use txsql_core::{BinlogTxn, CommitHook, Database, Protocol, TxnProgram};
use txsql_replication::{
    ReplFaultPlan, ReplFaultPoint, Replica, ReplicationHook, ReplicationMode, SyncState,
};
use txsql_sim::{run_seed, RunReport};
use txsql_storage::fault::{CrashPoint, FaultInjector, FaultPlan};
use txsql_workloads::fixture::{self, add, explore, Fixture, ACCOUNTS};

const HOT: i64 = 0;
const WORKERS: u64 = 3;
const PER_WORKER: usize = 2;
const REPLICAS: usize = 2;

/// The engine sweeps run every seed under each of these, so that a
/// seed-derived fault parameter meets every protocol.
const PROTOCOLS: [Protocol; 3] = [
    Protocol::GroupLockingTxsql,
    Protocol::Mysql2pl,
    Protocol::QueueLockingO2,
];

/// The ack timeout for exploration: short, so injected stalls and crashes
/// degrade the hook within the run.
const SIM_ACK_TIMEOUT: Duration = Duration::from_millis(2);

/// The value a replica holds for `pk` (0 when it never saw the row — bulk
/// load is not replicated, so replicas start empty).
fn replica_value(replica: &Replica, pk: i64) -> i64 {
    replica
        .row(ACCOUNTS, pk)
        .and_then(|row| row.get_int(1))
        .unwrap_or(0)
}

/// Wraps the replication hook to notice a schedule this suite must reach
/// because the commit pipeline overlaps batches: a primary crash while a
/// *second* batch is between its redo flush and its ack.
struct InFlightProbe {
    inner: Arc<ReplicationHook>,
    /// The primary's fault injector: knows the crash instant.
    primary: Arc<FaultInjector>,
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
        // No `Ok` after the crash instant: a batch that enters its ack wait
        // on a dead primary is answered with the crash.  (The fixture holds
        // the same for a program begun on a dead engine.)
        let dead_on_entry = self.primary.crashed();
        let result = self.inner.await_ack(range, batch);
        let acked_dead = dead_on_entry && result.is_ok();
        assert!(!acked_dead, "a dead primary acknowledged {}", batch[0].txn);
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
    run: RunReport,
    crashed_at: Option<&'static str>,
    /// Commits acknowledged by the primary (before it crashed, if it did).
    acked: i64,
    /// The crash landed with two batches between flush and ack.
    crash_overlapped: bool,
    repl_hits: Vec<(&'static str, u64)>,
    semi_sync_timeouts: u64,
    degraded_commits: u64,
    semi_sync_resyncs: u64,
}

/// Runs the replicated workload under one seed — `plan` crashing the primary,
/// `repl_plan` perturbing the replication path — and applies the oracle.
fn explore_seed(
    (protocol, seed): (Protocol, u64),
    plan: FaultPlan,
    repl_plan: ReplFaultPlan,
    latency: LatencyModel,
) -> SeedOutcome {
    let target = plan.crash_target();
    let config = fixture::config(protocol)
        .with_fault_plan(plan)
        .with_latency(latency);
    let fixture = Fixture::new(Database::new(config), 1, WORKERS as i64);
    let db = &fixture.db;
    let context = format!("{protocol:?} seed {seed}");
    // Baseline checkpoint: bulk-loaded rows are not redo-logged, and none of
    // the binlog crash points can fire outside a commit.
    db.checkpoint().unwrap();

    let metrics = db.metrics_handle();
    let hook = ReplicationHook::builder(ReplicationMode::Synchronous, latency, REPLICAS)
        .ack_timeout(SIM_ACK_TIMEOUT)
        .faults(repl_plan)
        .crash_injector(Arc::clone(db.faults()))
        .metrics(Arc::clone(&metrics))
        .build();
    let probe = Arc::new(InFlightProbe {
        inner: hook.clone(),
        primary: Arc::clone(db.faults()),
        in_flight: AtomicI64::new(0),
        crash_overlapped: AtomicBool::new(false),
    });
    db.register_commit_hook(probe.clone());

    // Each transaction adds `+1` to the hot row *and* `+1` to the worker's
    // cold row (durability and atomicity stay checkable), committing through
    // the registered hook; a crash ends a worker's run — the primary is dead
    // and only a restart continues.
    let run = fixture.simulate(seed, WORKERS, |fixture, worker| {
        let increment = TxnProgram::new(vec![add(HOT, 1), add(fixture.cold(worker), 1)]);
        fixture.run(worker, &vec![increment; PER_WORKER]);
    });
    let acked = fixture.acknowledged(HOT);

    let crashed_at = db.has_crashed().then(|| {
        let fired = db.metrics().crash_injected.get();
        assert_eq!(fired, 1, "{context}: a crash fires exactly once");
        target.expect("only a planned crash can fire").0.name()
    });

    if db.has_crashed() {
        // --- The primary died inside the binlog pipeline.  (1) is the audit
        // --- of the restarted fixture: acked ⊆ durable, whole transactions,
        // --- a working engine.
        let (recovered, report) = fixture.restart();
        recovered.audit(&format!("{context}\n{}", report.summary()));

        // (2) Replicas never retain a transaction the restarted primary
        // lost: redo flushes before the binlog ships, so every applied
        // after-image is bounded by the recovered durable counters (the
        // workload's values are monotonic; the restart's probe added one to
        // the hot row).
        for replica in hook.replicas() {
            for pk in (0..WORKERS).map(|w| fixture.cold(w)).chain([HOT]) {
                let (held, durable) = (replica_value(replica, pk), recovered.value(pk));
                assert!(
                    held <= durable - i64::from(pk == HOT),
                    "{context}: {} retains {held} in account {pk}, recovered {durable} \
                     — it applied a transaction the restarted primary lost",
                    replica.name()
                );
            }
        }
    } else {
        // --- Fault-only schedule (or the planned crash never triggered):
        // --- nothing acked was lost and nothing unacked leaked in (the
        // --- audit), and the degrade → re-sync cycle must converge exactly.
        fixture.audit(&context);
        let expected = hook.binlog_len();
        assert!(
            hook.wait_caught_up(expected, Duration::from_secs(2)),
            "{context}: replicas never caught up to {expected} binlog entries \
             (acked: {:?}, lag {})",
            (0..REPLICAS).map(|i| hook.acked_pos(i)).collect::<Vec<_>>(),
            hook.replica_lag()
        );
        let state = hook.sync_state();
        assert_eq!(state, SyncState::SemiSync, "{context}: stayed degraded");

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
                "{context}: {} diverges from the primary on {diverging:?}",
                replica.name()
            );
            assert_eq!(
                replica.log_pos(),
                expected,
                "{context}: {} relay position did not reach the binlog end",
                replica.name()
            );
            assert_eq!(
                replica.applied_txns(),
                expected,
                "{context}: {} applied a batch twice (or lost one)",
                replica.name()
            );
        }
        hook.shutdown();
    }

    SeedOutcome {
        run,
        crashed_at,
        acked,
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
/// actually fire, and every protocol's primary must have crashed after it
/// acknowledged something (otherwise the exploration is vacuous).
#[test]
fn sim_replication_exploration_upholds_the_recovery_oracle() {
    let mut crashed_points = HashSet::new();
    let mut acked_then_crashed = HashSet::new();
    let mut repl_hits: HashMap<&'static str, u64> = HashMap::new();
    let mut timeouts = 0u64;
    let mut degraded = 0u64;
    let mut resyncs = 0u64;
    let cases = fixture::cases(&PROTOCOLS, 200);
    let sweep = explore("sim_replication", cases, |(protocol, seed)| {
        let outcome = explore_seed(
            (protocol, seed),
            FaultPlan::seeded_binlog(seed),
            ReplFaultPlan::seeded(seed),
            LatencyModel::in_memory(),
        );
        if let Some(point) = outcome.crashed_at {
            crashed_points.insert(point);
            if outcome.acked > 0 {
                acked_then_crashed.insert(protocol);
            }
        }
        for (name, hits) in outcome.repl_hits {
            *repl_hits.entry(name).or_insert(0) += hits;
        }
        timeouts += outcome.semi_sync_timeouts;
        degraded += outcome.degraded_commits;
        resyncs += outcome.semi_sync_resyncs;
        outcome.run
    });
    let n_seeds = sweep.runs;
    assert_eq!(
        acked_then_crashed.len(),
        PROTOCOLS.len(),
        "only {acked_then_crashed:?} crashed after an acknowledged commit ({n_seeds} runs)"
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
    let mut overlapped: HashSet<&'static str> = HashSet::new();
    let cases = fixture::cases(&PROTOCOLS, 200);
    let sweep = explore("sim_replication/overlap", cases, |(protocol, seed)| {
        // From the second hit on: the first batch is in flight by then.
        let point = POINTS[(seed % 4) as usize];
        let plan = FaultPlan::none().crash_at(point, 2 + (seed / 4) % 4);
        let outcome = explore_seed(
            (protocol, seed),
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
        outcome.run
    });
    let n_seeds = sweep.runs;
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
// The async applier under exploration: a scheduled sim thread, so the
// doorbell's rings and takes are tagged yield points the explorer interleaves
// with the committers, a concurrent catch-up wait and shutdown.
// ---------------------------------------------------------------------------

/// One committer: ships `rounds` batches, each setting account
/// `100 + committer` to the round's number.
fn ship_rounds(hook: &ReplicationHook, next_trx: &AtomicI64, committer: usize, rounds: u64) {
    let pk = 100 + committer as i64;
    for round in 1..=rounds {
        let trx_no = next_trx.fetch_add(1, Ordering::Relaxed) as u64;
        let batch = [BinlogTxn {
            txn: TxnId(trx_no),
            trx_no,
            changes: vec![(ACCOUNTS, pk, Row::from_ints(&[pk, round as i64]))],
            involves_hotspot: false,
        }];
        hook.on_commit_batch(&batch).unwrap();
    }
}

/// The hook the applier thread built, once it has.
fn published(built: &OnceLock<Arc<ReplicationHook>>) -> Arc<ReplicationHook> {
    loop {
        if let Some(hook) = built.get() {
            return Arc::clone(hook);
        }
        simulate_delay(Duration::from_micros(10));
    }
}

/// The async applier as a scheduled sim thread running
/// [`ReplicationHook::run_applier_loop`] — the loop the native applier
/// thread runs: committers ring it, a concurrent `wait_caught_up` runs
/// catch-up passes of its own, and a coordinator shuts the hook down once
/// the committers are done.  On every schedule the applier exits and the
/// replica holds every binlog entry exactly once, each committer's last
/// write included.  The applier thread builds the hook, inside the run,
/// where `build` spawns no OS thread.  (The hook alone, fed batches by hand:
/// there is no engine whose history or accounts the audit could check.)
#[test]
fn sim_async_applier_converges_and_exits() {
    const COMMITTERS: usize = 2;
    const PER_COMMITTER: u64 = 2;
    const TOTAL: u64 = COMMITTERS as u64 * PER_COMMITTER;
    let sweep = explore("sim_async_applier", txsql_sim::ci_seeds(200), |seed| {
        let built = Arc::new(OnceLock::new());
        let exited = Arc::new(AtomicBool::new(false));
        let next_trx = Arc::new(AtomicI64::new(1));
        let done = Arc::new(AtomicI64::new(0));

        let report = run_seed(seed, |sim| {
            let (cell, exited) = (Arc::clone(&built), Arc::clone(&exited));
            sim.spawn("applier", move || {
                let latency = LatencyModel::in_memory();
                let hook = ReplicationHook::new(ReplicationMode::Asynchronous, latency, 1);
                let _ = cell.set(Arc::clone(&hook));
                hook.run_applier_loop();
                exited.store(true, Ordering::Relaxed);
            });
            for committer in 0..COMMITTERS {
                let (cell, next_trx, done) =
                    (Arc::clone(&built), Arc::clone(&next_trx), Arc::clone(&done));
                sim.spawn(format!("committer-{committer}"), move || {
                    ship_rounds(&published(&cell), &next_trx, committer, PER_COMMITTER);
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            let cell = Arc::clone(&built);
            sim.spawn("catch-up", move || {
                published(&cell).wait_caught_up(TOTAL, Duration::from_millis(500));
            });
            let (cell, done) = (Arc::clone(&built), Arc::clone(&done));
            sim.spawn("coordinator", move || {
                let hook = published(&cell);
                while done.load(Ordering::Relaxed) < COMMITTERS as i64 {
                    simulate_delay(Duration::from_micros(50));
                }
                hook.shutdown();
            });
        });

        let hook = built.get().expect("the applier built the hook");
        assert!(
            exited.load(Ordering::Relaxed),
            "seed {seed}: the applier never exited"
        );
        let replica = &hook.replicas()[0];
        assert_eq!(
            (replica.applied_txns(), replica.log_pos(), hook.binlog_len()),
            (TOTAL, TOTAL, TOTAL),
            "seed {seed}: a batch was lost or applied twice"
        );
        assert_last_writes(replica, COMMITTERS, PER_COMMITTER, seed);
        report
    });
    assert!(
        sweep.yields_by_kind[txsql_sim::ResourceKind::Channel as usize] > 0,
        "the applier's doorbell never became a yield point"
    );
    assert!(
        sweep.distinct_classes > 1,
        "every seed collapsed to a single schedule class"
    );
}

/// Every committer's last [`ship_rounds`] write reached `replica`.
fn assert_last_writes(replica: &Replica, committers: usize, rounds: u64, seed: u64) {
    for pk in (0..committers as i64).map(|committer| 100 + committer) {
        let value = replica_value(replica, pk);
        assert_eq!(value, rounds as i64, "seed {seed}: last write to {pk} lost");
    }
}

// ---------------------------------------------------------------------------
// Deterministic crash-window checks (no sim needed): each binlog crash point
// pins down what the client, the replicas and durable redo saw.
// ---------------------------------------------------------------------------

/// Builds a primary + semi-sync hook pair with `plan` installed and runs one
/// commit, which the plan crashes: the client gets an error, the transaction
/// is in doubt.
fn crash_one_commit(plan: FaultPlan) -> (Fixture, Arc<ReplicationHook>) {
    let config = fixture::config(Protocol::GroupLockingTxsql).with_fault_plan(plan);
    let fixture = Fixture::new(Database::new(config), 1, 0);
    let db = &fixture.db;
    db.checkpoint().unwrap();
    let hook = ReplicationHook::builder(
        ReplicationMode::Synchronous,
        LatencyModel::in_memory(),
        REPLICAS,
    )
    .ack_timeout(SIM_ACK_TIMEOUT)
    .crash_injector(Arc::clone(db.faults()))
    .metrics(db.metrics_handle())
    .build();
    db.register_commit_hook(hook.clone());
    let increment = TxnProgram::new(vec![add(HOT, 1)]);
    assert_eq!(
        fixture.run(0, &[increment]),
        0,
        "the plan crashes the commit"
    );
    assert!(db.has_crashed());
    (fixture, hook)
}

/// Every binlog crash point lies behind the redo flush: the restarted
/// primary has the in-doubt commit (and, like every restart, the probe's).
fn restart_recovers_the_commit(fixture: &Fixture, context: &str) {
    let (recovered, report) = fixture.restart();
    let summary = report.summary();
    assert_eq!(report.committed.len(), 1, "{context}: {summary}");
    assert_eq!(recovered.value(HOT), 1 + 1, "{context}: {summary}");
    recovered.audit(context);
}

/// `pre_binlog_ship`: the crash lands after the redo flush but before any
/// replica saw the batch.  The client got an error (in doubt), the replicas
/// saw nothing, and recovery replays the durable commit — which the audit
/// permits.
#[test]
fn pre_binlog_ship_crash_is_durable_but_never_shipped() {
    let plan = FaultPlan::none().crash_at(CrashPoint::PreBinlogShip, 1);
    let (fixture, hook) = crash_one_commit(plan);
    assert_eq!(hook.binlog_len(), 0, "the batch never reached the hook");
    for replica in hook.replicas() {
        assert_eq!(replica.applied_txns(), 0);
    }
    restart_recovers_the_commit(&fixture, "flushed before the ship");
}

/// `post_ship_pre_ack`: the crash lands between the ship and the ack wait.
/// The replicas already applied the batch, the client got an error, and the
/// restarted primary still has the transaction — the replicas are *not*
/// ahead of durable state.
#[test]
fn post_ship_pre_ack_crash_leaves_replicas_bounded_by_durable_redo() {
    let plan = FaultPlan::none().crash_at(CrashPoint::PostShipPreAck, 1);
    let (fixture, hook) = crash_one_commit(plan);
    for replica in hook.replicas() {
        assert_eq!(
            replica_value(replica, HOT),
            1,
            "the ship preceded the crash"
        );
    }
    restart_recovers_the_commit(&fixture, "what the replicas applied is durable");
}

/// `post_ack`: the crash lands after the ack quorum was met but before the
/// client was answered.  Replicas and durable redo both have the
/// transaction; only the client ack was lost.
#[test]
fn post_ack_crash_loses_only_the_client_ack() {
    let plan = FaultPlan::none().crash_at(CrashPoint::PostAck, 1);
    let (fixture, hook) = crash_one_commit(plan);
    assert!(
        hook.acked_pos(0) >= 1 || hook.acked_pos(1) >= 1,
        "the ack quorum was met before the crash"
    );
    restart_recovers_the_commit(&fixture, "only the client ack was lost");
}
