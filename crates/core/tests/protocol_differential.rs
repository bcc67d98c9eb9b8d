//! Differential protocol test: one pinned program stream through all six
//! protocols, judged by one oracle.
//!
//! The protocols differ in *how* a write is admitted, ordered at commit and
//! undone (see `txsql_core::cc`); what they must agree on is the result.
//! Every worker retries each of its programs until it commits, so the final
//! state is a function of the stream alone, and every protocol has to reach
//! it: a serializable history, the same row totals, and nothing left behind
//! in the lock registry, the hot-row groups, the ticket queues, Bamboo's
//! completions or the admission queues.  The stream runs natively at four
//! threads and under `txsql-sim` at the CI seed budget (`TXSQL_SIM_SEEDS`).
//!
//! A hook of the protocol seam that stops doing its job fails here: a group
//! commit turn that is never passed on, a ticket or a completion that is
//! never released, a lock that outlives its transaction.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::rng::XorShiftRng;
use txsql_common::{Row, TableId};
use txsql_core::{Database, EngineConfig, Operation, OsEvent, Protocol, TxnProgram};
use txsql_storage::TableSchema;
use txsql_workloads::digest::{program_digest, Fnv1a};

const ACCOUNTS: TableId = TableId(1);
const JOURNAL: TableId = TableId(2);
/// Accounts 0 and 1 take an increment from every program; 0 is declared hot
/// up front, 1 has to be promoted by the waits it causes.
const HOT_ROWS: u64 = 2;
const COLD_ROWS: u64 = 12;
const COLD_BALANCE: i64 = 1_000;

/// One worker's programs: a snapshot read of a row nobody writes (snapshot
/// reads of written rows are consistent, not serializable), a hot increment,
/// a transfer between two cold accounts in random order (so plain 2PL
/// deadlocks now and then), a journal insert, for one program in four an
/// increment of the other hot row, and for `rollback_pct` % a forced rollback
/// at the end.
fn worker_stream(seed: u64, worker: u64, programs: usize, rollback_pct: u64) -> Vec<TxnProgram> {
    let mut rng = XorShiftRng::for_worker(seed, worker);
    let add = |pk: u64, delta: i64| Operation::UpdateAdd {
        table: ACCOUNTS,
        pk: pk as i64,
        column: 1,
        delta,
    };
    (0..programs)
        .map(|i| {
            let hot = rng.next_bounded(HOT_ROWS);
            let from = rng.next_bounded(COLD_ROWS);
            let to = (from + 1 + rng.next_bounded(COLD_ROWS - 1)) % COLD_ROWS;
            let amount = 1 + rng.next_bounded(9) as i64;
            let mut ops = vec![
                Operation::Read {
                    table: ACCOUNTS,
                    pk: (HOT_ROWS + COLD_ROWS) as i64,
                },
                add(hot, 1),
                add(HOT_ROWS + from, -amount),
                add(HOT_ROWS + to, amount),
                Operation::Insert {
                    table: JOURNAL,
                    pk: (worker * 10_000) as i64 + i as i64,
                    fill: amount,
                },
            ];
            if rng.next_bounded(4) == 0 {
                ops.push(add(1 - hot, 1));
            }
            if rng.next_bounded(100) < rollback_pct {
                ops.push(Operation::ForcedRollback);
            }
            TxnProgram::new(ops)
        })
        .collect()
}

struct Stream {
    workers: Vec<Vec<TxnProgram>>,
    /// What every protocol must end with: the hot rows' values and the number
    /// of committed programs (= journal rows).
    hot_totals: [i64; HOT_ROWS as usize],
    committed: u64,
}

impl Stream {
    fn new(seed: u64, workers: u64, programs: usize, rollback_pct: u64, digest: u64) -> Self {
        let workers: Vec<_> = (0..workers)
            .map(|w| worker_stream(seed, w, programs, rollback_pct))
            .collect();
        let mut hash = Fnv1a::new();
        let mut hot_totals = [0; HOT_ROWS as usize];
        let mut committed = 0;
        for program in workers.iter().flatten() {
            hash.write_u64(program_digest(program));
            if program.operations.contains(&Operation::ForcedRollback) {
                continue;
            }
            committed += 1;
            for op in &program.operations {
                if let Operation::UpdateAdd { pk, delta, .. } = op {
                    if (*pk as u64) < HOT_ROWS {
                        hot_totals[*pk as usize] += delta;
                    }
                }
            }
        }
        assert_eq!(hash.finish(), digest, "the program stream changed; re-pin");
        let forced = workers.iter().flatten().count() as u64 - committed;
        assert!(forced > 0, "the stream must exercise the rollback path");
        Self {
            workers,
            hot_totals,
            committed,
        }
    }
}

fn database(protocol: Protocol, sweeper: bool) -> Arc<Database> {
    let mut config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100))
        .with_history_recording(true);
    config.start_sweeper &= sweeper;
    let db = Database::new(config);
    db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
        .unwrap();
    db.create_table(TableSchema::new(JOURNAL, "journal", 2))
        .unwrap();
    for pk in 0..=(HOT_ROWS + COLD_ROWS) as i64 {
        let balance = if (pk as u64) < HOT_ROWS {
            0
        } else {
            COLD_BALANCE
        };
        db.load_row(ACCOUNTS, Row::from_ints(&[pk, balance]))
            .unwrap();
    }
    db.hotspots().pin(db.record_id(ACCOUNTS, 0).unwrap());
    Arc::new(db)
}

/// Runs one worker's programs, each until it commits (or is rolled back by
/// its own `ForcedRollback`), pacing retries with the drivers' backoff (its
/// jitter seeded per worker, or colliding workers would retry in lockstep).
/// The pause is a wait nobody ends: natively a sleep, under the simulator a
/// park until the virtual deadline — it takes this worker off the run queue
/// without pushing the shared clock under everybody else's timeouts.
fn run_worker(db: &Database, stream: &Stream, worker: usize) {
    let mut policy = db.backoff_policy();
    policy.budget = 200;
    for (i, program) in stream.workers[worker].iter().enumerate() {
        let forced = program.operations.contains(&Operation::ForcedRollback);
        let mut retry = policy.begin((worker * 1_000 + i) as u64);
        loop {
            match db.execute_program(program) {
                Ok(outcome) => {
                    assert_eq!(outcome.committed, !forced);
                    break;
                }
                Err(err) if err.is_retryable() => match retry.next_backoff(&policy) {
                    Some(delay) => drop(OsEvent::new().wait_for(delay)),
                    None => panic!("program starved, last error {err}: {program:?}"),
                },
                Err(err) => panic!("unexpected error {err}: {program:?}"),
            }
        }
    }
}

fn balance(db: &Database, pk: i64) -> i64 {
    let record = db.record_id(ACCOUNTS, pk).unwrap();
    let row = db.storage().read_committed(ACCOUNTS, record).unwrap();
    row.unwrap().get_int(1).unwrap()
}

/// The one oracle every protocol has to pass once its workers are done.
fn check(db: &Database, stream: &Stream, context: &str) {
    for (pk, expected) in stream.hot_totals.iter().enumerate() {
        let got = balance(db, pk as i64);
        assert_eq!(got, *expected, "{context}: hot row {pk} lost an update");
    }
    let cold: i64 = (HOT_ROWS..HOT_ROWS + COLD_ROWS)
        .map(|pk| balance(db, pk as i64))
        .sum();
    let expected_cold = COLD_ROWS as i64 * COLD_BALANCE;
    assert_eq!(cold, expected_cold, "{context}: transfers leaked money");
    let journal = db.storage().table(JOURNAL).unwrap().row_count() as u64;
    assert_eq!(journal, stream.committed, "{context}: journal rows");
    assert_eq!(db.metrics().committed.get(), stream.committed, "{context}");

    let history = db.history().expect("history recording is on");
    let report = history.check();
    assert!(
        report.is_serializable(),
        "{context}: history is not serializable, cycle {:?}\nhistory: {:#?}",
        report.cycle,
        history.committed_snapshot()
    );
    assert_eq!(report.transactions as u64, stream.committed, "{context}");

    let snapshot = db.snapshot_metrics(Duration::from_secs(1));
    assert_eq!(snapshot.lock_registry_entries, 0, "{context}: leaked locks");
    assert_eq!(snapshot.admission_queue_depth, 0, "{context}");
    let leaked = db.protocol_entries();
    assert_eq!(leaked, 0, "{context}: leaked protocol state");
}

#[test]
fn every_protocol_reaches_the_same_state_natively() {
    let stream = Stream::new(42, 4, 150, 1, 17858908738049935679);
    for protocol in Protocol::ALL {
        let db = database(protocol, true);
        std::thread::scope(|scope| {
            for worker in 0..stream.workers.len() {
                let (db, stream) = (&db, &stream);
                scope.spawn(move || run_worker(db, stream, worker));
            }
        });
        check(&db, &stream, &format!("{protocol:?}"));
        // Row 0 is hot from the first statement: the ticket queue / the group
        // path must have carried its writers.
        let hot_entries = db.metrics().hotspot_group_entries.get();
        assert_eq!(hot_entries > 0, protocol.uses_hotspots(), "{protocol:?}");
        // Aria's batches never touch the lock table; everyone else's
        // programs lock what they write.
        let locked = db.metrics().locks_released.get() > 0;
        assert_eq!(locked, protocol != Protocol::Aria, "{protocol:?}");
        db.shutdown();
    }
}

#[test]
fn every_protocol_reaches_the_same_state_on_every_explored_schedule() {
    let stream = Arc::new(Stream::new(42, 4, 3, 20, 5795412385265887868));
    let seeds = txsql_sim::ci_seeds(100);
    let mut classes: HashSet<(Protocol, u64)> = HashSet::new();
    let mut runs = 0;
    for protocol in Protocol::ALL {
        // Seeds whose schedule piled enough waiters on row 1 to promote it
        // mid-run: writers then cross the promotion boundary.
        let mut promoted_seeds = 0;
        for &seed in &seeds {
            let db = database(protocol, false);
            let report = txsql_sim::run_with_seed(seed, |sim| {
                for worker in 0..stream.workers.len() {
                    let (db, stream) = (Arc::clone(&db), Arc::clone(&stream));
                    sim.spawn(format!("worker-{worker}"), move || {
                        run_worker(&db, &stream, worker);
                    });
                }
            });
            if let Some(failure) = &report.failure {
                panic!(
                    "{protocol:?} seed {seed} failed: {failure}\nschedule: {:?}",
                    report.schedule
                );
            }
            check(&db, &stream, &format!("{protocol:?} seed {seed}"));
            classes.insert((protocol, report.coverage.schedule_class));
            runs += 1;
            // The pin of row 0 counts as the first promotion.
            promoted_seeds += u64::from(db.hotspots().promotions() > 1);
            db.shutdown();
        }
        // The point of exploring: waiters pile up on their own, and only
        // where the protocol promotes.
        assert_eq!(
            promoted_seeds > 0,
            protocol.uses_hotspots(),
            "{protocol:?}: organic promotion in {promoted_seeds} of {} seeds",
            seeds.len()
        );
    }
    println!(
        "sim-coverage: suite=sim_protocols runs={runs} classes={}",
        classes.len()
    );
}
