//! The one fixture and the one audit of the engine's test suites.
//!
//! Group locking lets a hot row's writers run on each other's uncommitted
//! versions without a lock (§4.3–4.5), so a protocol is only as good as the
//! oracle it passes — and every protocol has to pass the *same* one, under
//! the same schedules, crashes and replication faults.  A suite therefore
//! declares only what is its own: which protocol, which fault, which
//! programs.  The rest is here:
//!
//! * [`config`] — the engine configuration that is safe under `txsql-sim`
//!   and records the history the audit checks;
//! * [`Fixture`] — an `accounts(id, balance)` table of hot rows and
//!   per-worker cold rows, all at balance 0, a committed-value reader,
//!   workers that run programs to commit through the drivers' budgeted retry
//!   loop, natively ([`Fixture::threads`]) or under the simulator
//!   ([`Fixture::simulate`]), and a ledger of what those workers were told;
//! * [`Fixture::audit`] — the oracle, one call on a fixture whose workers are
//!   done (see there for what it checks);
//! * [`explore`] — the seed loop and the greppable `sim-coverage:` line.
//!
//! A new protocol is one more value a suite passes to [`config`]; a new fault
//! is a field of the configuration (or a commit hook) the suite sets before
//! it builds the fixture.  Neither adds an oracle.

use crate::driver::execute_with_retries;
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use txsql_common::{RecordId, Row, TableId};
use txsql_core::{Database, EngineConfig, Operation, Protocol, TxnProgram};
use txsql_sim::{ExploreSummary, RunReport};
use txsql_storage::recovery::RecoveryReport;
use txsql_storage::TableSchema;

/// The fixture's table: `accounts(id, balance)`.
pub const ACCOUNTS: TableId = TableId(1);

/// The configuration every suite starts from: no sweeper thread (under the
/// simulator every thread that touches the engine must be a sim thread),
/// promotion after two waiters and a 100 ms lock wait so that small runs
/// reach the hot-row paths and their timeouts, a retry budget that outlasts
/// an adversarial schedule, and the history the audit checks.
pub fn config(protocol: Protocol) -> EngineConfig {
    let mut config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100))
        .with_history_recording(true);
    config.start_sweeper = false;
    config.admission.retry_budget = 200;
    config
}

/// `UPDATE accounts SET balance = balance + delta WHERE id = pk`.
pub fn add(pk: i64, delta: i64) -> Operation {
    Operation::UpdateAdd {
        table: ACCOUNTS,
        pk,
        column: 1,
        delta,
    }
}

/// Runs `one` per case — a seed, or a seed with whatever else the suite
/// varies — and prints the suite's `sim-coverage:` line, whose `classes=`
/// CI holds against a floor.  A failing case panics inside `one` with its
/// replayable artifact ([`Fixture::simulate`]).
pub fn explore<C>(
    suite: &str,
    cases: impl IntoIterator<Item = C>,
    one: impl FnMut(C) -> RunReport,
) -> ExploreSummary {
    let summary = txsql_sim::explore_cases(cases, one);
    println!("{}", summary.line(suite));
    summary
}

/// The cases of a sweep that runs every CI seed (`TXSQL_SIM_SEEDS`, by default
/// `0..default_seeds`) under each of `protocols`.
pub fn cases(protocols: &[Protocol], default_seeds: u64) -> Vec<(Protocol, u64)> {
    let seeds = txsql_sim::ci_seeds(default_seeds);
    let mut cases = Vec::new();
    for protocol in protocols {
        cases.extend(seeds.iter().map(|seed| (*protocol, *seed)));
    }
    cases
}

/// What the fixture's workers were told about their programs.
struct Ledger {
    /// Per account, the sum of the deltas of acknowledged commits.
    acked: Vec<i64>,
    /// The programs that ended in an error no retry can cure (the engine
    /// crashed under them): committed or not, nobody knows.
    in_doubt: Vec<TxnProgram>,
}

/// Adds `program`'s account deltas to `balances`.
fn apply(balances: &mut [i64], program: &TxnProgram) {
    for op in &program.operations {
        if let Operation::UpdateAdd {
            table: ACCOUNTS,
            pk,
            delta,
            ..
        } = op
        {
            balances[*pk as usize] += delta;
        }
    }
}

/// One engine with the accounts table, and the ledger of its workers.  Cheap
/// to clone (shared handles), so worker closures take their own.
#[derive(Clone)]
pub struct Fixture {
    /// The engine under test.
    pub db: Database,
    /// The engine `db` was recovered from ([`Fixture::restart`]).
    crashed: Option<Database>,
    hot: i64,
    ledger: Arc<Mutex<Ledger>>,
}

impl Fixture {
    /// Creates the accounts table in `db`: rows `0..hot` are the rows the
    /// suite contends on, row [`Fixture::cold`]`(w)` is worker `w`'s own.
    pub fn new(db: Database, hot: i64, cold: i64) -> Self {
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .expect("a fresh engine has no accounts table");
        for pk in 0..hot + cold {
            db.load_row(ACCOUNTS, Row::from_ints(&[pk, 0]))
                .expect("distinct keys");
        }
        let ledger = Ledger {
            acked: vec![0; (hot + cold) as usize],
            in_doubt: Vec::new(),
        };
        Self {
            db,
            crashed: None,
            hot,
            ledger: Arc::new(Mutex::new(ledger)),
        }
    }

    /// The key of worker `worker`'s cold row.
    pub fn cold(&self, worker: u64) -> i64 {
        self.hot + worker as i64
    }

    /// The record behind account `pk`.
    pub fn record(&self, pk: i64) -> RecordId {
        self.db.record_id(ACCOUNTS, pk).expect("an accounts row")
    }

    /// The committed balance of account `pk`.
    pub fn value(&self, pk: i64) -> i64 {
        let row = self.db.storage().read_committed(ACCOUNTS, self.record(pk));
        let balance = row.expect("an accounts row").and_then(|row| row.get_int(1));
        balance.expect("a committed balance")
    }

    /// Enters an acknowledged commit's `(account, delta)`s into the ledger.
    /// [`Fixture::run`] does this for its programs; a suite that commits
    /// through the session API does it itself.
    pub fn acked(&self, deltas: &[(i64, i64)]) {
        let mut ledger = self.ledger.lock();
        for (pk, delta) in deltas {
            ledger.acked[*pk as usize] += delta;
        }
    }

    /// The sum of the deltas acknowledged for account `pk` so far.
    pub fn acknowledged(&self, pk: i64) -> i64 {
        self.ledger.lock().acked[pk as usize]
    }

    /// Runs `programs` in order, each through the drivers' budgeted retry
    /// loop (the engine's budget and backoff, jitter seeded per worker and
    /// program), and returns how many committed.  A program that is still
    /// failing retryably when its budget is spent was rolled back every time
    /// and is skipped; an engine that died under a program ends the run, and
    /// that program is in doubt.  An engine that was dead before a program
    /// began acknowledges nothing.
    pub fn run(&self, worker: u64, programs: &[TxnProgram]) -> u64 {
        let never = AtomicBool::new(false);
        let mut committed = 0;
        for (i, program) in programs.iter().enumerate() {
            let retry_seed = worker << 32 | i as u64;
            let dead = self.db.has_crashed();
            match execute_with_retries(&self.db, program, 0, &never, retry_seed) {
                Ok(true) => {
                    assert!(!dead, "a dead engine acknowledged {program:?}");
                    apply(&mut self.ledger.lock().acked, program);
                    committed += 1;
                }
                Ok(false) => {}
                Err(err) if err.is_retryable() => {}
                Err(err) => {
                    assert!(
                        self.db.has_crashed() || self.db.is_read_only(),
                        "a live engine answered {err} to {program:?}"
                    );
                    self.ledger.lock().in_doubt.push(program.clone());
                    break;
                }
            }
        }
        committed
    }

    /// Runs `work(fixture, w)` for `w` in `0..workers` on native threads that
    /// start together.
    pub fn threads(&self, workers: u64, work: impl Fn(&Fixture, u64) + Sync) {
        let start = Barrier::new(workers as usize);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (start, work) = (&start, &work);
                scope.spawn(move || {
                    start.wait();
                    work(self, worker);
                });
            }
        });
    }

    /// Runs `work(fixture, w)` for `w` in `0..workers` as the threads of one
    /// simulated schedule.  A deadlock, a lost wake-up or a panic in a thread
    /// panics here with the seed, the failure and the schedule to replay.
    pub fn simulate(
        &self,
        seed: u64,
        workers: u64,
        work: impl Fn(&Fixture, u64) + Send + Sync + 'static,
    ) -> RunReport {
        let work = Arc::new(work);
        txsql_sim::run_seed(seed, |sim| {
            for worker in 0..workers {
                let (fixture, work) = (self.clone(), Arc::clone(&work));
                let name = format!("{:?}/worker-{worker}", self.db.protocol());
                sim.spawn(name, move || work(&fixture, worker));
            }
        })
    }

    /// Restarts the engine from its crash image (or, healthy, from its last
    /// checkpoint and durable log) and proves the restarted one works by
    /// committing to account 0 through it.  The returned fixture keeps the
    /// ledger, and the old engine for the audit.
    pub fn restart(&self) -> (Fixture, RecoveryReport) {
        let (db, report) = self.db.restart_from_crash().expect("recovery");
        let recovered = Fixture {
            db,
            crashed: Some(self.db.clone()),
            ..self.clone()
        };
        let probe = TxnProgram::new(vec![add(0, 1)]);
        assert_eq!(
            recovered.run(0, &[probe]),
            1,
            "the restarted engine is dead"
        );
        (recovered, report)
    }

    /// The oracle.  On a fixture whose workers are done:
    ///
    /// * **serializable** — the recorded history of acknowledged commits has
    ///   an acyclic serialization graph (a restart starts a new history: the
    ///   old engine's and the restarted one's are both checked);
    /// * **conserved, and acked ⊆ durable** — every account holds exactly the
    ///   acknowledged deltas, plus those of some set of the in-doubt
    ///   programs, each of them whole: nothing acknowledged is lost (across a
    ///   restart: it was durable), nothing rolled back or never attempted
    ///   shows, and no program shows in part;
    /// * **drained** — no lock registry entry, no protocol state (hot-row
    ///   group, ticket queue, completion event), no storage entry (a writer's
    ///   first LSN, the checkpoint floor), no admission waiter and no
    ///   admission queue still shedding is left behind.
    pub fn audit(&self, context: &str) {
        for db in self.crashed.iter().chain([&self.db]) {
            let history = db.history().expect("the fixture's config records history");
            let report = history.check();
            assert!(
                report.is_serializable(),
                "{context}: history is not serializable, cycle {:?}\nhistory: {:#?}",
                report.cycle,
                history.committed_snapshot()
            );
            let snapshot = db.snapshot_metrics(Duration::from_secs(1));
            let admission = db.admission();
            assert_eq!(snapshot.lock_registry_entries, 0, "{context}: leaked locks");
            assert_eq!(db.protocol_entries(), 0, "{context}: leaked protocol state");
            let floor = db.storage().active_txn_floor();
            assert_eq!(floor, None, "{context}: leaked storage entry");
            assert_eq!(snapshot.admission_queue_depth, 0, "{context}: depth gauge");
            assert_eq!(admission.total_waiting(), 0, "{context}: parked waiters");
            assert_eq!(admission.degraded_queues(), 0, "{context}: degraded queue");
        }
        let ledger = self.ledger.lock();
        let balances: Vec<i64> = (0..ledger.acked.len() as i64)
            .map(|pk| self.value(pk))
            .collect();
        let explained = (0u32..1 << ledger.in_doubt.len()).any(|chosen| {
            let mut expected = ledger.acked.clone();
            for (i, program) in ledger.in_doubt.iter().enumerate() {
                if chosen >> i & 1 == 1 {
                    apply(&mut expected, program);
                }
            }
            expected == balances
        });
        assert!(
            explained,
            "{context}: balances {balances:?} are not the acknowledged deltas {:?} \
             plus any set of the in-doubt programs {:?}",
            ledger.acked, ledger.in_doubt
        );
    }
}
