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

use std::sync::Arc;
use txsql_common::rng::XorShiftRng;
use txsql_common::TableId;
use txsql_core::{Operation, Protocol, TxnProgram};
use txsql_storage::TableSchema;
use txsql_workloads::digest::{program_digest, Fnv1a};
use txsql_workloads::fixture::{self, add, Fixture};

const JOURNAL: TableId = TableId(2);
/// Accounts 0 and 1 take an increment from every program; 0 is declared hot
/// up front, 1 has to be promoted by the waits it causes.
const HOT_ROWS: u64 = 2;
/// The accounts transfers move money between; the one after them is only read.
const COLD_ROWS: u64 = 12;

/// One worker's programs: a snapshot read of a row nobody writes (snapshot
/// reads of written rows are consistent, not serializable), a hot increment,
/// a transfer between two cold accounts in random order (so plain 2PL
/// deadlocks now and then), a journal insert, then one of: for one program
/// in four an increment of the other hot row, for one in eight a `SELECT …
/// FOR UPDATE` of it that no update follows, for one in eight the same
/// followed by an increment of it, and for one in eight a second increment
/// of its own hot row; for `rollback_pct` % a forced rollback at the end.
fn worker_stream(seed: u64, worker: u64, programs: usize, rollback_pct: u64) -> Vec<TxnProgram> {
    let mut rng = XorShiftRng::for_worker(seed, worker);
    let add = |pk: u64, delta: i64| add(pk as i64, delta);
    (0..programs)
        .map(|i| {
            let hot = rng.next_bounded(HOT_ROWS);
            let from = rng.next_bounded(COLD_ROWS);
            let to = (from + 1 + rng.next_bounded(COLD_ROWS - 1)) % COLD_ROWS;
            let amount = 1 + rng.next_bounded(9) as i64;
            let mut ops = vec![
                Operation::Read {
                    table: fixture::ACCOUNTS,
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
            let other = 1 - hot;
            let select = Operation::SelectForUpdate {
                table: fixture::ACCOUNTS,
                pk: other as i64,
            };
            match rng.next_bounded(8) {
                0 | 1 => ops.push(add(other, 1)),
                2 => ops.push(select),
                6 => ops.push(add(hot, 1)),
                7 => ops.extend([select, add(other, 1)]),
                _ => {}
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
    /// Programs without a forced rollback: what every protocol must commit.
    committed: u64,
}

impl Stream {
    fn new(seed: u64, workers: u64, programs: usize, rollback_pct: u64, digest: u64) -> Self {
        let workers: Vec<_> = (0..workers)
            .map(|w| worker_stream(seed, w, programs, rollback_pct))
            .collect();
        let mut hash = Fnv1a::new();
        for program in workers.iter().flatten() {
            hash.write_u64(program_digest(program));
        }
        assert_eq!(hash.finish(), digest, "the program stream changed; re-pin");
        let committed = workers.iter().flatten().filter(|p| !forced(p)).count() as u64;
        let total = workers.iter().flatten().count() as u64;
        assert!(
            committed < total,
            "the stream must exercise the rollback path"
        );
        let committing = || workers.iter().flatten().filter(|p| !forced(p));
        let select = |op: &Operation| matches!(op, Operation::SelectForUpdate { .. });
        let selects = committing().any(|p| p.operations.iter().any(select));
        assert!(selects, "the stream must select for update");
        let adds = |p: &TxnProgram, pk| p.operations.iter().filter(|&op| *op == add(pk, 1)).count();
        let rewrites = committing().any(|p| adds(p, 0) > 1 || adds(p, 1) > 1);
        assert!(rewrites, "the stream must write a hot row twice");
        Self { workers, committed }
    }
}

fn forced(program: &TxnProgram) -> bool {
    program.operations.contains(&Operation::ForcedRollback)
}

/// The stream's fixture under `protocol`: the accounts, the journal, row 0
/// pinned hot.
fn database(protocol: Protocol, sweeper: bool) -> Fixture {
    let mut config = fixture::config(protocol);
    config.start_sweeper = sweeper && protocol.uses_hotspots();
    let db = txsql_core::Database::new(config);
    let fixture = Fixture::new(db, HOT_ROWS as i64, COLD_ROWS as i64 + 1);
    let journal = TableSchema::new(JOURNAL, "journal", 2);
    fixture.db.create_table(journal).unwrap();
    fixture.db.hotspots().pin(fixture.record(0));
    fixture
}

/// Runs one worker's programs, each until it commits or is rolled back by its
/// own `ForcedRollback`: none may starve.
fn run_worker(fixture: &Fixture, stream: &Stream, worker: u64) {
    let programs = &stream.workers[worker as usize];
    let committed = fixture.run(worker, programs);
    let expected = programs.iter().filter(|p| !forced(p)).count() as u64;
    assert_eq!(committed, expected, "worker {worker}: a program starved");
}

/// The audit, and what this stream adds to it: every program that could
/// commit did, exactly once.
fn check(fixture: &Fixture, stream: &Stream, context: &str) {
    fixture.audit(context);
    let db = &fixture.db;
    let journal = db.storage().table(JOURNAL).unwrap().row_count() as u64;
    assert_eq!(journal, stream.committed, "{context}: journal rows");
    assert_eq!(db.metrics().committed.get(), stream.committed, "{context}");
    let recorded = db.history().unwrap().committed_count() as u64;
    assert_eq!(recorded, stream.committed, "{context}: history entries");
}

#[test]
fn every_protocol_reaches_the_same_state_natively() {
    let stream = Stream::new(42, 4, 150, 1, 11693531689223236717);
    for protocol in Protocol::ALL {
        let fixture = database(protocol, true);
        let workers = stream.workers.len() as u64;
        fixture.threads(workers, |fixture, worker| {
            run_worker(fixture, &stream, worker)
        });
        check(&fixture, &stream, &format!("{protocol:?}"));
        let db = &fixture.db;
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
    let stream = Arc::new(Stream::new(42, 4, 3, 20, 6324253944133279536));
    let cases = fixture::cases(&Protocol::ALL, 100);
    // Seeds whose schedule piled enough waiters on row 1 to promote it
    // mid-run (the pin of row 0 counts as the first promotion): writers then
    // cross the promotion boundary.
    let mut promoted_seeds = [0; Protocol::ALL.len()];
    let sweep = fixture::explore("sim_protocols", cases, |(protocol, seed)| {
        let fixture = database(protocol, false);
        let stream_in = Arc::clone(&stream);
        let workers = stream.workers.len() as u64;
        let mut report = fixture.simulate(seed, workers, move |fixture, worker| {
            run_worker(fixture, &stream_in, worker);
        });
        check(&fixture, &stream, &format!("{protocol:?} seed {seed}"));
        promoted_seeds[protocol as usize] += u64::from(fixture.db.hotspots().promotions() > 1);
        // A schedule class is a class of one protocol's schedules.
        report.coverage.schedule_class ^= (protocol as u64 + 1) << 56;
        report
    });
    // The point of exploring: waiters pile up on their own, and only where
    // the protocol promotes.
    for protocol in Protocol::ALL {
        let promoted = promoted_seeds[protocol as usize];
        assert_eq!(
            promoted > 0,
            protocol.uses_hotspots(),
            "{protocol:?}: organic promotion in {promoted} of {} runs",
            sweep.runs
        );
    }
}
