//! Randomized property tests over the whole engine.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so the same properties are exercised with the workspace's own
//! seedable `XorShiftRng` (deterministic across runs, seeds printed on
//! failure).  The model is the shared fixture's ledger, the property its
//! audit:
//!
//! * Sequentially executed random programs must leave the database in exactly
//!   the state the acknowledged programs' deltas predict, under every
//!   protocol.
//! * Concurrent random increments over a small, highly contended key space
//!   must conserve every row (no lost or duplicated updates) and produce a
//!   serializable history under the TXSQL protocol.

use txsql::common::rng::XorShiftRng;
use txsql::prelude::*;
use txsql::workloads::fixture::{self, add, Fixture, ACCOUNTS};

const ROWS: i64 = 8;

fn random_operation(rng: &mut XorShiftRng) -> Operation {
    let pk = rng.next_bounded(ROWS as u64) as i64;
    match rng.next_bounded(3) {
        0 => add(pk, rng.next_bounded(100) as i64 - 50),
        1 => Operation::Read {
            table: ACCOUNTS,
            pk,
        },
        _ => Operation::SelectForUpdate {
            table: ACCOUNTS,
            pk,
        },
    }
}

/// One to five random operations; every second program ends in a forced
/// rollback.
fn random_program(rng: &mut XorShiftRng) -> TxnProgram {
    let n_ops = 1 + rng.next_bounded(5) as usize;
    let mut ops: Vec<_> = (0..n_ops).map(|_| random_operation(rng)).collect();
    if rng.next_bounded(2) == 1 {
        ops.push(Operation::ForcedRollback);
    }
    TxnProgram::new(ops)
}

/// Sequential execution matches the ledger for every protocol.
#[test]
fn sequential_programs_match_model() {
    for case in 0u64..16 {
        let mut rng = XorShiftRng::for_worker(0xC0FFEE, case);
        let n_programs = 1 + rng.next_bounded(11) as usize;
        let programs: Vec<_> = (0..n_programs).map(|_| random_program(&mut rng)).collect();
        let forced =
            |program: &&TxnProgram| program.operations.contains(&Operation::ForcedRollback);
        let commits = (programs.len() - programs.iter().filter(forced).count()) as u64;
        for protocol in [
            Protocol::Mysql2pl,
            Protocol::LightweightO1,
            Protocol::GroupLockingTxsql,
            Protocol::Bamboo,
        ] {
            let fixture = Fixture::new(Database::new(fixture::config(protocol)), 0, ROWS);
            let committed = fixture.run(0, &programs);
            assert_eq!(committed, commits, "case {case} protocol {protocol:?}");
            fixture.audit(&format!("case {case} protocol {protocol:?}"));
        }
    }
}

/// Concurrent increments on a tiny key space never lose updates and stay
/// serializable under group locking, across the hotspot-promotion boundary
/// (a pre-promotion waiter still in the lightweight lock queue when the row
/// turns hot re-enters through the group).
#[test]
fn concurrent_increments_conserve_sum() {
    const PER_THREAD: usize = 20;
    for case in 0u64..16 {
        let mut case_rng = XorShiftRng::for_worker(0xBEEF, case);
        let seed = case_rng.next_bounded(1_000);
        let threads = 2 + case_rng.next_bounded(3);
        let config = fixture::config(Protocol::GroupLockingTxsql);
        let fixture = Fixture::new(Database::new(config), 2, 0);
        fixture.threads(threads, |fixture, worker| {
            let mut rng = XorShiftRng::for_worker(seed, worker);
            let increment = |_| TxnProgram::new(vec![add(rng.next_bounded(2) as i64, 1)]);
            let programs: Vec<_> = (0..PER_THREAD).map(increment).collect();
            let committed = fixture.run(worker, &programs);
            assert_eq!(committed, PER_THREAD as u64, "case {case} seed {seed}");
        });
        fixture.audit(&format!("case {case} seed {seed}"));
    }
}
