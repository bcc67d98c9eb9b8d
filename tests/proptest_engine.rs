//! Randomized property tests over the whole engine.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so the same properties are exercised with the workspace's own
//! seedable `XorShiftRng` (deterministic across runs, seeds printed on
//! failure).
//!
//! * Sequentially executed random programs must leave the database in exactly
//!   the state a simple in-memory model predicts, under every protocol.
//! * Concurrent random increments over a small, highly contended key space
//!   must conserve the total sum (no lost or duplicated updates) and produce
//!   a serializable history under the TXSQL protocol.

use std::collections::HashMap;
use std::sync::Arc;
use txsql::common::rng::XorShiftRng;
use txsql::prelude::*;

const TABLE: TableId = TableId(1);
const ROWS: i64 = 8;

fn random_operation(rng: &mut XorShiftRng) -> Operation {
    let pk = rng.next_bounded(ROWS as u64) as i64;
    match rng.next_bounded(3) {
        0 => {
            let delta = rng.next_bounded(100) as i64 - 50;
            Operation::UpdateAdd {
                table: TABLE,
                pk,
                column: 1,
                delta,
            }
        }
        1 => Operation::Read { table: TABLE, pk },
        _ => Operation::SelectForUpdate { table: TABLE, pk },
    }
}

fn random_program(rng: &mut XorShiftRng) -> (Vec<Operation>, bool) {
    let n_ops = 1 + rng.next_bounded(5) as usize;
    let ops = (0..n_ops).map(|_| random_operation(rng)).collect();
    let abort = rng.next_bounded(2) == 1;
    (ops, abort)
}

fn setup(protocol: Protocol) -> Database {
    let db = Database::new(EngineConfig::for_protocol(protocol).with_hotspot_threshold(2));
    db.create_table(TableSchema::new(TABLE, "prop", 2)).unwrap();
    for pk in 0..ROWS {
        db.load_row(TABLE, Row::from_ints(&[pk, 100])).unwrap();
    }
    db
}

fn committed_value(db: &Database, pk: i64) -> i64 {
    let record = db.record_id(TABLE, pk).unwrap();
    db.storage()
        .read_committed(TABLE, record)
        .unwrap()
        .unwrap()
        .get_int(1)
        .unwrap()
}

/// Sequential execution matches a trivial model for every protocol.
#[test]
fn sequential_programs_match_model() {
    for case in 0u64..16 {
        let mut rng = XorShiftRng::for_worker(0xC0FFEE, case);
        let n_programs = 1 + rng.next_bounded(11) as usize;
        let programs: Vec<(Vec<Operation>, bool)> =
            (0..n_programs).map(|_| random_program(&mut rng)).collect();
        for protocol in [
            Protocol::Mysql2pl,
            Protocol::LightweightO1,
            Protocol::GroupLockingTxsql,
            Protocol::Bamboo,
        ] {
            let db = setup(protocol);
            let mut model: HashMap<i64, i64> = (0..ROWS).map(|pk| (pk, 100)).collect();
            for (ops, abort) in &programs {
                let mut program = TxnProgram::new(ops.clone());
                if *abort {
                    program.operations.push(Operation::ForcedRollback);
                }
                let outcome = db.execute_program(&program);
                match outcome {
                    Ok(o) if o.committed => {
                        for op in ops {
                            if let Operation::UpdateAdd { pk, delta, .. } = op {
                                *model.get_mut(pk).unwrap() += delta;
                            }
                        }
                    }
                    _ => { /* rolled back: model unchanged */ }
                }
            }
            for pk in 0..ROWS {
                assert_eq!(
                    committed_value(&db, pk),
                    model[&pk],
                    "case {case} protocol {protocol:?} row {pk}"
                );
            }
            db.shutdown();
        }
    }
}

/// Concurrent increments on a tiny key space never lose updates and stay
/// serializable under group locking, across the hotspot-promotion boundary
/// (a pre-promotion waiter still in the lightweight lock queue when the row
/// turns hot re-enters through the group).
#[test]
fn concurrent_increments_conserve_sum() {
    for case in 0u64..16 {
        let mut case_rng = XorShiftRng::for_worker(0xBEEF, case);
        let seed = case_rng.next_bounded(1_000);
        let threads = 2 + case_rng.next_bounded(3) as usize;
        let db = Arc::new(Database::new(
            EngineConfig::for_protocol(Protocol::GroupLockingTxsql)
                .with_hotspot_threshold(2)
                .with_history_recording(true),
        ));
        db.create_table(TableSchema::new(TABLE, "prop", 2)).unwrap();
        for pk in 0..2 {
            db.load_row(TABLE, Row::from_ints(&[pk, 0])).unwrap();
        }
        let per_thread = 20usize;
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut rng = XorShiftRng::for_worker(seed, worker as u64);
                    let mut committed = 0;
                    while committed < per_thread {
                        let pk = rng.next_bounded(2) as i64;
                        let program = TxnProgram::new(vec![Operation::UpdateAdd {
                            table: TABLE,
                            pk,
                            column: 1,
                            delta: 1,
                        }]);
                        if let Ok(o) = db.execute_program(&program) {
                            if o.committed {
                                committed += 1;
                            }
                        }
                    }
                });
            }
        });
        let total: i64 = (0..2).map(|pk| committed_value(&db, pk)).sum();
        assert_eq!(
            total,
            (threads * per_thread) as i64,
            "case {case} seed {seed}"
        );
        let report = db.history().unwrap().check();
        assert!(
            report.is_serializable(),
            "case {case} seed {seed} cycle: {:?}",
            report.cycle
        );
        db.shutdown();
    }
}
