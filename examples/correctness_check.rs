//! Correctness audit (§6.4.5): run a contended workload under every protocol
//! with history recording enabled, then
//!
//! * put it through the audit every engine test suite ends in
//!   (`txsql::workloads::fixture`): the serialization graph is acyclic, every
//!   row holds exactly the acknowledged updates, nothing is left locked,
//! * run the TPC-C warehouse-vs-district reconciliation.
//!
//! ```bash
//! cargo run --release --example correctness_check
//! ```

use txsql::prelude::*;
use txsql::workloads::fixture::{self, add, Fixture, ACCOUNTS};

fn audit_protocol(protocol: Protocol) {
    const THREADS: u64 = 6;
    const PER_THREAD: usize = 50;
    let fixture = Fixture::new(Database::new(fixture::config(protocol)), 1, THREADS as i64);
    fixture.threads(THREADS, |fixture, worker| {
        // Client 0 reads back the hot row, the others a row nobody writes.
        let (table, pk) = (ACCOUNTS, worker as i64);
        let program = TxnProgram::new(vec![add(0, 1), Operation::Read { table, pk }]);
        let committed = fixture.run(worker, &vec![program; PER_THREAD]);
        assert_eq!(
            committed, PER_THREAD as u64,
            "{protocol:?}: a client starved"
        );
    });
    // Lost updates, a non-serializable history or leaked locks panic here.
    fixture.audit(&format!("{protocol:?}"));
    let report = fixture.db.history().unwrap().check();
    println!(
        "{:<20} hot row {:>4}/{:<4} serializable: {} ({} txns, {} edges), nothing left locked",
        format!("{protocol:?}"),
        fixture.value(0),
        THREADS as usize * PER_THREAD,
        report.is_serializable(),
        report.transactions,
        report.edges,
    );
}

fn tpcc_reconciliation() {
    let db = Database::with_protocol(Protocol::GroupLockingTxsql);
    let workload = TpccWorkload::new(1);
    let options = ClosedLoopOptions::default().with_threads(6).with_durations(
        std::time::Duration::from_millis(100),
        std::time::Duration::from_millis(400),
    );
    let snapshot = run_closed_loop(&db, &workload, &options);
    let consistent = workload.consistency_check(&db);
    println!(
        "TPC-C reconciliation: {} committed transactions, warehouse YTD == sum(district YTD): {}",
        snapshot.committed, consistent
    );
    assert!(consistent);
    db.shutdown();
}

fn main() {
    println!("correctness audit across protocols (hot-row conservation + serializability):\n");
    for protocol in Protocol::ALL {
        audit_protocol(protocol);
    }
    println!();
    tpcc_reconciliation();
    println!("\nall checks passed.");
}
