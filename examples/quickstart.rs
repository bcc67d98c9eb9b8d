//! Quickstart: create an engine, load a table, run a few transactions and
//! inspect the metrics.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use txsql::prelude::*;

fn main() -> Result<()> {
    // A TXSQL engine with group locking (the paper's full optimization set).
    let db = Database::with_protocol(Protocol::GroupLockingTxsql);

    // CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT);
    const ACCOUNTS: TableId = TableId(1);
    db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))?;
    for pk in 0..10 {
        db.load_row(ACCOUNTS, Row::from_ints(&[pk, 1_000]))?;
    }

    // Explicit session API: BEGIN; UPDATE ...; SELECT ...; COMMIT;
    let mut txn = db.begin();
    let new_balance = db.update_add(&mut txn, ACCOUNTS, 3, 1, 250)?;
    let row = db.read(&mut txn, ACCOUNTS, 3)?;
    println!(
        "inside the transaction account 3 = {:?} (new balance {new_balance})",
        row.ints()
    );
    db.commit(txn)?;

    // Declarative programs: what the workload drivers (and Aria) use.
    let transfer = TxnProgram::new(vec![
        Operation::UpdateAdd {
            table: ACCOUNTS,
            pk: 3,
            column: 1,
            delta: -100,
        },
        Operation::UpdateAdd {
            table: ACCOUNTS,
            pk: 7,
            column: 1,
            delta: 100,
        },
    ]);
    let outcome = db.execute_program(&transfer)?;
    println!("transfer committed: {}", outcome.committed);

    // A rolled-back transaction leaves no trace.
    let mut txn = db.begin();
    db.update_add(&mut txn, ACCOUNTS, 7, 1, 999_999)?;
    db.rollback(txn, None);

    for pk in [3, 7] {
        let record = db.record_id(ACCOUNTS, pk)?;
        let row = db.storage().read_committed(ACCOUNTS, record)?.unwrap();
        println!("account {pk}: {:?}", row.ints());
    }

    let snapshot = db.snapshot_metrics(std::time::Duration::from_secs(1));
    println!(
        "committed={} aborted={} locks_created={} (protocol {:?})",
        snapshot.committed,
        snapshot.aborted,
        snapshot.locks_created,
        db.protocol()
    );
    db.shutdown();
    Ok(())
}
