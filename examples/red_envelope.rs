//! WeChat red envelope: the paper's flagship production scenario (§2.3).
//!
//! A sender funds a red envelope (one hot balance row); a crowd of recipients
//! concurrently claim random slices until the envelope is empty.  Every claim
//! updates the hot envelope row and inserts a claim record.  At the end the
//! money must be conserved: claimed total + remaining balance == envelope
//! amount, and the run is audited with the serializability checker.
//!
//! ```bash
//! cargo run --release --example red_envelope
//! ```

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use txsql::prelude::*;

const ENVELOPES: TableId = TableId(1);
const CLAIMS: TableId = TableId(2);
const ENVELOPE_AMOUNT: i64 = 100_000; // cents
const RECIPIENTS: usize = 12;
const CLAIMS_PER_RECIPIENT: usize = 40;

fn main() -> Result<()> {
    let db = Database::new(
        EngineConfig::for_protocol(Protocol::GroupLockingTxsql)
            .with_hotspot_threshold(4)
            .with_history_recording(true),
    );
    db.create_table(TableSchema::new(ENVELOPES, "envelopes", 2))?;
    db.create_table(TableSchema::new(CLAIMS, "claims", 3))?;
    db.load_row(ENVELOPES, Row::from_ints(&[1, ENVELOPE_AMOUNT]))?;

    let db = Arc::new(db);
    let claimed_total = Arc::new(AtomicI64::new(0));
    let next_claim_id = Arc::new(AtomicI64::new(1));

    std::thread::scope(|scope| {
        for recipient in 0..RECIPIENTS {
            let db = Arc::clone(&db);
            let claimed_total = Arc::clone(&claimed_total);
            let next_claim_id = Arc::clone(&next_claim_id);
            scope.spawn(move || {
                let mut rng = txsql::common::rng::XorShiftRng::for_worker(2024, recipient as u64);
                for _ in 0..CLAIMS_PER_RECIPIENT {
                    let want = 1 + rng.next_bounded(50) as i64;
                    // Retried by hand: the claim reads the envelope before it
                    // decides what to write, which a `TxnProgram` cannot say.
                    loop {
                        let mut txn = db.begin();
                        let attempt = (|| -> Result<Option<i64>> {
                            let envelope = db.select_for_update(&mut txn, ENVELOPES, 1)?;
                            let remaining = envelope.get_int(1).unwrap_or(0);
                            if remaining <= 0 {
                                return Ok(None);
                            }
                            let take = want.min(remaining);
                            db.update_add(&mut txn, ENVELOPES, 1, 1, -take)?;
                            let claim_id = next_claim_id.fetch_add(1, Ordering::Relaxed);
                            db.insert(
                                &mut txn,
                                CLAIMS,
                                Row::from_ints(&[claim_id, recipient as i64, take]),
                            )?;
                            Ok(Some(take))
                        })();
                        match attempt {
                            Ok(Some(take)) => {
                                if db.commit(txn).is_ok() {
                                    claimed_total.fetch_add(take, Ordering::Relaxed);
                                    break;
                                }
                            }
                            Ok(None) => {
                                db.rollback(txn, None);
                                return; // envelope empty
                            }
                            Err(err) if err.is_retryable() => db.rollback(txn, Some(&err)),
                            Err(err) => {
                                db.rollback(txn, Some(&err));
                                break;
                            }
                        }
                    }
                }
            });
        }
    });

    let record = db.record_id(ENVELOPES, 1)?;
    let remaining = db
        .storage()
        .read_committed(ENVELOPES, record)?
        .unwrap()
        .get_int(1)
        .unwrap();
    let claimed = claimed_total.load(Ordering::Relaxed);
    println!("envelope amount : {ENVELOPE_AMOUNT}");
    println!("claimed total   : {claimed}");
    println!("remaining       : {remaining}");
    assert_eq!(
        claimed + remaining,
        ENVELOPE_AMOUNT,
        "money was created or destroyed!"
    );

    let report = db.history().expect("history recording enabled").check();
    println!(
        "serializability : {} ({} committed transactions, {} graph edges)",
        if report.is_serializable() {
            "OK (acyclic serialization graph)"
        } else {
            "VIOLATED"
        },
        report.transactions,
        report.edges
    );
    assert!(report.is_serializable());

    let snapshot = db.snapshot_metrics(std::time::Duration::from_secs(1));
    println!(
        "hotspot groups  : {} formed, {} member updates",
        snapshot.groups_formed, snapshot.hotspot_group_entries
    );
    db.shutdown();
    Ok(())
}
