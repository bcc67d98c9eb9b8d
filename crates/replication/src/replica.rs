//! An in-memory replica.
//!
//! A replica is a key-value view of the replicated tables: applying a binlog
//! transaction overwrites the after-image of every row it changed.  Replicas
//! track the highest commit sequence number they have applied so the
//! semi-sync hook and the lag metrics can reason about how far behind they
//! are, and they can be compared against the primary for the consistency
//! checks the paper performs before going live (§6.4.5).
//!
//! For the semi-sync ack protocol the replica additionally models a *relay
//! log position* — the index of the next binlog batch entry it expects.
//! Deliveries are position-addressed ([`Replica::deliver`]): a delivery that
//! starts past the expected position is rejected with a [`DeliverOutcome::Nack`]
//! carrying the expected position (the primary re-ships the gap from its
//! retained binlog buffer), a delivery entirely below it is an idempotent
//! duplicate, and anything else applies the new suffix.  The position and the
//! row images survive a [`Replica::crash`] — they model durable relay-log
//! state — while in-flight stall bookkeeping does not.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use txsql_common::fxhash::FxHashMap;
use txsql_common::time::SimInstant;
use txsql_common::{Row, TableId};
use txsql_core::BinlogTxn;

/// The replica's answer to one position-addressed delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// The delivery was accepted (or was a pure duplicate); the payload is
    /// the replica's cumulative acknowledged position — the index one past
    /// the last binlog entry it has applied.
    Ack(u64),
    /// The delivery started past the replica's relay position: there is a
    /// gap.  The primary should re-ship from `expected`.
    Nack {
        /// The binlog position the replica expected to receive next.
        expected: u64,
    },
    /// The replica is crashed; nothing was applied and no ack will come.
    Offline,
    /// The replica is stalled (injected fault); nothing was applied and no
    /// ack will come until the stall expires and the primary retries.
    Stalled,
}

/// One replica's applied state.
#[derive(Debug)]
pub struct Replica {
    name: String,
    /// Per-row newest applied commit number and row image.  Keeping the
    /// commit number makes application idempotent and order-tolerant: an
    /// older event can never overwrite a newer row image.  The hook's
    /// deliveries need that, because binlog positions follow flush order,
    /// not `trx_no` order: `Database::commit` releases a transaction's locks
    /// after it takes its `trx_no` and before `CommitPipeline::commit` queues
    /// its event, so the row's next writer can take a larger `trx_no` and
    /// reach the binlog first.
    rows: Mutex<FxHashMap<(TableId, i64), (u64, Row)>>,
    applied_trx_no: Mutex<u64>,
    applied_txns: Mutex<u64>,
    /// Next expected binlog position (index into the primary's retained
    /// binlog buffer).  Durable across [`Replica::crash`].
    log_pos: Mutex<u64>,
    /// False while crashed.
    online: AtomicBool,
    /// Injected stall: deliveries are ignored until this instant passes.
    stall_until: Mutex<Option<SimInstant>>,
}

impl Replica {
    /// Creates an empty, online replica.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            rows: Mutex::new(FxHashMap::default()),
            applied_trx_no: Mutex::new(0),
            applied_txns: Mutex::new(0),
            log_pos: Mutex::new(0),
            online: AtomicBool::new(true),
            stall_until: Mutex::new(None),
        }
    }

    /// The replica's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies one committed transaction.  Per row, only an event with a
    /// commit number at least as new as the stored one overwrites the image.
    pub fn apply(&self, event: &BinlogTxn) {
        let mut rows = self.rows.lock();
        for (table, pk, row) in &event.changes {
            let entry = rows.entry((*table, *pk));
            match entry {
                std::collections::hash_map::Entry::Occupied(mut occupied) => {
                    if occupied.get().0 <= event.trx_no {
                        occupied.insert((event.trx_no, row.clone()));
                    }
                }
                std::collections::hash_map::Entry::Vacant(vacant) => {
                    vacant.insert((event.trx_no, row.clone()));
                }
            }
        }
        let mut applied = self.applied_trx_no.lock();
        *applied = (*applied).max(event.trx_no);
        *self.applied_txns.lock() += 1;
    }

    /// One position-addressed delivery from the primary: `events` are the
    /// binlog entries at positions `start_pos..start_pos + events.len()`.
    /// Applies only the suffix the replica has not seen yet (duplicates and
    /// overlaps are skipped — the count of applied transactions moves once
    /// per transaction no matter how often it is re-shipped) and returns the
    /// new cumulative acknowledged position.
    pub fn deliver(&self, start_pos: u64, events: &[BinlogTxn], now: SimInstant) -> DeliverOutcome {
        if !self.is_online() {
            return DeliverOutcome::Offline;
        }
        if self.is_stalled(now) {
            return DeliverOutcome::Stalled;
        }
        let mut pos = self.log_pos.lock();
        if start_pos > *pos {
            return DeliverOutcome::Nack { expected: *pos };
        }
        let already = (*pos - start_pos) as usize;
        if already < events.len() {
            for event in &events[already..] {
                self.apply(event);
            }
            *pos = start_pos + events.len() as u64;
        }
        DeliverOutcome::Ack(*pos)
    }

    /// The replica's relay position: the index one past the last binlog
    /// entry it has applied.
    pub fn log_pos(&self) -> u64 {
        *self.log_pos.lock()
    }

    /// Whether the replica is up (not crashed).
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::Acquire)
    }

    /// Whether an injected stall is still in force at `now`.
    pub fn is_stalled(&self, now: SimInstant) -> bool {
        self.stall_until.lock().is_some_and(|until| now < until)
    }

    /// Crashes the replica: it stops answering deliveries.  Applied rows and
    /// the relay position survive — they model durable relay-log state — but
    /// any stall bookkeeping is dropped with the process.
    pub fn crash(&self) {
        self.online.store(false, Ordering::Release);
        *self.stall_until.lock() = None;
    }

    /// Restarts a crashed replica; it resumes from its durable relay position.
    pub fn restart(&self) {
        self.online.store(true, Ordering::Release);
    }

    /// Injects a stall: deliveries are ignored until `now + duration`.
    pub fn stall_for(&self, duration: std::time::Duration, now: SimInstant) {
        *self.stall_until.lock() = Some(now + duration);
    }

    /// Highest commit sequence number applied.
    pub fn applied_trx_no(&self) -> u64 {
        *self.applied_trx_no.lock()
    }

    /// Number of transactions applied.
    pub fn applied_txns(&self) -> u64 {
        *self.applied_txns.lock()
    }

    /// Current value of a replicated row.
    pub fn row(&self, table: TableId, pk: i64) -> Option<Row> {
        self.rows
            .lock()
            .get(&(table, pk))
            .map(|(_, row)| row.clone())
    }

    /// Number of distinct rows the replica holds.
    pub fn row_count(&self) -> usize {
        self.rows.lock().len()
    }

    /// Checks that every row the replica holds matches the primary's
    /// committed value.  Returns the list of mismatching `(table, pk)` pairs.
    pub fn diverging_rows<F>(&self, primary_committed: F) -> Vec<(TableId, i64)>
    where
        F: Fn(TableId, i64) -> Option<Row>,
    {
        let rows = self.rows.lock();
        rows.iter()
            .filter_map(
                |((table, pk), (_, replica_row))| match primary_committed(*table, *pk) {
                    Some(primary_row) if primary_row == *replica_row => None,
                    _ => Some((*table, *pk)),
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use txsql_common::TxnId;

    fn event(trx_no: u64, pk: i64, value: i64) -> BinlogTxn {
        BinlogTxn {
            txn: TxnId(trx_no),
            trx_no,
            changes: vec![(TableId(1), pk, Row::from_ints(&[pk, value]))],
            involves_hotspot: false,
        }
    }

    #[test]
    fn apply_overwrites_rows_in_order() {
        let replica = Replica::new("r1");
        for e in [event(1, 5, 10), event(2, 5, 20), event(3, 6, 30)] {
            replica.apply(&e);
        }
        assert_eq!(replica.row(TableId(1), 5).unwrap().get_int(1), Some(20));
        assert_eq!(replica.row(TableId(1), 6).unwrap().get_int(1), Some(30));
        assert_eq!(replica.applied_trx_no(), 3);
        assert_eq!(replica.applied_txns(), 3);
        assert_eq!(replica.row_count(), 2);
        assert_eq!(replica.name(), "r1");
    }

    #[test]
    fn divergence_check_reports_mismatches() {
        let replica = Replica::new("r1");
        replica.apply(&event(1, 5, 10));
        replica.apply(&event(2, 6, 20));
        let diverging = replica.diverging_rows(|table, pk| {
            if pk == 5 {
                Some(Row::from_ints(&[5, 10]))
            } else {
                let _ = table;
                Some(Row::from_ints(&[6, 999]))
            }
        });
        assert_eq!(diverging, vec![(TableId(1), 6)]);
    }

    #[test]
    fn missing_primary_row_counts_as_divergence() {
        let replica = Replica::new("r1");
        replica.apply(&event(1, 7, 70));
        let diverging = replica.diverging_rows(|_, _| None);
        assert_eq!(diverging.len(), 1);
    }

    #[test]
    fn out_of_order_apply_converges_via_trx_no_guard() {
        let forward = Replica::new("forward");
        let backward = Replica::new("backward");
        let events = [event(1, 5, 10), event(2, 5, 20), event(3, 5, 30)];
        for e in &events {
            forward.apply(e);
        }
        for e in events.iter().rev() {
            backward.apply(e);
        }
        // Both orders converge on the newest image.
        assert_eq!(forward.row(TableId(1), 5).unwrap().get_int(1), Some(30));
        assert_eq!(backward.row(TableId(1), 5).unwrap().get_int(1), Some(30));
        assert_eq!(backward.applied_trx_no(), 3);
    }

    #[test]
    fn deliver_is_idempotent_and_detects_gaps() {
        let replica = Replica::new("r1");
        let now = SimInstant::now();
        let batch1 = vec![event(1, 5, 10), event(2, 6, 20)];
        let batch2 = vec![event(3, 5, 30)];

        // A delivery past the relay position is rejected with the gap start.
        assert_eq!(
            replica.deliver(2, &batch2, now),
            DeliverOutcome::Nack { expected: 0 }
        );
        assert_eq!(replica.applied_txns(), 0);

        assert_eq!(replica.deliver(0, &batch1, now), DeliverOutcome::Ack(2));
        // An exact duplicate applies nothing but re-acks the position.
        assert_eq!(replica.deliver(0, &batch1, now), DeliverOutcome::Ack(2));
        assert_eq!(replica.applied_txns(), 2);

        // An overlapping re-ship applies only the unseen suffix.
        let overlap: Vec<BinlogTxn> = batch1.iter().chain(batch2.iter()).cloned().collect();
        assert_eq!(replica.deliver(0, &overlap, now), DeliverOutcome::Ack(3));
        assert_eq!(replica.applied_txns(), 3);
        assert_eq!(replica.row(TableId(1), 5).unwrap().get_int(1), Some(30));
        assert_eq!(replica.log_pos(), 3);

        // An empty delivery at the current position is a pure ack refresh.
        assert_eq!(replica.deliver(3, &[], now), DeliverOutcome::Ack(3));
    }

    #[test]
    fn crash_preserves_relay_state_and_stall_expires() {
        let replica = Replica::new("r1");
        let now = SimInstant::now();
        assert_eq!(
            replica.deliver(0, &[event(1, 5, 10)], now),
            DeliverOutcome::Ack(1)
        );

        replica.crash();
        assert!(!replica.is_online());
        assert_eq!(
            replica.deliver(1, &[event(2, 5, 20)], now),
            DeliverOutcome::Offline
        );
        replica.restart();
        // Relay position and rows survived the crash.
        assert_eq!(replica.log_pos(), 1);
        assert_eq!(replica.row(TableId(1), 5).unwrap().get_int(1), Some(10));

        replica.stall_for(Duration::from_millis(5), now);
        assert_eq!(
            replica.deliver(1, &[event(2, 5, 20)], now),
            DeliverOutcome::Stalled
        );
        let later = now + Duration::from_millis(6);
        assert!(!replica.is_stalled(later));
        assert_eq!(
            replica.deliver(1, &[event(2, 5, 20)], later),
            DeliverOutcome::Ack(2)
        );
    }
}
