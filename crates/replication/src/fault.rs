//! Fault injection for the replication path, in the style of
//! [`txsql_storage::fault`].
//!
//! A [`ReplFaultPlan`] is pure data describing which *named fault point*
//! fires and when; [`ReplFaults`] is the runtime injector the
//! [`crate::ReplicationHook`] consults on its shipping path.  The points:
//!
//! * [`ReplFaultPoint::AckDrop`] — a replica applies a delivery but its
//!   acknowledgement is lost; the primary must re-request it (idempotent
//!   re-delivery) or time out and degrade.
//! * [`ReplFaultPoint::ReplicaStall`] — a replica stops answering for a
//!   bounded duration (GC pause, network partition); a stall longer than the
//!   ack timeout forces the semi-sync → async degrade, and its expiry is how
//!   the re-sync path is exercised.
//! * [`ReplFaultPoint::ReplicaCrash`] — a replica goes down mid-stream and
//!   (optionally) restarts later from its durable relay position.
//! * [`ReplFaultPoint::ShipError`] — the primary's send fails transiently;
//!   the hook retries with bounded backoff.
//!
//! Everything is deterministic: the plan counts *deliveries per replica* (and
//! ship attempts globally), so under the deterministic simulator the same
//! seed yields the same fault schedule.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use txsql_common::time::SimInstant;

/// The named replication fault points (coverage meta-assertions key off
/// [`ReplFaultPoint::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplFaultPoint {
    /// A delivery's acknowledgement is dropped on the way back.
    AckDrop,
    /// A replica stops answering deliveries for a bounded duration.
    ReplicaStall,
    /// A replica crashes (and may restart later).
    ReplicaCrash,
    /// The primary's ship attempt fails transiently.
    ShipError,
}

impl ReplFaultPoint {
    /// All replication fault points, in declaration order.
    pub const ALL: [ReplFaultPoint; 4] = [
        ReplFaultPoint::AckDrop,
        ReplFaultPoint::ReplicaStall,
        ReplFaultPoint::ReplicaCrash,
        ReplFaultPoint::ShipError,
    ];

    /// Stable snake_case name (used in traces and coverage assertions).
    pub fn name(&self) -> &'static str {
        match self {
            ReplFaultPoint::AckDrop => "ack_drop",
            ReplFaultPoint::ReplicaStall => "replica_stall",
            ReplFaultPoint::ReplicaCrash => "replica_crash",
            ReplFaultPoint::ShipError => "ship_error",
        }
    }

    fn index(&self) -> usize {
        match self {
            ReplFaultPoint::AckDrop => 0,
            ReplFaultPoint::ReplicaStall => 1,
            ReplFaultPoint::ReplicaCrash => 2,
            ReplFaultPoint::ShipError => 3,
        }
    }
}

/// A declarative replication fault schedule (pure data, like
/// [`txsql_storage::fault::FaultPlan`]).
#[derive(Debug, Clone, Default)]
pub struct ReplFaultPlan {
    /// Drop the ack of the `nth` delivery to replica `replica` (1-based).
    pub ack_drop: Option<(usize, u64)>,
    /// Stall replica(s) at their `nth` delivery for `duration`.  `None` as
    /// the replica index stalls *every* replica (the whole follower tier
    /// pauses — the scenario that must degrade the primary, not wedge it).
    pub stall: Option<(Option<usize>, u64, Duration)>,
    /// Crash replica `replica` at its `nth` delivery; restart it
    /// `restart_after` later (never, if `None`).
    pub crash: Option<(usize, u64, Option<Duration>)>,
    /// Fail this many ship attempts transiently before sends succeed.
    pub ship_errors: u32,
}

impl ReplFaultPlan {
    /// No replication faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.ack_drop.is_some()
            || self.stall.is_some()
            || self.crash.is_some()
            || self.ship_errors > 0
    }

    /// Drops the ack of replica `replica`'s `nth` delivery.
    pub fn with_ack_drop(mut self, replica: usize, nth: u64) -> Self {
        self.ack_drop = Some((replica, nth));
        self
    }

    /// Stalls `replica` (or every replica when `None`) at its `nth` delivery
    /// for `duration`.
    pub fn with_stall(mut self, replica: Option<usize>, nth: u64, duration: Duration) -> Self {
        self.stall = Some((replica, nth, duration));
        self
    }

    /// Crashes `replica` at its `nth` delivery, restarting it `restart_after`
    /// later (never, if `None`).
    pub fn with_crash(mut self, replica: usize, nth: u64, restart_after: Option<Duration>) -> Self {
        self.crash = Some((replica, nth, restart_after));
        self
    }

    /// Fails the first `n` ship attempts transiently.
    pub fn with_ship_errors(mut self, n: u32) -> Self {
        self.ship_errors = n;
        self
    }

    /// A short kebab-case label for benchmark cell ids: the single fault the
    /// plan injects, or `mixed` when it injects several.
    pub fn label(&self) -> &'static str {
        let kinds = [
            self.ack_drop.is_some(),
            self.stall.is_some(),
            self.crash.is_some(),
            self.ship_errors > 0,
        ];
        match kinds.iter().filter(|&&k| k).count() {
            0 => "none",
            1 if self.ack_drop.is_some() => "ack-drop",
            1 if self.stall.is_some() => "stall",
            1 if self.crash.is_some() => "crash",
            1 => "ship-err",
            _ => "mixed",
        }
    }

    /// Derives a deterministic plan from an exploration seed: `(seed / 4) % 4`
    /// picks the fault point — deliberately offset from the crash-point
    /// dimension of [`txsql_storage::fault::FaultPlan::seeded_binlog`], which
    /// uses `seed % 4`, so a sweep pairs every fault with every crash point —
    /// and the remaining bits vary which replica, which delivery, and how
    /// long.  Stalls hit *all* replicas so even an ack quorum of 1 degrades.
    pub fn seeded(seed: u64) -> Self {
        let replica = (seed % 2) as usize;
        let nth = 1 + seed % 4;
        match (seed / 4) % 4 {
            0 => Self::none().with_ack_drop(replica, nth),
            1 => Self::none().with_stall(None, nth, Duration::from_millis(4 + (seed % 3) * 4)),
            2 => Self::none().with_crash(replica, nth, Some(Duration::from_millis(5))),
            _ => Self::none().with_ship_errors(1 + (seed % 2) as u32),
        }
    }
}

/// What an injected fault asks the hook to do with one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFault {
    /// Deliver normally.
    None,
    /// Deliver, but lose the acknowledgement.
    DropAck,
    /// Stall the replica for the duration before delivering anything.
    Stall(Duration),
    /// Crash the replica; restart it after the duration (never, if `None`).
    Crash(Option<Duration>),
}

/// Runtime injector state for one hook: per-replica delivery counters, the
/// global ship-attempt counter, per-point hit counts (for the coverage
/// meta-assertions), and the pending replica-restart deadlines the hook's
/// pump processes.
#[derive(Debug)]
pub struct ReplFaults {
    plan: ReplFaultPlan,
    deliveries: Mutex<Vec<u64>>,
    ship_attempts: AtomicU64,
    hits: [AtomicU64; ReplFaultPoint::ALL.len()],
    restarts: Mutex<Vec<(usize, SimInstant)>>,
}

impl ReplFaults {
    /// An injector executing `plan` against `n_replicas` replicas.
    pub fn new(plan: ReplFaultPlan, n_replicas: usize) -> Self {
        Self {
            plan,
            deliveries: Mutex::new(vec![0; n_replicas]),
            ship_attempts: AtomicU64::new(0),
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            restarts: Mutex::new(Vec::new()),
        }
    }

    /// An injector that never fires.
    pub fn disabled(n_replicas: usize) -> Self {
        Self::new(ReplFaultPlan::none(), n_replicas)
    }

    /// Counts one primary-side ship attempt; `false` means the plan injected
    /// a transient failure and the hook should back off and retry.
    pub fn ship_attempt_ok(&self) -> bool {
        let n = self.ship_attempts.fetch_add(1, Ordering::AcqRel);
        if n < u64::from(self.plan.ship_errors) {
            self.hits[ReplFaultPoint::ShipError.index()].fetch_add(1, Ordering::AcqRel);
            false
        } else {
            true
        }
    }

    /// Counts one *fresh* delivery to `replica` (catch-up re-deliveries count
    /// too — each counted delivery is one chance for a fault to land) and
    /// returns what, if anything, the plan injects on it.  A crash fault
    /// records the restart deadline for [`ReplFaults::due_restarts`].
    pub fn on_delivery(&self, replica: usize, now: SimInstant) -> DeliveryFault {
        let n = {
            let mut counts = self.deliveries.lock();
            counts[replica] += 1;
            counts[replica]
        };
        if let Some((target, nth, restart_after)) = self.plan.crash {
            if target == replica && n == nth {
                self.hits[ReplFaultPoint::ReplicaCrash.index()].fetch_add(1, Ordering::AcqRel);
                if let Some(after) = restart_after {
                    self.restarts.lock().push((replica, now + after));
                }
                return DeliveryFault::Crash(restart_after);
            }
        }
        if let Some((target, nth, duration)) = self.plan.stall {
            if target.is_none_or(|t| t == replica) && n == nth {
                self.hits[ReplFaultPoint::ReplicaStall.index()].fetch_add(1, Ordering::AcqRel);
                return DeliveryFault::Stall(duration);
            }
        }
        if let Some((target, nth)) = self.plan.ack_drop {
            if target == replica && n == nth {
                self.hits[ReplFaultPoint::AckDrop.index()].fetch_add(1, Ordering::AcqRel);
                return DeliveryFault::DropAck;
            }
        }
        DeliveryFault::None
    }

    /// Drains the replica restarts whose deadline has passed at `now`.
    pub fn due_restarts(&self, now: SimInstant) -> Vec<usize> {
        let mut restarts = self.restarts.lock();
        let mut due = Vec::new();
        restarts.retain(|(replica, at)| {
            if *at <= now {
                due.push(*replica);
                false
            } else {
                true
            }
        });
        due
    }

    /// How often `point` fired (coverage meta-assertions).
    pub fn hits_of(&self, point: ReplFaultPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_point_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ReplFaultPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ReplFaultPoint::ALL.len());
        assert!(names.contains("ack_drop"));
        assert!(names.contains("replica_stall"));
        assert!(names.contains("replica_crash"));
        assert!(names.contains("ship_error"));
    }

    #[test]
    fn seeded_plans_cover_every_point() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let plan = ReplFaultPlan::seeded(seed);
            assert!(plan.is_active(), "seed {seed} produced an inactive plan");
            if plan.ack_drop.is_some() {
                seen.insert(ReplFaultPoint::AckDrop.name());
            }
            if plan.stall.is_some() {
                seen.insert(ReplFaultPoint::ReplicaStall.name());
            }
            if plan.crash.is_some() {
                seen.insert(ReplFaultPoint::ReplicaCrash.name());
            }
            if plan.ship_errors > 0 {
                seen.insert(ReplFaultPoint::ShipError.name());
            }
        }
        assert_eq!(seen.len(), ReplFaultPoint::ALL.len());
    }

    #[test]
    fn injector_fires_at_the_planned_delivery() {
        let now = SimInstant::now();
        let faults = ReplFaults::new(ReplFaultPlan::none().with_ack_drop(1, 2), 2);
        assert_eq!(faults.on_delivery(1, now), DeliveryFault::None);
        assert_eq!(faults.on_delivery(0, now), DeliveryFault::None);
        assert_eq!(faults.on_delivery(1, now), DeliveryFault::DropAck);
        assert_eq!(faults.on_delivery(1, now), DeliveryFault::None);
        assert_eq!(faults.hits_of(ReplFaultPoint::AckDrop), 1);
    }

    #[test]
    fn stall_with_no_target_hits_every_replica() {
        let now = SimInstant::now();
        let plan = ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(3));
        let faults = ReplFaults::new(plan, 2);
        assert!(matches!(
            faults.on_delivery(0, now),
            DeliveryFault::Stall(_)
        ));
        assert!(matches!(
            faults.on_delivery(1, now),
            DeliveryFault::Stall(_)
        ));
        assert_eq!(faults.hits_of(ReplFaultPoint::ReplicaStall), 2);
    }

    #[test]
    fn crash_records_a_restart_deadline() {
        let now = SimInstant::now();
        let plan = ReplFaultPlan::none().with_crash(0, 1, Some(Duration::from_millis(2)));
        let faults = ReplFaults::new(plan, 2);
        assert!(matches!(
            faults.on_delivery(0, now),
            DeliveryFault::Crash(_)
        ));
        assert!(faults.due_restarts(now).is_empty());
        assert_eq!(faults.due_restarts(now + Duration::from_millis(3)), vec![0]);
        // Drained once, not twice.
        assert!(faults
            .due_restarts(now + Duration::from_millis(4))
            .is_empty());
    }

    #[test]
    fn transient_ship_errors_are_bounded() {
        let faults = ReplFaults::new(ReplFaultPlan::none().with_ship_errors(2), 1);
        assert!(!faults.ship_attempt_ok());
        assert!(!faults.ship_attempt_ok());
        assert!(faults.ship_attempt_ok());
        assert_eq!(faults.hits_of(ReplFaultPoint::ShipError), 2);
    }
}
