//! Fixed-TPS hot-row traces (§6.1.1, Figure 11).
//!
//! Tencent's online figure is a fixed-TPS workload (the industry rate model
//! of §4.6.1) whose traffic is mostly uniform but suffers bursts during which
//! nearly every transaction hits one hot row.  A [`HotspotsTrace`] is such a
//! schedule of phases, driven open-loop; [`HotspotsTrace::burst`] — calm, an
//! 8× burst on a declared hot row, calm — is the one the recorded Figure 11
//! pair (admission off / on) and the smoke grid run.

use crate::Workload;
use txsql_common::rng::XorShiftRng;
use txsql_common::{Row, TableId};
use txsql_core::{Database, Operation, TxnProgram};
use txsql_storage::TableSchema;

/// The application table used by the composite trace.
pub const APP_TABLE: TableId = TableId(40);

/// One phase of the fixed-TPS schedule.
#[derive(Debug, Clone, Copy)]
pub struct TracePhase {
    /// Phase length in seconds.
    pub seconds: u64,
    /// Target transactions per second during the phase.
    pub target_tps: u64,
    /// Probability that a transaction updates the hot row instead of a
    /// uniformly random row.
    pub hotspot_share: f64,
}

/// The composite trace.
pub struct HotspotsTrace {
    phases: Vec<TracePhase>,
    table_size: u64,
    name: String,
    declared_hotspot: bool,
    hot_work_micros: u64,
}

impl HotspotsTrace {
    /// Creates a trace from explicit phases.
    pub fn new(phases: Vec<TracePhase>, table_size: u64) -> Self {
        assert!(!phases.is_empty() && table_size > 0);
        Self {
            phases,
            table_size,
            name: "hotspots-composite".to_string(),
            declared_hotspot: false,
            hot_work_micros: 0,
        }
    }

    /// A sharp three-phase overload for admission-control experiments: a
    /// calm pre-burst phase, one burst phase in which nearly every
    /// transaction hits the hot row at eight times the base rate, then a
    /// calm post-burst phase.  The question this trace asks is what tail
    /// latency and goodput look like *through* the burst — and whether the
    /// post-burst phase recovers to the pre-burst goodput once the shed
    /// hysteresis re-arms.
    ///
    /// The burst trace *declares* its hot row up front (a PolarDB-style
    /// workload hint, see `HotspotRegistry::promote`): the experiment is
    /// about what the front door does during an overload on a known hot
    /// key, not about how fast organic promotion notices one — short
    /// smoke windows on a small box can finish before a real lock queue
    /// ever forms, which would silently turn the admission cell into a
    /// no-op.
    pub fn burst(base_tps: u64, phase_seconds: u64) -> Self {
        let mut trace = Self::new(
            vec![
                TracePhase {
                    seconds: phase_seconds,
                    target_tps: base_tps,
                    hotspot_share: 0.05,
                },
                TracePhase {
                    seconds: phase_seconds,
                    target_tps: base_tps * 8,
                    hotspot_share: 0.95,
                },
                TracePhase {
                    seconds: phase_seconds,
                    target_tps: base_tps,
                    hotspot_share: 0.05,
                },
            ],
            10_000,
        );
        trace.name = "hotspot-burst".to_string();
        trace.declared_hotspot = true;
        // Hot transactions carry 30 ms of in-transaction work while their
        // locks (and admission permit) are held — the metastable-overload
        // shape where the hot path calls a slow downstream dependency.  The
        // number is chosen so the burst phase exceeds the worker pool's
        // capacity in both grid cells (8 workers / 30 ms ≈ 270 tps < the
        // smoke burst's 380 hot tps): without admission the backlog outlives
        // the burst and post-burst latencies blow through the SLO deadline;
        // with it the front door sheds the excess instead.  Sub-millisecond
        // transactions never produce that regime — the burst would be fully
        // absorbed and the admission cell would have nothing to do.
        trace.hot_work_micros = 30_000;
        trace
    }

    /// The phase schedule.
    pub fn phases(&self) -> &[TracePhase] {
        &self.phases
    }

    /// Total trace length in seconds.
    pub fn total_seconds(&self) -> u64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// The phase active at `second`.
    pub fn phase_at(&self, second: u64) -> TracePhase {
        let mut elapsed = 0;
        for phase in &self.phases {
            elapsed += phase.seconds;
            if second < elapsed {
                return *phase;
            }
        }
        *self.phases.last().expect("non-empty phases")
    }

    /// Target TPS at `second`.
    pub fn target_tps_at(&self, second: u64) -> u64 {
        self.phase_at(second).target_tps
    }

    /// Generates a program appropriate for `second`.
    pub fn program_at(&self, second: u64, rng: &mut XorShiftRng) -> TxnProgram {
        let phase = self.phase_at(second);
        let pk = if rng.next_bool(phase.hotspot_share) {
            0
        } else {
            1 + rng.next_bounded(self.table_size - 1) as i64
        };
        let mut ops = vec![Operation::UpdateAdd {
            table: APP_TABLE,
            pk,
            column: 1,
            delta: 1,
        }];
        if pk == 0 && self.hot_work_micros > 0 {
            ops.push(Operation::Work {
                micros: self.hot_work_micros,
            });
        }
        ops.push(Operation::Read {
            table: APP_TABLE,
            pk: rng.next_bounded(self.table_size) as i64,
        });
        TxnProgram::new(ops)
    }
}

impl Workload for HotspotsTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&self, db: &Database) {
        if db
            .create_table(TableSchema::new(APP_TABLE, "app", 2))
            .is_ok()
        {
            for pk in 0..self.table_size as i64 {
                db.load_row(APP_TABLE, Row::from_ints(&[pk, 0])).unwrap();
            }
        }
        if self.declared_hotspot {
            // `pin`, not `promote`: the calm pre-burst phase has no waiters,
            // and an unpinned declaration would decay out of the hot set
            // before the burst arrives.
            let hot = db.record_id(APP_TABLE, 0).expect("hot row loaded above");
            db.hotspots().pin(hot);
        }
    }

    fn next_program(&self, rng: &mut XorShiftRng) -> TxnProgram {
        self.program_at(0, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_lookup_follows_the_schedule() {
        let trace = HotspotsTrace::burst(100, 5);
        assert_eq!(trace.total_seconds(), 15);
        assert_eq!(trace.target_tps_at(0), 100);
        assert_eq!(trace.target_tps_at(6), 800);
        assert_eq!(trace.target_tps_at(11), 100);
        // Past the end: last phase applies.
        assert_eq!(trace.target_tps_at(1_000), 100);
    }

    #[test]
    fn burst_phases_concentrate_on_the_hot_row() {
        let trace = HotspotsTrace::burst(100, 5);
        let mut rng = XorShiftRng::new(1);
        let burst_hot = (0..500)
            .filter(|_| trace.program_at(6, &mut rng).write_keys()[0].1 == 0)
            .count();
        let calm_hot = (0..500)
            .filter(|_| trace.program_at(0, &mut rng).write_keys()[0].1 == 0)
            .count();
        assert!(burst_hot > 350, "burst share too low: {burst_hot}");
        assert!(calm_hot < 100, "calm share too high: {calm_hot}");
    }

    #[test]
    #[should_panic]
    fn empty_schedule_is_rejected() {
        let _ = HotspotsTrace::new(vec![], 10);
    }

    #[test]
    fn burst_setup_declares_the_hot_row() {
        let db = Database::with_protocol(txsql_core::Protocol::GroupLockingTxsql);
        HotspotsTrace::burst(50, 1).setup(&db);
        let hot = db.record_id(APP_TABLE, 0).unwrap();
        assert!(
            db.hotspots().is_hot(hot),
            "burst setup must promote the declared hot row"
        );
    }
}
