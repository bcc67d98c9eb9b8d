//! Declarative workload specifications for the experiment harness.
//!
//! A [`WorkloadSpec`] is pure data: it names one of the paper's workload
//! families and its parameters, renders a stable label for cell ids, and can
//! build the concrete generator on demand.  Grid declarations in
//! `txsql-bench` stay copy-paste-free because every figure cell is a
//! `(Protocol, WorkloadSpec, threads, ...)` tuple rather than bespoke setup
//! code.

use crate::fit::FitWorkload;
use crate::hotspots::HotspotsTrace;
use crate::sysbench::{SysbenchVariant, SysbenchWorkload};
use crate::tpcc::TpccWorkload;
use crate::Workload;
use txsql_common::rng::XorShiftRng;
use txsql_core::{Database, Operation, TxnProgram};

/// A wrapper workload that appends a `ForcedRollback` to a fraction of the
/// generated transactions (the paper injects 0.5–3% aborts for Figure 10).
pub struct AbortInjecting<W> {
    inner: W,
    abort_probability: f64,
    name: String,
}

impl<W: Workload> AbortInjecting<W> {
    /// Wraps `inner`, forcing a rollback with probability `abort_probability`.
    pub fn new(inner: W, abort_probability: f64) -> Self {
        let name = format!("{}-inject{:.1}pct", inner.name(), abort_probability * 100.0);
        Self {
            inner,
            abort_probability,
            name,
        }
    }
}

impl<W: Workload> Workload for AbortInjecting<W> {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&self, db: &Database) {
        self.inner.setup(db);
    }

    fn next_program(&self, rng: &mut XorShiftRng) -> TxnProgram {
        let mut program = self.inner.next_program(rng);
        if rng.next_bool(self.abort_probability) {
            program.operations.push(Operation::ForcedRollback);
        }
        program
    }
}

/// One of the paper's workload families, with parameters, as pure data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// A SysBench variant over a table of `table_size` rows.
    Sysbench {
        /// Which SysBench configuration.
        variant: SysbenchVariant,
        /// Rows in the `sbtest` table.
        table_size: u64,
    },
    /// A SysBench variant with a `ForcedRollback` injected into
    /// `inject_pct`% of transactions (Figure 10 left).
    SysbenchAbortInject {
        /// Which SysBench configuration.
        variant: SysbenchVariant,
        /// Rows in the `sbtest` table.
        table_size: u64,
        /// Percentage of transactions that are forced to roll back.
        inject_pct: f64,
    },
    /// The FiT financial workload.
    Fit {
        /// Hot account rows.
        hot_accounts: u64,
        /// Users issuing journal appends.
        users: u64,
    },
    /// The compact TPC-C (NewOrder + Payment).
    Tpcc {
        /// Warehouse count (the contention knob of Figure 12).
        warehouses: i64,
    },
    /// The Hotspots composite trace, driven open-loop at fixed TPS.
    Hotspots {
        /// Baseline transactions per second.
        base_tps: u64,
        /// Length of each of the five schedule phases, in seconds.
        phase_seconds: u64,
    },
    /// A sharp three-phase hot-row overload (calm / 8× burst / calm),
    /// driven open-loop — the admission-control experiment trace
    /// ([`HotspotsTrace::burst`]).
    HotspotBurst {
        /// Baseline transactions per second (the burst runs at 8×).
        base_tps: u64,
        /// Length of each of the three phases, in seconds.
        phase_seconds: u64,
    },
}

/// A workload built from a [`WorkloadSpec`], tagged by which driver runs it.
pub enum BuiltWorkload {
    /// Run with the closed-loop driver.
    Closed(Box<dyn Workload>),
    /// Run with the fixed-TPS open-loop driver.
    Open(HotspotsTrace),
}

impl WorkloadSpec {
    /// A SysBench variant over the paper's standard 100k-row table.
    pub fn sysbench(variant: SysbenchVariant) -> Self {
        Self::Sysbench {
            variant,
            table_size: 100_000,
        }
    }

    /// The standard FiT configuration: one hot account, 100k users.
    pub fn fit_standard() -> Self {
        Self::Fit {
            hot_accounts: 1,
            users: 100_000,
        }
    }

    /// TPC-C with `warehouses` warehouses.
    pub fn tpcc(warehouses: i64) -> Self {
        Self::Tpcc { warehouses }
    }

    /// A stable, cell-id-friendly label.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Sysbench { variant, .. } => variant_label(variant),
            WorkloadSpec::SysbenchAbortInject {
                variant,
                inject_pct,
                ..
            } => format!("{}-inject{inject_pct}pct", variant_label(variant)),
            WorkloadSpec::Fit { .. } => "fit".to_string(),
            WorkloadSpec::Tpcc { warehouses } => format!("tpcc-w{warehouses}"),
            WorkloadSpec::Hotspots {
                base_tps,
                phase_seconds,
            } => format!("hotspots-tps{base_tps}-phase{phase_seconds}s"),
            WorkloadSpec::HotspotBurst {
                base_tps,
                phase_seconds,
            } => format!("hotspot-burst-tps{base_tps}-phase{phase_seconds}s"),
        }
    }

    /// True for specs that run under the fixed-TPS open-loop driver.
    pub fn is_open_loop(&self) -> bool {
        matches!(
            self,
            WorkloadSpec::Hotspots { .. } | WorkloadSpec::HotspotBurst { .. }
        )
    }

    /// Builds the concrete workload generator.
    pub fn build(&self) -> BuiltWorkload {
        match *self {
            WorkloadSpec::Sysbench {
                variant,
                table_size,
            } => BuiltWorkload::Closed(Box::new(SysbenchWorkload::new(variant, table_size))),
            WorkloadSpec::SysbenchAbortInject {
                variant,
                table_size,
                inject_pct,
            } => BuiltWorkload::Closed(Box::new(AbortInjecting::new(
                SysbenchWorkload::new(variant, table_size),
                inject_pct / 100.0,
            ))),
            WorkloadSpec::Fit {
                hot_accounts,
                users,
            } => BuiltWorkload::Closed(Box::new(FitWorkload::new(hot_accounts, users))),
            WorkloadSpec::Tpcc { warehouses } => {
                BuiltWorkload::Closed(Box::new(TpccWorkload::new(warehouses)))
            }
            WorkloadSpec::Hotspots {
                base_tps,
                phase_seconds,
            } => BuiltWorkload::Open(HotspotsTrace::paper_like_scaled(base_tps, phase_seconds)),
            WorkloadSpec::HotspotBurst {
                base_tps,
                phase_seconds,
            } => BuiltWorkload::Open(HotspotsTrace::burst(base_tps, phase_seconds)),
        }
    }

    /// For TPC-C specs, a fresh instance usable for the post-run consistency
    /// check (the check only needs the warehouse count and the database).
    pub fn tpcc_checker(&self) -> Option<TpccWorkload> {
        match *self {
            WorkloadSpec::Tpcc { warehouses } => Some(TpccWorkload::new(warehouses)),
            _ => None,
        }
    }
}

fn variant_label(variant: &SysbenchVariant) -> String {
    match variant {
        SysbenchVariant::HotspotUpdate => "sysbench-hotspot-update".to_string(),
        SysbenchVariant::HotspotReadWrite {
            writes,
            reads,
            skew,
        } => format!("sysbench-hotspot-rw-w{writes}-r{reads}-sf{skew}"),
        SysbenchVariant::HotspotScan { hot_rows } => format!("sysbench-hotspot-scan-{hot_rows}"),
        SysbenchVariant::UniformUpdate { length } => format!("sysbench-uniform-update-{length}"),
        SysbenchVariant::UniformReadOnly { length } => format!("sysbench-uniform-read-{length}"),
        SysbenchVariant::ZipfUpdate { skew } => format!("sysbench-zipf-update-{skew}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let specs = [
            WorkloadSpec::Sysbench {
                variant: SysbenchVariant::HotspotUpdate,
                table_size: 1_000,
            },
            WorkloadSpec::SysbenchAbortInject {
                variant: SysbenchVariant::HotspotUpdate,
                table_size: 1_000,
                inject_pct: 2.0,
            },
            WorkloadSpec::Fit {
                hot_accounts: 1,
                users: 100,
            },
            WorkloadSpec::Tpcc { warehouses: 4 },
            WorkloadSpec::Hotspots {
                base_tps: 100,
                phase_seconds: 1,
            },
            WorkloadSpec::HotspotBurst {
                base_tps: 100,
                phase_seconds: 1,
            },
        ];
        let labels: Vec<String> = specs.iter().map(WorkloadSpec::label).collect();
        assert_eq!(labels[0], "sysbench-hotspot-update");
        assert_eq!(labels[1], "sysbench-hotspot-update-inject2pct");
        assert_eq!(labels[2], "fit");
        assert_eq!(labels[3], "tpcc-w4");
        assert_eq!(labels[4], "hotspots-tps100-phase1s");
        assert_eq!(labels[5], "hotspot-burst-tps100-phase1s");
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn open_loop_flag_matches_the_family() {
        assert!(WorkloadSpec::Hotspots {
            base_tps: 10,
            phase_seconds: 1
        }
        .is_open_loop());
        assert!(!WorkloadSpec::Fit {
            hot_accounts: 1,
            users: 10
        }
        .is_open_loop());
    }

    #[test]
    fn abort_injecting_appends_forced_rollbacks() {
        let inner = SysbenchWorkload::new(SysbenchVariant::HotspotUpdate, 64);
        let wrapped = AbortInjecting::new(inner, 1.0);
        let mut rng = XorShiftRng::new(5);
        let program = wrapped.next_program(&mut rng);
        assert_eq!(
            program.operations.last(),
            Some(&Operation::ForcedRollback),
            "probability 1.0 must always inject"
        );
        assert!(wrapped.name().contains("inject"));
    }

    #[test]
    fn build_produces_the_right_driver_side() {
        match (WorkloadSpec::Tpcc { warehouses: 2 }).build() {
            BuiltWorkload::Closed(w) => assert!(w.name().contains("tpcc")),
            BuiltWorkload::Open(_) => panic!("tpcc is closed-loop"),
        }
        match (WorkloadSpec::Hotspots {
            base_tps: 10,
            phase_seconds: 1,
        })
        .build()
        {
            BuiltWorkload::Open(trace) => assert_eq!(trace.total_seconds(), 5),
            BuiltWorkload::Closed(_) => panic!("hotspots is open-loop"),
        }
        assert!((WorkloadSpec::Tpcc { warehouses: 2 })
            .tpcc_checker()
            .is_some());
        assert!((WorkloadSpec::Fit {
            hot_accounts: 1,
            users: 10
        })
        .tpcc_checker()
        .is_none());
    }
}
