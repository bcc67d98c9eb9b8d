//! # txsql-workloads
//!
//! Workload generators and drivers reproducing §6.1.1 of the paper:
//!
//! * [`sysbench`] — SysBench-style micro-workloads: hotspot update, hotspot
//!   read/write mix, hotspot scan, uniform update, uniform read-only, plus
//!   the write-ratio / transaction-length / Zipf-skew sweeps of Figures 7
//!   and 10.
//! * [`fit`] — the FiT financial workload: a small *hot* account table whose
//!   balances are updated constantly plus an append-only journal table.
//! * [`tpcc`] — a compact TPC-C (NewOrder + Payment) where contention is
//!   controlled by the warehouse count (Figure 12).
//! * [`hotspots`] — fixed-TPS phase schedules with a hot-row burst at a
//!   known offset, driven open-loop (Figure 11's admission pair).
//! * [`driver`] — closed-loop (thread-per-client, retry-on-abort) and
//!   fixed-TPS open-loop drivers that produce the numbers the figures plot.
//! * [`spec`] — declarative workload specifications ([`WorkloadSpec`]) the
//!   experiment harness grids are written in.
//! * [`digest`] — seed-determinism digests pinning each family's stream.
//! * [`fixture`] — the accounts fixture and the one audit every engine test
//!   suite ends in.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod digest;
pub mod driver;
pub mod fit;
pub mod fixture;
pub mod hotspots;
pub mod spec;
pub mod sysbench;
pub mod tpcc;

pub use driver::{
    run_closed_loop, run_fixed_tps_report, ClosedLoopOptions, FixedTpsOptions, FixedTpsReport,
    SecondSample,
};
pub use fit::FitWorkload;
pub use hotspots::HotspotsTrace;
pub use spec::{AbortInjecting, BuiltWorkload, WorkloadSpec};
pub use sysbench::{SysbenchVariant, SysbenchWorkload};
pub use tpcc::TpccWorkload;

use txsql_common::rng::XorShiftRng;
use txsql_core::{Database, TxnProgram};

/// A workload: how to populate the database and how to generate transactions.
pub trait Workload: Send + Sync {
    /// Human-readable name (used in benchmark output).
    fn name(&self) -> &str;

    /// Creates tables and loads the initial data.
    fn setup(&self, db: &Database);

    /// Generates the next transaction program for one client.
    fn next_program(&self, rng: &mut XorShiftRng) -> TxnProgram;
}
