//! # txsql-common
//!
//! Shared substrate for the TXSQL reproduction.
//!
//! This crate provides the low-level building blocks every other crate in the
//! workspace relies on:
//!
//! * [`ids`] — strongly-typed identifiers.  Rows are addressed exactly as in
//!   InnoDB / the paper (§2.2): a `(space_id, page_no, heap_no)` triple
//!   ([`ids::RecordId`]); transactions, tables and log sequence numbers get
//!   their own newtypes.
//! * [`value`] — [`value::Row`], a row of integer columns: every SysBench,
//!   TPC-C and FiT schema here is integers.
//! * [`error`] — the crate-wide [`error::Error`] type (lock wait timeouts,
//!   deadlocks, hotspot aborts, …).
//! * [`fxhash`] — an FxHash implementation and the [`fxhash::FxHashMap`] /
//!   [`fxhash::FxHashSet`] aliases used on hot paths (integer-keyed tables).
//! * [`zipf`] — a Zipfian generator used by the skewed workloads (Figure 10).
//! * [`metrics`] — lock-free counters and log-scaled latency histograms used
//!   to produce the paper's TPS / p95-latency / lock-wait breakdowns.
//! * [`pad`] — [`pad::CachePadded`], cache-line padding for sharded lock and
//!   bookkeeping structures (kills false sharing between shard mutexes).
//! * [`latency`] — the [`latency::LatencyModel`] that substitutes for the
//!   paper's real fsync and replica network round-trips.
//! * [`rng`] — a tiny, fast, seedable PRNG (xorshift*) used by workloads so
//!   experiments are reproducible without pulling extra dependencies onto hot
//!   paths.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod fxhash;
pub mod ids;
pub mod latency;
pub mod metrics;
pub mod pad;
pub mod rng;
pub mod time;
pub mod value;
pub mod zipf;

pub use error::{Error, Result};
pub use ids::{HeapNo, Lsn, PageNo, RecordId, SpaceId, TableId, TxnId};
pub use pad::CachePadded;
pub use value::Row;
