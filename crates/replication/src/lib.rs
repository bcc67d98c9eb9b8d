//! # txsql-replication
//!
//! Replication substrate for the TXSQL reproduction.
//!
//! The paper's customer deployments run with one primary and two
//! (semi-)synchronous replicas (§6.1, §6.4.1); the extra commit latency this
//! adds is exactly what makes queue locking lose its edge and group locking
//! shine (Figure 2b, Figure 9).  This crate provides:
//!
//! * [`replica::Replica`] — an in-memory replica that applies binlog events,
//!   answers position-addressed deliveries with cumulative acknowledgements,
//!   and can be checked for consistency against the primary;
//! * [`hook::ReplicationHook`] — a [`txsql_core::CommitHook`] that ships each
//!   commit batch to the replicas either *semi-synchronously* (the commit
//!   waits for one replica's ack under an `rpl_semi_sync`-style timeout,
//!   degrading to asynchronous shipping on timeout and re-syncing once the
//!   replicas catch up) or *asynchronously* (a background applier catches
//!   the replicas up on the retained binlog);
//! * [`mod@ack`] — the ack protocol: position-based cumulative
//!   acknowledgements, the quorum tracker and the semi-sync ↔ degraded
//!   state;
//! * [`mod@fault`] — seeded fault plans for the replication path (ack drop,
//!   replica stall, replica crash/restart, transient ship errors), the
//!   replication-side counterpart of [`txsql_storage::fault`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ack;
pub mod fault;
pub mod hook;
pub mod replica;

pub use ack::{AckTracker, SyncState};
pub use fault::{ReplFaultPlan, ReplFaultPoint, ReplFaults};
pub use hook::{ReplicationHook, ReplicationHookBuilder, ReplicationMode};
pub use replica::{DeliverOutcome, Replica};
