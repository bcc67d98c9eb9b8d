//! # txsql-txn
//!
//! Transaction-manager substrate: transaction lifecycle, the active
//! transaction list and MVCC read views.
//!
//! The paper's second general optimization (§3.1.2) replaces the classic
//! *copying* active-transaction-list read view — which must lock and copy the
//! list on every snapshot — with a *copy-free* scheme based on a per-
//! transaction deletion timestamp (`del_ts`).  Both variants are implemented
//! here behind the same [`txsql_storage::VisibilityJudge`] interface so the
//! engine (and the benchmark's `probe.txn.readview_*` probes) can switch
//! between them:
//!
//! * [`readview::ReadView::Copying`] — locks the active list, copies the ids.
//! * [`readview::ReadView::CopyFree`] — one atomic load of the newest commit
//!   sequence number; visibility is decided from version commit numbers (the
//!   `del_ts` of their writers) alone.
//!
//! [`trx_sys::TrxSys`] owns transaction-id / commit-number allocation and the
//! active list; [`transaction::Transaction`] is the per-worker handle that
//! accumulates write/read sets and hotspot participation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod readview;
pub mod transaction;
pub mod trx_sys;

pub use readview::{ReadView, ReadViewMode};
pub use transaction::{DirtyRead, HotRole, HotUpdate, Transaction};
pub use trx_sys::TrxSys;
