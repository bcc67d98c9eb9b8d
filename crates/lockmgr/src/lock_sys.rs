//! The vanilla, InnoDB-style lock system (`lock_sys`) — the MySQL baseline.
//!
//! This arm exists to be the paper's baseline: page hashing plus one lock
//! object per acquisition.  [`LockSys`] is the shared [`RecordLockTable`]
//! driver over [`PageLayout`], which keeps exactly the two shortcomings
//! §3.1.1 calls out (paper §2.2):
//!
//! * the hash is keyed by `(space_id, page_no)`, so a hot page funnels every
//!   acquisition, release, grant *and* deadlock check of all its rows through
//!   one shard mutex (Figure 6c) — two hot rows on the same page still
//!   contend;
//! * every acquisition counts one created lock object, even without
//!   contention (`COUNT_UNCONTENDED_GRANTS`, the Figure-6d accounting).
//!
//! Everything else — the per-record queues inside a shard, the grant, the
//! wait loop, the release — is the driver's, shared with O1.

use crate::lock_table::{Layout, LockTableConfig, RecordLockTable};
use txsql_common::RecordId;

/// The page-sharded lock system.
pub type LockSys = RecordLockTable<PageLayout>;

/// Configuration of [`LockSys`].
pub type LockSysConfig = LockTableConfig;

/// Shard hashing and accounting of the MySQL arm: hashed by page, a lock
/// object per acquisition.
#[derive(Debug)]
pub struct PageLayout;

impl Layout for PageLayout {
    const COUNT_UNCONTENDED_GRANTS: bool = true;
    /// InnoDB uses a small fixed number of page-hash shards.
    const SHARDS: usize = 64;

    #[inline]
    fn shard_key(record: RecordId) -> u64 {
        ((record.space_id as u64) << 32) | record.page_no as u64
    }
}
