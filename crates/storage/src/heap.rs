//! Pages and heap records.
//!
//! A [`Page`] is a fixed-capacity array of record slots; the slot index is
//! the `heap_no` of the paper's `<space_id, page_no, heap_no>` addressing.
//! Each slot holds the record's MVCC version chain behind its own
//! `parking_lot::RwLock` so that physical access (latching) is independent of
//! the *logical* row locks managed by `txsql-lockmgr` — the same separation
//! InnoDB makes between page latches and record locks.
//!
//! # Append-only
//!
//! A page's slot array is allocated whole when the page is created, a slot is
//! published once (through its [`OnceLock`]) when a record is allocated in
//! it, and neither is ever freed, moved or reused: a rolled-back insert
//! leaves its slot allocated and unindexed.  [`Page::slot`] therefore hands
//! out a plain `&RwLock<RecordVersions>` without taking any lock, and the
//! first lock word a reader writes to is the record's own latch.

use crate::version::RecordVersions;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use txsql_common::{HeapNo, PageNo, SpaceId};

/// A fixed-capacity page of record slots.
#[derive(Debug)]
pub struct Page {
    space_id: SpaceId,
    page_no: PageNo,
    slots: Box<[OnceLock<RwLock<RecordVersions>>]>,
    /// Slots allocated so far; written by [`Page::allocate`] only.
    len: AtomicUsize,
}

impl Page {
    /// Creates an empty page.
    pub fn new(space_id: SpaceId, page_no: PageNo, capacity: u16) -> Self {
        assert!(capacity > 0, "page capacity must be positive");
        Self {
            space_id,
            page_no,
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// The page's tablespace.
    pub fn space_id(&self) -> SpaceId {
        self.space_id
    }

    /// The page number within its tablespace.
    pub fn page_no(&self) -> PageNo {
        self.page_no
    }

    /// Number of allocated slots.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no slot is allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when no more records fit on this page.
    pub fn is_full(&self) -> bool {
        self.len() >= self.slots.len()
    }

    /// Allocates the next slot for `versions`, returning its `heap_no`, or
    /// `None` if the page is full.  Allocations on one page are serialised by
    /// the caller (the page directory's growth lock); one that lost a race it
    /// should not have been in finds its slot taken and reports the page
    /// full.
    pub fn allocate(&self, versions: RecordVersions) -> Option<HeapNo> {
        let heap_no = self.len.load(Ordering::Relaxed);
        self.slots.get(heap_no)?.set(RwLock::new(versions)).ok()?;
        self.len.store(heap_no + 1, Ordering::Release);
        Some(heap_no as HeapNo)
    }

    /// Returns the slot at `heap_no`, if it was allocated.  Lock-free.
    pub fn slot(&self, heap_no: HeapNo) -> Option<&RwLock<RecordVersions>> {
        self.slots.get(heap_no as usize)?.get()
    }

    /// Iterates over `(heap_no, slot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (HeapNo, &RwLock<RecordVersions>)> {
        let allocated = self.slots.iter().map_while(OnceLock::get);
        allocated.enumerate().map(|(i, s)| (i as HeapNo, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_common::{Row, TxnId};

    #[test]
    fn allocation_assigns_sequential_heap_numbers() {
        let page = Page::new(1, 0, 4);
        for expected in 0..4u16 {
            let heap_no = page.allocate(RecordVersions::default());
            assert_eq!(heap_no, Some(expected));
        }
        assert!(page.is_full());
        assert_eq!(page.allocate(RecordVersions::default()), None);
        assert_eq!(page.len(), 4);
    }

    #[test]
    fn slots_are_individually_lockable() {
        let page = Page::new(1, 0, 2);
        page.allocate(RecordVersions::default());
        page.allocate(RecordVersions::new(Row::from_ints(&[2, 7]), TxnId(1), None));
        let s0 = page.slot(0).unwrap();
        let s1 = page.slot(1).unwrap();
        // Holding a write latch on slot 0 must not block reading slot 1.
        let _w = s0.write();
        let r = s1.read();
        assert_eq!(r.latest().unwrap().row.get_int(1), Some(7));
    }

    #[test]
    fn missing_slot_returns_none() {
        let page = Page::new(1, 0, 2);
        assert!(page.slot(0).is_none());
        assert!(page.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_page_rejected() {
        let _ = Page::new(1, 0, 0);
    }

    #[test]
    fn iter_visits_all_slots_in_order() {
        let page = Page::new(3, 7, 8);
        for _ in 0..5 {
            page.allocate(RecordVersions::default());
        }
        let heap_nos: Vec<_> = page.iter().map(|(h, _)| h).collect();
        assert_eq!(heap_nos, vec![0, 1, 2, 3, 4]);
        assert_eq!(page.space_id(), 3);
        assert_eq!(page.page_no(), 7);
    }
}
