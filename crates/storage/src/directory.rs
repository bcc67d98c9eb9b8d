//! An append-only directory: a vector that only grows, whose elements never
//! move, and which readers index without taking a lock.
//!
//! Both of the engine's lookup structures have that life cycle — tables are
//! created and never dropped ([`crate::Storage`]'s catalog), heap pages are
//! only ever appended ([`crate::Table`]) — so a reader can hold a plain
//! `&T` for as long as it holds the directory, and the statement path shares
//! no lock word with any other client.
//!
//! The directory grows in buckets, bucket `b` holding `FIRST << b` elements,
//! so no element is ever copied and an empty directory owns no storage.  A
//! bucket, and then each element in it, is published through a
//! [`OnceLock`]: a reader sees an element fully built or not at all.  Pushes
//! are serialised by the directory's one mutex, which [`Directory::grow`]
//! lends out so that a caller's decision (is this id taken?  is the newest
//! page full?) and its push are one critical section; nothing is ever
//! removed.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Elements in bucket 0 (a power of two).
const FIRST: usize = 64;
/// Enough doubling buckets for `u32::MAX` elements, the page-number space.
const BUCKETS: usize = 27;

/// See the module documentation.
#[derive(Debug)]
pub struct Directory<T> {
    buckets: [OnceLock<Box<[OnceLock<T>]>>; BUCKETS],
    /// Elements published so far.  Stored (`Release`) after the element, so
    /// every index below an `Acquire`-loaded length resolves.
    len: AtomicUsize,
    /// Held by the one [`Grower`] there can be.
    grow: Mutex<()>,
}

/// The exclusive right to append to a [`Directory`], from
/// [`Directory::grow`] until dropped.  Reads go on beside it.
pub struct Grower<'a, T> {
    dir: &'a Directory<T>,
    _exclusive: MutexGuard<'a, ()>,
}

impl<T> Default for Directory<T> {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }
}

/// Bucket and offset within it of element `index`.
fn locate(index: usize) -> (usize, usize) {
    let n = index + FIRST;
    let bucket = (n.ilog2() - FIRST.ilog2()) as usize;
    (bucket, n - (FIRST << bucket))
}

impl<T> Directory<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `index`, if it has been pushed.  Lock-free.
    pub fn get(&self, index: usize) -> Option<&T> {
        let (bucket, offset) = locate(index);
        self.buckets.get(bucket)?.get()?.get(offset)?.get()
    }

    /// The newest element.
    pub fn last(&self) -> Option<&T> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every element, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map_while(|index| self.get(index))
    }

    /// Waits for the right to append.  What the holder reads of the
    /// directory stays true until it pushes.
    pub fn grow(&self) -> Grower<'_, T> {
        Grower {
            dir: self,
            _exclusive: self.grow.lock(),
        }
    }
}

impl<'a, T> Grower<'a, T> {
    /// Appends `value`, returning its index and the element in place.
    pub fn push(&mut self, value: T) -> (usize, &'a T) {
        let dir = self.dir;
        let index = dir.len.load(Ordering::Relaxed);
        let (bucket_no, offset) = locate(index);
        let bucket = dir
            .buckets
            .get(bucket_no)
            .expect("directory holds at most u32::MAX elements")
            .get_or_init(|| (0..FIRST << bucket_no).map(|_| OnceLock::new()).collect());
        let element = bucket[offset].get_or_init(|| value);
        dir.len.store(index + 1, Ordering::Release);
        (index, element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_double_and_tile_the_index_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST - 1), (0, FIRST - 1));
        assert_eq!(locate(FIRST), (1, 0));
        assert_eq!(locate(3 * FIRST - 1), (1, 2 * FIRST - 1));
        assert_eq!(locate(3 * FIRST), (2, 0));
        assert_eq!(locate(u32::MAX as usize).0, BUCKETS - 1);
    }

    #[test]
    fn pushed_elements_resolve_and_never_move() {
        let dir = Directory::default();
        assert!(dir.is_empty() && dir.last().is_none() && dir.get(0).is_none());
        let first: &u64 = dir.grow().push(0).1;
        for value in 1..1_000u64 {
            assert_eq!(dir.grow().push(value), (value as usize, &value));
        }
        assert_eq!(dir.len(), 1_000);
        assert!(std::ptr::eq(first, dir.get(0).unwrap()));
        assert_eq!(dir.last(), Some(&999));
        assert_eq!(dir.get(1_000), None);
        assert!(dir.iter().copied().eq(0..1_000));
    }

    #[test]
    fn readers_see_every_published_index_while_a_writer_grows_it() {
        let dir = Directory::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut grower = dir.grow();
                for value in 0..20_000usize {
                    grower.push(value);
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut seen = 0;
                    while seen < 20_000 {
                        seen = dir.len();
                        // Everything below a length once observed is there.
                        for index in seen.saturating_sub(8)..seen {
                            assert_eq!(dir.get(index), Some(&index));
                        }
                    }
                });
            }
        });
    }
}
