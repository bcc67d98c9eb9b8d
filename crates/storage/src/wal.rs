//! Redo log (write-ahead log): checksummed frames in fixed-size segments,
//! with an explicit durability horizon.
//!
//! The log is the engine's only "disk".  A transaction writes its row images
//! (physical redo, including uncommitted ones), its undo-header updates (so
//! `hot_update_order` survives a crash, §5.3) and a final `Commit` /
//! `Rollback` marker; its first frame begins it.
//!
//! # Layout
//!
//! A record is encoded as a **frame**: one header word (payload length,
//! kind, checksum over the frame's LSN and payload) followed by the payload,
//! in 8-byte words.  A row image's payload is what replay reads and nothing
//! else: the transaction, one word of table and column count, and a word per
//! column — so a 2-column update is a 5-word frame.  It holds no primary key
//! (column 0 is the key) and no record id (replay finds the row by its key).
//! Frames sit back to back in **segments** of `SEGMENT_WORDS` words; a frame
//! never spans two, so a frame that does not fit the rest of the tail
//! segment *seals* it (a marker word where the frame would have started) and
//! opens the next, and storage refuses a row wider than one frame holds
//! ([`RedoRecord::MAX_COLUMNS`]).  Segments are slots of an
//! append-only [`Directory`]: a truncated segment is zeroed and reused, the
//! directory only grows while the retained log does.
//!
//! # Appending
//!
//! [`RedoLog::append`] / [`RedoLog::append_pair`] take their LSNs **and**
//! their words in one compare-and-swap of the tail word, so byte order is LSN
//! order; then they encode straight into the segment and publish by moving
//! the *written* watermark from the LSN before their first frame to their
//! last (`Release`) — in LSN order, so an appender whose predecessor is still
//! encoding waits for it at that one step.  No lock, no allocation (a seal
//! takes a spare slot and allocates the next spare after publishing), and the
//! [`RedoRecord`] handed in is dropped: the log keeps bytes, not rows.
//!
//! # Durability contract
//!
//! Flushers are serialized behind the flush latch.  [`RedoLog::flush_to`]
//! waits until the written watermark covers the requested LSN — every frame
//! at or below it is whole — before it pays the fsync, and advances the
//! durable horizon only after that fsync completes: no caller can observe
//! `durable_lsn >= lsn` while a frame below is incomplete or the covering
//! fsync in flight.  (The watermark is a word on the tail's cache line.  A
//! flusher that walks the frame headers instead pulls in the lines the other
//! clients just wrote: `hot_update_mem` read 225k tps with the walk, 290k
//! without.)  [`RedoLog::truncate_to`] moves the head past frames at or below
//! `min(lsn, durable_lsn)` and recycles every segment it leaves.
//!
//! # Crash model
//!
//! A [`crate::fault::FaultInjector`] can kill the simulated process at named
//! crash points.  Once crashed, the durable horizon is frozen (the crash
//! image): appends are swallowed and flushes fail with [`Error::Crashed`].  A
//! mid-flush crash cuts the flush batch at a **byte** offset: the frames
//! wholly below the cut are durable, and of the next one only some bytes
//! reached the disk — the rest of it is overwritten with garbage then and
//! there.  [`RedoLog::durable_frames`] reads the image back as a restarted
//! process would: up to the durable LSN and, after a cut flush, into the
//! frame behind it, scan-stopping at the first frame whose length or
//! checksum does not hold.

use crate::directory::Directory;
use crate::fault::{CrashPoint, FaultInjector, FsyncFault};
use parking_lot::{Mutex, MutexGuard};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::FxHasher;
use txsql_common::latency::simulate_delay;
use txsql_common::pad::CachePadded;
use txsql_common::{Error, Lsn, Result, Row, TableId, TxnId};

/// How many times a transiently failing fsync is retried (with backoff)
/// before the engine degrades to read-only.
pub const MAX_FSYNC_RETRIES: u64 = 3;

/// Words in a segment: 1 MiB.  Large enough that sealing one — a spare slot
/// off the free list, then a zero-filled allocation for the next spare — is
/// paid once per ≈ 7 500 one-update transactions; small enough that a
/// truncation gives memory back in useful pieces and that an offset fits the
/// 18 bits the tail word has for it.
const SEGMENT_WORDS: usize = 1 << 17;

/// One redo log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoRecord {
    /// A row image: physical redo of an update's after-image or of an
    /// inserted row (replay treats them alike, and finds the row by its
    /// primary key, column 0).
    Image {
        /// Writing transaction.
        txn: TxnId,
        /// Table of the row.
        table: TableId,
        /// The row as the statement left it.
        row: Row,
    },
    /// The undo header field for `txn` changed (carries the raw
    /// `TRX_UNDO_TRX_NO` field, which may encode a `hot_update_order`).
    UndoHeader {
        /// Owning transaction.
        txn: TxnId,
        /// Raw header field (see [`crate::undo::UndoHeader`]).
        field: u64,
    },
    /// Commit marker with the commit sequence number.
    Commit {
        /// Committing transaction.
        txn: TxnId,
        /// Commit sequence number (`trx_no`).
        trx_no: u64,
    },
    /// Rollback marker (the transaction's changes must be undone if replayed).
    Rollback {
        /// Rolled-back transaction.
        txn: TxnId,
    },
}

/// Frame kinds, as stored in a header (0 is "nothing written here").
const IMAGE: u64 = 1;
const UNDO_HEADER: u64 = 2;
const COMMIT: u64 = 3;
const ROLLBACK: u64 = 4;
/// Not a record: the rest of the segment is unused, the log goes on in
/// `Segment::next`.
const SEAL: u64 = 5;

impl RedoRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            RedoRecord::Image { txn, .. }
            | RedoRecord::UndoHeader { txn, .. }
            | RedoRecord::Commit { txn, .. }
            | RedoRecord::Rollback { txn } => *txn,
        }
    }

    fn kind(&self) -> u64 {
        match self {
            RedoRecord::Image { .. } => IMAGE,
            RedoRecord::UndoHeader { .. } => UNDO_HEADER,
            RedoRecord::Commit { .. } => COMMIT,
            RedoRecord::Rollback { .. } => ROLLBACK,
        }
    }

    /// The most columns a row may have: its image (header, transaction,
    /// table / column-count word, a word per column) fits a segment beside
    /// the three-word undo header that may share its reservation.
    pub const MAX_COLUMNS: usize = SEGMENT_WORDS - 7;

    /// Whether `row`'s image fits a frame ([`RedoRecord::MAX_COLUMNS`]).
    /// Storage asks before it installs the version: a frame never spans two
    /// segments, and the log cannot refuse a row that is already in place.
    pub fn fits(row: &Row) -> bool {
        row.len() <= Self::MAX_COLUMNS
    }

    /// Feeds the payload words to `put`, in order: the transaction, then what
    /// the kind carries.  A row image is its table and column count in one
    /// word, then a word per column.
    fn encode(&self, put: &mut impl FnMut(u64)) {
        put(self.txn().0);
        match self {
            RedoRecord::Image { table, row, .. } => {
                put((table.0 as u64) << 32 | row.len() as u64);
                row.ints().iter().for_each(|&column| put(column as u64));
            }
            RedoRecord::UndoHeader { field: word, .. }
            | RedoRecord::Commit { trx_no: word, .. } => put(*word),
            RedoRecord::Rollback { .. } => {}
        }
    }

    /// Reverses [`RedoRecord::encode`]; `None` when `payload` is not exactly
    /// one record of `kind` (lengths come from the payload and are checked
    /// against it before anything is allocated for them).
    fn decode(kind: u64, payload: &[u64]) -> Option<RedoRecord> {
        let mut words = payload.iter().copied();
        let txn = TxnId(words.next()?);
        let record = match kind {
            UNDO_HEADER => RedoRecord::UndoHeader {
                txn,
                field: words.next()?,
            },
            COMMIT => RedoRecord::Commit {
                txn,
                trx_no: words.next()?,
            },
            ROLLBACK => RedoRecord::Rollback { txn },
            IMAGE => {
                let shape = words.next()?;
                if words.len() != shape as u32 as usize {
                    return None;
                }
                RedoRecord::Image {
                    txn,
                    table: TableId((shape >> 32) as u32),
                    row: words.by_ref().map(|word| word as i64).collect(),
                }
            }
            _ => return None,
        };
        words.next().is_none().then_some(record)
    }
}

/// The header word of frame `lsn`: payload length in words (24 bits), kind
/// (8), and in the low half the checksum, which covers length, kind, the LSN
/// — a frame read back at another position fails it — and the payload.
fn header(kind: u64, lsn: u64, payload: impl ExactSizeIterator<Item = u64>) -> u64 {
    let meta = (payload.len() as u64) << 40 | kind << 32;
    let mut sum = FxHasher::default();
    sum.write_u64(meta ^ lsn);
    payload.for_each(|word| sum.write_u64(word));
    meta | sum.finish() >> 32
}

fn kind_of(header: u64) -> u64 {
    header >> 32 & 0xff
}

fn payload_words(header: u64) -> usize {
    (header >> 40) as usize
}

/// One slot of the segment directory.
struct Segment {
    /// Frames back to back from word 0, zero from the first word nothing
    /// was written at.
    words: Box<[AtomicU64]>,
    /// LSN of the first frame.  Stored by whoever makes the slot the tail,
    /// before the compare-and-swap that publishes it as such.
    base_lsn: AtomicU64,
    /// Slot of the segment that follows in log order; stored with the seal
    /// marker that sends a reader there.
    next: AtomicUsize,
}

/// A position in the log: frame `lsn` starts at word `off` of `slot`, or,
/// where a seal marker stands there, at word 0 of the slot's successor.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    slot: usize,
    off: usize,
    lsn: u64,
}

/// The two words every appender writes, together on a line of their own.
struct Tail {
    /// Where the next reservation starts: slot of the tail segment (20
    /// bits), first free word in it (18), low 26 bits of the next LSN.  The
    /// LSN bits double as the tag that keeps a compare-and-swap from
    /// succeeding on a slot that was recycled and became the tail again
    /// since the word was read.
    reserved: AtomicU64,
    /// Every frame at or below this LSN is whole.  Appenders move it in LSN
    /// order, each from the LSN before its first frame to its last.
    written: AtomicU64,
}

const OFF_BITS: u32 = 18;
const LSN_BITS: u32 = 26;

fn pack(at: Cursor) -> u64 {
    let lsn = at.lsn & ((1 << LSN_BITS) - 1);
    (at.slot as u64) << (OFF_BITS + LSN_BITS) | (at.off as u64) << LSN_BITS | lsn
}

fn slot_of(tail: u64) -> usize {
    (tail >> (OFF_BITS + LSN_BITS)) as usize
}

/// The position a tail word names.  Its LSN is the one at or above `base` —
/// the base LSN of its slot, which holds far fewer than 2^26 frames — with
/// the word's low bits.
fn unpack(tail: u64, base: u64) -> Cursor {
    Cursor {
        slot: slot_of(tail),
        off: (tail >> LSN_BITS & ((1 << OFF_BITS) - 1)) as usize,
        lsn: base + (tail.wrapping_sub(base) & ((1 << LSN_BITS) - 1)),
    }
}

/// The redo log.
pub struct RedoLog {
    segments: Directory<Segment>,
    /// Zeroed slots waiting to become the tail.
    free: Mutex<Vec<usize>>,
    tail: CachePadded<Tail>,
    /// The oldest retained frame.  Held by a reader for as long as it walks,
    /// so that truncation cannot recycle a segment under it.
    head: Mutex<Cursor>,
    /// Serializes flushers: `flush_to` returning `Ok` means the covering
    /// fsync *completed* (the durability contract, see the module docs).
    flush: Mutex<()>,
    durable_lsn: AtomicU64,
    /// After a mid-flush crash: how many bytes of frame `durable_lsn + 1`
    /// reached the disk, the rest of it being garbage since (`u64::MAX` = no
    /// flush was cut).
    torn_bytes: AtomicU64,
    fsync_latency: Duration,
    fsync_count: AtomicU64,
    faults: Arc<FaultInjector>,
}

impl std::fmt::Debug for RedoLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let durable = self.durable_lsn();
        write!(f, "RedoLog {{ durable_lsn: {durable:?}, .. }}")
    }
}

impl Default for RedoLog {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl RedoLog {
    /// Creates an empty log whose flushes cost `fsync_latency` and that never
    /// experiences injected faults.
    pub fn new(fsync_latency: Duration) -> Self {
        Self::with_faults(fsync_latency, FaultInjector::disabled())
    }

    /// Creates an empty log wired to a fault injector.
    pub fn with_faults(fsync_latency: Duration, faults: Arc<FaultInjector>) -> Self {
        let start = Cursor {
            slot: 0,
            off: 0,
            lsn: 1,
        };
        let log = Self {
            segments: Directory::default(),
            free: Mutex::new(Vec::new()),
            tail: CachePadded::new(Tail {
                reserved: pack(start).into(),
                written: 0.into(),
            }),
            head: Mutex::new(start),
            flush: Mutex::new(()),
            durable_lsn: AtomicU64::new(0),
            torn_bytes: AtomicU64::new(u64::MAX),
            fsync_latency,
            fsync_count: AtomicU64::new(0),
            faults,
        };
        let first = log.segment(log.grow());
        first.base_lsn.store(start.lsn, Ordering::Relaxed);
        log
    }

    /// The fault injector this log reports to.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Adds a zero-filled segment to the directory and returns its slot.
    fn grow(&self) -> usize {
        let segment = Segment {
            words: (0..SEGMENT_WORDS).map(|_| AtomicU64::new(0)).collect(),
            base_lsn: AtomicU64::new(0),
            next: AtomicUsize::new(0),
        };
        let slot = self.segments.grow().push(segment).0;
        assert!(slot < 1 << 20, "the tail word names a slot in 20 bits");
        slot
    }

    fn segment(&self, slot: usize) -> &Segment {
        self.segments.get(slot).expect("a slot the log names")
    }

    /// Appends a record, returning its LSN.  The record is *not* durable
    /// until a flush covers its LSN.  After an injected crash the append is
    /// swallowed (the process is dead; nothing reaches the log buffer).
    pub fn append(&self, record: RedoRecord) -> Lsn {
        self.append_frames(&[record])
    }

    /// Appends `first` and `second` as consecutive frames under one
    /// reservation and returns the LSN of `second`.  What a stage that logs
    /// two records at once (commit's undo header + marker) publishes with.
    pub fn append_pair(&self, first: RedoRecord, second: RedoRecord) -> Lsn {
        self.append_frames(&[first, second])
    }

    fn append_frames(&self, records: &[RedoRecord]) -> Lsn {
        if self.faults.crashed() {
            return self.latest_lsn();
        }
        let mut words = records.len();
        records.iter().for_each(|r| r.encode(&mut |_| words += 1));
        // Storage refuses the rows that would not fit (`RedoRecord::fits`).
        assert!(words < SEGMENT_WORDS, "a reservation over a segment");
        let (segment, at, sealed) = self.reserve(records.len() as u64, words);
        if let Some(sim) = txsql_sim::current() {
            // Between the reservation and the publication, where a flusher
            // or the next appender may run.
            sim.yield_at(self.sim_resource());
        }
        let mut frames = &segment.words[at.off..at.off + words];
        for (lsn, record) in (at.lsn..).zip(records) {
            let mut len = 0;
            record.encode(&mut |word| {
                len += 1;
                frames[len].store(word, Ordering::Relaxed);
            });
            let payload = frames[1..=len].iter();
            let payload = payload.map(|word| word.load(Ordering::Relaxed));
            frames[0].store(header(record.kind(), lsn, payload), Ordering::Relaxed);
            frames = &frames[1 + len..];
        }
        // Publish, in LSN order: whoever reserved before us is a handful of
        // stores from done, or was preempted inside them.
        let last = at.lsn + records.len() as u64 - 1;
        self.wait_until(|| self.tail.written.load(Ordering::Acquire) == at.lsn - 1);
        self.tail.written.store(last, Ordering::Release);
        if sealed {
            // The spare this reservation used up is replaced off the path of
            // everyone who appends behind it.
            let mut free = self.free.lock();
            if free.is_empty() {
                free.push(self.grow());
            }
        }
        Lsn(last)
    }

    /// Lets whoever `done` depends on run until it holds: a few spins, then
    /// the rest of the time slice (under the simulator, a turn).
    fn wait_until(&self, done: impl Fn() -> bool) {
        for spins in 0.. {
            if done() {
                return;
            }
            match txsql_sim::current() {
                Some(sim) => sim.yield_at(self.sim_resource()),
                None if spins < 64 => std::hint::spin_loop(),
                None => std::thread::yield_now(),
            }
        }
    }

    fn sim_resource(&self) -> txsql_sim::Resource {
        txsql_sim::Resource::new(txsql_sim::ResourceKind::Lock, txsql_sim::key_of(self))
    }

    /// The tail segment and where the next reservation would start in it.
    fn tail(&self, reserved: u64) -> (&Segment, Cursor) {
        let segment = self.segment(slot_of(reserved));
        let base = segment.base_lsn.load(Ordering::Acquire);
        (segment, unpack(reserved, base))
    }

    /// Takes the next `frames` LSNs and `words` consecutive words in one
    /// compare-and-swap of the tail word.  Returns the segment they are in,
    /// where they start, and whether the reservation sealed the previous
    /// tail segment (it always leaves room for a seal marker behind it).
    fn reserve(&self, frames: u64, words: usize) -> (&Segment, Cursor, bool) {
        let mut reserved = self.tail.reserved.load(Ordering::Acquire);
        loop {
            // If the slot is recycled under this, the swap fails on its tag.
            let (segment, mut at) = self.tail(reserved);
            // A seal makes the reservation the first of a spare slot, which
            // nobody else sees until the swap names it.
            let spare = (at.off + words >= SEGMENT_WORDS)
                .then(|| self.free.lock().pop().unwrap_or_else(|| self.grow()));
            let seal_at = at.off;
            if let Some(spare) = spare {
                (at.slot, at.off) = (spare, 0);
                self.segment(spare)
                    .base_lsn
                    .store(at.lsn, Ordering::Relaxed);
            }
            let next = Cursor {
                off: at.off + words,
                lsn: at.lsn + frames,
                ..at
            };
            let swap = (self.tail.reserved).compare_exchange_weak(
                reserved,
                pack(next),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            match (swap, spare) {
                (Ok(_), None) => return (segment, at, false),
                (Ok(_), Some(spare)) => {
                    segment.next.store(spare, Ordering::Relaxed);
                    let seal = header(SEAL, at.lsn, [].into_iter());
                    segment.words[seal_at].store(seal, Ordering::Relaxed);
                    return (self.segment(spare), at, true);
                }
                (Err(seen), spare) => {
                    self.free.lock().extend(spare);
                    reserved = seen;
                }
            }
        }
    }

    /// Registers a hit of `point` and surfaces the injected crash (or an
    /// earlier crash / read-only degradation) as an error.  Called by the
    /// storage write paths at their named crash points.
    pub fn crash_point(&self, point: CrashPoint) -> Result<()> {
        if self.faults.hit(point) {
            return Err(Error::Crashed {
                point: point.name(),
            });
        }
        self.faults.check_writable()
    }

    /// Highest LSN ever assigned.
    pub fn latest_lsn(&self) -> Lsn {
        loop {
            let reserved = self.tail.reserved.load(Ordering::Acquire);
            let next = self.tail(reserved).1.lsn;
            // The slot's base is the word's only if it was the tail throughout.
            if self.tail.reserved.load(Ordering::Acquire) == reserved {
                return Lsn(next - 1);
            }
        }
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn.load(Ordering::Relaxed))
    }

    /// What one flush costs: the latency every `flush_to` with something new
    /// to flush pays.
    pub fn fsync_latency(&self) -> Duration {
        self.fsync_latency
    }

    /// Number of fsyncs performed (group commit reduces this; Figure 13).
    pub fn fsync_count(&self) -> u64 {
        self.fsync_count.load(Ordering::Relaxed)
    }

    /// The segment that frame `at.lsn` — one at or below the written
    /// watermark — is in: moves `at` through the seal marker if it stands at
    /// one (where the segments meet is layout, not content).
    fn segment_at(&self, at: &mut Cursor) -> &Segment {
        let segment = self.segment(at.slot);
        if kind_of(segment.words[at.off].load(Ordering::Relaxed)) != SEAL {
            return segment;
        }
        (at.slot, at.off) = (segment.next.load(Ordering::Relaxed), 0);
        self.segment(at.slot)
    }

    /// Moves `at` over the frame it stands at; returns where the frame starts
    /// (past the seal marker, if `at` stood at one) and its size in words.
    fn advance(&self, at: &mut Cursor) -> (Cursor, usize) {
        let header = self.segment_at(at).words[at.off].load(Ordering::Relaxed);
        let (start, words) = (*at, 1 + payload_words(header));
        (at.off, at.lsn) = (at.off + words, at.lsn + 1);
        (start, words)
    }

    /// Makes everything up to `lsn` durable.  Pays one fsync latency if there
    /// is anything new to flush; callers batching multiple transactions behind
    /// one flush is exactly the group-commit optimization.
    ///
    /// Flushers are serialized: `Ok(())` means every frame at or below `lsn`
    /// is whole and the fsync covering it has *completed*.  Transient
    /// injected fsync errors are retried up to [`MAX_FSYNC_RETRIES`] times
    /// with backoff; persistent ones (or an exhausted budget) degrade the
    /// engine to read-only.  An injected mid-flush crash cuts this flush
    /// batch at a byte offset (see the module docs).
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        // Safe unlatched fast path: the durable horizon only advances after a
        // *completed* fsync, so observing `durable >= lsn` here really does
        // mean the data is on disk.
        if lsn.0 <= self.durable_lsn.load(Ordering::Acquire) {
            return Ok(());
        }
        let _flusher = self.flush.lock();
        self.faults.check_writable()?;
        // Re-check under the latch: the previous flusher may have covered us
        // (group commit), in which case we owe no extra fsync.
        let durable = self.durable_lsn.load(Ordering::Acquire);
        if lsn.0 <= durable {
            return Ok(());
        }
        // The batch is every frame up to `lsn`, whole.
        let written = || self.tail.written.load(Ordering::Acquire);
        let mut lsn = lsn.0;
        if written() < lsn {
            // Someone below is still encoding — or `lsn` is past the last
            // reservation, and nothing there will ever be written.
            lsn = lsn.min(self.latest_lsn().0);
            self.wait_until(|| written() >= lsn);
            if lsn <= durable {
                return Ok(());
            }
        }
        let mut retries = 0;
        loop {
            let fault = self.faults.fsync_attempt();
            if self.faults.crashed() {
                // A plan may crash *at* an injected fsync error.
                return Err(Error::Crashed {
                    point: CrashPoint::FsyncError.name(),
                });
            }
            match fault {
                FsyncFault::Ok => break,
                FsyncFault::Transient => {
                    if retries >= MAX_FSYNC_RETRIES {
                        self.faults.degrade_read_only();
                        return Err(Error::ReadOnly {
                            reason: "fsync retry budget exhausted",
                        });
                    }
                    retries += 1;
                    self.faults.note_fsync_retry();
                    // Bounded backoff before the next attempt.
                    simulate_delay(self.fsync_latency);
                }
                FsyncFault::Persistent => {
                    self.faults.degrade_read_only();
                    return Err(Error::ReadOnly {
                        reason: "fsync failed persistently",
                    });
                }
            }
        }
        simulate_delay(self.fsync_latency);
        if self.faults.hit(CrashPoint::MidFlush) {
            // The crash landed inside this batch: all of it but its last
            // `torn_cut_back` bytes reached the disk.  The frames wholly
            // below the cut are durable; the next one is the torn tail, and
            // past the cut the disk holds garbage for it from here on (the
            // process is dead: nothing is appended behind it).
            let head = self.head.lock();
            let (mut at, mut batch) = (*head, Vec::new());
            while at.lsn <= lsn {
                let frame = self.advance(&mut at);
                batch.extend((at.lsn > durable + 1).then_some(frame));
            }
            let bytes = batch.iter().map(|(_, words)| 8 * words).sum::<usize>();
            let mut reached = bytes.saturating_sub(self.faults.torn_cut_back() as usize);
            let mut whole = 0;
            while 8 * batch[whole].1 <= reached {
                (reached, whole) = (reached - 8 * batch[whole].1, whole + 1);
            }
            let (torn, words) = batch[whole];
            let words = &self.segment(torn.slot).words[torn.off..][..words];
            for (index, word) in words.iter().enumerate().skip(reached / 8) {
                let keep = (1 << (8 * reached.saturating_sub(8 * index))) - 1;
                let mut garbage = FxHasher::default();
                garbage.write_u64(torn.lsn << 20 ^ index as u64);
                let garbage = garbage.finish().rotate_left(32);
                let on_disk = word.load(Ordering::Relaxed) & keep | garbage & !keep;
                word.store(on_disk, Ordering::Relaxed);
            }
            (self.durable_lsn).store(durable + whole as u64, Ordering::Release);
            self.torn_bytes.store(reached as u64, Ordering::Release);
            return Err(Error::Crashed {
                point: CrashPoint::MidFlush.name(),
            });
        }
        if self.faults.crashed() {
            // The process died (at some other crash point) while our fsync
            // was in flight: the durable horizon is frozen at the crash
            // image and this flush must not be acknowledged.
            return Err(Error::Crashed { point: "crashed" });
        }
        self.fsync_count.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.store(lsn, Ordering::Release);
        Ok(())
    }

    /// Flushes everything appended so far.
    pub fn flush_all(&self) -> Result<()> {
        self.flush_to(self.latest_lsn())
    }

    /// Drops every frame with `lsn <= min(lsn, durable_lsn)` from the log
    /// (checkpoint truncation) and recycles the segments that leaves empty.
    /// Never removes an un-flushed frame.  Returns the number of frames
    /// removed.
    pub fn truncate_to(&self, lsn: Lsn) -> u64 {
        let limit = lsn.0.min(self.durable_lsn.load(Ordering::Acquire));
        let mut head = self.head.lock();
        let before = head.lsn;
        while head.lsn <= limit {
            let left = *head;
            self.advance(&mut head);
            if head.slot != left.slot {
                // The walk went through the seal at `left.off`: every frame
                // of the slot is gone.
                let words = &self.segment(left.slot).words;
                (words[..=left.off].iter()).for_each(|word| word.store(0, Ordering::Relaxed));
                self.free.lock().push(left.slot);
            }
        }
        head.lsn - before
    }

    /// The durable log exactly as a restarted process reads it back: the
    /// retained frames at or below the durable LSN, in LSN order, ending at
    /// the first frame that does not hold (see [`Frames::torn_tail`]).
    pub fn durable_frames(&self) -> Frames<'_> {
        let head = self.head.lock();
        let torn = self.torn_bytes.load(Ordering::Acquire) != u64::MAX;
        Frames {
            log: self,
            at: *head,
            _head: head,
            end: self.durable_lsn.load(Ordering::Acquire) + torn as u64,
            torn_tail: None,
            payload: Vec::new(),
        }
    }

    /// Records that survive a crash: everything retained with
    /// `lsn <= durable_lsn`, in LSN order.
    pub fn durable_records(&self) -> Vec<RedoRecord> {
        self.durable_frames().map(|(_, record)| record).collect()
    }

    /// Number of records retained (appended and not truncated).
    pub fn len(&self) -> usize {
        (self.latest_lsn().0 + 1 - self.head.lock().lsn) as usize
    }

    /// True when no record is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A walk over the durable frames of a [`RedoLog`], decoding each in place.
/// Holds the log's head for as long as it lives: truncation waits.
pub struct Frames<'a> {
    log: &'a RedoLog,
    _head: MutexGuard<'a, Cursor>,
    at: Cursor,
    /// The last frame the disk holds bytes of: the durable one, or the one
    /// behind it that a cut flush tore.
    end: u64,
    torn_tail: Option<Lsn>,
    payload: Vec<u64>,
}

impl Frames<'_> {
    /// Once the walk has ended: the LSN of the frame it scan-stopped at —
    /// bytes that followed the last whole frame and did not hold as one —
    /// or `None` when the durable bytes ended with a frame.
    pub fn torn_tail(&self) -> Option<Lsn> {
        self.torn_tail
    }

    /// Decodes the frame at the cursor and moves over it; `None` when its
    /// length, its checksum or its contents do not hold.
    fn read(&mut self) -> Option<RedoRecord> {
        let lsn = self.at.lsn;
        let words = &self.log.segment_at(&mut self.at).words[self.at.off..];
        let header = words[0].load(Ordering::Relaxed);
        let payload = words.get(1..=payload_words(header))?.iter();
        self.payload.clear();
        (self.payload).extend(payload.map(|word| word.load(Ordering::Relaxed)));
        if header != self::header(kind_of(header), lsn, self.payload.iter().copied()) {
            return None;
        }
        let record = RedoRecord::decode(kind_of(header), &self.payload)?;
        (self.at.off, self.at.lsn) = (self.at.off + 1 + self.payload.len(), lsn + 1);
        Some(record)
    }
}

impl Iterator for Frames<'_> {
    type Item = (Lsn, RedoRecord);

    fn next(&mut self) -> Option<Self::Item> {
        let lsn = Lsn(self.at.lsn);
        // Nothing follows a frame that did not hold.
        if lsn.0 > self.end || self.torn_tail.is_some() {
            return None;
        }
        let record = self.read();
        if record.is_none() {
            self.torn_tail = Some(lsn);
        }
        record.map(|record| (lsn, record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use txsql_common::rng::XorShiftRng;

    fn upd(txn: u64, pk: i64, val: i64) -> RedoRecord {
        RedoRecord::Image {
            txn: TxnId(txn),
            table: TableId(1),
            row: Row::from_ints(&[pk, val]),
        }
    }

    /// The words `records` take in a segment, headers included.
    fn frame_words(records: &[RedoRecord]) -> usize {
        let log = RedoLog::default();
        records.iter().for_each(|record| {
            log.append(record.clone());
        });
        unpack(log.tail.reserved.load(Ordering::Relaxed), 1).off
    }

    #[test]
    fn a_two_column_update_image_is_five_words() {
        // Header, transaction, table and column count, the two columns.
        assert_eq!(frame_words(&[upd(1, 7, 5)]), 5);
        assert_eq!(frame_words(&[upd(1, 7, 5), commit(1)]), 8);
        let wide = Row::from_ints(&vec![1; RedoRecord::MAX_COLUMNS]);
        assert!(RedoRecord::fits(&wide));
        assert!(!RedoRecord::fits(&Row::from_ints(&vec![1; wide.len() + 1])));
    }

    fn commit(txn: u64) -> RedoRecord {
        let (txn, trx_no) = (TxnId(txn), txn);
        RedoRecord::Commit { txn, trx_no }
    }

    fn faulty(plan: FaultPlan) -> RedoLog {
        RedoLog::with_faults(Duration::ZERO, FaultInjector::new(plan))
    }

    #[test]
    fn lsns_are_monotonic() {
        let log = RedoLog::default();
        let a = log.append(commit(1));
        let b = log.append(upd(1, 0, 5));
        assert!(b > a);
        assert_eq!(log.latest_lsn(), b);
        assert_eq!(log.len(), 2);
        // A pair takes consecutive LSNs and reports its last one.
        let c = log.append_pair(upd(1, 0, 6), commit(1));
        assert_eq!((c, log.latest_lsn(), log.len()), (Lsn(b.0 + 2), c, 4));
        log.flush_all().unwrap();
        assert_eq!(log.durable_frames().last(), Some((c, commit(1))));
        assert_eq!(upd(9, 1, 1).txn(), TxnId(9));
    }

    #[test]
    fn unflushed_records_do_not_survive_a_crash() {
        let log = RedoLog::default();
        // A 5-column image decodes from a row too wide to be held inline.
        let wide = RedoRecord::Image {
            txn: TxnId(1),
            table: TableId(2),
            row: Row::from_ints(&[1, -2, 3, i64::MIN, 5]),
        };
        log.append_pair(upd(1, 0, 5), wide.clone());
        let flushed_up_to = log.append(commit(1));
        log.flush_to(flushed_up_to).unwrap();
        log.append(upd(2, 0, 6)); // never flushed
        assert_eq!(log.durable_records(), [upd(1, 0, 5), wide, commit(1)]);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn flush_is_idempotent_and_monotonic() {
        let log = RedoLog::default();
        let lsn = log.append(upd(1, 0, 1));
        log.flush_to(lsn).unwrap();
        let count = log.fsync_count();
        log.flush_to(lsn).unwrap(); // no new data: no extra fsync
        log.flush_to(Lsn(0)).unwrap();
        log.flush_to(Lsn(99)).unwrap(); // nothing that far was ever appended
        assert_eq!(log.fsync_count(), count);
        assert_eq!(log.durable_lsn(), lsn);
    }

    #[test]
    fn group_flush_covers_multiple_transactions_with_one_fsync() {
        let log = RedoLog::default();
        for t in 1..=10u64 {
            log.append(upd(t, 0, t as i64));
            log.append(commit(t));
        }
        log.flush_all().unwrap();
        assert_eq!(log.fsync_count(), 1);
        assert_eq!(log.durable_records().len(), 20);
    }

    /// A seeded record: any kind, rows of up to 70 columns, one in eight
    /// of them 10 000 columns wider (a thirteenth of a segment).
    fn random_record(rng: &mut XorShiftRng) -> RedoRecord {
        let txn = TxnId(rng.next_u64());
        let kind = rng.next_bounded(6);
        let word = rng.next_u64();
        let wide = if rng.next_bounded(8) == 0 { 10_000 } else { 0 };
        let columns = 0..(wide + rng.next_bounded(70)) * (kind / 3);
        let row: Row = columns.map(|_| rng.next_u64() as i64).collect();
        match kind {
            0 => RedoRecord::Rollback { txn },
            1 => RedoRecord::Commit { txn, trx_no: word },
            2 => RedoRecord::UndoHeader { txn, field: word },
            _ => RedoRecord::Image {
                txn,
                table: TableId(word as u32),
                row,
            },
        }
    }

    #[test]
    fn seeded_record_streams_round_trip_across_sealed_and_recycled_segments() {
        for seed in 1..=4 {
            let (log, mut rng) = (RedoLog::default(), XorShiftRng::new(seed));
            let mut written = Vec::new();
            // Two rounds: the second refills the segments the first one's
            // truncation recycled.
            for _round in 0..2 {
                let (kept, spares) = (written.len(), log.free.lock().len());
                while written.len() < kept + 400 {
                    let lsn = match rng.next_bounded(3) {
                        0 => {
                            let pair = (random_record(&mut rng), random_record(&mut rng));
                            written.extend([pair.0.clone(), pair.1.clone()]);
                            log.append_pair(pair.0, pair.1)
                        }
                        _ => {
                            written.push(random_record(&mut rng));
                            log.append(written.last().unwrap().clone())
                        }
                    };
                    assert_eq!(lsn.0 as usize, written.len());
                }
                assert!(log.segments.len() > 2, "seed {seed}: nothing sealed");
                let reused = kept == 0 || log.free.lock().len() < spares;
                assert!(reused, "seed {seed}: no slot was reused");
                let flushed = written.len() - 10;
                log.flush_to(Lsn(flushed as u64)).unwrap();
                let expected = (1..).map(Lsn).zip(written.iter().cloned());
                assert!(log.durable_frames().eq(expected.take(flushed).skip(kept)));
                // Truncation stops at the durable horizon, whatever is asked.
                assert_eq!(log.truncate_to(Lsn(u64::MAX)), (flushed - kept) as u64);
                assert_eq!((log.len(), log.durable_lsn()), (10, Lsn(flushed as u64)));
                log.flush_all().unwrap();
                assert_eq!(log.durable_records(), written[flushed..]);
                assert_eq!(log.truncate_to(Lsn(kept as u64)), 0);
                log.truncate_to(log.latest_lsn());
                assert!(log.is_empty() && log.durable_records().is_empty());
            }
        }
    }

    #[test]
    fn seeded_tears_cut_headers_payloads_and_frame_boundaries() {
        let (mut in_header, mut in_payload, mut on_boundary) = (0, 0, 0);
        for seed in 0..200 {
            let seeded = FaultPlan::seeded(seed);
            if !matches!(seeded.crash_target(), Some((CrashPoint::MidFlush, _))) {
                continue;
            }
            let cut_back = FaultInjector::new(seeded).torn_cut_back();
            let plan = FaultPlan::none().crash_at(CrashPoint::MidFlush, 1);
            let log = faulty(plan.with_torn_cut_back(cut_back));
            // Two one-update transactions as the engine logs them.
            let mut written = Vec::new();
            for t in 1..=2 {
                let (txn, field) = (TxnId(t), t);
                written.extend([RedoRecord::UndoHeader { txn, field }, upd(t, 0, 5)]);
                written.extend([RedoRecord::UndoHeader { txn, field }, commit(t)]);
            }
            written.iter().for_each(|record| {
                log.append(record.clone());
            });
            let err = log.flush_all().unwrap_err();
            assert!(matches!(err, Error::Crashed { point: "mid_flush" }));
            let mut frames = log.durable_frames();
            let durable = frames.by_ref().count();
            assert!(durable < written.len(), "seed {seed}: nothing was cut");
            assert_eq!(frames.torn_tail(), Some(Lsn(durable as u64 + 1)));
            drop(frames);
            assert_eq!(log.durable_records(), written[..durable]);
            // The dead process swallows further appends and rejects flushes.
            log.append(commit(9));
            assert_eq!((log.len(), log.flush_all().is_err()), (written.len(), true));
            assert_eq!(log.durable_lsn(), Lsn(durable as u64));
            match log.torn_bytes.load(Ordering::Relaxed) {
                0 => on_boundary += 1,
                1..=7 => in_header += 1,
                _ => in_payload += 1,
            }
        }
        assert!(in_header > 0 && in_payload > 0 && on_boundary > 0);
    }

    #[test]
    fn transient_fsync_errors_are_retried_with_backoff() {
        let log = faulty(FaultPlan::none().with_transient_fsync_errors(2));
        let lsn = log.append(upd(1, 0, 1));
        log.flush_to(lsn).unwrap();
        assert_eq!(log.durable_lsn(), lsn);
        assert_eq!(log.fsync_count(), 1);
    }

    #[test]
    fn persistent_fsync_failure_degrades_to_read_only() {
        let log = faulty(FaultPlan::none().with_persistent_fsync_failure());
        let lsn = log.append(upd(1, 0, 1));
        let err = log.flush_to(lsn).unwrap_err();
        assert!(matches!(err, Error::ReadOnly { .. }));
        assert!(log.faults().is_read_only());
        assert_eq!(log.durable_lsn(), Lsn(0));
        // Every subsequent flush fails fast without touching the horizon.
        assert!(matches!(
            log.flush_to(lsn).unwrap_err(),
            Error::ReadOnly { .. }
        ));
    }

    #[test]
    fn exhausted_transient_budget_degrades_to_read_only() {
        let log = faulty(FaultPlan::none().with_transient_fsync_errors(MAX_FSYNC_RETRIES + 5));
        let lsn = log.append(upd(1, 0, 1));
        let err = log.flush_to(lsn).unwrap_err();
        assert!(matches!(err, Error::ReadOnly { .. }));
    }

    #[test]
    fn pre_append_crash_point_fires_and_pins_the_log() {
        let log = faulty(FaultPlan::none().crash_at(CrashPoint::PreAppend, 2));
        log.crash_point(CrashPoint::PreAppend).unwrap();
        let lsn = log.append(upd(1, 0, 1));
        log.flush_to(lsn).unwrap();
        let err = log.crash_point(CrashPoint::PreAppend).unwrap_err();
        assert!(matches!(
            err,
            Error::Crashed {
                point: "pre_append"
            }
        ));
        // Everything durable before the crash is preserved, nothing after.
        assert_eq!(log.durable_records().len(), 1);
        assert!(log.crash_point(CrashPoint::PostAppendPreFlush).is_err());
    }

    /// What appender `who` logs: `rounds` of a pair and a single, every
    /// record naming its appender and its place in the appender's sequence;
    /// the single is `width` columns wide.  Returns the LSN each record was
    /// given.
    fn append_rounds(log: &RedoLog, who: u64, rounds: u64, width: usize) -> Vec<Lsn> {
        let mut lsns = Vec::new();
        for round in 0..rounds {
            let seq = 3 * round;
            let pair = log.append_pair(upd(who, 0, seq as i64), upd(who, 0, seq as i64 + 1));
            let mut row = vec![0; width.max(2)];
            row[1] = seq as i64 + 2;
            let single = log.append(RedoRecord::Image {
                txn: TxnId(who),
                table: TableId(1),
                row: Row::from_ints(&row),
            });
            lsns.extend([Lsn(pair.0 - 1), pair, single]);
        }
        lsns
    }

    /// Every retained durable frame in LSN order, each appender's records in
    /// the order — and at the LSNs — it appended them.
    fn assert_in_appended_order(log: &RedoLog, appended: &[Vec<Lsn>]) {
        let mut next = vec![0; appended.len()];
        let mut expected = log.latest_lsn().0 + 1 - log.len() as u64;
        for (lsn, record) in log.durable_frames() {
            let RedoRecord::Image { txn, row, .. } = record else {
                panic!("{record:?}")
            };
            let seq = row.get_int(1).unwrap() as usize;
            assert_eq!((lsn.0, lsn), (expected, appended[txn.0 as usize][seq]));
            assert!(seq >= next[txn.0 as usize], "{txn} went backwards at {lsn}");
            (expected, next[txn.0 as usize]) = (expected + 1, seq + 1);
        }
        assert_eq!(expected, log.durable_lsn().0 + 1);
    }

    #[test]
    fn sim_two_appenders_and_a_flusher_agree_on_whole_frames_in_lsn_order() {
        let cases = txsql_sim::ci_seeds(100);
        let summary = txsql_sim::explore_cases(cases, |seed| {
            let log = Arc::new(RedoLog::default());
            let appended = Arc::new(Mutex::new(vec![Vec::new(); 2]));
            let report = txsql_sim::run_seed(seed, |sim| {
                for who in 0..2 {
                    let (log, appended) = (Arc::clone(&log), Arc::clone(&appended));
                    sim.spawn(format!("appender-{who}"), move || {
                        // Singles of a quarter segment: the second round seals.
                        let lsns = append_rounds(&log, who, 2, SEGMENT_WORDS / 4);
                        appended.lock()[who as usize] = lsns;
                    });
                }
                let log = Arc::clone(&log);
                sim.spawn("flusher", move || {
                    for _ in 0..4 {
                        let target = log.latest_lsn();
                        log.flush_to(target).unwrap();
                        // Durable means whole: every frame up to the target
                        // reads back, though its appender may have been
                        // between its reservation and its header when the
                        // flush began.
                        assert!(log.durable_lsn() >= target);
                        assert_eq!(log.durable_frames().count() as u64, log.durable_lsn().0);
                    }
                });
            });
            log.flush_all().unwrap();
            assert_eq!(log.durable_lsn(), Lsn(12));
            assert_in_appended_order(&log, &appended.lock());
            report
        });
        assert!(summary.distinct_classes > 10, "{}", summary.line("wal"));
    }

    #[test]
    fn four_appenders_a_flusher_and_a_truncator_lose_and_reorder_nothing() {
        let (log, stop) = (&RedoLog::default(), &AtomicU64::new(0));
        let appended = std::thread::scope(|scope| {
            let appenders: Vec<_> = (0..4)
                .map(|who| (who, if who == 0 { 2 << 10 } else { 3 }))
                .map(|(who, width)| scope.spawn(move || append_rounds(log, who, 3_000, width)))
                .collect();
            scope.spawn(|| {
                while stop.load(Ordering::Acquire) == 0 {
                    let target = log.latest_lsn();
                    log.flush_to(target).unwrap();
                    assert!(log.durable_lsn() >= target);
                    // Checkpoint-style: cut half of what is durable.
                    let kept = log.len() as u64 / 2;
                    log.truncate_to(Lsn(log.durable_lsn().0.saturating_sub(kept)));
                }
            });
            let appended: Vec<_> = appenders.into_iter().map(|a| a.join().unwrap()).collect();
            stop.store(1, Ordering::Release);
            appended
        });
        log.flush_all().unwrap();
        assert_eq!(log.latest_lsn(), Lsn(4 * 3 * 3_000));
        assert_in_appended_order(log, &appended);
        // Appender 0 alone filled some 47 segments.  Whatever the truncator
        // got to, every slot but the tail's is on the free list once the log
        // is cut to its end: none leaked, none is there twice.
        log.truncate_to(log.latest_lsn());
        let mut free = log.free.lock().clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len() + 1, log.segments.len());
        assert!(log.segments.len() > 2, "nothing sealed a segment");
    }
}
