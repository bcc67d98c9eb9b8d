//! In-memory spans for the traced run, their self-time arithmetic and the
//! per-workload span file.
//!
//! The spans are recorded by the benchmark's own traced driver
//! (`engine::Engine::execute_traced`) around each call into the engine; the
//! engine itself is not instrumented.  One `txn` span covers a client
//! transaction from its first attempt to its final outcome, and its children
//! are the engine calls made on its behalf — so a child's duration is time
//! inside the engine and the `txn` span's self time is the client's own.

use crate::json::{self, Json};
use std::time::Instant;

/// The boundaries the traced driver records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Txn,
    Admission,
    Begin,
    StmtRead,
    StmtUpdateHot,
    StmtUpdateCold,
    StmtInsert,
    Commit,
    Rollback,
}

impl SpanName {
    /// Every name, in declaration order: `ALL[name as usize] == name`.
    pub const ALL: [SpanName; 9] = [
        SpanName::Txn,
        SpanName::Admission,
        SpanName::Begin,
        SpanName::StmtRead,
        SpanName::StmtUpdateHot,
        SpanName::StmtUpdateCold,
        SpanName::StmtInsert,
        SpanName::Commit,
        SpanName::Rollback,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanName::Txn => "txn",
            SpanName::Admission => "admission",
            SpanName::Begin => "begin",
            SpanName::StmtRead => "stmt_read",
            SpanName::StmtUpdateHot => "stmt_update_hot",
            SpanName::StmtUpdateCold => "stmt_update_cold",
            SpanName::StmtInsert => "stmt_insert",
            SpanName::Commit => "commit",
            SpanName::Rollback => "rollback",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.  `parent` indexes the same recorder's span list;
/// `txn` numbers the client transaction the span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One client thread's span list.  Spans are appended when they open, so the
/// list is in start order and a parent always precedes its children — the
/// invariant [`self_times`] relies on.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    txn: u32,
}

impl Recorder {
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(4),
            txn: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whatever span is currently open.
    pub fn open(&mut self, name: SpanName) -> u32 {
        if name == SpanName::Txn {
            self.txn += 1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            txn: self.txn,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: SpanName, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (children clipped to the parent, overlaps counted
/// once).  Requires the list in start order, as a [`Recorder`] produces it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for span in spans {
        if span.parent == NO_PARENT {
            continue;
        }
        let p = span.parent as usize;
        let parent = spans[p];
        let start = span.start_ns.max(covered_until[p]);
        let end = span.end_ns.min(parent.end_ns);
        if end > start {
            covered[p] += end - start;
            covered_until[p] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Summed self time per span name over the transactions whose `txn` span
/// ended inside the window.  `self_ns[Txn]` is the client's own time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Summed duration of the `txn` spans (the denominator of every share).
    pub txn_ns: u64,
    /// Self time by `SpanName::ALL` position.
    pub self_ns: [u64; SpanName::ALL.len()],
    /// Number of `txn` spans counted.
    pub txns: u64,
}

impl Totals {
    /// Adds one client's spans, keeping transactions that ended in `window`.
    pub fn add(&mut self, spans: &[Span], window: (u64, u64)) {
        let selfs = self_times(spans);
        let mut keep = false;
        for (span, self_ns) in spans.iter().zip(selfs) {
            if span.name == SpanName::Txn {
                keep = span.end_ns >= window.0 && span.end_ns <= window.1;
                if keep {
                    self.txn_ns += span.end_ns - span.start_ns;
                    self.txns += 1;
                }
            }
            if keep {
                self.self_ns[span.name as usize] += self_ns;
            }
        }
    }

    /// `(name, summed self time)` with the `txn` slot reported as `client`.
    pub fn by_label(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        SpanName::ALL.iter().zip(self.self_ns).map(|(name, ns)| {
            let label = if *name == SpanName::Txn {
                "client"
            } else {
                name.label()
            };
            (label, ns)
        })
    }
}

/// Transactions per client written to a span file; the totals in the same
/// file always cover the whole window.
const DUMPED_TXNS_PER_CLIENT: u32 = 2_000;

/// Renders the span file of one traced run (see README, "Reading a trace").
pub fn span_file(
    workload: &str,
    window: (u64, u64),
    clients: &[Vec<Span>],
    totals: &Totals,
) -> Json {
    let mut rows = Vec::new();
    for (client, spans) in clients.iter().enumerate() {
        // Skip the warm-up: dump from the first transaction inside the window.
        let first = spans
            .iter()
            .find(|s| s.name == SpanName::Txn && s.end_ns >= window.0)
            .map_or(u32::MAX, |s| s.txn);
        for (id, span) in spans.iter().enumerate() {
            if span.txn < first || span.txn - first >= DUMPED_TXNS_PER_CLIENT {
                continue;
            }
            let parent = if span.parent == NO_PARENT {
                Json::Null
            } else {
                Json::U64(span.parent.into())
            };
            rows.push(Json::Arr(vec![
                Json::U64(client as u64),
                Json::U64(id as u64),
                parent,
                Json::U64(span.txn.into()),
                json::text(span.name.label()),
                Json::U64(span.start_ns),
                Json::U64(span.end_ns),
            ]));
        }
    }
    let columns = [
        "client", "id", "parent", "txn", "name", "start_ns", "end_ns",
    ];
    json::obj([
        ("workload", json::text(workload)),
        (
            "window_ns",
            Json::Arr(vec![Json::U64(window.0), Json::U64(window.1)]),
        ),
        ("txns_in_window", Json::U64(totals.txns)),
        ("txn_ns", Json::U64(totals.txn_ns)),
        (
            "self_ns",
            json::obj(totals.by_label().map(|(l, ns)| (l, Json::U64(ns)))),
        ),
        (
            "dumped_txns_per_client",
            Json::U64(DUMPED_TXNS_PER_CLIENT.into()),
        ),
        ("columns", Json::Arr(columns.map(json::text).to_vec())),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, txn: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(SpanName::Txn, NO_PARENT, 1, 0, 100),
            span(SpanName::Begin, 0, 1, 10, 20),
            span(SpanName::StmtUpdateHot, 0, 1, 20, 60),
            span(SpanName::Commit, 0, 1, 70, 95),
        ];
        assert_eq!(self_times(&spans), vec![25, 10, 40, 25]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(SpanName::Txn, NO_PARENT, 1, 100, 200),
            // Overlaps the next child by 10 ns.
            span(SpanName::Begin, 0, 1, 110, 140),
            span(SpanName::Commit, 0, 1, 130, 160),
            // Hangs 50 ns past the parent's end.
            span(SpanName::Rollback, 0, 1, 180, 250),
        ];
        // Covered: 110..160 (50) + 180..200 (20) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(SpanName::Txn, NO_PARENT, 1, 0, 100),
            span(SpanName::Commit, 0, 1, 20, 80),
            span(SpanName::Rollback, 1, 1, 30, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn totals_keep_transactions_that_end_in_the_window_and_shares_sum_to_one() {
        let spans = [
            // Ends before the window: dropped with its children.
            span(SpanName::Txn, NO_PARENT, 1, 0, 40),
            span(SpanName::Commit, 0, 1, 10, 30),
            span(SpanName::Txn, NO_PARENT, 2, 50, 150),
            span(SpanName::StmtRead, 2, 2, 60, 90),
            span(SpanName::Commit, 2, 2, 100, 140),
        ];
        let mut totals = Totals::default();
        totals.add(&spans, (100, 200));
        assert_eq!(totals.txns, 1);
        assert_eq!(totals.txn_ns, 100);
        let by: Vec<_> = totals.by_label().filter(|(_, ns)| *ns > 0).collect();
        assert_eq!(by, vec![("client", 30), ("stmt_read", 30), ("commit", 40)]);
        assert_eq!(
            totals.by_label().map(|(_, ns)| ns).sum::<u64>(),
            totals.txn_ns
        );
    }

    #[test]
    fn names_index_their_own_slot() {
        for (slot, name) in SpanName::ALL.into_iter().enumerate() {
            assert_eq!(name as usize, slot);
        }
    }

    #[test]
    fn recorder_nests_and_numbers_transactions() {
        let mut rec = Recorder::new(Instant::now(), 8);
        for _ in 0..2 {
            let txn = rec.open(SpanName::Txn);
            rec.span(SpanName::Begin, || ());
            rec.span(SpanName::Commit, || ());
            rec.close(txn);
        }
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[4].parent, 3);
        assert_eq!(spans[5].txn, 2);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let file = span_file("w", (0, u64::MAX), &[spans], &Totals::default());
        let Ok(Json::Arr(rows)) = file.field("spans") else {
            panic!("no span rows");
        };
        assert_eq!(rows.len(), 6);
    }
}
