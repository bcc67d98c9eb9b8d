//! Rendering cell outcomes to the `BENCH_workloads.json` record.
//!
//! The file holds a `description`, an `environment` note and one block per
//! recorded selection.  A block is its provenance — everything two records
//! must share before their numbers compare: commit, CPU count, seed, window
//! lengths, repeat count — and an array of measured cells, each a median with
//! its spread.  `--check` refuses a file whose blocks disagree on provenance:
//! re-record instead of appending (git keeps what a block replaced).

use super::cell::{CellOutcome, REPEATS};
use crate::{measure_duration, warmup_duration};
use serde::{Json, Serialize};
use std::path::Path;
use txsql_replication::ReplicationMode;
use txsql_workloads::SecondSample;

/// Everything needed to reproduce a recorded block, and to decide whether two
/// blocks compare.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Selection name (`paper`, `smoke`, `fig6`).
    pub grid: String,
    /// `git rev-parse --short HEAD` of the tree the binary was built from,
    /// `-dirty` appended when the work tree differed; `unknown` outside git.
    pub commit: String,
    /// CPUs available to the run.
    pub nproc: u64,
    /// Base RNG seed passed to every cell.
    pub seed: u64,
    /// Warm-up seconds per closed-loop repeat.
    pub warmup_secs: f64,
    /// Measurement seconds per closed-loop repeat.
    pub measure_secs: f64,
    /// Fresh-database repeats behind every cell.
    pub repeats: u64,
}

impl Provenance {
    /// The keys two blocks of one file must agree on (`grid` and the thread
    /// list are what distinguishes them).
    const SHARED: [&'static str; 6] = [
        "commit",
        "nproc",
        "seed",
        "warmup_secs",
        "measure_secs",
        "repeats",
    ];

    /// The provenance of a run made now, by this binary, in this directory.
    pub fn capture(grid: &str, seed: u64) -> Self {
        let git = |args: &[&str]| {
            let output = std::process::Command::new("git").args(args).output().ok()?;
            let stdout = String::from_utf8_lossy(&output.stdout).trim().to_string();
            output.status.success().then_some(stdout)
        };
        let dirty = git(&["status", "--porcelain"]).is_some_and(|changes| !changes.is_empty());
        let head = git(&["rev-parse", "--short", "HEAD"]);
        Self {
            grid: grid.to_string(),
            commit: head.map_or("unknown".to_string(), |head| {
                head + if dirty { "-dirty" } else { "" }
            }),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            seed,
            warmup_secs: warmup_duration().as_secs_f64(),
            measure_secs: measure_duration().as_secs_f64(),
            repeats: REPEATS as u64,
        }
    }
}

struct RawJson<'a>(&'a Json);

impl Serialize for RawJson<'_> {
    fn to_json(&self) -> Json {
        self.0.clone()
    }
}

/// Renders a [`Json`] tree as human-indented JSON text.
pub fn render_json(value: &Json) -> String {
    serde_json::to_string_pretty(&RawJson(value)).expect("json rendering is infallible")
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// How a key every cell carries is read off an outcome; the variant is also
/// what `--check` holds the recorded value to.
enum Field {
    Label(fn(&CellOutcome) -> String),
    Count(fn(&CellOutcome) -> u64),
    Value(fn(&CellOutcome) -> f64),
}

/// The keys every recorded cell carries: written by [`cell_json`], required
/// by [`validate_block`].
const CELL_FIELDS: [(&str, Field); 13] = [
    ("id", Field::Label(|o| o.id())),
    (
        "protocol",
        Field::Label(|o| o.spec.protocol.label().to_string()),
    ),
    ("workload", Field::Label(|o| o.spec.workload.label())),
    ("threads", Field::Count(|o| o.spec.threads as u64)),
    ("replication", Field::Label(replication_label)),
    ("goodput_tps", Field::Value(|o| o.goodput_tps)),
    ("goodput_iqr", Field::Value(|o| o.goodput_iqr)),
    ("abort_rate_pct", Field::Value(|o| o.abort_rate_pct)),
    ("p50_ms", Field::Value(|o| o.p50_ms)),
    ("p95_ms", Field::Value(|o| o.p95_ms)),
    ("p99_ms", Field::Value(|o| o.p99_ms)),
    ("committed", Field::Count(|o| o.committed)),
    ("failed", Field::Count(|o| o.failed)),
];

fn replication_label(outcome: &CellOutcome) -> String {
    let label = match outcome.spec.replication {
        Some(ReplicationMode::Synchronous) => "sync",
        Some(ReplicationMode::Asynchronous) => "async",
        None => "off",
    };
    label.to_string()
}

/// What to know before comparing a cell with its neighbours in `block`: a
/// cell that mostly aborts, whose repeats disagree, or that a slower commit
/// path made faster is a question about the comparison first and a result
/// second, so the record answers it next to the number.
fn note(outcome: &CellOutcome, block: &[CellOutcome]) -> Option<String> {
    let mut notes = Vec::new();
    if outcome.abort_rate_pct > 90.0 || outcome.committed == 0 {
        let causes = outcome.snapshot.as_ref().map(|s| s.abort_causes.as_slice());
        let top = causes.and_then(|causes| causes.iter().max_by_key(|(_, count)| *count));
        let (cause, count) = top.map_or(("unknown", 0), |(cause, count)| (cause.as_str(), *count));
        let why = match cause {
            "aria_validation_failed" => {
                "Aria runs a batch against one snapshot and commits one writer per row, so with \
                 every client on the same hot row all but one of a batch fail validation and \
                 re-execute: the abort share is (batch - 1) / batch by construction and goodput \
                 is the batch rate, whatever the thread count"
            }
            "lock_wait_timeout" => {
                "the queue behind the row's holder is longer than the lock-wait timeout divided \
                 by this box's hand-off time, so waiters time out before their turn"
            }
            _ => "no reason on file: find it before comparing this cell",
        };
        notes.push(format!(
            "aborts {:.1} % of attempts, {count} of {} as `{cause}`: {why}",
            outcome.abort_rate_pct, outcome.failed
        ));
    }
    if outcome.goodput_iqr > outcome.goodput_tps {
        notes.push(format!(
            "the repeats disagree by more than the median (iqr {:.0} tps): they fall in two \
             modes and the median names neither",
            outcome.goodput_iqr
        ));
    }
    let mut in_memory = outcome.spec.clone().replication(None);
    in_memory.replication_fault = None;
    let sibling = block.iter().find(|other| other.id() == in_memory.id());
    if let Some(sibling) =
        sibling.filter(|s| outcome.spec.replication.is_some() && s.id() != outcome.id())
    {
        if outcome.goodput_tps - outcome.goodput_iqr > sibling.goodput_tps + sibling.goodput_iqr {
            let blocked =
                |o: &CellOutcome| o.snapshot.as_ref().map_or(0.0, |s| 1.0 - s.utilization);
            notes.push(format!(
                "a slower commit path raises tps ({:.0} against {:.0} at `{}`): in memory every \
                 client queues on the hot row and each hand-off wakes a parked thread on an \
                 oversubscribed box (blocked_share {:.3}, p95 {:.2} ms); here a client spends \
                 its commit parked in the replica-ack wait, off the row, so the row's queue is \
                 short and the commit pipeline overlaps the waits (blocked_share {:.3}). It \
                 says the in-memory cell is bound by hand-offs, not that replication is free",
                outcome.goodput_tps,
                sibling.goodput_tps,
                sibling.id(),
                blocked(sibling),
                sibling.p95_ms,
                blocked(outcome),
            ));
        }
    }
    (!notes.is_empty()).then(|| notes.join("; "))
}

/// Renders one cell outcome among the outcomes of its `block`: the
/// `CELL_FIELDS`, then what only some cells have.
pub fn cell_json(outcome: &CellOutcome, block: &[CellOutcome]) -> Json {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    for (key, field) in &CELL_FIELDS {
        let value = match field {
            Field::Label(read) => Json::Str(read(outcome)),
            Field::Count(read) => Json::U64(read(outcome)),
            Field::Value(read) => Json::F64(read(outcome)),
        };
        pairs.push((key, value));
    }
    let deltas = &outcome.spec.deltas;
    if !deltas.is_empty() {
        pairs.push((
            "deltas",
            Json::Arr(deltas.iter().map(|d| Json::Str(d.label())).collect()),
        ));
    }
    if let Some(snapshot) = &outcome.snapshot {
        // Where the time went (the gate's `core.blocked_share`,
        // `lockmgr.group.size_mean`, `core.commit.batch_size_mean`).
        let ratio = |n: u64, d: u64| Json::F64(if d == 0 { 0.0 } else { n as f64 / d as f64 });
        pairs.extend([
            ("blocked_share", Json::F64(1.0 - snapshot.utilization)),
            (
                "group_size_mean",
                ratio(snapshot.hotspot_group_entries, snapshot.groups_formed),
            ),
            (
                "commit_batch_mean",
                ratio(snapshot.committed, snapshot.commit_batches),
            ),
            ("admission_retries", Json::U64(snapshot.admission_retries)),
            ("abort_breakdown", snapshot.abort_breakdown.to_json()),
        ]);
    }
    if let Some(consistent) = outcome.tpcc_consistent {
        pairs.push(("tpcc_consistent", Json::Bool(consistent)));
    }
    pairs.extend(outcome.extras.iter().cloned());
    if let Some(note) = note(outcome, block) {
        pairs.push(("note", Json::Str(note)));
    }
    if let Some(seconds) = &outcome.seconds {
        let second = |s: &SecondSample| {
            obj(vec![
                ("second", Json::U64(s.second)),
                ("target_tps", Json::U64(s.target_tps)),
                ("committed", Json::U64(s.committed)),
                ("failed", Json::U64(s.failed)),
                ("p95_ms", Json::F64(s.p95_latency_ms)),
                ("utilization", Json::F64(s.utilization)),
                ("admission_shed", Json::U64(s.admission_shed)),
                ("admission_queued", Json::U64(s.admission_queued)),
            ])
        };
        pairs.push(("seconds", Json::Arr(seconds.iter().map(second).collect())));
    }
    obj(pairs)
}

/// Renders a whole block: provenance plus one entry per cell.
pub fn block_json(outcomes: &[CellOutcome], provenance: &Provenance) -> Json {
    let mut threads: Vec<u64> = outcomes.iter().map(|o| o.spec.threads as u64).collect();
    threads.sort_unstable();
    threads.dedup();
    let provenance = obj(vec![
        ("grid", Json::Str(provenance.grid.clone())),
        ("commit", Json::Str(provenance.commit.clone())),
        ("nproc", Json::U64(provenance.nproc)),
        ("seed", Json::U64(provenance.seed)),
        ("warmup_secs", Json::F64(provenance.warmup_secs)),
        ("measure_secs", Json::F64(provenance.measure_secs)),
        ("repeats", Json::U64(provenance.repeats)),
        (
            "threads",
            Json::Arr(threads.into_iter().map(Json::U64).collect()),
        ),
    ]);
    let cells = Json::Arr(outcomes.iter().map(|o| cell_json(o, outcomes)).collect());
    obj(vec![("provenance", provenance), ("cells", cells)])
}

type Pairs = [(String, Json)];

fn obj_get<'a>(pairs: &'a Pairs, key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A block's provenance and cell count, once its whole shape is checked.
fn checked_block(block: &Json) -> Result<(&Pairs, usize), String> {
    let Json::Obj(pairs) = block else {
        return Err("block is not an object".to_string());
    };
    let Some(Json::Obj(prov)) = obj_get(pairs, "provenance") else {
        return Err("missing `provenance` object".to_string());
    };
    for key in Provenance::SHARED.iter().chain(&["grid", "threads"]) {
        if obj_get(prov, key).is_none() {
            return Err(format!("provenance missing `{key}`"));
        }
    }
    let cells = match obj_get(pairs, "cells") {
        Some(Json::Arr(cells)) if !cells.is_empty() => cells,
        Some(Json::Arr(_)) => return Err("`cells` is empty".to_string()),
        _ => return Err("missing `cells` array".to_string()),
    };
    for (i, cell) in cells.iter().enumerate() {
        let Json::Obj(cell_pairs) = cell else {
            return Err(format!("cell {i} is not an object"));
        };
        for (key, field) in &CELL_FIELDS {
            let Some(value) = obj_get(cell_pairs, key) else {
                return Err(format!("cell {i} missing `{key}`"));
            };
            let number = matches!(value, Json::U64(_) | Json::I64(_) | Json::F64(_));
            if !matches!(field, Field::Label(_)) && !number {
                return Err(format!("cell {i} `{key}` is not a number"));
            }
        }
    }
    Ok((prov, cells.len()))
}

/// Validates one block's shape, returning its cell count.
pub fn validate_block(block: &Json) -> Result<usize, String> {
    checked_block(block).map(|(_, cells)| cells)
}

/// Validates every block in a `BENCH_workloads.json` file and that the blocks
/// agree on the provenance their numbers depend on, returning the total cell
/// count across blocks.
pub fn validate_file(text: &str) -> Result<usize, String> {
    let root = serde_json::parse(text).map_err(|e| e.to_string())?;
    let Json::Obj(pairs) = root else {
        return Err("file root is not an object".to_string());
    };
    let mut total = 0;
    let mut first: Option<(&str, &Pairs)> = None;
    for (key, block) in &pairs {
        if key == "description" || key == "environment" {
            continue;
        }
        let (prov, cells) = checked_block(block).map_err(|e| format!("block `{key}`: {e}"))?;
        total += cells;
        let (first_key, first_prov) = *first.get_or_insert((key, prov));
        for shared in Provenance::SHARED {
            if obj_get(prov, shared) != obj_get(first_prov, shared) {
                return Err(format!(
                    "blocks `{first_key}` and `{key}` differ on `{shared}`: their cells do not compare"
                ));
            }
        }
    }
    if first.is_none() {
        return Err("no blocks present".to_string());
    }
    Ok(total)
}

fn file_skeleton() -> Json {
    let description = "Workload-grid benchmark record. Produced by \
        crates/bench/src/bin/bench_workloads.rs: `TXSQL_BENCH_SECONDS=1.0 cargo run --release -p \
        txsql-bench --bin bench_workloads -- --record paper` (add `--fig N` to record a figure's \
        cells beside it). Cells are the paper's protocol x workload x threads x replication grid; \
        every value is the repeat with the median goodput of `provenance.repeats` fresh-database \
        repeats, `goodput_iqr` the inter-quartile range of their goodput; goodput is committed \
        (and, open-loop, within-deadline) transactions per second. Blocks of one file share \
        commit, nproc, seed, windows and repeats (`--check` refuses the file otherwise): \
        re-record, do not append.";
    let note = "Shared VM; `provenance.nproc` is the CPU count. Cells above nproc threads are \
        oversubscribed and scheduler-bound: read the order of protocols within a row and the \
        per-cell blocked_share / group_size_mean / commit_batch_mean, not absolute TPS.";
    obj(vec![
        ("description", Json::Str(description.to_string())),
        (
            "environment",
            obj(vec![("note", Json::Str(note.to_string()))]),
        ),
    ])
}

/// Inserts (or replaces) `key` in the record file at `path`, creating the
/// file with its description/environment preamble when absent.
pub fn merge_block(path: &Path, key: &str, block: &Json) -> std::io::Result<()> {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => file_skeleton(),
        Err(err) => return Err(err),
    };
    let Json::Obj(pairs) = &mut root else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "record file root is not an object",
        ));
    };
    if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
        slot.1 = block.clone();
    } else {
        pairs.push((key.to_string(), block.clone()));
    }
    std::fs::write(path, render_json(&root) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::cell::CellSpec;
    use txsql_core::Protocol;
    use txsql_workloads::{SecondSample, SysbenchVariant, WorkloadSpec};

    fn fake_outcome() -> CellOutcome {
        CellOutcome {
            spec: CellSpec::new(
                Protocol::GroupLockingTxsql,
                WorkloadSpec::Sysbench {
                    variant: SysbenchVariant::HotspotUpdate,
                    table_size: 100,
                },
            ),
            goodput_tps: 1234.5,
            goodput_iqr: 21.5,
            abort_rate_pct: 2.5,
            p50_ms: 0.5,
            p95_ms: 1.5,
            p99_ms: 3.0,
            committed: 500,
            failed: 13,
            snapshot: None,
            seconds: None,
            tpcc_consistent: None,
            extras: Vec::new(),
        }
    }

    fn fake_provenance() -> Provenance {
        Provenance {
            grid: "test".to_string(),
            commit: "abc1234".to_string(),
            nproc: 2,
            seed: 42,
            warmup_secs: 0.1,
            measure_secs: 0.4,
            repeats: REPEATS as u64,
        }
    }

    #[test]
    fn block_passes_its_own_schema() {
        let mut open = fake_outcome();
        open.seconds = Some(vec![SecondSample {
            second: 0,
            target_tps: 50,
            committed: 48,
            failed: 2,
            p95_latency_ms: 1.0,
            utilization: 0.9,
            admission_shed: 3,
            admission_queued: 7,
            retry_budget_exhausted: 1,
        }]);
        open.extras = vec![
            ("admission_shed", Json::U64(3)),
            ("post_burst_goodput_tps", Json::F64(47.0)),
        ];
        let block = block_json(&[fake_outcome(), open], &fake_provenance());
        assert_eq!(validate_block(&block), Ok(2));
        let text = render_json(&block);
        assert!(text.contains("\"admission_shed\": 3"));
        assert!(text.contains("\"post_burst_goodput_tps\""));
        let reparsed = serde_json::parse(&text).expect("rendered block parses");
        assert_eq!(validate_block(&reparsed), Ok(2));
    }

    #[test]
    fn replication_cells_record_the_degrade_trajectory() {
        let mut outcome = fake_outcome();
        outcome.spec = outcome
            .spec
            .replication(txsql_replication::ReplicationMode::Synchronous);
        outcome.extras = vec![
            ("degraded_commits", Json::U64(7)),
            ("semi_sync_resyncs", Json::U64(1)),
            ("resynced", Json::Bool(true)),
        ];
        let block = block_json(&[outcome], &fake_provenance());
        assert_eq!(validate_block(&block), Ok(1));
        let text = render_json(&block);
        assert!(text.contains("\"degraded_commits\": 7"));
        assert!(text.contains("\"semi_sync_resyncs\": 1"));
        assert!(text.contains("\"resynced\": true"));
    }

    #[test]
    fn validation_rejects_malformed_blocks() {
        assert!(validate_block(&Json::Null).is_err());
        // The pre-provenance per-PR shape (`pr7` / `pr8` / `pr10`).
        let old_shape = Json::Obj(vec![(
            "provenance".to_string(),
            Json::Obj(vec![
                ("grid".to_string(), Json::Str("x".into())),
                ("seed".to_string(), Json::U64(1)),
                ("measure_secs".to_string(), Json::F64(0.1)),
                ("threads".to_string(), Json::Arr(vec![])),
                ("note".to_string(), Json::Str("".into())),
            ]),
        )]);
        assert!(validate_block(&old_shape).unwrap_err().contains("commit"));
        let no_cells = block_json(&[], &fake_provenance());
        assert!(validate_block(&no_cells).unwrap_err().contains("cells"));

        let mut block = block_json(&[fake_outcome()], &fake_provenance());
        if let Json::Obj(pairs) = &mut block {
            if let Some(Json::Arr(cells)) =
                pairs.iter_mut().find(|(k, _)| k == "cells").map(|(_, v)| v)
            {
                if let Some(Json::Obj(cell)) = cells.first_mut() {
                    cell.retain(|(k, _)| k != "goodput_tps");
                }
            }
        }
        assert!(validate_block(&block).unwrap_err().contains("goodput_tps"));
    }

    #[test]
    fn merge_creates_then_appends_and_file_validates() {
        let path = std::env::temp_dir().join(format!(
            "txsql_bench_workloads_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let block = block_json(&[fake_outcome()], &fake_provenance());
        merge_block(&path, "pr7", &block).expect("create");
        merge_block(&path, "pr8", &block).expect("append");
        // Re-merging an existing key replaces instead of duplicating.
        merge_block(&path, "pr7", &block).expect("replace");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(validate_file(&text), Ok(2), "two blocks, one cell each");
        assert_eq!(text.matches("\"pr7\"").count(), 1);
        assert!(text.contains("\"description\""));
        assert!(text.contains("\"environment\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cells_that_mislead_carry_a_note_next_to_the_number() {
        let in_memory = fake_outcome();
        assert_eq!(note(&in_memory, std::slice::from_ref(&in_memory)), None);

        let mut aria = fake_outcome();
        aria.abort_rate_pct = 93.0;
        aria.snapshot = Some(txsql_common::metrics::MetricsSnapshot {
            abort_causes: vec![
                ("deadlock".into(), 2),
                ("aria_validation_failed".into(), 11),
            ],
            ..Default::default()
        });
        let text = note(&aria, &[]).expect("a cell that aborts > 90 % says why");
        assert!(
            text.contains("11 of 13 as `aria_validation_failed`"),
            "{text}"
        );

        let mut bimodal = fake_outcome();
        bimodal.goodput_iqr = 2.0 * bimodal.goodput_tps;
        assert!(note(&bimodal, &[]).unwrap().contains("two modes"));

        let mut sync = fake_outcome();
        sync.spec = sync
            .spec
            .replication(txsql_replication::ReplicationMode::Synchronous);
        let block = [in_memory, sync.clone()];
        assert_eq!(
            note(&sync, &block),
            None,
            "as fast as in memory is not faster"
        );
        sync.goodput_tps *= 2.0;
        let text = note(&sync, &block).expect("a slower commit path that raises tps says why");
        assert!(text.contains("sysbench-hotspot-update/txsql/t8`"), "{text}");
        let Json::Obj(cell) = cell_json(&sync, &block) else {
            panic!("a cell is an object")
        };
        assert_eq!(obj_get(&cell, "note"), Some(&Json::Str(text)));
    }

    /// A two-block file whose second block's provenance went through `edit`.
    fn file_with_second_block(edit: impl Fn(&mut Vec<(String, Json)>)) -> String {
        let block = block_json(&[fake_outcome()], &fake_provenance());
        let mut second = block.clone();
        if let Json::Obj(pairs) = &mut second {
            if let Some((_, Json::Obj(prov))) = pairs.iter_mut().find(|(k, _)| k == "provenance") {
                edit(prov);
            }
        }
        render_json(&Json::Obj(vec![
            ("description".to_string(), Json::Str(String::new())),
            ("paper".to_string(), block),
            ("fig6".to_string(), second),
        ]))
    }

    #[test]
    fn check_refuses_blocks_that_do_not_compare() {
        assert_eq!(validate_file(&file_with_second_block(|_| {})), Ok(2));
        let set = |key: &'static str, value: Json| {
            move |prov: &mut Vec<(String, Json)>| {
                prov.iter_mut().find(|(k, _)| k == key).expect(key).1 = value.clone();
            }
        };
        for (key, value) in [
            ("commit", Json::Str("def5678".into())),
            ("nproc", Json::U64(64)),
            ("seed", Json::U64(7)),
            ("measure_secs", Json::F64(1.0)),
            ("repeats", Json::U64(1)),
        ] {
            let err = validate_file(&file_with_second_block(set(key, value))).unwrap_err();
            assert!(err.contains(key) && err.contains("fig6"), "{key}: {err}");
        }
        // Which selection a block holds is what tells blocks apart.
        let other_grid = file_with_second_block(set("grid", Json::Str("fig6".into())));
        assert_eq!(validate_file(&other_grid), Ok(2));
        let no_repeats = file_with_second_block(|prov| prov.retain(|(k, _)| k != "repeats"));
        let err = validate_file(&no_repeats).unwrap_err();
        assert!(err.contains("provenance missing `repeats`"), "{err}");
    }

    #[test]
    fn the_recorded_file_passes_check_and_holds_the_ablation_ladder() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workloads.json");
        let text = std::fs::read_to_string(path).expect("BENCH_workloads.json is in the repo");
        validate_file(&text).expect("recorded file passes --check");
        let Json::Obj(root) = serde_json::parse(&text).unwrap() else {
            panic!("root is an object")
        };
        let blocks: Vec<&String> = root
            .iter()
            .map(|(key, _)| key)
            .filter(|key| *key != "description" && *key != "environment")
            .collect();
        assert_eq!(blocks, ["paper"], "one block, re-recorded, not appended to");
        for workload in ["sysbench-hotspot-update", "fit"] {
            for protocol in Protocol::ABLATION {
                for suffix in ["", "/repl-sync"] {
                    let id = format!(
                        "\"{workload}/{}/t64{suffix}\"",
                        protocol.label().to_lowercase()
                    );
                    assert!(text.contains(&id), "recorded block lacks {id}");
                }
            }
        }
    }
}
