//! Rendering cell outcomes to a record file such as `BENCH_workloads.json`,
//! and `--check`.
//!
//! A record file is one block: a `description`, an `environment` note, the
//! provenance — the selection it ran and everything its numbers depend on:
//! commit, CPU count, seed, window lengths, repeat count — and an array of
//! measured cells, each a median with its spread.  A new run re-records the
//! whole file (git keeps what it replaced).  The scoreboard is not stored:
//! `--check` derives it from the cells and the selection's declared claims.

use super::cell::{CellOutcome, REPEATS};
use super::figures::Scoreboard;
use super::grid::selection;
use crate::{measure_duration, warmup_duration};
use serde::{Json, Serialize};
use txsql_replication::ReplicationMode;

/// Everything needed to reproduce a recorded block.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Selection name (`figall`, `fig6`, `smoke`).
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
    /// The keys a recorded provenance carries.
    const KEYS: &'static str = "grid commit nproc seed warmup_secs measure_secs repeats threads";

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
/// by [`check`].
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

/// Why a cell mostly aborts: such a cell is a question about the comparison
/// first and a result second, so the record answers it next to the number.
fn note(outcome: &CellOutcome) -> Option<String> {
    if outcome.abort_rate_pct <= 90.0 && outcome.committed > 0 {
        return None;
    }
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
    Some(format!(
        "aborts {:.1} % of attempts, {count} of {} as `{cause}`: {why}",
        outcome.abort_rate_pct, outcome.failed
    ))
}

/// Renders one cell outcome: the `CELL_FIELDS`, then what only some cells
/// have.
pub fn cell_json(outcome: &CellOutcome) -> Json {
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
        // `lockmgr.group.size_mean`, `core.commit.batch_size_mean`), and the
        // two per-cell rates Figures 6d and 10 claim about.
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
            ("locks_per_query", Json::F64(snapshot.locks_per_query)),
            (
                "cascade_abort_ratio",
                Json::F64(snapshot.cascade_abort_ratio),
            ),
            ("admission_retries", Json::U64(snapshot.admission_retries)),
            ("abort_breakdown", snapshot.abort_breakdown.to_json()),
        ]);
    }
    if let Some(consistent) = outcome.tpcc_consistent {
        pairs.push(("tpcc_consistent", Json::Bool(consistent)));
    }
    pairs.extend(outcome.extras.iter().cloned());
    if let Some(note) = note(outcome) {
        pairs.push(("note", Json::Str(note)));
    }
    obj(pairs)
}

/// Renders a whole record file: what it is, provenance, one entry per cell.
pub fn block_json(outcomes: &[CellOutcome], provenance: &Provenance) -> Json {
    let description = "Workload-grid benchmark record. Produced by \
        crates/bench/src/bin/bench_workloads.rs: `TXSQL_BENCH_SECONDS=1.0 cargo run --release -p \
        txsql-bench --bin bench_workloads -- --record BENCH_workloads.json` (every figure). \
        Every value is the repeat with the median goodput of `provenance.repeats` fresh-database \
        repeats, `goodput_iqr` the inter-quartile range of their goodput; goodput is committed \
        (and, open-loop, within-deadline) transactions per second. `bench_workloads --check` \
        matches the cells against the selection `provenance.grid` names and prints how many of \
        its declared claims hold. Re-record, do not edit.";
    let note = "Shared VM; `provenance.nproc` is the CPU count. Cells above nproc threads are \
        oversubscribed and scheduler-bound: read the order of protocols within a row and the \
        per-cell blocked_share / group_size_mean / commit_batch_mean, not absolute TPS.";
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
    obj(vec![
        ("description", Json::Str(description.to_string())),
        (
            "environment",
            obj(vec![("note", Json::Str(note.to_string()))]),
        ),
        ("provenance", provenance),
        ("cells", Json::Arr(outcomes.iter().map(cell_json).collect())),
    ])
}

/// A block's cells, once its whole shape is checked.
fn checked_block(block: &Json) -> Result<&[Json], String> {
    let Ok(Json::Obj(provenance)) = block.field("provenance") else {
        return Err("missing `provenance` object".to_string());
    };
    for key in Provenance::KEYS.split(' ') {
        if !provenance.iter().any(|(k, _)| k == key) {
            return Err(format!("provenance missing `{key}`"));
        }
    }
    let cells = match block.field("cells") {
        Ok(Json::Arr(cells)) if !cells.is_empty() => cells,
        Ok(Json::Arr(_)) => return Err("`cells` is empty".to_string()),
        _ => return Err("missing `cells` array".to_string()),
    };
    for (i, cell) in cells.iter().enumerate() {
        for (key, field) in &CELL_FIELDS {
            let Ok(value) = cell.field(key) else {
                return Err(format!("cell {i} missing `{key}`"));
            };
            let number = matches!(value, Json::U64(_) | Json::I64(_) | Json::F64(_));
            if !matches!(field, Field::Label(_)) && !number {
                return Err(format!("cell {i} `{key}` is not a number"));
            }
        }
    }
    Ok(cells)
}

/// `--check`: the block's shape, then its cells against the selection its
/// `provenance.grid` names, then that selection's claims.  An error is a
/// block that does not compare; a claim that fails is a line of the
/// scoreboard.
pub fn check(block: &Json) -> Result<Scoreboard, String> {
    let cells = checked_block(block)?;
    let name = block.field("provenance").and_then(|p| p.field("grid"));
    let name = name.ok().and_then(Json::as_str).unwrap_or_default();
    let grid = selection(name).ok_or_else(|| format!("no figure declares selection `{name}`"))?;
    grid.score(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::cell::CellSpec;
    use crate::harness::figures::figure;
    use txsql_core::Protocol;
    use txsql_workloads::{SysbenchVariant, WorkloadSpec};

    fn validate(block: &Json) -> Result<usize, String> {
        checked_block(block).map(<[Json]>::len)
    }

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
        open.extras = vec![
            ("admission_shed", Json::U64(3)),
            ("post_burst_goodput_tps", Json::F64(47.0)),
        ];
        let block = block_json(&[fake_outcome(), open], &fake_provenance());
        assert_eq!(validate(&block), Ok(2));
        let text = render_json(&block);
        assert!(text.contains("\"admission_shed\": 3"));
        assert!(text.contains("\"post_burst_goodput_tps\""));
        assert!(text.contains("\"description\"") && text.contains("\"environment\""));
        let reparsed = serde_json::parse(&text).expect("rendered block parses");
        assert_eq!(validate(&reparsed), Ok(2));
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
        assert_eq!(validate(&block), Ok(1));
        let text = render_json(&block);
        assert!(text.contains("\"degraded_commits\": 7"));
        assert!(text.contains("\"semi_sync_resyncs\": 1"));
        assert!(text.contains("\"resynced\": true"));
    }

    #[test]
    fn validation_rejects_malformed_blocks() {
        assert!(validate(&Json::Null).is_err());
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
        assert!(validate(&old_shape).unwrap_err().contains("commit"));
        let no_cells = block_json(&[], &fake_provenance());
        assert!(validate(&no_cells).unwrap_err().contains("cells"));

        let mut block = block_json(&[fake_outcome()], &fake_provenance());
        edit_cells(&mut block, |cells| {
            if let Some(Json::Obj(cell)) = cells.first_mut() {
                cell.retain(|(k, _)| k != "goodput_tps");
            }
        });
        assert!(validate(&block).unwrap_err().contains("goodput_tps"));
    }

    fn edit_cells(block: &mut Json, edit: impl FnOnce(&mut Vec<Json>)) {
        if let Json::Obj(pairs) = block {
            if let Some((_, Json::Arr(cells))) = pairs.iter_mut().find(|(k, _)| k == "cells") {
                edit(cells);
            }
        }
    }

    #[test]
    fn a_cell_that_mostly_aborts_says_why_next_to_the_number() {
        assert_eq!(note(&fake_outcome()), None);
        let mut aria = fake_outcome();
        aria.abort_rate_pct = 93.0;
        aria.snapshot = Some(txsql_common::metrics::MetricsSnapshot {
            abort_causes: vec![
                ("deadlock".into(), 2),
                ("aria_validation_failed".into(), 11),
            ],
            ..Default::default()
        });
        let text = note(&aria).expect("a cell that aborts > 90 % says why");
        assert!(
            text.contains("11 of 13 as `aria_validation_failed`"),
            "{text}"
        );
        let Json::Obj(cell) = cell_json(&aria) else {
            panic!("a cell is an object")
        };
        assert!(cell.contains(&("note".to_string(), Json::Str(text))));
    }

    /// Figure 11's two cells, recorded under `grid`.
    fn figure_11_block(grid: &str) -> Json {
        let outcome = |spec: CellSpec| CellOutcome {
            spec,
            ..fake_outcome()
        };
        let outcomes: Vec<CellOutcome> = figure("11")
            .unwrap()
            .cells()
            .into_iter()
            .map(outcome)
            .collect();
        let provenance = Provenance {
            grid: grid.to_string(),
            ..fake_provenance()
        };
        block_json(&outcomes, &provenance)
    }

    #[test]
    fn check_refuses_a_block_that_is_not_its_selection() {
        let board = check(&figure_11_block("fig11")).expect("the declared cells");
        assert_eq!(board.0.len(), 1);
        let mut undeclared = figure_11_block("fig11");
        edit_cells(&mut undeclared, |cells| {
            cells.push(cell_json(&fake_outcome()))
        });
        let err = check(&undeclared).unwrap_err();
        assert!(
            err.contains("recorded but not declared [\"sysbench-hotspot-update/txsql/t8\"]"),
            "{err}"
        );
        let mut missing = figure_11_block("fig11");
        edit_cells(&mut missing, |cells| drop(cells.pop()));
        let err = check(&missing).unwrap_err();
        assert!(
            err.contains("declared but not recorded [\"hotspot-burst"),
            "{err}"
        );
        let err = check(&figure_11_block("paper")).unwrap_err();
        assert_eq!(err, "no figure declares selection `paper`");
    }

    #[test]
    fn the_committed_file_passes_check() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workloads.json");
        let text = std::fs::read_to_string(path).expect("BENCH_workloads.json is in the repo");
        let block = serde_json::parse(&text).expect("the record parses");
        let board = check(&block).expect("the committed file passes --check");
        assert!(
            !board.0.is_empty(),
            "the record is a figure selection, with claims"
        );
    }
}
