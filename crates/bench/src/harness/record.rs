//! Rendering cell outcomes to the `BENCH_workloads.json` trajectory record.
//!
//! The file follows an honest-trajectory protocol: a top-level
//! `description` and `environment`, then one block per PR keyed `prN...`,
//! each holding its provenance (grid, seed, window lengths, thread counts)
//! and an array of measured cells.
//! Blocks are appended, never rewritten, so the file reads as a history.

use super::cell::CellOutcome;
use serde::{Json, Serialize};
use std::path::Path;

/// Everything needed to reproduce a recorded block.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Grid name (`paper`, `smoke`).
    pub grid: String,
    /// Base RNG seed passed to every cell.
    pub seed: u64,
    /// Warm-up seconds per closed-loop cell.
    pub warmup_secs: f64,
    /// Measurement seconds per closed-loop cell.
    pub measure_secs: f64,
    /// Free-form note (machine class, caveats).
    pub note: String,
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

fn f64_key(key: &str, value: f64) -> (String, Json) {
    (key.to_string(), Json::F64(value))
}

/// Renders one cell outcome.
pub fn cell_json(outcome: &CellOutcome) -> Json {
    let spec = &outcome.spec;
    let mut pairs = vec![
        ("id".to_string(), Json::Str(outcome.id())),
        (
            "protocol".to_string(),
            Json::Str(spec.protocol.label().to_string()),
        ),
        ("workload".to_string(), Json::Str(spec.workload.label())),
        ("threads".to_string(), Json::U64(spec.threads as u64)),
        (
            "replication".to_string(),
            Json::Str(match spec.replication {
                Some(txsql_replication::ReplicationMode::Synchronous) => "sync".to_string(),
                Some(txsql_replication::ReplicationMode::Asynchronous) => "async".to_string(),
                None => "off".to_string(),
            }),
        ),
        f64_key("goodput_tps", outcome.goodput_tps),
        f64_key("abort_rate_pct", outcome.abort_rate_pct),
        f64_key("p50_ms", outcome.p50_ms),
        f64_key("p95_ms", outcome.p95_ms),
        f64_key("p99_ms", outcome.p99_ms),
        ("committed".to_string(), Json::U64(outcome.committed)),
        ("failed".to_string(), Json::U64(outcome.failed)),
    ];
    if !spec.deltas.is_empty() {
        pairs.push((
            "deltas".to_string(),
            Json::Arr(spec.deltas.iter().map(|d| Json::Str(d.label())).collect()),
        ));
    }
    if let Some(snapshot) = &outcome.snapshot {
        pairs.push((
            "admission_retries".to_string(),
            Json::U64(snapshot.admission_retries),
        ));
        pairs.push((
            "abort_breakdown".to_string(),
            snapshot.abort_breakdown.to_json(),
        ));
    }
    if let Some(consistent) = outcome.tpcc_consistent {
        pairs.push(("tpcc_consistent".to_string(), Json::Bool(consistent)));
    }
    if let Some(admission) = &outcome.admission {
        pairs.push(("admission_shed".to_string(), Json::U64(admission.shed)));
        pairs.push(("admission_queued".to_string(), Json::U64(admission.queued)));
        pairs.push((
            "retry_budget_exhausted".to_string(),
            Json::U64(admission.budget_exhausted),
        ));
        pairs.push(f64_key(
            "pre_burst_goodput_tps",
            admission.pre_burst_goodput_tps,
        ));
        pairs.push(f64_key(
            "post_burst_goodput_tps",
            admission.post_burst_goodput_tps,
        ));
    }
    if let Some(repl) = &outcome.replication {
        pairs.push((
            "degraded_commits".to_string(),
            Json::U64(repl.degraded_commits),
        ));
        pairs.push((
            "semi_sync_timeouts".to_string(),
            Json::U64(repl.semi_sync_timeouts),
        ));
        pairs.push((
            "semi_sync_resyncs".to_string(),
            Json::U64(repl.semi_sync_resyncs),
        ));
        pairs.push((
            "ship_queue_full".to_string(),
            Json::U64(repl.ship_queue_full),
        ));
        pairs.push(("ship_retries".to_string(), Json::U64(repl.ship_retries)));
        pairs.push(("replicas_caught_up".to_string(), Json::Bool(repl.caught_up)));
        pairs.push(("resynced".to_string(), Json::Bool(repl.resynced)));
    }
    if let Some(seconds) = &outcome.seconds {
        pairs.push((
            "seconds".to_string(),
            Json::Arr(
                seconds
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("second".to_string(), Json::U64(s.second)),
                            ("target_tps".to_string(), Json::U64(s.target_tps)),
                            ("committed".to_string(), Json::U64(s.committed)),
                            ("failed".to_string(), Json::U64(s.failed)),
                            f64_key("p95_ms", s.p95_latency_ms),
                            f64_key("utilization", s.utilization),
                            ("admission_shed".to_string(), Json::U64(s.admission_shed)),
                            (
                                "admission_queued".to_string(),
                                Json::U64(s.admission_queued),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(pairs)
}

/// Renders a whole block: provenance plus one entry per cell.
pub fn block_json(outcomes: &[CellOutcome], provenance: &Provenance) -> Json {
    let mut threads: Vec<u64> = outcomes.iter().map(|o| o.spec.threads as u64).collect();
    threads.sort_unstable();
    threads.dedup();
    Json::Obj(vec![
        (
            "provenance".to_string(),
            Json::Obj(vec![
                ("grid".to_string(), Json::Str(provenance.grid.clone())),
                ("seed".to_string(), Json::U64(provenance.seed)),
                f64_key("warmup_secs", provenance.warmup_secs),
                f64_key("measure_secs", provenance.measure_secs),
                (
                    "threads".to_string(),
                    Json::Arr(threads.into_iter().map(Json::U64).collect()),
                ),
                ("note".to_string(), Json::Str(provenance.note.clone())),
            ]),
        ),
        (
            "cells".to_string(),
            Json::Arr(outcomes.iter().map(cell_json).collect()),
        ),
    ])
}

/// Keys every recorded cell must carry, with the numeric ones checked for
/// being numbers.
const REQUIRED_CELL_KEYS: &[&str] = &[
    "id",
    "protocol",
    "workload",
    "threads",
    "replication",
    "goodput_tps",
    "abort_rate_pct",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "committed",
    "failed",
];

fn obj_get<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn is_number(value: &Json) -> bool {
    matches!(value, Json::U64(_) | Json::I64(_) | Json::F64(_))
}

/// Validates one block's shape, returning its cell count.
pub fn validate_block(block: &Json) -> Result<usize, String> {
    let Json::Obj(pairs) = block else {
        return Err("block is not an object".to_string());
    };
    let Some(Json::Obj(prov)) = obj_get(pairs, "provenance") else {
        return Err("missing `provenance` object".to_string());
    };
    for key in ["grid", "seed", "measure_secs", "threads", "note"] {
        if obj_get(prov, key).is_none() {
            return Err(format!("provenance missing `{key}`"));
        }
    }
    let Some(Json::Arr(cells)) = obj_get(pairs, "cells") else {
        return Err("missing `cells` array".to_string());
    };
    if cells.is_empty() {
        return Err("`cells` is empty".to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        let Json::Obj(cell_pairs) = cell else {
            return Err(format!("cell {i} is not an object"));
        };
        for key in REQUIRED_CELL_KEYS {
            let Some(value) = obj_get(cell_pairs, key) else {
                return Err(format!("cell {i} missing `{key}`"));
            };
            let numeric = matches!(
                *key,
                "threads"
                    | "goodput_tps"
                    | "abort_rate_pct"
                    | "p50_ms"
                    | "p95_ms"
                    | "p99_ms"
                    | "committed"
                    | "failed"
            );
            if numeric && !is_number(value) {
                return Err(format!("cell {i} `{key}` is not a number"));
            }
        }
    }
    Ok(cells.len())
}

/// Validates every PR block in a `BENCH_workloads.json` file, returning the
/// total cell count across blocks.
pub fn validate_file(text: &str) -> Result<usize, String> {
    let root = serde_json::parse(text).map_err(|e| e.to_string())?;
    let Json::Obj(pairs) = root else {
        return Err("file root is not an object".to_string());
    };
    let mut total = 0;
    let mut blocks = 0;
    for (key, value) in &pairs {
        if key == "description" || key == "environment" {
            continue;
        }
        total += validate_block(value).map_err(|e| format!("block `{key}`: {e}"))?;
        blocks += 1;
    }
    if blocks == 0 {
        return Err("no PR blocks present".to_string());
    }
    Ok(total)
}

fn file_skeleton() -> Json {
    Json::Obj(vec![
        (
            "description".to_string(),
            Json::Str(
                "Workload-grid benchmark record, one block per PR. Produced by \
                 crates/bench/src/bin/bench_workloads.rs: `TXSQL_BENCH_SECONDS=1.0 cargo run \
                 --release -p txsql-bench --bin bench_workloads -- --record prN`. Cells are the \
                 paper's protocol x workload x threads x replication grid; goodput is \
                 committed (and, open-loop, within-deadline) transactions per second."
                    .to_string(),
            ),
        ),
        (
            "environment".to_string(),
            Json::Obj(vec![
                ("cpus".to_string(), Json::U64(1)),
                (
                    "note".to_string(),
                    Json::Str(
                        "Single-core container. Absolute numbers are laptop-scale and \
                         multi-threaded cells are scheduler-bound; cross-protocol shape per \
                         block is the signal, not absolute TPS."
                            .to_string(),
                    ),
                ),
            ]),
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
            abort_rate_pct: 2.5,
            p50_ms: 0.5,
            p95_ms: 1.5,
            p99_ms: 3.0,
            committed: 500,
            failed: 13,
            snapshot: None,
            seconds: None,
            admission: None,
            tpcc_consistent: None,
            replication: None,
        }
    }

    fn fake_provenance() -> Provenance {
        Provenance {
            grid: "test".to_string(),
            seed: 42,
            warmup_secs: 0.1,
            measure_secs: 0.4,
            note: "unit test".to_string(),
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
        open.admission = Some(crate::harness::cell::AdmissionSummary {
            shed: 3,
            queued: 7,
            budget_exhausted: 1,
            pre_burst_goodput_tps: 48.0,
            post_burst_goodput_tps: 47.0,
        });
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
        outcome.replication = Some(crate::harness::cell::ReplicationStats {
            degraded_commits: 7,
            semi_sync_timeouts: 1,
            semi_sync_resyncs: 1,
            ship_queue_full: 0,
            ship_retries: 0,
            caught_up: true,
            resynced: true,
        });
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
        let no_cells = Json::Obj(vec![(
            "provenance".to_string(),
            Json::Obj(vec![
                ("grid".to_string(), Json::Str("x".into())),
                ("seed".to_string(), Json::U64(1)),
                ("measure_secs".to_string(), Json::F64(0.1)),
                ("threads".to_string(), Json::Arr(vec![])),
                ("note".to_string(), Json::Str("".into())),
            ]),
        )]);
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
}
