//! The two recorded selections: the paper grid and the CI smoke grid.
//!
//! Both are panels like any figure's ([`super::figures`]); what sets them
//! apart is that `bench_workloads` records them.

use super::cell::CellSpec;
use super::figures::{
    axis, fields, Axis, GridSpec, Panel, ABORTS, P50, P95, P99, TPCC, TPS, TPS_IQR,
};
use crate::short_thread_ladder;
use std::time::Duration;
use txsql_core::{ConfigDelta, Protocol};
use txsql_replication::{ReplFaultPlan, ReplicationMode};
use txsql_workloads::{SysbenchVariant, WorkloadSpec};

/// Rows of the smoke grid's tables, and of any figure run with `--smoke`.
pub const SMOKE_ROWS: u64 = 10_000;

/// The injected follower-tier pause used by the `rplfault-stall` cells: both
/// replicas stop answering at their first delivery for 100 ms, long past the
/// default 10 ms ack timeout, so the semi-sync hook must degrade, keep
/// committing, and re-sync once the stall expires — all inside the cell's
/// measurement window.
fn stall_plan() -> ReplFaultPlan {
    ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(100))
}

/// The cells that measure operations rather than a paper figure, at the
/// grid's size: FiT under semi-sync with a follower-tier stall mid-run (the
/// hook must degrade and re-sync, goodput recovering rather than the primary
/// wedging), and the same sharp hot-row burst without and with the front-door
/// hot-key queues.  The win to look for in the pair is burst p99 and
/// post-burst goodput, with non-zero `admission_shed` proving the queues
/// fired; the burst trace declares its hot row up front
/// (`HotspotsTrace::burst` promotes it in setup), so the pair differs only in
/// the front door — organic promotion timing on a small box is not part of
/// the experiment.
fn operations_cells(
    fit: WorkloadSpec,
    burst: WorkloadSpec,
    threads: usize,
    workers: usize,
    depth: usize,
) -> Vec<CellSpec> {
    let burst = CellSpec::new(Protocol::GroupLockingTxsql, burst).threads(workers);
    vec![
        CellSpec::new(Protocol::GroupLockingTxsql, fit)
            .threads(threads)
            .replication(ReplicationMode::Synchronous)
            .replication_fault(stall_plan()),
        burst.clone(),
        burst
            .delta(ConfigDelta::Admission(true))
            .delta(ConfigDelta::AdmissionDepth(depth)),
    ]
}

/// One row per cell, with the fields a pivot leaves out.
fn every_cell(grid: &str, cells: Vec<CellSpec>) -> Panel {
    let title = format!("workload grid `{grid}`: every cell");
    let rows: Axis<CellSpec> = cells.into_iter().map(|cell| (cell.id(), cell)).collect();
    let columns = fields(&[TPS, TPS_IQR, ABORTS, P50, P95, P99, TPCC]);
    Panel::new(title, "cell", &rows, &columns, |cell, &show| {
        (cell.clone(), show)
    })
}

/// The recorded grid.  The paper's claim first — the ablation ladder MySQL /
/// O1 / O2 / TXSQL on the two hot-row workloads (Fig. 6a / 6e), in memory and
/// under semi-sync replication (Fig. 9's commit latency), at the short ladder
/// plus 64 threads — then the four compared systems on every workload family
/// (Fig. 8 / 9 / 12 / 11 at one thread count each), then the operations cells
/// and TPC-C with per-warehouse Payment admission caps (the warehouse YTD
/// row is each warehouse's hot key; compare its abort breakdown with the
/// plain `tpcc-w2` cells).
pub fn paper_grid(seed: u64) -> GridSpec {
    let hot_update = WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate);
    let fit = WorkloadSpec::fit_standard();
    let tpcc = WorkloadSpec::tpcc(2);
    let (base_tps, sync) = (300, Some(ReplicationMode::Synchronous));
    let hotspots = WorkloadSpec::Hotspots {
        base_tps,
        phase_seconds: 1,
    };
    let burst = WorkloadSpec::HotspotBurst {
        base_tps,
        phase_seconds: 2,
    };

    let mut ladder = short_thread_ladder();
    ladder.push(64);
    ladder.sort_unstable();
    ladder.dedup();
    let ablation = |(workload, replication)| {
        let cell = |p| CellSpec::new(p, workload).replication(replication);
        Panel::by_threads("Ablation", &ladder, &Protocol::ABLATION, TPS, cell)
    };
    let hot_rows = [
        (hot_update, None),
        (hot_update, sync),
        (fit, None),
        (fit, sync),
    ];
    let mut panels: Vec<Panel> = hot_rows.map(ablation).into();

    let families = [
        (hot_update, 8, None),
        (hot_update, 64, None),
        (fit, 64, None),
        (fit, 64, sync),
        (tpcc, 64, None),
        (hotspots, 16, None),
    ];
    let family = |&(workload, threads, replication): &(WorkloadSpec, usize, _), &p: &Protocol| {
        (
            CellSpec::new(p, workload)
                .threads(threads)
                .replication(replication),
            TPS,
        )
    };
    let families = axis(&families, |row| {
        let cell = family(row, &Protocol::Mysql2pl).0;
        format!(
            "{}/t{}{}",
            cell.workload.label(),
            cell.threads,
            cell.settings()
        )
    });
    let systems = axis(&Protocol::SYSTEMS, |p| p.label().to_string());
    let title = "Compared systems on every workload family (TPS)";
    panels.push(Panel::new(
        title,
        "workload/threads",
        &families,
        &systems,
        family,
    ));

    let mut grid = GridSpec {
        name: "paper".to_string(),
        panels,
    };
    let mut cells = grid.cells();
    cells.extend(operations_cells(fit, burst, 64, 16, 4));
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, tpcc)
            .threads(64)
            .delta(ConfigDelta::Admission(true)),
    );
    grid.panels.push(every_cell("paper", cells));
    grid.map_cells(|cell| cell.seed(seed))
}

/// The CI grid: two protocols, small tables, one replication cell, one short
/// open-loop trace and the operations cells — fast enough for every push.
/// Queue depth 2 under 8 bursty workers guarantees the admission cell
/// actually sheds (CI greps `admission_shed=` non-zero).
pub fn smoke_grid(seed: u64) -> GridSpec {
    let hot_update = WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate);
    let fit = WorkloadSpec::fit_standard();
    let (base_tps, phase_seconds) = (50, 1);
    let burst = WorkloadSpec::HotspotBurst {
        base_tps,
        phase_seconds,
    };
    let hotspots = WorkloadSpec::Hotspots {
        base_tps,
        phase_seconds,
    };
    let txsql = Protocol::GroupLockingTxsql;

    let mut cells = Vec::new();
    for protocol in [Protocol::Mysql2pl, txsql] {
        cells.push(CellSpec::new(protocol, hot_update));
        cells.push(CellSpec::new(protocol, WorkloadSpec::tpcc(2)));
    }
    cells.push(CellSpec::new(txsql, fit).replication(ReplicationMode::Synchronous));
    cells.push(CellSpec::new(txsql, hotspots).threads(4));
    cells.extend(operations_cells(fit, burst, 8, 8, 2));

    GridSpec {
        name: "smoke".to_string(),
        panels: vec![every_cell("smoke", cells)],
    }
    .map_cells(|cell| cell.seed(seed).rows(SMOKE_ROWS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::figures::{figure, FIGURES};
    use std::collections::BTreeSet;

    fn family(cell: &CellSpec) -> &'static str {
        match cell.workload {
            WorkloadSpec::Sysbench { .. } | WorkloadSpec::SysbenchAbortInject { .. } => "sysbench",
            WorkloadSpec::Fit { .. } => "fit",
            WorkloadSpec::Tpcc { .. } => "tpcc",
            WorkloadSpec::Hotspots { .. } => "hotspots",
            WorkloadSpec::HotspotBurst { .. } => "hotspot-burst",
        }
    }

    #[test]
    fn paper_grid_covers_the_acceptance_matrix() {
        let grid = paper_grid(42);
        let cells = grid.cells();
        let protocols: BTreeSet<String> = cells
            .iter()
            .map(|c| c.protocol.label().to_string())
            .collect();
        assert!(protocols.len() >= 4, "need >= 4 protocols: {protocols:?}");
        let families: BTreeSet<&str> = cells.iter().map(family).collect();
        assert_eq!(
            families,
            BTreeSet::from(["sysbench", "fit", "tpcc", "hotspots", "hotspot-burst"])
        );
        assert!(
            cells.iter().any(|c| c.replication.is_some()),
            "replication must be toggled on at least one workload"
        );
        assert!(
            cells.iter().any(|c| c.workload.is_open_loop()),
            "hotspots must run open-loop"
        );
        let ids: BTreeSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "cell ids must be unique");
    }

    #[test]
    fn smoke_grid_is_small_and_still_representative() {
        let cells = smoke_grid(42).cells();
        assert!(cells.len() <= 10, "smoke grid must stay CI-fast");
        assert!(cells.iter().any(|c| c.replication.is_some()));
        assert!(cells.iter().any(|c| c.workload.is_open_loop()));
        assert!(cells
            .iter()
            .any(|c| c.id() == "sysbench-hotspot-update/mysql/t8"));
        assert!(
            cells
                .iter()
                .any(|c| c.replication.is_some() && c.replication_fault.is_some()),
            "the smoke grid must exercise the semi-sync degrade path"
        );
    }

    #[test]
    fn both_grids_carry_an_admission_burst_pair() {
        for grid in [paper_grid(42), smoke_grid(42)] {
            let cells = grid.cells();
            let bursts: Vec<&CellSpec> = cells
                .iter()
                .filter(|c| matches!(c.workload, WorkloadSpec::HotspotBurst { .. }))
                .collect();
            assert!(
                bursts
                    .iter()
                    .any(|c| c.deltas.iter().all(|d| d.label() != "admission=true")),
                "grid `{}` lacks the no-admission burst baseline",
                grid.name
            );
            assert!(
                bursts
                    .iter()
                    .any(|c| c.deltas.iter().any(|d| d.label() == "admission=true")),
                "grid `{}` lacks the admission-enabled burst cell",
                grid.name
            );
        }
    }

    #[test]
    fn both_grids_carry_a_replica_stall_cell() {
        for grid in [paper_grid(42), smoke_grid(42)] {
            let cells = grid.cells();
            let stall = cells
                .iter()
                .find(|c| c.id().ends_with("/rplfault-stall"))
                .unwrap_or_else(|| panic!("grid `{}` has no stall cell", grid.name));
            assert_eq!(stall.replication, Some(ReplicationMode::Synchronous));
            let plan = stall.replication_fault.as_ref().unwrap();
            assert!(
                plan.stall.is_some_and(|(target, _, _)| target.is_none()),
                "the stall must hit the whole follower tier so the ack quorum degrades"
            );
        }
    }

    /// FNV-1a over cell ids in run order, the way
    /// `workloads/tests/determinism.rs` pins a stream.
    fn id_digest(cells: &[CellSpec]) -> u64 {
        let mut hash = txsql_workloads::digest::Fnv1a::new();
        for cell in cells {
            cell.id().bytes().for_each(|b| hash.write_u64(b.into()));
            hash.write_u64(u64::MAX);
        }
        hash.finish()
    }

    /// Cell count and id digest per figure, at the quick ladder.  Taken from
    /// what the ten `figNN_*` programs ran at 35eb196 (Figure 6 is
    /// `fig06_ablation_fit` then `fig06_ablation_sysbench`; Figure 13 without
    /// the `dynbatch=false` its batch cells carried for a knob nothing read):
    /// a figure that gains, loses or renames a cell re-pins here and says so.
    const FIGURE_CELLS: [(&str, usize, u64); 9] = [
        ("2", 18, 10039732274263093379),
        ("6", 60, 15968620108520615566),
        ("7", 32, 18163337977189685573),
        ("8", 12, 11250236258816546074),
        ("9", 24, 9199192685663702661),
        ("10", 28, 15065119205325925226),
        ("11", 3, 8034533958530523582),
        ("12", 12, 15172408650430955674),
        ("13", 34, 7306876167739846367),
    ];

    #[test]
    fn every_figure_builds_the_cells_its_binary_built() {
        assert_eq!(FIGURE_CELLS.map(|(id, _, _)| id), FIGURES.map(|(id, _)| id));
        for (id, count, digest) in FIGURE_CELLS {
            let cells = figure(id).expect("listed figure").cells();
            let ids: Vec<String> = cells.iter().map(CellSpec::id).collect();
            assert_eq!(cells.len(), count, "figure {id}: {ids:#?}");
            assert_eq!(id_digest(&cells), digest, "figure {id}: {ids:#?}");
        }
        assert!(figure("14").is_none());
    }

    #[test]
    fn a_cell_id_names_one_spec_in_every_selection() {
        for grid in [figure("all").unwrap(), paper_grid(42), smoke_grid(42)] {
            let mut specs = std::collections::BTreeMap::new();
            for cell in grid.panels.iter().flat_map(Panel::cells) {
                let spec = format!("{cell:?}");
                let first = specs.entry(cell.id()).or_insert_with(|| spec.clone());
                assert_eq!(
                    *first,
                    spec,
                    "`{}` names two cells in `{}`",
                    cell.id(),
                    grid.name
                );
            }
            assert_eq!(specs.len(), grid.cells().len());
        }
    }

    /// The ablation ladder on the two hot-row workloads: Figure 6 holds it in
    /// memory (Figure 8 is the compared systems on the same row, so MySQL and
    /// TXSQL only), the recorded grid holds it in memory and under semi-sync
    /// at the short ladder and 64 threads.
    #[test]
    fn the_ablation_ladder_is_on_the_hot_row() {
        let has = |cells: &[CellSpec], id: String| cells.iter().any(|c| c.id() == id);
        let (fig6, fig8) = (figure("6").unwrap().cells(), figure("8").unwrap().cells());
        let recorded = paper_grid(42).cells();
        for protocol in Protocol::ABLATION {
            let p = protocol.label().to_lowercase();
            for threads in crate::short_thread_ladder() {
                for workload in ["sysbench-hotspot-update", "fit"] {
                    assert!(has(&fig6, format!("{workload}/{p}/t{threads}")));
                }
            }
            for threads in [8, 32, 64, 128] {
                for workload in ["sysbench-hotspot-update", "fit"] {
                    assert!(has(&recorded, format!("{workload}/{p}/t{threads}")));
                    assert!(has(
                        &recorded,
                        format!("{workload}/{p}/t{threads}/repl-sync")
                    ));
                }
            }
        }
        for protocol in Protocol::SYSTEMS {
            let p = protocol.label().to_lowercase();
            assert!(has(&fig8, format!("sysbench-hotspot-update/{p}/t128")));
        }
    }

    #[test]
    fn smoke_size_reaches_every_sized_workload_and_no_id() {
        let fig6 = figure("6").unwrap();
        let small = fig6.clone().map_cells(|cell| cell.rows(SMOKE_ROWS));
        for (paper, smoke) in fig6.cells().iter().zip(small.cells()) {
            assert_eq!(paper.id(), smoke.id());
            match smoke.workload {
                WorkloadSpec::Sysbench { table_size, .. } => assert_eq!(table_size, SMOKE_ROWS),
                WorkloadSpec::Fit { users, .. } => assert_eq!(users, SMOKE_ROWS),
                other => panic!("figure 6 runs {other:?}"),
            }
        }
    }
}
