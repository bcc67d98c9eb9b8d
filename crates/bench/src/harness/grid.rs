//! The selections a block can record: a figure (or `all` of them, the
//! paper's record) and the CI smoke grid.
//!
//! The smoke grid is panels like any figure's ([`super::figures`]), but it
//! declares no claim: it proves the harness runs end to end, not the paper.

use super::cell::CellSpec;
use super::figures::{
    admission_pair, fields, figure, replica_stall, Axis, GridSpec, Panel, P95, TPS,
};
use txsql_core::Protocol;
use txsql_replication::ReplicationMode;
use txsql_workloads::{SysbenchVariant, WorkloadSpec};

/// Rows of the smoke grid's tables, and of any figure run with `--smoke`.
pub const SMOKE_ROWS: u64 = 10_000;

/// The selection a block's `provenance.grid` names: `smoke`, or `fig<id>`
/// for [`figure`]`(id)`.
pub fn selection(name: &str) -> Option<GridSpec> {
    match name {
        "smoke" => Some(smoke_grid()),
        _ => figure(name.strip_prefix("fig")?),
    }
}

/// One row per cell.
fn every_cell(grid: &str, cells: Vec<CellSpec>) -> Panel {
    let title = format!("workload grid `{grid}`: every cell");
    let rows: Axis<CellSpec> = cells.into_iter().map(|cell| (cell.id(), cell)).collect();
    let columns = fields(&[TPS, P95]);
    Panel::new(title, "cell", &rows, &columns, |cell, &show| {
        (cell.clone(), show)
    })
}

/// The CI grid: two protocols, small tables, one replication cell, a replica
/// stall and the admission burst pair (the open-loop cells) — fast enough
/// for every push.  Queue depth 2 under 8 bursty workers guarantees
/// the admission cell actually sheds (CI greps `admission_shed=` non-zero).
pub fn smoke_grid() -> GridSpec {
    let hot_update = WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate);
    let fit = WorkloadSpec::fit_standard();
    let burst = WorkloadSpec::HotspotBurst {
        base_tps: 50,
        phase_seconds: 1,
    };
    let txsql = Protocol::GroupLockingTxsql;

    let mut cells = Vec::new();
    for protocol in [Protocol::Mysql2pl, txsql] {
        cells.push(CellSpec::new(protocol, hot_update));
        cells.push(CellSpec::new(protocol, WorkloadSpec::tpcc(2)));
    }
    let semi_sync = CellSpec::new(txsql, fit).replication(ReplicationMode::Synchronous);
    cells.push(semi_sync.clone());
    cells.push(replica_stall(semi_sync));
    cells.extend(
        admission_pair(burst, 8, 2)
            .into_iter()
            .map(|(_, cell)| cell),
    );

    GridSpec {
        name: "smoke".to_string(),
        panels: vec![every_cell("smoke", cells)],
    }
    .map_cells(|cell| cell.rows(SMOKE_ROWS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::figures::FIGURES;

    #[test]
    fn smoke_grid_is_small_and_still_representative() {
        let cells = smoke_grid().cells();
        assert!(cells.len() <= 10, "smoke grid must stay CI-fast");
        assert!(cells.iter().any(|c| c.replication.is_some()));
        assert!(cells.iter().any(|c| c.workload.is_open_loop()));
        assert!(cells
            .iter()
            .any(|c| c.id() == "sysbench-hotspot-update/mysql/t8"));
        assert!(smoke_grid().panels.iter().all(|p| p.claims.is_empty()));
    }

    #[test]
    fn both_recorded_selections_carry_an_admission_burst_pair() {
        for grid in [figure("all").unwrap(), smoke_grid()] {
            let cells = grid.cells();
            let bursts: Vec<&CellSpec> = cells
                .iter()
                .filter(|c| matches!(c.workload, WorkloadSpec::HotspotBurst { .. }))
                .collect();
            let admitted = |c: &CellSpec| c.deltas.iter().any(|d| d.label() == "admission=true");
            assert_eq!(bursts.len(), 2, "`{}`: {bursts:?}", grid.name);
            assert_eq!(
                bursts.iter().filter(|c| admitted(c)).count(),
                1,
                "`{}`",
                grid.name
            );
        }
    }

    #[test]
    fn both_recorded_selections_carry_a_replica_stall_cell() {
        for grid in [figure("all").unwrap(), smoke_grid()] {
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

    /// Cell count and id digest per figure, at the quick ladder: a figure
    /// that gains, loses, renames or reorders a cell re-pins here and says
    /// so.
    const FIGURE_CELLS: [(&str, usize, u64); 9] = [
        ("2", 18, 6556264160366152835),
        ("6", 60, 15968620108520615566),
        ("7", 32, 18163337977189685573),
        ("8", 12, 11250236258816546074),
        ("9", 58, 4862070807395708277),
        ("10", 28, 15065119205325925226),
        ("11", 2, 4849850366028302267),
        ("12", 15, 3342454576271452155),
        ("13", 34, 5706845514660057535),
    ];

    #[test]
    fn every_figure_builds_the_cells_it_is_pinned_to() {
        assert_eq!(FIGURE_CELLS.map(|(id, _, _)| id), FIGURES.map(|(id, _)| id));
        for (id, count, digest) in FIGURE_CELLS {
            let cells = figure(id).expect("listed figure").cells();
            let ids: Vec<String> = cells.iter().map(CellSpec::id).collect();
            assert_eq!(cells.len(), count, "figure {id}: {ids:#?}");
            assert_eq!(id_digest(&cells), digest, "figure {id}: {ids:#?}");
        }
        assert!(figure("14").is_none());
        assert!(selection("fig14").is_none() && selection("paper").is_none());
    }

    /// The id names one spec across every selection a block can record, up
    /// to the two things a run sets for all its cells: seed and table size.
    #[test]
    fn a_cell_id_names_one_spec_in_every_selection() {
        let mut specs = std::collections::BTreeMap::new();
        for grid in [figure("all").unwrap(), smoke_grid()] {
            for cell in grid.panels.iter().flat_map(Panel::cells) {
                let spec = format!("{:?}", cell.clone().seed(0).rows(SMOKE_ROWS));
                let first = specs.entry(cell.id()).or_insert_with(|| spec.clone());
                assert_eq!(*first, spec, "`{}` names two cells", cell.id());
            }
        }
    }

    /// The ablation ladder on the two hot-row workloads: Figure 6 holds it in
    /// memory up the short ladder, Figure 9 at 64 threads from in memory to a
    /// 3 ms replica round trip; Figure 8 has the compared systems at the top.
    #[test]
    fn the_ablation_ladder_is_on_the_hot_row() {
        let has = |cells: &[CellSpec], id: String| cells.iter().any(|c| c.id() == id);
        let [fig6, fig8, fig9] = ["6", "8", "9"].map(|id| figure(id).unwrap().cells());
        for protocol in Protocol::ABLATION {
            let p = protocol.label().to_lowercase();
            for workload in ["sysbench-hotspot-update", "fit"] {
                for threads in crate::short_thread_ladder() {
                    assert!(has(&fig6, format!("{workload}/{p}/t{threads}")));
                }
                assert!(has(&fig9, format!("{workload}/{p}/t64")));
                let rtt = "repl-sync/fsync=100us/rtt=3000us";
                assert!(has(&fig9, format!("{workload}/{p}/t64/{rtt}")));
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
