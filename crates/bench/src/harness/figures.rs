//! The paper's figures as data: figure id → panels, and the one pivot that
//! runs and prints them.
//!
//! A [`Panel`] is a titled table: a row axis, a column axis, and per pair the
//! [`CellSpec`] it measures and the one outcome field ([`Show`]) it prints.
//! Panels of one selection share cells by id (Figure 6a–6d are four views of
//! the same twelve cells), so [`GridSpec::cells`] is what runs and
//! [`GridSpec::print`] is the only table loop in the crate.

use super::cell::{CellOutcome, CellSpec};
use crate::{fmt, full_scale, print_table, short_thread_ladder, thread_ladder};
use std::collections::{HashMap, HashSet};
use txsql_common::latency::LatencyModel;
use txsql_common::metrics::MetricsSnapshot;
use txsql_core::{ConfigDelta, Protocol};
use txsql_replication::ReplicationMode;
use txsql_workloads::{BuiltWorkload, SecondSample, SysbenchVariant, WorkloadSpec};

/// One outcome field: the caption it goes by in a panel title or a column
/// header, and how it reads off a cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Show {
    /// Short name of the field.
    pub caption: &'static str,
    render: Render,
}

type PerSecond = fn(&SecondSample) -> String;

#[derive(Debug, Clone, Copy)]
enum Render {
    Cell(fn(&CellOutcome) -> Option<String>),
    /// One second of an open-loop cell's samples (Figure 11).
    Second(usize, PerSecond),
}

impl Show {
    const fn cell(caption: &'static str, render: fn(&CellOutcome) -> Option<String>) -> Self {
        let render = Render::Cell(render);
        Self { caption, render }
    }

    /// Renders the field; `-` where the cell's driver does not produce it.
    pub fn render(self, outcome: &CellOutcome) -> String {
        let text = match self.render {
            Render::Cell(field) => field(outcome),
            Render::Second(second, field) => {
                let samples = outcome.seconds.as_ref();
                samples.and_then(|samples| samples.get(second)).map(field)
            }
        };
        text.unwrap_or_else(|| "-".to_string())
    }
}

fn pct(share: f64) -> String {
    format!("{:.2}%", share * 100.0)
}

fn snapshot(outcome: &CellOutcome, field: fn(&MetricsSnapshot) -> String) -> Option<String> {
    outcome.snapshot.as_ref().map(field)
}

// The fields the figures and grids show.  Median of the repeats for goodput,
// the median repeat's own value for everything else.
pub(crate) const TPS: Show = Show::cell("TPS", |o| Some(fmt(o.goodput_tps)));
pub(crate) const TPS_IQR: Show = Show::cell("iqr", |o| Some(fmt(o.goodput_iqr)));
pub(crate) const ABORTS: Show = Show::cell("aborts", |o| Some(pct(o.abort_rate_pct / 100.0)));
pub(crate) const P50: Show = Show::cell("p50_ms", |o| Some(fmt(o.p50_ms)));
pub(crate) const P95: Show = Show::cell("p95_ms", |o| Some(fmt(o.p95_ms)));
pub(crate) const P99: Show = Show::cell("p99_ms", |o| Some(fmt(o.p99_ms)));
const P95_AND_LOCK_WAIT: Show = Show::cell("p95 ms (p95 lock wait ms)", |o| {
    let lock_wait = snapshot(o, |s| fmt(s.p95_lock_wait_ms))?;
    Some(format!("{} ({lock_wait})", fmt(o.p95_ms)))
});
const MEAN_LATENCY: Show = Show::cell("mean latency ms", |o| {
    snapshot(o, |s| fmt(s.mean_latency_ms))
});
const UTIL: Show = Show::cell("CPU utilisation proxy %", |o| {
    snapshot(o, |s| fmt(s.utilization * 100.0))
});
const LOCKS_PER_QUERY: Show = Show::cell("lock objects per query", |o| {
    snapshot(o, |s| fmt(s.locks_per_query))
});
const DEADLOCK_CHECKS: Show = Show::cell("deadlock_checks", |o| {
    snapshot(o, |s| s.deadlock_checks.to_string())
});
const CASCADES: Show = Show::cell("cascade abort ratio", |o| {
    snapshot(o, |s| pct(s.cascade_abort_ratio))
});
const COMMIT_BATCHES: Show = Show::cell("commit_batches", |o| {
    snapshot(o, |s| s.commit_batches.to_string())
});
pub(crate) const TPCC: Show = Show::cell("tpcc", |o| {
    let verdict = |ok| if ok { "ok" } else { "VIOLATED" };
    o.tpcc_consistent.map(|ok| verdict(ok).to_string())
});

/// A labelled axis: one `(label, value)` per row or column.
pub type Axis<T> = Vec<(String, T)>;

/// Labels `values` with `label`.
pub fn axis<T: Copy>(values: &[T], label: impl Fn(&T) -> String) -> Axis<T> {
    values.iter().map(|v| (label(v), *v)).collect()
}

fn protocols(protocols: &[Protocol]) -> Axis<Protocol> {
    axis(protocols, |p| p.label().to_string())
}

/// A column axis of outcome fields, for panels whose rows are whole cells.
pub fn fields(fields: &[Show]) -> Axis<Show> {
    axis(fields, |show| show.caption.to_string())
}

/// One printed table.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Table title.
    pub title: String,
    /// The row-label column's header (`corner`), then the column labels.
    pub headers: Vec<String>,
    /// Row label and, per column, the cell measured and the field shown.
    pub rows: Vec<(String, Vec<(CellSpec, Show)>)>,
}

impl Panel {
    /// The table of `entry(row, column)` over two axes.
    pub fn new<R, C>(
        title: impl Into<String>,
        corner: &str,
        rows: &Axis<R>,
        columns: &Axis<C>,
        entry: impl Fn(&R, &C) -> (CellSpec, Show),
    ) -> Self {
        let row = |r| columns.iter().map(|(_, c)| entry(r, c)).collect();
        let labels = columns.iter().map(|(label, _)| label.clone());
        Self {
            title: title.into(),
            headers: std::iter::once(corner.to_string()).chain(labels).collect(),
            rows: rows
                .iter()
                .map(|(label, r)| (label.clone(), row(r)))
                .collect(),
        }
    }

    /// Threads down, protocols across, one field: the shape of most figures.
    /// The title is `tag`, what every cell shares, and the field's caption.
    pub fn by_threads(
        tag: &str,
        ladder: &[usize],
        across: &[Protocol],
        show: Show,
        cell: impl Fn(Protocol) -> CellSpec,
    ) -> Self {
        let shared = cell(across[0]);
        let title = format!(
            "{tag}: {}{}, {}",
            shared.workload.label(),
            shared.settings(),
            show.caption
        );
        let (ladder, across) = (axis(ladder, usize::to_string), protocols(across));
        Self::new(title, "threads", &ladder, &across, |&t, &p| {
            (cell(p).threads(t), show)
        })
    }

    /// Every entry's cell, row by row.
    pub fn cells(&self) -> impl Iterator<Item = &CellSpec> {
        self.rows
            .iter()
            .flat_map(|(_, entries)| entries.iter().map(|(cell, _)| cell))
    }
}

/// A named selection of panels: one figure, several, or a recorded grid.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Selection name, recorded in the block provenance.
    pub name: String,
    /// The tables, printed in order.
    pub panels: Vec<Panel>,
}

impl GridSpec {
    /// The distinct cells behind the panels, in first-use order.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut seen = HashSet::new();
        let cells = self.panels.iter().flat_map(Panel::cells);
        cells
            .filter(|cell| seen.insert(cell.id()))
            .cloned()
            .collect()
    }

    /// Rewrites every cell (the seed, the smoke table size).
    pub fn map_cells(mut self, f: impl Fn(CellSpec) -> CellSpec) -> Self {
        let rows = self
            .panels
            .iter_mut()
            .flat_map(|panel| panel.rows.iter_mut());
        for (cell, _) in rows.flat_map(|(_, entries)| entries.iter_mut()) {
            *cell = f(cell.clone());
        }
        self
    }

    /// Runs every distinct cell sequentially, invoking `progress` after each.
    pub fn run(&self, mut progress: impl FnMut(&CellOutcome)) -> Vec<CellOutcome> {
        let run = |cell: &CellSpec| {
            let outcome = cell.run();
            progress(&outcome);
            outcome
        };
        self.cells().iter().map(run).collect()
    }

    /// Prints every panel from `outcomes` (what [`GridSpec::run`] returned).
    pub fn print(&self, outcomes: &[CellOutcome]) {
        let by_id: HashMap<String, &CellOutcome> = outcomes.iter().map(|o| (o.id(), o)).collect();
        let render = |(cell, show): &(CellSpec, Show)| {
            by_id
                .get(&cell.id())
                .map_or_else(|| "-".to_string(), |outcome| show.render(outcome))
        };
        for panel in &self.panels {
            let row = |(label, entries): &(String, Vec<(CellSpec, Show)>)| {
                std::iter::once(label.clone())
                    .chain(entries.iter().map(render))
                    .collect()
            };
            let rows: Vec<Vec<String>> = panel.rows.iter().map(row).collect();
            print_table(&panel.title, &panel.headers, &rows);
        }
    }
}

type Declaration = fn() -> Vec<Panel>;

/// The paper's figures that have a declaration here, by number.
pub const FIGURES: [(&str, Declaration); 9] = [
    ("2", fig02_motivation),
    ("6", fig06_ablation),
    ("7", fig07_mix),
    ("8", fig08_scalability),
    ("9", fig09_replication),
    ("10", fig10_abort_skew),
    ("11", fig11_online),
    ("12", fig12_tpcc),
    ("13", fig13_batch_group_commit),
];

/// The panels of figure `id`; `all` is every figure's.  Thread ladders and
/// sweep lengths follow `TXSQL_BENCH_FULL`.
pub fn figure(id: &str) -> Option<GridSpec> {
    let selected = FIGURES
        .iter()
        .filter(|(number, _)| id == "all" || id == *number);
    let panels: Vec<Panel> = selected.flat_map(|(_, panels)| panels()).collect();
    let name = format!("fig{id}");
    (!panels.is_empty()).then_some(GridSpec { name, panels })
}

fn hot_update() -> WorkloadSpec {
    WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate)
}

fn hot_rw(writes: usize, reads: usize, skew: f64) -> WorkloadSpec {
    WorkloadSpec::sysbench(SysbenchVariant::HotspotReadWrite {
        writes,
        reads,
        skew,
    })
}

/// The largest thread count of the scalability ladder: where the sweeps that
/// vary something else are taken.
fn top_threads() -> usize {
    *thread_ladder().last().expect("ladder is non-empty")
}

/// Figure 2 — motivation.  (a) MySQL-style 2PL on the hotspot update gets
/// *slower* with more clients: deadlock detection and lock-queue upkeep
/// dominate.  (b) Transaction-length sweep under the semi-sync commit
/// latency: queue locking's benefit shrinks, group locking's does not.
fn fig02_motivation() -> Vec<Panel> {
    let top = top_threads();
    let ladder = axis(&thread_ladder(), usize::to_string);
    let mysql = CellSpec::new(Protocol::Mysql2pl, hot_update());
    let by_threads = |&t: &usize, &show: &Show| (mysql.clone().threads(t), show);
    let shown = fields(&[TPS, P95, DEADLOCK_CHECKS]);
    let lengths = axis(&[1usize, 2, 4, 8, 16], usize::to_string);
    let across = [
        Protocol::Mysql2pl,
        Protocol::QueueLockingO2,
        Protocol::GroupLockingTxsql,
    ];
    let by_length = |&length: &usize, &p: &Protocol| {
        let cell = CellSpec::new(p, hot_rw(1, length - 1, 0.7)).threads(top);
        (cell.latency(LatencyModel::semi_sync_replication()), TPS)
    };
    let title_a = "Figure 2a: MySQL, SysBench hotspot update (TPS collapses with concurrency)";
    let title_b = format!("Figure 2b: hotspot update TPS vs transaction length, threads={top}");
    vec![
        Panel::new(title_a, "threads", &ladder, &shown, by_threads),
        Panel::new(title_b, "txn_len", &lengths, &protocols(&across), by_length),
    ]
}

/// Figure 6 — the ablation, MySQL / O1 / O2 / TXSQL across the short ladder.
/// (a–d) FiT: throughput, utilisation proxy, p95 latency with its lock-wait
/// share, lock objects per query.  (e–h) SysBench hotspot update, hotspot
/// scan, uniform update, uniform read-only: in the scan and uniform cases
/// O2 / TXSQL must *not* improve over O1 — the hotspot machinery never
/// engages — which is what the paper reports.
fn fig06_ablation() -> Vec<Panel> {
    let fit = WorkloadSpec::fit_standard();
    let scan = WorkloadSpec::sysbench(SysbenchVariant::HotspotScan { hot_rows: 10 });
    let update = WorkloadSpec::sysbench(SysbenchVariant::UniformUpdate { length: 2 });
    let read = WorkloadSpec::sysbench(SysbenchVariant::UniformReadOnly { length: 10 });
    let panels = [
        ("6a", fit, TPS),
        ("6b", fit, UTIL),
        ("6c", fit, P95_AND_LOCK_WAIT),
        ("6d", fit, LOCKS_PER_QUERY),
        ("6e", hot_update(), TPS),
        ("6f", scan, TPS),
        ("6g", update, TPS),
        ("6h", read, TPS),
    ];
    let ladder = short_thread_ladder();
    let panel = |(tag, workload, show)| {
        let (tag, cell) = (format!("Figure {tag}"), |p| CellSpec::new(p, workload));
        Panel::by_threads(&tag, &ladder, &Protocol::ABLATION, show, cell)
    };
    panels.map(panel).into()
}

/// Figure 7 — at the top thread count: (a) write ratio swept 0–75 % at
/// transaction length 20, (b) length swept 2–16 at 50 % writes.
fn fig07_mix() -> Vec<Panel> {
    let top = top_threads();
    let mix = |&(writes, reads): &(usize, usize), &p: &Protocol| {
        let read_only = WorkloadSpec::sysbench(SysbenchVariant::UniformReadOnly { length: reads });
        let workloads = [read_only, hot_rw(writes, reads, 0.9)];
        (
            CellSpec::new(p, workloads[usize::from(writes > 0)]).threads(top),
            TPS,
        )
    };
    let writes = |pct: usize| (format!("{pct}%"), (20 * pct / 100, 20 - 20 * pct / 100));
    let ratios: Axis<_> = [0usize, 25, 50, 75].map(writes).into();
    let halves = |len: usize| (len.to_string(), (len / 2, len - len / 2));
    let halves: Axis<_> = [2usize, 4, 8, 16].map(halves).into();
    let across = protocols(&Protocol::ABLATION);
    let title_a = format!("Figure 7a: SysBench read/write mix, TL=20, threads={top} (TPS)");
    let title_b = format!("Figure 7b: SysBench 50% writes, length sweep, threads={top} (TPS)");
    vec![
        Panel::new(title_a, "writes", &ratios, &across, mix),
        Panel::new(title_b, "txn_len", &halves, &across, mix),
    ]
}

/// Figure 8 — scalability on the hotspot update: MySQL / Aria / Bamboo /
/// TXSQL throughput (top) and p95 latency (bottom) up the full ladder.
fn fig08_scalability() -> Vec<Panel> {
    let panel = |(tag, show)| {
        let cell = |p| CellSpec::new(p, hot_update());
        Panel::by_threads(tag, &thread_ladder(), &Protocol::SYSTEMS, show, cell)
    };
    [("Figure 8 (top)", TPS), ("Figure 8 (bottom)", P95)]
        .map(panel)
        .into()
}

/// Figure 9 — FiT under (a) semi-sync and (b) asynchronous replication to two
/// replicas, MySQL / Aria / Bamboo / TXSQL.
fn fig09_replication() -> Vec<Panel> {
    let panel = |(tag, mode): (&str, ReplicationMode)| {
        let cell = |p| CellSpec::new(p, WorkloadSpec::fit_standard()).replication(mode);
        Panel::by_threads(tag, &short_thread_ladder(), &Protocol::SYSTEMS, TPS, cell)
    };
    let modes = [ReplicationMode::Synchronous, ReplicationMode::Asynchronous];
    [("Figure 9a", modes[0]), ("Figure 9b", modes[1])]
        .map(panel)
        .into()
}

/// Figure 10 — (left) injected aborts → cascading-abort ratio, TXSQL vs
/// Bamboo; (right) Zipf skew → throughput for the four systems.
fn fig10_abort_skew() -> Vec<Panel> {
    let top = top_threads();
    let variant = SysbenchVariant::HotspotReadWrite {
        writes: 8,
        reads: 8,
        skew: 0.9,
    };
    let injected = axis(&[0.5f64, 1.0, 2.0, 3.0], |pct| format!("{pct}%"));
    let inject = |&inject_pct: &f64, &p: &Protocol| {
        let workload = WorkloadSpec::SysbenchAbortInject {
            variant,
            table_size: 100_000,
            inject_pct,
        };
        (CellSpec::new(p, workload).threads(top), CASCADES)
    };
    let skews = axis(&[0.7f64, 0.8, 0.9, 0.95, 0.99], f64::to_string);
    let zipf = |&skew: &f64, &p: &Protocol| {
        let workload = WorkloadSpec::sysbench(SysbenchVariant::ZipfUpdate { skew });
        (CellSpec::new(p, workload).threads(top), TPS)
    };
    let left = format!("Figure 10 (left): cascade abort ratio vs injected aborts, threads={top}");
    let right = format!("Figure 10 (right): TPS vs Zipf skew, TL=1, threads={top}");
    let victims = protocols(&[Protocol::GroupLockingTxsql, Protocol::Bamboo]);
    vec![
        Panel::new(left, "injected", &injected, &victims, inject),
        Panel::new(right, "skew", &skews, &protocols(&Protocol::SYSTEMS), zipf),
    ]
}

/// Figure 11 — the online fixed-TPS trace with hotspot bursts under the three
/// configurations of the figure's three regions: queue locking only (before
/// group locking went on at 23:55), group locking at the default batch size,
/// and at the larger one (the 00:18 bump).  One panel per per-second series.
fn fig11_online() -> Vec<Panel> {
    let base_tps = if full_scale() { 2_000 } else { 300 };
    let trace = WorkloadSpec::Hotspots {
        base_tps,
        phase_seconds: 5,
    };
    let BuiltWorkload::Open(built) = trace.build() else {
        unreachable!("the Hotspots trace is open-loop")
    };
    let seconds: Vec<usize> = (0..built.total_seconds() as usize).collect();
    let seconds = axis(&seconds, usize::to_string);
    let txsql = CellSpec::new(Protocol::GroupLockingTxsql, trace).threads(16);
    let configs = vec![
        (
            "O2 (pre-23:55)".to_string(),
            CellSpec::new(Protocol::QueueLockingO2, trace).threads(16),
        ),
        ("TXSQL batch=10".to_string(), txsql.clone()),
        (
            "TXSQL batch=64".to_string(),
            txsql.delta(ConfigDelta::BatchSize(64)),
        ),
    ];
    let series: [(&str, PerSecond); 5] = [
        ("target tps", |s| s.target_tps.to_string()),
        ("committed", |s| s.committed.to_string()),
        ("failure rate", |s| format!("{:.2}%", s.failure_rate_pct())),
        ("p95 latency (ms)", |s| fmt(s.p95_latency_ms)),
        ("CPU utilisation proxy (%)", |s| fmt(s.utilization * 100.0)),
    ];
    let panel = |(caption, field)| {
        let title =
            format!("Figure 11: online fixed-TPS trace with hotspot bursts, {caption} per second");
        let at = |&second: &usize, cell: &CellSpec| {
            let render = Render::Second(second, field);
            (cell.clone(), Show { caption, render })
        };
        Panel::new(title, "second", &seconds, &configs, at)
    };
    series.map(panel).into()
}

/// Figure 12 — TPC-C with the warehouse count swept down (fewer warehouses,
/// more contention on the warehouse and district rows): throughput and mean
/// latency for the four systems.  `bench_workloads` fails the run if a
/// protocol other than Bamboo leaves warehouse and district YTD inconsistent.
fn fig12_tpcc() -> Vec<Panel> {
    let top = top_threads();
    let warehouses: &[i64] = if full_scale() {
        &[16, 8, 4, 2, 1]
    } else {
        &[4, 2, 1]
    };
    let panel = |(tag, show): (&str, Show)| {
        let title = format!("Figure 12 ({tag}): TPC-C {}, threads={top}", show.caption);
        let cell = |&w: &i64, &p: &Protocol| CellSpec::new(p, WorkloadSpec::tpcc(w)).threads(top);
        let (rows, across) = (
            axis(warehouses, i64::to_string),
            protocols(&Protocol::SYSTEMS),
        );
        Panel::new(title, "warehouses", &rows, &across, |w, p| {
            (cell(w, p), show)
        })
    };
    [("left", TPS), ("right", MEAN_LATENCY)].map(panel).into()
}

/// Figure 13 — (left) fixed group-locking batch sizes on FiT / hotspot
/// read-write / hotspot update at two thread counts; (right) group commit on
/// and off under synchronous and asynchronous replication.
fn fig13_batch_group_commit() -> Vec<Panel> {
    let (high, low) = if full_scale() { (512, 32) } else { (128, 32) };
    let fit = WorkloadSpec::fit_standard();
    let workloads = [
        ("FIT", fit),
        ("HRW", hot_rw(8, 8, 0.9)),
        ("HU", hot_rw(16, 0, 0.9)),
    ];
    let at = |t: usize| workloads.map(|(name, workload)| (format!("{name}-{t}"), (workload, t)));
    let across: Axis<_> = at(high).into_iter().chain(at(low)).collect();
    let txsql = |workload| CellSpec::new(Protocol::GroupLockingTxsql, workload);
    let batched = |&batch: &usize, &(workload, t): &(WorkloadSpec, usize)| {
        let cell = txsql(workload).threads(t);
        (cell.delta(ConfigDelta::BatchSize(batch)), TPS)
    };
    let modes = [
        ("sync", ReplicationMode::Synchronous),
        ("async", ReplicationMode::Asynchronous),
    ];
    let commits = [("w/o GC", false), ("with GC", true)];
    let commit = |(label, mode)| commits.map(|(gc, on)| (format!("{label}, {gc}"), (mode, on)));
    let commit_modes: Axis<_> = modes.into_iter().flat_map(commit).collect();
    let group_commit = |&(mode, on): &(ReplicationMode, bool), &show: &Show| {
        let cell = txsql(fit).threads(high).delta(ConfigDelta::GroupCommit(on));
        (cell.replication(mode), show)
    };
    let left = "Figure 13 (left): TPS vs fixed group batch size (workload-threads)";
    let right = format!("Figure 13 (right): group commit under replication, FiT, threads={high}");
    let batches = axis(&[1usize, 4, 16, 64, 256], usize::to_string);
    let shown = fields(&[TPS, COMMIT_BATCHES]);
    vec![
        Panel::new(left, "batch", &batches, &across, batched),
        Panel::new(
            right,
            "replication, GC",
            &commit_modes,
            &shown,
            group_commit,
        ),
    ]
}
