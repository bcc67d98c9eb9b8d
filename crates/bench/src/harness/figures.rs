//! The paper's figures as data: figure id → panels, what the paper claims
//! about each panel, and the one pivot that runs and prints them.
//!
//! A [`Panel`] is a titled table: a row axis, a column axis, and per pair the
//! [`CellSpec`] it measures and the one outcome field ([`Show`]) it prints.
//! Panels of one selection share cells by id (Figure 6a, 6c and 6d are three
//! views of the same twelve cells), so [`GridSpec::cells`] is what runs and
//! [`GridSpec::print`] is the only table loop in the crate.
//!
//! A panel also carries the paper's claims about it, and
//! [`GridSpec::score`] checks them against a recorded block: this file is the
//! one place the reproduction's cells and its verdict are declared.  A claim
//! names columns (*arms*) by their labels and reads one recorded cell key,
//! `goodput_tps` unless it names another.  Every form uses one comparison
//! rule: a value is **above** another when it is beyond both IQRs, i.e.
//! `a − iqr(a) > b + iqr(b)`.  Only `goodput_tps` has a recorded spread
//! (`goodput_iqr`); any other key compares as a point, and the ratio of two
//! arms spans the ratios of their ranges' ends.

use super::cell::{CellOutcome, CellSpec};
use crate::{fmt, full_scale, print_table, short_thread_ladder, thread_ladder};
use serde::{Deserialize, Json};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::metrics::MetricsSnapshot;
use txsql_core::{ConfigDelta, Protocol};
use txsql_replication::{ReplFaultPlan, ReplicationMode};
use txsql_workloads::{SysbenchVariant, WorkloadSpec};
use Form::{AtLeast, Discriminates, Falling, Ordered, Rising, Stable};
use Series::{Arm, Ratio};

/// One outcome field: the caption it goes by in a panel title or a column
/// header, and how it reads off a cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Show {
    /// Short name of the field.
    pub caption: &'static str,
    field: fn(&CellOutcome) -> Option<String>,
}

impl Show {
    const fn cell(caption: &'static str, field: fn(&CellOutcome) -> Option<String>) -> Self {
        Self { caption, field }
    }

    /// Renders the field; `-` where the cell's driver does not produce it.
    pub fn render(self, outcome: &CellOutcome) -> String {
        (self.field)(outcome).unwrap_or_else(|| "-".to_string())
    }
}

fn snapshot(outcome: &CellOutcome, field: fn(&MetricsSnapshot) -> String) -> Option<String> {
    outcome.snapshot.as_ref().map(field)
}

// The fields the figures and grids show.  Median of the repeats for goodput,
// the median repeat's own value for everything else.
pub(crate) const TPS: Show = Show::cell("TPS", |o| Some(fmt(o.goodput_tps)));
pub(crate) const P95: Show = Show::cell("p95_ms", |o| Some(fmt(o.p95_ms)));
const P95_AND_LOCK_WAIT: Show = Show::cell("p95 ms (p95 lock wait ms)", |o| {
    let lock_wait = snapshot(o, |s| fmt(s.p95_lock_wait_ms))?;
    Some(format!("{} ({lock_wait})", fmt(o.p95_ms)))
});
const LOCKS_PER_QUERY: Show = Show::cell("lock objects per query", |o| {
    snapshot(o, |s| fmt(s.locks_per_query))
});
const DEADLOCK_CHECKS: Show = Show::cell("deadlock_checks", |o| {
    snapshot(o, |s| s.deadlock_checks.to_string())
});
const CASCADES: Show = Show::cell("cascade abort ratio", |o| {
    snapshot(o, |s| format!("{:.2}%", s.cascade_abort_ratio * 100.0))
});
const POST_BURST: Show = Show::cell("post-burst goodput tps", |o| {
    let (_, value) = o.extras.iter().find(|(key, _)| *key == POST_BURST_KEY)?;
    f64::from_json(value).ok().map(fmt)
});
const POST_BURST_KEY: &str = "post_burst_goodput_tps";

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

/// What a [`Form`] follows down a panel's rows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Series {
    /// The column with this label.
    Arm(&'static str),
    /// The first column's value over the second's.
    Ratio(&'static str, &'static str),
}

/// The five forms of a [`Claim`]; arms are column labels.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Form {
    /// In every row, each arm is above the one before it.
    Ordered(&'static [&'static str]),
    /// In every row, the first arm is not below the second.
    AtLeast(&'static str, &'static str),
    /// Down the rows the series never falls, and it ends above its start.
    Rising(Series),
    /// Down the rows the series never rises, and it ends below its start.
    Falling(Series),
    /// In some row, some arm is above another.
    Discriminates,
    /// Every cell's IQR is under a quarter of its median: one mode, not two.
    Stable,
}

/// One thing the paper says about a panel: a [`Form`], the recorded cell
/// key it reads, and whether it is checked at every row or the last only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    form: Form,
    key: &'static str,
    top: bool,
}

const GOODPUT: &str = "goodput_tps";

impl From<Form> for Claim {
    fn from(form: Form) -> Self {
        let (key, top) = (GOODPUT, false);
        Self { form, key, top }
    }
}

impl Claim {
    /// Reads the recorded cell key `key` instead of `goodput_tps`.
    pub(crate) fn on(self, key: &'static str) -> Self {
        Self { key, ..self }
    }

    /// Checks the panel's last row only (the top rung of a ladder).
    pub(crate) fn at_top(self) -> Self {
        Self { top: true, ..self }
    }
}

/// A recorded value, the range `mid ± iqr` the comparison rule reads, and
/// what it is a value of.
#[derive(Debug, Clone)]
struct Reading {
    of: String,
    mid: f64,
    lo: f64,
    hi: f64,
}

impl Reading {
    fn above(&self, other: &Self) -> bool {
        self.lo > other.hi
    }

    fn over(&self, other: &Self) -> Self {
        let of = format!("{} / {}", self.of, other.of);
        let (mid, lo) = (self.mid / other.mid, self.lo / other.hi);
        let hi = if other.lo > 0.0 {
            self.hi / other.lo
        } else {
            f64::INFINITY
        };
        Self { of, mid, lo, hi }
    }
}

impl std::fmt::Display for Reading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (of, mid, lo, hi) = (&self.of, fmt(self.mid), fmt(self.lo), fmt(self.hi));
        match self.hi > self.lo {
            true => write!(f, "`{of}` {mid} [{lo}, {hi}]"),
            false => write!(f, "`{of}` {mid}"),
        }
    }
}

/// Every declared claim of a selection checked against one block: per check,
/// the panel, the claim and the row it was checked at, and, when it does not
/// hold, the cells and the two numbers that break it.
#[derive(Debug, Clone)]
pub struct Scoreboard(pub Vec<(String, Option<String>)>);

impl Scoreboard {
    /// Prints `n of m claims hold`, then each claim that does not.
    pub fn print(&self) {
        let held = self.0.iter().filter(|(_, broken)| broken.is_none()).count();
        let claims = self.0.len();
        println!("\nscoreboard: {held} of {claims} claims hold");
        for (claim, broken) in &self.0 {
            if let Some(why) = broken {
                println!("  red  {claim}: {why}");
            }
        }
    }
}

/// One printed table, and what the paper claims about it.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Table title.
    pub title: String,
    /// The row-label column's header (`corner`), then the column labels.
    pub headers: Vec<String>,
    /// Row label and, per column, the cell measured and the field shown.
    pub rows: Vec<(String, Vec<(CellSpec, Show)>)>,
    /// The claims [`GridSpec::score`] checks.
    pub(crate) claims: Vec<Claim>,
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
        let headers = std::iter::once(corner.to_string()).chain(labels).collect();
        let rows = rows
            .iter()
            .map(|(label, r)| (label.clone(), row(r)))
            .collect();
        let (title, claims) = (title.into(), Vec::new());
        Self {
            title,
            headers,
            rows,
            claims,
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

    /// Declares what the paper claims about the panel.
    pub(crate) fn claims(mut self, claims: impl IntoIterator<Item = Claim>) -> Self {
        self.claims = claims.into_iter().collect();
        self
    }

    /// Every entry's cell, row by row.
    pub fn cells(&self) -> impl Iterator<Item = &CellSpec> {
        let entries = self.rows.iter().flat_map(|(_, entries)| entries);
        entries.map(|(cell, _)| cell)
    }

    /// `claim` checked against this panel's cells, as `read` finds them.
    fn verdicts(
        &self,
        claim: &Claim,
        read: &dyn Fn(&CellSpec, &str) -> Result<Reading, String>,
    ) -> Vec<(String, Option<String>)> {
        let rows = &self.rows[if claim.top { self.rows.len() - 1 } else { 0 }..];
        let on = match claim.key {
            GOODPUT => String::new(),
            key => format!(" on {key}"),
        };
        let claimed = |place| format!("{}: {:?}{on}{place}", self.title, claim.form);
        let read_row = |(_, row): &(String, Vec<(CellSpec, Show)>)| {
            row.iter().map(|(cell, _)| read(cell, claim.key)).collect()
        };
        let table: Vec<Vec<Reading>> = match rows.iter().map(read_row).collect() {
            Ok(table) => table,
            Err(unread) => return vec![(claimed(String::new()), Some(unread))],
        };
        let arm = |label: &str| {
            let arm = self.headers[1..].iter().position(|header| header == label);
            arm.unwrap_or_else(|| panic!("`{}` has no arm `{label}`", self.title))
        };
        let per_row = |check: &dyn Fn(&[Reading]) -> Option<String>| {
            let place = |label| format!(" at {} {label}", self.headers[0]);
            let checked = rows.iter().zip(&table);
            checked
                .map(|((label, _), row)| (claimed(place(label)), check(row)))
                .collect()
        };
        let broken = match claim.form {
            Ordered(arms) => {
                return per_row(&|row| {
                    arms.windows(2).find_map(|pair| {
                        let (low, high) = (&row[arm(pair[0])], &row[arm(pair[1])]);
                        (!high.above(low)).then(|| format!("{high} is not above {low}"))
                    })
                })
            }
            AtLeast(high, low) => {
                return per_row(&|row| {
                    let (high, low) = (&row[arm(high)], &row[arm(low)]);
                    low.above(high).then(|| format!("{high} is below {low}"))
                })
            }
            Rising(series) | Falling(series) => {
                let ahead = |from: &Reading, to: &Reading| match claim.form {
                    Rising(_) => to.above(from),
                    _ => from.above(to),
                };
                let follow = |row: &Vec<Reading>| match series {
                    Arm(a) => row[arm(a)].clone(),
                    Ratio(a, b) => row[arm(a)].over(&row[arm(b)]),
                };
                let path: Vec<Reading> = table.iter().map(follow).collect();
                let (first, last) = (&path[0], &path[path.len() - 1]);
                match path.windows(2).find(|step| ahead(&step[1], &step[0])) {
                    Some(step) => Some(format!("steps back: {} then {}", step[0], step[1])),
                    None => (!ahead(first, last)).then(|| format!("ends level: {first}, {last}")),
                }
            }
            Discriminates => {
                let by = |key: fn(&Reading) -> f64| {
                    move |a: &&Reading, b: &&Reading| key(a).total_cmp(&key(b))
                };
                let extremes = |row: &Vec<Reading>| {
                    let high = row.iter().max_by(by(|r| r.lo)).expect("a row has arms");
                    let low = row.iter().min_by(by(|r| r.hi)).expect("a row has arms");
                    (high.clone(), low.clone())
                };
                let gap = |(high, low): &(Reading, Reading)| high.lo - low.hi;
                let widest = table
                    .iter()
                    .map(extremes)
                    .max_by(|a, b| gap(a).total_cmp(&gap(b)));
                let (high, low) = widest.expect("a panel has rows");
                (!high.above(&low)).then(|| format!("{high} is not above {low}"))
            }
            Stable => {
                let mut seen = HashSet::new();
                let once = table.iter().flatten().filter(|r| seen.insert(&r.of));
                let readings: Vec<&Reading> = once.collect();
                let cells = readings.len();
                let wide = |r: &&&Reading| 4.0 * (r.hi - r.mid) >= r.mid;
                let bimodal: Vec<&&Reading> = readings.iter().filter(wide).collect();
                bimodal.first().map(|first| {
                    let (iqr, count) = (fmt(first.hi - first.mid), bimodal.len());
                    format!("{first} has iqr {iqr} ({count} of {cells} cells)")
                })
            }
        };
        vec![(claimed(String::new()), broken)]
    }
}

/// A named selection of panels: one figure, several, or the smoke grid.
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
        let fresh = cells.filter(|cell| seen.insert(cell.id()));
        fresh.cloned().collect()
    }

    /// Rewrites every cell (the seed, the smoke table size).
    pub fn map_cells(mut self, f: impl Fn(CellSpec) -> CellSpec) -> Self {
        let panels = self.panels.iter_mut();
        let rows = panels.flat_map(|panel| panel.rows.iter_mut());
        for (cell, _) in rows.flat_map(|(_, entries)| entries.iter_mut()) {
            *cell = f(cell.clone());
        }
        self
    }

    /// Prints every panel from `outcomes`, one per cell.
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

    /// Checks every panel's claims against a block's recorded `cells`.
    /// Fails, rather than scoring, when the block does not record exactly
    /// the cells this selection declares.
    pub fn score(&self, cells: &[Json]) -> Result<Scoreboard, String> {
        let id = |cell: &Json| Some(cell.field("id").ok()?.as_str()?.to_string());
        let recorded: HashMap<String, &Json> =
            cells.iter().filter_map(|c| Some((id(c)?, c))).collect();
        let declared: BTreeSet<String> = self.cells().iter().map(CellSpec::id).collect();
        let ids: BTreeSet<String> = recorded.keys().cloned().collect();
        let undeclared: Vec<_> = ids.difference(&declared).collect();
        let missing: Vec<_> = declared.difference(&ids).collect();
        if recorded.len() != cells.len() || !undeclared.is_empty() || !missing.is_empty() {
            return Err(format!(
                "the block's {} cells are not the {} `{}` declares: recorded but not declared \
                 {undeclared:?}, declared but not recorded {missing:?}",
                cells.len(),
                declared.len(),
                self.name
            ));
        }
        let read = |cell: &CellSpec, key: &str| {
            let of = cell.id();
            let number = |key| f64::from_json(recorded[&of].field(key).ok()?).ok();
            let mid = number(key).ok_or_else(|| format!("`{of}` records no number `{key}`"))?;
            let iqr = number("goodput_iqr")
                .filter(|_| key == GOODPUT)
                .unwrap_or(0.0);
            let (lo, hi) = (mid - iqr, mid + iqr);
            Ok(Reading { of, mid, lo, hi })
        };
        let panels = self.panels.iter();
        let claims = panels.flat_map(|p| p.claims.iter().map(move |c| (p, c)));
        let verdicts = claims.flat_map(|(panel, claim)| panel.verdicts(claim, &read));
        Ok(Scoreboard(verdicts.collect()))
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
    ("11", fig11_admission),
    ("12", fig12_tpcc),
    ("13", fig13_batch_group_commit),
];

/// The panels of figure `id`; `all` is every figure's.  Thread ladders and
/// sweep lengths follow `TXSQL_BENCH_FULL`.
pub fn figure(id: &str) -> Option<GridSpec> {
    let selected = FIGURES.iter().filter(|(n, _)| id == "all" || id == *n);
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

/// `cell` with both replicas stopped at their first delivery for 100 ms,
/// long past the default 10 ms ack timeout: the semi-sync hook must degrade,
/// keep committing and re-sync once the stall expires, inside the window.
pub(crate) fn replica_stall(cell: CellSpec) -> CellSpec {
    let stall = ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(100));
    cell.replication_fault(stall)
}

/// TXSQL on the burst trace without and with the front door's hot-key
/// queues of `depth`.  The trace declares its hot row up front, so the two
/// differ only in the front door; `admission_shed` shows that it fired.
pub(crate) fn admission_pair(burst: WorkloadSpec, workers: usize, depth: usize) -> Axis<CellSpec> {
    let plain = CellSpec::new(Protocol::GroupLockingTxsql, burst).threads(workers);
    let admitted = plain.clone().delta(ConfigDelta::Admission(true));
    let admitted = admitted.delta(ConfigDelta::AdmissionDepth(depth));
    vec![
        ("w/o admission".into(), plain),
        ("with admission".into(), admitted),
    ]
}

/// The largest thread count of the scalability ladder: where the sweeps that
/// vary something else are taken.
fn top_threads() -> usize {
    *thread_ladder().last().expect("ladder is non-empty")
}

/// Figure 2 — motivation.  (a) MySQL-style 2PL on the hotspot update up the
/// ladder, with its deadlock checks.  (b) Transaction-length sweep with a
/// 100 µs commit flush.
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
    let title_a = "Figure 2a: MySQL, SysBench hotspot update";
    let title_b = format!("Figure 2b: hotspot update TPS vs transaction length, threads={top}");
    let widening = Rising(Ratio("TXSQL", "MySQL"));
    vec![
        Panel::new(title_a, "threads", &ladder, &shown, by_threads)
            .claims([Falling(Arm("TPS")), Stable].map(Claim::from)),
        Panel::new(title_b, "txn_len", &lengths, &protocols(&across), by_length)
            .claims([widening, Stable].map(Claim::from)),
    ]
}

/// Figure 6 — the ablation, MySQL / O1 / O2 / TXSQL across the short ladder.
/// (a, c, d) FiT: throughput, p95 latency with its lock-wait share, lock
/// objects per query.  (e–h) SysBench hotspot update, hotspot scan, uniform
/// update, uniform read-only.
fn fig06_ablation() -> Vec<Panel> {
    let fit = WorkloadSpec::fit_standard();
    let scan = WorkloadSpec::sysbench(SysbenchVariant::HotspotScan { hot_rows: 10 });
    let update = WorkloadSpec::sysbench(SysbenchVariant::UniformUpdate { length: 2 });
    let read = WorkloadSpec::sysbench(SysbenchVariant::UniformReadOnly { length: 10 });
    let ladder = [
        Ordered(&["O1", "O2", "TXSQL"]),
        AtLeast("O1", "MySQL"),
        Stable,
    ];
    let no_gain = [AtLeast("O1", "O2"), AtLeast("O1", "TXSQL"), Stable];
    let (ladder, no_gain) = (
        ladder.map(Claim::from).to_vec(),
        no_gain.map(Claim::from).to_vec(),
    );
    let latency = Claim::from(AtLeast("MySQL", "TXSQL")).on("p95_ms");
    let lock_objects = Claim::from(Ordered(&["O1", "MySQL"])).on("locks_per_query");
    let panels = [
        ("6a", fit, TPS, ladder.clone()),
        ("6c", fit, P95_AND_LOCK_WAIT, vec![latency]),
        ("6d", fit, LOCKS_PER_QUERY, vec![lock_objects]),
        ("6e", hot_update(), TPS, ladder),
        ("6f", scan, TPS, no_gain.clone()),
        ("6g", update, TPS, no_gain.clone()),
        ("6h", read, TPS, no_gain),
    ];
    let threads = short_thread_ladder();
    let panel = |(tag, workload, show, claims)| {
        let (tag, cell) = (format!("Figure {tag}"), |p| CellSpec::new(p, workload));
        Panel::by_threads(&tag, &threads, &Protocol::ABLATION, show, cell).claims(claims)
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
    let widening = [Rising(Ratio("TXSQL", "MySQL")), Stable].map(Claim::from);
    vec![
        Panel::new(title_a, "writes", &ratios, &across, mix).claims(widening),
        Panel::new(title_b, "txn_len", &halves, &across, mix).claims(widening),
    ]
}

/// Figure 8 — scalability on the hotspot update: MySQL / Aria / Bamboo /
/// TXSQL throughput (top) and p95 latency (bottom) up the full ladder.
fn fig08_scalability() -> Vec<Panel> {
    let others = ["MySQL", "Aria", "Bamboo"];
    let leads = others.map(|other| Claim::from(AtLeast("TXSQL", other)).at_top());
    let faster = others.map(|other| Claim::from(AtLeast(other, "TXSQL")).on("p95_ms").at_top());
    let leads = leads.into_iter().chain([Stable.into()]).collect();
    let panel = |(tag, show, claims): (&str, Show, Vec<Claim>)| {
        let cell = |p| CellSpec::new(p, hot_update());
        let panel = Panel::by_threads(tag, &thread_ladder(), &Protocol::SYSTEMS, show, cell);
        panel.claims(claims)
    };
    let panels = [
        ("Figure 8 (top)", TPS, leads),
        ("Figure 8 (bottom)", P95, faster.into()),
    ];
    panels.map(panel).into()
}

/// Figure 9 — (a) semi-sync and (b) asynchronous replication to two replicas,
/// FiT, MySQL / Aria / Bamboo / TXSQL; (c, d) the ablation at 64 threads with
/// the replica round trip down the rows, 0 being in memory; (stall) a
/// follower-tier stall mid-window.
fn fig09_replication() -> Vec<Panel> {
    let fit = WorkloadSpec::fit_standard();
    let sync = ReplicationMode::Synchronous;
    let leads = ["MySQL", "Aria", "Bamboo"].map(|other| AtLeast("TXSQL", other));
    let leads: Vec<Claim> = leads.into_iter().chain([Stable]).map(Claim::from).collect();
    let panel = |(tag, mode): (&str, ReplicationMode)| {
        let cell = |p| CellSpec::new(p, fit).replication(mode);
        let ladder = short_thread_ladder();
        Panel::by_threads(tag, &ladder, &Protocol::SYSTEMS, TPS, cell).claims(leads.clone())
    };
    let modes = [
        ("Figure 9a", sync),
        ("Figure 9b", ReplicationMode::Asynchronous),
    ];
    let mut panels: Vec<Panel> = modes.map(panel).into();

    let round_trips = axis(&[0u64, 100, 1_000, 3_000], |us| {
        (*us as f64 / 1e3).to_string()
    });
    let at_rtt = |rtt: u64, cell: CellSpec| match rtt {
        0 => cell,
        _ => cell.replication(sync).latency(LatencyModel {
            network_one_way: Duration::from_micros(rtt / 2),
            ..LatencyModel::semi_sync_replication()
        }),
    };
    let falling = |arm| Falling(Arm(arm));
    let slower = [
        falling("MySQL"),
        falling("O1"),
        falling("O2"),
        falling("TXSQL"),
    ];
    let rtt_claims = [Rising(Ratio("TXSQL", "MySQL"))].into_iter().chain(slower);
    let rtt_claims: Vec<Claim> = rtt_claims.chain([Stable]).map(Claim::from).collect();
    for (tag, workload) in [("9c", hot_update()), ("9d", fit)] {
        let title = format!(
            "Figure {tag}: {}, threads=64, TPS vs round trip",
            workload.label()
        );
        let entry =
            |&rtt: &u64, &p: &Protocol| (at_rtt(rtt, CellSpec::new(p, workload).threads(64)), TPS);
        let across = protocols(&Protocol::ABLATION);
        let panel = Panel::new(title, "rtt_ms", &round_trips, &across, entry);
        panels.push(panel.claims(rtt_claims.clone()));
    }

    let healthy = CellSpec::new(Protocol::GroupLockingTxsql, fit).threads(64);
    let healthy = healthy.replication(sync);
    let stalled = replica_stall(healthy.clone());
    let replicas = vec![("healthy".into(), healthy), ("stall".into(), stalled)];
    let title = "Figure 9 (stall): FiT, TXSQL, semi-sync, a 100 ms replica stall (TPS)";
    let row: Axis<()> = vec![("64".into(), ())];
    let stall = Panel::new(title, "threads", &row, &replicas, |_, c| (c.clone(), TPS));
    panels.push(stall.claims([AtLeast("stall", "healthy").into()]));
    panels
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
    let cascades = Claim::from(AtLeast("Bamboo", "TXSQL")).on("cascade_abort_ratio");
    let widening = [Rising(Ratio("TXSQL", "MySQL")), Stable].map(Claim::from);
    vec![
        Panel::new(left, "injected", &injected, &victims, inject).claims([cascades]),
        Panel::new(right, "skew", &skews, &protocols(&Protocol::SYSTEMS), zipf).claims(widening),
    ]
}

/// Figure 11 — the hotspot burst: TXSQL on an open-loop trace whose middle
/// phase sends nearly every transaction to the hot row at eight times the
/// base rate, without and with the front door's hot-key queues.  (The
/// figure's five-phase online trace is not declared: at this scale it peaks
/// at 1,800 tps, below every arm's capacity, so its arms cannot differ.)
fn fig11_admission() -> Vec<Panel> {
    let burst = WorkloadSpec::HotspotBurst {
        base_tps: 300,
        phase_seconds: 2,
    };
    let title = "Figure 11: hotspot burst at 8 x 300 tps, post-burst goodput";
    let row: Axis<()> = vec![("16".into(), ())];
    let pair = admission_pair(burst, 16, 4);
    let panel = Panel::new(title, "workers", &row, &pair, |_, c| {
        (c.clone(), POST_BURST)
    });
    let recovers = Claim::from(AtLeast("with admission", "w/o admission")).on(POST_BURST_KEY);
    vec![panel.claims([recovers])]
}

/// Figure 12 — TPC-C with the warehouse count swept down (fewer warehouses,
/// more contention on the warehouse and district rows), the four systems and
/// TXSQL behind per-warehouse Payment admission caps.  `bench_workloads`
/// fails the run if a protocol other than Bamboo leaves warehouse and
/// district YTD inconsistent.  (Mean latency, the figure's right half, is
/// clients ÷ throughput in a closed loop and says nothing the left does not.)
fn fig12_tpcc() -> Vec<Panel> {
    let top = top_threads();
    let warehouses: &[i64] = if full_scale() {
        &[16, 8, 4, 2, 1]
    } else {
        &[4, 2, 1]
    };
    let title = format!("Figure 12: TPC-C TPS, threads={top}");
    let mut across = axis(&Protocol::SYSTEMS.map(|p| (p, false)), |(p, _)| {
        p.label().into()
    });
    across.push((
        "TXSQL+admission".into(),
        (Protocol::GroupLockingTxsql, true),
    ));
    let cell = |&w: &i64, &(p, admission): &(Protocol, bool)| {
        let cell = CellSpec::new(p, WorkloadSpec::tpcc(w)).threads(top);
        let admitted = cell.clone().delta(ConfigDelta::Admission(true));
        (if admission { admitted } else { cell }, TPS)
    };
    let rows = axis(warehouses, i64::to_string);
    let claims = [AtLeast("TXSQL", "MySQL"), Stable].map(Claim::from);
    vec![Panel::new(title, "warehouses", &rows, &across, cell).claims(claims)]
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
    let rows: Axis<_> = at(high).into_iter().chain(at(low)).collect();
    let txsql = |workload| CellSpec::new(Protocol::GroupLockingTxsql, workload);
    let batched = |&(workload, t): &(WorkloadSpec, usize), &batch: &usize| {
        let cell = txsql(workload).threads(t);
        (cell.delta(ConfigDelta::BatchSize(batch)), TPS)
    };
    let sync = ReplicationMode::Synchronous;
    let modes = vec![
        ("sync".into(), sync),
        ("async".into(), ReplicationMode::Asynchronous),
    ];
    let commits = vec![("w/o GC".into(), false), ("with GC".into(), true)];
    let group_commit = |&mode: &ReplicationMode, &on: &bool| {
        let cell = txsql(fit).threads(high).delta(ConfigDelta::GroupCommit(on));
        (cell.replication(mode), TPS)
    };
    let left = "Figure 13 (left): TPS vs fixed group batch size (workload-threads)";
    let right = format!("Figure 13 (right): group commit under replication, FiT, threads={high}");
    let batches = axis(&[1usize, 4, 16, 64, 256], usize::to_string);
    let gc_pays = [AtLeast("with GC", "w/o GC"), Stable].map(Claim::from);
    vec![
        Panel::new(left, "workload", &rows, &batches, batched)
            .claims([Discriminates, Stable].map(Claim::from)),
        Panel::new(right, "replication", &modes, &commits, group_commit).claims(gc_pays),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorded cell whose `goodput_tps` is `mid` ± `iqr` and whose
    /// `p95_ms` is the point `mid`.
    fn recorded(cell: &CellSpec, (mid, iqr): (f64, f64)) -> Json {
        let (id, mid, iqr) = (Json::Str(cell.id()), Json::F64(mid), Json::F64(iqr));
        let pairs = [
            ("id", id),
            (GOODPUT, mid.clone()),
            ("goodput_iqr", iqr),
            ("p95_ms", mid),
        ];
        Json::Obj(pairs.map(|(key, value)| (key.to_string(), value)).into())
    }

    /// `claim` on a panel of MySQL / O1 / O2 at 8 and 32 threads whose cells
    /// recorded `values`: the verdicts, all of them holding or not.
    fn holds(claim: Claim, values: [[(f64, f64); 3]; 2]) -> Vec<bool> {
        let arms = [
            Protocol::Mysql2pl,
            Protocol::LightweightO1,
            Protocol::QueueLockingO2,
        ];
        let cell = |p| CellSpec::new(p, hot_update());
        let panel = Panel::by_threads("T", &[8, 32], &arms, TPS, cell).claims([claim]);
        let rows = panel.rows.iter().zip(values);
        let cells = rows.flat_map(|((_, row), values)| row.iter().zip(values));
        let cells: Vec<Json> = cells
            .map(|((cell, _), value)| recorded(cell, value))
            .collect();
        let grid = GridSpec {
            name: "t".to_string(),
            panels: vec![panel],
        };
        let board = grid
            .score(&cells)
            .expect("the block records the declared cells");
        board.0.iter().map(|(_, broken)| broken.is_none()).collect()
    }

    #[test]
    fn each_claim_form_holds_on_one_block_and_fails_on_another() {
        let even = [[(10.0, 1.0); 3]; 2];
        let climb = [[(10.0, 1.0), (20.0, 1.0), (30.0, 1.0)]; 2];
        let close = [[(10.0, 1.0), (11.0, 1.0), (30.0, 1.0)]; 2];
        let wider = [
            [(10.0, 1.0), (10.0, 1.0), (20.0, 1.0)],
            [(10.0, 1.0), (10.0, 1.0), (40.0, 1.0)],
        ];
        let collapse = [[(40.0, 1.0); 3], [(10.0, 1.0); 3]];
        let mysql_first = [[(30.0, 1.0), (10.0, 1.0), (10.0, 1.0)], [(10.0, 1.0); 3]];
        let mysql_last = [mysql_first[1], mysql_first[0]];
        let overlap = [[(10.0, 5.0), (10.0, 5.0), (12.0, 5.0)]; 2];
        let bimodal = [[(10.0, 3.0); 3]; 2];
        let cases: [(Claim, _, _); 10] = [
            (Ordered(&["MySQL", "O1", "O2"]).into(), climb, close),
            (AtLeast("O1", "MySQL").into(), even, mysql_first),
            (
                Claim::from(AtLeast("O1", "MySQL")).at_top(),
                mysql_first,
                mysql_last,
            ),
            (AtLeast("MySQL", "O2").into(), overlap, climb),
            (
                Claim::from(AtLeast("MySQL", "O2")).on("p95_ms"),
                even,
                overlap,
            ),
            (Rising(Ratio("O2", "MySQL")).into(), wider, even),
            (Falling(Arm("MySQL")).into(), collapse, even),
            (
                Falling(Arm("MySQL")).into(),
                collapse,
                [collapse[0], [(39.5, 1.0); 3]],
            ),
            (Discriminates.into(), climb, even),
            (Stable.into(), even, bimodal),
        ];
        for (claim, holding, failing) in cases {
            assert!(holds(claim, holding).iter().all(|&held| held), "{claim:?}");
            assert!(holds(claim, failing).contains(&false), "{claim:?}");
        }
        let per_row = holds(AtLeast("O1", "MySQL").into(), mysql_first);
        assert_eq!(per_row, [false, true], "one verdict per row");
        assert_eq!(holds(Claim::from(Stable).on("unrecorded"), even), [false]);
    }

    #[test]
    fn every_panel_claims_something_besides_stable_about_its_own_arms() {
        let grid = figure("all").unwrap();
        for panel in &grid.panels {
            let claims = panel.claims.iter();
            let said = claims.filter(|claim| !matches!(claim.form, Stable)).count();
            assert!(said > 0, "`{}` claims nothing", panel.title);
        }
        let cells: Vec<Json> = grid
            .cells()
            .iter()
            .map(|c| recorded(c, (1.0, 0.0)))
            .collect();
        let board = grid
            .score(&cells)
            .expect("every arm a claim names is a column");
        assert!(board.0.len() > 90, "{} checks", board.0.len());
    }
}
