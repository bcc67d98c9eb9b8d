//! The experiment-harness subsystem: the paper's evidence as data.
//!
//! * [`cell`] — [`CellSpec`], one (protocol, workload, threads,
//!   configuration, replication) point, and its measured [`CellOutcome`];
//! * [`figures`] — the paper's figures as [`Panel`]s of cells, with the
//!   paper's claims about each, and [`GridSpec`], which runs, prints and
//!   scores them;
//! * [`grid`] — the selections a record can name: a figure, `all` of them,
//!   or the CI [`smoke_grid`];
//! * [`record`] — the JSON record of a run and `--check`.
//!
//! `bench_workloads` is the one entry point: every run and every `--check`
//! ends in the scoreboard of the selection's claims.

pub mod cell;
pub mod figures;
pub mod grid;
pub mod record;

pub use cell::{CellOutcome, CellSpec, REPEATS};
pub use figures::{figure, GridSpec, Panel, Scoreboard};
pub use grid::{selection, smoke_grid, SMOKE_ROWS};
pub use record::{block_json, check, render_json, Provenance};
