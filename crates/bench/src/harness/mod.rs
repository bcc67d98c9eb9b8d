//! The experiment-harness subsystem: declarative grids of benchmark cells.
//!
//! The paper's evidence is a grid of *cells* — one (protocol, workload,
//! thread count, configuration, replication) point each, measured with the
//! closed-loop or fixed-TPS driver.  This module makes that grid data
//! instead of code:
//!
//! * [`cell`] — [`CellSpec`] (one declarative cell) and [`CellOutcome`]
//!   (goodput, abort rate, p50/p95/p99, metrics snapshot, per-second
//!   samples for open-loop cells);
//! * [`figures`] — the paper's figures as [`Panel`] declarations (row axis ×
//!   column axis → cell and shown field) and [`GridSpec`], the one runner and
//!   table printer over them;
//! * [`grid`] — the two recorded selections: [`paper_grid`] and the CI
//!   [`smoke_grid`];
//! * [`record`] — JSON rendering of outcomes, block provenance and the
//!   `BENCH_workloads.json` checks.
//!
//! `bench_workloads` is the one entry point: `--fig N` runs a figure, no
//! selection runs the paper grid, `--record` writes what ran.

pub mod cell;
pub mod figures;
pub mod grid;
pub mod record;

pub use cell::{CellOutcome, CellSpec, REPEATS};
pub use figures::{figure, GridSpec, Panel};
pub use grid::{paper_grid, smoke_grid, SMOKE_ROWS};
pub use record::{block_json, cell_json, merge_block, render_json, validate_block, Provenance};
