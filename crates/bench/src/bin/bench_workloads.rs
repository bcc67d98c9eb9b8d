//! The workload-grid experiment harness: the one program that runs, prints
//! and records the paper's figures and the recorded grid.
//!
//! ```text
//! bench_workloads                     # run the paper grid, print only
//! bench_workloads --fig 6             # run Figure 6's panels (2 6 7 8 9 10 11 12 13, or `all`)
//! bench_workloads --fig all --list    # print the cell ids a selection runs, run nothing
//! bench_workloads --smoke             # run the small CI grid
//! bench_workloads --smoke --fig 6     # a figure at the smoke table size
//! bench_workloads --record paper      # run the paper grid, write block `paper`
//! bench_workloads --smoke --record smoke --out target/smoke.json
//! bench_workloads --check BENCH_workloads.json   # validate an existing file
//! bench_workloads --seed 7            # override the base RNG seed
//! ```
//!
//! Every cell is `REPEATS` fresh-database repeats (a constant of the harness,
//! not a flag).  Window lengths and ladders follow `TXSQL_BENCH_SECONDS` and
//! `TXSQL_BENCH_FULL`; open-loop cells run for their trace length instead.

use serde::Json;
use std::path::PathBuf;
use txsql_bench::fmt;
use txsql_bench::harness::{
    block_json, figure, merge_block, paper_grid, record, render_json, smoke_grid, Provenance,
    REPEATS, SMOKE_ROWS,
};
use txsql_core::Protocol;

struct Args {
    smoke: bool,
    fig: Option<String>,
    list: bool,
    record: Option<String>,
    out: PathBuf,
    check: Option<PathBuf>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        fig: None,
        list: false,
        record: None,
        out: PathBuf::from("BENCH_workloads.json"),
        check: None,
        seed: 42,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--fig" => args.fig = Some(iter.next().ok_or("--fig needs a figure id or `all`")?),
            "--record" => {
                args.record = Some(
                    iter.next()
                        .ok_or("--record needs a block key (e.g. paper)")?,
                );
            }
            "--out" => {
                args.out = PathBuf::from(iter.next().ok_or("--out needs a path")?);
            }
            "--check" => {
                args.check = Some(PathBuf::from(iter.next().ok_or("--check needs a path")?));
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn fail(code: i32, message: String) -> ! {
    eprintln!("bench_workloads: {message}");
    std::process::exit(code);
}

fn main() {
    let args = parse_args().unwrap_or_else(|err| fail(2, err));

    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|err| fail(1, format!("cannot read {}: {err}", path.display())));
        match record::validate_file(&text) {
            Ok(cells) => println!("{}: schema ok ({cells} cells)", path.display()),
            Err(err) => fail(1, format!("{}: {err}", path.display())),
        }
        return;
    }

    let grid = match &args.fig {
        Some(id) => {
            let grid = figure(id).unwrap_or_else(|| fail(2, format!("no figure `{id}`")));
            grid.map_cells(|cell| {
                let cell = cell.seed(args.seed);
                if args.smoke {
                    cell.rows(SMOKE_ROWS)
                } else {
                    cell
                }
            })
        }
        None if args.smoke => smoke_grid(args.seed),
        None => paper_grid(args.seed),
    };
    if args.list {
        for cell in grid.cells() {
            println!("{}", cell.id());
        }
        return;
    }

    let provenance = Provenance::capture(&grid.name, args.seed);
    println!(
        "grid `{}`: {} cells x {REPEATS} repeats, warmup {:.2}s + measure {:.2}s per closed-loop \
         repeat, seed {}, commit {}, {} CPUs",
        grid.name,
        grid.cells().len(),
        provenance.warmup_secs,
        provenance.measure_secs,
        args.seed,
        provenance.commit,
        provenance.nproc,
    );

    let outcomes = grid.run(|outcome| {
        let mut line = format!(
            "cell {:<55} goodput={:>9} tps (iqr {})  aborts={:>6.2}%  p95={} ms ",
            outcome.id(),
            fmt(outcome.goodput_tps),
            fmt(outcome.goodput_iqr),
            outcome.abort_rate_pct,
            fmt(outcome.p95_ms),
        );
        for (key, value) in &outcome.extras {
            let value = match value {
                Json::F64(value) => fmt(*value),
                other => render_json(other),
            };
            line.push_str(&format!(" {key}={value}"));
        }
        println!("{line}");
    });
    grid.print(&outcomes);

    // §6.4.5-style check on every TPC-C cell: warehouse YTD == sum of its
    // districts.  Reported rather than fatal for Bamboo, whose early lock
    // release can leak an aborted delta into a dependent after-image under
    // multi-statement transactions (a known limit of this reproduction's
    // cascade handling); every other protocol must pass.
    for outcome in &outcomes {
        if outcome.tpcc_consistent == Some(false) {
            println!("  !! TPC-C consistency check failed: {}", outcome.id());
            if outcome.spec.protocol != Protocol::Bamboo {
                fail(1, format!("TPC-C consistency violated: {}", outcome.id()));
            }
        }
    }

    let block = block_json(&outcomes, &provenance);
    match record::validate_block(&block) {
        Ok(cells) => println!("block schema: ok ({cells} cells)"),
        Err(err) => fail(1, format!("emitted block failed validation: {err}")),
    }
    if let Some(key) = &args.record {
        if let Err(err) = merge_block(&args.out, key, &block) {
            fail(1, format!("cannot record to {}: {err}", args.out.display()));
        }
        println!("recorded block `{key}` to {}", args.out.display());
    }
}
