//! # txsql-bench
//!
//! The paper's evaluation as data, and the two programs over it (in
//! `src/bin/`): `bench_workloads` runs, prints, records and scores every
//! figure, `exp_recovery` the §6.4.6 restart experiment.  Per-layer
//! micro-measurements are the `probe.*` metrics of the gated benchmark in
//! `benchmark/`.
//!
//! Absolute numbers are laptop-scale (this engine is an in-memory
//! reproduction, not the paper's 80-core testbed); what is expected to match
//! is the *shape*, which the [`harness`] declares as claims per figure.
//!
//! Scaling knobs (environment variables):
//!
//! * `TXSQL_BENCH_FULL=1` — use the paper's full thread ladder (8…1024) and
//!   longer measurement windows; default is a quick laptop-scale ladder.
//! * `TXSQL_BENCH_SECONDS` — measurement window per cell in seconds
//!   (fractional values allowed; default 0.4, or 2.0 with `TXSQL_BENCH_FULL`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod harness;

use std::time::Duration;

/// True when the full (paper-scale) configuration was requested.
pub fn full_scale() -> bool {
    std::env::var("TXSQL_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The client-thread ladder used by the scalability-style figures.
pub fn thread_ladder() -> Vec<usize> {
    if full_scale() {
        vec![8, 16, 32, 64, 128, 256, 512, 1024]
    } else {
        vec![8, 32, 128]
    }
}

/// The short ladder used by the ablation figures (paper: 8, 32, 256, 1024).
pub fn short_thread_ladder() -> Vec<usize> {
    if full_scale() {
        vec![8, 32, 256, 1024]
    } else {
        vec![8, 32, 128]
    }
}

/// Measurement window per benchmark cell.
pub fn measure_duration() -> Duration {
    let default = if full_scale() { 2.0 } else { 0.4 };
    let secs = std::env::var("TXSQL_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default);
    Duration::from_secs_f64(secs.max(0.05))
}

/// Warm-up window per benchmark cell.
pub fn warmup_duration() -> Duration {
    Duration::from_secs_f64(measure_duration().as_secs_f64() * 0.25)
}

/// Prints a titled, whitespace-aligned table.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(headers);
    print_row(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        print_row(row);
    }
}

/// Formats a float with a sensible number of digits for table output.
pub fn fmt(value: f64) -> String {
    if value >= 1_000.0 {
        format!("{value:.0}")
    } else if value >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_nonempty_and_increasing() {
        for ladder in [thread_ladder(), short_thread_ladder()] {
            assert!(!ladder.is_empty());
            assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn durations_are_positive() {
        assert!(measure_duration() > Duration::ZERO);
        assert!(warmup_duration() > Duration::ZERO);
    }

    #[test]
    fn fmt_uses_adaptive_precision() {
        assert_eq!(fmt(12_345.6), "12346");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(0.5), "0.500");
    }
}
