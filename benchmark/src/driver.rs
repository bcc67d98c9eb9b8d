//! The closed-loop driver: `clients` threads, each sending its next
//! transaction when the last one returns (the paper's SysBench-client model).
//!
//! A retryable error is retried at once, up to [`MAX_ATTEMPTS`] attempts, and
//! a transaction's latency runs from its first attempt to its final outcome.
//! Every run ends with the output check of `engine::Engine::verify`.

use crate::engine::{Counters, Engine, Protocol};
use crate::stats;
use crate::trace::{Recorder, Span, SpanName, Totals};
use crate::workloads::{Commit, Expected, Generator, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Attempts per transaction, the first one included.
pub const MAX_ATTEMPTS: u32 = 10;

/// One run of one workload on a fresh database.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub protocol: Protocol,
    pub seed: u64,
    /// Selects the program streams together with `seed`.
    pub repeat: u64,
    pub clients: usize,
    pub warmup: Duration,
    pub measure: Duration,
    pub traced: bool,
    /// Restart from the crash image after the run and check again.
    pub check_restart: bool,
}

/// What one client transaction came to.
struct Sample {
    end_ns: u64,
    latency_ns: u64,
    outcome: Commit,
    attempts: u32,
}

/// Bytes one transaction adds to the benchmark's own sample lists (subtracted
/// from the resident-set growth attributed to the engine).
pub const SAMPLE_BYTES: usize = std::mem::size_of::<Sample>();

/// Client-side numbers over the measured window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub seconds: f64,
    pub attempted: u64,
    pub committed: u64,
    pub rolled_back: u64,
    pub failed: u64,
    pub retries: u64,
    pub tps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub cpu_us_per_txn: f64,
    pub rss_kb_growth: f64,
}

/// What a traced run recorded.
pub struct Trace {
    pub totals: Totals,
    /// The measured window on the span clock.
    pub window_ns: (u64, u64),
    /// One span list per client.
    pub clients: Vec<Vec<Span>>,
}

pub struct RunResult {
    pub setup_s: f64,
    pub window: Window,
    pub counters: Counters,
    pub degraded_commits: u64,
    /// Traced runs only.
    pub trace: Option<Trace>,
    /// `Err` carries the first failed output check.
    pub check: Result<(), String>,
    /// Restart time and records replayed, when `check_restart` was set.
    pub restart: Option<(Duration, usize)>,
}

pub fn run(spec: &RunSpec) -> RunResult {
    let setup_start = Instant::now();
    let engine = Engine::set_up(spec.workload, spec.protocol);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let stop = AtomicBool::new(false);
    let start_line = Barrier::new(spec.clients + 1);
    let origin = Instant::now();
    // Room for the whole run at well above any rate seen, so the sample and
    // span lists never reallocate inside the window.
    let capacity = ((spec.warmup + spec.measure).as_secs_f64() * 200_000.0) as usize;

    let (window_ns, cpu_us, rss_kb, counters, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                let (engine, stop, start_line) = (&engine, &stop, &start_line);
                scope.spawn(move || {
                    let mut generator =
                        Generator::new(spec.workload, spec.seed, spec.repeat, client as u64 + 1);
                    let mut expected = Expected::new(spec.workload);
                    let mut samples = Vec::with_capacity(capacity);
                    let mut rec = Recorder::new(origin, if spec.traced { capacity * 8 } else { 0 });
                    start_line.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let program = generator.next_program();
                        let start = origin.elapsed();
                        let txn_span = spec.traced.then(|| rec.open(SpanName::Txn));
                        let mut attempts = 0;
                        let outcome = loop {
                            attempts += 1;
                            let result = if spec.traced {
                                engine.execute_traced(&program, &mut rec)
                            } else {
                                engine.execute(&program)
                            };
                            match result {
                                Ok(outcome) if outcome.committed => break Commit::Committed,
                                Ok(_) => break Commit::RolledBack,
                                Err(err) if err.is_retryable() && attempts < MAX_ATTEMPTS => {}
                                Err(_) => break Commit::Failed,
                            }
                        };
                        if let Some(id) = txn_span {
                            rec.close(id);
                        }
                        let end = origin.elapsed();
                        expected.record(&program, outcome);
                        samples.push(Sample {
                            end_ns: end.as_nanos() as u64,
                            latency_ns: (end - start).as_nanos() as u64,
                            outcome,
                            attempts,
                        });
                    }
                    (samples, expected, rec.into_spans())
                })
            })
            .collect();

        start_line.wait();
        std::thread::sleep(spec.warmup);
        let mark = engine.begin_window();
        let (cpu_start, rss_start) = (stats::process_cpu_us(), stats::process_rss_kb());
        let window_start = origin.elapsed();
        std::thread::sleep(spec.measure);
        let window_end = origin.elapsed();
        let cpu_us = stats::process_cpu_us() - cpu_start;
        let rss_kb = stats::process_rss_kb() as f64 - rss_start as f64;
        let counters = engine.end_window(&mark, window_end - window_start);
        stop.store(true, Ordering::Relaxed);
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let window_ns = (window_start.as_nanos() as u64, window_end.as_nanos() as u64);
        (window_ns, cpu_us, rss_kb, counters, clients)
    });

    let mut expected = Expected::new(spec.workload);
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (client_samples, client_expected, client_spans) in clients {
        samples.extend(client_samples);
        expected.merge(client_expected);
        spans.push(client_spans);
    }
    let window = summarize(&samples, window_ns, cpu_us, rss_kb);
    let trace = spec.traced.then(|| {
        let mut totals = Totals::default();
        for client in &spans {
            totals.add(client, window_ns);
        }
        Trace {
            totals,
            window_ns,
            clients: spans,
        }
    });

    let check = engine.verify(&expected);
    let (check, restart) = match check {
        Ok(()) if spec.check_restart => match engine.restart_and_verify(&expected) {
            Ok(restart) => (Ok(()), Some(restart)),
            Err(err) => (Err(err), None),
        },
        other => (other, None),
    };
    let degraded_commits = engine.degraded_commits();
    engine.shut_down();
    RunResult {
        setup_s,
        window,
        counters,
        degraded_commits,
        trace,
        check,
        restart,
    }
}

/// Reduces the clients' samples to the transactions that *ended* inside the
/// window.
fn summarize(samples: &[Sample], window_ns: (u64, u64), cpu_us: f64, rss_kb: f64) -> Window {
    let inside = samples
        .iter()
        .filter(|s| s.end_ns >= window_ns.0 && s.end_ns <= window_ns.1);
    let mut window = Window {
        seconds: (window_ns.1 - window_ns.0) as f64 / 1e9,
        rss_kb_growth: rss_kb,
        ..Window::default()
    };
    let mut latencies = Vec::new();
    for sample in inside {
        window.attempted += 1;
        window.retries += (sample.attempts - 1) as u64;
        match sample.outcome {
            Commit::Committed => window.committed += 1,
            Commit::RolledBack => window.rolled_back += 1,
            Commit::Failed => window.failed += 1,
        }
        latencies.push(sample.latency_ns);
    }
    latencies.sort_unstable();
    window.tps = window.committed as f64 / window.seconds;
    if !latencies.is_empty() {
        window.p50_ms = stats::percentile_sorted(&latencies, 0.50) as f64 / 1e6;
        window.p99_ms = stats::p99_band(&latencies) / 1e6;
    }
    if window.committed > 0 {
        window.cpu_us_per_txn = cpu_us / window.committed as f64;
    }
    window
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_ns: u64, latency_ns: u64, outcome: Commit, attempts: u32) -> Sample {
        Sample {
            end_ns,
            latency_ns,
            outcome,
            attempts,
        }
    }

    #[test]
    fn window_counts_completions_inside_it_and_fails_count_as_attempted() {
        let samples = [
            sample(50, 10, Commit::Committed, 1), // warm-up
            sample(1_000, 2_000_000, Commit::Committed, 1),
            sample(2_000, 4_000_000, Commit::Committed, 3),
            sample(3_000, 6_000_000, Commit::RolledBack, 1),
            sample(4_000, 8_000_000, Commit::Failed, 10),
            sample(2_000_000_001, 10, Commit::Committed, 1), // after the window
        ];
        let w = summarize(&samples, (1_000, 2_000_000_000), 3_000.0, 64.0);
        assert_eq!(
            (w.attempted, w.committed, w.rolled_back, w.failed),
            (4, 2, 1, 1)
        );
        assert_eq!(w.retries, 2 + 9);
        assert!((w.tps - 1.0).abs() < 1e-3, "2 commits in ~2 s: {}", w.tps);
        assert_eq!(w.p50_ms, 4.0);
        assert_eq!(w.p99_ms, 8.0);
        assert_eq!(w.cpu_us_per_txn, 1_500.0);
    }

    #[test]
    fn a_short_contended_run_commits_checks_and_restarts() {
        let result = run(&RunSpec {
            workload: Workload::FitSsd,
            protocol: Protocol::GroupLockingTxsql,
            seed: 42,
            repeat: 0,
            clients: 2,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(300),
            traced: true,
            check_restart: true,
        });
        result.check.unwrap();
        assert!(result.window.committed > 0);
        assert_eq!(result.window.failed, 0);
        assert!(
            result.counters.hot_entries > 0,
            "the pinned row takes the group path"
        );
        let trace = result.trace.unwrap();
        assert_eq!(trace.clients.len(), 2);
        let self_ns: u64 = trace.totals.by_label().map(|(_, ns)| ns).sum();
        assert_eq!(self_ns, trace.totals.txn_ns);
        assert!(result.restart.unwrap().1 > 0);
    }
}
