//! Turns runs into the named metrics, and result files into verdicts.
//!
//! End-to-end numbers always come from untraced runs: [`end_to_end`] runs the
//! repeats and reports medians.  [`per_layer`] makes the three extra runs that
//! explain them — an untraced reference, the traced run and a 2PL baseline,
//! all on the same streams and windows — plus the layer probes.

use crate::driver::{self, RunResult, RunSpec, Window};
use crate::engine::{Engine, Protocol};
use crate::json::{self, Json, JsonExt};
use crate::probes;
use crate::stats;
use crate::trace;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How one invocation measures.  Recorded verbatim in every result file.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub clients: usize,
    /// Measured seconds per workload and mode, split over the runs.
    pub seconds: f64,
    /// Fresh-database repeats behind each end-to-end value: [`REPEATS`], or
    /// 1 under `--quick`.
    pub repeats: u32,
    /// Unmeasured lead-in of every run.
    pub warmup: Duration,
    pub probe_window: Duration,
}

/// Repeats of a full-length set.  Not a flag: the measured window is
/// `seconds / REPEATS`, and `hot_update_mem` reads differently at other window
/// lengths (README, finding 4), so changing it changes what is measured.
pub const REPEATS: u32 = 6;

/// Runs behind the per-layer metrics: reference, traced, 2PL baseline.
const PER_LAYER_RUNS: f64 = 3.0;

/// The end-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("tps", "txn/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_us_per_txn", "us"),
    ("setup_s", "s"),
];

/// What one mode of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// `(name, unit, value, samples behind it)`.
    pub metrics: Vec<(String, &'static str, f64, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty means correct.
    pub errors: Vec<String>,
    /// Anything else worth keeping in the result file.
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line the gate parses.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, value, _)| {
            let fields = [("value", Json::F64(*value)), ("unit", json::text(*unit))];
            (name.clone(), json::obj(fields))
        });
        json::to_line(&json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", json::obj(metrics)),
        ]))
    }

    /// The same, with the samples, for result files.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, unit, value, samples)| {
            let mut fields = vec![("value", Json::F64(*value)), ("unit", json::text(*unit))];
            if samples.len() > 1 {
                let (lo, hi) = min_max(samples);
                fields.push(("min", Json::F64(lo)));
                fields.push(("max", Json::F64(hi)));
                fields.push(("median_gap", Json::F64(stats::median_gap(samples))));
                fields.push(("samples", json::nums(samples)));
            }
            (name.clone(), json::obj(fields))
        });
        let mut fields = vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::U64(self.attempted)),
            ("failed".to_string(), Json::U64(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics.collect())),
        ];
        if !self.errors.is_empty() {
            let errors = self.errors.iter().map(json::text).collect();
            fields.push(("errors".to_string(), Json::Arr(errors)));
        }
        fields.extend(self.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
        Json::Obj(fields)
    }

    pub fn print(&self, workload: &str) {
        for (name, unit, value, samples) in &self.metrics {
            let detail = if samples.len() > 1 {
                let (lo, hi) = min_max(samples);
                format!(
                    "  [median of {}: min {lo:.4} max {hi:.4} middle pair {:.1} % apart]",
                    samples.len(),
                    stats::median_gap(samples) * 100.0
                )
            } else {
                String::new()
            };
            println!("{workload:<18} {name:<46} {value:>14.4} {unit}{detail}");
        }
        for error in &self.errors {
            println!("{workload:<18} CHECK FAILED: {error}");
        }
    }
}

fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), s| (lo.min(*s), hi.max(*s)))
}

fn spec(workload: Workload, settings: &Settings, runs: f64) -> RunSpec {
    RunSpec {
        workload,
        protocol: Protocol::GroupLockingTxsql,
        seed: settings.seed,
        repeat: 0,
        clients: settings.clients,
        warmup: settings.warmup,
        measure: Duration::from_secs_f64(settings.seconds / runs),
        traced: false,
        check_restart: false,
    }
}

fn tally(outcome: &mut Outcome, label: &str, result: &RunResult) {
    outcome.attempted += result.window.attempted;
    outcome.failed += result.window.failed;
    if let Err(err) = &result.check {
        outcome.errors.push(format!("{label}: {err}"));
    }
}

/// The untraced repeats: a fresh database each, medians reported.
pub fn end_to_end(workload: Workload, settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    // A process's first set-up also pays for growing its heap (0.13 s against
    // 0.045 s); a user pays that once per process, not per set-up.
    Engine::set_up(workload, Protocol::GroupLockingTxsql).shut_down();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for repeat in 0..settings.repeats {
        let last = repeat + 1 == settings.repeats;
        let result = driver::run(&RunSpec {
            repeat: repeat as u64,
            // Acked ⊆ durable, once per set: replaying a hot row's log is
            // quadratic in its length, so only the FiT run can afford it.
            check_restart: last && workload == Workload::FitSsd,
            ..spec(workload, settings, settings.repeats as f64)
        });
        tally(&mut outcome, &format!("repeat {repeat}"), &result);
        let w = &result.window;
        for (slot, value) in [w.tps, w.p50_ms, w.p99_ms, w.cpu_us_per_txn, result.setup_s]
            .into_iter()
            .enumerate()
        {
            samples[slot].push(value);
        }
        if let Some((elapsed, replayed)) = result.restart {
            outcome.notes.push((
                "restart",
                json::obj([
                    ("seconds", Json::F64(elapsed.as_secs_f64())),
                    ("replayed_records", Json::U64(replayed as u64)),
                ]),
            ));
        }
    }
    for ((name, unit), values) in END_TO_END.into_iter().zip(samples) {
        outcome
            .metrics
            .push((name.to_string(), unit, stats::median(&values), values));
    }
    outcome
}

fn per_txn(count: u64, window: &Window) -> f64 {
    count as f64 / window.committed.max(1) as f64
}

/// The traced run, the counters at the same boundaries, the layer probes and
/// the 2PL baseline.  Writes the span file into `out_dir`.
pub fn per_layer(workload: Workload, settings: &Settings, out_dir: &Path) -> Outcome {
    let base = spec(workload, settings, PER_LAYER_RUNS);
    let reference = driver::run(&base);
    let traced = driver::run(&RunSpec {
        traced: true,
        ..base
    });
    let baseline = driver::run(&RunSpec {
        protocol: Protocol::Mysql2pl,
        ..base
    });

    let mut outcome = Outcome::default();
    tally(&mut outcome, "reference run", &reference);
    tally(&mut outcome, "traced run", &traced);
    tally(&mut outcome, "2PL baseline run", &baseline);
    let mut push = |name: &str, unit: &'static str, value: f64| {
        outcome
            .metrics
            .push((name.to_string(), unit, value, Vec::new()));
    };

    // 1. Spans.
    let trace = traced.trace.as_ref().expect("a traced run records spans");
    let (totals, spans) = (&trace.totals, &trace.clients);
    let w = &traced.window;
    let committed = w.committed.max(1) as f64;
    push("trace.txn_us", "us", totals.txn_ns as f64 / committed / 1e3);
    for (label, ns) in totals.by_label() {
        push(
            &format!("trace.{label}_us"),
            "us",
            ns as f64 / committed / 1e3,
        );
        push(
            &format!("trace.{label}_share"),
            "share",
            ns as f64 / totals.txn_ns.max(1) as f64,
        );
    }
    push(
        "trace.overhead_pct",
        "%",
        (1.0 - w.tps / reference.window.tps.max(f64::MIN_POSITIVE)) * 100.0,
    );

    // 2. Counters over the traced window.
    let c = &traced.counters;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let per_ktxn = |count: u64| per_txn(count * 1_000, w);
    for (name, unit, value) in [
        (
            "lockmgr.lock_waits_per_txn",
            "count",
            per_txn(c.lock_waits, w),
        ),
        ("lockmgr.lock_wait_mean_us", "us", c.lock_wait_mean_us),
        (
            "lockmgr.locks_per_txn",
            "count",
            per_txn(c.locks_created, w),
        ),
        (
            "lockmgr.deadlock_checks_per_txn",
            "count",
            per_txn(c.deadlock_checks, w),
        ),
        (
            "lockmgr.group.hot_entries_per_txn",
            "count",
            per_txn(c.hot_entries, w),
        ),
        (
            "lockmgr.group.size_mean",
            "count",
            ratio(c.hot_entries, c.groups_formed),
        ),
        (
            "core.commit.batch_size_mean",
            "count",
            ratio(c.commit_synced, c.commit_batches),
        ),
        ("core.retries_per_txn", "count", per_txn(w.retries, w)),
        (
            "core.blocked_share",
            "share",
            ratio(c.blocked_ns, c.blocked_ns + c.busy_ns),
        ),
        ("core.failed_pct", "%", ratio(w.failed * 100, w.attempted)),
        (
            "core.aborts.deadlock_per_ktxn",
            "count",
            per_ktxn(c.aborts_deadlock),
        ),
        (
            "core.aborts.wait_timeout_per_ktxn",
            "count",
            per_ktxn(c.aborts_wait_timeout),
        ),
        (
            "core.aborts.cascading_per_ktxn",
            "count",
            per_ktxn(c.aborts_cascading),
        ),
        (
            "storage.wal.records_per_txn",
            "count",
            per_txn(c.wal_records, w),
        ),
        (
            "storage.wal.fsyncs_per_txn",
            "count",
            per_txn(c.wal_fsyncs, w),
        ),
    ] {
        push(name, unit, value);
    }
    // The benchmark's own sample and span lists grow inside the window too.
    let span_count: usize = spans.iter().map(Vec::len).sum();
    let own_kb = (w.attempted as f64 * driver::SAMPLE_BYTES as f64
        + span_count as f64 * std::mem::size_of::<trace::Span>() as f64 * w.seconds
            / (w.seconds + settings.warmup.as_secs_f64()))
        / 1024.0;
    push(
        "storage.rss_kb_per_ktxn",
        "KiB",
        (w.rss_kb_growth - own_kb).max(0.0) / committed * 1_000.0,
    );
    push(
        "replication.degraded_commits",
        "count",
        traced.degraded_commits as f64,
    );

    // 3. Probes.
    for (name, unit, value) in probes::run_all(settings.probe_window) {
        push(name, unit, value);
    }

    // The paper-shape diagnostic: reported, never gated.
    push("baseline_2pl.tps", "txn/s", baseline.window.tps);
    push(
        "baseline_2pl.gain",
        "ratio",
        reference.window.tps / baseline.window.tps.max(f64::MIN_POSITIVE),
    );

    let file = trace::span_file(workload.name(), trace.window_ns, spans, totals);
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    match write_file(&path, &json::to_line(&file)) {
        Ok(()) => outcome
            .notes
            .push(("span_file", json::text(path.display().to_string()))),
        Err(err) => outcome.errors.push(err),
    }
    outcome
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|err| format!("{}: {err}", path.display()))
}

/// The benchmark's directory: where cargo says the package is when it runs
/// us, else where it was when it built us.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// One end-to-end metric of the contract in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end gates from `BENCHMARK.json`, the one place the
/// bounds are written down.
pub fn gates(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let contract = json::parse(benchmark_json)?;
    contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|entry| {
            let field = |key| {
                entry
                    .get(key)
                    .ok_or(format!("BENCHMARK.json: metric without {key}"))
            };
            Ok(Gate {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The second median is worse than the first by more than the bound.
    Worse,
    /// The middle repeats of either side lie further apart than the bound: a
    /// set straddles two modes, its median would average them away, and
    /// nothing is claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(gate: &Gate, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if gate.higher_is_better {
        -change
    } else {
        change
    }
}

/// Judges two sets by the per-repeat samples of one metric: the medians are
/// what the report prints, and the doubt is measured on those medians.
pub fn verdict(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    if stats::median_gap(a).max(stats::median_gap(b)) > gate.bound {
        Verdict::Unresolved
    } else if worsening(gate, stats::median(a), stats::median(b)) > gate.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Failed transactions may rise by this many percentage points.
const FAILED_PCT_BOUND: f64 = 0.5;

/// The per-repeat samples of a metric in a result file (a single-repeat set
/// records only its value).
fn samples_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let samples: Vec<f64> = match entry.get("samples").and_then(Json::as_arr) {
        Some(samples) => samples.iter().map(Json::as_f64).collect::<Option<_>>()?,
        None => vec![entry.get("value")?.as_f64()?],
    };
    (!samples.is_empty()).then_some(samples)
}

fn failed_pct(file: &Json, workload: &str) -> Option<f64> {
    let run = file.get("workloads")?.get(workload)?.get("end_to_end")?;
    let attempted = run.get("attempted")?.as_f64()?;
    Some(run.get("failed")?.as_f64()? * 100.0 / attempted.max(1.0))
}

/// Prints one row per (workload, end-to-end metric) of two result files and
/// returns whether every row is `ok`.
pub fn compare(a: &Json, b: &Json, gates: &[Gate]) -> Result<bool, String> {
    let provenance = |file: &Json| {
        let settings = file.get("settings");
        ["seed", "clients", "seconds"]
            .map(|key| settings.and_then(|s| s.get(key)).and_then(Json::as_f64))
    };
    if provenance(a) != provenance(b) {
        return Err(format!(
            "the two sets were not measured alike (seed, clients, seconds): {:?} vs {:?}",
            provenance(a),
            provenance(b)
        ));
    }
    let mut all_ok = true;
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "mid gap"
    );
    for workload in Workload::ALL {
        let name = workload.name();
        for gate in gates {
            let (Some(sa), Some(sb)) = (
                samples_of(a, name, &gate.name),
                samples_of(b, name, &gate.name),
            ) else {
                return Err(format!("{name}/{}: missing from a result file", gate.name));
            };
            let (va, vb) = (stats::median(&sa), stats::median(&sb));
            let verdict = verdict(gate, &sa, &sb);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{name:<18} {:<16} {va:>12.4} {vb:>12.4} {:>8.1}% {:>6.1}% {:>7.1}%  {}",
                gate.name,
                worsening(gate, va, vb) * 100.0,
                gate.bound * 100.0,
                stats::median_gap(&sa).max(stats::median_gap(&sb)) * 100.0,
                verdict.label()
            );
        }
        let (Some(fa), Some(fb)) = (failed_pct(a, name), failed_pct(b, name)) else {
            return Err(format!("{name}: no attempted/failed counts"));
        };
        let ok = fb <= fa + FAILED_PCT_BOUND;
        all_ok &= ok;
        println!(
            "{name:<18} {:<16} {fa:>12.4} {fb:>12.4} {:>7.2}pt {:>5.1}pt {:>8}  {}",
            "failed_pct",
            fb - fa,
            FAILED_PCT_BOUND,
            "",
            if ok { "ok" } else { "worse" }
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str, higher_is_better: bool, bound: f64) -> Gate {
        Gate {
            name: name.to_string(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let judge = verdict;
        let tps = gate("tps", true, 0.10);
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&tps, &steady_a, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tps, &steady_a, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Worse
        );
        // Faster is never worse, however far.
        assert_eq!(
            judge(&tps, &steady_a, &[150.0, 151.0, 149.0, 150.5, 149.5]),
            Verdict::Ok
        );
        // Two modes inside one set: nothing can be claimed either way.
        let bimodal = [100.0, 76.0, 100.0, 76.0, 100.0, 76.0];
        assert_eq!(judge(&tps, &bimodal, &steady_a), Verdict::Unresolved);
        assert_eq!(judge(&tps, &steady_a, &bimodal), Verdict::Unresolved);

        let p99 = gate("p99_ms", false, 0.25);
        assert_eq!(judge(&p99, &[2.0, 2.1, 1.9], &[2.4, 2.5, 2.3]), Verdict::Ok);
        assert_eq!(
            judge(&p99, &[2.0, 2.1, 1.9], &[2.6, 2.7, 2.5]),
            Verdict::Worse
        );
        assert_eq!(judge(&p99, &[2.0, 2.1, 1.9], &[1.0, 1.1, 0.9]), Verdict::Ok);
        // One cold repeat per set, as every first repeat on `hot_update_mem`
        // is, leaves the medians and the verdict alone.
        assert_eq!(
            judge(
                &p99,
                &[1.3, 0.5, 0.52, 0.49, 0.5, 0.69],
                &[1.2, 0.53, 0.53, 0.55, 0.55, 0.54]
            ),
            Verdict::Ok
        );
        assert!((worsening(&p99, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(&tps, 100.0, 90.0) - 0.10).abs() < 1e-12);
    }

    /// `BENCHMARK.json` and the code must name the same metrics: the gate
    /// refuses a result line with a missing or extra key.
    #[test]
    fn benchmark_json_names_exactly_what_the_code_reports() {
        let text = include_str!("../../BENCHMARK.json");
        let contract = json::parse(text).unwrap();
        let names = |key: &str| -> Vec<String> {
            contract
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.map(|(name, _)| name));
        assert_eq!(names("workloads"), Workload::ALL.map(Workload::name));
        for gate in gates(text).unwrap() {
            assert!(gate.bound > 0.0 && gate.bound <= 0.25, "{gate:?}");
            assert_eq!(gate.higher_is_better, gate.name == "tps");
        }

        let settings = Settings {
            seed: 42,
            clients: 2,
            seconds: 0.3,
            repeats: 1,
            warmup: Duration::from_millis(20),
            probe_window: Duration::from_millis(5),
        };
        let out = package_dir().join(format!("out/test-{}", std::process::id()));
        let traced = per_layer(Workload::FitSsd, &settings, &out);
        assert!(traced.correct(), "{:?}", traced.errors);
        let mut reported: Vec<String> = traced.metrics.iter().map(|m| m.0.clone()).collect();
        let mut listed = names("per_layer");
        reported.sort();
        listed.sort();
        assert_eq!(reported, listed);
        let units: Vec<(String, String)> = contract
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        for (name, unit, _, _) in &traced.metrics {
            assert!(
                units.contains(&(name.clone(), unit.to_string())),
                "{name}: unit {unit}"
            );
        }
        let shares: f64 = traced
            .metrics
            .iter()
            .filter(|m| m.0.ends_with("_share") && m.0.starts_with("trace."))
            .map(|m| m.2)
            .sum();
        assert!((shares - 1.0).abs() < 0.02, "trace shares sum to {shares}");
        let span_file = std::fs::read_to_string(out.join("trace-fit_ssd.json")).unwrap();
        assert!(json::parse(&span_file).unwrap().get("spans").is_some());
        let _ = std::fs::remove_dir_all(&out);

        let untraced = end_to_end(Workload::HotUpdateMem, &settings);
        assert!(untraced.correct(), "{:?}", untraced.errors);
        let line = untraced.result_line();
        assert!(!line.contains('\n'));
        let keys = |value: &Json| -> Vec<String> {
            let Json::Obj(pairs) = value else {
                panic!("not an object: {value:?}");
            };
            pairs.iter().map(|(k, _)| k.clone()).collect()
        };
        let line = json::parse(&line).unwrap();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(line.get("attempted"), Some(Json::U64(n)) if *n >= 1));
        assert_eq!(
            keys(line.get("metrics").unwrap()),
            END_TO_END.map(|(name, _)| name)
        );
    }

    #[test]
    fn compare_reads_result_files_and_refuses_mismatched_provenance() {
        let file = |seed: u64, tps: [f64; 3], failed: u64| {
            let metric = |samples: &[f64]| {
                json::obj([
                    ("value", Json::F64(stats::median(samples))),
                    ("samples", json::nums(samples)),
                ])
            };
            let run = json::obj([
                ("attempted", Json::U64(1000)),
                ("failed", Json::U64(failed)),
                ("metrics", json::obj([("tps", metric(&tps))])),
            ]);
            json::obj([
                (
                    "settings",
                    json::obj([
                        ("seed", Json::U64(seed)),
                        ("clients", Json::U64(2)),
                        ("seconds", Json::F64(20.0)),
                    ]),
                ),
                (
                    "workloads",
                    Json::Obj(
                        Workload::ALL
                            .iter()
                            .map(|w| {
                                (
                                    w.name().to_string(),
                                    json::obj([("end_to_end", run.clone())]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let gates = [gate("tps", true, 0.10)];
        let a = file(42, [100.0, 101.0, 99.0], 0);
        assert_eq!(
            compare(&a, &file(42, [97.0, 98.0, 96.0], 0), &gates),
            Ok(true)
        );
        assert_eq!(
            compare(&a, &file(42, [80.0, 81.0, 79.0], 0), &gates),
            Ok(false)
        );
        assert_eq!(
            compare(&a, &file(42, [100.0, 101.0, 99.0], 9), &gates),
            Ok(false)
        );
        assert!(compare(&a, &file(7, [100.0, 101.0, 99.0], 0), &gates).is_err());
        assert!(compare(&a, &json::obj([("settings", Json::Null)]), &gates).is_err());
    }
}
