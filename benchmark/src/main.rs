//! The gated benchmark: four contention workloads against the product
//! configuration, five bounded end-to-end metrics from untraced runs, and a
//! traced run plus layer probes that say where a transaction's time went.
//! See README.md for every metric, workload and flag.

mod driver;
mod engine;
mod json;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{Settings, REPEATS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

const USAGE: &str = "\
usage: txsql-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                       [--clients N] [--quick] [--selfcheck]
       txsql-benchmark --compare A.json B.json

  --workload NAME   run one workload and end with the gate's result line
                    (hot_update_sync, hot_update_mem, fit_ssd, uniform_mixed_mem);
                    without it, run all four in both modes and write out/latest.json
  --seed N          seed of the program streams (default 42)
  --seconds S       measured seconds per workload and mode (default 21), split
                    over 6 fresh-database repeats
  --trace 0|1       with --workload: 0 = end-to-end metrics from untraced repeats
                    (default), 1 = per-layer metrics from the traced run and probes
  --clients N       closed-loop client threads (default min(nproc, 4))
  --quick           smoke mode: 1 repeat, 1 s, 0.05 s probes (not with --seconds)
  --selfcheck       measure two end-to-end sets back to back, compare them, and
                    exit non-zero unless every row is ok (not with --workload)
  --compare A B     compare two result files against the bounds in BENCHMARK.json
                    (takes no other flag)

exit status: 0 = every output check passed (and, for --selfcheck/--compare, every
row is ok), 1 = a check failed or a row is not ok, 2 = the command line or a file
could not be read.  Failed transactions are reported and compared, never fatal.";

struct Args {
    workload: Option<Workload>,
    trace: bool,
    selfcheck: bool,
    compare: Option<(PathBuf, PathBuf)>,
    settings: Settings,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        trace: false,
        selfcheck: false,
        compare: None,
        settings: Settings {
            seed: 42,
            clients: nproc().min(4),
            seconds: 21.0,
            repeats: REPEATS,
            warmup: Duration::from_millis(500),
            probe_window: Duration::from_millis(200),
        },
    };
    let (mut quick, mut seconds_given, mut trace_given) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.settings.seed = number(flag, value()?)?,
            "--seconds" => {
                let seconds: f64 = number(flag, value()?)?;
                if !(0.1..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds}: must be between 0.1 and 600"));
                }
                parsed.settings.seconds = seconds;
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
                trace_given = true;
            }
            "--clients" => {
                parsed.settings.clients = number(flag, value()?)?;
                if !(1..=256).contains(&parsed.settings.clients) {
                    return Err("--clients must be between 1 and 256".into());
                }
            }
            "--quick" => quick = true,
            "--selfcheck" => parsed.selfcheck = true,
            "--compare" => {
                parsed.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // A flag that would be ignored is a mistake on the command line.
    if parsed.compare.is_some() && args.len() != 3 {
        return Err("--compare A B takes no other flag".into());
    }
    if trace_given && parsed.workload.is_none() {
        return Err("--trace needs --workload (a full run always measures both modes)".into());
    }
    if parsed.selfcheck && parsed.workload.is_some() {
        return Err("--selfcheck compares full sets and takes no --workload".into());
    }
    if quick && seconds_given {
        return Err("--quick fixes the window at 1 s and takes no --seconds".into());
    }
    if quick {
        parsed.settings.repeats = 1;
        parsed.settings.seconds = 1.0;
        parsed.settings.warmup = Duration::from_millis(100);
        parsed.settings.probe_window = Duration::from_millis(50);
    }
    Ok(parsed)
}

/// The commit of a git checkout, read from `.git` without running anything;
/// the gate's checkouts are not repositories and say so.
fn git_commit(root: &Path) -> String {
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "not a git checkout".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(root.join(".git").join(reference)).map_or_else(
            || format!("unborn {reference}"),
            |hash| hash.trim().to_string(),
        ),
        None => head.trim().to_string(),
    }
}

fn settings_json(settings: &Settings, root: &Path) -> Json {
    json::obj([
        ("seed", Json::U64(settings.seed)),
        ("clients", Json::U64(settings.clients as u64)),
        ("nproc", Json::U64(nproc() as u64)),
        ("seconds", Json::F64(settings.seconds)),
        ("repeats", Json::U64(settings.repeats.into())),
        ("warmup_seconds", Json::F64(settings.warmup.as_secs_f64())),
        (
            "probe_seconds",
            Json::F64(settings.probe_window.as_secs_f64()),
        ),
        ("max_attempts", Json::U64(driver::MAX_ATTEMPTS.into())),
        ("git_commit", json::text(git_commit(root))),
    ])
}

/// One full set.  Returns the result file and whether every output check
/// passed; failed transactions are in the file, for `--compare` to judge.
fn run_set(settings: &Settings, with_per_layer: bool, package: &Path) -> (Json, bool) {
    let mut correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut modes = Vec::new();
        let end_to_end = report::end_to_end(workload, settings);
        end_to_end.print(workload.name());
        correct &= end_to_end.correct();
        modes.push(("end_to_end", end_to_end.to_json()));
        if with_per_layer {
            let per_layer = report::per_layer(workload, settings, &package.join("out"));
            per_layer.print(workload.name());
            correct &= per_layer.correct();
            modes.push(("per_layer", per_layer.to_json()));
        }
        workloads.push((workload.name(), json::obj(modes)));
    }
    let root = package.parent().unwrap_or(package);
    let file = json::obj([
        ("settings", settings_json(settings, root)),
        ("workloads", json::obj(workloads)),
    ]);
    (file, correct)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
    json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))
}

fn gates(package: &Path) -> Result<Vec<report::Gate>, String> {
    let path = package.parent().unwrap_or(package).join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|err| format!("{}: {err}", path.display()))?;
    report::gates(&text)
}

fn run(args: Args) -> Result<bool, String> {
    let package = report::package_dir();
    let settings = &args.settings;
    if let Some((a, b)) = &args.compare {
        return report::compare(&read_json(a)?, &read_json(b)?, &gates(&package)?);
    }
    if let Some(workload) = args.workload {
        let outcome = if args.trace {
            report::per_layer(workload, settings, &package.join("out"))
        } else {
            report::end_to_end(workload, settings)
        };
        outcome.print(workload.name());
        println!("{}", outcome.result_line());
        return Ok(outcome.correct());
    }
    if args.selfcheck {
        let gates = gates(&package)?;
        let (a, correct_a) = run_set(settings, false, &package);
        let (b, correct_b) = run_set(settings, false, &package);
        report::write_file(&package.join("out/selfcheck-a.json"), &json::to_pretty(&a))?;
        report::write_file(&package.join("out/selfcheck-b.json"), &json::to_pretty(&b))?;
        let all_ok = report::compare(&a, &b, &gates)?;
        return Ok(all_ok && correct_a && correct_b);
    }
    let (file, correct) = run_set(settings, true, &package);
    let path = package.join("out/latest.json");
    report::write_file(&path, &json::to_pretty(&file))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_gates_command_line_parses() {
        let parsed = args(&[
            "--workload",
            "fit_ssd",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, Some(Workload::FitSsd));
        assert!(parsed.trace);
        assert_eq!(parsed.settings.seed, 7);
        assert_eq!(parsed.settings.seconds, 20.0);
        assert_eq!(parsed.settings.repeats, REPEATS);
        assert!(parsed.settings.clients >= 1 && parsed.settings.clients <= 4);
    }

    #[test]
    fn quick_and_clients_override_the_defaults() {
        let parsed = args(&["--quick", "--clients", "3"]).unwrap();
        assert_eq!(parsed.settings.repeats, 1);
        assert_eq!(parsed.settings.seconds, 1.0);
        assert_eq!(parsed.settings.clients, 3);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "tpcc"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--clients", "0"],
            &["--compare", "only-one.json"],
            &["--frobnicate"],
            &["--repeats", "3"],
            // Flags that would have no effect.
            &["--trace", "1"],
            &["--selfcheck", "--workload", "fit_ssd"],
            &["--quick", "--seconds", "5"],
            &["--compare", "a.json", "b.json", "--seed", "7"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
