//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! hcsim-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! hcsim-benchmark all [--seed N] [--seconds S] [--runs R] [--out FILE]
//! hcsim-benchmark compare A.json B.json
//! ```

mod compare;
mod digest;
mod json;
mod metrics;
mod probe;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{DEFAULT_SEED, NAMES};

/// Where trace and result files go, relative to the working directory
/// (the repo root, which is where the benchmark command runs).
const RESULTS_DIR: &str = "benchmark/results";
/// `run_seconds` of `BENCHMARK.json`, the default measuring time.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  hcsim-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      run one workload; the last line of stdout is the result as JSON
  hcsim-benchmark all [--seed N] [--seconds S] [--runs R] [--out FILE]
      run every workload R times (seeds N, N+1, ...), each in its own
      process, traced once more, and write one result file
  hcsim-benchmark compare A.json B.json
      judge two result files against the bounds in BENCHMARK.json
workloads: paper_8m_pam paper_8m_scalar cluster_256m_pam cluster_256m_pam_t2
           faas_256m_pam service_64m_churn";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("--seconds", DEFAULT_SECONDS)?;
        if s.is_finite() && s >= 0.0 {
            Ok(s)
        } else {
            Err(format!("--seconds: {s} is not a duration"))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("all") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some(_) => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(why) => {
            eprintln!("hcsim-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The single-workload run of the benchmark contract.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let shape = workloads::shape(name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let opts = run::Options {
        shape,
        seed: flags.number("--seed", DEFAULT_SEED)?,
        seconds: flags.seconds()?,
        trace,
    };
    let outcome = run::run(&opts)?;

    println!(
        "workload {name} seed {} decisions/pass {} digest {} on_time_pct {:?}",
        opts.seed, outcome.decisions_per_pass, outcome.digest, outcome.on_time_pct
    );
    let walls: Vec<String> = outcome.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  untraced pass walls (s): {}", walls.join(" "));
    let (lo, hi) = outcome
        .trial_on_time_pct
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    println!(
        "  on_time_pct over {} trials: min {lo:.2} median {:.2} max {hi:.2}",
        outcome.trial_on_time_pct.len(),
        stats::median(&outcome.trial_on_time_pct)
    );
    for (metric, value, unit) in &outcome.metrics {
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
    println!("  ops_attempted {} ops_failed {}", outcome.attempted, outcome.failed);
    for why in &outcome.failures {
        println!("  FAILED {why}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = Path::new(RESULTS_DIR).join(format!("{name}.trace.json"));
        write_trace(&path, name, &opts, &outcome, tracer)?;
        println!("  spans written to {}", path.display());
    }

    let metrics = Value::object(outcome.metrics.iter().map(|&(metric, value, unit)| {
        (
            metric,
            Value::object([("value", Value::Number(value)), ("unit", Value::String(unit.into()))]),
        )
    }));
    // Extra keys would break the contract's "exactly these keys"; the
    // digest travels on the human-readable line above.
    println!(
        "{}",
        Value::object([
            ("correct", Value::Bool(outcome.failed == 0)),
            ("attempted", Value::Number(outcome.attempted as f64)),
            ("failed", Value::Number(outcome.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(ExitCode::SUCCESS)
}

/// Facts about the host that every stored number travels with.
fn host_block() -> Value {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Value::object([
        ("nproc", Value::Number(nproc as f64)),
        ("cpu", Value::String(cpu)),
        ("rustc", Value::String(first_line("rustc", &["-V"]))),
        ("git", Value::String(first_line("git", &["rev-parse", "HEAD"]))),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the spans of the traced pass, one array per span.
fn write_trace(
    path: &Path,
    name: &str,
    opts: &run::Options,
    outcome: &run::Outcome,
    tracer: &trace::Tracer,
) -> Result<(), String> {
    let spans = tracer
        .spans()
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = if s.parent == trace::NO_PARENT { -1.0 } else { f64::from(s.parent) };
            Value::Array(
                [
                    id as f64,
                    parent,
                    f64::from(s.trial),
                    f64::from(s.name as u8),
                    s.start_ns as f64,
                    s.end_ns as f64,
                ]
                .map(Value::Number)
                .to_vec(),
            )
        })
        .collect();
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::String((*s).into())).collect());
    let doc = Value::object([
        ("workload", Value::String(name.into())),
        ("seed", Value::Number(opts.seed as f64)),
        ("passes", Value::Number(outcome.pass_walls.len() as f64)),
        ("threads", Value::Number(opts.shape.threads as f64)),
        ("host", host_block()),
        ("span_names", strings(&trace::SPAN_NAMES)),
        ("columns", strings(&["id", "parent", "trial", "name", "start_ns", "end_ns"])),
        ("spans", Value::Array(spans)),
    ]);
    write_file(path, &doc.render())
}

/// One child process per run; returns the parsed last line of its stdout.
fn spawn_run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{name} exited with {}\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    for line in stdout.lines().filter(|l| l.contains("FAILED")) {
        eprintln!("{name}: {line}");
    }
    json::parse(stdout.lines().last().ok_or_else(|| format!("{name} printed nothing"))?)
}

/// Runs every workload, each run in its own process, and writes one
/// result file that `compare` reads.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds", "--runs", "--out"])?;
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let seconds = flags.seconds()?;
    let runs: u64 = flags.number("--runs", 1)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let out =
        flags.get("--out").map_or_else(|| Path::new(RESULTS_DIR).join("all.json"), PathBuf::from);

    let mut workloads = Vec::new();
    let mut medians = std::collections::BTreeMap::new();
    let mut all_correct = true;
    for name in NAMES {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut absorb = |result: &Value, traced: bool| -> Result<(), String> {
            let field =
                |k: &str| result.get(k).and_then(Value::as_f64).ok_or(format!("{name}: no {k}"));
            attempted += field("attempted")?;
            failed += field("failed")?;
            let metrics = result.get("metrics").and_then(Value::as_object).ok_or("no metrics")?;
            for (metric, entry) in metrics {
                let value = entry.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
                match series.iter_mut().find(|(m, _, _)| m == metric) {
                    Some((_, _, values)) => values.push(value),
                    None => series.push((metric.clone(), unit.to_string(), vec![value])),
                }
            }
            if !traced {
                eprintln!("{name}: seed {} done", seed + series[0].2.len() as u64 - 1);
            }
            Ok(())
        };
        for i in 0..runs {
            absorb(&spawn_run(name, seed + i, seconds, false)?, false)?;
        }
        absorb(&spawn_run(name, seed, seconds, true)?, true)?;
        all_correct &= failed == 0.0;

        println!("{name}  ({runs} runs, {failed} of {attempted} operations failed)");
        for (metric, unit, values) in &series {
            println!(
                "  {metric:<34} {:>16.4} {unit:<6} iqr {:>5.1}%",
                stats::median(values),
                100.0 * stats::spread(values)
            );
            medians.insert((name, metric.clone()), stats::median(values));
        }
        let metrics = Value::object(series.into_iter().map(|(metric, unit, values)| {
            let values = Value::Array(values.into_iter().map(Value::Number).collect());
            (metric, Value::object([("unit", Value::String(unit)), ("values", values)]))
        }));
        workloads.push((
            name,
            Value::object([
                ("attempted", Value::Number(attempted)),
                ("failed", Value::Number(failed)),
                ("threads", Value::Number(workloads::shape(name).expect("listed").threads as f64)),
                ("metrics", metrics),
            ]),
        ));
    }

    // The one figure that needs two workloads: what the second thread buys.
    let eps = |w: &str| medians.get(&(w, "events_per_s".to_string())).copied();
    if let (Some(t1), Some(t2)) = (eps("cluster_256m_pam"), eps("cluster_256m_pam_t2")) {
        println!(
            "parallel.speedup_t2 {:.3} ratio  (cluster_256m_pam_t2 {t2:.1} / cluster_256m_pam {t1:.1} events_per_s)",
            t2 / t1
        );
    }

    let doc = Value::object([
        ("host", host_block()),
        ("seed", Value::Number(seed as f64)),
        ("runs", Value::Number(runs as f64)),
        ("seconds", Value::Number(seconds)),
        ("workloads", Value::object(workloads)),
    ]);
    write_file(&out, &doc.render())?;
    println!("results written to {}", out.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err("compare takes exactly two result files".into()) };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, clean) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
