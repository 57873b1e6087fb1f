//! `hcsim-exp ab`: an interleaved A/B runner for two builds of the repo
//! benchmark binary (`benchmark/target/release/hcsim-benchmark`).
//!
//! The host drifts by 10–25 % over minutes, so two builds are compared
//! only in *pairs* run back to back: pair `i` runs base then head when `i`
//! is even and head then base when it is odd, and every end-to-end
//! metric is judged by the median of its per-pair ratios (head / base)
//! and by how many pairs moved the metric's better way. With `--aa`
//! every pair is followed by a base-against-base pair, whose ratios show
//! the noise floor the A/B ratio has to clear.
//!
//! Each run is `BIN --workload W --seed S --seconds T --trace 0`; the
//! last non-empty stdout line is the benchmark contract's
//! `{correct, attempted, failed, metrics}` object. A run that exits
//! non-zero, prints no such line, or reads `"correct":false` makes the
//! runner refuse to report any ratio: a faster build that decides
//! differently proves nothing. Every run's line is written to the log,
//! in run order, so a claim can cite the log instead of retyping it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark contract's end-to-end metrics and whether higher is
/// better (`BENCHMARK.json`'s `end_to_end` list, in its order).
pub const END_TO_END: [(&str, bool); 6] = [
    ("setup_s", false),
    ("events_per_s", true),
    ("decide_p50_us", false),
    ("decide_p99_us", false),
    ("peak_rss_mb", false),
    ("on_time_pct", true),
];

/// One `ab` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AbOptions {
    /// The parent build's benchmark binary.
    pub base: PathBuf,
    /// The changed build's benchmark binary.
    pub head: PathBuf,
    /// The benchmark workload both run.
    pub workload: String,
    /// Order-flipped pairs to run.
    pub pairs: usize,
    /// `--seconds` passed to every run.
    pub seconds: u64,
    /// `--seed` passed to every run.
    pub seed: u64,
    /// Also run base-against-base pairs.
    pub aa: bool,
    /// Where every run's contract line is logged.
    pub log: PathBuf,
}

/// `ab`'s usage text.
#[must_use]
pub fn usage() -> &'static str {
    "usage: hcsim-exp ab --base BIN --head BIN --workload W [--pairs N] [--seconds S]
                    [--seed S] [--aa] [--log FILE]

Runs N strictly alternated, order-flipped pairs of two benchmark binaries
(default 5 pairs of 10 s runs at seed 2019) and prints, per end-to-end
metric, both medians with their quartiles, the median per-pair ratio
head/base and the pairs that moved the better way. --aa also runs base against base after every
pair and prints that spread. Refuses to report when any run is not
\"correct\":true. Every run is logged to FILE (default
results/ab-<workload>.log)."
}

/// Parses `ab`'s arguments (those after `ab`).
///
/// # Errors
///
/// A message naming the bad or missing argument; the empty string when
/// help was asked for.
pub fn parse_args(args: &[String]) -> Result<AbOptions, String> {
    let (mut base, mut head, mut workload, mut log) = (None, None, None, None);
    let (mut pairs, mut seconds, mut seed, mut aa) = (5usize, 10u64, 2019u64, false);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if matches!(arg.as_str(), "-h" | "--help") {
            return Err(String::new());
        }
        if arg == "--aa" {
            aa = true;
            continue;
        }
        let value = match arg.as_str() {
            "--base" | "--head" | "--workload" | "--pairs" | "--seconds" | "--seed" | "--log" => {
                iter.next().ok_or_else(|| format!("{arg} requires a value"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {arg} {v}"));
        match arg.as_str() {
            "--base" => base = Some(PathBuf::from(value)),
            "--head" => head = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--log" => log = Some(PathBuf::from(value)),
            "--pairs" => pairs = number(value)? as usize,
            "--seconds" => seconds = number(value)?,
            _ => seed = number(value)?,
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if pairs == 0 || seconds == 0 {
        return Err("--pairs and --seconds must be positive".to_string());
    }
    Ok(AbOptions {
        base: base.ok_or("--base is required")?,
        head: head.ok_or("--head is required")?,
        log: log.unwrap_or_else(|| PathBuf::from(format!("results/ab-{workload}.log"))),
        workload,
        pairs,
        seconds,
        seed,
        aa,
    })
}

/// Which binary a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// `--base`.
    Base,
    /// `--head`.
    Head,
}

/// The order of the runs of pair `i`: base first on even pairs, head
/// first on odd ones; an A/A pair runs base twice.
#[must_use]
pub fn pair_order(i: usize) -> [Leg; 2] {
    if i.is_multiple_of(2) {
        [Leg::Base, Leg::Head]
    } else {
        [Leg::Head, Leg::Base]
    }
}

/// One run's contract line, reduced to what the runner judges.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLine {
    /// `"correct"`.
    pub correct: bool,
    /// Every `metrics.<name>.value`.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the contract line `{"correct":…, …, "metrics":{name:{"value":x, …}}}`.
///
/// # Errors
///
/// When the line is not such an object.
pub fn parse_line(line: &str) -> Result<RunLine, String> {
    let mut p = Parser { bytes: line.trim().as_bytes(), at: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err("trailing bytes after the contract object".to_string());
    }
    let Json::Object(top) = value else { return Err("the line is not an object".to_string()) };
    let Some(Json::Bool(correct)) = top.get("correct") else {
        return Err("no boolean \"correct\"".to_string());
    };
    let Some(Json::Object(metrics)) = top.get("metrics") else {
        return Err("no \"metrics\" object".to_string());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| match m {
            Json::Object(fields) => match fields.get("value") {
                Some(Json::Number(v)) => Ok((name.clone(), *v)),
                _ => Err(format!("metric {name} has no numeric value")),
            },
            _ => Err(format!("metric {name} is not an object")),
        })
        .collect::<Result<_, _>>()?;
    Ok(RunLine { correct: *correct, metrics })
}

/// Just enough JSON for the contract line: objects, strings, numbers
/// and booleans.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.bytes[self.at..];
        for (word, value) in [("true", Json::Bool(true)), ("false", Json::Bool(false))] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Object(map));
                    }
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(_) => {
                let len = rest
                    .iter()
                    .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .unwrap_or(rest.len());
                let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                let number = text.parse().map_err(|_| format!("bad number at byte {}", self.at))?;
                self.at += len;
                Ok(Json::Number(number))
            }
            None => Err("unexpected end of line".to_string()),
        }
    }

    /// A string without escapes other than `\"` and `\\` (the contract
    /// line's keys and units need no others).
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => break,
                Some(b'\\') => {
                    out.push(*self.bytes.get(self.at + 1).ok_or("unterminated escape")?);
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

/// Runs one benchmark binary and returns its full stdout.
fn run_binary(bin: &Path, opts: &AbOptions) -> Result<String, String> {
    let output = Command::new(bin)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!("{} exited with {}", bin.display(), output.status));
    }
    Ok(stdout)
}

/// The last non-empty line of a run's stdout.
fn last_line(stdout: &str) -> &str {
    stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("")
}

/// One pair's two runs, base first.
type Pair = (RunLine, RunLine);

/// The `q`-quantile of a non-empty slice, interpolated linearly between
/// order statistics (the median of an even count is the mean of the
/// middle two).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The first and third quartiles.
fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

/// One metric's verdict over a set of pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// The metric's name.
    pub name: &'static str,
    /// Median of the base runs.
    pub base_median: f64,
    /// First and third quartiles of the base runs.
    pub base_quartiles: (f64, f64),
    /// Median of the head runs.
    pub head_median: f64,
    /// First and third quartiles of the head runs.
    pub head_quartiles: (f64, f64),
    /// Median of the per-pair ratios head / base.
    pub ratio_median: f64,
    /// Smallest and largest per-pair ratio.
    pub ratio_range: (f64, f64),
    /// Pairs in which head was strictly better than base.
    pub better: usize,
    /// Pairs in all.
    pub pairs: usize,
}

/// Summarises every end-to-end metric both runs of every pair report.
/// A pair whose base reads 0 gives no ratio.
#[must_use]
pub fn summarize(pairs: &[Pair]) -> Vec<MetricSummary> {
    END_TO_END
        .iter()
        .filter_map(|&(name, higher_is_better)| {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(b, h)| Some((*b.metrics.get(name)?, *h.metrics.get(name)?)))
                .collect();
            if values.is_empty() {
                return None;
            }
            let ratios: Vec<f64> =
                values.iter().filter(|(b, _)| *b != 0.0).map(|(b, h)| h / b).collect();
            let better =
                values.iter().filter(|(b, h)| if higher_is_better { h > b } else { h < b }).count();
            let (base, head): (Vec<f64>, Vec<f64>) = values.iter().copied().unzip();
            let ratio_range = ratios
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |r, &x| (r.0.min(x), r.1.max(x)));
            Some(MetricSummary {
                name,
                base_median: median(&base),
                base_quartiles: quartiles(&base),
                head_median: median(&head),
                head_quartiles: quartiles(&head),
                ratio_median: if ratios.is_empty() { f64::NAN } else { median(&ratios) },
                ratio_range,
                better,
                pairs: values.len(),
            })
        })
        .collect()
}

/// The report: one Markdown row per metric, with the A/A spread beside it
/// when `aa` holds any pairs.
#[must_use]
pub fn render(opts: &AbOptions, ab: &[MetricSummary], aa: &[MetricSummary]) -> String {
    let mut out = format!(
        "## ab: {} — {} pairs × {} s, seed {}\n\nbase {}\nhead {}\nlog  {}\n\n",
        opts.workload,
        opts.pairs,
        opts.seconds,
        opts.seed,
        opts.base.display(),
        opts.head.display(),
        opts.log.display()
    );
    out.push_str(
        "| metric | base median [Q1–Q3] | head median [Q1–Q3] | head/base (median pair) \
         | pairs better |",
    );
    if aa.is_empty() {
        out.push_str("\n|---|---|---|---|---|\n");
    } else {
        out.push_str(" A/A ratio median [min–max] |\n|---|---|---|---|---|---|\n");
    }
    for m in ab {
        let (b, h) = (m.base_quartiles, m.head_quartiles);
        let _ = write!(
            out,
            "| {} | {:.4} [{:.4}–{:.4}] | {:.4} [{:.4}–{:.4}] | {:.3}× | {}/{} |",
            m.name,
            m.base_median,
            b.0,
            b.1,
            m.head_median,
            h.0,
            h.1,
            m.ratio_median,
            m.better,
            m.pairs
        );
        if let Some(a) = aa.iter().find(|a| a.name == m.name) {
            let _ = write!(
                out,
                " {:.3}× [{:.3}–{:.3}] |",
                a.ratio_median, a.ratio_range.0, a.ratio_range.1
            );
        } else if !aa.is_empty() {
            out.push_str(" – |");
        }
        out.push('\n');
    }
    out
}

/// Runs the pairs (and, with `--aa`, the A/A pairs), logging every run,
/// and returns the rendered report.
///
/// # Errors
///
/// When the log cannot be written, a run fails, prints no contract line,
/// or is not `"correct":true`; nothing is reported then.
pub fn run(opts: &AbOptions) -> Result<String, String> {
    if let Some(dir) = opts.log.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut log = String::new();
    let _ = writeln!(
        log,
        "# hcsim-exp ab --workload {} --pairs {} --seconds {} --seed {}{}\n# base {}\n# head {}",
        opts.workload,
        opts.pairs,
        opts.seconds,
        opts.seed,
        if opts.aa { " --aa" } else { "" },
        opts.base.display(),
        opts.head.display()
    );
    let write_log = |log: &str| {
        std::fs::write(&opts.log, log).map_err(|e| format!("{}: {e}", opts.log.display()))
    };
    let mut refusals = Vec::new();
    let mut run_pair = |kind: &str, i: usize, legs: [(Leg, &Path); 2], log: &mut String| {
        let mut lines = [None, None];
        for (slot, (leg, bin)) in legs.into_iter().enumerate() {
            let result = run_binary(bin, opts).and_then(|stdout| {
                let line = last_line(&stdout).to_string();
                parse_line(&line).map(|parsed| (line, parsed))
            });
            let tag = format!("{kind} pair {i} run {slot} {leg:?}");
            match result {
                Ok((line, parsed)) => {
                    let _ = writeln!(log, "{tag}: {line}");
                    if !parsed.correct {
                        refusals.push(format!("{tag} is not \"correct\":true"));
                    }
                    lines[slot] = Some(parsed);
                }
                Err(why) => {
                    let _ = writeln!(log, "{tag}: FAILED {why}");
                    refusals.push(format!("{tag}: {why}"));
                }
            }
        }
        let [a, b] = lines;
        Some((a?, b?))
    };
    let (mut ab, mut aa) = (Vec::new(), Vec::new());
    for i in 0..opts.pairs {
        let legs = pair_order(i).map(|leg| match leg {
            Leg::Base => (leg, opts.base.as_path()),
            Leg::Head => (leg, opts.head.as_path()),
        });
        if let Some((first, second)) = run_pair("ab", i, legs, &mut log) {
            // Store base first whatever order the pair ran in.
            ab.push(if legs[0].0 == Leg::Base { (first, second) } else { (second, first) });
        }
        if opts.aa {
            let base = (Leg::Base, opts.base.as_path());
            aa.extend(run_pair("aa", i, [base, base], &mut log));
        }
        write_log(&log)?;
    }
    if !refusals.is_empty() {
        return Err(format!(
            "refusing to report ({} bad run(s); see {}):\n{}",
            refusals.len(),
            opts.log.display(),
            refusals.join("\n")
        ));
    }
    let report = render(opts, &summarize(&ab), &summarize(&aa));
    log.push_str(&report);
    write_log(&log)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(correct: bool, events: f64, p99: f64) -> String {
        format!(
            "{{\"attempted\":10,\"correct\":{correct},\"failed\":0,\"metrics\":{{\
             \"decide_p99_us\":{{\"unit\":\"us\",\"value\":{p99}}},\
             \"events_per_s\":{{\"unit\":\"1/s\",\"value\":{events}}}}}}}"
        )
    }

    fn parsed(events: f64, p99: f64) -> RunLine {
        parse_line(&line(true, events, p99)).unwrap()
    }

    #[test]
    fn parses_the_contract_line() {
        let run = parse_line(&line(false, 1.5e5, 71.25)).unwrap();
        assert!(!run.correct);
        assert_eq!(run.metrics["events_per_s"], 1.5e5);
        assert_eq!(run.metrics["decide_p99_us"], 71.25);
        assert!(parse_line("{\"correct\":true}").unwrap_err().contains("metrics"));
        assert!(parse_line("not json").is_err());
        assert!(parse_line(&format!("{} x", line(true, 1.0, 1.0))).is_err());
        let nested = "{\"correct\":true,\"a\":{\"b\":\"x\"},\"metrics\":{}}";
        assert!(parse_line(nested).unwrap().metrics.is_empty());
    }

    #[test]
    fn pairs_alternate_and_flip() {
        assert_eq!(pair_order(0), [Leg::Base, Leg::Head]);
        assert_eq!(pair_order(1), [Leg::Head, Leg::Base]);
        assert_eq!(pair_order(2), [Leg::Base, Leg::Head]);
    }

    #[test]
    fn ratios_medians_and_signs() {
        // Three pairs: head/base events 1.2, 1.1, 0.9; p99 0.5, 1.0, 2.0.
        let pairs = vec![
            (parsed(100.0, 10.0), parsed(120.0, 5.0)),
            (parsed(200.0, 10.0), parsed(220.0, 10.0)),
            (parsed(100.0, 10.0), parsed(90.0, 20.0)),
        ];
        let summary = summarize(&pairs);
        let names: Vec<&str> = summary.iter().map(|m| m.name).collect();
        assert_eq!(names, ["events_per_s", "decide_p99_us"], "contract order, reported only");
        let events = &summary[0];
        assert_eq!((events.base_median, events.head_median), (100.0, 120.0));
        assert_eq!(events.base_quartiles, (100.0, 150.0), "interpolated quartiles");
        assert!((events.ratio_median - 1.1).abs() < 1e-12);
        assert!((events.ratio_range.0 - 0.9).abs() < 1e-12);
        assert_eq!((events.better, events.pairs), (2, 3), "higher is better");
        let p99 = &summary[1];
        assert_eq!(p99.ratio_median, 1.0);
        assert_eq!(p99.better, 1, "lower is better; a tie is not better");
        let even = summarize(&pairs[..2]);
        assert!((even[0].ratio_median - 1.15).abs() < 1e-12, "even count: mean of the middle two");
    }

    /// A fake benchmark binary: appends its name to `calls` and prints the
    /// next scripted line of `script` (one line per call, in order).
    #[cfg(unix)]
    fn fake(dir: &Path, name: &str, lines: &[String]) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let script = dir.join(format!("{name}.lines"));
        std::fs::write(&script, lines.join("\n") + "\n").unwrap();
        let count = dir.join(format!("{name}.count"));
        let bin = dir.join(name);
        let body = format!(
            "#!/bin/sh\necho {name} >> '{calls}'\nn=$(cat '{count}' 2>/dev/null || echo 0)\n\
             n=$((n + 1))\necho $n > '{count}'\necho 'human-readable preamble'\n\
             sed -n \"${{n}}p\" '{script}'\n",
            calls = dir.join("calls").display(),
            count = count.display(),
            script = script.display(),
        );
        std::fs::write(&bin, body).unwrap();
        std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755)).unwrap();
        bin
    }

    /// Held by each test that writes and runs fake binaries: a script
    /// exec'd while another thread's fork still holds it open for
    /// writing fails with "Text file busy".
    #[cfg(unix)]
    static SPAWNING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(unix)]
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcsim-ab-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[cfg(unix)]
    fn options(dir: &Path, base: PathBuf, head: PathBuf, pairs: usize, aa: bool) -> AbOptions {
        AbOptions {
            base,
            head,
            workload: "w".to_string(),
            pairs,
            seconds: 1,
            seed: 7,
            aa,
            log: dir.join("ab.log"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn runs_flipped_pairs_and_reports_with_the_aa_spread() {
        let _spawning = SPAWNING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = scratch("report");
        let base = fake(&dir, "base", &(0..6).map(|_| line(true, 100.0, 10.0)).collect::<Vec<_>>());
        let head = fake(&dir, "head", &(0..3).map(|_| line(true, 125.0, 8.0)).collect::<Vec<_>>());
        let opts = options(&dir, base, head, 3, false);
        let report = run(&opts).unwrap();
        let calls = std::fs::read_to_string(dir.join("calls")).unwrap();
        assert_eq!(
            calls.split_whitespace().collect::<Vec<_>>(),
            ["base", "head", "head", "base", "base", "head"]
        );
        let events =
            "| events_per_s | 100.0000 [100.0000–100.0000] | 125.0000 [125.0000–125.0000] \
                      | 1.250× | 3/3 |";
        assert!(report.contains(events), "{report}");
        assert!(report.contains("[8.0000–8.0000] | 0.800× | 3/3 |"), "{report}");
        let log = std::fs::read_to_string(&opts.log).unwrap();
        assert_eq!(log.lines().filter(|l| l.starts_with("ab pair")).count(), 6, "{log}");
        assert!(log.contains("ab pair 1 run 0 Head: {"), "{log}");

        let _ = std::fs::remove_file(dir.join("calls"));
        let _ = std::fs::remove_file(dir.join("base.count"));
        let _ = std::fs::remove_file(dir.join("head.count"));
        let report = run(&AbOptions { pairs: 1, aa: true, ..opts }).unwrap();
        let calls = std::fs::read_to_string(dir.join("calls")).unwrap();
        assert_eq!(calls.split_whitespace().collect::<Vec<_>>(), ["base", "head", "base", "base"]);
        assert!(report.contains("| 1.250× | 1/1 | 1.000× [1.000–1.000] |"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn refuses_when_any_run_is_not_correct_or_has_no_line() {
        let _spawning = SPAWNING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = scratch("refuse");
        let good = line(true, 100.0, 10.0);
        let base = fake(&dir, "base", &[good.clone(), good.clone()]);
        let head = fake(&dir, "head", &[good, line(false, 200.0, 5.0)]);
        let opts = options(&dir, base, head, 2, false);
        let err = run(&opts).unwrap_err();
        assert!(err.contains("refusing") && err.contains("ab pair 1 run 0 Head"), "{err}");
        let log = std::fs::read_to_string(&opts.log).unwrap();
        assert!(log.contains("\"correct\":false"), "the bad run is logged: {log}");

        let silent = fake(&dir, "silent", &[]);
        let err = run(&AbOptions { head: silent, pairs: 1, ..opts }).unwrap_err();
        assert!(err.contains("Head") && err.contains("byte"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_its_arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let opts = parse_args(&args("--base a --head b --workload faas_256m_pam --aa")).unwrap();
        assert_eq!((opts.pairs, opts.seconds, opts.seed, opts.aa), (5, 10, 2019, true));
        assert_eq!(opts.log, PathBuf::from("results/ab-faas_256m_pam.log"));
        let opts = parse_args(&args(
            "--workload w --pairs 3 --seconds 2 --seed 9 --base a --head b --log x.log",
        ))
        .unwrap();
        assert_eq!((opts.pairs, opts.seconds, opts.seed, opts.aa), (3, 2, 9, false));
        assert_eq!(opts.log, PathBuf::from("x.log"));
        assert!(parse_args(&args("--base a --head b")).unwrap_err().contains("--workload"));
        assert!(parse_args(&args("--workload w --head b")).unwrap_err().contains("--base"));
        assert!(parse_args(&args("--workload w --base a --head b --pairs 0"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_args(&args("--workload w --pairs x")).unwrap_err().contains("bad --pairs"));
        assert!(parse_args(&args("--workload")).unwrap_err().contains("requires a value"));
        assert!(parse_args(&args("--bogus")).unwrap_err().contains("unknown argument"));
        assert_eq!(parse_args(&args("--help")).unwrap_err(), "");
    }
}
