//! Argument parsing for the `hcsim-exp` binary, factored into the library
//! so it is unit-testable.

use crate::figures::{ALL_FIGURES, EXTRA_FIGURES};
use crate::runner::FigOptions;
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Subcommands to run, in order: [`ALL_FIGURES`] and
    /// [`EXTRA_FIGURES`] names, "ablate", "scaling", "work".
    pub figures: Vec<String>,
    /// Trial/seed/thread options.
    pub opts: FigOptions,
    /// Emit CSV to stdout instead of Markdown.
    pub csv: bool,
    /// Directory to write `<fig>.md` / `<fig>.csv` into.
    pub out_dir: Option<PathBuf>,
    /// The last preset given was `--quick` (scaling uses reduced sample
    /// counts).
    pub quick: bool,
    /// scaling: fail unless every swept scenario's t=4 leg keeps within
    /// 1.05x of its t=1 leg (multi-core hosts only).
    pub gate: bool,
    /// work: compare against the pin instead of printing.
    pub check: bool,
}

/// Subcommands that are neither a paper figure nor a supplementary
/// sweep (`all` expands to [`ALL_FIGURES`] and is not stored). Private:
/// only `parse_args` and the usage test read it.
const OTHER_COMMANDS: [&str; 3] = ["ablate", "scaling", "work"];

/// CLI usage text.
#[must_use]
pub fn usage() -> &'static str {
    "usage: hcsim-exp <fig4|..|fig9|all|levels|churn|service|adaptive|faas|ablate|scaling|work> [options]
       hcsim-exp ab --base BIN --head BIN --workload W [--pairs N] [--seconds S] [--seed S] [--aa]

figures:  fig4..fig9 reproduce the paper; 'all' runs every figure;
          'levels' sweeps all heuristics over six oversubscription levels;
          'churn' compares static vs dynamic cluster membership (late
          joins, drains, failures with task requeue) on a 32-machine
          cluster;
          'service' runs the crash-safe online scheduler: uninterrupted
          baseline, crash at a membership epoch -> restore -> resume
          (bit-identity check + recovery time), and 10x-overload
          admission shedding with full accounting;
          'adaptive' sweeps three non-stationary traces under every static
          threshold pair and under the closed-loop controller;
          'faas' runs the serverless scenario (arXiv:1905.04456): Zipf-
          popular bursty functions at >10x the 34k arrival intensity with
          container cold starts and keep-alive, PAM pruning vs the MM
          baseline with cold/warm accounting;
          'ablate' runs the design-choice ablation suite, one table per
          knob (see docs/ARCHITECTURE.md, Experiments);
          'scaling' runs the cluster threads sweeps (64m, churn, 1024m,
          faas256) and writes SCALING_cluster64.{json,md} (the multi-core
          scaling table);
          'work' runs a reduced mirror of each PAM benchmark workload at
          seed 2019 and prints the score table's and tail caches' work
          counters and their work_digest as JSON (the pin is
          crates/exp/work_digest.json); ignores the other options;
          'ab' runs two benchmark binaries in alternated, order-flipped
          pairs and prints per-metric medians, the median per-pair ratio
          and the sign count (its own options: hcsim-exp ab --help)

options:
  --quick           5 trials x 300 tasks (smoke run; scaling: fewer samples)
  --full            30 trials x 800 tasks (paper fidelity; the default); the
                    last of --quick/--full wins, and --trials/--tasks
                    override either preset wherever they appear
  --trials N        workload trials per data point
  --tasks N         tasks per trial
  --seed N          master seed (default 2019)
  --threads N       worker threads for trial-level parallelism (default:
                    available parallelism). The in-event per-machine
                    scoring fan-out has its own setting
                    (PruningConfig::threads, 0 = host parallelism) and
                    is bit-identical at any value; `scaling` sweeps it
                    per scenario and ignores this flag
  --csv             print CSV instead of Markdown
  --out DIR         write <fig>.md and <fig>.csv (scaling:
                    SCALING_cluster64.{json,md}) into DIR
  --gate            scaling: exit nonzero unless every swept scenario
                    (PAM, MOC, churn, 1024m) runs t=4 within 1.05x of its
                    t=1 or faster (use on hosts with at least 4 cores;
                    the CI scaling job does)
  --check           work: exit nonzero, listing the moved lines, unless
                    the counters equal the pin
  -h, --help        this text"
}

/// Parses CLI arguments (excluding the binary name).
///
/// # Errors
///
/// Returns a human-readable message on invalid input; the empty string
/// signals that help was requested.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut figures = Vec::new();
    let mut opts = FigOptions::default();
    let mut csv = false;
    let mut out_dir = None;
    let mut quick = false;
    let mut trials = None;
    let mut num_tasks = None;
    let mut gate = false;
    let mut check = false;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--quick" => quick = true,
            "--full" => quick = false,
            "--csv" => csv = true,
            "--gate" => gate = true,
            "--check" => check = true,
            "--trials" | "--tasks" | "--seed" | "--threads" | "--out" => {
                let value = iter.next().ok_or_else(|| format!("{arg} requires a value"))?;
                match arg.as_str() {
                    "--trials" => {
                        trials = Some(value.parse().map_err(|_| format!("bad --trials {value}"))?)
                    }
                    "--tasks" => {
                        num_tasks = Some(value.parse().map_err(|_| format!("bad --tasks {value}"))?)
                    }
                    "--seed" => {
                        opts.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?
                    }
                    "--threads" => {
                        opts.threads =
                            value.parse().map_err(|_| format!("bad --threads {value}"))?
                    }
                    "--out" => out_dir = Some(PathBuf::from(value)),
                    _ => unreachable!(),
                }
            }
            "all" => figures.extend(ALL_FIGURES.iter().map(|s| (*s).to_string())),
            name if ALL_FIGURES.contains(&name)
                || EXTRA_FIGURES.contains(&name)
                || OTHER_COMMANDS.contains(&name) =>
            {
                figures.push(name.to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if figures.is_empty() {
        return Err("no figure selected".to_string());
    }
    if check && !figures.iter().any(|f| f == "work") {
        return Err("unknown argument \"--check\" (only 'work' takes it)".to_string());
    }
    // The preset is applied last so that an explicit count wins in any order.
    let preset = if quick { FigOptions::quick() } else { FigOptions::default() };
    opts.trials = trials.unwrap_or(preset.trials);
    opts.num_tasks = num_tasks.unwrap_or(preset.num_tasks);
    if opts.trials == 0 || opts.num_tasks == 0 {
        return Err("--trials and --tasks must be positive".to_string());
    }
    figures.dedup();
    Ok(Cli { figures, opts, csv, out_dir, quick, gate, check })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn single_figure_defaults_to_full_fidelity() {
        let cli = parse(&["fig7"]).unwrap();
        assert_eq!(cli.figures, vec!["fig7"]);
        assert_eq!(cli.opts.trials, 30);
        assert_eq!(cli.opts.num_tasks, 800);
        assert_eq!(cli.opts.seed, 2019);
        assert!(!cli.csv);
        assert!(cli.out_dir.is_none());
    }

    #[test]
    fn all_expands_in_paper_order() {
        let cli = parse(&["all"]).unwrap();
        assert_eq!(cli.figures, vec!["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]);
    }

    #[test]
    fn extras_and_ablate_accepted() {
        let cli = parse(&["levels", "ablate"]).unwrap();
        assert_eq!(cli.figures, vec!["levels", "ablate"]);
    }

    #[test]
    fn quick_preset_and_overrides_compose() {
        let cli = parse(&["fig5", "--quick", "--trials", "7", "--seed", "99"]).unwrap();
        assert_eq!(cli.opts.trials, 7, "explicit --trials overrides the preset");
        assert_eq!(cli.opts.num_tasks, 300, "preset task count kept");
        assert_eq!(cli.opts.seed, 99);
        let cli = parse(&["fig5", "--trials", "7", "--quick"]).unwrap();
        assert_eq!(cli.opts.trials, 7, "an explicit count before the preset still wins");
        assert_eq!(cli.opts.num_tasks, 300);
        let cli = parse(&["fig5", "--tasks", "40", "--full", "--quick"]).unwrap();
        assert_eq!((cli.opts.trials, cli.opts.num_tasks), (5, 40));
        assert!(cli.quick);
        let cli = parse(&["scaling", "--quick", "--full"]).unwrap();
        assert!(!cli.quick, "the last preset picks the sample counts too");
        assert_eq!((cli.opts.trials, cli.opts.num_tasks), (30, 800));
    }

    #[test]
    fn csv_and_out_dir() {
        let cli = parse(&["fig8", "--csv", "--out", "/tmp/x"]).unwrap();
        assert!(cli.csv);
        assert_eq!(cli.out_dir.unwrap(), PathBuf::from("/tmp/x"));
    }

    #[test]
    fn duplicate_adjacent_figures_deduped() {
        let cli = parse(&["fig7", "fig7"]).unwrap();
        assert_eq!(cli.figures, vec!["fig7"]);
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&[]).unwrap_err().contains("no figure"));
        assert!(parse(&["nope"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["bench"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["fig7", "--check"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["fig7", "--against", "x"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["fig7", "--trials"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["fig7", "--trials", "x"]).unwrap_err().contains("bad --trials"));
        assert!(parse(&["fig7", "--trials", "0"]).unwrap_err().contains("positive"));
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }

    #[test]
    fn work_takes_check_and_nothing_else_does() {
        let cli = parse(&["work", "--check"]).unwrap();
        assert_eq!((cli.figures, cli.check), (vec!["work".to_string()], true));
        assert!(!parse(&["work"]).unwrap().check);
        assert!(parse(&["scaling", "--check"]).unwrap_err().contains("only 'work'"));
        assert!(usage().contains("\n  --check "), "--check undocumented");
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        // Every subcommand `parse_args` accepts is described by name …
        let commands =
            ALL_FIGURES.iter().chain(&EXTRA_FIGURES).chain(&OTHER_COMMANDS).chain(&["all"]);
        for &name in commands {
            assert!(parse(&[name]).is_ok(), "{name} is not a subcommand");
            let described = u.contains(&format!("'{name}'"))
                || (ALL_FIGURES.contains(&name) && u.contains("fig4..fig9 reproduce"));
            assert!(described, "{name} undocumented");
        }
        // … and so is every flag, on its own line of the options block.
        let flags = [
            ("--quick", None),
            ("--full", None),
            ("--csv", None),
            ("--gate", None),
            ("--trials", Some("3")),
            ("--tasks", Some("3")),
            ("--seed", Some("3")),
            ("--threads", Some("3")),
            ("--out", Some("dir")),
        ];
        for (flag, value) in flags {
            let args: Vec<&str> = ["fig7", flag].into_iter().chain(value).collect();
            assert!(parse(&args).is_ok(), "{flag} is not a flag");
            assert!(u.contains(&format!("\n  {flag} ")), "{flag} undocumented");
        }
        assert!(u.contains("\n  -h, --help "));
        assert_eq!(parse(&["-h"]).unwrap_err(), "");
    }
}
