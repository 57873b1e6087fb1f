//! `hcsim-exp` — regenerate the paper's figures from the command line.
//!
//! ```text
//! hcsim-exp fig7                 # one figure, paper-fidelity defaults
//! hcsim-exp all --quick          # smoke-run everything
//! hcsim-exp fig5 --trials 10 --tasks 400 --csv
//! hcsim-exp all levels ablate --out results/
//! ```

use hcsim_exp::cli::{parse_args, usage, Cli};
use hcsim_exp::{ablations, bench, figures, Table};
use std::process::ExitCode;

fn emit(table: &Table, name: &str, cli: &Cli) -> std::io::Result<()> {
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.md")), table.to_markdown())?;
        std::fs::write(dir.join(format!("{name}.csv")), table.to_csv())?;
        eprintln!("wrote {}/{name}.{{md,csv}}", dir.display());
    }
    if cli.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_markdown());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "running {} figure(s): {} trials x {} tasks, seed {}, {} threads",
        cli.figures.len(),
        cli.opts.trials,
        cli.opts.num_tasks,
        cli.opts.seed,
        cli.opts.threads
    );

    for name in &cli.figures {
        let started = std::time::Instant::now();
        eprintln!("== {name} ==");
        if name == "scaling" {
            let scaling_opts = bench::ScalingOptions {
                quick: cli.quick,
                out_dir: cli.out_dir.clone().unwrap_or_else(|| std::path::PathBuf::from(".")),
                gate: cli.gate,
            };
            if let Err(failures) = bench::run_scaling(&scaling_opts) {
                for f in failures {
                    eprintln!("{f}");
                }
                return ExitCode::FAILURE;
            }
        } else if name == "ablate" {
            for (i, table) in ablations::all(&cli.opts).into_iter().enumerate() {
                if let Err(e) = emit(&table, &format!("ablation_{}", i + 1), &cli) {
                    eprintln!("error writing output: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let table = figures::by_name(name, &cli.opts).expect("validated figure name");
            if let Err(e) = emit(&table, name, &cli) {
                eprintln!("error writing output: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("== {name} finished in {:.1}s ==\n", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
