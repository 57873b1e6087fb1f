//! One function per paper figure. Each returns a [`Table`] holding the
//! exact series the figure plots, with 95 % confidence half-widths.

use crate::report::Table;
use crate::runner::{FigOptions, Scenario, SystemKind};
use hcsim_core::{AdaptiveConfig, AdaptiveController, HeuristicKind, PruningConfig};
use hcsim_model::Time;
use hcsim_parallel::parallel_map;
use hcsim_service::{run_with_recovery, FaultPlan, ServiceConfig};
use hcsim_sim::{run_simulation, run_simulation_with_churn, SimConfig};
use hcsim_stats::{mean_ci95, ConfidenceInterval, SeedSequence};
use hcsim_workload::{
    cluster_churn, faas_system, generate_nonstationary, specint_cluster, specint_system,
    ArrivalSchedule, ChurnConfig, FaasConfig, FaasGenerator, LoadPattern, NonStationaryConfig,
    WorkloadConfig, WorkloadGenerator,
};

fn ci(ci: &ConfidenceInterval) -> String {
    format!("{:.1} ± {:.1}", ci.mean, ci.half_width)
}

fn progress(label: &str) {
    eprintln!("  [done] {label}");
}

/// Fig. 4 — impact of the Eq. 8 history weight λ and of the Schmitt
/// trigger on robustness, PAM at the 34k oversubscription level.
#[must_use]
pub fn fig4(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Fig. 4 — Dynamic engagement of probabilistic task dropping",
        vec![
            "lambda".into(),
            "single threshold (%)".into(),
            "schmitt trigger (%)".into(),
            "single: engaged / flaps".into(),
            "schmitt: engaged / flaps".into(),
        ],
    );
    table.note(format!(
        "PAM @ 34k tasks, {} trials x {} tasks, queue 6, drop 50% / defer 90%",
        opts.trials, opts.num_tasks
    ));
    table.note("engaged = % of mapping events in dropping mode; flaps = toggle transitions/trial");
    for step in 1..=10u32 {
        let lambda = f64::from(step) / 10.0;
        let mut robustness_cells = Vec::new();
        let mut dynamics_cells = Vec::new();
        for schmitt in [false, true] {
            let scenario = Scenario {
                label: format!("λ={lambda:.1} schmitt={schmitt}"),
                pruning: PruningConfig { lambda, schmitt, ..PruningConfig::default() },
                ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
            };
            let agg = scenario.run(opts);
            progress(&agg.label);
            robustness_cells.push(ci(&agg.robustness));
            dynamics_cells.push(format!(
                "{:.0}% / {:.0}",
                agg.mean_engaged_fraction.unwrap_or(0.0) * 100.0,
                agg.mean_toggle_transitions.unwrap_or(0.0)
            ));
        }
        let mut cells = vec![format!("{lambda:.1}")];
        cells.extend(robustness_cells);
        cells.extend(dynamics_cells);
        table.push_row(cells);
    }
    table
}

/// Fig. 5 — deferring-threshold sweep for dropping thresholds 25/50/75 %,
/// PAM at 34k.
#[must_use]
pub fn fig5(opts: &FigOptions) -> Table {
    let drops = [0.25, 0.50, 0.75];
    let mut table = Table::new(
        "Fig. 5 — Impact of deferring and dropping thresholds",
        vec![
            "defer threshold (%)".into(),
            "drop 25% (%)".into(),
            "drop 50% (%)".into(),
            "drop 75% (%)".into(),
        ],
    );
    table.note(format!(
        "PAM @ 34k tasks, {} trials x {} tasks; defer = drop + gap, gap grows by 5%",
        opts.trials, opts.num_tasks
    ));
    // Defer thresholds from 30% to 90% in 5% steps; a cell is filled only
    // when defer > drop (the paper's gap construction).
    for defer_pct in (30..=90).step_by(5) {
        let defer = f64::from(defer_pct) / 100.0;
        let mut cells = vec![format!("{defer_pct}")];
        for drop in drops {
            if defer <= drop {
                cells.push(String::new());
                continue;
            }
            let scenario = Scenario {
                label: format!("drop={drop:.2} defer={defer:.2}"),
                pruning: PruningConfig {
                    drop_threshold: drop,
                    defer_threshold: defer,
                    ..PruningConfig::default()
                },
                ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
            };
            let agg = scenario.run(opts);
            progress(&agg.label);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// Fig. 6 — fairness factor ϑ sweep: variance of per-type completions and
/// the robustness paid for it, PAMF at 19k and 34k.
#[must_use]
pub fn fig6(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Fig. 6 — Fairness factor vs robustness",
        vec![
            "fairness factor (%)".into(),
            "variance @19k".into(),
            "robustness @19k (%)".into(),
            "variance @34k".into(),
            "robustness @34k (%)".into(),
        ],
    );
    table.note(format!("PAMF, {} trials x {} tasks", opts.trials, opts.num_tasks));
    for factor_pct in [0u32, 5, 10, 15, 20, 25] {
        let factor = f64::from(factor_pct) / 100.0;
        let mut cells = vec![factor_pct.to_string()];
        for oversub in [19_000.0, 34_000.0] {
            let scenario = Scenario {
                label: format!("ϑ={factor_pct}% @ {}k", oversub / 1000.0),
                pruning: PruningConfig { fairness_factor: factor, ..PruningConfig::default() },
                ..Scenario::paper_default(HeuristicKind::Pamf, oversub)
            };
            let agg = scenario.run(opts);
            progress(&agg.label);
            cells.push(ci(&agg.type_variance));
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// Fig. 7 — robustness of PAM/PAMF vs all baselines at 19k and 34k.
#[must_use]
pub fn fig7(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Fig. 7 — Robustness comparison (tasks completed on time, %)",
        vec!["heuristic".into(), "@19k (%)".into(), "@34k (%)".into()],
    );
    table.note(format!(
        "{} trials x {} tasks, queue 6, drop 50% / defer 90%, fairness 5%",
        opts.trials, opts.num_tasks
    ));
    for kind in HeuristicKind::FIG7 {
        let mut cells = vec![kind.name().to_string()];
        for oversub in [19_000.0, 34_000.0] {
            let agg = Scenario::paper_default(kind, oversub).run(opts);
            progress(&agg.label);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// Fig. 8 — incurred cost per percent of on-time completions at 19k/34k
/// for PAM, PAMF, MOC, MM.
///
/// Trials are short (hundreds of tasks over seconds of simulated time),
/// so absolute dollar costs are tiny; the table reports the metric in
/// 10⁻⁴ USD per percent plus each heuristic's cost relative to PAM — the
/// paper's claim is the *relative* ≈40 % saving.
#[must_use]
pub fn fig8(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Fig. 8 — Cost / percent tasks completed on time",
        vec![
            "heuristic".into(),
            "@19k (1e-4 USD/%)".into(),
            "@34k (1e-4 USD/%)".into(),
            "rel. to PAM @19k".into(),
            "rel. to PAM @34k".into(),
        ],
    );
    table.note(format!(
        "{} trials x {} tasks; EC2-style price table; 'unchartable' = zero robustness",
        opts.trials, opts.num_tasks
    ));
    let kinds = [HeuristicKind::Pam, HeuristicKind::Pamf, HeuristicKind::Moc, HeuristicKind::Mm];
    // means[kind][level] = Option<(mean, half_width)>
    let mut means: Vec<Vec<Option<(f64, f64)>>> = Vec::new();
    for kind in kinds {
        let mut row = Vec::new();
        for oversub in [19_000.0, 34_000.0] {
            let agg = Scenario::paper_default(kind, oversub).run(opts);
            progress(&agg.label);
            row.push(agg.cost_per_percent.as_ref().map(|c| (c.mean, c.half_width)));
        }
        means.push(row);
    }
    let pam = &means[0];
    for (kind, row) in kinds.iter().zip(&means) {
        let mut cells = vec![kind.name().to_string()];
        for cell in row {
            match cell {
                Some((m, hw)) => cells.push(format!("{:.2} ± {:.2}", m * 1e4, hw * 1e4)),
                None => cells.push("unchartable".into()),
            }
        }
        for (cell, pam_cell) in row.iter().zip(pam) {
            match (cell, pam_cell) {
                (Some((m, _)), Some((p, _))) if *p > 0.0 => {
                    cells.push(format!("{:.2}x", m / p));
                }
                _ => cells.push(String::new()),
            }
        }
        table.push_row(cells);
    }
    table
}

/// Fig. 9 — PAMF vs MM on the video-transcoding workload across four
/// oversubscription levels.
#[must_use]
pub fn fig9(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Fig. 9 — Video transcoding workload: PAMF vs MM",
        vec!["oversubscription".into(), "PAMF (%)".into(), "MM (%)".into()],
    );
    table.note(format!(
        "4 transcoding ops x 4 EC2 VM types (synthetic PET, see docs/ARCHITECTURE.md, Workloads), {} trials x {} tasks",
        opts.trials, opts.num_tasks
    ));
    table.note("arrival variance 1.0x mean: §VI-B exempts the §VII-G workload from the 10% default (live streams are bursty)");
    for oversub in [10_000.0, 12_500.0, 15_000.0, 17_500.0] {
        let mut cells = vec![format!("{:.1}k", oversub / 1000.0)];
        for kind in [HeuristicKind::Pamf, HeuristicKind::Mm] {
            let scenario = Scenario {
                label: format!("{} transcode @ {:.1}k", kind.name(), oversub / 1000.0),
                system: SystemKind::Transcode,
                workload: WorkloadConfig {
                    oversubscription: oversub,
                    arrival_variance_frac: 1.0,
                    ..Default::default()
                },
                ..Scenario::paper_default(kind, oversub)
            };
            let agg = scenario.run(opts);
            progress(&agg.label);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// The paper states "the same pattern is observed with other
/// oversubscription levels evaluated" (§VII-E) without showing them; this
/// sweep fills that gap: all six heuristics across six levels.
#[must_use]
pub fn levels(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Levels — robustness across oversubscription levels (paper §VII-E claim)",
        vec![
            "heuristic".into(),
            "@10k (%)".into(),
            "@15k (%)".into(),
            "@19k (%)".into(),
            "@25k (%)".into(),
            "@30k (%)".into(),
            "@34k (%)".into(),
        ],
    );
    table.note(format!("{} trials x {} tasks; paper-default pruning", opts.trials, opts.num_tasks));
    for kind in HeuristicKind::FIG7 {
        let mut cells = vec![kind.name().to_string()];
        for oversub in [10_000.0, 15_000.0, 19_000.0, 25_000.0, 30_000.0, 34_000.0] {
            let agg = Scenario::paper_default(kind, oversub).run(opts);
            progress(&agg.label);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// Churn — robustness under dynamic cluster membership. Not in the
/// paper: the machine set there is frozen, yet the premise is *robust
/// dynamic* resource allocation. This scenario runs each heuristic on a
/// 32-machine cluster twice per trial — once static, once under a
/// generated churn timeline (late joins, drains, failures with task
/// requeue) — and reports how much robustness the churn costs, plus the
/// failure-requeue volume and the per-capacity-epoch trajectory length.
#[must_use]
pub fn churn(opts: &FigOptions) -> Table {
    const MACHINES: usize = 32;
    let mut table = Table::new(
        "Churn — robustness under dynamic cluster membership (32 machines)",
        vec![
            "heuristic".into(),
            "static (%)".into(),
            "churn (%)".into(),
            "delta (pp)".into(),
            "requeued/trial".into(),
            "capacity epochs/trial".into(),
        ],
    );
    table.note(format!(
        "{} trials x {} tasks; 26 machines at t=0, 6 join mid-run, 4 drains + 3 fails \
         (floor 16); failed machines requeue their queued tasks through the mapper",
        opts.trials, opts.num_tasks
    ));
    let seeds = SeedSequence::new(opts.seed);
    let spec = specint_cluster(MACHINES, 6, &mut seeds.stream(0));
    // Per-machine load matched to the 8-machine 34k level; churn spread
    // over the arrival window plus drain-out tail.
    let workload = WorkloadConfig {
        num_tasks: opts.num_tasks,
        oversubscription: 34_000.0 * (MACHINES as f64 / 8.0),
        ..Default::default()
    };
    let generator = WorkloadGenerator::new(workload);
    let churn_config = ChurnConfig {
        num_machines: MACHINES,
        initial_absent: 6,
        drains: 4,
        fails: 3,
        span: (opts.num_tasks as hcsim_model::Time) * 2,
        min_active: 16,
    };
    for kind in [HeuristicKind::Pam, HeuristicKind::Pamf, HeuristicKind::Moc, HeuristicKind::Mm] {
        let outcomes: Vec<(f64, f64, f64, f64)> =
            parallel_map(opts.trials, opts.threads, |trial| {
                let trial_seeds = seeds.child(100 + trial as u64);
                let tasks = generator.generate(&spec, &mut trial_seeds.stream(0));
                let churn_trace = cluster_churn(&churn_config, &mut trial_seeds.stream(2));
                let static_report = {
                    let mut mapper = kind.build(PruningConfig::default());
                    let mut rng = trial_seeds.stream(1);
                    run_simulation(&spec, SimConfig::default(), &tasks, &mut mapper, &mut rng)
                };
                let churn_report = {
                    let mut mapper = kind.build(PruningConfig::default());
                    let mut rng = trial_seeds.stream(1);
                    run_simulation_with_churn(
                        &spec,
                        SimConfig::default(),
                        &tasks,
                        &churn_trace,
                        &mut mapper,
                        &mut rng,
                    )
                };
                (
                    static_report.metrics.pct_on_time,
                    churn_report.metrics.pct_on_time,
                    churn_report.churn.requeued as f64,
                    churn_report.epochs.len() as f64,
                )
            });
        progress(&format!("{} churn @ {MACHINES}m", kind.name()));
        let stat = mean_ci95(&outcomes.iter().map(|o| o.0).collect::<Vec<_>>());
        let churned = mean_ci95(&outcomes.iter().map(|o| o.1).collect::<Vec<_>>());
        let requeued = outcomes.iter().map(|o| o.2).sum::<f64>() / outcomes.len().max(1) as f64;
        let epochs = outcomes.iter().map(|o| o.3).sum::<f64>() / outcomes.len().max(1) as f64;
        table.push_row(vec![
            kind.name().to_string(),
            ci(&stat),
            ci(&churned),
            format!("{:+.1}", churned.mean - stat.mean),
            format!("{requeued:.1}"),
            format!("{epochs:.1}"),
        ]);
    }
    table
}

/// Service — crash-safe online scheduling. Not in the paper: the
/// experiments there are offline trials, but the premise is a scheduler
/// that keeps running. This scenario drives the service driver three
/// ways per trial on the paper's 8-machine system under churn: an
/// uninterrupted run; a crash at membership epoch 2 followed by
/// restore + resume (the resumed report must be bit-identical to the
/// uninterrupted one, and the recovery time is measured); and a 10×
/// overload (oversubscription 340k) against a tight admission bound,
/// where every arrival must be accounted as admitted or shed.
#[must_use]
pub fn service(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Service — crash recovery and overload shedding (8 machines, PAM)",
        vec![
            "scenario".into(),
            "robustness (%)".into(),
            "admitted/trial".into(),
            "shed/trial".into(),
            "bit-identical".into(),
            "restore µs".into(),
            "recovery ms".into(),
        ],
    );
    table.note(format!(
        "{} trials x {} tasks; crash at membership epoch 2, restore from checkpoint \
         bytes, resume against a full schedule replay; overload at 10x the 34k \
         arrival intensity with backlog bound 16",
        opts.trials, opts.num_tasks
    ));
    let seeds = SeedSequence::new(opts.seed);
    let spec = specint_system(6, &mut seeds.stream(0));
    let generator = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: opts.num_tasks,
        oversubscription: 34_000.0,
        ..Default::default()
    });
    let churn_config = ChurnConfig {
        num_machines: spec.machines.len(),
        initial_absent: 2,
        drains: 2,
        fails: 2,
        span: 150_000,
        min_active: 4,
    };
    let run = |service: &ServiceConfig,
               fault: &FaultPlan,
               churn: Option<&hcsim_model::ChurnTrace>,
               schedule: &ArrivalSchedule,
               trial_seeds: &SeedSequence| {
        run_with_recovery(
            &spec,
            SimConfig::untrimmed(),
            service,
            fault,
            churn,
            schedule.entries(),
            32,
            || HeuristicKind::Pam.build(PruningConfig::default()),
            || trial_seeds.stream(1),
        )
    };

    // Baseline + crash@epoch2 on the same trial inputs.
    let cycles: Vec<(f64, f64, f64, f64, f64, f64, f64)> =
        parallel_map(opts.trials, opts.threads, |trial| {
            let trial_seeds = seeds.child(200 + trial as u64);
            let tasks = generator.generate(&spec, &mut trial_seeds.stream(0));
            let churn_trace = cluster_churn(&churn_config, &mut trial_seeds.stream(2));
            let schedule = ArrivalSchedule::from_tasks(&tasks);
            let service = ServiceConfig::default();
            let baseline =
                run(&service, &FaultPlan::none(), Some(&churn_trace), &schedule, &trial_seeds);
            let fault = FaultPlan { kill_at_epoch: Some(2), ..FaultPlan::none() };
            let crashed = run(&service, &fault, Some(&churn_trace), &schedule, &trial_seeds);
            let identical = format!("{:?}", crashed.report.sim)
                == format!("{:?}", baseline.report.sim)
                && crashed.killed_at_epoch == Some(2);
            (
                baseline.report.sim.metrics.pct_on_time,
                crashed.report.sim.metrics.pct_on_time,
                baseline.report.stats.admitted as f64,
                baseline.report.stats.shed as f64,
                if identical { 1.0 } else { 0.0 },
                crashed.restore_nanos.unwrap_or(0) as f64,
                crashed.resume_run_nanos.unwrap_or(0) as f64,
            )
        });
    progress("service baseline + crash@epoch2");

    // Overload leg: 10x the arrival intensity, tight admission bound.
    let overload_gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: opts.num_tasks,
        oversubscription: 340_000.0,
        ..Default::default()
    });
    let overload: Vec<(f64, f64, f64)> = parallel_map(opts.trials, opts.threads, |trial| {
        let trial_seeds = seeds.child(300 + trial as u64);
        let tasks = overload_gen.generate(&spec, &mut trial_seeds.stream(0));
        let schedule = ArrivalSchedule::from_tasks(&tasks);
        let service = ServiceConfig { backlog_bound: 16, ..ServiceConfig::default() };
        let out = run(&service, &FaultPlan::none(), None, &schedule, &trial_seeds);
        assert_eq!(
            out.report.stats.admitted + out.report.stats.shed,
            opts.num_tasks as u64,
            "overload accounting: every arrival is admitted or shed"
        );
        (
            out.report.sim.metrics.pct_on_time,
            out.report.stats.admitted as f64,
            out.report.stats.shed as f64,
        )
    });
    progress("service overload 340k");

    let mean = |it: &mut dyn Iterator<Item = f64>| {
        let v: Vec<f64> = it.collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let base_rob = mean_ci95(&cycles.iter().map(|c| c.0).collect::<Vec<_>>());
    let crash_rob = mean_ci95(&cycles.iter().map(|c| c.1).collect::<Vec<_>>());
    let admitted = mean(&mut cycles.iter().map(|c| c.2));
    let shed = mean(&mut cycles.iter().map(|c| c.3));
    let identical = cycles.iter().filter(|c| c.4 > 0.5).count();
    let restore_us = mean(&mut cycles.iter().map(|c| c.5)) / 1e3;
    let recovery_ms = mean(&mut cycles.iter().map(|c| c.6)) / 1e6;
    table.push_row(vec![
        "uninterrupted".into(),
        ci(&base_rob),
        format!("{admitted:.1}"),
        format!("{shed:.1}"),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);
    table.push_row(vec![
        "crash@epoch2 → restore → resume".into(),
        ci(&crash_rob),
        format!("{admitted:.1}"),
        format!("{shed:.1}"),
        format!("{identical}/{}", cycles.len()),
        format!("{restore_us:.1}"),
        format!("{recovery_ms:.1}"),
    ]);
    let over_rob = mean_ci95(&overload.iter().map(|o| o.0).collect::<Vec<_>>());
    let over_admitted = mean(&mut overload.iter().map(|o| o.1));
    let over_shed = mean(&mut overload.iter().map(|o| o.2));
    table.push_row(vec![
        "overload 10x (340k, bound 16)".into(),
        ci(&over_rob),
        format!("{over_admitted:.1}"),
        format!("{over_shed:.1}"),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);
    table
}

/// One heuristic's aggregate in the serverless sweep (the acceptance data
/// behind the [`faas`] table).
#[derive(Debug, Clone)]
pub struct FaasSweepRow {
    /// Heuristic name.
    pub heuristic: &'static str,
    /// Mean % of requests completed on time.
    pub on_time: ConfidenceInterval,
    /// Mean container cold starts per trial.
    pub cold_starts: f64,
    /// Mean warm-container hits per trial.
    pub warm_hits: f64,
    /// Mean requests removed by the pruner per trial.
    pub pruned: f64,
}

/// Runs the serverless sweep and returns per-heuristic aggregates: PAM
/// (probabilistic pruning, cold-aware scoring) against the MM baseline on
/// the same trial inputs.
#[must_use]
pub fn faas_sweep(opts: &FigOptions) -> Vec<FaasSweepRow> {
    let cfg = FaasConfig { num_tasks: opts.num_tasks, ..FaasConfig::default() };
    let seeds = SeedSequence::new(opts.seed);
    let spec = faas_system(&cfg, &mut seeds.stream(0));
    let generator = FaasGenerator::new(cfg);
    [HeuristicKind::Pam, HeuristicKind::Mm]
        .into_iter()
        .map(|kind| {
            let outcomes: Vec<(f64, f64, f64, f64)> =
                parallel_map(opts.trials, opts.threads, |trial| {
                    let trial_seeds = seeds.child(500 + trial as u64);
                    let tasks = generator.generate(&spec, &mut trial_seeds.stream(0));
                    let mut mapper = kind.build(PruningConfig::default());
                    let mut rng = trial_seeds.stream(1);
                    let report =
                        run_simulation(&spec, SimConfig::default(), &tasks, &mut mapper, &mut rng);
                    (
                        report.metrics.pct_on_time,
                        report.faas.cold_starts as f64,
                        report.faas.warm_hits as f64,
                        report.metrics.outcomes.pruned as f64,
                    )
                });
            progress(&format!("faas {}", kind.name()));
            let n = outcomes.len().max(1) as f64;
            let mean =
                |col: fn(&(f64, f64, f64, f64)) -> f64| outcomes.iter().map(col).sum::<f64>() / n;
            FaasSweepRow {
                heuristic: kind.name(),
                on_time: mean_ci95(&outcomes.iter().map(|o| o.0).collect::<Vec<_>>()),
                cold_starts: mean(|o| o.1),
                warm_hits: mean(|o| o.2),
                pruned: mean(|o| o.3),
            }
        })
        .collect()
}

/// FaaS — probabilistic pruning on a serverless platform, following the
/// sequel paper (arXiv:1905.04456). Requests are functions: dozens of
/// millisecond-scale classes under Zipf-popular, bursty traffic at >10×
/// the batch benchmark's arrival intensity. Machines keep completed
/// functions' containers warm for a keep-alive window; a request landing
/// on a machine with no warm container pays a container spin-up 5–15× its
/// execution mean, and the scorer folds that spin-up PMF into every cold
/// placement. PAM's function-level pruning is compared against the MM
/// baseline on identical trial inputs, with cold/warm accounting.
#[must_use]
pub fn faas(opts: &FigOptions) -> Table {
    let cfg = FaasConfig { num_tasks: opts.num_tasks, ..FaasConfig::default() };
    let classic = WorkloadConfig { oversubscription: 34_000.0, ..Default::default() };
    let mut table = Table::new(
        "FaaS — serverless pruning vs baseline under overload",
        vec![
            "heuristic".into(),
            "on time (%)".into(),
            "cold starts/trial".into(),
            "warm hits/trial".into(),
            "warm-hit rate (%)".into(),
            "pruned/trial".into(),
        ],
    );
    table.note(format!(
        "{} trials x {} requests; {} functions x {} machines, keep-alive {}, \
         spin-up {:.0}-{:.0}x exec mean",
        opts.trials,
        opts.num_tasks,
        cfg.num_functions,
        cfg.num_machines,
        cfg.keep_alive,
        cfg.spinup_factor.0,
        cfg.spinup_factor.1,
    ));
    table.note(format!(
        "arrival intensity {:.1}x the trial_200t_34k benchmark ({:.2} vs {:.2} requests/unit)",
        cfg.intensity_multiple_of(&classic, 12),
        cfg.aggregate_arrival_rate(),
        classic.aggregate_arrival_rate(12),
    ));
    for row in faas_sweep(opts) {
        let started = row.cold_starts + row.warm_hits;
        let warm_rate = if started > 0.0 { 100.0 * row.warm_hits / started } else { 0.0 };
        table.push_row(vec![
            row.heuristic.to_string(),
            ci(&row.on_time),
            format!("{:.1}", row.cold_starts),
            format!("{:.1}", row.warm_hits),
            format!("{warm_rate:.1}"),
            format!("{:.1}", row.pruned),
        ]);
    }
    table
}

/// The static `(drop, defer)` pairs the adaptive controller is swept
/// against: conservative, the paper default, and aggressive.
pub const ADAPTIVE_STATICS: [(f64, f64); 3] = [(0.30, 0.70), (0.50, 0.90), (0.70, 0.95)];

/// Non-stationary traces for the adaptive sweep, scaled to the actual
/// arrival window of `num_tasks` at the 10k base intensity (~`span ·
/// num_tasks / oversubscription` time units — the profile has to move
/// *within* the trial, not after it ends). The tight 0.35 slack puts the
/// calm phases in the admission-friendly regime and the storm phases in
/// the shed-early regime, so no single static pair fits a whole trace.
#[must_use]
pub fn adaptive_traces(num_tasks: usize) -> Vec<(&'static str, NonStationaryConfig)> {
    let base = WorkloadConfig {
        num_tasks,
        oversubscription: 10_000.0,
        slack_beta: 0.35,
        ..WorkloadConfig::default()
    };
    let window = (base.span as f64 * num_tasks as f64 / base.oversubscription) as Time;
    vec![
        (
            "bursts",
            NonStationaryConfig {
                base,
                // Two moderate bursts, each long enough (≳ a task
                // lifetime) for the detector to engage mid-burst and the
                // controller to act within it, with calm recovery gaps.
                pattern: LoadPattern::Bursts { period: window / 2, duty: 0.3, peak: 3.0 },
            },
        ),
        (
            "diurnal",
            NonStationaryConfig {
                base,
                // A gentle hump (1× → 3× → 1×): calm tails where the
                // conservative pair wins, a mid-storm where the base pair
                // does — the tracking problem, not a flood.
                pattern: LoadPattern::DiurnalRamp { span: window, peak: 3.0 },
            },
        ),
        (
            "regime-switch",
            NonStationaryConfig {
                base,
                // A long calm opening before a sustained 4× storm tail:
                // equal task mass on the two sides, and a tail long enough
                // that mid-storm adaptation matters (an instantaneous
                // cliff shorter than one task lifetime would be over
                // before any feedback signal exists).
                pattern: LoadPattern::RegimeSwitch { regimes: vec![(window / 2, 4.0)] },
            },
        ),
    ]
}

/// One trace's outcome in the adaptive sweep: mean on-time percentage
/// under each static pair of [`ADAPTIVE_STATICS`] and under the
/// closed-loop controller.
#[derive(Debug, Clone)]
pub struct AdaptiveSweepRow {
    /// Trace name ("bursts", "diurnal", "regime-switch").
    pub trace: &'static str,
    /// Mean on-time % per static pair, in [`ADAPTIVE_STATICS`] order.
    pub statics: Vec<f64>,
    /// Mean on-time % under the [`AdaptiveConfig`] default controller.
    pub adaptive: f64,
}

impl AdaptiveSweepRow {
    /// The best static pair's mean — the bar the controller must clear.
    #[must_use]
    pub fn best_static(&self) -> f64 {
        self.statics.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs the adaptive sweep and returns the raw per-trace means (the
/// acceptance data behind the [`adaptive`] table).
#[must_use]
pub fn adaptive_sweep(opts: &FigOptions) -> Vec<AdaptiveSweepRow> {
    let seeds = SeedSequence::new(opts.seed);
    let spec = specint_system(6, &mut seeds.stream(0));
    let run_config = |trace: &NonStationaryConfig, pruning: PruningConfig| -> f64 {
        let outcomes: Vec<f64> = parallel_map(opts.trials, opts.threads, |trial| {
            let trial_seeds = seeds.child(400 + trial as u64);
            let tasks = generate_nonstationary(trace, &spec, &mut trial_seeds.stream(0));
            let mut mapper = HeuristicKind::Pam.build(pruning);
            let mut rng = trial_seeds.stream(1);
            run_simulation(&spec, SimConfig::default(), &tasks, &mut mapper, &mut rng)
                .metrics
                .pct_on_time
        });
        outcomes.iter().sum::<f64>() / outcomes.len().max(1) as f64
    };
    adaptive_traces(opts.num_tasks)
        .into_iter()
        .map(|(name, trace)| {
            let statics = ADAPTIVE_STATICS
                .iter()
                .map(|&(drop, defer)| {
                    run_config(
                        &trace,
                        PruningConfig {
                            drop_threshold: drop,
                            defer_threshold: defer,
                            ..PruningConfig::default()
                        },
                    )
                })
                .collect();
            let adaptive = run_config(
                &trace,
                PruningConfig { adaptive: Some(AdaptiveConfig), ..PruningConfig::default() },
            );
            progress(&format!("adaptive trace {name}"));
            AdaptiveSweepRow { trace: name, statics, adaptive }
        })
        .collect()
}

/// Adaptive — closed-loop threshold control vs static sweeps. Not in the
/// paper: its thresholds are fixed offline per oversubscription level,
/// but under *non-stationary* load (bursts, a diurnal ramp, regime
/// switches) no single `(drop, defer)` pair fits the whole run. Each
/// trace is run under every static pair of [`ADAPTIVE_STATICS`] and under
/// the [`AdaptiveConfig`] controller, which steers per-class thresholds
/// from a sliding window of recent outcomes.
#[must_use]
pub fn adaptive(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Adaptive — closed-loop thresholds vs static sweeps on non-stationary load",
        vec![
            "trace".into(),
            "drop30/defer70 (%)".into(),
            "drop50/defer90 (%)".into(),
            "drop70/defer95 (%)".into(),
            "adaptive (%)".into(),
            "adaptive vs best static (pp)".into(),
        ],
    );
    table.note(format!(
        "PAM, {} trials x {} tasks, 10k base intensity reshaped by each profile; \
         the controller observes a {}-outcome window and steers drop/defer online",
        opts.trials,
        opts.num_tasks,
        AdaptiveController::WINDOW,
    ));
    for row in adaptive_sweep(opts) {
        let mut cells = vec![row.trace.to_string()];
        cells.extend(row.statics.iter().map(|m| format!("{m:.1}")));
        cells.push(format!("{:.1}", row.adaptive));
        cells.push(format!("{:+.1}", row.adaptive - row.best_static()));
        table.push_row(cells);
    }
    table
}

/// Dispatches a figure by CLI name ("fig4" … "fig9").
#[must_use]
pub fn by_name(name: &str, opts: &FigOptions) -> Option<Table> {
    match name {
        "fig4" => Some(fig4(opts)),
        "fig5" => Some(fig5(opts)),
        "fig6" => Some(fig6(opts)),
        "fig7" => Some(fig7(opts)),
        "fig8" => Some(fig8(opts)),
        "fig9" => Some(fig9(opts)),
        "levels" => Some(levels(opts)),
        "churn" => Some(churn(opts)),
        "service" => Some(service(opts)),
        "adaptive" => Some(adaptive(opts)),
        "faas" => Some(faas(opts)),
        _ => None,
    }
}

/// All figure names in paper order.
pub const ALL_FIGURES: [&str; 6] = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"];

/// Supplementary (non-paper) sweeps runnable by name.
pub const EXTRA_FIGURES: [&str; 5] = ["levels", "churn", "service", "adaptive", "faas"];

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-level options: enough to exercise every code path.
    fn smoke() -> FigOptions {
        FigOptions { trials: 2, num_tasks: 100, seed: 3, threads: 2 }
    }

    #[test]
    fn fig7_table_shape() {
        let t = fig7(&smoke());
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.headers.len(), 3);
        assert_eq!(t.rows[0][0], "PAM");
        assert_eq!(t.rows[5][0], "MMU");
    }

    #[test]
    fn fig9_table_shape() {
        let t = fig9(&smoke());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0][0], "10.0k");
    }

    #[test]
    fn by_name_dispatch() {
        assert!(by_name("nope", &smoke()).is_none());
        assert_eq!(ALL_FIGURES.len(), 6);
    }

    #[test]
    fn churn_table_shape() {
        let t = churn(&FigOptions { trials: 2, num_tasks: 80, seed: 3, threads: 2 });
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.headers.len(), 6);
        assert_eq!(t.rows[0][0], "PAM");
        // Churn trials must actually have churned: capacity epochs > 1.
        for row in &t.rows {
            let epochs: f64 = row[5].parse().unwrap();
            assert!(epochs > 1.0, "no capacity changes in {row:?}");
        }
    }

    #[test]
    fn adaptive_table_shape() {
        let t = adaptive(&smoke());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.headers.len(), ADAPTIVE_STATICS.len() + 3);
        assert_eq!(t.rows[0][0], "bursts");
        assert_eq!(t.rows[2][0], "regime-switch");
        // Every cell past the trace name must be a finite percentage.
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v.is_finite(), "non-finite cell in {row:?}");
            }
        }
    }

    /// The acceptance sweep: at full fidelity the controller must match or
    /// beat the best static pair on every trace and strictly beat every
    /// static pair on at least one. Runs the real 30x800 sweep, so it is
    /// gated behind `HCSIM_TEST_WIDE=1` (CI's wide-sweep leg).
    #[test]
    fn adaptive_beats_statics_at_full_fidelity() {
        if std::env::var("HCSIM_TEST_WIDE").as_deref() != Ok("1") {
            return;
        }
        let rows = adaptive_sweep(&FigOptions::default());
        assert_eq!(rows.len(), 3);
        let mut strict_somewhere = false;
        for row in &rows {
            let best = row.best_static();
            assert!(
                row.adaptive >= best,
                "{}: adaptive {:.2} below best static {:.2}",
                row.trace,
                row.adaptive,
                best
            );
            if row.statics.iter().all(|&s| row.adaptive > s) {
                strict_somewhere = true;
            }
        }
        assert!(strict_somewhere, "controller never strictly beat all statics: {rows:?}");
    }

    #[test]
    fn faas_table_shape() {
        let t = faas(&FigOptions { trials: 2, num_tasks: 150, seed: 3, threads: 2 });
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), 6);
        assert_eq!(t.rows[0][0], "PAM");
        assert_eq!(t.rows[1][0], "MM");
        // The keep-alive machinery must actually fire: both cold starts
        // and warm hits occur in every configuration.
        for row in &t.rows {
            let cold: f64 = row[2].parse().unwrap();
            let warm: f64 = row[3].parse().unwrap();
            assert!(cold > 0.0, "no cold starts in {row:?}");
            assert!(warm > 0.0, "no warm hits in {row:?}");
        }
    }

    /// The serverless acceptance sweep: at full fidelity PAM's
    /// function-level pruning must beat the no-pruning baseline on
    /// on-time completions under >10x overload. Runs the real 30-trial
    /// sweep, so it is gated behind `HCSIM_TEST_WIDE=1` (CI's wide-sweep
    /// leg).
    #[test]
    fn faas_pruning_beats_baseline_at_full_fidelity() {
        if std::env::var("HCSIM_TEST_WIDE").as_deref() != Ok("1") {
            return;
        }
        let rows = faas_sweep(&FigOptions::default());
        assert_eq!(rows.len(), 2);
        let (pam, mm) = (&rows[0], &rows[1]);
        assert_eq!(pam.heuristic, "PAM");
        assert!(
            pam.on_time.mean > mm.on_time.mean,
            "pruning must beat the baseline under overload: PAM {:.2}% vs MM {:.2}%",
            pam.on_time.mean,
            mm.on_time.mean
        );
        assert!(pam.pruned > 0.0, "PAM must actually prune under 10x overload");
        for row in &rows {
            assert!(row.cold_starts > 0.0, "{}: no cold starts", row.heuristic);
            assert!(row.warm_hits > 0.0, "{}: no warm hits", row.heuristic);
        }
    }

    #[test]
    fn service_table_shape() {
        let t = service(&FigOptions { trials: 2, num_tasks: 120, seed: 3, threads: 2 });
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.headers.len(), 7);
        assert_eq!(t.rows[0][0], "uninterrupted");
        // Every crash trial must have fired at epoch 2 and resumed onto
        // the uninterrupted trajectory.
        assert_eq!(t.rows[1][4], "2/2", "crash recovery must be bit-identical");
        // The overload leg must actually shed.
        let shed: f64 = t.rows[2][3].parse().unwrap();
        assert!(shed > 0.0, "340k oversubscription must trigger shedding");
    }
}
