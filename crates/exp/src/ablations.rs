//! Ablation studies of the design choices the paper makes without
//! publishing sensitivity data. Each function isolates one knob of the
//! pruning mechanism (or of the simulation substrate) and sweeps it with
//! everything else at paper defaults.
//!
//! | Ablation | Question it answers |
//! |---|---|
//! | [`eq7_adjustment`] | Does the per-task skewness/position threshold adjustment (Eq. 7) earn its complexity? |
//! | [`rho_sweep`] | How sensitive is Eq. 7 to its unpublished scale ρ? |
//! | [`drop_executing`] | How much of the win comes from evicting *executing* tasks vs pending-only pruning? |
//! | [`impulse_budget`] | Accuracy/cost trade-off of PMF compaction (§IV's "approximate by aggregating impulses"). |
//! | [`batch_window`] | Effect of bounding how many batch tasks are scored per event. |
//! | [`model_error`] | Does PAM's advantage survive a miscalibrated PET? |
//! | [`drop_policy`] | System-level scenarios A/B/C (Eq. 2–5) under PAM and MM. |
//! | [`approximate_computing`] | §VIII future work: how much evicted work could be salvaged as degraded results? |
//! | [`queue_capacity`] | The paper fixes machine queues at 6; how does depth interact with pruning? |
//! | [`arrival_burstiness`] | The paper fixes arrival variance at 10 % of the mean; does pruning survive bursty arrivals? |

use crate::report::Table;
use crate::runner::{FigOptions, Scenario, SystemKind};
use hcsim_core::{HeuristicKind, PruningConfig};
use hcsim_pmf::DropPolicy;
use hcsim_sim::SimConfig;

fn ci(ci: &hcsim_stats::ConfidenceInterval) -> String {
    format!("{:.1} ± {:.1}", ci.mean, ci.half_width)
}

/// Eq. 7 per-task threshold adjustment on/off, PAM at 19k and 34k.
#[must_use]
pub fn eq7_adjustment(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — Eq. 7 per-task drop-threshold adjustment",
        vec!["adjustment".into(), "@19k (%)".into(), "@34k (%)".into()],
    );
    table.note("PAM; skewness/queue-position adjustment of the dropping threshold");
    for enabled in [true, false] {
        let mut cells =
            vec![if enabled { "on (paper)".to_string() } else { "off (flat threshold)".into() }];
        for oversub in [19_000.0, 34_000.0] {
            let agg = Scenario {
                label: format!("eq7={enabled} @{oversub}"),
                pruning: PruningConfig { per_task_adjustment: enabled, ..Default::default() },
                ..Scenario::paper_default(HeuristicKind::Pam, oversub)
            }
            .run(opts);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// Sensitivity to Eq. 7's unpublished scale ρ, PAM at 34k.
#[must_use]
pub fn rho_sweep(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — Eq. 7 scale rho",
        vec!["rho".into(), "robustness @34k (%)".into(), "pruned / trial".into()],
    );
    table.note("PAM @ 34k; the paper introduces rho without a value (hcsim default 0.1)");
    for rho in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let agg = Scenario {
            label: format!("rho={rho}"),
            pruning: PruningConfig { rho, ..Default::default() },
            ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
        }
        .run(opts);
        table.push_row(vec![
            format!("{rho:.2}"),
            ci(&agg.robustness),
            format!("{:.1}", agg.mean_pruned),
        ]);
    }
    table
}

/// Pruner eviction of executing tasks on/off, PAM at 34k.
#[must_use]
pub fn drop_executing(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — pruner may evict the executing task",
        vec!["mode".into(), "robustness @34k (%)".into(), "pruned / trial".into()],
    );
    table.note("PAM @ 34k; §V-A walks the queue 'beginning at the executing task'");
    for enabled in [true, false] {
        let agg = Scenario {
            label: format!("drop_executing={enabled}"),
            pruning: PruningConfig { drop_executing: enabled, ..Default::default() },
            ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
        }
        .run(opts);
        table.push_row(vec![
            if enabled { "evict executing (paper)".into() } else { "pending only".to_string() },
            ci(&agg.robustness),
            format!("{:.1}", agg.mean_pruned),
        ]);
    }
    table
}

/// PMF impulse-budget sweep: accuracy vs compute (§IV's aggregation).
#[must_use]
pub fn impulse_budget(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — availability-PMF impulse budget",
        vec!["budget".into(), "robustness @34k (%)".into(), "wall time (s)".into()],
    );
    table.note("PAM @ 34k; smaller budgets coarsen every chained completion-time PMF");
    for budget in [4usize, 8, 16, 24, 48] {
        let agg = Scenario {
            label: format!("budget={budget}"),
            pruning: PruningConfig { impulse_budget: budget, ..Default::default() },
            ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
        }
        .run(opts);
        table.push_row(vec![
            budget.to_string(),
            ci(&agg.robustness),
            format!("{:.2}", agg.wall_seconds),
        ]);
    }
    table
}

/// Batch-window sweep: how many unmapped tasks each event scores.
#[must_use]
pub fn batch_window(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — batch evaluation window",
        vec!["window".into(), "robustness @34k (%)".into(), "wall time (s)".into()],
    );
    table.note("PAM @ 34k; the paper leaves the batch unbounded (hcsim default 192)");
    for window in [24usize, 48, 96, 192, 384] {
        let agg = Scenario {
            label: format!("window={window}"),
            pruning: PruningConfig { batch_window: window, ..Default::default() },
            ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
        }
        .run(opts);
        table.push_row(vec![
            window.to_string(),
            ci(&agg.robustness),
            format!("{:.2}", agg.wall_seconds),
        ]);
    }
    table
}

/// Scheduler model error: PET means perturbed by ±f, ground truth intact.
#[must_use]
pub fn model_error(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — PET model error",
        vec!["PET mean error".into(), "PAM @34k (%)".into(), "MM @34k (%)".into()],
    );
    table.note("the paper assumes a calibrated PET; here PET means are off by a uniform ±f");
    for pct in [0u8, 10, 25, 50] {
        let mut cells = vec![format!("±{pct}%")];
        for kind in [HeuristicKind::Pam, HeuristicKind::Mm] {
            let agg = Scenario {
                label: format!("{kind} err={pct}%"),
                system: SystemKind::SpecIntModelError(pct),
                ..Scenario::paper_default(kind, 34_000.0)
            }
            .run(opts);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// System-level §IV scenarios A/B/C under PAM and MM.
#[must_use]
pub fn drop_policy(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — system drop policy (Eq. 2-5 scenarios)",
        vec!["scenario".into(), "PAM @34k (%)".into(), "MM @34k (%)".into()],
    );
    table.note("A = no dropping, B = pending dropped at deadline, C = executing evicted too");
    for (name, policy) in [
        ("A: None", DropPolicy::None),
        ("B: PendingOnly", DropPolicy::PendingOnly),
        ("C: All (paper)", DropPolicy::All),
    ] {
        let mut cells = vec![name.to_string()];
        for kind in [HeuristicKind::Pam, HeuristicKind::Mm] {
            let agg = Scenario {
                label: format!("{kind} {name}"),
                sim: SimConfig { drop_policy: policy, ..SimConfig::default() },
                ..Scenario::paper_default(kind, 34_000.0)
            }
            .run(opts);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// §VIII future work: approximate computing. A task evicted at its
/// deadline whose progress reached `min_progress` delivers a degraded
/// result; this sweeps the progress requirement and reports both the
/// unchanged robustness and the augmented service level.
#[must_use]
pub fn approximate_computing(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Extension — approximate computing (paper §VIII future work)",
        vec![
            "min progress".into(),
            "robustness @34k (%)".into(),
            "useful (full+approx) @34k (%)".into(),
            "approx / trial".into(),
        ],
    );
    table.note("PAM @ 34k; an eviction that completed >= min-progress of its work is salvaged");
    for min_progress in [None, Some(0.9), Some(0.75), Some(0.5)] {
        let agg = Scenario {
            label: format!("approx={min_progress:?}"),
            sim: SimConfig { approx_min_progress: min_progress, ..SimConfig::default() },
            ..Scenario::paper_default(HeuristicKind::Pam, 34_000.0)
        }
        .run(opts);
        let label = match min_progress {
            None => "off (paper)".to_string(),
            Some(p) => format!(">= {:.0}%", p * 100.0),
        };
        table.push_row(vec![
            label,
            ci(&agg.robustness),
            ci(&agg.useful),
            format!("{:.1}", agg.mean_approx),
        ]);
    }
    table
}

/// Machine-queue capacity sweep (the paper fixes 6, counting the
/// executing slot). Deeper queues commit more tasks to stale decisions
/// and compound completion-time uncertainty (§IV) — pruning should care
/// more about depth than a deadline-blind mapper does.
#[must_use]
pub fn queue_capacity(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — machine-queue capacity",
        vec!["capacity".into(), "PAM @34k (%)".into(), "MM @34k (%)".into()],
    );
    table.note("queue capacity includes the executing slot (paper: 6)");
    for capacity in [1usize, 2, 4, 6, 12] {
        let mut cells = vec![capacity.to_string()];
        for kind in [HeuristicKind::Pam, HeuristicKind::Mm] {
            let agg = Scenario {
                label: format!("{kind} cap={capacity}"),
                queue_capacity: capacity,
                ..Scenario::paper_default(kind, 34_000.0)
            }
            .run(opts);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// Arrival-burstiness sweep: §VI-B fixes the inter-arrival variance at
/// 10 % of the mean; here it grows to strongly bursty arrivals.
#[must_use]
pub fn arrival_burstiness(opts: &FigOptions) -> Table {
    let mut table = Table::new(
        "Ablation — arrival burstiness",
        vec!["variance / mean".into(), "PAM @34k (%)".into(), "MM @34k (%)".into()],
    );
    table.note("gamma inter-arrivals; paper fixes variance at 10% of the mean");
    for frac in [0.1, 0.5, 1.0, 2.0, 4.0] {
        let mut cells = vec![format!("{frac:.1}")];
        for kind in [HeuristicKind::Pam, HeuristicKind::Mm] {
            let mut scenario = Scenario::paper_default(kind, 34_000.0);
            scenario.workload.arrival_variance_frac = frac;
            scenario.label = format!("{kind} burst={frac}");
            let agg = scenario.run(opts);
            cells.push(ci(&agg.robustness));
        }
        table.push_row(cells);
    }
    table
}

/// All ablations, in documentation order.
#[must_use]
pub fn all(opts: &FigOptions) -> Vec<Table> {
    vec![
        eq7_adjustment(opts),
        rho_sweep(opts),
        drop_executing(opts),
        impulse_budget(opts),
        batch_window(opts),
        model_error(opts),
        drop_policy(opts),
        approximate_computing(opts),
        queue_capacity(opts),
        arrival_burstiness(opts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> FigOptions {
        FigOptions { trials: 2, num_tasks: 120, seed: 9, threads: 2 }
    }

    #[test]
    fn eq7_table_shape() {
        let t = eq7_adjustment(&smoke());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), 3);
    }

    #[test]
    fn model_error_table_shape() {
        let t = model_error(&smoke());
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows[0][0].contains("±0%"));
    }

    #[test]
    fn approx_table_reports_salvage() {
        let t = approximate_computing(&smoke());
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows[0][0].contains("off"));
    }

    #[test]
    fn capacity_and_burstiness_tables() {
        let cap = queue_capacity(&smoke());
        assert_eq!(cap.rows.len(), 5);
        assert_eq!(cap.rows[0][0], "1");
        let burst = arrival_burstiness(&smoke());
        assert_eq!(burst.rows.len(), 5);
    }

    #[test]
    fn drop_policy_covers_three_scenarios() {
        let t = drop_policy(&smoke());
        assert_eq!(t.rows.len(), 3);
        assert!(t.rows[2][0].contains("paper"));
    }
}
