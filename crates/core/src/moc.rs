//! MOC — Max On-time Completions (§VI-C4, from Salehi et al., JPDC 2016).
//!
//! The strongest baseline: robustness-aware like PAM, but with neither
//! deferring-vs-dropping separation nor dynamic aggression. Per mapping
//! event:
//!
//! 1. **Phase 1** — for each batch task, find the machine offering the
//!    highest robustness (among machines with a free slot).
//! 2. **Culling** — discard provisional pairs below a fixed 30 %
//!    robustness threshold (the tasks stay in the batch; MOC never drops
//!    tasks from machine queues — "the inability to probabilistically drop
//!    tasks leads to wasted processing", §VII-E).
//! 3. **Permutation** — take the three pairs with the highest robustness
//!    and try committing each; for each hypothetical commit, re-score the
//!    other two candidates (their machine may now be busier) and keep the
//!    commit that maximizes total robustness. Map exactly one pair, then
//!    repeat until queues fill or candidates run out.
//!
//! Culling and permutation are the policy MOC runs on the mapping loop
//! it shares with PAM ([`TableLoop`]).

use crate::pruner::PruningConfig;
use crate::scorer::{PairScore, ProbScorer};
use crate::table_loop::TableLoop;
use hcsim_model::MachineId;
use hcsim_pmf::Pmf;
use hcsim_sim::{MapContext, Mapper};

/// Culling threshold: provisional pairs below 30 % robustness are
/// discarded (§VI-C4).
const CULL_THRESHOLD: f64 = 0.30;

/// Number of top pairs permuted (§VI-C4).
const PERMUTE_TOP: usize = 3;

/// The MOC mapping heuristic.
#[derive(Debug)]
pub struct Moc {
    table_loop: TableLoop,
    /// Owned-tail scratch for the permutation phase, reused across
    /// candidates and events (keeps mapping events allocation-free).
    tail_scratch: Pmf,
}

impl Moc {
    /// Creates MOC with the paper's parameters, PAM's impulse budget and
    /// batch window, and `threads` workers for the phase-1 per-machine
    /// scoring fan-out (`0` = the host's available parallelism; same
    /// bit-identical-merge guarantee as [`PruningConfig::threads`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let pam = PruningConfig::default();
        let table_loop = TableLoop::new(pam.impulse_budget, pam.batch_window, threads);
        Self { table_loop, tail_scratch: Pmf::delta(0) }
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Window row (= batch position) the candidate came from.
    row: usize,
    machine: MachineId,
    score: PairScore,
}

/// Permutation: the candidate whose assignment leaves the highest total
/// robustness across the top-k.
fn permute(
    candidates: &[Candidate],
    scorer: &mut ProbScorer,
    ctx: &MapContext<'_>,
    tail: &mut Pmf,
) -> Candidate {
    if candidates.len() == 1 {
        return candidates[0];
    }
    let mut best_total = f64::NEG_INFINITY;
    let mut best_idx = 0;
    for (idx, cand) in candidates.iter().enumerate() {
        let mut total = cand.score.robustness;
        // Hypothetical tail of cand's machine after assignment (single
        // copy into the reused scratch).
        let machine = ctx.machine(cand.machine);
        scorer.tail_into(machine, tail);
        let task = ctx.batch()[cand.row];
        let pet_pmf = ctx.spec().pet.pmf(task.type_id, cand.machine);
        // Pooled hypothetical append: the scorer compacts to its own
        // budget (== ours) and pools the storage.
        let hypo_tail = scorer.append_availability(tail, pet_pmf, task.deadline);
        let slot_left = machine.free_slots() > 1;
        for (jdx, other) in candidates.iter().enumerate() {
            if jdx == idx {
                continue;
            }
            let other_task = ctx.batch()[other.row];
            let r = if other.machine == cand.machine {
                if slot_left {
                    scorer
                        .score_against_tail(
                            &hypo_tail,
                            other_task.type_id,
                            other.machine,
                            other_task.deadline,
                        )
                        .robustness
                } else {
                    0.0 // queue would be full for the other
                }
            } else {
                other.score.robustness
            };
            total += r;
        }
        scorer.recycle(hypo_tail);
        if total > best_total {
            best_total = total;
            best_idx = idx;
        }
    }
    candidates[best_idx]
}

impl Mapper for Moc {
    fn name(&self) -> &str {
        "MOC"
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        self.table_loop.start_event(ctx);
        // Rows the bound pass proves below the culling threshold would be
        // discarded by the reduction anyway — skip scoring them.
        let tail = &mut self.tail_scratch;
        self.table_loop.map(ctx, &|_| CULL_THRESHOLD, |table, scorer, ctx, window| {
            // Phase 1 + culling, then the top-k by robustness.
            let mut candidates: Vec<Candidate> = (0..window)
                .filter_map(|row| {
                    let (machine, score) = table.best_for_row(ctx.machines(), row)?;
                    (score.robustness >= CULL_THRESHOLD).then_some(Candidate {
                        row,
                        machine,
                        score,
                    })
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            candidates.sort_by(|a, b| b.score.robustness.total_cmp(&a.score.robustness));
            candidates.truncate(PERMUTE_TOP);
            let chosen = permute(&candidates, scorer, ctx, tail);
            Some((chosen.row, chosen.machine))
        });
    }

    fn restore_state(&mut self, _bytes: &[u8]) {
        // MOC carries no history (the default empty blob), but its table
        // and chains are keyed on the pre-snapshot timeline.
        self.table_loop.restore();
    }

    fn on_shutdown(&mut self) {
        self.table_loop.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{TaskOutcome, TaskTypeId};
    use hcsim_sim::{run_simulation, SimConfig, SimReport};
    use hcsim_stats::SeedSequence;
    use hcsim_workload::{specint_system, WorkloadConfig, WorkloadGenerator};

    fn run_moc(oversub: f64, seed: u64) -> SimReport {
        let seeds = SeedSequence::new(seed);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 200,
            oversubscription: oversub,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let mut mapper = Moc::new(0);
        let mut rng = seeds.stream(2);
        run_simulation(
            &spec,
            SimConfig { trim: 20, ..SimConfig::default() },
            &tasks,
            &mut mapper,
            &mut rng,
        )
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(Moc::new(0).name(), "MOC");
        assert_eq!(CULL_THRESHOLD, 0.30);
        assert_eq!(PERMUTE_TOP, 3);
    }

    #[test]
    fn moc_runs_to_completion() {
        let report = run_moc(19_000.0, 60);
        assert_eq!(report.records.len(), 200);
        assert!(report.metrics.pct_on_time > 0.0, "{:?}", report.metrics.outcomes);
    }

    #[test]
    fn moc_never_prunes_queued_tasks() {
        let report = run_moc(34_000.0, 61);
        let pruned =
            report.records.iter().filter(|r| r.outcome == TaskOutcome::PrunedDropped).count();
        assert_eq!(pruned, 0, "MOC has no dropping mechanism");
    }

    #[test]
    fn moc_culls_hopeless_tasks_from_mapping() {
        // Tasks below 30% robustness are never mapped: they expire
        // unmapped (machine: None).
        let report = run_moc(34_000.0, 62);
        let expired_unmapped = report
            .records
            .iter()
            .filter(|r| r.outcome == TaskOutcome::ExpiredUnstarted && r.machine.is_none())
            .count();
        assert!(expired_unmapped > 0, "{:?}", report.metrics.outcomes);
    }

    #[test]
    fn moc_beats_firstfit() {
        let seeds = SeedSequence::new(63);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 200,
            oversubscription: 19_000.0,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let cfg = SimConfig { trim: 20, ..SimConfig::default() };
        let mut moc = Moc::new(0);
        let moc_report = run_simulation(&spec, cfg, &tasks, &mut moc, &mut seeds.stream(2));
        let mut ff = hcsim_sim::FirstFitMapper;
        let ff_report = run_simulation(&spec, cfg, &tasks, &mut ff, &mut seeds.stream(2));
        assert!(
            moc_report.metrics.pct_on_time >= ff_report.metrics.pct_on_time,
            "MOC {} vs FirstFit {}",
            moc_report.metrics.pct_on_time,
            ff_report.metrics.pct_on_time
        );
    }

    #[test]
    fn restore_state_drops_chains_keyed_on_the_abandoned_timeline() {
        crate::scorer::test_support::assert_restore_drops_abandoned_chains(
            &mut Moc::new(0),
            |moc| moc.table_loop.scorer.as_mut().expect("built at the first mapping event"),
        );
    }

    #[test]
    fn moc_shutdown_is_safe_before_and_after_init() {
        // Cluster scale with two threads, so the run leaves a live worker
        // pool behind for the shutdown to join.
        let mut moc = Moc::new(2);
        moc.on_shutdown(); // no scorer yet: must be a no-op
        let seeds = SeedSequence::new(8);
        let spec = hcsim_workload::specint_cluster(32, 6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 60,
            oversubscription: 136_000.0,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let mut rng = seeds.stream(2);
        let _ = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut moc, &mut rng);
        let pool_active =
            |moc: &Moc| moc.table_loop.scorer.as_ref().expect("built by the run").pool_active();
        assert!(pool_active(&moc), "32 machines on two threads map through the pool");
        moc.on_shutdown();
        assert!(!pool_active(&moc), "shutdown joins the pool within its timeout");
        moc.on_shutdown(); // idempotent
    }

    #[test]
    fn single_candidate_short_circuits() {
        // One task, generous deadline: permutation phase degenerates.
        let seeds = SeedSequence::new(64);
        let spec = specint_system(6, &mut seeds.stream(0));
        let tasks = vec![hcsim_model::Task {
            id: hcsim_model::TaskId(0),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: 100_000,
        }];
        let mut mapper = Moc::new(0);
        let report = run_simulation(
            &spec,
            SimConfig::untrimmed(),
            &tasks,
            &mut mapper,
            &mut seeds.stream(1),
        );
        assert_eq!(report.metrics.outcomes.on_time, 1);
    }
}
