//! A reference PAM (§V) that caches nothing, and the proptest holding the
//! production mapper to it decision by decision.
//!
//! Production PAM reaches its decisions through layers of caching and
//! pruning: the per-machine tail cache, the score table with its shard
//! envelopes, deadline cutoffs, stopped walks and row classes, the spec
//! memo and the worker pool. Each layer is proven at its own level; this
//! oracle checks that they compose. Per mapping event it:
//!
//! 1. feeds the deadline misses since the last event into the Eq. 8
//!    detector `d = µ·λ + d·(1−λ)`, engaged from one miss and, under the
//!    Schmitt trigger, released only at 0.8;
//! 2. while engaged, walks every machine queue from the head, from a
//!    fresh [`analyze_queue_cold`] each time, and drops the first task at
//!    or below its Eq. 7 threshold `base + (−s·ρ)/(κ+1)` (the executing
//!    one only when eviction is allowed), until a walk drops nothing;
//! 3. phase 1: scores every (window task, machine with a free slot) pair
//!    on the machine's from-scratch tail, in the cell
//!    `ScorerShared::cdf_for` picks, and keeps each task's best machine —
//!    highest robustness, then lowest expected completion, first machine
//!    on a tie — unless that robustness is below the deferring threshold;
//! 4. phase 2: commits the surviving task with the lowest expected
//!    completion (then shortest expected execution, then earliest in the
//!    window), and repeats from phase 1 until no slot, task or candidate
//!    is left.
//!
//! PAMF (§V-D2) differs only in its thresholds: each type's are relaxed
//! by that type's sufferage, which every terminal outcome moves.
//!
//! The proptest runs both mappers on one [`SimSession`]: at each event
//! the oracle decides on copies of the machines and the batch, then
//! production PAM acts on the real ones, and every task's fate — assigned
//! to a machine, deferred, or dropped from a machine — must agree, as
//! must the order of each machine's new queue entries.

use crate::chain::{analyze_queue_cold, PetTables};
use crate::fairness::SufferageTable;
use crate::pruner::PruningConfig;
use crate::scorer::test_support::ExactScores;
use crate::scorer::PairScore;
use hcsim_model::{MachineId, PetMatrix, Task, TaskId, TaskOutcome, TaskTypeId};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::testkit::{self, QueueOp};
use hcsim_sim::MachineState;

/// What became of one task at one mapping event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choice {
    /// Appended to this machine's queue.
    Machine(MachineId),
    /// Left in the batch queue.
    Defer,
    /// Dropped (or evicted) from this machine's queue by the pruner.
    Drop(MachineId),
}

/// One task's fate, with the oracle's score of appending it to every
/// machine the last time it was scored (`None`: no free slot) — or, for
/// a drop, its robustness and threshold.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    pub(crate) task: TaskId,
    pub(crate) choice: Choice,
    pub(crate) scores: Vec<Option<PairScore>>,
    pub(crate) drop_test: Option<(f64, f64)>,
}

/// The reference mapper's state between events: the Eq. 8 detector and,
/// for PAMF, the sufferage table.
#[derive(Debug)]
pub(crate) struct Oracle {
    config: PruningConfig,
    warm: PetMatrix,
    cold: Option<PetMatrix>,
    exact: ExactScores,
    policy: DropPolicy,
    level: f64,
    engaged: bool,
    sufferage: Option<SufferageTable>,
}

impl Oracle {
    /// An oracle for the system `warm`/`cold` describe under `policy`:
    /// PAMF when `fair`, PAM otherwise.
    pub(crate) fn new(
        config: PruningConfig,
        fair: bool,
        warm: PetMatrix,
        cold: Option<PetMatrix>,
        policy: DropPolicy,
    ) -> Self {
        let types = warm.task_types();
        let sufferage = fair.then(|| SufferageTable::new(types, config.fairness_factor));
        let exact = ExactScores::new(PetTables { warm: &warm, cold: cold.as_ref() });
        Self { config, warm, cold, exact, policy, level: 0.0, engaged: false, sufferage }
    }

    /// A base threshold, relaxed by the type's sufferage under PAMF.
    fn threshold(&self, tt: TaskTypeId, base: f64) -> f64 {
        self.sufferage.as_ref().map_or(base, |s| s.relax(tt, base))
    }

    /// Feeds a terminal outcome to the sufferage table.
    pub(crate) fn observe(&mut self, task: &Task, outcome: TaskOutcome) {
        if let Some(s) = &mut self.sufferage {
            s.on_task_finished(task.type_id, outcome.is_success());
        }
    }

    fn pets(&self) -> PetTables<'_> {
        PetTables { warm: &self.warm, cold: self.cold.as_ref() }
    }

    fn tail(&self, machine: &MachineState, now: u64) -> Pmf {
        analyze_queue_cold(machine, self.pets(), now, self.policy, self.config.impulse_budget).tail
    }

    /// The decisions of one mapping event, in the order they are taken:
    /// drops, then assignments, then the tasks left in the batch.
    pub(crate) fn decide(
        &mut self,
        machines: &[MachineState],
        batch: &[Task],
        now: u64,
        missed: usize,
    ) -> Vec<Decision> {
        let mut machines = machines.to_vec();
        let mut batch = batch.to_vec();
        let mut decisions = Vec::new();
        // Eq. 8, with the Schmitt trigger's 20 % separation.
        let lambda = self.config.lambda;
        self.level = missed as f64 * lambda + self.level * (1.0 - lambda);
        if !self.config.schmitt {
            self.engaged = self.level >= 1.0;
        } else if self.level >= 1.0 {
            self.engaged = true;
        } else if self.level <= 0.8 {
            self.engaged = false;
        }
        if self.engaged {
            for machine in &mut machines {
                while let Some(decision) = self.drop_one(machine, now) {
                    decisions.push(decision);
                }
            }
        }
        let mut scores: Vec<Vec<Option<PairScore>>> = Vec::new();
        // From-scratch tails of the machines with a free slot; an
        // assignment changes one machine, whose tail is then recomputed.
        let mut tails: Vec<Option<Pmf>> = Vec::new();
        if !batch.is_empty() {
            tails.extend(machines.iter().map(|m| m.has_free_slot().then(|| self.tail(m, now))));
        }
        loop {
            let window = self.config.batch_window.min(batch.len());
            if window == 0 || machines.iter().all(|m| !m.has_free_slot()) {
                break;
            }
            scores = batch[..window]
                .iter()
                .map(|task| {
                    machines
                        .iter()
                        .zip(&tails)
                        .map(|(m, tail)| {
                            let tail = tail.as_ref()?;
                            Some(self.exact.score(tail, m, task, self.policy))
                        })
                        .collect()
                })
                .collect();
            let mut chosen: Option<(usize, usize, PairScore)> = None;
            for (row, row_scores) in scores.iter().enumerate() {
                let mut best: Option<(usize, PairScore)> = None;
                for (m, score) in row_scores.iter().enumerate() {
                    let Some(score) = *score else { continue };
                    if best.is_none_or(|(_, b)| {
                        score.robustness > b.robustness
                            || (score.robustness == b.robustness
                                && score.expected_completion < b.expected_completion)
                    }) {
                        best = Some((m, score));
                    }
                }
                let Some((m, score)) = best else { continue };
                let task = &batch[row];
                if score.robustness < self.threshold(task.type_id, self.config.defer_threshold) {
                    continue;
                }
                if chosen.is_none_or(|(_, _, c)| {
                    score.expected_completion < c.expected_completion
                        || (score.expected_completion == c.expected_completion
                            && score.mean_exec < c.mean_exec)
                }) {
                    chosen = Some((row, m, score));
                }
            }
            let Some((row, m, _)) = chosen else { break };
            let task = batch.remove(row);
            assert!(testkit::apply(&mut machines[m], QueueOp::Push(task)), "a free slot");
            tails[m] = machines[m].has_free_slot().then(|| self.tail(&machines[m], now));
            let choice = Choice::Machine(MachineId::from(m));
            let row_scores = scores.remove(row);
            decisions.push(Decision { task: task.id, choice, scores: row_scores, drop_test: None });
        }
        for (row, task) in batch.iter().enumerate() {
            let scores = scores.get(row).cloned().unwrap_or_default();
            decisions.push(Decision {
                task: task.id,
                choice: Choice::Defer,
                scores,
                drop_test: None,
            });
        }
        decisions
    }

    /// The drop pass's next drop on `machine`, applied to it.
    fn drop_one(&self, machine: &mut MachineState, now: u64) -> Option<Decision> {
        let config = &self.config;
        let may_evict = config.drop_executing && self.policy == DropPolicy::All;
        let analysis =
            analyze_queue_cold(machine, self.pets(), now, self.policy, config.impulse_budget);
        for slot in &analysis.slots {
            let base = self.threshold(slot.task.type_id, config.drop_threshold);
            let threshold = if config.per_task_adjustment {
                let phi = (-slot.skewness * config.rho) / (slot.position as f64 + 1.0);
                (base + phi).clamp(0.0, 1.0)
            } else {
                base
            };
            if slot.robustness > threshold {
                continue;
            }
            let executing = slot.position == 0
                && machine.executing().is_some_and(|e| e.task.id == slot.task.id);
            if executing && !may_evict {
                continue;
            }
            let op = if executing {
                QueueOp::FinishExecuting
            } else {
                QueueOp::RemovePending(slot.task.id)
            };
            assert!(testkit::apply(machine, op), "the slot's task is on the machine");
            return Some(Decision {
                task: slot.task.id,
                choice: Choice::Drop(machine.id()),
                scores: Vec::new(),
                drop_test: Some((slot.robustness, threshold)),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pam::Pam;
    use hcsim_model::SystemSpec;
    use hcsim_sim::{EventSource, MapContext, Mapper, SimConfig, SimSession, TaskTraceSource};
    use hcsim_stats::SeedSequence;
    use hcsim_workload::{
        faas_system, specint_cluster, specint_system, FaasConfig, FaasGenerator, WorkloadConfig,
        WorkloadGenerator,
    };
    use proptest::prelude::*;

    /// Where each task of an event's batch and queues stands.
    fn fates(machines: &[MachineState], batch: &[Task]) -> Vec<(TaskId, Option<MachineId>)> {
        let queued =
            machines.iter().flat_map(|m| m.queued_tasks().map(move |t| (t.id, Some(m.id()))));
        batch.iter().map(|t| (t.id, None)).chain(queued).collect()
    }

    /// Production PAM driven on the real context, the oracle on copies
    /// of it, compared after every event.
    struct Twin {
        production: Pam,
        oracle: Oracle,
        events: usize,
        /// Assignments and drops, across events.
        decisions: usize,
    }

    impl Mapper for Twin {
        fn name(&self) -> &str {
            "PAM vs oracle"
        }

        fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
            let expected =
                self.oracle.decide(ctx.machines(), ctx.batch(), ctx.now(), ctx.missed_since_last());
            let before = fates(ctx.machines(), ctx.batch());
            let batched: Vec<TaskId> = ctx.batch().iter().map(|t| t.id).collect();
            self.production.on_mapping_event(ctx);
            let after = fates(ctx.machines(), ctx.batch());
            let observed = |id: TaskId, was: Option<MachineId>| {
                match (was, after.iter().find(|(t, _)| *t == id).map(|&(_, m)| m)) {
                    (None, Some(Some(m))) => Choice::Machine(m),
                    (None, _) => Choice::Defer,
                    (Some(m), None) => Choice::Drop(m),
                    (Some(m), Some(_)) => Choice::Machine(m), // still queued there
                }
            };
            let report = |d: Option<&Decision>, oracle: Choice, production: Choice, id: TaskId| {
                let score_on = |c: Choice| match (d, c) {
                    (Some(d), Choice::Machine(m)) => d.scores.get(m.index()).copied().flatten(),
                    _ => None,
                };
                format!(
                    "event {}: task {id}: oracle {oracle:?} (score {:?}), production \
                     {production:?} (oracle's score there {:?}; oracle's drop test \
                     (robustness, threshold) {:?})",
                    self.events,
                    score_on(oracle),
                    score_on(production),
                    d.and_then(|d| d.drop_test),
                )
            };
            // In the oracle's decision order: drops, assignments, then the
            // batch tasks left waiting; a queued task the oracle keeps
            // stays where it was.
            let queued = before.iter().filter_map(|&(id, was)| Some((id, was?)));
            let kept = queued.filter(|&(id, _)| expected.iter().all(|d| d.task != id));
            let oracle_fates = expected
                .iter()
                .map(|d| (d.task, d.choice, Some(d)))
                .chain(kept.map(|(id, m)| (id, Choice::Machine(m), None)));
            for (id, oracle, decision) in oracle_fates {
                let was = before.iter().find(|(t, _)| *t == id).and_then(|&(_, m)| m);
                let production = observed(id, was);
                assert!(oracle == production, "{}", report(decision, oracle, production, id));
            }
            // Each machine's new entries, in queue order.
            for machine in ctx.machines() {
                let appended: Vec<TaskId> =
                    machine.pending().map(|t| t.id).filter(|id| batched.contains(id)).collect();
                let want: Vec<TaskId> = expected
                    .iter()
                    .filter(|d| d.choice == Choice::Machine(machine.id()))
                    .map(|d| d.task)
                    .collect();
                assert_eq!(appended, want, "event {}: {}'s new entries", self.events, machine.id());
            }
            self.decisions += expected.iter().filter(|d| d.choice != Choice::Defer).count();
            self.events += 1;
        }

        fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
            self.production.on_task_finished(task, outcome);
            self.oracle.observe(task, outcome);
        }
    }

    /// The mapper knobs a case varies: PAMF or PAM, the drop and defer
    /// thresholds, and the batch window. PAMF three times in four: its
    /// thresholds move between events, which the table must follow.
    type Knobs = (bool, f64, f64, usize);

    fn arb_knobs() -> impl Strategy<Value = Knobs> {
        (0u8..4, 0.3f64..0.55, 0.55f64..0.9, 4usize..24)
            .prop_map(|(fair, drop, defer, window)| (fair != 0, drop, defer, window))
    }

    /// Runs one trial through the twin; returns its mapping events and
    /// its assignments plus drops.
    fn run_twin(spec: &SystemSpec, tasks: &[Task], knobs: Knobs, seed: u64) -> (usize, usize) {
        let (fair, drop_threshold, defer_threshold, batch_window) = knobs;
        let config = PruningConfig {
            drop_threshold,
            defer_threshold,
            batch_window,
            threads: 1,
            ..PruningConfig::default()
        };
        let sim = SimConfig::untrimmed();
        let cold = spec.coldstart.as_ref().map(|c| c.cold_pet(&spec.pet, config.impulse_budget));
        let production = if fair { Pam::with_fairness(config) } else { Pam::new(config) };
        let mut twin = Twin {
            production,
            oracle: Oracle::new(config, fair, spec.pet.clone(), cold, sim.drop_policy),
            events: 0,
            decisions: 0,
        };
        let mut rng = SeedSequence::new(seed).stream(9);
        let mut source = TaskTraceSource::new(tasks);
        let mut sources: [&mut dyn EventSource; 1] = [&mut source];
        let mut session = SimSession::new(spec, sim, &mut sources, &mut twin, &mut rng);
        while session.step() {}
        drop(session);
        (twin.events, twin.decisions)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// The paper's 8 machines under oversubscription heavy enough to
        /// engage the pruner and defer.
        #[test]
        fn pam_matches_the_oracle_on_the_paper_system(
            seed in 0u64..1_000_000,
            oversubscription in 19_000.0f64..34_000.0,
            knobs in arb_knobs(),
        ) {
            let seeds = SeedSequence::new(seed);
            let spec = specint_system(6, &mut seeds.stream(0));
            let tasks = WorkloadGenerator::new(WorkloadConfig {
                num_tasks: 250,
                oversubscription,
                ..WorkloadConfig::default()
            })
            .generate(&spec, &mut seeds.stream(1));
            let (events, decisions) = run_twin(&spec, &tasks, knobs, seed);
            prop_assert!(events > 100, "{events} events, {decisions} decisions");
        }
    }

    /// A 72-machine cluster (three table shards: 32 + 32 + 8) in one of
    /// three shapes: 0 classic — busy machines whose executing heads
    /// re-key between events, so the table is repaired rather than
    /// rebuilt; 1 serverless, with cold starts and warm containers; 2
    /// serverless bursts of three functions, where one assignment can
    /// make a shard warm-capable for the next task of its type.
    fn cluster(seed: u64, shape: u8, oversubscription: f64) -> (SystemSpec, Vec<Task>) {
        let seeds = SeedSequence::new(seed);
        if shape == 0 {
            let spec = specint_cluster(72, 6, &mut seeds.stream(0));
            let tasks = WorkloadGenerator::new(WorkloadConfig {
                num_tasks: 300,
                oversubscription,
                ..WorkloadConfig::default()
            })
            .generate(&spec, &mut seeds.stream(1));
            return (spec, tasks);
        }
        let faas = FaasConfig {
            num_functions: if shape == 1 { 12 } else { 3 },
            num_machines: 72,
            num_tasks: 300,
            oversubscription,
            burst_shape: if shape == 1 { 0.35 } else { 0.02 },
        };
        let spec = faas_system(&faas, &mut seeds.stream(0));
        let tasks = FaasGenerator::new(faas).generate(&spec, &mut seeds.stream(1));
        (spec, tasks)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The three cluster shapes across their loads.
        #[test]
        fn pam_matches_the_oracle_on_a_three_shard_cluster(
            seed in 0u64..1_000_000,
            // Serverless three times in five: cold placements, warm
            // churn and idle re-keys are where the table's repairs meet.
            shape in (0usize..5).prop_map(|s| [0u8, 1, 1, 1, 2][s]),
            load in 0.0f64..1.0,
            knobs in arb_knobs(),
        ) {
            let oversubscription = match shape {
                0 => 150_000.0 + 250_000.0 * load,
                1 => 20_000.0 + 100_000.0 * load,
                _ => 40_000.0 + 260_000.0 * load,
            };
            let (spec, tasks) = cluster(seed, shape, oversubscription);
            let (events, decisions) = run_twin(&spec, &tasks, knobs, seed);
            prop_assert!(events > 100, "{events} events, {decisions} decisions");
        }
    }

    /// Serverless trials the proptest found where the table's repairs
    /// decide: an assignment makes a shard warm-capable for a type whose
    /// lane was skipped at the cold bound earlier in the same event
    /// (`refresh_machine`'s resurrection), or a machine re-keys between
    /// events with no version bump (the head-window test of `ensure`).
    /// Pinned, so they run at every seed.
    #[test]
    fn pam_matches_the_oracle_where_the_table_repairs() {
        // The values as the proptest printed them.
        let cases: [(u64, u8, f64, Knobs); 8] = [
            (367_624, 1, 39623.12358889899, (false, 0.514052561525816, 0.644813185003858, 14)),
            (943_833, 1, 71435.80544726201, (true, 0.3074520281059892, 0.6731680183970736, 11)),
            (607_060, 1, 65209.977748632, (false, 0.32131080403945705, 0.7453867462550097, 10)),
            (536_569, 1, 55992.41302207275, (true, 0.35550248821849817, 0.6636242792161591, 18)),
            (369_193, 1, 77708.04192779734, (true, 0.39770164753363246, 0.6523379369823027, 20)),
            (114_175, 1, 106282.66908521127, (true, 0.4956874487029532, 0.6252409924207459, 21)),
            (156_040, 1, 100053.78778251424, (true, 0.3438347700379705, 0.8754691349278396, 22)),
            (689_971, 2, 156870.8375897992, (true, 0.4938924011867737, 0.5852010174972676, 12)),
        ];
        for (seed, shape, oversubscription, knobs) in cases {
            let (spec, tasks) = cluster(seed, shape, oversubscription);
            let (events, _) = run_twin(&spec, &tasks, knobs, seed);
            assert!(events > 100, "seed {seed}: {events} events");
        }
    }
}
