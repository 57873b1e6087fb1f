//! Machine-queue analysis: per-position completion PMFs and robustness.
//!
//! §IV of the paper defines how the completion-time PMF of each task in a
//! machine queue is obtained: the executing task's PET is shifted by its
//! start time, and every pending task's PET is chained onto the machine's
//! availability by the drop-policy-aware convolution
//! ([`queue_step`](hcsim_pmf::queue_step)).
//!
//! The executing task's PMF is additionally *conditioned* on the fact that
//! it has not finished yet (mass before `now` is impossible and is
//! renormalized away) — without this, long-running tasks would keep stale
//! optimistic estimates.
//!
//! # Cold-start awareness (serverless)
//!
//! When the system carries a [`hcsim_model::ColdStartModel`], a placement
//! that finds no warm container pays a container spin-up before execution,
//! so its effective execution PMF is the *cold* PET cell (spin-up ⊛
//! execution) instead of the warm one. [`PetTables`] bundles both matrices
//! and is the **single definition** of which cell each queue position
//! uses — the from-scratch analysis here and the scorer's incremental
//! cache both go through it, which is what keeps them bit-identical:
//!
//! * the executing task uses the cold cell iff its start *was* cold
//!   (observable via [`hcsim_sim::ExecutingTask::cold_start`]);
//! * a pending task is warm iff the machine holds a warm container
//!   for its type *or* an earlier queue position runs the same type (its
//!   completion re-warms the container just in time — back-to-back reuse);
//! * a hypothetical append is warm under the same rule applied to the
//!   whole queue.
//!
//! The last two are *predictions*: a container may still expire before a
//! deep queue position starts. The scorer models warmth at scoring time —
//! the PET is the scheduler's model of the world, not the world.

use hcsim_model::{PetMatrix, Task, TaskTypeId, Time};
use hcsim_pmf::{chain_step_into, queue_step_into, ChainStep, ConvScratch, DropPolicy, Pmf};
use hcsim_sim::MachineState;

/// The warm PET plus the optional cold (spin-up-convolved) PET, with the
/// per-queue-position selection rules (see module docs). `Copy`-cheap: two
/// references.
#[derive(Debug, Clone, Copy)]
pub struct PetTables<'a> {
    /// Warm-container execution PMFs — the classic PET.
    pub warm: &'a PetMatrix,
    /// Cold-placement PMFs (spin-up ⊛ execution), `None` in the classic
    /// HC model where every start is warm.
    pub cold: Option<&'a PetMatrix>,
}

impl<'a> PetTables<'a> {
    /// Classic HC view: every placement is warm.
    #[must_use]
    pub fn warm_only(pet: &'a PetMatrix) -> Self {
        Self { warm: pet, cold: None }
    }

    /// The matrix the executing task's residual is drawn from: warmth
    /// was fixed when it started.
    pub(crate) fn for_exec(&self, exec: &hcsim_sim::ExecutingTask) -> &'a PetMatrix {
        match self.cold {
            Some(cold) if exec.cold_start => cold,
            _ => self.warm,
        }
    }

    /// The matrix the pending task of type `tt` at `idx` (0-based position
    /// within the pending queue) chains with.
    pub(crate) fn for_pending(
        &self,
        machine: &MachineState,
        idx: usize,
        tt: TaskTypeId,
    ) -> &'a PetMatrix {
        match self.cold {
            Some(cold)
                if !machine.is_warm(tt)
                    && !machine.pending().take(idx).any(|t| t.type_id == tt) =>
            {
                cold
            }
            _ => self.warm,
        }
    }

    /// Whether hypothetically appending a task of type `tt` to `machine`
    /// would be a cold placement under the warmth-prediction rule.
    #[must_use]
    pub fn append_is_cold(&self, machine: &MachineState, tt: TaskTypeId) -> bool {
        self.cold.is_some() && append_would_be_cold(machine, tt)
    }
}

/// The bare warmth-prediction rule for a hypothetical append, without the
/// cold-model gate: a placement is cold iff the machine holds no warm
/// container for the type and no queued entry runs the same type (whose
/// completion would re-warm the container in time). Shared between
/// [`PetTables::append_is_cold`] and the scorer's CDF selection so the
/// closed-form scoring path and the convolution path agree on warmth.
pub(crate) fn append_would_be_cold(machine: &MachineState, tt: TaskTypeId) -> bool {
    !warm_append_types(machine).any(|warm| warm == tt)
}

/// The types a hypothetical append to `machine` would place *warm* — the
/// complement of [`append_would_be_cold`], enumerated once per machine
/// instead of tested per type (the score table's per-shard warm-capable
/// flags): resident containers, then queued entries.
pub(crate) fn warm_append_types(machine: &MachineState) -> impl Iterator<Item = TaskTypeId> + '_ {
    let resident = machine.warm_containers().iter().map(|c| c.type_id);
    resident.chain(machine.pending().map(|t| t.type_id))
}

/// Analysis of one queue position.
#[derive(Debug, Clone)]
pub struct QueueSlot {
    /// The task occupying the position.
    pub task: Task,
    /// Queue position κ: 0 is the executing task (or the first pending
    /// task on an idle-but-nonempty queue snapshot).
    pub position: usize,
    /// Eq. 1 robustness: probability of completing by the deadline.
    pub robustness: f64,
    /// The task's own completion-time PMF (`None` when it can never start
    /// before its deadline).
    pub completion: Option<Pmf>,
    /// Eq. 6 bounded skewness of the completion PMF (0 when `completion`
    /// is `None`).
    pub skewness: f64,
}

/// Full analysis of a machine queue at one instant.
#[derive(Debug, Clone)]
pub struct QueueAnalysis {
    /// Every queued task, head first.
    pub slots: Vec<QueueSlot>,
    /// Machine availability after the last queued task — the PMF an
    /// appended task's execution would chain onto.
    pub tail: Pmf,
}

/// Analyzes `machine`'s queue under `policy`, compacting every
/// intermediate availability PMF to `budget` impulses.
///
/// `now` is the current simulation time; the tail of an idle machine is a
/// unit impulse at `now`.
#[must_use]
pub fn analyze_queue(
    machine: &MachineState,
    pet: &PetMatrix,
    now: Time,
    policy: DropPolicy,
    budget: usize,
) -> QueueAnalysis {
    let mut scratch = ConvScratch::new();
    analyze_queue_cold_into(machine, PetTables::warm_only(pet), now, policy, budget, &mut scratch)
}

/// Cold-start-aware [`analyze_queue`]: each queue position chains with
/// the warm or cold PET cell [`PetTables`] selects for it. With
/// `pets.cold == None` this *is* [`analyze_queue`].
#[must_use]
pub fn analyze_queue_cold(
    machine: &MachineState,
    pets: PetTables<'_>,
    now: Time,
    policy: DropPolicy,
    budget: usize,
) -> QueueAnalysis {
    let mut scratch = ConvScratch::new();
    analyze_queue_cold_into(machine, pets, now, policy, budget, &mut scratch)
}

/// [`analyze_queue_cold`] drawing intermediates from a caller-provided
/// [`ConvScratch`] — the single from-scratch walk every other entry point
/// delegates to.
#[must_use]
pub fn analyze_queue_cold_into(
    machine: &MachineState,
    pets: PetTables<'_>,
    now: Time,
    policy: DropPolicy,
    budget: usize,
    scratch: &mut ConvScratch,
) -> QueueAnalysis {
    let mut slots = Vec::with_capacity(machine.occupancy());
    let mut avail = Pmf::delta(now);

    if let Some(exec) = machine.executing() {
        let (completion, robustness, skewness) =
            conditioned_head(exec, pets.for_exec(exec), machine.id(), now, budget, scratch);
        let mut after = completion.clone();
        if policy == DropPolicy::All {
            // Eq. 5: the executing task is evicted at its deadline, so the
            // machine is free no later than δ.
            after.clamp_above(exec.task.deadline);
        }
        slots.push(QueueSlot {
            task: exec.task,
            position: 0,
            robustness,
            completion: Some(completion),
            skewness,
        });
        avail = after;
    }

    // The reference chain: the plain step, then compaction, then the
    // moment pass over the completion — what `chain_extension` fuses.
    for (idx, task) in machine.pending().enumerate() {
        let exec = pets.for_pending(machine, idx, task.type_id).pmf(task.type_id, machine.id());
        let mut step = queue_step_into(&avail, exec, task.deadline, policy, scratch);
        step.availability.compact(budget);
        slots.push(QueueSlot {
            task: *task,
            position: slots.len(),
            robustness: step.robustness.min(1.0),
            skewness: step.completion.as_ref().map_or(0.0, Pmf::bounded_skewness),
            completion: step.completion,
        });
        scratch.recycle(std::mem::replace(&mut avail, step.availability));
    }

    QueueAnalysis { slots, tail: avail }
}

/// The executing task's completion PMF conditioned on still running at
/// `now` (§IV "shift by the start time" plus conditioning), compacted to
/// `budget`, with its Eq. 1 robustness and Eq. 6 bounded skewness.
///
/// This is the *single* definition of the head-slot float pipeline; the
/// from-scratch analysis above and the scorer's incremental tail cache
/// both call it, which is what keeps cached heads bit-identical to
/// from-scratch analysis (the links behind the head share
/// [`chain_extension`]). `pet` is the matrix [`PetTables::for_exec`]
/// selected (cold for a cold-started head). Callers apply the
/// policy-dependent Eq. 5 clamp
/// themselves (the analysis keeps the unclamped completion for its slot).
/// The completion's storage is drawn from `scratch`'s free-list.
pub(crate) fn conditioned_head(
    exec: &hcsim_sim::ExecutingTask,
    pet: &PetMatrix,
    machine: hcsim_model::MachineId,
    now: Time,
    budget: usize,
    scratch: &mut ConvScratch,
) -> (Pmf, f64, f64) {
    // The completion PMF of the executing task is its *residual* execution
    // distribution — the PET conditioned on having already run `elapsed`
    // units — shifted to now, with its storage pooled (`residual` used to
    // allocate two fresh PMFs per head recompute, once per machine per
    // mapping event).
    let elapsed = exec.elapsed_at(now);
    let mut completion =
        pet.pmf(exec.task.type_id, machine).residual_shifted_into(elapsed, now, scratch);
    completion.compact(budget);
    // Float-noise guard: a CDF sum can exceed 1 by an ulp or two.
    let robustness = completion.cdf_at(exec.task.deadline).min(1.0);
    let skewness = completion.bounded_skewness();
    (completion, robustness, skewness)
}

/// First event time at which [`conditioned_head`] stops returning what it
/// returns at `now` for the same executing task.
///
/// The head is the PET conditioned on `elapsed` and shifted to `now`:
/// [`Pmf::residual_shifted_into`] keeps `masses[split..]` (renormalized)
/// at times `t − elapsed + now = t + started_at`, where
/// `split` counts the PET impulses at or below `elapsed`. The clock
/// therefore enters only through `split`: until `elapsed` reaches
/// `times[split]` the completion — and its compaction, robustness,
/// skewness and Eq. 5 clamp, all pure functions of it — is bit-identical.
/// An overdue head (`split == len`) collapses to `delta(now + 1)` and
/// holds for `now` alone — as does a head queried before its own start
/// (`elapsed_at` saturates there, so the identity above does not apply;
/// the engine never does this).
pub(crate) fn head_valid_until(exec: &hcsim_sim::ExecutingTask, pet_pmf: &Pmf, now: Time) -> Time {
    let elapsed = exec.elapsed_at(now);
    let times = pet_pmf.times();
    match times.get(times.partition_point(|&t| t <= elapsed)) {
        Some(&next) if now >= exec.started_at => exec.started_at.saturating_add(next),
        _ => now.saturating_add(1),
    }
}

/// Chains one pending task behind `avail` — the step every extension of
/// the scorer's tail cache takes: [`chain_step_into`], the availability
/// compacted to `budget` and, with `with_skewness`, the completion's Eq. 6
/// bounded skewness (0 when the task can never start; NaN without it).
/// `pet` is the matrix [`PetTables::for_pending`] selected for this task.
///
/// The kernel is pinned bit-identical to the plain step, compaction and
/// moment pass the from-scratch analysis chains with, so either way the
/// availability, robustness and skewness are the ones
/// [`analyze_queue_cold`] gets. The link's storage comes from `scratch`,
/// sized for at most twice the budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn chain_extension(
    avail: &Pmf,
    task: &Task,
    pet: &PetMatrix,
    machine: hcsim_model::MachineId,
    policy: DropPolicy,
    budget: usize,
    with_skewness: bool,
    scratch: &mut ConvScratch,
) -> ChainStep {
    let exec = pet.pmf(task.type_id, machine);
    chain_step_into(avail, exec, task.deadline, policy, budget, with_skewness, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{MachineId, PetBuilder, TaskId, TaskTypeId};
    use hcsim_sim::{run_simulation, FirstFitMapper, SimConfig};
    use hcsim_stats::SeedSequence;

    fn pet_with_mean(mean: f64) -> PetMatrix {
        let mut rng = SeedSequence::new(3).stream(0);
        let (pet, _) = PetBuilder::new().shape_range(6.0, 6.0).build(&[vec![mean]], &mut rng);
        pet
    }

    /// Builds a MachineState via a real mini-simulation so the crate-only
    /// visibility of its mutators is respected: we freeze a moment where
    /// one task executes and others are pending by snapshotting inside a
    /// probe mapper.
    struct Snapshot {
        analysis: Option<QueueAnalysis>,
        pet: PetMatrix,
        budget: usize,
        min_queue: usize,
    }

    impl hcsim_sim::Mapper for Snapshot {
        fn name(&self) -> &str {
            "snapshot"
        }
        fn on_mapping_event(&mut self, ctx: &mut hcsim_sim::MapContext<'_>) {
            FirstFitMapper.on_mapping_event(ctx);
            let machine = ctx.machine(MachineId(0));
            if self.analysis.is_none() && machine.occupancy() >= self.min_queue {
                self.analysis = Some(analyze_queue(
                    machine,
                    &self.pet,
                    ctx.now(),
                    DropPolicy::All,
                    self.budget,
                ));
            }
        }
    }

    fn snapshot_queue(n_tasks: usize, min_queue: usize, deadline_slack: Time) -> QueueAnalysis {
        let mut rng = SeedSequence::new(9).stream(0);
        let (pet, truth) = PetBuilder::new().shape_range(6.0, 6.0).build(&[vec![20.0]], &mut rng);
        let spec = hcsim_model::SystemSpec {
            machines: vec![hcsim_model::MachineSpec { name: "m".into() }],
            task_types: vec![hcsim_model::TaskTypeSpec { name: "t".into() }],
            pet: pet.clone(),
            truth,
            prices: hcsim_model::PriceTable::uniform(1, 1.0),
            queue_capacity: 6,
            coldstart: None,
        }
        .validated();
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|i| Task {
                id: TaskId(i as u32),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: deadline_slack,
            })
            .collect();
        let mut probe = Snapshot { analysis: None, pet, budget: 24, min_queue };
        let mut rng2 = SeedSequence::new(10).stream(0);
        let _ = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut probe, &mut rng2);
        probe.analysis.expect("snapshot captured")
    }

    #[test]
    fn idle_machine_tail_is_delta_now() {
        let pet = pet_with_mean(20.0);
        let machine = MachineState::new(MachineId(0), 6);
        let analysis = analyze_queue(&machine, &pet, 123, DropPolicy::All, 16);
        assert!(analysis.slots.is_empty());
        assert_eq!(analysis.tail.len(), 1);
        assert_eq!(analysis.tail.min_time(), 123);
        assert!(analysis.tail.is_normalized());
    }

    #[test]
    fn snapshot_has_positions_in_order() {
        let analysis = snapshot_queue(4, 4, 500);
        assert_eq!(analysis.slots.len(), 4);
        for (i, slot) in analysis.slots.iter().enumerate() {
            assert_eq!(slot.position, i);
        }
    }

    #[test]
    fn robustness_decreases_down_the_queue() {
        // Same type, same deadline: tasks deeper in the queue wait longer,
        // so robustness must be non-increasing.
        let analysis = snapshot_queue(5, 5, 120);
        let r: Vec<f64> = analysis.slots.iter().map(|s| s.robustness).collect();
        for w in r.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "robustness should decay down-queue: {r:?}");
        }
    }

    #[test]
    fn generous_deadlines_give_high_robustness() {
        let analysis = snapshot_queue(3, 3, 100_000);
        for slot in &analysis.slots {
            assert!(slot.robustness > 0.99, "slot {}: {}", slot.position, slot.robustness);
        }
    }

    #[test]
    fn hopeless_deadlines_give_zero_robustness_deep_in_queue() {
        // Deadline 25 with ~20ms tasks: the 5th task has essentially no
        // chance.
        let analysis = snapshot_queue(5, 5, 25);
        let last = analysis.slots.last().unwrap();
        assert!(last.robustness < 0.05, "deep slot robustness {}", last.robustness);
    }

    #[test]
    fn tail_is_normalized_and_compact() {
        let analysis = snapshot_queue(5, 5, 120);
        assert!(analysis.tail.is_normalized(), "tail mass {}", analysis.tail.mass());
        assert!(analysis.tail.len() <= 24);
    }

    #[test]
    fn drop_all_bounds_tail_by_deadlines() {
        // Under DropPolicy::All every queued task is gone by its deadline,
        // so the tail support cannot exceed the max deadline.
        let analysis = snapshot_queue(5, 5, 80);
        let max_deadline = analysis.slots.iter().map(|s| s.task.deadline).max().unwrap();
        assert!(analysis.tail.max_time() <= max_deadline);
    }

    #[test]
    fn executing_task_conditioning_removes_past_mass() {
        // Snapshot during execution: completion PMF of the head must not
        // contain mass before the snapshot time.
        let analysis = snapshot_queue(2, 2, 10_000);
        let head = &analysis.slots[0];
        let completion = head.completion.as_ref().unwrap();
        assert!(completion.is_normalized());
        assert!(head.robustness > 0.99);
    }
}
