//! The [`Mapper`] trait and the [`MapContext`] through which mapping
//! heuristics observe and mutate the system at each mapping event.
//!
//! The engine guarantees the mapper a consistent snapshot: expired tasks
//! have already been culled, `missed_since_last` counts the deadline misses
//! since the previous mapping event (the µ_τ of Eq. 8), and every mutation
//! the mapper performs (assign / drop / evict) is applied immediately so
//! later decisions within the same event see their effects.

use crate::engine::StepCache;
use crate::machine::MachineState;
use hcsim_model::{MachineId, SystemSpec, Task, TaskId, TaskOutcome, Time};
use hcsim_pmf::DropPolicy;

/// Why an assignment was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignError {
    /// The task id is not in the batch queue (already mapped or removed).
    NotInBatch,
    /// The target machine has no free queue slot.
    MachineFull,
    /// The target machine is draining or offline (not a cluster member).
    MachineUnavailable,
}

impl std::fmt::Display for AssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignError::NotInBatch => write!(f, "task is not in the batch queue"),
            AssignError::MachineFull => write!(f, "machine queue is full"),
            AssignError::MachineUnavailable => {
                write!(f, "machine is draining or offline")
            }
        }
    }
}

impl std::error::Error for AssignError {}

/// A task removed by the pruner during a mapping event, recorded by the
/// engine after the mapper returns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrunedTask {
    pub task: Task,
    pub machine: MachineId,
    /// `Some(started_at)` when the task was executing (evicted), `None`
    /// when it was pending.
    pub started_at: Option<Time>,
}

/// Mutable view of the system handed to the mapper at each mapping event.
pub struct MapContext<'a> {
    pub(crate) now: Time,
    pub(crate) missed_since_last: usize,
    pub(crate) drop_policy: DropPolicy,
    pub(crate) membership_epoch: u64,
    pub(crate) spec: &'a SystemSpec,
    pub(crate) batch: &'a mut Vec<Task>,
    pub(crate) machines: &'a mut [MachineState],
    pub(crate) pruned: &'a mut Vec<PrunedTask>,
    /// The engine's per-step caches: every mutation below marks its
    /// machine touched and re-syncs the free-slot count.
    pub(crate) cache: &'a mut StepCache,
}

impl<'a> MapContext<'a> {
    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of tasks that missed their deadline since the previous
    /// mapping event — µ_τ in the oversubscription detector (Eq. 8).
    /// Probabilistic prunes do *not* count; only genuine deadline misses.
    #[must_use]
    pub fn missed_since_last(&self) -> usize {
        self.missed_since_last
    }

    /// The static system description (machines, PET, prices).
    #[must_use]
    pub fn spec(&self) -> &SystemSpec {
        self.spec
    }

    /// The drop policy the engine enforces (§IV scenario), so heuristics
    /// can model exactly the world they are scheduling into.
    #[must_use]
    pub fn drop_policy(&self) -> DropPolicy {
        self.drop_policy
    }

    /// Monotone counter of cluster-membership changes (joins, drains,
    /// drain completions, failures). Heuristics key scorer-cache and
    /// worker-pool resharding on this: an unchanged epoch guarantees the
    /// machine set is exactly what the previous mapping event saw.
    #[must_use]
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Number of schedulable (active) machines — the cluster size the
    /// mapper can actually use this event.
    #[must_use]
    pub fn active_machines(&self) -> usize {
        self.machines.iter().filter(|m| m.is_schedulable()).count()
    }

    /// Unmapped tasks in arrival order.
    #[must_use]
    pub fn batch(&self) -> &[Task] {
        self.batch
    }

    /// All machine states.
    #[must_use]
    pub fn machines(&self) -> &[MachineState] {
        self.machines
    }

    /// One machine's state.
    #[must_use]
    pub fn machine(&self, m: MachineId) -> &MachineState {
        &self.machines[m.index()]
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total free queue slots across machines (held by the engine, so
    /// O(1)).
    #[must_use]
    pub fn total_free_slots(&self) -> usize {
        self.cache.free_total
    }

    /// Moves a batch task to the tail of machine `m`'s queue.
    ///
    /// §III: once mapped, a task cannot be remapped (the one exception is
    /// a machine *failure*, where the engine itself returns the queue to
    /// the batch).
    pub fn assign(&mut self, task_id: TaskId, m: MachineId) -> Result<(), AssignError> {
        if !self.machines[m.index()].is_schedulable() {
            return Err(AssignError::MachineUnavailable);
        }
        if !self.machines[m.index()].has_free_slot() {
            return Err(AssignError::MachineFull);
        }
        let pos = self.batch.iter().position(|t| t.id == task_id).ok_or(AssignError::NotInBatch)?;
        let task = self.batch.remove(pos);
        self.machines[m.index()].push_pending(task);
        self.cache.assigned(m.index());
        Ok(())
    }

    /// Probabilistically drops a *pending* task from machine `m`'s queue
    /// (the pruner's dropping stage, §V-B). Returns false when the task is
    /// not pending on that machine.
    pub fn drop_pending(&mut self, m: MachineId, task_id: TaskId) -> bool {
        match self.machines[m.index()].remove_pending(task_id) {
            Some(task) => {
                self.cache.touch(m.index(), &self.machines[m.index()]);
                self.pruned.push(PrunedTask { task, machine: m, started_at: None });
                true
            }
            None => false,
        }
    }

    /// Evicts the *executing* task on machine `m` (only meaningful under
    /// [`hcsim_pmf::DropPolicy::All`], where the executing task may be
    /// dropped). Returns the evicted task, or `None` if the machine was not
    /// executing.
    pub fn evict_executing(&mut self, m: MachineId) -> Option<Task> {
        let exec = self.machines[m.index()].finish_executing()?;
        self.cache.touch(m.index(), &self.machines[m.index()]);
        self.pruned.push(PrunedTask {
            task: exec.task,
            machine: m,
            started_at: Some(exec.started_at),
        });
        Some(exec.task)
    }
}

/// Counters a mapper may expose for experiment instrumentation (Fig. 4's
/// detector dynamics). All counts are cumulative over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperInstrumentation {
    /// Mapping events observed.
    pub mapping_events: u64,
    /// Events during which the dropping toggle was engaged.
    pub events_dropping_engaged: u64,
    /// Number of on/off transitions of the dropping toggle (the Schmitt
    /// trigger exists to keep this low).
    pub toggle_transitions: u64,
    /// Tasks removed by the probabilistic dropping pass.
    pub pruner_drops: u64,
    /// Mapping events served by score-table reuse: the previous event's
    /// table — from the same tick or an earlier one — was revalidated
    /// incrementally instead of rebuilt.
    pub table_reuses: u64,
    /// Events the adaptive controller spent in sustained deep calm (its
    /// feed-forward relaxation active); zero without adaptation.
    pub events_deep_calm: u64,
}

// The counters' layout inside mapper state blobs (PAM's).
crate::wire_struct!(MapperInstrumentation {
    mapping_events: u64,
    events_dropping_engaged: u64,
    toggle_transitions: u64,
    pruner_drops: u64,
    table_reuses: u64,
    events_deep_calm: u64,
});

/// A mapping heuristic driven by the engine at every mapping event.
pub trait Mapper {
    /// Short display name ("PAM", "MM", …) used in reports.
    fn name(&self) -> &str;

    /// Invoked at each mapping event (task arrival or completion), after
    /// expired tasks have been culled. Implementations assign batch tasks
    /// to machines and may prune queued tasks.
    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>);

    /// Invoked on every terminal task event — on-time completion, late
    /// completion, expiry, prune, or shed — with the task's terminal
    /// outcome. PAMF uses this to maintain per-type sufferage values; the
    /// adaptive controller classifies outcomes into its sliding window.
    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        let _ = (task, outcome);
    }

    /// Instrumentation counters, when the heuristic tracks them (PAM/PAMF
    /// do; the baselines return `None`).
    fn instrumentation(&self) -> Option<MapperInstrumentation> {
        None
    }

    /// Captures the mapper's *decision-relevant* internal state for a
    /// simulation snapshot. Pure caches that rebuild deterministically from
    /// the engine state (score tables, scorer windows) need not be
    /// captured; anything whose value depends on run *history* (detector
    /// levels, sufferage values) must be. Stateless mappers return the
    /// default empty blob.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Mapper::snapshot_state`] into a
    /// freshly constructed mapper of the same kind. The blob is opaque to
    /// the engine; implementations own its format and versioning.
    fn restore_state(&mut self, bytes: &[u8]) {
        let _ = bytes;
    }

    /// Invoked when a long-lived (service-mode) run exits, before the
    /// mapper is dropped: the place to join worker pools gracefully rather
    /// than in `Drop` on an unwinding thread.
    fn on_shutdown(&mut self) {}
}

impl<M: Mapper + ?Sized> Mapper for &mut M {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        (**self).on_mapping_event(ctx);
    }

    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        (**self).on_task_finished(task, outcome);
    }

    fn instrumentation(&self) -> Option<MapperInstrumentation> {
        (**self).instrumentation()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        (**self).restore_state(bytes);
    }

    fn on_shutdown(&mut self) {
        (**self).on_shutdown();
    }
}

impl<M: Mapper + ?Sized> Mapper for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        (**self).on_mapping_event(ctx);
    }

    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        (**self).on_task_finished(task, outcome);
    }

    fn instrumentation(&self) -> Option<MapperInstrumentation> {
        (**self).instrumentation()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        (**self).restore_state(bytes);
    }

    fn on_shutdown(&mut self) {
        (**self).on_shutdown();
    }
}

/// Baseline-of-baselines: assigns each batch task (in arrival order) to
/// the first machine with a free slot, with no probabilistic reasoning.
/// Exists for engine tests and as a floor in comparisons.
#[derive(Debug, Default, Clone)]
pub struct FirstFitMapper;

impl Mapper for FirstFitMapper {
    fn name(&self) -> &str {
        "FirstFit"
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        let ids: Vec<TaskId> = ctx.batch().iter().map(|t| t.id).collect();
        for id in ids {
            let target = (0..ctx.num_machines())
                .map(MachineId::from)
                .find(|&m| ctx.machine(m).has_free_slot());
            match target {
                Some(m) => {
                    ctx.assign(id, m).expect("slot checked above");
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{PetBuilder, PriceTable, TaskTypeId};
    use hcsim_stats::SeedSequence;

    fn spec() -> SystemSpec {
        let mut rng = SeedSequence::new(1).stream(0);
        let (pet, truth) = PetBuilder::new().build(&[vec![50.0, 80.0]], &mut rng);
        SystemSpec {
            machines: vec![
                hcsim_model::MachineSpec { name: "a".into() },
                hcsim_model::MachineSpec { name: "b".into() },
            ],
            task_types: vec![hcsim_model::TaskTypeSpec { name: "t".into() }],
            pet,
            truth,
            prices: PriceTable::uniform(2, 1.0),
            queue_capacity: 2,
            coldstart: None,
        }
        .validated()
    }

    fn task(id: u32) -> Task {
        Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 1000 }
    }

    struct Fixture {
        spec: SystemSpec,
        batch: Vec<Task>,
        machines: Vec<MachineState>,
        pruned: Vec<PrunedTask>,
        cache: StepCache,
    }

    impl Fixture {
        fn new(batch: Vec<Task>) -> Self {
            let spec = spec();
            let machines =
                (0..2).map(|m| MachineState::new(MachineId::from(m as usize), 2)).collect();
            Self { spec, batch, machines, pruned: Vec::new(), cache: StepCache::default() }
        }

        /// A context over the fixture, its caches rebuilt from the state
        /// (a test may have mutated a machine directly).
        fn ctx(&mut self) -> MapContext<'_> {
            self.cache = StepCache::rebuild(&self.machines, &self.batch);
            MapContext {
                now: 0,
                missed_since_last: 0,
                drop_policy: DropPolicy::All,
                membership_epoch: 0,
                spec: &self.spec,
                batch: &mut self.batch,
                machines: &mut self.machines,
                pruned: &mut self.pruned,
                cache: &mut self.cache,
            }
        }
    }

    #[test]
    fn assign_moves_task_from_batch() {
        let mut fx = Fixture::new(vec![task(1), task(2)]);
        let mut ctx = fx.ctx();
        ctx.assign(TaskId(1), MachineId(0)).unwrap();
        assert_eq!(ctx.batch().len(), 1);
        assert_eq!(ctx.machine(MachineId(0)).occupancy(), 1);
        assert_eq!(ctx.total_free_slots(), 3);
    }

    #[test]
    fn assign_rejects_unknown_task() {
        let mut fx = Fixture::new(vec![task(1)]);
        let mut ctx = fx.ctx();
        assert_eq!(ctx.assign(TaskId(99), MachineId(0)), Err(AssignError::NotInBatch));
    }

    #[test]
    fn assign_rejects_full_machine() {
        let mut fx = Fixture::new(vec![task(1), task(2), task(3)]);
        let mut ctx = fx.ctx();
        ctx.assign(TaskId(1), MachineId(0)).unwrap();
        ctx.assign(TaskId(2), MachineId(0)).unwrap();
        assert_eq!(ctx.assign(TaskId(3), MachineId(0)), Err(AssignError::MachineFull));
    }

    #[test]
    fn drop_pending_records_prune() {
        let mut fx = Fixture::new(vec![task(1)]);
        let mut ctx = fx.ctx();
        ctx.assign(TaskId(1), MachineId(1)).unwrap();
        assert!(ctx.drop_pending(MachineId(1), TaskId(1)));
        assert!(!ctx.drop_pending(MachineId(1), TaskId(1)));
        assert_eq!(fx.pruned.len(), 1);
        assert_eq!(fx.pruned[0].machine, MachineId(1));
        assert!(fx.pruned[0].started_at.is_none());
    }

    #[test]
    fn evict_executing_records_start_time() {
        let mut fx = Fixture::new(vec![]);
        fx.machines[0].start(task(7), 42, 30, false);
        let mut ctx = fx.ctx();
        let evicted = ctx.evict_executing(MachineId(0)).unwrap();
        assert_eq!(evicted.id, TaskId(7));
        assert!(ctx.evict_executing(MachineId(0)).is_none());
        assert_eq!(fx.pruned[0].started_at, Some(42));
    }

    #[test]
    fn mutations_patch_the_free_slot_count_and_mark_their_machine() {
        let mut fx = Fixture::new(vec![task(1), task(2)]);
        fx.machines[1].start(task(7), 0, 30, false);
        let mut ctx = fx.ctx();
        assert_eq!(ctx.total_free_slots(), 3);
        ctx.assign(TaskId(1), MachineId(0)).unwrap();
        assert_eq!(ctx.total_free_slots(), 2);
        assert!(ctx.drop_pending(MachineId(0), TaskId(1)));
        assert_eq!(ctx.total_free_slots(), 3);
        assert!(ctx.evict_executing(MachineId(1)).is_some());
        assert_eq!(ctx.total_free_slots(), 4);
        let touched: Vec<usize> = ctx.cache.touched.iter().collect();
        assert_eq!(touched, [0, 1], "the machines each mutation changed");
    }

    #[test]
    fn first_fit_fills_in_order() {
        let mut fx = Fixture::new(vec![task(1), task(2), task(3), task(4), task(5)]);
        let mut ctx = fx.ctx();
        FirstFitMapper.on_mapping_event(&mut ctx);
        // Capacity 2+2: four tasks mapped, one left in batch.
        assert_eq!(fx.batch.len(), 1);
        assert_eq!(fx.batch[0].id, TaskId(5));
        assert_eq!(fx.machines[0].occupancy(), 2);
        assert_eq!(fx.machines[1].occupancy(), 2);
    }

    #[test]
    fn error_display() {
        assert!(AssignError::NotInBatch.to_string().contains("batch"));
        assert!(AssignError::MachineFull.to_string().contains("full"));
        assert!(AssignError::MachineUnavailable.to_string().contains("offline"));
    }

    #[test]
    fn active_machines_and_epoch_exposed() {
        let mut fx = Fixture::new(vec![task(1)]);
        let ctx = fx.ctx();
        assert_eq!(ctx.active_machines(), 2);
        assert_eq!(ctx.membership_epoch(), 0);
    }
}
