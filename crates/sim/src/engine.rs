//! The event loop driving one simulation trial, built on an **open,
//! typed event pipeline**.
//!
//! Everything that happens in a trial is a [`SimEvent`] on one ordered
//! heap:
//!
//! * **Arrival** — a workload task enters the batch queue.
//! * **Completion** — the executing task on a machine completes (or is
//!   evicted at its deadline under [`DropPolicy::All`]). Completion events
//!   carry the machine's `run_token`; a pruner eviction or machine failure
//!   bumps the token, turning the stale event into a no-op.
//! * **MachineJoin / MachineDrain / MachineFail** — cluster-membership
//!   changes (see [`hcsim_model::ChurnTrace`]): a join brings an offline
//!   machine online with an empty queue, a drain stops new assignments
//!   while the queue runs dry, and a failure removes the machine
//!   immediately — its pending *and* executing tasks re-enter the batch
//!   queue as re-arrivals with their deadlines unchanged (§III's "once
//!   mapped, never remapped" rule is waived exactly when the mapping
//!   target ceases to exist).
//! * **DeadlineSweep** — scheduled only when the event heap would drain
//!   while unmapped tasks remain (all machines idle or absent, mapper
//!   deferring); guarantees those tasks eventually expire and the
//!   simulation terminates.
//!
//! External inputs are **composable [`EventSource`]s** drained into the
//! heap at construction: the task trace ([`TaskTraceSource`]) and the
//! churn trace ([`ChurnSource`]) are both just sources, and callers can
//! add their own. Events are ordered by `(time, emission order)`, so a
//! fixed source list is fully deterministic.
//!
//! Every event is a *mapping event* (§III generalized: task arrivals,
//! completions, and membership changes all change what the mapper should
//! do): expired tasks are culled, the mapper runs, then idle machines
//! start the head of their queue with an execution time sampled from the
//! ground truth.

use crate::config::SimConfig;
use crate::machine::{MachineLifecycle, MachineState};
use crate::mapper::{MapContext, Mapper, PrunedTask};
use crate::metrics::Metrics;
use crate::snapshot::{SnapshotError, SnapshotRng};
use hcsim_model::{
    ChurnKind, ChurnTrace, CostTracker, MachineId, SystemSpec, Task, TaskOutcome, TaskRecord,
    TaskTypeId, Time,
};
use hcsim_pmf::DropPolicy;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod cache;
mod check;
mod wire;

pub(crate) use cache::StepCache;

pub use check::{pending_expires_next, StepChecker};

/// One simulation event. `Arrival` and the membership events are the
/// *external* vocabulary (what an [`EventSource`] may emit); `Completion`
/// and `DeadlineSweep` are engine-scheduled but share the same heap and
/// ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A task arrives into the batch queue.
    Arrival(Task),
    /// The executing task on `machine` finishes (`evict` = removed at its
    /// deadline under [`DropPolicy::All`]). Stale when `token` no longer
    /// matches the machine's run token.
    Completion {
        /// The machine whose executing task finishes.
        machine: MachineId,
        /// Run token at scheduling time; a mismatch marks the event stale.
        token: u64,
        /// True when this is a deadline eviction rather than a completion.
        evict: bool,
    },
    /// An offline machine joins (or re-joins) the cluster, queue empty.
    MachineJoin(MachineId),
    /// The machine stops accepting work and leaves once its queue drains.
    MachineDrain(MachineId),
    /// The machine fails immediately; its queued tasks re-enter the batch.
    MachineFail(MachineId),
    /// Liveness tick: forces a mapping event so deferred tasks expire.
    DeadlineSweep,
    /// Keep-alive expiry of `machine`'s warm container for `type_id`
    /// (serverless cold-start model). Engine-scheduled at each function
    /// completion; stale (no-op) when the container was re-pinned or its
    /// keep-alive clock restarted since scheduling.
    ContainerExpiry {
        /// The machine whose container may expire.
        machine: MachineId,
        /// The function (task type) the container serves.
        type_id: TaskTypeId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: Time,
    seq: u64,
    kind: SimEvent,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where an [`EventSource`] deposits its events. Events pushed earlier win
/// ties at the same timestamp, so the source list order is part of the
/// deterministic contract.
pub struct EventSink<'a> {
    events: &'a mut BinaryHeap<Reverse<Event>>,
    seq: &'a mut u64,
    num_task_slots: &'a mut usize,
    num_machines: usize,
    num_task_types: usize,
}

impl EventSink<'_> {
    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics when an arrival names a task type, or a membership event a
    /// machine, outside the system spec — the pipeline is open to
    /// arbitrary sources (hand-written traces included), so the range
    /// check happens here, at intake, rather than as an index panic
    /// mid-run.
    pub fn push(&mut self, time: Time, event: SimEvent) {
        match &event {
            SimEvent::Arrival(task) => {
                check_task_type(task, self.num_task_types);
                *self.num_task_slots = (*self.num_task_slots).max(task.id.index() + 1);
            }
            SimEvent::MachineJoin(m)
            | SimEvent::MachineDrain(m)
            | SimEvent::MachineFail(m)
            | SimEvent::ContainerExpiry { machine: m, .. } => {
                assert!(
                    m.index() < self.num_machines,
                    "membership event machine {m} out of range (system has {} machines)",
                    self.num_machines
                );
            }
            SimEvent::Completion { .. } | SimEvent::DeadlineSweep => {}
        }
        self.events.push(Reverse(Event { time, seq: *self.seq, kind: event }));
        *self.seq += 1;
    }
}

/// The intake range check on an arrival's task type.
fn check_task_type(task: &Task, num_task_types: usize) {
    assert!(
        task.type_id.index() < num_task_types,
        "task {} type {} out of range (system has {num_task_types} task types)",
        task.id,
        task.type_id.0
    );
}

/// A composable producer of simulation events. The engine drains every
/// source once at construction (sources are *traces*, not live streams);
/// `initially_offline` lets a source also shape the starting membership.
///
/// Task ids across all sources must be unique, dense indices `0..n` —
/// they index the per-task record table.
pub trait EventSource {
    /// Machines that start the run offline (typically joining later).
    fn initially_offline(&self) -> &[MachineId] {
        &[]
    }

    /// Emits every event this source contributes.
    fn emit(&mut self, sink: &mut EventSink<'_>);
}

/// The classic input: a task trace, arrival-ordered with ids = indices.
#[derive(Debug)]
pub struct TaskTraceSource<'a> {
    tasks: &'a [Task],
}

impl<'a> TaskTraceSource<'a> {
    /// Wraps an arrival-ordered task list.
    #[must_use]
    pub fn new(tasks: &'a [Task]) -> Self {
        Self { tasks }
    }
}

impl EventSource for TaskTraceSource<'_> {
    fn emit(&mut self, sink: &mut EventSink<'_>) {
        for (i, t) in self.tasks.iter().enumerate() {
            debug_assert_eq!(t.id.index(), i, "task ids must be arrival-ordered indices");
            sink.push(t.arrival, SimEvent::Arrival(*t));
        }
    }
}

/// Cluster-membership changes as an event source.
#[derive(Debug)]
pub struct ChurnSource<'a> {
    trace: &'a ChurnTrace,
}

impl<'a> ChurnSource<'a> {
    /// Wraps a validated churn trace.
    #[must_use]
    pub fn new(trace: &'a ChurnTrace) -> Self {
        Self { trace }
    }
}

impl EventSource for ChurnSource<'_> {
    fn initially_offline(&self) -> &[MachineId] {
        &self.trace.initially_offline
    }

    fn emit(&mut self, sink: &mut EventSink<'_>) {
        for e in &self.trace.events {
            let event = match e.kind {
                ChurnKind::Join => SimEvent::MachineJoin(e.machine),
                ChurnKind::Drain => SimEvent::MachineDrain(e.machine),
                ChurnKind::Fail => SimEvent::MachineFail(e.machine),
            };
            sink.push(e.time, event);
        }
    }
}

/// Serverless cold-start accounting over one trial (all zeros when the
/// spec carries no [`hcsim_model::ColdStartModel`]). A task counts once
/// per start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaasStats {
    /// Task starts that paid a container spin-up.
    pub cold_starts: u64,
    /// Task starts that found a warm container.
    pub warm_hits: u64,
}

impl FaasStats {
    /// Fraction of starts that were warm hits (0 when nothing started).
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.cold_starts + self.warm_hits;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

/// What the engine's per-step scans did: how many machines each scan
/// looked at and how often the batch's expiry cull ran. Integers that
/// repeat exactly for a seeded run on any host, like the score table's
/// work counters; not part of a snapshot (a restored session counts from
/// zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineWork {
    /// Machines the pending-queue expiry cull looked at.
    pub cull_machines: u64,
    /// Machines the start pass looked at for an idle head to start.
    pub start_machines: u64,
    /// Machines the drain pass looked at for a drain to complete.
    pub drain_machines: u64,
    /// Machines whose free slots were re-read into the count
    /// [`MapContext::total_free_slots`] answers from.
    pub free_slot_machines: u64,
    /// Mapping events whose batch expiry cull ran.
    pub batch_culls_run: u64,
    /// Mapping events whose batch expiry cull was skipped.
    pub batch_culls_skipped: u64,
}

impl EngineWork {
    /// Every counter with its name, in declaration order.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("cull_machines", self.cull_machines),
            ("start_machines", self.start_machines),
            ("drain_machines", self.drain_machines),
            ("free_slot_machines", self.free_slot_machines),
            ("batch_culls_run", self.batch_culls_run),
            ("batch_culls_skipped", self.batch_culls_skipped),
        ]
    }
}

/// Membership-churn accounting over one trial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Machines that joined (offline → active).
    pub joins: u64,
    /// Drains initiated (active → draining/offline).
    pub drains: u64,
    /// Failures applied (non-offline machine removed).
    pub fails: u64,
    /// Tasks returned to the batch queue by failures.
    pub requeued: u64,
    /// Requeue candidates dropped by the [`SimConfig::max_requeues`] retry
    /// cap instead of re-entering the batch (zero when the cap is off).
    pub dropped_after_retry: u64,
}

/// Robustness accounting for one capacity epoch — the interval between
/// membership changes that altered the number of schedulable machines.
/// Terminal task records are attributed to the epoch they land in, so a
/// churn trace yields a per-epoch robustness trajectory (how the system
/// degrades and recovers as capacity moves under it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochSlice {
    /// When this capacity level took effect.
    pub start: Time,
    /// Schedulable machines during the epoch.
    pub active_machines: usize,
    /// Tasks completed on time within the epoch.
    pub on_time: usize,
    /// Terminal records (all outcomes) within the epoch.
    pub finished: usize,
}

impl EpochSlice {
    /// On-time percentage within the epoch (0 when nothing finished).
    #[must_use]
    pub fn robustness(&self) -> f64 {
        if self.finished == 0 {
            0.0
        } else {
            100.0 * self.on_time as f64 / self.finished as f64
        }
    }
}

/// Output of one simulation trial.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-task records in arrival (id) order.
    pub records: Vec<TaskRecord>,
    /// Trimmed robustness/fairness metrics.
    pub metrics: Metrics,
    /// Per-machine busy-time accounting.
    pub cost: CostTracker,
    /// Total incurred cost under the system's price table.
    pub total_cost: f64,
    /// Fig. 8 metric: cost / % on-time (`None` when robustness is 0).
    pub cost_per_percent: Option<f64>,
    /// Number of mapping events fired.
    pub mapping_events: u64,
    /// Time of the last processed event.
    pub end_time: Time,
    /// Membership-churn accounting (all zeros for a static cluster).
    pub churn: ChurnStats,
    /// Per-capacity-epoch robustness; a single slice for a static cluster.
    pub epochs: Vec<EpochSlice>,
    /// Serverless cold-start accounting (all zeros without a cold-start
    /// model in the spec).
    pub faas: FaasStats,
}

struct Engine<'a, M: Mapper, R: rand::Rng> {
    spec: &'a SystemSpec,
    config: SimConfig,
    mapper: &'a mut M,
    rng: &'a mut R,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    batch: Vec<Task>,
    machines: Vec<MachineState>,
    records: Vec<Option<TaskRecord>>,
    cost: CostTracker,
    missed_since_last: usize,
    mapping_events: u64,
    now: Time,
    /// Bumped on every lifecycle transition; exposed to mappers so their
    /// scorer caches/pools can re-shard exactly once per membership change.
    membership_epoch: u64,
    churn: ChurnStats,
    faas: FaasStats,
    epochs: Vec<EpochSlice>,
    /// Per-task failure-requeue counts (indexed like `records`); consulted
    /// only when `config.max_requeues` is set, but maintained always so a
    /// snapshot taken before the cap is toggled restores exactly.
    requeue_counts: Vec<u32>,
    /// Scratch buffers reused across events.
    expired_buf: Vec<Task>,
    pruned_buf: Vec<PrunedTask>,
    requeue_buf: Vec<Task>,
    /// The per-step caches and their work counters.
    cache: StepCache,
    /// The machines this step's start and drain passes visit.
    visits: Vec<usize>,
    /// Run after every step of the engine's own tests.
    #[cfg(test)]
    checker: StepChecker,
}

impl<'a, M: Mapper, R: rand::Rng> Engine<'a, M, R> {
    fn new(
        spec: &'a SystemSpec,
        config: SimConfig,
        sources: &mut [&mut dyn EventSource],
        mapper: &'a mut M,
        rng: &'a mut R,
    ) -> Self {
        let mut machines: Vec<MachineState> = (0..spec.num_machines())
            .map(|m| MachineState::new(MachineId::from(m), spec.queue_capacity))
            .collect();
        let mut events = BinaryHeap::new();
        let mut seq = 0u64;
        let mut num_task_slots = 0usize;
        for source in sources.iter_mut() {
            for &m in source.initially_offline() {
                assert!(m.index() < machines.len(), "initially-offline machine {m} out of range");
                machines[m.index()].set_initially_offline();
            }
            let mut sink = EventSink {
                events: &mut events,
                seq: &mut seq,
                num_task_slots: &mut num_task_slots,
                num_machines: machines.len(),
                num_task_types: spec.num_task_types(),
            };
            source.emit(&mut sink);
        }
        let active = machines.iter().filter(|m| m.is_schedulable()).count();
        // Pre-size the per-event scratch from workload statistics: the
        // batch can hold every task at once (burst arrivals under heavy
        // oversubscription), and an expiry/prune/failure sweep can at most
        // empty every machine queue in one event.
        let queue_slots = spec.num_machines() * spec.queue_capacity;
        let cache = StepCache::rebuild(&machines, &[]);
        Self {
            spec,
            config,
            mapper,
            rng,
            events,
            seq,
            batch: Vec::with_capacity(num_task_slots),
            machines,
            records: vec![None; num_task_slots],
            cost: CostTracker::new(spec.num_machines()),
            missed_since_last: 0,
            mapping_events: 0,
            now: 0,
            membership_epoch: 0,
            churn: ChurnStats::default(),
            faas: FaasStats::default(),
            epochs: vec![EpochSlice { start: 0, active_machines: active, on_time: 0, finished: 0 }],
            requeue_counts: vec![0; num_task_slots],
            expired_buf: Vec::with_capacity(queue_slots),
            pruned_buf: Vec::with_capacity(queue_slots),
            requeue_buf: Vec::with_capacity(spec.queue_capacity),
            cache,
            visits: Vec::with_capacity(spec.num_machines()),
            #[cfg(test)]
            checker: StepChecker::new(),
        }
    }

    /// Marks machine `m` mutated this step; see [`StepCache::touch`].
    fn touch(&mut self, m: MachineId) {
        self.cache.touch(m.index(), &self.machines[m.index()]);
    }

    fn push_event(&mut self, time: Time, kind: SimEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    fn record(
        &mut self,
        task: Task,
        outcome: TaskOutcome,
        machine: Option<MachineId>,
        started_at: Option<Time>,
        machine_time: Time,
    ) {
        let rec =
            TaskRecord { task, outcome, machine, started_at, finished_at: self.now, machine_time };
        let slot = &mut self.records[task.id.index()];
        debug_assert!(slot.is_none(), "task {} finished twice", task.id);
        *slot = Some(rec);
        let epoch = self.epochs.last_mut().expect("at least one epoch");
        epoch.finished += 1;
        if outcome == TaskOutcome::CompletedOnTime {
            epoch.on_time += 1;
        }
        self.mapper.on_task_finished(&task, outcome);
    }

    /// Registers a lifecycle transition: bumps the membership epoch (the
    /// mapper-visible cache/pool invalidation signal) and opens a new
    /// report slice whenever the schedulable-machine count moved.
    fn membership_changed(&mut self) {
        self.membership_epoch += 1;
        let active = self.machines.iter().filter(|m| m.is_schedulable()).count();
        let last = self.epochs.last().expect("at least one epoch");
        if last.active_machines != active {
            self.epochs.push(EpochSlice {
                start: self.now,
                active_machines: active,
                on_time: 0,
                finished: 0,
            });
        }
    }

    fn run(mut self) -> SimReport {
        while self.step() {}
        self.finish_report()
    }

    /// Processes exactly one heap event (and the full post-event sequence:
    /// mapping event, machine starts, drain completions, progress
    /// guarantee). Returns false when the heap is empty — between any two
    /// `step` calls the engine is at a consistent inter-event boundary,
    /// which is where snapshots are taken.
    fn step(&mut self) -> bool {
        let stepped = self.process_next_event();
        #[cfg(test)]
        if stepped {
            let mut checker = std::mem::take(&mut self.checker);
            checker.check_engine(self);
            self.checker = checker;
        }
        stepped
    }

    fn process_next_event(&mut self) -> bool {
        let Some(Reverse(event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        match event.kind {
            SimEvent::Arrival(task) => {
                self.cache.batch_entered(&task);
                self.batch.push(task);
            }
            SimEvent::Completion { machine, token, evict } => {
                if self.machines[machine.index()].run_token != token {
                    // Stale: the pruner evicted this task (or the
                    // machine failed) since scheduling. Not a mapping
                    // event itself, but the progress guarantee must
                    // still hold (this could be the last heap event).
                    self.ensure_progress();
                    return true;
                }
                self.handle_finish(machine, evict);
            }
            SimEvent::MachineJoin(m) => {
                if self.machines[m.index()].activate() {
                    self.touch(m);
                    self.churn.joins += 1;
                    self.membership_changed();
                }
            }
            SimEvent::MachineDrain(m) => {
                if self.machines[m.index()].begin_drain() {
                    self.touch(m);
                    self.churn.drains += 1;
                    self.membership_changed();
                }
            }
            SimEvent::MachineFail(m) => self.handle_fail(m),
            SimEvent::DeadlineSweep => {}
            SimEvent::ContainerExpiry { machine, type_id } => {
                // Reclaim iff the container's keep-alive deadline is
                // exactly this event's time: a re-pin (function started)
                // or clock restart (later completion) since scheduling
                // makes the event stale. The warm-set mutation bumps the
                // machine version and warm revision, so the mapping event
                // below re-scores the machine against the cold PET.
                self.machines[machine.index()].expire_warm(type_id, event.time);
            }
        }
        self.mapping_event();
        self.start_idle_machines();
        self.complete_drains();
        self.ensure_progress();
        true
    }

    /// Serverless cold-start model: a function releasing its container
    /// (completion, eviction, or prune-after-start) leaves it warm for the
    /// keep-alive window, with a matching expiry event scheduled. Stale
    /// expiries (container re-pinned or refreshed first) no-op on arrival.
    fn release_container(&mut self, machine: MachineId, type_id: TaskTypeId) {
        let Some(cold) = &self.spec.coldstart else { return };
        let expires_at = self.now + cold.keep_alive;
        self.machines[machine.index()].set_warm_expiry(type_id, expires_at);
        self.push_event(expires_at, SimEvent::ContainerExpiry { machine, type_id });
    }

    fn handle_finish(&mut self, machine: MachineId, evict: bool) {
        let exec = self.machines[machine.index()]
            .finish_executing()
            .expect("completion event for idle machine");
        self.touch(machine);
        self.release_container(machine, exec.task.type_id);
        let elapsed = self.now - exec.started_at;
        self.cost.record_busy(machine, elapsed);
        let outcome = if evict {
            // Still a deadline miss for the oversubscription detector —
            // but under approximate computing (§VIII future work) an
            // eviction that got far enough delivers a degraded result.
            self.missed_since_last += 1;
            let progress = elapsed as f64 / exec.total_exec.max(1) as f64;
            match self.config.approx_min_progress {
                Some(min) if progress >= min => TaskOutcome::CompletedApprox,
                _ => TaskOutcome::ExpiredExecuting,
            }
        } else if self.now <= exec.task.deadline {
            TaskOutcome::CompletedOnTime
        } else {
            self.missed_since_last += 1;
            TaskOutcome::CompletedLate
        };
        self.record(exec.task, outcome, Some(machine), Some(exec.started_at), elapsed);
    }

    /// A machine failure: every queued task goes back to the batch queue
    /// as a re-arrival (deadline unchanged, no terminal record — the task
    /// is still in the system), the interrupted execution segment is
    /// billed to the failed machine, and in-flight completion events are
    /// staled by the run-token bump inside [`MachineState::fail`].
    fn handle_fail(&mut self, machine: MachineId) {
        let i = machine.index();
        if self.machines[i].lifecycle() == MachineLifecycle::Offline {
            return; // failing an absent machine changes nothing
        }
        let mut requeue = std::mem::take(&mut self.requeue_buf);
        debug_assert!(requeue.is_empty(), "requeue scratch is always drained before return");
        let interrupted = self.machines[i].fail(&mut requeue);
        self.touch(machine);
        if let Some(exec) = interrupted {
            // The segment occupied the machine even though the machine is
            // gone; the work is lost too (the task starts over), so
            // nothing is added to the task's (eventual) record's machine
            // time.
            let segment = self.now - exec.started_at;
            if segment > 0 {
                self.cost.record_busy(machine, segment);
            }
        }
        // Re-arrivals append behind the current batch in FCFS order
        // (executing task first); an already-expired re-arrival is culled
        // by the mapping event that follows immediately. Tasks that have
        // already burned their retry budget are shed instead.
        for task in requeue.drain(..) {
            let count = &mut self.requeue_counts[task.id.index()];
            if self.config.max_requeues.is_some_and(|cap| *count >= cap) {
                self.churn.dropped_after_retry += 1;
                self.record(task, TaskOutcome::Shed, Some(machine), None, 0);
            } else {
                *count += 1;
                self.churn.requeued += 1;
                self.cache.batch_entered(&task);
                self.batch.push(task);
            }
        }
        self.requeue_buf = requeue;
        self.churn.fails += 1;
        self.membership_changed();
    }

    /// Draining machines whose queues ran dry leave the cluster. Only a
    /// machine the start pass visited can be one.
    fn complete_drains(&mut self) {
        self.cache.work.drain_machines += self.visits.len() as u64;
        for i in 0..self.visits.len() {
            let m = self.visits[i];
            if self.machines[m].try_complete_drain() {
                self.cache.sync(m, &self.machines[m]);
                self.membership_changed();
            }
        }
    }

    /// Culls expired tasks, runs the mapper, applies pruner removals.
    fn mapping_event(&mut self) {
        // Expired unmapped tasks leave the system (§III: "before the
        // mapping event, tasks that have missed their deadlines are
        // dropped"). None has while `now` is within the batch bound.
        let now = self.now;
        let mut expired = std::mem::take(&mut self.expired_buf);
        expired.clear();
        if now > self.cache.batch_bound {
            self.cache.work.batch_culls_run += 1;
            let mut bound = Time::MAX;
            self.batch.retain(|t| {
                if t.is_expired_at(now) {
                    expired.push(*t);
                    false
                } else {
                    bound = bound.min(t.deadline);
                    true
                }
            });
            self.cache.batch_bound = bound;
            for t in expired.drain(..) {
                self.missed_since_last += 1;
                self.record(t, TaskOutcome::ExpiredUnstarted, None, None, 0);
            }
        } else {
            self.cache.work.batch_culls_skipped += 1;
        }

        // Expired pending tasks leave their machine queues under B/C:
        // from the machines whose earliest pending deadline has passed,
        // in machine order.
        if self.config.drop_policy != DropPolicy::None && now > self.cache.pending_bound {
            let mut bound = Time::MAX;
            self.cache.work.cull_machines += self.machines.len() as u64;
            for m in 0..self.machines.len() {
                if now > self.cache.earliest[m] {
                    self.machines[m].drain_expired_pending(now, &mut expired);
                    let machine = MachineId::from(m);
                    self.touch(machine);
                    for t in expired.drain(..) {
                        self.missed_since_last += 1;
                        self.record(t, TaskOutcome::ExpiredUnstarted, Some(machine), None, 0);
                    }
                }
                bound = bound.min(self.cache.earliest[m]);
            }
            self.cache.pending_bound = bound;
        }
        self.expired_buf = expired;

        // Run the mapping heuristic.
        self.mapping_events += 1;
        let mut pruned = std::mem::take(&mut self.pruned_buf);
        pruned.clear();
        let mut ctx = MapContext {
            now,
            missed_since_last: self.missed_since_last,
            drop_policy: self.config.drop_policy,
            membership_epoch: self.membership_epoch,
            spec: self.spec,
            batch: &mut self.batch,
            machines: &mut self.machines,
            pruned: &mut pruned,
            cache: &mut self.cache,
        };
        self.mapper.on_mapping_event(&mut ctx);
        self.missed_since_last = 0;

        // Account for the pruner's removals. An evicted executing task
        // consumed machine time up to now.
        for p in pruned.drain(..) {
            let segment = p.started_at.map_or(0, |s| now - s);
            if segment > 0 {
                self.cost.record_busy(p.machine, segment);
            }
            // An evicted task occupied a container; pruning releases it
            // into its keep-alive window.
            if p.started_at.is_some() {
                self.release_container(p.machine, p.task.type_id);
            }
            self.record(p.task, TaskOutcome::PrunedDropped, Some(p.machine), p.started_at, segment);
        }
        self.pruned_buf = pruned;
    }

    /// Starts the queue head on every idle machine, sampling actual
    /// execution times from the ground truth. Draining machines keep
    /// starting their remaining queue; offline machines have none. Only
    /// a machine touched this step can be idle with pending work, so the
    /// pass visits those (and the draining ones), in machine order.
    fn start_idle_machines(&mut self) {
        let drop_all = self.config.drop_policy == DropPolicy::All;
        let cull_pending = self.config.drop_policy != DropPolicy::None;
        self.cache.take_visits(&mut self.visits);
        self.cache.work.start_machines += self.visits.len() as u64;
        for i in 0..self.visits.len() {
            let m = self.visits[i];
            let machine = MachineId::from(m);
            while self.machines[m].executing().is_none() {
                let Some(task) = self.machines[m].pop_next_pending() else { break };
                // Eq. 3: a start is only possible strictly before the
                // deadline — a task beginning at δ can never finish by δ.
                if cull_pending && self.now >= task.deadline {
                    self.missed_since_last += 1;
                    self.record(task, TaskOutcome::ExpiredUnstarted, Some(machine), None, 0);
                    continue;
                }
                // The task samples its ground-truth total — plus a
                // spin-up on a cold machine under the serverless model.
                let exec = self.spec.truth.sample_exec(task.type_id, machine, self.rng);
                let (total, cold) = match &self.spec.coldstart {
                    Some(cs) if !self.machines[m].is_warm(task.type_id) => {
                        self.faas.cold_starts += 1;
                        let spin = cs.truth.sample_exec(task.type_id, machine, self.rng);
                        (exec + spin, true)
                    }
                    Some(_) => {
                        self.faas.warm_hits += 1;
                        (exec, false)
                    }
                    None => (exec, false),
                };
                self.machines[m].start(task, self.now, total, cold);
                if self.spec.coldstart.is_some() {
                    // Pin the container for the duration of the run.
                    self.machines[m].pin_warm(task.type_id);
                }
                let finish = self.now + total.max(1);
                let token = self.machines[m].run_token;
                if drop_all && finish > task.deadline {
                    // The task will be evicted at its deadline (Eq. 5
                    // semantics): machine frees at δ, outcome is a miss.
                    self.push_event(
                        task.deadline,
                        SimEvent::Completion { machine, token, evict: true },
                    );
                } else {
                    self.push_event(finish, SimEvent::Completion { machine, token, evict: false });
                }
            }
            self.cache.sync(m, &self.machines[m]);
        }
    }

    /// If the heap drained while unmapped tasks remain (mapper deferring
    /// with all machines idle), schedule a sweep at the next deadline so
    /// the simulation cannot stall.
    fn ensure_progress(&mut self) {
        if self.events.is_empty() && !self.batch.is_empty() {
            let next_deadline = self.batch.iter().map(|t| t.deadline).min().expect("non-empty");
            let when = next_deadline.max(self.now) + 1;
            self.push_event(when, SimEvent::DeadlineSweep);
        }
    }

    fn finish_report(self) -> SimReport {
        // Anything without a record at this point is a logic error in the
        // engine (sweeps guarantee expiry), but stay total: mark leftovers.
        let now = self.now;
        let records: Vec<TaskRecord> = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    debug_assert!(false, "task {i} has no terminal record");
                    TaskRecord {
                        task: self.batch.iter().find(|t| t.id.index() == i).copied().unwrap_or(
                            Task {
                                id: hcsim_model::TaskId::from(i),
                                type_id: hcsim_model::TaskTypeId(0),
                                arrival: 0,
                                deadline: 0,
                            },
                        ),
                        outcome: TaskOutcome::Unfinished,
                        machine: None,
                        started_at: None,
                        finished_at: now,
                        machine_time: 0,
                    }
                })
            })
            .collect();

        let metrics = Metrics::compute(&records, self.spec.num_task_types(), self.config.trim);
        let total_cost = self.cost.total_cost(&self.spec.prices);
        let cost_per_percent =
            self.cost.cost_per_percent_on_time(&self.spec.prices, metrics.pct_on_time);
        SimReport {
            records,
            metrics,
            cost: self.cost,
            total_cost,
            cost_per_percent,
            mapping_events: self.mapping_events,
            end_time: now,
            churn: self.churn,
            epochs: self.epochs,
            faas: self.faas,
        }
    }
}

/// A stepwise simulation handle for **service mode**: instead of running a
/// trial to completion, the caller advances the engine one event at a
/// time, injects live arrivals as they are admitted, sheds work under
/// overload (with full accounting — a shed task still gets a terminal
/// record), and checkpoints/restores the complete engine state between
/// steps.
///
/// Between any two [`step`](SimSession::step) calls the engine sits at a
/// consistent inter-event boundary; [`snapshot`](SimSession::snapshot) at
/// such a boundary followed by [`restore`](SimSession::restore) resumes
/// the run **bit-identically** — the restored run's [`SimReport`] equals
/// the uninterrupted run's, byte for byte.
pub struct SimSession<'a, M: Mapper, R: rand::Rng> {
    engine: Engine<'a, M, R>,
}

impl<'a, M: Mapper, R: rand::Rng> SimSession<'a, M, R> {
    /// Opens a session over the usual pipeline inputs. `sources` may be
    /// empty: a service feeds tasks in later via
    /// [`inject_arrival`](SimSession::inject_arrival).
    pub fn new(
        spec: &'a SystemSpec,
        config: SimConfig,
        sources: &mut [&mut dyn EventSource],
        mapper: &'a mut M,
        rng: &'a mut R,
    ) -> Self {
        Self { engine: Engine::new(spec, config, sources, mapper, rng) }
    }

    /// Processes one event (plus the full post-event sequence). Returns
    /// false when the event heap is empty — which is not necessarily the
    /// end of a *service*: injecting an arrival makes `step` productive
    /// again.
    pub fn step(&mut self) -> bool {
        self.engine.step()
    }

    /// Simulation time of the last processed event.
    #[must_use]
    pub fn now(&self) -> Time {
        self.engine.now
    }

    /// Monotone membership-epoch counter (bumps on lifecycle changes).
    #[must_use]
    pub fn membership_epoch(&self) -> u64 {
        self.engine.membership_epoch
    }

    /// Events still scheduled on the heap.
    #[must_use]
    pub fn events_remaining(&self) -> usize {
        self.engine.events.len()
    }

    /// Simulation time of the next scheduled event, if any — what a
    /// wall-clock pacing driver sleeps towards, and what an admission
    /// loop compares against an arrival's timestamp to catch the engine
    /// up deterministically before deciding.
    #[must_use]
    pub fn next_event_time(&self) -> Option<Time> {
        self.engine.events.peek().map(|std::cmp::Reverse(e)| e.time)
    }

    /// Tasks in the batch queue awaiting a mapping decision — the
    /// engine-side backlog an admission controller watches.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.engine.batch.len()
    }

    /// The engine's scan work since the session was opened or restored.
    #[must_use]
    pub fn engine_work(&self) -> EngineWork {
        self.engine.cache.work
    }

    /// Terminal records produced so far (admitted + shed).
    #[must_use]
    pub fn finished_tasks(&self) -> usize {
        self.engine.records.iter().filter(|r| r.is_some()).count()
    }

    /// Admits a live arrival. The task enters the pipeline as an
    /// [`SimEvent::Arrival`] no earlier than the current simulation time.
    ///
    /// # Panics
    ///
    /// Panics if the task type is outside the system spec, or if the task
    /// id already has a terminal record — service ids must be fresh (the
    /// driver deduplicates duplicated deliveries).
    pub fn inject_arrival(&mut self, task: Task) {
        check_task_type(&task, self.engine.spec.num_task_types());
        let idx = task.id.index();
        self.grow_slots(idx + 1);
        assert!(
            self.engine.records[idx].is_none(),
            "task {} already has a terminal record",
            task.id
        );
        let time = task.arrival.max(self.engine.now);
        self.engine.push_event(time, SimEvent::Arrival(task));
    }

    /// Records a task the admission controller refused under overload:
    /// the task never enters the pipeline but still gets a terminal
    /// [`TaskOutcome::Shed`] record, so nothing is silently lost.
    ///
    /// # Panics
    ///
    /// Panics if the task id already has a terminal record.
    pub fn shed(&mut self, task: Task) {
        let idx = task.id.index();
        self.grow_slots(idx + 1);
        self.engine.record(task, TaskOutcome::Shed, None, None, 0);
    }

    fn grow_slots(&mut self, len: usize) {
        if len > self.engine.records.len() {
            self.engine.records.resize(len, None);
            self.engine.requeue_counts.resize(len, 0);
        }
    }

    /// Drains every remaining event and produces the report.
    #[must_use]
    pub fn run_to_completion(mut self) -> SimReport {
        while self.engine.step() {}
        self.engine.finish_report()
    }

    /// Produces the report for the events processed so far. Call when the
    /// heap is drained (`step` returned false); finishing mid-run marks
    /// still-live tasks [`TaskOutcome::Unfinished`].
    #[must_use]
    pub fn finish(self) -> SimReport {
        self.engine.finish_report()
    }
}

impl<'a, M: Mapper, R: SnapshotRng> SimSession<'a, M, R> {
    /// Serializes the complete session state at the current inter-event
    /// boundary. See [`SimSession`] for the bit-identity guarantee.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.engine.snapshot()
    }

    /// Resumes a session from [`snapshot`](SimSession::snapshot) bytes
    /// against the same system spec and config. `rng` is overwritten with
    /// the captured state; `mapper` receives the captured mapper blob via
    /// [`Mapper::restore_state`].
    pub fn restore(
        spec: &'a SystemSpec,
        config: SimConfig,
        bytes: &[u8],
        mapper: &'a mut M,
        rng: &'a mut R,
    ) -> Result<Self, SnapshotError> {
        Ok(Self { engine: Engine::from_snapshot(spec, config, bytes, mapper, rng)? })
    }
}

/// Runs one trial: `tasks` (arrival-ordered, ids = indices) through
/// `mapper` on the system `spec`, with the machine set fixed for the whole
/// run (the paper's published model).
///
/// Actual execution times are drawn from `rng`; pass a dedicated stream
/// per trial for reproducibility.
pub fn run_simulation<M: Mapper, R: rand::Rng>(
    spec: &SystemSpec,
    config: SimConfig,
    tasks: &[Task],
    mapper: &mut M,
    rng: &mut R,
) -> SimReport {
    let mut source = TaskTraceSource::new(tasks);
    run_simulation_with_sources(spec, config, &mut [&mut source], mapper, rng)
}

/// [`run_simulation`] with a cluster-membership timeline: machines join,
/// drain, and fail mid-run per `churn`, and the report carries per-epoch
/// robustness plus churn accounting.
pub fn run_simulation_with_churn<M: Mapper, R: rand::Rng>(
    spec: &SystemSpec,
    config: SimConfig,
    tasks: &[Task],
    churn: &ChurnTrace,
    mapper: &mut M,
    rng: &mut R,
) -> SimReport {
    churn.validate(spec.num_machines());
    let mut task_source = TaskTraceSource::new(tasks);
    let mut churn_source = ChurnSource::new(churn);
    run_simulation_with_sources(
        spec,
        config,
        &mut [&mut task_source, &mut churn_source],
        mapper,
        rng,
    )
}

/// The open form of the pipeline: any list of [`EventSource`]s. Sources
/// are drained in list order (earlier sources win same-time ties), so a
/// fixed source list is fully deterministic.
pub fn run_simulation_with_sources<M: Mapper, R: rand::Rng>(
    spec: &SystemSpec,
    config: SimConfig,
    sources: &mut [&mut dyn EventSource],
    mapper: &mut M,
    rng: &mut R,
) -> SimReport {
    Engine::new(spec, config, sources, mapper, rng).run()
}

#[cfg(test)]
mod tests;
