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

mod wire;

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
    /// Advance warning that `machine` will leave the cluster at
    /// `departs_at` (see [`hcsim_model::DepartureNotice`]). Membership is
    /// unchanged; the machine is flagged so mappers bias placement away
    /// from it before the departure lands.
    MachineNotice {
        /// The machine expected to leave.
        machine: MachineId,
        /// When it is expected to leave.
        departs_at: Time,
    },
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
    /// arbitrary sources (hand-written traces, CSV imports), so the range
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
            | SimEvent::MachineNotice { machine: m, .. }
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
        for n in &self.trace.notices {
            sink.push(
                n.time,
                SimEvent::MachineNotice { machine: n.machine, departs_at: n.departs_at },
            );
        }
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
/// spec carries no [`hcsim_model::ColdStartModel`]). A task counts once,
/// at its *first* start on a machine; a preempted task resuming later does
/// not count again.
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
    /// Per-task progress salvaged from failed machines (indexed like
    /// `records`); populated only under [`SimConfig::carry_progress`],
    /// consumed by [`MapContext`] when the task is next assigned.
    carried: Vec<Time>,
    /// Scratch buffers reused across events.
    expired_buf: Vec<Task>,
    pruned_buf: Vec<PrunedTask>,
    requeue_buf: Vec<(Task, Time)>,
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
            carried: vec![0; num_task_slots],
            expired_buf: Vec::with_capacity(queue_slots),
            pruned_buf: Vec::with_capacity(queue_slots),
            requeue_buf: Vec::with_capacity(spec.queue_capacity),
        }
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
        let Some(Reverse(event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        match event.kind {
            SimEvent::Arrival(task) => {
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
                    self.churn.joins += 1;
                    self.membership_changed();
                }
            }
            SimEvent::MachineDrain(m) => {
                if self.machines[m.index()].begin_drain() {
                    self.churn.drains += 1;
                    self.membership_changed();
                }
            }
            SimEvent::MachineFail(m) => self.handle_fail(m),
            SimEvent::MachineNotice { machine, departs_at } => {
                // Not a membership change (the schedulable count is
                // untouched) — the machine's version bump re-keys scorer
                // caches, and the mapping event below lets phase 2 react.
                self.machines[machine.index()].set_announced_departure(Some(departs_at));
            }
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
        self.release_container(machine, exec.task.type_id);
        // Only the current segment is new busy time (earlier segments were
        // charged when they ended); the record reports total machine time.
        let segment = self.now - exec.started_at;
        self.cost.record_busy(machine, segment);
        let elapsed = exec.elapsed_at(self.now);
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
        let interrupted = self.machines[i].fail(self.now, &mut requeue);
        if let Some(exec) = interrupted {
            // The segment occupied the machine even though the machine is
            // gone; under the default (cold-restart) semantics the work is
            // lost too, so nothing is added to the task's (eventual)
            // record's machine time. Under `carry_progress` the salvaged
            // progress travels with the requeue entry below.
            let segment = self.now - exec.started_at;
            if segment > 0 {
                self.cost.record_busy(machine, segment);
            }
        }
        // Re-arrivals append behind the current batch in FCFS order
        // (executing task first); an already-expired re-arrival is culled
        // by the mapping event that follows immediately. Tasks that have
        // already burned their retry budget are shed instead.
        for (task, progress) in requeue.drain(..) {
            let count = &mut self.requeue_counts[task.id.index()];
            if self.config.max_requeues.is_some_and(|cap| *count >= cap) {
                self.churn.dropped_after_retry += 1;
                self.record(task, TaskOutcome::Shed, Some(machine), None, 0);
            } else {
                *count += 1;
                self.churn.requeued += 1;
                if self.config.carry_progress && progress > 0 {
                    // Migration semantics: the completed progress resumes
                    // on the next machine (which re-samples its own total;
                    // the carried time is subtracted from it).
                    self.carried[task.id.index()] = progress;
                }
                self.batch.push(task);
            }
        }
        self.requeue_buf = requeue;
        self.churn.fails += 1;
        self.membership_changed();
    }

    /// Draining machines whose queues ran dry leave the cluster.
    fn complete_drains(&mut self) {
        for m in 0..self.machines.len() {
            if self.machines[m].try_complete_drain() {
                self.membership_changed();
            }
        }
    }

    /// Culls expired tasks, runs the mapper, applies pruner removals.
    fn mapping_event(&mut self) {
        // Expired unmapped tasks leave the system (§III: "before the
        // mapping event, tasks that have missed their deadlines are
        // dropped").
        let now = self.now;
        let mut expired = std::mem::take(&mut self.expired_buf);
        expired.clear();
        self.batch.retain(|t| {
            if t.is_expired_at(now) {
                expired.push(*t);
                false
            } else {
                true
            }
        });
        for t in expired.drain(..) {
            self.missed_since_last += 1;
            self.record(t, TaskOutcome::ExpiredUnstarted, None, None, 0);
        }

        // Expired pending tasks leave their machine queues under B/C.
        if self.config.drop_policy != DropPolicy::None {
            for m in 0..self.machines.len() {
                self.machines[m].drain_expired_pending(now, &mut expired);
                let machine = MachineId::from(m);
                for t in expired.drain(..) {
                    self.missed_since_last += 1;
                    self.record(t, TaskOutcome::ExpiredUnstarted, Some(machine), None, 0);
                }
            }
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
            carried: &mut self.carried,
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
            let machine_time = p.progress_before + segment;
            // A pruned task that had ever started (evicted now, or
            // preempted earlier and dropped while pending) occupied a
            // container; pruning releases it into its keep-alive window.
            if p.started_at.is_some() || p.progress_before > 0 {
                self.release_container(p.machine, p.task.type_id);
            }
            self.record(
                p.task,
                TaskOutcome::PrunedDropped,
                Some(p.machine),
                p.started_at,
                machine_time,
            );
        }
        self.pruned_buf = pruned;
    }

    /// Starts the queue head on every idle machine, sampling actual
    /// execution times from the ground truth. Draining machines keep
    /// starting their remaining queue; offline machines have none.
    fn start_idle_machines(&mut self) {
        let drop_all = self.config.drop_policy == DropPolicy::All;
        let cull_pending = self.config.drop_policy != DropPolicy::None;
        for m in 0..self.machines.len() {
            let machine = MachineId::from(m);
            while self.machines[m].executing().is_none() {
                let Some(entry) = self.machines[m].pop_next_pending() else { break };
                let task = entry.task;
                // Eq. 3: a start is only possible strictly before the
                // deadline — a task beginning at δ can never finish by δ.
                if cull_pending && self.now >= task.deadline {
                    self.missed_since_last += 1;
                    self.record(task, TaskOutcome::ExpiredUnstarted, Some(machine), None, 0);
                    continue;
                }
                // Preempted tasks resume their remaining work (container
                // still resident, warmth decided at first start); fresh
                // tasks sample a ground-truth total once — plus a spin-up
                // on a cold machine under the serverless model.
                let (total, cold) = match entry.sampled_total {
                    Some(total) => (total, entry.cold_start),
                    None => {
                        let exec = self.spec.truth.sample_exec(task.type_id, machine, self.rng);
                        match &self.spec.coldstart {
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
                        }
                    }
                };
                let remaining = total.saturating_sub(entry.progress).max(1);
                self.machines[m].start_with_warmth(entry, self.now, total, cold);
                if self.spec.coldstart.is_some() {
                    // Pin the container for the duration of the run.
                    self.machines[m].pin_warm(task.type_id);
                }
                let finish = self.now + remaining;
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
            self.engine.carried.resize(len, 0);
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
mod tests {
    use super::*;
    use crate::mapper::FirstFitMapper;
    use crate::snapshot::{ByteWriter, Wire};
    use hcsim_model::{
        ChurnEvent, ColdStartModel, MachineSpec, PetBuilder, PriceTable, TaskId, TaskTypeId,
        TaskTypeSpec,
    };
    use hcsim_stats::SeedSequence;
    use std::panic::AssertUnwindSafe;

    /// 1 task type, 2 machines, deterministic-ish exec around 10 / 20 ms.
    fn small_spec(queue_capacity: usize) -> SystemSpec {
        let mut rng = SeedSequence::new(77).stream(0);
        let (pet, truth) = PetBuilder::new()
            .shape_range(200.0, 200.0) // tiny variance → near-deterministic
            .build(&[vec![10.0, 20.0]], &mut rng);
        SystemSpec {
            machines: vec![
                MachineSpec { name: "fast".into() },
                MachineSpec { name: "slow".into() },
            ],
            task_types: vec![TaskTypeSpec { name: "t".into() }],
            pet,
            truth,
            prices: PriceTable::new(vec![2.0, 1.0]),
            queue_capacity,
            coldstart: None,
        }
        .validated()
    }

    fn tasks_every(n: usize, gap: Time, slack: Time) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let arrival = i as Time * gap;
                Task {
                    id: TaskId(i as u32),
                    type_id: TaskTypeId(0),
                    arrival,
                    deadline: arrival + slack,
                }
            })
            .collect()
    }

    fn run(spec: &SystemSpec, tasks: &[Task], seed: u64) -> SimReport {
        let mut rng = SeedSequence::new(seed).stream(9);
        let mut mapper = FirstFitMapper;
        run_simulation(spec, SimConfig::untrimmed(), tasks, &mut mapper, &mut rng)
    }

    #[test]
    fn relaxed_load_all_tasks_succeed() {
        let spec = small_spec(6);
        // Tasks every 50 ms with 100 ms slack; exec ~10 ms → all succeed.
        let tasks = tasks_every(10, 50, 100);
        let report = run(&spec, &tasks, 1);
        assert_eq!(report.metrics.counted, 10);
        assert_eq!(report.metrics.outcomes.on_time, 10, "{:?}", report.metrics.outcomes);
        assert!((report.metrics.pct_on_time - 100.0).abs() < 1e-12);
        // Static cluster: no churn, one epoch covering everything.
        assert_eq!(report.churn, ChurnStats::default());
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].active_machines, 2);
        assert_eq!(report.epochs[0].finished, 10);
        assert!((report.epochs[0].robustness() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn every_task_gets_exactly_one_record() {
        let spec = small_spec(2);
        let tasks = tasks_every(50, 1, 30);
        let report = run(&spec, &tasks, 2);
        assert_eq!(report.records.len(), 50);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.task.id.index(), i);
        }
        assert_eq!(report.metrics.outcomes.total(), 50);
        assert_eq!(report.metrics.outcomes.unfinished, 0);
    }

    #[test]
    fn oversubscription_causes_misses() {
        let spec = small_spec(2);
        // 100 tasks all at once with tight slack: far beyond capacity.
        let tasks = tasks_every(100, 0, 40);
        let report = run(&spec, &tasks, 3);
        assert!(report.metrics.outcomes.on_time < 100);
        assert!(report.metrics.outcomes.expired_unstarted > 0, "{:?}", report.metrics.outcomes);
    }

    #[test]
    fn eviction_at_deadline_under_drop_all() {
        let spec = small_spec(2);
        // Slack shorter than any possible execution (exec ≈ 10) → the task
        // starts and is evicted at its deadline.
        let tasks = vec![Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 3 }];
        let report = run(&spec, &tasks, 4);
        assert_eq!(report.metrics.outcomes.expired_executing, 1, "{:?}", report.metrics.outcomes);
        let rec = &report.records[0];
        assert_eq!(rec.finished_at, 3, "evicted exactly at the deadline");
        assert_eq!(rec.machine_time, 3);
    }

    #[test]
    fn late_completion_under_policy_none() {
        let spec = small_spec(2);
        let tasks = vec![Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 3 }];
        let mut rng = SeedSequence::new(5).stream(9);
        let mut mapper = FirstFitMapper;
        let config = SimConfig { drop_policy: DropPolicy::None, trim: 0, ..SimConfig::default() };
        let report = run_simulation(&spec, config, &tasks, &mut mapper, &mut rng);
        assert_eq!(report.metrics.outcomes.late, 1, "{:?}", report.metrics.outcomes);
        assert!(report.records[0].finished_at > 3);
    }

    #[test]
    fn busy_time_and_cost_accounting() {
        let spec = small_spec(6);
        let tasks = tasks_every(4, 100, 200);
        let report = run(&spec, &tasks, 6);
        let total_busy = report.cost.total_busy_time();
        let sum_machine_time: Time = report.records.iter().map(|r| r.machine_time).sum();
        assert_eq!(total_busy, sum_machine_time);
        assert!(report.total_cost > 0.0);
        assert!(report.cost_per_percent.unwrap() > 0.0);
    }

    #[test]
    fn deterministic_given_same_stream() {
        let spec = small_spec(4);
        let tasks = tasks_every(30, 2, 50);
        let a = run(&spec, &tasks, 42);
        let b = run(&spec, &tasks, 42);
        assert_eq!(a.records, b.records);
        assert_eq!(a.mapping_events, b.mapping_events);
    }

    // ---- serverless (faas): cold starts, warm hits, keep-alive ----

    /// [`small_spec`] plus a cold-start model: spin-up ≈ 30 ms per cold
    /// placement, containers kept warm for `keep_alive` after completion.
    fn faas_spec(queue_capacity: usize, keep_alive: Time) -> SystemSpec {
        let mut spec = small_spec(queue_capacity);
        let mut rng = SeedSequence::new(78).stream(0);
        let (spinup, truth) =
            PetBuilder::new().shape_range(200.0, 200.0).build(&[vec![30.0, 30.0]], &mut rng);
        spec.coldstart = Some(ColdStartModel { spinup, truth, keep_alive });
        spec.validated()
    }

    #[test]
    fn classic_spec_reports_zero_faas_stats() {
        let spec = small_spec(6);
        let report = run(&spec, &tasks_every(10, 50, 100), 1);
        assert_eq!(report.faas, FaasStats::default());
    }

    #[test]
    fn long_keep_alive_pays_spinup_once_per_machine() {
        // Spaced tasks (gap 100 ≫ spin-up 30 + exec 10) all land on machine
        // 0 via FirstFit; with a generous keep-alive only the first start is
        // cold.
        let spec = faas_spec(6, 1_000_000);
        let report = run(&spec, &tasks_every(6, 100, 300), 1);
        assert_eq!(report.faas.cold_starts, 1, "{:?}", report.faas);
        assert_eq!(report.faas.warm_hits, 5, "{:?}", report.faas);
        assert!((report.faas.warm_hit_rate() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(report.metrics.outcomes.on_time, 6);
    }

    #[test]
    fn zero_keep_alive_makes_every_spaced_start_cold() {
        let spec = faas_spec(6, 0);
        let report = run(&spec, &tasks_every(6, 100, 300), 1);
        assert_eq!(report.faas.cold_starts, 6, "{:?}", report.faas);
        assert_eq!(report.faas.warm_hits, 0, "{:?}", report.faas);

        // The repeated spin-up shows up as real occupancy: every record's
        // machine time covers spin-up + execution.
        for r in &report.records {
            assert!(r.machine_time >= 30, "cold start must include spin-up: {r:?}");
        }
    }

    #[test]
    fn back_to_back_queue_reuse_is_warm_even_with_zero_keep_alive() {
        // Two tasks queued on the same machine: the second starts in the
        // same step the first completes, before the keep-alive expiry event
        // fires, so the container is reused.
        let spec = faas_spec(6, 0);
        let tasks = tasks_every(2, 0, 500);
        let report = run(&spec, &tasks, 1);
        assert_eq!(report.faas.cold_starts, 1, "{:?}", report.faas);
        assert_eq!(report.faas.warm_hits, 1, "{:?}", report.faas);
    }

    #[test]
    fn faas_snapshot_restore_resumes_bit_identically() {
        let spec = faas_spec(4, 50);
        let tasks = tasks_every(30, 2, 400);
        let churn = service_churn();
        let baseline = churn_run(&spec, &tasks, &churn, 42);
        let expected = report_fingerprint(&baseline);
        assert!(baseline.faas.cold_starts > 0, "{:?}", baseline.faas);

        for steps in [0usize, 1, 7, 33, 10_000] {
            let mut rng = SeedSequence::new(42).stream(9);
            let mut mapper = FirstFitMapper;
            let mut task_source = TaskTraceSource::new(&tasks);
            let mut churn_source = ChurnSource::new(&churn);
            let mut session = SimSession::new(
                &spec,
                SimConfig::untrimmed(),
                &mut [&mut task_source, &mut churn_source],
                &mut mapper,
                &mut rng,
            );
            for _ in 0..steps {
                if !session.step() {
                    break;
                }
            }
            let bytes = session.snapshot();
            drop(session);

            let mut mapper2 = FirstFitMapper;
            let mut rng2 = SeedSequence::new(777).stream(3);
            let resumed =
                SimSession::restore(&spec, SimConfig::untrimmed(), &bytes, &mut mapper2, &mut rng2)
                    .expect("restore");
            let report = resumed.run_to_completion();
            assert_eq!(expected, report_fingerprint(&report), "diverged after {steps} steps");
        }
    }

    #[test]
    fn deferring_mapper_cannot_stall_the_simulation() {
        /// A mapper that never assigns anything.
        struct NeverMap;
        impl Mapper for NeverMap {
            fn name(&self) -> &str {
                "never"
            }
            fn on_mapping_event(&mut self, _ctx: &mut MapContext<'_>) {}
        }
        let spec = small_spec(2);
        let tasks = tasks_every(5, 10, 1000);
        let mut rng = SeedSequence::new(7).stream(0);
        let mut mapper = NeverMap;
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
        // All tasks must expire via deadline sweeps rather than hanging.
        assert_eq!(report.metrics.outcomes.expired_unstarted, 5);
        assert!(report.end_time > 1000);
    }

    #[test]
    fn mapper_finish_notifications_fire_for_every_task() {
        #[derive(Default)]
        struct Counting {
            inner: FirstFitMapper,
            finished: usize,
            successes: usize,
        }
        impl Mapper for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
                self.inner.on_mapping_event(ctx);
            }
            fn on_task_finished(&mut self, _task: &Task, outcome: TaskOutcome) {
                self.finished += 1;
                if outcome.is_success() {
                    self.successes += 1;
                }
            }
        }
        let spec = small_spec(2);
        let tasks = tasks_every(40, 1, 25);
        let mut rng = SeedSequence::new(8).stream(0);
        let mut mapper = Counting::default();
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
        assert_eq!(mapper.finished, 40);
        assert_eq!(mapper.successes, report.metrics.outcomes.on_time);
    }

    #[test]
    fn trim_is_applied_to_metrics_not_records() {
        let spec = small_spec(6);
        let tasks = tasks_every(20, 50, 200);
        let mut rng = SeedSequence::new(9).stream(0);
        let mut mapper = FirstFitMapper;
        let config = SimConfig { trim: 5, ..SimConfig::default() };
        let report = run_simulation(&spec, config, &tasks, &mut mapper, &mut rng);
        assert_eq!(report.records.len(), 20);
        assert_eq!(report.metrics.counted, 10);
    }

    #[test]
    fn pruner_eviction_is_charged_and_recorded() {
        /// Evicts whatever machine 0 is executing on the first event where
        /// it is busy, then maps nothing further.
        #[derive(Default)]
        struct EvictOnce {
            evicted: bool,
            inner: FirstFitMapper,
        }
        impl Mapper for EvictOnce {
            fn name(&self) -> &str {
                "evict-once"
            }
            fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
                if !self.evicted && ctx.machine(MachineId(0)).executing().is_some() {
                    ctx.evict_executing(MachineId(0)).unwrap();
                    self.evicted = true;
                }
                self.inner.on_mapping_event(ctx);
            }
        }
        let spec = small_spec(2);
        let tasks = tasks_every(3, 2, 500);
        let mut rng = SeedSequence::new(10).stream(0);
        let mut mapper = EvictOnce::default();
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
        assert_eq!(report.metrics.outcomes.pruned, 1, "{:?}", report.metrics.outcomes);
        let pruned_rec =
            report.records.iter().find(|r| r.outcome == TaskOutcome::PrunedDropped).unwrap();
        assert!(pruned_rec.started_at.is_some());
        // All three tasks still terminate (stale Completion event is
        // skipped).
        assert_eq!(report.metrics.outcomes.total(), 3);
    }

    #[test]
    fn first_fit_prefers_low_index_machines() {
        let spec = small_spec(6);
        let tasks = tasks_every(2, 0, 500);
        let report = run(&spec, &tasks, 11);
        // Both tasks arrive at t=0; FirstFit puts both on machine 0.
        let machines: Vec<_> = report.records.iter().filter_map(|r| r.machine).collect();
        assert_eq!(machines, vec![MachineId(0), MachineId(0)]);
    }

    // ---- churn pipeline ----

    fn churn_run(spec: &SystemSpec, tasks: &[Task], churn: &ChurnTrace, seed: u64) -> SimReport {
        let mut rng = SeedSequence::new(seed).stream(9);
        let mut mapper = FirstFitMapper;
        run_simulation_with_churn(spec, SimConfig::untrimmed(), tasks, churn, &mut mapper, &mut rng)
    }

    #[test]
    fn empty_churn_trace_matches_static_run() {
        let spec = small_spec(4);
        let tasks = tasks_every(20, 5, 80);
        let static_run = run(&spec, &tasks, 21);
        let churned = churn_run(&spec, &tasks, &ChurnTrace::none(), 21);
        assert_eq!(static_run.records, churned.records);
        assert_eq!(static_run.mapping_events, churned.mapping_events);
    }

    #[test]
    fn failed_machine_requeues_tasks_and_survivors_finish_them() {
        let spec = small_spec(6);
        // Relaxed load; everything would normally run on machine 0.
        let tasks = tasks_every(4, 0, 2_000);
        let churn = ChurnTrace {
            initially_offline: vec![],
            // Fail machine 0 at t=5: its executing + pending tasks must
            // re-enter the batch and be remapped to machine 1.
            events: vec![ChurnEvent { time: 5, machine: MachineId(0), kind: ChurnKind::Fail }],
            notices: vec![],
        };
        let report = churn_run(&spec, &tasks, &churn, 22);
        assert_eq!(report.churn.fails, 1);
        assert_eq!(report.churn.requeued, 4, "{:?}", report.churn);
        assert_eq!(report.metrics.outcomes.on_time, 4, "{:?}", report.metrics.outcomes);
        for r in &report.records {
            assert_eq!(r.machine, Some(MachineId(1)), "{r:?}");
        }
        // Machine 0's interrupted segment is still billed.
        assert!(report.cost.busy_time(MachineId(0)) > 0);
    }

    #[test]
    fn drained_machine_finishes_queue_but_takes_no_new_work() {
        let spec = small_spec(6);
        let tasks = tasks_every(6, 4, 2_000);
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![ChurnEvent { time: 2, machine: MachineId(0), kind: ChurnKind::Drain }],
            notices: vec![],
        };
        let report = churn_run(&spec, &tasks, &churn, 23);
        assert_eq!(report.churn.drains, 1);
        assert_eq!(report.metrics.outcomes.on_time, 6, "{:?}", report.metrics.outcomes);
        // Tasks assigned before the drain finish on machine 0; everything
        // arriving after t=2 lands on machine 1.
        for r in &report.records {
            if r.task.arrival > 2 {
                assert_eq!(r.machine, Some(MachineId(1)), "{r:?}");
            }
        }
    }

    #[test]
    fn joining_machine_adds_capacity_mid_run() {
        let spec = small_spec(1); // queue capacity 1: one task per machine
        let tasks = tasks_every(2, 0, 2_000);
        let churn = ChurnTrace {
            initially_offline: vec![MachineId(1)],
            events: vec![ChurnEvent { time: 3, machine: MachineId(1), kind: ChurnKind::Join }],
            notices: vec![],
        };
        let report = churn_run(&spec, &tasks, &churn, 24);
        assert_eq!(report.churn.joins, 1);
        // Before the join only machine 0 exists; after t=3 the deferred
        // task can start on machine 1.
        assert_eq!(report.metrics.outcomes.on_time, 2, "{:?}", report.metrics.outcomes);
        let m1_rec = report.records.iter().find(|r| r.machine == Some(MachineId(1))).unwrap();
        assert!(m1_rec.started_at.unwrap() >= 3, "{m1_rec:?}");
        // Epoch slices: 1 active → 2 active.
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].active_machines, 1);
        assert_eq!(report.epochs[1].active_machines, 2);
        assert_eq!(report.epochs[1].start, 3);
    }

    #[test]
    fn all_machines_failing_expires_remaining_tasks() {
        let spec = small_spec(4);
        let tasks = tasks_every(6, 0, 60);
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![
                ChurnEvent { time: 1, machine: MachineId(0), kind: ChurnKind::Fail },
                ChurnEvent { time: 1, machine: MachineId(1), kind: ChurnKind::Fail },
            ],
            notices: vec![],
        };
        let report = churn_run(&spec, &tasks, &churn, 25);
        assert_eq!(report.churn.fails, 2);
        // Every task terminates (no stall, no duplicates): requeued tasks
        // expire in the batch via deadline sweeps.
        assert_eq!(report.metrics.outcomes.total(), 6);
        assert_eq!(report.metrics.outcomes.unfinished, 0);
        assert!(report.metrics.outcomes.expired_unstarted > 0);
        let last = report.epochs.last().unwrap();
        assert_eq!(last.active_machines, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_membership_event_is_rejected_at_intake() {
        // The open pipeline accepts arbitrary sources (hand-written
        // traces, CSV imports), so a bad machine id must fail with a
        // clear message at emit time, not an index panic mid-run.
        let spec = small_spec(2);
        let tasks = tasks_every(1, 0, 100);
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![ChurnEvent { time: 5, machine: MachineId(9), kind: ChurnKind::Fail }],
            notices: vec![],
        };
        let mut task_source = TaskTraceSource::new(&tasks);
        let mut churn_source = ChurnSource::new(&churn);
        let mut mapper = FirstFitMapper;
        let mut rng = SeedSequence::new(1).stream(0);
        let _ = run_simulation_with_sources(
            &spec,
            SimConfig::untrimmed(),
            &mut [&mut task_source, &mut churn_source],
            &mut mapper,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "type 99 out of range")]
    fn out_of_range_task_type_is_rejected_at_intake() {
        let spec = small_spec(2);
        let mut tasks = tasks_every(2, 10, 100);
        tasks[1].type_id = TaskTypeId(99);
        let _ = run(&spec, &tasks, 1);
    }

    #[test]
    #[should_panic(expected = "type 99 out of range")]
    fn out_of_range_task_type_is_rejected_at_injection() {
        let spec = small_spec(2);
        let mut mapper = FirstFitMapper;
        let mut rng = SeedSequence::new(1).stream(0);
        let mut session =
            SimSession::new(&spec, SimConfig::untrimmed(), &mut [], &mut mapper, &mut rng);
        let task = Task { id: TaskId(0), type_id: TaskTypeId(99), arrival: 0, deadline: 100 };
        session.inject_arrival(task);
    }

    #[test]
    fn membership_epoch_is_visible_to_the_mapper() {
        #[derive(Default)]
        struct EpochProbe {
            inner: FirstFitMapper,
            epochs_seen: Vec<u64>,
        }
        impl Mapper for EpochProbe {
            fn name(&self) -> &str {
                "epoch-probe"
            }
            fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
                if self.epochs_seen.last() != Some(&ctx.membership_epoch()) {
                    self.epochs_seen.push(ctx.membership_epoch());
                }
                self.inner.on_mapping_event(ctx);
            }
        }
        let spec = small_spec(4);
        let tasks = tasks_every(8, 5, 300);
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![
                ChurnEvent { time: 7, machine: MachineId(1), kind: ChurnKind::Drain },
                ChurnEvent { time: 20, machine: MachineId(1), kind: ChurnKind::Join },
            ],
            notices: vec![],
        };
        let mut mapper = EpochProbe::default();
        let mut rng = SeedSequence::new(26).stream(9);
        let report = run_simulation_with_churn(
            &spec,
            SimConfig::untrimmed(),
            &tasks,
            &churn,
            &mut mapper,
            &mut rng,
        );
        assert!(mapper.epochs_seen.len() >= 3, "{:?}", mapper.epochs_seen);
        assert!(mapper.epochs_seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(report.metrics.outcomes.total(), 8);
    }

    // ---- failure-requeue retry cap ----

    #[test]
    fn max_requeues_zero_sheds_on_first_failure() {
        let spec = small_spec(6);
        // Both tasks land on machine 0 (FirstFit); it fails at t=5.
        let tasks = tasks_every(2, 0, 2_000);
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![ChurnEvent { time: 5, machine: MachineId(0), kind: ChurnKind::Fail }],
            notices: vec![],
        };
        let mut rng = SeedSequence::new(30).stream(9);
        let mut mapper = FirstFitMapper;
        let config = SimConfig { trim: 0, max_requeues: Some(0), ..SimConfig::default() };
        let report =
            run_simulation_with_churn(&spec, config, &tasks, &churn, &mut mapper, &mut rng);
        assert_eq!(report.churn.fails, 1);
        assert_eq!(report.churn.requeued, 0, "cap 0 never requeues");
        assert_eq!(report.churn.dropped_after_retry, 2, "{:?}", report.churn);
        assert_eq!(report.metrics.outcomes.shed, 2, "{:?}", report.metrics.outcomes);
        assert_eq!(report.metrics.outcomes.total(), 2, "shed tasks still get records");
        for r in &report.records {
            assert_eq!(r.outcome, TaskOutcome::Shed);
            assert_eq!(r.machine, Some(MachineId(0)), "shed at the failed machine");
        }
    }

    #[test]
    fn max_requeues_one_allows_a_single_retry() {
        let spec = small_spec(6);
        let tasks = tasks_every(4, 0, 2_000);
        // First failure requeues everything (retry 1 of 1); tasks remap to
        // machine 1, whose failure at t=7 exceeds the cap.
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![
                ChurnEvent { time: 5, machine: MachineId(0), kind: ChurnKind::Fail },
                ChurnEvent { time: 7, machine: MachineId(1), kind: ChurnKind::Fail },
            ],
            notices: vec![],
        };
        let mut rng = SeedSequence::new(31).stream(9);
        let mut mapper = FirstFitMapper;
        let config = SimConfig { trim: 0, max_requeues: Some(1), ..SimConfig::default() };
        let report =
            run_simulation_with_churn(&spec, config, &tasks, &churn, &mut mapper, &mut rng);
        assert_eq!(report.churn.fails, 2);
        assert_eq!(report.churn.requeued, 4, "first failure retries all four");
        assert_eq!(report.churn.dropped_after_retry, 4, "{:?}", report.churn);
        assert_eq!(report.metrics.outcomes.shed, 4, "{:?}", report.metrics.outcomes);
        assert_eq!(report.metrics.outcomes.total(), 4);
    }

    #[test]
    fn unbounded_requeues_match_the_default() {
        // `max_requeues: None` must be byte-identical to the seed behavior.
        let spec = small_spec(6);
        let tasks = tasks_every(4, 0, 2_000);
        let churn = ChurnTrace {
            initially_offline: vec![],
            events: vec![ChurnEvent { time: 5, machine: MachineId(0), kind: ChurnKind::Fail }],
            notices: vec![],
        };
        let baseline = churn_run(&spec, &tasks, &churn, 22);
        let mut rng = SeedSequence::new(22).stream(9);
        let mut mapper = FirstFitMapper;
        let config = SimConfig { trim: 0, max_requeues: None, ..SimConfig::default() };
        let explicit =
            run_simulation_with_churn(&spec, config, &tasks, &churn, &mut mapper, &mut rng);
        assert_eq!(baseline.records, explicit.records);
        assert_eq!(baseline.churn, explicit.churn);
    }

    // ---- service mode: stepwise session + snapshot/restore ----

    fn service_churn() -> ChurnTrace {
        ChurnTrace {
            initially_offline: vec![],
            events: vec![
                ChurnEvent { time: 20, machine: MachineId(1), kind: ChurnKind::Drain },
                ChurnEvent { time: 45, machine: MachineId(1), kind: ChurnKind::Join },
                ChurnEvent { time: 70, machine: MachineId(0), kind: ChurnKind::Fail },
                ChurnEvent { time: 95, machine: MachineId(0), kind: ChurnKind::Join },
            ],
            notices: vec![],
        }
    }

    fn report_fingerprint(r: &SimReport) -> String {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{}",
            r.metrics, r.records, r.cost, r.churn, r.faas, r.epochs, r.mapping_events
        )
    }

    #[test]
    fn session_stepping_matches_run_simulation() {
        let spec = small_spec(4);
        let tasks = tasks_every(30, 2, 50);
        let churn = service_churn();
        let baseline = churn_run(&spec, &tasks, &churn, 42);

        let mut rng = SeedSequence::new(42).stream(9);
        let mut mapper = FirstFitMapper;
        let mut task_source = TaskTraceSource::new(&tasks);
        let mut churn_source = ChurnSource::new(&churn);
        let session = SimSession::new(
            &spec,
            SimConfig::untrimmed(),
            &mut [&mut task_source, &mut churn_source],
            &mut mapper,
            &mut rng,
        );
        let stepped = session.run_to_completion();
        assert_eq!(report_fingerprint(&baseline), report_fingerprint(&stepped));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_at_any_boundary() {
        let spec = small_spec(4);
        let tasks = tasks_every(30, 2, 50);
        let churn = service_churn();
        let baseline = churn_run(&spec, &tasks, &churn, 42);
        let expected = report_fingerprint(&baseline);

        for steps in [0usize, 1, 3, 17, 60, 10_000] {
            let mut rng = SeedSequence::new(42).stream(9);
            let mut mapper = FirstFitMapper;
            let mut task_source = TaskTraceSource::new(&tasks);
            let mut churn_source = ChurnSource::new(&churn);
            let mut session = SimSession::new(
                &spec,
                SimConfig::untrimmed(),
                &mut [&mut task_source, &mut churn_source],
                &mut mapper,
                &mut rng,
            );
            for _ in 0..steps {
                if !session.step() {
                    break;
                }
            }
            let bytes = session.snapshot();
            drop(session);

            // Restore into a *fresh* mapper and an RNG with unrelated
            // state: everything that matters must come from the snapshot.
            let mut mapper2 = FirstFitMapper;
            let mut rng2 = SeedSequence::new(777).stream(3);
            let resumed =
                SimSession::restore(&spec, SimConfig::untrimmed(), &bytes, &mut mapper2, &mut rng2)
                    .expect("restore");
            let report = resumed.run_to_completion();
            assert_eq!(expected, report_fingerprint(&report), "diverged after {steps} steps");
        }
    }

    #[test]
    fn snapshot_rejects_wrong_system_shape() {
        let spec = small_spec(4);
        let tasks = tasks_every(5, 2, 50);
        let mut rng = SeedSequence::new(1).stream(0);
        let mut mapper = FirstFitMapper;
        let mut source = TaskTraceSource::new(&tasks);
        let session = SimSession::new(
            &spec,
            SimConfig::untrimmed(),
            &mut [&mut source],
            &mut mapper,
            &mut rng,
        );
        let bytes = session.snapshot();
        drop(session);

        let other = small_spec(2); // different queue capacity
        let mut mapper2 = FirstFitMapper;
        let mut rng2 = SeedSequence::new(1).stream(0);
        let err =
            SimSession::restore(&other, SimConfig::untrimmed(), &bytes, &mut mapper2, &mut rng2)
                .err()
                .expect("mismatched spec must be rejected");
        assert!(matches!(err, SnapshotError::SpecMismatch(_)), "{err}");

        // Corruption (a chopped buffer) errors instead of panicking.
        let err = SimSession::<FirstFitMapper, _>::restore(
            &spec,
            SimConfig::untrimmed(),
            &bytes[..bytes.len() / 2],
            &mut mapper2,
            &mut rng2,
        )
        .err()
        .expect("truncated snapshot must be rejected");
        assert!(matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)), "{err}");
    }

    // ---- restore: cross-field checks, each on a patched real snapshot ----

    /// Offsets of the engine scalars: 8 header bytes, then four shape
    /// counts, then `now` and the next event `seq`.
    const NOW_AT: usize = 8 + 4 * 8;
    const SEQ_AT: usize = NOW_AT + 8;

    /// A real 17-step snapshot of the churn fixture, with the 30-task
    /// trace it came from and one task that already has a record.
    fn mid_run_snapshot(spec: &SystemSpec) -> (Vec<u8>, Vec<Task>, Task) {
        let tasks = tasks_every(30, 2, 50);
        let churn = service_churn();
        let mut rng = SeedSequence::new(42).stream(9);
        let mut mapper = FirstFitMapper;
        let mut task_source = TaskTraceSource::new(&tasks);
        let mut churn_source = ChurnSource::new(&churn);
        let mut session = SimSession::new(
            spec,
            SimConfig::untrimmed(),
            &mut [&mut task_source, &mut churn_source],
            &mut mapper,
            &mut rng,
        );
        for _ in 0..17 {
            assert!(session.step());
        }
        let finished =
            session.engine.records.iter().flatten().next().expect("a task finished").task;
        (session.snapshot(), tasks, finished)
    }

    fn restore_error(spec: &SystemSpec, bytes: &[u8]) -> SnapshotError {
        let mut mapper = FirstFitMapper;
        let mut rng = SeedSequence::new(1).stream(0);
        SimSession::restore(spec, SimConfig::untrimmed(), bytes, &mut mapper, &mut rng)
            .err()
            .expect("a patched snapshot must be rejected")
    }

    /// Byte offset of the last occurrence of `needle`.
    fn rfind(haystack: &[u8], needle: &[u8]) -> usize {
        haystack.windows(needle.len()).rposition(|w| w == needle).expect("pattern is present")
    }

    /// The heap encoding of `task`'s trace arrival (the trace source
    /// issues seq = position, and the fixture's ids are positions).
    fn arrival_event_bytes(task: &Task) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64);
        let event =
            Event { time: task.arrival, seq: u64::from(task.id.0), kind: SimEvent::Arrival(*task) };
        event.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_a_clock_ahead_of_the_heap() {
        let spec = small_spec(4);
        let (mut bytes, ..) = mid_run_snapshot(&spec);
        bytes[NOW_AT..NOW_AT + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(
            restore_error(&spec, &bytes),
            SnapshotError::Corrupt("event earlier than now"),
            "stepping this snapshot would move time backwards"
        );
    }

    #[test]
    fn restore_rejects_event_seqs_the_engine_never_issued() {
        let spec = small_spec(4);
        let (bytes, tasks, _) = mid_run_snapshot(&spec);

        // Next seq wound back to 0: every heap event is from the future.
        let mut rewound = bytes.clone();
        rewound[SEQ_AT..SEQ_AT + 8].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            restore_error(&spec, &rewound),
            SnapshotError::Corrupt("event seq not below the next seq")
        );

        // The last task's pending arrival re-labelled with its
        // predecessor's seq: two events claim one emission slot.
        let (last, prev) = (&tasks[29], &tasks[28]);
        let at = rfind(&bytes, &arrival_event_bytes(last));
        rfind(&bytes, &arrival_event_bytes(prev)); // both are still on the heap
        let mut duplicated = bytes;
        duplicated[at + 8..at + 16].copy_from_slice(&u64::from(prev.id.0).to_le_bytes());
        assert_eq!(
            restore_error(&spec, &duplicated),
            SnapshotError::Corrupt("duplicate event seq")
        );
    }

    #[test]
    fn restore_rejects_a_record_filed_under_another_slot() {
        let spec = small_spec(4);
        let (mut bytes, _, finished) = mid_run_snapshot(&spec);
        let mut w = ByteWriter::with_capacity(24);
        finished.put(&mut w);
        // A finished task survives only in its record, so the last (and
        // only) occurrence of its encoding is the record's.
        let at = rfind(&bytes, &w.into_bytes());
        bytes[at..at + 4].copy_from_slice(&(finished.id.0 + 1).to_le_bytes());
        assert_eq!(
            restore_error(&spec, &bytes),
            SnapshotError::Corrupt("record task id is not its slot")
        );
    }

    #[test]
    fn no_bit_flip_of_a_snapshot_panics_restore() {
        // Every byte of a real mid-run snapshot with its low and its high
        // bit flipped: restore returns `Ok` or `Err`, never panics.
        // First-fit keeps no state blob, so every byte decoded is the
        // engine's own.
        let spec = small_spec(4);
        let (mut bytes, ..) = mid_run_snapshot(&spec);
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80] {
                bytes[at] ^= mask;
                let restore = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut mapper = FirstFitMapper;
                    let mut rng = SeedSequence::new(1).stream(0);
                    let config = SimConfig::untrimmed();
                    SimSession::restore(&spec, config, &bytes, &mut mapper, &mut rng).is_ok()
                }));
                assert!(restore.is_ok(), "byte {at} ^ {mask:#04x} panicked the restore");
                bytes[at] ^= mask;
            }
        }
    }

    #[test]
    fn injected_arrivals_and_sheds_are_fully_accounted() {
        let spec = small_spec(6);
        let mut rng = SeedSequence::new(50).stream(0);
        let mut mapper = FirstFitMapper;
        let mut session =
            SimSession::new(&spec, SimConfig::untrimmed(), &mut [], &mut mapper, &mut rng);
        assert!(!session.step(), "no sources, nothing scheduled");

        // A service admits three tasks and refuses a fourth under load.
        for i in 0..3u32 {
            session.inject_arrival(Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: u64::from(i) * 5,
                deadline: u64::from(i) * 5 + 500,
            });
        }
        session.shed(Task { id: TaskId(3), type_id: TaskTypeId(0), arrival: 12, deadline: 512 });
        assert_eq!(session.finished_tasks(), 1, "the shed task is already terminal");
        let report = session.run_to_completion();
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.metrics.outcomes.total(), 4, "{:?}", report.metrics.outcomes);
        assert_eq!(report.metrics.outcomes.shed, 1);
        assert_eq!(report.metrics.outcomes.on_time, 3);
        assert_eq!(report.metrics.outcomes.unfinished, 0, "nothing silently lost");
    }

    #[test]
    fn arrivals_injected_mid_run_are_processed() {
        let spec = small_spec(6);
        let tasks = tasks_every(2, 0, 500);
        let mut rng = SeedSequence::new(51).stream(0);
        let mut mapper = FirstFitMapper;
        let mut source = TaskTraceSource::new(&tasks);
        let mut session = SimSession::new(
            &spec,
            SimConfig::untrimmed(),
            &mut [&mut source],
            &mut mapper,
            &mut rng,
        );
        // Drain the trace completely…
        while session.step() {}
        let t = session.now();
        // …then a late arrival shows up with a timestamp in the past: it
        // is clamped to `now` rather than time-traveling.
        session.inject_arrival(Task {
            id: TaskId(2),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: t + 500,
        });
        let report = session.run_to_completion();
        assert_eq!(report.metrics.outcomes.on_time, 3, "{:?}", report.metrics.outcomes);
        let late = &report.records[2];
        assert!(late.started_at.unwrap() >= t, "{late:?}");
    }
}
