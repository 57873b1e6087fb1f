//! Per-machine queue state.
//!
//! §III: machines use limited-size local queues processed FCFS; the queue
//! capacity *includes* the executing task (§VII-A). The mapper sees this
//! state read-only and reasons about it probabilistically; it never sees
//! the sampled actual execution time of the executing task.

use hcsim_model::{MachineId, Task, TaskId, TaskTypeId, Time};
use std::collections::VecDeque;

/// One warm container on a machine (serverless cold-start model).
///
/// `expires_at` is the keep-alive deadline after which the container is
/// reclaimed; [`WarmContainer::IN_USE`] marks a container whose function
/// is currently queued-after-start or executing (it cannot expire until
/// the next completion restarts its keep-alive clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmContainer {
    /// The function (task type) the container serves.
    pub type_id: TaskTypeId,
    /// When keep-alive reclaims it ([`WarmContainer::IN_USE`] = pinned).
    pub expires_at: Time,
}

impl WarmContainer {
    /// Sentinel `expires_at` for a container pinned by a running function.
    pub const IN_USE: Time = Time::MAX;
}

/// Cluster-membership state of one machine.
///
/// The engine drives transitions from [`hcsim_model::ChurnTrace`] events:
/// `Join` activates an offline machine with a fresh queue, `Drain` stops
/// new assignments while the queue runs dry, and `Fail` empties the queue
/// immediately (its tasks re-enter the batch). A draining machine whose
/// queue empties goes offline automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MachineLifecycle {
    /// In the cluster and accepting work.
    #[default]
    Active,
    /// Finishing its queue; accepts no new assignments (planned removal).
    Draining,
    /// Not in the cluster: empty queue, invisible to mappers.
    Offline,
}

/// A mapped-but-not-executing queue entry. `progress` is non-zero only for
/// work resumed mid-execution — progress carried from a failed machine, or
/// a preempted entry (§VIII future work; no mapper preempts any more, but
/// a restored snapshot may still hold one): the work already done is
/// retained and the engine resumes the remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingEntry {
    /// The task.
    pub task: Task,
    /// Execution time already completed in earlier segments.
    pub progress: Time,
    /// Ground-truth total sampled at first start (crate-private; absent
    /// until the task has started once).
    pub(crate) sampled_total: Option<Time>,
    /// Whether the first start of this task was a cold start (meaningful
    /// only for preempted entries, whose container is still resident).
    pub(crate) cold_start: bool,
}

impl PendingEntry {
    /// A fresh, never-started entry.
    #[must_use]
    pub fn new(task: Task) -> Self {
        Self { task, progress: 0, sampled_total: None, cold_start: false }
    }

    /// An entry resuming with salvaged progress from another machine
    /// (migration after a failure). The ground-truth total is *not*
    /// carried: execution time is machine-specific, so the new machine
    /// re-samples its own total and the salvaged progress is subtracted
    /// from it — exactly the residual the scorer's
    /// `Pmf::residual_shifted_into` convolution models.
    #[must_use]
    pub fn carrying(task: Task, progress: Time) -> Self {
        Self { task, progress, sampled_total: None, cold_start: false }
    }

    /// For an entry that has started before (a preemption victim): whether
    /// that first start was a cold start, i.e. whether its already-sampled
    /// total still includes container spin-up. `None` for entries that
    /// never started — their warmth is decided at start time. Observable
    /// (the scheduler knew the warmth at placement), so scorers may
    /// condition on it; the sampled total itself stays hidden.
    #[must_use]
    pub fn started_cold(&self) -> Option<bool> {
        self.sampled_total.map(|_| self.cold_start)
    }
}

/// The task currently executing on a machine.
///
/// The sampled total execution time is deliberately *crate-private*:
/// schedulers only know the start time and must reason from the PET; the
/// engine uses the ground truth for completion scheduling and for the
/// approximate-computing progress check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutingTask {
    /// The task.
    pub task: Task,
    /// When the current execution segment began.
    pub started_at: Time,
    /// Execution time completed in earlier segments (non-zero only for
    /// resumed work: carried progress or a preempted entry).
    pub progress_before: Time,
    /// Whether this execution began with a container spin-up (serverless
    /// cold-start model; always `false` in the classic HC model). Unlike
    /// the sampled total, warmth is observable — the scheduler knew it at
    /// placement time — so the scorer may condition on it.
    pub cold_start: bool,
    /// Ground-truth total execution time (hidden from mappers).
    pub(crate) total_exec: Time,
}

impl ExecutingTask {
    /// Total execution time completed by `now`, across all segments.
    #[must_use]
    pub fn elapsed_at(&self, now: Time) -> Time {
        self.progress_before + now.saturating_sub(self.started_at)
    }
}

/// One machine's queue: the executing task plus pending FCFS entries.
#[derive(Debug)]
pub struct MachineState {
    id: MachineId,
    capacity: usize,
    executing: Option<ExecutingTask>,
    pending: VecDeque<PendingEntry>,
    /// Cluster-membership state; only [`MachineLifecycle::Active`]
    /// machines are schedulable.
    lifecycle: MachineLifecycle,
    /// Bumped on every mutation; robustness caches key on this.
    version: u64,
    /// Invalidates in-flight completion events after an eviction.
    pub(crate) run_token: u64,
    /// Announced departure time (drain/fail pre-announcement from the
    /// churn trace): `Some(t)` means the machine is expected to leave the
    /// cluster at `t`, so mappers should not queue work that cannot finish
    /// by then. Cleared when the machine actually leaves or (re)joins.
    announced_departure: Option<Time>,
    /// Warm containers (serverless cold-start model), in pin/refresh
    /// order. Empty in the classic HC model — the engine only populates
    /// this when the spec carries a [`hcsim_model::ColdStartModel`].
    warm: Vec<WarmContainer>,
    /// Bumped on every warm-set mutation. Separate from `version` because
    /// the scorer's incremental tail cache deliberately ignores `version`
    /// when deciding head reuse; warmth changes must still invalidate it.
    warm_rev: u64,
}

// The snapshot layout. The restore path checks the queues against the
// spec, then seats `id` and `capacity` ([`MachineState::seat`]).
crate::wire_struct!(MachineState {
    lifecycle: MachineLifecycle,
    version: u64,
    run_token: u64,
    announced_departure: Option<Time>,
    executing: Option<ExecutingTask>,
    pending: VecDeque<PendingEntry>,
    warm: Vec<WarmContainer>,
    warm_rev: u64,
} off_wire { id: MachineId(0), capacity: 1 });

/// Hand-written so that `clone_from` reuses the destination's pending
/// buffer: the worker-pool scoring path snapshots every machine once per
/// fan-out round, and derived `clone_from` would reallocate the `VecDeque`
/// each time.
impl Clone for MachineState {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            capacity: self.capacity,
            executing: self.executing,
            pending: self.pending.clone(),
            lifecycle: self.lifecycle,
            version: self.version,
            run_token: self.run_token,
            announced_departure: self.announced_departure,
            warm: self.warm.clone(),
            warm_rev: self.warm_rev,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so adding a field to MachineState is a compile
        // error here (a silently-skipped field would desynchronize the
        // scorer's reused snapshot buffers from live machines).
        let Self {
            id,
            capacity,
            executing,
            pending,
            lifecycle,
            version,
            run_token,
            announced_departure,
            warm,
            warm_rev,
        } = source;
        self.id = *id;
        self.capacity = *capacity;
        self.executing = *executing;
        self.pending.clone_from(pending);
        self.lifecycle = *lifecycle;
        self.version = *version;
        self.run_token = *run_token;
        self.announced_departure = *announced_departure;
        self.warm.clone_from(warm);
        self.warm_rev = *warm_rev;
    }
}

impl MachineState {
    /// Creates an empty machine with the given queue capacity (including
    /// the executing slot).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(id: MachineId, capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must include the executing slot");
        Self {
            id,
            capacity,
            executing: None,
            pending: VecDeque::new(),
            lifecycle: MachineLifecycle::Active,
            version: 0,
            run_token: 0,
            announced_departure: None,
            warm: Vec::new(),
            warm_rev: 0,
        }
    }

    /// Gives a machine decoded from a snapshot its place in the system.
    /// Crate-private: only the restore path seats a machine, after it
    /// checked the decoded queues against `capacity`.
    pub(crate) fn seat(&mut self, id: MachineId, capacity: usize) {
        assert!(capacity >= 1, "capacity must include the executing slot");
        self.id = id;
        self.capacity = capacity;
    }

    /// The machine's cluster-membership state.
    #[must_use]
    pub fn lifecycle(&self) -> MachineLifecycle {
        self.lifecycle
    }

    /// True when the mapper may queue new work here (active members only;
    /// draining and offline machines refuse assignments).
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.lifecycle == MachineLifecycle::Active
    }

    /// The machine's id.
    #[must_use]
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Queue capacity including the executing slot.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The currently executing task, if any.
    #[must_use]
    pub fn executing(&self) -> Option<&ExecutingTask> {
        self.executing.as_ref()
    }

    /// Pending (mapped but not yet started) tasks in FCFS order.
    pub fn pending(&self) -> impl ExactSizeIterator<Item = &Task> {
        self.pending.iter().map(|e| &e.task)
    }

    /// Pending entries including resumed progress, FCFS order.
    pub fn pending_entries(&self) -> impl ExactSizeIterator<Item = &PendingEntry> {
        self.pending.iter()
    }

    /// Occupied slots: executing (0/1) + pending.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        usize::from(self.executing.is_some()) + self.pending.len()
    }

    /// Free queue slots *available to the mapper*: zero for machines that
    /// are draining or offline, physical free capacity otherwise.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        if self.is_schedulable() {
            self.capacity - self.occupancy()
        } else {
            0
        }
    }

    /// True when a new task can be queued.
    #[must_use]
    pub fn has_free_slot(&self) -> bool {
        self.free_slots() > 0
    }

    /// True when nothing is executing or pending.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.executing.is_none() && self.pending.is_empty()
    }

    /// Monotone version counter; any mutation bumps it. Heuristics use it
    /// to key robustness caches per machine.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Announced departure time, if a drain or failure of this machine has
    /// been pre-announced by the churn pipeline. Robustness-aware mappers
    /// clamp a task's deadline to this when scoring the machine: work that
    /// cannot finish before the departure contributes nothing.
    #[must_use]
    pub fn announced_departure(&self) -> Option<Time> {
        self.announced_departure
    }

    /// Warm containers (serverless cold-start model), in pin/refresh
    /// order. Always empty in the classic HC model.
    #[must_use]
    pub fn warm_containers(&self) -> &[WarmContainer] {
        &self.warm
    }

    /// True when a warm container for `tt` is resident — a placement of
    /// that function starting now would skip the container spin-up.
    /// Containers are removed *exactly* at their keep-alive expiry (by the
    /// engine's expiry events), so membership alone decides warmth.
    #[must_use]
    pub fn is_warm(&self, tt: TaskTypeId) -> bool {
        self.warm.iter().any(|c| c.type_id == tt)
    }

    /// Monotone counter of warm-set mutations. The scorer's tail cache
    /// keys on this *in addition to* [`MachineState::version`]: its
    /// longest-common-prefix head reuse deliberately ignores `version`,
    /// but a keep-alive expiry changes the cold/warm PET selection of
    /// otherwise-identical queue entries.
    #[must_use]
    pub fn warm_rev(&self) -> u64 {
        self.warm_rev
    }

    /// Whole queue from the head: the executing task (position 0, if any)
    /// followed by pending tasks. Matches the paper's queue-position κ
    /// numbering for the Eq. 7 threshold adjustment.
    pub fn queued_tasks(&self) -> impl Iterator<Item = &Task> {
        self.executing
            .as_ref()
            .map(|e| &e.task)
            .into_iter()
            .chain(self.pending.iter().map(|e| &e.task))
    }

    // ---- mutations (crate-internal: only the engine mutates machines) ----

    pub(crate) fn push_pending(&mut self, task: Task) {
        self.push_pending_carrying(task, 0);
    }

    /// Queues a task that resumes with salvaged progress (zero for a fresh
    /// task — the common case).
    pub(crate) fn push_pending_carrying(&mut self, task: Task, progress: Time) {
        debug_assert!(self.has_free_slot(), "push on full machine {}", self.id);
        self.pending.push_back(PendingEntry::carrying(task, progress));
        self.version += 1;
    }

    /// Records a departure announcement (or clears it with `None`). Bumps
    /// the version so scorer caches keyed on machine state re-score.
    pub(crate) fn set_announced_departure(&mut self, departs_at: Option<Time>) {
        if self.announced_departure != departs_at {
            self.announced_departure = departs_at;
            self.version += 1;
        }
    }

    pub(crate) fn pop_next_pending(&mut self) -> Option<PendingEntry> {
        let t = self.pending.pop_front();
        if t.is_some() {
            self.version += 1;
        }
        t
    }

    pub(crate) fn start(&mut self, entry: PendingEntry, now: Time, total_exec: Time) {
        self.start_with_warmth(entry, now, total_exec, false);
    }

    /// [`MachineState::start`] with an explicit cold-start flag (serverless
    /// model; the engine decides warmth from the warm-container set).
    pub(crate) fn start_with_warmth(
        &mut self,
        entry: PendingEntry,
        now: Time,
        total_exec: Time,
        cold_start: bool,
    ) {
        debug_assert!(self.executing.is_none(), "start on busy machine {}", self.id);
        self.executing = Some(ExecutingTask {
            task: entry.task,
            started_at: now,
            progress_before: entry.progress,
            cold_start,
            total_exec,
        });
        self.version += 1;
    }

    // ---- warm-container set (serverless cold-start model) ----

    /// Pins a warm container for `tt` as in-use (function starting); adds
    /// one if the start was cold.
    pub(crate) fn pin_warm(&mut self, tt: TaskTypeId) {
        match self.warm.iter_mut().find(|c| c.type_id == tt) {
            Some(c) => c.expires_at = WarmContainer::IN_USE,
            None => {
                self.warm.push(WarmContainer { type_id: tt, expires_at: WarmContainer::IN_USE })
            }
        }
        self.version += 1;
        self.warm_rev += 1;
    }

    /// (Re)starts `tt`'s keep-alive clock: the container expires at
    /// `expires_at` unless pinned or refreshed again first.
    pub(crate) fn set_warm_expiry(&mut self, tt: TaskTypeId, expires_at: Time) {
        match self.warm.iter_mut().find(|c| c.type_id == tt) {
            Some(c) => c.expires_at = expires_at,
            None => self.warm.push(WarmContainer { type_id: tt, expires_at }),
        }
        self.version += 1;
        self.warm_rev += 1;
    }

    /// Reclaims `tt`'s container iff its keep-alive deadline is exactly
    /// `at` — a stale expiry event (the container was re-pinned or its
    /// clock restarted since the event was scheduled) is a no-op. Returns
    /// whether the container was removed.
    pub(crate) fn expire_warm(&mut self, tt: TaskTypeId, at: Time) -> bool {
        let Some(pos) = self
            .warm
            .iter()
            .position(|c| c.type_id == tt && c.expires_at == at && at != WarmContainer::IN_USE)
        else {
            return false;
        };
        self.warm.remove(pos);
        self.version += 1;
        self.warm_rev += 1;
        true
    }

    /// Drops every warm container (machine leaving the cluster).
    pub(crate) fn clear_warm(&mut self) {
        if !self.warm.is_empty() {
            self.warm.clear();
            self.version += 1;
            self.warm_rev += 1;
        }
    }

    /// Preempts the executing task: it returns to the *front* of the
    /// pending queue with its accumulated progress, and the in-flight
    /// completion event is invalidated. Returns the duration of the
    /// interrupted segment (for busy-time accounting).
    pub(crate) fn preempt_executing(&mut self, now: Time) -> Option<Time> {
        let exec = self.executing.take()?;
        let segment = now.saturating_sub(exec.started_at);
        self.pending.push_front(PendingEntry {
            task: exec.task,
            progress: exec.progress_before + segment,
            sampled_total: Some(exec.total_exec),
            cold_start: exec.cold_start,
        });
        self.version += 1;
        self.run_token += 1; // stale the scheduled Finish event
        Some(segment)
    }

    pub(crate) fn finish_executing(&mut self) -> Option<ExecutingTask> {
        let e = self.executing.take();
        if e.is_some() {
            self.version += 1;
            self.run_token += 1;
        }
        e
    }

    /// Removes a pending task by id; returns it if present.
    pub(crate) fn remove_pending(&mut self, task_id: TaskId) -> Option<Task> {
        let pos = self.pending.iter().position(|e| e.task.id == task_id)?;
        let e = self.pending.remove(pos);
        self.version += 1;
        e.map(|e| e.task)
    }

    // ---- membership lifecycle (driven by churn events) ----

    /// Marks an offline machine for the initial membership of a run.
    /// Only valid before the machine has been touched (empty queue).
    pub(crate) fn set_initially_offline(&mut self) {
        debug_assert!(self.is_idle(), "initial membership set on a used machine");
        self.lifecycle = MachineLifecycle::Offline;
        self.version += 1;
    }

    /// `Join`: brings the machine (back) into the cluster with its queue
    /// empty. Returns false (no change) when already active. Re-activating
    /// a draining machine cancels the drain and keeps its queue.
    pub(crate) fn activate(&mut self) -> bool {
        if self.lifecycle == MachineLifecycle::Active {
            return false;
        }
        debug_assert!(
            self.lifecycle != MachineLifecycle::Offline || self.is_idle(),
            "offline machine {} must have an empty queue",
            self.id
        );
        self.lifecycle = MachineLifecycle::Active;
        self.announced_departure = None;
        // A (re)joining machine brings no warm containers with it.
        self.clear_warm();
        self.version += 1;
        true
    }

    /// `Drain`: the machine stops accepting work; an idle machine leaves
    /// immediately, a busy one finishes its queue first (see
    /// [`MachineState::try_complete_drain`]). Returns false when the
    /// machine is not active.
    pub(crate) fn begin_drain(&mut self) -> bool {
        if self.lifecycle != MachineLifecycle::Active {
            return false;
        }
        self.lifecycle =
            if self.is_idle() { MachineLifecycle::Offline } else { MachineLifecycle::Draining };
        if self.lifecycle == MachineLifecycle::Offline {
            self.clear_warm();
        }
        // The announcement has come true; non-members don't need it.
        self.announced_departure = None;
        self.version += 1;
        true
    }

    /// Completes a drain whose queue has run dry: Draining + idle →
    /// Offline. Returns whether the transition fired.
    pub(crate) fn try_complete_drain(&mut self) -> bool {
        if self.lifecycle == MachineLifecycle::Draining && self.is_idle() {
            self.lifecycle = MachineLifecycle::Offline;
            self.announced_departure = None;
            self.clear_warm();
            self.version += 1;
            true
        } else {
            false
        }
    }

    /// `Fail`: the machine leaves the cluster immediately. Every queued
    /// task (executing first, then pending in FCFS order) is pushed into
    /// `requeue` with the execution progress completed so far (the
    /// interrupted segment counts, at `now`); the in-flight completion
    /// event is invalidated via the run token. Whether the progress is
    /// honored on the next machine is the engine's call
    /// (`SimConfig::carry_progress`). Returns the interrupted executing
    /// task (for busy-time accounting), or `None` if the machine was
    /// already offline (no-op).
    pub(crate) fn fail(
        &mut self,
        now: Time,
        requeue: &mut Vec<(Task, Time)>,
    ) -> Option<ExecutingTask> {
        if self.lifecycle == MachineLifecycle::Offline {
            return None;
        }
        let exec = self.executing.take();
        if let Some(e) = &exec {
            requeue.push((e.task, e.elapsed_at(now)));
        }
        for entry in self.pending.drain(..) {
            requeue.push((entry.task, entry.progress));
        }
        self.lifecycle = MachineLifecycle::Offline;
        self.announced_departure = None;
        self.clear_warm();
        self.version += 1;
        self.run_token += 1; // stale any scheduled completion
        exec
    }

    /// Removes all pending tasks whose deadline has passed at `now`.
    pub(crate) fn drain_expired_pending(&mut self, now: Time, out: &mut Vec<Task>) {
        let before = self.pending.len();
        // VecDeque::retain preserves FCFS order of survivors.
        self.pending.retain(|e| {
            if e.task.is_expired_at(now) {
                out.push(e.task);
                false
            } else {
                true
            }
        });
        if self.pending.len() != before {
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::TaskTypeId;

    fn task(id: u32, deadline: Time) -> Task {
        Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline }
    }

    #[test]
    fn capacity_accounting() {
        let mut m = MachineState::new(MachineId(0), 3);
        assert!(m.is_idle());
        assert_eq!(m.free_slots(), 3);
        m.push_pending(task(1, 100));
        m.push_pending(task(2, 100));
        assert_eq!(m.occupancy(), 2);
        let first = m.pop_next_pending().unwrap();
        m.start(first, 10, 30);
        assert_eq!(m.occupancy(), 2); // 1 executing + 1 pending
        assert_eq!(m.free_slots(), 1);
        assert!(!m.is_idle());
        m.push_pending(task(3, 100));
        assert!(!m.has_free_slot());
    }

    #[test]
    fn fcfs_order_preserved() {
        let mut m = MachineState::new(MachineId(0), 4);
        for id in 1..=3 {
            m.push_pending(task(id, 100));
        }
        assert_eq!(m.pop_next_pending().unwrap().task.id, TaskId(1));
        assert_eq!(m.pop_next_pending().unwrap().task.id, TaskId(2));
        assert_eq!(m.pop_next_pending().unwrap().task.id, TaskId(3));
        assert!(m.pop_next_pending().is_none());
    }

    #[test]
    fn queued_tasks_includes_executing_head_first() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.push_pending(task(1, 100));
        m.push_pending(task(2, 100));
        let first = m.pop_next_pending().unwrap();
        m.start(first, 0, 30);
        let ids: Vec<u32> = m.queued_tasks().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut m = MachineState::new(MachineId(0), 4);
        let v0 = m.version();
        m.push_pending(task(1, 100));
        let v1 = m.version();
        assert!(v1 > v0);
        let t = m.pop_next_pending().unwrap();
        let v2 = m.version();
        assert!(v2 > v1);
        m.start(t, 0, 30);
        let v3 = m.version();
        assert!(v3 > v2);
        m.finish_executing();
        assert!(m.version() > v3);
    }

    #[test]
    fn finish_bumps_run_token() {
        let mut m = MachineState::new(MachineId(0), 2);
        m.start(PendingEntry::new(task(1, 100)), 0, 30);
        let tok = m.run_token;
        let done = m.finish_executing().unwrap();
        assert_eq!(done.task.id, TaskId(1));
        assert_eq!(done.started_at, 0);
        assert!(m.run_token > tok);
        assert!(m.finish_executing().is_none());
    }

    #[test]
    fn remove_pending_by_id() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.push_pending(task(1, 100));
        m.push_pending(task(2, 100));
        m.push_pending(task(3, 100));
        assert_eq!(m.remove_pending(TaskId(2)).unwrap().id, TaskId(2));
        assert!(m.remove_pending(TaskId(2)).is_none());
        let ids: Vec<u32> = m.pending().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn drain_expired_keeps_order() {
        let mut m = MachineState::new(MachineId(0), 6);
        m.push_pending(task(1, 50));
        m.push_pending(task(2, 200));
        m.push_pending(task(3, 60));
        m.push_pending(task(4, 300));
        let mut expired = Vec::new();
        m.drain_expired_pending(100, &mut expired);
        assert_eq!(expired.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(m.pending().map(|t| t.id.0).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn drain_expired_boundary_is_strict() {
        let mut m = MachineState::new(MachineId(0), 2);
        m.push_pending(task(1, 100));
        let mut expired = Vec::new();
        m.drain_expired_pending(100, &mut expired); // due exactly now: keep
        assert!(expired.is_empty());
        m.drain_expired_pending(101, &mut expired);
        assert_eq!(expired.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MachineState::new(MachineId(0), 0);
    }

    #[test]
    fn preempt_returns_task_to_front_with_progress() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.push_pending(task(1, 1000));
        m.push_pending(task(2, 1000));
        let first = m.pop_next_pending().unwrap();
        m.start(first, 100, 50); // total exec 50, started at 100
        let token = m.run_token;
        let segment = m.preempt_executing(130).unwrap();
        assert_eq!(segment, 30);
        assert!(m.executing().is_none());
        assert!(m.run_token > token, "in-flight finish event must be staled");
        let head = m.pending_entries().next().unwrap();
        assert_eq!(head.task.id, TaskId(1));
        assert_eq!(head.progress, 30);
        assert_eq!(head.sampled_total, Some(50));
        // FCFS order: preempted task resumes before task 2.
        let ids: Vec<u32> = m.pending().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn lifecycle_transitions_and_free_slots() {
        let mut m = MachineState::new(MachineId(0), 3);
        assert_eq!(m.lifecycle(), MachineLifecycle::Active);
        assert!(m.is_schedulable());
        m.push_pending(task(1, 100));
        let v = m.version();
        // Drain with work queued: Draining, no free slots for the mapper.
        assert!(m.begin_drain());
        assert_eq!(m.lifecycle(), MachineLifecycle::Draining);
        assert!(!m.is_schedulable());
        assert_eq!(m.free_slots(), 0, "draining machines refuse new work");
        assert!(!m.has_free_slot());
        assert!(m.version() > v);
        assert!(!m.begin_drain(), "drain is idempotent");
        // Queue still runs: starting the head is legal while draining.
        let entry = m.pop_next_pending().unwrap();
        m.start(entry, 0, 10);
        assert!(!m.try_complete_drain(), "still executing");
        m.finish_executing();
        assert!(m.try_complete_drain());
        assert_eq!(m.lifecycle(), MachineLifecycle::Offline);
        // Join brings it back with full capacity.
        assert!(m.activate());
        assert!(!m.activate(), "join is idempotent");
        assert_eq!(m.free_slots(), 3);
    }

    #[test]
    fn drain_of_idle_machine_goes_straight_offline() {
        let mut m = MachineState::new(MachineId(0), 2);
        assert!(m.begin_drain());
        assert_eq!(m.lifecycle(), MachineLifecycle::Offline);
    }

    #[test]
    fn fail_requeues_executing_then_pending_and_stales_completions() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.push_pending(task(1, 500));
        m.push_pending(task(2, 500));
        m.push_pending(task(3, 500));
        let head = m.pop_next_pending().unwrap();
        m.start(head, 10, 100);
        let token = m.run_token;
        let mut requeue = Vec::new();
        let exec = m.fail(40, &mut requeue).expect("machine was executing");
        assert_eq!(exec.task.id, TaskId(1));
        assert_eq!(exec.started_at, 10);
        assert_eq!(
            requeue.iter().map(|(t, p)| (t.id.0, *p)).collect::<Vec<_>>(),
            vec![(1, 30), (2, 0), (3, 0)],
            "executing first (with its interrupted segment), pending in FCFS order"
        );
        assert_eq!(m.lifecycle(), MachineLifecycle::Offline);
        assert!(m.is_idle());
        assert!(m.run_token > token, "in-flight completion must be staled");
        // Failing an offline machine is a no-op.
        let mut again = Vec::new();
        assert!(m.fail(40, &mut again).is_none());
        assert!(again.is_empty());
    }

    #[test]
    fn departure_announcement_bumps_version_and_clears_on_exit() {
        let mut m = MachineState::new(MachineId(0), 2);
        let v = m.version();
        m.set_announced_departure(Some(500));
        assert_eq!(m.announced_departure(), Some(500));
        assert!(m.version() > v);
        let v = m.version();
        m.set_announced_departure(Some(500));
        assert_eq!(m.version(), v, "idempotent announcement is version-neutral");
        let mut requeue = Vec::new();
        m.fail(10, &mut requeue);
        assert_eq!(m.announced_departure(), None, "cleared when the machine leaves");
        m.activate();
        m.set_announced_departure(Some(900));
        assert!(m.begin_drain());
        assert_eq!(m.lifecycle(), MachineLifecycle::Offline, "idle drain leaves immediately");
        assert_eq!(m.announced_departure(), None, "cleared once the drain fires");
    }

    #[test]
    fn initially_offline_machines_refuse_work_until_joined() {
        let mut m = MachineState::new(MachineId(0), 2);
        m.set_initially_offline();
        assert_eq!(m.lifecycle(), MachineLifecycle::Offline);
        assert_eq!(m.free_slots(), 0);
        assert!(m.activate());
        assert!(m.has_free_slot());
    }

    #[test]
    fn preempt_idle_machine_is_none() {
        let mut m = MachineState::new(MachineId(0), 4);
        assert!(m.preempt_executing(10).is_none());
    }

    #[test]
    fn elapsed_accumulates_across_segments() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.push_pending(task(1, 1000));
        let e = m.pop_next_pending().unwrap();
        m.start(e, 0, 100);
        m.preempt_executing(40);
        let resumed = m.pop_next_pending().unwrap();
        assert_eq!(resumed.progress, 40);
        m.start(resumed, 70, 100);
        let exec = m.executing().unwrap();
        assert_eq!(exec.progress_before, 40);
        assert_eq!(exec.elapsed_at(90), 60); // 40 earlier + 20 current
    }

    #[test]
    fn warm_set_pin_expire_lifecycle() {
        let mut m = MachineState::new(MachineId(0), 4);
        let tt = TaskTypeId(3);
        assert!(!m.is_warm(tt));
        m.pin_warm(tt);
        assert!(m.is_warm(tt));
        // A pinned container never expires.
        assert!(!m.expire_warm(tt, WarmContainer::IN_USE));
        m.set_warm_expiry(tt, 500);
        assert!(m.is_warm(tt));
        // A stale expiry (wrong timestamp) is a no-op.
        assert!(!m.expire_warm(tt, 400));
        assert!(m.is_warm(tt));
        assert!(m.expire_warm(tt, 500));
        assert!(!m.is_warm(tt));
    }

    #[test]
    fn warm_rev_bumps_on_every_warm_mutation() {
        let mut m = MachineState::new(MachineId(0), 4);
        let tt = TaskTypeId(0);
        let r0 = m.warm_rev();
        m.pin_warm(tt);
        let r1 = m.warm_rev();
        assert_ne!(r0, r1);
        m.set_warm_expiry(tt, 100);
        let r2 = m.warm_rev();
        assert_ne!(r1, r2);
        assert!(m.expire_warm(tt, 100));
        assert_ne!(r2, m.warm_rev());
        // Clearing an already-empty set is a no-op (no spurious bumps).
        let r3 = m.warm_rev();
        m.clear_warm();
        assert_eq!(r3, m.warm_rev());
    }

    #[test]
    fn churn_transitions_clear_warm_containers() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.set_warm_expiry(TaskTypeId(1), 800);
        let mut requeue = Vec::new();
        m.fail(10, &mut requeue);
        assert!(m.warm_containers().is_empty(), "failure loses all containers");
        m.activate();
        assert!(m.warm_containers().is_empty(), "rejoin starts cold");
        m.set_warm_expiry(TaskTypeId(1), 900);
        assert!(m.begin_drain());
        assert!(m.warm_containers().is_empty(), "idle drain releases containers");
    }

    #[test]
    fn preemption_preserves_cold_start_flag() {
        let mut m = MachineState::new(MachineId(0), 4);
        m.push_pending(task(1, 1000));
        let mut e = m.pop_next_pending().unwrap();
        e.cold_start = true;
        m.start_with_warmth(e, 0, 100, true);
        assert!(m.executing().unwrap().cold_start);
        m.preempt_executing(40);
        let resumed = m.pop_next_pending().unwrap();
        assert!(resumed.cold_start, "spin-up already paid; carried through preemption");
    }
}
