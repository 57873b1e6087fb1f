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
    /// When the task started.
    pub started_at: Time,
    /// Whether this execution began with a container spin-up (serverless
    /// cold-start model; always `false` in the classic HC model). Unlike
    /// the sampled total, warmth is observable — the scheduler knew it at
    /// placement time — so the scorer may condition on it.
    pub cold_start: bool,
    /// Ground-truth total execution time (hidden from mappers).
    pub(crate) total_exec: Time,
}

impl ExecutingTask {
    /// Execution time completed by `now`.
    #[must_use]
    pub fn elapsed_at(&self, now: Time) -> Time {
        now.saturating_sub(self.started_at)
    }
}

/// One machine's queue: the executing task plus pending FCFS entries.
#[derive(Debug)]
pub struct MachineState {
    id: MachineId,
    capacity: usize,
    executing: Option<ExecutingTask>,
    pending: VecDeque<Task>,
    /// Cluster-membership state; only [`MachineLifecycle::Active`]
    /// machines are schedulable.
    lifecycle: MachineLifecycle,
    /// Bumped on every mutation; robustness caches key on this.
    version: u64,
    /// Invalidates in-flight completion events after an eviction.
    pub(crate) run_token: u64,
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
    executing: Option<ExecutingTask>,
    pending: VecDeque<Task>,
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
        self.executing.as_ref().map(|e| &e.task).into_iter().chain(&self.pending)
    }

    // ---- mutations (crate-internal: only the engine mutates machines) ----

    pub(crate) fn push_pending(&mut self, task: Task) {
        debug_assert!(self.has_free_slot(), "push on full machine {}", self.id);
        self.pending.push_back(task);
        self.version += 1;
    }

    pub(crate) fn pop_next_pending(&mut self) -> Option<Task> {
        let t = self.pending.pop_front();
        if t.is_some() {
            self.version += 1;
        }
        t
    }

    /// Starts `task`; `cold_start` is the serverless model's warmth, which
    /// the engine decides from the warm-container set (always `false` in
    /// the classic model).
    pub(crate) fn start(&mut self, task: Task, now: Time, total_exec: Time, cold_start: bool) {
        debug_assert!(self.executing.is_none(), "start on busy machine {}", self.id);
        self.executing = Some(ExecutingTask { task, started_at: now, cold_start, total_exec });
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
        let pos = self.pending.iter().position(|t| t.id == task_id)?;
        let task = self.pending.remove(pos);
        self.version += 1;
        task
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
    /// a draining machine cancels the drain and keeps its queue and its
    /// warm containers (an offline machine lost its own when it left).
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
        self.version += 1;
        true
    }

    /// Completes a drain whose queue has run dry: Draining + idle →
    /// Offline. Returns whether the transition fired.
    pub(crate) fn try_complete_drain(&mut self) -> bool {
        if self.lifecycle == MachineLifecycle::Draining && self.is_idle() {
            self.lifecycle = MachineLifecycle::Offline;
            self.clear_warm();
            self.version += 1;
            true
        } else {
            false
        }
    }

    /// `Fail`: the machine leaves the cluster immediately. Every queued
    /// task (executing first, then pending in FCFS order) is pushed into
    /// `requeue`, to start over on its next machine; the in-flight
    /// completion event is invalidated via the run token. Returns the
    /// interrupted executing task (for busy-time accounting), or `None`
    /// if the machine was already offline (no-op).
    pub(crate) fn fail(&mut self, requeue: &mut Vec<Task>) -> Option<ExecutingTask> {
        if self.lifecycle == MachineLifecycle::Offline {
            return None;
        }
        let exec = self.executing.take();
        requeue.extend(exec.map(|e| e.task));
        requeue.extend(self.pending.drain(..));
        self.lifecycle = MachineLifecycle::Offline;
        self.clear_warm();
        self.version += 1;
        self.run_token += 1; // stale any scheduled completion
        exec
    }

    /// Removes all pending tasks whose deadline has passed at `now`.
    pub(crate) fn drain_expired_pending(&mut self, now: Time, out: &mut Vec<Task>) {
        let before = self.pending.len();
        // VecDeque::retain preserves FCFS order of survivors.
        self.pending.retain(|t| {
            if t.is_expired_at(now) {
                out.push(*t);
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
mod tests;
