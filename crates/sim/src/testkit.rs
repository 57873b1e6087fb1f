//! Deterministic construction and mutation of [`MachineState`] outside the
//! engine — for benchmarks and property tests that need arbitrary queue
//! states without driving a full simulation.
//!
//! The engine remains the only *production* mutator of machine state: the
//! mutating methods on [`MachineState`] stay crate-private so mappers can
//! never bypass [`crate::MapContext`]. This module re-exposes the same
//! transitions behind an explicit test/bench surface, so downstream crates
//! (the scorer's incremental tail cache, the bench harness) can replay
//! event sequences and check invariants against a from-scratch analysis.
//!
//! Every operation is *total*: instead of panicking on an illegal
//! transition it reports whether it applied, which lets property tests
//! feed arbitrary operation sequences without pre-filtering.

use crate::machine::MachineState;
use hcsim_model::{Task, TaskId, TaskTypeId, Time};

pub use crate::engine::StepChecker;

/// One queue transition, mirroring the engine's machine mutations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueOp {
    /// Append a task to the pending queue (engine: mapper `assign`).
    Push(Task),
    /// Start the queue head executing with the given ground-truth total
    /// execution time (engine: `start_idle_machines`).
    StartNext {
        /// Current simulation time.
        now: Time,
        /// Sampled total execution time.
        total_exec: Time,
    },
    /// Complete (or evict) the executing task (engine: `Finish` event /
    /// pruner eviction).
    FinishExecuting,
    /// Remove a pending task by id (engine: pruner `drop_pending`).
    RemovePending(TaskId),
    /// Drop every pending task whose deadline has passed (engine:
    /// `drain_expired_pending`).
    DrainExpired {
        /// Current simulation time.
        now: Time,
    },
    /// Bring the machine online with an empty queue (engine:
    /// `MachineJoin`).
    Join,
    /// Stop accepting work; leave once the queue drains (engine:
    /// `MachineDrain` + the automatic drain completion).
    BeginDrain,
    /// Remove the machine immediately, discarding its queue (engine:
    /// `MachineFail`; the engine re-queues the discarded tasks, this op
    /// drops them).
    Fail,
}

/// Applies `op` to `machine`; returns whether the transition was legal and
/// therefore applied. Illegal transitions (start on a busy machine, push on
/// a full queue, …) leave the state untouched and return `false`.
pub fn apply(machine: &mut MachineState, op: QueueOp) -> bool {
    match op {
        QueueOp::Push(task) => {
            if !machine.has_free_slot() {
                return false;
            }
            machine.push_pending(task);
            true
        }
        QueueOp::StartNext { now, total_exec } => start_next(machine, now, total_exec, false),
        QueueOp::FinishExecuting => machine.finish_executing().is_some(),
        QueueOp::RemovePending(id) => machine.remove_pending(id).is_some(),
        QueueOp::DrainExpired { now } => {
            let mut out = Vec::new();
            machine.drain_expired_pending(now, &mut out);
            !out.is_empty()
        }
        QueueOp::Join => machine.activate(),
        QueueOp::BeginDrain => {
            let applied = machine.begin_drain();
            machine.try_complete_drain();
            applied
        }
        QueueOp::Fail => {
            let was_member = machine.lifecycle() != crate::MachineLifecycle::Offline;
            let mut dropped = Vec::new();
            let _ = machine.fail(&mut dropped);
            was_member
        }
    }
}

/// [`QueueOp::StartNext`] with an explicit cold-start flag: the engine
/// starts a function cold when the machine holds no warm container for it
/// (serverless model), and the scorer then conditions the head on the
/// cold PET cell. Returns `false` when the machine is busy or has nothing
/// pending.
pub fn start_next(
    machine: &mut MachineState,
    now: Time,
    total_exec: Time,
    cold_start: bool,
) -> bool {
    if machine.executing().is_some() {
        return false;
    }
    match machine.pop_next_pending() {
        Some(task) => {
            machine.start(task, now, total_exec.max(1), cold_start);
            true
        }
        None => false,
    }
}

/// Builds a machine with `tasks` already pending (in order), without an
/// executing task — the common fixture for tail-cache benchmarks.
///
/// # Panics
///
/// Panics if `tasks.len()` exceeds `capacity`.
#[must_use]
pub fn machine_with_pending(
    id: hcsim_model::MachineId,
    capacity: usize,
    tasks: &[Task],
) -> MachineState {
    assert!(tasks.len() <= capacity, "{} tasks exceed capacity {capacity}", tasks.len());
    let mut m = MachineState::new(id, capacity);
    for &t in tasks {
        m.push_pending(t);
    }
    m
}

/// (Re)starts a keep-alive clock for `tt` on `machine`, exactly as the
/// engine does when a function's container is released at completion
/// (serverless cold-start model): the container stays warm until
/// `expires_at` unless refreshed or pinned first.
pub fn set_warm(machine: &mut MachineState, tt: TaskTypeId, expires_at: Time) {
    machine.set_warm_expiry(tt, expires_at);
}

/// Reclaims `tt`'s warm container exactly as the engine's
/// `ContainerExpiry` event does — a stale deadline (container re-pinned
/// or refreshed since the event was scheduled) is a no-op. Returns
/// whether the container was removed.
pub fn expire_warm(machine: &mut MachineState, tt: TaskTypeId, at: Time) -> bool {
    machine.expire_warm(tt, at)
}

/// Starts `entry`-style execution directly (bypassing the pending queue):
/// pushes `task`, starts it at `now` with `total_exec`. Returns `false`
/// when the machine is already executing or full.
pub fn start_executing(
    machine: &mut MachineState,
    task: Task,
    now: Time,
    total_exec: Time,
) -> bool {
    if machine.executing().is_some() || !machine.has_free_slot() {
        return false;
    }
    machine.start(task, now, total_exec.max(1), false);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{MachineId, TaskTypeId};

    fn task(id: u32, deadline: Time) -> Task {
        Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline }
    }

    #[test]
    fn ops_mirror_engine_transitions() {
        let mut m = MachineState::new(MachineId(0), 3);
        assert!(apply(&mut m, QueueOp::Push(task(1, 100))));
        assert!(apply(&mut m, QueueOp::Push(task(2, 100))));
        assert!(apply(&mut m, QueueOp::Push(task(3, 100))));
        assert!(!apply(&mut m, QueueOp::Push(task(4, 100))), "full queue rejects");
        assert!(apply(&mut m, QueueOp::StartNext { now: 0, total_exec: 50 }));
        assert!(!apply(&mut m, QueueOp::StartNext { now: 0, total_exec: 50 }), "busy rejects");
        assert!(apply(&mut m, QueueOp::FinishExecuting));
        assert!(!apply(&mut m, QueueOp::FinishExecuting));
        assert!(apply(&mut m, QueueOp::RemovePending(TaskId(2))));
        assert!(!apply(&mut m, QueueOp::RemovePending(TaskId(2))));
        assert!(!apply(&mut m, QueueOp::DrainExpired { now: 0 }));
        assert!(apply(&mut m, QueueOp::DrainExpired { now: 1_000 }));
        assert!(m.is_idle());
    }

    #[test]
    fn lifecycle_ops_mirror_churn_events() {
        let mut m = MachineState::new(MachineId(0), 3);
        assert!(!apply(&mut m, QueueOp::Join), "already active");
        assert!(apply(&mut m, QueueOp::Push(task(1, 100))));
        assert!(apply(&mut m, QueueOp::BeginDrain));
        assert_eq!(m.lifecycle(), crate::MachineLifecycle::Draining);
        assert!(!apply(&mut m, QueueOp::Push(task(2, 100))), "draining refuses work");
        assert!(apply(&mut m, QueueOp::Fail));
        assert_eq!(m.lifecycle(), crate::MachineLifecycle::Offline);
        assert!(m.is_idle());
        assert!(!apply(&mut m, QueueOp::Fail), "already offline");
        assert!(apply(&mut m, QueueOp::Join));
        assert!(m.is_schedulable());
    }

    #[test]
    fn fixture_builders() {
        let tasks: Vec<Task> = (0..4).map(|i| task(i, 500)).collect();
        let mut m = machine_with_pending(MachineId(1), 6, &tasks);
        assert_eq!(m.occupancy(), 4);
        assert_eq!(m.pending().last().unwrap().id, TaskId(3));
        assert!(start_executing(&mut m, task(100, 900), 5, 40));
        assert!(!start_executing(&mut m, task(101, 900), 5, 40));
        assert_eq!(m.executing().unwrap().task.id, TaskId(100));
    }
}
