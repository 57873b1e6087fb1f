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
    m.start(first, 10, 30, false);
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
    assert_eq!(m.pop_next_pending().unwrap().id, TaskId(1));
    assert_eq!(m.pop_next_pending().unwrap().id, TaskId(2));
    assert_eq!(m.pop_next_pending().unwrap().id, TaskId(3));
    assert!(m.pop_next_pending().is_none());
}

#[test]
fn queued_tasks_includes_executing_head_first() {
    let mut m = MachineState::new(MachineId(0), 4);
    m.push_pending(task(1, 100));
    m.push_pending(task(2, 100));
    let first = m.pop_next_pending().unwrap();
    m.start(first, 0, 30, false);
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
    m.start(t, 0, 30, false);
    let v3 = m.version();
    assert!(v3 > v2);
    m.finish_executing();
    assert!(m.version() > v3);
}

#[test]
fn finish_bumps_run_token() {
    let mut m = MachineState::new(MachineId(0), 2);
    m.start(task(1, 100), 0, 30, false);
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
    m.start(entry, 0, 10, false);
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
    m.start(head, 10, 100, false);
    let token = m.run_token;
    let mut requeue = Vec::new();
    let exec = m.fail(&mut requeue).expect("machine was executing");
    assert_eq!(exec.task.id, TaskId(1));
    assert_eq!(exec.started_at, 10);
    assert_eq!(
        requeue.iter().map(|t| t.id.0).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "executing first, pending in FCFS order"
    );
    assert_eq!(m.lifecycle(), MachineLifecycle::Offline);
    assert!(m.is_idle());
    assert!(m.run_token > token, "in-flight completion must be staled");
    // Failing an offline machine is a no-op.
    let mut again = Vec::new();
    assert!(m.fail(&mut again).is_none());
    assert!(again.is_empty());
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
    m.fail(&mut requeue);
    assert!(m.warm_containers().is_empty(), "failure loses all containers");
    m.activate();
    assert!(m.warm_containers().is_empty(), "rejoin starts cold");
    m.set_warm_expiry(TaskTypeId(1), 900);
    assert!(m.begin_drain());
    assert!(m.warm_containers().is_empty(), "idle drain releases containers");
}
