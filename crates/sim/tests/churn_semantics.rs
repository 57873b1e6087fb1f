//! Machine-failure task-requeue semantics, end to end through the event
//! pipeline.
//!
//! The contract under test (ISSUE: dynamic cluster membership):
//!
//! * pending **and** executing tasks on a failed machine re-enter the
//!   batch queue **exactly once** per failure, in FCFS order with the
//!   executing task first;
//! * their deadlines are unchanged by the requeue;
//! * no duplicate terminal records exist — the stale completion event of
//!   an interrupted task is a no-op, and every task terminates exactly
//!   once even across repeated failures;
//! * drained machines finish their queues without accepting new work and
//!   can later re-join;
//! * epoch slices partition the terminal records.
//!
//! Every run steps through a [`SimSession`] with the engine's
//! [`StepChecker`] checking its invariants after each step.

use hcsim_model::{
    ChurnEvent, ChurnKind, ChurnTrace, MachineId, MachineSpec, PetBuilder, PriceTable, SystemSpec,
    Task, TaskId, TaskOutcome, TaskTypeId, TaskTypeSpec, Time,
};
use hcsim_sim::testkit::StepChecker;
use hcsim_sim::{
    ChurnSource, FirstFitMapper, MapContext, Mapper, SimConfig, SimReport, SimSession,
    TaskTraceSource,
};
use hcsim_stats::SeedSequence;

/// 1 task type, 2 near-deterministic machines (≈10 ms / ≈20 ms).
fn two_machine_spec(queue_capacity: usize) -> SystemSpec {
    let mut rng = SeedSequence::new(77).stream(0);
    let (pet, truth) =
        PetBuilder::new().shape_range(200.0, 200.0).build(&[vec![10.0, 20.0]], &mut rng);
    SystemSpec {
        machines: vec![MachineSpec { name: "fast".into() }, MachineSpec { name: "slow".into() }],
        task_types: vec![TaskTypeSpec { name: "t".into() }],
        pet,
        truth,
        prices: PriceTable::new(vec![2.0, 1.0]),
        queue_capacity,
        coldstart: None,
    }
    .validated()
}

fn tasks_at_zero(n: usize, slack: Time) -> Vec<Task> {
    (0..n)
        .map(|i| Task { id: TaskId(i as u32), type_id: TaskTypeId(0), arrival: 0, deadline: slack })
        .collect()
}

/// FirstFit wrapped with a per-event snapshot of the batch queue taken
/// *before* any assignment, so requeued tasks are observable.
#[derive(Default)]
struct BatchWatcher {
    inner: FirstFitMapper,
    snapshots: Vec<(Time, Vec<u32>)>,
}

impl Mapper for BatchWatcher {
    fn name(&self) -> &str {
        "batch-watcher"
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        self.snapshots.push((ctx.now(), ctx.batch().iter().map(|t| t.id.0).collect()));
        self.inner.on_mapping_event(ctx);
    }
}

fn run_with_watcher(
    spec: &SystemSpec,
    tasks: &[Task],
    churn: &ChurnTrace,
    seed: u64,
) -> (SimReport, Vec<(Time, Vec<u32>)>) {
    churn.validate(spec.num_machines());
    let mut mapper = BatchWatcher::default();
    let mut rng = SeedSequence::new(seed).stream(9);
    let mut task_source = TaskTraceSource::new(tasks);
    let mut churn_source = ChurnSource::new(churn);
    let mut session = SimSession::new(
        spec,
        SimConfig::untrimmed(),
        &mut [&mut task_source, &mut churn_source],
        &mut mapper,
        &mut rng,
    );
    let mut checker = StepChecker::new();
    while session.step() {
        checker.check(&session);
    }
    let report = session.finish();
    (report, mapper.snapshots)
}

fn fail_at(time: Time, machine: u16) -> ChurnEvent {
    ChurnEvent { time, machine: MachineId(machine), kind: ChurnKind::Fail }
}

#[test]
fn failed_machine_requeues_pending_and_executing_exactly_once() {
    let spec = two_machine_spec(6);
    // Three tasks at t=0: FirstFit queues all on machine 0 (task 0
    // executing, 1–2 pending). Machine 0 fails at t=5.
    let tasks = tasks_at_zero(3, 500);
    let churn = ChurnTrace { initially_offline: vec![], events: vec![fail_at(5, 0)] };
    let (report, snapshots) = run_with_watcher(&spec, &tasks, &churn, 1);

    // The mapping event fired by the failure sees all three tasks back in
    // the batch, executing head first, each exactly once.
    let at_fail = snapshots.iter().find(|(t, _)| *t == 5).expect("fail event fired");
    assert_eq!(at_fail.1, vec![0, 1, 2], "requeue order: executing first, pending FCFS");

    // No snapshot ever contains a duplicate id (exactly-once requeue).
    for (t, ids) in &snapshots {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate batch entry at t={t}: {ids:?}");
    }

    assert_eq!(report.churn.requeued, 3);
    // All three finish on the surviving machine, on time.
    assert_eq!(report.metrics.outcomes.on_time, 3, "{:?}", report.metrics.outcomes);
    for r in &report.records {
        assert_eq!(r.machine, Some(MachineId(1)), "{r:?}");
        assert!(r.started_at.unwrap() >= 5, "restarted after the failure: {r:?}");
    }
}

#[test]
fn requeued_tasks_keep_their_deadlines() {
    let spec = two_machine_spec(6);
    let tasks: Vec<Task> = (0..4)
        .map(|i| Task {
            id: TaskId(i),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: 400 + u64::from(i) * 13, // distinct, recognizable
        })
        .collect();
    let churn = ChurnTrace { initially_offline: vec![], events: vec![fail_at(6, 0)] };
    let (report, _) = run_with_watcher(&spec, &tasks, &churn, 2);
    for (original, rec) in tasks.iter().zip(&report.records) {
        assert_eq!(rec.task, *original, "requeue must not alter the task (deadline included)");
    }
}

#[test]
fn interrupted_completion_event_is_stale_and_records_stay_unique() {
    let spec = two_machine_spec(6);
    let tasks = tasks_at_zero(3, 500);
    // Fail machine 0 at t=5, mid-execution of task 0 (≈10 ms exec): the
    // completion event scheduled for ≈t=10 must be a no-op.
    let churn = ChurnTrace { initially_offline: vec![], events: vec![fail_at(5, 0)] };
    let (report, _) = run_with_watcher(&spec, &tasks, &churn, 3);
    assert_eq!(report.records.len(), 3);
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.task.id.index(), i, "records stay id-ordered and unique");
    }
    assert_eq!(report.metrics.outcomes.total(), 3);
    assert_eq!(report.metrics.outcomes.unfinished, 0);
    // The interrupted task did not "complete" at its original finish time
    // on the failed machine.
    let r0 = &report.records[0];
    assert_eq!(r0.machine, Some(MachineId(1)));
    assert_eq!(r0.outcome, TaskOutcome::CompletedOnTime);
}

#[test]
fn repeated_failures_requeue_again_but_record_once() {
    let spec = two_machine_spec(6);
    let tasks = tasks_at_zero(3, 2_000);
    // Machine 0 fails at t=5 (3 tasks requeue to machine 1); machine 1
    // fails at t=30 (its remaining queue requeues); machine 0 re-joins at
    // t=35 and finishes the survivors.
    let churn = ChurnTrace {
        initially_offline: vec![],
        events: vec![
            fail_at(5, 0),
            ChurnEvent { time: 30, machine: MachineId(1), kind: ChurnKind::Fail },
            ChurnEvent { time: 35, machine: MachineId(0), kind: ChurnKind::Join },
        ],
    };
    let (report, _) = run_with_watcher(&spec, &tasks, &churn, 4);
    assert_eq!(report.churn.fails, 2);
    assert_eq!(report.churn.joins, 1);
    // First failure requeues 3; second requeues whatever was still queued
    // on machine 1 (at least one task: ≈20 ms exec each, failed at 30).
    assert!(report.churn.requeued > 3, "{:?}", report.churn);
    assert_eq!(report.records.len(), 3, "every task has exactly one record");
    assert_eq!(report.metrics.outcomes.total(), 3);
    assert_eq!(report.metrics.outcomes.unfinished, 0);
    assert_eq!(report.metrics.outcomes.on_time, 3, "{:?}", report.metrics.outcomes);
}

#[test]
fn expired_requeued_task_is_culled_not_restarted() {
    let spec = two_machine_spec(6);
    // Task 1 (pending behind task 0 on machine 0) has a deadline of 8;
    // the failure at t=9 requeues it already expired — it must be culled
    // by the following mapping event, never started on machine 1.
    let tasks = vec![
        Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 500 },
        Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 0, deadline: 8 },
    ];
    let churn = ChurnTrace { initially_offline: vec![], events: vec![fail_at(9, 0)] };
    let (report, _) = run_with_watcher(&spec, &tasks, &churn, 5);
    let r1 = &report.records[1];
    assert_eq!(r1.outcome, TaskOutcome::ExpiredUnstarted, "{r1:?}");
    assert_eq!(r1.finished_at, 9, "culled by the failure's own mapping event");
    assert_eq!(report.records[0].outcome, TaskOutcome::CompletedOnTime);
}

#[test]
fn drain_completes_queue_then_leaves_and_can_rejoin() {
    let spec = two_machine_spec(6);
    let mut tasks = tasks_at_zero(2, 2_000);
    // A third task arrives while machine 0 drains, and a fourth after it
    // re-joins.
    tasks.push(Task { id: TaskId(2), type_id: TaskTypeId(0), arrival: 10, deadline: 2_000 });
    tasks.push(Task { id: TaskId(3), type_id: TaskTypeId(0), arrival: 100, deadline: 2_000 });
    let churn = ChurnTrace {
        initially_offline: vec![],
        events: vec![
            ChurnEvent { time: 2, machine: MachineId(0), kind: ChurnKind::Drain },
            ChurnEvent { time: 80, machine: MachineId(0), kind: ChurnKind::Join },
        ],
    };
    let (report, _) = run_with_watcher(&spec, &tasks, &churn, 6);
    assert_eq!(report.churn.drains, 1);
    assert_eq!(report.churn.joins, 1);
    assert_eq!(report.churn.requeued, 0, "drains never requeue");
    assert_eq!(report.metrics.outcomes.on_time, 4, "{:?}", report.metrics.outcomes);
    // Tasks 0–1 (mapped before the drain) finish on machine 0; task 2
    // (arriving mid-drain) must go to machine 1; task 3 (after the
    // re-join) lands on machine 0 again (FirstFit prefers low index).
    assert_eq!(report.records[0].machine, Some(MachineId(0)));
    assert_eq!(report.records[1].machine, Some(MachineId(0)));
    assert_eq!(report.records[2].machine, Some(MachineId(1)));
    assert_eq!(report.records[3].machine, Some(MachineId(0)));
}

#[test]
fn epoch_slices_partition_the_records() {
    let spec = two_machine_spec(4);
    let tasks: Vec<Task> = (0..10)
        .map(|i| Task {
            id: TaskId(i),
            type_id: TaskTypeId(0),
            arrival: u64::from(i) * 8,
            deadline: u64::from(i) * 8 + 120,
        })
        .collect();
    let churn = ChurnTrace {
        initially_offline: vec![MachineId(1)],
        events: vec![
            ChurnEvent { time: 20, machine: MachineId(1), kind: ChurnKind::Join },
            fail_at(50, 0),
        ],
    };
    let (report, _) = run_with_watcher(&spec, &tasks, &churn, 7);
    // 1 active → 2 active → 1 active: three slices, boundaries at the
    // events, finished counts summing to the record count.
    assert_eq!(report.epochs.len(), 3);
    assert_eq!(report.epochs[0].active_machines, 1);
    assert_eq!(report.epochs[1].active_machines, 2);
    assert_eq!(report.epochs[1].start, 20);
    assert_eq!(report.epochs[2].active_machines, 1);
    assert_eq!(report.epochs[2].start, 50);
    let sliced: usize = report.epochs.iter().map(|e| e.finished).sum();
    assert_eq!(sliced, report.records.len());
    let on_time: usize = report.epochs.iter().map(|e| e.on_time).sum();
    assert_eq!(on_time, report.metrics.outcomes.on_time);
}
