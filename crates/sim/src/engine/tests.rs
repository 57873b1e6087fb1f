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
fn requeued_task_lowers_the_batch_bound() {
    // One machine (capacity 1). Task 0 starts at 0 and runs past its
    // deadline 5; task 1 (deadline 2) waits in the batch until task 2's
    // arrival at 3 culls it, which re-tightens the batch bound to task
    // 2's deadline 1000. The failure at 4 requeues task 0 behind it: the
    // bound must drop to 5 again, so the sweep at 6 culls it unmapped.
    let spec = small_spec(1);
    let task = |id: u32, arrival: Time, deadline: Time| Task {
        id: TaskId(id),
        type_id: TaskTypeId(0),
        arrival,
        deadline,
    };
    let tasks = [task(0, 0, 5), task(1, 0, 2), task(2, 3, 1_000)];
    let churn = ChurnTrace {
        initially_offline: vec![MachineId(1)],
        events: vec![ChurnEvent { time: 4, machine: MachineId(0), kind: ChurnKind::Fail }],
    };
    let report = churn_run(&spec, &tasks, &churn, 25);
    assert_eq!(report.churn.requeued, 1, "{:?}", report.churn);
    let expired: Vec<(Option<MachineId>, Time)> = report
        .records
        .iter()
        .map(|r| {
            assert_eq!(r.outcome, TaskOutcome::ExpiredUnstarted, "{r:?}");
            (r.machine, r.finished_at)
        })
        .collect();
    assert_eq!(expired, [(None, 6), (None, 3), (None, 1_001)]);
}

#[test]
fn drained_machine_finishes_queue_but_takes_no_new_work() {
    let spec = small_spec(6);
    let tasks = tasks_every(6, 4, 2_000);
    let churn = ChurnTrace {
        initially_offline: vec![],
        events: vec![ChurnEvent { time: 2, machine: MachineId(0), kind: ChurnKind::Drain }],
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
    // traces included), so a bad machine id must fail with a
    // clear message at emit time, not an index panic mid-run.
    let spec = small_spec(2);
    let tasks = tasks_every(1, 0, 100);
    let churn = ChurnTrace {
        initially_offline: vec![],
        events: vec![ChurnEvent { time: 5, machine: MachineId(9), kind: ChurnKind::Fail }],
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
    };
    let mut rng = SeedSequence::new(30).stream(9);
    let mut mapper = FirstFitMapper;
    let config = SimConfig { trim: 0, max_requeues: Some(0), ..SimConfig::default() };
    let report = run_simulation_with_churn(&spec, config, &tasks, &churn, &mut mapper, &mut rng);
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
    };
    let mut rng = SeedSequence::new(31).stream(9);
    let mut mapper = FirstFitMapper;
    let config = SimConfig { trim: 0, max_requeues: Some(1), ..SimConfig::default() };
    let report = run_simulation_with_churn(&spec, config, &tasks, &churn, &mut mapper, &mut rng);
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
    };
    let baseline = churn_run(&spec, &tasks, &churn, 22);
    let mut rng = SeedSequence::new(22).stream(9);
    let mut mapper = FirstFitMapper;
    let config = SimConfig { trim: 0, max_requeues: None, ..SimConfig::default() };
    let explicit = run_simulation_with_churn(&spec, config, &tasks, &churn, &mut mapper, &mut rng);
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
    let session =
        SimSession::new(&spec, SimConfig::untrimmed(), &mut [&mut source], &mut mapper, &mut rng);
    let bytes = session.snapshot();
    drop(session);

    let other = small_spec(2); // different queue capacity
    let mut mapper2 = FirstFitMapper;
    let mut rng2 = SeedSequence::new(1).stream(0);
    let err = SimSession::restore(&other, SimConfig::untrimmed(), &bytes, &mut mapper2, &mut rng2)
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
    let finished = session.engine.records.iter().flatten().next().expect("a task finished").task;
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
    assert_eq!(restore_error(&spec, &duplicated), SnapshotError::Corrupt("duplicate event seq"));
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
    let mut session =
        SimSession::new(&spec, SimConfig::untrimmed(), &mut [&mut source], &mut mapper, &mut rng);
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
