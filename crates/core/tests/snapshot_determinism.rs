//! Snapshot/restore bit-identity across execution modes.
//!
//! The engine's checkpoint contract is that a snapshot taken at *any*
//! inter-event boundary, restored into a freshly built mapper and RNG,
//! resumes the run **bit-identically** — the restored run's `SimReport`
//! equals the uninterrupted run's byte for byte. These tests prove the
//! contract on whole churn-scale simulations (PAM with pruner, fairness
//! off, joins/drains/fails mid-run) at a proptest-chosen snapshot step,
//! and on MOC whose mapper blob is empty by design.
//!
//! Execution-mode coverage mirrors `parallel_determinism.rs`: every trial
//! runs sequentially *and* on the worker pool (`HCSIM_TEST_THREADS`
//! wide), so the snapshot/restore path is swept in both execution modes.
//! The pooled one is the interesting one: a snapshot must not depend on
//! which worker owns which scorer cell, and a restore rebuilds the pool
//! cold.
//!
//! Every trial steps its sessions one event at a time with the engine's
//! `StepChecker` checking its invariants after each step, before the
//! snapshot and after the restore.
//!
//! A seed-golden pin re-runs the `cluster_64m_churn` bench scenario
//! interrupted at a fixed step and requires the restored run to reproduce
//! the same pinned constants as the uninterrupted pin in
//! `parallel_determinism.rs` — restore may not drift even if both sides
//! of an equality comparison drift together.

use hcsim_core::{AdaptiveConfig, HeuristicKind, PruningConfig, PARALLEL_MIN_MACHINES};
use hcsim_sim::testkit::{pending_expires_next, StepChecker};
use hcsim_sim::{
    ChurnSource, EventSource, Mapper, SimConfig, SimReport, SimSession, TaskTraceSource,
};
use hcsim_stats::{SeedSequence, Xoshiro256pp};
use hcsim_workload::{
    cluster_churn, faas_system, specint_cluster, ChurnConfig, FaasConfig, FaasGenerator,
    WorkloadConfig, WorkloadGenerator,
};
use proptest::prelude::*;

/// Thread count for the pool side; `HCSIM_TEST_THREADS` lets the CI
/// matrix pin it.
fn test_threads() -> usize {
    std::env::var("HCSIM_TEST_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// Steps `session` to the end with `checker` checking the engine's
/// invariants after every step, and returns the report.
fn run_checked(
    mut session: SimSession<'_, Box<dyn Mapper>, Xoshiro256pp>,
    mut checker: StepChecker,
) -> SimReport {
    while session.step() {
        checker.check(&session);
    }
    session.finish()
}

/// Byte-comparable rendering of everything a run decided: records,
/// metrics, cost accounting, churn bookkeeping, and per-epoch slices.
fn fingerprint(report: &SimReport) -> String {
    format!("{report:?}")
}

/// Where an interrupted trial takes its snapshot.
#[derive(Debug, Clone, Copy)]
enum SnapshotAt {
    /// After this many steps (or when the heap drains).
    Step(usize),
    /// After the first step at which a queued task's deadline falls due
    /// on the next event, so the next event's expiry cull must remove it
    /// ([`pending_expires_next`]); the trial panics if there is none.
    PendingDue,
}

/// Steps `session` to the snapshot point `at` with `checker` checking
/// every step, and returns the snapshot.
fn step_to_snapshot(
    session: &mut SimSession<'_, Box<dyn Mapper>, Xoshiro256pp>,
    checker: &mut StepChecker,
    at: SnapshotAt,
) -> Vec<u8> {
    let mut taken = 0;
    loop {
        let reached = match at {
            SnapshotAt::Step(n) => taken == n,
            SnapshotAt::PendingDue => taken > 0 && pending_expires_next(session),
        };
        if reached {
            break;
        }
        if !session.step() {
            assert!(matches!(at, SnapshotAt::Step(_)), "no step had a pending deadline due next");
            break;
        }
        checker.check(session);
        taken += 1;
    }
    session.snapshot()
}

/// One churn-cluster trial through the stepwise [`SimSession`] API.
///
/// With `snapshot_at == None` the session runs straight to completion
/// (the baseline). With `Some(at)` the session is stepped to `at`,
/// snapshotted, torn down, restored into a fresh identically configured
/// mapper and a fresh RNG — whose state the snapshot overwrites, so its
/// seed is deliberately different — and only then run to completion.
fn session_trial(
    kind: HeuristicKind,
    machines: usize,
    num_tasks: usize,
    oversubscription: f64,
    seed: u64,
    threads: usize,
    snapshot_at: Option<SnapshotAt>,
) -> SimReport {
    let pruning = PruningConfig { threads, ..PruningConfig::default() };
    session_trial_with(
        kind,
        pruning,
        SimConfig::untrimmed(),
        machines,
        num_tasks,
        oversubscription,
        seed,
        snapshot_at,
    )
}

/// [`session_trial`] with the mapper and sim configs fully caller-chosen
/// (the adaptive-controller trial needs `adaptive` on).
#[allow(clippy::too_many_arguments)]
fn session_trial_with(
    kind: HeuristicKind,
    config: PruningConfig,
    sim: SimConfig,
    machines: usize,
    num_tasks: usize,
    oversubscription: f64,
    seed: u64,
    snapshot_at: Option<SnapshotAt>,
) -> SimReport {
    let seeds = SeedSequence::new(seed);
    let spec = specint_cluster(machines, 6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks,
        oversubscription,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    let churn = cluster_churn(
        &ChurnConfig {
            num_machines: machines,
            initial_absent: machines / 4,
            drains: 3,
            fails: 3,
            span: (num_tasks as u64) * 2,
            min_active: machines / 2,
        },
        &mut seeds.stream(3),
    );
    let mut mapper = kind.build(config);
    let mut rng = seeds.stream(2);
    let mut task_source = TaskTraceSource::new(&tasks);
    let mut churn_source = ChurnSource::new(&churn);
    let mut sources: Vec<&mut dyn EventSource> = vec![&mut task_source, &mut churn_source];
    let mut session = SimSession::new(&spec, sim, &mut sources, &mut mapper, &mut rng);

    let mut checker = StepChecker::new();
    let Some(at) = snapshot_at else {
        return run_checked(session, checker);
    };
    let bytes = step_to_snapshot(&mut session, &mut checker, at);
    drop(session);
    drop(mapper);

    // Second life: the mapper is rebuilt from config + blob, the RNG seed
    // is garbage on purpose (restore overwrites its state).
    let mut mapper = kind.build(config);
    let mut rng = seeds.stream(9);
    let session = SimSession::restore(&spec, sim, &bytes, &mut mapper, &mut rng)
        .expect("inter-event-boundary snapshot must restore");
    run_checked(session, StepChecker::new())
}

/// One serverless trial through the stepwise [`SimSession`] API, with the
/// same interrupt-restore shape as [`session_trial`]. The snapshot here
/// additionally carries warm-container sets (including in-use pins),
/// pending `ContainerExpiry` heap events, and the cold/warm tallies —
/// the keep-alive state dimension this scenario exists to cover.
fn faas_session_trial(
    kind: HeuristicKind,
    seed: u64,
    threads: usize,
    snapshot_at: Option<SnapshotAt>,
) -> SimReport {
    let seeds = SeedSequence::new(seed);
    let cfg = FaasConfig {
        num_functions: 16,
        num_machines: PARALLEL_MIN_MACHINES + 4,
        num_tasks: 300,
        oversubscription: 218_750.0,
        ..FaasConfig::default()
    };
    let spec = faas_system(&cfg, &mut seeds.stream(0));
    let tasks = FaasGenerator::new(cfg).generate(&spec, &mut seeds.stream(1));
    let config = PruningConfig { threads, ..PruningConfig::default() };
    let mut mapper = kind.build(config);
    let mut rng = seeds.stream(2);
    let mut task_source = TaskTraceSource::new(&tasks);
    let mut sources: Vec<&mut dyn EventSource> = vec![&mut task_source];
    let sim = SimConfig::untrimmed();
    let mut session = SimSession::new(&spec, sim, &mut sources, &mut mapper, &mut rng);

    let mut checker = StepChecker::new();
    let Some(at) = snapshot_at else {
        return run_checked(session, checker);
    };
    let bytes = step_to_snapshot(&mut session, &mut checker, at);
    drop(session);
    drop(mapper);

    let mut mapper = kind.build(config);
    let mut rng = seeds.stream(9);
    let session = SimSession::restore(&spec, sim, &bytes, &mut mapper, &mut rng)
        .expect("inter-event-boundary snapshot must restore");
    run_checked(session, StepChecker::new())
}

/// Proptest case count for the serverless snapshot proptest; the CI
/// wide-sweep leg (`HCSIM_TEST_WIDE=1`) runs a deeper sweep.
fn wide_cases() -> u32 {
    if std::env::var("HCSIM_TEST_WIDE").as_deref() == Ok("1") {
        8
    } else {
        3
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: wide_cases(), ..ProptestConfig::default() })]

    /// The serverless scenario interrupted at an arbitrary step: warm
    /// containers (possibly pinned in-use), scheduled keep-alive
    /// expiries, and cold/warm tallies must all round-trip through the
    /// snapshot so the restored run — on the worker pool — is
    /// byte-identical to never having stopped.
    #[test]
    fn faas_snapshot_restore_is_bit_identical_at_any_step(
        seed in 0u64..10_000,
        snap_step in 0usize..600,
    ) {
        let pam = HeuristicKind::Pam;
        let baseline = faas_session_trial(pam, seed, 1, None);
        let resumed = faas_session_trial(pam, seed, test_threads(), Some(SnapshotAt::Step(snap_step)));
        prop_assert_eq!(fingerprint(&baseline), fingerprint(&resumed));
        prop_assert_eq!(baseline.faas.cold_starts, resumed.faas.cold_starts);
        prop_assert_eq!(baseline.faas.warm_hits, resumed.faas.warm_hits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// PAM under churn, interrupted at an arbitrary step: the restored
    /// run must be byte-identical to never having stopped, sequentially
    /// and on the worker pool.
    #[test]
    fn pam_snapshot_restore_is_bit_identical_at_any_step(
        seed in 0u64..10_000,
        snap_step in 0usize..600,
    ) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let t = test_threads();
        let baseline = session_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, 1, None);
        let resumed = session_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, 1, Some(SnapshotAt::Step(snap_step)));
        prop_assert_eq!(fingerprint(&baseline), fingerprint(&resumed));

        let par_baseline = session_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, t, None);
        let par_resumed = session_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, t, Some(SnapshotAt::Step(snap_step)));
        prop_assert_eq!(fingerprint(&par_baseline), fingerprint(&par_resumed));
        // And the parallel leg agrees with the sequential leg, so the
        // snapshot path cannot hide an execution-mode divergence.
        prop_assert_eq!(fingerprint(&baseline), fingerprint(&par_resumed));
    }

    /// PAM with the closed-loop controller active: the snapshot now
    /// includes the mapper blob's controller section (trims, step
    /// schedules, outcome window, deep-calm counter), and a restore at any
    /// step must still resume bit-identically.
    #[test]
    fn adaptive_snapshot_restore_is_bit_identical_at_any_step(
        seed in 0u64..10_000,
        snap_step in 0usize..600,
    ) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let pruning = PruningConfig {
            threads: test_threads(),
            adaptive: Some(AdaptiveConfig),
            ..PruningConfig::default()
        };
        let sim = SimConfig::untrimmed();
        let baseline = session_trial_with(
            HeuristicKind::Pam, pruning, sim, machines, 160, 110_000.0, seed, None);
        let resumed = session_trial_with(
            HeuristicKind::Pam, pruning, sim, machines, 160, 110_000.0, seed, Some(SnapshotAt::Step(snap_step)));
        prop_assert_eq!(fingerprint(&baseline), fingerprint(&resumed));
    }

    /// MOC's mapper blob is empty (its state is pure caches); restore
    /// must still resume bit-identically around the empty blob.
    #[test]
    fn moc_snapshot_restore_is_bit_identical_at_any_step(
        seed in 0u64..10_000,
        snap_step in 0usize..600,
    ) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let t = test_threads();
        let baseline = session_trial(
            HeuristicKind::Moc, machines, 160, 220_000.0, seed, t, None);
        let resumed = session_trial(
            HeuristicKind::Moc, machines, 160, 220_000.0, seed, t, Some(SnapshotAt::Step(snap_step)));
        prop_assert_eq!(fingerprint(&baseline), fingerprint(&resumed));
    }
}

/// A snapshot taken just before an expiry cull of a queued task: the
/// engine's per-step caches (each machine's earliest pending deadline and
/// the bound over them, the batch bound, the free-slot count, the
/// draining set) are no wire field, so the restored engine must rebuild
/// them from machine state or skip the cull the uninterrupted run makes.
/// Both runs, faas and churn, step under the `StepChecker`, whose recounts
/// hold the rebuilt caches to their definitions. MM maps without pruning,
/// so queued tasks do expire (PAM's pruner mostly drops them first).
#[test]
fn restore_just_before_a_pending_expiry_is_bit_identical() {
    let mm = HeuristicKind::Mm;
    for seed in [2019, 7] {
        let baseline = faas_session_trial(mm, seed, 1, None);
        let resumed = faas_session_trial(mm, seed, 1, Some(SnapshotAt::PendingDue));
        assert_eq!(fingerprint(&baseline), fingerprint(&resumed), "faas, seed {seed}");
        let machines = PARALLEL_MIN_MACHINES + 4;
        let churn = |at| session_trial(mm, machines, 160, 110_000.0, seed, 1, at);
        let (baseline, resumed) = (churn(None), churn(Some(SnapshotAt::PendingDue)));
        assert_eq!(fingerprint(&baseline), fingerprint(&resumed), "churn, seed {seed}");
    }
}

/// Seed-golden pin: the `cluster_64m_churn` scenario interrupted at a
/// fixed mid-run step must reproduce the exact constants the
/// uninterrupted pin in `parallel_determinism.rs` asserts — the restored
/// trajectory is pinned to the recorded one, not merely to a twin run
/// that could drift with it. Runs on the worker pool.
#[test]
fn cluster_64m_churn_restored_seed_golden_pin() {
    let report = session_trial(
        HeuristicKind::Pam,
        64,
        400,
        272_000.0,
        2019,
        test_threads(),
        Some(SnapshotAt::Step(300)),
    );
    let o = &report.metrics.outcomes;
    assert_eq!(o.on_time, CHURN_GOLDEN_ON_TIME);
    assert_eq!(o.pruned, CHURN_GOLDEN_PRUNED);
    assert_eq!(o.expired_unstarted, CHURN_GOLDEN_EXPIRED_UNSTARTED);
    assert_eq!(o.expired_executing, CHURN_GOLDEN_EXPIRED_EXECUTING);
    assert_eq!(report.mapping_events, CHURN_GOLDEN_MAPPING_EVENTS);
    assert_eq!(report.end_time, CHURN_GOLDEN_END_TIME);
    assert_eq!(report.churn.requeued, CHURN_GOLDEN_REQUEUED);
    assert_eq!(report.epochs.len(), CHURN_GOLDEN_EPOCHS);
}

// Mirrors of the `cluster_64m_churn` pin in `parallel_determinism.rs`;
// a restored run must land on the same trajectory.
const CHURN_GOLDEN_ON_TIME: usize = 271;
const CHURN_GOLDEN_PRUNED: usize = 10;
const CHURN_GOLDEN_EXPIRED_UNSTARTED: usize = 117;
const CHURN_GOLDEN_EXPIRED_EXECUTING: usize = 2;
const CHURN_GOLDEN_MAPPING_EVENTS: u64 = 695;
const CHURN_GOLDEN_END_TIME: u64 = 749;
const CHURN_GOLDEN_REQUEUED: u64 = 2;
const CHURN_GOLDEN_EPOCHS: usize = 23;
