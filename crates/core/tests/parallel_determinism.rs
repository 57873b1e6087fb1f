//! Thread-count invariance of the per-machine scoring fan-out.
//!
//! The fan-out's contract is *bit-identical* results at any `threads`
//! value: per-machine computations are deterministic in the machine state
//! alone and merge in machine-index order, so `threads` must be a pure
//! performance setting. These tests drive whole simulations — PAM (with
//! its pruner drop passes engaged) and MOC — on a cluster large enough to
//! cross the `PARALLEL_MIN_MACHINES` gate, and require byte-identical
//! reports from the two execution modes that exist:
//!
//! * the calling thread (`threads = 1`),
//! * the persistent worker pool (`threads = N`, cells owned by pool
//!   workers).
//!
//! Seed-golden pins on the `cluster_64m` and `cluster_1024m` bench
//! scenarios (reduced task counts) guard the cluster-scale trajectory
//! against behavioral drift from future perf work.
//!
//! The pool side honours `HCSIM_TEST_THREADS` (default 4) so CI can run
//! the same suite at several widths — every leg asserts the same pinned
//! constants, which is what proves the modes agree even on the
//! `HCSIM_TEST_THREADS=1` leg, whose in-test comparison is degenerate.

use hcsim_core::{AdaptiveConfig, HeuristicKind, PruningConfig, PARALLEL_MIN_MACHINES};
use hcsim_sim::{run_simulation, run_simulation_with_churn, SimConfig, SimReport};
use hcsim_stats::SeedSequence;
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

/// The paper's static thresholds at the given fan-out width.
fn fixed(threads: usize) -> PruningConfig {
    PruningConfig { threads, ..PruningConfig::default() }
}

/// [`fixed`] with the closed-loop controller steering thresholds. The
/// controller's observations (windowed outcomes, pressure detector) are
/// fed from mapper-visible events only, so its trims must be identical
/// across execution modes — any fan-out ordering leak would change a
/// threshold mid-run and fork the whole trajectory.
fn adaptive(threads: usize) -> PruningConfig {
    PruningConfig { adaptive: Some(AdaptiveConfig), ..fixed(threads) }
}

/// One cluster trial: `machines` machines, arrival rate scaled with the
/// cluster so the per-machine load stays in the oversubscribed regime.
fn cluster_trial(
    kind: HeuristicKind,
    machines: usize,
    num_tasks: usize,
    oversubscription: f64,
    seed: u64,
    pruning: PruningConfig,
) -> SimReport {
    let seeds = SeedSequence::new(seed);
    let spec = specint_cluster(machines, 6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks,
        oversubscription,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    let mut mapper = kind.build(pruning);
    let mut rng = seeds.stream(2);
    run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng)
}

/// Byte-comparable rendering of everything a trial decides: per-task
/// records (outcome, machine, timing), metrics, cost accounting, and the
/// serverless cold/warm tallies (zero in the classic model).
fn fingerprint(report: &SimReport) -> String {
    format!("{:?}\n{:?}\n{:?}\n{:?}", report.metrics, report.records, report.cost, report.faas)
}

/// Like [`cluster_trial`] but with a generated membership-churn timeline:
/// a quarter of the cluster joins late, and drains + failures (with task
/// requeue through the mapper) land mid-run. Exercises the scorer's cell
/// release, the pool re-gating across epochs, and the engine's requeue
/// path in both execution modes.
fn churn_cluster_trial(
    kind: HeuristicKind,
    machines: usize,
    num_tasks: usize,
    oversubscription: f64,
    seed: u64,
    pruning: PruningConfig,
) -> SimReport {
    let seeds = SeedSequence::new(seed);
    let spec = specint_cluster(machines, 6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks,
        oversubscription,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    // Churn spread across the arrival burst and its drain-out tail; the
    // floor keeps the run above the pool gate part of the time so both
    // pooled and local cell stores are exercised within one trial.
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
    let mut mapper = kind.build(pruning);
    let mut rng = seeds.stream(2);
    run_simulation_with_churn(&spec, SimConfig::untrimmed(), &tasks, &churn, &mut mapper, &mut rng)
}

/// Proptest case count for the churn, adaptive and serverless invariance
/// proptests; the CI wide-sweep leg (`HCSIM_TEST_WIDE=1`) runs a deeper
/// sweep.
fn wide_cases() -> u32 {
    if std::env::var("HCSIM_TEST_WIDE").as_deref() == Ok("1") {
        8
    } else {
        3
    }
}

/// One serverless trial: a FaaS cluster past the `PARALLEL_MIN_MACHINES`
/// gate, Zipf-popular bursty request arrivals, container cold starts and
/// keep-alive expiries live. Machine *warmth* now feeds the scorer's
/// cell selection, so any fan-out ordering leak would additionally show
/// up as diverging cold/warm tallies — which the fingerprint includes.
fn faas_trial(seed: u64, threads: usize) -> SimReport {
    let seeds = SeedSequence::new(seed);
    let cfg = FaasConfig {
        num_functions: 16,
        num_machines: PARALLEL_MIN_MACHINES + 4,
        num_tasks: 300,
        // The 32-machine default intensity scaled to 20 machines, keeping
        // per-machine load in the >10× overload regime.
        oversubscription: 218_750.0,
        ..FaasConfig::default()
    };
    let spec = faas_system(&cfg, &mut seeds.stream(0));
    let tasks = FaasGenerator::new(cfg).generate(&spec, &mut seeds.stream(1));
    let mut mapper = HeuristicKind::Pam.build(fixed(threads));
    let mut rng = seeds.stream(2);
    run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// PAM at cluster scale: phase-1 fan-out, pruner warm-up fan-out, and
    /// the incremental score table must leave every `PairScore`, every
    /// prune decision, and therefore the entire report bit-identical
    /// between sequential and pool-parallel runs.
    #[test]
    fn pam_reports_are_execution_mode_invariant(
        seed in 0u64..10_000,
        oversub_scale in 1u64..4,
    ) {
        // 20 machines: past the PARALLEL_MIN_MACHINES gate, small enough
        // for debug-mode test runtime; 160 tasks exceed the cluster's 120
        // queue slots so deferral, misses, and the pruner all engage.
        let machines = PARALLEL_MIN_MACHINES + 4;
        let oversub = 110_000.0 * oversub_scale as f64;
        let t = test_threads();
        let seq = cluster_trial(HeuristicKind::Pam, machines, 160, oversub, seed, fixed(1));
        let pool = cluster_trial(HeuristicKind::Pam, machines, 160, oversub, seed, fixed(t));
        prop_assert_eq!(fingerprint(&seq), fingerprint(&pool));
    }

    /// Same invariance for MOC's phase-1 fan-out and permutation phase.
    #[test]
    fn moc_reports_are_execution_mode_invariant(seed in 0u64..10_000) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let t = test_threads();
        let seq = cluster_trial(HeuristicKind::Moc, machines, 160, 220_000.0, seed, fixed(1));
        let pool = cluster_trial(HeuristicKind::Moc, machines, 160, 220_000.0, seed, fixed(t));
        prop_assert_eq!(fingerprint(&seq), fingerprint(&pool));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: wide_cases(), ..ProptestConfig::default() })]

    /// PAM under cluster churn: joins, drains, and failures (with their
    /// task requeues) land mid-run, the scorer releases departed cells
    /// and re-gates the pool across membership epochs — and the report
    /// must still be byte-identical between sequential and pooled
    /// execution. `HCSIM_TEST_WIDE=1` (the CI wide-sweep leg) widens the
    /// seed sweep.
    #[test]
    fn pam_churn_reports_are_execution_mode_invariant(seed in 0u64..10_000) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let t = test_threads();
        let seq = churn_cluster_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, fixed(1));
        let pool = churn_cluster_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, fixed(t));
        prop_assert_eq!(fingerprint(&seq), fingerprint(&pool));
        // Membership bookkeeping is decided before execution-mode
        // choices, so it must agree byte-for-byte too.
        prop_assert_eq!(seq.churn, pool.churn);
        prop_assert_eq!(seq.epochs, pool.epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: wide_cases(), ..ProptestConfig::default() })]

    /// PAM with the closed-loop controller on: the controller's windowed
    /// observations and pressure detector are part of the mapper state,
    /// so its threshold trims — and the full report they shape — must be
    /// bit-identical in both execution modes. `HCSIM_TEST_WIDE=1` (the CI
    /// wide-sweep leg) widens the seed sweep.
    #[test]
    fn adaptive_reports_are_execution_mode_invariant(seed in 0u64..10_000) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let t = test_threads();
        let seq = cluster_trial(HeuristicKind::Pam, machines, 160, 110_000.0, seed, adaptive(1));
        let pool = cluster_trial(HeuristicKind::Pam, machines, 160, 110_000.0, seed, adaptive(t));
        prop_assert_eq!(fingerprint(&seq), fingerprint(&pool));
    }

    /// Controller on and churn landing mid-run: the trims that failure
    /// requeues and epoch changes steer must be identical in both
    /// execution modes, byte for byte.
    #[test]
    fn adaptive_churn_reports_are_execution_mode_invariant(seed in 0u64..10_000) {
        let machines = PARALLEL_MIN_MACHINES + 4;
        let t = test_threads();
        let seq = churn_cluster_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, adaptive(1));
        let pool = churn_cluster_trial(
            HeuristicKind::Pam, machines, 160, 110_000.0, seed, adaptive(t));
        prop_assert_eq!(fingerprint(&seq), fingerprint(&pool));
        prop_assert_eq!(seq.churn, pool.churn);
        prop_assert_eq!(seq.epochs, pool.epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: wide_cases(), ..ProptestConfig::default() })]

    /// PAM on the serverless workload: cold/warm PET selection, warm-set
    /// revisions invalidating tail caches, and spin-up sampling all ride
    /// the mapping hot path now — and the report (including the
    /// cold-start/warm-hit tallies) must stay byte-identical in both
    /// execution modes. `HCSIM_TEST_WIDE=1` (the CI wide-sweep leg) widens
    /// the seed sweep.
    #[test]
    fn faas_reports_are_execution_mode_invariant(seed in 0u64..10_000) {
        let t = test_threads();
        let seq = faas_trial(seed, 1);
        let pool = faas_trial(seed, t);
        prop_assert_eq!(fingerprint(&seq), fingerprint(&pool));
        // The workload must actually exercise both sides of the cold/warm
        // split, or the invariance above proves nothing about it.
        prop_assert!(seq.faas.cold_starts > 0, "no cold starts — scenario degenerate");
        prop_assert!(seq.faas.warm_hits > 0, "no warm hits — scenario degenerate");
    }
}

/// Seed-golden pin of the serverless scenario: runs sequentially and on
/// the worker pool, asserts the same constants on every CI leg — pinning
/// the cold/warm trajectory (not just outcome counts) against behavioral
/// drift in the keep-alive or spin-up paths.
#[test]
fn faas_seed_golden_pin() {
    let report = faas_trial(2019, 1);
    let parallel = faas_trial(2019, test_threads());
    assert_eq!(
        fingerprint(&report),
        fingerprint(&parallel),
        "threads=1 and threads={} diverged on the pinned faas scenario",
        test_threads(),
    );
    let o = &report.metrics.outcomes;
    eprintln!(
        "faas golden: on_time={} late={} pruned={} exp_unstarted={} exp_executing={} \
         events={} end={} cold={} warm={}",
        o.on_time,
        o.late,
        o.pruned,
        o.expired_unstarted,
        o.expired_executing,
        report.mapping_events,
        report.end_time,
        report.faas.cold_starts,
        report.faas.warm_hits,
    );
    assert_eq!(o.on_time, FAAS_GOLDEN_ON_TIME);
    assert_eq!(o.pruned, FAAS_GOLDEN_PRUNED);
    assert_eq!(o.expired_unstarted, FAAS_GOLDEN_EXPIRED_UNSTARTED);
    assert_eq!(report.mapping_events, FAAS_GOLDEN_MAPPING_EVENTS);
    assert_eq!(report.end_time, FAAS_GOLDEN_END_TIME);
    assert_eq!(report.faas.cold_starts, FAAS_GOLDEN_COLD_STARTS);
    assert_eq!(report.faas.warm_hits, FAAS_GOLDEN_WARM_HITS);
}

const FAAS_GOLDEN_ON_TIME: usize = 161;
const FAAS_GOLDEN_PRUNED: usize = 0;
const FAAS_GOLDEN_EXPIRED_UNSTARTED: usize = 139;
const FAAS_GOLDEN_MAPPING_EVENTS: u64 = 638;
const FAAS_GOLDEN_END_TIME: u64 = 325;
const FAAS_GOLDEN_COLD_STARTS: u64 = 16;
const FAAS_GOLDEN_WARM_HITS: u64 = 145;

/// Seed-golden pin of the `cluster_64m` bench scenario (reduced to 400
/// tasks so debug-mode CI stays fast, which still oversubscribes the
/// cluster's 384 queue slots): 64 machines, arrival rate scaled 8× over
/// the paper's 34k level. Catches any behavioral drift in the
/// cluster-scale path — and runs the pinned scenario sequentially *and*
/// on the worker pool (`HCSIM_TEST_THREADS` wide), so the pin itself
/// re-proves execution-mode determinism on every CI leg.
#[test]
fn cluster_64m_seed_golden_pin() {
    let report = cluster_trial(HeuristicKind::Pam, 64, 400, 272_000.0, 2019, fixed(1));
    let parallel =
        cluster_trial(HeuristicKind::Pam, 64, 400, 272_000.0, 2019, fixed(test_threads()));
    assert_eq!(
        fingerprint(&report),
        fingerprint(&parallel),
        "threads=1 and threads={} diverged on the pinned cluster scenario",
        test_threads(),
    );
    let o = &report.metrics.outcomes;
    eprintln!(
        "golden: on_time={} late={} pruned={} exp_unstarted={} exp_executing={} events={} end={}",
        o.on_time,
        o.late,
        o.pruned,
        o.expired_unstarted,
        o.expired_executing,
        report.mapping_events,
        report.end_time,
    );
    assert_eq!(o.on_time, GOLDEN_ON_TIME);
    assert_eq!(o.late, GOLDEN_LATE);
    assert_eq!(o.pruned, GOLDEN_PRUNED);
    assert_eq!(o.expired_unstarted, GOLDEN_EXPIRED_UNSTARTED);
    assert_eq!(o.expired_executing, GOLDEN_EXPIRED_EXECUTING);
    assert_eq!(report.mapping_events, GOLDEN_MAPPING_EVENTS);
    assert_eq!(report.end_time, GOLDEN_END_TIME);
}

const GOLDEN_ON_TIME: usize = 322;
const GOLDEN_LATE: usize = 0;
const GOLDEN_PRUNED: usize = 14;
const GOLDEN_EXPIRED_UNSTARTED: usize = 62;
const GOLDEN_EXPIRED_EXECUTING: usize = 2;
const GOLDEN_MAPPING_EVENTS: u64 = 727;
const GOLDEN_END_TIME: u64 = 542;

/// Seed-golden pin of the `cluster_64m_churn` bench scenario (reduced
/// task count): the static pin above, but with 16 machines joining late
/// and 3 drains + 3 fails landing mid-run. Pins the whole dynamic
/// trajectory — membership ordering, failure requeue, per-epoch
/// attribution — against behavioral drift, and re-proves execution-mode
/// agreement on every CI leg (the wide-sweep leg sets
/// `HCSIM_TEST_WIDE=1` for the wider proptest sweep; the pin itself
/// runs everywhere).
#[test]
fn cluster_64m_churn_seed_golden_pin() {
    let report = churn_cluster_trial(HeuristicKind::Pam, 64, 400, 272_000.0, 2019, fixed(1));
    let parallel =
        churn_cluster_trial(HeuristicKind::Pam, 64, 400, 272_000.0, 2019, fixed(test_threads()));
    assert_eq!(
        fingerprint(&report),
        fingerprint(&parallel),
        "threads=1 and threads={} diverged on the pinned churn scenario",
        test_threads(),
    );
    assert_eq!(report.churn, parallel.churn);
    assert_eq!(report.epochs, parallel.epochs);
    let o = &report.metrics.outcomes;
    eprintln!(
        "churn golden: on_time={} late={} pruned={} exp_unstarted={} exp_executing={} \
         events={} end={} joins={} drains={} fails={} requeued={} epochs={}",
        o.on_time,
        o.late,
        o.pruned,
        o.expired_unstarted,
        o.expired_executing,
        report.mapping_events,
        report.end_time,
        report.churn.joins,
        report.churn.drains,
        report.churn.fails,
        report.churn.requeued,
        report.epochs.len(),
    );
    assert_eq!(o.on_time, CHURN_GOLDEN_ON_TIME);
    assert_eq!(o.pruned, CHURN_GOLDEN_PRUNED);
    assert_eq!(o.expired_unstarted, CHURN_GOLDEN_EXPIRED_UNSTARTED);
    assert_eq!(o.expired_executing, CHURN_GOLDEN_EXPIRED_EXECUTING);
    assert_eq!(report.mapping_events, CHURN_GOLDEN_MAPPING_EVENTS);
    assert_eq!(report.end_time, CHURN_GOLDEN_END_TIME);
    assert_eq!(report.churn.joins, 16);
    assert_eq!(report.churn.drains, 3);
    assert_eq!(report.churn.fails, 3);
    assert_eq!(report.churn.requeued, CHURN_GOLDEN_REQUEUED);
    assert_eq!(report.epochs.len(), CHURN_GOLDEN_EPOCHS);
    // Every terminal record lands in exactly one epoch slice.
    let sliced: usize = report.epochs.iter().map(|e| e.finished).sum();
    assert_eq!(sliced, report.records.len());
}

/// Seed-golden pin at mega-cluster cardinality: 1024 machines (32 score-
/// table shards), arrival rate scaled 128× over the paper's 34k level so
/// the burst regime engages, task count reduced so debug-mode CI stays
/// fast. Runs sequentially and on the worker pool (`HCSIM_TEST_THREADS`
/// wide) and asserts the same pinned constants on every leg — proving
/// the hierarchical bound pass, same-tick reuse, and both execution
/// modes agree byte-for-byte at the new scale.
#[test]
fn cluster_1024m_seed_golden_pin() {
    let report = cluster_trial(HeuristicKind::Pam, 1024, 300, 4_352_000.0, 2019, fixed(1));
    let parallel =
        cluster_trial(HeuristicKind::Pam, 1024, 300, 4_352_000.0, 2019, fixed(test_threads()));
    assert_eq!(
        fingerprint(&report),
        fingerprint(&parallel),
        "threads=1 and threads={} diverged on the pinned 1024-machine scenario",
        test_threads(),
    );
    let o = &report.metrics.outcomes;
    eprintln!(
        "1024m golden: on_time={} late={} pruned={} exp_unstarted={} exp_executing={} events={} end={}",
        o.on_time,
        o.late,
        o.pruned,
        o.expired_unstarted,
        o.expired_executing,
        report.mapping_events,
        report.end_time,
    );
    assert_eq!(o.on_time, MEGA_GOLDEN_ON_TIME);
    assert_eq!(o.late, MEGA_GOLDEN_LATE);
    assert_eq!(o.pruned, MEGA_GOLDEN_PRUNED);
    assert_eq!(o.expired_unstarted, MEGA_GOLDEN_EXPIRED_UNSTARTED);
    assert_eq!(o.expired_executing, MEGA_GOLDEN_EXPIRED_EXECUTING);
    assert_eq!(report.mapping_events, MEGA_GOLDEN_MAPPING_EVENTS);
    assert_eq!(report.end_time, MEGA_GOLDEN_END_TIME);
}

const MEGA_GOLDEN_ON_TIME: usize = 300;
const MEGA_GOLDEN_LATE: usize = 0;
const MEGA_GOLDEN_PRUNED: usize = 0;
const MEGA_GOLDEN_EXPIRED_UNSTARTED: usize = 0;
const MEGA_GOLDEN_EXPIRED_EXECUTING: usize = 0;
const MEGA_GOLDEN_MAPPING_EVENTS: u64 = 600;
const MEGA_GOLDEN_END_TIME: u64 = 256;

const CHURN_GOLDEN_ON_TIME: usize = 271;
const CHURN_GOLDEN_PRUNED: usize = 10;
const CHURN_GOLDEN_EXPIRED_UNSTARTED: usize = 117;
const CHURN_GOLDEN_EXPIRED_EXECUTING: usize = 2;
const CHURN_GOLDEN_MAPPING_EVENTS: u64 = 695;
const CHURN_GOLDEN_END_TIME: u64 = 749;
const CHURN_GOLDEN_REQUEUED: u64 = 2;
const CHURN_GOLDEN_EPOCHS: usize = 23;
