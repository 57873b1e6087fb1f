//! Regression pin: [`ProbScorer`] scores and a fixed-seed PAM run must be
//! bit-for-bit unchanged by performance refactors of the PMF pipeline
//! (struct-of-arrays layout, scratch reuse, incremental tail caching).
//!
//! The golden values below were captured from the seed implementation
//! (straight `Vec<Impulse>` PMFs, from-scratch `analyze_queue` at every
//! version bump). Any drift means an optimization changed *behavior*, not
//! just speed.

// The pins are intentionally recorded at full f64 round-trip precision.
#![allow(clippy::excessive_precision)]

use hcsim_core::{AdaptiveConfig, HeuristicKind, Moc, Pam, ProbScorer, PruningConfig, ScoreTable};
use hcsim_model::{MachineId, SystemSpec, Task, TaskId, TaskOutcome, TaskTypeId};
use hcsim_pmf::DropPolicy;
use hcsim_sim::{run_simulation, testkit, MapContext, Mapper, SimConfig, SimReport};
use hcsim_stats::SeedSequence;
use hcsim_workload::{
    faas_system, specint_cluster, specint_system, FaasConfig, FaasGenerator, WorkloadConfig,
    WorkloadGenerator,
};

fn task(id: u32, tt: u16, deadline: u64) -> Task {
    Task { id: TaskId(id), type_id: TaskTypeId(tt), arrival: 0, deadline }
}

/// The paper's Fig. 4 default cell (PAM, λ=0.9, Schmitt trigger, 34k
/// oversubscription) at quick size, fully seeded.
fn fig4_cell_report() -> SimReport {
    let seeds = SeedSequence::new(2019);
    let spec = specint_system(6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: 300,
        oversubscription: 34_000.0,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    let mut mapper = Pam::new(PruningConfig::default());
    let mut rng = seeds.stream(2);
    run_simulation(
        &spec,
        SimConfig { trim: 25, ..SimConfig::default() },
        &tasks,
        &mut mapper,
        &mut rng,
    )
}

#[test]
fn fixed_seed_fig4_run_is_unchanged() {
    let report = fig4_cell_report();
    let o = &report.metrics.outcomes;
    eprintln!(
        "golden: on_time={} late={} approx={} pruned={} exp_unstarted={} exp_executing={} \
         events={} end={} pct={:.12} cost={:.17e}",
        o.on_time,
        o.late,
        o.approx,
        o.pruned,
        o.expired_unstarted,
        o.expired_executing,
        report.mapping_events,
        report.end_time,
        report.metrics.pct_on_time,
        report.total_cost,
    );
    assert_eq!(o.on_time, GOLDEN_ON_TIME);
    assert_eq!(o.late, GOLDEN_LATE);
    assert_eq!(o.pruned, GOLDEN_PRUNED);
    assert_eq!(o.expired_unstarted, GOLDEN_EXPIRED_UNSTARTED);
    assert_eq!(o.expired_executing, GOLDEN_EXPIRED_EXECUTING);
    assert_eq!(report.mapping_events, GOLDEN_MAPPING_EVENTS);
    assert_eq!(report.end_time, GOLDEN_END_TIME);
    assert!((report.metrics.pct_on_time - GOLDEN_PCT_ON_TIME).abs() < 1e-9);
    assert!((report.total_cost - GOLDEN_TOTAL_COST).abs() < 1e-6);
}

/// Outcome counts (on time, late, pruned, expired unstarted, expired
/// executing), mapping events, end time, and a placement checksum —
/// Σ (task id + 1) × (machine index + 1) over the tasks that started —
/// which moves when the same counts come from other placements.
type Trajectory = (usize, usize, usize, usize, usize, u64, u64, u64);

/// One seed-2019 trial of `kind` on the paper system at 34k (300 tasks)
/// or on the 64-machine cluster at 272k (400 tasks, the
/// `cluster_64m_seed_golden_pin` scenario), on the calling thread.
fn pinned_trajectory(kind: HeuristicKind, cluster: bool) -> Trajectory {
    let seeds = SeedSequence::new(2019);
    let (spec, num_tasks, oversubscription) = if cluster {
        (specint_cluster(64, 6, &mut seeds.stream(0)), 400, 272_000.0)
    } else {
        (specint_system(6, &mut seeds.stream(0)), 300, 34_000.0)
    };
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks,
        oversubscription,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    let mut mapper = kind.build(PruningConfig { threads: 1, ..PruningConfig::default() });
    let report =
        run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut seeds.stream(2));
    let placements = report
        .records
        .iter()
        .filter_map(|r| Some(u64::from(r.task.id.0 + 1) * (r.machine?.index() as u64 + 1)))
        .sum();
    let o = &report.metrics.outcomes;
    let (events, end) = (report.mapping_events, report.end_time);
    (o.on_time, o.late, o.pruned, o.expired_unstarted, o.expired_executing, events, end, placements)
}

/// Seed-golden pins of PAMF and MOC, on the paper system and on the
/// 64-machine cluster. Every other test of these two mappers compares
/// two runs of the same mapper (cold vs reused table, sequential vs
/// pool, restored vs uninterrupted), which a change moving both arms
/// alike would pass; these pin the trajectory itself. Re-pin from the
/// assertion message only once a move is understood.
#[test]
fn pamf_and_moc_seed_golden_pins() {
    let cases = [
        (HeuristicKind::Pamf, false, PAMF_8M_GOLDEN),
        (HeuristicKind::Pamf, true, PAMF_64M_GOLDEN),
        (HeuristicKind::Moc, false, MOC_8M_GOLDEN),
        (HeuristicKind::Moc, true, MOC_64M_GOLDEN),
    ];
    for (kind, cluster, golden) in cases {
        let machines = if cluster { 64 } else { 8 };
        let got = pinned_trajectory(kind, cluster);
        eprintln!("{kind}, {machines}m golden: {got:?}");
        assert_eq!(got, golden, "{kind}, {machines}m");
    }
}

const PAMF_8M_GOLDEN: Trajectory = (148, 0, 7, 138, 7, 458, 1651, 105_515);
const PAMF_64M_GOLDEN: Trajectory = (324, 0, 11, 62, 3, 729, 542, 2_032_590);
const MOC_8M_GOLDEN: Trajectory = (93, 0, 0, 111, 96, 490, 1651, 127_468);
const MOC_64M_GOLDEN: Trajectory = (329, 0, 0, 4, 67, 796, 541, 2_546_994);

const GOLDEN_ON_TIME: usize = 114;
const GOLDEN_LATE: usize = 0;
const GOLDEN_PRUNED: usize = 3;
const GOLDEN_EXPIRED_UNSTARTED: usize = 129;
const GOLDEN_EXPIRED_EXECUTING: usize = 4;
const GOLDEN_MAPPING_EVENTS: u64 = 462;
const GOLDEN_END_TIME: u64 = 1651;
const GOLDEN_PCT_ON_TIME: f64 = 45.6;
const GOLDEN_TOTAL_COST: f64 = 0.002066;

/// Scores a deterministic deep-queue machine state (with an executing head
/// conditioned on `now`) for several (type, deadline) probes.
fn probe_scores() -> Vec<(f64, f64, f64)> {
    let seeds = SeedSequence::new(99);
    let spec = specint_system(8, &mut seeds.stream(0));
    let pending: Vec<Task> =
        (0..5u32).map(|i| task(i, (i % 12) as u16, 1_500 + u64::from(i) * 400)).collect();
    let mut machine = testkit::machine_with_pending(MachineId(2), 8, &pending);
    assert!(testkit::apply(&mut machine, testkit::QueueOp::StartNext { now: 40, total_exec: 90 }));
    let mut scorer = ProbScorer::new(&spec.pet, DropPolicy::All, 24);
    scorer.begin_event(100);
    let probes =
        [(0u16, 900u64), (3, 1_400), (7, 2_200), (11, 3_000), (5, 650), (2, 5_000), (9, 120)];
    probes
        .iter()
        .map(|&(tt, deadline)| {
            let s = scorer.score(&machine, &task(100 + u32::from(tt), tt, deadline));
            (s.robustness, s.expected_completion, s.mean_exec)
        })
        .collect()
}

#[test]
fn scorer_pair_scores_are_unchanged() {
    let scores = probe_scores();
    for (i, (r, ec, me)) in scores.iter().enumerate() {
        eprintln!("golden[{i}]: ({r:.17e}, {ec:.17e}, {me:.17e}),");
    }
    assert_eq!(scores.len(), GOLDEN_SCORES.len());
    for (i, ((r, ec, me), (gr, gec, gme))) in scores.iter().zip(GOLDEN_SCORES).enumerate() {
        assert!((r - gr).abs() < 1e-12, "probe {i} robustness {r} vs {gr}");
        if gec.is_finite() {
            assert!((ec - gec).abs() < 1e-6, "probe {i} completion {ec} vs {gec}");
        } else {
            assert!(ec.is_infinite(), "probe {i} completion {ec} should be inf");
        }
        assert!((me - gme).abs() < 1e-9, "probe {i} mean_exec {me} vs {gme}");
    }
}

const GOLDEN_SCORES: [(f64, f64, f64); 7] = [
    (8.25332734331601259e-1, 7.50049497386168582e2, 8.58080000000000069e1),
    (9.99840190296876319e-1, 8.51872879004102288e2, 1.63791999999999945e2),
    (1.0, 8.84220879004102244e2, 1.96139999999999930e2),
    (1.0, 8.86844879004102268e2, 1.98763999999999868e2),
    (7.14143923015301968e-2, 7.19944557535690137e2, 1.52147999999999968e2),
    (1.0, 8.54062879004102342e2, 1.65981999999999999e2),
    (0.0, f64::INFINITY, 9.55219999999999771e1),
];

/// The cold reference arm of [`table_reuse_never_changes_a_report`]: the
/// wrapped mapper is restored from its own snapshot before every mapping
/// event, which drops its score table and its scorer's chains, so every
/// event scores from scratch while the mapper's history carries over.
struct ColdEveryEvent<M>(M);

impl<M: Mapper> Mapper for ColdEveryEvent<M> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        let state = self.0.snapshot_state();
        self.0.restore_state(&state);
        self.0.on_mapping_event(ctx);
    }

    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        self.0.on_task_finished(task, outcome);
    }
}

/// Score-table reuse is pure performance: every mapper that reduces over
/// the table must report exactly what it reports when the table and the
/// chains are dropped before every event ([`ColdEveryEvent`]) — on the
/// paper system (one shard) and on a two-shard cluster, for static
/// thresholds (PAM, MOC) and for the two mappers whose thresholds move
/// between events (PAMF's sufferage, the adaptive controller), which the
/// table follows row by row. A two-shard serverless cluster adds the
/// cold-start model, where the table's warm-aware bounds skip nearly
/// every cold lane and an assignment can un-skip one mid-event (PAM and
/// MOC).
#[test]
fn table_reuse_never_changes_a_report() {
    let seeds = SeedSequence::new(413);
    let classic = |spec, oversubscription| {
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 220,
            oversubscription,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(2));
        (spec, tasks, true)
    };
    let faas = FaasConfig {
        num_functions: 12,
        num_machines: 64,
        num_tasks: 400,
        oversubscription: 700_000.0,
        ..FaasConfig::default()
    };
    let faas_spec = faas_system(&faas, &mut seeds.stream(4));
    let faas_tasks = FaasGenerator::new(faas).generate(&faas_spec, &mut seeds.stream(5));
    let cases = [
        classic(specint_system(6, &mut seeds.stream(0)), 34_000.0),
        classic(specint_cluster(64, 6, &mut seeds.stream(1)), 272_000.0),
        (faas_spec, faas_tasks, false),
    ];
    for (spec, tasks, moving_thresholds) in &cases {
        let run = |mut mapper: &mut dyn Mapper| {
            let config = SimConfig::untrimmed();
            let report = run_simulation(spec, config, tasks, &mut mapper, &mut seeds.stream(3));
            format!("{} events {:?}", report.mapping_events, report.records)
        };
        let machines = spec.num_machines();
        let pam = || Pam::new(PruningConfig::default());
        assert_eq!(run(&mut pam()), run(&mut ColdEveryEvent(pam())), "PAM, {machines}m");
        assert_eq!(
            run(&mut Moc::new(0)),
            run(&mut ColdEveryEvent(Moc::new(0))),
            "MOC, {machines}m"
        );
        if !moving_thresholds {
            continue;
        }
        let pamf = || Pam::with_fairness(PruningConfig::default());
        assert_eq!(run(&mut pamf()), run(&mut ColdEveryEvent(pamf())), "PAMF, {machines}m");
        let adaptive =
            || Pam::new(PruningConfig { adaptive: Some(AdaptiveConfig), ..Default::default() });
        assert_eq!(
            run(&mut adaptive()),
            run(&mut ColdEveryEvent(adaptive())),
            "adaptive PAM, {machines}m"
        );
    }
}

/// PAM's two-phase loop over a [`ScoreTable`] with the pruner, the
/// detector and every moving threshold taken out: a static 0.9 deferring
/// threshold, a 32-row window. What is left is the table's own work,
/// which is what [`table_work_counters_are_pinned`] counts.
struct TableLoop {
    scorer: Option<ProbScorer>,
    table: ScoreTable,
}

impl Mapper for TableLoop {
    fn name(&self) -> &str {
        "table-loop"
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        const DEFER: f64 = 0.9;
        const WINDOW: usize = 32;
        let scorer = self
            .scorer
            .get_or_insert_with(|| ProbScorer::for_spec(ctx.spec(), ctx.drop_policy(), 16));
        scorer.begin_event(ctx.now());
        scorer.sync_membership(ctx.membership_epoch(), ctx.machines());
        let window = |ctx: &MapContext<'_>| WINDOW.min(ctx.batch().len());
        if ctx.total_free_slots() == 0 || window(ctx) == 0 {
            return;
        }
        self.table.ensure(scorer, ctx.machines(), &ctx.batch()[..window(ctx)], &|_| DEFER);
        while ctx.total_free_slots() > 0 {
            let candidates = (0..window(ctx)).filter_map(|row| {
                let (machine, score) = self.table.best_for_row(ctx.machines(), row)?;
                (score.robustness >= DEFER).then_some((row, machine, score.expected_completion))
            });
            let Some((row, machine, _)) = candidates.min_by(|a, b| a.2.total_cmp(&b.2)) else {
                break;
            };
            let id = ctx.batch()[row].id;
            ctx.assign(id, machine).expect("machine had a free slot");
            let rows = &ctx.batch()[..window(ctx)];
            self.table.apply_assignment(
                scorer,
                ctx.machines(),
                rows,
                row,
                machine.index(),
                &|_| DEFER,
            );
        }
        self.table.check_invariants(scorer, ctx.machines()).unwrap();
    }
}

/// Runs `tasks` through [`TableLoop`]; returns the table's `(pairs
/// scored, pairs bounded, pairs cut, pairs abandoned, rows shared)` for
/// the whole trial.
fn table_work(spec: &SystemSpec, tasks: &[Task], seeds: &SeedSequence) -> TableWork {
    let mut mapper = TableLoop { scorer: None, table: ScoreTable::new() };
    let report =
        run_simulation(spec, SimConfig::untrimmed(), tasks, &mut mapper, &mut seeds.stream(3));
    assert!(report.mapping_events > tasks.len() as u64, "arrivals and completions both map");
    let table = &mapper.table;
    (
        table.pairs_scored(),
        table.pairs_bounded(),
        table.pairs_cut(),
        table.pairs_abandoned(),
        table.rows_shared(),
    )
}

type TableWork = (u64, u64, u64, u64, u64);

/// The table's five work counters — completed kernel walks, pairs the
/// per-machine bound rejected in their place, pairs a column's tail-wide
/// deadline cutoff rejected, walks stopped below their row's threshold,
/// and appended rows that joined a live (type, deadline) class instead
/// of being scored — pinned on one fixed-seed
/// trial each of a 72-machine (three-shard) classic cluster, a
/// 72-machine serverless one, and a serverless burst whose window shares
/// classes. They are deterministic, so a pin that moves
/// means the table did different *work*: re-pin from the assertion
/// message once the reason is understood (a bound that reads the wrong
/// cell — the warm one for a cold placement — shows here as pairs moving
/// from the second counter to the others; a tail cutoff that is never
/// armed, as pairs moving from the third to the fourth; a stopping rule
/// that gives up too late, as pairs moving from the fourth to the first;
/// a class key that misses a field the score reads, as rows moving into
/// the fifth).
#[test]
fn table_work_counters_are_pinned() {
    let seeds = SeedSequence::new(72);
    let spec = specint_cluster(72, 6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: 500,
        oversubscription: 306_000.0,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    assert_eq!(table_work(&spec, &tasks, &seeds), CLASSIC_72M_TABLE_WORK, "classic");

    let faas = FaasConfig {
        num_functions: 12,
        num_machines: 72,
        num_tasks: 500,
        oversubscription: 790_000.0,
        ..FaasConfig::default()
    };
    let spec = faas_system(&faas, &mut seeds.stream(4));
    let tasks = FaasGenerator::new(faas).generate(&spec, &mut seeds.stream(5));
    assert_eq!(table_work(&spec, &tasks, &seeds), FAAS_72M_TABLE_WORK, "serverless");

    // Three functions in tight bursts: same-tick requests of one function
    // share a deadline, and many of their classes are live, so sharing
    // saves pair work here — a slot per row would score (3 328, 6 777,
    // 2 040) before the tail cutoff.
    let burst = FaasConfig {
        num_functions: 3,
        num_machines: 72,
        num_tasks: 500,
        oversubscription: 300_000.0,
        burst_shape: 0.02,
    };
    let spec = faas_system(&burst, &mut seeds.stream(6));
    let tasks = FaasGenerator::new(burst).generate(&spec, &mut seeds.stream(7));
    assert_eq!(table_work(&spec, &tasks, &seeds), BURST_72M_TABLE_WORK, "serverless burst");
}

const CLASSIC_72M_TABLE_WORK: TableWork = (10_818, 97_296, 3_772, 18_796, 0);
const FAAS_72M_TABLE_WORK: TableWork = (1_899, 522, 0, 19, 74);
const BURST_72M_TABLE_WORK: TableWork = (1_960, 1_905, 27, 438, 326);
