//! Fixtures and cross-checks shared by the scorer unit tests (and, for
//! the restore contract, by the PAM and MOC ones).

use super::kernel::score_unless_below;
use super::shared::{PetCdf, TABLE_SHARD_WIDTH};
use super::table::better_pair;
use super::{PairScore, ProbScorer, ScoreTable};
use crate::chain::{append_would_be_cold, PetTables};
use hcsim_model::{MachineId, PetMatrix, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::{testkit, MachineState};

/// Exact append scores with none of the scorer's tables but the prefix
/// CDF of every PET cell: a pair is scored in the cell
/// `ScorerShared::cdf_for` picks (cold when the append is a cold
/// placement under a cold-start model), walked to its end.
#[derive(Debug)]
pub(crate) struct ExactScores {
    warm: Vec<PetCdf>,
    cold: Option<Vec<PetCdf>>,
    machines: usize,
}

impl ExactScores {
    pub(crate) fn new(pets: PetTables<'_>) -> Self {
        let machines = pets.warm.machines();
        let cdfs = |pet: &PetMatrix| -> Vec<PetCdf> {
            let cells = pet.task_types() * machines;
            (0..cells)
                .map(|i| {
                    let (tt, m) = (TaskTypeId::from(i / machines), MachineId::from(i % machines));
                    PetCdf::build(pet.pmf(tt, m))
                })
                .collect()
        };
        Self { warm: cdfs(pets.warm), cold: pets.cold.map(cdfs), machines }
    }

    /// The exact score of appending `task` to `machine` behind `tail`.
    pub(crate) fn score(
        &self,
        tail: &Pmf,
        machine: &MachineState,
        task: &Task,
        policy: DropPolicy,
    ) -> PairScore {
        let cdfs = match &self.cold {
            Some(cold) if append_would_be_cold(machine, task.type_id) => cold,
            _ => &self.warm,
        };
        let cdf = &cdfs[task.type_id.index() * self.machines + machine.id().index()];
        score_unless_below(tail, cdf, task.deadline, policy, f64::NEG_INFINITY)
            .expect("no walk stops below an infinitely low threshold")
    }
}

pub(super) fn pet_single(points: &[(Time, f64)]) -> PetMatrix {
    PetMatrix::from_pmfs(1, 1, vec![Pmf::from_points(points).unwrap()])
}

pub(super) fn task_with_deadline(deadline: Time) -> Task {
    Task { id: hcsim_model::TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline }
}

/// Multi-machine fixture for the fan-out tests: `n` machines with
/// heterogeneous queues over a 2-type PET.
pub(super) fn fanout_fixture(n: usize) -> (PetMatrix, Vec<MachineState>) {
    let pmfs: Vec<Pmf> = (0..2 * n)
        .map(|i| {
            let base = 2 + (i as u64 % 5);
            Pmf::from_points(&[(base, 0.25), (base + 3, 0.5), (base + 7, 0.25)]).unwrap()
        })
        .collect();
    let pet = PetMatrix::from_pmfs(2, n, pmfs);
    let machines: Vec<MachineState> = (0..n)
        .map(|m| {
            let depth = m % 4; // heterogeneous queue depths, incl. idle
            let pending: Vec<Task> = (0..depth as u32)
                .map(|i| Task {
                    id: TaskId(m as u32 * 100 + i),
                    type_id: TaskTypeId((i % 2) as u16),
                    arrival: 0,
                    deadline: 60 + u64::from(i) * 25 + m as u64,
                })
                .collect();
            testkit::machine_with_pending(MachineId::from(m), 6, &pending)
        })
        .collect();
    (pet, machines)
}

/// Decision-level agreement between a (possibly bound-skipped) table
/// and exact scoring: wherever the exact best meets the threshold the
/// table must return it bit for bit; wherever it doesn't, the table
/// may return nothing or a value the reduction would defer anyway.
/// Pair by pair, what the table holds for a free machine is the exact
/// score, and what it left unscored is exactly below the threshold. The
/// table's own invariants ([`ScoreTable::check_invariants`]) are checked
/// on the way.
pub(super) fn assert_table_agrees_with_exact(
    table: &ScoreTable,
    scorer_ref: &mut ProbScorer,
    machines: &[MachineState],
    tasks: &[Task],
    threshold: &dyn Fn(TaskTypeId) -> f64,
) {
    table.check_invariants(scorer_ref, machines).unwrap();
    for (row, task) in tasks.iter().enumerate() {
        let mut exact: Option<(usize, PairScore)> = None;
        for (m, machine) in machines.iter().enumerate() {
            if !machine.has_free_slot() {
                continue;
            }
            let score = scorer_ref.score(machine, task);
            match table.get(row, m) {
                Some(held) => assert!(
                    held.robustness.to_bits() == score.robustness.to_bits()
                        && held.expected_completion.to_bits()
                            == score.expected_completion.to_bits(),
                    "({row},{m}): table holds {held:?}, exact is {score:?}"
                ),
                None => assert!(
                    score.robustness < threshold(task.type_id),
                    "({row},{m}): skipped, but exact r={} clears {}",
                    score.robustness,
                    threshold(task.type_id)
                ),
            }
            if exact.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                exact = Some((m, score));
            }
        }
        let got = table.best_for_row(machines, row);
        let t = threshold(task.type_id);
        match exact {
            Some((m, s)) if s.robustness >= t => {
                let (gm, gs) = got.unwrap_or_else(|| {
                    panic!("row {row}: exact best r={} ≥ {t} but table skipped", s.robustness)
                });
                assert_eq!(gm.index(), m, "row {row}: machine diverged");
                assert!(
                    gs.robustness.to_bits() == s.robustness.to_bits()
                        && gs.expected_completion.to_bits() == s.expected_completion.to_bits(),
                    "row {row}: {gs:?} vs {s:?}"
                );
            }
            _ => {
                if let Some((_, gs)) = got {
                    assert!(
                        gs.robustness < t,
                        "row {row}: table returned r={} above threshold {t} \
                         where exact best was below",
                        gs.robustness
                    );
                }
            }
        }
    }
}

/// Cross-checks a revalidated table against a from-scratch
/// [`ScoreTable::rebuild`] by a cold scorer at `now`: every entry both
/// tables scored is bitwise equal, `best_for_row` agrees wherever
/// either side clears the threshold (below it `ensure` may keep exact
/// scores a fresh bound pass would skip — deferred either way), and
/// the table agrees with exact per-pair scoring.
pub(super) fn assert_table_matches_fresh_rebuild(
    table: &ScoreTable,
    (pet, cold): (&PetMatrix, &PetMatrix),
    machines: &[MachineState],
    tasks: &[Task],
    now: Time,
    threshold: &dyn Fn(TaskTypeId) -> f64,
) {
    let mut fresh = ProbScorer::with_cold(pet, Some(cold), DropPolicy::All, 16);
    fresh.begin_event(now);
    let mut reference = ScoreTable::new();
    reference.rebuild(&mut fresh, machines, tasks, threshold);
    assert_eq!(table.rows(), reference.rows());
    for (row, task) in tasks.iter().enumerate() {
        for m in 0..machines.len() {
            if let (Some(a), Some(b)) = (table.get(row, m), reference.get(row, m)) {
                assert!(
                    a.robustness.to_bits() == b.robustness.to_bits()
                        && a.expected_completion.to_bits() == b.expected_completion.to_bits()
                        && a.mean_exec.to_bits() == b.mean_exec.to_bits(),
                    "t={now} ({row},{m}): {a:?} vs {b:?}"
                );
            }
        }
        let (got, want) =
            (table.best_for_row(machines, row), reference.best_for_row(machines, row));
        let clears = |best: &Option<(MachineId, PairScore)>| {
            best.is_some_and(|(_, s)| s.robustness >= threshold(task.type_id))
        };
        if clears(&got) || clears(&want) {
            assert_eq!(got, want, "t={now} row {row}: reduction diverged");
        }
    }
    assert_table_agrees_with_exact(table, &mut fresh, machines, tasks, threshold);
}

/// Two-shard serverless fixture with one deterministic warm cell and
/// a two-point cold one, idle machines everywhere: under a 0.9
/// threshold a δ = 105 row is dead wherever it would start cold
/// (`CDF_cold(105) = 0.5`) and alive wherever some machine would start
/// it warm (`CDF_warm(105) = 1`).
pub(super) fn two_shard_cold_fixture() -> (PetMatrix, PetMatrix, Vec<MachineState>) {
    let n = 2 * TABLE_SHARD_WIDTH;
    let warm = Pmf::from_points(&[(10, 1.0)]).unwrap();
    let cold = Pmf::from_points(&[(60, 0.5), (110, 0.5)]).unwrap();
    let machines = (0..n).map(|m| MachineState::new(MachineId::from(m), 4)).collect();
    (
        PetMatrix::from_pmfs(2, n, vec![warm; 2 * n]),
        PetMatrix::from_pmfs(2, n, vec![cold; 2 * n]),
        machines,
    )
}

/// Drives a cold-model table over `params.len()` machines — per
/// machine `(pending depth, first pending type, warm-container mask)`
/// — through a rebuild, a cross-tick `ensure` after the warm sets
/// churned (expiry, release, pin) and a run of same-tick assignments,
/// checking after every step that each scored pair is exact and each
/// unscored (row, free machine) pair is exactly below the threshold.
/// Returns whether the cross-tick `ensure` reused the table.
pub(super) fn drive_warm_aware_table(
    params: &[(usize, usize, usize)],
    rows: &[(usize, Time)],
    threshold: f64,
) -> bool {
    const TYPES: usize = 3;
    let n = params.len();
    let warm: Vec<Pmf> = (0..TYPES * n)
        .map(|i| {
            let o = i as u64 % 5;
            Pmf::from_points(&[(4 + o, 0.3), (9 + o, 0.5), (20 + o, 0.2)]).unwrap()
        })
        .collect();
    let cold: Vec<Pmf> =
        warm.iter().enumerate().map(|(i, p)| p.shift(25 + 10 * (i / n) as u64)).collect();
    let (pet, cold) = (PetMatrix::from_pmfs(TYPES, n, warm), PetMatrix::from_pmfs(TYPES, n, cold));
    let type_of = |i: usize| TaskTypeId((i % TYPES) as u16);
    let mut machines: Vec<MachineState> = params
        .iter()
        .enumerate()
        .map(|(m, &(depth, first_type, mask))| {
            let mut machine = MachineState::new(MachineId::from(m), 4);
            let queued = |i: usize| Task {
                id: TaskId((m * 10 + i) as u32),
                type_id: type_of(first_type + i),
                arrival: 0,
                deadline: 70 + 45 * i as u64 + (m % 7) as u64,
            };
            // Three machines in four execute (started at 0, first PET
            // impulse ≥ 4), so a tick inside that bucket re-keys only
            // the idle quarter.
            if m % 4 != 0 {
                assert!(testkit::start_executing(&mut machine, queued(3), 0, 30));
            }
            for i in 0..depth.min(machine.free_slots()) {
                assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(queued(i))));
            }
            for tt in (0..TYPES).filter(|tt| mask >> tt & 1 == 1) {
                testkit::set_warm(&mut machine, type_of(tt), 1_000);
            }
            machine
        })
        .collect();
    let mut tasks: Vec<Task> = rows
        .iter()
        .enumerate()
        .map(|(i, &(tt, deadline))| Task {
            id: TaskId(50_000 + i as u32),
            type_id: type_of(tt),
            arrival: 0,
            deadline,
        })
        .collect();
    let thr = move |_: TaskTypeId| threshold;
    let check = |table: &ScoreTable, machines: &[MachineState], tasks: &[Task], now: Time| {
        let mut exact = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
        exact.begin_event(now);
        assert_table_agrees_with_exact(table, &mut exact, machines, tasks, &thr);
    };
    let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(2);
    table.rebuild(&mut scorer, &machines, &tasks, &thr);
    check(&table, &machines, &tasks, 2);

    // Next tick, warm sets churned on every fifth machine: a resident
    // container expires, or one appears — released or pinned.
    for (m, machine) in machines.iter_mut().enumerate().step_by(5) {
        if !testkit::expire_warm(machine, type_of(m), 1_000) {
            testkit::set_warm(machine, type_of(m), if m % 2 == 0 { Time::MAX } else { 900 });
        }
    }
    scorer.begin_event(3);
    let reused = table.ensure(&mut scorer, &machines, &tasks, &thr);
    check(&table, &machines, &tasks, 3);

    // The mapper's loop at that tick: assign a row, slide a same-type
    // arrival into the window, refresh the assigned machine.
    for step in 0..6 {
        let row = step % tasks.len();
        let Some(m) =
            (0..n).map(|i| (i * 7 + step * 13) % n).find(|&m| machines[m].has_free_slot())
        else {
            break;
        };
        let assigned = tasks.remove(row);
        assert!(testkit::apply(&mut machines[m], testkit::QueueOp::Push(assigned)));
        let admitted =
            Task { id: TaskId(60_000 + step as u32), deadline: assigned.deadline + 3, ..assigned };
        tasks.push(admitted);
        table.apply_assignment(&mut scorer, &machines, &tasks, row, m, &thr);
        check(&table, &machines, &tasks, 3);
    }
    reused
}

/// The restore contract of a scorer-owning mapper (PAM, MOC), shared by
/// their regression tests. Machine versions are unique only within one
/// timeline: a live mapper that has seen machine 0 at version 1 holding
/// task A must not serve that chain when the restored timeline shows it
/// machine 0 at version 1 holding task B.
pub(crate) fn assert_restore_drops_abandoned_chains<M: hcsim_sim::Mapper>(
    mapper: &mut M,
    scorer_of: fn(&mut M) -> &mut ProbScorer,
) {
    use hcsim_sim::{run_simulation, SimConfig};
    use hcsim_workload::{specint_system, WorkloadConfig, WorkloadGenerator};
    let seeds = hcsim_stats::SeedSequence::new(8);
    let spec = specint_system(6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: 60,
        oversubscription: 19_000.0,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    let _ =
        run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut *mapper, &mut seeds.stream(2));
    let queued = |tt: u16, deadline| {
        let task = Task { id: TaskId(0), type_id: TaskTypeId(tt), arrival: 0, deadline };
        hcsim_sim::testkit::machine_with_pending(MachineId(0), spec.queue_capacity, &[task])
    };
    let (abandoned, restored) = (queued(0, 900), queued(1, 700));
    assert_eq!(abandoned.version(), restored.version());
    let scorer = scorer_of(mapper);
    scorer.begin_event(5);
    let stale = scorer.tail(&abandoned).clone();

    let blob = mapper.snapshot_state();
    mapper.restore_state(&blob);
    let scorer = scorer_of(mapper);
    scorer.begin_event(5);
    let served = scorer.tail(&restored).clone();
    assert_eq!(served, scorer.analyze(&restored, 5).tail);
    assert_ne!(served, stale, "the fixture must tell the two timelines apart");
}
