//! Unit tests of the scorer, grouped by the file whose code they
//! exercise. They stay in one `scorer::tests` module so every test keeps
//! the name it had before `scorer.rs` was split.

use super::kernel::{
    deadline_cutoff, score_column_scatter, tail_cutoff, Cutoffs, LiveRow, PairWork, BOUND_MARGIN,
};
use super::shared::{envelope_cdf, PetCdf, SpecMemo, TABLE_SHARD_WIDTH};
use super::table::better_pair;
use super::test_support::*;
use super::*;
use crate::chain::analyze_queue;
use hcsim_model::{TaskId, TaskTypeId};
use hcsim_pmf::queue_step;
use hcsim_sim::testkit;

// --- shared.rs: envelope CDFs and the per-system memo ---

/// The cursor scan [`envelope_cdf`] replaced: per breakpoint, the max
/// over every member's prefix at or before it. Kept as the reference
/// the sweep is checked against.
fn envelope_cdf_reference(members: &[PetCdf]) -> PetCdf {
    let mut times: Vec<Time> = members.iter().flat_map(|c| c.times.iter().copied()).collect();
    times.sort_unstable();
    times.dedup();
    let mut cursors = vec![0usize; members.len()];
    let prefix = times
        .iter()
        .map(|&t| {
            let mut v = 0.0f64;
            for (cursor, member) in cursors.iter_mut().zip(members) {
                while *cursor < member.times.len() && member.times[*cursor] <= t {
                    *cursor += 1;
                }
                if *cursor > 0 {
                    v = v.max(member.prefix[*cursor - 1]);
                }
            }
            v
        })
        .collect();
    PetCdf { times, prefix, mean: f64::NAN }
}

#[test]
fn envelope_sweep_equals_the_cursor_scan() {
    // Members with shared, interleaved and disjoint breakpoints, of
    // unequal mass and length — including a single-member "shard".
    let members: Vec<PetCdf> = (0..40u64)
        .map(|i| {
            let points: Vec<(Time, f64)> = (0..3 + i % 6)
                .map(|j| (3 + (i * 7 + j * (2 + i % 4)) % 90, 0.05 + ((i + j) % 5) as f64 * 0.04))
                .collect();
            PetCdf::build(&Pmf::from_points(&points).unwrap())
        })
        .collect();
    for shard in [&members[..], &members[..32], &members[32..], &members[7..8]] {
        let (got, want) = (envelope_cdf(shard), envelope_cdf_reference(shard));
        assert_eq!(got.times, want.times);
        let bits = |c: &PetCdf| c.prefix.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}

/// A small serverless system for the memo tests.
fn memo_spec() -> SystemSpec {
    let cfg = hcsim_workload::FaasConfig {
        num_functions: 4,
        num_machines: 3,
        ..hcsim_workload::FaasConfig::default()
    };
    hcsim_workload::faas_system(&cfg, &mut hcsim_stats::SeedSequence::new(77).stream(0))
}

/// `pet` with the first cell's support moved by one tick.
fn with_one_cell_changed(pet: &PetMatrix) -> PetMatrix {
    let (types, machines) = (pet.task_types(), pet.machines());
    let mut pmfs: Vec<Pmf> = (0..types * machines)
        .map(|i| pet.pmf(TaskTypeId::from(i / machines), MachineId::from(i % machines)).clone())
        .collect();
    pmfs[0] = pmfs[0].shift(1);
    PetMatrix::from_pmfs(types, machines, pmfs)
}

#[test]
fn spec_memo_shares_tables_until_an_input_changes() {
    let spec = memo_spec();
    let mut memo = SpecMemo { entry: None };
    let first = memo.tables_for(&spec, DropPolicy::All, 24);
    let again = memo.tables_for(&spec.clone(), DropPolicy::All, 24);
    assert!(Arc::ptr_eq(&first, &again), "an equal system must share the tables");
    assert!(first.cold_pet.is_some() && first.cold_shard_cdfs.is_some());
    // The tables share the spec's PET rather than copying it…
    let cell = |pet: &PetMatrix| pet.pmf(TaskTypeId(1), MachineId(2)).times().as_ptr();
    assert_eq!(cell(&first.pet), cell(&spec.pet), "the tables must share the spec's cells");
    // …so `spec.clone()` above hits on identity alone. A system rebuilt
    // from the same seed shares nothing and must hit on value.
    let rebuilt = memo_spec();
    assert_ne!(cell(&rebuilt.pet), cell(&spec.pet));
    let rebuilt_spinup = &rebuilt.coldstart.as_ref().expect("serverless spec").spinup;
    assert_ne!(cell(rebuilt_spinup), cell(&spec.coldstart.as_ref().unwrap().spinup));
    let on_value = memo.tables_for(&rebuilt, DropPolicy::All, 24);
    assert!(Arc::ptr_eq(&first, &on_value), "an equal, separately built system must hit");

    let mut spinup_changed = spec.clone();
    let model = spinup_changed.coldstart.as_mut().expect("serverless spec");
    model.spinup = with_one_cell_changed(&model.spinup);
    let mut pet_changed = spec.clone();
    pet_changed.pet = with_one_cell_changed(&spec.pet);
    let mut classic = spec.clone();
    classic.coldstart = None;
    let variants: [(&str, &SystemSpec, DropPolicy, usize); 5] = [
        ("one spin-up cell", &spinup_changed, DropPolicy::All, 24),
        ("one PET cell", &pet_changed, DropPolicy::All, 24),
        ("no cold model", &classic, DropPolicy::All, 24),
        ("budget", &spec, DropPolicy::All, 16),
        ("policy", &spec, DropPolicy::PendingOnly, 24),
    ];
    for (what, variant, policy, budget) in variants {
        let base = memo.tables_for(&spec, DropPolicy::All, 24);
        let other = memo.tables_for(variant, policy, budget);
        assert!(!Arc::ptr_eq(&base, &other), "{what} changed: the tables must be re-derived");
        assert_eq!((other.policy, other.budget), (policy, budget));
        assert!(other.pet == variant.pet, "{what}: tables derived from the wrong PET");
    }
}

#[test]
fn spec_memo_derives_once_under_concurrent_requests() {
    let spec = memo_spec();
    let memo = std::sync::Mutex::new(SpecMemo { entry: None });
    let barrier = std::sync::Barrier::new(4);
    let tables: Vec<Arc<ScorerShared>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    memo.lock().unwrap().tables_for(&spec, DropPolicy::All, 24)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    // The first thread through derived; had another derived too, its
    // tables would be a different allocation.
    assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
}

// --- tail.rs: the incremental availability chain ---

#[test]
fn tail_cache_respects_version_and_event() {
    let pet = pet_single(&[(5, 0.5), (20, 0.5)]);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut machine = MachineState::new(MachineId(0), 4);
    scorer.begin_event(100);
    let t1 = scorer.tail(&machine).clone();
    assert_eq!(t1.min_time(), 100, "idle tail anchors at now");
    // Same event: cached.
    let builds = scorer.chain_builds(MachineId(0));
    assert_eq!(*scorer.tail(&machine), t1);
    assert_eq!(scorer.chain_builds(MachineId(0)), builds);
    // A later event re-keys an idle head: the tail moves to the new now.
    scorer.begin_event(250);
    assert_eq!(scorer.tail(&machine).min_time(), 250);

    // An executing head is keyed on its conditioning bucket, not on the
    // clock: started at 250, the PET impulse at 5 is ruled out from 255
    // and the one at 20 from 270.
    assert!(testkit::start_executing(&mut machine, task_with_deadline(900), 250, 20));
    scorer.begin_event(251);
    let running = scorer.tail(&machine).clone();
    assert_eq!(running.times(), [255, 270], "completion = PET shifted to the start time");
    let builds = scorer.chain_builds(MachineId(0));
    scorer.begin_event(254);
    assert_eq!(*scorer.tail(&machine), running, "same bucket at a later tick: same head");
    assert_eq!(scorer.chain_builds(MachineId(0)), builds, "and no rebuild");
    scorer.begin_event(255);
    assert_eq!(scorer.tail(&machine).times(), [270], "crossing an impulse re-keys the head");
    assert_eq!(scorer.chain_builds(MachineId(0)), builds + 1);
    // Overdue (elapsed past the whole PET): "any moment now", per tick.
    scorer.begin_event(280);
    assert_eq!(scorer.tail(&machine).times(), [281]);
    scorer.begin_event(281);
    assert_eq!(scorer.tail(&machine).times(), [282]);
    // A version bump inside a held bucket still extends the chain.
    scorer.begin_event(251);
    let _ = scorer.tail(&machine);
    let builds = scorer.chain_builds(MachineId(0));
    assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(task_with_deadline(900))));
    scorer.begin_event(252);
    let appended = scorer.tail(&machine).clone();
    assert_eq!(scorer.chain_builds(MachineId(0)), builds + 1, "one link, head reused");
    assert_eq!(appended, analyze_queue(&machine, &pet, 252, DropPolicy::All, 16).tail);
}

#[test]
fn incremental_append_matches_from_scratch() {
    let pet = pet_single(&[(3, 0.25), (5, 0.5), (9, 0.25)]);
    let mut machine = MachineState::new(MachineId(0), 8);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(10);
    // Grow the queue one task at a time; after every append the cached
    // tail (one incremental queue_step) must equal a from-scratch
    // analysis of the whole queue.
    let mut builds = Vec::new();
    for i in 0..6u32 {
        let t = Task {
            id: TaskId(i),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: 30 + u64::from(i) * 20,
        };
        assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(t)));
        let before = scorer.chain_builds(MachineId(0));
        let cached = scorer.tail(&machine).clone();
        builds.push(scorer.chain_builds(MachineId(0)) - before);
        let scratch = analyze_queue(&machine, &pet, 10, DropPolicy::All, 16);
        assert_eq!(cached, scratch.tail, "append {i}");
    }
    // One link per append; the first append also builds the idle head.
    assert_eq!(builds, [2, 1, 1, 1, 1, 1]);
    // Replacing the last task at depth 6 rebuilds only the last link.
    assert!(testkit::apply(&mut machine, testkit::QueueOp::RemovePending(TaskId(5))));
    let t = Task { id: TaskId(6), type_id: TaskTypeId(0), arrival: 0, deadline: 150 };
    assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(t)));
    let before = scorer.chain_builds(MachineId(0));
    let cached = scorer.tail(&machine).clone();
    assert_eq!(scorer.chain_builds(MachineId(0)) - before, 1);
    assert_eq!(cached, analyze_queue(&machine, &pet, 10, DropPolicy::All, 16).tail);
}

#[test]
fn incremental_mid_queue_drop_matches_from_scratch() {
    let pet = pet_single(&[(3, 0.25), (5, 0.5), (9, 0.25)]);
    let mut machine = MachineState::new(MachineId(0), 8);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(0);
    for i in 0..5u32 {
        let t = Task {
            id: TaskId(i),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: 40 + u64::from(i) * 25,
        };
        testkit::apply(&mut machine, testkit::QueueOp::Push(t));
    }
    let _ = scorer.tail(&machine);
    // Drop the middle task: the cache reuses the prefix ahead of it and
    // rebuilds only the two links behind it.
    testkit::apply(&mut machine, testkit::QueueOp::RemovePending(TaskId(2)));
    let before = scorer.chain_builds(MachineId(0));
    let cached = scorer.tail(&machine).clone();
    assert_eq!(scorer.chain_builds(MachineId(0)) - before, 2);
    let scratch = analyze_queue(&machine, &pet, 0, DropPolicy::All, 16);
    assert_eq!(cached, scratch.tail);
}

#[test]
fn slot_scores_match_analyze_queue() {
    let pet = pet_single(&[(4, 0.5), (8, 0.5)]);
    let mut machine = MachineState::new(MachineId(0), 6);
    for i in 0..3u32 {
        let t = Task {
            id: TaskId(i),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: 20 + u64::from(i) * 15,
        };
        testkit::apply(&mut machine, testkit::QueueOp::Push(t));
    }
    testkit::apply(&mut machine, testkit::QueueOp::StartNext { now: 2, total_exec: 6 });
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(5);
    let slots = scorer.slot_scores(&machine).to_vec();
    let reference = analyze_queue(&machine, &pet, 5, DropPolicy::All, 16);
    assert_eq!(slots.len(), reference.slots.len());
    for (got, want) in slots.iter().zip(&reference.slots) {
        assert_eq!(got.task.id, want.task.id);
        assert_eq!(got.position, want.position);
        assert!((got.robustness - want.robustness).abs() == 0.0, "robustness drift");
        assert!((got.skewness - want.skewness).abs() == 0.0, "skewness drift");
    }
}

/// The memory a cached chain keeps: after chains are built stats-free
/// and then in stats mode on a 72-machine cluster of 32-impulse PETs —
/// queues of up to six, executing heads on half the machines — every
/// head and link holds storage of link size, at most twice the budget in
/// impulses, although its uncompacted availability spans many more.
#[test]
fn cached_chains_keep_link_sized_storage() {
    const BUDGET: usize = 24;
    let seeds = hcsim_stats::SeedSequence::new(72);
    let spec = hcsim_workload::specint_cluster(72, 7, &mut seeds.stream(0));
    let machines: Vec<MachineState> = (0..72u32)
        .map(|m| {
            let pending: Vec<Task> = (0..m % 7)
                .map(|i| Task {
                    id: TaskId(m * 10 + i),
                    type_id: TaskTypeId(((m + i) % 12) as u16),
                    arrival: 0,
                    deadline: 150 + u64::from(i) * 120 + u64::from(m % 5) * 40,
                })
                .collect();
            let mut machine =
                testkit::machine_with_pending(MachineId::from(m as usize), 7, &pending);
            if m % 2 == 1 {
                testkit::apply(
                    &mut machine,
                    testkit::QueueOp::StartNext { now: 0, total_exec: 90 },
                );
            }
            machine
        })
        .collect();
    let mut scorer = ProbScorer::new(&spec.pet, DropPolicy::All, BUDGET);
    scorer.begin_event(20);
    let mut compacted = 0;
    for want_stats in [false, true] {
        scorer.warm_caches(&machines, want_stats);
        for m in 0..machines.len() {
            scorer.cells.with(m, |cell| {
                for pmf in cell.cache.chain() {
                    compacted += usize::from(pmf.len() == BUDGET);
                    assert!(
                        pmf.heap_bytes() <= 2 * 16 * BUDGET,
                        "machine {m}: {} bytes for {} impulses (stats {want_stats})",
                        pmf.heap_bytes(),
                        pmf.len()
                    );
                }
            });
        }
    }
    assert!(compacted > 100, "only {compacted} links reached the budget");
}

// --- kernel.rs: closed-form pair scoring ---

/// The exact score of a task with execution CDF `cdf` and `deadline`
/// appended behind `tail`: the kernel held to no threshold.
fn exact_score(tail: &Pmf, cdf: &PetCdf, deadline: Time, policy: DropPolicy) -> PairScore {
    score_unless_below(tail, cdf, deadline, policy, f64::NEG_INFINITY)
        .expect("no walk stops below an infinitely low threshold")
}

/// [`exact_score`] against the one cell of a 1×1 PET.
fn exact_score_single(
    pet: &PetMatrix,
    tail: &Pmf,
    deadline: Time,
    policy: DropPolicy,
) -> PairScore {
    let shared = ScorerShared::derive(pet.clone(), None, policy, 64);
    exact_score(tail, shared.cdf(TaskTypeId(0), MachineId(0)), deadline, policy)
}

#[test]
fn closed_form_matches_queue_step() {
    let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
    let tail = Pmf::from_points(&[(1, 0.3), (4, 0.4), (9, 0.3)]).unwrap();
    for deadline in [1u64, 3, 5, 7, 9, 12, 20] {
        for policy in [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All] {
            let score = exact_score_single(&pet, &tail, deadline, policy);
            let step = queue_step(&tail, pet.pmf(TaskTypeId(0), MachineId(0)), deadline, policy);
            assert!(
                (score.robustness - step.robustness).abs() < 1e-12,
                "robustness mismatch at δ={deadline} {policy:?}: {} vs {}",
                score.robustness,
                step.robustness
            );
            if policy != DropPolicy::None {
                match &step.completion {
                    Some(c) => {
                        assert!(
                            (score.expected_completion - c.mean()).abs() < 1e-9,
                            "mean mismatch at δ={deadline} {policy:?}"
                        );
                    }
                    None => assert!(score.expected_completion.is_infinite()),
                }
            }
        }
    }
}

#[test]
fn policy_none_mean_is_additive() {
    let pet = pet_single(&[(2, 0.5), (6, 0.5)]);
    let tail = Pmf::from_points(&[(10, 0.5), (20, 0.5)]).unwrap();
    let score = exact_score_single(&pet, &tail, 5, DropPolicy::None);
    assert!((score.expected_completion - (15.0 + 4.0)).abs() < 1e-9);
}

#[test]
fn mean_exec_reported() {
    let pet = pet_single(&[(2, 0.5), (6, 0.5)]);
    let score = exact_score_single(&pet, &Pmf::delta(0), 100, DropPolicy::All);
    assert!((score.mean_exec - 4.0).abs() < 1e-12);
    assert!((score.robustness - 1.0).abs() < 1e-12);
}

#[test]
fn score_on_idle_machine_matches_direct() {
    let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let machine = MachineState::new(MachineId(0), 4);
    scorer.begin_event(10);
    let task = task_with_deadline(14);
    let score = scorer.score(&machine, &task);
    // Start at 10; completes by 14 iff exec <= 4 → 0.75.
    assert!((score.robustness - 0.75).abs() < 1e-12);
}

#[test]
fn hopeless_deadline_scores_zero() {
    let pet = pet_single(&[(2, 1.0)]);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let machine = MachineState::new(MachineId(0), 4);
    scorer.begin_event(100);
    let score = scorer.score(&machine, &task_with_deadline(50));
    assert_eq!(score.robustness, 0.0);
    assert!(score.expected_completion.is_infinite());
}

const POLICIES: [DropPolicy; 3] = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All];

/// A live row of type `tt` in slot `row`, held to `threshold`.
fn live_row(row: usize, tt: u16, deadline: Time, threshold: f64) -> LiveRow {
    let task = Task { id: TaskId(row as u32), type_id: TaskTypeId(tt), arrival: 0, deadline };
    LiveRow { row, task, threshold }
}

/// Fills one column through [`score_column_scatter`] — deadline cutoffs,
/// then one walk per admitted row — and checks every row against the
/// table's contract: a `None` has an exact robustness below the row's
/// threshold, a `Some` is the exact score bit for bit, and every pair
/// whose exact score clears the threshold is `Some`. The column walks no
/// more pairs than the pairwise path — the per-pair bound
/// ([`ScorerShared::pair_clears`]), then the scalar walk under the row's
/// threshold — whose walks are checked against the exact score in turn:
/// a stopped walk is below the threshold, a finished one is exact. (The
/// column may leave unscored a pair that path scores: one below its
/// threshold that the tail-wide cutoff rejects.)
fn assert_column_matches_pairwise(
    tail: &Pmf,
    shared: &ScorerShared,
    machine: &MachineState,
    live: &[LiveRow],
    cutoffs: &mut Cutoffs,
) {
    let bits = |s: Option<PairScore>| {
        s.map(|s| (s.robustness.to_bits(), s.expected_completion.to_bits(), s.mean_exec.to_bits()))
    };
    let mut col = vec![None; live.iter().map(|l| l.row + 1).max().unwrap_or(0)];
    let work = score_column_scatter(tail, shared, machine, live, cutoffs, &mut col);
    let mut pairwise = PairWork::default();
    for l in live {
        let cdf = shared.cdf_for(l.task.type_id, machine);
        let exact = exact_score(tail, cdf, l.task.deadline, shared.policy);
        let walked = score_unless_below(tail, cdf, l.task.deadline, shared.policy, l.threshold);
        match walked {
            Some(_) => assert_eq!(bits(walked), bits(Some(exact)), "{l:?}: finished walk"),
            None => assert!(
                exact.robustness < l.threshold,
                "{l:?}: the walk stopped, but the exact score is {exact:?}"
            ),
        }
        if shared.pair_clears(machine, &l.task, tail.min_time(), l.threshold) {
            pairwise += PairWork::of(walked);
        }
        match col[l.row] {
            Some(_) => assert_eq!(bits(col[l.row]), bits(Some(exact)), "{l:?}: column score"),
            None => assert!(
                exact.robustness < l.threshold,
                "{l:?}: unscored in the column, but the exact score is {exact:?}"
            ),
        }
    }
    assert_eq!(work.scored, col.iter().flatten().count(), "scored count");
    assert!(
        work.scored + work.abandoned <= pairwise.scored + pairwise.abandoned,
        "the column walked {work:?}, the pairwise path {pairwise:?}"
    );
    assert!(work.scored + work.abandoned + work.cut <= live.len(), "{work:?} of {}", live.len());
}

#[test]
fn column_cutoffs_agree_with_the_pair_bound_at_the_edges() {
    // Two types on one machine, warm and cold cells with breakpoints the
    // rows' slack lands on, before and after; a tail starting at 10.
    let warm = [&[(5, 0.25), (9, 0.25), (14, 0.5)][..], &[(3, 0.5), (20, 0.5)][..]];
    let cells = |shift: Time| {
        let shifted = |c: &[(Time, f64)]| {
            Pmf::from_points(&c.iter().map(|&(t, p)| (t + shift, p)).collect::<Vec<_>>()).unwrap()
        };
        PetMatrix::from_pmfs(2, 1, warm.iter().map(|c| shifted(c)).collect())
    };
    let (pet, cold) = (cells(0), cells(10));
    let tail = Pmf::from_points(&[(10, 0.5), (16, 0.3), (40, 0.2)]).unwrap();
    let earliest = tail.min_time();
    // Type 0 warm and type 1 cold on the first machine; the second
    // places both cold.
    let mut warm0 = MachineState::new(MachineId(0), 4);
    testkit::set_warm(&mut warm0, TaskTypeId(0), 1_000);
    let all_cold = MachineState::new(MachineId(0), 4);
    // Slack exactly on every breakpoint of every cell, one tick either
    // side, none at all (`earliest ≥ δ`), and past the tail's end.
    let mut deadlines = vec![0, earliest - 1, earliest, earliest + 1, 100];
    for t in [3, 5, 9, 13, 14, 15, 19, 20, 24, 30] {
        deadlines.extend([earliest + t - 1, earliest + t, earliest + t + 1]);
    }
    for policy in POLICIES {
        let shared = ScorerShared::derive(pet.clone(), Some(cold.clone()), policy, 16);
        // One scratch across every column: no entry may outlive its own.
        let mut cutoffs = Cutoffs::default();
        for machine in [&warm0, &all_cold] {
            // Thresholds a zero bound clears (≤ BOUND_MARGIN), each
            // cell's prefix steps exactly and just past where the bound
            // clears them, and certainty.
            let mut thresholds = vec![0.0, BOUND_MARGIN / 2.0, BOUND_MARGIN, 1.0];
            for tt in 0..2 {
                for &p in &shared.cdf_for(TaskTypeId(tt), machine).prefix {
                    let at = p + BOUND_MARGIN;
                    thresholds.extend([p, at, f64::from_bits(at.to_bits() + 1)]);
                }
            }
            let mut live = Vec::new();
            for &deadline in &deadlines {
                for tt in 0..2 {
                    for &threshold in &thresholds {
                        live.push(live_row(live.len(), tt, deadline, threshold));
                    }
                }
            }
            assert_column_matches_pairwise(&tail, &shared, machine, &live, &mut cutoffs);
            // The same rows behind a later tail: equal thresholds, new
            // cutoffs.
            let later = tail.shift(7);
            assert_column_matches_pairwise(&later, &shared, machine, &live, &mut cutoffs);
        }
    }
}

#[test]
fn a_threshold_tie_on_a_tail_half_an_epsilon_heavy_still_scores() {
    // The tail carries 1 + MASS_EPSILON/2: more than the stopping rule's
    // `1 − mass` assumes, which only BOUND_MARGIN absorbs. Held to exactly
    // its own exact score, the pair must still come back scored.
    let tail = Pmf::from_points(&[(10, 0.5 + hcsim_pmf::MASS_EPSILON / 2.0), (50, 0.5)]).unwrap();
    assert!(tail.mass() > 1.0 && tail.is_normalized());
    let pet = pet_single(&[(5, 0.5), (60, 0.5)]);
    let machine = MachineState::new(MachineId(0), 4);
    for policy in POLICIES {
        let shared = ScorerShared::derive(pet.clone(), None, policy, 16);
        let cdf = shared.cdf(TaskTypeId(0), MachineId(0));
        let exact = exact_score(&tail, cdf, 100, policy);
        assert!(exact.robustness > 0.75 && exact.robustness < 0.76, "{exact:?}");
        let tie = score_unless_below(&tail, cdf, 100, policy, exact.robustness);
        assert_eq!(tie, Some(exact), "{policy:?}");
        let live: Vec<LiveRow> =
            (0..5).map(|row| live_row(row, 0, 100, exact.robustness)).collect();
        assert_column_matches_pairwise(&tail, &shared, &machine, &live, &mut Cutoffs::default());
    }
}

// --- table.rs: the (window x machine) score table ---

#[test]
fn an_abandoned_walk_arms_the_tail_cutoff_from_the_next_row() {
    // Half the tail starts at 0, half at 40, and the cell finishes at
    // exactly 10. A deadline in (40, 50) clears the first-impulse cutoff
    // (10) but not the tail-wide one (40 + 10): its walk gathers 0.5 at
    // the first impulse and stops at the second, which cannot start on
    // time. Five such rows of one type and one threshold.
    let tail = Pmf::from_points(&[(0, 0.5), (40, 0.5)]).unwrap();
    let shared = ScorerShared::derive(pet_single(&[(10, 1.0)]), None, DropPolicy::All, 16);
    let machine = MachineState::new(MachineId(0), 4);
    let live: Vec<LiveRow> = (0..5).map(|row| live_row(row, 0, 41 + row as Time, 0.9)).collect();
    let cdf = shared.cdf_for(TaskTypeId(0), &machine);
    assert_eq!((deadline_cutoff(0, cdf, 0.9), tail_cutoff(&tail, cdf, 0.9)), (Some(10), Some(50)));
    // The first walk stops and arms the type's tail cutoff; the next row
    // resolves it, and it and the three after it are cut without a walk.
    let mut col = vec![None; live.len()];
    let work =
        score_column_scatter(&tail, &shared, &machine, &live, &mut Cutoffs::default(), &mut col);
    assert_eq!(work, PairWork { scored: 0, abandoned: 1, cut: 4, resolved: 1 });
    assert_column_matches_pairwise(&tail, &shared, &machine, &live, &mut Cutoffs::default());
}

#[test]
fn score_table_matches_pairwise_scoring_bitwise() {
    // 20 machines crosses PARALLEL_MIN_MACHINES, so threads=4 takes a
    // real fan-out. Every table entry must equal a direct `score`
    // call bit for bit, on the calling thread and on the pool.
    let (pet, machines) = fanout_fixture(20);
    let tasks: Vec<Task> = (0..7u32)
        .map(|i| Task {
            id: TaskId(1_000 + i),
            type_id: TaskTypeId((i % 2) as u16),
            arrival: 0,
            deadline: 40 + u64::from(i) * 30,
        })
        .collect();
    let mut scorer_ref = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer_ref.begin_event(5);
    for (label, threads) in [("seq", 1), ("pool", 4)] {
        let mut table = ScoreTable::new();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(5);
        scorer.set_parallelism(threads);
        assert_eq!(scorer.pool_active(), threads > 1);
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        table.check_invariants(&mut scorer_ref, &machines).unwrap();
        for (i, task) in tasks.iter().enumerate() {
            for (m, machine) in machines.iter().enumerate() {
                let direct = scorer_ref.score(machine, task);
                let got = table.get(i, m).expect("free slot scored");
                assert!(
                    got.robustness.to_bits() == direct.robustness.to_bits()
                        && got.expected_completion.to_bits()
                            == direct.expected_completion.to_bits()
                        && got.mean_exec.to_bits() == direct.mean_exec.to_bits(),
                    "{label} table ({i},{m}) diverged: {got:?} vs {direct:?}"
                );
            }
        }
    }
}

#[test]
fn score_table_incremental_updates_track_live_state() {
    let (pet, mut machines) = fanout_fixture(6);
    let mut tasks: Vec<Task> = (0..5u32)
        .map(|i| Task {
            id: TaskId(500 + i),
            type_id: TaskTypeId((i % 2) as u16),
            arrival: 0,
            deadline: 50 + u64::from(i) * 20,
        })
        .collect();
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(3);
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
    assert_eq!(table.rows(), 5);
    // "Assign" task row 1 to machine 2 — mutate the machine, let a new
    // batch task slide into the window — and repair the table through
    // the call the mappers make: it must equal a fresh rebuild.
    let assigned = tasks.remove(1);
    assert!(testkit::apply(&mut machines[2], testkit::QueueOp::Push(assigned)));
    let fresh = Task { id: TaskId(900), type_id: TaskTypeId(1), arrival: 0, deadline: 220 };
    tasks.push(fresh);
    table.apply_assignment(&mut scorer, &machines, &tasks, 1, 2, &|_| 0.0);
    table.check_invariants(&mut scorer, &machines).unwrap();
    let mut reference = ScoreTable::new();
    let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    ref_scorer.begin_event(3);
    reference.rebuild(&mut ref_scorer, &machines, &tasks, &|_| 0.0);
    assert_eq!(table.rows(), reference.rows());
    for i in 0..tasks.len() {
        for m in 0..machines.len() {
            let (a, b) = (table.get(i, m), reference.get(i, m));
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert!(
                        a.robustness.to_bits() == b.robustness.to_bits()
                            && a.expected_completion.to_bits() == b.expected_completion.to_bits(),
                        "({i},{m}): {a:?} vs {b:?}"
                    );
                }
                (None, None) => {}
                other => panic!("presence mismatch at ({i},{m}): {other:?}"),
            }
        }
    }
}

#[test]
fn score_table_ensure_matches_rebuild_after_same_tick_changes() {
    // Two shards' worth of machines; a burst of mapping events at the
    // same instant with completions, a queue growth, a departed window
    // row, and an appended arrival in between. The revalidated table
    // must be cell-for-cell identical to a from-scratch rebuild.
    let (pet, mut machines) = fanout_fixture(40);
    let mut tasks: Vec<Task> = (0..8u32)
        .map(|i| Task {
            id: TaskId(1_000 + i),
            type_id: TaskTypeId((i % 2) as u16),
            arrival: 0,
            deadline: 45 + u64::from(i) * 25,
        })
        .collect();
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(3);
    let mut table = ScoreTable::new();
    assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "an empty table must rebuild");
    // Next burst event, same tick: machine 5's queue grew (assignment),
    // machine 21 finished its pending task (completion), row 2 left the
    // window, a fresh arrival slid in.
    let grown = Task { id: TaskId(800), type_id: TaskTypeId(0), arrival: 0, deadline: 200 };
    assert!(testkit::apply(&mut machines[5], testkit::QueueOp::Push(grown)));
    assert!(testkit::apply(&mut machines[21], testkit::QueueOp::RemovePending(TaskId(2100))));
    tasks.remove(2);
    tasks.push(Task { id: TaskId(900), type_id: TaskTypeId(1), arrival: 0, deadline: 220 });
    scorer.begin_event(3);
    assert!(
        table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0),
        "same tick + same epoch must take the reuse path"
    );
    table.check_invariants(&mut scorer, &machines).unwrap();
    let mut reference = ScoreTable::new();
    let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    ref_scorer.begin_event(3);
    reference.rebuild(&mut ref_scorer, &machines, &tasks, &|_| 0.0);
    assert_eq!(table.rows(), reference.rows());
    for i in 0..tasks.len() {
        for m in 0..machines.len() {
            match (table.get(i, m), reference.get(i, m)) {
                (Some(a), Some(b)) => assert!(
                    a.robustness.to_bits() == b.robustness.to_bits()
                        && a.expected_completion.to_bits() == b.expected_completion.to_bits(),
                    "({i},{m}): {a:?} vs {b:?}"
                ),
                (None, None) => {}
                other => panic!("presence mismatch at ({i},{m}): {other:?}"),
            }
        }
        assert_eq!(
            table.best_for_row(&machines, i),
            reference.best_for_row(&machines, i),
            "row {i} reduction diverged"
        );
    }
}

#[test]
fn score_table_ensure_resurrects_rows_loosened_by_completions() {
    // 64 identical machines (2 shards), all with queues deep enough
    // that every shard bound falls below the threshold → the row is
    // fully skipped. A completion then empties one machine: ensure
    // must resurrect the row through that machine's shard and agree
    // with exact scoring.
    let n = 64;
    let pmfs: Vec<Pmf> = (0..n).map(|_| Pmf::from_points(&[(5, 1.0)]).unwrap()).collect();
    let pet = PetMatrix::from_pmfs(1, n, pmfs);
    let mut machines: Vec<MachineState> = (0..n)
        .map(|m| {
            let pending: Vec<Task> = (0..3u32)
                .map(|i| Task {
                    id: TaskId(m as u32 * 10 + i),
                    type_id: TaskTypeId(0),
                    arrival: 0,
                    deadline: 500,
                })
                .collect();
            testkit::machine_with_pending(MachineId::from(m), 6, &pending)
        })
        .collect();
    let tasks = vec![Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 12 }];
    let threshold = |_tt: TaskTypeId| 0.9;
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(0);
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &tasks, &threshold);
    assert!(
        table.best_for_row(&machines, 0).is_none(),
        "deep queues: the row must be bound-skipped everywhere"
    );
    // Machine 40 drains completely — its bound loosens to "start now".
    for i in 0..3u32 {
        assert!(testkit::apply(
            &mut machines[40],
            testkit::QueueOp::RemovePending(TaskId(400 + i))
        ));
    }
    scorer.begin_event(0);
    assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "same tick: reuse");
    let (m, s) = table.best_for_row(&machines, 0).expect("resurrected through machine 40");
    assert_eq!(m.index(), 40);
    assert!((s.robustness - 1.0).abs() < 1e-12, "idle machine, exec 5 ≤ deadline 12");
    let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    ref_scorer.begin_event(0);
    assert_table_agrees_with_exact(&table, &mut ref_scorer, &machines, &tasks, &threshold);
}

#[test]
fn score_table_ensure_across_ticks_matches_fresh_rebuild() {
    // Three shards under a cold-start model: executing heads nearly
    // everywhere, idle machines in shards 0–1 only, a full machine in
    // eight. Shard 2 therefore starts out bound-skipped for the tight
    // rows, until a completion at a later tick resurrects them.
    let n = 96;
    let pmfs: Vec<Pmf> = (0..2 * n)
        .map(|i| {
            let o = i as u64 % 5;
            Pmf::from_points(&[(20 + o, 0.3), (45 + o, 0.5), (90 + o, 0.2)]).unwrap()
        })
        .collect();
    let cold_pmfs: Vec<Pmf> = pmfs.iter().map(|p| p.shift(15)).collect();
    let pet = PetMatrix::from_pmfs(2, n, pmfs);
    let cold = PetMatrix::from_pmfs(2, n, cold_pmfs);
    let queued = |m: usize, i: u32| Task {
        id: TaskId(m as u32 * 10 + i),
        type_id: TaskTypeId(((m as u32 + i) % 2) as u16),
        arrival: 0,
        deadline: 400,
    };
    let mut machines: Vec<MachineState> = (0..n)
        .map(|m| {
            let mut machine = MachineState::new(MachineId::from(m), 3);
            if (m % 8 == 0 && m < 64) || m == 70 {
                // Warm containers: an append here scores on the warm
                // cells, so a tight deadline is reachable.
                testkit::set_warm(&mut machine, TaskTypeId(0), 1_000);
                testkit::set_warm(&mut machine, TaskTypeId(1), 1_000);
            }
            if m % 8 == 0 && m < 64 {
                return machine; // idle
            }
            assert!(testkit::start_executing(&mut machine, queued(m, 0), 0, 200));
            let depth = if m % 8 == 7 { 2 } else { m % 2 }; // m % 8 == 7: full
            for i in 0..depth as u32 {
                assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(queued(m, 1 + i))));
            }
            machine
        })
        .collect();
    let tasks: Vec<Task> = [60u64, 60, 150, 200, 300, 62]
        .iter()
        .enumerate()
        .map(|(i, &deadline)| Task {
            id: TaskId(9_000 + i as u32),
            type_id: TaskTypeId((i % 2) as u16),
            arrival: 0,
            deadline,
        })
        .collect();
    let threshold = |_tt: TaskTypeId| 0.6;
    let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(5);
    assert!(!table.ensure(&mut scorer, &machines, &tasks, &threshold), "first build");
    assert_table_matches_fresh_rebuild(&table, (&pet, &cold), &machines, &tasks, 5, &threshold);
    assert!(
        (64..n).all(|m| table.get(0, m).is_none()),
        "busy shard 2 must start out bound-skipped for the tight row"
    );

    // Tick 9 — inside every executing head's bucket (first impulse at
    // 20). Machine 70 completes and drains (resurrection in shard 2),
    // machine 10 gains a warm container (`warm_rev` flip: the append
    // CDF goes cold → warm), and the eight idle heads re-key.
    assert!(testkit::apply(&mut machines[70], testkit::QueueOp::FinishExecuting));
    testkit::set_warm(&mut machines[10], TaskTypeId(1), 500);
    scorer.begin_event(9);
    assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "cross-tick reuse");
    assert_table_matches_fresh_rebuild(&table, (&pet, &cold), &machines, &tasks, 9, &threshold);
    let (m, _) = table.best_for_row(&machines, 5).expect("tight row is mappable");
    assert!(machines[m.index()].is_idle());
    assert!(table.get(0, 70).is_some(), "machine 70's completion resurrects shard 2");

    // Tick 30 — every executing head has crossed its first impulse: the
    // changed set is most of the cluster, and the table is still
    // repaired, not rebuilt.
    scorer.begin_event(30);
    assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "bulk re-key");
    assert_table_matches_fresh_rebuild(&table, (&pet, &cold), &machines, &tasks, 30, &threshold);
}

#[test]
fn score_table_ensure_follows_threshold_drift() {
    // Two shards, every machine executing the same head from tick 0;
    // shard 0 machines also hold a pending task, so an append there
    // starts no sooner than 40 (bound 0.3 for the δ = 70 row) against
    // 20 in shard 1 (bound 0.8, exact robustness 0.39).
    let n = 64;
    let cell = Pmf::from_points(&[(20, 0.3), (45, 0.5), (90, 0.2)]).unwrap();
    let pet = PetMatrix::from_pmfs(1, n, vec![cell; n]);
    let queued =
        |id: u32| Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 400 };
    let machines: Vec<MachineState> = (0..n)
        .map(|m| {
            let mut machine = MachineState::new(MachineId::from(m), 3);
            assert!(testkit::start_executing(&mut machine, queued(m as u32), 0, 200));
            if m < TABLE_SHARD_WIDTH {
                assert!(testkit::apply(
                    &mut machine,
                    testkit::QueueOp::Push(queued(1_000 + m as u32))
                ));
            }
            machine
        })
        .collect();
    let tasks = vec![Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 70 }];
    let mut scorer = ProbScorer::with_cold(&pet, Some(&pet), DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(1);
    assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.9), "first build");
    assert!((0..n).all(|m| table.get(0, m).is_none()), "0.9 proves the row deferred everywhere");

    // Nothing but the threshold moves from here on (tick 3 is inside
    // every head's bucket), so every step must reuse the table.
    scorer.begin_event(3);
    for (threshold, scored_shards) in
        [(0.35, [false, true]), (0.5, [false, true]), (0.02, [true, true])]
    {
        let threshold = move |_: TaskTypeId| threshold;
        assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "drift alone reuses");
        assert_table_matches_fresh_rebuild(&table, (&pet, &pet), &machines, &tasks, 3, &threshold);
        for (s, scored) in scored_shards.into_iter().enumerate() {
            assert_eq!(table.get(0, s * TABLE_SHARD_WIDTH).is_some(), scored, "shard {s}");
        }
    }
    // 0.35 resurrected the row in shard 1, where no machine changed:
    // the reduction must find it there.
    let (m, score) = table.best_for_row(&machines, 0).expect("scored in both shards");
    assert_eq!(m.index(), TABLE_SHARD_WIDTH);
    assert!((score.robustness - 0.39).abs() < 1e-12, "{score:?}");
}

/// One shard, three machines, two task types — 0 is what the heads run,
/// 1 what the window rows are. For a type-1 row with δ = 60:
/// * A (machine 0) frees up at 10 with probability 0.2, else at 100, and
///   runs the row in a sure 20: its own bound is `CDF(50) = 1`, its exact
///   robustness 0.2;
/// * B (machine 1) frees up at 30 with probability 0.875 and runs the row
///   in 25 with probability 0.4: own bound `CDF(30) = 0.4`, exact
///   robustness 0.35;
/// * C (machine 2) is idle and needs a sure 70: hopeless for δ = 60, a
///   certain fit for δ = 400.
fn drift_fixture() -> (PetMatrix, Vec<MachineState>) {
    let cell = |points: &[(Time, f64)]| Pmf::from_points(points).unwrap();
    let pet = PetMatrix::from_pmfs(
        2,
        3,
        vec![
            cell(&[(10, 0.2), (100, 0.8)]),
            cell(&[(30, 0.875), (100, 0.125)]),
            cell(&[(10, 1.0)]),
            cell(&[(20, 1.0)]),
            cell(&[(25, 0.4), (40, 0.6)]),
            cell(&[(70, 1.0)]),
        ],
    );
    let mut machines: Vec<MachineState> =
        (0..3usize).map(|m| MachineState::new(MachineId::from(m), 3)).collect();
    for (m, machine) in machines.iter_mut().enumerate().take(2) {
        let head = Task { id: TaskId(m as u32), type_id: TaskTypeId(0), arrival: 0, deadline: 400 };
        assert!(testkit::start_executing(machine, head, 0, 200));
    }
    (pet, machines)
}

fn drift_row(id: u32, deadline: Time) -> Task {
    Task { id: TaskId(id), type_id: TaskTypeId(1), arrival: 0, deadline }
}

#[test]
fn score_table_ensure_retests_unscored_pairs_when_a_threshold_drops() {
    // The lane is live under 0.5 on the strength of A's bound, B's own
    // bound (0.4) leaves B unscored, and A's exact robustness is only
    // 0.2. With nothing but the threshold moving to 0.3, B's proof is
    // void: B must be scored, and — at 0.35 — win the row.
    let (pet, machines) = drift_fixture();
    let rows = [drift_row(9_000, 60)];
    let at = |threshold: f64| move |_: TaskTypeId| threshold;
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(1);
    assert!(!table.ensure(&mut scorer, &machines, &rows, &at(0.5)), "first build");
    assert!((table.get(0, 0).expect("A clears its bound").robustness - 0.2).abs() < 1e-12);
    assert_eq!(table.get(0, 1), None, "B's own bound is 0.4");
    assert_eq!(table.best_for_row(&machines, 0).map(|(m, _)| m.index()), Some(0));

    assert!(table.ensure(&mut scorer, &machines, &rows, &at(0.3)), "drift alone reuses");
    let (m, score) = table.best_for_row(&machines, 0).expect("scored on A and B");
    assert_eq!(m.index(), 1, "B clears 0.3 and A does not");
    assert!((score.robustness - 0.35).abs() < 1e-12, "{score:?}");
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &at(0.3));

    // Raising the threshold back voids nothing: what is scored stays.
    assert!(table.ensure(&mut scorer, &machines, &rows, &at(0.5)));
    assert_eq!(table.get(0, 1), Some(score));
    assert_eq!(table.best_for_row(&machines, 0), Some((m, score)));
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &at(0.5));
}

#[test]
fn score_table_ensure_retests_slid_in_rows_in_a_dirty_shard() {
    // The same drift, for a row that entered through `apply_assignment`
    // (its threshold was recorded by `push_row`), and with the shard
    // dirty at the drifting event — C's queue moved — so the lane's best
    // cache must be settled by the retest, not by the fold over C.
    let (pet, mut machines) = drift_fixture();
    let mut rows = vec![drift_row(9_000, 400), drift_row(9_001, 60)];
    let at = |threshold: f64| move |_: TaskTypeId| threshold;
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(1);
    table.ensure(&mut scorer, &machines, &rows, &at(0.5));
    let assigned = rows.remove(0);
    assert!(testkit::apply(&mut machines[2], testkit::QueueOp::Push(assigned)));
    rows.push(drift_row(9_002, 60));
    table.apply_assignment(&mut scorer, &machines, &rows, 0, 2, &at(0.5));
    for row in 0..2 {
        assert_eq!(table.get(row, 1), None, "row {row}: B's own bound is 0.4");
        assert_eq!(table.best_for_row(&machines, row).map(|(m, _)| m.index()), Some(0));
    }
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &at(0.5));

    assert!(testkit::apply(
        &mut machines[2],
        testkit::QueueOp::StartNext { now: 1, total_exec: 70 }
    ));
    assert!(table.ensure(&mut scorer, &machines, &rows, &at(0.3)), "one machine changed");
    for row in 0..2 {
        let (m, score) = table.best_for_row(&machines, row).expect("scored on A and B");
        assert_eq!(m.index(), 1, "row {row}");
        assert!((score.robustness - 0.35).abs() < 1e-12, "row {row}: {score:?}");
    }
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &at(0.3));
}

#[test]
fn score_table_shard_best_fold_keeps_first_wins_order_among_ties() {
    // A homogeneous shard: one cell, identical queues, so scores tie bit
    // for bit and only the scan order picks the winner. Machine 0 starts
    // out behind a queued task; the cached winner is machine 1.
    let n = 8;
    let cell = Pmf::from_points(&[(5, 0.5), (9, 0.5)]).unwrap();
    let pet = PetMatrix::from_pmfs(1, n, vec![cell; n]);
    let queued =
        |id: u32| Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 500 };
    let mut machines: Vec<MachineState> =
        (0..n).map(|m| MachineState::new(MachineId::from(m), 2)).collect();
    assert!(testkit::apply(&mut machines[0], testkit::QueueOp::Push(queued(1))));
    let mut rows: Vec<Task> = (0..3u32)
        .map(|i| Task { id: TaskId(9_000 + i), type_id: TaskTypeId(0), arrival: 0, deadline: 12 })
        .collect();
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(0);
    table.rebuild(&mut scorer, &machines, &rows, &|_| 0.0);
    // After every step the cached winners must be what a flat ascending
    // scan of a freshly built table picks.
    let check = |table: &ScoreTable, machines: &[MachineState], rows: &[Task], want: usize| {
        let mut fresh = ProbScorer::new(&pet, DropPolicy::All, 16);
        fresh.begin_event(0);
        let mut reference = ScoreTable::new();
        reference.rebuild(&mut fresh, machines, rows, &|_| 0.0);
        for row in 0..rows.len() {
            let got = table.best_for_row(machines, row);
            assert_eq!(got, reference.best_for_row(machines, row), "row {row}");
            assert_eq!(got.map(|(m, _)| m.index()), Some(want), "row {row}");
        }
        table.check_invariants(&mut fresh, machines).unwrap();
    };
    check(&table, &machines, &rows, 1);

    // A changed machine *below* the cached winner rescored to the very
    // same value: the fold must hand it the row.
    assert!(testkit::apply(&mut machines[0], testkit::QueueOp::RemovePending(TaskId(1))));
    assert!(table.ensure(&mut scorer, &machines, &rows, &|_| 0.0));
    check(&table, &machines, &rows, 0);

    // The cached winner's own machine changed for the worse: its old
    // cell is what the others were compared against, so rescan.
    assert!(testkit::apply(&mut machines[0], testkit::QueueOp::Push(queued(2))));
    assert!(table.ensure(&mut scorer, &machines, &rows, &|_| 0.0));
    check(&table, &machines, &rows, 1);

    // The same through an assignment: row 1 goes to the winner, …
    let assigned = rows.remove(1);
    assert!(testkit::apply(&mut machines[1], testkit::QueueOp::Push(assigned)));
    table.apply_assignment(&mut scorer, &machines, &rows, 1, 1, &|_| 0.0);
    check(&table, &machines, &rows, 2);

    // … and the next winner loses its free slot between events.
    for id in [3, 4] {
        assert!(testkit::apply(&mut machines[2], testkit::QueueOp::Push(queued(id))));
    }
    assert!(!machines[2].has_free_slot());
    assert!(table.ensure(&mut scorer, &machines, &rows, &|_| 0.0));
    check(&table, &machines, &rows, 3);
}

#[test]
fn score_table_class_best_keeps_the_lower_shard_among_ties_until_it_fills() {
    // Three shards of one cell. Machines 5 (shard 0) and 2·W + 3 (shard
    // 2) are empty with one slot each, so their scores tie bit for bit;
    // every other machine sits behind a queued task and scores worse.
    let (first, second) = (5, 2 * TABLE_SHARD_WIDTH + 3);
    let n = 3 * TABLE_SHARD_WIDTH;
    let cell = Pmf::from_points(&[(5, 0.5), (9, 0.5)]).unwrap();
    let pet = PetMatrix::from_pmfs(1, n, vec![cell; n]);
    let task = |id: u32| Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 40 };
    let mut machines: Vec<MachineState> = (0..n)
        .map(|m| {
            let open = m == first || m == second;
            let mut machine = MachineState::new(MachineId::from(m), if open { 1 } else { 3 });
            if !open {
                assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(task(m as u32))));
            }
            machine
        })
        .collect();
    let mut rows: Vec<Task> = (0..2).map(|i| task(9_000 + i)).collect();
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(0);
    table.rebuild(&mut scorer, &machines, &rows, &|_| 0.0);
    table.check_invariants(&mut scorer, &machines).unwrap();
    let (m, tied) = table.best_for_row(&machines, 1).expect("scored everywhere");
    assert_eq!(m.index(), first, "first-wins keeps shard 0's lower index");
    assert_eq!(table.get(1, second), Some(tied), "shard 2's machine ties bit for bit");

    // Row 0 goes to the winner, which fills: the class best moves to
    // shard 2's machine, the one a fresh rebuild picks.
    let refolds = table.work().best_refolds;
    let assigned = rows.remove(0);
    assert!(testkit::apply(&mut machines[first], testkit::QueueOp::Push(assigned)));
    assert!(!machines[first].has_free_slot());
    table.apply_assignment(&mut scorer, &machines, &rows, 0, first, &|_| 0.0);
    table.check_invariants(&mut scorer, &machines).unwrap();
    assert_eq!(table.best_for_row(&machines, 0), Some((MachineId::from(second), tied)));
    assert_eq!(table.work().best_refolds, refolds + 1, "one class re-folded");
    let mut reference = ScoreTable::new();
    reference.rebuild(&mut scorer, &machines, &rows, &|_| 0.0);
    assert_eq!(table.best_for_row(&machines, 0), reference.best_for_row(&machines, 0));
}

#[test]
fn score_table_head_bit_passes_to_the_next_member() {
    // Window [a, b, a, a]: class a has three members, its head at 0.
    let (pet, mut machines) = fanout_fixture(4);
    let a = |id: u32| Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 90 };
    let b = Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 0, deadline: 95 };
    let mut rows = vec![a(10), b, a(11), a(12)];
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(0);
    table.rebuild(&mut scorer, &machines, &rows, &|_| 0.0);
    let heads =
        |table: &ScoreTable| (0..table.rows()).map(|r| table.is_head(r)).collect::<Vec<_>>();
    assert_eq!(heads(&table), [true, true, false, false]);

    // The head leaves: the second member, now at position 1, heads.
    let assigned = rows.remove(0);
    let m = table.best_for_row(&machines, 0).expect("scored").0.index();
    assert!(testkit::apply(&mut machines[m], testkit::QueueOp::Push(assigned)));
    table.apply_assignment(&mut scorer, &machines, &rows, 0, m, &|_| 0.0);
    table.check_invariants(&mut scorer, &machines).unwrap();
    assert_eq!(heads(&table), [true, true, false]);
    assert_eq!(table.best_for_row(&machines, 1), table.best_for_row(&machines, 2));

    // A later member leaving keeps the head where it is.
    rows.remove(2);
    scorer.begin_event(0);
    assert!(table.ensure(&mut scorer, &machines, &rows, &|_| 0.0));
    table.check_invariants(&mut scorer, &machines).unwrap();
    assert_eq!(heads(&table), [true, true]);
}

#[test]
fn score_table_ensure_reuses_across_ticks_until_epoch_or_invalidate() {
    // 20 free machines, every one executing (started at 0, first PET
    // impulse ≥ 2 ticks out), so a later tick inside every head's
    // bucket changes nothing the table depends on.
    let (pet, mut machines) = fanout_fixture(20);
    for (m, machine) in machines.iter_mut().enumerate() {
        let head =
            Task { id: TaskId(7_000 + m as u32), type_id: TaskTypeId(0), arrival: 0, deadline: 90 };
        assert!(testkit::start_executing(machine, head, 0, 50));
    }
    let tasks = vec![Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 0, deadline: 90 }];
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(0);
    let mut table = ScoreTable::new();
    assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "empty table rebuilds");
    // A later tick reuses: no head key moved (elapsed 1 < every PET min).
    scorer.begin_event(1);
    assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "later tick, keys held");
    // A tick that re-keys a few heads (the PETs based at 2) still
    // reuses, rescoring just those columns …
    scorer.begin_event(2);
    assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "few heads re-keyed");
    table.check_invariants(&mut scorer, &machines).unwrap();
    // … and so does one that re-keys every free machine.
    scorer.begin_event(40);
    assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "all overdue: reuse");
    table.check_invariants(&mut scorer, &machines).unwrap();
    assert_table_matches_fresh_rebuild(&table, (&pet, &pet), &machines, &tasks, 40, &|_| 0.0);
    // A membership epoch bump must rebuild (shard geometry may move).
    scorer.sync_membership(1, &machines);
    assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "new epoch");
    // Explicit invalidation (a restored mapper) must rebuild.
    scorer.begin_event(0);
    table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
    table.invalidate();
    assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "invalidated");
    // And with nothing changed, the reuse path holds.
    assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "steady state");
    table.check_invariants(&mut scorer, &machines).unwrap();
}

#[test]
fn hierarchical_bound_pass_agrees_with_exact_at_1024_machines() {
    // Full mega-cluster cardinality (32 shards), post-churn skewed
    // occupancy (a block of full machines, a block of absent ones),
    // and a near-tie threshold sitting exactly on the best row score —
    // the BOUND_MARGIN case the skip decision must survive.
    let n = 1024;
    let pmfs: Vec<Pmf> = (0..2 * n)
        .map(|i| {
            let base = 2 + (i as u64 % 7);
            Pmf::from_points(&[(base, 0.3), (base + 4, 0.5), (base + 11, 0.2)]).unwrap()
        })
        .collect();
    let pet = PetMatrix::from_pmfs(2, n, pmfs);
    let mut machines: Vec<MachineState> = (0..n)
        .map(|m| {
            let depth = if m < 300 { 2 } else { m % 3 }; // skewed occupancy
            let pending: Vec<Task> = (0..depth as u32)
                .map(|i| Task {
                    id: TaskId(m as u32 * 10 + i),
                    type_id: TaskTypeId((i % 2) as u16),
                    arrival: 0,
                    deadline: 70 + u64::from(i) * 30 + (m % 16) as u64,
                })
                .collect();
            testkit::machine_with_pending(MachineId::from(m), 2, &pending)
        })
        .collect();
    // Churn skew: machines 600..680 failed.
    for m in machines.iter_mut().skip(600).take(80) {
        assert!(testkit::apply(m, testkit::QueueOp::Fail));
    }
    let tasks: Vec<Task> = (0..6u32)
        .map(|i| Task {
            id: TaskId(50_000 + i),
            type_id: TaskTypeId((i % 2) as u16),
            arrival: 0,
            deadline: 9 + u64::from(i) * 4, // tight: bounds actually skip shards
        })
        .collect();
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(1);
    // Pass 1: threshold 0 (everything live) to learn the exact bests.
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
    let exact_best: Vec<f64> = (0..tasks.len())
        .map(|row| table.best_for_row(&machines, row).map_or(0.0, |(_, s)| s.robustness))
        .collect();
    let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    ref_scorer.begin_event(1);
    // Pass 2: the near-tie threshold — exactly row 0's best score.
    let tie = exact_best.iter().copied().fold(0.0f64, f64::max);
    for threshold in [0.25, tie, (tie + 1e-6).min(1.0)] {
        let t = move |_tt: TaskTypeId| threshold;
        let mut bounded = ScoreTable::new();
        bounded.rebuild(&mut scorer, &machines, &tasks, &t);
        assert_table_agrees_with_exact(&bounded, &mut ref_scorer, &machines, &tasks, &t);
    }
}

#[test]
fn score_table_skips_full_machines() {
    let pet = pet_single(&[(2, 0.5), (4, 0.5)]);
    let pending: Vec<Task> = (0..2u32)
        .map(|i| Task { id: TaskId(i), type_id: TaskTypeId(0), arrival: 0, deadline: 100 })
        .collect();
    let full = testkit::machine_with_pending(MachineId(0), 2, &pending);
    assert!(!full.has_free_slot());
    let machines = vec![full];
    let tasks = vec![Task { id: TaskId(9), type_id: TaskTypeId(0), arrival: 0, deadline: 50 }];
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(0);
    scorer.set_parallelism(4);
    assert!(!scorer.pool_active(), "1-machine system stays below the pool gate");
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
    assert_eq!(table.get(0, 0), None);
    assert!(table.best_for_row(&machines, 0).is_none());
    table.check_invariants(&mut scorer, &machines).unwrap();
}

#[test]
fn score_table_gives_absent_machines_empty_columns() {
    let (pet, mut machines) = fanout_fixture(6);
    testkit::apply(&mut machines[1], testkit::QueueOp::BeginDrain);
    testkit::apply(&mut machines[2], testkit::QueueOp::Fail);
    let tasks = vec![Task { id: TaskId(9), type_id: TaskTypeId(0), arrival: 0, deadline: 400 }];
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(0);
    scorer.sync_membership(1, &machines);
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
    for m in [1usize, 2] {
        assert_eq!(table.get(0, m), None, "absent machine {m} must not be scored");
    }
    let (best_machine, _) = table.best_for_row(&machines, 0).expect("survivors scored");
    assert!(machines[best_machine.index()].is_schedulable());
    table.check_invariants(&mut scorer, &machines).unwrap();
}

#[test]
fn refresh_machine_resurrects_same_type_rows_when_an_assignment_warms_the_shard() {
    let (pet, cold, mut machines) = two_shard_cold_fixture();
    // Shard 1 is busy enough that row A is dead there under any bound.
    for (m, machine) in machines.iter_mut().enumerate().skip(TABLE_SHARD_WIDTH) {
        for i in 0..2u32 {
            let queued = Task {
                id: TaskId(m as u32 * 10 + i),
                type_id: TaskTypeId(1),
                arrival: 0,
                deadline: 900,
            };
            assert!(testkit::apply(machine, testkit::QueueOp::Push(queued)));
        }
    }
    let row_a = Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 105 };
    let row_b = Task { id: TaskId(9_001), type_id: TaskTypeId(0), arrival: 0, deadline: 900 };
    let threshold = |_: TaskTypeId| 0.9;
    let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    scorer.begin_event(0);
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &[row_a, row_b], &threshold);
    assert!(table.best_for_row(&machines, 0).is_none(), "A is dead under the cold envelope");
    assert!(table.best_for_row(&machines, 1).is_some(), "B's deadline clears it");

    // B goes to machine 5: by the queued-entry rule a type-0 append
    // there is now warm, so shard 0's bound for A is the warm one.
    assert!(testkit::apply(&mut machines[5], testkit::QueueOp::Push(row_b)));
    table.apply_assignment(&mut scorer, &machines, &[row_a], 1, 5, &threshold);

    let mut exact = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    exact.begin_event(0);
    let mut want: Option<(usize, PairScore)> = None;
    for (m, machine) in machines.iter().enumerate() {
        let score = exact.score(machine, &row_a);
        if want.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
            want = Some((m, score));
        }
    }
    let (m, score) = want.expect("every machine has a free slot");
    assert_eq!(table.best_for_row(&machines, 0), Some((MachineId::from(m), score)));
    assert_table_agrees_with_exact(&table, &mut exact, &machines, &[row_a], &threshold);
}

#[test]
fn ensure_revives_a_lane_a_completion_warmed_without_moving_the_earliest_start() {
    // Idle machines everywhere but machine 5, which executes: the idle
    // members hold shard 0's earliest start, and a type-0 row with
    // δ = 105 is dead in both shards under the cold envelope.
    let (pet, cold, mut machines) = two_shard_cold_fixture();
    let head = Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 0, deadline: 900 };
    assert!(testkit::start_executing(&mut machines[5], head, 0, 10));
    let rows = [Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 105 }];
    let threshold = |_: TaskTypeId| 0.9;
    let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    let mut table = ScoreTable::new();
    scorer.begin_event(5);
    assert!(!table.ensure(&mut scorer, &machines, &rows, &threshold), "first build");
    assert!(table.best_for_row(&machines, 0).is_none(), "dead under the cold envelope");

    // Machine 5 completes and keeps a warm type-0 container. Its start
    // is `now`, like every idle member's, so shard 0's earliest start does
    // not move: the shard loosened only by turning warm-capable for the
    // row's type, and that alone must revive the lane.
    assert!(testkit::apply(&mut machines[5], testkit::QueueOp::FinishExecuting));
    testkit::set_warm(&mut machines[5], TaskTypeId(0), 1_000);
    assert!(table.ensure(&mut scorer, &machines, &rows, &threshold), "one machine changed");
    let (m, score) = table.best_for_row(&machines, 0).expect("the warmed lane revives");
    assert_eq!(m.index(), 5, "the newly warm machine");
    assert_eq!(score.robustness, 1.0, "a sure warm 10 against 100 to go");
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &threshold);

    // A tick later every head re-keys. Machine 5's column holds the
    // row's exact score, which moved with the clock, so it is rescored;
    // the other 63 hold none and are re-timed in place — which keeps the
    // whole idle cluster from counting toward a rebuild.
    scorer.begin_event(6);
    assert!(table.ensure(&mut scorer, &machines, &rows, &threshold), "idle re-keys reuse");
    let (m, later) = table.best_for_row(&machines, 0).expect("still mappable");
    assert_eq!(m.index(), 5);
    assert_eq!(later.expected_completion, score.expected_completion + 1.0);
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &threshold);
}

#[test]
fn rebuild_scores_no_cold_pair_the_cold_bound_rejects() {
    let (pet, cold, mut machines) = two_shard_cold_fixture();
    // Distinct deadlines keep every row a class of its own, so the
    // counters below count rows.
    let tasks: Vec<Task> = (0..6u32)
        .map(|i| Task {
            id: TaskId(9_000 + i),
            type_id: TaskTypeId(u16::from(i >= 4)),
            arrival: 0,
            deadline: 100 + Time::from(i),
        })
        .collect();
    let threshold = |_: TaskTypeId| 0.9;
    let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    scorer.begin_event(0);
    let mut table = ScoreTable::new();
    table.rebuild(&mut scorer, &machines, &tasks, &threshold);
    assert_eq!(
        table.work().pairs_scored,
        0,
        "all-cold cluster: every lane is under the cold bound"
    );
    assert!((0..tasks.len()).all(|row| table.best_for_row(&machines, row).is_none()));

    // One resident type-0 container in shard 1: the shard bound lets the
    // four type-0 rows into that shard and nothing else anywhere, and
    // the per-machine bound then scores them on machine 40 alone — every
    // other member would start them cold.
    testkit::set_warm(&mut machines[40], TaskTypeId(0), 1_000);
    table.rebuild(&mut scorer, &machines, &tasks, &threshold);
    assert_eq!(table.work().pairs_scored, 4);
    assert_eq!(table.work().pairs_bounded, 4 * (TABLE_SHARD_WIDTH as u64 - 1));
    for (row, task) in tasks.iter().enumerate() {
        let best = table.best_for_row(&machines, row);
        assert_eq!(best.map(|(m, _)| m.index()), (task.type_id.0 == 0).then_some(40));
    }

    // The classic model keeps its single family: everything clears.
    let mut classic = ProbScorer::new(&pet, DropPolicy::All, 16);
    classic.begin_event(0);
    let mut table = ScoreTable::new();
    table.rebuild(&mut classic, &machines, &tasks, &threshold);
    assert_eq!(table.work().pairs_scored, (tasks.len() * machines.len()) as u64);
}

#[test]
fn score_table_pair_bound_follows_each_machines_own_warmth() {
    // One resident type-0 container, on machine 40: shard 1's lanes are
    // live for type-0 rows on the strength of the warm envelope, but 31
    // of its 32 members would start them cold and fail their own (cold)
    // bound. The counters pin that every scoring site — appended rows,
    // lanes an assignment warmed, column rescores — reads the cell the
    // machine itself would place the type on, not the warm one.
    let (pet, cold, mut machines) = two_shard_cold_fixture();
    testkit::set_warm(&mut machines[40], TaskTypeId(0), 1_000);
    let row = |id: u32| Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 105 };
    let mut rows = vec![row(9_000)];
    let threshold = |_: TaskTypeId| 0.9;
    let others = TABLE_SHARD_WIDTH as u64 - 1;
    let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
    scorer.begin_event(0);
    let mut table = ScoreTable::new();
    table.ensure(&mut scorer, &machines, &rows, &threshold);
    assert_eq!((table.work().pairs_scored, table.work().pairs_bounded), (1, others));

    // The row goes to machine 3 (a cold start, the caller's business) and
    // an identical one slides in. Appended: scored on 40, bounded on the
    // rest of shard 1. The queued entry makes machine 3 — alone in shard
    // 0 — warm for the type: the lane opens, its other 31 members are
    // bounded, and machine 3's rescored column holds the one score.
    let assigned = rows.remove(0);
    assert!(testkit::apply(&mut machines[3], testkit::QueueOp::Push(assigned)));
    rows.push(row(9_001));
    table.apply_assignment(&mut scorer, &machines, &rows, 0, 3, &threshold);
    assert_eq!((table.work().pairs_scored, table.work().pairs_bounded), (3, 3 * others));
    assert!(table.get(0, 3).is_some() && table.get(0, 40).is_some());
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &threshold);

    // Machine 41 gains a container between events: its column, and only
    // its column, is rescored — and now clears.
    testkit::set_warm(&mut machines[41], TaskTypeId(0), 1_000);
    assert!(table.ensure(&mut scorer, &machines, &rows, &threshold));
    assert_eq!((table.work().pairs_scored, table.work().pairs_bounded), (4, 3 * others));
    assert_table_agrees_with_exact(&table, &mut scorer, &machines, &rows, &threshold);
}

#[test]
fn hierarchical_bound_pass_agrees_with_exact_under_a_cold_model() {
    // Three shards; depths, pending types and warm sets walk through
    // every combination, with whole stretches left all-cold.
    let params: Vec<(usize, usize, usize)> =
        (0..96usize).map(|m| (m % 3, m / 3, if m % 11 == 0 { 1 + m % 7 } else { 0 })).collect();
    let rows = [(0, 14), (1, 30), (2, 48), (0, 60), (1, 75), (2, 90), (0, 33), (1, 52)];
    for threshold in [0.25, 0.6, 0.9] {
        assert!(
            drive_warm_aware_table(&params, &rows, threshold),
            "a quarter idle plus a fifth churned: the cross-tick ensure must reuse"
        );
    }
}

// --- the facade: ProbScorer queries, membership and execution mode ---

fn score_bits(s: PairScore) -> (u64, u64, u64) {
    (s.robustness.to_bits(), s.expected_completion.to_bits(), s.mean_exec.to_bits())
}

/// The what-if against the real thing: `task` scored behind a
/// hypothetical `ahead` on `machine`, then `ahead` pushed for real and
/// `task` scored on the machine that results — bit for bit. Caches are
/// cleared first: a clone's version is unique only within its own
/// timeline.
fn assert_score_behind_is_a_real_push(
    scorer: &mut ProbScorer,
    machine: &MachineState,
    ahead: Task,
    task: Task,
) -> PairScore {
    scorer.clear_caches();
    let what_if = scorer.score_behind(machine, &ahead, &task);
    let mut after = machine.clone();
    assert!(testkit::apply(&mut after, testkit::QueueOp::Push(ahead)), "a free slot");
    let real = scorer.score(&after, &task);
    assert_eq!(score_bits(what_if), score_bits(real), "{what_if:?} vs {real:?}");
    what_if
}

#[test]
fn score_behind_matches_queue_step() {
    let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 64);
    scorer.begin_event(1);
    let machine = testkit::machine_with_pending(MachineId(0), 4, &[task_with_deadline(6)]);
    let tail = scorer.tail(&machine).clone();
    let exec = pet.pmf(TaskTypeId(0), MachineId(0));
    let mut avail = queue_step(&tail, exec, 7, DropPolicy::All).availability;
    avail.compact(64);
    let shared = ScorerShared::derive(pet.clone(), None, DropPolicy::All, 64);
    let want = exact_score(&avail, shared.cdf(TaskTypeId(0), MachineId(0)), 12, DropPolicy::All);
    let got = scorer.score_behind(&machine, &task_with_deadline(7), &task_with_deadline(12));
    assert_eq!(score_bits(got), score_bits(want));
}

#[test]
fn score_behind_on_a_cold_machine_is_a_real_push() {
    // Serverless spec; the machine runs a cold-started type 3 and holds no
    // warm container, so `ahead` (type 0) places cold, a type-1 task
    // behind it scores cold and a type-0 one warm.
    let spec = memo_spec();
    let mut scorer = ProbScorer::for_spec(&spec, DropPolicy::All, 24);
    let task =
        |id, tt, deadline| Task { id: TaskId(id), type_id: TaskTypeId(tt), arrival: 0, deadline };
    let mut machine =
        testkit::machine_with_pending(MachineId(1), spec.queue_capacity, &[task(0, 3, 400)]);
    assert!(testkit::start_next(&mut machine, 0, 40, true));
    scorer.begin_event(5);
    let ahead = task(1, 0, 300);
    assert!(machine.warm_containers().is_empty());
    assert!(scorer.pets().append_is_cold(&machine, ahead.type_id));
    for (tt, deadline) in [(1, 150), (1, 600), (0, 150), (0, 600)] {
        assert_score_behind_is_a_real_push(&mut scorer, &machine, ahead, task(2, tt, deadline));
    }
}

#[test]
fn warm_caches_is_execution_mode_invariant() {
    let (pet, machines) = fanout_fixture(20);
    let mut cold = ProbScorer::new(&pet, DropPolicy::All, 16);
    cold.begin_event(7);
    for (label, threads) in [("seq", 1), ("pool", 4)] {
        let mut warm = ProbScorer::new(&pet, DropPolicy::All, 16);
        warm.begin_event(7);
        warm.set_parallelism(threads);
        warm.warm_caches(&machines, true);
        for machine in &machines {
            if machine.occupancy() == 0 {
                continue;
            }
            let a = warm.slot_scores(machine).to_vec();
            let b = cold.slot_scores(machine).to_vec();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    x.robustness.to_bits() == y.robustness.to_bits()
                        && x.skewness.to_bits() == y.skewness.to_bits(),
                    "{label}: machine {} diverged",
                    machine.id()
                );
            }
            // The tails must also be byte-identical.
            assert_eq!(warm.tail(machine).clone(), cold.tail(machine).clone());
        }
    }
}

#[test]
fn pool_single_cell_queries_match_local() {
    // The between-rounds request path (score / tail / slot_scores
    // through the pool's cell handle) must serve exactly what local
    // cells serve.
    let (pet, machines) = fanout_fixture(PARALLEL_MIN_MACHINES + 2);
    let mut local = ProbScorer::new(&pet, DropPolicy::All, 16);
    let mut pooled = ProbScorer::new(&pet, DropPolicy::All, 16);
    local.begin_event(9);
    pooled.begin_event(9);
    pooled.set_parallelism(4);
    assert!(pooled.pool_active());
    let task = Task { id: TaskId(77), type_id: TaskTypeId(1), arrival: 0, deadline: 90 };
    for machine in &machines {
        let a = local.score(machine, &task);
        let b = pooled.score(machine, &task);
        assert_eq!(a.robustness.to_bits(), b.robustness.to_bits());
        assert_eq!(a.expected_completion.to_bits(), b.expected_completion.to_bits());
        assert_eq!(local.tail(machine).clone(), pooled.tail(machine).clone());
        if machine.occupancy() > 0 {
            assert_eq!(local.slot_scores(machine), pooled.slot_scores(machine));
        }
    }
}

#[test]
fn membership_sync_regates_pool_and_releases_departed_chains() {
    let n = PARALLEL_MIN_MACHINES + 4;
    let (pet, mut machines) = fanout_fixture(n);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(3);
    scorer.sync_membership(0, &machines);
    assert_eq!(scorer.schedulable_machines(), n);
    scorer.set_parallelism(4);
    assert!(scorer.pool_active());
    scorer.warm_caches(&machines, false);
    // Churn: fail 5 and drain 4 machines → below the fan-out floor.
    for m in machines.iter_mut().take(5) {
        assert!(testkit::apply(m, testkit::QueueOp::Fail));
    }
    for m in machines.iter_mut().skip(5).take(4) {
        testkit::apply(m, testkit::QueueOp::BeginDrain);
    }
    scorer.sync_membership(1, &machines);
    assert_eq!(scorer.schedulable_machines(), n - 9);
    scorer.set_parallelism(4);
    assert!(!scorer.pool_active(), "cluster shrank below the pool gate");
    // Every tail — survivors from their migrated warm cells, departed
    // machines rebuilt from scratch — must match a cold scorer.
    let mut cold = ProbScorer::new(&pet, DropPolicy::All, 16);
    cold.begin_event(3);
    for machine in &machines {
        assert_eq!(
            scorer.tail(machine).clone(),
            cold.tail(machine).clone(),
            "machine {} diverged after churn",
            machine.id()
        );
    }
    // Re-join the failed machines: the pool comes back, warm state
    // (whatever survived) migrates in.
    for m in machines.iter_mut().take(5) {
        assert!(testkit::apply(m, testkit::QueueOp::Join));
    }
    scorer.sync_membership(2, &machines);
    scorer.set_parallelism(4);
    assert!(scorer.pool_active(), "grown cluster re-builds the pool");
    // Same epoch again: a no-op (the steady-state path).
    scorer.sync_membership(2, &machines);
    assert_eq!(scorer.schedulable_machines(), n - 4);
}

#[test]
fn set_parallelism_migrates_cells_without_losing_state() {
    // Local → pooled → local round-trips keep every cached chain: the
    // tails served after each migration are identical, and the reshard
    // path (different thread count) works.
    let (pet, machines) = fanout_fixture(PARALLEL_MIN_MACHINES);
    let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
    scorer.begin_event(4);
    let baseline: Vec<Pmf> = machines.iter().map(|m| scorer.tail(m).clone()).collect();
    scorer.set_parallelism(4);
    assert!(scorer.pool_active());
    let workers = scorer.cells.worker_ids();
    assert_eq!(workers.len(), 4);
    // The per-event steady state: the same setting again is a no-op —
    // the same worker threads serve the next round, nothing rebuilt.
    let builds: Vec<u64> = machines.iter().map(|m| scorer.chain_builds(m.id())).collect();
    scorer.set_parallelism(4);
    assert_eq!(scorer.cells.worker_ids(), workers, "same setting must not reshard");
    scorer.set_parallelism(2); // reshard
    assert!(scorer.pool_active());
    assert!(scorer.cells.worker_ids().is_disjoint(&workers), "new width, new workers");
    scorer.set_parallelism(1); // move back
    assert!(!scorer.pool_active());
    // `0` asks the host once; asking again changes nothing either.
    scorer.set_parallelism(0);
    let (active, workers) = (scorer.pool_active(), scorer.cells.worker_ids());
    scorer.set_parallelism(0);
    assert_eq!((scorer.pool_active(), scorer.cells.worker_ids()), (active, workers));
    for (machine, before) in machines.iter().zip(&builds) {
        assert_eq!(scorer.chain_builds(machine.id()), *before, "migration rebuilt a chain");
    }
    for (machine, want) in machines.iter().zip(&baseline) {
        assert_eq!(scorer.tail(machine), want, "machine {} lost its chain", machine.id());
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_pmf(max_t: Time, max_n: usize) -> impl Strategy<Value = Pmf> {
        prop::collection::vec((1..max_t, 0.01f64..1.0), 1..max_n).prop_map(|pts| {
            let mut p = Pmf::from_points(&pts).unwrap();
            p.normalize();
            p
        })
    }

    proptest! {
        #[test]
        fn closed_form_always_matches_queue_step(
            tail in arb_pmf(300, 12),
            exec in arb_pmf(80, 10),
            deadline in 1u64..400,
            policy_idx in 0usize..3,
        ) {
            let policy =
                [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
            let pet = PetMatrix::from_pmfs(1, 1, vec![exec.clone()]);
            let score = exact_score_single(&pet, &tail, deadline, policy);
            let step = queue_step(&tail, &exec, deadline, policy);
            prop_assert!((score.robustness - step.robustness).abs() < 1e-9);
            if policy != DropPolicy::None {
                match &step.completion {
                    Some(c) => prop_assert!(
                        (score.expected_completion - c.mean()).abs() < 1e-6
                    ),
                    None => prop_assert!(score.expected_completion.is_infinite()),
                }
            }
        }
    }

    proptest! {
        /// The stopping rule against the exact kernel, over random unit
        /// tails of 1–48 impulses, random PET cells and every policy: a
        /// column of rows held to thresholds of 0, `BOUND_MARGIN`, 1, a
        /// random value, or the row's own exact score agrees, row by row,
        /// with the per-pair bound followed by the scalar walk — which
        /// stops only below the threshold and otherwise returns the exact
        /// score bit for bit (see `assert_column_matches_pairwise`).
        #[test]
        fn threshold_walks_stop_only_below_the_threshold(
            tail in arb_pmf(300, 49),
            cells in prop::collection::vec(arb_pmf(80, 12), 3..4),
            rows in prop::collection::vec((0u16..3, 1u64..400, 0usize..5, 0.0f64..1.0), 1..11),
            policy_idx in 0usize..3,
        ) {
            let policy = POLICIES[policy_idx];
            let pet = PetMatrix::from_pmfs(3, 1, cells);
            let shared = ScorerShared::derive(pet, None, policy, 16);
            let machine = MachineState::new(MachineId(0), 4);
            let live: Vec<LiveRow> = rows
                .iter()
                .enumerate()
                .map(|(row, &(tt, deadline, kind, random))| {
                    let exact = || {
                        let cdf = shared.cdf(TaskTypeId(tt), MachineId(0));
                        exact_score(&tail, cdf, deadline, policy).robustness
                    };
                    let threshold = match kind {
                        0 => 0.0,
                        1 => BOUND_MARGIN,
                        2 => 1.0,
                        3 => random,
                        _ => exact(),
                    };
                    live_row(row, tt, deadline, threshold)
                })
                .collect();
            assert_column_matches_pairwise(&tail, &shared, &machine, &live, &mut Cutoffs::default());
        }
    }

    proptest! {
        /// The tail-wide deadline cutoff over random unit tails of 1–48
        /// impulses, random PET cells and thresholds (random, or the
        /// exact robustness at a random deadline, a tie): it is sound —
        /// never above the smallest deadline whose exact robustness
        /// clears the threshold (`None` only when none does) — and at
        /// least as tight as the first-impulse cutoff.
        #[test]
        fn tail_cutoffs_are_sound_and_at_least_the_first_impulse_cutoff(
            tail in arb_pmf(300, 49),
            cell in arb_pmf(80, 12),
            random in 0.0f64..1.0,
            tie in 0usize..2,
            tie_at in 1u64..400,
            policy_idx in 0usize..3,
        ) {
            let policy = POLICIES[policy_idx];
            let shared =
                ScorerShared::derive(PetMatrix::from_pmfs(1, 1, vec![cell]), None, policy, 16);
            let cdf = shared.cdf(TaskTypeId(0), MachineId(0));
            let exact = |deadline| exact_score(&tail, cdf, deadline, policy).robustness;
            let threshold = if tie == 1 { exact(tie_at) } else { random };
            let cutoff = tail_cutoff(&tail, cdf, threshold);
            let first = deadline_cutoff(tail.min_time(), cdf, threshold);
            // `None` is a cutoff past every deadline.
            let tighter = cutoff.is_none_or(|t| first.is_some_and(|f| f <= t));
            prop_assert!(tighter, "tail {cutoff:?} below first-impulse {first:?}");
            let last = tail.max_time() + cdf.times.last().copied().unwrap_or(0) + 2;
            if let Some(clears) = (0..=last).find(|&deadline| exact(deadline) >= threshold) {
                prop_assert!(
                    cutoff.is_some_and(|c| c <= clears),
                    "cutoff {cutoff:?} above {clears}, the first deadline that clears {threshold}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
        /// The warm-aware bound never skips a pair it should not: over
        /// random serverless clusters of two to four shards — random
        /// queue depths, same-type pending entries and warm sets, three
        /// machines in four all-cold — every pair the table leaves
        /// unscored is exactly below the threshold, after a rebuild,
        /// after a cross-tick `ensure` over churned warm sets, and
        /// after each assignment of an `apply_assignment` run.
        #[test]
        fn hierarchical_bound_pass_agrees_with_exact_under_a_cold_model(
            params in prop::collection::vec((0usize..4, 0usize..3, 0usize..12), 64..100),
            rows in prop::collection::vec((0usize..3, 8u64..120), 2..8),
            threshold in 0.0f64..1.0,
        ) {
            let params: Vec<_> =
                params.into_iter().map(|(d, t, w)| (d, t, w.saturating_sub(8))).collect();
            drive_warm_aware_table(&params, &rows, threshold);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]
        /// The hierarchical bound pass never changes a decision: over
        /// random multi-shard clusters with skewed occupancy (full
        /// machines, failed machines, empty ones) and an arbitrary
        /// threshold — including thresholds landing right on a row's
        /// best score — the bounded table agrees with exact scoring.
        #[test]
        fn hierarchical_bound_pass_agrees_with_exact(
            depths in prop::collection::vec((0usize..5, 0usize..8), 33..72),
            deadlines in prop::collection::vec(5u64..120, 1..6),
            threshold in 0.0f64..1.0,
        ) {
            let n = depths.len();
            let pmfs: Vec<Pmf> = (0..2 * n)
                .map(|i| {
                    let base = 2 + (i as u64 % 5);
                    Pmf::from_points(&[(base, 0.25), (base + 3, 0.5), (base + 7, 0.25)])
                        .unwrap()
                })
                .collect();
            let pet = PetMatrix::from_pmfs(2, n, pmfs);
            let mut machines: Vec<MachineState> = depths
                .iter()
                .enumerate()
                .map(|(m, &(depth, _))| {
                    let pending: Vec<Task> = (0..depth as u32)
                        .map(|i| Task {
                            id: TaskId(m as u32 * 100 + i),
                            type_id: TaskTypeId((i % 2) as u16),
                            arrival: 0,
                            deadline: 40 + u64::from(i) * 20 + m as u64,
                        })
                        .collect();
                    testkit::machine_with_pending(MachineId::from(m), 4, &pending)
                })
                .collect();
            for (machine, &(_, fail)) in machines.iter_mut().zip(&depths) {
                if fail == 0 {
                    testkit::apply(machine, testkit::QueueOp::Fail);
                }
            }
            let tasks: Vec<Task> = deadlines
                .iter()
                .enumerate()
                .map(|(i, &deadline)| Task {
                    id: TaskId(40_000 + i as u32),
                    type_id: TaskTypeId((i % 2) as u16),
                    arrival: 0,
                    deadline,
                })
                .collect();
            let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
            scorer.begin_event(2);
            let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
            ref_scorer.begin_event(2);
            // Pass 1: exact bests (threshold 0 keeps everything live).
            let mut flat = ScoreTable::new();
            flat.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
            let tie = (0..tasks.len())
                .filter_map(|row| flat.best_for_row(&machines, row))
                .map(|(_, s)| s.robustness)
                .fold(0.0f64, f64::max);
            // Pass 2: the random threshold AND the exact near-tie one.
            for t in [threshold, tie] {
                let thr = move |_tt: TaskTypeId| t;
                let mut bounded = ScoreTable::new();
                bounded.rebuild(&mut scorer, &machines, &tasks, &thr);
                assert_table_agrees_with_exact(
                    &bounded, &mut ref_scorer, &machines, &tasks, &thr,
                );
            }
        }
    }
}
