//! Equivalence proof for the incremental tail cache: replay random machine
//! event sequences (assign / start / finish / evict / drop / clock
//! advance) and assert that the scorer's cached tail — maintained by
//! prefix reuse and single-step extension — is **byte-identical** to a
//! from-scratch [`analyze_queue`] of the same machine state at the same
//! instant. Per-slot robustness/skewness served from the cache must match
//! the from-scratch analysis exactly as well.
//!
//! This is the safety net that lets the mapping loop trust incremental
//! maintenance, and a differential check of the two chain steps: the
//! from-scratch analysis chains with the plain `queue_step_into`, then
//! `compact`, then the Eq. 6 moment pass over the completion, while every
//! cache extension takes the fused `chain_step_into`, which compacts
//! straight from its accumulator and never builds the completion PMF. So
//! the cached skewness is a fused-versus-plain check too: stats mode folds
//! the moments from the accumulator's slots. Both claim the same float
//! operations in the same order, so *any* divergence is a bug, not float
//! noise — hence exact (bitwise) comparison, no epsilons.
//!
//! A third property pins the cache's *time* contract: with the queue held
//! still and only the clock moving, the chain is served unchanged for as
//! long as the executing head's conditioning bucket holds, is reconvolved
//! exactly when the bucket moves, and equals from-scratch analysis either
//! way.

use hcsim_core::chain::{analyze_queue, PetTables};
use hcsim_core::ProbScorer;
use hcsim_model::{MachineId, PetBuilder, PetMatrix, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::DropPolicy;
use hcsim_sim::testkit::{self, QueueOp};
use hcsim_sim::MachineState;
use hcsim_stats::SeedSequence;
use proptest::prelude::*;

const BUDGET: usize = 16;
const CAPACITY: usize = 6;
const NUM_TYPES: usize = 3;

fn build_pet() -> PetMatrix {
    let mut rng = SeedSequence::new(4242).stream(0);
    let means: Vec<Vec<f64>> = (0..NUM_TYPES).map(|tt| vec![20.0 + 15.0 * tt as f64]).collect();
    let (pet, _) = PetBuilder::new().shape_range(2.0, 8.0).build(&means, &mut rng);
    pet
}

/// One scripted step: an optional clock advance followed by a queue op.
#[derive(Debug, Clone, Copy)]
struct Step {
    advance: Time,
    op: OpKind,
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Push { tt: u16, slack: Time },
    StartNext { total: Time },
    Finish,
    Evict,
    DropAt { nth: usize },
    DrainExpired,
}

/// Decodes one step from plain integers (the vendored proptest stand-in
/// has no `prop_oneof!`; a weighted decode over a raw tuple is
/// equivalent and keeps cases deterministic).
fn arb_step() -> impl Strategy<Value = Step> {
    ((0u64..5, 1u64..60, 0u32..13), (0u32..NUM_TYPES as u32, 5u64..400, 5u64..120, 0u64..6))
        .prop_map(|((adv_sel, adv, kind), (tt, slack, total, nth))| {
            // ~40% of steps advance the clock; the rest mutate same-event.
            let advance = if adv_sel < 2 { adv } else { 0 };
            let op = match kind {
                0..=3 => OpKind::Push { tt: tt as u16, slack },
                4 | 5 => OpKind::StartNext { total },
                6 | 7 => OpKind::Finish,
                8 | 9 => OpKind::Evict,
                10 | 11 => OpKind::DropAt { nth: nth as usize },
                _ => OpKind::DrainExpired,
            };
            Step { advance, op }
        })
}

fn apply_step(machine: &mut MachineState, step: OpKind, now: Time, next_id: &mut u32) {
    match step {
        OpKind::Push { tt, slack } => {
            let task = Task {
                id: TaskId(*next_id),
                type_id: TaskTypeId(tt),
                arrival: now,
                deadline: now + slack,
            };
            *next_id += 1;
            testkit::apply(machine, QueueOp::Push(task));
        }
        OpKind::StartNext { total } => {
            testkit::apply(machine, QueueOp::StartNext { now, total_exec: total });
        }
        OpKind::Finish => {
            testkit::apply(machine, QueueOp::FinishExecuting);
        }
        // The pruner's eviction path is `finish_executing` on the machine;
        // distinguishing it exercises the same transition twice as often.
        OpKind::Evict => {
            testkit::apply(machine, QueueOp::FinishExecuting);
        }
        OpKind::DropAt { nth } => {
            let id = machine.pending().nth(nth).map(|t| t.id);
            if let Some(id) = id {
                testkit::apply(machine, QueueOp::RemovePending(id));
            }
        }
        OpKind::DrainExpired => {
            testkit::apply(machine, QueueOp::DrainExpired { now });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The headline invariant: after every event in a random replay, the
    /// cached tail equals a from-scratch analysis byte for byte, under
    /// every drop policy.
    #[test]
    fn cached_tail_is_byte_identical_to_from_scratch(
        steps in prop::collection::vec(arb_step(), 1..40),
        policy_idx in 0usize..3,
    ) {
        let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
        let pet = build_pet();
        let mut machine = MachineState::new(MachineId(0), CAPACITY);
        let mut scorer = ProbScorer::new(&pet, policy, BUDGET);
        let mut now: Time = 0;
        let mut next_id: u32 = 0;
        for step in steps {
            now += step.advance;
            scorer.begin_event(now);
            apply_step(&mut machine, step.op, now, &mut next_id);
            let cached = scorer.tail(&machine).clone();
            let reference = analyze_queue(&machine, &pet, now, policy, BUDGET);
            // Bitwise equality: times and masses must match exactly.
            prop_assert_eq!(cached.times(), reference.tail.times(), "times diverged at t={}", now);
            prop_assert!(
                cached
                    .masses()
                    .iter()
                    .zip(reference.tail.masses())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "masses diverged at t={}: {:?} vs {:?}",
                now,
                cached.masses(),
                reference.tail.masses()
            );
        }
    }

    /// The pruner's cached per-slot view must match from-scratch analysis
    /// exactly, including after interleaved tail queries that extend the
    /// chain without slot statistics.
    #[test]
    fn cached_slot_scores_match_from_scratch(
        steps in prop::collection::vec(arb_step(), 1..30),
    ) {
        let policy = DropPolicy::All;
        let pet = build_pet();
        let mut machine = MachineState::new(MachineId(0), CAPACITY);
        let mut scorer = ProbScorer::new(&pet, policy, BUDGET);
        let mut now: Time = 0;
        let mut next_id: u32 = 0;
        for (i, step) in steps.into_iter().enumerate() {
            now += step.advance;
            scorer.begin_event(now);
            apply_step(&mut machine, step.op, now, &mut next_id);
            // Alternate access order so stats-free extensions (tail first)
            // and stats rebuilds (slots first) both get exercised.
            if i % 2 == 0 {
                let _ = scorer.tail(&machine);
            }
            let slots = scorer.slot_scores(&machine).to_vec();
            let reference = analyze_queue(&machine, &pet, now, policy, BUDGET);
            prop_assert_eq!(slots.len(), reference.slots.len());
            for (got, want) in slots.iter().zip(&reference.slots) {
                prop_assert_eq!(got.task.id, want.task.id);
                prop_assert_eq!(got.position, want.position);
                prop_assert!(
                    got.robustness.to_bits() == want.robustness.to_bits(),
                    "robustness diverged for task {} at t={}: {} vs {}",
                    got.task.id, now, got.robustness, want.robustness
                );
                prop_assert!(
                    got.skewness.to_bits() == want.skewness.to_bits(),
                    "skewness diverged for task {} at t={}: {} vs {}",
                    got.task.id, now, got.skewness, want.skewness
                );
            }
        }
    }

    /// Only the clock moves: random queues (an executing head started at
    /// zero or later, warm or cold, with pending entries behind it — or no
    /// head at all), then `now` advanced in
    /// random steps through every conditioning bucket up to and past
    /// overdue. After every step the cached tail and slot scores equal
    /// from-scratch analysis bit for bit, and the chain was reconvolved iff
    /// the head key — `Running { split }`, `Idle(now)`, `Overdue(now)` —
    /// moved.
    #[test]
    fn chain_is_reconvolved_only_when_the_head_key_moves(
        head in (0u32..3, 0u32..NUM_TYPES as u32, 0u64..50, 0u32..2),
        pending in prop::collection::vec((0u32..NUM_TYPES as u32, 30u64..400), 0..4),
        advances in prop::collection::vec(1u64..25, 8..40),
        policy_idx in 0usize..3,
    ) {
        let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
        let pet = build_pet();
        // Any same-shape matrix serves as the cold PET; a shift keeps the
        // warm/cold impulse grids apart so a wrong cell selection shows.
        let cold = PetMatrix::from_pmfs(
            NUM_TYPES,
            1,
            (0..NUM_TYPES).map(|tt| pet.pmf(TaskTypeId(tt as u16), MachineId(0)).shift(7)).collect(),
        );
        let pets = PetTables { warm: &pet, cold: Some(&cold) };
        let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), policy, BUDGET);
        let mut machine = MachineState::new(MachineId(0), CAPACITY);
        let task = |id: u32, tt: u32, deadline: Time| Task {
            id: TaskId(id),
            type_id: TaskTypeId(tt as u16),
            arrival: 0,
            deadline,
        };

        // Queue shape: 0 = no head (idle-with-pending), 1 = head started
        // at 0, 2 = head started at `start + 1`.
        let (shape, head_tt, start, cold_start) = head;
        let cold_start = cold_start == 1;
        let mut now: Time = if shape == 2 { start + 1 } else { 0 };
        if shape > 0 {
            testkit::apply(&mut machine, QueueOp::Push(task(0, head_tt, now + 500)));
            assert!(testkit::start_next(&mut machine, now, 1_000, cold_start));
        }
        for (i, &(tt, deadline)) in pending.iter().enumerate() {
            testkit::apply(&mut machine, QueueOp::Push(task(10 + i as u32, tt, now + deadline)));
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum HeadKey {
            Idle(Time),
            Running { split: usize },
            Overdue(Time),
        }
        let key_at = |machine: &MachineState, now: Time| match machine.executing() {
            None => HeadKey::Idle(now),
            Some(exec) => {
                let table = if exec.cold_start { &cold } else { &pet };
                let times = table.pmf(exec.task.type_id, MachineId(0)).times();
                let split = times.partition_point(|&t| t <= exec.elapsed_at(now));
                if split == times.len() {
                    HeadKey::Overdue(now)
                } else {
                    HeadKey::Running { split }
                }
            }
        };

        let chain_len = machine.occupancy() as u64;
        let mut last_key = None;
        for advance in advances {
            now += advance;
            scorer.begin_event(now);
            let key = key_at(&machine, now);
            let before = scorer.chain_builds(MachineId(0));
            let cached = scorer.tail(&machine).clone();
            let built = scorer.chain_builds(MachineId(0)) - before;
            if last_key == Some(key) {
                prop_assert_eq!(built, 0, "key {:?} held at t={} but the chain was rebuilt", key, now);
            } else {
                // One head build (even `delta(now)`) plus one link per
                // pending entry.
                let expected = 1 + chain_len - u64::from(machine.executing().is_some());
                prop_assert_eq!(built, expected, "key moved to {:?} at t={}", key, now);
            }
            last_key = Some(key);

            let reference = hcsim_core::chain::analyze_queue_cold(&machine, pets, now, policy, BUDGET);
            prop_assert_eq!(cached.times(), reference.tail.times(), "times diverged at t={}", now);
            prop_assert!(
                cached.masses().iter().zip(reference.tail.masses()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "masses diverged at t={}",
                now
            );
            let slots = scorer.slot_scores(&machine).to_vec();
            prop_assert_eq!(slots.len(), reference.slots.len());
            for (got, want) in slots.iter().zip(&reference.slots) {
                prop_assert_eq!(got.task.id, want.task.id);
                prop_assert!(
                    got.robustness.to_bits() == want.robustness.to_bits()
                        && got.skewness.to_bits() == want.skewness.to_bits(),
                    "slot {} diverged at t={}: {:?} vs r={} s={}",
                    got.position, now, got, want.robustness, want.skewness
                );
            }
        }
    }
}
