//! Differential checks for the convolution calculus' fast paths.
//!
//! * [`chain_step_into`] — the step a queue chain takes — must return
//!   [`queue_step_into`]'s availability compacted by [`Pmf::compact`], its
//!   Eq. 1 robustness and its completion's [`Pmf::bounded_skewness`] bit
//!   for bit, under every [`DropPolicy`] and impulse budget, in storage
//!   of link size.
//! * The completion [`queue_step_into`] builds — dense accumulator or
//!   radix sort, whichever the operands pick — must equal a naive O(n·m)
//!   reference: every product in row-major `(availability, execution)`
//!   order, a stable sort by time, equal times summed in that order.
//! * The mass-quantile group walk both compactions share must keep its
//!   `1e-15` cut slack against a naive reference.
//!
//! The comparisons are on bits (`f64::to_bits`), not within an epsilon:
//! the fast paths claim to run the same float operations in the same
//! order, so any difference is a bug.

use hcsim_pmf::{
    chain_step_into, convolve_into, queue_step_into, ConvScratch, DropPolicy, Pmf, QueueStep, Time,
};
use proptest::prelude::*;

/// A mass small enough that the product of two of them underflows to `0.0`.
const TINY: f64 = 1e-200;

const POLICIES: [DropPolicy; 3] = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All];

/// Impulse budgets the chain kernel is checked at: a single group, a
/// small and the default budget, and one wider than most availabilities.
const BUDGETS: [usize; 4] = [1, 8, 24, 48];

/// The naive sort-and-merge convolution of `a` and `b`, as `(time, mass)`
/// pairs; zero-mass products are kept like any other.
fn naive_convolve(a: (&[Time], &[f64]), b: &Pmf) -> Vec<(Time, f64)> {
    let mut pairs: Vec<(Time, f64)> =
        a.0.iter()
            .zip(a.1)
            .flat_map(|(&ta, &pa)| b.iter().map(move |i| (ta + i.t, pa * i.p)))
            .collect();
    pairs.sort_by_key(|&(t, _)| t); // stable: equal times keep row-major order
    let mut merged: Vec<(Time, f64)> = Vec::with_capacity(pairs.len());
    for (t, p) in pairs {
        match merged.last_mut() {
            Some(last) if last.0 == t => last.1 += p,
            _ => merged.push((t, p)),
        }
    }
    merged
}

fn bits(pmf: &Pmf) -> Vec<(Time, u64)> {
    pmf.iter().map(|i| (i.t, i.p.to_bits())).collect()
}

fn pair_bits(pairs: &[(Time, f64)]) -> Vec<(Time, u64)> {
    pairs.iter().map(|&(t, p)| (t, p.to_bits())).collect()
}

/// One generated case: raw impulses for both operands plus the knobs that
/// steer it into each corner the fast paths have.
type Raw = ((Vec<(u64, f64)>, Vec<(u64, f64)>), (u8, usize, u64), (bool, bool));

fn raw_case() -> impl Strategy<Value = Raw> {
    (
        (
            prop::collection::vec((0u64..1000, 0.01f64..1.0), 1..24),
            prop::collection::vec((0u64..1000, 0.01f64..1.0), 1..24),
        ),
        (0u8..5, 0usize..64, 0u64..4000),
        (0u8..4, 0u8..3).prop_map(|(wide, tiny)| (wide == 0, tiny == 0)),
    )
}

/// Builds `(avail, exec, deadline)` from a raw case.
///
/// * `wide` spreads times up to ×40, so many ranges reach `DENSE_RANGE`
///   (2048) and sort; otherwise times stay within ~100 units, and with
///   more than 32 pairs the dense accumulator runs. Small operands give
///   ≤ 32 pairs either way.
/// * `tiny` puts [`TINY`] on both operands' first impulse: their product
///   underflows to `0.0` at the earliest output time, which no other pair
///   reaches.
/// * `mode` picks the deadline: 0 random across the support;
///   1 at or below the first availability impulse (nothing can start:
///   `split == 0`); 2 past every completion; 3 on an availability impulse
///   that a completion impulse also lands on, with completion mass past it
///   (the δ-merge and the carry-merge both fire); 4 just below the
///   earliest completion (nothing completes on time).
fn build(raw: Raw) -> (Pmf, Pmf, Time) {
    let ((a, b), (mode, pick, deadline), (wide, tiny)) = raw;
    let (scale_a, scale_b) = if wide { (40, 9) } else { (1, 1) };
    let points = |raw: &[(u64, f64)], scale: u64, span: u64, from: u64| -> Vec<(Time, f64)> {
        raw.iter().map(|&(t, p)| (from + (t % span) * scale, p)).collect()
    };
    let mut a = points(&a, scale_a, 100, 1);
    // Mode 4 starts execution late, so most of the availability can start
    // before a δ that nothing completes by.
    let mut b = points(&b, scale_b, 60, if mode == 4 { 50 } else { 1 });
    // Mode 3's δ: an availability impulse that a completion impulse lands
    // on exactly, with one more completion just past it.
    let t0 = a.iter().map(|p| p.0).min().expect("non-empty");
    let on_impulse = t0 + 1 + (pick as u64 % 50) * scale_a;
    if mode == 3 {
        a.push((on_impulse, 0.3));
        b.push((on_impulse - t0, 0.2));
        b.push((on_impulse - t0 + 1, 0.2));
    }
    let mut avail = Pmf::from_points(&a).expect("positive masses");
    let mut exec = Pmf::from_points(&b).expect("positive masses");
    if tiny {
        avail = with_first_mass(&avail, TINY);
        exec = with_first_mass(&exec, TINY);
    }
    let deadline = match mode {
        0 => deadline % (avail.max_time() + exec.max_time() + 2),
        1 => avail.min_time().saturating_sub(deadline % 3),
        2 => avail.max_time() + exec.max_time() + 1,
        3 => on_impulse,
        _ => avail.min_time() + exec.min_time() - 1,
    };
    (avail, exec, deadline)
}

fn with_first_mass(pmf: &Pmf, mass: f64) -> Pmf {
    let points: Vec<(Time, f64)> =
        pmf.iter().enumerate().map(|(k, i)| (i.t, if k == 0 { mass } else { i.p })).collect();
    Pmf::from_points(&points).expect("positive masses")
}

/// Checks [`chain_step_into`] against the plain chain step — the step,
/// then [`Pmf::compact`], then the moment pass over the completion — at
/// every policy, budget and mode, twice: on a fresh pool, where its link
/// must hold storage of link size — at most twice the budget, never the
/// width of the uncompacted availability — and again on a dirty
/// accumulator and pooled storage.
fn check_chain_step(avail: &Pmf, exec: &Pmf, deadline: Time) {
    let mut scratch = ConvScratch::new();
    for policy in POLICIES {
        for budget in BUDGETS {
            for with_skewness in [false, true] {
                let QueueStep { completion, availability: mut expected, robustness } =
                    queue_step_into(avail, exec, deadline, policy, &mut ConvScratch::new());
                expected.compact(budget);
                let skewness = completion.as_ref().map_or(0.0, Pmf::bounded_skewness);
                for pass in 0..2 {
                    let mut fresh = ConvScratch::new();
                    let pool = if pass == 0 { &mut fresh } else { &mut scratch };
                    let step =
                        chain_step_into(avail, exec, deadline, policy, budget, with_skewness, pool);
                    let case = format!(
                        "{policy:?}, budget {budget}, stats {with_skewness} at δ={deadline} on \
                         {avail:?} ⊛ {exec:?}"
                    );
                    assert_eq!(bits(&step.availability), bits(&expected), "{}", case);
                    assert_eq!(step.robustness.to_bits(), robustness.to_bits(), "{}", case);
                    if with_skewness {
                        assert_eq!(step.skewness.to_bits(), skewness.to_bits(), "{}", case);
                    } else {
                        assert!(step.skewness.is_nan(), "{}", case);
                    }
                    if pass == 0 {
                        assert!(
                            step.availability.heap_bytes() <= 2 * 16 * budget,
                            "{} bytes for a {budget}-impulse link: {}",
                            step.availability.heap_bytes(),
                            case
                        );
                    }
                    scratch.recycle(step.availability);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn fused_step_matches_plain_step_bit_for_bit(raw in raw_case()) {
        let (avail, exec, deadline) = build(raw);
        check_chain_step(&avail, &exec, deadline);
    }

    #[test]
    fn step_completion_matches_naive_convolution(raw in raw_case()) {
        let (avail, exec, deadline) = build(raw);
        let mut scratch = ConvScratch::new();
        for policy in POLICIES {
            let step = queue_step_into(&avail, &exec, deadline, policy, &mut scratch);
            let startable = match policy {
                DropPolicy::None => avail.len(),
                _ => avail.partition_index(deadline),
            };
            let prefix = (&avail.times()[..startable], &avail.masses()[..startable]);
            match &step.completion {
                None => prop_assert_eq!(startable, 0),
                Some(completion) => prop_assert_eq!(
                    bits(completion),
                    pair_bits(&naive_convolve(prefix, &exec)),
                    "{:?} at δ={}",
                    policy,
                    deadline
                ),
            }
            step.recycle_into(&mut scratch);
        }
    }
}

/// A product that underflows to `0.0` and is the only one at its output
/// time must survive as a zero-mass impulse, exactly as the sort-and-merge
/// reference keeps it. The operands are otherwise dense-shaped (36 pairs
/// over a 10-slot range), so this pins the dense path's positivity guard.
#[test]
fn underflowed_product_keeps_its_zero_mass_impulse() {
    let a = Pmf::from_points(&[(0, TINY), (1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2), (5, 0.2)])
        .expect("positive masses");
    let b = Pmf::from_points(&[(0, TINY), (1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2), (5, 0.2)])
        .expect("positive masses");
    assert_eq!(TINY * TINY, 0.0, "the first product must underflow");
    let mut scratch = ConvScratch::new();
    let product = convolve_into(&a, &b, &mut scratch);
    assert_eq!(product.times()[0], 0, "the underflowed impulse at t = 0 is kept");
    assert_eq!(product.masses()[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(bits(&product), pair_bits(&naive_convolve((a.times(), a.masses()), &b)));
    // The chain keeps it too, wherever the step sorts.
    check_chain_step(&a, &b, 7);
}

/// Dense-shaped operands (40 pairs over a 22-slot range) whose completion
/// lands on even times only, at an odd δ: δ's own slot is untouched while
/// completion mass lies past it. Twice: with the carry-over starting
/// after δ, and with a carry-over impulse on δ, which is then merged with
/// the evicted mass alone.
#[test]
fn zero_deadline_slot_with_mass_past_it() {
    let odd = |n: u64| -> Vec<(Time, f64)> {
        (0..n).map(|k| (1 + 2 * k, 0.5 + k as f64 / 16.0)).collect()
    };
    let exec = Pmf::from_points(&odd(8)).expect("positive masses");
    for carry in [[(13, 0.4), (15, 0.2)], [(11, 0.4), (15, 0.2)]] {
        let mut avail =
            Pmf::from_points(&[odd(5), carry.to_vec()].concat()).expect("positive masses");
        avail.normalize();
        check_chain_step(&avail, &exec, 11);
    }
}

/// Starts at 1..=8 and executions 1..=8 (64 pairs, dense) complete over
/// 2..=16: at δ = 14 the task's own completion, the mass Eq. 5 evicts
/// from past δ and the carry-over's first impulse all meet on δ. The
/// neighbouring deadlines leave the carry-over off δ.
#[test]
fn carry_lands_on_an_impulse_at_deadline() {
    let avail: Vec<(Time, f64)> =
        (0..8).map(|k| (1 + k, 0.1 + k as f64 / 50.0)).chain([(14, 0.3), (20, 0.1)]).collect();
    let mut avail = Pmf::from_points(&avail).expect("positive masses");
    avail.normalize();
    let exec = Pmf::from_points(&(1..=8).map(|k| (k, 1.0 / 8.0)).collect::<Vec<_>>())
        .expect("positive masses");
    for deadline in [13, 14, 15] {
        check_chain_step(&avail, &exec, deadline);
    }
}

/// The naive mass-quantile compaction: cut a group once the running mass
/// reaches the next multiple of `total / max` less `slack`, at most
/// `max - 1` times, the rest forming the last group; each group is an
/// impulse at its rounded mass-weighted mean time, merging equal times.
fn naive_compact(pmf: &Pmf, max: usize, slack: f64) -> Vec<(Time, f64)> {
    let total: f64 = pmf.masses().iter().sum();
    let quantum = total / max as f64;
    let (mut cum, mut next_cut) = (0.0f64, quantum);
    let mut groups: Vec<(Time, f64)> = Vec::new();
    let mut group = (0.0f64, 0.0f64);
    for i in pmf.iter() {
        group = (group.0 + i.p, group.1 + i.t as f64 * i.p);
        cum += i.p;
        if groups.len() + 1 < max && cum + slack >= next_cut {
            groups.push(((group.1 / group.0).round() as Time, group.0));
            group = (0.0, 0.0);
            while next_cut <= cum + slack {
                next_cut += quantum;
            }
        }
    }
    if group.0 > 0.0 {
        groups.push(((group.1 / group.0).round() as Time, group.0));
    }
    let mut merged: Vec<(Time, f64)> = Vec::new();
    for (t, p) in groups {
        match merged.last_mut() {
            Some(last) if last.0 == t => last.1 += p,
            _ => merged.push((t, p)),
        }
    }
    merged
}

/// Nine impulses of mass 1/9 cut in thirds: the running mass after three
/// falls an ulp short of the first cut, and only the `1e-15` slack closes
/// the group there. The case is checked to depend on the slack, then the
/// chain kernel (whose `None`-policy step is a shift here) and
/// [`Pmf::compact`] must both match the reference that keeps it.
#[test]
fn group_walk_keeps_the_cut_slack() {
    let uniform: Vec<(Time, f64)> = (1..=9).map(|t| (t, 1.0 / 9.0)).collect();
    let avail = Pmf::from_points(&uniform).expect("positive masses");
    let expected = naive_compact(&avail.shift(1), 3, 1e-15);
    assert_ne!(
        pair_bits(&expected),
        pair_bits(&naive_compact(&avail.shift(1), 3, 0.0)),
        "the case must depend on the slack"
    );
    let step = chain_step_into(
        &avail,
        &Pmf::delta(1),
        100,
        DropPolicy::None,
        3,
        false,
        &mut ConvScratch::new(),
    );
    assert_eq!(bits(&step.availability), pair_bits(&expected));
    let mut compacted = avail.shift(1);
    compacted.compact(3);
    assert_eq!(bits(&compacted), pair_bits(&expected));
}

/// A tail lighter than the cut slack — here lighter than an ulp of the
/// total, so the running mass meets the last cut before it — joins the
/// last group instead of forming one past the budget, in both
/// compactions. Before the walk capped its cuts this compacted to three
/// impulses at a budget of two.
#[test]
fn tail_below_the_cut_slack_stays_within_budget() {
    for tail in [1e-17, TINY] {
        let avail = Pmf::from_points(&[(1, 0.5), (2, 0.5), (3, tail)]).expect("positive masses");
        let expected = naive_compact(&avail.shift(1), 2, 1e-15);
        assert_eq!(expected.len(), 2, "{expected:?}");
        let step = chain_step_into(
            &avail,
            &Pmf::delta(1),
            100,
            DropPolicy::None,
            2,
            false,
            &mut ConvScratch::new(),
        );
        assert_eq!(bits(&step.availability), pair_bits(&expected));
        let mut compacted = avail.shift(1);
        compacted.compact(2);
        assert_eq!(bits(&compacted), pair_bits(&expected));
    }
}
