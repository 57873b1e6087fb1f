//! Differential checks for the convolution calculus' fast paths.
//!
//! * [`queue_step_tail_into`] — the fused step a stats-free queue chain
//!   takes — must return [`queue_step_into`]'s availability and Eq. 1
//!   robustness bit for bit under every [`DropPolicy`].
//! * The completion [`queue_step_into`] builds — dense accumulator or
//!   radix sort, whichever the operands pick — must equal a naive O(n·m)
//!   reference: every product in row-major `(availability, execution)`
//!   order, a stable sort by time, equal times summed in that order.
//!
//! Both comparisons are on bits (`f64::to_bits`), not within an epsilon:
//! the fast paths claim to run the same float operations in the same
//! order, so any difference is a bug.

use hcsim_pmf::{
    convolve_into, queue_step_into, queue_step_tail_into, ConvScratch, DropPolicy, Pmf, Time,
};
use proptest::prelude::*;

/// A mass small enough that the product of two of them underflows to `0.0`.
const TINY: f64 = 1e-200;

const POLICIES: [DropPolicy; 3] = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All];

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

proptest! {
    #[test]
    fn fused_step_matches_plain_step_bit_for_bit(raw in raw_case()) {
        let (avail, exec, deadline) = build(raw);
        let mut scratch = ConvScratch::new();
        for policy in POLICIES {
            // Twice on one scratch: the second call runs on a dirty
            // accumulator and pooled storage.
            for _ in 0..2 {
                let plain = queue_step_into(&avail, &exec, deadline, policy, &mut scratch);
                let (availability, robustness) =
                    queue_step_tail_into(&avail, &exec, deadline, policy, &mut scratch);
                prop_assert_eq!(
                    bits(&availability),
                    bits(&plain.availability),
                    "{:?} at δ={} on {:?} ⊛ {:?}",
                    policy,
                    deadline,
                    avail,
                    exec
                );
                prop_assert_eq!(robustness.to_bits(), plain.robustness.to_bits(), "{:?}", policy);
                scratch.recycle(availability);
                plain.recycle_into(&mut scratch);
            }
        }
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
}
