//! Impulse aggregation ("compaction").
//!
//! §IV of the paper notes that the convolution overhead "can be mitigated
//! … by aggregating impulses". Without aggregation, convolving a machine
//! queue of depth 6 multiplies impulse counts geometrically; with it, every
//! intermediate PMF is capped at a configurable budget.
//!
//! Strategy: *mass-quantile* grouping. The sorted impulse columns are
//! walked once, cutting a new group whenever the accumulated mass reaches
//! the next multiple of `total / max_impulses`. Each group is replaced by a
//! single impulse at the group's mass-weighted mean time (rounded to the
//! grid). The walk writes groups back into the input columns in place —
//! the write cursor can never overtake the read cursor, so compaction
//! allocates nothing.
//!
//! Properties, verified by the tests below and crate-level proptests:
//! * total mass is preserved exactly (group masses are sums);
//! * the mean moves by at most half a grid unit per group (rounding);
//! * impulse count after compaction is `<= max_impulses`;
//! * the operation is deterministic, order-preserving, and allocation-free.
//!
//! One property it does **not** have: it is not monotone under stochastic
//! dominance. A PMF that lies later than another everywhere can compact
//! to an *earlier* first impulse, because the quantile cuts fall
//! differently (`compaction_is_not_monotone_under_stochastic_dominance`).
//! So no bound may assume that a chain of compacted queue steps keeps its
//! earliest impulse from moving earlier when an input moves later.

use crate::Time;

/// Compacts the parallel `times`/`masses` columns (sorted, merged) down to
/// at most `max_impulses` entries in place. `max_impulses` of zero is
/// treated as one.
pub(crate) fn compact_in_place(times: &mut Vec<Time>, masses: &mut Vec<f64>, max_impulses: usize) {
    let max = max_impulses.max(1);
    debug_assert_eq!(times.len(), masses.len());
    if times.len() <= max {
        return;
    }
    let total: f64 = masses.iter().sum();
    if total <= 0.0 {
        // Zero-mass PMFs cannot arise through public constructors, but be
        // defensive: collapse to the first impulse.
        times.truncate(1);
        masses.truncate(1);
        return;
    }
    let mut walk = GroupWalk::new(total, max);
    let mut write = 0usize;
    for read in 0..times.len() {
        if let Some((t, p)) = walk.push(times[read], masses[read]) {
            times[write] = t;
            masses[write] = p;
            write += 1;
        }
    }
    if let Some((t, p)) = walk.finish() {
        times[write] = t;
        masses[write] = p;
        write += 1;
    }
    times.truncate(write);
    masses.truncate(write);

    // Weighted-mean rounding can make adjacent groups collide on a time.
    merge_sorted_columns(times, masses);
    debug_assert!(times.len() <= max, "compaction produced {} > {max}", times.len());
}

/// The cut slack against float shortfall in a running mass near 1.
const SLACK: f64 = 1e-15;

/// The mass-quantile group walk of [`compact_in_place`], one impulse at a
/// time: a group closes once the running mass reaches the next multiple
/// of `total / max` (less a slack against float shortfall: `1e-15`, or
/// half that quantum where the quantum is smaller, so the cuts still
/// step through the mass) and becomes one impulse at its mass-weighted
/// mean time, rounded to the grid. At most `max - 1` groups close that
/// way; whatever follows the last of them — however little mass it
/// holds, even less than the slack — is the final group, so a walk
/// never yields more than `max`. The chain kernel in `convolve` feeds
/// it straight from its accumulator, so both compactions run these
/// float operations in this order.
pub(crate) struct GroupWalk {
    quantum: f64,
    slack: f64,
    /// Groups [`push`](Self::push) may still close; the last of the
    /// `max` is left to [`finish`](Self::finish).
    cuts_left: usize,
    group_mass: f64,
    /// Σ t·p within the group.
    group_sum_tp: f64,
    /// Running mass over all emitted groups plus the current one.
    cum: f64,
    next_cut: f64,
}

impl GroupWalk {
    /// A walk over impulses of total mass `total > 0` into at most
    /// `max ≥ 1` groups.
    pub(crate) fn new(total: f64, max: usize) -> Self {
        let quantum = total / max as f64;
        Self {
            quantum,
            slack: SLACK.min(quantum / 2.0),
            // A quantum that underflows to zero cuts nothing: one group.
            cuts_left: if quantum > 0.0 { max - 1 } else { 0 },
            group_mass: 0.0,
            group_sum_tp: 0.0,
            cum: 0.0,
            next_cut: quantum,
        }
    }

    /// Adds the impulse `(t, p)`; returns the group it closes, if any. A
    /// zero-mass impulse changes no sum, and the running mass it leaves
    /// already failed the cut test, so it never closes a group.
    #[inline]
    pub(crate) fn push(&mut self, t: Time, p: f64) -> Option<(Time, f64)> {
        self.group_mass += p;
        self.group_sum_tp += t as f64 * p;
        self.cum += p;
        // A single heavy impulse may span several boundaries; it still
        // produces one group, which only helps the budget.
        if self.cuts_left > 0 && self.cum + self.slack >= self.next_cut {
            self.cuts_left -= 1;
            let group = self.close();
            while self.next_cut <= self.cum + self.slack {
                self.next_cut += self.quantum;
            }
            return Some(group);
        }
        None
    }

    /// The trailing partial group, if it holds mass.
    pub(crate) fn finish(mut self) -> Option<(Time, f64)> {
        (self.group_mass > 0.0).then(|| self.close())
    }

    fn close(&mut self) -> (Time, f64) {
        let group = ((self.group_sum_tp / self.group_mass).round() as u64, self.group_mass);
        self.group_mass = 0.0;
        self.group_sum_tp = 0.0;
        group
    }
}

/// Merges runs of equal times in sorted parallel columns (summing mass).
///
/// Like the pair-buffer merge in `pmf`, this walk is prefixed by a 4-wide
/// unrolled adjacency scan over the dense time column: the compacting
/// copy only starts at the first collision, and the common no-collision
/// case (weighted-mean rounding rarely makes neighbours collide) costs a
/// single read-only pass. Masses still sum in input order — bit-identical
/// to the plain walk.
pub(crate) fn merge_sorted_columns(times: &mut Vec<Time>, masses: &mut Vec<f64>) {
    let n = times.len();
    let Some(first) = first_adjacent_duplicate_by(times, |&t| t) else {
        return;
    };
    let mut write = first - 1;
    for read in first..n {
        if times[read] == times[write] {
            masses[write] += masses[read];
        } else {
            write += 1;
            times[write] = times[read];
            masses[write] = masses[read];
        }
    }
    times.truncate(write + 1);
    masses.truncate(write + 1);
}

/// Index of the first element whose key equals its predecessor's, found
/// with a 4-wide unrolled scan — the shared fast-path probe of the
/// duplicate merges here and in `pmf`.
pub(crate) fn first_adjacent_duplicate_by<T>(
    items: &[T],
    key: impl Fn(&T) -> Time,
) -> Option<usize> {
    let n = items.len();
    let mut i = 1usize;
    while i + 3 < n {
        if key(&items[i]) == key(&items[i - 1]) {
            return Some(i);
        }
        if key(&items[i + 1]) == key(&items[i]) {
            return Some(i + 1);
        }
        if key(&items[i + 2]) == key(&items[i + 1]) {
            return Some(i + 2);
        }
        if key(&items[i + 3]) == key(&items[i + 2]) {
            return Some(i + 3);
        }
        i += 4;
    }
    while i < n {
        if key(&items[i]) == key(&items[i - 1]) {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::Pmf;

    fn uniform(n: u64) -> Pmf {
        let p = 1.0 / n as f64;
        Pmf::from_points(&(1..=n).map(|t| (t, p)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn noop_below_budget() {
        let mut p = uniform(8);
        let before = p.clone();
        p.compact(16);
        assert_eq!(p, before);
        p.compact(8);
        assert_eq!(p, before);
    }

    #[test]
    fn reduces_to_budget() {
        for &(n, max) in &[(100u64, 10usize), (64, 16), (1000, 32), (7, 2), (50, 1)] {
            let mut p = uniform(n);
            p.compact(max);
            assert!(p.len() <= max, "n={n} max={max} got {}", p.len());
        }
    }

    #[test]
    fn preserves_total_mass() {
        let mut p = uniform(257);
        let mass_before = p.mass();
        p.compact(12);
        assert!((p.mass() - mass_before).abs() < 1e-12);
    }

    #[test]
    fn approximately_preserves_mean() {
        let mut p = uniform(1000);
        let mean_before = p.mean();
        p.compact(16);
        // Weighted-mean grouping: rounding shifts each group's center by at
        // most 0.5 time units.
        assert!((p.mean() - mean_before).abs() <= 0.5, "mean drifted {}", p.mean() - mean_before);
    }

    #[test]
    fn heavy_impulse_survives() {
        // One impulse carries 90% of the mass; compaction must keep it
        // essentially in place.
        let mut p = Pmf::from_points(&[
            (10, 0.9),
            (100, 0.02),
            (200, 0.02),
            (300, 0.02),
            (400, 0.02),
            (500, 0.02),
        ])
        .unwrap();
        p.compact(3);
        assert!(p.len() <= 3);
        // The dominant mass should remain near t=10.
        assert!(p.cdf_at(20) >= 0.9 - 1e-12, "cdf(20) = {}", p.cdf_at(20));
    }

    #[test]
    fn budget_one_collapses_to_mean() {
        let mut p = Pmf::from_points(&[(10, 0.5), (20, 0.5)]).unwrap();
        p.compact(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.times()[0], 15);
        assert!((p.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_zero_treated_as_one() {
        let mut p = uniform(10);
        p.compact(0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn deterministic() {
        let mut a = uniform(333);
        let mut b = uniform(333);
        a.compact(20);
        b.compact(20);
        assert_eq!(a, b);
    }

    #[test]
    fn unnormalized_input_supported() {
        // Sub-distributions (mass < 1) occur mid-computation in Eq. 3-4.
        let mut p = Pmf::from_points(&[(1, 0.1), (2, 0.1), (3, 0.1), (4, 0.1)]).unwrap();
        p.compact(2);
        assert!(p.len() <= 2);
        assert!((p.mass() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mass_below_the_cut_slack_compacts_within_budget() {
        // Quanta far below 1e-15: a fixed slack would let every impulse
        // reach its cut, and the cuts would crawl past the running mass.
        let points: Vec<(u64, f64)> = (1..=100).map(|t| (t, 1e-200)).collect();
        let mut p = Pmf::from_points(&points).unwrap();
        p.compact(8);
        assert!(p.len() <= 8, "{} impulses", p.len());
        assert!((p.mass() / 1e-198 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compaction_is_not_monotone_under_stochastic_dominance() {
        // B is A with 0.59 of the mass at 100 moved later, to 200: B's CDF
        // is at or below A's everywhere. Cut into thirds, A's first group
        // swallows the heavy impulse at 100, while B's closes right after
        // the light one — so the later PMF keeps the earlier first impulse.
        let a = Pmf::from_points(&[(1, 0.33), (100, 0.60), (300, 0.03), (400, 0.04)]).unwrap();
        let b = Pmf::from_points(&[(1, 0.33), (100, 0.01), (200, 0.59), (300, 0.03), (400, 0.04)])
            .unwrap();
        for t in [0, 1, 99, 100, 199, 200, 299, 300, 399, 400] {
            assert!(b.cdf_at(t) <= a.cdf_at(t) + 1e-12, "B must lie later than A at {t}");
        }
        let (mut a, mut b) = (a, b);
        a.compact(3);
        b.compact(3);
        assert_eq!((b.min_time(), a.min_time()), (4, 65));
    }

    #[test]
    fn monotone_times_after_compaction() {
        let mut p = uniform(500);
        p.compact(25);
        let times = p.times();
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    mod props {
        use crate::Pmf;
        use proptest::prelude::*;

        fn arb_pmf() -> impl Strategy<Value = Pmf> {
            prop::collection::vec((0u64..5_000, 0.001f64..1.0), 2..200).prop_map(|pts| {
                let mut p = Pmf::from_points(&pts).unwrap();
                p.normalize();
                p
            })
        }

        proptest! {
            #[test]
            fn budget_mass_and_order_hold(p in arb_pmf(), max in 1usize..64) {
                let mut c = p.clone();
                c.compact(max);
                prop_assert!(c.len() <= max);
                prop_assert!((c.mass() - p.mass()).abs() < 1e-9);
                for w in c.times().windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }

            #[test]
            fn cdf_error_is_bounded_by_group_mass(p in arb_pmf(), max in 2usize..64) {
                // Mass only moves within a group; a group holds at most
                // quantum + the heaviest single impulse of mass, plus the
                // half-unit rounding of the group center. The CDF at any
                // probe point can therefore shift by at most that much.
                let mut c = p.clone();
                c.compact(max);
                let max_imp =
                    p.masses().iter().copied().fold(0.0f64, f64::max);
                let bound = p.mass() / max as f64 + max_imp + 1e-9;
                for probe in [0u64, 100, 500, 1_000, 2_500, 5_000, 10_000] {
                    let err = (c.cdf_at(probe) - p.cdf_at(probe)).abs();
                    prop_assert!(
                        err <= bound,
                        "cdf error {err} exceeds bound {bound} at t={probe} (max={max})"
                    );
                }
            }

            #[test]
            fn mean_within_one_time_unit(p in arb_pmf(), max in 2usize..64) {
                let mut c = p.clone();
                c.compact(max);
                prop_assert!((c.mean() - p.mean()).abs() <= 1.0);
            }
        }
    }
}
