//! The [`Pmf`] impulse representation and its point-wise operations.
//!
//! Layout: struct-of-arrays. Times and masses live in two parallel vectors
//! (`times: Vec<Time>`, `masses: Vec<f64>`), so the CDF queries on the
//! mapping hot path are a `partition_point` binary search over a dense
//! `&[u64]` followed by a vectorizable partial sum — no pointer-chasing
//! through `(t, p)` pairs, and mass-only passes (normalize, total mass)
//! never touch the time column.

use crate::{Time, MASS_EPSILON};
use hcsim_stats::Histogram;
use serde::{Deserialize, Serialize};

/// A single probability impulse: mass `p` at discrete time `t`.
///
/// Matches the paper's notation `e_ij(t)` / `c_ij(t)` — "an impulse
/// represents the completion time of task i on machine j at time t".
/// [`Pmf`] stores impulses column-wise; this type is the row view yielded
/// by [`Pmf::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Impulse {
    /// Discrete time of the impulse.
    pub t: Time,
    /// Probability mass at `t` (non-negative, finite).
    pub p: f64,
}

/// Mean / variance / skewness of a [`Pmf`], produced by the fused
/// single-pass kernel [`Pmf::moments`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Mean of the distribution.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Third standardized moment (0 for degenerate distributions).
    pub skewness: f64,
}

impl Moments {
    /// Eq. 6 bounded skewness `s ∈ [-1, 1]`.
    #[must_use]
    pub fn bounded_skewness(&self) -> f64 {
        self.skewness.clamp(-1.0, 1.0)
    }

    /// The moment kernel of [`Pmf::moments`] over `(x, p)` points in time
    /// order, `x = t − t0`: raw power sums `Σp·xᵏ` folded left to right,
    /// then converted to central moments. The chain kernel folds a dense
    /// accumulator's slots through it too, zero slots included — they add
    /// `0.0` to every sum, which changes none.
    pub(crate) fn fold(t0: Time, points: impl Iterator<Item = (f64, f64)>) -> Self {
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (x, p) in points {
            let xp = x * p;
            let x2p = x * xp;
            s0 += p;
            s1 += xp;
            s2 += x2p;
            s3 += x * x2p;
        }
        if s0 <= 0.0 {
            return Self { mean: 0.0, variance: 0.0, skewness: 0.0 };
        }
        let mu = s1 / s0;
        let variance = (s2 / s0 - mu * mu).max(0.0);
        let mean = t0 as f64 + mu;
        if variance <= 1e-300 {
            return Self { mean, variance: 0.0, skewness: 0.0 };
        }
        // E[(x−µ)³] = E[x³] − 3µE[x²] + 2µ³, standardized by σ³.
        let m3 = s3 / s0 - 3.0 * mu * (s2 / s0) + 2.0 * mu * mu * mu;
        Self { mean, variance, skewness: m3 / (variance * variance.sqrt()) }
    }
}

/// Error produced when constructing a [`Pmf`] from invalid data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmfError {
    /// A mass was negative, NaN, or infinite.
    InvalidMass,
    /// The PMF would contain no impulses.
    Empty,
}

impl std::fmt::Display for PmfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmfError::InvalidMass => write!(f, "impulse mass must be finite and >= 0"),
            PmfError::Empty => write!(f, "a PMF must contain at least one impulse"),
        }
    }
}

impl std::error::Error for PmfError {}

/// A discrete probability mass function over simulation time.
///
/// Invariants (enforced by every constructor and mutator):
/// * `times` is strictly increasing and `masses` runs parallel to it;
/// * every mass is finite and non-negative;
/// * there is at least one impulse.
///
/// Total mass is *usually* 1 but sub-distributions (e.g. the deadline-
/// truncated completion PMFs of Eq. 3–4 before carry-over is added) are
/// legal; [`Pmf::is_normalized`] distinguishes the two.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Pmf {
    times: Vec<Time>,
    masses: Vec<f64>,
}

/// Hand-written so `clone_from` reuses the destination's column buffers —
/// the scorer's pooled-mode copy-out paths clone tails into long-lived
/// buffers on every query, and the derived impl would reallocate both
/// `Vec`s each time.
impl Clone for Pmf {
    fn clone(&self) -> Self {
        Self { times: self.times.clone(), masses: self.masses.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so a new field cannot be silently skipped.
        let Self { times, masses } = source;
        self.times.clone_from(times);
        self.masses.clone_from(masses);
    }
}

impl Pmf {
    /// A unit impulse: all mass at time `t`.
    ///
    /// Models a deterministic event, e.g. "machine j is idle now" is
    /// `Pmf::delta(now)` as the availability distribution.
    #[must_use]
    pub fn delta(t: Time) -> Self {
        Self { times: vec![t], masses: vec![1.0] }
    }

    /// Builds a PMF from `(time, mass)` points. Points are sorted and
    /// duplicate times merged; zero-mass points are kept out.
    pub fn from_points(points: &[(Time, f64)]) -> Result<Self, PmfError> {
        let mut pairs = Vec::with_capacity(points.len());
        for &(t, p) in points {
            if !p.is_finite() || p < 0.0 {
                return Err(PmfError::InvalidMass);
            }
            if p > 0.0 {
                pairs.push(Impulse { t, p });
            }
        }
        if pairs.is_empty() {
            return Err(PmfError::Empty);
        }
        pairs.sort_unstable_by_key(|i| i.t);
        merge_sorted_pairs(&mut pairs);
        Ok(Self::from_pairs(&pairs))
    }

    /// Builds a PMF from a [`Histogram`] of continuous samples by rounding
    /// bin centers onto the time grid (clamping below at `1` — an execution
    /// time of zero is meaningless).
    ///
    /// This is the §VI-A pipeline: gamma samples → histogram → PMF.
    #[must_use]
    pub fn from_histogram(hist: &Histogram) -> Self {
        let mut pairs: Vec<Impulse> = hist
            .centers()
            .map(|(c, m)| Impulse { t: (c.round().max(1.0)) as Time, p: m })
            .collect();
        pairs.sort_unstable_by_key(|i| i.t);
        merge_sorted_pairs(&mut pairs);
        debug_assert!(!pairs.is_empty());
        Self::from_pairs(&pairs)
    }

    /// Internal constructor splitting sorted, merged `(t, p)` pairs into
    /// the column layout.
    pub(crate) fn from_pairs(pairs: &[Impulse]) -> Self {
        let times = pairs.iter().map(|i| i.t).collect();
        let masses = pairs.iter().map(|i| i.p).collect();
        Self::from_parts_unchecked(times, masses)
    }

    /// Internal constructor from already-sorted, already-merged columns.
    pub(crate) fn from_parts_unchecked(times: Vec<Time>, masses: Vec<f64>) -> Self {
        debug_assert!(!times.is_empty());
        debug_assert_eq!(times.len(), masses.len());
        debug_assert!(times.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(masses.iter().all(|p| p.is_finite() && *p >= 0.0));
        Self { times, masses }
    }

    /// Consumes the PMF, returning its columns for storage reuse.
    pub(crate) fn into_parts(self) -> (Vec<Time>, Vec<f64>) {
        (self.times, self.masses)
    }

    /// The impulse times, strictly increasing.
    #[must_use]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// The impulse masses, parallel to [`Pmf::times`].
    #[must_use]
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Row-wise view of the impulses, in time order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Impulse> + '_ {
        self.times.iter().zip(&self.masses).map(|(&t, &p)| Impulse { t, p })
    }

    /// Number of impulses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Always false: the empty PMF is unrepresentable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Heap bytes the two columns hold: their *capacities*, not their
    /// lengths, so a PMF that kept a wide working buffer after
    /// [`Pmf::compact`] reads larger than `16 × len()`.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.times.capacity() * std::mem::size_of::<Time>()
            + self.masses.capacity() * std::mem::size_of::<f64>()
    }

    /// Total probability mass.
    #[must_use]
    pub fn mass(&self) -> f64 {
        self.masses.iter().sum()
    }

    /// True when the total mass is 1 within [`MASS_EPSILON`].
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        (self.mass() - 1.0).abs() <= MASS_EPSILON
    }

    /// Earliest impulse time.
    #[must_use]
    pub fn min_time(&self) -> Time {
        self.times[0]
    }

    /// Latest impulse time.
    #[must_use]
    pub fn max_time(&self) -> Time {
        self.times[self.times.len() - 1]
    }

    /// CDF at `t`: total mass at times `<= t`.
    ///
    /// Eq. 1 of the paper: the robustness of task `i` on machine `j` is
    /// `p_ij(δ_i) = Σ_{t <= δ_i} c_ij(t)` — i.e. `pct.cdf_at(deadline)`.
    ///
    /// Binary search for the cut, then a dense partial sum: O(log n + k)
    /// with a branch-free, auto-vectorizable summation loop instead of the
    /// old per-impulse `take_while` compare.
    #[must_use]
    pub fn cdf_at(&self, t: Time) -> f64 {
        let idx = self.times.partition_point(|&x| x <= t);
        self.masses[..idx].iter().sum()
    }

    /// Mass strictly after `t` (`1 - cdf` for normalized PMFs, without the
    /// cancellation error of computing it that way).
    #[must_use]
    pub fn mass_above(&self, t: Time) -> f64 {
        let idx = self.times.partition_point(|&x| x <= t);
        // Summed back-to-front to keep bit-identical results with the
        // historical reverse `take_while` scan.
        self.masses[idx..].iter().rev().sum()
    }

    /// Expected value `Σ t·p(t)` (not normalized by mass; for normalized
    /// PMFs this is the mean).
    #[must_use]
    pub fn expected_value(&self) -> f64 {
        self.times.iter().zip(&self.masses).map(|(&t, &p)| t as f64 * p).sum()
    }

    /// Mean of the distribution: expected value divided by total mass.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let mass = self.mass();
        if mass <= 0.0 {
            return 0.0;
        }
        self.expected_value() / mass
    }

    /// Population variance of the distribution.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.moments().variance
    }

    /// Skewness of the distribution (third standardized moment).
    ///
    /// §V-B1 uses the *shape* of a completion-time PMF to decide which
    /// queued tasks to favor when dropping: positive skew ⇒ the task tends
    /// to finish early ⇒ keep it.
    #[must_use]
    pub fn skewness(&self) -> f64 {
        self.moments().skewness
    }

    /// Eq. 6 bounded skewness `s ∈ [-1, 1]`.
    #[must_use]
    pub fn bounded_skewness(&self) -> f64 {
        self.moments().bounded_skewness()
    }

    /// Mean, variance, and Eq. 6 skewness in **one fused pass** over the
    /// impulses — the moment kernel behind the pruner's stats-mode drop
    /// pass, which needs it for the *uncompacted* completion PMF of every
    /// chain extension (hundreds of impulses). The chain kernel
    /// [`crate::chain_step_into`] folds the same sums over its
    /// accumulator's slots instead of building that PMF.
    ///
    /// The kernel accumulates shifted raw power sums `Σp·xᵏ` with
    /// `x = t − t₀` anchored at the first impulse: three fused multiplies
    /// per impulse with independent accumulator chains (vectorizable, no
    /// per-impulse divisions), where the previous per-impulse Pébay update
    /// cost three divisions on a serial dependency chain. Anchoring at
    /// `t₀` keeps the sums on the scale of the *support width* rather than
    /// absolute simulation time, so converting raw to central moments
    /// loses no meaningful precision (central moments are shift-
    /// invariant; a reference test pins the kernel against the online
    /// accumulator to 1e-9).
    ///
    /// ```
    /// use hcsim_pmf::Pmf;
    ///
    /// let pmf = Pmf::from_points(&[(2, 0.5), (6, 0.5)]).unwrap();
    /// let m = pmf.moments();
    /// assert_eq!(m.mean, 4.0);
    /// assert_eq!(m.variance, 4.0);
    /// assert_eq!(m.skewness, 0.0); // symmetric
    /// ```
    #[must_use]
    pub fn moments(&self) -> Moments {
        let t0 = self.times[0];
        Moments::fold(t0, self.times.iter().zip(&self.masses).map(|(&t, &p)| ((t - t0) as f64, p)))
    }

    /// Shifts every impulse later by `dt`.
    ///
    /// §IV: "the impulses in PET(i, j) are shifted by α to form PCT(i, j)"
    /// when the machine is idle and the task starts at its arrival time α.
    #[must_use]
    pub fn shift(&self, dt: Time) -> Self {
        let times = self
            .times
            .iter()
            .map(|&t| t.checked_add(dt).expect("time overflow in shift"))
            .collect();
        Self { times, masses: self.masses.clone() }
    }

    /// Splits into `(below, at_or_above)` around `t`: impulses strictly
    /// before `t` and impulses at or after `t`.
    ///
    /// This is the partition Eq. 3 performs on `PCT(i−1, j)`: starts before
    /// the deadline can execute; the remainder becomes carry-over. Either
    /// side may be `None` when it would be empty.
    #[must_use]
    pub fn partition_at(&self, t: Time) -> (Option<Pmf>, Option<Pmf>) {
        let split = self.times.partition_point(|&x| x < t);
        let below = (split > 0).then(|| {
            Pmf::from_parts_unchecked(self.times[..split].to_vec(), self.masses[..split].to_vec())
        });
        let above = (split < self.len()).then(|| {
            Pmf::from_parts_unchecked(self.times[split..].to_vec(), self.masses[split..].to_vec())
        });
        (below, above)
    }

    /// Index of the first impulse at or after `t` — the Eq. 3 cut between
    /// startable mass (`..idx`) and carry-over (`idx..`).
    #[must_use]
    pub fn partition_index(&self, t: Time) -> usize {
        self.times.partition_point(|&x| x < t)
    }

    /// Removes mass strictly before `t` and renormalizes. Returns the mass
    /// removed.
    ///
    /// Used to condition an executing task's completion PMF on "it has not
    /// finished by `now`": completion before `now` is impossible, so the
    /// surviving mass is rescaled to 1. If all mass lies before `t`, the
    /// result collapses to a unit impulse at `t` (the task is overdue and
    /// will complete imminently as far as the model knows).
    pub fn condition_min(&mut self, t: Time) -> f64 {
        let split = self.times.partition_point(|&x| x < t);
        if split == 0 {
            return 0.0;
        }
        let removed: f64 = self.masses[..split].iter().sum();
        self.times.drain(..split);
        self.masses.drain(..split);
        if self.times.is_empty() {
            self.times.push(t);
            self.masses.push(1.0);
            return removed;
        }
        let remaining: f64 = self.masses.iter().sum();
        if remaining > 0.0 {
            let scale = 1.0 / remaining;
            for p in &mut self.masses {
                *p *= scale;
            }
        }
        removed
    }

    /// Moves all mass at times strictly greater than `t` onto a single
    /// impulse at `t`.
    ///
    /// This is the Eq. 5 aggregation step: under [`crate::DropPolicy::All`]
    /// a task still running at its deadline is evicted, so the machine is
    /// guaranteed free by `t = δ`; "all the impulses after δ_i are
    /// aggregated into the impulse at t = δ_i".
    pub fn clamp_above(&mut self, t: Time) {
        let split = self.times.partition_point(|&x| x <= t);
        if split == self.len() {
            return;
        }
        let moved: f64 = self.masses[split..].iter().sum();
        self.times.truncate(split);
        self.masses.truncate(split);
        match self.times.last() {
            Some(&last) if last == t => *self.masses.last_mut().expect("parallel") += moved,
            _ => {
                self.times.push(t);
                self.masses.push(moved);
            }
        }
    }

    /// Adds (superposes) another PMF's impulses into this one.
    ///
    /// Used for the carry-over term of Eq. 4: `c_pend(t) += c_{i−1}(t)` for
    /// `t >= δ_i`. Mass is additive; the result is generally *not*
    /// normalized until all contributions are in.
    pub fn superpose(&mut self, other: &Pmf) {
        let mut times = Vec::with_capacity(self.len() + other.len());
        let mut masses = Vec::with_capacity(self.len() + other.len());
        merge_add(
            (&self.times, &self.masses),
            (&other.times, &other.masses),
            &mut times,
            &mut masses,
        );
        self.times = times;
        self.masses = masses;
    }

    /// The residual distribution after `elapsed` time units of execution:
    /// `P(remaining = r) = P(total = elapsed + r | total > elapsed)`.
    ///
    /// An executing task's remaining work is its execution PMF
    /// conditioned on having already survived `elapsed` units, shifted
    /// back to the origin; the scorer conditions every executing head
    /// this way, through [`Pmf::residual_shifted_into`]. When the distribution carries no mass above
    /// `elapsed` (the model thinks the task should already have finished),
    /// the residual collapses to a unit impulse at 1 — "any moment now".
    ///
    /// ```
    /// use hcsim_pmf::Pmf;
    ///
    /// let exec = Pmf::from_points(&[(2, 0.25), (4, 0.5), (6, 0.25)]).unwrap();
    /// let after3 = exec.residual(3); // total must be 4 or 6 → remaining 1 or 3
    /// assert_eq!(after3.len(), 2);
    /// assert_eq!(after3.min_time(), 1);
    /// assert!(after3.is_normalized());
    /// ```
    #[must_use]
    pub fn residual(&self, elapsed: Time) -> Pmf {
        let mut scratch = crate::ConvScratch::new();
        self.residual_shifted_into(elapsed, 0, &mut scratch)
    }

    /// [`Pmf::residual`] with the result shifted `dt` later and its
    /// storage drawn from `scratch`'s free-list — the allocation-free form
    /// the mapping loop uses for conditioned executing heads (recycle the result via
    /// [`crate::ConvScratch::recycle`]). Bit-identical to
    /// `residual(elapsed).shift(dt)`: the time arithmetic is the same
    /// integer sum and normalization scales the same mass column.
    ///
    /// # Panics
    ///
    /// Panics when a shifted time overflows the time domain.
    #[must_use]
    pub fn residual_shifted_into(
        &self,
        elapsed: Time,
        dt: Time,
        scratch: &mut crate::ConvScratch,
    ) -> Pmf {
        let split = self.times.partition_point(|&x| x <= elapsed);
        // A residual is at most its PET cell.
        let (mut times, mut masses) = scratch.take_storage((self.len() - split).max(1));
        if split == self.len() {
            // Overdue: the model collapses to "any moment now".
            times.push(1u64.checked_add(dt).expect("time overflow in residual shift"));
            masses.push(1.0);
            return Pmf::from_parts_unchecked(times, masses);
        }
        times.extend(
            self.times[split..]
                .iter()
                .map(|&t| (t - elapsed).checked_add(dt).expect("time overflow in residual shift")),
        );
        masses.extend_from_slice(&self.masses[split..]);
        let mut residual = Pmf::from_parts_unchecked(times, masses);
        residual.normalize();
        residual
    }

    /// Rescales all masses so the total becomes exactly 1.
    ///
    /// # Panics
    ///
    /// Panics if the current total mass is zero.
    pub fn normalize(&mut self) {
        let mass = self.mass();
        assert!(mass > 0.0, "cannot normalize a zero-mass PMF");
        let scale = 1.0 / mass;
        for p in &mut self.masses {
            *p *= scale;
        }
    }

    /// Reduces the PMF to at most `max_impulses` by aggregating neighbours
    /// (mass-quantile aggregation; see the `compact` module docs). No-op when already small
    /// enough.
    pub fn compact(&mut self, max_impulses: usize) {
        crate::compact::compact_in_place(&mut self.times, &mut self.masses, max_impulses);
    }
}

/// Merges runs of equal-time impulses in a sorted pair buffer (summing
/// mass) — the post-sort fixup shared by the constructors and convolution.
///
/// The leading duplicate-free prefix is detected by a 4-wide unrolled
/// adjacency scan first, so the compacting read/write walk — which copies
/// every element — only starts at the first collision. Buffers with no
/// collisions at all (common for post-compaction columns) cost one linear
/// scan and zero writes. Masses still sum in input order, so results are
/// bit-identical to the plain walk.
pub(crate) fn merge_sorted_pairs(pairs: &mut Vec<Impulse>) {
    let n = pairs.len();
    let Some(first) = crate::compact::first_adjacent_duplicate_by(pairs, |i| i.t) else {
        return;
    };
    let mut write = first - 1;
    for read in first..n {
        if pairs[read].t == pairs[write].t {
            pairs[write].p += pairs[read].p;
        } else {
            write += 1;
            pairs[write] = pairs[read];
        }
    }
    pairs.truncate(write + 1);
}

/// Merges two sorted column sets into `out_times`/`out_masses`, summing
/// masses at equal times. Output buffers are appended to (callers clear).
pub(crate) fn merge_add(
    a: (&[Time], &[f64]),
    b: (&[Time], &[f64]),
    out_times: &mut Vec<Time>,
    out_masses: &mut Vec<f64>,
) {
    let (at, am) = a;
    let (bt, bm) = b;
    let (mut i, mut j) = (0usize, 0usize);
    while i < at.len() && j < bt.len() {
        if at[i] < bt[j] {
            out_times.push(at[i]);
            out_masses.push(am[i]);
            i += 1;
        } else if bt[j] < at[i] {
            out_times.push(bt[j]);
            out_masses.push(bm[j]);
            j += 1;
        } else {
            out_times.push(at[i]);
            out_masses.push(am[i] + bm[j]);
            i += 1;
            j += 1;
        }
    }
    out_times.extend_from_slice(&at[i..]);
    out_masses.extend_from_slice(&am[i..]);
    out_times.extend_from_slice(&bt[j..]);
    out_masses.extend_from_slice(&bm[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf(points: &[(Time, f64)]) -> Pmf {
        Pmf::from_points(points).unwrap()
    }

    #[test]
    fn delta_basics() {
        let d = Pmf::delta(10);
        assert_eq!(d.len(), 1);
        assert!(d.is_normalized());
        assert_eq!(d.min_time(), 10);
        assert_eq!(d.max_time(), 10);
        assert_eq!(d.cdf_at(9), 0.0);
        assert_eq!(d.cdf_at(10), 1.0);
        assert_eq!(d.mean(), 10.0);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn from_points_sorts_merges_and_drops_zeros() {
        let p = pmf(&[(5, 0.25), (3, 0.25), (5, 0.25), (4, 0.25), (6, 0.0)]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.times(), &[3, 4, 5]);
        assert!((p.masses()[2] - 0.5).abs() < 1e-12);
        assert!(p.is_normalized());
    }

    #[test]
    fn iter_yields_row_view() {
        let p = pmf(&[(2, 0.25), (7, 0.75)]);
        let rows: Vec<Impulse> = p.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], Impulse { t: 2, p: 0.25 });
        assert_eq!(rows[1], Impulse { t: 7, p: 0.75 });
        assert_eq!(p.iter().len(), 2);
    }

    #[test]
    fn heap_bytes_counts_capacity_not_length() {
        assert_eq!(Pmf::delta(3).heap_bytes(), 16);
        let points: Vec<(Time, f64)> = (1..=40).map(|t| (t, 1.0 / 40.0)).collect();
        let mut wide = pmf(&points);
        wide.compact(8);
        assert!(wide.len() <= 8);
        assert_eq!(wide.heap_bytes(), 16 * 40, "compaction keeps the capacity");
        assert_eq!(wide.clone().heap_bytes(), 16 * wide.len(), "a clone is exact-size");
    }

    #[test]
    fn from_points_rejects_bad_mass() {
        assert_eq!(Pmf::from_points(&[(1, -0.1)]), Err(PmfError::InvalidMass));
        assert_eq!(Pmf::from_points(&[(1, f64::NAN)]), Err(PmfError::InvalidMass));
        assert_eq!(Pmf::from_points(&[(1, f64::INFINITY)]), Err(PmfError::InvalidMass));
        assert_eq!(Pmf::from_points(&[]), Err(PmfError::Empty));
        assert_eq!(Pmf::from_points(&[(1, 0.0)]), Err(PmfError::Empty));
    }

    #[test]
    fn error_display() {
        assert!(PmfError::InvalidMass.to_string().contains("finite"));
        assert!(PmfError::Empty.to_string().contains("at least one"));
    }

    #[test]
    fn cdf_and_mass_above_agree() {
        let p = pmf(&[(2, 0.2), (4, 0.3), (6, 0.5)]);
        for t in 0..8 {
            let total = p.cdf_at(t) + p.mass_above(t);
            assert!((total - 1.0).abs() < 1e-12, "t={t}");
        }
        assert_eq!(p.cdf_at(1), 0.0);
        assert!((p.cdf_at(4) - 0.5).abs() < 1e-12);
        assert!((p.cdf_at(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_binary_search_matches_linear_scan_on_long_pmf() {
        // Regression guard for the partition_point cut: probe every
        // boundary of a many-impulse PMF against a reference linear scan.
        let points: Vec<(Time, f64)> = (0..257u64).map(|t| (3 * t + 1, 1.0 / 257.0)).collect();
        let p = pmf(&points);
        for probe in 0..800u64 {
            let linear: f64 = p.iter().take_while(|i| i.t <= probe).map(|i| i.p).sum();
            assert!((p.cdf_at(probe) - linear).abs() < 1e-15, "probe {probe}");
            let linear_above: f64 = p
                .iter()
                .collect::<Vec<_>>()
                .iter()
                .rev()
                .take_while(|i| i.t > probe)
                .map(|i| i.p)
                .sum();
            assert!((p.mass_above(probe) - linear_above).abs() < 1e-15, "probe {probe}");
        }
    }

    #[test]
    fn paper_eq1_robustness_is_cdf_at_deadline() {
        // Fig. 2 convolved PCT = {4:.125, 5:.3125, 6:.3125, 7:.1875, 8:.0625}
        // with δ_i = 7 → robustness .9375.
        let pct = pmf(&[(4, 0.125), (5, 0.3125), (6, 0.3125), (7, 0.1875), (8, 0.0625)]);
        assert!((pct.cdf_at(7) - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn mean_variance_skewness() {
        let p = pmf(&[(1, 0.25), (2, 0.5), (3, 0.25)]);
        assert!((p.mean() - 2.0).abs() < 1e-12);
        assert!((p.variance() - 0.5).abs() < 1e-12);
        assert!(p.skewness().abs() < 1e-12);
    }

    #[test]
    fn skewness_signs_match_paper_fig3() {
        // Fig. 3(c): bulk early, tail right → positive skew.
        let right = pmf(&[(2, 0.50), (3, 0.25), (4, 0.25)]);
        assert!(right.skewness() > 0.0, "right-skew PMF: {}", right.skewness());
        // Fig. 3(b): bulk late-ish with more mass at the right → negative.
        let left = pmf(&[(2, 0.15), (3, 0.60), (4, 0.25)]);
        assert!(left.skewness() < 0.0, "left-skew PMF: {}", left.skewness());
        // Fig. 3(a): symmetric → zero.
        let none = pmf(&[(2, 0.25), (3, 0.50), (4, 0.25)]);
        assert!(none.skewness().abs() < 1e-12);
        assert!(right.bounded_skewness() <= 1.0 && right.bounded_skewness() > 0.0);
    }

    #[test]
    fn bounded_skewness_clamps() {
        let extreme = pmf(&[(1, 0.97), (100, 0.03)]);
        assert!(extreme.skewness() > 1.0);
        assert_eq!(extreme.bounded_skewness(), 1.0);
    }

    #[test]
    fn fused_moments_match_online_accumulator() {
        // The fused raw-power-sum kernel against the Pébay-style online
        // accumulator it replaced, including far-from-origin supports
        // (where the t0 anchor is what preserves precision).
        use hcsim_stats::moments::WeightedMoments;
        let cases: Vec<Vec<(Time, f64)>> = vec![
            vec![(1, 0.25), (2, 0.5), (3, 0.25)],
            vec![(2, 0.50), (3, 0.25), (4, 0.25)],
            vec![(1, 0.97), (100, 0.03)],
            vec![(5, 1.0)],
            // A wide support anchored far from the origin: the regime the
            // drop pass sees (completion times in the thousands, spread
            // over tens of units).
            (0..400).map(|i| (1_000_000 + 3 * i, 1.0 / 400.0)).collect(),
            (0..97).map(|i| (250_000 + i * i, ((i % 7) + 1) as f64 / 400.0)).collect(),
        ];
        for pts in cases {
            let p = pmf(&pts);
            let m = p.moments();
            let mut reference = WeightedMoments::new();
            for (&t, &w) in p.times().iter().zip(p.masses()) {
                reference.push(t as f64, w);
            }
            let scale = reference.variance().max(1.0);
            assert!((m.mean - reference.mean()).abs() < 1e-9 * reference.mean().max(1.0));
            assert!(
                (m.variance - reference.variance()).abs() < 1e-9 * scale,
                "variance {} vs {}",
                m.variance,
                reference.variance()
            );
            assert!(
                (m.skewness - reference.skewness()).abs() < 1e-9,
                "skewness {} vs {}",
                m.skewness,
                reference.skewness()
            );
            assert_eq!(m.bounded_skewness(), m.skewness.clamp(-1.0, 1.0));
        }
    }

    #[test]
    fn fused_moments_degenerate_cases() {
        let single = pmf(&[(42, 1.0)]);
        let m = single.moments();
        assert_eq!(m.mean, 42.0);
        assert_eq!(m.variance, 0.0);
        assert_eq!(m.skewness, 0.0);
        // All-zero masses (legal sub-distribution boundary).
        let zero = Pmf::from_parts_unchecked(vec![5, 9], vec![0.0, 0.0]);
        let mz = zero.moments();
        assert_eq!((mz.mean, mz.variance, mz.skewness), (0.0, 0.0, 0.0));
    }

    #[test]
    fn shift_moves_all_impulses() {
        let p = pmf(&[(1, 0.5), (3, 0.5)]);
        let s = p.shift(10);
        assert_eq!(s.min_time(), 11);
        assert_eq!(s.max_time(), 13);
        assert!((s.mass() - 1.0).abs() < 1e-12);
        assert!((s.mean() - (p.mean() + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn partition_at_boundaries() {
        let p = pmf(&[(2, 0.2), (4, 0.3), (6, 0.5)]);
        let (below, above) = p.partition_at(4);
        let below = below.unwrap();
        let above = above.unwrap();
        assert_eq!(below.len(), 1);
        assert_eq!(below.times()[0], 2);
        assert_eq!(above.len(), 2);
        assert_eq!(above.times()[0], 4);
        assert!((below.mass() + above.mass() - 1.0).abs() < 1e-12);
        assert_eq!(p.partition_index(4), 1);

        let (none_below, all) = p.partition_at(0);
        assert!(none_below.is_none());
        assert_eq!(all.unwrap().len(), 3);
        assert_eq!(p.partition_index(0), 0);

        let (all, none_above) = p.partition_at(100);
        assert_eq!(all.unwrap().len(), 3);
        assert!(none_above.is_none());
        assert_eq!(p.partition_index(100), 3);
    }

    #[test]
    fn condition_min_renormalizes() {
        let mut p = pmf(&[(2, 0.25), (4, 0.25), (6, 0.5)]);
        let removed = p.condition_min(4);
        assert!((removed - 0.25).abs() < 1e-12);
        assert!(p.is_normalized());
        assert_eq!(p.min_time(), 4);
        assert!((p.cdf_at(4) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn condition_min_noop_when_no_mass_below() {
        let mut p = pmf(&[(5, 0.5), (6, 0.5)]);
        assert_eq!(p.condition_min(5), 0.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn condition_min_collapses_when_all_mass_below() {
        let mut p = pmf(&[(1, 0.5), (2, 0.5)]);
        let removed = p.condition_min(10);
        assert!((removed - 1.0).abs() < 1e-12);
        assert_eq!(p.len(), 1);
        assert_eq!(p.min_time(), 10);
        assert!(p.is_normalized());
    }

    #[test]
    fn clamp_above_aggregates_tail() {
        // Eq. 5 aggregation: everything after δ collapses onto δ.
        let mut p = pmf(&[(2, 0.2), (5, 0.3), (7, 0.4), (9, 0.1)]);
        p.clamp_above(5);
        assert_eq!(p.max_time(), 5);
        assert!((p.cdf_at(5) - 1.0).abs() < 1e-12);
        assert!((p.masses()[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn clamp_above_creates_impulse_when_missing() {
        let mut p = pmf(&[(2, 0.5), (8, 0.5)]);
        p.clamp_above(5);
        assert_eq!(p.len(), 2);
        assert_eq!(p.max_time(), 5);
        assert!((p.masses()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamp_above_noop() {
        let mut p = pmf(&[(2, 0.5), (4, 0.5)]);
        let before = p.clone();
        p.clamp_above(10);
        assert_eq!(p, before);
    }

    #[test]
    fn superpose_merges_sorted() {
        let mut a = pmf(&[(1, 0.2), (3, 0.3)]);
        let b = pmf(&[(2, 0.1), (3, 0.2), (5, 0.2)]);
        a.superpose(&b);
        assert_eq!(a.len(), 4);
        assert!((a.mass() - 1.0).abs() < 1e-12);
        assert!((a.masses()[2] - 0.5).abs() < 1e-12); // 0.3 + 0.2 at t=3
    }

    #[test]
    fn normalize_rescales() {
        let mut p = pmf(&[(1, 0.2), (2, 0.2)]);
        p.normalize();
        assert!(p.is_normalized());
        assert!((p.masses()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time overflow")]
    fn shift_overflow_panics() {
        let p = pmf(&[(u64::MAX - 1, 1.0)]);
        let _ = p.shift(10);
    }

    #[test]
    fn residual_conditions_and_shifts() {
        let p = pmf(&[(2, 0.25), (4, 0.5), (6, 0.25)]);
        // After 3 units: total must be 4 or 6 → remaining 1 or 3, masses
        // renormalized 0.5/0.75 and 0.25/0.75.
        let r = p.residual(3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.times()[0], 1);
        assert!((r.masses()[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.times()[1], 3);
        assert!((r.masses()[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!(r.is_normalized());
    }

    #[test]
    fn residual_zero_elapsed_is_identity() {
        let p = pmf(&[(2, 0.25), (4, 0.5), (6, 0.25)]);
        assert_eq!(p.residual(0), p);
    }

    #[test]
    fn residual_overdue_collapses_to_one_tick() {
        let p = pmf(&[(2, 0.5), (4, 0.5)]);
        let r = p.residual(10);
        assert_eq!(r, Pmf::delta(1));
    }

    #[test]
    fn residual_mean_decreases_with_elapsed() {
        let p = pmf(&[(5, 0.2), (10, 0.3), (20, 0.3), (40, 0.2)]);
        // Residual mean can exceed the unconditional mean early on (the
        // survivors are the long executions), but must be non-increasing
        // in expectation of remaining+elapsed ... simply check remaining
        // mean is finite, positive, and eventually shrinks.
        let r5 = p.residual(5).mean();
        let r19 = p.residual(19).mean();
        let r39 = p.residual(39).mean();
        assert!(r5 > 0.0 && r19 > 0.0 && r39 > 0.0);
        assert!(r39 <= r19, "{r39} vs {r19}");
        assert_eq!(p.residual(39).max_time(), 1);
    }

    #[test]
    fn from_histogram_quantizes() {
        let hist = Histogram::from_samples(&[10.2, 10.4, 20.6, 20.8], 2);
        let p = Pmf::from_histogram(&hist);
        assert!(p.is_normalized());
        assert_eq!(p.len(), 2);
        assert!(p.min_time() >= 1);
    }

    #[test]
    fn from_histogram_never_emits_time_zero() {
        let hist = Histogram::from_samples(&[0.01, 0.02, 0.03], 2);
        let p = Pmf::from_histogram(&hist);
        assert!(p.min_time() >= 1);
    }

    #[test]
    fn merge_add_sums_equal_times() {
        let mut times = Vec::new();
        let mut masses = Vec::new();
        merge_add(
            (&[1, 3, 5], &[0.1, 0.2, 0.3]),
            (&[3, 6], &[0.05, 0.15]),
            &mut times,
            &mut masses,
        );
        assert_eq!(times, vec![1, 3, 5, 6]);
        assert!((masses[1] - 0.25).abs() < 1e-15);
        assert!((masses.iter().sum::<f64>() - 0.8).abs() < 1e-15);
    }

    // ------------------------------------------------------------------
    // Property-based invariants of the residual (migration) path.
    // ------------------------------------------------------------------

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_pmf(max_t: Time, max_n: usize) -> impl Strategy<Value = Pmf> {
            prop::collection::vec((0..max_t, 0.01f64..1.0), 1..max_n).prop_map(|pts| {
                let mut p = Pmf::from_points(&pts).unwrap();
                p.normalize();
                p
            })
        }

        proptest! {
            /// The conditioned head's core soundness property:
            /// conditioning an execution PMF on `elapsed` progress
            /// conserves unit mass — a task still running must be exactly
            /// as certain to finish as a fresh one, just sooner.
            #[test]
            fn residual_conserves_mass(p in arb_pmf(100, 8), elapsed in 0u64..150) {
                let r = p.residual(elapsed);
                prop_assert!((r.mass() - 1.0).abs() < 1e-9);
                prop_assert!(r.min_time() >= 1);
            }

            /// The scratch-reusing shifted form the scorer's chain cache
            /// calls must agree with the compositional definition.
            #[test]
            fn residual_shifted_matches_residual_then_shift(
                p in arb_pmf(100, 8),
                elapsed in 0u64..150,
                dt in 0u64..100,
            ) {
                let mut scratch = crate::ConvScratch::new();
                let fused = p.residual_shifted_into(elapsed, dt, &mut scratch);
                let composed = p.residual(elapsed).shift(dt);
                prop_assert_eq!(fused, composed);
            }
        }
    }
}
