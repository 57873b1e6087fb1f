//! The PET matrix and its matching ground-truth distributions.
//!
//! §III: "the execution time PMF of different task types on different
//! machine types are maintained in a matrix called a Probabilistic
//! Execution Time (PET)… In practice, the PMFs of the PET matrix can be
//! built from historic execution time information of each task type on
//! each machine type and modeling them via a histogram in an offline
//! manner."
//!
//! §VI-A describes the exact pipeline this module implements: for each
//! (task type, machine) pair take a mean execution time, draw a gamma
//! *shape* uniformly from `[1, 20]`, sample 500 execution times from the
//! resulting gamma distribution, and bin them into a histogram → PMF.
//!
//! [`GroundTruth`] keeps the gamma distributions themselves so the
//! simulator can draw *actual* execution times from the same law the PET
//! summarizes — the PET is the scheduler's belief, the ground truth is the
//! world.

use crate::{MachineId, TaskTypeId};
use hcsim_pmf::Pmf;
use hcsim_stats::{Gamma, Histogram};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The Probabilistic Execution Time matrix: one execution-time [`Pmf`] per
/// (task type, machine) pair, plus cached expected values for the scalar
/// heuristics (MM/MSD/MMU never need the full PMF).
///
/// Immutable once built, so the cells live in shared storage: `clone()` is
/// O(1) and the clone reads the very same cells. The spec, the scorer's
/// tables and the memo that remembers them all hold one copy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PetMatrix {
    task_types: usize,
    machines: usize,
    /// Row-major: `pmfs[tt * machines + m]`.
    pmfs: Arc<[Pmf]>,
    /// Cached means, same layout.
    means: Arc<[f64]>,
}

/// Value equality of the cells, short-circuited when both sides share
/// them. `means` is a function of the cells, so it is not compared.
impl PartialEq for PetMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.task_types == other.task_types
            && self.machines == other.machines
            && (Arc::ptr_eq(&self.pmfs, &other.pmfs) || self.pmfs == other.pmfs)
    }
}

impl PetMatrix {
    /// Builds a PET matrix from explicit per-cell PMFs (row-major by task
    /// type).
    ///
    /// # Panics
    ///
    /// Panics unless `pmfs.len() == task_types * machines` and both
    /// dimensions are non-zero.
    #[must_use]
    pub fn from_pmfs(task_types: usize, machines: usize, pmfs: Vec<Pmf>) -> Self {
        assert!(task_types > 0 && machines > 0, "PET dimensions must be non-zero");
        assert_eq!(pmfs.len(), task_types * machines, "PET cell count mismatch");
        let means = pmfs.iter().map(Pmf::mean).collect();
        Self { task_types, machines, pmfs: pmfs.into(), means }
    }

    /// Heap bytes behind this matrix: the cell and mean arrays plus every
    /// cell's columns. Cells shared with a clone count in full here — the
    /// gauge is per matrix, and a clone adds nothing to the process.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let arrays = std::mem::size_of_val::<[Pmf]>(&self.pmfs)
            + std::mem::size_of_val::<[f64]>(&self.means);
        arrays + self.pmfs.iter().map(Pmf::heap_bytes).sum::<usize>()
    }

    /// Number of task types (rows).
    #[must_use]
    pub fn task_types(&self) -> usize {
        self.task_types
    }

    /// Number of machines (columns).
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    #[inline]
    fn cell(&self, tt: TaskTypeId, m: MachineId) -> usize {
        debug_assert!(tt.index() < self.task_types && m.index() < self.machines);
        tt.index() * self.machines + m.index()
    }

    /// Execution-time PMF of `tt` on machine `m`.
    #[must_use]
    pub fn pmf(&self, tt: TaskTypeId, m: MachineId) -> &Pmf {
        &self.pmfs[self.cell(tt, m)]
    }

    /// Cached expected execution time of `tt` on machine `m`.
    #[must_use]
    pub fn mean_exec(&self, tt: TaskTypeId, m: MachineId) -> f64 {
        self.means[self.cell(tt, m)]
    }

    /// Mean execution time of task type `tt` averaged over machines.
    ///
    /// The workload generator's deadline formula (§VI-B) uses this as
    /// `avg_i`.
    #[must_use]
    pub fn mean_exec_over_machines(&self, tt: TaskTypeId) -> f64 {
        let row = &self.means[tt.index() * self.machines..(tt.index() + 1) * self.machines];
        row.iter().sum::<f64>() / self.machines as f64
    }

    /// Grand mean execution time over every (task type, machine) pair —
    /// `avg_all` in the deadline formula.
    #[must_use]
    pub fn grand_mean_exec(&self) -> f64 {
        self.means.iter().sum::<f64>() / self.means.len() as f64
    }

    /// The machine with the smallest expected execution time for `tt`.
    #[must_use]
    pub fn fastest_machine(&self, tt: TaskTypeId) -> MachineId {
        let row = &self.means[tt.index() * self.machines..(tt.index() + 1) * self.machines];
        let (idx, _) = row
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("means are finite"))
            .expect("at least one machine");
        MachineId::from(idx)
    }
}

/// Ground-truth execution-time distributions: the gamma law per (task
/// type, machine) cell that the PET histograms were sampled from, used by
/// the simulator to draw actual execution times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    task_types: usize,
    machines: usize,
    /// Row-major `(mean, shape)` parameters.
    params: Vec<(f64, f64)>,
}

impl GroundTruth {
    /// Builds ground truth from per-cell `(mean, shape)` gamma parameters
    /// (row-major by task type).
    ///
    /// # Panics
    ///
    /// Panics unless `params.len() == task_types * machines`.
    #[must_use]
    pub fn from_params(task_types: usize, machines: usize, params: Vec<(f64, f64)>) -> Self {
        assert!(task_types > 0 && machines > 0, "dimensions must be non-zero");
        assert_eq!(params.len(), task_types * machines, "cell count mismatch");
        for &(mean, shape) in &params {
            assert!(mean > 0.0 && shape > 0.0, "gamma parameters must be positive");
        }
        Self { task_types, machines, params }
    }

    /// Number of task types (rows).
    #[must_use]
    pub fn task_types(&self) -> usize {
        self.task_types
    }

    /// Number of machines (columns).
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// `(mean, shape)` of the cell.
    #[must_use]
    pub fn params(&self, tt: TaskTypeId, m: MachineId) -> (f64, f64) {
        self.params[tt.index() * self.machines + m.index()]
    }

    /// True mean execution time of `tt` averaged over machines — `avg_i`
    /// in the §VI-B deadline formula.
    #[must_use]
    pub fn mean_over_machines(&self, tt: TaskTypeId) -> f64 {
        let row = &self.params[tt.index() * self.machines..(tt.index() + 1) * self.machines];
        row.iter().map(|(mean, _)| mean).sum::<f64>() / self.machines as f64
    }

    /// True grand mean execution time over all cells — `avg_all` in the
    /// §VI-B deadline formula.
    #[must_use]
    pub fn grand_mean(&self) -> f64 {
        self.params.iter().map(|(mean, _)| mean).sum::<f64>() / self.params.len() as f64
    }

    /// Draws one actual execution time for `tt` on `m`, quantized to the
    /// time grid and clamped below at 1 (a zero-length execution would let
    /// tasks complete instantaneously, which the model excludes).
    pub fn sample_exec<R: rand::Rng>(&self, tt: TaskTypeId, m: MachineId, rng: &mut R) -> u64 {
        let (mean, shape) = self.params(tt, m);
        let gamma = Gamma::from_mean_shape(mean, shape).expect("validated at construction");
        (gamma.sample(rng).round() as u64).max(1)
    }
}

/// Builds a [`PetMatrix`] and its [`GroundTruth`] with the §VI-A pipeline.
#[derive(Debug, Clone)]
pub struct PetBuilder {
    samples_per_cell: usize,
    histogram_bins: usize,
    shape_range: (f64, f64),
    max_impulses: usize,
    model_error_frac: f64,
}

impl Default for PetBuilder {
    fn default() -> Self {
        Self {
            // §VI-A: "500 execution times were sampled".
            samples_per_cell: 500,
            histogram_bins: 32,
            // §VI-A: "a shape randomly picked from the range [1:20]".
            shape_range: (1.0, 20.0),
            max_impulses: 32,
            model_error_frac: 0.0,
        }
    }
}

impl PetBuilder {
    /// Creates a builder with the paper's defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gamma samples drawn per PET cell (paper: 500).
    #[must_use]
    pub fn samples_per_cell(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.samples_per_cell = n;
        self
    }

    /// Histogram bin count per cell.
    #[must_use]
    pub fn histogram_bins(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.histogram_bins = n;
        self
    }

    /// Range the per-cell gamma shape is drawn from (paper: `[1, 20]`).
    #[must_use]
    pub fn shape_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi >= lo);
        self.shape_range = (lo, hi);
        self
    }

    /// Impulse budget each PET PMF is compacted to.
    #[must_use]
    pub fn max_impulses(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.max_impulses = n;
        self
    }

    /// Injects *model error*: the PET is built around per-cell means
    /// perturbed by a uniform factor in `[1−f, 1+f]`, while the ground
    /// truth keeps the true means. The paper assumes a perfectly
    /// calibrated PET ("we assume that such a PET matrix is available");
    /// this knob measures how much of the pruning advantage survives a
    /// miscalibrated model (see the ablation harness).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= f < 1`.
    #[must_use]
    pub fn model_error(mut self, f: f64) -> Self {
        assert!((0.0..1.0).contains(&f), "model error fraction in [0, 1)");
        self.model_error_frac = f;
        self
    }

    /// Builds `(pet, truth)` from a row-major matrix of mean execution
    /// times (`means[tt][m]`).
    ///
    /// # Panics
    ///
    /// Panics if `means` is empty, ragged, or contains non-positive means.
    pub fn build<R: rand::Rng>(&self, means: &[Vec<f64>], rng: &mut R) -> (PetMatrix, GroundTruth) {
        assert!(!means.is_empty(), "at least one task type required");
        let machines = means[0].len();
        assert!(machines > 0, "at least one machine required");
        let task_types = means.len();

        let mut pmfs = Vec::with_capacity(task_types * machines);
        let mut params = Vec::with_capacity(task_types * machines);
        let mut samples = vec![0.0f64; self.samples_per_cell];

        for row in means {
            assert_eq!(row.len(), machines, "ragged mean matrix");
            for &mean in row {
                assert!(mean > 0.0, "mean execution times must be positive");
                let (lo, hi) = self.shape_range;
                let shape = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                // Ground truth always uses the true mean; the PET sees a
                // possibly-perturbed one (scheduler model error).
                let believed_mean = if self.model_error_frac > 0.0 {
                    let f = self.model_error_frac;
                    mean * (1.0 + rng.gen_range(-f..f))
                } else {
                    mean
                };
                let gamma = Gamma::from_mean_shape(believed_mean, shape).expect("positive params");
                for s in &mut samples {
                    *s = gamma.sample(rng);
                }
                let hist = Histogram::from_samples(&samples, self.histogram_bins);
                let mut pmf = Pmf::from_histogram(&hist);
                pmf.compact(self.max_impulses);
                pmfs.push(pmf);
                params.push((mean, shape));
            }
        }

        (
            PetMatrix::from_pmfs(task_types, machines, pmfs),
            GroundTruth::from_params(task_types, machines, params),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_stats::SeedSequence;

    fn small_means() -> Vec<Vec<f64>> {
        vec![vec![50.0, 100.0, 150.0], vec![120.0, 60.0, 90.0]]
    }

    fn build_small() -> (PetMatrix, GroundTruth) {
        let mut rng = SeedSequence::new(1).stream(0);
        PetBuilder::new().build(&small_means(), &mut rng)
    }

    #[test]
    fn dimensions_and_layout() {
        let (pet, truth) = build_small();
        assert_eq!(pet.task_types(), 2);
        assert_eq!(pet.machines(), 3);
        assert_eq!(truth.task_types(), 2);
        assert_eq!(truth.machines(), 3);
    }

    #[test]
    fn pet_pmfs_are_normalized_and_bounded() {
        let (pet, _) = build_small();
        for tt in 0..2usize {
            for m in 0..3usize {
                let pmf = pet.pmf(TaskTypeId::from(tt), MachineId::from(m));
                assert!(pmf.is_normalized(), "cell ({tt},{m}) mass {}", pmf.mass());
                assert!(pmf.len() <= 32);
                assert!(pmf.min_time() >= 1);
            }
        }
    }

    #[test]
    fn pet_means_track_requested_means() {
        let (pet, _) = build_small();
        let means = small_means();
        for (tt, row) in means.iter().enumerate() {
            for (m, &want) in row.iter().enumerate() {
                let got = pet.mean_exec(TaskTypeId::from(tt), MachineId::from(m));
                assert!(
                    (got - want).abs() / want < 0.15,
                    "cell ({tt},{m}): PET mean {got} vs requested {want}"
                );
            }
        }
    }

    #[test]
    fn row_and_grand_means() {
        let (pet, _) = build_small();
        let row0 = pet.mean_exec_over_machines(TaskTypeId(0));
        let want0 = (pet.mean_exec(TaskTypeId(0), MachineId(0))
            + pet.mean_exec(TaskTypeId(0), MachineId(1))
            + pet.mean_exec(TaskTypeId(0), MachineId(2)))
            / 3.0;
        assert!((row0 - want0).abs() < 1e-9);
        let grand = pet.grand_mean_exec();
        let all: f64 = (0..2usize)
            .flat_map(|tt| (0..3usize).map(move |m| (tt, m)))
            .map(|(tt, m)| pet.mean_exec(TaskTypeId::from(tt), MachineId::from(m)))
            .sum::<f64>()
            / 6.0;
        assert!((grand - all).abs() < 1e-9);
    }

    #[test]
    fn fastest_machine_matches_means() {
        let (pet, _) = build_small();
        for tt in 0..2u16 {
            let fastest = pet.fastest_machine(TaskTypeId(tt));
            let fastest_mean = pet.mean_exec(TaskTypeId(tt), fastest);
            for m in 0..3usize {
                assert!(fastest_mean <= pet.mean_exec(TaskTypeId(tt), MachineId::from(m)) + 1e-12);
            }
        }
    }

    #[test]
    fn ground_truth_sampling_matches_mean() {
        let (_, truth) = build_small();
        let mut rng = SeedSequence::new(2).stream(0);
        let n = 20_000;
        let tt = TaskTypeId(1);
        let m = MachineId(1);
        let (mean, _) = truth.params(tt, m);
        let avg: f64 =
            (0..n).map(|_| truth.sample_exec(tt, m, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((avg - mean).abs() / mean < 0.05, "sampled mean {avg} vs {mean}");
    }

    #[test]
    fn ground_truth_samples_at_least_one() {
        let truth = GroundTruth::from_params(1, 1, vec![(0.4, 1.0)]);
        let mut rng = SeedSequence::new(3).stream(0);
        for _ in 0..100 {
            assert!(truth.sample_exec(TaskTypeId(0), MachineId(0), &mut rng) >= 1);
        }
    }

    #[test]
    fn builder_determinism() {
        let mut rng1 = SeedSequence::new(9).stream(0);
        let mut rng2 = SeedSequence::new(9).stream(0);
        let (pet1, truth1) = PetBuilder::new().build(&small_means(), &mut rng1);
        let (pet2, truth2) = PetBuilder::new().build(&small_means(), &mut rng2);
        assert_eq!(pet1, pet2);
        assert_eq!(truth1, truth2);
    }

    #[test]
    fn clones_share_cells_and_equality_is_by_value() {
        let (pet, _) = build_small();
        let cell = |p: &PetMatrix| p.pmf(TaskTypeId(1), MachineId(2)).times().as_ptr();
        let shared = pet.clone();
        assert_eq!(cell(&shared), cell(&pet), "a clone must read the same cells");
        assert_eq!(shared.heap_bytes(), pet.heap_bytes());

        // Same seed, separate allocations: equal by value alone.
        let (rebuilt, _) = build_small();
        assert_ne!(cell(&rebuilt), cell(&pet));
        assert_eq!(rebuilt, pet);

        let mut pmfs: Vec<Pmf> = (0..6usize)
            .map(|i| pet.pmf(TaskTypeId::from(i / 3), MachineId::from(i % 3)).clone())
            .collect();
        pmfs[5] = pmfs[5].shift(1);
        assert_ne!(PetMatrix::from_pmfs(2, 3, pmfs), pet, "one cell moved by one tick");
    }

    #[test]
    fn builder_respects_impulse_budget() {
        let mut rng = SeedSequence::new(4).stream(0);
        let (pet, _) = PetBuilder::new().max_impulses(8).build(&small_means(), &mut rng);
        for tt in 0..2usize {
            for m in 0..3usize {
                assert!(pet.pmf(TaskTypeId::from(tt), MachineId::from(m)).len() <= 8);
            }
        }
    }

    #[test]
    fn fixed_shape_range_is_allowed() {
        let mut rng = SeedSequence::new(5).stream(0);
        let (_, truth) = PetBuilder::new().shape_range(4.0, 4.0).build(&small_means(), &mut rng);
        for tt in 0..2usize {
            for m in 0..3usize {
                let (_, shape) = truth.params(TaskTypeId::from(tt), MachineId::from(m));
                assert_eq!(shape, 4.0);
            }
        }
    }

    #[test]
    fn model_error_perturbs_pet_but_not_truth() {
        let mut rng = SeedSequence::new(21).stream(0);
        let (pet, truth) = PetBuilder::new()
            .model_error(0.5)
            .shape_range(20.0, 20.0)
            .build(&small_means(), &mut rng);
        let means = small_means();
        let mut max_rel_error = 0.0f64;
        for (tt, row) in means.iter().enumerate() {
            for (m, &want) in row.iter().enumerate() {
                let (truth_mean, _) = truth.params(TaskTypeId::from(tt), MachineId::from(m));
                assert_eq!(truth_mean, want, "ground truth must keep the true mean");
                let got = pet.mean_exec(TaskTypeId::from(tt), MachineId::from(m));
                max_rel_error = max_rel_error.max((got - want).abs() / want);
            }
        }
        assert!(max_rel_error > 0.1, "50% model error should visibly move PET means");
    }

    #[test]
    fn zero_model_error_is_default() {
        let mut a = SeedSequence::new(22).stream(0);
        let mut b = SeedSequence::new(22).stream(0);
        let built_default = PetBuilder::new().build(&small_means(), &mut a);
        let built_zero = PetBuilder::new().model_error(0.0).build(&small_means(), &mut b);
        assert_eq!(built_default, built_zero);
    }

    #[test]
    #[should_panic(expected = "model error")]
    fn model_error_range_checked() {
        let _ = PetBuilder::new().model_error(1.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_means_panic() {
        let mut rng = SeedSequence::new(6).stream(0);
        let _ = PetBuilder::new().build(&[vec![1.0, 2.0], vec![3.0]], &mut rng);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn pet_cell_count_checked() {
        let _ = PetMatrix::from_pmfs(2, 2, vec![Pmf::delta(1)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ground_truth_rejects_bad_params() {
        let _ = GroundTruth::from_params(1, 1, vec![(0.0, 1.0)]);
    }
}
