//! Serverless cold-start model: container spin-up PMFs and keep-alive.
//!
//! The sequel paper (Denninnart, Gentry, Salehi — "Improving Robustness of
//! Heterogeneous Serverless Computing Systems Via Probabilistic Task
//! Pruning", arXiv:1905.04456) moves the pruning machinery to FaaS. The
//! one structural change to the system model: a request arriving at a
//! machine with no *warm container* for its function first pays a
//! container spin-up, so its completion PMF is the convolution of the
//! spin-up PMF with the execution PMF. A completed function leaves its
//! container warm for a *keep-alive* window; requests of the same
//! function landing inside that window skip the spin-up entirely.
//!
//! [`ColdStartModel`] carries the spin-up side of that world, mirroring
//! the warm side's split between scheduler belief and simulator truth:
//!
//! * `spinup` — the spin-up-time [`PetMatrix`] the *scorer* convolves
//!   onto cold placements (one PMF per (function, machine) cell);
//! * `truth` — the [`GroundTruth`] distributions the *simulator* draws
//!   actual spin-up times from;
//! * `keep_alive` — how long a container stays warm after its function
//!   completes.

use crate::{GroundTruth, PetMatrix, Time};
use hcsim_pmf::{convolve_into, ConvScratch, Pmf};
use serde::{Deserialize, Serialize};

/// The cold-start side of a serverless system: spin-up PMFs (belief and
/// truth) plus the keep-alive window. Attached to a system via
/// [`crate::SystemSpec::coldstart`]; `None` there means the classic HC
/// model where every start is "warm".
///
/// Dimensions must match the system's execution PET — a spin-up cell per
/// (function, machine) pair — which [`crate::SystemSpec::validated`]
/// enforces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColdStartModel {
    /// Scheduler's belief: spin-up-time PMF per (function, machine).
    pub spinup: PetMatrix,
    /// Simulator's world: the distributions actual spin-up times are
    /// drawn from.
    pub truth: GroundTruth,
    /// Keep-alive window: a container stays warm for this long after its
    /// function completes (0 = containers die immediately, every start
    /// is cold).
    pub keep_alive: Time,
}

impl ColdStartModel {
    /// Asserts the spin-up matrices match the given system dimensions.
    ///
    /// # Panics
    ///
    /// Panics when either spin-up matrix disagrees with
    /// `(task_types, machines)`.
    pub fn assert_dims(&self, task_types: usize, machines: usize) {
        assert_eq!(self.spinup.task_types(), task_types, "spin-up PET task type count");
        assert_eq!(self.spinup.machines(), machines, "spin-up PET machine count");
        assert_eq!(self.truth.task_types(), task_types, "spin-up truth task type count");
        assert_eq!(self.truth.machines(), machines, "spin-up truth machine count");
    }

    /// The *cold* completion-time PMF of one cell: spin-up ⊛ execution,
    /// compacted to `budget` impulses (0 = no compaction). Exact-size:
    /// both columns hold `len()` elements of capacity, not the width of
    /// the convolution they were compacted from.
    ///
    /// ```
    /// use hcsim_model::{ColdStartModel, GroundTruth, MachineId, PetMatrix, TaskTypeId};
    /// use hcsim_pmf::Pmf;
    ///
    /// let exec = Pmf::from_points(&[(10, 1.0)]).unwrap();
    /// let spin = Pmf::from_points(&[(3, 0.5), (5, 0.5)]).unwrap();
    /// let model = ColdStartModel {
    ///     spinup: PetMatrix::from_pmfs(1, 1, vec![spin]),
    ///     truth: GroundTruth::from_params(1, 1, vec![(4.0, 8.0)]),
    ///     keep_alive: 50,
    /// };
    /// let warm = PetMatrix::from_pmfs(1, 1, vec![exec]);
    /// let cold = model.cold_cell(&warm, TaskTypeId(0), MachineId(0), 32);
    /// assert_eq!(cold.times(), &[13, 15]); // spin-up prepended
    /// assert!(cold.is_normalized());
    /// ```
    #[must_use]
    pub fn cold_cell(
        &self,
        warm: &PetMatrix,
        tt: crate::TaskTypeId,
        m: crate::MachineId,
        budget: usize,
    ) -> Pmf {
        let (spinup, exec) = (self.spinup.pmf(tt, m), warm.pmf(tt, m));
        cold_cell_into(spinup, exec, budget, &mut ConvScratch::new())
    }

    /// The full *cold* PET: every cell of `warm` convolved with its
    /// spin-up PMF, compacted to `budget` impulses — what the scorer uses
    /// for placements that would start a fresh container. Every cell is
    /// exact-size, as [`Self::cold_cell`]'s: the matrix lives as long as
    /// the system, and a cell that kept its convolution buffer would hold
    /// ~15× its impulses (75 MB of heap instead of 5.2 MB on a 48 × 256
    /// system).
    ///
    /// # Panics
    ///
    /// Panics when `warm`'s dimensions disagree with the spin-up matrix.
    #[must_use]
    pub fn cold_pet(&self, warm: &PetMatrix, budget: usize) -> PetMatrix {
        self.assert_dims(warm.task_types(), warm.machines());
        let (task_types, machines) = (warm.task_types(), warm.machines());
        // One scratch for every cell: the pairing and sort buffers are
        // sized once, by the first few cells, not once per cell.
        let mut scratch = ConvScratch::new();
        let mut pmfs = Vec::with_capacity(task_types * machines);
        for tt in 0..task_types {
            for m in 0..machines {
                let (tt, m) = (crate::TaskTypeId::from(tt), crate::MachineId::from(m));
                pmfs.push(cold_cell_into(
                    self.spinup.pmf(tt, m),
                    warm.pmf(tt, m),
                    budget,
                    &mut scratch,
                ));
            }
        }
        PetMatrix::from_pmfs(task_types, machines, pmfs)
    }
}

/// The cold-cell kernel behind [`ColdStartModel::cold_cell`] and
/// [`ColdStartModel::cold_pet`]: spin-up ⊛ execution, compacted to
/// `budget` impulses (0 = no compaction). The convolution and compaction
/// run in the scratch's wide buffer, which goes back to the pool; the
/// caller gets an exact-size copy.
fn cold_cell_into(spinup: &Pmf, exec: &Pmf, budget: usize, scratch: &mut ConvScratch) -> Pmf {
    let mut wide = convolve_into(spinup, exec, scratch);
    if budget > 0 {
        wide.compact(budget);
    }
    let cold = wide.clone();
    scratch.recycle(wide);
    cold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineId, PetBuilder, TaskTypeId};
    use hcsim_stats::SeedSequence;

    fn model_and_warm() -> (ColdStartModel, PetMatrix) {
        model_and_warm_from(&[[20.0, 40.0], [30.0, 15.0]], &[[100.0, 80.0], [100.0, 80.0]])
    }

    fn model_and_warm_from(
        exec: &[[f64; 2]; 2],
        spin: &[[f64; 2]; 2],
    ) -> (ColdStartModel, PetMatrix) {
        let mut rng = SeedSequence::new(7).stream(0);
        let (warm, _) = PetBuilder::new().build(&exec.map(Vec::from), &mut rng);
        let (spinup, truth) = PetBuilder::new().build(&spin.map(Vec::from), &mut rng);
        (ColdStartModel { spinup, truth, keep_alive: 500 }, warm)
    }

    /// Whether `convolve_into` takes its dense accumulator for this pair
    /// (the condition in `hcsim_pmf::convolve`; 2048 is its
    /// `DENSE_RANGE`) rather than the pair buffer and radix sort.
    fn takes_dense_path(a: &Pmf, b: &Pmf) -> bool {
        let pairs = (a.len() * b.len()) as u64;
        let range = (a.max_time() + b.max_time()) - (a.min_time() + b.min_time());
        pairs > 32 && range < 2048 && range <= 4 * pairs
    }

    #[test]
    fn cold_cells_are_exact_size_on_both_convolution_paths() {
        // A cold PET lives as long as its system: a cell that kept the
        // convolution's wide buffer after compaction costs ~15× its
        // impulses, 75 MB instead of 5.2 MB per cold PET on `faas_256m_pam`.
        let narrow = model_and_warm();
        let wide = model_and_warm_from(&[[3000.0, 5000.0]; 2], &[[2500.0, 4000.0]; 2]);
        for (path, (model, warm), dense) in [("dense", narrow, true), ("radix", wide, false)] {
            for budget in [0, 8, 24] {
                let cold = model.cold_pet(&warm, budget);
                for tt in 0..2u16 {
                    for m in 0..2usize {
                        let (tt, m) = (TaskTypeId(tt), MachineId::from(m));
                        let (spin, exec) = (model.spinup.pmf(tt, m), warm.pmf(tt, m));
                        assert_eq!(
                            takes_dense_path(spin, exec),
                            dense,
                            "{path} fixture off its path"
                        );
                        for pmf in [cold.pmf(tt, m), &model.cold_cell(&warm, tt, m, budget)] {
                            assert_eq!(
                                pmf.heap_bytes(),
                                16 * pmf.len(),
                                "{path} path, budget {budget}, cell ({tt:?},{m:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cold_pet_mean_is_sum_of_parts() {
        let (model, warm) = model_and_warm();
        // Uncompacted convolution preserves the mean exactly.
        let cold = model.cold_pet(&warm, 0);
        for tt in 0..2u16 {
            for m in 0..2usize {
                let (tt, m) = (TaskTypeId(tt), MachineId::from(m));
                let want = warm.mean_exec(tt, m) + model.spinup.mean_exec(tt, m);
                let got = cold.mean_exec(tt, m);
                assert!((got - want).abs() < 1e-6, "cell ({tt:?},{m:?}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn cold_pet_respects_budget_and_mass() {
        let (model, warm) = model_and_warm();
        let cold = model.cold_pet(&warm, 16);
        for tt in 0..2u16 {
            for m in 0..2usize {
                let pmf = cold.pmf(TaskTypeId(tt), MachineId::from(m));
                assert!(pmf.len() <= 16);
                assert!(pmf.is_normalized(), "mass {}", pmf.mass());
            }
        }
    }

    #[test]
    fn cold_never_beats_warm_stochastically() {
        let (model, warm) = model_and_warm();
        let cold = model.cold_pet(&warm, 0);
        // Spin-up is a non-negative delay: the cold CDF is dominated by
        // the warm CDF everywhere (first-order stochastic dominance).
        for tt in 0..2u16 {
            for m in 0..2usize {
                let (tt, m) = (TaskTypeId(tt), MachineId::from(m));
                let w = warm.pmf(tt, m);
                let c = cold.pmf(tt, m);
                for t in (0..400).step_by(7) {
                    assert!(c.cdf_at(t) <= w.cdf_at(t) + 1e-12, "t={t} cell ({tt:?},{m:?})");
                }
            }
        }
    }

    #[test]
    fn cold_pet_cells_equal_cold_cell_bitwise() {
        // The shared-scratch sweep must be the per-cell kernel exactly —
        // with and without compaction, whatever the scratch held before.
        let (model, warm) = model_and_warm();
        for budget in [0, 8, 24] {
            let cold = model.cold_pet(&warm, budget);
            for tt in 0..2u16 {
                for m in 0..2usize {
                    let (tt, m) = (TaskTypeId(tt), MachineId::from(m));
                    let (got, want) = (cold.pmf(tt, m), model.cold_cell(&warm, tt, m, budget));
                    assert_eq!(got.times(), want.times(), "budget {budget} cell ({tt:?},{m:?})");
                    let bits = |p: &Pmf| p.masses().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(&want), "budget {budget} cell ({tt:?},{m:?})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "spin-up PET machine count")]
    fn dim_mismatch_caught() {
        let (model, _) = model_and_warm();
        model.assert_dims(2, 3);
    }
}
