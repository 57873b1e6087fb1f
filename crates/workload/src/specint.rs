//! The paper's primary evaluation system (§VI-A).
//!
//! The original study measured mean execution times of twelve SPECint
//! benchmarks on eight physical machines. Those measurements are not
//! published with the paper, so this module substitutes a fixed,
//! deterministic 12×8 mean matrix with the same structural properties
//! (see also `docs/ARCHITECTURE.md`, *Where each subsystem lives*,
//! Workloads):
//!
//! * means lie in the paper's 50–200 ms range;
//! * heterogeneity is *inconsistent*: the machine ordering differs across
//!   task types (verified by a unit test below);
//! * the matrix is constant across experiments, exactly as the paper keeps
//!   its PET fixed.
//!
//! The matrix is produced by a fixed formula — per-benchmark base cost ×
//! per-machine speed factor × a deterministic affinity perturbation — so
//! it is reproducible and auditable rather than a wall of magic numbers.

use hcsim_model::{MachineSpec, PetBuilder, PriceTable, SystemSpec, TaskTypeSpec};

/// The eight machines of §VI-A (paper footnote 1).
pub const SPECINT_MACHINES: [&str; 8] = [
    "Dell Precision 380 (3 GHz Pentium Extreme)",
    "Apple iMac (2 GHz Intel Core Duo)",
    "Apple XServe (2 GHz Intel Core Duo)",
    "IBM System X 3455 (AMD Opteron 2347)",
    "Shuttle SN25P (AMD Athlon 64 FX-60)",
    "IBM System P 570 (4.7 GHz)",
    "SunFire 3800",
    "IBM BladeCenter HS21XM",
];

/// Twelve SPECint 2006 benchmarks standing in for the paper's task types.
pub const SPECINT_BENCHMARKS: [&str; 12] = [
    "400.perlbench",
    "401.bzip2",
    "403.gcc",
    "429.mcf",
    "445.gobmk",
    "456.hmmer",
    "458.sjeng",
    "462.libquantum",
    "464.h264ref",
    "471.omnetpp",
    "473.astar",
    "483.xalancbmk",
];

/// Per-benchmark base cost in milliseconds on a notional reference machine.
const BASE_MS: [f64; 12] =
    [70.0, 95.0, 120.0, 150.0, 85.0, 110.0, 60.0, 135.0, 175.0, 100.0, 90.0, 160.0];

/// Per-machine speed factor (lower = faster). The IBM System P 570 is the
/// overall fastest, the Apple iMac the slowest, mirroring the era of the
/// machines in the paper's footnote. Shared with the serverless system
/// builder, which tiles the same eight hardware profiles.
pub(crate) const SPEED: [f64; 8] = [1.0, 1.35, 1.30, 0.85, 0.90, 0.60, 1.25, 0.75];

/// EC2-style hourly prices (USD/h) mapped onto the machines for §VII-F.
/// Faster machines are generally pricier, but not proportionally — that
/// imperfect correlation is what makes the cost metric interesting.
pub(crate) const PRICES: [f64; 8] = [0.45, 0.25, 0.27, 0.65, 0.60, 1.50, 0.30, 0.90];

/// Deterministic affinity perturbation in `[-0.30, +0.30]`.
///
/// `(tt·7 + m·13) mod 11` walks a full residue cycle, giving every machine
/// a different benchmark-dependent advantage — this is what makes the
/// heterogeneity *inconsistent* rather than a uniform speed ranking.
pub(crate) fn affinity(tt: usize, m: usize) -> f64 {
    let h = (tt * 7 + m * 13) % 11;
    (h as f64 / 10.0) * 0.6 - 0.3
}

/// The fixed 12×8 mean execution-time matrix in milliseconds, clamped to
/// the paper's 50–200 ms range.
#[must_use]
pub fn specint_means() -> Vec<Vec<f64>> {
    (0..12)
        .map(|tt| {
            (0..8)
                .map(|m| (BASE_MS[tt] * SPEED[m] * (1.0 + affinity(tt, m))).clamp(50.0, 200.0))
                .collect()
        })
        .collect()
}

/// Builds the full §VI-A system: 12 task types × 8 machines, gamma PETs
/// with shape ∈ [1, 20] built from 500 samples each, EC2-style prices, and
/// machine queues of the given capacity (paper: 6, counting the executing
/// task).
///
/// The PET construction consumes randomness from `rng`; pass a dedicated
/// stream so workload generation elsewhere stays reproducible.
#[must_use]
pub fn specint_system<R: rand::Rng>(queue_capacity: usize, rng: &mut R) -> SystemSpec {
    specint_system_with_model_error(queue_capacity, 0.0, rng)
}

/// [`specint_system`] with scheduler *model error*: the PET is built from
/// means perturbed by ±`model_error_frac` while ground truth keeps the
/// true means (see [`PetBuilder::model_error`]). Used by the ablation
/// harness to test how much of the pruning advantage survives a
/// miscalibrated PET.
#[must_use]
pub fn specint_system_with_model_error<R: rand::Rng>(
    queue_capacity: usize,
    model_error_frac: f64,
    rng: &mut R,
) -> SystemSpec {
    let means = specint_means();
    let (pet, truth) = PetBuilder::new().model_error(model_error_frac).build(&means, rng);
    SystemSpec {
        machines: SPECINT_MACHINES
            .iter()
            .map(|name| MachineSpec { name: (*name).to_string() })
            .collect(),
        task_types: SPECINT_BENCHMARKS
            .iter()
            .map(|name| TaskTypeSpec { name: (*name).to_string() })
            .collect(),
        pet,
        truth,
        prices: PriceTable::new(PRICES.to_vec()),
        queue_capacity,
        coldstart: None,
    }
    .validated()
}

/// A cluster-scale SPECint system: `num_machines` machines built by tiling
/// the eight §VI-A machine profiles (speed + price repeat every eight
/// machines) while the affinity perturbation keeps walking its full
/// residue cycle over the *global* machine index — so replicas of the same
/// profile still disagree about which benchmarks they favor, preserving
/// the inconsistent heterogeneity the paper's systems exhibit.
///
/// This is the system behind the `cluster_64m` bench scenario and the
/// follow-up serverless work's scale regime (arXiv:1905.04456): the
/// per-event cost of a mapping heuristic grows with the machine count, so
/// only a cluster this size makes the per-machine scoring fan-out's
/// scaling term observable.
#[must_use]
pub fn specint_cluster<R: rand::Rng>(
    num_machines: usize,
    queue_capacity: usize,
    rng: &mut R,
) -> SystemSpec {
    assert!(num_machines >= 1, "a cluster needs at least one machine");
    let means: Vec<Vec<f64>> = (0..12)
        .map(|tt| {
            (0..num_machines)
                .map(|m| (BASE_MS[tt] * SPEED[m % 8] * (1.0 + affinity(tt, m))).clamp(50.0, 200.0))
                .collect()
        })
        .collect();
    let (pet, truth) = PetBuilder::new().build(&means, rng);
    SystemSpec {
        machines: (0..num_machines)
            .map(|m| MachineSpec { name: format!("{} #{}", SPECINT_MACHINES[m % 8], m / 8) })
            .collect(),
        task_types: SPECINT_BENCHMARKS
            .iter()
            .map(|name| TaskTypeSpec { name: (*name).to_string() })
            .collect(),
        pet,
        truth,
        prices: PriceTable::new((0..num_machines).map(|m| PRICES[m % 8]).collect()),
        queue_capacity,
        coldstart: None,
    }
    .validated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{MachineId, TaskTypeId};
    use hcsim_stats::SeedSequence;

    #[test]
    fn means_in_paper_range() {
        for row in specint_means() {
            for mean in row {
                assert!((50.0..=200.0).contains(&mean), "mean {mean} outside [50, 200]");
            }
        }
    }

    #[test]
    fn means_matrix_shape() {
        let means = specint_means();
        assert_eq!(means.len(), 12);
        assert!(means.iter().all(|row| row.len() == 8));
    }

    #[test]
    fn heterogeneity_is_inconsistent() {
        // There must exist machine pairs whose ordering flips between task
        // types — the defining property of inconsistent heterogeneity (§I).
        let means = specint_means();
        let mut found_flip = false;
        'outer: for m1 in 0..8 {
            for m2 in (m1 + 1)..8 {
                let mut m1_faster = false;
                let mut m2_faster = false;
                for row in &means {
                    if row[m1] < row[m2] {
                        m1_faster = true;
                    }
                    if row[m2] < row[m1] {
                        m2_faster = true;
                    }
                }
                if m1_faster && m2_faster {
                    found_flip = true;
                    break 'outer;
                }
            }
        }
        assert!(found_flip, "mean matrix is consistently ordered — not inconsistent");
    }

    #[test]
    fn fastest_machine_varies_by_task_type() {
        let mut rng = SeedSequence::new(42).stream(0);
        let spec = specint_system(6, &mut rng);
        let fastest: std::collections::HashSet<_> =
            (0..12usize).map(|tt| spec.pet.fastest_machine(TaskTypeId::from(tt))).collect();
        assert!(fastest.len() >= 3, "expected several distinct best machines, got {fastest:?}");
    }

    #[test]
    fn system_dimensions() {
        let mut rng = SeedSequence::new(7).stream(0);
        let spec = specint_system(6, &mut rng);
        assert_eq!(spec.num_machines(), 8);
        assert_eq!(spec.num_task_types(), 12);
        assert_eq!(spec.queue_capacity, 6);
        assert_eq!(spec.prices.machines(), 8);
    }

    #[test]
    fn cluster_tiles_profiles_with_distinct_affinities() {
        let mut rng = SeedSequence::new(5).stream(0);
        let spec = specint_cluster(64, 6, &mut rng);
        assert_eq!(spec.num_machines(), 64);
        assert_eq!(spec.num_task_types(), 12);
        assert_eq!(spec.prices.machines(), 64);
        // Replicas share the speed/price profile but not the affinity
        // perturbation: machine 0 and machine 8 must differ on some type.
        let m0: Vec<f64> = (0..12usize)
            .map(|tt| spec.pet.pmf(TaskTypeId::from(tt), MachineId(0)).mean())
            .collect();
        let m8: Vec<f64> = (0..12usize)
            .map(|tt| spec.pet.pmf(TaskTypeId::from(tt), MachineId(8)).mean())
            .collect();
        assert_ne!(m0, m8, "tiled replicas must keep distinct affinities");
        // Names stay readable: "profile #rack".
        assert!(spec.machines[9].name.ends_with("#1"), "{}", spec.machines[9].name);
    }

    #[test]
    fn cluster_is_seed_deterministic() {
        let mut a = SeedSequence::new(11).stream(0);
        let mut b = SeedSequence::new(11).stream(0);
        assert_eq!(specint_cluster(16, 6, &mut a), specint_cluster(16, 6, &mut b));
    }

    #[test]
    fn system_deterministic_per_seed() {
        let mut a = SeedSequence::new(11).stream(0);
        let mut b = SeedSequence::new(11).stream(0);
        assert_eq!(specint_system(6, &mut a), specint_system(6, &mut b));
    }

    #[test]
    fn pet_means_stay_close_to_matrix() {
        let mut rng = SeedSequence::new(5).stream(0);
        let spec = specint_system(6, &mut rng);
        let means = specint_means();
        for (tt, row) in means.iter().enumerate() {
            for (m, &want) in row.iter().enumerate() {
                let got = spec.pet.mean_exec(TaskTypeId::from(tt), MachineId::from(m));
                assert!(
                    (got - want).abs() / want < 0.2,
                    "PET cell ({tt},{m}) mean {got} far from {want}"
                );
            }
        }
    }
}
