//! The six workloads: what each one is, and the set-up that generates its
//! inputs from the seed. The program only ever sees the generated
//! `SystemSpec` / `Task` / `ChurnTrace` values.

use hcsim_core::{AdaptiveConfig, HeuristicKind, PruningConfig};
use hcsim_model::{ChurnTrace, PetMatrix, SystemSpec, Task};
use hcsim_sim::Mapper;
use hcsim_stats::SeedSequence;
use hcsim_workload::{
    cluster_churn, faas_system, specint_cluster, specint_system, ChurnConfig, FaasConfig,
    FaasGenerator, WorkloadConfig, WorkloadGenerator,
};
use std::time::Instant;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 6] = [
    "paper_8m_pam",
    "paper_8m_scalar",
    "cluster_256m_pam",
    "cluster_256m_pam_t2",
    "faas_256m_pam",
    "service_64m_churn",
];

/// Seed of a run that names none; the only seed `golden.json` pins.
pub const DEFAULT_SEED: u64 = 2019;

/// Seed of the system under test. The machine park — PET matrix, ground
/// truth, cold-start model — is the same for every `--seed`; the seed
/// draws what arrives at it (task lists, execution times, churn). One PET
/// draw moves robustness and per-event cost by tens of percent, which no
/// number of trials on that one system averages out, so a benchmark that
/// must read the same within a few percent on any seed cannot redraw it.
const SYSTEM_SEED: u64 = 2019;

/// The scalar baselines `paper_8m_scalar` cycles through.
const SCALAR_CYCLE: [HeuristicKind; 3] =
    [HeuristicKind::Mm, HeuristicKind::Msd, HeuristicKind::Mmu];

/// How the trials of a workload are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The harness steps a `SimSession` to completion.
    Offline,
    /// `hcsim_service::serve` in fast-forward, fed by one feeder thread.
    Service,
}

/// The machine park and the arrivals that go with it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum System {
    /// `specint_system(6)`: the paper's 8 machines, classic arrivals.
    Paper { oversubscription: f64 },
    /// `specint_cluster(machines, 6)`, classic arrivals.
    Cluster { machines: usize, oversubscription: f64 },
    /// `faas_system` on 256 machines with its gamma-burst arrivals.
    Faas,
}

const FAAS_MACHINES: usize = 256;
const FAAS_OVERSUBSCRIPTION: f64 = 2_800_000.0;

/// Static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub driver: Driver,
    system: System,
    /// PAM's `threads` knob (the scalar baselines have none).
    pub threads: usize,
    /// False on the workload whose mappers never touch a PMF: its trials
    /// cycle through [`SCALAR_CYCLE`] instead of running PAM.
    pub probabilistic: bool,
    trials: usize,
    tasks: usize,
    /// Trials the traced pass covers (a prefix of the list): enough events
    /// for every per-layer figure, few enough that all spans fit in memory.
    pub traced_trials: usize,
}

const PAPER_8M_PAM: Shape = Shape {
    name: "paper_8m_pam",
    driver: Driver::Offline,
    system: System::Paper { oversubscription: 34_000.0 },
    threads: 1,
    probabilistic: true,
    trials: 48,
    tasks: 800,
    traced_trials: 16,
};

const CLUSTER_256M_PAM: Shape = Shape {
    name: "cluster_256m_pam",
    system: System::Cluster { machines: 256, oversubscription: 1_088_000.0 },
    trials: 2,
    tasks: 2_000,
    traced_trials: 2,
    ..PAPER_8M_PAM
};

/// The six workloads, in the order of [`NAMES`].
const SHAPES: [Shape; 6] = [
    PAPER_8M_PAM,
    Shape {
        name: "paper_8m_scalar",
        probabilistic: false,
        trials: 900,
        traced_trials: 60,
        ..PAPER_8M_PAM
    },
    CLUSTER_256M_PAM,
    Shape { name: "cluster_256m_pam_t2", threads: 2, ..CLUSTER_256M_PAM },
    // One trial is a single 43 ms burst whose robustness swings by ±9
    // points, so 12 trials: with 8, `on_time_pct` spread 15 % across seeds.
    Shape {
        name: "faas_256m_pam",
        system: System::Faas,
        trials: 12,
        traced_trials: 8,
        ..PAPER_8M_PAM
    },
    Shape {
        name: "service_64m_churn",
        driver: Driver::Service,
        system: System::Cluster { machines: 64, oversubscription: 272_000.0 },
        trials: 8,
        traced_trials: 8,
        ..PAPER_8M_PAM
    },
];

impl Shape {
    /// The same workload at a fraction of its size, for the self-tests.
    #[cfg(test)]
    pub fn shrunk(self, trials: usize, tasks: usize) -> Self {
        Self { trials, tasks, traced_trials: trials, ..self }
    }
}

pub fn shape(name: &str) -> Option<Shape> {
    SHAPES.into_iter().find(|s| s.name == name)
}

/// One trial's inputs.
#[derive(Debug)]
pub struct Trial {
    pub tasks: Vec<Task>,
    pub churn: Option<ChurnTrace>,
    pub kind: HeuristicKind,
    /// Root of the trial's random streams; stream 1 draws execution times.
    pub seeds: SeedSequence,
}

/// A generated workload, ready to run.
#[derive(Debug)]
pub struct Workload {
    pub shape: Shape,
    pub spec: SystemSpec,
    /// Cold-placement PET for the shadow scorer (serverless spec only).
    pub cold_pet: Option<PetMatrix>,
    pub trials: Vec<Trial>,
}

impl Workload {
    /// The mapper a trial runs: PAM with default pruning (plus the adaptive
    /// controller on the service workload), or the trial's scalar baseline.
    pub fn build_mapper(&self, trial: &Trial, threads: usize) -> Box<dyn Mapper> {
        let adaptive = (self.shape.driver == Driver::Service).then(AdaptiveConfig::default);
        trial.kind.build(PruningConfig { threads, adaptive, ..PruningConfig::default() })
    }
}

/// Seconds spent in the two halves of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// System spec: PET matrix, ground truth, cold PET.
    pub spec_build_s: f64,
    /// Task lists and churn traces of every trial.
    pub generate_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.spec_build_s + self.generate_s
    }
}

/// Generates the workload `shape` from `seed`.
pub fn build(shape: Shape, seed: u64) -> (Workload, SetupTimes) {
    let system = SeedSequence::new(SYSTEM_SEED);
    let seeds = SeedSequence::new(seed);
    let classic = |oversubscription: f64| {
        WorkloadGenerator::new(WorkloadConfig {
            num_tasks: shape.tasks,
            oversubscription,
            ..WorkloadConfig::default()
        })
    };
    let faas = FaasConfig {
        num_machines: FAAS_MACHINES,
        num_tasks: shape.tasks,
        oversubscription: FAAS_OVERSUBSCRIPTION,
        ..FaasConfig::default()
    };

    let t0 = Instant::now();
    let rng = &mut system.stream(0);
    let spec = match shape.system {
        System::Paper { .. } => specint_system(6, rng),
        System::Cluster { machines, .. } => specint_cluster(machines, 6, rng),
        System::Faas => faas_system(&faas, rng),
    };
    let budget = PruningConfig::default().impulse_budget;
    let cold_pet = spec.coldstart.as_ref().map(|c| c.cold_pet(&spec.pet, budget));
    let spec_build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let trials = (0..shape.trials)
        .map(|i| {
            let ts = seeds.child(100 + i as u64);
            let rng = &mut ts.stream(0);
            let tasks = match shape.system {
                System::Paper { oversubscription } | System::Cluster { oversubscription, .. } => {
                    classic(oversubscription).generate(&spec, rng)
                }
                System::Faas => FaasGenerator::new(faas).generate(&spec, rng),
            };
            let kind = if shape.probabilistic {
                HeuristicKind::Pam
            } else {
                SCALAR_CYCLE[i % SCALAR_CYCLE.len()]
            };
            // 56 machines at t = 0, 8 joining late, 6 drains and 4 failures
            // (floor 40) spread up to the last arrival.
            let churn = (shape.driver == Driver::Service).then(|| {
                cluster_churn(
                    &ChurnConfig {
                        num_machines: spec.num_machines(),
                        initial_absent: 8,
                        drains: 6,
                        fails: 4,
                        span: tasks.last().map_or(1, |t| t.arrival.max(1)),
                        min_active: 40,
                    },
                    &mut ts.stream(2),
                )
            });
            Trial { tasks, churn, kind, seeds: ts }
        })
        .collect();
    let generate_s = t1.elapsed().as_secs_f64();

    (Workload { shape, spec, cold_pet, trials }, SetupTimes { spec_build_s, generate_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_shape_and_nothing_else_does() {
        assert_eq!(SHAPES.map(|s| s.name), NAMES);
        for name in NAMES {
            assert_eq!(shape(name).expect("listed workload").name, name);
        }
        assert!(shape("paper_8m").is_none());
    }

    #[test]
    fn the_two_cluster_workloads_differ_only_in_threads() {
        let (a, b) = (shape("cluster_256m_pam").unwrap(), shape("cluster_256m_pam_t2").unwrap());
        assert_eq!((a.threads, b.threads), (1, 2));
        assert_eq!((a.trials, a.tasks, a.traced_trials), (b.trials, b.tasks, b.traced_trials));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let small = shape("paper_8m_scalar").unwrap().shrunk(3, 40);
        let (a, _) = build(small, 7);
        let (b, _) = build(small, 7);
        let (c, _) = build(small, 8);
        assert_eq!(a.trials.len(), 3);
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.tasks, y.tasks);
            assert_eq!(x.kind, y.kind);
        }
        assert_ne!(a.trials[0].tasks, c.trials[0].tasks);
        assert_eq!(format!("{:?}", a.spec.pet), format!("{:?}", c.spec.pet), "one system");
        let kinds: Vec<_> = a.trials.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, SCALAR_CYCLE);
    }

    #[test]
    fn service_trials_carry_churn_and_the_rest_do_not() {
        let service = shape("service_64m_churn").unwrap().shrunk(1, 60);
        let (w, _) = build(service, 1);
        let churn = w.trials[0].churn.as_ref().expect("service workload has churn");
        assert!(!churn.is_empty());
        let classic = shape("paper_8m_pam").unwrap().shrunk(1, 60);
        assert!(build(classic, 1).0.trials[0].churn.is_none());
    }
}
