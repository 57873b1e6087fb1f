//! `ProbScorer::for_spec` derives its tables once per system and shares
//! them between mappers. Sharing must be invisible: the trial that pays
//! the derivation and the trial that finds the tables remembered report
//! the same thing, and so does a trial that comes back after another
//! system took the memo's single entry.
//!
//! One test, alone in its binary, so nothing else touches the
//! process-wide memo: the first trial below is a miss and the second a
//! hit by construction (the memo's own unit tests pin what counts as
//! either).

use hcsim_core::{Pam, PruningConfig};
use hcsim_model::{SystemSpec, Task};
use hcsim_sim::{run_simulation, SimConfig};
use hcsim_stats::SeedSequence;
use hcsim_workload::{
    faas_system, specint_system, FaasConfig, FaasGenerator, WorkloadConfig, WorkloadGenerator,
};

fn trial(spec: &SystemSpec, tasks: &[Task], seeds: &SeedSequence) -> String {
    let mut mapper = Pam::new(PruningConfig::default());
    let report =
        run_simulation(spec, SimConfig::untrimmed(), tasks, &mut mapper, &mut seeds.stream(9));
    format!("{report:?}")
}

#[test]
fn a_trial_reports_the_same_on_a_memo_miss_and_on_a_hit() {
    let seeds = SeedSequence::new(1905);
    let faas = FaasConfig {
        num_functions: 12,
        num_machines: 40,
        num_tasks: 300,
        oversubscription: 600_000.0,
        ..FaasConfig::default()
    };
    let serverless = faas_system(&faas, &mut seeds.stream(0));
    let requests = FaasGenerator::new(faas).generate(&serverless, &mut seeds.stream(1));
    let classic = specint_system(6, &mut seeds.stream(2));
    let batch = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: 150,
        oversubscription: 34_000.0,
        ..Default::default()
    })
    .generate(&classic, &mut seeds.stream(3));

    let miss = trial(&serverless, &requests, &seeds);
    let hit = trial(&serverless, &requests, &seeds);
    assert_eq!(miss, hit, "serverless: derived vs shared tables");
    // An equal system built separately is the same system to the memo. A
    // `clone()` would share the PET's cells and hit on identity alone; a
    // rebuild from the same seed shares nothing and must hit on value.
    let rebuilt = faas_system(&faas, &mut seeds.stream(0));
    assert_eq!(trial(&rebuilt, &requests, &seeds), miss);

    let classic_miss = trial(&classic, &batch, &seeds);
    assert_eq!(classic_miss, trial(&classic, &batch, &seeds), "classic: derived vs shared tables");
    assert_eq!(trial(&serverless, &requests, &seeds), miss, "back after eviction");
}
