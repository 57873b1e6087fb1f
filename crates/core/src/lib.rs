//! The paper's contribution: probabilistic task pruning and the PAM/PAMF
//! mapping heuristics, plus the MM/MSD/MMU/MOC baselines of §VI-C.
//!
//! # Architecture
//!
//! * [`chain`] — turns a machine queue plus the PET matrix into
//!   per-position completion PMFs and robustness values by chaining the
//!   Eq. 2–5 convolutions of `hcsim-pmf`.
//! * [`scalar`] — expected-value queue accounting for the scalar baselines
//!   (MM, MSD, MMU never touch a PMF).
//! * [`OversubscriptionDetector`] — Eq. 8 EWMA of deadline misses per
//!   mapping event with a Schmitt trigger (§V-C) that toggles the pruner's
//!   aggressive (dropping) mode.
//! * [`Pruner`] — the dropping stage: walks machine queues head-first and
//!   removes tasks whose robustness falls at or below the per-task
//!   adjusted threshold of Eq. 7 (base + `−s·ρ/(κ+1)`).
//! * The mapping loop PAM, PAMF and MOC share (a crate-private
//!   `TableLoop`): it owns the [`ProbScorer`] and the incremental
//!   [`ScoreTable`], revalidates the table once per event, and commits
//!   one (task, machine) pair at a time as the mapper's policy picks it,
//!   repairing only the assigned machine's column in between. The mappers
//!   below differ only in that policy.
//! * [`Pam`] / [`Pam::with_fairness`] — the two-phase pruning-aware mapper
//!   (§V-D): the loop plus the detector, the pruner and deferral, every
//!   threshold read from one view (static bases, PAMF's per-type
//!   sufferage relaxation ([`SufferageTable`]), or the adaptive
//!   controller's per-class values).
//! * [`AdaptiveController`] — closed-loop per-class threshold adaptation:
//!   a sliding window of terminal outcomes steers the drop/defer
//!   thresholds mid-run (enabled via [`PruningConfig::adaptive`], subsumes
//!   the sufferage fairness knob).
//! * [`ScalarMapper`] — MM / MSD / MMU baselines.
//! * [`Moc`] — the Max On-time Completions baseline of [Salehi et al.,
//!   JPDC 2016]: the same loop with its 30 % culling threshold and top-3
//!   permutation phase as the policy.
//! * [`HeuristicKind`] — a tiny factory the experiment harness and CLI use
//!   to instantiate any of the six heuristics by name.
//!
//! # Example
//!
//! ```
//! use hcsim_core::{HeuristicKind, PruningConfig};
//! use hcsim_sim::{run_simulation, SimConfig};
//! use hcsim_stats::SeedSequence;
//! use hcsim_workload::{specint_system, WorkloadConfig, WorkloadGenerator};
//!
//! let seeds = SeedSequence::new(7);
//! let spec = specint_system(6, &mut seeds.stream(0));
//! let gen = WorkloadGenerator::new(WorkloadConfig {
//!     num_tasks: 120,
//!     oversubscription: 19_000.0,
//!     ..Default::default()
//! });
//! let tasks = gen.generate(&spec, &mut seeds.stream(1));
//! let mut mapper = HeuristicKind::Pam.build(PruningConfig::default());
//! let report = run_simulation(
//!     &spec,
//!     SimConfig::untrimmed(),
//!     &tasks,
//!     &mut mapper,
//!     &mut seeds.stream(2),
//! );
//! assert!(report.metrics.pct_on_time >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod baselines;
pub mod chain;
mod factory;
mod fairness;
mod moc;
#[cfg(test)]
mod oracle;
mod pam;
mod pruner;
pub mod scalar;
mod scorer;
mod table_loop;

pub use adaptive::{AdaptiveConfig, AdaptiveController};
pub use baselines::{Phase2Rule, ScalarMapper};
pub use factory::HeuristicKind;
pub use fairness::SufferageTable;
pub use moc::Moc;
pub use pam::Pam;
pub use pruner::{OversubscriptionDetector, Pruner, PruningConfig};
pub use scorer::{PairScore, ProbScorer, ScoreTable, SlotScore, PARALLEL_MIN_MACHINES};
