//! Experiment harness reproducing every figure of §VII.
//!
//! Each `figures::fig*` function runs the paper's corresponding experiment
//! — the same sweeps, heuristics, and oversubscription levels — over
//! multiple parallel workload trials and renders the series the figure
//! plots as a table (Markdown or CSV).
//!
//! | Paper figure | Function | What it sweeps |
//! |---|---|---|
//! | Fig. 4 | [`figures::fig4`] | EWMA weight λ × {single threshold, Schmitt trigger} |
//! | Fig. 5 | [`figures::fig5`] | defer threshold × drop threshold {25, 50, 75} % |
//! | Fig. 6 | [`figures::fig6`] | fairness factor ϑ (variance + robustness) |
//! | Fig. 7 | [`figures::fig7`] | all six heuristics at 19k / 34k |
//! | Fig. 8 | [`figures::fig8`] | cost per % on-time at 19k / 34k |
//! | Fig. 9 | [`figures::fig9`] | PAMF vs MM on the transcoding workload |
//!
//! Beyond the paper's figures, [`ablations`] isolates the design choices
//! the paper fixes without sensitivity data (Eq. 7 adjustment, ρ, eviction
//! of executing tasks, impulse budgets, batch windows, PET model error,
//! and the §IV drop scenarios).
//!
//! The `hcsim-exp` binary exposes all of it over a small CLI; see `--help`.
//! Its [`ab`] subcommand compares two builds of the repo benchmark in
//! interleaved pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod ablations;
pub mod bench;
pub mod cli;
pub mod figures;
mod report;
mod runner;
pub mod work;

pub use hcsim_parallel::parallel_map;
pub use report::Table;
pub use runner::{Aggregate, FigOptions, Scenario, SystemKind, TrialOutcome};
