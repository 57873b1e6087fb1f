//! Workload generation for the experiments of §VI-B and §VII.
//!
//! Three complete systems are provided. Two batch HC systems:
//!
//! * [`specint_system`] — the paper's main setup: 12 task types whose mean
//!   execution times derive from SPECint benchmarks measured on 8 named
//!   heterogeneous machines, with gamma-distributed execution times
//!   (shape ∈ [1, 20]) and EC2-style prices.
//! * [`transcode_system`] — the §VII-G setting: 4 video-transcoding task
//!   types on 4 cloud VM types with strong affinity structure (GPU excels
//!   at codec changes, gains little on bit-rate changes).
//!
//! And one serverless platform following the sequel paper
//! (arXiv:1905.04456):
//!
//! * [`faas_system`] — dozens of millisecond-scale function classes with
//!   a cold-start model (spin-up PMFs + keep-alive), fed by
//!   [`FaasGenerator`]'s Zipf-popular, bursty request traces at 10×+ the
//!   batch arrival intensity.
//!
//! [`WorkloadGenerator`] then produces task lists per §VI-B: per-type gamma
//! arrival processes (variance = 10 % of the mean inter-arrival), deadlines
//! `δᵢ = arrᵢ + avgᵢ + β·avg_all`, and an *oversubscription level* expressed
//! as the nominal number of tasks the arrival intensity corresponds to over
//! the simulated span (the paper's "19k/34k tasks" x-axis).
//!
//! The machine side of dynamism is generated by [`cluster_churn`]: a
//! [`ChurnTrace`] of joins, drains, and failures over the same span,
//! replayed by the simulator's event pipeline alongside the task trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod churn;
mod faas;
mod gen;
mod nonstationary;
mod specint;
mod transcode;

pub use arrivals::ArrivalSchedule;
pub use churn::{cluster_churn, ChurnConfig};
pub use faas::{faas_means, faas_system, FaasConfig, FaasGenerator};
pub use gen::{WorkloadConfig, WorkloadGenerator};
pub use nonstationary::{generate_nonstationary, LoadPattern, NonStationaryConfig};
pub use specint::{
    specint_cluster, specint_means, specint_system, specint_system_with_model_error,
    SPECINT_BENCHMARKS, SPECINT_MACHINES,
};
pub use transcode::{transcode_means, transcode_system, TRANSCODE_OPS, TRANSCODE_VMS};

pub use hcsim_model::{ChurnEvent, ChurnKind, ChurnTrace, Time};
