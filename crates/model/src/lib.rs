//! System model for the heterogeneous computing (HC) system of §III.
//!
//! The paper's system consists of:
//!
//! * a set of **inconsistently heterogeneous machines** — each machine can
//!   be faster than another for one task type and slower for a different
//!   one ([`MachineSpec`]);
//! * a set of **task types** whose execution time on each machine is a
//!   random variable ([`TaskTypeSpec`]);
//! * the **PET matrix** (Probabilistic Execution Time): one execution-time
//!   PMF per (task type, machine) pair, built offline from historical
//!   samples ([`PetMatrix`], [`PetBuilder`]);
//! * the matching **ground truth** distributions the simulator draws actual
//!   execution times from ([`GroundTruth`]) — the PET is the scheduler's
//!   *model* of the world, the ground truth *is* the world; keeping them
//!   separate lets experiments study model error;
//! * **tasks** with hard individual deadlines ([`Task`]);
//! * a cloud **price table** for the cost experiments of §VII-F
//!   ([`PriceTable`]);
//! * **cluster-membership timelines** ([`ChurnTrace`]) — machines joining,
//!   draining, and failing mid-run, the dynamic-resource extension the
//!   simulator replays alongside the task trace;
//! * an optional **cold-start model** ([`ColdStartModel`]) — container
//!   spin-up PMFs plus a keep-alive window, turning the system into the
//!   serverless (FaaS) shape of the sequel paper (arXiv:1905.04456).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod coldstart;
mod cost;
mod ids;
mod pet;
mod spec;
mod task;

pub use churn::{ChurnEvent, ChurnKind, ChurnTrace};
pub use coldstart::ColdStartModel;
pub use cost::{CostTracker, PriceTable};
pub use ids::{MachineId, TaskId, TaskTypeId};
pub use pet::{GroundTruth, PetBuilder, PetMatrix};
pub use spec::{MachineSpec, SystemSpec, TaskTypeSpec};
pub use task::{Task, TaskOutcome, TaskRecord};

/// Re-export of the simulation time type.
pub type Time = hcsim_pmf::Time;
