//! Event-driven simulator of the oversubscribed HC system of §III.
//!
//! The simulated world:
//!
//! * Tasks arrive dynamically into a **batch queue** of unmapped tasks.
//! * A **mapping event** fires on every task arrival and every task
//!   completion. Before the mapper runs, tasks whose deadlines have passed
//!   are removed from the system (the paper's baseline dropping).
//! * The [`Mapper`] (one of the heuristics in `hcsim-core`) then inspects
//!   the batch queue and the bounded FCFS **machine queues** through a
//!   [`MapContext`], optionally prunes queued tasks, and assigns batch
//!   tasks to free queue slots.
//! * Once mapped, a task cannot be remapped (§III: data-transfer overhead);
//!   machines execute their queue in FCFS order with no preemption. Actual
//!   execution times are drawn from the system's ground-truth
//!   distributions — the mapper only ever sees the PET model.
//! * Depending on [`DropPolicy`], tasks that reach their deadline are
//!   removed while pending ([`DropPolicy::PendingOnly`]) or also evicted
//!   mid-execution ([`DropPolicy::All`]).
//!
//! [`run_simulation`] drives one trial to completion and produces a
//! [`SimReport`] with per-task records, trimmed robustness metrics
//! (§VI-B removes the first and last 100 tasks from analysis), per-type
//! fairness statistics, and priced machine utilization.
//!
//! The machine set itself is **dynamic**: the event loop is an open
//! pipeline of [`SimEvent`]s fed by composable [`EventSource`]s, so a
//! [`ChurnTrace`] of machine joins, drains, and failures replays alongside
//! the task trace ([`run_simulation_with_churn`]). A failed machine's
//! pending and executing tasks re-enter the batch queue as re-arrivals;
//! the report then carries per-capacity-epoch robustness ([`EpochSlice`])
//! and churn accounting ([`ChurnStats`]).
//!
//! **Service mode**: [`SimSession`] exposes the same engine stepwise — a
//! long-lived scheduler advances one event at a time, injects live
//! arrivals, sheds overload with full accounting, and checkpoints/restores
//! the complete engine state ([`SimSession::snapshot`]) bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod machine;
mod mapper;
mod metrics;
pub mod snapshot;
pub mod testkit;

pub use config::SimConfig;
pub use engine::{
    run_simulation, run_simulation_with_churn, run_simulation_with_sources, ChurnSource,
    ChurnStats, EpochSlice, EventSink, EventSource, FaasStats, SimEvent, SimReport, SimSession,
    TaskTraceSource,
};
pub use machine::{ExecutingTask, MachineLifecycle, MachineState, WarmContainer};
pub use mapper::{AssignError, FirstFitMapper, MapContext, Mapper, MapperInstrumentation};
pub use metrics::{Metrics, OutcomeCounts};
pub use snapshot::{SnapshotError, SnapshotRng, SNAPSHOT_VERSION};

pub use hcsim_model::{ChurnEvent, ChurnKind, ChurnTrace, Time};
pub use hcsim_pmf::DropPolicy;
