//! Service mode: a crash-safe **online scheduler** over the simulation
//! engine.
//!
//! The offline pipeline (`hcsim-sim`) runs a trial start-to-finish in one
//! call. This crate runs the *same engine* as a long-lived service:
//!
//! * [`channel`] — a bounded MPSC channel from feeder threads into the
//!   driver, blocking on both sides (`std` mutex + condition variables).
//!   Overflow backpressures the sender; the driver thread blocks in
//!   `recv` / `recv_deadline` between arrivals and pacing deadlines;
//!   nothing is dropped silently.
//! * [`driver`] — [`serve`], one plain loop on the calling thread:
//!   wall-clock pacing (or fast-forward), bounded-backpressure admission
//!   with Eq. 6/7 probabilistic shedding (every refused task gets a
//!   terminal `Shed` record), epoch-boundary [`ServiceCheckpoint`]s, and
//!   [`resume`] from a checkpoint that is provably bit-identical to never
//!   having crashed.
//! * [`fault`] — [`FaultPlan`] (kill-at-epoch, delivery delay/duplication/
//!   reordering, worker-pool poison) and the [`run_with_recovery`] harness
//!   driving crash → restore → resume cycles with recovery-time
//!   measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod driver;
pub mod fault;

pub use channel::{bounded, Receiver, RecvError, SendError, Sender};
pub use driver::{
    admission_worth, resume, serve, ServiceCheckpoint, ServiceConfig, ServiceExit, ServiceReport,
    ServiceStats,
};
pub use fault::{feed_schedule, run_with_recovery, FaultPlan, RecoveryOutcome};
