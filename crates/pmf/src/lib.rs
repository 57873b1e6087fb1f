//! Discrete impulse PMFs and the completion-time calculus of Gentry et al.
//!
//! This crate implements §IV of the paper ("Calculating Task Completion Time
//! in the Presence of Task Dropping"):
//!
//! * [`Pmf`] — a probability mass function as a sorted set of impulses
//!   `(t, p)` on the discrete simulation time grid.
//! * [`Pmf::cdf_at`] — Eq. 1: a task's probability of meeting its deadline
//!   (its *robustness*) is the CDF of its completion-time PMF at the
//!   deadline.
//! * [`convolve`] — Eq. 2: completion-time PMF of a task behind another task
//!   when dropping is not permitted.
//! * [`queue_step`] — Eq. 3–5: the same computation when pending tasks
//!   ([`DropPolicy::PendingOnly`]) or any task including the executing one
//!   ([`DropPolicy::All`]) may be dropped at its deadline.
//! * [`Pmf::bounded_skewness`] — Eq. 6 skewness, clamped to `[-1, 1]`,
//!   feeding the per-task drop-threshold adjustment (Eq. 7, implemented in
//!   `hcsim-core`).
//! * [`Pmf::compact`] — impulse aggregation, the approximation §IV suggests
//!   to keep the convolution overhead bounded.
//! * [`chain_step_into`] — the queue step a chain of compacted
//!   availabilities takes: Eq. 3–5, compaction and the Eq. 6 moments in
//!   two passes over the convolution's accumulator, bit-identical to
//!   [`queue_step`] followed by [`Pmf::compact`] and
//!   [`Pmf::bounded_skewness`].
//!
//! The worked examples of the paper's Figures 2 and 3 are encoded verbatim
//! as unit tests in [`convolve`] — reproducing them exactly pins down the
//! semantics of the convolution operators.
//!
//! # Example: Figure 2 of the paper
//!
//! ```
//! use hcsim_pmf::{Pmf, convolve};
//!
//! // PCT of the last task already in machine queue j.
//! let pct_prev = Pmf::from_points(&[(3, 0.25), (4, 0.50), (5, 0.25)]).unwrap();
//! // PET of arriving task i (deadline 7).
//! let pet = Pmf::from_points(&[(1, 0.50), (2, 0.25), (3, 0.25)]).unwrap();
//! let pct = convolve(&pct_prev, &pet);
//! assert!((pct.cdf_at(7) - 0.9375).abs() < 1e-12); // Eq. 1 robustness
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
mod convolve;
mod pmf;

pub use convolve::{
    chain_step_into, convolve, convolve_into, queue_step, queue_step_into, ChainStep, ConvScratch,
    DropPolicy, QueueStep,
};
pub use pmf::{Impulse, Moments, Pmf, PmfError};

/// Discrete simulation time. One unit is interpreted as a millisecond by
/// the workload layer, but nothing in this crate depends on the unit.
pub type Time = u64;

/// Tolerance used when checking that probability masses sum to one.
pub const MASS_EPSILON: f64 = 1e-9;
