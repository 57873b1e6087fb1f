//! Simulation configuration.

use hcsim_pmf::DropPolicy;
use serde::{Deserialize, Serialize};

/// Engine-level knobs for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Which tasks the *system* removes at their deadline (§IV scenarios).
    /// The paper's experiments run scenario C ([`DropPolicy::All`]): "tasks
    /// are dropped (i.e., removed) from the system when their deadline
    /// passes". `None`/`PendingOnly` are provided for the ablation studies.
    pub drop_policy: DropPolicy,
    /// Number of tasks excluded from metrics at each end of the trial
    /// (§VI-B removes the first and last 100 tasks so only the
    /// oversubscribed steady state is analyzed). Trimming is by arrival
    /// order.
    pub trim: usize,
    /// Approximate computing (§VIII future work): a task evicted at its
    /// deadline whose execution progress `(δ − start) / total_exec` is at
    /// least this fraction counts as [`approximately
    /// completed`](hcsim_model::TaskOutcome::CompletedApprox) — a degraded
    /// result was delivered. `None` disables the feature (the paper's
    /// published model).
    pub approx_min_progress: Option<f64>,
    /// Retry cap on failure requeues: a task already requeued this many
    /// times by [`MachineFail`](crate::SimEvent::MachineFail) events is
    /// dropped with a [`Shed`](hcsim_model::TaskOutcome::Shed) record
    /// instead of re-entering the batch (counted in
    /// [`ChurnStats::dropped_after_retry`](crate::ChurnStats)). `None` (the
    /// default, preserving the published model and the seed goldens) retries
    /// without bound.
    pub max_requeues: Option<u32>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            drop_policy: DropPolicy::All,
            trim: 100,
            approx_min_progress: None,
            max_requeues: None,
        }
    }
}

impl SimConfig {
    /// Configuration with no warm-up/cool-down trimming (useful for small
    /// unit-test workloads).
    #[must_use]
    pub fn untrimmed() -> Self {
        Self { trim: 0, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.drop_policy, DropPolicy::All);
        assert_eq!(c.trim, 100);
        assert!(c.approx_min_progress.is_none(), "approximate computing is opt-in");
        assert!(c.max_requeues.is_none(), "failure requeues are unbounded by default");
    }

    #[test]
    fn untrimmed_keeps_policy() {
        let c = SimConfig::untrimmed();
        assert_eq!(c.trim, 0);
        assert_eq!(c.drop_policy, DropPolicy::All);
    }
}
