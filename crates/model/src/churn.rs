//! Cluster-membership (churn) events.
//!
//! The paper's system model fixes the machine set for the lifetime of a
//! run; the serverless follow-up (arXiv:1905.04456) and real HC
//! deployments do not — machines join, are drained for maintenance, and
//! fail outright while tasks are in flight. A [`ChurnTrace`] describes
//! that membership timeline as plain data, making churn a first-class
//! workload input alongside the task trace: the simulator replays it
//! through the same event pipeline that delivers task arrivals.
//!
//! Semantics (enforced by the `hcsim-sim` engine, not here):
//!
//! * [`ChurnKind::Join`] — an offline machine becomes schedulable with an
//!   empty queue.
//! * [`ChurnKind::Drain`] — the machine stops accepting work but runs its
//!   queue to completion, then leaves the cluster (planned maintenance).
//! * [`ChurnKind::Fail`] — the machine leaves immediately; its pending
//!   *and* executing tasks re-enter the batch queue as re-arrivals with
//!   their deadlines unchanged (work in progress is lost).

use crate::{MachineId, Time};
use serde::{Deserialize, Serialize};

/// What happens to a machine at a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The machine comes online with an empty queue.
    Join,
    /// The machine stops accepting new work, finishes its queue, and
    /// leaves.
    Drain,
    /// The machine leaves immediately; queued tasks are re-queued.
    Fail,
}

impl std::fmt::Display for ChurnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnKind::Join => write!(f, "join"),
            ChurnKind::Drain => write!(f, "drain"),
            ChurnKind::Fail => write!(f, "fail"),
        }
    }
}

/// One membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the change takes effect.
    pub time: Time,
    /// The machine affected.
    pub machine: MachineId,
    /// The change.
    pub kind: ChurnKind,
}

/// A full membership timeline for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Machines that are offline at `t = 0` (typically joining later via
    /// a [`ChurnKind::Join`] event); every other machine starts active.
    pub initially_offline: Vec<MachineId>,
    /// Membership events, sorted by time (ties resolved in vector order).
    pub events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// An empty trace: the static-cluster behavior.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the trace changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.initially_offline.is_empty() && self.events.is_empty()
    }

    /// Validates the trace against a cluster of `num_machines` machines.
    ///
    /// # Panics
    ///
    /// Panics when a machine id is out of range or events are not sorted
    /// by time.
    pub fn validate(&self, num_machines: usize) {
        for m in &self.initially_offline {
            assert!(m.index() < num_machines, "initially-offline machine {m} out of range");
        }
        for w in self.events.windows(2) {
            assert!(w[0].time <= w[1].time, "churn events must be time-sorted");
        }
        for e in &self.events {
            assert!(
                e.machine.index() < num_machines,
                "churn event machine {} out of range",
                e.machine
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_static() {
        let t = ChurnTrace::none();
        assert!(t.is_empty());
        t.validate(0);
    }

    #[test]
    fn validate_accepts_sorted_in_range() {
        let t = ChurnTrace {
            initially_offline: vec![MachineId(3)],
            events: vec![
                ChurnEvent { time: 10, machine: MachineId(3), kind: ChurnKind::Join },
                ChurnEvent { time: 10, machine: MachineId(0), kind: ChurnKind::Drain },
                ChurnEvent { time: 25, machine: MachineId(1), kind: ChurnKind::Fail },
            ],
        };
        assert!(!t.is_empty());
        t.validate(4);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn validate_rejects_unsorted() {
        ChurnTrace {
            initially_offline: vec![],
            events: vec![
                ChurnEvent { time: 25, machine: MachineId(1), kind: ChurnKind::Fail },
                ChurnEvent { time: 10, machine: MachineId(0), kind: ChurnKind::Join },
            ],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_rejects_out_of_range() {
        ChurnTrace { initially_offline: vec![MachineId(9)], events: vec![] }.validate(4);
    }

    #[test]
    fn kinds_render() {
        assert_eq!(ChurnKind::Join.to_string(), "join");
        assert_eq!(ChurnKind::Drain.to_string(), "drain");
        assert_eq!(ChurnKind::Fail.to_string(), "fail");
    }
}
