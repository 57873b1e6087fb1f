//! The online scheduler: a long-lived driver over [`SimSession`].
//!
//! [`serve`] turns the offline engine into a service. Arrivals flow in
//! through a bounded [`crate::channel`]; the driver catches the engine up
//! to each arrival's timestamp, decides admission, and processes events as
//! fast as they can be computed (fast-forward). Three robustness
//! mechanisms live here:
//!
//! * **Bounded-backpressure admission.** When the engine's batch backlog
//!   reaches `backlog_bound`, arrivals are *probabilistically shed*: the
//!   task's best-case completion probability — `max_m P(exec_m ≤ slack)`
//!   from the PET, adjusted by the Eq. 6 bounded skewness exactly as the
//!   pruner's Eq. 7 does — becomes its admission probability. Past twice
//!   the bound every arrival is shed. A shed task still receives a
//!   terminal [`TaskOutcome::Shed`](hcsim_model::TaskOutcome) record via
//!   [`SimSession::shed`]: nothing panics, nothing is silently lost.
//! * **Epoch checkpoints.** At every membership-epoch boundary the driver
//!   captures a [`ServiceCheckpoint`] — the engine snapshot plus the
//!   driver's own state (dedup set, shedding RNG, counters) — so a crash
//!   loses at most one epoch of decisions.
//! * **Deterministic resume.** [`resume`] rebuilds the driver from a
//!   checkpoint; re-fed arrivals are deduplicated against the restored
//!   dedup set, so at-least-once delivery after a crash converges to the
//!   exact uninterrupted schedule.
//!
//! Determinism contract: the engine is only ever stepped *up to* the next
//! arrival's timestamp before that arrival is admitted, so every admission
//! decision is a pure function of the (deduplicated) arrival sequence and
//! the shedding RNG stream — independent of channel timing, feeder thread
//! scheduling, and crash points.

use std::collections::HashSet;
use std::time::Instant;

use hcsim_model::{SystemSpec, Task, Time};
use hcsim_sim::snapshot::{ByteReader, ByteWriter, Wire};
use hcsim_sim::{
    wire_struct, EngineWork, Mapper, SimConfig, SimReport, SimSession, SnapshotError, SnapshotRng,
};
use hcsim_stats::Xoshiro256pp;

use crate::channel::Receiver;
use crate::fault::FaultPlan;

/// Magic bytes opening a [`ServiceCheckpoint`] (distinct from the engine
/// snapshot's own magic, which follows inside).
const CHECKPOINT_MAGIC: [u8; 4] = *b"HCSV";

/// Skewness weight of the admission draw: Eq. 7's ρ at the pruner's
/// default (`PruningConfig::rho` in `hcsim-core`).
const ADMISSION_RHO: f64 = 0.1;

/// Tuning knob of the service driver.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Engine backlog (batch-queue length) at which probabilistic shedding
    /// engages; at twice this bound shedding becomes unconditional.
    pub backlog_bound: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { backlog_bound: 512 }
    }
}

/// Seed of the dedicated admission-shedding RNG stream (separate from the
/// simulation's execution-time stream, so shedding never perturbs drawn
/// execution times).
const SHED_SEED: u64 = 0x5EED_5EED;

wire_struct! {
    /// Service-level accounting, alongside the engine's own [`SimReport`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServiceStats {
        /// Arrivals admitted into the engine.
        pub admitted: u64,
        /// Arrivals refused under overload (each has a `Shed` record).
        pub shed: u64,
        /// Redelivered arrivals dropped by the dedup set.
        pub duplicates_dropped: u64,
        /// Epoch checkpoints captured.
        pub checkpoints: u64,
        /// Times this run was resumed from a checkpoint.
        pub restores: u64,
    }
}

/// Everything [`serve`] hands back on a clean exit.
#[derive(Debug)]
pub struct ServiceReport {
    /// The engine's report — bit-identical to an offline run of the same
    /// admitted schedule.
    pub sim: SimReport,
    /// Driver-level accounting.
    pub stats: ServiceStats,
    /// The engine's scan work since the session was opened or restored
    /// ([`SimSession::engine_work`]); outside `sim`, which a restored run
    /// must reproduce byte for byte.
    pub engine_work: EngineWork,
}

wire_struct! {
    /// A crash-consistent capture of the whole service: engine snapshot
    /// plus driver state. Everything [`resume`] needs travels in these
    /// bytes, in field order after the magic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServiceCheckpoint {
        engine: Vec<u8>,
        seen: Vec<u32>,
        shed_rng: [u64; 4],
        stats: ServiceStats,
        last_epoch: u64,
    }
}

impl ServiceCheckpoint {
    /// The membership epoch at which this checkpoint was taken.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Serializes the checkpoint (little-endian, fixed-width).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + self.engine.len() + self.seen.len() * 4);
        w.magic(CHECKPOINT_MAGIC);
        self.put(&mut w);
        w.into_bytes()
    }

    /// Deserializes checkpoint bytes, validating shape but deferring
    /// engine-snapshot validation to [`resume`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        r.magic(CHECKPOINT_MAGIC)?;
        let checkpoint = Self::get(&mut r)?;
        r.end("trailing bytes after checkpoint")?;
        Ok(checkpoint)
    }
}

/// How a service run ended.
#[derive(Debug)]
pub enum ServiceExit {
    /// The arrival channel closed and every event drained. Boxed: the
    /// report dwarfs the `Killed` variant and exits move through
    /// `Result`-like plumbing by value.
    Completed(Box<ServiceReport>),
    /// The fault plan killed the service at an epoch boundary. The
    /// checkpoint resumes the run via [`resume`].
    Killed {
        /// Crash-consistent state as of the kill epoch.
        checkpoint: ServiceCheckpoint,
        /// Accounting up to the kill.
        stats: ServiceStats,
    },
}

impl ServiceExit {
    /// Unwraps the completed report, panicking on a killed exit (test
    /// convenience).
    #[must_use]
    pub fn expect_completed(self) -> ServiceReport {
        match self {
            ServiceExit::Completed(r) => *r,
            ServiceExit::Killed { checkpoint, .. } => {
                panic!("service was killed at epoch {}", checkpoint.epoch())
            }
        }
    }
}

/// Mutable driver state that must survive a crash (everything here is in
/// the checkpoint).
struct DriverState {
    seen: HashSet<u32>,
    shed_rng: Xoshiro256pp,
    stats: ServiceStats,
    last_epoch: u64,
}

impl DriverState {
    fn new() -> Self {
        Self {
            seen: HashSet::new(),
            shed_rng: Xoshiro256pp::new(SHED_SEED),
            stats: ServiceStats::default(),
            last_epoch: 0,
        }
    }

    fn from_checkpoint(cp: &ServiceCheckpoint) -> Self {
        Self {
            seen: cp.seen.iter().copied().collect(),
            shed_rng: Xoshiro256pp::from_state(cp.shed_rng),
            stats: ServiceStats { restores: cp.stats.restores + 1, ..cp.stats },
            last_epoch: cp.last_epoch,
        }
    }

    fn checkpoint<M: Mapper, R: SnapshotRng>(
        &self,
        session: &SimSession<'_, M, R>,
    ) -> ServiceCheckpoint {
        let mut seen: Vec<u32> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        ServiceCheckpoint {
            engine: session.snapshot(),
            seen,
            shed_rng: self.shed_rng.state(),
            stats: self.stats,
            last_epoch: self.last_epoch,
        }
    }
}

/// Best-case completion probability of `task` started right now, adjusted
/// by Eq. 6 bounded skewness with the pruner's Eq. 7 weighting (position
/// 0): the admission-worth a shedding decision is drawn against.
#[must_use]
pub fn admission_worth(spec: &SystemSpec, task: &Task, now: Time) -> f64 {
    let slack = task.deadline.saturating_sub(now);
    let mut best_p = 0.0_f64;
    let mut best_skew = 0.0_f64;
    for m in 0..spec.pet.machines() {
        let pmf = spec.pet.pmf(task.type_id, hcsim_model::MachineId::from(m));
        let p = pmf.cdf_at(slack);
        if p > best_p {
            best_p = p;
            best_skew = pmf.bounded_skewness();
        }
    }
    // Eq. 7 with κ = 0: positively skewed (likely-early) tasks are
    // protected, negatively skewed ones shed more eagerly.
    (best_p + best_skew * ADMISSION_RHO).clamp(0.0, 1.0)
}

/// Runs a fresh service: live arrivals come from `arrivals`; `sources`
/// contributes pre-known traces (typically a
/// [`ChurnSource`](hcsim_sim::ChurnSource) — membership epochs, and with
/// them checkpoints and kill points, only exist if churn events flow).
/// Returns when the channel closes and the engine drains (`Completed`),
/// or at the fault plan's kill epoch (`Killed`). A resumed run needs no
/// sources: undrained source events travel inside the checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn serve<M: Mapper, R: SnapshotRng>(
    spec: &SystemSpec,
    sim_config: SimConfig,
    service: &ServiceConfig,
    fault: &FaultPlan,
    sources: &mut [&mut dyn hcsim_sim::EventSource],
    arrivals: Receiver<Task>,
    mapper: &mut M,
    rng: &mut R,
) -> ServiceExit {
    let session = SimSession::new(spec, sim_config, sources, mapper, rng);
    run_driver(spec, service, fault, arrivals, session, DriverState::new())
}

/// Resumes a killed service from a checkpoint, runs it to its next exit,
/// and reports the wall-clock nanoseconds the restore itself took (engine
/// rebuild + driver-state rebuild, excluding the resumed run). The feeder
/// may replay the *entire* arrival schedule: the restored dedup set drops
/// everything already delivered before the crash.
///
/// # Errors
///
/// Returns [`SnapshotError`] when the checkpoint's engine bytes fail
/// validation against `spec`/`sim_config`.
#[allow(clippy::too_many_arguments)]
pub fn resume<'a, M: Mapper, R: SnapshotRng>(
    spec: &'a SystemSpec,
    sim_config: SimConfig,
    service: &ServiceConfig,
    fault: &FaultPlan,
    arrivals: Receiver<Task>,
    checkpoint: &ServiceCheckpoint,
    mapper: &'a mut M,
    rng: &'a mut R,
) -> Result<(ServiceExit, u64), SnapshotError> {
    let t0 = Instant::now();
    let session = SimSession::restore(spec, sim_config, &checkpoint.engine, mapper, rng)?;
    let state = DriverState::from_checkpoint(checkpoint);
    let restore_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok((run_driver(spec, service, fault, arrivals, session, state), restore_nanos))
}

fn run_driver<M: Mapper, R: SnapshotRng>(
    spec: &SystemSpec,
    cfg: &ServiceConfig,
    fault: &FaultPlan,
    mut arrivals: Receiver<Task>,
    mut session: SimSession<'_, M, R>,
    mut state: DriverState,
) -> ServiceExit {
    // Steps one event, then runs the epoch-boundary bookkeeping: every
    // membership epoch opens with a checkpoint. Returns it as the kill
    // checkpoint when the fault plan says this epoch is fatal.
    fn step_once<M: Mapper, R: SnapshotRng>(
        session: &mut SimSession<'_, M, R>,
        state: &mut DriverState,
        fault: &FaultPlan,
    ) -> Option<ServiceCheckpoint> {
        session.step();
        let epoch = session.membership_epoch();
        if epoch != state.last_epoch {
            state.last_epoch = epoch;
            let cp = state.checkpoint(session);
            state.stats.checkpoints += 1;
            if fault.kill_at_epoch == Some(epoch) {
                return Some(cp);
            }
        }
        None
    }

    // Admission: dedup, catch the engine up to the arrival's timestamp
    // (the determinism keystone), then admit or shed.
    fn admit<M: Mapper, R: SnapshotRng>(
        session: &mut SimSession<'_, M, R>,
        state: &mut DriverState,
        spec: &SystemSpec,
        cfg: &ServiceConfig,
        fault: &FaultPlan,
        task: Task,
    ) -> Option<ServiceCheckpoint> {
        if state.seen.contains(&task.id.0) {
            state.stats.duplicates_dropped += 1;
            return None;
        }
        while session.next_event_time().is_some_and(|t| t <= task.arrival) {
            if let Some(cp) = step_once(session, state, fault) {
                // Killed mid-catch-up: the task is deliberately NOT in the
                // dedup set yet, so its redelivery after resume is
                // admitted, not dropped.
                return Some(cp);
            }
        }
        state.seen.insert(task.id.0);
        let backlog = session.backlog();
        if backlog >= cfg.backlog_bound {
            let overloaded_hard = backlog >= cfg.backlog_bound.saturating_mul(2);
            if overloaded_hard
                || state.shed_rng.next_f64() >= admission_worth(spec, &task, session.now())
            {
                session.shed(task);
                state.stats.shed += 1;
                return None;
            }
        }
        session.inject_arrival(task);
        state.stats.admitted += 1;
        None
    }

    // Each pass decides one thing — the arrival to admit, or (`None`) that
    // the engine steps — and does it at the single site below.
    let killed = loop {
        // Arrivals order the whole loop: whatever the feeder has queued is
        // admitted before the engine moves.
        let arrival = match (arrivals.try_recv(), session.next_event_time()) {
            (Some(task), _) => Some(task),
            // Nothing scheduled: only an arrival can make progress, and
            // the close ends the run.
            (None, None) => match arrivals.recv() {
                Some(task) => Some(task),
                None => break None,
            },
            // Never run ahead of an arrival we have not seen — block for
            // it. Once the feeder is gone, drain freely.
            (None, Some(_)) => arrivals.recv(),
        };
        let killed = match arrival {
            Some(task) => admit(&mut session, &mut state, spec, cfg, fault, task),
            None => step_once(&mut session, &mut state, fault),
        };
        if killed.is_some() {
            break killed;
        }
    };

    match killed {
        None => {
            let stats = state.stats;
            let engine_work = session.engine_work();
            ServiceExit::Completed(Box::new(ServiceReport {
                sim: session.finish(),
                stats,
                engine_work,
            }))
        }
        Some(checkpoint) => ServiceExit::Killed { checkpoint, stats: state.stats },
    }
}
