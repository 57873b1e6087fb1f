//! The adaptive pruning controller: closes the §V threshold loop online.
//!
//! The paper fixes the dropping and deferring thresholds offline (§VII-C
//! sweeps them and settles on 50 % / 90 % for its stationary workloads).
//! Under non-stationary load — bursts, diurnal ramps, regime switches —
//! and cluster churn, no single static pair is right for the whole run:
//! the best aggression level moves with the load. The
//! [`AdaptiveController`] runs the §VII-C sweep *online*, from two
//! complementary signals:
//!
//! * **Feed-forward pressure** — task outcomes *lag* a load storm: the
//!   flood only registers once its casualties miss their deadlines, after
//!   the machines are already clogged with weak admissions. The Eq. 8
//!   oversubscription detector watches queue misses per mapping event and
//!   fires first, so it schedules the operating point directly. While it
//!   is *engaged* the controller runs its storm trim from the base pair.
//!   In the opposite direction, a slow average of the detector *level*
//!   with its own hysteresis certifies *sustained deep calm*, and only
//!   then do the thresholds drop [`CALM_RELAX`] *below* base (§VII-C's
//!   own sweeps show conservative pairs dominate at low oversubscription
//!   — deferral wastes healthy capacity). The toggle being merely off is
//!   not enough: during a gradual ramp-up the fast toggle lags the queue
//!   build-up, and relaxing into that would admit weak work exactly when
//!   capacity is about to run out.
//! * **Gain-scheduled perturb-and-observe trim** — the windowed loop
//!   maximizes the on-time completion rate directly, and it learns *two*
//!   operating points, one per detector phase: a calm trim (applied while
//!   the detector is disengaged, first probing toward admitting more)
//!   and a storm trim (applied while engaged, first probing toward
//!   shedding more). Each window of terminal outcomes
//!   moves the active phase's trim one step along the sweep ray and
//!   keeps the direction while the windowed on-time rate improves,
//!   reversing when it degrades; a phase flip *jumps* to the other
//!   phase's remembered trim instead of re-traveling the distance.
//!   Crucially the objective counts *pruned tasks against* the rate: a
//!   controller targeting the deadline-miss rate alone can always
//!   flatter its signal by dropping more (a dropped task cannot miss a
//!   deadline), and walks to maximum aggression on every workload.
//!   Extremum-seeking on the on-time rate has no such perverse incentive
//!   — more dropping only sticks when completions actually rise.
//! * **Per-class relief** — a workload class whose failure share (missed
//!   *or pruned*) overshoots the global rate accumulates *relief*, which
//!   relaxes (lowers) both of its thresholds exactly like PAMF's
//!   sufferage knob — shielding the class from starvation — and decays
//!   once the class recovers. Per-class thresholds thereby subsume the
//!   static fairness factor.
//!
//! Every gain, window and clamp is a constant below; the one choice left
//! to a caller is whether PAM runs the controller at all
//! ([`PruningConfig::adaptive`](crate::PruningConfig::adaptive)).
//!
//! The controller is driven from [`Mapper::on_task_finished`]
//! (terminal-record order equals event order, so its trajectory is
//! bit-identical across all fan-out execution modes), and its full dynamic
//! state rides in the PAM snapshot blob, so a crash/restore resumes the
//! adaptation trajectory exactly.
//!
//! [`Mapper::on_task_finished`]: hcsim_sim::Mapper::on_task_finished

use hcsim_model::{TaskOutcome, TaskTypeId};
use hcsim_sim::snapshot::{ByteReader, ByteWriter, SnapshotError, Wire};
use hcsim_sim::wire_struct;
use serde::{Deserialize, Serialize};

/// How far deferral moves per unit of *upward* dropping movement along
/// the sweep ray: the §VII-C sweeps move the defer threshold a few points
/// where they move dropping by twenty (it already sits close to 1).
/// *Downward* the ray runs at unit slope — the sweep grid keeps the
/// defer−drop gap constant on the conservative side (50/90 → 30/70) —
/// see [`defer_shift`].
const DEFER_RATIO: f64 = 0.25;

/// Maps a dropping-threshold shift onto the deferral axis following the
/// §VII-C sweep geometry: quarter gain upward, unit gain downward.
fn defer_shift(drop_shift: f64) -> f64 {
    if drop_shift < 0.0 {
        drop_shift
    } else {
        DEFER_RATIO * drop_shift
    }
}

/// A class must overshoot the global failure rate by this margin before
/// relief accumulates (keeps sampling noise from feeding the fairness
/// loop).
const RELIEF_MARGIN: f64 = 0.05;

/// Smoothing factor of the slow detector-level average behind the
/// deep-calm signal (the detector's own λ = 0.9 EWMA reacts within one
/// mapping event; the calm signal must instead certify *sustained*
/// health, so it averages the fast level over roughly the last ten
/// events).
const SLOW_LAMBDA: f64 = 0.1;

/// Deep calm engages once the slow level average falls to this fraction
/// of the detector's toggle-on point…
const DEEP_CALM_ENTER: f64 = 0.2;

/// …and disengages once it climbs back to this fraction (hysteresis, like
/// the detector's own Schmitt trigger, so the relaxation cannot flap).
const DEEP_CALM_EXIT: f64 = 0.4;

/// Dropping-threshold movement per adjustment, in robustness units
/// (deferral follows at quarter gain).
const STEP: f64 = 0.01;

/// Per-class relief gained per window while a class's failure rate
/// overshoots the global rate (and lost per window once it recovers) —
/// the dynamic replacement for PAMF's static fairness factor.
const RELIEF_STEP: f64 = 0.05;

/// Cap on accumulated per-class relief.
const RELIEF_MAX: f64 = 0.30;

/// Feed-forward *relaxation* subtracted from both thresholds (unit gain on
/// deferral, down the sweep ray) while the slow-averaged detector level
/// certifies sustained deep calm: a healthy system should defer far less
/// readily than the storm-tuned base pair does.
const CALM_RELAX: f64 = 0.20;

/// Clamp range for the effective dropping threshold.
const DROP_MIN: f64 = 0.20;
const DROP_MAX: f64 = 0.90;

/// Clamp range for the effective deferring threshold.
const DEFER_MIN: f64 = 0.50;
const DEFER_MAX: f64 = 0.98;

/// Switches PAM from the paper's static thresholds to the online
/// [`AdaptiveController`] when attached to a
/// [`PruningConfig`](crate::PruningConfig). It carries no settings: every
/// gain, window and clamp of the controller is fixed.
///
/// ```
/// use hcsim_core::{AdaptiveConfig, Pam, PruningConfig};
///
/// let _mapper = Pam::new(PruningConfig {
///     adaptive: Some(AdaptiveConfig),
///     ..PruningConfig::default()
/// });
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig;

wire_struct! {
    /// Sliding-window outcome counters for one adjustment period.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct WindowCounts {
        on_time: u64,
        late: u64,
        expired_unstarted: u64,
        expired_on_machine: u64,
        pruned: u64,
        shed: u64,
    }
}

impl WindowCounts {
    fn add(&mut self, outcome: TaskOutcome) {
        match outcome {
            TaskOutcome::CompletedOnTime | TaskOutcome::CompletedApprox => self.on_time += 1,
            TaskOutcome::CompletedLate => self.late += 1,
            TaskOutcome::ExpiredUnstarted => self.expired_unstarted += 1,
            TaskOutcome::ExpiredExecuting | TaskOutcome::Unfinished => {
                self.expired_on_machine += 1;
            }
            TaskOutcome::PrunedDropped => self.pruned += 1,
            TaskOutcome::Shed => self.shed += 1,
        }
    }

    fn total(&self) -> u64 {
        self.on_time
            + self.late
            + self.expired_unstarted
            + self.expired_on_machine
            + self.pruned
            + self.shed
    }
}

wire_struct! {
    /// Per-workload-class window state: failure accounting plus accumulated
    /// fairness relief.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct ClassState {
        failed: u64,
        seen: u64,
        relief: f64,
    }
}

wire_struct! {
    /// One detector phase's gain-scheduled perturb-and-observe climb
    /// (phase 0 = calm, 1 = storm).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Phase {
        /// Trim on the dropping threshold. Deferral is derived from the
        /// same shift via the sweep-ray geometry.
        trim: f64,
        /// Perturbation direction: +1.0 (more aggressive) or -1.0.
        dir: f64,
        /// Perturbation magnitude: starts at [`STEP`] and halves on every
        /// reversal after the first (floor `STEP / 4`), so
        /// the climb converges onto an off-grid optimum instead of
        /// oscillating around it with full-size probes. The first reversal
        /// is free: the initial probe direction is a guess, and correcting
        /// a wrong guess must happen at full speed.
        step: f64,
        /// Direction reversals so far (drives the step decay).
        reversals: u64,
        /// On-time rate of this phase's previous window (the objective
        /// being climbed).
        last_rate: f64,
        /// Windows processed (the first window of a phase has no reference
        /// rate and probes the phase's natural direction).
        windows: u64,
    }
}

wire_struct! {
    /// Everything the controller learns at run time: what its snapshot
    /// carries (the base thresholds are not).
    #[derive(Debug, Clone, PartialEq)]
    struct Dynamics {
        phases: [Phase; 2],
        /// Windows processed so far (instrumentation + state fingerprint).
        adjustments: u64,
        window: WindowCounts,
        classes: Vec<ClassState>,
        /// Feed-forward state: true while the Eq. 8 detector is engaged.
        pressure: bool,
        /// Slow EWMA of the detector level as a fraction of its toggle-on
        /// point (see [`SLOW_LAMBDA`]).
        slow_ratio: f64,
        /// True while the slow level average certifies sustained health —
        /// the only state in which [`CALM_RELAX`] applies.
        deep_calm: bool,
    }
}

/// The per-workload-class feedback controller. Owned by PAM when
/// [`crate::PruningConfig::adaptive`] is set; fed one terminal outcome at
/// a time via [`AdaptiveController::observe`] and the detector toggle via
/// [`AdaptiveController::set_pressure`], queried per task type for the
/// current effective thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveController {
    base_drop: f64,
    base_defer: f64,
    state: Dynamics,
}

impl AdaptiveController {
    /// Terminal outcomes per adjustment window: the controller re-decides
    /// every `WINDOW` finished tasks. Smaller reacts faster; larger
    /// estimates the on-time rate more stably.
    pub const WINDOW: usize = 32;

    /// Creates a controller for `num_task_types` workload classes around
    /// the static base thresholds it modulates.
    #[must_use]
    pub fn new(num_task_types: usize, base_drop: f64, base_defer: f64) -> Self {
        // Calm probes toward admitting more (under-load wastes capacity
        // on deferral); storm probes toward shedding more (the Fig. 7
        // direction).
        let phase = |dir| Phase { dir, step: STEP, ..Phase::default() };
        Self {
            base_drop,
            base_defer,
            state: Dynamics {
                phases: [phase(-1.0), phase(1.0)],
                adjustments: 0,
                window: WindowCounts::default(),
                classes: vec![ClassState::default(); num_task_types],
                pressure: false,
                slow_ratio: 0.0,
                deep_calm: true,
            },
        }
    }

    /// Feed-forward input: the Eq. 8 oversubscription detector's toggle
    /// and its raw level as a fraction of the toggle-on point, fed once
    /// per mapping event *before* any threshold query. The toggle drives
    /// the storm schedule directly (outcome windows lag a flood; the
    /// detector does not); the level ratio feeds a slow average whose
    /// hysteresis gates the deep-calm relaxation. Returns `true` when
    /// either state flipped (thresholds jumped).
    pub fn set_pressure(&mut self, engaged: bool, level_ratio: f64) -> bool {
        let s = &mut self.state;
        let was = (s.pressure, s.deep_calm);
        s.pressure = engaged;
        s.slow_ratio = level_ratio * SLOW_LAMBDA + s.slow_ratio * (1.0 - SLOW_LAMBDA);
        if engaged || s.slow_ratio >= DEEP_CALM_EXIT {
            s.deep_calm = false;
        } else if s.slow_ratio <= DEEP_CALM_ENTER {
            s.deep_calm = true;
        }
        // Between the bounds: hold the previous state.
        (s.pressure, s.deep_calm) != was
    }

    /// The active phase index (0 = calm, 1 = storm).
    fn phase(&self) -> usize {
        usize::from(self.state.pressure)
    }

    /// Net dropping-threshold shift for the active phase: its learned
    /// trim, less the feed-forward relaxation while the detector is
    /// disengaged and the system sits in sustained deep calm.
    fn drop_shift(&self) -> f64 {
        let trim = self.state.phases[self.phase()].trim;
        if !self.state.pressure && self.state.deep_calm {
            trim - CALM_RELAX
        } else {
            trim
        }
    }

    fn relief(&self, tt: TaskTypeId) -> f64 {
        self.state.classes.get(tt.index()).map_or(0.0, |c| c.relief)
    }

    /// Current effective dropping threshold for a class.
    #[must_use]
    pub fn drop_threshold_for(&self, tt: TaskTypeId) -> f64 {
        (self.base_drop + self.drop_shift() - self.relief(tt)).clamp(DROP_MIN, DROP_MAX)
    }

    /// Current effective deferring threshold for a class (follows the
    /// dropping shift along the sweep-ray geometry).
    #[must_use]
    pub fn defer_threshold_for(&self, tt: TaskTypeId) -> f64 {
        let t = (self.base_defer + defer_shift(self.drop_shift()) - self.relief(tt))
            .clamp(DEFER_MIN, DEFER_MAX);
        // The §V-B2 invariant (defer >= drop) must survive adaptation.
        t.max(self.drop_threshold_for(tt))
    }

    /// Number of window-boundary adjustments performed so far.
    #[must_use]
    pub fn adjustments(&self) -> u64 {
        self.state.adjustments
    }

    /// True while the slow-averaged detector level sits in sustained deep
    /// calm (the feed-forward relaxation is active).
    #[must_use]
    pub fn deep_calm(&self) -> bool {
        self.state.deep_calm
    }

    /// Feeds one terminal task outcome. Returns `true` when a window
    /// boundary was crossed and thresholds may have moved.
    pub fn observe(&mut self, tt: TaskTypeId, outcome: TaskOutcome) -> bool {
        self.state.window.add(outcome);
        if let Some(c) = self.state.classes.get_mut(tt.index()) {
            c.seen += 1;
            if !matches!(outcome, TaskOutcome::CompletedOnTime | TaskOutcome::CompletedApprox) {
                c.failed += 1;
            }
        }
        if self.state.window.total() < Self::WINDOW as u64 {
            return false;
        }
        self.adjust();
        true
    }

    /// One perturb-and-observe decision at a window boundary, charged to
    /// the phase the detector reports *now* (outcome windows lag their
    /// causes either way; the climb self-corrects).
    fn adjust(&mut self) {
        let p = self.phase();
        let (base_drop, s) = (self.base_drop, &mut self.state);
        let total = s.window.total() as f64;
        let rate = s.window.on_time as f64 / total;

        // Keep climbing while this phase's objective improves (or holds);
        // reverse when it degrades, shrinking the probe so the walk
        // converges onto the optimum rather than orbiting it. A phase's
        // first window has no reference — it probes the phase's natural
        // direction.
        let ph = &mut s.phases[p];
        if ph.windows > 0 && rate < ph.last_rate {
            ph.dir = -ph.dir;
            if ph.reversals > 0 {
                ph.step = (ph.step * 0.5).max(STEP * 0.25);
            }
            ph.reversals += 1;
        }
        ph.last_rate = rate;
        ph.windows += 1;
        // Deferral rides the same ray rather than hunting independently
        // (one noisy objective cannot steer two coupled knobs apart), so
        // only the dropping trim is walked; clamp it to where the ray
        // still moves the thresholds.
        ph.trim = (ph.trim + ph.dir * ph.step).clamp(DROP_MIN - base_drop, DROP_MAX - base_drop);

        // Per-class fairness relief: classes failing (missing *or* being
        // pruned) beyond the global failure rate get shielded; recovered
        // classes give the relief back. A class needs a minimum sample
        // count this window to move.
        let global_fail = 1.0 - rate;
        let min_samples = Self::WINDOW as u64 / 8;
        for c in &mut s.classes {
            if c.seen >= min_samples {
                let class_fail = c.failed as f64 / c.seen as f64;
                if class_fail > global_fail + RELIEF_MARGIN {
                    c.relief = (c.relief + RELIEF_STEP).min(RELIEF_MAX);
                } else {
                    c.relief = decay(c.relief, RELIEF_STEP);
                }
            }
            c.failed = 0;
            c.seen = 0;
        }

        s.window = WindowCounts::default();
        s.adjustments += 1;
    }

    /// Serializes the dynamic state (per-phase trims/directions/last
    /// objectives, relief vector, in-progress window counters) for the
    /// PAM snapshot blob.
    #[must_use]
    pub fn state_bytes(&self) -> Vec<u8> {
        let classes = self.state.classes.len() * ClassState::MIN_BYTES;
        let mut w = ByteWriter::with_capacity(Dynamics::MIN_BYTES + classes);
        self.state.put(&mut w);
        w.into_bytes()
    }

    /// Restores state captured by [`AdaptiveController::state_bytes`].
    /// Nothing is overwritten unless the whole buffer decodes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a truncated, over-long or otherwise malformed
    /// buffer.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let state = Dynamics::get(&mut r)?;
        r.end("trailing bytes after adaptive controller state")?;
        self.state = state;
        Ok(())
    }
}

/// Moves `value` toward zero by `step` without overshooting.
fn decay(value: f64, step: f64) -> f64 {
    if value > step {
        value - step
    } else if value < -step {
        value + step
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One adjustment window's worth of outcomes — a literal, not
    /// `AdaptiveController::WINDOW`, so a changed window fails the
    /// boundary check below.
    const W: usize = 32;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(3, 0.50, 0.90)
    }

    fn feed(c: &mut AdaptiveController, tt: u16, outcome: TaskOutcome, n: usize) {
        for _ in 0..n {
            c.observe(TaskTypeId(tt), outcome);
        }
    }

    #[test]
    fn starts_calm_relaxed_below_base() {
        // The detector starts disengaged, so the schedule opens at the
        // calm point: 0.20 below base along the sweep ray.
        let c = controller();
        assert!((c.drop_threshold_for(TaskTypeId(0)) - (0.50 - 0.20)).abs() < 1e-12);
        assert!((c.defer_threshold_for(TaskTypeId(0)) - (0.90 - 0.20)).abs() < 1e-12);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn calm_probes_toward_admission_storm_toward_aggression() {
        let mut calm = controller();
        feed(&mut calm, 0, TaskOutcome::ExpiredExecuting, W - 1);
        assert_eq!(calm.adjustments(), 0, "a window is 32 outcomes");
        feed(&mut calm, 0, TaskOutcome::ExpiredExecuting, 1);
        assert_eq!(calm.adjustments(), 1);
        assert!(
            calm.drop_threshold_for(TaskTypeId(0)) < 0.50 - CALM_RELAX,
            "calm first probe admits more, not less"
        );
        let mut storm = controller();
        storm.set_pressure(true, 1.0);
        feed(&mut storm, 0, TaskOutcome::ExpiredExecuting, W);
        assert!(storm.drop_threshold_for(TaskTypeId(0)) > 0.50, "storm first probe sheds more");
        assert!(storm.defer_threshold_for(TaskTypeId(0)) > 0.90, "deferral rides the same ray");
    }

    #[test]
    fn improving_rate_keeps_the_direction() {
        let mut c = controller();
        feed(&mut c, 0, TaskOutcome::ExpiredExecuting, W); // rate 0: calm probes down
        let after_one = c.drop_threshold_for(TaskTypeId(0));
        feed(&mut c, 0, TaskOutcome::CompletedOnTime, W); // rate 1 > 0: keep going
        assert!(c.drop_threshold_for(TaskTypeId(0)) < after_one);
    }

    #[test]
    fn degrading_rate_reverses_the_direction() {
        let mut c = controller();
        feed(&mut c, 0, TaskOutcome::CompletedOnTime, W); // rate 1, calm probes down
        let after_one = c.drop_threshold_for(TaskTypeId(0));
        feed(&mut c, 0, TaskOutcome::ExpiredExecuting, W); // rate 0 < 1: reverse
        assert!(
            c.drop_threshold_for(TaskTypeId(0)) > after_one,
            "worse objective must reverse the perturbation"
        );
    }

    #[test]
    fn phase_flip_recalls_the_other_phases_trim() {
        let mut c = controller();
        // Calm descends for two windows (0 -> -step -> -2·step).
        feed(&mut c, 0, TaskOutcome::ExpiredExecuting, W);
        feed(&mut c, 0, TaskOutcome::CompletedOnTime, W);
        let calm_point = c.drop_threshold_for(TaskTypeId(0));
        assert!(calm_point < 0.50 - CALM_RELAX);
        // Storm: jumps to base instantly, untouched by the calm descent.
        c.set_pressure(true, 1.0);
        assert!(
            (c.drop_threshold_for(TaskTypeId(0)) - 0.50).abs() < 1e-12,
            "storm trim starts fresh at base"
        );
        // And flipping back recalls the calm trim exactly.
        c.set_pressure(false, 0.0);
        assert!((c.drop_threshold_for(TaskTypeId(0)) - calm_point).abs() < 1e-12);
    }

    #[test]
    fn dropping_more_is_not_rewarded_for_its_own_sake() {
        // A miss-rate-targeting law walks to max aggression because pruned
        // tasks cannot miss deadlines; the on-time objective must treat a
        // pruned-away window exactly like an expired one. Two controllers
        // fed the two failure shapes must walk identical trajectories.
        let mut pruned = controller();
        pruned.set_pressure(true, 1.0);
        let mut expired = controller();
        expired.set_pressure(true, 1.0);
        for _ in 0..4 {
            feed(&mut pruned, 0, TaskOutcome::PrunedDropped, W);
            feed(&mut expired, 0, TaskOutcome::ExpiredExecuting, W);
        }
        assert!(
            (pruned.drop_threshold_for(TaskTypeId(1)) - expired.drop_threshold_for(TaskTypeId(1)))
                .abs()
                < 1e-12,
            "an all-pruned window must not score better than an all-expired one"
        );
    }

    #[test]
    fn suffering_class_accumulates_relief() {
        let mut c = controller();
        // Keep the shared point off the lower clamp. Class 0 fails
        // everything; classes 1/2 are fine → class 0's failure rate
        // (100 %) overshoots the global rate (25 %).
        c.set_pressure(true, 1.0);
        for _ in 0..4 {
            feed(&mut c, 0, TaskOutcome::ExpiredUnstarted, 8);
            feed(&mut c, 1, TaskOutcome::CompletedOnTime, 12);
            feed(&mut c, 2, TaskOutcome::CompletedOnTime, 12);
        }
        let relieved = c.drop_threshold_for(TaskTypeId(0));
        let normal = c.drop_threshold_for(TaskTypeId(1));
        assert!(
            relieved < normal,
            "suffering class gets relaxed thresholds: {relieved} vs {normal}"
        );
        assert!(c.defer_threshold_for(TaskTypeId(0)) < c.defer_threshold_for(TaskTypeId(1)));
    }

    #[test]
    fn pruned_away_class_counts_as_suffering() {
        // Fairness must see pruning: a class whose tasks are dropped by
        // the pruner is being sacrificed even though it never "misses".
        let mut c = controller();
        c.set_pressure(true, 1.0);
        for _ in 0..4 {
            feed(&mut c, 0, TaskOutcome::PrunedDropped, 8);
            feed(&mut c, 1, TaskOutcome::CompletedOnTime, 12);
            feed(&mut c, 2, TaskOutcome::CompletedOnTime, 12);
        }
        assert!(
            c.drop_threshold_for(TaskTypeId(0)) < c.drop_threshold_for(TaskTypeId(1)),
            "a pruned-away class accumulates relief"
        );
    }

    #[test]
    fn relief_is_capped_and_decays() {
        let mut c = controller();
        c.set_pressure(true, 1.0);
        for _ in 0..20 {
            feed(&mut c, 0, TaskOutcome::ExpiredUnstarted, 8);
            feed(&mut c, 1, TaskOutcome::CompletedOnTime, 24);
        }
        let floor = c.drop_threshold_for(TaskTypeId(0));
        assert!(floor >= DROP_MIN - 1e-12);
        // Class 0 recovers: relief drains away again.
        for _ in 0..20 {
            feed(&mut c, 0, TaskOutcome::CompletedOnTime, 8);
            feed(&mut c, 1, TaskOutcome::CompletedOnTime, 24);
        }
        assert!(c.drop_threshold_for(TaskTypeId(0)) >= floor);
        assert!(
            (c.drop_threshold_for(TaskTypeId(0)) - c.drop_threshold_for(TaskTypeId(1))).abs()
                < 1e-12,
            "recovered class returns to the shared thresholds"
        );
    }

    #[test]
    fn thresholds_stay_inside_clamps_and_ordered() {
        let mut c = controller();
        c.set_pressure(true, 1.0);
        // Hammer it with pathological windows in both directions.
        for _ in 0..50 {
            feed(&mut c, 0, TaskOutcome::ExpiredExecuting, W);
        }
        for tt in 0..3u16 {
            let drop = c.drop_threshold_for(TaskTypeId(tt));
            let defer = c.defer_threshold_for(TaskTypeId(tt));
            assert!((DROP_MIN..=DROP_MAX).contains(&drop));
            assert!((DEFER_MIN..=DEFER_MAX).contains(&defer) || defer == drop);
            assert!(defer >= drop, "§V-B2 invariant must survive adaptation");
        }
        for _ in 0..50 {
            feed(&mut c, 0, TaskOutcome::ExpiredUnstarted, W);
        }
        for tt in 0..3u16 {
            assert!(c.defer_threshold_for(TaskTypeId(tt)) >= c.drop_threshold_for(TaskTypeId(tt)));
        }
    }

    #[test]
    fn relax_requires_sustained_deep_calm() {
        let mut c = controller();
        // Fresh controller: deep calm, relaxed below base.
        assert!((c.drop_threshold_for(TaskTypeId(0)) - (0.50 - CALM_RELAX)).abs() < 1e-12);
        // Detector level climbs (toggle still off — a gradual ramp):
        // the slow average crosses the exit bound and the relaxation is
        // withdrawn even though pressure never engaged.
        for _ in 0..8 {
            c.set_pressure(false, 1.0);
        }
        assert!(
            (c.drop_threshold_for(TaskTypeId(0)) - 0.50).abs() < 1e-12,
            "transitional band holds base"
        );
        // One quiet event is not enough to relax again…
        c.set_pressure(false, 0.0);
        assert!((c.drop_threshold_for(TaskTypeId(0)) - 0.50).abs() < 1e-12);
        // …but sustained quiet is.
        for _ in 0..20 {
            c.set_pressure(false, 0.0);
        }
        assert!((c.drop_threshold_for(TaskTypeId(0)) - (0.50 - CALM_RELAX)).abs() < 1e-12);
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut c = controller();
        feed(&mut c, 0, TaskOutcome::ExpiredUnstarted, 20);
        feed(&mut c, 1, TaskOutcome::CompletedOnTime, 24);
        feed(&mut c, 2, TaskOutcome::PrunedDropped, 12);
        c.set_pressure(true, 1.0);
        // Mid-window on purpose: partial counters must survive too.
        let bytes = c.state_bytes();
        let mut restored = controller();
        restored.restore_state(&bytes).unwrap();
        assert_eq!(c, restored);
        // And the trajectories stay identical afterwards.
        feed(&mut c, 0, TaskOutcome::ExpiredExecuting, 40);
        feed(&mut restored, 0, TaskOutcome::ExpiredExecuting, 40);
        assert_eq!(c, restored);
    }

    #[test]
    fn state_min_bytes_is_an_empty_class_table() {
        // The class count's guard is one class row's encoded width.
        let empty = AdaptiveController::new(0, 0.50, 0.90);
        assert_eq!(empty.state_bytes().len(), Dynamics::MIN_BYTES);
        let three = controller().state_bytes().len();
        assert_eq!(three, Dynamics::MIN_BYTES + 3 * ClassState::MIN_BYTES);
    }
}
