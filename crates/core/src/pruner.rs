//! The pruning mechanism: configuration, the Eq. 8 oversubscription
//! detector with its Schmitt trigger, the Eq. 7 per-task drop-threshold
//! adjustment, and the dropping pass over machine queues.

use crate::adaptive::AdaptiveConfig;
use crate::scorer::ProbScorer;
use hcsim_model::{MachineId, TaskTypeId};
use hcsim_sim::MapContext;
use serde::{Deserialize, Serialize};

/// All knobs of the pruning mechanism (§V), with the values the paper
/// settles on as defaults.
///
/// The struct is `Copy` and uses functional update syntax for overrides;
/// [`PruningConfig::validate`] (called by every mapper constructor)
/// rejects inconsistent threshold pairs:
///
/// ```
/// use hcsim_core::{Pam, PruningConfig};
///
/// let cfg = PruningConfig {
///     drop_threshold: 0.30,  // drop a task only below 30% on-time odds
///     defer_threshold: 0.70, // defer mapping below 70% odds
///     threads: 4,            // per-machine fan-out (bit-identical at any count)
///     ..PruningConfig::default()
/// };
/// cfg.validate();
/// let _mapper = Pam::new(cfg);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruningConfig {
    /// Base dropping threshold (§VII-C settles on 50 %).
    pub drop_threshold: f64,
    /// Deferring threshold (§VII-C settles on 90 %; must be ≥ the dropping
    /// threshold for the mechanism to make sense, §V-B2).
    pub defer_threshold: f64,
    /// Eq. 7 scale ρ for the skewness/position adjustment. The paper
    /// introduces ρ without publishing a value; 0.1 keeps the adjustment
    /// within ±10 percentage points at the queue head.
    pub rho: f64,
    /// Eq. 8 EWMA weight λ (§VII-B selects 0.9).
    pub lambda: f64,
    /// Use a Schmitt trigger with 20 % separation (§V-C) instead of a
    /// single threshold.
    pub schmitt: bool,
    /// Apply the Eq. 7 per-task adjustment (disable to ablate).
    pub per_task_adjustment: bool,
    /// Allow the dropping pass to evict the executing task (scenario C).
    pub drop_executing: bool,
    /// Impulse budget for intermediate availability PMFs.
    pub impulse_budget: usize,
    /// Maximum number of batch tasks evaluated per mapping event by the
    /// probabilistic heuristics (an engineering bound; the paper does not
    /// cap it, but under extreme oversubscription the batch grows into the
    /// hundreds and scoring is O(window × machines)).
    pub batch_window: usize,
    /// Fairness factor ϑ for PAMF (§VII-D selects 5 %). Only consulted by
    /// [`crate::Pam::with_fairness`] / the PAMF factory entry.
    pub fairness_factor: f64,
    /// Worker threads for the per-machine scoring fan-out (`0` = the
    /// host's available parallelism, resolved once per mapper) — the one
    /// setting the mapping-event fan-out has. One thread, or a cluster below
    /// [`crate::PARALLEL_MIN_MACHINES`], keeps every fan-out on the
    /// calling thread; anything else runs it on a persistent worker pool.
    /// The fan-out merges in machine-index order and every per-machine
    /// computation is deterministic, so results are **bit-identical at
    /// any thread count** — this is purely a performance knob.
    pub threads: usize,
    /// Close the threshold loop online: when set, PAM drives its dropping
    /// and deferring thresholds through an
    /// [`AdaptiveController`](crate::AdaptiveController) observing a
    /// sliding window of terminal outcomes, with `drop_threshold` /
    /// `defer_threshold` as the bases it modulates. The controller's
    /// per-class thresholds subsume the sufferage fairness knob, so PAMF's
    /// static table is bypassed while adaptation is on. `None` (the
    /// default, preserving the published model and the seed goldens) keeps
    /// the thresholds static. MOC's cull threshold is a candidate-filter
    /// bound, not an outcome threshold, and stays static either way.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self {
            drop_threshold: 0.50,
            defer_threshold: 0.90,
            rho: 0.1,
            lambda: 0.9,
            schmitt: true,
            per_task_adjustment: true,
            drop_executing: true,
            impulse_budget: 24,
            batch_window: 192,
            fairness_factor: 0.05,
            threads: 0,
            adaptive: None,
        }
    }
}

impl PruningConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on thresholds outside `[0, 1]`, λ outside `(0, 1]`, or a
    /// defer threshold below the drop threshold.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_threshold), "drop threshold in [0,1]");
        assert!((0.0..=1.0).contains(&self.defer_threshold), "defer threshold in [0,1]");
        assert!(
            self.defer_threshold >= self.drop_threshold,
            "defer threshold must be >= drop threshold (§V-B2)"
        );
        assert!(self.lambda > 0.0 && self.lambda <= 1.0, "lambda in (0,1]");
        assert!(self.rho >= 0.0 && self.rho.is_finite(), "rho must be non-negative");
        assert!(self.impulse_budget >= 2, "impulse budget too small");
        assert!(self.batch_window >= 1, "batch window must be positive");
        assert!((0.0..=1.0).contains(&self.fairness_factor), "fairness factor in [0,1]");
    }
}

/// Eq. 7: the adjustment `φ = (−s·ρ)/(κ+1)` added to the base dropping
/// threshold for a task with bounded completion-PMF skewness `s` at queue
/// position `κ` (0 = executing/head). The result is clamped to `[0, 1]`.
///
/// Positively skewed tasks (likely to finish early) get a *lower*
/// threshold — they are protected; negatively skewed tasks near the head
/// get a *higher* threshold — they are dropped more eagerly, because their
/// uncertainty poisons everything queued behind them (§V-B1).
#[must_use]
pub fn adjusted_drop_threshold(base: f64, skewness: f64, position: usize, rho: f64) -> f64 {
    let phi = (-skewness * rho) / (position as f64 + 1.0);
    (base + phi).clamp(0.0, 1.0)
}

/// Oversubscription level at which dropping engages (§VII-A: "the
/// dropping toggle is one task").
pub(crate) const TOGGLE_ON: f64 = 1.0;

/// Eq. 8 oversubscription detector with optional Schmitt trigger (§V-C).
///
/// `d_τ = µ_τ·λ + d_{τ−1}·(1−λ)` where µ_τ is the number of deadline
/// misses since the previous mapping event. Dropping engages when the
/// level reaches one task (§VII-A); with the Schmitt trigger it only
/// disengages once the level falls to 0.8 (20 % separation), preventing
/// rapid on/off flapping around the threshold.
///
/// ```
/// use hcsim_core::{OversubscriptionDetector, PruningConfig};
///
/// let mut d = OversubscriptionDetector::new(&PruningConfig::default());
/// assert!(!d.dropping_engaged());
/// d.observe(3); // a burst of deadline misses
/// assert!(d.dropping_engaged());
/// d.observe(0); // one quiet event is not enough to disengage (λ = 0.9)
/// assert!(!d.dropping_engaged() || d.level() > 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OversubscriptionDetector {
    level: f64,
    engaged: bool,
    lambda: f64,
    schmitt: bool,
}

impl OversubscriptionDetector {
    /// Creates a detector from the pruning configuration.
    #[must_use]
    pub fn new(config: &PruningConfig) -> Self {
        Self { level: 0.0, engaged: false, lambda: config.lambda, schmitt: config.schmitt }
    }

    /// Feeds the misses observed since the last mapping event (µ_τ) and
    /// updates the dropping toggle.
    pub fn observe(&mut self, missed: usize) {
        self.level = missed as f64 * self.lambda + self.level * (1.0 - self.lambda);
        if self.schmitt {
            if self.level >= TOGGLE_ON {
                self.engaged = true;
            } else if self.level <= 0.8 * TOGGLE_ON {
                self.engaged = false;
            }
            // Between the two bounds: hold the previous state.
        } else {
            self.engaged = self.level >= TOGGLE_ON;
        }
    }

    /// Current smoothed oversubscription level d_τ.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// True while the pruner should operate in aggressive (dropping) mode.
    #[must_use]
    pub fn dropping_engaged(&self) -> bool {
        self.engaged
    }

    /// Overwrites the smoothed level and toggle state with values captured
    /// from a snapshot. λ and the trigger stay as configured — only the
    /// dynamic state is restored.
    pub fn restore(&mut self, level: f64, engaged: bool) {
        self.level = level;
        self.engaged = engaged;
    }
}

/// The dropping stage of the pruner (§V-A): walk each machine queue from
/// the head, drop every task whose robustness is at or below its adjusted
/// threshold, and re-evaluate the queue after each drop (removing a task
/// raises the robustness of everything behind it).
#[derive(Debug, Clone, Copy)]
pub struct Pruner {
    config: PruningConfig,
}

impl Pruner {
    /// Creates a pruner.
    #[must_use]
    pub fn new(config: PruningConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Runs the dropping pass over all machine queues. `threshold_for`
    /// supplies the (possibly fairness-relaxed) base dropping threshold per
    /// task type. Returns the number of tasks removed.
    ///
    /// Queue scores come from the scorer's incremental tail cache
    /// ([`ProbScorer::slot_scores`]), so the re-evaluation after each drop
    /// reconvolves only the queue suffix behind the removed task instead of
    /// rebuilding the whole chain.
    pub fn drop_pass(
        &self,
        ctx: &mut MapContext<'_>,
        scorer: &mut ProbScorer,
        threshold_for: &dyn Fn(TaskTypeId) -> f64,
    ) -> usize {
        let mut dropped = 0;
        // Anchor the cache to this event's clock (a no-op when the mapper
        // already began the event; required when the pruner is driven
        // standalone, as the behavioral tests do). Same for the
        // membership epoch: churn re-gates the pool on the live cluster.
        scorer.begin_event(ctx.now());
        scorer.sync_membership(ctx.membership_epoch(), ctx.machines());
        // Fan the expensive per-machine chain/statistics computation out
        // across cores before the sequential decision walk below: the
        // first `slot_scores` query per machine then hits a warm cache,
        // and only machines that actually drop pay for re-analysis. The
        // warm-up is bit-identical to lazy sequential evaluation. With a
        // pool this is one request/response round over the persistent
        // workers; the per-machine queries in the walk below are direct
        // cell accesses either way.
        scorer.set_parallelism(self.config.threads);
        scorer.warm_caches(ctx.machines(), true);
        let may_evict = self.config.drop_executing && scorer.policy() == hcsim_pmf::DropPolicy::All;
        for m in 0..ctx.num_machines() {
            let machine_id = MachineId::from(m);
            // Re-evaluate after every drop; bounded by queue capacity.
            loop {
                let machine = ctx.machine(machine_id);
                if machine.occupancy() == 0 {
                    break;
                }
                let slots = scorer.slot_scores(machine);
                let mut removal: Option<(hcsim_model::TaskId, bool)> = None;
                for slot in slots {
                    let base = threshold_for(slot.task.type_id);
                    let threshold = if self.config.per_task_adjustment {
                        adjusted_drop_threshold(base, slot.skewness, slot.position, self.config.rho)
                    } else {
                        base
                    };
                    if slot.robustness <= threshold {
                        let is_executing = slot.position == 0
                            && ctx
                                .machine(machine_id)
                                .executing()
                                .is_some_and(|e| e.task.id == slot.task.id);
                        if is_executing && !may_evict {
                            continue; // protected; inspect the rest
                        }
                        removal = Some((slot.task.id, is_executing));
                        break; // queue changes: re-evaluate this machine
                    }
                }
                match removal {
                    Some((task_id, true)) => {
                        ctx.evict_executing(machine_id);
                        debug_assert!(
                            ctx.machine(machine_id).executing().is_none(),
                            "evicted task {task_id} still executing"
                        );
                        dropped += 1;
                    }
                    Some((task_id, false)) => {
                        if ctx.drop_pending(machine_id, task_id) {
                            dropped += 1;
                        } else {
                            break; // defensive: task vanished; stop looping
                        }
                    }
                    None => break,
                }
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_match_paper() {
        let c = PruningConfig::default();
        c.validate();
        assert!((c.drop_threshold - 0.5).abs() < 1e-12);
        assert!((c.defer_threshold - 0.9).abs() < 1e-12);
        assert!((c.lambda - 0.9).abs() < 1e-12);
        assert_eq!(TOGGLE_ON, 1.0);
        assert!(c.schmitt);
        assert!(c.adaptive.is_none(), "threshold adaptation is opt-in");
    }

    #[test]
    #[should_panic(expected = "defer threshold must be >=")]
    fn defer_below_drop_rejected() {
        PruningConfig { drop_threshold: 0.8, defer_threshold: 0.5, ..Default::default() }
            .validate();
    }

    #[test]
    fn eq7_signs_and_magnitude() {
        // Negative skew at the head: threshold raised by ρ·|s|.
        let up = adjusted_drop_threshold(0.5, -1.0, 0, 0.1);
        assert!((up - 0.6).abs() < 1e-12);
        // Positive skew at the head: threshold lowered.
        let down = adjusted_drop_threshold(0.5, 1.0, 0, 0.1);
        assert!((down - 0.4).abs() < 1e-12);
        // Deeper in the queue the adjustment attenuates as 1/(κ+1).
        let deep = adjusted_drop_threshold(0.5, -1.0, 4, 0.1);
        assert!((deep - 0.52).abs() < 1e-12);
        // Zero skew: no change.
        assert_eq!(adjusted_drop_threshold(0.5, 0.0, 2, 0.1), 0.5);
    }

    #[test]
    fn eq7_clamps() {
        assert_eq!(adjusted_drop_threshold(0.05, 1.0, 0, 0.2), 0.0);
        assert_eq!(adjusted_drop_threshold(0.95, -1.0, 0, 0.2), 1.0);
    }

    #[test]
    fn detector_ewma_matches_eq8() {
        let cfg = PruningConfig { lambda: 0.9, schmitt: false, ..Default::default() };
        let mut d = OversubscriptionDetector::new(&cfg);
        d.observe(2); // 2*0.9 = 1.8
        assert!((d.level() - 1.8).abs() < 1e-12);
        d.observe(0); // 1.8*0.1 = 0.18
        assert!((d.level() - 0.18).abs() < 1e-12);
        d.observe(1); // 1*0.9 + 0.18*0.1 = 0.918
        assert!((d.level() - 0.918).abs() < 1e-12);
    }

    #[test]
    fn single_threshold_toggles_both_ways() {
        let cfg = PruningConfig { lambda: 1.0, schmitt: false, ..Default::default() };
        let mut d = OversubscriptionDetector::new(&cfg);
        assert!(!d.dropping_engaged());
        d.observe(3);
        assert!(d.dropping_engaged());
        d.observe(0);
        assert!(!d.dropping_engaged(), "single threshold flaps straight off");
    }

    #[test]
    fn schmitt_trigger_holds_between_bounds() {
        // λ=1 makes the level equal to the last observation. on = 1.0,
        // off = 0.8; exactly at the on-threshold engages.
        let cfg = PruningConfig { lambda: 1.0, schmitt: true, ..Default::default() };
        let mut d = OversubscriptionDetector::new(&cfg);
        d.observe(1); // level 1.0 → on
        assert!(d.dropping_engaged());
        // Emulate a fractional level inside the window with λ=0.45.
        let cfg2 = PruningConfig { lambda: 0.45, schmitt: true, ..Default::default() };
        let mut d2 = OversubscriptionDetector::new(&cfg2);
        d2.observe(3); // 1.35 → on
        assert!(d2.dropping_engaged());
        d2.observe(1); // 0.45 + 1.35·0.55 ≈ 1.19 → stays on
        assert!(d2.dropping_engaged());
        d2.observe(0); // ≈0.66 < 0.8 → off
        assert!(!d2.dropping_engaged());
    }

    #[test]
    fn schmitt_hysteresis_window() {
        // Construct a sequence landing the level inside (0.8, 1.0) from
        // both directions and verify the state is direction-dependent.
        let cfg = PruningConfig { lambda: 0.5, schmitt: true, ..Default::default() };
        // Rising from below: level hits 0.9 without ever reaching 1.0.
        let mut rising = OversubscriptionDetector::new(&cfg);
        rising.observe(1); // 0.5
        rising.observe(1); // 0.75
        rising.observe(1); // 0.875 — inside window, never engaged
        assert!(!rising.dropping_engaged());
        // Falling from above: engage at 1.75, then decay into the window.
        let mut falling = OversubscriptionDetector::new(&cfg);
        falling.observe(3); // 1.5 → on
        falling.observe(0); // 0.75 → below 0.8 → off... decays too fast; use λ=0.2
        let cfg2 = PruningConfig { lambda: 0.2, schmitt: true, ..Default::default() };
        let mut falling = OversubscriptionDetector::new(&cfg2);
        falling.observe(6); // 1.2 → on
        assert!(falling.dropping_engaged());
        falling.observe(0); // 0.96 — inside window → holds on
        assert!(falling.dropping_engaged());
        falling.observe(0); // 0.768 → off
        assert!(!falling.dropping_engaged());
    }
}
