//! Task-list generation per §VI-B.
//!
//! The paper's workload procedure:
//!
//! 1. The simulation spans a finite window of time units.
//! 2. An *oversubscription level* is expressed as a nominal total task
//!    count `N` for that window (the "19k / 34k tasks" of §VII). Each task
//!    type's mean inter-arrival time is `span / (N / K)` for `K` task
//!    types — "each task type's mean arrival rate is generated by dividing
//!    the number of time units by the estimated number of tasks of that
//!    type".
//! 3. Inter-arrival times are gamma distributed with variance equal to
//!    10 % of the mean (configurable; §VII-G varies it).
//! 4. Each trial keeps the first `num_tasks` arrivals (the paper uses 800
//!    per trial), so higher `N` compresses the same number of tasks into a
//!    shorter, more oversubscribed burst.
//! 5. Deadlines: `δᵢ = arrᵢ + avgᵢ + β·avg_all` where `avgᵢ` is the task
//!    type's mean execution time across machines, `avg_all` the grand
//!    mean, and `β` the slack coefficient.

use hcsim_model::{SystemSpec, Task, TaskId, TaskTypeId, Time};
use hcsim_stats::Gamma;
use serde::{Deserialize, Serialize};

/// Parameters of one workload trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of task instances actually generated per trial (paper: 800).
    pub num_tasks: usize,
    /// Simulated window the oversubscription level refers to, in time
    /// units (≙ ms).
    pub span: Time,
    /// Nominal task count over `span` — the oversubscription level, e.g.
    /// 19 000 or 34 000.
    pub oversubscription: f64,
    /// Slack coefficient β of the deadline formula.
    pub slack_beta: f64,
    /// Arrival-process variance as a fraction of the mean inter-arrival
    /// time (paper: 0.1).
    pub arrival_variance_frac: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_tasks: 800,
            span: 150_000,
            oversubscription: 19_000.0,
            slack_beta: 1.5,
            arrival_variance_frac: 0.1,
        }
    }
}

impl WorkloadConfig {
    /// Mean inter-arrival time for one task type given `K` task types.
    #[must_use]
    pub fn per_type_mean_interarrival(&self, task_types: usize) -> f64 {
        let per_type_tasks = self.oversubscription / task_types as f64;
        self.span as f64 / per_type_tasks
    }

    /// Aggregate arrival rate in tasks per time unit.
    #[must_use]
    pub fn aggregate_arrival_rate(&self, task_types: usize) -> f64 {
        task_types as f64 / self.per_type_mean_interarrival(task_types)
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite parameters.
    pub fn validate(&self) {
        assert!(self.num_tasks > 0, "num_tasks must be positive");
        assert!(self.span > 0, "span must be positive");
        assert!(
            self.oversubscription.is_finite() && self.oversubscription > 0.0,
            "oversubscription must be positive"
        );
        assert!(
            self.slack_beta.is_finite() && self.slack_beta >= 0.0,
            "slack_beta must be non-negative"
        );
        assert!(
            self.arrival_variance_frac.is_finite() && self.arrival_variance_frac > 0.0,
            "arrival_variance_frac must be positive"
        );
    }
}

/// Generates task lists for a [`SystemSpec`] under a [`WorkloadConfig`].
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
}

impl WorkloadGenerator {
    /// Creates a generator; validates the configuration.
    #[must_use]
    pub fn new(config: WorkloadConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Generates one trial's task list, sorted by arrival time, with ids
    /// assigned in arrival order.
    ///
    /// Deterministic for a given `(spec, rng state)` pair.
    pub fn generate<R: rand::Rng>(&self, spec: &SystemSpec, rng: &mut R) -> Vec<Task> {
        let k = spec.num_task_types();
        let mean_ia = self.config.per_type_mean_interarrival(k);
        let variance = self.config.arrival_variance_frac * mean_ia;
        let gamma = Gamma::from_mean_variance(mean_ia, variance)
            .expect("config validated: positive mean and variance");
        let avg_all = spec.truth.grand_mean();

        // One arrival stream per task type; each stream runs until it has
        // produced enough arrivals that the merged prefix cannot be
        // starved of this type (num_tasks draws is always sufficient).
        let mut arrivals: Vec<(f64, TaskTypeId)> =
            Vec::with_capacity(k * self.config.num_tasks.div_ceil(k) * 2);
        for tt in 0..k {
            let type_id = TaskTypeId::from(tt);
            let mut t = 0.0f64;
            // Enough draws per type to cover the worst case where the
            // merged prefix is dominated by this type.
            for _ in 0..self.config.num_tasks {
                t += gamma.sample(rng);
                arrivals.push((t, type_id));
            }
        }
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite arrival times"));
        arrivals.truncate(self.config.num_tasks);

        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (arr, type_id))| {
                let arrival = arr.round().max(0.0) as Time;
                let avg_i = spec.truth.mean_over_machines(type_id);
                let slack = (avg_i + self.config.slack_beta * avg_all).round() as Time;
                Task { id: TaskId::from(i), type_id, arrival, deadline: arrival + slack }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specint::specint_system;
    use hcsim_stats::SeedSequence;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig { num_tasks: 400, oversubscription: 19_000.0, ..Default::default() }
    }

    fn system() -> SystemSpec {
        let mut rng = SeedSequence::new(100).stream(0);
        specint_system(6, &mut rng)
    }

    #[test]
    fn per_type_interarrival_matches_paper_formula() {
        let cfg = WorkloadConfig { oversubscription: 34_000.0, span: 60_000, ..Default::default() };
        // 34k tasks over 60k units across 12 types → 2833.3 per type →
        // inter-arrival ≈ 21.18 units.
        let ia = cfg.per_type_mean_interarrival(12);
        assert!((ia - 60_000.0 / (34_000.0 / 12.0)).abs() < 1e-9);
        assert!((ia - 21.176).abs() < 0.01);
    }

    #[test]
    fn aggregate_rate_scales_with_oversubscription() {
        let lo = WorkloadConfig { oversubscription: 10_000.0, ..Default::default() };
        let hi = WorkloadConfig { oversubscription: 34_000.0, ..Default::default() };
        assert!(hi.aggregate_arrival_rate(12) > 3.0 * lo.aggregate_arrival_rate(12));
    }

    #[test]
    fn generates_requested_count_sorted_with_sequential_ids() {
        let spec = system();
        let mut rng = SeedSequence::new(1).stream(1);
        let tasks = WorkloadGenerator::new(small_config()).generate(&spec, &mut rng);
        assert_eq!(tasks.len(), 400);
        for (i, w) in tasks.windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "unsorted at {i}");
        }
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
    }

    #[test]
    fn deadlines_follow_slack_formula() {
        let spec = system();
        let mut rng = SeedSequence::new(2).stream(0);
        let cfg = WorkloadConfig { slack_beta: 1.5, ..small_config() };
        let tasks = WorkloadGenerator::new(cfg).generate(&spec, &mut rng);
        let avg_all = spec.truth.grand_mean();
        for t in &tasks {
            let avg_i = spec.truth.mean_over_machines(t.type_id);
            let want = t.arrival + (avg_i + 1.5 * avg_all).round() as Time;
            assert_eq!(t.deadline, want, "task {t:?}");
        }
    }

    #[test]
    fn all_task_types_appear() {
        let spec = system();
        let mut rng = SeedSequence::new(3).stream(0);
        let tasks = WorkloadGenerator::new(small_config()).generate(&spec, &mut rng);
        let types: std::collections::HashSet<_> = tasks.iter().map(|t| t.type_id).collect();
        assert_eq!(types.len(), 12, "all 12 types should appear in 400 tasks");
    }

    #[test]
    fn type_mix_is_roughly_uniform() {
        let spec = system();
        let mut rng = SeedSequence::new(4).stream(0);
        let cfg = WorkloadConfig { num_tasks: 1200, ..small_config() };
        let tasks = WorkloadGenerator::new(cfg).generate(&spec, &mut rng);
        let mut counts = [0usize; 12];
        for t in &tasks {
            counts[t.type_id.index()] += 1;
        }
        for (tt, &c) in counts.iter().enumerate() {
            assert!((60..=140).contains(&c), "type {tt}: {c} of 1200 (expected ~100)");
        }
    }

    #[test]
    fn higher_oversubscription_compresses_arrivals() {
        let spec = system();
        let gen_span = |level: f64| {
            let mut rng = SeedSequence::new(5).stream(0);
            let cfg = WorkloadConfig { oversubscription: level, ..small_config() };
            let tasks = WorkloadGenerator::new(cfg).generate(&spec, &mut rng);
            tasks.last().unwrap().arrival - tasks.first().unwrap().arrival
        };
        let span_19k = gen_span(19_000.0);
        let span_34k = gen_span(34_000.0);
        assert!(
            span_34k < span_19k,
            "34k arrivals ({span_34k}) should be denser than 19k ({span_19k})"
        );
    }

    #[test]
    fn deterministic_given_stream() {
        let spec = system();
        let mut a = SeedSequence::new(6).stream(0);
        let mut b = SeedSequence::new(6).stream(0);
        let gen = WorkloadGenerator::new(small_config());
        assert_eq!(gen.generate(&spec, &mut a), gen.generate(&spec, &mut b));
    }

    #[test]
    fn different_streams_differ() {
        let spec = system();
        let mut a = SeedSequence::new(6).stream(0);
        let mut b = SeedSequence::new(6).stream(1);
        let gen = WorkloadGenerator::new(small_config());
        assert_ne!(gen.generate(&spec, &mut a), gen.generate(&spec, &mut b));
    }

    #[test]
    #[should_panic(expected = "num_tasks")]
    fn zero_tasks_rejected() {
        let _ = WorkloadGenerator::new(WorkloadConfig { num_tasks: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "oversubscription")]
    fn bad_oversubscription_rejected() {
        let _ =
            WorkloadGenerator::new(WorkloadConfig { oversubscription: 0.0, ..Default::default() });
    }
}
