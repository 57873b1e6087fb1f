//! Measuring the mapper from outside: a transparent [`Mapper`] wrapper
//! that times the real decision, and — in the traced pass only — a shadow
//! scorer and score table owned by the benchmark that are fed the live
//! machine states and batch read-only before each real decision, so the
//! tail-cache, table and convolution layers are timed on real operands
//! without touching program source.

use crate::trace::{ns_since, SpanName, Tracer};
use hcsim_core::{ProbScorer, PruningConfig, ScoreTable};
use hcsim_model::{PetMatrix, SystemSpec, Task, TaskOutcome, TaskTypeId};
use hcsim_pmf::{convolve_into, queue_step_into, ConvScratch, DropPolicy, Pmf};
use hcsim_sim::{MapContext, Mapper, MapperInstrumentation};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// A cold (freshly constructed) scorer is probed on every 16th event on
/// the paper's 8 machines, and proportionally less often on clusters:
/// constructing one costs O(machines × task types) and is far dearer than
/// the warm-up it times.
fn cold_probe_every(machines: usize) -> u64 {
    16 * (machines as u64 / 32).max(1)
}

/// Totals accumulated by the traced wrapper and its shadow probes over the
/// traced trials.
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// Batch length at every real mapping event (every workload).
    pub batch_len_sum: u64,
    pub batch_len_max: usize,
    /// Events the shadow observed (probabilistic workloads only).
    pub events: u64,
    pub warm_ns: u64,
    pub cold_probes: u64,
    pub cold_ns: u64,
    pub table_calls: u64,
    pub rebuild_ns: u64,
    pub ensure_reused: u64,
    pub ensure_ns: u64,
    pub reduce_ns: u64,
    pub rows_sum: u64,
    pub pmf_probes: u64,
    pub queue_step_ns: u64,
    pub convolve_ns: u64,
    pub compact_ns: u64,
    pub tail_lens: Vec<u32>,
}

/// The benchmark's own scorer + table, mirroring what PAM keeps. Built
/// fresh per trial (cache validity is keyed on per-run machine versions).
pub struct Shadow<'a> {
    spec: &'a SystemSpec,
    cold_pet: Option<&'a PetMatrix>,
    policy: DropPolicy,
    config: PruningConfig,
    scorer: ProbScorer,
    table: ScoreTable,
    scratch: ConvScratch,
    tail: Pmf,
}

impl<'a> Shadow<'a> {
    pub fn new(spec: &'a SystemSpec, cold_pet: Option<&'a PetMatrix>, policy: DropPolicy) -> Self {
        let config = PruningConfig::default();
        Self {
            spec,
            cold_pet,
            policy,
            config,
            scorer: ProbScorer::with_cold(&spec.pet, cold_pet, policy, config.impulse_budget),
            table: ScoreTable::new(),
            scratch: ConvScratch::new(),
            tail: Pmf::delta(0),
        }
    }

    /// Runs every probe against the state the real mapper is about to
    /// decide on. Takes the context by shared reference: the probes cannot
    /// assign, drop or evict, so they are decision-neutral by construction
    /// (and the traced-vs-untraced digest check verifies it).
    fn observe(&mut self, ctx: &MapContext<'_>, stats: &mut ProbeStats) {
        let machines = ctx.machines();
        let (now, epoch) = (ctx.now(), ctx.membership_epoch());
        let budget = self.config.impulse_budget;

        // Tail-cache maintenance on the persistent (warm) shadow.
        let t = Instant::now();
        self.scorer.begin_event(now);
        self.scorer.sync_membership(epoch, machines);
        self.scorer.warm_caches(machines, false);
        stats.warm_ns += ns_since(t);

        // The same maintenance from nothing: what the cache saves.
        if stats.events.is_multiple_of(cold_probe_every(machines.len())) {
            let mut fresh =
                ProbScorer::with_cold(&self.spec.pet, self.cold_pet, self.policy, budget);
            let t = Instant::now();
            fresh.begin_event(now);
            fresh.sync_membership(epoch, machines);
            fresh.warm_caches(machines, false);
            stats.cold_ns += ns_since(t);
            stats.cold_probes += 1;
        }
        stats.events += 1;

        // Score table over the batch window, under PAM's own entry
        // conditions and static deferring threshold.
        let window = self.config.batch_window.min(ctx.batch().len());
        if window > 0 && ctx.total_free_slots() > 0 {
            let defer = self.config.defer_threshold;
            let skip_below = move |_: TaskTypeId| defer;
            let rows = &ctx.batch()[..window];
            let t = Instant::now();
            let reused = self.table.ensure(&mut self.scorer, machines, rows, &skip_below);
            let dt = ns_since(t);
            stats.table_calls += 1;
            if reused {
                stats.ensure_reused += 1;
                stats.ensure_ns += dt;
            } else {
                stats.rebuild_ns += dt;
            }
            let t = Instant::now();
            for row in 0..window {
                black_box(self.table.best_for_row(machines, row));
            }
            stats.reduce_ns += ns_since(t);
            stats.rows_sum += self.table.rows() as u64;
        }

        // PMF calculus on one live tail × the batch head's PET cell,
        // walking the machines round-robin.
        if let Some(head) = ctx.batch().first() {
            let machine = &machines[(stats.events % machines.len() as u64) as usize];
            self.scorer.tail_into(machine, &mut self.tail);
            let exec = self.spec.pet.pmf(head.type_id, machine.id());
            stats.tail_lens.push(u32::try_from(self.tail.len()).unwrap_or(u32::MAX));
            let t = Instant::now();
            let step =
                queue_step_into(&self.tail, exec, head.deadline, self.policy, &mut self.scratch);
            stats.queue_step_ns += ns_since(t);
            black_box(&step);
            step.recycle_into(&mut self.scratch);
            let t = Instant::now();
            let mut product = convolve_into(&self.tail, exec, &mut self.scratch);
            stats.convolve_ns += ns_since(t);
            let t = Instant::now();
            product.compact(budget);
            stats.compact_ns += ns_since(t);
            black_box(&product);
            self.scratch.recycle(product);
            stats.pmf_probes += 1;
        }
    }
}

/// What the traced pass adds to the wrapper.
pub struct Tracing<'a> {
    pub tracer: &'a RefCell<Tracer>,
    pub stats: &'a RefCell<ProbeStats>,
    /// `None` on workloads whose mapper never touches a PMF.
    pub shadow: Option<Shadow<'a>>,
}

/// Forwards every [`Mapper`] method to the real mapper unchanged. Untraced,
/// it adds exactly two clock reads per mapping event (the load generator's
/// stopwatch) and one pushed sample.
pub struct TimedMapper<'a> {
    inner: Box<dyn Mapper>,
    /// Nanoseconds inside the real `on_mapping_event`, one per event.
    decide_ns: &'a mut Vec<u32>,
    tracing: Option<Tracing<'a>>,
}

impl<'a> TimedMapper<'a> {
    pub fn new(
        inner: Box<dyn Mapper>,
        decide_ns: &'a mut Vec<u32>,
        tracing: Option<Tracing<'a>>,
    ) -> Self {
        Self { inner, decide_ns, tracing }
    }
}

impl Mapper for TimedMapper<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        let Some(tracing) = &mut self.tracing else {
            let t = Instant::now();
            self.inner.on_mapping_event(ctx);
            self.decide_ns.push(u32::try_from(ns_since(t)).unwrap_or(u32::MAX));
            return;
        };
        {
            let stats = &mut *tracing.stats.borrow_mut();
            stats.batch_len_sum += ctx.batch().len() as u64;
            stats.batch_len_max = stats.batch_len_max.max(ctx.batch().len());
            if let Some(shadow) = &mut tracing.shadow {
                let id = tracing.tracer.borrow_mut().open(SpanName::Probe);
                shadow.observe(ctx, stats);
                tracing.tracer.borrow_mut().close(id);
            }
        }
        let id = tracing.tracer.borrow_mut().open(SpanName::MapEvent);
        self.inner.on_mapping_event(ctx);
        tracing.tracer.borrow_mut().close(id);
    }

    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        let Some(tracing) = &self.tracing else {
            return self.inner.on_task_finished(task, outcome);
        };
        let id = tracing.tracer.borrow_mut().open(SpanName::TaskFinished);
        self.inner.on_task_finished(task, outcome);
        tracing.tracer.borrow_mut().close(id);
    }

    fn instrumentation(&self) -> Option<MapperInstrumentation> {
        self.inner.instrumentation()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes);
    }

    fn on_shutdown(&mut self) {
        self.inner.on_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::TaskId;
    use std::sync::{Arc, Mutex};

    /// Records every call it receives.
    struct Recording(Arc<Mutex<Vec<String>>>);

    impl Recording {
        fn log(&self, s: String) {
            self.0.lock().unwrap().push(s);
        }
    }

    impl Mapper for Recording {
        fn name(&self) -> &str {
            "recording"
        }
        fn on_mapping_event(&mut self, _ctx: &mut MapContext<'_>) {}
        fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
            self.log(format!("finished {} {outcome:?}", task.id.0));
        }
        fn instrumentation(&self) -> Option<MapperInstrumentation> {
            Some(MapperInstrumentation { mapping_events: 7, pruner_drops: 3, ..Default::default() })
        }
        fn snapshot_state(&self) -> Vec<u8> {
            vec![1, 2, 3]
        }
        fn restore_state(&mut self, bytes: &[u8]) {
            self.log(format!("restore {bytes:?}"));
        }
        fn on_shutdown(&mut self) {
            self.log("shutdown".into());
        }
    }

    #[test]
    fn wrapper_forwards_everything_unchanged() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut samples = Vec::new();
        let mut wrapped =
            TimedMapper::new(Box::new(Recording(Arc::clone(&log))), &mut samples, None);
        assert_eq!(wrapped.name(), "recording");
        let instr = wrapped.instrumentation().expect("forwarded");
        assert_eq!((instr.mapping_events, instr.pruner_drops), (7, 3));
        assert_eq!(wrapped.snapshot_state(), vec![1, 2, 3]);
        wrapped.restore_state(&[9, 8]);
        let task = Task { id: TaskId(5), type_id: TaskTypeId(0), arrival: 0, deadline: 10 };
        wrapped.on_task_finished(&task, TaskOutcome::PrunedDropped);
        wrapped.on_shutdown();
        assert_eq!(
            *log.lock().unwrap(),
            vec!["restore [9, 8]", "finished 5 PrunedDropped", "shutdown"]
        );
    }
}
