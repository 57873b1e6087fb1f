//! PAM — the Pruning-Aware Mapper (§V-D1) — and its fairness-aware
//! extension PAMF (§V-D2).
//!
//! At every mapping event PAM:
//!
//! 1. feeds the deadline misses since the last event into the Eq. 8
//!    oversubscription detector;
//! 2. when the detector's dropping toggle is engaged, runs the pruner's
//!    dropping pass over all machine queues (head first, per-task adjusted
//!    thresholds, re-analysis after every drop);
//! 3. phase 1: for each unmapped task, finds the machine offering the
//!    highest robustness; tasks whose best robustness falls below the
//!    *deferring* threshold are deferred — left in the batch queue for a
//!    future event in the hope of a better match (§V-A);
//! 4. phase 2: among surviving (task, machine) pairs, commits the pair
//!    with the lowest expected completion time, breaking ties by shortest
//!    expected execution time; repeats until queues fill or candidates run
//!    out.
//!
//! Phases 1 and 2 are a policy on the mapping loop MOC runs too
//! ([`TableLoop`]); what PAM adds is the detector, the pruner and the
//! deferring threshold.
//!
//! PAMF additionally maintains a [`SufferageTable`]: task types that keep
//! missing deadlines accumulate sufferage, which *relaxes* (lowers) both
//! pruning thresholds for that type, shielding it from starvation at a
//! small cost in overall robustness (Fig. 6).

use crate::adaptive::AdaptiveController;
use crate::fairness::SufferageTable;
use crate::pruner::{OversubscriptionDetector, Pruner, PruningConfig, TOGGLE_ON};
use crate::scorer::PairScore;
use crate::table_loop::TableLoop;
use hcsim_model::{MachineId, Task, TaskOutcome, TaskTypeId};
use hcsim_sim::snapshot::{ByteReader, ByteWriter, SnapshotError, Wire};
use hcsim_sim::{wire_struct, MapContext, Mapper, MapperInstrumentation};

/// PAM's per-type dropping and deferring thresholds: the configured
/// bases (PAM), relaxed per type by sufferage (PAMF), or the adaptive
/// controller's per-class values ([`PruningConfig::adaptive`], which
/// subsumes the sufferage knob). The detector feed, the drop pass, the
/// table's bound pass and the phase reduction all read this one view.
#[derive(Debug)]
struct Thresholds {
    drop: f64,
    defer: f64,
    fair: bool,
    source: ThresholdSource,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per mapper, read on every row
enum ThresholdSource {
    Static,
    Sufferage(SufferageTable),
    Adaptive(AdaptiveController),
}

impl Thresholds {
    fn new(config: &PruningConfig, fair: bool) -> Self {
        let (drop, defer) = (config.drop_threshold, config.defer_threshold);
        Self { drop, defer, fair, source: ThresholdSource::Static }
    }

    /// Sizes the moving source to the spec's task types at the first
    /// mapping event, keeping one `restore_state` seated before it.
    fn size(&mut self, config: &PruningConfig, num_types: usize) {
        match (&self.source, config.adaptive) {
            (ThresholdSource::Adaptive(_), _) => {}
            (_, Some(_)) => {
                let controller = AdaptiveController::new(num_types, self.drop, self.defer);
                self.source = ThresholdSource::Adaptive(controller);
            }
            (ThresholdSource::Static, None) if self.fair => {
                let table = SufferageTable::new(num_types, config.fairness_factor);
                self.source = ThresholdSource::Sufferage(table);
            }
            _ => {}
        }
    }

    /// Seats the moving state a snapshot carried (the controller wins
    /// where a blob holds both).
    fn restore(&mut self, sufferage: Option<SufferageTable>, adaptive: Option<AdaptiveController>) {
        self.source = match (sufferage, adaptive) {
            (_, Some(a)) => ThresholdSource::Adaptive(a),
            (Some(s), None) => ThresholdSource::Sufferage(s),
            (None, None) => ThresholdSource::Static,
        };
    }

    fn select(
        &self,
        tt: TaskTypeId,
        base: f64,
        controller: fn(&AdaptiveController, TaskTypeId) -> f64,
    ) -> f64 {
        match &self.source {
            ThresholdSource::Static => base,
            ThresholdSource::Sufferage(s) => s.relax(tt, base),
            ThresholdSource::Adaptive(a) => controller(a, tt),
        }
    }

    fn drop(&self, tt: TaskTypeId) -> f64 {
        self.select(tt, self.drop, AdaptiveController::drop_threshold_for)
    }

    fn defer(&self, tt: TaskTypeId) -> f64 {
        self.select(tt, self.defer, AdaptiveController::defer_threshold_for)
    }

    /// Feeds the detector forward into the controller; returns whether
    /// it sits in deep calm.
    fn set_pressure(&mut self, engaged: bool, level_ratio: f64) -> bool {
        match &mut self.source {
            ThresholdSource::Adaptive(a) => {
                a.set_pressure(engaged, level_ratio);
                a.deep_calm()
            }
            _ => false,
        }
    }

    fn observe(&mut self, task: &Task, outcome: TaskOutcome) {
        match &mut self.source {
            ThresholdSource::Static => {}
            ThresholdSource::Sufferage(s) => s.on_task_finished(task.type_id, outcome.is_success()),
            ThresholdSource::Adaptive(a) => {
                a.observe(task.type_id, outcome);
            }
        }
    }

    fn adaptive(&self) -> Option<&AdaptiveController> {
        match &self.source {
            ThresholdSource::Adaptive(a) => Some(a),
            _ => None,
        }
    }
}

/// The pruning-aware mapper (PAM), optionally with PAMF fairness.
#[derive(Debug)]
pub struct Pam {
    config: PruningConfig,
    detector: OversubscriptionDetector,
    pruner: Pruner,
    table_loop: TableLoop,
    thresholds: Thresholds,
    instr: MapperInstrumentation,
}

impl Pam {
    /// Plain PAM.
    #[must_use]
    pub fn new(config: PruningConfig) -> Self {
        config.validate();
        Self {
            config,
            detector: OversubscriptionDetector::new(&config),
            pruner: Pruner::new(config),
            table_loop: TableLoop::new(config.impulse_budget, config.batch_window, config.threads),
            thresholds: Thresholds::new(&config, false),
            instr: MapperInstrumentation::default(),
        }
    }

    /// PAMF: PAM with per-type sufferage using `config.fairness_factor`.
    /// The table is sized lazily at the first mapping event.
    #[must_use]
    pub fn with_fairness(config: PruningConfig) -> Self {
        Self { thresholds: Thresholds::new(&config, true), ..Self::new(config) }
    }

    /// Current oversubscription level d_τ (for instrumentation).
    #[must_use]
    pub fn oversubscription_level(&self) -> f64 {
        self.detector.level()
    }

    /// True while the dropping toggle is engaged.
    #[must_use]
    pub fn dropping_engaged(&self) -> bool {
        self.detector.dropping_engaged()
    }

    /// The adaptive controller, when threshold adaptation is on.
    #[must_use]
    pub fn adaptive(&self) -> Option<&AdaptiveController> {
        self.thresholds.adaptive()
    }
}

impl Mapper for Pam {
    fn name(&self) -> &str {
        if self.thresholds.fair {
            "PAMF"
        } else {
            "PAM"
        }
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        self.thresholds.size(&self.config, ctx.spec().num_task_types());
        let scorer = self.table_loop.start_event(ctx);

        // Aggression control (§V-C).
        let was_engaged = self.detector.dropping_engaged();
        self.detector.observe(ctx.missed_since_last());
        self.instr.mapping_events += 1;
        if self.detector.dropping_engaged() != was_engaged {
            self.instr.toggle_transitions += 1;
        }
        // Feed-forward: the detector leads the outcome window by the width
        // of a task lifetime, so the controller learns about a storm here,
        // not when its casualties finish. A flip moves both thresholds at
        // once; the score table rechecks its skipped rows against the
        // thresholds of the event it serves (`ScoreTable::ensure`).
        let ratio = self.detector.level() / TOGGLE_ON;
        if self.thresholds.set_pressure(self.detector.dropping_engaged(), ratio) {
            self.instr.events_deep_calm += 1;
        }
        let thresholds = &self.thresholds;
        if self.detector.dropping_engaged() {
            self.instr.events_dropping_engaged += 1;
            self.instr.pruner_drops +=
                self.pruner.drop_pass(ctx, scorer, &|tt| thresholds.drop(tt)) as u64;
        }

        // Phase 1 + deferral: each row's best machine, kept only above the
        // row's (possibly relaxed) defer threshold — the bound pass's skip
        // threshold too, so a row it leaves unscored is one deferred here
        // anyway; phase 2: minimum expected completion, tie → shortest
        // expected execution time. Rows of one (type, deadline) class get
        // the same best and the same threshold, and phase 2 keeps the
        // earliest of equal candidates, so only each class's head can win.
        let skip_below = |tt| thresholds.defer(tt);
        let reused = self.table_loop.map(ctx, &skip_below, |table, _, ctx, window| {
            let mut chosen: Option<(usize, MachineId, PairScore)> = None;
            for row in (0..window).filter(|&row| table.is_head(row)) {
                let task = ctx.batch()[row];
                let Some((machine, score)) = table.best_for_row(ctx.machines(), row) else {
                    continue;
                };
                if score.robustness < thresholds.defer(task.type_id) {
                    continue; // deferred: stays in the batch queue
                }
                if chosen.is_none_or(|(_, _, b)| {
                    score.expected_completion < b.expected_completion
                        || (score.expected_completion == b.expected_completion
                            && score.mean_exec < b.mean_exec)
                }) {
                    chosen = Some((row, machine, score));
                }
            }
            chosen.map(|(row, machine, _)| (row, machine))
        });
        self.instr.table_reuses += u64::from(reused);
    }

    fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
        // Either update may move the skip thresholds between events; the
        // score table revalidates against them row by row.
        self.thresholds.observe(task, outcome);
    }

    fn instrumentation(&self) -> Option<MapperInstrumentation> {
        Some(self.instr)
    }

    fn snapshot_state(&self) -> Vec<u8> {
        // History-dependent state only: detector level/toggle, sufferage
        // vector, instrumentation counters, adaptive-controller state. The
        // scorer and score table are pure caches — decision-identical when
        // rebuilt cold — so they are deliberately not captured (only
        // `table_reuses` may then diverge after a restore, and it feeds no
        // report field).
        let sufferage = match &self.thresholds.source {
            ThresholdSource::Sufferage(s) => Some(s.values().to_vec()),
            _ => None,
        };
        let state = PamState {
            level: self.detector.level(),
            engaged: self.detector.dropping_engaged(),
            sufferage,
            instr: self.instr,
            adaptive: self.thresholds.adaptive().map(AdaptiveController::state_bytes),
        };
        let mut w = ByteWriter::with_capacity(96);
        state.put(&mut w);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return; // fresh mapper: nothing to restore
        }
        // The trait returns `()`, so a malformed blob can only panic — with
        // one message, after the whole blob decoded and before anything
        // here changed.
        let (state, adaptive) =
            self.decode_state(bytes).unwrap_or_else(|e| panic!("corrupt PAM state blob: {e}"));
        self.detector.restore(state.level, state.engaged);
        let factor = self.config.fairness_factor;
        let sufferage = state.sufferage.map(|values| SufferageTable::from_values(values, factor));
        self.thresholds.restore(sufferage, adaptive);
        self.instr = state.instr;
        self.table_loop.restore();
    }

    fn on_shutdown(&mut self) {
        self.table_loop.shutdown();
    }
}

wire_struct! {
    /// A `snapshot_state` blob, held apart from the mapper until the whole
    /// blob proved well-formed. It carries no version of its own: it only
    /// travels inside an engine snapshot, whose `SNAPSHOT_VERSION` covers
    /// it.
    struct PamState {
        level: f64,
        engaged: bool,
        sufferage: Option<Vec<f64>>,
        instr: MapperInstrumentation,
        /// The controller's own `state_bytes`.
        adaptive: Option<Vec<u8>>,
    }
}

impl Pam {
    /// Decodes a whole blob, the controller's section included.
    fn decode_state(
        &self,
        bytes: &[u8],
    ) -> Result<(PamState, Option<AdaptiveController>), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let state = PamState::get(&mut r)?;
        r.end("trailing bytes after PAM state")?;
        let adaptive = match &state.adaptive {
            Some(bytes) => {
                let mut controller = AdaptiveController::new(
                    0, // class table is overwritten by the state below
                    self.config.drop_threshold,
                    self.config.defer_threshold,
                );
                controller.restore_state(bytes)?;
                Some(controller)
            }
            None => None,
        };
        Ok((state, adaptive))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{MachineSpec, PetBuilder, PriceTable, SystemSpec, TaskId, TaskTypeSpec};
    use hcsim_sim::{run_simulation, SimConfig, SimReport};
    use hcsim_stats::SeedSequence;
    use hcsim_workload::{specint_system, WorkloadConfig, WorkloadGenerator};

    /// PAM on the 8-machine paper system, checked after every event to
    /// still be on the calling thread: the system sits below the fan-out
    /// floor, whatever `threads` resolves to on this host.
    struct NoPool(Pam);

    impl Mapper for NoPool {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
            self.0.on_mapping_event(ctx);
            let scorer = self.0.table_loop.scorer.as_ref().expect("built by the first event");
            assert!(!scorer.pool_active(), "pool built on an 8-machine system");
        }
        fn on_task_finished(&mut self, task: &Task, outcome: TaskOutcome) {
            self.0.on_task_finished(task, outcome);
        }
    }

    fn oversubscribed_report(kind: &str, oversub: f64, seed: u64) -> SimReport {
        report_with(kind, PruningConfig::default(), oversub, seed)
    }

    fn report_with(kind: &str, cfg: PruningConfig, oversub: f64, seed: u64) -> SimReport {
        let seeds = SeedSequence::new(seed);
        let spec = specint_system(6, &mut seeds.stream(0));
        assert_eq!(spec.num_machines(), 8);
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 250,
            oversubscription: oversub,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let mut rng = seeds.stream(2);
        let config = SimConfig { trim: 25, ..SimConfig::default() };
        match kind {
            "PAM" => {
                let mut m = NoPool(Pam::new(cfg));
                run_simulation(&spec, config, &tasks, &mut m, &mut rng)
            }
            "PAMF" => {
                let mut m = NoPool(Pam::with_fairness(cfg));
                run_simulation(&spec, config, &tasks, &mut m, &mut rng)
            }
            "MM" => {
                let mut m = crate::ScalarMapper::mm();
                run_simulation(&spec, config, &tasks, &mut m, &mut rng)
            }
            other => panic!("unknown {other}"),
        }
    }

    #[test]
    fn pam_names() {
        assert_eq!(Pam::new(PruningConfig::default()).name(), "PAM");
        assert_eq!(Pam::with_fairness(PruningConfig::default()).name(), "PAMF");
    }

    #[test]
    fn pam_runs_and_completes_all_records() {
        let report = oversubscribed_report("PAM", 19_000.0, 42);
        assert_eq!(report.records.len(), 250);
        assert_eq!(report.metrics.outcomes.total(), report.metrics.counted);
        assert!(report.metrics.pct_on_time > 0.0, "{:?}", report.metrics.outcomes);
    }

    #[test]
    fn default_threads_on_the_paper_system_stays_on_the_calling_thread() {
        // `threads: 0` — what every figure, example and integration test
        // runs — resolves to the host's parallelism, but must decide
        // exactly like `threads: 1` (and, per `NoPool`, never build a
        // pool), drop passes included.
        assert_eq!(PruningConfig::default().threads, 0);
        let one = PruningConfig { threads: 1, ..PruningConfig::default() };
        let auto = oversubscribed_report("PAM", 34_000.0, 44);
        assert!(auto.metrics.outcomes.pruned > 0, "drop passes must have run too");
        assert_eq!(format!("{auto:?}"), format!("{:?}", report_with("PAM", one, 34_000.0, 44)));
    }

    #[test]
    fn pam_prunes_under_oversubscription() {
        let report = oversubscribed_report("PAM", 34_000.0, 43);
        // The dropping toggle must have engaged and removed tasks.
        let pruned_total: usize = report
            .records
            .iter()
            .filter(|r| r.outcome == hcsim_model::TaskOutcome::PrunedDropped)
            .count();
        assert!(pruned_total > 0, "PAM never engaged dropping: {:?}", report.metrics.outcomes);
    }

    #[test]
    fn pam_beats_mm_under_heavy_oversubscription() {
        // The paper's headline claim (Fig. 7): probabilistic pruning
        // substantially outperforms MinMin when oversubscribed.
        let mut pam_wins = 0;
        for seed in [101, 202, 303] {
            let pam = oversubscribed_report("PAM", 34_000.0, seed);
            let mm = oversubscribed_report("MM", 34_000.0, seed);
            if pam.metrics.pct_on_time > mm.metrics.pct_on_time {
                pam_wins += 1;
            }
        }
        assert!(pam_wins >= 2, "PAM won only {pam_wins}/3 trials against MM");
    }

    #[test]
    fn pamf_reduces_type_variance_vs_pam() {
        // Fig. 6: fairness trades a little robustness for a lower variance
        // of per-type completion percentages. Averaged over seeds to damp
        // noise.
        let mut pam_var = 0.0;
        let mut pamf_var = 0.0;
        for seed in [11, 22, 33, 44] {
            pam_var += oversubscribed_report("PAM", 34_000.0, seed).metrics.type_variance;
            pamf_var += oversubscribed_report("PAMF", 34_000.0, seed).metrics.type_variance;
        }
        assert!(
            pamf_var < pam_var,
            "PAMF variance {pamf_var} should undercut PAM variance {pam_var}"
        );
    }

    #[test]
    fn pam_defers_hopeless_tasks_when_not_oversubscribed() {
        // A single machine, one task whose deadline is far too tight:
        // phase 1 robustness < defer threshold → never mapped, expires in
        // the batch queue (not evicted mid-queue, simply deferred).
        let mut rng = SeedSequence::new(50).stream(0);
        let (pet, truth) = PetBuilder::new().shape_range(6.0, 6.0).build(&[vec![100.0]], &mut rng);
        let spec = SystemSpec {
            machines: vec![MachineSpec { name: "m".into() }],
            task_types: vec![TaskTypeSpec { name: "t".into() }],
            pet,
            truth,
            prices: PriceTable::uniform(1, 1.0),
            queue_capacity: 6,
            coldstart: None,
        }
        .validated();
        let tasks = vec![Task {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            arrival: 0,
            deadline: 10, // mean exec is 100: robustness ≈ 0
        }];
        let mut mapper = Pam::new(PruningConfig::default());
        let mut rng2 = SeedSequence::new(51).stream(0);
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng2);
        assert_eq!(report.records[0].outcome, hcsim_model::TaskOutcome::ExpiredUnstarted);
        assert!(report.records[0].machine.is_none(), "task must never have been mapped");
        assert_eq!(report.total_cost, 0.0, "no machine time wasted on a hopeless task");
    }

    #[test]
    fn pam_maps_confident_tasks_immediately() {
        let mut rng = SeedSequence::new(52).stream(0);
        let (pet, truth) = PetBuilder::new().shape_range(6.0, 6.0).build(&[vec![20.0]], &mut rng);
        let spec = SystemSpec {
            machines: vec![MachineSpec { name: "m".into() }],
            task_types: vec![TaskTypeSpec { name: "t".into() }],
            pet,
            truth,
            prices: PriceTable::uniform(1, 1.0),
            queue_capacity: 6,
            coldstart: None,
        }
        .validated();
        let tasks = vec![Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 500 }];
        let mut mapper = Pam::new(PruningConfig::default());
        let mut rng2 = SeedSequence::new(53).stream(0);
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng2);
        assert_eq!(report.metrics.outcomes.on_time, 1);
    }

    #[test]
    fn a_class_commits_its_earliest_row_first() {
        // Three requests of one (type, deadline) class, one queue slot:
        // every event can commit one of them, they tie on every score,
        // and phase 2 keeps the earliest — so they run in batch order.
        let mut rng = SeedSequence::new(54).stream(0);
        let (pet, truth) = PetBuilder::new().shape_range(6.0, 6.0).build(&[vec![20.0]], &mut rng);
        let spec = SystemSpec {
            machines: vec![MachineSpec { name: "m".into() }],
            task_types: vec![TaskTypeSpec { name: "t".into() }],
            pet,
            truth,
            prices: PriceTable::uniform(1, 1.0),
            queue_capacity: 1,
            coldstart: None,
        }
        .validated();
        let tasks: Vec<Task> = (0..3)
            .map(|i| Task { id: TaskId(i), type_id: TaskTypeId(0), arrival: 0, deadline: 500 })
            .collect();
        let mut mapper = Pam::new(PruningConfig::default());
        let mut rng2 = SeedSequence::new(55).stream(0);
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng2);
        let mut started: Vec<_> =
            report.records.iter().map(|r| (r.started_at, r.task.id)).collect();
        started.sort();
        let order: Vec<u32> = started.iter().map(|(_, id)| id.0).collect();
        assert_eq!(order, [0, 1, 2], "{started:?}");
    }

    #[test]
    fn detector_is_exposed_for_instrumentation() {
        let pam = Pam::new(PruningConfig::default());
        assert_eq!(pam.oversubscription_level(), 0.0);
        assert!(!pam.dropping_engaged());
    }

    #[test]
    fn pam_snapshot_roundtrip_is_bit_identical() {
        // Mid-run snapshot of the full stack (engine + PAM/PAMF history
        // state), restored into a *fresh* mapper and an unrelated-seed rng,
        // must finish with a byte-for-byte identical report. Heavy
        // oversubscription so the detector has engaged and (for PAMF)
        // sufferage values have drifted by the snapshot point. The
        // ADAPTIVE variant additionally requires the controller's window
        // counters, deltas, and per-class relief to survive the blob.
        for kind in ["PAM", "PAMF", "ADAPTIVE"] {
            let seeds = SeedSequence::new(77);
            let spec = specint_system(6, &mut seeds.stream(0));
            let gen = WorkloadGenerator::new(WorkloadConfig {
                num_tasks: 250,
                oversubscription: 34_000.0,
                ..Default::default()
            });
            let tasks = gen.generate(&spec, &mut seeds.stream(1));
            let config = SimConfig { trim: 25, ..SimConfig::default() };
            let make_mapper = || match kind {
                "PAM" => Pam::new(PruningConfig::default()),
                "ADAPTIVE" => Pam::new(PruningConfig {
                    adaptive: Some(crate::AdaptiveConfig),
                    ..PruningConfig::default()
                }),
                _ => Pam::with_fairness(PruningConfig::default()),
            };

            // Uninterrupted reference run.
            let mut baseline_mapper = make_mapper();
            let mut baseline_rng = seeds.stream(2);
            let mut source = hcsim_sim::TaskTraceSource::new(&tasks);
            let baseline = hcsim_sim::SimSession::new(
                &spec,
                config,
                &mut [&mut source],
                &mut baseline_mapper,
                &mut baseline_rng,
            )
            .run_to_completion();

            // Interrupted run: step partway, snapshot, abandon, restore.
            let mut first_mapper = make_mapper();
            let mut first_rng = seeds.stream(2);
            let mut source = hcsim_sim::TaskTraceSource::new(&tasks);
            let mut session = hcsim_sim::SimSession::new(
                &spec,
                config,
                &mut [&mut source],
                &mut first_mapper,
                &mut first_rng,
            );
            for _ in 0..150 {
                assert!(session.step(), "run ended before the snapshot point");
            }
            let bytes = session.snapshot();
            drop(session);

            let mut restored_mapper = make_mapper();
            let mut restored_rng = seeds.stream(9); // overwritten by restore
            let resumed = hcsim_sim::SimSession::restore(
                &spec,
                config,
                &bytes,
                &mut restored_mapper,
                &mut restored_rng,
            )
            .unwrap_or_else(|e| panic!("{kind} restore failed: {e}"))
            .run_to_completion();

            assert_eq!(
                format!("{baseline:?}"),
                format!("{resumed:?}"),
                "{kind} resumed run diverged from the uninterrupted baseline"
            );
        }
    }

    #[test]
    fn restore_state_drops_chains_keyed_on_the_abandoned_timeline() {
        crate::scorer::test_support::assert_restore_drops_abandoned_chains(
            &mut Pam::new(PruningConfig::default()),
            |pam| pam.table_loop.scorer.as_mut().expect("built at the first mapping event"),
        );
    }

    #[test]
    fn restore_into_live_pam_decides_like_a_fresh_one() {
        // A service restores its checkpoint into the mapper it already
        // has: same prefix, snapshot mid-flight, the first timeline
        // abandoned a few events, many events, or a whole run later, then
        // a continuation that arrives at the same instants but differs in
        // type and deadline. The live mapper must decide exactly like a
        // fresh one restored from the same bytes.
        let seeds = SeedSequence::new(91);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 250,
            oversubscription: 34_000.0,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let (prefix, abandoned) = tasks.split_at(120);
        let types = spec.num_task_types() as u16;
        let continuation: Vec<Task> = abandoned
            .iter()
            .map(|t| Task {
                type_id: TaskTypeId((t.type_id.0 + 1) % types),
                deadline: t.deadline + 40,
                ..*t
            })
            .collect();
        let config = SimConfig::untrimmed();

        for abandoned_steps in [4, 40, usize::MAX] {
            let mut live = Pam::new(PruningConfig::default());
            let mut rng = seeds.stream(2);
            let mut session =
                hcsim_sim::SimSession::new(&spec, config, &mut [], &mut live, &mut rng);
            for task in prefix {
                session.inject_arrival(*task);
            }
            for _ in 0..150 {
                assert!(session.step(), "prefix drained before the snapshot point");
            }
            let bytes = session.snapshot();
            for task in abandoned {
                session.inject_arrival(*task);
            }
            for _ in 0..abandoned_steps {
                if !session.step() {
                    break;
                }
            }
            drop(session);

            let resume = |mapper: &mut Pam| {
                let mut rng = seeds.stream(9); // overwritten by restore
                let mut session =
                    hcsim_sim::SimSession::restore(&spec, config, &bytes, mapper, &mut rng)
                        .expect("snapshot restores");
                for task in &continuation {
                    session.inject_arrival(*task);
                }
                format!("{:?}", session.run_to_completion())
            };
            let fresh = resume(&mut Pam::new(PruningConfig::default()));
            assert_eq!(
                resume(&mut live),
                fresh,
                "abandoned after {abandoned_steps} steps: live restore diverged from a fresh mapper"
            );
        }
    }

    #[test]
    fn adaptive_state_survives_blob_roundtrip() {
        // Drive an adaptive PAM through an oversubscribed run so the
        // controller has adjusted at least once, then round-trip its state
        // through the blob into a fresh mapper.
        let seeds = SeedSequence::new(88);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 250,
            oversubscription: 34_000.0,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let cfg =
            PruningConfig { adaptive: Some(crate::AdaptiveConfig), ..PruningConfig::default() };
        let mut mapper = Pam::new(cfg);
        let mut rng = seeds.stream(2);
        let _ = run_simulation(
            &spec,
            SimConfig { trim: 25, ..SimConfig::default() },
            &tasks,
            &mut mapper,
            &mut rng,
        );
        let controller = mapper.adaptive().expect("controller must have been built").clone();
        assert!(controller.adjustments() > 0, "250 tasks must cross at least one window");

        let blob = mapper.snapshot_state();
        let mut fresh = Pam::new(cfg);
        fresh.restore_state(&blob);
        assert_eq!(fresh.adaptive(), Some(&controller));
    }

    #[test]
    fn corrupt_blobs_fail_with_the_one_named_panic() {
        // The trait gives `restore_state` no way to return an error, so
        // what a malformed blob may do is pinned instead: one panic
        // message, and a mapper left exactly as it was.
        let seeds = SeedSequence::new(89);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 60,
            oversubscription: 34_000.0,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let cfg =
            PruningConfig { adaptive: Some(crate::AdaptiveConfig), ..PruningConfig::default() };
        let mut mapper = Pam::new(cfg);
        let _ = run_simulation(
            &spec,
            SimConfig::untrimmed(),
            &tasks,
            &mut mapper,
            &mut seeds.stream(2),
        );
        assert!(mapper.adaptive().is_some(), "the blob must carry a controller section");
        let blob = mapper.snapshot_state();

        let mut fresh = Pam::new(cfg);
        let untouched = fresh.snapshot_state();
        let mut assert_named_panic = |bytes: &[u8], what: &str| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fresh.restore_state(bytes);
            }));
            let payload = caught.expect_err(what);
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.starts_with("corrupt PAM state blob: "), "{what}: {message}");
            assert_eq!(fresh.snapshot_state(), untouched, "{what}: a failed restore wrote state");
        };

        // Every strict prefix (the empty one means "fresh mapper").
        for cut in 1..blob.len() {
            assert_named_panic(&blob[..cut], &format!("prefix of {cut} bytes"));
        }
        // The controller's class count — 8 bytes ahead of its class rows
        // and its 10 trailing bytes — claiming more rows than any buffer
        // holds: rejected by the length check, not by an allocation.
        let count_at = blob.len() - 10 - 24 * spec.num_task_types() - 8;
        let mut absurd = blob.clone();
        assert_eq!(absurd[count_at], spec.num_task_types() as u8, "offset names the class count");
        absurd[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_named_panic(&absurd, "class count u64::MAX");

        fresh.restore_state(&blob);
        assert_eq!(fresh.snapshot_state(), blob, "the intact blob still restores");
    }

    #[test]
    fn pam_shutdown_is_safe_before_and_after_init() {
        let mut pam = Pam::new(PruningConfig::default());
        pam.on_shutdown(); // no scorer yet: must be a no-op
        let _ = oversubscribed_report("PAM", 19_000.0, 7); // sanity anchor
        let seeds = SeedSequence::new(8);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 60,
            oversubscription: 19_000.0,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        let mut rng = seeds.stream(2);
        let _ = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut pam, &mut rng);
        pam.on_shutdown();
        pam.on_shutdown(); // idempotent
    }
}
