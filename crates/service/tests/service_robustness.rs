//! Service-mode robustness: crash → restore → resume bit-identity,
//! graceful overload shedding with full accounting, and delivery-fault
//! absorption — the fault-injection acceptance tests.

use hcsim_core::{AdaptiveConfig, Pam, PruningConfig};
use hcsim_model::{SystemSpec, Task, TaskOutcome};
use hcsim_service::{
    bounded, feed_schedule, resume, run_with_recovery, serve, FaultPlan, RecoveryOutcome,
    ServiceCheckpoint, ServiceConfig, ServiceExit,
};
use hcsim_sim::snapshot::{ByteReader, ByteWriter};
use hcsim_sim::{
    ChurnSource, EventSource, Mapper, SimConfig, SimReport, SimSession, TaskTraceSource,
};
use hcsim_stats::{SeedSequence, Xoshiro256pp};
use hcsim_workload::{
    cluster_churn, faas_system, specint_system, ArrivalSchedule, ChurnConfig, ChurnTrace,
    FaasConfig, FaasGenerator, WorkloadConfig, WorkloadGenerator,
};

const RNG_SEED: u64 = 0xFEED;

fn system(seed: u64, num_tasks: usize, oversub: f64) -> (SystemSpec, Vec<Task>) {
    let seeds = SeedSequence::new(seed);
    let spec = specint_system(6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks,
        oversubscription: oversub,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    (spec, tasks)
}

fn churn_for(spec: &SystemSpec, seed: u64) -> ChurnTrace {
    cluster_churn(
        &ChurnConfig {
            num_machines: spec.machines.len(),
            initial_absent: 2,
            drains: 2,
            fails: 2,
            span: 150_000,
            min_active: 4,
        },
        &mut SeedSequence::new(seed).stream(3),
    )
}

fn run(
    spec: &SystemSpec,
    service: &ServiceConfig,
    fault: &FaultPlan,
    churn: Option<&ChurnTrace>,
    schedule: &[(u64, Task)],
) -> RecoveryOutcome {
    run_with_recovery(
        spec,
        SimConfig::untrimmed(),
        service,
        fault,
        churn,
        schedule,
        32,
        || Pam::new(PruningConfig::default()),
        || Xoshiro256pp::new(RNG_SEED),
    )
}

/// The whole-run fingerprint the bit-identity assertions compare.
fn fingerprint(report: &SimReport) -> String {
    format!("{report:?}")
}

#[test]
fn uninterrupted_service_accounts_for_every_task() {
    let (spec, tasks) = system(301, 120, 19_000.0);
    let schedule = ArrivalSchedule::from_tasks(&tasks);
    let outcome =
        run(&spec, &ServiceConfig::default(), &FaultPlan::none(), None, schedule.entries());
    assert_eq!(outcome.killed_at_epoch, None);
    let r = &outcome.report;
    assert_eq!(r.stats.admitted, 120, "no overload: everything admitted");
    assert_eq!(r.stats.shed, 0);
    assert_eq!(r.sim.records.len(), 120, "every task has a terminal record");
}

#[test]
fn crash_restore_resume_is_bit_identical_to_uninterrupted() {
    let (spec, tasks) = system(302, 160, 34_000.0);
    let churn = churn_for(&spec, 302);
    let schedule = ArrivalSchedule::from_tasks(&tasks);
    let service = ServiceConfig::default();

    let baseline = run(&spec, &service, &FaultPlan::none(), Some(&churn), schedule.entries());
    assert_eq!(baseline.killed_at_epoch, None);

    for kill_epoch in [1, 2, 3] {
        let fault = FaultPlan { kill_at_epoch: Some(kill_epoch), ..FaultPlan::none() };
        let recovered = run(&spec, &service, &fault, Some(&churn), schedule.entries());
        assert_eq!(
            recovered.killed_at_epoch,
            Some(kill_epoch),
            "the kill must actually have fired"
        );
        assert_eq!(recovered.report.stats.restores, 1);
        assert!(recovered.restore_nanos.is_some());
        assert_eq!(
            fingerprint(&recovered.report.sim),
            fingerprint(&baseline.report.sim),
            "kill@{kill_epoch}: resumed run must equal never having crashed"
        );
        assert_eq!(recovered.report.stats.admitted, baseline.report.stats.admitted);
        assert_eq!(recovered.report.stats.shed, baseline.report.stats.shed);
    }
}

#[test]
fn crash_restore_with_adaptation_enabled_is_bit_identical() {
    // Same kill-at-epoch matrix, but with the closed-loop controller
    // steering thresholds AND failure-requeued tasks carrying progress:
    // the checkpoint now includes the controller's trims, step schedule,
    // outcome window, and pressure-detector state (the v2 mapper blob)
    // plus the engine's carried-progress table — losing any of it would
    // fork the resumed trajectory.
    let (spec, tasks) = system(308, 160, 34_000.0);
    let churn = churn_for(&spec, 308);
    let schedule = ArrivalSchedule::from_tasks(&tasks);
    let service = ServiceConfig::default();
    let pruning = PruningConfig { adaptive: Some(AdaptiveConfig), ..PruningConfig::default() };
    let sim = SimConfig { carry_progress: true, ..SimConfig::untrimmed() };
    let run_adaptive = |fault: &FaultPlan| {
        run_with_recovery(
            &spec,
            sim,
            &service,
            fault,
            Some(&churn),
            schedule.entries(),
            32,
            || Pam::new(pruning),
            || Xoshiro256pp::new(RNG_SEED),
        )
    };

    let baseline = run_adaptive(&FaultPlan::none());
    assert_eq!(baseline.killed_at_epoch, None);

    for kill_epoch in [1, 2, 3] {
        let fault = FaultPlan { kill_at_epoch: Some(kill_epoch), ..FaultPlan::none() };
        let recovered = run_adaptive(&fault);
        assert_eq!(recovered.killed_at_epoch, Some(kill_epoch), "the kill must actually fire");
        assert_eq!(recovered.report.stats.restores, 1);
        assert_eq!(
            fingerprint(&recovered.report.sim),
            fingerprint(&baseline.report.sim),
            "kill@{kill_epoch} with adaptation: resumed run must equal never having crashed"
        );
    }
}

/// Eight serverless machines, twelve functions, 160 requests, churn.
fn faas_fixture(seed: u64) -> (SystemSpec, Vec<Task>, ChurnTrace) {
    let seeds = SeedSequence::new(seed);
    let cfg = FaasConfig {
        num_functions: 12,
        num_machines: 8,
        num_tasks: 160,
        // The 32-machine default intensity scaled to 8 machines.
        oversubscription: 87_500.0,
        ..FaasConfig::default()
    };
    let spec = faas_system(&cfg, &mut seeds.stream(0));
    let tasks = FaasGenerator::new(cfg).generate(&spec, &mut seeds.stream(1));
    // Millisecond-scale requests finish in a few hundred time units, so
    // the churn window is compressed to land inside the run (the batch
    // fixture's 150k span would put every epoch past the end).
    let churn = cluster_churn(
        &ChurnConfig {
            num_machines: spec.machines.len(),
            initial_absent: 2,
            drains: 2,
            fails: 2,
            span: 300,
            min_active: 4,
        },
        &mut SeedSequence::new(seed).stream(3),
    );
    (spec, tasks, churn)
}

#[test]
fn faas_crash_restore_keeps_keep_alive_state_bit_identical() {
    // The serverless variant of the crash matrix: warm-container sets
    // (some pinned in-use mid-spin-up), scheduled keep-alive expiries,
    // and the cold/warm tallies all live in the checkpoint now, and
    // machine churn additionally clears warm sets on departures. A
    // restore at any epoch must resume the exact cold/warm trajectory —
    // one lost container would fork every subsequent PET selection.
    let (spec, tasks, churn) = faas_fixture(309);
    let schedule = ArrivalSchedule::from_tasks(&tasks);
    let service = ServiceConfig::default();

    let baseline = run(&spec, &service, &FaultPlan::none(), Some(&churn), schedule.entries());
    assert_eq!(baseline.killed_at_epoch, None);
    assert!(baseline.report.sim.faas.cold_starts > 0, "scenario must pay cold starts");
    assert!(baseline.report.sim.faas.warm_hits > 0, "scenario must land warm hits");

    for kill_epoch in [1, 2, 3] {
        let fault = FaultPlan { kill_at_epoch: Some(kill_epoch), ..FaultPlan::none() };
        let recovered = run(&spec, &service, &fault, Some(&churn), schedule.entries());
        assert_eq!(recovered.killed_at_epoch, Some(kill_epoch), "the kill must actually fire");
        assert_eq!(recovered.report.stats.restores, 1);
        assert_eq!(
            fingerprint(&recovered.report.sim),
            fingerprint(&baseline.report.sim),
            "kill@{kill_epoch}: resumed serverless run must equal never having crashed"
        );
        assert_eq!(recovered.report.sim.faas.cold_starts, baseline.report.sim.faas.cold_starts);
        assert_eq!(recovered.report.sim.faas.warm_hits, baseline.report.sim.faas.warm_hits);
    }
}

#[test]
fn poisoned_pool_crash_still_restores_bit_identically() {
    let (spec, tasks) = system(303, 120, 34_000.0);
    let churn = churn_for(&spec, 303);
    let schedule = ArrivalSchedule::from_tasks(&tasks);
    let service = ServiceConfig::default();

    let baseline = run(&spec, &service, &FaultPlan::none(), Some(&churn), schedule.entries());
    let fault = FaultPlan { kill_at_epoch: Some(2), poison_pool: true, ..FaultPlan::none() };
    let recovered = run(&spec, &service, &fault, Some(&churn), schedule.entries());
    assert_eq!(recovered.killed_at_epoch, Some(2));
    assert_eq!(
        fingerprint(&recovered.report.sim),
        fingerprint(&baseline.report.sim),
        "an abandoned (poisoned) pool must not affect checkpoint recovery"
    );
}

#[test]
fn duplicate_deliveries_are_absorbed_bit_identically() {
    let (spec, tasks) = system(304, 120, 34_000.0);
    let faithful = ArrivalSchedule::from_tasks(&tasks);
    let duplicated = ArrivalSchedule::from_tasks(&tasks).with_duplicates(3);
    assert!(duplicated.len() > faithful.len());
    let service = ServiceConfig::default();

    let base = run(&spec, &service, &FaultPlan::none(), None, faithful.entries());
    let dup = run(&spec, &service, &FaultPlan::none(), None, duplicated.entries());
    assert!(dup.report.stats.duplicates_dropped > 0);
    assert_eq!(
        fingerprint(&dup.report.sim),
        fingerprint(&base.report.sim),
        "at-least-once delivery must not change a single decision"
    );
}

#[test]
fn delayed_and_reordered_deliveries_degrade_gracefully() {
    let (spec, tasks) = system(305, 120, 34_000.0);
    let mut rng = Xoshiro256pp::new(305);
    let perturbed =
        ArrivalSchedule::from_tasks(&tasks).with_delay(5, 2_000).with_reordering(4, &mut rng);
    let service = ServiceConfig::default();
    let outcome = run(&spec, &service, &FaultPlan::none(), None, perturbed.entries());
    let r = &outcome.report;
    // No panic, no silent loss: every task is accounted exactly once.
    assert_eq!(r.stats.admitted + r.stats.shed, 120);
    assert_eq!(r.sim.records.len(), 120);
}

#[test]
fn overload_sheds_gracefully_with_full_accounting() {
    // The acceptance bar: 10x the trial_200t_34k arrival intensity
    // (oversubscription 340_000) against a tight admission bound. The
    // service must neither panic nor lose a task — every shed arrival
    // carries a terminal Shed record.
    let (spec, tasks) = system(306, 200, 340_000.0);
    let schedule = ArrivalSchedule::from_tasks(&tasks);
    let service = ServiceConfig { backlog_bound: 16 };
    let outcome = run(&spec, &service, &FaultPlan::none(), None, schedule.entries());
    let r = &outcome.report;

    assert!(r.stats.shed > 0, "340k oversubscription must trigger shedding");
    assert_eq!(r.stats.admitted + r.stats.shed, 200, "admit + shed covers every arrival");
    assert_eq!(r.sim.records.len(), 200, "no task vanished");
    let shed_records =
        r.sim.records.iter().filter(|rec| rec.outcome == TaskOutcome::Shed).count() as u64;
    assert_eq!(shed_records, r.stats.shed, "every shed is accounted as a record");
}

// ---- wire formats: byte pins and torn-write sweeps over one fixture ----

const PIN_SEED: u64 = 318;

/// Adaptive PAM on the calling thread: its blob carries every section the
/// format has (detector, counters, v2 appendix with controller state).
fn adaptive_pam() -> Pam {
    Pam::new(PruningConfig {
        adaptive: Some(AdaptiveConfig),
        threads: 1,
        ..PruningConfig::default()
    })
}

fn carry_progress_sim() -> SimConfig {
    SimConfig { carry_progress: true, ..SimConfig::untrimmed() }
}

fn pin_fixture() -> (SystemSpec, Vec<Task>, ChurnTrace) {
    let (spec, tasks) = system(PIN_SEED, 160, 34_000.0);
    let churn = churn_for(&spec, PIN_SEED);
    (spec, tasks, churn)
}

/// Serves the pin fixture until the fault plan kills it at epoch 2.
fn killed_checkpoint(spec: &SystemSpec, tasks: &[Task], churn: &ChurnTrace) -> ServiceCheckpoint {
    let schedule = ArrivalSchedule::from_tasks(tasks);
    let fault = FaultPlan { kill_at_epoch: Some(2), ..FaultPlan::none() };
    let mut mapper = adaptive_pam();
    let mut rng = Xoshiro256pp::new(PIN_SEED);
    let exit = std::thread::scope(|s| {
        let (tx, rx) = bounded::<Task>(32);
        s.spawn(move || feed_schedule(&tx, schedule.entries()));
        let mut churn_source = ChurnSource::new(churn);
        let sources: &mut [&mut dyn EventSource] = &mut [&mut churn_source];
        let service = ServiceConfig::default();
        serve(spec, carry_progress_sim(), &service, &fault, sources, rx, &mut mapper, &mut rng)
    });
    mapper.on_shutdown();
    match exit {
        ServiceExit::Killed { checkpoint, .. } => checkpoint,
        ServiceExit::Completed(_) => panic!("the kill at epoch 2 must fire"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Byte length + FNV-1a of the three snapshot streams — the engine
/// snapshot, the adaptive PAM state blob inside it, the service checkpoint
/// around it — mid-run. Committed checkpoints must keep restoring, so a
/// codec change that moves one byte of any layout (engine
/// `SNAPSHOT_VERSION` 3, PAM blob v2, checkpoint magic `HCSV`) fails here
/// before it ships. The lengths were taken on the commit before the three
/// layouts moved onto one codec. The hashes moved once since, with no
/// layout change: when the score table began re-timing idle machines in
/// place, more events reused it, and the only field that differs is the
/// PAM blob's `table_reuses` counter (a u64 at blob offset 54), a cache
/// statistic carried inside all three streams. Two more pins cover what
/// that fixture never writes: a PAMF blob (sufferage section) and a
/// serverless engine snapshot (warm containers, keep-alive expiries,
/// cold-start flags); both were taken before the layouts moved onto the
/// declarative `Wire` layer.
#[test]
fn wire_formats_are_pinned() {
    let (spec, tasks, churn) = pin_fixture();
    let mut mapper = adaptive_pam();
    let mut rng = Xoshiro256pp::new(PIN_SEED);
    let mut task_source = TaskTraceSource::new(&tasks);
    let mut churn_source = ChurnSource::new(&churn);
    let mut session = SimSession::new(
        &spec,
        carry_progress_sim(),
        &mut [&mut task_source, &mut churn_source],
        &mut mapper,
        &mut rng,
    );
    for _ in 0..200 {
        assert!(session.step(), "the pin must be taken mid-run");
    }
    let snapshot = session.snapshot();
    drop(session);
    let blob = mapper.snapshot_state();
    let checkpoint = killed_checkpoint(&spec, &tasks, &churn).to_bytes();

    let pin = |bytes: &[u8]| (bytes.len(), fnv1a(bytes));
    assert_eq!(pin(&snapshot), (10_121, 14_173_174_143_974_062_322), "SimSession::snapshot()");
    assert_eq!(pin(&blob), (537, 9_124_320_162_315_189_877), "adaptive Pam::snapshot_state()");
    assert_eq!(
        pin(&checkpoint),
        (11_768, 17_188_402_750_918_742_844),
        "ServiceCheckpoint::to_bytes()"
    );

    // Sections the adaptive fixture never writes. A field swapped or
    // written at the wrong width in both directions survives every
    // roundtrip test; only a byte pin sees it. PAMF's blob carries the
    // sufferage vector instead of a controller.
    let mut pamf = Pam::with_fairness(PruningConfig { threads: 1, ..PruningConfig::default() });
    let mut rng = Xoshiro256pp::new(PIN_SEED);
    let mut task_source = TaskTraceSource::new(&tasks);
    let mut churn_source = ChurnSource::new(&churn);
    let mut session = SimSession::new(
        &spec,
        carry_progress_sim(),
        &mut [&mut task_source, &mut churn_source],
        &mut pamf,
        &mut rng,
    );
    for _ in 0..200 {
        assert!(session.step(), "the pin must be taken mid-run");
    }
    drop(session);
    assert_eq!(
        pin(&pamf.snapshot_state()),
        (175, 13_752_530_210_388_893_757),
        "PAMF Pam::snapshot_state()"
    );

    // A serverless run mid-flight: warm containers, keep-alive expiry
    // events on the heap, a task executing after a cold start. (The
    // adaptive snapshot above already holds a deadline eviction.)
    let (spec, tasks, churn) = faas_fixture(PIN_SEED);
    let mut mapper = Pam::new(PruningConfig { threads: 1, ..PruningConfig::default() });
    let mut rng = Xoshiro256pp::new(PIN_SEED);
    let mut task_source = TaskTraceSource::new(&tasks);
    let mut churn_source = ChurnSource::new(&churn);
    let mut session = SimSession::new(
        &spec,
        SimConfig::untrimmed(),
        &mut [&mut task_source, &mut churn_source],
        &mut mapper,
        &mut rng,
    );
    for _ in 0..200 {
        assert!(session.step(), "the pin must be taken mid-run");
    }
    assert_eq!(
        pin(&session.snapshot()),
        (10_134, 15_099_915_632_994_658_283),
        "serverless SimSession::snapshot()"
    );
}

#[test]
fn no_prefix_of_a_checkpoint_panics_the_restore_path() {
    // A torn write hands restore a prefix. Every strict prefix of a real
    // mid-run checkpoint — adaptive controller state, carried progress,
    // churn — must come back as an `Err` from `from_bytes`, or failing
    // that from `resume`; the same goes for a well-framed checkpoint whose
    // engine section is a strict prefix of the real one.
    let (spec, tasks, churn) = pin_fixture();
    let bytes = killed_checkpoint(&spec, &tasks, &churn).to_bytes();

    let restore = |bytes: &[u8]| -> Result<(), hcsim_sim::SnapshotError> {
        let checkpoint = ServiceCheckpoint::from_bytes(bytes)?;
        let (_, rx) = bounded::<Task>(1); // closed: a resumed run would just drain
        let (mut mapper, mut rng) = (adaptive_pam(), Xoshiro256pp::new(0));
        let (service, fault) = (ServiceConfig::default(), FaultPlan::none());
        resume(
            &spec,
            carry_progress_sim(),
            &service,
            &fault,
            rx,
            &checkpoint,
            &mut mapper,
            &mut rng,
        )
        .map(|_| ())
    };
    assert_eq!(restore(&bytes), Ok(()), "the intact checkpoint restores");
    for cut in 0..bytes.len() {
        assert!(restore(&bytes[..cut]).is_err(), "prefix of {cut} bytes restored");
    }

    // Frame: magic, length-prefixed engine bytes, driver state.
    let mut r = ByteReader::new(&bytes);
    r.magic(*b"HCSV").unwrap();
    let engine = r.bytes().unwrap();
    let driver_state = &bytes[4 + 8 + engine.len()..];
    for cut in 0..engine.len() {
        let mut w = ByteWriter::with_capacity(bytes.len());
        w.magic(*b"HCSV");
        w.bytes(&engine[..cut]);
        let mut torn = w.into_bytes();
        torn.extend_from_slice(driver_state);
        assert!(restore(&torn).is_err(), "engine section cut to {cut} bytes restored");
    }
}

#[test]
fn no_bit_flip_of_a_checkpoint_panics_the_decoder() {
    // Every byte of a real mid-run checkpoint with its low and its high
    // bit flipped: `from_bytes` returns `Ok` or `Err`, never panics. The
    // engine section is only framed here (its own sweep is in hcsim-sim):
    // it carries a PAM blob, whose restore can still only panic.
    let (spec, tasks, churn) = pin_fixture();
    let mut bytes = killed_checkpoint(&spec, &tasks, &churn).to_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80] {
            bytes[at] ^= mask;
            let decoded =
                std::panic::catch_unwind(|| ServiceCheckpoint::from_bytes(&bytes).is_ok());
            assert!(decoded.is_ok(), "byte {at} ^ {mask:#04x} panicked the decoder");
            bytes[at] ^= mask;
        }
    }
}
