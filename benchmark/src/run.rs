//! One workload, one process: set-up, untraced passes, the optional traced
//! pass, output checks, and the metrics.
//!
//! The harness drives `SimSession::step()` (or `serve()`) itself, so every
//! span and every stopwatch lives in the benchmark's own files.

use crate::digest::{records_consistent, trial_digest, workload_digest};
use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::probe::{ProbeStats, Shadow, TimedMapper, Tracing};
use crate::stats::{
    events_per_second, highest_supported_percentile, median, min_wall_per_trial, percentile_sorted,
};
use crate::trace::{ns_since, self_times_ns, totals, SpanName, Tracer};
use crate::workloads::{build, Driver, SetupTimes, Shape, Trial, Workload, DEFAULT_SEED};
use hcsim_model::Task;
use hcsim_parallel::WorkerPool;
use hcsim_service::{
    bounded, resume, serve, FaultPlan, ServiceCheckpoint, ServiceConfig, ServiceExit, ServiceStats,
};
use hcsim_sim::{
    ChurnSource, EventSource, Mapper, MapperInstrumentation, SimConfig, SimReport, SimSession,
    TaskTraceSource,
};
use hcsim_stats::Xoshiro256pp;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Set-up is repeated at least `SETUP_MIN_REPS` times and until it has
/// taken `SETUP_MIN_SECONDS` in all (at most `SETUP_MAX_REPS` times), so
/// that a 20 ms set-up is not judged on five samples; `setup_s` is the
/// median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 40;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// An untraced run makes at least this many passes however long one takes:
/// both estimators keep the fastest of several executions, and a workload
/// whose pass takes just under half of `--seconds` must not drop to two
/// passes on exactly the runs where the host is slow.
const MIN_PASSES: usize = 3;
/// Evenly spaced steps per traced trial at which the engine is
/// snapshotted and restored.
const SNAPSHOT_POINTS: u64 = 16;
/// Capacity of the arrival channel and the admission backlog bound of the
/// service workload: small enough that the feeder blocks and Eq. 6
/// shedding engages.
const SERVICE_CHANNEL_CAPACITY: usize = 64;
const SERVICE_BACKLOG_BOUND: usize = 64;
/// Rounds timed by the worker-pool transport probe, over this many cells.
const POOL_ROUNDS: u32 = 2_000;
const POOL_CELLS: usize = 256;

/// The pins of the default seed.
const GOLDEN_JSON: &str = include_str!("../golden.json");

pub struct Options {
    pub shape: Shape,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub digest: String,
    pub on_time_pct: f64,
    /// Robustness of each trial, in trial order.
    pub trial_on_time_pct: Vec<f64>,
    /// Wall seconds of each untraced pass (sum over its trials).
    pub pass_walls: Vec<f64>,
    pub decisions_per_pass: usize,
    /// Spans of the traced pass, for the trace file.
    pub tracer: Option<Tracer>,
}

fn sim_config() -> SimConfig {
    SimConfig::untrimmed()
}

fn service_config() -> ServiceConfig {
    ServiceConfig { backlog_bound: SERVICE_BACKLOG_BOUND, ..ServiceConfig::default() }
}

/// What one execution of one trial produced.
struct TrialRun {
    wall_s: f64,
    steps: u64,
    events: u64,
    on_time_pct: f64,
    digest: String,
    consistent: bool,
    instr: Option<MapperInstrumentation>,
    service: Option<ServiceStats>,
}

impl TrialRun {
    fn new(
        wall_s: f64,
        steps: u64,
        report: &SimReport,
        tasks: usize,
        instr: Option<MapperInstrumentation>,
        service: Option<ServiceStats>,
    ) -> Self {
        Self {
            wall_s,
            steps,
            events: report.mapping_events,
            on_time_pct: report.metrics.pct_on_time,
            digest: trial_digest(report, service.as_ref()),
            consistent: records_consistent(report, tasks),
            instr,
            service,
        }
    }
}

#[derive(Debug, Default)]
struct SnapshotStats {
    samples: u64,
    snapshot_ns: u64,
    restore_ns: u64,
    bytes: u64,
    restore_failures: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct FeederTimes {
    total_ns: u64,
    blocked_ns: u64,
}

/// State of the traced pass, shared by the harness and the mapper wrapper
/// (same thread; the feeder thread reports through its join handle).
struct TraceState {
    tracer: RefCell<Tracer>,
    probes: RefCell<ProbeStats>,
    snapshots: RefCell<SnapshotStats>,
    feeder: RefCell<FeederTimes>,
}

impl TraceState {
    fn new() -> Self {
        Self {
            tracer: RefCell::new(Tracer::new(Instant::now())),
            probes: RefCell::default(),
            snapshots: RefCell::default(),
            feeder: RefCell::default(),
        }
    }

    fn tracing<'a>(&'a self, w: &'a Workload) -> Tracing<'a> {
        let shadow = w
            .shape
            .probabilistic
            .then(|| Shadow::new(&w.spec, w.cold_pet.as_ref(), sim_config().drop_policy));
        Tracing { tracer: &self.tracer, stats: &self.probes, shadow }
    }
}

/// Traced-pass extras for one offline trial: the recorder, plus the step
/// count learned from the untraced passes (to space the snapshot points).
struct TracedTrial<'a> {
    state: &'a TraceState,
    steps_hint: u64,
}

/// Steps one trial to completion through a `SimSession` the harness drives.
fn run_offline(
    w: &Workload,
    trial: &Trial,
    threads: usize,
    decide_ns: &mut Vec<u32>,
    traced: Option<TracedTrial<'_>>,
) -> TrialRun {
    let t0 = Instant::now();
    let tracing = traced.as_ref().map(|t| t.state.tracing(w));
    let mut mapper = TimedMapper::new(w.build_mapper(trial, threads), decide_ns, tracing);
    let mut rng = trial.seeds.stream(1);
    let mut task_source = TaskTraceSource::new(&trial.tasks);
    let mut churn_source = trial.churn.as_ref().map(ChurnSource::new);
    let mut sources: Vec<&mut dyn EventSource> = vec![&mut task_source];
    if let Some(c) = churn_source.as_mut() {
        sources.push(c);
    }
    let mut session = SimSession::new(&w.spec, sim_config(), &mut sources, &mut mapper, &mut rng);
    let mut steps = 0u64;
    match &traced {
        None => {
            while session.step() {
                steps += 1;
            }
        }
        Some(t) => {
            let stride = (t.steps_hint / (SNAPSHOT_POINTS + 1)).max(1);
            while session.events_remaining() > 0 {
                let id = t.state.tracer.borrow_mut().open(SpanName::SimStep);
                session.step();
                t.state.tracer.borrow_mut().close(id);
                steps += 1;
                if steps.is_multiple_of(stride) && steps / stride <= SNAPSHOT_POINTS {
                    probe_snapshot(w, trial, &session, &mut t.state.snapshots.borrow_mut());
                }
            }
        }
    }
    let report = session.finish();
    let instr = mapper.instrumentation();
    drop(mapper);
    let wall_s = t0.elapsed().as_secs_f64();
    TrialRun::new(wall_s, steps, &report, trial.tasks.len(), instr, None)
}

/// Snapshots the live session and restores the bytes into a scratch
/// mapper and RNG, timing both.
fn probe_snapshot(
    w: &Workload,
    trial: &Trial,
    session: &SimSession<'_, TimedMapper<'_>, Xoshiro256pp>,
    stats: &mut SnapshotStats,
) {
    let t = Instant::now();
    let bytes = session.snapshot();
    stats.snapshot_ns += ns_since(t);
    stats.bytes += bytes.len() as u64;
    let mut mapper = w.build_mapper(trial, 1);
    let mut rng = trial.seeds.stream(1);
    let t = Instant::now();
    let restored = SimSession::restore(&w.spec, sim_config(), &bytes, &mut mapper, &mut rng);
    stats.restore_ns += ns_since(t);
    stats.samples += 1;
    if restored.is_err() {
        stats.restore_failures += 1;
    }
}

/// The closed-loop load generator: one thread sending arrivals in order,
/// blocking whenever the channel is full. Stops early only when the
/// receiver is gone (a killed service).
fn feed(tx: hcsim_service::Sender<Task>, tasks: &[Task], timed: bool) -> FeederTimes {
    let start = Instant::now();
    let mut blocked_ns = 0;
    for task in tasks {
        let t = timed.then(Instant::now);
        let sent = tx.send(*task);
        if let Some(t) = t {
            blocked_ns += ns_since(t);
        }
        if sent.is_err() {
            break;
        }
    }
    FeederTimes { total_ns: ns_since(start), blocked_ns }
}

/// Runs `drive` (a `serve` or `resume` call) against a fresh feeder
/// replaying the trial's whole arrival list.
fn with_feeder<T>(
    trial: &Trial,
    timed: bool,
    drive: impl FnOnce(hcsim_service::Receiver<Task>) -> T,
) -> (T, FeederTimes) {
    let (tx, rx) = bounded::<Task>(SERVICE_CHANNEL_CAPACITY);
    std::thread::scope(|s| {
        let feeder = s.spawn(move || feed(tx, &trial.tasks, timed));
        let out = drive(rx);
        (out, feeder.join().expect("feeder thread panicked"))
    })
}

/// One `serve()` call over the trial, under `fault`.
fn serve_trial(
    w: &Workload,
    trial: &Trial,
    mapper: &mut TimedMapper<'_>,
    fault: &FaultPlan,
    timed_feeder: bool,
) -> (ServiceExit, FeederTimes) {
    let churn = trial.churn.as_ref().expect("service trials carry a churn trace");
    let mut rng = trial.seeds.stream(1);
    let out = with_feeder(trial, timed_feeder, |rx| {
        let mut churn_source = ChurnSource::new(churn);
        serve(
            &w.spec,
            sim_config(),
            &service_config(),
            fault,
            &mut [&mut churn_source],
            rx,
            mapper,
            &mut rng,
        )
    });
    mapper.on_shutdown();
    out
}

/// Runs one trial through `hcsim_service::serve` in fast-forward.
fn run_service(
    w: &Workload,
    trial: &Trial,
    decide_ns: &mut Vec<u32>,
    traced: Option<&TraceState>,
) -> Result<TrialRun, String> {
    let t0 = Instant::now();
    let tracing = traced.map(|state| state.tracing(w));
    let mut mapper = TimedMapper::new(w.build_mapper(trial, w.shape.threads), decide_ns, tracing);
    let span = traced.map(|state| state.tracer.borrow_mut().open(SpanName::ServiceServe));
    let (exit, feeder) = serve_trial(w, trial, &mut mapper, &FaultPlan::none(), traced.is_some());
    if let (Some(state), Some(id)) = (traced, span) {
        state.tracer.borrow_mut().close(id);
        let mut total = state.feeder.borrow_mut();
        total.total_ns += feeder.total_ns;
        total.blocked_ns += feeder.blocked_ns;
    }
    let instr = mapper.instrumentation();
    drop(mapper);
    let wall_s = t0.elapsed().as_secs_f64();
    match exit {
        ServiceExit::Completed(report) => {
            Ok(TrialRun::new(wall_s, 0, &report.sim, trial.tasks.len(), instr, Some(report.stats)))
        }
        ServiceExit::Killed { checkpoint, .. } => {
            Err(format!("service died at epoch {} under the no-fault plan", checkpoint.epoch()))
        }
    }
}

/// One crash → restore → resume cycle's measurements.
struct KillCycle {
    checkpoint_bytes: usize,
    encode_ns: u64,
    decode_ns: u64,
    restore_ns: u64,
    /// Digest of the resumed run, which must equal the uninterrupted
    /// run's. The driver counters a crash legitimately moves (the replayed
    /// arrivals it deduplicates, the kill checkpoint, the restore itself)
    /// are taken from the uninterrupted run; the engine report and the
    /// admitted/shed split are the resumed run's own.
    digest: String,
}

/// Kills the service when membership epoch `epoch` begins, then restores
/// from the checkpoint *bytes* into a fresh mapper and resumes against a
/// full replay of the arrivals. `Ok(None)` when the epoch never begins
/// (epochs can advance by more than one per step).
fn kill_cycle(
    w: &Workload,
    trial: &Trial,
    uninterrupted: &ServiceStats,
    epoch: u64,
) -> Result<Option<KillCycle>, String> {
    let mut sink = Vec::new();
    let mut mapper = TimedMapper::new(w.build_mapper(trial, w.shape.threads), &mut sink, None);
    let fault = FaultPlan { kill_at_epoch: Some(epoch), ..FaultPlan::none() };
    let (exit, _) = serve_trial(w, trial, &mut mapper, &fault, false);
    drop(mapper);
    let ServiceExit::Killed { checkpoint, .. } = exit else { return Ok(None) };

    let t = Instant::now();
    let bytes = checkpoint.to_bytes();
    let encode_ns = ns_since(t);
    let t = Instant::now();
    let decoded = ServiceCheckpoint::from_bytes(&bytes);
    let decode_ns = ns_since(t);
    let decoded = decoded.map_err(|e| format!("kill checkpoint does not decode: {e:?}"))?;

    let mut sink = Vec::new();
    let mut mapper = TimedMapper::new(w.build_mapper(trial, w.shape.threads), &mut sink, None);
    let mut rng = trial.seeds.stream(1);
    let (resumed, _) = with_feeder(trial, false, |rx| {
        resume(
            &w.spec,
            sim_config(),
            &service_config(),
            &FaultPlan::none(),
            rx,
            &decoded,
            &mut mapper,
            &mut rng,
        )
    });
    mapper.on_shutdown();
    let (exit, restore_ns) =
        resumed.map_err(|e| format!("kill checkpoint does not restore: {e:?}"))?;
    let ServiceExit::Completed(report) = exit else {
        return Err("resumed service was killed again".into());
    };
    let stats =
        ServiceStats { admitted: report.stats.admitted, shed: report.stats.shed, ..*uninterrupted };
    Ok(Some(KillCycle {
        checkpoint_bytes: bytes.len(),
        encode_ns,
        decode_ns,
        restore_ns,
        digest: trial_digest(&report.sim, Some(&stats)),
    }))
}

/// Mean wall time of one `WorkerPool::run` round with a trivial job: the
/// transport cost a fan-out pays before any scoring happens.
fn pool_round_us(threads: usize) -> f64 {
    let pool = WorkerPool::new(vec![0u64; POOL_CELLS], threads);
    let round = || pool.run(|_, cell| *cell = cell.wrapping_add(1));
    for _ in 0..POOL_ROUNDS / 10 {
        round();
    }
    let t = Instant::now();
    for _ in 0..POOL_ROUNDS {
        round();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(POOL_ROUNDS);
    black_box(pool.into_cells());
    us
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The pinned `(digest, on_time_pct)` of a workload at the default seed.
pub fn golden(name: &str) -> Option<(String, f64)> {
    let doc = crate::json::parse(GOLDEN_JSON).expect("golden.json parses");
    assert_eq!(
        doc.get("seed").and_then(|v| v.as_f64()),
        Some(DEFAULT_SEED as f64),
        "golden.json pins the default seed"
    );
    let entry = doc.get("workloads")?.get(name)?;
    Some((entry.get("digest")?.as_str()?.to_string(), entry.get("on_time_pct")?.as_f64()?))
}

/// Failure bookkeeping: every executed trial is one attempted operation.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Which trials one pass runs, and how.
#[derive(Clone, Copy)]
struct Pass<'a> {
    /// The first this-many trials of the workload.
    trials: usize,
    threads: usize,
    /// The recorder and the per-trial step counts, on the traced pass.
    traced: Option<(&'a TraceState, &'a [u64])>,
    /// Runs whose digests this pass must reproduce.
    reference: Option<&'a [TrialRun]>,
    label: &'a str,
}

/// Runs the first `trials` trials once, checking each against `reference`
/// digests when there are any. Returns the runs, or the failure that
/// prevented one.
fn run_pass(
    w: &Workload,
    pass: Pass<'_>,
    decide_ns: &mut Vec<u32>,
    ledger: &mut Ledger,
) -> Vec<Option<TrialRun>> {
    let Pass { trials, threads, traced, reference, label } = pass;
    (0..trials)
        .map(|i| {
            let trial = &w.trials[i];
            ledger.attempted += 1;
            if let Some((state, _)) = traced {
                state.tracer.borrow_mut().set_trial(i as u32);
            }
            let run = match w.shape.driver {
                Driver::Offline => Ok(run_offline(
                    w,
                    trial,
                    threads,
                    decide_ns,
                    traced.map(|(state, steps)| TracedTrial { state, steps_hint: steps[i] }),
                )),
                Driver::Service => run_service(w, trial, decide_ns, traced.map(|(state, _)| state)),
            };
            let run = match run {
                Ok(run) => run,
                Err(why) => {
                    ledger.fail(format!("{label} trial {i}: {why}"));
                    return None;
                }
            };
            if !run.consistent {
                ledger.fail(format!("{label} trial {i}: records do not account for every task"));
            } else if let Some(first) = reference.map(|r| &r[i]) {
                if first.digest != run.digest {
                    ledger.fail(format!(
                        "{label} trial {i}: digest differs from the first pass\n  first: {}\n  now:   {}",
                        first.digest, run.digest
                    ));
                }
            }
            Some(run)
        })
        .collect()
}

/// Runs the workload and assembles the report.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let shape = opts.shape;

    // Set-up, several times over; the last one is kept and run.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut workload = None;
    let setting_up = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setting_up.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        drop(workload.take());
        let (w, times) = build(shape, opts.seed);
        setups.push(times);
        workload = Some(w);
    }
    let w = workload.expect("set-up ran at least once");
    let setup_s = median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());
    let spec_build_ms = 1e3 * median(&setups.iter().map(|s| s.spec_build_s).collect::<Vec<_>>());
    let generate_ms = 1e3 * median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>());

    let mut ledger = Ledger::default();
    let n = w.trials.len();

    // Untraced passes, pass-major, until the time is used up. A traced run
    // spends half its time here, and may stop after one pass: it needs the
    // untraced walls only as the base of `bench.trace_overhead`, and the
    // digests to compare against.
    let (budget_s, min_passes) =
        if opts.trace { (opts.seconds / 2.0, 1) } else { (opts.seconds, MIN_PASSES) };
    let mut decide_ns: Vec<u32> = Vec::new();
    let mut best_decide_ns: Vec<u32> = Vec::new();
    let mut walls: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Vec<TrialRun>> = None;
    let measuring = Instant::now();
    loop {
        decide_ns.clear();
        let label = format!("pass {}", walls.len());
        let pass = Pass {
            trials: n,
            threads: shape.threads,
            traced: None,
            reference: first.as_deref(),
            label: &label,
        };
        let runs = run_pass(&w, pass, &mut decide_ns, &mut ledger);
        let Some(runs) = runs.into_iter().collect::<Option<Vec<TrialRun>>>() else {
            return Err(ledger.failures.join("\n"));
        };
        walls.push(runs.iter().map(|r| r.wall_s).collect());
        // Every pass replays the same decisions in the same order, so
        // decision k of this pass is decision k of every other: keep each
        // decision's fastest execution, as `events_per_s` keeps each
        // trial's. Noise only ever adds time.
        if best_decide_ns.is_empty() {
            best_decide_ns.clone_from(&decide_ns);
        } else if best_decide_ns.len() == decide_ns.len() {
            for (best, &now) in best_decide_ns.iter_mut().zip(&decide_ns) {
                *best = (*best).min(now);
            }
        } else {
            ledger.fail(format!(
                "{label}: {} decisions, the first pass made {}",
                decide_ns.len(),
                best_decide_ns.len()
            ));
        }
        first.get_or_insert(runs);
        if walls.len() >= min_passes && measuring.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let decisions_per_pass = best_decide_ns.len();
    best_decide_ns.sort_unstable();
    let first = first.expect("at least one pass ran");
    if highest_supported_percentile(decisions_per_pass).is_none_or(|p| p < 99.0) {
        ledger.fail(format!(
            "only {decisions_per_pass} decisions per pass: p99 has fewer than 10 samples beyond it"
        ));
    }

    let events: u64 = first.iter().map(|r| r.events).sum();
    let on_time_pct = first.iter().map(|r| r.on_time_pct).sum::<f64>() / n as f64;
    let digest = workload_digest(first.iter().map(|r| r.digest.as_str()));
    if opts.seed == DEFAULT_SEED {
        match golden(shape.name) {
            Some((pin_digest, pin_pct)) => {
                if pin_digest != digest || pin_pct != on_time_pct {
                    ledger.fail(format!(
                        "golden mismatch at seed {DEFAULT_SEED}: digest {digest} on_time_pct \
                         {on_time_pct:?}, pinned {pin_digest} {pin_pct:?}"
                    ));
                }
            }
            None => ledger.fail(format!("golden.json has no pin for {}", shape.name)),
        }
    }

    let mut tracer_out = None;
    let metrics = if opts.trace {
        let mut m = Measured::default();
        m.set("workload.generate_ms", generate_ms);
        m.set("model.spec_build_ms", spec_build_ms);
        let state = traced_pass(&w, &first, &walls, &mut m, &mut ledger);
        tracer_out = Some(state.tracer.into_inner());
        m.finish(&PER_LAYER)
    } else {
        let mut m = Measured::default();
        m.set("setup_s", setup_s);
        m.set("events_per_s", events_per_second(events, &walls));
        m.set("decide_p50_us", percentile_sorted(&best_decide_ns, 50.0) / 1e3);
        m.set("decide_p99_us", percentile_sorted(&best_decide_ns, 99.0) / 1e3);
        m.set("on_time_pct", on_time_pct);
        m.set("peak_rss_mb", peak_rss_mb()?);
        m.finish(&END_TO_END)
    };

    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failures.len() as u64,
        failures: ledger.failures,
        metrics,
        digest,
        on_time_pct,
        trial_on_time_pct: first.iter().map(|r| r.on_time_pct).collect(),
        pass_walls: walls.iter().map(|pass| pass.iter().sum()).collect(),
        decisions_per_pass,
        tracer: tracer_out,
    })
}

/// The traced pass over the first `traced_trials` trials, the extra
/// probes that ride with it, and every per-layer metric.
fn traced_pass(
    w: &Workload,
    first: &[TrialRun],
    walls: &[Vec<f64>],
    m: &mut Measured,
    ledger: &mut Ledger,
) -> TraceState {
    let shape = w.shape;
    let k = shape.traced_trials.min(w.trials.len());
    let steps: Vec<u64> = first.iter().map(|r| r.steps).collect();
    let state = TraceState::new();
    let mut sink = Vec::new();
    let pass = Pass {
        trials: k,
        threads: shape.threads,
        traced: Some((&state, &steps)),
        reference: Some(first),
        label: "traced pass",
    };
    let traced: Vec<TrialRun> =
        run_pass(w, pass, &mut sink, ledger).into_iter().flatten().collect();

    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let best_untraced: f64 = min_wall_per_trial(walls)[..k].iter().sum();
    m.set_ratio("bench.trace_overhead", traced_wall, best_untraced);

    // Spans → self times.
    let events = traced.iter().map(|r| r.events).sum::<u64>() as f64;
    let (step, serve_span, map, finished) = {
        let tracer = state.tracer.borrow();
        let own = self_times_ns(tracer.spans());
        let of = |name| totals(tracer.spans(), &own, name);
        (
            of(SpanName::SimStep),
            of(SpanName::ServiceServe),
            of(SpanName::MapEvent),
            of(SpanName::TaskFinished),
        )
    };
    let driver_self_ns = (step.self_ns + serve_span.self_ns) as f64;
    let productive_ns = driver_self_ns + (map.total_ns + finished.total_ns) as f64;
    m.set("sim.step_count", step.count as f64);
    m.set_ratio("sim.engine_self_us_per_event", step.self_ns as f64 / 1e3, events);
    m.set_ratio("sim.engine_share", step.self_ns as f64, productive_ns);
    m.set("core.map_event_count", map.count as f64);
    m.set_ratio("core.map_event_us_mean", map.total_ns as f64 / 1e3, map.count as f64);
    m.set_ratio("core.map_share", map.total_ns as f64, productive_ns);
    m.set_ratio("core.task_finished_us_per_event", finished.total_ns as f64 / 1e3, events);
    m.set_ratio("service.serve_self_us_per_event", serve_span.self_ns as f64 / 1e3, events);

    // Exact counts from the mapper's own instrumentation.
    let instr = |f: fn(&MapperInstrumentation) -> u64| {
        traced.iter().filter_map(|r| r.instr.as_ref()).map(f).sum::<u64>() as f64
    };
    m.set_ratio("core.table_reuse_ratio", instr(|i| i.table_reuses), events);
    m.set_ratio("core.drop_engaged_ratio", instr(|i| i.events_dropping_engaged), events);
    m.set("core.pruner_drops", instr(|i| i.pruner_drops));
    m.set("core.toggle_transitions", instr(|i| i.toggle_transitions));

    // The wrapper's tallies and the shadow probes.
    {
        let p = &mut *state.probes.borrow_mut();
        m.set_ratio("core.batch_len_mean", p.batch_len_sum as f64, events);
        m.set("core.batch_len_max", p.batch_len_max as f64);
        let probed = p.events as f64;
        let warm_us = if probed > 0.0 { p.warm_ns as f64 / 1e3 / probed } else { 0.0 };
        m.set("core.scorer.warm_us_per_event", warm_us);
        m.set_ratio("core.scorer.cold_us_per_event", p.cold_ns as f64 / 1e3, p.cold_probes as f64);
        m.set_ratio(
            "core.scorer.cache_gain",
            p.cold_ns as f64 / 1e3 / (p.cold_probes as f64).max(1.0),
            warm_us,
        );
        m.set_ratio("core.table.rebuild_us_per_event", p.rebuild_ns as f64 / 1e3, probed);
        m.set_ratio("core.table.ensure_us_per_event", p.ensure_ns as f64 / 1e3, probed);
        m.set_ratio("core.table.ensure_reuse_ratio", p.ensure_reused as f64, p.table_calls as f64);
        m.set_ratio("core.table.reduce_us_per_event", p.reduce_ns as f64 / 1e3, probed);
        m.set_ratio("core.table.rows_mean", p.rows_sum as f64, p.table_calls as f64);
        let pmf_probes = p.pmf_probes as f64;
        m.set_ratio("pmf.queue_step_ns", p.queue_step_ns as f64, pmf_probes);
        m.set_ratio("pmf.convolve_ns", p.convolve_ns as f64, pmf_probes);
        m.set_ratio("pmf.compact_ns", p.compact_ns as f64, pmf_probes);
        m.set_ratio(
            "pmf.tail_len_mean",
            p.tail_lens.iter().map(|&l| f64::from(l)).sum(),
            pmf_probes,
        );
        p.tail_lens.sort_unstable();
        let p99 = if p.tail_lens.is_empty() { 0.0 } else { percentile_sorted(&p.tail_lens, 99.0) };
        m.set("pmf.tail_len_p99", p99);
    }

    m.set("parallel.pool_round_us", pool_round_us(shape.threads));

    // Engine snapshot/restore. `serve()` owns its session, so the service
    // workload measures them on an offline replay of its first trial.
    let replay = TraceState::new();
    if shape.driver == Driver::Service {
        let mut sink = Vec::new();
        let probe = run_offline(w, &w.trials[0], shape.threads, &mut sink, None);
        run_offline(
            w,
            &w.trials[0],
            shape.threads,
            &mut sink,
            Some(TracedTrial { state: &replay, steps_hint: probe.steps }),
        );
    }
    {
        let source = if shape.driver == Driver::Service { &replay } else { &state };
        let s = source.snapshots.borrow();
        let samples = s.samples as f64;
        m.set_ratio("sim.snapshot_us", s.snapshot_ns as f64 / 1e3, samples);
        m.set_ratio("sim.restore_us", s.restore_ns as f64 / 1e3, samples);
        m.set_ratio("sim.snapshot_bytes", s.bytes as f64, samples);
        if s.restore_failures > 0 {
            ledger.fail(format!("{} engine snapshots failed to restore", s.restore_failures));
        }
    }

    if shape.driver == Driver::Service {
        service_layer(w, &traced, &state, m, ledger);
    }

    // Thread-count invariance: the same trials on one thread must produce
    // the same reports.
    if shape.threads > 1 {
        let mut sink = Vec::new();
        let pass = Pass {
            trials: w.trials.len(),
            threads: 1,
            traced: None,
            reference: Some(first),
            label: "1-thread pass",
        };
        run_pass(w, pass, &mut sink, ledger);
    }
    state
}

/// Service-path metrics: driver accounting, feeder backpressure, and three
/// crash → restore → resume cycles on the first trial.
fn service_layer(
    w: &Workload,
    traced: &[TrialRun],
    state: &TraceState,
    m: &mut Measured,
    ledger: &mut Ledger,
) {
    let stat = |f: fn(&ServiceStats) -> u64| {
        traced.iter().filter_map(|r| r.service.as_ref()).map(f).sum::<u64>() as f64
    };
    m.set_ratio("service.shed_ratio", stat(|s| s.shed), stat(|s| s.admitted + s.shed));
    m.set("service.checkpoints", stat(|s| s.checkpoints));
    let feeder = *state.feeder.borrow();
    m.set_ratio("service.feeder_blocked_share", feeder.blocked_ns as f64, feeder.total_ns as f64);

    let Some(baseline) = traced.first() else { return };
    let Some(uninterrupted) = baseline.service else { return };
    let epochs = uninterrupted.checkpoints;
    let mut cycles = Vec::new();
    for quarter in 1..=3 {
        let target = (epochs * quarter / 4).max(1);
        ledger.attempted += 1;
        // An epoch that is skipped over never fires the kill; the next few
        // are tried in its place.
        let cycle = (target..target + 4)
            .find_map(|epoch| kill_cycle(w, &w.trials[0], &uninterrupted, epoch).transpose());
        match cycle {
            Some(Ok(c)) if c.digest == baseline.digest => cycles.push(c),
            Some(Ok(c)) => ledger.fail(format!(
                "resumed run differs from the uninterrupted one\n  uninterrupted: {}\n  resumed:       {}",
                baseline.digest, c.digest
            )),
            Some(Err(why)) => ledger.fail(why),
            None => ledger.fail(format!("no kill fired at epochs {target}..{}", target + 4)),
        }
    }
    if cycles.is_empty() {
        return;
    }
    let med = |f: fn(&KillCycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    m.set(
        "service.checkpoint_bytes_mean",
        cycles.iter().map(|c| c.checkpoint_bytes as f64).sum::<f64>() / cycles.len() as f64,
    );
    m.set("service.checkpoint_encode_us", med(|c| c.encode_ns as f64 / 1e3));
    m.set("service.checkpoint_decode_us", med(|c| c.decode_ns as f64 / 1e3));
    m.set("service.restore_us", med(|c| c.restore_ns as f64 / 1e3));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{shape, NAMES};

    #[test]
    fn every_workload_is_pinned_and_the_cluster_pair_agrees() {
        for name in NAMES {
            let (digest, pct) = golden(name).unwrap_or_else(|| panic!("{name} is not pinned"));
            assert_eq!(digest.len(), 16, "{name}");
            assert!(pct > 0.0 && pct < 100.0, "{name}: {pct}");
        }
        assert_eq!(golden("cluster_256m_pam"), golden("cluster_256m_pam_t2"));
        assert!(golden("no_such_workload").is_none());
    }

    /// A small instance of a real workload: same seed → same digest, pass
    /// after pass, traced or not (the probes are decision-neutral).
    fn digests_repeat(name: &str) {
        let small = shape(name).unwrap().shrunk(2, 120);
        let (w, _) = build(small, 5);
        let mut ledger = Ledger::default();
        let mut sink = Vec::new();
        let pass = |sink: &mut Vec<u32>,
                    ledger: &mut Ledger,
                    traced: Option<(&TraceState, &[u64])>| {
            let pass =
                Pass { trials: 2, threads: small.threads, traced, reference: None, label: "test" };
            run_pass(&w, pass, sink, ledger)
                .into_iter()
                .map(|r| r.expect("trial ran"))
                .collect::<Vec<_>>()
        };
        let first = pass(&mut sink, &mut ledger, None);
        let decisions = sink.len();
        assert_eq!(decisions as u64, first.iter().map(|r| r.events).sum::<u64>());
        let again = pass(&mut sink, &mut ledger, None);
        let steps: Vec<u64> = first.iter().map(|r| r.steps).collect();
        let state = TraceState::new();
        let traced = pass(&mut sink, &mut ledger, Some((&state, &steps)));
        for ((a, b), c) in first.iter().zip(&again).zip(&traced) {
            assert!(a.consistent && b.consistent && c.consistent);
            assert_eq!(a.digest, b.digest, "{name}: pass vs pass");
            assert_eq!(a.digest, c.digest, "{name}: traced vs untraced");
        }
        assert!(ledger.failures.is_empty(), "{:?}", ledger.failures);
        assert_eq!(ledger.attempted, 6);
        // Untraced passes sample every decision; the traced pass records
        // spans instead.
        assert_eq!(sink.len(), 2 * decisions);
        assert!(!state.tracer.borrow().spans().is_empty());
    }

    #[test]
    fn offline_digests_repeat() {
        digests_repeat("paper_8m_pam");
        digests_repeat("paper_8m_scalar");
    }

    #[test]
    fn service_digests_repeat() {
        digests_repeat("service_64m_churn");
    }
}
