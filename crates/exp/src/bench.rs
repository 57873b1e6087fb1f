//! `hcsim-exp scaling` — the cluster threads sweeps.
//!
//! Times whole cluster trials (64-machine static and churn, 1024-machine,
//! 256-machine serverless) at several in-event fan-out widths and writes
//! `SCALING_cluster64.json` / `SCALING_cluster64.md`, one result object
//! per (scenario, heuristic, threads) leg:
//!
//! ```json
//! {"id": "cluster_64m/PAM_t4", "ns_per_op": 1234.5, "ns_min": 1100.0,
//!  "ns_max": 1500.0, "samples": 4, "events_per_sec": 5678.9}
//! ```
//!
//! Every other performance number — events/s, decision latency and the
//! per-layer costs inside the mapper — belongs to the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`). `--gate` turns the sweep into the
//! multi-core check of [`gate_scaling_suite`].

use hcsim_core::{HeuristicKind, PruningConfig};
use hcsim_sim::{run_simulation, run_simulation_with_churn, SimConfig};
use hcsim_stats::SeedSequence;
use hcsim_workload::{
    cluster_churn, faas_system, specint_cluster, ChurnConfig, FaasConfig, FaasGenerator,
    WorkloadConfig, WorkloadGenerator,
};
use std::path::PathBuf;
use std::time::Instant;

/// One timed scaling leg.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable identifier, `scenario/HEURISTIC_tN`.
    pub id: String,
    /// Mean wall-clock nanoseconds per trial.
    pub ns_per_op: f64,
    /// Fastest sample.
    pub ns_min: f64,
    /// Slowest sample.
    pub ns_max: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Throughput in mapping events per second.
    pub events_per_sec: Option<f64>,
}

/// A named collection of results, serialized by [`render_json`].
#[derive(Debug, Clone)]
pub struct BenchSuite {
    /// Suite name ("scaling").
    pub name: &'static str,
    /// Results in execution order.
    pub results: Vec<BenchResult>,
}

// ---------------------------------------------------------------------------
// Timing harness
// ---------------------------------------------------------------------------

struct Timer {
    samples: usize,
}

impl Timer {
    /// Warms `op` up, then times it once per sample. Returns (mean, min,
    /// max) ns/op over the samples.
    fn run<F: FnMut()>(&self, mut op: F) -> (f64, f64, f64) {
        let warm = Instant::now();
        let mut warm_iters = 0u64;
        while warm.elapsed().as_nanos() < 20_000_000 && warm_iters < 10_000 {
            op();
            warm_iters += 1;
        }

        let mut mins = f64::INFINITY;
        let mut maxs = 0.0f64;
        let mut total = 0.0f64;
        for _ in 0..self.samples {
            let start = Instant::now();
            op();
            let ns = start.elapsed().as_nanos() as f64;
            mins = mins.min(ns);
            maxs = maxs.max(ns);
            total += ns;
        }
        (total / self.samples as f64, mins, maxs)
    }
}

fn result(id: impl Into<String>, timer: &Timer, (mean, min, max): (f64, f64, f64)) -> BenchResult {
    BenchResult {
        id: id.into(),
        ns_per_op: mean,
        ns_min: min,
        ns_max: max,
        samples: timer.samples,
        events_per_sec: None,
    }
}

// ---------------------------------------------------------------------------
// Cluster sweeps
// ---------------------------------------------------------------------------

/// The cluster-scale scenario (arXiv:1905.04456's regime): 64 machines
/// with the arrival rate scaled 8× so the per-machine load matches the
/// 34k level of the 8-machine trials. This is where the per-event scaling
/// term lives — every mapping event rebuilds/scores 64 machine chains —
/// and the threads sweep makes the fan-out's contribution visible. The
/// sweep runs on the persistent worker pool (except `t1`, which stays on
/// the calling thread), so its rows include pool-round dispatch.
///
/// Feeds [`scaling_suite`] (the multi-core scaling table + CI gate). The
/// task count is the SAME in quick and full mode (quick only trims sample
/// counts), so the cluster ids stay comparable from run to run.
fn cluster_sweep(quick: bool, results: &mut Vec<BenchResult>) {
    let seeds = SeedSequence::new(99);
    let cluster_spec = specint_cluster(64, 6, &mut seeds.stream(3));
    let cluster_tasks_n = 250;
    let cluster_gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: cluster_tasks_n,
        oversubscription: 272_000.0,
        ..Default::default()
    });
    let cluster_tasks = cluster_gen.generate(&cluster_spec, &mut seeds.stream(4));
    let cluster_timer = Timer { samples: if quick { 2 } else { 4 } };
    let mut cluster_trial = |kind: HeuristicKind, threads: usize| {
        let mut events = 0u64;
        let timing = cluster_timer.run(|| {
            let mut mapper = kind.build(PruningConfig { threads, ..PruningConfig::default() });
            let mut rng = seeds.stream(5);
            let report = run_simulation(
                &cluster_spec,
                SimConfig::untrimmed(),
                &cluster_tasks,
                &mut mapper,
                &mut rng,
            );
            events = report.mapping_events;
            std::hint::black_box(report.metrics.counted);
        });
        let mut r =
            result(format!("cluster_64m/{}_t{threads}", kind.name()), &cluster_timer, timing);
        r.events_per_sec = Some(events as f64 / (r.ns_per_op / 1e9));
        results.push(r);
    };
    for threads in [1usize, 2, 4, 8] {
        cluster_trial(HeuristicKind::Pam, threads);
    }
    for threads in [1usize, 4] {
        cluster_trial(HeuristicKind::Moc, threads);
    }

    // The same cluster under membership churn: 56 machines at t=0, 8
    // joining mid-run, 6 drains + 4 fails (floor 40) spread over the
    // run's time window. This exercises the full dynamic path — event
    // pipeline, failure requeue, scorer cache release, pool re-gating —
    // at sweep scale, so membership handling on the per-event hot path
    // shows in these rows like any other slowdown.
    let churn_trace = cluster_churn(
        &ChurnConfig {
            num_machines: 64,
            initial_absent: 8,
            drains: 6,
            fails: 4,
            span: 400,
            min_active: 40,
        },
        &mut seeds.stream(6),
    );
    let mut churn_cluster_trial = |kind: HeuristicKind, threads: usize| {
        let mut events = 0u64;
        let timing = cluster_timer.run(|| {
            let mut mapper = kind.build(PruningConfig { threads, ..PruningConfig::default() });
            let mut rng = seeds.stream(5);
            let report = run_simulation_with_churn(
                &cluster_spec,
                SimConfig::untrimmed(),
                &cluster_tasks,
                &churn_trace,
                &mut mapper,
                &mut rng,
            );
            events = report.mapping_events;
            std::hint::black_box(report.metrics.counted);
        });
        let mut r =
            result(format!("cluster_64m_churn/{}_t{threads}", kind.name()), &cluster_timer, timing);
        r.events_per_sec = Some(events as f64 / (r.ns_per_op / 1e9));
        results.push(r);
    };
    for threads in [1usize, 4] {
        churn_cluster_trial(HeuristicKind::Pam, threads);
    }

    // Mega-cluster scenario: 1024 machines (32 score-table shards) with
    // the arrival rate scaled 128× so the per-machine load stays at the
    // 34k level. At this rate arrivals pile onto shared ticks, so the
    // same-tick table-reuse path dominates; the hierarchical bound pass
    // keeps phase-2 candidate work at O(shards-that-can-win) rather than
    // O(machines).
    let mega_spec = specint_cluster(1024, 6, &mut seeds.stream(7));
    let mega_gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: cluster_tasks_n,
        oversubscription: 4_352_000.0,
        ..Default::default()
    });
    let mega_tasks = mega_gen.generate(&mega_spec, &mut seeds.stream(8));
    for threads in [1usize, 4] {
        let mut events = 0u64;
        let timing = cluster_timer.run(|| {
            let mut mapper =
                HeuristicKind::Pam.build(PruningConfig { threads, ..PruningConfig::default() });
            let mut rng = seeds.stream(5);
            let report = run_simulation(
                &mega_spec,
                SimConfig::untrimmed(),
                &mega_tasks,
                &mut mapper,
                &mut rng,
            );
            events = report.mapping_events;
            std::hint::black_box(report.metrics.counted);
        });
        let mut r = result(format!("cluster_1024m/PAM_t{threads}"), &cluster_timer, timing);
        r.events_per_sec = Some(events as f64 / (r.ns_per_op / 1e9));
        results.push(r);
    }

    // Serverless burst scenario (arXiv:1905.04456): a 256-machine FaaS
    // cluster under Zipf-popular, gamma-bursty request arrivals, with the
    // aggregate rate scaled 8× so the per-machine load matches the
    // 32-machine serverless default. Bursty interarrivals (CV² > 1) pile
    // requests onto shared ticks far harder than the smooth batch
    // process, and every same-tick reuse hit must additionally survive
    // the warm-container revision checks (a keep-alive mutation bumps
    // `warm_rev` and invalidates the cached column) — so these rows
    // stress the table-reuse path under its adversarial case.
    let faas_cfg = FaasConfig {
        num_machines: 256,
        num_tasks: cluster_tasks_n,
        oversubscription: 2_800_000.0,
        ..FaasConfig::default()
    };
    let faas_spec = faas_system(&faas_cfg, &mut seeds.stream(9));
    let faas_tasks = FaasGenerator::new(faas_cfg).generate(&faas_spec, &mut seeds.stream(10));
    for threads in [1usize, 4] {
        let mut events = 0u64;
        let timing = cluster_timer.run(|| {
            let mut mapper =
                HeuristicKind::Pam.build(PruningConfig { threads, ..PruningConfig::default() });
            let mut rng = seeds.stream(5);
            let report = run_simulation(
                &faas_spec,
                SimConfig::untrimmed(),
                &faas_tasks,
                &mut mapper,
                &mut rng,
            );
            events = report.mapping_events;
            std::hint::black_box(report.metrics.counted);
        });
        let mut r = result(format!("cluster_faas256/PAM_t{threads}"), &cluster_timer, timing);
        r.events_per_sec = Some(events as f64 / (r.ns_per_op / 1e9));
        results.push(r);
    }
}

// ---------------------------------------------------------------------------
// Scaling table (the `scaling` subcommand)
// ---------------------------------------------------------------------------

/// Every cluster threads sweep, as one suite — what the CI `scaling` job
/// runs on a multi-core runner to capture the real-speedup table.
#[must_use]
pub fn scaling_suite(quick: bool) -> BenchSuite {
    let mut results = Vec::new();
    cluster_sweep(quick, &mut results);
    BenchSuite { name: "scaling", results }
}

/// Options for [`run_scaling`].
#[derive(Debug, Clone)]
pub struct ScalingOptions {
    /// Reduced sample counts for smoke runs.
    pub quick: bool,
    /// Directory to write `SCALING_cluster64.{json,md}` into.
    pub out_dir: PathBuf,
    /// Fail unless every swept scenario's t=4 leg (PAM, MOC, churn and
    /// 1024m) runs within [`SCALING_GATE_TOLERANCE`] of its t=1 leg or
    /// faster (see [`gate_scaling_suite`]) — the real-speedup gate; only
    /// meaningful on a host with ≥4 cores.
    pub gate: bool,
}

/// Renders the scaling sweep as a Markdown table: one row per
/// (heuristic, threads), with events/sec and the speedup over that
/// heuristic's t=1 leg.
#[must_use]
pub fn render_scaling_markdown(suite: &BenchSuite) -> String {
    let mut out = String::from(
        "# cluster scaling table\n\n\
         cluster_64m: 64 machines, 8x arrival rate, 250 tasks; PAM\n\
         (t=1/2/4/8) and MOC (t=1/4) threads sweeps on the persistent\n\
         worker pool (t1 = sequential fast path). The\n\
         cluster_64m_churn rows run the same cluster under membership\n\
         churn (8 late joins, 6 drains, 4 fails with task requeue). The\n\
         cluster_1024m rows run the mega-cluster scenario (1024 machines,\n\
         128x arrival rate, 32 score-table shards). The cluster_faas256\n\
         rows run the serverless burst scenario (256 machines,\n\
         Zipf-popular bursty functions, cold starts + keep-alive). Every\n\
         scenario's speedups compare against its own t1 leg.\n\n\
         | id | threads | ns/op (best) | events/sec | speedup vs t1 |\n\
         |---|---|---|---|---|\n",
    );
    for r in &suite.results {
        let (kind, threads) = split_cluster_id(&r.id);
        let speedup = suite
            .results
            .iter()
            .find(|b| split_cluster_id(&b.id) == (kind, 1))
            .map_or("\u{2014}".into(), |b| format!("{:.2}x", b.ns_min / r.ns_min));
        out.push_str(&format!(
            "| {} | {} | {:.0} | {:.0} | {} |\n",
            r.id,
            threads,
            r.ns_min,
            r.events_per_sec.unwrap_or(0.0),
            speedup,
        ));
    }
    out
}

/// Splits `cluster_64m/PAM_t4` into `("cluster_64m/PAM", 4)`. Keeping the
/// scenario prefix in the key is what stops the churn rows
/// (`cluster_64m_churn/PAM_t1`) from aliasing the static rows in the
/// per-leg t1 lookups.
fn split_cluster_id(id: &str) -> (&str, usize) {
    match id.rsplit_once("_t") {
        Some((kind, t)) => (kind, t.parse().unwrap_or(0)),
        None => (id, 0),
    }
}

/// Noise band for the scaling gate: the gate fails only when a swept
/// scenario's t=4 best sample is more than this factor of its t=1 best
/// sample. A healthy
/// multi-core host puts t4 *well below* t1 (the fan-out covers most of
/// the event) and a scaling regression puts it at 2× and beyond, so the
/// 5% band changes nothing about what the gate catches — it only keeps a
/// parity-tie under shared-runner contention from flapping CI red.
pub const SCALING_GATE_TOLERANCE: f64 = 1.05;

/// Runs the scaling sweep, writes `SCALING_cluster64.json` /
/// `SCALING_cluster64.md` into the output directory, and — with `gate` —
/// verifies that every swept scenario's t=4 leg keeps up with its t=1 leg
/// (by best sample, the statistic robust to CI load spikes; see
/// [`gate_scaling_suite`]).
///
/// # Errors
///
/// Returns human-readable messages when the gate fails or output cannot
/// be written.
pub fn run_scaling(opts: &ScalingOptions) -> Result<(), Vec<String>> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| vec![format!("cannot create {}: {e}", opts.out_dir.display())])?;
    let suite = scaling_suite(opts.quick);
    for r in &suite.results {
        let eps = r.events_per_sec.map_or(String::new(), |e| format!("  [{e:.0} events/s]"));
        eprintln!("  {:<32} {:>12.1} ns/op{eps}", r.id, r.ns_per_op);
    }
    let json_path = opts.out_dir.join("SCALING_cluster64.json");
    std::fs::write(&json_path, render_json(&suite, opts.quick))
        .map_err(|e| vec![format!("cannot write {}: {e}", json_path.display())])?;
    let md = render_scaling_markdown(&suite);
    let md_path = opts.out_dir.join("SCALING_cluster64.md");
    std::fs::write(&md_path, &md)
        .map_err(|e| vec![format!("cannot write {}: {e}", md_path.display())])?;
    eprintln!("  wrote {} and {}", json_path.display(), md_path.display());
    print!("{md}");
    if !opts.gate {
        return Ok(());
    }
    gate_scaling_suite(&suite)
}

/// The `--gate` check over a scaling sweep: every swept scenario prefix
/// (`cluster_64m/PAM`, `cluster_64m/MOC`, `cluster_64m_churn/PAM`,
/// `cluster_1024m/PAM`, …) that has both a t1 and a t4 leg must show the
/// t4 best sample beating the t1 best sample (within
/// [`SCALING_GATE_TOLERANCE`]). All failures are reported, not just the
/// first; prefixes with only one leg are skipped; a sweep in which
/// *nothing* was gateable is itself a failure — that is how the gate
/// stays honest when rows get renamed.
///
/// # Errors
///
/// One human-readable message per failed (or missing) scenario gate.
pub fn gate_scaling_suite(suite: &BenchSuite) -> Result<(), Vec<String>> {
    let best = |kind: &str, t: usize| {
        suite.results.iter().find(|r| split_cluster_id(&r.id) == (kind, t)).map(|r| r.ns_min)
    };
    let mut prefixes: Vec<&str> = Vec::new();
    for r in &suite.results {
        let (kind, _) = split_cluster_id(&r.id);
        if !prefixes.contains(&kind) {
            prefixes.push(kind);
        }
    }
    let mut failures = Vec::new();
    let mut gated = 0usize;
    for kind in prefixes {
        let (Some(t1), Some(t4)) = (best(kind, 1), best(kind, 4)) else { continue };
        gated += 1;
        if t4 < t1 * SCALING_GATE_TOLERANCE {
            eprintln!("scaling gate: {kind} t4 is {:.2}x the speed of t1 — pass", t1 / t4);
        } else {
            failures.push(format!(
                "scaling gate: {kind} t4 ({t4:.0} ns/op best) is not faster than t1 ({t1:.0} \
                 ns/op best) — the fan-out is not yielding real parallel speedup on this host"
            ));
        }
    }
    if gated == 0 {
        failures.push(
            "scaling gate: no scenario had both t1 and t4 rows to gate — the sweep ids have \
             drifted"
                .to_string(),
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Renders a suite as the `SCALING_cluster64.json` document.
#[must_use]
pub fn render_json(suite: &BenchSuite, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"hcsim-bench-v1\",\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", suite.name));
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str("  \"results\": [\n");
    for (i, r) in suite.results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_op\": {:.1}, \"ns_min\": {:.1}, \"ns_max\": {:.1}, \"samples\": {}",
            r.id, r.ns_per_op, r.ns_min, r.ns_max, r.samples
        ));
        if let Some(eps) = r.events_per_sec {
            out.push_str(&format!(", \"events_per_sec\": {eps:.1}"));
        }
        out.push_str(if i + 1 == suite.results.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_gate_covers_every_swept_prefix() {
        let mk = |id: &str, min: f64| BenchResult {
            id: id.into(),
            ns_per_op: min,
            ns_min: min,
            ns_max: min,
            samples: 2,
            events_per_sec: None,
        };
        // Healthy sweep: every prefix's t4 beats its t1; a lone-leg row
        // is skipped, not failed.
        let healthy = BenchSuite {
            name: "scaling",
            results: vec![
                mk("cluster_64m/PAM_t1", 100.0),
                mk("cluster_64m/PAM_t4", 40.0),
                mk("cluster_64m/MOC_t1", 90.0),
                mk("cluster_64m/MOC_t4", 50.0),
                mk("cluster_64m_churn/PAM_t1", 110.0),
                mk("cluster_64m_churn/PAM_t4", 60.0),
                mk("cluster_1024m/PAM_t1", 500.0),
                mk("cluster_1024m/PAM_t4", 200.0),
                mk("cluster_1024m_lone/PAM_t4", 400.0),
            ],
        };
        assert!(gate_scaling_suite(&healthy).is_ok());
        // A churn-scaling regression — the case the old hard-coded
        // cluster_64m/PAM gate let through — must now fail, and the 1024m
        // regression must be reported alongside it (all failures listed).
        let mut regressed = healthy.clone();
        regressed.results[5].ns_min = 150.0; // churn t4 slower than t1
        regressed.results[7].ns_min = 600.0; // 1024m t4 slower than t1
        let failures = gate_scaling_suite(&regressed).unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("cluster_64m_churn/PAM"));
        assert!(failures[1].contains("cluster_1024m/PAM"));
        // A sweep whose ids drifted until nothing is gateable fails too.
        let empty = BenchSuite { name: "scaling", results: vec![mk("cluster_64m/PAM_t4", 1.0)] };
        let failures = gate_scaling_suite(&empty).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no scenario"), "{failures:?}");
    }
}
