//! `hcsim-exp work`: the work digest. A reduced mirror of each of the
//! repo benchmark's five PAM workloads runs at seed 2019, and what PAM's
//! score table and tail caches did ([`WorkCounters`]) and what the
//! engine's per-step scans did ([`EngineWork`]) is printed as JSON with
//! one FNV-1a `work_digest` over every counter. The counters are
//! integers that repeat exactly on every run and every host, so
//! `crates/exp/work_digest.json` pins them: a change that claims less
//! work re-pins it and says which counters fell, and one that claims no
//! change in work proves it with `--check`.
//!
//! Each mirror keeps its workload's system, oversubscription, mapper
//! configuration, driver and seed layout (system stream 0 of seed 2019;
//! trial `i` from child `100 + i`: tasks on stream 0, execution times on
//! stream 1, churn on stream 2), with fewer trials.

use hcsim_core::{AdaptiveConfig, Pam, PruningConfig, WorkCounters};
use hcsim_model::{ChurnTrace, SystemSpec, Task};
use hcsim_service::{bounded, serve, FaultPlan, ServiceConfig, ServiceExit};
use hcsim_sim::{
    ChurnSource, EngineWork, EventSource, Mapper, SimConfig, SimSession, TaskTraceSource,
};
use hcsim_stats::SeedSequence;
use hcsim_workload::{
    cluster_churn, faas_system, specint_cluster, specint_system, ChurnConfig, FaasConfig,
    FaasGenerator, WorkloadConfig, WorkloadGenerator,
};
use std::fmt::Write as _;

/// The seed every mirror runs at: the one `benchmark/golden.json` pins.
pub const SEED: u64 = 2019;

/// The pinned output of [`render`] over [`run`].
pub const PIN: &str = include_str!("../work_digest.json");

/// The machine park and arrivals of one mirror.
#[derive(Debug, Clone, Copy)]
enum System {
    /// `specint_system(6)`: the paper's 8 machines.
    Paper { oversubscription: f64 },
    /// `specint_cluster(machines, 6)`.
    Cluster { machines: usize, oversubscription: f64 },
    /// `faas_system` on 256 machines.
    Faas,
}

/// One benchmark workload, reduced.
#[derive(Debug, Clone, Copy)]
struct Mirror {
    name: &'static str,
    system: System,
    /// PAM's fan-out width.
    threads: usize,
    /// Through `hcsim_service::serve` with churn and adaptive PAM, rather
    /// than a `SimSession` stepped to the end.
    service: bool,
    trials: usize,
    tasks: usize,
}

const CLUSTER: System = System::Cluster { machines: 256, oversubscription: 1_088_000.0 };

/// The five PAM workloads, in the benchmark's order. The cluster mirror
/// keeps the full 2 000 tasks: fewer would not outnumber its 1 536 queue
/// slots.
const MIRRORS: [Mirror; 5] = [
    Mirror {
        name: "paper_8m_pam",
        system: System::Paper { oversubscription: 34_000.0 },
        threads: 1,
        service: false,
        trials: 4,
        tasks: 800,
    },
    Mirror {
        name: "cluster_256m_pam",
        system: CLUSTER,
        threads: 1,
        service: false,
        trials: 1,
        tasks: 2_000,
    },
    Mirror {
        name: "cluster_256m_pam_t2",
        system: CLUSTER,
        threads: 2,
        service: false,
        trials: 1,
        tasks: 2_000,
    },
    Mirror {
        name: "faas_256m_pam",
        system: System::Faas,
        threads: 1,
        service: false,
        trials: 2,
        tasks: 800,
    },
    Mirror {
        name: "service_64m_churn",
        system: System::Cluster { machines: 64, oversubscription: 272_000.0 },
        threads: 1,
        service: true,
        trials: 2,
        tasks: 800,
    },
];

/// The service mirror's arrival channel capacity and backlog bound (the
/// benchmark's).
const SERVICE_BOUND: usize = 64;

/// What one mirror's trials did in all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkRow {
    /// The benchmark workload mirrored.
    pub name: &'static str,
    /// PAM mapping events, the denominator of every per-event figure.
    pub mapping_events: u64,
    /// The table's and the tail caches' counters
    /// ([`WorkCounters::fields`]), summed over trials.
    pub work: [(&'static str, u64); 13],
    /// The engine's scan counters ([`EngineWork::fields`]), summed over
    /// trials.
    pub engine: [(&'static str, u64); 6],
}

/// Runs every mirror at [`SEED`].
#[must_use]
pub fn run() -> Vec<WorkRow> {
    MIRRORS.iter().map(run_mirror).collect()
}

fn run_mirror(mirror: &Mirror) -> WorkRow {
    let faas = FaasConfig {
        num_machines: 256,
        num_tasks: mirror.tasks,
        oversubscription: 2_800_000.0,
        ..FaasConfig::default()
    };
    let rng = &mut SeedSequence::new(SEED).stream(0);
    let spec = match mirror.system {
        System::Paper { .. } => specint_system(6, rng),
        System::Cluster { machines, .. } => specint_cluster(machines, 6, rng),
        System::Faas => faas_system(&faas, rng),
    };
    let seeds = SeedSequence::new(SEED);
    let work = WorkCounters::default().fields();
    let engine = EngineWork::default().fields();
    let mut row = WorkRow { name: mirror.name, mapping_events: 0, work, engine };
    for i in 0..mirror.trials {
        let trial = seeds.child(100 + i as u64);
        let tasks = match mirror.system {
            System::Paper { oversubscription } | System::Cluster { oversubscription, .. } => {
                WorkloadGenerator::new(WorkloadConfig {
                    num_tasks: mirror.tasks,
                    oversubscription,
                    ..WorkloadConfig::default()
                })
                .generate(&spec, &mut trial.stream(0))
            }
            System::Faas => FaasGenerator::new(faas).generate(&spec, &mut trial.stream(0)),
        };
        let adaptive = mirror.service.then(AdaptiveConfig::default);
        let mut pam = Pam::new(PruningConfig {
            threads: mirror.threads,
            adaptive,
            ..PruningConfig::default()
        });
        let (mapping_events, engine) = if mirror.service {
            let churn = cluster_churn(
                &ChurnConfig {
                    num_machines: spec.num_machines(),
                    initial_absent: 8,
                    drains: 6,
                    fails: 4,
                    span: tasks.last().map_or(1, |t| t.arrival.max(1)),
                    min_active: 40,
                },
                &mut trial.stream(2),
            );
            serve_trial(&spec, &tasks, &churn, &trial, &mut pam)
        } else {
            step_trial(&spec, &tasks, &trial, &mut pam)
        };
        pam.on_shutdown();
        row.mapping_events += mapping_events;
        for (sum, (_, add)) in row.work.iter_mut().zip(pam.work().fields()) {
            sum.1 += add;
        }
        for (sum, (_, add)) in row.engine.iter_mut().zip(engine.fields()) {
            sum.1 += add;
        }
    }
    row
}

/// Steps one trial to the end; returns its mapping events and engine
/// work.
fn step_trial(
    spec: &SystemSpec,
    tasks: &[Task],
    trial: &SeedSequence,
    pam: &mut Pam,
) -> (u64, EngineWork) {
    let mut rng = trial.stream(1);
    let mut source = TaskTraceSource::new(tasks);
    let mut sources: Vec<&mut dyn EventSource> = vec![&mut source];
    let mut session = SimSession::new(spec, SimConfig::untrimmed(), &mut sources, pam, &mut rng);
    while session.step() {}
    let engine = session.engine_work();
    (session.finish().mapping_events, engine)
}

/// Serves one trial in fast-forward, fed by one feeder thread; returns
/// its mapping events and engine work.
fn serve_trial(
    spec: &SystemSpec,
    tasks: &[Task],
    churn: &ChurnTrace,
    trial: &SeedSequence,
    pam: &mut Pam,
) -> (u64, EngineWork) {
    let mut rng = trial.stream(1);
    let (tx, rx) = bounded::<Task>(SERVICE_BOUND);
    let exit = std::thread::scope(|s| {
        s.spawn(move || {
            for task in tasks {
                if tx.send(*task).is_err() {
                    break;
                }
            }
        });
        let mut churn_source = ChurnSource::new(churn);
        serve(
            spec,
            SimConfig::untrimmed(),
            &ServiceConfig { backlog_bound: SERVICE_BOUND },
            &FaultPlan::none(),
            &mut [&mut churn_source],
            rx,
            pam,
            &mut rng,
        )
    });
    match exit {
        ServiceExit::Completed(report) => (report.sim.mapping_events, report.engine_work),
        ServiceExit::Killed { .. } => panic!("the no-fault plan killed the service"),
    }
}

/// FNV-1a over every row's name and counters, in order.
#[must_use]
pub fn digest(rows: &[WorkRow]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in rows {
        eat(row.name.as_bytes());
        eat(&row.mapping_events.to_le_bytes());
        for (name, value) in row.work.iter().chain(&row.engine) {
            eat(name.as_bytes());
            eat(&value.to_le_bytes());
        }
    }
    hash
}

/// The rows as the pin's JSON: the seed, the digest, then every counter
/// per workload, one per line (the table's, then the engine's).
#[must_use]
pub fn render(rows: &[WorkRow]) -> String {
    let mut out =
        format!("{{\n  \"seed\": {SEED},\n  \"work_digest\": \"{:016x}\",\n", digest(rows));
    out.push_str("  \"workloads\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", row.name);
        let _ = write!(out, "      \"mapping_events\": {}", row.mapping_events);
        for (name, value) in row.work.iter().chain(&row.engine) {
            let _ = write!(out, ",\n      \"{name}\": {value}");
        }
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "\n    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// Compares a fresh [`render`] against `pinned`: `Err` lists every line
/// that differs, the pinned value first.
///
/// # Errors
///
/// When any line differs.
pub fn check(fresh: &str, pinned: &str) -> Result<(), String> {
    let (mut fresh_lines, mut pinned_lines) = (fresh.lines(), pinned.lines());
    let mut diff = String::new();
    loop {
        match (pinned_lines.next(), fresh_lines.next()) {
            (None, None) => break,
            (old, new) if old != new => {
                let _ = writeln!(diff, "- {}\n+ {}", old.unwrap_or(""), new.unwrap_or(""));
            }
            _ => {}
        }
    }
    if diff.is_empty() {
        Ok(())
    } else {
        Err(format!("the work digest moved (pinned -, fresh +):\n{diff}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, scored: u64) -> WorkRow {
        let work = WorkCounters { pairs_scored: scored, ..WorkCounters::default() }.fields();
        WorkRow { name, mapping_events: 10, work, engine: EngineWork::default().fields() }
    }

    #[test]
    fn digest_reads_every_counter_and_name() {
        let base = [row("a", 1), row("b", 2)];
        assert_eq!(digest(&base), digest(&[row("a", 1), row("b", 2)]));
        assert_ne!(digest(&base), digest(&[row("a", 1), row("b", 3)]));
        assert_ne!(digest(&base), digest(&[row("a", 1), row("c", 2)]));
        let mut cut = base;
        let pairs_cut = cut[1].work.iter_mut().find(|(name, _)| *name == "pairs_cut");
        pairs_cut.expect("a counter").1 = 1;
        assert_ne!(digest(&base), digest(&cut));
        let mut culled = base;
        culled[0].engine[0].1 = 1;
        assert_ne!(digest(&base), digest(&culled), "the engine counters are digested too");
    }

    #[test]
    fn the_pin_is_a_rendering_and_check_names_the_moved_lines() {
        let rows = [row("a", 1), row("b", 2)];
        let text = render(&rows);
        assert!(text.contains(&format!("\"work_digest\": \"{:016x}\"", digest(&rows))));
        assert!(text.contains("\"pairs_cut\": 0"));
        assert_eq!(check(&text, &text), Ok(()));
        let moved = render(&[row("a", 1), row("b", 5)]);
        let err = check(&moved, &text).unwrap_err();
        assert!(
            err.contains("-       \"pairs_scored\": 2,\n+       \"pairs_scored\": 5,"),
            "{err}"
        );
        assert!(err.contains("work_digest"), "{err}");
        // The committed pin lists the five mirrors in order.
        let names: Vec<&str> = MIRRORS.iter().map(|m| m.name).collect();
        let mut at = 0;
        for name in names {
            at += PIN[at..].find(&format!("\"{name}\"")).expect("every mirror is pinned");
        }
    }
}
