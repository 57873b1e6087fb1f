//! Cluster-churn trace generation.
//!
//! Mirrors [`crate::WorkloadGenerator`] for the *machine* side of
//! dynamism: where the task generator produces arrivals over a span, this
//! module produces a [`ChurnTrace`] of machines joining, draining, and
//! failing over the same span — the capacity transients the probabilistic
//! pruning mechanism is supposed to absorb (the serverless follow-up,
//! arXiv:1905.04456, treats resource membership exactly this way).
//!
//! Generation is a small state machine so every emitted event is legal by
//! construction: joins target machines that are currently absent, drains
//! and fails target current members, and the active count never falls
//! below [`ChurnConfig::min_active`]. Event times are uniform over
//! `[1, span]` and the whole trace is a pure function of `(config, rng
//! state)`, like every other generator in this crate.

use hcsim_model::{ChurnEvent, ChurnKind, ChurnTrace, MachineId, Time};

/// Parameters of one churn timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Size of the machine universe (the system spec's machine count).
    pub num_machines: usize,
    /// Machines absent at `t = 0`; each joins once during the span, so
    /// this is also the number of [`ChurnKind::Join`] events.
    pub initial_absent: usize,
    /// Planned removals ([`ChurnKind::Drain`]) to attempt over the span.
    pub drains: usize,
    /// Failures ([`ChurnKind::Fail`]) to attempt over the span.
    pub fails: usize,
    /// Window the events are spread over (align with
    /// [`crate::WorkloadConfig::span`] so churn overlaps the arrivals).
    pub span: Time,
    /// Floor on the active-member count: drains/fails that would sink the
    /// cluster below this are skipped (the trace then carries fewer than
    /// `drains + fails` removal events).
    pub min_active: usize,
}

impl ChurnConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics when the universe is empty, the span is zero, more machines
    /// are absent than exist, or the initial membership already violates
    /// `min_active`.
    pub fn validate(&self) {
        assert!(self.num_machines >= 1, "churn needs a machine universe");
        assert!(self.span > 0, "span must be positive");
        assert!(
            self.initial_absent <= self.num_machines,
            "cannot start with more machines absent than exist"
        );
        assert!(
            self.num_machines - self.initial_absent >= self.min_active,
            "initial membership below min_active"
        );
    }
}

/// Generates a churn timeline for a cluster of `config.num_machines`
/// machines: the *last* `initial_absent` machine ids start offline (the
/// low ids — the ones small tests and paper-sized runs touch first — stay
/// active), each joins once at a uniform time, and `drains`/`fails`
/// removals hit uniformly-chosen current members, skipped when the
/// [`ChurnConfig::min_active`] floor would be violated.
///
/// Deterministic for a given `(config, rng state)` pair.
///
/// # Panics
///
/// Panics when the configuration is invalid (see [`ChurnConfig::validate`]).
pub fn cluster_churn<R: rand::Rng>(config: &ChurnConfig, rng: &mut R) -> ChurnTrace {
    config.validate();
    let n = config.num_machines;
    let first_absent = n - config.initial_absent;
    let initially_offline: Vec<MachineId> = (first_absent..n).map(MachineId::from).collect();

    // Draw the intent list (kind only), each with a uniform time, then
    // order by (time, draw order) and resolve targets statefully.
    let mut intents: Vec<(Time, u64, ChurnKind)> = Vec::new();
    let mut draw = 0u64;
    let mut push = |intents: &mut Vec<(Time, u64, ChurnKind)>, rng: &mut R, kind| {
        let t = rng.gen_range(1..=config.span);
        intents.push((t, draw, kind));
        draw += 1;
    };
    for _ in 0..config.initial_absent {
        push(&mut intents, rng, ChurnKind::Join);
    }
    for _ in 0..config.drains {
        push(&mut intents, rng, ChurnKind::Drain);
    }
    for _ in 0..config.fails {
        push(&mut intents, rng, ChurnKind::Fail);
    }
    intents.sort_by_key(|&(t, seq, _)| (t, seq));

    // Member state machine: joins pop the absent pool in id order (the
    // machines that start offline), removals sample the current members.
    let mut absent: Vec<MachineId> = initially_offline.clone();
    let mut members: Vec<MachineId> = (0..first_absent).map(MachineId::from).collect();
    let mut events = Vec::with_capacity(intents.len());
    for (time, _, kind) in intents {
        let machine = match kind {
            ChurnKind::Join => {
                if absent.is_empty() {
                    continue;
                }
                let m = absent.remove(0);
                members.push(m);
                m
            }
            ChurnKind::Drain | ChurnKind::Fail => {
                if members.len() <= config.min_active {
                    continue; // would sink below the floor: skip
                }
                let idx = rng.gen_range(0..members.len());
                // Removed members do not return to the absent pool: a
                // drained/failed machine stays gone unless the trace
                // already scheduled its join (joins only target the
                // initially-absent set).
                members.swap_remove(idx)
            }
        };
        events.push(ChurnEvent { time, machine, kind });
    }

    let trace = ChurnTrace { initially_offline, events };
    trace.validate(n);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_stats::SeedSequence;

    fn config() -> ChurnConfig {
        ChurnConfig {
            num_machines: 16,
            initial_absent: 4,
            drains: 3,
            fails: 3,
            span: 10_000,
            min_active: 4,
        }
    }

    #[test]
    fn trace_is_legal_by_construction() {
        let mut rng = SeedSequence::new(1).stream(0);
        let trace = cluster_churn(&config(), &mut rng);
        assert_eq!(trace.initially_offline.len(), 4);
        // Replay the trace and check every event is legal.
        let mut active: Vec<bool> = (0..16).map(|m| m < 12).collect();
        let mut count = 12usize;
        for e in &trace.events {
            match e.kind {
                ChurnKind::Join => {
                    assert!(!active[e.machine.index()], "join of a member: {e:?}");
                    active[e.machine.index()] = true;
                    count += 1;
                }
                ChurnKind::Drain | ChurnKind::Fail => {
                    assert!(active[e.machine.index()], "removal of a non-member: {e:?}");
                    active[e.machine.index()] = false;
                    count -= 1;
                    assert!(count >= 4, "min_active floor violated");
                }
            }
        }
        let joins = trace.events.iter().filter(|e| e.kind == ChurnKind::Join).count();
        assert_eq!(joins, 4, "every absent machine joins");
    }

    #[test]
    fn events_are_time_sorted_within_span() {
        let mut rng = SeedSequence::new(2).stream(0);
        let trace = cluster_churn(&config(), &mut rng);
        assert!(trace.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(trace.events.iter().all(|e| e.time >= 1 && e.time <= 10_000));
    }

    #[test]
    fn deterministic_per_stream() {
        let mut a = SeedSequence::new(3).stream(0);
        let mut b = SeedSequence::new(3).stream(0);
        assert_eq!(cluster_churn(&config(), &mut a), cluster_churn(&config(), &mut b));
        let mut c = SeedSequence::new(3).stream(1);
        assert_ne!(cluster_churn(&config(), &mut a), cluster_churn(&config(), &mut c));
    }

    #[test]
    fn min_active_floor_limits_removals() {
        // 8 machines, floor 6: at most 2 of the 10 requested removals can
        // land.
        let cfg = ChurnConfig {
            num_machines: 8,
            initial_absent: 0,
            drains: 5,
            fails: 5,
            span: 1_000,
            min_active: 6,
        };
        let mut rng = SeedSequence::new(4).stream(0);
        let trace = cluster_churn(&cfg, &mut rng);
        assert!(trace.events.len() <= 2, "{:?}", trace.events);
    }

    #[test]
    fn low_ids_stay_initially_active() {
        let mut rng = SeedSequence::new(5).stream(0);
        let trace = cluster_churn(&config(), &mut rng);
        let offline: Vec<usize> = trace.initially_offline.iter().map(|m| m.index()).collect();
        assert_eq!(offline, vec![12, 13, 14, 15]);
    }

    #[test]
    #[should_panic(expected = "min_active")]
    fn initial_membership_below_floor_rejected() {
        let cfg = ChurnConfig { initial_absent: 14, ..config() };
        let mut rng = SeedSequence::new(6).stream(0);
        let _ = cluster_churn(&cfg, &mut rng);
    }
}
