//! The engine's step invariants, checked from outside the event loop.

use super::cache::earliest_deadline;
use super::{Engine, Event, SimEvent, SimSession};
use crate::machine::{MachineLifecycle, MachineState, WarmContainer};
use crate::mapper::Mapper;
use hcsim_model::{MachineId, TaskTypeId, Time};
use std::cmp::Reverse;

/// Checks the engine's invariants between steps (re-exported by
/// [`crate::testkit`]; the engine's own unit tests run it after every
/// step). Feed it the session after each [`SimSession::step`]; a
/// violation panics, naming the invariant:
///
/// * every task that has entered the engine — an `Arrival` event on the
///   heap, a batch entry, a queue entry or a terminal record — is in
///   exactly one of those places, and one seen before has not vanished:
///   arrivals equal terminal plus in-system tasks, and no task is
///   resident twice;
/// * under a cold-start model a machine holds an `IN_USE` warm pin
///   exactly for the type it executes; without one, no warm containers;
/// * run tokens never decrease;
/// * a stale `Completion` (its token no longer the machine's) changes no
///   machine, and a stale `ContainerExpiry` (the container was re-pinned
///   or its clock restarted) removes no container;
/// * `warm_rev` never decreases, and moves whenever the warm set does
///   (within one step the set may change and change back, which moves
///   `warm_rev` and leaves the set as it was);
/// * no machine is idle with pending work, and no draining machine is
///   idle — what lets the start and drain passes visit only the machines
///   a step touched;
/// * the engine's per-step caches match a recount: nothing is left
///   touched, the draining set is exactly the draining machines, each
///   machine's free slots and earliest pending deadline are its own, the
///   free-slot total is their sum, and the pending and batch deadline
///   bounds are at most the minimum they bound.
#[derive(Debug, Default)]
pub struct StepChecker {
    /// Per task slot: whether the task was somewhere at the last check.
    seen: Vec<bool>,
    /// Per machine at the last check: version, run token, warm_rev and
    /// warm set.
    machines: Vec<(u64, u64, u64, Vec<WarmContainer>)>,
    /// The event due next at the last check, if it was stale then.
    stale_next: Option<Event>,
}

impl StepChecker {
    /// A checker that has seen nothing yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks `session` against the invariants and against what the last
    /// call saw.
    ///
    /// # Panics
    ///
    /// Panics, naming the invariant, at the first violation.
    pub fn check<M: Mapper, R: rand::Rng>(&mut self, session: &SimSession<'_, M, R>) {
        self.check_engine(&session.engine);
    }

    pub(super) fn check_engine<M: Mapper, R: rand::Rng>(&mut self, engine: &Engine<'_, M, R>) {
        let (now, machines) = (engine.now, &engine.machines);
        let seen = |m: &MachineState| {
            (m.version(), m.run_token, m.warm_rev(), m.warm_containers().to_vec())
        };
        if self.machines.len() != machines.len() {
            self.machines = machines.iter().map(seen).collect();
        }
        // The stale event due at the last check, if it was the one
        // processed since, must have changed nothing it targets.
        if let Some(event) = self.stale_next.take() {
            let processed = !engine.events.iter().any(|Reverse(e)| e.seq == event.seq);
            match event.kind {
                SimEvent::Completion { machine, .. } if processed => assert!(
                    machines
                        .iter()
                        .zip(&self.machines)
                        .all(|(m, s)| (m.version(), m.run_token) == (s.0, s.1)),
                    "{now}: a stale completion on {machine} acted"
                ),
                SimEvent::ContainerExpiry { machine: m, type_id } if processed => {
                    let state = &machines[m.index()];
                    assert!(
                        state.lifecycle() == MachineLifecycle::Offline
                            || warm_deadline(state, type_id).is_some(),
                        "{now}: a stale expiry reclaimed {m}'s container for {type_id:?}"
                    );
                }
                _ => {}
            }
        }
        self.check_residency(engine);
        check_caches(engine);
        for (m, (machine, last)) in machines.iter().zip(&mut self.machines).enumerate() {
            let m = MachineId::from(m);
            let now_seen = seen(machine);
            assert!(now_seen.1 >= last.1, "{now}: run token of {m} went backwards");
            assert!(now_seen.2 >= last.2, "{now}: warm_rev of {m} went backwards");
            assert!(
                now_seen.2 != last.2 || now_seen.3 == last.3,
                "{now}: warm set of {m} changed without a warm_rev bump"
            );
            let mut pins = now_seen.3.iter().filter(|c| c.expires_at == WarmContainer::IN_USE);
            if engine.spec.coldstart.is_some() {
                assert_eq!(
                    (pins.next().map(|c| c.type_id), pins.next()),
                    (machine.executing().map(|e| e.task.type_id), None),
                    "{now}: {m}'s IN_USE pins are not exactly its executing type"
                );
            } else {
                assert!(now_seen.3.is_empty(), "{now}: warm container on {m}, no cold starts");
            }
            *last = now_seen;
        }
        self.stale_next = engine.events.peek().map(|Reverse(e)| *e).filter(|e| match e.kind {
            SimEvent::Completion { machine, token, .. } => {
                machines[machine.index()].run_token != token
            }
            SimEvent::ContainerExpiry { machine, type_id } => {
                warm_deadline(&machines[machine.index()], type_id).is_some_and(|at| at != e.time)
            }
            _ => false,
        });
    }

    /// Every task is in at most one place, and one that was somewhere at
    /// the last check still is.
    fn check_residency<M: Mapper, R: rand::Rng>(&mut self, engine: &Engine<'_, M, R>) {
        let now = engine.now;
        let mut places = vec![0u8; engine.records.len()];
        let arrivals = engine.events.iter().filter_map(|Reverse(e)| match e.kind {
            SimEvent::Arrival(task) => Some(task.id),
            _ => None,
        });
        let queued = engine.machines.iter().flat_map(|m| m.queued_tasks().map(|t| t.id));
        let terminal = engine.records.iter().flatten().map(|r| r.task.id);
        for id in arrivals.chain(engine.batch.iter().map(|t| t.id)).chain(queued).chain(terminal) {
            places[id.index()] += 1;
            assert!(places[id.index()] == 1, "{now}: task {id} is in two places at once");
        }
        self.seen.resize(places.len(), false);
        for (i, (&count, seen)) in places.iter().zip(&mut self.seen).enumerate() {
            assert!(count == 1 || !*seen, "{now}: task {i} left the system without a record");
            *seen = count == 1;
        }
    }
}

/// Whether the next event's expiry cull must remove a queued task: some
/// machine holds a pending task whose deadline the next event's time
/// passes. A restore test snapshots at such a step, so that the restored
/// engine culls it only if it rebuilt its pending-deadline cache.
#[must_use]
pub fn pending_expires_next<M: Mapper, R: rand::Rng>(session: &SimSession<'_, M, R>) -> bool {
    let engine = &session.engine;
    let Some(Reverse(next)) = engine.events.peek() else { return false };
    engine.machines.iter().flat_map(MachineState::pending).any(|t| t.is_expired_at(next.time))
}

/// The per-step caches against a recount from the machines and the batch.
fn check_caches<M: Mapper, R: rand::Rng>(engine: &Engine<'_, M, R>) {
    let (now, cache) = (engine.now, &engine.cache);
    assert!(cache.touched.is_empty(), "{now}: machines left touched after the step");
    for (i, machine) in engine.machines.iter().enumerate() {
        let m = MachineId::from(i);
        assert!(
            machine.executing().is_some() || machine.pending().len() == 0,
            "{now}: {m} is idle with pending work"
        );
        let draining = machine.lifecycle() == MachineLifecycle::Draining;
        assert!(!(draining && machine.is_idle()), "{now}: draining {m} is idle");
        assert_eq!(cache.free[i], machine.free_slots(), "{now}: cached free slots of {m}");
        let earliest = earliest_deadline(machine.pending());
        assert_eq!(cache.earliest[i], earliest, "{now}: cached earliest deadline of {m}");
    }
    let draining: Vec<usize> = cache.draining.iter().collect();
    let expected: Vec<usize> = (0..engine.machines.len())
        .filter(|&i| engine.machines[i].lifecycle() == MachineLifecycle::Draining)
        .collect();
    assert_eq!(draining, expected, "{now}: the draining set");
    let free: usize = engine.machines.iter().map(MachineState::free_slots).sum();
    assert_eq!(cache.free_total, free, "{now}: the free-slot total");
    let earliest = cache.earliest.iter().copied().min().unwrap_or(Time::MAX);
    assert!(cache.pending_bound <= earliest, "{now}: the pending bound is above its minimum");
    let batch = earliest_deadline(&engine.batch);
    assert!(cache.batch_bound <= batch, "{now}: the batch bound is above its minimum");
}

/// The keep-alive deadline of `machine`'s container for `type_id`.
fn warm_deadline(machine: &MachineState, type_id: TaskTypeId) -> Option<Time> {
    machine.warm_containers().iter().find(|c| c.type_id == type_id).map(|c| c.expires_at)
}
