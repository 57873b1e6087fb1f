//! What lets a step cost O(machines it touched) instead of O(machines):
//! the engine's per-step caches. None of it is a wire field; a restored
//! session rebuilds it all from machine state ([`StepCache::rebuild`]).
//!
//! * **Touched machines.** Every machine the engine or the mapper mutated
//!   this step. Between steps no machine is idle with pending work and no
//!   draining machine is idle (the start and drain passes see to it), so
//!   only a touched machine can need a start or a drain completion. Both
//!   passes visit the touched and the draining machines in ascending
//!   index, so records, run tokens and execution-time draws happen in the
//!   order a walk over every machine would give them.
//! * **Free slots.** Each machine's [`MachineState::free_slots`] as last
//!   synced, and their sum, which answers
//!   [`MapContext::total_free_slots`](crate::MapContext::total_free_slots).
//! * **Pending deadlines.** Each machine's earliest pending deadline, and
//!   a lower bound on the earliest of them: while `now` does not exceed
//!   it, no pending task has expired (`Task::is_expired_at` is
//!   `now > deadline`), so the expiry cull looks at no machine.
//! * **Batch deadline.** A lower bound on the batch's earliest deadline:
//!   arrivals and requeues lower it, and a mapper's removals leave it a
//!   valid bound, so the batch's expiry cull is skipped while `now` does
//!   not exceed it.
//!
//! Every mutation is followed by [`StepCache::touch`], which marks the
//! machine and re-syncs its entries — an assignment by the O(1)
//! [`StepCache::assigned`] — so the free-slot sum is exact whenever a
//! mapper reads it, and every cache is exact between steps.

use super::EngineWork;
use crate::machine::{MachineLifecycle, MachineState};
use hcsim_model::{Task, Time};

/// A set of machine indices, iterated in ascending order.
#[derive(Debug, Default)]
pub(crate) struct MachineSet {
    words: Vec<u64>,
}

impl MachineSet {
    fn new(machines: usize) -> Self {
        Self { words: vec![0; machines.div_ceil(64)] }
    }

    fn insert(&mut self, m: usize) {
        self.words[m / 64] |= 1 << (m % 64);
    }

    fn remove(&mut self, m: usize) {
        self.words[m / 64] &= !(1 << (m % 64));
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| bits(w, word))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// The indices of `word`'s set bits, ascending, offset by word `w`.
fn bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

/// The earliest deadline among `tasks` ([`Time::MAX`] when there are none).
pub(crate) fn earliest_deadline<'t>(tasks: impl IntoIterator<Item = &'t Task>) -> Time {
    tasks.into_iter().map(|t| t.deadline).min().unwrap_or(Time::MAX)
}

/// The engine's per-step caches; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct StepCache {
    /// Machines mutated this step; empty between steps.
    pub(crate) touched: MachineSet,
    /// Machines in [`MachineLifecycle::Draining`].
    pub(crate) draining: MachineSet,
    /// Per machine: `free_slots()` when last synced.
    pub(crate) free: Vec<usize>,
    /// The sum of `free`.
    pub(crate) free_total: usize,
    /// Per machine: the earliest pending deadline when last synced.
    pub(crate) earliest: Vec<Time>,
    /// A lower bound on the minimum of `earliest`.
    pub(crate) pending_bound: Time,
    /// A lower bound on the batch's earliest deadline.
    pub(crate) batch_bound: Time,
    /// The scans' work counters.
    pub(crate) work: EngineWork,
}

impl StepCache {
    /// Every cache computed from scratch, nothing touched, no work counted.
    pub(crate) fn rebuild(machines: &[MachineState], batch: &[Task]) -> Self {
        let n = machines.len();
        let mut cache = Self {
            touched: MachineSet::new(n),
            draining: MachineSet::new(n),
            free: vec![0; n],
            free_total: 0,
            earliest: vec![Time::MAX; n],
            pending_bound: Time::MAX,
            batch_bound: earliest_deadline(batch),
            work: EngineWork::default(),
        };
        for (m, machine) in machines.iter().enumerate() {
            cache.sync(m, machine);
        }
        cache.work = EngineWork::default();
        cache
    }

    /// Marks machine `m` touched this step and re-syncs its entries.
    pub(crate) fn touch(&mut self, m: usize, machine: &MachineState) {
        self.touched.insert(m);
        self.sync(m, machine);
    }

    /// What [`MapContext::assign`](crate::MapContext::assign) changed on
    /// machine `m`: one free slot taken (an assignable machine is
    /// active). Its earliest pending deadline is re-read when the start
    /// pass syncs it, before the next step's cull reads it.
    pub(crate) fn assigned(&mut self, m: usize) {
        self.touched.insert(m);
        self.free[m] -= 1;
        self.free_total -= 1;
    }

    /// Re-reads machine `m`'s free slots, earliest pending deadline and
    /// drain state.
    pub(crate) fn sync(&mut self, m: usize, machine: &MachineState) {
        self.work.free_slot_machines += 1;
        let free = machine.free_slots();
        self.free_total = self.free_total + free - self.free[m];
        self.free[m] = free;
        let earliest = earliest_deadline(machine.pending());
        self.earliest[m] = earliest;
        self.pending_bound = self.pending_bound.min(earliest);
        if machine.lifecycle() == MachineLifecycle::Draining {
            self.draining.insert(m);
        } else {
            self.draining.remove(m);
        }
    }

    /// Lowers the batch bound for a task entering the batch.
    pub(crate) fn batch_entered(&mut self, task: &Task) {
        self.batch_bound = self.batch_bound.min(task.deadline);
    }

    /// Machines the start and drain passes visit, ascending: the touched
    /// ones and the draining ones. Clears the touched set.
    pub(crate) fn take_visits(&mut self, out: &mut Vec<usize>) {
        out.clear();
        for (w, (touched, draining)) in
            self.touched.words.iter_mut().zip(&self.draining.words).enumerate()
        {
            out.extend(bits(w, *touched | *draining));
            *touched = 0;
        }
    }
}
