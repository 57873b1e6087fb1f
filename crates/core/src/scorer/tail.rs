//! One machine's incremental availability chain — the per-machine,
//! cross-tick cache layer (see the `scorer` module docs, *Incremental tail
//! maintenance*): the conditioned head with the window of event times it
//! holds for, the pending chain behind it, and the cell that owns both
//! together with the storage they are built in.

use super::kernel::{Cutoffs, PairScore, PairWork};
use super::shared::ScorerShared;
use hcsim_model::{Task, TaskId, Time};
use hcsim_pmf::{ConvScratch, DropPolicy, Pmf};
use hcsim_sim::MachineState;

/// Per-slot robustness/skewness of a queued task — the pruner's view of a
/// machine queue, served from the incremental cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotScore {
    /// The task occupying the slot.
    pub task: Task,
    /// Queue position κ: 0 is the executing task (or the first pending
    /// task on an idle-but-nonempty queue snapshot).
    pub position: usize,
    /// Eq. 1 robustness of completing by the deadline.
    pub robustness: f64,
    /// Eq. 6 bounded skewness of the completion PMF (0 when the task can
    /// never start).
    pub skewness: f64,
}

/// The event times `[from, until)` over which a conditioned head — and
/// with it the whole availability chain, which never reads the clock — is
/// bit-identical to what a rebuild would produce. The clock reaches the
/// head only through its *conditioning bucket*: an executing head is keyed
/// on how many PET impulses the elapsed time has ruled out and holds until
/// the next impulse is crossed ([`crate::chain::head_valid_until`]); an
/// idle head (`delta(now)`) and an overdue one (`delta(now + 1)`) hold for
/// their own tick. The window opens at the build instant — time only
/// moves forward within a timeline, and a restore drops the caches. The
/// default window is empty.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct HeadWindow {
    from: Time,
    until: Time,
}

impl HeadWindow {
    /// The window of an idle machine's `delta(now)` head: its own tick.
    #[inline]
    pub(super) fn idle(now: Time) -> Self {
        Self { from: now, until: now.saturating_add(1) }
    }

    #[inline]
    pub(super) fn contains(self, now: Time) -> bool {
        self.from <= now && now < self.until
    }
}

/// What a [`super::ScoreTable`] keeps of one free machine's tail between
/// events: the bound-pass scalar, and the event times over which the tail
/// (hence the machine's whole score column) stays what it is while the
/// machine's version does not move.
#[derive(Debug, Clone, Copy)]
pub(super) struct TailBound {
    /// Earliest tail impulse: no appended task can start sooner.
    pub(super) earliest: Time,
    /// Head window of the chain the column was scored from.
    pub(super) head_window: HeadWindow,
}

/// One machine's cached availability chain (see module docs).
#[derive(Debug, Default)]
pub(super) struct TailCache {
    valid: bool,
    /// Machine version the cache reflects.
    version: u64,
    /// Warm-container revision the cache reflects
    /// ([`MachineState::warm_rev`]). The head-reuse path deliberately
    /// ignores `version` (a queue append bumps it without invalidating the
    /// prefix), but a warm-set change *does* re-select PET cells for the
    /// whole chain — this separate key forces the rebuild. Constant 0 in
    /// the classic model, so the check never fires there.
    warm_rev: u64,
    /// Event times over which the cached head (hence chain) holds.
    head_window: HeadWindow,
    /// Executing-task identity: `(id, started_at)`. Together with the
    /// head window this fully determines the conditioned head.
    exec_sig: Option<(TaskId, Time)>,
    /// The pending tasks the chain was built over; an id pins the type
    /// and deadline, all the chain math reads of a task.
    pending_sig: Vec<TaskId>,
    /// Layer 1: availability after the executing task (or `delta(now)`);
    /// `None` only before the first build.
    head: Option<Pmf>,
    /// Layer 2: availability after each pending entry; the machine tail is
    /// `links.last()` (or `head` when no tasks are pending).
    links: Vec<Pmf>,
    /// Per-slot robustness/skewness, head first — the pruner's view.
    pub(super) slots: Vec<SlotScore>,
    /// True when every slot's skewness is populated. Skewness is only
    /// needed by the pruner and costs a moment fold over the *uncompacted*
    /// completion, so tail/score extensions skip it (leaving NaN
    /// placeholders) and [`super::ProbScorer::slot_scores`] rebuilds in stats
    /// mode on demand.
    stats_valid: bool,
    /// Head rebuilds and chain extensions performed so far — the
    /// convolution work the cache did *not* avoid (diagnostics/tests).
    pub(super) head_builds: u64,
    pub(super) extensions: u64,
}

impl TailCache {
    /// Only called after `ensure`, which always populates the head.
    pub(super) fn tail(&self) -> &Pmf {
        self.links.last().or(self.head.as_ref()).expect("cache built before query")
    }

    /// What a [`super::ScoreTable`] records of this (ensured) tail.
    pub(super) fn bound(&self) -> TailBound {
        TailBound { earliest: self.tail().min_time(), head_window: self.head_window }
    }

    /// The cached head, then every link behind it.
    #[cfg(test)]
    pub(super) fn chain(&self) -> impl Iterator<Item = &Pmf> {
        self.head.iter().chain(&self.links)
    }
}

/// One machine's independently-borrowable scoring cell: the incremental
/// tail cache, the storage free-list its heads and links draw from, and a
/// column scratch the pooled fan-out fills in place. Workers in a fan-out own one
/// cell each; nothing is shared mutably across cells.
#[derive(Debug, Default)]
pub(super) struct MachineCache {
    pub(super) cache: TailCache,
    /// PMF storage pool private to this machine: retired heads and
    /// links, none sized for more than twice the budget or a PET cell.
    pub(super) scratch: ConvScratch,
    /// Score-column scratch for pooled [`super::ScoreTable::rebuild`] rounds:
    /// workers cannot write into the caller-owned table, so they fill this
    /// and the caller swaps it into the table column in machine-index
    /// order (buffers recycle across events through the same swap).
    pub(super) col: Vec<Option<PairScore>>,
    /// What the last pooled round did with its live rows: pairs scored
    /// into `col` and walks stopped below their threshold (the rest were
    /// rejected by the per-pair bound) — collected with the swap.
    pub(super) col_work: PairWork,
    /// Deadline-cutoff scratch of this machine's column fills, on the
    /// calling thread and in pooled rounds alike.
    pub(super) cutoffs: Cutoffs,
}

impl MachineCache {
    /// Drops the cached chain — the machine left the cluster. Every PMF is
    /// recycled into the cell's own scratch pool, so a later re-join
    /// rebuilds from the free-list instead of the allocator; the cell
    /// itself (and its shard slot in a pooled store) stays put, which is
    /// what keeps surviving machines' warmth intact across membership
    /// changes.
    pub(super) fn release(&mut self) {
        let Self { cache, scratch, .. } = self;
        for link in cache.links.drain(..) {
            scratch.recycle(link);
        }
        if let Some(head) = cache.head.take() {
            scratch.recycle(head);
        }
        cache.pending_sig.clear();
        cache.slots.clear();
        cache.exec_sig = None;
        cache.valid = false;
        cache.stats_valid = false;
    }

    /// Brings the cache up to date against `machine` at event time `now`
    /// (see module docs for the incremental strategy). `want_stats`
    /// additionally guarantees every slot's skewness is populated,
    /// rebuilding the chain in stats mode when a previous stats-free
    /// extension left placeholders.
    pub(super) fn ensure(
        &mut self,
        shared: &ScorerShared,
        now: Time,
        machine: &MachineState,
        want_stats: bool,
    ) {
        let (policy, budget, pets) = (shared.policy, shared.budget, shared.pets());
        let Self { cache, scratch, .. } = self;
        if cache.valid
            && cache.version == machine.version()
            && cache.head_window.contains(now)
            && (!want_stats || cache.stats_valid)
        {
            return;
        }

        let exec_sig = machine.executing().map(|e| (e.task.id, e.started_at));
        let head_reusable = cache.valid
            && cache.head_window.contains(now)
            && cache.exec_sig == exec_sig
            && cache.warm_rev == machine.warm_rev()
            && (!want_stats || cache.stats_valid);
        if head_reusable {
            // Layer 2 prefix reuse: keep every chain link up to the first
            // divergence between the cached and live pending queues.
            let lcp = machine
                .pending()
                .zip(&cache.pending_sig)
                .take_while(|&(t, &id)| t.id == id)
                .count();
            for link in cache.links.drain(lcp..) {
                scratch.recycle(link);
            }
            cache.pending_sig.truncate(lcp);
            cache.slots.truncate(usize::from(exec_sig.is_some()) + lcp);
        } else {
            // Full rebuild: recompute the conditioned head at `now`.
            cache.head_builds += 1;
            for link in cache.links.drain(..) {
                scratch.recycle(link);
            }
            cache.pending_sig.clear();
            cache.slots.clear();
            if let Some(old) = cache.head.take() {
                scratch.recycle(old);
            }
            cache.head_window = if let Some(exec) = machine.executing() {
                // Shared head pipeline (`chain::conditioned_head`) keeps
                // this bit-identical to from-scratch analysis.
                let pet = pets.for_exec(exec);
                let (mut completion, robustness, skewness) =
                    crate::chain::conditioned_head(exec, pet, machine.id(), now, budget, scratch);
                if policy == DropPolicy::All {
                    // Eq. 5: the executing task is evicted at its deadline,
                    // so the machine is free no later than δ.
                    completion.clamp_above(exec.task.deadline);
                }
                cache.slots.push(SlotScore { task: exec.task, position: 0, robustness, skewness });
                cache.head = Some(completion);
                let cell = pet.pmf(exec.task.type_id, machine.id());
                HeadWindow { from: now, until: crate::chain::head_valid_until(exec, cell, now) }
            } else {
                cache.head = Some(scratch.delta(now));
                HeadWindow::idle(now)
            };
            cache.exec_sig = exec_sig;
            cache.stats_valid = true;
        }

        // Extend the chain over the (new) pending suffix, via the shared
        // `chain::chain_extension` step. Only the pruner reads the Eq. 6
        // skewness, so stats-free callers skip its moment fold (leaving
        // the NaN placeholder `stats_valid` tracks).
        for (idx, task) in machine.pending().enumerate().skip(cache.pending_sig.len()) {
            cache.extensions += 1;
            let avail = cache.links.last().or(cache.head.as_ref()).expect("head built above");
            let step = crate::chain::chain_extension(
                avail,
                task,
                pets.for_pending(machine, idx, task.type_id),
                machine.id(),
                policy,
                budget,
                want_stats,
                scratch,
            );
            if !want_stats {
                cache.stats_valid = false;
            }
            cache.slots.push(SlotScore {
                task: *task,
                position: cache.slots.len(),
                robustness: step.robustness.min(1.0),
                skewness: step.skewness,
            });
            cache.pending_sig.push(task.id);
            cache.links.push(step.availability);
        }

        cache.valid = true;
        cache.version = machine.version();
        cache.warm_rev = machine.warm_rev();
    }
}
