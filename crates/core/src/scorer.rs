//! Fast per-(task, machine) robustness scoring with *incremental* machine-
//! tail caching and a per-machine parallel fan-out.
//!
//! A mapping event evaluates every batch task against every machine. The
//! naive approach performs a full Eq. 3–4 convolution per pair; this module
//! exploits that PAM/MOC only need two scalars per pair:
//!
//! * **robustness** `Σ_{u<δ} A(u) · CDF_E(δ − u)` — the deadline CDF of the
//!   (deadline-truncated) convolution, computable directly from the
//!   machine-tail availability `A` and a prefix-sum CDF of the PET cell
//!   `E` without materializing the convolution;
//! * **expected completion** `Σ_{u<δ} A(u)·(u + E[E]) / Σ_{u<δ} A(u)` —
//!   the mean of the truncated convolution, again in closed form.
//!
//! Both are *exact* (they equal [`hcsim_pmf::queue_step`]'s outputs, minus
//! the compaction error that full convolution would introduce; a unit test
//! asserts the equivalence).
//!
//! # Incremental tail maintenance
//!
//! The machine-tail availability is the only convolution work left, and it
//! is maintained *incrementally* across mapping events rather than rebuilt
//! from `Pmf::delta(now)` at every version bump. Each machine's
//! [`MachineCache`] holds two layers:
//!
//! 1. a **conditioned head** — the executing task's residual-execution
//!    availability. §IV shifts the PET by the task's *start* time, so the
//!    clock reaches it only through the conditioning: which PET impulses
//!    the elapsed time has already ruled out. The head is keyed on that
//!    bucket and stored with the window of event times over which it
//!    holds (see `HeadWindow`); a later event inside the window is a
//!    two-compare hit. An idle machine's `delta(now)` and an overdue
//!    head's `delta(now + 1)` hold for their own tick only;
//! 2. a **pending chain** — one availability PMF per pending queue entry,
//!    chained by the policy-aware queue step. Nothing in it reads the
//!    clock. On a queue mutation the cache matches the *longest common
//!    prefix* of the cached task ids against the live queue and reconvolves only the suffix: appending a
//!    task (the mapper's assignment loop) costs one `queue_step`;
//!    dropping a mid-queue task (the pruner) reuses everything ahead of
//!    it. Eviction, a warm-set change, or an event time
//!    outside the head's window fall back to a full rebuild.
//!
//! The incremental path chains the same links a from-scratch
//! [`analyze_queue`] would, in the same order, with the same compaction
//! budget. Every extension takes the chain kernel
//! [`hcsim_pmf::chain_step_into`], which compacts — and in stats mode
//! takes the Eq. 6 moments — straight from its convolution accumulator
//! and never builds the completion PMF; it is pinned bit-identical to the
//! plain step, compaction and moment pass the analysis runs, so cached
//! tails and slot statistics are bit-identical to from-scratch analysis
//! (replay and clock-sweep proptests in `tests/` assert this). Heads and
//! links — idle heads included — draw their storage from a per-machine
//! [`ConvScratch`] free-list, a link sized for at most twice the budget,
//! and the convolution's working buffers are per thread, so the
//! steady-state scoring loop allocates nothing per (task, machine) pair
//! and a cell keeps no buffer wider than a link or a PET cell.
//!
//! The [`ScoreTable`] applies the same observation one level up: a score
//! column is a pure function of the machine's tail and version-stamped
//! state, so [`ScoreTable::ensure`] carries the table across ticks and
//! rescores only the machines whose version moved or whose head window
//! closed — and not even the idle ones among the latter whose columns hold
//! no exact score: an idle tail is `delta(now)`, which only moves later,
//! so such a machine is re-timed in place and every pair it left
//! unscored stays proven. That is what keeps a mostly idle serverless
//! cluster off the bulk rebuild. And the table scores a pair only where
//! the score can matter: under
//! oversubscription most (task, machine) pairs exist to be deferred
//! again, and `CDF_E(δ − tail.min_time())` — one lookup in the cell the
//! kernel would use — bounds the robustness from above. The table runs
//! that bound per 32-machine shard on an envelope CDF, then per pair on
//! the machine's own cell (in a column rescore, one deadline compare
//! against a cutoff resolved once per task type), and the scoring walk
//! itself stops as soon as the impulses left cannot reach the row's
//! threshold. A column rescore also arms, per task type, a second cutoff
//! once a walk of that type has stopped: resolved from the stop test at
//! every impulse of the tail (`M_k + (1 − M_k) · CDF_E(δ − t_k)` for the
//! mass `M_k` ahead of impulse `k`), it rejects the type's later rows
//! whose walks could only have stopped too, one deadline compare each —
//! on a tick storm, most of a re-keyed column's walks. Whatever is proven
//! below the caller's threshold — by a bound, a cutoff or a stopped walk
//! — stays unscored; decisions are unchanged because the caller would
//! have deferred those pairs on their exact value anyway, and every pair
//! that is scored holds the exact value.
//!
//! # Parallel per-machine fan-out
//!
//! Each [`MachineCache`] is a self-contained mutable cell: its chain, its
//! slot statistics, its column scratch, *and* the storage pool its chain
//! draws from (the convolution buffers belong to whichever thread runs
//! the cell). That is what lets [`ScoreTable::rebuild`] and
//! [`ProbScorer::warm_caches`] fan the per-machine work out across worker
//! threads with no locking contention: every worker owns a disjoint set of
//! machine cells, and results merge in machine-index order. Because every
//! per-machine computation is deterministic in the machine's state alone
//! (the replay-equivalence invariant above), the fan-out is
//! **bit-identical** to sequential evaluation at any thread count —
//! `threads` is purely a performance knob. Small fan-outs fall back to a
//! single thread (see [`PARALLEL_MIN_MACHINES`]) so fan-out overhead never
//! lands on the small-cluster hot path.
//!
//! # Layout
//!
//! This file is the façade: [`ProbScorer`] and the re-exports. The code
//! behind it is split on its cache boundaries, one private module per
//! lifetime:
//!
//! * `shared` — what lives as long as the *system*: prefix CDFs, shard
//!   envelope families, the per-system memo;
//! * `tail` — what lives as long as a *machine's queue*: the conditioned
//!   head, the pending chain, the cell that owns them;
//! * `table` — what lives from *event to event*: the [`ScoreTable`], its
//!   row slots, its rebuild, its `ensure` phases and the repair after an
//!   assignment;
//! * `kernel` — the closed-form scoring loops all three call, held to a
//!   threshold when the table calls them, and the one-lookup bound that
//!   stands in front of them; they cache nothing but a column's
//!   per-type deadline cutoffs, in scratch the machine's cell lends them;
//! * `cells` — *how* the cells are executed: where they live, when a
//!   fan-out is a worker-pool round and when it is a loop on the calling
//!   thread. Nothing outside it names the pool.

mod cells;
mod kernel;
mod shared;
mod table;
mod tail;
#[cfg(test)]
pub(crate) mod test_support;
#[cfg(test)]
mod tests;

use crate::chain::{analyze_queue_cold, chain_extension, PetTables, QueueAnalysis};
use cells::{Cells, WarmFilter};
use hcsim_model::{MachineId, PetMatrix, SystemSpec, Task, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::MachineState;
use kernel::score_unless_below;
use shared::{ScorerShared, SPEC_MEMO};
use std::sync::Arc;
use tail::{MachineCache, TailBound};

pub use cells::PARALLEL_MIN_MACHINES;
pub use kernel::PairScore;
pub use table::ScoreTable;
pub use tail::SlotScore;

/// What a score-table mapper's scorer and table did so far, in counts
/// that repeat exactly on every run of one seed, on one thread or on the
/// pool — the work digest's inputs. Every counter only grows.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    /// Table pairs whose kernel walk ran to the end: exact scores.
    pub pairs_scored: u64,
    /// Table pairs the first-impulse bound rejected without a walk.
    pub pairs_bounded: u64,
    /// Table pairs the tail-wide deadline cutoff rejected without a walk.
    pub pairs_cut: u64,
    /// Table pairs whose walk stopped below the row's threshold.
    pub pairs_abandoned: u64,
    /// The part of `pairs_abandoned` walked in column fills (rebuilds and
    /// column rescores); the rest were appended rows and retested lanes.
    pub column_abandoned: u64,
    /// Appended rows that joined a live `(type, deadline)` class.
    pub rows_shared: u64,
    /// Tail-wide deadline cutoffs resolved.
    pub cutoffs_resolved: u64,
    /// Conditioned heads the tail caches (re)built.
    pub head_builds: u64,
    /// Links the tail caches chained behind a head.
    pub chain_extensions: u64,
    /// Table revalidations that fell back to a full rebuild.
    pub table_rebuilds: u64,
    /// Table revalidations repaired incrementally.
    pub table_reuses: u64,
}

impl WorkCounters {
    /// Every counter with its name, in declaration order.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("pairs_scored", self.pairs_scored),
            ("pairs_bounded", self.pairs_bounded),
            ("pairs_cut", self.pairs_cut),
            ("pairs_abandoned", self.pairs_abandoned),
            ("column_abandoned", self.column_abandoned),
            ("rows_shared", self.rows_shared),
            ("cutoffs_resolved", self.cutoffs_resolved),
            ("head_builds", self.head_builds),
            ("chain_extensions", self.chain_extensions),
            ("table_rebuilds", self.table_rebuilds),
            ("table_reuses", self.table_reuses),
        ]
    }

    /// The table's counters from `table`, the chain counters from
    /// `scorer`'s cells.
    pub(crate) fn of(table: &ScoreTable, scorer: &mut ProbScorer) -> Self {
        let mut work = table.work();
        scorer.add_chain_work(&mut work);
        work
    }
}

/// Robustness/expected-completion scorer with incremental tail caching.
#[derive(Debug)]
pub struct ProbScorer {
    shared: Arc<ScorerShared>,
    /// Current event clock (set by [`ProbScorer::begin_event`]).
    now: Time,
    /// Last cluster-membership epoch synchronized
    /// ([`ProbScorer::sync_membership`]); `None` until the first sync.
    membership_epoch: Option<u64>,
    /// Schedulable machines as of the last sync — what gates the worker
    /// pool (the fan-out should track the *live* cluster, not the machine
    /// universe).
    schedulable: usize,
    /// Per-machine incremental availability chains, index-aligned with
    /// machine ids.
    cells: Cells,
    /// Copy-out buffers for single-cell queries in pooled mode (see
    /// `Cells::view`).
    slots_buf: Vec<SlotScore>,
    tail_buf: Pmf,
}

impl ProbScorer {
    /// Builds a scorer for `pet` under `policy`, compacting intermediate
    /// availability PMFs to `budget` impulses. The scorer shares `pet`'s
    /// cells (a [`PetMatrix`] clone copies no PMF) and derives its prefix
    /// CDFs and shard envelopes once; every later query scores against
    /// them.
    #[must_use]
    pub fn new(pet: &PetMatrix, policy: DropPolicy, budget: usize) -> Self {
        Self::with_cold(pet, None, policy, budget)
    }

    /// Builds a scorer for a full system spec: cold-start-aware when the
    /// spec carries a [`hcsim_model::ColdStartModel`] (the cold PET is
    /// derived once — spin-up ⊛ execution per cell, compacted to
    /// `budget`), identical to [`ProbScorer::new`] otherwise.
    ///
    /// The tables are a pure function of `(spec.pet, spin-up matrix,
    /// policy, budget)`, and a run builds one mapper per trial against
    /// the same system, so they are derived once and shared for as long
    /// as the system stays the same (see `SpecMemo`).
    #[must_use]
    pub fn for_spec(spec: &SystemSpec, policy: DropPolicy, budget: usize) -> Self {
        // A panicking derivation never reaches the slot's one assignment,
        // so a poisoned lock still guards a valid memo.
        let mut memo = SPEC_MEMO.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::from_shared(memo.tables_for(spec, policy, budget))
    }

    /// [`ProbScorer::new`] with an explicit cold-placement PET (same
    /// dimensions as `pet`; see [`hcsim_model::ColdStartModel::cold_pet`]).
    /// Queue chains and append scores then select the warm or cold cell
    /// per position via the [`PetTables`] warmth rules. Both matrices are
    /// shared, not copied; the derived tables are this scorer's own (no
    /// [`ProbScorer::for_spec`] memo), so this is the way to force — or
    /// time — a fresh derivation.
    ///
    /// # Panics
    ///
    /// Panics when `cold`'s dimensions disagree with `pet`'s.
    #[must_use]
    pub fn with_cold(
        pet: &PetMatrix,
        cold: Option<&PetMatrix>,
        policy: DropPolicy,
        budget: usize,
    ) -> Self {
        Self::from_shared(Arc::new(ScorerShared::derive(
            pet.clone(),
            cold.cloned(),
            policy,
            budget,
        )))
    }

    /// A scorer with empty caches over already-derived tables.
    fn from_shared(shared: Arc<ScorerShared>) -> Self {
        let machines = shared.machines;
        Self {
            shared,
            now: 0,
            membership_epoch: None,
            schedulable: machines,
            cells: Cells::new(machines),
            slots_buf: Vec::new(),
            tail_buf: Pmf::delta(0),
        }
    }

    /// The drop policy the scorer models.
    #[must_use]
    pub fn policy(&self) -> DropPolicy {
        self.shared.policy
    }

    /// Starts a new mapping event at `now`. Caches are *not* discarded:
    /// validity is re-checked lazily against `(version, head window)`, so
    /// a later event keeps every chain whose conditioned head the moved
    /// clock did not re-key (an executing task that crossed no PET
    /// impulse), and rebuilds only the re-keyed machines actually queried.
    pub fn begin_event(&mut self, now: Time) {
        self.now = now;
    }

    /// Sets the fan-out width: `threads` workers, `0` meaning the host's
    /// available parallelism (resolved when the value changes, not per
    /// event). With more than one thread and at least
    /// [`PARALLEL_MIN_MACHINES`] *schedulable* machines (as of the last
    /// [`ProbScorer::sync_membership`]) the cells move into a persistent
    /// worker pool, re-sharded only if the width moves; otherwise they
    /// stay on (or move back to) the calling thread — so a cluster that
    /// shrinks below the floor dissolves its pool and one that grows back
    /// rebuilds it. A few integer compares when nothing changed, so
    /// mappers call it every event.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.cells.set_parallelism(threads, self.schedulable);
    }

    /// Synchronizes the scorer with the cluster's membership epoch (see
    /// [`hcsim_sim::MapContext::membership_epoch`]). A no-op while the
    /// epoch is unchanged — the per-event steady state costs one compare.
    /// On a new epoch:
    ///
    /// * the schedulable-machine count that gates the worker pool is
    ///   refreshed (the next [`ProbScorer::set_parallelism`] call then
    ///   re-shards the pool if the clamp moved — surviving machines'
    ///   cells migrate with their cache warmth);
    /// * machines that left the cluster with empty queues have their
    ///   cached availability chains released back into their cells'
    ///   scratch pools (a re-join starts from a fresh, empty queue anyway,
    ///   and the version bump of the join would invalidate the chain —
    ///   releasing eagerly just returns the memory).
    ///
    /// Purely a resource-management hook: results are bit-identical with
    /// or without it, because cache validity is keyed on machine versions,
    /// which every lifecycle transition bumps.
    pub fn sync_membership(&mut self, epoch: u64, machines: &[MachineState]) {
        if self.membership_epoch == Some(epoch) {
            return;
        }
        self.membership_epoch = Some(epoch);
        debug_assert_machine_alignment(machines);
        self.schedulable = machines.iter().filter(|m| m.is_schedulable()).count();
        for (i, machine) in machines.iter().enumerate() {
            if !machine.is_schedulable() && machine.occupancy() == 0 {
                self.cells.with(i, MachineCache::release);
            }
        }
    }

    /// Schedulable machines as of the last membership sync (diagnostics).
    #[must_use]
    pub fn schedulable_machines(&self) -> usize {
        self.schedulable
    }

    /// True when the machine cells currently live in a persistent worker
    /// pool (diagnostics/tests).
    #[must_use]
    pub fn pool_active(&self) -> bool {
        self.cells.pool_active()
    }

    /// Head rebuilds plus chain extensions machine `m`'s cell has performed
    /// so far — a cache hit leaves it unchanged. Test support for the
    /// clock-sweep proptest, not part of the supported API.
    #[doc(hidden)]
    #[must_use]
    pub fn chain_builds(&mut self, m: MachineId) -> u64 {
        self.cells.with(m.index(), |cell| cell.cache.head_builds + cell.cache.extensions)
    }

    /// Adds every cell's head builds and chain extensions so far to
    /// `work`.
    fn add_chain_work(&mut self, work: &mut WorkCounters) {
        for i in 0..self.shared.machines {
            let (heads, extensions) =
                self.cells.with(i, |cell| (cell.cache.head_builds, cell.cache.extensions));
            work.head_builds += heads;
            work.chain_extensions += extensions;
        }
    }

    /// Drops every machine's cached chain (storage returns to the cells'
    /// pools; the PET tables and the worker pool stay). Cache validity is
    /// keyed on machine versions, which are only unique *within one
    /// timeline*: a mapper restored into a diverging timeline must call
    /// this, or a re-issued version could hit a chain built from other
    /// queue contents.
    pub fn clear_caches(&mut self) {
        for i in 0..self.shared.machines {
            self.cells.with(i, MachineCache::release);
        }
    }

    /// Drains and joins the worker pool (if one is active) within
    /// `timeout`, moving the machine cells back to local storage. Returns
    /// `false` when a wedged worker forced the pool to be abandoned — the
    /// cells are then rebuilt empty, which is decision-neutral (caches are
    /// a pure accelerator) but loses their warmth. Idempotent; a scorer
    /// with local cells returns `true` immediately.
    pub fn shutdown(&mut self, timeout: std::time::Duration) -> bool {
        self.cells.shutdown(timeout)
    }

    /// Full queue analysis built from scratch — the reference
    /// implementation the incremental cache is verified against, and the
    /// source of per-slot completion PMFs when a caller needs more than
    /// [`SlotScore`] scalars.
    #[must_use]
    pub fn analyze(&self, machine: &MachineState, now: Time) -> QueueAnalysis {
        analyze_queue_cold(machine, self.pets(), now, self.shared.policy, self.shared.budget)
    }

    /// The warm/cold PET pair every queue chain selects its cells from
    /// (cold side absent in the classic model).
    #[must_use]
    pub fn pets(&self) -> PetTables<'_> {
        self.shared.pets()
    }

    /// The machine's tail availability PMF, maintained incrementally.
    pub fn tail(&mut self, machine: &MachineState) -> &Pmf {
        let Self { shared, now, cells, tail_buf, .. } = self;
        cells.view(machine.id().index(), tail_buf, |cell| {
            cell.ensure(shared, *now, machine, false);
            cell.cache.tail()
        })
    }

    /// Clones the machine's tail into `out`, reusing `out`'s buffers —
    /// the single-copy path for callers that need an *owned* tail: in
    /// pooled mode a borrow cannot escape the cell lock, so
    /// [`ProbScorer::tail`] + `clone()` would copy twice.
    pub fn tail_into(&mut self, machine: &MachineState, out: &mut Pmf) {
        let Self { shared, now, cells, .. } = self;
        cells.with(machine.id().index(), |cell| {
            cell.ensure(shared, *now, machine, false);
            out.clone_from(cell.cache.tail());
        });
    }

    /// Per-slot robustness/skewness for every queued task (head first) —
    /// what the pruner's dropping pass consumes. Served from the
    /// incremental cache, so re-evaluating a queue after a mid-queue drop
    /// reconvolves only the suffix behind the removed task.
    pub fn slot_scores(&mut self, machine: &MachineState) -> &[SlotScore] {
        let Self { shared, now, cells, slots_buf, .. } = self;
        let slots: &Vec<SlotScore> = cells.view(machine.id().index(), slots_buf, |cell| {
            cell.ensure(shared, *now, machine, true);
            &cell.cache.slots
        });
        slots
    }

    /// Scores appending `task` to `machine`'s queue.
    pub fn score(&mut self, machine: &MachineState, task: &Task) -> PairScore {
        self.score_unless_below(machine, task, f64::NEG_INFINITY)
            .expect("no walk stops below an infinitely low threshold")
    }

    /// [`ProbScorer::score`] for a pair held to `threshold`: `None` when
    /// the walk proves the exact robustness strictly below it (see
    /// `kernel::score_unless_below`), the bit-identical exact score
    /// otherwise.
    fn score_unless_below(
        &mut self,
        machine: &MachineState,
        task: &Task,
        threshold: f64,
    ) -> Option<PairScore> {
        let Self { shared, now, cells, .. } = self;
        cells.with(machine.id().index(), |cell| {
            cell.ensure(shared, *now, machine, false);
            score_unless_below(
                cell.cache.tail(),
                shared.cdf_for(task.type_id, machine),
                task.deadline,
                shared.policy,
                threshold,
            )
        })
    }

    /// Scores `task` behind a hypothetical append of `ahead` to `machine`:
    /// bit for bit what [`ProbScorer::score`] returns for `task` once
    /// `ahead` is pushed for real — MOC's permutation phase asks this of
    /// every hypothetical commit. `ahead` chains with the cell the append
    /// rule picks ([`PetTables::append_is_cold`]); `task` scores warm
    /// behind a same-type `ahead` and by the same rule otherwise.
    pub fn score_behind(&mut self, machine: &MachineState, ahead: &Task, task: &Task) -> PairScore {
        let Self { shared, now, cells, .. } = self;
        let pets = shared.pets();
        let pet = pets.cold.filter(|_| pets.append_is_cold(machine, ahead.type_id));
        let cdf = if task.type_id == ahead.type_id {
            shared.cdf(task.type_id, machine.id())
        } else {
            shared.cdf_for(task.type_id, machine)
        };
        cells.with(machine.id().index(), |cell| {
            cell.ensure(shared, *now, machine, false);
            // The step the chain takes once `ahead` is pushed for real.
            let MachineCache { cache, scratch, .. } = cell;
            let step = chain_extension(
                cache.tail(),
                ahead,
                pet.unwrap_or(pets.warm),
                machine.id(),
                shared.policy,
                shared.budget,
                false,
                scratch,
            );
            let score = score_unless_below(
                &step.availability,
                cdf,
                task.deadline,
                shared.policy,
                f64::NEG_INFINITY,
            );
            scratch.recycle(step.availability);
            score.expect("no walk stops below an infinitely low threshold")
        })
    }

    /// Brings every occupied machine's cache up to date in one fan-out —
    /// the pruner calls this with `want_stats` before its sequential
    /// dropping walk so the expensive chain/statistics work runs across
    /// cores while the drop *decisions* stay in machine-index order.
    ///
    /// Results are bit-identical at any `threads` (each cell's
    /// update is deterministic in the machine state alone); fan-outs
    /// smaller than [`PARALLEL_MIN_MACHINES`] run sequentially.
    pub fn warm_caches(&mut self, machines: &[MachineState], want_stats: bool) {
        debug_assert_machine_alignment(machines);
        let eligible = machines.iter().filter(|m| m.occupancy() > 0).count();
        let parallel = eligible >= PARALLEL_MIN_MACHINES;
        self.cells.warm(
            &self.shared,
            self.now,
            machines,
            WarmFilter::Occupied,
            want_stats,
            parallel,
        );
    }

    /// Earliest possible start and head window per free machine (`None`:
    /// no free slot), gathered in machine-index order for the
    /// [`ScoreTable`] bound pass and its cross-tick revalidation. Cells
    /// must already be warm for the free machines.
    fn collect_tail_bounds(&mut self, machines: &[MachineState], out: &mut Vec<Option<TailBound>>) {
        out.clear();
        for (i, machine) in machines.iter().enumerate() {
            let bound =
                machine.has_free_slot().then(|| self.cells.with(i, |cell| cell.cache.bound()));
            out.push(bound);
        }
    }

    /// Ensures `machine`'s cell and returns its tail's bound scalars —
    /// [`ScoreTable::ensure`] needs a changed machine's bound before it
    /// can decide which rows that machine's column must score.
    fn ensure_tail_bound(&mut self, machine: &MachineState) -> TailBound {
        let Self { shared, now, cells, .. } = self;
        cells.with(machine.id().index(), |cell| {
            cell.ensure(shared, *now, machine, false);
            cell.cache.bound()
        })
    }
}

fn debug_assert_machine_alignment(machines: &[MachineState]) {
    debug_assert!(
        machines.iter().enumerate().all(|(i, m)| m.id().index() == i),
        "machine slice must be id-ordered"
    );
}
