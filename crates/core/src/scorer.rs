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
//!    chained by [`hcsim_pmf::queue_step_into`]. Nothing in it reads the
//!    clock. On a queue mutation the cache matches the *longest common
//!    prefix* of the cached entry signatures `(task id, progress)`
//!    against the live queue and reconvolves only the suffix: appending a
//!    task (the mapper's assignment loop) costs one `queue_step`;
//!    dropping a mid-queue task (the pruner) reuses everything ahead of
//!    it. Eviction, preemption, a warm-set change, or an event time
//!    outside the head's window fall back to a full rebuild.
//!
//! Because the incremental path replays exactly the operations a
//! from-scratch [`analyze_queue`] would perform — in the same order, with
//! the same compaction budget — cached tails are bit-identical to
//! from-scratch analysis (replay and clock-sweep proptests in `tests/`
//! assert this). All intermediate storage — idle heads included — is
//! drawn from a per-machine [`ConvScratch`] pool, so the steady-state
//! scoring loop allocates nothing per (task, machine) pair.
//!
//! The [`ScoreTable`] applies the same observation one level up: a score
//! column is a pure function of the machine's tail and version-stamped
//! state, so [`ScoreTable::ensure`] carries the table across ticks and
//! rescores only the machines whose version moved or whose head window
//! closed.
//!
//! # Parallel per-machine fan-out
//!
//! Each [`MachineCache`] is a self-contained mutable cell: its chain, its
//! slot statistics, its column scratch, *and* its convolution scratch
//! pool. That is what lets [`ScoreTable::rebuild`] and
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
//! *How* the cells are executed — where they live, when a fan-out is a
//! worker-pool round and when it is a loop on the calling thread — is the
//! business of the private `cells` module alone; nothing in this file
//! names the pool.

mod cells;

use crate::chain::{analyze_queue_cold, PetTables, QueueAnalysis};
use cells::{Cells, WarmFilter};
use hcsim_model::{MachineId, PetMatrix, SystemSpec, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::{queue_step_into, ConvScratch, DropPolicy, Pmf};
use hcsim_sim::MachineState;
use std::sync::Arc;

pub use cells::PARALLEL_MIN_MACHINES;

/// Minimum number of changed machines before a [`ScoreTable::ensure`]
/// that falls back to a rebuild lets it fan out. Most events repair the
/// table incrementally, so these rebuilds are far apart and their rounds
/// find the pool's workers parked: waking them costs 50–120 µs per
/// round on a virtualised host, against roughly 2 µs of chain-plus-column
/// work per changed machine (a 64-machine rebuild measured 120 µs on the
/// calling thread and 250–310 µs through the two-round fan-out). Below
/// this floor the rebuild runs on the calling thread at any thread count.
const REBUILD_FANOUT_MIN_CHANGED: usize = 128;

/// Machines per [`ScoreTable`] shard. The table's bound pass works on
/// shard-level *envelope* bounds first and only descends into shards that
/// can clear the caller's threshold, so per-row bound work is
/// O(machines / width) instead of O(machines) for the (dominant, under
/// oversubscription) provably-deferred rows. Deliberately independent of
/// the thread count: shard boundaries affect only which *aggregates* are
/// consulted, never any exact score, so results stay bit-identical across
/// thread counts — but a deterministic width also keeps the
/// aggregate layout itself reproducible. 32 puts a 1024-machine cluster
/// at 32 shards (bound sweep and phase-2 reduction both 32× narrower)
/// while an 8-machine paper system degenerates to a single shard.
pub const TABLE_SHARD_WIDTH: usize = 32;

/// The two scalars phase 1/2 of the probabilistic heuristics consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairScore {
    /// Eq. 1 robustness of appending the task to the machine's queue.
    pub robustness: f64,
    /// Expected completion time given the task starts (infinite when it
    /// can never start before its deadline).
    pub expected_completion: f64,
    /// Expected execution time of the task on this machine (the paper's
    /// tie-breaker).
    pub mean_exec: f64,
}

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

/// Prefix-CDF view of one PET cell.
#[derive(Debug, Clone)]
struct PetCdf {
    times: Vec<Time>,
    /// `prefix[i]` = total mass at `times[..=i]`.
    prefix: Vec<f64>,
    mean: f64,
}

impl PetCdf {
    fn build(pmf: &Pmf) -> Self {
        let times: Vec<Time> = pmf.times().to_vec();
        let mut acc = 0.0;
        let prefix = pmf
            .masses()
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect();
        Self { times, prefix, mean: pmf.mean() }
    }

    /// Mass at execution times `<= t`.
    #[inline]
    fn cdf_at(&self, t: Time) -> f64 {
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            0.0
        } else {
            self.prefix[idx - 1]
        }
    }
}

/// Identity of one pending queue entry, as far as the chain math cares:
/// the task id pins (type, deadline); `progress` pins the residual PET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingSig {
    id: TaskId,
    progress: Time,
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
struct HeadWindow {
    from: Time,
    until: Time,
}

impl HeadWindow {
    #[inline]
    fn contains(self, now: Time) -> bool {
        self.from <= now && now < self.until
    }
}

/// What a [`ScoreTable`] keeps of one free machine's tail between
/// events: the bound-pass scalar, and the event times over which the tail
/// (hence the machine's whole score column) stays what it is while the
/// machine's version does not move.
#[derive(Debug, Clone, Copy)]
struct TailBound {
    /// Earliest tail impulse: no appended task can start sooner.
    earliest: Time,
    /// Head window of the chain the column was scored from.
    head_window: HeadWindow,
}

/// One machine's cached availability chain (see module docs).
#[derive(Debug, Default)]
struct TailCache {
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
    /// Executing-task identity: `(id, started_at, progress_before)`.
    /// Together with the head window this fully determines the
    /// conditioned head.
    exec_sig: Option<(TaskId, Time, Time)>,
    /// Signatures of the pending entries the chain was built over.
    pending_sig: Vec<PendingSig>,
    /// Layer 1: availability after the executing task (or `delta(now)`);
    /// `None` only before the first build.
    head: Option<Pmf>,
    /// Layer 2: availability after each pending entry; the machine tail is
    /// `links.last()` (or `head` when no tasks are pending).
    links: Vec<Pmf>,
    /// Per-slot robustness/skewness, head first — the pruner's view.
    slots: Vec<SlotScore>,
    /// True when every slot's skewness is populated. Skewness is only
    /// needed by the pruner and costs a moment pass over the *uncompacted*
    /// completion PMF, so tail/score extensions skip it (leaving NaN
    /// placeholders) and [`ProbScorer::slot_scores`] rebuilds in stats
    /// mode on demand.
    stats_valid: bool,
    /// Head rebuilds plus chain extensions performed so far — the
    /// convolution work the cache did *not* avoid (diagnostics/tests).
    builds: u64,
}

impl TailCache {
    /// Only called after `ensure`, which always populates the head.
    fn tail(&self) -> &Pmf {
        self.links.last().or(self.head.as_ref()).expect("cache built before query")
    }

    /// What a [`ScoreTable`] records of this (ensured) tail.
    fn bound(&self) -> TailBound {
        TailBound { earliest: self.tail().min_time(), head_window: self.head_window }
    }
}

/// The scorer state shared *read-only* across every machine cell during a
/// fan-out: the drop policy, the compaction budget, the PET tables and the
/// prefix CDFs of every PET cell. Immutable after construction, so one
/// `Arc` serves both the caller and the pool workers; the per-event clock
/// travels separately (it changes every event).
#[derive(Debug)]
struct ScorerShared {
    policy: DropPolicy,
    budget: usize,
    /// The PET the scorer was built from.
    pet: PetMatrix,
    /// Cold-placement PET (spin-up ⊛ execution per cell); `None` in the
    /// classic HC model.
    cold_pet: Option<PetMatrix>,
    /// Prefix CDFs, row-major `(task_type, machine)`, built once.
    cdfs: Vec<PetCdf>,
    /// Cold-placement prefix CDFs (spin-up ⊛ execution cells), same
    /// layout; `None` in the classic HC model where every start is warm.
    cold_cdfs: Option<Vec<PetCdf>>,
    task_types: usize,
    machines: usize,
    /// Shard envelope CDFs, row-major `(task_type, shard)`: the pointwise
    /// max of the shard members' *warm* prefix CDFs. `CDF_env(t) ≥
    /// CDF_m(t)` for every member `m`, so a shard-level robustness bound
    /// computed from the envelope dominates every member's individual
    /// bound — a shard the envelope proves below a threshold needs no
    /// per-machine work at all. Built once (the PET is static); the
    /// `mean` field of an envelope is unused and left NaN.
    shard_cdfs: Vec<PetCdf>,
    /// The same envelopes over the members' *cold* CDFs; `None` in the
    /// classic HC model. A second family rather than one envelope over
    /// both: a lane none of whose free members would place the row's type
    /// warm scores on cold cells only, and the cold envelope alone then
    /// bounds it — far tighter, on a cold-start system, than a bound that
    /// clears the threshold on the strength of a warm cell no member can
    /// use (see [`ScorerShared::shard_bound`]).
    cold_shard_cdfs: Option<Vec<PetCdf>>,
    /// Number of [`TABLE_SHARD_WIDTH`]-machine shards.
    shards: usize,
}

impl ScorerShared {
    /// Derives every table from the warm PET and (serverless model) the
    /// cold-placement PET, both taken by value: the tables own them.
    ///
    /// # Panics
    ///
    /// Panics when `cold`'s dimensions disagree with `pet`'s.
    fn derive(pet: PetMatrix, cold: Option<PetMatrix>, policy: DropPolicy, budget: usize) -> Self {
        let (task_types, machines) = (pet.task_types(), pet.machines());
        let prefix_cdfs = |pet: &PetMatrix| -> Vec<PetCdf> {
            (0..task_types * machines)
                .map(|i| {
                    let (tt, m) = (i / machines, i % machines);
                    PetCdf::build(pet.pmf(TaskTypeId::from(tt), MachineId::from(m)))
                })
                .collect()
        };
        let shards = machines.div_ceil(TABLE_SHARD_WIDTH);
        let envelopes = |cdfs: &[PetCdf]| -> Vec<PetCdf> {
            cdfs.chunks_exact(machines)
                .flat_map(|row| (0..shards).map(|s| envelope_cdf(&row[shard_range(s, machines)])))
                .collect()
        };
        let cdfs = prefix_cdfs(&pet);
        let cold_cdfs = cold.as_ref().map(|cold| {
            assert_eq!(cold.task_types(), task_types, "cold PET task type count");
            assert_eq!(cold.machines(), machines, "cold PET machine count");
            prefix_cdfs(cold)
        });
        Self {
            policy,
            budget,
            shard_cdfs: envelopes(&cdfs),
            cold_shard_cdfs: cold_cdfs.as_deref().map(envelopes),
            cdfs,
            cold_cdfs,
            pet,
            cold_pet: cold,
            task_types,
            machines,
            shards,
        }
    }

    /// The warm/cold PET pair every queue chain selects its cells from.
    #[inline]
    fn pets(&self) -> PetTables<'_> {
        PetTables { warm: &self.pet, cold: self.cold_pet.as_ref() }
    }

    #[inline]
    fn cdf(&self, tt: TaskTypeId, m: MachineId) -> &PetCdf {
        &self.cdfs[tt.index() * self.machines + m.index()]
    }

    /// The CDF a hypothetical append of type `tt` to `machine` scores
    /// with: the cold cell when the placement would pay a spin-up (no warm
    /// container, no same-type entry already queued — the warmth rule of
    /// [`PetTables`]), the warm cell otherwise.
    #[inline]
    fn cdf_for(&self, tt: TaskTypeId, machine: &MachineState) -> &PetCdf {
        match &self.cold_cdfs {
            Some(cold) if crate::chain::append_would_be_cold(machine, tt) => {
                &cold[tt.index() * self.machines + machine.id().index()]
            }
            _ => self.cdf(tt, machine.id()),
        }
    }

    /// How many per-(shard, type) warm-capable flags a [`ScoreTable`]
    /// keeps for these tables: none in the classic model.
    fn warm_flags(&self) -> usize {
        self.cold_shard_cdfs.as_ref().map_or(0, Vec::len)
    }

    /// Upper bound on the robustness of appending a type-`tt` task with
    /// `deadline` to *any* free machine of `shard`, whose earliest free
    /// start is `earliest` — the one bound routine behind every
    /// [`ScoreTable`] skip decision. `warm_capable` is the table's
    /// per-(shard, type) flag vector (`shard * task_types + type`; empty
    /// and never read in the classic model): with the flag off every free
    /// member would place the type cold, [`ScorerShared::cdf_for`] picks a
    /// cold cell on each of them, and the cold envelope alone dominates;
    /// with it on, the larger of the two envelope values does, whichever
    /// cell a member picks (compaction can locally break the stochastic
    /// dominance of cold over warm cells, so neither family is dropped).
    /// That maximum is, value for value, what a single envelope over both
    /// families would return.
    fn shard_bound(
        &self,
        tt: TaskTypeId,
        shard: usize,
        earliest: Time,
        deadline: Time,
        warm_capable: &[bool],
    ) -> f64 {
        let lane = tt.index() * self.shards + shard;
        let warm = || robustness_bound(earliest, &self.shard_cdfs[lane], deadline);
        match &self.cold_shard_cdfs {
            None => warm(),
            Some(cold) => {
                let bound = robustness_bound(earliest, &cold[lane], deadline);
                if warm_capable[shard * self.task_types + tt.index()] {
                    bound.max(warm())
                } else {
                    bound
                }
            }
        }
    }
}

/// Pointwise-max envelope of a shard's member CDFs: breakpoints are the
/// union of member breakpoints (a max of step functions only steps where
/// some member steps). Every member prefix is non-decreasing, so a
/// member's value at `t` is the largest prefix it has shown at or before
/// `t`, and the envelope is the running max over all `(time, prefix)`
/// pairs in time order — one sort and one sweep, whatever the member
/// count.
fn envelope_cdf(members: &[PetCdf]) -> PetCdf {
    let mut steps: Vec<(Time, f64)> = members
        .iter()
        .flat_map(|c| c.times.iter().copied().zip(c.prefix.iter().copied()))
        .collect();
    steps.sort_unstable_by_key(|&(t, _)| t);
    let (mut times, mut prefix) = (Vec::<Time>::new(), Vec::<f64>::new());
    let mut running = 0.0f64;
    for (t, p) in steps {
        running = running.max(p);
        if times.last() == Some(&t) {
            *prefix.last_mut().expect("pushed with its time") = running;
        } else {
            times.push(t);
            prefix.push(running);
        }
    }
    PetCdf { times, prefix, mean: f64::NAN }
}

/// One machine's independently-borrowable scoring cell: the incremental
/// tail cache, the convolution scratch pool that feeds it, and a column
/// scratch the pooled fan-out fills in place. Workers in a fan-out own one
/// cell each; nothing is shared mutably across cells.
#[derive(Debug, Default)]
struct MachineCache {
    cache: TailCache,
    /// Convolution scratch + PMF storage pool private to this machine.
    scratch: ConvScratch,
    /// Score-column scratch for pooled [`ScoreTable::rebuild`] rounds:
    /// workers cannot write into the caller-owned table, so they fill this
    /// and the caller swaps it into the table column in machine-index
    /// order (buffers recycle across events through the same swap).
    col: Vec<Option<PairScore>>,
}

impl MachineCache {
    /// Drops the cached chain — the machine left the cluster. Every PMF is
    /// recycled into the cell's own scratch pool, so a later re-join
    /// rebuilds from the free-list instead of the allocator; the cell
    /// itself (and its shard slot in a pooled store) stays put, which is
    /// what keeps surviving machines' warmth intact across membership
    /// changes.
    fn release(&mut self) {
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
    fn ensure(
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

        let exec_sig = machine.executing().map(|e| (e.task.id, e.started_at, e.progress_before));
        let head_reusable = cache.valid
            && cache.head_window.contains(now)
            && cache.exec_sig == exec_sig
            && cache.warm_rev == machine.warm_rev()
            && (!want_stats || cache.stats_valid);
        if head_reusable {
            // Layer 2 prefix reuse: keep every chain link up to the first
            // divergence between the cached and live pending queues.
            let lcp = machine
                .pending_entries()
                .zip(cache.pending_sig.iter())
                .take_while(|(e, s)| e.task.id == s.id && e.progress == s.progress)
                .count();
            for link in cache.links.drain(lcp..) {
                scratch.recycle(link);
            }
            cache.pending_sig.truncate(lcp);
            cache.slots.truncate(usize::from(exec_sig.is_some()) + lcp);
        } else {
            // Full rebuild: recompute the conditioned head at `now`.
            cache.builds += 1;
            for link in cache.links.drain(..) {
                scratch.recycle(link);
            }
            cache.pending_sig.clear();
            cache.slots.clear();
            if let Some(old) = cache.head.take() {
                scratch.recycle(old);
            }
            let until = if let Some(exec) = machine.executing() {
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
                crate::chain::head_valid_until(exec, pet.pmf(exec.task.type_id, machine.id()), now)
            } else {
                cache.head = Some(scratch.delta(now));
                now.saturating_add(1)
            };
            cache.head_window = HeadWindow { from: now, until };
            cache.exec_sig = exec_sig;
            cache.stats_valid = true;
        }

        // Extend the chain over the (new) pending suffix, via the shared
        // `chain::chain_extension` step. The Eq. 6 moment pass over the
        // uncompacted completion is the single most expensive part of an
        // append; only the pruner reads it, so stats-free callers skip it
        // (leaving the NaN placeholder `stats_valid` tracks).
        for (idx, entry) in machine.pending_entries().enumerate().skip(cache.pending_sig.len()) {
            cache.builds += 1;
            let avail = cache.links.last().or(cache.head.as_ref()).expect("head built above");
            let (mut step, skewness) = crate::chain::chain_extension(
                avail,
                entry,
                pets.for_pending(machine, idx, entry),
                machine.id(),
                policy,
                budget,
                want_stats,
                scratch,
            );
            if !want_stats {
                cache.stats_valid = false;
            }
            if let Some(c) = step.completion.take() {
                scratch.recycle(c);
            }
            cache.slots.push(SlotScore {
                task: entry.task,
                position: cache.slots.len(),
                robustness: step.robustness.min(1.0),
                skewness,
            });
            cache.pending_sig.push(PendingSig { id: entry.task.id, progress: entry.progress });
            cache.links.push(step.availability);
        }

        cache.valid = true;
        cache.version = machine.version();
        cache.warm_rev = machine.warm_rev();
    }
}

/// The tables [`ProbScorer::for_spec`] last derived, kept so the next
/// mapper built against the same system shares them instead of paying the
/// cold-PET convolutions, prefix CDFs and shard envelopes again. One
/// entry: a run maps one system at a time, and a different system simply
/// replaces it. A hit is decided by *full equality* of everything the
/// tables are a function of — never by a hash — and compares the warm PET
/// against the copy the tables already own; the spin-up matrix, which
/// they do not keep, is the only input stored alongside them.
struct SpecMemo {
    entry: Option<SpecEntry>,
}

struct SpecEntry {
    /// Spin-up matrix the cold tables were derived from (`None`: classic
    /// model).
    spinup: Option<PetMatrix>,
    shared: Arc<ScorerShared>,
}

static SPEC_MEMO: std::sync::Mutex<SpecMemo> = std::sync::Mutex::new(SpecMemo { entry: None });

impl SpecMemo {
    /// The tables for `(spec, policy, budget)`: the remembered ones when
    /// every input is equal, freshly derived (and remembered) otherwise.
    /// Callers hold the memo's lock across the call, so concurrent
    /// requests for one system derive once.
    fn tables_for(
        &mut self,
        spec: &SystemSpec,
        policy: DropPolicy,
        budget: usize,
    ) -> Arc<ScorerShared> {
        let spinup = spec.coldstart.as_ref().map(|c| &c.spinup);
        if let Some(entry) = &self.entry {
            let shared = &entry.shared;
            if shared.policy == policy
                && shared.budget == budget
                && entry.spinup.as_ref() == spinup
                && shared.pet == spec.pet
            {
                return Arc::clone(shared);
            }
        }
        // Let go of the previous system's tables before building the next.
        self.entry = None;
        let cold = spec.coldstart.as_ref().map(|c| c.cold_pet(&spec.pet, budget));
        let shared = Arc::new(ScorerShared::derive(spec.pet.clone(), cold, policy, budget));
        self.entry = Some(SpecEntry { spinup: spinup.cloned(), shared: Arc::clone(&shared) });
        shared
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
    /// Scratch for scorer-level (machine-independent) operations:
    /// hypothetical appends and their recycling.
    hypo_scratch: ConvScratch,
    /// Copy-out buffers for single-cell queries in pooled mode (see
    /// `Cells::view`).
    slots_buf: Vec<SlotScore>,
    tail_buf: Pmf,
}

impl ProbScorer {
    /// Builds a scorer for `pet` under `policy`, compacting intermediate
    /// availability PMFs to `budget` impulses. The PET is cloned once into
    /// shared storage; every later query scores against it.
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
    /// per position via the [`PetTables`] warmth rules.
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
            hypo_scratch: ConvScratch::new(),
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
        self.cells.with(m.index(), |cell| cell.cache.builds)
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
    /// the single-copy path for callers that need an *owned* tail (MOC's
    /// permutation phase): in pooled mode a borrow cannot escape the cell
    /// lock, so [`ProbScorer::tail`] + `clone()` would copy twice.
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

    /// Scores appending `task` to `machine`'s queue. A machine with an
    /// announced departure scores against `min(δ, departs_at)` — the
    /// churn-aware bias that steers phase 2 away from soon-to-leave
    /// machines (see `effective_deadline`).
    pub fn score(&mut self, machine: &MachineState, task: &Task) -> PairScore {
        let Self { shared, now, cells, .. } = self;
        let deadline = effective_deadline(task.deadline, machine.announced_departure());
        cells.with(machine.id().index(), |cell| {
            cell.ensure(shared, *now, machine, false);
            score_against(
                cell.cache.tail(),
                shared.cdf_for(task.type_id, machine),
                deadline,
                shared.policy,
            )
        })
    }

    /// Scores `task` against an explicit tail (used by MOC's permutation
    /// phase, which evaluates hypothetical assignments).
    ///
    /// Always scores against the *warm* PET cell: the hypothetical tail
    /// carries no machine-warmth context. Under a cold-start model this
    /// overestimates the robustness of what would be a cold placement — an
    /// accepted approximation for the permutation/preemption probes that
    /// use this path (the serverless scenario maps with PAM, whose phases
    /// all go through the warmth-aware [`ProbScorer::score`] and
    /// [`ScoreTable`] paths).
    #[must_use]
    pub fn score_against_tail(
        &self,
        tail: &Pmf,
        tt: TaskTypeId,
        m: MachineId,
        deadline: Time,
    ) -> PairScore {
        score_against(tail, self.shared.cdf(tt, m), deadline, self.shared.policy)
    }

    /// Availability after hypothetically appending a task with execution
    /// PMF `exec` and `deadline` behind `tail`, compacted to the scorer's
    /// budget. Storage is drawn from the scorer's pool; hand the result
    /// back via [`ProbScorer::recycle`] to keep the loop allocation-free.
    pub fn append_availability(&mut self, tail: &Pmf, exec: &Pmf, deadline: Time) -> Pmf {
        let mut step =
            queue_step_into(tail, exec, deadline, self.shared.policy, &mut self.hypo_scratch);
        step.availability.compact(self.shared.budget);
        if let Some(c) = step.completion {
            self.hypo_scratch.recycle(c);
        }
        step.availability
    }

    /// Returns a PMF obtained from this scorer to its storage pool.
    pub fn recycle(&mut self, pmf: Pmf) {
        self.hypo_scratch.recycle(pmf);
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

/// Slop added to the robustness upper bound before comparing it against a
/// skip threshold. The analytic bound `Σ p_u · cdf(δ−u) ≤ cdf(δ−u_min)`
/// can be violated by float rounding only by ~`n·ulp` (≤ 1e-13 for any
/// realistic tail) plus the tail's normalization epsilon (1e-9), so a
/// 1e-8 margin makes the skip decision *provably* agree with the exact
/// comparison.
const BOUND_MARGIN: f64 = 1e-8;

/// The (window task × machine) score matrix PAM and MOC reduce over,
/// maintained *hierarchically* and *incrementally* — within a mapping
/// event and, while the membership epoch holds, from one event to the
/// next, whether or not the clock or the caller's thresholds moved.
///
/// Layout is machine-major (one contiguous column per machine), grouped
/// into contiguous `TABLE_SHARD_WIDTH`-machine shards, which is what
/// makes both the bound pass and the phase-2 reduction cheap at cluster
/// scale:
///
/// * [`ScoreTable::rebuild`] — the first event, a new epoch, or a tick
///   that re-keyed most of the cluster — ensures every free machine's
///   tail cache in a per-machine fan-out (a
///   worker-pool round at cluster scale), then scores the surviving
///   (row, shard) pairs in a second fan-out (columns are disjoint cells,
///   merged in machine-index order);
/// * between the two fan-outs, a **hierarchical bound pass** proves most
///   window rows deferred without scoring them — and most shards of the
///   remaining rows irrelevant without touching their machines. The
///   robustness of (task, machine) is at most `CDF_E(δ − tail.min_time())`
///   (every startable impulse has at least that much slack, and the tail
///   carries at most unit mass); per shard, the *envelope* CDF (pointwise
///   max over members, precomputed once) evaluated at the shard's
///   earliest free start dominates every member's individual bound. A
///   shard whose envelope bound stays below the caller's skip threshold
///   is skipped whole; a row dead in *every* shard is deferred without
///   scoring anything. Per-row bound work is O(shards), not O(machines).
///   Under a cold-start model the bound is *warm-aware*: the table keeps,
///   per (shard, type), whether some free member would place the type
///   warm (a resident container or a queued same-type entry), and a lane
///   with no such member is bounded by the cold envelope alone
///   (`ScorerShared::shard_bound`) — on a serverless cluster nearly every
///   lane, which is what keeps the bound pass from letting cold
///   placements through on the strength of a warm cell nobody can use.
///   `BOUND_MARGIN` absorbs float slop, so skip decisions *provably*
///   agree with exact scoring: a skipped machine's exact robustness is
///   strictly below the threshold, so its score could only ever lose the
///   reduction to deferral anyway. (The shard test is conservative — an
///   envelope can clear the threshold when no member does — so surviving
///   shards are scored *exactly*; extra `Some` entries below the
///   threshold never change a decision, because the reductions defer/cull
///   on the exact value.)
/// * each shard also caches its **per-row best candidate**
///   (first-wins under the exact comparison), so
///   [`ScoreTable::best_for_row`] reduces over O(shards) precomputed
///   winners instead of scanning O(machines) columns. Shards are
///   contiguous index ranges, so the grouped first-wins reduction picks
///   exactly the machine a flat ascending scan would.
/// * between assignments, only the *assigned* machine's column (and its
///   shard's aggregates) change ([`ScoreTable::refresh_machine`]), plus
///   one appended row when a new batch task slides into the window
///   ([`ScoreTable::push_row`]). Every other pair keeps its previously
///   computed score — which is exactly the value a from-scratch rescore
///   would produce, because pair scores are deterministic in
///   (machine state, task) alone. Within one event machines only fill up
///   and bounds only tighten — with one exception under a cold-start
///   model: an assignment makes the assigned machine warm for the
///   assigned *type* (the queued-entry rule), which can switch that
///   type's lanes in that machine's shard from the cold envelope to the
///   looser warm one. [`ScoreTable::refresh_machine`] rechecks exactly
///   those lanes; every other skipped (row, shard) pair stays skipped
///   for the rest of the event.
/// * across events, [`ScoreTable::ensure`] revalidates the table against
///   `(membership epoch, machine versions, head windows, window)`
///   instead of rebuilding: only machines whose version moved
///   (completions, assignments, pruner drops) or whose conditioned head
///   the clock re-keyed are rescored, rows whose bounds those machines
///   *loosened* — or whose skip threshold the caller lowered — are
///   resurrected shard-by-shard, and the window diff is applied as
///   removals + appended rows. Every surviving entry is
///   byte-identical to what a fresh rebuild would compute, so an event
///   costs O(changed), not O(machines).
///
/// The sequential heuristics used to rescore the full window × machines
/// product on every loop iteration; under oversubscription — where the
/// batch is dominated by tasks that will be deferred again — the table
/// turns that into a cheap per-shard bound sweep plus O(live) exact
/// work, without changing a single mapping decision.
#[derive(Debug, Default)]
pub struct ScoreTable {
    /// One column per machine; `cols[m][i]` scores window task `i` on
    /// machine `m` (`None`: no free slot, or (row, shard) skipped by the
    /// bound pass).
    cols: Vec<Vec<Option<PairScore>>>,
    /// Row-aligned: false when the bound pass proved the row deferred.
    scored: Vec<bool>,
    /// Row-aligned: which shards the row survived the bound pass in
    /// (inner length = shards). Entries only flip dead → live, and only
    /// in [`ScoreTable::ensure`] when a changed machine loosened a bound
    /// or the caller lowered the row's threshold.
    shard_live: Vec<Vec<bool>>,
    /// Row-aligned: the caller's skip threshold the row's dead lanes were
    /// last proven under. [`ScoreTable::ensure`] rechecks every dead lane
    /// of a row whose threshold has since dropped.
    row_thresholds: Vec<f64>,
    /// Recycled `shard_live` lanes (keeps row churn allocation-free).
    spare_lanes: Vec<Vec<bool>>,
    /// Per shard, per row: the shard's best candidate under the exact
    /// first-wins comparison (`None`: no scored member).
    shard_best: Vec<Vec<Option<(usize, PairScore)>>>,
    /// Scratch: `(row, task)` pairs live in one shard — filled once per
    /// shard by [`ScoreTable::collect_live_rows`], read by every column
    /// rescore in that shard.
    live: Vec<(usize, Task)>,
    /// Scratch: per-shard `(row, task)` lists for the rebuild fan-out.
    live_by_shard: Vec<Vec<(usize, Task)>>,
    /// Bound scalars and head window per free machine (`None`: no free
    /// slot), as of the machine's last column (re)score.
    tail_bounds: Vec<Option<TailBound>>,
    /// Per shard: min over members of `tail_bounds[..].earliest` (`None`:
    /// no free member).
    shard_earliest: Vec<Option<Time>>,
    /// Per (shard, type), `shard * task_types + type`: some free member
    /// would place the type warm. Maintained alongside `shard_earliest`
    /// under a cold-start model; empty in the classic one.
    shard_warm: Vec<bool>,
    /// Scratch: the types an assignment just made one shard warm-capable
    /// for ([`ScoreTable::refresh_machine`]).
    newly_warm: Vec<bool>,
    /// Exact (row, machine) scores computed so far (diagnostics/tests).
    pairs_scored: u64,
    /// Reuse signature: membership epoch of the last rebuild, machine
    /// versions and window tasks as last scored. The event time is *not*
    /// part of it — see [`ScoreTable::ensure`].
    epoch: Option<u64>,
    versions: Vec<u64>,
    row_tasks: Vec<Task>,
    /// Set by [`ScoreTable::invalidate`]: the next ensure rebuilds.
    stale: bool,
    /// Ensure scratch: indices/mask of changed machines, dirty shards,
    /// and resurrected `(row, shard)` pairs.
    changed: Vec<usize>,
    changed_mask: Vec<bool>,
    dirty_shards: Vec<bool>,
    newly_live: Vec<(usize, usize)>,
}

/// Machine-index range of shard `s` in a `machines`-wide cluster.
#[inline]
fn shard_range(s: usize, machines: usize) -> std::ops::Range<usize> {
    let start = s * TABLE_SHARD_WIDTH;
    start..(start + TABLE_SHARD_WIDTH).min(machines)
}

/// The exact phase-1 comparison: higher robustness, tie → lower expected
/// completion. Strictly-better, so first-wins scans keep the lowest
/// index among equals — the sequential heuristics' order.
#[inline]
fn better_pair(score: &PairScore, best: &PairScore) -> bool {
    score.robustness > best.robustness
        || (score.robustness == best.robustness
            && score.expected_completion < best.expected_completion)
}

/// First-wins best over shard `s`'s scored entries for `row`.
fn shard_best_entry(
    cols: &[Vec<Option<PairScore>>],
    s: usize,
    row: usize,
) -> Option<(usize, PairScore)> {
    let mut best: Option<(usize, PairScore)> = None;
    for m in shard_range(s, cols.len()) {
        let Some(score) = cols[m][row] else { continue };
        if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
            best = Some((m, score));
        }
    }
    best
}

/// [`shard_best_entry`] restricted to machines that currently have a free
/// slot — the fallback when a cached shard best went stale-full.
fn shard_best_live(
    cols: &[Vec<Option<PairScore>>],
    s: usize,
    row: usize,
    machines: &[MachineState],
) -> Option<(usize, PairScore)> {
    let mut best: Option<(usize, PairScore)> = None;
    for m in shard_range(s, cols.len()) {
        if !machines[m].has_free_slot() {
            continue;
        }
        let Some(score) = cols[m][row] else { continue };
        if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
            best = Some((m, score));
        }
    }
    best
}

impl ScoreTable {
    /// An empty table; [`ScoreTable::rebuild`] sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of window tasks currently tracked.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.scored.len()
    }

    /// Exact (row, machine) pair scores the table has computed so far —
    /// the work the bound pass did *not* avoid. Test support, not part of
    /// the supported API.
    #[doc(hidden)]
    #[must_use]
    pub fn pairs_scored(&self) -> u64 {
        self.pairs_scored
    }

    /// Recomputes the whole table for `tasks` (the batch window) against
    /// every machine, fanning the per-machine work out at the scorer's
    /// configured width ([`ProbScorer::set_parallelism`]). `skip_below`
    /// gives, per task type, the robustness threshold under which the
    /// caller's reduction would defer/cull the task anyway — (row, shard)
    /// pairs whose envelope bound proves that are left unscored. Machines
    /// without a free slot get an all-`None` column. Bit-identical at any
    /// thread count.
    pub fn rebuild(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        self.rebuild_changed(scorer, machines, tasks, skip_below, usize::MAX);
    }

    /// [`ScoreTable::rebuild`] knowing that only `changed` machines moved
    /// since the table last scored them: too few of them
    /// (`REBUILD_FANOUT_MIN_CHANGED`) keep the rebuild on the calling
    /// thread.
    fn rebuild_changed(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        skip_below: &dyn Fn(TaskTypeId) -> f64,
        changed: usize,
    ) {
        debug_assert_machine_alignment(machines);
        self.cols.resize_with(machines.len(), Vec::new);
        let free = machines.iter().filter(|m| m.has_free_slot()).count();
        let parallel = free >= PARALLEL_MIN_MACHINES && changed >= REBUILD_FANOUT_MIN_CHANGED;
        let shards = scorer.shared.shards;

        // Fan-out 1: bring every free machine's availability chain up to
        // date (the convolution-heavy part), then gather the bound
        // scalars and fold them into the per-shard aggregates.
        scorer.cells.warm(
            &scorer.shared,
            scorer.now,
            machines,
            WarmFilter::FreeSlot,
            false,
            parallel,
        );
        scorer.collect_tail_bounds(machines, &mut self.tail_bounds);
        self.shard_earliest.clear();
        self.shard_earliest.resize(shards, None);
        self.shard_warm.clear();
        self.shard_warm.resize(scorer.shared.warm_flags(), false);
        for s in 0..shards {
            self.recompute_shard_aggregates(&scorer.shared, machines, s);
        }

        // Hierarchical bound pass: per row, one envelope probe per shard;
        // only surviving (row, shard) pairs reach the scoring fan-out.
        self.scored.clear();
        self.row_thresholds.clear();
        self.spare_lanes.append(&mut self.shard_live);
        self.live_by_shard.resize_with(shards, Vec::new);
        for lane in &mut self.live_by_shard {
            lane.clear();
        }
        for (row, task) in tasks.iter().enumerate() {
            let threshold = skip_below(task.type_id);
            let mut lanes = self.spare_lanes.pop().unwrap_or_default();
            lanes.clear();
            lanes.resize(shards, false);
            let mut any = false;
            for (s, lane) in lanes.iter_mut().enumerate() {
                if self.lane_clears(&scorer.shared, task, s, threshold) {
                    *lane = true;
                    any = true;
                    self.live_by_shard[s].push((row, *task));
                }
            }
            self.scored.push(any);
            self.row_thresholds.push(threshold);
            self.shard_live.push(lanes);
        }
        self.pairs_scored += (0..shards)
            .map(|s| {
                let free = self.tail_bounds[shard_range(s, machines.len())].iter().flatten();
                (free.count() * self.live_by_shard[s].len()) as u64
            })
            .sum::<u64>();

        // Fan-out 2: exact scores for the surviving (row, shard) pairs,
        // one column per machine.
        scorer.cells.fill_columns(
            &scorer.shared,
            machines,
            &self.live_by_shard,
            tasks.len(),
            &mut self.cols,
            parallel,
        );

        // Per-shard phase-1 reduction: cache each shard's best candidate
        // per live row, so best_for_row touches O(shards) entries.
        self.shard_best.resize_with(shards, Vec::new);
        for (s, bests) in self.shard_best.iter_mut().enumerate() {
            bests.clear();
            bests.resize(tasks.len(), None);
            for &(row, _) in &self.live_by_shard[s] {
                bests[row] = shard_best_entry(&self.cols, s, row);
            }
        }

        // Reuse signature.
        self.versions.clear();
        self.versions.extend(machines.iter().map(MachineState::version));
        self.row_tasks.clear();
        self.row_tasks.extend_from_slice(tasks);
        self.epoch = scorer.membership_epoch;
        self.stale = false;
    }

    /// Marks the table unusable for reuse: the next
    /// [`ScoreTable::ensure`] rebuilds from scratch. For callers whose
    /// machines stop being the ones the table scored — a mapper restored
    /// onto another timeline, where versions are re-issued. Threshold
    /// drift needs no invalidation; `ensure` follows it row by row.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Revalidates the table for a new mapping event — at the same
    /// instant or a later one — instead of rebuilding. A column is a pure
    /// function of the machine's tail, its warm/cold CDF selection and its
    /// announced departure; none of them reads the clock, and every one
    /// of them bumps [`MachineState::version`] when it changes, except
    /// the tail's conditioned head, whose validity the table records per
    /// machine as a window of event times. So while the membership epoch
    /// holds, the *changed* machines are exactly those whose version
    /// moved (completions, assignments, pruner drops, warm-set and
    /// announcement changes) plus the free machines whose recorded head
    /// window no longer contains `now` (an executing task crossed a PET
    /// impulse; an idle machine's `delta(now)` moved). Only they are
    /// rescored, rows whose bounds they loosened are resurrected, and the
    /// window diff is applied as removals plus appended rows.
    ///
    /// `skip_below` may differ from the previous event's (adaptive trims,
    /// sufferage relief): each row remembers the threshold its skipped
    /// shards were proven under, and a row whose threshold dropped has
    /// all of them rechecked. A raised threshold needs nothing — what is
    /// scored stays scored.
    ///
    /// Falls back to a rebuild — returning `false` — when the table was
    /// invalidated or is of another epoch, and when incremental repair
    /// would not pay: the changed set is at least half the free machines
    /// (an idle-heavy cluster re-keys wholesale every tick). Such a
    /// rebuild mostly hits warm chains, and fans out only from
    /// `REBUILD_FANOUT_MIN_CHANGED` changed machines up; the
    /// incremental path runs on the calling thread whatever the thread
    /// count — a pool round costs more than the few columns it would
    /// share out. Returns `true` when the table was reused incrementally.
    ///
    /// Every entry after `ensure` that a fresh rebuild would also score
    /// is byte-identical to the rebuilt value; entries `ensure` keeps
    /// that a rebuild would have bound-skipped are exact scores strictly
    /// below the caller's threshold, which the reductions defer/cull
    /// identically. Decisions are therefore unchanged — only the work is.
    pub fn ensure(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) -> bool {
        let shards = scorer.shared.shards;
        let now = scorer.now;
        // Phase 1a: find the changed machines (no scorer work yet) —
        // whenever the table has columns of this cluster to diff against,
        // reusable or not: a rebuild sizes its fan-out by the same count.
        let mut changed = usize::MAX;
        let mut reusable = false;
        if !self.stale
            && self.versions.len() == machines.len()
            && self.shard_earliest.len() == shards
            && self.shard_warm.len() == scorer.shared.warm_flags()
        {
            self.changed.clear();
            let mut free = 0;
            for (m, machine) in machines.iter().enumerate() {
                let free_slot = machine.has_free_slot();
                free += usize::from(free_slot);
                let head_holds = self.tail_bounds[m].is_some_and(|b| b.head_window.contains(now));
                if self.versions[m] != machine.version() || (free_slot && !head_holds) {
                    self.changed.push(m);
                }
            }
            changed = self.changed.len();
            reusable = self.epoch == scorer.membership_epoch && changed * 2 < free.max(1);
        }
        if !reusable {
            self.rebuild_changed(scorer, machines, tasks, skip_below, changed);
            return false;
        }
        debug_assert_machine_alignment(machines);

        // Phase 1b: refresh the changed machines' bound scalars (and
        // their shards' earliest starts).
        self.changed_mask.clear();
        self.changed_mask.resize(machines.len(), false);
        self.dirty_shards.clear();
        self.dirty_shards.resize(shards, false);
        for i in 0..self.changed.len() {
            let m = self.changed[i];
            self.refresh_bound(scorer, machines, m);
            self.changed_mask[m] = true;
            self.dirty_shards[m / TABLE_SHARD_WIDTH] = true;
        }
        for s in 0..shards {
            if self.dirty_shards[s] {
                self.recompute_shard_aggregates(&scorer.shared, machines, s);
            }
        }

        // Phase 2: resurrection. A dead (row, shard) lane can have come
        // alive two ways: a changed machine loosened its shard's bound (a
        // completion or drop shortens a queue; a container or queued entry
        // makes the shard warm-capable for the row's type), or the caller
        // lowered the row's threshold (adaptive trims, sufferage relief).
        // Rechecking the dirty shards of every row, and every shard of a
        // row whose threshold dropped, restores exactly the liveness a
        // fresh bound pass would compute (other lanes kept both their
        // bound and their threshold; live lanes stay live, which at worst
        // over-scores — see above).
        self.newly_live.clear();
        for row in 0..self.scored.len() {
            let task = self.row_tasks[row];
            let threshold = skip_below(task.type_id);
            let lowered = threshold < self.row_thresholds[row];
            self.row_thresholds[row] = threshold;
            for s in 0..shards {
                if !(lowered || self.dirty_shards[s]) || self.shard_live[row][s] {
                    continue;
                }
                if self.lane_clears(&scorer.shared, &task, s, threshold) {
                    self.shard_live[row][s] = true;
                    self.scored[row] = true;
                    self.newly_live.push((row, s));
                }
            }
        }

        // Phase 3: score the resurrected (row, shard) pairs on the
        // shard's unchanged free machines. A shard no machine changed in
        // is not revisited below, so its best cache is settled here.
        let changed_mask = std::mem::take(&mut self.changed_mask);
        for i in 0..self.newly_live.len() {
            let (row, s) = self.newly_live[i];
            self.score_lane(scorer, machines, row, s, |m| changed_mask[m]);
            if !self.dirty_shards[s] {
                self.shard_best[s][row] = shard_best_entry(&self.cols, s, row);
            }
        }
        self.changed_mask = changed_mask;

        // Phase 4: per dirty shard, rescore its changed members' columns
        // (rows live in the shard — including the just-resurrected ones)
        // from one live-row list, then refresh its best cache once,
        // however many members changed.
        for s in 0..shards {
            if !self.dirty_shards[s] {
                continue;
            }
            self.collect_live_rows(s);
            for m in shard_range(s, machines.len()) {
                if self.changed_mask[m] {
                    self.rescore_column(scorer, machines, m);
                }
            }
            self.refresh_shard_best(s);
        }

        // Phase 5: reconcile the window. The new window is the old one
        // minus departed tasks (assigned last event, expired this tick)
        // plus a slid-in suffix; a two-pointer walk applies exactly that
        // as removals and pushes. Any weirder diff degenerates to
        // remove-all + push-all — slower, still exact.
        let mut row = 0;
        for task in tasks {
            while row < self.rows() && self.row_tasks[row].id != task.id {
                self.remove_row(row);
            }
            if row < self.rows() {
                row += 1;
            } else {
                self.push_row(scorer, machines, task, skip_below);
                row += 1;
            }
        }
        while self.rows() > tasks.len() {
            let last = tasks.len();
            self.remove_row(last);
        }
        true
    }

    /// Recomputes shard `s`'s bound inputs over its free members (those
    /// with a recorded tail bound): the earliest start and, under a
    /// cold-start model, which types some member would place warm.
    fn recompute_shard_aggregates(
        &mut self,
        shared: &ScorerShared,
        machines: &[MachineState],
        s: usize,
    ) {
        let members = shard_range(s, self.tail_bounds.len());
        self.shard_earliest[s] =
            self.tail_bounds[members.clone()].iter().flatten().map(|b| b.earliest).min();
        if shared.cold_shard_cdfs.is_none() {
            return;
        }
        let flags = &mut self.shard_warm[s * shared.task_types..(s + 1) * shared.task_types];
        flags.fill(false);
        for m in members {
            if self.tail_bounds[m].is_some() {
                for tt in crate::chain::warm_append_types(&machines[m]) {
                    flags[tt.index()] = true;
                }
            }
        }
    }

    /// Whether the (row of `task`, shard `s`) lane survives the bound
    /// pass under `threshold`: the shard has a free member and its bound
    /// does not prove the task's robustness there below the threshold.
    fn lane_clears(&self, shared: &ScorerShared, task: &Task, s: usize, threshold: f64) -> bool {
        self.shard_earliest[s].is_some_and(|earliest| {
            let bound =
                shared.shard_bound(task.type_id, s, earliest, task.deadline, &self.shard_warm);
            bound + BOUND_MARGIN >= threshold
        })
    }

    /// Scores a resurrected (row, shard) lane on the shard's free
    /// machines, except those `rescored` names — their whole columns are
    /// about to be rescored by the caller.
    fn score_lane(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        row: usize,
        s: usize,
        rescored: impl Fn(usize) -> bool,
    ) {
        let task = self.row_tasks[row];
        for m in shard_range(s, machines.len()) {
            if rescored(m) || !machines[m].has_free_slot() {
                continue;
            }
            self.cols[m][row] = Some(scorer.score(&machines[m], &task));
            self.pairs_scored += 1;
        }
    }

    /// Fills `self.live` with the `(row, task)` pairs live in shard `s`.
    fn collect_live_rows(&mut self, s: usize) {
        self.live.clear();
        for (row, task) in self.row_tasks.iter().enumerate() {
            if self.shard_live[row][s] {
                self.live.push((row, *task));
            }
        }
    }

    /// Records machine `m`'s version and (ensured) tail bound — the part
    /// of the reuse signature a column rescore goes with.
    fn refresh_bound(&mut self, scorer: &mut ProbScorer, machines: &[MachineState], m: usize) {
        let machine = &machines[m];
        self.versions[m] = machine.version();
        self.tail_bounds[m] = machine.has_free_slot().then(|| scorer.ensure_tail_bound(machine));
    }

    /// Rescores machine `m`'s column for the rows live in its shard —
    /// `self.live`, which the caller filled via
    /// [`ScoreTable::collect_live_rows`] — or clears it when the machine
    /// has no free slot. Bound scalars and shard aggregates are the
    /// caller's responsibility.
    fn rescore_column(&mut self, scorer: &mut ProbScorer, machines: &[MachineState], m: usize) {
        let machine = &machines[m];
        let col = &mut self.cols[m];
        col.clear();
        col.resize(self.scored.len(), None);
        if !machine.has_free_slot() {
            return;
        }
        let live = &self.live;
        self.pairs_scored += live.len() as u64;
        let ProbScorer { shared, now, cells, .. } = scorer;
        cells.with(m, |cell| {
            cell.ensure(shared, *now, machine, false);
            score_column_scatter(cell.cache.tail(), shared, machine, live, col);
        });
    }

    /// Drops window row `row` (its task was assigned or left the batch).
    pub fn remove_row(&mut self, row: usize) {
        for col in &mut self.cols {
            col.remove(row);
        }
        self.scored.remove(row);
        self.row_thresholds.remove(row);
        let lanes = self.shard_live.remove(row);
        self.spare_lanes.push(lanes);
        for bests in &mut self.shard_best {
            bests.remove(row);
        }
        if row < self.row_tasks.len() {
            self.row_tasks.remove(row);
        }
    }

    /// Appends a row for `task` (a batch task that slid into the window):
    /// shard-bound-checked against the cached earliest starts, then
    /// scored on the free machines of its surviving shards.
    ///
    /// The cached shard aggregates can be stale only for a machine
    /// assigned to since its last refresh. Its queue *grew*, so the stale
    /// earliest start is only ever looser than the live one. The stale
    /// warm-capable flags are the one thing that can err the other way —
    /// the assignment may just have made the shard warm-capable for the
    /// assigned type — and the [`ScoreTable::refresh_machine`] that
    /// follows every assignment rechecks exactly those lanes, this row's
    /// included. With that, liveness is a superset of a fresh bound pass,
    /// never a subset, and the extra entries are exact scores below the
    /// threshold (deferred either way).
    pub fn push_row(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        task: &Task,
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        let shards = self.shard_earliest.len();
        let threshold = skip_below(task.type_id);
        let mut lanes = self.spare_lanes.pop().unwrap_or_default();
        lanes.clear();
        lanes.resize(shards, false);
        let mut any = false;
        for (s, lane) in lanes.iter_mut().enumerate() {
            if self.lane_clears(&scorer.shared, task, s, threshold) {
                *lane = true;
                any = true;
            }
        }
        let row = self.scored.len();
        self.scored.push(any);
        self.row_thresholds.push(threshold);
        for (m, (machine, col)) in machines.iter().zip(&mut self.cols).enumerate() {
            let value = (lanes[m / TABLE_SHARD_WIDTH] && machine.has_free_slot())
                .then(|| scorer.score(machine, task));
            self.pairs_scored += u64::from(value.is_some());
            col.push(value);
        }
        for (s, bests) in self.shard_best.iter_mut().enumerate() {
            let entry = if lanes[s] { shard_best_entry(&self.cols, s, row) } else { None };
            bests.push(entry);
        }
        self.shard_live.push(lanes);
        self.row_tasks.push(*task);
    }

    /// Rescores machine `m`'s column against the current window `tasks`
    /// (its queue changed) — a single-cell request to wherever the cell
    /// lives, plus an update of the shard's aggregates. A machine that
    /// filled up gets an all-`None` column; within one mapping event
    /// machines never go full → free, so stale entries cannot resurface.
    ///
    /// A longer queue only tightens the shard's earliest start, so the
    /// shard's skipped lanes stay skipped — except, under a cold-start
    /// model, those of a type the assignment just made the shard
    /// warm-capable for (its bound moves from the cold envelope to the
    /// looser warm one). Those lanes are rechecked under the threshold
    /// they were skipped at, and a lane that now clears it is scored on
    /// the shard's other free members before `m`'s column and the
    /// shard's best cache are rebuilt — what [`ScoreTable::ensure`] does
    /// across events, for one shard.
    pub fn refresh_machine(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        m: usize,
    ) {
        debug_assert_eq!(tasks.len(), self.rows(), "window drifted from table");
        debug_assert!(
            tasks.iter().zip(&self.row_tasks).all(|(a, b)| a.id == b.id),
            "window drifted from table rows"
        );
        let s = m / TABLE_SHARD_WIDTH;
        self.refresh_bound(scorer, machines, m);
        // No flags, no types to watch: the classic model skips all of this.
        let types = if self.shard_warm.is_empty() { 0 } else { scorer.shared.task_types };
        let flags = s * types..(s + 1) * types;
        self.newly_warm.clear();
        self.newly_warm.extend_from_slice(&self.shard_warm[flags.clone()]);
        self.recompute_shard_aggregates(&scorer.shared, machines, s);
        for (flag, &now) in self.newly_warm.iter_mut().zip(&self.shard_warm[flags]) {
            *flag = now && !*flag;
        }
        if self.newly_warm.contains(&true) {
            for row in 0..self.rows() {
                let task = self.row_tasks[row];
                if self.newly_warm[task.type_id.index()]
                    && !self.shard_live[row][s]
                    && self.lane_clears(&scorer.shared, &task, s, self.row_thresholds[row])
                {
                    self.shard_live[row][s] = true;
                    self.scored[row] = true;
                    self.score_lane(scorer, machines, row, s, |other| other == m);
                }
            }
        }
        // The bound refresh warmed the cell, so the rescore's chain probe
        // is a cache hit.
        self.collect_live_rows(s);
        self.rescore_column(scorer, machines, m);
        self.refresh_shard_best(s);
    }

    /// Recomputes shard `s`'s cached best candidate for every row live in
    /// it (some member column changed).
    fn refresh_shard_best(&mut self, s: usize) {
        for row in 0..self.scored.len() {
            if self.shard_live[row][s] {
                self.shard_best[s][row] = shard_best_entry(&self.cols, s, row);
            }
        }
    }

    /// The score of window task `row` on machine `m`, if it was scored.
    #[must_use]
    pub fn get(&self, row: usize, m: usize) -> Option<PairScore> {
        self.cols[m][row]
    }

    /// Phase 1 for one window task: the machine offering the highest
    /// robustness among machines with free slots (tie → lower expected
    /// completion) — the same comparisons and effective scan order the
    /// sequential heuristics used, reduced over the per-shard best
    /// caches: shards are contiguous ascending index ranges, so the
    /// grouped first-wins reduction returns exactly the flat scan's
    /// winner. A cached best whose machine has since lost its free slot
    /// falls back to rescanning that shard.
    #[must_use]
    pub fn best_for_row(
        &self,
        machines: &[MachineState],
        row: usize,
    ) -> Option<(MachineId, PairScore)> {
        let mut best: Option<(usize, PairScore)> = None;
        for (s, bests) in self.shard_best.iter().enumerate() {
            let cand = match bests[row] {
                None => None,
                Some((m, score)) if machines[m].has_free_slot() => Some((m, score)),
                Some(_) => shard_best_live(&self.cols, s, row, machines),
            };
            let Some((m, score)) = cand else { continue };
            if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                best = Some((m, score));
            }
        }
        best.map(|(m, score)| (MachineId::from(m), score))
    }
}

fn debug_assert_machine_alignment(machines: &[MachineState]) {
    debug_assert!(
        machines.iter().enumerate().all(|(i, m)| m.id().index() == i),
        "machine slice must be id-ordered"
    );
}

/// Walk-down cursor over a [`PetCdf`] for *non-increasing* query
/// sequences. The scoring loops probe `CDF_E(δ − t)` with the tail times
/// `t` ascending, so the cut index only ever moves left; maintaining it
/// with a pointer walk replaces one binary search per (impulse, task)
/// probe with amortized O(|cdf|) total work per task — and returns the
/// *exact* same prefix value as [`PetCdf::cdf_at`].
struct CdfCursor<'a> {
    times: &'a [Time],
    prefix: &'a [f64],
    idx: usize,
}

impl<'a> CdfCursor<'a> {
    fn new(cdf: &'a PetCdf) -> Self {
        Self { times: &cdf.times, prefix: &cdf.prefix, idx: cdf.times.len() }
    }

    /// CDF at `q`; callers must probe with non-increasing `q`.
    #[inline]
    fn at_descending(&mut self, q: Time) -> f64 {
        debug_assert!(self.idx == self.times.len() || self.times[self.idx] > q);
        while self.idx > 0 && self.times[self.idx - 1] > q {
            self.idx -= 1;
        }
        if self.idx == 0 {
            0.0
        } else {
            self.prefix[self.idx - 1]
        }
    }
}

/// Upper bound on the Eq. 1 robustness of appending a task with deadline
/// `deadline` behind a tail whose earliest impulse is `earliest`: every
/// startable impulse leaves at most `δ − earliest` slack, and the tail
/// carries at most unit mass, so `Σ p_u · CDF_E(δ−u) ≤ CDF_E(δ − u_min)`.
/// One CDF lookup — the [`ScoreTable`] bound pass runs this per
/// (row, machine) in place of the full scoring walk.
fn robustness_bound(earliest: Time, cdf: &PetCdf, deadline: Time) -> f64 {
    if earliest >= deadline {
        0.0
    } else {
        cdf.cdf_at(deadline - earliest)
    }
}

/// Effective scoring deadline on one machine: a task on a machine with an
/// announced departure cannot be counted on past the departure instant —
/// a drain stops the queue, a fail requeues it — so its robustness is
/// computed against `min(δ, departs_at)`. Machines without an
/// announcement score against the plain deadline. The bound pass keeps
/// the unclamped deadline: clamping only *lowers* robustness, so the
/// unclamped bound stays a valid upper bound.
#[inline]
fn effective_deadline(deadline: Time, cap: Option<Time>) -> Time {
    match cap {
        Some(departs_at) => deadline.min(departs_at),
        None => deadline,
    }
}

/// Fills one machine column of a [`ScoreTable`] for the bound-surviving
/// `(row, task)` pairs, every task scored against the same tail. Tasks
/// are processed four at a time — one shared walk over the tail drives
/// four independent accumulator lanes (distinct tasks → distinct
/// accumulators and CDF cursors), which gives the superscalar core four
/// dependency chains instead of one. Each lane performs exactly the
/// per-task walk of [`score_against`] (same impulse order, same CDF
/// values, same float operations), so the column is bit-identical to
/// per-pair scoring; the remainder lanes literally call it. The machine's
/// announced departure caps each deadline (see [`effective_deadline`]),
/// and under a cold-start model each task's CDF is selected warm-or-cold
/// from the machine's warm-container set via [`ScorerShared::cdf_for`].
fn score_column_scatter(
    tail: &Pmf,
    shared: &ScorerShared,
    machine: &MachineState,
    live: &[(usize, Task)],
    col: &mut [Option<PairScore>],
) {
    let cap = machine.announced_departure();
    let mut quads = live.chunks_exact(4);
    for quad in &mut quads {
        let tasks = [quad[0].1, quad[1].1, quad[2].1, quad[3].1];
        let scores = score_quad(tail, shared, machine, &tasks);
        for (&(row, _), score) in quad.iter().zip(scores) {
            col[row] = Some(score);
        }
    }
    for &(row, task) in quads.remainder() {
        col[row] = Some(score_against(
            tail,
            shared.cdf_for(task.type_id, machine),
            effective_deadline(task.deadline, cap),
            shared.policy,
        ));
    }
}

/// Four-lane unrolled [`score_against`] under the dropping scenarios; see
/// [`score_column_scatter`]. Scenario A (policy `None`) has no early-break
/// structure to share, so it stays on the scalar path.
fn score_quad(
    tail: &Pmf,
    shared: &ScorerShared,
    machine: &MachineState,
    quad: &[Task],
) -> [PairScore; 4] {
    let cap = machine.announced_departure();
    let cdfs = [
        shared.cdf_for(quad[0].type_id, machine),
        shared.cdf_for(quad[1].type_id, machine),
        shared.cdf_for(quad[2].type_id, machine),
        shared.cdf_for(quad[3].type_id, machine),
    ];
    let deadlines = [
        effective_deadline(quad[0].deadline, cap),
        effective_deadline(quad[1].deadline, cap),
        effective_deadline(quad[2].deadline, cap),
        effective_deadline(quad[3].deadline, cap),
    ];
    if shared.policy == DropPolicy::None {
        return [0, 1, 2, 3].map(|l| score_against(tail, cdfs[l], deadlines[l], shared.policy));
    }
    let (times, masses) = (tail.times(), tail.masses());
    let mut cursors = [
        CdfCursor::new(cdfs[0]),
        CdfCursor::new(cdfs[1]),
        CdfCursor::new(cdfs[2]),
        CdfCursor::new(cdfs[3]),
    ];
    let mut robustness = [0.0f64; 4];
    let mut startable = [0.0f64; 4];
    let mut weighted = [0.0f64; 4];
    let max_deadline = deadlines.iter().copied().max().expect("four lanes");
    for (&t, &p) in times.iter().zip(masses) {
        if t >= max_deadline {
            break; // sorted: no lane can start from here on
        }
        let tp = t as f64 * p;
        for lane in 0..4 {
            if t < deadlines[lane] {
                robustness[lane] += p * cursors[lane].at_descending(deadlines[lane] - t);
                startable[lane] += p;
                weighted[lane] += tp;
            }
        }
    }
    [0, 1, 2, 3].map(|lane| {
        let expected_completion = if startable[lane] > 0.0 {
            weighted[lane] / startable[lane] + cdfs[lane].mean
        } else {
            f64::INFINITY
        };
        PairScore {
            robustness: robustness[lane].min(1.0),
            expected_completion,
            mean_exec: cdfs[lane].mean,
        }
    })
}

/// The per-pair closed-form scoring kernel. Hot enough that it is
/// specialized by policy: under the dropping scenarios (B/C) the
/// full-availability accumulators are dead weight (only the startable
/// prefix matters), impulses at or past the deadline contribute nothing
/// (sorted times → early break), and a task that can never start —
/// `tail.min_time() >= δ`, the common case for the hopeless tasks that
/// pile up in an oversubscribed batch — short-circuits to the exact
/// values the full walk would produce. All three specializations are
/// bit-identical to the naive loop: the robustness sum visits the same
/// impulses in the same order with the same CDF values.
fn score_against(tail: &Pmf, cdf: &PetCdf, deadline: Time, policy: DropPolicy) -> PairScore {
    let (times, masses) = (tail.times(), tail.masses());
    let mut robustness = 0.0;
    let mut cursor = CdfCursor::new(cdf);
    let expected_completion = match policy {
        // Scenario A: every start happens eventually; the completion mean
        // is E[A] + E[E] over the full availability.
        DropPolicy::None => {
            let mut full_mass = 0.0;
            let mut full_weighted_start = 0.0;
            for (&t, &p) in times.iter().zip(masses) {
                full_mass += p;
                full_weighted_start += t as f64 * p;
                if t < deadline {
                    robustness += p * cursor.at_descending(deadline - t);
                }
            }
            if full_mass > 0.0 {
                full_weighted_start / full_mass + cdf.mean
            } else {
                f64::INFINITY
            }
        }
        // Scenarios B/C: only starts before δ execute.
        DropPolicy::PendingOnly | DropPolicy::All => {
            let mut startable_mass = 0.0;
            let mut weighted_start = 0.0;
            for (&t, &p) in times.iter().zip(masses) {
                if t >= deadline {
                    break; // sorted: nothing behind can start either
                }
                robustness += p * cursor.at_descending(deadline - t);
                startable_mass += p;
                weighted_start += t as f64 * p;
            }
            if startable_mass > 0.0 {
                weighted_start / startable_mass + cdf.mean
            } else {
                f64::INFINITY
            }
        }
    };
    // Float-noise guard: normalized masses can sum an ulp above 1.
    PairScore { robustness: robustness.min(1.0), expected_completion, mean_exec: cdf.mean }
}

/// The restore contract of a scorer-owning mapper (PAM, MOC), shared by
/// their regression tests. Machine versions are unique only within one
/// timeline: a live mapper that has seen machine 0 at version 1 holding
/// task A must not serve that chain when the restored timeline shows it
/// machine 0 at version 1 holding task B.
#[cfg(test)]
pub(crate) fn assert_restore_drops_abandoned_chains<M: hcsim_sim::Mapper>(
    mapper: &mut M,
    scorer_of: fn(&mut M) -> &mut ProbScorer,
) {
    use hcsim_sim::{run_simulation, SimConfig};
    use hcsim_workload::{specint_system, WorkloadConfig, WorkloadGenerator};
    let seeds = hcsim_stats::SeedSequence::new(8);
    let spec = specint_system(6, &mut seeds.stream(0));
    let gen = WorkloadGenerator::new(WorkloadConfig {
        num_tasks: 60,
        oversubscription: 19_000.0,
        ..Default::default()
    });
    let tasks = gen.generate(&spec, &mut seeds.stream(1));
    let _ =
        run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut *mapper, &mut seeds.stream(2));
    let queued = |tt: u16, deadline| {
        let task = Task { id: TaskId(0), type_id: TaskTypeId(tt), arrival: 0, deadline };
        hcsim_sim::testkit::machine_with_pending(MachineId(0), spec.queue_capacity, &[task])
    };
    let (abandoned, restored) = (queued(0, 900), queued(1, 700));
    assert_eq!(abandoned.version(), restored.version());
    let scorer = scorer_of(mapper);
    scorer.begin_event(5);
    let stale = scorer.tail(&abandoned).clone();

    let blob = mapper.snapshot_state();
    mapper.restore_state(&blob);
    let scorer = scorer_of(mapper);
    scorer.begin_event(5);
    let served = scorer.tail(&restored).clone();
    assert_eq!(served, scorer.analyze(&restored, 5).tail);
    assert_ne!(served, stale, "the fixture must tell the two timelines apart");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::analyze_queue;
    use hcsim_pmf::queue_step;
    use hcsim_sim::testkit;

    fn pet_single(points: &[(Time, f64)]) -> PetMatrix {
        PetMatrix::from_pmfs(1, 1, vec![Pmf::from_points(points).unwrap()])
    }

    fn task_with_deadline(deadline: Time) -> Task {
        Task { id: hcsim_model::TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline }
    }

    #[test]
    fn closed_form_matches_queue_step() {
        let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
        let tail = Pmf::from_points(&[(1, 0.3), (4, 0.4), (9, 0.3)]).unwrap();
        for deadline in [1u64, 3, 5, 7, 9, 12, 20] {
            for policy in [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All] {
                let scorer = ProbScorer::new(&pet, policy, 64);
                let score = scorer.score_against_tail(&tail, TaskTypeId(0), MachineId(0), deadline);
                let step =
                    queue_step(&tail, pet.pmf(TaskTypeId(0), MachineId(0)), deadline, policy);
                assert!(
                    (score.robustness - step.robustness).abs() < 1e-12,
                    "robustness mismatch at δ={deadline} {policy:?}: {} vs {}",
                    score.robustness,
                    step.robustness
                );
                if policy != DropPolicy::None {
                    match &step.completion {
                        Some(c) => {
                            assert!(
                                (score.expected_completion - c.mean()).abs() < 1e-9,
                                "mean mismatch at δ={deadline} {policy:?}"
                            );
                        }
                        None => assert!(score.expected_completion.is_infinite()),
                    }
                }
            }
        }
    }

    #[test]
    fn policy_none_mean_is_additive() {
        let pet = pet_single(&[(2, 0.5), (6, 0.5)]);
        let tail = Pmf::from_points(&[(10, 0.5), (20, 0.5)]).unwrap();
        let scorer = ProbScorer::new(&pet, DropPolicy::None, 64);
        let score = scorer.score_against_tail(&tail, TaskTypeId(0), MachineId(0), 5);
        assert!((score.expected_completion - (15.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn mean_exec_reported() {
        let pet = pet_single(&[(2, 0.5), (6, 0.5)]);
        let scorer = ProbScorer::new(&pet, DropPolicy::All, 64);
        let score = scorer.score_against_tail(&Pmf::delta(0), TaskTypeId(0), MachineId(0), 100);
        assert!((score.mean_exec - 4.0).abs() < 1e-12);
        assert!((score.robustness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_cache_respects_version_and_event() {
        let pet = pet_single(&[(5, 0.5), (20, 0.5)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        let mut machine = MachineState::new(MachineId(0), 4);
        scorer.begin_event(100);
        let t1 = scorer.tail(&machine).clone();
        assert_eq!(t1.min_time(), 100, "idle tail anchors at now");
        // Same event: cached.
        let builds = scorer.chain_builds(MachineId(0));
        assert_eq!(*scorer.tail(&machine), t1);
        assert_eq!(scorer.chain_builds(MachineId(0)), builds);
        // A later event re-keys an idle head: the tail moves to the new now.
        scorer.begin_event(250);
        assert_eq!(scorer.tail(&machine).min_time(), 250);

        // An executing head is keyed on its conditioning bucket, not on the
        // clock: started at 250, the PET impulse at 5 is ruled out from 255
        // and the one at 20 from 270.
        assert!(testkit::start_executing(&mut machine, task_with_deadline(900), 250, 20));
        scorer.begin_event(251);
        let running = scorer.tail(&machine).clone();
        assert_eq!(running.times(), [255, 270], "completion = PET shifted to the start time");
        let builds = scorer.chain_builds(MachineId(0));
        scorer.begin_event(254);
        assert_eq!(*scorer.tail(&machine), running, "same bucket at a later tick: same head");
        assert_eq!(scorer.chain_builds(MachineId(0)), builds, "and no rebuild");
        scorer.begin_event(255);
        assert_eq!(scorer.tail(&machine).times(), [270], "crossing an impulse re-keys the head");
        assert_eq!(scorer.chain_builds(MachineId(0)), builds + 1);
        // Overdue (elapsed past the whole PET): "any moment now", per tick.
        scorer.begin_event(280);
        assert_eq!(scorer.tail(&machine).times(), [281]);
        scorer.begin_event(281);
        assert_eq!(scorer.tail(&machine).times(), [282]);
        // A version bump inside a held bucket still extends the chain.
        scorer.begin_event(251);
        let _ = scorer.tail(&machine);
        let builds = scorer.chain_builds(MachineId(0));
        assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(task_with_deadline(900))));
        scorer.begin_event(252);
        let appended = scorer.tail(&machine).clone();
        assert_eq!(scorer.chain_builds(MachineId(0)), builds + 1, "one link, head reused");
        assert_eq!(appended, analyze_queue(&machine, &pet, 252, DropPolicy::All, 16).tail);
    }

    #[test]
    fn incremental_append_matches_from_scratch() {
        let pet = pet_single(&[(3, 0.25), (5, 0.5), (9, 0.25)]);
        let mut machine = MachineState::new(MachineId(0), 8);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(10);
        // Grow the queue one task at a time; after every append the cached
        // tail (one incremental queue_step) must equal a from-scratch
        // analysis of the whole queue.
        for i in 0..6u32 {
            let t = Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 30 + u64::from(i) * 20,
            };
            assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(t)));
            let cached = scorer.tail(&machine).clone();
            let scratch = analyze_queue(&machine, &pet, 10, DropPolicy::All, 16);
            assert_eq!(cached, scratch.tail, "append {i}");
        }
    }

    #[test]
    fn incremental_mid_queue_drop_matches_from_scratch() {
        let pet = pet_single(&[(3, 0.25), (5, 0.5), (9, 0.25)]);
        let mut machine = MachineState::new(MachineId(0), 8);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        for i in 0..5u32 {
            let t = Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 40 + u64::from(i) * 25,
            };
            testkit::apply(&mut machine, testkit::QueueOp::Push(t));
        }
        let _ = scorer.tail(&machine);
        // Drop the middle task: the cache reuses the prefix ahead of it.
        testkit::apply(&mut machine, testkit::QueueOp::RemovePending(TaskId(2)));
        let cached = scorer.tail(&machine).clone();
        let scratch = analyze_queue(&machine, &pet, 0, DropPolicy::All, 16);
        assert_eq!(cached, scratch.tail);
    }

    #[test]
    fn slot_scores_match_analyze_queue() {
        let pet = pet_single(&[(4, 0.5), (8, 0.5)]);
        let mut machine = MachineState::new(MachineId(0), 6);
        for i in 0..3u32 {
            let t = Task {
                id: TaskId(i),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 20 + u64::from(i) * 15,
            };
            testkit::apply(&mut machine, testkit::QueueOp::Push(t));
        }
        testkit::apply(&mut machine, testkit::QueueOp::StartNext { now: 2, total_exec: 6 });
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(5);
        let slots = scorer.slot_scores(&machine).to_vec();
        let reference = analyze_queue(&machine, &pet, 5, DropPolicy::All, 16);
        assert_eq!(slots.len(), reference.slots.len());
        for (got, want) in slots.iter().zip(&reference.slots) {
            assert_eq!(got.task.id, want.task.id);
            assert_eq!(got.position, want.position);
            assert!((got.robustness - want.robustness).abs() == 0.0, "robustness drift");
            assert!((got.skewness - want.skewness).abs() == 0.0, "skewness drift");
        }
    }

    #[test]
    fn score_on_idle_machine_matches_direct() {
        let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        let machine = MachineState::new(MachineId(0), 4);
        scorer.begin_event(10);
        let task = task_with_deadline(14);
        let score = scorer.score(&machine, &task);
        // Start at 10; completes by 14 iff exec <= 4 → 0.75.
        assert!((score.robustness - 0.75).abs() < 1e-12);
    }

    #[test]
    fn append_availability_matches_queue_step() {
        let pet = pet_single(&[(2, 0.25), (3, 0.5), (5, 0.25)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 64);
        let tail = Pmf::from_points(&[(1, 0.3), (4, 0.4), (9, 0.3)]).unwrap();
        let exec = pet.pmf(TaskTypeId(0), MachineId(0));
        let got = scorer.append_availability(&tail, exec, 7);
        let mut want = queue_step(&tail, exec, 7, DropPolicy::All).availability;
        want.compact(64);
        assert_eq!(got, want);
        scorer.recycle(got);
    }

    /// Multi-machine fixture for the fan-out tests: `n` machines with
    /// heterogeneous queues over a 2-type PET.
    fn fanout_fixture(n: usize) -> (PetMatrix, Vec<MachineState>) {
        let pmfs: Vec<Pmf> = (0..2 * n)
            .map(|i| {
                let base = 2 + (i as u64 % 5);
                Pmf::from_points(&[(base, 0.25), (base + 3, 0.5), (base + 7, 0.25)]).unwrap()
            })
            .collect();
        let pet = PetMatrix::from_pmfs(2, n, pmfs);
        let machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let depth = m % 4; // heterogeneous queue depths, incl. idle
                let pending: Vec<Task> = (0..depth as u32)
                    .map(|i| Task {
                        id: TaskId(m as u32 * 100 + i),
                        type_id: TaskTypeId((i % 2) as u16),
                        arrival: 0,
                        deadline: 60 + u64::from(i) * 25 + m as u64,
                    })
                    .collect();
                testkit::machine_with_pending(MachineId::from(m), 6, &pending)
            })
            .collect();
        (pet, machines)
    }

    #[test]
    fn score_table_matches_pairwise_scoring_bitwise() {
        // 20 machines crosses PARALLEL_MIN_MACHINES, so threads=4 takes a
        // real fan-out. Every table entry must equal a direct `score`
        // call bit for bit, on the calling thread and on the pool.
        let (pet, machines) = fanout_fixture(20);
        let tasks: Vec<Task> = (0..7u32)
            .map(|i| Task {
                id: TaskId(1_000 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 40 + u64::from(i) * 30,
            })
            .collect();
        let mut scorer_ref = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer_ref.begin_event(5);
        for (label, threads) in [("seq", 1), ("pool", 4)] {
            let mut table = ScoreTable::new();
            let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
            scorer.begin_event(5);
            scorer.set_parallelism(threads);
            assert_eq!(scorer.pool_active(), threads > 1);
            table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
            for (i, task) in tasks.iter().enumerate() {
                for (m, machine) in machines.iter().enumerate() {
                    let direct = scorer_ref.score(machine, task);
                    let got = table.get(i, m).expect("free slot scored");
                    assert!(
                        got.robustness.to_bits() == direct.robustness.to_bits()
                            && got.expected_completion.to_bits()
                                == direct.expected_completion.to_bits()
                            && got.mean_exec.to_bits() == direct.mean_exec.to_bits(),
                        "{label} table ({i},{m}) diverged: {got:?} vs {direct:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn score_table_incremental_updates_track_live_state() {
        let (pet, mut machines) = fanout_fixture(6);
        let mut tasks: Vec<Task> = (0..5u32)
            .map(|i| Task {
                id: TaskId(500 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 50 + u64::from(i) * 20,
            })
            .collect();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.rows(), 5);
        // "Assign" task row 1 to machine 2: mutate the machine, drop the
        // row, refresh the column — the table must equal a fresh rebuild.
        let assigned = tasks.remove(1);
        assert!(testkit::apply(&mut machines[2], testkit::QueueOp::Push(assigned)));
        table.remove_row(1);
        table.refresh_machine(&mut scorer, &machines, &tasks, 2);
        // A new batch task slides into the window.
        let fresh = Task { id: TaskId(900), type_id: TaskTypeId(1), arrival: 0, deadline: 220 };
        tasks.push(fresh);
        table.push_row(&mut scorer, &machines, &fresh, &|_| 0.0);
        let mut reference = ScoreTable::new();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(3);
        reference.rebuild(&mut ref_scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.rows(), reference.rows());
        for i in 0..tasks.len() {
            for m in 0..machines.len() {
                let (a, b) = (table.get(i, m), reference.get(i, m));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!(
                            a.robustness.to_bits() == b.robustness.to_bits()
                                && a.expected_completion.to_bits()
                                    == b.expected_completion.to_bits(),
                            "({i},{m}): {a:?} vs {b:?}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("presence mismatch at ({i},{m}): {other:?}"),
                }
            }
        }
    }

    /// Decision-level agreement between a (possibly bound-skipped) table
    /// and exact scoring: wherever the exact best meets the threshold the
    /// table must return it bit for bit; wherever it doesn't, the table
    /// may return nothing or a value the reduction would defer anyway.
    /// Pair by pair, what the table holds for a free machine is the exact
    /// score, and what it left unscored is exactly below the threshold.
    fn assert_table_agrees_with_exact(
        table: &ScoreTable,
        scorer_ref: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        threshold: &dyn Fn(TaskTypeId) -> f64,
    ) {
        for (row, task) in tasks.iter().enumerate() {
            let mut exact: Option<(usize, PairScore)> = None;
            for (m, machine) in machines.iter().enumerate() {
                if !machine.has_free_slot() {
                    continue;
                }
                let score = scorer_ref.score(machine, task);
                match table.get(row, m) {
                    Some(held) => assert!(
                        held.robustness.to_bits() == score.robustness.to_bits()
                            && held.expected_completion.to_bits()
                                == score.expected_completion.to_bits(),
                        "({row},{m}): table holds {held:?}, exact is {score:?}"
                    ),
                    None => assert!(
                        score.robustness < threshold(task.type_id),
                        "({row},{m}): skipped, but exact r={} clears {}",
                        score.robustness,
                        threshold(task.type_id)
                    ),
                }
                if exact.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                    exact = Some((m, score));
                }
            }
            let got = table.best_for_row(machines, row);
            let t = threshold(task.type_id);
            match exact {
                Some((m, s)) if s.robustness >= t => {
                    let (gm, gs) = got.unwrap_or_else(|| {
                        panic!("row {row}: exact best r={} ≥ {t} but table skipped", s.robustness)
                    });
                    assert_eq!(gm.index(), m, "row {row}: machine diverged");
                    assert!(
                        gs.robustness.to_bits() == s.robustness.to_bits()
                            && gs.expected_completion.to_bits() == s.expected_completion.to_bits(),
                        "row {row}: {gs:?} vs {s:?}"
                    );
                }
                _ => {
                    if let Some((_, gs)) = got {
                        assert!(
                            gs.robustness < t,
                            "row {row}: table returned r={} above threshold {t} \
                             where exact best was below",
                            gs.robustness
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn score_table_ensure_matches_rebuild_after_same_tick_changes() {
        // Two shards' worth of machines; a burst of mapping events at the
        // same instant with completions, a queue growth, a departed window
        // row, and an appended arrival in between. The revalidated table
        // must be cell-for-cell identical to a from-scratch rebuild.
        let (pet, mut machines) = fanout_fixture(40);
        let mut tasks: Vec<Task> = (0..8u32)
            .map(|i| Task {
                id: TaskId(1_000 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 45 + u64::from(i) * 25,
            })
            .collect();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        let mut table = ScoreTable::new();
        assert!(
            !table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0),
            "an empty table must rebuild"
        );
        // Next burst event, same tick: machine 5's queue grew (assignment),
        // machine 21 finished its pending task (completion), row 2 left the
        // window, a fresh arrival slid in.
        let grown = Task { id: TaskId(800), type_id: TaskTypeId(0), arrival: 0, deadline: 200 };
        assert!(testkit::apply(&mut machines[5], testkit::QueueOp::Push(grown)));
        assert!(testkit::apply(&mut machines[21], testkit::QueueOp::RemovePending(TaskId(2100))));
        tasks.remove(2);
        tasks.push(Task { id: TaskId(900), type_id: TaskTypeId(1), arrival: 0, deadline: 220 });
        scorer.begin_event(3);
        assert!(
            table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0),
            "same tick + same epoch must take the reuse path"
        );
        let mut reference = ScoreTable::new();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(3);
        reference.rebuild(&mut ref_scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.rows(), reference.rows());
        for i in 0..tasks.len() {
            for m in 0..machines.len() {
                match (table.get(i, m), reference.get(i, m)) {
                    (Some(a), Some(b)) => assert!(
                        a.robustness.to_bits() == b.robustness.to_bits()
                            && a.expected_completion.to_bits() == b.expected_completion.to_bits(),
                        "({i},{m}): {a:?} vs {b:?}"
                    ),
                    (None, None) => {}
                    other => panic!("presence mismatch at ({i},{m}): {other:?}"),
                }
            }
            assert_eq!(
                table.best_for_row(&machines, i),
                reference.best_for_row(&machines, i),
                "row {i} reduction diverged"
            );
        }
    }

    #[test]
    fn score_table_ensure_resurrects_rows_loosened_by_completions() {
        // 64 identical machines (2 shards), all with queues deep enough
        // that every shard bound falls below the threshold → the row is
        // fully skipped. A completion then empties one machine: ensure
        // must resurrect the row through that machine's shard and agree
        // with exact scoring.
        let n = 64;
        let pmfs: Vec<Pmf> = (0..n).map(|_| Pmf::from_points(&[(5, 1.0)]).unwrap()).collect();
        let pet = PetMatrix::from_pmfs(1, n, pmfs);
        let mut machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let pending: Vec<Task> = (0..3u32)
                    .map(|i| Task {
                        id: TaskId(m as u32 * 10 + i),
                        type_id: TaskTypeId(0),
                        arrival: 0,
                        deadline: 500,
                    })
                    .collect();
                testkit::machine_with_pending(MachineId::from(m), 6, &pending)
            })
            .collect();
        let tasks =
            vec![Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 12 }];
        let threshold = |_tt: TaskTypeId| 0.9;
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &threshold);
        assert!(
            table.best_for_row(&machines, 0).is_none(),
            "deep queues: the row must be bound-skipped everywhere"
        );
        // Machine 40 drains completely — its bound loosens to "start now".
        for i in 0..3u32 {
            assert!(testkit::apply(
                &mut machines[40],
                testkit::QueueOp::RemovePending(TaskId(400 + i))
            ));
        }
        scorer.begin_event(0);
        assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "same tick: reuse");
        let (m, s) = table.best_for_row(&machines, 0).expect("resurrected through machine 40");
        assert_eq!(m.index(), 40);
        assert!((s.robustness - 1.0).abs() < 1e-12, "idle machine, exec 5 ≤ deadline 12");
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(0);
        assert_table_agrees_with_exact(&table, &mut ref_scorer, &machines, &tasks, &threshold);
    }

    /// Cross-checks a revalidated table against a from-scratch
    /// [`ScoreTable::rebuild`] by a cold scorer at `now`: every entry both
    /// tables scored is bitwise equal, `best_for_row` agrees wherever
    /// either side clears the threshold (below it `ensure` may keep exact
    /// scores a fresh bound pass would skip — deferred either way), and
    /// the table agrees with exact per-pair scoring.
    fn assert_table_matches_fresh_rebuild(
        table: &ScoreTable,
        (pet, cold): (&PetMatrix, &PetMatrix),
        machines: &[MachineState],
        tasks: &[Task],
        now: Time,
        threshold: &dyn Fn(TaskTypeId) -> f64,
    ) {
        let mut fresh = ProbScorer::with_cold(pet, Some(cold), DropPolicy::All, 16);
        fresh.begin_event(now);
        let mut reference = ScoreTable::new();
        reference.rebuild(&mut fresh, machines, tasks, threshold);
        assert_eq!(table.rows(), reference.rows());
        for (row, task) in tasks.iter().enumerate() {
            for m in 0..machines.len() {
                if let (Some(a), Some(b)) = (table.get(row, m), reference.get(row, m)) {
                    assert!(
                        a.robustness.to_bits() == b.robustness.to_bits()
                            && a.expected_completion.to_bits() == b.expected_completion.to_bits()
                            && a.mean_exec.to_bits() == b.mean_exec.to_bits(),
                        "t={now} ({row},{m}): {a:?} vs {b:?}"
                    );
                }
            }
            let (got, want) =
                (table.best_for_row(machines, row), reference.best_for_row(machines, row));
            let clears = |best: &Option<(MachineId, PairScore)>| {
                best.is_some_and(|(_, s)| s.robustness >= threshold(task.type_id))
            };
            if clears(&got) || clears(&want) {
                assert_eq!(got, want, "t={now} row {row}: reduction diverged");
            }
        }
        assert_table_agrees_with_exact(table, &mut fresh, machines, tasks, threshold);
    }

    #[test]
    fn score_table_ensure_across_ticks_matches_fresh_rebuild() {
        // Three shards under a cold-start model: executing heads nearly
        // everywhere, idle machines in shards 0–1 only, a full machine in
        // eight. Shard 2 therefore starts out bound-skipped for the tight
        // rows, until a completion at a later tick resurrects them.
        let n = 96;
        let pmfs: Vec<Pmf> = (0..2 * n)
            .map(|i| {
                let o = i as u64 % 5;
                Pmf::from_points(&[(20 + o, 0.3), (45 + o, 0.5), (90 + o, 0.2)]).unwrap()
            })
            .collect();
        let cold_pmfs: Vec<Pmf> = pmfs.iter().map(|p| p.shift(15)).collect();
        let pet = PetMatrix::from_pmfs(2, n, pmfs);
        let cold = PetMatrix::from_pmfs(2, n, cold_pmfs);
        let queued = |m: usize, i: u32| Task {
            id: TaskId(m as u32 * 10 + i),
            type_id: TaskTypeId(((m as u32 + i) % 2) as u16),
            arrival: 0,
            deadline: 400,
        };
        let mut machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let mut machine = MachineState::new(MachineId::from(m), 3);
                if (m % 8 == 0 && m < 64) || m == 70 {
                    // Warm containers: an append here scores on the warm
                    // cells, so a tight deadline is reachable.
                    testkit::set_warm(&mut machine, TaskTypeId(0), 1_000);
                    testkit::set_warm(&mut machine, TaskTypeId(1), 1_000);
                }
                if m % 8 == 0 && m < 64 {
                    return machine; // idle
                }
                assert!(testkit::start_executing(&mut machine, queued(m, 0), 0, 200));
                let depth = if m % 8 == 7 { 2 } else { m % 2 }; // m % 8 == 7: full
                for i in 0..depth as u32 {
                    assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(queued(m, 1 + i))));
                }
                machine
            })
            .collect();
        let tasks: Vec<Task> = [60u64, 60, 150, 200, 300, 62]
            .iter()
            .enumerate()
            .map(|(i, &deadline)| Task {
                id: TaskId(9_000 + i as u32),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline,
            })
            .collect();
        let threshold = |_tt: TaskTypeId| 0.6;
        let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
        let mut table = ScoreTable::new();
        scorer.begin_event(5);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &threshold), "first build");
        assert_table_matches_fresh_rebuild(&table, (&pet, &cold), &machines, &tasks, 5, &threshold);
        assert!(
            (64..n).all(|m| table.get(0, m).is_none()),
            "busy shard 2 must start out bound-skipped for the tight row"
        );

        // Tick 9 — inside every executing head's bucket (first impulse at
        // 20). Machine 70 completes and drains (resurrection in shard 2),
        // machine 10 gains a warm container (`warm_rev` flip: the append
        // CDF goes cold → warm), machine 20 announces its departure
        // (deadline clamp), and the eight idle heads re-key.
        assert!(testkit::apply(&mut machines[70], testkit::QueueOp::FinishExecuting));
        testkit::set_warm(&mut machines[10], TaskTypeId(1), 500);
        testkit::announce_departure(&mut machines[20], Some(50));
        scorer.begin_event(9);
        assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "cross-tick reuse");
        assert_table_matches_fresh_rebuild(&table, (&pet, &cold), &machines, &tasks, 9, &threshold);
        let (m, _) = table.best_for_row(&machines, 5).expect("tight row is mappable");
        assert!(machines[m.index()].is_idle());
        assert!(table.get(0, 70).is_some(), "machine 70's completion resurrects shard 2");

        // Tick 30 — every executing head has crossed its first impulse:
        // the changed set is most of the cluster, so the bulk path runs.
        scorer.begin_event(30);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &threshold), "bulk re-key");
        assert_table_matches_fresh_rebuild(
            &table,
            (&pet, &cold),
            &machines,
            &tasks,
            30,
            &threshold,
        );
    }

    #[test]
    fn score_table_ensure_follows_threshold_drift() {
        // Two shards, every machine executing the same head from tick 0;
        // shard 0 machines also hold a pending task, so an append there
        // starts no sooner than 40 (bound 0.3 for the δ = 70 row) against
        // 20 in shard 1 (bound 0.8, exact robustness 0.39).
        let n = 64;
        let cell = Pmf::from_points(&[(20, 0.3), (45, 0.5), (90, 0.2)]).unwrap();
        let pet = PetMatrix::from_pmfs(1, n, vec![cell; n]);
        let queued =
            |id: u32| Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline: 400 };
        let machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let mut machine = MachineState::new(MachineId::from(m), 3);
                assert!(testkit::start_executing(&mut machine, queued(m as u32), 0, 200));
                if m < TABLE_SHARD_WIDTH {
                    assert!(testkit::apply(
                        &mut machine,
                        testkit::QueueOp::Push(queued(1_000 + m as u32))
                    ));
                }
                machine
            })
            .collect();
        let tasks =
            vec![Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 70 }];
        let mut scorer = ProbScorer::with_cold(&pet, Some(&pet), DropPolicy::All, 16);
        let mut table = ScoreTable::new();
        scorer.begin_event(1);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.9), "first build");
        assert!(
            (0..n).all(|m| table.get(0, m).is_none()),
            "0.9 proves the row deferred everywhere"
        );

        // Nothing but the threshold moves from here on (tick 3 is inside
        // every head's bucket), so every step must reuse the table.
        scorer.begin_event(3);
        for (threshold, scored_shards) in
            [(0.35, [false, true]), (0.5, [false, true]), (0.02, [true, true])]
        {
            let threshold = move |_: TaskTypeId| threshold;
            assert!(table.ensure(&mut scorer, &machines, &tasks, &threshold), "drift alone reuses");
            assert_table_matches_fresh_rebuild(
                &table,
                (&pet, &pet),
                &machines,
                &tasks,
                3,
                &threshold,
            );
            for (s, scored) in scored_shards.into_iter().enumerate() {
                assert_eq!(table.get(0, s * TABLE_SHARD_WIDTH).is_some(), scored, "shard {s}");
            }
        }
        // 0.35 resurrected the row in shard 1, where no machine changed:
        // the reduction must find it there.
        let (m, score) = table.best_for_row(&machines, 0).expect("scored in both shards");
        assert_eq!(m.index(), TABLE_SHARD_WIDTH);
        assert!((score.robustness - 0.39).abs() < 1e-12, "{score:?}");
    }

    #[test]
    fn score_table_ensure_reuses_across_ticks_until_epoch_or_invalidate() {
        // 20 free machines, every one executing (started at 0, first PET
        // impulse ≥ 2 ticks out), so a later tick inside every head's
        // bucket changes nothing the table depends on.
        let (pet, mut machines) = fanout_fixture(20);
        for (m, machine) in machines.iter_mut().enumerate() {
            let head = Task {
                id: TaskId(7_000 + m as u32),
                type_id: TaskTypeId(0),
                arrival: 0,
                deadline: 90,
            };
            assert!(testkit::start_executing(machine, head, 0, 50));
        }
        let tasks = vec![Task { id: TaskId(1), type_id: TaskTypeId(0), arrival: 0, deadline: 90 }];
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        let mut table = ScoreTable::new();
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "empty table rebuilds");
        // A later tick reuses: no head key moved (elapsed 1 < every PET min).
        scorer.begin_event(1);
        assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "later tick, keys held");
        // A tick that re-keys a few heads (the PETs based at 2) still
        // reuses, rescoring just those columns …
        scorer.begin_event(2);
        assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "few heads re-keyed");
        // … and one that re-keys at least half the free machines takes the
        // bulk path.
        scorer.begin_event(40);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "all overdue: rebuild");
        // A membership epoch bump must rebuild (shard geometry may move).
        scorer.sync_membership(1, &machines);
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "new epoch");
        // Explicit invalidation (a restored mapper) must rebuild.
        scorer.begin_event(0);
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        table.invalidate();
        assert!(!table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "invalidated");
        // And with nothing changed, the reuse path holds.
        assert!(table.ensure(&mut scorer, &machines, &tasks, &|_| 0.0), "steady state");
    }

    #[test]
    fn hierarchical_bound_pass_agrees_with_exact_at_1024_machines() {
        // Full mega-cluster cardinality (32 shards), post-churn skewed
        // occupancy (a block of full machines, a block of absent ones),
        // and a near-tie threshold sitting exactly on the best row score —
        // the BOUND_MARGIN case the skip decision must survive.
        let n = 1024;
        let pmfs: Vec<Pmf> = (0..2 * n)
            .map(|i| {
                let base = 2 + (i as u64 % 7);
                Pmf::from_points(&[(base, 0.3), (base + 4, 0.5), (base + 11, 0.2)]).unwrap()
            })
            .collect();
        let pet = PetMatrix::from_pmfs(2, n, pmfs);
        let mut machines: Vec<MachineState> = (0..n)
            .map(|m| {
                let depth = if m < 300 { 2 } else { m % 3 }; // skewed occupancy
                let pending: Vec<Task> = (0..depth as u32)
                    .map(|i| Task {
                        id: TaskId(m as u32 * 10 + i),
                        type_id: TaskTypeId((i % 2) as u16),
                        arrival: 0,
                        deadline: 70 + u64::from(i) * 30 + (m % 16) as u64,
                    })
                    .collect();
                testkit::machine_with_pending(MachineId::from(m), 2, &pending)
            })
            .collect();
        // Churn skew: machines 600..680 failed.
        for m in machines.iter_mut().skip(600).take(80) {
            assert!(testkit::apply(m, testkit::QueueOp::Fail));
        }
        let tasks: Vec<Task> = (0..6u32)
            .map(|i| Task {
                id: TaskId(50_000 + i),
                type_id: TaskTypeId((i % 2) as u16),
                arrival: 0,
                deadline: 9 + u64::from(i) * 4, // tight: bounds actually skip shards
            })
            .collect();
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(1);
        // Pass 1: threshold 0 (everything live) to learn the exact bests.
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        let exact_best: Vec<f64> = (0..tasks.len())
            .map(|row| table.best_for_row(&machines, row).map_or(0.0, |(_, s)| s.robustness))
            .collect();
        let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        ref_scorer.begin_event(1);
        // Pass 2: the near-tie threshold — exactly row 0's best score.
        let tie = exact_best.iter().copied().fold(0.0f64, f64::max);
        for threshold in [0.25, tie, (tie + 1e-6).min(1.0)] {
            let t = move |_tt: TaskTypeId| threshold;
            let mut bounded = ScoreTable::new();
            bounded.rebuild(&mut scorer, &machines, &tasks, &t);
            assert_table_agrees_with_exact(&bounded, &mut ref_scorer, &machines, &tasks, &t);
        }
    }

    #[test]
    fn score_table_skips_full_machines() {
        let pet = pet_single(&[(2, 0.5), (4, 0.5)]);
        let pending: Vec<Task> = (0..2u32)
            .map(|i| Task { id: TaskId(i), type_id: TaskTypeId(0), arrival: 0, deadline: 100 })
            .collect();
        let full = testkit::machine_with_pending(MachineId(0), 2, &pending);
        assert!(!full.has_free_slot());
        let machines = vec![full];
        let tasks = vec![Task { id: TaskId(9), type_id: TaskTypeId(0), arrival: 0, deadline: 50 }];
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        scorer.set_parallelism(4);
        assert!(!scorer.pool_active(), "1-machine system stays below the pool gate");
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        assert_eq!(table.get(0, 0), None);
        assert!(table.best_for_row(&machines, 0).is_none());
    }

    #[test]
    fn warm_caches_is_execution_mode_invariant() {
        let (pet, machines) = fanout_fixture(20);
        let mut cold = ProbScorer::new(&pet, DropPolicy::All, 16);
        cold.begin_event(7);
        for (label, threads) in [("seq", 1), ("pool", 4)] {
            let mut warm = ProbScorer::new(&pet, DropPolicy::All, 16);
            warm.begin_event(7);
            warm.set_parallelism(threads);
            warm.warm_caches(&machines, true);
            for machine in &machines {
                if machine.occupancy() == 0 {
                    continue;
                }
                let a = warm.slot_scores(machine).to_vec();
                let b = cold.slot_scores(machine).to_vec();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        x.robustness.to_bits() == y.robustness.to_bits()
                            && x.skewness.to_bits() == y.skewness.to_bits(),
                        "{label}: machine {} diverged",
                        machine.id()
                    );
                }
                // The tails must also be byte-identical.
                assert_eq!(warm.tail(machine).clone(), cold.tail(machine).clone());
            }
        }
    }

    #[test]
    fn pool_single_cell_queries_match_local() {
        // The between-rounds request path (score / tail / slot_scores
        // through the pool's cell handle) must serve exactly what local
        // cells serve.
        let (pet, machines) = fanout_fixture(PARALLEL_MIN_MACHINES + 2);
        let mut local = ProbScorer::new(&pet, DropPolicy::All, 16);
        let mut pooled = ProbScorer::new(&pet, DropPolicy::All, 16);
        local.begin_event(9);
        pooled.begin_event(9);
        pooled.set_parallelism(4);
        assert!(pooled.pool_active());
        let task = Task { id: TaskId(77), type_id: TaskTypeId(1), arrival: 0, deadline: 90 };
        for machine in &machines {
            let a = local.score(machine, &task);
            let b = pooled.score(machine, &task);
            assert_eq!(a.robustness.to_bits(), b.robustness.to_bits());
            assert_eq!(a.expected_completion.to_bits(), b.expected_completion.to_bits());
            assert_eq!(local.tail(machine).clone(), pooled.tail(machine).clone());
            if machine.occupancy() > 0 {
                assert_eq!(local.slot_scores(machine), pooled.slot_scores(machine));
            }
        }
    }

    #[test]
    fn membership_sync_regates_pool_and_releases_departed_chains() {
        let n = PARALLEL_MIN_MACHINES + 4;
        let (pet, mut machines) = fanout_fixture(n);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(3);
        scorer.sync_membership(0, &machines);
        assert_eq!(scorer.schedulable_machines(), n);
        scorer.set_parallelism(4);
        assert!(scorer.pool_active());
        scorer.warm_caches(&machines, false);
        // Churn: fail 5 and drain 4 machines → below the fan-out floor.
        for m in machines.iter_mut().take(5) {
            assert!(testkit::apply(m, testkit::QueueOp::Fail));
        }
        for m in machines.iter_mut().skip(5).take(4) {
            testkit::apply(m, testkit::QueueOp::BeginDrain);
        }
        scorer.sync_membership(1, &machines);
        assert_eq!(scorer.schedulable_machines(), n - 9);
        scorer.set_parallelism(4);
        assert!(!scorer.pool_active(), "cluster shrank below the pool gate");
        // Every tail — survivors from their migrated warm cells, departed
        // machines rebuilt from scratch — must match a cold scorer.
        let mut cold = ProbScorer::new(&pet, DropPolicy::All, 16);
        cold.begin_event(3);
        for machine in &machines {
            assert_eq!(
                scorer.tail(machine).clone(),
                cold.tail(machine).clone(),
                "machine {} diverged after churn",
                machine.id()
            );
        }
        // Re-join the failed machines: the pool comes back, warm state
        // (whatever survived) migrates in.
        for m in machines.iter_mut().take(5) {
            assert!(testkit::apply(m, testkit::QueueOp::Join));
        }
        scorer.sync_membership(2, &machines);
        scorer.set_parallelism(4);
        assert!(scorer.pool_active(), "grown cluster re-builds the pool");
        // Same epoch again: a no-op (the steady-state path).
        scorer.sync_membership(2, &machines);
        assert_eq!(scorer.schedulable_machines(), n - 4);
    }

    #[test]
    fn score_table_gives_absent_machines_empty_columns() {
        let (pet, mut machines) = fanout_fixture(6);
        testkit::apply(&mut machines[1], testkit::QueueOp::BeginDrain);
        testkit::apply(&mut machines[2], testkit::QueueOp::Fail);
        let tasks = vec![Task { id: TaskId(9), type_id: TaskTypeId(0), arrival: 0, deadline: 400 }];
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(0);
        scorer.sync_membership(1, &machines);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
        for m in [1usize, 2] {
            assert_eq!(table.get(0, m), None, "absent machine {m} must not be scored");
        }
        let (best_machine, _) = table.best_for_row(&machines, 0).expect("survivors scored");
        assert!(machines[best_machine.index()].is_schedulable());
    }

    #[test]
    fn set_parallelism_migrates_cells_without_losing_state() {
        // Local → pooled → local round-trips keep every cached chain: the
        // tails served after each migration are identical, and the reshard
        // path (different thread count) works.
        let (pet, machines) = fanout_fixture(PARALLEL_MIN_MACHINES);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        scorer.begin_event(4);
        let baseline: Vec<Pmf> = machines.iter().map(|m| scorer.tail(m).clone()).collect();
        scorer.set_parallelism(4);
        assert!(scorer.pool_active());
        let workers = scorer.cells.worker_ids();
        assert_eq!(workers.len(), 4);
        // The per-event steady state: the same setting again is a no-op —
        // the same worker threads serve the next round, nothing rebuilt.
        let builds: Vec<u64> = machines.iter().map(|m| scorer.chain_builds(m.id())).collect();
        scorer.set_parallelism(4);
        assert_eq!(scorer.cells.worker_ids(), workers, "same setting must not reshard");
        scorer.set_parallelism(2); // reshard
        assert!(scorer.pool_active());
        assert!(scorer.cells.worker_ids().is_disjoint(&workers), "new width, new workers");
        scorer.set_parallelism(1); // move back
        assert!(!scorer.pool_active());
        // `0` asks the host once; asking again changes nothing either.
        scorer.set_parallelism(0);
        let (active, workers) = (scorer.pool_active(), scorer.cells.worker_ids());
        scorer.set_parallelism(0);
        assert_eq!((scorer.pool_active(), scorer.cells.worker_ids()), (active, workers));
        for (machine, before) in machines.iter().zip(&builds) {
            assert_eq!(scorer.chain_builds(machine.id()), *before, "migration rebuilt a chain");
        }
        for (machine, want) in machines.iter().zip(&baseline) {
            assert_eq!(scorer.tail(machine), want, "machine {} lost its chain", machine.id());
        }
    }

    /// The cursor scan [`envelope_cdf`] replaced: per breakpoint, the max
    /// over every member's prefix at or before it. Kept as the reference
    /// the sweep is checked against.
    fn envelope_cdf_reference(members: &[PetCdf]) -> PetCdf {
        let mut times: Vec<Time> = members.iter().flat_map(|c| c.times.iter().copied()).collect();
        times.sort_unstable();
        times.dedup();
        let mut cursors = vec![0usize; members.len()];
        let prefix = times
            .iter()
            .map(|&t| {
                let mut v = 0.0f64;
                for (cursor, member) in cursors.iter_mut().zip(members) {
                    while *cursor < member.times.len() && member.times[*cursor] <= t {
                        *cursor += 1;
                    }
                    if *cursor > 0 {
                        v = v.max(member.prefix[*cursor - 1]);
                    }
                }
                v
            })
            .collect();
        PetCdf { times, prefix, mean: f64::NAN }
    }

    #[test]
    fn envelope_sweep_equals_the_cursor_scan() {
        // Members with shared, interleaved and disjoint breakpoints, of
        // unequal mass and length — including a single-member "shard".
        let members: Vec<PetCdf> = (0..40u64)
            .map(|i| {
                let points: Vec<(Time, f64)> = (0..3 + i % 6)
                    .map(|j| {
                        (3 + (i * 7 + j * (2 + i % 4)) % 90, 0.05 + ((i + j) % 5) as f64 * 0.04)
                    })
                    .collect();
                PetCdf::build(&Pmf::from_points(&points).unwrap())
            })
            .collect();
        for shard in [&members[..], &members[..32], &members[32..], &members[7..8]] {
            let (got, want) = (envelope_cdf(shard), envelope_cdf_reference(shard));
            assert_eq!(got.times, want.times);
            let bits = |c: &PetCdf| c.prefix.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    /// Two-shard serverless fixture with one deterministic warm cell and
    /// a two-point cold one, idle machines everywhere: under a 0.9
    /// threshold a δ = 105 row is dead wherever it would start cold
    /// (`CDF_cold(105) = 0.5`) and alive wherever some machine would start
    /// it warm (`CDF_warm(105) = 1`).
    fn two_shard_cold_fixture() -> (PetMatrix, PetMatrix, Vec<MachineState>) {
        let n = 2 * TABLE_SHARD_WIDTH;
        let warm = Pmf::from_points(&[(10, 1.0)]).unwrap();
        let cold = Pmf::from_points(&[(60, 0.5), (110, 0.5)]).unwrap();
        let machines = (0..n).map(|m| MachineState::new(MachineId::from(m), 4)).collect();
        (
            PetMatrix::from_pmfs(2, n, vec![warm; 2 * n]),
            PetMatrix::from_pmfs(2, n, vec![cold; 2 * n]),
            machines,
        )
    }

    #[test]
    fn refresh_machine_resurrects_same_type_rows_when_an_assignment_warms_the_shard() {
        let (pet, cold, mut machines) = two_shard_cold_fixture();
        // Shard 1 is busy enough that row A is dead there under any bound.
        for (m, machine) in machines.iter_mut().enumerate().skip(TABLE_SHARD_WIDTH) {
            for i in 0..2u32 {
                let queued = Task {
                    id: TaskId(m as u32 * 10 + i),
                    type_id: TaskTypeId(1),
                    arrival: 0,
                    deadline: 900,
                };
                assert!(testkit::apply(machine, testkit::QueueOp::Push(queued)));
            }
        }
        let row_a = Task { id: TaskId(9_000), type_id: TaskTypeId(0), arrival: 0, deadline: 105 };
        let row_b = Task { id: TaskId(9_001), type_id: TaskTypeId(0), arrival: 0, deadline: 900 };
        let threshold = |_: TaskTypeId| 0.9;
        let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
        scorer.begin_event(0);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &[row_a, row_b], &threshold);
        assert!(table.best_for_row(&machines, 0).is_none(), "A is dead under the cold envelope");
        assert!(table.best_for_row(&machines, 1).is_some(), "B's deadline clears it");

        // B goes to machine 5: by the queued-entry rule a type-0 append
        // there is now warm, so shard 0's bound for A is the warm one.
        assert!(testkit::apply(&mut machines[5], testkit::QueueOp::Push(row_b)));
        table.remove_row(1);
        table.refresh_machine(&mut scorer, &machines, &[row_a], 5);

        let mut exact = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
        exact.begin_event(0);
        let mut want: Option<(usize, PairScore)> = None;
        for (m, machine) in machines.iter().enumerate() {
            let score = exact.score(machine, &row_a);
            if want.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                want = Some((m, score));
            }
        }
        let (m, score) = want.expect("every machine has a free slot");
        assert_eq!(table.best_for_row(&machines, 0), Some((MachineId::from(m), score)));
        assert_table_agrees_with_exact(&table, &mut exact, &machines, &[row_a], &threshold);
    }

    #[test]
    fn rebuild_scores_no_cold_pair_the_cold_bound_rejects() {
        let (pet, cold, mut machines) = two_shard_cold_fixture();
        let tasks: Vec<Task> = (0..6u32)
            .map(|i| Task {
                id: TaskId(9_000 + i),
                type_id: TaskTypeId(u16::from(i >= 4)),
                arrival: 0,
                deadline: 105,
            })
            .collect();
        let threshold = |_: TaskTypeId| 0.9;
        let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
        scorer.begin_event(0);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &threshold);
        assert_eq!(table.pairs_scored(), 0, "all-cold cluster: every lane is under the cold bound");
        assert!((0..tasks.len()).all(|row| table.best_for_row(&machines, row).is_none()));

        // One resident type-0 container in shard 1: the four type-0 rows
        // are scored on that shard's machines, and nothing else is.
        testkit::set_warm(&mut machines[40], TaskTypeId(0), 1_000);
        table.rebuild(&mut scorer, &machines, &tasks, &threshold);
        assert_eq!(table.pairs_scored(), 4 * TABLE_SHARD_WIDTH as u64);
        for (row, task) in tasks.iter().enumerate() {
            let best = table.best_for_row(&machines, row);
            assert_eq!(best.map(|(m, _)| m.index()), (task.type_id.0 == 0).then_some(40));
        }

        // The classic model keeps its single family: everything clears.
        let mut classic = ProbScorer::new(&pet, DropPolicy::All, 16);
        classic.begin_event(0);
        let mut table = ScoreTable::new();
        table.rebuild(&mut classic, &machines, &tasks, &threshold);
        assert_eq!(table.pairs_scored(), (tasks.len() * machines.len()) as u64);
    }

    /// Drives a cold-model table over `params.len()` machines — per
    /// machine `(pending depth, first pending type, warm-container mask)`
    /// — through a rebuild, a cross-tick `ensure` after the warm sets
    /// churned (expiry, release, pin) and a run of same-tick assignments,
    /// checking after every step that each scored pair is exact and each
    /// unscored (row, free machine) pair is exactly below the threshold.
    /// Returns whether the cross-tick `ensure` reused the table.
    fn drive_warm_aware_table(
        params: &[(usize, usize, usize)],
        rows: &[(usize, Time)],
        threshold: f64,
    ) -> bool {
        const TYPES: usize = 3;
        let n = params.len();
        let warm: Vec<Pmf> = (0..TYPES * n)
            .map(|i| {
                let o = i as u64 % 5;
                Pmf::from_points(&[(4 + o, 0.3), (9 + o, 0.5), (20 + o, 0.2)]).unwrap()
            })
            .collect();
        let cold: Vec<Pmf> =
            warm.iter().enumerate().map(|(i, p)| p.shift(25 + 10 * (i / n) as u64)).collect();
        let (pet, cold) =
            (PetMatrix::from_pmfs(TYPES, n, warm), PetMatrix::from_pmfs(TYPES, n, cold));
        let type_of = |i: usize| TaskTypeId((i % TYPES) as u16);
        let mut machines: Vec<MachineState> = params
            .iter()
            .enumerate()
            .map(|(m, &(depth, first_type, mask))| {
                let mut machine = MachineState::new(MachineId::from(m), 4);
                let queued = |i: usize| Task {
                    id: TaskId((m * 10 + i) as u32),
                    type_id: type_of(first_type + i),
                    arrival: 0,
                    deadline: 70 + 45 * i as u64 + (m % 7) as u64,
                };
                // Three machines in four execute (started at 0, first PET
                // impulse ≥ 4), so a tick inside that bucket re-keys only
                // the idle quarter.
                if m % 4 != 0 {
                    assert!(testkit::start_executing(&mut machine, queued(3), 0, 30));
                }
                for i in 0..depth.min(machine.free_slots()) {
                    assert!(testkit::apply(&mut machine, testkit::QueueOp::Push(queued(i))));
                }
                for tt in (0..TYPES).filter(|tt| mask >> tt & 1 == 1) {
                    testkit::set_warm(&mut machine, type_of(tt), 1_000);
                }
                machine
            })
            .collect();
        let mut tasks: Vec<Task> = rows
            .iter()
            .enumerate()
            .map(|(i, &(tt, deadline))| Task {
                id: TaskId(50_000 + i as u32),
                type_id: type_of(tt),
                arrival: 0,
                deadline,
            })
            .collect();
        let thr = move |_: TaskTypeId| threshold;
        let check = |table: &ScoreTable, machines: &[MachineState], tasks: &[Task], now: Time| {
            let mut exact = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
            exact.begin_event(now);
            assert_table_agrees_with_exact(table, &mut exact, machines, tasks, &thr);
        };
        let mut scorer = ProbScorer::with_cold(&pet, Some(&cold), DropPolicy::All, 16);
        let mut table = ScoreTable::new();
        scorer.begin_event(2);
        table.rebuild(&mut scorer, &machines, &tasks, &thr);
        check(&table, &machines, &tasks, 2);

        // Next tick, warm sets churned on every fifth machine: a resident
        // container expires, or one appears — released or pinned.
        for (m, machine) in machines.iter_mut().enumerate().step_by(5) {
            if !testkit::expire_warm(machine, type_of(m), 1_000) {
                testkit::set_warm(machine, type_of(m), if m % 2 == 0 { Time::MAX } else { 900 });
            }
        }
        scorer.begin_event(3);
        let reused = table.ensure(&mut scorer, &machines, &tasks, &thr);
        check(&table, &machines, &tasks, 3);

        // The mapper's loop at that tick: assign a row, slide a same-type
        // arrival into the window, refresh the assigned machine.
        for step in 0..6 {
            let row = step % tasks.len();
            let Some(m) =
                (0..n).map(|i| (i * 7 + step * 13) % n).find(|&m| machines[m].has_free_slot())
            else {
                break;
            };
            let assigned = tasks.remove(row);
            assert!(testkit::apply(&mut machines[m], testkit::QueueOp::Push(assigned)));
            table.remove_row(row);
            let admitted = Task {
                id: TaskId(60_000 + step as u32),
                deadline: assigned.deadline + 3,
                ..assigned
            };
            tasks.push(admitted);
            table.push_row(&mut scorer, &machines, &admitted, &thr);
            table.refresh_machine(&mut scorer, &machines, &tasks, m);
            check(&table, &machines, &tasks, 3);
        }
        reused
    }

    #[test]
    fn hierarchical_bound_pass_agrees_with_exact_under_a_cold_model() {
        // Three shards; depths, pending types and warm sets walk through
        // every combination, with whole stretches left all-cold.
        let params: Vec<(usize, usize, usize)> =
            (0..96usize).map(|m| (m % 3, m / 3, if m % 11 == 0 { 1 + m % 7 } else { 0 })).collect();
        let rows = [(0, 14), (1, 30), (2, 48), (0, 60), (1, 75), (2, 90), (0, 33), (1, 52)];
        for threshold in [0.25, 0.6, 0.9] {
            assert!(
                drive_warm_aware_table(&params, &rows, threshold),
                "a quarter idle plus a fifth churned: the cross-tick ensure must reuse"
            );
        }
    }

    /// A small serverless system for the memo tests.
    fn memo_spec() -> SystemSpec {
        let cfg = hcsim_workload::FaasConfig {
            num_functions: 4,
            num_machines: 3,
            ..hcsim_workload::FaasConfig::default()
        };
        hcsim_workload::faas_system(&cfg, &mut hcsim_stats::SeedSequence::new(77).stream(0))
    }

    /// `pet` with the first cell's support moved by one tick.
    fn with_one_cell_changed(pet: &PetMatrix) -> PetMatrix {
        let (types, machines) = (pet.task_types(), pet.machines());
        let mut pmfs: Vec<Pmf> = (0..types * machines)
            .map(|i| pet.pmf(TaskTypeId::from(i / machines), MachineId::from(i % machines)).clone())
            .collect();
        pmfs[0] = pmfs[0].shift(1);
        PetMatrix::from_pmfs(types, machines, pmfs)
    }

    #[test]
    fn spec_memo_shares_tables_until_an_input_changes() {
        let spec = memo_spec();
        let mut memo = SpecMemo { entry: None };
        let first = memo.tables_for(&spec, DropPolicy::All, 24);
        let again = memo.tables_for(&spec.clone(), DropPolicy::All, 24);
        assert!(Arc::ptr_eq(&first, &again), "an equal system must share the tables");
        assert!(first.cold_pet.is_some() && first.cold_shard_cdfs.is_some());

        let mut spinup_changed = spec.clone();
        let model = spinup_changed.coldstart.as_mut().expect("serverless spec");
        model.spinup = with_one_cell_changed(&model.spinup);
        let mut pet_changed = spec.clone();
        pet_changed.pet = with_one_cell_changed(&spec.pet);
        let mut classic = spec.clone();
        classic.coldstart = None;
        let variants: [(&str, &SystemSpec, DropPolicy, usize); 5] = [
            ("one spin-up cell", &spinup_changed, DropPolicy::All, 24),
            ("one PET cell", &pet_changed, DropPolicy::All, 24),
            ("no cold model", &classic, DropPolicy::All, 24),
            ("budget", &spec, DropPolicy::All, 16),
            ("policy", &spec, DropPolicy::PendingOnly, 24),
        ];
        for (what, variant, policy, budget) in variants {
            let base = memo.tables_for(&spec, DropPolicy::All, 24);
            let other = memo.tables_for(variant, policy, budget);
            assert!(!Arc::ptr_eq(&base, &other), "{what} changed: the tables must be re-derived");
            assert_eq!((other.policy, other.budget), (policy, budget));
            assert!(other.pet == variant.pet, "{what}: tables derived from the wrong PET");
        }
    }

    #[test]
    fn spec_memo_derives_once_under_concurrent_requests() {
        let spec = memo_spec();
        let memo = std::sync::Mutex::new(SpecMemo { entry: None });
        let barrier = std::sync::Barrier::new(4);
        let tables: Vec<Arc<ScorerShared>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.lock().unwrap().tables_for(&spec, DropPolicy::All, 24)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        // The first thread through derived; had another derived too, its
        // tables would be a different allocation.
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_pmf(max_t: Time, max_n: usize) -> impl Strategy<Value = Pmf> {
            prop::collection::vec((1..max_t, 0.01f64..1.0), 1..max_n).prop_map(|pts| {
                let mut p = Pmf::from_points(&pts).unwrap();
                p.normalize();
                p
            })
        }

        proptest! {
            #[test]
            fn closed_form_always_matches_queue_step(
                tail in arb_pmf(300, 12),
                exec in arb_pmf(80, 10),
                deadline in 1u64..400,
                policy_idx in 0usize..3,
            ) {
                let policy =
                    [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
                let pet = PetMatrix::from_pmfs(1, 1, vec![exec.clone()]);
                let scorer = ProbScorer::new(&pet, policy, 256);
                let score =
                    scorer.score_against_tail(&tail, TaskTypeId(0), MachineId(0), deadline);
                let step = queue_step(&tail, &exec, deadline, policy);
                prop_assert!((score.robustness - step.robustness).abs() < 1e-9);
                if policy != DropPolicy::None {
                    match &step.completion {
                        Some(c) => prop_assert!(
                            (score.expected_completion - c.mean()).abs() < 1e-6
                        ),
                        None => prop_assert!(score.expected_completion.is_infinite()),
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
            /// The warm-aware bound never skips a pair it should not: over
            /// random serverless clusters of two to four shards — random
            /// queue depths, same-type pending entries and warm sets, three
            /// machines in four all-cold — every pair the table leaves
            /// unscored is exactly below the threshold, after a rebuild,
            /// after a cross-tick `ensure` over churned warm sets, and
            /// after each assignment of a `push_row`/`refresh_machine` run.
            #[test]
            fn hierarchical_bound_pass_agrees_with_exact_under_a_cold_model(
                params in prop::collection::vec((0usize..4, 0usize..3, 0usize..12), 64..100),
                rows in prop::collection::vec((0usize..3, 8u64..120), 2..8),
                threshold in 0.0f64..1.0,
            ) {
                let params: Vec<_> =
                    params.into_iter().map(|(d, t, w)| (d, t, w.saturating_sub(8))).collect();
                drive_warm_aware_table(&params, &rows, threshold);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]
            /// The hierarchical bound pass never changes a decision: over
            /// random multi-shard clusters with skewed occupancy (full
            /// machines, failed machines, empty ones) and an arbitrary
            /// threshold — including thresholds landing right on a row's
            /// best score — the bounded table agrees with exact scoring.
            #[test]
            fn hierarchical_bound_pass_agrees_with_exact(
                depths in prop::collection::vec((0usize..5, 0usize..8), 33..72),
                deadlines in prop::collection::vec(5u64..120, 1..6),
                threshold in 0.0f64..1.0,
            ) {
                let n = depths.len();
                let pmfs: Vec<Pmf> = (0..2 * n)
                    .map(|i| {
                        let base = 2 + (i as u64 % 5);
                        Pmf::from_points(&[(base, 0.25), (base + 3, 0.5), (base + 7, 0.25)])
                            .unwrap()
                    })
                    .collect();
                let pet = PetMatrix::from_pmfs(2, n, pmfs);
                let mut machines: Vec<MachineState> = depths
                    .iter()
                    .enumerate()
                    .map(|(m, &(depth, _))| {
                        let pending: Vec<Task> = (0..depth as u32)
                            .map(|i| Task {
                                id: TaskId(m as u32 * 100 + i),
                                type_id: TaskTypeId((i % 2) as u16),
                                arrival: 0,
                                deadline: 40 + u64::from(i) * 20 + m as u64,
                            })
                            .collect();
                        testkit::machine_with_pending(MachineId::from(m), 4, &pending)
                    })
                    .collect();
                for (machine, &(_, fail)) in machines.iter_mut().zip(&depths) {
                    if fail == 0 {
                        testkit::apply(machine, testkit::QueueOp::Fail);
                    }
                }
                let tasks: Vec<Task> = deadlines
                    .iter()
                    .enumerate()
                    .map(|(i, &deadline)| Task {
                        id: TaskId(40_000 + i as u32),
                        type_id: TaskTypeId((i % 2) as u16),
                        arrival: 0,
                        deadline,
                    })
                    .collect();
                let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
                scorer.begin_event(2);
                let mut ref_scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
                ref_scorer.begin_event(2);
                // Pass 1: exact bests (threshold 0 keeps everything live).
                let mut flat = ScoreTable::new();
                flat.rebuild(&mut scorer, &machines, &tasks, &|_| 0.0);
                let tie = (0..tasks.len())
                    .filter_map(|row| flat.best_for_row(&machines, row))
                    .map(|(_, s)| s.robustness)
                    .fold(0.0f64, f64::max);
                // Pass 2: the random threshold AND the exact near-tie one.
                for t in [threshold, tie] {
                    let thr = move |_tt: TaskTypeId| t;
                    let mut bounded = ScoreTable::new();
                    bounded.rebuild(&mut scorer, &machines, &tasks, &thr);
                    assert_table_agrees_with_exact(
                        &bounded, &mut ref_scorer, &machines, &tasks, &thr,
                    );
                }
            }
        }
    }

    #[test]
    fn hopeless_deadline_scores_zero() {
        let pet = pet_single(&[(2, 1.0)]);
        let mut scorer = ProbScorer::new(&pet, DropPolicy::All, 16);
        let machine = MachineState::new(MachineId(0), 4);
        scorer.begin_event(100);
        let score = scorer.score(&machine, &task_with_deadline(50));
        assert_eq!(score.robustness, 0.0);
        assert!(score.expected_completion.is_infinite());
    }
}
