//! The scorer state that lives as long as the *system* does and never
//! changes after it is derived: prefix CDFs of every PET cell, the shard
//! envelope families the [`super::ScoreTable`] bound pass probes, and the
//! one-entry memo that lets every mapper built against the same system
//! share them.

use super::kernel::{robustness_bound, BOUND_MARGIN};
use crate::chain::PetTables;
use hcsim_model::{MachineId, PetMatrix, SystemSpec, Task, TaskTypeId, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::MachineState;
use std::sync::Arc;

/// Machines per [`super::ScoreTable`] shard. The table's bound pass works on
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
pub(super) const TABLE_SHARD_WIDTH: usize = 32;

/// Machine-index range of shard `s` in a `machines`-wide cluster.
#[inline]
pub(super) fn shard_range(s: usize, machines: usize) -> std::ops::Range<usize> {
    let start = s * TABLE_SHARD_WIDTH;
    start..(start + TABLE_SHARD_WIDTH).min(machines)
}

/// Prefix-CDF view of one PET cell.
#[derive(Debug, Clone)]
pub(super) struct PetCdf {
    pub(super) times: Vec<Time>,
    /// `prefix[i]` = total mass at `times[..=i]`.
    pub(super) prefix: Vec<f64>,
    pub(super) mean: f64,
}

impl PetCdf {
    pub(super) fn build(pmf: &Pmf) -> Self {
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
    pub(super) fn cdf_at(&self, t: Time) -> f64 {
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            0.0
        } else {
            self.prefix[idx - 1]
        }
    }
}

/// The scorer state shared *read-only* across every machine cell during a
/// fan-out: the drop policy, the compaction budget, the PET tables and the
/// prefix CDFs of every PET cell. Immutable after construction, so one
/// `Arc` serves both the caller and the pool workers; the per-event clock
/// travels separately (it changes every event).
#[derive(Debug)]
pub(super) struct ScorerShared {
    pub(super) policy: DropPolicy,
    pub(super) budget: usize,
    /// The PET the scorer was built from.
    pub(super) pet: PetMatrix,
    /// Cold-placement PET (spin-up ⊛ execution per cell); `None` in the
    /// classic HC model.
    pub(super) cold_pet: Option<PetMatrix>,
    /// Prefix CDFs, row-major `(task_type, machine)`, built once.
    cdfs: Vec<PetCdf>,
    /// Cold-placement prefix CDFs (spin-up ⊛ execution cells), same
    /// layout; `None` in the classic HC model where every start is warm.
    cold_cdfs: Option<Vec<PetCdf>>,
    pub(super) task_types: usize,
    pub(super) machines: usize,
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
    pub(super) cold_shard_cdfs: Option<Vec<PetCdf>>,
    /// Number of [`TABLE_SHARD_WIDTH`]-machine shards.
    pub(super) shards: usize,
}

impl ScorerShared {
    /// Derives every table from the warm PET and (serverless model) the
    /// cold-placement PET, both taken by value — a [`PetMatrix`] clone
    /// shares its cells, so the tables hold a reference, not a copy.
    ///
    /// # Panics
    ///
    /// Panics when `cold`'s dimensions disagree with `pet`'s.
    pub(super) fn derive(
        pet: PetMatrix,
        cold: Option<PetMatrix>,
        policy: DropPolicy,
        budget: usize,
    ) -> Self {
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
    pub(super) fn pets(&self) -> PetTables<'_> {
        PetTables { warm: &self.pet, cold: self.cold_pet.as_ref() }
    }

    #[inline]
    pub(super) fn cdf(&self, tt: TaskTypeId, m: MachineId) -> &PetCdf {
        &self.cdfs[tt.index() * self.machines + m.index()]
    }

    /// The CDF a hypothetical append of type `tt` to `machine` scores
    /// with: the cold cell when the placement would pay a spin-up (no warm
    /// container, no same-type entry already queued — the warmth rule of
    /// [`PetTables`]), the warm cell otherwise.
    #[inline]
    pub(super) fn cdf_for(&self, tt: TaskTypeId, machine: &MachineState) -> &PetCdf {
        match &self.cold_cdfs {
            Some(cold) if crate::chain::append_would_be_cold(machine, tt) => {
                &cold[tt.index() * self.machines + machine.id().index()]
            }
            _ => self.cdf(tt, machine.id()),
        }
    }

    /// The per-pair bound in front of every exact table score: whether
    /// appending `task` to `machine`, whose tail starts no sooner than
    /// `earliest`, can reach `threshold` at all. One lookup in the cell
    /// the kernel would score with — warm or cold as [`Self::cdf_for`]
    /// picks it for this machine — at the task's deadline. `false` proves
    /// the exact robustness strictly below `threshold` (`BOUND_MARGIN`
    /// absorbs the float slop), so the pair can stay unscored; an
    /// `earliest` older than the live tail's is only looser, so still
    /// valid. A column rescore runs the same test as one deadline compare
    /// per row (`kernel::deadline_cutoff`).
    #[inline]
    pub(super) fn pair_clears(
        &self,
        machine: &MachineState,
        task: &Task,
        earliest: Time,
        threshold: f64,
    ) -> bool {
        let bound = robustness_bound(earliest, self.cdf_for(task.type_id, machine), task.deadline);
        bound + BOUND_MARGIN >= threshold
    }

    /// How many per-(shard, type) warm-capable flags a [`super::ScoreTable`]
    /// keeps for these tables: none in the classic model.
    pub(super) fn warm_flags(&self) -> usize {
        self.cold_shard_cdfs.as_ref().map_or(0, Vec::len)
    }

    /// Upper bound on the robustness of appending a type-`tt` task with
    /// `deadline` to *any* free machine of `shard`, whose earliest free
    /// start is `earliest` — the one bound routine behind every
    /// [`super::ScoreTable`] skip decision. `warm_capable` is the table's
    /// per-(shard, type) flag vector (`shard * task_types + type`; empty
    /// and never read in the classic model): with the flag off every free
    /// member would place the type cold, [`ScorerShared::cdf_for`] picks a
    /// cold cell on each of them, and the cold envelope alone dominates;
    /// with it on, the larger of the two envelope values does, whichever
    /// cell a member picks (compaction can locally break the stochastic
    /// dominance of cold over warm cells, so neither family is dropped).
    /// That maximum is, value for value, what a single envelope over both
    /// families would return.
    pub(super) fn shard_bound(
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
/// count. The columns come back exact-size: the envelopes live as long as
/// the system, and the breakpoint union is usually much narrower than the
/// growth the pushes left behind.
pub(super) fn envelope_cdf(members: &[PetCdf]) -> PetCdf {
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
    times.shrink_to_fit();
    prefix.shrink_to_fit();
    PetCdf { times, prefix, mean: f64::NAN }
}

/// The tables [`super::ProbScorer::for_spec`] last derived, kept so the next
/// mapper built against the same system shares them instead of paying the
/// cold-PET convolutions, prefix CDFs and shard envelopes again. One
/// entry: a run maps one system at a time, and a different system simply
/// replaces it. A hit is decided by *full equality* of everything the
/// tables are a function of — never by a hash. The memo stores no copy of
/// either input: the tables share the spec's warm PET and the entry shares
/// its spin-up matrix ([`PetMatrix`] clones share cells), so the usual hit
/// — the same spec again — short-circuits on identity, and only a
/// separately built system pays the cell-by-cell comparison.
pub(super) struct SpecMemo {
    pub(super) entry: Option<SpecEntry>,
}

pub(super) struct SpecEntry {
    /// Spin-up matrix the cold tables were derived from, sharing the
    /// spec's cells (`None`: classic model).
    spinup: Option<PetMatrix>,
    shared: Arc<ScorerShared>,
}

pub(super) static SPEC_MEMO: std::sync::Mutex<SpecMemo> =
    std::sync::Mutex::new(SpecMemo { entry: None });

impl SpecMemo {
    /// The tables for `(spec, policy, budget)`: the remembered ones when
    /// every input is equal, freshly derived (and remembered) otherwise.
    /// Callers hold the memo's lock across the call, so concurrent
    /// requests for one system derive once.
    pub(super) fn tables_for(
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
