//! The (window task × machine) score table PAM and MOC reduce over — the
//! per-event cache layer on top of the per-machine tails: bulk rebuild,
//! cross-event revalidation ([`ScoreTable::ensure`]), and the within-event
//! repair after an assignment ([`ScoreTable::apply_assignment`]).

use super::cells::{WarmFilter, PARALLEL_MIN_MACHINES};
use super::kernel::{score_column_scatter, LiveRow, PairScore, PairWork, BOUND_MARGIN};
use super::shared::{shard_range, ScorerShared, TABLE_SHARD_WIDTH};
use super::tail::{HeadWindow, MachineCache, TailBound};
use super::{debug_assert_machine_alignment, ProbScorer, WorkCounters};
use hcsim_model::{MachineId, Task, TaskTypeId, Time};
use hcsim_sim::MachineState;
use std::collections::HashMap;

/// Minimum number of changed machines before a [`ScoreTable::ensure`]
/// that falls back to a rebuild lets it fan out. Most events repair the
/// table incrementally, so these rebuilds are far apart and their rounds
/// find the pool's workers parked: waking them costs 50–120 µs per
/// round on a virtualised host, against roughly 2 µs of chain-plus-column
/// work per changed machine (a 64-machine rebuild measured 120 µs on the
/// calling thread and 250–310 µs through the two-round fan-out). Below
/// this floor the rebuild runs on the calling thread at any thread count.
const REBUILD_FANOUT_MIN_CHANGED: usize = 128;

/// The (window task × machine) score matrix PAM and MOC reduce over,
/// maintained *hierarchically* and *incrementally* — within a mapping
/// event and, while the membership epoch holds, from one event to the
/// next, whether or not the clock or the caller's thresholds moved.
///
/// Layout is machine-major (one contiguous column per machine), grouped
/// into contiguous `TABLE_SHARD_WIDTH`-machine shards, which is what
/// makes both the bound pass and the phase-2 reduction cheap at cluster
/// scale. Window rows live in stable *slots*: a column is indexed by
/// slot, a position → slot map keeps the window order, and a departing
/// row frees its slot for the next appended one — so a removal clears
/// one cell per column instead of shifting every column. The public API
/// ([`ScoreTable::get`], [`ScoreTable::best_for_row`],
/// [`ScoreTable::apply_assignment`]) stays positional.
///
/// A slot belongs to a **class**, not to one row: the window rows that
/// share a `(type, deadline)` key. Those are the only task fields a cell,
/// a bound, a deadline cutoff or a threshold reads (`cdf_for`, the
/// deadline, `skip_below`), so every member of a class gets
/// the same answer from every operation — and on a serverless burst half
/// the window is members of a live class. A class owns one slot — its
/// cells, lane liveness, shard bests, class best and threshold — and
/// counts its members; the earliest in window order is its *head*, marked
/// in a position-aligned head bitmap. Appending a member of a live class,
/// or removing one that is not the last, does no column work (a departing
/// head hands its bit to the next member's position), and the bound
/// pass, resurrection and every column rescore visit each class once.
/// Positions still resolve to their class's slot, so a member reads
/// exactly what an unclassed row of the same task would; PAM's phase scan
/// reads each class once, at its head (see `ScoreTable::is_head`). An
/// unshared row is a class of one.
///
/// * [`ScoreTable::rebuild`] — the first event, a new epoch, or a table
///   [`ScoreTable::invalidate`]d — ensures every free machine's tail
///   cache in a per-machine fan-out (a
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
///   envelope can clear the threshold when no member does; extra `Some`
///   entries below the threshold never change a decision, because the
///   reductions defer/cull on the exact value.)
/// * inside a surviving lane, a **per-pair bound** stands in front of
///   every exact score: the same one-lookup bound, evaluated against the
///   machine's *own* cell (warm or cold as that machine would place the
///   type) and its own earliest start (`ScorerShared::pair_clears`). The
///   envelope is a max over up to 32 members, so most pairs it lets
///   through — nine in ten on an oversubscribed cluster — fail their own
///   machine's bound and stay `None` without the scoring walk. (A column
///   rescore resolves that bound once per task type into a deadline
///   cutoff and compares each row's deadline against it.) A pair that
///   clears it is walked under its row's threshold, and the walk stops —
///   the pair stays `None` — once the impulses left cannot lift it to the
///   threshold. In a column fill, a type that had a walk stop also gets
///   a *tail-wide* cutoff, resolved from that stop test at every impulse
///   of the tail: its later rows below it stay `None` without the walk
///   (`kernel::tail_cutoff`; appended rows and retested lanes keep the
///   per-pair path). This is the same contract applied per pair instead
///   of per lane, and it is the table's invariant: **a `None` on a free
///   machine is a pair proven strictly below the threshold its row is
///   held to — by a bound, a cutoff or a stopped walk; a `Some` is the
///   exact score.**
///   Every path that writes a cell tests the bound first and walks under
///   the threshold (column rescores, the rebuild fan-out on either
///   execution mode, appended rows, resurrected lanes), and the one event
///   that can invalidate a proof without touching the machine — the
///   caller *lowering* the row's threshold — has [`ScoreTable::ensure`]
///   re-test the row's unscored pairs.
/// * each shard also caches its **per-class best candidate**
///   (first-wins under the exact comparison), and each class its **class
///   best**: the first-wins fold of its shard bests in ascending shard
///   order. Shards are contiguous index ranges, so that fold picks
///   exactly the machine a flat ascending scan would, and
///   [`ScoreTable::best_for_row`] is one read. When member columns
///   change, a shard best is *folded*, not rescanned: a winner on an
///   unchanged machine only has to be compared against the changed
///   members' new cells (`refresh_shard_best`). Every shard-best write
///   that changes an entry marks the class, and the marked classes are
///   re-folded once, when [`ScoreTable::rebuild`], [`ScoreTable::ensure`]
///   or [`ScoreTable::apply_assignment`] returns. No cached best ever
///   sits on a full machine, so none needs a fallback: a machine fills
///   only by a commit, whose closing column refresh clears its column and
///   refolds the bests it held, and any other change bumps its version,
///   so the next `ensure` rescores it.
/// * between assignments ([`ScoreTable::apply_assignment`]), only the
///   *assigned* machine's column (and its shard's aggregates) change,
///   plus one appended row when a new batch task slides into the
///   window. Every other pair keeps its previously computed score — or
///   its proof that none is needed — which is exactly what a from-scratch
///   rescore would produce, because pair scores and pair bounds are
///   deterministic in (machine state, task) alone. Within one event machines only fill up
///   and bounds only tighten — with one exception under a cold-start
///   model: an assignment makes the assigned machine warm for the
///   assigned *type* (the queued-entry rule), which can switch that
///   type's lanes in that machine's shard from the cold envelope to the
///   looser warm one. The column refresh that closes an assignment
///   rechecks exactly those lanes; every other skipped (row, shard)
///   pair stays skipped for the rest of the event.
/// * across events, [`ScoreTable::ensure`] revalidates the table against
///   `(membership epoch, machine versions, head windows, window)`
///   instead of rebuilding: only machines whose version moved
///   (completions, assignments, pruner drops) or whose conditioned head
///   the clock re-keyed are rescored — except idle machines with no
///   exact score, which are *re-timed* in place (an idle tail only moves
///   later, so their unscored pairs stay proven) — rows whose bounds
///   those machines *loosened* — or whose skip threshold the caller
///   lowered — are resurrected shard-by-shard in the loosened shards only
///   (and, for a lowered threshold, pair by pair inside the lanes that
///   were already live), and the window diff is applied as removals +
///   appended rows. Every surviving entry is byte-identical to what a
///   fresh rebuild would compute, so an event costs O(changed), not
///   O(machines) — on an idle-heavy serverless cluster too.
///
/// The sequential heuristics used to rescore the full window × machines
/// product on every loop iteration; under oversubscription — where the
/// batch is dominated by tasks that will be deferred again — the table
/// turns that into a cheap per-shard bound sweep, one lookup per
/// surviving pair, and exact work only where a task could actually clear
/// its threshold — without changing a single mapping decision.
#[derive(Debug, Default)]
pub struct ScoreTable {
    /// One column per machine; `cols[m][slot]` scores the class of row
    /// slot `slot` on machine `m` (`None`: a free slot, no free queue
    /// slot on the machine, (row, shard) skipped by the bound pass, or the
    /// pair rejected by the machine's own bound).
    cols: Vec<Vec<Option<PairScore>>>,
    /// Per machine: how many exact scores its column holds. An idle
    /// column with none needs no rescore when the clock moves (see
    /// [`ScoreTable::ensure`]).
    col_scores: Vec<usize>,
    /// Window position → the slot of the row's class. Columns and every
    /// slot-aligned vector below are indexed by slot.
    order: Vec<usize>,
    /// Window position → task: the reuse signature the window diff walks,
    /// and what [`ScoreTable::check_invariants`] scores each member as.
    window: Vec<Task>,
    /// Window position → whether the row heads its class (is its
    /// earliest member). PAM's phase scan reads it instead of the class.
    heads: Vec<bool>,
    /// Slots of departed classes, reused by the next new class. A free
    /// slot has no members and holds `None` in every column and every
    /// shard best.
    free_slots: Vec<usize>,
    /// Slot-aligned: how many window rows the class has (0: a free slot).
    member_counts: Vec<usize>,
    /// Every live class's key → its slot.
    classes: HashMap<ClassKey, usize>,
    /// Slot-aligned: the task that opened the class, whose type and
    /// deadline are the class key (a free slot keeps its last task); its
    /// length is the slot capacity.
    class_tasks: Vec<Task>,
    /// Slot-aligned: which shards the class survived the bound pass in
    /// (inner length = shards). Entries only flip dead → live, and only
    /// in [`ScoreTable::ensure`] when a changed machine loosened a bound
    /// or the caller lowered the class's threshold.
    shard_live: Vec<Vec<bool>>,
    /// Slot-aligned: the caller's skip threshold the class's dead lanes
    /// and unscored pairs were last proven under. [`ScoreTable::ensure`]
    /// rechecks all of them for a class whose threshold has since dropped.
    row_thresholds: Vec<f64>,
    /// Per shard, per slot: the shard's best candidate under the exact
    /// first-wins comparison (`None`: no scored member).
    shard_best: Vec<Vec<Option<(usize, PairScore)>>>,
    /// Slot-aligned: the class best, the first-wins fold of the class's
    /// shard bests across shards in ascending order — settled whenever a
    /// public call returns.
    class_best: Vec<Option<(usize, PairScore)>>,
    /// Slot-aligned: a shard best of the class changed since its class
    /// best was folded; `marked` lists those slots for the next settle.
    best_marked: Vec<bool>,
    marked: Vec<usize>,
    /// Scratch: the classes live in one shard — filled once per shard by
    /// [`ScoreTable::collect_live_rows`], read by every column rescore in
    /// that shard.
    live: Vec<LiveRow>,
    /// Scratch: per-shard live-class lists for the rebuild fan-out.
    live_by_shard: Vec<Vec<LiveRow>>,
    /// Bound scalars and head window per free machine (`None`: no free
    /// slot), as of the machine's last column (re)score or re-timing.
    tail_bounds: Vec<Option<TailBound>>,
    /// Per shard: min over members of `tail_bounds[..].earliest` (`None`:
    /// no free member).
    shard_earliest: Vec<Option<Time>>,
    /// Per (shard, type), `shard * task_types + type`: some free member
    /// would place the type warm. Maintained alongside `shard_earliest`
    /// under a cold-start model; empty in the classic one.
    shard_warm: Vec<bool>,
    /// Scratch: the types the last `recompute_shard_aggregates` turned
    /// warm-capable in its shard.
    newly_warm: Vec<bool>,
    /// The table's work counters so far (diagnostics/tests; the chain
    /// counters stay zero here, they are the scorer's).
    work: WorkCounters,
    /// Reuse signature: membership epoch of the last rebuild and machine
    /// versions as last scored (the window is `window`). The event time
    /// is *not* part of it — see [`ScoreTable::ensure`].
    epoch: Option<u64>,
    versions: Vec<u64>,
    /// Set by [`ScoreTable::invalidate`]: the next ensure rebuilds.
    stale: bool,
    /// Ensure scratch: indices/mask of changed machines, idle machines
    /// re-timed in place, shards whose aggregates moved and those of them
    /// that loosened, one dirty shard's changed members, and the `(slot,
    /// shard)` lanes whose unscored pairs phase 3 tests — resurrected
    /// ones, and live ones of a class whose threshold dropped.
    changed: Vec<usize>,
    retimed: Vec<usize>,
    changed_mask: Vec<bool>,
    dirty_shards: Vec<bool>,
    loosened: Vec<bool>,
    shard_changed: Vec<usize>,
    retest: Vec<(usize, usize)>,
}

/// What a class shares: the type and the deadline — every input, besides
/// the machine, of a cell, a bound, a deadline cutoff and a threshold.
type ClassKey = (TaskTypeId, Time);

fn class_key(task: &Task) -> ClassKey {
    (task.type_id, task.deadline)
}

/// The exact phase-1 comparison: higher robustness, tie → lower expected
/// completion. Strictly-better, so first-wins scans keep the lowest
/// index among equals — the sequential heuristics' order.
#[inline]
pub(super) fn better_pair(score: &PairScore, best: &PairScore) -> bool {
    score.robustness > best.robustness
        || (score.robustness == best.robustness
            && score.expected_completion < best.expected_completion)
}

/// First-wins best over shard `s`'s scored entries for row slot `row`.
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

/// First-wins fold of class slot `row`'s shard bests, in ascending shard
/// order: its class best.
fn fold_class_best(
    shard_best: &[Vec<Option<(usize, PairScore)>>],
    row: usize,
) -> Option<(usize, PairScore)> {
    let mut best: Option<(usize, PairScore)> = None;
    for &(m, score) in shard_best.iter().filter_map(|bests| bests[row].as_ref()) {
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
        self.order.len()
    }

    /// Whether window row `row` is its class's head — its earliest
    /// member. Every other member reads the head's cells, bests and
    /// threshold, so a first-wins scan over the window loses nothing by
    /// reading heads only.
    #[must_use]
    pub(crate) fn is_head(&self, row: usize) -> bool {
        self.heads[row]
    }

    /// The table's half of the work counters so far — completed kernel
    /// walks, pairs a bound, a deadline cutoff or a stopped walk left
    /// unscored, appended rows that joined a live class, rebuilds and
    /// reuses; the chain counters are the scorer's and read zero here.
    /// Test support, not part of the supported API.
    #[doc(hidden)]
    #[must_use]
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// Checks the table against its own contract, as it must stand after
    /// every [`ScoreTable::rebuild`], [`ScoreTable::ensure`] and
    /// [`ScoreTable::apply_assignment`] on the `machines` that call saw
    /// (`scorer` at the same event time): every cached shard best is
    /// bitwise the first-wins scan of its shard's columns, every class
    /// best bitwise the first-wins fold of its shard bests, and no cached
    /// best sits on a full machine; every scored
    /// pair on a free machine holds the exact score; every unscored pair
    /// on a free machine is proven below the threshold its row is held to
    /// — in a live lane by its machine's own bound or, where that clears,
    /// by its exact score (a stopped walk), in a dead one by the shard
    /// bound. The pair checks run per window *position*, each member
    /// scored as its own task, so a member of a class reads exactly what
    /// an unclassed row would. The slots are checked too: the live
    /// classes and the free list partition them, a free slot holds
    /// nothing, each column's count of exact scores is what a recount
    /// finds — and so are the classes: every position sits in its key's
    /// slot, no two live slots share a key, and each class counts
    /// as many members as positions, and the head bitmap marks exactly
    /// each class's earliest position. The first violation comes back as
    /// the error. Test support, like
    /// [`ScoreTable::work`].
    #[doc(hidden)]
    pub fn check_invariants(
        &self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
    ) -> Result<(), String> {
        self.check_slots()?;
        self.check_classes()?;
        let bits = |s: &PairScore| {
            (s.robustness.to_bits(), s.expected_completion.to_bits(), s.mean_exec.to_bits())
        };
        let entry_bits = |e: Option<(usize, PairScore)>| e.map(|(m, b)| (m, bits(&b)));
        if let Some(slot) = self.marked.first() {
            return Err(format!("class {slot}: marked, but its class best was never re-folded"));
        }
        for slot in self.live_slots() {
            let (task, threshold) = (&self.class_tasks[slot], self.row_thresholds[slot]);
            let fold = fold_class_best(&self.shard_best, slot);
            if entry_bits(self.class_best[slot]) != entry_bits(fold) {
                return Err(format!(
                    "class {slot}: class best {:?}, its shard bests fold to {fold:?}",
                    self.class_best[slot]
                ));
            }
            let cached = self.shard_best.iter().map(|bests| bests[slot]);
            if let Some((m, _)) = cached
                .chain([self.class_best[slot]])
                .flatten()
                .find(|&(m, _)| !machines[m].has_free_slot())
            {
                return Err(format!("class {slot}: a cached best sits on full machine {m}"));
            }
            for (s, bests) in self.shard_best.iter().enumerate() {
                let scan = shard_best_entry(&self.cols, s, slot);
                if entry_bits(bests[slot]) != entry_bits(scan) {
                    return Err(format!(
                        "class {slot} shard {s}: cached best {:?}, the columns say {scan:?}",
                        bests[slot]
                    ));
                }
                if !self.shard_live[slot][s] && self.lane_clears(&scorer.shared, task, s, threshold)
                {
                    return Err(format!("class {slot} shard {s}: dead, but clears {threshold}"));
                }
            }
        }
        for (row, (&slot, task)) in self.order.iter().zip(&self.window).enumerate() {
            let threshold = self.row_thresholds[slot];
            for (m, machine) in machines.iter().enumerate() {
                if !machine.has_free_slot() {
                    continue;
                }
                match self.cols[m][slot] {
                    Some(held) => {
                        let exact = scorer.score(machine, task);
                        if bits(&held) != bits(&exact) {
                            return Err(format!("({row},{m}): holds {held:?}, exact is {exact:?}"));
                        }
                    }
                    None if self.shard_live[slot][m / TABLE_SHARD_WIDTH] => {
                        let earliest = scorer.ensure_tail_bound(machine).earliest;
                        if scorer.shared.pair_clears(machine, task, earliest, threshold) {
                            let exact = scorer.score(machine, task);
                            if exact.robustness >= threshold {
                                return Err(format!(
                                    "({row},{m}): unscored in a live lane, but its bound \
                                     clears {threshold} and so does its exact {exact:?}"
                                ));
                            }
                        }
                    }
                    None => {}
                }
            }
        }
        Ok(())
    }

    /// The slot half of [`ScoreTable::check_invariants`].
    fn check_slots(&self) -> Result<(), String> {
        let capacity = self.class_tasks.len();
        let aligned = [
            self.member_counts.len(),
            self.shard_live.len(),
            self.row_thresholds.len(),
            self.class_best.len(),
            self.best_marked.len(),
        ];
        if aligned.iter().any(|&len| len != capacity) {
            return Err(format!("slot-aligned lengths {aligned:?} for {capacity} slots"));
        }
        let mut seen = vec![false; capacity];
        for &slot in &self.order {
            if slot >= capacity || self.member_counts[slot] == 0 {
                return Err(format!("slot {slot}: a window position's, but out of range or empty"));
            }
            seen[slot] = true;
        }
        for &slot in &self.free_slots {
            if slot >= capacity || std::mem::replace(&mut seen[slot], true) {
                return Err(format!("slot {slot}: out of range, or both live and free"));
            }
        }
        if let Some(slot) = seen.iter().position(|&listed| !listed) {
            return Err(format!("slot {slot}: neither live nor free"));
        }
        for &slot in &self.free_slots {
            if self.member_counts[slot] != 0 {
                return Err(format!("free slot {slot}: has members"));
            }
            if self.class_best[slot].is_some() {
                return Err(format!("free slot {slot}: holds a class best"));
            }
            if let Some(m) = self.cols.iter().position(|col| col[slot].is_some()) {
                return Err(format!("free slot {slot}: holds a score on machine {m}"));
            }
            if let Some(s) = self.shard_best.iter().position(|bests| bests[slot].is_some()) {
                return Err(format!("free slot {slot}: holds a best in shard {s}"));
            }
        }
        for (m, (col, &count)) in self.cols.iter().zip(&self.col_scores).enumerate() {
            let recount = col.iter().flatten().count();
            if col.len() != capacity || recount != count {
                return Err(format!(
                    "machine {m}: {} cells for {capacity} slots, {recount} scores counted as \
                     {count}",
                    col.len()
                ));
            }
        }
        Ok(())
    }

    /// The class half of [`ScoreTable::check_invariants`]: every position
    /// sits in its key's slot, no two live slots share a key, every
    /// class's member count is a recount of its positions, and the head
    /// bitmap marks exactly each class's earliest position.
    fn check_classes(&self) -> Result<(), String> {
        if self.heads.len() != self.order.len() {
            return Err(format!("{} head bits for {} rows", self.heads.len(), self.order.len()));
        }
        let mut recount = vec![0; self.class_tasks.len()];
        for (row, (&slot, task)) in self.order.iter().zip(&self.window).enumerate() {
            let key = class_key(task);
            if self.classes.get(&key) != Some(&slot) || class_key(&self.class_tasks[slot]) != key {
                return Err(format!("row {row}: key {key:?} sits in slot {slot}, not its key's"));
            }
            let earliest = recount[slot] == 0;
            if self.heads[row] != earliest {
                return Err(format!(
                    "row {row}: head bit {}, but it is {} member of class {slot}",
                    self.heads[row],
                    if earliest { "the earliest" } else { "a later" }
                ));
            }
            recount[slot] += 1;
        }
        if self.classes.len() != self.live_slots().count() {
            return Err(format!(
                "{} keys for {} live slots",
                self.classes.len(),
                self.live_slots().count()
            ));
        }
        for (slot, (&count, &recount)) in self.member_counts.iter().zip(&recount).enumerate() {
            if count != recount {
                return Err(format!(
                    "class {slot}: {count} members counted, {recount} positions hold it"
                ));
            }
        }
        Ok(())
    }

    /// The slots of live classes, ascending.
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.member_counts.iter().enumerate().filter(|(_, &n)| n > 0).map(|(slot, _)| slot)
    }

    /// Books `candidates` tested pairs: `work` says how many of them ran
    /// the kernel and how many the tail-wide cutoff rejected; the
    /// first-impulse bound rejected the rest.
    fn count_pairs(&mut self, candidates: usize, work: PairWork) {
        self.work.pairs_scored += work.scored as u64;
        self.work.pairs_abandoned += work.abandoned as u64;
        self.work.pairs_cut += work.cut as u64;
        self.work.cutoffs_resolved += work.resolved as u64;
        self.work.pairs_bounded += (candidates - work.scored - work.abandoned - work.cut) as u64;
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
        self.work.table_rebuilds += 1;
        self.cols.resize_with(machines.len(), Vec::new);
        self.col_scores.resize(machines.len(), 0);
        let free = machines.iter().filter(|m| m.has_free_slot()).count();
        let parallel = free >= PARALLEL_MIN_MACHINES && changed >= REBUILD_FANOUT_MIN_CHANGED;

        self.assign_classes(tasks);
        self.warm_and_collect_bounds(scorer, machines, parallel);
        self.bound_pass(&scorer.shared, skip_below);
        // Fan-out 2: exact scores for the pairs of the surviving (class,
        // shard) lanes that clear their machine's own bound, one column
        // per machine.
        let work = scorer.cells.fill_columns(
            &scorer.shared,
            machines,
            &self.live_by_shard,
            self.class_tasks.len(),
            &mut self.cols,
            &mut self.col_scores,
            parallel,
        );
        let candidates = (0..scorer.shared.shards)
            .map(|s| {
                let members = shard_range(s, self.tail_bounds.len());
                self.tail_bounds[members].iter().flatten().count() * self.live_by_shard[s].len()
            })
            .sum();
        self.count_pairs(candidates, work);
        self.work.column_abandoned += work.abandoned as u64;
        self.reduce_shard_bests(self.class_tasks.len());
        self.settle_class_bests();
        self.versions.clear();
        self.versions.extend(machines.iter().map(MachineState::version));
        self.epoch = scorer.membership_epoch;
        self.stale = false;
    }

    /// Sorts the rebuilt window `tasks` into classes, one slot each in
    /// order of first appearance (slots `0..classes`, none free).
    fn assign_classes(&mut self, tasks: &[Task]) {
        self.classes.clear();
        self.class_tasks.clear();
        self.free_slots.clear();
        self.order.clear();
        self.window.clear();
        self.heads.clear();
        self.member_counts.clear();
        for task in tasks {
            let fresh = self.class_tasks.len();
            let slot = *self.classes.entry(class_key(task)).or_insert(fresh);
            if slot == fresh {
                self.class_tasks.push(*task);
                self.member_counts.push(0);
            }
            self.append_member(slot, task);
        }
    }

    /// Appends `task` to the window as the newest member of class `slot`
    /// — its head if the class had none.
    fn append_member(&mut self, slot: usize, task: &Task) {
        self.heads.push(self.member_counts[slot] == 0);
        self.member_counts[slot] += 1;
        self.order.push(slot);
        self.window.push(*task);
    }

    /// Rebuild fan-out 1: brings every free machine's availability chain
    /// up to date (the convolution-heavy part), then gathers the bound
    /// scalars and folds them into the per-shard aggregates.
    fn warm_and_collect_bounds(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        parallel: bool,
    ) {
        let shards = scorer.shared.shards;
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
    }

    /// The rebuild's hierarchical bound pass: per class, one envelope
    /// probe per shard; only surviving (class, shard) pairs — gathered per
    /// shard into `live_by_shard` — reach the scoring fan-out.
    fn bound_pass(&mut self, shared: &ScorerShared, skip_below: &dyn Fn(TaskTypeId) -> f64) {
        let shards = shared.shards;
        self.row_thresholds.clear();
        self.shard_live.resize_with(self.class_tasks.len(), Vec::new);
        self.live_by_shard.resize_with(shards, Vec::new);
        for lane in &mut self.live_by_shard {
            lane.clear();
        }
        for row in 0..self.class_tasks.len() {
            let task = self.class_tasks[row];
            let threshold = skip_below(task.type_id);
            let mut lanes = std::mem::take(&mut self.shard_live[row]);
            lanes.clear();
            for s in 0..shards {
                let live = self.lane_clears(shared, &task, s, threshold);
                if live {
                    self.live_by_shard[s].push(LiveRow { row, task, threshold });
                }
                lanes.push(live);
            }
            self.row_thresholds.push(threshold);
            self.shard_live[row] = lanes;
        }
    }

    /// The rebuild's per-shard phase-1 reduction: caches each shard's best
    /// candidate per live class, and marks every class for the fold into
    /// its class best.
    fn reduce_shard_bests(&mut self, rows: usize) {
        self.shard_best.resize_with(self.live_by_shard.len(), Vec::new);
        for (s, bests) in self.shard_best.iter_mut().enumerate() {
            bests.clear();
            bests.resize(rows, None);
            let cells = shard_range(s, self.cols.len()).len() * self.live_by_shard[s].len();
            self.work.best_rescans += cells as u64;
            for live in &self.live_by_shard[s] {
                bests[live.row] = shard_best_entry(&self.cols, s, live.row);
            }
        }
        self.class_best.clear();
        self.class_best.resize(rows, None);
        self.best_marked.clear();
        self.best_marked.resize(rows, false);
        self.marked.clear();
        for slot in 0..rows {
            self.mark(slot);
        }
    }

    /// Marks class `slot`: one of its shard bests changed, so its class
    /// best is re-folded at the next settle.
    fn mark(&mut self, slot: usize) {
        if !std::mem::replace(&mut self.best_marked[slot], true) {
            self.marked.push(slot);
        }
    }

    /// Writes shard `s`'s best for class `slot`, marking the class when
    /// the entry changed.
    fn set_shard_best(&mut self, s: usize, slot: usize, best: Option<(usize, PairScore)>) {
        if self.shard_best[s][slot] != best {
            self.shard_best[s][slot] = best;
            self.mark(slot);
        }
    }

    /// Re-folds the class best of every marked class — what closes each
    /// public call, so a decision reads settled class bests only.
    fn settle_class_bests(&mut self) {
        for &slot in &self.marked {
            self.best_marked[slot] = false;
            self.class_best[slot] = fold_class_best(&self.shard_best, slot);
        }
        self.work.best_refolds += self.marked.len() as u64;
        self.marked.clear();
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
    /// function of the machine's tail and its warm/cold CDF selection;
    /// neither reads the clock, and each bumps [`MachineState::version`]
    /// when it changes, except the tail's conditioned head, whose
    /// validity the table records per machine as a window of event times.
    /// So while the membership epoch holds, the *changed* machines are
    /// exactly those whose version moved (completions, assignments, pruner
    /// drops, warm-set changes) plus the free machines whose recorded head
    /// window no longer contains `now` (an executing task crossed a PET
    /// impulse; an idle machine's `delta(now)` moved). Only they are
    /// rescored, rows whose bounds they loosened are resurrected, and the
    /// window diff is applied as removals plus appended rows.
    ///
    /// One kind of re-keyed machine is not *changed*: an idle one (empty
    /// queue, version unchanged) whose column holds no exact score. Its
    /// tail is `delta(now)`, so it is *re-timed* in place — its recorded
    /// earliest start becomes `now`, its cell is left alone until a pair
    /// on it clears its bound — and nothing else needs doing: a later
    /// earliest start only tightens the machine's pair bounds and its
    /// shard's aggregates, so every `None` in the column stays proven and
    /// no dead lane can revive. Resurrection rechecks a dead lane only in
    /// a shard whose aggregates *loosened* (an earlier earliest start, a
    /// type turned warm-capable), or for a row whose threshold dropped.
    ///
    /// `skip_below` may differ from the previous event's (adaptive trims,
    /// sufferage relief): each row remembers the threshold its skipped
    /// shards and unscored pairs were proven under, and a row whose
    /// threshold dropped has all of them rechecked — dead lanes against
    /// their shard bound, unscored pairs of live lanes against their
    /// machine's own. A raised threshold needs nothing — what is scored
    /// stays scored, and what a lower threshold rejected a higher one
    /// rejects too.
    ///
    /// Falls back to a rebuild — returning `false` — only when there is
    /// nothing to repair: the first build, a table of another membership
    /// epoch, or one [`ScoreTable::invalidate`]d. However many machines
    /// changed, the repair rescores only their columns. A rebuild fans
    /// out only from `REBUILD_FANOUT_MIN_CHANGED` changed machines up; the
    /// incremental path runs on the calling thread whatever the thread
    /// count — a pool round costs more than the columns it would share
    /// out. Returns `true` when the table was reused incrementally.
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
        let (moved, reusable) = self.find_changed(scorer, machines);
        if !reusable {
            self.rebuild_changed(scorer, machines, tasks, skip_below, moved);
            return false;
        }
        debug_assert_machine_alignment(machines);
        self.refresh_changed_bounds(scorer, machines);
        self.resurrect_lanes(&scorer.shared, skip_below);
        self.score_retested_lanes(scorer, machines);
        self.rescore_dirty_shards(scorer, machines);
        self.reconcile_window(scorer, machines, tasks, skip_below);
        self.settle_class_bests();
        self.work.table_reuses += 1;
        true
    }

    /// Ensure phase 1a: sorts the machines the clock or a version bump
    /// touched into changed ones and idle ones to re-time (no scorer work
    /// yet) — whenever the table has columns of this cluster to diff
    /// against, reusable or not: a rebuild sizes its fan-out by how many
    /// machines moved, re-timed ones included, since its warm-up re-keys
    /// them all. Returns that count (`usize::MAX` with nothing to diff
    /// against) and whether the table can be repaired incrementally: it
    /// has columns to diff against, was not invalidated, and is of the
    /// current membership epoch.
    fn find_changed(&mut self, scorer: &ProbScorer, machines: &[MachineState]) -> (usize, bool) {
        let shards = scorer.shared.shards;
        let now = scorer.now;
        let mut moved = usize::MAX;
        let mut reusable = false;
        if !self.stale
            && self.versions.len() == machines.len()
            && self.shard_earliest.len() == shards
            && self.shard_warm.len() == scorer.shared.warm_flags()
        {
            self.changed.clear();
            self.retimed.clear();
            for (m, machine) in machines.iter().enumerate() {
                if self.versions[m] != machine.version() {
                    self.changed.push(m);
                } else if machine.has_free_slot()
                    && !self.tail_bounds[m].is_some_and(|b| b.head_window.contains(now))
                {
                    if machine.occupancy() == 0 && self.col_scores[m] == 0 {
                        self.retimed.push(m);
                    } else {
                        self.changed.push(m);
                    }
                }
            }
            moved = self.changed.len() + self.retimed.len();
            reusable = self.epoch == scorer.membership_epoch;
        }
        (moved, reusable)
    }

    /// Ensure phase 1b: refreshes the changed machines' bound scalars,
    /// marking them in `changed_mask`, and re-times the idle ones to
    /// `delta(now)`'s bound; then recomputes the aggregates of the shards
    /// either kind touched (`dirty_shards`), recording which of them
    /// loosened (`loosened`).
    fn refresh_changed_bounds(&mut self, scorer: &mut ProbScorer, machines: &[MachineState]) {
        let (shards, now) = (scorer.shared.shards, scorer.now);
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
        let idle = TailBound { earliest: now, head_window: HeadWindow::idle(now) };
        for &m in &self.retimed {
            self.tail_bounds[m] = Some(idle);
            self.dirty_shards[m / TABLE_SHARD_WIDTH] = true;
        }
        self.loosened.clear();
        self.loosened.resize(shards, false);
        for s in 0..shards {
            if self.dirty_shards[s] {
                self.loosened[s] = self.recompute_shard_aggregates(&scorer.shared, machines, s);
            }
        }
    }

    /// Ensure phase 2: resurrection. A dead (class, shard) lane can have
    /// come alive two ways: a changed machine loosened its shard's bound
    /// (a completion or drop shortens a queue; a container or queued entry
    /// makes the shard warm-capable for the class's type), or the caller
    /// lowered the class's threshold (adaptive trims, sufferage relief).
    /// Rechecking the loosened shards of every class, and every shard of
    /// a class whose threshold dropped, restores exactly the liveness a
    /// fresh bound pass would compute: every other lane kept its threshold
    /// and a bound no higher than the one it was proven dead under (a
    /// queue grew, a machine filled, an idle machine was re-timed). Live
    /// lanes stay live, which at worst over-scores — see
    /// [`ScoreTable::ensure`]. The revived lanes land in `retest` — and so
    /// do the lanes that were already live for a class whose threshold
    /// dropped: the pairs their machines' own bounds rejected were proven
    /// under the old threshold only.
    fn resurrect_lanes(&mut self, shared: &ScorerShared, skip_below: &dyn Fn(TaskTypeId) -> f64) {
        let shards = shared.shards;
        let any_loosened = self.loosened.contains(&true);
        self.retest.clear();
        for row in 0..self.class_tasks.len() {
            if self.member_counts[row] == 0 {
                continue;
            }
            let task = self.class_tasks[row];
            let threshold = skip_below(task.type_id);
            let lowered = threshold < self.row_thresholds[row];
            self.row_thresholds[row] = threshold;
            if !(lowered || any_loosened) {
                continue;
            }
            for s in 0..shards {
                if !(lowered || self.loosened[s]) {
                    continue;
                }
                if self.shard_live[row][s] {
                    if lowered {
                        self.retest.push((row, s));
                    }
                } else if self.lane_clears(shared, &task, s, threshold) {
                    self.shard_live[row][s] = true;
                    self.retest.push((row, s));
                }
            }
        }
    }

    /// Ensure phase 3: tests the unscored pairs of the `retest` lanes on
    /// their shards' unchanged free machines and scores those that clear
    /// the class's current threshold — every pair of a resurrected lane,
    /// the bound-rejected ones of a lane whose class's threshold dropped.
    /// Phase 4 only folds *changed* members into a shard's best cache, so
    /// each lane's entry is settled here, dirty shard or not.
    fn score_retested_lanes(&mut self, scorer: &mut ProbScorer, machines: &[MachineState]) {
        let changed_mask = std::mem::take(&mut self.changed_mask);
        for i in 0..self.retest.len() {
            let (row, s) = self.retest[i];
            self.score_lane(scorer, machines, row, s, |m| changed_mask[m]);
        }
        self.changed_mask = changed_mask;
    }

    /// Ensure phase 4: per dirty shard, rescores its changed members'
    /// columns (classes live in the shard — including the just-resurrected
    /// ones) from one live-class list, then folds them into its best cache
    /// once, however many members changed. A shard dirty only through
    /// re-timed members has nothing to rescore: their columns hold no
    /// score.
    fn rescore_dirty_shards(&mut self, scorer: &mut ProbScorer, machines: &[MachineState]) {
        let mut members = std::mem::take(&mut self.shard_changed);
        for s in 0..scorer.shared.shards {
            if !self.dirty_shards[s] {
                continue;
            }
            members.clear();
            members.extend(shard_range(s, machines.len()).filter(|&m| self.changed_mask[m]));
            if members.is_empty() {
                continue;
            }
            self.collect_live_rows(s);
            for &m in &members {
                self.rescore_column(scorer, machines, m);
            }
            self.refresh_shard_best(s, &members);
        }
        self.shard_changed = members;
    }

    /// Ensure phase 5: reconciles the window. The new window is the old
    /// one minus departed tasks (assigned last event, expired this tick)
    /// plus a slid-in suffix; a two-pointer walk applies exactly that as
    /// removals and pushes. Any weirder diff degenerates to remove-all +
    /// push-all — slower, still exact.
    fn reconcile_window(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        let mut row = 0;
        for task in tasks {
            while row < self.rows() && self.window[row].id != task.id {
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
    }

    /// Recomputes shard `s`'s bound inputs over its free members (those
    /// with a recorded tail bound): the earliest start and, under a
    /// cold-start model, which types some member would place warm —
    /// leaving in `newly_warm` the types that just turned warm-capable.
    /// Returns whether the aggregates *loosened*: the earliest start moved
    /// earlier (or the shard regained a free member), or a type turned
    /// warm-capable. Aggregates that did not loosen bound every lane of
    /// the shard at most as high as before.
    fn recompute_shard_aggregates(
        &mut self,
        shared: &ScorerShared,
        machines: &[MachineState],
        s: usize,
    ) -> bool {
        let members = shard_range(s, self.tail_bounds.len());
        let earliest = self.tail_bounds[members.clone()].iter().flatten().map(|b| b.earliest).min();
        let earlier = earliest.is_some_and(|t| self.shard_earliest[s].is_none_or(|old| t < old));
        self.shard_earliest[s] = earliest;
        self.newly_warm.clear();
        if shared.cold_shard_cdfs.is_none() {
            return earlier;
        }
        let flags = &mut self.shard_warm[s * shared.task_types..(s + 1) * shared.task_types];
        self.newly_warm.extend_from_slice(flags);
        flags.fill(false);
        for m in members {
            if self.tail_bounds[m].is_some() {
                for tt in crate::chain::warm_append_types(&machines[m]) {
                    flags[tt.index()] = true;
                }
            }
        }
        for (flag, &now) in self.newly_warm.iter_mut().zip(flags.iter()) {
            *flag = now && !*flag;
        }
        earlier || self.newly_warm.contains(&true)
    }

    /// Whether the (class of `task`, shard `s`) lane survives the bound
    /// pass under `threshold`: the shard has a free member and its bound
    /// does not prove the task's robustness there below the threshold.
    fn lane_clears(&self, shared: &ScorerShared, task: &Task, s: usize, threshold: f64) -> bool {
        self.shard_earliest[s].is_some_and(|earliest| {
            let bound =
                shared.shard_bound(task.type_id, s, earliest, task.deadline, &self.shard_warm);
            bound + BOUND_MARGIN >= threshold
        })
    }

    /// Tests the unscored pairs of live lane (class slot `row`, shard `s`)
    /// on the shard's free machines — except those `rescored` names, whose
    /// whole columns the caller is about to rescore — against each
    /// machine's own bound under the class's threshold, scores the ones
    /// that clear it, and settles the lane's best-cache entry over what
    /// the columns now hold. A `rescored` member's column is stale here;
    /// the fold that follows its rescore rescans the lane if the stale
    /// cell won.
    fn score_lane(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        row: usize,
        s: usize,
        rescored: impl Fn(usize) -> bool,
    ) {
        let (task, threshold) = (self.class_tasks[row], self.row_thresholds[row]);
        for m in shard_range(s, machines.len()) {
            if rescored(m) || !machines[m].has_free_slot() || self.cols[m][row].is_some() {
                continue;
            }
            if let Some(score) = self.score_pair(scorer, &machines[m], &task, threshold) {
                self.store(row, m, score);
            }
        }
        let best = self.rescan_shard_best(s, row);
        self.set_shard_best(s, row, best);
    }

    /// [`shard_best_entry`] over the table's own columns, booking the
    /// cells it reads.
    fn rescan_shard_best(&mut self, s: usize, row: usize) -> Option<(usize, PairScore)> {
        self.work.best_rescans += shard_range(s, self.cols.len()).len() as u64;
        shard_best_entry(&self.cols, s, row)
    }

    /// Puts the exact score of (class slot `row`, machine `m`) in a cell
    /// that held none, keeping the column's count.
    fn store(&mut self, row: usize, m: usize, score: PairScore) {
        debug_assert!(self.cols[m][row].is_none(), "({row},{m}) already scored");
        self.cols[m][row] = Some(score);
        self.col_scores[m] += 1;
    }

    /// One pair on a free machine, behind the machine's own bound at its
    /// *recorded* earliest start (no cell access unless it clears), then
    /// walked under the class's threshold. Every free machine has one on
    /// record: a slot only opens under a version bump, which makes the
    /// machine *changed* and refreshes its bound before any pair on it is
    /// tested.
    fn score_pair(
        &mut self,
        scorer: &mut ProbScorer,
        machine: &MachineState,
        task: &Task,
        threshold: f64,
    ) -> Option<PairScore> {
        let recorded = self.tail_bounds[machine.id().index()];
        let earliest = recorded.expect("a free machine has a recorded tail bound").earliest;
        if !scorer.shared.pair_clears(machine, task, earliest, threshold) {
            self.count_pairs(1, PairWork::default());
            return None;
        }
        let score = scorer.score_unless_below(machine, task, threshold);
        self.count_pairs(1, PairWork::of(score));
        score
    }

    /// Fills `self.live` with the classes live in shard `s`, each with
    /// the threshold it is currently held to.
    fn collect_live_rows(&mut self, s: usize) {
        self.live.clear();
        for row in 0..self.class_tasks.len() {
            if self.member_counts[row] > 0 && self.shard_live[row][s] {
                let (task, threshold) = (self.class_tasks[row], self.row_thresholds[row]);
                self.live.push(LiveRow { row, task, threshold });
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

    /// Rescores machine `m`'s column for the classes live in its shard —
    /// `self.live`, which the caller filled via
    /// [`ScoreTable::collect_live_rows`], each pair behind the machine's
    /// own bound — or clears it when the machine has no free slot. Bound
    /// scalars and shard aggregates are the caller's responsibility.
    fn rescore_column(&mut self, scorer: &mut ProbScorer, machines: &[MachineState], m: usize) {
        let machine = &machines[m];
        let col = &mut self.cols[m];
        col.clear();
        col.resize(self.class_tasks.len(), None);
        self.col_scores[m] = 0;
        if !machine.has_free_slot() {
            return;
        }
        let live = &self.live;
        let ProbScorer { shared, now, cells, .. } = scorer;
        let work = cells.with(m, |cell| {
            cell.ensure(shared, *now, machine, false);
            let MachineCache { cache, cutoffs, .. } = cell;
            score_column_scatter(cache.tail(), shared, machine, live, cutoffs, col)
        });
        self.col_scores[m] = work.scored;
        self.count_pairs(self.live.len(), work);
        self.work.column_abandoned += work.abandoned as u64;
    }

    /// Repairs the table after the caller committed window row `row` to
    /// machine `m` (`machines` already shows the longer queue): drops the
    /// assigned row, appends the batch tasks that slid into `window` — the
    /// window as it stands *after* the assignment, i.e. the surviving rows
    /// in order plus the slid-in suffix — and rescores `m`'s column. The
    /// order is the contract: the appended rows are bound-checked against
    /// shard flags that predate the assignment, and it is the closing
    /// column refresh that rechecks the lanes the assignment may have
    /// warmed, theirs included (see `push_row`). `skip_below` must be the
    /// thresholds of the `ensure` that opened the event.
    pub fn apply_assignment(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        window: &[Task],
        row: usize,
        m: usize,
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        self.remove_row(row);
        while self.rows() < window.len() {
            self.push_row(scorer, machines, &window[self.rows()], skip_below);
        }
        self.refresh_machine(scorer, machines, window, m);
        self.settle_class_bests();
    }

    /// Drops the row at window position `row` (its task was assigned or
    /// left the batch). A member that leaves a class of several only
    /// leaves its count — a head hands its bit to the next member's
    /// position; the last member frees the class's slot: one cell per
    /// column, one best per shard and the class best are cleared, nothing
    /// shifts.
    fn remove_row(&mut self, row: usize) {
        let slot = self.order.remove(row);
        let task = self.window.remove(row);
        let head = self.heads.remove(row);
        self.member_counts[slot] -= 1;
        if self.member_counts[slot] > 0 {
            if head {
                // Every other member sits after the head it follows.
                let next = self.order[row..].iter().position(|&o| o == slot);
                self.heads[row + next.expect("a live class has a member")] = true;
            }
            return;
        }
        self.classes.remove(&class_key(&task));
        for (col, count) in self.cols.iter_mut().zip(&mut self.col_scores) {
            if col[slot].take().is_some() {
                *count -= 1;
            }
        }
        for bests in &mut self.shard_best {
            bests[slot] = None;
        }
        self.class_best[slot] = None;
        self.free_slots.push(slot);
    }

    /// Appends a row for `task` (a batch task that slid into the window).
    /// A task of a live class joins it: the class is already scored under
    /// this event's thresholds and machines, so there is nothing to do.
    /// Any other opens a class, shard-bound-checked against the cached
    /// earliest starts, then scored on the free machines of its surviving
    /// shards whose own recorded bound it clears.
    ///
    /// The cached shard aggregates, and the per-machine earliest starts
    /// under them, can be stale only for a machine assigned to since its
    /// last refresh. Its queue *grew*, so the stale earliest start is only
    /// ever looser than the live one — still a valid bound, for the shard
    /// and for the machine's own pairs alike (and that machine's column is
    /// rescored from its live tail when the assignment closes). The stale
    /// warm-capable flags are the one thing that can err the other way —
    /// the assignment may just have made the shard warm-capable for the
    /// assigned type — and the `refresh_machine` with which
    /// [`ScoreTable::apply_assignment`] closes every assignment rechecks
    /// exactly those lanes, this class's included (the other caller,
    /// [`ScoreTable::ensure`], pushes only after refreshing every changed
    /// shard). With that, liveness is a superset of a fresh bound pass,
    /// never a subset, and the extra entries are exact scores below the
    /// threshold (deferred either way).
    fn push_row(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        task: &Task,
        skip_below: &dyn Fn(TaskTypeId) -> f64,
    ) {
        if let Some(&slot) = self.classes.get(&class_key(task)) {
            debug_assert_eq!(
                skip_below(task.type_id).to_bits(),
                self.row_thresholds[slot].to_bits(),
                "a class joined under another threshold than it was scored under"
            );
            self.append_member(slot, task);
            self.work.rows_shared += 1;
            return;
        }
        let shards = self.shard_earliest.len();
        let threshold = skip_below(task.type_id);
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                for col in &mut self.cols {
                    col.push(None);
                }
                for bests in &mut self.shard_best {
                    bests.push(None);
                }
                self.class_best.push(None);
                self.best_marked.push(false);
                self.shard_live.push(Vec::new());
                self.row_thresholds.push(threshold);
                self.member_counts.push(0);
                self.class_tasks.push(*task);
                self.class_tasks.len() - 1
            }
        };
        self.append_member(slot, task);
        self.classes.insert(class_key(task), slot);
        self.class_tasks[slot] = *task;
        self.row_thresholds[slot] = threshold;
        let mut lanes = std::mem::take(&mut self.shard_live[slot]);
        lanes.clear();
        lanes.extend((0..shards).map(|s| self.lane_clears(&scorer.shared, task, s, threshold)));
        // The slot starts out empty, so folding each score into its
        // shard's best in ascending machine order is the first-wins scan.
        for (m, machine) in machines.iter().enumerate() {
            let s = m / TABLE_SHARD_WIDTH;
            if !lanes[s] || !machine.has_free_slot() {
                continue;
            }
            let Some(score) = self.score_pair(scorer, machine, task, threshold) else { continue };
            self.store(slot, m, score);
            let best = &mut self.shard_best[s][slot];
            if best.as_ref().is_none_or(|(_, b)| better_pair(&score, b)) {
                *best = Some((m, score));
                self.mark(slot);
            }
        }
        self.shard_live[slot] = lanes;
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
    /// the shard's other free members before `m`'s column is rebuilt and
    /// folded into the shard's best cache — what [`ScoreTable::ensure`]
    /// does across events, for one shard.
    fn refresh_machine(
        &mut self,
        scorer: &mut ProbScorer,
        machines: &[MachineState],
        tasks: &[Task],
        m: usize,
    ) {
        debug_assert_eq!(tasks.len(), self.rows(), "window drifted from table");
        debug_assert!(
            tasks.iter().zip(&self.window).all(|(a, b)| a.id == b.id),
            "window drifted from table rows"
        );
        let s = m / TABLE_SHARD_WIDTH;
        self.refresh_bound(scorer, machines, m);
        // The classic model keeps no flags, and leaves `newly_warm` empty.
        self.recompute_shard_aggregates(&scorer.shared, machines, s);
        if self.newly_warm.contains(&true) {
            for row in 0..self.class_tasks.len() {
                let task = self.class_tasks[row];
                if self.member_counts[row] > 0
                    && self.newly_warm[task.type_id.index()]
                    && !self.shard_live[row][s]
                    && self.lane_clears(&scorer.shared, &task, s, self.row_thresholds[row])
                {
                    self.shard_live[row][s] = true;
                    self.score_lane(scorer, machines, row, s, |other| other == m);
                }
            }
        }
        // The bound refresh warmed the cell, so the rescore's chain probe
        // is a cache hit.
        self.collect_live_rows(s);
        self.rescore_column(scorer, machines, m);
        self.refresh_shard_best(s, &[m]);
    }

    /// Brings shard `s`'s cached best candidates up to date after the
    /// columns of its `changed` members — and only those — were rescored,
    /// for every class live in it. A class whose cached winner sits on an
    /// unchanged machine keeps it and *folds* the changed members' new
    /// cells in: the winner already beat every other unchanged member, so
    /// only a changed one can displace it. First-wins is the maximum of
    /// (robustness, −expected completion, −machine index), so among equals
    /// the lower index takes it, exactly as [`shard_best_entry`]'s
    /// ascending scan would have it. Only a class whose cached winner
    /// *was* a changed machine has lost what it was compared against, and
    /// rescans the shard's columns.
    fn refresh_shard_best(&mut self, s: usize, changed: &[usize]) {
        for row in 0..self.class_tasks.len() {
            if self.member_counts[row] == 0 || !self.shard_live[row][s] {
                continue;
            }
            let mut best = self.shard_best[s][row];
            if best.is_some_and(|(winner, _)| changed.contains(&winner)) {
                best = self.rescan_shard_best(s, row);
            } else {
                for &m in changed {
                    let Some(score) = self.cols[m][row] else { continue };
                    let wins = best.as_ref().is_none_or(|(winner, b)| {
                        better_pair(&score, b) || (m < *winner && !better_pair(b, &score))
                    });
                    if wins {
                        best = Some((m, score));
                    }
                }
            }
            self.set_shard_best(s, row, best);
        }
    }

    /// The score of window task `row` on machine `m`, if it was scored.
    #[must_use]
    pub fn get(&self, row: usize, m: usize) -> Option<PairScore> {
        self.cols[m][self.order[row]]
    }

    /// Phase 1 for one window task: the machine offering the highest
    /// robustness among machines with free slots (tie → lower expected
    /// completion) — the same comparisons and effective scan order the
    /// sequential heuristics used. It is the row's class best, one read:
    /// the first-wins fold of the per-shard best caches over contiguous
    /// ascending index ranges returns exactly the flat scan's winner, and
    /// no cached best sits on a full machine (see [`ScoreTable`]).
    #[must_use]
    pub fn best_for_row(
        &self,
        machines: &[MachineState],
        row: usize,
    ) -> Option<(MachineId, PairScore)> {
        let best = self.class_best[self.order[row]];
        debug_assert!(
            best.is_none_or(|(m, _)| machines[m].has_free_slot()),
            "a class best on a full machine"
        );
        best.map(|(m, score)| (MachineId::from(m), score))
    }
}
