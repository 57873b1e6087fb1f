//! The closed-form scoring kernels: robustness and expected completion of
//! appending a task behind a machine tail, computed from the tail and a
//! prefix CDF of the PET cell without materializing the convolution — per
//! pair, and as a one-lookup upper bound — per shard lane for the bound
//! pass, per (row, machine) pair in front of every exact table score.
//!
//! A table pair is held to its row's skip threshold, and the kernels take
//! it: a walk stops as soon as the impulses left cannot lift the
//! robustness to the threshold, and the pair stays unscored — a walk that
//! finishes returns the bit-identical exact score. In a column rescore
//! the per-pair bound itself shrinks to one integer compare: per (column,
//! task type), the threshold resolves once into the smallest deadline
//! whose first-impulse bound clears it ([`deadline_cutoff`]). A type that
//! had a walk abandoned in the column also resolves a second, tail-wide
//! cutoff ([`tail_cutoff`]) from the stop test at every impulse, and its
//! later rows below that cutoff are proven below the threshold without a
//! walk. Both live in one per-cell entry per type ([`Cutoffs`]).

use super::shared::{PetCdf, ScorerShared};
use hcsim_model::{Task, TaskTypeId, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::MachineState;

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

/// One `(row, task)` pair live in a shard, with the skip threshold the row
/// is held to: all a column needs to decide, pair by pair, whether the
/// exact walk is worth running — so pool workers need nothing else.
/// `row` is the table's row *slot*, the index into a column.
#[derive(Debug, Clone, Copy)]
pub(super) struct LiveRow {
    pub(super) row: usize,
    pub(super) task: Task,
    pub(super) threshold: f64,
}

/// Slop added to a robustness upper bound before comparing it against a
/// skip threshold. The analytic bounds — `Σ p_u · cdf(δ−u) ≤
/// cdf(δ−u_min)` for a whole tail, and the stopping rule of
/// [`score_unless_below`] for the rest of one — can be violated by float
/// rounding only by ~`n·ulp` (≤ 1e-13 for any realistic tail) plus the
/// tail's normalization epsilon ([`hcsim_pmf::MASS_EPSILON`]; every walk
/// debug-asserts it), so a 1e-8 margin makes each skip decision
/// *provably* agree with the exact comparison.
pub(super) const BOUND_MARGIN: f64 = 1e-8;

const _: () = assert!(BOUND_MARGIN > hcsim_pmf::MASS_EPSILON);

/// Whether a walk that has gathered `robustness` from `mass` of the tail
/// can stop before the impulse whose on-time chance `CDF_E(δ − t)` is
/// `on_time`: every impulse left starts no sooner, so each scores at most
/// `on_time`, and together they carry at most `1 − mass` (plus the
/// normalization epsilon `BOUND_MARGIN` covers). `mass` must not include
/// the impulse itself.
#[inline]
fn ends_below(robustness: f64, mass: f64, on_time: f64, threshold: f64) -> bool {
    robustness + (1.0 - mass) * on_time + BOUND_MARGIN < threshold
}

/// Upper bound on the Eq. 1 robustness of appending a task with deadline
/// `deadline` behind a tail whose earliest impulse is `earliest`: every
/// startable impulse leaves at most `δ − earliest` slack, and the tail
/// carries at most unit mass, so `Σ p_u · CDF_E(δ−u) ≤ CDF_E(δ − u_min)`.
/// One CDF lookup — the [`super::ScoreTable`] runs this against a shard
/// envelope per (row, shard) lane, then against the machine's own cell
/// per (row, machine) pair, in place of the full scoring walk.
pub(super) fn robustness_bound(earliest: Time, cdf: &PetCdf, deadline: Time) -> f64 {
    if earliest >= deadline {
        0.0
    } else {
        cdf.cdf_at(deadline - earliest)
    }
}

/// The per-pair bound of [`ScorerShared::pair_clears`] resolved, for one
/// cell, one earliest start and one threshold, into a deadline cutoff: a
/// pair clears iff its deadline is at least the cutoff (`None`:
/// no deadline clears). The bound `CDF(δ − earliest)` only grows with δ,
/// so the cutoff is `earliest` plus the first breakpoint whose prefix
/// clears — and at least one tick past `earliest`, where the bound stops
/// being 0. A threshold that a zero bound clears cuts off at 0. It is the
/// first impulse's term of [`tail_cutoff`].
pub(super) fn deadline_cutoff(earliest: Time, cdf: &PetCdf, threshold: f64) -> Option<Time> {
    let clears = |bound: f64| bound + BOUND_MARGIN >= threshold;
    if clears(0.0) {
        return Some(0);
    }
    let first = cdf.prefix.partition_point(|&p| !clears(p));
    cdf.times.get(first).and_then(|&t| earliest.checked_add(t.max(1)))
}

/// The deadline cutoff of the whole tail: below it, the stop test of
/// [`score_unless_below`] proves a pair under `threshold` at some impulse
/// (`None`: at every deadline). Impulse `k` at `t_k`, with mass `M_k`
/// ahead of it, bounds the robustness of every deadline δ by
/// `M_k + (1 − M_k) · CDF_E(δ − t_k)` — the impulses ahead score at most
/// their mass, those from `k` on at most `CDF_E(δ − t_k)` each — and by
/// `M_k` alone while `δ ≤ t_k`. Both only grow with δ, so impulse `k` cuts
/// off at `t_k` plus the first breakpoint where its bound clears, and at
/// least one tick past `t_k`; the cutoff is the largest over `k`. `M_k`
/// grows with `k`, so the breakpoint a cursor finds only moves left, and
/// one pass over the tail and the cell finds all of them; it ends at the
/// first impulse whose `M_k` clears on its own. The `k = 0` term is
/// [`deadline_cutoff`], so this cutoff is never below it.
///
/// Each bound is the stop test's expression with `M_k` summed in the
/// walk's order — bit for bit the walk's `mass` — in place of the walk's
/// robustness, which never exceeds it: a pair this proves below its
/// threshold past `t_k` is one whose walk stops at impulse `k` at the
/// latest, and one at `δ ≤ t_k` has an exact robustness of at most `M_k`.
pub(super) fn tail_cutoff(tail: &Pmf, cdf: &PetCdf, threshold: f64) -> Option<Time> {
    let clears = |ahead: f64, on_time: f64| !ends_below(ahead, ahead, on_time, threshold);
    let mut first = cdf.prefix.len();
    let mut ahead = 0.0;
    let mut cutoff = 0;
    for (&t, &p) in tail.times().iter().zip(tail.masses()) {
        if clears(ahead, 0.0) {
            break;
        }
        while first > 0 && clears(ahead, cdf.prefix[first - 1]) {
            first -= 1;
        }
        cutoff = cutoff.max(t.checked_add((*cdf.times.get(first)?).max(1))?);
        ahead += p;
    }
    Some(cutoff)
}

/// The tail-wide cutoff of one [`Cutoffs`] entry.
#[derive(Debug, Clone, Copy)]
enum TailCutoff {
    /// No walk of the type was abandoned in the column yet.
    Unarmed,
    /// One was: the type's next row that clears the first-impulse cutoff
    /// resolves it.
    Armed,
    /// Resolved ([`tail_cutoff`]).
    Resolved(Option<Time>),
}

/// One type's cutoffs in the column being filled.
#[derive(Debug, Clone, Copy)]
struct CutoffEntry {
    /// The column and threshold bits the entry was resolved for.
    column: u64,
    threshold: u64,
    /// [`deadline_cutoff`], resolved on the type's first live row.
    first: Option<Time>,
    tail: TailCutoff,
}

/// Per-task-type deadline cutoffs for the column being filled: the
/// first-impulse one ([`deadline_cutoff`]), resolved on a type's first
/// live row and reused by every later row of that type held to the same
/// threshold, and the tail-wide one ([`tail_cutoff`]), resolved only once
/// a walk of the type was abandoned in the column — resolving it for
/// every type up front costs more than the walks it saves where few are
/// abandoned. Entries are stamped with the column they were resolved for,
/// so starting a column costs one increment — not a reset of every type —
/// and the storage is the cell's, reused from column to column.
#[derive(Debug, Default)]
pub(super) struct Cutoffs {
    /// Columns started so far; an entry with an older stamp is stale.
    column: u64,
    /// Per task type.
    entries: Vec<CutoffEntry>,
}

impl Cutoffs {
    /// Starts a column over `task_types` types: every entry goes stale.
    fn begin_column(&mut self, task_types: usize) {
        self.column += 1;
        if self.entries.len() < task_types {
            let stale =
                CutoffEntry { column: 0, threshold: 0, first: None, tail: TailCutoff::Unarmed };
            self.entries.resize(task_types, stale);
        }
    }

    /// Whether `row`'s deadline clears its type's cutoffs under its
    /// threshold in the current column, resolving `first` on the type's
    /// first row and `tail` on its first row after [`Cutoffs::arm`]; a
    /// row the tail cutoff rejects, and a tail cutoff resolved, are
    /// booked in `work`.
    #[inline]
    fn admits(
        &mut self,
        row: &LiveRow,
        first: impl FnOnce() -> Option<Time>,
        tail: impl FnOnce() -> Option<Time>,
        work: &mut PairWork,
    ) -> bool {
        let entry = &mut self.entries[row.task.type_id.index()];
        let (column, threshold) = (self.column, row.threshold.to_bits());
        if (entry.column, entry.threshold) != (column, threshold) {
            *entry = CutoffEntry { column, threshold, first: first(), tail: TailCutoff::Unarmed };
        }
        // A `None` cutoff is one no deadline clears.
        let clears = |cutoff: Option<Time>| cutoff.is_some_and(|c| row.task.deadline >= c);
        if !clears(entry.first) {
            return false;
        }
        if let TailCutoff::Armed = entry.tail {
            entry.tail = TailCutoff::Resolved(tail());
            work.resolved += 1;
        }
        if let TailCutoff::Resolved(cutoff) = entry.tail {
            if !clears(cutoff) {
                work.cut += 1;
                return false;
            }
        }
        true
    }

    /// Records that a walk of type `tt` was abandoned in the current
    /// column: its tail-wide cutoff is worth resolving.
    #[inline]
    fn arm(&mut self, tt: TaskTypeId) {
        let entry = &mut self.entries[tt.index()];
        if let TailCutoff::Unarmed = entry.tail {
            entry.tail = TailCutoff::Armed;
        }
    }
}

/// What the kernels did with the pairs handed to them: exact scores
/// written, walks stopped below the pair's threshold, pairs the tail-wide
/// cutoff rejected and tail cutoffs resolved (the rest of a column's live
/// rows the first-impulse cutoff rejected).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(super) struct PairWork {
    pub(super) scored: usize,
    pub(super) abandoned: usize,
    pub(super) cut: usize,
    pub(super) resolved: usize,
}

impl std::ops::AddAssign for PairWork {
    fn add_assign(&mut self, other: Self) {
        self.scored += other.scored;
        self.abandoned += other.abandoned;
        self.cut += other.cut;
        self.resolved += other.resolved;
    }
}

impl PairWork {
    /// The work of one walk that ended in `score`.
    pub(super) fn of(score: Option<PairScore>) -> Self {
        Self {
            scored: usize::from(score.is_some()),
            abandoned: usize::from(score.is_none()),
            ..Self::default()
        }
    }
}

/// Fills one machine column of a [`super::ScoreTable`] for the `live`
/// rows of its shard, every task scored against the same tail, each held
/// to its row's threshold — after one integer compare per pair: the shard
/// envelope let the lane through, but the machine's own cell at its own
/// earliest start ([`ScorerShared::pair_clears`], the very cell and
/// deadline the kernel would score with) proves most pairs under their
/// row's threshold, and those stay `None` without the walk. That bound is
/// resolved once per task type into a deadline cutoff ([`Cutoffs`], in the
/// machine's cell), against which each row compares its deadline. Of the
/// pairs that clear it, those whose walk ([`score_unless_below`]) stops
/// below the threshold stay `None` too — and once a type had one, its
/// later rows are held to the tail-wide cutoff as well ([`tail_cutoff`]):
/// those below it stay `None` without the walk that would only have
/// stopped. A row's `None` is the same either way; only the work differs.
/// Under a cold-start model each task's CDF is selected warm-or-cold from
/// the machine's warm-container set via [`ScorerShared::cdf_for`].
pub(super) fn score_column_scatter(
    tail: &Pmf,
    shared: &ScorerShared,
    machine: &MachineState,
    live: &[LiveRow],
    cutoffs: &mut Cutoffs,
    col: &mut [Option<PairScore>],
) -> PairWork {
    let earliest = tail.min_time();
    cutoffs.begin_column(shared.task_types);
    let mut work = PairWork::default();
    for entry in live {
        let cdf = || shared.cdf_for(entry.task.type_id, machine);
        let admitted = cutoffs.admits(
            entry,
            || deadline_cutoff(earliest, cdf(), entry.threshold),
            || tail_cutoff(tail, cdf(), entry.threshold),
            &mut work,
        );
        if !admitted {
            continue;
        }
        let score =
            score_unless_below(tail, cdf(), entry.task.deadline, shared.policy, entry.threshold);
        col[entry.row] = score;
        work += PairWork::of(score);
        // An abandoned walk arms its type's tail cutoff for the rest of
        // the column.
        if score.is_none() {
            cutoffs.arm(entry.task.type_id);
        }
    }
    work
}

/// The per-pair closed-form scoring kernel, held to `threshold`: the
/// exact score, or `None` once the walk proves the exact robustness
/// strictly below the threshold. Before adding each startable impulse the
/// walk tests whether what it has gathered plus the most the rest of the
/// tail could add stays under the threshold (`ends_below`); that test
/// reads the CDF value the walk reads anyway, and never changes the sum,
/// so a walk that finishes returns the bit-identical exact score.
///
/// Hot enough that it is specialized by policy: under the dropping
/// scenarios (B/C) the full-availability accumulators are dead weight
/// (only the startable prefix matters), impulses at or past the deadline
/// contribute nothing (sorted times → early break), and a task that can
/// never start — `tail.min_time() >= δ`, the common case for the hopeless
/// tasks that pile up in an oversubscribed batch — short-circuits to the
/// exact values the full walk would produce. All three specializations are
/// bit-identical to the naive loop: the robustness sum visits the same
/// impulses in the same order with the same CDF values.
pub(super) fn score_unless_below(
    tail: &Pmf,
    cdf: &PetCdf,
    deadline: Time,
    policy: DropPolicy,
    threshold: f64,
) -> Option<PairScore> {
    debug_assert!(tail.is_normalized(), "a walked tail carries unit mass");
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
                if t < deadline {
                    let on_time = cursor.at_descending(deadline - t);
                    if ends_below(robustness, full_mass, on_time, threshold) {
                        return None;
                    }
                    robustness += p * on_time;
                }
                full_mass += p;
                full_weighted_start += t as f64 * p;
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
                let on_time = cursor.at_descending(deadline - t);
                if ends_below(robustness, startable_mass, on_time, threshold) {
                    return None;
                }
                robustness += p * on_time;
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
    Some(PairScore { robustness: robustness.min(1.0), expected_completion, mean_exec: cdf.mean })
}
