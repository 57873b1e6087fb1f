//! The closed-form scoring kernels: robustness and expected completion of
//! appending a task behind a machine tail, computed from the tail and a
//! prefix CDF of the PET cell without materializing the convolution — per
//! pair, four lanes at a time for a table column, and as a one-lookup
//! upper bound — per shard lane for the bound pass, per (row, machine)
//! pair in front of every exact table score.

use super::shared::{PetCdf, ScorerShared};
use hcsim_model::{Task, Time};
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

/// Slop added to the robustness upper bound before comparing it against a
/// skip threshold. The analytic bound `Σ p_u · cdf(δ−u) ≤ cdf(δ−u_min)`
/// can be violated by float rounding only by ~`n·ulp` (≤ 1e-13 for any
/// realistic tail) plus the tail's normalization epsilon (1e-9), so a
/// 1e-8 margin makes the skip decision *provably* agree with the exact
/// comparison.
pub(super) const BOUND_MARGIN: f64 = 1e-8;

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

/// Effective scoring deadline on one machine: a task on a machine with an
/// announced departure cannot be counted on past the departure instant —
/// a drain stops the queue, a fail requeues it — so its robustness is
/// computed against `min(δ, departs_at)`. Machines without an
/// announcement score against the plain deadline. The per-shard bound
/// pass keeps the unclamped deadline: clamping only *lowers* robustness,
/// so the unclamped bound stays a valid upper bound. The per-pair bound
/// knows its machine and takes the clamped one.
#[inline]
pub(super) fn effective_deadline(deadline: Time, cap: Option<Time>) -> Time {
    match cap {
        Some(departs_at) => deadline.min(departs_at),
        None => deadline,
    }
}

/// Fills one machine column of a [`super::ScoreTable`] for the `live`
/// rows of its shard, every task scored against the same tail — after one
/// CDF lookup per pair: the shard envelope let the lane through, but the
/// machine's own cell at its own earliest start
/// ([`ScorerShared::pair_clears`], the very cell and deadline the kernel
/// would score with) proves most pairs under their row's threshold, and
/// those stay `None` without the walk. Returns how many pairs were scored.
///
/// The survivors are processed four at a time — one shared walk over the
/// tail drives four independent accumulator lanes (distinct tasks →
/// distinct accumulators and CDF cursors), which gives the superscalar
/// core four dependency chains instead of one. Each lane performs exactly
/// the per-task walk of [`score_against`] (same impulse order, same CDF
/// values, same float operations), so the column is bit-identical to
/// per-pair scoring; the remainder lanes literally call it. The machine's
/// announced departure caps each deadline (see [`effective_deadline`]),
/// and under a cold-start model each task's CDF is selected warm-or-cold
/// from the machine's warm-container set via [`ScorerShared::cdf_for`].
pub(super) fn score_column_scatter(
    tail: &Pmf,
    shared: &ScorerShared,
    machine: &MachineState,
    live: &[LiveRow],
    col: &mut [Option<PairScore>],
) -> usize {
    let earliest = tail.min_time();
    let cap = machine.announced_departure();
    let mut survivors =
        live.iter().filter(|l| shared.pair_clears(machine, &l.task, earliest, l.threshold));
    let mut scored = 0;
    loop {
        let quad: [Option<&LiveRow>; 4] = std::array::from_fn(|_| survivors.next());
        if let [Some(a), Some(b), Some(c), Some(d)] = quad {
            let scores = score_quad(tail, shared, machine, &[a.task, b.task, c.task, d.task]);
            for (entry, score) in [a, b, c, d].into_iter().zip(scores) {
                col[entry.row] = Some(score);
            }
            scored += 4;
            continue;
        }
        // A short quad is the column's remainder.
        for entry in quad.into_iter().flatten() {
            col[entry.row] = Some(score_against(
                tail,
                shared.cdf_for(entry.task.type_id, machine),
                effective_deadline(entry.task.deadline, cap),
                shared.policy,
            ));
            scored += 1;
        }
        return scored;
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
pub(super) fn score_against(
    tail: &Pmf,
    cdf: &PetCdf,
    deadline: Time,
    policy: DropPolicy,
) -> PairScore {
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
