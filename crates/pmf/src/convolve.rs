//! Completion-time convolution under the paper's three dropping scenarios.
//!
//! §IV: given the availability PMF of a machine queue position (`PCT(i−1)`,
//! when the machine becomes free for task *i*) and the execution-time PMF
//! `PET(i)`, the completion time `PCT(i)` of task *i* is:
//!
//! * **Eq. 2** — [`DropPolicy::None`]: plain convolution; every mapped task
//!   runs to completion.
//! * **Eq. 3–4** — [`DropPolicy::PendingOnly`]: starts at or after the
//!   deadline δᵢ are impossible (the pending task is dropped once its
//!   deadline passes), so impulses of `PCT(i−1)` at `t >= δᵢ` are excluded
//!   from the convolution and added back verbatim as *carry-over*: the
//!   machine frees up when task i−1 finishes and task i vanishes.
//! * **Eq. 5** — [`DropPolicy::All`]: additionally, a task still executing
//!   at δᵢ is evicted, so all of task i's own completion mass after δᵢ is
//!   aggregated onto the impulse at δᵢ (the machine is guaranteed free by
//!   then); carry-over mass is unaffected.
//!
//! A task's **robustness** (Eq. 1) is the probability it completes by its
//! deadline: the CDF of its *own* completion mass at δᵢ — carry-over mass
//! (the machine freeing up because the task was dropped) never counts as
//! success. [`queue_step`] returns both quantities separately so callers
//! cannot conflate them.
//!
//! # Allocation discipline
//!
//! The mapping loop performs one queue step per (task, machine)
//! evaluation, so nothing here allocates in steady state. Two kinds of
//! storage serve that:
//!
//! * **Per thread**: the transient buffers of a convolution — the pair
//!   buffer and radix-sort scatter buffer of the sorting path, the dense
//!   accumulator and its offset table — plus a free-list of *wide*
//!   storage for the chain kernel's uncompacted intermediates. One set
//!   serves every convolution a thread runs, so a cluster's machine cells
//!   do not each keep their own. The dense accumulator grows to the
//!   widest range its thread has convolved, not to its ceiling up front.
//! * **Per caller**: a [`ConvScratch`] is a free-list of retired [`Pmf`]
//!   storage. Output PMFs draw their columns from it, and callers hand
//!   finished PMFs back via [`ConvScratch::recycle`].
//!
//! Pooled storage grows to exactly what a PMF built in it needs, never
//! by doubling. A queue chain extends with [`chain_step_into`], which
//! returns the availability already compacted to the impulse budget in
//! the caller's storage, sized for at most twice the budget; anything
//! wider is built in the thread's own free-list and copied out
//! compacted. So a cached chain link never keeps the capacity of the
//! uncompacted availability it came from.

use crate::compact::{merge_sorted_columns, GroupWalk};
use crate::pmf::{merge_add, merge_sorted_pairs, Impulse, Moments, Pmf};
use crate::Time;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Which tasks may be dropped when their deadline passes (§IV scenarios
/// A/B/C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DropPolicy {
    /// Scenario A: no dropping; all mapped tasks execute to completion.
    None,
    /// Scenario B: pending (not yet executing) tasks are dropped at their
    /// deadline.
    PendingOnly,
    /// Scenario C: any task, including the executing one, is dropped
    /// (evicted) at its deadline. This is the mode the paper's pruning
    /// mechanism operates in.
    #[default]
    All,
}

/// A free-list of retired PMF storage, keeping the hot mapping loop
/// allocation-free including its outputs. The convolution's own working
/// buffers are per thread (see the module docs), so a scratch holds
/// nothing but storage to hand out.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// Retired PMF storage, reused for outputs.
    pool: Vec<(Vec<Time>, Vec<f64>)>,
}

/// Rebased time-range ceiling for the dense-accumulator convolution path.
const DENSE_RANGE: u64 = 2048;

impl ConvScratch {
    /// Creates an empty scratch buffer.
    #[must_use]
    pub const fn new() -> Self {
        Self { pool: Vec::new() }
    }

    /// Returns a finished PMF's storage to the pool for reuse by later
    /// outputs. Dropping a PMF instead of recycling it is always correct —
    /// the pool is purely an allocation saver.
    pub fn recycle(&mut self, pmf: Pmf) {
        if self.pool.len() < 64 {
            self.pool.push(pmf.into_parts());
        }
    }

    /// Number of pooled storage pairs currently available (observability
    /// for tests).
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// [`Pmf::delta`] with its storage drawn from the pool — the idle
    /// machine's "available now" head, rebuilt on every machine at every
    /// tick of an idle-heavy cluster (recycle it like any pooled output).
    #[must_use]
    pub fn delta(&mut self, t: Time) -> Pmf {
        self.pmf_from_slices(&[t], &[1.0])
    }

    /// Takes storage from the pool (or allocates) with both columns empty
    /// and room for `n` impulses, grown to exactly that if it is smaller:
    /// pooled storage is then never larger than the most a PMF built in
    /// it was sized for.
    pub(crate) fn take_storage(&mut self, n: usize) -> (Vec<Time>, Vec<f64>) {
        let (mut times, mut masses) = self.pool.pop().unwrap_or_default();
        times.clear();
        masses.clear();
        times.reserve_exact(n);
        masses.reserve_exact(n);
        (times, masses)
    }

    /// Builds a pooled PMF copying the given columns.
    fn pmf_from_slices(&mut self, src_times: &[Time], src_masses: &[f64]) -> Pmf {
        let (mut times, mut masses) = self.take_storage(src_times.len());
        times.extend_from_slice(src_times);
        masses.extend_from_slice(src_masses);
        Pmf::from_parts_unchecked(times, masses)
    }
}

/// A thread's transient convolution buffers (see the module docs).
#[derive(Debug)]
struct Workspace {
    /// Convolution pairing buffer (sorted then merged in place).
    pairs: Vec<Impulse>,
    /// Auxiliary buffer for the radix sort's stable scatter passes.
    radix: Vec<Impulse>,
    /// Dense accumulator for narrow-range convolutions: mass per rebased
    /// time slot. Each call zero-fills `acc[..width]` and adds every
    /// product into it, so the buffer grows to the widest range seen and
    /// needs no record of which slots a call touched.
    acc: Vec<f64>,
    /// Execution-time offsets `tb − bt[0]` of the current dense
    /// convolution, computed once per call rather than once per product.
    offsets: Vec<usize>,
}

impl Workspace {
    /// Builds a PMF in `pool`'s storage from the sorted, merged pairing
    /// buffer. Two column-wise passes (exact-size iterators → one reserve
    /// + dense copy loop each) instead of interleaved per-element pushes.
    fn pmf_from_pairs(&self, pool: &mut ConvScratch) -> Pmf {
        let (mut times, mut masses) = pool.take_storage(self.pairs.len());
        times.extend(self.pairs.iter().map(|i| i.t));
        masses.extend(self.pairs.iter().map(|i| i.p));
        Pmf::from_parts_unchecked(times, masses)
    }

    /// Dense-accumulator convolution for narrow rebased time ranges: every
    /// product mass lands directly in its output slot, so sorting, the
    /// duplicate merge, and the column copy all disappear. Only inputs
    /// [`dense_range`] admits come here; see [`accumulate`] for why the
    /// result is bit-identical to the sort-and-merge path.
    fn dense_convolve(
        &mut self,
        a: (&[Time], &[f64]),
        b: (&[Time], &[f64]),
        range: u64,
        pool: &mut ConvScratch,
    ) -> Pmf {
        let (mut times, mut masses) = pool.take_storage(range as usize + 1);
        let acc = accumulate(&mut self.acc, &mut self.offsets, a, b, range);
        push_touched(acc, a.0[0] + b.0[0], &mut times, &mut masses);
        Pmf::from_parts_unchecked(times, masses)
    }
}

/// One thread's [`Workspace`] plus its free-list of wide storage.
struct ThreadBuffers {
    work: Workspace,
    wide: ConvScratch,
}

thread_local! {
    static BUFFERS: RefCell<ThreadBuffers> = const {
        RefCell::new(ThreadBuffers {
            work: Workspace {
                pairs: Vec::new(),
                radix: Vec::new(),
                acc: Vec::new(),
                offsets: Vec::new(),
            },
            wide: ConvScratch::new(),
        })
    };
}

/// Runs `f` on this thread's buffers. Every public entry point borrows
/// them once, and nothing it calls borrows them again.
fn with_buffers<R>(f: impl FnOnce(&mut Workspace, &mut ConvScratch) -> R) -> R {
    BUFFERS.with(|buffers| {
        let ThreadBuffers { work, wide } = &mut *buffers.borrow_mut();
        f(work, wide)
    })
}

/// The rebased time range of `a ⊛ b` when it takes the dense path, `None`
/// when it sorts pairs instead.
///
/// Dense needs more than 32 pairs over a range narrower than
/// [`DENSE_RANGE`] and at most four slots per pair, and one more thing:
/// `min(a) · min(b) > 0`. IEEE products of non-negative numbers are
/// monotone, so every product is then positive and a slot was touched iff
/// its sum is non-zero — which is how [`accumulate`]'s callers tell the
/// two apart. An input whose smallest product underflows to `0.0` sorts,
/// and keeps that zero-mass impulse as the merge does.
fn dense_range(a: (&[Time], &[f64]), b: (&[Time], &[f64])) -> Option<u64> {
    let ((at, am), (bt, bm)) = (a, b);
    let pairs = (at.len() * bt.len()) as u64;
    let range = (at[at.len() - 1] + bt[bt.len() - 1]) - (at[0] + bt[0]);
    let smallest = |m: &[f64]| m.iter().copied().fold(f64::INFINITY, f64::min);
    (pairs > 32 && range < DENSE_RANGE && range <= 4 * pairs && smallest(am) * smallest(bm) > 0.0)
        .then_some(range)
}

/// Fills `acc[..=range]` with the mass of `a ⊛ b` per slot rebased to
/// `a[0] + b[0]` and returns that slice.
///
/// The slice is zero-filled first and every product added, in row-major
/// `(availability, execution)` order — the order the stable radix sort
/// presents equal times to the merge. `0.0 + m == m`, so each slot's sum
/// is bit-identical to the merge's first-write-then-add. No branch decides
/// whether a slot was touched: under [`dense_range`]'s positivity
/// condition an untouched slot is exactly the one that still holds `0.0`.
fn accumulate<'a>(
    acc: &'a mut Vec<f64>,
    offsets: &mut Vec<usize>,
    a: (&[Time], &[f64]),
    b: (&[Time], &[f64]),
    range: u64,
) -> &'a [f64] {
    let ((at, am), (bt, bm)) = (a, b);
    let width = range as usize + 1;
    if acc.len() < width {
        acc.resize(width, 0.0);
    }
    let acc = &mut acc[..width];
    acc.fill(0.0);
    offsets.clear();
    offsets.extend(bt.iter().map(|&tb| (tb - bt[0]) as usize));
    for (&ta, &pa) in at.iter().zip(am) {
        let row = &mut acc[(ta - at[0]) as usize..];
        for (&off, &pb) in offsets.iter().zip(bm) {
            row[off] += pa * pb;
        }
    }
    acc
}

/// Appends the non-zero slots of a dense accumulator as impulses at
/// `t0 + slot`, in time order. Branch-free: every slot is written, and the
/// length advances past the non-zero ones only.
fn push_touched(acc: &[f64], t0: Time, times: &mut Vec<Time>, masses: &mut Vec<f64>) {
    let start = times.len();
    times.resize(start + acc.len(), 0);
    masses.resize(start + acc.len(), 0.0);
    let mut n = start;
    for (slot, &mass) in acc.iter().enumerate() {
        times[n] = t0 + slot as u64;
        masses[n] = mass;
        n += usize::from(mass != 0.0);
    }
    times.truncate(n);
    masses.truncate(n);
}

/// Plain convolution (Eq. 2): the distribution of `A + B` for independent
/// `A ~ a`, `B ~ b`. Masses multiply, so `mass(out) = mass(a) · mass(b)`.
///
/// This is the whole completion-time calculus in one operator: queue
/// chains convolve availability with execution, and the serverless
/// cold-start cell convolves spin-up with execution. Means add exactly:
///
/// ```
/// use hcsim_pmf::{convolve, Pmf};
///
/// let spinup = Pmf::from_points(&[(10, 0.5), (20, 0.5)]).unwrap();
/// let exec = Pmf::from_points(&[(3, 0.25), (5, 0.75)]).unwrap();
/// let cold = convolve(&spinup, &exec);
/// assert_eq!(cold.min_time(), 13); // earliest spin-up + earliest exec
/// assert!((cold.mean() - (spinup.mean() + exec.mean())).abs() < 1e-12);
/// assert!(cold.is_normalized());
/// ```
#[must_use]
pub fn convolve(a: &Pmf, b: &Pmf) -> Pmf {
    convolve_into(a, b, &mut ConvScratch::new())
}

/// [`convolve`] with a caller-provided scratch buffer; the output PMF draws
/// its storage from the scratch pool.
pub fn convolve_into(a: &Pmf, b: &Pmf, scratch: &mut ConvScratch) -> Pmf {
    with_buffers(|work, _| convolve_slices(work, (a.times(), a.masses()), b, scratch))
}

/// Convolves an availability *prefix* (the Eq. 3 startable slice) with an
/// execution PMF without materializing the prefix as a PMF.
///
/// The pair-generation loop is ~30% of a `queue_step`, so it is written
/// as a 4-wide manually unrolled row fill over a pre-sized buffer: each
/// output row is `(ta + bt[j], pa * bm[j])` — a pure element-wise
/// shift/scale with no loop-carried accumulation, which the compiler
/// turns into vector adds/muls and which emits pairs in exactly the same
/// row-major order as the naive nested push loop (the stable radix sort
/// and the duplicate merge downstream depend on that order).
fn convolve_slices(
    work: &mut Workspace,
    a: (&[Time], &[f64]),
    b: &Pmf,
    pool: &mut ConvScratch,
) -> Pmf {
    let (at, am) = a;
    let (bt, bm) = (b.times(), b.masses());
    // Both inputs are sorted, so the output extrema — and therefore the
    // rebased range — are known without materializing a single pair.
    if let Some(range) = dense_range(a, (bt, bm)) {
        return work.dense_convolve(a, (bt, bm), range, pool);
    }
    let (buf, aux) = (&mut work.pairs, &mut work.radix);
    buf.clear();
    buf.resize(at.len() * bt.len(), Impulse { t: 0, p: 0.0 });
    for ((&ta, &pa), row) in at.iter().zip(am).zip(buf.chunks_exact_mut(bt.len())) {
        let mut out4 = row.chunks_exact_mut(4);
        let mut bt4 = bt.chunks_exact(4);
        let mut bm4 = bm.chunks_exact(4);
        for ((out, ct), cm) in (&mut out4).zip(&mut bt4).zip(&mut bm4) {
            out[0] = Impulse { t: ta + ct[0], p: pa * cm[0] };
            out[1] = Impulse { t: ta + ct[1], p: pa * cm[1] };
            out[2] = Impulse { t: ta + ct[2], p: pa * cm[2] };
            out[3] = Impulse { t: ta + ct[3], p: pa * cm[3] };
        }
        for ((out, &tb), &pb) in
            out4.into_remainder().iter_mut().zip(bt4.remainder()).zip(bm4.remainder())
        {
            *out = Impulse { t: ta + tb, p: pa * pb };
        }
    }
    radix_sort_by_time(buf, aux);
    merge_sorted_pairs(buf);
    work.pmf_from_pairs(pool)
}

/// Stable LSB-radix sort of impulse pairs by time, over only the digits
/// the (rebased) key range actually needs. For the mapping loop's pair
/// buffers (hundreds of entries, time ranges in the thousands) this runs
/// in a single 11-bit pass — or 1–2 byte passes for wider ranges — where
/// a comparison sort pays `n log n` branchy compares; the single hottest
/// win in the whole pipeline.
///
/// Stability makes the order of equal times *defined* (input order, i.e.
/// lexicographic in the convolution's (availability, execution) indices)
/// rather than whatever an unstable comparison sort leaves; downstream
/// duplicate-merging sums masses in exactly that order. Digit-width
/// selection never changes the output (any stable sort of the same keys
/// yields the same permutation), only the pass count.
fn radix_sort_by_time(buf: &mut Vec<Impulse>, aux: &mut Vec<Impulse>) {
    let n = buf.len();
    if n < 2 {
        return;
    }
    // Tiny buffers: insertion sort (stable) beats histogramming.
    if n <= 32 {
        for i in 1..n {
            let x = buf[i];
            let mut j = i;
            while j > 0 && buf[j - 1].t > x.t {
                buf[j] = buf[j - 1];
                j -= 1;
            }
            buf[j] = x;
        }
        return;
    }
    let min = buf.iter().map(|i| i.t).min().expect("non-empty");
    let max = buf.iter().map(|i| i.t).max().expect("non-empty");
    let range = max - min;
    if range == 0 {
        return; // all keys equal: already "sorted", order untouched
    }
    aux.clear();
    aux.resize(n, Impulse { t: 0, p: 0.0 });
    // Queue-step pair buffers almost always span < 2048 time units (a
    // compacted availability plus one execution PMF): one 11-bit counting
    // pass (16 KiB of counts, L1-resident) replaces two byte passes.
    if range < 2048 {
        let mut counts = [0usize; 2048];
        for imp in buf.iter() {
            counts[(imp.t - min) as usize] += 1;
        }
        let mut acc = 0usize;
        for c in counts.iter_mut().take(range as usize + 1) {
            let start = acc;
            acc += *c;
            *c = start;
        }
        for imp in buf.iter() {
            let bucket = (imp.t - min) as usize;
            aux[counts[bucket]] = *imp;
            counts[bucket] += 1;
        }
        std::mem::swap(buf, aux);
        return;
    }
    let bytes = (8 - (range.leading_zeros() / 8) as usize).max(1);
    let mut counts = [0usize; 256];
    for pass in 0..bytes {
        let shift = pass * 8;
        counts.fill(0);
        for imp in buf.iter() {
            counts[(((imp.t - min) >> shift) & 0xff) as usize] += 1;
        }
        let mut acc = 0usize;
        for c in &mut counts {
            let start = acc;
            acc += *c;
            *c = start;
        }
        for imp in buf.iter() {
            let bucket = (((imp.t - min) >> shift) & 0xff) as usize;
            aux[counts[bucket]] = *imp;
            counts[bucket] += 1;
        }
        std::mem::swap(buf, aux);
    }
}

/// Result of appending one task behind a machine-queue position.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStep {
    /// The task's own completion-time mass. `None` when the task can never
    /// start before its deadline (all availability mass lies at `t >= δ`).
    /// Under [`DropPolicy::None`] this is the full Eq. 2 convolution; under
    /// B/C it is the deadline-truncated convolution of Eq. 3–4 and is
    /// generally sub-normalized.
    pub completion: Option<Pmf>,
    /// When the machine becomes free *after* this queue position — the PMF
    /// to chain into the next task's [`queue_step`]. Includes carry-over
    /// mass under B/C, and the Eq. 5 deadline aggregation under C.
    pub availability: Pmf,
    /// Eq. 1 robustness: probability the task completes at or before its
    /// deadline.
    pub robustness: f64,
}

impl QueueStep {
    /// Returns this step's PMFs to `scratch`'s pool once the caller has
    /// extracted what it needs.
    pub fn recycle_into(self, scratch: &mut ConvScratch) {
        if let Some(c) = self.completion {
            scratch.recycle(c);
        }
        scratch.recycle(self.availability);
    }
}

/// Computes completion and availability PMFs for a task with execution PMF
/// `exec` and deadline `deadline`, queued behind availability `avail`,
/// under the given [`DropPolicy`].
///
/// Execution times of zero are legal but make scenario A's robustness
/// differ from B/C's (a task could "start" exactly at its deadline and
/// still finish); the workload layer never produces them.
#[must_use]
pub fn queue_step(avail: &Pmf, exec: &Pmf, deadline: Time, policy: DropPolicy) -> QueueStep {
    let mut scratch = ConvScratch::new();
    queue_step_into(avail, exec, deadline, policy, &mut scratch)
}

/// [`queue_step`] with a caller-provided scratch buffer. Output PMFs draw
/// their storage from the scratch pool; recycle them when done.
pub fn queue_step_into(
    avail: &Pmf,
    exec: &Pmf,
    deadline: Time,
    policy: DropPolicy,
    scratch: &mut ConvScratch,
) -> QueueStep {
    with_buffers(|work, _| step(work, avail, exec, deadline, policy, scratch))
}

/// The body of [`queue_step_into`], its outputs drawn from `pool`.
fn step(
    work: &mut Workspace,
    avail: &Pmf,
    exec: &Pmf,
    deadline: Time,
    policy: DropPolicy,
    pool: &mut ConvScratch,
) -> QueueStep {
    match policy {
        DropPolicy::None => {
            let completion = convolve_slices(work, (avail.times(), avail.masses()), exec, pool);
            let robustness = completion.cdf_at(deadline);
            let availability = pool.pmf_from_slices(completion.times(), completion.masses());
            QueueStep { availability, completion: Some(completion), robustness }
        }
        DropPolicy::PendingOnly | DropPolicy::All => {
            // Eq. 3: only starts strictly before δ are possible.
            let split = avail.partition_index(deadline);
            let (carry_times, carry_masses) = (&avail.times()[split..], &avail.masses()[split..]);
            if split == 0 {
                // The task can never start: availability is the carry-over
                // verbatim (a non-empty PMF has a non-empty late side here).
                let availability = pool.pmf_from_slices(carry_times, carry_masses);
                return QueueStep { completion: None, availability, robustness: 0.0 };
            }
            let prefix = (&avail.times()[..split], &avail.masses()[..split]);
            let completion = convolve_slices(work, prefix, exec, pool);
            let robustness = completion.cdf_at(deadline);
            let availability = if policy == DropPolicy::All {
                let cut = completion.times().partition_point(|&x| x <= deadline);
                let (mut times, mut masses) = pool.take_storage(cut + 1 + carry_times.len());
                times.extend_from_slice(&completion.times()[..cut]);
                masses.extend_from_slice(&completion.masses()[..cut]);
                let moved =
                    (cut < completion.len()).then(|| completion.masses()[cut..].iter().sum());
                evict_and_carry(
                    &mut times,
                    &mut masses,
                    moved,
                    deadline,
                    (carry_times, carry_masses),
                );
                Pmf::from_parts_unchecked(times, masses)
            } else if carry_times.is_empty() {
                pool.pmf_from_slices(completion.times(), completion.masses())
            } else {
                // Eq. 4's second branch: for t >= δ, add the predecessor's
                // impulses — the machine frees when task i−1 finishes and
                // task i is dropped.
                let (mut times, mut masses) =
                    pool.take_storage(completion.len() + carry_times.len());
                merge_add(
                    (completion.times(), completion.masses()),
                    (carry_times, carry_masses),
                    &mut times,
                    &mut masses,
                );
                Pmf::from_parts_unchecked(times, masses)
            };
            QueueStep { completion: Some(completion), availability, robustness }
        }
    }
}

/// Eq. 5 + Eq. 4 behind the on-time prefix already in `times`/`masses`:
/// the task's own mass past δ (`moved`, `None` when there is none)
/// aggregates onto the impulse at δ (eviction), and the carry-over — whose
/// support is entirely `>= δ` by construction — appends after it, summing
/// on a shared boundary impulse. Operation order matches the unfused
/// clamp-then-superpose exactly.
fn evict_and_carry(
    times: &mut Vec<Time>,
    masses: &mut Vec<f64>,
    moved: Option<f64>,
    deadline: Time,
    carry: (&[Time], &[f64]),
) {
    if let Some(moved) = moved {
        match times.last() {
            Some(&last) if last == deadline => {
                *masses.last_mut().expect("parallel") += moved;
            }
            _ => {
                times.push(deadline);
                masses.push(moved);
            }
        }
    }
    let (carry_times, carry_masses) = carry;
    let mut k = 0;
    if let (Some(&first), Some(&last)) = (carry_times.first(), times.last()) {
        if first == last {
            *masses.last_mut().expect("parallel") += carry_masses[0];
            k = 1;
        }
    }
    times.extend_from_slice(&carry_times[k..]);
    masses.extend_from_slice(&carry_masses[k..]);
}

/// One link of a queue chain: what [`chain_step_into`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStep {
    /// [`QueueStep::availability`] compacted to the impulse budget, in
    /// storage from the caller's pool.
    pub availability: Pmf,
    /// [`QueueStep::robustness`].
    pub robustness: f64,
    /// Eq. 6 bounded skewness of [`QueueStep::completion`] — `0.0` when
    /// the task can never start, NaN when the caller did not ask for it.
    pub skewness: f64,
}

/// The queue step a chain takes: [`queue_step_into`] with the
/// availability compacted to `budget` impulses ([`Pmf::compact`]) and,
/// with `with_skewness`, the completion's
/// [`Pmf::bounded_skewness`] — bit for bit, under every policy, without
/// handing the completion back. Recycle the availability into `scratch`
/// when the link is retired.
///
/// Under [`DropPolicy::All`], when the startable prefix takes the dense
/// path, neither the completion nor the uncompacted availability is ever
/// built. Two passes over the accumulator's slots replace them:
///
/// * the **fold pass** sums the slots at or before δ into the robustness
///   (the fold [`Pmf::cdf_at`] runs), the slots past δ into the mass
///   Eq. 5 moves onto δ, and — when compaction will run — the
///   availability's masses into the `total` that sizes its groups; with
///   `with_skewness` it also folds Eq. 6's power sums over every slot,
///   with `x = slot` (the completion's first impulse is slot 0);
/// * the **write pass** feeds the slots before δ, then the merged impulse
///   at δ, then the rest of the carry-over to the mass-quantile group
///   walk of [`Pmf::compact`], writing the groups straight into storage
///   of link size — or copies them there when they fit the budget.
///
/// Three facts make that bit-identical to step-then-compact:
///
/// * **Zero slots are inert.** An untouched slot holds `0.0` and adds it
///   to every fold: `x · 0.0 = 0.0` and `s + 0.0 = s`. It cannot close a
///   group either — the running mass it leaves already failed the cut.
/// * **No empty group.** Slot 0 is non-zero under the dense path's
///   positivity rule (`min(a) · min(b) > 0`), and it is the walk's first impulse or part of the
///   one at δ, so no group can close before it holds mass.
/// * **Same fold order as the plain path.** `total` folds over the
///   *merged* impulse at δ — own mass there, then the evicted mass, then
///   the carry-over landing on δ, as the plain merge adds them — not as
///   `robustness + moved`. The cut slack, the cap of `budget - 1` cuts
///   and the final duplicate merge are [`Pmf::compact`]'s own.
///
/// Every other case takes the plain step and compacts in place: in the
/// caller's storage when it cannot build more than `2 · budget`
/// impulses, otherwise in the thread's wide storage, copying the
/// ≤ `budget` impulses out — so a cached link never keeps more than
/// twice the budget of capacity.
pub fn chain_step_into(
    avail: &Pmf,
    exec: &Pmf,
    deadline: Time,
    policy: DropPolicy,
    budget: usize,
    with_skewness: bool,
    scratch: &mut ConvScratch,
) -> ChainStep {
    with_buffers(|work, wide| {
        // The impulses that can start: all of them under Eq. 2, those
        // before δ under Eq. 3.
        let startable = match policy {
            DropPolicy::None => avail.len(),
            _ => avail.partition_index(deadline),
        };
        let (prefix_times, carry_times) = avail.times().split_at(startable);
        let (prefix_masses, carry_masses) = avail.masses().split_at(startable);
        let prefix = (prefix_times, prefix_masses);
        let exec_cols = (exec.times(), exec.masses());
        let range = (startable > 0).then(|| dense_range(prefix, exec_cols)).flatten();
        let (DropPolicy::All, Some(range)) = (policy, range) else {
            // A sorted step that cannot build more than twice the budget
            // builds in the caller's storage; any other in the thread's
            // wide storage, whose compacted impulses are then copied out.
            let widest = startable * exec.len() + 1 + carry_times.len();
            let narrow = range.is_none() && widest <= 2 * budget.max(1);
            let pool = if narrow { &mut *scratch } else { &mut *wide };
            let QueueStep { completion, mut availability, robustness } =
                step(work, avail, exec, deadline, policy, pool);
            let skewness = match &completion {
                _ if !with_skewness => f64::NAN,
                Some(completion) => completion.bounded_skewness(),
                None => 0.0,
            };
            availability.compact(budget);
            if let Some(completion) = completion {
                pool.recycle(completion);
            }
            if !narrow {
                let link = scratch.pmf_from_slices(availability.times(), availability.masses());
                wide.recycle(std::mem::replace(&mut availability, link));
            }
            return ChainStep { availability, robustness, skewness };
        };
        let t0 = prefix_times[0] + exec.times()[0];
        let acc = accumulate(&mut work.acc, &mut work.offsets, prefix, exec_cols, range);
        let skewness = if with_skewness {
            Moments::fold(t0, acc.iter().enumerate().map(|(slot, &p)| (slot as f64, p)))
                .bounded_skewness()
        } else {
            f64::NAN
        };
        let (availability, robustness) =
            compact_dense_tail(acc, t0, deadline, (carry_times, carry_masses), budget, scratch);
        ChainStep { availability, robustness, skewness }
    })
}

/// [`chain_step_into`]'s two passes over a dense `All` accumulator `acc`
/// (slot `s` at time `t0 + s`) behind the carry-over `carry`: returns the
/// Eq. 5 availability compacted to `budget` impulses, in `scratch`'s
/// storage, and the Eq. 1 robustness.
fn compact_dense_tail(
    acc: &[f64],
    t0: Time,
    deadline: Time,
    carry: (&[Time], &[f64]),
    budget: usize,
    scratch: &mut ConvScratch,
) -> (Pmf, f64) {
    // Fold pass. Slots `..before` complete strictly before δ; `on_time`
    // is δ's own slot when the range holds one.
    let before = deadline.saturating_sub(t0).min(acc.len() as u64) as usize;
    let on_time = if deadline >= t0 { acc.get(before).copied() } else { None };
    let cut = before + usize::from(on_time.is_some());
    let early: f64 = acc[..before].iter().sum();
    let robustness = on_time.map_or(early, |m| early + m);
    // The last slot is positive, so this is positive iff a slot lies past δ.
    let moved: f64 = acc[cut..].iter().sum();
    let landing = carry.0.first() == Some(&deadline);
    let (carry_times, carry_masses) =
        (&carry.0[usize::from(landing)..], &carry.1[usize::from(landing)..]);
    // The impulse at δ, merged in the plain step's order.
    let own = on_time.filter(|&m| m != 0.0);
    let at_deadline = [own, (moved > 0.0).then_some(moved), landing.then(|| carry.1[0])]
        .into_iter()
        .flatten()
        .reduce(|a, b| a + b);
    let touched = acc[..before].iter().filter(|&&m| m != 0.0).count();
    let len = touched + usize::from(at_deadline.is_some()) + carry_times.len();
    let max = budget.max(1);

    // Write pass.
    let (mut times, mut masses) = scratch.take_storage(len.min(max));
    let slots = acc[..before].iter().enumerate().map(|(slot, &m)| (t0 + slot as u64, m));
    let rest = at_deadline
        .map(|m| (deadline, m))
        .into_iter()
        .chain(carry_times.iter().copied().zip(carry_masses.iter().copied()));
    if len <= max {
        for (t, m) in slots.filter(|&(_, m)| m != 0.0).chain(rest) {
            times.push(t);
            masses.push(m);
        }
    } else {
        let total =
            carry_masses.iter().fold(at_deadline.map_or(early, |m| early + m), |s, &m| s + m);
        debug_assert!(total > 0.0, "slot 0 is positive and in the availability");
        let mut walk = GroupWalk::new(total, max);
        for (t, m) in slots.chain(rest) {
            if let Some((t, m)) = walk.push(t, m) {
                times.push(t);
                masses.push(m);
            }
        }
        if let Some((t, m)) = walk.finish() {
            times.push(t);
            masses.push(m);
        }
        merge_sorted_columns(&mut times, &mut masses);
        debug_assert!(times.len() <= max, "compaction produced {} > {max}", times.len());
    }
    (Pmf::from_parts_unchecked(times, masses), robustness)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf(points: &[(Time, f64)]) -> Pmf {
        Pmf::from_points(points).unwrap()
    }

    fn assert_pmf_eq(actual: &Pmf, expected: &[(Time, f64)]) {
        assert_eq!(actual.len(), expected.len(), "impulse count: {actual:?} vs {expected:?}");
        for (imp, &(t, p)) in actual.iter().zip(expected) {
            assert_eq!(imp.t, t, "time mismatch in {actual:?}");
            assert!((imp.p - p).abs() < 1e-12, "mass at t={t}: {} vs {p}", imp.p);
        }
    }

    // ------------------------------------------------------------------
    // Paper Figure 2: PET of arriving task i (δ=7) convolved with the PCT
    // of the last task on machine queue j.
    // ------------------------------------------------------------------

    #[test]
    fn paper_fig2_convolution() {
        let pct_prev = pmf(&[(3, 0.25), (4, 0.50), (5, 0.25)]);
        let pet = pmf(&[(1, 0.50), (2, 0.25), (3, 0.25)]);
        let pct = convolve(&pct_prev, &pet);
        assert_pmf_eq(&pct, &[(4, 0.125), (5, 0.3125), (6, 0.3125), (7, 0.1875), (8, 0.0625)]);
        // Eq. 1 robustness at δ=7.
        assert!((pct.cdf_at(7) - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn convolution_commutes_fig2() {
        let a = pmf(&[(3, 0.25), (4, 0.50), (5, 0.25)]);
        let b = pmf(&[(1, 0.50), (2, 0.25), (3, 0.25)]);
        assert_eq!(convolve(&a, &b), convolve(&b, &a));
    }

    // ------------------------------------------------------------------
    // Paper Figure 3: effect of task i's completion-PMF skewness on the
    // robustness of task i+1 (exec {1:.25, 2:.5, 3:.25}, δ_{i+1} = 5).
    // All three task-i PMFs have robustness 0.75 at δ_i = 3.
    // ------------------------------------------------------------------

    const FIG3_EXEC: &[(Time, f64)] = &[(1, 0.25), (2, 0.50), (3, 0.25)];

    #[test]
    fn paper_fig3a_no_skew() {
        let pct_i = pmf(&[(2, 0.25), (3, 0.50), (4, 0.25)]);
        assert!((pct_i.cdf_at(3) - 0.75).abs() < 1e-12);
        assert!(pct_i.skewness().abs() < 1e-12);
        let pct_next = convolve(&pct_i, &pmf(FIG3_EXEC));
        assert_pmf_eq(&pct_next, &[(3, 0.0625), (4, 0.25), (5, 0.375), (6, 0.25), (7, 0.0625)]);
        assert!((pct_next.cdf_at(5) - 0.6875).abs() < 1e-12, "Fig 3(a): 0.6875 robust");
    }

    #[test]
    fn paper_fig3b_left_skew_hurts_successor() {
        let pct_i = pmf(&[(2, 0.15), (3, 0.60), (4, 0.25)]);
        assert!((pct_i.cdf_at(3) - 0.75).abs() < 1e-12);
        assert!(pct_i.skewness() < 0.0, "left skew");
        let pct_next = convolve(&pct_i, &pmf(FIG3_EXEC));
        assert_pmf_eq(&pct_next, &[(3, 0.0375), (4, 0.225), (5, 0.4), (6, 0.275), (7, 0.0625)]);
        assert!((pct_next.cdf_at(5) - 0.6625).abs() < 1e-12, "Fig 3(b): 0.6625 robust");
    }

    #[test]
    fn paper_fig3c_right_skew_helps_successor() {
        let pct_i = pmf(&[(2, 0.50), (3, 0.25), (4, 0.25)]);
        assert!((pct_i.cdf_at(3) - 0.75).abs() < 1e-12);
        assert!(pct_i.skewness() > 0.0, "right skew");
        let pct_next = convolve(&pct_i, &pmf(FIG3_EXEC));
        assert_pmf_eq(&pct_next, &[(3, 0.125), (4, 0.3125), (5, 0.3125), (6, 0.1875), (7, 0.0625)]);
        assert!((pct_next.cdf_at(5) - 0.75).abs() < 1e-12, "Fig 3(c): 0.75 robust");
    }

    #[test]
    fn fig3_ordering_matches_paper_narrative() {
        // Positive skew propagates benefit; negative skew propagates harm.
        let exec = pmf(FIG3_EXEC);
        let r = |points: &[(Time, f64)]| convolve(&pmf(points), &exec).cdf_at(5);
        let none = r(&[(2, 0.25), (3, 0.50), (4, 0.25)]);
        let left = r(&[(2, 0.15), (3, 0.60), (4, 0.25)]);
        let right = r(&[(2, 0.50), (3, 0.25), (4, 0.25)]);
        assert!(right > none && none > left);
    }

    // ------------------------------------------------------------------
    // Eq. 2-5 queue_step semantics.
    // ------------------------------------------------------------------

    #[test]
    fn policy_none_matches_plain_convolution() {
        let avail = pmf(&[(3, 0.25), (4, 0.50), (5, 0.25)]);
        let exec = pmf(&[(1, 0.50), (2, 0.25), (3, 0.25)]);
        let step = queue_step(&avail, &exec, 7, DropPolicy::None);
        assert_eq!(step.completion.as_ref().unwrap(), &convolve(&avail, &exec));
        assert_eq!(&step.availability, step.completion.as_ref().unwrap());
        assert!((step.robustness - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn pending_only_excludes_late_starts() {
        // Availability straddles the deadline: starts at 3 (ok) and 8 (too
        // late; the pending task is dropped).
        let avail = pmf(&[(3, 0.6), (8, 0.4)]);
        let exec = pmf(&[(2, 1.0)]);
        let step = queue_step(&avail, &exec, 6, DropPolicy::PendingOnly);
        // Completion only from the start at 3: finish at 5 with mass .6.
        let completion = step.completion.as_ref().unwrap();
        assert_pmf_eq(completion, &[(5, 0.6)]);
        assert!((step.robustness - 0.6).abs() < 1e-12);
        // Availability = completion + carry-over at t=8.
        assert_pmf_eq(&step.availability, &[(5, 0.6), (8, 0.4)]);
        assert!(step.availability.is_normalized());
    }

    #[test]
    fn pending_only_start_at_deadline_is_dropped() {
        // Eq. 3 requires start strictly before δ: a start exactly at δ is a
        // drop (the deadline has passed when it would begin).
        let avail = pmf(&[(6, 1.0)]);
        let exec = pmf(&[(1, 1.0)]);
        let step = queue_step(&avail, &exec, 6, DropPolicy::PendingOnly);
        assert!(step.completion.is_none());
        assert_eq!(step.robustness, 0.0);
        assert_pmf_eq(&step.availability, &[(6, 1.0)]);
    }

    #[test]
    fn all_policy_aggregates_completion_tail_at_deadline() {
        // Start at 3 always; exec 2 or 6 → completion at 5 (ok) or 9
        // (evicted at δ=6, machine free at 6).
        let avail = pmf(&[(3, 1.0)]);
        let exec = pmf(&[(2, 0.5), (6, 0.5)]);
        let step = queue_step(&avail, &exec, 6, DropPolicy::All);
        assert!((step.robustness - 0.5).abs() < 1e-12);
        assert_pmf_eq(&step.availability, &[(5, 0.5), (6, 0.5)]);
        // Completion (pre-aggregation, Eq. 4) keeps the true finish times.
        assert_pmf_eq(step.completion.as_ref().unwrap(), &[(5, 0.5), (9, 0.5)]);
    }

    #[test]
    fn all_policy_carryover_survives_past_deadline() {
        // Machine may free at 9 (> δ=6) because the *predecessor* runs
        // long; that mass stays at 9 (the predecessor is not evicted at
        // OUR deadline).
        let avail = pmf(&[(3, 0.5), (9, 0.5)]);
        let exec = pmf(&[(10, 1.0)]);
        let step = queue_step(&avail, &exec, 6, DropPolicy::All);
        assert_eq!(step.robustness, 0.0);
        // Start at 3 → would finish at 13 → evicted at 6; carry-over at 9.
        assert_pmf_eq(&step.availability, &[(6, 0.5), (9, 0.5)]);
    }

    #[test]
    fn robustness_identical_across_policies_for_positive_exec() {
        // With exec times >= 1, late starts can never produce on-time
        // completions, so Eq. 1 robustness is policy-independent; the
        // policies differ only in the availability seen by LATER tasks.
        let avail = pmf(&[(2, 0.3), (5, 0.3), (9, 0.4)]);
        let exec = pmf(&[(1, 0.2), (3, 0.5), (7, 0.3)]);
        let deadline = 8;
        let r_none = queue_step(&avail, &exec, deadline, DropPolicy::None).robustness;
        let r_pend = queue_step(&avail, &exec, deadline, DropPolicy::PendingOnly).robustness;
        let r_all = queue_step(&avail, &exec, deadline, DropPolicy::All).robustness;
        assert!((r_none - r_pend).abs() < 1e-12);
        assert!((r_pend - r_all).abs() < 1e-12);
    }

    #[test]
    fn dropping_improves_successor_availability() {
        // The core claim of §IV: dropping a hopeless task frees the machine
        // earlier for tasks behind it.
        let avail = pmf(&[(2, 0.5), (20, 0.5)]); // predecessor may run very long
        let exec = pmf(&[(5, 1.0)]);
        let deadline = 4; // this task is nearly hopeless
        let none = queue_step(&avail, &exec, deadline, DropPolicy::None);
        let all = queue_step(&avail, &exec, deadline, DropPolicy::All);
        // Under no-drop the machine frees at 7 or 25; under drop-all it
        // frees at 4 (evicted) or 20 (carry-over).
        assert!(all.availability.mean() < none.availability.mean());
        // Successor deadline 9: it succeeds only from the early-freed
        // machine (4+3=7 <= 9) and not from the no-drop path (7+3=10 > 9).
        let successor_exec = pmf(&[(3, 1.0)]);
        let succ_none = queue_step(&none.availability, &successor_exec, 9, DropPolicy::All);
        let succ_all = queue_step(&all.availability, &successor_exec, 9, DropPolicy::All);
        assert!(succ_all.robustness > succ_none.robustness);
    }

    #[test]
    fn mass_conservation_all_policies() {
        let avail = pmf(&[(1, 0.25), (4, 0.25), (7, 0.25), (10, 0.25)]);
        let exec = pmf(&[(2, 0.5), (5, 0.5)]);
        for policy in [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All] {
            let step = queue_step(&avail, &exec, 6, policy);
            assert!(
                (step.availability.mass() - 1.0).abs() < 1e-12,
                "{policy:?}: availability mass {}",
                step.availability.mass()
            );
        }
    }

    #[test]
    fn completion_none_when_avail_entirely_late() {
        let avail = pmf(&[(10, 1.0)]);
        let exec = pmf(&[(1, 1.0)]);
        for policy in [DropPolicy::PendingOnly, DropPolicy::All] {
            let step = queue_step(&avail, &exec, 5, policy);
            assert!(step.completion.is_none());
            assert_eq!(step.robustness, 0.0);
            assert_pmf_eq(&step.availability, &[(10, 1.0)]);
        }
    }

    #[test]
    fn scratch_reuse_produces_identical_results() {
        let a = pmf(&[(1, 0.5), (2, 0.5)]);
        let b = pmf(&[(3, 0.25), (4, 0.75)]);
        let mut scratch = ConvScratch::new();
        let first = convolve_into(&a, &b, &mut scratch);
        let second = convolve_into(&a, &b, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(first, convolve(&a, &b));
    }

    #[test]
    fn pool_recycles_storage_across_steps() {
        let avail = pmf(&[(1, 0.25), (4, 0.25), (7, 0.25), (10, 0.25)]);
        let exec = pmf(&[(2, 0.5), (5, 0.5)]);
        let mut scratch = ConvScratch::new();
        let reference = queue_step(&avail, &exec, 6, DropPolicy::All);
        for _ in 0..10 {
            let step = queue_step_into(&avail, &exec, 6, DropPolicy::All, &mut scratch);
            assert_eq!(step.availability, reference.availability);
            assert_eq!(step.completion, reference.completion);
            step.recycle_into(&mut scratch);
        }
        // Steady state: completion + availability storage both pooled.
        assert!(scratch.pooled() >= 2, "pool empty after recycling");
    }

    #[test]
    fn pooled_delta_equals_delta_and_draws_from_the_pool() {
        let mut scratch = ConvScratch::new();
        scratch.recycle(pmf(&[(1, 0.5), (9, 0.5)]));
        let d = scratch.delta(42);
        assert_eq!(d, Pmf::delta(42));
        assert_eq!(scratch.pooled(), 0, "the delta must take the pooled storage");
    }

    #[test]
    fn convolve_with_delta_is_shift() {
        let p = pmf(&[(3, 0.25), (4, 0.50), (5, 0.25)]);
        let shifted = convolve(&p, &Pmf::delta(10));
        assert_eq!(shifted, p.shift(10));
    }

    #[test]
    fn convolution_mean_is_additive() {
        let a = pmf(&[(2, 0.3), (5, 0.7)]);
        let b = pmf(&[(1, 0.6), (9, 0.4)]);
        let c = convolve(&a, &b);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Property-based invariants.
    // ------------------------------------------------------------------

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_pmf(max_t: Time, max_n: usize) -> impl Strategy<Value = Pmf> {
            prop::collection::vec((0..max_t, 0.01f64..1.0), 1..max_n).prop_map(|pts| {
                let mut p = Pmf::from_points(&pts).unwrap();
                p.normalize();
                p
            })
        }

        proptest! {
            #[test]
            fn conv_mass_is_product(a in arb_pmf(100, 8), b in arb_pmf(100, 8)) {
                let c = convolve(&a, &b);
                prop_assert!((c.mass() - a.mass() * b.mass()).abs() < 1e-9);
            }

            #[test]
            fn conv_commutes(a in arb_pmf(50, 6), b in arb_pmf(50, 6)) {
                let ab = convolve(&a, &b);
                let ba = convolve(&b, &a);
                prop_assert_eq!(ab.len(), ba.len());
                for (x, y) in ab.iter().zip(ba.iter()) {
                    prop_assert_eq!(x.t, y.t);
                    prop_assert!((x.p - y.p).abs() < 1e-12);
                }
            }

            #[test]
            fn queue_step_invariants(
                avail in arb_pmf(100, 8),
                exec in arb_pmf(40, 8),
                deadline in 1u64..150,
                policy_idx in 0usize..3,
            ) {
                let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
                let step = queue_step(&avail, &exec, deadline, policy);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&step.robustness));
                // Availability mass conserved (normalized inputs).
                prop_assert!((step.availability.mass() - 1.0).abs() < 1e-9);
                // Availability never predates the earliest possible event.
                prop_assert!(step.availability.min_time() >= avail.min_time().min(deadline));
                if policy == DropPolicy::All {
                    // Machine must be free by max(δ, predecessor max).
                    prop_assert!(step.availability.max_time() <= deadline.max(avail.max_time()));
                }
            }

            #[test]
            fn scratch_path_matches_allocating_path(
                avail in arb_pmf(100, 8),
                exec in arb_pmf(40, 8),
                deadline in 1u64..150,
                policy_idx in 0usize..3,
            ) {
                let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
                let mut scratch = ConvScratch::new();
                // Warm the pool so pooled storage is actually exercised.
                for _ in 0..3 {
                    let warm = queue_step_into(&avail, &exec, deadline, policy, &mut scratch);
                    warm.recycle_into(&mut scratch);
                }
                let pooled = queue_step_into(&avail, &exec, deadline, policy, &mut scratch);
                let fresh = queue_step(&avail, &exec, deadline, policy);
                prop_assert_eq!(&pooled.availability, &fresh.availability);
                prop_assert_eq!(&pooled.completion, &fresh.completion);
                prop_assert!((pooled.robustness - fresh.robustness).abs() == 0.0);
            }

            #[test]
            fn robustness_monotone_in_deadline(
                avail in arb_pmf(60, 6),
                exec in arb_pmf(30, 6),
                d1 in 1u64..100,
                d2 in 1u64..100,
            ) {
                let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
                let r_lo = queue_step(&avail, &exec, lo, DropPolicy::All).robustness;
                let r_hi = queue_step(&avail, &exec, hi, DropPolicy::All).robustness;
                prop_assert!(r_hi + 1e-12 >= r_lo, "robustness must grow with slack: {r_lo} vs {r_hi}");
            }

            #[test]
            fn compaction_preserves_queue_step_mass(
                avail in arb_pmf(200, 20),
                exec in arb_pmf(60, 12),
                deadline in 1u64..250,
            ) {
                let step = queue_step(&avail, &exec, deadline, DropPolicy::All);
                let mut compacted = step.availability.clone();
                compacted.compact(8);
                prop_assert!(compacted.len() <= 8);
                prop_assert!((compacted.mass() - step.availability.mass()).abs() < 1e-9);
            }
        }
    }
}
