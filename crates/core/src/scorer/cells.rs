//! Where the per-machine scoring cells live and how a per-machine fan-out
//! is executed — the one place in `hcsim-core` that knows about the
//! worker pool.
//!
//! There are exactly two execution modes:
//!
//! * **calling thread** — the cells sit in a `Vec` and every fan-out is an
//!   in-order loop. This is the mode of every paper-sized system, of
//!   `threads: 1`, and of any fan-out too small to pay for a pool round;
//! * **worker pool** ([`WorkerPool`]) — at cluster scale
//!   ([`PARALLEL_MIN_MACHINES`]) with more than one thread, the cells
//!   *move into* a persistent pool whose workers own one shard each for
//!   the lifetime of the scorer; a fan-out becomes a request/response
//!   round over channels. Per-round inputs (machine snapshots, the live
//!   window rows) cross the channel as reusable `Arc` buffers, so the
//!   steady state stays allocation-free. Between rounds the scorer reaches
//!   individual cells through the pool's shared handle
//!   ([`WorkerPool::with_cell`]), which keeps single-machine requests — a
//!   column refresh after an assignment, a pruner slot query after a drop
//!   — at direct-call cost instead of a channel round-trip.
//!
//! Both modes run the same per-cell update on the same inputs and merge in
//! machine-index order, so results are bit-identical between them.

use super::kernel::{score_column_scatter, LiveRow, PairScore, PairWork};
use super::shared::{ScorerShared, TABLE_SHARD_WIDTH};
use super::tail::MachineCache;
use hcsim_model::Time;
use hcsim_parallel::{resolve_threads, WorkerPool};
use hcsim_sim::MachineState;
use std::sync::Arc;
use std::time::Duration;

/// Minimum number of active per-machine jobs before a fan-out actually
/// goes parallel (and minimum cluster size before the worker pool is
/// built). Below this a pool round's channel round-trips cost more than
/// the work itself on paper-sized clusters (8 machines), so the fan-out
/// stays on the calling thread — which produces bit-identical results by
/// construction.
pub const PARALLEL_MIN_MACHINES: usize = 16;

/// Cells on the calling thread, or moved into the pool.
#[derive(Debug)]
enum CellStore {
    Local(Vec<MachineCache>),
    Pooled(WorkerPool<MachineCache>),
}

impl CellStore {
    fn with<R>(&mut self, i: usize, f: impl FnOnce(&mut MachineCache) -> R) -> R {
        match self {
            CellStore::Local(cells) => f(&mut cells[i]),
            CellStore::Pooled(pool) => pool.with_cell(i, f),
        }
    }
}

/// Which machines a warm-up fan-out touches. A tiny `Copy` enum (rather
/// than a closure) so the pooled round can ship the filter to `'static`
/// workers.
#[derive(Debug, Clone, Copy)]
pub(super) enum WarmFilter {
    /// Machines with at least one queued task (the pruner's view).
    Occupied,
    /// Machines that can accept an assignment (the score table's view).
    FreeSlot,
}

impl WarmFilter {
    fn admits(self, machine: &MachineState) -> bool {
        match self {
            WarmFilter::Occupied => machine.occupancy() > 0,
            WarmFilter::FreeSlot => machine.has_free_slot(),
        }
    }
}

/// Shard-grouped live window rows shipped to pooled column rounds:
/// one [`LiveRow`] list per shard, shared with workers as an `Arc` and
/// reclaimed via `Arc::get_mut` after the round.
type SharedLiveRows = Arc<Vec<Vec<LiveRow>>>;

/// The per-machine cells, index-aligned with machine ids, plus everything
/// that decides and serves their execution mode.
#[derive(Debug)]
pub(super) struct Cells {
    store: CellStore,
    /// The `threads` setting last handed to [`Cells::set_parallelism`] and
    /// what it resolved to: `0` asks the host, which is a syscall and a
    /// cgroup walk — done when the setting changes, not per event.
    requested: usize,
    threads: usize,
    /// Pooled-round input buffers, reclaimed via `Arc::get_mut` once the
    /// workers drop their clones at the end of each round.
    snapshot: Option<Arc<Vec<MachineState>>>,
    live_shared: Option<SharedLiveRows>,
}

impl Cells {
    /// `machines` empty cells on the calling thread.
    pub(super) fn new(machines: usize) -> Self {
        Self {
            store: CellStore::Local((0..machines).map(|_| MachineCache::default()).collect()),
            requested: 1,
            threads: 1,
            snapshot: None,
            live_shared: None,
        }
    }

    /// True when the cells currently live in the worker pool.
    pub(super) fn pool_active(&self) -> bool {
        matches!(self.store, CellStore::Pooled(_))
    }

    /// Runs `f` against cell `i` on the calling thread — the single-cell
    /// request path (scores, tail/slot queries, column refreshes).
    pub(super) fn with<R>(&mut self, i: usize, f: impl FnOnce(&mut MachineCache) -> R) -> R {
        self.store.with(i, f)
    }

    /// [`Cells::with`] for callers that want to keep *borrowing* what `f`
    /// picks out of the cell. A borrow cannot escape a pooled cell's lock,
    /// so in pooled mode the value is copied into `buf` (reusing its
    /// storage) and `buf` is what the caller borrows.
    pub(super) fn view<'a, T: Clone>(
        &'a mut self,
        i: usize,
        buf: &'a mut T,
        f: impl for<'c> FnOnce(&'c mut MachineCache) -> &'c T,
    ) -> &'a T {
        match &mut self.store {
            CellStore::Local(cells) => f(&mut cells[i]),
            CellStore::Pooled(pool) => {
                pool.with_cell(i, |cell| buf.clone_from(f(cell)));
                buf
            }
        }
    }

    /// Picks the execution mode for `live` schedulable machines under the
    /// mapper's `threads` setting (see `ProbScorer::set_parallelism`): a
    /// pool of `min(threads, live)` workers, or the calling thread. Cells
    /// migrate intact either way, so cached chains survive.
    pub(super) fn set_parallelism(&mut self, threads: usize, live: usize) {
        if self.requested != threads {
            self.requested = threads;
            self.threads = resolve_threads(threads);
        }
        let want =
            (self.threads > 1 && live >= PARALLEL_MIN_MACHINES).then(|| self.threads.min(live));
        let have = match &self.store {
            CellStore::Local(_) => None,
            CellStore::Pooled(pool) => Some(pool.threads()),
        };
        if want == have {
            return;
        }
        let cells = self.take_cells();
        self.store = match want {
            Some(width) => CellStore::Pooled(WorkerPool::new(cells, width)),
            None => CellStore::Local(cells),
        };
    }

    /// Moves the cells out (joining the pool's workers if there is one),
    /// leaving an empty local store behind.
    fn take_cells(&mut self) -> Vec<MachineCache> {
        match std::mem::replace(&mut self.store, CellStore::Local(Vec::new())) {
            CellStore::Local(cells) => cells,
            CellStore::Pooled(pool) => pool.into_cells(),
        }
    }

    /// See `ProbScorer::shutdown`.
    pub(super) fn shutdown(&mut self, timeout: Duration) -> bool {
        let CellStore::Pooled(pool) = &mut self.store else { return true };
        let clean = pool.shutdown(timeout);
        // On a timeout the workers still hold the shared cells; start over
        // with cold caches rather than blocking on the wedged pool.
        let cells = if clean {
            self.take_cells()
        } else {
            (0..pool.len()).map(|_| MachineCache::default()).collect()
        };
        self.store = CellStore::Local(cells);
        clean
    }

    /// The pool's worker threads, observed by running one round (empty
    /// without a pool) — lets tests tell a kept pool from a rebuilt one.
    #[cfg(test)]
    pub(super) fn worker_ids(&self) -> std::collections::HashSet<std::thread::ThreadId> {
        let ids = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        if let CellStore::Pooled(pool) = &self.store {
            let sink = Arc::clone(&ids);
            pool.run(move |_, _| {
                sink.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let ids = ids.lock().unwrap();
        ids.clone()
    }

    /// One warm-up fan-out: brings the cell of every machine `filter`
    /// admits up to date at `now`. A pool round when pooled and
    /// `parallel`; an in-order loop on the calling thread otherwise.
    pub(super) fn warm(
        &mut self,
        shared: &Arc<ScorerShared>,
        now: Time,
        machines: &[MachineState],
        filter: WarmFilter,
        want_stats: bool,
        parallel: bool,
    ) {
        match &mut self.store {
            CellStore::Pooled(pool) if parallel => {
                let snap = share_snapshot(&mut self.snapshot, machines);
                let shared = Arc::clone(shared);
                pool.run(move |i, cell| {
                    let machine = &snap[i];
                    if filter.admits(machine) {
                        cell.ensure(&shared, now, machine, want_stats);
                    }
                });
            }
            store => {
                for (i, machine) in machines.iter().enumerate() {
                    if filter.admits(machine) {
                        store.with(i, |cell| cell.ensure(shared, now, machine, want_stats));
                    }
                }
            }
        }
    }

    /// Fan-out 2 of a score-table rebuild: scores the bound-surviving rows
    /// against the free machines of the shards they survived in —
    /// `live_by_shard[s]` lists the rows live in shard `s`, and machine `m`
    /// scores those of `live_by_shard[m / width]` its own per-pair bound
    /// lets through (see [`score_column_scatter`]) — one column per
    /// machine, merged into `cols` in machine-index order, with each
    /// column's count of scored pairs in `col_scores`. Cells must already
    /// be warm for the free machines. Returns the pairs scored and the
    /// walks stopped below their threshold.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fill_columns(
        &mut self,
        shared: &Arc<ScorerShared>,
        machines: &[MachineState],
        live_by_shard: &[Vec<LiveRow>],
        rows: usize,
        cols: &mut [Vec<Option<PairScore>>],
        col_scores: &mut [usize],
        parallel: bool,
    ) -> PairWork {
        let mut total = PairWork::default();
        match &mut self.store {
            CellStore::Pooled(pool) if parallel => {
                let snap = share_snapshot(&mut self.snapshot, machines);
                let live = share_live(&mut self.live_shared, live_by_shard);
                let shared = Arc::clone(shared);
                pool.run(move |i, cell| {
                    let machine = &snap[i];
                    let MachineCache { cache, col, col_work, cutoffs, .. } = cell;
                    col.clear();
                    col.resize(rows, None);
                    *col_work = if machine.has_free_slot() {
                        let live = &live[i / TABLE_SHARD_WIDTH];
                        score_column_scatter(cache.tail(), &shared, machine, live, cutoffs, col)
                    } else {
                        PairWork::default()
                    };
                });
                // Index-ordered merge: swap each worker-filled column into
                // the table (and recycle the table's old buffer as the
                // cell's next scratch).
                for (i, (col, count)) in cols.iter_mut().zip(col_scores.iter_mut()).enumerate() {
                    let work = pool.with_cell(i, |cell| {
                        std::mem::swap(col, &mut cell.col);
                        cell.col_work
                    });
                    *count = work.scored;
                    total += work;
                }
            }
            store => {
                let columns = cols.iter_mut().zip(col_scores.iter_mut());
                for ((i, machine), (col, count)) in machines.iter().enumerate().zip(columns) {
                    col.clear();
                    col.resize(rows, None);
                    let work = if machine.has_free_slot() {
                        let live = &live_by_shard[i / TABLE_SHARD_WIDTH];
                        store.with(i, |cell| {
                            let MachineCache { cache, cutoffs, .. } = cell;
                            score_column_scatter(cache.tail(), shared, machine, live, cutoffs, col)
                        })
                    } else {
                        PairWork::default()
                    };
                    *count = work.scored;
                    total += work;
                }
            }
        }
        total
    }
}

/// Clones `machines` into the reusable `Arc` snapshot buffer a pooled
/// round ships to its `'static` workers. Workers drop their `Arc` clones
/// before acknowledging the round, so `Arc::get_mut` reclaims the buffer
/// — and `MachineState::clone_from` the per-machine queue buffers — every
/// time after the first.
///
/// The update is **version-delta**: a buffered machine whose
/// `(id, version)` already matches the live one is skipped entirely —
/// `MachineState::version()` bumps on every mutation, and the whole
/// incremental-cache layer already keys on it, so an equal version means
/// identical content. In particular the second round of a
/// [`super::ScoreTable::rebuild`] (machines untouched since the warm round)
/// costs a scalar compare per machine, not a re-clone.
fn share_snapshot(
    slot: &mut Option<Arc<Vec<MachineState>>>,
    machines: &[MachineState],
) -> Arc<Vec<MachineState>> {
    let mut arc = slot.take().unwrap_or_else(|| Arc::new(Vec::new()));
    match Arc::get_mut(&mut arc) {
        Some(buf) => {
            buf.truncate(machines.len());
            let filled = buf.len();
            for (dst, src) in buf.iter_mut().zip(machines) {
                if dst.id() != src.id() || dst.version() != src.version() {
                    dst.clone_from(src);
                }
            }
            buf.extend(machines[filled..].iter().cloned());
        }
        None => arc = Arc::new(machines.to_vec()),
    }
    *slot = Some(Arc::clone(&arc));
    arc
}

/// Same reuse pattern for the per-shard live window rows of a column
/// round (inner buffers keep their capacity across events).
fn share_live(slot: &mut Option<SharedLiveRows>, live_by_shard: &[Vec<LiveRow>]) -> SharedLiveRows {
    let mut arc = slot.take().unwrap_or_else(|| Arc::new(Vec::new()));
    match Arc::get_mut(&mut arc) {
        Some(buf) => {
            buf.resize_with(live_by_shard.len(), Vec::new);
            for (dst, src) in buf.iter_mut().zip(live_by_shard) {
                dst.clear();
                dst.extend_from_slice(src);
            }
        }
        None => arc = Arc::new(live_by_shard.to_vec()),
    }
    *slot = Some(Arc::clone(&arc));
    arc
}
