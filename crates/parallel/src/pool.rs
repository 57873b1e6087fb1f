//! A persistent, sharded worker pool for per-event fan-outs.
//!
//! A scoped fan-out ([`crate::parallel_map`]) spawns fresh OS threads on
//! every call — ~7–15 µs per thread per fan-out. That tax is invisible
//! when a fan-out happens once per trial, but the mapping event at cluster
//! scale fans out *several times per event*, tens of thousands of events
//! per simulation, and the spawn cost would dominate the work being
//! fanned out.
//!
//! [`WorkerPool`] amortizes that cost: workers are spawned **once**, and
//! each worker *owns a contiguous shard* of the per-index state cells for
//! the lifetime of the pool. A round ([`WorkerPool::run`]) is a
//! request/response exchange over channels — one job broadcast, one
//! acknowledgement per worker — costing a channel round-trip instead of a
//! thread spawn. Ownership transfer is what makes this possible in safe
//! Rust: scoped threads solved the `'static`-closure problem by borrowing,
//! which forces the threads to die at the end of the scope; the pool
//! instead *moves* the mutable state into shared cells at construction
//! (`Arc<Vec<Mutex<S>>>`), so workers are plain `'static` threads and jobs
//! only need to capture cheap `Arc` snapshots of per-round inputs.
//!
//! # Determinism
//!
//! The contract matches [`crate::parallel_map`]: `job(i, &mut cell_i)` runs
//! exactly once per index per round, each worker touches only its own
//! shard, and callers read results back in index order
//! ([`WorkerPool::with_cell`]). As long as the job is deterministic per
//! `(index, cell)`, results are bit-identical to a sequential loop at any
//! worker count.
//!
//! # Locking
//!
//! Every cell sits behind a `Mutex`, but contention is zero by
//! construction: during a round each worker locks only its own shard, and
//! between rounds only the owning thread of the pool handle touches cells.
//! The mutexes exist to satisfy the borrow checker across the ownership
//! transfer, not to arbitrate races — an uncontended lock/unlock is a few
//! nanoseconds against the microseconds a spawn used to cost.
//!
//! # Failure semantics
//!
//! A job that panics kills its worker and poisons the cell it held. The
//! caller does **not** deadlock: the in-flight [`WorkerPool::run`] panics
//! when the dead worker's acknowledgement channel disconnects, later
//! rounds panic at submission, and [`WorkerPool::with_cell`] panics on the
//! poisoned cell. Dropping the pool joins every surviving worker.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One round's work: `job(i, &mut cell_i)` for every index in a worker's
/// shard. `Arc` so a single allocation serves every worker.
type Job<S> = Arc<dyn Fn(usize, &mut S) + Send + Sync>;

struct Worker<S> {
    /// `None` once the pool has begun shutting down.
    job_tx: Option<Sender<Job<S>>>,
    done_rx: Receiver<()>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of worker threads, each owning a contiguous shard of
/// the state cells handed over at construction. See the module docs for
/// the design; see [`WorkerPool::run`] for the per-round contract.
pub struct WorkerPool<S: Send + 'static> {
    cells: Arc<Vec<Mutex<S>>>,
    workers: Vec<Worker<S>>,
    /// Set when a round observed a dead worker; later rounds then fail
    /// fast *before dispatching to anyone*, so a failed pool never
    /// half-applies a round to the surviving shards.
    dead: AtomicBool,
}

impl<S: Send + 'static> WorkerPool<S> {
    /// Spawns `threads` long-lived workers (capped at the cell count) and
    /// moves `cells` into the pool. Worker `w` owns the `w`-th contiguous
    /// chunk of indices, with the shards balanced to within one cell
    /// (`div_ceil` chunking would leave whole workers idle whenever
    /// `threads` does not divide the cell count evenly) — and fixed for
    /// the pool's lifetime, so shard-local cache warmth carries over from
    /// event to event.
    #[must_use]
    pub fn new(cells: Vec<S>, threads: usize) -> Self {
        let n = cells.len();
        let threads = threads.clamp(1, n.max(1));
        let cells: Arc<Vec<Mutex<S>>> = Arc::new(cells.into_iter().map(Mutex::new).collect());
        let (base, extra) = (n / threads, n % threads);
        let mut workers = Vec::with_capacity(threads);
        let mut start = 0;
        for w in 0..threads {
            let end = start + base + usize::from(w < extra);
            let (job_tx, job_rx) = mpsc::channel::<Job<S>>();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let shard_cells = Arc::clone(&cells);
            let handle = std::thread::Builder::new()
                .name(format!("hcsim-pool-{w}"))
                .spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        for i in start..end {
                            let mut cell = shard_cells[i]
                                .lock()
                                .expect("cell poisoned by an earlier panicked job");
                            job(i, &mut cell);
                        }
                        // Release the job (and the Arc'd per-round inputs
                        // it captured) *before* acknowledging, so callers
                        // can reclaim snapshot buffers via `Arc::get_mut`.
                        drop(job);
                        if done_tx.send(()).is_err() {
                            break; // pool handle dropped mid-round
                        }
                    }
                })
                .expect("spawn pool worker");
            workers.push(Worker { job_tx: Some(job_tx), done_rx, handle: Some(handle) });
            start = end;
        }
        debug_assert_eq!(start, n, "shards must cover every cell exactly once");
        Self { cells, workers, dead: AtomicBool::new(false) }
    }

    /// Number of state cells the pool owns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the pool owns no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of live worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// One request/response round: broadcasts `job` to every worker,
    /// which runs `job(i, &mut cell_i)` over its shard, and blocks until
    /// every worker acknowledges. Results land in the cells; read them
    /// back with [`WorkerPool::with_cell`] in index order for
    /// deterministic merges.
    ///
    /// # Panics
    ///
    /// Panics — instead of deadlocking — when a worker died (a previous
    /// job panicked) or dies during this round. Once a round has failed,
    /// every later round panics *before dispatching to any worker*, so
    /// surviving shards never execute part of a failed round.
    pub fn run<F>(&self, job: F)
    where
        F: Fn(usize, &mut S) + Send + Sync + 'static,
    {
        assert!(
            !self.dead.load(Ordering::Relaxed),
            "pool is dead: a worker panicked in an earlier round"
        );
        let job: Job<S> = Arc::new(job);
        for worker in &self.workers {
            if worker
                .job_tx
                .as_ref()
                .expect("pool is shutting down")
                .send(Arc::clone(&job))
                .is_err()
            {
                self.dead.store(true, Ordering::Relaxed);
                panic!("pool worker exited: an earlier job panicked");
            }
        }
        drop(job);
        // Collect every acknowledgement before reporting failure: a dead
        // worker's channel errors immediately, but the surviving workers
        // must finish their shards first, so a failed `run` never unwinds
        // with the round still executing somewhere (callers may inspect
        // cells right after catching the panic).
        let mut worker_died = false;
        for worker in &self.workers {
            worker_died |= worker.done_rx.recv().is_err();
        }
        if worker_died {
            self.dead.store(true, Ordering::Relaxed);
            panic!("pool worker panicked while executing the job");
        }
    }

    /// Direct access to one cell from the caller's thread, for
    /// between-round reads/updates (index-ordered merges, single-cell
    /// requests). Must not race a round that touches the same cell — the
    /// lock makes that safe but blocks until the worker is done.
    ///
    /// # Panics
    ///
    /// Panics if the cell was poisoned by a panicked job.
    pub fn with_cell<R>(&self, index: usize, f: impl FnOnce(&mut S) -> R) -> R {
        let mut cell = self.cells[index].lock().expect("cell poisoned by a panicked job");
        f(&mut cell)
    }

    /// Rebuilds the pool with a different worker count: joins the old
    /// workers, moves the cells — *with all their accumulated state* —
    /// into a fresh shard layout, and spawns the new workers. This is the
    /// membership-epoch reshard: when machines join or leave a cluster the
    /// desired fan-out width changes, but surviving machines' cells (and
    /// the cache warmth inside them) must carry over untouched.
    ///
    /// # Panics
    ///
    /// Panics if a cell was poisoned by a panicked job.
    #[must_use]
    pub fn reshard(self, threads: usize) -> Self {
        Self::new(self.into_cells(), threads)
    }

    /// Joins every worker and hands the cells back, ending the pool's
    /// ownership (e.g. to re-shard with a different worker count).
    ///
    /// # Panics
    ///
    /// Panics if a cell was poisoned by a panicked job.
    #[must_use]
    pub fn into_cells(mut self) -> Vec<S> {
        self.join_workers();
        let cells = Arc::clone(&self.cells);
        drop(self);
        let cells = Arc::try_unwrap(cells)
            .unwrap_or_else(|_| unreachable!("workers joined; no other refs to the cells"));
        cells.into_iter().map(|c| c.into_inner().expect("cell poisoned")).collect()
    }

    /// Graceful, bounded shutdown for service exit paths: closes the job
    /// channels (workers drain any queued round and exit their loop), then
    /// waits up to `timeout` for every worker thread to finish. Returns
    /// true when all workers exited within the deadline — their handles
    /// are then joined, so no thread outlives the call. On timeout the
    /// stragglers are **detached** (handles dropped) and false is
    /// returned: the caller's exit path never deadlocks behind a wedged
    /// worker, at the cost of leaking that thread until process exit.
    ///
    /// The pool accepts no further rounds afterwards either way; reclaim
    /// state with [`WorkerPool::into_cells`] only after a `true` return.
    pub fn shutdown(&mut self, timeout: Duration) -> bool {
        for worker in &mut self.workers {
            worker.job_tx.take();
        }
        let deadline = Instant::now() + timeout;
        loop {
            let all_finished =
                self.workers.iter().all(|w| w.handle.as_ref().is_none_or(JoinHandle::is_finished));
            if all_finished {
                // Every thread has exited its loop; joining is now
                // instantaneous and cannot block past the deadline.
                self.join_workers();
                return true;
            }
            if Instant::now() >= deadline {
                self.workers.clear(); // detach stragglers
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Closes the job channels (workers drain and exit their loop) and
    /// joins every worker thread. Join errors from already-panicked
    /// workers are swallowed: the panic was surfaced to the caller by the
    /// round that triggered it.
    fn join_workers(&mut self) {
        for worker in &mut self.workers {
            worker.job_tx.take();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
        self.workers.clear();
    }
}

impl<S: Send + 'static> Drop for WorkerPool<S> {
    fn drop(&mut self) {
        self.join_workers();
    }
}

impl<S: Send + 'static> std::fmt::Debug for WorkerPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("cells", &self.cells.len())
            .field("threads", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_matches_sequential() {
        let hash = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pool = WorkerPool::new(vec![0u64; 37], 4);
        pool.run(move |i, c| *c = hash(i));
        for i in 0..37 {
            assert_eq!(pool.with_cell(i, |c| *c), hash(i), "cell {i}");
        }
    }

    #[test]
    fn shards_cover_every_index_once() {
        for threads in [1usize, 2, 3, 5, 8, 64] {
            let pool = WorkerPool::new(vec![0u32; 23], threads);
            pool.run(|_, c| *c += 1);
            pool.run(|_, c| *c += 1);
            for i in 0..23 {
                assert_eq!(pool.with_cell(i, |c| *c), 2, "threads={threads} cell {i}");
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        let empty = WorkerPool::new(Vec::<u8>::new(), 4);
        assert!(empty.is_empty());
        empty.run(|_, _| unreachable!("no cells"));
        let one = WorkerPool::new(vec![7u8], 16);
        assert_eq!(one.threads(), 1, "threads capped at cell count");
        one.run(|i, c| *c += i as u8 + 1);
        assert_eq!(one.with_cell(0, |c| *c), 8);
    }

    #[test]
    fn into_cells_returns_final_state() {
        let pool = WorkerPool::new((0..10u32).collect::<Vec<_>>(), 3);
        pool.run(|_, c| *c *= 2);
        let cells = pool.into_cells();
        assert_eq!(cells, (0..10u32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_joins_within_timeout_and_preserves_cells() {
        let mut pool = WorkerPool::new((0..10u32).collect::<Vec<_>>(), 3);
        pool.run(|_, c| *c *= 2);
        assert!(pool.shutdown(Duration::from_secs(5)), "idle workers must exit promptly");
        assert_eq!(pool.threads(), 0, "no worker threads survive a clean shutdown");
        // State is intact and reclaimable after a clean shutdown.
        let cells = pool.into_cells();
        assert_eq!(cells, (0..10u32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_is_idempotent_and_does_not_deadlock() {
        let mut pool = WorkerPool::new(vec![0u8; 4], 2);
        assert!(pool.shutdown(Duration::from_secs(5)));
        assert!(pool.shutdown(Duration::from_millis(1)), "second shutdown is a no-op");
    }

    #[test]
    fn shutdown_times_out_on_wedged_worker_instead_of_hanging() {
        // A worker stuck inside a job never sees the closed job channel;
        // shutdown must give up at the deadline rather than join forever.
        let mut pool = WorkerPool::new(vec![0u8; 1], 1);
        // Hand the worker a job that blocks forever, bypassing `run` so
        // this thread is not itself blocked on the acknowledgement. The
        // leaked sender keeps the channel open, parking the worker.
        let (block_tx, block_rx) = mpsc::channel::<()>();
        std::mem::forget(block_tx);
        let block_rx = Mutex::new(block_rx);
        let job: Job<u8> = Arc::new(move |_, _| {
            let _ = block_rx.lock().unwrap().recv();
        });
        pool.workers[0].job_tx.as_ref().unwrap().send(job).unwrap();
        let start = Instant::now();
        assert!(!pool.shutdown(Duration::from_millis(100)), "wedged worker must time out");
        assert!(start.elapsed() < Duration::from_secs(2), "deadline must be honored");
        // Dropping the pool afterwards must not block on the detached
        // worker either.
        drop(pool);
    }

    #[test]
    fn reshard_preserves_cell_state_across_layouts() {
        let mut pool = WorkerPool::new(vec![0u64; 17], 4);
        pool.run(|i, c| *c += i as u64);
        for threads in [2usize, 8, 1, 3] {
            pool = pool.reshard(threads);
            assert_eq!(pool.threads(), threads.clamp(1, 17));
            pool.run(|i, c| *c += i as u64);
        }
        // 5 rounds total, each adding the index once.
        for i in 0..17 {
            assert_eq!(pool.with_cell(i, |c| *c), 5 * i as u64, "cell {i}");
        }
    }
}
