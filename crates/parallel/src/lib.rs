//! Deterministic fan-out primitives: a scoped map and a persistent pool.
//!
//! Two layers of the workspace fan work out across cores:
//!
//! * the experiment harness runs 30 independent workload trials per
//!   configuration (§VII-A) — [`parallel_map`], one scoped spawn per
//!   figure point;
//! * the mapping event scores a candidate task against *every* machine's
//!   completion-time chain independently (§IV), and the per-machine tail
//!   caches are disjoint mutable cells — [`WorkerPool`], whose workers are
//!   spawned once and own one shard of cells each, because the same cells
//!   are fanned out several times per event and a per-call spawn would
//!   dominate the work.
//!
//! Both primitives guarantee **index-ordered, scheduling-independent
//! results**: callers get the same output for the same input regardless of
//! thread count or interleaving, so determinism comes from per-index
//! derivation (RNG streams, machine indices), never from scheduling order.
//! This crate sits below `hcsim-core` in the dependency DAG (it depends
//! on nothing but `std` and the workspace's no-op serde markers), so the
//! mapping hot loop can use it without pulling in the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::WorkerPool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..n` using up to `threads` scoped worker threads,
/// returning results in index order.
///
/// `f` must be deterministic per index for reproducible experiments (all
/// callers derive per-index RNG streams). Panics in `f` propagate.
///
/// ```
/// use hcsim_parallel::parallel_map;
///
/// let squares = parallel_map(5, 2, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("every index was processed")
        })
        .collect()
}

/// Resolves a `threads` knob: `0` means *auto* (the host's available
/// parallelism), any other value is taken literally.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_index_order() {
        let out = parallel_map(100, 4, |i| i * i);
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn runs_every_index_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map(57, 3, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 10), vec![10]);
        assert_eq!(parallel_map(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
        // More threads than work.
        assert_eq!(parallel_map(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn matches_sequential_for_stateful_fn() {
        // A function that depends only on its index must give identical
        // results regardless of thread count.
        let seq = parallel_map(40, 1, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let par = parallel_map(40, 8, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(seq, par);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1, "auto resolves to at least one worker");
    }
}
