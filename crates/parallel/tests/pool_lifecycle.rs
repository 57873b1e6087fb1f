//! Lifecycle guarantees of the persistent [`WorkerPool`]: clean
//! drain-and-join on drop, panic propagation (poison, never deadlock),
//! and reusability across thousands of consecutive rounds — the shape of
//! a long simulation, where one pool serves every mapping event.

use hcsim_parallel::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn drop_drains_and_joins_workers() {
    let executions = Arc::new(AtomicUsize::new(0));
    {
        let pool = WorkerPool::new(vec![0u8; 16], 4);
        let counter = Arc::clone(&executions);
        pool.run(move |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        // Drop happens here: workers must exit their loop and join. A
        // hang would time the whole test binary out.
    }
    assert_eq!(executions.load(Ordering::Relaxed), 16, "round ran before the drop");
}

#[test]
fn reusable_across_thousands_of_rounds() {
    // One pool, one simulation's worth of mapping events: every round
    // must run every cell exactly once, with no worker attrition and no
    // cross-round leakage.
    const ROUNDS: u64 = 3_000;
    let pool = WorkerPool::new(vec![0u64; 24], 3);
    for round in 0..ROUNDS {
        pool.run(move |i, c| *c += round + i as u64);
    }
    // Σ (round + i) over rounds = ROUNDS*(ROUNDS-1)/2 + i*ROUNDS.
    let base = ROUNDS * (ROUNDS - 1) / 2;
    for i in 0..24 {
        assert_eq!(pool.with_cell(i, |c| *c), base + i as u64 * ROUNDS, "cell {i}");
    }
    assert_eq!(pool.threads(), 3, "no worker died along the way");
}

#[test]
fn panicking_job_poisons_and_propagates_without_deadlocking() {
    let pool = WorkerPool::new(vec![0u32; 8], 2);

    // The round whose job panics must panic on the caller, not hang.
    let round = catch_unwind(AssertUnwindSafe(|| {
        pool.run(|i, c| {
            if i == 1 {
                panic!("job blew up on cell 1");
            }
            *c += 1;
        });
    }));
    assert!(round.is_err(), "the panic must reach the caller");

    // Subsequent rounds fail fast *before dispatching to anyone*
    // instead of deadlocking on the dead worker or half-applying the
    // round to the surviving shards.
    let before = catch_unwind(AssertUnwindSafe(|| pool.with_cell(7, |c| *c)))
        .expect("cell outside the panicked shard is readable");
    let next = catch_unwind(AssertUnwindSafe(|| pool.run(|_, c| *c += 1)));
    assert!(next.is_err(), "rounds after a worker death must error, not hang");
    assert_eq!(
        pool.with_cell(7, |c| *c),
        before,
        "the failed round must not have reached any cell"
    );

    // The cell the job held while panicking is poisoned.
    let poisoned = catch_unwind(AssertUnwindSafe(|| pool.with_cell(1, |c| *c)));
    assert!(poisoned.is_err(), "the panicked job's cell must be poisoned");

    // A cell outside the panicked shard is still readable.
    let alive = catch_unwind(AssertUnwindSafe(|| pool.with_cell(7, |c| *c)));
    assert!(alive.is_ok(), "cells outside the panicked shard stay usable");

    // And the drop below must still join cleanly (no hang).
}

#[test]
fn into_cells_round_trips_ownership() {
    // Ownership hand-back: pool → cells → new pool with another worker
    // count, preserving state — the re-shard path a thread-knob change
    // takes.
    let pool = WorkerPool::new((0..20u32).collect::<Vec<_>>(), 2);
    pool.run(|_, c| *c += 100);
    let cells = pool.into_cells();
    assert_eq!(cells.len(), 20);
    let pool = WorkerPool::new(cells, 5);
    assert_eq!(pool.threads(), 5);
    pool.run(|_, c| *c += 1);
    for i in 0..20 {
        assert_eq!(pool.with_cell(i, |c| *c), i as u32 + 101, "cell {i}");
    }
}

#[test]
fn membership_epoch_reshard_sequence() {
    // A churn-driven lifetime: the pool resizes on every membership epoch
    // (machines joining/leaving change the desired fan-out width) while
    // the per-cell state — the scorer's cache warmth — survives every
    // re-shard, including collapse to a single worker and back.
    let mut pool = WorkerPool::new(vec![0u64; 33], 4);
    let mut rounds = 0u64;
    for &threads in &[4usize, 6, 2, 1, 8, 3] {
        pool = pool.reshard(threads);
        for _ in 0..5 {
            pool.run(|i, c| *c = c.wrapping_add(i as u64 + 1));
            rounds += 1;
        }
    }
    for i in 0..33 {
        assert_eq!(pool.with_cell(i, |c| *c), rounds * (i as u64 + 1), "cell {i}");
    }
}
