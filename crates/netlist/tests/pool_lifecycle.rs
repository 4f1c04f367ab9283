//! Lifecycle and leak regression tests for the persistent worker pool.
//!
//! These live in their own integration-test binary (their own process)
//! so the [`netlist::pool::alive_workers`] accounting they assert on is
//! not perturbed by unrelated tests acquiring the shared pool. Within
//! the binary, every test serializes on [`pool_mutex`] for the same
//! reason. The `GATE_SIM_THREADS={1,2,4}` CI matrix runs this file at
//! each thread count, so the join-on-drop guarantee is exercised with
//! real concurrency at every shape.
//!
//! Simulators hold the pool through [`ShardedSim`]: a sharded simulator
//! acquires it when its thread count (clamped to its physical shard
//! count) exceeds one.

use netlist::pool::{alive_workers, WorkerPool};
use netlist::{Builder, Netlist, ShardPolicy, ShardedSim, Sim};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests in this binary: each one asserts on the
/// process-wide worker census, which only holds still while it is the
/// sole pool user.
fn pool_mutex() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The thread count the CI matrix asked for, with a multi-threaded
/// default so the pool genuinely spawns when the variable is unset.
fn matrix_threads() -> usize {
    netlist::env_threads().unwrap_or(2)
}

/// A pooled simulator: `threads` unfused 64-lane shards (one per thread,
/// so the clamp keeps every thread).
fn pooled(nl: &Netlist, threads: usize) -> ShardedSim {
    ShardedSim::with_policy(
        nl,
        ShardPolicy {
            shards: threads,
            lanes_per_shard: 64,
            threads,
            lane_words: 1,
        },
    )
}

fn counter(bits: usize) -> Netlist {
    let mut b = Builder::new();
    let ffs: Vec<_> = (0..bits).map(|_| b.dff(false)).collect();
    let one = netlist::bus::constant(&mut b, 1, bits);
    let (next, _) = netlist::bus::add(&mut b, &ffs, &one);
    for (ff, d) in ffs.iter().zip(&next) {
        b.connect_dff(*ff, *d);
    }
    b.output_bus("count", &ffs);
    b.finish()
}

/// Dropping the last simulator that holds the pool joins every worker:
/// no detached threads survive, at any `GATE_SIM_THREADS` shape.
#[test]
fn dropping_the_last_sim_joins_all_workers() {
    let _guard = pool_mutex();
    let threads = matrix_threads().max(2);
    let before = alive_workers();
    let nl = counter(6);
    {
        let mut blocks = pooled(&nl, threads);
        let mut sharded = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: threads * 2,
                lanes_per_shard: 2,
                threads,
                ..ShardPolicy::single()
            },
        );
        for _ in 0..5 {
            blocks.eval();
            blocks.step();
            sharded.eval();
            sharded.step();
        }
        assert!(
            alive_workers() >= before + threads - 1,
            "pooled policies must have spawned workers"
        );
        // Each simulator holds its own handle; dropping one must not
        // tear the pool down under the other.
        drop(blocks);
        assert!(alive_workers() >= before + threads - 1);
        sharded.eval();
        drop(sharded);
    }
    // All simulators are gone: WorkerPool::drop has joined every thread
    // synchronously, so the census is back immediately — no polling.
    assert_eq!(
        alive_workers(),
        before,
        "dropping the last sim must join all pool workers"
    );
}

/// Simulators acquire one shared pool instance, and an explicit
/// [`WorkerPool::shared`] call while they are alive returns that same
/// instance rather than spawning a second roster.
#[test]
fn concurrent_sims_share_one_pool_instance() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl = counter(4);
    let a = pooled(&nl, 2);
    let spawned_for_a = alive_workers() - before;
    let b = pooled(&nl, 2);
    assert_eq!(
        alive_workers() - before,
        spawned_for_a,
        "a second sim with the same needs must not spawn a second roster"
    );
    let first = WorkerPool::shared(1);
    let second = WorkerPool::shared(1);
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "the registry must hand out one shared instance"
    );
    drop((first, second, a, b));
    assert_eq!(alive_workers(), before);
}

/// Growing a simulator's thread count ([`ShardedSim::set_threads`])
/// grows the shared roster in place; shrinking parks the surplus instead
/// of churning threads, and results stay exact throughout (the
/// bit-identity half is property-tested — here we pin the roster census
/// and a smoke-check of the values).
#[test]
fn resize_grows_in_place_and_shrink_parks_workers() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl = counter(8);
    let mut reference = Sim::new(&nl);
    // Four single-lane shards, so every thread count up to 4 survives the
    // clamp.
    let mut sim = ShardedSim::with_policy(
        &nl,
        ShardPolicy {
            shards: 4,
            lanes_per_shard: 1,
            threads: 1,
            ..ShardPolicy::single()
        },
    );
    let mut census_high = 0;
    // The schedule never passes back through 1 thread: a sequential
    // simulator releases the pool handle outright (covered by
    // `sequential_policies_keep_no_workers`), which would churn the
    // roster this test pins as stable across shrinks.
    for (cycle, threads) in [1usize, 4, 2, 4, 3].into_iter().enumerate() {
        sim.set_threads(threads);
        census_high = census_high.max(alive_workers() - before);
        reference.eval();
        sim.eval();
        for lane in 0..4 {
            assert_eq!(
                sim.get_bus_lane("count", lane),
                reference.get_bus_u64("count"),
                "cycle {cycle} under {threads} threads"
            );
        }
        reference.step();
        sim.step();
    }
    assert!(
        census_high >= 3,
        "the 4-thread policy must have grown to 3+"
    );
    assert_eq!(
        alive_workers() - before,
        census_high,
        "shrinking parks workers, it does not churn threads"
    );
    drop(sim);
    assert_eq!(alive_workers(), before, "last handle joins the roster");
}

/// Evaluators nested *two* levels below a pool job submit their own
/// jobs to the same pool and compute what they compute at top level. The
/// chain is: a `par_shards` job → a threaded `ShardedSim` evaluated
/// inside it → a third threaded `ShardedSim` evaluated inside that one's
/// `par_shards` job. With one outer thread the outer run is inline, so
/// the inner simulators are top-level submissions; with two, every inner
/// job is nested.
#[test]
fn nested_evaluators_run_on_the_pool_and_match_top_level() {
    let _guard = pool_mutex();
    let nl = counter(5);
    let inner_nl = counter(4);
    let two_threads = ShardPolicy {
        shards: 2,
        lanes_per_shard: 1,
        threads: 2,
        ..ShardPolicy::single()
    };
    let run = |outer_threads: usize| {
        let mut outer = ShardedSim::with_policy(
            &nl,
            ShardPolicy {
                shards: 2,
                lanes_per_shard: 2,
                threads: outer_threads,
                ..ShardPolicy::single()
            },
        );
        outer.par_shards(|_, shard| {
            let mut inner = ShardedSim::with_policy(&inner_nl, two_threads);
            let innermost = inner.par_shards(|_, inner_shard| {
                let mut innermost = ShardedSim::with_policy(&inner_nl, two_threads);
                for _ in 0..3 {
                    innermost.eval();
                    innermost.step();
                    inner_shard.eval();
                    inner_shard.step();
                }
                (innermost.cycles(), innermost.get_bus_lane("count", 0))
            });
            for _ in 0..3 {
                inner.eval();
                inner.step();
                shard.eval();
                shard.step();
            }
            (inner.cycles(), inner.get_bus_lane("count", 0), innermost)
        })
    };
    let top_level = run(1);
    // Each inner sim's shards stepped 3 cycles inside its own
    // `par_shards` job and 3 more after it; every last settle published
    // the count of the cycle before it.
    let innermost = vec![(3, 2), (3, 2)];
    assert_eq!(
        top_level,
        vec![(6, 5, innermost.clone()), (6, 5, innermost)]
    );
    assert_eq!(run(2), top_level, "nested jobs diverged from top level");
}

/// A job may submit another job to the same pool from inside its
/// closure: the nested submitter runs its own tids, so the call returns
/// even when every worker is busy in the outer job.
#[test]
fn nested_pool_run_from_inside_a_job_returns() {
    let _guard = pool_mutex();
    let pool = WorkerPool::shared(1);
    let hits = AtomicUsize::new(0);
    pool.run(2, |_, _| {
        pool.run(3, |_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(
        hits.load(Ordering::SeqCst),
        6,
        "both nested jobs ran every tid"
    );
}

/// With the only worker of a pool held inside a stalled job, a second job
/// submitted from another thread completes on its submitter alone, and
/// submitting it spawns no worker.
#[test]
fn a_job_completes_on_its_submitter_while_the_only_worker_is_stalled() {
    let _guard = pool_mutex();
    let pool = WorkerPool::new(1);
    let census = alive_workers();
    let gate = AtomicBool::new(false);
    let stalled = AtomicUsize::new(0);
    let (hits, on_submitter, census_during, workers_during) = std::thread::scope(|s| {
        s.spawn(|| {
            pool.run(2, |_, _| {
                stalled.fetch_add(1, Ordering::SeqCst);
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        });
        // Both tids are stalled: the stalled job's submitter is stuck in
        // one, so the only worker holds the other.
        while stalled.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let me = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        let on_submitter = AtomicUsize::new(0);
        pool.run(2, |_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
            if std::thread::current().id() == me {
                on_submitter.fetch_add(1, Ordering::SeqCst);
            }
        });
        let observed = (
            hits.into_inner(),
            on_submitter.into_inner(),
            alive_workers(),
            pool.worker_count(),
        );
        // Release the stalled job before asserting, so a failure cannot
        // leave the scope waiting on it forever.
        gate.store(true, Ordering::SeqCst);
        observed
    });
    assert_eq!(hits, 2, "the second job ran every tid");
    assert_eq!(on_submitter, 2, "its submitter ran both tids");
    assert_eq!(census_during, census, "submitting spawned no worker");
    assert_eq!(workers_during, 1);
}

/// Multi-job admission: two threads submit independent pooled
/// evaluations concurrently, and every result is bit-identical to the
/// same run serialized on one thread. Afterwards the census is back at
/// the baseline: concurrent submission leaks no workers.
#[test]
fn concurrent_admissions_are_deterministic_and_leak_free() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl_a = counter(8);
    let nl_b = counter(6);
    let run = |nl: &Netlist, cycles: usize| {
        let mut sim = pooled(nl, matrix_threads().max(2));
        for _ in 0..cycles {
            sim.eval();
            sim.step();
        }
        sim.eval();
        (sim.get_bus_lane("count", 0), sim.toggles().to_vec())
    };
    // Serialized reference runs first, on this thread.
    let want_a = run(&nl_a, 37);
    let want_b = run(&nl_b, 53);
    // Now the same two workloads concurrently, from separate submitter
    // threads, several rounds to vary worker interleavings.
    for round in 0..10 {
        let gate = std::sync::Barrier::new(2);
        let (got_a, got_b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                gate.wait();
                run(&nl_a, 37)
            });
            gate.wait();
            let b = run(&nl_b, 53);
            (a.join().expect("submitter A panicked"), b)
        });
        assert_eq!(
            got_a, want_a,
            "job A diverged under concurrency (round {round})"
        );
        assert_eq!(
            got_b, want_b,
            "job B diverged under concurrency (round {round})"
        );
    }
    assert_eq!(
        alive_workers(),
        before,
        "concurrent admissions must not leak workers"
    );
}

/// A sequential simulator holds no pool handle at all: purely sequential
/// simulators never spawn (or keep alive) a single worker thread — and
/// neither does a threaded policy whose shards fuse into one block.
#[test]
fn sequential_policies_keep_no_workers() {
    let _guard = pool_mutex();
    let before = alive_workers();
    let nl = counter(5);
    let mut sim = pooled(&nl, 1);
    for _ in 0..3 {
        sim.eval();
        sim.step();
    }
    assert_eq!(alive_workers(), before, "one thread spawns nothing");
    // Four 64-lane shards fused into one 256-lane block: the clamp leaves
    // one thread, so the policy's two threads acquire nothing.
    let mut fused = ShardedSim::with_policy(
        &nl,
        ShardPolicy {
            shards: 4,
            lanes_per_shard: 64,
            threads: 2,
            lane_words: 4,
        },
    );
    fused.eval();
    assert_eq!(fused.thread_count(), 1);
    assert_eq!(
        alive_workers(),
        before,
        "a fused single block spawns nothing"
    );
    // Going parallel then back to sequential releases the handle.
    sim = pooled(&nl, 2);
    sim.eval();
    sim.set_threads(1);
    sim.eval();
    assert_eq!(
        alive_workers(),
        before,
        "a simulator back at one thread must have released the pool"
    );
}
