//! Persistent worker pool for parallel evaluation, in which the
//! submitting thread helps run its own job.
//!
//! Every multi-threaded evaluation ([`crate::sharded::ShardedSim`]'s
//! per-settle [`eval`](crate::sharded::ShardedSim::eval) and batched
//! [`par_shards`](crate::sharded::ShardedSim::par_shards), and through
//! them `hwlib`'s verification sweeps and mutation campaigns) runs as a
//! job on a [`WorkerPool`]. A fresh [`std::thread::scope`] per settle
//! costs hundreds of microseconds of thread creation and teardown; the
//! pool keeps its OS threads alive across settles instead.
//!
//! # The job protocol
//!
//! A job is a closure `f(tid, participants)` that must run once for every
//! tid in `0..participants`. [`WorkerPool::run`] puts one record per
//! submission — the type-erased closure, a claim counter and a completion
//! counter — on the pool's job list, bumps the pool-wide epoch and
//! unparks sleeping workers. Then the submitting thread claims tids off
//! the counter and runs them itself, while workers that wake in time
//! claim the rest. Once every tid is claimed the submitter takes the job
//! off the list and waits for the tids other threads claimed to finish:
//! the closure borrows the submitter's stack.
//!
//! No participant ever waits for another to *start*, so a job never
//! needs a free worker to make progress: with every worker busy, or with
//! none at all, it completes on its submitter alone. That is what lets a
//! closure submit a nested job (a sharded run inside a campaign's pool
//! job, say) with no fallback path. It is also why a closure must never
//! rendezvous with another tid of its job: one thread may run several
//! tids of a job in turn. Claimed tids are unique, which is what lets
//! jobs hand threads positional work with disjoint writes and no locks.
//!
//! # Wakeup and parking
//!
//! Idle workers watch the epoch: they spin (yielding instead on a single
//! hardware thread, where spinning would only steal the submitter's
//! quantum), then park. A worker re-checks the epoch after announcing
//! itself parked, and a submitter unparks workers whose parked flag it
//! sees after bumping the epoch, so no wakeup is lost. Back-to-back
//! settles arrive inside the spin window and never touch the futex.
//!
//! # Panics
//!
//! A tid whose closure panics is caught on whichever thread ran it, and
//! the *first* payload is kept. It reaches the submitter as
//! [`JobError::WorkerPanic`] from [`WorkerPool::run_with`], or re-raised
//! verbatim by [`WorkerPool::run`]. The remaining tids still run, and the
//! pool serves the next job at full width (`docs/robustness.md`).
//!
//! # Lifecycle
//!
//! The process-wide pool is created lazily by the first simulator whose
//! policy wants threads ([`WorkerPool::shared`]), grown by policies
//! asking for more workers than exist ([`WorkerPool::ensure_workers`]) —
//! submitting a job never grows it — and reference-counted by the
//! simulators holding it: dropping the last handle joins every worker
//! thread (regression-tested in `crates/netlist/tests/pool_lifecycle.rs`).
//! Results do not depend on which thread ran a tid (`docs/simulation.md`
//! § "Simulation as a service").

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{JoinHandle, Thread};

/// Spin iterations before a waiting thread starts yielding, and yield
/// iterations before it parks. On a single hardware thread the spin
/// phase is skipped (spinning can only delay the thread waited on).
const IDLE_SPINS: u32 = 256;
const IDLE_YIELDS: u32 = 64;

/// A captured panic payload, exactly as [`std::panic::catch_unwind`]
/// returns it.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Pool-spawned worker threads currently alive, process-wide. Purely
/// diagnostic: the shutdown/leak regression tests assert this returns to
/// its prior value once the last simulator holding a pool drops.
pub fn alive_workers() -> usize {
    ALIVE_WORKERS.load(SeqCst)
}

static ALIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide shared pool, held weakly: the pool lives exactly as
/// long as some simulator holds a strong handle.
static SHARED: Mutex<Weak<WorkerPool>> = Mutex::new(Weak::new());

/// True when a single hardware thread backs the whole process: busy
/// spinning then only delays the thread being waited on.
fn single_cpu() -> bool {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get())) == 1
}

/// One step of the spin-then-yield back-off shared by idle workers and
/// waiting submitters. Returns false once the waiter should park.
fn back_off(tries: &mut u32) -> bool {
    *tries = tries.saturating_add(1);
    if *tries < IDLE_SPINS && !single_cpu() {
        std::hint::spin_loop();
        true
    } else if *tries < IDLE_SPINS + IDLE_YIELDS {
        std::thread::yield_now();
        true
    } else {
        false
    }
}

/// Locks a mutex whose every update leaves the data valid, so a panic
/// on another thread while it held the lock poisons nothing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Typed failure of a pool job, from [`WorkerPool::run_with`].
pub enum JobError {
    /// A participant's closure panicked. `payload` is the *first*
    /// panicking participant's original payload, verbatim —
    /// [`WorkerPool::run`] re-raises it so `panic!("my message")` inside
    /// a job surfaces as `"my message"` at the submitter, never as a
    /// generic pool assertion.
    WorkerPanic {
        /// The captured panic payload.
        payload: PanicPayload,
    },
}

impl JobError {
    /// The panic message, when the payload is a string (the
    /// overwhelmingly common case).
    pub fn panic_message(&self) -> Option<&str> {
        let JobError::WorkerPanic { payload } = self;
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
    }
}

impl std::fmt::Debug for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let message = self.panic_message().unwrap_or("<non-string payload>");
        f.debug_struct("WorkerPanic")
            .field("message", &message)
            .finish()
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a pool participant panicked during the job: {}",
            self.panic_message().unwrap_or("<non-string payload>")
        )
    }
}

impl std::error::Error for JobError {}

/// Calls the closure `data` was erased from.
///
/// # Safety
///
/// `data` must be a `&F` cast to a pointer, and that `F` must still be
/// alive.
unsafe fn call_erased<F: Fn(usize, usize) + Sync>(data: *const (), tid: usize, n: usize) {
    // SAFETY: the caller guarantees `data` is a live `&F`.
    unsafe { (*(data as *const F))(tid, n) }
}

/// One submission: the erased closure plus its claim and completion
/// counters. Every submission gets a fresh record, so a worker holding
/// a finished job's record can only fail to claim from it.
struct Job {
    /// The submitter's `&F`, erased; called only through `call`.
    data: *const (),
    /// `call_erased::<F>`, which restores `data`'s type.
    call: unsafe fn(*const (), usize, usize),
    participants: usize,
    /// The next tid to hand out. It only grows, so every value below
    /// `participants` is handed out exactly once.
    next: AtomicUsize,
    /// Tids that have finished, on any thread.
    done: AtomicUsize,
    /// The first panicking tid's payload; later ones are dropped.
    panic: Mutex<Option<PanicPayload>>,
    /// The submitting thread, unparked by whichever tid finishes last.
    submitter: Thread,
}

// SAFETY: `data` is the only field that is neither `Send` nor `Sync`. It
// points at an `F: Sync`, so calling through it from any thread is sound,
// and it is dereferenced only by a thread that has just claimed a tid:
// the submitter does not return (and free `F`) before `done` counts every
// claimed tid, and once every tid is claimed no further claim succeeds.
unsafe impl Send for Job {}
// SAFETY: as for `Send`; every other field is `Sync`.
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next tid and runs it, catching a panic. Returns false,
    /// running nothing, once every tid is claimed.
    fn run_one(&self) -> bool {
        let tid = self.next.fetch_add(1, SeqCst);
        if tid >= self.participants {
            return false;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: `data` is the submitter's `&F` and `call` its
            // `call_erased::<F>`. The claim above keeps `F` alive until
            // the `done` increment below (see the `Send` impl).
            unsafe { (self.call)(self.data, tid, self.participants) }
        }));
        if let Err(payload) = result {
            lock(&self.panic).get_or_insert(payload);
        }
        if self.done.fetch_add(1, SeqCst) + 1 == self.participants {
            self.submitter.unpark();
        }
        true
    }
}

/// State shared between submitters and the worker threads.
struct PoolShared {
    /// Published jobs, oldest first. A submitter removes its own once
    /// every tid is claimed.
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Bumped once per published job. Idle workers wait for it to move,
    /// then scan `jobs`.
    epoch: AtomicU64,
    /// Pool shutdown flag (set once, by [`WorkerPool::drop`]).
    shutdown: AtomicBool,
}

/// One spawned worker: its join handle plus the parked flag a submitter
/// checks to decide whether an unpark syscall is needed.
struct Worker {
    handle: JoinHandle<()>,
    parked: Arc<AtomicBool>,
}

/// A persistent pool of worker threads that help submitters run their
/// jobs (see the module docs for the protocol).
///
/// Simulators normally obtain the process-wide instance through
/// [`WorkerPool::shared`] and hold the `Arc` for as long as their policy
/// wants threads; the pool joins all workers when the last handle drops.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Held only to spawn workers, for the post-publish unpark sweep and
    /// on drop — never across a running job.
    roster: Mutex<Vec<Worker>>,
    /// Lock-free shadow of the roster length.
    roster_len: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("epoch", &self.shared.epoch.load(SeqCst))
            .finish()
    }
}

impl WorkerPool {
    /// Creates a private pool with `workers` parked worker threads.
    ///
    /// Most callers want [`WorkerPool::shared`] instead so concurrent
    /// simulators reuse one set of OS threads.
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                jobs: Mutex::new(Vec::new()),
                epoch: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
            roster: Mutex::new(Vec::new()),
            roster_len: AtomicUsize::new(0),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide pool, created lazily and grown to at least
    /// `min_workers` pool-side workers (a job with `participants` total
    /// threads wants `participants - 1` of them beside its submitter).
    ///
    /// The registry holds the pool weakly: simulators keep it alive by
    /// holding the returned [`Arc`], and dropping the last handle joins
    /// every worker. A `GATE_SIM_THREADS` override seeds the initial size
    /// so the first acquisition already matches the CI matrix shape.
    pub fn shared(min_workers: usize) -> Arc<WorkerPool> {
        let mut slot = lock(&SHARED);
        if let Some(pool) = slot.upgrade() {
            pool.ensure_workers(min_workers);
            return pool;
        }
        let seed = crate::env_threads().map_or(0, |n| n.saturating_sub(1));
        let pool = Arc::new(WorkerPool::new(min_workers.max(seed)));
        *slot = Arc::downgrade(&pool);
        pool
    }

    /// Worker threads currently spawned. Lock-free so it can be read at
    /// any time without contending with submissions.
    pub fn worker_count(&self) -> usize {
        self.roster_len.load(SeqCst)
    }

    /// Grows the roster to at least `workers` threads (never shrinks — a
    /// policy asking for fewer threads simply leaves the extras parked,
    /// which costs nothing until shutdown). Safe to call from anywhere,
    /// including inside a job.
    pub fn ensure_workers(&self, workers: usize) {
        if self.worker_count() >= workers {
            return;
        }
        let mut roster = lock(&self.roster);
        while roster.len() < workers {
            let parked = Arc::new(AtomicBool::new(false));
            let (state, flag) = (Arc::clone(&self.shared), Arc::clone(&parked));
            ALIVE_WORKERS.fetch_add(1, SeqCst);
            let handle = std::thread::Builder::new()
                .name(format!("gate-sim-pool-{}", roster.len() + 1))
                .spawn(move || worker_main(state, flag))
                .unwrap_or_else(|e| {
                    ALIVE_WORKERS.fetch_sub(1, SeqCst);
                    panic!("spawning a gate-sim pool worker failed: {e}")
                });
            roster.push(Worker { handle, parked });
            self.roster_len.store(roster.len(), SeqCst);
        }
    }

    /// Runs `f(tid, participants)` once for every tid in
    /// `0..participants` and returns once all of them have finished. The
    /// calling thread runs tids itself; idle pool workers join in as they
    /// wake. Independent callers, and callers already inside a job, run
    /// concurrently on the same roster.
    ///
    /// `f` may rely on each tid being run by exactly one thread and on
    /// every side effect of the job happening-before `run` returns. It
    /// must not make one tid wait for another: a single thread may run
    /// several tids in turn. The second argument hands the participant
    /// count back so a closure can split fixed work by `tid` out of
    /// `participants` without capturing the count; claim-loop closures
    /// ignore both arguments.
    ///
    /// # Panics
    ///
    /// Re-raises, with its *original payload*, the first panic of `f` on
    /// any tid (see [`JobError::WorkerPanic`]).
    pub fn run<F: Fn(usize, usize) + Sync>(&self, participants: usize, f: F) {
        if let Err(JobError::WorkerPanic { payload }) = self.run_with(participants, f) {
            std::panic::resume_unwind(payload);
        }
    }

    /// [`WorkerPool::run`] with a typed result instead of a panic: every
    /// tid still runs, and the first panicking tid's payload comes back
    /// as [`JobError::WorkerPanic`].
    pub fn run_with<F: Fn(usize, usize) + Sync>(
        &self,
        participants: usize,
        f: F,
    ) -> Result<(), JobError> {
        let job = Arc::new(Job {
            data: &f as *const F as *const (),
            call: call_erased::<F>,
            participants,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            submitter: std::thread::current(),
        });
        let helpers = participants.saturating_sub(1).min(self.worker_count());
        if helpers > 0 {
            self.publish(&job, helpers);
        }
        while job.run_one() {}
        if helpers > 0 {
            lock(&self.shared.jobs).retain(|j| !Arc::ptr_eq(j, &job));
        }
        // Tids claimed by workers may still be running, and they borrow
        // `f`: wait for every one of them before `f` can drop.
        let mut tries = 0u32;
        while job.done.load(SeqCst) < participants {
            if !back_off(&mut tries) {
                // The last finisher unparks us; a stale token only costs
                // one more check.
                std::thread::park();
            }
        }
        let payload = lock(&job.panic).take();
        payload.map_or(Ok(()), |payload| Err(JobError::WorkerPanic { payload }))
    }

    /// Lists `job` for the workers and wakes up to `helpers` parked ones.
    /// Spinning workers see the epoch bump directly, which keeps the hot
    /// consecutive-settle path free of unpark syscalls.
    fn publish(&self, job: &Arc<Job>, helpers: usize) {
        lock(&self.shared.jobs).push(Arc::clone(job));
        self.shared.epoch.fetch_add(1, SeqCst);
        let roster = lock(&self.roster);
        for worker in roster
            .iter()
            .filter(|w| w.parked.load(SeqCst))
            .take(helpers)
        {
            worker.handle.thread().unpark();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        let workers = std::mem::take(&mut *lock(&self.roster));
        for worker in &workers {
            worker.handle.thread().unpark();
        }
        for worker in workers {
            // Workers catch every job panic, so a join error would be a
            // pool bug; `Drop` must not panic over it.
            let _ = worker.handle.join();
        }
    }
}

/// Keeps [`alive_workers`] exact however a worker thread exits.
struct Census;

impl Drop for Census {
    fn drop(&mut self) {
        ALIVE_WORKERS.fetch_sub(1, SeqCst);
    }
}

/// The worker thread body: wait for the publication epoch to move, help
/// every job with unclaimed tids, repeat until shutdown.
fn worker_main(shared: Arc<PoolShared>, parked: Arc<AtomicBool>) {
    let _census = Census;
    let mut seen = 0u64;
    loop {
        let mut tries = 0u32;
        let epoch = loop {
            if shared.shutdown.load(SeqCst) {
                return;
            }
            let e = shared.epoch.load(SeqCst);
            if e != seen {
                break e;
            }
            if !back_off(&mut tries) {
                // Park handshake: announce, re-check, then sleep. A
                // submitter that misses the flag has bumped the epoch
                // first, so the re-check catches it; one that sees the
                // flag sends an unpark whose token makes an
                // about-to-park `park()` return immediately.
                parked.store(true, SeqCst);
                if shared.epoch.load(SeqCst) == seen && !shared.shutdown.load(SeqCst) {
                    std::thread::park();
                }
                parked.store(false, SeqCst);
            }
        };
        // A job published after this scan bumps the epoch past `epoch`,
        // so the next wait rescans: no listed job is ever missed.
        loop {
            let open = lock(&shared.jobs)
                .iter()
                .find(|j| j.next.load(SeqCst) < j.participants)
                .cloned();
            let Some(job) = open else { break };
            while job.run_one() {}
        }
        seen = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_tid_exactly_once() {
        let pool = WorkerPool::new(3);
        for participants in [2usize, 3, 4, 9] {
            let hits: Vec<AtomicUsize> = (0..participants).map(|_| AtomicUsize::new(0)).collect();
            pool.run(participants, |tid, n| {
                assert_eq!(n, participants);
                hits[tid].fetch_add(1, SeqCst);
            });
            for (tid, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(SeqCst), 1, "tid {tid} of {participants}");
            }
        }
    }

    #[test]
    fn reuses_workers_across_many_jobs() {
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(2, |_, _| {
                total.fetch_add(1, SeqCst);
            });
        }
        assert_eq!(total.load(SeqCst), 1000);
        assert_eq!(pool.worker_count(), 1, "no spurious growth");
    }

    /// Only `ensure_workers` grows the roster: a job wider than the
    /// roster, even on a pool with no workers at all, completes on its
    /// submitter.
    #[test]
    fn grows_on_demand_and_single_participant_runs_inline() {
        let pool = WorkerPool::new(0);
        pool.run(1, |tid, _| assert_eq!(tid, 0));
        let sum = AtomicUsize::new(0);
        pool.run(4, |tid, _| {
            sum.fetch_add(tid, SeqCst);
        });
        assert_eq!(sum.load(SeqCst), 6, "tids 0..4 each ran once");
        assert_eq!(pool.worker_count(), 0, "submitting spawns nothing");
        pool.ensure_workers(3);
        assert_eq!(pool.worker_count(), 3);
        pool.run(4, |tid, _| {
            sum.fetch_add(tid, SeqCst);
        });
        assert_eq!(sum.load(SeqCst), 12);
    }

    #[test]
    fn drop_joins_synchronously_after_a_job() {
        // The census half lives in tests/pool_lifecycle.rs, whose process
        // has no concurrent pool users; here, dropping must not hang.
        let pool = WorkerPool::new(4);
        let ran = AtomicUsize::new(0);
        pool.run(5, |_, _| {
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 5);
        assert_eq!(pool.worker_count(), 4);
        drop(pool);
    }

    #[test]
    fn worker_panic_is_propagated_not_hung() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |tid, _| {
                if tid == 1 {
                    panic!("injected worker failure");
                }
            });
        }));
        assert!(result.is_err(), "the worker panic must reach the caller");
        // The pool stays usable for the next job.
        let ok = AtomicUsize::new(0);
        pool.run(2, |_, _| {
            ok.fetch_add(1, SeqCst);
        });
        assert_eq!(ok.load(SeqCst), 2);
    }

    /// Regression for the old `assert!(!poisoned, ...)`: the submitter
    /// must see the panicking tid's *original* message, not a generic
    /// pool assertion that swallows it.
    #[test]
    fn worker_panic_payload_reaches_submitter_verbatim() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |tid, _| {
                if tid == 1 {
                    panic!("mutant 0xbeef diverged in chunk 7");
                }
            });
        }));
        let payload = result.expect_err("the worker panic must reach the caller");
        let message = payload.downcast_ref::<&str>();
        assert_eq!(message, Some(&"mutant 0xbeef diverged in chunk 7"));
    }

    /// The typed flavor: `run_with` returns `JobError::WorkerPanic`
    /// carrying the first payload instead of panicking at all, and the
    /// tids that did not panic still ran.
    #[test]
    fn run_with_returns_typed_worker_panic() {
        let pool = WorkerPool::new(2);
        let survivors = AtomicUsize::new(0);
        let err = pool
            .run_with(3, |tid, _| {
                if tid != 0 {
                    panic!("typed failure from tid {tid}");
                }
                survivors.fetch_add(1, SeqCst);
            })
            .expect_err("a worker panicked");
        let message = err.panic_message().expect("string payload");
        assert!(
            message.starts_with("typed failure from tid"),
            "got: {message}"
        );
        assert_eq!(survivors.load(SeqCst), 1);
        assert!(pool.run_with(3, |_, _| {}).is_ok());
    }

    /// N consecutive panicking jobs, then a clean one at full width: the
    /// pool must remain usable and at full roster width throughout
    /// (closure panics are caught — no worker thread is ever lost).
    #[test]
    fn repeated_panics_keep_the_pool_at_full_width() {
        let pool = WorkerPool::new(3);
        for round in 0..8 {
            let err = pool
                .run_with(4, |tid, _| {
                    if tid != 0 {
                        panic!("round {round} tid {tid} down");
                    }
                })
                .expect_err("every round panics");
            assert!(
                err.panic_message().is_some(),
                "payload survives round {round}"
            );
            assert_eq!(pool.worker_count(), 3, "roster intact after round {round}");
        }
        let hits = AtomicUsize::new(0);
        pool.run(4, |_, _| {
            hits.fetch_add(1, SeqCst);
        });
        assert_eq!(hits.load(SeqCst), 4, "clean job runs every tid");
        assert_eq!(pool.worker_count(), 3);
    }

    /// Job B runs to completion while job A is deliberately stalled
    /// mid-closure on its submitter and on a worker.
    #[test]
    fn a_job_completes_while_another_is_stalled() {
        let pool = WorkerPool::new(4);
        let gate_open = AtomicBool::new(false);
        let a_running = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (pool_ref, gate, running) = (&pool, &gate_open, &a_running);
            scope.spawn(move || {
                pool_ref.run(2, |_, _| {
                    running.fetch_add(1, SeqCst);
                    while !gate.load(SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            // Both of A's tids are running: its submitter is stuck in one,
            // so a worker holds the other.
            while a_running.load(SeqCst) < 2 {
                std::thread::yield_now();
            }
            let b_hits = AtomicUsize::new(0);
            pool.run(2, |_, _| {
                b_hits.fetch_add(1, SeqCst);
            });
            // Release A before asserting, so a failure cannot hang the scope.
            gate_open.store(true, SeqCst);
            assert_eq!(b_hits.load(SeqCst), 2, "job B ran every tid");
        });
    }

    /// Concurrent submitters from many threads: every job sees exactly
    /// its own tids, each once.
    #[test]
    fn concurrent_submitters_each_get_exact_tids() {
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            for s in 0..6 {
                let pool = &pool;
                scope.spawn(move || {
                    let participants = 2 + s % 3;
                    for _ in 0..25 {
                        let hits: Vec<AtomicUsize> =
                            (0..participants).map(|_| AtomicUsize::new(0)).collect();
                        pool.run(participants, |tid, _| {
                            hits[tid].fetch_add(1, SeqCst);
                        });
                        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
                    }
                });
            }
        });
    }
}
