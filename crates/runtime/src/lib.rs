//! # mpx-runtime — the execution engine behind the workspace's parallelism
//!
//! A std-only, deterministic data-parallel runtime: a persistent worker
//! pool ([`Pool`]) of `std::thread` workers parked on a condvar, fork-join
//! ([`join`], which the parallel merge sort recurses through), and a
//! chunked parallel-for ([`parallel_for`]) with atomic chunk claiming. The
//! vendored `rayon` facade delegates its entire public surface here, which
//! is what makes every `par_iter()` in the workspace actually
//! multi-threaded.
//!
//! ## Determinism contract
//!
//! The decomposition algorithms built on top are deterministic *by
//! construction* (per-vertex counter RNG, value-based `fetch_min`
//! claiming), so the runtime only has to promise that **work partitioning
//! is a pure function of the input size** — never of the thread count or
//! of scheduling:
//!
//! * [`parallel_for`] executes a caller-chosen number of chunks; callers
//!   (the rayon facade) derive the chunk layout from input length alone.
//!   Which *thread* claims a chunk is racy; *what* each chunk computes and
//!   where its result lands is not.
//! * [`crate::sort::par_merge_sort_by`] splits at fixed midpoints and
//!   merges stably, so sorts are bit-identical across pool sizes.
//!
//! ## Blocking discipline (why there are no deadlocks)
//!
//! A thread only blocks on work that some thread is actively running:
//! `join` claims its queued arm inline when unclaimed, and a parallel-for
//! initiator drains the chunk counter itself before waiting. See
//! `registry.rs` for the induction argument.
//!
//! ## Configuration
//!
//! The process-global pool is created lazily with [`default_threads`]
//! workers: the `MPX_THREADS` environment variable if set to a positive
//! integer, else [`std::thread::available_parallelism`]. Dedicated pools
//! of any size come from [`Pool::new`]; [`Pool::install`] runs a closure
//! *on* the pool so that nested parallelism inherits it.

#![deny(missing_docs)]

mod latch;
mod registry;
pub mod sort;
pub mod stats;
mod steal;

use registry::{ChunkTask, JobRef, Registry, StackJob, StackJobSlot};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use steal::StealTask;

pub use sort::par_merge_sort_by;
pub use steal::{current_scheduler, with_scheduler, Scheduler};

/// A dedicated pool of worker threads. Dropping the pool shuts the
/// workers down and joins them.
pub struct Pool {
    pub(crate) registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("num_threads", &self.registry.size())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with exactly `threads` OS worker threads.
    ///
    /// # Panics
    /// If `threads == 0` or a worker thread cannot be spawned.
    pub fn new(threads: usize) -> Pool {
        assert!(threads >= 1, "a pool needs at least one thread");
        let registry = Arc::new(Registry::new(threads));
        let handles = (0..threads)
            .map(|i| {
                let reg = registry.clone();
                std::thread::Builder::new()
                    .name(format!("mpx-runtime-{i}"))
                    .spawn(move || {
                        Registry::set_current(&reg);
                        reg.worker_loop();
                    })
                    .expect("failed to spawn mpx-runtime worker")
            })
            .collect();
        Pool { registry, handles }
    }

    /// Number of worker threads in this pool.
    pub fn num_threads(&self) -> usize {
        self.registry.size()
    }

    /// Runs `f` *on* this pool: the closure executes on a worker thread,
    /// so [`current_num_threads`] and all nested parallel constructs
    /// inside it resolve to this pool. Blocks until `f` returns and
    /// propagates its panic.
    ///
    /// Calling `install` from one of this pool's own workers runs `f`
    /// inline.
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        if Registry::current_is(&self.registry) {
            return f();
        }
        let job = StackJob::new(f);
        let slot = Arc::new(StackJobSlot::new(&job));
        self.registry.inject(JobRef::Stack(slot.clone()));
        // Block without helping: `f` must run on a pool worker, and a
        // claimed job always completes (see registry.rs).
        slot.latch_wait();
        // SAFETY: the latch fired, so the result is written.
        match unsafe { job.take_result() } {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.registry.shutdown();
        for handle in self.handles.drain(..) {
            // A worker that panicked already poisoned nothing global;
            // surface the panic to the dropper.
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    }
}

/// Thread count of the pool the current thread belongs to: the enclosing
/// [`Pool::install`]'s pool on a worker, the global default pool
/// elsewhere.
pub fn current_num_threads() -> usize {
    Registry::current().size()
}

/// The default worker count: `MPX_THREADS` if set to a positive integer,
/// else the machine's logical CPU count.
pub fn default_threads() -> usize {
    let machine = || {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    };
    match std::env::var("MPX_THREADS") {
        Ok(value) => value
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(machine),
        Err(_) => machine(),
    }
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
/// `b` is offered to the pool; this thread runs `a` inline, then either
/// claims `b` back (running it inline too) or waits for the worker that
/// took it. Panics from either closure propagate after both finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = Registry::current();
    if registry.size() <= 1 {
        return (a(), b());
    }
    let job_b = StackJob::new(b);
    let slot = Arc::new(StackJobSlot::new(&job_b));
    registry.inject(JobRef::Stack(slot.clone()));

    let ra = catch_unwind(AssertUnwindSafe(a));
    // Whatever happened to `a`, `b` must finish before this frame exits:
    // its closure lives on this stack.
    if !slot.claim_and_run() {
        slot.latch_wait();
    }
    // SAFETY: claim_and_run/latch_wait both guarantee execution finished.
    let rb = unsafe { job_b.take_result() };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) => resume_unwind(payload),
        (_, Err(payload)) => resume_unwind(payload),
    }
}

/// Executes `body(i)` for every chunk index `i in 0..n_chunks`, claiming
/// chunks atomically across the current pool. Blocks until all chunks
/// finished; panics in the body cancel remaining chunks and propagate.
///
/// With a single-thread pool (or a single chunk) the body runs inline in
/// index order with zero dispatch overhead — callers must therefore make
/// the chunk *layout* independent of the thread count if they need
/// deterministic results, which the rayon facade does.
pub fn parallel_for<F>(n_chunks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n_chunks == 0 {
        return;
    }
    let registry = Registry::current();
    if registry.size() <= 1 || n_chunks == 1 {
        for i in 0..n_chunks {
            body(i);
        }
        return;
    }
    let wide: &(dyn Fn(usize) + Sync) = &body;
    // SAFETY: erasing the borrow's lifetime is sound because this frame
    // blocks on the task latch below before `body` drops, and nothing
    // dereferences the pointer after the chunk counter exhausts.
    let erased: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(wide as *const (dyn Fn(usize) + Sync)) };
    // One broadcast handle per worker that could usefully help; the
    // initiator participates directly.
    let helpers = registry.size().min(n_chunks);
    if current_scheduler() == Scheduler::WorkStealing {
        // SAFETY: same contract as the fixed-chunk path — this frame
        // drains ranges itself and blocks on the latch before returning.
        let task = Arc::new(unsafe { StealTask::new(erased, n_chunks, registry.size()) });
        registry.inject_steal_refs(&task, helpers);
        task.run_loop();
        task.wait();
        let participants = task.participants();
        stats::record_region_stealing(participants, n_chunks, task.steals());
        mpx_trace::event!(
            "runtime.region",
            chunks = n_chunks,
            participants = participants,
            steals = task.steals(),
        );
        task.propagate_panic();
        return;
    }
    let task = Arc::new(unsafe { ChunkTask::new(erased, n_chunks) });
    registry.inject_chunk_refs(&task, helpers);
    task.run_loop();
    task.wait();
    let participants = task.participants();
    stats::record_region(participants, n_chunks);
    mpx_trace::event!(
        "runtime.region",
        chunks = n_chunks,
        participants = participants
    );
    task.propagate_panic();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_runs_on_pool() {
        let pool = Pool::new(2);
        let (a, b) = pool.install(|| join(|| 1u64, || 2u64));
        assert_eq!(a + b, 3);
    }

    #[test]
    fn install_reports_pool_size() {
        let pool = Pool::new(3);
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(pool.num_threads(), 3);
    }

    #[test]
    fn nested_install_is_inline() {
        let pool = Pool::new(2);
        let registered: Vec<usize> =
            pool.install(|| vec![current_num_threads(), current_num_threads()]);
        assert_eq!(registered, vec![2, 2]);
    }

    #[test]
    fn parallel_for_covers_every_chunk_exactly_once() {
        let pool = Pool::new(4);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            parallel_for(1000, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_uses_multiple_os_threads() {
        let pool = Pool::new(4);
        let seen = Mutex::new(HashSet::new());
        // Chunk bodies sleep so that, even on a single CPU, parked workers
        // get scheduled and claim chunks; retry to keep this robust.
        for _ in 0..5 {
            pool.install(|| {
                parallel_for(64, |_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_micros(300));
                });
            });
            if seen.lock().unwrap().len() >= 2 {
                break;
            }
        }
        let unique = seen.lock().unwrap().len();
        assert!(
            unique >= 2,
            "expected >= 2 distinct worker threads, saw {unique}"
        );
    }

    #[test]
    fn parallel_for_work_stealing_covers_every_chunk() {
        let pool = Pool::new(4);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            with_scheduler(Scheduler::WorkStealing, || {
                parallel_for(1000, |i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_work_stealing_propagates_panics() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                with_scheduler(Scheduler::WorkStealing, || {
                    parallel_for(64, |i| {
                        if i == 7 {
                            panic!("chunk 7 exploded");
                        }
                    });
                });
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn nested_parallel_for_completes() {
        let pool = Pool::new(3);
        let total = AtomicUsize::new(0);
        pool.install(|| {
            parallel_for(8, |_| {
                parallel_for(8, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn parallel_for_propagates_panics() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                parallel_for(32, |i| {
                    if i == 13 {
                        panic!("chunk 13 exploded");
                    }
                });
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let pool = Pool::new(2);
        for side in 0..2 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    join(
                        || {
                            if side == 0 {
                                panic!("left")
                            }
                        },
                        || {
                            if side == 1 {
                                panic!("right")
                            }
                        },
                    )
                });
            }));
            assert!(result.is_err(), "side {side} panic was swallowed");
        }
    }

    #[test]
    fn pool_drop_joins_workers() {
        for _ in 0..10 {
            let pool = Pool::new(2);
            pool.install(|| ());
            drop(pool);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        // Unless overridden by MPX_THREADS, this is the machine's logical
        // CPU count — not a thread-local constant some installed pool set.
        if std::env::var("MPX_THREADS").is_err() {
            let machine = std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1);
            assert_eq!(Pool::new(3).install(default_threads), machine);
        }
    }
}
