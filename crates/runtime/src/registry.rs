//! The worker pool: job queue, worker threads, and the three job kinds.
//!
//! A [`Registry`] owns the shared state of one pool: a FIFO injector queue
//! guarded by a mutex + condvar, and the pool size. Worker threads park on
//! the condvar when idle and drain the queue otherwise. Three kinds of job
//! flow through the queue:
//!
//! * **Stack jobs** ([`StackJobSlot`]) — a closure living on the stack of a
//!   blocked caller (`join`'s second arm, `Pool::install`'s body). The
//!   caller never returns before the job's latch is set, which is what
//!   makes the borrowed pointer sound. A claim flag arbitrates between a
//!   worker popping the job and the owner running it inline.
//! * **Chunk tasks** ([`ChunkTask`]) — the broadcast half of the chunked
//!   parallel-for: every popper joins a claiming loop over an atomic chunk
//!   counter. Stale queue entries (task already finished) are no-ops.
//! * **Steal tasks** ([`StealTask`]) — the same broadcast over the
//!   work-stealing parallel-for backend (`steal.rs`).
//!
//! Deadlock-freedom argument (the invariant every change must preserve):
//! a thread only ever *blocks* on work that some thread is actively
//! running. `join` claims its second arm inline when unclaimed, and a
//! parallel-for initiator drains the chunk counter itself before waiting.
//! A claimed job is being run by a thread that, by induction on the fork
//! tree, completes.

use crate::latch::Latch;
use crate::steal::StealTask;
use crate::Pool;
use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Shared state of one thread pool.
pub(crate) struct Registry {
    state: Mutex<RegState>,
    cv: Condvar,
    size: usize,
}

struct RegState {
    queue: VecDeque<JobRef>,
    shutdown: bool,
}

/// A queued unit of work.
pub(crate) enum JobRef {
    /// Borrowed closure on a blocked caller's stack.
    Stack(Arc<StackJobSlot>),
    /// Broadcast handle onto a chunked parallel-for.
    Chunks(Arc<ChunkTask>),
    /// Broadcast handle onto a work-stealing parallel-for.
    Steal(Arc<StealTask>),
}

thread_local! {
    /// The registry this thread belongs to (set once per worker thread).
    static WORKER_REGISTRY: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

static GLOBAL_POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide default pool, created on first use with
/// [`crate::default_threads`] workers.
pub(crate) fn global_pool() -> &'static Pool {
    GLOBAL_POOL.get_or_init(|| Pool::new(crate::default_threads()))
}

impl Registry {
    pub(crate) fn new(size: usize) -> Self {
        Registry {
            state: Mutex::new(RegState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            size,
        }
    }

    /// Number of worker threads serving this registry.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// The registry owning the current thread: the worker's own pool on a
    /// worker thread, the global pool elsewhere.
    pub(crate) fn current() -> Arc<Registry> {
        WORKER_REGISTRY
            .with(|w| w.borrow().clone())
            .unwrap_or_else(|| global_pool().registry.clone())
    }

    /// True if the current thread is a worker of `registry`.
    pub(crate) fn current_is(registry: &Arc<Registry>) -> bool {
        WORKER_REGISTRY.with(|w| {
            w.borrow()
                .as_ref()
                .is_some_and(|r| Arc::ptr_eq(r, registry))
        })
    }

    /// Marks this thread as a worker of `registry` (called once per worker
    /// at spawn).
    pub(crate) fn set_current(registry: &Arc<Registry>) {
        WORKER_REGISTRY.with(|w| *w.borrow_mut() = Some(registry.clone()));
    }

    /// Enqueues one job and wakes one idle worker.
    pub(crate) fn inject(&self, job: JobRef) {
        let mut st = self.state.lock().unwrap();
        st.queue.push_back(job);
        drop(st);
        self.cv.notify_one();
    }

    /// Enqueues `count` broadcast handles onto `task` and wakes everyone.
    pub(crate) fn inject_chunk_refs(&self, task: &Arc<ChunkTask>, count: usize) {
        let mut st = self.state.lock().unwrap();
        for _ in 0..count {
            st.queue.push_back(JobRef::Chunks(task.clone()));
        }
        drop(st);
        self.cv.notify_all();
    }

    /// [`Registry::inject_chunk_refs`] for the work-stealing backend.
    pub(crate) fn inject_steal_refs(&self, task: &Arc<StealTask>, count: usize) {
        let mut st = self.state.lock().unwrap();
        for _ in 0..count {
            st.queue.push_back(JobRef::Steal(task.clone()));
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Flags shutdown and wakes every worker so they can drain and exit.
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Main loop of a worker thread: pop-execute until shutdown with an
    /// empty queue. The queue is drained even after shutdown so stale
    /// broadcast handles are retired as no-ops.
    pub(crate) fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.cv.wait(st).unwrap();
                }
            };
            execute(job);
        }
    }
}

/// Runs one popped job.
fn execute(job: JobRef) {
    match job {
        JobRef::Stack(slot) => {
            slot.claim_and_run();
        }
        JobRef::Chunks(task) => task.run_loop(),
        JobRef::Steal(task) => task.run_loop(),
    }
}

// ---------------------------------------------------------------------------
// Stack jobs
// ---------------------------------------------------------------------------

/// Typed closure + result slot living on the *owner's* stack. The owner
/// guarantees the memory stays valid by waiting on the slot's latch before
/// its frame exits.
pub(crate) struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
}

// SAFETY: access is arbitrated by `StackJobSlot::claimed` — exactly one
// thread executes the closure and writes the result, and the owner reads
// the result only after the latch (which the executor sets last) fires.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R,
{
    pub(crate) fn new(func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
        }
    }

    /// Takes the stored result.
    ///
    /// # Safety
    /// Call only after the slot's latch has been set (execution finished).
    pub(crate) unsafe fn take_result(&self) -> std::thread::Result<R> {
        (*self.result.get())
            .take()
            .expect("stack job result missing after latch")
    }
}

/// Erased executor for a [`StackJob<F, R>`] behind a `*const ()`.
///
/// # Safety
/// `ptr` must point to a live `StackJob<F, R>` whose closure has not been
/// taken yet.
unsafe fn exec_stack_job<F, R>(ptr: *const ())
where
    F: FnOnce() -> R,
{
    let job = &*(ptr as *const StackJob<F, R>);
    let func = (*job.func.get()).take().expect("stack job run twice");
    let result = catch_unwind(AssertUnwindSafe(func));
    *job.result.get() = Some(result);
}

/// Shared, queueable handle to a [`StackJob`]: claim flag + completion
/// latch + type-erased executor.
pub(crate) struct StackJobSlot {
    claimed: AtomicBool,
    latch: Latch,
    exec: unsafe fn(*const ()),
    data: *const (),
}

// SAFETY: the raw pointer targets a StackJob that outlives every use (the
// owner blocks on the latch), and StackJob itself is Sync for Send
// closures/results.
unsafe impl Send for StackJobSlot {}
unsafe impl Sync for StackJobSlot {}

impl StackJobSlot {
    /// Builds a slot pointing at `job`. The caller must keep `job` alive
    /// and pinned until [`StackJobSlot::latch_wait`] returns (or
    /// `claim_and_run` executes inline).
    pub(crate) fn new<F, R>(job: &StackJob<F, R>) -> Self
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        StackJobSlot {
            claimed: AtomicBool::new(false),
            latch: Latch::new(),
            exec: exec_stack_job::<F, R>,
            data: job as *const StackJob<F, R> as *const (),
        }
    }

    /// Atomically claims the job and, on success, runs it and sets the
    /// latch. Returns false if another thread claimed it first (the latch
    /// will be set by that thread).
    pub(crate) fn claim_and_run(&self) -> bool {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return false;
        }
        // SAFETY: winning the claim grants exclusive access to the job,
        // and the owner's latch-wait keeps the pointee alive.
        unsafe { (self.exec)(self.data) };
        self.latch.set();
        true
    }

    /// Blocks until the job has executed (possibly claiming it inline
    /// first would be the caller's job — this only waits).
    pub(crate) fn latch_wait(&self) {
        self.latch.wait();
    }
}

// ---------------------------------------------------------------------------
// Chunk tasks (parallel-for)
// ---------------------------------------------------------------------------

/// Shared state of one chunked parallel-for region. Participants claim
/// chunk indices from `next`; the last finisher fires the latch.
pub(crate) struct ChunkTask {
    /// Borrowed from the initiator's stack; valid until the latch fires
    /// because the initiator blocks on it before returning (even when
    /// unwinding).
    body: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    next: AtomicUsize,
    finished: AtomicUsize,
    cancelled: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    participants: AtomicUsize,
    latch: Latch,
}

// SAFETY: `body` is only dereferenced by threads that won a chunk claim,
// which is impossible after the counter exhausts — and the initiator keeps
// the closure alive until all claimed chunks finished.
unsafe impl Send for ChunkTask {}
unsafe impl Sync for ChunkTask {}

impl ChunkTask {
    /// # Safety
    /// The caller must keep `body`'s pointee alive until this task's latch
    /// fires, and must guarantee the latch fires (by draining the counter
    /// itself and waiting).
    pub(crate) unsafe fn new(body: *const (dyn Fn(usize) + Sync), n_chunks: usize) -> Self {
        ChunkTask {
            body,
            n_chunks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            participants: AtomicUsize::new(0),
            latch: Latch::new(),
        }
    }

    /// Claims and runs chunks until the counter is exhausted. Called by
    /// the initiator and by every worker that pops a broadcast handle.
    /// Panics in the body cancel remaining chunks and are re-thrown by the
    /// initiator.
    pub(crate) fn run_loop(&self) {
        let mut participated = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return;
            }
            if !participated {
                participated = true;
                self.participants.fetch_add(1, Ordering::Relaxed);
            }
            if !self.cancelled.load(Ordering::Relaxed) {
                // SAFETY: we won claim `i < n_chunks`, so the initiator is
                // still blocked and the body pointer is live.
                let body = unsafe { &*self.body };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                    self.cancelled.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
            }
            // AcqRel chains every chunk's effects into the last increment,
            // whose latch-set publishes them to the waiting initiator.
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.n_chunks {
                self.latch.set();
            }
        }
    }

    /// Blocks until every chunk has finished.
    pub(crate) fn wait(&self) {
        self.latch.wait();
    }

    /// Number of distinct threads that claimed at least one chunk.
    pub(crate) fn participants(&self) -> usize {
        self.participants.load(Ordering::Relaxed)
    }

    /// Re-throws the first panic a chunk body raised, if any.
    pub(crate) fn propagate_panic(&self) {
        let payload = self.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}
