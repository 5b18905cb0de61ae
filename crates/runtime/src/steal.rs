//! The work-stealing parallel-for backend and the scheduler knob.
//!
//! The default [`ChunkTask`](crate::registry) backend funnels every chunk
//! claim through one shared `fetch_add` counter — deterministic-friendly
//! and simple, but on wide regions (the rayon facade dispatches up to 64
//! chunks) that one cache line is hammered by every worker. The
//! [`StealTask`] backend pre-splits the chunk index space into one
//! contiguous range per worker slot; each participant drains its own range
//! from the low end and, when empty, steals the top half of another slot's
//! range. Claims and steals are single `compare_exchange` operations on a
//! per-slot packed `lo:u32 | hi:u32` word: `lo` only ever grows and `hi`
//! only ever shrinks within one region, so a successful compare of the
//! full word can never ABA.
//!
//! Which backend a region uses is selected by the thread-local
//! [`Scheduler`], scoped via [`with_scheduler`] on the *initiating*
//! thread. Scheduling is invisible to any correctly-synchronized body —
//! every chunk index still runs exactly once — so the knob trades nothing
//! but the fixed claim order away. The engine's `Determinism::Fast` mode
//! opts in; the default remains the fixed-chunk backend.

use crate::latch::Latch;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which parallel-for backend regions initiated by the current thread use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// The deterministic default: one shared atomic chunk counter, chunks
    /// claimed in index order.
    #[default]
    FixedChunk,
    /// Per-slot ranges with half-range stealing (`StealTask`); claim
    /// order is schedule-dependent.
    WorkStealing,
}

impl Scheduler {
    /// Canonical token for telemetry/JSON (`fixed` / `stealing`).
    pub fn as_str(self) -> &'static str {
        match self {
            Scheduler::FixedChunk => "fixed",
            Scheduler::WorkStealing => "stealing",
        }
    }
}

thread_local! {
    static CURRENT: Cell<Scheduler> = const { Cell::new(Scheduler::FixedChunk) };
}

/// The scheduler regions initiated by this thread currently select.
pub fn current_scheduler() -> Scheduler {
    CURRENT.with(|c| c.get())
}

/// Runs `f` with regions initiated by this thread using `scheduler`,
/// restoring the previous choice afterwards (also on panic). Only the
/// calling thread is affected: regions initiated by other threads — or by
/// workers inside chunk bodies — keep their own setting.
pub fn with_scheduler<R>(scheduler: Scheduler, f: impl FnOnce() -> R) -> R {
    struct Restore(Scheduler);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(scheduler)));
    f()
}

/// Packs a `[lo, hi)` chunk range into one atomic word (`hi` high).
#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Inverse of [`pack`].
#[inline]
fn unpack(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// Shared state of one work-stealing parallel-for region.
///
/// Lifecycle and safety contract are identical to
/// [`ChunkTask`](crate::registry): the body pointer borrows the
/// initiator's stack, kept alive because the initiator blocks on the latch
/// (which fires only after every chunk ran), and panics cancel remaining
/// chunks and re-throw on the initiator.
pub(crate) struct StealTask {
    /// Borrowed from the initiator's stack; valid until the latch fires.
    body: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Per-slot `[lo, hi)` ranges; disjoint, jointly covering `0..n_chunks`.
    slots: Vec<AtomicU64>,
    /// Round-robin slot assignment for arriving participants.
    next_slot: AtomicUsize,
    finished: AtomicUsize,
    steals: AtomicUsize,
    cancelled: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    participants: AtomicUsize,
    latch: Latch,
}

// SAFETY: `body` is only dereferenced for a chunk index won by CAS, which
// is impossible once every range is drained — and the initiator keeps the
// closure alive until the final `finished` increment fires the latch.
unsafe impl Send for StealTask {}
unsafe impl Sync for StealTask {}

impl StealTask {
    /// Splits `0..n_chunks` into `n_slots` balanced contiguous ranges.
    ///
    /// # Safety
    /// Same contract as `ChunkTask::new`: the caller must keep `body`'s
    /// pointee alive until this task's latch fires, and must guarantee the
    /// latch fires (by draining ranges itself and waiting).
    pub(crate) unsafe fn new(
        body: *const (dyn Fn(usize) + Sync),
        n_chunks: usize,
        n_slots: usize,
    ) -> Self {
        assert!(
            n_chunks <= u32::MAX as usize,
            "chunk count exceeds u32 range"
        );
        let n_slots = n_slots.clamp(1, n_chunks.max(1));
        let base = n_chunks / n_slots;
        let extra = n_chunks % n_slots;
        let mut lo = 0u32;
        let slots = (0..n_slots)
            .map(|s| {
                let len = (base + usize::from(s < extra)) as u32;
                let word = pack(lo, lo + len);
                lo += len;
                AtomicU64::new(word)
            })
            .collect();
        StealTask {
            body,
            n_chunks,
            slots,
            next_slot: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            participants: AtomicUsize::new(0),
            latch: Latch::new(),
        }
    }

    /// Pops the next chunk off the low end of `slot`, or `None` if empty.
    fn pop(&self, slot: usize) -> Option<usize> {
        let cell = &self.slots[slot];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match cell.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals the top half of some other slot's range, depositing it into
    /// `my` slot when that is still empty (so it stays re-stealable) and
    /// returning the first stolen chunk. `None` means every slot is drained.
    fn steal(&self, my: usize) -> Option<usize> {
        let n = self.slots.len();
        for offset in 1..n {
            let victim = &self.slots[(my + offset) % n];
            let mut cur = victim.load(Ordering::Relaxed);
            loop {
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    break;
                }
                let take = (hi - lo).div_ceil(2);
                match victim.compare_exchange_weak(
                    cur,
                    pack(lo, hi - take),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        let (first, rest_lo) = (hi - take, hi - take + 1);
                        if rest_lo < hi {
                            // Park the remainder in our own slot if it is
                            // still empty; otherwise drain it inline.
                            let mine = &self.slots[my];
                            let seen = mine.load(Ordering::Relaxed);
                            let (mlo, mhi) = unpack(seen);
                            if mlo < mhi
                                || mine
                                    .compare_exchange(
                                        seen,
                                        pack(rest_lo, hi),
                                        Ordering::AcqRel,
                                        Ordering::Relaxed,
                                    )
                                    .is_err()
                            {
                                for i in rest_lo..hi {
                                    self.run_chunk(i as usize);
                                }
                            }
                        }
                        return Some(first as usize);
                    }
                    Err(seen) => cur = seen,
                }
            }
        }
        None
    }

    /// Runs one claimed chunk and retires it, firing the latch on the last.
    fn run_chunk(&self, i: usize) {
        if !self.cancelled.load(Ordering::Relaxed) {
            // SAFETY: `i` was won by a CAS before the ranges drained, so
            // the initiator is still blocked and the body pointer is live.
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

    /// Claims a slot, drains it, then steals until every range is empty.
    /// Called by the initiator and by every worker that pops a broadcast
    /// handle; safe to call on an already-finished task (no-op).
    pub(crate) fn run_loop(&self) {
        let my = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut participated = false;
        loop {
            let i = match self.pop(my) {
                Some(i) => i,
                None => match self.steal(my) {
                    Some(i) => i,
                    None => return,
                },
            };
            if !participated {
                participated = true;
                self.participants.fetch_add(1, Ordering::Relaxed);
            }
            self.run_chunk(i);
        }
    }

    /// Blocks until every chunk has finished.
    pub(crate) fn wait(&self) {
        self.latch.wait();
    }

    /// Number of distinct threads that ran at least one chunk.
    pub(crate) fn participants(&self) -> usize {
        self.participants.load(Ordering::Relaxed)
    }

    /// Number of successful half-range steals.
    pub(crate) fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// Re-throws the first panic a chunk body raised, if any.
    pub(crate) fn propagate_panic(&self) {
        let payload = self.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn run_task(n_chunks: usize, n_slots: usize, threads: usize, body: impl Fn(usize) + Sync) {
        let wide: &(dyn Fn(usize) + Sync) = &body;
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(wide as *const (dyn Fn(usize) + Sync)) };
        let task = std::sync::Arc::new(unsafe { StealTask::new(erased, n_chunks, n_slots) });
        std::thread::scope(|s| {
            for _ in 0..threads.saturating_sub(1) {
                let t = task.clone();
                s.spawn(move || t.run_loop());
            }
            task.run_loop();
            task.wait();
        });
        task.propagate_panic();
    }

    #[test]
    fn covers_every_chunk_exactly_once() {
        for (chunks, slots, threads) in [(1, 1, 1), (7, 3, 2), (1000, 8, 4), (1024, 16, 8)] {
            let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            run_task(chunks, slots, threads, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "chunks={chunks} slots={slots} threads={threads}"
            );
        }
    }

    #[test]
    fn steals_rebalance_skewed_slots() {
        // One slot holds everything (n_slots > n_chunks collapses to one
        // range per chunk, so use 2 slots over many chunks with 4 thieves).
        let hit = AtomicUsize::new(0);
        let seen = Mutex::new(HashSet::new());
        run_task(512, 2, 4, |_| {
            hit.fetch_add(1, Ordering::Relaxed);
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_micros(20));
        });
        assert_eq!(hit.load(Ordering::Relaxed), 512);
    }

    #[test]
    fn panics_cancel_and_propagate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_task(64, 4, 2, |i| {
                if i == 17 {
                    panic!("chunk 17 exploded");
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scheduler_scope_restores() {
        assert_eq!(current_scheduler(), Scheduler::FixedChunk);
        with_scheduler(Scheduler::WorkStealing, || {
            assert_eq!(current_scheduler(), Scheduler::WorkStealing);
            with_scheduler(Scheduler::FixedChunk, || {
                assert_eq!(current_scheduler(), Scheduler::FixedChunk);
            });
            assert_eq!(current_scheduler(), Scheduler::WorkStealing);
        });
        assert_eq!(current_scheduler(), Scheduler::FixedChunk);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_scheduler(Scheduler::WorkStealing, || panic!("boom"))
        }));
        assert_eq!(current_scheduler(), Scheduler::FixedChunk);
    }

    #[test]
    fn tokens_round_trip() {
        assert_eq!(Scheduler::FixedChunk.as_str(), "fixed");
        assert_eq!(Scheduler::WorkStealing.as_str(), "stealing");
        assert_eq!(Scheduler::default(), Scheduler::FixedChunk);
    }
}
