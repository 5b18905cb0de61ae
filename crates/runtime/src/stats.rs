//! Process-wide and epoch-scoped utilization counters.
//!
//! Every parallel-for region records how many distinct threads claimed at
//! least one of its chunks. Two views are offered:
//!
//! * **Global monotone counters** — [`snapshot`] / [`Snapshot::delta_since`].
//!   These are process-wide: deltas taken while *other* threads also run
//!   parallel regions include that foreign work.
//! * **Epoch scopes** — [`begin_epoch`] returns an [`Epoch`] token; work
//!   initiated on the current thread between `begin_epoch()` and
//!   [`Epoch::finish`] is attributed to that epoch **exactly**, even when
//!   unrelated threads run their own regions concurrently. This works
//!   because a region is recorded by the thread that initiated the
//!   `parallel_for` (after it waits for completion), so a thread-local
//!   stack of frames sees precisely the regions this caller started.
//!   Epochs nest: an inner epoch's regions also count toward the outer
//!   one.
//!
//! Telemetry layers (e.g. traced decomposition runs, perfbench) should
//! prefer epochs; the global snapshot API remains for whole-process
//! reporting.
//! The one boundary: regions initiated *by other threads on behalf of*
//! the caller (there is no such path in this workspace — the pool's
//! `parallel_for` always records on the initiating thread) would not be
//! attributed to the caller's epoch.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

static REGIONS: AtomicU64 = AtomicU64::new(0);
static PARTICIPATIONS: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the utilization counters (also the unit of
/// epoch deltas).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Parallel-for regions dispatched to the pool (sequential fast-path
    /// executions are not counted).
    pub regions: u64,
    /// Sum over regions of the number of distinct participating threads.
    pub participations: u64,
    /// Total chunks claimed across all regions.
    pub chunks: u64,
    /// Half-range steals performed by the work-stealing backend (0 for
    /// regions run on the fixed-chunk scheduler).
    pub steals: u64,
}

impl Snapshot {
    /// Counter increments since `earlier` (saturating, in case `earlier`
    /// is from another epoch).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            regions: self.regions.saturating_sub(earlier.regions),
            participations: self.participations.saturating_sub(earlier.participations),
            chunks: self.chunks.saturating_sub(earlier.chunks),
            steals: self.steals.saturating_sub(earlier.steals),
        }
    }

    /// Mean number of threads that served each region (0 when no regions
    /// ran).
    pub fn avg_workers_per_region(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.participations as f64 / self.regions as f64
        }
    }
}

/// Reads the current global counter values.
pub fn snapshot() -> Snapshot {
    Snapshot {
        regions: REGIONS.load(Ordering::Relaxed),
        participations: PARTICIPATIONS.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
    }
}

thread_local! {
    static FRAMES: RefCell<Vec<Snapshot>> = const { RefCell::new(Vec::new()) };
}

/// Scope token for exact per-caller region attribution; see
/// [`begin_epoch`].
///
/// Deliberately `!Send`: the token must be finished on the thread that
/// created it, because attribution rides on that thread's frame stack.
#[must_use = "call finish() to obtain the epoch's delta"]
pub struct Epoch {
    depth: usize,
    finished: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens an attribution epoch on the current thread.
///
/// All parallel-for regions initiated by this thread until the matching
/// [`Epoch::finish`] are counted in the returned epoch — and only those,
/// regardless of what other threads do concurrently. Epochs nest
/// (LIFO); finishing out of order panics in debug builds and resolves to
/// the top frame otherwise.
pub fn begin_epoch() -> Epoch {
    let depth = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        frames.push(Snapshot::default());
        frames.len()
    });
    Epoch {
        depth,
        finished: false,
        _not_send: PhantomData,
    }
}

impl Epoch {
    /// Closes the epoch and returns the exact counter deltas for work
    /// initiated on this thread within it.
    pub fn finish(mut self) -> Snapshot {
        self.finished = true;
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            debug_assert_eq!(
                frames.len(),
                self.depth,
                "stats epochs must finish in LIFO order"
            );
            frames.pop().unwrap_or_default()
        })
    }
}

impl Drop for Epoch {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // Leaked (not finished) epochs must still release their frame so
        // outer epochs keep attributing correctly.
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            if frames.len() >= self.depth {
                frames.truncate(self.depth.saturating_sub(1));
            }
        });
    }
}

/// Records one completed parallel-for region. Called by the pool on the
/// thread that initiated the region, which is what makes epoch
/// attribution exact.
pub(crate) fn record_region(participants: usize, chunks: usize) {
    record_region_stealing(participants, chunks, 0);
}

/// [`record_region`] for the work-stealing backend, which additionally
/// reports how many half-range steals served the region.
pub(crate) fn record_region_stealing(participants: usize, chunks: usize, steals: usize) {
    REGIONS.fetch_add(1, Ordering::Relaxed);
    PARTICIPATIONS.fetch_add(participants as u64, Ordering::Relaxed);
    CHUNKS.fetch_add(chunks as u64, Ordering::Relaxed);
    STEALS.fetch_add(steals as u64, Ordering::Relaxed);
    FRAMES.with(|f| {
        for frame in f.borrow_mut().iter_mut() {
            frame.regions += 1;
            frame.participations += participants as u64;
            frame.chunks += chunks as u64;
            frame.steals += steals as u64;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate() {
        let before = snapshot();
        record_region(3, 17);
        record_region(1, 2);
        let delta = snapshot().delta_since(&before);
        // Other test threads may also record; bounds, not equalities.
        assert!(delta.regions >= 2);
        assert!(delta.participations >= 4);
        assert!(delta.chunks >= 19);
    }

    #[test]
    fn avg_workers_handles_empty() {
        assert_eq!(Snapshot::default().avg_workers_per_region(), 0.0);
        let s = Snapshot {
            regions: 4,
            participations: 10,
            chunks: 0,
            steals: 0,
        };
        assert!((s.avg_workers_per_region() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_attribution_is_exact_under_concurrency() {
        // Each thread records a distinct number of regions inside its own
        // epoch; concurrent recording on other threads must not leak in.
        let handles: Vec<_> = (1..=4usize)
            .map(|k| {
                std::thread::spawn(move || {
                    let epoch = begin_epoch();
                    for _ in 0..k * 10 {
                        record_region(2, 8);
                    }
                    epoch.finish()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let k = (i + 1) as u64;
            let delta = h.join().unwrap();
            assert_eq!(delta.regions, k * 10);
            assert_eq!(delta.participations, k * 10 * 2);
            assert_eq!(delta.chunks, k * 10 * 8);
        }
    }

    #[test]
    fn epochs_nest() {
        let outer = begin_epoch();
        record_region(1, 1);
        let inner = begin_epoch();
        record_region(4, 16);
        let inner_delta = inner.finish();
        record_region(1, 1);
        let outer_delta = outer.finish();
        assert_eq!(inner_delta.regions, 1);
        assert_eq!(inner_delta.participations, 4);
        assert_eq!(outer_delta.regions, 3);
        assert_eq!(outer_delta.participations, 6);
        assert_eq!(outer_delta.chunks, 18);
    }

    #[test]
    fn dropped_epoch_releases_its_frame() {
        let outer = begin_epoch();
        {
            let _inner = begin_epoch();
            record_region(1, 1);
            // dropped without finish
        }
        record_region(1, 1);
        let outer_delta = outer.finish();
        assert_eq!(outer_delta.regions, 2);
    }
}
