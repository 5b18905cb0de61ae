//! Structured tracing and metrics for the MPX workspace.
//!
//! This crate is the single observability substrate shared by every layer
//! of the stack: the shifted-BFS engine, the Δ-stepping weighted engine,
//! graph ingestion, snapshot loading, the session API, and the
//! `mpx-runtime` worker pool. It provides:
//!
//! * a lightweight **span API** — [`span!`] opens a guard that records a
//!   begin/end event pair with monotonic timestamps, the recording
//!   thread's id, and parent linkage derived from a per-thread span
//!   stack;
//! * **instant events** — [`event!`] records a single timestamped mark;
//! * a **counter registry** on the collected [`Trace`] that absorbs
//!   engine telemetry (the decomposition engines' round, relaxation and
//!   cluster counts) and epoch-scoped `mpx_runtime::stats` deltas as
//!   first-class metrics;
//! * **exporters**: a human-readable aggregated phase tree
//!   ([`Trace::to_human`]), machine-readable JSON ([`Trace::to_json`]),
//!   and the Chrome `trace_event` format ([`Trace::to_chrome_json`])
//!   loadable in `chrome://tracing` / Perfetto;
//! * a dependency-free **JSON parser** ([`json`]) so exported traces can
//!   be round-tripped and validated without external crates.
//!
//! # Cost model
//!
//! Tracing is **disabled by default**. Every `span!`/`event!` site
//! performs exactly one relaxed atomic load when disabled — no
//! allocation, no thread-local access, no branch beyond the load itself
//! (`tests/trace_alloc.rs` pins the no-allocation claim with a counting
//! global allocator). When enabled, events append to per-thread buffers
//! whose mutexes are only ever contended at drain time, so recording is
//! effectively lock-free on the hot path.
//!
//! # Sessions
//!
//! Collection is scoped by a [`TraceSession`]: [`start`] enables
//! recording, [`TraceSession::finish`] disables it and drains every
//! thread's buffer into a [`Trace`]. Sessions do not nest: starting a
//! session while one is active returns a *passive* session whose events
//! flow to the outer collector and whose `finish` yields an empty trace
//! (see [`TraceSession::is_passive`]).
//!
//! ```
//! let session = mpx_trace::start();
//! {
//!     let _outer = mpx_trace::span!("outer", n = 3u64);
//!     for round in 0..3u64 {
//!         let _r = mpx_trace::span!("round", round = round);
//!     }
//! }
//! let trace = session.finish();
//! assert!(trace.is_balanced());
//! assert_eq!(trace.span_count("round"), 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod export;
pub mod json;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A typed argument value attached to a span or event.
///
/// Values are small `Copy` scalars so that recording an argument never
/// allocates; string arguments are restricted to `&'static str` (span
/// and argument names at call sites are literals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// Static string argument.
    Str(&'static str),
    /// Boolean argument.
    Bool(bool),
}

impl Value {
    /// The value as `f64`, for aggregation (booleans map to 0/1).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Value::U64(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::F64(v) => v,
            Value::Str(_) => 0.0,
            Value::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Open a span guard. The span closes (records its end event) when the
/// guard drops.
///
/// When tracing is disabled this evaluates to a single relaxed atomic
/// load; the argument expressions are **not** evaluated. Arguments use
/// `name = expr` syntax and convert through [`Value::from`]:
///
/// ```
/// let r = 3u64;
/// let _g = mpx_trace::span!("engine.round", round = r, direction = "top_down");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                &[$((stringify!($key), $crate::Value::from($val))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Record an instant event (a single timestamped mark with optional
/// arguments). Like [`span!`], this is a single relaxed atomic load when
/// tracing is disabled and the argument expressions are not evaluated.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_event(
                $name,
                &[$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

static CLOCK: OnceLock<Instant> = OnceLock::new();
static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();

/// Whether a trace session is currently recording.
///
/// This is the fast gate every instrumentation site checks: a single
/// relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    CLOCK.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Begin,
    End,
    Instant,
}

#[derive(Debug, Clone)]
struct RawEvent {
    name: &'static str,
    kind: Kind,
    id: u64,
    parent: u64,
    thread: u32,
    t_ns: u64,
    epoch: u64,
    args: Vec<(&'static str, Value)>,
}

struct ThreadBuf {
    thread: u32,
    events: Mutex<Vec<RawEvent>>,
}

struct TlsState {
    buf: Arc<ThreadBuf>,
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<Option<TlsState>> = const { RefCell::new(None) };
}

fn with_tls<R>(f: impl FnOnce(&mut TlsState) -> R) -> R {
    TLS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf {
                thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
            });
            registry().lock().unwrap().push(Arc::clone(&buf));
            TlsState {
                buf,
                stack: Vec::new(),
            }
        });
        f(state)
    })
}

/// RAII guard for an open span; records the end event on drop.
///
/// Construct via the [`span!`] macro. A disabled guard is inert: drop
/// does nothing.
#[must_use = "a span closes when its guard drops; binding to `_` closes it immediately"]
pub struct SpanGuard {
    id: u64,
}

impl SpanGuard {
    /// An inert guard for the tracing-disabled path.
    #[inline(always)]
    pub fn disabled() -> Self {
        SpanGuard { id: 0 }
    }

    /// Record a span begin event and return the live guard.
    ///
    /// Called by [`span!`] only after [`enabled`] returned true.
    pub fn enter(name: &'static str, args: &[(&'static str, Value)]) -> Self {
        let t_ns = now_ns();
        let epoch = EPOCH.load(Ordering::Relaxed);
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        with_tls(|state| {
            let parent = state.stack.last().copied().unwrap_or(0);
            state.stack.push(id);
            state.buf.events.lock().unwrap().push(RawEvent {
                name,
                kind: Kind::Begin,
                id,
                parent,
                thread: state.buf.thread,
                t_ns,
                epoch,
                args: args.to_vec(),
            });
        });
        SpanGuard { id }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let t_ns = now_ns();
        let epoch = EPOCH.load(Ordering::Relaxed);
        let id = self.id;
        with_tls(|state| {
            if let Some(pos) = state.stack.iter().rposition(|&s| s == id) {
                state.stack.remove(pos);
            }
            state.buf.events.lock().unwrap().push(RawEvent {
                name: "",
                kind: Kind::End,
                id,
                parent: 0,
                thread: state.buf.thread,
                t_ns,
                epoch,
                args: Vec::new(),
            });
        });
    }
}

/// Record an instant event. Called by [`event!`] only after [`enabled`]
/// returned true.
pub fn record_event(name: &'static str, args: &[(&'static str, Value)]) {
    let t_ns = now_ns();
    let epoch = EPOCH.load(Ordering::Relaxed);
    with_tls(|state| {
        let parent = state.stack.last().copied().unwrap_or(0);
        state.buf.events.lock().unwrap().push(RawEvent {
            name,
            kind: Kind::Instant,
            id: 0,
            parent,
            thread: state.buf.thread,
            t_ns,
            epoch,
            args: args.to_vec(),
        });
    });
}

/// A completed span in a collected [`Trace`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (the first argument to [`span!`]).
    pub name: &'static str,
    /// Unique id within the process.
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Id of the recording thread (dense, assigned in tracing order).
    pub thread: u32,
    /// Begin timestamp, nanoseconds on the process-wide monotonic clock.
    pub start_ns: u64,
    /// End timestamp, nanoseconds on the process-wide monotonic clock.
    pub end_ns: u64,
    /// Typed arguments recorded at span entry.
    pub args: Vec<(&'static str, Value)>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up an argument by name.
    pub fn arg(&self, key: &str) -> Option<Value> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// An instant event in a collected [`Trace`].
#[derive(Debug, Clone)]
pub struct Mark {
    /// Event name (the first argument to [`event!`]).
    pub name: &'static str,
    /// Id of the enclosing span on the same thread, or 0.
    pub parent: u64,
    /// Id of the recording thread.
    pub thread: u32,
    /// Timestamp, nanoseconds on the process-wide monotonic clock.
    pub t_ns: u64,
    /// Typed arguments recorded with the event.
    pub args: Vec<(&'static str, Value)>,
}

/// A collected trace: completed spans, instant events, and a counter
/// registry, with exporters to human, JSON, and Chrome formats.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans, sorted by start timestamp.
    pub spans: Vec<Span>,
    /// Instant events, sorted by timestamp.
    pub marks: Vec<Mark>,
    /// Named metrics absorbed from telemetry sources
    /// (insertion-ordered; see [`Trace::set_counter`]).
    pub counters: Vec<(String, f64)>,
    /// Number of begin events with no matching end at drain time.
    pub unmatched: usize,
}

impl Trace {
    /// An empty trace (what a passive session's `finish` returns).
    pub fn empty() -> Self {
        Trace::default()
    }

    /// True when every recorded span begin had a matching end.
    pub fn is_balanced(&self) -> bool {
        self.unmatched == 0
    }

    /// Set (or overwrite) a named counter metric.
    pub fn set_counter(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.counters.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Number of spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sum of an argument over all spans with the given name
    /// (non-numeric arguments contribute 0).
    pub fn sum_arg(&self, span_name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == span_name)
            .filter_map(|s| s.arg(key))
            .map(|v| v.as_f64())
            .sum()
    }

    /// Sum of an argument over all instant events with the given name
    /// (non-numeric arguments contribute 0).
    pub fn sum_mark_arg(&self, mark_name: &str, key: &str) -> f64 {
        self.marks
            .iter()
            .filter(|m| m.name == mark_name)
            .filter_map(|m| {
                m.args
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.as_f64())
            })
            .sum()
    }

    /// Wall-clock extent of the trace in nanoseconds (latest end minus
    /// earliest start over all spans; 0 when empty).
    pub fn duration_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min();
        let end = self.spans.iter().map(|s| s.end_ns).max();
        match (start, end) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }
}

/// Handle for an in-progress trace collection; see [`start`].
#[must_use = "call finish() to collect the trace and disable recording"]
pub struct TraceSession {
    epoch: u64,
    passive: bool,
    finished: bool,
}

/// Begin collecting a trace.
///
/// Enables recording at every `span!`/`event!` site process-wide. If a
/// session is already active the returned session is *passive*: events
/// continue to flow to the outer collector and [`TraceSession::finish`]
/// returns an empty [`Trace`].
pub fn start() -> TraceSession {
    if ACTIVE.swap(true, Ordering::SeqCst) {
        return TraceSession {
            epoch: 0,
            passive: true,
            finished: false,
        };
    }
    let epoch = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    ENABLED.store(true, Ordering::SeqCst);
    TraceSession {
        epoch,
        passive: false,
        finished: false,
    }
}

impl TraceSession {
    /// True when this session piggybacks on an outer active session and
    /// will not itself collect anything.
    pub fn is_passive(&self) -> bool {
        self.passive
    }

    /// Stop recording and drain every thread's buffer into a [`Trace`].
    ///
    /// Spans still open on other threads at this point are counted in
    /// [`Trace::unmatched`]; their late end events are discarded by the
    /// next session's drain (they carry a stale epoch).
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        if self.passive {
            return Trace::empty();
        }
        ENABLED.store(false, Ordering::SeqCst);
        let raw = drain_events(self.epoch);
        ACTIVE.store(false, Ordering::SeqCst);
        build_trace(raw)
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.finished || self.passive {
            return;
        }
        // A dropped-without-finish active session must still release the
        // global state or tracing would wedge for the process lifetime.
        ENABLED.store(false, Ordering::SeqCst);
        drain_events(self.epoch);
        ACTIVE.store(false, Ordering::SeqCst);
    }
}

fn drain_events(epoch: u64) -> Vec<RawEvent> {
    let mut raw = Vec::new();
    let bufs = registry().lock().unwrap();
    for buf in bufs.iter() {
        let mut events = buf.events.lock().unwrap();
        for ev in events.drain(..) {
            if ev.epoch == epoch {
                raw.push(ev);
            }
        }
    }
    raw
}

fn build_trace(raw: Vec<RawEvent>) -> Trace {
    use std::collections::HashMap;
    let mut open: HashMap<u64, RawEvent> = HashMap::new();
    let mut spans = Vec::new();
    let mut marks = Vec::new();
    let mut ends: HashMap<u64, u64> = HashMap::new();
    for ev in raw {
        match ev.kind {
            Kind::Begin => {
                open.insert(ev.id, ev);
            }
            Kind::End => {
                ends.insert(ev.id, ev.t_ns);
            }
            Kind::Instant => marks.push(Mark {
                name: ev.name,
                parent: ev.parent,
                thread: ev.thread,
                t_ns: ev.t_ns,
                args: ev.args,
            }),
        }
    }
    let mut unmatched = 0usize;
    for (id, begin) in open {
        match ends.get(&id) {
            Some(&end_ns) => spans.push(Span {
                name: begin.name,
                id,
                parent: begin.parent,
                thread: begin.thread,
                start_ns: begin.t_ns,
                end_ns,
                args: begin.args,
            }),
            None => unmatched += 1,
        }
    }
    // Re-root spans whose parent fell outside this session's epoch.
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for span in &mut spans {
        if span.parent != 0 && !ids.contains(&span.parent) {
            span.parent = 0;
        }
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    marks.sort_by_key(|m| m.t_ns);
    Trace {
        spans,
        marks,
        counters: Vec::new(),
        unmatched,
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice
/// (`q` in `[0, 1]`; returns 0.0 for an empty slice).
///
/// Shared by the session profiler and the CLI so p50/p99 figures agree
/// everywhere.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sessions mutate process-global state; serialize the tests that
    // start one.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_span_is_inert() {
        let _l = lock();
        assert!(!enabled());
        let g = span!("noop", x = 1u64);
        drop(g);
    }

    #[test]
    fn session_collects_nested_spans() {
        let _l = lock();
        let session = start();
        {
            let _a = span!("outer", n = 2u64);
            for round in 0..2u64 {
                let _b = span!("inner", round = round);
            }
            event!("mark", hit = true);
        }
        let trace = session.finish();
        assert!(trace.is_balanced());
        assert_eq!(trace.span_count("outer"), 1);
        assert_eq!(trace.span_count("inner"), 2);
        assert_eq!(trace.marks.len(), 1);
        let outer_id = trace.spans.iter().find(|s| s.name == "outer").unwrap().id;
        for s in trace.spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(s.parent, outer_id);
            assert!(s.end_ns >= s.start_ns);
        }
        assert_eq!(trace.sum_arg("inner", "round"), 1.0);
    }

    #[test]
    fn nested_sessions_are_passive() {
        let _l = lock();
        let outer = start();
        let inner = start();
        assert!(inner.is_passive());
        let _s = span!("work");
        let t_inner = inner.finish();
        assert!(t_inner.spans.is_empty());
        drop(_s);
        let t_outer = outer.finish();
        assert_eq!(t_outer.span_count("work"), 1);
    }

    #[test]
    fn cross_thread_events_are_drained() {
        let _l = lock();
        let session = start();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span!("worker", idx = i as u64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish();
        assert_eq!(trace.span_count("worker"), 4);
        assert!(trace.is_balanced());
    }

    #[test]
    fn counters_set_and_overwrite() {
        let mut t = Trace::empty();
        t.set_counter("rounds", 3.0);
        t.set_counter("rounds", 5.0);
        t.set_counter("relaxations", 10.0);
        assert_eq!(t.counter("rounds"), Some(5.0));
        assert_eq!(t.counters.len(), 2);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn stale_epoch_events_are_discarded() {
        let _l = lock();
        let s1 = start();
        let _t1 = s1.finish();
        let s2 = start();
        let t2 = s2.finish();
        assert!(t2.spans.is_empty());
    }
}
