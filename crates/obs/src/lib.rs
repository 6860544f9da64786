//! # atlas-obs — span tracing and counters for the Atlas workspace
//!
//! A dependency-free observability core shared by every crate in the
//! workspace. Three primitives:
//!
//! * **Spans** — [`span`] returns a guard that measures a monotonic wall
//!   interval and, when tracing is enabled, records a [`SpanRecord`] (with
//!   `key=value` attributes) into a bounded, lock-sharded ring buffer on
//!   drop. Spans nest through a thread-local context; [`span_in`] carries a
//!   parent across threads (worker pools, hedge threads).
//! * **Events** — [`event`] records a zero-duration span under the current
//!   context. Free when tracing is disabled (one relaxed atomic load).
//! * **Counters** — [`counter`] interns a named, always-on `AtomicU64`
//!   (kernel dispatch tallies, cache hits); [`counters`] snapshots all of
//!   them in name order for `/metrics`.
//!
//! ## Determinism
//!
//! Trace and span ids come from one per-process atomic counter — never from
//! wall-clock time or an RNG — so enabling tracing cannot perturb any
//! bit-identity invariant.
//! Timestamps are microseconds on a monotonic clock relative to a per-process
//! epoch ([`Tracer::now_us`]); they appear only inside trace output, never in
//! query answers.
//!
//! ## Cost when disabled
//!
//! [`span`] still measures its interval (callers derive phase timings from
//! the guard, enabled or not — that is the pre-existing `Instant` cost, not
//! a new one) but allocates nothing, touches no lock, and records nothing.
//! [`event`] and trace-only attribute work are skipped entirely after a
//! single relaxed load of the `enabled` atomic.
//!
//! ## Knobs
//!
//! * `ATLAS_TRACE=1` — start the process with tracing enabled (read once, at
//!   first use; [`set_enabled`] flips it at runtime).
//! * `ATLAS_TRACE_RING=<spans>` — total ring capacity (default 16384),
//!   split evenly across the lock shards.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Number of independent ring shards (and their locks). Spans hash to a
/// shard by id, so concurrent recorders rarely contend.
const RING_SHARDS: usize = 8;

/// Default total ring capacity, in spans, across all shards.
const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One finished span (or zero-duration event) as stored in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to (a per-process counter value; every
    /// request/explore root allocates a fresh one).
    pub trace_id: u64,
    /// This span's id, unique within the process.
    pub span_id: u64,
    /// The parent span id, or 0 for a trace root.
    pub parent_id: u64,
    /// The span name (`phase.candidates`, `shard.call`, …).
    pub name: String,
    /// Start time in microseconds on the process-local monotonic clock.
    pub start_us: u64,
    /// Wall duration in microseconds (0 for point events).
    pub duration_us: u64,
    /// `key=value` attributes in attachment order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// The end time (`start_us + duration_us`) on the monotonic clock.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }

    /// The value of the first attribute named `key`, if any.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The `(trace, span)` coordinates of an open span, used to parent work that
/// runs on another thread ([`span_in`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace id.
    pub trace_id: u64,
    /// The span id that children should point at.
    pub span_id: u64,
}

thread_local! {
    /// The stack of open spans on this thread (innermost last).
    static CURRENT: std::cell::RefCell<Vec<SpanContext>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The innermost open span on this thread, if tracing has pushed one.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|stack| stack.borrow().last().copied())
}

fn push_current(ctx: SpanContext) {
    CURRENT.with(|stack| stack.borrow_mut().push(ctx));
}

fn pop_current(span_id: u64) {
    CURRENT.with(|stack| {
        let mut stack = stack.borrow_mut();
        // Guards drop LIFO in practice; the position search keeps a stray
        // out-of-order drop from corrupting unrelated entries.
        if let Some(pos) = stack.iter().rposition(|c| c.span_id == span_id) {
            stack.remove(pos);
        }
    });
}

fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The process-wide tracer: the enabled flag, the id allocator, the
/// monotonic epoch, and the lock-sharded span ring.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    shard_capacity: usize,
}

impl Tracer {
    fn with_capacity(enabled: bool, capacity: usize) -> Tracer {
        let shard_capacity = capacity.div_ceil(RING_SHARDS).max(1);
        Tracer {
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            shards: (0..RING_SHARDS)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            shard_capacity,
        }
    }

    /// Whether spans and events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Allocate a fresh id (trace and span ids share one counter, so every
    /// id is unique within the process).
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since the process-local monotonic epoch.
    pub fn now_us(&self) -> u64 {
        self.instant_us(Instant::now())
    }

    /// `at` on the tracer clock: whole microseconds since the epoch (0 for
    /// instants before it). Monotone in `at`, so intervals whose ends are
    /// all converted here nest in microseconds exactly as they nest in time
    /// — which separately floored start and duration values do not.
    pub fn instant_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record a pre-built span (remote-span ingestion, synthesized spans
    /// like queue-wait intervals). Ignored while disabled.
    pub fn record(&self, record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        self.push(record);
    }

    fn push(&self, record: SpanRecord) {
        let shard = (record.span_id as usize) % RING_SHARDS;
        // shard < RING_SHARDS == shards.len() by the modulo.
        let mut ring = lock_ignore_poison(&self.shards[shard]);
        if ring.len() >= self.shard_capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// `(recorded spans, total capacity)` of the ring right now.
    pub fn occupancy(&self) -> (usize, usize) {
        let spans = self
            .shards
            .iter()
            .map(|s| lock_ignore_poison(s).len())
            .sum();
        (spans, self.shard_capacity * RING_SHARDS)
    }

    /// Every span currently in the ring, sorted by `(trace_id, start_us,
    /// span_id)` — a deterministic order for any fixed set of records.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = self
            .shards
            .iter()
            .flat_map(|s| lock_ignore_poison(s).iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|r| (r.trace_id, r.start_us, r.span_id));
        all
    }

    /// The spans of one trace, in the [`Tracer::snapshot`] order.
    pub fn trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                lock_ignore_poison(s)
                    .iter()
                    .filter(|r| r.trace_id == trace_id)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        spans.sort_by_key(|r| (r.start_us, r.span_id));
        spans
    }

    /// Drop every recorded span (tests, trace-smoke isolation).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_ignore_poison(shard).clear();
        }
    }

    fn begin(
        &self,
        name: &'static str,
        trace_id: u64,
        parent_id: u64,
        start: Instant,
    ) -> SpanGuard {
        let span_id = self.alloc_id();
        push_current(SpanContext { trace_id, span_id });
        SpanGuard {
            start,
            active: Some(ActiveSpan {
                trace_id,
                span_id,
                parent_id,
                name,
                start_us: self.instant_us(start),
                attrs: Vec::new(),
            }),
        }
    }

    /// Open a span as a child of this thread's current span (a fresh trace
    /// root when there is none). Always measures; records only when enabled.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let start = Instant::now();
        if !self.is_enabled() {
            return SpanGuard {
                start,
                active: None,
            };
        }
        let (trace_id, parent_id) = match current() {
            Some(ctx) => (ctx.trace_id, ctx.span_id),
            None => (self.alloc_id(), 0),
        };
        self.begin(name, trace_id, parent_id, start)
    }

    /// Open a root span of a **new** trace regardless of the thread context
    /// (request roots, shard-local request traces).
    pub fn span_root(&self, name: &'static str) -> SpanGuard {
        let start = Instant::now();
        if !self.is_enabled() {
            return SpanGuard {
                start,
                active: None,
            };
        }
        let trace_id = self.alloc_id();
        self.begin(name, trace_id, 0, start)
    }

    /// Open a span under an explicit parent context — the cross-thread form
    /// (capture [`current`] before handing work to a pool or hedge thread).
    /// `None` behaves like [`Tracer::span`].
    pub fn span_in(&self, parent: Option<SpanContext>, name: &'static str) -> SpanGuard {
        let start = Instant::now();
        if !self.is_enabled() {
            return SpanGuard {
                start,
                active: None,
            };
        }
        let (trace_id, parent_id) = match parent.or_else(current) {
            Some(ctx) => (ctx.trace_id, ctx.span_id),
            None => (self.alloc_id(), 0),
        };
        self.begin(name, trace_id, parent_id, start)
    }
}

/// The process tracer (initialised on first use from `ATLAS_TRACE` and
/// `ATLAS_TRACE_RING`).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| {
        let capacity = std::env::var("ATLAS_TRACE_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        let enabled = matches!(std::env::var("ATLAS_TRACE"), Ok(v) if !v.is_empty() && v != "0");
        Tracer::with_capacity(enabled, capacity)
    })
}

/// Whether tracing is currently recording (one relaxed atomic load).
pub fn enabled() -> bool {
    tracer().is_enabled()
}

/// Turn recording on or off at runtime (tests, the trace-smoke harness,
/// servers honouring an admin toggle).
pub fn set_enabled(on: bool) {
    tracer().set_enabled(on);
}

/// Open a span as a child of this thread's current span. See
/// [`Tracer::span`].
pub fn span(name: &'static str) -> SpanGuard {
    tracer().span(name)
}

/// Open a root span of a new trace. See [`Tracer::span_root`].
pub fn span_root(name: &'static str) -> SpanGuard {
    tracer().span_root(name)
}

/// Open a span under an explicit parent context. See [`Tracer::span_in`].
pub fn span_in(parent: Option<SpanContext>, name: &'static str) -> SpanGuard {
    tracer().span_in(parent, name)
}

/// Keeps `ctx` installed as this thread's current context until dropped.
/// See [`with_context`].
#[derive(Debug)]
pub struct ContextGuard {
    span_id: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(span_id) = self.span_id.take() {
            pop_current(span_id);
        }
    }
}

/// Install `ctx` as the current context on this thread for the guard's
/// lifetime **without** opening a new span — for pool workers whose events
/// should attribute to a span owned by the dispatching thread, when a full
/// child span per work item would be noise. No-op when `ctx` is `None` or
/// tracing is disabled.
pub fn with_context(ctx: Option<SpanContext>) -> ContextGuard {
    match ctx {
        Some(ctx) if enabled() => {
            push_current(ctx);
            ContextGuard {
                span_id: Some(ctx.span_id),
            }
        }
        _ => ContextGuard { span_id: None },
    }
}

/// Record a zero-duration event span under the current thread context (or
/// unparented, trace id 0, when none is open). Free when disabled.
pub fn event(name: &'static str, attrs: &[(&str, &str)]) {
    let t = tracer();
    if !t.is_enabled() {
        return;
    }
    let (trace_id, parent_id) = match current() {
        Some(ctx) => (ctx.trace_id, ctx.span_id),
        None => (0, 0),
    };
    t.push(SpanRecord {
        trace_id,
        span_id: t.alloc_id(),
        parent_id,
        name: name.to_string(),
        start_us: t.now_us(),
        duration_us: 0,
        attrs: attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    });
}

/// An open span. Dropping it records the measured interval (when tracing was
/// enabled at creation). Create and drop on the same thread.
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    /// Attach a `key=value` attribute (no-op when the span is not recording).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// The `(trace, span)` coordinates of this span, when recording.
    pub fn context(&self) -> Option<SpanContext> {
        self.active.as_ref().map(|a| SpanContext {
            trace_id: a.trace_id,
            span_id: a.span_id,
        })
    }

    /// Milliseconds elapsed since the span opened (monotonic; measured
    /// whether or not the span records).
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0
    }

    /// Close the span now and return its elapsed milliseconds — the hook
    /// phase timings are derived from.
    pub fn finish_ms(self) -> f64 {
        let ms = self.elapsed_ms();
        drop(self);
        ms
    }

    /// Close the span now and hand back its record instead of recording it
    /// (`None` when it does not record): the holder records it with
    /// [`Tracer::record`], or drops it and the span never shows.
    pub fn into_record(mut self) -> Option<SpanRecord> {
        self.close()
    }

    fn close(&mut self) -> Option<SpanRecord> {
        let active = self.active.take()?;
        pop_current(active.span_id);
        // Both ends come from the tracer clock: a duration floored on its
        // own (`Instant::elapsed`) can put a parent's recorded end 1 µs
        // before its child's.
        let end_us = tracer().now_us();
        Some(SpanRecord {
            trace_id: active.trace_id,
            span_id: active.span_id,
            parent_id: active.parent_id,
            name: active.name.to_string(),
            start_us: active.start_us,
            duration_us: end_us.saturating_sub(active.start_us),
            attrs: active.attrs,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(record) = self.close() {
            tracer().push(record);
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named, always-on monotonic counter (interned for the process lifetime).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

fn counter_registry() -> &'static Mutex<Vec<&'static Counter>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Intern (or look up) the counter named `name`. Hot call sites should cache
/// the returned reference in a `OnceLock` instead of re-interning per call.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut registry = lock_ignore_poison(counter_registry());
    if let Some(existing) = registry.iter().find(|c| c.name == name) {
        return existing;
    }
    let created: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
    }));
    registry.push(created);
    created
}

/// A snapshot of every interned counter, sorted by name (a deterministic
/// exposition order for `/metrics`).
pub fn counters() -> Vec<(&'static str, u64)> {
    let registry = lock_ignore_poison(counter_registry());
    let mut out: Vec<(&'static str, u64)> = registry.iter().map(|c| (c.name, c.get())).collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

// ---------------------------------------------------------------------------
// Tree assembly
// ---------------------------------------------------------------------------

/// One node of an assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, sorted by `(start_us, span_id)`.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first walk over this node and its descendants.
    pub fn walk(&self, f: &mut impl FnMut(&SpanNode, usize)) {
        fn inner(node: &SpanNode, depth: usize, f: &mut impl FnMut(&SpanNode, usize)) {
            f(node, depth);
            for child in &node.children {
                inner(child, depth + 1, f);
            }
        }
        inner(self, 0, f);
    }

    /// Number of spans in this subtree (this node included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// The names of every span in this subtree, depth-first.
    pub fn names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.size());
        self.walk(&mut |node, _| names.push(node.record.name.clone()));
        names
    }
}

/// Assemble flat records into trees: spans whose parent is absent from the
/// set (or 0) become roots. Roots sort by `(trace_id, start_us, span_id)`;
/// children by `(start_us, span_id)` — deterministic for a fixed record set.
pub fn assemble_forest(records: Vec<SpanRecord>) -> Vec<SpanNode> {
    let ids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.span_id).collect();
    let mut children_of: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<SpanRecord> = Vec::new();
    for record in records {
        if record.parent_id != 0 && ids.contains(&record.parent_id) {
            children_of
                .entry(record.parent_id)
                .or_default()
                .push(record);
        } else {
            roots.push(record);
        }
    }
    fn build(record: SpanRecord, children_of: &mut BTreeMap<u64, Vec<SpanRecord>>) -> SpanNode {
        let mut kids = children_of.remove(&record.span_id).unwrap_or_default();
        kids.sort_by_key(|r| (r.start_us, r.span_id));
        SpanNode {
            record,
            children: kids
                .into_iter()
                .map(|kid| build(kid, children_of))
                .collect(),
        }
    }
    roots.sort_by_key(|r| (r.trace_id, r.start_us, r.span_id));
    roots
        .into_iter()
        .map(|root| build(root, &mut children_of))
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render records as Chrome trace-event-format JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto and
/// `chrome://tracing`. Every span becomes a complete (`"ph": "X"`) event:
/// `pid` is the trace id, `tid` lanes separate the top-level subtrees of
/// each trace so parallel shard calls render side by side, and attributes
/// ride in `args`. All numbers are integers (microseconds), so the output
/// is byte-stable for a fixed record set.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let forest = assemble_forest(records.to_vec());
    let mut events: Vec<String> = Vec::new();
    for tree in &forest {
        // The root occupies lane 0; each of its immediate subtrees gets its
        // own lane so concurrent siblings don't fight over one track.
        emit_chrome(tree, 0, &mut events);
        for (lane, child) in tree.children.iter().enumerate() {
            emit_chrome_subtree(child, (lane + 1) as u64, &mut events);
        }
    }
    let mut out = String::from("{\"traceEvents\": [");
    out.push_str(&events.join(", "));
    out.push_str("], \"displayTimeUnit\": \"ms\"}");
    out
}

fn emit_chrome(node: &SpanNode, tid: u64, events: &mut Vec<String>) {
    let r = &node.record;
    let mut ev = String::from("{\"name\": \"");
    escape_json(&r.name, &mut ev);
    ev.push_str(&format!(
        "\", \"cat\": \"atlas\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}",
        r.start_us, r.duration_us, r.trace_id, tid
    ));
    ev.push_str(", \"args\": {");
    let mut first = true;
    for (key, value) in &r.attrs {
        if !first {
            ev.push_str(", ");
        }
        first = false;
        ev.push('"');
        escape_json(key, &mut ev);
        ev.push_str("\": \"");
        escape_json(value, &mut ev);
        ev.push('"');
    }
    ev.push_str(&format!(
        "{}\"span_id\": \"{}\", \"parent_id\": \"{}\"}}}}",
        if first { "" } else { ", " },
        r.span_id,
        r.parent_id
    ));
    events.push(ev);
}

fn emit_chrome_subtree(node: &SpanNode, tid: u64, events: &mut Vec<String>) {
    emit_chrome(node, tid, events);
    for child in &node.children {
        emit_chrome_subtree(child, tid, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests flip the process-wide enabled flag; serialise them.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        lock_ignore_poison(GATE.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn disabled_spans_measure_but_record_nothing() {
        let _gate = exclusive();
        set_enabled(false);
        tracer().clear();
        let mut guard = span("quiet");
        guard.attr("k", "v");
        assert!(guard.context().is_none());
        let ms = guard.finish_ms();
        assert!(ms >= 0.0);
        assert_eq!(tracer().occupancy().0, 0);
        assert!(current().is_none());
    }

    #[test]
    fn enabled_spans_nest_and_link_parents() {
        let _gate = exclusive();
        set_enabled(true);
        tracer().clear();
        let trace_id;
        {
            let root = span_root("root");
            trace_id = root.context().unwrap().trace_id;
            {
                let mut child = span("child");
                child.attr("k", 7);
                event("tick", &[("path", "word")]);
            }
            assert_eq!(current().unwrap().span_id, root.context().unwrap().span_id);
        }
        set_enabled(false);
        let spans = tracer().trace(trace_id);
        assert_eq!(spans.len(), 3);
        let forest = assemble_forest(spans);
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.record.name, "root");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].record.name, "child");
        assert_eq!(root.children[0].record.attr("k"), Some("7"));
        assert_eq!(root.children[0].children[0].record.name, "tick");
        assert_eq!(root.children[0].children[0].record.duration_us, 0);
        assert!(current().is_none());
    }

    #[test]
    fn span_in_carries_a_parent_across_threads() {
        let _gate = exclusive();
        set_enabled(true);
        tracer().clear();
        let trace_id;
        {
            let root = span_root("root");
            let ctx = root.context();
            trace_id = ctx.unwrap().trace_id;
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _worker = span_in(ctx, "worker");
                });
            });
        }
        set_enabled(false);
        let forest = assemble_forest(tracer().trace(trace_id));
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].children.len(), 1);
        assert_eq!(forest[0].children[0].record.name, "worker");
    }

    #[test]
    fn tightly_nested_spans_never_escape_their_parent() {
        let _gate = exclusive();
        set_enabled(true);
        for round in 0..10_000 {
            tracer().clear();
            let trace_id;
            {
                let parent = span_root("parent");
                trace_id = parent.context().unwrap().trace_id;
                // Declared last, so it closes first — as close to the
                // parent's own close as two drops can be.
                let _child = span("child");
            }
            let spans = tracer().trace(trace_id);
            let parent = spans.iter().find(|s| s.name == "parent").unwrap();
            let child = spans.iter().find(|s| s.name == "child").unwrap();
            assert!(
                parent.start_us <= child.start_us && child.end_us() <= parent.end_us(),
                "round {round}: child [{}..{}] escapes parent [{}..{}]",
                child.start_us,
                child.end_us(),
                parent.start_us,
                parent.end_us()
            );
        }
        set_enabled(false);
        tracer().clear();
    }

    #[test]
    fn the_ring_is_bounded_and_evicts_oldest_first() {
        let _gate = exclusive();
        let t = Tracer::with_capacity(true, 16);
        for i in 0..100u64 {
            t.push(SpanRecord {
                trace_id: 1,
                span_id: i + 1,
                parent_id: 0,
                name: "s".to_string(),
                start_us: i,
                duration_us: 1,
                attrs: Vec::new(),
            });
        }
        let (len, capacity) = t.occupancy();
        assert!(len <= capacity);
        assert!(capacity >= 16);
        // Survivors are the newest spans of each shard.
        let snapshot = t.snapshot();
        assert!(snapshot.iter().all(|r| r.span_id > 100 - capacity as u64));
    }

    #[test]
    fn ids_are_monotonic_and_never_wall_clock() {
        let _gate = exclusive();
        let a = tracer().alloc_id();
        let b = tracer().alloc_id();
        assert!(b > a);
    }

    #[test]
    fn counters_intern_and_snapshot_in_name_order() {
        let _gate = exclusive();
        let c1 = counter("test.zeta");
        let c2 = counter("test.alpha");
        let again = counter("test.zeta");
        assert!(std::ptr::eq(c1, again));
        c1.add(2);
        c2.add(5);
        let snapshot = counters();
        let pos = |name: &str| snapshot.iter().position(|&(n, _)| n == name).unwrap();
        assert!(pos("test.alpha") < pos("test.zeta"));
        assert!(snapshot[pos("test.zeta")].1 >= 2);
        assert!(snapshot[pos("test.alpha")].1 >= 5);
    }

    #[test]
    fn orphan_spans_become_forest_roots() {
        let record = |span_id, parent_id| SpanRecord {
            trace_id: 9,
            span_id,
            parent_id,
            name: format!("s{span_id}"),
            start_us: span_id,
            duration_us: 1,
            attrs: Vec::new(),
        };
        let forest = assemble_forest(vec![record(2, 1), record(3, 2), record(5, 99)]);
        assert_eq!(forest.len(), 2, "orphans root their own trees");
        assert_eq!(forest[0].record.span_id, 2);
        assert_eq!(forest[0].children[0].record.span_id, 3);
        assert_eq!(forest[1].record.span_id, 5);
    }

    #[test]
    fn chrome_export_is_wellformed_and_integer_timed() {
        let record = |span_id, parent_id, start| SpanRecord {
            trace_id: 4,
            span_id,
            parent_id,
            name: format!("span \"{span_id}\""),
            start_us: start,
            duration_us: 10,
            attrs: vec![("key".to_string(), "va\"lue".to_string())],
        };
        let mut bare = record(7, 1, 8);
        bare.attrs.clear();
        let json = chrome_trace_json(&[record(1, 0, 0), record(2, 1, 2), record(3, 1, 5), bare]);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\\\"2\\\""), "quotes are escaped");
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        assert!(
            !json.contains("{,"),
            "attr-less spans must still emit valid args: {json}"
        );
        // Sibling subtrees get distinct lanes.
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"tid\": 2"));
        assert!(!json.contains('.'), "all numbers are integers: {json}");
    }
}
