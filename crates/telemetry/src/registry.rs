//! The global telemetry registry: session lifecycle, spans, counters,
//! histograms, and time series.
//!
//! Everything lives behind one process-global mutex, but the hot path
//! never touches it when collection is off: [`enabled`] is a single
//! relaxed atomic load, and every public recording function returns
//! immediately when it is false. Span *enter* is also lock-free when
//! collection is on (ids come from an atomic, parents from a
//! thread-local stack); only span *exit* and the counter updates take
//! the state lock.

use crate::quantile::{QuantileHistogram, QuantileSnapshot};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Is a telemetry session active? One relaxed load — the entire cost of
/// every instrumentation point in an uninstrumented run.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every session start so stale thread-locals and span guards
/// from a previous session can detect they are orphaned.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique flow id for linking spans into one
/// logical operation (e.g. one request's lifecycle across threads).
/// Attach it to each participating span via [`SpanGuard::flow`]; the
/// Chrome exporter turns the group into connected flow/async events.
pub fn next_flow_id() -> u64 {
    NEXT_FLOW_ID.fetch_add(1, Ordering::Relaxed)
}

/// Process-wide monotonic time anchor; all timestamps are microseconds
/// since this instant and are re-based to the session start on record.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    anchor().elapsed().as_micros() as u64
}

/// Recovers from a poisoned mutex: telemetry state is always valid to
/// read (worst case a partially-recorded session), and a panicking test
/// must not wedge every later session.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct State {
    generation: u64,
    session_start_us: u64,
    next_tid: u64,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
    quantiles: BTreeMap<&'static str, QuantileHistogram>,
    series: BTreeMap<&'static str, Vec<SeriesPoint>>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

thread_local! {
    static THREAD: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { generation: 0, tid: 0, stack: Vec::new() })
    };
}

struct ThreadCtx {
    generation: u64,
    tid: u64,
    /// Open span ids on this thread, innermost last.
    stack: Vec<u64>,
}

/// An exclusive telemetry collection session.
///
/// Creating one resets the registry and enables collection; dropping it
/// disables collection (the recorded data survives until the next
/// session resets it, so export can also happen after drop via a fresh
/// session — in practice, export before dropping).
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

/// Starts a session: blocks until any other session ends, clears all
/// previously recorded data, and enables collection.
pub fn session() -> Session {
    let guard = lock_or_recover(session_lock());
    {
        let mut s = lock_or_recover(state());
        *s = State {
            generation: GENERATION.fetch_add(1, Ordering::Relaxed) + 1,
            session_start_us: now_us(),
            ..State::default()
        };
    }
    ENABLED.store(true, Ordering::SeqCst);
    Session { _guard: guard }
}

impl Session {
    /// Structured snapshot of everything recorded so far. Open spans are
    /// not included (only exited ones).
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = lock_or_recover(state());
        let mut spans: BTreeMap<String, SpanSummary> = BTreeMap::new();
        for record in &s.spans {
            let e = spans.entry(record.category.clone()).or_default();
            e.count += 1;
            e.wall_s += (record.end_us - record.start_us) as f64 / 1e6;
            e.sim_s += record.sim_s.unwrap_or(0.0);
        }
        MetricsSnapshot {
            counters: s
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: s.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            quantiles: s
                .quantiles
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            series: s
                .series
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            spans,
            wall_s: (now_us() - s.session_start_us) as f64 / 1e6,
        }
    }

    /// All exited spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock_or_recover(state()).spans.clone()
    }

    /// Chrome-trace-format JSON of all exited spans (see
    /// [`chrome_trace`](crate::chrome::chrome_trace)).
    pub fn chrome_trace(&self) -> String {
        crate::chrome::chrome_trace(&self.spans())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// One exited span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Innermost enclosing span on the same thread at enter time.
    pub parent: Option<u64>,
    /// Dense per-session thread id (assignment order is scheduling-
    /// dependent; the Chrome exporter sorts for stable output).
    pub tid: u64,
    /// Aggregation key, e.g. `"nas.trial"`.
    pub category: String,
    /// Instance label, e.g. `"trial 42"`.
    pub name: String,
    /// Wall-clock microseconds since session start (wall field).
    pub start_us: u64,
    /// Wall-clock microseconds since session start (wall field).
    pub end_us: u64,
    /// Simulated duration from the sweep cost model, if any.
    pub sim_s: Option<f64>,
    /// Flow id linking this span to others in the same logical
    /// operation (see [`next_flow_id`]); exported as Chrome flow/async
    /// events so the group renders connected across threads.
    pub flow: Option<u64>,
    /// Attribute key/value pairs, in attachment order.
    pub attrs: Vec<(String, String)>,
}

/// RAII guard for an open span; records on drop. A guard created while
/// collection is off (or orphaned by a session turnover) records nothing.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    generation: u64,
    id: u64,
    parent: Option<u64>,
    tid: u64,
    category: &'static str,
    name: String,
    start_abs_us: u64,
    sim_s: Option<f64>,
    flow: Option<u64>,
    attrs: Vec<(String, String)>,
}

/// Opens a span. `category` is the aggregation key (`"nas.trial"`),
/// `name` the instance label (`"trial 42"`). Near-zero cost when no
/// session is active — but note the `name` argument is still evaluated,
/// so guard expensive formatting with [`enabled`].
pub fn span(category: &'static str, name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, tid) = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        if t.generation != generation {
            t.generation = generation;
            t.stack.clear();
            let mut s = lock_or_recover(state());
            s.next_tid += 1;
            t.tid = s.next_tid;
        }
        let parent = t.stack.last().copied();
        t.stack.push(id);
        (parent, t.tid)
    });
    SpanGuard(Some(OpenSpan {
        generation,
        id,
        parent,
        tid,
        category,
        name: name.to_string(),
        start_abs_us: now_us(),
        sim_s: None,
        flow: None,
        attrs: Vec::new(),
    }))
}

impl SpanGuard {
    /// Attaches a key/value attribute (exported into Chrome-trace args).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(open) = self.0.as_mut() {
            open.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Attaches the simulated duration of this span, in seconds.
    pub fn sim_s(&mut self, seconds: f64) {
        if let Some(open) = self.0.as_mut() {
            open.sim_s = Some(seconds);
        }
    }

    /// Tags this span with a flow id from [`next_flow_id`], linking it
    /// to every other span carrying the same id across threads.
    pub fn flow(&mut self, id: u64) {
        if let Some(open) = self.0.as_mut() {
            open.flow = Some(id);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_abs_us = now_us();
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            // LIFO in the common case; tolerate out-of-order drops.
            if let Some(pos) = t.stack.iter().rposition(|&id| id == open.id) {
                t.stack.remove(pos);
            }
        });
        let mut s = lock_or_recover(state());
        // The session that opened this span is gone; don't pollute the
        // current one.
        if s.generation != open.generation {
            return;
        }
        let start_us = open.start_abs_us.saturating_sub(s.session_start_us);
        let end_us = end_abs_us.saturating_sub(s.session_start_us).max(start_us);
        s.spans.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            tid: open.tid,
            category: open.category.to_string(),
            name: open.name,
            start_us,
            end_us,
            sim_s: open.sim_s,
            flow: open.flow,
            attrs: open.attrs,
        });
    }
}

/// Adds `delta` to the named monotonic counter. No-op without a session.
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut s = lock_or_recover(state());
    *s.counters.entry(name).or_insert(0) += delta;
}

/// Adds several counter deltas under one lock acquisition — what the
/// per-op kernel accounting uses (calls + FLOPs + bytes in one shot).
/// No-op without a session.
pub fn add_all(entries: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let mut s = lock_or_recover(state());
    for &(name, delta) in entries {
        *s.counters.entry(name).or_insert(0) += delta;
    }
}

/// Records one observation into the named histogram. No-op without a
/// session.
pub fn record_value(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock_or_recover(state());
    s.histograms.entry(name).or_default().observe(value);
}

/// Records one observation into the named log-bucketed quantile
/// histogram (see [`QuantileHistogram`]). No-op without a session.
pub fn record_quantile(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock_or_recover(state());
    s.quantiles.entry(name).or_default().observe(value);
}

/// Adds `delta` (may be negative) to the named gauge and updates its
/// high watermark. No-op without a session.
pub fn gauge_add(name: &'static str, delta: i64) {
    if !enabled() {
        return;
    }
    let mut s = lock_or_recover(state());
    let g = s.gauges.entry(name).or_default();
    g.value += delta;
    g.high_watermark = g.high_watermark.max(g.value);
}

/// Appends one `(step, value)` point to the named time series. No-op
/// without a session.
pub fn push_series(name: &'static str, step: f64, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock_or_recover(state());
    s.series
        .entry(name)
        .or_default()
        .push(SeriesPoint { step, value });
}

/// Count/sum/min/max summary of observed values.
///
/// `min`/`max` are `None` until the first observation, so an empty
/// histogram serializes them as `null` rather than as two phantom
/// `0.0` observations.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        self.count += 1;
        self.sum += value;
    }

    /// Arithmetic mean of all observations; `0.0` when empty (the
    /// empty histogram has no mean — callers that need to distinguish
    /// should check `count` first).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// An instantaneous level with its session-lifetime peak, e.g. queue
/// depth or in-flight request count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gauge {
    /// Current level (sum of all deltas so far).
    pub value: i64,
    /// Highest level ever reached this session.
    pub high_watermark: i64,
}

/// One point of a time series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    pub step: f64,
    pub value: f64,
}

/// Per-category span aggregate.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    pub count: u64,
    /// Total wall-clock seconds spent inside spans of this category
    /// (wall field; overlapping spans on different threads both count).
    pub wall_s: f64,
    /// Total simulated seconds attached via [`SpanGuard::sim_s`].
    pub sim_s: f64,
}

/// The `metrics.json` payload: everything a session recorded, in
/// deterministic (sorted-key) order. Wall-clock quantities live only in
/// fields named `wall_*` / derived-from-wall series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    /// Gauges with high-watermark tracking (queue depth, in-flight).
    pub gauges: BTreeMap<String, Gauge>,
    pub histograms: BTreeMap<String, Histogram>,
    /// Log-bucketed quantile histograms (p50/p95/p99/p99.9); bucket
    /// boundaries are fixed, so identical observation multisets
    /// serialize byte-identically regardless of recording order.
    pub quantiles: BTreeMap<String, QuantileSnapshot>,
    pub series: BTreeMap<String, Vec<SeriesPoint>>,
    /// Span aggregates keyed by category.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Real elapsed session time at snapshot, seconds (wall field).
    pub wall_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test opens a session, which serializes them through the
    // session lock; assertions stick to keys the test itself touches.

    #[test]
    fn counters_histograms_and_series_aggregate() {
        let session = session();
        add("t.calls", 2);
        add("t.calls", 3);
        record_value("t.ms", 4.0);
        record_value("t.ms", 1.0);
        record_value("t.ms", 7.0);
        push_series("t.loss", 0.0, 0.9);
        push_series("t.loss", 1.0, 0.5);
        let m = session.metrics();
        assert_eq!(m.counters["t.calls"], 5);
        let h = &m.histograms["t.ms"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, Some(1.0));
        assert_eq!(h.max, Some(7.0));
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(
            m.series["t.loss"],
            vec![
                SeriesPoint {
                    step: 0.0,
                    value: 0.9
                },
                SeriesPoint {
                    step: 1.0,
                    value: 0.5
                }
            ]
        );
        assert!(m.wall_s >= 0.0);
    }

    #[test]
    fn spans_nest_via_thread_stack() {
        let session = session();
        {
            let mut outer = span("t.outer", "outer");
            outer.attr("k", "v");
            {
                let mut inner = span("t.inner", "inner");
                inner.sim_s(2.5);
            }
        }
        let spans = session.spans();
        let outer = spans.iter().find(|s| s.category == "t.outer").unwrap();
        let inner = spans.iter().find(|s| s.category == "t.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.attrs, vec![("k".to_string(), "v".to_string())]);
        assert_eq!(inner.sim_s, Some(2.5));
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us <= outer.end_us);
        assert_eq!(inner.tid, outer.tid);
        let m = session.metrics();
        assert_eq!(m.spans["t.outer"].count, 1);
        assert!((m.spans["t.inner"].sim_s - 2.5).abs() < 1e-12);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let session = session();
        {
            let _sp = span("t.main", "main");
        }
        std::thread::scope(|s| {
            for i in 0..3 {
                s.spawn(move || {
                    let _sp = span("t.worker", &format!("worker {i}"));
                });
            }
        });
        let spans = session.spans();
        let mut tids: Vec<u64> = spans
            .iter()
            .filter(|s| s.category == "t.worker")
            .map(|s| s.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each worker thread gets its own tid");
        let main_tid = spans.iter().find(|s| s.category == "t.main").unwrap().tid;
        assert!(!tids.contains(&main_tid));
    }

    #[test]
    fn disabled_guards_record_nothing_into_a_new_session() {
        let stale = {
            let first = session();
            let sp = span("t.stale", "held across sessions");
            drop(first);
            sp
        };
        // New session: the stale guard must not leak into it.
        let session = session();
        drop(stale);
        add("t.fresh", 1);
        let m = session.metrics();
        assert_eq!(m.counters.get("t.stale"), None);
        assert!(!m.spans.contains_key("t.stale"));
        assert_eq!(m.counters["t.fresh"], 1);
    }

    #[test]
    fn session_reset_clears_previous_data() {
        {
            let _s = session();
            add("t.old", 9);
        }
        let s = session();
        assert_eq!(s.metrics().counters.get("t.old"), None);
    }

    #[test]
    fn no_session_recording_is_a_noop() {
        // Holding the session lock guarantees no session is active (a
        // `Session` disables collection before releasing this lock), so
        // every entry point must return immediately.
        let _guard = lock_or_recover(session_lock());
        assert!(!enabled());
        add("t.noop", 1);
        record_value("t.noop", 1.0);
        record_quantile("t.noop", 1.0);
        gauge_add("t.noop", 1);
        push_series("t.noop", 0.0, 1.0);
        drop(span("t.noop", "noop"));
        let s = lock_or_recover(state());
        assert_eq!(s.counters.get("t.noop"), None);
        assert!(!s.histograms.contains_key("t.noop"));
        assert!(!s.quantiles.contains_key("t.noop"));
        assert!(!s.gauges.contains_key("t.noop"));
        assert!(!s.series.contains_key("t.noop"));
        assert!(!s.spans.iter().any(|r| r.category == "t.noop"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let session = session();
        add("t.rt", 7);
        record_value("t.rt.h", 0.5);
        record_quantile("t.rt.q", 3.0);
        gauge_add("t.rt.g", 2);
        push_series("t.rt.s", 1.0, 2.0);
        {
            let _sp = span("t.rt.span", "x");
        }
        let m = session.metrics();
        let json = serde_json::to_string(&m).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        // wall_s aside, the payload is exact.
        assert_eq!(back.counters, m.counters);
        assert_eq!(back.gauges, m.gauges);
        assert_eq!(back.histograms, m.histograms);
        assert_eq!(back.quantiles, m.quantiles);
        assert_eq!(back.series, m.series);
        assert_eq!(
            back.spans.keys().collect::<Vec<_>>(),
            m.spans.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_histogram_serializes_null_min_max() {
        // Regression: an empty histogram used to serialize
        // `min: 0.0, max: 0.0`, indistinguishable from two real
        // observations of zero.
        let h = Histogram::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.min, None);
        assert_eq!(h.max, None);
        assert_eq!(h.mean(), 0.0);
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.contains("\"min\":null"), "{json}");
        assert!(json.contains("\"max\":null"), "{json}");
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn gauges_track_level_and_high_watermark() {
        let session = session();
        gauge_add("t.depth", 3);
        gauge_add("t.depth", 2);
        gauge_add("t.depth", -4);
        gauge_add("t.depth", 1);
        let m = session.metrics();
        let g = m.gauges["t.depth"];
        assert_eq!(g.value, 2);
        assert_eq!(g.high_watermark, 5);
    }

    #[test]
    fn quantile_recording_reaches_snapshot() {
        let session = session();
        for v in [1.0, 2.0, 4.0, 8.0, 16.0] {
            record_quantile("t.lat", v);
        }
        let m = session.metrics();
        let q = &m.quantiles["t.lat"];
        assert_eq!(q.count, 5);
        assert!(q.p50 >= 4.0 && q.p50 <= 4.0 * 1.091, "p50 = {}", q.p50);
    }

    #[test]
    fn span_flow_ids_survive_to_records() {
        let session = session();
        let flow = next_flow_id();
        {
            let mut a = span("t.flow.a", "enqueue");
            a.flow(flow);
        }
        {
            let mut b = span("t.flow.b", "complete");
            b.flow(flow);
        }
        let spans = session.spans();
        let a = spans.iter().find(|s| s.category == "t.flow.a").unwrap();
        let b = spans.iter().find(|s| s.category == "t.flow.b").unwrap();
        assert_eq!(a.flow, Some(flow));
        assert_eq!(b.flow, Some(flow));
    }
}
