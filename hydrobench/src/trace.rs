//! The benchmark's span recorder. Spans are recorded by the benchmark's
//! own code around its calls into each layer's public functions: name,
//! start, end, parent and request id. They stay in memory until the run
//! ends, then are written out and reduced to per-name totals and self
//! time (a span's duration minus the part its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer's span list.
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span storage shared by the benchmark's threads. A disabled tracer
/// records nothing, so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id, or `None` when
    /// tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span now; children recorded later may name its id as
    /// their parent before it closes.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span list lock poisoned")[id].end_ns = end;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, None);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// One JSON object per span, one span per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}\n");
    }
    out
}
