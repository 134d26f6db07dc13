//! # hydronas-telemetry
//!
//! Workspace-wide observability for HydroNAS: hierarchical spans, cheap
//! global counters/histograms, training time series, and exporters for
//! the Chrome trace format (`chrome://tracing` / Perfetto) and a
//! structured `metrics.json` snapshot.
//!
//! ## Model
//!
//! All instrumentation funnels into one process-global registry that is
//! **off by default**. Call sites guard themselves with [`enabled`] — a
//! single relaxed atomic load — so an uninstrumented run pays one branch
//! per call site and allocates nothing (the no-subscriber fast path).
//! A [`Session`] turns collection on; dropping it turns collection off.
//! Sessions are exclusive (a global lock serializes them), which also
//! serializes tests that record telemetry within one process.
//!
//! * **Spans** ([`span`]) — enter/exit pairs with parent links inferred
//!   from a per-thread stack, wall-clock durations, optional *simulated*
//!   durations (for the sweep's simulated cost model), and string
//!   attributes. Exported as Chrome-trace complete (`"X"`) events.
//! * **Counters** ([`add`]) — monotonic `u64` sums (op calls, FLOPs,
//!   bytes moved).
//! * **Gauges** ([`gauge_add`]) — signed levels with high-watermark
//!   tracking (queue depth, in-flight requests).
//! * **Histograms** ([`record_value`]) — count/sum/min/max summaries.
//! * **Quantile histograms** ([`record_quantile`]) — deterministic
//!   log-bucketed distributions answering p50/p95/p99/p99.9 (serving
//!   latencies). Bucket boundaries are fixed constants, so identical
//!   observation multisets snapshot byte-identically in any order.
//! * **Series** ([`push_series`]) — ordered `(step, value)` points
//!   (per-epoch loss, accuracy, throughput, learning rate).
//! * **Flows** ([`next_flow_id`] + [`SpanGuard::flow`]) — link spans on
//!   different threads into one logical operation; the Chrome exporter
//!   renders the group as connected flow/async events.
//! * **Logger** ([`log`], [`log_error!`]..[`log_debug!`]) — a leveled
//!   stderr logger for the binaries, independent of the session state.
//!
//! ## Determinism contract
//!
//! Recording is a pure side channel: enabling a session never changes
//! any computed result, and every wall-clock quantity lands only in
//! clearly-labeled fields (`wall_s`, span wall durations, throughput
//! series). Simulated durations are carried separately (`sim_s`), so
//! deterministic outputs stay byte-identical with telemetry on or off.
//!
//! ## Example
//!
//! ```
//! let session = hydronas_telemetry::session();
//! {
//!     let mut sp = hydronas_telemetry::span("demo.stage", "stage 1");
//!     sp.attr("size", 42);
//!     hydronas_telemetry::add("demo.ops", 3);
//! }
//! let m = session.metrics();
//! assert_eq!(m.counters["demo.ops"], 3);
//! assert_eq!(m.spans["demo.stage"].count, 1);
//! let trace = session.chrome_trace();
//! assert!(trace.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod logger;
pub mod quantile;
mod registry;

pub use chrome::chrome_trace;
pub use logger::{log, log_enabled, log_level, set_log_level, Level};
pub use quantile::{BucketCount, QuantileHistogram, QuantileSnapshot};
pub use registry::{
    add, add_all, enabled, gauge_add, next_flow_id, push_series, record_quantile, record_value,
    session, span, Gauge, Histogram, MetricsSnapshot, SeriesPoint, Session, SpanGuard, SpanRecord,
    SpanSummary,
};
