//! Multi-threaded batching front-end over one shared [`ExecutionPlan`].
//!
//! ## Batching policy
//!
//! Requests land in a single mutex-guarded queue. A worker that finds the
//! queue non-empty starts a *collection window*: it keeps waiting in
//! tick-sized slices (`tick_us` each) until either `max_batch` requests are
//! pending or `max_wait_ticks` ticks have elapsed, then drains up to
//! `max_batch` requests and executes them as one stacked forward pass.
//! A batch holds one input H×W: the drain stops at the first request
//! whose dims differ from the head's, which waits for the next drain. The
//! deadline counts ticks rather than wall-clock timestamps — a simulated
//! clock in the spirit of the latency simulator — so the policy is
//! deterministic under test and never blocks an almost-full batch on a
//! slow clock.
//!
//! ## Admission policy (overload protection)
//!
//! The queue is **bounded** by [`EngineConfig::queue_capacity`]. A submit
//! that finds it full is resolved by the configured [`ShedPolicy`]:
//! either the *new* request is refused synchronously
//! ([`InferError::QueueFull`]) or the *oldest* queued request is shed
//! ([`InferError::Shed`] delivered through its handle) to make room.
//! Either way the queue never grows past `queue_capacity`, so queue wait
//! — and therefore completed-request tail latency — is bounded by
//! construction even at offered loads far above capacity.
//!
//! ## Deadlines
//!
//! [`InferRequest::deadline_ticks`] stamps a request with a budget in
//! ticks of the same clock the collection window counts. Expiry is
//! checked once, at drain time: an expired request is failed with
//! [`InferError::DeadlineExceeded`] *before* batch assembly, so it never
//! wastes a batch slot on an answer its client has already given up on.
//!
//! ## The tick clock
//!
//! In the default wall-clock mode one tick is `tick_us` microseconds of
//! real time. With [`EngineConfig::manual_clock`] the clock only moves
//! when [`Engine::advance_ticks`] is called, which makes shed/expiry
//! outcomes a pure function of arrival order and tick budget — the mode
//! the determinism tests and the `--overload` bench harness rely on.
//!
//! The plan is shared via `Arc`: workers hold no model state of their own,
//! so memory stays flat in the worker count (the whole point of the
//! read-only plan — contrast `ResNet::forward`, which needs `&mut self`).

use crate::plan::ExecutionPlan;
use hydronas_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What happens to a `submit` that finds the queue at capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the new request: `submit` returns [`InferError::QueueFull`]
    /// and the queue is untouched. Favors requests already queued (their
    /// deadlines are closer) and gives the client an immediate signal;
    /// whether and when to submit again is the client's call.
    #[default]
    RejectNew,
    /// Admit the new request and shed the *oldest* queued one, whose
    /// handle resolves to [`InferError::Shed`]. Favors fresh requests —
    /// the right call when stale answers are worthless anyway.
    DropOldest,
}

/// Batching and threading knobs for [`Engine::start`].
///
/// Build one as a struct literal over [`EngineConfig::default`].
/// [`EngineConfig::validate`] reports a degenerate value (`workers`,
/// `max_batch`, `queue_capacity` or `tick_us` of zero) as a typed
/// [`InferError::InvalidConfig`]; [`Engine::start`] panics with that
/// error's message.
///
/// Defaults: 2 workers, batches of up to 8, a 2-tick collection window,
/// 200 µs ticks, a queue bounded at 1024 requests,
/// [`ShedPolicy::RejectNew`], wall clock.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Largest batch one worker will stack.
    pub max_batch: usize,
    /// Collection-window length, in ticks of `tick_us`.
    pub max_wait_ticks: u64,
    /// Duration of one simulated-clock tick, in microseconds.
    pub tick_us: u64,
    /// Most requests that may wait in the queue at once; a submit
    /// finding the queue full is resolved by `shed_policy`.
    pub queue_capacity: usize,
    /// How a full queue sheds load.
    pub shed_policy: ShedPolicy,
    /// When true the tick clock advances only via
    /// [`Engine::advance_ticks`] (deterministic test/bench mode); when
    /// false (default) one tick elapses every `tick_us` microseconds of
    /// wall time.
    pub manual_clock: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 2,
            max_batch: 8,
            max_wait_ticks: 2,
            tick_us: 200,
            queue_capacity: 1024,
            shed_policy: ShedPolicy::RejectNew,
            manual_clock: false,
        }
    }
}

impl EngineConfig {
    /// Rejects the values that would make the engine hang or panic at
    /// spawn — zero workers, a zero-size batch or queue, a zero-length
    /// tick (the wall clock divides by it) — with
    /// [`InferError::InvalidConfig`] naming the first offending field.
    ///
    /// ```
    /// use hydronas_infer::{EngineConfig, InferError};
    ///
    /// let config = EngineConfig {
    ///     workers: 4,
    ///     max_batch: 16,
    ///     ..EngineConfig::default()
    /// };
    /// assert!(config.validate().is_ok());
    /// let degenerate = EngineConfig { workers: 0, ..config };
    /// let field = "workers";
    /// assert_eq!(degenerate.validate(), Err(InferError::InvalidConfig { field }));
    /// ```
    pub fn validate(&self) -> Result<(), InferError> {
        for (field, degenerate) in [
            ("workers", self.workers == 0),
            ("max_batch", self.max_batch == 0),
            ("queue_capacity", self.queue_capacity == 0),
            ("tick_us", self.tick_us == 0),
        ] {
            if degenerate {
                return Err(InferError::InvalidConfig { field });
            }
        }
        Ok(())
    }
}

/// Why a request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InferError {
    /// The engine is shutting down (or a worker died before responding).
    Closed,
    /// The queue was at [`EngineConfig::queue_capacity`] under
    /// [`ShedPolicy::RejectNew`]; the request was never admitted.
    QueueFull,
    /// This request was the oldest in a full queue under
    /// [`ShedPolicy::DropOldest`] when a newer request arrived.
    Shed,
    /// The request's tick budget lapsed before a worker drained it.
    DeadlineExceeded,
    /// Input was not `[C, H, W]` with the plan's channel count, or its
    /// `H×W` was too small for one of the plan's conv or pool windows.
    InputShape {
        expected_channels: usize,
        dims: Vec<usize>,
    },
    /// A degenerate [`EngineConfig`] knob was rejected by
    /// [`EngineConfig::validate`]; `field` names the offender.
    InvalidConfig { field: &'static str },
    /// A quantized plan could not be built: a missing or uncalibrated
    /// [`QuantizationScheme`](crate::QuantizationScheme), a scheme on an
    /// f32 plan, or a calibration batch whose shape does not fit the model
    /// (see [`PlanBuilder::build`](crate::PlanBuilder::build)).
    InvalidQuantization { reason: String },
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::Closed => write!(f, "inference engine is closed"),
            InferError::QueueFull => write!(f, "inference queue is at capacity"),
            InferError::Shed => write!(f, "request shed from a full queue to admit newer work"),
            InferError::DeadlineExceeded => {
                write!(f, "request deadline lapsed before a worker drained it")
            }
            InferError::InputShape {
                expected_channels,
                dims,
            } => write!(
                f,
                "bad input shape {dims:?}: expected [C={expected_channels}, H, W] \
                 with H×W large enough for every window of the plan"
            ),
            InferError::InvalidConfig { field } => {
                write!(f, "invalid engine config: {field} must be positive")
            }
            InferError::InvalidQuantization { reason } => {
                write!(f, "invalid quantization: {reason}")
            }
        }
    }
}

impl std::error::Error for InferError {}

/// One typed inference request: the input tensor plus its deadline,
/// submitted via [`Engine::submit`].
///
/// A bare [`Tensor`] converts into a plain request (`engine.submit(tensor)`
/// and `engine.infer(tensor)`), and a deadline chains on as a builder
/// call:
///
/// ```no_run
/// # use hydronas_infer::{Engine, EngineConfig, InferRequest};
/// # use hydronas_tensor::Tensor;
/// # fn demo(engine: &Engine, x: Tensor) {
/// let handle = engine
///     .submit(InferRequest::new(x).deadline_ticks(50))
///     .unwrap();
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct InferRequest {
    input: Tensor,
    deadline_ticks: Option<u64>,
}

impl InferRequest {
    /// A request for one `[C, H, W]` sample with no deadline.
    pub fn new(input: Tensor) -> InferRequest {
        InferRequest {
            input,
            deadline_ticks: None,
        }
    }

    /// Expires the request after `ticks` engine ticks: if no worker
    /// drains it within the budget it resolves to
    /// [`InferError::DeadlineExceeded`] instead of occupying a batch
    /// slot. A budget of `0` expires as soon as the clock moves at all;
    /// `u64::MAX` never expires.
    pub fn deadline_ticks(mut self, ticks: u64) -> InferRequest {
        self.deadline_ticks = Some(ticks);
        self
    }
}

impl From<Tensor> for InferRequest {
    fn from(input: Tensor) -> InferRequest {
        InferRequest::new(input)
    }
}

/// One classification result.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Raw logits, one per class.
    pub logits: Vec<f32>,
    /// Argmax class (first index on ties, matching `argmax_rows`).
    pub class: usize,
    /// Size of the batch this request was served in.
    pub batch_size: usize,
    /// Queue wait (enqueue → batch drain) in wall microseconds — the
    /// *same* single measurement fed to [`EngineStats::wait_us_total`]
    /// and the `infer.request.wait_wall_ms` quantile.
    pub wait_us: u64,
}

/// A pending request: wait on it to get the [`Prediction`].
#[derive(Debug)]
pub struct PredictionHandle {
    rx: mpsc::Receiver<Result<Prediction, InferError>>,
}

impl PredictionHandle {
    /// Blocks until this request resolves: a [`Prediction`] once its
    /// batch has executed, or a structured error if it was shed
    /// ([`InferError::Shed`]), expired ([`InferError::DeadlineExceeded`]),
    /// or failed by a drain ([`InferError::Closed`]).
    pub fn wait(self) -> Result<Prediction, InferError> {
        self.rx.recv().map_err(|_| InferError::Closed)?
    }
}

/// Aggregate serving statistics since engine start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests admitted to the queue (excludes `rejected`).
    pub requests: u64,
    /// Submissions refused with [`InferError::QueueFull`]
    /// ([`ShedPolicy::RejectNew`] at capacity).
    pub rejected: u64,
    /// Admitted requests later shed from a full queue
    /// ([`ShedPolicy::DropOldest`]).
    pub shed: u64,
    /// Admitted requests whose deadline lapsed before drain.
    pub expired: u64,
    pub batches: u64,
    /// Sum of executed batch sizes (equals `requests` once drained, in
    /// the absence of sheds and expiries).
    pub batched_samples: u64,
    /// Largest batch any worker executed.
    pub max_batch_observed: u64,
    /// Requests whose prediction has been computed (completion is
    /// counted before the client wakes).
    pub completed: u64,
    /// Requests drained into a batch — the accounting point (and
    /// denominator) paired with `wait_us_total`.
    pub drained: u64,
    /// Deepest the pending queue has ever been (never exceeds
    /// [`EngineConfig::queue_capacity`]).
    pub queue_peak: u64,
    /// Total wall-clock microseconds requests spent queued (enqueue →
    /// batch drain), summed over all drained requests.
    pub wait_us_total: u64,
    /// Total wall-clock microseconds workers spent executing batches.
    pub exec_us_total: u64,
}

impl EngineStats {
    /// Mean executed batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_samples as f64 / self.batches as f64
        }
    }

    /// Mean per-request queue wait (enqueue → drain), milliseconds.
    ///
    /// Both the numerator (`wait_us_total`) and the denominator
    /// (`drained`) accumulate at drain time, so a mid-flight snapshot is
    /// internally consistent — dividing by `completed` (which lags until
    /// the batch finishes executing) used to inflate this number.
    pub fn mean_wait_ms(&self) -> f64 {
        if self.drained == 0 {
            0.0
        } else {
            self.wait_us_total as f64 / 1e3 / self.drained as f64
        }
    }

    /// Mean per-batch execution time, milliseconds.
    pub fn mean_exec_ms(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.exec_us_total as f64 / 1e3 / self.batches as f64
        }
    }
}

/// What [`Engine::close_and_drain`] observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Requests completed over the engine's lifetime, as of the drain
    /// returning.
    pub completed: u64,
    /// Still-queued requests failed with [`InferError::Closed`].
    pub failed: u64,
    /// True when an in-flight batch was still executing after the tick
    /// budget lapsed (its clients are still answered once it finishes;
    /// the drain just stopped waiting for it).
    pub timed_out: bool,
}

struct Request {
    /// Dense per-engine request number (1-based admission order).
    id: u64,
    input: Tensor,
    tx: mpsc::Sender<Result<Prediction, InferError>>,
    /// When `submit` enqueued this request (for wait-time accounting).
    enqueued: Instant,
    /// Absolute tick at which this request expires, if a deadline was
    /// set; checked once at drain time.
    deadline: Option<u64>,
    /// Whether a telemetry session was active at submit time. Latched
    /// once and used at *both* ends of every gauge (enqueue/resolve), so
    /// a session starting or ending mid-request can never skew
    /// `infer.inflight` or `infer.queue.depth` permanently.
    telemetry: bool,
    /// Telemetry flow id linking this request's spans across threads;
    /// `None` when no session was active at submit time.
    flow: Option<u64>,
}

struct Queue {
    pending: VecDeque<Request>,
    open: bool,
    /// Batches currently drained-but-executing; `close_and_drain` waits
    /// on `done_cv` until this reaches zero.
    executing: usize,
}

struct Shared {
    plan: Arc<ExecutionPlan>,
    queue: Mutex<Queue>,
    cv: Condvar,
    /// Signaled each time a worker finishes a batch (for drain waits).
    done_cv: Condvar,
    /// Engine start, the epoch of the wall tick clock.
    started: Instant,
    /// The manual tick clock ([`EngineConfig::manual_clock`]).
    ticks: AtomicU64,
    next_request: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    batched_samples: AtomicU64,
    max_batch_observed: AtomicU64,
    completed: AtomicU64,
    drained: AtomicU64,
    queue_peak: AtomicU64,
    wait_us: AtomicU64,
    exec_us: AtomicU64,
}

/// Unwraps a [`Queue`] lock or condvar wait, recovering the guard if a
/// thread panicked while it held the lock, so one panic under the lock
/// does not take every client and worker down after it.
///
/// Recovery is sound because every critical section leaves the queue
/// valid after each single mutation: `pending` changes by one
/// `VecDeque` call at a time and holds only admitted, unresolved
/// requests; `open` is only ever cleared; `executing` rises in the
/// section that drains the batch it counts and falls in one of its own
/// once that batch has run. A panic under the lock can lose at most the
/// request or batch in hand, whose dropped sender resolves its client
/// with [`InferError::Closed`], never the queue's consistency.
fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The engine's tick clock: wall-derived by default, manual under
/// [`EngineConfig::manual_clock`].
fn now_ticks(shared: &Shared, config: &EngineConfig) -> u64 {
    if config.manual_clock {
        shared.ticks.load(Ordering::Relaxed)
    } else {
        shared.started.elapsed().as_micros() as u64 / config.tick_us
    }
}

/// The serving front-end: submit `[C, H, W]` tensors, receive logits.
pub struct Engine {
    shared: Arc<Shared>,
    config: EngineConfig,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Spawns `config.workers` threads over a shared compiled plan.
    ///
    /// # Panics
    /// Panics with the [`InferError::InvalidConfig`] message when
    /// [`EngineConfig::validate`] rejects `config`.
    pub fn start(plan: Arc<ExecutionPlan>, config: EngineConfig) -> Engine {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let shared = Arc::new(Shared {
            plan,
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                open: true,
                executing: 0,
            }),
            cv: Condvar::new(),
            done_cv: Condvar::new(),
            started: Instant::now(),
            ticks: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_samples: AtomicU64::new(0),
            max_batch_observed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
            exec_us: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, &config))
            })
            .collect();
        Engine {
            shared,
            config,
            workers,
        }
    }

    /// The plan this engine serves.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.shared.plan
    }

    /// The batching configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Enqueues one typed request; returns a handle to wait on.
    ///
    /// Accepts anything convertible into an [`InferRequest`] — a bare
    /// `[C, H, W]` [`Tensor`] submits with no deadline, and
    /// [`InferRequest::new`] chains `.deadline_ticks(n)`. Admission is
    /// decided here, synchronously: a full queue under
    /// [`ShedPolicy::RejectNew`] returns [`InferError::QueueFull`] at once,
    /// so a returned handle is always for an admitted request.
    pub fn submit(&self, request: impl Into<InferRequest>) -> Result<PredictionHandle, InferError> {
        let InferRequest {
            input,
            deadline_ticks,
        } = request.into();
        let plan = &self.shared.plan;
        let expected = plan.arch().in_channels;
        // A conv or pool window that does not fit the tile would panic the
        // worker mid-batch, so the plan's shape walk turns such a tile away.
        let fits = match *input.dims() {
            [c, h, w] => c == expected && plan.peak_resident([1, c, h, w], &mut 0).is_some(),
            _ => false,
        };
        if !fits {
            return Err(InferError::InputShape {
                expected_channels: expected,
                dims: input.dims().to_vec(),
            });
        }
        let (tx, rx) = mpsc::channel();
        let telemetry = hydronas_telemetry::enabled();
        {
            let mut q = recover(self.shared.queue.lock());
            // Admission is decided *before* a request id is consumed or
            // an enqueue span emitted, so rejected submits leave no gap
            // in the dense 1-based id sequence and no orphan span.
            if !q.open {
                return Err(InferError::Closed);
            }
            if q.pending.len() >= self.config.queue_capacity {
                if telemetry {
                    hydronas_telemetry::add("infer.queue.full", 1);
                }
                match self.config.shed_policy {
                    ShedPolicy::RejectNew => {
                        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(InferError::QueueFull);
                    }
                    ShedPolicy::DropOldest => {
                        let victim = q.pending.pop_front().expect("capacity is positive");
                        shed_request(&self.shared, victim);
                    }
                }
            }
            let id = self.shared.next_request.fetch_add(1, Ordering::Relaxed) + 1;
            let flow = if telemetry {
                Some(hydronas_telemetry::next_flow_id())
            } else {
                None
            };
            // The enqueue span lives on the client thread; the flow id
            // links it to the batch/complete spans on the worker thread.
            let mut sp = hydronas_telemetry::span(
                "infer.request.enqueue",
                &if telemetry {
                    format!("request {id}")
                } else {
                    String::new()
                },
            );
            if let Some(flow) = flow {
                sp.flow(flow);
                sp.attr("request", id);
            }
            let deadline =
                deadline_ticks.map(|t| now_ticks(&self.shared, &self.config).saturating_add(t));
            q.pending.push_back(Request {
                id,
                input,
                tx,
                enqueued: Instant::now(),
                deadline,
                telemetry,
                flow,
            });
            self.shared
                .queue_peak
                .fetch_max(q.pending.len() as u64, Ordering::Relaxed);
        }
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        if telemetry {
            hydronas_telemetry::add("infer.requests", 1);
            hydronas_telemetry::gauge_add("infer.queue.depth", 1);
            hydronas_telemetry::gauge_add("infer.inflight", 1);
        }
        self.shared.cv.notify_one();
        Ok(PredictionHandle { rx })
    }

    /// Submits and blocks for the result — the single-stream client path.
    /// Accepts the same typed requests as [`Engine::submit`].
    pub fn infer(&self, request: impl Into<InferRequest>) -> Result<Prediction, InferError> {
        self.submit(request)?.wait()
    }

    /// Statistics snapshot (monotonic counters, relaxed reads).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            expired: self.shared.expired.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            batched_samples: self.shared.batched_samples.load(Ordering::Relaxed),
            max_batch_observed: self.shared.max_batch_observed.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            drained: self.shared.drained.load(Ordering::Relaxed),
            queue_peak: self.shared.queue_peak.load(Ordering::Relaxed),
            wait_us_total: self.shared.wait_us.load(Ordering::Relaxed),
            exec_us_total: self.shared.exec_us.load(Ordering::Relaxed),
        }
    }

    /// The current tick of the engine clock.
    pub fn ticks(&self) -> u64 {
        now_ticks(&self.shared, &self.config)
    }

    /// Advances the manual clock by `n` ticks and wakes every worker so
    /// collection windows and deadlines observe the new time.
    ///
    /// # Panics
    /// Panics unless the engine was started with
    /// [`EngineConfig::manual_clock`].
    pub fn advance_ticks(&self, n: u64) {
        assert!(
            self.config.manual_clock,
            "advance_ticks requires EngineConfig::manual_clock"
        );
        self.shared.ticks.fetch_add(n, Ordering::Relaxed);
        self.shared.cv.notify_all();
    }

    /// Stops accepting new requests; workers drain the queue then exit.
    pub fn close(&self) {
        // `Drop` calls this, where a second panic would abort an unwind.
        recover(self.shared.queue.lock()).open = false;
        self.shared.cv.notify_all();
    }

    /// Graceful bounded shutdown: stops admission, fails every
    /// still-queued request with [`InferError::Closed`], and waits up to
    /// `max_ticks` ticks of wall time (`max_ticks * tick_us`
    /// microseconds) for in-flight batches to finish executing.
    ///
    /// Unlike [`Engine::close`] — which lets workers serve whatever is
    /// queued, however long that takes — this bounds shutdown latency:
    /// queued work is failed immediately and only already-drained batches
    /// are awaited. Every submitted request is guaranteed to resolve
    /// (prediction or structured error); none are left stuck.
    pub fn close_and_drain(&self, max_ticks: u64) -> DrainStats {
        let leftovers: Vec<Request> = {
            let mut q = recover(self.shared.queue.lock());
            q.open = false;
            q.pending.drain(..).collect()
        };
        self.shared.cv.notify_all();
        let failed = leftovers.len() as u64;
        for request in leftovers {
            if request.telemetry {
                hydronas_telemetry::add("infer.drain.failed", 1);
                hydronas_telemetry::gauge_add("infer.queue.depth", -1);
                hydronas_telemetry::gauge_add("infer.inflight", -1);
            }
            let _ = request.tx.send(Err(InferError::Closed));
        }
        let deadline =
            Instant::now() + Duration::from_micros(max_ticks.saturating_mul(self.config.tick_us));
        let mut q = recover(self.shared.queue.lock());
        let mut timed_out = false;
        while q.executing > 0 {
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            let (guard, _) = recover(self.shared.done_cv.wait_timeout(q, deadline - now));
            q = guard;
        }
        drop(q);
        DrainStats {
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed,
            timed_out,
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Resolves a [`ShedPolicy::DropOldest`] victim: counters, quantile, and
/// gauge release under its latched telemetry decision, then the
/// structured error. Called with the queue lock held (the victim is
/// already out of the queue).
fn shed_request(shared: &Shared, victim: Request) {
    shared.shed.fetch_add(1, Ordering::Relaxed);
    if victim.telemetry {
        {
            let mut sp =
                hydronas_telemetry::span("infer.request.shed", &format!("request {}", victim.id));
            if let Some(flow) = victim.flow {
                sp.flow(flow);
            }
        }
        hydronas_telemetry::add("infer.shed", 1);
        hydronas_telemetry::record_quantile(
            "infer.request.shed_wall_ms",
            victim.enqueued.elapsed().as_micros() as f64 / 1e3,
        );
        hydronas_telemetry::gauge_add("infer.queue.depth", -1);
        hydronas_telemetry::gauge_add("infer.inflight", -1);
    }
    let _ = victim.tx.send(Err(InferError::Shed));
}

/// Resolves a drained request whose deadline has lapsed.
fn expire_request(shared: &Shared, request: Request) {
    shared.expired.fetch_add(1, Ordering::Relaxed);
    if request.telemetry {
        {
            let mut sp = hydronas_telemetry::span(
                "infer.request.expired",
                &format!("request {}", request.id),
            );
            if let Some(flow) = request.flow {
                sp.flow(flow);
            }
        }
        hydronas_telemetry::add("infer.expired", 1);
        hydronas_telemetry::record_quantile(
            "infer.request.expired_wall_ms",
            request.enqueued.elapsed().as_micros() as f64 / 1e3,
        );
        hydronas_telemetry::gauge_add("infer.inflight", -1);
    }
    let _ = request.tx.send(Err(InferError::DeadlineExceeded));
}

fn worker_loop(shared: &Shared, config: &EngineConfig) {
    loop {
        let (batch, collect_us) = {
            let mut q = recover(shared.queue.lock());
            // Sleep until there is work or the engine closes.
            while q.pending.is_empty() && q.open {
                q = recover(shared.cv.wait(q));
            }
            if q.pending.is_empty() {
                return; // closed and drained
            }
            // Collection window: give co-arriving requests `max_wait_ticks`
            // ticks to fill the batch. In wall-clock mode only an elapsed
            // timeout advances the window; in manual mode only
            // `advance_ticks` does. Wakeups from new arrivals re-check for
            // a full batch for free either way.
            let window_start = Instant::now();
            let window_start_tick = now_ticks(shared, config);
            let mut elapsed = 0u64;
            while q.pending.len() < config.max_batch && q.open && elapsed < config.max_wait_ticks {
                let tick = Duration::from_micros(config.tick_us);
                let (guard, timeout) = recover(shared.cv.wait_timeout(q, tick));
                q = guard;
                if config.manual_clock {
                    elapsed = now_ticks(shared, config).saturating_sub(window_start_tick);
                } else if timeout.timed_out() {
                    elapsed += 1;
                }
            }
            // A batch tensor needs equal dims and the plan takes any
            // H×W, so a batch is the head request's run of equal-dims
            // requests; the rest wait for the next drain.
            let Some(head) = q.pending.front() else {
                // Another worker drained the queue during our collection
                // window — go back to sleep instead of executing an empty
                // batch.
                continue;
            };
            let dims = head.input.dims();
            let take = q
                .pending
                .iter()
                .take(config.max_batch)
                .take_while(|r| r.input.dims() == dims)
                .count();
            let batch = q.pending.drain(..take).collect::<Vec<Request>>();
            q.executing += 1;
            (batch, window_start.elapsed().as_micros() as u64)
        };
        // Deadline triage at drain time: expired requests are rejected
        // here, before batch assembly, so they never waste a batch slot.
        let now_tick = now_ticks(shared, config);
        let mut live = Vec::with_capacity(batch.len());
        for request in batch {
            if request.telemetry {
                hydronas_telemetry::gauge_add("infer.queue.depth", -1);
            }
            if request.deadline.is_some_and(|d| now_tick > d) {
                expire_request(shared, request);
            } else {
                live.push(request);
            }
        }
        if hydronas_telemetry::enabled() {
            hydronas_telemetry::record_quantile(
                "infer.batch.collect_wall_ms",
                collect_us as f64 / 1e3,
            );
        }
        // Queue-wait accounting at drain time: the wait phase ends here,
        // before execution begins. Each request's wait is measured ONCE
        // and that one value feeds the stats counter, the wait quantile,
        // and the client-visible `Prediction::wait_us` — and the paired
        // `drained` denominator advances at the same point, so a
        // mid-flight `stats()` snapshot stays internally consistent.
        let mut waits = Vec::with_capacity(live.len());
        let mut wait_us_sum = 0u64;
        for request in &live {
            let wait_us = request.enqueued.elapsed().as_micros() as u64;
            wait_us_sum += wait_us;
            if request.telemetry {
                hydronas_telemetry::record_quantile(
                    "infer.request.wait_wall_ms",
                    wait_us as f64 / 1e3,
                );
            }
            waits.push(wait_us);
        }
        shared
            .drained
            .fetch_add(live.len() as u64, Ordering::Relaxed);
        shared.wait_us.fetch_add(wait_us_sum, Ordering::Relaxed);
        if !live.is_empty() {
            execute_batch(shared, config, live, &waits);
        }
        recover(shared.queue.lock()).executing -= 1;
        shared.done_cv.notify_all();
    }
}

fn execute_batch(shared: &Shared, config: &EngineConfig, batch: Vec<Request>, waits: &[u64]) {
    let size = batch.len();
    let exec_start = Instant::now();
    // The batch span closes before any client is released, so a session
    // snapshot taken by a woken client always sees it.
    let logits = {
        let mut span = hydronas_telemetry::span("infer.batch", "batch");
        span.attr("batch", size);
        // The batcher drains only runs of equal dims, so every input is
        // copied once, straight into its row of the batch tensor.
        let dims = batch[0].input.dims();
        let mut data = Vec::with_capacity(size * batch[0].input.numel());
        for request in &batch {
            assert_eq!(request.input.dims(), dims, "batch dims must match");
            data.extend_from_slice(request.input.as_slice());
        }
        let stacked = Tensor::from_vec(data, &[&[size], dims].concat());
        shared.plan.run_batch(&stacked)
    };
    let exec_us = exec_start.elapsed().as_micros() as u64;
    // Count the batch before releasing any client: a caller that saw its
    // prediction must also see it reflected in the stats.
    shared.exec_us.fetch_add(exec_us, Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .batched_samples
        .fetch_add(size as u64, Ordering::Relaxed);
    shared
        .max_batch_observed
        .fetch_max(size as u64, Ordering::Relaxed);
    if hydronas_telemetry::enabled() {
        hydronas_telemetry::add("infer.batches", 1);
        hydronas_telemetry::add("infer.samples", size as u64);
        hydronas_telemetry::record_quantile("infer.batch.exec_wall_ms", exec_us as f64 / 1e3);
        hydronas_telemetry::record_value("infer.batch.size", size as f64);
        hydronas_telemetry::record_value(
            "infer.batch.fill_pct",
            size as f64 * 100.0 / config.max_batch as f64,
        );
    }
    let classes = logits.dims()[1];
    let rows = logits.as_slice();
    for (i, request) in batch.into_iter().enumerate() {
        let row = &rows[i * classes..(i + 1) * classes];
        // First index on ties, matching `Tensor::argmax_rows`.
        let mut class = 0usize;
        for (idx, &v) in row.iter().enumerate() {
            if v > row[class] {
                class = idx;
            }
        }
        // All per-request telemetry lands before the send wakes the
        // client, so a returned `infer()` implies recorded metrics. Every
        // sink is gated on the request's latched telemetry decision, not
        // a fresh `enabled()` check — a session starting mid-request must
        // not see the resolve half of a gauge it never saw enqueue.
        if request.telemetry {
            {
                let mut sp = hydronas_telemetry::span(
                    "infer.request.complete",
                    &format!("request {}", request.id),
                );
                if let Some(flow) = request.flow {
                    sp.flow(flow);
                }
                sp.attr("batch", size);
            }
            hydronas_telemetry::record_quantile(
                "infer.request.total_wall_ms",
                request.enqueued.elapsed().as_micros() as f64 / 1e3,
            );
            hydronas_telemetry::gauge_add("infer.inflight", -1);
        }
        shared.completed.fetch_add(1, Ordering::Relaxed);
        // Ignore send failures: the client may have dropped its handle.
        let _ = request.tx.send(Ok(Prediction {
            logits: row.to_vec(),
            class,
            batch_size: size,
            wait_us: waits[i],
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_graph::ArchConfig;
    use hydronas_nn::ResNet;
    use hydronas_tensor::{uniform, TensorRng};

    /// An engine whose queue lock a thread poisoned by panicking while
    /// holding it, and the plan it serves.
    fn poisoned_engine() -> (Engine, Arc<ExecutionPlan>) {
        let arch = ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 4,
            num_classes: 2,
        };
        let model = ResNet::new(&arch, &mut TensorRng::seed_from_u64(3));
        let plan = Arc::new(ExecutionPlan::builder(&model).build().unwrap());
        let engine = Engine::start(Arc::clone(&plan), EngineConfig::default());
        let shared = Arc::clone(&engine.shared);
        let poisoner = std::thread::spawn(move || {
            let _queue = shared.queue.lock().unwrap();
            panic!("panicking with the queue lock held");
        });
        assert!(poisoner.join().is_err());
        assert!(engine.shared.queue.is_poisoned());
        (engine, plan)
    }

    /// Dropping the engine must still close it and join its workers: a
    /// panic in `drop` while another panic unwinds aborts the process.
    #[test]
    fn drop_survives_a_poisoned_queue_lock() {
        let (engine, _) = poisoned_engine();
        drop(engine);
    }

    /// Clients and workers must keep going too: a request is served with
    /// the logits `run_batch` gives its tile, and a drain does not time
    /// out waiting for a worker the poisoned lock killed.
    #[test]
    fn engine_serves_through_a_poisoned_queue_lock() {
        let (engine, plan) = poisoned_engine();
        let tile = uniform(&[5, 16, 16], -1.0, 1.0, &mut TensorRng::seed_from_u64(4));
        let prediction = engine.infer(tile.clone()).expect("request served");
        let want = plan.run_batch(&tile.reshape(&[1, 5, 16, 16]));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&prediction.logits), bits(want.as_slice()));
        let drain = engine.close_and_drain(50_000);
        assert!(!drain.timed_out, "a worker died on the poisoned lock");
    }
}
