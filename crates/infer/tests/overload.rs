//! Overload-protection behaviour of the batching engine: bounded
//! admission, per-request deadlines, graceful drain, and the
//! accounting-bug regression tests from the serving-engine fix PR.
//!
//! Every test opens a telemetry session as its *first* action and keeps
//! all plan/engine work inside the session scope. Sessions are
//! process-exclusive, so this discipline serializes the tests in this
//! binary and no test can pollute another's counters.
//!
//! Manual-clock tests never fire a single `advance_ticks` and hope: a
//! worker may not have entered its collection window yet when the tick
//! lands, and a window opened *after* the advance would wait forever.
//! [`advance_until`] advances one tick at a time until the observable
//! condition holds, which is race-free and — because shed/expiry
//! outcomes depend only on arrival order and *whether* the budget
//! lapsed, not on how many extra ticks follow — changes no outcome.

use hydronas_infer::{Engine, EngineConfig, ExecutionPlan, InferError, InferRequest, ShedPolicy};
use hydronas_nn::ResNet;
use hydronas_telemetry::QuantileHistogram;
use hydronas_tensor::{uniform, Tensor, TensorRng};
use std::sync::Arc;
use std::time::Duration;

fn tiny_plan() -> Arc<ExecutionPlan> {
    let mut arch = hydronas_graph::ArchConfig::baseline(5);
    arch.initial_features = 4;
    let mut rng = TensorRng::seed_from_u64(7);
    let model = ResNet::new(&arch, &mut rng);
    Arc::new(ExecutionPlan::builder(&model).build().unwrap())
}

fn input(seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from_u64(seed);
    uniform(&[5, 16, 16], -1.0, 1.0, &mut rng)
}

/// Advances the manual clock one tick at a time until `cond` holds.
fn advance_until(engine: &Engine, what: &str, cond: impl Fn() -> bool) {
    for _ in 0..20_000 {
        if cond() {
            return;
        }
        engine.advance_ticks(1);
        std::thread::sleep(Duration::from_micros(200));
    }
    panic!("manual clock advanced 20000 ticks without: {what}");
}

/// A parked-worker engine: `max_batch > queue_capacity` and a manual
/// clock mean no worker can drain until ticks advance, so admission
/// outcomes are a pure function of arrival order.
fn parked_config(workers: usize, queue_capacity: usize, shed_policy: ShedPolicy) -> EngineConfig {
    EngineConfig {
        workers,
        max_batch: queue_capacity + 4,
        max_wait_ticks: 2,
        tick_us: 200,
        queue_capacity,
        shed_policy,
        manual_clock: true,
    }
}

/// The deterministic sections of one overload run: Debug-formatted
/// engine stats plus the worker-count-invariant metric sections.
struct RunFingerprint {
    stats: String,
    counters: String,
    gauges: String,
    histograms: String,
    quantile_counts: Vec<(String, u64)>,
    outcomes: Vec<&'static str>,
}

/// Runs the canonical overload arrival sequence — 12 zero-deadline
/// submissions into a capacity-4 queue with parked workers, then enough
/// ticks to expire everything — and fingerprints the result.
fn overload_run(workers: usize, shed_policy: ShedPolicy) -> RunFingerprint {
    let session = hydronas_telemetry::session();
    let plan = tiny_plan();
    let engine = Engine::start(plan, parked_config(workers, 4, shed_policy));
    let mut handles = Vec::new();
    let mut outcomes = vec![""; 12];
    for k in 0..12u64 {
        match engine.submit(InferRequest::new(input(100 + k)).deadline_ticks(0)) {
            Ok(h) => handles.push((k as usize, h)),
            Err(InferError::QueueFull) => outcomes[k as usize] = "queue_full",
            Err(e) => panic!("unexpected submit error {e:?}"),
        }
    }
    advance_until(&engine, "all queued requests expired", || {
        let s = engine.stats();
        s.expired + s.shed == s.requests
    });
    for (k, h) in handles {
        outcomes[k] = match h.wait() {
            Err(InferError::Shed) => "shed",
            Err(InferError::DeadlineExceeded) => "expired",
            other => panic!("request {k}: unexpected outcome {other:?}"),
        };
    }
    let stats = engine.stats();
    drop(engine);
    let m = session.metrics();
    // Scratch-arena counters are per-thread cache statistics and
    // compute-pool counters/histograms are scheduling statistics
    // (steal/starvation counts are racy by design); both sit outside
    // the invariance contract (as in the serving-metrics invariance
    // test). Everything else must be byte-identical.
    let counters: std::collections::BTreeMap<String, u64> = m
        .counters
        .iter()
        .filter(|(k, _)| !k.contains(".arena.") && !k.contains(".pool."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let histograms: std::collections::BTreeMap<String, _> = m
        .histograms
        .iter()
        .filter(|(k, _)| !k.contains(".pool."))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    RunFingerprint {
        stats: format!("{stats:?}"),
        counters: serde_json::to_string(&counters).unwrap(),
        gauges: serde_json::to_string(&m.gauges).unwrap(),
        histograms: serde_json::to_string(&histograms).unwrap(),
        quantile_counts: m
            .quantiles
            .iter()
            .map(|(k, v)| (k.clone(), v.count))
            .collect(),
        outcomes,
    }
}

/// Tentpole determinism contract: shed/expired outcomes are a pure
/// function of arrival order and tick budget, so the same overload
/// arrival sequence produces byte-identical `EngineStats` and identical
/// deterministic metric sections at 1, 4, and 8 workers.
#[test]
fn overload_outcome_is_worker_count_invariant() {
    for policy in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
        let one = overload_run(1, policy);
        let four = overload_run(4, policy);
        let eight = overload_run(8, policy);
        for (label, other) in [("4", &four), ("8", &eight)] {
            assert_eq!(one.stats, other.stats, "stats differ at {label} workers");
            assert_eq!(
                one.counters, other.counters,
                "counters differ at {label} workers ({policy:?})"
            );
            assert_eq!(one.gauges, other.gauges, "gauges differ at {label} workers");
            assert_eq!(
                one.histograms, other.histograms,
                "histograms differ at {label} workers"
            );
            assert_eq!(
                one.quantile_counts, other.quantile_counts,
                "quantile counts differ at {label} workers"
            );
            assert_eq!(
                one.outcomes, other.outcomes,
                "per-request outcomes differ at {label} workers"
            );
        }
        // The fingerprints must also describe the right story.
        match policy {
            ShedPolicy::RejectNew => {
                assert!(
                    one.counters.contains("\"infer.queue.full\":8"),
                    "{}",
                    one.counters
                );
                assert!(
                    one.counters.contains("\"infer.expired\":4"),
                    "{}",
                    one.counters
                );
                assert!(one.stats.contains("rejected: 8"), "{}", one.stats);
                assert_eq!(one.outcomes[4..], vec!["queue_full"; 8][..]);
            }
            ShedPolicy::DropOldest => {
                assert!(
                    one.counters.contains("\"infer.shed\":8"),
                    "{}",
                    one.counters
                );
                assert!(
                    one.counters.contains("\"infer.expired\":4"),
                    "{}",
                    one.counters
                );
                assert_eq!(one.outcomes[..8], vec!["shed"; 8][..]);
                assert_eq!(one.outcomes[8..], vec!["expired"; 4][..]);
            }
        }
        // Bounded queue: the peak never exceeded capacity, and no batch
        // ever executed (every drained request had already expired).
        assert!(one.stats.contains("queue_peak: 4"), "{}", one.stats);
        assert!(one.stats.contains("batches: 0"), "{}", one.stats);
        assert!(one.stats.contains("wait_us_total: 0"), "{}", one.stats);
    }
}

/// The two shed policies must *disagree* on the same arrival sequence:
/// `RejectNew` serves the head of the queue and refuses the tail at
/// submit time; `DropOldest` sheds the head and serves the tail.
#[test]
fn drop_oldest_and_reject_new_disagree_on_the_same_arrivals() {
    let run = |policy: ShedPolicy| {
        let session = hydronas_telemetry::session();
        let plan = tiny_plan();
        let engine = Engine::start(plan, parked_config(1, 2, policy));
        let results: Vec<_> = (0..5u64).map(|k| engine.submit(input(200 + k))).collect();
        advance_until(&engine, "head of queue served", || {
            engine.stats().completed == 2
        });
        let outcomes: Vec<&'static str> = results
            .into_iter()
            .map(|r| match r {
                Ok(h) => match h.wait() {
                    Ok(_) => "served",
                    Err(InferError::Shed) => "shed",
                    other => panic!("unexpected {other:?}"),
                },
                Err(InferError::QueueFull) => "queue_full",
                Err(e) => panic!("unexpected submit error {e:?}"),
            })
            .collect();
        drop(session);
        outcomes
    };
    let reject = run(ShedPolicy::RejectNew);
    let drop_oldest = run(ShedPolicy::DropOldest);
    assert_eq!(
        reject,
        ["served", "served", "queue_full", "queue_full", "queue_full"]
    );
    assert_eq!(drop_oldest, ["shed", "shed", "shed", "served", "served"]);
    assert_ne!(reject, drop_oldest);
}

/// An expired request is rejected at drain time instead of wasting a
/// batch slot: the surviving request executes in a batch of one.
#[test]
fn expired_requests_do_not_occupy_batch_slots() {
    let _session = hydronas_telemetry::session();
    let plan = tiny_plan();
    let engine = Engine::start(plan, parked_config(1, 8, ShedPolicy::RejectNew));
    let alive = engine
        .submit(InferRequest::new(input(1)).deadline_ticks(1_000_000))
        .unwrap();
    let doomed = engine
        .submit(InferRequest::new(input(2)).deadline_ticks(0))
        .unwrap();
    advance_until(&engine, "one served, one expired", || {
        let s = engine.stats();
        s.completed == 1 && s.expired == 1
    });
    let p = alive.wait().expect("deadline far in the future");
    assert_eq!(
        p.batch_size, 1,
        "expired request must not have occupied a batch slot"
    );
    assert_eq!(doomed.wait().unwrap_err(), InferError::DeadlineExceeded);
    let stats = engine.stats();
    assert_eq!(
        stats.drained, 1,
        "expired requests are not drained-for-wait"
    );
    assert_eq!(stats.batched_samples, 1);
}

/// A `u64::MAX` budget never expires: the deadline is the current tick
/// plus the budget, saturated, so a request submitted after the clock has
/// moved neither overflows `submit` nor wraps to an already-lapsed tick.
#[test]
fn max_deadline_after_the_clock_moved_never_expires() {
    let _session = hydronas_telemetry::session();
    let plan = tiny_plan();
    let engine = Engine::start(plan, parked_config(1, 8, ShedPolicy::RejectNew));
    engine.advance_ticks(1);
    let forever = engine
        .submit(InferRequest::new(input(3)).deadline_ticks(u64::MAX))
        .unwrap();
    advance_until(&engine, "the request resolved", || {
        let s = engine.stats();
        s.completed + s.expired == 1
    });
    assert!(forever.wait().is_ok(), "a u64::MAX deadline expired");
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.expired), (1, 0), "{stats:?}");
}

/// Satellite regression: rejected submits must consume no request id and
/// emit no orphan enqueue span. The enqueue spans of admitted requests
/// stay dense (`request 1..=N`) across interleaved rejections.
#[test]
fn request_ids_stay_dense_across_rejected_submits() {
    let session = hydronas_telemetry::session();
    let plan = tiny_plan();
    let engine = Engine::start(plan, parked_config(1, 2, ShedPolicy::RejectNew));
    let h1 = engine.submit(input(11)).unwrap();
    let h2 = engine.submit(input(12)).unwrap();
    // Two rejections between admission 2 and admission 3.
    assert_eq!(engine.submit(input(13)).unwrap_err(), InferError::QueueFull);
    assert_eq!(engine.submit(input(14)).unwrap_err(), InferError::QueueFull);
    advance_until(&engine, "first batch served", || {
        engine.stats().completed == 2
    });
    h1.wait().unwrap();
    h2.wait().unwrap();
    let h3 = engine.submit(input(15)).unwrap();
    advance_until(&engine, "third request served", || {
        engine.stats().completed == 3
    });
    h3.wait().unwrap();
    engine.close();
    // A post-close rejection must not consume an id either.
    assert_eq!(engine.submit(input(16)).unwrap_err(), InferError::Closed);
    drop(engine);
    let enqueues: Vec<String> = session
        .spans()
        .into_iter()
        .filter(|s| s.category == "infer.request.enqueue")
        .map(|s| s.name)
        .collect();
    assert_eq!(
        enqueues,
        ["request 1", "request 2", "request 3"],
        "rejected submits consumed ids or emitted orphan spans"
    );
}

/// Satellite regression: queue wait is measured once per request, and
/// that single value feeds the stats counter, the wait quantile, and the
/// client-visible `Prediction::wait_us` — exactly, not approximately.
#[test]
fn queue_wait_is_measured_once_and_all_sinks_agree() {
    let session = hydronas_telemetry::session();
    let plan = tiny_plan();
    let engine = Engine::start(
        plan,
        EngineConfig {
            workers: 1,
            max_batch: 1,
            max_wait_ticks: 0,
            tick_us: 50,
            ..EngineConfig::default()
        },
    );
    let mut waits = Vec::new();
    for k in 0..40u64 {
        waits.push(engine.infer(input(300 + k)).unwrap().wait_us);
    }
    let stats = engine.stats();
    drop(engine);
    assert_eq!(
        stats.wait_us_total,
        waits.iter().sum::<u64>(),
        "stats and client-visible waits disagree"
    );
    assert_eq!(stats.drained, 40);
    // Rebuild the wait histogram from the client-visible values with the
    // same microseconds→milliseconds conversion: if the engine had
    // measured a second time for the quantile sink, any observation
    // straddling a bucket boundary would break this exact equality.
    let mut expected = QuantileHistogram::default();
    for &w in &waits {
        expected.observe(w as f64 / 1e3);
    }
    let m = session.metrics();
    let recorded = m
        .quantiles
        .get("infer.request.wait_wall_ms")
        .expect("wait quantile recorded");
    assert_eq!(recorded, &expected.snapshot());
}

/// Tentpole drain contract, proven deadlock-free under a live
/// close-while-submitting race: every submitted request resolves to a
/// prediction or a structured error, queued leftovers are failed with
/// `Closed`, and the books balance exactly.
#[test]
fn close_and_drain_races_submitters_without_deadlock_or_loss() {
    let _session = hydronas_telemetry::session();
    let plan = tiny_plan();
    let engine = Arc::new(Engine::start(
        plan,
        EngineConfig {
            workers: 2,
            max_batch: 4,
            max_wait_ticks: 1,
            tick_us: 100,
            queue_capacity: 4,
            shed_policy: ShedPolicy::RejectNew,
            manual_clock: false,
        },
    ));
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut handles = Vec::new();
                for r in 0..30u64 {
                    match engine.submit(input(1000 + t * 100 + r)) {
                        Ok(h) => handles.push(h),
                        Err(InferError::QueueFull) | Err(InferError::Closed) => {}
                        Err(e) => panic!("unexpected submit error {e:?}"),
                    }
                    if r % 8 == 0 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
                handles
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(2));
    let drain = engine.close_and_drain(5_000);
    let mut served = 0u64;
    let mut failed_closed = 0u64;
    for s in submitters {
        for h in s.join().unwrap() {
            match h.wait() {
                Ok(_) => served += 1,
                Err(InferError::Closed) => failed_closed += 1,
                Err(e) => panic!("unexpected outcome {e:?}"),
            }
        }
    }
    assert!(
        !drain.timed_out,
        "in-flight batches must finish within budget"
    );
    assert_eq!(drain.failed, failed_closed, "drain-failed bookkeeping");
    let stats = engine.stats();
    assert_eq!(stats.completed, served);
    assert_eq!(
        stats.requests,
        served + failed_closed,
        "every admitted request must resolve: {stats:?} vs drain {drain:?}"
    );
    // Post-drain submits are refused outright.
    assert_eq!(engine.submit(input(9)).unwrap_err(), InferError::Closed);
}
