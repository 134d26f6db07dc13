//! The open-loop serving phase: one generator thread sends single-tile
//! requests on a fixed schedule into the engine, one collector thread
//! waits on the handles in submission order. Every latency is measured
//! from the request's due time, so a stall also charges the requests it
//! delays.

use hydrobench::stats::{PhaseLatencies, RampStep};
use hydrobench::trace::Tracer;
use hydronas_infer::{Engine, EngineStats, InferRequest};
use hydronas_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Backlog samples taken per phase, at even points of the send schedule.
const BACKLOG_SAMPLES: usize = 8;

/// What one open-loop phase observed.
pub struct PhaseRun {
    pub rate: f64,
    pub latencies: PhaseLatencies,
    /// How late the generator sent each request, milliseconds.
    pub lag_ms: Vec<f64>,
    /// Wall time of each `Engine::submit` call, microseconds.
    pub submit_us: Vec<f64>,
    /// Per completed request: `Prediction::wait_us` in ms, its batch size,
    /// and its request tile with the returned logits for the reply check.
    pub wait_ms: Vec<f64>,
    pub batch_sizes: Vec<usize>,
    pub replies: Vec<(usize, Vec<f32>)>,
    pub backlog: Vec<u64>,
    /// Engine statistics over this phase alone, except the lifetime
    /// maxima `queue_peak` and `max_batch_observed`.
    pub stats: EngineStats,
    pub wall_s: f64,
}

impl PhaseRun {
    pub fn achieved_rps(&self) -> f64 {
        (self.latencies.count() - self.latencies.failures()) as f64 / self.wall_s
    }

    pub fn ramp_step(&self) -> RampStep {
        RampStep {
            rate: self.rate,
            achieved_rps: self.achieved_rps(),
            latencies: self.latencies.clone(),
            backlog: self.backlog.clone(),
        }
    }
}

/// One request handed from the generator to the collector.
struct Sent {
    id: u64,
    tile: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: Result<hydronas_infer::PredictionHandle, hydronas_infer::InferError>,
}

fn stats_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        requests: after.requests - before.requests,
        rejected: after.rejected - before.rejected,
        shed: after.shed - before.shed,
        expired: after.expired - before.expired,
        batches: after.batches - before.batches,
        batched_samples: after.batched_samples - before.batched_samples,
        max_batch_observed: after.max_batch_observed,
        completed: after.completed - before.completed,
        drained: after.drained - before.drained,
        queue_peak: after.queue_peak,
        wait_us_total: after.wait_us_total - before.wait_us_total,
        exec_us_total: after.exec_us_total - before.exec_us_total,
    }
}

/// Sends `n` requests at `rate` per second and waits for every reply.
/// Request ids continue from `first_id`, so ids are unique in a run.
pub fn run_phase(
    engine: &Engine,
    tiles: &[Tensor],
    rate: f64,
    n: usize,
    first_id: u64,
    tracer: &Tracer,
    name: &'static str,
) -> PhaseRun {
    let phase_span = tracer.open(name, None);
    let before = engine.stats();
    let replied = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut lag_ms = Vec::with_capacity(n);
    let mut submit_us = Vec::with_capacity(n);
    let mut backlog = Vec::with_capacity(BACKLOG_SAMPLES);
    // A short lead lets the generator reach its first due time on
    // schedule instead of starting late.
    let t0 = Instant::now() + Duration::from_millis(2);
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut latencies = PhaseLatencies::default();
            let mut wait_ms = Vec::with_capacity(n);
            let mut batch_sizes = Vec::with_capacity(n);
            let mut replies = Vec::with_capacity(n);
            for sent in rx {
                let wait_start = Instant::now();
                let outcome = sent.handle.and_then(|h| h.wait());
                let reply = Instant::now();
                replied.fetch_add(1, Ordering::Relaxed);
                match outcome {
                    Ok(p) => {
                        latencies.record((reply - sent.due).as_secs_f64() * 1e3);
                        wait_ms.push(p.wait_us as f64 / 1e3);
                        batch_sizes.push(p.batch_size);
                        replies.push((sent.tile, p.logits));
                    }
                    Err(_) => latencies.record_failure(),
                }
                let root = tracer.record("request", sent.due, reply, phase_span, Some(sent.id));
                tracer.record(
                    "loadgen.lag",
                    sent.due,
                    sent.submit_start,
                    root,
                    Some(sent.id),
                );
                tracer.record(
                    "engine.submit",
                    sent.submit_start,
                    sent.submit_end,
                    root,
                    Some(sent.id),
                );
                tracer.record("collector.wait", wait_start, reply, root, Some(sent.id));
            }
            (latencies, wait_ms, batch_sizes, replies)
        });
        for k in 0..n {
            let tile = k % tiles.len();
            let input = tiles[tile].clone();
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit_start = Instant::now();
            let handle = engine.submit(InferRequest::new(input));
            let submit_end = Instant::now();
            lag_ms.push((submit_start - due).as_secs_f64() * 1e3);
            submit_us.push((submit_end - submit_start).as_secs_f64() * 1e6);
            tx.send(Sent {
                id: first_id + k as u64,
                tile,
                due,
                submit_start,
                submit_end,
                handle,
            })
            .expect("the collector outlives the generator");
            if (k + 1) % (n / BACKLOG_SAMPLES).max(1) == 0 {
                backlog.push((k as u64 + 1).saturating_sub(replied.load(Ordering::Relaxed)));
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.close(phase_span);
    let (latencies, wait_ms, batch_sizes, replies) = collected;
    PhaseRun {
        rate,
        latencies,
        lag_ms,
        submit_us,
        wait_ms,
        batch_sizes,
        replies,
        backlog,
        stats: stats_delta(engine.stats(), before),
        wall_s,
    }
}
