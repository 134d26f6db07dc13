//! The benchmark's own statistics: percentiles with a sample-count rule,
//! the stepped max-rate search, and the engine's derived ratios. Pure
//! functions over plain numbers, so `tests/stats.rs` checks them on
//! synthetic inputs.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail estimate rests on too few requests.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` (in `0..=1`) among `n` sorted
/// samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Whether `n` samples support reporting the `q` quantile.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
}

/// Nearest-rank quantile of already sorted samples; `NaN` when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        sorted[rank(sorted.len(), q)]
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Latencies of one open-loop phase, in milliseconds from each request's
/// due time. A failed request is recorded as `f64::INFINITY`, so it
/// misses every latency limit and pushes the tail up.
#[derive(Clone, Debug, Default)]
pub struct PhaseLatencies {
    pub ms: Vec<f64>,
}

impl PhaseLatencies {
    pub fn record(&mut self, latency_ms: f64) {
        self.ms.push(latency_ms);
    }

    pub fn record_failure(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    pub fn count(&self) -> usize {
        self.ms.len()
    }

    pub fn failures(&self) -> usize {
        self.ms.iter().filter(|v| v.is_infinite()).count()
    }

    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.ms, q)
    }
}

/// One step of the open-loop rate ramp.
#[derive(Clone, Debug)]
pub struct RampStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests completed per second of the step's wall time.
    pub achieved_rps: f64,
    pub latencies: PhaseLatencies,
    /// Requests submitted but not yet answered, sampled at even points
    /// of the step's send schedule (the last sample at its final send).
    pub backlog: Vec<u64>,
}

/// Whether the backlog grew over the second half of a step by more than
/// `slack` requests — the sign of an offered rate above capacity. A
/// stable queue only fluctuates by a few batches.
pub fn backlog_growing(backlog: &[u64], slack: u64) -> bool {
    match backlog.len() {
        0 => false,
        n => backlog[n - 1] > backlog[(n - 1) / 2] + slack,
    }
}

/// Why a ramp step did not meet the serving limit.
#[derive(Clone, Debug, PartialEq)]
pub enum StepVerdict {
    Pass,
    /// Too few requests for the limit's percentile to be supported.
    TooFewSamples,
    Failures(usize),
    TailOverLimit(f64),
    BacklogGrowing,
}

/// Judges one step: the limit percentile must be supported by the sample
/// count and within `limit_ms`, no request may fail, and the backlog must
/// not grow by more than `slack`.
pub fn judge_step(step: &RampStep, q: f64, limit_ms: f64, slack: u64) -> StepVerdict {
    if !percentile_supported(step.latencies.count(), q) {
        return StepVerdict::TooFewSamples;
    }
    let failures = step.latencies.failures();
    if failures > 0 {
        return StepVerdict::Failures(failures);
    }
    let tail = step.latencies.quantile(q);
    if tail > limit_ms {
        return StepVerdict::TailOverLimit(tail);
    }
    if backlog_growing(&step.backlog, slack) {
        return StepVerdict::BacklogGrowing;
    }
    StepVerdict::Pass
}

/// The stepped max-rate search. Candidate rates are `base + step * i`
/// for `i` in `1..=steps`; `base` itself already passed. `run` measures
/// one rate. Assuming a step passes whenever a higher one does, the
/// search bisects the candidates, so it measures about `log2(steps)`
/// rates instead of walking up one at a time. Returns every measured
/// step, in measurement order, and the highest passing one.
pub fn search_max_rate(
    base: RampStep,
    step: f64,
    steps: usize,
    q: f64,
    limit_ms: f64,
    slack: u64,
    mut run: impl FnMut(f64) -> RampStep,
) -> (Vec<RampStep>, usize) {
    let mut measured = vec![base];
    let (mut best, mut lo, mut hi) = (0usize, 0usize, steps + 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let s = run(measured[0].rate + step * mid as f64);
        let pass = judge_step(&s, q, limit_ms, slack) == StepVerdict::Pass;
        measured.push(s);
        if pass {
            lo = mid;
            best = measured.len() - 1;
        } else {
            hi = mid;
        }
    }
    (measured, best)
}

/// Mean batch size per executed batch, from each request's batch size:
/// a batch of `b` contributes `b` requests, hence `1/b` batches each.
pub fn batch_mean(request_batch_sizes: &[usize]) -> f64 {
    let batches: f64 = request_batch_sizes.iter().map(|&b| 1.0 / b as f64).sum();
    request_batch_sizes.len() as f64 / batches
}

/// Time a request spent outside queue wait and batch execution: the
/// generator lag, the submit call, stacking and the reply path.
pub fn reply_overhead_ms(mean_latency_ms: f64, mean_wait_ms: f64, mean_exec_ms: f64) -> f64 {
    mean_latency_ms - mean_wait_ms - mean_exec_ms
}

/// Engine batch-execution time over what bare `run_batch` calls would
/// have taken for the same batches. `batches_by_size[b]` is the number
/// of batches of size `b`, `bare_ms_by_size[b]` the bare time of one.
pub fn exec_vs_bare(exec_ms_total: f64, batches_by_size: &[u64], bare_ms_by_size: &[f64]) -> f64 {
    let bare: f64 = batches_by_size
        .iter()
        .zip(bare_ms_by_size)
        .map(|(&n, &ms)| n as f64 * ms)
        .sum();
    exec_ms_total / bare
}

/// Batch counts by size, recovered from the batch size each request saw.
pub fn batches_by_size(request_batch_sizes: &[usize], max_batch: usize) -> Vec<u64> {
    let mut requests = vec![0u64; max_batch + 1];
    for &b in request_batch_sizes {
        requests[b] += 1;
    }
    requests
        .iter()
        .enumerate()
        .map(|(b, &n)| if b == 0 { 0 } else { n / b as u64 })
        .collect()
}

/// Share of worker time spent executing batches.
pub fn busy_frac(exec_us_total: u64, workers: usize, wall_s: f64) -> f64 {
    exec_us_total as f64 / 1e6 / (workers as f64 * wall_s)
}
