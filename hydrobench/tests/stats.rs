//! The benchmark's statistics on synthetic inputs.

use hydrobench::stats::{
    backlog_growing, batch_mean, batches_by_size, busy_frac, exec_vs_bare, judge_step, percentile,
    percentile_supported, reply_overhead_ms, samples_beyond, search_max_rate, PhaseLatencies,
    RampStep, StepVerdict,
};
use hydrobench::trace::{self_times, Span};

const Q: f64 = 0.99;
const LIMIT_MS: f64 = 50.0;
const SLACK: u64 = 32;

fn step(rate: f64, n: usize, latency_ms: impl Fn(usize) -> f64, backlog: Vec<u64>) -> RampStep {
    RampStep {
        rate,
        achieved_rps: rate,
        latencies: PhaseLatencies {
            ms: (0..n).map(latency_ms).collect(),
        },
        backlog,
    }
}

fn flat(rate: f64, latency_ms: f64) -> RampStep {
    step(rate, 1000, |_| latency_ms, vec![3; 8])
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, Q), 10);
    assert!(percentile_supported(1000, Q));
    assert_eq!(samples_beyond(999, Q), 9);
    assert!(!percentile_supported(999, Q));
    assert!(!percentile_supported(0, Q));
    // The nearest-rank median of 20 samples, the 10th, has 10 beyond it.
    assert!(percentile_supported(20, 0.5));
    assert!(!percentile_supported(19, 0.5));
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 50.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn a_step_passes_only_within_every_condition() {
    assert_eq!(
        judge_step(&flat(200.0, 10.0), Q, LIMIT_MS, SLACK),
        StepVerdict::Pass
    );
    // The eleventh-slowest request sets the p99 of 1,000.
    let tail = step(
        200.0,
        1000,
        |i| if i < 11 { 80.0 } else { 10.0 },
        vec![3; 8],
    );
    assert_eq!(
        judge_step(&tail, Q, LIMIT_MS, SLACK),
        StepVerdict::TailOverLimit(80.0)
    );
    let ten_slow = step(
        200.0,
        1000,
        |i| if i < 10 { 80.0 } else { 10.0 },
        vec![3; 8],
    );
    assert_eq!(judge_step(&ten_slow, Q, LIMIT_MS, SLACK), StepVerdict::Pass);
    let short = step(200.0, 999, |_| 10.0, vec![3; 8]);
    assert_eq!(
        judge_step(&short, Q, LIMIT_MS, SLACK),
        StepVerdict::TooFewSamples
    );
}

#[test]
fn a_failed_request_counts_as_a_miss() {
    let mut s = flat(200.0, 10.0);
    s.latencies.record_failure();
    assert_eq!(s.latencies.failures(), 1);
    assert_eq!(judge_step(&s, Q, LIMIT_MS, SLACK), StepVerdict::Failures(1));
    // Eleven failures also push the p99 itself past any limit.
    let mut many = flat(200.0, 10.0);
    for _ in 0..11 {
        many.latencies.record_failure();
    }
    assert!(many.latencies.quantile(Q).is_infinite());
}

#[test]
fn backlog_growth_fails_a_step_even_with_a_fast_tail() {
    assert!(!backlog_growing(&[3, 9, 4, 12, 5, 7, 2, 6], SLACK));
    assert!(backlog_growing(&[3, 10, 20, 30, 40, 60, 80, 100], SLACK));
    // Growth up to the slack is queue noise, not a trend.
    assert!(!backlog_growing(&[0, 0, 0, 10, 20, 30, 40, 42], SLACK));
    assert!(!backlog_growing(&[], SLACK));
    let growing = step(300.0, 1000, |_| 10.0, vec![5, 15, 25, 35, 45, 55, 65, 75]);
    assert_eq!(
        judge_step(&growing, Q, LIMIT_MS, SLACK),
        StepVerdict::BacklogGrowing
    );
}

/// A synthetic engine whose p99 crosses the limit above `capacity`.
fn engine(capacity: f64) -> impl FnMut(f64) -> RampStep {
    move |rate| flat(rate, if rate <= capacity { 20.0 } else { 120.0 })
}

#[test]
fn max_rate_search_finds_the_highest_passing_step() {
    for capacity in [150.0, 175.0, 200.0, 260.0, 325.0, 400.0] {
        let mut measured_rates = Vec::new();
        let mut e = engine(capacity);
        let (steps, best) = search_max_rate(flat(150.0, 20.0), 25.0, 7, Q, LIMIT_MS, SLACK, |r| {
            measured_rates.push(r);
            e(r)
        });
        let expected = ((capacity - 150.0) / 25.0).floor().clamp(0.0, 7.0) * 25.0 + 150.0;
        assert_eq!(steps[best].rate, expected, "capacity {capacity}");
        assert!(measured_rates.len() <= 3, "{measured_rates:?}");
        assert!(measured_rates.iter().all(|r| (175.0..=325.0).contains(r)));
    }
}

#[test]
fn max_rate_search_treats_failures_and_backlog_as_misses() {
    let (steps, best) = search_max_rate(flat(150.0, 20.0), 25.0, 7, Q, LIMIT_MS, SLACK, |rate| {
        let mut s = flat(rate, 20.0);
        if rate > 225.0 {
            s.latencies.record_failure();
        } else if rate > 200.0 {
            s.backlog = vec![0, 10, 20, 30, 40, 60, 80, 100];
        }
        s
    });
    assert_eq!(steps[best].rate, 200.0);
}

#[test]
fn batch_mean_counts_batches_not_requests() {
    // One batch of 8 and two batches of 1.
    let sizes = [8, 8, 8, 8, 8, 8, 8, 8, 1, 1];
    assert!((batch_mean(&sizes) - 10.0 / 3.0).abs() < 1e-12);
    assert_eq!(batches_by_size(&sizes, 8), vec![0, 2, 0, 0, 0, 0, 0, 0, 1]);
}

#[test]
fn derived_engine_ratios() {
    assert!((reply_overhead_ms(12.0, 4.5, 6.0) - 1.5).abs() < 1e-12);
    // 2 batches of 1 at 5 ms and 1 batch of 8 at 20 ms would take 30 ms
    // bare; the engine spent 36 ms.
    let by_size = [0, 2, 0, 0, 0, 0, 0, 0, 1];
    let bare = [0.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 20.0];
    assert!((exec_vs_bare(36.0, &by_size, &bare) - 1.2).abs() < 1e-12);
    // 3 s of execution on 2 workers over 2 s of wall time.
    assert!((busy_frac(3_000_000, 2, 2.0) - 0.75).abs() < 1e-12);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |start_ns, end_ns, parent| Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        request: None,
    };
    // Children overlap each other and spill past the parent's end.
    let spans = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(30, 50, Some(0)),
        span(90, 120, Some(0)),
        span(15, 20, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![50, 25, 20, 30, 5]);
}
