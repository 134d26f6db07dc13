//! Checkpointed, observable trial scheduling with deterministic failure
//! injection and bounded retries.
//!
//! Trials are independent, so they fan out over a scoped worker pool
//! (one OS thread per core, pulling indices off a shared atomic cursor);
//! results stream through a crossbeam channel into the collector, which
//! journals each terminal outcome ([`crate::journal`]), feeds the
//! progress sink ([`crate::progress`]), and finally re-orders by trial
//! id so the database is reproducible regardless of scheduling order.
//!
//! Determinism contract: every trial's outcome is a pure function of
//! `(spec, config)` — attempt `k` evaluates with [`attempt_seed`]`(seed,
//! k)` and the injected failure sets are seed-derived — so a sweep
//! resumed from a journal is byte-identical to an uninterrupted one.

use crate::chaos::{ChaosConfig, ChaosFault};
use crate::clock::trial_duration_s;
use crate::error::SweepError;
use crate::evaluator::{key_hash, Evaluator, FailureCause, TrialFailure};
use crate::experiment::{ExperimentDb, TrialOutcome, TrialStatus};
use crate::journal::{Journal, TrialRecord};
use crate::metrics_cache::GraphMetricsCache;
use crate::progress::{ProgressSink, SweepEvent, SweepStats};
use crate::space::{full_grid, SearchSpace, TrialSpec};
use crate::sweep::{DegradationReport, RetryPolicy};
use hydronas_nn::CancelToken;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Scheduler parameters.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Master seed for evaluation and failure injection.
    pub seed: u64,
    /// Tile edge used for latency prediction / memory measurement.
    pub input_hw: usize,
    /// How many trials fail with simulated environment errors. The paper
    /// schedules 1,728 trials and reports 1,717 valid outcomes, so the
    /// default is 11. These failures are *permanent*: they exhaust every
    /// retry attempt (the paper's lost trials stayed lost).
    pub injected_failures: usize,
    /// Retry budget per trial for environment failures (total attempts,
    /// so `1` disables retries). Attempt `k` evaluates with
    /// [`attempt_seed`]`(seed, k)`, keeping retried runs deterministic.
    pub max_attempts: usize,
    /// How many trials fail their *first* attempt with a transient
    /// environment error but succeed when retried — the recoverable
    /// counterpart of `injected_failures`, for exercising the retry
    /// path. Chosen deterministically, disjoint from the permanent set.
    pub transient_failures: usize,
}

impl Default for SchedulerConfig {
    /// The default master seed (3) is the smallest seed whose noise
    /// realization reproduces the paper's Table 4 cardinality — exactly
    /// five strictly non-dominated solutions with the published structure
    /// (all minimum-memory, three no-pool rows at the low latency level,
    /// two pool rows at roughly double latency with inflated lat_std).
    /// Nearby seeds give 2-7 rows of the same shape; the seed-sensitivity
    /// ablation in `hydronas-bench` quantifies this.
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            seed: 3,
            input_hw: 32,
            injected_failures: 11,
            max_attempts: 3,
            transient_failures: 0,
        }
    }
}

/// splitmix64-style finalizer so a seed genuinely reshuffles hash-derived
/// selections (a plain XOR salt would preserve hash ordering).
fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically selects which trial keys fail permanently: the `n`
/// smallest key hashes (salted by seed) — stable across runs and
/// platforms.
pub fn injected_failure_ids(trials: &[TrialSpec], seed: u64, n: usize) -> Vec<usize> {
    let mut hashed: Vec<(u64, usize)> = trials
        .iter()
        .map(|t| (mix64(key_hash(&t.key()) ^ mix64(seed)), t.id))
        .collect();
    hashed.sort_unstable();
    hashed.into_iter().take(n).map(|(_, id)| id).collect()
}

/// Salt separating the transient-failure stream from the permanent one.
const TRANSIENT_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Deterministically selects which trials fail their first attempt with
/// a *recoverable* environment error. Disjoint from `permanent` so the
/// two failure populations never overlap.
pub fn transient_failure_ids(
    trials: &[TrialSpec],
    seed: u64,
    n: usize,
    permanent: &HashSet<usize>,
) -> Vec<usize> {
    injected_failure_ids(trials, seed ^ TRANSIENT_SALT, trials.len())
        .into_iter()
        .filter(|id| !permanent.contains(id))
        .take(n)
        .collect()
}

/// The evaluation seed for attempt `attempt` (1-based) of a trial. The
/// first attempt uses the master seed unchanged — so runs that never
/// retry are unaffected — and later attempts derive fresh deterministic
/// streams, so resumed and uninterrupted sweeps agree byte for byte.
pub fn attempt_seed(seed: u64, attempt: usize) -> u64 {
    if attempt <= 1 {
        seed
    } else {
        mix64(seed ^ (attempt as u64).wrapping_mul(TRANSIENT_SALT))
    }
}

/// A blank outcome scaffold for `spec` (success status, zeroed
/// objectives) that failure paths overwrite.
fn base_outcome(spec: &TrialSpec) -> TrialOutcome {
    TrialOutcome {
        spec: spec.clone(),
        status: TrialStatus::Succeeded,
        accuracy: 0.0,
        fold_accuracies: Vec::new(),
        latency_ms: 0.0,
        latency_std_ms: 0.0,
        per_device_ms: Vec::new(),
        memory_mb: 0.0,
        train_seconds: 0.0,
    }
}

/// A terminal failed outcome for `spec`.
fn failed_outcome(spec: &TrialSpec, failure: TrialFailure) -> TrialOutcome {
    TrialOutcome {
        status: TrialStatus::Failed(failure.to_string()),
        ..base_outcome(spec)
    }
}

/// Runs one attempt of a trial end-to-end: accuracy via the evaluator,
/// latency and memory via the shared graph-metrics cache (one graph
/// build per distinct architecture, not per trial).
fn run_trial(
    spec: &TrialSpec,
    evaluator: &dyn Evaluator,
    metrics: &GraphMetricsCache,
    fail: bool,
    seed: u64,
) -> TrialOutcome {
    let base = base_outcome(spec);
    if fail {
        return TrialOutcome {
            status: TrialStatus::Failed(TrialFailure::EnvironmentFailure.to_string()),
            ..base
        };
    }
    // The cache's error Display delegates to the inner `from_arch`
    // error, so failure statuses match the previous
    // build-a-graph-per-trial code byte for byte.
    let arch_metrics = match metrics.get(&spec.arch) {
        Ok(m) => m,
        Err(e) => {
            return TrialOutcome {
                status: TrialStatus::Failed(
                    TrialFailure::InvalidArchitecture(e.graph.to_string()).to_string(),
                ),
                ..base
            }
        }
    };
    match evaluator.evaluate(spec, seed) {
        Ok(eval) => TrialOutcome {
            accuracy: eval.mean_accuracy,
            fold_accuracies: eval.fold_accuracies,
            train_seconds: eval.train_seconds,
            ..base
        }
        .with_latency(&arch_metrics.latency, arch_metrics.memory_mb),
        Err(failure) => TrialOutcome {
            status: TrialStatus::Failed(failure.to_string()),
            ..base
        },
    }
}

/// Is this terminal status retryable? Transient causes only: environment
/// failures and caught panics. (Environment failures were the only
/// retryable class before the cause taxonomy existed, and panics cannot
/// occur without chaos injection or an actually panicking evaluator, so
/// default sweeps behave exactly as they always did.)
fn is_retryable(status: &TrialStatus) -> bool {
    matches!(status, TrialStatus::Failed(msg)
        if FailureCause::from_status(msg) == Some(FailureCause::Transient))
}

thread_local! {
    /// True while this worker is inside an attempt whose panic (if any)
    /// will be caught and converted to a [`TrialFailure::Panicked`]
    /// outcome — the process-global hook stays quiet for it.
    static PANIC_IS_CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// [`catch_unwind`] without the default hook's stderr backtrace: a caught
/// attempt panic is an *outcome* (journaled as `panicked: …`), not a
/// crash, so it must not spray diagnostics over the progress output. The
/// silencing hook is installed once, process-wide, and defers to the
/// previously installed hook for every panic outside an attempt.
fn silenced_catch_unwind<R>(body: AssertUnwindSafe<impl FnOnce() -> R>) -> std::thread::Result<R> {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PANIC_IS_CONTAINED.with(|flag| flag.get()) {
                previous(info);
            }
        }));
    });
    PANIC_IS_CONTAINED.with(|flag| flag.set(true));
    let result = catch_unwind(body);
    PANIC_IS_CONTAINED.with(|flag| flag.set(false));
    result
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a trial under the retry policy: transient failures (environment
/// errors, caught panics) are re-attempted up to
/// `params.retry.max_attempts` times, each attempt with its own
/// deterministic seed. Panics — real or chaos-injected — are caught at
/// the attempt boundary and converted to `TrialFailure::Panicked`, so a
/// misbehaving evaluator degrades one trial instead of the whole sweep.
/// Returns the terminal outcome, attempts spent, and simulated backoff
/// seconds accrued.
fn run_trial_with_retry(
    spec: &TrialSpec,
    evaluator: &dyn Evaluator,
    params: &SweepParams,
    metrics: &GraphMetricsCache,
    permanent_fail: bool,
    transient_fail: bool,
) -> (TrialOutcome, usize, f64) {
    // Per-trial deadline on the simulated clock: a pure function of the
    // spec, checked before any work happens. Terminal — the simulated
    // duration cannot shrink on retry.
    if let Some(limit_s) = params.trial_timeout_s {
        if trial_duration_s(spec) > limit_s {
            hydronas_telemetry::add("nas.trial.timeout", 1);
            return (
                failed_outcome(spec, TrialFailure::Timeout { limit_s }),
                1,
                0.0,
            );
        }
    }
    let max_attempts = params.retry.max_attempts.max(1);
    let mut attempt = 1;
    let mut backoff_s = 0.0;
    loop {
        let fault = params
            .chaos
            .as_ref()
            .and_then(|c| c.fault_for(spec.id, attempt));
        if fault == Some(ChaosFault::Timeout) {
            hydronas_telemetry::add("nas.trial.timeout", 1);
            let limit_s = params
                .trial_timeout_s
                .unwrap_or_else(|| trial_duration_s(spec));
            return (
                failed_outcome(spec, TrialFailure::Timeout { limit_s }),
                attempt,
                backoff_s,
            );
        }
        let inject = permanent_fail
            || (transient_fail && attempt == 1)
            || fault == Some(ChaosFault::Transient);
        let caught = silenced_catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(ChaosFault::Panic) {
                panic!(
                    "chaos: injected panic (trial {}, attempt {attempt})",
                    spec.id
                );
            }
            run_trial(
                spec,
                evaluator,
                metrics,
                inject,
                attempt_seed(params.seed, attempt),
            )
        }));
        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                hydronas_telemetry::add("nas.trial.panic", 1);
                failed_outcome(spec, TrialFailure::Panicked(panic_message(payload)))
            }
        };
        if !is_retryable(&outcome.status) || attempt >= max_attempts {
            return (outcome, attempt, backoff_s);
        }
        attempt += 1;
        backoff_s += params.retry.backoff_s(attempt);
    }
}

/// A finished sweep: the ordered database, its execution counters, and
/// an account of anything a degraded run lost.
#[derive(Clone, Debug)]
pub struct SweepReport {
    pub db: ExperimentDb,
    pub stats: SweepStats,
    /// What was lost to cancellation, deadlines, or timeouts.
    /// [`DegradationReport::is_degraded`] is `false` for healthy runs.
    pub degradation: DegradationReport,
}

/// The resolved configuration `run_sweep_inner` executes — everything
/// the builder collects, in one place. Internal: the public surface is
/// [`crate::sweep::SweepBuilder`].
pub(crate) struct SweepParams {
    pub seed: u64,
    pub input_hw: usize,
    pub injected_failures: usize,
    pub transient_failures: usize,
    pub retry: RetryPolicy,
    pub journal: Option<PathBuf>,
    pub workers: Option<usize>,
    pub cancel: CancelToken,
    pub trial_timeout_s: Option<f64>,
    pub max_wall_s: Option<f64>,
    pub chaos: Option<ChaosConfig>,
}

impl SweepParams {
    /// Lifts a legacy [`SchedulerConfig`] (whose `max_attempts` the
    /// retry policy subsumes) into the full parameter set.
    pub(crate) fn from_config(config: &SchedulerConfig) -> SweepParams {
        SweepParams {
            seed: config.seed,
            input_hw: config.input_hw,
            injected_failures: config.injected_failures,
            transient_failures: config.transient_failures,
            retry: RetryPolicy::new(config.max_attempts),
            journal: None,
            workers: None,
            cancel: CancelToken::new(),
            trial_timeout_s: None,
            max_wall_s: None,
            chaos: None,
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Is this a terminal cancelled outcome (token fired mid-evaluation)?
fn is_cancelled_outcome(outcome: &TrialOutcome) -> bool {
    matches!(&outcome.status, TrialStatus::Failed(msg)
        if FailureCause::from_status(msg) == Some(FailureCause::Cancelled))
}

/// The engine behind [`crate::sweep::Sweep`]: runs `trials` on the
/// worker pool and collects an ordered database, with optional
/// journaling, progress reporting, cancellation, deadlines, and chaos
/// injection.
///
/// When `params.journal` points at a journal with existing records
/// (e.g. from a killed or cancelled sweep), those trials are replayed
/// instead of re-run and only the missing ids are scheduled; the result
/// is byte-identical to an uninterrupted sweep. Journal records that do
/// not match the scheduled trial set are rejected as
/// [`SweepError::StaleJournal`].
///
/// Degradation contract: cancellation and deadlines are *not* errors.
/// A degraded sweep stops claiming trials, drains the ones in flight
/// (discarding any that report `cancelled` — they are re-run on
/// resume), flushes the journal, and returns a partial report whose
/// [`DegradationReport`] lists per-cause counts and skipped ids.
pub(crate) fn run_sweep_inner(
    trials: &[TrialSpec],
    evaluator: &dyn Evaluator,
    params: &SweepParams,
    mut sink: Option<&mut dyn ProgressSink>,
) -> Result<SweepReport, SweepError> {
    // Build both failure sets once, up front — membership tests sit on
    // the per-trial hot path.
    let permanent: HashSet<usize> =
        injected_failure_ids(trials, params.seed, params.injected_failures)
            .into_iter()
            .collect();
    // One lazily-filled metrics slot per distinct architecture, shared
    // read-only by the whole worker pool (4.8x fewer graph builds than
    // trials on the paper grid: 1,728 trials, 360 distinct graphs).
    let metrics = GraphMetricsCache::for_trials(trials.iter(), params.input_hw);
    let transient: HashSet<usize> =
        transient_failure_ids(trials, params.seed, params.transient_failures, &permanent)
            .into_iter()
            .collect();

    let mut journal = None;
    let mut replayed: HashMap<usize, TrialRecord> = HashMap::new();
    if let Some(path) = params.journal.as_deref() {
        let (j, records) = Journal::resume(path).map_err(|source| SweepError::Journal {
            path: path.to_path_buf(),
            source,
        })?;
        let by_id: HashMap<usize, &TrialSpec> = trials.iter().map(|t| (t.id, t)).collect();
        for record in records {
            let id = record.outcome.spec.id;
            match by_id.get(&id) {
                Some(spec) if **spec == record.outcome.spec => {
                    replayed.insert(id, record);
                }
                _ => {
                    return Err(SweepError::StaleJournal {
                        path: path.to_path_buf(),
                        trial_id: id,
                    })
                }
            }
        }
        journal = Some(j);
    }

    let mut degradation = DegradationReport::default();

    // Deadline pre-walk: admit trials in id order until their cumulative
    // simulated cost exceeds the wall budget; skip the rest up front.
    // Computed statically — before any scheduling — so the admitted set
    // is identical for 1 worker or 32, and identical again on resume
    // (replayed trials count as already-spent budget).
    let mut deadline_skipped: HashSet<usize> = HashSet::new();
    if let Some(budget_s) = params.max_wall_s {
        let mut in_order: Vec<&TrialSpec> = trials.iter().collect();
        in_order.sort_by_key(|t| t.id);
        let mut spent_s = 0.0;
        let mut exhausted = false;
        for t in in_order {
            if !exhausted {
                spent_s += trial_duration_s(t);
                exhausted = spent_s > budget_s;
            }
            if exhausted && !replayed.contains_key(&t.id) {
                deadline_skipped.insert(t.id);
            }
        }
        degradation.deadline_exhausted = !deadline_skipped.is_empty();
    }

    let pending: Vec<&TrialSpec> = trials
        .iter()
        .filter(|t| !replayed.contains_key(&t.id) && !deadline_skipped.contains(&t.id))
        .collect();

    let mut stats = SweepStats {
        scheduled: trials.len(),
        replayed: replayed.len(),
        sim_total_s: pending.iter().map(|t| trial_duration_s(t)).sum(),
        ..Default::default()
    };
    for record in replayed.values() {
        if record.outcome.is_valid() {
            stats.completed += 1;
        } else {
            stats.failed += 1;
        }
        stats.retried += record.attempts.saturating_sub(1);
    }

    // One span covers the whole sweep; per-trial spans open on the
    // worker threads (true thread attribution in the Chrome trace).
    let mut sweep_span = hydronas_telemetry::span("nas.sweep", "sweep");
    sweep_span.attr("scheduled", trials.len());
    sweep_span.attr("replayed", stats.replayed);
    sweep_span.sim_s(stats.sim_total_s);

    let started = Instant::now();
    if let Some(sink) = sink.as_deref_mut() {
        sink.on_event(&SweepEvent::Started { stats: &stats });
    }

    let workers = params
        .workers
        .unwrap_or_else(default_workers)
        .clamp(1, pending.len().max(1));
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<(TrialOutcome, usize, f64, f64)>();

    let mut live: Vec<TrialRecord> = Vec::with_capacity(pending.len());
    // Ids with a terminal outcome in the database (used to compute the
    // skipped set after a cancellation).
    let mut landed: HashSet<usize> = HashSet::new();
    let cancel = &params.cancel;
    let (pending, cursor, permanent, transient, metrics) =
        (&pending, &cursor, &permanent, &transient, &metrics);
    let collected: Result<(), SweepError> = std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                // Cancellation point: checked before claiming each
                // trial, so a fired token stops new work immediately
                // while the trial in flight (if any) drains normally.
                if cancel.is_cancelled() {
                    break;
                }
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = pending.get(idx) else { break };
                // The `enabled` guard keeps the format! off the hot path
                // of uninstrumented sweeps.
                let mut trial_span = hydronas_telemetry::enabled().then(|| {
                    let mut sp =
                        hydronas_telemetry::span("nas.trial", &format!("trial {}", spec.id));
                    sp.attr("id", spec.id);
                    sp.attr("key", spec.key());
                    sp.sim_s(trial_duration_s(spec));
                    sp
                });
                let t0 = Instant::now();
                let (outcome, attempts, backoff_s) = run_trial_with_retry(
                    spec,
                    evaluator,
                    params,
                    metrics,
                    permanent.contains(&spec.id),
                    transient.contains(&spec.id),
                );
                if let Some(sp) = trial_span.as_mut() {
                    sp.attr("attempts", attempts);
                }
                drop(trial_span);
                // A send error means the collector bailed on a journal
                // I/O failure; just drain the remaining work.
                let _ = tx.send((outcome, attempts, t0.elapsed().as_secs_f64(), backoff_s));
            });
        }
        drop(tx);
        for (outcome, attempts, wall_s, backoff_s) in rx.iter() {
            degradation.backoff_sim_s += backoff_s;
            // Cancelled outcomes never reach the journal or the
            // database: the trial's real result is unknowable (training
            // stopped mid-way), so a resumed sweep must re-run it.
            // Recording it would freeze the torn state forever and break
            // resume byte-identity.
            if is_cancelled_outcome(&outcome) {
                degradation.cancelled_in_flight += 1;
                continue;
            }
            if let TrialStatus::Failed(msg) = &outcome.status {
                match FailureCause::from_status(msg) {
                    Some(FailureCause::Timeout) => degradation.timeout_trials += 1,
                    Some(FailureCause::Transient) => degradation.transient_trials += 1,
                    Some(FailureCause::Invalid) => degradation.invalid_trials += 1,
                    _ => {}
                }
            }
            landed.insert(outcome.spec.id);
            let record = TrialRecord { attempts, outcome };
            // Write-ahead: the journal line lands before the record is
            // admitted to the in-memory database.
            if let Some(j) = journal.as_mut() {
                j.append(&record).map_err(|source| SweepError::Journal {
                    path: params.journal.clone().expect("journal path set"),
                    source,
                })?;
            }
            if record.outcome.is_valid() {
                stats.completed += 1;
            } else {
                stats.failed += 1;
            }
            stats.retried += attempts - 1;
            stats.sim_done_s += trial_duration_s(&record.outcome.spec);
            stats.wall_s = started.elapsed().as_secs_f64();
            // Telemetry rides the same stream the progress sink sees:
            // per-trial wall time and the sweep's progress/ETA series
            // (all wall-clock derived, so they live outside the
            // deterministic outputs).
            if hydronas_telemetry::enabled() {
                hydronas_telemetry::record_value("nas.trial.wall_s", wall_s);
                let step = stats.finished() as f64;
                hydronas_telemetry::push_series("nas.sweep.sim_done_s", step, stats.sim_done_s);
                if let Some(eta) = stats.eta_s() {
                    hydronas_telemetry::push_series("nas.sweep.eta_s", step, eta);
                }
            }
            if let Some(sink) = sink.as_deref_mut() {
                sink.on_event(&SweepEvent::Trial {
                    outcome: &record.outcome,
                    attempts,
                    wall_s,
                    stats: &stats,
                });
            }
            live.push(record);
        }
        Ok(())
    });
    collected?;

    // Degradation accounting after the pool drains: anything scheduled
    // but absent from the database is "skipped".
    degradation.cancelled = params.cancel.is_cancelled();
    let mut skipped: Vec<usize> = deadline_skipped.into_iter().collect();
    if degradation.cancelled {
        hydronas_telemetry::add("nas.sweep.cancelled", 1);
        skipped.extend(
            pending
                .iter()
                .filter(|t| !landed.contains(&t.id))
                .map(|t| t.id),
        );
    }
    skipped.sort_unstable();
    degradation.skipped = skipped;
    if !degradation.skipped.is_empty() {
        hydronas_telemetry::add("nas.sweep.skipped", degradation.skipped.len() as u64);
    }
    if degradation.is_degraded() {
        sweep_span.attr("degraded", degradation.summary());
    }

    stats.wall_s = started.elapsed().as_secs_f64();
    let mut outcomes: Vec<TrialOutcome> = replayed
        .into_values()
        .map(|r| r.outcome)
        .chain(live.into_iter().map(|r| r.outcome))
        .collect();
    outcomes.sort_by_key(|o| o.spec.id);
    if let Some(sink) = sink {
        if degradation.is_degraded() {
            sink.on_event(&SweepEvent::Degraded {
                report: &degradation,
                stats: &stats,
            });
        }
        sink.on_event(&SweepEvent::Finished { stats: &stats });
    }
    Ok(SweepReport {
        db: ExperimentDb { outcomes },
        stats,
        degradation,
    })
}

/// Runs a set of trials in parallel and collects an ordered database.
pub fn run_experiment(
    trials: &[TrialSpec],
    evaluator: &dyn Evaluator,
    config: &SchedulerConfig,
) -> ExperimentDb {
    run_sweep_inner(trials, evaluator, &SweepParams::from_config(config), None)
        .expect("a sweep without a journal performs no I/O")
        .db
}

/// The paper's full experiment: all 1,728 grid trials.
pub fn run_full_grid(evaluator: &dyn Evaluator, config: &SchedulerConfig) -> ExperimentDb {
    run_experiment(&full_grid(&SearchSpace::paper()), evaluator, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateEvaluator;
    use crate::progress::CollectingSink;
    use crate::space::{full_grid, SearchSpace};
    use crate::sweep::Sweep;

    #[test]
    fn failure_injection_is_deterministic_and_exact() {
        let trials = full_grid(&SearchSpace::paper());
        let a = injected_failure_ids(&trials, 1, 11);
        let b = injected_failure_ids(&trials, 1, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        let c = injected_failure_ids(&trials, 2, 11);
        assert_ne!(a, c);
    }

    #[test]
    fn transient_set_is_disjoint_from_permanent() {
        let trials = full_grid(&SearchSpace::paper());
        let permanent: HashSet<usize> = injected_failure_ids(&trials, 3, 11).into_iter().collect();
        let transient = transient_failure_ids(&trials, 3, 20, &permanent);
        assert_eq!(transient.len(), 20);
        assert!(transient.iter().all(|id| !permanent.contains(id)));
    }

    #[test]
    fn attempt_seeds_are_distinct_and_stable() {
        assert_eq!(attempt_seed(3, 1), 3, "first attempt keeps the master seed");
        let s2 = attempt_seed(3, 2);
        let s3 = attempt_seed(3, 3);
        assert_ne!(s2, 3);
        assert_ne!(s2, s3);
        assert_eq!(s2, attempt_seed(3, 2), "derivation is pure");
    }

    #[test]
    fn small_experiment_round_trips() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(24)
            .collect();
        let config = SchedulerConfig {
            injected_failures: 2,
            ..Default::default()
        };
        let db = run_experiment(&trials, &SurrogateEvaluator::default(), &config);
        assert_eq!(db.outcomes.len(), 24);
        assert_eq!(db.valid().len(), 22);
        // Ordered by id despite parallel execution.
        for (i, o) in db.outcomes.iter().enumerate() {
            assert_eq!(o.spec.id, trials[i].id);
        }
        // Valid outcomes carry all three objectives.
        for o in db.valid() {
            assert!(o.accuracy > 0.0);
            assert!(o.latency_ms > 0.0);
            assert!(o.memory_mb > 0.0);
            assert_eq!(o.per_device_ms.len(), 4);
        }
    }

    #[test]
    fn rerun_reproduces_identical_database() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(16)
            .collect();
        let config = SchedulerConfig::default();
        let ev = SurrogateEvaluator::default();
        let a = run_experiment(&trials, &ev, &config);
        let b = run_experiment(&trials, &ev, &config);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn full_grid_yields_1717_valid_outcomes() {
        let config = SchedulerConfig::default();
        let db = run_full_grid(&SurrogateEvaluator::default(), &config);
        assert_eq!(db.outcomes.len(), 1728);
        assert_eq!(db.valid().len(), 1717, "the paper's valid trial count");
    }

    #[test]
    fn transient_failures_recover_on_retry() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(24)
            .collect();
        let mut sink = CollectingSink::default();
        let report = Sweep::builder()
            .with_trials(trials)
            .with_injected_failures(0)
            .with_transient_failures(3)
            .with_retry(RetryPolicy::new(3))
            .run_with(&mut sink)
            .unwrap();
        // Every trial recovers; exactly the transient ones took 2 attempts.
        assert_eq!(report.db.valid().len(), 24);
        assert!(!report.degradation.is_degraded());
        assert_eq!(report.stats.retried, 3);
        assert_eq!(
            sink.trials
                .iter()
                .filter(|(_, attempts, _)| *attempts == 2)
                .count(),
            3
        );
        assert_eq!(sink.started, 1);
        assert_eq!(sink.finished, 1);
    }

    #[test]
    fn max_attempts_one_disables_retry() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(12)
            .collect();
        let report = Sweep::builder()
            .with_trials(trials)
            .with_injected_failures(0)
            .with_transient_failures(2)
            .with_retry(RetryPolicy::new(1))
            .run()
            .unwrap();
        assert_eq!(report.db.valid().len(), 10);
        assert_eq!(report.stats.failed, 2);
        assert_eq!(report.stats.retried, 0);
    }

    #[test]
    fn permanent_failures_exhaust_the_retry_budget() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(12)
            .collect();
        let mut sink = CollectingSink::default();
        let report = Sweep::builder()
            .with_trials(trials)
            .with_injected_failures(2)
            .with_retry(RetryPolicy::new(3))
            .run_with(&mut sink)
            .unwrap();
        assert_eq!(report.stats.failed, 2);
        // Each permanent failure burned all three attempts.
        assert_eq!(report.stats.retried, 4);
        assert_eq!(
            sink.trials
                .iter()
                .filter(|(_, attempts, _)| *attempts == 3)
                .count(),
            2
        );
    }

    #[test]
    fn worker_count_does_not_change_the_database() {
        // 32 workers deliberately exceeds the old hard cap of 8 (and any
        // plausible core count): oversubscription must not perturb the
        // database either.
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(48)
            .collect();
        let mut json = Vec::new();
        for workers in [1, 7, 32] {
            let report = Sweep::builder()
                .with_trials(trials.clone())
                .with_injected_failures(2)
                .with_workers(workers)
                .run()
                .unwrap();
            json.push(report.db.to_json());
        }
        assert_eq!(json[0], json[1]);
        assert_eq!(json[0], json[2], "32 workers must match a serial sweep");
    }

    #[test]
    fn pre_cancelled_sweep_returns_an_empty_partial_report() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(12)
            .collect();
        let ids: Vec<usize> = trials.iter().map(|t| t.id).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut sink = CollectingSink::default();
        let report = Sweep::builder()
            .with_trials(trials)
            .with_cancel(cancel)
            .run_with(&mut sink)
            .unwrap();
        assert_eq!(report.db.outcomes.len(), 0);
        assert!(report.degradation.cancelled);
        assert!(report.degradation.is_degraded());
        assert_eq!(report.degradation.skipped, ids);
        assert!(sink.degraded.is_some(), "sink must see the Degraded event");
    }

    #[test]
    fn per_trial_timeout_fails_expensive_trials_deterministically() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(24)
            .collect();
        let limit_s = {
            // Median simulated duration: roughly half the trials exceed.
            let mut d: Vec<f64> = trials.iter().map(trial_duration_s).collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            d[d.len() / 2]
        };
        let expect_timeouts = trials
            .iter()
            .filter(|t| trial_duration_s(t) > limit_s)
            .count();
        assert!(expect_timeouts > 0, "test premise: some trials exceed");
        let run = || {
            Sweep::builder()
                .with_trials(trials.clone())
                .with_injected_failures(0)
                .with_trial_timeout_s(limit_s)
                .run()
                .unwrap()
        };
        let a = run();
        assert_eq!(a.degradation.timeout_trials, expect_timeouts);
        assert!(a.degradation.is_degraded());
        assert_eq!(a.db.outcomes.len(), 24, "timeouts still land in the db");
        assert_eq!(a.db.valid().len(), 24 - expect_timeouts);
        assert_eq!(a.db.to_json(), run().db.to_json(), "timeouts are pure");
    }

    #[test]
    fn max_wall_budget_admits_an_id_ordered_prefix() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(24)
            .collect();
        let total: f64 = trials.iter().map(trial_duration_s).sum();
        let report = Sweep::builder()
            .with_trials(trials.clone())
            .with_injected_failures(0)
            .with_max_wall_s(total / 2.0)
            .run()
            .unwrap();
        assert!(report.degradation.deadline_exhausted);
        let skipped = &report.degradation.skipped;
        assert!(!skipped.is_empty());
        // The skipped set is a suffix in id order: everything after the
        // first trial that blew the budget.
        let min_skipped = skipped[0];
        for t in &trials {
            assert_eq!(
                skipped.contains(&t.id),
                t.id >= min_skipped,
                "trial {} breaks the prefix property",
                t.id
            );
        }
        assert_eq!(report.db.outcomes.len(), 24 - skipped.len());
    }

    #[test]
    fn chaos_transients_are_absorbed_by_retries() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(24)
            .collect();
        let report = Sweep::builder()
            .with_trials(trials)
            .with_injected_failures(0)
            .with_chaos(ChaosConfig::new(11).with_transients(200))
            .with_retry(RetryPolicy::new(4).with_backoff(1.0, 2.0))
            .run()
            .unwrap();
        // 20% per-attempt transient rate with 4 attempts: losing a trial
        // needs 4 consecutive faults (p = 0.0016 per trial).
        assert_eq!(report.db.valid().len(), 24);
        assert!(report.stats.retried > 0, "chaos must have injected faults");
        assert!(
            report.degradation.backoff_sim_s > 0.0,
            "retries must accrue simulated backoff"
        );
        assert!(!report.degradation.is_degraded());
    }

    #[test]
    fn chaos_panics_are_caught_not_propagated() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(16)
            .collect();
        // Panic on every attempt: all trials exhaust retries and fail
        // with a Panicked status, but the sweep itself survives.
        let report = Sweep::builder()
            .with_trials(trials)
            .with_injected_failures(0)
            .with_chaos(ChaosConfig::new(5).with_panics(1000))
            .with_retry(RetryPolicy::new(2))
            .run()
            .unwrap();
        assert_eq!(report.db.valid().len(), 0);
        assert_eq!(report.stats.failed, 16);
        assert_eq!(report.degradation.transient_trials, 16);
        for o in &report.db.outcomes {
            match &o.status {
                TrialStatus::Failed(msg) => {
                    assert!(msg.starts_with("panicked"), "{msg}")
                }
                other => panic!("expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_schedule_is_worker_count_invariant() {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .take(24)
            .collect();
        let run = |workers| {
            Sweep::builder()
                .with_trials(trials.clone())
                .with_chaos(ChaosConfig::new(9).with_timeouts(100).with_transients(200))
                .with_workers(workers)
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.db.to_json(), b.db.to_json());
        assert_eq!(a.degradation, b.degradation);
    }
}
