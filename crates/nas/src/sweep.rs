//! The typed, builder-style sweep API.
//!
//! Every knob of [`Sweep::builder`] is a named `with_*` method, the
//! configuration structs are `#[non_exhaustive]` (new knobs never break
//! callers), and [`Sweep::run`] returns a typed [`SweepError`].
//!
//! ```no_run
//! use hydronas_nas::{space, SearchSpace, SurrogateEvaluator, Sweep};
//!
//! let trials = space::full_grid(&SearchSpace::paper());
//! let report = Sweep::builder()
//!     .with_trials(trials)
//!     .with_evaluator(SurrogateEvaluator::default())
//!     .with_seed(3)
//!     .with_journal("/tmp/sweep.jsonl")
//!     .run()
//!     .expect("journal path is writable");
//! assert_eq!(report.db.valid().len(), 1717);
//! ```
//!
//! ## Graceful degradation
//!
//! Cancellation ([`SweepBuilder::with_cancel`]), wall-clock budgets
//! ([`SweepBuilder::with_max_wall_s`]), and per-trial deadlines
//! ([`SweepBuilder::with_trial_timeout_s`]) never surface as errors: the
//! sweep drains in-flight trials, flushes its journal, and returns a
//! *partial* report whose [`DegradationReport`] says exactly what was
//! lost. Resuming the same configuration from the journal completes the
//! remainder and yields a database byte-identical to an uninterrupted
//! run.

use crate::chaos::ChaosConfig;
use crate::error::SweepError;
use crate::evaluator::{Evaluator, SurrogateEvaluator};
use crate::progress::ProgressSink;
use crate::scheduler::{run_sweep_inner, SchedulerConfig, SweepParams, SweepReport};
use crate::space::TrialSpec;
use hydronas_nn::CancelToken;
use std::path::PathBuf;

/// Bounded-retry policy with optional exponential backoff on the
/// simulated clock. Subsumes the old `SchedulerConfig::max_attempts`
/// knob: `RetryPolicy::new(n)` is exactly `max_attempts: n`.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Total attempts per trial (so `1` disables retries). Attempt `k`
    /// evaluates with [`crate::scheduler::attempt_seed`]`(seed, k)`.
    pub max_attempts: usize,
    /// Simulated seconds slept before the first retry; `0.0` (the
    /// default) retries immediately, preserving pre-redesign behavior.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff for each further retry.
    pub backoff_mult: f64,
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and no backoff.
    pub fn new(max_attempts: usize) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base_s: 0.0,
            backoff_mult: 2.0,
        }
    }

    /// Adds exponential backoff: retry `r` (1-based) waits
    /// `base_s * mult^(r-1)` simulated seconds. Backoff is accounted in
    /// [`DegradationReport::backoff_sim_s`] only — it never perturbs
    /// trial outcomes, so enabling it keeps the database byte-identical.
    pub fn with_backoff(mut self, base_s: f64, mult: f64) -> RetryPolicy {
        self.backoff_base_s = base_s.max(0.0);
        self.backoff_mult = mult.max(1.0);
        self
    }

    /// Simulated seconds of backoff before attempt `attempt` (2-based;
    /// attempt 1 never waits).
    pub fn backoff_s(&self, attempt: usize) -> f64 {
        if attempt <= 1 || self.backoff_base_s <= 0.0 {
            return 0.0;
        }
        self.backoff_base_s * self.backoff_mult.powi(attempt as i32 - 2)
    }
}

impl Default for RetryPolicy {
    /// Three attempts, no backoff — the historical scheduler default.
    fn default() -> RetryPolicy {
        RetryPolicy::new(3)
    }
}

/// What a degraded sweep lost, by cause.
///
/// Attached to every [`SweepReport`]; [`DegradationReport::is_degraded`]
/// is `false` for a healthy run (the paper's 11 expected environment
/// failures do not count as degradation — they are part of the
/// reproduced experiment).
#[derive(Clone, Debug, Default, PartialEq)]
#[non_exhaustive]
pub struct DegradationReport {
    /// The sweep's [`CancelToken`] fired before every trial finished.
    pub cancelled: bool,
    /// The `max_wall_s` budget excluded trials before the sweep started.
    pub deadline_exhausted: bool,
    /// Terminal failures whose cause is a per-trial timeout.
    pub timeout_trials: usize,
    /// Terminal failures whose cause is transient (environment failures,
    /// caught panics) — includes the deliberately injected ones.
    pub transient_trials: usize,
    /// Terminal failures whose cause is deterministic (invalid
    /// architecture, divergence).
    pub invalid_trials: usize,
    /// Trials that had started running but whose outcome was
    /// discarded because cancellation fired mid-evaluation. Never
    /// journaled: a resumed sweep re-runs them, which is what keeps
    /// cancel-then-resume byte-identical.
    pub cancelled_in_flight: usize,
    /// Ids of scheduled trials that have no outcome in the report's
    /// database (deadline-excluded or unreached after cancellation),
    /// sorted ascending.
    pub skipped: Vec<usize>,
    /// Simulated seconds spent in retry backoff across all trials.
    pub backoff_sim_s: f64,
}

impl DegradationReport {
    /// True when the report's database is missing scheduled work — i.e.
    /// the sweep was cancelled, deadline-limited, or lost trials to
    /// timeouts. Plain (injected) failures do not degrade a sweep.
    pub fn is_degraded(&self) -> bool {
        self.cancelled
            || self.deadline_exhausted
            || self.timeout_trials > 0
            || self.cancelled_in_flight > 0
            || !self.skipped.is_empty()
    }

    /// Human-readable account of what was lost (empty when healthy).
    pub fn summary(&self) -> String {
        if !self.is_degraded() {
            return String::new();
        }
        let mut lines = Vec::new();
        if self.cancelled {
            lines.push("sweep cancelled by token".to_string());
        }
        if self.deadline_exhausted {
            lines.push("wall-clock budget exhausted".to_string());
        }
        if self.timeout_trials > 0 {
            lines.push(format!(
                "{} trial(s) hit the per-trial timeout",
                self.timeout_trials
            ));
        }
        if self.cancelled_in_flight > 0 {
            lines.push(format!(
                "{} in-flight trial(s) discarded at cancellation",
                self.cancelled_in_flight
            ));
        }
        if !self.skipped.is_empty() {
            lines.push(format!(
                "{} trial(s) skipped without an outcome",
                self.skipped.len()
            ));
        }
        lines.join("\n")
    }
}

/// Builder for a [`Sweep`]. Obtain via [`Sweep::builder`]; every method
/// is optional — the zero-configuration default runs the surrogate
/// evaluator over an empty trial list with the paper's scheduler seed.
pub struct SweepBuilder {
    trials: Vec<TrialSpec>,
    evaluator: Option<Box<dyn Evaluator>>,
    params: SweepParams,
}

impl SweepBuilder {
    /// The trials to schedule (ids must be unique — a repeated id fails
    /// the run with [`SweepError::DuplicateTrialId`]; order is irrelevant,
    /// the database is always sorted by id).
    pub fn with_trials(mut self, trials: Vec<TrialSpec>) -> SweepBuilder {
        self.trials = trials;
        self
    }

    /// The evaluator producing each trial's accuracy objective. Defaults
    /// to [`SurrogateEvaluator::default`].
    pub fn with_evaluator(mut self, evaluator: impl Evaluator + 'static) -> SweepBuilder {
        self.evaluator = Some(Box::new(evaluator));
        self
    }

    /// Master seed for evaluation and failure injection (default 3, the
    /// paper-reproducing seed).
    pub fn with_seed(mut self, seed: u64) -> SweepBuilder {
        self.params.seed = seed;
        self
    }

    /// Tile edge for latency prediction / memory measurement
    /// (default 32).
    pub fn with_input_hw(mut self, input_hw: usize) -> SweepBuilder {
        self.params.input_hw = input_hw;
        self
    }

    /// How many trials fail permanently with simulated environment
    /// errors (default 11, the paper's lost-trial count).
    pub fn with_injected_failures(mut self, n: usize) -> SweepBuilder {
        self.params.injected_failures = n;
        self
    }

    /// How many trials fail their first attempt recoverably (default 0).
    pub fn with_transient_failures(mut self, n: usize) -> SweepBuilder {
        self.params.transient_failures = n;
        self
    }

    /// Retry/backoff policy (default: 3 attempts, no backoff).
    pub fn with_retry(mut self, retry: RetryPolicy) -> SweepBuilder {
        self.params.retry = retry;
        self
    }

    /// Write-ahead journal path: replayed if the file already has
    /// records, appended to as live trials finish.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> SweepBuilder {
        self.params.journal = Some(path.into());
        self
    }

    /// Cooperative cancellation: once the token fires, no further trial
    /// starts (each pool task checks it before running its trial),
    /// in-flight trials drain, and the report comes back partial (see
    /// [`DegradationReport`]). Share a clone of the same token with a
    /// [`crate::RealTrainer`] to also stop training at epoch boundaries.
    pub fn with_cancel(mut self, cancel: CancelToken) -> SweepBuilder {
        self.params.cancel = cancel;
        self
    }

    /// Per-trial deadline on the simulated clock: a trial whose
    /// simulated training time exceeds `limit_s` fails with
    /// `TrialFailure::Timeout` instead of running. Deterministic (the
    /// simulated duration is a pure function of the spec), journaled,
    /// never retried.
    pub fn with_trial_timeout_s(mut self, limit_s: f64) -> SweepBuilder {
        self.params.trial_timeout_s = Some(limit_s);
        self
    }

    /// Whole-sweep budget on the simulated clock: trials are admitted in
    /// id order until their cumulative simulated cost exceeds
    /// `budget_s`; the rest are skipped up front. The admitted set is a
    /// pure function of `(trials, budget_s)` — independent of thread
    /// count and scheduling order — so deadline-limited sweeps stay
    /// deterministic and resumable.
    pub fn with_max_wall_s(mut self, budget_s: f64) -> SweepBuilder {
        self.params.max_wall_s = Some(budget_s);
        self
    }

    /// Deterministic fault injection for robustness tests (see
    /// [`crate::chaos`]).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> SweepBuilder {
        self.params.chaos = Some(chaos);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Sweep {
        Sweep {
            trials: self.trials,
            evaluator: self
                .evaluator
                .unwrap_or_else(|| Box::new(SurrogateEvaluator::default())),
            params: self.params,
        }
    }

    /// Convenience: build and run without a progress sink.
    pub fn run(self) -> Result<SweepReport, SweepError> {
        self.build().run()
    }

    /// Convenience: build and run with a progress sink.
    pub fn run_with(self, sink: &mut dyn ProgressSink) -> Result<SweepReport, SweepError> {
        self.build().run_with(sink)
    }
}

/// A fully configured sweep. Reusable: [`Sweep::run`] borrows, so the
/// same configuration can run repeatedly (results are deterministic).
pub struct Sweep {
    trials: Vec<TrialSpec>,
    evaluator: Box<dyn Evaluator>,
    params: SweepParams,
}

impl Sweep {
    /// Starts a builder with the historical defaults (seed 3, 11
    /// injected failures, 3 attempts, surrogate evaluator).
    pub fn builder() -> SweepBuilder {
        let defaults = SchedulerConfig::default();
        SweepBuilder {
            trials: Vec::new(),
            evaluator: None,
            params: SweepParams::from_config(&defaults),
        }
    }

    /// The scheduled trial specs.
    pub fn trials(&self) -> &[TrialSpec] {
        &self.trials
    }

    /// The tile edge latency and memory are measured at (see
    /// [`SweepBuilder::with_input_hw`]).
    pub fn input_hw(&self) -> usize {
        self.params.input_hw
    }

    /// Runs the sweep without progress reporting.
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        run_sweep_inner(&self.trials, &*self.evaluator, &self.params, None)
    }

    /// Runs the sweep, streaming [`crate::SweepEvent`]s into `sink`.
    pub fn run_with(&self, sink: &mut dyn ProgressSink) -> Result<SweepReport, SweepError> {
        run_sweep_inner(&self.trials, &*self.evaluator, &self.params, Some(sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        let p = RetryPolicy::new(4).with_backoff(2.0, 3.0);
        assert_eq!(p.backoff_s(1), 0.0);
        assert_eq!(p.backoff_s(2), 2.0);
        assert_eq!(p.backoff_s(3), 6.0);
        assert_eq!(p.backoff_s(4), 18.0);
    }

    #[test]
    fn retry_policy_without_backoff_never_waits() {
        let p = RetryPolicy::new(3);
        for attempt in 1..=5 {
            assert_eq!(p.backoff_s(attempt), 0.0);
        }
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        assert_eq!(RetryPolicy::new(0).max_attempts, 1);
    }

    #[test]
    fn healthy_report_is_not_degraded() {
        let r = DegradationReport {
            transient_trials: 11, // the paper's expected losses
            invalid_trials: 2,
            ..Default::default()
        };
        assert!(!r.is_degraded());
        assert!(r.summary().is_empty());
    }

    #[test]
    fn each_degradation_cause_flips_the_flag() {
        let base = DegradationReport::default();
        assert!(!base.is_degraded());
        let cancelled = DegradationReport {
            cancelled: true,
            ..base.clone()
        };
        assert!(cancelled.is_degraded());
        assert!(cancelled.summary().contains("cancelled"));
        let deadline = DegradationReport {
            deadline_exhausted: true,
            skipped: vec![5, 6],
            ..base.clone()
        };
        assert!(deadline.is_degraded());
        assert!(deadline.summary().contains("budget"));
        assert!(deadline.summary().contains("2 trial(s) skipped"));
        let timeouts = DegradationReport {
            timeout_trials: 3,
            ..base
        };
        assert!(timeouts.is_degraded());
    }

    #[test]
    fn builder_runs_an_empty_sweep() {
        let report = Sweep::builder().run().unwrap();
        assert_eq!(report.db.outcomes.len(), 0);
        assert!(!report.degradation.is_degraded());
    }
}
