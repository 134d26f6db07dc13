//! The sweep API: one [`Sweep`] type.
//!
//! [`Sweep::builder`] returns a sweep that holds the paper's defaults
//! (the surrogate evaluator, seed 3, 11 injected failures). Each
//! `with_*` method changes one setting, and [`Sweep::run`] or
//! [`Sweep::run_with`] runs it and returns a typed [`SweepError`].
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
//! ## Retries
//!
//! Every trial gets at most three attempts. A transient failure (an
//! environment error or a caught panic) is retried, attempt `k` with
//! [`crate::attempt_seed`]`(seed, k)`; any other outcome is final. The
//! injected failures fail all three attempts, as the paper's lost trials
//! stayed lost, so the paper run counts 22 retries. Tests that need
//! recoverable faults inject them through [`Sweep::with_chaos`].
//!
//! ## Graceful degradation
//!
//! Cancellation ([`Sweep::with_cancel`]), wall-clock budgets
//! ([`Sweep::with_max_wall_s`]), and per-trial deadlines
//! ([`Sweep::with_trial_timeout_s`]) never surface as errors: the
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

/// A configured sweep. [`Sweep::run`] borrows it, so the same sweep can
/// run again (results are deterministic, and a journaled rerun replays).
pub struct Sweep {
    trials: Vec<TrialSpec>,
    evaluator: Box<dyn Evaluator>,
    params: SweepParams,
}

impl Sweep {
    /// A sweep with the paper's defaults: no trials yet, the surrogate
    /// evaluator, seed 3 and 11 injected failures.
    pub fn builder() -> Sweep {
        Sweep {
            trials: Vec::new(),
            evaluator: Box::new(SurrogateEvaluator::default()),
            params: SweepParams::from_config(&SchedulerConfig::default()),
        }
    }

    /// The trials to schedule (ids must be unique — a repeated id fails
    /// the run with [`SweepError::DuplicateTrialId`]; order is irrelevant,
    /// the database is always sorted by id).
    pub fn with_trials(mut self, trials: Vec<TrialSpec>) -> Sweep {
        self.trials = trials;
        self
    }

    /// The evaluator producing each trial's accuracy objective. Defaults
    /// to [`SurrogateEvaluator::default`].
    pub fn with_evaluator(mut self, evaluator: impl Evaluator + 'static) -> Sweep {
        self.evaluator = Box::new(evaluator);
        self
    }

    /// Master seed for evaluation and failure injection (default 3, the
    /// paper-reproducing seed).
    pub fn with_seed(mut self, seed: u64) -> Sweep {
        self.params.seed = seed;
        self
    }

    /// Tile edge for latency prediction / memory measurement
    /// (default 32).
    pub fn with_input_hw(mut self, input_hw: usize) -> Sweep {
        self.params.input_hw = input_hw;
        self
    }

    /// How many trials fail permanently with simulated environment
    /// errors (default 11, the paper's lost-trial count).
    pub fn with_injected_failures(mut self, n: usize) -> Sweep {
        self.params.injected_failures = n;
        self
    }

    /// Write-ahead journal path: replayed if the file already has
    /// records, appended to as live trials finish.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Sweep {
        self.params.journal = Some(path.into());
        self
    }

    /// Cooperative cancellation: once the token fires, no further trial
    /// starts (each pool task checks it before running its trial),
    /// in-flight trials drain, and the report comes back partial (see
    /// [`DegradationReport`]). Share a clone of the same token with a
    /// [`crate::RealTrainer`] to also stop training at epoch boundaries.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Sweep {
        self.params.cancel = cancel;
        self
    }

    /// Per-trial deadline on the simulated clock: a trial whose
    /// simulated training time exceeds `limit_s` fails with
    /// `TrialFailure::Timeout` instead of running. Deterministic (the
    /// simulated duration is a pure function of the spec), journaled,
    /// never retried.
    pub fn with_trial_timeout_s(mut self, limit_s: f64) -> Sweep {
        self.params.trial_timeout_s = Some(limit_s);
        self
    }

    /// Whole-sweep budget on the simulated clock: trials are admitted in
    /// id order until their cumulative simulated cost exceeds
    /// `budget_s`; the rest are skipped up front. The admitted set is a
    /// pure function of `(trials, budget_s)` — independent of thread
    /// count and scheduling order — so deadline-limited sweeps stay
    /// deterministic and resumable.
    pub fn with_max_wall_s(mut self, budget_s: f64) -> Sweep {
        self.params.max_wall_s = Some(budget_s);
        self
    }

    /// Deterministic fault injection for robustness tests (see
    /// [`crate::chaos`]).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Sweep {
        self.params.chaos = Some(chaos);
        self
    }

    /// The scheduled trial specs.
    pub fn trials(&self) -> &[TrialSpec] {
        &self.trials
    }

    /// The tile edge latency and memory are measured at (see
    /// [`Sweep::with_input_hw`]).
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
