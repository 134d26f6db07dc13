//! # hydronas-nas
//!
//! The hardware-aware NAS engine — HydroNAS's substitute for NNI Retiarii.
//!
//! * [`space`] — the paper's search space (Figure 2): 288 stem
//!   configurations per input combination, six input combinations
//!   (channels x batch size), 1,728 enumerated trials.
//! * [`evaluator`] — pluggable trial evaluation: [`RealTrainer`] actually
//!   trains the candidate CNN with 5-fold cross-validation on synthetic
//!   drainage tiles; [`SurrogateEvaluator`] is the deterministic
//!   training-dynamics surrogate calibrated against the paper's Table 5
//!   anchors (used for full-scale sweeps where A100-weeks are not
//!   available).
//! * [`sweep`] — the typed, builder-style public API: [`Sweep::builder`]
//!   configures trials, evaluator, retry/backoff policy, journaling,
//!   cancellation, deadlines, and chaos injection, and returns a
//!   [`SweepReport`] carrying a structured [`DegradationReport`].
//! * [`scheduler`] — thread-pool trial execution with deterministic
//!   failure injection (the paper's 1,728 - 11 = 1,717 valid outcomes),
//!   bounded retries of transient environment failures, cooperative
//!   cancellation, simulated-clock deadlines, and journaled
//!   crash/resume.
//! * [`chaos`] — deterministic fault injection (timeouts, panics,
//!   transient failures) for robustness tests.
//! * [`error`] — the typed [`SweepError`] surface.
//! * [`metrics_cache`] — memoized per-architecture latency/memory
//!   metrics: the 1,728-trial grid holds only 360 distinct graphs
//!   (batch size never reaches the graph, pool-less rows enumerate
//!   redundant pool fields), so each is built once and served
//!   lock-free to the worker pool.
//! * [`journal`] — write-ahead JSONL trial journal: a killed sweep
//!   resumes by replaying finished trials and scheduling only the rest.
//! * [`progress`] — sweep observability: live counters, per-trial wall
//!   time, and a simulated-clock ETA through pluggable sinks.
//! * [`experiment`] — the experiment database: outcomes, objective
//!   extraction, Table 3/4/5 queries, JSON persistence.
//! * [`strategies`] — beyond the paper's grid: random search and
//!   regularized evolution over the same space.
//! * [`clock`] — the simulated wall-clock accounting reproducing the
//!   paper's Section 5 runtime observations.

pub mod analysis;
pub mod chaos;
pub mod clock;
pub mod error;
pub mod evaluator;
pub mod experiment;
pub mod halving;
pub mod journal;
pub mod metrics_cache;
pub mod nsga2;
pub mod progress;
pub mod scheduler;
pub mod space;
pub mod strategies;
pub mod surrogate;
pub mod sweep;

pub use analysis::{
    main_effect, objective_correlations, pearson, sensitivity, sensitivity_table, spearman, Factor,
    MainEffect, Response,
};
pub use chaos::{ChaosConfig, ChaosFault};
pub use clock::{
    experiment_wall_clock, makespan_lpt, profile_trial, trial_duration_s, TrialProfile,
};
pub use error::SweepError;
pub use evaluator::{
    EvalOutcome, Evaluator, FailureCause, RealTrainer, SurrogateEvaluator, TrialFailure,
};
pub use experiment::{ComboSummary, ExperimentDb, TrialOutcome, TrialStatus};
pub use halving::{successive_halving, HalvingConfig, HalvingResult, Rung};
pub use hydronas_nn::CancelToken;
pub use journal::{read_journal, Journal, TrialRecord};
pub use metrics_cache::{ArchMetrics, GraphMetricsCache, MetricsError};
pub use nsga2::{nsga2, Individual, Nsga2Config, Nsga2Result};
pub use progress::{CollectingSink, ProgressSink, StderrTicker, SweepEvent, SweepStats};
pub use scheduler::{
    attempt_seed, injected_failure_ids, run_experiment, run_full_grid, transient_failure_ids,
    SchedulerConfig, SweepReport,
};
pub use space::{InputCombo, SearchSpace, TrialSpec};
pub use strategies::{random_search, regularized_evolution, EvolutionConfig, SearchResult};
pub use sweep::{DegradationReport, RetryPolicy, Sweep, SweepBuilder};
