//! Trial evaluators: the pluggable "performance estimation" leg of NAS.

use crate::clock::trial_duration_s;
use crate::space::TrialSpec;
use crate::surrogate::surrogate_fold_accuracies;
use hydronas_geodata::{build_dataset, ChannelMode, Region};
use hydronas_graph::ModelGraph;
use hydronas_nn::{kfold_cross_validate, CancelToken, Dataset, TrainConfig};
use serde::{Deserialize, Serialize};

/// Why a trial produced no outcome.
///
/// The journal serializes failures through their `Display` rendering,
/// so every `Display` string here is part of the on-disk format: the
/// pre-existing variants must render byte-identically forever, and new
/// variants (the enum is `#[non_exhaustive]`) only ever *add* strings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrialFailure {
    /// The stem collapsed the feature map (invalid configuration).
    InvalidArchitecture(String),
    /// Simulated environment failure (the paper's 11 lost NNI trials).
    EnvironmentFailure,
    /// Training diverged to non-finite loss.
    Diverged,
    /// The trial's simulated training time exceeded the per-trial
    /// deadline (`limit_s` seconds on the simulated clock).
    Timeout { limit_s: f64 },
    /// A [`CancelToken`] fired before or while the trial ran. Cancelled
    /// outcomes never reach the journal or the database — they are
    /// reported only through the sweep's `DegradationReport`, which is
    /// what keeps cancel-then-resume byte-identical to an uninterrupted
    /// run.
    Cancelled,
    /// The evaluator panicked; the payload is the captured panic message.
    /// Treated as transient (retried with a fresh attempt seed).
    Panicked(String),
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialFailure::InvalidArchitecture(why) => write!(f, "invalid architecture: {why}"),
            TrialFailure::EnvironmentFailure => write!(f, "environment failure"),
            TrialFailure::Diverged => write!(f, "training diverged"),
            TrialFailure::Timeout { limit_s } => {
                write!(f, "trial timeout: exceeded {limit_s} s simulated budget")
            }
            TrialFailure::Cancelled => write!(f, "cancelled"),
            TrialFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl TrialFailure {
    /// The coarse cause bucket this failure belongs to.
    pub fn cause(&self) -> FailureCause {
        match self {
            TrialFailure::InvalidArchitecture(_) | TrialFailure::Diverged => FailureCause::Invalid,
            TrialFailure::EnvironmentFailure | TrialFailure::Panicked(_) => FailureCause::Transient,
            TrialFailure::Timeout { .. } => FailureCause::Timeout,
            TrialFailure::Cancelled => FailureCause::Cancelled,
        }
    }
}

/// The coarse failure taxonomy used for retry decisions and degradation
/// accounting. Every [`TrialFailure`] maps onto exactly one cause via
/// [`TrialFailure::cause`]; journaled failure strings map back via
/// [`FailureCause::from_status`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FailureCause {
    /// Per-trial deadline exceeded.
    Timeout,
    /// A cancellation token fired.
    Cancelled,
    /// Recoverable by retrying (environment failure, caught panic).
    Transient,
    /// Deterministically wrong (invalid architecture, divergence) —
    /// retrying cannot help.
    Invalid,
}

impl FailureCause {
    /// Classifies a journaled failure status string (the
    /// `TrialFailure::to_string()` the journal stores verbatim).
    /// Returns `None` for strings no known variant produces.
    pub fn from_status(status: &str) -> Option<FailureCause> {
        if status.starts_with("invalid architecture") || status == "training diverged" {
            Some(FailureCause::Invalid)
        } else if status == "environment failure" || status.starts_with("panicked") {
            Some(FailureCause::Transient)
        } else if status.starts_with("trial timeout") {
            Some(FailureCause::Timeout)
        } else if status == "cancelled" {
            Some(FailureCause::Cancelled)
        } else {
            None
        }
    }
}

/// Accuracy outcome of one evaluated trial.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Mean accuracy over k folds, percent.
    pub mean_accuracy: f64,
    /// Per-fold validation accuracies.
    pub fold_accuracies: Vec<f64>,
    /// (Simulated or measured) training wall-clock, seconds.
    pub train_seconds: f64,
}

/// A trial evaluator: produces the accuracy objective for one spec.
pub trait Evaluator: Sync {
    /// Evaluates one trial. A sweep calls this from a compute-pool task,
    /// so it must not block on another thread that submits a grid (such
    /// as an inference engine's worker): that grid would queue behind
    /// the sweep's own forever.
    fn evaluate(&self, spec: &TrialSpec, seed: u64) -> Result<EvalOutcome, TrialFailure>;

    /// Number of cross-validation folds this evaluator runs.
    fn folds(&self) -> usize;
}

/// Stable 64-bit hash of a trial key (FNV-1a).
pub fn key_hash(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The surrogate evaluator used for full-scale sweeps.
#[derive(Clone, Debug)]
pub struct SurrogateEvaluator {
    pub folds: usize,
    /// Tile edge used for architecture validity checking.
    pub input_hw: usize,
}

impl Default for SurrogateEvaluator {
    fn default() -> SurrogateEvaluator {
        SurrogateEvaluator {
            folds: 5,
            input_hw: 32,
        }
    }
}

impl Evaluator for SurrogateEvaluator {
    fn evaluate(&self, spec: &TrialSpec, seed: u64) -> Result<EvalOutcome, TrialFailure> {
        let mut span = hydronas_telemetry::span("nas.evaluate", "surrogate");
        span.attr("id", spec.id);
        // Validity: the architecture must shape-infer at the tile size.
        ModelGraph::from_arch(&spec.arch, self.input_hw)
            .map_err(|e| TrialFailure::InvalidArchitecture(e.to_string()))?;
        let trial_seed = seed ^ key_hash(&spec.key());
        let fold_accuracies =
            surrogate_fold_accuracies(&spec.arch, spec.combo.batch_size, self.folds, trial_seed);
        let mean_accuracy = fold_accuracies.iter().sum::<f64>() / self.folds as f64;
        Ok(EvalOutcome {
            mean_accuracy,
            fold_accuracies,
            train_seconds: trial_duration_s(spec),
        })
    }

    fn folds(&self) -> usize {
        self.folds
    }
}

/// The real-training evaluator: synthesizes a (scaled) drainage dataset
/// and runs actual k-fold cross-validated SGD training.
pub struct RealTrainer {
    pub regions: Vec<Region>,
    /// Fraction of Table 1 sample counts to synthesize.
    pub dataset_scale: f64,
    pub tile_size: usize,
    pub folds: usize,
    pub epochs: usize,
    pub learning_rate: f32,
    /// Feature-width cap: training f=64 on CPU is possible but slow, so
    /// small-scale demonstrations can clamp width (documented distortion;
    /// `None` trains the exact candidate).
    pub max_features: Option<usize>,
    /// Cooperative cancellation: checked before evaluation starts and at
    /// every fold/epoch boundary inside the training loop. Share a clone
    /// of the sweep's token here so Ctrl-C stops real training between
    /// epochs instead of waiting for the trial to finish.
    pub cancel: CancelToken,
}

impl RealTrainer {
    /// Miniature configuration for tests and examples.
    pub fn miniature() -> RealTrainer {
        RealTrainer {
            regions: hydronas_geodata::study_regions(),
            dataset_scale: 0.016,
            tile_size: 24,
            folds: 2,
            epochs: 6,
            learning_rate: 0.05,
            max_features: Some(8),
            cancel: CancelToken::new(),
        }
    }
}

impl Evaluator for RealTrainer {
    fn evaluate(&self, spec: &TrialSpec, seed: u64) -> Result<EvalOutcome, TrialFailure> {
        let mut span = hydronas_telemetry::span("nas.evaluate", "real");
        span.attr("id", spec.id);
        if self.cancel.is_cancelled() {
            return Err(TrialFailure::Cancelled);
        }
        let mut arch = spec.arch;
        if let Some(cap) = self.max_features {
            arch.initial_features = arch.initial_features.min(cap);
        }
        ModelGraph::from_arch(&arch, self.tile_size)
            .map_err(|e| TrialFailure::InvalidArchitecture(e.to_string()))?;

        let mode = ChannelMode::from_channels(spec.combo.channels);
        let tiles = build_dataset(
            &self.regions,
            mode,
            self.tile_size,
            self.dataset_scale,
            seed,
        );
        let data = Dataset::new(tiles.features, tiles.labels);

        let config = TrainConfig {
            epochs: self.epochs,
            batch_size: spec.combo.batch_size,
            learning_rate: self.learning_rate,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: seed ^ key_hash(&spec.key()),
        };
        let started = std::time::Instant::now();
        let (mean_accuracy, folds) =
            kfold_cross_validate(&arch, &data, self.folds, &config, &self.cancel);
        if folds.len() < self.folds || folds.iter().any(|f| f.result.cancelled) {
            return Err(TrialFailure::Cancelled);
        }
        if folds.iter().any(|f| f.result.diverged) {
            return Err(TrialFailure::Diverged);
        }
        Ok(EvalOutcome {
            mean_accuracy,
            fold_accuracies: folds.iter().map(|f| f.result.report.accuracy_pct).collect(),
            train_seconds: started.elapsed().as_secs_f64(),
        })
    }

    fn folds(&self) -> usize {
        self.folds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{InputCombo, SearchSpace, TrialSpec};
    use hydronas_graph::ArchConfig;

    fn spec(arch: ArchConfig, batch: usize) -> TrialSpec {
        TrialSpec {
            id: 0,
            combo: InputCombo {
                channels: arch.in_channels,
                batch_size: batch,
            },
            arch,
            kernel_size_pool: arch.pool.map_or(3, |p| p.kernel),
            stride_pool: arch.pool.map_or(2, |p| p.stride),
        }
    }

    #[test]
    fn surrogate_is_deterministic() {
        let ev = SurrogateEvaluator::default();
        let s = spec(ArchConfig::baseline(5), 8);
        let a = ev.evaluate(&s, 7).unwrap();
        let b = ev.evaluate(&s, 7).unwrap();
        assert_eq!(a, b);
        let c = ev.evaluate(&s, 8).unwrap();
        assert_ne!(a.mean_accuracy, c.mean_accuracy);
    }

    #[test]
    fn surrogate_rejects_collapsing_arch() {
        let ev = SurrogateEvaluator {
            folds: 5,
            input_hw: 4,
        };
        let arch = ArchConfig {
            in_channels: 5,
            kernel_size: 7,
            stride: 2,
            padding: 0,
            pool: None,
            initial_features: 32,
            num_classes: 2,
        };
        let err = ev.evaluate(&spec(arch, 8), 0).unwrap_err();
        assert!(matches!(err, TrialFailure::InvalidArchitecture(_)));
    }

    #[test]
    fn surrogate_mean_matches_folds() {
        let ev = SurrogateEvaluator::default();
        let out = ev.evaluate(&spec(ArchConfig::baseline(7), 16), 3).unwrap();
        assert_eq!(out.fold_accuracies.len(), 5);
        let mean = out.fold_accuracies.iter().sum::<f64>() / 5.0;
        assert!((mean - out.mean_accuracy).abs() < 1e-12);
        assert!(out.train_seconds > 0.0);
    }

    #[test]
    fn surrogate_covers_whole_grid_without_panic() {
        let ev = SurrogateEvaluator::default();
        for s in crate::space::full_grid(&SearchSpace::paper())
            .iter()
            .step_by(37)
        {
            let out = ev.evaluate(s, 1).unwrap();
            assert!((50.0..=99.5).contains(&out.mean_accuracy));
        }
    }

    #[test]
    fn real_trainer_learns_above_chance() {
        // Miniature but real: synthesize tiles, train 2 epochs, 2 folds.
        let trainer = RealTrainer::miniature();
        let arch = ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 8,
            num_classes: 2,
        };
        let out = trainer.evaluate(&spec(arch, 8), 11).unwrap();
        assert_eq!(out.fold_accuracies.len(), 2);
        // Real learning on tiny data: demand meaningfully above chance.
        assert!(out.mean_accuracy > 55.0, "accuracy {}", out.mean_accuracy);
        assert!(out.train_seconds > 0.0);
    }

    #[test]
    fn key_hash_is_stable_and_distinct() {
        assert_eq!(key_hash("abc"), key_hash("abc"));
        assert_ne!(key_hash("abc"), key_hash("abd"));
    }

    #[test]
    fn failure_display_strings_are_part_of_the_journal_format() {
        // These exact strings live in every journal written since PR 1;
        // changing any of them breaks resume byte-identity.
        assert_eq!(
            TrialFailure::EnvironmentFailure.to_string(),
            "environment failure"
        );
        assert_eq!(TrialFailure::Diverged.to_string(), "training diverged");
        assert_eq!(
            TrialFailure::InvalidArchitecture("why".into()).to_string(),
            "invalid architecture: why"
        );
        assert_eq!(TrialFailure::Cancelled.to_string(), "cancelled");
        assert!(TrialFailure::Timeout { limit_s: 1.5 }
            .to_string()
            .starts_with("trial timeout"));
        assert!(TrialFailure::Panicked("boom".into())
            .to_string()
            .starts_with("panicked: boom"));
    }

    #[test]
    fn every_failure_status_round_trips_through_the_cause_taxonomy() {
        for failure in [
            TrialFailure::InvalidArchitecture("x".into()),
            TrialFailure::EnvironmentFailure,
            TrialFailure::Diverged,
            TrialFailure::Timeout { limit_s: 2.0 },
            TrialFailure::Cancelled,
            TrialFailure::Panicked("p".into()),
        ] {
            assert_eq!(
                FailureCause::from_status(&failure.to_string()),
                Some(failure.cause()),
                "{failure}"
            );
        }
        assert_eq!(FailureCause::from_status("not a failure string"), None);
    }

    #[test]
    fn only_environment_and_panic_failures_are_transient() {
        let transient = |f: TrialFailure| f.cause() == FailureCause::Transient;
        assert!(transient(TrialFailure::EnvironmentFailure));
        assert!(transient(TrialFailure::Panicked("p".into())));
        assert!(!transient(TrialFailure::Diverged));
        assert!(!transient(TrialFailure::Cancelled));
        assert!(!transient(TrialFailure::Timeout { limit_s: 1.0 }));
    }

    #[test]
    fn cancelled_real_trainer_reports_cancelled_not_a_result() {
        let trainer = RealTrainer::miniature();
        trainer.cancel.cancel();
        let arch = ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 8,
            num_classes: 2,
        };
        let err = trainer.evaluate(&spec(arch, 8), 11).unwrap_err();
        assert!(matches!(err, TrialFailure::Cancelled), "{err}");
    }
}
