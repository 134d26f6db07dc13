//! # HydroNAS
//!
//! A from-scratch Rust reproduction of *"Pareto Optimization of CNN Models
//! via Hardware-Aware Neural Architecture Search for Drainage Crossing
//! Classification on Resource-Limited Devices"* (SC-W 2023).
//!
//! This crate is the facade: it re-exports every subsystem and adds the
//! end-to-end [`pipeline`], plus renderers for each table and figure of
//! the paper ([`tables`], [`figures`]).
//!
//! ## Subsystems
//!
//! | crate | replaces |
//! |---|---|
//! | [`tensor`](hydronas_tensor) | PyTorch tensor runtime (CPU, deterministic thread pool) |
//! | [`nn`](hydronas_nn) | torch.nn / torch.optim (manual backprop) |
//! | [`geodata`](hydronas_geodata) | HRDEM + NAIP datasets (procedural) |
//! | [`graph`](hydronas_graph) | ONNX export + model analysis |
//! | [`latency`](hydronas_latency) | nn-Meter v2.0 (4 device predictors) |
//! | [`nas`](hydronas_nas) | NNI Retiarii (grid/random/evolution) |
//! | [`pareto`](hydronas_pareto) | Pareto-front analysis notebook |
//! | [`infer`](hydronas_infer) | deployment serving (plan compile + batching engine) |
//!
//! ## Quickstart
//!
//! ```
//! use hydronas::prelude::*;
//!
//! // One point of the search space...
//! let arch = ArchConfig {
//!     in_channels: 5,
//!     kernel_size: 3,
//!     stride: 2,
//!     padding: 1,
//!     pool: None,
//!     initial_features: 32,
//!     num_classes: 2,
//! };
//! // ...gets a graph, a latency prediction and a memory footprint.
//! let graph = ModelGraph::from_arch(&arch, 32).unwrap();
//! let latency = predict_all(&graph);
//! let memory_mb = serialized_size_bytes(&graph) as f64 / 1e6;
//! assert!(latency.mean_ms > 0.0 && memory_mb > 11.0);
//! ```
//!
//! ## Running a sweep
//!
//! The sweep engine is one type, [`Sweep`](hydronas_nas::Sweep):
//! [`Sweep::builder`](hydronas_nas::Sweep::builder) holds the paper's
//! defaults; trials, evaluator, journaling, cancellation, deadlines and
//! chaos injection are all `with_*` options; and the report carries a
//! structured [`DegradationReport`](hydronas_nas::DegradationReport)
//! when the run was cut short. Every trial gets at most three attempts,
//! and [`ChaosConfig`](hydronas_nas::ChaosConfig) is the one way to
//! inject recoverable faults.
//!
//! ```no_run
//! use hydronas::prelude::*;
//!
//! let trials = hydronas_nas::space::full_grid(&SearchSpace::paper());
//! let cancel = CancelToken::new(); // hand a clone to a Ctrl-C handler
//! let report = Sweep::builder()
//!     .with_trials(trials)
//!     .with_journal("sweep.journal.jsonl")
//!     .with_max_wall_s(6.0 * 3600.0)
//!     .with_cancel(cancel.clone())
//!     .run()
//!     .expect("journal I/O");
//! if report.degradation.is_degraded() {
//!     eprintln!("{}", report.degradation.summary());
//! }
//! ```
//!
//! To reproduce the paper, hand a `Sweep` to [`reproduce`]: it sets the
//! paper's 1,728-trial grid as the trial list, runs the sweep, and
//! renders every table and figure (see the [`prelude`] example).

pub mod error;
pub mod figures;
pub mod pipeline;
pub mod report;
pub mod tables;

pub use error::HydroNasError;
pub use pipeline::{kernel_probe, metrics_json, reproduce, ReproArtifacts};
pub use report::markdown_report;

/// One-stop imports for examples and downstream users.
///
/// The working set for an end-to-end run is one import away:
///
/// ```no_run
/// use hydronas::prelude::*;
///
/// let _session = session(); // telemetry: spans, counters, Chrome trace
/// let sweep = Sweep::builder().with_journal("repro.journal.jsonl");
/// let artifacts = reproduce(sweep, None).expect("journal I/O");
/// println!("{}", artifacts.sweep_summary());
/// ```
pub mod prelude {
    pub use crate::error::HydroNasError;
    pub use crate::figures::{figure1, figure2, figure3_csv, figure3_html, figure4_csv};
    pub use crate::pipeline::{kernel_probe, metrics_json, reproduce, ReproArtifacts};
    pub use crate::report::markdown_report;
    pub use crate::tables::{table1, table2, table3, table4, table5};
    pub use hydronas_geodata::{
        build_dataset, build_paper_dataset, study_regions, ChannelMode, TileSet,
    };
    pub use hydronas_graph::{
        architecture_summary, model_cost, quantized_size_bytes, serialized_size_bytes, ArchConfig,
        CalibrationMethod, GraphError, ModelGraph, OnnxError, PoolConfig, BASELINE_RESNET18,
    };
    pub use hydronas_infer::{
        DrainStats, Engine, EngineConfig, EngineStats, ExecutionPlan, InferError, InferRequest,
        LayerCost, LayerProfile, Numerics, PlanBuilder, Prediction, PredictionHandle,
        QuantizationScheme, ShedPolicy,
    };
    pub use hydronas_latency::{
        predict_all, predict_all_quantized, predict_energy, validate_table2, DeviceId,
        EnergyPrediction, LatencyPrediction,
    };
    pub use hydronas_nas::{
        makespan_lpt, nsga2, random_search, read_journal, regularized_evolution, CancelToken,
        ChaosConfig, ChaosFault, CollectingSink, DegradationReport, Evaluator, EvolutionConfig,
        ExperimentDb, FailureCause, InputCombo, MetricsError, Nsga2Config, ProgressSink,
        RealTrainer, SchedulerConfig, SearchSpace, StderrTicker, SurrogateEvaluator, Sweep,
        SweepError, SweepEvent, SweepReport, SweepStats, TrialFailure, TrialOutcome, TrialSpec,
    };
    pub use hydronas_nn::{
        kfold_cross_validate, train, Dataset, ModelImportError, ResNet, TrainConfig,
    };
    pub use hydronas_pareto::{pareto_front, Objective, Point};
    pub use hydronas_telemetry::{session, Gauge, MetricsSnapshot, QuantileHistogram, Session};
    pub use hydronas_tensor::{compute_threads, set_compute_threads, Tensor, TensorRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_wires_the_whole_stack() {
        // Compile-and-run check across the facade: dataset -> model ->
        // latency -> memory -> pareto.
        let set = build_dataset(&study_regions()[..1], ChannelMode::Five, 8, 0.002, 0);
        assert!(!set.labels.is_empty());
        let graph = ModelGraph::from_arch(&BASELINE_RESNET18, 32).unwrap();
        let pred = predict_all(&graph);
        let points = vec![
            Point::new(0, vec![90.0, pred.mean_ms, 44.7]),
            Point::new(1, vec![95.0, pred.mean_ms / 3.0, 11.2]),
        ];
        let front = pareto_front(
            &points,
            &[
                Objective::Maximize,
                Objective::Minimize,
                Objective::Minimize,
            ],
        );
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, 1);
    }
}
