//! Public-API snapshot of the `hydronas` facade.
//!
//! Every item the prelude promises is referenced here by path, so
//! renaming or dropping an export is a compile error in this test long
//! before any downstream user hits it. The `EXPECTED` list doubles as a
//! reviewable, sorted snapshot: adding an export means adding a line,
//! and the test fails if the list loses its order or gains duplicates.

#![allow(unused_imports)]

use hydronas::prelude;

/// Compile-time presence check: each alias fails to build if the export
/// moves or changes kind (type vs function vs trait).
#[allow(dead_code)]
mod types {
    use hydronas::prelude;

    pub type A01 = prelude::ArchConfig;
    pub type A02 = prelude::CalibrationMethod;
    pub type A03 = prelude::CancelToken;
    pub type A04 = prelude::ChannelMode;
    pub type A05 = prelude::ChaosConfig;
    pub type A06 = prelude::ChaosFault;
    pub type A07 = prelude::CollectingSink;
    pub type A08 = prelude::Dataset;
    pub type A09 = prelude::DegradationReport;
    pub type A10 = prelude::DeviceId;
    pub type A11 = prelude::DrainStats;
    pub type A12 = prelude::EnergyPrediction;
    pub type A13 = prelude::Engine;
    pub type A14 = prelude::EngineConfig;
    pub type A16 = prelude::EngineStats;
    pub type A17 = prelude::EvolutionConfig;
    pub type A18 = prelude::ExecutionPlan;
    pub type A19 = prelude::ExperimentDb;
    pub type A20 = prelude::FailureCause;
    pub type A21 = prelude::Gauge;
    pub type A22 = prelude::GraphError;
    pub type A23 = prelude::HydroNasError;
    pub type A24 = prelude::InferError;
    pub type A25 = prelude::InferRequest;
    pub type A26 = prelude::InputCombo;
    pub type A27 = prelude::LatencyPrediction;
    pub type A28 = prelude::LayerCost;
    pub type A29 = prelude::LayerProfile;
    pub type A31 = prelude::MetricsError;
    pub type A32 = prelude::MetricsSnapshot;
    pub type A33 = prelude::ModelGraph;
    pub type A34 = prelude::ModelImportError;
    pub type A35 = prelude::Nsga2Config;
    pub type A36 = prelude::Numerics;
    pub type A37 = prelude::Objective;
    pub type A38 = prelude::OnnxError;
    pub type A39 = prelude::PlanBuilder<'static>;
    pub type A41 = prelude::Point;
    pub type A42 = prelude::PoolConfig;
    pub type A44 = prelude::Prediction;
    pub type A45 = prelude::PredictionHandle;
    pub type A46 = prelude::QuantileHistogram;
    pub type A47 = prelude::QuantizationScheme;
    pub type A48 = prelude::RealTrainer;
    pub type A49 = prelude::ReproArtifacts;
    pub type A51 = prelude::ResNet;
    pub type A55 = prelude::SchedulerConfig;
    pub type A56 = prelude::SearchSpace;
    pub type A57 = prelude::Session;
    pub type A58 = prelude::ShedPolicy;
    pub type A59 = prelude::StderrTicker;
    pub type A60 = prelude::SurrogateEvaluator;
    pub type A61 = prelude::Sweep;
    pub type A63 = prelude::SweepError;
    pub type A64 = prelude::SweepEvent<'static>;
    pub type A65 = prelude::SweepReport;
    pub type A66 = prelude::SweepStats;
    pub type A67 = prelude::Tensor;
    pub type A68 = prelude::TensorRng;
    pub type A69 = prelude::TileSet;
    pub type A70 = prelude::TrainConfig;
    pub type A71 = prelude::TrialFailure;
    pub type A72 = prelude::TrialOutcome;
    pub type A73 = prelude::TrialSpec;

    pub trait UsesTraits: prelude::Evaluator + prelude::ProgressSink {}
}

/// Compile-time presence check for free functions: binding each by path
/// fails to build the moment an export is renamed or dropped.
#[test]
fn prelude_functions_exist() {
    let _ = prelude::build_dataset;
    let _ = prelude::build_paper_dataset;
    let _ = prelude::compute_threads;
    let _ = prelude::kernel_probe;
    let _ = prelude::kfold_cross_validate;
    let _ = prelude::makespan_lpt;
    let _ = prelude::markdown_report;
    let _ = prelude::metrics_json;
    let _ = prelude::pareto_front;
    let _ = prelude::predict_all;
    let _ = prelude::predict_energy;
    let _ = prelude::random_search;
    let _ = prelude::read_journal;
    let _ = prelude::regularized_evolution;
    let _ = prelude::reproduce;
    let _ = prelude::serialized_size_bytes;
    let _ = prelude::session;
    let _ = prelude::set_compute_threads;
    let _ = prelude::study_regions;
    let _ = prelude::train;
    let _ = prelude::validate_table2;
}

/// The reviewable snapshot: sorted, duplicate-free names of the types
/// pinned above. Changing the public surface means editing this list in
/// the same commit — which is exactly the review hook we want.
#[test]
fn type_snapshot_is_sorted_and_duplicate_free() {
    const EXPECTED: &[&str] = &[
        "ArchConfig",
        "CalibrationMethod",
        "CancelToken",
        "ChannelMode",
        "ChaosConfig",
        "ChaosFault",
        "CollectingSink",
        "Dataset",
        "DegradationReport",
        "DeviceId",
        "DrainStats",
        "EnergyPrediction",
        "Engine",
        "EngineConfig",
        "EngineStats",
        "EvolutionConfig",
        "ExecutionPlan",
        "ExperimentDb",
        "FailureCause",
        "Gauge",
        "GraphError",
        "HydroNasError",
        "InferError",
        "InferRequest",
        "InputCombo",
        "LatencyPrediction",
        "LayerCost",
        "LayerProfile",
        "MetricsError",
        "MetricsSnapshot",
        "ModelGraph",
        "ModelImportError",
        "Nsga2Config",
        "Numerics",
        "Objective",
        "OnnxError",
        "PlanBuilder",
        "Point",
        "PoolConfig",
        "Prediction",
        "PredictionHandle",
        "QuantileHistogram",
        "QuantizationScheme",
        "RealTrainer",
        "ReproArtifacts",
        "ResNet",
        "SchedulerConfig",
        "SearchSpace",
        "Session",
        "ShedPolicy",
        "StderrTicker",
        "SurrogateEvaluator",
        "Sweep",
        "SweepError",
        "SweepEvent",
        "SweepReport",
        "SweepStats",
        "Tensor",
        "TensorRng",
        "TileSet",
        "TrainConfig",
        "TrialFailure",
        "TrialOutcome",
        "TrialSpec",
    ];
    for pair in EXPECTED.windows(2) {
        assert!(
            pair[0] < pair[1],
            "snapshot must stay sorted and duplicate-free: {} >= {}",
            pair[0],
            pair[1]
        );
    }
    // One aliased type per snapshot row (plus the two traits pinned in
    // `types::UsesTraits`).
    assert_eq!(EXPECTED.len(), 64);
}

/// The error taxonomy stays typed: the facade error wraps each
/// subsystem's error and every conversion compiles.
#[test]
fn hydronas_error_wraps_every_subsystem() {
    use hydronas::HydroNasError;
    let from_onnx: HydroNasError = prelude::OnnxError::BadMagic.into();
    let from_io: HydroNasError = std::io::Error::other("disk on fire").into();
    for err in [from_onnx, from_io] {
        assert!(std::error::Error::source(&err).is_some(), "{err}");
    }
}
