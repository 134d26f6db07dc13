//! Regression tests for the validating [`EngineConfig::builder`]: the
//! degenerate configurations `Engine::start` would previously only catch
//! by panicking (or, for a zero tick, by dividing by zero in the wall
//! clock) must come back as typed [`InferError::InvalidConfig`] values —
//! and the plain struct-literal path must keep working for valid configs.

use hydronas_infer::{Engine, EngineConfig, ExecutionPlan, InferError, ShedPolicy};
use hydronas_nn::ResNet;
use hydronas_tensor::{uniform, TensorRng};
use std::sync::Arc;

fn tiny_plan() -> Arc<ExecutionPlan> {
    let mut arch = hydronas_graph::ArchConfig::baseline(5);
    arch.initial_features = 4;
    let mut rng = TensorRng::seed_from_u64(7);
    let model = ResNet::new(&arch, &mut rng);
    Arc::new(ExecutionPlan::builder(&model).build().unwrap())
}

#[test]
fn builder_rejects_every_degenerate_knob_with_a_typed_error() {
    for (field, builder) in [
        ("workers", EngineConfig::builder().workers(0)),
        ("max_batch", EngineConfig::builder().max_batch(0)),
        ("queue_capacity", EngineConfig::builder().queue_capacity(0)),
        ("tick_us", EngineConfig::builder().tick_us(0)),
    ] {
        match builder.build() {
            Err(InferError::InvalidConfig { field: got }) => {
                assert_eq!(got, field, "wrong field named");
            }
            other => panic!("{field} = 0 must be rejected, got {other:?}"),
        }
    }
    // The error is a std::error::Error with a useful message.
    let err = EngineConfig::builder().tick_us(0).build().unwrap_err();
    assert!(err.to_string().contains("tick_us"), "{err}");
}

#[test]
fn builder_accepts_valid_configs_and_the_engine_serves_them() {
    let config = EngineConfig::builder()
        .workers(1)
        .max_batch(2)
        .max_wait_ticks(0) // zero window is valid: drain immediately
        .tick_us(50)
        .queue_capacity(16)
        .shed_policy(ShedPolicy::DropOldest)
        .build()
        .expect("a fully-specified valid config");
    assert_eq!(config.workers, 1);
    assert_eq!(config.shed_policy, ShedPolicy::DropOldest);
    let engine = Engine::start(tiny_plan(), config);
    let mut rng = TensorRng::seed_from_u64(1);
    let x = uniform(&[5, 16, 16], -1.0, 1.0, &mut rng);
    let p = engine.infer(x).unwrap();
    assert_eq!(p.logits.len(), 2);
}

#[test]
fn struct_literal_configs_still_work_for_valid_values() {
    // The pre-builder construction path is not deprecated for valid
    // configs; existing callers must keep compiling and serving.
    let config = EngineConfig {
        workers: 1,
        max_batch: 1,
        max_wait_ticks: 0,
        tick_us: 50,
        ..EngineConfig::default()
    };
    let engine = Engine::start(tiny_plan(), config);
    let mut rng = TensorRng::seed_from_u64(2);
    let x = uniform(&[5, 16, 16], -1.0, 1.0, &mut rng);
    assert_eq!(engine.infer(x).unwrap().batch_size, 1);
}
