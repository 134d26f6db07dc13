//! Regression tests for [`EngineConfig::validate`]: the degenerate
//! configurations `Engine::start` would otherwise hit as a hang or a
//! divide by zero in the wall clock come back as typed
//! [`InferError::InvalidConfig`] values, `Engine::start` refuses them,
//! and a valid struct literal serves.

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
fn validate_rejects_every_degenerate_knob_with_a_typed_error() {
    let base = EngineConfig::default();
    for (field, config) in [
        ("workers", EngineConfig { workers: 0, ..base }),
        (
            "max_batch",
            EngineConfig {
                max_batch: 0,
                ..base
            },
        ),
        (
            "queue_capacity",
            EngineConfig {
                queue_capacity: 0,
                ..base
            },
        ),
        ("tick_us", EngineConfig { tick_us: 0, ..base }),
    ] {
        match config.validate() {
            Err(InferError::InvalidConfig { field: got }) => {
                assert_eq!(got, field, "wrong field named");
            }
            other => panic!("{field} = 0 must be rejected, got {other:?}"),
        }
    }
    // The error is a std::error::Error with a useful message.
    let err = EngineConfig { tick_us: 0, ..base }.validate().unwrap_err();
    assert!(err.to_string().contains("tick_us"), "{err}");
}

#[test]
fn valid_configs_pass_validation_and_the_engine_serves_them() {
    let config = EngineConfig {
        workers: 1,
        max_batch: 2,
        max_wait_ticks: 0, // zero window is valid: drain immediately
        tick_us: 50,
        queue_capacity: 16,
        shed_policy: ShedPolicy::DropOldest,
        manual_clock: false,
    };
    assert_eq!(config.validate(), Ok(()));
    let engine = Engine::start(tiny_plan(), config);
    let mut rng = TensorRng::seed_from_u64(1);
    let x = uniform(&[5, 16, 16], -1.0, 1.0, &mut rng);
    let p = engine.infer(x).unwrap();
    assert_eq!(p.logits.len(), 2);
}

#[test]
fn struct_literal_configs_still_work_for_valid_values() {
    // A partial literal over the defaults is the everyday construction
    // path.
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

#[test]
#[should_panic(expected = "invalid engine config: max_batch must be positive")]
fn engine_start_refuses_a_degenerate_literal() {
    let _ = Engine::start(
        tiny_plan(),
        EngineConfig {
            max_batch: 0,
            ..EngineConfig::default()
        },
    );
}
