//! Requests of different H×W never share a batch.
//!
//! The plan accepts any H×W (global average pooling), so the engine
//! admits a `[5,16,16]` and a `[5,24,24]` request alike. Stacked into
//! one batch they would panic the worker inside `Tensor::stack`: both
//! clients would get `Closed`, and every later request would wait
//! forever. The batcher drains only the head request's run of
//! equal-dims requests and leaves the rest queued for the next drain.
//!
//! The assertions run in arrival order, so a batcher that mixes shapes
//! fails on the first answer instead of hanging on the third.

use hydronas_infer::{Engine, EngineConfig, ExecutionPlan};
use hydronas_nn::ResNet;
use hydronas_tensor::{uniform, Tensor, TensorRng};
use std::sync::Arc;
use std::time::Duration;

fn tiny_plan() -> Arc<ExecutionPlan> {
    let mut arch = hydronas_graph::ArchConfig::baseline(5);
    arch.initial_features = 4;
    let mut rng = TensorRng::seed_from_u64(7);
    let model = ResNet::new(&arch, &mut rng);
    Arc::new(ExecutionPlan::builder(&model).build().unwrap())
}

fn input(hw: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from_u64(seed);
    uniform(&[5, hw, hw], -1.0, 1.0, &mut rng)
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Advances the manual clock one tick at a time until `cond` holds (a
/// single advance could land before the worker opens its next window).
fn advance_until(engine: &Engine, what: &str, cond: impl Fn() -> bool) {
    for _ in 0..20_000 {
        if cond() {
            return;
        }
        engine.advance_ticks(1);
        std::thread::sleep(Duration::from_micros(200));
    }
    panic!("manual clock advanced 20000 ticks without: {what}");
}

#[test]
fn mixed_hw_requests_are_served_in_separate_batches() {
    let plan = tiny_plan();
    // One worker, room for two, and a window only the test's clock can
    // close: the two requests below are both queued when the worker
    // drains.
    let engine = Engine::start(
        Arc::clone(&plan),
        EngineConfig {
            workers: 1,
            max_batch: 2,
            max_wait_ticks: 64,
            manual_clock: true,
            ..EngineConfig::default()
        },
    );
    let small = input(16, 1);
    let large = input(24, 2);
    let first = engine.submit(small.clone()).unwrap();
    let second = engine.submit(large.clone()).unwrap();

    // The full queue closes the window at once; only the head's
    // shape drains.
    let p = first.wait().expect("the 16x16 request is served");
    assert_eq!(p.batch_size, 1, "the 24x24 request must not join");
    assert_eq!(bits(&p.logits), bits(&plan.run_single(&small)));

    // The leftover drains when its own window lapses.
    advance_until(&engine, "the 24x24 request drained", || {
        engine.stats().drained == 2
    });
    let p = second.wait().expect("the 24x24 request is served");
    assert_eq!(p.batch_size, 1);
    assert_eq!(bits(&p.logits), bits(&plan.run_single(&large)));

    // The worker is still alive.
    let third = input(16, 3);
    let handle = engine.submit(third.clone()).unwrap();
    advance_until(&engine, "the third request drained", || {
        engine.stats().drained == 3
    });
    let p = handle.wait().expect("the engine still serves");
    assert_eq!(bits(&p.logits), bits(&plan.run_single(&third)));

    let stats = engine.stats();
    assert_eq!((stats.drained, stats.completed, stats.batches), (3, 3, 3));
}
