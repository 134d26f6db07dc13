//! The offline classification phase: whole batches of seeded tiles
//! through `ExecutionPlan::run_batch`, bypassing the engine. fp32 and
//! int8 batches alternate, so both plans see the same host conditions.

use hydrobench::trace::Tracer;
use hydronas_infer::ExecutionPlan;
use hydronas_tensor::Tensor;
use std::time::Instant;

/// One plan's pass over the tile batches.
#[derive(Default)]
pub struct PlanPass {
    pub batch_ms: Vec<f64>,
    pub logits: Vec<f32>,
}

impl PlanPass {
    /// Share of tiles whose argmax matches the label.
    pub fn accuracy(&self, labels: &[usize]) -> f64 {
        let classes = self.logits.len() / labels.len();
        let correct = self
            .logits
            .chunks_exact(classes)
            .zip(labels)
            .filter(|(row, &label)| {
                let best = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(k, _)| k);
                best == Some(label)
            })
            .count();
        correct as f64 / labels.len() as f64
    }
}

fn timed_batch(
    plan: &ExecutionPlan,
    x: &Tensor,
    pass: &mut PlanPass,
    tracer: &Tracer,
    name: &'static str,
) {
    let start = Instant::now();
    let out = plan.run_batch(x);
    let end = Instant::now();
    tracer.record(name, start, end, None, None);
    pass.batch_ms.push((end - start).as_secs_f64() * 1e3);
    pass.logits.extend_from_slice(out.as_slice());
}

/// Classifies every batch once with each plan, alternating, appending
/// to both passes.
pub fn classify(
    fp32: &ExecutionPlan,
    int8: &ExecutionPlan,
    batches: &[Tensor],
    tracer: &Tracer,
    f: &mut PlanPass,
    q: &mut PlanPass,
) {
    for x in batches {
        timed_batch(fp32, x, f, tracer, "plan.run_batch.fp32");
        timed_batch(int8, x, q, tracer, "plan.run_batch.int8");
    }
}
