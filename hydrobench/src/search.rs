//! The search phase: a fixed slice of the paper grid trained for real,
//! then the full surrogate grid with latency prediction and the
//! 3-objective Pareto front, repeated in passes.

use hydrobench::trace::Tracer;
use hydronas_nas::space::{full_grid, SearchSpace, TrialSpec};
use hydronas_nas::{
    run_experiment, EvalOutcome, Evaluator, ExperimentDb, RealTrainer, SchedulerConfig,
    SurrogateEvaluator, TrialFailure,
};
use std::time::Instant;

/// The real-training slice, by trial key: both channel modes, stride 1
/// and 2, pool and no pool, at the batch size that trains fastest.
const REAL_SLICE: [&str; 6] = [
    "b32-c5k3s2p1-nopool-f32-pk3-ps2",
    "b32-c7k3s2p1-nopool-f32-pk3-ps2",
    "b32-c5k3s1p1-pool3x2-f32-pk3-ps2",
    "b32-c7k3s1p1-pool3x2-f32-pk3-ps2",
    "b32-c7k7s2p3-pool3x2-f32-pk3-ps2",
    "b32-c7k3s2p1-pool2x2-f32-pk2-ps2",
];

/// Valid outcomes of the full grid: 1,728 trials less the 11 injected
/// environment failures the paper lost.
pub const GRID_VALID: usize = 1717;

pub fn real_slice(grid: &[TrialSpec]) -> Vec<TrialSpec> {
    REAL_SLICE
        .iter()
        .map(|key| {
            grid.iter()
                .find(|t| t.key() == *key)
                .unwrap_or_else(|| panic!("trial {key} is not in the paper grid"))
                .clone()
        })
        .collect()
}

pub fn paper_grid() -> Vec<TrialSpec> {
    full_grid(&SearchSpace::paper())
}

/// Times every `evaluate` call of the wrapped evaluator as one span.
pub struct TimedEvaluator<'t, E> {
    pub inner: E,
    pub span: &'static str,
    pub tracer: &'t Tracer,
    pub parent: Option<usize>,
}

impl<E: Evaluator> Evaluator for TimedEvaluator<'_, E> {
    fn evaluate(&self, spec: &TrialSpec, seed: u64) -> Result<EvalOutcome, TrialFailure> {
        let start = Instant::now();
        let out = self.inner.evaluate(spec, seed);
        self.tracer.record(
            self.span,
            start,
            Instant::now(),
            self.parent,
            Some(spec.id as u64),
        );
        out
    }

    fn folds(&self) -> usize {
        self.inner.folds()
    }
}

/// One sweep from start to Pareto front.
pub struct SweepRun {
    pub db: ExperimentDb,
    pub front: Vec<usize>,
    pub wall_s: f64,
}

fn sweep(trials: &[TrialSpec], evaluator: &dyn Evaluator, config: &SchedulerConfig) -> SweepRun {
    let start = Instant::now();
    let db = run_experiment(trials, evaluator, config);
    let front = db.pareto_outcomes().iter().map(|o| o.spec.id).collect();
    SweepRun {
        db,
        front,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

pub fn real_sweep(slice: &[TrialSpec], seed: u64, tracer: &Tracer) -> SweepRun {
    let root = tracer.open("search.real", None);
    let evaluator = TimedEvaluator {
        inner: RealTrainer::miniature(),
        span: "nas.evaluate.real",
        tracer,
        parent: root,
    };
    // Every slice trial must train; injected failures belong to the
    // full-grid reproduction, not to this slice.
    let config = SchedulerConfig {
        seed,
        injected_failures: 0,
        ..SchedulerConfig::default()
    };
    let run = sweep(slice, &evaluator, &config);
    tracer.close(root);
    run
}

pub fn grid_sweep(grid: &[TrialSpec], seed: u64, tracer: &Tracer) -> SweepRun {
    let root = tracer.open("search.grid", None);
    let evaluator = TimedEvaluator {
        inner: SurrogateEvaluator::default(),
        span: "nas.evaluate.surrogate",
        tracer,
        parent: root,
    };
    let config = SchedulerConfig {
        seed,
        ..SchedulerConfig::default()
    };
    let run = sweep(grid, &evaluator, &config);
    tracer.close(root);
    run
}
