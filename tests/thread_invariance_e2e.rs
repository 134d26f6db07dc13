//! End-to-end thread-count invariance: the deterministic compute pool
//! (`hydronas_tensor::parallel`) must not change a single bit of any
//! pipeline artifact. Training losses, served logits, the deterministic
//! metric sections, the sweep journal's records and database, a sweep of
//! trained trials, and the synthesized dataset are captured at 1, 2, and
//! 8 compute threads and compared byte-for-byte.
//!
//! The compute-thread count is process-global, so every test takes
//! [`config_lock`] before touching it and restores the single-thread
//! default on exit. Telemetry sessions are process-exclusive and the
//! lock also keeps them from overlapping.

use hydronas::prelude::*;
use hydronas_nas::space::{full_grid, SearchSpace};
use hydronas_nas::EvalOutcome;
use std::sync::{Arc, Mutex, OnceLock};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn config_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` once per thread count and asserts every capture matches the
/// single-thread reference.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let mut reference = None;
    for threads in THREAD_COUNTS {
        set_compute_threads(threads);
        let got = f();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(want, &got, "{what} diverged at {threads} threads"),
        }
    }
    set_compute_threads(1);
}

fn tiny_arch() -> ArchConfig {
    let mut arch = ArchConfig::baseline(5);
    arch.initial_features = 4;
    arch
}

fn tiny_dataset(seed: u64) -> Dataset {
    let set = build_dataset(&study_regions()[..1], ChannelMode::Five, 8, 0.002, seed);
    Dataset::new(set.features, set.labels)
}

#[test]
fn training_losses_and_report_are_thread_count_invariant() {
    let _guard = config_lock();
    let train_set = tiny_dataset(9);
    let val_set = tiny_dataset(10);
    let config = TrainConfig {
        epochs: 2,
        batch_size: 4,
        ..TrainConfig::default()
    };
    assert_thread_invariant("training fingerprint", || {
        let out = train(
            &tiny_arch(),
            &train_set,
            &val_set,
            &config,
            &CancelToken::new(),
        );
        assert!(!out.diverged, "training must stay finite");
        (bits(&out.epoch_losses), format!("{:?}", out.report))
    });
}

#[test]
fn served_logits_and_metric_sections_are_thread_count_invariant() {
    let _guard = config_lock();
    let plan = {
        let mut rng = TensorRng::seed_from_u64(7);
        Arc::new(
            ExecutionPlan::builder(&ResNet::new(&tiny_arch(), &mut rng))
                .build()
                .unwrap(),
        )
    };
    let inputs: Vec<Tensor> = (0..6)
        .map(|i| {
            let mut rng = TensorRng::seed_from_u64(100 + i);
            hydronas_tensor::uniform(&[5, 16, 16], -1.0, 1.0, &mut rng)
        })
        .collect();
    assert_thread_invariant("served logits + metric sections", || {
        let session = session();
        let logits: Vec<Vec<u32>> = {
            let engine = Engine::start(
                plan.clone(),
                EngineConfig {
                    workers: 2,
                    max_batch: 4,
                    tick_us: 50,
                    ..EngineConfig::default()
                },
            );
            inputs
                .iter()
                .map(|x| bits(&engine.infer(x.clone()).unwrap().logits))
                .collect()
        }; // drop joins engine workers before the metrics snapshot
        let m = session.metrics();
        // Arena counters are per-thread cache statistics and pool
        // counters/histograms are scheduling statistics; both scale
        // with thread count by design. Everything else is part of the
        // determinism contract.
        let counters: std::collections::BTreeMap<String, u64> = m
            .counters
            .iter()
            .filter(|(k, _)| !k.contains(".arena.") && !k.contains(".pool."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let histogram_keys: Vec<String> = m
            .histograms
            .keys()
            .filter(|k| !k.contains(".pool."))
            .cloned()
            .collect();
        (
            logits,
            serde_json::to_string(&counters).unwrap(),
            serde_json::to_string(&m.gauges).unwrap(),
            histogram_keys,
        )
    });
}

#[test]
fn sweep_journal_is_thread_count_invariant() {
    let _guard = config_lock();
    let trials: Vec<TrialSpec> = full_grid(&SearchSpace::paper())
        .into_iter()
        .filter(|t| t.combo.channels == 5 && t.combo.batch_size == 16)
        .take(24)
        .collect();
    let dir = std::env::temp_dir().join(format!("hydronas-ti-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    assert_thread_invariant("sweep journal records", || {
        let path = dir.join(format!("journal-{}.jsonl", compute_threads()));
        let _ = std::fs::remove_file(&path); // a leftover journal would replay
        let sweep = Sweep::builder()
            .with_trials(trials.clone())
            .with_evaluator(SurrogateEvaluator::default())
            .with_journal(&path);
        let report = sweep.run().expect("sweep runs");
        assert_eq!(report.db.outcomes.len(), trials.len());
        // The journal is written in completion order, which varies with
        // scheduling whenever trials run in parallel; resume reads it as
        // a set. So each record must be byte-identical, in any order.
        let mut records: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        records.sort_unstable();
        // Resuming from this journal replays every trial and returns the
        // same database bytes.
        let resumed = sweep.run().expect("resume runs");
        assert_eq!(resumed.stats.replayed, trials.len());
        assert_eq!(resumed.db.to_json(), report.db.to_json());
        (records, report.db.to_json())
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trains the tiny model for one to three epochs by trial id, so the
/// trials of a sweep end at different times: at 2 and 8 threads the
/// threads that run out of trials share the kernels of those still
/// training.
struct TinyTrainer {
    train_set: Dataset,
    val_set: Dataset,
}

impl Evaluator for TinyTrainer {
    fn evaluate(&self, spec: &TrialSpec, seed: u64) -> Result<EvalOutcome, TrialFailure> {
        let config = TrainConfig {
            epochs: 1 + spec.id % 3,
            batch_size: 4,
            seed,
            ..TrainConfig::default()
        };
        let out = train(
            &tiny_arch(),
            &self.train_set,
            &self.val_set,
            &config,
            &CancelToken::new(),
        );
        let losses: Vec<f64> = out.epoch_losses.iter().map(|&l| f64::from(l)).collect();
        Ok(EvalOutcome {
            mean_accuracy: losses.iter().sum(),
            fold_accuracies: losses,
            train_seconds: 0.0,
        })
    }

    fn folds(&self) -> usize {
        1
    }
}

#[test]
fn sweep_of_trained_trials_is_thread_count_invariant() {
    let _guard = config_lock();
    let trials: Vec<TrialSpec> = full_grid(&SearchSpace::paper())
        .into_iter()
        .filter(|t| t.combo.channels == 5)
        .take(5)
        .collect();
    assert_thread_invariant("trained sweep database", || {
        let report = Sweep::builder()
            .with_trials(trials.clone())
            .with_injected_failures(0)
            .with_evaluator(TinyTrainer {
                train_set: tiny_dataset(9),
                val_set: tiny_dataset(10),
            })
            .run()
            .expect("sweep runs");
        assert_eq!(report.db.valid().len(), trials.len());
        report.db.to_json()
    });
}

#[test]
fn dataset_is_thread_count_invariant() {
    let _guard = config_lock();
    assert_thread_invariant("dataset features, labels and regions", || {
        let set = build_dataset(&study_regions(), ChannelMode::Seven, 16, 0.01, 11);
        (bits(set.features.as_slice()), set.labels, set.region_of)
    });
}
