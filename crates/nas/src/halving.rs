//! Successive halving: multi-fidelity architecture search.
//!
//! The paper spends 5 folds x 5 epochs on *every* grid point; successive
//! halving (Jamieson & Talwalkar 2016) spends that budget adaptively —
//! evaluate many candidates cheaply (few folds), keep the best fraction,
//! re-evaluate the survivors at higher fidelity. On this study's
//! protocol the natural fidelity axis is the number of cross-validation
//! folds, so total cost is measured in fold-evaluations.

use crate::space::{InputCombo, SearchSpace, TrialSpec};
use crate::surrogate::surrogate_fold_accuracies;
use hydronas_graph::ModelGraph;
use hydronas_tensor::TensorRng;
use serde::{Deserialize, Serialize};

/// Successive-halving parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HalvingConfig {
    /// Initial candidate count (rung 0).
    pub initial_candidates: usize,
    /// Survivor fraction denominator (classic eta = 2 or 3).
    pub eta: usize,
    /// Folds evaluated at rung 0; doubles per rung up to `max_folds`.
    pub min_folds: usize,
    /// Full-fidelity fold count (the paper's 5).
    pub max_folds: usize,
}

impl Default for HalvingConfig {
    fn default() -> HalvingConfig {
        HalvingConfig {
            initial_candidates: 64,
            eta: 2,
            min_folds: 1,
            max_folds: 5,
        }
    }
}

/// One rung's record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Rung {
    pub folds: usize,
    /// `(spec, mean accuracy at this fidelity)` of every candidate
    /// evaluated at this rung.
    pub evaluated: Vec<(TrialSpec, f64)>,
}

/// Search outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HalvingResult {
    pub rungs: Vec<Rung>,
    /// The surviving best candidate at full fidelity.
    pub best: (TrialSpec, f64),
    /// Total fold-evaluations spent (the budget unit).
    pub fold_evaluations: usize,
}

/// Runs successive halving over random samples of the space using the
/// surrogate at variable fidelity. Deterministic per seed.
pub fn successive_halving(
    space: &SearchSpace,
    combo: InputCombo,
    config: &HalvingConfig,
    seed: u64,
) -> HalvingResult {
    assert!(config.eta >= 2, "eta must be at least 2");
    assert!(
        config.initial_candidates >= config.eta,
        "too few candidates"
    );
    assert!(config.min_folds >= 1 && config.min_folds <= config.max_folds);
    let mut rng = TensorRng::seed_from_u64(seed);

    // Rung-0 candidates.
    let mut candidates: Vec<TrialSpec> = Vec::with_capacity(config.initial_candidates);
    while candidates.len() < config.initial_candidates {
        let arch = space.sample(combo.channels, &mut rng);
        if ModelGraph::from_arch(&arch, 32).is_ok() {
            candidates.push(TrialSpec::from_arch(arch, combo, candidates.len()));
        }
    }

    let mut rungs = Vec::new();
    let mut fold_evaluations = 0usize;
    let mut folds = config.min_folds;
    loop {
        // Evaluate all current candidates at this fidelity. The fold
        // stream per candidate is fixed by its key, so higher rungs
        // *extend* earlier evaluations rather than redrawing them.
        let mut evaluated: Vec<(TrialSpec, f64)> = candidates
            .iter()
            .map(|spec| {
                let trial_seed = seed ^ crate::evaluator::key_hash(&spec.key());
                let accs =
                    surrogate_fold_accuracies(&spec.arch, spec.combo.batch_size, folds, trial_seed);
                fold_evaluations += folds;
                (spec.clone(), accs.iter().sum::<f64>() / folds as f64)
            })
            .collect();
        evaluated.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        rungs.push(Rung {
            folds,
            evaluated: evaluated.clone(),
        });

        if folds >= config.max_folds || evaluated.len() <= config.eta {
            let best = evaluated.into_iter().next().expect("non-empty rung");
            return HalvingResult {
                rungs,
                best,
                fold_evaluations,
            };
        }
        // Keep the top 1/eta, raise fidelity.
        let survivors = (evaluated.len() / config.eta).max(1);
        candidates = evaluated
            .into_iter()
            .take(survivors)
            .map(|(s, _)| s)
            .collect();
        folds = (folds * 2).min(config.max_folds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::{arch_delta, baseline_anchor};

    const COMBO: InputCombo = InputCombo {
        channels: 7,
        batch_size: 16,
    };

    fn run(seed: u64) -> HalvingResult {
        successive_halving(
            &SearchSpace::paper(),
            COMBO,
            &HalvingConfig::default(),
            seed,
        )
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(1);
        let b = run(1);
        assert_eq!(a.best.0.arch, b.best.0.arch);
        assert_eq!(a.fold_evaluations, b.fold_evaluations);
    }

    #[test]
    fn rung_structure_halves_and_doubles() {
        let r = run(2);
        assert!(r.rungs.len() >= 2);
        for pair in r.rungs.windows(2) {
            assert!(pair[1].evaluated.len() <= pair[0].evaluated.len() / 2 + 1);
            assert!(pair[1].folds >= pair[0].folds);
        }
        // Final rung reaches full fidelity.
        assert_eq!(r.rungs.last().unwrap().folds, 5);
    }

    #[test]
    fn halving_is_cheaper_than_full_fidelity_everywhere() {
        let r = run(3);
        let full_cost = 64 * 5; // every candidate at 5 folds
        assert!(
            r.fold_evaluations < full_cost,
            "halving spent {} >= {full_cost}",
            r.fold_evaluations
        );
    }

    #[test]
    fn winner_is_a_strong_configuration() {
        // The halving winner's *deterministic* quality (anchor + delta)
        // should be close to the global optimum (within a point).
        let r = run(4);
        let winner_quality = baseline_anchor(7, 16) + arch_delta(&r.best.0.arch);
        let optimum = baseline_anchor(7, 16) + 1.1; // k3 p1 ds2 f32
        assert!(
            winner_quality > optimum - 1.0,
            "winner {winner_quality} vs optimum {optimum}"
        );
    }

    #[test]
    fn survivors_are_the_rung_leaders() {
        let r = run(5);
        for pair in r.rungs.windows(2) {
            let survivor_keys: Vec<String> =
                pair[1].evaluated.iter().map(|(s, _)| s.key()).collect();
            let leaders: Vec<String> = pair[0]
                .evaluated
                .iter()
                .take(survivor_keys.len())
                .map(|(s, _)| s.key())
                .collect();
            for key in &survivor_keys {
                assert!(leaders.contains(key), "{key} was not a rung leader");
            }
        }
    }

    #[test]
    #[should_panic(expected = "eta must be at least 2")]
    fn eta_one_rejected() {
        let config = HalvingConfig {
            eta: 1,
            ..Default::default()
        };
        let _ = successive_halving(&SearchSpace::paper(), COMBO, &config, 0);
    }
}
