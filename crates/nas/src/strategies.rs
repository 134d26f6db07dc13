//! Search strategies beyond the paper's exhaustive grid.
//!
//! The paper (Section 5) flags the grid's cost and suggests search-space
//! streamlining as future work; these strategies quantify that headroom:
//! random search and regularized evolution (Real et al. 2019) both reach
//! near-front accuracy at a fraction of the trial budget (the ablation
//! bench compares them).

use crate::evaluator::Evaluator;
use crate::space::{InputCombo, SearchSpace, TrialSpec};
use hydronas_tensor::TensorRng;
use serde::{Deserialize, Serialize};

/// Outcome of a budgeted search.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchResult {
    /// Every evaluated (spec, mean accuracy) pair in evaluation order.
    pub history: Vec<(TrialSpec, f64)>,
    /// Index into `history` of the best trial.
    pub best: usize,
}

impl SearchResult {
    /// Wraps an evaluation history; the most accurate trial (the last on
    /// ties) is the best.
    fn from_history(history: Vec<(TrialSpec, f64)>) -> SearchResult {
        let best = history
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap();
        SearchResult { history, best }
    }

    pub fn best_accuracy(&self) -> f64 {
        self.history[self.best].1
    }

    pub fn best_spec(&self) -> &TrialSpec {
        &self.history[self.best].0
    }
}

/// Mean accuracy of `spec`, 0 when its evaluation fails.
fn accuracy(evaluator: &dyn Evaluator, spec: &TrialSpec, seed: u64) -> f64 {
    evaluator
        .evaluate(spec, seed)
        .map(|o| o.mean_accuracy)
        .unwrap_or(0.0)
}

/// Random search: `budget` uniform samples (with replacement).
pub fn random_search(
    space: &SearchSpace,
    combo: InputCombo,
    evaluator: &dyn Evaluator,
    budget: usize,
    seed: u64,
) -> SearchResult {
    assert!(budget > 0, "budget must be positive");
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut history = Vec::with_capacity(budget);
    for id in 0..budget {
        let spec = TrialSpec::from_arch(space.sample(combo.channels, &mut rng), combo, id);
        let acc = accuracy(evaluator, &spec, seed);
        history.push((spec, acc));
    }
    SearchResult::from_history(history)
}

/// Regularized-evolution parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EvolutionConfig {
    pub population: usize,
    pub sample_size: usize,
    pub budget: usize,
}

impl Default for EvolutionConfig {
    fn default() -> EvolutionConfig {
        EvolutionConfig {
            population: 16,
            sample_size: 4,
            budget: 64,
        }
    }
}

/// Regularized evolution (aging evolution): tournament parent selection,
/// single-dimension mutation, oldest member dies.
pub fn regularized_evolution(
    space: &SearchSpace,
    combo: InputCombo,
    evaluator: &dyn Evaluator,
    config: &EvolutionConfig,
    seed: u64,
) -> SearchResult {
    assert!(config.population >= 2, "population too small");
    assert!(config.sample_size >= 1 && config.sample_size <= config.population);
    assert!(
        config.budget >= config.population,
        "budget below population size"
    );
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut history: Vec<(TrialSpec, f64)> = Vec::with_capacity(config.budget);
    // Ring buffer of (history index) for the living population.
    let mut population: std::collections::VecDeque<usize> =
        std::collections::VecDeque::with_capacity(config.population);

    for id in 0..config.population {
        let spec = TrialSpec::from_arch(space.sample(combo.channels, &mut rng), combo, id);
        let acc = accuracy(evaluator, &spec, seed);
        history.push((spec, acc));
        population.push_back(id);
    }
    for id in config.population..config.budget {
        // Tournament: best of `sample_size` random living members.
        let mut best_idx = population[rng.index(population.len())];
        for _ in 1..config.sample_size {
            let candidate = population[rng.index(population.len())];
            if history[candidate].1 > history[best_idx].1 {
                best_idx = candidate;
            }
        }
        let child = space.mutate(&history[best_idx].0.arch, &mut rng);
        let spec = TrialSpec::from_arch(child, combo, id);
        let acc = accuracy(evaluator, &spec, seed);
        history.push((spec, acc));
        population.push_back(id);
        population.pop_front(); // age out the oldest
    }
    SearchResult::from_history(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateEvaluator;
    use hydronas_graph::ArchConfig;

    const COMBO: InputCombo = InputCombo {
        channels: 7,
        batch_size: 16,
    };

    #[test]
    fn random_search_finds_good_configs() {
        let res = random_search(
            &SearchSpace::paper(),
            COMBO,
            &SurrogateEvaluator::default(),
            48,
            5,
        );
        assert_eq!(res.history.len(), 48);
        // Baseline anchor is 95.37; 48 samples should find >= baseline-ish.
        assert!(res.best_accuracy() > 94.0, "best {}", res.best_accuracy());
    }

    #[test]
    fn random_search_is_deterministic() {
        let ev = SurrogateEvaluator::default();
        let a = random_search(&SearchSpace::paper(), COMBO, &ev, 16, 9);
        let b = random_search(&SearchSpace::paper(), COMBO, &ev, 16, 9);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_accuracy(), b.best_accuracy());
    }

    #[test]
    fn evolution_beats_its_own_initial_population() {
        let ev = SurrogateEvaluator::default();
        let config = EvolutionConfig {
            population: 8,
            sample_size: 3,
            budget: 48,
        };
        let res = regularized_evolution(&SearchSpace::paper(), COMBO, &ev, &config, 3);
        assert_eq!(res.history.len(), 48);
        let init_best = res.history[..8]
            .iter()
            .map(|(_, a)| *a)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            res.best_accuracy() >= init_best,
            "evolution regressed: {} < {init_best}",
            res.best_accuracy()
        );
    }

    #[test]
    fn evolution_converges_toward_known_winners() {
        // The surrogate's optimum uses k=3, p=1, ds=2, f=32; evolution
        // with a decent budget should concentrate there.
        let ev = SurrogateEvaluator::default();
        let config = EvolutionConfig {
            population: 12,
            sample_size: 4,
            budget: 120,
        };
        let res = regularized_evolution(&SearchSpace::paper(), COMBO, &ev, &config, 7);
        let best = res.best_spec();
        assert_eq!(best.arch.kernel_size, 3, "best {:?}", best.arch);
        assert_eq!(best.arch.padding, 1);
        assert!(res.best_accuracy() > 95.5, "best {}", res.best_accuracy());
    }

    #[test]
    fn mutation_changes_exactly_one_dimension_class() {
        let space = SearchSpace::paper();
        let mut rng = TensorRng::seed_from_u64(1);
        let base = ArchConfig::baseline(5);
        for _ in 0..50 {
            let m = space.mutate(&base, &mut rng);
            let mut diffs = 0;
            diffs += usize::from(m.kernel_size != base.kernel_size);
            diffs += usize::from(m.stride != base.stride);
            diffs += usize::from(m.padding != base.padding);
            diffs += usize::from(m.initial_features != base.initial_features);
            diffs += usize::from(m.pool != base.pool);
            assert!(diffs <= 1, "mutation touched {diffs} dimensions");
        }
    }

    #[test]
    #[should_panic(expected = "budget below population")]
    fn evolution_rejects_tiny_budget() {
        let ev = SurrogateEvaluator::default();
        let config = EvolutionConfig {
            population: 8,
            sample_size: 2,
            budget: 4,
        };
        let _ = regularized_evolution(&SearchSpace::paper(), COMBO, &ev, &config, 0);
    }
}
