//! NSGA-II: direct multi-objective architecture search.
//!
//! The paper evaluates the *whole* grid and intersects it with a Pareto
//! front afterwards; NSGA-II (Deb et al. 2002) instead evolves a
//! population toward the front directly, reaching comparable fronts at a
//! fraction of the trial budget — the quantified version of the paper's
//! Section 5 "streamline the search" suggestion.

use crate::evaluator::Evaluator;
use crate::experiment::OBJECTIVE_SENSES;
use crate::space::{InputCombo, SearchSpace, TrialSpec};
use hydronas_graph::{serialized_size_bytes, ArchConfig, ModelGraph};
use hydronas_latency::predict_all;
use hydronas_pareto::{crowding_distance, non_dominated_sort, pareto_front, Point};
use hydronas_tensor::TensorRng;
use serde::{Deserialize, Serialize};

/// One evaluated individual: spec + the three objectives.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Individual {
    pub spec: TrialSpec,
    /// `[accuracy %, latency ms, memory MB]`.
    pub objectives: [f64; 3],
}

impl Individual {
    fn point(&self, id: usize) -> Point {
        Point::new(id, self.objectives.to_vec())
    }
}

/// NSGA-II parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Nsga2Config {
    pub population: usize,
    pub generations: usize,
    /// Latency/memory evaluation tile size.
    pub input_hw: usize,
}

impl Default for Nsga2Config {
    fn default() -> Nsga2Config {
        Nsga2Config {
            population: 24,
            generations: 8,
            input_hw: 32,
        }
    }
}

/// Search outcome: the final population and its first front.
#[derive(Clone, Debug)]
pub struct Nsga2Result {
    pub population: Vec<Individual>,
    pub front: Vec<Individual>,
    /// Total evaluator calls spent.
    pub evaluations: usize,
}

/// Uniform crossover over the five stem dimensions.
fn crossover(a: &ArchConfig, b: &ArchConfig, rng: &mut TensorRng) -> ArchConfig {
    let coin = |rng: &mut TensorRng| rng.index(2) == 0;
    ArchConfig {
        in_channels: a.in_channels,
        kernel_size: if coin(rng) {
            a.kernel_size
        } else {
            b.kernel_size
        },
        stride: if coin(rng) { a.stride } else { b.stride },
        padding: if coin(rng) { a.padding } else { b.padding },
        pool: if coin(rng) { a.pool } else { b.pool },
        initial_features: if coin(rng) {
            a.initial_features
        } else {
            b.initial_features
        },
        num_classes: 2,
    }
}

struct Search<'a> {
    combo: InputCombo,
    evaluator: &'a dyn Evaluator,
    config: Nsga2Config,
    seed: u64,
    next_id: usize,
    evaluations: usize,
}

impl Search<'_> {
    fn evaluate(&mut self, arch: ArchConfig) -> Option<Individual> {
        let spec = TrialSpec::from_arch(arch, self.combo, self.next_id);
        self.next_id += 1;
        self.evaluations += 1;
        let graph = ModelGraph::from_arch(&arch, self.config.input_hw).ok()?;
        let accuracy = self
            .evaluator
            .evaluate(&spec, self.seed)
            .ok()?
            .mean_accuracy;
        let latency = predict_all(&graph).mean_ms;
        let memory = serialized_size_bytes(&graph) as f64 / 1e6;
        Some(Individual {
            spec,
            objectives: [accuracy, latency, memory],
        })
    }

    /// Environmental selection: keep the best `population` individuals by
    /// (front rank, crowding distance).
    fn select(&self, pool: Vec<Individual>) -> Vec<Individual> {
        let points: Vec<Point> = pool
            .iter()
            .enumerate()
            .map(|(i, ind)| ind.point(i))
            .collect();
        let fronts = non_dominated_sort(&points, &OBJECTIVE_SENSES);
        let mut selected: Vec<Individual> = Vec::with_capacity(self.config.population);
        for front in fronts {
            let remaining = self.config.population - selected.len();
            if front.len() <= remaining {
                selected.extend(front.iter().map(|p| pool[p.id].clone()));
            } else {
                // Partial front: prefer the most isolated trade-offs.
                let crowding = crowding_distance(&front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&a, &b| {
                    crowding[b]
                        .partial_cmp(&crowding[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                selected.extend(
                    order
                        .into_iter()
                        .take(remaining)
                        .map(|i| pool[front[i].id].clone()),
                );
            }
            if selected.len() == self.config.population {
                break;
            }
        }
        selected
    }
}

/// Runs NSGA-II; deterministic per seed.
pub fn nsga2(
    space: &SearchSpace,
    combo: InputCombo,
    evaluator: &dyn Evaluator,
    config: &Nsga2Config,
    seed: u64,
) -> Nsga2Result {
    assert!(config.population >= 4, "population too small");
    assert!(config.generations >= 1, "need at least one generation");
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut search = Search {
        combo,
        evaluator,
        config: *config,
        seed,
        next_id: 0,
        evaluations: 0,
    };

    let mut population: Vec<Individual> = Vec::with_capacity(config.population);
    while population.len() < config.population {
        let arch = space.sample(combo.channels, &mut rng);
        if let Some(ind) = search.evaluate(arch) {
            population.push(ind);
        }
    }

    for _ in 0..config.generations {
        // Binary-tournament parents on (rank, crowding) approximated by
        // dominance of raw objective vectors.
        let mut offspring: Vec<Individual> = Vec::with_capacity(config.population);
        while offspring.len() < config.population {
            let parent = |rng: &mut TensorRng, pop: &[Individual]| -> ArchConfig {
                let a = &pop[rng.index(pop.len())];
                let b = &pop[rng.index(pop.len())];
                let pa = a.point(0);
                let pb = b.point(1);
                if hydronas_pareto::dominates(&pb, &pa, &OBJECTIVE_SENSES) {
                    b.spec.arch
                } else {
                    a.spec.arch
                }
            };
            let pa = parent(&mut rng, &population);
            let pb = parent(&mut rng, &population);
            let mut child = crossover(&pa, &pb, &mut rng);
            if rng.index(2) == 0 {
                child = space.mutate(&child, &mut rng);
            }
            if let Some(ind) = search.evaluate(child) {
                offspring.push(ind);
            }
        }
        let mut pool = population;
        pool.extend(offspring);
        population = search.select(pool);
    }

    let points: Vec<Point> = population
        .iter()
        .enumerate()
        .map(|(i, ind)| ind.point(i))
        .collect();
    let front_points = pareto_front(&points, &OBJECTIVE_SENSES);
    // Converged populations carry many copies of the same architecture
    // (copies never dominate each other); report each architecture once.
    let mut seen = std::collections::HashSet::new();
    let front: Vec<Individual> = front_points
        .iter()
        .map(|p| population[p.id].clone())
        .filter(|ind| seen.insert(ind.spec.arch.key()))
        .collect();
    let evaluations = search.evaluations;
    Nsga2Result {
        population,
        front,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateEvaluator;
    use hydronas_pareto::dominates;

    const COMBO: InputCombo = InputCombo {
        channels: 5,
        batch_size: 16,
    };

    fn run(seed: u64) -> Nsga2Result {
        nsga2(
            &SearchSpace::paper(),
            COMBO,
            &SurrogateEvaluator::default(),
            &Nsga2Config {
                population: 16,
                generations: 6,
                input_hw: 32,
            },
            seed,
        )
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(1);
        let b = run(1);
        assert_eq!(a.front.len(), b.front.len());
        for (x, y) in a.front.iter().zip(&b.front) {
            assert_eq!(x.spec.arch, y.spec.arch);
            assert_eq!(x.objectives, y.objectives);
        }
    }

    #[test]
    fn front_is_internally_non_dominated() {
        let result = run(2);
        assert!(!result.front.is_empty());
        for (i, a) in result.front.iter().enumerate() {
            for (j, b) in result.front.iter().enumerate() {
                if i == j {
                    continue;
                }
                let pa = a.point(0);
                let pb = b.point(1);
                assert!(!dominates(&pa, &pb, &OBJECTIVE_SENSES));
            }
        }
    }

    #[test]
    fn population_size_is_maintained() {
        let result = run(3);
        assert_eq!(result.population.len(), 16);
        // Budget: init + generations * population (minus invalid retries).
        assert!(result.evaluations >= 16 * 7);
        assert!(result.evaluations <= 16 * 7 + 32);
    }

    #[test]
    fn finds_the_minimum_memory_family() {
        // The true front is all f=32; NSGA-II should discover that corner
        // with a budget far below the 288-trial grid.
        let result = run(4);
        assert!(
            result
                .front
                .iter()
                .any(|ind| ind.spec.arch.initial_features == 32),
            "no minimum-width individual on the front"
        );
        let best_mem = result
            .front
            .iter()
            .map(|i| i.objectives[2])
            .fold(f64::INFINITY, f64::min);
        assert!(best_mem < 11.5, "memory corner not found: {best_mem}");
    }

    #[test]
    fn front_has_no_duplicate_architectures() {
        let result = run(6);
        let mut keys: Vec<String> = result.front.iter().map(|i| i.spec.arch.key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "front contains duplicate architectures");
    }

    #[test]
    fn front_spans_the_latency_tradeoff() {
        let result = run(5);
        let lats: Vec<f64> = result.front.iter().map(|i| i.objectives[1]).collect();
        let min = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Multi-objective search keeps diversity: the front is not a
        // single point (unless it collapsed, which would be a bug).
        assert!(result.front.len() >= 2, "front collapsed");
        assert!(max > min, "no latency spread on the front");
    }

    #[test]
    #[should_panic(expected = "population too small")]
    fn tiny_population_rejected() {
        let _ = nsga2(
            &SearchSpace::paper(),
            COMBO,
            &SurrogateEvaluator::default(),
            &Nsga2Config {
                population: 2,
                generations: 1,
                input_hw: 32,
            },
            0,
        );
    }
}
