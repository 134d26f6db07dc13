//! The search space (paper Figure 2) and its enumeration.

use hydronas_graph::{ArchConfig, PoolConfig};
use hydronas_tensor::TensorRng;
use serde::{Deserialize, Serialize};

/// One input-data combination: channel mode x training batch size.
/// The paper benchmarks six: {5, 7} channels x {8, 16, 32} batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InputCombo {
    pub channels: usize,
    pub batch_size: usize,
}

impl InputCombo {
    /// The six combinations of the paper, in report order.
    pub fn all() -> Vec<InputCombo> {
        let mut combos = Vec::with_capacity(6);
        for channels in [5, 7] {
            for batch_size in [8, 16, 32] {
                combos.push(InputCombo {
                    channels,
                    batch_size,
                });
            }
        }
        combos
    }
}

/// The mutable stem dimensions of Figure 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSpace {
    pub kernel_sizes: Vec<usize>,
    pub strides: Vec<usize>,
    pub paddings: Vec<usize>,
    pub pool_choices: Vec<usize>,
    pub pool_kernels: Vec<usize>,
    pub pool_strides: Vec<usize>,
    pub initial_features: Vec<usize>,
}

impl Default for SearchSpace {
    fn default() -> SearchSpace {
        SearchSpace::paper()
    }
}

impl SearchSpace {
    /// The paper's space: 2 x 2 x 3 x (2 x 2 x 2) x 3 = 288 configurations.
    pub fn paper() -> SearchSpace {
        SearchSpace {
            kernel_sizes: vec![3, 7],
            strides: vec![1, 2],
            paddings: vec![0, 1, 3],
            pool_choices: vec![0, 1],
            pool_kernels: vec![2, 3],
            pool_strides: vec![1, 2],
            initial_features: vec![32, 48, 64],
        }
    }

    /// Number of enumerated configurations (counting `no pool` once per
    /// pool-kernel/stride combination, as NNI's grid does).
    pub fn cardinality(&self) -> usize {
        self.kernel_sizes.len()
            * self.strides.len()
            * self.paddings.len()
            * self.pool_choices.len()
            * self.pool_kernels.len()
            * self.pool_strides.len()
            * self.initial_features.len()
    }

    /// Enumerates every configuration for a channel count, in a stable
    /// order. `pool_choice = 0` rows keep their (irrelevant) pool
    /// kernel/stride values, mirroring the paper's NNI grid where those
    /// configurations coincide.
    pub fn enumerate(&self, channels: usize) -> Vec<ArchConfig> {
        let mut out = Vec::with_capacity(self.cardinality());
        for &kernel_size in &self.kernel_sizes {
            for &stride in &self.strides {
                for &padding in &self.paddings {
                    for &feat in &self.initial_features {
                        for &pool_choice in &self.pool_choices {
                            for &pool_kernel in &self.pool_kernels {
                                for &pool_stride in &self.pool_strides {
                                    let pool = (pool_choice == 1).then_some(PoolConfig {
                                        kernel: pool_kernel,
                                        stride: pool_stride,
                                    });
                                    out.push(ArchConfig {
                                        in_channels: channels,
                                        kernel_size,
                                        stride,
                                        padding,
                                        pool,
                                        initial_features: feat,
                                        num_classes: 2,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Samples one configuration uniformly — the searchers' shared
    /// sampler. The draw order is fixed, since every searcher's results
    /// depend on it: pool choice, kernel, stride, padding, pool kernel,
    /// pool stride, width.
    pub(crate) fn sample(&self, channels: usize, rng: &mut TensorRng) -> ArchConfig {
        let pool_choice = pick(&self.pool_choices, rng);
        let kernel_size = pick(&self.kernel_sizes, rng);
        let stride = pick(&self.strides, rng);
        let padding = pick(&self.paddings, rng);
        let pool = self.pool(pool_choice, rng);
        ArchConfig {
            in_channels: channels,
            kernel_size,
            stride,
            padding,
            pool,
            initial_features: pick(&self.initial_features, rng),
            num_classes: 2,
        }
    }

    /// Re-draws one uniformly chosen dimension of `arch` (the pool counts
    /// as one dimension).
    pub(crate) fn mutate(&self, arch: &ArchConfig, rng: &mut TensorRng) -> ArchConfig {
        let mut out = *arch;
        match rng.index(5) {
            0 => out.kernel_size = pick(&self.kernel_sizes, rng),
            1 => out.stride = pick(&self.strides, rng),
            2 => out.padding = pick(&self.paddings, rng),
            3 => out.initial_features = pick(&self.initial_features, rng),
            _ => {
                let pool_choice = pick(&self.pool_choices, rng);
                out.pool = self.pool(pool_choice, rng);
            }
        }
        out
    }

    /// Draws a pool kernel and stride — both, even when `pool_choice`
    /// turns the pool off, so the RNG stream does not depend on it.
    fn pool(&self, pool_choice: usize, rng: &mut TensorRng) -> Option<PoolConfig> {
        let kernel = pick(&self.pool_kernels, rng);
        let stride = pick(&self.pool_strides, rng);
        (pool_choice == 1).then_some(PoolConfig { kernel, stride })
    }
}

/// One uniform draw from `options`.
fn pick<T: Copy>(options: &[T], rng: &mut TensorRng) -> T {
    options[rng.index(options.len())]
}

/// One scheduled trial: a configuration paired with its input combination
/// and a stable id.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrialSpec {
    pub id: usize,
    pub combo: InputCombo,
    pub arch: ArchConfig,
    /// Redundant pool kernel/stride as enumerated (kept even for
    /// `pool = None` rows so Table 4's columns can be reported verbatim).
    pub kernel_size_pool: usize,
    pub stride_pool: usize,
}

impl TrialSpec {
    /// The trial for a sampled `arch`. A pool-less `arch` records the
    /// default pool columns (kernel 3, stride 2).
    pub(crate) fn from_arch(arch: ArchConfig, combo: InputCombo, id: usize) -> TrialSpec {
        TrialSpec {
            id,
            combo,
            arch,
            kernel_size_pool: arch.pool.map_or(3, |p| p.kernel),
            stride_pool: arch.pool.map_or(2, |p| p.stride),
        }
    }

    /// Stable key for seeding and persistence.
    pub fn key(&self) -> String {
        format!(
            "b{}-{}-pk{}-ps{}",
            self.combo.batch_size,
            self.arch.key(),
            self.kernel_size_pool,
            self.stride_pool
        )
    }
}

/// Enumerates the full experiment: all six input combinations over the
/// whole space — the paper's 1,728 scheduled trials.
pub fn full_grid(space: &SearchSpace) -> Vec<TrialSpec> {
    let mut trials = Vec::with_capacity(6 * space.cardinality());
    let mut id = 0usize;
    for combo in InputCombo::all() {
        // Re-enumerate with explicit pool columns.
        for &kernel_size in &space.kernel_sizes {
            for &stride in &space.strides {
                for &padding in &space.paddings {
                    for &feat in &space.initial_features {
                        for &pool_choice in &space.pool_choices {
                            for &pool_kernel in &space.pool_kernels {
                                for &pool_stride in &space.pool_strides {
                                    let pool = (pool_choice == 1).then_some(PoolConfig {
                                        kernel: pool_kernel,
                                        stride: pool_stride,
                                    });
                                    trials.push(TrialSpec {
                                        id,
                                        combo,
                                        arch: ArchConfig {
                                            in_channels: combo.channels,
                                            kernel_size,
                                            stride,
                                            padding,
                                            pool,
                                            initial_features: feat,
                                            num_classes: 2,
                                        },
                                        kernel_size_pool: pool_kernel,
                                        stride_pool: pool_stride,
                                    });
                                    id += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    trials
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_has_288_configurations() {
        let space = SearchSpace::paper();
        assert_eq!(space.cardinality(), 288);
        assert_eq!(space.enumerate(5).len(), 288);
        assert_eq!(space.enumerate(7).len(), 288);
    }

    #[test]
    fn six_input_combinations() {
        let combos = InputCombo::all();
        assert_eq!(combos.len(), 6);
        assert_eq!(
            combos[0],
            InputCombo {
                channels: 5,
                batch_size: 8
            }
        );
        assert_eq!(
            combos[5],
            InputCombo {
                channels: 7,
                batch_size: 32
            }
        );
    }

    #[test]
    fn full_grid_is_1728_trials() {
        let trials = full_grid(&SearchSpace::paper());
        assert_eq!(trials.len(), 1728, "the paper's 6 x 288 scheduled trials");
        // Ids are dense and unique.
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.id, i);
        }
    }

    #[test]
    fn trial_keys_are_unique() {
        let trials = full_grid(&SearchSpace::paper());
        let mut keys: Vec<String> = trials.iter().map(|t| t.key()).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate trial keys");
    }

    #[test]
    fn no_pool_rows_duplicate_architectures() {
        // The 'no pool' option renders pool kernel/stride irrelevant: the
        // 288 rows collapse to 36 + 144 = 180 distinct architectures.
        let space = SearchSpace::paper();
        let mut archs = space.enumerate(5);
        archs.sort_by_key(|a| a.key());
        archs.dedup();
        assert_eq!(archs.len(), 180);
    }

    #[test]
    fn enumeration_covers_baseline_and_pareto_configs() {
        let archs = SearchSpace::paper().enumerate(5);
        assert!(archs.contains(&ArchConfig::baseline(5)));
        // Table 4 row 4: 5ch k3 s2 p1 no-pool f32.
        let pareto = ArchConfig {
            in_channels: 5,
            kernel_size: 3,
            stride: 2,
            padding: 1,
            pool: None,
            initial_features: 32,
            num_classes: 2,
        };
        assert!(archs.contains(&pareto));
    }

    #[test]
    fn enumeration_order_is_stable() {
        let a = full_grid(&SearchSpace::paper());
        let b = full_grid(&SearchSpace::paper());
        assert_eq!(a, b);
    }
}
