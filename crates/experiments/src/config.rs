//! Experiment configuration (paper Table III defaults).

use ldp_graph::datasets::Dataset;

/// Default parameter settings — paper Table III.
pub mod defaults {
    /// Fraction of fake users β.
    pub const BETA: f64 = 0.05;
    /// Fraction of target users γ.
    pub const GAMMA: f64 = 0.05;
    /// Privacy budget ε.
    pub const EPSILON: f64 = 4.0;
}

/// Most nodes any experiment graph may have; the CLI refuses a larger `--scale`.
pub const MAX_NODES: usize = 10_000_000;

/// Global knobs shared by every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Multiplier on the per-dataset experiment node counts: 1.0 gives
    /// 4,039 / 2,000 / 2,000 / 900 nodes for Facebook / Enron / AstroPh /
    /// Gplus (see [`Self::nodes_for`]).
    pub scale: f64,
    /// Independent trials per point; figures plot the mean.
    pub trials: u64,
    /// Base seed; trial `i` of any point uses a seed derived from it.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 1.0,
            trials: 5,
            seed: 20_250_101,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests: tiny graphs, two trials.
    pub fn smoke() -> Self {
        ExperimentConfig {
            scale: 0.25,
            trials: 2,
            seed: 7,
        }
    }

    /// Node count for a dataset's experiment stand-in (exact-mode
    /// pipelines, i.e. everything that materializes the perturbed view).
    ///
    /// Base sizes are the smallest at which the MGA connection budget
    /// `⌊d̃⌋` *binds* against `r = γn` at high ε — the mechanism behind
    /// Fig. 6's falling MGA curve; Facebook runs at its full paper size.
    /// Average degree always matches the paper's Table II. Gplus is the
    /// exception: its paper density cannot be reproduced below ~19k nodes,
    /// so exact-mode Gplus panels saturate the budget and their ε-trend
    /// flattens; degree-centrality sweeps use
    /// [`Self::degree_sweep_nodes_for`] instead.
    pub fn nodes_for(&self, dataset: Dataset) -> usize {
        let base: f64 = match dataset {
            Dataset::Facebook => 4_039.0,
            Dataset::Enron => 2_000.0,
            Dataset::AstroPh => 2_000.0,
            Dataset::Gplus => 900.0,
        };
        ((base * self.scale).round() as usize).max(250)
    }

    /// Node count for degree-centrality sweeps (Figs. 6–8), which can use
    /// the `O(r)`-per-trial analytic-sampling pipeline: Gplus gets 20k
    /// nodes so its connection budget binds like the paper's.
    pub fn degree_sweep_nodes_for(&self, dataset: Dataset) -> usize {
        match dataset {
            Dataset::Gplus => ((20_000.0 * self.scale).round() as usize).max(250),
            _ => self.nodes_for(dataset),
        }
    }

    /// The graph stand-in for a dataset under this configuration.
    pub fn graph_for(&self, dataset: Dataset) -> ldp_graph::CsrGraph {
        dataset.generate_with_nodes(self.nodes_for(dataset), self.seed ^ 0xD5)
    }

    /// The (possibly larger) stand-in used by degree-centrality sweeps.
    pub fn degree_sweep_graph_for(&self, dataset: Dataset) -> ldp_graph::CsrGraph {
        dataset.generate_with_nodes(self.degree_sweep_nodes_for(dataset), self.seed ^ 0xD5)
    }
}

/// The x-axis grids the paper sweeps.
pub mod grids {
    /// Privacy budgets of Figs. 6, 9, 14, 15.
    pub const EPSILONS: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    /// Fake-user fractions of Figs. 7, 10.
    pub const BETAS: [f64; 5] = [0.001, 0.005, 0.01, 0.05, 0.1];
    /// Target fractions of Figs. 8, 11.
    pub const GAMMAS: [f64; 5] = [0.001, 0.005, 0.01, 0.05, 0.1];
    /// Detect1 thresholds of Fig. 12a.
    pub const FIG12A_THRESHOLDS: [usize; 6] = [50, 100, 150, 200, 250, 300];
    /// Fake-user fractions of Figs. 12b, 13b.
    pub const FIG12B_BETAS: [f64; 6] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.15];
    /// Detect1 thresholds of Fig. 13a.
    pub const FIG13A_THRESHOLDS: [usize; 5] = [50, 75, 100, 125, 150];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        assert_eq!(defaults::BETA, 0.05);
        assert_eq!(defaults::GAMMA, 0.05);
        assert_eq!(defaults::EPSILON, 4.0);
    }

    #[test]
    fn node_counts_scale() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.nodes_for(Dataset::Facebook), 4_039, "full paper size");
        let half = ExperimentConfig { scale: 0.5, ..cfg };
        assert_eq!(half.nodes_for(Dataset::Enron), 1_000);
        let tiny = ExperimentConfig {
            scale: 0.0001,
            ..cfg
        };
        assert_eq!(tiny.nodes_for(Dataset::Facebook), 250, "floor enforced");
    }

    #[test]
    fn degree_sweeps_upscale_gplus_only() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.degree_sweep_nodes_for(Dataset::Gplus), 20_000);
        assert_eq!(
            cfg.degree_sweep_nodes_for(Dataset::Facebook),
            cfg.nodes_for(Dataset::Facebook)
        );
        assert!(
            cfg.degree_sweep_nodes_for(Dataset::Gplus)
                > poison_core::scenario::SAMPLED_MODE_THRESHOLD
        );
    }

    #[test]
    fn graph_for_is_deterministic() {
        let cfg = ExperimentConfig::smoke();
        let a = cfg.graph_for(Dataset::Enron);
        let b = cfg.graph_for(Dataset::Enron);
        assert_eq!(a, b);
    }

    #[test]
    fn grids_match_paper() {
        assert_eq!(grids::EPSILONS.len(), 8);
        assert_eq!(grids::BETAS, [0.001, 0.005, 0.01, 0.05, 0.1]);
        assert_eq!(grids::FIG12A_THRESHOLDS, [50, 100, 150, 200, 250, 300]);
        assert_eq!(grids::FIG13A_THRESHOLDS, [50, 75, 100, 125, 150]);
    }
}
