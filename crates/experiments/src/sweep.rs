//! The attack figures (Figs. 6–11) as rows of one table.
//!
//! Every panel of those figures is the same experiment shape: fix two of
//! (ε, β, γ) at the Table III defaults, sweep the third, and plot the mean
//! overall gain of RVA/RNA/MGA on one dataset. The MGA theory curves
//! (Theorems 1–2) ride along for comparison. A [`SweepFigure`] names the
//! metric, the swept axis and the paper's grid; [`FIG6`]…[`FIG11`] are the
//! six figures.
//!
//! Each point is one [`Scenario`] run per attack: the engine owns the
//! exact vs. analytic-sampled choice (degree sweeps on large stand-ins
//! sample analytically at `O(r)` per trial), the common-random-numbers
//! discipline, and the trial fold — there is no protocol- or mode-specific
//! branching left here.

use crate::config::{defaults, grids, ExperimentConfig};
use crate::output::Figure;
use crate::runner::{draw_threat, run_grid};
use ldp_graph::datasets::Dataset;
use ldp_protocols::{LfGdpr, Metric};
use poison_core::scenario::Scenario;
use poison_core::{
    attack_for, theorem1_degree_gain, theorem2_clustering_gain, AttackStrategy, AttackerKnowledge,
    MgaOptions, ScenarioError,
};

/// Which of the three parameters a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Privacy budget ε (Figs. 6, 9).
    Epsilon,
    /// Fake-user fraction β (Figs. 7, 10).
    Beta,
    /// Target fraction γ (Figs. 8, 11).
    Gamma,
}

impl SweepAxis {
    /// Axis label for the figures.
    pub fn label(self) -> &'static str {
        match self {
            SweepAxis::Epsilon => "epsilon",
            SweepAxis::Beta => "beta",
            SweepAxis::Gamma => "gamma",
        }
    }

    /// The (ε, β, γ) triple a point at `x` on this axis runs with.
    fn params(self, x: f64) -> (f64, f64, f64) {
        match self {
            SweepAxis::Epsilon => (x, defaults::BETA, defaults::GAMMA),
            SweepAxis::Beta => (defaults::EPSILON, x, defaults::GAMMA),
            SweepAxis::Gamma => (defaults::EPSILON, defaults::BETA, x),
        }
    }
}

/// One of Figs. 6–11: a metric's gain swept along one axis, one panel per
/// dataset.
#[derive(Debug, Clone, Copy)]
pub struct SweepFigure {
    /// Title prefix of every panel (e.g. "Fig 6").
    pub name: &'static str,
    /// The metric the attacks target.
    pub metric: Metric,
    /// The swept parameter.
    pub axis: SweepAxis,
    /// The paper's grid on that axis.
    pub grid: &'static [f64],
}

/// Exp 1 / Fig. 6: degree centrality vs ε. MGA and RVA fall as ε grows (a
/// larger budget shrinks the perturbed average degree and with it the
/// connection budget); RNA is flat (one crafted edge); MGA dominates.
pub const FIG6: SweepFigure = SweepFigure {
    name: "Fig 6",
    metric: Metric::Degree,
    axis: SweepAxis::Epsilon,
    grid: &grids::EPSILONS,
};

/// Exp 2 / Fig. 7: degree centrality vs β. Gains rise with β;
/// MGA > RVA > RNA.
pub const FIG7: SweepFigure = SweepFigure {
    name: "Fig 7",
    metric: Metric::Degree,
    axis: SweepAxis::Beta,
    grid: &grids::BETAS,
};

/// Exp 3 / Fig. 8: degree centrality vs γ. Gains rise with γ (a larger
/// attack surface); MGA dominates.
pub const FIG8: SweepFigure = SweepFigure {
    name: "Fig 8",
    metric: Metric::Degree,
    axis: SweepAxis::Gamma,
    grid: &grids::GAMMAS,
};

/// Exp 4 / Fig. 9: clustering coefficient vs ε. MGA dominates and is
/// comparatively stable in ε; RVA generally beats RNA.
pub const FIG9: SweepFigure = SweepFigure {
    name: "Fig 9",
    metric: Metric::Clustering,
    axis: SweepAxis::Epsilon,
    grid: &grids::EPSILONS,
};

/// Exp 5 / Fig. 10: clustering coefficient vs β. Gains rise with β; MGA
/// plateaus toward RVA once the fakes saturate the target set.
pub const FIG10: SweepFigure = SweepFigure {
    name: "Fig 10",
    metric: Metric::Clustering,
    axis: SweepAxis::Beta,
    grid: &grids::BETAS,
};

/// Exp 6 / Fig. 11: clustering coefficient vs γ. Gains rise with γ; MGA
/// dominates, RVA second.
pub const FIG11: SweepFigure = SweepFigure {
    name: "Fig 11",
    metric: Metric::Clustering,
    axis: SweepAxis::Gamma,
    grid: &grids::GAMMAS,
};

impl SweepFigure {
    /// Runs the figure on the paper's grid, over all four datasets — or
    /// one, when `only` is given (the `--dataset` flag).
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn run(
        &self,
        cfg: &ExperimentConfig,
        only: Option<Dataset>,
    ) -> Result<Vec<Figure>, ScenarioError> {
        self.run_with_grid(cfg, self.grid, only)
    }

    /// [`Self::run`] on a custom grid.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn run_with_grid(
        &self,
        cfg: &ExperimentConfig,
        xs: &[f64],
        only: Option<Dataset>,
    ) -> Result<Vec<Figure>, ScenarioError> {
        Dataset::ALL
            .iter()
            .filter(|&&d| only.is_none_or(|o| o == d))
            .map(|&d| self.panel(cfg, d, xs))
            .collect()
    }

    /// One panel (one dataset), including the MGA theory curve.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn panel(
        &self,
        cfg: &ExperimentConfig,
        dataset: Dataset,
        xs: &[f64],
    ) -> Result<Figure, ScenarioError> {
        // Degree-centrality sweeps may use a larger stand-in: the engine's
        // auto mode serves those points through the analytic-sampling
        // pipeline (O(r) per trial); clustering sweeps materialize the
        // perturbed view and stay at the exact-mode size.
        let graph = match self.metric {
            Metric::Degree => cfg.degree_sweep_graph_for(dataset),
            _ => cfg.graph_for(dataset),
        };
        // Each row: the per-strategy mean gains, then the theory value.
        let rows = run_grid(xs, |xi, x| {
            let (epsilon, beta, gamma) = self.axis.params(x);
            let protocol = LfGdpr::new(epsilon).expect("positive epsilon grid");
            let (threat, _) = draw_threat(
                &graph,
                beta,
                gamma,
                cfg.seed ^ (xi as u64) << 8 ^ dataset as u64,
            );
            let seed = cfg.seed ^ ((xi as u64) << 16);
            let mut row = AttackStrategy::ALL
                .iter()
                .map(|&strategy| {
                    Scenario::on(protocol)
                        .attack(attack_for(strategy, MgaOptions::default()))
                        .metric(self.metric)
                        .threat(threat.clone())
                        .trials(cfg.trials)
                        .seed(seed)
                        .run(&graph)
                        .map(|report| report.mean_gain())
                })
                .collect::<Result<Vec<f64>, ScenarioError>>()?;
            let knowledge =
                AttackerKnowledge::derive(&protocol, threat.population(), graph.average_degree());
            row.push(match self.metric {
                Metric::Clustering => theorem2_clustering_gain(
                    threat.m_fake,
                    threat.num_targets(),
                    threat.population(),
                    knowledge.avg_perturbed_degree,
                    knowledge.p_keep,
                ),
                _ => theorem1_degree_gain(
                    threat.m_fake,
                    threat.num_targets(),
                    threat.population(),
                    knowledge.avg_perturbed_degree,
                ),
            });
            Ok(row)
        })?;
        let labels = AttackStrategy::ALL.map(|s| s.name());
        Ok(Figure::new(
            format!("{} {}", self.name, dataset.name()),
            self.axis.label(),
            format!("{} gain", self.metric),
            xs.to_vec(),
        )
        .with_columns(labels.into_iter().chain(["MGA-theory"]), &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(scale: f64, trials: u64, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            scale,
            trials,
            seed,
        }
    }

    fn series<'f>(fig: &'f Figure, label: &str) -> &'f [f64] {
        &fig.series.iter().find(|s| s.label == label).unwrap().values
    }

    fn all_finite(fig: &Figure) -> bool {
        fig.series
            .iter()
            .all(|s| s.values.iter().all(|v| v.is_finite()))
    }

    #[test]
    fn sweep_produces_all_series() {
        let fig = FIG6
            .panel(&config(0.25, 1, 3), Dataset::Facebook, &[2.0, 6.0])
            .unwrap();
        assert_eq!(fig.series.len(), 4, "RVA, RNA, MGA, theory");
        assert_eq!(fig.x, vec![2.0, 6.0]);
        assert!(all_finite(&fig));
    }

    #[test]
    fn mga_beats_baselines_in_sweep() {
        let fig = FIG6
            .panel(&config(0.3, 2, 5), Dataset::Facebook, &[4.0])
            .unwrap();
        assert!(series(&fig, "MGA")[0] > series(&fig, "RNA")[0]);
        assert!(series(&fig, "MGA")[0] > 0.0);
    }

    #[test]
    fn dataset_filter_restricts_the_panels() {
        let figs = FIG6
            .run_with_grid(&config(0.25, 1, 7), &[4.0], Some(Dataset::Enron))
            .unwrap();
        assert_eq!(figs.len(), 1);
        assert!(figs[0].title.contains("Enron"));
    }

    #[test]
    fn axis_labels() {
        assert_eq!(SweepAxis::Epsilon.label(), "epsilon");
        assert_eq!(SweepAxis::Beta.label(), "beta");
        assert_eq!(SweepAxis::Gamma.label(), "gamma");
    }

    #[test]
    fn smoke_two_epsilons_one_dataset_each() {
        let figs = FIG6
            .run_with_grid(&config(0.25, 1, 11), &[1.0, 8.0], None)
            .unwrap();
        assert_eq!(figs.len(), 4);
        for f in &figs {
            assert_eq!(f.x.len(), 2);
            assert_eq!(f.series.len(), 4);
        }
    }

    #[test]
    fn rva_gain_decreases_with_epsilon() {
        // The ε-trend needs a realistically sparse graph: at tiny scales
        // the stand-in's density is inflated and the noise-difference term
        // that drives the paper's downward RVA slope no longer dominates.
        let fig = FIG6
            .panel(&config(1.0, 2, 13), Dataset::Facebook, &[1.0, 8.0])
            .unwrap();
        let rva = series(&fig, "RVA");
        assert!(
            rva[0] > rva[1],
            "RVA at ε=1 ({}) should exceed ε=8 ({})",
            rva[0],
            rva[1]
        );
    }

    #[test]
    fn gain_rises_with_beta() {
        let figs = FIG7
            .run_with_grid(&config(0.3, 2, 17), &[0.01, 0.1], None)
            .unwrap();
        let mga = series(&figs[0], "MGA");
        assert!(
            mga[1] > mga[0],
            "MGA at β=0.1 ({}) should exceed β=0.01 ({})",
            mga[1],
            mga[0]
        );
    }

    #[test]
    fn gain_rises_with_gamma() {
        let figs = FIG8
            .run_with_grid(&config(0.3, 2, 19), &[0.01, 0.1], None)
            .unwrap();
        let mga = series(&figs[0], "MGA");
        assert!(
            mga[1] > mga[0],
            "MGA at γ=0.1 ({}) should exceed γ=0.01 ({})",
            mga[1],
            mga[0]
        );
    }

    #[test]
    fn smoke_produces_finite_gains() {
        let figs = FIG9
            .run_with_grid(&config(0.25, 1, 23), &[4.0], None)
            .unwrap();
        assert_eq!(figs.len(), 4);
        assert!(figs.iter().all(all_finite));
    }

    #[test]
    fn smoke_runs_two_betas() {
        let figs = FIG10
            .run_with_grid(&config(0.25, 1, 29), &[0.01, 0.05], None)
            .unwrap();
        assert_eq!(figs.len(), 4);
        assert!(all_finite(&figs[0]));
    }

    #[test]
    fn smoke_runs_two_gammas() {
        let figs = FIG11
            .run_with_grid(&config(0.25, 1, 31), &[0.01, 0.1], None)
            .unwrap();
        assert_eq!(figs.len(), 4);
        assert!(all_finite(&figs[0]));
    }
}
