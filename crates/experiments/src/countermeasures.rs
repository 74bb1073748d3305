//! The countermeasure figures (Figs. 12–13) as rows of one table.
//!
//! Both figures run the same two panels on the Facebook stand-in, one per
//! metric:
//!
//! * Panel (a): Detect1 (frequent itemsets) vs. Naive1 vs. no defense
//!   against MGA, sweeping the Detect1 flag threshold. Naive1 and no
//!   defense ignore the threshold, so their spread along the axis is seed
//!   noise. Detect1's pair-count score flags most genuine rows on these
//!   grids, and its series shows no U-shape (see ROADMAP, "Detect1: a
//!   threshold that means something").
//! * Panel (b): Detect2 (degree consistency) vs. Naive2 vs. no defense
//!   against RVA, sweeping β. On the clustering coefficient RVA's gain
//!   sits on the protocol's own noise floor, so Detect2's gain stays close
//!   to the undefended one and is above it at some β (see ROADMAP,
//!   "Measure gains above the noise floor").
//!
//! Each point is the mean Eq. 5 gain after the defense. Every cell is one
//! exact-mode [`Scenario`] run; the defended and undefended cells of a
//! point differ only by `.defend(...)`.

use crate::config::defaults::{BETA, EPSILON, GAMMA};
use crate::config::{grids, ExperimentConfig};
use crate::output::Figure;
use crate::runner::{draw_threat, run_grid};
use ldp_graph::datasets::Dataset;
use ldp_graph::CsrGraph;
use ldp_protocols::{LfGdpr, Metric};
use poison_core::scenario::Scenario;
use poison_core::{attack_for, AttackStrategy, Defense, MgaOptions, ScenarioError, ThreatModel};
use poison_defense::{
    DegreeConsistencyDefense, FrequentItemsetDefense, NaiveDegreeTails, NaiveTopDegree,
};

/// One of Figs. 12–13: the countermeasures' gains on one metric.
#[derive(Debug, Clone, Copy)]
pub struct CountermeasureFigure {
    /// Title prefix of both panels (e.g. "Fig 12").
    pub name: &'static str,
    /// The metric the attacks target.
    pub metric: Metric,
    /// The paper's Detect1 thresholds of panel (a).
    pub thresholds: &'static [usize],
}

/// Exp 7 / Fig. 12: countermeasures against attacks to degree centrality.
pub const FIG12: CountermeasureFigure = CountermeasureFigure {
    name: "Fig 12",
    metric: Metric::Degree,
    thresholds: &grids::FIG12A_THRESHOLDS,
};

/// Exp 8 / Fig. 13: countermeasures against attacks to the clustering
/// coefficient.
pub const FIG13: CountermeasureFigure = CountermeasureFigure {
    name: "Fig 13",
    metric: Metric::Clustering,
    thresholds: &grids::FIG13A_THRESHOLDS,
};

impl CountermeasureFigure {
    /// Runs both panels on the paper's grids.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn run(&self, cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
        Ok(vec![
            self.panel_a(cfg, self.thresholds)?,
            self.panel_b(cfg, &grids::FIG12B_BETAS)?,
        ])
    }

    /// Panel (a): Detect1 vs. Naive1 against MGA, over the flag
    /// thresholds in `grid`.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn panel_a(&self, cfg: &ExperimentConfig, grid: &[usize]) -> Result<Figure, ScenarioError> {
        let graph = cfg.graph_for(Dataset::Facebook);
        let (threat, _) = draw_threat(&graph, BETA, GAMMA, cfg.seed ^ 0x000F_1612);
        let rows = run_grid(grid, |xi, threshold| {
            let detect1 = FrequentItemsetDefense::new(threshold);
            let naive1 = NaiveTopDegree::default();
            self.defended_row(
                cfg,
                &graph,
                &threat,
                AttackStrategy::Mga,
                [&detect1, &naive1],
                cfg.seed ^ ((xi as u64) << 20),
            )
        })?;
        Ok(Figure::new(
            format!("{}(a)", self.name),
            "detection threshold",
            "overall gain after defense",
            grid.iter().map(|&t| t as f64).collect(),
        )
        .with_columns(["Detect1", "Naive1", "NoDefense"], &rows))
    }

    /// Panel (b): Detect2 vs. Naive2 against RVA, over the β values in
    /// `grid`.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn panel_b(&self, cfg: &ExperimentConfig, grid: &[f64]) -> Result<Figure, ScenarioError> {
        let graph = cfg.graph_for(Dataset::Facebook);
        let rows = run_grid(grid, |xi, beta| {
            let (threat, _) = draw_threat(&graph, beta, GAMMA, cfg.seed ^ 0x00F1_612B ^ xi as u64);
            let detect2 = DegreeConsistencyDefense::default();
            let naive2 = NaiveDegreeTails::default();
            self.defended_row(
                cfg,
                &graph,
                &threat,
                AttackStrategy::Rva,
                [&detect2, &naive2],
                cfg.seed ^ ((xi as u64) << 24),
            )
        })?;
        Ok(Figure::new(
            format!("{}(b)", self.name),
            "beta",
            "overall gain after defense",
            grid.to_vec(),
        )
        .with_columns(["Detect2", "Naive2", "NoDefense"], &rows))
    }

    /// One panel point: the mean gain of `strategy` under each of
    /// `defenses`, then undefended, all at `seed`.
    fn defended_row(
        &self,
        cfg: &ExperimentConfig,
        graph: &CsrGraph,
        threat: &ThreatModel,
        strategy: AttackStrategy,
        defenses: [&dyn Defense; 2],
        seed: u64,
    ) -> Result<Vec<f64>, ScenarioError> {
        let protocol = LfGdpr::new(EPSILON).expect("default epsilon valid");
        defenses
            .into_iter()
            .map(Some)
            .chain([None])
            .map(|defense| {
                let mut builder = Scenario::on(protocol)
                    .attack(attack_for(strategy, MgaOptions::default()))
                    .metric(self.metric)
                    .threat(threat.clone())
                    .exact()
                    .trials(cfg.trials)
                    .seed(seed);
                if let Some(defense) = defense {
                    builder = builder.defend(defense);
                }
                builder.run(graph).map(|report| report.mean_gain())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::tests::assert_panel;

    #[test]
    fn panel_a_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 37,
        };
        let fig = FIG12.panel_a(&cfg, &[50, 300]).unwrap();
        assert_panel(&fig, "Fig 12(a)", &["Detect1", "Naive1", "NoDefense"], 2);
    }

    #[test]
    fn panel_b_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 41,
        };
        let fig = FIG12.panel_b(&cfg, &[0.01, 0.1]).unwrap();
        assert_panel(&fig, "Fig 12(b)", &["Detect2", "Naive2", "NoDefense"], 2);
    }

    #[test]
    fn detect2_defends_rva_better_than_nothing() {
        let cfg = ExperimentConfig {
            scale: 0.3,
            trials: 2,
            seed: 43,
        };
        let fig = FIG12.panel_b(&cfg, &[0.05]).unwrap();
        let by = |l: &str| fig.series.iter().find(|s| s.label == l).unwrap().values[0];
        assert!(
            by("Detect2") < by("NoDefense"),
            "Detect2 {} should reduce the undefended gain {}",
            by("Detect2"),
            by("NoDefense")
        );
    }
}
