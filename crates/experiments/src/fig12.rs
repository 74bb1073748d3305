//! Exp 7 / Fig. 12: countermeasures against attacks to **degree
//! centrality** (Facebook stand-in).
//!
//! * Panel (a): Detect1 (frequent itemsets) vs. Naive1 vs. no defense
//!   against MGA, sweeping the Detect1 flag threshold. Each point is the
//!   mean Eq. 5 gain after the defense. Naive1 and no defense ignore the
//!   threshold, so their spread along the axis is seed noise. Detect1's
//!   pair-count score flags most genuine rows on this grid, and its
//!   series shows no U-shape (see ROADMAP, "Detect1: a threshold that
//!   means something").
//! * Panel (b): Detect2 (degree consistency) vs. Naive2 vs. no defense
//!   against RVA, sweeping β. Each point is the mean Eq. 5 gain after
//!   the defense.
//!
//! Every cell is one [`Scenario`] run; the defended and undefended
//! variants differ only by `.defend(...)`.

use crate::config::{defaults, grids, ExperimentConfig};
use crate::output::Figure;
use crate::runner::run_grid;
use ldp_graph::datasets::Dataset;
use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_protocols::{LfGdpr, Metric};
use poison_core::scenario::Scenario;
use poison_core::{
    attack_for, AttackStrategy, Defense, MgaOptions, ScenarioError, TargetSelection, ThreatModel,
};
use poison_defense::{
    DegreeConsistencyDefense, FrequentItemsetDefense, NaiveDegreeTails, NaiveTopDegree,
};

/// The metric both panels of this figure evaluate.
const METRIC: Metric = Metric::Degree;

/// Panel (a): Detect1 vs. Naive1 against MGA, over flag thresholds.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run_panel_a(cfg: &ExperimentConfig, thresholds: &[usize]) -> Result<Figure, ScenarioError> {
    panel_threshold_sweep(cfg, METRIC, thresholds, AttackStrategy::Mga, "Fig 12(a)")
}

/// Panel (b): Detect2 vs. Naive2 against RVA, over β.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run_panel_b(cfg: &ExperimentConfig, betas: &[f64]) -> Result<Figure, ScenarioError> {
    panel_beta_sweep(cfg, METRIC, betas, AttackStrategy::Rva, "Fig 12(b)")
}

/// Runs both panels on the paper's grids.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
    Ok(vec![
        run_panel_a(cfg, &grids::FIG12A_THRESHOLDS)?,
        run_panel_b(cfg, &grids::FIG12B_BETAS)?,
    ])
}

/// One panel point: the mean gain of `strategy` under each of `defenses`,
/// then undefended, all at `seed`.
fn defended_row(
    graph: &CsrGraph,
    threat: &ThreatModel,
    strategy: AttackStrategy,
    metric: Metric,
    defenses: [&dyn Defense; 2],
    trials: u64,
    seed: u64,
) -> Result<[f64; 3], ScenarioError> {
    let protocol = LfGdpr::new(defaults::EPSILON).expect("default epsilon valid");
    let gain = |defense: Option<&dyn Defense>| {
        let mut builder = Scenario::on(protocol)
            .attack(attack_for(strategy, MgaOptions::default()))
            .metric(metric)
            .threat(threat.clone())
            .exact()
            .trials(trials)
            .seed(seed);
        if let Some(defense) = defense {
            builder = builder.defend(defense);
        }
        builder.run(graph).map(|report| report.mean_gain())
    };
    Ok([
        gain(Some(defenses[0]))?,
        gain(Some(defenses[1]))?,
        gain(None)?,
    ])
}

/// Shared panel (a)-shape implementation, reused by Fig. 13(a).
pub(crate) fn panel_threshold_sweep(
    cfg: &ExperimentConfig,
    metric: Metric,
    thresholds: &[usize],
    strategy: AttackStrategy,
    title: &str,
) -> Result<Figure, ScenarioError> {
    let graph = cfg.graph_for(Dataset::Facebook);
    let mut threat_rng = Xoshiro256pp::new(cfg.seed ^ 0x000F_1612);
    let threat = ThreatModel::from_fractions(
        &graph,
        defaults::BETA,
        defaults::GAMMA,
        TargetSelection::UniformRandom,
        &mut threat_rng,
    );
    let rows = run_grid(thresholds, |xi, threshold| {
        let detect1 = FrequentItemsetDefense::new(threshold);
        let naive1 = NaiveTopDegree::default();
        let seed0 = cfg.seed ^ ((xi as u64) << 20);
        defended_row(
            &graph,
            &threat,
            strategy,
            metric,
            [&detect1, &naive1],
            cfg.trials,
            seed0,
        )
    })?;
    Ok(Figure::new(
        title,
        "detection threshold",
        "overall gain after defense",
        thresholds.iter().map(|&t| t as f64).collect(),
    )
    .with_columns(["Detect1", "Naive1", "NoDefense"], &rows))
}

/// Shared panel (b)-shape implementation, reused by Fig. 13(b).
pub(crate) fn panel_beta_sweep(
    cfg: &ExperimentConfig,
    metric: Metric,
    betas: &[f64],
    strategy: AttackStrategy,
    title: &str,
) -> Result<Figure, ScenarioError> {
    let graph = cfg.graph_for(Dataset::Facebook);
    let rows = run_grid(betas, |xi, beta| {
        let mut threat_rng = Xoshiro256pp::new(cfg.seed ^ 0x00F1_612B ^ (xi as u64));
        let threat = ThreatModel::from_fractions(
            &graph,
            beta,
            defaults::GAMMA,
            TargetSelection::UniformRandom,
            &mut threat_rng,
        );
        let detect2 = DegreeConsistencyDefense::default();
        let naive2 = NaiveDegreeTails::default();
        let seed0 = cfg.seed ^ ((xi as u64) << 24);
        defended_row(
            &graph,
            &threat,
            strategy,
            metric,
            [&detect2, &naive2],
            cfg.trials,
            seed0,
        )
    })?;
    Ok(
        Figure::new(title, "beta", "overall gain after defense", betas.to_vec())
            .with_columns(["Detect2", "Naive2", "NoDefense"], &rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 37,
        };
        let fig = run_panel_a(&cfg, &[50, 300]).unwrap();
        assert_eq!(fig.series.len(), 3);
        assert!(fig
            .series
            .iter()
            .all(|s| s.values.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn panel_b_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 41,
        };
        let fig = run_panel_b(&cfg, &[0.01, 0.1]).unwrap();
        assert_eq!(fig.series.len(), 3);
        assert!(fig
            .series
            .iter()
            .all(|s| s.values.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn detect2_defends_rva_better_than_nothing() {
        let cfg = ExperimentConfig {
            scale: 0.3,
            trials: 2,
            seed: 43,
        };
        let fig = run_panel_b(&cfg, &[0.05]).unwrap();
        let by = |l: &str| fig.series.iter().find(|s| s.label == l).unwrap().values[0];
        assert!(
            by("Detect2") < by("NoDefense"),
            "Detect2 {} should reduce the undefended gain {}",
            by("Detect2"),
            by("NoDefense")
        );
    }
}
