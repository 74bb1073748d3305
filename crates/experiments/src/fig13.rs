//! Exp 8 / Fig. 13: countermeasures against attacks to the **clustering
//! coefficient** (Facebook stand-in).
//!
//! Panel (a): Detect1 vs. Naive1 vs. no defense against MGA over flag
//! thresholds {50, 75, 100, 125, 150}; panel (b): Detect2 vs. Naive2 vs.
//! no defense against RVA over β. Each point is the mean Eq. 5 gain after
//! the defense, computed as in Fig. 12.
//!
//! At the paper's scale, (a)'s Detect1 flags and rebuilds every row at
//! every threshold of the grid, so its series is flat (see ROADMAP,
//! "Detect1: a threshold that means something"). In (b) RVA's gain sits
//! on the protocol's own noise floor, so Detect2's gain stays close to the
//! undefended one and is above it at some β (see ROADMAP, "Measure gains
//! above the noise floor").

use crate::config::{grids, ExperimentConfig};
use crate::fig12::{panel_beta_sweep, panel_threshold_sweep};
use crate::output::Figure;
use ldp_protocols::Metric;
use poison_core::{AttackStrategy, ScenarioError};

/// Panel (a): threshold sweep against MGA on the clustering coefficient.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run_panel_a(cfg: &ExperimentConfig, thresholds: &[usize]) -> Result<Figure, ScenarioError> {
    panel_threshold_sweep(
        cfg,
        Metric::Clustering,
        thresholds,
        AttackStrategy::Mga,
        "Fig 13(a)",
    )
}

/// Panel (b): β sweep against RVA on the clustering coefficient.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run_panel_b(cfg: &ExperimentConfig, betas: &[f64]) -> Result<Figure, ScenarioError> {
    panel_beta_sweep(
        cfg,
        Metric::Clustering,
        betas,
        AttackStrategy::Rva,
        "Fig 13(b)",
    )
}

/// Runs both panels on the paper's grids.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
    Ok(vec![
        run_panel_a(cfg, &grids::FIG13A_THRESHOLDS)?,
        run_panel_b(cfg, &grids::FIG12B_BETAS)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_panels_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 47,
        };
        let a = run_panel_a(&cfg, &[100]).unwrap();
        let b = run_panel_b(&cfg, &[0.05]).unwrap();
        for fig in [a, b] {
            assert_eq!(fig.series.len(), 3);
            assert!(fig
                .series
                .iter()
                .all(|s| s.values.iter().all(|v| v.is_finite())));
        }
    }
}
