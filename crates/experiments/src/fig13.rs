//! Fig. 13 under its own module path.

use crate::config::ExperimentConfig;
use crate::output::Figure;
use poison_core::ScenarioError;

/// Runs [`countermeasures::FIG13`](crate::countermeasures::FIG13) on the
/// paper's grids. perfbench's `fig13_defenses` workload checks its series
/// against this path; ROADMAP item 5 retires it.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
    crate::countermeasures::FIG13.run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countermeasures::FIG13;
    use crate::output::tests::assert_panel;

    #[test]
    fn both_panels_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 47,
        };
        let a = FIG13.panel_a(&cfg, &[100]).unwrap();
        let b = FIG13.panel_b(&cfg, &[0.05]).unwrap();
        assert_panel(&a, "Fig 13(a)", &["Detect1", "Naive1", "NoDefense"], 1);
        assert_panel(&b, "Fig 13(b)", &["Detect2", "Naive2", "NoDefense"], 1);
    }
}
