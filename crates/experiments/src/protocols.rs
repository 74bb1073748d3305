//! The protocol figures (Figs. 14–15) as rows of one table.
//!
//! Both figures sweep ε on the Facebook stand-in and plot the mean gain of
//! RVA/RNA/MGA on one metric: panel (a) attacks LF-GDPR, panel (b) LDPGen.
//! The protocol enters only as a constructor, so a third protocol would be
//! one more panel method. Expected shape: all attacks land on both
//! protocols; MGA generally best.
//!
//! Fig. 15's modularity needs a partition: label propagation on the
//! genuine graph (the data collector's standard workflow), drawn from the
//! threat's generator right after the threat. Its gain is the absolute
//! change of the estimated modularity, per DESIGN.md §2.

use crate::config::defaults::{BETA, GAMMA};
use crate::config::{grids, ExperimentConfig};
use crate::output::Figure;
use crate::runner::{draw_threat, run_grid};
use ldp_graph::community::label_propagation;
use ldp_graph::datasets::Dataset;
use ldp_protocols::{GraphLdpProtocol, LdpGen, LfGdpr, Metric};
use poison_core::scenario::Scenario;
use poison_core::{attack_for, AttackStrategy, MgaOptions, ScenarioError};

/// One of Figs. 14–15: the attacks' gains on one metric, one panel per
/// protocol.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolFigure {
    /// Title prefix of both panels (e.g. "Fig 14").
    pub name: &'static str,
    /// The metric the attacks target.
    pub metric: Metric,
    /// The y-axis label.
    pub y_label: &'static str,
    /// Seed tag of the threat draw; panel (a) adds `0xA`, panel (b) `0xB`,
    /// so the two protocols face independently drawn targets.
    pub seed_tag: u64,
}

/// Exp 9 / Fig. 14: attacks on LF-GDPR and LDPGen for the clustering
/// coefficient.
pub const FIG14: ProtocolFigure = ProtocolFigure {
    name: "Fig 14",
    metric: Metric::Clustering,
    y_label: "clustering-coefficient gain",
    seed_tag: 0x0F14_0000,
};

/// Exp 9 / Fig. 15: attacks on LF-GDPR and LDPGen for modularity.
pub const FIG15: ProtocolFigure = ProtocolFigure {
    name: "Fig 15",
    metric: Metric::Modularity,
    y_label: "modularity gain",
    seed_tag: 0x0F15_0000,
};

impl ProtocolFigure {
    /// Runs both panels on the paper's ε grid.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn run(&self, cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
        Ok(vec![
            self.panel_a(cfg, &grids::EPSILONS)?,
            self.panel_b(cfg, &grids::EPSILONS)?,
        ])
    }

    /// Panel (a): LF-GDPR's gains over the ε values in `grid`.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn panel_a(&self, cfg: &ExperimentConfig, grid: &[f64]) -> Result<Figure, ScenarioError> {
        self.panel(cfg, grid, "(a) LF-GDPR", 0xA, |epsilon| {
            LfGdpr::new(epsilon).expect("positive epsilon grid")
        })
    }

    /// Panel (b): LDPGen's gains over the ε values in `grid`.
    ///
    /// # Errors
    /// Propagates the first scenario failure.
    pub fn panel_b(&self, cfg: &ExperimentConfig, grid: &[f64]) -> Result<Figure, ScenarioError> {
        self.panel(cfg, grid, "(b) LDPGen", 0xB, |epsilon| {
            LdpGen::with_defaults(epsilon).expect("positive epsilon grid")
        })
    }

    /// One ε panel: per grid point, the protocol at ε and all three
    /// attacks through the scenario engine.
    fn panel<P: GraphLdpProtocol + Copy>(
        &self,
        cfg: &ExperimentConfig,
        epsilons: &[f64],
        panel: &str,
        tag: u64,
        make_protocol: impl Fn(f64) -> P + Sync,
    ) -> Result<Figure, ScenarioError> {
        let graph = cfg.graph_for(Dataset::Facebook);
        let (threat, mut rng) = draw_threat(&graph, BETA, GAMMA, cfg.seed ^ self.seed_tag ^ tag);
        let partition = self
            .metric
            .requires_partition()
            .then(|| label_propagation(&graph, 20, &mut rng));
        let rows = run_grid(epsilons, |xi, epsilon| {
            let protocol = make_protocol(epsilon);
            AttackStrategy::ALL
                .iter()
                .map(|&strategy| {
                    let mut builder = Scenario::on(protocol)
                        .attack(attack_for(strategy, MgaOptions::default()))
                        .metric(self.metric)
                        .threat(threat.clone())
                        .trials(cfg.trials)
                        .seed(cfg.seed ^ ((xi as u64) << 12));
                    if let Some(partition) = &partition {
                        builder = builder.partition(partition);
                    }
                    builder.run(&graph).map(|report| report.mean_gain())
                })
                .collect::<Result<Vec<f64>, ScenarioError>>()
        })?;
        Ok(Figure::new(
            format!("{}{panel}", self.name),
            "epsilon",
            self.y_label,
            epsilons.to_vec(),
        )
        .with_columns(AttackStrategy::ALL.map(|s| s.name()), &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::tests::assert_panel;

    mod fig14 {
        use super::*;

        #[test]
        fn both_panels_smoke() {
            let cfg = ExperimentConfig {
                scale: 0.25,
                trials: 1,
                seed: 53,
            };
            let a = FIG14.panel_a(&cfg, &[4.0]).unwrap();
            let b = FIG14.panel_b(&cfg, &[4.0]).unwrap();
            assert_panel(&a, "Fig 14(a) LF-GDPR", &["RVA", "RNA", "MGA"], 1);
            assert_panel(&b, "Fig 14(b) LDPGen", &["RVA", "RNA", "MGA"], 1);
            assert_eq!(a.y_label, FIG14.y_label);
            assert_eq!(b.y_label, FIG14.y_label);
        }
    }

    mod fig15 {
        use super::*;

        #[test]
        fn both_panels_smoke() {
            let cfg = ExperimentConfig {
                scale: 0.25,
                trials: 1,
                seed: 59,
            };
            let a = FIG15.panel_a(&cfg, &[4.0]).unwrap();
            let b = FIG15.panel_b(&cfg, &[4.0]).unwrap();
            assert_panel(&a, "Fig 15(a) LF-GDPR", &["RVA", "RNA", "MGA"], 1);
            assert_panel(&b, "Fig 15(b) LDPGen", &["RVA", "RNA", "MGA"], 1);
            assert_eq!(a.y_label, FIG15.y_label);
            assert_eq!(b.y_label, FIG15.y_label);
        }
    }
}
